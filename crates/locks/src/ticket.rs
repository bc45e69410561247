//! Ticketlock: fair, globally-spinning, no context (paper §2.1).

use std::sync::atomic::{AtomicU32, Ordering};

use crate::pad::CachePadded;
use crate::park::{ParkSpot, SPIN_FOREVER};
use crate::raw::{LockInfo, NoContext, RawLock};
use crate::spin::Backoff;

/// The classic two-counter ticket lock.
///
/// To acquire, a thread atomically takes the next `ticket` and spins until
/// `grant` equals it; to release, the owner increments `grant`. The lock
/// is FIFO-fair, but all waiters spin on the single `grant` word, which
/// pressures the memory subsystem as contention grows — the property that
/// makes it the *best* basic lock at the system level (2 contenders) and
/// among the *worst* at the NUMA level (many contenders) in the paper's
/// Figure 3.
///
/// # Examples
///
/// ```
/// use clof_locks::{RawLock, TicketLock};
///
/// let lock = TicketLock::default();
/// let mut ctx = Default::default();
/// lock.acquire(&mut ctx);
/// // ... critical section ...
/// lock.release(&mut ctx);
/// ```
#[derive(Debug, Default)]
pub struct TicketLock {
    /// Waiter-written: every acquire RMWs it. Padded so the dispenser
    /// line never invalidates `grant`, which all waiters spin on.
    ticket: CachePadded<AtomicU32>,
    /// Owner-written, waiter-read.
    grant: CachePadded<AtomicU32>,
    /// Eventcount budget-exhausted waiters park on. Grant order is a
    /// total order over *different* awaited values, so the releaser must
    /// wake everyone and let the grant word pick the winner (`wake_all`).
    /// Zero-sized without the `park` feature.
    park: CachePadded<ParkSpot>,
}

const _: () = assert!(
    std::mem::size_of::<TicketLock>()
        == 2 * crate::pad::CACHE_LINE + std::mem::size_of::<CachePadded<ParkSpot>>()
);

impl TicketLock {
    /// Creates an unlocked ticket lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of threads holding or waiting for the lock.
    ///
    /// Racy by nature; intended for diagnostics and waiter hints.
    pub fn queue_len(&self) -> u32 {
        self.ticket
            .load(Ordering::Relaxed)
            .wrapping_sub(self.grant.load(Ordering::Relaxed))
    }

    /// Whether the lock is currently held (racy; for tests/diagnostics).
    pub fn is_locked(&self) -> bool {
        self.queue_len() != 0
    }

    /// Returns whether the first look found the grant short of our
    /// ticket.
    fn acquire_inner(&self, budget: u32) -> bool {
        let my = self.ticket.fetch_add(1, Ordering::Relaxed);
        crate::chaos::point("tkt-acquire-ticketed");
        // The Acquire load synchronizes with the Release store in
        // `release`, ordering the critical section after the previous one.
        self.park
            .wait_until(budget, || self.grant.load(Ordering::Acquire) == my)
    }

    /// Deadline-bounded acquire. A granted ticket cannot be abandoned —
    /// the FIFO hand-off is positional — so a timed-out waiter has two
    /// exits:
    ///
    /// * **Cancel** — if its ticket is still the youngest, a CAS on the
    ///   dispenser retracts it as if it was never issued. (A grant that
    ///   races the cancel is harmless: the next ticket taker draws the
    ///   same number and finds it already granted.)
    /// * **Hand forward** — otherwise later tickets exist and the
    ///   numbering cannot be compacted; the waiter waits out its turn
    ///   and immediately releases, passing the grant on. This bounds
    ///   the *damage* (no wedged queue), not the wait — the turn
    ///   arrives only after all earlier tickets run.
    fn try_acquire_inner(&self, deadline: std::time::Instant) -> bool {
        let my = self.ticket.fetch_add(1, Ordering::Relaxed);
        crate::chaos::point("tkt-acquire-ticketed");
        let mut backoff = Backoff::new();
        let mut poll = crate::deadline::DeadlinePoll::new(deadline, "tkt-wait");
        loop {
            if self.grant.load(Ordering::Acquire) == my {
                return true;
            }
            if poll.expired() {
                break;
            }
            backoff.snooze();
        }
        // Expired. Retract the ticket if nobody drew a later one.
        if self
            .ticket
            .compare_exchange(
                my.wrapping_add(1),
                my,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            crate::deadline::on_abandon();
            return false;
        }
        // Later tickets exist: wait out the turn, hand it forward.
        crate::chaos::point("tkt-hand-forward");
        let mut backoff = Backoff::new();
        while self.grant.load(Ordering::Acquire) != my {
            backoff.snooze();
        }
        let mut ctx = NoContext;
        self.release(&mut ctx);
        crate::deadline::on_abandon();
        false
    }
}

impl RawLock for TicketLock {
    type Context = NoContext;

    const INFO: LockInfo = LockInfo {
        name: "tkt",
        full_name: "Ticketlock",
        fair: true,
        local_spinning: false,
        needs_context: false,
        waiter_hint: true,
    };

    fn acquire(&self, _ctx: &mut NoContext) {
        self.acquire_inner(SPIN_FOREVER);
    }

    #[cfg(feature = "park")]
    fn acquire_budgeted(&self, _ctx: &mut NoContext, budget: u32) {
        self.acquire_inner(budget);
    }

    fn acquire_reporting(&self, _ctx: &mut NoContext, budget: u32) -> bool {
        self.acquire_inner(budget)
    }

    fn try_acquire_until(&self, _ctx: &mut NoContext, deadline: std::time::Instant) -> bool {
        self.try_acquire_inner(deadline)
    }

    fn release(&self, _ctx: &mut NoContext) {
        // Only the owner writes `grant`, so a plain load + store suffices;
        // the Release store publishes the critical section to the next
        // owner's Acquire load.
        let g = self.grant.load(Ordering::Relaxed);
        crate::chaos::point("tkt-release-window");
        self.grant.store(g.wrapping_add(1), Ordering::Release);
        // The wake must follow the grant store (the waiters' condition);
        // ParkSpot's asymmetric barrier pairing makes this race-free
        // without taxing the store.
        self.park.wake_all();
    }

    fn has_waiters_hint(&self, _ctx: &NoContext) -> Option<bool> {
        // The owner accounts for one outstanding ticket; anything beyond
        // that is a waiter (paper §4.1.2: "check if the difference between
        // grant and ticket is larger than 1").
        Some(self.queue_len() > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_acquire_release() {
        let lock = TicketLock::new();
        let mut ctx = NoContext;
        assert!(!lock.is_locked());
        lock.acquire(&mut ctx);
        assert!(lock.is_locked());
        assert_eq!(lock.has_waiters_hint(&ctx), Some(false));
        lock.release(&mut ctx);
        assert!(!lock.is_locked());
    }

    #[test]
    fn reacquire_many_times() {
        let lock = TicketLock::new();
        let mut ctx = NoContext;
        for _ in 0..1000 {
            lock.acquire(&mut ctx);
            lock.release(&mut ctx);
        }
        assert_eq!(lock.queue_len(), 0);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(TicketLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = NoContext;
                for _ in 0..ITERS {
                    lock.acquire(&mut ctx);
                    // Non-atomic increment protected by the lock: a
                    // mutual-exclusion violation would lose updates.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.release(&mut ctx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ITERS);
    }

    #[test]
    fn waiter_hint_sees_contender() {
        let lock = Arc::new(TicketLock::new());
        let mut ctx = NoContext;
        lock.acquire(&mut ctx);
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let mut ctx = NoContext;
                lock.acquire(&mut ctx);
                lock.release(&mut ctx);
            })
        };
        crate::spin::spin_until(|| lock.queue_len() > 1);
        assert_eq!(lock.has_waiters_hint(&ctx), Some(true));
        lock.release(&mut ctx);
        waiter.join().unwrap();
    }

    #[test]
    fn ticket_counter_wraps_safely() {
        let lock = TicketLock::new();
        lock.ticket.store(u32::MAX, Ordering::Relaxed);
        lock.grant.store(u32::MAX, Ordering::Relaxed);
        let mut ctx = NoContext;
        lock.acquire(&mut ctx);
        assert_eq!(lock.queue_len(), 1);
        lock.release(&mut ctx);
        assert_eq!(lock.grant.load(Ordering::Relaxed), 0);
        lock.acquire(&mut ctx);
        lock.release(&mut ctx);
    }

    #[test]
    fn info_is_fair_global_spinning() {
        assert!(TicketLock::INFO.fair);
        assert!(!TicketLock::INFO.local_spinning);
        assert!(!TicketLock::INFO.needs_context);
        assert_eq!(TicketLock::INFO.name, "tkt");
    }

    mod deadline {
        use super::*;
        use std::time::{Duration, Instant};

        fn soon() -> Instant {
            Instant::now() + Duration::from_millis(5)
        }

        #[test]
        fn try_acquire_uncontended_succeeds() {
            let lock = TicketLock::new();
            let mut ctx = NoContext;
            assert!(lock.try_acquire_until(&mut ctx, soon()));
            lock.release(&mut ctx);
            assert!(!lock.is_locked());
        }

        #[test]
        fn youngest_ticket_timeout_cancels_cleanly() {
            let lock = TicketLock::new();
            let mut holder = NoContext;
            lock.acquire(&mut holder);
            let mut waiter = NoContext;
            assert!(!lock.try_acquire_until(&mut waiter, soon()));
            // The ticket was retracted: the holder is the sole
            // outstanding entry and release leaves the lock free.
            assert_eq!(lock.queue_len(), 1);
            lock.release(&mut holder);
            assert!(!lock.is_locked());
            assert!(lock.try_acquire_until(&mut waiter, soon()));
            lock.release(&mut waiter);
        }

        #[test]
        fn buried_ticket_hands_its_turn_forward() {
            // holder <- w1 (times out) <- w2 (blocks): w1's turn must
            // pass through to w2 rather than wedging the grant counter.
            let lock = Arc::new(TicketLock::new());
            let mut holder = NoContext;
            lock.acquire(&mut holder);
            // w1 takes its ticket first (short deadline)...
            let w1 = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = NoContext;
                    let d = Instant::now() + Duration::from_millis(5);
                    lock.try_acquire_until(&mut ctx, d)
                })
            };
            crate::spin::spin_until(|| lock.queue_len() >= 2);
            // ...then w2 buries it, so w1 cannot cancel.
            let w2 = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = NoContext;
                    lock.acquire(&mut ctx);
                    lock.release(&mut ctx);
                })
            };
            crate::spin::spin_until(|| lock.queue_len() >= 3);
            // Let w1's deadline expire while buried, then release: the
            // grant must flow holder -> w1 (handed forward) -> w2.
            std::thread::sleep(Duration::from_millis(50));
            lock.release(&mut holder);
            assert!(!w1.join().unwrap(), "buried w1 times out");
            w2.join().expect("w2 acquires after the handed-forward turn");
            assert!(!lock.is_locked());
        }

        #[test]
        fn timeout_leaves_other_traffic_unharmed() {
            const THREADS: usize = 4;
            const ITERS: usize = 300;
            let lock = Arc::new(TicketLock::new());
            let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut handles = Vec::new();
            for i in 0..THREADS {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                handles.push(std::thread::spawn(move || {
                    let mut ctx = NoContext;
                    let mut held = 0usize;
                    for _ in 0..ITERS {
                        if i % 2 == 0 {
                            let d = Instant::now() + Duration::from_micros(50);
                            if !lock.try_acquire_until(&mut ctx, d) {
                                continue;
                            }
                        } else {
                            lock.acquire(&mut ctx);
                        }
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        held += 1;
                        lock.release(&mut ctx);
                    }
                    held
                }));
            }
            let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(counter.load(Ordering::Relaxed), total);
            assert!(!lock.is_locked());
        }
    }
}
