//! Anderson's array-based queue lock: fair, local spinning on a
//! per-waiter array slot (Herlihy & Shavit \[19\], §7.5.1).
//!
//! Included beyond the paper's core four to exercise CLoF's claim of
//! accepting *any* conforming basic lock: Anderson is fair and spins
//! locally like MCS/CLH, but is array-based (bounded capacity, no
//! per-thread queue nodes) — a different implementation family behind
//! the same [`RawLock`] interface.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use crate::pad::CachePadded;
use crate::park::{ParkSpot, SPIN_FOREVER};
use crate::raw::{LockInfo, RawLock};
use crate::spin::Backoff;

/// Maximum concurrent threads per [`AndersonLock`].
///
/// The array lock must size its slot ring up front; `128` covers the
/// paper's largest machine. Exceeding it wraps slots onto waiting threads
/// and would deadlock, so `acquire` asserts the bound in debug builds via
/// the ticket distance.
pub const ANDERSON_SLOTS: usize = 128;

/// Per-slot context: remembers which array slot the holder occupies.
#[derive(Debug, Default)]
pub struct AndersonContext {
    slot: usize,
}

/// Anderson's array lock.
///
/// A thread takes the next slot index with one `fetch_add` and spins on
/// its own (cache-line-padded) flag; release sets the successor slot's
/// flag. FIFO-fair, constant-space per lock (no heap nodes), but capacity
/// bounded by [`ANDERSON_SLOTS`].
///
/// # Examples
///
/// ```
/// use clof_locks::{AndersonLock, RawLock};
///
/// let lock = AndersonLock::default();
/// let mut ctx = Default::default();
/// lock.acquire(&mut ctx);
/// lock.release(&mut ctx);
/// ```
#[derive(Debug)]
pub struct AndersonLock {
    /// Each slot flag on its own cache line: a waiter spins only on its
    /// slot and never stalls its neighbours.
    flags: Box<[CachePadded<AtomicBool>]>,
    /// Waiter-written ticket dispenser (every acquire RMWs it); padded
    /// away from `owner` so dispensing never invalidates the hint word.
    next: CachePadded<AtomicU32>,
    /// Oldest outstanding slot (diagnostics / waiter hint); owner-written.
    owner: CachePadded<AtomicU32>,
    /// One eventcount per slot: a budget-exhausted waiter parks on its
    /// own slot's spot and the releaser wakes exactly the successor slot
    /// — the array lock keeps its precise hand-off even while parked.
    /// A fixed-size array, so the slot index needs no bounds check; it
    /// allocates nothing without the `park` feature (zero-sized spots).
    spots: Box<[CachePadded<ParkSpot>; ANDERSON_SLOTS]>,
}

// The two boxes fill one line; each padded counter takes a line of its own.
const _: () = assert!(std::mem::size_of::<AndersonLock>() == 3 * crate::pad::CACHE_LINE);

impl Default for AndersonLock {
    fn default() -> Self {
        let mut flags = Vec::with_capacity(ANDERSON_SLOTS);
        for i in 0..ANDERSON_SLOTS {
            // Slot 0 starts granted: the first acquirer passes through.
            flags.push(CachePadded::new(AtomicBool::new(i == 0)));
        }
        AndersonLock {
            flags: flags.into_boxed_slice(),
            next: CachePadded::new(AtomicU32::new(0)),
            owner: CachePadded::new(AtomicU32::new(0)),
            spots: Box::new(std::array::from_fn(|_| CachePadded::default())),
        }
    }
}

impl AndersonLock {
    /// Creates an unlocked Anderson lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the lock is currently held or queued (racy; diagnostics).
    pub fn is_locked(&self) -> bool {
        self.next.load(Ordering::Relaxed) != self.owner.load(Ordering::Relaxed)
    }

    /// Returns whether the first look found our slot's flag unset.
    fn acquire_inner(&self, ctx: &mut AndersonContext, budget: u32) -> bool {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            ticket.wrapping_sub(self.owner.load(Ordering::Relaxed)) < ANDERSON_SLOTS as u32,
            "AndersonLock capacity ({ANDERSON_SLOTS}) exceeded"
        );
        let slot = ticket as usize % ANDERSON_SLOTS;
        // Acquire pairs with the Release store in `release`.
        let waited =
            self.spots[slot].wait_until(budget, || self.flags[slot].load(Ordering::Acquire));
        // Reset our flag for the next lap of the ring.
        self.flags[slot].store(false, Ordering::Relaxed);
        ctx.slot = slot;
        waited
    }

    /// Deadline-bounded acquire: cancel the ticket if we are still the
    /// youngest waiter, otherwise wait out our slot grant and hand the
    /// turn straight to the successor. A granted slot cannot be
    /// abandoned in place — the flag for our lap would be consumed by a
    /// *future* lap's waiter and corrupt the ring hand-off order.
    fn try_acquire_inner_deadline(
        &self,
        ctx: &mut AndersonContext,
        deadline: std::time::Instant,
    ) -> bool {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            ticket.wrapping_sub(self.owner.load(Ordering::Relaxed)) < ANDERSON_SLOTS as u32,
            "AndersonLock capacity ({ANDERSON_SLOTS}) exceeded"
        );
        let slot = ticket as usize % ANDERSON_SLOTS;
        crate::chaos::point("and-acquire-slotted");
        // Deadline waits never park: a waiter that may stop listening
        // at any moment must not join the slot's parked-wake protocol.
        let mut poll = crate::deadline::DeadlinePoll::new(deadline, "and-wait");
        let mut backoff = Backoff::new();
        loop {
            if self.flags[slot].load(Ordering::Acquire) {
                self.flags[slot].store(false, Ordering::Relaxed);
                ctx.slot = slot;
                return true;
            }
            if poll.expired() {
                break;
            }
            backoff.snooze();
        }
        // Youngest waiter: put the ticket back. The slot flag for this
        // lap stays consistent even if the grant raced in — then
        // `owner == next` with `flags[next % N]` set, which is exactly
        // the unlocked ring state the next acquirer expects.
        if self
            .next
            .compare_exchange(
                ticket.wrapping_add(1),
                ticket,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            crate::deadline::on_abandon();
            return false;
        }
        // Buried behind a younger waiter: our slot grant is committed,
        // so wait it out and pass the turn straight through.
        crate::chaos::point("and-hand-forward");
        let mut backoff = Backoff::new();
        while !self.flags[slot].load(Ordering::Acquire) {
            backoff.snooze();
        }
        self.flags[slot].store(false, Ordering::Relaxed);
        ctx.slot = slot;
        self.release(ctx);
        crate::deadline::on_abandon();
        false
    }
}

impl RawLock for AndersonLock {
    type Context = AndersonContext;

    const INFO: LockInfo = LockInfo {
        name: "anderson",
        full_name: "Anderson array lock",
        fair: true,
        local_spinning: true,
        needs_context: true,
        waiter_hint: true,
    };

    fn acquire(&self, ctx: &mut AndersonContext) {
        self.acquire_inner(ctx, SPIN_FOREVER);
    }

    #[cfg(feature = "park")]
    fn acquire_budgeted(&self, ctx: &mut AndersonContext, budget: u32) {
        self.acquire_inner(ctx, budget);
    }

    fn acquire_reporting(&self, ctx: &mut AndersonContext, budget: u32) -> bool {
        self.acquire_inner(ctx, budget)
    }

    fn try_acquire_until(&self, ctx: &mut AndersonContext, deadline: std::time::Instant) -> bool {
        self.try_acquire_inner_deadline(ctx, deadline)
    }

    fn release(&self, ctx: &mut AndersonContext) {
        // Only the current owner advances `owner`, and successive owners
        // are ordered by the slot flag's release→acquire hand-off, so a
        // plain load + store replaces the locked RMW.
        let o = self.owner.load(Ordering::Relaxed);
        self.owner.store(o.wrapping_add(1), Ordering::Relaxed);
        let next = (ctx.slot + 1) % ANDERSON_SLOTS;
        // Release publishes the critical section to the successor's
        // Acquire wait; the wake targets exactly the successor's spot.
        self.flags[next].store(true, Ordering::Release);
        self.spots[next].wake_one();
    }

    fn has_waiters_hint(&self, _ctx: &Self::Context) -> Option<bool> {
        Some(
            self.next
                .load(Ordering::Relaxed)
                .wrapping_sub(self.owner.load(Ordering::Relaxed))
                > 1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn uncontended_roundtrip() {
        let lock = AndersonLock::new();
        let mut ctx = AndersonContext::default();
        assert!(!lock.is_locked());
        lock.acquire(&mut ctx);
        assert!(lock.is_locked());
        assert_eq!(lock.has_waiters_hint(&ctx), Some(false));
        lock.release(&mut ctx);
        assert!(!lock.is_locked());
    }

    #[test]
    fn ring_wraps_many_laps() {
        let lock = AndersonLock::new();
        let mut ctx = AndersonContext::default();
        for _ in 0..(3 * ANDERSON_SLOTS + 5) {
            lock.acquire(&mut ctx);
            lock.release(&mut ctx);
        }
        assert!(!lock.is_locked());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(AndersonLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = AndersonContext::default();
                for _ in 0..ITERS {
                    lock.acquire(&mut ctx);
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
    fn thread_oblivious_release() {
        let lock = Arc::new(AndersonLock::new());
        let mut ctx = AndersonContext::default();
        lock.acquire(&mut ctx);
        let lock2 = Arc::clone(&lock);
        std::thread::scope(|s| {
            s.spawn(|| {
                lock2.release(&mut ctx);
            });
        });
        let mut ctx2 = AndersonContext::default();
        lock.acquire(&mut ctx2);
        lock.release(&mut ctx2);
    }

    #[test]
    fn waiter_hint_sees_contender() {
        let lock = Arc::new(AndersonLock::new());
        let mut ctx = AndersonContext::default();
        lock.acquire(&mut ctx);
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let mut ctx = AndersonContext::default();
                lock.acquire(&mut ctx);
                lock.release(&mut ctx);
            })
        };
        crate::spin::spin_until(|| lock.has_waiters_hint(&ctx) == Some(true));
        lock.release(&mut ctx);
        waiter.join().unwrap();
    }

    #[test]
    fn info_is_fair_local_array() {
        assert!(AndersonLock::INFO.fair);
        assert!(AndersonLock::INFO.local_spinning);
        assert_eq!(AndersonLock::INFO.name, "anderson");
    }

    mod deadline {
        use super::*;
        use std::time::{Duration, Instant};

        #[test]
        fn try_acquire_uncontended_succeeds() {
            let lock = AndersonLock::new();
            let mut ctx = AndersonContext::default();
            let d = Instant::now() + Duration::from_secs(5);
            assert!(lock.try_acquire_until(&mut ctx, d));
            assert!(lock.is_locked());
            lock.release(&mut ctx);
            assert!(!lock.is_locked());
        }

        #[test]
        fn youngest_slot_timeout_cancels_cleanly() {
            let lock = AndersonLock::new();
            let mut holder = AndersonContext::default();
            lock.acquire(&mut holder);
            let before = crate::deadline::abandons();
            let mut w = AndersonContext::default();
            assert!(!lock.try_acquire_until(&mut w, Instant::now()));
            assert!(crate::deadline::abandons() > before);
            // The cancelled ticket is fully returned: only the holder
            // remains outstanding.
            assert_eq!(lock.has_waiters_hint(&holder), Some(false));
            lock.release(&mut holder);
            assert!(!lock.is_locked());
            // The ring is healthy: the same context acquires again.
            lock.acquire(&mut w);
            lock.release(&mut w);
        }

        #[test]
        fn buried_slot_hands_its_turn_forward() {
            let lock = Arc::new(AndersonLock::new());
            let mut holder = AndersonContext::default();
            lock.acquire(&mut holder);
            let w1 = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = AndersonContext::default();
                    let d = Instant::now() + Duration::from_millis(5);
                    lock.try_acquire_until(&mut ctx, d)
                })
            };
            crate::spin::spin_until(|| lock.has_waiters_hint(&holder) == Some(true));
            let w2 = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = AndersonContext::default();
                    lock.acquire(&mut ctx);
                    lock.release(&mut ctx);
                })
            };
            crate::spin::spin_until(|| {
                lock.next.load(Ordering::Relaxed).wrapping_sub(lock.owner.load(Ordering::Relaxed))
                    >= 3
            });
            // Let w1's deadline expire while buried, then release: the
            // slot grant must flow holder -> w1 (handed on) -> w2.
            std::thread::sleep(Duration::from_millis(50));
            lock.release(&mut holder);
            assert!(!w1.join().unwrap(), "buried w1 times out");
            w2.join().expect("w2 acquires after the handed-forward slot");
            assert!(!lock.is_locked());
        }

        #[test]
        fn timeout_leaves_other_traffic_unharmed() {
            const THREADS: usize = 4;
            const ITERS: usize = 300;
            let lock = Arc::new(AndersonLock::new());
            let held = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let lock = Arc::clone(&lock);
                let held = Arc::clone(&held);
                handles.push(std::thread::spawn(move || {
                    let mut ctx = AndersonContext::default();
                    for _ in 0..ITERS {
                        let got = if t % 2 == 0 {
                            lock.try_acquire_until(
                                &mut ctx,
                                Instant::now() + Duration::from_micros(50),
                            )
                        } else {
                            lock.acquire(&mut ctx);
                            true
                        };
                        if got {
                            held.fetch_add(1, Ordering::Relaxed);
                            lock.release(&mut ctx);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(!lock.is_locked());
            // Every successful hold was counted exactly once and the
            // ring still grants: a fresh acquire goes straight through.
            let mut ctx = AndersonContext::default();
            lock.acquire(&mut ctx);
            lock.release(&mut ctx);
        }
    }
}
