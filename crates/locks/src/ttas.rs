//! Test-and-test-and-set lock: simple, *unfair* (paper §4.2.1).

use std::sync::atomic::{AtomicBool, Ordering};

use crate::pad::CachePadded;
use crate::park::{ParkSpot, SPIN_FOREVER};
use crate::raw::{LockInfo, NoContext, RawLock};
use crate::spin::Backoff;

/// Test-and-test-and-set (TTAS) spinlock.
///
/// Waiters first spin reading the flag (cheap, cache-friendly) and only
/// attempt the atomic swap once it reads unlocked. TTAS is **unfair**: a
/// thread can lose the race indefinitely. The paper uses TTAS as the
/// canonical unfair lock when discussing Theorem 4.1 — composing it at
/// any level makes the whole CLoF lock unfair (a NUMA-node cohort can
/// starve if the system lock is TTAS).
///
/// # Examples
///
/// ```
/// use clof_locks::{RawLock, TtasLock};
///
/// let lock = TtasLock::default();
/// let mut ctx = Default::default();
/// lock.acquire(&mut ctx);
/// lock.release(&mut ctx);
/// ```
#[derive(Debug, Default)]
pub struct TtasLock {
    /// The single flag every contender spins on and swaps; padded so a
    /// TTAS embedded in larger lock state (a composed-lock node, the
    /// `FastClof` gate) does not drag neighbouring fields into the
    /// contenders' coherence storm.
    locked: CachePadded<AtomicBool>,
    /// Eventcount budget-exhausted waiters park on; each release wakes
    /// one parked contender to retry the swap. Zero-sized without the
    /// `park` feature.
    park: CachePadded<ParkSpot>,
}

const _: () = assert!(
    std::mem::size_of::<TtasLock>()
        == crate::pad::CACHE_LINE + std::mem::size_of::<CachePadded<ParkSpot>>()
);

impl TtasLock {
    /// Creates an unlocked TTAS lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire without spinning: one relaxed load, and a
    /// swap only if that load found the lock free.
    #[inline]
    pub fn try_acquire(&self) -> bool {
        !self.locked.load(Ordering::Relaxed) && !self.locked.swap(true, Ordering::Acquire)
    }

    /// Whether the lock is currently held (racy; for tests/diagnostics).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    /// Returns whether the first test-and-set attempt failed.
    fn acquire_inner(&self, budget: u32) -> bool {
        let mut waited = false;
        loop {
            // Test phase: wait (spin, then park) for an unlocked read.
            // The Relaxed load is the traditional TTAS test; mutual
            // exclusion comes from the swap below, and the park/wake
            // pairing is ordered by ParkSpot's fences, not by this load.
            waited |= self
                .park
                .wait_until(budget, || !self.locked.load(Ordering::Relaxed));
            // Window between observing unlocked and attempting the swap;
            // the swap makes losing the race safe, merely wasteful.
            crate::chaos::point("ttas-acquire-window");
            // Test-and-set phase; Acquire pairs with the Release in
            // `release` to order the critical sections.
            if !self.locked.swap(true, Ordering::Acquire) {
                return waited;
            }
            waited = true;
        }
    }

    /// Deadline-bounded acquire. TTAS keeps no queue state, so a
    /// timeout needs no undo: stop retrying and report failure. The
    /// deadline wait never parks.
    fn try_acquire_inner_deadline(&self, deadline: std::time::Instant) -> bool {
        let mut poll = crate::deadline::DeadlinePoll::new(deadline, "ttas-wait");
        let mut backoff = Backoff::new();
        loop {
            while self.locked.load(Ordering::Relaxed) {
                if poll.expired() {
                    crate::deadline::on_abandon();
                    return false;
                }
                backoff.snooze();
            }
            crate::chaos::point("ttas-acquire-window");
            if !self.locked.swap(true, Ordering::Acquire) {
                return true;
            }
        }
    }
}

impl RawLock for TtasLock {
    type Context = NoContext;

    const INFO: LockInfo = LockInfo {
        name: "ttas",
        full_name: "Test-and-test-and-set",
        fair: false,
        local_spinning: false,
        needs_context: false,
        waiter_hint: false,
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
        self.try_acquire_inner_deadline(deadline)
    }

    #[inline]
    fn release(&self, _ctx: &mut NoContext) {
        self.locked.store(false, Ordering::Release);
        // Wake after the flag store (the waiters' condition).
        self.park.wake_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn uncontended_roundtrip() {
        let lock = TtasLock::new();
        let mut ctx = NoContext;
        lock.acquire(&mut ctx);
        assert!(lock.is_locked());
        lock.release(&mut ctx);
        assert!(!lock.is_locked());
    }

    #[test]
    fn try_acquire_fails_when_held() {
        let lock = TtasLock::new();
        let mut ctx = NoContext;
        assert!(lock.try_acquire());
        assert!(!lock.try_acquire());
        lock.release(&mut ctx);
        assert!(lock.try_acquire());
        lock.release(&mut ctx);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(TtasLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = NoContext;
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
    fn info_marks_unfair() {
        assert!(!TtasLock::INFO.fair);
    }

    mod deadline {
        use super::*;
        use std::time::{Duration, Instant};

        #[test]
        fn try_acquire_uncontended_succeeds() {
            let lock = TtasLock::new();
            let mut ctx = NoContext;
            assert!(lock.try_acquire_until(&mut ctx, Instant::now() + Duration::from_secs(5)));
            assert!(lock.is_locked());
            lock.release(&mut ctx);
        }

        #[test]
        fn timeout_while_held_is_clean() {
            let lock = TtasLock::new();
            let mut holder = NoContext;
            lock.acquire(&mut holder);
            let before = crate::deadline::abandons();
            let mut w = NoContext;
            assert!(!lock.try_acquire_until(&mut w, Instant::now()));
            assert!(crate::deadline::abandons() > before);
            assert!(lock.is_locked(), "timeout must not perturb the flag");
            lock.release(&mut holder);
            assert!(lock.try_acquire_until(&mut w, Instant::now() + Duration::from_secs(5)));
            lock.release(&mut w);
        }

        #[test]
        fn timeout_leaves_other_traffic_unharmed() {
            const THREADS: usize = 4;
            const ITERS: usize = 300;
            let lock = Arc::new(TtasLock::new());
            let held = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let lock = Arc::clone(&lock);
                let held = Arc::clone(&held);
                handles.push(std::thread::spawn(move || {
                    let mut ctx = NoContext;
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
        }
    }
}
