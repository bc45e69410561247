//! Test-and-set lock with exponential backoff (Agarwal & Cherian \[1\]).
//!
//! The paper cites this lock ("BO") as the unfair component of the Lock
//! Cohorting work's C-BO-MCS composition (§2.3). We include it so that the
//! cohorting comparison and the fairness ablation can be reproduced.

use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "park")]
use crate::park::ParkSpot;
use crate::park::SPIN_FOREVER;
use crate::raw::{LockInfo, NoContext, RawLock};
use crate::spin::{self, Backoff};

/// Pays the between-attempt penalty for one more lost swap race: a burst
/// doubling up to `2^`[`BackoffLock::BACKOFF_CEILING`] spin hints, then a
/// yield. This is the algorithm (Agarwal & Cherian), not a grant wait, so
/// it is the one place that does not poll at [`Backoff`]'s bounded bursts.
fn pay(lost: &mut u32) {
    if *lost <= BackoffLock::BACKOFF_CEILING {
        spin::burst(1 << *lost);
        *lost += 1;
    } else {
        spin::yield_cpu();
    }
}

/// Test-and-set lock with exponential backoff between attempts.
///
/// Unlike [`TtasLock`](crate::TtasLock), a waiter that *loses* a swap
/// race backs off for an exponentially growing period before retesting,
/// which reduces coherence traffic under contention at the cost of
/// latency and fairness (the lock is **unfair**). Between attempts the
/// waiter polls the flag with a plain relaxed load and `spin_loop`
/// hints, like every other polling lock in this crate — an earlier
/// version swapped on every round, dirtying the line even while the lock
/// was visibly held.
///
/// # Examples
///
/// ```
/// use clof_locks::{BackoffLock, RawLock};
///
/// let lock = BackoffLock::default();
/// let mut ctx = Default::default();
/// lock.acquire(&mut ctx);
/// lock.release(&mut ctx);
/// ```
#[derive(Debug, Default)]
pub struct BackoffLock {
    locked: AtomicBool,
    /// Eventcount budget-exhausted waiters park on.
    #[cfg(feature = "park")]
    park: ParkSpot,
}

impl BackoffLock {
    /// Ceiling exponent for the between-attempt backoff: bursts are
    /// capped at `2^BACKOFF_CEILING` spin hints so an unlucky waiter's
    /// penalty stays bounded (uncapped exponential backoff is exactly
    /// what starves cross-socket waiters on deep topologies).
    pub const BACKOFF_CEILING: u32 = 6;

    /// Creates an unlocked backoff lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the lock is currently held (racy; for tests/diagnostics).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }

    fn acquire_inner(&self, budget: u32) {
        // Between-attempt penalty, kept across test phases so repeated
        // race losses keep growing it (up to the capped ceiling).
        let mut lost = 0;
        loop {
            // Test phase: poll with relaxed loads until the flag reads
            // unlocked (parking once the budget runs out).
            #[cfg(feature = "park")]
            self.park
                .wait_until(budget, || !self.locked.load(Ordering::Relaxed));
            #[cfg(not(feature = "park"))]
            {
                let _ = budget;
                let mut test = Backoff::new();
                while self.locked.load(Ordering::Relaxed) {
                    test.snooze();
                }
            }
            // Attempt phase; Acquire pairs with the Release in `release`.
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            // Lost the race: exponential backoff before the next test.
            pay(&mut lost);
        }
    }

    /// Deadline-bounded acquire. Like TTAS the backoff lock keeps no
    /// queue state, so a timeout needs no undo; the bounded wait keeps
    /// the capped exponential penalty between lost races and never
    /// parks.
    #[cfg(feature = "deadline")]
    fn try_acquire_inner_deadline(&self, deadline: std::time::Instant) -> bool {
        let mut poll = crate::deadline::DeadlinePoll::new(deadline, "bo-wait");
        let mut lost = 0;
        loop {
            let mut test = Backoff::new();
            while self.locked.load(Ordering::Relaxed) {
                if poll.expired() {
                    crate::deadline::on_abandon();
                    return false;
                }
                test.snooze();
            }
            if !self.locked.swap(true, Ordering::Acquire) {
                return true;
            }
            pay(&mut lost);
        }
    }
}

impl RawLock for BackoffLock {
    type Context = NoContext;

    const INFO: LockInfo = LockInfo {
        name: "bo",
        full_name: "Test-and-set with exponential backoff",
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

    #[cfg(feature = "deadline")]
    fn try_acquire_until(&self, _ctx: &mut NoContext, deadline: std::time::Instant) -> bool {
        self.try_acquire_inner_deadline(deadline)
    }

    fn release(&self, _ctx: &mut NoContext) {
        self.locked.store(false, Ordering::Release);
        // Wake after the flag store (the waiters' condition).
        #[cfg(feature = "park")]
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
        let lock = BackoffLock::new();
        let mut ctx = NoContext;
        lock.acquire(&mut ctx);
        assert!(lock.is_locked());
        lock.release(&mut ctx);
        assert!(!lock.is_locked());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(BackoffLock::new());
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
        assert!(!BackoffLock::INFO.fair);
        assert_eq!(BackoffLock::INFO.name, "bo");
    }

    #[cfg(feature = "deadline")]
    mod deadline {
        use super::*;
        use std::time::{Duration, Instant};

        #[test]
        fn try_acquire_uncontended_succeeds() {
            let lock = BackoffLock::new();
            let mut ctx = NoContext;
            assert!(lock.try_acquire_until(&mut ctx, Instant::now() + Duration::from_secs(5)));
            assert!(lock.is_locked());
            lock.release(&mut ctx);
        }

        #[test]
        fn timeout_while_held_is_clean() {
            let lock = BackoffLock::new();
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
    }
}
