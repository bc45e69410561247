//! Striped read-indicator oracle (paper §4.1.2): the per-cohort waiter
//! indicator is now striped across cache lines, and striping must never
//! introduce a *false negative* — a parked waiter that `has_waiters()`
//! cannot see. (False positives are tolerated by construction: a stale
//! positive only makes the owner release the high lock early, which is
//! the paper's documented staleness trade-off. A false negative would
//! strand a local waiter behind a released high lock.)
//!
//! Two layers: a model-based fuzz of `LevelMeta` itself — arbitrary
//! inc/dec sequences over arbitrary fan-ins checked against a counting
//! model — and a concurrency matrix over a hintless low lock × hierarchy
//! depth × seeds, where a real parked waiter must be visible through
//! the real composition.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use clof::level::LevelMeta;
use clof::{ClofParams, DynClofLock, LockKind, MAX_WAITER_STRIPES};
use clof_testkit::gen::{vec_of, zip, Gen};
use clof_testkit::strategies::build_regular;
use clof_testkit::{props, tk_assert, tk_assert_eq, Config};

/// Generator: a fan-in between 1 and 32 (past the stripe cap).
fn fanin() -> Gen<usize> {
    Gen::from_fn(|rng| (rng.below(32) + 1) as usize)
}

/// Generator: a sequence of (slot, weight) waiter arrivals.
fn arrivals() -> Gen<Vec<(u32, u8)>> {
    vec_of(
        zip(
            Gen::from_fn(|rng| rng.below(64) as u32),
            Gen::from_fn(|rng| (rng.below(3) + 1) as u8),
        ),
        0,
        24,
    )
}

props! {
    config: Config::with_cases(64);

    /// Counting-model equivalence: after any interleaving of increments
    /// and decrements from arbitrary slots, `has_waiters` answers
    /// exactly "is any increment outstanding" and `waiter_count` equals
    /// the outstanding total. Slots beyond the stripe count must fold
    /// onto existing stripes without losing counts.
    fn striped_indicator_matches_counting_model(
        fanin in fanin(),
        seq in arrivals(),
    ) {
        let meta = LevelMeta::<()>::with_fanin(ClofParams::default(), fanin);
        tk_assert!(meta.stripe_count() <= MAX_WAITER_STRIPES);
        tk_assert!(meta.stripe_count() >= 1);
        tk_assert!(meta.stripe_count().is_power_of_two());

        let mut outstanding: u32 = 0;
        // Register all arrivals, checking visibility after each.
        for &(slot, weight) in &seq {
            for _ in 0..weight {
                meta.inc_waiters(slot);
                outstanding += 1;
                tk_assert!(meta.has_waiters(), "inc on slot {slot} invisible");
            }
            tk_assert_eq!(meta.waiter_count(), outstanding);
        }
        // Drain in the same slot order: dec must hit the same stripe
        // its inc used, so the count returns to zero exactly.
        for &(slot, weight) in &seq {
            for _ in 0..weight {
                tk_assert!(meta.has_waiters(), "outstanding {outstanding} invisible");
                meta.dec_waiters(slot);
                outstanding -= 1;
            }
            tk_assert_eq!(meta.waiter_count(), outstanding);
        }
        tk_assert!(!meta.has_waiters());
        tk_assert_eq!(meta.waiter_count(), 0);
    }
}

/// Parks a real waiter from `waiter_cpu` while `holder_cpu` holds the
/// composed lock, and returns the leaf indicator count observed while
/// the waiter is queued.
fn observed_count_while_parked(
    lock: &Arc<DynClofLock>,
    holder_cpu: usize,
    waiter_cpu: usize,
) -> u32 {
    let mut holder = lock.handle(holder_cpu);
    holder.acquire();
    let started = Arc::new(AtomicUsize::new(0));
    let waiter = {
        let lock = Arc::clone(lock);
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            let mut handle = lock.handle(waiter_cpu);
            started.store(1, Ordering::Release);
            handle.acquire();
            handle.release();
        })
    };
    while started.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    // Grace period for the waiter to register and park in the leaf's
    // low-lock acquire.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let count = lock.leaf_waiter_count(waiter_cpu);
    holder.release();
    waiter.join().unwrap();
    count
}

/// The concurrency matrix: hintless low lock (TTAS) × depth × stripe
/// slot. Every parked waiter must be visible, whichever stripe its CPU
/// maps to — a false negative here is exactly the bug striping could add.
#[test]
fn parked_waiter_never_invisible_across_matrix() {
    for hierarchy in [build_regular(&[2, 4]), build_regular(&[2, 4, 8])] {
        let mut kinds = vec![LockKind::Ttas];
        kinds.extend(vec![LockKind::Ticket; hierarchy.level_count() - 1]);
        let lock = Arc::new(
            DynClofLock::build_with(&hierarchy, &kinds, ClofParams::default(), true)
                .expect("composition builds"),
        );
        // Leaf cohorts have 2 CPUs on both shapes: exercise both
        // stripe slots as the waiter, in two different cohorts.
        for (holder, waiter) in [(1usize, 0usize), (0, 1), (3, 2), (2, 3)] {
            let count = observed_count_while_parked(&lock, holder, waiter);
            assert_eq!(
                count, 1,
                "{} waiter on cpu {waiter} invisible ({} levels)",
                lock.name(),
                hierarchy.level_count()
            );
        }
    }
}

/// Same-stripe pile-up: several waiters from one CPU's stripe plus the
/// sibling's must all be counted (the stripes sum, not mask each other).
#[test]
fn multiple_parked_waiters_all_counted() {
    // Leaf cohorts of 2 CPUs plus the implicit system level.
    let hierarchy = build_regular(&[2]);
    let lock = Arc::new(
        DynClofLock::build_with(
            &hierarchy,
            &[LockKind::Ttas, LockKind::Ticket],
            ClofParams::default(),
            true,
        )
        .expect("composition builds"),
    );
    let mut holder = lock.handle(0);
    holder.acquire();
    let started = Arc::new(AtomicUsize::new(0));
    let mut waiters = Vec::new();
    // Two waiters on CPU 1's stripe, one more on CPU 0's stripe.
    for waiter_cpu in [1usize, 1, 0] {
        let lock = Arc::clone(&lock);
        let started = Arc::clone(&started);
        waiters.push(std::thread::spawn(move || {
            let mut handle = lock.handle(waiter_cpu);
            started.fetch_add(1, Ordering::Release);
            handle.acquire();
            handle.release();
        }));
    }
    while started.load(Ordering::Acquire) < 3 {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(40));
    assert_eq!(lock.leaf_waiter_count(0), 3, "stripes must sum");
    holder.release();
    for w in waiters {
        w.join().unwrap();
    }
}
