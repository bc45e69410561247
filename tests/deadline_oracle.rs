//! Timeout/abandonment stress-oracle matrix for deadline-bounded
//! acquisition (`--features deadline`): 64 forced-injection seeds
//! across composition shapes × injection rates, plus the acceptance
//! bounds the feature promises.
//!
//! Asserted per run: mutual exclusion and the paper's §4.1 context
//! invariant (the base oracle's owner cell, torn-counter pair and
//! `ctx_busy` detector) *across abandoned queue nodes* — every worker
//! acquires through seeded bounded attempts, so each run walks
//! hundreds of abandon → skip/reclaim → re-enqueue edges; the exact
//! acquisition count proves every timed-out waiter recovered and
//! eventually won; and `queue_depth_hint() == 0` at quiescence proves
//! no abandonment leaked a queue position or a read-indicator count.
//! Companion cells rerun the matrix with parked (blocking) neighbours
//! under `park` and mid-migration under `adapt`.

#![cfg(feature = "deadline")]

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clof::{ClofParams, DynClofLock, LockKind};
use clof_testkit::deadline::{fuzz_timeout_seeds, TimedHandle};
use clof_testkit::strategies::build_regular;
use clof_testkit::{seed_batch, StressOptions};
use clof_topology::Hierarchy;

const SEEDS_PER_CELL: usize = 16;
const THREADS: usize = 4;
const ITERS: u64 = 10;

/// One matrix cell: `SEEDS_PER_CELL` forced-injection runs of `shape`
/// on `hierarchy`, timeouts forced on ~`1/denom` of deadline polls.
/// Returns (timed-out attempts, forced fires) for the matrix-level
/// "abandonment actually happened" assertion.
fn timeout_cell(hierarchy: &Hierarchy, shape: &[LockKind], denom: u32, base: u64) -> (u64, u64) {
    let lock = Arc::new(
        DynClofLock::build_with(hierarchy, shape, ClofParams::default(), true)
            .expect("composition builds"),
    );
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..THREADS).map(|t| t * n / THREADS % n).collect();
    let seeds = seed_batch(base, SEEDS_PER_CELL);
    let opts = StressOptions {
        threads: THREADS,
        iters: ITERS,
        // Forced timeouts are this matrix's perturbation; chaos delays
        // would stretch the bounded attempts past their budgets without
        // adding abandonment coverage.
        chaos_denom: 0,
        label: format!("deadline {}×1/{denom}", lock.name()),
        ..StressOptions::default()
    };
    let lock2 = Arc::clone(&lock);
    let outcome = fuzz_timeout_seeds(&opts, &seeds, denom, |seed, tid, timeouts| {
        TimedHandle::new(
            lock2.handle(cpus[tid]),
            seed ^ (tid as u64) << 32,
            150,
            Arc::clone(timeouts),
        )
    });
    outcome.assert_passed();
    assert_eq!(
        outcome.total_acquisitions,
        SEEDS_PER_CELL as u64 * THREADS as u64 * ITERS,
        "a timed-out waiter never recovered ({})",
        opts.label
    );
    assert_eq!(
        lock.queue_depth_hint(),
        0,
        "abandonment leaked a queue position or waiter count ({})",
        opts.label
    );
    (outcome.total_timeouts, outcome.total_forced_fires)
}

/// The 64-seed matrix: 4 cells × 16 seeds. Shapes cover every
/// abandonment protocol — MCS/CLH/Hemlock node abandonment, the
/// ticket/Anderson cancel-or-hand-forward slots, TTAS bounded retry —
/// at two injection rates.
#[test]
fn sixty_four_seed_timeout_abandon_matrix() {
    let abandons_before = clof_locks::deadline::abandons();
    let mut timeouts = 0u64;
    let mut fires = 0u64;
    for (hierarchy, shape, denom, base) in [
        (
            build_regular(&[2, 4]),
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket][..],
            2,
            0xD1ED_0001,
        ),
        (
            build_regular(&[2, 4]),
            &[LockKind::Anderson, LockKind::Hemlock, LockKind::Ttas][..],
            2,
            0xD1ED_0002,
        ),
        (
            build_regular(&[2]),
            &[LockKind::Ticket, LockKind::Ticket][..],
            3,
            0xD1ED_0003,
        ),
        (
            build_regular(&[2, 2, 2]),
            &[
                LockKind::Mcs,
                LockKind::Clh,
                LockKind::Backoff,
                LockKind::Ticket,
            ][..],
            3,
            0xD1ED_0004,
        ),
    ] {
        let (t, f) = timeout_cell(&hierarchy, shape, denom, base);
        timeouts += t;
        fires += f;
    }
    assert!(
        timeouts > 0 && fires > 0,
        "the matrix must actually exercise abandonment \
         (timeouts {timeouts}, forced fires {fires})"
    );
    assert!(
        clof_locks::deadline::abandons() > abandons_before,
        "waiter-side bailouts must land in the abandon counter"
    );
}

/// Acceptance bound: on a fully contended 3-level tree, a bounded
/// acquire returns within its budget plus one hand-off, leaves no
/// queue-node or waiter-count residue, and the next acquisition — both
/// the quitter's and a later thread's — succeeds.
#[test]
fn contended_timeout_is_bounded_and_leak_free() {
    let hierarchy = build_regular(&[2, 4]);
    let lock = Arc::new(
        DynClofLock::build(
            &hierarchy,
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        )
        .expect("composition builds"),
    );

    let mut holder = lock.handle(0);
    holder.acquire();

    let budget = Duration::from_millis(50);
    let waiter = {
        let lock = Arc::clone(&lock);
        std::thread::spawn(move || {
            let mut h = lock.handle(5); // cross-cohort: climbs every level
            let t0 = Instant::now();
            let won = h.try_acquire_for(budget);
            (won, t0.elapsed())
        })
    };
    let (won, elapsed) = waiter.join().expect("waiter must not panic");
    assert!(!won, "the tree is held for the whole budget");
    // "One hand-off" of slack: generous wall-clock bound so a loaded CI
    // host can't flake it, but tight enough that an unwound level that
    // re-blocked (the bug class) would blow through it.
    assert!(
        elapsed >= budget && elapsed < budget + Duration::from_secs(2),
        "timeout not bounded: budget {budget:?}, elapsed {elapsed:?}"
    );
    assert_eq!(
        lock.queue_depth_hint(),
        0,
        "the timed-out climb left queue or waiter-count residue"
    );

    holder.release();
    let mut quitter = lock.handle(5);
    assert!(
        quitter.try_acquire_for(Duration::from_secs(5)),
        "the quitter must be able to reacquire after its timeout"
    );
    quitter.release();
    let mut later = lock.handle(3);
    later.acquire();
    later.release();
    assert_eq!(lock.queue_depth_hint(), 0);
}

/// Poisoning end-to-end through the store wrapper: a panic while
/// holding marks the lock, bounded operations report `Poisoned`
/// instead of hanging, and `clear_poison` + `into_inner` recover.
#[test]
fn kvstore_poisoning_reports_instead_of_hanging() {
    use clof_kvstore::{DbMutex, LockChoice};

    let hierarchy = build_regular(&[2, 2]);
    let choice = LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]);
    let db = Arc::new(DbMutex::new(vec![1u32], &hierarchy, &choice).expect("builds"));

    let panicker = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut h = db.handle(0);
            h.with(|v: &mut Vec<u32>| {
                v.push(2);
                panic!("torn store op");
            })
        })
    };
    assert!(panicker.join().is_err(), "the op must actually panic");
    assert!(db.is_poisoned(), "panic-while-holding must poison");

    {
        let mut h = db.handle(1);
        let res = h.try_with_for(Duration::from_secs(5), |v: &mut Vec<u32>| v.len());
        assert_eq!(
            res,
            Err(clof::ClofError::Poisoned),
            "bounded ops must report poisoning, not hand out suspect data"
        );
    }

    db.clear_poison();
    {
        let mut h = db.handle(1);
        assert_eq!(
            h.try_with_for(Duration::from_secs(5), |v: &mut Vec<u32>| v.len()),
            Ok(2)
        );
    }
    // Handles hold `Arc` clones, so they must be gone before recovery
    // can take the data back.
    let db = Arc::try_unwrap(db).unwrap_or_else(|_| panic!("sole owner"));
    assert_eq!(db.into_inner(), vec![1, 2]);
}

/// Abandonment against *parked* neighbours: blocking waiters with a
/// zero spin budget sleep in the kernel while timed waiters abandon
/// around them. A stale abandoned node that swallowed a wake, or a
/// skip that bypassed a parked waiter, shows up as a lost wakeup (the
/// blocking waiter never finishes) or a stall panic.
#[cfg(feature = "park")]
#[test]
fn abandonment_with_parked_neighbours_loses_no_wakeups() {
    use clof_testkit::deadline::BlockingOrTimed;

    let hierarchy = build_regular(&[2, 4]);
    let shape = [LockKind::Mcs, LockKind::Clh, LockKind::Ticket];
    let lock = Arc::new(DynClofLock::build(&hierarchy, &shape).expect("builds"));
    for level in 0..shape.len() {
        lock.set_spin_budget(level, 0); // blocking waiters park at once
    }
    let n = hierarchy.ncpus();
    let threads = 6;
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads % n).collect();
    let seeds = seed_batch(0xD1ED_9A4C, 4);
    let opts = StressOptions {
        threads,
        iters: ITERS,
        chaos_denom: 0,
        label: "deadline×park mcs-clh-tkt".into(),
        ..StressOptions::default()
    };
    let parks_before = clof_locks::park::parks();
    let lock2 = Arc::clone(&lock);
    let outcome = fuzz_timeout_seeds(&opts, &seeds, 2, |seed, tid, timeouts| {
        if tid % 2 == 0 {
            BlockingOrTimed::Timed(TimedHandle::new(
                lock2.handle(cpus[tid]),
                seed ^ tid as u64,
                150,
                Arc::clone(timeouts),
            ))
        } else {
            BlockingOrTimed::Blocking(lock2.handle(cpus[tid]))
        }
    });
    outcome.assert_passed();
    assert_eq!(
        outcome.total_acquisitions,
        4 * threads as u64 * ITERS,
        "a parked waiter lost its wake across an abandonment"
    );
    assert!(outcome.total_timeouts > 0, "injection must force abandons");
    assert!(
        clof_locks::park::parks() > parks_before,
        "zero-budget blocking waiters must actually park"
    );
    assert_eq!(lock.queue_depth_hint(), 0);
}

/// Abandonment racing a hot-swap: timed waiters bail out of the baton
/// wait and out of freshly-installed trees while a background swapper
/// migrates the lock. A timed-out entrant that failed to deregister
/// (or to re-arm the handover baton) wedges the migration — caught by
/// the testkit's stall bound or the exact-count check.
#[cfg(feature = "adapt")]
#[test]
fn abandonment_mid_migration_keeps_swaps_and_counts() {
    use clof::adapt::AdaptiveLock;
    use clof_testkit::deadline::with_forced_timeouts;
    use clof_testkit::{run_stress, with_forced_swaps, SwapPlan};
    use std::sync::atomic::Ordering;

    let hierarchy = build_regular(&[2, 4]);
    let shapes: [&[LockKind]; 2] = [
        &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
    ];
    let plan = SwapPlan {
        pause_yields: 8,
        ..SwapPlan::cycling(&shapes)
    };
    let n = hierarchy.ncpus();
    let threads = 4;
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads % n).collect();
    let timeouts = Arc::new(AtomicU64::new(0));
    let seed = 0xD1ED_ADA7u64;
    let lock = Arc::new(AdaptiveLock::new(&hierarchy, shapes[0]).expect("builds"));
    let opts = StressOptions {
        threads,
        iters: 40,
        seed,
        chaos_denom: 0,
        label: "deadline×adapt".into(),
        ..StressOptions::default()
    };
    let ((report, swaps), fires) = with_forced_timeouts(seed, 3, || {
        with_forced_swaps(&lock, seed, &plan, || {
            run_stress(&opts, |tid| {
                TimedHandle::new(
                    lock.handle(cpus[tid]),
                    seed ^ tid as u64,
                    200,
                    Arc::clone(&timeouts),
                )
            })
        })
    });
    assert!(report.passed(), "{}", report.render());
    assert_eq!(
        report.total_acquisitions,
        threads as u64 * 40,
        "a timed-out entrant wedged the migration protocol"
    );
    assert!(swaps > 0, "the swapper must land migrations mid-run");
    assert!(fires > 0, "injection must fire during the migration run");
    assert!(
        timeouts.load(Ordering::Relaxed) > 0,
        "timed waiters must actually abandon mid-migration"
    );
}

/// Property over shrinkable injection schedules: any (seed, denom,
/// budget) plan holds the oracle's invariants on the induction-step
/// shape. On failure the runner shrinks toward the mildest schedule
/// that still breaks, and prints a replayable seed.
#[test]
fn any_injection_schedule_holds_invariants() {
    use clof_testkit::check::{check_with, Config};
    use clof_testkit::deadline::{ForcedTimeoutPlan, with_forced_timeouts};
    use clof_testkit::run_stress;

    let hierarchy = build_regular(&[2, 2]);
    check_with(
        &Config {
            cases: 6,
            seed: 0xD1ED_5EED,
            max_shrink_evals: 24,
        },
        "any_injection_schedule_holds_invariants",
        &ForcedTimeoutPlan::gen(),
        |plan| {
            let lock = Arc::new(
                DynClofLock::build(
                    &hierarchy,
                    &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
                )
                .expect("builds"),
            );
            let timeouts = Arc::new(AtomicU64::new(0));
            let opts = StressOptions {
                threads: 3,
                iters: 8,
                seed: plan.seed,
                chaos_denom: 0,
                label: "deadline plan prop".into(),
                ..StressOptions::default()
            };
            let (report, _fires) = with_forced_timeouts(plan.seed, plan.denom, || {
                run_stress(&opts, |tid| {
                    TimedHandle::new(
                        lock.handle(tid % hierarchy.ncpus()),
                        plan.seed ^ tid as u64,
                        plan.budget_micros,
                        Arc::clone(&timeouts),
                    )
                })
            });
            if !report.passed() {
                return Err(report.render());
            }
            if lock.queue_depth_hint() != 0 {
                return Err(format!(
                    "waiter-count leak: queue_depth_hint {} after quiescence",
                    lock.queue_depth_hint()
                ));
            }
            Ok(())
        },
    );
}
