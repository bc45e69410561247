//! Schedule-fuzzed stress-oracle matrix over composed locks: every
//! `LockKind` × {2,3}-level hierarchy × {4,8} threads, 56 seeds total
//! (2 per matrix cell), with chaos injection inside the lock paths.
//!
//! Asserted per run: mutual exclusion (owner cell + torn-counter pair),
//! the paper's §4.1 context invariant (the `testkit`-gated `ctx_busy`
//! detector panics inside acquire/release and the oracle converts that
//! into a violation), and — in the dedicated fairness test — a bounded
//! acquisition gap. A failing run prints its seed; replay by running the
//! same test again (the matrix is deterministic) and grepping for that
//! seed, or by driving `run_stress` with it directly.

use std::sync::Arc;

use clof::{ClofParams, DynClofLock, LockKind};
use clof_testkit::oracle::mutants::BrokenTas;
use clof_testkit::strategies::build_regular;
use clof_testkit::{fuzz_seeds, run_stress, seed_batch, RawHandle, StressOptions};
use clof_topology::Hierarchy;

/// 2 seeds per (kind, hierarchy, threads) cell; 7 kinds × 2 × 2 × 2 = 56.
const SEEDS_PER_CELL: usize = 2;
const ITERS: u64 = 25;

fn hierarchies() -> Vec<Hierarchy> {
    vec![
        build_regular(&[2, 4]),    // 2 levels, 8 CPUs
        build_regular(&[2, 4, 8]), // 3 levels, 16 CPUs
    ]
}

/// Runs the full {hierarchy} × {threads} × {seeds} cell block for one
/// leaf-to-root homogeneous composition of `kind`.
fn oracle_matrix(kind: LockKind) {
    for hierarchy in hierarchies() {
        let kinds = vec![kind; hierarchy.level_count()];
        // Unfair kinds are deliberately included: the oracle checks
        // mutual exclusion and the context invariant for them too (only
        // fairness is out of scope for ttas).
        let lock = Arc::new(
            DynClofLock::build_with(&hierarchy, &kinds, ClofParams::default(), true)
                .expect("composition builds"),
        );
        for threads in [4usize, 8] {
            let n = hierarchy.ncpus();
            let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
            let seeds = seed_batch(
                0xC10F_0000 ^ (kind as u64) << 8 ^ (hierarchy.level_count() as u64) << 4
                    ^ threads as u64,
                SEEDS_PER_CELL,
            );
            let opts = StressOptions {
                threads,
                iters: ITERS,
                label: format!("{}×{}lvl×{}t", lock.name(), hierarchy.level_count(), threads),
                ..StressOptions::default()
            };
            let lock = Arc::clone(&lock);
            let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| lock.handle(cpus[tid]));
            outcome.assert_passed();
            assert_eq!(
                outcome.total_acquisitions,
                SEEDS_PER_CELL as u64 * threads as u64 * ITERS
            );
        }
    }
}

#[test]
fn oracle_matrix_ticket() {
    oracle_matrix(LockKind::Ticket);
}

#[test]
fn oracle_matrix_mcs() {
    oracle_matrix(LockKind::Mcs);
}

#[test]
fn oracle_matrix_clh() {
    oracle_matrix(LockKind::Clh);
}

#[test]
fn oracle_matrix_hemlock() {
    oracle_matrix(LockKind::Hemlock);
}

#[test]
fn oracle_matrix_hemlock_ctr() {
    oracle_matrix(LockKind::HemlockCtr);
}

#[test]
fn oracle_matrix_anderson() {
    oracle_matrix(LockKind::Anderson);
}

#[test]
fn oracle_matrix_ttas() {
    oracle_matrix(LockKind::Ttas);
}

/// Schedule-fuzzed matrix over the monomorphized finalist compositions:
/// the fast dispatch tier must uphold the same oracle invariants as the
/// generic enum tree it replicates, on both hierarchy depths.
#[test]
fn oracle_matrix_monomorphized_finalists() {
    use clof::DispatchTier;
    let finalists: [&[LockKind]; 7] = [
        &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Clh, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Clh, LockKind::Hemlock],
        &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
        &[LockKind::Ticket, LockKind::Ticket],
        &[LockKind::Mcs, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Ticket],
    ];
    for kinds in finalists {
        let hierarchy = if kinds.len() == 3 {
            build_regular(&[2, 4])
        } else {
            build_regular(&[2])
        };
        assert_eq!(hierarchy.level_count(), kinds.len());
        let lock = Arc::new(
            DynClofLock::build_with(&hierarchy, kinds, ClofParams::default(), true)
                .expect("finalist builds"),
        );
        assert_eq!(
            lock.dispatch_tier(),
            DispatchTier::Monomorphized,
            "{} must resolve the fast tier",
            lock.name()
        );
        let threads = 4usize;
        let n = hierarchy.ncpus();
        let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
        let seeds = seed_batch(0xFA57_0000 ^ kinds.len() as u64, SEEDS_PER_CELL);
        let opts = StressOptions {
            threads,
            iters: ITERS,
            label: format!("fast:{}", lock.name()),
            ..StressOptions::default()
        };
        let lock2 = Arc::clone(&lock);
        let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| lock2.handle(cpus[tid]));
        outcome.assert_passed();
        assert_eq!(
            outcome.total_acquisitions,
            SEEDS_PER_CELL as u64 * threads as u64 * ITERS
        );
    }
}

/// Schedule-fuzzed matrix over `FastClof`, the TTAS gate in front of a
/// composition (paper §6), on 2, 3 and 4 levels. Fast-path arrivals may
/// overtake the gate's waiter without bound, so the lock is unfair and
/// the gap check stays off; mutual exclusion and the context invariant
/// are checked as for every other lock.
#[test]
fn oracle_matrix_fast_path() {
    use clof::FastClof;
    let shapes: [(Hierarchy, &[LockKind]); 3] = [
        (build_regular(&[2]), &[LockKind::Mcs, LockKind::Ticket]),
        (
            build_regular(&[2, 4]),
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        ),
        (
            build_regular(&[2, 2, 2]),
            &[
                LockKind::Ticket,
                LockKind::Ticket,
                LockKind::Clh,
                LockKind::Ticket,
            ],
        ),
    ];
    for (hierarchy, kinds) in shapes {
        let lock = FastClof::build(&hierarchy, kinds).expect("fast path builds");
        for threads in [4usize, 8] {
            let n = hierarchy.ncpus();
            let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
            let seeds = seed_batch(
                0x7A5F_0000 ^ (kinds.len() as u64) << 4 ^ threads as u64,
                SEEDS_PER_CELL,
            );
            let opts = StressOptions {
                threads,
                iters: ITERS,
                max_gap: None,
                label: format!("{}×{}t", lock.name(), threads),
                ..StressOptions::default()
            };
            let lock = Arc::clone(&lock);
            let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| lock.handle(cpus[tid]));
            outcome.assert_passed();
            assert_eq!(
                outcome.total_acquisitions,
                SEEDS_PER_CELL as u64 * threads as u64 * ITERS
            );
        }
        let (fast, slow) = lock.path_counters();
        assert_eq!(
            fast + slow,
            SEEDS_PER_CELL as u64 * (4 + 8) * ITERS,
            "{}: every acquisition took one of the two paths",
            lock.name()
        );
    }
}

/// Mixed dispatch tiers on ONE lock: half the threads use the
/// monomorphized handle, half the generic ablation handle. Both run the
/// identical protocol on the same shared nodes, so the oracle must see
/// no difference.
#[test]
fn oracle_mixed_tier_handles_on_one_lock() {
    let hierarchy = build_regular(&[2, 4]);
    let lock = Arc::new(
        DynClofLock::build(
            &hierarchy,
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        )
        .expect("finalist builds"),
    );
    let threads = 4usize;
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
    let seeds = seed_batch(0x3173_7E2E, 4);
    let opts = StressOptions {
        threads,
        iters: ITERS,
        label: "mixed-tier mcs-clh-tkt".into(),
        ..StressOptions::default()
    };
    let lock2 = Arc::clone(&lock);
    let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| {
        if tid % 2 == 0 {
            lock2.handle(cpus[tid])
        } else {
            lock2.handle_generic(cpus[tid])
        }
    });
    outcome.assert_passed();
    assert_eq!(
        outcome.total_acquisitions,
        4 * threads as u64 * ITERS
    );
}

/// Keep-local H-bound regression (schedule-fuzzed): `keep_local`'s
/// handover counter is owner-only (plain load + store under the low
/// lock), and that must still enforce the paper's bound — between two
/// releases-up a node passes locally at most `H - 1` times. Summed per
/// level: `passes ≤ (H-1) × (releases_up + cohorts)` (each cohort may
/// additionally be mid-streak at the end of the run).
#[test]
fn keep_local_owner_only_counter_respects_h_bound() {
    for h in [1u32, 2, 3] {
        let hierarchy = build_regular(&[2, 4]);
        let params = ClofParams {
            keep_local_threshold: h,
        };
        let kinds = vec![LockKind::Ticket; hierarchy.level_count()];
        let lock = Arc::new(
            DynClofLock::build_with(&hierarchy, &kinds, params, false).expect("builds"),
        );
        let threads = 4usize;
        let n = hierarchy.ncpus();
        // Two threads per leaf cohort so local passes actually happen.
        let cpus: Vec<usize> = (0..threads).map(|t| (t / 2) * (n / 2) + t % 2).collect();
        let seeds = seed_batch(0x48B0_0000 ^ h as u64, 3);
        let opts = StressOptions {
            threads,
            iters: 60,
            label: format!("H={h} bound"),
            ..StressOptions::default()
        };
        let lock2 = Arc::clone(&lock);
        let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| lock2.handle(cpus[tid]));
        outcome.assert_passed();
        for level in lock.stats() {
            let cohorts = hierarchy.cohort_count(level.level) as u64;
            let bound = (h as u64 - 1) * (level.releases_up + cohorts);
            assert!(
                level.passes <= bound,
                "H={h} level {} passes {} exceed bound {bound} ({:?})",
                level.level,
                level.passes,
                level
            );
        }
    }
}

/// Bounded acquisition gap for a fair composition: with a small
/// keep-local threshold, no thread waits through more than a small
/// multiple of `threads × H` foreign acquisitions. (The gap is counted
/// from the thread's arrival at `acquire()`, so it measures the queue and
/// not time spent descheduled outside it; it is still a starvation
/// tripwire, not a FIFO proof.)
#[test]
fn fair_composition_gap_is_bounded() {
    let hierarchy = build_regular(&[2, 4]);
    let params = ClofParams {
        keep_local_threshold: 2,
    };
    let kinds = vec![LockKind::Ticket; hierarchy.level_count()];
    let lock = Arc::new(
        DynClofLock::build_with(&hierarchy, &kinds, params, false).expect("fair composition"),
    );
    let threads = 4usize;
    let cpus: Vec<usize> = (0..threads).map(|t| t * hierarchy.ncpus() / threads).collect();
    let opts = StressOptions {
        threads,
        iters: 80,
        seed: 0xFA1B_0C50,
        chaos_denom: 0, // pure scheduling; chaos would stretch gaps artificially
        max_gap: Some(64),
        label: "tkt-tkt gap bound".into(),
        ..StressOptions::default()
    };
    let report = run_stress(&opts, |tid| lock.handle(cpus[tid]));
    assert!(report.passed(), "{}", report.render());
}

// ---------------------------------------------------------------------
// Migration oracle: the epoch/quiescence handover of `clof::adapt` must
// uphold every oracle invariant while the lock is hot-swapped mid-run.
// 64 seeds total across the three tests below (32 + 24 + 8), each seed
// running a fresh `AdaptiveLock` under chaos with a background swapper
// cycling compositions, so flips land in every phase of the acquire/
// release loop. The checks are the same as for a static lock — mutual
// exclusion, torn counters, lost updates, §4.1 context invariant —
// which is the point: a migration must be invisible to correctness.
// ---------------------------------------------------------------------

use clof::adapt::AdaptiveLock;
use clof_testkit::{fuzz_swap_seeds, SwapPlan};

/// Seeds per (shape, threads) migration cell.
const SWAP_SEEDS_PER_CELL: usize = 4;

/// Runs one migration-matrix cell: `SWAP_SEEDS_PER_CELL` fuzzed runs of
/// a fresh adaptive lock starting as `shape`, with the swapper cycling
/// `shape ↔ partner` throughout.
fn migration_cell(
    hierarchy: &Hierarchy,
    shape: &[LockKind],
    partner: &[LockKind],
    threads: usize,
    seed_base: u64,
) -> u64 {
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
    let seeds = seed_batch(seed_base, SWAP_SEEDS_PER_CELL);
    // Small keep-local threshold so release-up (the baton hand-off
    // edge's hard case) happens constantly, not once per H streak.
    let params = ClofParams {
        keep_local_threshold: 4,
    };
    let opts = StressOptions {
        threads,
        iters: ITERS,
        label: format!(
            "adapt:{}↔{}×{}t",
            clof::composition_name(shape),
            clof::composition_name(partner),
            threads
        ),
        ..StressOptions::default()
    };
    let plan = SwapPlan {
        shapes: vec![partner.to_vec(), shape.to_vec()],
        pause_yields: 8,
        max_swaps: 0,
    };
    let outcome = fuzz_swap_seeds(
        &opts,
        &seeds,
        &plan,
        |_seed| {
            Arc::new(
                AdaptiveLock::with_params(hierarchy, shape, params, true)
                    .expect("adaptive lock builds"),
            )
        },
        |_seed, tid| cpus[tid],
    );
    outcome.assert_passed();
    assert_eq!(
        outcome.total_acquisitions,
        SWAP_SEEDS_PER_CELL as u64 * threads as u64 * ITERS,
        "every critical section must survive the migrations"
    );
    outcome.total_swaps
}

/// 3-level block of the migration matrix: 4 finalist shapes × {4,8}
/// threads × 4 seeds = 32 seeds.
#[test]
fn migration_oracle_matrix_three_level() {
    let shapes: [&[LockKind]; 4] = [
        &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Clh, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Clh, LockKind::Hemlock],
        &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
    ];
    let hierarchy = build_regular(&[2, 4]);
    let mut swaps = 0;
    for (i, shape) in shapes.iter().enumerate() {
        let partner = shapes[(i + 1) % shapes.len()];
        for threads in [4usize, 8] {
            swaps += migration_cell(
                &hierarchy,
                shape,
                partner,
                threads,
                0xAD47_3000 ^ (i as u64) << 8 ^ threads as u64,
            );
        }
    }
    assert!(swaps > 0, "the matrix must exercise real migrations");
}

/// 2-level block: 3 finalist shapes × {4,8} threads × 4 seeds = 24.
#[test]
fn migration_oracle_matrix_two_level() {
    let shapes: [&[LockKind]; 3] = [
        &[LockKind::Ticket, LockKind::Ticket],
        &[LockKind::Mcs, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Ticket],
    ];
    let hierarchy = build_regular(&[2]);
    let mut swaps = 0;
    for (i, shape) in shapes.iter().enumerate() {
        let partner = shapes[(i + 1) % shapes.len()];
        for threads in [4usize, 8] {
            swaps += migration_cell(
                &hierarchy,
                shape,
                partner,
                threads,
                0xAD47_2000 ^ (i as u64) << 8 ^ threads as u64,
            );
        }
    }
    assert!(swaps > 0, "the matrix must exercise real migrations");
}

/// Cross-dispatch-tier block (8 seeds): migrating between a shape the
/// fast tier monomorphizes and one only the generic enum tree can run.
/// Per-generation handles must follow the tier change both ways.
#[test]
fn migration_oracle_cross_tier() {
    use clof::DispatchTier;
    let hierarchy = build_regular(&[2, 4]);
    let fast: &[LockKind] = &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket];
    let generic: &[LockKind] = &[LockKind::Hemlock, LockKind::Hemlock, LockKind::Hemlock];
    let probe = |kinds: &[LockKind]| {
        DynClofLock::build_with(&hierarchy, kinds, ClofParams::default(), true)
            .expect("shape builds")
            .dispatch_tier()
    };
    assert_eq!(probe(fast), DispatchTier::Monomorphized);
    assert_eq!(probe(generic), DispatchTier::Generic);

    let threads = 8usize;
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
    let seeds = seed_batch(0xAD47_71E2, 8);
    let opts = StressOptions {
        threads,
        iters: ITERS,
        label: "adapt:cross-tier".into(),
        ..StressOptions::default()
    };
    let plan = SwapPlan {
        shapes: vec![generic.to_vec(), fast.to_vec()],
        pause_yields: 8,
        max_swaps: 0,
    };
    let outcome = fuzz_swap_seeds(
        &opts,
        &seeds,
        &plan,
        |_seed| Arc::new(AdaptiveLock::new(&hierarchy, fast).expect("adaptive lock builds")),
        |_seed, tid| cpus[tid],
    );
    outcome.assert_passed();
    assert_eq!(outcome.total_acquisitions, 8 * threads as u64 * ITERS);
    assert!(outcome.total_swaps > 0, "tier crossings must actually happen");
}

/// Fairness across handover epochs: with chaos off and a small H, the
/// acquisition gap stays bounded even while the lock migrates under the
/// workers — a migration may reshuffle queue order once, not starve a
/// thread. The bound is a tripwire with slack for the reshuffles, not a
/// FIFO proof (cf. `fair_composition_gap_is_bounded`).
#[test]
fn migration_keeps_the_gap_bounded() {
    let hierarchy = build_regular(&[2, 4]);
    let params = ClofParams {
        keep_local_threshold: 2,
    };
    let shape: &[LockKind] = &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket];
    let partner: &[LockKind] = &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket];
    let threads = 4usize;
    let cpus: Vec<usize> = (0..threads).map(|t| t * hierarchy.ncpus() / threads).collect();
    let opts = StressOptions {
        threads,
        iters: 80,
        chaos_denom: 0, // pure scheduling; chaos would stretch gaps artificially
        max_gap: Some(128),
        label: "adapt:gap bound".into(),
        ..StressOptions::default()
    };
    let plan = SwapPlan {
        shapes: vec![partner.to_vec(), shape.to_vec()],
        pause_yields: 16,
        max_swaps: 4,
    };
    let outcome = fuzz_swap_seeds(
        &opts,
        &seed_batch(0xFA1B_AD47, 4),
        &plan,
        |_seed| {
            Arc::new(
                AdaptiveLock::with_params(&hierarchy, shape, params, false)
                    .expect("fair adaptive lock"),
            )
        },
        |_seed, tid| cpus[tid],
    );
    outcome.assert_passed();
}

/// End-to-end acceptance: a deliberately broken lock is caught within a
/// 16-seed budget and the failure names a replayable seed.
#[test]
fn broken_lock_is_caught_with_replayable_seed() {
    let lock = Arc::new(BrokenTas::default());
    let seeds = seed_batch(0xDEAD_10CC, 16);
    let opts = StressOptions {
        threads: 4,
        iters: 40,
        label: "broken-tas".into(),
        ..StressOptions::default()
    };
    let outcome = fuzz_seeds(&opts, &seeds, |_seed, _tid| RawHandle::new(&lock));
    let report = outcome
        .failure
        .expect("the oracle must catch a lock with no atomic RMW");
    let rendered = report.render();
    assert!(
        rendered.contains("replay with seed 0x"),
        "failure report must name its seed:\n{rendered}"
    );
}
