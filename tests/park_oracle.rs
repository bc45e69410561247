//! Oversubscription stress-oracle matrix for the spin-then-park waiting
//! layer (`--features park`): finalist shapes and the `FastClof` gate ×
//! {2×, 4×} thread oversubscription × chaos schedules × seeds.
//!
//! Asserted per run: mutual exclusion (the base oracle's owner cell and
//! torn-counter pair), **no lost wakeups** — the exact-acquisition-count
//! check doubles as a parked-waiter liveness proof, since a waiter whose
//! wake went missing never completes its iterations (and in test builds
//! the timed-wait rescue detector panics with `clof-park stall` first,
//! which the oracle converts into a violation) — and, in the dedicated
//! fairness test, a bounded acquisition gap measured end-to-end across
//! park/wake edges.

#![cfg(feature = "park")]

use std::sync::Arc;

use clof::{ClofParams, DynClofLock, FastClof, LockKind};
use clof_locks::park;
use clof_testkit::strategies::build_regular;
use clof_testkit::{fuzz_seeds, run_stress, seed_batch, OracleHandle, StressOptions};
use clof_topology::Hierarchy;

const SEEDS_PER_CELL: usize = 2;
const ITERS: u64 = 25;

/// Logical cores to oversubscribe against: at least 2 so "2×" means
/// real preemption pressure even on a single-CPU host, capped so the
/// 4× cell stays bounded on very wide machines.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(2, 8)
}

fn hierarchies() -> Vec<Hierarchy> {
    vec![
        build_regular(&[2, 4]),    // 2 levels, 8 CPUs
        build_regular(&[2, 4, 8]), // 3 levels, 16 CPUs
    ]
}

/// One matrix cell: `SEEDS_PER_CELL` chaos-fuzzed runs of `shape` on
/// `hierarchy` at `mult`× oversubscription.
fn oversub_cell(hierarchy: &Hierarchy, shape: &[LockKind], mult: usize, forced_park: bool) {
    // Pad shorter shapes to the hierarchy depth by repeating the root
    // kind (the paper's finalists are named leaf-to-root).
    let mut kinds: Vec<LockKind> = shape.to_vec();
    while kinds.len() < hierarchy.level_count() {
        kinds.push(*shape.last().expect("non-empty shape"));
    }
    kinds.truncate(hierarchy.level_count());
    let lock = Arc::new(
        DynClofLock::build_with(hierarchy, &kinds, ClofParams::default(), true)
            .expect("composition builds"),
    );
    if forced_park {
        // Zero spin budget: every contended wait parks immediately, so
        // the cell exercises the park/wake protocol on every hand-off.
        for level in 0..kinds.len() {
            lock.set_spin_budget(level, 0);
        }
    }
    let seed_base = 0x9A4C_0000
        ^ (kinds.len() as u64) << 12
        ^ (mult as u64) << 8
        ^ (forced_park as u64) << 4
        ^ kinds[0] as u64;
    let label = format!(
        "{}×{}lvl×{mult}x{}",
        lock.name(),
        hierarchy.level_count(),
        if forced_park { "×forced-park" } else { "" }
    );
    oversub_runs(hierarchy, mult, seed_base, label, |cpu| lock.handle(cpu));
}

/// `SEEDS_PER_CELL` chaos-fuzzed runs at `mult`× oversubscription, the
/// workers spread over `hierarchy`'s CPUs and acquiring through
/// `handle(cpu)`. The exact acquisition count is the no-lost-wakeup
/// check.
fn oversub_runs<H: OracleHandle>(
    hierarchy: &Hierarchy,
    mult: usize,
    seed_base: u64,
    label: String,
    handle: impl Fn(usize) -> H + Sync,
) {
    let threads = mult * cores();
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads % n).collect();
    let seeds = seed_batch(seed_base, SEEDS_PER_CELL);
    let opts = StressOptions {
        threads,
        iters: ITERS,
        label,
        ..StressOptions::default()
    };
    let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| handle(cpus[tid]));
    outcome.assert_passed();
    assert_eq!(
        outcome.total_acquisitions,
        SEEDS_PER_CELL as u64 * threads as u64 * ITERS,
        "lost wakeup: a parked waiter never finished ({})",
        opts.label
    );
}

#[test]
fn oversubscribed_matrix_mcs_clh_tkt() {
    for hierarchy in hierarchies() {
        for mult in [2usize, 4] {
            oversub_cell(
                &hierarchy,
                &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
                mult,
                false,
            );
        }
    }
}

#[test]
fn oversubscribed_matrix_tkt_tkt_tkt() {
    for hierarchy in hierarchies() {
        for mult in [2usize, 4] {
            oversub_cell(&hierarchy, &[LockKind::Ticket], mult, false);
        }
    }
}

#[test]
fn oversubscribed_matrix_heterogeneous_queue_shapes() {
    let hierarchy = build_regular(&[2, 4]);
    for shape in [
        &[LockKind::Clh, LockKind::Clh, LockKind::Hemlock][..],
        &[LockKind::Anderson, LockKind::Ttas, LockKind::Ticket][..],
    ] {
        for mult in [2usize, 4] {
            oversub_cell(&hierarchy, shape, mult, false);
        }
    }
}

/// `FastClof` oversubscribed: the composition's owner waits at the TTAS
/// gate with the root level's budget and then parks on the gate's
/// eventcount, while fast-path arrivals keep taking the gate. The lock
/// is unfair, so there is no gap bound; a gate waiter that missed its
/// wake never finishes its iterations.
#[test]
fn oversubscribed_fast_path() {
    let hierarchy = build_regular(&[2, 4]);
    let lock = FastClof::build(&hierarchy, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket])
        .expect("fast path builds");
    for mult in [2usize, 4] {
        let label = format!("{}×{mult}x", lock.name());
        oversub_runs(&hierarchy, mult, 0x9A4C_FA57 ^ mult as u64, label, |cpu| {
            lock.handle(cpu)
        });
    }
}

/// Parked-waiter liveness under maximum park pressure: zero spin budget
/// forces every contended wait through the kernel-block path, so the
/// exact acquisition count proves every parked waiter observed its wake.
#[test]
fn forced_park_liveness_no_lost_wakeups() {
    let parks_before = park::parks();
    for hierarchy in hierarchies() {
        oversub_cell(
            &hierarchy,
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
            2,
            true,
        );
        oversub_cell(&hierarchy, &[LockKind::Ticket], 2, true);
    }
    assert!(
        park::parks() > parks_before,
        "zero-budget oversubscribed runs must actually park \
         (parks stayed at {parks_before})"
    );
}

/// Bounded acquisition gap across park/wake edges: a fair (all-ticket,
/// small-H) composition keeps its starvation tripwire even when every
/// waiter parks — a wake that skipped the next-in-line would show up as
/// an unbounded gap long before the stall detector fires.
#[test]
fn gap_bound_holds_across_park_wake_edges() {
    let hierarchy = build_regular(&[2, 4]);
    let params = ClofParams {
        keep_local_threshold: 2,
    };
    let kinds = vec![LockKind::Ticket; hierarchy.level_count()];
    let lock = Arc::new(
        DynClofLock::build_with(&hierarchy, &kinds, params, false).expect("fair composition"),
    );
    for level in 0..kinds.len() {
        lock.set_spin_budget(level, 0); // every contended wait parks
    }
    let threads = 2 * cores();
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads % n).collect();
    let opts = StressOptions {
        threads,
        iters: 60,
        seed: 0xFA1B_9A4C,
        chaos_denom: 0, // pure scheduling; chaos would stretch gaps artificially
        // End-to-end slack scaled to the thread count (park/wake adds
        // latency outside the queue, never extra foreign acquisitions).
        max_gap: Some(threads as u64 * 16),
        label: "tkt-tkt parked gap bound".into(),
        ..StressOptions::default()
    };
    let report = run_stress(&opts, |tid| lock.handle(cpus[tid]));
    assert!(report.passed(), "{}", report.render());
}

/// The topology-derived budgets are leaf-biased (leaf spins longest,
/// root parks soonest) and runtime-tunable, and the tuned values are
/// what the acquire path reads.
#[test]
fn budgets_are_leaf_biased_and_runtime_tunable() {
    let hierarchy = build_regular(&[2, 4]);
    let lock = DynClofLock::build(
        &hierarchy,
        &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
    )
    .expect("builds");
    let budgets = lock.spin_budgets();
    assert_eq!(budgets.len(), 3);
    for w in budgets.windows(2) {
        assert!(
            w[0].1 >= w[1].1,
            "budgets must not grow toward the root: {budgets:?}"
        );
    }
    assert!(
        budgets.iter().all(|&(_, b)| b != clof_locks::SPIN_FOREVER),
        "build must install finite topology budgets: {budgets:?}"
    );
    lock.set_spin_budget(1, 7);
    assert_eq!(lock.spin_budgets()[1], (1, 7));
}

/// The profiler's per-site park time is fed by the parked-duration
/// recorder: a contended zero-budget run attributes its parks to the
/// lock's own site, and never more of them than the process counted.
#[cfg(feature = "obs")]
#[test]
fn parks_are_attributed_to_the_waiting_site() {
    let hierarchy = build_regular(&[2, 4]);
    let lock = Arc::new(
        DynClofLock::build(
            &hierarchy,
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        )
        .expect("builds"),
    );
    for level in 0..hierarchy.level_count() {
        lock.set_spin_budget(level, 0); // every contended wait parks
    }
    let site_parks = || lock.site_profile().expect("site registered").parks;
    let (site_before, process_before) = (site_parks(), park::parks());
    let threads = 2 * cores();
    let n = hierarchy.ncpus();
    // Parking needs a waiter to find the lock held; a few rounds make
    // that certain on any scheduler without sleeping.
    for _ in 0..20 {
        std::thread::scope(|s| {
            for t in 0..threads {
                let lock = &lock;
                s.spawn(move || {
                    let mut handle = lock.handle(t * n / threads % n);
                    for _ in 0..200 {
                        handle.acquire();
                        handle.release();
                    }
                });
            }
        });
        if site_parks() > site_before {
            break;
        }
    }
    let site = site_parks() - site_before;
    let process = park::parks() - process_before;
    assert!(site >= 1, "no park was attributed to the lock's site");
    assert!(
        site <= process,
        "site parks ({site}) exceed the process park count ({process})"
    );
}
