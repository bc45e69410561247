//! Registry lifecycle invariants for the contention profiler
//! (ISSUE 8, satellite 3): every lock construction registers exactly
//! one site, dropping the lock deregisters it, and an adaptation-swap
//! matrix over 64 seeded compositions keeps the site id stable while
//! leaking zero registry entries.
//!
//! The site registry is process-global, so tests in this binary
//! serialize on a static mutex and measure registry length as a delta
//! against a baseline taken under that lock — the absolute length
//! depends on which tests ran before.
//!
//! Run with `cargo test --features obs --test profile_registry`
//! (the swap-matrix test additionally needs `--features adapt,obs`).

#![cfg(feature = "obs")]

use std::sync::{Arc, Mutex, MutexGuard};

use clof::obs::{registry, LockSnapshot, SiteProfile};
use clof::{ClofParams, DynClofLock, FastClof, LockKind};
use clof_testkit::strategies::build_regular;

/// Serializes tests that observe the process-global registry.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The profiler keeps no counters of its own for a lock's wait, hold
/// and traffic: a site row must equal the sums over the `obs_snapshot`s
/// of the trees that have lived on the site.
fn assert_site_is_the_sum_of(site: &SiteProfile, trees: &[&LockSnapshot]) {
    let sum = |f: &dyn Fn(&LockSnapshot) -> u64| trees.iter().map(|t| f(t)).sum::<u64>();
    assert_eq!(site.acquires, sum(&|t| t.levels[0].acquires), "acquires");
    assert_eq!(site.waits, site.acquires, "every acquire records one whole wait");
    assert_eq!(site.holds, sum(&|t| t.hold_ns.count), "holds");
    assert_eq!(site.hold_ns, sum(&|t| t.hold_ns.sum), "hold_ns");
    assert_eq!(
        site.passes,
        sum(&|t| t.levels.iter().map(|l| l.passes_taken).sum()),
        "passes"
    );
    // A whole wait spans the levels climbed, so it is at least their sum.
    let level_wait = sum(&|t| t.levels.iter().map(|l| l.acquire_ns.sum).sum());
    assert!(site.wait_ns >= level_wait, "{} < {level_wait}", site.wait_ns);
}

/// Per-node waits are the acquire-wait histograms regrouped by node:
/// summed over a level's nodes they give the level's histogram back.
fn assert_nodes_regroup_levels(site: &SiteProfile, trees: &[&LockSnapshot]) {
    for level in 0..trees[0].levels.len() {
        let nodes = site.nodes.iter().filter(|n| n.level as usize == level);
        let (wait_ns, waits) = nodes.fold((0, 0), |(ns, n), node| (ns + node.wait_ns, n + node.waits));
        let hist = |f: &dyn Fn(&clof::obs::HistSnapshot) -> u64| {
            trees.iter().map(|t| f(&t.levels[level].acquire_ns)).sum::<u64>()
        };
        assert_eq!((wait_ns, waits), (hist(&|h| h.sum), hist(&|h| h.count)), "level {level}");
    }
}

#[test]
fn build_registers_and_drop_deregisters() {
    let _guard = serial();
    let baseline = registry::global().len();

    let hierarchy = build_regular(&[2, 4]);
    let lock = DynClofLock::build_with(
        &hierarchy,
        &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        ClofParams::default(),
        true,
    )
    .expect("composition builds");
    let line_after_build = line!(); // `#[track_caller]` names the build call above

    assert_eq!(registry::global().len(), baseline + 1, "one site per lock");
    let site = registry::global()
        .site(lock.site_id())
        .expect("site is live while the lock is");
    assert_eq!(site.label, lock.name());
    assert_eq!(site.shape, "8cpu/4-2-1", "cpu count plus cohorts per level");
    assert!(
        site.file.ends_with("profile_registry.rs"),
        "construction location must name user code, got {}",
        site.file
    );
    assert!(site.line < line_after_build);
    assert_eq!(site.generation, 0, "fresh registration, never adopted");
    assert_eq!(site.refs, 1);

    drop(lock);
    assert_eq!(
        registry::global().len(),
        baseline,
        "drop must release the slot back to the registry"
    );
}

#[test]
fn fastpath_site_is_gate_labelled_and_deregisters() {
    let _guard = serial();
    let baseline = registry::global().len();

    let hierarchy = build_regular(&[4]);
    let lock = FastClof::build_with(
        &hierarchy,
        &[LockKind::Ticket, LockKind::Ticket],
        ClofParams::default(),
    )
    .expect("composition builds");

    // The gate and the slow composition share one site, relabelled to
    // show the TAS fast path in profiler output.
    assert_eq!(registry::global().len(), baseline + 1);
    let site = registry::global()
        .site(lock.site_id())
        .expect("site is live while the lock is");
    assert!(
        site.label.starts_with("tas+"),
        "fast-path site label must carry the gate prefix, got {}",
        site.label
    );

    drop(lock);
    assert_eq!(registry::global().len(), baseline);
}

#[test]
fn contended_run_attributes_wait_and_hold_to_the_site() {
    let _guard = serial();

    let hierarchy = build_regular(&[2, 2]);
    let lock = Arc::new(
        DynClofLock::build_with(
            &hierarchy,
            &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
            ClofParams::default(),
            true,
        )
        .expect("composition builds"),
    );
    let before = clof::obs::profile::global().snapshot();

    let threads = 4;
    let iters = 200u64;
    let counter = Arc::new(Mutex::new(0u64));
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            scope.spawn(move || {
                let mut handle = lock.handle(tid);
                for _ in 0..iters {
                    handle.acquire();
                    *counter.lock().unwrap() += 1;
                    handle.release();
                }
            });
        }
    });
    assert_eq!(*counter.lock().unwrap(), threads as u64 * iters);

    let delta = clof::obs::profile::global().snapshot().delta(&before);
    let site = delta
        .sites
        .iter()
        .find(|s| s.id == lock.site_id())
        .expect("profiled site appears in the snapshot delta");
    assert_eq!(
        site.acquires,
        threads as u64 * iters,
        "every critical section is attributed exactly once"
    );
    assert!(site.holds > 0 && site.hold_ns > 0);
    assert!(site.waits > 0, "4 threads on one lock must wait");
    assert!(
        site.nodes.iter().any(|n| n.waits > 0),
        "per-(level,node) accumulators must see the contention"
    );

    // The profiler's row and the lock's own snapshot are two views of
    // the same shards (the site is fresh, so the delta is the total).
    let snap = lock.obs_snapshot();
    assert_site_is_the_sum_of(site, &[&snap]);
    assert_nodes_regroup_levels(site, &[&snap]);
    let cohorts: usize = (0..hierarchy.level_count())
        .map(|level| hierarchy.cohort_count(level))
        .sum();
    assert_eq!(site.nodes.len(), cohorts, "every node of the tree is listed");
}

#[cfg(feature = "adapt")]
mod adapt_lifecycle {
    use super::{serial, Arc};
    use clof::obs::registry;
    use clof::{AdaptiveLock, ClofParams, LockKind};
    use clof_testkit::strategies::build_regular;

    /// Finalist shapes the swap matrix cycles through — mixed and
    /// homogeneous 3-level compositions, as in the adaptation tests.
    const SHAPES: [&[LockKind]; 4] = [
        &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Clh, LockKind::Ticket],
        &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
        &[LockKind::Clh, LockKind::Mcs, LockKind::Ticket],
    ];

    /// 64-seed adaptation-swap matrix: the site id never moves, the
    /// registry never grows past one live site for the adaptive lock,
    /// and dropping it returns the registry to baseline (zero leaks).
    #[test]
    fn swap_matrix_keeps_site_id_stable_and_leaks_nothing() {
        let _guard = serial();
        let baseline = registry::global().len();

        let hierarchy = build_regular(&[2, 4]);
        let lock = Arc::new(
            AdaptiveLock::with_params(&hierarchy, SHAPES[0], ClofParams::default(), true)
                .expect("adaptive lock builds"),
        );
        let site_id = lock.site_id();
        assert_eq!(
            registry::global().len(),
            baseline + 1,
            "both parity slots share the initial tree's single site"
        );

        let mut swaps_taken = 0u64;
        for seed in 0u64..64 {
            // Seeded walk over the finalist set; consecutive picks may
            // repeat, exercising the no-op swap path too.
            let pick = SHAPES[(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SHAPES.len()];
            if lock.swap_to(pick).expect("swap builds") {
                swaps_taken += 1;
            }
            assert_eq!(
                lock.site_id(),
                site_id,
                "seed {seed}: adaptation swap must rebind, not re-register"
            );
            assert_eq!(
                registry::global().len(),
                baseline + 1,
                "seed {seed}: swap must not leak registry entries"
            );
            // Exercise the swapped-in tree so rebinding under load is
            // covered, not just the bookkeeping.
            let mut handle = lock.handle(seed as usize % hierarchy.ncpus());
            handle.acquire();
            handle.release();
        }
        assert!(swaps_taken >= 16, "matrix must actually swap, took {swaps_taken}");

        let site = registry::global().site(site_id).expect("site still live");
        assert_eq!(
            site.generation, swaps_taken,
            "every real swap bumps the adoption generation"
        );

        drop(lock);
        assert_eq!(
            registry::global().len(),
            baseline,
            "dropping the adaptive lock must free its single site"
        );
        assert!(
            registry::global().site(site_id).is_none(),
            "the slot must read as dead after release"
        );
    }

    /// The site row stays the sum over every tree that has lived on the
    /// site — while both parity slots hold a tree, and after the older
    /// one is dropped and its sums stay behind with the site.
    #[test]
    fn site_views_agree_with_the_trees_across_rebinds() {
        let _guard = serial();
        let hierarchy = build_regular(&[2, 4]);
        let lock = Arc::new(
            AdaptiveLock::with_params(&hierarchy, SHAPES[0], ClofParams::default(), true)
                .expect("adaptive lock builds"),
        );
        let contend = || {
            std::thread::scope(|scope| {
                for cpu in [0usize, 1, 4, 7] {
                    let lock = Arc::clone(&lock);
                    scope.spawn(move || {
                        let mut handle = lock.handle(cpu);
                        for _ in 0..150 {
                            handle.acquire();
                            handle.release();
                        }
                    });
                }
            });
        };

        // One entry per tree, taken just before the tree is swapped out
        // (`obs_snapshot` describes the current tree only).
        let mut trees = Vec::new();
        for (i, shape) in SHAPES.iter().cycle().skip(1).take(3).enumerate() {
            contend();
            let current = lock.obs_snapshot();
            let site = lock.site_profile().expect("site is live");
            let mut all: Vec<&clof::obs::LockSnapshot> = trees.iter().collect();
            all.push(&current);
            super::assert_site_is_the_sum_of(&site, &all);
            // Nodes are listed for the trees still alive: the current
            // one and its predecessor in the other parity slot.
            let alive = &all[all.len().saturating_sub(2)..];
            super::assert_nodes_regroup_levels(&site, alive);
            assert_eq!(site.generation, i as u64);

            trees.push(current);
            assert!(lock.swap_to(shape).expect("swap builds"));
        }
        assert_eq!(trees.len(), 3);
        let site = lock.site_profile().expect("site is live");
        let all: Vec<&clof::obs::LockSnapshot> = trees.iter().collect();
        super::assert_site_is_the_sum_of(&site, &all);
        assert_eq!(site.acquires, 3 * 4 * 150);
    }

    /// A failed swap (unbuildable composition) must leave the registry
    /// untouched: no provisional site may leak from the aborted build.
    #[test]
    fn failed_swap_leaks_no_provisional_site() {
        let _guard = serial();
        let baseline = registry::global().len();

        let hierarchy = build_regular(&[2, 4]);
        let lock = AdaptiveLock::with_params(
            &hierarchy,
            SHAPES[0],
            ClofParams::default(),
            true,
        )
        .expect("adaptive lock builds");
        let site_id = lock.site_id();
        assert_eq!(registry::global().len(), baseline + 1);

        // Wrong arity for a 3-level hierarchy: the build inside swap_to
        // fails after the incoming tree would have registered.
        assert!(lock.swap_to(&[LockKind::Ticket]).is_err());
        assert_eq!(lock.site_id(), site_id);
        assert_eq!(
            registry::global().len(),
            baseline + 1,
            "aborted swap must roll its provisional registration back"
        );

        drop(lock);
        assert_eq!(registry::global().len(), baseline);
    }
}
