//! `stats()` counts only release decisions and derives the acquisitions
//! from them: below the root, from the passes, releases up and unwound
//! bounded climbs; at the root of a taller tree, from the releases up of
//! the level below. The level step counts, so the static `ClofTree` and
//! both tiers of `DynClofLock` are checked alike. These are the cases
//! where that derivation is fragile:
//!
//! * a 1-level lock, whose only node has nothing below it to derive
//!   from;
//! * an asymmetric tree walked with deadline timeouts, where climbs give
//!   up part-way and unwind, and sibling cohorts differ in size.
//!
//! Both check `stats()` after every step against counts kept here, with
//! an acquisition in flight counted at its release.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clof::compose::{build1, build3};
use clof::{ClofParams, DynClofLock, DynHandle, LevelStats, LockKind};
use clof_locks::{ClhLock, McsLock, RawLock, TicketLock, TtasLock};
use clof_testkit::{DeadlineHandle, TestRng};
use clof_topology::Hierarchy;

const SHORT: Duration = Duration::from_micros(200);
const LONG: Duration = Duration::from_secs(30);

/// A bounded attempt of `budget` from now.
fn try_for(handle: &mut impl DeadlineHandle, budget: Duration) -> bool {
    handle.try_acquire_until(Instant::now() + budget)
}

fn zeroed(levels: usize) -> Vec<LevelStats> {
    (0..levels)
        .map(|level| LevelStats {
            level,
            acquisitions: 0,
            passes: 0,
            releases_up: 0,
        })
        .collect()
}

/// One lock of one level over two CPUs, as handles on each CPU and the
/// lock's `stats()`.
fn one_level_counts<H: DeadlineHandle + Send + 'static>(
    name: &str,
    handles: impl Fn() -> [H; 2],
    stats: impl Fn() -> Vec<LevelStats>,
) {
    const ITERS: u64 = 2_000;
    let counted = |acquisitions| {
        let mut expected = zeroed(1);
        expected[0].acquisitions = acquisitions;
        expected
    };

    // Single-threaded: a held section is counted at its release, and a
    // timed-out attempt counts nothing.
    let [mut a, mut b] = handles();
    a.acquire();
    assert_eq!(stats(), counted(0), "{name}: in flight");
    assert!(!try_for(&mut b, SHORT), "{name}: acquired a held lock");
    a.release();
    assert_eq!(stats(), counted(1), "{name}");
    assert!(try_for(&mut b, LONG), "{name}: free lock timed out");
    b.release();
    assert_eq!(stats(), counted(2), "{name}");
    drop((a, b));

    // Contended: every section of every thread, blocking or bounded.
    let sections = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = handles()
        .into_iter()
        .map(|mut handle| {
            let sections = Arc::clone(&sections);
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    if i % 4 == 0 {
                        assert!(try_for(&mut handle, LONG));
                    } else {
                        handle.acquire();
                    }
                    let n = sections.load(Ordering::Relaxed);
                    sections.store(n + 1, Ordering::Relaxed);
                    handle.release();
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    assert_eq!(sections.load(Ordering::Relaxed), 2 * ITERS);
    assert_eq!(stats(), counted(2 + 2 * ITERS), "{name}");
}

#[test]
fn one_level_lock_counts_every_acquisition() {
    // `LockChoice::Basic`'s shape: one basic lock over a flat hierarchy,
    // unfair kinds allowed.
    let flat = Hierarchy::flat(2).unwrap();
    for kind in [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Ttas,
    ] {
        let lock = DynClofLock::build_with(&flat, &[kind], ClofParams::default(), true).unwrap();
        let name = format!("{kind:?}");
        one_level_counts(&name, || [lock.handle(0), lock.handle(1)], || lock.stats());
    }
    fn static_tree<L: RawLock>(flat: &Hierarchy) {
        let tree = build1::<L>(flat).unwrap();
        let name = format!("static {}", tree.name());
        one_level_counts(&name, || [tree.handle(0), tree.handle(1)], || tree.stats());
    }
    static_tree::<TicketLock>(&flat);
    static_tree::<McsLock>(&flat);
    static_tree::<ClhLock>(&flat);
    static_tree::<TtasLock>(&flat);
}

/// Walks `handles` (one per CPU of `h`) through seeded sections with
/// deadline timeouts, checking `stats()` after every step.
///
/// Single-threaded tickets: a ticket that times out is retracted, so no
/// release ever sees a waiter. An owner climbs every level and releases
/// up at every level below the root; a quitter wins every level below
/// the one where its path meets the owner's, stalls there and unwinds
/// what it won.
fn timed_out_walk<H: DeadlineHandle>(
    h: &Hierarchy,
    handles: &mut [H],
    stats: impl Fn() -> Vec<LevelStats>,
) {
    let levels = h.level_count();
    let mut expected = zeroed(levels);
    let mut rng = TestRng::new(0x1e7e_1570_a75e_0001);
    // Quitters that unwound, by the level where their path met the owner's.
    let mut unwound_at = vec![0u32; levels];
    for step in 0..120 {
        let owner = rng.below(h.ncpus() as u64) as usize;
        if step % 3 == 0 {
            assert!(try_for(&mut handles[owner], LONG), "free lock timed out");
        } else {
            handles[owner].acquire();
        }
        assert_eq!(stats(), expected, "step {step}: owner in flight");
        if step % 2 == 0 {
            let quitter = (owner + 1 + rng.below(h.ncpus() as u64 - 1) as usize) % h.ncpus();
            assert!(
                !try_for(&mut handles[quitter], SHORT),
                "cpu {quitter} acquired a lock cpu {owner} holds"
            );
            let meet = (0..levels)
                .find(|&l| h.cohort(l, quitter) == h.cohort(l, owner))
                .unwrap();
            for won in &mut expected[..meet] {
                won.acquisitions += 1;
            }
            unwound_at[meet] += 1;
            assert_eq!(stats(), expected, "step {step}: cpu {quitter} unwound");
        }
        handles[owner].release();
        for level in &mut expected {
            level.acquisitions += 1;
            if level.level + 1 < levels {
                level.releases_up += 1;
            }
        }
        assert_eq!(stats(), expected, "step {step}: cpu {owner} released");
    }
    // The walk reached every kind of timeout: stalled at the leaf with
    // nothing won, unwound from the leaf, and unwound from the mid level.
    assert!(unwound_at.iter().all(|&n| n > 0), "{unwound_at:?}");
}

#[test]
fn derived_counts_match_a_timed_out_walk_of_an_asymmetric_tree() {
    // Leaf cohorts of 3, 2 and 1 CPUs; mid cohorts of 2 leaves and 1.
    let h = Hierarchy::from_levels(
        vec![
            ("core".to_string(), vec![0, 0, 0, 1, 1, 2]),
            ("numa".to_string(), vec![0, 0, 0, 0, 0, 1]),
        ],
        6,
    )
    .unwrap();
    assert_eq!(h.level_count(), 3);
    let lock = DynClofLock::build(&h, &[LockKind::Ticket; 3]).unwrap();
    // Both dyn tiers on one lock: even CPUs typed, odd ones generic.
    let mut handles: Vec<DynHandle> = (0..h.ncpus())
        .map(|cpu| {
            if cpu % 2 == 0 {
                lock.handle(cpu)
            } else {
                lock.handle_generic(cpu)
            }
        })
        .collect();
    timed_out_walk(&h, &mut handles, || lock.stats());

    // The same walk of the static tree, whose upper nodes are shared by
    // leaves of different sizes.
    let tree = build3::<TicketLock, TicketLock, TicketLock>(&h, ClofParams::default()).unwrap();
    let mut handles: Vec<_> = (0..h.ncpus()).map(|cpu| tree.handle(cpu)).collect();
    timed_out_walk(&h, &mut handles, || tree.stats());
}
