//! `DynClofLock::stats` counts only release decisions and derives the
//! acquisitions from them: below the root, from the passes, releases up
//! and unwound bounded climbs; at the root of a taller tree, from the
//! releases up of the level below. These are the cases where that
//! derivation is fragile:
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
use std::time::Duration;

use clof::{ClofParams, DynClofLock, DynHandle, LevelStats, LockKind};
use clof_testkit::TestRng;
use clof_topology::Hierarchy;

const SHORT: Duration = Duration::from_micros(200);
const LONG: Duration = Duration::from_secs(30);

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

#[test]
fn one_level_lock_counts_every_acquisition() {
    // `LockChoice::Basic`'s shape: one basic lock over a flat hierarchy,
    // unfair kinds allowed.
    const THREADS: usize = 2;
    const ITERS: u64 = 2_000;
    let flat = Hierarchy::flat(THREADS).unwrap();
    for kind in [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Ttas,
    ] {
        let lock =
            Arc::new(DynClofLock::build_with(&flat, &[kind], ClofParams::default(), true).unwrap());
        let counted = |acquisitions| {
            let mut expected = zeroed(1);
            expected[0].acquisitions = acquisitions;
            expected
        };

        // Single-threaded: a held section is counted at its release, and
        // a timed-out attempt counts nothing.
        let (mut a, mut b) = (lock.handle(0), lock.handle(1));
        a.acquire();
        assert_eq!(lock.stats(), counted(0), "{kind:?}: in flight");
        assert!(!b.try_acquire_for(SHORT), "{kind:?}: acquired a held lock");
        a.release();
        assert_eq!(lock.stats(), counted(1), "{kind:?}");
        assert!(b.try_acquire_for(LONG), "{kind:?}: free lock timed out");
        b.release();
        assert_eq!(lock.stats(), counted(2), "{kind:?}");
        drop((a, b));

        // Contended: every section of every thread, blocking or bounded.
        let sections = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..THREADS)
            .map(|cpu| {
                let (lock, sections) = (Arc::clone(&lock), Arc::clone(&sections));
                std::thread::spawn(move || {
                    let mut handle = lock.handle(cpu);
                    for i in 0..ITERS {
                        if i % 4 == 0 {
                            assert!(handle.try_acquire_for(LONG));
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
        assert_eq!(sections.load(Ordering::Relaxed), THREADS as u64 * ITERS);
        assert_eq!(
            lock.stats(),
            counted(2 + THREADS as u64 * ITERS),
            "{kind:?}"
        );
    }
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
    let levels = h.level_count();
    assert_eq!(levels, 3);
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

    // Single-threaded tickets: a ticket that times out is retracted, so
    // no release ever sees a waiter. An owner climbs every level and
    // releases up at every level below the root; a quitter wins every
    // level below the one where its path meets the owner's, stalls
    // there and unwinds what it won.
    let mut expected = zeroed(levels);
    let mut rng = TestRng::new(0x1e7e_1570_a75e_0001);
    // Quitters that unwound, by the level where their path met the owner's.
    let mut unwound_at = vec![0u32; levels];
    for step in 0..120 {
        let owner = rng.below(h.ncpus() as u64) as usize;
        if step % 3 == 0 {
            assert!(handles[owner].try_acquire_for(LONG), "free lock timed out");
        } else {
            handles[owner].acquire();
        }
        assert_eq!(lock.stats(), expected, "step {step}: owner in flight");
        if step % 2 == 0 {
            let quitter = (owner + 1 + rng.below(h.ncpus() as u64 - 1) as usize) % h.ncpus();
            assert!(
                !handles[quitter].try_acquire_for(SHORT),
                "cpu {quitter} acquired a lock cpu {owner} holds"
            );
            let meet = (0..levels)
                .find(|&l| h.cohort(l, quitter) == h.cohort(l, owner))
                .unwrap();
            for won in &mut expected[..meet] {
                won.acquisitions += 1;
            }
            unwound_at[meet] += 1;
            assert_eq!(lock.stats(), expected, "step {step}: cpu {quitter} unwound");
        }
        handles[owner].release();
        for level in &mut expected {
            level.acquisitions += 1;
            if level.level + 1 < levels {
                level.releases_up += 1;
            }
        }
        assert_eq!(lock.stats(), expected, "step {step}: cpu {owner} released");
    }
    // The walk reached every kind of timeout: stalled at the leaf with
    // nothing won, unwound from the leaf, and unwound from the mid level.
    assert!(unwound_at.iter().all(|&n| n > 0), "{unwound_at:?}");
}
