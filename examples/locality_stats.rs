//! Observing a CLoF lock's locality with the built-in instrumentation.
//!
//! ```text
//! cargo run --release --example locality_stats
//! ```
//!
//! Runs contending threads through a 3-level lock twice — once with
//! threads packed into one cache cohort, once spread across NUMA nodes —
//! and prints the per-level hand-off statistics (`DynClofLock::stats`):
//! the packed run resolves almost everything by passing at the innermost
//! level, the spread run has to release upward.
//!
//! After each run it checks the invariants the statistics promise at
//! quiescence: below the root every acquisition ended in a pass or a
//! release up (no run here times out), the root was acquired once per
//! release up of the level below, and the innermost level counted every
//! critical section.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use clof::{DynClofLock, LockKind};
use clof_topology::platforms;

const ITERS: usize = 20_000;

fn run_on(cpus: &[usize], label: &str) {
    let hierarchy = platforms::tiny();
    let lock = Arc::new(
        DynClofLock::build(
            &hierarchy,
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        )
        .expect("valid composition"),
    );
    let counter = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for &cpu in cpus {
        let lock = Arc::clone(&lock);
        let counter = Arc::clone(&counter);
        threads.push(std::thread::spawn(move || {
            let mut handle = lock.handle(cpu);
            for _ in 0..ITERS {
                handle.acquire();
                counter.fetch_add(1, Ordering::Relaxed);
                handle.release();
            }
        }));
    }
    for t in threads {
        t.join().expect("worker");
    }

    let stats = lock.stats();
    println!("{label} (CPUs {cpus:?}):");
    for level in &stats {
        println!(
            "  level {} ({:>6}): {:>6} acquisitions, {:>6} local passes, \
             {:>6} releases up  ({:>5.1}% local)",
            level.level,
            hierarchy.levels()[level.level].name,
            level.acquisitions,
            level.passes,
            level.releases_up,
            level.locality() * 100.0
        );
    }
    println!();

    let root = stats.len() - 1;
    for level in &stats[..root] {
        let decided = level.passes + level.releases_up;
        assert_eq!(
            level.acquisitions, decided,
            "{label}: level {}",
            level.level
        );
    }
    let root_acquisitions = stats[root - 1].releases_up;
    assert_eq!(stats[root].acquisitions, root_acquisitions, "{label}: root");
    let sections = (cpus.len() * ITERS) as u64;
    assert_eq!(
        counter.load(Ordering::Relaxed) as u64,
        sections,
        "{label}: sections"
    );
    assert_eq!(
        stats[0].acquisitions, sections,
        "{label}: total acquisitions"
    );
}

fn main() {
    // Same cache pair: contention resolvable at level 0.
    run_on(&[0, 0, 1, 1], "packed into one cache cohort");
    // One thread per NUMA quad corner: every hand-off crosses levels.
    run_on(&[0, 3, 4, 7], "spread across cohorts");
}
