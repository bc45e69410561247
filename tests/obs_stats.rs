//! Telemetry vs. oracle cross-check: runs the schedule-fuzzing stress
//! oracle over 2- and 3-level compositions with the `obs` feature on,
//! then holds the lock's own counters to the oracle's externally
//! counted totals via `clof-testkit`'s quiescent-counter invariants
//! (`assert_stats_consistent`), plus the histogram and event-ring
//! properties the counters imply:
//!
//! * acquire-latency histogram sample counts equal per-level acquires;
//! * the hold-time histogram counts every critical section once;
//! * drained pass events have monotone timestamps, name only non-root
//!   levels, and their total equals the non-root release decisions.
//!
//! Run with `cargo test --features obs --test obs_stats`.

#![cfg(feature = "obs")]

use std::sync::Arc;

use clof::obs::{render_json, render_prometheus, LevelSnapshot, LockSnapshot};
use clof::{ClofParams, DynClofLock, LockKind};
use clof_testkit::strategies::build_regular;
use clof_testkit::{
    assert_stats_consistent, fuzz_seeds, seed_batch, LevelTally, OracleHandle, StressOptions,
};

/// Copies the telemetry snapshot into the testkit's plain-data tallies.
fn tallies(levels: &[LevelSnapshot]) -> Vec<LevelTally> {
    levels
        .iter()
        .map(|l| LevelTally {
            acquires: l.acquires,
            contended_acquires: l.contended_acquires,
            passes_taken: l.passes_taken,
            passes_declined: l.passes_declined,
            keep_local_resets: l.keep_local_resets,
            hist_count: l.acquire_ns.count,
        })
        .collect()
}

/// Fuzzes `kinds` over a regular hierarchy of `shape` and returns the
/// telemetry snapshot with the oracle's external acquisition total.
fn stressed_snapshot(
    kinds: &[LockKind],
    shape: &[usize],
    threads: usize,
    seeds: usize,
    iters: u64,
) -> (LockSnapshot, u64) {
    let hierarchy = build_regular(shape);
    let lock = Arc::new(
        DynClofLock::build_with(&hierarchy, kinds, ClofParams::default(), true)
            .expect("composition builds"),
    );
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
    let opts = StressOptions {
        threads,
        iters,
        label: format!("obs:{}", lock.name()),
        ..StressOptions::default()
    };
    let seeds = seed_batch(0x0B50_57A7 ^ kinds.len() as u64, seeds);
    let shared = Arc::clone(&lock);
    let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| shared.handle(cpus[tid]));
    outcome.assert_passed();
    (lock.obs_snapshot(), outcome.total_acquisitions)
}

#[test]
fn two_level_counters_match_oracle() {
    let (snap, total) = stressed_snapshot(
        &[LockKind::Ticket, LockKind::Ticket],
        &[4],
        4,
        4,
        40,
    );
    assert_eq!(snap.levels.len(), 2);
    assert!(total > 0);
    assert_stats_consistent(&tallies(&snap.levels), total);
    assert_eq!(
        snap.hold_ns.count, total,
        "hold-time histogram must count every critical section once"
    );
}

#[test]
fn three_level_mixed_counters_match_oracle() {
    let (snap, total) = stressed_snapshot(
        &[LockKind::Ticket, LockKind::Mcs, LockKind::Clh],
        &[2, 4],
        8,
        2,
        30,
    );
    assert_eq!(snap.levels.len(), 3);
    assert_stats_consistent(&tallies(&snap.levels), total);
    // tkt and mcs publish a waiter hint, so every release decision at
    // their (non-root) levels resolves through the hint fast path.
    for level in &snap.levels[..2] {
        assert_eq!(
            level.hint_fast_hits, level.acquires,
            "level {}: hinting low lock must skip the read-indicator on every release",
            level.level
        );
    }
}

#[test]
fn hintless_level_never_records_hint_hits() {
    let (snap, total) = stressed_snapshot(
        &[LockKind::Ttas, LockKind::Ticket],
        &[4],
        4,
        2,
        30,
    );
    assert_stats_consistent(&tallies(&snap.levels), total);
    assert_eq!(
        snap.levels[0].hint_fast_hits, 0,
        "ttas has no waiter hint; its level must fall back to the read-indicator"
    );
}

#[test]
fn snapshot_rendering_is_non_destructive() {
    // `obs_snapshot` reads the event ring without consuming it, so two
    // back-to-back snapshots at quiescence — and every export rendered
    // from them — are identical. Guards against a regression to the old
    // drain-on-read behaviour, where the first observer stole the trace.
    let hierarchy = build_regular(&[4]);
    let lock = Arc::new(
        DynClofLock::build_with(
            &hierarchy,
            &[LockKind::Ticket, LockKind::Ticket],
            ClofParams::default(),
            true,
        )
        .expect("composition builds"),
    );
    let opts = StressOptions {
        threads: 4,
        iters: 40,
        label: format!("obs-rerender:{}", lock.name()),
        ..StressOptions::default()
    };
    let seeds = seed_batch(0x5EED_0B5E, 2);
    let shared = Arc::clone(&lock);
    let cpus: Vec<usize> = (0..4).map(|t| t * hierarchy.ncpus() / 4).collect();
    fuzz_seeds(&opts, &seeds, |_seed, tid| shared.handle(cpus[tid])).assert_passed();

    let first = lock.obs_snapshot();
    let second = lock.obs_snapshot();
    assert_eq!(first.events.len(), second.events.len());
    assert_eq!(first.events_recorded, second.events_recorded);
    assert_eq!(first.events_dropped, second.events_dropped);
    assert_eq!(render_json(&first), render_json(&second));
    assert_eq!(render_prometheus(&first), render_prometheus(&second));
    assert_eq!(first.to_string(), second.to_string());
}

#[test]
fn ring_events_are_monotone_and_name_non_root_levels() {
    let (snap, _total) = stressed_snapshot(
        &[LockKind::Ticket, LockKind::Mcs, LockKind::Ticket],
        &[2, 4],
        8,
        2,
        30,
    );
    assert!(snap.events_recorded > 0, "contended run must log pass events");
    assert!(!snap.events.is_empty());
    // Every pass event is a non-root release decision, so the ring total
    // equals the non-root decision count.
    let decisions: u64 = snap.levels[..snap.levels.len() - 1]
        .iter()
        .map(|l| l.passes_taken + l.passes_declined)
        .sum();
    assert_eq!(snap.events_recorded, decisions);
    let root = (snap.levels.len() - 1) as u8;
    let mut prev = 0u64;
    for event in &snap.events {
        assert!(
            event.timestamp_ns >= prev,
            "drained events must be timestamp-ordered"
        );
        prev = event.timestamp_ns;
        assert!(event.level < root, "the root level takes no pass decision");
    }
    // The drain keeps at most the ring capacity; nothing is double-counted.
    assert!(snap.events.len() as u64 <= snap.events_recorded);
    assert_eq!(
        snap.events_dropped,
        snap.events_recorded - snap.events.len() as u64
    );
}

/// A lock user that keeps replacing its handle between critical
/// sections: every fifth acquire goes through a brand-new `DynHandle`
/// (alternating dispatch tiers), so the lock's telemetry is spread over
/// many short-lived shards that retire while others are recording.
struct FreshHandles {
    lock: Arc<DynClofLock>,
    cpu: usize,
    handle: clof::DynHandle,
    ops: u32,
}

/// A lock user whose placement keeps changing: every eighth acquire the
/// thread "migrates" between two leaf cohorts, so its `AutoHandle`
/// re-homes (drops its inner handle and takes a new one).
struct Roaming {
    handle: clof::dynlock::AutoHandle,
    cpus: [usize; 2],
    ops: u32,
}

enum Churn {
    Fresh(FreshHandles),
    Roaming(Roaming),
}

impl OracleHandle for Churn {
    fn acquire(&mut self) {
        match self {
            Churn::Fresh(f) => {
                f.ops += 1;
                if f.ops % 5 == 0 {
                    f.handle = if f.ops % 2 == 0 {
                        f.lock.handle(f.cpu)
                    } else {
                        f.lock.handle_generic(f.cpu)
                    };
                }
                f.handle.acquire();
            }
            Churn::Roaming(r) => {
                r.ops += 1;
                if r.ops % 8 == 0 {
                    clof::cpu::testkit::set_override(Some(r.cpus[(r.ops / 8) as usize % 2]));
                    clof::cpu::testkit::flush();
                }
                r.handle.acquire();
            }
        }
    }

    fn release(&mut self) {
        match self {
            Churn::Fresh(f) => f.handle.release(),
            Churn::Roaming(r) => r.handle.release(),
        }
    }
}

#[test]
fn handle_churn_loses_and_double_counts_nothing() {
    let hierarchy = build_regular(&[2, 4]);
    let lock = Arc::new(
        DynClofLock::build_with(
            &hierarchy,
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
            ClofParams::default(),
            true,
        )
        .expect("composition builds"),
    );
    let threads = 4;
    let opts = StressOptions {
        threads,
        iters: 120,
        label: format!("obs-churn:{}", lock.name()),
        ..StressOptions::default()
    };
    let seeds = seed_batch(0xC4_0B5E, 3);
    let shared = Arc::clone(&lock);
    let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| {
        let cpu = tid * 2;
        if tid % 2 == 0 {
            Churn::Fresh(FreshHandles {
                lock: Arc::clone(&shared),
                cpu,
                handle: shared.handle(cpu),
                ops: 0,
            })
        } else {
            clof::cpu::testkit::set_override(Some(cpu));
            clof::cpu::testkit::flush();
            Churn::Roaming(Roaming {
                handle: shared.auto_handle(),
                cpus: [7 - cpu, cpu],
                ops: 0,
            })
        }
    });
    outcome.assert_passed();
    let total = outcome.total_acquisitions;

    // Every handle is gone by now: all of this comes from retired shards.
    let snap = lock.obs_snapshot();
    assert_stats_consistent(&tallies(&snap.levels), total);
    assert_eq!(snap.hold_ns.count, total);
    for level in &snap.levels {
        assert_eq!(level.acquire_ns.count, level.acquires, "level {}", level.level);
    }
    let decisions: u64 = snap
        .levels
        .iter()
        .map(|l| l.passes_taken + l.passes_declined)
        .sum();
    assert_eq!(snap.events_recorded, decisions);
    assert_eq!(
        snap.events_dropped,
        snap.events_recorded - snap.events.len() as u64
    );
    assert!(
        snap.events_dropped > 0,
        "the run must overflow what a lock keeps of retired rings"
    );
    assert!(snap
        .events
        .windows(2)
        .all(|w| w[0].timestamp_ns <= w[1].timestamp_ns));
}
