//! Trace-vs-oracle cross-check: replays the schedule-fuzzing stress
//! oracle with the causal span tracer on, then holds the reconstructed
//! trace to what the oracle proved externally:
//!
//! * the ownership timeline (hold spans) is a total order — mutual
//!   exclusion as seen *by the trace*, checked with the testkit's
//!   plain-number `assert_total_order`;
//! * one hold span per oracle-counted acquisition (complete traces);
//! * pass-chain lengths respect the keep-local bound H on a 2-level
//!   stress run (the §4.1 starvation-freedom argument, observed), and
//!   the analyzer reports a bound that a live run's chains exceed;
//! * the traced pass and release-up decisions are exactly the level
//!   step's counts (`stats()`), and none names the root;
//! * the holds of a pass chain tile the timeline: ownership changes
//!   hands at the releaser's stamp (DESIGN §8).
//!
//! The tracer is process-global, so these tests serialize behind a
//! local mutex. Run with `cargo test --features obs --test trace_oracle`.

#![cfg(feature = "obs")]

use std::sync::{Arc, Mutex};

use clof::obs::{analyze, ownership_timeline, trace, SpanKind, Trace};
use clof::{ClofParams, DynClofLock, LockKind};
use clof_testkit::strategies::build_regular;
use clof_testkit::{assert_total_order, fuzz_seeds, seed_batch, StressOptions};
use clof_topology::platforms;

/// The tracer is process-global; tests take it one at a time.
static TRACER: Mutex<()> = Mutex::new(());

/// Fuzzes `kinds` over a regular hierarchy of `shape` with tracing on;
/// returns the recorded trace, the oracle's acquisition total and the
/// lock.
fn traced_stress(
    kinds: &[LockKind],
    shape: &[usize],
    threads: usize,
    seeds: usize,
    iters: u64,
    threshold: u32,
) -> (Trace, u64, Arc<DynClofLock>) {
    let hierarchy = build_regular(shape);
    let params = ClofParams {
        keep_local_threshold: threshold,
    };
    let lock = Arc::new(
        DynClofLock::build_with(&hierarchy, kinds, params, true).expect("composition builds"),
    );
    let n = hierarchy.ncpus();
    let cpus: Vec<usize> = (0..threads).map(|t| t * n / threads).collect();
    let opts = StressOptions {
        threads,
        iters,
        label: format!("trace:{}", lock.name()),
        ..StressOptions::default()
    };
    let seeds = seed_batch(0x7AC3_0AC1 ^ kinds.len() as u64, seeds);
    trace::enable(1 << 16);
    let shared = Arc::clone(&lock);
    let outcome = fuzz_seeds(&opts, &seeds, |_seed, tid| shared.handle(cpus[tid]));
    trace::disable();
    outcome.assert_passed();
    (trace::snapshot(), outcome.total_acquisitions, lock)
}

/// Two threads of one leaf cohort of `tiny` hand a default-H (128)
/// `mcs-clh-tkt` lock back and forth `iters` times each with tracing
/// on; returns the recorded trace. Nearly every acquire inherits the
/// tree at the leaf from the other thread's pass.
fn traced_leaf_ping_pong(iters: usize) -> Trace {
    let lock = Arc::new(
        DynClofLock::build(
            &platforms::tiny(),
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        )
        .expect("composition builds"),
    );
    trace::enable(1 << 16);
    let threads: Vec<_> = (0..2)
        .map(|cpu| {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let mut handle = lock.handle(cpu);
                for _ in 0..iters {
                    handle.acquire();
                    handle.release();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    trace::disable();
    trace::snapshot()
}

#[test]
fn ownership_timeline_is_a_total_order_matching_the_oracle() {
    let _tracer = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    let (recorded, total, _) = traced_stress(
        &[LockKind::Ticket, LockKind::Mcs, LockKind::Ticket],
        &[2, 4],
        4,
        3,
        40,
        128,
    );
    assert!(
        recorded.is_complete(),
        "buffers must be sized to capture the whole run ({} dropped)",
        recorded.dropped
    );
    let timeline = ownership_timeline(&recorded).expect("hold spans must not overlap");
    assert_eq!(
        timeline.len() as u64,
        total,
        "one hold span per oracle-counted acquisition"
    );
    let intervals: Vec<(u64, u64)> = timeline.iter().map(|&(s, e, _)| (s, e)).collect();
    assert_total_order(&intervals);
}

#[test]
fn pass_chains_respect_the_keep_local_bound() {
    let _tracer = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    // The acceptance setup: a 2-level stress run against the default
    // H = 128, plus a tighter run where H actually binds.
    let (recorded, _, _) =
        traced_stress(&[LockKind::Ticket, LockKind::Ticket], &[4], 4, 2, 150, 128);
    assert!(recorded.is_complete(), "{} dropped", recorded.dropped);
    let analysis = analyze(&recorded);
    analysis
        .check_chain_bound(128)
        .expect("H = 128 bound must hold on a complete trace");

    let (tight, _, _) = traced_stress(&[LockKind::Ticket, LockKind::Ticket], &[4], 4, 2, 150, 4);
    assert!(tight.is_complete(), "{} dropped", tight.dropped);
    let tight_analysis = analyze(&tight);
    tight_analysis
        .check_chain_bound(4)
        .expect("H = 4 bound must hold on a complete trace");
    assert!(
        tight_analysis.max_chain() <= 4,
        "max chain {} exceeds H = 4",
        tight_analysis.max_chain()
    );
}

/// The analyzer is the check of the `keep_local` bound H, so it must
/// catch a violation on a real run, not only pass clean ones: a live
/// lock built with H = 128 forms leaf pass chains far longer than 4, so
/// its complete trace violates H = 4 at the leaf and satisfies H = 128.
#[test]
fn the_analyzer_reports_a_chain_bound_that_a_live_run_exceeds() {
    let _tracer = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    let recorded = traced_leaf_ping_pong(3_000);
    assert!(recorded.is_complete(), "{} dropped", recorded.dropped);
    let analysis = analyze(&recorded);
    let violation = analysis
        .check_chain_bound(4)
        .expect_err("leaf pass chains of a default-H lock exceed 4");
    assert!(
        violation.starts_with("level 0:"),
        "the violation must name the leaf level: {violation}"
    );
    analysis
        .check_chain_bound(128)
        .expect("the lock's own H = 128 bound holds on a complete trace");
}

/// The tracer is the one record of individual hand-off decisions: on a
/// complete trace of a 3-level stress run it holds exactly one `Pass`
/// span per pass and one `ReleaseUp` span per release up that the level
/// step counted, per non-root level, and no decision at the root.
#[test]
fn traced_decisions_equal_the_level_step_counts() {
    let _tracer = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    let (recorded, total, lock) = traced_stress(
        &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        &[2, 4],
        8,
        2,
        40,
        4,
    );
    assert!(recorded.is_complete(), "{} dropped", recorded.dropped);
    let stats = lock.stats();
    assert_eq!(stats.len(), 3);
    assert_eq!(stats[0].acquisitions, total);
    let root = stats.len() - 1;
    let count = |level: usize, kind: fn(&SpanKind) -> bool| {
        let spans = recorded.events.iter().filter(|e| e.level as usize == level);
        spans.filter(|e| kind(&e.kind)).count() as u64
    };
    let pass: fn(&SpanKind) -> bool = |k| matches!(k, SpanKind::Pass);
    let up: fn(&SpanKind) -> bool = |k| matches!(k, SpanKind::ReleaseUp { .. });
    for s in &stats[..root] {
        assert_eq!(count(s.level, pass), s.passes, "level {} passes", s.level);
        assert_eq!(
            count(s.level, up),
            s.releases_up,
            "level {} releases up",
            s.level
        );
    }
    assert!(stats[0].passes > 0 && stats[1].releases_up > 0, "{stats:?}");
    assert_eq!(
        count(root, pass) + count(root, up),
        0,
        "the root decides nothing"
    );
}

#[test]
fn traced_wait_spans_cover_every_acquisition() {
    let _tracer = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    let (recorded, total, _) =
        traced_stress(&[LockKind::Ticket, LockKind::Clh], &[4], 4, 2, 60, 128);
    assert!(recorded.is_complete(), "{} dropped", recorded.dropped);
    let analysis = analyze(&recorded);
    // Level-0 wait spans are the innermost low-lock acquisitions: one
    // per lock round-trip, matching the oracle's external count.
    let l0 = analysis
        .levels
        .iter()
        .find(|l| l.level == 0)
        .expect("level 0 waits recorded");
    assert_eq!(l0.spans, total, "one L0 wait span per acquisition");
    assert_eq!(analysis.holds, total, "one hold span per acquisition");
}

#[test]
fn pass_chain_holds_start_at_the_hand_off_stamp() {
    let _tracer = TRACER.lock().unwrap_or_else(|p| p.into_inner());
    const ITERS: usize = 3_000;
    let recorded = traced_leaf_ping_pong(ITERS);
    assert!(recorded.is_complete(), "{} dropped", recorded.dropped);
    let timeline = ownership_timeline(&recorded).expect("hold spans must not overlap");
    assert_eq!(timeline.len(), 2 * ITERS);

    // Each thread's leaf waits and holds alternate: pair them in order.
    let mut threads: Vec<u32> = timeline.iter().map(|h| h.2).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads.len(), 2);
    let mut checked = 0;
    for thread in threads {
        let leaf_waits: Vec<_> = recorded
            .events
            .iter()
            .filter(|e| e.thread == thread && e.level == 0)
            .filter(|e| matches!(e.kind, SpanKind::Wait { .. }))
            .collect();
        let holds: Vec<usize> = (0..timeline.len())
            .filter(|&i| timeline[i].2 == thread)
            .collect();
        assert_eq!(leaf_waits.len(), holds.len(), "one leaf wait per hold");
        for (wait, &i) in leaf_waits.iter().zip(&holds) {
            if wait.kind != (SpanKind::Wait { inherited: true }) {
                continue;
            }
            let start = timeline[i].0;
            assert_eq!(
                start,
                timeline[i - 1].1.max(wait.start_ns),
                "an inherited hold starts at max(previous hold's end, own entry)"
            );
            assert_eq!(
                wait.end_ns, start,
                "the leaf wait ends where the hold starts"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= ITERS / 2,
        "only {checked} of {} acquires inherited at the leaf",
        2 * ITERS
    );
}
