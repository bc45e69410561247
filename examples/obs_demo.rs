//! Lock telemetry demo: a 3-level composed lock hammered by 8 threads
//! with the causal span tracer on, live windowed rates while it runs,
//! then counters, latency distributions, the trace analysis, all three
//! export formats, a Perfetto-loadable trace file, the contention
//! profiler (site registry, wait/hold attribution and folded stacks).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --features obs --example obs_demo
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clof::obs::{
    analyze, profile, registry, render_chrome_trace, render_folded, render_json, render_prometheus,
    trace, Sampler, SpanKind,
};
use clof::{ClofParams, DynClofLock, LockKind};
use clof_topology::platforms;

fn main() {
    // The "tiny" machine: 8 CPUs, 2 cores per cache group, 2 groups per
    // NUMA node — a 3-level hierarchy. One thread per CPU.
    let hierarchy = platforms::tiny();
    let lock = Arc::new(
        DynClofLock::build_with(
            &hierarchy,
            &[LockKind::Ticket, LockKind::Mcs, LockKind::Ticket],
            // A small keep_local threshold so the demo shows resets too.
            ClofParams {
                keep_local_threshold: 16,
            },
            false,
        )
        .expect("tiny hierarchy accepts 3-level compositions"),
    );

    // Record causal spans for the whole run. The per-thread buffers are
    // sized small on purpose so the demo also shows what a truncated
    // trace looks like in the analysis.
    trace::enable(8192);

    const ITERS: u64 = 20_000;
    let shared = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    for cpu in 0..hierarchy.ncpus() {
        let lock = Arc::clone(&lock);
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            let mut handle = lock.handle(cpu);
            for _ in 0..ITERS {
                handle.acquire();
                // A tiny critical section so hold-time has something to
                // measure.
                let v = shared.load(Ordering::Relaxed);
                shared.store(v + 1, Ordering::Relaxed);
                handle.release();
            }
        }));
    }

    // Live windowed telemetry while the hammer runs: cumulative
    // snapshots in, per-window rates out.
    println!("=== live windowed rates (100 ms cadence) ===");
    let mut sampler = Sampler::new();
    sampler.tick(lock.obs_snapshot());
    while threads.iter().any(|t| !t.is_finished()) {
        std::thread::sleep(Duration::from_millis(100));
        if let Some(rates) = sampler.tick(lock.obs_snapshot()) {
            println!("{rates}");
        }
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        shared.load(Ordering::Relaxed),
        ITERS * hierarchy.ncpus() as u64
    );
    println!();

    trace::disable();
    let span_trace = trace::snapshot();
    let snap = lock.obs_snapshot();

    println!("=== human summary ===");
    println!("{snap}");
    println!();

    println!("=== per-level detail ===");
    for level in &snap.levels {
        println!(
            "level {}: pass rate {:.1}% ({} passes / {} decisions), \
             keep_local resets {}, acquire p50 {} ns p99 {} ns",
            level.level,
            100.0 * level.pass_rate(),
            level.passes_taken,
            level.passes_taken + level.passes_declined,
            level.keep_local_resets,
            level.acquire_ns.p50(),
            level.acquire_ns.p99(),
        );
    }
    println!();

    println!("=== causal span trace ===");
    let trace_path = std::env::temp_dir().join("clof_obs_demo_trace.json");
    std::fs::write(&trace_path, render_chrome_trace(&span_trace)).expect("write trace file");
    println!(
        "{} span events recorded, {} dropped; Perfetto/chrome://tracing JSON at {}",
        span_trace.events.len(),
        span_trace.dropped,
        trace_path.display()
    );
    let decisions: Vec<_> = span_trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Pass | SpanKind::ReleaseUp { .. }))
        .collect();
    for e in &decisions[decisions.len().saturating_sub(5)..] {
        println!(
            "  t+{:>12} ns  level {}  thread {:>2}  {:?}",
            e.start_ns, e.level, e.thread, e.kind
        );
    }
    print!("{}", analyze(&span_trace).render());
    println!();

    println!("=== JSON ===");
    println!("{}", render_json(&snap));
    println!();

    println!("=== Prometheus ===");
    print!("{}", render_prometheus(&snap));
    println!();

    // The contention profiler: the same run, now attributed to the
    // process-global site registry — who is this lock, where was it
    // built, where did the waiting happen inside it.
    println!("=== contention profiler ===");
    for site in registry::global().sites() {
        println!(
            "  site {:>2}  {:<16} {:<12} gen {}  {}",
            site.id,
            site.label,
            site.shape,
            site.generation,
            site.location()
        );
    }
    let prof = profile::global().snapshot();
    for site in prof.top_k(3) {
        println!(
            "  top: {} — {} acquires, {} waited (mean {} ns), mean hold {} ns",
            site.label,
            site.acquires,
            site.waits,
            site.wait_ns.checked_div(site.waits).unwrap_or(0),
            site.hold_ns.checked_div(site.holds).unwrap_or(0),
        );
    }
    println!("  folded stacks (flamegraph.pl-ready, weight = wait ns):");
    for line in render_folded(&prof).lines().take(6) {
        println!("    {line}");
    }
}
