//! End-to-end scrape tests for the telemetry server: a real TCP client
//! against an ephemeral-port server, checking that /metrics and
//! /snapshot render the same counters, that /health flips on a stall
//! finding, and that the server accounts for its own
//! scrape cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clof_obs::{
    default_rules, http_get, serve, GraphFinding, LevelSnapshot, LockSnapshot, LogHistogram,
    ServeConfig,
};

/// A snapshot source backed by one shared counter, so the test can
/// advance the "lock" between scrapes and freeze it for comparisons.
fn counter_backed(acquires: Arc<AtomicU64>) -> impl Fn() -> LockSnapshot + Send + Sync {
    move || {
        let n = acquires.load(Ordering::SeqCst);
        let hist = LogHistogram::new();
        for _ in 0..n.min(64) {
            hist.record(250);
        }
        LockSnapshot {
            name: "e2e-lock".into(),
            levels: vec![LevelSnapshot {
                level: 0,
                acquires: n,
                contended_acquires: n / 2,
                passes_taken: n / 3,
                passes_declined: n / 7,
                keep_local_resets: 0,
                hint_fast_hits: 0,
                acquire_ns: hist.snapshot(),
            }],
            hold_ns: hist.snapshot(),
            events_recorded: n,
            events_dropped: 0,
            events: Vec::new(),
        }
    }
}

fn start(acquires: Arc<AtomicU64>) -> clof_obs::ServerHandle {
    serve(
        "127.0.0.1:0",
        Arc::new(counter_backed(acquires)),
        ServeConfig {
            rules: default_rules(1_000_000, 1_000_000),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Pulls the value of `metric{...}` from a Prometheus text body.
fn prom_value(body: &str, metric_prefix: &str) -> Option<u64> {
    body.lines()
        .find(|l| l.starts_with(metric_prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Pulls `"field":<n>` out of a JSON body without a parser.
fn json_value(body: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let at = body.find(&key)? + key.len();
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn metrics_and_snapshot_agree_on_counter_totals() {
    let acquires = Arc::new(AtomicU64::new(0));
    let server = start(Arc::clone(&acquires));

    // Advance the lock, then freeze it: both endpoints must now render
    // the same totals because they share the snapshot closure.
    acquires.store(4242, Ordering::SeqCst);
    let (s, metrics) = http_get(server.addr(), "/metrics").expect("scrape /metrics");
    assert_eq!(s, 200);
    let (s, snapshot) = http_get(server.addr(), "/snapshot").expect("scrape /snapshot");
    assert_eq!(s, 200);

    let prom = prom_value(&metrics, "clof_acquires_total{lock=\"e2e-lock\",level=\"0\"}")
        .expect("acquires series in /metrics");
    let json = json_value(&snapshot, "acquires").expect("acquires field in /snapshot");
    assert_eq!(prom, 4242, "/metrics renders the live counter");
    assert_eq!(json, 4242, "/snapshot renders the live counter");

    // The JSON side also carries the audit ring and the server's own
    // accounting, which the Prometheus side mirrors as series.
    assert!(snapshot.contains("\"audit\":"), "{snapshot}");
    assert!(snapshot.contains("\"server\":"), "{snapshot}");
    assert!(
        metrics.contains("clof_obs_scrape_duration_ns"),
        "self-accounting series missing: {metrics}"
    );
    assert!(metrics.contains("clof_obs_build_info{version="), "{metrics}");
}

#[test]
fn health_flips_on_stall_and_scrapes_are_self_accounted() {
    let acquires = Arc::new(AtomicU64::new(7));
    let server = start(Arc::clone(&acquires));

    let (s, body) = http_get(server.addr(), "/health").expect("healthy scrape");
    assert_eq!((s, body.as_str()), (200, "ok\n"));

    // A stall finding must flip /health to 503 and surface on /alerts
    // as its pseudo-rule, with the watchdog's diagnostic context.
    server.note_finding(
        &GraphFinding::Stall {
            thread: 11,
            waited_ns: 750_000_000,
            epoch: 3,
            holders: vec![(2, 750_000_000)],
            waiting: 4,
        },
        "e2e stall",
    );
    let (s, body) = http_get(server.addr(), "/health").expect("stalled scrape");
    assert_eq!((s, body.as_str()), (503, "stalled\n"));
    let (_, alerts) = http_get(server.addr(), "/alerts").expect("alerts scrape");
    assert!(alerts.contains("waitgraph-stall"), "{alerts}");
    assert!(alerts.contains("e2e stall"), "{alerts}");

    // Every hit so far is visible in the server's own accounting: the
    // next /metrics body reports the scrapes that preceded it, and the
    // request counter covers all of them.
    let before = server.requests();
    assert_eq!(before, 3);
    let (_, metrics) = http_get(server.addr(), "/metrics").expect("accounting scrape");
    let health_hits = prom_value(&metrics, "clof_obs_scrapes_total{endpoint=\"health\"}")
        .expect("per-endpoint hit counter");
    assert_eq!(health_hits, 2, "both /health probes are accounted");
    assert_eq!(server.requests(), 4);
}
