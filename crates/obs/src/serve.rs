//! Zero-dependency telemetry server: scrape what the lock is doing.
//!
//! All the rich in-process telemetry — counters, histograms, windowed
//! rates, SLO alerts, the decision audit ring — is worthless to an
//! operator who cannot see it while the workload runs. This module is
//! the serving layer: a std-only blocking HTTP/1.1 server (one
//! nonblocking [`TcpListener`] accept loop, a bounded worker pool fed by
//! a [`sync_channel`], a graceful shutdown flag) exposing
//!
//! | endpoint    | body                                                    |
//! |-------------|---------------------------------------------------------|
//! | `/metrics`  | Prometheus text format ([`render_prometheus`]) plus the |
//! |             | server's own cost series (`clof_obs_scrape_*`) and the  |
//! |             | audit-ring counters                                     |
//! | `/snapshot` | JSON: the full [`LockSnapshot`] ([`render_json`]), the  |
//! |             | audit-ring tail, current alerts, server self-accounting |
//! | `/health`   | `200 ok` / `503 stalled` — flips on any stall, deadlock |
//! |             | or inversion finding fed in                             |
//! | `/alerts`   | JSON array of [`AlertStatus`](crate::AlertStatus) from  |
//! |             | the SLO evaluator                                       |
//! | `/profile`  | JSON: the contention profiler's per-site wait/hold      |
//! |             | attribution + live waits-for cycles and the findings    |
//! |             | currently alerting                                      |
//! |             | ([`crate::profile::render_profile_json`]);              |
//! |             | `?format=folded` returns bare folded stacks             |
//!
//! HTTP/1.1 is deliberately minimal: `GET` only, `Connection: close`,
//! no keep-alive, no TLS — this is an intra-host scrape endpoint, not a
//! web server. Overload degrades loudly instead of queueing unboundedly:
//! when the worker queue is full the accept loop answers `503` inline.
//!
//! **Self-accounting**: observability that cannot state its own cost is
//! asking to be trusted blindly. Every scrape's render time lands in a
//! [`LogHistogram`] exported as `clof_obs_scrape_duration_ns` on the
//! very endpoint it measures, next to per-endpoint request counters and
//! the audit/event ring drop counters.
//!
//! Every response carries `Server: clof-obs-serve` — that literal only
//! exists in this obs-gated crate, so its absence from a default build
//! binary proves no server code was compiled in (checked by ci.sh).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::{prom_histogram, render_json, render_prometheus};
use crate::slo::{render_alerts_json, SloEvaluator, SloRule};
use crate::{audit, now_ns, LockSnapshot, LogHistogram};

/// The marker literal stamped into every response's `Server:` header.
/// ci.sh greps the default binary for its absence (zero-cost proof) and
/// the obs binary for its presence.
pub const SERVER_MARKER: &str = "clof-obs-serve";

/// Produces the cumulative snapshot a scrape should render. Called once
/// per `/metrics` / `/snapshot` request, on a worker thread.
pub type SnapshotFn = Arc<dyn Fn() -> LockSnapshot + Send + Sync>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling requests (≥ 1).
    pub workers: usize,
    /// Accepted-connection queue depth; overflow answers `503`.
    pub queue_depth: usize,
    /// Per-connection read timeout (slowloris guard).
    pub read_timeout: Duration,
    /// SLO rules the embedded evaluator starts with.
    pub rules: Vec<SloRule>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            read_timeout: Duration::from_secs(2),
            rules: Vec::new(),
        }
    }
}

struct Shared {
    snapshot: SnapshotFn,
    slo: Mutex<SloEvaluator>,
    healthy: AtomicBool,
    shutdown: AtomicBool,
    scrape_ns: LogHistogram,
    hits_metrics: AtomicU64,
    hits_snapshot: AtomicU64,
    hits_health: AtomicU64,
    hits_alerts: AtomicU64,
    hits_profile: AtomicU64,
    hits_other: AtomicU64,
    rejected: AtomicU64,
}

impl Shared {
    fn requests_total(&self) -> u64 {
        self.hits_metrics.load(Ordering::Relaxed)
            + self.hits_snapshot.load(Ordering::Relaxed)
            + self.hits_health.load(Ordering::Relaxed)
            + self.hits_alerts.load(Ordering::Relaxed)
            + self.hits_profile.load(Ordering::Relaxed)
            + self.hits_other.load(Ordering::Relaxed)
    }
}

/// A running telemetry server. Dropping the handle shuts it down
/// gracefully (flag, join accept loop, drain workers).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("requests", &self.shared.requests_total())
            .finish()
    }
}

impl ServerHandle {
    /// The actually-bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://<addr>` for log lines.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Marks the process healthy/stalled; `/health` answers `503` while
    /// unhealthy (or while a finding fed to [`note_finding`](Self::note_finding)
    /// is alerting).
    pub fn set_healthy(&self, healthy: bool) {
        self.shared.healthy.store(healthy, Ordering::Relaxed);
    }

    /// Current health flag (also considers any firing alert).
    pub fn healthy(&self) -> bool {
        self.shared.healthy.load(Ordering::Relaxed)
            && !self.shared.slo.lock().map(|s| s.any_firing()).unwrap_or(false)
    }

    /// Feeds one telemetry window into the embedded SLO evaluator (from
    /// whatever sampling loop the caller runs).
    pub fn observe_window(&self, rates: &crate::WindowRates) {
        if let Ok(mut slo) = self.shared.slo.lock() {
            slo.observe(rates);
        }
    }

    /// Feeds a stuck-thread finding (stall / deadlock / inversion) with
    /// its diagnostic context — wire a [`Watchdog`](crate::Watchdog)'s
    /// callback here: fires a `waitgraph-*` alert, flips `/health` and
    /// lists the finding on `/profile`.
    pub fn note_finding(&self, finding: &crate::GraphFinding, context: &str) {
        if let Ok(mut slo) = self.shared.slo.lock() {
            slo.note_finding(finding, context);
        }
    }

    /// Total requests served so far (all endpoints).
    pub fn requests(&self) -> u64 {
        self.shared.requests_total()
    }

    /// Stops accepting, drains workers, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
        for j in self.workers.drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the telemetry server on `addr` (use `127.0.0.1:0` for an
/// ephemeral port; read the real one back from
/// [`ServerHandle::addr`]). Returns immediately; requests are served on
/// background threads until the handle is dropped or
/// [`shutdown`](ServerHandle::shutdown).
pub fn serve(addr: &str, snapshot: SnapshotFn, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;

    let shared = Arc::new(Shared {
        snapshot,
        slo: Mutex::new(SloEvaluator::new(config.rules.clone())),
        healthy: AtomicBool::new(true),
        shutdown: AtomicBool::new(false),
        scrape_ns: LogHistogram::new(),
        hits_metrics: AtomicU64::new(0),
        hits_snapshot: AtomicU64::new(0),
        hits_health: AtomicU64::new(0),
        hits_alerts: AtomicU64::new(0),
        hits_profile: AtomicU64::new(0),
        hits_other: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
    });

    let (tx, rx) = sync_channel::<TcpStream>(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::new();
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&shared);
        let read_timeout = config.read_timeout;
        workers.push(
            std::thread::Builder::new()
                .name(format!("clof-obs-serve-{i}"))
                .spawn(move || worker_loop(&rx, &shared, read_timeout))
                .expect("spawn obs worker"),
        );
    }

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("clof-obs-accept".to_string())
        .spawn(move || {
            while !accept_shared.shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            accept_shared.rejected.fetch_add(1, Ordering::Relaxed);
                            reject_overloaded(stream);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    },
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            // tx drops here; workers see Disconnected and exit.
        })
        .expect("spawn obs accept loop");

    Ok(ServerHandle {
        addr: local,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Arc<Shared>, read_timeout: Duration) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            match guard.recv_timeout(Duration::from_millis(100)) {
                Ok(s) => Some(s),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        match stream {
            Some(s) => handle_connection(s, shared, read_timeout),
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>, read_timeout: Duration) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let path = match read_request_path(&mut stream) {
        Some(p) => p,
        None => {
            let _ = write_response(&mut stream, 400, "text/plain", "bad request\n");
            return;
        }
    };
    let t0 = now_ns();
    let (status, ctype, body) = route(&path, shared);
    shared.scrape_ns.record(now_ns().saturating_sub(t0));
    let _ = write_response(&mut stream, status, ctype, &body);
}

/// Routes one request path to `(status, content-type, body)`. The
/// render time (not the socket time) is what lands in the duration
/// histogram — it is the part proportional to telemetry volume.
fn route(path: &str, shared: &Arc<Shared>) -> (u16, &'static str, String) {
    // Strip any query string; scrapers love cache-busters. `/profile`
    // honors one query: `format=folded` for bare folded stacks.
    let path_wants_folded = path
        .split_once('?')
        .is_some_and(|(_, q)| q.split('&').any(|kv| kv == "format=folded"));
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            shared.hits_metrics.fetch_add(1, Ordering::Relaxed);
            let snap = (shared.snapshot)();
            let mut body = render_prometheus(&snap);
            body.push_str(&crate::park::render_park_prometheus(&crate::park::park_stats()));
            body.push_str(&crate::deadline::render_deadline_prometheus(
                &crate::deadline::deadline_stats(),
            ));
            body.push_str(&self_metrics(shared));
            (200, "text/plain; version=0.0.4", body)
        }
        "/snapshot" => {
            shared.hits_snapshot.fetch_add(1, Ordering::Relaxed);
            let snap = (shared.snapshot)();
            let alerts = shared
                .slo
                .lock()
                .map(|s| render_alerts_json(&s.alerts()))
                .unwrap_or_else(|_| "[]".to_string());
            let ring = audit::global();
            let body = format!(
                "{{\"snapshot\":{},\"audit\":{},\"alerts\":{},\"park\":{},\"deadline\":{},\"server\":{}}}",
                render_json(&snap),
                audit::render_audit_json(&ring.entries()),
                alerts,
                crate::park::render_park_json(&crate::park::park_stats()),
                crate::deadline::render_deadline_json(&crate::deadline::deadline_stats()),
                self_json(shared),
            );
            (200, "application/json", body)
        }
        "/health" => {
            shared.hits_health.fetch_add(1, Ordering::Relaxed);
            let stalled = shared
                .slo
                .lock()
                .map(|s| !s.active_findings().is_empty())
                .unwrap_or(false);
            if shared.healthy.load(Ordering::Relaxed) && !stalled {
                (200, "text/plain", "ok\n".to_string())
            } else {
                (503, "text/plain", "stalled\n".to_string())
            }
        }
        "/alerts" => {
            shared.hits_alerts.fetch_add(1, Ordering::Relaxed);
            let body = shared
                .slo
                .lock()
                .map(|s| render_alerts_json(&s.alerts()))
                .unwrap_or_else(|_| "[]".to_string());
            (200, "application/json", body)
        }
        "/profile" => {
            shared.hits_profile.fetch_add(1, Ordering::Relaxed);
            let snap = crate::profile::global().snapshot();
            if path_wants_folded {
                (200, "text/plain", crate::profile::render_folded(&snap))
            } else {
                // Cycles need no bound, so they come live from the
                // table (watchdog or not); stalls and inversions need
                // the watchdog's bounds and come from what it fed in.
                let mut findings = crate::waitgraph::global()
                    .analyze(u64::MAX, u64::MAX)
                    .findings;
                for f in shared.slo.lock().map(|s| s.active_findings()).unwrap_or_default() {
                    if !findings.iter().any(|g| g.key() == f.key()) {
                        findings.push(f);
                    }
                }
                (
                    200,
                    "application/json",
                    crate::profile::render_profile_json(&snap, &findings),
                )
            }
        }
        _ => {
            shared.hits_other.fetch_add(1, Ordering::Relaxed);
            (
                404,
                "text/plain",
                "not found; try /metrics /snapshot /health /alerts /profile\n".to_string(),
            )
        }
    }
}

/// The server's own cost, in the Prometheus body it serves: scrape
/// counters per endpoint, render-duration histogram, queue rejections,
/// and the audit ring's record/drop totals.
fn self_metrics(shared: &Arc<Shared>) -> String {
    let mut out = String::new();
    out.push_str(
        "# HELP clof_obs_scrapes_total Requests served by the telemetry endpoint.\n\
         # TYPE clof_obs_scrapes_total counter\n",
    );
    for (endpoint, n) in [
        ("metrics", &shared.hits_metrics),
        ("snapshot", &shared.hits_snapshot),
        ("health", &shared.hits_health),
        ("alerts", &shared.hits_alerts),
        ("profile", &shared.hits_profile),
        ("other", &shared.hits_other),
    ] {
        out.push_str(&format!(
            "clof_obs_scrapes_total{{endpoint=\"{endpoint}\"}} {}\n",
            n.load(Ordering::Relaxed)
        ));
    }
    out.push_str(&format!(
        "# HELP clof_obs_scrapes_rejected_total Connections answered 503 because the worker queue was full.\n\
         # TYPE clof_obs_scrapes_rejected_total counter\n\
         clof_obs_scrapes_rejected_total {}\n",
        shared.rejected.load(Ordering::Relaxed)
    ));
    prom_histogram(
        &mut out,
        "clof_obs_scrape_duration_ns",
        "Render time per scrape (ns) — the server accounting for itself.",
        "endpoint=\"all\"",
        &shared.scrape_ns.snapshot(),
    );
    let ring = audit::global();
    out.push_str(&format!(
        "# HELP clof_obs_audit_records_total Adaptation decisions written to the audit ring (saturating).\n\
         # TYPE clof_obs_audit_records_total counter\n\
         clof_obs_audit_records_total {}\n\
         # HELP clof_obs_audit_dropped_total Audit records overwritten before scrape (saturating).\n\
         # TYPE clof_obs_audit_dropped_total counter\n\
         clof_obs_audit_dropped_total {}\n",
        ring.recorded(),
        ring.dropped()
    ));
    out
}

fn self_json(shared: &Arc<Shared>) -> String {
    let h = shared.scrape_ns.snapshot();
    format!(
        "{{\"requests\":{},\"rejected\":{},\"scrape_ns_p50\":{},\"scrape_ns_p99\":{},\
         \"scrape_ns_max\":{},\"audit_recorded\":{},\"audit_dropped\":{}}}",
        shared.requests_total(),
        shared.rejected.load(Ordering::Relaxed),
        h.p50(),
        h.p99(),
        h.max,
        audit::global().recorded(),
        audit::global().dropped(),
    )
}

/// Reads one request head and returns the path of a `GET`; `None` on
/// anything malformed (worker answers 400).
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) if path.starts_with('/') => Some(path.to_string()),
        _ => None,
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    ctype: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nServer: {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        SERVER_MARKER,
        ctype,
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Best-effort `503` straight from the accept loop when the worker
/// queue is full — overload must degrade loudly, not queue silently.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = write_response(&mut stream, 503, "text/plain", "overloaded\n");
}

/// Minimal blocking HTTP GET against a local address: returns `(status,
/// body)`. Shared by the e2e tests, `clof serve --once`, and the
/// kvstore round-trip test so none of them hand-roll a client.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelCounters;

    fn test_snapshot() -> LockSnapshot {
        let c = LevelCounters::new();
        for _ in 0..10 {
            c.record_acquire(false);
        }
        LockSnapshot {
            name: "serve-test".into(),
            levels: vec![c.snapshot(0)],
            hold_ns: LogHistogram::new().snapshot(),
            events_recorded: 10,
            events_dropped: 0,
            events: Vec::new(),
        }
    }

    fn start() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            Arc::new(test_snapshot),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .expect("bind ephemeral port")
    }

    #[test]
    fn serves_all_four_endpoints() {
        let h = start();
        let (s, body) = http_get(h.addr(), "/health").unwrap();
        assert_eq!((s, body.as_str()), (200, "ok\n"));
        let (s, body) = http_get(h.addr(), "/metrics").unwrap();
        assert_eq!(s, 200);
        assert!(body.contains("clof_acquires_total{lock=\"serve-test\",level=\"0\"} 10"), "{body}");
        assert!(body.contains("clof_obs_scrape_duration_ns_count"), "{body}");
        assert!(body.contains("clof_obs_scrapes_total{endpoint=\"metrics\"} 1"), "{body}");
        let (s, body) = http_get(h.addr(), "/snapshot").unwrap();
        assert_eq!(s, 200);
        assert!(body.starts_with("{\"snapshot\":{"), "{body}");
        assert!(body.contains("\"audit\":["), "{body}");
        assert!(body.contains("\"server\":{"), "{body}");
        assert_eq!(body.matches('{').count(), body.matches('}').count());
        let (s, body) = http_get(h.addr(), "/alerts").unwrap();
        assert_eq!(s, 200);
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
        assert!(h.requests() >= 4);
        h.shutdown();
    }

    #[test]
    fn unknown_path_is_404_and_bad_method_is_400() {
        let h = start();
        let (s, _) = http_get(h.addr(), "/nope").unwrap();
        assert_eq!(s, 404);
        // A non-GET request head.
        let mut stream = TcpStream::connect(h.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains(SERVER_MARKER), "marker header on every response");
    }

    #[test]
    fn health_flips_on_stall_and_recovers() {
        let h = start();
        h.set_healthy(false);
        let (s, body) = http_get(h.addr(), "/health").unwrap();
        assert_eq!((s, body.as_str()), (503, "stalled\n"));
        h.set_healthy(true);
        let (s, _) = http_get(h.addr(), "/health").unwrap();
        assert_eq!(s, 200);
        // A stall finding flips it until its alert decays.
        h.note_finding(&stall_for(3), "");
        let (s, _) = http_get(h.addr(), "/health").unwrap();
        assert_eq!(s, 503);
        let mut sampler = crate::Sampler::new();
        sampler.tick_at(0, test_snapshot());
        let calm = sampler.tick_at(1_000_000_000, test_snapshot()).unwrap();
        for _ in 0..=crate::slo::GRAPH_HOLD_TICKS {
            h.observe_window(&calm);
        }
        let (s, _) = http_get(h.addr(), "/health").unwrap();
        assert_eq!(s, 200, "recovers once the finding's alert decays");
    }

    fn stall_for(thread: u32) -> crate::GraphFinding {
        crate::GraphFinding::Stall {
            thread,
            waited_ns: 500_000_000,
            epoch: 1,
            holders: Vec::new(),
            waiting: 1,
        }
    }

    #[test]
    fn a_finding_flips_health_and_surfaces_once_in_alerts_and_profile() {
        let deadlock = crate::GraphFinding::Deadlock {
            threads: vec![7, 8],
            sites: vec![0, 1],
        };
        for finding in [stall_for(3), deadlock] {
            let kind = finding.kind();
            let h = start();
            h.note_finding(&finding, "test context");
            let (s, _) = http_get(h.addr(), "/health").unwrap();
            assert_eq!(s, 503, "a {kind} must flip /health");
            let (_, body) = http_get(h.addr(), "/alerts").unwrap();
            assert_eq!(body.matches("waitgraph-").count(), 1, "{body}");
            assert!(body.contains(&format!("waitgraph-{kind}")), "{body}");
            assert!(body.contains("test context"), "{body}");
            let (_, body) = http_get(h.addr(), "/profile").unwrap();
            assert!(body.contains(&format!("\"kind\":\"{kind}\"")), "{body}");
            assert!(!h.healthy());
            h.shutdown();
        }
    }

    /// A deadlock that is still there stays on `/profile`, `/alerts`
    /// and `/health` past the alert hold time: the watchdog hands it
    /// over on every poll, and `/profile` reads cycles live.
    #[test]
    fn an_ongoing_deadlock_outlives_the_alert_hold_time() {
        let table = crate::waitgraph::global();
        table.inject(507, &[9_001], Some(9_002));
        table.inject(508, &[9_002], Some(9_001));
        let h = Arc::new(start());
        let (_, before) = http_get(h.addr(), "/profile").unwrap();
        let watchdog = crate::Watchdog::new(crate::WatchdogConfig {
            poll: Duration::from_millis(1),
            ..crate::WatchdogConfig::default()
        })
        .spawn({
            let h = Arc::clone(&h);
            move |f, context, _| h.note_finding(f, context)
        });
        let mut sampler = crate::Sampler::new();
        sampler.tick_at(0, test_snapshot());
        let calm = sampler.tick_at(1_000_000_000, test_snapshot()).unwrap();
        for _ in 0..=crate::slo::GRAPH_HOLD_TICKS {
            std::thread::sleep(Duration::from_millis(5));
            h.observe_window(&calm);
        }
        std::thread::sleep(Duration::from_millis(5));
        let (s, _) = http_get(h.addr(), "/health").unwrap();
        let (_, alerts) = http_get(h.addr(), "/alerts").unwrap();
        let (_, profile) = http_get(h.addr(), "/profile").unwrap();
        drop(watchdog);
        table.clear_thread(507);
        table.clear_thread(508);
        assert!(before.contains("\"threads\":[507,508]"), "no watchdog needed: {before}");
        assert_eq!(s, 503);
        assert!(alerts.contains("waitgraph-deadlock"), "{alerts}");
        assert!(profile.contains("\"threads\":[507,508]"), "{profile}");
    }

    #[test]
    fn query_strings_are_ignored() {
        let h = start();
        let (s, _) = http_get(h.addr(), "/metrics?ts=123").unwrap();
        assert_eq!(s, 200);
    }

    #[test]
    fn profile_endpoint_serves_json_and_folded_stacks() {
        let h = start();
        let (s, body) = http_get(h.addr(), "/profile").unwrap();
        assert_eq!(s, 200);
        assert!(body.contains(crate::PROFILE_MARKER), "{body}");
        assert!(body.contains("\"sites\":["), "{body}");
        assert!(body.contains("\"findings\":["), "{body}");
        // Folded variant is plain text (possibly empty when no site has
        // recorded waits) — it must not be the JSON document.
        let (s, folded) = http_get(h.addr(), "/profile?format=folded").unwrap();
        assert_eq!(s, 200);
        assert!(!folded.contains(crate::PROFILE_MARKER), "{folded}");
        let (_, metrics) = http_get(h.addr(), "/metrics").unwrap();
        assert!(
            metrics.contains("clof_obs_scrapes_total{endpoint=\"profile\"} 2"),
            "{metrics}"
        );
        h.shutdown();
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let h = start();
        let addr = h.addr();
        h.shutdown();
        // The port is released: a fresh bind to it succeeds (best-effort
        // check; another process could steal it, so only assert when the
        // bind works).
        if let Ok(l) = TcpListener::bind(addr) {
            drop(l);
        }
        // A connect now either fails or gets no HTTP answer.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = s.write_all(b"GET /health HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(!out.contains("HTTP/1.1 200"), "server must be gone: {out}");
        }
    }
}
