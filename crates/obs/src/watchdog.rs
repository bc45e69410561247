//! The watchdog: a background poller over the per-thread occupancy
//! table ([`WaitTable`]) that hands each fresh finding — stall,
//! deadlock, inversion — to one callback.
//!
//! CLoF's fairness argument is conditional — every component fair, every
//! `keep_local` bounded — and the stress oracle checks it after the
//! fact. The watchdog checks it *during* a run: each poll runs
//! [`WaitTable::analyze`] with the configured bounds, keeps the findings
//! the previous poll did not have (`FindingDedup`), and hands those to
//! the caller together with a caller-supplied diagnostic line (e.g.
//! per-level queue hints). The lock side publishes nothing extra: the
//! table is what the lock hooks already write.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::waitgraph::{self, FindingDedup, GraphFinding, WaitTable};

/// Watchdog tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// A thread waiting longer than this is reported as stalled.
    pub stall_ns: u64,
    /// Poll cadence of the background monitor thread.
    pub poll: Duration,
    /// `keep_local` gap bound *H* for inversion findings; `u64::MAX`
    /// (the default) turns them off. Deadlock detection is always on.
    pub h_bound: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            // 100 ms: geologic time for a spinlock, short enough to
            // catch a livelock long before a CI timeout would.
            stall_ns: 100_000_000,
            poll: Duration::from_millis(50),
            h_bound: u64::MAX,
        }
    }
}

type DiagFn = dyn Fn() -> String + Send + Sync;

/// Polls a [`WaitTable`] for stuck threads.
pub struct Watchdog {
    table: &'static WaitTable,
    config: WatchdogConfig,
    diag: Option<Box<DiagFn>>,
}

impl Watchdog {
    /// A watchdog over the [`global`](waitgraph::global) table.
    pub fn new(config: WatchdogConfig) -> Self {
        Self::with_table(waitgraph::global(), config)
    }

    /// A watchdog over an explicit table (tests).
    pub fn with_table(table: &'static WaitTable, config: WatchdogConfig) -> Self {
        Watchdog {
            table,
            config,
            diag: None,
        }
    }

    /// Attaches a diagnostic closure whose output accompanies every
    /// reported finding — typically the lock's per-level queue hints.
    pub fn with_diag(mut self, diag: impl Fn() -> String + Send + Sync + 'static) -> Self {
        self.diag = Some(Box::new(diag));
        self
    }

    /// Spawns the background monitor. `on_finding(finding, context)`
    /// runs on the monitor thread once per fresh finding, with the
    /// diagnostic line (empty if none was configured). A finding is
    /// fresh on the first poll that sees it: a thread stuck across many
    /// polls is reported once, and again only after it clears and
    /// recurs. The monitor stops when the returned guard is dropped.
    pub fn spawn(
        self,
        mut on_finding: impl FnMut(&GraphFinding, &str) + Send + 'static,
    ) -> WatchdogGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let findings = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let findings = Arc::clone(&findings);
            std::thread::spawn(move || {
                let mut dedup = FindingDedup::new();
                while !stop.load(Ordering::Relaxed) {
                    let report = self
                        .table
                        .analyze(self.config.h_bound, self.config.stall_ns);
                    let fresh = dedup.fresh(&report.findings);
                    if !fresh.is_empty() {
                        let context = self.diag.as_ref().map_or_else(String::new, |d| d());
                        findings.fetch_add(fresh.len() as u64, Ordering::Relaxed);
                        for finding in &fresh {
                            on_finding(finding, &context);
                        }
                    }
                    std::thread::sleep(self.config.poll);
                }
            })
        };
        WatchdogGuard {
            stop,
            findings,
            handle: Some(handle),
        }
    }
}

/// Keeps the background monitor alive; stops and joins it on drop.
pub struct WatchdogGuard {
    stop: Arc<AtomicBool>,
    findings: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WatchdogGuard {
    /// Distinct findings reported so far.
    pub fn findings(&self) -> u64 {
        self.findings.load(Ordering::Relaxed)
    }

    /// Stops the monitor and returns the finding count.
    pub fn stop(mut self) -> u64 {
        self.shutdown();
        self.findings()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{now_ns, INVALID_SITE};
    use std::sync::Mutex;

    fn private_table() -> &'static WaitTable {
        Box::leak(Box::new(WaitTable::new()))
    }

    /// Waits (bounded) until the monitor has reported `n` findings, then
    /// lets it poll a while longer so a duplicate report would show.
    fn settle(guard: &WatchdogGuard, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while guard.findings() < n && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    fn tiny_config() -> WatchdogConfig {
        WatchdogConfig {
            stall_ns: 1, // every waiter counts as stalled
            poll: Duration::from_millis(1),
            h_bound: u64::MAX,
        }
    }

    #[test]
    fn background_monitor_flags_a_stall_once_with_its_context() {
        let table = private_table();
        table.wait_at(5, INVALID_SITE, now_ns());
        std::thread::sleep(Duration::from_millis(2));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let guard = Watchdog::with_table(table, tiny_config())
            .with_diag(|| "queue hints: L0=2".to_string())
            .spawn({
                let seen = Arc::clone(&seen);
                move |f, context| seen.lock().unwrap().push((f.key(), context.to_string()))
            });
        settle(&guard, 1);
        assert_eq!(guard.stop(), 1, "one stall, many polls, one fresh report");
        assert_eq!(
            *seen.lock().unwrap(),
            vec![("stall:t5:e0".to_string(), "queue hints: L0=2".to_string())]
        );
    }

    /// A waiter that times out and at once waits again starts a new
    /// stall, even when no poll saw it between the two waits.
    #[test]
    fn back_to_back_abandoned_waits_are_two_stalls() {
        let table = private_table();
        table.wait_at(6, INVALID_SITE, now_ns());
        std::thread::sleep(Duration::from_millis(2));
        let keys = Arc::new(Mutex::new(Vec::new()));
        let guard = Watchdog::with_table(table, tiny_config()).spawn({
            let keys = Arc::clone(&keys);
            move |f, _| keys.lock().unwrap().push(f.key())
        });
        settle(&guard, 1);
        table.wait_cancelled(6, now_ns());
        table.wait_at(6, INVALID_SITE, now_ns());
        settle(&guard, 2);
        table.wait_cancelled(6, now_ns());
        assert_eq!(guard.stop(), 2);
        assert_eq!(*keys.lock().unwrap(), vec!["stall:t6:e0", "stall:t6:e1"]);
    }

    #[test]
    fn every_finding_kind_goes_through_the_one_callback() {
        let table = private_table();
        table.inject(1, &[10], Some(11));
        table.inject(2, &[11], Some(10));
        table.wait_at(3, INVALID_SITE, now_ns());
        std::thread::sleep(Duration::from_millis(2));
        let kinds = Arc::new(Mutex::new(Vec::new()));
        let guard = Watchdog::with_table(table, tiny_config()).spawn({
            let kinds = Arc::clone(&kinds);
            move |f, context| {
                assert!(context.is_empty());
                kinds.lock().unwrap().push(f.kind());
            }
        });
        settle(&guard, 2);
        assert_eq!(guard.stop(), 2);
        assert_eq!(*kinds.lock().unwrap(), vec!["deadlock", "stall"]);
    }
}
