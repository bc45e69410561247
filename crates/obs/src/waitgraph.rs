//! Bounded waits-for graph over registered lock sites.
//!
//! Each thread owns a fixed slot (indexed by [`thread_tag`], same
//! scheme as the watchdog's progress registry) recording *which site it
//! is waiting on* and *which sites it currently holds*. The publishing
//! side is the lock protocol's existing hold-observer transitions —
//! two or three relaxed stores per acquire into a slot only that thread
//! writes, on a cache line of its own, with the transition's timestamp
//! passed in — so it is safe to leave always-on under `obs`.
//!
//! [`WaitTable::analyze`] samples the table and reports:
//!
//! * **Deadlock** — a cycle in the thread-level waits-for relation
//!   (thread A waits on a site held by B, who waits on a site held by
//!   A, …). Real CLoF compositions cannot deadlock on a single lock,
//!   but *stacks* of locks (kvstore transactions over several stores)
//!   can, and injected occupancy lets CI prove the detector works.
//! * **Inversion** — a waiter behind which the site's intra-level pass
//!   count ([`crate::profile`]) advanced beyond the `keep_local` gap
//!   bound *H* (§4.1) without it being served: the signature of a
//!   remote waiter starved behind repeated local hand-offs. The pass
//!   count is a sum over the site's shards, so the *observer* takes the
//!   baseline: the first [`WaitTable::analyze`] that sees a wait notes
//!   the count, later ones report against it. The waiter itself never
//!   reads a line the lock's owner writes.
//!
//! Findings carry stable dedup keys; [`FindingDedup`] suppresses
//! repeats across polls, and the SLO evaluator folds findings into
//! `/alerts` (deduplicated against plain watchdog stalls, so one stuck
//! site fires one alert).
//!
//! [`thread_tag`]: crate::thread_tag

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::export::json_escape;
use crate::registry::INVALID_SITE;
use crate::{now_ns, profile, registry};

/// Thread slots in the global wait table. Thread tags at or above this
/// are not tracked (the rest of the telemetry stays exact); tags of
/// exited threads are recycled, so that takes this many live threads.
pub const MAX_GRAPH_THREADS: usize = 512;

/// Maximum simultaneously held sites tracked per thread (nested locks
/// deeper than this are invisible to the graph, never wrong — missing
/// edges can only hide a cycle, not invent one).
pub const MAX_HELD_SITES: usize = 4;

/// One thread's occupancy slot. `waiting_site`/`held` store `site + 1`
/// (0 = empty). Single-writer: only the owning thread stores, and
/// consecutive tags belong to different threads, so each slot gets its
/// own line.
#[repr(align(128))]
#[derive(Debug, Default)]
struct ThreadCell {
    waiting_site: AtomicU32,
    wait_since: AtomicU64,
    held: [AtomicU32; MAX_HELD_SITES],
}

const _: () = assert!(std::mem::size_of::<ThreadCell>() == 128);

/// The observer's note on a wait it has seen: which wait (site and
/// start), and the site's pass count at that first sighting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Baseline {
    site: u32,
    since: u64,
    passes: u64,
}

/// Fixed-slot table of per-thread lock occupancy.
#[derive(Debug)]
pub struct WaitTable {
    cells: Box<[ThreadCell]>,
    /// Inversion baselines per thread slot — observer state, kept off
    /// the threads' own lines.
    baselines: Mutex<Vec<Option<Baseline>>>,
}

impl WaitTable {
    /// An empty table with [`MAX_GRAPH_THREADS`] slots.
    pub fn new() -> Self {
        WaitTable {
            cells: (0..MAX_GRAPH_THREADS)
                .map(|_| ThreadCell::default())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            baselines: Mutex::new(vec![None; MAX_GRAPH_THREADS]),
        }
    }

    #[inline]
    fn cell(&self, thread: u32) -> Option<&ThreadCell> {
        self.cells.get(thread as usize)
    }

    /// Thread `thread` started waiting on `site` at `now`.
    #[inline]
    pub fn wait_at(&self, thread: u32, site: u32, now: u64) {
        if site == INVALID_SITE {
            return;
        }
        if let Some(cell) = self.cell(thread) {
            cell.wait_since.store(now, Ordering::Relaxed);
            cell.waiting_site.store(site + 1, Ordering::Relaxed);
        }
    }

    /// Thread `thread` acquired `site`: no longer waiting, now holding.
    #[inline]
    pub fn acquired(&self, thread: u32, site: u32) {
        if site == INVALID_SITE {
            return;
        }
        if let Some(cell) = self.cell(thread) {
            cell.waiting_site.store(0, Ordering::Relaxed);
            for slot in &cell.held {
                if slot.load(Ordering::Relaxed) == 0 {
                    slot.store(site + 1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    /// Thread `thread` stopped waiting on `site` *without* acquiring it
    /// (deadline abandonment): the wait edge is cleared and nothing is
    /// added to the held set. Without this, a timed-out waiter would
    /// look permanently blocked to the cycle/stall analyzer.
    #[inline]
    pub fn wait_cancelled(&self, thread: u32, site: u32) {
        if site == INVALID_SITE {
            return;
        }
        if let Some(cell) = self.cell(thread) {
            cell.waiting_site.store(0, Ordering::Relaxed);
        }
    }

    /// Thread `thread` released `site`.
    #[inline]
    pub fn released(&self, thread: u32, site: u32) {
        if site == INVALID_SITE {
            return;
        }
        if let Some(cell) = self.cell(thread) {
            // Innermost-first: clear the last matching slot.
            for slot in cell.held.iter().rev() {
                if slot.load(Ordering::Relaxed) == site + 1 {
                    slot.store(0, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    /// Overwrites a thread slot with synthetic occupancy — the test/CI
    /// injection point (`clof profile --inject-deadlock` builds its
    /// 2-cycle here instead of actually deadlocking the process). An
    /// injected wait comes with its inversion baseline already taken —
    /// the site's *current* pass count — so advancing the count
    /// afterwards via [`profile::ContentionProfile::inject_passes`]
    /// stages an inversion the very next [`analyze`](Self::analyze)
    /// reports.
    pub fn inject(&self, thread: u32, held: &[u32], waiting_on: Option<u32>) {
        if let Some(cell) = self.cell(thread) {
            for (i, slot) in cell.held.iter().enumerate() {
                slot.store(
                    held.get(i).map_or(0, |s| s + 1),
                    Ordering::Relaxed,
                );
            }
            let baseline = waiting_on.map(|site| Baseline {
                site,
                since: now_ns(),
                passes: profile::global().passes(site),
            });
            cell.wait_since
                .store(baseline.map_or(0, |b| b.since), Ordering::Relaxed);
            cell.waiting_site
                .store(waiting_on.map_or(0, |s| s + 1), Ordering::Relaxed);
            self.baselines()[thread as usize] = baseline;
        }
    }

    fn baselines(&self) -> std::sync::MutexGuard<'_, Vec<Option<Baseline>>> {
        self.baselines.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Clears one thread slot.
    pub fn clear_thread(&self, thread: u32) {
        self.inject(thread, &[], None);
    }

    /// Clears every slot (between runs).
    pub fn reset(&self) {
        for t in 0..self.cells.len() {
            self.clear_thread(t as u32);
        }
    }

    /// Samples the table and reports cycles (deadlock) and waiters
    /// starved past `h_bound` hand-offs (inversion). A wait seen for the
    /// first time only gets its inversion baseline taken; it can be
    /// reported from the second sighting on.
    pub fn analyze(&self, h_bound: u64) -> GraphReport {
        let now = now_ns();
        // (thread, waiting site, since)
        let mut waiters: Vec<(u32, u32, u64)> = Vec::new();
        // (thread, held site)
        let mut holds: Vec<(u32, u32)> = Vec::new();
        let mut baselines = self.baselines();
        for (tag, cell) in self.cells.iter().enumerate() {
            let w = cell.waiting_site.load(Ordering::Relaxed);
            if w != 0 {
                waiters.push((tag as u32, w - 1, cell.wait_since.load(Ordering::Relaxed)));
            } else {
                // Served or abandoned: the wait's baseline goes with it.
                baselines[tag] = None;
            }
            for slot in &cell.held {
                let h = slot.load(Ordering::Relaxed);
                if h != 0 {
                    holds.push((tag as u32, h - 1));
                }
            }
        }

        // Thread-level waits-for edges: waiter -> each holder of its
        // site, annotated with the site.
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for &(t, site, _) in &waiters {
            for &(h, held) in &holds {
                if held == site && h != t {
                    edges.push((t, site, h));
                }
            }
        }

        let mut findings = Vec::new();
        for cycle in find_cycles(&edges) {
            let mut sites: Vec<u32> = cycle
                .iter()
                .filter_map(|t| {
                    waiters
                        .iter()
                        .find(|(w, _, _)| w == t)
                        .map(|&(_, s, _)| s)
                })
                .collect();
            sites.sort_unstable();
            sites.dedup();
            findings.push(GraphFinding::Deadlock {
                threads: cycle,
                sites,
            });
        }

        for &(t, site, since) in &waiters {
            let passes = profile::global().passes(site);
            let seen = baselines[t as usize].filter(|b| (b.site, b.since) == (site, since));
            let base = seen.unwrap_or(Baseline { site, since, passes });
            baselines[t as usize] = Some(base);
            let handoffs = passes.saturating_sub(base.passes);
            if handoffs > h_bound {
                findings.push(GraphFinding::Inversion {
                    thread: t,
                    site,
                    handoffs,
                    h_bound,
                    waited_ns: now.saturating_sub(since),
                });
            }
        }

        GraphReport {
            threads_waiting: waiters.len(),
            holds: holds.len(),
            edges: edges.len(),
            findings,
        }
    }
}

impl Default for WaitTable {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global wait table the lock hooks publish into.
pub fn global() -> &'static WaitTable {
    static TABLE: OnceLock<WaitTable> = OnceLock::new();
    TABLE.get_or_init(WaitTable::new)
}

/// Cycles in a thread-level edge list `(waiter, site, holder)`, each
/// reported once as a sorted thread list.
fn find_cycles(edges: &[(u32, u32, u32)]) -> Vec<Vec<u32>> {
    let mut nodes: Vec<u32> = edges.iter().flat_map(|&(a, _, b)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();

    let succ = |t: u32| -> Vec<u32> {
        edges
            .iter()
            .filter(|&&(a, _, _)| a == t)
            .map(|&(_, _, b)| b)
            .collect()
    };

    let mut cycles: Vec<Vec<u32>> = Vec::new();
    // Bounded DFS from every node; path-based back-edge detection. The
    // table caps nodes at MAX_GRAPH_THREADS, so this stays small.
    for &start in &nodes {
        let mut stack: Vec<(u32, Vec<u32>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            for next in succ(node) {
                if let Some(pos) = path.iter().position(|&p| p == next) {
                    let mut cycle = path[pos..].to_vec();
                    cycle.sort_unstable();
                    cycle.dedup();
                    if !cycles.contains(&cycle) {
                        cycles.push(cycle);
                    }
                } else if path.len() < MAX_GRAPH_THREADS {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    cycles
}

/// One waits-for graph verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphFinding {
    /// A cycle in the waits-for relation: every listed thread waits on
    /// a site held by another listed thread.
    Deadlock {
        /// Threads on the cycle (sorted, deduped).
        threads: Vec<u32>,
        /// Sites involved (sorted, deduped).
        sites: Vec<u32>,
    },
    /// A waiter starved past the `keep_local` gap bound: the site
    /// handed off `handoffs > h_bound` times while this thread waited.
    Inversion {
        /// The starved thread.
        thread: u32,
        /// The site it waits on.
        site: u32,
        /// Hand-offs observed since it started waiting.
        handoffs: u64,
        /// The gap bound it exceeded.
        h_bound: u64,
        /// How long it has been waiting (ns).
        waited_ns: u64,
    },
}

impl GraphFinding {
    /// `"deadlock"` or `"inversion"`.
    pub fn kind(&self) -> &'static str {
        match self {
            GraphFinding::Deadlock { .. } => "deadlock",
            GraphFinding::Inversion { .. } => "inversion",
        }
    }

    /// Threads implicated in the finding.
    pub fn threads(&self) -> Vec<u32> {
        match self {
            GraphFinding::Deadlock { threads, .. } => threads.clone(),
            GraphFinding::Inversion { thread, .. } => vec![*thread],
        }
    }

    /// A stable dedup key: kind + the implicated thread/site identity,
    /// *not* the evolving measurements — repeated polls of one ongoing
    /// finding produce one key.
    pub fn key(&self) -> String {
        match self {
            GraphFinding::Deadlock { threads, sites } => {
                format!("deadlock:t{threads:?}:s{sites:?}")
            }
            GraphFinding::Inversion { thread, site, .. } => {
                format!("inversion:t{thread}:s{site}")
            }
        }
    }

    fn site_label(site: u32) -> String {
        registry::global()
            .site(site)
            .map(|s| s.label)
            .unwrap_or_else(|| format!("site-{site}"))
    }

    /// A one-line human description (site ids resolved to labels).
    pub fn detail(&self) -> String {
        match self {
            GraphFinding::Deadlock { threads, sites } => {
                let labels: Vec<String> =
                    sites.iter().map(|&s| Self::site_label(s)).collect();
                format!(
                    "waits-for cycle: threads {threads:?} over sites {} ({sites:?})",
                    labels.join(", ")
                )
            }
            GraphFinding::Inversion {
                thread,
                site,
                handoffs,
                h_bound,
                waited_ns,
            } => format!(
                "inversion: thread {thread} starved on {} (site {site}) for {:.1} ms \
                 while {handoffs} hand-offs passed it (gap bound H={h_bound})",
                Self::site_label(*site),
                *waited_ns as f64 / 1e6,
            ),
        }
    }

    /// JSON object for `/profile` and `/alerts` payloads.
    pub fn to_json(&self) -> String {
        match self {
            GraphFinding::Deadlock { threads, sites } => {
                let t: Vec<String> = threads.iter().map(u32::to_string).collect();
                let s: Vec<String> = sites.iter().map(u32::to_string).collect();
                format!(
                    "{{\"kind\":\"deadlock\",\"threads\":[{}],\"sites\":[{}],\"detail\":\"{}\"}}",
                    t.join(","),
                    s.join(","),
                    json_escape(&self.detail())
                )
            }
            GraphFinding::Inversion {
                thread,
                site,
                handoffs,
                h_bound,
                waited_ns,
            } => format!(
                "{{\"kind\":\"inversion\",\"thread\":{thread},\"site\":{site},\
                 \"handoffs\":{handoffs},\"h_bound\":{h_bound},\"waited_ns\":{waited_ns},\
                 \"detail\":\"{}\"}}",
                json_escape(&self.detail())
            ),
        }
    }
}

/// One [`WaitTable::analyze`] pass.
#[derive(Debug, Clone)]
pub struct GraphReport {
    /// Threads currently waiting on some site.
    pub threads_waiting: usize,
    /// (thread, site) hold pairs observed.
    pub holds: usize,
    /// Waits-for edges built.
    pub edges: usize,
    /// Deadlock / inversion findings, deadlocks first.
    pub findings: Vec<GraphFinding>,
}

impl GraphReport {
    /// `true` when the graph is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Suppresses findings already reported on a previous poll. A finding
/// whose key disappears and later reappears is reported again (it is a
/// new incident).
#[derive(Debug, Default)]
pub struct FindingDedup {
    seen: Vec<String>,
}

impl FindingDedup {
    /// An empty dedup window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the findings not present on the previous poll and makes
    /// the given set the new baseline.
    pub fn fresh(&mut self, findings: &[GraphFinding]) -> Vec<GraphFinding> {
        let keys: Vec<String> = findings.iter().map(GraphFinding::key).collect();
        let fresh = findings
            .iter()
            .filter(|f| !self.seen.contains(&f.key()))
            .cloned()
            .collect();
        self.seen = keys;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_two_cycle_is_detected_as_deadlock() {
        let table = WaitTable::new();
        // Threads 1 and 2, sites 10 and 11: classic 2-cycle.
        table.inject(1, &[10], Some(11));
        table.inject(2, &[11], Some(10));
        let report = table.analyze(u64::MAX);
        assert_eq!(report.threads_waiting, 2);
        assert_eq!(report.edges, 2);
        let deadlocks: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.kind() == "deadlock")
            .collect();
        assert_eq!(deadlocks.len(), 1, "{:?}", report.findings);
        match deadlocks[0] {
            GraphFinding::Deadlock { threads, sites } => {
                assert_eq!(threads, &vec![1, 2]);
                assert_eq!(sites, &vec![10, 11]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn waiting_without_a_cycle_is_clean() {
        let table = WaitTable::new();
        table.inject(1, &[], Some(10));
        table.inject(2, &[10], None);
        let report = table.analyze(u64::MAX);
        assert_eq!(report.edges, 1);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn handoffs_past_h_bound_flag_an_inversion() {
        // Needs a real registered site so the pass clock exists.
        let anchor = registry::global().register("wg-inv", "x");
        let site = anchor.id();
        let table = WaitTable::new();
        table.inject(3, &[], Some(site));
        profile::global().inject_passes(site, 5);
        let report = table.analyze(4);
        let inv: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.kind() == "inversion")
            .collect();
        assert_eq!(inv.len(), 1, "{:?}", report.findings);
        match inv[0] {
            GraphFinding::Inversion {
                thread,
                site: s,
                handoffs,
                h_bound,
                ..
            } => {
                assert_eq!(*thread, 3);
                assert_eq!(*s, site);
                assert_eq!(*handoffs, 5);
                assert_eq!(*h_bound, 4);
            }
            other => panic!("expected inversion, got {other:?}"),
        }
        // At the bound is fine; only past it fires.
        assert!(table.analyze(5).is_clean());
        let detail = inv[0].detail();
        assert!(detail.contains("wg-inv"), "{detail}");
    }

    #[test]
    fn protocol_transitions_build_and_tear_down_edges() {
        let table = WaitTable::new();
        table.acquired(7, 42);
        table.wait_at(8, 42, now_ns());
        let report = table.analyze(u64::MAX);
        assert_eq!(report.edges, 1);
        table.released(7, 42);
        table.acquired(8, 42);
        let report = table.analyze(u64::MAX);
        assert_eq!(report.edges, 0);
        assert_eq!(report.threads_waiting, 0);
        table.released(8, 42);
        assert_eq!(table.analyze(u64::MAX).holds, 0);
    }

    #[test]
    fn the_observer_takes_the_baseline_and_drops_it_with_the_wait() {
        let anchor = registry::global().register("wg-observer", "x");
        let site = anchor.id();
        let table = WaitTable::new();
        // Passes before anyone looked do not count against the waiter.
        table.wait_at(5, site, 1000);
        profile::global().inject_passes(site, 10);
        assert!(table.analyze(4).is_clean(), "first sighting only takes the baseline");
        profile::global().inject_passes(site, 4);
        assert!(table.analyze(4).is_clean(), "at the bound");
        profile::global().inject_passes(site, 1);
        let report = table.analyze(4);
        assert!(
            matches!(report.findings[..], [GraphFinding::Inversion { thread: 5, handoffs: 5, .. }]),
            "{:?}",
            report.findings
        );
        // The wait is abandoned; an observer sees the idle slot and
        // forgets the baseline, so a later wait on the same site starts
        // from scratch however far the clock ran in between.
        table.wait_cancelled(5, site);
        assert!(table.analyze(4).is_clean());
        profile::global().inject_passes(site, 100);
        table.wait_at(5, site, 2000);
        assert!(table.analyze(4).is_clean());
        // Even unobserved, a new wait never inherits an old baseline:
        // it is a different (site, since).
        table.wait_at(5, site, 3000);
        profile::global().inject_passes(site, 100);
        assert!(table.analyze(4).is_clean());
    }

    #[test]
    fn dedup_reports_each_incident_once_until_it_clears() {
        let f = GraphFinding::Inversion {
            thread: 1,
            site: 2,
            handoffs: 10,
            h_bound: 4,
            waited_ns: 1,
        };
        let mut dedup = FindingDedup::new();
        assert_eq!(dedup.fresh(std::slice::from_ref(&f)).len(), 1);
        // Same incident, later poll (measurements moved): suppressed.
        let f2 = GraphFinding::Inversion {
            thread: 1,
            site: 2,
            handoffs: 99,
            h_bound: 4,
            waited_ns: 500,
        };
        assert_eq!(dedup.fresh(std::slice::from_ref(&f2)).len(), 0);
        // Cleared, then recurs: reported again.
        assert_eq!(dedup.fresh(&[]).len(), 0);
        assert_eq!(dedup.fresh(std::slice::from_ref(&f)).len(), 1);
    }

    #[test]
    fn findings_render_json() {
        let d = GraphFinding::Deadlock {
            threads: vec![1, 2],
            sites: vec![3],
        };
        let j = d.to_json();
        assert!(j.contains("\"kind\":\"deadlock\""));
        assert!(j.contains("\"threads\":[1,2]"));
        assert!(j.contains("\"sites\":[3]"));
    }
}
