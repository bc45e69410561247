//! The per-thread occupancy table and its one detector: stalls,
//! waits-for cycles and H-bound inversions.
//!
//! Each thread owns a fixed slot (indexed by [`thread_tag`]) on a cache
//! line of its own, and publishes every lock-protocol transition there
//! with the transition's timestamp passed in — no locks, no RMW, no
//! clock read of its own, so it is safe to leave always-on under `obs`.
//! The slot holds the thread's phase (idle / waiting / holding) with the
//! time it entered it, its progress epoch (completed critical sections
//! and abandoned waits), the site it waits on and the sites it holds. A
//! wait publishes two relaxed stores (phase word, waited-on site), a win
//! one (phase word) plus a held-slot store, a release three (epoch, phase
//! word, held slot), an abandoned wait two (epoch, phase word). A lock
//! without a profiler site ([`INVALID_SITE`]: the site table was full)
//! publishes the phase and epoch only: it is seen by the stall check
//! but adds no edge.
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
//! * **Stall** — a thread waiting longer than a threshold, with who
//!   holds and how many wait. A thread already named by a deadlock or
//!   inversion of the same pass gets no stall: that finding explains
//!   it, so one stuck thread is one finding.
//!
//! Findings carry stable dedup keys; `FindingDedup` suppresses
//! repeats across polls, and the [`Watchdog`](crate::Watchdog) polls
//! this table in the background and hands each finding to its callback.
//!
//! [`thread_tag`]: crate::thread_tag

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::bump;
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

// Phase 0 (idle) is implicit: an idle store writes just the timestamp.
const PHASE_WAITING: u64 = 1;
const PHASE_HOLDING: u64 = 2;

/// A thread's current lock-protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Outside the lock.
    Idle,
    /// Between acquire-entry and acquire-return.
    Waiting,
    /// Between acquire-return and release.
    Holding,
}

impl Phase {
    fn of(state: u64) -> Self {
        match state & 0x3 {
            PHASE_WAITING => Phase::Waiting,
            PHASE_HOLDING => Phase::Holding,
            _ => Phase::Idle,
        }
    }
}

/// One thread's occupancy slot. `state` packs `since_ns << 2 | phase`;
/// `epoch` counts completed critical sections and abandoned waits, so
/// each wait ends in a new epoch; `waiting_site` is the
/// waited-on site, meaningful only while the phase is waiting; `held`
/// stores `site + 1` (0 = empty). Single-writer: only the owning thread
/// stores, and consecutive tags belong to different threads, so each
/// slot gets its own line.
#[repr(align(128))]
#[derive(Debug, Default)]
struct ThreadCell {
    state: AtomicU64,
    epoch: AtomicU64,
    waiting_site: AtomicU32,
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

/// One waiting thread as [`WaitTable::analyze`] sampled it.
struct Waiter {
    thread: u32,
    site: u32,
    since: u64,
    epoch: u64,
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
        if let Some(cell) = self.cell(thread) {
            cell.waiting_site.store(site, Ordering::Relaxed);
            cell.state
                .store((now << 2) | PHASE_WAITING, Ordering::Relaxed);
        }
    }

    /// Thread `thread` acquired `site` at `now`: no longer waiting, now
    /// holding.
    #[inline]
    pub fn acquired(&self, thread: u32, site: u32, now: u64) {
        if let Some(cell) = self.cell(thread) {
            cell.state
                .store((now << 2) | PHASE_HOLDING, Ordering::Relaxed);
            if site == INVALID_SITE {
                return;
            }
            for slot in &cell.held {
                if slot.load(Ordering::Relaxed) == 0 {
                    slot.store(site + 1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    /// Thread `thread` stopped waiting at `now` *without* acquiring
    /// (deadline abandonment): it goes idle, its epoch advances (a
    /// retry is a new wait, and a new stall if it stalls too), and
    /// nothing joins the held set. Without this, a timed-out waiter
    /// would look permanently blocked to [`analyze`](Self::analyze).
    #[inline]
    pub fn wait_cancelled(&self, thread: u32, now: u64) {
        if let Some(cell) = self.cell(thread) {
            bump(&cell.epoch, 1);
            cell.state.store(now << 2, Ordering::Relaxed);
        }
    }

    /// Thread `thread` released `site` at `now`: it goes idle and its
    /// progress epoch advances.
    #[inline]
    pub fn released(&self, thread: u32, site: u32, now: u64) {
        if let Some(cell) = self.cell(thread) {
            bump(&cell.epoch, 1);
            cell.state.store(now << 2, Ordering::Relaxed);
            if site == INVALID_SITE {
                return;
            }
            // Innermost-first: clear the last matching slot.
            for slot in cell.held.iter().rev() {
                if slot.load(Ordering::Relaxed) == site + 1 {
                    slot.store(0, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    /// Thread `thread`'s current phase (`Idle` for tags outside the
    /// table).
    pub fn phase(&self, thread: u32) -> Phase {
        self.cell(thread)
            .map_or(Phase::Idle, |c| Phase::of(c.state.load(Ordering::Relaxed)))
    }

    /// Overwrites a thread slot with synthetic occupancy — the test/CI
    /// injection point (`clof profile --inject-deadlock` builds its
    /// 2-cycle here instead of actually deadlocking the process). The
    /// thread is waiting from now if `waiting_on` is given, else holding
    /// if `held` is non-empty, else idle. An injected wait comes with
    /// its inversion baseline already taken — the site's *current* pass
    /// count — so advancing the count afterwards via
    /// [`profile::ContentionProfile::inject_passes`] stages an inversion
    /// the very next [`analyze`](Self::analyze) reports.
    pub fn inject(&self, thread: u32, held: &[u32], waiting_on: Option<u32>) {
        if let Some(cell) = self.cell(thread) {
            for (i, slot) in cell.held.iter().enumerate() {
                slot.store(held.get(i).map_or(0, |s| s + 1), Ordering::Relaxed);
            }
            let now = now_ns();
            let state = match waiting_on {
                Some(site) => {
                    cell.waiting_site.store(site, Ordering::Relaxed);
                    (now << 2) | PHASE_WAITING
                }
                None if !held.is_empty() => (now << 2) | PHASE_HOLDING,
                None => 0,
            };
            cell.state.store(state, Ordering::Relaxed);
            self.baselines()[thread as usize] = waiting_on.map(|site| Baseline {
                site,
                since: now,
                passes: profile::global().passes(site),
            });
        }
    }

    fn baselines(&self) -> std::sync::MutexGuard<'_, Vec<Option<Baseline>>> {
        self.baselines.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Clears one thread slot.
    pub fn clear_thread(&self, thread: u32) {
        self.inject(thread, &[], None);
    }

    /// Samples the table and reports cycles (deadlock), waiters starved
    /// past `h_bound` hand-offs (inversion) and waiters older than
    /// `stall_ns` that neither explains (stall); `u64::MAX` turns either
    /// bound off. A wait seen for the first time only gets its
    /// inversion baseline taken; it can be reported from the second
    /// sighting on.
    pub fn analyze(&self, h_bound: u64, stall_ns: u64) -> GraphReport {
        let now = now_ns();
        let mut waiters: Vec<Waiter> = Vec::new();
        // (thread, held for ns) of every thread in its critical section.
        let mut holders: Vec<(u32, u64)> = Vec::new();
        // (thread, held site)
        let mut holds: Vec<(u32, u32)> = Vec::new();
        let mut baselines = self.baselines();
        for (tag, cell) in self.cells.iter().enumerate() {
            let thread = tag as u32;
            let state = cell.state.load(Ordering::Relaxed);
            let since = state >> 2;
            let mut site = INVALID_SITE;
            match Phase::of(state) {
                Phase::Waiting => {
                    site = cell.waiting_site.load(Ordering::Relaxed);
                    waiters.push(Waiter {
                        thread,
                        site,
                        since,
                        epoch: cell.epoch.load(Ordering::Relaxed),
                    });
                }
                Phase::Holding => holders.push((thread, now.saturating_sub(since))),
                Phase::Idle => {}
            }
            if site == INVALID_SITE {
                // Served, abandoned or siteless: any baseline goes.
                baselines[tag] = None;
            }
            for slot in &cell.held {
                let h = slot.load(Ordering::Relaxed);
                if h != 0 {
                    holds.push((thread, h - 1));
                }
            }
        }
        let sited = || waiters.iter().filter(|w| w.site != INVALID_SITE);

        // Thread-level waits-for edges: waiter -> each holder of its
        // site, annotated with the site.
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for w in sited() {
            for &(h, held) in &holds {
                if held == w.site && h != w.thread {
                    edges.push((w.thread, w.site, h));
                }
            }
        }

        let mut findings = Vec::new();
        for cycle in find_cycles(&edges) {
            let mut sites: Vec<u32> = sited()
                .filter(|w| cycle.contains(&w.thread))
                .map(|w| w.site)
                .collect();
            sites.sort_unstable();
            sites.dedup();
            findings.push(GraphFinding::Deadlock {
                threads: cycle,
                sites,
            });
        }

        for w in sited() {
            let passes = profile::global().passes(w.site);
            let slot = &mut baselines[w.thread as usize];
            let seen = slot.filter(|b| (b.site, b.since) == (w.site, w.since));
            let base = *slot.insert(seen.unwrap_or(Baseline {
                site: w.site,
                since: w.since,
                passes,
            }));
            let handoffs = passes.saturating_sub(base.passes);
            if handoffs > h_bound {
                findings.push(GraphFinding::Inversion {
                    thread: w.thread,
                    site: w.site,
                    handoffs,
                    h_bound,
                    waited_ns: now.saturating_sub(w.since),
                });
            }
        }

        // A stall is the fact of last resort: a thread the graph
        // already explains is not reported twice.
        let explained: Vec<u32> = findings.iter().flat_map(GraphFinding::threads).collect();
        let mut stalled: Vec<&Waiter> = waiters
            .iter()
            .filter(|w| now.saturating_sub(w.since) > stall_ns && !explained.contains(&w.thread))
            .collect();
        stalled.sort_by_key(|w| w.since); // longest wait first
        findings.extend(stalled.into_iter().map(|w| GraphFinding::Stall {
            thread: w.thread,
            waited_ns: now.saturating_sub(w.since),
            epoch: w.epoch,
            holders: holders.clone(),
            waiting: waiters.len(),
        }));

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
    /// A waiter past the stall threshold that no deadlock or inversion
    /// explains.
    Stall {
        /// The stalled thread.
        thread: u32,
        /// How long it has been waiting (ns).
        waited_ns: u64,
        /// Its progress epoch (critical sections completed and waits
        /// abandoned before this wait).
        epoch: u64,
        /// Threads currently holding, with how long they have held (ns)
        /// — a long-held lock and a stalled waiter are different bugs.
        holders: Vec<(u32, u64)>,
        /// Total threads currently waiting.
        waiting: usize,
    },
}

impl GraphFinding {
    /// `"deadlock"`, `"inversion"` or `"stall"`.
    pub fn kind(&self) -> &'static str {
        match self {
            GraphFinding::Deadlock { .. } => "deadlock",
            GraphFinding::Inversion { .. } => "inversion",
            GraphFinding::Stall { .. } => "stall",
        }
    }

    /// Threads implicated in the finding.
    pub fn threads(&self) -> Vec<u32> {
        match self {
            GraphFinding::Deadlock { threads, .. } => threads.clone(),
            GraphFinding::Inversion { thread, .. } | GraphFinding::Stall { thread, .. } => {
                vec![*thread]
            }
        }
    }

    /// A stable dedup key: kind + the implicated thread/site identity,
    /// *not* the evolving measurements — repeated polls of one ongoing
    /// finding produce one key. A stall is keyed by its epoch, which
    /// every finished wait (served or abandoned) advances: a thread that
    /// stalls again is a new incident.
    pub fn key(&self) -> String {
        match self {
            GraphFinding::Deadlock { threads, sites } => {
                format!("deadlock:t{threads:?}:s{sites:?}")
            }
            GraphFinding::Inversion { thread, site, .. } => {
                format!("inversion:t{thread}:s{site}")
            }
            GraphFinding::Stall { thread, epoch, .. } => format!("stall:t{thread}:e{epoch}"),
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
                let labels: Vec<String> = sites.iter().map(|&s| Self::site_label(s)).collect();
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
            GraphFinding::Stall {
                thread,
                waited_ns,
                epoch,
                holders,
                waiting,
            } => {
                let holders: Vec<String> = holders
                    .iter()
                    .map(|(t, held)| format!("thread {t} ({:.1} ms)", *held as f64 / 1e6))
                    .collect();
                format!(
                    "stall: thread {thread} waiting {:.1} ms (epoch {epoch}); \
                     {waiting} waiting total; holders: {}",
                    *waited_ns as f64 / 1e6,
                    if holders.is_empty() {
                        "none".to_string()
                    } else {
                        holders.join(", ")
                    },
                )
            }
        }
    }

    /// JSON object for [`render_profile_json`](crate::render_profile_json).
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
            GraphFinding::Stall {
                thread,
                waited_ns,
                epoch,
                holders,
                waiting,
            } => {
                let h: Vec<String> = holders
                    .iter()
                    .map(|(t, ns)| format!("[{t},{ns}]"))
                    .collect();
                format!(
                    "{{\"kind\":\"stall\",\"thread\":{thread},\"waited_ns\":{waited_ns},\
                     \"epoch\":{epoch},\"waiting\":{waiting},\"holders\":[{}],\
                     \"detail\":\"{}\"}}",
                    h.join(","),
                    json_escape(&self.detail())
                )
            }
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
    /// Findings: deadlocks, then inversions, then stalls (longest
    /// first).
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
pub(crate) struct FindingDedup {
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
        let report = table.analyze(u64::MAX, u64::MAX);
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
        let report = table.analyze(u64::MAX, u64::MAX);
        assert_eq!(report.edges, 1);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn handoffs_past_h_bound_flag_an_inversion() {
        let _g = crate::test_lock();
        // Needs a real registered site so the pass clock exists.
        let anchor = registry::global().register("wg-inv", "x");
        let site = anchor.id();
        let table = WaitTable::new();
        table.inject(3, &[], Some(site));
        profile::global().inject_passes(site, 5);
        let report = table.analyze(4, u64::MAX);
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
        assert!(table.analyze(5, u64::MAX).is_clean());
        let detail = inv[0].detail();
        assert!(detail.contains("wg-inv"), "{detail}");
    }

    #[test]
    fn protocol_transitions_build_and_tear_down_edges() {
        let table = WaitTable::new();
        table.acquired(7, 42, now_ns());
        table.wait_at(8, 42, now_ns());
        let report = table.analyze(u64::MAX, u64::MAX);
        assert_eq!(report.edges, 1);
        table.released(7, 42, now_ns());
        table.acquired(8, 42, now_ns());
        let report = table.analyze(u64::MAX, u64::MAX);
        assert_eq!(report.edges, 0);
        assert_eq!(report.threads_waiting, 0);
        table.released(8, 42, now_ns());
        assert_eq!(table.analyze(u64::MAX, u64::MAX).holds, 0);
        assert_eq!(table.phase(8), Phase::Idle);
        assert_eq!(table.cells[8].epoch.load(Ordering::Relaxed), 1);
        // Tags past the table are not tracked, never an out-of-bounds.
        table.wait_at(MAX_GRAPH_THREADS as u32, 42, now_ns());
        assert_eq!(table.phase(MAX_GRAPH_THREADS as u32), Phase::Idle);
        assert_eq!(table.analyze(u64::MAX, 0).threads_waiting, 0);
    }

    #[test]
    fn the_observer_takes_the_baseline_and_drops_it_with_the_wait() {
        let _g = crate::test_lock();
        let anchor = registry::global().register("wg-observer", "x");
        let site = anchor.id();
        let table = WaitTable::new();
        // Passes before anyone looked do not count against the waiter.
        table.wait_at(5, site, 1000);
        profile::global().inject_passes(site, 10);
        assert!(
            table.analyze(4, u64::MAX).is_clean(),
            "first sighting only takes the baseline"
        );
        profile::global().inject_passes(site, 4);
        assert!(table.analyze(4, u64::MAX).is_clean(), "at the bound");
        profile::global().inject_passes(site, 1);
        let report = table.analyze(4, u64::MAX);
        assert!(
            matches!(
                report.findings[..],
                [GraphFinding::Inversion {
                    thread: 5,
                    handoffs: 5,
                    ..
                }]
            ),
            "{:?}",
            report.findings
        );
        // The wait is abandoned; an observer sees the idle slot and
        // forgets the baseline, so a later wait on the same site starts
        // from scratch however far the clock ran in between.
        table.wait_cancelled(5, now_ns());
        assert!(table.analyze(4, u64::MAX).is_clean());
        profile::global().inject_passes(site, 100);
        table.wait_at(5, site, 2000);
        assert!(table.analyze(4, u64::MAX).is_clean());
        // Even unobserved, a new wait never inherits an old baseline:
        // it is a different (site, since).
        table.wait_at(5, site, 3000);
        profile::global().inject_passes(site, 100);
        assert!(table.analyze(4, u64::MAX).is_clean());
    }

    #[test]
    fn a_waiter_past_stall_ns_is_a_stall_with_its_holders() {
        let table = WaitTable::new();
        table.wait_at(3, 42, now_ns());
        table.acquired(7, 42, now_ns());
        // Ensure measurable elapsed time on coarse clocks.
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(
            table.analyze(u64::MAX, u64::MAX).is_clean(),
            "generous threshold"
        );
        let report = table.analyze(u64::MAX, 1);
        match &report.findings[..] {
            [GraphFinding::Stall {
                thread: 3,
                waited_ns,
                epoch: 0,
                holders,
                waiting: 1,
            }] => {
                assert!(*waited_ns > 1_000_000, "{waited_ns}");
                assert_eq!(holders.len(), 1);
                assert_eq!(holders[0].0, 7);
            }
            other => panic!("expected one stall, got {other:?}"),
        }
        let line = report.findings[0].detail();
        assert!(line.contains("stall: thread 3"), "{line}");
        assert!(line.contains("holders: thread 7"), "{line}");
    }

    /// A lock whose registration found the site table full has no
    /// profiler site: its waiters are seen by the stall check but build
    /// no waits-for edge.
    #[test]
    fn a_siteless_waiter_stalls_without_an_edge() {
        let table = WaitTable::new();
        table.acquired(1, INVALID_SITE, now_ns());
        table.wait_at(2, INVALID_SITE, now_ns());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let report = table.analyze(0, 1);
        assert_eq!(
            (report.edges, report.holds, report.threads_waiting),
            (0, 0, 1)
        );
        assert!(
            matches!(report.findings[..], [GraphFinding::Stall { thread: 2, .. }]),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn an_abandoned_or_served_wait_is_not_a_stall() {
        let table = WaitTable::new();
        table.wait_at(2, INVALID_SITE, 1);
        table.wait_cancelled(2, now_ns());
        table.wait_at(3, 42, 1);
        table.acquired(3, 42, now_ns());
        table.released(3, 42, now_ns());
        let report = table.analyze(0, 0);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.threads_waiting, 0);
        // Either way the wait is over, so a retry is a new epoch.
        assert_eq!(table.cells[2].epoch.load(Ordering::Relaxed), 1);
        assert_eq!(table.cells[3].epoch.load(Ordering::Relaxed), 1);
    }

    /// One stuck thread, one finding: a waiter that is both past the
    /// stall threshold and on a waits-for cycle is reported as the
    /// deadlock (which explains it), and as nothing else.
    #[test]
    fn a_stalled_thread_on_a_cycle_is_one_finding() {
        let table = WaitTable::new();
        table.inject(1, &[10], Some(11));
        table.inject(2, &[11], Some(10));
        table.wait_at(3, INVALID_SITE, now_ns());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let report = table.analyze(u64::MAX, 1);
        let kinds: Vec<(&str, Vec<u32>)> = report
            .findings
            .iter()
            .map(|f| (f.kind(), f.threads()))
            .collect();
        assert_eq!(kinds, vec![("deadlock", vec![1, 2]), ("stall", vec![3])]);
        let GraphFinding::Stall { waiting, .. } = &report.findings[1] else {
            unreachable!()
        };
        assert_eq!(*waiting, 3, "absorbed waiters still count as waiting");
    }

    #[test]
    fn exited_threads_return_their_tags() {
        // Other tests of this binary hold a few tags of their own — far
        // fewer than the table, which is all the bound has to show.
        let spawned = 2 * MAX_GRAPH_THREADS;
        for i in 0..spawned {
            let (tag, seen) = std::thread::spawn(|| {
                let tag = crate::thread_tag();
                global().wait_at(tag, INVALID_SITE, now_ns());
                let seen = global().phase(tag) == Phase::Waiting;
                global().wait_cancelled(tag, now_ns());
                (tag, seen)
            })
            .join()
            .unwrap();
            assert!(tag < 128, "thread {i} of {spawned} got tag {tag}");
            assert!(seen, "thread {i} (tag {tag}) is invisible to the table");
        }
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
        let s = GraphFinding::Stall {
            thread: 4,
            waited_ns: 5,
            epoch: 6,
            holders: vec![(7, 8)],
            waiting: 1,
        };
        let j = s.to_json();
        assert!(j.contains("\"kind\":\"stall\""), "{j}");
        assert!(j.contains("\"holders\":[[7,8]]"), "{j}");
        assert_eq!(s.key(), "stall:t4:e6");
    }
}
