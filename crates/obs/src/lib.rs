//! Lock telemetry for the CLoF composition layer.
//!
//! CLoF *selects* locks from measurements, but throughput alone cannot
//! explain **why** a composition wins: how often the high lock is passed
//! within a cohort, how often `keep_local` hits its threshold, what the
//! per-level acquisition-latency distribution looks like. This crate is
//! the in-tree answer — the same internal statistics the Compact
//! NUMA-Aware Locks line of work argues from (intra-node hand-offs vs.
//! remote transfers), recorded by the composition protocol itself.
//!
//! Pieces, all zero-dependency and lock-free on the write path:
//!
//! * [`Shard`] / [`ShardSet`] — the data plane: one single-writer
//!   recorder per lock handle holding everything below, written into
//!   lines no other thread writes and summed per lock at snapshot time.
//! * [`LevelCounters`] — relaxed single-writer counters for one
//!   hierarchy level: acquires, contended (pass-inheriting) acquires,
//!   lock passes taken/declined, `keep_local` threshold resets, native
//!   waiter-hint fast-path hits.
//! * [`LogHistogram`] — a power-of-two-bucketed (HDR-style) histogram
//!   for acquire latency and critical-section hold time, with merge and
//!   p50/p90/p99/max queries.
//! * [`EventRing`] — a fixed-capacity single-writer ring of timestamped
//!   lock-passing events, so a failing fairness run can be replayed as a
//!   hand-off trace.
//! * [`LockSnapshot`] + [`render_json`]/[`render_prometheus`] — a
//!   point-in-time copy of everything above, with text exporters and a
//!   human-readable `Display`.
//!
//! The online layer on top (PR 3):
//!
//! * [`trace`] — per-thread lock-free span buffers recording
//!   acquire/hold/release transitions with hand-off causality edges,
//!   exported as Chrome trace-event JSON ([`render_chrome_trace`]) for
//!   Perfetto.
//! * [`analyze`] — ownership-timeline reconstruction, pass-chain length
//!   distribution (the `keep_local` *H* bound, checkable), per-level
//!   wait attribution, and a fairness CDF from a [`Trace`].
//! * [`window`] — [`LockSnapshot::delta`] and a [`Sampler`] turning
//!   cumulative snapshots into per-window rates ([`WindowRates`]) so
//!   telemetry is usable mid-run.
//! * [`watchdog`] — per-thread progress epochs plus a background
//!   [`Watchdog`] flagging waiters stalled past a threshold, with a
//!   diagnostic dump.
//! * [`policy`] — the online adaptation policy: a deterministic
//!   [`HysteresisController`] that estimates offered concurrency from
//!   [`WindowRates`] (Little's law) and decides when a different
//!   finalist composition should take over the lock.
//!
//! The serving layer (PR 7):
//!
//! * [`serve`] — a zero-dependency HTTP/1.1 scrape endpoint
//!   (`/metrics`, `/snapshot`, `/health`, `/alerts`) with bounded
//!   workers, graceful shutdown, and self-accounting
//!   (`clof_obs_scrape_duration_ns` — the server exports its own cost).
//! * [`slo`] — deterministic multi-window burn-rate SLO evaluation over
//!   [`WindowRates`] (p99 hold-time / handover-latency objectives,
//!   k-consecutive hysteresis) plus a liveness alert fed by
//!   [`StallReport`]s.
//! * [`audit`] — a fixed-capacity lock-free ring of adaptation
//!   decisions: every [`policy`] verdict and every hot-swap migration,
//!   with the window rates and margins that justified it.
//!
//! The contention profiler (PR 8):
//!
//! * [`registry`] — a process-global lock-site registry: every
//!   constructed lock auto-registers a site (label + topology shape +
//!   construction `file:line`), survives adaptation swaps with a stable
//!   site id, and deregisters on drop.
//! * [`profile`] — per-site wait/hold attribution with a
//!   per-(level, node) breakdown, computed from the site's shards, with
//!   exact windowed deltas and a folded-stack exporter for standard
//!   flamegraph tooling.
//! * [`waitgraph`] — a bounded waits-for graph over sites and threads,
//!   with cycle detection (deadlock) and `keep_local`-gap-bound
//!   starvation detection (priority/NUMA inversion), feeding deduped
//!   findings into the `/alerts` path.
//!
//! `clof-core` records into these types only when compiled with its
//! `obs` cargo feature; the default build carries no `clof-obs` symbols
//! at all (the same strictly-compile-time gating as the `testkit` chaos
//! hooks).
//!
//! [`render_json`]: export::render_json
//! [`render_prometheus`]: export::render_prometheus

#![warn(missing_docs)]

pub mod analyze;
pub mod audit;
pub mod counters;
pub mod deadline;
pub mod export;
pub mod hist;
pub mod park;
pub mod policy;
pub mod profile;
pub mod registry;
pub mod ring;
pub mod serve;
pub mod shard;
pub mod slo;
pub mod trace;
pub mod waitgraph;
pub mod watchdog;
pub mod window;

pub use analyze::{analyze, ownership_timeline, ChainStats, FairnessCdf, LevelWait, TraceAnalysis};
pub use audit::{render_audit_json, AuditReason, AuditRecord, AuditRing};
pub use counters::{LevelCounters, LevelSnapshot};
pub use deadline::{
    deadline_stats, render_deadline_json, render_deadline_prometheus, DeadlineStats,
};
pub use export::{render_json, render_prometheus, LockSnapshot};
pub use hist::{HistSnapshot, LogHistogram, HIST_BUCKETS};
pub use park::{park_stats, render_park_json, render_park_prometheus, ParkStats};
pub use policy::{
    AdaptDecision, FinalistProfile, HysteresisConfig, HysteresisController, WindowObservation,
};
pub use profile::{
    render_folded, render_profile_json, ContentionProfile, NodeProfile, ProfileSnapshot,
    SiteProfile, PROFILE_MARKER,
};
pub use registry::{SiteAnchor, SiteInfo, SiteRegistry, INVALID_SITE, MAX_SITES};
pub use ring::{EventRing, PassEvent, PassKind};
pub use serve::{http_get, serve, ServeConfig, ServerHandle, SnapshotFn};
pub use shard::{Shard, ShardSet};
pub use slo::{
    default_rules, render_alerts_json, AlertStatus, AlertTransition, SloEvaluator, SloRule,
    SloSignal,
};
pub use trace::{render_chrome_trace, SpanEvent, SpanKind, Trace};
pub use waitgraph::{FindingDedup, GraphFinding, GraphReport, WaitTable, MAX_GRAPH_THREADS};
pub use watchdog::{ProgressRegistry, StallReport, Watchdog, WatchdogConfig, WatchdogGuard};
pub use window::{Sampler, WindowRates};

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide observation epoch (the first call).
///
/// Monotonic (backed by [`Instant`]). One read costs about 35 ns on the
/// 2-CPU reference host, so the lock hooks budget it: one read per
/// transition (acquire entry, each level won, release) — 3 on the pass
/// path, `levels + 2` on a full climb — shared by every consumer of the
/// transition. All timestamps in this crate share this epoch, so traces
/// from different locks in one process are directly comparable.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    #[cfg(debug_assertions)]
    CLOCK_READS.with(|c| c.set(c.get() + 1));
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(debug_assertions)]
thread_local! {
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`now_ns`] calls made by the calling thread so far. Debug builds
/// only: the clock-budget tests difference it around one acquire.
#[cfg(debug_assertions)]
pub fn clock_reads() -> u64 {
    CLOCK_READS.with(std::cell::Cell::get)
}

/// Tags returned by exited threads, handed out again smallest first so
/// the live set stays dense in the fixed per-thread tables.
static FREE_TAGS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// A thread's claim on its tag; the TLS destructor returns it.
struct TagLease(u32);

impl TagLease {
    fn claim() -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let mut free = FREE_TAGS.lock().unwrap_or_else(|p| p.into_inner());
        let smallest = (0..free.len()).min_by_key(|&i| free[i]);
        TagLease(match smallest {
            Some(i) => free.swap_remove(i),
            None => NEXT.fetch_add(1, Ordering::Relaxed),
        })
    }
}

impl Drop for TagLease {
    fn drop(&mut self) {
        FREE_TAGS
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(self.0);
    }
}

/// A small dense id for the calling thread: the index of its slot in
/// the watchdog and waits-for tables, and the `thread` of ring events.
///
/// Assigned on first use, distinct among live threads and stable within
/// a thread; an exiting thread's tag is recycled, so thread churn never
/// runs past the tables. `u32::MAX` (outside every table) while the
/// thread's TLS is being torn down.
#[inline]
pub fn thread_tag() -> u32 {
    thread_local! {
        static TAG: TagLease = TagLease::claim();
    }
    TAG.try_with(|t| t.0).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_tags_are_distinct_per_thread() {
        let mine = thread_tag();
        assert_eq!(mine, thread_tag(), "stable within a thread");
        let other = std::thread::spawn(thread_tag).join().unwrap();
        assert_ne!(mine, other);
    }
}
