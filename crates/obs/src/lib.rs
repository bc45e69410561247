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
//!   recorder per lock handle holding what the acquire side observes
//!   (the histograms below, and the pass-inheriting wins),
//!   written into lines no other thread writes and summed per lock at
//!   snapshot time.
//! * [`LevelSnapshot`] — one hierarchy level: acquires, contended
//!   (pass-inheriting) acquires, lock passes taken/declined,
//!   `keep_local` threshold resets, native waiter-hint fast-path hits;
//!   all but the contended acquires are the lock's own owner-line
//!   counts, which the [`ShardSet`] reads through its [`Counts`].
//! * [`LogHistogram`] — a power-of-two-bucketed (HDR-style) histogram
//!   for acquire latency and critical-section hold time, with merge and
//!   p50/p90/p99/max queries.
//! * [`LockSnapshot`] + [`render_json`]/[`render_prometheus`] — a
//!   point-in-time copy of everything above, with text exporters and a
//!   human-readable `Display`. The crate opens no sockets: to serve a
//!   snapshot, embed `render_prometheus` behind your own `/metrics`
//!   handler, or scrape a file that `clof stats --format prometheus`
//!   refreshes.
//!
//! The online layer on top (PR 3):
//!
//! * [`trace`] — per-thread lock-free span buffers recording
//!   acquire/hold/release transitions with hand-off causality edges,
//!   exported as Chrome trace-event JSON ([`render_chrome_trace`]) for
//!   Perfetto: the one record of individual hand-off decisions.
//! * [`analyze`](mod@analyze) — ownership-timeline reconstruction,
//!   pass-chain length distribution (the `keep_local` *H* bound,
//!   checkable), per-level wait attribution, and a fairness CDF from a
//!   [`Trace`].
//! * [`window`] — [`LockSnapshot::delta`] and a [`Sampler`] turning
//!   cumulative snapshots into per-window rates ([`WindowRates`]) so
//!   telemetry is usable mid-run.
//! * [`policy`] — the online adaptation policy: a deterministic
//!   [`HysteresisController`] that estimates offered concurrency from
//!   [`WindowRates`] (Little's law) and decides when a different
//!   finalist composition should take over the lock.
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
pub mod export;
pub mod hist;
pub mod policy;
pub mod profile;
pub mod registry;
mod ring;
pub mod shard;
pub mod trace;
pub mod window;

pub use analyze::{analyze, ownership_timeline, ChainStats, FairnessCdf, LevelWait, TraceAnalysis};
pub use audit::{AuditReason, AuditRecord, AuditRing};
pub use export::{render_json, render_prometheus, LevelSnapshot, LockSnapshot};
pub use hist::{HistSnapshot, LogHistogram, HIST_BUCKETS};
pub use policy::{
    AdaptDecision, FinalistProfile, HysteresisConfig, HysteresisController, WindowObservation,
};
pub use profile::{
    render_folded, render_profile_json, ContentionProfile, NodeProfile, ProfileSnapshot,
    SiteProfile, PROFILE_MARKER,
};
pub use registry::{SiteAnchor, SiteInfo, SiteRegistry, INVALID_SITE, MAX_SITES};
pub use shard::{Counts, Shard, ShardSet};
pub use trace::{render_chrome_trace, SpanEvent, SpanKind, Trace};
pub use window::{Sampler, WindowRates};

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Single-writer increment: a relaxed load + store, never a locked RMW,
/// so telemetry adds no ordering the protocol does not need (§4.2.3).
/// Only the counter's one writer may call it.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, by: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

/// Nanoseconds since the process-wide observation epoch (the first call).
///
/// Monotonic (backed by [`Instant`]). One read costs about 35 ns on the
/// 2-CPU reference host, and ~70 ns on a lock's serial path, so the lock
/// recorders budget it: two reads per acquire→release (acquire entry,
/// release entry), plus one per level that waited for a lock nobody
/// passed. Every other level is won at a stamp already taken — the
/// releaser's hand-off stamp or the previous transition's — and each
/// read is shared by every consumer of its transition. All timestamps in
/// this crate share this epoch, so traces from different locks in one
/// process are directly comparable.
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

/// A small id for the calling thread: the `thread` of trace spans, and
/// its stripe in the profiler's park accumulator.
///
/// Assigned on first use, distinct per thread and stable within a
/// thread. `u32::MAX` while the thread's TLS is being torn down.
#[inline]
pub fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.try_with(|t| *t).unwrap_or(u32::MAX)
}

/// Serialises the unit tests that share process-global state — the
/// site registry, the profile table and the tracer — so that one test
/// never claims a site slot, or records a span, that another is still
/// asserting on.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
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
