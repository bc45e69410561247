//! Per-level relaxed counters for the composition protocol's decision
//! points.
//!
//! Every counter has one writer at a time — the handle that owns the
//! enclosing [`crate::Shard`], or the current owner of a node's low lock
//! in the static composition — so an increment is a relaxed load + store,
//! never a locked RMW, and telemetry adds no ordering the protocol does
//! not need (the paper's VSync analysis maximally relaxes every auxiliary
//! access, §4.2.3). Totals are exact at quiescence and approximate while
//! threads are mid-acquire — the same contract as the composition's own
//! read indicator.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for one cohort node (aggregated per level at snapshot time).
#[derive(Debug, Default)]
pub struct LevelCounters {
    /// Low-lock acquisitions through this node.
    acquires: AtomicU64,
    /// Acquisitions that found the high lock already passed to the
    /// cohort (`has_high_lock` set) — the intra-cohort contention
    /// signal. At quiescence this equals `passes_taken`: every pass is
    /// consumed by exactly one successor.
    contended_acquires: AtomicU64,
    /// Release decisions that passed the high lock within the cohort.
    passes_taken: AtomicU64,
    /// Release decisions that surrendered the high lock upward.
    passes_declined: AtomicU64,
    /// Declines forced by the `keep_local` threshold (waiters existed,
    /// but *H* consecutive hand-offs were already spent).
    keep_local_resets: AtomicU64,
    /// Releases whose waiter question was answered by the basic lock's
    /// native `has_waiters` hint (no read-indicator traffic).
    hint_fast_hits: AtomicU64,
}

/// Single-writer increment: see the module docs for who may call it.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(by), Ordering::Relaxed);
}

impl LevelCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one low-lock acquisition; `inherited` is whether the
    /// acquire found the high lock passed to it.
    #[inline]
    pub fn record_acquire(&self, inherited: bool) {
        bump(&self.acquires, 1);
        if inherited {
            bump(&self.contended_acquires, 1);
        }
    }

    /// Records a release that passed the high lock within the cohort.
    #[inline]
    pub fn record_pass_taken(&self) {
        bump(&self.passes_taken, 1);
    }

    /// Records a release that surrendered the high lock. `threshold_hit`
    /// is whether waiters existed but `keep_local` refused (threshold
    /// reset).
    #[inline]
    pub fn record_pass_declined(&self, threshold_hit: bool) {
        bump(&self.passes_declined, 1);
        if threshold_hit {
            bump(&self.keep_local_resets, 1);
        }
    }

    /// Records that the release consulted the native waiter hint.
    #[inline]
    pub fn record_hint_hit(&self) {
        bump(&self.hint_fast_hits, 1);
    }

    /// Point-in-time copy (exact at quiescence).
    pub fn snapshot(&self, level: usize) -> LevelSnapshot {
        LevelSnapshot {
            level,
            acquires: self.acquires.load(Ordering::Relaxed),
            contended_acquires: self.contended_acquires.load(Ordering::Relaxed),
            passes_taken: self.passes_taken.load(Ordering::Relaxed),
            passes_declined: self.passes_declined.load(Ordering::Relaxed),
            keep_local_resets: self.keep_local_resets.load(Ordering::Relaxed),
            hint_fast_hits: self.hint_fast_hits.load(Ordering::Relaxed),
            acquire_ns: crate::HistSnapshot::default(),
        }
    }
}

/// Plain-data snapshot of one level's counters (summed across cohorts),
/// plus that level's acquire-latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelSnapshot {
    /// Level index, 0 = innermost.
    pub level: usize,
    /// Low-lock acquisitions.
    pub acquires: u64,
    /// Acquisitions that inherited a passed high lock.
    pub contended_acquires: u64,
    /// Intra-cohort passes.
    pub passes_taken: u64,
    /// Upward releases.
    pub passes_declined: u64,
    /// Upward releases forced by the `keep_local` threshold.
    pub keep_local_resets: u64,
    /// Releases answered by the native waiter hint.
    pub hint_fast_hits: u64,
    /// Acquire-latency distribution at this level (low-lock wait only).
    pub acquire_ns: crate::HistSnapshot,
}

impl LevelSnapshot {
    /// Fraction of release decisions that stayed local — the locality
    /// this level achieved. 0.0 when no decision was taken (root level).
    pub fn pass_rate(&self) -> f64 {
        let total = self.passes_taken + self.passes_declined;
        if total == 0 {
            0.0
        } else {
            self.passes_taken as f64 / total as f64
        }
    }

    /// Field-wise sum (for aggregating sibling cohorts of one level).
    pub fn merge(&mut self, other: &LevelSnapshot) {
        debug_assert_eq!(self.level, other.level);
        self.acquires += other.acquires;
        self.contended_acquires += other.contended_acquires;
        self.passes_taken += other.passes_taken;
        self.passes_declined += other.passes_declined;
        self.keep_local_resets += other.keep_local_resets;
        self.hint_fast_hits += other.hint_fast_hits;
        self.acquire_ns.merge(&other.acquire_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let c = LevelCounters::new();
        c.record_acquire(false);
        c.record_acquire(true);
        c.record_pass_taken();
        c.record_pass_declined(true);
        c.record_pass_declined(false);
        c.record_hint_hit();
        let s = c.snapshot(1);
        assert_eq!(s.level, 1);
        assert_eq!(s.acquires, 2);
        assert_eq!(s.contended_acquires, 1);
        assert_eq!(s.passes_taken, 1);
        assert_eq!(s.passes_declined, 2);
        assert_eq!(s.keep_local_resets, 1);
        assert_eq!(s.hint_fast_hits, 1);
        assert!((s.pass_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let a = LevelCounters::new();
        a.record_acquire(false);
        let b = LevelCounters::new();
        b.record_acquire(true);
        b.record_pass_taken();
        let mut s = a.snapshot(0);
        s.merge(&b.snapshot(0));
        assert_eq!(s.acquires, 2);
        assert_eq!(s.contended_acquires, 1);
        assert_eq!(s.passes_taken, 1);
    }

    #[test]
    fn pass_rate_zero_without_decisions() {
        assert_eq!(LevelCounters::new().snapshot(0).pass_rate(), 0.0);
    }
}
