//! Windowed telemetry: snapshot deltas and a rate sampler.
//!
//! Counters and histograms are cumulative — perfect for a finished run,
//! useless mid-run ("how many acquires/s *now*?"). This module turns
//! two cumulative [`LockSnapshot`]s into a window: `later.delta(&earlier)`
//! subtracts every counter and histogram bucket, and a [`Sampler`]
//! timestamps successive snapshots to convert deltas into rates.
//!
//! Delta semantics: counters subtract exactly (they are monotone at
//! quiescence); histogram buckets subtract per bucket, so windowed
//! quantiles are exact to bucket resolution. The windowed `max` is the
//! later snapshot's cumulative max — an upper bound for the window, not
//! the window's own max (a histogram cannot un-see an old maximum); it
//! still caps quantiles correctly since windowed samples are a subset.
//! Individual hand-offs are the tracer's ([`crate::trace`]), not a
//! window's.

use crate::{now_ns, HistSnapshot, LevelSnapshot, LockSnapshot, HIST_BUCKETS};

impl HistSnapshot {
    /// Samples recorded after `earlier` was taken, bucket-wise.
    /// Saturating per field, so a mismatched pair degrades to zeros
    /// instead of wrapping. `max` is inherited from `self` (see module
    /// docs).
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        HistSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: if self.count > earlier.count {
                self.max
            } else {
                0
            },
        }
    }
}

impl LevelSnapshot {
    /// Counter-wise difference `self - earlier` (same level).
    pub fn delta(&self, earlier: &LevelSnapshot) -> LevelSnapshot {
        debug_assert_eq!(self.level, earlier.level);
        LevelSnapshot {
            level: self.level,
            acquires: self.acquires.saturating_sub(earlier.acquires),
            contended_acquires: self
                .contended_acquires
                .saturating_sub(earlier.contended_acquires),
            passes_taken: self.passes_taken.saturating_sub(earlier.passes_taken),
            passes_declined: self.passes_declined.saturating_sub(earlier.passes_declined),
            keep_local_resets: self
                .keep_local_resets
                .saturating_sub(earlier.keep_local_resets),
            hint_fast_hits: self.hint_fast_hits.saturating_sub(earlier.hint_fast_hits),
            acquire_ns: self.acquire_ns.delta(&earlier.acquire_ns),
        }
    }
}

impl LockSnapshot {
    /// Everything that happened between `earlier` and `self`: per-level
    /// counter and histogram deltas, and the hold-time delta. Levels
    /// present in `self` but not `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &LockSnapshot) -> LockSnapshot {
        let levels = self
            .levels
            .iter()
            .map(|l| match earlier.levels.iter().find(|e| e.level == l.level) {
                Some(e) => l.delta(e),
                None => l.clone(),
            })
            .collect();
        LockSnapshot {
            name: self.name.clone(),
            levels,
            hold_ns: self.hold_ns.delta(&earlier.hold_ns),
        }
    }
}

/// Rates computed from one sampling window.
#[derive(Debug, Clone)]
pub struct WindowRates {
    /// Window length in nanoseconds.
    pub window_ns: u64,
    /// The raw delta the rates were computed from.
    pub delta: LockSnapshot,
    /// Innermost-level acquisitions per second (== lock acquisitions).
    pub acquires_per_sec: f64,
    /// Intra-cohort passes per second, summed over non-root levels.
    pub passes_per_sec: f64,
    /// Upward releases per second, summed over non-root levels.
    pub releases_up_per_sec: f64,
    /// p99 of the innermost level's acquire latency within the window
    /// (ns; bucket-resolution upper estimate).
    pub acquire_p99_ns: u64,
    /// p99 critical-section hold time within the window (ns).
    pub hold_p99_ns: u64,
}

impl WindowRates {
    fn from_delta(window_ns: u64, delta: LockSnapshot) -> Self {
        let secs = (window_ns.max(1)) as f64 / 1e9;
        let acquires = delta.total_acquires();
        let non_root = &delta.levels[..delta.levels.len().saturating_sub(1)];
        let passes: u64 = non_root.iter().map(|l| l.passes_taken).sum();
        let ups: u64 = non_root.iter().map(|l| l.passes_declined).sum();
        WindowRates {
            window_ns,
            acquires_per_sec: acquires as f64 / secs,
            passes_per_sec: passes as f64 / secs,
            releases_up_per_sec: ups as f64 / secs,
            acquire_p99_ns: delta.levels.first().map_or(0, |l| l.acquire_ns.p99()),
            hold_p99_ns: delta.hold_ns.p99(),
            delta,
        }
    }
}

impl std::fmt::Display for WindowRates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:8.1} ms window: {:>10.0} acq/s  {:>10.0} pass/s  {:>8.0} up/s  \
             p99 acq {} ns  p99 hold {} ns",
            self.window_ns as f64 / 1e6,
            self.acquires_per_sec,
            self.passes_per_sec,
            self.releases_up_per_sec,
            self.acquire_p99_ns,
            self.hold_p99_ns,
        )
    }
}

/// Turns a stream of cumulative snapshots into windowed rates.
///
/// Feed it [`LockSnapshot`]s (`DynClofLock::obs_snapshot`, kvstore
/// `stats()`, ...) at whatever cadence; each [`tick`](Sampler::tick)
/// returns the rates since the previous tick (`None` on the first —
/// there is no window yet).
#[derive(Debug, Default)]
pub struct Sampler {
    prev: Option<(u64, LockSnapshot)>,
}

impl Sampler {
    /// A sampler with no baseline yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next cumulative snapshot, timestamped now.
    pub fn tick(&mut self, snap: LockSnapshot) -> Option<WindowRates> {
        self.tick_at(now_ns(), snap)
    }

    /// [`tick`](Self::tick) with an explicit timestamp (same epoch as
    /// [`now_ns`]) — deterministic windows for tests.
    ///
    /// Degenerate windows yield `None` and restart the baseline instead
    /// of fabricating rates:
    ///
    /// * **zero-duration window** (`at_ns <=` previous tick, e.g. two
    ///   ticks inside one timer quantum) — a rate over no time is not a
    ///   number we want anyone dividing by;
    /// * **non-monotone snapshot** — the counters regressed or the lock's
    ///   name changed since the baseline. That happens when the lock
    ///   behind the sampler was hot-swapped (the new composition's
    ///   counters start at zero): the stale baseline belongs to a
    ///   different lock, so the "delta" would be garbage held below zero
    ///   only by saturation. The new snapshot becomes the fresh baseline.
    pub fn tick_at(&mut self, at_ns: u64, snap: LockSnapshot) -> Option<WindowRates> {
        let out = match &self.prev {
            Some((t0, earlier)) => {
                let window = at_ns.saturating_sub(*t0);
                if window == 0 || !monotone_since(earlier, &snap) {
                    None
                } else {
                    Some(WindowRates::from_delta(window, snap.delta(earlier)))
                }
            }
            None => None,
        };
        self.prev = Some((at_ns, snap));
        out
    }

    /// Drops the baseline; the next tick starts a fresh window.
    pub fn reset(&mut self) {
        self.prev = None;
    }
}

/// `later` plausibly continues the counter stream `earlier` came from:
/// same lock name, and the cumulative totals have not gone backwards.
fn monotone_since(earlier: &LockSnapshot, later: &LockSnapshot) -> bool {
    later.name == earlier.name
        && later.total_acquires() >= earlier.total_acquires()
        && later.hold_ns.count >= earlier.hold_ns.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LevelSnapshot, LogHistogram};

    fn snap_with(acquires: u64, passes: u64, hold_samples: &[u64]) -> LockSnapshot {
        let acq_hist = LogHistogram::new();
        for i in 0..acquires {
            acq_hist.record(100 + i);
        }
        let l0 = LevelSnapshot {
            level: 0,
            acquires,
            contended_acquires: passes,
            passes_taken: passes,
            passes_declined: acquires - passes,
            acquire_ns: acq_hist.snapshot(),
            ..Default::default()
        };
        let l1 = LevelSnapshot {
            level: 1,
            acquires: acquires - passes,
            ..Default::default()
        };
        let hold = LogHistogram::new();
        for &v in hold_samples {
            hold.record(v);
        }
        LockSnapshot {
            name: "w".into(),
            levels: vec![l0, l1],
            hold_ns: hold.snapshot(),
        }
    }

    #[test]
    fn delta_subtracts_counters_and_buckets() {
        let early = snap_with(10, 4, &[50, 60]);
        let late = snap_with(25, 9, &[50, 60, 70, 80]);
        let d = late.delta(&early);
        assert_eq!(d.levels[0].acquires, 15);
        assert_eq!(d.levels[0].passes_taken, 5);
        assert_eq!(d.levels[0].acquire_ns.count, 15);
        assert_eq!(d.hold_ns.count, 2);
        assert_eq!(
            d.levels[0].acquire_ns.buckets.iter().sum::<u64>(),
            15,
            "bucket-wise subtraction must preserve the count"
        );
    }

    #[test]
    fn delta_of_identical_snapshots_is_zero() {
        let s = snap_with(10, 4, &[50]);
        let d = s.delta(&s);
        assert_eq!(d.total_acquires(), 0);
        assert_eq!(d.hold_ns.count, 0);
        assert_eq!(d.hold_ns.p99(), 0);
        assert_eq!(d.hold_ns.max, 0, "empty window reports no max");
    }

    #[test]
    fn sampler_first_tick_has_no_window() {
        let mut s = Sampler::new();
        assert!(s.tick_at(1_000, snap_with(5, 0, &[])).is_none());
        let r = s
            .tick_at(2_000_000_000 + 1_000, snap_with(105, 20, &[40]))
            .expect("second tick closes a window");
        assert_eq!(r.window_ns, 2_000_000_000);
        // 100 acquires over 2 s.
        assert!((r.acquires_per_sec - 50.0).abs() < 1e-9);
        assert!((r.passes_per_sec - 10.0).abs() < 1e-9);
        assert_eq!(r.delta.total_acquires(), 100);
    }

    #[test]
    fn sampler_reset_restarts_baseline() {
        let mut s = Sampler::new();
        s.tick_at(0, snap_with(5, 0, &[]));
        s.reset();
        assert!(s.tick_at(10, snap_with(6, 0, &[])).is_none());
    }

    #[test]
    fn windowed_p99_reflects_only_the_window() {
        // Early snapshot has a huge outlier; the window after it only
        // has small samples, so the windowed p99 must be small.
        let h = LogHistogram::new();
        h.record(1 << 30);
        let early = h.snapshot();
        for _ in 0..100 {
            h.record(100);
        }
        let d = h.snapshot().delta(&early);
        assert_eq!(d.count, 100);
        assert!(d.p99() <= 128, "windowed p99 {} must ignore the old outlier", d.p99());
    }

    #[test]
    fn zero_duration_window_yields_no_rates() {
        let mut s = Sampler::new();
        s.tick_at(1_000, snap_with(5, 0, &[]));
        // Same timestamp again: no time has passed, so there is no rate.
        assert!(s.tick_at(1_000, snap_with(50, 0, &[])).is_none());
        // And a timestamp that went *backwards* (clock quantum, reordered
        // readers) is the same degenerate case.
        assert!(s.tick_at(500, snap_with(60, 0, &[])).is_none());
        // The degenerate tick still re-baselined: the next well-formed
        // window measures from it, finite and non-negative.
        let r = s
            .tick_at(1_000_000_500, snap_with(70, 0, &[]))
            .expect("fresh baseline closes the next window");
        assert!(r.acquires_per_sec.is_finite());
        assert!(r.acquires_per_sec >= 0.0);
        assert_eq!(r.delta.total_acquires(), 10);
    }

    #[test]
    fn stale_baseline_across_swap_resets_instead_of_lying() {
        // A hot-swap replaces the lock behind the sampler: the new
        // composition's counters restart from zero and its name differs.
        // The sampler must not "subtract" the old lock's totals.
        let mut s = Sampler::new();
        s.tick_at(0, snap_with(1_000, 100, &[40]));
        let mut swapped = snap_with(3, 0, &[]);
        swapped.name = "post-swap".into();
        assert!(
            s.tick_at(1_000_000_000, swapped).is_none(),
            "cross-swap delta must be discarded, not fabricated"
        );
        // Window after the reset covers only post-swap traffic.
        let mut later = snap_with(53, 0, &[40]);
        later.name = "post-swap".into();
        let r = s.tick_at(2_000_000_000, later).expect("post-swap window");
        assert_eq!(r.delta.total_acquires(), 50);
        assert!((r.acquires_per_sec - 50.0).abs() < 1e-9);
        assert!(r.acquires_per_sec.is_finite() && r.acquires_per_sec >= 0.0);
    }

    #[test]
    fn counter_regression_without_name_change_also_resets() {
        // Same name, but totals went backwards (swap to an identical
        // composition, or a counter reset): still a new baseline.
        let mut s = Sampler::new();
        s.tick_at(0, snap_with(1_000, 100, &[40, 50]));
        assert!(s.tick_at(1_000_000_000, snap_with(10, 0, &[])).is_none());
        let r = s
            .tick_at(2_000_000_000, snap_with(20, 0, &[]))
            .expect("window after regression reset");
        assert_eq!(r.delta.total_acquires(), 10);
        assert!(!r.acquires_per_sec.is_nan());
    }

    #[test]
    fn display_renders_rates() {
        let mut s = Sampler::new();
        s.tick_at(0, snap_with(0, 0, &[]));
        let r = s.tick_at(1_000_000_000, snap_with(50, 10, &[30])).unwrap();
        let line = r.to_string();
        assert!(line.contains("acq/s"), "{line}");
        assert!(line.contains("pass/s"), "{line}");
    }
}
