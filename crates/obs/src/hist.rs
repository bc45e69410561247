//! Lock-free log-bucketed latency histograms.
//!
//! Buckets are powers of two (HDR-style): bucket *i* covers
//! `[2^(i-1), 2^i)` nanoseconds (bucket 0 covers `{0}` plus `1ns`).
//! Recording picks the bucket with a leading-zeros count — no floating
//! point, no allocation, wait-free: relaxed `fetch_add`s for a histogram
//! many threads share ([`LogHistogram::record`]), plain load + store for
//! one with a single writer ([`LogHistogram::record_owned`], what the
//! per-handle [`crate::Shard`]s use on the lock path).
//! Quantiles are answered from a [`HistSnapshot`] by walking the bucket
//! counts and reporting the covering bucket's upper bound, so p99 is an
//! upper estimate with at most 2x resolution error — plenty for the
//! order-of-magnitude questions lock selection asks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; `u64` values always map into `0..HIST_BUCKETS`.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for a value: 0 for 0/1, else `64 - leading_zeros(v - 1)`
/// giving `[2^(i-1), 2^i)` coverage.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        // Clamp: values above 2^62 all land in the last bucket.
        ((64 - (value - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx >= 63 {
        u64::MAX
    } else {
        1u64 << idx
    }
}

/// A concurrent histogram of `u64` samples (nanoseconds by convention).
///
/// All operations are relaxed atomics; totals are exact once writers are
/// quiescent. `max` is maintained with a CAS loop (still lock-free).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram (`const` so statics can hold one directly).
    pub const fn new() -> Self {
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free except for the `max` CAS loop.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        let mut cur = self.max.load(Ordering::Relaxed);
        while value > cur {
            match self
                .max
                .compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// [`record`](Self::record) for a histogram with exactly one writer
    /// (readers may snapshot concurrently): relaxed load + store, no
    /// locked RMW.
    #[inline]
    pub fn record_owned(&self, value: u64) {
        use crate::counters::bump;
        bump(&self.buckets[bucket_of(value)], 1);
        bump(&self.count, 1);
        bump(&self.sum, value);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy (exact at quiescence).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`LogHistogram`], with quantile queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; bucket *i* covers `[2^(i-1), 2^i)` ns.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Largest sample seen (exact, not bucketed).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Upper-bound estimate of quantile `q` in `[0, 1]`: the upper edge
    /// of the first bucket whose cumulative count reaches `ceil(q *
    /// count)`. Returns 0 for an empty histogram. The true `max` caps the
    /// answer, so `quantile(1.0) == max` exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (upper-bound estimate).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (upper-bound estimate).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (upper-bound estimate).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample (ns); 0 when empty.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }

    /// Adds `other`'s samples into `self`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// `(upper_bound, cumulative_count)` pairs for non-empty prefixes —
    /// the shape Prometheus `_bucket{le=...}` lines want.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n != 0 {
                out.push((bucket_upper(i), seen));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn bucket_covers_its_range() {
        // Every value maps to a bucket whose upper bound is >= the value.
        for v in [0, 1, 2, 3, 7, 8, 9, 1000, 123_456_789] {
            assert!(bucket_upper(bucket_of(v)) >= v, "value {v}");
        }
    }

    #[test]
    fn quantiles_are_upper_estimates() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // True p50 = 50, bucket upper bound = 64.
        assert_eq!(s.p50(), 64);
        // p99 rank 99 -> value 99, bucket [65,128) upper 128, capped at max.
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.mean(), 50);
    }

    #[test]
    fn owned_recording_matches_shared_recording() {
        let shared = LogHistogram::new();
        let owned = LogHistogram::new();
        for v in [0u64, 1, 3, 9, 100, 5000, 70_000, 9] {
            shared.record(v);
            owned.record_owned(v);
        }
        assert_eq!(owned.snapshot(), shared.snapshot());
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
        assert!(s.cumulative().is_empty());
    }

    #[test]
    fn merge_matches_combined_recording() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let combined = LogHistogram::new();
        for v in [3u64, 9, 100, 5000] {
            a.record(v);
            combined.record(v);
        }
        for v in [1u64, 70_000] {
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn concurrent_recording_is_exact_at_quiescence() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let threads = 4;
        let per = 10_000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    h.record(t * per + i + 1);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, threads * per);
        assert_eq!(s.max, threads * per);
        let n = threads * per;
        assert_eq!(s.sum, n * (n + 1) / 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn cumulative_is_monotone() {
        let h = LogHistogram::new();
        for v in [1u64, 5, 5, 300, 70_000] {
            h.record(v);
        }
        let cum = h.snapshot().cumulative();
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, 5);
    }
}
