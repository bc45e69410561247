//! The reductions every reported number rests on: quartiles of slice
//! rates, latency percentiles over pooled samples, per-thread shares.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// The `n - 1` cut points that divide `values` into `n` groups, by the
/// same rule as Python's `statistics.quantiles(values, n=n)` (exclusive
/// method), so the spreads this benchmark prints are the ones the driver
/// computes from the same values.
///
/// Returns `None` for fewer than two values.
pub fn cuts(values: &[f64], n: usize) -> Option<Vec<f64>> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = len + 1;
    Some(
        (1..n)
            .map(|i| {
                let j = (i * m / n).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
            })
            .collect(),
    )
}

pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let c = cuts(values, 4)?;
    Some(Quartiles {
        q1: c[0],
        median: c[1],
        q3: c[2],
    })
}

/// Which end of a sample of slices is the undisturbed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Good {
    High,
    Low,
}

/// The decile of per-slice values on their good side: the value a tenth
/// of all slices reach. Interference on a shared host comes in bursts of
/// seconds that slow every slice they touch (and a few slices run
/// *better* than the workload can, when one of two clients is held up
/// and the other meets no contention), so neither the mean, nor the
/// median, nor the best slice is the workload's speed.
pub fn good_decile(values: &[f64], good: Good) -> f64 {
    match (cuts(values, 10), good) {
        (Some(c), Good::High) => c[8],
        (Some(c), Good::Low) => c[0],
        (None, _) => values.first().copied().unwrap_or(f64::NAN),
    }
}

/// Median of a sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    match values {
        [] => None,
        [only] => Some(*only),
        _ => quartiles(values).map(|q| q.median),
    }
}

/// Slowest thread's completed operations ÷ mean per thread. 1.0 for one
/// thread or a perfectly even split; 0.0 when nothing completed.
pub fn thread_share_min(ops_per_thread: &[u64]) -> f64 {
    let total: u64 = ops_per_thread.iter().sum();
    let min = ops_per_thread.iter().copied().min().unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    min as f64 * ops_per_thread.len() as f64 / total as f64
}

/// A percentile was asked of a sample too small to support it.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    pub quantile: f64,
    pub samples: u64,
    pub beyond: u64,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quantile {} has only {} of {} samples beyond it (need {})",
            self.quantile,
            self.beyond,
            self.samples,
            LatencyHist::MIN_BEYOND
        )
    }
}

/// Pooled latency samples in nanoseconds.
///
/// Exact 1 ns bins up to 511 ns, then 256 bins per octave (0.4 % wide):
/// 114 KiB, so each client folds its samples into one of its own while
/// it runs, and pooling 10⁷ samples needs no sample buffer. A quantile
/// is interpolated inside the bin it falls in — the grouped-data
/// estimate — so it keeps the digits below the clock's 1 ns step.
#[derive(Clone)]
pub struct LatencyHist {
    bins: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const OCTAVES: u32 = 64 - SUB_BITS;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            bins: vec![0; ((OCTAVES + 1) as u64 * SUB) as usize],
            count: 0,
        }
    }
}

impl LatencyHist {
    /// A reported percentile needs at least this many samples beyond it.
    pub const MIN_BEYOND: u64 = 10;

    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((ns >> shift) - SUB)) as usize
    }

    /// Lower edge and width of bin `idx`.
    fn bounds(idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        if idx < 2 * SUB {
            return (idx, 1);
        }
        let shift = idx / SUB - 1;
        ((SUB + idx % SUB) << shift, 1 << shift)
    }

    pub fn record(&mut self, ns: u64) {
        self.bins[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Forgets every sample, keeping the storage.
    pub fn clear(&mut self) {
        self.bins.fill(0);
        self.count = 0;
    }

    /// The `q`-quantile (0 < q < 1) in nanoseconds.
    ///
    /// # Errors
    ///
    /// Fewer than [`Self::MIN_BEYOND`] samples lie beyond the quantile:
    /// the sample cannot support it.
    pub fn quantile(&self, q: f64) -> Result<f64, TooFewSamples> {
        let rank = q * self.count as f64;
        // The epsilon keeps 0.99 × 1000 = 990.0000000000001 at rank 990.
        let beyond = self.count - (rank - 1e-9).ceil() as u64;
        if self.count == 0 || beyond < Self::MIN_BEYOND {
            return Err(TooFewSamples {
                quantile: q,
                samples: self.count,
                beyond: if self.count == 0 { 0 } else { beyond },
            });
        }
        let mut below = 0u64;
        for (idx, &c) in self.bins.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = Self::bounds(idx);
                let inside = (rank - below as f64) / c as f64;
                return Ok(lo as f64 + inside * width as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} lies within count {}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn upper_quartile_ignores_a_slow_minority() {
        // 60 slices, 20 of them slowed by a neighbour: the upper quartile
        // still reads the undisturbed rate, the median does too, the mean
        // would not.
        let mut v = vec![100.0; 40];
        v.extend(vec![60.0; 20]);
        let q = quartiles(&v).unwrap();
        assert_eq!(q.q3, 100.0);
        assert_eq!(q.median, 100.0);
        assert_eq!(q.q1, 60.0);
    }

    #[test]
    fn deciles_match_python_and_pick_the_good_side() {
        // statistics.quantiles(range(1, 21), n=10) == [2.1, 4.2, ..., 18.9]
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let c = cuts(&v, 10).unwrap();
        assert_eq!(c.len(), 9);
        assert!(
            (c[0] - 2.1).abs() < 1e-12 && (c[8] - 18.9).abs() < 1e-12,
            "{c:?}"
        );
        assert!((good_decile(&v, Good::High) - 18.9).abs() < 1e-12);
        assert!((good_decile(&v, Good::Low) - 2.1).abs() < 1e-12);
        assert_eq!(good_decile(&[7.0], Good::High), 7.0);
        assert!(good_decile(&[], Good::Low).is_nan());
        // 60 slices: 40 slowed by a neighbour, 2 lucky ones far too fast.
        let mut rates = vec![60.0; 40];
        rates.extend(vec![100.0; 18]);
        rates.extend(vec![400.0; 2]);
        assert_eq!(good_decile(&rates, Good::High), 100.0);
    }

    #[test]
    fn median_of_small_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[4.0, 2.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn share_of_slowest_thread() {
        assert_eq!(thread_share_min(&[500]), 1.0);
        assert_eq!(thread_share_min(&[100, 100]), 1.0);
        assert_eq!(thread_share_min(&[50, 150]), 0.5);
        assert_eq!(thread_share_min(&[0, 10]), 0.0);
        assert_eq!(thread_share_min(&[0, 0]), 0.0);
    }

    #[test]
    fn histogram_bins_tile_the_range() {
        for ns in [
            0,
            1,
            511,
            512,
            513,
            1023,
            1024,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let (lo, width) = LatencyHist::bounds(LatencyHist::index(ns));
            assert!(lo <= ns && ns - lo < width, "{ns} not in [{lo}, +{width})");
            assert!(width == 1 || (width as f64) / (lo as f64) <= 1.0 / 256.0);
        }
        assert_eq!(
            LatencyHist::index(u64::MAX),
            LatencyHist::default().bins.len() - 1
        );
    }

    #[test]
    fn quantile_interpolates_within_a_bin() {
        let mut h = LatencyHist::default();
        for _ in 0..600 {
            h.record(70);
        }
        for _ in 0..400 {
            h.record(71);
        }
        // rank 500 of 600 samples in [70, 71).
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - (70.0 + 500.0 / 600.0)).abs() < 1e-9, "{p50}");
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut h = LatencyHist::default();
        for i in 0..999 {
            h.record(i);
        }
        let err = h.quantile(0.99).unwrap_err();
        assert_eq!((err.samples, err.beyond), (999, 9));
        assert!(h.quantile(0.5).is_ok());
        h.record(999);
        assert!(h.quantile(0.99).is_ok(), "1000 samples leave 10 beyond p99");
        assert!(h.quantile(0.999).is_err(), "but only 1 beyond p99.9");
        assert!(LatencyHist::default().quantile(0.5).is_err());
    }
}
