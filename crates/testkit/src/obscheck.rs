//! Consistency checker for lock-telemetry snapshots.
//!
//! The composition protocol's counters obey arithmetic invariants *at
//! quiescence* (no thread mid-acquire): every pass is consumed by
//! exactly one successor, every upward release feeds one acquisition of
//! the level above, and histograms count what the counters count. This
//! module states them once, over **plain numbers** — `clof-testkit`
//! deliberately does not depend on `clof-obs` (the root crate cannot
//! apply features to dev-dependencies), so callers copy their snapshot
//! into [`LevelTally`] and get the same checks under any feature set.
//!
//! A snapshot joins two sides, and the invariants compare them. The
//! lock's level step counts the release decisions once, on each level's
//! owner line, and derives the acquisitions from them: `acquires`,
//! `passes_taken`, `passes_declined` and `keep_local_resets` come from
//! the owner line. The handles' shards observe the acquire side:
//! `contended_acquires` (wins that inherited a pass) and `hist_count`
//! (the wait histogram's samples, one per win). Invariant 1 holds level
//! 0's derived acquires against the caller's external total, 3 the
//! owner-line passes against the shards' inherited wins, 6 the derived
//! acquires against the shards' histogram samples, and 5 a level's
//! derived acquires against the releases up of the level below (equal
//! by construction at the root, which keeps no counter). Invariant 2
//! restates the derivation while no bounded climb unwinds.

/// Plain-data copy of one level's telemetry (mirror of `clof-obs`'s
/// `LevelSnapshot`, fields by hand).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelTally {
    /// Low-lock acquisitions at this level (owner line, derived).
    pub acquires: u64,
    /// Acquisitions that inherited a passed high lock (shards).
    pub contended_acquires: u64,
    /// Release decisions that passed within the cohort (owner line).
    pub passes_taken: u64,
    /// Release decisions that surrendered the high lock upward (owner
    /// line).
    pub passes_declined: u64,
    /// Upward releases forced by the keep_local threshold (owner line).
    pub keep_local_resets: u64,
    /// Samples in this level's acquire-latency histogram (shards).
    pub hist_count: u64,
}

/// Asserts the quiescent-counter invariants for a composed lock.
///
/// `levels` is innermost first; `total_acquisitions` is the externally
/// counted number of lock round-trips (e.g. the stress oracle's total).
///
/// Invariants checked:
///
/// 1. Level 0 acquires equal the external total — every round-trip wins
///    the innermost low lock exactly once.
/// 2. At every non-root level, `acquires == passes_taken +
///    passes_declined`: each acquisition ends in exactly one release
///    decision.
/// 3. At every non-root level, `contended_acquires == passes_taken`:
///    each pass is consumed by exactly one successor, and nothing else
///    sets the pass flag.
/// 4. `keep_local_resets <= passes_declined`: resets are a subset of
///    declines.
/// 5. `acquires[l+1] == passes_declined[l]`: the level above is entered
///    exactly when this level surrenders (the first acquire included —
///    the initial climb happens with the pass flag clear).
/// 6. When a histogram was recorded (`hist_count != 0`), its sample
///    count equals the level's acquires.
///
/// # Panics
///
/// Panics with a labelled message on the first violated invariant.
pub fn assert_stats_consistent(levels: &[LevelTally], total_acquisitions: u64) {
    assert!(!levels.is_empty(), "telemetry must cover at least one level");
    assert_eq!(
        levels[0].acquires, total_acquisitions,
        "level 0 acquires != external acquisition total"
    );
    let last = levels.len() - 1;
    for (l, t) in levels.iter().enumerate() {
        if l < last {
            assert_eq!(
                t.acquires,
                t.passes_taken + t.passes_declined,
                "level {l}: acquires != passes_taken + passes_declined"
            );
            assert_eq!(
                t.contended_acquires, t.passes_taken,
                "level {l}: every pass must be consumed by exactly one successor"
            );
            assert_eq!(
                levels[l + 1].acquires,
                t.passes_declined,
                "level {}: acquires != level {l} passes_declined",
                l + 1
            );
        } else {
            assert_eq!(
                t.passes_taken + t.passes_declined,
                0,
                "root level {l} takes no pass decision"
            );
            assert_eq!(
                t.contended_acquires, 0,
                "root level {l} never inherits a pass"
            );
        }
        assert!(
            t.keep_local_resets <= t.passes_declined,
            "level {l}: keep_local resets exceed declined passes"
        );
        if t.hist_count != 0 {
            assert_eq!(
                t.hist_count, t.acquires,
                "level {l}: histogram count != acquires"
            );
        }
    }
}

/// Asserts that `intervals` (as `(start, end)` pairs, any order) form a
/// total order: each interval well-formed (`start <= end`) and no two
/// intervals overlapping. This is the mutual-exclusion shape of an
/// ownership timeline reconstructed from a span trace — stated over
/// plain numbers for the same reason as [`assert_stats_consistent`].
///
/// Intervals may share endpoints (`end == next.start`): a hand-off at
/// the same timestamp tick is legal on coarse clocks.
///
/// # Panics
///
/// Panics with the offending pair on the first violation.
pub fn assert_total_order(intervals: &[(u64, u64)]) {
    let mut sorted: Vec<(u64, u64)> = intervals.to_vec();
    sorted.sort_unstable();
    for (i, iv) in sorted.iter().enumerate() {
        assert!(
            iv.0 <= iv.1,
            "interval {i} is ill-formed: start {} > end {}",
            iv.0,
            iv.1
        );
        if i > 0 {
            let prev = sorted[i - 1];
            assert!(
                prev.1 <= iv.0,
                "intervals overlap: [{}, {}] and [{}, {}]",
                prev.0,
                prev.1,
                iv.0,
                iv.1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level(total: u64, passes: u64) -> Vec<LevelTally> {
        vec![
            LevelTally {
                acquires: total,
                contended_acquires: passes,
                passes_taken: passes,
                passes_declined: total - passes,
                keep_local_resets: 0,
                hist_count: total,
            },
            LevelTally {
                acquires: total - passes,
                hist_count: total - passes,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn consistent_tallies_pass() {
        assert_stats_consistent(&two_level(100, 40), 100);
    }

    #[test]
    #[should_panic(expected = "external acquisition total")]
    fn total_mismatch_is_caught() {
        assert_stats_consistent(&two_level(100, 40), 99);
    }

    #[test]
    #[should_panic(expected = "consumed by exactly one successor")]
    fn unconsumed_pass_is_caught() {
        let mut t = two_level(100, 40);
        t[0].contended_acquires = 39;
        assert_stats_consistent(&t, 100);
    }

    #[test]
    #[should_panic(expected = "passes_declined")]
    fn upper_level_leak_is_caught() {
        let mut t = two_level(100, 40);
        t[1].acquires = 61;
        t[1].hist_count = 0;
        assert_stats_consistent(&t, 100);
    }

    #[test]
    #[should_panic(expected = "histogram count")]
    fn histogram_drift_is_caught() {
        let mut t = two_level(100, 40);
        t[0].hist_count = 99;
        assert_stats_consistent(&t, 100);
    }

    #[test]
    #[should_panic(expected = "root level")]
    fn root_decisions_are_caught() {
        let mut t = two_level(100, 40);
        t[1].passes_taken = 1;
        assert_stats_consistent(&t, 100);
    }

    #[test]
    fn disjoint_intervals_are_a_total_order() {
        // Unsorted on purpose; touching endpoints allowed.
        assert_total_order(&[(10, 20), (0, 10), (25, 25), (20, 24)]);
        assert_total_order(&[]);
    }

    #[test]
    #[should_panic(expected = "intervals overlap")]
    fn overlapping_intervals_are_caught() {
        assert_total_order(&[(0, 10), (9, 15)]);
    }

    #[test]
    #[should_panic(expected = "ill-formed")]
    fn inverted_interval_is_caught() {
        assert_total_order(&[(5, 3)]);
    }
}
