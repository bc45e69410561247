//! Process-wide deadline/poison telemetry for the bounded-acquisition
//! layer.
//!
//! The deadline layer lives in `clof-locks`; to keep that crate
//! dependency-free it exposes recorder *hooks* (`set_abandon_recorder` /
//! `set_skip_recorder`) and `clof-core` wires them here when `obs` is
//! enabled. Timeouts and poisonings are recorded by the composition
//! layer directly (a basic lock only knows its own wait gave up; only
//! the composed acquire knows the *whole attempt* timed out).
//!
//! Counting convention:
//!
//! * **timeout** — one composed acquisition attempt that ran out of
//!   budget (counted once per attempt, at the handle).
//! * **abandon** — one waiter-side bailout at a single wait: a queue
//!   node marked abandoned (MCS/CLH/Hemlock), a slot turn cancelled or
//!   handed forward (ticket/Anderson), or a bounded composition wait
//!   (fast-path gate, adaptation baton) giving up. One timeout may
//!   produce several abandons (one per level it had to back out of) or
//!   none (expired before any queue was entered).
//! * **skip** — one releaser-side reclaim of an abandoned queue node.
//! * **poison** — one panic-while-holding detection by an RAII guard.
//!
//! Rendering composes at the serve layer, same as `park`: `/metrics`
//! and `/snapshot` append these fragments so `render_json` /
//! `render_prometheus` stay pure functions of a snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

static TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static ABANDONS: AtomicU64 = AtomicU64::new(0);
static SKIPS: AtomicU64 = AtomicU64::new(0);
static POISONS: AtomicU64 = AtomicU64::new(0);

/// Records one composed acquisition attempt that timed out.
#[inline]
pub fn record_timeout() {
    TIMEOUTS.fetch_add(1, Ordering::Relaxed);
}

/// Records one waiter-side bailout (matches
/// `clof_locks::deadline::set_abandon_recorder`).
#[inline]
pub fn record_abandon() {
    ABANDONS.fetch_add(1, Ordering::Relaxed);
}

/// Records one releaser-side abandoned-node reclaim (matches
/// `clof_locks::deadline::set_skip_recorder`).
#[inline]
pub fn record_skip() {
    SKIPS.fetch_add(1, Ordering::Relaxed);
}

/// Records one panic-while-holding poisoning.
#[inline]
pub fn record_poison() {
    POISONS.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time view of the process-wide deadline statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineStats {
    /// Composed acquisition attempts that timed out.
    pub timeouts: u64,
    /// Waiter-side bailouts (nodes abandoned, turns handed forward,
    /// bounded composition waits given up).
    pub abandons: u64,
    /// Releaser-side reclaims of abandoned queue nodes.
    pub skips: u64,
    /// Panic-while-holding poisonings detected by RAII guards.
    pub poisons: u64,
}

/// Snapshots the process-wide deadline statistics.
pub fn deadline_stats() -> DeadlineStats {
    DeadlineStats {
        timeouts: TIMEOUTS.load(Ordering::Relaxed),
        abandons: ABANDONS.load(Ordering::Relaxed),
        skips: SKIPS.load(Ordering::Relaxed),
        poisons: POISONS.load(Ordering::Relaxed),
    }
}

/// Renders the deadline statistics as one JSON object, for a
/// `"deadline"` key in the `/snapshot` composite.
pub fn render_deadline_json(stats: &DeadlineStats) -> String {
    format!(
        "{{\"timeouts\":{},\"abandons\":{},\"skips\":{},\"poisons\":{}}}",
        stats.timeouts, stats.abandons, stats.skips, stats.poisons
    )
}

/// Renders the deadline statistics as a Prometheus exposition fragment
/// (appended to `/metrics` by the serving layer).
pub fn render_deadline_prometheus(stats: &DeadlineStats) -> String {
    let mut out = String::new();
    for (family, help, value) in [
        (
            "clof_deadline_timeouts_total",
            "Composed acquisition attempts that timed out.",
            stats.timeouts,
        ),
        (
            "clof_deadline_abandons_total",
            "Waiter-side bailouts (queue nodes abandoned, turns handed forward).",
            stats.abandons,
        ),
        (
            "clof_deadline_skips_total",
            "Releaser-side reclaims of abandoned queue nodes.",
            stats.skips,
        ),
        (
            "clof_deadline_poisons_total",
            "Panic-while-holding poisonings detected by RAII guards.",
            stats.poisons,
        ),
    ] {
        out.push_str(&format!("# HELP {family} {help}\n"));
        out.push_str(&format!("# TYPE {family} counter\n"));
        out.push_str(&format!("{family}{{scope=\"process\"}} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The statics are process-global and tests run in parallel, so
    // assertions are monotonic (deltas >=) rather than exact.

    #[test]
    fn record_bumps_every_counter() {
        let before = deadline_stats();
        record_timeout();
        record_abandon();
        record_abandon();
        record_skip();
        record_poison();
        let after = deadline_stats();
        assert!(after.timeouts >= before.timeouts + 1);
        assert!(after.abandons >= before.abandons + 2);
        assert!(after.skips >= before.skips + 1);
        assert!(after.poisons >= before.poisons + 1);
    }

    #[test]
    fn json_fragment_is_balanced_and_complete() {
        let s = render_deadline_json(&deadline_stats());
        for key in ["\"timeouts\":", "\"abandons\":", "\"skips\":", "\"poisons\":"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn prometheus_fragment_has_help_type_and_series() {
        record_timeout();
        let text = render_deadline_prometheus(&deadline_stats());
        for family in [
            "clof_deadline_timeouts_total",
            "clof_deadline_abandons_total",
            "clof_deadline_skips_total",
            "clof_deadline_poisons_total",
        ] {
            assert!(text.contains(&format!("# HELP {family}")), "{family} HELP");
            assert!(text.contains(&format!("# TYPE {family}")), "{family} TYPE");
            assert!(
                text.contains(&format!("{family}{{scope=\"process\"}}")),
                "{family} series"
            );
        }
    }
}
