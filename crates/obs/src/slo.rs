//! Deterministic SLO evaluation over windowed telemetry.
//!
//! An SLO here is a latency objective over one windowed signal — "99% of
//! critical-section holds finish within 50 µs", "99% of lock handovers
//! within 20 µs" — evaluated against the [`WindowRates`] stream a
//! [`crate::Sampler`] already produces. Each evaluation tick computes
//! the window's *bad fraction* (samples over the objective, estimated
//! conservatively from histogram buckets), converts it into a **burn
//! rate** (bad fraction ÷ error budget: burn 1.0 spends the budget
//! exactly, burn 10 spends it ten times too fast), and feeds two
//! zero-padded moving windows — a *fast* one that reacts to incidents
//! and a *slow* one that ignores blips — in the multi-window burn-rate
//! style of SRE alerting. An alert fires only when **both** windows sit
//! at or above the burn threshold for `k` consecutive ticks, and clears
//! only after `k` consecutive calm ticks — the same k-consecutive
//! hysteresis [`crate::policy`] uses for switch decisions, so a single
//! noisy window can neither fire nor clear an alert.
//!
//! Everything is a pure function of the fed sequence: no clocks, no
//! randomness. Feeding the same `WindowRates` twice yields the same
//! alert transitions, which is what makes the burn-rate math
//! property-testable (`tests/slo_props.rs`).
//!
//! Stuck-thread findings ([`crate::waitgraph`]: stall, deadlock,
//! inversion — one detector, usually polled by the
//! [`Watchdog`](crate::Watchdog)) plug in via
//! [`SloEvaluator::note_finding`] and surface as instant-fire
//! `waitgraph-stall` / `waitgraph-deadlock` / `waitgraph-inversion`
//! pseudo-rules that decay after [`GRAPH_HOLD_TICKS`] calm ticks. The
//! detector already reports one finding per stuck thread, so one stuck
//! site fires one alert on `/alerts`.

use std::collections::VecDeque;

use crate::waitgraph::GraphFinding;
use crate::{HistSnapshot, WindowRates};

/// Evaluation ticks a finding's alert stays up after the finding was
/// last re-observed.
pub const GRAPH_HOLD_TICKS: u64 = 3;

/// Which windowed latency series an SLO rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSignal {
    /// Critical-section hold time (`LockSnapshot::hold_ns` delta).
    HoldTime,
    /// Lock handover latency: the innermost level's acquire latency
    /// (`levels[0].acquire_ns` delta) — the time between wanting the
    /// lock and holding it.
    HandoverLatency,
}

impl SloSignal {
    /// Stable token for exports.
    pub fn token(self) -> &'static str {
        match self {
            SloSignal::HoldTime => "hold_time",
            SloSignal::HandoverLatency => "handover_latency",
        }
    }

    fn extract<'a>(self, rates: &'a WindowRates) -> Option<&'a HistSnapshot> {
        match self {
            SloSignal::HoldTime => Some(&rates.delta.hold_ns),
            SloSignal::HandoverLatency => {
                rates.delta.levels.first().map(|l| &l.acquire_ns)
            }
        }
    }
}

/// One SLO rule: objective, budget, and burn-rate alert policy.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Rule name (label on `/alerts`).
    pub name: String,
    /// Signal the rule watches.
    pub signal: SloSignal,
    /// Latency objective in ns; samples above it are "bad".
    pub objective_ns: u64,
    /// Error budget: allowed bad fraction (e.g. `0.01` = 99% objective).
    pub budget: f64,
    /// Fast window length in evaluation ticks (reacts to incidents).
    pub fast_window: usize,
    /// Slow window length in ticks (confirms them); `>= fast_window`.
    pub slow_window: usize,
    /// Mean burn rate both windows must reach to be considered hot.
    pub burn_threshold: f64,
    /// Consecutive hot ticks to fire, and calm ticks to clear.
    pub k: usize,
}

impl SloRule {
    /// A rule with the common shape: 99%-ile objective (budget 0.01),
    /// 3-tick fast / 12-tick slow windows, burn threshold 2.0, k = 2.
    pub fn p99(name: &str, signal: SloSignal, objective_ns: u64) -> Self {
        SloRule {
            name: name.to_string(),
            signal,
            objective_ns,
            budget: 0.01,
            fast_window: 3,
            slow_window: 12,
            burn_threshold: 2.0,
            k: 2,
        }
    }
}

/// Default rule set: p99 hold-time and p99 handover-latency objectives.
pub fn default_rules(hold_objective_ns: u64, handover_objective_ns: u64) -> Vec<SloRule> {
    vec![
        SloRule::p99("hold-p99", SloSignal::HoldTime, hold_objective_ns),
        SloRule::p99(
            "handover-p99",
            SloSignal::HandoverLatency,
            handover_objective_ns,
        ),
    ]
}

/// Fraction of `h`'s samples strictly over `objective_ns`, estimated
/// conservatively from the log buckets: a bucket counts as *good* only
/// when its entire range is at or under the objective, so the answer is
/// an upper bound on the true bad fraction (same bias as
/// [`HistSnapshot::p99`]'s upper estimate). Empty windows are 0 — no
/// samples is no evidence of badness.
pub fn bad_fraction(h: &HistSnapshot, objective_ns: u64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let mut good = 0u64;
    for (upper, cum) in h.cumulative() {
        if upper <= objective_ns {
            good = cum;
        }
    }
    (h.count - good) as f64 / h.count as f64
}

/// An alert transition produced by one evaluation tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertTransition {
    /// The named rule started firing at this tick.
    Fired {
        /// Rule name.
        rule: String,
        /// Evaluation tick the transition happened at.
        tick: u64,
    },
    /// The named rule stopped firing at this tick.
    Cleared {
        /// Rule name.
        rule: String,
        /// Evaluation tick the transition happened at.
        tick: u64,
    },
}

/// Point-in-time status of one rule, for `/alerts`.
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// Rule name.
    pub name: String,
    /// Signal token (`hold_time`, `handover_latency`, `waitgraph`).
    pub signal: String,
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// Latest window's bad fraction.
    pub bad_fraction: f64,
    /// Mean burn rate over the fast window (zero-padded).
    pub burn_fast: f64,
    /// Mean burn rate over the slow window (zero-padded).
    pub burn_slow: f64,
    /// The rule's objective in ns (0 for the finding pseudo-rules).
    pub objective_ns: u64,
    /// The rule's error budget.
    pub budget: f64,
    /// Tick the alert last fired at (meaningful while `firing`).
    pub since_tick: u64,
    /// Free-form detail (the finding and its diagnostic context for the
    /// finding pseudo-rules).
    pub detail: String,
}

#[derive(Debug)]
struct RuleState {
    rule: SloRule,
    burns: VecDeque<f64>,
    last_bad: f64,
    fire_streak: usize,
    clear_streak: usize,
    firing: bool,
    since_tick: u64,
}

impl RuleState {
    fn new(rule: SloRule) -> Self {
        RuleState {
            rule,
            burns: VecDeque::new(),
            last_bad: 0.0,
            fire_streak: 0,
            clear_streak: 0,
            firing: false,
            since_tick: 0,
        }
    }

    /// Mean of the last `window` burns, zero-padded: history shorter
    /// than the window reads as calm, so a fresh evaluator cannot fire
    /// off one hot tick unless the threshold allows it.
    fn window_mean(&self, window: usize) -> f64 {
        let window = window.max(1);
        let take = self.burns.len().min(window);
        let sum: f64 = self.burns.iter().rev().take(take).sum();
        sum / window as f64
    }

    fn observe(&mut self, rates: &WindowRates, tick: u64) -> Option<AlertTransition> {
        let frac = self
            .rule
            .signal
            .extract(rates)
            .map_or(0.0, |h| bad_fraction(h, self.rule.objective_ns));
        self.last_bad = frac;
        let burn = if self.rule.budget > 0.0 {
            frac / self.rule.budget
        } else if frac > 0.0 {
            f64::MAX
        } else {
            0.0
        };
        self.burns.push_back(burn);
        while self.burns.len() > self.rule.slow_window.max(self.rule.fast_window).max(1) {
            self.burns.pop_front();
        }

        let hot = self.window_mean(self.rule.fast_window) >= self.rule.burn_threshold
            && self.window_mean(self.rule.slow_window) >= self.rule.burn_threshold;
        if hot {
            self.fire_streak += 1;
            self.clear_streak = 0;
        } else {
            self.clear_streak += 1;
            self.fire_streak = 0;
        }

        let k = self.rule.k.max(1);
        if !self.firing && self.fire_streak >= k {
            self.firing = true;
            self.since_tick = tick;
            return Some(AlertTransition::Fired {
                rule: self.rule.name.clone(),
                tick,
            });
        }
        if self.firing && self.clear_streak >= k {
            self.firing = false;
            return Some(AlertTransition::Cleared {
                rule: self.rule.name.clone(),
                tick,
            });
        }
        None
    }

    fn status(&self) -> AlertStatus {
        AlertStatus {
            name: self.rule.name.clone(),
            signal: self.rule.signal.token().to_string(),
            firing: self.firing,
            bad_fraction: self.last_bad,
            burn_fast: self.window_mean(self.rule.fast_window),
            burn_slow: self.window_mean(self.rule.slow_window),
            objective_ns: self.rule.objective_ns,
            budget: self.rule.budget,
            since_tick: self.since_tick,
            detail: String::new(),
        }
    }
}

/// One active stuck-thread finding tracked by the evaluator.
#[derive(Debug)]
struct FindingAlert {
    finding: GraphFinding,
    detail: String,
    since_tick: u64,
    last_seen_tick: u64,
}

/// Evaluates a set of [`SloRule`]s over a [`WindowRates`] stream, plus
/// pseudo-rules fed by [`crate::waitgraph`] findings.
#[derive(Debug)]
pub struct SloEvaluator {
    rules: Vec<RuleState>,
    tick: u64,
    findings: Vec<FindingAlert>,
}

impl SloEvaluator {
    /// An evaluator over the given rules.
    pub fn new(rules: Vec<SloRule>) -> Self {
        SloEvaluator {
            rules: rules.into_iter().map(RuleState::new).collect(),
            tick: 0,
            findings: Vec::new(),
        }
    }

    /// Evaluation ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Feeds one window; returns the alert transitions it caused.
    /// Deterministic: same sequence in, same transitions out.
    pub fn observe(&mut self, rates: &WindowRates) -> Vec<AlertTransition> {
        let tick = self.tick;
        self.tick += 1;
        let mut out: Vec<AlertTransition> = self
            .rules
            .iter_mut()
            .filter_map(|r| r.observe(rates, tick))
            .collect();
        // Findings decay once they stop being re-observed.
        self.findings.retain(|g| {
            if tick.saturating_sub(g.last_seen_tick) >= GRAPH_HOLD_TICKS {
                out.push(AlertTransition::Cleared {
                    rule: format!("waitgraph-{}", g.finding.kind()),
                    tick,
                });
                false
            } else {
                true
            }
        });
        out
    }

    /// Ingests one stuck-thread finding with its diagnostic context
    /// (empty for none): the `waitgraph-<kind>` pseudo-rule fires
    /// immediately — a stuck thread is never a blip worth debouncing.
    /// Re-observing the same incident (same [`GraphFinding::key`])
    /// refreshes it rather than duplicating the alert.
    pub fn note_finding(&mut self, finding: &GraphFinding, context: &str) {
        let mut detail = finding.detail();
        if !context.is_empty() {
            detail = format!("{detail}; {context}");
        }
        let key = finding.key();
        if let Some(existing) = self.findings.iter_mut().find(|g| g.finding.key() == key) {
            existing.finding = finding.clone();
            existing.detail = detail;
            existing.last_seen_tick = self.tick;
            return;
        }
        self.findings.push(FindingAlert {
            finding: finding.clone(),
            detail,
            since_tick: self.tick,
            last_seen_tick: self.tick,
        });
    }

    /// The findings whose alerts are currently firing, oldest first.
    pub fn active_findings(&self) -> Vec<GraphFinding> {
        self.findings.iter().map(|g| g.finding.clone()).collect()
    }

    /// Whether any alert (SLO or finding) is currently firing.
    pub fn any_firing(&self) -> bool {
        !self.findings.is_empty() || self.rules.iter().any(|r| r.firing)
    }

    /// Point-in-time status of every rule plus the active pseudo-rules.
    /// Stable order: rules as configured, then findings in arrival
    /// order.
    pub fn alerts(&self) -> Vec<AlertStatus> {
        let mut out: Vec<AlertStatus> = self.rules.iter().map(|r| r.status()).collect();
        for g in &self.findings {
            out.push(AlertStatus {
                name: format!("waitgraph-{}", g.finding.kind()),
                signal: "waitgraph".to_string(),
                firing: true,
                bad_fraction: 1.0,
                burn_fast: f64::MAX,
                burn_slow: f64::MAX,
                objective_ns: 0,
                budget: 0.0,
                since_tick: g.since_tick,
                detail: g.detail.clone(),
            });
        }
        out
    }
}

/// Renders alert statuses as a JSON array (zero-dependency; NaN/Inf
/// degrade to large-but-valid literals so the document always parses).
pub fn render_alerts_json(alerts: &[AlertStatus]) -> String {
    let mut out = String::from("[");
    for (i, a) in alerts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"signal\":\"{}\",\"firing\":{},\
             \"bad_fraction\":{:.6},\"burn_fast\":{:.3},\"burn_slow\":{:.3},\
             \"objective_ns\":{},\"budget\":{:.6},\"since_tick\":{},\
             \"detail\":\"{}\"}}",
            crate::export::json_escape(&a.name),
            a.signal,
            a.firing,
            clamp_json(a.bad_fraction),
            clamp_json(a.burn_fast),
            clamp_json(a.burn_slow),
            a.objective_ns,
            clamp_json(a.budget),
            a.since_tick,
            crate::export::json_escape(&a.detail),
        ));
    }
    out.push(']');
    out
}

/// JSON has no NaN/Inf literals; map them to 0 / a large sentinel.
fn clamp_json(v: f64) -> f64 {
    if v.is_nan() || v == 0.0 {
        0.0 // normalizes -0.0 so renders are byte-identical across runs
    } else {
        v.clamp(-1e12, 1e12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockSnapshot, LogHistogram};

    /// A window whose hold histogram holds `good` samples at 100 ns and
    /// `bad` samples at 1 ms, against a 1 µs objective.
    fn window(good: u64, bad: u64) -> WindowRates {
        let hold = LogHistogram::new();
        for _ in 0..good {
            hold.record(100);
        }
        for _ in 0..bad {
            hold.record(1_000_000);
        }
        let snap = LockSnapshot {
            name: "slo-test".into(),
            levels: Vec::new(),
            hold_ns: hold.snapshot(),
            events_recorded: 0,
            events_dropped: 0,
            events: Vec::new(),
        };
        let zero = LockSnapshot {
            name: "slo-test".into(),
            levels: Vec::new(),
            hold_ns: LogHistogram::new().snapshot(),
            events_recorded: 0,
            events_dropped: 0,
            events: Vec::new(),
        };
        let mut s = crate::Sampler::new();
        s.tick_at(0, zero);
        s.tick_at(1_000_000_000, snap).expect("one-second window")
    }

    fn rule(fast: usize, slow: usize, threshold: f64, k: usize) -> SloRule {
        SloRule {
            name: "hold-p99".into(),
            signal: SloSignal::HoldTime,
            objective_ns: 1_000,
            budget: 0.01,
            fast_window: fast,
            slow_window: slow,
            burn_threshold: threshold,
            k,
        }
    }

    #[test]
    fn bad_fraction_is_conservative_but_exact_at_boundaries() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [65,128), upper 128
        }
        h.record(1_000_000);
        let s = h.snapshot();
        // Objective 1024 (a bucket upper bound): the 99 good samples'
        // bucket is entirely under it → exactly 1% bad.
        assert!((bad_fraction(&s, 1_024) - 0.01).abs() < 1e-12);
        // Objective inside the good bucket: conservatively all bad.
        assert!((bad_fraction(&s, 100) - 1.0).abs() < 1e-12);
        // Objective above everything: 0 bad.
        assert_eq!(bad_fraction(&s, u64::MAX), 0.0);
        // Empty histogram: no evidence, 0 bad.
        assert_eq!(bad_fraction(&LogHistogram::new().snapshot(), 1), 0.0);
    }

    #[test]
    fn steady_good_rates_never_alert() {
        let mut ev = SloEvaluator::new(vec![rule(3, 6, 1.0, 1)]);
        for _ in 0..50 {
            let t = ev.observe(&window(1_000, 0));
            assert!(t.is_empty(), "steady in-objective traffic must not alert");
        }
        assert!(!ev.any_firing());
        assert_eq!(ev.alerts()[0].burn_slow, 0.0);
    }

    #[test]
    fn step_fires_exactly_when_the_slow_window_fills() {
        // Step to all-bad windows: burn = 1.0/0.01 = 100 per tick. With
        // threshold 100 and zero-padded means, the slow mean reaches the
        // threshold exactly when all `slow` entries are hot.
        let (fast, slow) = (2usize, 4usize);
        let mut ev = SloEvaluator::new(vec![rule(fast, slow, 100.0, 1)]);
        for _ in 0..6 {
            assert!(ev.observe(&window(1_000, 0)).is_empty());
        }
        let mut fired_at = None;
        for i in 0..8 {
            for t in ev.observe(&window(0, 1_000)) {
                if let AlertTransition::Fired { tick, .. } = t {
                    fired_at = Some((i, tick));
                }
            }
        }
        // Hot windows at post-step indices 0..; the slow mean hits 100
        // on the 4th hot window (index 3).
        assert_eq!(fired_at.map(|(i, _)| i), Some(slow - 1));
        assert!(ev.any_firing());
    }

    #[test]
    fn one_bad_window_is_debounced_by_k() {
        let mut ev = SloEvaluator::new(vec![rule(1, 1, 1.0, 2)]);
        assert!(ev.observe(&window(0, 1_000)).is_empty(), "k=2 needs two");
        let t = ev.observe(&window(0, 1_000));
        assert!(matches!(&t[..], [AlertTransition::Fired { tick: 1, .. }]));
        // Clearing also needs two calm ticks.
        assert!(ev.observe(&window(1_000, 0)).is_empty());
        let t = ev.observe(&window(1_000, 0));
        assert!(matches!(&t[..], [AlertTransition::Cleared { .. }]));
        assert!(!ev.any_firing());
    }

    #[test]
    fn deterministic_sequences() {
        let feed = |ev: &mut SloEvaluator| {
            let mut log = Vec::new();
            for i in 0..20u64 {
                let w = if i % 5 == 4 {
                    window(0, 100)
                } else {
                    window(100, 0)
                };
                log.extend(ev.observe(&w));
            }
            log
        };
        let mut a = SloEvaluator::new(vec![rule(2, 4, 10.0, 2)]);
        let mut b = SloEvaluator::new(vec![rule(2, 4, 10.0, 2)]);
        assert_eq!(feed(&mut a), feed(&mut b));
    }

    fn stall_for(thread: u32) -> GraphFinding {
        GraphFinding::Stall {
            thread,
            waited_ns: 250_000_000,
            epoch: 42,
            holders: vec![(3, 1_000_000)],
            waiting: 2,
        }
    }

    fn inversion_for(thread: u32) -> GraphFinding {
        GraphFinding::Inversion {
            thread,
            site: 9,
            handoffs: 20,
            h_bound: 4,
            waited_ns: 300_000_000,
        }
    }

    #[test]
    fn stall_findings_fire_with_context_and_decay() {
        let mut ev = SloEvaluator::new(default_rules(50_000, 20_000));
        assert!(!ev.any_firing());
        ev.note_finding(&stall_for(7), "queue hints: [1, 0]");
        assert!(ev.any_firing());
        let alerts = ev.alerts();
        let stall = alerts.last().unwrap();
        assert_eq!(stall.name, "waitgraph-stall");
        assert!(stall.detail.contains("thread 7"), "{}", stall.detail);
        assert!(stall.detail.ends_with("; queue hints: [1, 0]"), "{}", stall.detail);
        assert_eq!(ev.active_findings(), vec![stall_for(7)]);
        // Decays after GRAPH_HOLD_TICKS calm ticks.
        let mut cleared = false;
        for _ in 0..GRAPH_HOLD_TICKS + 1 {
            for t in ev.observe(&window(100, 0)) {
                if matches!(&t, AlertTransition::Cleared { rule, .. } if rule == "waitgraph-stall")
                {
                    cleared = true;
                }
            }
        }
        assert!(cleared);
        assert!(!ev.any_firing());
        assert!(ev.active_findings().is_empty());
    }

    #[test]
    fn graph_finding_refreshes_and_decays() {
        let mut ev = SloEvaluator::new(Vec::new());
        ev.note_finding(&inversion_for(3), "");
        ev.note_finding(&inversion_for(3), "");
        assert_eq!(
            ev.alerts().iter().filter(|a| a.firing).count(),
            1,
            "re-observed incident does not duplicate"
        );
        assert!(ev.any_firing());
        let mut cleared = false;
        for _ in 0..GRAPH_HOLD_TICKS + 1 {
            for t in ev.observe(&window(100, 0)) {
                if matches!(&t, AlertTransition::Cleared { rule, .. } if rule == "waitgraph-inversion")
                {
                    cleared = true;
                }
            }
        }
        assert!(cleared);
        assert!(!ev.any_firing());

        // Recurrence after clearing is a fresh incident.
        ev.note_finding(&inversion_for(3), "");
        assert!(ev.any_firing());
    }

    #[test]
    fn deadlock_finding_surfaces_with_detail() {
        let mut ev = SloEvaluator::new(Vec::new());
        ev.note_finding(
            &GraphFinding::Deadlock {
                threads: vec![1, 2],
                sites: vec![10, 11],
            },
            "",
        );
        let alerts = ev.alerts();
        let a = alerts.last().unwrap();
        assert_eq!(a.name, "waitgraph-deadlock");
        assert_eq!(a.signal, "waitgraph");
        assert!(a.detail.contains("waits-for cycle"), "{}", a.detail);
        let json = render_alerts_json(&alerts);
        assert!(json.contains("waitgraph-deadlock"));
    }

    #[test]
    fn alerts_json_is_valid_and_deterministic() {
        let mut ev = SloEvaluator::new(default_rules(1_000, 1_000));
        ev.observe(&window(50, 50));
        let a = render_alerts_json(&ev.alerts());
        let b = render_alerts_json(&ev.alerts());
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert!(a.contains("\"signal\":\"hold_time\""), "{a}");
        assert!(a.contains("\"signal\":\"handover_latency\""), "{a}");
        assert!(!a.contains("inf") && !a.contains("NaN"), "{a}");
    }

    #[test]
    fn handover_signal_reads_level_zero() {
        // A window with no levels yields bad fraction 0 for handover.
        let mut ev = SloEvaluator::new(vec![SloRule::p99(
            "handover-p99",
            SloSignal::HandoverLatency,
            1_000,
        )]);
        ev.observe(&window(0, 100));
        assert_eq!(ev.alerts()[0].bad_fraction, 0.0);
    }
}
