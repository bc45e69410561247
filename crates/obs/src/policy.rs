//! Contention-driven adaptation policy: which finalist composition
//! should be holding the lock *right now*?
//!
//! The offline selector (`clof::select`) ranks compositions per
//! contention regime and leaves a finalist set — typically one winner
//! per regime. At run time the regime drifts; this module decides when
//! the drift is real enough to pay for a hot-swap.
//!
//! The controller is deliberately tiny and fully deterministic:
//!
//! 1. Each window, estimate the offered **concurrency** from observed
//!    rates via Little's law: `L = λ · W`, where `λ` is acquisitions
//!    per second and `W` is the mean time a thread spends per
//!    acquisition (waiting plus holding). `L` approximates "how many
//!    threads are banging on this lock", without asking the OS.
//! 2. Interpolate each finalist's offline throughput profile at `L`
//!    and pick the best (**first index wins ties**, so the decision is
//!    a pure function of the rate trace).
//! 3. **Hysteresis**: only emit [`AdaptDecision::Switch`] after the
//!    *same* challenger has beaten the active composition by at least
//!    `margin` for `k` consecutive windows. Degenerate windows (no
//!    traffic, non-finite inputs) reset the streak — silence is not
//!    evidence.
//!
//! Swaps are expensive (a quiescence drain) and flapping between two
//! near-equal shapes is strictly worse than sticking with either; the
//! `k × margin` debounce is what makes the policy safe to leave on.

use crate::WindowRates;

/// One sampling window, reduced to what the policy needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowObservation {
    /// Lock acquisitions per second in the window.
    pub acquires_per_sec: f64,
    /// Mean time from wanting the lock to holding it (ns).
    pub mean_acquire_ns: f64,
    /// Mean critical-section hold time (ns).
    pub mean_hold_ns: f64,
}

impl WindowObservation {
    /// Reduces a [`WindowRates`] to a policy observation, using the
    /// innermost level's mean acquire latency and the window's mean
    /// hold time.
    pub fn from_rates(rates: &WindowRates) -> Self {
        let mean = |count: u64, sum: u64| {
            if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            }
        };
        let acq = rates
            .delta
            .levels
            .first()
            .map_or(0.0, |l| mean(l.acquire_ns.count, l.acquire_ns.sum));
        WindowObservation {
            acquires_per_sec: rates.acquires_per_sec,
            mean_acquire_ns: acq,
            mean_hold_ns: mean(rates.delta.hold_ns.count, rates.delta.hold_ns.sum),
        }
    }

    /// Little's-law concurrency estimate: mean number of threads
    /// concurrently engaged with the lock (waiting or holding).
    /// Non-finite or negative inputs yield `None` — the window is
    /// unusable as evidence.
    pub fn concurrency(&self) -> Option<f64> {
        let per_pass_s = (self.mean_acquire_ns + self.mean_hold_ns) / 1e9;
        let l = self.acquires_per_sec * per_pass_s;
        (l.is_finite() && l > 0.0).then_some(l)
    }
}

/// A finalist composition's offline throughput profile: measured
/// `(threads, acquisitions/s)` points from the selection benchmark.
#[derive(Debug, Clone)]
pub struct FinalistProfile {
    /// Composition name (e.g. `"mcs-clh-tkt"`), resolvable by the
    /// caller back to a `&[LockKind]`.
    pub name: String,
    points: Vec<(f64, f64)>,
}

impl FinalistProfile {
    /// Builds a profile from `(threads, throughput)` measurements.
    /// Points are sorted by thread count; non-finite entries are
    /// dropped. At least one valid point is required.
    pub fn new(name: impl Into<String>, points: &[(usize, f64)]) -> Option<Self> {
        let mut pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|(_, y)| y.is_finite() && *y >= 0.0)
            .map(|&(x, y)| (x as f64, y))
            .collect();
        if pts.is_empty() {
            return None;
        }
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        Some(FinalistProfile {
            name: name.into(),
            points: pts,
        })
    }

    /// Expected throughput at concurrency `l`: piecewise-linear between
    /// measured points, clamped to the endpoints outside the measured
    /// range (extrapolation invents cliffs the benchmark never saw).
    pub fn throughput_at(&self, l: f64) -> f64 {
        let pts = &self.points;
        if l <= pts[0].0 {
            return pts[0].1;
        }
        if l >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if l <= x1 {
                let t = if x1 > x0 { (l - x0) / (x1 - x0) } else { 0.0 };
                return y0 + t * (y1 - y0);
            }
        }
        pts[pts.len() - 1].1
    }
}

/// Debounce parameters for the hysteresis controller.
#[derive(Debug, Clone, Copy)]
pub struct HysteresisConfig {
    /// Consecutive windows the same challenger must win before a
    /// switch is emitted. `k = 0` behaves as `k = 1` (every decision
    /// needs at least one observation).
    pub k: u32,
    /// Relative advantage required: challenger must predict more than
    /// `active × (1 + margin)` throughput. `0.15` means "15% better".
    pub margin: f64,
}

impl Default for HysteresisConfig {
    fn default() -> Self {
        HysteresisConfig { k: 3, margin: 0.15 }
    }
}

/// What the controller wants done after a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptDecision {
    /// Keep the active composition.
    Stay,
    /// Swap to the finalist at this index (into the profile slice the
    /// controller was built with).
    Switch(usize),
}

/// Streak-counting comparator over the finalist profiles.
///
/// Feed it one [`WindowObservation`] per sampling window; it returns
/// [`AdaptDecision::Switch`] exactly when the hysteresis condition is
/// met, and updates its notion of the active composition when it does
/// (the caller is expected to perform the swap; on failure, call
/// [`set_active`](Self::set_active) to resynchronise).
#[derive(Debug)]
pub struct HysteresisController {
    profiles: Vec<FinalistProfile>,
    config: HysteresisConfig,
    active: usize,
    candidate: Option<usize>,
    streak: u32,
}

impl HysteresisController {
    /// A controller over `profiles`, starting with `active` holding
    /// the lock. Returns `None` if `profiles` is empty or `active` is
    /// out of range.
    pub fn new(
        profiles: Vec<FinalistProfile>,
        active: usize,
        config: HysteresisConfig,
    ) -> Option<Self> {
        if profiles.is_empty() || active >= profiles.len() {
            return None;
        }
        Some(HysteresisController {
            profiles,
            config,
            active,
            candidate: None,
            streak: 0,
        })
    }

    /// Index of the composition the controller believes is active.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The finalist profiles, in controller index order.
    pub fn profiles(&self) -> &[FinalistProfile] {
        &self.profiles
    }

    /// Forces the active index (e.g. after a failed or external swap).
    /// Resets the streak. Out-of-range indices are ignored.
    pub fn set_active(&mut self, active: usize) {
        if active < self.profiles.len() {
            self.active = active;
            self.candidate = None;
            self.streak = 0;
        }
    }

    /// Feeds one window. Deterministic: the decision sequence is a
    /// pure function of the observation sequence.
    ///
    /// Every decision — including holds — is recorded into the global
    /// [`crate::audit`] ring with the inputs that justified it, so an
    /// operator can replay the controller's reasoning from `clof adapt`'s
    /// audit tail after the fact. That is a handful of relaxed
    /// stores once per *window*, nowhere near the lock hot path.
    pub fn observe(&mut self, obs: &WindowObservation) -> AdaptDecision {
        let active = self.active as u32;
        let Some(l) = obs.concurrency() else {
            // No usable evidence this window; a real shift will still
            // be there next window, a glitch won't.
            self.candidate = None;
            self.streak = 0;
            crate::audit::global().record(
                obs.acquires_per_sec,
                0.0,
                active,
                active,
                0.0,
                0,
                crate::audit::AuditReason::NoEvidence,
                0,
            );
            return AdaptDecision::Stay;
        };
        // Best challenger at this concurrency, first index wins ties.
        let (best, best_tp) = self
            .profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.throughput_at(l)))
            .fold((0, f64::NEG_INFINITY), |acc, (i, tp)| {
                if tp > acc.1 {
                    (i, tp)
                } else {
                    acc
                }
            });
        let active_tp = self.profiles[self.active].throughput_at(l);
        let rel_margin = if active_tp > 0.0 {
            best_tp / active_tp - 1.0
        } else {
            0.0
        };
        let audit = |margin: f64, streak: u32, reason: crate::audit::AuditReason| {
            crate::audit::global().record(
                obs.acquires_per_sec,
                l,
                active,
                best as u32,
                margin,
                streak,
                reason,
                0,
            );
        };
        if best == self.active || best_tp <= active_tp * (1.0 + self.config.margin) {
            self.candidate = None;
            self.streak = 0;
            audit(
                rel_margin,
                0,
                if best == self.active {
                    crate::audit::AuditReason::ActiveBest
                } else {
                    crate::audit::AuditReason::WithinMargin
                },
            );
            return AdaptDecision::Stay;
        }
        if self.candidate == Some(best) {
            self.streak += 1;
        } else {
            self.candidate = Some(best);
            self.streak = 1;
        }
        if self.streak >= self.config.k.max(1) {
            audit(rel_margin, self.streak, crate::audit::AuditReason::Switched);
            self.active = best;
            self.candidate = None;
            self.streak = 0;
            AdaptDecision::Switch(best)
        } else {
            audit(
                rel_margin,
                self.streak,
                crate::audit::AuditReason::StreakBuilding,
            );
            AdaptDecision::Stay
        }
    }

    /// [`observe`](Self::observe) straight from a sampler window.
    pub fn observe_rates(&mut self, rates: &WindowRates) -> AdaptDecision {
        self.observe(&WindowObservation::from_rates(rates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Two shapes with crossing profiles: "local" wins at low
    // concurrency, "global" wins at high.
    fn crossing() -> Vec<FinalistProfile> {
        vec![
            FinalistProfile::new("local", &[(1, 100.0), (4, 80.0), (8, 20.0)]).unwrap(),
            FinalistProfile::new("global", &[(1, 60.0), (4, 70.0), (8, 90.0)]).unwrap(),
        ]
    }

    fn obs(acq_per_sec: f64, per_pass_ns: f64) -> WindowObservation {
        WindowObservation {
            acquires_per_sec: acq_per_sec,
            mean_acquire_ns: per_pass_ns / 2.0,
            mean_hold_ns: per_pass_ns / 2.0,
        }
    }

    // L = λ · W: 1e9/per_pass_ns · per_pass_ns/1e9 · n = n threads.
    fn at_concurrency(n: f64) -> WindowObservation {
        obs(n * 1e6, 1e3)
    }

    #[test]
    fn concurrency_is_littles_law() {
        let l = at_concurrency(6.0).concurrency().unwrap();
        assert!((l - 6.0).abs() < 1e-9, "{l}");
        assert!(obs(0.0, 1e3).concurrency().is_none(), "no traffic, no L");
        assert!(obs(f64::NAN, 1e3).concurrency().is_none());
    }

    #[test]
    fn profile_interpolates_and_clamps() {
        let p = FinalistProfile::new("p", &[(2, 10.0), (4, 30.0)]).unwrap();
        assert_eq!(p.throughput_at(1.0), 10.0, "clamp below");
        assert_eq!(p.throughput_at(9.0), 30.0, "clamp above");
        assert!((p.throughput_at(3.0) - 20.0).abs() < 1e-9, "midpoint");
    }

    #[test]
    fn switch_requires_k_consecutive_wins() {
        let mut c = HysteresisController::new(
            crossing(),
            0,
            HysteresisConfig { k: 3, margin: 0.15 },
        )
        .unwrap();
        // High concurrency: "global" (90) beats "local" (20) by > 15%.
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Stay);
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Stay);
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Switch(1));
        assert_eq!(c.active(), 1);
        // Once switched, the same evidence is no longer a reason to move.
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Stay);
    }

    #[test]
    fn degenerate_window_resets_the_streak() {
        let mut c = HysteresisController::new(
            crossing(),
            0,
            HysteresisConfig { k: 2, margin: 0.1 },
        )
        .unwrap();
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Stay);
        // Silence between wins: streak restarts.
        assert_eq!(c.observe(&obs(0.0, 0.0)), AdaptDecision::Stay);
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Stay);
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Switch(1));
    }

    #[test]
    fn within_margin_never_switches() {
        // "global" at L=4 (70) beats "local" (80)? No — active wins; and
        // even where global edges ahead slightly, margin suppresses it.
        let mut c = HysteresisController::new(
            crossing(),
            0,
            HysteresisConfig { k: 1, margin: 0.15 },
        )
        .unwrap();
        for _ in 0..50 {
            assert_eq!(c.observe(&at_concurrency(4.0)), AdaptDecision::Stay);
        }
        assert_eq!(c.active(), 0);
    }

    #[test]
    fn every_decision_lands_in_the_audit_ring() {
        let ring = crate::audit::global();
        let before = ring.recorded();
        let mut c = HysteresisController::new(
            crossing(),
            0,
            HysteresisConfig { k: 2, margin: 0.15 },
        )
        .unwrap();
        // L = 7 is used by no other test, so this test's records are
        // identifiable in the shared global ring even under concurrent
        // test threads.
        c.observe(&at_concurrency(2.0)); // active best → hold
        c.observe(&obs(0.0, 0.0)); // no evidence
        c.observe(&at_concurrency(7.0)); // streak building
        c.observe(&at_concurrency(7.0)); // switch
        assert!(
            ring.recorded() >= before + 4,
            "one audit record per decision"
        );
        let entries = ring.entries();
        let mine: Vec<_> = entries
            .iter()
            .filter(|r| r.seq >= before && (r.concurrency - 7.0).abs() < 1e-6)
            .collect();
        use crate::audit::AuditReason::*;
        assert!(
            entries.iter().any(|r| r.seq >= before && r.reason == NoEvidence),
            "the no-evidence hold must be audited too"
        );
        assert!(mine.iter().any(|r| r.reason == StreakBuilding));
        let switched = mine.iter().find(|r| r.reason == Switched).unwrap();
        assert_eq!((switched.active, switched.best), (0, 1));
        // local at L=7 interpolates to 35, global to 85: margin ≈ 1.43.
        assert!(switched.margin > 1.0, "{}", switched.margin);
        assert_eq!(switched.streak, 2);
    }

    #[test]
    fn set_active_resynchronises_after_failed_swap() {
        let mut c = HysteresisController::new(
            crossing(),
            0,
            HysteresisConfig { k: 1, margin: 0.1 },
        )
        .unwrap();
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Switch(1));
        // The swap failed; roll the controller back.
        c.set_active(0);
        assert_eq!(c.active(), 0);
        assert_eq!(c.observe(&at_concurrency(8.0)), AdaptDecision::Switch(1));
    }
}
