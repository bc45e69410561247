//! Forced-timeout schedule driver for deadline-bounded acquisition
//! (`--features deadline`).
//!
//! Real clocks almost never expire a deadline *inside* a lock's
//! interesting race windows — the grant-vs-abandon edge where a waiter
//! gives up exactly as the releaser hands it the lock. The locks crate
//! exposes a seeded injection stream
//! ([`clof_locks::deadline::forced`]) that makes any wait round pretend
//! its deadline expired; this module drives that stream the way the
//! oracle drives [`clof_locks::chaos`]:
//!
//! * [`with_forced_timeouts`] — configures the stream for one seeded
//!   run and reports how many timeouts were forced. The plan is
//!   process-global, so runs are serialized behind a module mutex, and
//!   it fires only on threads enrolled in it — the caller for the
//!   body's duration and every thread that builds a [`TimedHandle`] —
//!   so tests running beside an injecting one keep their real clocks.
//! * [`TimedHandle`] — wraps any [`DeadlineHandle`] so the stress
//!   oracle's *blocking* `acquire` becomes a retry loop of seeded,
//!   microsecond-scale `try_acquire_until` attempts. Every failed
//!   attempt walks the full abandonment protocol (queue-node abandon,
//!   level unwind, waiter-count bracket), then the next attempt proves
//!   the lock survived it — all under the oracle's mutual-exclusion and
//!   context-invariant checks.
//! * [`BlockingOrTimed`] — mixes timed and blocking waiters in one run,
//!   so abandonment is fuzzed against waiters that spin (or, under the
//!   `park` feature, block in the kernel) indefinitely.
//! * [`ForcedTimeoutPlan`] + [`ForcedTimeoutPlan::gen`] — a shrinkable
//!   generator of injection schedules for the property runner: a
//!   failing (seed, denom, budget) triple shrinks toward the least
//!   aggressive schedule that still fails.
//!
//! Determinism mirrors the chaos caveat: forced-fire decisions are a
//! pure function of seed and global poll order, so a seed replays a
//! failure *class*, not an exact interleaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use clof_locks::deadline::forced;

use crate::gen::Gen;
use crate::oracle::{run_stress, OracleHandle, StressOptions, StressReport};
use crate::rng::TestRng;

/// Anything the timed driver can bound: an [`OracleHandle`] that also
/// offers a deadline-bounded acquire.
pub trait DeadlineHandle: OracleHandle {
    /// Attempts to acquire until `deadline`; `false` means the attempt
    /// timed out and fully unwound (no queue position, no held level).
    fn try_acquire_until(&mut self, deadline: Instant) -> bool;
}

impl DeadlineHandle for clof::DynHandle {
    fn try_acquire_until(&mut self, deadline: Instant) -> bool {
        clof::DynHandle::try_acquire_until(self, deadline)
    }
}

impl DeadlineHandle for clof::adapt::AdaptHandle {
    fn try_acquire_until(&mut self, deadline: Instant) -> bool {
        clof::adapt::AdaptHandle::try_acquire_until(self, deadline)
    }
}

/// Serializes forced-timeout runs: the injection stream is
/// process-global. Lock ordering with the oracle's own chaos guard is
/// forced-then-chaos (this guard is taken first, `run_stress` takes the
/// chaos guard inside the body), and nothing takes them the other way.
fn forced_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Runs `body` with the forced-timeout stream configured from
/// `(seed, denom)` — each deadline poll fires with probability
/// `1/denom` — and returns the body's result plus the number of
/// timeouts actually forced during the run.
pub fn with_forced_timeouts<R>(seed: u64, denom: u32, body: impl FnOnce() -> R) -> (R, u64) {
    let _guard = forced_guard();
    forced::configure(seed, denom);
    let was_enrolled = forced::enroll(true);
    let out = body();
    forced::enroll(was_enrolled);
    let fires = forced::fires();
    forced::disable();
    (out, fires)
}

/// Drives a [`DeadlineHandle`] through the blocking-oracle interface as
/// a retry loop of seeded bounded attempts.
///
/// Each `acquire` draws a per-attempt budget from
/// `[budget_micros / 2, budget_micros]` and retries until an attempt
/// wins, counting every timeout into a shared counter. Under forced
/// injection most "timeouts" land mid-wait rather than at the budget's
/// natural expiry, which is the point.
pub struct TimedHandle<H: DeadlineHandle> {
    inner: H,
    rng: TestRng,
    budget_micros: u64,
    timeouts: Arc<AtomicU64>,
}

impl<H: DeadlineHandle> TimedHandle<H> {
    /// Wraps `inner`; `seed` differentiates per-thread budget streams,
    /// `timeouts` accumulates this handle's abandoned attempts. Enrolls
    /// the calling thread — the oracle worker the handle is built on —
    /// in the forced-timeout plan of the surrounding run.
    pub fn new(inner: H, seed: u64, budget_micros: u64, timeouts: Arc<AtomicU64>) -> Self {
        forced::enroll(true);
        TimedHandle {
            inner,
            rng: TestRng::new(seed ^ 0xDEAD_11DE_DEAD_11DE),
            budget_micros: budget_micros.max(2),
            timeouts,
        }
    }
}

impl<H: DeadlineHandle> OracleHandle for TimedHandle<H> {
    fn acquire(&mut self) {
        loop {
            let lo = self.budget_micros / 2;
            let us = lo + self.rng.below(self.budget_micros - lo + 1);
            let deadline = Instant::now() + Duration::from_micros(us);
            if self.inner.try_acquire_until(deadline) {
                return;
            }
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn release(&mut self) {
        self.inner.release()
    }
}

/// A worker that either blocks (plain `acquire`, parking under the
/// `park` feature) or runs bounded attempts — for runs that fuzz
/// abandonment against indefinitely-waiting neighbours.
pub enum BlockingOrTimed<H: DeadlineHandle> {
    /// Plain blocking waiter.
    Blocking(H),
    /// Deadline-bounded retry waiter.
    Timed(TimedHandle<H>),
}

impl<H: DeadlineHandle> OracleHandle for BlockingOrTimed<H> {
    fn acquire(&mut self) {
        match self {
            BlockingOrTimed::Blocking(h) => h.acquire(),
            BlockingOrTimed::Timed(h) => h.acquire(),
        }
    }

    fn release(&mut self) {
        match self {
            BlockingOrTimed::Blocking(h) => h.release(),
            BlockingOrTimed::Timed(h) => h.release(),
        }
    }
}

/// One forced-timeout injection schedule, the generated input of the
/// deadline property tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForcedTimeoutPlan {
    /// Seed of the forced stream (and of per-thread budget streams).
    pub seed: u64,
    /// A deadline poll fires with probability `1/denom`.
    pub denom: u32,
    /// Upper bound of the per-attempt budget drawn by [`TimedHandle`].
    pub budget_micros: u64,
}

impl ForcedTimeoutPlan {
    /// Generator over schedules: `denom` in `[1, 64]`, budgets in
    /// `[20µs, 520µs]`. Shrinks toward the *least* aggressive schedule
    /// (rarest injection, longest budget, seed 0), so a shrunk failure
    /// is the mildest schedule that still breaks the lock.
    pub fn gen() -> Gen<ForcedTimeoutPlan> {
        Gen::from_fn(|rng| ForcedTimeoutPlan {
            seed: rng.next_u64(),
            denom: 1 + rng.below(64) as u32,
            budget_micros: 20 + rng.below(501),
        })
        .with_shrink(|p| {
            let mut out = Vec::new();
            // Mildest first: no injection pressure beyond the clock.
            if p.denom < 64 {
                out.push(ForcedTimeoutPlan { denom: 64, ..p.clone() });
                let mid = (p.denom + 64) / 2;
                if mid != 64 && mid != p.denom {
                    out.push(ForcedTimeoutPlan { denom: mid, ..p.clone() });
                }
            }
            if p.budget_micros < 520 {
                out.push(ForcedTimeoutPlan {
                    budget_micros: 520,
                    ..p.clone()
                });
            }
            if p.seed != 0 {
                out.push(ForcedTimeoutPlan { seed: 0, ..p.clone() });
                out.push(ForcedTimeoutPlan {
                    seed: p.seed / 2,
                    ..p.clone()
                });
            }
            out.dedup();
            out
        })
    }
}

/// Outcome of a multi-seed forced-timeout fuzz campaign.
#[derive(Debug, Clone)]
pub struct TimeoutFuzzOutcome {
    /// Seeds actually executed (stops at the first failure).
    pub seeds_run: usize,
    /// First failing report, if any.
    pub failure: Option<StressReport>,
    /// Critical sections completed across all runs.
    pub total_acquisitions: u64,
    /// Bounded attempts that timed out and retried, across all runs.
    pub total_timeouts: u64,
    /// Timeouts the injection stream forced, across all runs.
    pub total_forced_fires: u64,
}

impl TimeoutFuzzOutcome {
    /// Whether every seed passed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Panics with the failing report (replayable seed included) if any
    /// seed failed.
    pub fn assert_passed(&self) {
        if let Some(report) = &self.failure {
            panic!(
                "deadline oracle failed after {} seed(s), {} timeout(s):\n{}",
                self.seeds_run,
                self.total_timeouts,
                report.render()
            );
        }
    }
}

/// Runs the stress oracle once per seed with forced-timeout injection
/// at `1/denom`, stopping at the first failure.
///
/// `factory(seed, tid, timeouts)` builds the per-thread handle —
/// typically a [`TimedHandle`] or [`BlockingOrTimed`] fed the same
/// `timeouts` counter, so the outcome can report how many abandonments
/// the campaign actually exercised.
pub fn fuzz_timeout_seeds<H, F>(
    opts: &StressOptions,
    seeds: &[u64],
    denom: u32,
    factory: F,
) -> TimeoutFuzzOutcome
where
    H: OracleHandle,
    F: Fn(u64, usize, &Arc<AtomicU64>) -> H + Sync,
{
    let mut total = 0u64;
    let mut total_timeouts = 0u64;
    let mut total_fires = 0u64;
    for (i, &seed) in seeds.iter().enumerate() {
        let timeouts = Arc::new(AtomicU64::new(0));
        let run_opts = StressOptions {
            seed,
            ..opts.clone()
        };
        let (report, fires) = with_forced_timeouts(seed, denom, || {
            run_stress(&run_opts, |tid| factory(seed, tid, &timeouts))
        });
        total += report.total_acquisitions;
        total_timeouts += timeouts.load(Ordering::Relaxed);
        total_fires += fires;
        if !report.passed() {
            return TimeoutFuzzOutcome {
                seeds_run: i + 1,
                failure: Some(report),
                total_acquisitions: total,
                total_timeouts,
                total_forced_fires: total_fires,
            };
        }
    }
    TimeoutFuzzOutcome {
        seeds_run: seeds.len(),
        failure: None,
        total_acquisitions: total,
        total_timeouts,
        total_forced_fires: total_fires,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::seed_batch;
    use crate::strategies::build_regular;
    use clof::{DynClofLock, LockKind};

    #[test]
    fn plan_gen_shrinks_toward_mildest_schedule() {
        let g = ForcedTimeoutPlan::gen();
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let p = g.sample(&mut rng);
            assert!((1..=64).contains(&p.denom));
            assert!((20..=520).contains(&p.budget_micros));
        }
        let aggressive = ForcedTimeoutPlan {
            seed: 99,
            denom: 2,
            budget_micros: 30,
        };
        let candidates = g.shrink(&aggressive);
        assert_eq!(candidates[0].denom, 64, "mildest denom first");
        assert!(candidates.iter().any(|c| c.budget_micros == 520));
        assert!(candidates.iter().any(|c| c.seed == 0));
        // The mildest schedule is a fixed point.
        let mild = ForcedTimeoutPlan {
            seed: 0,
            denom: 64,
            budget_micros: 520,
        };
        assert!(g.shrink(&mild).is_empty());
    }

    #[test]
    fn forced_timeouts_fire_and_reset() {
        let ((), fires) = with_forced_timeouts(0x5EED, 1, || {
            let lock = DynClofLock::build(
                &build_regular(&[2]),
                &[LockKind::Ticket, LockKind::Ticket],
            )
            .expect("builds");
            let mut h = lock.handle(0);
            // Uncontended bounded acquires still poll the deadline when
            // the fast CAS path is bypassed by contention; force polls
            // by timing out against a held lock.
            let mut holder = lock.handle(1);
            holder.acquire();
            let won = h.try_acquire_until(Instant::now() + Duration::from_millis(50));
            assert!(!won, "lock is held; denom 1 forces instant expiry");
            holder.release();
        });
        assert!(fires > 0, "denom 1 must force at least one timeout");
        assert!(!forced::is_enabled(), "stream disabled after the run");
    }

    #[test]
    fn timed_handles_survive_forced_injection_on_a_tree() {
        let hierarchy = build_regular(&[2, 2]);
        let lock = std::sync::Arc::new(
            DynClofLock::build(
                &hierarchy,
                &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
            )
            .expect("builds"),
        );
        let seeds = seed_batch(0x7E0_D1ED, 2);
        let opts = StressOptions {
            threads: 4,
            iters: 12,
            chaos_denom: 0, // forced timeouts are this run's perturbation
            label: "timed mcs-clh-tkt".into(),
            ..StressOptions::default()
        };
        let lock2 = std::sync::Arc::clone(&lock);
        let outcome = fuzz_timeout_seeds(&opts, &seeds, 3, |seed, tid, timeouts| {
            TimedHandle::new(
                lock2.handle(tid % hierarchy_ncpus(&hierarchy)),
                seed ^ tid as u64,
                120,
                std::sync::Arc::clone(timeouts),
            )
        });
        outcome.assert_passed();
        assert_eq!(
            outcome.total_acquisitions,
            2 * 4 * 12,
            "every timed acquire must eventually win"
        );
        assert!(outcome.total_timeouts > 0, "injection must force abandons");
        assert_eq!(lock.queue_depth_hint(), 0, "no waiter-count leak");
    }

    fn hierarchy_ncpus(h: &clof_topology::Hierarchy) -> usize {
        h.ncpus()
    }
}
