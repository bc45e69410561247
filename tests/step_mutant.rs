//! Mutant-kill suite for the level step (`crates/core/src/step.rs`):
//! invert the §4.1.3 release order and prove that the context-invariant
//! detector notices — through every adapter of the step.
//!
//! The mutant (`clof::step_mutant::release_low_first`) makes a
//! release-up let go of the level's low lock *before* the high one. A
//! cohort successor can then win the low lock and enter the high-context
//! bracket while the releaser is still inside it, which is exactly what
//! `LevelMeta::debug_ctx_enter` (kept alive by the `testkit` feature)
//! panics on — before either thread touches the context. The paper's
//! model checker kills the same mutant on the *model*
//! (`crates/verify/tests/mutant_kill.rs`); this file kills it on the
//! code that ships. Because the static tree, the typed tier and the enum
//! tier all run the one step, the one mutant must die on all three.
//!
//! A kill leaves the tree wedged (the panicking thread dies holding a
//! lock), so workers acquire through bounded attempts and give up once a
//! peer has died; the composition is `clh-clh-hem` because every lock in
//! it abandons a queue position without waiting for a turn. Each seed
//! gets a fresh lock.
//!
//! One `#[test]` on purpose: the mutant is process-wide while its guard
//! lives, so the armed and control phases run serially in their own
//! binary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use clof::compose::build3;
use clof::{ClofHandle, ClofParams, DynClofLock, DynHandle, HierLock, LockKind};
use clof_locks::{ClhLock, Hemlock};
use clof_testkit::strategies::build_regular;
use clof_testkit::{run_stress, seed_batch, OracleHandle, StressOptions, StressReport, Violation};
use clof_topology::Hierarchy;

const SHAPE: [LockKind; 3] = [LockKind::Clh, LockKind::Clh, LockKind::Hemlock];
/// Two threads per leaf cohort, both leaves under one mid cohort: the
/// high contexts of levels 0 and 1 are both shared.
const CPUS: [usize; 4] = [0, 1, 2, 3];
const SEEDS: usize = 8;

/// A handle of any adapter that can make a bounded attempt.
trait Bounded {
    fn try_acquire_for(&mut self, budget: Duration) -> bool;
    fn release(&mut self);
}

impl Bounded for DynHandle {
    fn try_acquire_for(&mut self, budget: Duration) -> bool {
        DynHandle::try_acquire_for(self, budget)
    }
    fn release(&mut self) {
        DynHandle::release(self);
    }
}

impl<T: HierLock> Bounded for ClofHandle<T> {
    fn try_acquire_for(&mut self, budget: Duration) -> bool {
        ClofHandle::try_acquire_for(self, budget)
    }
    fn release(&mut self) {
        ClofHandle::release(self);
    }
}

/// Drives a [`Bounded`] handle through the blocking oracle interface
/// without ever blocking for good: attempts are short, and once a peer
/// has died (holding a lock, so the tree is wedged) the worker dies too.
struct Mortal<H: Bounded> {
    /// `Some` until a dying worker leaks it.
    inner: Option<H>,
    peer_died: Arc<AtomicBool>,
}

impl<H: Bounded> Mortal<H> {
    fn new(inner: H, peer_died: &Arc<AtomicBool>) -> Self {
        Mortal {
            inner: Some(inner),
            peer_died: Arc::clone(peer_died),
        }
    }

    fn inner(&mut self) -> &mut H {
        self.inner.as_mut().expect("leaked only while dying")
    }
}

impl<H: Bounded> OracleHandle for Mortal<H> {
    fn acquire(&mut self) {
        while !self.inner().try_acquire_for(Duration::from_millis(20)) {
            assert!(
                !self.peer_died.load(Ordering::Relaxed),
                "a peer died holding the lock"
            );
        }
    }

    fn release(&mut self) {
        self.inner().release();
    }
}

impl<H: Bounded> Drop for Mortal<H> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.peer_died.store(true, Ordering::Relaxed);
            // The detector's victim dies holding locks whose queues
            // still point into its contexts: leak them, as `RawLock`'s
            // contract demands of a context that is still in use.
            std::mem::forget(self.inner.take());
        }
    }
}

fn params() -> ClofParams {
    // A small threshold forces release-ups while cohort peers wait —
    // the hand-off the mutant breaks.
    ClofParams {
        keep_local_threshold: 2,
    }
}

/// One seeded oracle run on a fresh lock of adapter `tier`.
fn run(tier: &str, hierarchy: &Hierarchy, seed: u64) -> StressReport {
    let opts = StressOptions {
        threads: CPUS.len(),
        iters: 60,
        seed,
        label: format!("step-mutant {tier}"),
        ..StressOptions::default()
    };
    let died = Arc::new(AtomicBool::new(false));
    if tier == "static" {
        let tree = build3::<ClhLock, ClhLock, Hemlock>(hierarchy, params()).expect("builds");
        return run_stress(&opts, |tid| Mortal::new(tree.handle(CPUS[tid]), &died));
    }
    let lock = DynClofLock::build_with(hierarchy, &SHAPE, params(), false).expect("builds");
    match tier {
        "typed" => run_stress(&opts, |tid| Mortal::new(lock.handle(CPUS[tid]), &died)),
        "enum" => run_stress(&opts, |tid| {
            Mortal::new(lock.handle_generic(CPUS[tid]), &died)
        }),
        _ => unreachable!("unknown tier {tier}"),
    }
}

#[test]
fn release_low_first_mutant_is_killed_through_every_adapter() {
    let hierarchy = build_regular(&[2, 4]);
    let seeds = seed_batch(0x57E9_10F1, SEEDS);

    // Phase 1 — mutant armed: on every adapter some seed must die on
    // the context invariant, with a replayable seed in the report.
    {
        let _armed = clof::step_mutant::release_low_first();
        for tier in ["static", "typed", "enum"] {
            let kill = seeds
                .iter()
                .map(|&seed| run(tier, &hierarchy, seed))
                .find(|report| {
                    report
                        .violations
                        .iter()
                        .any(|v| matches!(v, Violation::ContextInvariant { .. }))
                });
            let report = kill.unwrap_or_else(|| {
                panic!("release-low-first mutant escaped {SEEDS} seeds on the {tier} tier")
            });
            assert!(
                report.render().contains("replay with seed 0x"),
                "kill must name a replayable seed:\n{}",
                report.render()
            );
        }
    }

    // Phase 2 — control, mutant disarmed: the identical campaign passes
    // on every adapter. A detector that fired on the real step would
    // "kill" the mutant too, proving nothing.
    for tier in ["static", "typed", "enum"] {
        for &seed in &seeds {
            let report = run(tier, &hierarchy, seed);
            assert!(report.passed(), "{}", report.render());
        }
    }
}
