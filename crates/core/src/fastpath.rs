//! The fast-path extension (paper §6): a test-and-set front lock over a
//! CLoF composition.
//!
//! "Since often only a single thread tries to acquire a spinlock, slow
//! path optimizations should minimally affect the critical path for a
//! single thread. [...] Extending CLoF with the same TAS approach as
//! ShflLock is rather simple." — this module is that extension. The
//! gate is a [`TtasLock`], the crate's one test-and-set lock: an
//! uncontended acquire is one load and one `swap`; under contention,
//! threads order themselves through the full NUMA-aware composition and
//! only the composition's owner competes with fresh arrivals for the
//! gate. That is the structure of Fissile locks (Dice & Kogan,
//! arXiv:2003.05025): an outer test-and-set lock over an inner queue
//! lock, the queue's head the only queued thread at the outer lock.
//!
//! Trade-off (same as ShflLock's): a fast-path arrival can overtake the
//! composition's owner at the gate, and nothing bounds how often, so the
//! lock is *unfair*. Fissile's bounded bypass (an impatient gate waiter
//! that sends new arrivals down the slow path) is the open `FastClof`
//! item in ROADMAP.md (item 4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clof_locks::{CachePadded, NoContext, RawLock, TtasLock};
use clof_topology::{CpuId, Hierarchy};

use crate::dynlock::{DynClofLock, DynHandle};
use crate::error::ClofError;
use crate::kind::LockKind;
use crate::level::{bump_owned, ClofParams};

/// What a handle tells its gate telemetry. Every method defaults to
/// nothing, which is all that `()` — the recorder of a build without the
/// `obs` feature — does.
trait GateHook {
    /// Acquire entry; returns the gate wait's start timestamp.
    fn start(&mut self) -> u64 {
        0
    }

    /// Gate won (either path).
    fn record_gate(&mut self, _start: u64, _fast: bool) {}

    /// Gate released.
    fn record_release(&mut self) {}

    /// The bounded gate wait gave up.
    fn abandoned(&mut self) {}
}

impl GateHook for () {}

/// Telemetry for the TAS gate.
///
/// The gate emits `Gate` spans (acquire entry → gate won, flagged
/// fast/slow) and its occupancy-table transitions. It deliberately emits no `Hold`
/// span: the slow path holds the composition while spinning on the
/// gate, so a gate-hold span would overlap the composition's own hold
/// spans and break the analyzer's total-order check. Ownership-timeline
/// analysis of a `FastClof` trace therefore describes the slow-path
/// composition; gate decisions are the `Gate` spans.
#[cfg(feature = "obs")]
mod gateobs {
    use std::sync::Arc;

    use clof_obs::registry::SiteAnchor;
    use clof_obs::trace::{self, SpanKind};
    use clof_obs::{now_ns, thread_tag, waitgraph, Shard};

    use super::{DynHandle, FastClof, GateHook};

    /// Per-handle gate telemetry, attributed to the slow composition's
    /// profiler site (a `FastClof` is one lock to the profiler: the
    /// `tas+`-labelled site). Fast-path wins record their wait/hold
    /// into the gate pair of the slow handle's shard; slow-path ops are
    /// already attributed by the composition handle they queue through,
    /// so only the gate's waits-for transitions are emitted to avoid
    /// double counting.
    #[derive(Debug)]
    pub(super) struct GateObs {
        site: Arc<SiteAnchor>,
        shard: Arc<Shard>,
        last_fast: bool,
        acquired_at: u64,
    }

    pub(super) fn gate_obs(lock: &FastClof, slow: &DynHandle) -> GateObs {
        GateObs {
            site: lock.slow.site_anchor(),
            shard: slow.obs_shard(),
            last_fast: false,
            acquired_at: 0,
        }
    }

    impl GateHook for GateObs {
        /// Publishes `Waiting` and timestamps the gate wait.
        #[inline]
        fn start(&mut self) -> u64 {
            let now = now_ns();
            waitgraph::global().wait_at(thread_tag(), self.site.id(), now);
            now
        }

        /// A fast win took the gate on its first attempt: it waited for
        /// nothing, so it is won at the entry stamp and the fast path
        /// reads the clock twice per acquire→release, like the
        /// composition's recorder.
        #[inline]
        fn record_gate(&mut self, start: u64, fast: bool) {
            let at = if fast { start } else { now_ns() };
            self.last_fast = fast;
            self.acquired_at = at;
            if fast {
                self.shard.gate_won(at.saturating_sub(start));
            }
            waitgraph::global().acquired(thread_tag(), self.site.id(), at);
            if trace::is_enabled() {
                trace::record(start, at, 0, 0, SpanKind::Gate { fast }, 0, 0);
            }
        }

        #[inline]
        fn record_release(&mut self) {
            let now = now_ns();
            if self.last_fast {
                self.shard.gate_held(now.saturating_sub(self.acquired_at));
            }
            waitgraph::global().released(thread_tag(), self.site.id(), now);
        }

        /// The composition was handed back, nothing is held: cancels
        /// any dangling wait edge.
        #[inline]
        fn abandoned(&mut self) {
            waitgraph::global().wait_cancelled(thread_tag(), now_ns());
        }
    }
}

#[cfg(not(feature = "obs"))]
mod gateobs {
    pub(super) type GateObs = ();

    pub(super) fn gate_obs(_lock: &super::FastClof, _slow: &super::DynHandle) {}
}

/// A CLoF lock with a test-and-set fast path.
///
/// # Examples
///
/// ```
/// use clof::fastpath::FastClof;
/// use clof::LockKind;
/// use clof_topology::platforms;
///
/// let lock = FastClof::build(
///     &platforms::tiny(),
///     &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
/// )
/// .unwrap();
/// let mut handle = lock.handle(0);
/// handle.acquire();
/// handle.release();
/// ```
pub struct FastClof {
    /// The gate that actually protects the critical section. Its flag
    /// (and, with `park`, its eventcount) has a cache line to itself:
    /// gate traffic must not invalidate the path counters (below) or
    /// the composition's read-mostly topology.
    gate: TtasLock,
    /// Path counters (diagnostics). Written only by the thread that just
    /// won the gate — successive owners are ordered by the gate's
    /// release→acquire hand-off — so plain load + store suffices, and
    /// one shared line for both is fine (same writer).
    paths: CachePadded<PathCounters>,
    /// NUMA-aware ordering of contenders.
    slow: DynClofLock,
}

#[derive(Debug, Default)]
struct PathCounters {
    fast: AtomicU64,
    slow: AtomicU64,
}

// The owner-written counters have a line of their own.
const _: () = assert!(std::mem::size_of::<CachePadded<PathCounters>>() == clof_locks::CACHE_LINE);

impl FastClof {
    /// Builds the fast-path lock over `locks` on `hierarchy`.
    ///
    /// # Errors
    ///
    /// Propagates [`DynClofLock::build`] errors.
    #[track_caller]
    pub fn build(hierarchy: &Hierarchy, locks: &[LockKind]) -> Result<Arc<Self>, ClofError> {
        Self::build_with(hierarchy, locks, ClofParams::default())
    }

    /// Builds with explicit composition parameters.
    #[track_caller]
    pub fn build_with(
        hierarchy: &Hierarchy,
        locks: &[LockKind],
        params: ClofParams,
    ) -> Result<Arc<Self>, ClofError> {
        let slow = DynClofLock::build_with(hierarchy, locks, params, false)?;
        // The profiler sees one lock: relabel the composition's site
        // with the fast-path prefix the exports use.
        #[cfg(feature = "obs")]
        slow.relabel_site(&format!("tas+{}", slow.name()));
        Ok(Arc::new(FastClof {
            gate: TtasLock::new(),
            paths: CachePadded::new(PathCounters::default()),
            slow,
        }))
    }

    /// A per-thread handle entering at `cpu`'s leaf cohort.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the hierarchy.
    pub fn handle(self: &Arc<Self>, cpu: CpuId) -> FastClofHandle {
        let slow = self.slow.handle(cpu);
        FastClofHandle {
            lock: Arc::clone(self),
            obs: gateobs::gate_obs(self, &slow),
            slow,
        }
    }

    /// Composition name of the slow path, e.g. `"mcs-clh-tkt"`.
    pub fn name(&self) -> String {
        format!("tas+{}", self.slow.name())
    }

    /// `(fast_path_acquires, slow_path_acquires)` so far.
    pub fn path_counters(&self) -> (u64, u64) {
        (
            self.paths.fast.load(Ordering::Relaxed),
            self.paths.slow.load(Ordering::Relaxed),
        )
    }

    /// Telemetry snapshot of the slow path (the composition); the TAS
    /// gate itself contributes only [`Self::path_counters`]. The
    /// snapshot's name carries the `tas+` prefix so exports distinguish
    /// the fast-path variant.
    #[cfg(feature = "obs")]
    pub fn obs_snapshot(&self) -> clof_obs::LockSnapshot {
        let mut snap = self.slow.obs_snapshot();
        snap.name = self.name();
        snap
    }

    /// The contention-profiler site id shared with the slow composition
    /// (labelled `tas+…` in the registry).
    #[cfg(feature = "obs")]
    pub fn site_id(&self) -> u32 {
        self.slow.site_id()
    }

    /// The current contention-profile row for this lock's site.
    #[cfg(feature = "obs")]
    pub fn site_profile(&self) -> Option<clof_obs::SiteProfile> {
        self.slow.site_profile()
    }

    /// The slow composition's read-indicator total; zero at quiescence
    /// means no timed-out attempt leaked composition state. See
    /// [`DynClofLock::queue_depth_hint`].
    pub fn queue_depth_hint(&self) -> u32 {
        self.slow.queue_depth_hint()
    }

    /// Marks the protected state suspect (a holder panicked); delegates
    /// to the slow composition's flag — the gate carries no state of
    /// its own. See [`DynClofLock::poison`].
    pub fn poison(&self) {
        self.slow.poison();
    }

    /// Whether a holder has panicked while holding this lock.
    pub fn is_poisoned(&self) -> bool {
        self.slow.is_poisoned()
    }

    /// Clears the poison flag; see [`DynClofLock::clear_poison`].
    pub fn clear_poison(&self) {
        self.slow.clear_poison()
    }
}

/// Per-thread handle on a [`FastClof`].
pub struct FastClofHandle {
    lock: Arc<FastClof>,
    slow: DynHandle,
    obs: gateobs::GateObs,
}

impl FastClofHandle {
    /// Acquires the lock (one load and one `swap` when uncontended).
    pub fn acquire(&mut self) {
        let start = self.obs.start();
        if self.lock.gate.try_acquire() {
            bump_owned(&self.lock.paths.fast);
            self.obs.record_gate(start, true);
            return;
        }
        // Slow path: order through the CLoF composition, then, as the
        // composition's owner, win the gate and hand the composition to
        // the next NUMA-local waiter (who becomes the new gate spinner).
        // The gate is contended machine-wide, so it waits with the root
        // level's (smallest) spin budget.
        self.slow.acquire();
        self.lock
            .gate
            .acquire_budgeted(&mut NoContext, self.lock.slow.root_spin_budget());
        self.slow.release();
        bump_owned(&self.lock.paths.slow);
        self.obs.record_gate(start, false);
    }

    /// Deadline-bounded acquire: the fast path is a single attempt, the
    /// slow path spends the shared budget first on the composition and
    /// then on the gate's deadline wait (spin-only, never parked — a
    /// deadline wait must stay wakeable by the clock alone). On gate
    /// expiry the composition is released back to the next NUMA-local
    /// waiter: the gate grants nothing positionally, so giving up is
    /// just handing the slow path on — no queue state can leak.
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        let start = self.obs.start();
        if self.lock.gate.try_acquire() {
            bump_owned(&self.lock.paths.fast);
            self.obs.record_gate(start, true);
            return true;
        }
        if !self.slow.try_acquire_until(deadline) {
            // The composed attempt unwound itself and already counted
            // its own timeout (the handle and gate share a site, so the
            // wait edge is cancelled too).
            return false;
        }
        if !self.lock.gate.try_acquire_until(&mut NoContext, deadline) {
            // The gate counted the abandon; hand the composition on.
            self.slow.release();
            self.obs.abandoned();
            return false;
        }
        self.slow.release();
        bump_owned(&self.lock.paths.slow);
        self.obs.record_gate(start, false);
        true
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
    pub fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
        self.try_acquire_until(std::time::Instant::now() + budget)
    }

    /// Releases the lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.obs.record_release();
        self.lock.gate.release(&mut NoContext);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof_topology::platforms;
    use std::sync::atomic::AtomicUsize;

    fn build_tiny() -> Arc<FastClof> {
        FastClof::build(
            &platforms::tiny(),
            &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
        )
        .unwrap()
    }

    #[test]
    fn uncontended_uses_fast_path() {
        let lock = build_tiny();
        let mut handle = lock.handle(0);
        for _ in 0..100 {
            handle.acquire();
            handle.release();
        }
        let (fast, slow) = lock.path_counters();
        assert_eq!(fast, 100);
        assert_eq!(slow, 0);
    }

    #[test]
    fn name_reflects_structure() {
        let lock = build_tiny();
        assert_eq!(lock.name(), "tas+mcs-clh-tkt");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 6;
        const ITERS: usize = 1_200;
        let lock = build_tiny();
        let counter = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let mut handle = lock.handle(t % 8);
            let counter = Arc::clone(&counter);
            workers.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ITERS);
        let (fast, slow) = lock.path_counters();
        assert_eq!(fast + slow, (THREADS * ITERS) as u64);
    }

    #[test]
    fn contended_acquire_takes_slow_path() {
        // Forced contention: hold the gate while a second thread
        // acquires — it must go through the composition. (A statistical
        // version is flaky on single-CPU hosts, where threads rarely
        // overlap.)
        let lock = build_tiny();
        let mut holder = lock.handle(0);
        holder.acquire();
        let started = Arc::new(AtomicUsize::new(0));
        let contender = {
            let lock = Arc::clone(&lock);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut handle = lock.handle(4);
                started.store(1, Ordering::Release);
                handle.acquire();
                handle.release();
            })
        };
        // Let the contender fail the fast path and park in the slow path
        // before releasing; if the grace period were ever too short, the
        // contender would fast-path and the assertion below would flag it.
        while started.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        holder.release();
        contender.join().unwrap();
        let (_, slow) = lock.path_counters();
        assert_eq!(slow, 1);
    }

    #[test]
    fn deadline_timeout_releases_composition_back() {
        use std::time::{Duration, Instant};
        let lock = build_tiny();
        let mut holder = lock.handle(0);
        holder.acquire();
        // The contender wins the composition, spins on the held gate,
        // expires, and must hand the composition back on its way out.
        let mut contender = lock.handle(4);
        let start = Instant::now();
        assert!(!contender.try_acquire_until(start + Duration::from_millis(40)));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(
            lock.queue_depth_hint(),
            0,
            "timed-out gate spinner kept composition state"
        );
        // A second contender can still traverse the slow path end to
        // end — the composition was not left held by the quitter.
        let second = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let mut handle = lock.handle(2);
                assert!(handle.try_acquire_until(Instant::now() + Duration::from_secs(10)));
                handle.release();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        holder.release();
        second.join().unwrap();
        // And the quitter itself recovers.
        assert!(contender.try_acquire_for(Duration::from_secs(10)));
        contender.release();
    }

    #[test]
    fn deadline_uncontended_try_is_fast_path() {
        let lock = build_tiny();
        let mut handle = lock.handle(0);
        assert!(handle.try_acquire_for(std::time::Duration::from_secs(10)));
        handle.release();
        let (fast, slow) = lock.path_counters();
        assert_eq!((fast, slow), (1, 0));
    }

    #[test]
    fn composition_errors_propagate() {
        let err = FastClof::build(&platforms::tiny(), &[LockKind::Mcs]);
        assert!(err.is_err());
        let err = FastClof::build(
            &platforms::tiny(),
            &[LockKind::Mcs, LockKind::Ttas, LockKind::Ticket],
        );
        assert!(err.is_err());
    }

    /// A fast-path win reads the clock at entry and at release only.
    #[cfg(all(feature = "obs", debug_assertions))]
    #[test]
    fn fast_path_reads_the_clock_twice() {
        let lock = build_tiny();
        let mut handle = lock.handle(0);
        let before = clof_obs::clock_reads();
        handle.acquire();
        handle.release();
        assert_eq!(clof_obs::clock_reads() - before, 2);
        assert_eq!(lock.path_counters(), (1, 0));
    }
}
