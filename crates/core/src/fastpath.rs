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
//!
//! Telemetry: a handle's gate reports to its composition handle's
//! recorder, so the profiler sees one `tas+`-labelled site. A fast win
//! records its wait and hold in the recorder's gate pair; a slow win is
//! already recorded by the composition it queued through. The gate
//! emits `Gate` trace spans but no `Hold` span, which would overlap the
//! composition's own (DESIGN §8).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clof_locks::{CachePadded, NoContext, RawLock, TtasLock};
use clof_topology::{CpuId, Hierarchy};

use crate::dynlock::{DynClofLock, DynHandle};
use crate::error::ClofError;
use crate::kind::LockKind;
use crate::level::{bump_owned, ClofParams};
use crate::telemetry::{GateWin, Recorder, Telemetry};

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
    pub(crate) slow: DynClofLock,
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
        Recorder::relabel(&slow.obs, format_args!("tas+{}", slow.name()));
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
            slow,
            win: GateWin::default(),
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

/// Per-thread handle on a [`FastClof`]. The gate reports to the
/// composition handle's recorder: a `FastClof` is one lock to the
/// profiler.
pub struct FastClofHandle {
    lock: Arc<FastClof>,
    slow: DynHandle,
    win: GateWin,
}

impl FastClofHandle {
    /// Acquires the lock (one load and one `swap` when uncontended).
    pub fn acquire(&mut self) {
        let start = self.slow.rec.gate_entered();
        if self.lock.gate.try_acquire() {
            bump_owned(&self.lock.paths.fast);
            self.slow.rec.gate_won(&mut self.win, start, true);
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
        self.slow.rec.gate_won(&mut self.win, start, false);
    }

    /// Deadline-bounded acquire: the fast path is a single attempt, the
    /// slow path spends the shared budget first on the composition and
    /// then on the gate's deadline wait (spin-only, never parked — a
    /// deadline wait must stay wakeable by the clock alone). On gate
    /// expiry the composition is released back to the next NUMA-local
    /// waiter: the gate grants nothing positionally, so giving up is
    /// just handing the slow path on — no queue state can leak.
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        let start = self.slow.rec.gate_entered();
        if self.lock.gate.try_acquire() {
            bump_owned(&self.lock.paths.fast);
            self.slow.rec.gate_won(&mut self.win, start, true);
            return true;
        }
        if !self.slow.try_acquire_until(deadline) {
            // The composed attempt unwound itself and already counted
            // its own timeout.
            return false;
        }
        if !self.lock.gate.try_acquire_until(&mut NoContext, deadline) {
            // The gate counted the abandon; hand the composition on.
            self.slow.release();
            return false;
        }
        self.slow.release();
        bump_owned(&self.lock.paths.slow);
        self.slow.rec.gate_won(&mut self.win, start, false);
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
        self.slow.rec.gate_released(&self.win);
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
