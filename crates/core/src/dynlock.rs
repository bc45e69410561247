//! Runtime-assembled CLoF locks: any `&[LockKind]` composition over any
//! [`Hierarchy`].
//!
//! This is the form the exhaustive generator (paper §4.3) benchmarks: with
//! `N = 4` basic locks and `M = 4` levels there are 256 compositions, far
//! too many to monomorphize statically. A [`DynClofLock`] is a tree of
//! [`DynNode`]s — one per cohort per level — each holding an enum-
//! dispatched basic lock, the level metadata, and an `Arc` to its parent
//! node. The protocol is identical to the static [`Clof`](crate::Clof).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clof_topology::{CpuId, Hierarchy};

use crate::compose::{cohort_layout, cpu_stripes};
use crate::error::ClofError;
use crate::kind::{AnyContext, AnyLock, LockKind};
use crate::level::{ClofParams, LevelMeta};

use self::fastdisp::FastTier;
use self::nodeobs::{LockObs, NodeObs, Recorder};

/// Telemetry plumbing for the dynamic composition, in the style of the
/// `clof-locks` chaos module: the enabled and disabled variants expose
/// the same names, and with the `obs` feature off every type is
/// zero-sized and every method an empty `#[inline]` body the optimizer
/// erases — call sites stay free of `cfg` noise.
///
/// A handle records into its own [`clof_obs::Shard`] and reads the clock
/// once per transition: acquire entry, each level won, release entry.
/// Inside the critical section the hooks only stash;
/// [`Recorder::released`] folds the stash in after the low lock is free.
#[cfg(feature = "obs")]
mod nodeobs {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use clof_obs::registry;
    use clof_obs::trace::{self, SpanKind};
    use clof_obs::{now_ns, thread_tag, waitgraph, watchdog, Shard, ShardSet};

    use super::DynNode;

    /// Per-lock collector state of one [`DynClofLock`](super::DynClofLock):
    /// the registry of its handles' shards, which also carries the
    /// lock's contention-profiler site anchor (shared so handles keep
    /// attributing to the site while an adaptation rebind retargets it).
    #[derive(Debug)]
    pub(super) struct LockObs {
        pub(super) shards: Arc<ShardSet>,
    }

    impl LockObs {
        pub(super) fn new(
            label: &str,
            shape: &str,
            caller: &'static std::panic::Location<'static>,
            nodes: &[(usize, Arc<DynNode>)],
        ) -> Self {
            // First telemetry-enabled lock in the process wires the
            // spin-then-park recorder hooks into clof-obs.
            #[cfg(feature = "park")]
            crate::parkglue::install();
            // Likewise for the deadline layer's abandon/skip counters.
            #[cfg(feature = "deadline")]
            crate::deadlineglue::install();
            let site = Arc::new(registry::global().register_at(label, shape, caller));
            let nodes = nodes
                .iter()
                .map(|(level, node)| (*level as u8, node.obs.node));
            LockObs {
                shards: ShardSet::new(site, nodes),
            }
        }
    }

    /// What is per node and read-mostly: the node's identity for the
    /// recorder and the tracer.
    #[derive(Debug)]
    pub(super) struct NodeObs {
        level: u8,
        /// Process-unique cohort tag (sibling cohorts share a level;
        /// spans and per-node waits must not interleave across them).
        node: u32,
        /// Hand-off flow id parked by a pass for its inheritor. Written
        /// under the low lock just before the release that publishes the
        /// pass flag; read (and cleared) by the inheriting acquire — the
        /// causality edge rides the same release→acquire synchronization
        /// as the pass flag itself. Touched only while tracing.
        flow: AtomicU64,
    }

    impl NodeObs {
        pub(super) fn new(level: usize) -> Self {
            NodeObs {
                level: level as u8,
                node: trace::node_tag(),
                flow: AtomicU64::new(0),
            }
        }
    }

    /// A handle's recorder: its shard, the phase it publishes for the
    /// starvation watchdog and the waits-for graph, and the tracer spans.
    #[derive(Debug)]
    pub(super) struct Recorder {
        pub(super) shard: Arc<Shard>,
        set: Arc<ShardSet>,
    }

    impl Recorder {
        pub(super) fn new(lock: &LockObs, leaf: &DynNode) -> Self {
            let mut path = Vec::new();
            let mut node = Some(leaf);
            while let Some(n) = node {
                path.push(n.obs.node);
                node = n.high.as_deref();
            }
            Recorder {
                shard: lock.shards.shard(&path),
                set: Arc::clone(&lock.shards),
            }
        }

        #[inline]
        fn site(&self) -> u32 {
            self.set.site().id()
        }

        /// Entering the composed acquire (before any spinning).
        #[inline]
        pub(super) fn enter(&mut self) {
            let now = now_ns();
            let thread = thread_tag();
            self.shard.enter(now);
            watchdog::global().wait_at(thread, now);
            waitgraph::global().wait_at(thread, self.site(), now);
            // Parks can only happen while waiting; publish the site so
            // the parked-duration recorder can attribute the episode.
            #[cfg(feature = "park")]
            crate::parkglue::enter_wait(self.site());
        }

        /// `node`'s low lock was won; `inherited` is whether the high
        /// lock came with it.
        #[inline]
        pub(super) fn level_won(&mut self, node: &NodeObs, inherited: bool) {
            let now = now_ns();
            let start = self.shard.level_won(now, inherited);
            if trace::is_enabled() {
                let flow_in = if inherited {
                    node.flow.swap(0, Ordering::Relaxed)
                } else {
                    0
                };
                let kind = SpanKind::Wait { inherited };
                trace::record(start, now, node.level, node.node, kind, flow_in, 0);
            }
        }

        /// The composed acquire returned: the hold starts where the
        /// last level was won.
        #[inline]
        pub(super) fn acquired(&mut self) {
            #[cfg(feature = "park")]
            crate::parkglue::exit_wait();
            let thread = thread_tag();
            watchdog::global().hold_at(thread, self.shard.acquired_ns());
            waitgraph::global().acquired(thread, self.site());
        }

        /// Entering the composed release.
        #[inline]
        pub(super) fn releasing(&mut self) {
            let now = now_ns();
            self.shard.releasing(now);
            if trace::is_enabled() {
                trace::record(self.shard.acquired_ns(), now, 0, 0, SpanKind::Hold, 0, 0);
            }
        }

        #[inline]
        pub(super) fn hint_hit(&mut self, node: &NodeObs) {
            self.shard.hint_hit(node.level as usize);
        }

        #[inline]
        pub(super) fn pass(&mut self, node: &NodeObs) {
            self.shard.pass(node.level as usize);
            if trace::is_enabled() {
                let at = self.shard.released_ns();
                let flow = trace::next_flow_id();
                node.flow.store(flow, Ordering::Relaxed);
                trace::record(at, at, node.level, node.node, SpanKind::Pass, 0, flow);
            }
        }

        #[inline]
        pub(super) fn release_up(&mut self, node: &NodeObs, forced: bool) {
            self.shard.release_up(node.level as usize, forced);
            if trace::is_enabled() {
                let at = self.shard.released_ns();
                let kind = SpanKind::ReleaseUp { forced };
                trace::record(at, at, node.level, node.node, kind, 0, 0);
            }
        }

        /// The composed release returned — the low lock is free, so the
        /// bookkeeping below is on nobody's critical path.
        #[inline]
        pub(super) fn released(&mut self) {
            let thread = thread_tag();
            self.shard.commit(thread);
            watchdog::global().idle_at(thread, self.shard.released_ns());
            waitgraph::global().released(thread, self.site());
        }

        /// The composed acquire gave up before the lock was granted
        /// (deadline timeout): cancel the wait edge — nothing was
        /// acquired, so nothing joins the held set — and count the
        /// attempt in the process-wide timeout telemetry.
        #[cfg(feature = "deadline")]
        #[inline]
        pub(super) fn abandoned(&mut self) {
            #[cfg(feature = "park")]
            crate::parkglue::exit_wait();
            self.shard.abandon();
            let thread = thread_tag();
            watchdog::global().idle_at(thread, now_ns());
            waitgraph::global().wait_cancelled(thread, self.site());
            clof_obs::deadline::record_timeout();
        }
    }

    impl Drop for Recorder {
        fn drop(&mut self) {
            self.set.retire(&self.shard);
        }
    }
}

#[cfg(not(feature = "obs"))]
mod nodeobs {
    use std::sync::Arc;

    use super::DynNode;

    #[derive(Debug, Default)]
    pub(super) struct LockObs;

    impl LockObs {
        #[inline]
        pub(super) fn new(
            _label: &str,
            _shape: &str,
            _caller: &'static std::panic::Location<'static>,
            _nodes: &[(usize, Arc<DynNode>)],
        ) -> Self {
            LockObs
        }
    }

    #[derive(Debug)]
    pub(super) struct NodeObs;

    impl NodeObs {
        #[inline]
        pub(super) fn new(_level: usize) -> Self {
            NodeObs
        }
    }

    #[derive(Debug)]
    pub(super) struct Recorder;

    impl Recorder {
        #[inline]
        pub(super) fn new(_lock: &LockObs, _leaf: &DynNode) -> Self {
            Recorder
        }

        #[inline(always)]
        pub(super) fn enter(&mut self) {}

        #[inline(always)]
        pub(super) fn level_won(&mut self, _node: &NodeObs, _inherited: bool) {}

        #[inline(always)]
        pub(super) fn acquired(&mut self) {}

        #[inline(always)]
        pub(super) fn releasing(&mut self) {}

        #[inline(always)]
        pub(super) fn hint_hit(&mut self, _node: &NodeObs) {}

        #[inline(always)]
        pub(super) fn pass(&mut self, _node: &NodeObs) {}

        #[inline(always)]
        pub(super) fn release_up(&mut self, _node: &NodeObs, _forced: bool) {}

        #[inline(always)]
        pub(super) fn released(&mut self) {}

        #[cfg(feature = "deadline")]
        #[inline(always)]
        pub(super) fn abandoned(&mut self) {}
    }
}

/// Hand-off statistics of one cohort node (relaxed counters — exact
/// totals at quiescence, approximate snapshots while running).
#[derive(Debug, Default)]
struct NodeStats {
    /// Times the node's low lock was acquired through this node.
    acquisitions: AtomicU64,
    /// Releases that *passed* the high lock within the cohort.
    passes: AtomicU64,
    /// Releases that let the high lock go to other cohorts.
    releases_up: AtomicU64,
}

impl NodeStats {
    /// All three counters are owner-only: bumped while holding the
    /// node's low lock, so a plain load + store replaces the locked RMW
    /// (successive owners are ordered by the lock's release→acquire
    /// edge, which also publishes the store).
    #[inline]
    fn bump(counter: &AtomicU64) {
        let v = counter.load(Ordering::Relaxed);
        counter.store(v + 1, Ordering::Relaxed);
    }

    #[inline]
    fn note_acquisition(&self) {
        Self::bump(&self.acquisitions);
    }

    #[inline]
    fn note_pass(&self) {
        Self::bump(&self.passes);
    }

    #[inline]
    fn note_release_up(&self) {
        Self::bump(&self.releases_up);
    }
}

/// Per-level aggregate of [`DynClofLock::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Level index, 0 = innermost.
    pub level: usize,
    /// Low-lock acquisitions at this level.
    pub acquisitions: u64,
    /// Intra-cohort passes decided at this level.
    pub passes: u64,
    /// Full releases (high lock surrendered) decided at this level.
    pub releases_up: u64,
}

impl LevelStats {
    /// Fraction of release decisions at this level that stayed local —
    /// the locality the composition achieved (cf. the simulator's
    /// `handovers_by_level`).
    pub fn locality(&self) -> f64 {
        let total = self.passes + self.releases_up;
        if total == 0 {
            0.0
        } else {
            self.passes as f64 / total as f64
        }
    }
}

/// One cohort node in a dynamic CLoF tree.
pub struct DynNode {
    low: AnyLock,
    /// Metadata + the high-lock context; `None` context for the root.
    meta: LevelMeta<()>,
    high_ctx: UnsafeCell<Option<AnyContext>>,
    high: Option<Arc<DynNode>>,
    /// Whether acquires must maintain the read-indicator counter. False
    /// when the low lock natively answers `has_waiters` (the paper's
    /// §4.1.2 custom hint, [`LockInfo::waiter_hint`]): the release path
    /// will never consult the counter then, so maintaining it is pure
    /// coherence traffic on the acquire fast path.
    ///
    /// [`LockInfo::waiter_hint`]: clof_locks::LockInfo
    counter_waiters: bool,
    /// This node's sibling index under its parent — the stripe its
    /// upward acquires register on in the parent's read indicator.
    slot: u32,
    stats: NodeStats,
    obs: NodeObs,
}

// SAFETY: `high_ctx` is protected by the low lock exactly like the static
// composition's `LevelMeta` context cell (context invariant + release
// order); all other state is atomics or immutable after construction.
unsafe impl Sync for DynNode {}
// SAFETY: All owned data is `Send`.
unsafe impl Send for DynNode {}

impl DynNode {
    fn root(kind: LockKind, params: ClofParams, fanin: usize, level: usize) -> Self {
        DynNode {
            low: AnyLock::new(kind),
            meta: LevelMeta::with_fanin(params, fanin),
            high_ctx: UnsafeCell::new(None),
            high: None,
            counter_waiters: !kind.info().waiter_hint,
            slot: 0,
            stats: NodeStats::default(),
            obs: NodeObs::new(level),
        }
    }

    fn child(
        kind: LockKind,
        high: Arc<DynNode>,
        params: ClofParams,
        fanin: usize,
        slot: u32,
        level: usize,
    ) -> Self {
        let high_ctx = high.low.new_context();
        DynNode {
            low: AnyLock::new(kind),
            meta: LevelMeta::with_fanin(params, fanin),
            high_ctx: UnsafeCell::new(Some(high_ctx)),
            high: Some(high),
            counter_waiters: !kind.info().waiter_hint,
            slot,
            stats: NodeStats::default(),
            obs: NodeObs::new(level),
        }
    }

    /// Acquires this node's low lock, applying the level's spin budget
    /// when the waiting layer is compiled in (waiters spin the
    /// topology-derived budget, then park; the releaser's wake re-runs
    /// the full hand-off protocol, so the §4.1 invariants are untouched
    /// — parking only changes *where* a waiter waits, never the order
    /// grants are observed in).
    #[inline]
    fn low_acquire(&self, ctx: &mut AnyContext) {
        #[cfg(feature = "park")]
        self.low.acquire_budgeted(ctx, self.meta.spin_budget());
        #[cfg(not(feature = "park"))]
        self.low.acquire(ctx);
    }

    /// Recursive `lockgen` acquire (paper Figure 8). `stripe` is the
    /// caller's child position under this node (CPU index within a leaf
    /// cohort at level 0, the child's sibling slot above).
    fn acquire(&self, ctx: &mut AnyContext, stripe: u32, rec: &mut Recorder) {
        let Some(high) = &self.high else {
            // Base case: the system-level basic lock.
            self.low_acquire(ctx);
            self.stats.note_acquisition();
            rec.level_won(&self.obs, false);
            return;
        };
        // The read-indicator bracket is skipped entirely when the low
        // lock natively reports waiters (paper §4.1.2) — the release
        // path takes the hint branch unconditionally then.
        if self.counter_waiters {
            self.meta.inc_waiters(stripe);
        }
        self.low_acquire(ctx);
        if self.counter_waiters {
            self.meta.dec_waiters(stripe);
        }
        self.stats.note_acquisition();
        // Window between winning the low lock and inspecting the pass
        // flag left by the previous owner.
        clof_locks::chaos::point("dyn-acquire-low-won");
        rec.level_won(&self.obs, self.meta.has_high_lock());
        if !self.meta.has_high_lock() {
            self.meta.debug_ctx_enter();
            // SAFETY: We own the low lock; the context invariant grants
            // exclusive use of the high context, and the previous user's
            // writes are visible through the low lock's release→acquire
            // synchronization.
            let cell = unsafe { &mut *self.high_ctx.get() };
            let high_ctx = cell.as_mut().expect("non-root nodes have a high context");
            high.acquire(high_ctx, self.slot, rec);
            self.meta.debug_ctx_exit();
        }
    }

    /// Recursive `lockgen` release (paper Figure 8).
    fn release(&self, ctx: &mut AnyContext, rec: &mut Recorder) {
        let Some(high) = &self.high else {
            self.low.release(ctx);
            return;
        };
        let hint = self.low.has_waiters_hint(ctx);
        if hint.is_some() {
            rec.hint_hit(&self.obs);
        }
        let waiters = hint.unwrap_or_else(|| self.meta.has_waiters());
        if waiters && self.meta.keep_local() {
            self.stats.note_pass();
            rec.pass(&self.obs);
            self.meta.pass_high_lock();
            // Window between setting the pass flag and releasing the low
            // lock that publishes it to the successor.
            clof_locks::chaos::point("dyn-release-pass");
            self.low.release(ctx);
        } else {
            self.stats.note_release_up();
            // `waiters` still true here means keep_local hit its
            // threshold — a forced surrender, not an idle cohort.
            rec.release_up(&self.obs, waiters);
            self.meta.clear_high_lock();
            clof_locks::chaos::point("dyn-release-up");
            self.meta.debug_ctx_enter();
            // SAFETY: As in `acquire`; we still own the low lock. Release
            // order high → low is required by the context invariant
            // (paper §4.1.3): releasing low first would let a successor
            // race us on this context.
            let cell = unsafe { &mut *self.high_ctx.get() };
            let high_ctx = cell.as_mut().expect("non-root nodes have a high context");
            high.release(high_ctx, rec);
            self.meta.debug_ctx_exit();
            self.low.release(ctx);
        }
    }

    /// Deadline-bounded recursive acquire: the same climb as
    /// [`acquire`](Self::acquire) under one *absolute* deadline shared
    /// by every level — the "single budget split across levels", with
    /// the split decided by where contention actually burned the time
    /// rather than a fixed per-level quota. On timeout the partially
    /// acquired prefix is fully unwound: this thread holds the low
    /// lock but never logically owned the tree (the pass flag is
    /// untouched), so a *plain* low release — no pass/release-up
    /// decision, no high-context access — restores exactly the state
    /// the next low-lock winner expects: climb for yourself.
    #[cfg(feature = "deadline")]
    fn try_acquire(
        &self,
        ctx: &mut AnyContext,
        stripe: u32,
        deadline: std::time::Instant,
        rec: &mut Recorder,
    ) -> bool {
        let Some(high) = &self.high else {
            if !self.low.try_acquire_until(ctx, deadline) {
                return false;
            }
            self.stats.note_acquisition();
            rec.level_won(&self.obs, false);
            return true;
        };
        if self.counter_waiters {
            self.meta.inc_waiters(stripe);
        }
        let won = self.low.try_acquire_until(ctx, deadline);
        if self.counter_waiters {
            // Closed on both outcomes: a timed-out waiter must leave no
            // read-indicator residue (`queue_depth_hint() == 0` at
            // quiescence is the leak oracle).
            self.meta.dec_waiters(stripe);
        }
        if !won {
            return false;
        }
        self.stats.note_acquisition();
        clof_locks::chaos::point("dyn-acquire-low-won");
        rec.level_won(&self.obs, self.meta.has_high_lock());
        if !self.meta.has_high_lock() {
            self.meta.debug_ctx_enter();
            // SAFETY: As in `acquire` — we own the low lock, so the
            // context invariant grants exclusive use of the high context.
            let cell = unsafe { &mut *self.high_ctx.get() };
            let high_ctx = cell.as_mut().expect("non-root nodes have a high context");
            let climbed = high.try_acquire(high_ctx, self.slot, deadline, rec);
            self.meta.debug_ctx_exit();
            if !climbed {
                self.low.release(ctx);
                return false;
            }
        }
        true
    }

    /// This node's basic-lock kind.
    pub fn kind(&self) -> LockKind {
        self.low.kind()
    }
}

/// A complete CLoF lock for a machine: the tree of per-cohort nodes plus
/// the CPU → leaf mapping.
///
/// See the [crate docs](crate) for a usage example.
pub struct DynClofLock {
    leaves: Vec<Arc<DynNode>>,
    cpu_to_leaf: Vec<usize>,
    /// Each CPU's index within its leaf cohort — the read-indicator
    /// stripe its handle registers on.
    cpu_to_stripe: Vec<u32>,
    /// Every node of the tree in construction order, tagged with its
    /// level: the traversal list for `stats`/`obs_snapshot`/
    /// `queue_hints`, visiting each node exactly once without the old
    /// quadratic `seen` scan over leaf-to-root chains.
    nodes: Vec<(usize, Arc<DynNode>)>,
    /// Monomorphized dispatch for finalist compositions; `None` falls
    /// back to the enum tree.
    fast: Option<FastTier>,
    composition: Vec<LockKind>,
    name: String,
    obs: LockObs,
    /// Set when a holder panicked inside its critical section: the
    /// protected data may be mid-mutation. The flag is advisory at this
    /// layer — acquisition still works (the panicking holder's guard
    /// released the tree, so nobody hangs) and wrappers like
    /// `ClofMutex` turn it into `ClofError::Poisoned`.
    #[cfg(feature = "deadline")]
    poisoned: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for DynClofLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynClofLock")
            .field("composition", &self.name)
            .field("leaves", &self.leaves.len())
            .finish()
    }
}

impl DynClofLock {
    /// Builds the composition `locks` (innermost level first, one entry
    /// per hierarchy level) over `hierarchy`, with default parameters.
    ///
    /// # Errors
    ///
    /// Fails if the composition length does not match the hierarchy's
    /// level count, or if a component is unfair (use
    /// [`build_with`](Self::build_with) with `allow_unfair` to override —
    /// the paper only considers fair locks after §4.2.3).
    #[track_caller]
    pub fn build(hierarchy: &Hierarchy, locks: &[LockKind]) -> Result<Self, ClofError> {
        Self::build_with(hierarchy, locks, ClofParams::default(), false)
    }

    /// Builds with explicit parameters and fairness policy.
    #[track_caller]
    pub fn build_with(
        hierarchy: &Hierarchy,
        locks: &[LockKind],
        params: ClofParams,
        allow_unfair: bool,
    ) -> Result<Self, ClofError> {
        let per_level = vec![params; hierarchy.level_count()];
        Self::build_with_level_params(hierarchy, locks, &per_level, allow_unfair)
    }

    /// Builds with *per-level* parameters (innermost first) — HMCS tunes
    /// its keep-local threshold per level, and so can CLoF compositions.
    ///
    /// With the `obs` feature the new lock auto-registers a contention-
    /// profiler site; `#[track_caller]` makes the recorded construction
    /// location name the user's build call, not these builder internals.
    #[track_caller]
    pub fn build_with_level_params(
        hierarchy: &Hierarchy,
        locks: &[LockKind],
        params: &[ClofParams],
        allow_unfair: bool,
    ) -> Result<Self, ClofError> {
        if locks.len() != hierarchy.level_count() || params.len() != hierarchy.level_count() {
            return Err(ClofError::LevelCountMismatch {
                locks: locks.len().min(params.len()),
                levels: hierarchy.level_count(),
            });
        }
        if !allow_unfair {
            if let Some((level, &kind)) = locks.iter().enumerate().find(|&(_, k)| !k.is_fair()) {
                return Err(ClofError::UnfairComponent { kind, level });
            }
        }
        let levels = hierarchy.level_count();
        let name = crate::generator::composition_name(locks);
        // Topology shape recorded at the profiler site: cpu count plus
        // cohort counts per level, innermost first (e.g. `8cpu/4-2-1`).
        let shape = {
            let cohorts: Vec<String> = (0..levels)
                .map(|l| hierarchy.cohort_count(l).to_string())
                .collect();
            format!("{}cpu/{}", hierarchy.ncpus(), cohorts.join("-"))
        };
        // Build from the root (outermost level) down, collecting every
        // node in construction order for the linear traversals.
        let mut all_nodes: Vec<(usize, Arc<DynNode>)> = Vec::new();
        let root_kind = locks[levels - 1];
        let root_fanin = cohort_layout(hierarchy, levels - 1)[0].0;
        let mut upper: Vec<Arc<DynNode>> = vec![Arc::new(DynNode::root(
            root_kind,
            params[levels - 1],
            root_fanin,
            levels - 1,
        ))];
        all_nodes.push((levels - 1, Arc::clone(&upper[0])));
        for level in (0..levels - 1).rev() {
            let layout = cohort_layout(hierarchy, level);
            let mut nodes = Vec::with_capacity(hierarchy.cohort_count(level));
            for (cohort, &(fanin, slot)) in layout.iter().enumerate() {
                let cpu = hierarchy.cohort_members(level, cohort)[0];
                let parent_cohort = hierarchy.cohort(level + 1, cpu);
                let node = Arc::new(DynNode::child(
                    locks[level],
                    Arc::clone(&upper[parent_cohort]),
                    params[level],
                    fanin,
                    slot,
                    level,
                ));
                all_nodes.push((level, Arc::clone(&node)));
                nodes.push(node);
            }
            upper = nodes;
        }
        // Install topology-derived spin budgets: each level's waiters
        // spin inversely to the span of its cohorts before parking
        // (leaf/cache-local waiters longest, machine-spanning top-level
        // waiters soonest). Runtime-retunable via `set_spin_budget`.
        #[cfg(feature = "park")]
        for (level, node) in &all_nodes {
            node.meta.set_spin_budget(crate::level::spin_budget_for_span(
                hierarchy.cohort_span(*level),
            ));
        }
        // No handles exist yet, so the fast tier may resolve typed
        // pointers into the node-resident context cells race-free.
        let fast = FastTier::resolve(&upper, locks);
        let obs = LockObs::new(&name, &shape, std::panic::Location::caller(), &all_nodes);
        Ok(DynClofLock {
            fast,
            leaves: upper,
            cpu_to_leaf: (0..hierarchy.ncpus())
                .map(|c| hierarchy.cohort(0, c))
                .collect(),
            cpu_to_stripe: cpu_stripes(hierarchy),
            nodes: all_nodes,
            composition: locks.to_vec(),
            name,
            obs,
            #[cfg(feature = "deadline")]
            poisoned: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// A per-thread handle entering at `cpu`'s leaf cohort.
    ///
    /// Finalist compositions get a monomorphized handle (statically
    /// dispatched node walk, no per-op enum `match`); everything else
    /// gets the generic enum-tree handle. Both speak the identical
    /// protocol on the same shared nodes, so handles of either tier
    /// interoperate freely on one lock.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the hierarchy used to build the lock.
    pub fn handle(&self, cpu: CpuId) -> DynHandle {
        let leaf_idx = self.cpu_to_leaf[cpu];
        let stripe = self.cpu_to_stripe[cpu];
        let leaf = Arc::clone(&self.leaves[leaf_idx]);
        let rec = Recorder::new(&self.obs, &leaf);
        let inner = match &self.fast {
            Some(tier) => tier.handle(leaf_idx, leaf, stripe),
            None => HandleInner::generic(leaf, stripe),
        };
        DynHandle { inner, rec }
    }

    /// A handle forced onto the generic enum-dispatch tier even when the
    /// composition has a monomorphized fast path — the ablation control
    /// for benchmarks, and a mixed-tier stressor for the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the hierarchy used to build the lock.
    pub fn handle_generic(&self, cpu: CpuId) -> DynHandle {
        let leaf = Arc::clone(&self.leaves[self.cpu_to_leaf[cpu]]);
        DynHandle {
            rec: Recorder::new(&self.obs, &leaf),
            inner: HandleInner::generic(leaf, self.cpu_to_stripe[cpu]),
        }
    }

    /// A placement-tracking handle: enters at the leaf cohort of the
    /// CPU the thread *currently* runs on, resolved through the
    /// [`crate::cpu`] thread-local cache, and re-homed automatically
    /// when a periodic re-check observes a migration. Use this when
    /// callers have no pinned placement of their own.
    pub fn auto_handle(self: &Arc<Self>) -> AutoHandle {
        let cpu = crate::cpu::cached_cpu(self.cpu_to_leaf.len());
        AutoHandle {
            inner: self.handle(cpu),
            lock: Arc::clone(self),
            cpu,
        }
    }

    /// Which dispatch tier [`handle`](Self::handle) returns for this
    /// composition.
    pub fn dispatch_tier(&self) -> DispatchTier {
        if self.fast.is_some() {
            DispatchTier::Monomorphized
        } else {
            DispatchTier::Generic
        }
    }

    /// Read-indicator count currently registered at `cpu`'s leaf cohort,
    /// summed over stripes. Racy by nature (diagnostics); leaf levels
    /// whose low lock hints waiters natively keep no counter and always
    /// report 0.
    pub fn leaf_waiter_count(&self, cpu: CpuId) -> u32 {
        self.leaves[self.cpu_to_leaf[cpu]].meta.waiter_count()
    }

    /// Composition in the paper's notation, e.g. `"tkt-clh-tkt"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The composed kinds, innermost first.
    pub fn composition(&self) -> &[LockKind] {
        &self.composition
    }

    /// Whether this composition is starvation-free.
    pub fn is_fair(&self) -> bool {
        self.composition.iter().all(|k| k.is_fair())
    }

    /// Number of leaf cohorts.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Aggregated hand-off statistics per level (innermost first).
    ///
    /// A well-matched composition shows high [`LevelStats::locality`] at
    /// the inner levels — the real-lock counterpart of the simulator's
    /// per-level handover histogram.
    pub fn stats(&self) -> Vec<LevelStats> {
        let levels = self.composition.len();
        let mut out: Vec<LevelStats> = (0..levels)
            .map(|level| LevelStats {
                level,
                acquisitions: 0,
                passes: 0,
                releases_up: 0,
            })
            .collect();
        // The construction-order node list holds each node exactly once.
        for (level, node) in &self.nodes {
            out[*level].acquisitions += node.stats.acquisitions.load(Ordering::Relaxed);
            out[*level].passes += node.stats.passes.load(Ordering::Relaxed);
            out[*level].releases_up += node.stats.releases_up.load(Ordering::Relaxed);
        }
        out
    }

    /// Full telemetry snapshot: per-level counters and acquire-latency
    /// histograms, whole-lock hold-time histogram, and the surviving
    /// pass-event trace — summed over the shards of this lock's handles,
    /// live and dropped; everything [`clof_obs::render_json`]/
    /// [`clof_obs::render_prometheus`] and the `Display` impl consume.
    /// Exact at quiescence; a handle's acquire→release in flight is
    /// counted once its release has returned.
    #[cfg(feature = "obs")]
    pub fn obs_snapshot(&self) -> clof_obs::LockSnapshot {
        self.obs.shards.lock_snapshot(&self.name)
    }

    /// Per-level waiter counts right now: `(level, queued_waiters)`
    /// summed over cohorts, innermost first. Approximate by nature (it
    /// races running acquires) — meant as the queue-shape hint in a
    /// starvation watchdog's diagnostic dump. Levels whose low lock
    /// natively hints waiters keep no read-indicator counter and always
    /// report 0 here.
    #[cfg(feature = "obs")]
    pub fn queue_hints(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> =
            (0..self.composition.len()).map(|l| (l, 0)).collect();
        for (level, node) in &self.nodes {
            out[*level].1 += node.meta.waiter_count();
        }
        out
    }

    /// Total read-indicator count registered anywhere in the tree right
    /// now, summed over levels and cohorts. Racy diagnostic (it races
    /// running acquires), but *zero is trustworthy at quiescence*: once
    /// no thread is inside acquire, every registered waiter has
    /// deregistered. The adaptation layer's migration drain uses this
    /// as a secondary sanity check on the outgoing tree. Levels whose
    /// low lock hints waiters natively keep no counter and contribute 0.
    pub fn queue_depth_hint(&self) -> u32 {
        self.nodes
            .iter()
            .map(|(_, node)| node.meta.waiter_count())
            .sum()
    }

    /// Marks the protected state suspect: a holder panicked inside its
    /// critical section. Called by guard `Drop` impls that detect
    /// `std::thread::panicking()` — *after* marking they still release,
    /// so waiters never hang on a dead holder; they observe the flag
    /// instead. Release ordering pairs with the `Acquire` in
    /// [`is_poisoned`] so the flag is visible to the next acquirer.
    #[cfg(feature = "deadline")]
    pub fn poison(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::Release);
        #[cfg(feature = "obs")]
        clof_obs::deadline::record_poison();
    }

    /// Whether a holder has panicked while holding this lock.
    #[cfg(feature = "deadline")]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Clears the poison flag after the caller has repaired (or chosen
    /// to trust) the protected state — the `Mutex::clear_poison`
    /// recovery idiom.
    #[cfg(feature = "deadline")]
    pub fn clear_poison(&self) {
        self.poisoned
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Current per-level spin budgets `(level, rounds)`, innermost
    /// first. All cohorts of one level share a budget, so one node per
    /// level reports it. The adaptation layer snapshots this on the
    /// outgoing tree and replays it onto the incoming one, carrying the
    /// waiting policy across hot-swaps.
    #[cfg(feature = "park")]
    pub fn spin_budgets(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<Option<u32>> = vec![None; self.composition.len()];
        for (level, node) in &self.nodes {
            out[*level].get_or_insert(node.meta.spin_budget());
        }
        out.into_iter()
            .enumerate()
            .map(|(level, b)| (level, b.unwrap_or(clof_locks::SPIN_FOREVER)))
            .collect()
    }

    /// Retunes the spin budget of every cohort node at `level` (rounds a
    /// waiter spins before parking; [`clof_locks::SPIN_FOREVER`] turns
    /// parking off at that level). In-flight waiters may still use the
    /// old value — the budget shapes the spin/park trade-off only and
    /// never affects correctness.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside the composition.
    #[cfg(feature = "park")]
    pub fn set_spin_budget(&self, level: usize, rounds: u32) {
        assert!(
            level < self.composition.len(),
            "level {level} out of range for a {}-level composition",
            self.composition.len()
        );
        for (l, node) in &self.nodes {
            if *l == level {
                node.meta.set_spin_budget(rounds);
            }
        }
    }

    /// This lock's contention-profiler site id in the process-global
    /// [`clof_obs::registry`] ([`clof_obs::INVALID_SITE`] if the table
    /// was full at construction). Stable across adaptation swaps once
    /// [`Self::rebind_site_from`] has run.
    #[cfg(feature = "obs")]
    pub fn site_id(&self) -> u32 {
        self.obs.shards.site().id()
    }

    /// The current contention-profile row for this lock's site: wait and
    /// hold attribution, traffic, and the per-(level, node) breakdown.
    /// `None` when the site table was full at construction.
    #[cfg(feature = "obs")]
    pub fn site_profile(&self) -> Option<clof_obs::SiteProfile> {
        let id = self.site_id();
        clof_obs::profile::global()
            .snapshot()
            .sites
            .into_iter()
            .find(|s| s.id == id)
    }

    /// Adopts `outgoing`'s profiler site so an adaptation swap keeps a
    /// stable site id: this lock's provisional registration is released,
    /// the adopted site's generation is bumped, its label updated to
    /// this composition, and what this tree's handles record follows it
    /// onto the adopted id. No-op when `outgoing`'s site is dead or
    /// already this lock's own.
    #[cfg(feature = "obs")]
    pub fn rebind_site_from(&self, outgoing: &DynClofLock) {
        let before = self.site_id();
        self.obs
            .shards
            .site()
            .rebind(outgoing.obs.shards.site(), &self.name);
        if self.site_id() != before {
            self.obs.shards.attach();
        }
    }

    /// Renames this lock's registry site (the `tas+` fast-path wrapper
    /// labels the site it wraps).
    #[cfg(feature = "obs")]
    pub(crate) fn relabel_site(&self, label: &str) {
        clof_obs::registry::global().relabel(self.site_id(), label);
    }

    /// The shared site anchor (for wrappers that publish their own
    /// waits-for transitions on this lock's site, e.g. the TAS gate).
    #[cfg(feature = "obs")]
    pub(crate) fn site_anchor(&self) -> Arc<clof_obs::SiteAnchor> {
        Arc::clone(self.obs.shards.site())
    }
}

/// Which code path [`DynClofLock::handle`] dispatches through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchTier {
    /// A finalist composition: statically-typed node walk, no per-op
    /// enum `match`.
    Monomorphized,
    /// The generic enum tree (exhaustive-generator territory).
    Generic,
}

/// The monomorphized fast-dispatch tier.
///
/// The exhaustive generator needs the enum tree — `N^M` compositions
/// cannot all be monomorphized. But `select` only ever ships a handful
/// of finalists, and those pay the per-op `AnyLock`/`AnyContext` match
/// on every level transition for no reason. This module re-types the
/// *already built* enum tree for the finalist shapes: at construction
/// (before any handle exists) it resolves typed pointers to each level's
/// lock and node-resident high context, and handles then run a
/// statically-dispatched replica of `DynNode::acquire`/`release` —
/// identical protocol, same shared state, same chaos points — behind
/// the same `DynClofLock` API. Fast and generic handles interoperate on
/// one lock because neither owns any protocol state privately.
mod fastdisp {
    use std::ptr::NonNull;
    use std::sync::Arc;

    use clof_locks::{ClhLock, Hemlock, McsLock, TicketLock};

    use super::{DynNode, HandleInner, Recorder};
    use crate::kind::{LockKind, TypedLock};

    /// Typed pointers for one level of a finalist chain.
    struct Level<L: TypedLock> {
        node: NonNull<DynNode>,
        lock: NonNull<L>,
    }

    impl<L: TypedLock> Clone for Level<L> {
        fn clone(&self) -> Self {
            Level {
                node: self.node,
                lock: self.lock,
            }
        }
    }

    impl<L: TypedLock> Level<L> {
        fn resolve(node: &Arc<DynNode>) -> Option<Self> {
            Some(Level {
                node: NonNull::from(&**node),
                lock: NonNull::from(L::from_any(&node.low)?),
            })
        }
    }

    /// Resolved 3-level template for one leaf: node/lock pointers per
    /// level plus the node-resident contexts the upper levels are
    /// acquired through. Contexts live inside `DynNode::high_ctx` cells
    /// (stable addresses behind `Arc`s) and are only dereferenced while
    /// owning the level below, per the context invariant.
    pub(super) struct Fast3<L0: TypedLock, L1: TypedLock, L2: TypedLock> {
        l0: Level<L0>,
        l1: Level<L1>,
        c1: NonNull<L1::Context>,
        l2: Level<L2>,
        c2: NonNull<L2::Context>,
    }

    impl<L0: TypedLock, L1: TypedLock, L2: TypedLock> Clone for Fast3<L0, L1, L2> {
        fn clone(&self) -> Self {
            Fast3 {
                l0: self.l0.clone(),
                l1: self.l1.clone(),
                c1: self.c1,
                l2: self.l2.clone(),
                c2: self.c2,
            }
        }
    }

    // SAFETY: The pointers target nodes owned by the `DynClofLock`'s
    // `Arc` chain (handles additionally pin the chain through their leaf
    // `Arc`), and the context cells are accessed only under the context
    // invariant — exactly the discipline `DynNode`'s own `Sync` impl
    // relies on.
    unsafe impl<L0: TypedLock, L1: TypedLock, L2: TypedLock> Send for Fast3<L0, L1, L2> {}
    unsafe impl<L0: TypedLock, L1: TypedLock, L2: TypedLock> Sync for Fast3<L0, L1, L2> {}

    impl<L0: TypedLock, L1: TypedLock, L2: TypedLock> Fast3<L0, L1, L2> {
        /// Resolves the typed template for `leaf`'s 3-level chain.
        ///
        /// Must run before any handle exists (no concurrent context
        /// users); returns `None` — generic fallback — if any level's
        /// kind fails to downcast or the chain depth is not 3.
        fn resolve(leaf: &Arc<DynNode>) -> Option<Self> {
            let l0 = Level::<L0>::resolve(leaf)?;
            let mid = leaf.high.as_ref()?;
            let l1 = Level::<L1>::resolve(mid)?;
            // SAFETY: construction-time exclusive access (no handles yet).
            let c1 = unsafe { &mut *leaf.high_ctx.get() };
            let c1 = NonNull::from(L1::ctx_from_any(c1.as_mut()?)?);
            let root = mid.high.as_ref()?;
            if root.high.is_some() {
                return None;
            }
            let l2 = Level::<L2>::resolve(root)?;
            // SAFETY: as above.
            let c2 = unsafe { &mut *mid.high_ctx.get() };
            let c2 = NonNull::from(L2::ctx_from_any(c2.as_mut()?)?);
            Some(Fast3 {
                l0,
                l1,
                c1,
                l2,
                c2,
            })
        }
    }

    /// Resolved 2-level template, same contract as [`Fast3`].
    pub(super) struct Fast2<L0: TypedLock, L1: TypedLock> {
        l0: Level<L0>,
        l1: Level<L1>,
        c1: NonNull<L1::Context>,
    }

    impl<L0: TypedLock, L1: TypedLock> Clone for Fast2<L0, L1> {
        fn clone(&self) -> Self {
            Fast2 {
                l0: self.l0.clone(),
                l1: self.l1.clone(),
                c1: self.c1,
            }
        }
    }

    // SAFETY: See `Fast3`.
    unsafe impl<L0: TypedLock, L1: TypedLock> Send for Fast2<L0, L1> {}
    unsafe impl<L0: TypedLock, L1: TypedLock> Sync for Fast2<L0, L1> {}

    impl<L0: TypedLock, L1: TypedLock> Fast2<L0, L1> {
        fn resolve(leaf: &Arc<DynNode>) -> Option<Self> {
            let l0 = Level::<L0>::resolve(leaf)?;
            let root = leaf.high.as_ref()?;
            if root.high.is_some() {
                return None;
            }
            let l1 = Level::<L1>::resolve(root)?;
            // SAFETY: construction-time exclusive access (no handles yet).
            let c1 = unsafe { &mut *leaf.high_ctx.get() };
            let c1 = NonNull::from(L1::ctx_from_any(c1.as_mut()?)?);
            Some(Fast2 { l0, l1, c1 })
        }
    }

    /// Statically-dispatched replica of `DynNode::acquire`'s inductive
    /// case: identical step order on the same shared node state, with
    /// the `counter_waiters` branch resolved at monomorphization
    /// (`L::INFO.waiter_hint` matches the node's flag by construction).
    /// `climb` acquires the next level up.
    #[inline]
    fn acquire_level<L: TypedLock>(
        node: &DynNode,
        lock: &L,
        ctx: &mut L::Context,
        stripe: u32,
        rec: &mut Recorder,
        climb: impl FnOnce(&mut Recorder),
    ) {
        if !L::INFO.waiter_hint {
            node.meta.inc_waiters(stripe);
        }
        #[cfg(feature = "park")]
        lock.acquire_budgeted(ctx, node.meta.spin_budget());
        #[cfg(not(feature = "park"))]
        lock.acquire(ctx);
        if !L::INFO.waiter_hint {
            node.meta.dec_waiters(stripe);
        }
        node.stats.note_acquisition();
        clof_locks::chaos::point("dyn-acquire-low-won");
        rec.level_won(&node.obs, node.meta.has_high_lock());
        if !node.meta.has_high_lock() {
            node.meta.debug_ctx_enter();
            climb(rec);
            node.meta.debug_ctx_exit();
        }
    }

    /// Base case: the system-level basic lock.
    #[inline]
    fn acquire_root<L: TypedLock>(
        node: &DynNode,
        lock: &L,
        ctx: &mut L::Context,
        rec: &mut Recorder,
    ) {
        #[cfg(feature = "park")]
        lock.acquire_budgeted(ctx, node.meta.spin_budget());
        #[cfg(not(feature = "park"))]
        lock.acquire(ctx);
        node.stats.note_acquisition();
        rec.level_won(&node.obs, false);
    }

    /// Statically-dispatched replica of `DynNode::release`'s inductive
    /// case; `climb` releases the next level up (taken on release-up
    /// only, before the low release — paper §4.1.3 order).
    #[inline]
    fn release_level<L: TypedLock>(
        node: &DynNode,
        lock: &L,
        ctx: &mut L::Context,
        rec: &mut Recorder,
        climb: impl FnOnce(&mut Recorder),
    ) {
        let hint = lock.has_waiters_hint(ctx);
        if hint.is_some() {
            rec.hint_hit(&node.obs);
        }
        let waiters = hint.unwrap_or_else(|| node.meta.has_waiters());
        if waiters && node.meta.keep_local() {
            node.stats.note_pass();
            rec.pass(&node.obs);
            node.meta.pass_high_lock();
            clof_locks::chaos::point("dyn-release-pass");
            lock.release(ctx);
        } else {
            node.stats.note_release_up();
            rec.release_up(&node.obs, waiters);
            node.meta.clear_high_lock();
            clof_locks::chaos::point("dyn-release-up");
            node.meta.debug_ctx_enter();
            climb(rec);
            node.meta.debug_ctx_exit();
            lock.release(ctx);
        }
    }

    /// Deadline-bounded replica of [`acquire_level`]: `climb` returns
    /// whether the upper levels were won; on a local timeout or a
    /// failed climb the level unwinds (waiter bracket closed, low lock
    /// plainly released — the pass flag was never touched) and reports
    /// `false` down the chain.
    #[cfg(feature = "deadline")]
    #[inline]
    fn try_acquire_level<L: TypedLock>(
        node: &DynNode,
        lock: &L,
        ctx: &mut L::Context,
        stripe: u32,
        deadline: std::time::Instant,
        rec: &mut Recorder,
        climb: impl FnOnce(&mut Recorder) -> bool,
    ) -> bool {
        if !L::INFO.waiter_hint {
            node.meta.inc_waiters(stripe);
        }
        let won = lock.try_acquire_until(ctx, deadline);
        if !L::INFO.waiter_hint {
            node.meta.dec_waiters(stripe);
        }
        if !won {
            return false;
        }
        node.stats.note_acquisition();
        clof_locks::chaos::point("dyn-acquire-low-won");
        rec.level_won(&node.obs, node.meta.has_high_lock());
        if !node.meta.has_high_lock() {
            node.meta.debug_ctx_enter();
            let climbed = climb(rec);
            node.meta.debug_ctx_exit();
            if !climbed {
                lock.release(ctx);
                return false;
            }
        }
        true
    }

    /// Deadline-bounded replica of [`acquire_root`].
    #[cfg(feature = "deadline")]
    #[inline]
    fn try_acquire_root<L: TypedLock>(
        node: &DynNode,
        lock: &L,
        ctx: &mut L::Context,
        deadline: std::time::Instant,
        rec: &mut Recorder,
    ) -> bool {
        if !lock.try_acquire_until(ctx, deadline) {
            return false;
        }
        node.stats.note_acquisition();
        rec.level_won(&node.obs, false);
        true
    }

    /// Per-thread fast handle over a [`Fast3`] template: owns the leaf
    /// context and its indicator stripe; the leaf `Arc` pins the whole
    /// chain (each node holds its parent).
    pub(super) struct Fast3Handle<L0: TypedLock, L1: TypedLock, L2: TypedLock> {
        t: Fast3<L0, L1, L2>,
        ctx0: L0::Context,
        stripe: u32,
        _leaf: Arc<DynNode>,
    }

    impl<L0: TypedLock, L1: TypedLock, L2: TypedLock> Fast3Handle<L0, L1, L2> {
        pub(super) fn new(t: &Fast3<L0, L1, L2>, leaf: Arc<DynNode>, stripe: u32) -> Self {
            Fast3Handle {
                t: t.clone(),
                ctx0: L0::Context::default(),
                stripe,
                _leaf: leaf,
            }
        }

        #[inline]
        pub(super) fn acquire(&mut self, rec: &mut Recorder) {
            // SAFETY: Node and lock pointers are pinned by `_leaf`'s
            // parent chain; the upper contexts are dereferenced only
            // inside the `climb` closures, i.e. while owning the level
            // below them (context invariant), and `debug_ctx_enter`
            // still guards the bracket in testkit/debug builds.
            unsafe {
                let n0 = self.t.l0.node.as_ref();
                let n1 = self.t.l1.node.as_ref();
                let n2 = self.t.l2.node.as_ref();
                let (l1, l2) = (self.t.l1.lock.as_ref(), self.t.l2.lock.as_ref());
                let (c1, c2) = (self.t.c1, self.t.c2);
                let l0 = self.t.l0.lock.as_ref();
                acquire_level(n0, l0, &mut self.ctx0, self.stripe, rec, |rec| {
                    acquire_level(n1, l1, &mut *c1.as_ptr(), n0.slot, rec, |rec| {
                        acquire_root(n2, l2, &mut *c2.as_ptr(), rec);
                    });
                });
            }
        }

        #[cfg(feature = "deadline")]
        #[inline]
        pub(super) fn try_acquire(
            &mut self,
            deadline: std::time::Instant,
            rec: &mut Recorder,
        ) -> bool {
            // SAFETY: See `acquire`. On the unwind paths each level
            // releases only what its own frame won (after its climb
            // reported failure), so ownership never outlives the frame
            // that took it and the contexts stay bracketed.
            unsafe {
                let n0 = self.t.l0.node.as_ref();
                let n1 = self.t.l1.node.as_ref();
                let n2 = self.t.l2.node.as_ref();
                let (l1, l2) = (self.t.l1.lock.as_ref(), self.t.l2.lock.as_ref());
                let (c1, c2) = (self.t.c1, self.t.c2);
                try_acquire_level(
                    n0,
                    self.t.l0.lock.as_ref(),
                    &mut self.ctx0,
                    self.stripe,
                    deadline,
                    rec,
                    |rec| {
                        let c1 = &mut *c1.as_ptr();
                        try_acquire_level(n1, l1, c1, n0.slot, deadline, rec, |rec| {
                            try_acquire_root(n2, l2, &mut *c2.as_ptr(), deadline, rec)
                        })
                    },
                )
            }
        }

        #[inline]
        pub(super) fn release(&mut self, rec: &mut Recorder) {
            // SAFETY: As in `acquire`; release climbs only while still
            // owning the lower level (high before low, paper §4.1.3).
            unsafe {
                let n0 = self.t.l0.node.as_ref();
                let n1 = self.t.l1.node.as_ref();
                let (l1, l2) = (self.t.l1.lock.as_ref(), self.t.l2.lock.as_ref());
                let (c1, c2) = (self.t.c1, self.t.c2);
                release_level(n0, self.t.l0.lock.as_ref(), &mut self.ctx0, rec, |rec| {
                    release_level(n1, l1, &mut *c1.as_ptr(), rec, |_| {
                        l2.release(&mut *c2.as_ptr());
                    });
                });
            }
        }
    }

    /// Per-thread fast handle over a [`Fast2`] template.
    pub(super) struct Fast2Handle<L0: TypedLock, L1: TypedLock> {
        t: Fast2<L0, L1>,
        ctx0: L0::Context,
        stripe: u32,
        _leaf: Arc<DynNode>,
    }

    impl<L0: TypedLock, L1: TypedLock> Fast2Handle<L0, L1> {
        pub(super) fn new(t: &Fast2<L0, L1>, leaf: Arc<DynNode>, stripe: u32) -> Self {
            Fast2Handle {
                t: t.clone(),
                ctx0: L0::Context::default(),
                stripe,
                _leaf: leaf,
            }
        }

        #[inline]
        pub(super) fn acquire(&mut self, rec: &mut Recorder) {
            // SAFETY: See `Fast3Handle::acquire`.
            unsafe {
                let n0 = self.t.l0.node.as_ref();
                let n1 = self.t.l1.node.as_ref();
                let l1 = self.t.l1.lock.as_ref();
                let c1 = self.t.c1;
                let l0 = self.t.l0.lock.as_ref();
                acquire_level(n0, l0, &mut self.ctx0, self.stripe, rec, |rec| {
                    acquire_root(n1, l1, &mut *c1.as_ptr(), rec);
                });
            }
        }

        #[cfg(feature = "deadline")]
        #[inline]
        pub(super) fn try_acquire(
            &mut self,
            deadline: std::time::Instant,
            rec: &mut Recorder,
        ) -> bool {
            // SAFETY: See `Fast3Handle::try_acquire`.
            unsafe {
                let n0 = self.t.l0.node.as_ref();
                let n1 = self.t.l1.node.as_ref();
                let l1 = self.t.l1.lock.as_ref();
                let c1 = self.t.c1;
                try_acquire_level(
                    n0,
                    self.t.l0.lock.as_ref(),
                    &mut self.ctx0,
                    self.stripe,
                    deadline,
                    rec,
                    |rec| try_acquire_root(n1, l1, &mut *c1.as_ptr(), deadline, rec),
                )
            }
        }

        #[inline]
        pub(super) fn release(&mut self, rec: &mut Recorder) {
            // SAFETY: See `Fast3Handle::release`.
            unsafe {
                let n0 = self.t.l0.node.as_ref();
                let l1 = self.t.l1.lock.as_ref();
                let c1 = self.t.c1;
                release_level(n0, self.t.l0.lock.as_ref(), &mut self.ctx0, rec, |_| {
                    l1.release(&mut *c1.as_ptr());
                });
            }
        }
    }

    /// The finalist set: one pre-resolved template vector (indexed by
    /// leaf) per composition `select` ships — the HC/LC winners from
    /// EXPERIMENTS.md plus the homogeneous shapes the stress oracle
    /// leans on.
    pub(super) enum FastTier {
        McsClhTkt(Vec<Fast3<McsLock, ClhLock, TicketLock>>),
        ClhClhTkt(Vec<Fast3<ClhLock, ClhLock, TicketLock>>),
        ClhClhHem(Vec<Fast3<ClhLock, ClhLock, Hemlock>>),
        TktTktTkt(Vec<Fast3<TicketLock, TicketLock, TicketLock>>),
        TktTkt(Vec<Fast2<TicketLock, TicketLock>>),
        McsTkt(Vec<Fast2<McsLock, TicketLock>>),
        ClhTkt(Vec<Fast2<ClhLock, TicketLock>>),
    }

    impl FastTier {
        /// Resolves the fast tier for `locks` if it is a finalist shape;
        /// `None` keeps the generic enum dispatch. Must be called during
        /// lock construction, before any handle exists.
        pub(super) fn resolve(leaves: &[Arc<DynNode>], locks: &[LockKind]) -> Option<FastTier> {
            use LockKind::{Clh, Hemlock as Hem, Mcs, Ticket};
            fn all3<L0: TypedLock, L1: TypedLock, L2: TypedLock>(
                leaves: &[Arc<DynNode>],
            ) -> Option<Vec<Fast3<L0, L1, L2>>> {
                leaves.iter().map(Fast3::resolve).collect()
            }
            fn all2<L0: TypedLock, L1: TypedLock>(
                leaves: &[Arc<DynNode>],
            ) -> Option<Vec<Fast2<L0, L1>>> {
                leaves.iter().map(Fast2::resolve).collect()
            }
            match locks {
                [Mcs, Clh, Ticket] => Some(FastTier::McsClhTkt(all3(leaves)?)),
                [Clh, Clh, Ticket] => Some(FastTier::ClhClhTkt(all3(leaves)?)),
                [Clh, Clh, Hem] => Some(FastTier::ClhClhHem(all3(leaves)?)),
                [Ticket, Ticket, Ticket] => Some(FastTier::TktTktTkt(all3(leaves)?)),
                [Ticket, Ticket] => Some(FastTier::TktTkt(all2(leaves)?)),
                [Mcs, Ticket] => Some(FastTier::McsTkt(all2(leaves)?)),
                [Clh, Ticket] => Some(FastTier::ClhTkt(all2(leaves)?)),
                _ => None,
            }
        }

        /// Builds the fast handle for `leaf_idx`.
        pub(super) fn handle(
            &self,
            leaf_idx: usize,
            leaf: Arc<DynNode>,
            stripe: u32,
        ) -> HandleInner {
            match self {
                FastTier::McsClhTkt(t) => {
                    HandleInner::McsClhTkt(Fast3Handle::new(&t[leaf_idx], leaf, stripe))
                }
                FastTier::ClhClhTkt(t) => {
                    HandleInner::ClhClhTkt(Fast3Handle::new(&t[leaf_idx], leaf, stripe))
                }
                FastTier::ClhClhHem(t) => {
                    HandleInner::ClhClhHem(Fast3Handle::new(&t[leaf_idx], leaf, stripe))
                }
                FastTier::TktTktTkt(t) => {
                    HandleInner::TktTktTkt(Fast3Handle::new(&t[leaf_idx], leaf, stripe))
                }
                FastTier::TktTkt(t) => {
                    HandleInner::TktTkt(Fast2Handle::new(&t[leaf_idx], leaf, stripe))
                }
                FastTier::McsTkt(t) => {
                    HandleInner::McsTkt(Fast2Handle::new(&t[leaf_idx], leaf, stripe))
                }
                FastTier::ClhTkt(t) => {
                    HandleInner::ClhTkt(Fast2Handle::new(&t[leaf_idx], leaf, stripe))
                }
            }
        }
    }
}

/// Dispatch state of one handle: either the generic enum walk or a
/// monomorphized finalist walk.
enum HandleInner {
    Generic {
        leaf: Arc<DynNode>,
        ctx: AnyContext,
        stripe: u32,
    },
    McsClhTkt(fastdisp::Fast3Handle<clof_locks::McsLock, clof_locks::ClhLock, clof_locks::TicketLock>),
    ClhClhTkt(fastdisp::Fast3Handle<clof_locks::ClhLock, clof_locks::ClhLock, clof_locks::TicketLock>),
    ClhClhHem(fastdisp::Fast3Handle<clof_locks::ClhLock, clof_locks::ClhLock, clof_locks::Hemlock>),
    TktTktTkt(
        fastdisp::Fast3Handle<clof_locks::TicketLock, clof_locks::TicketLock, clof_locks::TicketLock>,
    ),
    TktTkt(fastdisp::Fast2Handle<clof_locks::TicketLock, clof_locks::TicketLock>),
    McsTkt(fastdisp::Fast2Handle<clof_locks::McsLock, clof_locks::TicketLock>),
    ClhTkt(fastdisp::Fast2Handle<clof_locks::ClhLock, clof_locks::TicketLock>),
}

impl HandleInner {
    fn generic(leaf: Arc<DynNode>, stripe: u32) -> Self {
        let ctx = leaf.low.new_context();
        HandleInner::Generic { leaf, ctx, stripe }
    }
}

/// A per-thread handle: the leaf entry point plus this thread's leaf
/// context, dispatched through the tier `handle()` selected.
pub struct DynHandle {
    inner: HandleInner,
    rec: Recorder,
}

impl DynHandle {
    /// Acquires the composed lock.
    pub fn acquire(&mut self) {
        self.rec.enter();
        let rec = &mut self.rec;
        // The only per-op dispatch: one match at the handle, not one per
        // level transition.
        match &mut self.inner {
            HandleInner::Generic { leaf, ctx, stripe } => leaf.acquire(ctx, *stripe, rec),
            HandleInner::McsClhTkt(h) => h.acquire(rec),
            HandleInner::ClhClhTkt(h) => h.acquire(rec),
            HandleInner::ClhClhHem(h) => h.acquire(rec),
            HandleInner::TktTktTkt(h) => h.acquire(rec),
            HandleInner::TktTkt(h) => h.acquire(rec),
            HandleInner::McsTkt(h) => h.acquire(rec),
            HandleInner::ClhTkt(h) => h.acquire(rec),
        }
        self.rec.acquired();
    }

    /// Deadline-bounded acquire: one *absolute* deadline bounds the
    /// whole climb, every level spending from the same budget. Returns
    /// `false` on timeout, with every partially-acquired level unwound
    /// — the handle is immediately reusable and no queue node, waiter
    /// count, or wait-graph edge survives the failed attempt.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        self.rec.enter();
        let rec = &mut self.rec;
        let won = match &mut self.inner {
            HandleInner::Generic { leaf, ctx, stripe } => {
                leaf.try_acquire(ctx, *stripe, deadline, rec)
            }
            HandleInner::McsClhTkt(h) => h.try_acquire(deadline, rec),
            HandleInner::ClhClhTkt(h) => h.try_acquire(deadline, rec),
            HandleInner::ClhClhHem(h) => h.try_acquire(deadline, rec),
            HandleInner::TktTktTkt(h) => h.try_acquire(deadline, rec),
            HandleInner::TktTkt(h) => h.try_acquire(deadline, rec),
            HandleInner::McsTkt(h) => h.try_acquire(deadline, rec),
            HandleInner::ClhTkt(h) => h.try_acquire(deadline, rec),
        };
        if won {
            self.rec.acquired();
        } else {
            self.rec.abandoned();
        }
        won
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
        self.try_acquire_until(std::time::Instant::now() + budget)
    }

    /// Releases the composed lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.rec.releasing();
        let rec = &mut self.rec;
        match &mut self.inner {
            HandleInner::Generic { leaf, ctx, .. } => leaf.release(ctx, rec),
            HandleInner::McsClhTkt(h) => h.release(rec),
            HandleInner::ClhClhTkt(h) => h.release(rec),
            HandleInner::ClhClhHem(h) => h.release(rec),
            HandleInner::TktTktTkt(h) => h.release(rec),
            HandleInner::TktTkt(h) => h.release(rec),
            HandleInner::McsTkt(h) => h.release(rec),
            HandleInner::ClhTkt(h) => h.release(rec),
        }
        self.rec.released();
    }

    /// This handle's telemetry shard, for a wrapper that records in
    /// front of it (the TAS gate attributes its fast-path wins here).
    #[cfg(feature = "obs")]
    pub(crate) fn obs_shard(&self) -> Arc<clof_obs::Shard> {
        Arc::clone(&self.rec.shard)
    }
}

/// A [`DynHandle`] that tracks the thread's placement by itself.
///
/// Created by [`DynClofLock::auto_handle`]. Each acquire consults the
/// [`crate::cpu`] thread-local cache (one TLS read on the hot path; the
/// `getcpu` syscall only every [`crate::cpu::RECHECK_PERIOD`] calls)
/// and, when the thread migrated to a CPU of a different leaf cohort,
/// swaps the inner handle *between* critical sections — the old handle
/// is idle at that point, so its contexts are quiescent and the
/// re-home cannot violate the context invariant. A stale placement
/// inside one re-check period merely enters through the old leaf,
/// which CLoF's thread-obliviousness makes correct (just not
/// NUMA-optimal).
pub struct AutoHandle {
    lock: Arc<DynClofLock>,
    inner: DynHandle,
    cpu: CpuId,
}

impl AutoHandle {
    /// Acquires the composed lock through the current placement's leaf.
    pub fn acquire(&mut self) {
        let cpu = crate::cpu::cached_cpu(self.lock.cpu_to_leaf.len());
        if cpu != self.cpu {
            self.inner = self.lock.handle(cpu);
            self.cpu = cpu;
        }
        self.inner.acquire();
    }

    /// Deadline-bounded acquire through the current placement's leaf;
    /// see [`DynHandle::try_acquire_until`]. Re-homing happens before
    /// the attempt, between critical sections, exactly as in
    /// [`acquire`](Self::acquire) — a timed-out attempt leaves the
    /// re-homed handle in place (the placement is still correct).
    #[cfg(feature = "deadline")]
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        let cpu = crate::cpu::cached_cpu(self.lock.cpu_to_leaf.len());
        if cpu != self.cpu {
            self.inner = self.lock.handle(cpu);
            self.cpu = cpu;
        }
        self.inner.try_acquire_until(deadline)
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
        self.try_acquire_until(std::time::Instant::now() + budget)
    }

    /// Releases the composed lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.inner.release();
    }

    /// The placement the handle last entered through.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof_topology::platforms;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn auto_handle_rehomes_after_simulated_migration() {
        // tiny(): 8 CPUs, leaf cohorts of 2 — CPU 0 and CPU 7 sit in
        // different cohorts at every level.
        let h = platforms::tiny();
        let lock =
            Arc::new(DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap());
        crate::cpu::testkit::set_override(Some(0));
        crate::cpu::testkit::flush();
        let mut handle = lock.auto_handle();
        assert_eq!(handle.cpu(), 0);
        let mut value = 0usize;
        for i in 0..3 * crate::cpu::RECHECK_PERIOD {
            if i == 5 {
                // Simulated migration mid-run; the handle must keep
                // working through the stale leaf and re-home at the
                // next periodic re-check.
                crate::cpu::testkit::set_override(Some(7));
            }
            handle.acquire();
            value += 1;
            handle.release();
        }
        assert_eq!(value, 3 * crate::cpu::RECHECK_PERIOD as usize);
        assert_eq!(handle.cpu(), 7, "placement re-check never observed the migration");
        crate::cpu::testkit::set_override(None);
        crate::cpu::testkit::flush();
    }

    #[test]
    fn auto_handle_holds_handoff_invariants_across_migrations() {
        // Every thread migrates across cohorts mid-run. Mutual exclusion
        // (exact owner-only counter), the context invariant
        // (`debug_ctx_enter` panics in debug builds on a violation) and
        // release-order checks all stay armed while handles re-home.
        const THREADS: usize = 4;
        const ITERS: u32 = 2 * crate::cpu::RECHECK_PERIOD;
        let h = platforms::tiny();
        let lock =
            Arc::new(DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                crate::cpu::testkit::set_override(Some(t * 2));
                crate::cpu::testkit::flush();
                let mut handle = lock.auto_handle();
                for i in 0..ITERS {
                    if i == ITERS / 2 {
                        // Cross-cohort migration: 0↔7, 2↔5, …
                        crate::cpu::testkit::set_override(Some(7 - t * 2));
                    }
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
                crate::cpu::testkit::set_override(None);
                crate::cpu::testkit::flush();
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ITERS as usize);
    }

    fn hammer(lock: &Arc<DynClofLock>, cpus: &[usize], iters: usize) -> usize {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for &cpu in cpus {
            let lock = Arc::clone(lock);
            let counter = Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                let mut handle = lock.handle(cpu);
                for _ in 0..iters {
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn build_checks_level_count() {
        let h = platforms::tiny();
        let err = DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Ticket]).unwrap_err();
        assert!(matches!(err, ClofError::LevelCountMismatch { .. }));
    }

    #[test]
    fn build_rejects_unfair_by_default() {
        let h = platforms::tiny();
        let err =
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Ttas, LockKind::Ticket]).unwrap_err();
        assert!(matches!(
            err,
            ClofError::UnfairComponent {
                kind: LockKind::Ttas,
                level: 1
            }
        ));
        // ... but allows it when asked (the lock-cohorting C-BO-MCS case).
        let lock = DynClofLock::build_with(
            &h,
            &[LockKind::Mcs, LockKind::Ttas, LockKind::Ticket],
            ClofParams::default(),
            true,
        )
        .unwrap();
        assert!(!lock.is_fair());
    }

    #[test]
    fn name_follows_paper_notation() {
        let h = platforms::tiny();
        let lock =
            DynClofLock::build(&h, &[LockKind::Hemlock, LockKind::Mcs, LockKind::Clh]).unwrap();
        assert_eq!(lock.name(), "hem-mcs-clh");
        assert_eq!(lock.leaf_count(), 4);
    }

    #[test]
    fn mutual_exclusion_all_cpus_tiny() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        let cpus: Vec<usize> = (0..8).collect();
        assert_eq!(hammer(&lock, &cpus, 1000), 8000);
    }

    #[test]
    fn mutual_exclusion_every_homogeneous_composition() {
        let h = platforms::tiny();
        for kind in [
            LockKind::Ticket,
            LockKind::Mcs,
            LockKind::Clh,
            LockKind::Hemlock,
            LockKind::HemlockCtr,
        ] {
            let lock = Arc::new(DynClofLock::build(&h, &[kind, kind, kind]).unwrap());
            let cpus = [0usize, 3, 4, 7];
            assert_eq!(hammer(&lock, &cpus, 500), 2000, "{kind:?}");
        }
    }

    #[test]
    fn mutual_exclusion_4level_on_paper_armv8() {
        // Full Armv8 hierarchy; threads on a spread of CPUs.
        let h = platforms::paper_armv8_4level();
        let lock = Arc::new(
            DynClofLock::build(
                &h,
                &[
                    LockKind::Ticket,
                    LockKind::Clh,
                    LockKind::Ticket,
                    LockKind::Ticket,
                ],
            )
            .unwrap(),
        );
        assert_eq!(lock.name(), "tkt-clh-tkt-tkt");
        let cpus = [0usize, 1, 4, 33, 64, 127];
        assert_eq!(hammer(&lock, &cpus, 400), 2400);
    }

    #[test]
    fn two_threads_same_cpu_share_leaf() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Mcs, LockKind::Mcs]).unwrap(),
        );
        assert_eq!(hammer(&lock, &[2, 2], 1000), 2000);
    }

    #[test]
    fn keep_local_threshold_one_still_live() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
                ClofParams {
                    keep_local_threshold: 1,
                },
                false,
            )
            .unwrap(),
        );
        assert_eq!(hammer(&lock, &[0, 1, 6, 7], 500), 2000);
    }

    #[test]
    fn stats_capture_locality() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        // Force a same-cohort waiter to exist at release time (on a
        // single-CPU host free-running threads rarely overlap): hold the
        // lock from CPU 0 while CPU 1 (same leaf cohort) queues up.
        let mut holder = lock.handle(0);
        holder.acquire();
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let waiter = {
            let lock = Arc::clone(&lock);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut handle = lock.handle(1);
                started.store(1, std::sync::atomic::Ordering::Release);
                handle.acquire();
                handle.release();
            })
        };
        while started.load(std::sync::atomic::Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        holder.release(); // waiter is queued at the leaf ⇒ local pass
        waiter.join().unwrap();

        let stats = lock.stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].acquisitions, 2);
        assert_eq!(stats[0].passes, 1, "{stats:?}");
        // The root was acquired once (by the holder) and inherited by
        // the waiter.
        assert_eq!(stats[2].acquisitions, 1);
        assert!(stats[0].locality() > 0.0);
    }

    #[test]
    fn stats_zero_on_fresh_lock() {
        let h = platforms::tiny();
        let lock =
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Mcs, LockKind::Mcs]).unwrap();
        for level in lock.stats() {
            assert_eq!(level.acquisitions, 0);
            assert_eq!(level.locality(), 0.0);
        }
    }

    #[test]
    fn per_level_params_apply() {
        use crate::level::ClofParams;
        let h = platforms::tiny();
        let params = [
            ClofParams { keep_local_threshold: 2 },
            ClofParams { keep_local_threshold: 64 },
            ClofParams { keep_local_threshold: 1 },
        ];
        let lock = Arc::new(
            DynClofLock::build_with_level_params(
                &h,
                &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
                &params,
                false,
            )
            .unwrap(),
        );
        assert_eq!(hammer(&lock, &[0, 1, 4, 5], 500), 2000);
        // Arity mismatch is rejected.
        let err = DynClofLock::build_with_level_params(
            &h,
            &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
            &params[..2],
            false,
        );
        assert!(err.is_err());
    }

    /// Queues a waiter on CPU 1 while CPU 0 holds, and reports the leaf
    /// cohort's read-indicator count observed during the wait.
    fn waiter_count_while_queued(lock: &Arc<DynClofLock>) -> u32 {
        let mut holder = lock.handle(0);
        holder.acquire();
        let started = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let lock = Arc::clone(lock);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut handle = lock.handle(1);
                started.store(1, Ordering::Release);
                handle.acquire();
                handle.release();
            })
        };
        while started.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        // Grace period: the waiter is parked in the leaf's low-lock
        // acquire (CPUs 0 and 1 share the leaf cohort on `tiny`).
        std::thread::sleep(std::time::Duration::from_millis(50));
        let count = lock.leaves[lock.cpu_to_leaf[0]].meta.waiter_count();
        holder.release();
        waiter.join().unwrap();
        count
    }

    #[test]
    fn hinting_low_lock_skips_read_indicator() {
        // Regression: a low lock with a native waiter hint (tkt) must
        // not maintain the read-indicator counter at all — the release
        // path always takes the hint branch, so `inc`/`dec_waiters`
        // would be pure wasted coherence traffic.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket])
                .unwrap(),
        );
        assert_eq!(waiter_count_while_queued(&lock), 0);
    }

    #[test]
    fn hintless_low_lock_maintains_read_indicator() {
        // Counterpart: TTAS answers no hint, so the counter path must
        // still run and see the queued waiter.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ttas, LockKind::Ticket, LockKind::Ticket],
                ClofParams::default(),
                true,
            )
            .unwrap(),
        );
        assert_eq!(waiter_count_while_queued(&lock), 1);
    }

    #[test]
    fn flat_hierarchy_is_just_the_basic_lock() {
        let h = clof_topology::Hierarchy::flat(4).unwrap();
        let lock = Arc::new(DynClofLock::build(&h, &[LockKind::Clh]).unwrap());
        assert_eq!(lock.name(), "clh");
        assert_eq!(hammer(&lock, &[0, 1, 2, 3], 1000), 4000);
    }

    #[test]
    fn finalist_compositions_get_monomorphized_dispatch() {
        let h3 = platforms::tiny();
        for kinds in [
            [LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
            [LockKind::Clh, LockKind::Clh, LockKind::Ticket],
            [LockKind::Clh, LockKind::Clh, LockKind::Hemlock],
            [LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
        ] {
            let lock = DynClofLock::build(&h3, &kinds).unwrap();
            assert_eq!(
                lock.dispatch_tier(),
                DispatchTier::Monomorphized,
                "{}",
                lock.name()
            );
        }
        let h2 = clof_topology::platforms::two_level(8, 2);
        for kinds in [
            [LockKind::Ticket, LockKind::Ticket],
            [LockKind::Mcs, LockKind::Ticket],
            [LockKind::Clh, LockKind::Ticket],
        ] {
            let lock = DynClofLock::build(&h2, &kinds).unwrap();
            assert_eq!(
                lock.dispatch_tier(),
                DispatchTier::Monomorphized,
                "{}",
                lock.name()
            );
        }
        // Non-finalists stay on the generic enum tree.
        for kinds in [
            [LockKind::Hemlock, LockKind::Mcs, LockKind::Clh],
            [LockKind::Ticket, LockKind::Clh, LockKind::Ticket],
        ] {
            let lock = DynClofLock::build(&h3, &kinds).unwrap();
            assert_eq!(lock.dispatch_tier(), DispatchTier::Generic, "{}", lock.name());
        }
        let flat = clof_topology::Hierarchy::flat(4).unwrap();
        let lock = DynClofLock::build(&flat, &[LockKind::Ticket]).unwrap();
        assert_eq!(lock.dispatch_tier(), DispatchTier::Generic);
    }

    #[test]
    fn fast_and_generic_handles_interoperate() {
        // Both tiers run the identical protocol on the same shared
        // nodes, so a mixed population must preserve mutual exclusion
        // and produce the same aggregate stats as a uniform one.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        assert_eq!(lock.dispatch_tier(), DispatchTier::Monomorphized);
        const ITERS: usize = 800;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for (i, cpu) in [0usize, 1, 4, 7].into_iter().enumerate() {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                let mut handle = if i % 2 == 0 {
                    lock.handle(cpu)
                } else {
                    lock.handle_generic(cpu)
                };
                for _ in 0..ITERS {
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4 * ITERS);
        // Every leaf acquisition is counted exactly once regardless of
        // which tier performed it.
        assert_eq!(lock.stats()[0].acquisitions, 4 * ITERS as u64);
    }

    #[test]
    fn stats_visit_every_node_exactly_once_on_asymmetric_hierarchy() {
        // Regression for the traversal rewrite: the old pointer-dedup
        // walk was quadratic and easy to get wrong on trees where
        // cohort counts differ per branch. Build an asymmetric tree —
        // leaf cohorts of size 3/2/1, mid cohorts of size 2/1 (in leaf
        // cohorts) — and check the per-level aggregates against an
        // exact hand count.
        let h = clof_topology::Hierarchy::from_levels(
            vec![
                ("core".to_string(), vec![0, 0, 0, 1, 1, 2]),
                ("numa".to_string(), vec![0, 0, 0, 0, 0, 1]),
            ],
            6,
        )
        .unwrap();
        assert_eq!(h.level_count(), 3);
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket])
                .unwrap(),
        );
        // One uncontended acquire per CPU: every leaf climbs to the
        // root each time (no waiters anywhere), so per level the
        // acquisition count equals the number of ops and every pass
        // count is zero. A node missed by the traversal would lose its
        // cohort's share; a node visited twice would overshoot.
        for cpu in 0..6 {
            let mut handle = lock.handle(cpu);
            handle.acquire();
            handle.release();
        }
        let stats = lock.stats();
        assert_eq!(stats.len(), 3);
        for level in &stats {
            assert_eq!(level.acquisitions, 6, "{stats:?}");
            assert_eq!(level.passes, 0, "{stats:?}");
            // The root has no level above it to release up to.
            let expected_up = if level.level == 2 { 0 } else { 6 };
            assert_eq!(level.releases_up, expected_up, "{stats:?}");
        }
        // The construction-order list holds exactly one entry per
        // cohort per level: 3 leaves + 2 mids + 1 root.
        assert_eq!(lock.nodes.len(), 6);
        let per_level: Vec<usize> = (0..3)
            .map(|l| lock.nodes.iter().filter(|(level, _)| *level == l).count())
            .collect();
        assert_eq!(per_level, vec![3, 2, 1]);
    }

    #[test]
    fn striped_indicator_keeps_hintless_leaf_visible_per_cpu() {
        // Each CPU in a leaf cohort lands on its own stripe; a waiter
        // parked from any of them must be visible to `has_waiters`.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ttas, LockKind::Ticket, LockKind::Ticket],
                ClofParams::default(),
                true,
            )
            .unwrap(),
        );
        // CPUs 0 and 1 share leaf cohort 0 on `tiny` but use distinct
        // stripes; queue a waiter from each in turn.
        for waiter_cpu in [0usize, 1] {
            let mut holder = lock.handle(if waiter_cpu == 0 { 1 } else { 0 });
            holder.acquire();
            let started = Arc::new(AtomicUsize::new(0));
            let waiter = {
                let lock = Arc::clone(&lock);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let mut handle = lock.handle(waiter_cpu);
                    started.store(1, Ordering::Release);
                    handle.acquire();
                    handle.release();
                })
            };
            while started.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(
                lock.leaf_waiter_count(waiter_cpu),
                1,
                "stripe for cpu {waiter_cpu} lost its waiter"
            );
            assert!(lock.leaves[lock.cpu_to_leaf[waiter_cpu]].meta.has_waiters());
            holder.release();
            waiter.join().unwrap();
        }
    }

    /// The clock is read once per transition — acquire entry, each
    /// level won, release entry — and every consumer of a transition
    /// shares that read (tracer off, as on the benchmark's path).
    #[cfg(all(feature = "obs", debug_assertions))]
    #[test]
    fn clock_is_read_once_per_transition() {
        use clof_obs::clock_reads;
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        let levels = lock.composition().len() as u64;

        // Solo: nobody to inherit from, so every level is climbed.
        for mut handle in [lock.handle(0), lock.handle_generic(0)] {
            let before = clock_reads();
            handle.acquire();
            handle.release();
            assert_eq!(clock_reads() - before, levels + 2, "solo full climb");
        }

        // Pass path: this thread inherits the tree at the leaf and hands
        // it on at the leaf. CPU 0 holds while two CPU-1 threads queue
        // up; the first of them is measured. Queueing order is not
        // observable from outside, so the round is repeated until the
        // measured acquire did inherit and pass (seen in its counters).
        for round in 0.. {
            assert!(round < 50, "never got a waiter to inherit and pass");
            let mut holder = lock.handle(0);
            holder.acquire();
            let queued = Arc::new(AtomicUsize::new(0));
            let measured = {
                let (lock, queued) = (Arc::clone(&lock), Arc::clone(&queued));
                std::thread::spawn(move || {
                    let mut handle = lock.handle(1);
                    queued.fetch_add(1, Ordering::Release);
                    let before = clock_reads();
                    handle.acquire();
                    // Give the third thread time to queue behind us.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    handle.release();
                    clock_reads() - before
                })
            };
            while queued.load(Ordering::Acquire) < 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            let third = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut handle = lock.handle(1);
                    handle.acquire();
                    handle.release();
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(20));
            let before = lock.obs_snapshot();
            holder.release();
            let reads = measured.join().unwrap();
            third.join().unwrap();
            let after = lock.obs_snapshot();
            let (l0_before, l0_after) = (&before.levels[0], &after.levels[0]);
            // holder → measured → third: two inherited acquires and two
            // passes, all at the leaf, since `before` was taken.
            if l0_after.contended_acquires - l0_before.contended_acquires == 2
                && l0_after.passes_taken - l0_before.passes_taken == 2
            {
                assert_eq!(reads, 3, "inherited acquire, pass release");
                break;
            }
        }
    }

    /// One contended timeout cycle on `lock`: CPU 0 holds, CPU 1 times
    /// out, then — after the unwind — CPU 1 must win cleanly. Returns
    /// the timed-out attempt's elapsed wall time.
    #[cfg(feature = "deadline")]
    fn timeout_cycle(lock: &Arc<DynClofLock>, generic: bool) -> std::time::Duration {
        use std::time::{Duration, Instant};
        let mk = |cpu: usize| {
            if generic {
                lock.handle_generic(cpu)
            } else {
                lock.handle(cpu)
            }
        };
        let mut holder = mk(0);
        holder.acquire();
        let mut waiter = mk(1);
        let start = Instant::now();
        assert!(
            !waiter.try_acquire_until(start + Duration::from_millis(40)),
            "acquired a lock another handle holds"
        );
        let elapsed = start.elapsed();
        assert_eq!(
            lock.queue_depth_hint(),
            0,
            "timed-out waiter leaked a waiter-count registration"
        );
        holder.release();
        // The abandoned attempt must leave both the tree and the
        // waiter's own contexts reusable.
        assert!(waiter.try_acquire_until(Instant::now() + Duration::from_secs(10)));
        waiter.release();
        elapsed
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_timeout_unwinds_fast_tier_and_generic() {
        let h = platforms::tiny();
        // (Mcs, Clh, Ticket) is a finalist: `handle` exercises the
        // monomorphized Fast3 path, `handle_generic` the enum walk.
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        assert!(lock.fast.is_some(), "finalist shape should resolve a fast tier");
        for generic in [false, true] {
            let elapsed = timeout_cycle(&lock, generic);
            // Acceptance bound: d + one hand-off. Uncontended hand-offs
            // are microseconds; 40ms of budget coming back after whole
            // seconds would mean an unbounded wait snuck in.
            assert!(
                elapsed < std::time::Duration::from_secs(5),
                "timeout took {elapsed:?} against a 40ms budget (generic={generic})"
            );
        }
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_timeout_unwinds_hintless_indicator_levels() {
        // TTAS leaves have no native waiter hint, so the timed-out climb
        // crosses the striped read-indicator bracket — the
        // `queue_depth_hint() == 0` assert inside `timeout_cycle` is the
        // actual leak oracle here.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ttas, LockKind::Ticket, LockKind::Ticket],
                ClofParams::default(),
                true,
            )
            .unwrap(),
        );
        timeout_cycle(&lock, false);
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_uncontended_try_acquire_wins_immediately() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        let mut handle = lock.handle(0);
        assert!(handle.try_acquire_for(std::time::Duration::from_secs(10)));
        handle.release();
        // And the plain path still works after a try path used the
        // same contexts.
        handle.acquire();
        handle.release();
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn poison_flag_roundtrips() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        assert!(!lock.is_poisoned());
        lock.poison();
        assert!(lock.is_poisoned());
        // Poison is advisory at this layer: acquisition still works.
        let mut handle = lock.handle(0);
        handle.acquire();
        handle.release();
        lock.clear_poison();
        assert!(!lock.is_poisoned());
    }
}
