//! Static (compile-time) composition: the paper's *syntactic recursion*.
//!
//! `CLoF(l, L)` from the paper's grammar is the generic type
//! [`Clof<L, H>`]: `L` is the low (basic) lock of this level and `H` is
//! the high lock — either another `Clof` or a [`Leaf`] basic lock. The
//! recursion unfolds during monomorphization, so a composed acquire is a
//! chain of inlined calls with no virtual dispatch, mirroring the paper's
//! C-macro unfolding of `lockgen` (Figure 8).

use std::sync::Arc;

use clof_locks::RawLock;
use clof_topology::Hierarchy;

use self::staticobs::{HoldSpan, NodeObs};
use crate::error::ClofError;
use crate::level::{spin_budget_for_span, ClofParams, LevelMeta, SpinBudget};
use crate::step::{self, Block, Hook, Rung, Span, Wait};

/// Telemetry of the static composition: a per-node [`NodeObs`]
/// (counters plus the tracer's identity) and a per-handle [`HoldSpan`],
/// the [`Hook`]/[`Span`] the level step reports to. Without the `obs`
/// feature both are `()`, whose hooks are the step's empty defaults.
///
/// The static side records counters and trace spans; latency histograms
/// and the pass-event ring stay dynamic-only (monomorphized nodes have
/// no lock-wide collector to hang them on).
#[cfg(feature = "obs")]
mod staticobs {
    use clof_obs::trace::{self, NodeTrack, SpanKind};
    use clof_obs::{now_ns, thread_tag, watchdog, LevelCounters};

    use crate::step::{Hook, Span};

    /// Per-node recording state: counters plus the node's place in a
    /// trace.
    #[derive(Debug)]
    pub struct NodeObs {
        track: NodeTrack,
        pub(super) counters: LevelCounters,
    }

    pub(super) fn node_obs(level: usize) -> NodeObs {
        NodeObs {
            track: NodeTrack::new(level),
            counters: LevelCounters::new(),
        }
    }

    /// A handle's recorder: whole-lock hold span and watchdog progress,
    /// plus the transition time each level's wait span starts from.
    #[derive(Debug, Default)]
    pub struct HoldSpan {
        /// When the previous transition (acquire entry, a level won)
        /// happened; 0 outside a handle's acquire, which keeps bare
        /// [`HierLock::acquire`](super::HierLock::acquire) calls out of
        /// the trace.
        last: u64,
        acquired_at: u64,
    }

    impl Span for HoldSpan {
        #[inline]
        fn enter(&mut self) {
            self.last = now_ns();
            watchdog::global().wait_at(thread_tag(), self.last);
        }

        #[inline]
        fn acquired(&mut self) {
            self.acquired_at = now_ns();
            watchdog::global().hold_at(thread_tag(), self.acquired_at);
        }

        /// Nothing was acquired, so the watchdog sees idle (not hold)
        /// and the attempt lands in the process-wide timeout count.
        #[inline]
        fn abandoned(&mut self) {
            watchdog::global().idle_at(thread_tag(), now_ns());
            clof_obs::deadline::record_timeout();
        }

        #[inline]
        fn releasing(&mut self) {
            let now = now_ns();
            if trace::is_enabled() {
                trace::record(self.acquired_at, now, 0, 0, SpanKind::Hold, 0, 0);
            }
            watchdog::global().idle_at(thread_tag(), now);
        }
    }

    impl Hook<NodeObs> for HoldSpan {
        #[inline]
        fn level_won(&mut self, node: &NodeObs, inherited: bool) {
            node.counters.record_acquire(inherited);
            if trace::is_enabled() && self.last != 0 {
                let now = now_ns();
                node.track.wait_span(self.last, now, inherited);
                self.last = now;
            }
        }

        #[inline]
        fn hint_hit(&mut self, node: &NodeObs) {
            node.counters.record_hint_hit();
        }

        #[inline]
        fn pass(&mut self, node: &NodeObs) {
            node.counters.record_pass_taken();
            if trace::is_enabled() {
                node.track.pass_span(now_ns());
            }
        }

        #[inline]
        fn release_up(&mut self, node: &NodeObs, forced: bool) {
            node.counters.record_pass_declined(forced);
            if trace::is_enabled() {
                node.track.release_up_span(now_ns(), forced);
            }
        }
    }
}

#[cfg(not(feature = "obs"))]
mod staticobs {
    pub type NodeObs = ();
    pub type HoldSpan = ();

    pub(super) fn node_obs(_level: usize) {}
}

/// A node of a composed lock hierarchy.
///
/// Implemented by [`Leaf`] (base case: a basic lock) and [`Clof`]
/// (inductive case). `Context` is the per-thread context for this node's
/// *lowest* level; contexts of higher levels live inside the metadata of
/// the level below them and never surface to the user.
pub trait HierLock: Send + Sync + 'static {
    /// Thread-side context used to acquire this node.
    type Context: Default + Send + Sync + 'static;

    /// The climb behind [`acquire`](Self::acquire) and
    /// [`try_acquire_until`](Self::try_acquire_until): this node's
    /// level step under the wait policy `wait`, reporting to `hook`.
    #[doc(hidden)]
    fn acquire_with<W: Wait, K: Hook<NodeObs>>(
        &self,
        ctx: &mut Self::Context,
        slot: u32,
        wait: W,
        hook: &mut K,
    ) -> bool;

    /// [`release`](Self::release), reporting to `hook`.
    #[doc(hidden)]
    fn release_with<K: Hook<NodeObs>>(&self, ctx: &mut Self::Context, hook: &mut K);

    /// Acquires every level from this node up to the system lock (or up
    /// to wherever a passed high lock short-circuits the climb).
    ///
    /// `slot` is the caller's child position under this node (CPU index
    /// within a leaf cohort, or sibling-cohort index for upper levels);
    /// it selects the read-indicator stripe the acquire registers on.
    /// Nodes recursing upward pass their own sibling slot.
    fn acquire(&self, ctx: &mut Self::Context, slot: u32) {
        self.acquire_with(ctx, slot, Block, &mut HoldSpan::default());
    }

    /// Deadline-bounded [`acquire`](Self::acquire): the same climb
    /// under one *absolute* deadline shared by every level. Returns
    /// `false` on timeout with every partially-acquired level unwound.
    #[cfg(feature = "deadline")]
    fn try_acquire_until(
        &self,
        ctx: &mut Self::Context,
        slot: u32,
        deadline: std::time::Instant,
    ) -> bool {
        self.acquire_with(ctx, slot, deadline, &mut HoldSpan::default())
    }

    /// Releases this node: passes the high lock within the cohort when
    /// allowed, otherwise releases high levels first, then this level.
    fn release(&self, ctx: &mut Self::Context) {
        self.release_with(ctx, &mut HoldSpan::default());
    }

    /// Whether the composition is starvation-free (all components fair).
    fn fair() -> bool;

    /// Composition name in the paper's notation, innermost level first
    /// (e.g. `"tkt-clh-tkt"`).
    fn name() -> String;

    /// Number of levels below (and including) this node.
    fn levels() -> usize;

    /// Visits every node's telemetry counters, bottom-up: the callback
    /// receives `(level, node_address, counters)`. The address lets
    /// callers dedupe shared upper nodes reached from several leaves
    /// (the static side records counters only — histograms and the
    /// event ring need the per-lock plumbing [`crate::DynClofLock`]
    /// has; use the dynamic form for full traces).
    #[cfg(feature = "obs")]
    fn visit_obs(&self, level: usize, visit: &mut dyn FnMut(usize, usize, &clof_obs::LevelCounters));
}

/// Base case of the recursion: a bare basic lock (the system-level lock).
#[derive(Debug)]
pub struct Leaf<L: RawLock> {
    low: L,
    /// The root has no `LevelMeta`, so it carries its own budget cell.
    budget: SpinBudget,
    obs: NodeObs,
}

impl<L: RawLock> Default for Leaf<L> {
    fn default() -> Self {
        Leaf {
            low: L::default(),
            budget: SpinBudget::new(),
            obs: staticobs::node_obs(0),
        }
    }
}

impl<L: RawLock> Leaf<L> {
    /// Wraps a basic lock as the root of a composition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tags this node with its hierarchy level for telemetry (the type
    /// recursion cannot know it — nodes start at level 0 — builders do).
    /// No-op without `obs`.
    #[must_use]
    pub fn at_level(mut self, level: usize) -> Self {
        self.obs = staticobs::node_obs(level);
        self
    }

    /// Derives this node's spin-then-park budget from the topology span
    /// of its level: the wider the cohort, the sooner waiters park.
    /// No-op without the `park` feature.
    #[must_use]
    pub fn budgeted(self, hierarchy: &Hierarchy, level: usize) -> Self {
        self.budget
            .set(spin_budget_for_span(hierarchy.cohort_span(level)));
        self
    }
}

impl<L: RawLock> HierLock for Leaf<L> {
    type Context = L::Context;

    #[inline]
    fn acquire_with<W: Wait, K: Hook<NodeObs>>(
        &self,
        ctx: &mut L::Context,
        _slot: u32,
        wait: W,
        hook: &mut K,
    ) -> bool {
        step::acquire_root(&self.low, ctx, self.budget.get(), &self.obs, wait, hook)
    }

    #[inline]
    fn release_with<K: Hook<NodeObs>>(&self, ctx: &mut L::Context, _hook: &mut K) {
        self.low.release(ctx);
    }

    fn fair() -> bool {
        L::INFO.fair
    }

    fn name() -> String {
        L::INFO.name.to_string()
    }

    fn levels() -> usize {
        1
    }

    #[cfg(feature = "obs")]
    fn visit_obs(
        &self,
        level: usize,
        visit: &mut dyn FnMut(usize, usize, &clof_obs::LevelCounters),
    ) {
        visit(level, self as *const Self as usize, &self.obs.counters);
    }
}

/// Inductive case: `CLoF(l, L)` — low lock `L`, high lock `H`.
///
/// One `Clof` instance exists **per cohort** of its level; sibling cohorts
/// share the high node through an [`Arc`]. Use [`ClofTree`] to build the
/// full per-machine structure from a [`Hierarchy`].
pub struct Clof<L: RawLock, H: HierLock> {
    low: L,
    meta: LevelMeta<H::Context>,
    high: Arc<H>,
    /// This node's sibling index under its parent — the stripe its
    /// upward acquires register on in the parent's read indicator.
    slot: u32,
    obs: NodeObs,
}

impl<L: RawLock, H: HierLock> Clof<L, H> {
    /// Creates a cohort node with explicit parameters and layout: `fanin`
    /// sizes the striped read indicator (children below this node), and
    /// `slot` is this node's sibling index under `high`.
    pub fn with_layout(high: Arc<H>, params: ClofParams, fanin: usize, slot: u32) -> Self {
        Clof {
            low: L::default(),
            meta: LevelMeta::with_fanin(params, fanin),
            high,
            slot,
            obs: staticobs::node_obs(0),
        }
    }

    /// Tags this node with its hierarchy level for telemetry (the type
    /// recursion cannot know it — nodes start at level 0 — builders do).
    /// No-op without `obs`.
    #[must_use]
    pub fn at_level(mut self, level: usize) -> Self {
        self.obs = staticobs::node_obs(level);
        self
    }

    /// Derives this node's spin-then-park budget from the topology span
    /// of its level: the wider the cohort, the sooner waiters park.
    /// No-op without the `park` feature.
    #[must_use]
    pub fn budgeted(self, hierarchy: &Hierarchy, level: usize) -> Self {
        self.meta
            .set_spin_budget(spin_budget_for_span(hierarchy.cohort_span(level)));
        self
    }

    /// This node as the level step sees it. `L::INFO` is a constant, so
    /// the read-indicator branch resolves at monomorphization time.
    #[inline]
    fn rung(&self) -> Rung<'_, L, H::Context, NodeObs> {
        let counts_waiters = !has_native_hint::<L>();
        // SAFETY: `low` and `meta` are this node's own, private and
        // only ever used together, here.
        unsafe { Rung::new(&self.low, &self.meta, counts_waiters, &self.obs) }
    }
}

impl<L: RawLock, H: HierLock> HierLock for Clof<L, H> {
    type Context = L::Context;

    #[inline]
    fn acquire_with<W: Wait, K: Hook<NodeObs>>(
        &self,
        ctx: &mut L::Context,
        slot: u32,
        wait: W,
        hook: &mut K,
    ) -> bool {
        step::acquire_step(self.rung(), ctx, slot, wait, hook, |high_ctx, hook| {
            self.high.acquire_with(high_ctx, self.slot, wait, hook)
        })
    }

    #[inline]
    fn release_with<K: Hook<NodeObs>>(&self, ctx: &mut L::Context, hook: &mut K) {
        step::release_step(self.rung(), ctx, hook, |high_ctx, hook| {
            self.high.release_with(high_ctx, hook)
        });
    }

    fn fair() -> bool {
        L::INFO.fair && H::fair()
    }

    fn name() -> String {
        format!("{}-{}", L::INFO.name, H::name())
    }

    fn levels() -> usize {
        1 + H::levels()
    }

    #[cfg(feature = "obs")]
    fn visit_obs(
        &self,
        level: usize,
        visit: &mut dyn FnMut(usize, usize, &clof_obs::LevelCounters),
    ) {
        visit(level, self as *const Self as usize, &self.obs.counters);
        self.high.visit_obs(level + 1, visit);
    }
}

/// Whether `L` reports waiters natively (compile-time constant per type).
///
/// Reads [`LockInfo::waiter_hint`](clof_locks::LockInfo) directly, so new
/// locks (and locks whose hint was previously missed by a name-keyed
/// list — Anderson always answered `Some` yet used to be treated as
/// hintless here, paying the read-indicator traffic for nothing) are
/// classified by their own declaration. The `native_hint_matches_info`
/// test pins the constant to the run-time behaviour for every kind.
#[inline]
fn has_native_hint<L: RawLock>() -> bool {
    L::INFO.waiter_hint
}

/// A machine-wide tree of composed locks of static type `T`, one leaf node
/// per innermost cohort.
///
/// All threads protecting one critical section use the *same* tree, each
/// entering at the leaf of its CPU's cohort — the paper's requirement
/// that per-thread CLoF locks share the level sequence and the
/// system-level lock (§4.1.1).
pub struct ClofTree<T: HierLock> {
    leaves: Vec<Arc<T>>,
    cpu_to_leaf: Vec<usize>,
    /// Each CPU's index within its leaf cohort — the read-indicator
    /// stripe its handle registers on.
    cpu_to_stripe: Vec<u32>,
    name: String,
}

impl<T: HierLock> ClofTree<T> {
    fn new(leaves: Vec<Arc<T>>, hierarchy: &Hierarchy) -> Self {
        let cpu_to_leaf = (0..hierarchy.ncpus())
            .map(|c| hierarchy.cohort(0, c))
            .collect();
        ClofTree {
            leaves,
            cpu_to_leaf,
            cpu_to_stripe: cpu_stripes(hierarchy),
            name: T::name(),
        }
    }

    /// A per-thread handle entering at `cpu`'s leaf cohort.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the hierarchy the tree was built for.
    pub fn handle(&self, cpu: usize) -> ClofHandle<T> {
        ClofHandle {
            node: Arc::clone(&self.leaves[self.cpu_to_leaf[cpu]]),
            ctx: T::Context::default(),
            stripe: self.cpu_to_stripe[cpu],
            hold: HoldSpan::default(),
        }
    }

    /// Composition name (`tkt-clh-tkt` style).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of leaf cohorts.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Telemetry snapshot: per-level counters summed across cohorts
    /// (exact at quiescence).
    ///
    /// The static composition records counters only — latency histograms
    /// and the pass-event ring live on [`crate::DynClofLock`], whose
    /// nodes share per-lock collector state; monomorphized nodes have
    /// nowhere lock-wide to hang it without widening every handle.
    #[cfg(feature = "obs")]
    pub fn obs_snapshot(&self) -> clof_obs::LockSnapshot {
        let mut levels: Vec<clof_obs::LevelSnapshot> = (0..T::levels())
            .map(|level| clof_obs::LevelSnapshot {
                level,
                ..Default::default()
            })
            .collect();
        let mut seen: Vec<usize> = Vec::new();
        for leaf in &self.leaves {
            leaf.visit_obs(0, &mut |level, addr, counters| {
                if !seen.contains(&addr) {
                    seen.push(addr);
                    levels[level].merge(&counters.snapshot(level));
                }
            });
        }
        clof_obs::LockSnapshot {
            name: self.name.clone(),
            levels,
            ..Default::default()
        }
    }
}

/// A per-thread handle on a [`ClofTree`]: the leaf node plus the thread's
/// leaf-level context.
pub struct ClofHandle<T: HierLock> {
    node: Arc<T>,
    ctx: T::Context,
    stripe: u32,
    hold: HoldSpan,
}

impl<T: HierLock> ClofHandle<T> {
    fn acquire_with<W: Wait>(&mut self, wait: W) -> bool {
        step::spanned(&mut self.hold, |hold| {
            self.node
                .acquire_with(&mut self.ctx, self.stripe, wait, hold)
        })
    }

    /// Acquires the composed lock.
    pub fn acquire(&mut self) {
        self.acquire_with(Block);
    }

    /// Deadline-bounded acquire: one absolute deadline bounds the whole
    /// climb. Returns `false` on timeout with every partially-acquired
    /// level unwound; the handle is immediately reusable.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        self.acquire_with(deadline)
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
        self.hold.releasing();
        self.node.release_with(&mut self.ctx, &mut self.hold);
        self.hold.released();
    }
}

fn check_levels(hierarchy: &Hierarchy, expected: usize) -> Result<(), ClofError> {
    if hierarchy.level_count() != expected {
        return Err(ClofError::LevelCountMismatch {
            locks: expected,
            levels: hierarchy.level_count(),
        });
    }
    Ok(())
}

/// Each CPU's index within its leaf cohort — the stripe its handle's
/// `inc`/`dec_waiters` bracket registers on.
pub(crate) fn cpu_stripes(hierarchy: &Hierarchy) -> Vec<u32> {
    let mut out = vec![0u32; hierarchy.ncpus()];
    for cohort in 0..hierarchy.cohort_count(0) {
        for (i, cpu) in hierarchy.cohort_members(0, cohort).into_iter().enumerate() {
            out[cpu] = i as u32;
        }
    }
    out
}

/// `(fanin, slot)` per cohort at `level`: fan-in is how many children
/// feed the node (CPUs at level 0, child cohorts above) and sizes its
/// read-indicator stripes; slot is the cohort's sibling index under its
/// parent — the stripe it registers on when climbing. The outermost
/// level keeps slot 0 (the root is a bare [`Leaf`], no indicator).
pub(crate) fn cohort_layout(hierarchy: &Hierarchy, level: usize) -> Vec<(usize, u32)> {
    let n = hierarchy.cohort_count(level);
    let mut fanin = vec![0usize; n];
    if level == 0 {
        for (cohort, f) in fanin.iter_mut().enumerate() {
            *f = hierarchy.cohort_members(0, cohort).len();
        }
    } else {
        for child in 0..hierarchy.cohort_count(level - 1) {
            let cpu = hierarchy.cohort_members(level - 1, child)[0];
            fanin[hierarchy.cohort(level, cpu)] += 1;
        }
    }
    let mut slot = vec![0u32; n];
    if level + 1 < hierarchy.level_count() {
        let mut next = vec![0u32; hierarchy.cohort_count(level + 1)];
        for (cohort, s) in slot.iter_mut().enumerate() {
            let cpu = hierarchy.cohort_members(level, cohort)[0];
            let parent = hierarchy.cohort(level + 1, cpu);
            *s = next[parent];
            next[parent] += 1;
        }
    }
    fanin.into_iter().zip(slot).collect()
}

/// The system-level node of a composition over `hierarchy`.
fn root_node<L: RawLock>(hierarchy: &Hierarchy) -> Vec<Arc<Leaf<L>>> {
    let level = hierarchy.level_count() - 1;
    let root = Leaf::new().at_level(level).budgeted(hierarchy, level);
    vec![Arc::new(root)]
}

/// One `Clof<L, H>` per cohort of `level`, each linked to the node in
/// `highs` (the nodes of `level + 1`, indexed by cohort) its members
/// share.
fn level_nodes<L: RawLock, H: HierLock>(
    hierarchy: &Hierarchy,
    level: usize,
    params: ClofParams,
    highs: &[Arc<H>],
) -> Vec<Arc<Clof<L, H>>> {
    cohort_layout(hierarchy, level)
        .into_iter()
        .enumerate()
        .map(|(cohort, (fanin, slot))| {
            // The cohort above this one: take any member CPU and look
            // up its cohort one level up.
            let cpu = hierarchy.cohort_members(level, cohort)[0];
            let high = Arc::clone(&highs[hierarchy.cohort(level + 1, cpu)]);
            Arc::new(
                Clof::with_layout(high, params, fanin, slot)
                    .at_level(level)
                    .budgeted(hierarchy, level),
            )
        })
        .collect()
}

/// Builds a 1-level "composition": just the system lock (degenerate case,
/// NUMA-oblivious behaviour).
pub fn build1<L0: RawLock>(hierarchy: &Hierarchy) -> Result<ClofTree<Leaf<L0>>, ClofError> {
    check_levels(hierarchy, 1)?;
    Ok(ClofTree::new(root_node(hierarchy), hierarchy))
}

/// Builds a 2-level composition `l0-l1` over a 2-level hierarchy.
pub fn build2<L0: RawLock, L1: RawLock>(
    hierarchy: &Hierarchy,
    params: ClofParams,
) -> Result<ClofTree<Clof<L0, Leaf<L1>>>, ClofError> {
    check_levels(hierarchy, 2)?;
    let leaves = level_nodes(hierarchy, 0, params, &root_node(hierarchy));
    Ok(ClofTree::new(leaves, hierarchy))
}

/// Builds a 3-level composition `l0-l1-l2` over a 3-level hierarchy.
pub fn build3<L0: RawLock, L1: RawLock, L2: RawLock>(
    hierarchy: &Hierarchy,
    params: ClofParams,
) -> Result<ClofTree<Clof<L0, Clof<L1, Leaf<L2>>>>, ClofError> {
    check_levels(hierarchy, 3)?;
    let l1 = level_nodes(hierarchy, 1, params, &root_node(hierarchy));
    let leaves = level_nodes(hierarchy, 0, params, &l1);
    Ok(ClofTree::new(leaves, hierarchy))
}

/// Builds a 4-level composition `l0-l1-l2-l3` over a 4-level hierarchy.
pub fn build4<L0: RawLock, L1: RawLock, L2: RawLock, L3: RawLock>(
    hierarchy: &Hierarchy,
    params: ClofParams,
) -> Result<ClofTree<Clof<L0, Clof<L1, Clof<L2, Leaf<L3>>>>>, ClofError> {
    check_levels(hierarchy, 4)?;
    let l2 = level_nodes(hierarchy, 2, params, &root_node(hierarchy));
    let l1 = level_nodes(hierarchy, 1, params, &l2);
    let leaves = level_nodes(hierarchy, 0, params, &l1);
    Ok(ClofTree::new(leaves, hierarchy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof_locks::{ClhLock, McsLock, TicketLock};
    use clof_topology::platforms;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn native_hint_matches_info() {
        // Keep `LockInfo::waiter_hint` (which `has_native_hint` reads) in
        // sync with the actual implementations: probe each lock held
        // uncontended. Anderson is the regression case — it always
        // answers `Some`, but a previous name-keyed version of
        // `has_native_hint` omitted it and kept the redundant
        // read-indicator traffic.
        use clof_locks::{AndersonLock, BackoffLock, Hemlock, HemlockCtr, RawLock, TtasLock};
        fn probe<L: RawLock>() -> bool {
            let lock = L::default();
            let mut ctx = L::Context::default();
            lock.acquire(&mut ctx);
            let hint = lock.has_waiters_hint(&ctx).is_some();
            lock.release(&mut ctx);
            hint
        }
        assert_eq!(probe::<TicketLock>(), has_native_hint::<TicketLock>());
        assert_eq!(probe::<McsLock>(), has_native_hint::<McsLock>());
        assert_eq!(probe::<ClhLock>(), has_native_hint::<ClhLock>());
        assert_eq!(probe::<Hemlock>(), has_native_hint::<Hemlock>());
        assert_eq!(probe::<HemlockCtr>(), has_native_hint::<HemlockCtr>());
        assert_eq!(probe::<TtasLock>(), has_native_hint::<TtasLock>());
        assert_eq!(probe::<BackoffLock>(), has_native_hint::<BackoffLock>());
        assert_eq!(probe::<AndersonLock>(), has_native_hint::<AndersonLock>());
        assert!(
            has_native_hint::<AndersonLock>(),
            "Anderson provides a native hint and must skip the waiter counter"
        );
    }

    #[test]
    fn names_and_levels() {
        type T = Clof<McsLock, Clof<ClhLock, Leaf<TicketLock>>>;
        assert_eq!(T::name(), "mcs-clh-tkt");
        assert_eq!(T::levels(), 3);
        assert!(T::fair());
    }

    #[test]
    fn unfair_component_propagates() {
        use clof_locks::TtasLock;
        type T = Clof<McsLock, Leaf<TtasLock>>;
        assert!(!T::fair());
    }

    #[test]
    fn level_count_checked() {
        let h = platforms::tiny(); // 3 levels
        assert!(build2::<McsLock, TicketLock>(&h, ClofParams::default()).is_err());
        assert!(build3::<McsLock, ClhLock, TicketLock>(&h, ClofParams::default()).is_ok());
    }

    #[test]
    fn single_thread_roundtrip_3level() {
        let h = platforms::tiny();
        let tree = build3::<McsLock, ClhLock, TicketLock>(&h, ClofParams::default()).unwrap();
        assert_eq!(tree.name(), "mcs-clh-tkt");
        assert_eq!(tree.leaf_count(), 4);
        let mut handle = tree.handle(0);
        for _ in 0..100 {
            handle.acquire();
            handle.release();
        }
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_timeout_unwinds_static_tree() {
        use std::time::{Duration, Instant};
        let h = platforms::tiny();
        let tree = std::sync::Arc::new(
            build3::<McsLock, ClhLock, TicketLock>(&h, ClofParams::default()).unwrap(),
        );
        let mut holder = tree.handle(0);
        holder.acquire();
        // CPU 2 sits in a different leaf cohort on `tiny`, so the
        // timed-out climb wins its own leaf and mid levels before
        // stalling on the root — the full multi-level unwind.
        let mut waiter = tree.handle(2);
        let start = Instant::now();
        assert!(!waiter.try_acquire_until(start + Duration::from_millis(40)));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout unbounded against a 40ms budget"
        );
        holder.release();
        assert!(waiter.try_acquire_until(Instant::now() + Duration::from_secs(10)));
        waiter.release();
        // Uncontended try path still composes with the plain path.
        let mut h0 = tree.handle(1);
        assert!(h0.try_acquire_for(Duration::from_secs(10)));
        h0.release();
        h0.acquire();
        h0.release();
    }

    #[test]
    fn mutual_exclusion_across_cohorts() {
        const ITERS: usize = 1_500;
        let h = platforms::tiny();
        let tree = std::sync::Arc::new(
            build3::<McsLock, ClhLock, TicketLock>(&h, ClofParams::default()).unwrap(),
        );
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        // One thread per CPU of the tiny machine: spans all cohorts.
        for cpu in 0..h.ncpus() {
            let tree = std::sync::Arc::clone(&tree);
            let counter = std::sync::Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut handle = tree.handle(cpu);
                for _ in 0..ITERS {
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8 * ITERS);
    }

    #[test]
    fn mutual_exclusion_4level_heterogeneous() {
        use clof_locks::Hemlock;
        const ITERS: usize = 800;
        let h = clof_topology::Hierarchy::regular(&[("core", 2), ("cache", 4), ("numa", 8)], 16)
            .unwrap();
        let tree = std::sync::Arc::new(
            build4::<Hemlock, McsLock, ClhLock, TicketLock>(&h, ClofParams::default()).unwrap(),
        );
        assert_eq!(tree.name(), "hem-mcs-clh-tkt");
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for cpu in (0..16).step_by(2) {
            let tree = std::sync::Arc::clone(&tree);
            let counter = std::sync::Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                let mut handle = tree.handle(cpu);
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
        assert_eq!(counter.load(Ordering::Relaxed), 8 * ITERS);
    }

    #[test]
    fn keep_local_threshold_bounds_passing() {
        // With H = 2 and two threads in one cohort, the high lock must be
        // released at least every second hand-off; we just check liveness
        // across cohorts under a small threshold.
        let h = platforms::tiny();
        let params = ClofParams {
            keep_local_threshold: 2,
        };
        let tree =
            std::sync::Arc::new(build3::<TicketLock, TicketLock, TicketLock>(&h, params).unwrap());
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for cpu in [0usize, 1, 4, 5] {
            let tree = std::sync::Arc::clone(&tree);
            let counter = std::sync::Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                let mut handle = tree.handle(cpu);
                for _ in 0..500 {
                    handle.acquire();
                    counter.fetch_add(1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn build1_flat() {
        let h = clof_topology::Hierarchy::flat(4).unwrap();
        let tree = build1::<TicketLock>(&h).unwrap();
        let mut handle = tree.handle(3);
        handle.acquire();
        handle.release();
        assert_eq!(tree.name(), "tkt");
    }
}
