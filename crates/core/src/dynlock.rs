//! Runtime-assembled CLoF locks: any `&[LockKind]` composition over any
//! [`Hierarchy`].
//!
//! This is the form the exhaustive generator (paper §4.3) benchmarks: with
//! `N = 4` basic locks and `M = 4` levels there are 256 compositions, far
//! too many to monomorphize statically. A [`DynClofLock`] is a tree of
//! [`DynNode`]s — one per cohort per level — each holding an enum-
//! dispatched basic lock, the level metadata, and an `Arc` to its parent
//! node. The protocol is identical to the static [`Clof`](crate::Clof).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clof_locks::NoContext;
use clof_topology::{CpuId, Hierarchy};

use crate::compose::{cohort_layout, cpu_stripes};
use crate::error::ClofError;
use crate::kind::{AnyContext, AnyLock, LockKind};
use crate::level::{
    bump_owned, spin_budget_for_span, ClofParams, Decisions, LevelMeta, LevelStats,
};
use crate::step::{self, Block, Rung, Span, Wait};
use crate::telemetry::{self, Node, Recorder, Site, Telemetry};

use self::typed::{FastTier, HandleInner};

/// One cohort node in a dynamic CLoF tree.
pub struct DynNode {
    low: AnyLock,
    /// Level metadata; its context cell holds the context this cohort
    /// operates `high`'s low lock through (an unused placeholder at the
    /// root).
    pub(crate) meta: LevelMeta<AnyContext>,
    high: Option<Arc<DynNode>>,
    /// Whether acquires must maintain the read-indicator counter. False
    /// when the low lock natively answers `has_waiters` (the paper's
    /// §4.1.2 custom hint, [`LockInfo::waiter_hint`]).
    ///
    /// [`LockInfo::waiter_hint`]: clof_locks::LockInfo
    counter_waiters: bool,
    /// This node's sibling index under its parent — the stripe its
    /// upward acquires register on in the parent's read indicator.
    slot: u32,
    /// Acquisitions of a 1-level lock, whose only node is leaf and root
    /// at once, so no level below derives them; counted by its handles
    /// at release. Stays 0 in every taller tree.
    lone_acquisitions: AtomicU64,
    obs: Node,
}

impl DynNode {
    /// A node of `kind` under `high` (`None` for the root).
    fn new(
        kind: LockKind,
        high: Option<Arc<DynNode>>,
        params: ClofParams,
        fanin: usize,
        slot: u32,
        level: usize,
    ) -> Self {
        let high_ctx = match &high {
            Some(high) => high.low.new_context(),
            None => AnyContext::None(NoContext),
        };
        DynNode {
            low: AnyLock::new(kind),
            meta: LevelMeta::with_ctx(params, fanin, high_ctx),
            high,
            counter_waiters: !kind.info().waiter_hint,
            slot,
            lone_acquisitions: AtomicU64::new(0),
            obs: Recorder::node(level),
        }
    }

    /// This (non-root) node as the level step sees it.
    #[inline]
    fn rung(&self) -> Rung<'_, AnyLock, AnyContext, Node> {
        // SAFETY: `low` and `meta` are this node's own; the typed views
        // pair the same `meta` with the same lock, merely named by its
        // concrete type.
        unsafe { Rung::new(&self.low, &self.meta, self.counter_waiters, &self.obs) }
    }

    /// The enum tier's climb: recursive `lockgen` acquire (paper
    /// Figure 8). `stripe` is the caller's child position under this
    /// node (CPU index within a leaf cohort at level 0, the child's
    /// sibling slot above).
    fn acquire_with<W: Wait>(
        &self,
        ctx: &mut AnyContext,
        stripe: u32,
        wait: W,
        hook: &mut Recorder,
    ) -> bool {
        match &self.high {
            None => {
                let (budget, stamp) = (self.meta.spin_budget(), self.meta.handoff_stamp());
                step::acquire_root(&self.low, ctx, budget, stamp, &self.obs, wait, hook)
            }
            Some(high) => {
                step::acquire_step(self.rung(), ctx, stripe, wait, hook, |high_ctx, hook| {
                    high.acquire_with(high_ctx, self.slot, wait, hook)
                })
            }
        }
    }

    /// [`release`](Self::release) from a handle that entered at this
    /// leaf. A 1-level lock's leaf is its root, with no level below to
    /// derive its acquisitions from, so they are counted here; the typed
    /// tier has no 1-level chain and never comes this way.
    fn release_leaf(&self, ctx: &mut AnyContext, hook: &mut Recorder) {
        if self.high.is_none() {
            bump_owned(&self.lone_acquisitions);
        }
        self.release(ctx, hook);
    }

    /// Recursive `lockgen` release (paper Figure 8).
    fn release(&self, ctx: &mut AnyContext, hook: &mut Recorder) {
        match &self.high {
            None => {
                let stamp = self.meta.handoff_stamp();
                step::release_root(&self.low, ctx, stamp, &self.obs, hook)
            }
            Some(high) => step::release_step(self.rung(), ctx, hook, |high_ctx, hook| {
                high.release(high_ctx, hook)
            }),
        }
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
    /// level: the traversal list for `stats` and `obs_snapshot`,
    /// visiting each node exactly once without the old quadratic
    /// `seen` scan over leaf-to-root chains.
    pub(crate) nodes: Vec<(usize, Arc<DynNode>)>,
    /// Monomorphized dispatch for finalist compositions; `None` falls
    /// back to the enum tree.
    fast: Option<FastTier>,
    composition: Vec<LockKind>,
    name: String,
    pub(crate) obs: telemetry::Lock,
    /// Set when a holder panicked inside its critical section: the
    /// protected data may be mid-mutation. The flag is advisory at this
    /// layer — acquisition still works (the panicking holder's guard
    /// released the tree, so nobody hangs) and wrappers like
    /// `ClofMutex` turn it into `ClofError::Poisoned`.
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
        let shape = telemetry::shape(hierarchy);
        // Build from the root (outermost level, a single cohort with
        // nothing above it) down, collecting every node in construction
        // order for the linear traversals.
        let mut all_nodes: Vec<(usize, Arc<DynNode>)> = Vec::new();
        let mut upper: Vec<Arc<DynNode>> = Vec::new();
        for level in (0..levels).rev() {
            let layout = cohort_layout(hierarchy, level);
            let mut nodes = Vec::with_capacity(layout.len());
            for (cohort, &(fanin, slot)) in layout.iter().enumerate() {
                let high = (level + 1 < levels).then(|| {
                    let cpu = hierarchy.cohort_members(level, cohort)[0];
                    Arc::clone(&upper[hierarchy.cohort(level + 1, cpu)])
                });
                let node = DynNode::new(locks[level], high, params[level], fanin, slot, level);
                // Topology-derived spin budget: waiters spin inversely
                // to the span of their level's cohorts before parking
                // (leaf waiters longest, machine-spanning ones soonest).
                // Runtime-retunable via `set_spin_budget`.
                let span = hierarchy.cohort_span(level);
                node.meta.set_spin_budget(spin_budget_for_span(span));
                let node = Arc::new(node);
                all_nodes.push((level, Arc::clone(&node)));
                nodes.push(node);
            }
            upper = nodes;
        }
        let fast = FastTier::resolve(&upper, locks);
        let caller = std::panic::Location::caller();
        let obs = Recorder::lock(&name, &shape, caller, || Site {
            hints: locks.iter().map(|k| k.info().waiter_hint).collect(),
            nodes: all_nodes.iter().map(|(level, node)| (*level, &node.obs)),
            decisions: {
                let nodes = all_nodes.clone();
                move || decisions(levels, &nodes)
            },
        });
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
            poisoned: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// A per-thread handle entering at `cpu`'s leaf cohort.
    ///
    /// Finalist compositions get a typed handle (statically dispatched
    /// node walk, no per-op enum `match`); everything else gets the
    /// enum-tree handle. Both run the one level step on the same shared
    /// nodes, so handles of either tier interoperate freely on one lock.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the hierarchy used to build the lock.
    pub fn handle(&self, cpu: CpuId) -> DynHandle {
        self.handle_on(cpu, self.fast.as_ref())
    }

    /// A handle forced onto the generic enum-dispatch tier even when the
    /// composition has a typed one — the ablation control for
    /// benchmarks, and a mixed-tier stressor for the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the hierarchy used to build the lock.
    pub fn handle_generic(&self, cpu: CpuId) -> DynHandle {
        self.handle_on(cpu, None)
    }

    fn handle_on(&self, cpu: CpuId, tier: Option<&FastTier>) -> DynHandle {
        let leaf_idx = self.cpu_to_leaf[cpu];
        let stripe = self.cpu_to_stripe[cpu];
        let leaf = &self.leaves[leaf_idx];
        let rec = Recorder::handle(&self.obs, |visit| {
            let mut node = Some(&**leaf);
            while let Some(n) = node {
                visit(&n.obs);
                node = n.high.as_deref();
            }
        });
        DynHandle {
            rec,
            inner: match tier {
                Some(tier) => tier.handle(leaf_idx, stripe),
                None => HandleInner::Generic {
                    ctx: leaf.low.new_context(),
                    chain: Arc::clone(leaf),
                    stripe,
                },
            },
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

    /// Aggregated hand-off statistics per level (innermost first): the
    /// release decisions the level step counted on each node's owner
    /// line, with the acquisitions derived from them (see
    /// [`LevelStats`]).
    ///
    /// A well-matched composition shows high [`LevelStats::locality`] at
    /// the inner levels — the real-lock counterpart of the simulator's
    /// per-level handover histogram.
    pub fn stats(&self) -> Vec<LevelStats> {
        let (levels, lone) = decisions(self.composition.len(), &self.nodes);
        LevelStats::derive(&levels, lone)
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
    /// [`is_poisoned`](Self::is_poisoned) so the flag is visible to the
    /// next acquirer.
    pub fn poison(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether a holder has panicked while holding this lock.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Clears the poison flag after the caller has repaired (or chosen
    /// to trust) the protected state — the `Mutex::clear_poison`
    /// recovery idiom.
    pub fn clear_poison(&self) {
        self.poisoned
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// The root level's spin budget: what a waiter in front of the
    /// whole composition (the `FastClof` gate) spins before parking.
    /// Always [`clof_locks::SPIN_FOREVER`] without the `park` feature.
    #[inline]
    pub(crate) fn root_spin_budget(&self) -> u32 {
        // The tree is built root first, so the root is the first node.
        match self.nodes.first() {
            Some((_, root)) => root.meta.spin_budget(),
            None => clof_locks::SPIN_FOREVER,
        }
    }

    /// Current per-level spin budgets `(level, rounds)`, innermost
    /// first. All cohorts of one level share a budget, so one node per
    /// level reports it. The adaptation layer snapshots this on the
    /// outgoing tree and replays it onto the incoming one, carrying the
    /// waiting policy across hot-swaps.
    #[cfg(feature = "park")]
    pub fn spin_budgets(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> = (0..self.composition.len()).map(|l| (l, 0)).collect();
        for (level, node) in &self.nodes {
            out[*level].1 = node.meta.spin_budget();
        }
        out
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
}

/// Every level's release decisions summed over `nodes` — a tree's
/// construction-order list, which holds each node once, root first —
/// and what a 1-level lock's only node counted.
fn decisions(depth: usize, nodes: &[(usize, Arc<DynNode>)]) -> (Vec<Decisions>, u64) {
    let mut levels = vec![Decisions::default(); depth];
    for (level, node) in nodes {
        levels[*level] += node.meta.decisions();
    }
    let lone = &nodes[0].1.lone_acquisitions;
    (levels, lone.load(Ordering::Relaxed))
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

/// The typed dispatch tier.
///
/// The exhaustive generator needs the enum tree — `N^M` compositions
/// cannot all be monomorphized. But `select` only ever ships a handful
/// of finalists, and those would pay the per-op `AnyLock`/`AnyContext`
/// match on every level transition for no reason. This module re-types
/// the *already built* enum tree for the finalist shapes as a recursive
/// chain of views — [`Top`](typed::Top) over the root node,
/// [`Over`](typed::Over) over every node below, the same shape as the
/// static `Leaf`/`Clof` — checked against the nodes' kinds once, at
/// construction. A typed handle then runs the same level step as a
/// generic one, on the same nodes and context cells, with the basic
/// locks named by type instead of matched; neither tier owns protocol
/// state, which is why their handles interoperate on one lock.
mod typed {
    use std::marker::PhantomData;
    use std::sync::Arc;

    use clof_locks::{ClhLock, Hemlock, McsLock, RawLock, TicketLock};

    use super::{DynNode, Node, Recorder};
    use crate::kind::{AnyContext, LockKind, TypedLock};
    use crate::step::{self, Rung, Wait};

    type Ctx<C> = <<C as Chain>::Lock as RawLock>::Context;

    /// A typed view of a `DynNode` and every node above it.
    pub(super) trait Chain: Clone {
        /// The basic lock of the chain's lowest node.
        type Lock: TypedLock;

        /// Re-types `node`'s chain; `None` if a level's kind or the
        /// chain's depth does not match `Self`.
        fn resolve(node: &Arc<DynNode>) -> Option<Self>;

        /// `DynNode::acquire_with`, statically dispatched.
        fn acquire_with<W: Wait>(
            &self,
            ctx: &mut Ctx<Self>,
            stripe: u32,
            wait: W,
            hook: &mut Recorder,
        ) -> bool;

        /// `DynNode::release`, statically dispatched.
        fn release(&self, ctx: &mut Ctx<Self>, hook: &mut Recorder);
    }

    /// `node`'s basic lock as the `L` a successful [`Chain::resolve`]
    /// found it to be.
    ///
    /// # Safety
    ///
    /// `node.low` must be of `L`'s kind.
    #[inline]
    unsafe fn lock_of<L: TypedLock>(node: &DynNode) -> &L {
        // SAFETY: Per this function's contract.
        unsafe { L::from_any(&node.low).unwrap_unchecked() }
    }

    /// View of the root node: the system-level basic lock `L`.
    pub(super) struct Top<L> {
        node: Arc<DynNode>,
        lock: PhantomData<fn() -> L>,
    }

    impl<L> Clone for Top<L> {
        fn clone(&self) -> Self {
            Top {
                node: Arc::clone(&self.node),
                lock: PhantomData,
            }
        }
    }

    impl<L: TypedLock> Chain for Top<L> {
        type Lock = L;

        fn resolve(node: &Arc<DynNode>) -> Option<Self> {
            L::from_any(&node.low)?;
            node.high.is_none().then(|| Top {
                node: Arc::clone(node),
                lock: PhantomData,
            })
        }

        #[inline]
        fn acquire_with<W: Wait>(
            &self,
            ctx: &mut L::Context,
            _stripe: u32,
            wait: W,
            hook: &mut Recorder,
        ) -> bool {
            let node = &*self.node;
            // SAFETY: `resolve` checked the kind, which never changes.
            let lock = unsafe { lock_of::<L>(node) };
            let (budget, stamp) = (node.meta.spin_budget(), node.meta.handoff_stamp());
            step::acquire_root(lock, ctx, budget, stamp, &node.obs, wait, hook)
        }

        #[inline]
        fn release(&self, ctx: &mut L::Context, hook: &mut Recorder) {
            let node = &*self.node;
            // SAFETY: `resolve` checked the kind, which never changes.
            let lock = unsafe { lock_of::<L>(node) };
            step::release_root(lock, ctx, node.meta.handoff_stamp(), &node.obs, hook);
        }
    }

    /// View of a non-root node with basic lock `L`, over the view `H` of
    /// the chain above it.
    pub(super) struct Over<L, H> {
        node: Arc<DynNode>,
        lock: PhantomData<fn() -> L>,
        high: H,
    }

    impl<L, H: Clone> Clone for Over<L, H> {
        fn clone(&self) -> Self {
            Over {
                node: Arc::clone(&self.node),
                lock: PhantomData,
                high: self.high.clone(),
            }
        }
    }

    impl<L: TypedLock, H: Chain> Over<L, H> {
        /// This node as the level step sees it. `L::INFO.waiter_hint`
        /// matches the node's `counter_waiters` by construction, and
        /// resolves the branch at monomorphization.
        #[inline]
        fn rung(&self) -> Rung<'_, L, AnyContext, Node> {
            let (node, counts_waiters) = (&*self.node, !L::INFO.waiter_hint);
            // SAFETY: `resolve` checked the kind of the node's lock,
            // which never changes, so this is `node.low` — the lock
            // `DynNode::rung` pairs with `node.meta` — by another name.
            unsafe { Rung::new(lock_of::<L>(node), &node.meta, counts_waiters, &node.obs) }
        }

        /// The node's high context as the type `H`'s lock takes.
        #[inline]
        fn high_ctx(any: &mut AnyContext) -> &mut Ctx<H> {
            // SAFETY: The cell was created by the high node's lock
            // (`DynNode::new`), whose kind `H::resolve` checked; neither
            // ever changes.
            unsafe { H::Lock::ctx_from_any(any).unwrap_unchecked() }
        }
    }

    impl<L: TypedLock, H: Chain> Chain for Over<L, H> {
        type Lock = L;

        fn resolve(node: &Arc<DynNode>) -> Option<Self> {
            L::from_any(&node.low)?;
            Some(Over {
                node: Arc::clone(node),
                lock: PhantomData,
                high: H::resolve(node.high.as_ref()?)?,
            })
        }

        #[inline]
        fn acquire_with<W: Wait>(
            &self,
            ctx: &mut L::Context,
            stripe: u32,
            wait: W,
            hook: &mut Recorder,
        ) -> bool {
            step::acquire_step(self.rung(), ctx, stripe, wait, hook, |high_ctx, hook| {
                let (high_ctx, slot) = (Self::high_ctx(high_ctx), self.node.slot);
                self.high.acquire_with(high_ctx, slot, wait, hook)
            })
        }

        #[inline]
        fn release(&self, ctx: &mut L::Context, hook: &mut Recorder) {
            step::release_step(self.rung(), ctx, hook, |high_ctx, hook| {
                self.high.release(Self::high_ctx(high_ctx), hook)
            });
        }
    }

    /// Declares the finalist set — the compositions `select` ships (the
    /// HC/LC winners from EXPERIMENTS.md) plus the homogeneous shapes
    /// the stress oracle leans on — as `Variant: [kinds] => chain type`,
    /// and derives from the one table: the per-lock [`FastTier`] (one
    /// pre-resolved chain per leaf), its resolution by composition, and
    /// the per-handle [`HandleInner`] with its dispatch.
    macro_rules! finalists {
        ($($variant:ident: [$($kind:ident),+] => $chain:ty;)+) => {
            pub(super) enum FastTier {
                $($variant(Vec<$chain>),)+
            }

            /// Dispatch state of one handle — the chain it enters, this
            /// thread's context for the chain's lowest level and its
            /// indicator stripe there — for the enum walk (`Generic`)
            /// or a typed finalist chain.
            pub(super) enum HandleInner {
                Generic {
                    chain: Arc<DynNode>,
                    ctx: AnyContext,
                    stripe: u32,
                },
                $($variant {
                    chain: $chain,
                    ctx: Ctx<$chain>,
                    stripe: u32,
                },)+
            }

            /// The only per-op dispatch: one match at the handle, not
            /// one per level transition.
            impl HandleInner {
                #[inline]
                pub(super) fn acquire_with<W: Wait>(
                    &mut self,
                    wait: W,
                    hook: &mut Recorder,
                ) -> bool {
                    match self {
                        HandleInner::Generic { chain, ctx, stripe } => {
                            chain.acquire_with(ctx, *stripe, wait, hook)
                        }
                        $(HandleInner::$variant { chain, ctx, stripe } => {
                            chain.acquire_with(ctx, *stripe, wait, hook)
                        })+
                    }
                }

                #[inline]
                pub(super) fn release(&mut self, hook: &mut Recorder) {
                    match self {
                        HandleInner::Generic { chain, ctx, .. } => chain.release_leaf(ctx, hook),
                        $(HandleInner::$variant { chain, ctx, .. } => chain.release(ctx, hook),)+
                    }
                }
            }

            impl FastTier {
                /// The typed tier for `locks` if it is a finalist shape;
                /// `None` keeps the enum dispatch.
                pub(super) fn resolve(
                    leaves: &[Arc<DynNode>],
                    locks: &[LockKind],
                ) -> Option<FastTier> {
                    match locks {
                        $([$(LockKind::$kind),+] => {
                            let chains = leaves.iter().map(<$chain>::resolve);
                            Some(FastTier::$variant(chains.collect::<Option<_>>()?))
                        })+
                        _ => None,
                    }
                }

                /// The typed handle state for leaf `leaf_idx`.
                pub(super) fn handle(&self, leaf_idx: usize, stripe: u32) -> HandleInner {
                    match self {
                        $(FastTier::$variant(chains) => HandleInner::$variant {
                            chain: chains[leaf_idx].clone(),
                            ctx: Default::default(),
                            stripe,
                        },)+
                    }
                }
            }
        };
    }

    finalists! {
        McsClhTkt: [Mcs, Clh, Ticket] => Over<McsLock, Over<ClhLock, Top<TicketLock>>>;
        ClhClhTkt: [Clh, Clh, Ticket] => Over<ClhLock, Over<ClhLock, Top<TicketLock>>>;
        ClhClhHem: [Clh, Clh, Hemlock] => Over<ClhLock, Over<ClhLock, Top<Hemlock>>>;
        TktTktTkt: [Ticket, Ticket, Ticket] => Over<TicketLock, Over<TicketLock, Top<TicketLock>>>;
        TktTkt: [Ticket, Ticket] => Over<TicketLock, Top<TicketLock>>;
        McsTkt: [Mcs, Ticket] => Over<McsLock, Top<TicketLock>>;
        ClhTkt: [Clh, Ticket] => Over<ClhLock, Top<TicketLock>>;
    }
}

/// A per-thread handle: the leaf entry point plus this thread's leaf
/// context, dispatched through the tier `handle()` selected.
pub struct DynHandle {
    inner: HandleInner,
    /// Also the recorder of a `FastClof` gate in front of the handle.
    pub(crate) rec: Recorder,
}

impl DynHandle {
    fn acquire_with<W: Wait>(&mut self, wait: W) -> bool {
        let inner = &mut self.inner;
        step::spanned(&mut self.rec, |rec| inner.acquire_with(wait, rec))
    }

    /// Acquires the composed lock.
    pub fn acquire(&mut self) {
        self.acquire_with(Block);
    }

    /// Deadline-bounded acquire: one *absolute* deadline bounds the
    /// whole climb, every level spending from the same budget. Returns
    /// `false` on timeout, with every partially-acquired level unwound
    /// — the handle is immediately reusable and no queue node, waiter
    /// count, or wait-graph edge survives the failed attempt.
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        self.acquire_with(deadline)
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
    pub fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
        self.try_acquire_until(std::time::Instant::now() + budget)
    }

    /// Releases the composed lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.rec.releasing();
        self.inner.release(&mut self.rec);
        self.rec.released();
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
    /// Re-homes, then acquires through the current placement's leaf. A
    /// timed-out attempt leaves the re-homed handle in place (the
    /// placement is still correct).
    fn acquire_with<W: Wait>(&mut self, wait: W) -> bool {
        let cpu = crate::cpu::cached_cpu(self.lock.cpu_to_leaf.len());
        if cpu != self.cpu {
            self.inner = self.lock.handle(cpu);
            self.cpu = cpu;
        }
        self.inner.acquire_with(wait)
    }

    /// Acquires the composed lock through the current placement's leaf.
    pub fn acquire(&mut self) {
        self.acquire_with(Block);
    }

    /// Deadline-bounded acquire through the current placement's leaf;
    /// see [`DynHandle::try_acquire_until`].
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        self.acquire_with(deadline)
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
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
        // And each tier on its own — as well as the static tree — makes
        // the same decisions for the same inputs.
        one_protocol_on_every_finalist(false);
    }

    /// What [`run_script`] and the clock-budget test drive: a handle of
    /// any adapter.
    trait ScriptHandle: Send + 'static {
        fn acquire(&mut self);
        fn release(&mut self);
        fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool;
    }

    macro_rules! script_handle {
        ($($bounds:tt)*) => {
            impl$($bounds)* {
                fn acquire(&mut self) {
                    Self::acquire(self);
                }
                fn release(&mut self) {
                    Self::release(self);
                }
                fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
                    Self::try_acquire_for(self, budget)
                }
            }
        };
    }
    script_handle!(ScriptHandle for DynHandle);
    script_handle!(<T: crate::HierLock> ScriptHandle for crate::ClofHandle<T>);

    /// One seeded single-threaded hand-off script, the same for every
    /// adapter: `handles[cpu]` enters at `cpu`'s leaf of `tiny` (leaf
    /// cohorts of 2, mid cohorts of 4), and consecutive owners are drawn
    /// so that they share a leaf, only a mid cohort, or only the root.
    ///
    /// With `timeouts`, every other section a second seeded CPU makes
    /// a bounded attempt while the lock is held: it wins every level
    /// below the one where the two paths meet, stalls there, times out
    /// and unwinds; `after_timeout` then
    /// inspects the lock, and the quitter is the next owner, which
    /// proves its handle reusable. A quitter that abandoned an MCS
    /// queue node is still counted by the holder's native waiter hint,
    /// so the holder's release takes the *pass* branch and the quitter
    /// inherits the high lock: on an MCS level the script reaches
    /// `keep_local`, and at threshold 3 its forced release-ups, without
    /// a second thread. Blocking and bounded acquires alternate, so
    /// both wait policies walk the same tree state.
    ///
    /// Returns the number of critical sections run, and of the bounded
    /// attempts made from a leaf other than the holder's: each of them
    /// won its own leaf before it gave up, and unwound it.
    fn run_script<H: ScriptHandle>(
        handles: &mut [H],
        timeouts: bool,
        after_timeout: &dyn Fn(),
    ) -> (u64, u64) {
        let tiny = platforms::tiny();
        let mut rng = clof_testkit::TestRng::new(0x0005_7E90_5C21_9700);
        let n = handles.len() as u64;
        let (mut sections, mut unwound) = (0, 0);
        let mut next_owner = None;
        for step in 0..96 {
            let cpu = next_owner.take().unwrap_or_else(|| rng.below(n) as usize);
            if timeouts && step % 4 == 1 {
                let long = std::time::Duration::from_secs(30);
                assert!(handles[cpu].try_acquire_for(long), "free lock timed out");
            } else {
                handles[cpu].acquire();
            }
            sections += 1;
            if timeouts && step % 2 == 0 {
                let quitter = (cpu + 1 + rng.below(n - 1) as usize) % handles.len();
                let short = std::time::Duration::from_micros(300);
                assert!(
                    !handles[quitter].try_acquire_for(short),
                    "cpu {quitter} acquired a lock cpu {cpu} holds"
                );
                if tiny.cohort(0, quitter) != tiny.cohort(0, cpu) {
                    unwound += 1;
                }
                after_timeout();
                next_owner = Some(quitter);
            }
            handles[cpu].release();
        }
        (sections, unwound)
    }

    /// The three adapters are one protocol: for every 3-level finalist
    /// shape, [`run_script`] through the static `build3` tree, typed
    /// handles and enum-tier handles takes the same decisions, and
    /// `stats()` reads the same counts from each.
    fn one_protocol_on_every_finalist(timeouts: bool) {
        use clof_locks::{ClhLock, Hemlock, McsLock, TicketLock};
        use LockKind::{Clh, Hemlock as Hem, Mcs, Ticket};
        one_protocol::<McsLock, ClhLock, TicketLock>([Mcs, Clh, Ticket], timeouts);
        one_protocol::<ClhLock, ClhLock, TicketLock>([Clh, Clh, Ticket], timeouts);
        one_protocol::<ClhLock, ClhLock, Hemlock>([Clh, Clh, Hem], timeouts);
        one_protocol::<TicketLock, TicketLock, TicketLock>([Ticket, Ticket, Ticket], timeouts);
    }

    fn one_protocol<L0, L1, L2>(kinds: [LockKind; 3], timeouts: bool)
    where
        L0: clof_locks::RawLock,
        L1: clof_locks::RawLock,
        L2: clof_locks::RawLock,
    {
        let h = platforms::tiny();
        let params = ClofParams {
            keep_local_threshold: 3,
        };
        let cpus = 0..h.ncpus();

        let check = |stats: &[LevelStats], (sections, unwound): (u64, u64)| {
            // Every section ends in exactly one release decision at the
            // leaf, whichever way it went, and every leaf acquisition
            // in a section or in an unwound attempt.
            assert_eq!(
                stats[0].passes + stats[0].releases_up,
                sections,
                "{stats:?}"
            );
            assert_eq!(stats[0].acquisitions, sections + unwound, "{stats:?}");
        };
        let stats_of = |generic: bool| {
            let lock = DynClofLock::build_with(&h, &kinds, params, false).unwrap();
            assert_eq!(lock.dispatch_tier(), DispatchTier::Monomorphized);
            let mut handles: Vec<DynHandle> = cpus
                .clone()
                .map(|cpu| lock.handle_on(cpu, lock.fast.as_ref().filter(|_| !generic)))
                .collect();
            let ran = run_script(&mut handles, timeouts, &|| {
                assert_eq!(
                    lock.queue_depth_hint(),
                    0,
                    "{}: a timed-out attempt left a waiter registered",
                    lock.name()
                );
            });
            let stats = lock.stats();
            check(&stats, ran);
            stats
        };
        let typed = stats_of(false);
        let generic = stats_of(true);
        assert_eq!(typed, generic, "dyn tiers diverge on {kinds:?}");
        if timeouts && kinds[0] == LockKind::Mcs {
            // Today an abandoned MCS node still counts as a waiter (see
            // `run_script`), which is what puts passes into this
            // single-threaded run.
            assert!(typed[0].passes > 0, "{typed:?}");
        }

        let tree = crate::compose::build3::<L0, L1, L2>(&h, params).unwrap();
        let mut handles: Vec<_> = cpus.map(|cpu| tree.handle(cpu)).collect();
        let ran = run_script(&mut handles, timeouts, &|| {});
        check(&tree.stats(), ran);
        assert_eq!(tree.stats(), typed, "static tree diverges on {kinds:?}");
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

    /// The clock budget: two reads per acquire→release — acquire entry
    /// and release entry — plus one per level that waited for a lock
    /// nobody passed (tracer off, as on the benchmark's path). Checked
    /// through both dyn tiers and the static tree's recorder.
    #[cfg(all(feature = "obs", debug_assertions))]
    #[test]
    fn clock_is_read_twice_per_critical_section() {
        use crate::compose::build3;
        use clof_locks::{ClhLock, McsLock, TicketLock};
        use clof_obs::clock_reads;
        use std::time::{Duration, Instant};

        /// Clock reads of one acquire→release by a thread on `cpu` while
        /// a handle on CPU 0 holds the lock for 20 ms, and how long that
        /// acquire took.
        fn behind_holder<H: ScriptHandle>(
            mk: &(impl Fn(usize) -> H + Sync),
            cpu: usize,
        ) -> (u64, Duration) {
            let mut holder = mk(0);
            holder.acquire();
            let mut handle = mk(cpu);
            let measured = std::thread::spawn(move || {
                let before = clock_reads();
                let start = Instant::now();
                handle.acquire();
                let waited = start.elapsed();
                handle.release();
                (clock_reads() - before, waited)
            });
            std::thread::sleep(Duration::from_millis(20));
            holder.release();
            measured.join().unwrap()
        }

        /// Clock reads of an acquire that inherits the tree at the leaf
        /// and hands it on at the leaf: CPU 0 holds while two CPU-1
        /// threads queue up, and the first of them is measured. Queueing
        /// order is not observable from outside, so the round repeats
        /// until the leaf's `stats()` show holder → measured → third as
        /// two passes, each consumed by the next.
        fn on_pass_path<H: ScriptHandle>(
            mk: &(impl Fn(usize) -> H + Sync),
            stats: impl Fn() -> Vec<LevelStats>,
        ) -> u64 {
            for _ in 0..50 {
                let mut holder = mk(0);
                holder.acquire();
                let (mut handle, mut third) = (mk(1), mk(1));
                let queued = Arc::new(AtomicUsize::new(0));
                let flag = Arc::clone(&queued);
                let measured = std::thread::spawn(move || {
                    flag.fetch_add(1, Ordering::Release);
                    let before = clock_reads();
                    handle.acquire();
                    // Give the third thread time to queue behind us.
                    std::thread::sleep(Duration::from_millis(20));
                    handle.release();
                    clock_reads() - before
                });
                while queued.load(Ordering::Acquire) < 1 {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
                let third = std::thread::spawn(move || {
                    third.acquire();
                    third.release();
                });
                std::thread::sleep(Duration::from_millis(20));
                let before = stats()[0].passes;
                holder.release();
                let reads = measured.join().unwrap();
                third.join().unwrap();
                if stats()[0].passes - before == 2 {
                    return reads;
                }
            }
            panic!("never got a waiter to inherit and pass");
        }

        /// All three budgets through handles made by `mk`.
        fn check<H: ScriptHandle>(
            tier: &str,
            mk: impl Fn(usize) -> H + Sync,
            stats: impl Fn() -> Vec<LevelStats>,
        ) {
            // Solo: nobody to inherit from or wait for, so every level is
            // climbed at the entry stamp.
            let mut handle = mk(0);
            let before = clock_reads();
            handle.acquire();
            handle.release();
            assert_eq!(clock_reads() - before, 2, "{tier}: solo full climb");

            assert_eq!(
                on_pass_path(&mk, stats),
                2,
                "{tier}: inherited acquire, pass release"
            );

            // CPU 4 shares no cohort with CPU 0 on `tiny`: its leaf and
            // mid levels are free, and only the root makes it wait.
            for _ in 0..50 {
                let (reads, waited) = behind_holder(&mk, 4);
                if waited >= Duration::from_millis(10) {
                    assert_eq!(reads, 3, "{tier}: climb queued at the root");
                    return;
                }
            }
            panic!("{tier}: the climber never queued behind the holder");
        }

        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        check("typed", |cpu| lock.handle(cpu), || lock.stats());
        check("generic", |cpu| lock.handle_generic(cpu), || lock.stats());
        let tree = build3::<McsLock, ClhLock, TicketLock>(&h, ClofParams::default()).unwrap();
        check("static", |cpu| tree.handle(cpu), || tree.stats());
    }

    /// One contended timeout cycle on `lock`: CPU 0 holds, CPU 1 times
    /// out, then — after the unwind — CPU 1 must win cleanly. Returns
    /// the timed-out attempt's elapsed wall time.
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
        // The same unwind at every level, through every adapter.
        one_protocol_on_every_finalist(true);
    }

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
