//! Telemetry, spelled once: the only module of this crate that knows
//! whether the `obs` feature is compiled in.
//!
//! Every adapter — the static tree, both dyn tiers and the `FastClof`
//! gate — reports to one [`Recorder`] per handle: the level step's
//! decisions through [`Hook`](crate::step::Hook), the handle's acquire
//! → release cycle through [`Span`](crate::step::Span), and what the
//! step does not see (the gate, the adaptation layer's migrations)
//! through [`Telemetry`], whose events default to nothing. Each lock
//! keeps one [`Lock`] — its profiler site and the registry of its
//! handles' shards — each node one [`Node`], its identity in traces and
//! profiles, and each `FastClof` handle one [`GateWin`].
//!
//! Without `obs` all four are `()`: the hooks are the step's empty
//! defaults, and the instrumented sites compile to nothing. With it the
//! recorder writes what the acquire side sees into its handle's
//! [`clof_obs::Shard`], and the lock's [`clof_obs::ShardSet`] reads the
//! release decisions from the nodes' owner lines through the walk
//! `stats()` does. The recorder reads the clock twice per
//! acquire→release — at acquire entry and at release entry — plus once
//! per level that waited for a lock nobody passed; every other level is
//! won at a stamp already taken (DESIGN §8). Inside the critical
//! section it only stashes; [`Span::released`](crate::step::Span)
//! folds the stash in after the low lock is free.

use std::panic::Location;

use crate::level::Decisions;

/// The recorder every adapter's handle reports to: `()` without `obs`.
/// `cfg!` makes the feature the parameter of [`Build`], so this line is
/// the one place the choice is made.
pub type Recorder = <Build<{ cfg!(feature = "obs") }> as Select>::Recorder;

/// A node's identity in traces and profiles: `()` without `obs`.
pub type Node = <Recorder as Telemetry>::Node;

/// A lock's profiler site and shard registry: `()` without `obs`.
pub type Lock = <Recorder as Telemetry>::Lock;

/// What a `FastClof` handle remembers of its last gate win: `()`
/// without `obs`.
pub type GateWin = <Recorder as Telemetry>::GateWin;

/// Picks the recorder of a build with (`true`) or without `obs`.
pub struct Build<const OBS: bool>;

/// The recorder a [`Build`] picks.
pub trait Select {
    /// The picked recorder.
    type Recorder: Telemetry;
}

impl Select for Build<false> {
    type Recorder = ();
}

/// What a lock's builder tells its telemetry beyond its label, shape
/// and caller, computed only by a build that records.
pub struct Site<I, D> {
    /// Per level, innermost first: whether its low lock hints waiters
    /// natively, so its release asked the hint at every decision.
    pub hints: Vec<bool>,
    /// Every node of the tree once, with its level.
    pub nodes: I,
    /// The walk `stats()` does: each level's release decisions and what
    /// a 1-level lock's only node counted.
    pub decisions: D,
}

/// The profiler's topology shape line: the CPU count, then the cohort
/// count of each level, innermost first (e.g. `8cpu/4-2-1`).
pub fn shape(hierarchy: &clof_topology::Hierarchy) -> String {
    let cohorts: Vec<String> = (0..hierarchy.level_count())
        .map(|l| hierarchy.cohort_count(l).to_string())
        .collect();
    format!("{}cpu/{}", hierarchy.ncpus(), cohorts.join("-"))
}

/// How a recorder's parts are built, and the events the level step does
/// not see. The events default to nothing, which is all `()` does.
pub trait Telemetry: Sized {
    /// Per node.
    type Node;
    /// Per lock.
    type Lock;
    /// Per `FastClof` handle, beside its composition handle's recorder:
    /// kept out of the recorder, which every handle of every lock
    /// carries.
    type GateWin: Default;

    /// A node at `level` (0 = innermost).
    fn node(level: usize) -> Self::Node;

    /// A lock built at `caller`, named `label` in the profiler, over a
    /// topology of the given [`shape`], and described by `site`.
    fn lock<'a, I, D>(
        label: &str,
        shape: &str,
        caller: &'static Location<'static>,
        site: impl FnOnce() -> Site<I, D>,
    ) -> Self::Lock
    where
        I: Iterator<Item = (usize, &'a Self::Node)>,
        D: Fn() -> (Vec<Decisions>, u64) + Send + Sync + 'static,
        Self::Node: 'a;

    /// A handle on `lock` whose `path` hands the visitor its leaf → root
    /// nodes.
    fn handle(lock: &Self::Lock, path: impl FnOnce(&mut dyn FnMut(&Self::Node))) -> Self;

    /// Names `lock` `label` in the profiler.
    fn relabel(_lock: &Self::Lock, _label: std::fmt::Arguments<'_>) {}

    /// Entering the `FastClof` gate's acquire; returns the gate wait's
    /// start stamp.
    fn gate_entered(&mut self) -> u64 {
        0
    }

    /// The gate was won, on the fast path or through the composition;
    /// `win` remembers it for the release.
    fn gate_won(&mut self, _win: &mut Self::GateWin, _start: u64, _fast: bool) {}

    /// The gate `win` is being released.
    fn gate_released(&mut self, _win: &Self::GateWin) {}

    /// An adaptation swap at `generation` failed to build its tree.
    fn migration_failed(_generation: u64) {}

    /// The swap's incoming tree takes over the outgoing one's site.
    fn migration_adopted(_incoming: &crate::DynClofLock, _outgoing: &crate::DynClofLock) {}

    /// The swap is armed; returns the flow id that links it to its
    /// completion.
    fn migration_armed() -> u64 {
        0
    }

    /// The swap from generation `from` to `to`, armed as `flow`,
    /// completed in `switch_ns`.
    fn migration_done(_flow: u64, _from: u64, _to: u64, _switch_ns: u64) {}
}

impl Telemetry for () {
    type Node = ();
    type Lock = ();
    type GateWin = ();

    fn node(_level: usize) {}

    fn lock<'a, I, D>(
        _label: &str,
        _shape: &str,
        _caller: &'static Location<'static>,
        _site: impl FnOnce() -> Site<I, D>,
    ) where
        I: Iterator<Item = (usize, &'a ())>,
    {
    }

    fn handle(_lock: &(), _path: impl FnOnce(&mut dyn FnMut(&()))) {}
}

#[cfg(feature = "obs")]
mod on {
    use std::sync::Arc;

    use clof_obs::trace::{self, NodeTrack, SpanKind};
    use clof_obs::{audit, now_ns, registry};
    use clof_obs::{LevelSnapshot, LockSnapshot, Shard, ShardSet, SiteProfile};

    use super::{Build, Location, Select, Site, Telemetry};
    use crate::level::{Decisions, HandoffStamp, LevelStats};
    use crate::step::{Hook, Span, Won};
    use crate::{DynClofLock, FastClof};

    impl Select for Build<true> {
        type Recorder = Recorder;
    }

    /// A handle's recorder: its shard and its lock's shard set; plus the
    /// tracer spans.
    #[derive(Debug)]
    pub struct Recorder {
        shard: Arc<Shard>,
        set: Arc<ShardSet>,
    }

    /// A `FastClof` gate win: whether it was fast, and when.
    #[derive(Debug, Default)]
    pub struct GateWin {
        fast: bool,
        at: u64,
    }

    impl Telemetry for Recorder {
        type Node = NodeTrack;
        type Lock = Arc<ShardSet>;
        type GateWin = GateWin;

        fn node(level: usize) -> NodeTrack {
            NodeTrack::new(level)
        }

        fn lock<'a, I, D>(
            label: &str,
            shape: &str,
            caller: &'static Location<'static>,
            site: impl FnOnce() -> Site<I, D>,
        ) -> Arc<ShardSet>
        where
            I: Iterator<Item = (usize, &'a NodeTrack)>,
            D: Fn() -> (Vec<Decisions>, u64) + Send + Sync + 'static,
        {
            // The first recording lock in the process wires the
            // parked-duration recorder into the profiler.
            #[cfg(feature = "park")]
            park::install();
            let anchor = Arc::new(registry::global().register_at(label, shape, caller));
            let Site {
                hints,
                nodes,
                decisions,
            } = site();
            let tags = nodes.map(|(level, node)| (level as u8, node.tag()));
            let counts = move |levels: &mut [LevelSnapshot]| {
                let (decisions, lone) = decisions();
                let stats = LevelStats::derive(&decisions, lone);
                let sources = stats.iter().zip(&decisions).zip(&hints);
                for (at, ((s, d), &hint)) in levels.iter_mut().zip(sources) {
                    at.acquires = s.acquisitions;
                    at.passes_taken = s.passes;
                    at.passes_declined = s.releases_up;
                    at.keep_local_resets = d.forced;
                    at.hint_fast_hits = if hint { s.passes + s.releases_up } else { 0 };
                }
            };
            ShardSet::new(anchor, tags, Box::new(counts))
        }

        fn handle(lock: &Arc<ShardSet>, path: impl FnOnce(&mut dyn FnMut(&NodeTrack))) -> Self {
            let mut tags = Vec::new();
            path(&mut |node| tags.push(node.tag()));
            Recorder {
                shard: lock.shard(&tags),
                set: Arc::clone(lock),
            }
        }

        fn relabel(lock: &Arc<ShardSet>, label: std::fmt::Arguments<'_>) {
            registry::global().relabel(lock.site().id(), &label.to_string());
        }

        /// Timestamps the gate wait.
        #[inline]
        fn gate_entered(&mut self) -> u64 {
            now_ns()
        }

        /// A fast win took the gate on its first attempt: it waited for
        /// nothing, so it is won at the entry stamp and the fast path
        /// reads the clock twice per acquire→release. Its wait and hold
        /// go to the shard's gate pair; a slow win's are the
        /// composition's, recorded by the acquire it queued through.
        #[inline]
        fn gate_won(&mut self, win: &mut GateWin, start: u64, fast: bool) {
            let at = if fast { start } else { now_ns() };
            *win = GateWin { fast, at };
            if fast {
                self.shard.gate_won(at.saturating_sub(start));
            }
            // No `Hold` span: a slow win holds the composition while it
            // spins on the gate, so a gate hold would overlap the
            // composition's own and break the analyzer's total order.
            if trace::is_enabled() {
                trace::record(start, at, 0, 0, SpanKind::Gate { fast }, 0, 0);
            }
        }

        #[inline]
        fn gate_released(&mut self, win: &GateWin) {
            if win.fast {
                self.shard.gate_held(now_ns().saturating_sub(win.at));
            }
        }

        fn migration_failed(generation: u64) {
            let g = generation as u32;
            let reason = audit::AuditReason::MigrationFailed;
            audit::global().record(0.0, 0.0, g, g, 0.0, 0, reason, 0);
        }

        fn migration_adopted(incoming: &DynClofLock, outgoing: &DynClofLock) {
            incoming.rebind_site_from(outgoing);
        }

        fn migration_armed() -> u64 {
            if !trace::is_enabled() {
                return 0;
            }
            let (t, flow) = (now_ns(), trace::next_flow_id());
            trace::record(t, t, 0, 0, SpanKind::Migrate { complete: false }, 0, flow);
            flow
        }

        /// The audit record carries the generations and the measured
        /// switch latency, so `clof adapt` can show *when* the lock
        /// migrated next to the policy decisions that caused it.
        fn migration_done(flow: u64, from: u64, to: u64, switch_ns: u64) {
            if trace::is_enabled() {
                let t = now_ns();
                trace::record(t, t, 0, 0, SpanKind::Migrate { complete: true }, flow, 0);
            }
            let reason = audit::AuditReason::MigrationDone;
            audit::global().record(0.0, 0.0, from as u32, to as u32, 0.0, 0, reason, switch_ns);
        }
    }

    impl Span for Recorder {
        #[inline]
        fn enter(&mut self) {
            let now = now_ns();
            self.shard.enter(now);
            // Parks can only happen while waiting; publish the site so
            // the parked-duration recorder can attribute the episode.
            #[cfg(feature = "park")]
            park::enter_wait(self.set.site().id());
        }

        #[inline]
        fn acquired(&mut self) {
            #[cfg(feature = "park")]
            park::exit_wait();
        }

        /// Nothing was acquired: the levels won and unwound still count.
        #[inline]
        fn abandoned(&mut self) {
            #[cfg(feature = "park")]
            park::exit_wait();
            self.shard.abandon();
        }

        #[inline]
        fn releasing(&mut self) {
            let now = now_ns();
            self.shard.releasing(now);
            if trace::is_enabled() {
                trace::record(self.shard.acquired_ns(), now, 0, 0, SpanKind::Hold, 0, 0);
            }
        }

        /// The low lock is free, so the bookkeeping below is on
        /// nobody's critical path.
        #[inline]
        fn released(&mut self) {
            self.shard.commit();
        }
    }

    impl Hook<NodeTrack> for Recorder {
        const READS_WAITED: bool = true;

        #[inline]
        fn level_won(&mut self, node: &NodeTrack, won: Won<'_>) {
            let (start, at) = if won.clocked() {
                let now = now_ns();
                (self.shard.level_won(now, false), now)
            } else {
                self.shard.level_won_stamped(won.stamp.get(), won.inherited)
            };
            if trace::is_enabled() {
                node.wait_span(start, at, won.inherited);
            }
        }

        #[inline]
        fn pass(&mut self, node: &NodeTrack) {
            if trace::is_enabled() {
                node.pass_span(self.shard.released_ns());
            }
        }

        #[inline]
        fn release_up(&mut self, node: &NodeTrack, forced: bool) {
            if trace::is_enabled() {
                node.release_up_span(self.shard.released_ns(), forced);
            }
        }

        /// Ownership changes hands at the release stamp: the next owner
        /// of this low lock starts its hold (or its wait's end) there.
        #[inline]
        fn letting_go(&mut self, _node: &NodeTrack, stamp: &HandoffStamp) {
            stamp.set(self.shard.released_ns());
        }
    }

    impl Drop for Recorder {
        fn drop(&mut self) {
            self.set.retire(&self.shard);
        }
    }

    impl DynClofLock {
        /// Full telemetry snapshot: per-level counts (those of
        /// [`stats`](Self::stats)) and acquire-latency histograms, and
        /// the whole-lock hold-time histogram — the histograms summed
        /// over the shards of this lock's handles, live and dropped;
        /// everything
        /// [`clof_obs::render_json`]/[`clof_obs::render_prometheus`] and
        /// the `Display` impl consume. Exact at quiescence; a handle's
        /// acquire→release in flight is counted once its release has
        /// returned.
        pub fn obs_snapshot(&self) -> LockSnapshot {
            self.obs.lock_snapshot(self.name())
        }

        /// This lock's contention-profiler site id in the process-global
        /// [`clof_obs::registry`] ([`clof_obs::INVALID_SITE`] if the
        /// table was full at construction). Stable across adaptation
        /// swaps once [`Self::rebind_site_from`] has run.
        pub fn site_id(&self) -> u32 {
            self.obs.site().id()
        }

        /// The current contention-profile row for this lock's site: wait
        /// and hold attribution, traffic, and the per-(level, node)
        /// breakdown. `None` when the site table was full at
        /// construction.
        pub fn site_profile(&self) -> Option<SiteProfile> {
            let id = self.site_id();
            let sites = clof_obs::profile::global().snapshot().sites;
            sites.into_iter().find(|s| s.id == id)
        }

        /// Adopts `outgoing`'s profiler site so an adaptation swap keeps
        /// a stable site id: this lock's provisional registration is
        /// released, the adopted site's generation is bumped, its label
        /// updated to this composition, and what this tree's handles
        /// record follows it onto the adopted id. No-op when
        /// `outgoing`'s site is dead or already this lock's own.
        pub fn rebind_site_from(&self, outgoing: &DynClofLock) {
            let before = self.site_id();
            self.obs.site().rebind(outgoing.obs.site(), self.name());
            if self.site_id() != before {
                self.obs.attach();
            }
        }
    }

    impl FastClof {
        /// Telemetry snapshot of the slow path (the composition); the TAS
        /// gate itself contributes only [`Self::path_counters`]. The
        /// snapshot's name carries the `tas+` prefix so exports
        /// distinguish the fast-path variant.
        pub fn obs_snapshot(&self) -> LockSnapshot {
            let mut snap = self.slow.obs_snapshot();
            snap.name = self.name();
            snap
        }

        /// The contention-profiler site id shared with the slow
        /// composition (labelled `tas+…` in the registry).
        pub fn site_id(&self) -> u32 {
            self.slow.site_id()
        }

        /// The current contention-profile row for this lock's site.
        pub fn site_profile(&self) -> Option<SiteProfile> {
            self.slow.site_profile()
        }
    }

    #[cfg(feature = "adapt")]
    impl crate::AdaptiveLock {
        /// Telemetry snapshot of the *current* tree. Counters restart
        /// from zero on every swap (it is a new tree); `obs::Sampler`
        /// detects the reset and re-baselines instead of producing
        /// garbage deltas.
        pub fn obs_snapshot(&self) -> LockSnapshot {
            self.current().obs_snapshot()
        }

        /// The contention-profiler site id of the current generation's
        /// tree — stable across swaps, because every incoming tree
        /// adopts the outgoing one's site.
        pub fn site_id(&self) -> u32 {
            self.current().site_id()
        }

        /// The current contention-profile row for the lock's site.
        pub fn site_profile(&self) -> Option<SiteProfile> {
            self.current().site_profile()
        }
    }

    /// Wires the `clof-locks` parked-duration recorder hook into the
    /// profiler.
    ///
    /// The locks crate is dependency-free, so its waiting layer exposes
    /// a bare function-pointer hook instead of calling telemetry
    /// directly: [`install`] points it at the per-site park time of the
    /// [`ContentionProfile`](clof_obs::profile::ContentionProfile). Site
    /// attribution rides a thread-local: the composed acquire publishes
    /// its profiler site id before it starts waiting ([`enter_wait`])
    /// and clears it once the lock is held ([`exit_wait`]) — a park can
    /// only happen in between, so the recorder reads the thread-local to
    /// attribute the episode to the right site. Process-wide park and
    /// wake counts are `clof_locks::park::{parks, wakes}`.
    #[cfg(feature = "park")]
    mod park {
        use std::cell::Cell;
        use std::sync::Once;

        use clof_obs::registry::INVALID_SITE;

        thread_local! {
            /// The profiler site this thread is currently waiting at
            /// ([`INVALID_SITE`] outside a composed acquire).
            static CURRENT_SITE: Cell<u32> = const { Cell::new(INVALID_SITE) };
        }

        /// Installs the parked-duration recorder (idempotent, first
        /// caller wins — called from every recording lock's builder).
        pub(super) fn install() {
            static ONCE: Once = Once::new();
            ONCE.call_once(|| clof_locks::park::set_parked_recorder(Some(on_parked)));
        }

        /// Publishes the site id this thread is about to wait at.
        #[inline]
        pub(super) fn enter_wait(site: u32) {
            CURRENT_SITE.with(|s| s.set(site));
        }

        /// Clears the published site (the acquire completed; any later
        /// park would belong to a different site).
        #[inline]
        pub(super) fn exit_wait() {
            CURRENT_SITE.with(|s| s.set(INVALID_SITE));
        }

        fn on_parked(ns: u64) {
            // INVALID_SITE attribution is dropped by the profiler's id
            // guard.
            clof_obs::profile::global().record_park(CURRENT_SITE.with(Cell::get), ns);
        }
    }
}
