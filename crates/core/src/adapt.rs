//! Online adaptive selection: hot-swapping a live composed lock.
//!
//! The paper's selection step (§5) picks the best composition *offline*;
//! this module makes the pick revisable at runtime. An [`AdaptiveLock`]
//! owns a live [`DynClofLock`] and can migrate every thread to a
//! different composition — a different tree, possibly on a different
//! dispatch tier — without ever breaking mutual exclusion or the §4.1
//! context invariant.
//!
//! # Handover protocol
//!
//! Three shared words drive the migration, all `SeqCst`:
//!
//! * `epoch` — a generation counter. Its parity selects which of two
//!   tree slots is current. The controller bumps it to *funnel* new
//!   acquirers to the incoming tree.
//! * `entrants` — two striped read-indicator sets (the PR-4 striping
//!   technique, one set per generation parity). A thread registers
//!   before acquiring and deregisters after releasing, so the set's
//!   occupancy is the *quiescence check* for the outgoing tree.
//! * `baton` — the generation that currently owns the right to run
//!   critical sections. Ownership moves to the incoming generation
//!   exactly once, by compare-exchange, and only at quiescence.
//!
//! Acquire: load `epoch` → register in that generation's entrant set →
//! re-check `epoch` (back out and retry if it moved — the Dekker-style
//! re-check makes the funnel airtight: a registration that passes it is
//! ordered before any flip that would drain it) → wait until `baton`
//! equals the admitted generation → acquire the generation's tree.
//!
//! Release: release the tree → deregister → if the epoch has moved past
//! the held generation and the outgoing entrant set is empty, hand the
//! baton over with `compare_exchange(old, old + 1)`. The controller
//! polls the same CAS so an *idle* lock (no releaser left to do the
//! hand-off) still migrates.
//!
//! Why this is safe: the baton never advances past generation `g` while
//! any `g`-entrant is registered, and a thread only enters a critical
//! section while holding its generation's tree *and* its generation
//! holds the baton. Mutual exclusion within a generation is the tree's
//! own; across generations it is the baton's. The last old-generation
//! owner's critical-section writes are published to the first
//! new-generation owner over the baton's release→acquire edge (CAS by
//! the releaser itself, or `SeqCst` dec → controller load → CAS). The
//! §4.1 context invariant is per-tree state, and no thread ever runs
//! one tree's protocol with another tree's contexts, so it holds across
//! the swap by construction.
//!
//! Everything here is additive: the default build compiles none of this
//! module, and an un-adapted `DynClofLock`'s hot path is untouched.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, RwLock};

use clof_locks::{chaos, Backoff, CachePadded};
use clof_topology::{CpuId, Hierarchy};

use crate::dynlock::{DispatchTier, DynClofLock, DynHandle};
use crate::error::ClofError;
use crate::kind::LockKind;
use crate::level::ClofParams;

/// Stripes per entrant set; matches the level-meta striping width.
const ENTRANT_STRIPES: usize = 8;

/// Testkit-only stall bound, in yields, for the baton/drain wait loops.
/// Real drains complete in microseconds; a protocol mutant that never
/// hands the baton over trips this instead of hanging the suite.
#[cfg(feature = "testkit")]
const STALL_BOUND: u32 = 1 << 16;

/// One unbounded handover wait (drain, baton): the workspace's shared
/// [`Backoff`] plus, under `testkit`, the stall bound.
#[derive(Default)]
struct HandoverWait {
    backoff: Backoff,
    #[cfg(feature = "testkit")]
    yields: u32,
}

impl HandoverWait {
    #[inline]
    fn relax(&mut self, _what: &str) {
        #[cfg(feature = "testkit")]
        if self.backoff.is_yielding() {
            self.yields += 1;
            assert!(
                self.yields < STALL_BOUND,
                "clof-adapt handover stalled: {_what}"
            );
        }
        self.backoff.snooze();
    }
}

/// One striped read-indicator set: occupancy of a generation.
///
/// Same cache-line striping as the level read indicators from the
/// striped-indicator work, but `SeqCst`: the migration argument is a
/// Dekker-style store-buffering pattern (register ∥ epoch flip), which
/// relaxed stripes would not support.
struct EntrantSet {
    stripes: [CachePadded<AtomicU64>; ENTRANT_STRIPES],
}

impl EntrantSet {
    fn new() -> Self {
        EntrantSet {
            stripes: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }
    }

    #[inline]
    fn register(&self, stripe: usize) {
        self.stripes[stripe].fetch_add(1, SeqCst);
    }

    #[inline]
    fn deregister(&self, stripe: usize) {
        self.stripes[stripe].fetch_sub(1, SeqCst);
    }

    /// Sum over stripes. Zero is trustworthy under the protocol's
    /// ordering: any registration that passed its epoch re-check is
    /// `SeqCst`-ordered before the flip, hence visible to every
    /// post-flip occupancy scan until its paired deregister — and a
    /// concurrent deregister means that thread already left its
    /// critical section, so treating it as gone is exactly right.
    fn occupancy(&self) -> u64 {
        self.stripes.iter().map(|s| s.load(SeqCst)).sum()
    }
}

/// Deliberately broken handover variants for the mutant-kill suite.
///
/// Each deletes one load-bearing step of the protocol; the schedule-
/// fuzzing oracle must catch every one of them with a named seed.
#[cfg(feature = "testkit")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMutant {
    /// The full protocol (control).
    None,
    /// The controller hands the baton over immediately after the epoch
    /// flip, skipping the quiescence drain entirely.
    SkipDrain,
    /// The release-side hand-off fires on *every* old-generation
    /// release during a migration (a plain store), instead of exactly
    /// once at quiescence via the guarded CAS — the flip is armed twice.
    DoubleArm,
    /// The epoch flips and the outgoing tree drains, but nobody ever
    /// transfers the baton: the swap "completes" without transferring
    /// ownership, wedging every incoming acquirer.
    NoHandoff,
}

#[cfg(feature = "testkit")]
impl MigrationMutant {
    fn from_u64(v: u64) -> Self {
        match v {
            1 => MigrationMutant::SkipDrain,
            2 => MigrationMutant::DoubleArm,
            3 => MigrationMutant::NoHandoff,
            _ => MigrationMutant::None,
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            MigrationMutant::None => 0,
            MigrationMutant::SkipDrain => 1,
            MigrationMutant::DoubleArm => 2,
            MigrationMutant::NoHandoff => 3,
        }
    }
}

/// Cumulative migration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Completed hand-overs.
    pub swaps: u64,
    /// Wall-clock nanoseconds of the most recent swap, from the build
    /// of the incoming tree to observed baton arrival.
    pub last_switch_ns: u64,
    /// Sum of all switch latencies (ns).
    pub total_switch_ns: u64,
}

impl MigrationStats {
    /// Mean switch latency in nanoseconds (0 when no swap happened).
    pub fn mean_switch_ns(&self) -> u64 {
        if self.swaps == 0 {
            0
        } else {
            self.total_switch_ns / self.swaps
        }
    }
}

/// A composed lock whose composition can be hot-swapped at runtime.
///
/// Wraps a live [`DynClofLock`]; [`swap_to`](Self::swap_to) migrates
/// every thread to a new composition via the epoch/quiescence handover
/// described in the module docs. Handles ([`AdaptHandle`]) follow the
/// migration automatically — including across dispatch tiers, because
/// each generation's tree resolves its own fast tier at build time and
/// handles are re-created per generation.
pub struct AdaptiveLock {
    hierarchy: Hierarchy,
    params: ClofParams,
    allow_unfair: bool,
    /// Generation counter; parity selects the current tree slot.
    epoch: AtomicU64,
    /// Generation that owns the right to run critical sections.
    baton: AtomicU64,
    /// Striped entrant indicators, one set per generation parity.
    entrants: [EntrantSet; 2],
    /// Tree slots by generation parity. The write lock is only taken by
    /// the (serialized) controller to install an incoming tree, always
    /// on the *other* parity than any admitted reader, so slot reads
    /// never block.
    slots: [RwLock<Arc<DynClofLock>>; 2],
    /// Serializes migrations: at most one in flight.
    swap_serial: Mutex<()>,
    swaps: AtomicU64,
    last_switch_ns: AtomicU64,
    total_switch_ns: AtomicU64,
    #[cfg(feature = "testkit")]
    mutant: AtomicU64,
}

impl AdaptiveLock {
    /// An adaptive lock starting at `kinds`, with default parameters
    /// and unfair components permitted (mirrors [`DynClofLock::build`]).
    ///
    /// # Errors
    ///
    /// Propagates composition errors from the initial tree build.
    #[track_caller]
    pub fn new(hierarchy: &Hierarchy, kinds: &[LockKind]) -> Result<Self, ClofError> {
        Self::with_params(hierarchy, kinds, ClofParams::default(), true)
    }

    /// [`new`](Self::new) with explicit tuning. `params` and
    /// `allow_unfair` apply to the initial tree and to every tree a
    /// later [`swap_to`](Self::swap_to) builds.
    ///
    /// # Errors
    ///
    /// Propagates composition errors from the initial tree build.
    #[track_caller]
    pub fn with_params(
        hierarchy: &Hierarchy,
        kinds: &[LockKind],
        params: ClofParams,
        allow_unfair: bool,
    ) -> Result<Self, ClofError> {
        let tree = Arc::new(DynClofLock::build_with(hierarchy, kinds, params, allow_unfair)?);
        Ok(AdaptiveLock {
            hierarchy: hierarchy.clone(),
            params,
            allow_unfair,
            epoch: AtomicU64::new(0),
            baton: AtomicU64::new(0),
            entrants: [EntrantSet::new(), EntrantSet::new()],
            // Both slots start at the generation-0 tree; parity 1 is
            // overwritten before it can ever be read as current.
            slots: [RwLock::new(Arc::clone(&tree)), RwLock::new(tree)],
            swap_serial: Mutex::new(()),
            swaps: AtomicU64::new(0),
            last_switch_ns: AtomicU64::new(0),
            total_switch_ns: AtomicU64::new(0),
            #[cfg(feature = "testkit")]
            mutant: AtomicU64::new(0),
        })
    }

    fn slot(&self, generation: u64) -> &RwLock<Arc<DynClofLock>> {
        &self.slots[(generation & 1) as usize]
    }

    fn entrants(&self, generation: u64) -> &EntrantSet {
        &self.entrants[(generation & 1) as usize]
    }

    /// A per-thread handle for a thread running on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics (on first acquire) if `cpu` is outside the hierarchy.
    pub fn handle(self: &Arc<Self>, cpu: CpuId) -> AdaptHandle {
        AdaptHandle {
            lock: Arc::clone(self),
            cpu,
            stripe: cpu % ENTRANT_STRIPES,
            generation: u64::MAX,
            inner: None,
            held: None,
        }
    }

    /// The tree currently receiving acquirers. Racy by nature (a swap
    /// may complete concurrently); meant for observation, not locking.
    pub fn current(&self) -> Arc<DynClofLock> {
        let generation = self.epoch.load(SeqCst);
        Arc::clone(&self.slot(generation).read().expect("slot poisoned"))
    }

    /// Current composition, innermost first.
    pub fn composition(&self) -> Vec<LockKind> {
        self.current().composition().to_vec()
    }

    /// Current composition name in the paper's notation.
    pub fn name(&self) -> String {
        self.current().name().to_string()
    }

    /// Dispatch tier of the current tree — swaps may move between
    /// [`DispatchTier::Monomorphized`] and [`DispatchTier::Generic`].
    pub fn dispatch_tier(&self) -> DispatchTier {
        self.current().dispatch_tier()
    }

    /// The current generation counter (bumped once per swap).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Cumulative migration statistics.
    pub fn migration_stats(&self) -> MigrationStats {
        MigrationStats {
            swaps: self.swaps.load(SeqCst),
            last_switch_ns: self.last_switch_ns.load(SeqCst),
            total_switch_ns: self.total_switch_ns.load(SeqCst),
        }
    }

    /// Telemetry snapshot of the *current* tree. Counters restart from
    /// zero on every swap (it is a new tree); `obs::Sampler` detects
    /// the reset and re-baselines instead of producing garbage deltas.
    #[cfg(feature = "obs")]
    pub fn obs_snapshot(&self) -> clof_obs::LockSnapshot {
        self.current().obs_snapshot()
    }

    /// The contention-profiler site id of the current generation's tree
    /// — stable across swaps, because every incoming tree adopts the
    /// outgoing one's site.
    #[cfg(feature = "obs")]
    pub fn site_id(&self) -> u32 {
        self.current().site_id()
    }

    /// The current contention-profile row for the lock's site.
    #[cfg(feature = "obs")]
    pub fn site_profile(&self) -> Option<clof_obs::SiteProfile> {
        self.current().site_profile()
    }

    /// Arms a deliberately broken handover for the mutant-kill suite.
    #[cfg(feature = "testkit")]
    pub fn set_migration_mutant(&self, mutant: MigrationMutant) {
        self.mutant.store(mutant.as_u64(), SeqCst);
    }

    #[cfg(feature = "testkit")]
    fn mutant(&self) -> MigrationMutant {
        MigrationMutant::from_u64(self.mutant.load(SeqCst))
    }

    /// Migrates the lock to `kinds`. Returns `Ok(false)` if the current
    /// composition already is `kinds` (no swap), `Ok(true)` after a
    /// completed hand-over. Blocks until the outgoing tree has drained
    /// and the baton has arrived at the incoming generation; concurrent
    /// `swap_to` calls serialize.
    ///
    /// # Errors
    ///
    /// Propagates composition errors from building the incoming tree;
    /// the live lock is untouched on error.
    pub fn swap_to(&self, kinds: &[LockKind]) -> Result<bool, ClofError> {
        let _serial = self
            .swap_serial
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let old = self.epoch.load(SeqCst);
        if *self.slot(old).read().expect("slot poisoned").composition() == *kinds {
            return Ok(false);
        }
        let started = std::time::Instant::now();
        let incoming = match DynClofLock::build_with(
            &self.hierarchy,
            kinds,
            self.params,
            self.allow_unfair,
        ) {
            Ok(lock) => Arc::new(lock),
            Err(e) => {
                #[cfg(feature = "obs")]
                clof_obs::audit::global().record(
                    0.0,
                    0.0,
                    old as u32,
                    old as u32,
                    0.0,
                    0,
                    clof_obs::audit::AuditReason::MigrationFailed,
                    0,
                );
                return Err(e);
            }
        };
        // Keep the contention-profiler site stable across the swap: the
        // incoming tree adopts the outgoing generation's site id (its
        // own provisional registration is released; the site label
        // follows the new composition). A failed build above never gets
        // here, so error paths leave the registry untouched.
        #[cfg(feature = "obs")]
        {
            let outgoing = self.slot(old).read().expect("slot poisoned");
            incoming.rebind_site_from(&outgoing);
        }
        // Carry the waiting policy across the swap: any runtime-retuned
        // spin budgets survive on the incoming tree (levels beyond the
        // shorter composition keep their own topology-derived defaults).
        #[cfg(feature = "park")]
        {
            let outgoing = self.slot(old).read().expect("slot poisoned");
            for (level, rounds) in outgoing.spin_budgets() {
                if level < incoming.composition().len() {
                    incoming.set_spin_budget(level, rounds);
                }
            }
        }
        let new = old + 1;
        *self.slot(new).write().expect("slot poisoned") = incoming;

        #[cfg(feature = "obs")]
        let flow = self.trace_migration_armed();

        // Funnel flip: from here on, every fresh acquirer registers for
        // (and queues on) the incoming tree.
        chaos::point("adapt-flip");
        self.epoch.store(new, SeqCst);

        #[cfg(feature = "testkit")]
        match self.mutant() {
            MigrationMutant::SkipDrain => {
                // MUTANT: transfer ownership immediately — no drain.
                self.baton.store(new, SeqCst);
                self.finish_swap(started);
                return Ok(true);
            }
            MigrationMutant::NoHandoff => {
                // MUTANT: drain, then walk away without the baton CAS
                // (nor will any releaser do it — the CAS is this same
                // protocol step). Incoming acquirers wedge.
                self.drain(old);
                self.finish_swap(started);
                return Ok(true);
            }
            MigrationMutant::DoubleArm | MigrationMutant::None => {}
        }

        // Quiescence drain: wait out every thread admitted to the old
        // generation. Their registrations are SeqCst-ordered before the
        // flip (the acquire-side re-check), so the occupancy scan
        // cannot miss one.
        self.drain(old);
        debug_assert_eq!(
            self.slot(old)
                .read()
                .expect("slot poisoned")
                .queue_depth_hint(),
            0,
            "outgoing tree still has queued waiters after the entrant drain"
        );
        // Hand-off, exactly once: the last releaser may already have
        // done it (its CAS and ours race benignly — one wins).
        chaos::point("adapt-handoff");
        let _ = self.baton.compare_exchange(old, new, SeqCst, SeqCst);
        self.await_baton(new);

        #[cfg(feature = "obs")]
        self.trace_migration_done(flow);

        self.finish_swap(started);
        // Audit the completed hand-over (generation indices + measured
        // switch latency) so `/snapshot` and `clof top` can show *when*
        // the lock migrated next to the policy decisions that caused it.
        #[cfg(feature = "obs")]
        clof_obs::audit::global().record(
            0.0,
            0.0,
            old as u32,
            new as u32,
            0.0,
            0,
            clof_obs::audit::AuditReason::MigrationDone,
            self.last_switch_ns.load(SeqCst),
        );
        Ok(true)
    }

    /// Spins until the old generation's entrant set is empty.
    fn drain(&self, old: u64) {
        let mut wait = HandoverWait::default();
        while self.entrants(old).occupancy() != 0 {
            chaos::point("adapt-drain");
            wait.relax("outgoing tree failed to drain");
        }
    }

    /// Spins until the baton reaches `generation`.
    fn await_baton(&self, generation: u64) {
        let mut wait = HandoverWait::default();
        while self.baton.load(SeqCst) != generation {
            wait.relax("baton never arrived at the incoming generation");
        }
    }

    fn finish_swap(&self, started: std::time::Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.last_switch_ns.store(ns, SeqCst);
        self.total_switch_ns.fetch_add(ns, SeqCst);
        self.swaps.fetch_add(1, SeqCst);
    }

    #[cfg(feature = "obs")]
    fn trace_migration_armed(&self) -> u64 {
        use clof_obs::trace;
        if !trace::is_enabled() {
            return 0;
        }
        let t = clof_obs::now_ns();
        let flow = trace::next_flow_id();
        trace::record(
            t,
            t,
            0,
            0,
            clof_obs::SpanKind::Migrate { complete: false },
            0,
            flow,
        );
        flow
    }

    #[cfg(feature = "obs")]
    fn trace_migration_done(&self, flow: u64) {
        use clof_obs::trace;
        if !trace::is_enabled() {
            return;
        }
        let t = clof_obs::now_ns();
        trace::record(
            t,
            t,
            0,
            0,
            clof_obs::SpanKind::Migrate { complete: true },
            flow,
            0,
        );
    }
}

impl std::fmt::Debug for AdaptiveLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveLock")
            .field("name", &self.name())
            .field("epoch", &self.epoch.load(SeqCst))
            .field("baton", &self.baton.load(SeqCst))
            .field("swaps", &self.swaps.load(SeqCst))
            .finish_non_exhaustive()
    }
}

/// Per-thread handle on an [`AdaptiveLock`].
///
/// Caches a [`DynHandle`] per generation and re-creates it when a swap
/// moves the lock — which is what lets one migration cross dispatch
/// tiers: each tree hands out its own best handle.
pub struct AdaptHandle {
    lock: Arc<AdaptiveLock>,
    cpu: CpuId,
    stripe: usize,
    /// Generation `inner` belongs to (`u64::MAX` before first use).
    generation: u64,
    inner: Option<DynHandle>,
    /// Generation this handle is currently holding (acquire..release).
    held: Option<u64>,
}

impl AdaptHandle {
    /// Registers as an entrant of the current generation and returns it,
    /// with `inner` a handle on that generation's tree. Never blocks:
    /// each lap is a handful of SeqCst operations.
    fn admit(&mut self) -> u64 {
        let mut backoff = Backoff::new();
        loop {
            let generation = self.lock.epoch.load(SeqCst);
            self.lock.entrants(generation).register(self.stripe);
            // Dekker re-check: if the epoch moved between the load and
            // the registration becoming visible, we may be registered
            // for a generation the controller is already draining past
            // — back out and retry against the fresh epoch.
            if self.lock.epoch.load(SeqCst) != generation {
                self.lock.entrants(generation).deregister(self.stripe);
                backoff.snooze();
                continue;
            }
            // Admitted: the controller now waits for us. The slot for
            // this parity cannot be replaced while we are registered.
            if self.generation != generation {
                let tree = Arc::clone(
                    &self.lock.slot(generation).read().expect("slot poisoned"),
                );
                self.inner = Some(tree.handle(self.cpu));
                self.generation = generation;
            }
            return generation;
        }
    }

    /// Blocks until the lock is held.
    ///
    /// # Panics
    ///
    /// Panics if the handle already holds the lock.
    pub fn acquire(&mut self) {
        assert!(self.held.is_none(), "AdaptHandle::acquire while held");
        let generation = self.admit();
        // Ownership gate: enter the tree only once this generation
        // holds the baton. The baton cannot move past `generation`
        // while we are registered, so this check cannot go stale.
        self.lock.await_baton(generation);
        chaos::point("adapt-enter");
        self.inner.as_mut().expect("handle built above").acquire();
        self.held = Some(generation);
    }

    /// Deadline-bounded [`acquire`](Self::acquire): admission is
    /// unchanged (it never blocks), and the two real waits — the baton
    /// gate and the tree acquire — spend one shared absolute budget. On
    /// timeout the entrant registration is backed out, including
    /// re-arming the quiescence hand-off if a migration moved past
    /// while we were registered: a timed-out entrant must never wedge a
    /// swap.
    ///
    /// # Panics
    ///
    /// Panics if the handle already holds the lock.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        assert!(
            self.held.is_none(),
            "AdaptHandle::try_acquire_until while held"
        );
        let generation = self.admit();
        // Bounded baton wait. Deliberately not a `HandoverWait`: its
        // testkit stall bound exists to flag unbounded waits, and this
        // wait is bounded by the deadline itself.
        let mut poll = clof_locks::DeadlinePoll::new(deadline, "adapt-baton");
        let mut backoff = Backoff::new();
        while self.lock.baton.load(SeqCst) != generation {
            if poll.expired() {
                // A baton bailout is a composition-layer abandon
                // (the tree attempt counts its own), and the whole
                // composed attempt expired without entering a tree,
                // so the timeout is counted here too.
                clof_locks::deadline::note_abandon();
                #[cfg(feature = "obs")]
                clof_obs::deadline::record_timeout();
                self.back_out(generation);
                return false;
            }
            backoff.snooze();
        }
        chaos::point("adapt-enter");
        if !self
            .inner
            .as_mut()
            .expect("handle built above")
            .try_acquire_until(deadline)
        {
            self.back_out(generation);
            return false;
        }
        self.held = Some(generation);
        true
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
        self.try_acquire_until(std::time::Instant::now() + budget)
    }

    /// Backs a timed-out entrant out of `generation`: deregister and —
    /// exactly as in [`release`](Self::release) — re-arm the hand-off
    /// if a migration is waiting on our departure. Without the CAS a
    /// timed-out entrant that was the last registered thread of a
    /// drained generation would leave the baton stranded and the
    /// incoming generation wedged.
    #[cfg(feature = "deadline")]
    fn back_out(&mut self, generation: u64) {
        self.lock.entrants(generation).deregister(self.stripe);
        if self.lock.epoch.load(SeqCst) != generation
            && self.lock.entrants(generation).occupancy() == 0
        {
            let _ = self
                .lock
                .baton
                .compare_exchange(generation, generation + 1, SeqCst, SeqCst);
        }
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not hold the lock.
    pub fn release(&mut self) {
        let generation = self.held.take().expect("AdaptHandle::release while not held");
        self.inner.as_mut().expect("held implies handle").release();
        chaos::point("adapt-release");
        self.lock.entrants(generation).deregister(self.stripe);
        if self.lock.epoch.load(SeqCst) != generation {
            // A migration has moved past us.
            #[cfg(feature = "testkit")]
            match self.lock.mutant() {
                MigrationMutant::DoubleArm => {
                    // MUTANT: every old-generation release arms the
                    // hand-off, unguarded — not just the last, not by CAS.
                    self.lock.baton.store(generation + 1, SeqCst);
                    return;
                }
                MigrationMutant::NoHandoff => {
                    // MUTANT: the transfer step is deleted wholesale —
                    // neither the controller nor the last releaser moves
                    // the baton, so the incoming generation wedges.
                    return;
                }
                _ => {}
            }
            // Hand the baton over if we were the last one out. The CAS
            // makes the transfer exactly-once even when the controller
            // observes the same quiescence concurrently.
            if self.lock.entrants(generation).occupancy() == 0 {
                let _ = self
                    .lock
                    .baton
                    .compare_exchange(generation, generation + 1, SeqCst, SeqCst);
            }
        }
    }

    /// The adaptive lock this handle belongs to.
    pub fn lock(&self) -> &Arc<AdaptiveLock> {
        &self.lock
    }
}

impl std::fmt::Debug for AdaptHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptHandle")
            .field("cpu", &self.cpu)
            .field("generation", &self.generation)
            .field("held", &self.held)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::regular(&[("l0", 2), ("l1", 4)], 8).unwrap()
    }

    const TKT3: [LockKind; 3] = [LockKind::Ticket, LockKind::Ticket, LockKind::Ticket];
    const MCT: [LockKind; 3] = [LockKind::Mcs, LockKind::Clh, LockKind::Ticket];
    const HEM3: [LockKind; 3] = [LockKind::Hemlock, LockKind::Hemlock, LockKind::Hemlock];

    #[test]
    fn idle_swap_completes_and_changes_composition() {
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        assert_eq!(lock.dispatch_tier(), DispatchTier::Monomorphized);
        assert!(lock.swap_to(&HEM3).unwrap());
        assert_eq!(lock.dispatch_tier(), DispatchTier::Generic);
        assert_eq!(lock.composition(), HEM3.to_vec());
        assert_eq!(lock.epoch(), 1);
        let stats = lock.migration_stats();
        assert_eq!(stats.swaps, 1);
        assert!(stats.last_switch_ns > 0);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn completed_swap_is_recorded_in_the_audit_ring() {
        let ring = clof_obs::audit::global();
        let before = ring.recorded();
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        assert!(lock.swap_to(&TKT3).unwrap());
        let done = ring
            .entries()
            .into_iter()
            .filter(|r| r.seq >= before)
            .find(|r| r.reason == clof_obs::audit::AuditReason::MigrationDone)
            .expect("swap must leave a MigrationDone audit record");
        assert_eq!((done.active, done.best), (0, 1), "generation indices");
        assert!(done.detail_ns > 0, "switch latency must be recorded");
        // A failed swap leaves a MigrationFailed record.
        let before = ring.recorded();
        assert!(lock.swap_to(&[LockKind::Ticket]).is_err());
        assert!(ring
            .entries()
            .into_iter()
            .filter(|r| r.seq >= before)
            .any(|r| r.reason == clof_obs::audit::AuditReason::MigrationFailed));
    }

    #[test]
    fn swap_to_same_composition_is_a_noop() {
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        assert!(!lock.swap_to(&MCT).unwrap());
        assert_eq!(lock.epoch(), 0);
        assert_eq!(lock.migration_stats().swaps, 0);
    }

    #[test]
    fn swap_to_bad_composition_leaves_lock_live() {
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        assert!(lock.swap_to(&[LockKind::Ticket]).is_err());
        assert_eq!(lock.epoch(), 0);
        let mut h = lock.handle(0);
        h.acquire();
        h.release();
    }

    #[test]
    fn counting_survives_concurrent_swaps() {
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        let counter = Arc::new(std::sync::Mutex::new(0u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let threads = 4;
        let iters = 2_000u64;
        let mut workers = Vec::new();
        for t in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            workers.push(std::thread::spawn(move || {
                let mut h = lock.handle(t * 2);
                for _ in 0..iters {
                    h.acquire();
                    *counter.lock().unwrap() += 1;
                    h.release();
                }
            }));
        }
        let swapper = {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let shapes: [&[LockKind]; 3] = [&TKT3, &HEM3, &MCT];
                let mut i = 0usize;
                let mut swaps = 0u64;
                while !stop.load(SeqCst) {
                    i = (i + 1) % shapes.len();
                    if lock.swap_to(shapes[i]).unwrap() {
                        swaps += 1;
                    }
                    std::thread::yield_now();
                }
                swaps
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, SeqCst);
        let swaps = swapper.join().unwrap();
        assert_eq!(*counter.lock().unwrap(), threads as u64 * iters);
        assert!(swaps > 0, "swapper must have migrated at least once");
        assert_eq!(lock.migration_stats().swaps, swaps);
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_timeout_leaves_adaptive_lock_usable() {
        use std::time::{Duration, Instant};
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        let mut holder = lock.handle(0);
        holder.acquire();
        let mut waiter = lock.handle(2);
        let start = Instant::now();
        assert!(!waiter.try_acquire_until(start + Duration::from_millis(40)));
        assert!(start.elapsed() < Duration::from_secs(5));
        holder.release();
        // The timed-out entrant deregistered: a swap can still drain.
        assert!(lock.swap_to(&TKT3).unwrap());
        assert!(waiter.try_acquire_until(Instant::now() + Duration::from_secs(10)));
        waiter.release();
        assert_eq!(lock.epoch(), 1);
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn timed_out_entrant_does_not_wedge_migration() {
        use std::time::{Duration, Instant};
        // Interleave timed-out acquisitions (some against a held lock)
        // with migrations: every bailout must back its registration out
        // and re-arm the hand-off when it leaves last, or `swap_to`'s
        // drain would stall (the testkit stall bound would fire).
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut workers = Vec::new();
        for t in 0..3usize {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                let mut h = lock.handle(t * 2);
                while !stop.load(SeqCst) {
                    // Short budgets force frequent baton/tree timeouts
                    // under contention from the sibling workers.
                    if h.try_acquire_until(Instant::now() + Duration::from_micros(200)) {
                        std::hint::spin_loop();
                        h.release();
                    }
                }
            }));
        }
        let shapes: [&[LockKind]; 3] = [&TKT3, &HEM3, &MCT];
        let mut swaps = 0u64;
        for i in 0..30 {
            if lock.swap_to(shapes[i % shapes.len()]).unwrap() {
                swaps += 1;
            }
        }
        stop.store(true, SeqCst);
        for w in workers {
            w.join().unwrap();
        }
        assert!(swaps > 0);
        assert_eq!(lock.migration_stats().swaps, swaps);
        // Quiesced: a plain acquire still works on the final tree.
        let mut h = lock.handle(0);
        h.acquire();
        h.release();
    }

    #[test]
    fn handle_follows_generations_across_tiers() {
        let lock = Arc::new(AdaptiveLock::new(&hierarchy(), &MCT).unwrap());
        let mut h = lock.handle(3);
        h.acquire();
        h.release();
        lock.swap_to(&HEM3).unwrap();
        h.acquire();
        h.release();
        lock.swap_to(&TKT3).unwrap();
        h.acquire();
        h.release();
        assert_eq!(lock.epoch(), 2);
    }
}
