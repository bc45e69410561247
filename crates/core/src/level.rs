//! Per-cohort level metadata: the paper's `MetaData` (`d` in the grammar).
//!
//! Every composed lock extends its *low* lock with metadata used "to link
//! with the high lock and to pass locks among different levels"
//! (paper §4.1.1): a waiter read-indicator, the `has_high_lock` pass flag,
//! the `keep_local` counter, and the context through which this cohort
//! acquires/releases the high lock.
//!
//! # Memory layout
//!
//! The metadata is split by *who writes it*:
//!
//! * The read-indicator is **striped**: one 128-byte-aligned counter per
//!   child slot (sibling cohort below this node, or CPU within a leaf
//!   cohort). A waiter's `inc`/`dec` bracket touches only its own
//!   stripe, so concurrent arrivals from different children never
//!   contend on a cache line — the same core-local bookkeeping CNA and
//!   Fissile locks use to survive contention.
//! * Owner-written state (`has_high_lock`, the `keep_local` counter, the
//!   hand-off stamp, the release-decision counters, the high context)
//!   shares one padded block: it is only ever accessed by the current
//!   low-lock owner, so packing it densely is free while padding it
//!   keeps waiter traffic off it. Every release moves this line anyway
//!   (the pass flag is stored on both branches), so the counters ride
//!   it for nothing: no level keeps a counter on a line of its own.
//!
//! `has_waiters` (owner-only, off the waiters' critical path) sums the
//! stripes with an early-exit scan. Staleness stays tolerable exactly as
//! in §4.1.2: a missed waiter only causes an early high-lock release,
//! never a safety violation.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use clof_locks::{CachePadded, CACHE_LINE};

use crate::kind::AnyContext;

/// Upper bound on read-indicator stripes per level node.
///
/// Stripes cost one cache line each; past a handful the scan cost of
/// `has_waiters` outweighs the isolation win, so fan-ins larger than
/// this hash multiple children onto one stripe (`slot & mask`).
pub const MAX_WAITER_STRIPES: usize = 8;

/// Tunable parameters of a composed lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClofParams {
    /// `keep_local` threshold *H*: how many consecutive intra-cohort
    /// hand-offs are allowed before the high lock must be released to
    /// other cohorts. The paper uses `H = 128` per level by default and
    /// warns that excessive values hurt short-term fairness (§4.1.2).
    pub keep_local_threshold: u32,
}

impl Default for ClofParams {
    fn default() -> Self {
        ClofParams {
            keep_local_threshold: 128,
        }
    }
}

/// Spin budget (in backoff rounds) of a waiter at a level whose cohorts
/// span one CPU: the most local waiter spins longest before parking.
pub const BASE_SPIN_ROUNDS: u32 = 64;

/// Floor on any level's spin budget: even a machine-spanning top-level
/// waiter spins a few rounds first, so an imminent hand-off is still
/// caught without a syscall.
pub const MIN_SPIN_ROUNDS: u32 = 4;

/// Derives a level's spin budget from its topology distance.
///
/// `span` is the number of CPUs one cohort of the level covers
/// ([`cohort_span`](clof_topology::Hierarchy::cohort_span)). Leaf levels
/// (small span) hand off between cache-close CPUs in tens of
/// nanoseconds, so spinning the full budget is cheaper than a park/wake
/// round-trip; top levels span sockets, where a waiting slot is worth
/// the most CPU time and the hand-off latency dwarfs a futex wake — so
/// the budget shrinks inversely with span, clamped to
/// [[`MIN_SPIN_ROUNDS`], [`BASE_SPIN_ROUNDS`]].
///
/// Budgets count [`Backoff`](clof_locks::Backoff) *rounds* of at most 8
/// spin hints: 4 rounds are 15 hints, 32 are 239, and 64 are the whole
/// 255-hint spin phase plus 30 yields (when bursts doubled to 128: 15,
/// 127 + 25 yields, 255 + 56 yields).
pub fn spin_budget_for_span(span: usize) -> u32 {
    let span = span.max(1).min(u32::MAX as usize) as u32;
    (BASE_SPIN_ROUNDS / span).clamp(MIN_SPIN_ROUNDS, BASE_SPIN_ROUNDS)
}

/// One level's spin budget: backoff rounds a waiter spins on the level's
/// low lock before parking. Starts at
/// [`SPIN_FOREVER`](clof_locks::SPIN_FOREVER) until a builder installs a
/// topology-derived budget; runtime-tunable so `adapt` can carry the
/// waiting policy across hot-swaps. Without the `park` feature nothing
/// parks, so the cell is zero-sized and always reads `SPIN_FOREVER`.
#[derive(Debug)]
pub(crate) struct SpinBudget(#[cfg(feature = "park")] AtomicU32);

impl SpinBudget {
    pub(crate) fn new() -> Self {
        SpinBudget(
            #[cfg(feature = "park")]
            AtomicU32::new(clof_locks::SPIN_FOREVER),
        )
    }

    #[inline]
    pub(crate) fn get(&self) -> u32 {
        #[cfg(feature = "park")]
        return self.0.load(Ordering::Relaxed);
        #[cfg(not(feature = "park"))]
        clof_locks::SPIN_FOREVER
    }

    /// Relaxed is enough: in-flight waiters may use either value; the
    /// budget only shapes the spin/park trade-off, never correctness.
    #[inline]
    pub(crate) fn set(&self, rounds: u32) {
        #[cfg(feature = "park")]
        self.0.store(rounds, Ordering::Relaxed);
        #[cfg(not(feature = "park"))]
        let _ = rounds;
    }
}

/// Increments a counter only the current owner of some lock writes: a
/// plain load + store replaces the locked RMW, because successive
/// owners are ordered by that lock's release→acquire edge, which also
/// publishes the store. Readers get exact totals at quiescence and
/// approximate ones while the lock is in use.
#[inline]
pub(crate) fn bump_owned(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// When a level's low lock was last let go, as the releasing owner's
/// telemetry stamped it (nanoseconds on `clof_obs::now_ns`'s clock).
///
/// Lives beside the pass flag and is ordered the same way: the owner
/// stores it before the low release, the next owner loads it after its
/// low acquire, and the low lock's release→acquire edge between the two
/// makes `Relaxed` enough (§4.2.3). Only a telemetry hook touches it —
/// the `()` hook never loads or stores it, so a build without `obs`
/// pays nothing but the word.
#[derive(Debug, Default)]
pub struct HandoffStamp(AtomicU64);

impl HandoffStamp {
    /// The stamp the level's last releaser left (0 before any).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Stamps the release in progress; call before the low release.
    #[inline]
    pub fn set(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }
}

/// Owner-written metadata words; packed into one [`CachePadded`] block.
struct OwnerState<C> {
    /// The `has_high_lock` flag: set by `pass_high_lock`, cleared by
    /// `clear_high_lock`.
    high_held: AtomicBool,
    /// When the low lock was last let go (telemetry builds only).
    handoff: HandoffStamp,
    /// Consecutive local hand-offs since the high lock was last acquired
    /// or let go; drives `keep_local`.
    handovers: AtomicU32,
    /// Threshold *H* for `keep_local`.
    threshold: u32,
    /// Releases that passed the high lock within the cohort.
    passes: AtomicU64,
    /// Releases that let the high lock go to other cohorts.
    releases_up: AtomicU64,
    /// Releases up that found waiters: forced by `keep_local`.
    forced: AtomicU64,
    /// Bounded climbs that gave up above this level and let its low
    /// lock go plainly, with no pass or release-up decision.
    unwound: AtomicU64,
    /// Context used by whichever thread owns the low lock to operate the
    /// high lock. Exclusivity is not statically enforceable here — it is
    /// the **context invariant**: only the low-lock owner touches it, and
    /// ownership transfer happens through the low lock's release→acquire
    /// synchronization.
    high_ctx: UnsafeCell<C>,
    /// Detector for context-invariant violations; compiled in debug
    /// builds and whenever the `testkit` feature is on (the stress
    /// oracle's context-invariant checker, paper §4.1).
    #[cfg(any(debug_assertions, feature = "testkit"))]
    ctx_busy: AtomicBool,
}

// Layout contract: the owner block — for context-free compositions and
// for the dyn tiers' enum context alike, release-decision counters
// included — fits in one cache line, and a stripe owns exactly one.
const _: () = {
    assert!(std::mem::size_of::<CachePadded<OwnerState<()>>>() == CACHE_LINE);
    assert!(std::mem::align_of::<CachePadded<OwnerState<()>>>() == CACHE_LINE);
    assert!(std::mem::size_of::<CachePadded<OwnerState<AnyContext>>>() == CACHE_LINE);
    assert!(std::mem::size_of::<CachePadded<AtomicU32>>() == CACHE_LINE);
    assert!(MAX_WAITER_STRIPES.is_power_of_two());
};

/// Metadata attached to one cohort's low lock.
///
/// `C` is the *high* lock's context type; the cell is handed from owner to
/// owner of the low lock.
pub struct LevelMeta<C> {
    /// Striped read indicator: number of threads between `inc_waiters`
    /// and `dec_waiters` (paper §4.1.2, after Calciu et al.'s read
    /// indicator), sharded by child slot.
    stripes: Box<[CachePadded<AtomicU32>]>,
    /// `stripes.len() - 1`; stripe selection is `slot & stripe_mask`.
    stripe_mask: u32,
    /// Read-mostly (written only by tuning), so it lives outside the
    /// owner block and off the stripes.
    spin_budget: SpinBudget,
    /// Owner-only words, isolated from the waiter stripes.
    owner: CachePadded<OwnerState<C>>,
}

// SAFETY: `LevelMeta` acts like a mutex-protected cell for `C` (the low
// lock is the mutex); all other fields are atomics. `C: Send` suffices, as
// no `&C` is ever shared across threads concurrently.
unsafe impl<C: Send> Sync for LevelMeta<C> {}

impl<C: Default> LevelMeta<C> {
    /// Creates metadata with the given keep-local threshold and a single
    /// indicator stripe (fan-in 1).
    pub fn new(params: ClofParams) -> Self {
        Self::with_fanin(params, 1)
    }

    /// Creates metadata sized for `fanin` children (sibling cohorts or
    /// CPUs sharing a leaf): one indicator stripe per child slot, rounded
    /// up to a power of two and capped at [`MAX_WAITER_STRIPES`].
    pub fn with_fanin(params: ClofParams, fanin: usize) -> Self {
        Self::with_ctx(params, fanin, C::default())
    }
}

impl<C> LevelMeta<C> {
    /// [`with_fanin`](Self::with_fanin) around an explicit high-lock
    /// context, for context types picked at run time.
    pub fn with_ctx(params: ClofParams, fanin: usize, high_ctx: C) -> Self {
        let stripes = fanin
            .max(1)
            .next_power_of_two()
            .min(MAX_WAITER_STRIPES);
        LevelMeta {
            stripes: (0..stripes)
                .map(|_| CachePadded::new(AtomicU32::new(0)))
                .collect(),
            stripe_mask: stripes as u32 - 1,
            spin_budget: SpinBudget::new(),
            owner: CachePadded::new(OwnerState {
                high_held: AtomicBool::new(false),
                handoff: HandoffStamp::default(),
                handovers: AtomicU32::new(0),
                threshold: params.keep_local_threshold.max(1),
                passes: AtomicU64::new(0),
                releases_up: AtomicU64::new(0),
                forced: AtomicU64::new(0),
                unwound: AtomicU64::new(0),
                high_ctx: UnsafeCell::new(high_ctx),
                #[cfg(any(debug_assertions, feature = "testkit"))]
                ctx_busy: AtomicBool::new(false),
            }),
        }
    }

    /// `inc_waiters`: announce this thread is about to acquire the low
    /// lock. `slot` identifies the caller's child position (sibling
    /// cohort index, or CPU index within a leaf cohort) and selects the
    /// stripe; the matching [`dec_waiters`](Self::dec_waiters) must pass
    /// the same slot.
    ///
    /// All metadata accesses are intentionally `Relaxed`: the paper's
    /// VSync analysis found that every access introduced by the auxiliary
    /// functions of `lockgen` can be maximally relaxed as long as the
    /// basic locks keep their own barriers (§4.2.3) — the low lock's
    /// release→acquire edge orders metadata for the next owner, and the
    /// waiter counter tolerates staleness (a missed waiter only causes an
    /// early high-lock release, never a safety violation).
    #[inline]
    pub fn inc_waiters(&self, slot: u32) {
        self.stripe(slot).fetch_add(1, Ordering::Relaxed);
    }

    /// `dec_waiters`: the thread finished acquiring the low lock.
    #[inline]
    pub fn dec_waiters(&self, slot: u32) {
        self.stripe(slot).fetch_sub(1, Ordering::Relaxed);
    }

    #[inline]
    fn stripe(&self, slot: u32) -> &AtomicU32 {
        // SAFETY-free speed: the mask keeps the index in range by
        // construction (stripe count is a power of two).
        &self.stripes[(slot & self.stripe_mask) as usize]
    }

    /// `has_waiters`: is any thread of this cohort waiting on the low
    /// lock? Owner-only (release path), so the stripe scan is off the
    /// waiters' critical path; it exits at the first non-zero stripe.
    #[inline]
    pub fn has_waiters(&self) -> bool {
        self.stripes
            .iter()
            .any(|s| s.load(Ordering::Relaxed) > 0)
    }

    /// `has_high_lock`: did the previous owner pass the high lock to this
    /// cohort?
    #[inline]
    pub fn has_high_lock(&self) -> bool {
        self.owner.high_held.load(Ordering::Relaxed)
    }

    /// `pass_high_lock`: leave the high lock acquired for the next
    /// low-lock owner.
    #[inline]
    pub fn pass_high_lock(&self) {
        self.owner.high_held.store(true, Ordering::Relaxed);
    }

    /// `clear_high_lock`: the high lock is about to be released.
    #[inline]
    pub fn clear_high_lock(&self) {
        self.owner.high_held.store(false, Ordering::Relaxed);
    }

    /// The low lock's hand-off stamp, beside the pass flag.
    #[inline]
    pub(crate) fn handoff_stamp(&self) -> &HandoffStamp {
        &self.owner.handoff
    }

    /// `keep_local`: may the high lock stay in this cohort for one more
    /// hand-off?
    ///
    /// Increments the hand-off counter and returns `false` (resetting the
    /// counter) every `threshold` calls, bounding unfairness towards
    /// other cohorts exactly as HMCS does (§4.1.2).
    #[inline]
    pub fn keep_local(&self) -> bool {
        // Only the current low-lock owner calls this, so a plain load +
        // store replaces the locked RMW; the counter stays atomic only
        // because successive owners are different threads, and the low
        // lock's release→acquire edge publishes each owner's store to
        // the next.
        let n = self.owner.handovers.load(Ordering::Relaxed) + 1;
        if n >= self.owner.threshold {
            self.owner.handovers.store(0, Ordering::Relaxed);
            false
        } else {
            self.owner.handovers.store(n, Ordering::Relaxed);
            true
        }
    }

    /// Counts a release that passes the high lock (owner only).
    #[inline]
    pub(crate) fn count_pass(&self) {
        bump_owned(&self.owner.passes);
    }

    /// Counts a release that lets the high lock go (owner only).
    #[inline]
    pub(crate) fn count_release_up(&self) {
        bump_owned(&self.owner.releases_up);
    }

    /// Counts a release up that found waiters (owner only).
    #[inline]
    pub(crate) fn count_forced(&self) {
        bump_owned(&self.owner.forced);
    }

    /// Counts a bounded climb that gave up and let the low lock go
    /// plainly (owner only).
    #[inline]
    pub(crate) fn count_unwound(&self) {
        bump_owned(&self.owner.unwound);
    }

    /// The release decisions counted so far (all zero at a root).
    pub(crate) fn decisions(&self) -> Decisions {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let o = &self.owner;
        Decisions {
            passes: load(&o.passes),
            releases_up: load(&o.releases_up),
            forced: load(&o.forced),
            unwound: load(&o.unwound),
        }
    }

    /// The high-lock context cell. Only the level step dereferences it,
    /// and only while it owns this metadata's low lock (the context
    /// invariant; see `step.rs`).
    #[inline]
    pub(crate) fn high_ctx_ptr(&self) -> *mut C {
        self.owner.high_ctx.get()
    }

    /// Marks the high context busy (debug or `testkit` builds): panics
    /// on overlap, i.e. on a context-invariant violation.
    #[inline]
    pub fn debug_ctx_enter(&self) {
        #[cfg(any(debug_assertions, feature = "testkit"))]
        {
            let was = self.owner.ctx_busy.swap(true, Ordering::Relaxed);
            assert!(
                !was,
                "context invariant violated: concurrent use of a high-lock context"
            );
        }
    }

    /// Marks the high context idle again (debug or `testkit` builds).
    #[inline]
    pub fn debug_ctx_exit(&self) {
        #[cfg(any(debug_assertions, feature = "testkit"))]
        {
            self.owner.ctx_busy.store(false, Ordering::Relaxed);
        }
    }

    /// Current waiter-count snapshot summed over stripes (diagnostics).
    pub fn waiter_count(&self) -> u32 {
        self.stripes
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of indicator stripes (diagnostics / layout tests).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// This level's spin budget: rounds a waiter spins on the low lock
    /// before parking ([`SPIN_FOREVER`](clof_locks::SPIN_FOREVER) until
    /// a builder installs a topology-derived budget, and always without
    /// the `park` feature).
    #[inline]
    pub fn spin_budget(&self) -> u32 {
        self.spin_budget.get()
    }

    /// Retunes this level's spin budget at runtime (no effect without
    /// the `park` feature).
    #[inline]
    pub fn set_spin_budget(&self, rounds: u32) {
        self.spin_budget.set(rounds);
    }

    /// The configured keep-local threshold.
    pub fn threshold(&self) -> u32 {
        self.owner.threshold
    }
}

/// The release decisions the level step counts on a node's owner line
/// (see `OwnerState`): one node's, or a level's summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decisions {
    /// Releases that passed the high lock within the cohort.
    pub passes: u64,
    /// Releases that let the high lock go to other cohorts.
    pub releases_up: u64,
    /// Releases up that found waiters: forced by `keep_local`.
    pub forced: u64,
    /// Bounded climbs that gave up above the level and let it go.
    pub unwound: u64,
}

impl std::ops::AddAssign for Decisions {
    fn add_assign(&mut self, d: Decisions) {
        self.passes += d.passes;
        self.releases_up += d.releases_up;
        self.forced += d.forced;
        self.unwound += d.unwound;
    }
}

/// Per-level hand-off statistics of [`ClofTree::stats`](crate::ClofTree::stats)
/// and [`DynClofLock::stats`](crate::DynClofLock::stats), in every build.
///
/// Only release decisions are counted, by the level step on the owner
/// line its release already moves; acquisitions are derived. So the
/// counts are exact at quiescence, and an acquisition in flight is
/// counted at its release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Level index, 0 = innermost.
    pub level: usize,
    /// Low-lock acquisitions at this level: below the root, the passes,
    /// releases up and unwound bounded climbs that ended them; at the
    /// root of a taller tree, the releases up of the level below; in a
    /// 1-level lock, the count its handles keep at release.
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

    /// Every level's stats from its summed decisions, innermost first.
    /// The root of a taller tree is let go exactly when the level below
    /// releases up, so it keeps no counter; a 1-level lock has no level
    /// below, so it counts its acquisitions (`lone`).
    pub(crate) fn derive(levels: &[Decisions], lone: u64) -> Vec<LevelStats> {
        let mut out: Vec<LevelStats> = levels
            .iter()
            .enumerate()
            .map(|(level, d)| LevelStats {
                level,
                acquisitions: d.passes + d.releases_up + d.unwound,
                passes: d.passes,
                releases_up: d.releases_up,
            })
            .collect();
        match &mut out[..] {
            [only] => only.acquisitions = lone,
            [.., below, root] => root.acquisitions = below.releases_up,
            [] => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiter_counter_round_trips() {
        let meta: LevelMeta<()> = LevelMeta::new(ClofParams::default());
        assert!(!meta.has_waiters());
        meta.inc_waiters(0);
        meta.inc_waiters(0);
        assert!(meta.has_waiters());
        assert_eq!(meta.waiter_count(), 2);
        meta.dec_waiters(0);
        meta.dec_waiters(0);
        assert!(!meta.has_waiters());
    }

    #[test]
    fn stripes_scale_with_fanin_and_cap() {
        let m1: LevelMeta<()> = LevelMeta::new(ClofParams::default());
        assert_eq!(m1.stripe_count(), 1);
        let m3: LevelMeta<()> = LevelMeta::with_fanin(ClofParams::default(), 3);
        assert_eq!(m3.stripe_count(), 4);
        let m8: LevelMeta<()> = LevelMeta::with_fanin(ClofParams::default(), 8);
        assert_eq!(m8.stripe_count(), 8);
        let m64: LevelMeta<()> = LevelMeta::with_fanin(ClofParams::default(), 64);
        assert_eq!(m64.stripe_count(), MAX_WAITER_STRIPES);
        let m0: LevelMeta<()> = LevelMeta::with_fanin(ClofParams::default(), 0);
        assert_eq!(m0.stripe_count(), 1);
    }

    #[test]
    fn distinct_slots_hit_distinct_stripes() {
        let meta: LevelMeta<()> = LevelMeta::with_fanin(ClofParams::default(), 4);
        meta.inc_waiters(0);
        meta.inc_waiters(1);
        meta.inc_waiters(3);
        assert_eq!(meta.waiter_count(), 3);
        assert!(meta.has_waiters());
        // Slots beyond the stripe count wrap via the mask instead of
        // indexing out of bounds.
        meta.inc_waiters(7);
        assert_eq!(meta.waiter_count(), 4);
        for slot in [0, 1, 3, 7] {
            meta.dec_waiters(slot);
        }
        assert!(!meta.has_waiters());
        assert_eq!(meta.waiter_count(), 0);
    }

    #[test]
    fn any_single_stripe_is_visible() {
        // The early-exit scan must see a waiter regardless of which
        // stripe it registered on.
        let meta: LevelMeta<()> = LevelMeta::with_fanin(ClofParams::default(), 8);
        for slot in 0..8 {
            meta.inc_waiters(slot);
            assert!(meta.has_waiters(), "slot {slot} invisible");
            meta.dec_waiters(slot);
            assert!(!meta.has_waiters());
        }
    }

    #[test]
    fn pass_flag_toggles() {
        let meta: LevelMeta<()> = LevelMeta::new(ClofParams::default());
        assert!(!meta.has_high_lock());
        meta.pass_high_lock();
        assert!(meta.has_high_lock());
        meta.clear_high_lock();
        assert!(!meta.has_high_lock());
    }

    #[test]
    fn keep_local_honours_threshold() {
        let meta: LevelMeta<()> = LevelMeta::new(ClofParams {
            keep_local_threshold: 3,
        });
        assert!(meta.keep_local());
        assert!(meta.keep_local());
        assert!(!meta.keep_local()); // third call hits H = 3
        assert!(meta.keep_local()); // counter was reset
    }

    #[test]
    fn keep_local_denies_every_h_calls_over_long_runs() {
        // The load+store rewrite must preserve the H-bound shape: over
        // any window of `threshold` consecutive calls, at least one
        // returns false, and the denial pattern is exactly periodic for
        // a single-threaded caller.
        for threshold in [1u32, 2, 3, 7, 128] {
            let meta: LevelMeta<()> = LevelMeta::new(ClofParams {
                keep_local_threshold: threshold,
            });
            let calls = (threshold as usize) * 5 + 3;
            let results: Vec<bool> = (0..calls).map(|_| meta.keep_local()).collect();
            for window in results.windows(threshold as usize) {
                assert!(
                    window.iter().any(|kept| !kept),
                    "H={threshold}: window of {threshold} calls all kept local"
                );
            }
        }
    }

    #[test]
    fn threshold_of_one_never_keeps_local() {
        let meta: LevelMeta<()> = LevelMeta::new(ClofParams {
            keep_local_threshold: 1,
        });
        for _ in 0..5 {
            assert!(!meta.keep_local());
        }
    }

    #[test]
    fn zero_threshold_clamped_to_one() {
        let meta: LevelMeta<()> = LevelMeta::new(ClofParams {
            keep_local_threshold: 0,
        });
        assert_eq!(meta.threshold(), 1);
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "testkit"))]
    #[should_panic(expected = "context invariant violated")]
    fn debug_ctx_detects_overlap() {
        let meta: LevelMeta<()> = LevelMeta::new(ClofParams::default());
        meta.debug_ctx_enter();
        meta.debug_ctx_enter();
    }

    #[test]
    #[cfg(feature = "park")]
    fn spin_budget_defaults_to_forever_and_retunes() {
        let meta: LevelMeta<()> = LevelMeta::new(ClofParams::default());
        assert_eq!(meta.spin_budget(), clof_locks::SPIN_FOREVER);
        meta.set_spin_budget(32);
        assert_eq!(meta.spin_budget(), 32);
    }

    #[test]
    fn budget_derivation_shrinks_with_span() {
        assert_eq!(spin_budget_for_span(1), BASE_SPIN_ROUNDS);
        assert_eq!(spin_budget_for_span(2), 32);
        assert_eq!(spin_budget_for_span(8), 8);
        // Machine-spanning levels hit the floor, never zero.
        assert_eq!(spin_budget_for_span(64), MIN_SPIN_ROUNDS);
        assert_eq!(spin_budget_for_span(100_000), MIN_SPIN_ROUNDS);
        assert_eq!(spin_budget_for_span(0), BASE_SPIN_ROUNDS, "span clamped to 1");
        // Monotone non-increasing in span.
        let budgets: Vec<u32> = (1..=128).map(spin_budget_for_span).collect();
        assert!(budgets.windows(2).all(|w| w[0] >= w[1]));
    }
}
