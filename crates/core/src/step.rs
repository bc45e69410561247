//! The §4.1 level step — `lockgen` for `CLoF(l, L)`, paper Figure 8 —
//! written once.
//!
//! The paper's correctness argument is one model-checked induction
//! step over an already-correct high lock:
//!
//! * **acquire**: waiter bracket → low acquire → inspect the pass flag
//!   → climb only if the high lock was not passed;
//! * **release**: `has_waiters ∧ keep_local` → set the pass flag and
//!   release low; otherwise clear the flag and release high **then**
//!   low (§4.1.3).
//!
//! [`acquire_step`] and [`release_step`] are that step, and every
//! composition flavour is a thin adapter that hands them a [`Rung`] —
//! "my lock, my metadata, my high context" — and a `climb` closure that
//! runs the level above: the static [`Clof`](crate::Clof), the enum
//! tier's `DynNode`, and the typed tier's `Over` view of the same
//! nodes. [`acquire_root`] and [`release_root`] are the recursion's base
//! case. Three small traits carry everything that varies between
//! callers:
//!
//! * [`LowLock`] — how the level's basic lock is driven: statically
//!   (any [`RawLock`]) or through the [`AnyLock`] enum.
//! * [`Wait`] — how long an acquire may wait: [`Block`] forever (the
//!   unwind branches monomorphize away), or until an
//!   [`Instant`](std::time::Instant). A timeout *is* the blocking path
//!   with one more way out, so there is no second protocol to keep in
//!   step.
//! * [`Hook`] / [`Span`] — which telemetry recorder is told about each
//!   decision: `()` (all defaults, compiled to nothing) or the `obs`
//!   recorder. Hooks only record times and trace spans.
//!
//! Counts belong to the step, not to a hook: every release decision —
//! pass, release up (and whether waiters forced it) — and every unwound
//! bounded climb is counted here, once, on the owner line of the
//! level's [`LevelMeta`], which the release moves anyway. So all three
//! adapters count alike in every build, and `stats()` derives the
//! acquisitions from these counts.
//!
//! A recorder's clock budget rides on the step: every level it wins
//! reports whether its low lock made it wait, and hands over the level's
//! [`HandoffStamp`] — stamped by whoever let that low lock go last — so
//! only a level that waited for a lock nobody passed needs a clock read
//! of its own (DESIGN §8).

use clof_locks::{chaos, RawLock};

use crate::kind::{AnyContext, AnyLock};
use crate::level::{HandoffStamp, LevelMeta};

/// A basic lock as the step drives it.
pub trait LowLock {
    /// The context the lock is operated through.
    type Ctx;

    /// Blocking acquire: waiters spin `budget` rounds, then park (the
    /// `park` feature; without it every budget is `SPIN_FOREVER`).
    fn acquire(&self, ctx: &mut Self::Ctx, budget: u32);

    /// [`acquire`](Self::acquire) that also reports whether it had to
    /// wait ([`RawLock::acquire_reporting`]).
    fn acquire_reporting(&self, ctx: &mut Self::Ctx, budget: u32) -> bool;

    /// Bounded acquire; `false` means timed out with `ctx` clean and no
    /// queue position left live.
    fn try_acquire_until(&self, ctx: &mut Self::Ctx, deadline: std::time::Instant) -> bool;

    /// Releases the lock held through `ctx`.
    fn release(&self, ctx: &mut Self::Ctx);

    /// The lock's native `has_waiters`, if it has one (§4.1.2).
    fn has_waiters_hint(&self, ctx: &Self::Ctx) -> Option<bool>;
}

impl<L: RawLock> LowLock for L {
    type Ctx = L::Context;

    #[inline]
    fn acquire(&self, ctx: &mut L::Context, budget: u32) {
        self.acquire_budgeted(ctx, budget);
    }

    #[inline]
    fn acquire_reporting(&self, ctx: &mut L::Context, budget: u32) -> bool {
        RawLock::acquire_reporting(self, ctx, budget)
    }

    #[inline]
    fn try_acquire_until(&self, ctx: &mut L::Context, deadline: std::time::Instant) -> bool {
        RawLock::try_acquire_until(self, ctx, deadline)
    }

    #[inline]
    fn release(&self, ctx: &mut L::Context) {
        RawLock::release(self, ctx);
    }

    #[inline]
    fn has_waiters_hint(&self, ctx: &L::Context) -> Option<bool> {
        RawLock::has_waiters_hint(self, ctx)
    }
}

impl LowLock for AnyLock {
    type Ctx = AnyContext;

    #[inline]
    fn acquire(&self, ctx: &mut AnyContext, budget: u32) {
        self.acquire_budgeted(ctx, budget);
    }

    #[inline]
    fn acquire_reporting(&self, ctx: &mut AnyContext, budget: u32) -> bool {
        AnyLock::acquire_reporting(self, ctx, budget)
    }

    #[inline]
    fn try_acquire_until(&self, ctx: &mut AnyContext, deadline: std::time::Instant) -> bool {
        AnyLock::try_acquire_until(self, ctx, deadline)
    }

    #[inline]
    fn release(&self, ctx: &mut AnyContext) {
        AnyLock::release(self, ctx);
    }

    #[inline]
    fn has_waiters_hint(&self, ctx: &AnyContext) -> Option<bool> {
        AnyLock::has_waiters_hint(self, ctx)
    }
}

/// How long an acquire may wait for a low lock.
pub trait Wait: Copy {
    /// Whether an acquire under this policy can give up. `false` lets
    /// every unwind branch of the step compile away.
    const BOUNDED: bool;

    /// Acquires `low` through `ctx`: `Some(waited)` once held, `None`
    /// when the wait gave up and nothing is held. Whether it waited is
    /// found out only when `report` asks; otherwise it reads `true`.
    fn acquire<L: LowLock>(
        self,
        low: &L,
        ctx: &mut L::Ctx,
        budget: u32,
        report: bool,
    ) -> Option<bool>;
}

/// Wait for as long as it takes.
#[derive(Debug, Clone, Copy)]
pub struct Block;

impl Wait for Block {
    const BOUNDED: bool = false;

    #[inline]
    fn acquire<L: LowLock>(
        self,
        low: &L,
        ctx: &mut L::Ctx,
        budget: u32,
        report: bool,
    ) -> Option<bool> {
        if report {
            return Some(low.acquire_reporting(ctx, budget));
        }
        low.acquire(ctx, budget);
        Some(true)
    }
}

/// Wait until one *absolute* deadline shared by every level of a climb
/// — the budget is split by where contention actually burned the time,
/// not by a per-level quota. Deadline waits never park, so the spin
/// budget is unused, and they always report having waited.
impl Wait for std::time::Instant {
    const BOUNDED: bool = true;

    #[inline]
    fn acquire<L: LowLock>(
        self,
        low: &L,
        ctx: &mut L::Ctx,
        _budget: u32,
        _report: bool,
    ) -> Option<bool> {
        low.try_acquire_until(ctx, self).then_some(true)
    }
}

/// How a level's low lock was won, as [`Hook::level_won`] is told.
#[derive(Debug, Clone, Copy)]
pub struct Won<'a> {
    /// The high lock came with the low lock: the previous owner passed.
    pub inherited: bool,
    /// The low-lock acquire had to wait (its first look found the lock
    /// taken; a deadline wait always counts). Always `true` for a hook
    /// that does not ask ([`Hook::READS_WAITED`]).
    pub waited: bool,
    /// The level's hand-off stamp: when its low lock was last let go.
    pub stamp: &'a HandoffStamp,
}

impl Won<'_> {
    /// Whether the win needs a clock read of its own: the level waited,
    /// and nobody passed it. A passed level changed hands at its
    /// releaser's stamp; a level won without waiting changed hands no
    /// later than the previous transition's stamp or its releaser's,
    /// whichever is later.
    #[inline]
    pub fn clocked(&self) -> bool {
        self.waited && !self.inherited
    }
}

/// Telemetry observer of the step's per-level decisions, which the step
/// has already counted; `N` is what identifies a node to the observer.
/// Every method defaults to nothing.
pub trait Hook<N> {
    /// Whether [`level_won`](Self::level_won) reads [`Won::waited`]:
    /// only then do the low acquires find it out, so without telemetry
    /// they run as if nobody asked.
    const READS_WAITED: bool = false;

    /// `node`'s low lock was won, as `won` says.
    fn level_won(&mut self, _node: &N, _won: Won<'_>) {}

    /// The release passes the high lock within `node`'s cohort.
    fn pass(&mut self, _node: &N) {}

    /// The release surrenders the high lock; `forced` means waiters
    /// existed but `keep_local` hit its threshold.
    fn release_up(&mut self, _node: &N, _forced: bool) {}

    /// A level's low lock is about to be released (after its pass or
    /// release-up decision, or at the root): the recorder leaves its
    /// release time in `stamp` for the lock's next owner.
    fn letting_go(&mut self, _node: &N, _stamp: &HandoffStamp) {}
}

impl<N> Hook<N> for () {}

/// Observer of a handle's whole acquire → release cycle, around the
/// per-level [`Hook`] calls. Every method defaults to nothing.
pub trait Span {
    /// Entering the composed acquire, before any waiting.
    fn enter(&mut self) {}

    /// The composed acquire returned holding the lock.
    fn acquired(&mut self) {}

    /// The composed acquire timed out; nothing is held.
    fn abandoned(&mut self) {}

    /// Entering the composed release.
    fn releasing(&mut self) {}

    /// The composed release returned.
    fn released(&mut self) {}
}

impl Span for () {}

/// Runs one composed acquire `attempt` inside `span`'s bracket.
#[inline]
pub fn spanned<S: Span>(span: &mut S, attempt: impl FnOnce(&mut S) -> bool) -> bool {
    span.enter();
    let won = attempt(span);
    if won {
        span.acquired();
    } else {
        span.abandoned();
    }
    won
}

/// One non-root level of a composition as the step sees it.
pub struct Rung<'a, L, C, N> {
    low: &'a L,
    meta: &'a LevelMeta<C>,
    counts_waiters: bool,
    node: &'a N,
}

impl<'a, L, C, N> Rung<'a, L, C, N> {
    /// `low` and `meta` are the level's basic lock and metadata (whose
    /// cell holds the context the cohort operates its high lock
    /// through), `node` its identity for hooks. `counts_waiters` is
    /// whether acquires maintain the read indicator: `false` when `low`
    /// answers `has_waiters` natively, since the release then never
    /// consults the counter and maintaining it is pure coherence
    /// traffic.
    ///
    /// # Safety
    ///
    /// `low` must be the lock that guards `meta`: every adapter of the
    /// level pairs this `meta` with the same lock, and nothing but this
    /// module dereferences `meta`'s context cell once handles exist.
    #[inline]
    pub unsafe fn new(
        low: &'a L,
        meta: &'a LevelMeta<C>,
        counts_waiters: bool,
        node: &'a N,
    ) -> Self {
        Rung {
            low,
            meta,
            counts_waiters,
            node,
        }
    }

    /// Runs `f` on the high-lock context — the only place a composed
    /// lock touches one.
    #[inline]
    fn with_high_ctx<T>(&self, f: impl FnOnce(&mut C) -> T) -> T {
        self.meta.debug_ctx_enter();
        // SAFETY: The context invariant (§4.1.3), each level's rely and
        // guarantee. *Rely*: the low lock is mutually exclusive and its
        // release→acquire edge orders memory (`RawLock`'s contract), and
        // `Rung::new`'s caller vouched that it guards `meta`. *Guarantee*:
        // this is reached only by the current low-lock owner — in
        // `acquire_step` after the low lock was won, in `release_step`
        // before it is released (high goes before low, so no successor
        // can own the low lock while we are still in here) — and the
        // reference dies before `f`'s caller gives the low lock up. The
        // `&mut` is therefore unique, and the previous owner's writes
        // to the context are visible through the low lock's edge.
        // `debug_ctx_enter` checks exactly this in debug and `testkit`
        // builds.
        let out = f(unsafe { &mut *self.meta.high_ctx_ptr() });
        self.meta.debug_ctx_exit();
        out
    }
}

/// Base case of the recursion: the system-level lock has nothing above
/// it, so its step is the basic lock itself. `stamp` is the root's
/// hand-off stamp.
#[inline]
pub fn acquire_root<L: LowLock, N, W: Wait, K: Hook<N>>(
    low: &L,
    ctx: &mut L::Ctx,
    budget: u32,
    stamp: &HandoffStamp,
    node: &N,
    wait: W,
    hook: &mut K,
) -> bool {
    let Some(waited) = wait.acquire(low, ctx, budget, K::READS_WAITED) else {
        return false;
    };
    let won = Won {
        inherited: false,
        waited,
        stamp,
    };
    hook.level_won(node, won);
    true
}

/// The base case's release: the root lock is let go.
#[inline]
pub fn release_root<L: LowLock, N, K: Hook<N>>(
    low: &L,
    ctx: &mut L::Ctx,
    stamp: &HandoffStamp,
    node: &N,
    hook: &mut K,
) {
    hook.letting_go(node, stamp);
    low.release(ctx);
}

/// `lockgen(acq(CLoF(l, L), c))`. `slot` is the caller's child position
/// under this node (the read-indicator stripe it registers on); `climb`
/// acquires the level above through the high context and reports
/// whether it won.
///
/// Returns `false` only under a [`Wait::BOUNDED`] policy, with this
/// level fully unwound: a timed-out climber holds the low lock but
/// never touched the pass flag, so a *plain* low release — no pass or
/// release-up decision, no high-context access — restores exactly the
/// state the next low-lock winner expects: climb for yourself.
#[inline]
pub fn acquire_step<L: LowLock, C, N, W: Wait, K: Hook<N>>(
    rung: Rung<'_, L, C, N>,
    ctx: &mut L::Ctx,
    slot: u32,
    wait: W,
    hook: &mut K,
    climb: impl FnOnce(&mut C, &mut K) -> bool,
) -> bool {
    // The bracket closes on both outcomes: a timed-out waiter must
    // leave no read-indicator residue.
    if rung.counts_waiters {
        rung.meta.inc_waiters(slot);
    }
    let got = wait.acquire(rung.low, ctx, rung.meta.spin_budget(), K::READS_WAITED);
    if rung.counts_waiters {
        rung.meta.dec_waiters(slot);
    }
    let Some(waited) = got else {
        return false;
    };
    // Window between winning the low lock and inspecting the pass flag
    // left by the previous owner.
    chaos::point("clof-low-won");
    let inherited = rung.meta.has_high_lock();
    let won = Won {
        inherited,
        waited,
        stamp: rung.meta.handoff_stamp(),
    };
    hook.level_won(rung.node, won);
    if inherited {
        return true;
    }
    let climbed = rung.with_high_ctx(|high_ctx| climb(high_ctx, hook));
    if W::BOUNDED && !climbed {
        rung.meta.count_unwound();
        rung.low.release(ctx);
        return false;
    }
    true
}

/// `lockgen(rel(CLoF(l, L), c))`. `climb` releases the level above
/// through the high context; it runs on release-up only, and before the
/// low release.
#[inline]
pub fn release_step<L: LowLock, C, N, K: Hook<N>>(
    rung: Rung<'_, L, C, N>,
    ctx: &mut L::Ctx,
    hook: &mut K,
    climb: impl FnOnce(&mut C, &mut K),
) {
    // Staleness is tolerable (§4.1.2): a missed waiter only causes an
    // early high-lock release, never a safety violation.
    let waiters = rung
        .low
        .has_waiters_hint(ctx)
        .unwrap_or_else(|| rung.meta.has_waiters());
    if waiters && rung.meta.keep_local() {
        // Pass: leave the high lock acquired for our cohort successor.
        rung.meta.count_pass();
        hook.pass(rung.node);
        rung.meta.pass_high_lock();
        hook.letting_go(rung.node, rung.meta.handoff_stamp());
        // Window between setting the pass flag and the low release that
        // publishes it.
        chaos::point("clof-release-pass");
        rung.low.release(ctx);
        return;
    }
    rung.meta.count_release_up();
    if waiters {
        rung.meta.count_forced();
    }
    hook.release_up(rung.node, waiters);
    rung.meta.clear_high_lock();
    hook.letting_go(rung.node, rung.meta.handoff_stamp());
    chaos::point("clof-release-up");
    #[cfg(feature = "testkit")]
    if mutant::low_released_first() {
        // MUTANT — the §4.1.3 order inverted: a successor can now own
        // the low lock while we are still inside the context bracket.
        rung.low.release(ctx);
        chaos::point("clof-mutant-low-first");
        rung.with_high_ctx(|high_ctx| climb(high_ctx, hook));
        return;
    }
    // The order matters (§4.1.3): were the low lock released first, a
    // successor could acquire it and race us on the high context.
    rung.with_high_ctx(|high_ctx| climb(high_ctx, hook));
    rung.low.release(ctx);
}

/// The step's one mutant, for `tests/step_mutant.rs`: release-up lets
/// go of the low lock *before* the high one. Because the step is the
/// only protocol there is, this breaks the static tree, the typed tier
/// and the enum tier alike.
#[cfg(feature = "testkit")]
pub mod mutant {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};

    static LOW_FIRST: AtomicBool = AtomicBool::new(false);
    static SERIAL: Mutex<()> = Mutex::new(());

    /// The mutant is armed while this is alive; arming serialises, and
    /// dropping (also by unwinding) disarms.
    pub struct LowFirst(#[allow(dead_code)] MutexGuard<'static, ()>);

    /// Arms the release-low-first mutant process-wide.
    pub fn release_low_first() -> LowFirst {
        let serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        LOW_FIRST.store(true, Ordering::SeqCst);
        LowFirst(serial)
    }

    impl Drop for LowFirst {
        fn drop(&mut self) {
            LOW_FIRST.store(false, Ordering::SeqCst);
        }
    }

    #[inline]
    pub(super) fn low_released_first() -> bool {
        LOW_FIRST.load(Ordering::Relaxed)
    }
}
