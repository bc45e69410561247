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
//! nodes. [`acquire_root`] is the recursion's base case. Three small
//! traits carry everything that varies between callers:
//!
//! * [`LowLock`] — how the level's basic lock is driven: statically
//!   (any [`RawLock`]) or through the [`AnyLock`] enum.
//! * [`Wait`] — how long an acquire may wait: [`Block`] forever (the
//!   unwind branches monomorphize away), or, with the `deadline`
//!   feature, until an [`Instant`](std::time::Instant). A timeout *is*
//!   the blocking path with one more way out, so there is no second
//!   protocol to keep in step.
//! * [`Hook`] / [`Span`] — who is told about each decision: `()` (all
//!   defaults, compiled to nothing) or a telemetry recorder.

use clof_locks::{chaos, RawLock};

use crate::kind::{AnyContext, AnyLock};
use crate::level::LevelMeta;

/// A basic lock as the step drives it.
pub trait LowLock {
    /// The context the lock is operated through.
    type Ctx;

    /// Blocking acquire: waiters spin `budget` rounds, then park (the
    /// `park` feature; without it every budget is `SPIN_FOREVER`).
    fn acquire(&self, ctx: &mut Self::Ctx, budget: u32);

    /// Bounded acquire; `false` means timed out with `ctx` clean and no
    /// queue position left live.
    #[cfg(feature = "deadline")]
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

    #[cfg(feature = "deadline")]
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

    #[cfg(feature = "deadline")]
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

    /// Acquires `low` through `ctx`; `false` means the wait gave up and
    /// nothing is held.
    fn acquire<L: LowLock>(self, low: &L, ctx: &mut L::Ctx, budget: u32) -> bool;
}

/// Wait for as long as it takes.
#[derive(Debug, Clone, Copy)]
pub struct Block;

impl Wait for Block {
    const BOUNDED: bool = false;

    #[inline]
    fn acquire<L: LowLock>(self, low: &L, ctx: &mut L::Ctx, budget: u32) -> bool {
        low.acquire(ctx, budget);
        true
    }
}

/// Wait until one *absolute* deadline shared by every level of a climb
/// — the budget is split by where contention actually burned the time,
/// not by a per-level quota. Deadline waits never park, so the spin
/// budget is unused.
#[cfg(feature = "deadline")]
impl Wait for std::time::Instant {
    const BOUNDED: bool = true;

    #[inline]
    fn acquire<L: LowLock>(self, low: &L, ctx: &mut L::Ctx, _budget: u32) -> bool {
        low.try_acquire_until(ctx, self)
    }
}

/// Observer of the step's per-level decisions; `N` is what identifies a
/// node to the observer. Every method defaults to nothing.
pub trait Hook<N> {
    /// `node`'s low lock was won; `inherited` is whether the high lock
    /// came with it.
    fn level_won(&mut self, _node: &N, _inherited: bool) {}

    /// The release asked the low lock's native waiter hint.
    fn hint_hit(&mut self, _node: &N) {}

    /// The release passes the high lock within `node`'s cohort.
    fn pass(&mut self, _node: &N) {}

    /// The release surrenders the high lock; `forced` means waiters
    /// existed but `keep_local` hit its threshold.
    fn release_up(&mut self, _node: &N, _forced: bool) {}
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
/// it, so its step is the basic lock itself.
#[inline]
pub fn acquire_root<L: LowLock, N, W: Wait, K: Hook<N>>(
    low: &L,
    ctx: &mut L::Ctx,
    budget: u32,
    node: &N,
    wait: W,
    hook: &mut K,
) -> bool {
    let won = wait.acquire(low, ctx, budget);
    if won {
        hook.level_won(node, false);
    }
    won
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
    let won = wait.acquire(rung.low, ctx, rung.meta.spin_budget());
    if rung.counts_waiters {
        rung.meta.dec_waiters(slot);
    }
    if W::BOUNDED && !won {
        return false;
    }
    // Window between winning the low lock and inspecting the pass flag
    // left by the previous owner.
    chaos::point("clof-low-won");
    let inherited = rung.meta.has_high_lock();
    hook.level_won(rung.node, inherited);
    if inherited {
        return true;
    }
    let climbed = rung.with_high_ctx(|high_ctx| climb(high_ctx, hook));
    if W::BOUNDED && !climbed {
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
    let hint = rung.low.has_waiters_hint(ctx);
    if hint.is_some() {
        hook.hint_hit(rung.node);
    }
    // Staleness is tolerable (§4.1.2): a missed waiter only causes an
    // early high-lock release, never a safety violation.
    let waiters = hint.unwrap_or_else(|| rung.meta.has_waiters());
    if waiters && rung.meta.keep_local() {
        // Pass: leave the high lock acquired for our cohort successor.
        hook.pass(rung.node);
        rung.meta.pass_high_lock();
        // Window between setting the pass flag and the low release that
        // publishes it.
        chaos::point("clof-release-pass");
        rung.low.release(ctx);
        return;
    }
    hook.release_up(rung.node, waiters);
    rung.meta.clear_high_lock();
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
