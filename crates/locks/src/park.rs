//! Spin-then-park waiting: the off-by-default `park` cargo feature.
//!
//! Every lock in this crate busy-waits, which is right for the paper's
//! dedicated-core setup (§6) and wrong the moment the host runs more
//! runnable threads than cores: spinners burn the very timeslices the
//! owner needs to finish its critical section. This module adds a
//! *waiting policy* in the style of Fissile and Malthusian locks — spin
//! a bounded budget, then block in the kernel — while keeping the
//! default build bit-for-bit free of it:
//!
//! * [`Waiter`] — the budget accountant: one bounded spin phase
//!   ([`Backoff`] rounds) before the caller may park.
//! * [`WaitWord`] — a one-waiter wait/grant word for the queue locks
//!   (MCS/CLH node words): the waiter spins, then sets a `PARKED` bit
//!   and sleeps on the word; the releaser swaps in `GO` and wakes the
//!   word only if the swapped-out value carried the bit. The wake takes
//!   only the *address*, never dereferencing the (possibly already
//!   recycled) node — see [`WaitWord::release_raw`].
//! * [`ParkSpot`] — an eventcount for the polling locks (ticket, TTAS,
//!   Anderson slots, TAS+backoff): waiters park on an epoch word after
//!   announcing themselves in a `parked` count; releasers make their
//!   condition true, then bump the epoch and `futex_wake` it if anyone
//!   announced. An *asymmetric* barrier closes the sleep/wake race: the
//!   waiter (about to syscall anyway) issues a process-wide
//!   `membarrier`, so a release with no sleepers pays only a Relaxed
//!   load (the Dekker argument in the type's docs and [`asym`]).
//!
//! Blocking uses a raw `SYS_futex` on Linux (x86_64/aarch64, no libc
//! dependency); elsewhere it degrades to bounded [`std::thread::park_timeout`]
//! naps, which need no wake side at all (waiters re-poll on expiry).
//!
//! Without the `park` feature the types still exist (the queue locks
//! embed [`WaitWord`] unconditionally), but every budget is effectively
//! [`SPIN_FOREVER`], no parking code is compiled, and a wait compiles to
//! the same load-and-[`Backoff`] loop the crate always had.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::spin::Backoff;

/// Spin budget meaning "spin forever, never park".
///
/// This is the implicit budget of every plain `acquire` and the default
/// per-level budget before a composition installs topology-derived ones.
pub const SPIN_FOREVER: u32 = u32::MAX;

/// Marker literal proving spin-then-park code is linked in: it appears
/// in the futex failure panics and the `clof` CLI's policy banner, and
/// CI greps for its *absence* in the default binary.
#[cfg(feature = "park")]
pub const PARK_MARKER: &str = "clof-park-v1";

/// Whether this build parks on a native futex (Linux x86_64/aarch64).
///
/// When `false`, parking degrades to bounded timed naps: still correct,
/// still yields the core, but wakes arrive by re-poll rather than by
/// releaser notification. The no-lost-wakeup stall detector only runs
/// on native futex hosts.
#[cfg(feature = "park")]
pub fn has_native_futex() -> bool {
    futex::NATIVE
}

/// Whether releases get the zero-cost side of the asymmetric sleep/wake
/// barrier (`membarrier(PRIVATE_EXPEDITED)` probed and registered).
///
/// When `false`, both sides fall back to symmetric `SeqCst` fences:
/// still correct, but every `ParkSpot` release pays a full barrier.
#[cfg(feature = "park")]
pub fn has_asym_barrier() -> bool {
    asym::is_native()
}

// ---------------------------------------------------------------------
// Waiter: the spin-budget accountant.
// ---------------------------------------------------------------------

/// Tracks one bounded spin phase before its owner is allowed to park.
///
/// [`Waiter::spin`] burns [`Backoff`] rounds while the budget lasts and
/// reports when it is exhausted; the caller then parks (with the `park`
/// feature) or keeps spinning (without it, budgets are always
/// [`SPIN_FOREVER`], so exhaustion never happens). Budgets count rounds
/// of at most [`Backoff::HOLD`] hints, so not even the smallest budget
/// leaves a waiter in a long burst while the grant it will miss goes by.
#[derive(Debug)]
pub struct Waiter {
    backoff: Backoff,
    spins: u32,
    budget: u32,
}

impl Waiter {
    /// A fresh waiter with `budget` spin rounds before parking.
    #[inline]
    pub fn new(budget: u32) -> Self {
        Waiter {
            backoff: Backoff::new(),
            spins: 0,
            budget,
        }
    }

    /// Burns one backoff round. Returns `false` once the budget is
    /// exhausted — the signal to park. A [`SPIN_FOREVER`] budget never
    /// exhausts.
    #[inline]
    pub fn spin(&mut self) -> bool {
        if self.spins >= self.budget {
            return false;
        }
        if self.budget != SPIN_FOREVER {
            self.spins += 1;
        }
        self.backoff.snooze();
        true
    }

    /// Restarts the spin phase (after a wake, before re-checking a
    /// condition that may need another bounded spin).
    #[inline]
    pub fn reset(&mut self) {
        self.spins = 0;
        self.backoff.reset();
    }
}

// ---------------------------------------------------------------------
// WaitWord: one-waiter wait/grant word (queue-lock nodes).
// ---------------------------------------------------------------------

/// Word value: released — the waiter may proceed.
const GO: u32 = 0;
/// Word value: armed — the waiter spins or parks on it.
const WAIT: u32 = 1;
/// Bit a waiter ORs in before sleeping, so the releaser knows a
/// `futex_wake` is owed. Never set while the word is `GO`.
#[cfg(feature = "park")]
const PARKED_BIT: u32 = 2;
/// Bit a timed-out waiter publishes in its node's word to abandon the
/// queue position (the `deadline` feature's HMCS-T-style marker). Set
/// either by the waiter CASing its own armed word (MCS) or by swapping
/// its word outright for the successor to observe (CLH); never combined
/// with `GO`. A granter that swaps out this bit knows the position's
/// owner left and must skip (and reclaim) the node.
#[cfg(feature = "deadline")]
pub(crate) const ABANDONED: u32 = 4;

/// The wait/grant word of one queue-lock node (MCS/CLH `locked` field).
///
/// Exactly one thread waits on a `WaitWord` at a time (queue locks give
/// every waiter a private node), which is what makes the hand-off
/// *precise*: the releaser wakes its successor and nobody else.
///
/// Protocol: the owner-to-be [`prime`](WaitWord::prime)s the word, links
/// it into the queue, and [`wait`](WaitWord::wait)s; the releaser calls
/// [`release_raw`](WaitWord::release_raw), which swaps in `GO` with
/// `Release` ordering and, if the swapped-out value carried
/// `PARKED_BIT`, wakes the address. The swap is safe because the waiter
/// cannot free its node before observing `GO` (that observation is the
/// very thing the swap causes); the wake after it never dereferences.
#[derive(Debug)]
#[repr(transparent)]
pub struct WaitWord(AtomicU32);

impl WaitWord {
    /// A word born released (e.g. an unowned CLH dummy node).
    pub const fn new_go() -> Self {
        WaitWord(AtomicU32::new(GO))
    }

    /// A word born armed.
    pub const fn new_wait() -> Self {
        WaitWord(AtomicU32::new(WAIT))
    }

    /// Re-arms the word for a new wait. Owner-side, before the node is
    /// published to any other thread, hence `Relaxed`.
    #[inline]
    pub fn prime(&self) {
        self.0.store(WAIT, Ordering::Relaxed);
    }

    /// Whether the word has been released (`Acquire`).
    #[inline]
    pub fn is_go(&self) -> bool {
        self.0.load(Ordering::Acquire) == GO
    }

    /// Blocks until the word is released: spins `budget` rounds, then —
    /// with the `park` feature — parks on the word until the releaser's
    /// wake. Returns with `Acquire` ordering against the release.
    ///
    /// While it spins, the wait returns within one [`Backoff`] burst
    /// (≤ [`Backoff::HOLD`] hints, ~100 ns) of the grant however long it
    /// has waited: nobody else polls this word, so polling it often costs
    /// the releaser nothing (`tests/lateness.rs` clocks it).
    ///
    /// Without the `park` feature there is nothing to do when a budget
    /// exhausts, so any finite budget is treated as [`SPIN_FOREVER`]:
    /// the loop always keeps its [`Backoff`] instead of degenerating
    /// into a tight load.
    #[inline]
    pub fn wait(&self, budget: u32) {
        self.wait_for(budget, |value| value == GO);
    }

    /// [`wait`](WaitWord::wait) for any word value `done` accepts, which
    /// it returns.
    #[inline]
    fn wait_for(&self, budget: u32, done: impl Fn(u32) -> bool) -> u32 {
        let budget = if cfg!(feature = "park") {
            budget
        } else {
            SPIN_FOREVER
        };
        let mut waiter = Waiter::new(budget);
        loop {
            let value = self.0.load(Ordering::Acquire);
            if done(value) {
                return value;
            }
            if waiter.spin() {
                continue;
            }
            #[cfg(feature = "park")]
            return self.park_until(done);
        }
    }

    /// The blocking tail of [`wait_for`](WaitWord::wait_for): announce
    /// with `PARKED_BIT`, then sleep on the word until `done` accepts it.
    /// (An abandoning owner's swap clears the bit and wakes us like a
    /// grant does, see [`abandon`](WaitWord::abandon).)
    #[cfg(feature = "park")]
    #[cold]
    fn park_until(&self, done: impl Fn(u32) -> bool) -> u32 {
        // fetch_or is an RMW: if the releaser's swap(GO) lands first we
        // see GO here and never sleep; if ours lands first the releaser
        // is guaranteed to see the bit and owes us a wake.
        let prev = self.0.fetch_or(PARKED_BIT, Ordering::Acquire);
        if done(prev) {
            return prev;
        }
        let t0 = std::time::Instant::now();
        stats::on_park();
        let terminal = loop {
            let cur = self.0.load(Ordering::Acquire);
            if done(cur) {
                break cur;
            }
            #[cfg(any(test, feature = "testkit"))]
            {
                // Stall-detector evidence (see `testkit`): a timed-out
                // sleep that finds the word already terminal with no wake
                // issued anywhere since we slept is a timeout rescue.
                // The loop's own check above decides the exit, so
                // nothing observed here is swallowed.
                let wakes_before = stats::WAKES.load(Ordering::SeqCst);
                if futex::wait(&self.0, cur) == futex::Unblock::TimedOut
                    && done(self.0.load(Ordering::Acquire))
                    && stats::WAKES.load(Ordering::SeqCst) == wakes_before
                {
                    testkit::record_rescue();
                }
            }
            #[cfg(not(any(test, feature = "testkit")))]
            let _ = futex::wait(&self.0, cur);
        };
        stats::on_unpark(t0.elapsed());
        terminal
    }

    /// Owner-side release through a raw pointer: swaps in `GO`
    /// (`Release`) and wakes the address if the swapped-out value said a
    /// waiter parked.
    ///
    /// # Safety
    ///
    /// `this` must point to a live `WaitWord` *at the moment of the
    /// call*. Immediately after the internal swap the pointee may be
    /// freed or recycled by the woken thread (MCS successors free their
    /// node when their context drops); that is fine — the wake syscall
    /// takes only the address and the kernel never dereferences a
    /// `FUTEX_WAKE` target.
    #[inline]
    pub unsafe fn release_raw(this: *const WaitWord) {
        let prev = (*this).0.swap(GO, Ordering::Release);
        #[cfg(feature = "park")]
        if prev & PARKED_BIT != 0 {
            Self::wake_raw(this);
        }
        #[cfg(not(feature = "park"))]
        let _ = prev;
    }

    #[cfg(feature = "park")]
    #[cold]
    unsafe fn wake_raw(this: *const WaitWord) {
        #[cfg(any(test, feature = "testkit"))]
        if mutant::wakes_skipped() {
            return;
        }
        stats::on_wake();
        futex::wake_addr(this as *const u32, 1);
    }
}

/// Deadline-aware extensions of the wait/grant protocol (the `deadline`
/// feature). Two additions to the state machine: a waiter may leave by
/// publishing [`ABANDONED`], and waits must treat `GO` *or* an abandoned
/// marker as terminal (a CLH waiter watches its predecessor's word,
/// which the predecessor may abandon).
///
/// Deadline-bounded waits are **spin-only** — they never park, even
/// with the `park` feature. The deadline bounds how long the caller
/// burns, and a waiter that may stop listening at any moment cannot
/// safely share the parked-bit wake protocol with the releaser.
#[cfg(feature = "deadline")]
impl WaitWord {
    /// Whether `value` is terminal: the wait is over either way.
    #[inline]
    fn is_done(value: u32) -> bool {
        value == GO || value & ABANDONED != 0
    }

    /// Spin-only bounded wait: polls until the word is terminal
    /// (returning the terminal value) or the deadline expires
    /// (returning `None`). A grant that races the clock edge wins: the
    /// word is re-checked once after expiry before giving up.
    pub(crate) fn wait_deadline(
        &self,
        deadline: std::time::Instant,
        site: &'static str,
    ) -> Option<u32> {
        let mut backoff = Backoff::new();
        let mut poll = crate::deadline::DeadlinePoll::new(deadline, site);
        loop {
            let v = self.0.load(Ordering::Acquire);
            if Self::is_done(v) {
                return Some(v);
            }
            if poll.expired() {
                let v = self.0.load(Ordering::Acquire);
                return if Self::is_done(v) { Some(v) } else { None };
            }
            backoff.snooze();
        }
    }

    /// Waiter-side abandonment of an *armed own word* (MCS): CAS
    /// `WAIT → ABANDONED`. Returns `false` if the grant landed first —
    /// the caller owns the lock after all and must proceed as acquired.
    /// The CAS and the granter's swap serialize on the word, so exactly
    /// one side wins.
    pub(crate) fn try_abandon(&self) -> bool {
        // The failure value can only be GO: this waiter never parked
        // (deadline waits are spin-only) and nobody else writes WAIT.
        self.0
            .compare_exchange(WAIT, ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Waiter-side abandonment of an own word a *successor* watches
    /// (CLH): swap in `ABANDONED` unconditionally — only this owner
    /// ever grants through the word, so there is no grant to race —
    /// and wake the successor if it parked on the word.
    pub(crate) fn abandon(&self) {
        let prev = self.0.swap(ABANDONED, Ordering::Release);
        debug_assert_ne!(prev, GO, "abandoning a word nobody waits through");
        #[cfg(feature = "park")]
        if prev & PARKED_BIT != 0 {
            // SAFETY: `self` is a live reference.
            unsafe { Self::wake_raw(self) };
        }
        #[cfg(not(feature = "park"))]
        let _ = prev;
    }

    /// [`release_raw`](WaitWord::release_raw) that also reports what it
    /// swapped out, so an MCS releaser can detect an abandoned
    /// successor (`ABANDONED` in the return) and keep granting down the
    /// queue.
    ///
    /// # Safety
    ///
    /// Same contract as [`release_raw`](WaitWord::release_raw).
    pub(crate) unsafe fn grant_raw(this: *const WaitWord) -> u32 {
        let prev = (*this).0.swap(GO, Ordering::Release);
        #[cfg(feature = "park")]
        if prev & PARKED_BIT != 0 {
            Self::wake_raw(this);
        }
        prev
    }

    /// [`wait`](WaitWord::wait) generalized to both terminal values:
    /// returns the terminal word (`GO`, or carrying [`ABANDONED`]).
    /// Unbounded; parks on budget exhaustion like `wait`. CLH waiters
    /// use this for their predecessor's word, which may be granted *or*
    /// abandoned under them.
    pub(crate) fn wait_observe(&self, budget: u32) -> u32 {
        self.wait_for(budget, Self::is_done)
    }
}

// ---------------------------------------------------------------------
// ParkSpot: an eventcount for polling locks.
// ---------------------------------------------------------------------

/// Eventcount a polling lock's waiters park on when their spin budget
/// runs out.
///
/// The waiter/releaser pairing is a store-buffering (Dekker) argument
/// with the barrier cost shifted onto the waiter (see [`asym`]):
///
/// * waiter: `parked += 1` → heavy barrier (`membarrier`, or a `SeqCst`
///   fence where unavailable) → re-check condition → only if still
///   false, `futex_wait(epoch, e)` with `e` read before the announce;
/// * releaser: make condition true (plain `Release` store) → light
///   barrier (nothing, or the paired `SeqCst` fence) → read `parked` →
///   if non-zero, `epoch += 1` and `futex_wake`.
///
/// The barrier pair means at least one side sees the other: either the
/// waiter's re-check sees the condition and it never sleeps, or the
/// releaser sees `parked > 0` and wakes. A wake that races the waiter's
/// descent into the kernel bumps `epoch` first, so the `futex_wait`
/// fails with `EAGAIN` instead of sleeping — the no-lost-wakeup
/// guarantee (DESIGN §11).
#[cfg(feature = "park")]
#[derive(Debug)]
pub struct ParkSpot {
    /// Wake-generation word the futex sleeps on.
    epoch: AtomicU32,
    /// Number of waiters announced as (possibly) sleeping.
    parked: AtomicU32,
}

#[cfg(feature = "park")]
impl Default for ParkSpot {
    fn default() -> Self {
        ParkSpot::new()
    }
}

#[cfg(feature = "park")]
impl ParkSpot {
    /// A fresh spot with no sleepers.
    pub const fn new() -> Self {
        ParkSpot {
            epoch: AtomicU32::new(0),
            parked: AtomicU32::new(0),
        }
    }

    /// Blocks until `cond()` is true: spins `budget` rounds, then parks
    /// until a releaser's wake (re-spinning a fresh budget after each
    /// wake, since another thread may have consumed the condition).
    ///
    /// `cond` must be a side-effect-free *pure read* of shared state
    /// (with at least `Acquire` ordering). The wait machinery re-invokes
    /// it freely — before sleeping, after timed-out test-build sleeps —
    /// so a *consuming* condition (a test-and-set, a CAS) does not
    /// belong here: wait on a pure read and retry the consuming step in
    /// an outer loop instead (see `TtasLock::acquire_inner`). As defence
    /// in depth, any `cond() == true` observed inside the park machinery
    /// propagates back here and returns without another invocation, so
    /// one successful call is never swallowed.
    ///
    /// Every writer that makes the condition true must call
    /// [`wake_one`] / [`wake_all`] afterwards (see the type docs for
    /// why that cannot lose a wakeup).
    ///
    /// [`wake_one`]: ParkSpot::wake_one
    /// [`wake_all`]: ParkSpot::wake_all
    #[inline]
    pub fn wait_until(&self, budget: u32, mut cond: impl FnMut() -> bool) {
        let mut waiter = Waiter::new(budget);
        loop {
            if cond() {
                return;
            }
            if waiter.spin() {
                continue;
            }
            if self.park(&mut cond) {
                // `cond` returned true inside `park`; that observation
                // already consumed the condition for us — re-invoking
                // could fail (and, for an impure cond, double-fire).
                return;
            }
            waiter.reset();
        }
    }

    /// One park episode: announce, re-check, sleep, retract. Returns
    /// `true` iff `cond()` was invoked in here and returned true; the
    /// caller must treat the condition as satisfied and must not invoke
    /// `cond` again.
    #[cold]
    fn park(&self, cond: &mut impl FnMut() -> bool) -> bool {
        let e = self.epoch.load(Ordering::Relaxed);
        self.parked.fetch_add(1, Ordering::SeqCst);
        asym::heavy();
        if cond() {
            self.parked.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        let t0 = std::time::Instant::now();
        stats::on_park();
        #[cfg(any(test, feature = "testkit"))]
        let wakes_before = stats::WAKES.load(Ordering::SeqCst);
        let outcome = futex::wait(&self.epoch, e);
        // A wake consumes the announce on the waker's side (see
        // `wake_slow`); only an unwoken return — stale epoch, signal,
        // timeout — retracts it here. The split keeps `parked` accurate
        // the instant the wake is issued, not when this thread next gets
        // CPU: on an oversubscribed host that lag had every subsequent
        // release re-reading `parked > 0` and paying a wake syscall for
        // a sleeper that was already gone.
        let cond_hit = match outcome {
            futex::Unblock::Woken => false,
            futex::Unblock::Spurious => {
                self.parked.fetch_sub(1, Ordering::SeqCst);
                false
            }
            #[cfg(any(test, feature = "testkit"))]
            futex::Unblock::TimedOut => {
                self.parked.fetch_sub(1, Ordering::SeqCst);
                // Stall-detector evidence (see `testkit`): a timed-out
                // sleep whose condition is already true, with no wake
                // issued anywhere since we slept, means a releaser-side
                // wake went missing. The `cond` result propagates to the
                // caller — never swallowed as detector-only evidence.
                let hit = cond();
                if hit && stats::WAKES.load(Ordering::SeqCst) == wakes_before {
                    testkit::record_rescue();
                }
                hit
            }
        };
        stats::on_unpark(t0.elapsed());
        cond_hit
    }

    /// Wakes one parked waiter, if any. Call *after* making the waiters'
    /// condition true. No sleeper means no syscall.
    #[inline]
    pub fn wake_one(&self) {
        self.wake(1);
    }

    /// Wakes every parked waiter — for grant-word locks (ticket) where
    /// sleepers wait for different values and only the right one can
    /// proceed.
    #[inline]
    pub fn wake_all(&self) {
        self.wake(i32::MAX as u32);
    }

    #[inline]
    fn wake(&self, n: u32) {
        // The asymmetric barrier (see [`asym`]) completes the Dekker
        // pairing: either the waiter's `parked` increment is visible
        // here, or the waiter's post-membarrier re-check observes the
        // condition the caller just published and never sleeps. With a
        // native membarrier `light()` is a predicted-not-taken branch,
        // so a release with no sleepers costs one Relaxed load.
        asym::light();
        if self.parked.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.wake_slow(n);
    }

    #[cold]
    fn wake_slow(&self, n: u32) {
        #[cfg(any(test, feature = "testkit"))]
        if mutant::wakes_skipped() {
            return;
        }
        stats::on_wake();
        // The bump must be ordered before the wake so a waiter racing
        // into futex_wait sees a changed epoch (EAGAIN) instead of
        // sleeping through the wake.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Consume the announce for every sleeper the kernel dequeued:
        // they stop being wake-worthy the moment the syscall returns,
        // not when they are next scheduled. Sleepers that left the queue
        // by other means (stale epoch, signal, timeout) retract their
        // own announce in `park`, so the two never double-count.
        let dequeued = futex::wake(&self.epoch, n);
        if dequeued > 0 {
            self.parked.fetch_sub(dequeued, Ordering::SeqCst);
        }
    }
}

// ---------------------------------------------------------------------
// Park/wake accounting.
// ---------------------------------------------------------------------

/// Total parks (kernel blocks) since process start.
#[cfg(feature = "park")]
pub fn parks() -> u64 {
    stats::PARKS.load(Ordering::Relaxed)
}

/// Total releaser-side wakes issued since process start.
#[cfg(feature = "park")]
pub fn wakes() -> u64 {
    stats::WAKES.load(Ordering::Relaxed)
}

/// Installs (or clears) a parked-duration recorder, called with the
/// nanoseconds a waiter spent blocked, once per park episode, on the
/// woken thread. `clof-core` uses this to feed the `clof-obs` histogram
/// and the profiler's per-site park attribution.
#[cfg(feature = "park")]
pub fn set_parked_recorder(f: Option<fn(u64)>) {
    stats::PARKED_RECORDER.store(f.map_or(0, |f| f as usize), Ordering::Release);
}

/// Installs (or clears) a wake recorder, called once per releaser-side
/// wake (after the counter bump, before the syscall).
#[cfg(feature = "park")]
pub fn set_wake_recorder(f: Option<fn()>) {
    stats::WAKE_RECORDER.store(f.map_or(0, |f| f as usize), Ordering::Release);
}

#[cfg(feature = "park")]
mod stats {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    pub static PARKS: AtomicU64 = AtomicU64::new(0);
    pub static WAKES: AtomicU64 = AtomicU64::new(0);
    pub static PARKED_RECORDER: AtomicUsize = AtomicUsize::new(0);
    pub static WAKE_RECORDER: AtomicUsize = AtomicUsize::new(0);

    #[inline]
    pub fn on_park() {
        PARKS.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn on_unpark(parked_for: std::time::Duration) {
        let p = PARKED_RECORDER.load(Ordering::Acquire);
        if p != 0 {
            let f: fn(u64) = unsafe { std::mem::transmute(p) };
            f(parked_for.as_nanos() as u64);
        }
    }

    #[inline]
    pub fn on_wake() {
        WAKES.fetch_add(1, Ordering::Relaxed);
        let p = WAKE_RECORDER.load(Ordering::Acquire);
        if p != 0 {
            let f: fn() = unsafe { std::mem::transmute(p) };
            f();
        }
    }
}

// ---------------------------------------------------------------------
// Mutant hooks + stall detector (test builds only).
// ---------------------------------------------------------------------

/// Deleted-wake mutant switch for the mutant-kill suite: with wakes
/// skipped, every releaser still publishes its condition but never
/// issues the futex wake — exactly the bug class the stall detector
/// must catch.
#[cfg(all(feature = "park", any(test, feature = "testkit")))]
pub mod mutant {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SKIP_WAKE: AtomicBool = AtomicBool::new(false);

    /// Arms (or disarms) the deleted-wake mutant.
    pub fn skip_wake(on: bool) {
        SKIP_WAKE.store(on, Ordering::SeqCst);
    }

    pub(crate) fn wakes_skipped() -> bool {
        SKIP_WAKE.load(Ordering::Relaxed)
    }
}

/// No-lost-wakeup stall detector (native-futex test builds).
///
/// Test builds park with a bounded timeout instead of forever. A waiter
/// whose timed wait expires *while its condition is already true* and
/// *while the process-wide wake counter has not moved since it slept*
/// was woken by the timeout, not by a releaser — a **timeout rescue**,
/// possible only when a releaser-side wake went missing (the Dekker
/// pairing rules out benign lost wakes, and a wake anywhere in the
/// process since the sleep voids the evidence). Enough rescues panic
/// with a `clof-park stall` message, which the oracle converts into a
/// failure; the deleted-wake mutant dies here within milliseconds.
#[cfg(all(feature = "park", any(test, feature = "testkit")))]
pub mod testkit {
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Timed-wait quantum test builds use instead of sleeping forever.
    pub const WAIT_TIMEOUT_NS: u64 = 2_000_000;

    /// Default rescue budget before the stall panic.
    pub const DEFAULT_STALL_BOUND: u32 = 4;

    static STALL_BOUND: AtomicU32 = AtomicU32::new(DEFAULT_STALL_BOUND);
    static RESCUES: AtomicU32 = AtomicU32::new(0);

    /// Sets the rescue budget (and forgets rescues seen so far).
    pub fn set_stall_bound(bound: u32) {
        STALL_BOUND.store(bound.max(1), Ordering::SeqCst);
        RESCUES.store(0, Ordering::SeqCst);
    }

    /// Timeout rescues observed since the last reset.
    pub fn rescues() -> u32 {
        RESCUES.load(Ordering::SeqCst)
    }

    /// Forgets recorded rescues (test hygiene between cases).
    pub fn reset_rescues() {
        RESCUES.store(0, Ordering::SeqCst);
    }

    pub(crate) fn record_rescue() {
        let n = RESCUES.fetch_add(1, Ordering::SeqCst) + 1;
        let bound = STALL_BOUND.load(Ordering::Relaxed);
        if n >= bound {
            panic!(
                "clof-park stall: {n} timeout rescue(s) — a parked waiter's \
                 condition came true but no releaser-side wake was issued \
                 (deleted-wake bug class)"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The futex backend.
// ---------------------------------------------------------------------

#[cfg(feature = "park")]
mod futex {
    #![allow(clippy::missing_safety_doc)]

    pub(super) const NATIVE: bool = cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ));

    /// How a [`wait`] came back. The backend never invokes caller code
    /// (conditions stay with the caller — see `ParkSpot::wait_until`'s
    /// purity contract); it only reports what the kernel said.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Unblock {
        /// A `FUTEX_WAKE` dequeued this thread: the waker counted us
        /// (and, for `ParkSpot`, consumed our parked announce).
        Woken,
        /// Stale expected value, signal, or a degraded-nap expiry — no
        /// waker counted us; the waiter retracts its own announce.
        Spurious,
        /// The bounded test-build sleep expired (native futex test
        /// builds only); the caller runs the stall-detector rescue
        /// check.
        #[cfg(any(test, feature = "testkit"))]
        TimedOut,
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod imp {
        use std::sync::atomic::AtomicU32;

        const FUTEX_WAIT: u64 = 0;
        const FUTEX_WAKE: u64 = 1;
        const FUTEX_PRIVATE_FLAG: u64 = 128;

        const EAGAIN: isize = -11;
        const EINTR: isize = -4;
        #[cfg(any(test, feature = "testkit"))]
        const ETIMEDOUT: isize = -110;

        /// Relative timeout for `FUTEX_WAIT` (the kernel's timespec ABI
        /// on both supported 64-bit targets).
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }

        #[cfg(target_arch = "x86_64")]
        #[inline]
        unsafe fn sys_futex(uaddr: *const u32, op: u64, val: u32, timeout: *const Timespec) -> isize {
            let ret: isize;
            core::arch::asm!(
                "syscall",
                inlateout("rax") 202u64 => ret, // __NR_futex
                in("rdi") uaddr,
                in("rsi") op,
                in("rdx") val as u64,
                in("r10") timeout,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            ret
        }

        #[cfg(target_arch = "aarch64")]
        #[inline]
        unsafe fn sys_futex(uaddr: *const u32, op: u64, val: u32, timeout: *const Timespec) -> isize {
            let ret: isize;
            core::arch::asm!(
                "svc 0",
                in("x8") 98u64, // __NR_futex
                inlateout("x0") uaddr as u64 => ret,
                in("x1") op,
                in("x2") val as u64,
                in("x3") timeout,
                options(nostack),
            );
            ret
        }

        /// Sleeps while `*word == expected`. Production builds sleep
        /// untimed; test builds use a bounded timeout so the caller can
        /// run the stall detector's rescue check on expiry.
        ///
        /// A plain 0 return from the kernel means a `FUTEX_WAKE`
        /// dequeued this thread; a signal or stale expected value means
        /// no waker counted us — the caller uses the distinction to
        /// decide who retracts the parked announce.
        pub(crate) fn wait(word: &AtomicU32, expected: u32) -> super::Unblock {
            #[cfg(not(any(test, feature = "testkit")))]
            {
                let r = unsafe {
                    sys_futex(
                        word.as_ptr(),
                        FUTEX_WAIT | FUTEX_PRIVATE_FLAG,
                        expected,
                        std::ptr::null(),
                    )
                };
                match r {
                    0 => super::Unblock::Woken,
                    EAGAIN | EINTR => super::Unblock::Spurious,
                    e => panic!("{}: futex wait failed ({e})", super::super::PARK_MARKER),
                }
            }
            #[cfg(any(test, feature = "testkit"))]
            {
                let ts = Timespec {
                    tv_sec: 0,
                    tv_nsec: super::super::testkit::WAIT_TIMEOUT_NS as i64,
                };
                let r = unsafe {
                    sys_futex(word.as_ptr(), FUTEX_WAIT | FUTEX_PRIVATE_FLAG, expected, &ts)
                };
                match r {
                    0 => super::Unblock::Woken,
                    EAGAIN | EINTR => super::Unblock::Spurious,
                    ETIMEDOUT => super::Unblock::TimedOut,
                    e => panic!("{}: futex wait failed ({e})", super::super::PARK_MARKER),
                }
            }
        }

        /// Wakes up to `n` sleepers on `addr`. Never dereferences.
        pub(crate) unsafe fn wake_addr(addr: *const u32, n: u32) {
            let r = sys_futex(addr, FUTEX_WAKE | FUTEX_PRIVATE_FLAG, n, std::ptr::null());
            if r < 0 {
                panic!("{}: futex wake failed ({r})", super::super::PARK_MARKER);
            }
        }

        /// Wakes up to `n` sleepers on `word`, returning how many
        /// threads the kernel actually dequeued.
        pub(crate) fn wake(word: &AtomicU32, n: u32) -> u32 {
            let r = unsafe {
                sys_futex(
                    word.as_ptr(),
                    FUTEX_WAKE | FUTEX_PRIVATE_FLAG,
                    n,
                    std::ptr::null(),
                )
            };
            if r < 0 {
                panic!("{}: futex wake failed ({r})", super::super::PARK_MARKER);
            }
            r as u32
        }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    mod imp {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::time::Duration;

        /// Degraded parking: a bounded nap instead of a futex sleep.
        /// The caller's outer loop re-checks on expiry, so no wake side
        /// is needed — waiters poll at ~10 kHz while blocked, which
        /// still frees the core for the lock owner. Nappers are never
        /// dequeued by a waker, so this always reports `Spurious` (the
        /// waiter retracts its own announce); it never reports
        /// `TimedOut`, which keeps the stall detector off degraded
        /// hosts where timeouts are routine rather than evidence.
        pub(crate) fn wait(word: &AtomicU32, expected: u32) -> super::Unblock {
            if word.load(Ordering::Acquire) != expected {
                return super::Unblock::Spurious;
            }
            std::thread::park_timeout(Duration::from_micros(100));
            super::Unblock::Spurious
        }

        pub(crate) unsafe fn wake_addr(_addr: *const u32, _n: u32) {}

        pub(crate) fn wake(_word: &AtomicU32, _n: u32) -> u32 {
            0
        }
    }

    pub(super) use imp::{wait, wake, wake_addr};
}

// ---------------------------------------------------------------------
// Asymmetric Dekker barrier: free releases, waiter pays.
// ---------------------------------------------------------------------

/// The sleep/wake race needs a StoreLoad barrier between the releaser's
/// condition-publish store and its read of the `parked` count — but a
/// symmetric `SeqCst` fence (or `SeqCst` publish) taxes *every* release
/// ~10 ns for a race that only matters when someone is about to sleep.
/// This module makes the barrier asymmetric: releases run plain
/// Release-store + Relaxed-load, and the *waiter* — already on a
/// syscall-bound path — issues `membarrier(PRIVATE_EXPEDITED)`, which
/// IPIs every core running a thread of this process into a full barrier.
/// If the releaser's `parked` read had already committed when the IPI
/// landed, the same barrier flushed its publish store, so the waiter's
/// post-membarrier re-check sees the condition; otherwise the read
/// happens after the waiter's announce and the releaser wakes. Same
/// guarantee as two `SeqCst` fences, paid only by the side that sleeps
/// (the folly `AsymmetricMemoryBarrier` / .NET `FlushProcessWriteBuffers`
/// pattern). Hosts without the expedited command fall back to symmetric
/// fences on both sides.
#[cfg(feature = "park")]
mod asym {
    use std::sync::atomic::{AtomicU8, Ordering};

    const UNKNOWN: u8 = 0;
    const NATIVE: u8 = 1;
    const FALLBACK: u8 = 2;

    /// One-shot probe result; transitions `UNKNOWN` → one of the other
    /// two exactly once, so waiters and releasers can never disagree on
    /// which protocol is live (a stale `UNKNOWN` read just takes the
    /// conservative fence).
    static STATE: AtomicU8 = AtomicU8::new(UNKNOWN);

    /// Releaser side: runs before the `parked` read, after the
    /// condition-publish store.
    #[inline]
    pub(super) fn light() {
        match STATE.load(Ordering::Relaxed) {
            NATIVE => {} // waiters' membarrier carries the ordering
            FALLBACK => std::sync::atomic::fence(Ordering::SeqCst),
            _ => light_cold(),
        }
    }

    #[cold]
    fn light_cold() {
        init();
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Waiter side: runs between the `parked` announce and the condition
    /// re-check. Cold by construction — callers only get here with an
    /// exhausted spin budget, about to enter the kernel anyway.
    pub(super) fn heavy() {
        let state = match STATE.load(Ordering::Relaxed) {
            UNKNOWN => init(),
            s => s,
        };
        if state == NATIVE {
            imp::expedited();
        } else {
            std::sync::atomic::fence(Ordering::SeqCst);
        }
    }

    /// Probes and (if available) registers the expedited command.
    /// Registration is per-process and idempotent, so racing
    /// initializers all land on the same value.
    #[cold]
    fn init() -> u8 {
        let state = if imp::register() { NATIVE } else { FALLBACK };
        STATE.store(state, Ordering::Relaxed);
        state
    }

    /// Whether the one-syscall probe found the expedited command (for
    /// diagnostics; forced by the first park or wake).
    pub(super) fn is_native() -> bool {
        let state = match STATE.load(Ordering::Relaxed) {
            UNKNOWN => init(),
            s => s,
        };
        state == NATIVE
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod imp {
        const MEMBARRIER_CMD_QUERY: u64 = 0;
        const MEMBARRIER_CMD_PRIVATE_EXPEDITED: u64 = 1 << 3;
        const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED: u64 = 1 << 4;

        #[cfg(target_arch = "x86_64")]
        #[inline]
        unsafe fn sys_membarrier(cmd: u64) -> isize {
            let ret: isize;
            core::arch::asm!(
                "syscall",
                inlateout("rax") 324u64 => ret, // __NR_membarrier
                in("rdi") cmd,
                in("rsi") 0u64, // flags
                in("rdx") 0u64, // cpu_id (unused without RSEQ flag)
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            ret
        }

        #[cfg(target_arch = "aarch64")]
        #[inline]
        unsafe fn sys_membarrier(cmd: u64) -> isize {
            let ret: isize;
            core::arch::asm!(
                "svc 0",
                in("x8") 283u64, // __NR_membarrier
                inlateout("x0") cmd => ret,
                in("x1") 0u64, // flags
                in("x2") 0u64, // cpu_id
                options(nostack),
            );
            ret
        }

        /// Probes for and registers the private-expedited command.
        pub(super) fn register() -> bool {
            let mask = unsafe { sys_membarrier(MEMBARRIER_CMD_QUERY) };
            if mask < 0 || (mask as u64) & MEMBARRIER_CMD_PRIVATE_EXPEDITED == 0 {
                return false;
            }
            unsafe { sys_membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) == 0 }
        }

        /// Full barrier on every core running a thread of this process.
        /// Only called after a successful [`register`], so a failure
        /// means the protocol's ordering guarantee is gone — fail loudly
        /// like the futex paths do.
        pub(super) fn expedited() {
            let r = unsafe { sys_membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) };
            if r != 0 {
                panic!("{}: membarrier failed ({r})", super::super::PARK_MARKER);
            }
        }
    }

    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    mod imp {
        pub(super) fn register() -> bool {
            false
        }

        pub(super) fn expedited() {
            unreachable!("expedited barrier without a native membarrier")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn waiter_spins_within_budget_then_reports_exhaustion() {
        let mut w = Waiter::new(3);
        assert!(w.spin());
        assert!(w.spin());
        assert!(w.spin());
        assert!(!w.spin(), "budget of 3 exhausts on the fourth round");
        w.reset();
        assert!(w.spin(), "reset restores the budget");
    }

    #[test]
    fn spin_forever_budget_never_exhausts() {
        let mut w = Waiter::new(SPIN_FOREVER);
        for _ in 0..10_000 {
            assert!(w.spin());
        }
    }

    #[test]
    fn wait_word_handoff_spin_only() {
        let word = Arc::new(WaitWord::new_wait());
        let w2 = Arc::clone(&word);
        let t = std::thread::spawn(move || w2.wait(SPIN_FOREVER));
        std::thread::yield_now();
        unsafe { WaitWord::release_raw(&*word) };
        t.join().expect("waiter returns after release");
        assert!(word.is_go());
    }

    #[cfg(feature = "park")]
    #[test]
    fn wait_word_parks_and_is_woken() {
        testkit::reset_rescues();
        let word = Arc::new(WaitWord::new_wait());
        let parks_before = parks();
        let w2 = Arc::clone(&word);
        // Budget 0: the waiter parks immediately.
        let t = std::thread::spawn(move || w2.wait(0));
        // Give the waiter time to actually block.
        std::thread::sleep(std::time::Duration::from_millis(5));
        unsafe { WaitWord::release_raw(&*word) };
        t.join().expect("parked waiter returns after release");
        assert!(parks() > parks_before, "the waiter really parked");
        assert_eq!(testkit::rescues(), 0, "no rescue on a correct hand-off");
    }

    #[cfg(feature = "park")]
    #[test]
    fn asym_barrier_probe_is_stable() {
        // Forces the membarrier probe and checks it settles on one
        // answer; which answer depends on the host kernel, and both
        // protocol modes are exercised by the park/wake tests around
        // this one in whichever mode the probe picked.
        let first = has_asym_barrier();
        for _ in 0..3 {
            assert_eq!(first, has_asym_barrier(), "probe result is stable");
        }
    }

    #[cfg(feature = "park")]
    #[test]
    fn park_spot_wakes_parked_waiter() {
        testkit::reset_rescues();
        let spot = Arc::new(ParkSpot::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (s2, f2) = (Arc::clone(&spot), Arc::clone(&flag));
        let t = std::thread::spawn(move || {
            s2.wait_until(0, || f2.load(Ordering::Acquire));
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        flag.store(true, Ordering::Release);
        spot.wake_one();
        t.join().expect("waiter observes the condition");
        assert_eq!(testkit::rescues(), 0, "no rescue on a correct wake");
    }

    #[cfg(feature = "park")]
    #[test]
    fn park_spot_consuming_cond_is_never_swallowed() {
        // Defence in depth for the purity contract: a condition that can
        // fire only once (a TAS-like consuming step, which callers are
        // told to keep out of `wait_until`) must still not be stranded.
        // Budget 0 sends the waiter straight into `park`, whose
        // pre-sleep re-check is the second invocation; the old code
        // discarded that `true` and re-invoked (now false) forever.
        let spot = ParkSpot::new();
        let mut calls = 0u32;
        spot.wait_until(0, || {
            calls += 1;
            calls == 2
        });
        assert_eq!(calls, 2, "the true result propagated without a re-call");
        assert_eq!(spot.parked.load(Ordering::SeqCst), 0);
    }

    #[cfg(feature = "park")]
    #[test]
    fn park_spot_cond_true_before_sleep_skips_the_kernel() {
        let spot = ParkSpot::new();
        // Condition true from the start: wait_until must return without
        // announcing or sleeping.
        spot.wait_until(0, || true);
        assert_eq!(spot.parked.load(Ordering::SeqCst), 0);
    }
}
