//! Deadline-bounded acquisition, part of every lock's protocol.
//!
//! A plain `acquire` blocks forever — right for the paper's
//! dedicated-core experiments, wrong for a service that must bound its
//! worst case: one stalled (or panicked) holder wedges every waiter
//! transitively. This module holds the shared machinery behind
//! [`RawLock::try_acquire_until`](crate::RawLock::try_acquire_until):
//!
//! * [`DeadlinePoll`] — the per-wait expiry accountant: a cheap
//!   `expired()` check folded into each lock's wait loop, which also
//!   consults the [`forced`] injection stream so the testkit can open
//!   abandonment windows deterministically.
//! * Abandon/skip accounting ([`abandons`], [`skips`]), mirroring the
//!   park layer's counters.
//! * The [`mutant`] switch for the mutant-kill suite (deleting the
//!   abandoned-node skip in the MCS release path).
//!
//! The abandonment protocols themselves live with their locks, and are
//! always compiled: a blocking waiter must survive a neighbour that
//! gives up, so each lock has exactly one protocol that handles both:
//!
//! * **MCS/CLH/Hemlock** (queue locks): HMCS-T-style *node
//!   abandonment* (Chabbi et al.) — the timed-out waiter marks its
//!   queue node abandoned and leaves; a later releaser (or redirected
//!   successor) skips and reclaims the node. The waiter's context gets
//!   a fresh node, so a timeout never blocks and never leaks a live
//!   queue position. The skip sits in a `#[cold]` continuation that
//!   the blocking path reaches with one bit test on a word it already
//!   reads (the MCS grant's swapped-out word, the CLH predecessor word,
//!   the Hemlock grant).
//! * **Ticket/Anderson** (slot locks): a granted slot cannot be
//!   abandoned — FIFO hand-off is positional — so a timed-out waiter
//!   first tries to *cancel* its ticket (a tail CAS, possible only for
//!   the youngest ticket) and otherwise waits for its turn and
//!   immediately hands it forward (release-on-grant).
//! * **TTAS** (unqueued): plain bounded retry; there is no queue state
//!   to abandon.
//!
//! Deadline waits never park, even with the `park` feature: a deadline
//! bounds how long the caller burns, and the bounded spin is itself the
//! timeout mechanism (parking would need a third wake path for a waiter
//! that may stop listening at any moment).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Polls one wait's deadline, folding in forced-timeout injection.
///
/// Each lock's deadline wait loop calls [`expired`](DeadlinePoll::expired)
/// once per spin round. The forced stream fires first so injected
/// timeouts open abandonment windows at schedule points wall clocks
/// almost never hit.
#[derive(Debug)]
pub struct DeadlinePoll {
    deadline: Instant,
    site: &'static str,
}

impl DeadlinePoll {
    /// A poller for one wait, tagged with the lock's injection site.
    #[inline]
    pub fn new(deadline: Instant, site: &'static str) -> Self {
        DeadlinePoll { deadline, site }
    }

    /// Whether this wait's budget is gone (by clock or by injection).
    #[inline]
    pub fn expired(&mut self) -> bool {
        if forced_fire(self.site) {
            return true;
        }
        Instant::now() >= self.deadline
    }
}

// ---------------------------------------------------------------------
// Abandon/skip accounting.
// ---------------------------------------------------------------------

/// Waiter-side bailouts since process start: queue nodes abandoned
/// (MCS/CLH/Hemlock) plus turns handed forward (ticket/Anderson).
pub fn abandons() -> u64 {
    ABANDONS.load(Ordering::Relaxed)
}

/// Releaser-side reclaims since process start: abandoned queue nodes a
/// releaser (or redirected successor) skipped past and freed.
pub fn skips() -> u64 {
    SKIPS.load(Ordering::Relaxed)
}

/// Records one waiter-side bailout originating *outside* the basic
/// locks — a composition layer's own bounded wait (the adaptation
/// baton) gives up through this so all bailouts land in one stream.
/// Basic locks, the fast path's TTAS gate included, use the internal
/// hook.
pub fn note_abandon() {
    on_abandon();
}

static ABANDONS: AtomicU64 = AtomicU64::new(0);
static SKIPS: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn on_abandon() {
    ABANDONS.fetch_add(1, Ordering::Relaxed);
}

#[inline]
pub(crate) fn on_skip() {
    SKIPS.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Forced-timeout injection (test builds only).
// ---------------------------------------------------------------------

/// Seeded forced-timeout stream, in the style of [`crate::chaos`]: when
/// enabled, each deadline wait round consults a global SplitMix64 stream
/// and, with probability `1/denom`, *pretends the deadline expired* —
/// which is the only way to open abandonment races (a waiter giving up
/// exactly as the grant lands) deterministically on a fast host. The
/// same caveats as chaos apply: decisions are a pure function of seed
/// and global arrival order, so a seed replays a failure class, not an
/// exact trace.
///
/// The plan is process-global but fires only on threads that
/// [`enroll`](forced::enroll)ed: the harness runs tests on parallel
/// threads, and a clock-sensitive test running beside an injecting one
/// must keep its real deadlines.
#[cfg(any(test, feature = "testkit"))]
pub mod forced {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

    thread_local! {
        static ENROLLED: Cell<bool> = const { Cell::new(false) };
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static STATE: AtomicU64 = AtomicU64::new(0);
    /// Forced-fire probability is `1/DENOM` per wait round.
    static DENOM: AtomicU32 = AtomicU32::new(64);
    /// Number of timeouts actually forced (diagnostics).
    static FIRES: AtomicU64 = AtomicU64::new(0);

    /// SplitMix64 output function over a Weyl-sequence state.
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Opts the calling thread into (`true`) or out of the injection
    /// stream; returns the previous setting. Worker threads of an
    /// injecting run enroll themselves and end with the run.
    pub fn enroll(on: bool) -> bool {
        ENROLLED.with(|e| e.replace(on))
    }

    /// Enables injection: each wait round of an enrolled thread forces
    /// a timeout with probability `1/denom`.
    pub fn configure(seed: u64, denom: u32) {
        STATE.store(seed, Ordering::Relaxed);
        DENOM.store(denom.max(1), Ordering::Relaxed);
        FIRES.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Disables injection; polls return to a single relaxed load.
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Whether injection is currently enabled.
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Timeouts forced since the last [`configure`].
    pub fn fires() -> u64 {
        FIRES.load(Ordering::Relaxed)
    }

    #[inline]
    pub(super) fn fire(_site: &'static str) -> bool {
        if !ENABLED.load(Ordering::Relaxed) || !ENROLLED.with(Cell::get) {
            return false;
        }
        fire_cold()
    }

    #[cold]
    fn fire_cold() -> bool {
        let s = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        let z = mix(s);
        let denom = DENOM.load(Ordering::Relaxed) as u64;
        if z % denom != 0 {
            return false;
        }
        FIRES.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// One forced-timeout poll. No-op (false) unless injection is compiled
/// in *and* enabled.
#[inline(always)]
fn forced_fire(site: &'static str) -> bool {
    #[cfg(any(test, feature = "testkit"))]
    {
        forced::fire(site)
    }
    #[cfg(not(any(test, feature = "testkit")))]
    {
        let _ = site;
        false
    }
}

// ---------------------------------------------------------------------
// Mutant hooks (test builds only).
// ---------------------------------------------------------------------

/// Deleted-skip mutant switch for the mutant-kill suite: with the skip
/// deleted, an MCS releaser that grants into an abandoned node simply
/// returns — the hand-off dies with the abandoned waiter and every
/// later waiter wedges. Exactly the bug class the stress oracle and the
/// acceptance deadline bound must catch.
#[cfg(any(test, feature = "testkit"))]
pub mod mutant {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SKIP_DELETED: AtomicBool = AtomicBool::new(false);

    /// Arms (or disarms) the deleted-abandoned-node-skip mutant.
    pub fn delete_abandoned_skip(on: bool) {
        SKIP_DELETED.store(on, Ordering::SeqCst);
    }

    pub(crate) fn abandoned_skip_deleted() -> bool {
        SKIP_DELETED.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn poll_expires_by_clock() {
        let mut p = DeadlinePoll::new(Instant::now() - Duration::from_millis(1), "test-past");
        assert!(p.expired(), "a past deadline is expired");
        let mut p = DeadlinePoll::new(Instant::now() + Duration::from_secs(3600), "test-future");
        assert!(!p.expired(), "a far-future deadline is not expired");
    }

    // One test for the injection lifecycle, not several: the forced
    // stream is global state and the harness runs tests concurrently.
    #[test]
    fn forced_lifecycle_disabled_noop_enabled_fires() {
        forced::disable();
        assert!(!forced::is_enabled());
        let mut p = DeadlinePoll::new(Instant::now() + Duration::from_secs(3600), "test-site");
        for _ in 0..100 {
            assert!(!p.expired());
        }
        forced::configure(7, 2);
        assert!(forced::is_enabled());
        // An enabled plan leaves threads that never enrolled alone.
        for _ in 0..100 {
            assert!(!p.expired(), "forced fire on an unenrolled thread");
        }
        assert!(!forced::enroll(true));
        let mut fired = false;
        for _ in 0..10_000 {
            if p.expired() {
                fired = true;
                break;
            }
        }
        assert!(fired, "no forced timeout in 10k polls at p=1/2");
        assert!(forced::fires() > 0);
        forced::disable();
    }
}
