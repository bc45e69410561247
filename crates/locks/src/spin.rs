//! The one waiting policy shared by every lock in this workspace.

/// Bounded-lateness spin wait that degrades to yielding.
///
/// **Contract** (DESIGN.md §6 has the reasoning and the measurements):
/// while it spins, a waiter polling between [`snooze`](Backoff::snooze)
/// rounds observes a grant within one burst of at most
/// [`HOLD`](Backoff::HOLD) spin hints, *whatever the length of the wait*;
/// after [`SPIN_HINTS`](Backoff::SPIN_HINTS) hints in total every further
/// round is a [`std::thread::yield_now`], so that on an oversubscribed
/// host a spinning waiter cannot keep the lock holder from running.
///
/// Bursts ramp 1, 2, 4, … up to `HOLD` and then hold: waiters here poll a
/// word the holder does not write while it holds, so a longer burst saves
/// nobody traffic and only sees the grant later. The ramp stays because
/// polling every hint right after enqueueing beats the peer back to an
/// empty critical section and turns passes into re-climbs.
///
/// # Examples
///
/// ```
/// use clof_locks::Backoff;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true);
/// let mut backoff = Backoff::new();
/// while !flag.load(Ordering::Acquire) {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    /// Spin hints issued since `new`/`reset`, saturating at `SPIN_HINTS`.
    hints: u32,
}

impl Backoff {
    /// Longest burst of spin hints between two polls: the lateness bound.
    /// 8 and 4 measured equal (EXPERIMENTS.md, "Waiting policy ablation").
    pub const HOLD: u32 = 8;

    /// Spin hints issued before rounds turn into yields.
    pub const SPIN_HINTS: u32 = 255;

    /// Creates a fresh backoff at the start of its ramp.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Waits one round: a burst of at most [`HOLD`](Backoff::HOLD) spin
    /// hints, or a yield once the spin phase is used up.
    #[inline]
    pub fn snooze(&mut self) {
        if self.hints < Self::SPIN_HINTS {
            // 0, 1, 3, 7 hints so far → bursts of 1, 2, 4, 8, then HOLD.
            let hints = (self.hints + 1).min(Self::HOLD);
            burst(hints);
            self.hints += hints;
        } else {
            yield_cpu();
        }
    }

    /// Restarts the ramp and the spin phase.
    #[inline]
    pub fn reset(&mut self) {
        self.hints = 0;
    }

    /// Whether the spin phase is used up and rounds now yield.
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.hints >= Self::SPIN_HINTS
    }
}

/// Spins until `cond` returns `true`, using [`Backoff`].
#[inline]
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    let mut backoff = Backoff::new();
    while !cond() {
        backoff.snooze();
    }
}

/// `hints` spin hints back to back, with no poll in between.
#[inline(always)]
pub(crate) fn burst(hints: u32) {
    #[cfg(any(test, feature = "testkit"))]
    testkit::HINTS.with(|c| c.set(c.get() + u64::from(hints)));
    for _ in 0..hints {
        std::hint::spin_loop();
    }
}

#[inline(always)]
pub(crate) fn yield_cpu() {
    #[cfg(any(test, feature = "testkit"))]
    testkit::YIELDS.with(|c| c.set(c.get() + 1));
    std::thread::yield_now();
}

/// Per-thread counts of what [`Backoff`] actually issued, so tests can
/// check the lateness contract deterministically instead of by timing.
#[cfg(any(test, feature = "testkit"))]
pub mod testkit {
    use std::cell::Cell;

    thread_local! {
        pub(super) static HINTS: Cell<u64> = const { Cell::new(0) };
        pub(super) static YIELDS: Cell<u64> = const { Cell::new(0) };
    }

    /// `(spin hints, yields)` issued through [`Backoff`](super::Backoff)
    /// by the calling thread so far.
    pub fn issued() -> (u64, u64) {
        (HINTS.with(Cell::get), YIELDS.with(Cell::get))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_saturates_to_yielding() {
        let mut b = Backoff::new();
        let (h0, y0) = testkit::issued();
        let mut rounds = 0;
        while !b.is_yielding() {
            b.snooze();
            rounds += 1;
        }
        // 1 + 2 + 4 + 31 × 8 = 255 hints in 34 rounds, none of them a yield.
        assert_eq!(rounds, 34);
        assert_eq!(testkit::issued(), (h0 + u64::from(Backoff::SPIN_HINTS), y0));
        b.snooze();
        assert_eq!(testkit::issued().1, y0 + 1);
        b.reset();
        assert!(!b.is_yielding());
    }

    #[test]
    fn spin_until_observes_concurrent_store() {
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || flag.store(true, Ordering::Release))
        };
        spin_until(|| flag.load(Ordering::Acquire));
        setter.join().unwrap();
    }

    #[test]
    fn spin_until_returns_immediately_when_true() {
        spin_until(|| true);
    }
}
