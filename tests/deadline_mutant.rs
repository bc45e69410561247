//! Mutant-kill suite for the abandonment protocol: delete the
//! abandoned-node skip in the MCS release path and prove the suite
//! notices.
//!
//! The mutant (`clof_locks::deadline::mutant::delete_abandoned_skip`)
//! makes a releaser whose successor abandoned behave as if that
//! successor took the lock: the grant — and the whole queue behind the
//! abandoned node — is silently dropped. That is exactly the bug class
//! node abandonment risks: the timed-out waiter is gone, so nobody is
//! left to move the hand-off forward, and the lock wedges for good.
//!
//! The scenario is single-threaded and fully deterministic: MCS
//! contexts are per-handle, not per-thread, so one thread can hold
//! through one context and time out through another. Armed, the
//! post-release probe must time out against a wedged lock; disarmed,
//! the identical scenario reclaims the node (skip counter moves) and
//! the probe wins immediately.
//!
//! One `#[test]` on purpose: the mutant switch is process-global, so
//! the armed and control phases must run serially in their own binary.

use std::time::{Duration, Instant};

use clof_locks::deadline::{abandons, mutant, skips};
use clof_locks::{McsContext, McsLock, RawLock};

/// Runs holder → timed-out waiter → release → bounded probe on a fresh
/// MCS lock; returns whether the probe acquired, and whether the lock
/// still has a queue once the probe is done with it.
fn abandon_then_release_then_probe(probe_budget: Duration) -> (bool, bool) {
    let lock = McsLock::default();
    let mut holder = McsContext::default();
    let mut quitter = McsContext::default();
    let mut prober = McsContext::default();

    lock.acquire(&mut holder);
    let abandons_before = abandons();
    let won = lock.try_acquire_until(&mut quitter, Instant::now() + Duration::from_millis(5));
    assert!(!won, "the lock is held; the waiter must time out");
    assert!(
        abandons() > abandons_before,
        "the timed-out waiter must abandon its queue node"
    );

    // The release decides what to do with the abandoned successor —
    // this is the line the mutant deletes.
    lock.release(&mut holder);

    let probe_won = lock.try_acquire_until(&mut prober, Instant::now() + probe_budget);
    if probe_won {
        lock.release(&mut prober);
    }
    (probe_won, lock.is_locked())
}

#[test]
fn deleted_abandoned_skip_mutant_wedges_and_control_recovers() {
    // Phase 1 — mutant armed: the grant dies inside the abandoned node,
    // so the lock is wedged and a generously-budgeted probe times out.
    mutant::delete_abandoned_skip(true);
    let skips_before = skips();
    let (probe_won, queued) = abandon_then_release_then_probe(Duration::from_millis(250));
    // Disarm before asserting, so a failure here can't poison later runs.
    mutant::delete_abandoned_skip(false);
    assert!(
        !probe_won,
        "deleted-skip mutant escaped: the probe acquired a lock whose \
         hand-off died in an abandoned node"
    );
    assert_eq!(
        skips(),
        skips_before,
        "the mutant deletes the skip, so no reclaim may be counted"
    );
    assert!(queued, "the mutant deletes the skip, so the queue stays wedged");

    // Phase 2 — control, mutant disarmed: the identical scenario skips
    // and reclaims the abandoned node, and the probe wins at once.
    let skips_before = skips();
    let (probe_won, queued) = abandon_then_release_then_probe(Duration::from_secs(5));
    assert!(
        probe_won,
        "healthy release must reclaim the abandoned node and free the lock"
    );
    assert!(
        !queued,
        "the abandoned node was reclaimed and the queue drained"
    );
    assert!(
        skips() > skips_before,
        "the releaser-side reclaim must land in the skip counter"
    );
}
