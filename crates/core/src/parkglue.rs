//! Wires the `clof-locks` parked-duration recorder hook into the
//! `clof-obs` profiler (compiled only when both `park` and `obs` are on).
//!
//! The locks crate is dependency-free, so its waiting layer exposes a
//! bare function-pointer hook instead of calling telemetry directly:
//! [`install`] points it at the per-site park time of the
//! [`ContentionProfile`]. Site attribution rides a thread-local: the
//! composed acquire path publishes its profiler site id before it starts
//! waiting ([`enter_wait`]) and clears it once the lock is held
//! ([`exit_wait`]) — a park can only happen in between, so the recorder
//! reads the thread-local to attribute the episode to the right site.
//! Process-wide park and wake counts are `clof_locks::park::{parks,
//! wakes}`.
//!
//! [`ContentionProfile`]: clof_obs::profile::ContentionProfile

use std::cell::Cell;
use std::sync::Once;

use clof_obs::registry::INVALID_SITE;

thread_local! {
    /// The profiler site this thread is currently waiting at
    /// ([`INVALID_SITE`] outside a composed acquire).
    static CURRENT_SITE: Cell<u32> = const { Cell::new(INVALID_SITE) };
}

/// Installs the parked-duration recorder (idempotent, first caller
/// wins — called from every telemetry-enabled lock's constructor).
pub(crate) fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| clof_locks::park::set_parked_recorder(Some(on_parked)));
}

/// Publishes the site id this thread is about to wait at.
#[inline]
pub(crate) fn enter_wait(site: u32) {
    CURRENT_SITE.with(|s| s.set(site));
}

/// Clears the published site (the acquire completed; any later park
/// would belong to a different site).
#[inline]
pub(crate) fn exit_wait() {
    CURRENT_SITE.with(|s| s.set(INVALID_SITE));
}

fn on_parked(ns: u64) {
    // INVALID_SITE attribution is dropped by the profiler's id guard.
    clof_obs::profile::global().record_park(CURRENT_SITE.with(Cell::get), ns);
}
