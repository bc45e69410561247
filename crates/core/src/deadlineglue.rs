//! Wires the `clof-locks` abandon/skip recorder hooks into `clof-obs`
//! (compiled only with `obs`).
//!
//! Same shape as [`crate::parkglue`]: the locks crate is
//! dependency-free, so its deadline layer exposes bare function-pointer
//! hooks, and [`install`] points them at the process-global counters in
//! [`clof_obs::deadline`]. No thread-local site channel is needed here
//! — abandons and skips are process-wide rate signals (which lock
//! timed out is already answered by the handle-level timeout, which the
//! composed layers attribute through their own obs), so the glue is
//! just two counter forwards.

use std::sync::Once;

/// Installs the abandon/skip recorders (idempotent, first caller wins —
/// called from every telemetry-enabled lock's constructor).
pub(crate) fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        clof_locks::deadline::set_abandon_recorder(Some(on_abandon));
        clof_locks::deadline::set_skip_recorder(Some(on_skip));
    });
}

fn on_abandon() {
    clof_obs::deadline::record_abandon();
}

fn on_skip() {
    clof_obs::deadline::record_skip();
}
