//! The common spinlock interface: the CLoF *context abstraction*.

/// Static capability description of a lock algorithm.
///
/// Used by the composition framework for naming generated locks (paper
/// §5.2 notation, e.g. `tkt-clh-tkt`) and by the benchmark harness to
/// regenerate the paper's Table 1 (key-aspect coverage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockInfo {
    /// Short name used in composition strings, e.g. `"tkt"`.
    pub name: &'static str,
    /// Human-readable name, e.g. `"Ticketlock"`.
    pub full_name: &'static str,
    /// Whether the lock is starvation-free (FIFO or equivalent).
    ///
    /// CLoF compositions are fair iff every component is fair
    /// (paper Theorem 4.1); unfair components are rejected by the
    /// generator unless explicitly allowed.
    pub fair: bool,
    /// Whether waiters spin on thread-local memory (MCS/CLH) rather than
    /// on a single shared location (Ticketlock/TTAS).
    pub local_spinning: bool,
    /// Whether the lock requires a per-thread context object
    /// (`CtxLockType` in the paper's grammar).
    pub needs_context: bool,
    /// Whether [`RawLock::has_waiters_hint`] always returns `Some` for
    /// this algorithm (the paper's optional custom `has_waiters`,
    /// §4.1.2).
    ///
    /// The composition layer uses this constant to skip the generic
    /// read-indicator counter entirely — maintaining `inc_waiters` /
    /// `dec_waiters` when the release path will consult the native hint
    /// anyway is pure wasted coherence traffic. Must agree with the
    /// run-time behaviour of `has_waiters_hint`; `clof-core`'s
    /// `native_hint_matches_info` test pins the two together.
    pub waiter_hint: bool,
}

/// Context of a no-context lock (`NoCtxLockType` in the paper's grammar).
///
/// Zero-sized; exists so that every lock can be driven through the same
/// interface, which is exactly the paper's context-abstraction trick: the
/// generator "initially assumes all locks require a context and eventually
/// removes the context" — in Rust the removal is monomorphization of a
/// zero-sized type.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoContext;

/// A NUMA-oblivious spinlock usable as a CLoF component.
///
/// # Contract
///
/// * **Mutual exclusion**: between a successful [`acquire`] and the
///   matching [`release`], no other `acquire` on the same lock returns.
/// * **Thread-obliviousness**: `release` may be called by a different
///   thread than the one that called `acquire`, provided it passes the
///   *same* context (paper §4.1.3). All locks in this crate satisfy this.
/// * **Context invariant**: a context must not be used for two
///   overlapping acquire/release operations, even on different locks.
///   Taking `&mut Self::Context` enforces this statically for safe code;
///   the composition layer re-establishes it by protocol (only the owner
///   of the low lock touches the high lock's context) and documents the
///   single `unsafe` hand-off it needs.
/// * Contexts must outlive every operation they participate in; a context
///   may be dropped only when no acquire/release using it is in flight
///   and the thread does not hold the lock through it.
///
/// [`acquire`]: RawLock::acquire
/// [`release`]: RawLock::release
pub trait RawLock: Default + Send + Sync + 'static {
    /// Per-slot context. Use [`NoContext`] if none is needed.
    type Context: Default + Send + Sync + 'static;

    /// Capability metadata for this algorithm.
    const INFO: LockInfo;

    /// Acquires the lock, spinning until ownership is obtained.
    fn acquire(&self, ctx: &mut Self::Context);

    /// Acquires the lock with a bounded spin budget: the waiter spins at
    /// most `budget` backoff rounds and then parks until the releaser's
    /// wake (see `clof_locks::park`). A budget of
    /// [`SPIN_FOREVER`](crate::SPIN_FOREVER) is equivalent to
    /// [`acquire`](RawLock::acquire).
    ///
    /// The default implementation ignores the budget and spins; locks
    /// with a parking path override it under the `park` feature. The
    /// composition layer passes each level's topology-derived budget
    /// through here in every build (without `park` that budget is
    /// always `SPIN_FOREVER`), so its level step has one acquire call.
    fn acquire_budgeted(&self, ctx: &mut Self::Context, budget: u32) {
        let _ = budget;
        self.acquire(ctx);
    }

    /// [`acquire_budgeted`](RawLock::acquire_budgeted) that also reports
    /// whether it had to wait: `false` only when the lock's first look
    /// found it free (no predecessor, the caller's ticket already
    /// granted, an unarmed word, a first attempt that won). The answer
    /// falls out of the acquire itself, at no extra memory access.
    /// Telemetry calls this to skip a clock read for a level won without
    /// waiting; a composition without telemetry never does, so its
    /// acquire carries none of the bookkeeping. The default cannot tell
    /// and says `true`.
    fn acquire_reporting(&self, ctx: &mut Self::Context, budget: u32) -> bool {
        self.acquire_budgeted(ctx, budget);
        true
    }

    /// Attempts to acquire the lock, giving up (and fully undoing any
    /// queue state, see `clof_locks::deadline`) once `deadline` passes.
    ///
    /// Returns `true` if acquired — including at the deadline edge,
    /// when a grant races the clock and lands first — and `false` on
    /// timeout. After a `false` return the context is clean and
    /// immediately reusable, and no queue position is left live: queue
    /// locks abandon their node HMCS-T-style (marked for the releaser
    /// to skip and reclaim), slot locks cancel their ticket or wait out
    /// their turn and hand it forward. Deadline waits never park.
    ///
    /// Required, with no default: a default that blocked and reported
    /// `true` would silently turn every caller's timeout into a hang.
    fn try_acquire_until(&self, ctx: &mut Self::Context, deadline: std::time::Instant) -> bool;

    /// Releases the lock.
    ///
    /// Must only be called while the lock is held through `ctx`.
    fn release(&self, ctx: &mut Self::Context);

    /// Lock-specific fast waiter detection (paper §4.1.2).
    ///
    /// Returns `Some(true)` if another thread is certainly waiting to
    /// acquire this lock, `Some(false)` if certainly not, and `None` if
    /// this algorithm cannot tell cheaply (the composition then falls
    /// back to its generic read-indicator counter). `ctx` is the context
    /// through which the *owner* holds the lock.
    fn has_waiters_hint(&self, ctx: &Self::Context) -> Option<bool> {
        let _ = ctx;
        None
    }
}
