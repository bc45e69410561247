//! Runtime lock-kind descriptors and enum-dispatched basic locks.

use clof_locks::{
    AndersonContext, AndersonLock, ClhContext, ClhLock, HemContext, Hemlock, HemlockCtr, LockInfo,
    McsContext, McsLock, NoContext, RawLock, TicketLock, TtasLock,
};

use crate::error::ClofError;

/// The basic-lock algorithms known to the generator.
///
/// `Hemlock` vs `HemlockCtr` mirrors the paper's per-architecture choice:
/// "hem on x86 denotes Hemlock with CTR enabled, whereas hem on Armv8
/// denotes Hemlock with CTR disabled" (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockKind {
    /// [`TicketLock`].
    Ticket,
    /// [`McsLock`].
    Mcs,
    /// [`ClhLock`].
    Clh,
    /// [`Hemlock`] (CTR disabled).
    Hemlock,
    /// [`HemlockCtr`] (CTR enabled; x86-appropriate).
    HemlockCtr,
    /// [`AndersonLock`] (array-based queue lock).
    Anderson,
    /// [`TtasLock`] (unfair).
    Ttas,
}

impl LockKind {
    /// Every kind, fair first.
    pub const ALL: [LockKind; 7] = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Hemlock,
        LockKind::HemlockCtr,
        LockKind::Anderson,
        LockKind::Ttas,
    ];

    /// The paper's basic-lock set for Armv8 (§5.2): tkt, mcs, clh, hem
    /// (CTR disabled — it livelocks on LL/SC machines).
    pub const PAPER_ARM: [LockKind; 4] = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Hemlock,
    ];

    /// The paper's basic-lock set for x86 (§5.2): tkt, mcs, clh, hem
    /// (CTR enabled).
    pub const PAPER_X86: [LockKind; 4] = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::HemlockCtr,
    ];

    /// Capability metadata of this kind.
    pub fn info(self) -> LockInfo {
        match self {
            LockKind::Ticket => TicketLock::INFO,
            LockKind::Mcs => McsLock::INFO,
            LockKind::Clh => ClhLock::INFO,
            LockKind::Hemlock => Hemlock::INFO,
            LockKind::HemlockCtr => HemlockCtr::INFO,
            LockKind::Anderson => AndersonLock::INFO,
            LockKind::Ttas => TtasLock::INFO,
        }
    }

    /// Whether the algorithm is starvation-free.
    pub fn is_fair(self) -> bool {
        self.info().fair
    }

    /// Parses the paper's short names (`tkt`, `mcs`, `clh`, `hem`,
    /// `hem-ctr`, `anderson`, `ttas`).
    pub fn parse(name: &str) -> Result<Self, ClofError> {
        LockKind::ALL
            .into_iter()
            .find(|k| k.info().name == name)
            .ok_or_else(|| ClofError::UnknownLock {
                name: name.to_string(),
            })
    }
}

/// A basic lock dispatched by enum `match` — the runtime counterpart of
/// the static generics, used by [`DynClofLock`](crate::DynClofLock) to
/// assemble any of the `N^M` generated compositions without `N^M`
/// monomorphizations. As in the paper's C implementation, there are no
/// virtual function pointers on the hot path.
#[derive(Debug)]
pub enum AnyLock {
    /// Ticketlock instance.
    Ticket(TicketLock),
    /// MCS instance.
    Mcs(McsLock),
    /// CLH instance.
    Clh(ClhLock),
    /// Hemlock instance.
    Hemlock(Hemlock),
    /// Hemlock-CTR instance.
    HemlockCtr(HemlockCtr),
    /// Anderson array-lock instance.
    Anderson(AndersonLock),
    /// TTAS instance.
    Ttas(TtasLock),
}

/// Context matching an [`AnyLock`] variant.
#[derive(Debug)]
pub enum AnyContext {
    /// For context-free locks (tkt/ttas).
    None(NoContext),
    /// MCS queue node.
    Mcs(McsContext),
    /// CLH node pair.
    Clh(ClhContext),
    /// Hemlock grant cell.
    Hem(HemContext),
    /// Anderson slot index.
    Anderson(AndersonContext),
}

/// Compile-time downcast from the enum-dispatched lock and context to a
/// concrete [`RawLock`] type — the glue the monomorphized fast-dispatch
/// tier (`dynlock`) uses to re-type an already-built enum node tree so
/// the finalist compositions run without per-op `match`es.
pub(crate) trait TypedLock: RawLock {
    /// The concrete lock inside `any`, if the variant matches.
    fn from_any(any: &AnyLock) -> Option<&Self>;

    /// The concrete context inside `any`, if the variant matches.
    fn ctx_from_any(any: &mut AnyContext) -> Option<&mut Self::Context>;
}

macro_rules! typed_lock {
    ($ty:ty, $lockvar:ident, $ctxvar:ident) => {
        impl TypedLock for $ty {
            #[inline]
            fn from_any(any: &AnyLock) -> Option<&Self> {
                match any {
                    AnyLock::$lockvar(lock) => Some(lock),
                    _ => None,
                }
            }

            #[inline]
            fn ctx_from_any(any: &mut AnyContext) -> Option<&mut Self::Context> {
                match any {
                    AnyContext::$ctxvar(ctx) => Some(ctx),
                    _ => None,
                }
            }
        }
    };
}

typed_lock!(TicketLock, Ticket, None);
typed_lock!(TtasLock, Ttas, None);
typed_lock!(McsLock, Mcs, Mcs);
typed_lock!(ClhLock, Clh, Clh);
typed_lock!(Hemlock, Hemlock, Hem);
typed_lock!(HemlockCtr, HemlockCtr, Hem);
typed_lock!(AndersonLock, Anderson, Anderson);

macro_rules! dispatch {
    ($self:expr, $ctx:expr, $lock:ident, $c:ident => $body:expr) => {
        match ($self, $ctx) {
            (AnyLock::Ticket($lock), AnyContext::None($c)) => $body,
            (AnyLock::Ttas($lock), AnyContext::None($c)) => $body,
            (AnyLock::Mcs($lock), AnyContext::Mcs($c)) => $body,
            (AnyLock::Clh($lock), AnyContext::Clh($c)) => $body,
            (AnyLock::Hemlock($lock), AnyContext::Hem($c)) => $body,
            (AnyLock::HemlockCtr($lock), AnyContext::Hem($c)) => $body,
            (AnyLock::Anderson($lock), AnyContext::Anderson($c)) => $body,
            _ => unreachable!("context kind does not match lock kind"),
        }
    };
}

impl AnyLock {
    /// Instantiates an unlocked lock of `kind`.
    pub fn new(kind: LockKind) -> Self {
        match kind {
            LockKind::Ticket => AnyLock::Ticket(TicketLock::default()),
            LockKind::Mcs => AnyLock::Mcs(McsLock::default()),
            LockKind::Clh => AnyLock::Clh(ClhLock::default()),
            LockKind::Hemlock => AnyLock::Hemlock(Hemlock::default()),
            LockKind::HemlockCtr => AnyLock::HemlockCtr(HemlockCtr::default()),
            LockKind::Anderson => AnyLock::Anderson(AndersonLock::default()),
            LockKind::Ttas => AnyLock::Ttas(TtasLock::default()),
        }
    }

    /// The kind of this instance.
    pub fn kind(&self) -> LockKind {
        match self {
            AnyLock::Ticket(_) => LockKind::Ticket,
            AnyLock::Mcs(_) => LockKind::Mcs,
            AnyLock::Clh(_) => LockKind::Clh,
            AnyLock::Hemlock(_) => LockKind::Hemlock,
            AnyLock::HemlockCtr(_) => LockKind::HemlockCtr,
            AnyLock::Anderson(_) => LockKind::Anderson,
            AnyLock::Ttas(_) => LockKind::Ttas,
        }
    }

    /// Creates a context suitable for this lock.
    pub fn new_context(&self) -> AnyContext {
        match self {
            AnyLock::Ticket(_) | AnyLock::Ttas(_) => AnyContext::None(NoContext),
            AnyLock::Mcs(_) => AnyContext::Mcs(McsContext::default()),
            AnyLock::Anderson(_) => AnyContext::Anderson(AndersonContext::default()),
            AnyLock::Clh(_) => AnyContext::Clh(ClhContext::default()),
            AnyLock::Hemlock(_) | AnyLock::HemlockCtr(_) => AnyContext::Hem(HemContext::default()),
        }
    }

    /// Acquires through the matching context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not created for this lock's kind.
    #[inline]
    pub fn acquire(&self, ctx: &mut AnyContext) {
        dispatch!(self, ctx, lock, c => lock.acquire(c));
    }

    /// Acquires with a bounded spin budget (spin-then-park); see
    /// [`RawLock::acquire_budgeted`]. Kinds without a parking path
    /// (Hemlock, and every kind without the `park` feature) ignore the
    /// budget and spin.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not created for this lock's kind.
    #[inline]
    pub fn acquire_budgeted(&self, ctx: &mut AnyContext, budget: u32) {
        dispatch!(self, ctx, lock, c => lock.acquire_budgeted(c, budget));
    }

    /// [`acquire_budgeted`](Self::acquire_budgeted) that also reports
    /// whether it had to wait; see [`RawLock::acquire_reporting`].
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not created for this lock's kind.
    #[inline]
    pub fn acquire_reporting(&self, ctx: &mut AnyContext, budget: u32) -> bool {
        dispatch!(self, ctx, lock, c => lock.acquire_reporting(c, budget))
    }

    /// Attempts to acquire, giving up cleanly once `deadline` passes;
    /// see [`RawLock::try_acquire_until`]. Returns `true` on acquire
    /// (including a grant racing the clock at the deadline edge) and
    /// `false` on timeout, after which the context is clean and no
    /// queue position is left live.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not created for this lock's kind.
    #[inline]
    pub fn try_acquire_until(&self, ctx: &mut AnyContext, deadline: std::time::Instant) -> bool {
        dispatch!(self, ctx, lock, c => lock.try_acquire_until(c, deadline))
    }

    /// Releases through the matching context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not created for this lock's kind.
    #[inline]
    pub fn release(&self, ctx: &mut AnyContext) {
        dispatch!(self, ctx, lock, c => lock.release(c));
    }

    /// Native waiter hint, if the algorithm provides one.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not created for this lock's kind.
    #[inline]
    pub fn has_waiters_hint(&self, ctx: &AnyContext) -> Option<bool> {
        dispatch!(self, ctx, lock, c => lock.has_waiters_hint(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_all_kinds() {
        for kind in LockKind::ALL {
            assert_eq!(LockKind::parse(kind.info().name).unwrap(), kind);
        }
        assert!(LockKind::parse("nope").is_err());
    }

    #[test]
    fn paper_sets_are_fair() {
        assert!(LockKind::PAPER_ARM.iter().all(|k| k.is_fair()));
        assert!(LockKind::PAPER_X86.iter().all(|k| k.is_fair()));
    }

    #[test]
    fn any_lock_roundtrip_every_kind() {
        for kind in LockKind::ALL {
            let lock = AnyLock::new(kind);
            assert_eq!(lock.kind(), kind);
            let mut ctx = lock.new_context();
            for _ in 0..10 {
                lock.acquire(&mut ctx);
                lock.release(&mut ctx);
            }
        }
    }

    #[test]
    fn hint_present_for_queue_and_ticket_locks() {
        for kind in [
            LockKind::Ticket,
            LockKind::Mcs,
            LockKind::Clh,
            LockKind::Hemlock,
        ] {
            let lock = AnyLock::new(kind);
            let mut ctx = lock.new_context();
            lock.acquire(&mut ctx);
            assert_eq!(lock.has_waiters_hint(&ctx), Some(false), "{kind:?}");
            lock.release(&mut ctx);
        }
        let lock = AnyLock::new(LockKind::Ttas);
        let ctx = lock.new_context();
        assert_eq!(lock.has_waiters_hint(&ctx), None);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_context_panics() {
        let lock = AnyLock::new(LockKind::Mcs);
        let other = AnyLock::new(LockKind::Clh);
        let mut wrong = other.new_context();
        lock.acquire(&mut wrong);
    }

    #[test]
    fn contention_through_enum_dispatch() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let lock = Arc::new(AnyLock::new(LockKind::Mcs));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = lock.new_context();
                for _ in 0..1000 {
                    lock.acquire(&mut ctx);
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.release(&mut ctx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }
}
