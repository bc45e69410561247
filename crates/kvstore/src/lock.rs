//! The pluggable-lock layer: one mutex type, many lock algorithms.
//!
//! This is the library analogue of the paper's `LD_PRELOAD` interposition
//! (§5.1.2): the same storage engine runs under any lock by switching a
//! [`LockChoice`], without touching engine code.

use std::cell::UnsafeCell;
use std::sync::Arc;

#[cfg(feature = "adapt")]
use clof::{AdaptHandle, AdaptiveLock};
use clof::{ClofError, ClofParams, DynClofLock, DynHandle, FastClof, FastClofHandle, LockKind};
use clof_baselines::{CnaHandle, CnaLock, HmcsHandle, HmcsLock, ShflHandle, ShflLock};
use clof_topology::{CpuId, Hierarchy};

/// Which lock algorithm guards the store.
#[derive(Debug, Clone)]
pub enum LockChoice {
    /// A CLoF composition (innermost level first), paper notation e.g.
    /// `tkt-clh-tkt`.
    Clof(Vec<LockKind>),
    /// A CLoF composition behind a test-and-set fast path (the paper-§6
    /// extension).
    ClofFast(Vec<LockKind>),
    /// HMCS with the hierarchy's level count and threshold 128.
    Hmcs,
    /// CNA (two-level NUMA-aware).
    Cna,
    /// ShflLock (adapted; two-level NUMA-aware with TAS fast path).
    Shfl,
    /// A single NUMA-oblivious basic lock.
    Basic(LockKind),
    /// `std::sync::Mutex` (OS futex) — the "whatever libc gives you"
    /// baseline.
    Std,
}

enum LockImpl {
    Clof(Arc<DynClofLock>),
    #[cfg(feature = "adapt")]
    Adaptive(Arc<AdaptiveLock>),
    ClofFast(Arc<FastClof>),
    Hmcs(Arc<HmcsLock>),
    Cna(Arc<CnaLock>),
    Shfl(Arc<ShflLock>),
    Std(std::sync::Mutex<()>),
}

/// A mutex protecting store state `T` with any [`LockChoice`].
pub struct DbMutex<T: ?Sized> {
    lock: LockImpl,
    /// Set when a store operation panicked while holding the lock (the
    /// data may be mid-mutation). Kept at this layer so poisoning works
    /// uniformly across every [`LockChoice`], including ones whose raw
    /// lock carries no flag of its own.
    poisoned: std::sync::atomic::AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: All lock variants provide mutual exclusion over `data`.
unsafe impl<T: ?Sized + Send> Send for DbMutex<T> {}
// SAFETY: As above.
unsafe impl<T: ?Sized + Send> Sync for DbMutex<T> {}

impl<T> DbMutex<T> {
    /// Creates the mutex for a machine described by `hierarchy`.
    ///
    /// # Errors
    ///
    /// Propagates CLoF composition errors (wrong level count, unfair
    /// component).
    pub fn new(value: T, hierarchy: &Hierarchy, choice: &LockChoice) -> Result<Self, ClofError> {
        let lock = match choice {
            LockChoice::Clof(kinds) => {
                LockImpl::Clof(Arc::new(DynClofLock::build(hierarchy, kinds)?))
            }
            LockChoice::ClofFast(kinds) => LockImpl::ClofFast(FastClof::build(hierarchy, kinds)?),
            LockChoice::Basic(kind) => {
                let flat = Hierarchy::flat(hierarchy.ncpus()).expect("ncpus > 0");
                LockImpl::Clof(Arc::new(DynClofLock::build_with(
                    &flat,
                    &[*kind],
                    ClofParams::default(),
                    true,
                )?))
            }
            LockChoice::Hmcs => LockImpl::Hmcs(Arc::new(HmcsLock::new(hierarchy, 128))),
            LockChoice::Cna => LockImpl::Cna(Arc::new(CnaLock::new(hierarchy))),
            LockChoice::Shfl => LockImpl::Shfl(Arc::new(ShflLock::new(hierarchy))),
            LockChoice::Std => LockImpl::Std(std::sync::Mutex::new(())),
        };
        Ok(DbMutex {
            lock,
            poisoned: std::sync::atomic::AtomicBool::new(false),
            data: UnsafeCell::new(value),
        })
    }

    /// Consumes the mutex and returns the inner value — the
    /// `Mutex::into_inner` recovery idiom: being able to consume the
    /// mutex proves no handle (and so no holder) remains, so after a
    /// poisoning panic the owner can extract the data, repair or
    /// discard it, and rebuild the store.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Telemetry snapshot of the underlying lock, when it is one that
    /// records telemetry: the CLoF variants ([`LockChoice::Clof`],
    /// [`LockChoice::ClofFast`], [`LockChoice::Basic`]) return per-level
    /// counters and latency distributions; the baselines and
    /// [`LockChoice::Std`] return `None` — their internals are not
    /// instrumented, which is the point of comparing against them.
    #[cfg(feature = "obs")]
    pub fn stats(&self) -> Option<clof::obs::LockSnapshot> {
        match &self.lock {
            LockImpl::Clof(l) => Some(l.obs_snapshot()),
            #[cfg(feature = "adapt")]
            LockImpl::Adaptive(l) => Some(l.obs_snapshot()),
            LockImpl::ClofFast(l) => Some(l.obs_snapshot()),
            LockImpl::Hmcs(_) | LockImpl::Cna(_) | LockImpl::Shfl(_) | LockImpl::Std(_) => None,
        }
    }

    /// The contention-profiler site id of the underlying lock, for the
    /// instrumented CLoF variants (`None` for the baselines and `Std`,
    /// which register no site). Stable across adaptive hot-swaps.
    #[cfg(feature = "obs")]
    pub fn site_id(&self) -> Option<u32> {
        match &self.lock {
            LockImpl::Clof(l) => Some(l.site_id()),
            #[cfg(feature = "adapt")]
            LockImpl::Adaptive(l) => Some(l.site_id()),
            LockImpl::ClofFast(l) => Some(l.site_id()),
            LockImpl::Hmcs(_) | LockImpl::Cna(_) | LockImpl::Shfl(_) | LockImpl::Std(_) => None,
        }
    }

    /// The store lock's row in the process-global contention profile:
    /// wait/hold attribution, traffic, and the per-(level, node)
    /// breakdown. `None` for uninstrumented lock choices and when the
    /// site table was full at construction.
    #[cfg(feature = "obs")]
    pub fn profile(&self) -> Option<clof::obs::SiteProfile> {
        match &self.lock {
            LockImpl::Clof(l) => l.site_profile(),
            #[cfg(feature = "adapt")]
            LockImpl::Adaptive(l) => l.site_profile(),
            LockImpl::ClofFast(l) => l.site_profile(),
            LockImpl::Hmcs(_) | LockImpl::Cna(_) | LockImpl::Shfl(_) | LockImpl::Std(_) => None,
        }
    }

    /// Windowed telemetry: feeds the current [`Self::stats`] snapshot to
    /// `sampler` and returns the rates since the sampler's previous
    /// tick. `None` on the first tick (it only sets the baseline) and
    /// for lock choices that do not record telemetry.
    ///
    /// Keep one [`clof::obs::Sampler`] per observer; it is cumulative
    /// state, not lock state, so independent observers can sample the
    /// same store at different cadences.
    #[cfg(feature = "obs")]
    pub fn stats_window(&self, sampler: &mut clof::obs::Sampler) -> Option<clof::obs::WindowRates> {
        sampler.tick(self.stats()?)
    }

    /// Replaces a [`LockChoice::Clof`] lock with an adaptive wrapper
    /// holding the same composition, so the store's lock can be
    /// hot-swapped at run time via [`Self::adaptive`]. Call before
    /// wrapping the mutex in an [`Arc`] (existing handles would keep
    /// the old lock).
    ///
    /// # Errors
    ///
    /// [`ClofError::AdaptationUnsupported`] for every other lock choice
    /// — only the dynamic CLoF composition can migrate — plus ordinary
    /// composition errors if `hierarchy` does not match the original
    /// build.
    #[cfg(feature = "adapt")]
    pub fn enable_adaptation(self, hierarchy: &Hierarchy) -> Result<Self, ClofError> {
        let DbMutex {
            lock,
            poisoned,
            data,
        } = self;
        let lock = match lock {
            LockImpl::Clof(l) => {
                LockImpl::Adaptive(Arc::new(AdaptiveLock::new(hierarchy, l.composition())?))
            }
            LockImpl::Adaptive(l) => LockImpl::Adaptive(l),
            other => {
                let choice = match other {
                    LockImpl::ClofFast(_) => "clof-fast",
                    LockImpl::Hmcs(_) => "hmcs",
                    LockImpl::Cna(_) => "cna",
                    LockImpl::Shfl(_) => "shfl",
                    LockImpl::Std(_) => "std",
                    LockImpl::Clof(_) | LockImpl::Adaptive(_) => unreachable!(),
                };
                return Err(ClofError::AdaptationUnsupported {
                    choice: choice.into(),
                });
            }
        };
        Ok(DbMutex {
            lock,
            poisoned,
            data,
        })
    }

    /// The adaptive lock behind this mutex, if
    /// [`enable_adaptation`](Self::enable_adaptation) was applied —
    /// hand it to a controller to drive `swap_to`.
    #[cfg(feature = "adapt")]
    pub fn adaptive(&self) -> Option<&Arc<AdaptiveLock>> {
        match &self.lock {
            LockImpl::Adaptive(l) => Some(l),
            _ => None,
        }
    }

    /// A handle for a thread running on `cpu`.
    pub fn handle(self: &Arc<Self>, cpu: CpuId) -> DbHandle<T> {
        let inner = match &self.lock {
            LockImpl::Clof(l) => HandleImpl::Clof(l.handle(cpu)),
            #[cfg(feature = "adapt")]
            LockImpl::Adaptive(l) => HandleImpl::Adaptive(l.handle(cpu)),
            LockImpl::ClofFast(l) => HandleImpl::ClofFast(l.handle(cpu)),
            LockImpl::Hmcs(l) => HandleImpl::Hmcs(l.handle(cpu)),
            LockImpl::Cna(l) => HandleImpl::Cna(l.handle(cpu)),
            LockImpl::Shfl(l) => HandleImpl::Shfl(l.handle(cpu)),
            LockImpl::Std(_) => HandleImpl::Std,
        };
        DbHandle {
            mutex: Arc::clone(self),
            inner,
        }
    }
}

impl<T: ?Sized> DbMutex<T> {
    /// Whether a store operation panicked while holding the lock. Set
    /// by the release guard in [`DbHandle::with`] /
    /// [`DbHandle::try_with_until`]; surfaced as
    /// [`ClofError::Poisoned`] by the deadline-bounded entry points.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Clears the poison flag after the caller has repaired (or chosen
    /// to trust) the store state. For full extraction, use
    /// [`into_inner`](Self::into_inner) instead.
    pub fn clear_poison(&self) {
        self.poisoned
            .store(false, std::sync::atomic::Ordering::Release);
        match &self.lock {
            LockImpl::Clof(l) => l.clear_poison(),
            LockImpl::ClofFast(l) => l.clear_poison(),
            _ => {}
        }
    }

    fn mark_poisoned(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::Release);
        // Mirror into the raw CLoF flag where one exists, so callers
        // holding the raw lock see the event too.
        match &self.lock {
            LockImpl::Clof(l) => l.poison(),
            LockImpl::ClofFast(l) => l.poison(),
            _ => {}
        }
    }
}

enum HandleImpl {
    Clof(DynHandle),
    #[cfg(feature = "adapt")]
    Adaptive(AdaptHandle),
    ClofFast(FastClofHandle),
    Hmcs(HmcsHandle),
    Cna(CnaHandle),
    Shfl(ShflHandle),
    Std,
}

/// Per-thread handle on a [`DbMutex`].
pub struct DbHandle<T: ?Sized> {
    mutex: Arc<DbMutex<T>>,
    inner: HandleImpl,
}

/// Releases the store lock when dropped — on ordinary return *and* on
/// unwind out of the user closure, so a panicking store operation can
/// never strand waiters behind a dead holder. On the unwind path the
/// store is poisoned first, ordered before the release edge the next
/// acquirer synchronizes on.
struct OpGuard<'a, T: ?Sized> {
    inner: &'a mut HandleImpl,
    mutex: &'a DbMutex<T>,
    /// Held alive across the closure for the Std variant; its own drop
    /// is the release.
    std_guard: Option<std::sync::MutexGuard<'a, ()>>,
}

impl<T: ?Sized> Drop for OpGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.mutex.mark_poisoned();
        }
        match &mut *self.inner {
            HandleImpl::Clof(h) => h.release(),
            #[cfg(feature = "adapt")]
            HandleImpl::Adaptive(h) => h.release(),
            HandleImpl::ClofFast(h) => h.release(),
            HandleImpl::Hmcs(h) => h.release(),
            HandleImpl::Cna(h) => h.release(),
            HandleImpl::Shfl(h) => h.release(),
            HandleImpl::Std => drop(self.std_guard.take()),
        }
    }
}

impl<T: ?Sized> DbHandle<T> {
    /// Runs `f` under the lock with exclusive access to the data.
    pub fn with<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let DbHandle { mutex, inner } = self;
        let mutex: &DbMutex<T> = mutex;
        let mut std_guard = None;
        match (&mut *inner, &mutex.lock) {
            (HandleImpl::Clof(h), _) => h.acquire(),
            #[cfg(feature = "adapt")]
            (HandleImpl::Adaptive(h), _) => h.acquire(),
            (HandleImpl::ClofFast(h), _) => h.acquire(),
            (HandleImpl::Hmcs(h), _) => h.acquire(),
            (HandleImpl::Cna(h), _) => h.acquire(),
            (HandleImpl::Shfl(h), _) => h.acquire(),
            (HandleImpl::Std, LockImpl::Std(m)) => {
                // `DbMutex::poisoned` is the poison state for every
                // choice; std's own flag would outlive `clear_poison`.
                std_guard = Some(m.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
            }
            (HandleImpl::Std, _) => unreachable!("handle/lock variant mismatch"),
        }
        let guard = OpGuard {
            inner,
            mutex,
            std_guard,
        };
        // SAFETY: The matching lock is held until `guard` drops, which
        // happens after `f` on both the return and the unwind path.
        f(unsafe { &mut *guard.mutex.data.get() })
    }

    /// Deadline-bounded [`with`](Self::with): runs `f` under the lock
    /// only if it is acquired by `deadline`.
    ///
    /// # Errors
    ///
    /// [`ClofError::Timeout`] if the budget ran out (the attempt is
    /// fully unwound; the handle is immediately reusable),
    /// [`ClofError::Poisoned`] if a store operation panicked while
    /// holding the lock (checked before spending the budget and
    /// re-checked after winning), and [`ClofError::DeadlineUnsupported`]
    /// for lock choices without a bounded-wait protocol (the baselines
    /// and `Std` — their unmodified algorithms are the comparison
    /// point).
    pub fn try_with_until<R>(
        &mut self,
        deadline: std::time::Instant,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ClofError> {
        let DbHandle { mutex, inner } = self;
        let mutex: &DbMutex<T> = mutex;
        if mutex.is_poisoned() {
            return Err(ClofError::Poisoned);
        }
        let unsupported = |choice: &str| ClofError::DeadlineUnsupported {
            choice: choice.into(),
        };
        let won = match &mut *inner {
            HandleImpl::Clof(h) => h.try_acquire_until(deadline),
            #[cfg(feature = "adapt")]
            HandleImpl::Adaptive(h) => h.try_acquire_until(deadline),
            HandleImpl::ClofFast(h) => h.try_acquire_until(deadline),
            HandleImpl::Hmcs(_) => return Err(unsupported("hmcs")),
            HandleImpl::Cna(_) => return Err(unsupported("cna")),
            HandleImpl::Shfl(_) => return Err(unsupported("shfl")),
            HandleImpl::Std => return Err(unsupported("std")),
        };
        if !won {
            return Err(ClofError::Timeout);
        }
        let guard = OpGuard {
            inner,
            mutex,
            std_guard: None,
        };
        if mutex.is_poisoned() {
            // A panic landed between the pre-check and our win: the
            // guard's drop releases, and `f` never sees suspect data.
            return Err(ClofError::Poisoned);
        }
        // SAFETY: As in `with`.
        Ok(f(unsafe { &mut *guard.mutex.data.get() }))
    }

    /// [`try_with_until`](Self::try_with_until) with a relative budget
    /// measured from now.
    ///
    /// # Errors
    ///
    /// As [`try_with_until`](Self::try_with_until).
    pub fn try_with_for<R>(
        &mut self,
        budget: std::time::Duration,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ClofError> {
        self.try_with_until(std::time::Instant::now() + budget, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof_topology::platforms;

    fn choices() -> Vec<LockChoice> {
        vec![
            LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
            LockChoice::ClofFast(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
            LockChoice::Hmcs,
            LockChoice::Cna,
            LockChoice::Shfl,
            LockChoice::Basic(LockKind::Mcs),
            LockChoice::Basic(LockKind::Ttas),
            LockChoice::Std,
        ]
    }

    #[test]
    fn every_choice_counts_correctly() {
        let h = platforms::tiny();
        for choice in choices() {
            let m = Arc::new(DbMutex::new(0usize, &h, &choice).unwrap());
            let mut threads = Vec::new();
            for cpu in 0..8 {
                let mut handle = m.handle(cpu);
                threads.push(std::thread::spawn(move || {
                    for _ in 0..500 {
                        handle.with(|v| *v += 1);
                    }
                }));
            }
            for t in threads {
                t.join().unwrap();
            }
            let total = m.handle(0).with(|v| *v);
            assert_eq!(total, 4000, "{choice:?}");
        }
    }

    #[test]
    fn clof_choice_validates_levels() {
        let h = platforms::tiny();
        let err = DbMutex::new((), &h, &LockChoice::Clof(vec![LockKind::Mcs]));
        assert!(err.is_err());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn stats_window_reports_rates_between_ticks() {
        let h = platforms::tiny();
        let m = Arc::new(
            DbMutex::new(
                0usize,
                &h,
                &LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
            )
            .unwrap(),
        );
        let mut sampler = clof::obs::Sampler::new();
        // First tick is baseline only.
        assert!(m.stats_window(&mut sampler).is_none());
        let mut handle = m.handle(0);
        for _ in 0..100 {
            handle.with(|v| *v += 1);
        }
        let rates = m.stats_window(&mut sampler).expect("second tick");
        assert_eq!(rates.delta.total_acquires(), 100);
        assert!(rates.acquires_per_sec > 0.0);
        // Uninstrumented choices never produce a window.
        let std = Arc::new(DbMutex::new(0usize, &h, &LockChoice::Std).unwrap());
        let mut s2 = clof::obs::Sampler::new();
        assert!(std.stats_window(&mut s2).is_none());
        assert!(std.stats_window(&mut s2).is_none());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn profile_attributes_store_traffic_to_a_registered_site() {
        let h = platforms::tiny();
        for choice in [
            LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
            LockChoice::ClofFast(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
        ] {
            let m = Arc::new(DbMutex::new(0usize, &h, &choice).unwrap());
            let id = m.site_id().expect("instrumented store registers a site");
            let before = m.profile().expect("site row exists");
            let mut handle = m.handle(0);
            for _ in 0..100 {
                handle.with(|v| *v += 1);
            }
            let after = m.profile().expect("site row persists");
            assert_eq!(after.id, id, "{choice:?}");
            assert_eq!(
                after.acquires - before.acquires,
                100,
                "{choice:?}: every store op is attributed to the site"
            );
            assert!(
                after.hold_ns >= before.hold_ns,
                "{choice:?}: hold attribution is monotone"
            );
        }
        // Uninstrumented choices expose no site and no profile.
        let std_store = DbMutex::new(0usize, &h, &LockChoice::Std).unwrap();
        assert!(std_store.site_id().is_none());
        assert!(std_store.profile().is_none());
    }

    #[cfg(feature = "adapt")]
    #[test]
    fn adaptive_store_counts_across_hot_swaps() {
        let h = platforms::tiny();
        let m = DbMutex::new(
            0usize,
            &h,
            &LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
        )
        .unwrap()
        .enable_adaptation(&h)
        .unwrap();
        let m = Arc::new(m);
        let adaptive = Arc::clone(m.adaptive().expect("adaptation enabled"));
        let mut threads = Vec::new();
        for cpu in 0..8 {
            let mut handle = m.handle(cpu);
            threads.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    handle.with(|v| *v += 1);
                }
            }));
        }
        // Migrate the live store's lock mid-increment, twice.
        adaptive
            .swap_to(&[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket])
            .unwrap();
        adaptive
            .swap_to(&[LockKind::Mcs, LockKind::Clh, LockKind::Ticket])
            .unwrap();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.handle(0).with(|v| *v), 4000);
        assert_eq!(adaptive.migration_stats().swaps, 2);
    }

    #[cfg(feature = "adapt")]
    #[test]
    fn adaptation_rejects_non_clof_choices() {
        let h = platforms::tiny();
        for choice in [LockChoice::Hmcs, LockChoice::Std, LockChoice::Shfl] {
            let res = DbMutex::new((), &h, &choice).unwrap().enable_adaptation(&h);
            match res {
                Err(ClofError::AdaptationUnsupported { .. }) => {}
                Err(other) => panic!("{choice:?}: wrong error {other}"),
                Ok(_) => panic!("{choice:?}: adaptation unexpectedly accepted"),
            }
        }
    }

    #[test]
    fn try_with_times_out_then_recovers() {
        use std::time::{Duration, Instant};
        let h = platforms::tiny();
        for choice in [
            LockChoice::Clof(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
            LockChoice::ClofFast(vec![LockKind::Mcs, LockKind::Clh, LockKind::Ticket]),
        ] {
            let m = Arc::new(DbMutex::new(0usize, &h, &choice).unwrap());
            let hold = Arc::new(std::sync::atomic::AtomicBool::new(true));
            let entered = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let holder = {
                let m = Arc::clone(&m);
                let hold = Arc::clone(&hold);
                let entered = Arc::clone(&entered);
                std::thread::spawn(move || {
                    m.handle(0).with(|_| {
                        entered.store(true, std::sync::atomic::Ordering::Release);
                        while hold.load(std::sync::atomic::Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                    })
                })
            };
            while !entered.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::yield_now();
            }
            let mut waiter = m.handle(2);
            let start = Instant::now();
            assert!(matches!(
                waiter.try_with_until(start + Duration::from_millis(40), |_| ()),
                Err(ClofError::Timeout)
            ));
            assert!(start.elapsed() < Duration::from_secs(5), "{choice:?}");
            hold.store(false, std::sync::atomic::Ordering::Release);
            holder.join().unwrap();
            let got = waiter
                .try_with_for(Duration::from_secs(10), |v| {
                    *v += 1;
                    *v
                })
                .expect("uncontended after release");
            assert_eq!(got, 1, "{choice:?}");
        }
    }

    #[test]
    fn baselines_report_deadline_unsupported() {
        use std::time::Duration;
        let h = platforms::tiny();
        for choice in [LockChoice::Hmcs, LockChoice::Cna, LockChoice::Shfl, LockChoice::Std] {
            let m = Arc::new(DbMutex::new((), &h, &choice).unwrap());
            match m.handle(0).try_with_for(Duration::from_millis(1), |_| ()) {
                Err(ClofError::DeadlineUnsupported { .. }) => {}
                other => panic!("{choice:?}: expected DeadlineUnsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn panicking_store_op_poisons_but_never_strands_waiters() {
        use std::time::Duration;
        let h = platforms::tiny();
        for choice in choices() {
            let bounded = matches!(
                choice,
                LockChoice::Clof(_) | LockChoice::ClofFast(_) | LockChoice::Basic(_)
            );
            let m = Arc::new(DbMutex::new(vec![1u8], &h, &choice).unwrap());
            let panicker = {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    m.handle(1).with(|v| {
                        v.clear();
                        panic!("die mid-mutation");
                    })
                })
            };
            assert!(panicker.join().is_err(), "{choice:?}");
            assert!(m.is_poisoned(), "{choice:?}");
            // The release guard ran on the unwind path: a *blocking*
            // store op completes instead of hanging on the dead holder...
            assert_eq!(m.handle(3).with(|v| v.len()), 0, "{choice:?}");
            let mut handle = m.handle(3);
            if bounded {
                // ...and the bounded entry point reports the poisoning.
                assert!(
                    matches!(
                        handle.try_with_for(Duration::from_secs(10), |_| ()),
                        Err(ClofError::Poisoned)
                    ),
                    "{choice:?}"
                );
            }
            // Recovery path 1: clear and continue in place.
            m.clear_poison();
            assert!(!m.is_poisoned(), "{choice:?}");
            if bounded {
                handle
                    .try_with_for(Duration::from_secs(10), |v| v.push(9))
                    .expect("cleared poison unlocks the store");
            } else {
                handle.with(|v| v.push(9));
            }
            // Recovery path 2: consume the mutex and extract the data.
            drop(handle);
            let m = Arc::try_unwrap(m).ok().expect("all handles dropped");
            assert_eq!(m.into_inner(), vec![9], "{choice:?}");
        }
    }

    #[test]
    fn with_returns_closure_value() {
        let h = platforms::tiny();
        let m = Arc::new(DbMutex::new(41, &h, &LockChoice::Std).unwrap());
        let got = m.handle(0).with(|v| {
            *v += 1;
            *v
        });
        assert_eq!(got, 42);
    }
}
