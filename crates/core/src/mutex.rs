//! A data-holding mutex over a [`DynClofLock`].

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use clof_topology::{CpuId, Hierarchy};

use crate::dynlock::{DynClofLock, DynHandle};
use crate::error::ClofError;
use crate::kind::LockKind;

/// A mutex protecting `T` with a CLoF lock.
///
/// Threads obtain a [`ClofMutexHandle`] for the CPU they run on and lock
/// through it; the handle carries the leaf cohort and the thread's
/// context, so repeated locking allocates nothing.
///
/// # Examples
///
/// ```
/// use clof::{ClofMutex, LockKind};
/// use clof_topology::platforms;
/// use std::sync::Arc;
///
/// let hierarchy = platforms::tiny();
/// let mutex = Arc::new(
///     ClofMutex::new(
///         0u64,
///         &hierarchy,
///         &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
///     )
///     .unwrap(),
/// );
/// let mut handle = mutex.handle(0);
/// *handle.lock() += 1;
/// assert_eq!(*handle.lock(), 1);
/// ```
pub struct ClofMutex<T: ?Sized> {
    lock: Arc<DynClofLock>,
    data: UnsafeCell<T>,
}

// SAFETY: The CLoF lock serializes all access to `data`.
unsafe impl<T: ?Sized + Send> Send for ClofMutex<T> {}
// SAFETY: Shared access only yields references under mutual exclusion.
unsafe impl<T: ?Sized + Send> Sync for ClofMutex<T> {}

impl<T> ClofMutex<T> {
    /// Creates a mutex for `hierarchy` with the given composition.
    ///
    /// # Errors
    ///
    /// Propagates [`DynClofLock::build`] errors.
    pub fn new(value: T, hierarchy: &Hierarchy, locks: &[LockKind]) -> Result<Self, ClofError> {
        Ok(ClofMutex {
            lock: Arc::new(DynClofLock::build(hierarchy, locks)?),
            data: UnsafeCell::new(value),
        })
    }

    /// Creates a mutex around an existing lock (e.g. one produced by the
    /// generator / selector).
    pub fn with_lock(value: T, lock: Arc<DynClofLock>) -> Self {
        ClofMutex {
            lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> ClofMutex<T> {
    /// A handle for a thread running on `cpu`.
    pub fn handle(self: &Arc<Self>, cpu: CpuId) -> ClofMutexHandle<T> {
        ClofMutexHandle {
            mutex: Arc::clone(self),
            inner: self.lock.handle(cpu),
        }
    }

    /// The underlying CLoF lock.
    pub fn raw(&self) -> &Arc<DynClofLock> {
        &self.lock
    }

    /// Whether a holder panicked while holding this mutex. Unlike
    /// `std::sync::Mutex`, blocking [`lock`](ClofMutexHandle::lock)
    /// does not surface poison (it cannot fail); the deadline-bounded
    /// entry points do.
    pub fn is_poisoned(&self) -> bool {
        self.lock.is_poisoned()
    }

    /// Clears the poison flag after the caller has repaired (or chosen
    /// to trust) the protected state.
    pub fn clear_poison(&self) {
        self.lock.clear_poison();
    }
}

impl<T: fmt::Debug> fmt::Debug for ClofMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClofMutex")
            .field("lock", &self.lock.name())
            .finish_non_exhaustive()
    }
}

/// Per-thread handle on a [`ClofMutex`].
pub struct ClofMutexHandle<T: ?Sized> {
    mutex: Arc<ClofMutex<T>>,
    inner: DynHandle,
}

impl<T: ?Sized> ClofMutexHandle<T> {
    /// Locks the mutex, returning a guard for the data.
    pub fn lock(&mut self) -> ClofMutexGuard<'_, T> {
        self.inner.acquire();
        ClofMutexGuard { handle: self }
    }

    /// Deadline-bounded lock.
    ///
    /// # Errors
    ///
    /// [`ClofError::Timeout`] if the lock was not acquired by
    /// `deadline` (the attempt is fully unwound — the handle is
    /// immediately reusable), and [`ClofError::Poisoned`] if a holder
    /// panicked while holding the mutex. Poison is checked before
    /// spending the budget (cheap early exit) and re-checked after
    /// winning: a panic that lands between the pre-check and our
    /// acquisition must not hand out a guard to suspect data.
    pub fn try_lock_until(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<ClofMutexGuard<'_, T>, ClofError> {
        if self.mutex.lock.is_poisoned() {
            return Err(ClofError::Poisoned);
        }
        if !self.inner.try_acquire_until(deadline) {
            return Err(ClofError::Timeout);
        }
        if self.mutex.lock.is_poisoned() {
            self.inner.release();
            return Err(ClofError::Poisoned);
        }
        Ok(ClofMutexGuard { handle: self })
    }

    /// [`try_lock_until`](Self::try_lock_until) with a relative budget
    /// measured from now.
    ///
    /// # Errors
    ///
    /// As [`try_lock_until`](Self::try_lock_until).
    pub fn try_lock_for(
        &mut self,
        budget: std::time::Duration,
    ) -> Result<ClofMutexGuard<'_, T>, ClofError> {
        self.try_lock_until(std::time::Instant::now() + budget)
    }
}

/// RAII guard; releases on drop.
pub struct ClofMutexGuard<'a, T: ?Sized> {
    handle: &'a mut ClofMutexHandle<T>,
}

impl<T: ?Sized> Deref for ClofMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: The guard proves the CLoF lock is held.
        unsafe { &*self.handle.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for ClofMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: As in `deref`.
        unsafe { &mut *self.handle.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for ClofMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Panic-while-holding: the protected data may be mid-mutation.
        // Poison first (so the flag is ordered before the release edge
        // the next acquirer synchronizes on), then release anyway —
        // waiters must observe `Poisoned`, not hang on a dead holder.
        if std::thread::panicking() {
            self.handle.mutex.lock.poison();
        }
        self.handle.inner.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof_topology::platforms;

    #[test]
    fn counter_across_cohorts() {
        let h = platforms::tiny();
        let mutex = Arc::new(
            ClofMutex::new(0usize, &h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket])
                .unwrap(),
        );
        let mut threads = Vec::new();
        for cpu in 0..8 {
            let mut handle = mutex.handle(cpu);
            threads.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *handle.lock() += 1;
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let mut handle = mutex.handle(0);
        assert_eq!(*handle.lock(), 8000);
    }

    #[test]
    fn guard_provides_mut_access() {
        let h = platforms::tiny();
        let mutex = Arc::new(
            ClofMutex::new(
                Vec::<u32>::new(),
                &h,
                &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
            )
            .unwrap(),
        );
        let mut handle = mutex.handle(3);
        handle.lock().push(7);
        assert_eq!(handle.lock().as_slice(), &[7]);
    }

    #[test]
    fn with_lock_and_raw_roundtrip() {
        let h = platforms::tiny();
        let lock =
            Arc::new(DynClofLock::build(&h, &[LockKind::Clh, LockKind::Clh, LockKind::Clh]).unwrap());
        let mutex = Arc::new(ClofMutex::with_lock(1u8, Arc::clone(&lock)));
        assert_eq!(mutex.raw().name(), "clh-clh-clh");
        let mut handle = mutex.handle(0);
        assert_eq!(*handle.lock(), 1);
    }

    #[test]
    fn try_lock_times_out_under_contention_then_recovers() {
        use std::time::{Duration, Instant};
        let h = platforms::tiny();
        let mutex = Arc::new(
            ClofMutex::new(0u32, &h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        let mut holder = mutex.handle(0);
        let guard = holder.lock();
        let mut waiter = mutex.handle(2);
        let start = Instant::now();
        assert!(matches!(
            waiter.try_lock_until(start + Duration::from_millis(40)),
            Err(ClofError::Timeout)
        ));
        assert!(start.elapsed() < Duration::from_secs(5));
        drop(guard);
        *waiter
            .try_lock_for(Duration::from_secs(10))
            .expect("uncontended after release") += 1;
        assert_eq!(*waiter.lock(), 1);
    }

    #[test]
    fn panic_while_holding_poisons_then_clear_recovers() {
        use std::time::Duration;
        let h = platforms::tiny();
        let mutex = Arc::new(
            ClofMutex::new(vec![1u8], &h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket])
                .unwrap(),
        );
        let panicker = {
            let mutex = Arc::clone(&mutex);
            std::thread::spawn(move || {
                let mut handle = mutex.handle(1);
                let mut guard = handle.lock();
                guard.clear();
                panic!("die while holding");
            })
        };
        assert!(panicker.join().is_err());
        assert!(mutex.is_poisoned());
        // Waiters get `Poisoned`, not a hang and not a guard — on both
        // the early check and (that failing takes priority) a fresh
        // handle's first attempt.
        let mut handle = mutex.handle(3);
        assert!(matches!(
            handle.try_lock_for(Duration::from_secs(10)),
            Err(ClofError::Poisoned)
        ));
        // `clear_poison` is the recovery path: the caller inspects or
        // repairs the data, then proceeds.
        mutex.clear_poison();
        let mut guard = handle
            .try_lock_for(Duration::from_secs(10))
            .expect("cleared poison unlocks the mutex");
        guard.push(2);
        assert_eq!(guard.as_slice(), &[2]);
    }

    #[test]
    fn debug_format_names_composition() {
        let h = platforms::tiny();
        let mutex =
            ClofMutex::new((), &h, &[LockKind::Mcs, LockKind::Mcs, LockKind::Mcs]).unwrap();
        let s = format!("{mutex:?}");
        assert!(s.contains("mcs-mcs-mcs"));
    }
}
