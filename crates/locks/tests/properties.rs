//! Property-based and panic-safety tests for the basic locks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clof_locks::spin::testkit::issued;
use clof_locks::{
    AndersonLock, Backoff, ClhLock, Hemlock, HemlockCtr, McsLock, RawLock, RawLockMutex,
    TicketLock, TtasLock, SPIN_FOREVER,
};
use clof_testkit::gen::{vec_of, Gen};
use clof_testkit::{props, tk_assert, tk_assert_eq, Config};

/// Interleaved lock/unlock schedule across a small thread pool: whatever
/// the schedule, the protected non-atomic counter must equal the number
/// of critical sections.
fn schedule_holds_mutex<L: RawLock>(per_thread_ops: &[u8]) -> Result<(), String> {
    let lock = Arc::new(L::default());
    let counter = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for &ops in per_thread_ops {
        let lock = Arc::clone(&lock);
        let counter = Arc::clone(&counter);
        threads.push(std::thread::spawn(move || {
            let mut ctx = L::Context::default();
            for _ in 0..ops {
                lock.acquire(&mut ctx);
                let v = counter.load(Ordering::Relaxed);
                // Widen the race window a little.
                std::hint::spin_loop();
                counter.store(v + 1, Ordering::Relaxed);
                lock.release(&mut ctx);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let expected: usize = per_thread_ops.iter().map(|&o| o as usize).sum();
    tk_assert_eq!(counter.load(Ordering::Relaxed), expected);
    Ok(())
}

fn schedules() -> Gen<Vec<u8>> {
    vec_of(Gen::<u8>::int_range(0, 40), 1, 5)
}

props! {
    config: Config::with_cases(12);

    fn ticket_mutex_any_schedule(ops in schedules()) {
        schedule_holds_mutex::<TicketLock>(&ops)?;
    }

    fn mcs_mutex_any_schedule(ops in schedules()) {
        schedule_holds_mutex::<McsLock>(&ops)?;
    }

    fn clh_mutex_any_schedule(ops in schedules()) {
        schedule_holds_mutex::<ClhLock>(&ops)?;
    }

    fn hemlock_mutex_any_schedule(ops in schedules()) {
        schedule_holds_mutex::<Hemlock>(&ops)?;
    }

    fn hemlock_ctr_mutex_any_schedule(ops in schedules()) {
        schedule_holds_mutex::<HemlockCtr>(&ops)?;
    }

    fn anderson_mutex_any_schedule(ops in schedules()) {
        schedule_holds_mutex::<AndersonLock>(&ops)?;
    }

    fn ttas_mutex_any_schedule(ops in schedules()) {
        schedule_holds_mutex::<TtasLock>(&ops)?;
    }

    /// The waiting policy's contract, counted rather than timed: no round
    /// spins more than `HOLD` hints (the lateness bound, at any depth into
    /// the wait), the spin phase before the first yield is the ~255 hints
    /// oversubscribed hosts were tuned for, every later round is exactly
    /// one yield, and `reset()` restarts the ramp from one hint.
    fn backoff_lateness_contract(steps in Gen::<usize>::int_range(0, 200)) {
        let mut b = Backoff::new();
        let mut spun = 0;
        for round in 0..steps {
            let (h0, y0) = issued();
            b.snooze();
            let (h, y) = issued();
            let (hints, yields) = (h - h0, y - y0);
            tk_assert!(hints <= u64::from(Backoff::HOLD), "round {round}: {hints} hints");
            tk_assert_eq!(hints == 0, yields == 1);
            tk_assert_eq!(yields == 1, spun >= u64::from(Backoff::SPIN_HINTS));
            spun += hints;
        }
        tk_assert!(!b.is_yielding() || (200..=320).contains(&spun), "{spun} hints before yielding");
        b.reset();
        let (h0, y0) = issued();
        b.snooze();
        tk_assert_eq!(issued(), (h0 + 1, y0));
    }
}

/// A panicking critical section must still release the lock (RAII guard),
/// leaving it usable for other threads.
fn guard_releases_on_panic<L: RawLock>() {
    let mutex: Arc<RawLockMutex<L, u32>> = Arc::new(RawLockMutex::new(0));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut guard = mutex.lock();
        *guard += 1;
        panic!("boom");
    }));
    assert!(result.is_err());
    // Lock must be free again: this would hang otherwise.
    assert_eq!(*mutex.lock(), 1);
}

#[test]
fn ticket_guard_panic_safe() {
    guard_releases_on_panic::<TicketLock>();
}

#[test]
fn mcs_guard_panic_safe() {
    guard_releases_on_panic::<McsLock>();
}

#[test]
fn clh_guard_panic_safe() {
    guard_releases_on_panic::<ClhLock>();
}

#[test]
fn hemlock_guard_panic_safe() {
    guard_releases_on_panic::<Hemlock>();
}

#[test]
fn anderson_guard_panic_safe() {
    guard_releases_on_panic::<AndersonLock>();
}

/// `acquire_reporting` says `false` for a lock its first look found free
/// and `true` for one it had to wait for. Whether an acquire waited is
/// not observable from outside, so the contended case repeats until the
/// waiter provably did: it took longer than the holder kept the lock
/// after the waiter started.
fn reports_whether_it_waited<L: RawLock>() {
    let lock = L::default();
    let mut holder = L::Context::default();
    assert!(!lock.acquire_reporting(&mut holder, SPIN_FOREVER), "{}: free", L::INFO.name);
    lock.release(&mut holder);
    for _ in 0..50 {
        lock.acquire(&mut holder);
        let (waited, took) = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut ctx = L::Context::default();
                let start = Instant::now();
                let waited = lock.acquire_reporting(&mut ctx, SPIN_FOREVER);
                let took = start.elapsed();
                lock.release(&mut ctx);
                (waited, took)
            });
            std::thread::sleep(Duration::from_millis(20));
            lock.release(&mut holder);
            waiter.join().unwrap()
        });
        if took >= Duration::from_millis(10) {
            assert!(waited, "{}: waited {took:?} but reported no wait", L::INFO.name);
            return;
        }
    }
    panic!("{}: the waiter never found the lock held", L::INFO.name);
}

#[test]
fn every_lock_reports_whether_it_waited() {
    reports_whether_it_waited::<TicketLock>();
    reports_whether_it_waited::<McsLock>();
    reports_whether_it_waited::<ClhLock>();
    reports_whether_it_waited::<Hemlock>();
    reports_whether_it_waited::<HemlockCtr>();
    reports_whether_it_waited::<AndersonLock>();
    reports_whether_it_waited::<TtasLock>();
}

/// FIFO fairness of the ticket lock, observed: with one holder and N
/// queued waiters released one by one, service order equals arrival
/// order.
#[test]
fn ticket_serves_fifo() {
    let lock = Arc::new(TicketLock::new());
    let order = Arc::new(std::sync::Mutex::new(Vec::<usize>::new()));
    let mut ctx = Default::default();
    lock.acquire(&mut ctx);

    let mut joins = Vec::new();
    for i in 0..4 {
        // Serialize arrivals so ticket order is deterministic.
        let before = lock.queue_len();
        let lock2 = Arc::clone(&lock);
        let order2 = Arc::clone(&order);
        joins.push(std::thread::spawn(move || {
            let mut ctx = Default::default();
            lock2.acquire(&mut ctx);
            order2.lock().unwrap().push(i);
            lock2.release(&mut ctx);
        }));
        clof_locks::spin::spin_until(|| lock.queue_len() > before);
    }
    lock.release(&mut ctx);
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
}
