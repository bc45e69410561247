//! What a base lock's hand-off costs, per owner switch. Two pinned
//! threads hammer one lock around a shared counter; the critical section
//! also records whether the owner changed since the previous acquire.
//! A closed-loop ns/op is only a hand-off cost when nearly every acquire
//! switches owner: a lock whose releaser re-acquires before its waiter
//! wakes (Hemlock's bypass) scores a low ns/op with a low switch ratio,
//! and its ns per switch is the figure to compare.
//!
//! The FIFO queue locks must switch owner on at least 80 % of acquires in
//! their best round: their waiter is queued before the releaser can come
//! back. Host interference only ever lowers the ratio — while one thread
//! is descheduled the other acquires uncontended — so the best of the
//! rounds is the lock's own; a bypassing lock stays low in every round.
//!
//! Timing-sensitive, hence `#[ignore]`; `scripts/ci.sh` runs it alone:
//! `cargo test --release -p clof-locks --test switches -- --ignored --test-threads=1 --nocapture`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use clof_locks::{CachePadded, ClhLock, Hemlock, McsLock, RawLock, TicketLock};

const ROUNDS: usize = 3;
const ROUND: Duration = Duration::from_millis(700);
const MIN_SWITCH_RATIO: f64 = 0.8;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1 024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    }
}

/// The first two CPUs this process may run on, if it may run on two.
fn two_cpus() -> Option<[usize; 2]> {
    #[cfg(target_os = "linux")]
    {
        let mut set: sys::CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
        // pid 0 names the calling thread.
        if unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) } == 0 {
            let mut cpus = (0..1024).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1);
            return Some([cpus.next()?, cpus.next()?]);
        }
    }
    (std::thread::available_parallelism().map_or(1, usize::from) >= 2).then_some([0, 1])
}

/// Pins the calling thread to `cpu`; best effort.
fn pin_to(cpu: usize) {
    #[cfg(target_os = "linux")]
    {
        let mut set: sys::CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0
        // names the calling thread.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&set), &set) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

/// What the critical section touches: one line, guarded by the lock.
#[derive(Default)]
struct Shared {
    counter: AtomicU64,
    owner: AtomicU64,
    switches: AtomicU64,
}

/// One round's `(ns/op, switch ratio, ns per switch)`.
fn round<L: RawLock>(cpus: [usize; 2]) -> (f64, f64, f64) {
    let lock = CachePadded::new(L::default());
    let shared = CachePadded::new(Shared::default());
    let stop = CachePadded::new(AtomicBool::new(false));
    let start = Barrier::new(3);
    let elapsed = std::thread::scope(|s| {
        for (me, cpu) in (1u64..).zip(cpus) {
            let (lock, shared, stop, start) = (&lock, &shared, &stop, &start);
            s.spawn(move || {
                pin_to(cpu);
                let mut ctx = L::Context::default();
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    lock.acquire(&mut ctx);
                    // Plain load + store: the lock orders them.
                    let n = shared.counter.load(Ordering::Relaxed);
                    shared.counter.store(n + 1, Ordering::Relaxed);
                    if shared.owner.load(Ordering::Relaxed) != me {
                        shared.owner.store(me, Ordering::Relaxed);
                        let k = shared.switches.load(Ordering::Relaxed);
                        shared.switches.store(k + 1, Ordering::Relaxed);
                    }
                    lock.release(&mut ctx);
                }
            });
        }
        start.wait();
        let began = Instant::now();
        std::thread::sleep(ROUND);
        stop.store(true, Ordering::Relaxed);
        began.elapsed()
    });
    let ops = shared.counter.load(Ordering::Relaxed) as f64;
    let switches = shared.switches.load(Ordering::Relaxed) as f64;
    let ns = elapsed.as_nanos() as f64;
    (ns / ops, switches / ops, ns / switches)
}

/// Prints every round of `L` and returns the best switch ratio.
fn report<L: RawLock>(cpus: [usize; 2]) -> f64 {
    let rounds: Vec<_> = (0..ROUNDS).map(|_| round::<L>(cpus)).collect();
    for (ns_op, ratio, ns_switch) in &rounds {
        println!(
            "{:>4}: {ns_op:6.1} ns/op  switch ratio {ratio:.3}  {ns_switch:6.1} ns/switch",
            L::INFO.name
        );
    }
    rounds.iter().map(|r| r.1).fold(0.0, f64::max)
}

#[test]
#[ignore = "timing-sensitive: run alone, see the module docs"]
fn fifo_locks_switch_owner_on_nearly_every_acquire() {
    let Some(cpus) = two_cpus() else {
        println!("switches: fewer than two CPUs available, nothing to measure");
        return;
    };
    println!("two threads pinned to CPUs {cpus:?}, {ROUNDS} x {ROUND:?}");
    let fifo = [
        ("tkt", report::<TicketLock>(cpus)),
        ("mcs", report::<McsLock>(cpus)),
        ("clh", report::<ClhLock>(cpus)),
    ];
    report::<Hemlock>(cpus);
    for (name, ratio) in fifo {
        assert!(
            ratio >= MIN_SWITCH_RATIO,
            "{name}: best switch ratio {ratio:.3} below {MIN_SWITCH_RATIO}"
        );
    }
}
