//! Where am I running? — thread→CPU resolution for handle placement.
//!
//! CLoF handles enter the composed tree at the leaf cohort of the CPU
//! the calling thread runs on. Resolving that CPU id costs a `getcpu`
//! syscall, far too much to pay on every acquire, so [`cached_cpu`]
//! memoizes the answer in a thread-local and only re-resolves every
//! [`RECHECK_PERIOD`] calls. The periodic re-check is the migration
//! invalidation: a migrated thread keeps using its old leaf for at most
//! one period, then re-homes.
//!
//! A stale placement is a *performance* wrinkle, never a correctness
//! one: CLoF locks are thread-oblivious — any thread may acquire
//! through any leaf and the hand-off invariants hold regardless (the
//! `auto_handle_*` tests in `dynlock` pin this across a simulated
//! migration). The cache therefore needs no synchronization with the
//! scheduler; it converges lazily.

use std::cell::Cell;

use clof_topology::CpuId;

/// Acquires between placement re-checks. Small enough that a migrated
/// thread re-homes within microseconds under load, large enough that
/// the syscall amortizes to noise.
pub const RECHECK_PERIOD: u32 = 64;

thread_local! {
    /// `(raw_cpu, calls_until_recheck)`; the zero countdown makes the
    /// first call resolve for real.
    static CACHED: Cell<(usize, u32)> = const { Cell::new((0, 0)) };
}

/// The CPU this thread runs on right now, folded into `0..ncpus`
/// (oversubscribed or mis-sized hierarchies fold modulo — placement is
/// a hint, and every leaf is a correct entry point).
///
/// Always resolves (syscall on Linux); prefer [`cached_cpu`] on hot
/// paths.
pub fn current_cpu(ncpus: usize) -> CpuId {
    raw_cpu() % ncpus.max(1)
}

/// [`current_cpu`], memoized per thread: returns the cached placement
/// and re-resolves only every [`RECHECK_PERIOD`] calls.
pub fn cached_cpu(ncpus: usize) -> CpuId {
    CACHED.with(|c| {
        let (cpu, left) = c.get();
        let cpu = if left == 0 {
            let fresh = raw_cpu();
            c.set((fresh, RECHECK_PERIOD));
            fresh
        } else {
            c.set((cpu, left - 1));
            cpu
        };
        cpu % ncpus.max(1)
    })
}

fn raw_cpu() -> usize {
    #[cfg(any(test, feature = "testkit"))]
    if let Some(cpu) = testkit::get_override() {
        return cpu;
    }
    imp::raw_cpu()
}

/// Test-only placement control: pin or migrate the *resolved* CPU of
/// the current thread, exercising the cache's re-check path without a
/// real scheduler migration.
#[cfg(any(test, feature = "testkit"))]
pub mod testkit {
    use std::cell::Cell;

    thread_local! {
        static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Pins this thread's resolved raw CPU id (`None` restores real
    /// resolution). Takes effect at the next periodic re-check — call
    /// [`flush`] to force it immediately.
    pub fn set_override(cpu: Option<usize>) {
        OVERRIDE.with(|o| o.set(cpu));
    }

    pub(super) fn get_override() -> Option<usize> {
        OVERRIDE.with(std::cell::Cell::get)
    }

    /// Zeroes this thread's re-check countdown so the next
    /// [`cached_cpu`](super::cached_cpu) call resolves for real.
    pub fn flush() {
        super::CACHED.with(|c| {
            let (cpu, _) = c.get();
            c.set((cpu, 0));
        });
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod imp {
    /// Raw `getcpu(2)` — no libc dependency, same discipline as the
    /// locks crate's futex shim. The vDSO would be faster still, but
    /// the cache above already amortizes the syscall away.
    pub(super) fn raw_cpu() -> usize {
        let mut cpu: u32 = 0;
        let ret: isize;
        // SAFETY: getcpu writes one `u32` through `&mut cpu`, which
        // outlives the call; the two null pointers ask for no node and
        // no cache. The syscall instruction's clobbers are listed.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 309isize => ret, // SYS_getcpu
                in("rdi") &mut cpu,
                in("rsi") std::ptr::null_mut::<u32>(),
                in("rdx") std::ptr::null_mut::<u8>(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        // SAFETY: As on x86_64: only `cpu` is written.
        #[cfg(target_arch = "aarch64")]
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 168isize, // SYS_getcpu
                inlateout("x0") (&mut cpu as *mut u32) => ret,
                in("x1") std::ptr::null_mut::<u32>(),
                in("x2") std::ptr::null_mut::<u8>(),
                options(nostack),
            );
        }
        if ret == 0 {
            cpu as usize
        } else {
            0
        }
    }
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod imp {
    /// No portable "current CPU" — derive a stable pseudo-placement
    /// from the thread id so distinct threads still spread across
    /// leaves deterministically.
    pub(super) fn raw_cpu() -> usize {
        use std::hash::{Hash, Hasher};
        // Fixed-seed hasher: the pseudo-placement must be stable across
        // calls from one thread.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_cpu_is_in_range() {
        for _ in 0..100 {
            assert!(current_cpu(3) < 3);
        }
        assert_eq!(current_cpu(1), 0);
        assert_eq!(current_cpu(0), 0, "degenerate ncpus folds to 0");
    }

    #[test]
    fn cache_holds_between_rechecks_and_converges_after() {
        testkit::set_override(Some(2));
        testkit::flush();
        assert_eq!(cached_cpu(8), 2);
        // A migration mid-period is observed late, at the re-check: the
        // resolving call is followed by RECHECK_PERIOD cached calls…
        testkit::set_override(Some(5));
        for _ in 0..RECHECK_PERIOD {
            assert_eq!(cached_cpu(8), 2, "stale placement must persist a full period");
        }
        // …and the next one resolves again.
        assert_eq!(cached_cpu(8), 5);
        testkit::set_override(None);
        testkit::flush();
    }

    #[test]
    fn flush_forces_immediate_recheck() {
        testkit::set_override(Some(1));
        testkit::flush();
        assert_eq!(cached_cpu(8), 1);
        testkit::set_override(Some(6));
        testkit::flush();
        assert_eq!(cached_cpu(8), 6);
        testkit::set_override(None);
        testkit::flush();
    }

    #[test]
    fn real_resolution_stays_in_range() {
        // No override: whatever the platform reports folds into range.
        for n in [1usize, 2, 7, 64] {
            assert!(current_cpu(n) < n);
        }
    }
}
