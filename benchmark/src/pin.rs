//! Pinning client threads to host CPUs. The two libc calls are declared
//! here so the benchmark stays dependency-free.

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1 024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    }
}

/// Host CPUs this process may run on, ascending. Falls back to
/// `0..available_parallelism` where the affinity mask cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: sys::CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
        if rc == 0 {
            let cpus: Vec<usize> = (0..1024)
                .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
                .collect();
            if !cpus.is_empty() {
                return cpus;
            }
        }
    }
    let n = std::thread::available_parallelism().map_or(1, usize::from);
    (0..n).collect()
}

/// Pins the calling thread to host CPU `cpu`; `false` if the host
/// refused (the thread then runs wherever the scheduler puts it).
pub fn pin_to(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    if cpu < 1024 {
        let mut set: sys::CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0
        // names the calling thread.
        return unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&set), &set) } == 0;
    }
    let _ = cpu;
    false
}
