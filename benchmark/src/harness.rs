//! Slices: the unit of measurement. A slice runs one closure per client
//! on fresh threads, each pinned to its own host CPU, lets them warm up
//! untimed, starts them together, and stops them after a fixed time.
//! Interference on a shared host only ever slows a slice, so slices are
//! short and many, and the caller reduces them by a quartile.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::pin;
use crate::stats::LatencyHist;

/// Start barrier and stop flag shared by the threads of one slice.
#[repr(align(128))]
pub struct Ctl {
    stop: AtomicBool,
    /// Written only while the slice starts; kept off the stop flag's line
    /// by the padding so the timed loop reads an unshared line.
    _pad: [u8; 120],
    arrived: AtomicUsize,
    threads: usize,
}

impl Ctl {
    fn new(threads: usize) -> Self {
        Ctl {
            stop: AtomicBool::new(false),
            _pad: [0; 120],
            arrived: AtomicUsize::new(0),
            threads,
        }
    }

    /// Called by each client after its warm-up: returns once every client
    /// of the slice has arrived, so the timed parts overlap.
    pub fn start_together(&self) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) < self.threads {
            spins += 1;
            if spins.is_multiple_of(1024) {
                // The other client may not have been given a CPU yet.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn all_started(&self) -> bool {
        self.arrived.load(Ordering::Acquire) >= self.threads
    }

    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Runs `body(client index, client, ctl)` for every client on its own
/// fresh thread pinned to `host_cpus[index]`, and sets the stop flag
/// `dur` after all of them passed [`Ctl::start_together`]. The bodies
/// time themselves; the controlling thread only sleeps.
pub fn run_slice<W: Send, R: Send>(
    clients: &mut [W],
    host_cpus: &[usize],
    dur: Duration,
    body: impl Fn(usize, &mut W, &Ctl) -> R + Sync,
) -> Vec<R> {
    let ctl = Ctl::new(clients.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (ctl, body) = (&ctl, &body);
                let cpu = host_cpus[i % host_cpus.len()];
                s.spawn(move || {
                    pin::pin_to(cpu);
                    body(i, client, ctl)
                })
            })
            .collect();
        while !ctl.all_started() {
            std::thread::sleep(Duration::from_micros(100));
        }
        std::thread::sleep(dur);
        ctl.stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client panicked"))
            .collect()
    })
}

/// What one client did in the timed part of one slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub ops: u64,
    pub elapsed_ns: u64,
    /// Operations whose result was wrong, warm-up included.
    pub failed: u64,
}

/// Completed operations per second summed over the clients of a slice.
pub fn rate(tallies: &[Tally]) -> f64 {
    tallies
        .iter()
        .map(|t| t.ops as f64 * 1e9 / t.elapsed_ns.max(1) as f64)
        .sum()
}

/// Runs `op` untimed for `warm`; returns how many results were wrong.
pub fn warm_up(warm: Duration, op: &mut impl FnMut() -> bool) -> u64 {
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed() < warm {
        for _ in 0..16 {
            failed += u64::from(!op());
        }
    }
    failed
}

/// Throughput body: warm up, start together, then run `op` until stopped
/// with no clock reads in the loop.
pub fn throughput_loop(ctl: &Ctl, warm: Duration, mut op: impl FnMut() -> bool) -> Tally {
    let mut failed = warm_up(warm, &mut op);
    ctl.start_together();
    let start = Instant::now();
    let mut ops = 0u64;
    while !ctl.stopped() {
        failed += u64::from(!op());
        ops += 1;
    }
    Tally {
        ops,
        elapsed_ns: start.elapsed().as_nanos() as u64,
        failed,
    }
}

/// Samples a latency loop holds before folding them into its histogram:
/// 4 KiB, resident in L1, so recording a sample never misses the cache
/// (a streamed-to buffer does, and the lock's next atomic waits for it).
const SAMPLE_RING: usize = 1024;

/// Latency body: as [`throughput_loop`], but every operation is timed,
/// completion to completion with one clock read each, into a small ring
/// that is folded into `hist` whenever it fills. The fold is not part of
/// any sample: the clock is read again after it.
pub fn latency_loop(
    ctl: &Ctl,
    warm: Duration,
    hist: &mut LatencyHist,
    mut op: impl FnMut() -> bool,
) -> Tally {
    let mut failed = warm_up(warm, &mut op);
    let mut ring = [0u32; SAMPLE_RING];
    // Returns the time the folded samples cover.
    let mut fold = |samples: &[u32]| {
        let mut covered = 0u64;
        for &ns in samples {
            hist.record(u64::from(ns));
            covered += u64::from(ns);
        }
        covered
    };
    ctl.start_together();
    let mut prev = Instant::now();
    let (mut ops, mut elapsed_ns, mut filled) = (0u64, 0u64, 0usize);
    while !ctl.stopped() {
        failed += u64::from(!op());
        let now = Instant::now();
        let ns = now.duration_since(prev).as_nanos();
        ring[filled] = u32::try_from(ns).unwrap_or(u32::MAX);
        filled += 1;
        prev = now;
        if filled == SAMPLE_RING {
            elapsed_ns += fold(&ring);
            ops += SAMPLE_RING as u64;
            filled = 0;
            prev = Instant::now();
        }
    }
    elapsed_ns += fold(&ring[..filled]);
    ops += filled as u64;
    Tally {
        ops,
        elapsed_ns,
        failed,
    }
}

/// Benchmark-owned code whose speed depends only on the host: a drifted
/// host shows here, whatever the program under test does.
pub struct Calibration {
    /// 512 KiB of sorted `u64`: larger than L1, inside a private L2.
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            table: (0..65_536u64).map(|i| i * 3).collect(),
        }
    }
}

impl Calibration {
    /// One thread: binary searches per second over the table.
    pub fn one_thread(&self, host_cpus: &[usize], dur: Duration) -> f64 {
        let mut state = [0x9E37_79B9_7F4A_7C15u64];
        let tallies = run_slice(&mut state, host_cpus, dur, |_, state, ctl| {
            throughput_loop(ctl, Duration::from_micros(500), || {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                let needle = *state % (3 * 65_536);
                std::hint::black_box(self.table.binary_search(&needle).is_ok());
                true
            })
        });
        rate(&tallies)
    }

    /// Two threads: round trips per second of one cache line bounced
    /// between the first two host CPUs.
    pub fn two_threads(&self, host_cpus: &[usize], dur: Duration) -> f64 {
        #[repr(align(128))]
        struct Line(AtomicU64);
        let line = Line(AtomicU64::new(0));
        let mut sides = [0u64, 1u64];
        let tallies = run_slice(&mut sides, host_cpus, dur, |_, side, ctl| {
            let side = *side;
            ctl.start_together();
            let start = Instant::now();
            let mut ops = 0u64;
            // Side 0 turns even into odd, side 1 odd into even; either
            // gives up waiting when the slice is stopped.
            'run: loop {
                let mut spins = 0u32;
                while line.0.load(Ordering::Acquire) % 2 != side {
                    if ctl.stopped() {
                        break 'run;
                    }
                    spins += 1;
                    if spins.is_multiple_of(4096) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                line.0.fetch_add(1, Ordering::AcqRel);
                ops += 1;
                if ctl.stopped() {
                    break;
                }
            }
            Tally {
                ops,
                elapsed_ns: start.elapsed().as_nanos() as u64,
                failed: 0,
            }
        });
        // Each round trip is one op on each side.
        rate(&tallies) / 2.0
    }
}

/// Median cost in nanoseconds of one `Instant::now()` — what every
/// latency sample and span boundary includes.
pub fn clock_read_ns() -> f64 {
    let mut per_read: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..10_000 {
                last = std::hint::black_box(Instant::now());
            }
            last.duration_since(start).as_nanos() as f64 / 10_000.0
        })
        .collect();
    per_read.sort_by(f64::total_cmp);
    per_read[per_read.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_runs_every_client_and_stops_them() {
        let mut counters = [0u64, 0u64];
        let cpus = pin::allowed_cpus();
        let tallies = run_slice(
            &mut counters,
            &cpus,
            Duration::from_millis(5),
            |_, n, ctl| {
                throughput_loop(ctl, Duration::from_micros(200), || {
                    *n += 1;
                    true
                })
            },
        );
        assert_eq!(tallies.len(), 2);
        for (t, n) in tallies.iter().zip(counters) {
            assert!(t.ops > 0 && t.ops <= n, "timed {} of {n} ops", t.ops);
            assert!(
                t.elapsed_ns >= 4_000_000,
                "slice lasted {} ns",
                t.elapsed_ns
            );
            assert_eq!(t.failed, 0);
        }
        assert!(rate(&tallies) > 0.0);
    }

    #[test]
    fn latency_loop_times_every_op_and_counts_failures() {
        let mut clients = [LatencyHist::default()];
        let cpus = pin::allowed_cpus();
        let tallies = run_slice(
            &mut clients,
            &cpus,
            Duration::from_millis(3),
            |_, hist, ctl| latency_loop(ctl, Duration::ZERO, hist, || false),
        );
        let t = tallies[0];
        assert!(
            t.ops > SAMPLE_RING as u64,
            "the ring was folded at least once"
        );
        assert_eq!(clients[0].count(), t.ops, "one sample per operation");
        assert_eq!(t.failed, t.ops, "every op reported wrong");
        assert!(t.elapsed_ns > 0 && t.elapsed_ns <= 3_000_000 * 2);
    }

    #[test]
    fn calibration_slices_make_progress() {
        let cal = Calibration::default();
        let cpus = pin::allowed_cpus();
        assert!(cal.one_thread(&cpus, Duration::from_millis(3)) > 1_000.0);
        assert!(cal.two_threads(&cpus, Duration::from_millis(3)) > 10.0);
        assert!(clock_read_ns() > 0.0);
    }
}
