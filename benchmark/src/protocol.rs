//! The measurement protocol: one workload, one process, many rounds.
//!
//! Each round runs, on fresh pinned threads with an untimed warm-up per
//! slice: one *throughput slice* (no clock reads in the loop), one
//! *latency slice* (every operation timed) and one *calibration slice*
//! (benchmark-owned code on the same number of threads). A traced run
//! adds a *traced slice* and calibrates both thread counts.

use std::time::{Duration, Instant};

use crate::harness::{self, Calibration, Tally};
use crate::span::{Call, OpRecord, SpanBuf};
use crate::stats::{LatencyHist, TooFewSamples};
use crate::workloads::{Client, FinalCheck, Rig, Target};

/// How long and how often; derived from `--seconds`, `--quick`, `--trace`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub rounds: usize,
    pub throughput: Duration,
    pub latency: Duration,
    pub calibration: Duration,
    pub warm_up: Duration,
    /// Complete set-ups built, timed and dropped after each round. The
    /// one the clients run on is the first, timed before the rounds.
    pub setups_per_round: usize,
    pub trace: bool,
}

/// `--quick` round count.
pub const QUICK_ROUNDS: usize = 5;

impl Plan {
    /// Untraced: 250 ms of slices per round. Traced: the workload gets
    /// about a fifth of the time (the ladder gets the rest), in rounds of
    /// 300 ms.
    pub fn new(seconds: u64, quick: bool, trace: bool) -> Plan {
        let ms = Duration::from_millis;
        let rounds = match (quick, trace) {
            (true, _) => QUICK_ROUNDS,
            (false, false) => (seconds as usize * 4).max(4),
            (false, true) => (seconds as usize * 4 / 5).max(4),
        };
        Plan {
            rounds,
            throughput: ms(if trace { 100 } else { 150 }),
            latency: ms(50),
            calibration: ms(if trace { 25 } else { 50 }),
            warm_up: ms(2),
            // At least 21 set-ups in all.
            setups_per_round: 20usize.div_ceil(rounds),
            trace,
        }
    }
}

/// Pooled durations of one span name.
#[derive(Default)]
pub struct SpanStat {
    pub hist: LatencyHist,
    pub total_ns: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64) {
        self.hist.record(ns);
        self.total_ns += ns;
    }
}

/// What the traced slices produced.
pub struct TraceOutcome {
    /// Summed rate of each traced slice.
    pub rates: Vec<f64>,
    pub op: SpanStat,
    pub keygen: SpanStat,
    pub check: SpanStat,
    /// Indexed like [`Call::ALL`].
    pub calls: Vec<SpanStat>,
    /// Operations that ran traced after a buffer filled up.
    pub dropped: u64,
    /// First records of each thread in the last traced slice, kept for
    /// the trace file.
    pub sample: Vec<Vec<OpRecord>>,
}

/// Records kept per thread for the trace file.
const TRACE_SAMPLE_OPS: usize = 500;
/// Span records preallocated per thread: 100 ms of 150 ns operations.
const SPAN_CAPACITY: usize = 700_000;

/// Everything a run measured, before it is reduced to metrics.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Summed rate of each untraced throughput slice.
    pub rates: Vec<f64>,
    /// Operations each client completed over all untraced throughput slices.
    pub ops_per_thread: Vec<u64>,
    pub latency: LatencyHist,
    /// Median and 99th percentile of each latency slice.
    pub slice_p50: Vec<f64>,
    pub slice_p99: Vec<f64>,
    /// Set when a latency slice had too few samples for its percentiles.
    pub too_few: Option<TooFewSamples>,
    pub cal_1t: Vec<f64>,
    pub cal_2t: Vec<f64>,
    pub trace: Option<TraceOutcome>,
    /// Operations issued, in slices of every kind, warm-up and final
    /// check included.
    pub attempted: u64,
    /// Operations whose result was wrong.
    pub failed: u64,
}

/// Runs `plan` over what `setup` builds. `host_cpus[i]` is where client
/// `i` is pinned.
pub fn run<T: Target>(plan: &Plan, host_cpus: &[usize], setup: impl Fn() -> Rig<T>) -> Outcome {
    let timed_setup = |log: &mut Vec<f64>| {
        let start = Instant::now();
        let rig = std::hint::black_box(setup());
        log.push(start.elapsed().as_secs_f64());
        rig
    };
    let mut setup_s = Vec::new();
    let Rig {
        mut clients,
        finish,
    } = timed_setup(&mut setup_s);
    let threads = clients.len();

    let cal = Calibration::default();
    let mut out = Outcome {
        setup_s,
        rates: Vec::with_capacity(plan.rounds),
        ops_per_thread: vec![0; threads],
        latency: LatencyHist::default(),
        slice_p50: Vec::new(),
        slice_p99: Vec::new(),
        too_few: None,
        cal_1t: Vec::new(),
        cal_2t: Vec::new(),
        trace: None,
        attempted: 0,
        failed: 0,
    };
    let mut hists: Vec<LatencyHist> = (0..threads).map(|_| LatencyHist::default()).collect();
    let mut slice_hist = LatencyHist::default();
    let mut tracer = plan.trace.then(|| Tracer::new(threads));

    for _ in 0..plan.rounds {
        let tallies = harness::run_slice(&mut clients, host_cpus, plan.throughput, |_, c, ctl| {
            harness::throughput_loop(ctl, plan.warm_up, || c.op())
        });
        out.rates.push(harness::rate(&tallies));
        for (total, t) in out.ops_per_thread.iter_mut().zip(&tallies) {
            *total += t.ops;
        }
        out.failed += failed(&tallies);

        if let Some(tracer) = &mut tracer {
            out.failed += tracer.slice(plan, host_cpus, &mut clients);
        }

        let mut timed: Vec<_> = clients.iter_mut().zip(hists.iter_mut()).collect();
        let tallies =
            harness::run_slice(&mut timed, host_cpus, plan.latency, |_, (c, hist), ctl| {
                harness::latency_loop(ctl, plan.warm_up, hist, || c.op())
            });
        out.failed += failed(&tallies);
        slice_hist.clear();
        for hist in &mut hists {
            slice_hist.merge(hist);
            hist.clear();
        }
        match (slice_hist.quantile(0.5), slice_hist.quantile(0.99)) {
            (Ok(p50), Ok(p99)) => {
                out.slice_p50.push(p50);
                out.slice_p99.push(p99);
            }
            (Err(e), _) | (_, Err(e)) => out.too_few = Some(e),
        }
        out.latency.merge(&slice_hist);

        if plan.trace || threads == 1 {
            out.cal_1t.push(cal.one_thread(host_cpus, plan.calibration));
        }
        if plan.trace || threads > 1 {
            out.cal_2t
                .push(cal.two_threads(host_cpus, plan.calibration));
        }

        // Set-ups are timed one per round rather than all at the start:
        // a process's first milliseconds (cold caches, clock ramping up)
        // would otherwise be the only moment `setup_s` ever sees.
        for _ in 0..plan.setups_per_round {
            drop(timed_setup(&mut out.setup_s));
        }
    }

    let ops: u64 = clients.iter().map(|c| c.ops).sum();
    drop(clients);
    let FinalCheck {
        attempted: checks,
        failed: wrong,
    } = finish(ops);
    out.attempted = ops + checks;
    out.failed += wrong;
    out.trace = tracer.map(Tracer::finish);
    out
}

fn failed(tallies: &[Tally]) -> u64 {
    tallies.iter().map(|t| t.failed).sum()
}

struct Tracer {
    epoch: Instant,
    bufs: Vec<SpanBuf>,
    out: TraceOutcome,
}

impl Tracer {
    fn new(threads: usize) -> Self {
        let filler = OpRecord {
            seq: 0,
            call: Call::MutexLock,
            t: [0; 4],
        };
        let bufs = (0..threads)
            .map(|_| {
                let mut buf = SpanBuf::with_capacity(SPAN_CAPACITY);
                for _ in 0..SPAN_CAPACITY {
                    buf.push(filler);
                }
                buf.clear();
                buf
            })
            .collect();
        Tracer {
            epoch: Instant::now(),
            bufs,
            out: TraceOutcome {
                rates: Vec::new(),
                op: SpanStat::default(),
                keygen: SpanStat::default(),
                check: SpanStat::default(),
                calls: Call::ALL.iter().map(|_| SpanStat::default()).collect(),
                dropped: 0,
                sample: Vec::new(),
            },
        }
    }

    /// One traced throughput slice; returns the operations that failed.
    fn slice<T: Target>(
        &mut self,
        plan: &Plan,
        host_cpus: &[usize],
        clients: &mut [Client<T>],
    ) -> u64 {
        let epoch = self.epoch;
        let mut traced: Vec<_> = clients.iter_mut().zip(self.bufs.iter_mut()).collect();
        let tallies = harness::run_slice(
            &mut traced,
            host_cpus,
            plan.throughput,
            |_, (c, buf), ctl| {
                // Warm up untraced so that the buffer holds timed operations only.
                let warm = harness::warm_up(plan.warm_up, &mut || c.op());
                let mut tally =
                    harness::throughput_loop(ctl, Duration::ZERO, || c.op_traced(epoch, buf));
                tally.failed += warm;
                tally
            },
        );
        self.out.rates.push(harness::rate(&tallies));
        self.out.sample.clear();
        for buf in &mut self.bufs {
            for r in buf.records() {
                let [t0, t1, t2, t3] = r.t;
                self.out.op.record(t3 - t0);
                self.out.keygen.record(t1 - t0);
                self.out.calls[r.call as usize].record(t2 - t1);
                self.out.check.record(t3 - t2);
            }
            self.out.dropped += buf.dropped;
            buf.dropped = 0;
            let keep = buf.records().len().min(TRACE_SAMPLE_OPS);
            self.out.sample.push(buf.records()[..keep].to_vec());
            buf.clear();
        }
        failed(&tallies)
    }

    fn finish(self) -> TraceOutcome {
        self.out
    }
}
