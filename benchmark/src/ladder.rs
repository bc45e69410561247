//! The layer ladder: one cell per rung, measured from outside by timing
//! calls into each layer's public functions.
//!
//! *solo* = 1 client, *handoff* = 2 clients in one leaf cohort, *climb* =
//! 2 clients in different NUMA cohorts of `platforms::tiny()`. Every
//! `*_ns` is the median over the cell's slices of nanoseconds per
//! acquire+release (or per operation); with 2 clients that is the
//! hand-off period, elapsed time ÷ operations of both.

use std::sync::Arc;
use std::time::{Duration, Instant};

use clof::compose::build3;
use clof::{ClofMutex, ClofParams, DynClofLock, FastClof};
use clof_baselines::{CnaLock, HmcsLock, ShflLock};
use clof_kvstore::{DbMutex, LockChoice};
use clof_locks::{ClhLock, Hemlock, McsLock, RawLock, TicketLock};
use clof_topology::{platforms, sysfs};

use crate::harness::{self, run_slice, throughput_loop};
use crate::stats::{good_decile, median, Good};
use crate::workloads::{self, Target, CABINET_WRITE_PCT, MCS_CLH_TKT, MINIDB_KEYS};

/// A cell shape: its name and the cohort CPU id in `platforms::tiny()`
/// each client declares.
type Shape = (&'static str, &'static [usize]);
const SOLO: Shape = ("solo", &[0]);
const HANDOFF: Shape = ("handoff", &[0, 1]);
const CLIMB: Shape = ("climb", &[0, 4]);
const PAIR: [Shape; 2] = [SOLO, HANDOFF];

/// One acquire+release on a handle; the handle types share no trait.
macro_rules! acquire_release {
    () => {
        |h| {
            h.acquire();
            h.release();
        }
    };
}

/// How long and how often each cell runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub slices: usize,
    pub slice: Duration,
    pub warm_up: Duration,
}

/// Timed cells a ladder run executes; sizes the slices to `--seconds`.
const TIMED_CELLS: u64 = 46;

impl Plan {
    /// The ladder gets about 70 % of a traced run.
    pub fn new(seconds: u64, quick: bool) -> Plan {
        if quick {
            return Plan {
                slices: 5,
                slice: Duration::from_millis(2),
                warm_up: Duration::from_micros(300),
            };
        }
        let slices = 31;
        let per_slice_us = seconds * 700_000 / (TIMED_CELLS * slices as u64);
        Plan {
            slices,
            // A slice also pays for its threads and its warm-up.
            slice: Duration::from_micros(per_slice_us.saturating_sub(1_000).clamp(1_000, 20_000)),
            warm_up: Duration::from_micros(500),
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// For a derived metric, the operands it was computed from.
    pub from: Option<String>,
}

/// The value of metric `name`, NaN when it was not measured.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

pub struct Ladder<'a> {
    plan: Plan,
    host_cpus: &'a [usize],
    seed: u64,
    pub metrics: Vec<Metric>,
    /// Wrong results seen in cells that check them (the store cells).
    pub failed: u64,
    pub attempted: u64,
}

impl<'a> Ladder<'a> {
    pub fn new(plan: Plan, host_cpus: &'a [usize], seed: u64) -> Self {
        Ladder {
            plan,
            host_cpus,
            seed,
            metrics: Vec::new(),
            failed: 0,
            attempted: 0,
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            from: None,
        });
    }

    fn get(&self, name: &str) -> f64 {
        value_of(&self.metrics, name)
    }

    /// Summed rate of each slice of one cell: `clients[i]` runs on its
    /// own pinned thread and returns whether its result was right.
    fn rates<F: FnMut() -> bool + Send>(&mut self, mut clients: Vec<F>) -> Vec<f64> {
        let plan = self.plan;
        (0..plan.slices)
            .map(|_| {
                let tallies = run_slice(&mut clients, self.host_cpus, plan.slice, |_, op, ctl| {
                    throughput_loop(ctl, plan.warm_up, op)
                });
                self.failed += tallies.iter().map(|t| t.failed).sum::<u64>();
                self.attempted += tallies.iter().map(|t| t.ops).sum::<u64>();
                harness::rate(&tallies)
            })
            .collect()
    }

    /// Records `name` = median nanoseconds per operation of the cell.
    fn cell_ns<F: FnMut() -> bool + Send>(&mut self, name: impl Into<String>, clients: Vec<F>) {
        let ns: Vec<f64> = self.rates(clients).iter().map(|r| 1e9 / r).collect();
        self.put(name, median(&ns).unwrap_or(f64::NAN), "ns");
    }

    /// Records `name` = median nanoseconds of one call of `f`.
    fn call_ns<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let ns: Vec<f64> = (0..self.plan.slices.max(5))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        self.put(name, median(&ns).unwrap_or(f64::NAN), "ns");
    }

    /// One cell per shape, named `{prefix}.{shape}_ns`: every client gets
    /// `handle(cohort cpu)` and runs `cycle` on it.
    fn handle_cells<H: Send>(
        &mut self,
        prefix: &str,
        shapes: &[Shape],
        handle: impl Fn(usize) -> H,
        cycle: impl Fn(&mut H) + Copy + Send,
    ) {
        for (shape, cpus) in shapes {
            let clients = cpus
                .iter()
                .map(|&cpu| {
                    let mut h = handle(cpu);
                    move || {
                        cycle(&mut h);
                        true
                    }
                })
                .collect();
            self.cell_ns(format!("{prefix}.{shape}_ns"), clients);
        }
    }

    fn raw_lock<L: RawLock>(&mut self, short: &str) {
        let lock = L::default();
        self.handle_cells(
            &format!("locks.{short}"),
            &PAIR,
            |_| L::Context::default(),
            |ctx| {
                lock.acquire(ctx);
                lock.release(ctx);
            },
        );
    }

    /// `clof-locks`: the floor under every rung.
    pub fn locks(&mut self) {
        self.raw_lock::<TicketLock>("tkt");
        self.raw_lock::<McsLock>("mcs");
        self.raw_lock::<ClhLock>("clh");
        self.raw_lock::<Hemlock>("hem");
    }

    /// `clof-core`: static composition, both dispatch tiers of
    /// `DynClofLock`, the `FastClof` gate and `ClofMutex`, all over
    /// `mcs-clh-tkt`.
    pub fn core(&mut self) {
        let tiny = platforms::tiny();
        let tree = build3::<McsLock, ClhLock, TicketLock>(&tiny, ClofParams::default())
            .expect("3 levels fit tiny()");
        self.handle_cells(
            "core.compose.static",
            &PAIR,
            |cpu| tree.handle(cpu),
            acquire_release!(),
        );

        self.call_ns("core.dynlock.build_ns", || {
            DynClofLock::build(&tiny, &MCS_CLH_TKT)
        });
        // A fresh lock per cell, so that its counters are the cell's.
        for shape in [SOLO, HANDOFF, CLIMB] {
            let lock = DynClofLock::build(&tiny, &MCS_CLH_TKT).expect("fits tiny()");
            self.handle_cells(
                "core.dynlock.fast",
                &[shape],
                |cpu| lock.handle(cpu),
                acquire_release!(),
            );
            // Useful-outcome ratios: passes ÷ release decisions at the
            // level where the two clients meet (level 0 in one leaf), and
            // one above the leaves when they only meet at the root.
            for (level, at) in [(0, HANDOFF), (1, CLIMB)] {
                if shape == at {
                    let name = format!("core.dynlock.l{level}.pass_ratio");
                    self.put(name, lock.stats()[level].locality(), "ratio");
                }
            }
            let lock = DynClofLock::build(&tiny, &MCS_CLH_TKT).expect("fits tiny()");
            let generic = |cpu| lock.handle_generic(cpu);
            self.handle_cells(
                "core.dynlock.generic",
                &[shape],
                generic,
                acquire_release!(),
            );
        }

        for shape in PAIR {
            let lock = FastClof::build(&tiny, &MCS_CLH_TKT).expect("fits tiny()");
            self.handle_cells(
                "core.fastpath",
                &[shape],
                |cpu| lock.handle(cpu),
                acquire_release!(),
            );
            if shape == HANDOFF {
                let (fast, slow) = lock.path_counters();
                let ratio = fast as f64 / (fast + slow).max(1) as f64;
                self.put("core.fastpath.bypass_ratio", ratio, "ratio");
            }
        }

        let mutex = Arc::new(ClofMutex::new(0u64, &tiny, &MCS_CLH_TKT).expect("fits tiny()"));
        self.handle_cells(
            "core.mutex",
            &PAIR,
            |cpu| mutex.handle(cpu),
            |h| *h.lock() += 1,
        );
    }

    /// Summed slice rates of the clients of `rig` running their stream,
    /// with the rig's final check.
    fn rig_rates<T: Target>(&mut self, rig: workloads::Rig<T>) -> Vec<f64> {
        let workloads::Rig {
            mut clients,
            finish,
        } = rig;
        let rates = self.rates(clients.iter_mut().map(|c| move || c.op()).collect());
        let issued = clients.iter().map(|c| c.ops).sum();
        drop(clients);
        self.failed += finish(issued).failed;
        rates
    }

    fn store_cell<T: Target>(&mut self, name: &str, rig: workloads::Rig<T>) {
        let ns: Vec<f64> = self.rig_rates(rig).iter().map(|r| 1e9 / r).collect();
        self.put(name, median(&ns).unwrap_or(f64::NAN), "ns");
    }

    /// `clof-kvstore`: `DbMutex::with` and one operation of each store,
    /// all under `Clof(mcs-clh-tkt)` so the rungs subtract.
    pub fn kvstore(&mut self) {
        let tiny = platforms::tiny();
        let choice = LockChoice::Clof(MCS_CLH_TKT.to_vec());
        let mutex = Arc::new(DbMutex::new(0u64, &tiny, &choice).expect("fits tiny()"));
        self.handle_cells(
            "kvstore.lock.with",
            &PAIR,
            |cpu| mutex.handle(cpu),
            |h| h.with(|n| *n += 1),
        );

        let (seed, solo) = (self.seed, SOLO.1);
        self.store_cell(
            "kvstore.cabinet.get_ns",
            workloads::setup_cabinet(seed, solo, &choice, 0),
        );
        self.store_cell(
            "kvstore.cabinet.set_ns",
            workloads::setup_cabinet(seed, solo, &choice, 100),
        );
        self.store_cell(
            "kvstore.minidb.get_ns",
            workloads::setup_minidb(seed, solo, 0),
        );
        self.store_cell(
            "kvstore.minidb.put_ns",
            workloads::setup_minidb(seed, solo, 100),
        );

        let fills: Vec<f64> = (0..self.plan.slices.max(5))
            .map(|_| {
                let db = workloads::open_minidb();
                let mut handle = db.handle(0);
                let start = Instant::now();
                workloads::fill_minidb(&mut handle);
                start.elapsed().as_nanos() as f64 / MINIDB_KEYS as f64
            })
            .collect();
        self.put(
            "kvstore.minidb.fill_ns_per_key",
            median(&fills).unwrap_or(f64::NAN),
            "ns",
        );

        // One client, a fixed number of operations of the minidb_rw_2t
        // stream: these two counts repeat exactly for a given seed.
        let (flushes, compactions) = workloads::minidb_maintenance_counts(seed, 10, 50_000);
        self.put("kvstore.minidb.flushes", flushes as f64, "count");
        self.put("kvstore.minidb.compactions", compactions as f64, "count");
    }

    /// `clof-baselines` and `std`: context rows. No CLoF change should
    /// move them, so movement means the host moved.
    pub fn baselines(&mut self) {
        let tiny = platforms::tiny();
        let hmcs = HmcsLock::new(&tiny, 128);
        self.handle_cells(
            "baselines.hmcs",
            &PAIR,
            |cpu| hmcs.handle(cpu),
            acquire_release!(),
        );
        let cna = Arc::new(CnaLock::new(&tiny));
        self.handle_cells(
            "baselines.cna",
            &PAIR,
            |cpu| cna.handle(cpu),
            acquire_release!(),
        );
        let shfl = Arc::new(ShflLock::new(&tiny));
        self.handle_cells(
            "baselines.shfl",
            &PAIR,
            |cpu| shfl.handle(cpu),
            acquire_release!(),
        );
        let std_mutex = std::sync::Mutex::new(0u64);
        self.handle_cells(
            "baselines.std",
            &PAIR,
            |_| (),
            |()| {
                *std_mutex.lock().expect("no client panics") += 1;
            },
        );

        // The cabinet_mix_2t loop under each competitor: the paper's
        // Fig. 9/10 comparison on real code.
        for (name, choice) in [
            ("hmcs", LockChoice::Hmcs),
            ("cna", LockChoice::Cna),
            ("shfl", LockChoice::Shfl),
            ("std", LockChoice::Std),
        ] {
            let rig = workloads::setup_cabinet(self.seed, CLIMB.1, &choice, CABINET_WRITE_PCT);
            let rate = good_decile(&self.rig_rates(rig), Good::High);
            self.put(
                format!("baselines.{name}.cabinet_mix_2t.ops_per_s"),
                rate,
                "1/s",
            );
        }
    }

    /// `clof-topology`: what set-up pays before any lock exists.
    pub fn topology(&mut self) {
        // Timed whether or not this host exposes its topology in /sys.
        self.call_ns("topology.discover_ns", || sysfs::discover().is_ok());
        self.call_ns("topology.regular_build_ns", platforms::tiny);
    }

    /// Self times by subtraction; each keeps its two operands.
    pub fn differences(&mut self) {
        const LOCKS: &[&str] = &[
            "locks.mcs.solo_ns",
            "locks.clh.solo_ns",
            "locks.tkt.solo_ns",
        ];
        let rows: [(&str, &str, &[&str]); 7] = [
            // An uncontended full climb takes all three base locks.
            (
                "ladder.static_over_locks_ns",
                "core.compose.static.solo_ns",
                LOCKS,
            ),
            (
                "ladder.dyn_fast_over_static_ns",
                "core.dynlock.fast.solo_ns",
                &["core.compose.static.solo_ns"],
            ),
            (
                "ladder.generic_over_fast_ns",
                "core.dynlock.generic.solo_ns",
                &["core.dynlock.fast.solo_ns"],
            ),
            (
                "ladder.mutex_over_dyn_ns",
                "core.mutex.solo_ns",
                &["core.dynlock.fast.solo_ns"],
            ),
            (
                "ladder.dbmutex_over_dyn_ns",
                "kvstore.lock.with.solo_ns",
                &["core.dynlock.fast.solo_ns"],
            ),
            (
                "ladder.cabinet_get_over_dbmutex_ns",
                "kvstore.cabinet.get_ns",
                &["kvstore.lock.with.solo_ns"],
            ),
            (
                "ladder.minidb_get_over_dbmutex_ns",
                "kvstore.minidb.get_ns",
                &["kvstore.lock.with.solo_ns"],
            ),
        ];
        for (name, upper, lower) in rows {
            let a = self.get(upper);
            let b: f64 = lower.iter().map(|n| self.get(n)).sum();
            self.metrics.push(Metric {
                name: name.into(),
                value: a - b,
                unit: "ns",
                from: Some(format!("{upper} {a:.2} - ({}) {b:.2}", lower.join(" + "))),
            });
        }
    }

    /// The cells the `--features obs` binary contributes: the fast tier
    /// with telemetry compiled in and idle, and the cost of a snapshot.
    pub fn obs_cells(&mut self) {
        let tiny = platforms::tiny();
        let lock = DynClofLock::build(&tiny, &MCS_CLH_TKT).expect("fits tiny()");
        self.handle_cells(
            "obs.dynlock.fast",
            &PAIR,
            |cpu| lock.handle(cpu),
            acquire_release!(),
        );
        #[cfg(feature = "obs")]
        self.call_ns("obs.snapshot_ns", || lock.obs_snapshot());
    }
}
