//! The lock oracle: a schedule-fuzzing stress harness that drives any
//! lock through contended critical sections and checks the properties a
//! lock must provide.
//!
//! Checks, per run:
//!
//! * **Mutual exclusion** — an owner cell (`swap` on entry/exit) plus a
//!   *non-atomically-updated* counter pair: each critical section reads
//!   both counters, checks they agree, writes `+1` to the first, dawdles,
//!   then writes `+1` to the second. Any overlap between two critical
//!   sections shows up as a counter disagreement, a lost update against
//!   the atomic total, or a foreign owner in the cell.
//! * **Context invariant** (paper §4.1) — `clof-core`'s `LevelMeta`
//!   carries a `ctx_busy` detector under the `testkit` feature; a
//!   concurrent use of a high-lock context panics inside acquire/release,
//!   and the harness converts that panic into a violation.
//! * **Fairness** — per-acquisition *gap* (number of acquisitions by
//!   other threads between a thread's arrival at `acquire()` and its own
//!   acquisition — time spent descheduled *outside* the queue is not the
//!   lock's unfairness and does not count) is histogrammed; an optional
//!   bound turns excessive gaps into violations. CLoF's `keep_local`
//!   threshold admits gaps up to roughly `H × threads`, so bounds must be
//!   generous.
//!
//! Schedules are perturbed two ways, both derived from one seed: the
//! harness yields/spins inside and around critical sections, and
//! `clof_locks::chaos` injects delays at the marked race windows *inside*
//! the lock algorithms. Chaos state is process-global, so runs are
//! serialized behind a module mutex; seeds make every run replayable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use clof_locks::{chaos, RawLock};

use crate::rng::TestRng;

/// Sentinel for "no thread owns the lock".
const FREE: usize = usize::MAX;

/// Number of power-of-two buckets in the gap histogram.
pub const GAP_BUCKETS: usize = 16;

/// Anything the oracle can drive: one per-thread handle of some lock.
///
/// Implemented for the `clof` handles and for any [`RawLock`] via
/// [`RawHandle`]; implement it for custom harness types as needed.
pub trait OracleHandle {
    /// Blocks until the lock is held by this handle.
    fn acquire(&mut self);
    /// Releases the lock; only called while held.
    fn release(&mut self);
}

impl OracleHandle for clof::DynHandle {
    fn acquire(&mut self) {
        clof::DynHandle::acquire(self)
    }
    fn release(&mut self) {
        clof::DynHandle::release(self)
    }
}

impl<T: clof::HierLock> OracleHandle for clof::ClofHandle<T> {
    fn acquire(&mut self) {
        clof::ClofHandle::acquire(self)
    }
    fn release(&mut self) {
        clof::ClofHandle::release(self)
    }
}

impl OracleHandle for clof::FastClofHandle {
    fn acquire(&mut self) {
        clof::FastClofHandle::acquire(self)
    }
    fn release(&mut self) {
        clof::FastClofHandle::release(self)
    }
}

/// Adapter driving a bare [`RawLock`] through the oracle.
pub struct RawHandle<L: RawLock> {
    lock: Arc<L>,
    ctx: L::Context,
}

impl<L: RawLock> RawHandle<L> {
    /// A handle on `lock` with a fresh context.
    pub fn new(lock: &Arc<L>) -> Self {
        RawHandle {
            lock: Arc::clone(lock),
            ctx: L::Context::default(),
        }
    }
}

impl<L: RawLock> OracleHandle for RawHandle<L> {
    fn acquire(&mut self) {
        self.lock.acquire(&mut self.ctx)
    }
    fn release(&mut self) {
        self.lock.release(&mut self.ctx)
    }
}

/// Stress-run parameters.
#[derive(Debug, Clone)]
pub struct StressOptions {
    /// Worker thread count.
    pub threads: usize,
    /// Lock acquisitions per thread.
    pub iters: u64,
    /// Seed for harness scheduling *and* in-lock chaos injection.
    pub seed: u64,
    /// Chaos probability denominator for the in-lock injection points
    /// (a point fires with probability `1/denom`); `0` disables chaos.
    pub chaos_denom: u32,
    /// Upper bound for chaos spin bursts.
    pub chaos_max_spin: u32,
    /// Fail if any acquisition gap exceeds this many foreign
    /// acquisitions; `None` disables the check (required for unfair
    /// locks, which have no gap bound at all).
    pub max_gap: Option<u64>,
    /// Label carried into the report (e.g. the composition name).
    pub label: String,
}

impl Default for StressOptions {
    fn default() -> Self {
        StressOptions {
            threads: 4,
            iters: 40,
            seed: 0xFACE_0FF5,
            chaos_denom: 3,
            chaos_max_spin: 48,
            max_gap: None,
            label: String::new(),
        }
    }
}

/// One property violation observed during a stress run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two threads were inside the critical section at once (owner cell).
    MutualExclusion {
        /// Thread that found the cell occupied.
        thread: usize,
        /// Thread that occupied it.
        other: usize,
    },
    /// The non-atomic counter pair disagreed inside a critical section —
    /// another critical section is mid-flight.
    TornCounters {
        /// Observing thread.
        thread: usize,
        /// First counter.
        c1: u64,
        /// Second counter.
        c2: u64,
    },
    /// Final counters disagree with the atomic total: updates were lost
    /// to overlapping critical sections.
    LostUpdates {
        /// Final first counter.
        c1: u64,
        /// Final second counter.
        c2: u64,
        /// Atomic ground-truth total.
        total: u64,
    },
    /// A high-lock context was used by two overlapping operations
    /// (paper §4.1's context invariant), detected by `LevelMeta`.
    ContextInvariant {
        /// Panic message from the detector.
        detail: String,
    },
    /// A thread's acquisition gap exceeded the configured bound.
    UnfairGap {
        /// Starved thread.
        thread: usize,
        /// Foreign acquisitions between its arrival and its own.
        gap: u64,
        /// Configured bound.
        bound: u64,
    },
    /// A worker panicked for any other reason.
    ThreadPanic {
        /// Panicking thread.
        thread: usize,
        /// Panic message.
        detail: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MutualExclusion { thread, other } => {
                if *other == FREE {
                    // The owner cell was already FREE at release time:
                    // some overlapping thread reset it first.
                    write!(
                        f,
                        "mutual exclusion: thread {thread} released a lock nobody held \
                         (a racing thread reset the owner cell first)"
                    )
                } else {
                    write!(
                        f,
                        "mutual exclusion: thread {thread} entered while thread {other} \
                         held the lock"
                    )
                }
            }
            Violation::TornCounters { thread, c1, c2 } => write!(
                f,
                "torn counters: thread {thread} read c1={c1} c2={c2} inside its critical section"
            ),
            Violation::LostUpdates { c1, c2, total } => write!(
                f,
                "lost updates: final c1={c1} c2={c2} but {total} critical sections ran"
            ),
            Violation::ContextInvariant { detail } => {
                write!(f, "context invariant: {detail}")
            }
            Violation::UnfairGap { thread, gap, bound } => write!(
                f,
                "unfair gap: thread {thread} waited through {gap} foreign acquisitions (bound {bound})"
            ),
            Violation::ThreadPanic { thread, detail } => {
                write!(f, "thread {thread} panicked: {detail}")
            }
        }
    }
}

/// Outcome of one stress run.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Seed the run (and any failure) replays from.
    pub seed: u64,
    /// Label from the options.
    pub label: String,
    /// Thread count.
    pub threads: usize,
    /// Total critical sections completed.
    pub total_acquisitions: u64,
    /// All violations, in observation order (capped per category).
    pub violations: Vec<Violation>,
    /// Largest acquisition gap seen by any thread.
    pub max_gap: u64,
    /// Gap histogram: bucket `i` counts gaps in `[2^(i-1), 2^i)`
    /// (bucket 0 counts gap 0).
    pub gap_histogram: [u64; GAP_BUCKETS],
    /// Number of in-lock chaos injections that fired.
    pub chaos_hits: u64,
}

impl StressReport {
    /// Whether the lock survived the run.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report; includes the replayable seed on failure.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "[{verdict}] {label} — {threads} threads, {total} acquisitions, seed 0x{seed:016x}",
            label = if self.label.is_empty() { "<lock>" } else { &self.label },
            threads = self.threads,
            total = self.total_acquisitions,
            seed = self.seed,
        );
        let _ = writeln!(
            out,
            "  max gap {mg}, chaos hits {ch}, gap histogram {hist:?}",
            mg = self.max_gap,
            ch = self.chaos_hits,
            hist = &self.gap_histogram[..used_buckets(&self.gap_histogram)],
        );
        for v in &self.violations {
            let _ = writeln!(out, "  violation: {v}");
        }
        if !self.passed() {
            let _ = writeln!(out, "  replay with seed 0x{:016x}", self.seed);
        }
        out
    }
}

fn used_buckets(hist: &[u64; GAP_BUCKETS]) -> usize {
    hist.iter()
        .rposition(|&c| c > 0)
        .map(|i| i + 1)
        .unwrap_or(1)
}

fn gap_bucket(gap: u64) -> usize {
    if gap == 0 {
        0
    } else {
        ((64 - gap.leading_zeros()) as usize).min(GAP_BUCKETS - 1)
    }
}

/// Shared oracle state for one run.
struct Shared {
    owner: AtomicUsize,
    // Counter pair updated with separate Relaxed load/store (deliberately
    // NOT read-modify-write): overlap loses updates and tears the pair,
    // without introducing undefined behaviour when the lock is broken.
    c1: AtomicU64,
    c2: AtomicU64,
    total: AtomicU64,
    acq_index: AtomicU64,
    max_gap: AtomicU64,
    histogram: [AtomicU64; GAP_BUCKETS],
    violations: Mutex<Vec<Violation>>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            owner: AtomicUsize::new(FREE),
            c1: AtomicU64::new(0),
            c2: AtomicU64::new(0),
            total: AtomicU64::new(0),
            acq_index: AtomicU64::new(0),
            max_gap: AtomicU64::new(0),
            histogram: std::array::from_fn(|_| AtomicU64::new(0)),
            violations: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, v: Violation) {
        let mut vs = self.violations.lock().unwrap_or_else(|p| p.into_inner());
        // Cap: a badly broken lock produces thousands of identical hits.
        if vs.len() < 32 {
            vs.push(v);
        }
    }
}

/// Serializes chaos-enabled runs: the injection state is process-global.
fn chaos_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Runs the stress oracle: `opts.threads` workers, each constructed a
/// handle via `factory(thread_index)` *on its own thread*, each looping
/// `opts.iters` times through acquire → oracle checks → release.
///
/// Deterministic given the seed on a fixed machine up to OS scheduling;
/// every perturbation (harness yields, in-lock chaos) derives from
/// `opts.seed`, so failing seeds reproduce with high probability.
pub fn run_stress<H, F>(opts: &StressOptions, factory: F) -> StressReport
where
    H: OracleHandle,
    F: Fn(usize) -> H + Sync,
{
    let guard = chaos_guard();
    if opts.chaos_denom > 0 {
        // configure() zeroes the hit counter, so hits() after the run is
        // exactly this run's injection count.
        chaos::configure(opts.seed, opts.chaos_denom, opts.chaos_max_spin.max(1));
    } else {
        chaos::disable();
    }

    let shared = Shared::new();
    let bound = opts.max_gap;

    std::thread::scope(|scope| {
        for tid in 0..opts.threads {
            let shared = &shared;
            let factory = &factory;
            let opts = &*opts;
            scope.spawn(move || {
                let body = AssertUnwindSafe(|| {
                    let mut handle = factory(tid);
                    let mut rng = TestRng::new(opts.seed ^ (tid as u64).wrapping_mul(0x9E37));
                    for _ in 0..opts.iters {
                        let arrival = shared.acq_index.load(Ordering::SeqCst);
                        handle.acquire();
                        // ---- inside the critical section ----
                        let prev_owner = shared.owner.swap(tid, Ordering::SeqCst);
                        if prev_owner != FREE {
                            shared.record(Violation::MutualExclusion {
                                thread: tid,
                                other: prev_owner,
                            });
                        }
                        let idx = shared.acq_index.fetch_add(1, Ordering::SeqCst);
                        // All foreign: our previous acquisition precedes
                        // `arrival`. (Only the sample-to-enqueue window is
                        // still charged to the lock, not the whole lap.)
                        let gap = idx - arrival;
                        shared.max_gap.fetch_max(gap, Ordering::Relaxed);
                        shared.histogram[gap_bucket(gap)].fetch_add(1, Ordering::Relaxed);
                        if let Some(b) = bound {
                            if gap > b {
                                shared.record(Violation::UnfairGap {
                                    thread: tid,
                                    gap,
                                    bound: b,
                                });
                            }
                        }

                        let a = shared.c1.load(Ordering::Relaxed);
                        let b = shared.c2.load(Ordering::Relaxed);
                        if a != b {
                            shared.record(Violation::TornCounters { thread: tid, c1: a, c2: b });
                        }
                        shared.c1.store(a + 1, Ordering::Relaxed);
                        // Dawdle between the two writes: this is the window
                        // an interloper tears.
                        if rng.chance(2) {
                            std::thread::yield_now();
                        } else {
                            for _ in 0..rng.below(24) {
                                std::hint::spin_loop();
                            }
                        }
                        shared.c2.store(a + 1, Ordering::Relaxed);
                        shared.total.fetch_add(1, Ordering::SeqCst);

                        let left_by = shared.owner.swap(FREE, Ordering::SeqCst);
                        if left_by != tid {
                            shared.record(Violation::MutualExclusion {
                                thread: tid,
                                other: left_by,
                            });
                        }
                        // ---- leave the critical section ----
                        handle.release();
                        if rng.chance(3) {
                            std::thread::yield_now();
                        }
                    }
                });
                if let Err(payload) = catch_unwind(body) {
                    let detail = panic_message(&payload);
                    if detail.contains("context invariant") {
                        shared.record(Violation::ContextInvariant { detail });
                    } else {
                        shared.record(Violation::ThreadPanic { thread: tid, detail });
                    }
                }
            });
        }
    });

    let chaos_hits = if opts.chaos_denom > 0 { chaos::hits() } else { 0 };
    chaos::disable();
    drop(guard);

    let c1 = shared.c1.load(Ordering::SeqCst);
    let c2 = shared.c2.load(Ordering::SeqCst);
    let total = shared.total.load(Ordering::SeqCst);
    if c1 != total || c2 != total {
        shared.record(Violation::LostUpdates { c1, c2, total });
    }

    StressReport {
        seed: opts.seed,
        label: opts.label.clone(),
        threads: opts.threads,
        total_acquisitions: total,
        violations: shared.violations.into_inner().unwrap_or_else(|p| p.into_inner()),
        max_gap: shared.max_gap.load(Ordering::Relaxed),
        gap_histogram: std::array::from_fn(|i| shared.histogram[i].load(Ordering::Relaxed)),
        chaos_hits,
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Outcome of a multi-seed fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Seeds actually executed (stops at the first failure).
    pub seeds_run: usize,
    /// First failing report, if any.
    pub failure: Option<StressReport>,
    /// Critical sections completed across all runs.
    pub total_acquisitions: u64,
}

impl FuzzOutcome {
    /// Whether every seed passed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Panics with the failing report (replayable seed included) if any
    /// seed failed.
    pub fn assert_passed(&self) {
        if let Some(report) = &self.failure {
            panic!(
                "lock oracle failed after {} seed(s):\n{}",
                self.seeds_run,
                report.render()
            );
        }
    }
}

/// Derives `n` fuzz seeds from a base seed.
pub fn seed_batch(base: u64, n: usize) -> Vec<u64> {
    let mut rng = TestRng::new(base);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Runs the oracle once per seed, stopping at the first failure.
///
/// `factory(seed, thread_index)` builds the per-thread handle; it is
/// called on the worker threads, after chaos is configured for `seed`.
pub fn fuzz_seeds<H, F>(opts: &StressOptions, seeds: &[u64], factory: F) -> FuzzOutcome
where
    H: OracleHandle,
    F: Fn(u64, usize) -> H + Sync,
{
    let mut total = 0u64;
    for (i, &seed) in seeds.iter().enumerate() {
        let run_opts = StressOptions {
            seed,
            ..opts.clone()
        };
        let report = run_stress(&run_opts, |tid| factory(seed, tid));
        total += report.total_acquisitions;
        if !report.passed() {
            return FuzzOutcome {
                seeds_run: i + 1,
                failure: Some(report),
                total_acquisitions: total,
            };
        }
    }
    FuzzOutcome {
        seeds_run: seeds.len(),
        failure: None,
        total_acquisitions: total,
    }
}

/// Deliberately broken locks: ground truth that the oracle *detects*
/// violations, not just that correct locks pass. Each implements
/// [`RawLock`] so it flows through the exact plumbing real locks use.
pub mod mutants {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    use clof_locks::{LockInfo, NoContext, RawLock};

    /// A test-**then**-set "lock" with no atomic read-modify-write: two
    /// threads can both observe `held == false`, both store `true`, and
    /// both enter. The deliberate yield inside the window makes the race
    /// near-certain even on a single CPU.
    #[derive(Debug, Default)]
    pub struct BrokenTas {
        held: AtomicBool,
    }

    impl RawLock for BrokenTas {
        type Context = NoContext;

        const INFO: LockInfo = LockInfo {
            name: "broken-tas",
            full_name: "Broken test-then-set (racy, for oracle validation)",
            fair: false,
            local_spinning: false,
            needs_context: false,
            waiter_hint: false,
        };

        fn acquire(&self, _ctx: &mut NoContext) {
            loop {
                if !self.held.load(Ordering::Acquire) {
                    // The bug: the check and the store are not one atomic
                    // step. Yielding here hands the window to another
                    // thread deterministically on small machines.
                    std::thread::yield_now();
                    self.held.store(true, Ordering::Release);
                    return;
                }
                std::thread::yield_now();
            }
        }

        fn try_acquire_until(&self, _ctx: &mut NoContext, deadline: Instant) -> bool {
            loop {
                if !self.held.load(Ordering::Acquire) {
                    std::thread::yield_now();
                    self.held.store(true, Ordering::Release);
                    return true;
                }
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::yield_now();
            }
        }

        fn release(&self, _ctx: &mut NoContext) {
            self.held.store(false, Ordering::Release);
        }
    }

    /// A ticket lock whose release grants **two** tickets on every fourth
    /// release, admitting two waiters at once from then on.
    #[derive(Debug, Default)]
    pub struct DoubleGrantTicket {
        next: AtomicU64,
        grant: AtomicU64,
        releases: AtomicU64,
    }

    impl RawLock for DoubleGrantTicket {
        type Context = NoContext;

        const INFO: LockInfo = LockInfo {
            name: "double-grant-tkt",
            full_name: "Ticketlock granting two tickets per fourth release",
            fair: true,
            local_spinning: false,
            needs_context: false,
            waiter_hint: false,
        };

        fn acquire(&self, _ctx: &mut NoContext) {
            let ticket = self.next.fetch_add(1, Ordering::Relaxed);
            while self.grant.load(Ordering::Acquire) < ticket {
                std::thread::yield_now();
            }
        }

        /// Takes a ticket only when it would be served at once, so a
        /// timeout never leaves one behind.
        fn try_acquire_until(&self, _ctx: &mut NoContext, deadline: Instant) -> bool {
            loop {
                let ticket = self.next.load(Ordering::Relaxed);
                if self.grant.load(Ordering::Acquire) >= ticket
                    && self
                        .next
                        .compare_exchange(ticket, ticket + 1, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    return true;
                }
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::yield_now();
            }
        }

        fn release(&self, _ctx: &mut NoContext) {
            let n = self.releases.fetch_add(1, Ordering::Relaxed) + 1;
            let step = if n % 4 == 0 { 2 } else { 1 };
            self.grant.fetch_add(step, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mutants::{BrokenTas, DoubleGrantTicket};
    use super::*;
    use clof_locks::TicketLock;
    use std::sync::Arc;

    #[test]
    fn correct_ticket_lock_passes() {
        let lock = Arc::new(TicketLock::default());
        let opts = StressOptions {
            threads: 4,
            iters: 60,
            seed: 0xA11CE,
            label: "tkt".into(),
            ..StressOptions::default()
        };
        let report = run_stress(&opts, |_| RawHandle::new(&lock));
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.total_acquisitions, 4 * 60);
    }

    #[test]
    fn broken_tas_is_caught_with_replayable_seed() {
        let seeds = seed_batch(0xBAD_5EED, 16);
        let opts = StressOptions {
            threads: 4,
            iters: 50,
            label: "broken-tas".into(),
            ..StressOptions::default()
        };
        let lock = Arc::new(BrokenTas::default());
        let outcome = fuzz_seeds(&opts, &seeds, |_seed, _tid| RawHandle::new(&lock));
        let report = outcome.failure.expect("oracle must catch the broken lock");
        assert!(!report.passed());
        assert!(
            report.render().contains("replay with seed 0x"),
            "report names a replay seed:\n{}",
            report.render()
        );
        // The named seed reproduces the class of failure on its own.
        let again = run_stress(
            &StressOptions {
                seed: report.seed,
                ..opts.clone()
            },
            |_| RawHandle::new(&lock),
        );
        assert!(!again.passed(), "replay seed did not reproduce");
    }

    #[test]
    fn double_grant_ticket_is_caught() {
        let lock = Arc::new(DoubleGrantTicket::default());
        let opts = StressOptions {
            threads: 4,
            iters: 50,
            seed: 0xD0B1E,
            label: "double-grant".into(),
            ..StressOptions::default()
        };
        let report = run_stress(&opts, |_| RawHandle::new(&lock));
        assert!(!report.passed(), "oracle must catch the double-grant mutant");
    }

    #[test]
    fn gap_bound_mechanism_fires_and_relaxes() {
        // The gap counts from arrival at `acquire()`, a few instructions
        // before the enqueue, so even FIFO locks can exceed `threads - 1`;
        // bounds are a starvation tripwire, not a FIFO proof. With bound
        // 0, anyone who waited behind another thread must be flagged...
        let lock = Arc::new(TicketLock::default());
        let opts = StressOptions {
            threads: 2,
            iters: 50,
            seed: 0xFA1,
            max_gap: Some(0),
            label: "tkt-gap-0".into(),
            ..StressOptions::default()
        };
        let report = run_stress(&opts, |_| RawHandle::new(&lock));
        let flagged = report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnfairGap { .. }));
        assert!(
            flagged || report.max_gap == 0,
            "alternation without an UnfairGap violation:\n{}",
            report.render()
        );
        // ...and with a generous bound the same lock passes clean.
        let relaxed = run_stress(
            &StressOptions {
                max_gap: Some(10_000),
                label: "tkt-gap-loose".into(),
                ..opts
            },
            |_| RawHandle::new(&lock),
        );
        assert!(relaxed.passed(), "{}", relaxed.render());
    }

    #[test]
    fn gap_bucketing_is_monotone() {
        assert_eq!(gap_bucket(0), 0);
        assert_eq!(gap_bucket(1), 1);
        assert_eq!(gap_bucket(2), 2);
        assert_eq!(gap_bucket(3), 2);
        assert_eq!(gap_bucket(4), 3);
        assert!(gap_bucket(u64::MAX) < GAP_BUCKETS);
    }
}
