//! # clof-testkit — deterministic in-repo test harness
//!
//! The workspace's testing infrastructure, with **zero external
//! dependencies** so the whole suite builds and runs offline:
//!
//! * [`rng`] — [`TestRng`], a SplitMix64 stream: every
//!   generated case is a pure function of one replayable 64-bit seed.
//! * [`gen`] — [`Gen<T>`](gen::Gen) composable generators with greedy
//!   shrinking (the proptest generate/shrink split, minimally).
//! * [`check`](mod@check) — the property runner ([`check`](fn@check) /
//!   [`check_with`]) and the [`props!`] macro;
//!   failures print a seed and `CLOF_TESTKIT_SEED=… CLOF_TESTKIT_CASES=1`
//!   replays them.
//! * [`strategies`] — domain generators: regular [`Hierarchy`]s, fair
//!   [`LockKind`]s, per-level compositions.
//! * [`oracle`] — the schedule-fuzzing lock oracle: drives any
//!   [`RawLock`] or `DynClofLock` handle through contended critical
//!   sections, checking mutual exclusion (owner cell + torn-counter
//!   pair), the paper's §4.1 context invariant (via `clof-core`'s
//!   `testkit`-gated detector), and fairness gap bounds, while
//!   `clof_locks::chaos` perturbs schedules inside the locks' own race
//!   windows. [`oracle::mutants`] holds deliberately broken locks that
//!   prove the oracle detects what it claims to.
//! * [`obscheck`] — quiescent-counter invariants for lock telemetry
//!   ([`assert_stats_consistent`]),
//!   stated over plain numbers so they apply under any feature set.
//! * [`swapper`] — forced-migration driver for `clof::adapt`: runs the
//!   oracle while a seeded background thread hot-swaps the lock between
//!   compositions, so the handover protocol is fuzzed mid-contention.
//! * [`deadline`] — forced-timeout schedule
//!   driver: turns the oracle's blocking acquires into seeded bounded
//!   retries and injects deterministic deadline expiries inside the
//!   locks' wait loops, so abandonment races are opened on schedule.
//!
//! Determinism story: generators and the fuzzer's *decisions* are pure
//! functions of seeds; actual thread interleavings still belong to the
//! OS scheduler. A printed seed therefore replays a failing *case*
//! exactly and a failing *schedule class* with high probability.
//!
//! [`Hierarchy`]: clof_topology::Hierarchy
//! [`LockKind`]: clof::LockKind
//! [`RawLock`]: clof_locks::RawLock

#![warn(missing_docs)]

pub mod check;
pub mod deadline;
pub mod gen;
pub mod obscheck;
pub mod oracle;
pub mod rng;
pub mod strategies;
pub mod swapper;

pub use check::{check, check_with, Config};
pub use deadline::{
    fuzz_timeout_seeds, with_forced_timeouts, BlockingOrTimed, DeadlineHandle, ForcedTimeoutPlan,
    TimedHandle, TimeoutFuzzOutcome,
};
pub use obscheck::{assert_stats_consistent, assert_total_order, LevelTally};
pub use gen::Gen;
pub use oracle::{
    fuzz_seeds, run_stress, seed_batch, FuzzOutcome, OracleHandle, RawHandle, StressOptions,
    StressReport, Violation,
};
pub use rng::TestRng;
pub use swapper::{fuzz_swap_seeds, with_forced_swaps, SwapFuzzOutcome, SwapPlan};
