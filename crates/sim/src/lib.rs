//! Deterministic virtual-time simulation of lock handover on multi-level
//! NUMA machines.
//!
//! # Why a simulator
//!
//! The paper evaluates on a 96-hyperthread x86 server and a 128-core
//! Armv8 server. This reproduction targets hosts that have neither (the
//! reference build machine has 2 CPUs and no NUMA), so the evaluation
//! substrate is a **discrete-event simulator**: threads are simulated
//! entities cycling
//! through *think → acquire → critical section → release*; the lock
//! models implement the *actual hand-off policies* (CLoF's `lockgen`
//! semantics, HMCS's thresholds, CNA/ShflLock's NUMA preference, plain
//! FIFO for the basic locks) over virtual time; and the costs of each
//! hand-off are derived from the machine's hierarchy — crossing a wider
//! level costs more, global spinning costs more the more waiters share
//! the line.
//!
//! The simulator is deterministic (seeded [`rng::Rng`]) and fast
//! (millions of events per second), which is what lets the benchmark
//! harness regenerate every figure of the paper, including the 256-lock
//! sweeps of Figure 9, in seconds. Absolute numbers are *not* claims
//! about real hardware; the calibration (in [`params`]) targets the
//! paper's qualitative structure: Table 2's level speedups and Figure 3's
//! per-level basic-lock rankings. See `EXPERIMENTS.md`.
//!
//! # Structure
//!
//! * [`machine`] — the simulated machine: hierarchy + per-level transfer
//!   costs + architecture (x86 vs Armv8, for the CTR pathology).
//! * [`params`] — per-algorithm cost tables (calibrated, documented).
//! * [`model`] — lock model specs: CLoF compositions, HMCS, CNA,
//!   ShflLock, flat basic locks.
//! * [`engine`] — the event loop implementing the hierarchical hand-off
//!   policy in virtual time.
//! * [`workload`] — workload models (LevelDB `readrandom`, Kyoto
//!   Cabinet) and thread placement.
//! * [`rng`] — small deterministic SplitMix64/xoshiro PRNG (no external
//!   dependency, reproducible figures).

#![warn(missing_docs)]

pub mod engine;
pub mod machine;
pub mod model;
pub mod params;
pub mod rng;
pub mod workload;

pub use engine::{run, RunResult};
pub use machine::{Arch, Machine};
pub use model::ModelSpec;
pub use workload::{placement, Workload};
