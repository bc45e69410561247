//! Runnable lock-contention workloads: a LevelDB-like store and a
//! Kyoto-Cabinet-like store, generic over the guarding lock.
//!
//! The paper evaluates locks by interposing `pthread` locks under
//! LevelDB's `readrandom` benchmark and Kyoto Cabinet (§5.1.2,
//! `LD_PRELOAD`). This crate provides the equivalent experiment as a
//! library: two small but real storage engines whose shared state is
//! guarded by a *pluggable* lock — any CLoF composition, HMCS, CNA,
//! ShflLock, or `std::sync::Mutex` — so the same workload runs under every
//! lock in the repo:
//!
//! * [`MiniDb`] — an LSM-flavoured ordered store (memtable + sorted runs
//!   + merge compaction) with a `readrandom`-style benchmark.
//! * [`CabinetDb`] — an open-addressed hash store in the Kyoto Cabinet
//!   HashDB mould.
//! * [`DbMutex`] / [`LockChoice`] — the pluggable-lock layer (the
//!   `LD_PRELOAD` analogue).

#![warn(missing_docs)]

pub mod cabinet;
mod hash;
pub mod lock;
pub mod minidb;

pub use cabinet::CabinetDb;
pub use lock::{DbHandle, DbMutex, LockChoice};
pub use minidb::{MiniDb, MiniDbHandle, MiniDbOptions};
