//! CLoF: a Compositional Lock Framework for multi-level NUMA systems.
//!
//! Reproduction of Chehab et al., *CLoF: A Compositional Lock Framework
//! for Multi-level NUMA Systems*, SOSP 2021. Given a set of simple,
//! NUMA-oblivious spinlocks (from [`clof_locks`]) and a *hierarchy
//! configuration* (from [`clof_topology`]) describing the target machine,
//! this crate composes them — one basic lock type per hierarchy level —
//! into multi-level, heterogeneous, NUMA-aware locks, enumerates all
//! `N^M` compositions, benchmarks them, and selects the best for a target
//! contention profile.
//!
//! # The two composition flavours
//!
//! * [`compose`] — **static** composition: `Clof<L, H>` nests lock types
//!   at compile time (Rust generics play the role of the paper's
//!   *syntactic recursion* via C macros — zero virtual dispatch, fully
//!   monomorphized).
//! * [`dynlock`] — **dynamic** composition: [`DynClofLock`] assembles any
//!   composition described by a `&[LockKind]` at run time using enum
//!   dispatch (one `match`, no virtual function pointers). This is what
//!   the exhaustive generator uses: 256 static types would otherwise have
//!   to be monomorphized to benchmark a 4-level hierarchy with 4 basic
//!   locks.
//!
//! Both flavours are thin adapters over one implementation of the
//! paper's level step (Figure 8, the private `step` module): waiter
//! read-indicator (skipped when the basic lock has a native waiter
//! hint), `keep_local` threshold, pass-flag hand-off, and the **release
//! order** (high before low) that the context invariant requires.
//!
//! # Quick start
//!
//! ```
//! use clof::dynlock::DynClofLock;
//! use clof::kind::LockKind;
//! use clof_topology::platforms;
//!
//! // 8-CPU machine: cache pairs inside 2 NUMA quads.
//! let hierarchy = platforms::tiny();
//! // A 3-level heterogeneous CLoF lock: MCS at cache level, CLH at NUMA
//! // level, Ticketlock at system level ("mcs-clh-tkt").
//! let lock = DynClofLock::build(
//!     &hierarchy,
//!     &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
//! )
//! .unwrap();
//! let mut handle = lock.handle(0); // this thread runs on CPU 0
//! handle.acquire();
//! // ... critical section ...
//! handle.release();
//! ```

#![warn(missing_docs)]

#[cfg(feature = "adapt")]
pub mod adapt;
pub mod compose;
pub mod cpu;
pub mod dynlock;
pub mod error;
pub mod fastpath;
pub mod generator;
pub mod kind;
pub mod level;
pub mod mutex;
pub mod select;
mod step;
mod telemetry;

#[cfg(feature = "adapt")]
pub use adapt::{AdaptHandle, AdaptiveLock, MigrationStats};
pub use compose::{Clof, ClofHandle, ClofTree, HierLock, Leaf};
pub use dynlock::{DispatchTier, DynClofLock, DynHandle};
pub use error::ClofError;
pub use fastpath::{FastClof, FastClofHandle};
pub use generator::{compositions, composition_name, generate_all, parse_composition};
pub use kind::LockKind;
pub use level::{ClofParams, LevelStats, MAX_WAITER_STRIPES};
pub use mutex::{ClofMutex, ClofMutexGuard, ClofMutexHandle};
pub use select::{rank, scripted_benchmark, BenchResult, CandidateObs, Policy, Selection};
/// The level step's mutant switch, for the mutant-kill suite.
#[cfg(feature = "testkit")]
pub use step::mutant as step_mutant;

/// Re-export of the telemetry crate (`obs` feature only), so downstream
/// users never need a direct `clof-obs` dependency: snapshots come from
/// [`DynClofLock::obs_snapshot`] and render via [`obs::render_json`] /
/// [`obs::render_prometheus`].
#[cfg(feature = "obs")]
pub use clof_obs as obs;
