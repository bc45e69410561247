//! NUMA-oblivious spinlocks with the CLoF *context abstraction*.
//!
//! This crate is the substrate of the CLoF reproduction (SOSP 2021,
//! Chehab et al.): a family of simple, *NUMA-oblivious* spinlocks exposing
//! one common interface, the [`RawLock`] trait, so that the compositional
//! framework in `clof-core` can stack them into multi-level NUMA-aware
//! locks without knowing anything about their internals.
//!
//! The locks provided here mirror the paper's basic-lock set (§2.1):
//!
//! * [`TicketLock`] — fair, global spinning, no context.
//! * [`McsLock`] — fair, local spinning, context-based (queue node).
//! * [`ClhLock`] — fair, local spinning on the predecessor's node.
//! * [`Hemlock`] / [`HemlockCtr`] — fair, mostly-local spinning, with the
//!   optional x86 Coherence-Traffic-Reduction (CTR) codepath.
//! * [`AndersonLock`] — fair, array-based local spinning (an extra
//!   family beyond the paper's four, exercising the framework's
//!   any-conforming-lock claim).
//! * [`TtasLock`] — the *unfair* lock (§4.2.1), included to exercise the
//!   paper's fairness discussion (§4.2.3): CLoF compositions are only
//!   fair when every component is fair. It is also the test-and-set gate
//!   of `clof-core`'s fast path (§6).
//!
//! # Context abstraction
//!
//! The paper distinguishes no-context locks (`NoCtxLockType`, e.g.
//! Ticketlock) from context-based locks (`CtxLockType`, e.g. MCS/CLH),
//! and standardizes both behind one interface. Here, every lock declares
//! an associated [`RawLock::Context`]; no-context locks use the zero-sized
//! [`NoContext`]. The **context invariant** (paper §4.1.3) — a context is
//! never used concurrently for more than one acquire/release — is enforced
//! statically by taking `&mut Context` in [`RawLock::acquire`] and
//! [`RawLock::release`].
//!
//! # Thread-obliviousness
//!
//! All locks here may be *released by a different thread* than the one
//! that acquired them, provided the same context is used — the property
//! CLoF's lock-passing mechanism requires of *high* locks (§4.1.3).
//!
//! # Spinning policy
//!
//! The paper evaluates on dedicated servers with pinned threads. This
//! library is also meant to run tests on small or oversubscribed hosts, so
//! every wait uses [`Backoff`]: polls at most 8 `spin_loop` hints apart,
//! so a grant is seen within one burst however long the wait, then
//! `std::thread::yield_now`. See `DESIGN.md` §6.
//!
//! # Deadlines
//!
//! Every lock also offers [`RawLock::try_acquire_until`], which gives up
//! at a deadline and leaves no queue position behind (see [`deadline`]).
//! It is part of each lock's one protocol, not a build option: a blocking
//! waiter must survive a neighbour that times out, so the code every
//! build ships is the code the deadline oracle checks.

#![warn(missing_docs)]

pub mod anderson;
pub mod chaos;
pub mod clh;
pub mod deadline;
pub mod hemlock;
pub mod mcs;
pub mod pad;
pub mod park;
pub mod raw;
pub mod spin;
pub mod ticket;
pub mod ttas;

pub use anderson::{AndersonContext, AndersonLock};
pub use clh::{ClhContext, ClhLock};
pub use deadline::DeadlinePoll;
pub use hemlock::{HemContext, Hemlock, HemlockCtr};
pub use mcs::{McsContext, McsLock};
pub use pad::{CachePadded, CACHE_LINE};
#[cfg(feature = "park")]
pub use park::PARK_MARKER;
pub use park::{ParkSpot, WaitWord, Waiter, SPIN_FOREVER};
pub use raw::{LockInfo, NoContext, RawLock};
pub use spin::Backoff;
pub use ticket::TicketLock;
pub use ttas::TtasLock;

/// A convenience mutex wrapping user data with any [`RawLock`].
pub mod mutex;
pub use mutex::{RawLockMutex, RawLockMutexGuard};
