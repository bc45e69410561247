//! Decision audit ring: *why* did the adaptation layer switch (or not)?
//!
//! The hysteresis policy ([`crate::policy`]) and the hot-swap controller
//! (`clof::adapt`) make decisions from windowed telemetry, and those
//! decisions are expensive to second-guess after the fact: by the time
//! an operator asks "why did the lock migrate at 14:02", the window
//! rates that justified it are gone. This module keeps a fixed-capacity,
//! lock-free ring of [`AuditRecord`]s — one per policy decision and one
//! per completed migration — each carrying the decision's *inputs*
//! (window rates, Little's-law concurrency, challenger margin, streak
//! state) and its *output* (switch/hold plus a machine-readable
//! [`AuditReason`]).
//!
//! The ring is the crate's one seqlock ring (`ring.rs`): a writer
//! claims a ticket with one `fetch_add`, then its slot with a CAS on the
//! slot's sequence word (a writer a lap behind drops its record), and
//! publishes it through that word. Readers ([`AuditRing::entries`]) never
//! disturb the ring, so `clof adapt` can render the same
//! records any number of times. Drop accounting is
//! saturating — the counters never wrap, no matter how long the process
//! lives.
//!
//! A process-global ring ([`global`]) is the default sink: the policy
//! controller records into it unconditionally (a handful of relaxed
//! stores per *window*, nowhere near the lock hot path), so any consumer
//! that can see `clof-obs` can replay the controller's reasoning.

use std::sync::OnceLock;

use crate::now_ns;
use crate::ring::Ring;

/// Default capacity of the global audit ring.
pub const AUDIT_DEFAULT_CAPACITY: usize = 256;

/// Machine-readable cause attached to every audit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditReason {
    /// The window carried no usable evidence (no traffic, non-finite
    /// rates); the streak was reset.
    NoEvidence,
    /// The active composition is already the predicted best.
    ActiveBest,
    /// A challenger leads, but within the hysteresis margin.
    WithinMargin,
    /// A challenger beat the margin; the win streak is building but has
    /// not reached `k` yet.
    StreakBuilding,
    /// The streak reached `k`: the policy emitted a switch decision.
    Switched,
    /// A migration completed (recorded by the hot-swap controller;
    /// `detail_ns` holds the measured switch latency).
    MigrationDone,
    /// A commanded migration failed and the active index was rolled
    /// back.
    MigrationFailed,
}

impl AuditReason {
    fn as_u64(self) -> u64 {
        match self {
            AuditReason::NoEvidence => 0,
            AuditReason::ActiveBest => 1,
            AuditReason::WithinMargin => 2,
            AuditReason::StreakBuilding => 3,
            AuditReason::Switched => 4,
            AuditReason::MigrationDone => 5,
            AuditReason::MigrationFailed => 6,
        }
    }

    fn from_u64(v: u64) -> Self {
        match v {
            1 => AuditReason::ActiveBest,
            2 => AuditReason::WithinMargin,
            3 => AuditReason::StreakBuilding,
            4 => AuditReason::Switched,
            5 => AuditReason::MigrationDone,
            6 => AuditReason::MigrationFailed,
            _ => AuditReason::NoEvidence,
        }
    }

    /// Stable lower-case token (`no-evidence`, `switched`, ...).
    pub fn token(self) -> &'static str {
        match self {
            AuditReason::NoEvidence => "no-evidence",
            AuditReason::ActiveBest => "active-best",
            AuditReason::WithinMargin => "within-margin",
            AuditReason::StreakBuilding => "streak-building",
            AuditReason::Switched => "switched",
            AuditReason::MigrationDone => "migration-done",
            AuditReason::MigrationFailed => "migration-failed",
        }
    }
}

/// One audited decision: the inputs the policy saw and what it did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRecord {
    /// Nanoseconds since the process observation epoch ([`now_ns`]).
    pub timestamp_ns: u64,
    /// Monotone sequence number assigned by the ring at record time.
    pub seq: u64,
    /// Lock acquisitions per second in the decision window.
    pub acquires_per_sec: f64,
    /// Little's-law concurrency estimate (0 when the window was
    /// unusable).
    pub concurrency: f64,
    /// Index of the composition the controller believed active.
    pub active: u32,
    /// Index of the best-predicted challenger this window.
    pub best: u32,
    /// Challenger's relative advantage over the active composition
    /// (`best_tp / active_tp - 1`; 0 when not computed).
    pub margin: f64,
    /// Consecutive-win streak after this window.
    pub streak: u32,
    /// Why the decision came out the way it did.
    pub reason: AuditReason,
    /// Reason-specific detail: switch latency in ns for
    /// [`AuditReason::MigrationDone`], 0 otherwise.
    pub detail_ns: u64,
}

impl std::fmt::Display for AuditRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{:<4} t+{:>12} ns  {:<15}  active {} best {}  L {:6.2}  \
             margin {:+6.1}%  streak {}",
            self.seq,
            self.timestamp_ns,
            self.reason.token(),
            self.active,
            self.best,
            self.concurrency,
            self.margin * 100.0,
            self.streak,
        )?;
        if self.detail_ns > 0 {
            write!(f, "  ({} ns)", self.detail_ns)?;
        }
        Ok(())
    }
}

/// Packs active/best/streak/reason into one word:
/// `active | best << 16 | streak << 32 | reason << 48`.
fn pack(active: u32, best: u32, streak: u32, reason: AuditReason) -> u64 {
    (active as u64 & 0xffff)
        | ((best as u64 & 0xffff) << 16)
        | ((streak as u64 & 0xffff) << 32)
        | (reason.as_u64() << 48)
}

fn unpack(word: u64) -> (u32, u32, u32, AuditReason) {
    (
        (word & 0xffff) as u32,
        ((word >> 16) & 0xffff) as u32,
        ((word >> 32) & 0xffff) as u32,
        AuditReason::from_u64(word >> 48),
    )
}

/// Fixed-capacity, lock-free ring of [`AuditRecord`]s keeping the most
/// recent `capacity` decisions (rounded up to a power of two, minimum
/// 8): the timestamp, the three `f64` inputs as bits, the packed
/// indices/streak/reason word and the detail per record. Writers are
/// wait-free; readers are non-destructive.
pub struct AuditRing {
    ring: Ring<6>,
}

impl std::fmt::Debug for AuditRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl AuditRing {
    /// A ring holding the latest `capacity` records (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        AuditRing {
            ring: Ring::with_capacity(capacity),
        }
    }

    /// A ring with [`AUDIT_DEFAULT_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(AUDIT_DEFAULT_CAPACITY)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total records ever written (saturating — pinned at `u64::MAX`
    /// instead of wrapping).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Records overwritten before they could be read (saturating).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Records one decision, stamped now and numbered by the ring.
    /// Wait-free.
    pub fn record(
        &self,
        acquires_per_sec: f64,
        concurrency: f64,
        active: u32,
        best: u32,
        margin: f64,
        streak: u32,
        reason: AuditReason,
        detail_ns: u64,
    ) {
        self.ring.push_shared([
            now_ns(),
            acquires_per_sec.to_bits(),
            concurrency.to_bits(),
            margin.to_bits(),
            pack(active, best, streak, reason),
            detail_ns,
        ]);
    }

    /// Copies out the surviving records, oldest first (by sequence
    /// number), **without clearing the ring** — rendering twice yields
    /// identical output. Slots caught mid-write are skipped; exact at
    /// quiescence.
    pub fn entries(&self) -> Vec<AuditRecord> {
        let mut out = Vec::with_capacity(self.capacity());
        self.ring.read(
            |seq, [timestamp_ns, acq, conc, margin, packed, detail_ns]| {
                let (active, best, streak, reason) = unpack(packed);
                out.push(AuditRecord {
                    timestamp_ns,
                    seq,
                    acquires_per_sec: f64::from_bits(acq),
                    concurrency: f64::from_bits(conc),
                    active,
                    best,
                    margin: f64::from_bits(margin),
                    streak,
                    reason,
                    detail_ns,
                });
            },
        );
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Zeroes every slot and the cursor (between runs / tests). Not
    /// linearizable against concurrent writers; call at quiescence.
    pub fn reset(&self) {
        self.ring.reset();
    }
}

impl Default for AuditRing {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global audit ring the policy controller records into.
pub fn global() -> &'static AuditRing {
    static RING: OnceLock<AuditRing> = OnceLock::new();
    RING.get_or_init(AuditRing::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ring: &AuditRing, n: u64) {
        for i in 0..n {
            ring.record(
                1000.0 + i as f64,
                4.2,
                0,
                1,
                0.25,
                i as u32 & 0xffff,
                if i % 2 == 0 {
                    AuditReason::StreakBuilding
                } else {
                    AuditReason::Switched
                },
                0,
            );
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        for reason in [
            AuditReason::NoEvidence,
            AuditReason::ActiveBest,
            AuditReason::WithinMargin,
            AuditReason::StreakBuilding,
            AuditReason::Switched,
            AuditReason::MigrationDone,
            AuditReason::MigrationFailed,
        ] {
            assert_eq!(unpack(pack(3, 7, 11, reason)), (3, 7, 11, reason));
            assert_eq!(AuditReason::from_u64(reason.as_u64()), reason);
        }
    }

    #[test]
    fn entries_survive_repeated_reads() {
        let ring = AuditRing::with_capacity(16);
        sample(&ring, 5);
        let a = ring.entries();
        let b = ring.entries();
        assert_eq!(a.len(), 5);
        assert_eq!(a, b, "entries() is non-destructive");
        assert!(a.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(a[0].acquires_per_sec, 1000.0);
        assert_eq!(a[4].reason, AuditReason::StreakBuilding);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn display_mentions_reason_and_margin() {
        let ring = AuditRing::with_capacity(8);
        ring.record(100.0, 2.0, 0, 1, 0.30, 2, AuditReason::StreakBuilding, 0);
        let line = ring.entries()[0].to_string();
        assert!(line.contains("streak-building"), "{line}");
        assert!(line.contains("+30.0%"), "{line}");
    }

    #[test]
    fn global_ring_is_shared() {
        global().record(1.0, 1.0, 0, 0, 0.0, 0, AuditReason::ActiveBest, 0);
        assert!(global().recorded() >= 1);
    }

    #[test]
    fn reset_clears_entries() {
        let ring = AuditRing::with_capacity(8);
        sample(&ring, 4);
        ring.reset();
        assert!(ring.entries().is_empty());
        assert_eq!(ring.recorded(), 0);
    }
}
