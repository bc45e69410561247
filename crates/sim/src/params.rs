//! Calibrated per-algorithm cost tables.
//!
//! Each basic lock is characterized by three virtual-nanosecond costs:
//!
//! * `acquire_ns` — bookkeeping on the acquire path (uncontended part).
//! * `handover_ns` — releaser-side work plus the wake-to-running latency
//!   of the next owner, *excluding* line transfers (priced separately by
//!   the machine's level costs).
//! * `global_spin_coeff` — for globally-spinning locks, the extra
//!   handover delay per *additional* waiter sharing the spin line,
//!   multiplied by the level's transfer cost. This is the invalidation
//!   storm that makes the Ticketlock collapse at wide levels while
//!   remaining the cheapest lock at narrow ones (paper Figure 3).
//!
//! Calibration targets the paper's *qualitative* per-level rankings
//! (Figure 3), not absolute hardware numbers:
//!
//! * x86 system level (2 contenders): `tkt` best by a small margin.
//! * x86 NUMA level (8 cache groups): `hem` (CTR) best; `tkt` poor.
//! * x86 core level (2 hyperthreads): `hem`/`tkt` above `mcs`/`clh`.
//! * Armv8 NUMA level: `clh` best; `tkt` poor; `hem-ctr` ≈ zero
//!   (LL/SC interference on the release-side spin, §3.2).
//! * Armv8 system level: `tkt` best.

use clof::LockKind;

use crate::machine::Arch;

/// Cost model of one basic lock on one architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockCosts {
    /// Acquire-path overhead (ns).
    pub acquire_ns: f64,
    /// Handover overhead (ns), excluding line transfer.
    pub handover_ns: f64,
    /// Extra handover ns per additional waiter, per transfer-ns unit.
    pub global_spin_coeff: f64,
    /// Continuous coherence tax: extra critical-section ns per
    /// globally-spinning waiter *beyond the first few* at a node on the
    /// owner's path, per transfer-ns unit. A couple of spinners share the
    /// line quietly; past that the invalidation traffic compounds and
    /// slows every critical section. This is the term
    /// that makes "Ticketlock at the NUMA level" wreck a whole
    /// composition (paper §5.2.2) even though keep_local makes NUMA-level
    /// handovers rare.
    pub spin_tax_coeff: f64,
}

/// Returns the cost table of `kind` on `arch`.
pub fn lock_costs(kind: LockKind, arch: Arch) -> LockCosts {
    use LockKind::*;
    match (kind, arch) {
        // Ticketlock: trivially cheap paths, but every waiter spins on
        // the shared grant word.
        (Ticket, _) => LockCosts {
            acquire_ns: 20.0,
            handover_ns: 40.0,
            global_spin_coeff: 0.40,
            spin_tax_coeff: 1.2,
        },
        // MCS: heavier paths (node init, tail swap, next-pointer dance),
        // local spinning.
        (Mcs, _) => LockCosts {
            acquire_ns: 50.0,
            handover_ns: 80.0,
            global_spin_coeff: 0.0,
            spin_tax_coeff: 0.0,
        },
        // CLH: slightly leaner than MCS; leaner still on Armv8, where its
        // single-flag handover suits the LL/SC pipeline (paper Fig. 3b:
        // best NUMA-level lock on Armv8).
        (Clh, Arch::X86) => LockCosts {
            acquire_ns: 45.0,
            handover_ns: 70.0,
            global_spin_coeff: 0.0,
            spin_tax_coeff: 0.0,
        },
        (Clh, Arch::Armv8) => LockCosts {
            acquire_ns: 40.0,
            handover_ns: 45.0,
            global_spin_coeff: 0.0,
            spin_tax_coeff: 0.0,
        },
        // Hemlock without CTR: compact, near-local spinning; the
        // release-side wait for the successor's acknowledgement adds a
        // little handover cost.
        (Hemlock, _) => LockCosts {
            acquire_ns: 35.0,
            handover_ns: 70.0,
            global_spin_coeff: 0.02,
            spin_tax_coeff: 0.0,
        },
        // Hemlock with CTR on x86: the fetch_add/cmpxchg trick removes
        // the shared→modified upgrades on the grant line, the paper's
        // best NUMA-level x86 lock.
        (HemlockCtr, Arch::X86) => LockCosts {
            acquire_ns: 30.0,
            handover_ns: 35.0,
            global_spin_coeff: 0.0,
            spin_tax_coeff: 0.0,
        },
        // Hemlock with CTR on Armv8: fetch_add(0) on the releaser's spin
        // and the successor's cmpxchg acknowledgement target the same
        // line with exclusive reservations, repeatedly killing each
        // other: the release takes ~three orders of magnitude longer
        // (paper: "the throughput is close to 0").
        (HemlockCtr, Arch::Armv8) => LockCosts {
            acquire_ns: 35.0,
            handover_ns: 30_000.0,
            global_spin_coeff: 0.02,
            spin_tax_coeff: 0.0,
        },
        // Anderson array lock: local spinning like MCS, slightly cheaper
        // handover (single flag flip), plus a fetch_add on the shared
        // slot counter at acquire (a mild global touch).
        (Anderson, _) => LockCosts {
            acquire_ns: 40.0,
            handover_ns: 60.0,
            global_spin_coeff: 0.03,
            spin_tax_coeff: 0.0,
        },
        // TTAS: cheapest paths, worst storm: *every* waiter swaps on
        // release.
        (Ttas, _) => LockCosts {
            acquire_ns: 15.0,
            handover_ns: 35.0,
            global_spin_coeff: 0.60,
            spin_tax_coeff: 1.5,
        },
    }
}

/// Extra per-handover cost of CNA/ShflLock's queue scanning & shuffling
/// (the overhead the paper blames for their sub-MCS performance below 32
/// threads, §3.4).
pub const SHUFFLE_OVERHEAD_NS: f64 = 55.0;

/// Cost of the ShflLock test-and-set fast path (uncontended acquires
/// bypass the queue entirely).
pub const TAS_FASTPATH_NS: f64 = 12.0;

#[cfg(test)]
mod tests {
    use super::*;

    /// Saturated-throughput proxy: handover cost of one hand-off with
    /// `contenders` threads at a level with the given transfer cost.
    fn handoff_cost(kind: LockKind, arch: Arch, contenders: usize, transfer: f64) -> f64 {
        let c = lock_costs(kind, arch);
        let waiters = contenders.saturating_sub(1) as f64;
        // One waiter spins for free (it holds the line shared); the storm
        // grows with the others.
        let storm = c.global_spin_coeff * (waiters - 1.0).max(0.0) * transfer;
        c.acquire_ns + c.handover_ns + storm + transfer
    }

    const FAIR: [LockKind; 5] = [
        LockKind::Ticket,
        LockKind::Mcs,
        LockKind::Clh,
        LockKind::Hemlock,
        LockKind::HemlockCtr,
    ];

    fn best(arch: Arch, contenders: usize, transfer: f64) -> LockKind {
        *FAIR
            .iter()
            .min_by(|a, b| {
                handoff_cost(**a, arch, contenders, transfer)
                    .partial_cmp(&handoff_cost(**b, arch, contenders, transfer))
                    .unwrap()
            })
            .unwrap()
    }

    #[test]
    fn x86_system_level_prefers_ticket() {
        // 2 packages contend at the system level (transfer 400 ns).
        assert_eq!(best(Arch::X86, 2, 400.0), LockKind::Ticket);
    }

    #[test]
    fn x86_numa_level_prefers_hem_ctr() {
        // 8 cache groups contend within a NUMA node (transfer ≈ 260 ns).
        assert_eq!(best(Arch::X86, 8, 260.0), LockKind::HemlockCtr);
        // ... and the Ticketlock is the worst fair lock there (Fig. 3a).
        let tkt = handoff_cost(LockKind::Ticket, Arch::X86, 8, 260.0);
        for k in FAIR {
            assert!(handoff_cost(k, Arch::X86, 8, 260.0) <= tkt, "{k:?}");
        }
    }

    #[test]
    fn armv8_numa_level_prefers_clh_and_kills_ctr() {
        // 8 cache groups contend within an Armv8 NUMA node (≈ 134 ns).
        assert_eq!(best(Arch::Armv8, 8, 134.0), LockKind::Clh);
        let ctr = handoff_cost(LockKind::HemlockCtr, Arch::Armv8, 8, 134.0);
        let clh = handoff_cost(LockKind::Clh, Arch::Armv8, 8, 134.0);
        assert!(ctr > 50.0 * clh, "CTR must collapse on Armv8");
    }

    #[test]
    fn armv8_system_level_prefers_ticket() {
        assert_eq!(best(Arch::Armv8, 2, 400.0), LockKind::Ticket);
    }

    #[test]
    fn x86_core_level_ranks_hem_and_tkt_above_mcs_clh() {
        // 2 hyperthreads (transfer ≈ 33 ns).
        let rank = |k| handoff_cost(k, Arch::X86, 2, 33.0);
        assert!(rank(LockKind::Ticket) < rank(LockKind::Mcs));
        assert!(rank(LockKind::HemlockCtr) < rank(LockKind::Mcs));
        assert!(rank(LockKind::HemlockCtr) < rank(LockKind::Clh));
    }

    #[test]
    fn unfair_locks_have_their_signatures() {
        // TTAS: the cheapest acquire and the worst release storm.
        let ttas = lock_costs(LockKind::Ttas, Arch::X86);
        for kind in LockKind::ALL.into_iter().filter(|&k| k != LockKind::Ttas) {
            let other = lock_costs(kind, Arch::X86);
            assert!(ttas.acquire_ns < other.acquire_ns, "{kind:?}");
            assert!(ttas.global_spin_coeff > other.global_spin_coeff, "{kind:?}");
        }
    }
}
