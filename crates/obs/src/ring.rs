//! The crate's one seqlock ring.
//!
//! `Ring` keeps the **latest** `capacity` records of `N` words each
//! — older slots are overwritten, and `dropped()` reports how many. A
//! record is claimed by a *ticket* from the ring's cursor and published
//! through its slot's sequence word, seqlock-style: odd while the words
//! are written, `2 * ticket + 2` once they are (0 = never written).
//! Readers never disturb the ring, so exporters may render the same
//! records any number of times; a slot caught mid-write is detected by
//! the sequence re-check and skipped, so reads are best-effort under
//! concurrency and exact at quiescence. Its users keep only their
//! pack/unpack and their ticket source:
//!
//! * the tracer's per-thread buffers ([`crate::trace`], 5 words) — one
//!   writer each;
//! * [`crate::AuditRing`] (6 words) — shared by every writer, which
//!   claims its ticket with one `fetch_add` and then its slot with a CAS
//!   on the sequence word, from an older even value to its own odd one.
//!   Two writers whose tickets are `capacity` apart meet in one slot;
//!   the CAS lets only one of them write it, and the other drops its
//!   record, so a push stays wait-free and a slot never holds words of
//!   two records.
//!
//! The `recorded`/`dropped` counts saturate: they pin at the ceiling
//! instead of wrapping back to small values, so a truncated trace
//! never reads as complete.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One slot: the sequence word, then the record's words.
struct Slot<const N: usize> {
    seq: AtomicU64,
    words: [AtomicU64; N],
}

impl<const N: usize> Slot<N> {
    #[inline]
    fn write(&self, words: [u64; N]) {
        for (word, value) in self.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
    }

    /// Publishes the record under `seq` (even); the Release store keeps
    /// the data stores before it.
    #[inline]
    fn commit(&self, seq: u64) {
        self.seq.store(seq, Ordering::Release);
    }
}

/// The sequence word of `ticket`'s published record, `2 * ticket + 2`.
/// Wrapping keeps it well-formed at the saturation boundary; 0 means
/// "never written", so it is remapped to 2.
#[inline]
fn seq_of(ticket: u64) -> u64 {
    match ticket.wrapping_mul(2).wrapping_add(2) {
        0 => 2,
        s => s,
    }
}

/// A fixed-capacity ring of `N`-word records keeping the most recent
/// `capacity` (rounded up to a power of two, minimum 8).
pub(crate) struct Ring<const N: usize> {
    slots: Box<[Slot<N>]>,
    mask: u64,
    cursor: AtomicU64,
}

impl<const N: usize> std::fmt::Debug for Ring<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl<const N: usize> Ring<N> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Ring {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            mask: (cap - 1) as u64,
            cursor: AtomicU64::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever pushed (saturating at `u64::MAX`).
    pub(crate) fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records overwritten before they could be read (saturating).
    pub(crate) fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Pushes one record. Single writer only: the ticket is a relaxed
    /// load + store of the cursor, no RMW.
    #[inline]
    pub(crate) fn push(&self, words: [u64; N]) {
        let ticket = self.cursor.load(Ordering::Relaxed);
        self.cursor
            .store(ticket.saturating_add(1), Ordering::Relaxed);
        self.publish(ticket, words);
    }

    /// Pushes one record from any number of writers: each claims its
    /// ticket with one `fetch_add`, then its slot with [`Ring::claim`].
    /// A writer that loses the slot drops its record. Wait-free.
    pub(crate) fn push_shared(&self, words: [u64; N]) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        if ticket == u64::MAX {
            // Re-pin instead of wrapping (at one record per ns this is
            // ~584 years away; the pin keeps the accounting honest).
            self.cursor.store(u64::MAX, Ordering::Relaxed);
        }
        if let Some((slot, seq)) = self.claim(ticket) {
            slot.write(words);
            slot.commit(seq);
        }
    }

    #[inline]
    fn slot(&self, ticket: u64) -> &Slot<N> {
        &self.slots[(ticket & self.mask) as usize]
    }

    #[inline]
    fn publish(&self, ticket: u64, words: [u64; N]) {
        let slot = self.slot(ticket);
        let seq = seq_of(ticket);
        // Mark write-in-progress (odd); the fence keeps the data stores
        // after it, the final Release store keeps them before the
        // publish (even).
        slot.seq.store(seq - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.write(words);
        slot.commit(seq);
    }

    /// Claims `ticket`'s slot for a shared writer: a CAS of the sequence
    /// word from an older even value to this ticket's odd one. `None` if
    /// the slot is mid-write or already holds this ticket or a newer one.
    /// The word only grows while writers run, so each failed CAS sees a
    /// larger value and the loop ends within as many retries as there
    /// are writers ahead on this slot.
    fn claim(&self, ticket: u64) -> Option<(&Slot<N>, u64)> {
        let slot = self.slot(ticket);
        let seq = seq_of(ticket);
        let mut current = slot.seq.load(Ordering::Relaxed);
        loop {
            if current % 2 == 1 || current >= seq {
                return None;
            }
            match slot
                .seq
                .compare_exchange(current, seq - 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
        // As in `publish`: the data stores stay after the odd mark.
        fence(Ordering::Release);
        Some((slot, seq))
    }

    /// Calls `f(ticket, words)` for every published record, in slot
    /// order, skipping slots torn by a concurrent write; the ring is
    /// left as it was.
    pub(crate) fn read(&self, mut f: impl FnMut(u64, [u64; N])) {
        for slot in self.slots.iter() {
            let seq0 = slot.seq.load(Ordering::Acquire);
            if seq0 == 0 || seq0 % 2 == 1 {
                continue; // never written, or write in progress
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // The fence keeps the data loads before the re-check.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq0 {
                continue; // torn by a concurrent overwrite
            }
            f((seq0 - 2) / 2, words);
        }
    }

    /// Empties the ring. Not linearizable against writers; call at
    /// quiescence.
    pub(crate) fn reset(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        self.cursor.store(0, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn set_cursor(&self, v: u64) {
        self.cursor.store(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Every record of `ring`, oldest ticket first.
    fn records<const N: usize>(ring: &Ring<N>) -> Vec<(u64, [u64; N])> {
        let mut out = Vec::new();
        ring.read(|ticket, words| out.push((ticket, words)));
        out.sort_by_key(|&(ticket, _)| ticket);
        out
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::<2>::with_capacity(0).capacity(), 8);
        assert_eq!(Ring::<2>::with_capacity(100).capacity(), 128);
    }

    #[test]
    fn a_read_leaves_the_ring_as_it_was() {
        let ring = Ring::<2>::with_capacity(64);
        for (ticket, value) in [30u64, 10, 20].into_iter().enumerate() {
            ring.push([value, ticket as u64]);
        }
        let first = records(&ring);
        assert_eq!(first, [(0, [30, 0]), (1, [10, 1]), (2, [20, 2])]);
        assert_eq!((ring.recorded(), ring.dropped()), (3, 0));
        // Readers never disturb the ring: a second read is identical.
        assert_eq!(records(&ring), first);
        assert_eq!((ring.recorded(), ring.dropped()), (3, 0));
    }

    #[test]
    fn overwrite_keeps_the_latest_records_and_counts_drops() {
        for shared in [false, true] {
            let ring = Ring::<2>::with_capacity(8);
            for i in 0..20u64 {
                if shared {
                    ring.push_shared([i, i]);
                } else {
                    ring.push([i, i]);
                }
            }
            // The latest capacity-many records survive, under the
            // tickets they were pushed with.
            let expected: Vec<_> = (12..20u64).map(|i| (i, [i, i])).collect();
            assert_eq!(records(&ring), expected, "shared = {shared}");
            assert_eq!((ring.recorded(), ring.dropped()), (20, 12));
            ring.reset();
            assert!(records(&ring).is_empty());
            assert_eq!(ring.recorded(), 0);
        }
    }

    /// Both ticket sources pin the counts at the ceiling: without
    /// saturation the cursor would wrap to ~3, `recorded()` would
    /// collapse from 2^64 to a tiny number and `dropped()` to 0, hiding
    /// ~2^64 lost records. (A debug build once panicked on the
    /// single-writer path's overflow.)
    fn drop_accounting_saturates<const N: usize>() {
        for shared in [false, true] {
            let ring = Ring::<N>::with_capacity(8);
            ring.set_cursor(u64::MAX - 2);
            for i in 0..6u64 {
                if shared {
                    ring.push_shared([i; N]);
                } else {
                    ring.push([i; N]);
                }
            }
            assert_eq!(ring.recorded(), u64::MAX, "shared = {shared}");
            assert_eq!(ring.dropped(), u64::MAX - 8);
            // The ring still functions for reads after saturating.
            assert!(!records(&ring).is_empty());
        }
    }

    #[test]
    fn drop_accounting_saturates_instead_of_wrapping() {
        drop_accounting_saturates::<2>();
        drop_accounting_saturates::<5>();
        drop_accounting_saturates::<6>();
    }

    /// A reader racing a writer that pushes 200 000 records (claiming
    /// its tickets with `fetch_add` when `shared`) sees only whole
    /// records: every word of a record carries the same value, so a torn
    /// slot (some words old, some new) is recognisable.
    fn a_racing_reader_sees_only_whole_records<const N: usize>(shared: bool) {
        const RECORDS: u64 = 200_000;
        let ring = Arc::new(Ring::<N>::with_capacity(8));
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
            std::thread::spawn(move || {
                for i in 0..RECORDS {
                    if shared {
                        ring.push_shared([i; N]);
                    } else {
                        ring.push([i; N]);
                    }
                }
                done.store(true, Ordering::Release);
            })
        };
        while !done.load(Ordering::Acquire) {
            ring.read(|ticket, words| {
                assert!(words.iter().all(|&w| w == ticket), "torn slot: {words:?}");
            });
        }
        writer.join().unwrap();
        assert_eq!(ring.recorded(), RECORDS);
        assert_eq!(records(&ring).len(), 8);
    }

    #[test]
    fn a_reader_racing_a_two_word_writer_sees_only_whole_records() {
        a_racing_reader_sees_only_whole_records::<2>(false);
    }

    #[test]
    fn a_reader_racing_the_trace_writer_sees_only_whole_spans() {
        a_racing_reader_sees_only_whole_records::<5>(false);
    }

    /// Two shared writers whose tickets are `capacity` apart, stepped by
    /// hand. Were a claim unconditional, the order "A claims, B claims,
    /// B writes, B commits, A writes" would let a reader pass the
    /// sequence re-check on B's ticket with A's words. B's claim must
    /// find the slot mid-write and drop B's record; an older writer that
    /// comes after a newer commit must drop its own.
    #[test]
    fn a_shared_writer_lapped_in_its_slot_drops_its_record() {
        let ring = Ring::<6>::with_capacity(8);
        let (a, b) = (3, 3 + 8);
        let (slot_a, seq_a) = ring.claim(a).expect("A finds the slot empty");
        if let Some((slot_b, seq_b)) = ring.claim(b) {
            slot_b.write([b; 6]);
            slot_b.commit(seq_b);
        }
        slot_a.write([a; 6]);
        for (ticket, words) in records(&ring) {
            assert!(words.iter().all(|&w| w == ticket), "torn: {ticket} {words:?}");
        }
        slot_a.commit(seq_a);
        assert_eq!(records(&ring), [(a, [a; 6])]);

        // B now claims over A's committed record; a later writer with
        // A's ticket (as after a delay) cannot claim back over B.
        let (slot_b, seq_b) = ring.claim(b).expect("B is newer than A");
        slot_b.write([b; 6]);
        slot_b.commit(seq_b);
        assert!(ring.claim(a).is_none());
        assert!(ring.claim(b).is_none());
        assert_eq!(records(&ring), [(b, [b; 6])]);
    }

    #[test]
    fn a_reader_racing_the_audit_writer_sees_only_whole_records() {
        a_racing_reader_sees_only_whole_records::<6>(true);
    }
}
