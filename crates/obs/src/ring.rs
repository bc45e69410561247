//! The crate's one seqlock ring, and the ring of lock-passing events
//! built on it.
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
//! * [`EventRing`] (2 words) — every lock handle owns one inside its
//!   [`crate::Shard`] and is its only writer;
//! * the tracer's per-thread buffers ([`crate::trace`], 5 words) — one
//!   writer each;
//! * [`crate::AuditRing`] (6 words) — shared by every writer, which
//!   claims its ticket with one `fetch_add`.
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
    /// ticket with one `fetch_add`. Wait-free.
    pub(crate) fn push_shared(&self, words: [u64; N]) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        if ticket == u64::MAX {
            // Re-pin instead of wrapping (at one record per ns this is
            // ~584 years away; the pin keeps the accounting honest).
            self.cursor.store(u64::MAX, Ordering::Relaxed);
        }
        self.publish(ticket, words);
    }

    #[inline]
    fn publish(&self, ticket: u64, words: [u64; N]) {
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Wrapping keeps the seq word well-formed at the saturation
        // boundary; 0 means "never written", so remap it to 2.
        let seq = match ticket.wrapping_mul(2).wrapping_add(2) {
            0 => 2,
            s => s,
        };
        // Mark write-in-progress (odd); the fence keeps the data stores
        // after it, the final Release store keeps them before the
        // publish (even).
        slot.seq.store(seq - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (word, value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq, Ordering::Release);
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

/// What a lock-passing event records about the release decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// The high lock was passed within the cohort (stayed local).
    Pass,
    /// The high lock was released upward toward the root.
    ReleaseUp,
}

/// One timestamped hand-off decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassEvent {
    /// Nanoseconds since the process observation epoch ([`crate::now_ns`]).
    pub timestamp_ns: u64,
    /// Hierarchy level of the deciding node (0 = innermost).
    pub level: u8,
    /// Dense process-wide tag of the releasing thread
    /// ([`crate::thread_tag`]).
    pub thread: u32,
    /// Pass vs. release-to-root.
    pub kind: PassKind,
}

/// Packs level/kind/thread into one word: `level | kind << 8 | thread << 32`.
fn pack(level: u8, kind: PassKind, thread: u32) -> u64 {
    let k = match kind {
        PassKind::Pass => 0u64,
        PassKind::ReleaseUp => 1u64,
    };
    level as u64 | (k << 8) | ((thread as u64) << 32)
}

fn unpack(word: u64) -> (u8, PassKind, u32) {
    let level = (word & 0xff) as u8;
    let kind = if (word >> 8) & 1 == 0 {
        PassKind::Pass
    } else {
        PassKind::ReleaseUp
    };
    let thread = (word >> 32) as u32;
    (level, kind, thread)
}

/// A single-writer ring buffer of [`PassEvent`]s keeping the most recent
/// `capacity` (rounded up to a power of two, minimum 8): a timestamp
/// word and a packed level/kind/thread word per event. A lock's trace is
/// the timestamp-ordered merge of its handles' rings (plus what retired
/// handles left behind).
#[derive(Debug)]
pub struct EventRing {
    ring: Ring<2>,
}

impl EventRing {
    /// Capacity of a handle's ring: the trace tail one handle keeps.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A ring holding the latest `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        EventRing {
            ring: Ring::with_capacity(capacity),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total events ever recorded (monotone; may exceed `capacity`).
    /// Saturating: pinned at `u64::MAX` instead of wrapping back to
    /// small values, so `dropped()` never lies after an overflow.
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events overwritten before they could be read (saturating —
    /// mirrored verbatim into both the JSON and Prometheus exporters as
    /// the truncated-trace detector, so it must never wrap to 0).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Records one event stamped `timestamp_ns` (the caller's release
    /// timestamp — no clock read here). Single writer only.
    #[inline]
    pub fn record(&self, timestamp_ns: u64, level: u8, kind: PassKind, thread: u32) {
        self.ring.push([timestamp_ns, pack(level, kind, thread)]);
    }

    /// Copies out the currently-held events, oldest first (sorted by
    /// timestamp), **without clearing the ring** — rendering a snapshot
    /// twice yields identical output. Slots caught mid-write are
    /// skipped. Exact at quiescence.
    pub fn events(&self) -> Vec<PassEvent> {
        let mut out = Vec::with_capacity(self.ring.capacity());
        self.ring.read(|_, [timestamp_ns, packed]| {
            let (level, kind, thread) = unpack(packed);
            out.push(PassEvent {
                timestamp_ns,
                level,
                thread,
                kind,
            });
        });
        out.sort_by_key(|e| e.timestamp_ns);
        out
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
    fn pack_unpack_round_trip() {
        for level in [0u8, 1, 2, 255] {
            for kind in [PassKind::Pass, PassKind::ReleaseUp] {
                for thread in [0u32, 1, 7, u32::MAX] {
                    assert_eq!(unpack(pack(level, kind, thread)), (level, kind, thread));
                }
            }
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::<2>::with_capacity(0).capacity(), 8);
        assert_eq!(Ring::<2>::with_capacity(100).capacity(), 128);
    }

    #[test]
    fn events_returns_recorded_events_in_timestamp_order() {
        let ring = EventRing::with_capacity(64);
        ring.record(30, 0, PassKind::Pass, 3);
        ring.record(10, 1, PassKind::ReleaseUp, 4);
        ring.record(20, 0, PassKind::Pass, 3);
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.timestamp_ns).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!((events[0].level, events[0].kind), (1, PassKind::ReleaseUp));
        assert_eq!((events[1].level, events[1].kind), (0, PassKind::Pass));
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dropped(), 0);
        // events() does not clear: a second read is identical.
        assert_eq!(ring.events(), events);
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
    /// ~2^64 lost records. (The single-writer path is the event ring's
    /// and the tracer's; a debug build once panicked there on overflow.)
    #[test]
    fn drop_accounting_saturates_instead_of_wrapping() {
        for shared in [false, true] {
            let ring = Ring::<5>::with_capacity(8);
            ring.set_cursor(u64::MAX - 2);
            for i in 0..6u64 {
                if shared {
                    ring.push_shared([i; 5]);
                } else {
                    ring.push([i; 5]);
                }
            }
            assert_eq!(ring.recorded(), u64::MAX, "shared = {shared}");
            assert_eq!(ring.dropped(), u64::MAX - 8);
            // The ring still functions for reads after saturating.
            assert!(!records(&ring).is_empty());
        }
    }

    #[test]
    fn the_event_ring_exporters_mirror_a_saturated_count() {
        let ring = EventRing::with_capacity(8);
        ring.ring.set_cursor(u64::MAX - 2);
        for i in 0..6u32 {
            ring.record(u64::from(i), 0, PassKind::Pass, i);
        }
        let snap = crate::LockSnapshot {
            name: "sat".into(),
            levels: Vec::new(),
            hold_ns: crate::LogHistogram::new().snapshot(),
            events_recorded: ring.recorded(),
            events_dropped: ring.dropped(),
            events: Vec::new(),
        };
        let json = crate::render_json(&snap);
        assert!(
            json.contains(&format!("\"dropped\":{}", u64::MAX - 8)),
            "{json}"
        );
        let prom = crate::render_prometheus(&snap);
        assert!(
            prom.contains(&format!(
                "clof_pass_events_dropped_total{{lock=\"sat\"}} {}",
                u64::MAX - 8
            )),
            "{prom}"
        );
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
    fn a_reader_racing_the_event_ring_writer_sees_only_whole_events() {
        a_racing_reader_sees_only_whole_records::<2>(false);
    }

    #[test]
    fn a_reader_racing_the_trace_writer_sees_only_whole_spans() {
        a_racing_reader_sees_only_whole_records::<5>(false);
    }

    #[test]
    fn a_reader_racing_the_audit_writer_sees_only_whole_records() {
        a_racing_reader_sees_only_whole_records::<6>(true);
    }
}
