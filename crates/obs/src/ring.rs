//! Fixed-capacity single-writer ring of lock-passing events.
//!
//! Every lock handle owns one small ring inside its [`crate::Shard`] and
//! is its only writer, so recording is a relaxed load + store of the
//! cursor plus a slot publish through the slot's sequence word
//! (seqlock-style: odd while writing, even+ticket when done) — no RMW,
//! no line another thread writes. The ring keeps the **latest**
//! `capacity` events — older slots are overwritten, and `dropped()`
//! reports how many. A lock's trace is the timestamp-ordered merge of
//! its handles' rings (plus what retired handles left behind).
//!
//! [`EventRing::events`] snapshots without disturbing the ring
//! (exporters may render the same events any number of times). It is
//! best-effort under concurrency: a slot being overwritten mid-read is
//! detected by the sequence re-check and skipped; read at quiescence for
//! exact traces.

use std::sync::atomic::{fence, AtomicU64, Ordering};

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

/// Slot layout: `seq` (odd = write in progress; even = `2 * ticket + 2`
/// of the event it holds), `ts`, and the packed level/kind/thread word.
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    packed: AtomicU64,
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
/// `capacity` (rounded up to a power of two, minimum 8).
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    cursor: AtomicU64,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventRing {
    /// Capacity of a handle's ring: the trace tail one handle keeps.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A ring holding the latest `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ts: AtomicU64::new(0),
                packed: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            mask: (cap - 1) as u64,
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (monotone; may exceed `capacity`).
    /// Saturating: pinned at `u64::MAX` instead of wrapping back to
    /// small values, so `dropped()` never lies after an overflow.
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events overwritten before they could be read (saturating —
    /// mirrored verbatim into both the JSON and Prometheus exporters as
    /// the truncated-trace detector, so it must never wrap to 0).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Records one event stamped `timestamp_ns` (the caller's release
    /// timestamp — no clock read here). Single writer only.
    #[inline]
    pub fn record(&self, timestamp_ns: u64, level: u8, kind: PassKind, thread: u32) {
        let ticket = self.cursor.load(Ordering::Relaxed);
        // Saturating, so the recorded/dropped accounting pins at the
        // ceiling instead of lying after an (unreachable) overflow.
        self.cursor
            .store(ticket.saturating_add(1), Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Wrapping keeps the seq word well-formed at the saturation
        // boundary; 0 means "never written", so remap it to 2 (seq only
        // distinguishes published/in-progress/empty).
        let seq = match ticket.wrapping_mul(2).wrapping_add(2) {
            0 => 2,
            s => s,
        };
        // Mark write-in-progress (odd); the fence keeps the data stores
        // after it, the final Release store keeps them before the
        // publish (even).
        slot.seq.store(seq - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts.store(timestamp_ns, Ordering::Relaxed);
        slot.packed
            .store(pack(level, kind, thread), Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Copies out the currently-held events, oldest first (sorted by
    /// timestamp), **without clearing the ring** — rendering a snapshot
    /// twice yields identical output. Slots caught mid-write are
    /// skipped. Exact at quiescence.
    pub fn events(&self) -> Vec<PassEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq0 = slot.seq.load(Ordering::Acquire);
            if seq0 == 0 || seq0 % 2 == 1 {
                continue; // never written, or write in progress
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let packed = slot.packed.load(Ordering::Relaxed);
            // Torn-read check: a concurrent overwrite bumped seq.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq0 {
                continue;
            }
            let (level, kind, thread) = unpack(packed);
            out.push(PassEvent {
                timestamp_ns: ts,
                level,
                thread,
                kind,
            });
        }
        out.sort_by_key(|e| e.timestamp_ns);
        out
    }

    #[cfg(test)]
    fn set_cursor(&self, v: u64) {
        self.cursor.store(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(EventRing::with_capacity(0).capacity(), 8);
        assert_eq!(EventRing::with_capacity(100).capacity(), 128);
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
    fn overwrite_keeps_latest_events() {
        let ring = EventRing::with_capacity(8);
        for i in 0..20u32 {
            ring.record(u64::from(i), 0, PassKind::Pass, i);
        }
        let events = ring.events();
        assert_eq!(events.len(), 8);
        // Latest capacity-many records survive: tags 12..20.
        let tags: Vec<u32> = events.iter().map(|e| e.thread).collect();
        assert_eq!(tags, (12..20).collect::<Vec<_>>());
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.dropped(), 12);
    }

    #[test]
    fn drop_accounting_saturates_instead_of_wrapping() {
        let ring = EventRing::with_capacity(8);
        ring.set_cursor(u64::MAX - 2);
        for i in 0..6u32 {
            ring.record(u64::from(i), 0, PassKind::Pass, i);
        }
        // Without saturation the cursor would wrap to ~3: recorded()
        // would collapse from 2^64 to a tiny number and dropped() to 0,
        // hiding ~2^64 lost events. Pinned at MAX, both stay at the
        // ceiling and stay monotone.
        assert_eq!(ring.recorded(), u64::MAX);
        assert_eq!(ring.dropped(), u64::MAX - 8);
        // The ring still functions for reads after saturating.
        assert!(!ring.events().is_empty());
        // And the exporters mirror the saturated counter verbatim.
        let snap = crate::LockSnapshot {
            name: "sat".into(),
            levels: Vec::new(),
            hold_ns: crate::LogHistogram::new().snapshot(),
            events_recorded: ring.recorded(),
            events_dropped: ring.dropped(),
            events: Vec::new(),
        };
        let json = crate::render_json(&snap);
        assert!(json.contains(&format!("\"dropped\":{}", u64::MAX - 8)), "{json}");
        let prom = crate::render_prometheus(&snap);
        assert!(
            prom.contains(&format!(
                "clof_pass_events_dropped_total{{lock=\"sat\"}} {}",
                u64::MAX - 8
            )),
            "{prom}"
        );
    }

    #[test]
    fn a_reader_racing_the_writer_sees_only_whole_events() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(EventRing::with_capacity(8));
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
            std::thread::spawn(move || {
                // Timestamp and thread tag move in lock step, so a torn
                // slot (one word old, one new) is recognisable.
                for i in 0..200_000u32 {
                    ring.record(u64::from(i), 1, PassKind::Pass, i);
                }
                done.store(true, Ordering::Release);
            })
        };
        while !done.load(Ordering::Acquire) {
            for e in ring.events() {
                assert_eq!(e.timestamp_ns, u64::from(e.thread), "torn slot surfaced");
            }
        }
        writer.join().unwrap();
        assert_eq!(ring.recorded(), 200_000);
        assert_eq!(ring.events().len(), 8);
    }
}
