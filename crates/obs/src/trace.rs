//! Causal span tracing: per-thread lock-free buffers of acquire / hold /
//! release spans with hand-off causality edges.
//!
//! Counters say *how often* the high lock stayed local; a trace says
//! *which* thread passed to which, and when — the intra-node hand-off
//! chains CNA and ShflLock reason about, observable one edge at a time.
//! The design constraints, in order:
//!
//! 1. **Wait-free hot path.** A traced transition is one write into a
//!    thread-local single-writer ring — six relaxed/release word stores,
//!    no allocation, no CAS loop, no shared cache line with any other
//!    writer. When tracing is disabled (the default at runtime, and
//!    always in non-`obs` builds) the hot path is a single relaxed load.
//! 2. **Causality is explicit.** A pass records a fresh flow id and
//!    parks it in the passing node; the inheriting acquire reads it back
//!    into its wait span. The id travels through the same low-lock
//!    release→acquire edge that publishes the pass flag itself, so the
//!    edge is exactly as reliable as the protocol it describes.
//! 3. **Standard output format.** [`render_chrome_trace`] emits Chrome
//!    trace-event JSON (the `traceEvents` array form), which Perfetto
//!    and `chrome://tracing` load directly: spans as `"X"` complete
//!    events per thread track, hand-offs as `"s"`/`"f"` flow arrows.
//!
//! The tracer is process-global (like [`crate::thread_tag`]): enable it,
//! run the workload, [`snapshot`] at quiescence, [`clear`] between runs.
//! Tracing two locks at once interleaves their spans; trace one lock at
//! a time for ownership-timeline analysis ([`crate::analyze`]).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::thread_tag;

/// Default per-thread buffer capacity (events) when [`enable`] callers
/// have no opinion.
pub const TRACE_DEFAULT_CAPACITY: usize = 4096;

/// What a span records about a lock-protocol transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Waiting for (then winning) a level's low lock. `inherited` is
    /// whether the winner found the high lock already passed to its
    /// cohort — the consuming end of a hand-off edge.
    Wait {
        /// The acquire inherited a passed high lock.
        inherited: bool,
    },
    /// Critical-section hold (acquire-return to release-entry),
    /// whole-lock rather than per-level; `level`/`node` are 0.
    Hold,
    /// A release decision that passed the high lock within the cohort
    /// (instant; the producing end of a hand-off edge).
    Pass,
    /// A release decision that surrendered the high lock upward
    /// (instant). `forced` is whether waiters existed but the
    /// `keep_local` threshold refused — a chain cut by *H*, not by an
    /// idle cohort.
    ReleaseUp {
        /// Decline forced by the keep_local threshold.
        forced: bool,
    },
    /// A fast-path gate decision (`FastClof`): `fast` is whether the
    /// test-and-set gate was won directly (no composition walk).
    Gate {
        /// Gate won on the fast path.
        fast: bool,
    },
    /// A live-lock migration instant (the `adapt` layer): `complete`
    /// distinguishes the epoch flip that arms the hand-over from the
    /// observed baton arrival that completes it. The two are linked by
    /// a flow edge, so the timeline shows each migration as an arrow
    /// spanning the drain.
    Migrate {
        /// `false` = hand-over armed (epoch flipped); `true` = baton
        /// arrived at the incoming generation.
        complete: bool,
    },
}

/// One traced transition: a time interval (instants have `start_ns ==
/// end_ns`), its place in the hierarchy, and its causality edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span start, ns since the process observation epoch
    /// ([`crate::now_ns`]).
    pub start_ns: u64,
    /// Span end; equals `start_ns` for instant events.
    pub end_ns: u64,
    /// Hierarchy level of the recording node (0 = innermost; 0 for
    /// whole-lock spans).
    pub level: u8,
    /// Dense process-wide node tag ([`node_tag`]) distinguishing sibling
    /// cohorts of one level; 0 for whole-lock spans.
    pub node: u32,
    /// Recording thread ([`thread_tag`]).
    pub thread: u32,
    /// Transition kind plus its flag.
    pub kind: SpanKind,
    /// Flow id consumed by this span (a `Wait { inherited: true }`
    /// terminating a hand-off edge); 0 = none.
    pub flow_in: u64,
    /// Flow id produced by this span (a `Pass` starting a hand-off
    /// edge); 0 = none.
    pub flow_out: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A quiescent copy of every thread's buffer, merged and time-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// All surviving spans, sorted by `(start_ns, end_ns)`.
    pub events: Vec<SpanEvent>,
    /// Total spans ever recorded while enabled (monotone).
    pub recorded: u64,
    /// Spans overwritten before the snapshot (per-thread ring wrapped).
    pub dropped: u64,
}

impl Trace {
    /// Whether every recorded span survived into `events`. Analyses that
    /// assert exact protocol properties (chain bounds, total order)
    /// should require this — a wrapped ring truncates chains silently.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }
}

// ---------------------------------------------------------------------
// Packing: kind + flag + level + node share one word.
// ---------------------------------------------------------------------

const KIND_WAIT: u64 = 0;
const KIND_HOLD: u64 = 1;
const KIND_PASS: u64 = 2;
const KIND_RELEASE_UP: u64 = 3;
const KIND_GATE: u64 = 4;
const KIND_MIGRATE: u64 = 5;

fn pack(level: u8, node: u32, kind: SpanKind) -> u64 {
    let (code, flag) = match kind {
        SpanKind::Wait { inherited } => (KIND_WAIT, inherited),
        SpanKind::Hold => (KIND_HOLD, false),
        SpanKind::Pass => (KIND_PASS, false),
        SpanKind::ReleaseUp { forced } => (KIND_RELEASE_UP, forced),
        SpanKind::Gate { fast } => (KIND_GATE, fast),
        SpanKind::Migrate { complete } => (KIND_MIGRATE, complete),
    };
    level as u64 | (code << 8) | ((flag as u64) << 11) | ((node as u64) << 32)
}

fn unpack(word: u64) -> (u8, u32, SpanKind) {
    let level = (word & 0xff) as u8;
    let flag = (word >> 11) & 1 == 1;
    let kind = match (word >> 8) & 0x7 {
        KIND_WAIT => SpanKind::Wait { inherited: flag },
        KIND_HOLD => SpanKind::Hold,
        KIND_PASS => SpanKind::Pass,
        KIND_RELEASE_UP => SpanKind::ReleaseUp { forced: flag },
        KIND_MIGRATE => SpanKind::Migrate { complete: flag },
        _ => SpanKind::Gate { fast: flag },
    };
    (level, (word >> 32) as u32, kind)
}

// ---------------------------------------------------------------------
// Per-thread single-writer ring.
// ---------------------------------------------------------------------

/// One span slot. The seqlock word is odd while its single writer is
/// mid-store and `2 * ticket + 2` when published; a snapshot re-checks
/// it around the data loads and skips torn slots (only possible while
/// the owner thread is still running).
struct TraceSlot {
    seq: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
    packed: AtomicU64,
    flow_in: AtomicU64,
    flow_out: AtomicU64,
}

struct ThreadBuf {
    thread: u32,
    mask: u64,
    /// Write cursor; single writer, so a plain load+store pair suffices.
    head: AtomicU64,
    slots: Box<[TraceSlot]>,
}

impl ThreadBuf {
    fn new(thread: u32, capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|_| TraceSlot {
                seq: AtomicU64::new(0),
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
                packed: AtomicU64::new(0),
                flow_in: AtomicU64::new(0),
                flow_out: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ThreadBuf {
            thread,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// The one per-transition buffer write: no allocation, no locks, no
    /// contended cache line (the buffer belongs to this thread alone).
    #[inline]
    fn record(&self, start: u64, end: u64, packed: u64, flow_in: u64, flow_out: u64) {
        let ticket = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let seq = 2 * ticket + 2;
        slot.seq.store(seq - 1, Ordering::Release);
        slot.start.store(start, Ordering::Relaxed);
        slot.end.store(end, Ordering::Relaxed);
        slot.packed.store(packed, Ordering::Relaxed);
        slot.flow_in.store(flow_in, Ordering::Relaxed);
        slot.flow_out.store(flow_out, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
        self.head.store(ticket + 1, Ordering::Release);
    }

    /// Seqlock read of every published slot (exact at quiescence).
    fn collect(&self, out: &mut Vec<SpanEvent>) -> (u64, u64) {
        let recorded = self.head.load(Ordering::Acquire);
        for slot in self.slots.iter() {
            let seq0 = slot.seq.load(Ordering::Acquire);
            if seq0 == 0 || seq0 % 2 == 1 {
                continue;
            }
            let start = slot.start.load(Ordering::Relaxed);
            let end = slot.end.load(Ordering::Relaxed);
            let packed = slot.packed.load(Ordering::Relaxed);
            let flow_in = slot.flow_in.load(Ordering::Relaxed);
            let flow_out = slot.flow_out.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq0 {
                continue;
            }
            let (level, node, kind) = unpack(packed);
            out.push(SpanEvent {
                start_ns: start,
                end_ns: end,
                level,
                node,
                thread: self.thread,
                kind,
                flow_in,
                flow_out,
            });
        }
        let dropped = recorded.saturating_sub(self.slots.len() as u64);
        (recorded, dropped)
    }

    /// Resets the ring. Only sound at quiescence of the owner thread
    /// (the registry clears between runs, not mid-run).
    fn reset(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
        self.head.store(0, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Global registry.
// ---------------------------------------------------------------------

struct Registry {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    /// Bumped by `enable`/`clear`; a thread whose cached buffer carries
    /// a stale epoch re-registers a fresh one (registration is the only
    /// locked path, and it runs once per thread per epoch).
    epoch: AtomicU64,
    bufs: Mutex<Vec<Arc<ThreadBuf>>>,
}

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(TRACE_DEFAULT_CAPACITY),
        epoch: AtomicU64::new(1),
        bufs: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static TLS_BUF: std::cell::RefCell<Option<(u64, Arc<ThreadBuf>)>> =
        const { std::cell::RefCell::new(None) };
}

/// Whether the tracer is currently recording. One relaxed load — this
/// is the entire hot-path cost while tracing is off.
#[inline]
pub fn is_enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Turns tracing on with `capacity_per_thread` span slots per thread
/// (rounded up to a power of two, minimum 8). Discards any previous
/// trace. Size generously: a wrapped per-thread ring truncates silently
/// (visible as [`Trace::dropped`]).
pub fn enable(capacity_per_thread: usize) {
    let reg = registry();
    let mut bufs = reg.bufs.lock().expect("trace registry poisoned");
    bufs.clear();
    reg.capacity.store(capacity_per_thread, Ordering::Relaxed);
    reg.epoch.fetch_add(1, Ordering::Relaxed);
    reg.enabled.store(true, Ordering::Relaxed);
}

/// Stops recording. Buffers keep their contents for [`snapshot`].
pub fn disable() {
    registry().enabled.store(false, Ordering::Relaxed);
}

/// Discards all buffered spans (and detaches every thread's buffer;
/// threads re-register on their next traced transition if enabled).
pub fn clear() {
    let reg = registry();
    let mut bufs = reg.bufs.lock().expect("trace registry poisoned");
    for buf in bufs.iter() {
        buf.reset();
    }
    bufs.clear();
    reg.epoch.fetch_add(1, Ordering::Relaxed);
}

/// Records one span. Callers should guard with [`is_enabled`] to skip
/// argument computation when tracing is off; this re-checks anyway.
#[inline]
pub fn record(
    start_ns: u64,
    end_ns: u64,
    level: u8,
    node: u32,
    kind: SpanKind,
    flow_in: u64,
    flow_out: u64,
) {
    let reg = registry();
    if !reg.enabled.load(Ordering::Relaxed) {
        return;
    }
    let packed = pack(level, node, kind);
    let epoch = reg.epoch.load(Ordering::Relaxed);
    TLS_BUF.with(|tls| {
        let mut tls = tls.borrow_mut();
        let stale = match &*tls {
            Some((e, _)) => *e != epoch,
            None => true,
        };
        if stale {
            // Cold path: first traced transition of this thread in this
            // epoch. The registry mutex is never taken on the hot path.
            let buf = Arc::new(ThreadBuf::new(
                thread_tag(),
                reg.capacity.load(Ordering::Relaxed),
            ));
            reg.bufs
                .lock()
                .expect("trace registry poisoned")
                .push(Arc::clone(&buf));
            *tls = Some((epoch, buf));
        }
        let (_, buf) = tls.as_ref().expect("registered above");
        buf.record(start_ns, end_ns, packed, flow_in, flow_out);
    });
}

/// Merges every thread's buffer into a time-sorted [`Trace`]. Exact at
/// quiescence (no traced thread mid-transition); torn slots are skipped.
pub fn snapshot() -> Trace {
    let reg = registry();
    let bufs = reg.bufs.lock().expect("trace registry poisoned");
    let mut events = Vec::new();
    let mut recorded = 0u64;
    let mut dropped = 0u64;
    for buf in bufs.iter() {
        let (r, d) = buf.collect(&mut events);
        recorded += r;
        dropped += d;
    }
    events.sort_by_key(|e| (e.start_ns, e.end_ns, e.thread));
    Trace {
        events,
        recorded,
        dropped,
    }
}

/// A fresh process-unique flow id for a hand-off edge (never 0).
#[inline]
pub fn next_flow_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A fresh process-unique node tag (never 0; 0 means "whole lock").
/// Locks assign one per cohort node at build time so the analyzer can
/// separate sibling cohorts sharing a level.
#[inline]
pub fn node_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A lock node's place in a trace — its hierarchy level and [`node_tag`]
/// — plus the cell a pass parks its flow id in for the inheriting
/// acquire (design constraint 2). The cell is written under the node's
/// low lock just before the release that publishes the pass flag, and
/// read (and cleared) by the acquire that inherits it. Like
/// [`record`], the span methods are no-ops while tracing is off; guard
/// with [`is_enabled`] to skip computing their timestamps.
#[derive(Debug)]
pub struct NodeTrack {
    level: u8,
    node: u32,
    flow: AtomicU64,
}

impl NodeTrack {
    /// A fresh identity for a node at `level` (0 = innermost).
    pub fn new(level: usize) -> Self {
        NodeTrack {
            level: level as u8,
            node: node_tag(),
            flow: AtomicU64::new(0),
        }
    }

    /// The node's hierarchy level.
    #[inline]
    pub fn level(&self) -> usize {
        self.level as usize
    }

    /// The node's process-unique tag.
    #[inline]
    pub fn tag(&self) -> u32 {
        self.node
    }

    /// The node's low lock was won after waiting `start_ns..end_ns`;
    /// an `inherited` win consumes the flow id the passer parked.
    #[inline]
    pub fn wait_span(&self, start_ns: u64, end_ns: u64, inherited: bool) {
        let flow_in = if inherited {
            self.flow.swap(0, Ordering::Relaxed)
        } else {
            0
        };
        let kind = SpanKind::Wait { inherited };
        record(start_ns, end_ns, self.level, self.node, kind, flow_in, 0);
    }

    /// A release passed the high lock within the node's cohort.
    #[inline]
    pub fn pass_span(&self, at_ns: u64) {
        let flow = next_flow_id();
        self.flow.store(flow, Ordering::Relaxed);
        record(at_ns, at_ns, self.level, self.node, SpanKind::Pass, 0, flow);
    }

    /// A release surrendered the high lock upward.
    #[inline]
    pub fn release_up_span(&self, at_ns: u64, forced: bool) {
        let kind = SpanKind::ReleaseUp { forced };
        record(at_ns, at_ns, self.level, self.node, kind, 0, 0);
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event / Perfetto export.
// ---------------------------------------------------------------------

/// Microseconds with ns precision, as Chrome's `ts`/`dur` expect.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn span_name(e: &SpanEvent) -> String {
    match e.kind {
        SpanKind::Wait { inherited: true } => format!("wait L{} (inherited)", e.level),
        SpanKind::Wait { inherited: false } => format!("wait L{}", e.level),
        SpanKind::Hold => "hold".to_string(),
        SpanKind::Pass => format!("pass L{}", e.level),
        SpanKind::ReleaseUp { forced: true } => format!("release-up L{} (H hit)", e.level),
        SpanKind::ReleaseUp { forced: false } => format!("release-up L{}", e.level),
        SpanKind::Gate { fast: true } => "gate fast".to_string(),
        SpanKind::Gate { fast: false } => "gate slow".to_string(),
        SpanKind::Migrate { complete: true } => "migrate done".to_string(),
        SpanKind::Migrate { complete: false } => "migrate armed".to_string(),
    }
}

/// Renders a trace as Chrome trace-event JSON (object form with a
/// `traceEvents` array), loadable by Perfetto (<https://ui.perfetto.dev>)
/// and `chrome://tracing`. One track per thread (`tid` = thread tag);
/// wait/hold spans as `"X"` complete events, pass / release-up
/// decisions as `"i"` instants, and each hand-off as an `"s"` → `"f"`
/// flow arrow from the pass to the inheriting wait.
pub fn render_chrome_trace(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.events.len() * 128 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    push(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"clof\"}}"
            .to_string(),
        &mut first,
    );
    for e in &trace.events {
        let name = span_name(e);
        let args = format!(
            "{{\"level\":{},\"node\":{}}}",
            e.level, e.node
        );
        match e.kind {
            SpanKind::Wait { .. } | SpanKind::Hold | SpanKind::Gate { .. } => {
                push(
                    format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{name}\",\"cat\":\"clof\",\"args\":{args}}}",
                        e.thread,
                        us(e.start_ns),
                        us(e.duration_ns()),
                    ),
                    &mut first,
                );
                if e.flow_in != 0 {
                    // Terminate the hand-off arrow where the wait ends —
                    // that is when the successor actually takes over.
                    push(
                        format!(
                            "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"handoff\",\"cat\":\"handoff\"}}",
                            e.thread,
                            us(e.end_ns),
                            e.flow_in,
                        ),
                        &mut first,
                    );
                }
            }
            SpanKind::Pass | SpanKind::ReleaseUp { .. } => {
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{name}\",\"cat\":\"clof\",\"args\":{args}}}",
                        e.thread,
                        us(e.start_ns),
                    ),
                    &mut first,
                );
                if e.flow_out != 0 {
                    push(
                        format!(
                            "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"handoff\",\"cat\":\"handoff\"}}",
                            e.thread,
                            us(e.start_ns),
                            e.flow_out,
                        ),
                        &mut first,
                    );
                }
            }
            SpanKind::Migrate { .. } => {
                // Instants on the controller's track; the armed→done
                // pair is linked by a "migration" flow arrow spanning
                // the drain.
                push(
                    format!(
                        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"s\":\"p\",\"name\":\"{name}\",\"cat\":\"clof\",\"args\":{args}}}",
                        e.thread,
                        us(e.start_ns),
                    ),
                    &mut first,
                );
                if e.flow_out != 0 {
                    push(
                        format!(
                            "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"migration\",\"cat\":\"migration\"}}",
                            e.thread,
                            us(e.start_ns),
                            e.flow_out,
                        ),
                        &mut first,
                    );
                }
                if e.flow_in != 0 {
                    push(
                        format!(
                            "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"migration\",\"cat\":\"migration\"}}",
                            e.thread,
                            us(e.end_ns),
                            e.flow_in,
                        ),
                        &mut first,
                    );
                }
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests that use it serialize here so
    /// parallel test threads never interleave their spans.
    static TRACER: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TRACER.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn pack_unpack_round_trip() {
        let kinds = [
            SpanKind::Wait { inherited: false },
            SpanKind::Wait { inherited: true },
            SpanKind::Hold,
            SpanKind::Pass,
            SpanKind::ReleaseUp { forced: false },
            SpanKind::ReleaseUp { forced: true },
            SpanKind::Gate { fast: false },
            SpanKind::Gate { fast: true },
            SpanKind::Migrate { complete: false },
            SpanKind::Migrate { complete: true },
        ];
        for level in [0u8, 1, 3, 255] {
            for node in [0u32, 1, 77, u32::MAX] {
                for kind in kinds {
                    assert_eq!(unpack(pack(level, node, kind)), (level, node, kind));
                }
            }
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = locked();
        clear();
        disable();
        record(1, 2, 0, 1, SpanKind::Hold, 0, 0);
        assert_eq!(snapshot().recorded, 0);
    }

    #[test]
    fn spans_survive_into_a_sorted_snapshot() {
        let _g = locked();
        enable(64);
        record(10, 20, 0, 1, SpanKind::Wait { inherited: false }, 0, 0);
        record(20, 30, 0, 0, SpanKind::Hold, 0, 0);
        record(5, 5, 1, 2, SpanKind::Pass, 0, 9);
        disable();
        let t = snapshot();
        clear();
        assert_eq!(t.recorded, 3);
        assert_eq!(t.dropped, 0);
        assert!(t.is_complete());
        assert_eq!(t.events.len(), 3);
        assert!(t
            .events
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(t.events[0].kind, SpanKind::Pass);
        assert_eq!(t.events[0].flow_out, 9);
        assert_eq!(t.events[2].kind, SpanKind::Hold);
    }

    #[test]
    fn per_thread_ring_wraps_and_counts_drops() {
        let _g = locked();
        enable(8);
        for i in 0..20u64 {
            record(i, i, 0, 1, SpanKind::Hold, 0, 0);
        }
        disable();
        let t = snapshot();
        clear();
        assert_eq!(t.recorded, 20);
        assert_eq!(t.dropped, 12);
        assert!(!t.is_complete());
        assert_eq!(t.events.len(), 8);
        // Latest events survive.
        assert!(t.events.iter().all(|e| e.start_ns >= 12));
    }

    #[test]
    fn threads_get_separate_buffers() {
        let _g = locked();
        enable(64);
        record(1, 2, 0, 1, SpanKind::Hold, 0, 0);
        // Tags are distinct among *live* threads (an exited thread's is
        // recycled), so the three must overlap.
        let all_recorded = Arc::new(std::sync::Barrier::new(3));
        let joins: Vec<_> = (0..3)
            .map(|_| {
                let all_recorded = Arc::clone(&all_recorded);
                std::thread::spawn(move || {
                    record(3, 4, 0, 1, SpanKind::Hold, 0, 0);
                    all_recorded.wait();
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        disable();
        let t = snapshot();
        clear();
        assert_eq!(t.recorded, 4);
        let threads: std::collections::HashSet<u32> =
            t.events.iter().map(|e| e.thread).collect();
        assert_eq!(threads.len(), 4, "one track per thread");
    }

    #[test]
    fn enable_discards_previous_trace() {
        let _g = locked();
        enable(64);
        record(1, 2, 0, 1, SpanKind::Hold, 0, 0);
        enable(64);
        disable();
        let t = snapshot();
        clear();
        assert_eq!(t.recorded, 0);
    }

    #[test]
    fn flow_ids_and_node_tags_are_unique_and_nonzero() {
        let a = next_flow_id();
        let b = next_flow_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let n1 = node_tag();
        let n2 = node_tag();
        assert_ne!(n1, 0);
        assert_ne!(n1, n2);
    }

    #[test]
    fn chrome_export_is_balanced_json_with_flow_pairs() {
        let t = Trace {
            events: vec![
                SpanEvent {
                    start_ns: 1_000,
                    end_ns: 1_000,
                    level: 0,
                    node: 1,
                    thread: 0,
                    kind: SpanKind::Pass,
                    flow_in: 0,
                    flow_out: 42,
                },
                SpanEvent {
                    start_ns: 1_100,
                    end_ns: 2_500,
                    level: 0,
                    node: 1,
                    thread: 1,
                    kind: SpanKind::Wait { inherited: true },
                    flow_in: 42,
                    flow_out: 0,
                },
                SpanEvent {
                    start_ns: 2_500,
                    end_ns: 3_000,
                    level: 0,
                    node: 0,
                    thread: 1,
                    kind: SpanKind::Hold,
                    flow_in: 0,
                    flow_out: 0,
                },
            ],
            recorded: 3,
            dropped: 0,
        };
        let json = render_chrome_trace(&t);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The hand-off appears as a start/finish flow pair with one id.
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert_eq!(json.matches("\"id\":42").count(), 2);
        // Timestamps are microseconds with ns precision.
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":1.400"));
        // Spans and instants both present.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn concurrent_tracing_is_exact_at_quiescence() {
        let _g = locked();
        enable(4096);
        let per = 500u64;
        let joins: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..per {
                        record(i, i + 1, 0, t, SpanKind::Hold, 0, 0);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        disable();
        let t = snapshot();
        clear();
        assert_eq!(t.recorded, 4 * per);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events.len(), (4 * per) as usize);
    }
}
