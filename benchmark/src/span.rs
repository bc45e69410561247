//! Benchmark-side spans for the traced run.
//!
//! Every traced operation leaves one [`OpRecord`] — four clock readings
//! — in a preallocated buffer; nothing is formatted or allocated while
//! the workload runs. When the run ends the records unfold into spans:
//! `op` (root) → `bench.keygen`, the one public call into the repo,
//! `bench.check`. Spans inside the program are a later change.

use crate::json::Json;

/// Which public function the `call` span of an operation entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    MutexLock,
    CabinetGet,
    CabinetSet,
    MiniDbGet,
    MiniDbPut,
}

impl Call {
    pub const ALL: [Call; 5] = [
        Call::MutexLock,
        Call::CabinetGet,
        Call::CabinetSet,
        Call::MiniDbGet,
        Call::MiniDbPut,
    ];

    /// Span name: layer (crate.module) and function.
    pub fn span_name(self) -> &'static str {
        match self {
            Call::MutexLock => "core.mutex.lock",
            Call::CabinetGet => "kvstore.cabinet.get",
            Call::CabinetSet => "kvstore.cabinet.set",
            Call::MiniDbGet => "kvstore.minidb.get",
            Call::MiniDbPut => "kvstore.minidb.put",
        }
    }
}

/// One traced operation: nanoseconds since the run's epoch at op start,
/// keygen end = call start, call end = check start, and op end.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub seq: u32,
    pub call: Call,
    pub t: [u64; 4],
}

/// A span as written to the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by the spans of one operation: `thread << 32 | seq`.
    pub op_id: u64,
    /// Index of the causing span among the operation's spans; `None`
    /// for the root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl OpRecord {
    /// The four spans of this operation, root first.
    pub fn spans(&self, thread: usize) -> [Span; 4] {
        let op_id = (thread as u64) << 32 | u64::from(self.seq);
        let [t0, t1, t2, t3] = self.t;
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
        };
        [
            span("op", None, t0, t3),
            span("bench.keygen", Some(0), t0, t1),
            span(self.call.span_name(), Some(0), t1, t2),
            span("bench.check", Some(0), t2, t3),
        ]
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may overlap each other or stick out of
/// the parent; only covered time inside the parent is subtracted.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Preallocated per-thread span storage. When it is full further
/// operations run untraced and are counted, so a slice never allocates.
pub struct SpanBuf {
    records: Vec<OpRecord>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(ops: usize) -> Self {
        SpanBuf {
            records: Vec::with_capacity(ops),
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, record: OpRecord) {
        if self.records.len() < self.records.capacity() {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    pub fn clear(&mut self) {
        self.records.clear();
    }
}

/// The trace file's `spans` array for `records` of one thread.
pub fn spans_json(thread: usize, records: &[OpRecord]) -> Vec<Json> {
    let mut out = Vec::with_capacity(records.len() * 4);
    for record in records {
        let spans = record.spans(thread);
        for (i, span) in spans.iter().enumerate() {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            out.push(Json::obj([
                ("name", Json::Str(span.name.into())),
                ("op", Json::Num(span.op_id as f64)),
                ("thread", Json::Num(thread as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |_| Json::Str("op".into())),
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "self_ns",
                    Json::Num(self_time_ns((span.start_ns, span.end_ns), &children) as f64),
                ),
            ]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_time_once() {
        // Children tile the parent.
        assert_eq!(self_time_ns((0, 100), &[(0, 30), (30, 90), (90, 100)]), 0);
        // Gaps are the parent's own time.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (50, 90)]), 40);
        // Overlapping children are not subtracted twice.
        assert_eq!(self_time_ns((0, 100), &[(10, 60), (40, 80)]), 30);
        // A child contained in another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
        // Parts outside the parent do not count; empty children neither.
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 200), (70, 70)]), 30);
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((5, 5), &[(0, 10)]), 0);
    }

    #[test]
    fn record_unfolds_into_a_root_and_three_children() {
        let rec = OpRecord {
            seq: 7,
            call: Call::CabinetSet,
            t: [1000, 1010, 1090, 1100],
        };
        let spans = rec.spans(1);
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "bench.keygen", "kvstore.cabinet.set", "bench.check"]
        );
        assert!(spans.iter().all(|s| s.op_id == (1 << 32 | 7)));
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1010, 1090));
        // The children share their boundaries, so they tile the root.
        let kids: Vec<_> = spans[1..].iter().map(|s| (s.start_ns, s.end_ns)).collect();
        assert_eq!(self_time_ns((spans[0].start_ns, spans[0].end_ns), &kids), 0);
    }

    #[test]
    fn full_buffer_counts_instead_of_growing() {
        let mut buf = SpanBuf::with_capacity(2);
        let rec = OpRecord {
            seq: 0,
            call: Call::MutexLock,
            t: [0; 4],
        };
        for _ in 0..5 {
            buf.push(rec);
        }
        assert_eq!((buf.records().len(), buf.dropped), (2, 3));
        assert_eq!(spans_json(0, buf.records()).len(), 8);
        buf.clear();
        assert!(buf.records().is_empty());
    }
}
