//! Snapshot assembly and text exporters (JSON, Prometheus, human).
//!
//! Serialization is hand-rolled — the crate is zero-dependency by
//! design, and the schema is small enough that a formatter is cheaper
//! than a serde tree. `render_prometheus` follows the text exposition
//! format version 0.0.4 (`# HELP`/`# TYPE` comments, `_bucket{le=...}` /
//! `_sum` / `_count` histogram series with a `+Inf` bucket).

use std::fmt;

use crate::{HistSnapshot, LevelSnapshot, PassEvent, PassKind};

/// Everything observed about one composed lock at a point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSnapshot {
    /// Lock name for labels (e.g. the composition string `"tkt>mcs"`).
    pub name: String,
    /// Per-level counters + acquire-latency histograms, level 0 first.
    pub levels: Vec<LevelSnapshot>,
    /// Critical-section hold time (acquire-return to release-entry),
    /// whole-lock (not per level).
    pub hold_ns: HistSnapshot,
    /// Total events recorded into the pass ring.
    pub events_recorded: u64,
    /// Events overwritten before draining.
    pub events_dropped: u64,
    /// The ring's surviving events at snapshot time, oldest first.
    pub events: Vec<PassEvent>,
}

impl LockSnapshot {
    /// Total acquisitions at the innermost level (== lock acquisitions).
    pub fn total_acquires(&self) -> u64 {
        self.levels.first().map_or(0, |l| l.acquires)
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn json_hist(h: &HistSnapshot) -> String {
    let buckets = h
        .cumulative()
        .iter()
        .map(|(le, n)| format!("{{\"le\":{le},\"count\":{n}}}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{buckets}]}}",
        h.count,
        h.sum,
        h.max,
        h.p50(),
        h.p90(),
        h.p99()
    )
}

/// Renders a snapshot as a single JSON object (no external deps; the
/// output is plain ASCII-safe JSON suitable for `jq`).
pub fn render_json(snap: &LockSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"lock\":\"{}\",", json_escape(&snap.name)));
    out.push_str("\"levels\":[");
    for (i, l) in snap.levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"level\":{},\"acquires\":{},\"contended_acquires\":{},\"passes_taken\":{},\"passes_declined\":{},\"keep_local_resets\":{},\"hint_fast_hits\":{},\"pass_rate\":{:.6},\"acquire_ns\":{}}}",
            l.level,
            l.acquires,
            l.contended_acquires,
            l.passes_taken,
            l.passes_declined,
            l.keep_local_resets,
            l.hint_fast_hits,
            l.pass_rate(),
            json_hist(&l.acquire_ns),
        ));
    }
    out.push_str("],");
    out.push_str(&format!("\"hold_ns\":{},", json_hist(&snap.hold_ns)));
    out.push_str(&format!(
        "\"events\":{{\"recorded\":{},\"dropped\":{},\"buffered\":{}}}}}",
        snap.events_recorded,
        snap.events_dropped,
        snap.events.len()
    ));
    out
}

fn prom_counter(
    out: &mut String,
    metric: &str,
    help: &str,
    lock: &str,
    series: impl Iterator<Item = (usize, u64)>,
) {
    out.push_str(&format!("# HELP {metric} {help}\n# TYPE {metric} counter\n"));
    for (level, value) in series {
        out.push_str(&format!(
            "{metric}{{lock=\"{lock}\",level=\"{level}\"}} {value}\n"
        ));
    }
}

/// Escapes a Prometheus label *value* (exposition format: backslash,
/// double quote, and newline must be escaped inside `label="..."`).
pub(crate) fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn prom_histogram(out: &mut String, metric: &str, help: &str, labels: &str, h: &HistSnapshot) {
    out.push_str(&format!(
        "# HELP {metric} {help}\n# TYPE {metric} histogram\n"
    ));
    for (le, n) in h.cumulative() {
        out.push_str(&format!("{metric}_bucket{{{labels},le=\"{le}\"}} {n}\n"));
    }
    out.push_str(&format!(
        "{metric}_bucket{{{labels},le=\"+Inf\"}} {}\n",
        h.count
    ));
    out.push_str(&format!("{metric}_sum{{{labels}}} {}\n", h.sum));
    out.push_str(&format!("{metric}_count{{{labels}}} {}\n", h.count));
    // Companion quantile gauges (summary-style `quantile` label, own
    // family so the histogram family stays exposition-format pure).
    // Values are the same bucket-upper-bound quantiles `/snapshot` JSON
    // reports, so dashboards can mix both without disagreement.
    out.push_str(&format!(
        "# HELP {metric}_quantile Bucket-upper-bound quantiles of {metric} (matches the JSON snapshot's p50/p90/p99).\n\
         # TYPE {metric}_quantile gauge\n"
    ));
    for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
        out.push_str(&format!(
            "{metric}_quantile{{{labels},quantile=\"{q}\"}} {v}\n"
        ));
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// One scrape body: per-level counters as `counter` series labelled
/// `{lock=...,level=...}` and two `histogram` families
/// (`clof_acquire_latency_ns` per level, `clof_hold_time_ns` whole-lock).
pub fn render_prometheus(snap: &LockSnapshot) -> String {
    let lock = &prom_escape(&snap.name);
    let mut out = String::new();
    out.push_str(&format!(
        "# HELP clof_obs_build_info Build metadata of the clof-obs exporter (constant 1).\n\
         # TYPE clof_obs_build_info gauge\n\
         clof_obs_build_info{{version=\"{}\"}} 1\n",
        prom_escape(env!("CARGO_PKG_VERSION"))
    ));
    prom_counter(
        &mut out,
        "clof_acquires_total",
        "Low-lock acquisitions per hierarchy level.",
        lock,
        snap.levels.iter().map(|l| (l.level, l.acquires)),
    );
    prom_counter(
        &mut out,
        "clof_contended_acquires_total",
        "Acquisitions that inherited a passed high lock.",
        lock,
        snap.levels.iter().map(|l| (l.level, l.contended_acquires)),
    );
    prom_counter(
        &mut out,
        "clof_passes_taken_total",
        "Release decisions that passed the high lock within the cohort.",
        lock,
        snap.levels.iter().map(|l| (l.level, l.passes_taken)),
    );
    prom_counter(
        &mut out,
        "clof_passes_declined_total",
        "Release decisions that surrendered the high lock upward.",
        lock,
        snap.levels.iter().map(|l| (l.level, l.passes_declined)),
    );
    prom_counter(
        &mut out,
        "clof_keep_local_resets_total",
        "Upward releases forced by the keep_local threshold.",
        lock,
        snap.levels.iter().map(|l| (l.level, l.keep_local_resets)),
    );
    prom_counter(
        &mut out,
        "clof_waiter_hint_hits_total",
        "Releases answered by the basic lock's native waiter hint.",
        lock,
        snap.levels.iter().map(|l| (l.level, l.hint_fast_hits)),
    );
    for l in &snap.levels {
        prom_histogram(
            &mut out,
            "clof_acquire_latency_ns",
            "Time to win the low lock at a hierarchy level (ns).",
            &format!("lock=\"{lock}\",level=\"{}\"", l.level),
            &l.acquire_ns,
        );
    }
    prom_histogram(
        &mut out,
        "clof_hold_time_ns",
        "Critical-section hold time (ns).",
        &format!("lock=\"{lock}\""),
        &snap.hold_ns,
    );
    out.push_str(&format!(
        "# HELP clof_pass_events_total Lock-passing events recorded into the trace ring.\n\
         # TYPE clof_pass_events_total counter\n\
         clof_pass_events_total{{lock=\"{lock}\"}} {}\n",
        snap.events_recorded
    ));
    out.push_str(&format!(
        "# HELP clof_pass_events_dropped_total Ring events overwritten before export (truncated trace detector).\n\
         # TYPE clof_pass_events_dropped_total counter\n\
         clof_pass_events_dropped_total{{lock=\"{lock}\"}} {}\n",
        snap.events_dropped
    ));
    out
}

impl fmt::Display for LockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lock {} — {} acquisitions", self.name, self.total_acquires())?;
        for l in &self.levels {
            writeln!(
                f,
                "  level {}: acquires {} (contended {}), passes {}/{} (rate {:.1}%), \
                 keep_local resets {}, hint hits {}",
                l.level,
                l.acquires,
                l.contended_acquires,
                l.passes_taken,
                l.passes_taken + l.passes_declined,
                100.0 * l.pass_rate(),
                l.keep_local_resets,
                l.hint_fast_hits,
            )?;
            if l.acquire_ns.count > 0 {
                writeln!(
                    f,
                    "    acquire ns: p50 {} p90 {} p99 {} max {}",
                    l.acquire_ns.p50(),
                    l.acquire_ns.p90(),
                    l.acquire_ns.p99(),
                    l.acquire_ns.max,
                )?;
            }
        }
        if self.hold_ns.count > 0 {
            writeln!(
                f,
                "  hold ns: p50 {} p90 {} p99 {} max {}",
                self.hold_ns.p50(),
                self.hold_ns.p90(),
                self.hold_ns.p99(),
                self.hold_ns.max,
            )?;
        }
        write!(
            f,
            "  pass events: {} recorded, {} dropped, {} buffered",
            self.events_recorded,
            self.events_dropped,
            self.events.len()
        )
    }
}

/// Human-readable kind for event dumps.
impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassKind::Pass => write!(f, "pass"),
            PassKind::ReleaseUp => write!(f, "release-up"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventRing, LevelCounters, LogHistogram};

    fn sample_snapshot() -> LockSnapshot {
        let c0 = LevelCounters::new();
        let c1 = LevelCounters::new();
        for i in 0..100 {
            c0.record_acquire(i % 2 == 0);
        }
        for _ in 0..50 {
            c0.record_pass_taken();
        }
        for _ in 0..50 {
            c0.record_pass_declined(false);
        }
        for _ in 0..50 {
            c1.record_acquire(false);
        }
        let h = LogHistogram::new();
        for v in [100u64, 200, 400, 90_000] {
            h.record(v);
        }
        let hold = LogHistogram::new();
        hold.record(1_000);
        let ring = EventRing::with_capacity(8);
        ring.record(10, 0, PassKind::Pass, 1);
        ring.record(20, 0, PassKind::ReleaseUp, 2);
        let mut l0 = c0.snapshot(0);
        l0.acquire_ns = h.snapshot();
        let l1 = c1.snapshot(1);
        LockSnapshot {
            name: "tkt>mcs".into(),
            levels: vec![l0, l1],
            hold_ns: hold.snapshot(),
            events_recorded: ring.recorded(),
            events_dropped: ring.dropped(),
            events: ring.events(),
        }
    }

    #[test]
    fn json_contains_all_sections_and_balances() {
        let s = sample_snapshot();
        let json = render_json(&s);
        assert!(json.contains("\"lock\":\"tkt>mcs\""));
        assert!(json.contains("\"levels\":["));
        assert!(json.contains("\"hold_ns\":"));
        assert!(json.contains("\"recorded\":2"));
        // Structural sanity: braces and brackets balance, no raw newlines.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains('\n'));
    }

    #[test]
    fn json_escapes_lock_names() {
        let mut s = sample_snapshot();
        s.name = "we\"ird\\name".into();
        let json = render_json(&s);
        assert!(json.contains("\"lock\":\"we\\\"ird\\\\name\""));
    }

    /// A minimal parser for the Prometheus text format: every non-comment
    /// line must be `name{labels} value` or `name value`, every metric
    /// must have HELP and TYPE comments before its first sample, and
    /// histogram `_count` must equal the `+Inf` bucket.
    fn check_prometheus(body: &str) {
        use std::collections::{HashMap, HashSet};
        let mut typed: HashSet<String> = HashSet::new();
        let mut helped: HashSet<String> = HashSet::new();
        let mut inf_buckets: HashMap<String, u64> = HashMap::new();
        let mut counts: HashMap<String, u64> = HashMap::new();
        for line in body.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helped.insert(rest.split_whitespace().next().unwrap().to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().unwrap().to_string();
                let ty = it.next().unwrap();
                assert!(
                    matches!(ty, "counter" | "gauge" | "histogram"),
                    "bad type: {line}"
                );
                typed.insert(name);
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment: {line}");
            // Sample line: name[{labels}] value
            let (series, value) = line.rsplit_once(' ').expect("sample must have a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in: {line}"));
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            if series.contains('{') {
                assert!(series.ends_with('}'), "unbalanced labels in: {line}");
                let labels = &series[name.len() + 1..series.len() - 1];
                for pair in labels.split(',') {
                    let (k, v) = pair.split_once('=').expect("label must be k=v");
                    assert!(!k.is_empty());
                    assert!(
                        v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                        "label value must be quoted in: {line}"
                    );
                }
            }
            // The family name for _bucket/_sum/_count is the stem.
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(typed.contains(family), "sample before TYPE: {line}");
            assert!(helped.contains(family), "sample before HELP: {line}");
            if name.ends_with("_bucket") && series.contains("le=\"+Inf\"") {
                let key = series.split("le=").next().unwrap().to_string();
                inf_buckets.insert(key, value.parse::<u64>().unwrap());
            }
            if name.ends_with("_count") && typed.contains(family) && name != family {
                counts.insert(series.replace("_count", "_bucket"), value.parse().unwrap());
            }
        }
        for (series, count) in &counts {
            // Match the +Inf bucket for the same label set prefix.
            let key = format!("{},le=", &series[..series.len() - 1]).replace("},le=", ",le=");
            let inf = inf_buckets
                .iter()
                .find(|(k, _)| k.starts_with(key.split("le=").next().unwrap()))
                .map(|(_, v)| *v);
            if let Some(inf) = inf {
                assert_eq!(inf, *count, "+Inf bucket != _count for {series}");
            }
        }
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let s = sample_snapshot();
        let prom = render_prometheus(&s);
        check_prometheus(&prom);
        assert!(prom.contains("clof_acquires_total{lock=\"tkt>mcs\",level=\"0\"} 100"));
        assert!(prom.contains("clof_passes_taken_total{lock=\"tkt>mcs\",level=\"0\"} 50"));
        assert!(prom.contains("clof_acquire_latency_ns_bucket{lock=\"tkt>mcs\",level=\"0\",le=\"+Inf\"} 4"));
        assert!(prom.contains("clof_hold_time_ns_count{lock=\"tkt>mcs\"} 1"));
        assert!(prom.contains("clof_pass_events_total{lock=\"tkt>mcs\"} 2"));
        assert!(prom.contains("clof_pass_events_dropped_total{lock=\"tkt>mcs\"} 0"));
    }

    #[test]
    fn prometheus_emits_build_info_and_help_type_for_every_family() {
        let prom = render_prometheus(&sample_snapshot());
        assert!(prom.contains("# TYPE clof_obs_build_info gauge"));
        assert!(prom.contains(&format!(
            "clof_obs_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )));
        // check_prometheus already rejects any sample whose family lacks
        // HELP/TYPE; assert the inverse too — every HELP has a TYPE.
        let helps: Vec<_> = prom
            .lines()
            .filter_map(|l| l.strip_prefix("# HELP "))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert!(!helps.is_empty());
        for family in helps {
            assert!(
                prom.contains(&format!("# TYPE {family} ")),
                "family {family} has HELP but no TYPE"
            );
        }
        check_prometheus(&prom);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let mut s = sample_snapshot();
        s.name = "we\"ird\\na\nme".into();
        let prom = render_prometheus(&s);
        check_prometheus(&prom);
        assert!(
            prom.contains("lock=\"we\\\"ird\\\\na\\nme\""),
            "label values must be escaped: {prom}"
        );
        assert!(!prom.contains("we\"ird"), "raw quote must not survive");
    }

    /// Render-agreement: the Prometheus histogram series (cumulative
    /// `_bucket`/`_sum`/`_count`) and its companion quantile gauges
    /// must report exactly the numbers the `/snapshot` JSON carries for
    /// the same histogram — one source of truth, two encodings.
    #[test]
    fn prometheus_histograms_and_quantiles_agree_with_json() {
        let s = sample_snapshot();
        let prom = render_prometheus(&s);
        check_prometheus(&prom);
        let json = render_json(&s);

        let h = &s.levels[0].acquire_ns;
        // Quantile gauges match the JSON's p50/p90/p99 fields.
        for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
            let gauge = format!(
                "clof_acquire_latency_ns_quantile{{lock=\"tkt>mcs\",level=\"0\",quantile=\"{q}\"}} {v}"
            );
            assert!(prom.contains(&gauge), "missing gauge: {gauge}");
        }
        assert!(json.contains(&format!("\"p50\":{}", h.p50())));
        assert!(json.contains(&format!("\"p90\":{}", h.p90())));
        assert!(json.contains(&format!("\"p99\":{}", h.p99())));

        // Native buckets match the JSON's cumulative bucket list.
        for (le, n) in h.cumulative() {
            let bucket = format!(
                "clof_acquire_latency_ns_bucket{{lock=\"tkt>mcs\",level=\"0\",le=\"{le}\"}} {n}"
            );
            assert!(prom.contains(&bucket), "missing bucket: {bucket}");
            assert!(json.contains(&format!("{{\"le\":{le},\"count\":{n}}}")));
        }
        assert!(prom.contains(&format!(
            "clof_acquire_latency_ns_sum{{lock=\"tkt>mcs\",level=\"0\"}} {}",
            h.sum
        )));
        assert!(json.contains(&format!("\"sum\":{}", h.sum)));

        // Hold-time family gets the same treatment, whole-lock labels.
        let hold = &s.hold_ns;
        assert!(prom.contains(&format!(
            "clof_hold_time_ns_quantile{{lock=\"tkt>mcs\",quantile=\"0.99\"}} {}",
            hold.p99()
        )));
    }

    #[test]
    fn dropped_events_surface_in_both_exporters() {
        let mut s = sample_snapshot();
        s.events_recorded = 100;
        s.events_dropped = 37;
        let prom = render_prometheus(&s);
        check_prometheus(&prom);
        assert!(prom.contains("clof_pass_events_dropped_total{lock=\"tkt>mcs\"} 37"));
        let json = render_json(&s);
        assert!(json.contains("\"dropped\":37"));
    }

    #[test]
    fn rendering_a_snapshot_twice_is_identical() {
        // Regression for destructive rendering: assembling from
        // `EventRing::events()` and re-rendering must not change output.
        let ring = EventRing::with_capacity(8);
        ring.record(10, 0, PassKind::Pass, 1);
        ring.record(20, 1, PassKind::ReleaseUp, 2);
        let snap_once = |ring: &EventRing| LockSnapshot {
            name: "twice".into(),
            levels: vec![LevelCounters::new().snapshot(0)],
            hold_ns: LogHistogram::new().snapshot(),
            events_recorded: ring.recorded(),
            events_dropped: ring.dropped(),
            events: ring.events(),
        };
        let a = snap_once(&ring);
        let b = snap_once(&ring);
        assert_eq!(render_json(&a), render_json(&b));
        assert_eq!(render_prometheus(&a), render_prometheus(&b));
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.events.len(), 2, "events survive both renders");
    }

    #[test]
    fn display_mentions_every_level_and_pass_rate() {
        let s = sample_snapshot();
        let text = s.to_string();
        assert!(text.contains("lock tkt>mcs — 100 acquisitions"));
        assert!(text.contains("level 0"));
        assert!(text.contains("level 1"));
        assert!(text.contains("rate 50.0%"));
        assert!(text.contains("pass events: 2 recorded"));
    }
}
