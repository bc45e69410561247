//! Tabular report container: aligned stdout printing + CSV output.

use std::fs;
use std::io;
use std::path::Path;

/// A named table of results (one paper table/figure's data).
#[derive(Debug, Clone)]
pub struct Report {
    /// Artifact id, e.g. `fig2` (used as the CSV file stem).
    pub id: String,
    /// Human title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (substitutions, paper
    /// expectations, observed verdicts).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().collect());
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} [{}] ==\n", self.title, self.id));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Serializes as CSV (header + rows; notes as `#` comments).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<id>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// Renders a lock-telemetry snapshot as a per-level [`Report`]: one row
/// per hierarchy level (innermost first) with acquisition counts, the
/// pass rate, keep-local resets, waiter-hint hits, and acquire-latency
/// quantiles. Hold-time quantiles and event-ring totals, which are
/// lock-wide rather than per-level, go in the notes.
#[cfg(feature = "obs")]
pub fn obs_report(snap: &clof::obs::LockSnapshot) -> Report {
    let mut r = Report::new(
        "obs",
        &format!("lock telemetry: {}", snap.name),
        &[
            "level",
            "acquires",
            "contended",
            "pass-rate",
            "declined",
            "resets",
            "hint-hits",
            "acq-p50(ns)",
            "acq-p99(ns)",
            "acq-max(ns)",
        ],
    );
    for level in &snap.levels {
        r.row([
            level.level.to_string(),
            level.acquires.to_string(),
            level.contended_acquires.to_string(),
            format!("{:.1}%", level.pass_rate() * 100.0),
            level.passes_declined.to_string(),
            level.keep_local_resets.to_string(),
            level.hint_fast_hits.to_string(),
            level.acquire_ns.p50().to_string(),
            level.acquire_ns.p99().to_string(),
            level.acquire_ns.max.to_string(),
        ]);
    }
    if snap.hold_ns.count != 0 {
        r.note(format!(
            "hold time: p50 {} ns, p99 {} ns, max {} ns over {} sections",
            snap.hold_ns.p50(),
            snap.hold_ns.p99(),
            snap.hold_ns.max,
            snap.hold_ns.count
        ));
    }
    r
}

/// [`obs_report`] extended with the causal-trace analysis: per-level
/// wait attribution, pass-chain statistics against the keep-local bound,
/// and the hold-share fairness summary, appended as notes under the
/// counter table so one report carries both views of the same run.
#[cfg(feature = "obs")]
pub fn obs_report_with_analysis(
    snap: &clof::obs::LockSnapshot,
    analysis: &clof::obs::TraceAnalysis,
) -> Report {
    let mut r = obs_report(snap);
    r.note(format!(
        "trace: {} critical sections, {} ns total hold{}",
        analysis.holds,
        analysis.hold_ns,
        if analysis.truncated {
            " (truncated: span buffers wrapped)"
        } else {
            ""
        }
    ));
    for level in &analysis.levels {
        r.note(format!(
            "trace L{} wait: {} spans ({} inherited), mean {} ns, max {} ns",
            level.level,
            level.spans,
            level.inherited,
            level.mean_wait_ns(),
            level.max_wait_ns
        ));
    }
    for chain in &analysis.chains {
        r.note(format!(
            "trace L{} pass-chains: {} closed ({} open), mean {:.1}, max {}, {} forced cuts",
            chain.level, chain.chains, chain.open_chains, chain.mean(), chain.max, chain.forced_cuts
        ));
    }
    if !analysis.fairness.per_thread.is_empty() {
        r.note(format!(
            "trace fairness: jain {:.4}, max hold share {:.1}%",
            analysis.fairness.jain,
            analysis.fairness.max_share() * 100.0
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("t1", "Test", &["a", "long-header"]);
        r.row(["1".to_string(), "2".to_string()]);
        r.row(["333".to_string(), "4".to_string()]);
        r.note("hello");
        r
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        assert!(s.contains("== Test [t1] =="));
        assert!(s.contains("a    long-header"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn csv_escapes_and_comments() {
        let mut r = sample();
        r.row(["with,comma".into(), "with\"quote".into()]);
        let csv = r.to_csv();
        assert!(csv.starts_with("# hello\n"));
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn obs_report_renders_per_level_rows() {
        let level = clof::obs::LevelSnapshot {
            acquires: 2,
            contended_acquires: 1,
            passes_taken: 1,
            passes_declined: 1,
            ..Default::default()
        };
        let snap = clof::obs::LockSnapshot {
            name: "tkt-tkt".into(),
            levels: vec![level],
            ..Default::default()
        };
        let s = obs_report(&snap).render();
        assert!(s.contains("lock telemetry: tkt-tkt"));
        assert!(s.contains("pass-rate"));
        assert!(s.contains("50.0%"), "{s}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn obs_report_with_analysis_appends_trace_notes() {
        use clof::obs::{SpanEvent, SpanKind, Trace};
        let trace = Trace {
            events: vec![SpanEvent {
                start_ns: 100,
                end_ns: 600,
                level: 0,
                node: 0,
                thread: 1,
                kind: SpanKind::Hold,
                flow_in: 0,
                flow_out: 0,
            }],
            recorded: 1,
            dropped: 0,
        };
        let analysis = clof::obs::analyze(&trace);
        let snap = clof::obs::LockSnapshot {
            name: "tkt-tkt".into(),
            ..Default::default()
        };
        let s = obs_report_with_analysis(&snap, &analysis).render();
        assert!(s.contains("trace: 1 critical sections"), "{s}");
        assert!(s.contains("trace fairness: jain"), "{s}");
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join(format!("clof-report-{}", std::process::id()));
        sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("t1.csv")).unwrap();
        assert!(content.contains("long-header"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
