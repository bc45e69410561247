//! From what a run measured to the metrics it prints: the reductions are
//! chosen here, and the names declared in `BENCHMARK.json` are made here.

use crate::harness;
use crate::json::{name_ok, Json};
use crate::ladder::Metric;
use crate::protocol::Outcome;
use crate::span::Call;
use crate::stats::{
    good_decile, median, quartiles, thread_share_min, Good, Quartiles, TooFewSamples,
};

/// What one workload process reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// What the last line prints: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics an untraced run has anyway (host calibration,
    /// slice quartiles, sample counts); written to `--out`, not printed
    /// in the last line.
    pub context: Vec<Metric>,
    /// Per-slice values behind the reductions, for the `--out` file.
    pub raw: Json,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        from: None,
    }
}

impl RunResult {
    /// Reduces an [`Outcome`].
    ///
    /// # Errors
    ///
    /// The latency sample is too small for the percentiles reported.
    pub fn from_outcome(out: &Outcome) -> Result<RunResult, TooFewSamples> {
        if let Some(too_few) = &out.too_few {
            return Err(too_few.clone());
        }
        let slices = quartiles(&out.rates).unwrap_or(Quartiles {
            q1: out.rates[0],
            median: out.rates[0],
            q3: out.rates[0],
        });
        let ops_per_s = good_decile(&out.rates, Good::High);
        let end_to_end = vec![
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("op_p50_ns", good_decile(&out.slice_p50, Good::Low), "ns"),
            metric("op_p99_ns", good_decile(&out.slice_p99, Good::Low), "ns"),
            metric(
                "thread_share_min",
                thread_share_min(&out.ops_per_thread),
                "ratio",
            ),
            metric("setup_s", median(&out.setup_s).unwrap_or(f64::NAN), "s"),
        ];
        let mut context = vec![
            metric("slice.ops_per_s.q1", slices.q1, "1/s"),
            metric("slice.ops_per_s.median", slices.median, "1/s"),
            metric("slice.ops_per_s.q3", slices.q3, "1/s"),
            metric("samples.slices_n", out.rates.len() as f64, "count"),
            metric("samples.latency_n", out.latency.count() as f64, "count"),
            metric(
                "failed_ops_ratio",
                out.failed as f64 / out.attempted.max(1) as f64,
                "ratio",
            ),
        ];
        if !out.cal_1t.is_empty() {
            context.push(metric(
                "host.cal_1t.ops_per_s",
                good_decile(&out.cal_1t, Good::High),
                "1/s",
            ));
        }
        if !out.cal_2t.is_empty() {
            context.push(metric(
                "host.cal_2t.ops_per_s",
                good_decile(&out.cal_2t, Good::High),
                "1/s",
            ));
        }

        let list = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        let raw = Json::obj([
            ("slice_ops_per_s", list(&out.rates)),
            ("slice_p50_ns", list(&out.slice_p50)),
            ("slice_p99_ns", list(&out.slice_p99)),
            ("cal_1t_ops_per_s", list(&out.cal_1t)),
            ("cal_2t_ops_per_s", list(&out.cal_2t)),
            ("setup_s", list(&out.setup_s)),
            (
                "ops_per_thread",
                list(
                    &out.ops_per_thread
                        .iter()
                        .map(|n| *n as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        let Some(trace) = &out.trace else {
            return Ok(RunResult {
                attempted: out.attempted,
                failed: out.failed,
                metrics: end_to_end,
                context,
                raw,
            });
        };
        let traced = good_decile(&trace.rates, Good::High);
        let untraced = ops_per_s;
        context.push(metric("op_p999_ns", out.latency.quantile(0.999)?, "ns"));
        context.push(metric(
            "bench.keygen_ns",
            trace.keygen.hist.quantile(0.5)?,
            "ns",
        ));
        context.push(metric(
            "bench.check_ns",
            trace.check.hist.quantile(0.5)?,
            "ns",
        ));
        context.push(metric("bench.clock_ns", harness::clock_read_ns(), "ns"));
        context.push(Metric {
            from: Some(format!(
                "traced ops_per_s {traced:.0} / untraced ops_per_s {untraced:.0}"
            )),
            ..metric("trace.overhead_ratio", traced / untraced, "ratio")
        });
        Ok(RunResult {
            attempted: out.attempted,
            failed: out.failed,
            metrics: context,
            context: Vec::new(),
            raw,
        })
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Human-readable lines, one metric each, with unit and operands.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.context) {
            let from = m
                .from
                .as_deref()
                .map_or(String::new(), |f| format!("   [{f}]"));
            println!(
                "{:<44} {:>16} {}{from}",
                m.name,
                format_value(m.value),
                m.unit
            );
        }
    }

    /// The result object. `with_context` adds the context metrics under
    /// their own key (the hand-over between the two binaries and the
    /// `--out` file); without it this is exactly the last line's shape.
    pub fn to_json(&self, with_context: bool) -> Json {
        let metrics = |ms: &[Metric]| {
            Json::obj(ms.iter().map(|m| {
                assert!(
                    name_ok(&m.name),
                    "metric name {:?} is not printable as a key",
                    m.name
                );
                (m.name.clone(), Json::metric(m.value, m.unit))
            }))
        };
        let mut pairs = vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics(&self.metrics)),
        ];
        if with_context {
            pairs.push(("context", metrics(&self.context)));
            pairs.push(("raw", self.raw.clone()));
        }
        Json::obj(pairs)
    }

    /// Reads back what [`Self::to_json`] wrote with context.
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or(format!("result has no {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            let Some(pairs) = doc.get(key).and_then(Json::as_obj) else {
                return Ok(Vec::new());
            };
            pairs
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    let unit = m.get("unit").and_then(Json::as_str);
                    match (value, unit) {
                        (Some(value), Some(unit)) => Ok(Metric {
                            name: name.clone(),
                            value,
                            unit: intern_unit(unit),
                            from: None,
                        }),
                        _ => Err(format!("metric {name} has no value or unit")),
                    }
                })
                .collect()
        };
        Ok(RunResult {
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: metrics("metrics")?,
            context: metrics("context")?,
            raw: doc.get("raw").cloned().unwrap_or(Json::Null),
        })
    }
}

/// The units this benchmark writes.
fn intern_unit(unit: &str) -> &'static str {
    ["1/s", "ns", "s", "ratio", "count"]
        .into_iter()
        .find(|u| *u == unit)
        .unwrap_or("?")
}

/// A value with the digits a person compares: more for small ones.
pub fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.9}")
    } else if v.abs() < 1000.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.1}")
    }
}

/// Median, 99th percentile and total of each span name, for the trace
/// file. Names without samples are left out.
pub fn span_stats_json(out: &Outcome) -> Json {
    let Some(trace) = &out.trace else {
        return Json::Null;
    };
    let mut rows = vec![
        ("op", &trace.op),
        ("bench.keygen", &trace.keygen),
        ("bench.check", &trace.check),
    ];
    rows.extend(
        Call::ALL
            .iter()
            .map(|c| (c.span_name(), &trace.calls[*c as usize])),
    );
    Json::obj(
        rows.into_iter()
            .filter(|(_, s)| s.hist.count() > 0)
            .map(|(name, s)| {
                let pct = |q| s.hist.quantile(q).map_or(Json::Null, Json::Num);
                // `op` is tiled by its three children, so its self time is 0 and
                // every other span has no children: self time = duration.
                let self_ns = if name == "op" { 0 } else { s.total_ns };
                (
                    name,
                    Json::obj([
                        ("count", Json::Num(s.hist.count() as f64)),
                        ("median_ns", pct(0.5)),
                        ("p99_ns", pct(0.99)),
                        ("total_ns", Json::Num(s.total_ns as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                    ]),
                )
            }),
    )
}
