//! Reading result files back: `compare`, the verdicts of `repeat-check`,
//! and the schema check against `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::report::format_value;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the base value by which the metric may get worse.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Gate>,
    pub per_layer: Vec<String>,
    pub run_seconds: u64,
}

fn names(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("an entry of {key} has no name"))
        })
        .collect()
}

impl Declared {
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = json::parse(text)?;
        let end_to_end = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json has no end_to_end list")?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str);
                let better = m.get("better").and_then(Json::as_str);
                let bound = m.get("bound").and_then(Json::as_f64);
                match (name, better, bound) {
                    (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Gate {
                        name: name.into(),
                        higher_is_better: better == "higher",
                        bound,
                    }),
                    _ => Err(format!("end_to_end entry {} is incomplete", m.render())),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Declared {
            workloads: names(&doc, "workloads")?,
            end_to_end,
            per_layer: names(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")? as u64,
        })
    }

    pub fn load(path: &str) -> Result<Declared, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Declared::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `value` of metric `name` of `workload` in a result file, looked up
/// among the printed metrics and the context metrics.
fn value(results: &Json, workload: &str, name: &str) -> Option<f64> {
    let w = results.get("workloads")?.get(workload)?;
    ["metrics", "context"]
        .iter()
        .find_map(|section| w.get(section)?.get(name)?.get("value")?.as_f64())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The benchmark's own calibration code ran more than 10 % apart in
    /// the two files: the host moved, the pair says nothing.
    HostDrifted,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::HostDrifted => "host-drifted",
        }
    }
}

/// How far `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(gate: &Gate, a: f64, b: f64) -> f64 {
    let delta = (b - a) / a;
    if gate.higher_is_better {
        -delta
    } else {
        delta
    }
}

pub const HOST_DRIFT_LIMIT: f64 = 0.10;

fn host_drift(a: &Json, b: &Json, workload: &str) -> Option<f64> {
    ["host.cal_1t.ops_per_s", "host.cal_2t.ops_per_s"]
        .iter()
        .filter_map(|cal| {
            let (va, vb) = (value(a, workload, cal)?, value(b, workload, cal)?);
            Some(((vb - va) / va).abs())
        })
        .reduce(f64::max)
}

/// Prints one row per (workload, end-to-end metric) of two result files
/// and returns the verdicts. With `symmetric`, a pair that differs by
/// more than the bound in either direction counts as regressed — two runs
/// of the same code must agree, not merely not get worse.
pub fn compare(declared: &Declared, a: &Json, b: &Json, symmetric: bool) -> Vec<Verdict> {
    println!(
        "{:<18} {:<17} {:>16} {:>16} {:>19} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    let mut verdicts = Vec::new();
    for workload in &declared.workloads {
        let drift = host_drift(a, b, workload);
        for gate in &declared.end_to_end {
            let (Some(va), Some(vb)) = (
                value(a, workload, &gate.name),
                value(b, workload, &gate.name),
            ) else {
                continue;
            };
            let worse = worsening(gate, va, vb);
            let beyond = if symmetric { worse.abs() } else { worse } > gate.bound;
            let verdict = match drift {
                Some(d) if d > HOST_DRIFT_LIMIT => Verdict::HostDrifted,
                _ if beyond => Verdict::Regressed,
                _ => Verdict::Ok,
            };
            println!(
                "{workload:<18} {:<17} {:>16} {:>16} {:>+11.2} % of A {:>7.0} %  {}",
                gate.name,
                format_value(va),
                format_value(vb),
                (vb - va) / va * 100.0,
                gate.bound * 100.0,
                verdict.as_str()
            );
            verdicts.push(verdict);
        }
        if let Some(d) = drift {
            println!(
                "{workload:<18} host calibration differs by {:.2} % of A (limit {:.0} %)",
                d * 100.0,
                HOST_DRIFT_LIMIT * 100.0
            );
        }
    }
    verdicts
}

/// Compares two result files; `false` when a pair regressed.
pub fn compare_files(
    declared: &Declared,
    path_a: &str,
    path_b: &str,
    symmetric: bool,
) -> Result<bool, String> {
    let (a, b) = (load_results(path_a)?, load_results(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    let verdicts = compare(declared, &a, &b, symmetric);
    if verdicts.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    let count = |v| verdicts.iter().filter(|x| **x == v).count();
    println!(
        "{} pairs: {} ok, {} regressed, {} host-drifted",
        verdicts.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::HostDrifted)
    );
    Ok(count(Verdict::Regressed) == 0)
}

/// Checks a result file against what `BENCHMARK.json` declares: no
/// undeclared workload or metric, and none of the declared ones missing
/// (every workload in a file of all workloads; the end-to-end metrics in
/// an untraced file, the per-layer metrics in a traced one).
pub fn check_schema(declared: &Declared, results: &Json, all_workloads: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let traced = results.get("trace").and_then(Json::as_f64) == Some(1.0);
    let workloads = results
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(&[]);
    if workloads.is_empty() {
        problems.push("no workloads in the file".to_owned());
    }
    for (name, _) in workloads {
        if !declared.workloads.contains(name) {
            problems.push(format!("workload {name} is not declared"));
        }
    }
    if all_workloads {
        for name in &declared.workloads {
            if !workloads.iter().any(|(n, _)| n == name) {
                problems.push(format!("declared workload {name} is missing"));
            }
        }
    }
    let end_to_end: Vec<&String> = declared.end_to_end.iter().map(|g| &g.name).collect();
    for (workload, result) in workloads {
        let printed = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        let context = result.get("context").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, _) in printed.iter().chain(context) {
            if !end_to_end.contains(&name) && !declared.per_layer.contains(name) {
                problems.push(format!("{workload}: metric {name} is not declared"));
            }
        }
        let required: Vec<&String> = if traced {
            declared.per_layer.iter().collect()
        } else {
            end_to_end.clone()
        };
        for name in required {
            if !printed.iter().any(|(n, _)| n == name) {
                problems.push(format!("{workload}: declared metric {name} is missing"));
            }
        }
        if result.get("correct") != Some(&Json::Bool(true)) {
            problems.push(format!("{workload}: result is not correct"));
        }
    }
    if results.as_obj().and_then(|o| o.last()) != Some(&("claim".to_owned(), Json::Null)) {
        problems.push("the file does not end with \"claim\": null".to_owned());
    }
    problems
}

pub fn check_schema_file(declared: &Declared, path: &str) -> Result<Vec<String>, String> {
    let results = load_results(path)?;
    let all = results.get("mode").and_then(Json::as_str) == Some("all");
    Ok(check_schema(declared, &results, all))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 15,
        "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "host.cal_1t.ops_per_s", "unit": "1/s", "better": "higher"}]
    }"#;

    fn results(ops: f64, setup: f64, cal: f64) -> Json {
        let w = |ops: f64| {
            Json::obj([
                ("correct", Json::Bool(true)),
                (
                    "metrics",
                    Json::obj([
                        ("ops_per_s", Json::metric(ops, "1/s")),
                        ("setup_s", Json::metric(setup, "s")),
                    ]),
                ),
                (
                    "context",
                    Json::obj([("host.cal_1t.ops_per_s", Json::metric(cal, "1/s"))]),
                ),
            ])
        };
        Json::obj([
            ("mode", Json::Str("all".into())),
            ("trace", Json::Num(0.0)),
            (
                "workloads",
                Json::obj([("w1", w(ops)), ("w2", w(ops * 2.0))]),
            ),
            ("claim", Json::Null),
        ])
    }

    #[test]
    fn declared_reads_the_benchmark_file() {
        let d = Declared::parse(SPEC).unwrap();
        assert_eq!(d.workloads, ["w1", "w2"]);
        assert_eq!(d.run_seconds, 15);
        assert!(d.end_to_end[0].higher_is_better && !d.end_to_end[1].higher_is_better);
        assert_eq!(d.end_to_end[1].bound, 0.25);
        assert!(Declared::parse("{}").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let d = Declared::parse(SPEC).unwrap();
        assert!((worsening(&d.end_to_end[0], 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&d.end_to_end[0], 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worsening(&d.end_to_end[1], 2.0, 3.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn verdicts_cover_ok_regressed_and_drifted() {
        let d = Declared::parse(SPEC).unwrap();
        let base = results(100.0, 1.0, 50.0);
        let all = |v: Vec<Verdict>, want| v.len() == 4 && v.iter().all(|x| *x == want);
        assert!(all(
            compare(&d, &base, &results(95.0, 1.2, 50.0), false),
            Verdict::Ok
        ));
        let v = compare(&d, &base, &results(85.0, 1.0, 51.0), false);
        assert_eq!(
            v,
            [
                Verdict::Regressed,
                Verdict::Ok,
                Verdict::Regressed,
                Verdict::Ok
            ]
        );
        // Faster is fine one way, a disagreement when both runs are of the same code.
        assert!(all(
            compare(&d, &base, &results(120.0, 0.7, 50.0), false),
            Verdict::Ok
        ));
        assert!(all(
            compare(&d, &base, &results(120.0, 0.7, 50.0), true),
            Verdict::Regressed
        ));
        assert!(all(
            compare(&d, &base, &results(85.0, 1.0, 56.0), false),
            Verdict::HostDrifted
        ));
    }

    #[test]
    fn schema_check_finds_undeclared_and_missing_names() {
        let d = Declared::parse(SPEC).unwrap();
        assert_eq!(
            check_schema(&d, &results(1.0, 1.0, 1.0), true),
            Vec::<String>::new()
        );

        let mut odd = results(1.0, 1.0, 1.0);
        let Json::Obj(top) = &mut odd else {
            unreachable!()
        };
        let Json::Obj(ws) = &mut top[2].1 else {
            unreachable!()
        };
        ws[1].0 = "w9".into();
        let Json::Obj(w1) = &mut ws[0].1 else {
            unreachable!()
        };
        let Json::Obj(metrics) = &mut w1[1].1 else {
            unreachable!()
        };
        metrics[1].0 = "startup_s".into();
        top.pop();
        let problems = check_schema(&d, &odd, true);
        for needle in [
            "workload w9 is not declared",
            "declared workload w2 is missing",
            "w1: metric startup_s is not declared",
            "w1: declared metric setup_s is missing",
            "does not end with \"claim\": null",
        ] {
            assert!(
                problems.iter().any(|p| p.contains(needle)),
                "{needle}: {problems:?}"
            );
        }
    }
}
