//! The repo's benchmark. One process measures one workload:
//!
//! ```text
//! clof-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out FILE]
//! clof-benchmark all [--trace 1] [--quick] --out FILE     every workload, one process each
//! clof-benchmark compare A.json B.json                    one row per (workload, end-to-end metric)
//! clof-benchmark repeat-check [--quick]                   every workload twice, must agree
//! clof-benchmark check-schema FILE...                     result files against BENCHMARK.json
//! clof-benchmark --selftest                               the checks fail over a broken lock
//! ```
//!
//! `benchmark/run.sh` builds this package twice — default features and
//! `--features obs` — and starts the default build, which hands
//! `lock_pass_2t_obs` and the `obs.*` cells to the other. See
//! `benchmark/README.md`.

mod broken;
mod compare;
mod harness;
mod json;
mod keys;
mod ladder;
mod pin;
mod protocol;
mod report;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use compare::Declared;
use json::Json;
use ladder::{Ladder, Metric};
use report::RunResult;
use workloads::{Kind, Spec};

/// Seed used when `--seed` is not given, and for the committed baselines.
const DEFAULT_SEED: u64 = 1;
const SCHEMA: &str = "clof-benchmark/1";
/// Which build this binary is.
const BUILD: &str = if cfg!(feature = "obs") {
    "obs"
} else {
    "default"
};

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    /// `None`: take `run_seconds` from `BENCHMARK.json`.
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
    /// Where `BENCHMARK.json` is; the benchmark is run from the repo root.
    spec: String,
    selftest: bool,
    /// Internal: run only the workload part and hand the result, context
    /// included, to the build that asked.
    part_workload: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
        spec: "BENCHMARK.json".into(),
        selftest: false,
        part_workload: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?),
            "--trace-out" => o.trace_out = Some(value()?),
            "--spec" => o.spec = value()?,
            "--selftest" => o.selftest = true,
            "--part-workload" => o.part_workload = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

impl Options {
    fn seconds(&self) -> Result<u64, String> {
        match self.seconds {
            Some(s) => Ok(s),
            None => Ok(Declared::load(&self.spec)?.run_seconds),
        }
    }

    /// The arguments that reproduce this run's settings in a child.
    fn run_args(&self, workload: &str, seconds: u64) -> Vec<String> {
        let mut args: Vec<String> = ["--workload", workload, "--spec", &self.spec]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(["--seed".into(), self.seed.to_string()]);
        args.extend(["--seconds".into(), seconds.to_string()]);
        args.extend(["--trace".into(), u8::from(self.trace).to_string()]);
        if self.quick {
            args.push("--quick".into());
        }
        args
    }
}

fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    Ok(exe.parent().map(PathBuf::from).unwrap_or_default())
}

/// The other build: `clof-benchmark-obs` beside `clof-benchmark`, where
/// `run.sh` puts them.
fn sibling() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let name = exe.file_name().and_then(|n| n.to_str()).unwrap_or_default();
    let other = match name.strip_suffix("-obs") {
        Some(plain) => plain.to_owned(),
        None => format!("{name}-obs"),
    };
    let path = exe.with_file_name(other);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build both binaries with benchmark/run.sh",
            path.display()
        ))
    }
}

/// Runs `program args`, echoes all but its last output line, and returns
/// the last line parsed as a result with context.
fn run_child(program: &PathBuf, args: &[String]) -> Result<RunResult, String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", program.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() && !last.starts_with('{') {
        return Err(format!(
            "{} {} failed: {}",
            program.display(),
            args.join(" "),
            output.status
        ));
    }
    RunResult::from_json(&json::parse(last)?)
}

fn host_json(host_cpus: &[usize]) -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_owned())
            .ok()
    };
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    let text = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        (
            "pinned_to",
            Json::Arr(host_cpus.iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        ("kernel", text(read("/proc/sys/kernel/osrelease"))),
        ("rustc", text(rustc)),
    ])
}

/// A result file: one schema for a single workload and for all of them.
fn results_file(o: &Options, seconds: u64, mode: &str, workloads: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("mode", Json::Str(mode.into())),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("quick", Json::Bool(o.quick)),
        ("trace", Json::Num(f64::from(u8::from(o.trace)))),
        ("host", host_json(&pin::allowed_cpus())),
        ("workloads", Json::Obj(workloads)),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
    ])
}

fn write_file(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))
}

/// The workload part of a run, in this process.
fn workload_part(o: &Options, spec: &Spec, seconds: u64) -> Result<RunResult, String> {
    let host_cpus = pin::allowed_cpus();
    let plan = protocol::Plan::new(seconds, o.quick, o.trace);
    let (seed, cpus) = (o.seed, spec.cohort_cpus);
    let outcome = match spec.kind {
        Kind::Lock => protocol::run(&plan, &host_cpus, || workloads::setup_lock(seed, cpus)),
        Kind::Cabinet(choice) => protocol::run(&plan, &host_cpus, || {
            workloads::setup_cabinet(seed, cpus, &choice(), workloads::CABINET_WRITE_PCT)
        }),
        Kind::MiniDb { write_pct } => protocol::run(&plan, &host_cpus, || {
            workloads::setup_minidb(seed, cpus, write_pct)
        }),
    };
    if let Some(trace) = &outcome.trace {
        let path = match &o.trace_out {
            Some(path) => path.clone(),
            None => exe_dir()?
                .join(format!("trace-{}.json", spec.name))
                .to_string_lossy()
                .into_owned(),
        };
        let spans: Vec<Json> = trace
            .sample
            .iter()
            .enumerate()
            .flat_map(|(thread, records)| span::spans_json(thread, records))
            .collect();
        let doc = Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("workload", Json::Str(spec.name.into())),
            ("build", Json::Str(BUILD.into())),
            ("seed", Json::Num(seed as f64)),
            ("span_stats", report::span_stats_json(&outcome)),
            (
                "ops_run_traced_but_not_stored",
                Json::Num(trace.dropped as f64),
            ),
            ("spans", Json::Arr(spans)),
        ]);
        write_file(&path, &doc)?;
        println!("trace of {} written to {path}", spec.name);
    }
    RunResult::from_outcome(&outcome).map_err(|e| format!("{}: {e}", spec.name))
}

/// The ladder part of a traced run: every cell of the default build in
/// this process, the `obs.*` cells from the other build.
fn ladder_part(o: &Options, seconds: u64, result: &mut RunResult) -> Result<(), String> {
    let host_cpus = pin::allowed_cpus();
    let mut ladder = Ladder::new(ladder::Plan::new(seconds, o.quick), &host_cpus, o.seed);
    ladder.locks();
    ladder.core();
    ladder.kvstore();
    ladder.baselines();
    ladder.topology();
    ladder.differences();

    let mut args = vec!["cells".to_owned(), "--seed".into(), o.seed.to_string()];
    args.extend(["--seconds".into(), seconds.to_string()]);
    if o.quick {
        args.push("--quick".into());
    }
    let obs = run_child(&sibling()?, &args)?;
    let mut metrics = std::mem::take(&mut ladder.metrics);
    metrics.extend(obs.metrics.iter().cloned());
    for shape in ["solo", "handoff"] {
        let with = ladder::value_of(&metrics, &format!("obs.dynlock.fast.{shape}_ns"));
        let base = ladder::value_of(&metrics, &format!("core.dynlock.fast.{shape}_ns"));
        metrics.push(Metric {
            name: format!("obs.tax.{shape}_ratio"),
            value: with / base,
            unit: "ratio",
            from: Some(format!(
                "obs build {with:.2} ns / default build {base:.2} ns (the base)"
            )),
        });
    }
    result.metrics.extend(metrics);
    result.attempted += ladder.attempted + obs.attempted;
    result.failed += ladder.failed + obs.failed;
    Ok(())
}

/// One workload: measure, print every metric by name with its unit, and
/// end with the one-line result.
fn run_one(o: &Options, name: &str) -> Result<ExitCode, String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let known: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            known.join(", ")
        )
    })?;
    let seconds = o.seconds()?;
    let here = spec.obs_build == cfg!(feature = "obs");
    let build = if spec.obs_build { "obs" } else { "default" };
    let mut result = match (here, o.part_workload) {
        (true, _) => workload_part(o, spec, seconds)?,
        (false, false) => {
            let mut args = o.run_args(name, seconds);
            args.push("--part-workload".into());
            if let Some(path) = &o.trace_out {
                args.extend(["--trace-out".into(), path.clone()]);
            }
            run_child(&sibling()?, &args)?
        }
        (false, true) => return Err(format!("{name} is not a workload of the {BUILD} build")),
    };
    if o.part_workload {
        println!("{}", result.to_json(true).render());
        return Ok(ExitCode::SUCCESS);
    }
    if o.trace {
        ladder_part(o, seconds, &mut result)?;
    }

    println!(
        "# {name}: seed {} seconds {seconds} trace {} build {build}",
        o.seed,
        u8::from(o.trace)
    );
    result.print();
    println!(
        "{:<44} {:>16} of {} attempted",
        "failed operations", result.failed, result.attempted
    );
    if let Some(path) = &o.out {
        let mut entry = result.to_json(true);
        if let Json::Obj(pairs) = &mut entry {
            pairs.insert(0, ("build".into(), Json::Str(build.into())));
        }
        write_file(
            path,
            &results_file(o, seconds, "one", vec![(name.to_owned(), entry)]),
        )?;
    }
    println!("{}", result.to_json(false).render());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `cells`: the ladder cells of the obs build, for the default build to
/// collect.
fn obs_cells(o: &Options) -> Result<ExitCode, String> {
    if !cfg!(feature = "obs") {
        return Err("`cells` is answered by the build with --features obs".into());
    }
    let host_cpus = pin::allowed_cpus();
    let mut ladder = Ladder::new(ladder::Plan::new(o.seconds()?, o.quick), &host_cpus, o.seed);
    ladder.obs_cells();
    let result = RunResult {
        attempted: ladder.attempted,
        failed: ladder.failed,
        metrics: ladder.metrics,
        context: Vec::new(),
        raw: Json::Null,
    };
    println!("{}", result.to_json(true).render());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload in `order`, one process each, and merges their
/// result files into `path`.
fn run_all(o: &Options, order: &[&str], path: &str) -> Result<bool, String> {
    let seconds = o.seconds()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let dir = exe_dir()?.join("runs");
    let mut entries = Vec::new();
    let mut all_correct = true;
    for name in order {
        let part = dir
            .join(format!("{name}.json"))
            .to_string_lossy()
            .into_owned();
        let mut args = o.run_args(name, seconds);
        args.extend(["--out".into(), part.clone()]);
        let status = Command::new(&exe)
            .args(&args)
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{part}: {e}"))?;
        let entry = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .cloned()
            .ok_or(format!("{part} holds no result of {name}"))?;
        entries.push((name.to_string(), entry));
    }
    // Files list the workloads in their declared order whatever order ran.
    entries.sort_by_key(|(name, _)| workloads::SPECS.iter().position(|s| s.name == name));
    write_file(path, &results_file(o, seconds, "all", entries))?;
    println!("results of {} workloads written to {path}", order.len());
    Ok(all_correct)
}

fn workload_names() -> Vec<&'static str> {
    workloads::SPECS.iter().map(|s| s.name).collect()
}

/// Every workload twice, the second time in reverse order, so that a
/// drift of the host does not line up with one set.
fn repeat_check(o: &Options) -> Result<ExitCode, String> {
    let declared = Declared::load(&o.spec)?;
    let dir = exe_dir()?.join("runs");
    let path = |tag: &str| {
        dir.join(format!("repeat-{tag}.json"))
            .to_string_lossy()
            .into_owned()
    };
    let forward = workload_names();
    let backward: Vec<_> = forward.iter().rev().copied().collect();
    let mut correct = run_all(o, &forward, &path("a"))?;
    correct &= run_all(o, &backward, &path("b"))?;
    let agree = compare::compare_files(&declared, &path("a"), &path("b"), true)?;
    Ok(if correct && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_args(args)?;
    let ok = |good: bool| {
        if good {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    if o.selftest {
        let works = broken::selftest(o.seed, &pin::allowed_cpus());
        println!(
            "{}",
            if works {
                "selftest passed: the oracle reports a broken lock"
            } else {
                "selftest FAILED: a broken lock went unnoticed"
            }
        );
        return Ok(ok(works));
    }
    let mode = o.positional.first().map(String::as_str);
    if mode == Some("cells") {
        return obs_cells(&o);
    }
    if cfg!(feature = "obs") && !o.part_workload {
        // The default build orchestrates; this one only contributes parts.
        let status = Command::new(sibling()?)
            .args(args)
            .status()
            .map_err(|e| format!("cannot start the default build: {e}"))?;
        return Ok(ok(status.success()));
    }
    match (mode, &o.workload) {
        (None, Some(name)) => run_one(&o, name),
        (Some("all"), _) => {
            let path = o.out.clone().ok_or("all needs --out FILE")?;
            run_all(&o, &workload_names(), &path).map(ok)
        }
        (Some("repeat-check"), _) => repeat_check(&o),
        (Some("compare"), _) => match &o.positional[1..] {
            [a, b] => compare::compare_files(&Declared::load(&o.spec)?, a, b, false).map(ok),
            _ => Err("compare takes two result files".into()),
        },
        (Some("check-schema"), _) => {
            let declared = Declared::load(&o.spec)?;
            let mut clean = o.positional.len() > 1;
            for path in &o.positional[1..] {
                let problems = compare::check_schema_file(&declared, path)?;
                for p in &problems {
                    println!("{path}: {p}");
                }
                clean &= problems.is_empty();
            }
            println!("{}", if clean { "schema check passed" } else { "schema check FAILED" });
            Ok(ok(clean))
        }
        _ => Err("nothing to do: give --workload NAME, all, compare, repeat-check, check-schema or --selftest".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    real_main(&args).unwrap_or_else(|message| {
        eprintln!("clof-benchmark: {message}");
        ExitCode::from(2)
    })
}
