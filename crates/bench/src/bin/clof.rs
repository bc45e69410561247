//! `clof` — the CLoF workflow as a command-line tool.
//!
//! ```text
//! clof discover  [--sysfs | --machine x86|armv8]        # hierarchy config
//! clof heatmap   [--machine x86|armv8] [--ascii]        # Figure-1 heatmap
//! clof generate  [--machine x86|armv8] [--levels 3|4]   # list all N^M locks
//! clof select    [--machine x86|armv8] [--levels 3|4] [--policy hc|lc] [--quick]
//! clof simulate  [--machine x86|armv8] --lock tkt-clh-tkt-tkt --threads N
//!                [--workload leveldb|kyoto] [--threshold H]
//! clof stats     [--machine x86|armv8] --lock tkt-clh-tkt-tkt
//!                [--threads N] [--iters N] [--threshold H]
//!                [--format table|json|prometheus]       # needs --features obs
//! clof trace     [--machine x86|armv8] --lock NAME [--threads N] [--iters N]
//!                [--threshold H] [--out FILE] [--buffer N]  # needs --features obs
//! clof adapt     [--machine x86|armv8] [--levels 3|4] [--threads N] [--threshold H]
//!                [--interval-ms N] [--rounds N] [--once]  # needs --features adapt,obs
//! clof profile   [--machine x86|armv8] --lock NAME [--threads N] [--iters N]
//!                [--threshold H] [--top K] [--once]     # needs --features obs
//! clof deadline  [--machine x86|armv8] [--levels 3|4] [--lock NAME]
//!                [--rounds N] [--once]
//! ```
//!
//! All simulation-backed commands run on the built-in paper machine
//! models; `discover --sysfs` reads the real host.

use std::process::ExitCode;

use clof::{parse_composition, rank, scripted_benchmark, LockKind, Policy};
use clof_sim::engine::{run, RunOptions};
use clof_sim::workload::placement;
use clof_sim::{Machine, ModelSpec, Workload};
use clof_topology::{config, platforms};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "discover" => discover(&args[1..]),
        "heatmap" => heatmap(&args[1..]),
        "generate" => generate(&args[1..]),
        "select" => select(&args[1..]),
        "simulate" => simulate(&args[1..]),
        "stats" => stats(&args[1..]),
        "trace" => trace(&args[1..]),
        "adapt" => adapt(&args[1..]),
        "profile" => profile_cmd(&args[1..]),
        "deadline" => deadline_cmd(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
clof — compositional NUMA-aware lock workflow

commands:
  discover  [--sysfs | --machine x86|armv8]       print a hierarchy configuration
  heatmap   [--machine x86|armv8] [--ascii]       print the pair-latency heatmap
  generate  [--machine x86|armv8] [--levels 3|4]  list all generated compositions
  select    [--machine x86|armv8] [--levels 3|4] [--policy hc|lc] [--quick]
                                                  run the scripted benchmark and pick the best lock
  simulate  [--machine x86|armv8] --lock NAME --threads N
            [--workload leveldb|kyoto] [--threshold H]
                                                  simulate one lock at one contention level
  stats     [--machine x86|armv8] --lock NAME [--threads N] [--iters N]
            [--threshold H] [--format table|json|prometheus]
                                                  hammer a real composed lock and print its
                                                  telemetry (requires --features obs)
  trace     [--machine x86|armv8] --lock NAME [--threads N] [--iters N]
            [--threshold H] [--out FILE] [--buffer N]
                                                  record a causal span trace of a real run,
                                                  export Chrome/Perfetto JSON, and print the
                                                  hand-off analysis (requires --features obs)
  adapt     [--machine x86|armv8] [--levels 3|4] [--threads N] [--threshold H]
            [--interval-ms N] [--rounds N] [--once]
                                                  replay a phase-shifting workload against a live
                                                  adaptive lock: windowed telemetry feeds the
                                                  hysteresis policy, which hot-swaps between the
                                                  finalist compositions; --once runs one window
                                                  plus a demonstration swap and exits (requires
                                                  --features adapt,obs)
  profile   [--machine x86|armv8] --lock NAME [--threads N] [--iters N]
            [--threshold H] [--top K] [--once]
                                                  contention profiler: hammer a real lock, then
                                                  print the top-K contended registry sites and
                                                  folded stacks for flamegraph tooling; --once
                                                  shrinks the run for CI (requires --features obs)
  deadline  [--machine x86|armv8] [--levels 3|4] [--lock NAME] [--rounds N] [--once]
                                                  deadline-bounded acquisition demo: measure how
                                                  far past its budget a timed-out waiter returns
                                                  on a fully contended tree (with a residue check
                                                  after every round), then show panic poisoning
                                                  and recovery; --once shrinks the run for CI";

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn machine_for(args: &[String]) -> Result<Machine, String> {
    match flag_value(args, "--machine").unwrap_or("armv8") {
        "x86" => Ok(Machine::paper_x86()),
        "armv8" | "arm" => Ok(Machine::paper_armv8()),
        other => Err(format!("unknown machine `{other}` (x86 | armv8)")),
    }
}

fn tuned_machine(args: &[String]) -> Result<Machine, String> {
    let machine = machine_for(args)?;
    let levels = flag_value(args, "--levels").unwrap_or("4");
    let hierarchy = match (machine.arch, levels) {
        (clof_sim::Arch::X86, "4") => platforms::paper_x86_4level(),
        (clof_sim::Arch::X86, "3") => platforms::paper_x86_3level(),
        (clof_sim::Arch::Armv8, "4") => platforms::paper_armv8_4level(),
        (clof_sim::Arch::Armv8, "3") => platforms::paper_armv8_3level(),
        (_, other) => return Err(format!("unsupported --levels `{other}` (3 | 4)")),
    };
    Ok(machine.with_hierarchy(hierarchy))
}

fn basics(machine: &Machine) -> Vec<LockKind> {
    match machine.arch {
        clof_sim::Arch::X86 => LockKind::PAPER_X86.to_vec(),
        clof_sim::Arch::Armv8 => LockKind::PAPER_ARM.to_vec(),
    }
}

fn discover(args: &[String]) -> Result<(), String> {
    let hierarchy = if has_flag(args, "--sysfs") {
        clof_topology::sysfs::discover().map_err(|e| format!("sysfs discovery failed: {e}"))?
    } else {
        machine_for(args)?.hierarchy
    };
    print!("{}", config::to_text(&hierarchy));
    Ok(())
}

fn heatmap(args: &[String]) -> Result<(), String> {
    let machine = machine_for(args)?;
    let heatmap = machine.synthetic_heatmap();
    if has_flag(args, "--ascii") {
        print!("{}", heatmap.render_ascii());
    } else {
        print!("{}", heatmap.to_csv());
    }
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    let machine = tuned_machine(args)?;
    let combos = clof::compositions(&basics(&machine), machine.hierarchy.level_count());
    for combo in &combos {
        println!("{}", clof::composition_name(combo));
    }
    eprintln!(
        "{} compositions over levels {:?}",
        combos.len(),
        machine.hierarchy.level_names()
    );
    Ok(())
}

fn select(args: &[String]) -> Result<(), String> {
    let machine = tuned_machine(args)?;
    let policy = match flag_value(args, "--policy").unwrap_or("lc") {
        "hc" => Policy::HighContention,
        "lc" => Policy::LowContention,
        other => return Err(format!("unknown policy `{other}` (hc | lc)")),
    };
    let quick = has_flag(args, "--quick");
    let opts = RunOptions {
        duration_ns: if quick { 3_000_000 } else { 20_000_000 },
        warmup_ns: if quick { 300_000 } else { 2_000_000 },
        seed: 0xC10F,
    };
    let max = machine.ncpus() - 1;
    let grid = [1usize, 8, 32, max];
    let combos = clof::compositions(&basics(&machine), machine.hierarchy.level_count());
    eprintln!(
        "benchmarking {} compositions on {} ...",
        combos.len(),
        machine.name
    );
    let hierarchy = machine.hierarchy.clone();
    let results = scripted_benchmark(&combos, &grid, |combo, threads| {
        let spec = ModelSpec::clof(hierarchy.clone(), combo);
        let cpus = placement::compact(&machine, threads);
        run(&machine, &spec, &cpus, Workload::leveldb_readrandom(), opts).throughput_per_us()
    });
    // The paper's scripted benchmark reports both selections and lets
    // the user choose (§4.3); the requested policy's pick is listed
    // first with its curve.
    let selection = rank(&results, policy);
    let hc = rank(&results, Policy::HighContention);
    let lc = rank(&results, Policy::LowContention);
    // CI greps release binaries for the waiting-layer marker to tell
    // park builds from spin-only builds (`scripts/ci.sh`); the banner
    // keeps the marker reachable even when no benchmark ever parks.
    #[cfg(feature = "park")]
    println!("waiting:     spin-then-park [{}]", clof_locks::PARK_MARKER);
    println!("best ({}):  {}", flag_value(args, "--policy").unwrap_or("lc"), selection.best().name());
    println!("HC-best:     {}", hc.best().name());
    println!("LC-best:     {}", lc.best().name());
    println!("worst:       {}", selection.worst().name());
    for (threads, tp) in &selection.best().points {
        println!("  best @ {threads:>3} threads: {tp:.3} iter/us");
    }
    // With telemetry compiled in, profile both policy finalists on the
    // *real* composed lock (not the simulator) and print the per-level
    // pass rates and tail latency a deployment would observe.
    #[cfg(feature = "obs")]
    {
        println!();
        println!("finalist telemetry (real lock, 8 threads x 20000 iters):");
        for (tag, name) in [("HC", hc.best().name()), ("LC", lc.best().name())] {
            let kinds = parse_composition(&name).map_err(|e| e.to_string())?;
            let snap = profile_real_lock(&machine.hierarchy, &kinds, 128, 8, 20_000)?;
            for level in &snap.levels {
                println!(
                    "  {tag}-best {name} level {}: pass rate {:5.1}%  p99 acquire {} ns",
                    level.level,
                    level.pass_rate() * 100.0,
                    level.acquire_ns.p99()
                );
            }
        }
    }
    Ok(())
}

/// Builds the named composition as a real `DynClofLock`, hammers it from
/// `threads` threads spread compactly over the hierarchy, and returns
/// the telemetry snapshot at quiescence.
#[cfg(feature = "obs")]
fn profile_real_lock(
    hierarchy: &clof_topology::Hierarchy,
    kinds: &[clof::LockKind],
    threshold: u32,
    threads: usize,
    iters: u64,
) -> Result<clof::obs::LockSnapshot, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let params = clof::ClofParams {
        keep_local_threshold: threshold,
    };
    let lock = Arc::new(
        clof::DynClofLock::build_with(hierarchy, kinds, params, true).map_err(|e| e.to_string())?,
    );
    let shared = Arc::new(AtomicU64::new(0));
    let ncpus = hierarchy.ncpus();
    let mut workers = Vec::new();
    for t in 0..threads {
        let lock = Arc::clone(&lock);
        let shared = Arc::clone(&shared);
        let cpu = t * ncpus / threads.max(1);
        workers.push(std::thread::spawn(move || {
            let mut handle = lock.handle(cpu);
            for _ in 0..iters {
                handle.acquire();
                shared.fetch_add(1, Ordering::Relaxed);
                handle.release();
            }
        }));
    }
    for w in workers {
        w.join().map_err(|_| "profiling thread panicked".to_string())?;
    }
    let expected = threads as u64 * iters;
    let got = shared.load(Ordering::Relaxed);
    if got != expected {
        return Err(format!("lost updates under profile: {got} != {expected}"));
    }
    Ok(lock.obs_snapshot())
}

fn stats(args: &[String]) -> Result<(), String> {
    #[cfg(not(feature = "obs"))]
    {
        let _ = args;
        Err("`stats` needs lock telemetry compiled in; rebuild with `--features obs`".to_string())
    }
    #[cfg(feature = "obs")]
    {
        let machine = tuned_machine(args)?;
        let lock = flag_value(args, "--lock").ok_or("missing --lock NAME (e.g. tkt-clh-tkt)")?;
        let kinds = parse_composition(lock).map_err(|e| e.to_string())?;
        if kinds.len() != machine.hierarchy.level_count() {
            return Err(format!(
                "`{lock}` names {} levels but the hierarchy has {} ({:?}); pass --levels",
                kinds.len(),
                machine.hierarchy.level_count(),
                machine.hierarchy.level_names()
            ));
        }
        let threads: usize = flag_value(args, "--threads")
            .unwrap_or("8")
            .parse()
            .map_err(|e| format!("bad --threads: {e}"))?;
        let iters: u64 = flag_value(args, "--iters")
            .unwrap_or("20000")
            .parse()
            .map_err(|e| format!("bad --iters: {e}"))?;
        let threshold: u32 = flag_value(args, "--threshold")
            .unwrap_or("128")
            .parse()
            .map_err(|e| format!("bad --threshold: {e}"))?;
        let snap = profile_real_lock(&machine.hierarchy, &kinds, threshold, threads, iters)?;
        match flag_value(args, "--format").unwrap_or("table") {
            "table" => print!("{}", clof_bench::report::obs_report(&snap).render()),
            "json" => println!("{}", clof::obs::render_json(&snap)),
            "prometheus" | "prom" => print!("{}", clof::obs::render_prometheus(&snap)),
            other => return Err(format!("unknown format `{other}` (table | json | prometheus)")),
        }
        Ok(())
    }
}

/// Shared argument parsing for the telemetry commands: machine, lock
/// kinds (validated against the hierarchy's level count), threads,
/// threshold.
#[cfg(feature = "obs")]
fn telemetry_args(
    args: &[String],
    default_threads: &str,
) -> Result<(Machine, Vec<LockKind>, usize, u32), String> {
    let machine = tuned_machine(args)?;
    let lock = flag_value(args, "--lock").ok_or("missing --lock NAME (e.g. tkt-clh-tkt)")?;
    let kinds = parse_composition(lock).map_err(|e| e.to_string())?;
    if kinds.len() != machine.hierarchy.level_count() {
        return Err(format!(
            "`{lock}` names {} levels but the hierarchy has {} ({:?}); pass --levels",
            kinds.len(),
            machine.hierarchy.level_count(),
            machine.hierarchy.level_names()
        ));
    }
    let threads: usize = flag_value(args, "--threads")
        .unwrap_or(default_threads)
        .parse()
        .map_err(|e| format!("bad --threads: {e}"))?;
    let threshold: u32 = flag_value(args, "--threshold")
        .unwrap_or("128")
        .parse()
        .map_err(|e| format!("bad --threshold: {e}"))?;
    Ok((machine, kinds, threads, threshold))
}

fn trace(args: &[String]) -> Result<(), String> {
    #[cfg(not(feature = "obs"))]
    {
        let _ = args;
        Err("`trace` needs lock telemetry compiled in; rebuild with `--features obs`".to_string())
    }
    #[cfg(feature = "obs")]
    {
        use clof::obs::trace;

        let (machine, kinds, threads, threshold) = telemetry_args(args, "4")?;
        let iters: u64 = flag_value(args, "--iters")
            .unwrap_or("5000")
            .parse()
            .map_err(|e| format!("bad --iters: {e}"))?;
        let buffer: usize = flag_value(args, "--buffer")
            .unwrap_or("65536")
            .parse()
            .map_err(|e| format!("bad --buffer: {e}"))?;
        let out = flag_value(args, "--out").unwrap_or("clof-trace.json");

        trace::enable(buffer);
        let profiled = profile_real_lock(&machine.hierarchy, &kinds, threshold, threads, iters);
        trace::disable();
        let snap = profiled?;
        let recorded = trace::snapshot();
        std::fs::write(out, clof::obs::render_chrome_trace(&recorded))
            .map_err(|e| format!("writing {out}: {e}"))?;

        let analysis = clof::obs::analyze(&recorded);
        print!(
            "{}",
            clof_bench::report::obs_report_with_analysis(&snap, &analysis).render()
        );
        println!(
            "wrote {} span events ({} dropped) to {out} — load in Perfetto or chrome://tracing",
            recorded.events.len(),
            recorded.dropped
        );
        // On a complete trace the §4.1 keep-local bound is a hard
        // invariant; a violation is a composition bug, so fail loudly.
        analysis.check_chain_bound(u64::from(threshold))?;
        Ok(())
    }
}

/// Prints the most recent entries of the process-global adaptation
/// audit ring, if any policy or migration has recorded into it.
#[cfg(all(feature = "obs", feature = "adapt"))]
fn print_audit_tail(limit: usize) {
    let entries = clof::obs::audit::global().entries();
    if entries.is_empty() {
        return;
    }
    println!("audit tail (last {} of {} recorded):", entries.len().min(limit), {
        clof::obs::audit::global().recorded()
    });
    for record in entries.iter().rev().take(limit).rev() {
        println!("  {record}");
    }
}

fn adapt(args: &[String]) -> Result<(), String> {
    #[cfg(not(all(feature = "obs", feature = "adapt")))]
    {
        let _ = args;
        Err("`adapt` needs runtime adaptation and telemetry compiled in; rebuild with \
             `--features adapt,obs`"
            .to_string())
    }
    #[cfg(all(feature = "obs", feature = "adapt"))]
    {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        use clof::obs::{
            AdaptDecision, FinalistProfile, HysteresisConfig, HysteresisController, Sampler,
        };

        let machine = tuned_machine(args)?;
        let threads: usize = flag_value(args, "--threads")
            .unwrap_or("8")
            .parse()
            .map_err(|e| format!("bad --threads: {e}"))?;
        let threshold: u32 = flag_value(args, "--threshold")
            .unwrap_or("128")
            .parse()
            .map_err(|e| format!("bad --threshold: {e}"))?;
        let once = has_flag(args, "--once");
        let interval_ms: u64 = flag_value(args, "--interval-ms")
            .unwrap_or(if once { "60" } else { "300" })
            .parse()
            .map_err(|e| format!("bad --interval-ms: {e}"))?;
        let rounds: u64 = if once {
            1
        } else {
            flag_value(args, "--rounds")
                .unwrap_or("12")
                .parse()
                .map_err(|e| format!("bad --rounds: {e}"))?
        };

        // Finalist set: the homogeneous compositions of the machine's
        // basic locks, profiled offline on the simulator (the scripted
        // benchmark of §4.3, shrunk to the shapes the policy can name).
        let levels = machine.hierarchy.level_count();
        let finalists: Vec<Vec<LockKind>> = basics(&machine)
            .into_iter()
            .map(|k| vec![k; levels])
            .collect();
        let opts = RunOptions {
            duration_ns: 2_000_000,
            warmup_ns: 200_000,
            seed: 0xADA7,
        };
        let grid = [1usize, 2, 4, threads.max(2)];
        let hierarchy = machine.hierarchy.clone();
        let results = scripted_benchmark(&finalists, &grid, |combo, n| {
            let spec = ModelSpec::clof(hierarchy.clone(), combo);
            let cpus = placement::compact(&machine, n);
            run(&machine, &spec, &cpus, Workload::leveldb_readrandom(), opts).throughput_per_us()
        });
        let profiles: Vec<FinalistProfile> = results
            .iter()
            .map(|r| {
                FinalistProfile::new(r.name(), &r.points)
                    .ok_or_else(|| format!("profile for {} has no finite points", r.name()))
            })
            .collect::<Result<_, _>>()?;
        let start_name = rank(&results, Policy::LowContention).best().name();
        let start = results
            .iter()
            .position(|r| r.name() == start_name)
            .expect("ranked winner is in the result set");
        for p in &profiles {
            println!("clof-adapt: finalist {}", p.name);
        }
        println!("clof-adapt: starting as {start_name} (LC-ranked)");

        let params = clof::ClofParams {
            keep_local_threshold: threshold,
        };
        let lock = Arc::new(
            clof::AdaptiveLock::with_params(&machine.hierarchy, &finalists[start], params, true)
                .map_err(|e| e.to_string())?,
        );

        // Phase-shifting workload: phase 0 is full contention with short
        // critical sections, phase 1 parks all but two threads and
        // stretches the sections — the two regimes the HC/LC finalists
        // were selected for.
        let stop = Arc::new(AtomicBool::new(false));
        let phase = Arc::new(AtomicU64::new(0));
        let total = Arc::new(AtomicU64::new(0));
        let ncpus = machine.hierarchy.ncpus();
        let mut workers = Vec::new();
        for t in 0..threads {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            let phase = Arc::clone(&phase);
            let total = Arc::clone(&total);
            let cpu = t * ncpus / threads.max(1);
            workers.push(std::thread::spawn(move || {
                let mut handle = lock.handle(cpu);
                while !stop.load(Ordering::Relaxed) {
                    let low = phase.load(Ordering::Relaxed) == 1;
                    if low && t >= 2 {
                        std::thread::yield_now();
                        continue;
                    }
                    handle.acquire();
                    total.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..if low { 256 } else { 16 } {
                        std::hint::spin_loop();
                    }
                    handle.release();
                    if low {
                        for _ in 0..512 {
                            std::hint::spin_loop();
                        }
                    }
                }
            }));
        }

        let mut controller = HysteresisController::new(
            profiles,
            start,
            HysteresisConfig { k: 2, margin: 0.05 },
        )
        .expect("non-empty finalist set");
        let mut sampler = Sampler::new();
        sampler.tick(lock.obs_snapshot());
        for round in 0..rounds {
            // Shift the workload phase every few windows so the policy
            // has a regime change to react to.
            if !once && round > 0 && round % 4 == 0 {
                let flipped = 1 - phase.load(Ordering::Relaxed);
                phase.store(flipped, Ordering::Relaxed);
                println!(
                    "clof-adapt: workload phase -> {}",
                    if flipped == 1 { "low contention" } else { "high contention" }
                );
            }
            std::thread::sleep(Duration::from_millis(interval_ms));
            let Some(rates) = sampler.tick(lock.obs_snapshot()) else {
                continue;
            };
            let decision = controller.observe_rates(&rates);
            println!("clof-adapt: {rates}");
            match decision {
                AdaptDecision::Stay => {
                    println!("clof-adapt: stay on {}", lock.name());
                }
                AdaptDecision::Switch(i) => {
                    let target = &finalists[i];
                    match lock.swap_to(target) {
                        Ok(_) => println!(
                            "clof-adapt: switched to {} in {} ns",
                            lock.name(),
                            lock.migration_stats().last_switch_ns
                        ),
                        Err(e) => {
                            controller.set_active(start);
                            println!("clof-adapt: switch failed ({e}); staying");
                        }
                    }
                }
            }
        }

        if once {
            // CI smoke: exercise one real migration regardless of what
            // the policy decided in its single window, then sample one
            // post-switch window so the run reports throughput on the
            // incoming tree too.
            let target = (start + 1) % finalists.len();
            lock.swap_to(&finalists[target]).map_err(|e| e.to_string())?;
            println!(
                "clof-adapt: demonstration swap to {} in {} ns",
                lock.name(),
                lock.migration_stats().last_switch_ns
            );
            sampler.tick(lock.obs_snapshot()); // re-baseline on the new tree
            std::thread::sleep(Duration::from_millis(interval_ms));
            if let Some(rates) = sampler.tick(lock.obs_snapshot()) {
                println!("clof-adapt: post-switch {rates}");
            }
        }

        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().map_err(|_| "worker thread panicked".to_string())?;
        }
        let stats = lock.migration_stats();
        println!(
            "clof-adapt: {} acquisitions, {} migration(s), mean switch {} ns, final {}",
            total.load(Ordering::Relaxed),
            stats.swaps,
            stats.mean_switch_ns(),
            lock.name()
        );
        print_audit_tail(8);
        Ok(())
    }
}

fn profile_cmd(args: &[String]) -> Result<(), String> {
    #[cfg(not(feature = "obs"))]
    {
        let _ = args;
        Err("`profile` needs lock telemetry compiled in; rebuild with `--features obs`".to_string())
    }
    #[cfg(feature = "obs")]
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let (machine, kinds, threads, threshold) = telemetry_args(args, "8")?;
        let once = has_flag(args, "--once");
        let iters: u64 = flag_value(args, "--iters")
            .unwrap_or(if once { "2000" } else { "20000" })
            .parse()
            .map_err(|e| format!("bad --iters: {e}"))?;
        let top_k: usize = flag_value(args, "--top")
            .unwrap_or("10")
            .parse()
            .map_err(|e| format!("bad --top: {e}"))?;

        let params = clof::ClofParams {
            keep_local_threshold: threshold,
        };
        let lock = Arc::new(
            clof::DynClofLock::build_with(&machine.hierarchy, &kinds, params, true)
                .map_err(|e| e.to_string())?,
        );
        println!(
            "clof profile — {} (H = {threshold}, {threads} threads x {iters} iters) [{}]",
            lock.name(),
            clof::obs::PROFILE_MARKER
        );

        // Windowed delta over the run: the lock is registered (and its
        // profile slot zeroed) at build, so `after - before` is exactly
        // this run even when other sites live in the process.
        let before = clof::obs::profile::global().snapshot();
        let shared = Arc::new(AtomicU64::new(0));
        let ncpus = machine.hierarchy.ncpus();
        let mut workers = Vec::new();
        for t in 0..threads {
            let lock = Arc::clone(&lock);
            let shared = Arc::clone(&shared);
            let cpu = t * ncpus / threads.max(1);
            workers.push(std::thread::spawn(move || {
                let mut handle = lock.handle(cpu);
                for _ in 0..iters {
                    handle.acquire();
                    shared.fetch_add(1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for w in workers {
            w.join().map_err(|_| "profiling thread panicked".to_string())?;
        }
        let expected = threads as u64 * iters;
        let got = shared.load(Ordering::Relaxed);
        if got != expected {
            return Err(format!("lost updates under profile: {got} != {expected}"));
        }
        let delta = clof::obs::profile::global().snapshot().delta(&before);

        // Top-K most wait-contended sites, with their construction site
        // and per-(level, node) wait breakdown.
        println!();
        println!("top {} sites by wait:", top_k.min(delta.sites.len()).max(1));
        println!(
            "{:<4} {:<24} {:<14} {:>9} {:>11} {:>11} {:>9} {:>9}  location",
            "id", "label", "shape", "acquires", "wait-mean", "hold-mean", "passes", "gen"
        );
        for site in delta.top_k(top_k) {
            println!(
                "{:<4} {:<24} {:<14} {:>9} {:>9}ns {:>9}ns {:>9} {:>9}  {}",
                site.id,
                site.label,
                site.shape,
                site.acquires,
                site.mean_wait_ns(),
                site.mean_hold_ns(),
                site.passes,
                site.generation,
                site.location
            );
            for node in &site.nodes {
                if node.waits > 0 {
                    println!(
                        "       L{} n{}: {} waits, mean {} ns",
                        node.level,
                        node.node,
                        node.waits,
                        node.wait_ns / node.waits.max(1)
                    );
                }
            }
        }

        // Folded stacks: one line per (site, level, node), weight =
        // wait ns — pipe into any flamegraph renderer.
        println!();
        println!("folded stacks (site;level;node wait_ns):");
        print!("{}", clof::obs::render_folded(&delta));
        Ok(())
    }
}

fn simulate(args: &[String]) -> Result<(), String> {
    let machine = tuned_machine(args)?;
    let lock = flag_value(args, "--lock").ok_or("missing --lock NAME (e.g. tkt-clh-tkt)")?;
    let kinds = parse_composition(lock).map_err(|e| e.to_string())?;
    if kinds.len() != machine.hierarchy.level_count() {
        return Err(format!(
            "`{lock}` names {} levels but the hierarchy has {} ({:?}); pass --levels",
            kinds.len(),
            machine.hierarchy.level_count(),
            machine.hierarchy.level_names()
        ));
    }
    let threads: usize = flag_value(args, "--threads")
        .ok_or("missing --threads N")?
        .parse()
        .map_err(|e| format!("bad --threads: {e}"))?;
    let workload = match flag_value(args, "--workload").unwrap_or("leveldb") {
        "leveldb" => Workload::leveldb_readrandom(),
        "kyoto" => Workload::kyoto_cabinet(),
        other => return Err(format!("unknown workload `{other}` (leveldb | kyoto)")),
    };
    let threshold: u32 = flag_value(args, "--threshold")
        .unwrap_or("128")
        .parse()
        .map_err(|e| format!("bad --threshold: {e}"))?;

    let spec = ModelSpec::clof_with_threshold(machine.hierarchy.clone(), &kinds, threshold);
    let cpus = placement::compact(&machine, threads);
    let result = run(
        &machine,
        &spec,
        &cpus,
        workload,
        RunOptions::default(),
    );
    println!("machine:    {}", machine.name);
    println!("lock:       {} (H = {threshold})", spec.label);
    println!("threads:    {threads}");
    println!("throughput: {:.3} iter/us", result.throughput_per_us());
    println!("fairness:   jain {:.4}", result.jain_index());
    for (level, count) in result.handovers_by_level.iter().enumerate() {
        println!(
            "handovers @ {:<8}: {count}",
            machine.hierarchy.levels()[level].name
        );
    }
    Ok(())
}

/// `clof deadline` — bounded acquisition on a real composed lock: an
/// abandonment-latency table (how far past its budget a timed-out
/// waiter returns, with a queue/waiter-count residue check after every
/// round), timeout recovery, and the panic-poisoning round trip.
fn deadline_cmd(args: &[String]) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use clof::{ClofMutex, DynClofLock};

    let machine = tuned_machine(args)?;
    let hierarchy = machine.hierarchy.clone();
    let levels = hierarchy.level_count();
    let kinds: Vec<LockKind> = match flag_value(args, "--lock") {
        Some(name) => parse_composition(name).map_err(|e| e.to_string())?,
        None => {
            // Queue locks at the contended inner levels, tickets up
            // the tree — the shape whose abandonment protocol is
            // the most interesting to watch.
            let mut kinds = vec![LockKind::Mcs, LockKind::Clh];
            while kinds.len() < levels {
                kinds.push(LockKind::Ticket);
            }
            kinds.truncate(levels);
            kinds
        }
    };
    if kinds.len() != levels {
        return Err(format!(
            "--lock names {} levels but the hierarchy has {levels}",
            kinds.len()
        ));
    }
    let once = has_flag(args, "--once");
    let rounds: u32 = flag_value(args, "--rounds")
        .unwrap_or(if once { "8" } else { "40" })
        .parse()
        .map_err(|e| format!("bad --rounds: {e}"))?;

    println!(
        "lock:        {} on {} ({} levels, {} cpus)",
        clof::composition_name(&kinds),
        machine.name,
        levels,
        hierarchy.ncpus()
    );

    let lock =
        Arc::new(DynClofLock::build(&hierarchy, &kinds).map_err(|e| e.to_string())?);
    let far = hierarchy.ncpus() - 1;
    let budgets_us: &[u64] = if once { &[200, 1_000] } else { &[50, 200, 1_000, 5_000] };

    println!();
    println!(
        "abandonment latency: holder on cpu 0 never releases; a waiter on \
         cpu {far} climbs,"
    );
    println!(
        "times out, and unwinds. overshoot = time past the budget until \
         control returns."
    );
    println!(
        "  {:>9} {:>7} {:>12} {:>12} {:>12}   residue",
        "budget", "rounds", "min over", "median over", "p99 over"
    );

    let abandons_before = clof_locks::deadline::abandons();
    let mut timeouts = 0u64;
    for &budget_us in budgets_us {
        let budget = Duration::from_micros(budget_us);
        let stop = Arc::new(AtomicBool::new(false));
        let held = Arc::new(AtomicBool::new(false));
        let holder = {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            let held = Arc::clone(&held);
            std::thread::spawn(move || {
                let mut h = lock.handle(0);
                h.acquire();
                held.store(true, Ordering::Release);
                while !stop.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                h.release();
            })
        };
        while !held.load(Ordering::Acquire) {
            std::thread::yield_now();
        }

        let mut overshoots_us: Vec<u64> = Vec::with_capacity(rounds as usize);
        let mut handle = lock.handle(far);
        for _ in 0..rounds {
            let t0 = Instant::now();
            let won = handle.try_acquire_for(budget);
            let elapsed = t0.elapsed();
            if won {
                // Cannot happen while the holder lives; bail loudly
                // rather than print a bogus table.
                handle.release();
                return Err("waiter acquired a held lock".to_string());
            }
            timeouts += 1;
            overshoots_us.push(elapsed.saturating_sub(budget).as_micros() as u64);
        }
        let residue = lock.queue_depth_hint();
        stop.store(true, Ordering::Release);
        holder.join().map_err(|_| "holder thread panicked".to_string())?;

        overshoots_us.sort_unstable();
        let min = overshoots_us[0];
        let med = overshoots_us[overshoots_us.len() / 2];
        let p99 = overshoots_us[(overshoots_us.len() - 1).min(
            overshoots_us.len() * 99 / 100,
        )];
        println!(
            "  {budget_us:>7}us {rounds:>7} {min:>10}us {med:>10}us {p99:>10}us   {}",
            if residue == 0 { "none" } else { "LEAKED" }
        );
        if residue != 0 {
            return Err(format!(
                "timed-out waits left {residue} queue/waiter-count residue"
            ));
        }
    }

    let t0 = Instant::now();
    let mut handle = lock.handle(far);
    handle.acquire();
    handle.release();
    println!();
    println!(
        "recovery:    blocking acquire after {timeouts} timeouts won in {:?}",
        t0.elapsed()
    );
    println!(
        "counters:    abandons +{}  skips {}",
        clof_locks::deadline::abandons() - abandons_before,
        clof_locks::deadline::skips()
    );

    println!();
    println!("panic poisoning:");
    let mutex =
        Arc::new(ClofMutex::new(0u64, &hierarchy, &kinds).map_err(|e| e.to_string())?);
    let panicker = {
        let mutex = Arc::clone(&mutex);
        std::thread::spawn(move || {
            let mut h = mutex.handle(0);
            let mut guard = h.lock();
            *guard = 41; // torn: the panic lands mid-update
            // Silence the default hook for this intentional panic.
            std::panic::set_hook(Box::new(|_| {}));
            panic!("holder dies inside its critical section");
        })
    };
    let panicked = panicker.join().is_err();
    let _ = std::panic::take_hook();
    if !panicked {
        return Err("the demo holder failed to panic".to_string());
    }
    println!("  holder panicked while holding -> poisoned: {}", mutex.is_poisoned());
    let mut h = mutex.handle(far);
    match h.try_lock_for(Duration::from_millis(100)) {
        Err(e) => println!("  bounded lock reports: {e}"),
        Ok(_) => return Err("a poisoned lock handed out a guard".to_string()),
    }
    mutex.clear_poison();
    let mut h = mutex.handle(far);
    match h.try_lock_for(Duration::from_secs(5)) {
        Ok(guard) => println!(
            "  clear_poison -> reacquired; suspect value {} is the \
             caller's to repair",
            *guard
        ),
        Err(e) => return Err(format!("recovery after clear_poison failed: {e}")),
    }
    Ok(())
}
