//! `loadgen` — the repo's end-to-end + per-layer benchmark.
//!
//! Spawns the real `sqlts serve` as a child process, drives it over real
//! TCP with the real frame protocol, checks every result byte for byte
//! against in-process batch `execute`, and times the layers underneath.
//! See `perfbench/README.md` for the metrics, the workloads and how to
//! read `compare`.

mod batch;
mod compare;
mod data;
mod json;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod wire;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use probes::ProbeScale;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Env, Outcome, Res, Scale, Spec};

const USAGE: &str = "\
usage:
  loadgen --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one contract run; the last stdout line is the result JSON
      (end-to-end metrics with --trace 0, per-layer with --trace 1)
  loadgen run [--seed <n>] [--seconds <s>] [--repeat <k>] [--out <file>] [--smoke]
      every workload untraced then traced, plus the probes; prints every
      metric and writes the full report (default perfbench/out/BENCH_loadgen.json)
  loadgen --smoke
      `run --smoke`: tiny passes, one ladder step, one kill point
  loadgen compare <a.json> <b.json>
      per (metric, workload) difference vs the bounds; exit 1 on a breach
  loadgen definition
      print BENCHMARK.json
  loadgen describe
      print the metric tables as markdown
workloads: solo_mem fanout_shared durable_crash batch_suite";

/// Sizes and time boxes of one invocation.
struct Mode {
    scale: Scale,
    probes: ProbeScale,
    seconds: f64,
    /// Time box of each of the traced run's two passes.
    traced_seconds: f64,
}

impl Mode {
    fn contract(seconds: f64) -> Mode {
        Mode {
            scale: Scale::full(),
            probes: ProbeScale::contract(),
            seconds,
            traced_seconds: seconds * 0.3,
        }
    }

    fn full(seconds: f64) -> Mode {
        Mode {
            probes: ProbeScale::full(),
            ..Mode::contract(seconds)
        }
    }

    fn smoke() -> Mode {
        Mode {
            scale: Scale::smoke(),
            probes: ProbeScale::smoke(),
            seconds: 0.5,
            traced_seconds: 0.5,
        }
    }
}

/// Scratch space inside the checkout, removed when the run ends.
struct Scratch(Env);

impl Scratch {
    fn new() -> Res<Scratch> {
        let out_dir = PathBuf::from("perfbench/out");
        let tmp_dir = out_dir.join(format!("tmp-{}", std::process::id()));
        workloads::io(std::fs::create_dir_all(&tmp_dir), "create perfbench/out")?;
        Ok(Scratch(Env {
            server_bin: workloads::io(wire::server_binary(), "locate server")?,
            out_dir,
            tmp_dir,
        }))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0.tmp_dir);
    }
}

fn run_untraced(env: &Env, mode: &Mode, workload: &str, seed: u64) -> Res<Outcome> {
    match Spec::of(workload, &mode.scale) {
        Some(spec) => workloads::run_untraced(env, &spec, &mode.scale, seed, mode.seconds),
        None if workload == "batch_suite" => {
            batch::run(&mode.scale, seed, mode.seconds, usize::MAX, false)
        }
        None => Err(format!("unknown workload '{workload}'\n{USAGE}")),
    }
}

/// The workload's own traced pass; the caller merges the probes in.
fn run_traced(env: &Env, mode: &Mode, workload: &str, seed: u64) -> Res<Outcome> {
    let outcome = match Spec::of(workload, &mode.scale) {
        Some(spec) => workloads::run_traced(env, &spec, &mode.scale, seed, mode.traced_seconds)?,
        None if workload == "batch_suite" => {
            // One whole suite pass each way, so the counts are complete;
            // set-up time is the untraced run's business.
            let once = Scale {
                batch_setup_reps: 1,
                ..mode.scale.clone()
            };
            let reference = batch::run(&once, seed, f64::INFINITY, 1, false)?;
            let mut traced = batch::run(&once, seed, f64::INFINITY, 1, true)?;
            let (before, after) = (reference.e2e["rows_per_s"], traced.e2e["rows_per_s"]);
            traced
                .layer
                .insert("trace.overhead_pct", 100.0 * (before - after) / before);
            traced
        }
        None => return Err(format!("unknown workload '{workload}'\n{USAGE}")),
    };
    let spans = env.out_dir.join(format!("trace_{workload}.jsonl"));
    workloads::io(
        std::fs::write(spans, trace::to_jsonl(&outcome.spans)),
        "write spans",
    )?;
    Ok(outcome)
}

fn merge_probes(outcome: &mut Outcome, values: &metrics::Values, ops: &workloads::Tally) {
    outcome.layer.extend(values.iter().map(|(k, v)| (*k, *v)));
    outcome.tally.absorb(ops.clone());
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Res<T> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("bad value '{text}' for {name}\n{USAGE}")),
    }
}

fn contract(args: &[String]) -> Res<bool> {
    let workload = flag(args, "--workload").ok_or(USAGE)?;
    let seed: u64 = parsed(args, "--seed", 2001)?;
    let seconds: f64 = parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value '{other}' for --trace\n{USAGE}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    let scratch = Scratch::new()?;
    let (env, mode) = (&scratch.0, Mode::contract(seconds));
    let outcome = if traced {
        let mut outcome = run_traced(env, &mode, workload, seed)?;
        let mut values = metrics::Values::new();
        let ops = probes::all(env, &mode.probes, seed, &mut values)?;
        merge_probes(&mut outcome, &values, &ops);
        report::print_table(workload, &PER_LAYER, &outcome.layer, &outcome);
        outcome
    } else {
        let outcome = run_untraced(env, &mode, workload, seed)?;
        report::print_table(workload, &END_TO_END, &outcome.e2e, &outcome);
        outcome
    };
    println!("{}", report::contract_line(&outcome, traced));
    Ok(outcome.tally.mismatches == 0)
}

fn run_all(args: &[String]) -> Res<bool> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = parsed(args, "--seed", 2001)?;
    let repeat: u64 = parsed(args, "--repeat", 1)?;
    let mode = if smoke {
        Mode::smoke()
    } else {
        Mode::full(parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?)
    };
    let scratch = Scratch::new()?;
    let env = &scratch.0;
    let out_path =
        flag(args, "--out").map_or_else(|| env.out_dir.join("BENCH_loadgen.json"), PathBuf::from);
    let mut runs = Vec::new();
    let mut correct = true;
    for r in 0..repeat {
        let seed = seed + r;
        let mut probe_values = metrics::Values::new();
        let ops = probes::all(env, &mode.probes, seed, &mut probe_values)?;
        let mut workloads_json = Vec::new();
        for (workload, _) in WORKLOADS {
            let untraced = run_untraced(env, &mode, workload, seed)?;
            report::print_table(workload, &END_TO_END, &untraced.e2e, &untraced);
            let mut traced = run_traced(env, &mode, workload, seed)?;
            merge_probes(&mut traced, &probe_values, &ops);
            report::print_table(workload, &PER_LAYER, &traced.layer, &traced);
            correct &= untraced.tally.mismatches + traced.tally.mismatches == 0;
            workloads_json.push((workload, report::workload_json(&untraced, &traced)));
        }
        runs.push(Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("workloads", Json::obj(workloads_json)),
        ]));
    }
    let document = Json::obj([
        ("schema", Json::str("sqlts-loadgen v1")),
        // This benchmark's own change claims no gain.
        ("claim", Json::Null),
        ("smoke", Json::Bool(smoke)),
        ("run_seconds", Json::Num(mode.seconds)),
        ("provenance", report::provenance(&env.out_dir)),
        ("runs", Json::Arr(runs)),
    ]);
    workloads::io(std::fs::write(&out_path, document.pretty()), "write report")?;
    eprintln!("report written to {}", out_path.display());
    Ok(correct)
}

fn compare_files(args: &[String]) -> Res<bool> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let load = |path: &String| -> Res<Json> {
        let text = workloads::io(std::fs::read_to_string(path), path)?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, breached) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(!breached)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("--smoke" | "smoke") => run_all(&["--smoke".to_string()]),
        Some("compare") => compare_files(&args[1..]),
        Some("definition") => {
            print!("{}", metrics::benchmark_json().pretty());
            Ok(true)
        }
        Some("describe") => {
            print!("{}", metrics::describe());
            Ok(true)
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) => contract(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A result or count mismatch: the numbers were printed, but the
        // run must not pass for correct.
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::from(2)
        }
    }
}
