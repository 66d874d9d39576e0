//! What a run prints and writes: the contract's one-line result, the
//! human-readable table, the full JSON report with provenance, and the
//! span artifacts of the traced run.

use crate::json::Json;
use crate::metrics::{self, MetricDef, Values, END_TO_END, PER_LAYER, SPAN_NAMES};
use crate::stats::supported_percentile;
use crate::trace::{self_times_ns, Span};
use crate::workloads::Outcome;
use std::path::Path;
use std::process::Command;

/// Fold spans into `trace.<name>_self_ms`, the measured wall, and how
/// much of it the self times account for.
pub fn span_metrics(spans: &[Span], thread_wall_s: f64, out: &mut Values) {
    let folded = self_times_ns(spans);
    let mut sum_ms = 0.0;
    for name in SPAN_NAMES {
        let ms = folded.get(name).copied().unwrap_or(0) as f64 / 1e6;
        sum_ms += ms;
        let metric = PER_LAYER
            .iter()
            .find(|d| {
                d.name
                    .strip_prefix("trace.")
                    .and_then(|n| n.strip_suffix("_self_ms"))
                    == Some(name)
            })
            .expect("every span name has a self-time metric");
        out.insert(metric.name, ms);
    }
    let wall_ms = thread_wall_s * 1e3;
    out.insert("trace.wall_ms", wall_ms);
    out.insert("trace.self_sum_pct", 100.0 * sum_ms / wall_ms.max(1e-9));
}

/// The contract's last line of standard output.
pub fn contract_line(outcome: &Outcome, traced: bool) -> String {
    let (defs, values): (&[MetricDef], &Values) = if traced {
        (&PER_LAYER, &outcome.layer)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    Json::obj([
        ("correct", Json::Bool(outcome.tally.mismatches == 0)),
        // The contract wants at least one attempted op.
        (
            "attempted",
            Json::Num(outcome.tally.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", metrics::to_json(defs, values)),
    ])
    .encode()
}

/// Name, value and unit of each measured metric, one per line.
pub fn print_table(workload: &str, defs: &[MetricDef], values: &Values, outcome: &Outcome) {
    eprintln!(
        "== {workload}: {} passes, {} latency samples (p{} is the highest percentile they support), {} ops attempted, {} failed, correct={}",
        outcome.passes,
        outcome.samples,
        supported_percentile(outcome.samples).map_or("-".into(), |p| p.to_string()),
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.mismatches == 0,
    );
    for def in defs {
        if let Some(value) = values.get(def.name) {
            eprintln!("  {:<36} {:>16.4} {}", def.name, value, def.unit);
        }
    }
    for note in &outcome.tally.notes {
        eprintln!("  ! {note}");
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// FNV-1a, enough to tell machines apart without recording the id.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The filesystem type of the mount `dir` lives on.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Where and on what the numbers were taken.
pub fn provenance(out_dir: &Path) -> Json {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(unknown);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu)),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "machine_id_hash",
            Json::Str(
                read_trimmed("/etc/machine-id")
                    .map_or_else(unknown, |id| format!("{:016x}", fnv1a(&id))),
            ),
        ),
        ("data_dir_fs", Json::Str(fs_type(out_dir))),
    ])
}

/// One workload's part of the full report.  Open-loop figures are marked
/// `unresolved` when the generator itself ran late.
pub fn workload_json(untraced: &Outcome, traced: &Outcome) -> Json {
    let late = traced
        .layer
        .get("bench.gen_lateness_p95_ms")
        .copied()
        .unwrap_or(0.0)
        > 1.0;
    let unresolved: Vec<Json> = ["ladder.sustainable_rows_per_s", "ladder.paced_ack_p50_ms"]
        .into_iter()
        .filter(|_| late)
        .map(Json::str)
        .collect();
    let mut tally = untraced.tally.clone();
    tally.absorb(traced.tally.clone());
    Json::obj([
        ("correct", Json::Bool(tally.mismatches == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("passes", Json::Num(untraced.passes as f64)),
        ("latency_samples", Json::Num(untraced.samples as f64)),
        (
            "server_argv",
            Json::Arr(untraced.server_argv.iter().map(Json::str).collect()),
        ),
        ("end_to_end", metrics::to_json(&END_TO_END, &untraced.e2e)),
        ("per_layer", metrics::to_json(&PER_LAYER, &traced.layer)),
        ("unresolved", Json::Arr(unresolved)),
        (
            "notes",
            Json::Arr(tally.notes.iter().map(Json::str).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_metrics_report_self_times_and_their_share_of_the_wall() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            frame: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(2, 1, "send", 0, 1_000_000),
            span(3, 1, "await_reply", 1_000_000, 9_000_000),
            span(1, 0, "frame", 0, 10_000_000),
        ];
        let mut out = Values::new();
        span_metrics(&spans, 0.010, &mut out);
        assert_eq!(out["trace.send_self_ms"], 1.0);
        assert_eq!(out["trace.await_reply_self_ms"], 8.0);
        assert_eq!(out["trace.frame_self_ms"], 1.0);
        assert_eq!(out["trace.restart_self_ms"], 0.0);
        assert!((out["trace.self_sum_pct"] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut outcome = Outcome::default();
        for def in &END_TO_END {
            outcome.e2e.insert(def.name, 1.5);
        }
        let line = Json::parse(&contract_line(&outcome, false)).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().fields().len(),
            END_TO_END.len()
        );
        let traced = Json::parse(&contract_line(&outcome, true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().fields().len(),
            PER_LAYER.len()
        );
    }
}
