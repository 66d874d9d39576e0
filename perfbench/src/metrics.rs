//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics.  `BENCHMARK.json` at the repo
//! root is generated from these tables (`loadgen definition`) and a unit
//! test keeps the committed file equal to them.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The value is a deterministic count for a given seed: `compare`
    /// requires equality, not closeness.
    pub exact: bool,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact,
        what,
    }
}

use Better::{Higher, Lower};

/// `(name, why)`; the why is recorded in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "solo_mem",
        "in-memory server, 1 feeder, 1 subscription, 100-row frames: frame codec, dispatch, row parse, one worker hand-off and the reply path do all the work; WAL, fan-out width and the shared memo do none",
    ),
    (
        "fanout_shared",
        "in-memory server with --shared-matcher on, 8 prefix-sharing subscriptions: per-(row, subscriber) hand-off, thread wake-ups and the shared memo dominate; per-frame fixed costs are amortised 8x",
    ),
    (
        "durable_crash",
        "--data-dir --fsync every, 2 feeders, SIGKILL at 4 fixed frame ordinals and recovery: WAL append, fsync, persist-lock contention, snapshot stalls and replay dominate; the WAL is read as well as written",
    ),
    (
        "batch_suite",
        "no server: single-threaded in-process compile + execute of the paper's pattern sweep and the double-bottom query; core and lang do everything, so a server-only change must not move it",
    ),
];

pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25,
        "data generation + server spawn to `listening on` + OPEN/SUBSCRIBE (batch_suite: generation + CSV to Table load); median of several set-ups per run"),
    e2e("rows_per_s", "rows/s", Higher, 0.25,
        "acked rows / wall from first FEED sent to last RESULT fully read, restart gaps excluded (batch_suite: rows scanned / sum over queries of compile + execute + render wall, each query's lower quartile over the passes)"),
    e2e("op_p50_ms", "ms", Lower, 0.25,
        "median FEED send-start to reply fully read, per frame (batch_suite: median over the suite's queries of that per-query wall)"),
    e2e("op_p95_ms", "ms", Lower, 0.25,
        "95th percentile of the same samples (batch_suite: of the per-query walls, i.e. the slowest query)"),
    e2e("peak_rss_mb", "MiB", Lower, 0.15,
        "server child VmHWM right after the first pass's last RESULT (batch_suite: this process's)"),
];

pub const SPAN_NAMES: [&str; 11] = [
    "frame",
    "gen",
    "encode",
    "send",
    "await_reply",
    "read_result",
    "verify",
    "restart",
    "compile",
    "execute",
    "render",
];

pub const PER_LAYER: [MetricDef; 66] = [
    // In-process probes: public functions of relation/lang/core timed
    // directly, no sockets.  Identical on every workload.
    layer(
        "relation.parse_row_ns",
        "ns",
        Lower,
        false,
        "parse_headerless_row per row",
    ),
    layer(
        "relation.csv_load_rows_per_s",
        "rows/s",
        Higher,
        false,
        "Table::from_csv_str",
    ),
    layer(
        "relation.cluster_by_ns_per_row",
        "ns",
        Lower,
        false,
        "Table::cluster_by(name; date) per row",
    ),
    layer(
        "lang.compile_risefall_us",
        "us",
        Lower,
        false,
        "compile(Q_RISEFALL)",
    ),
    layer(
        "lang.compile_double_bottom_us",
        "us",
        Lower,
        false,
        "compile(DOUBLE_BOTTOM)",
    ),
    layer(
        "core.optimizer_us",
        "us",
        Lower,
        false,
        "profile plan_ns of DOUBLE_BOTTOM under OPS",
    ),
    layer(
        "core.batch_exec_ns_per_row.ops",
        "ns",
        Lower,
        false,
        "execute star-overlap-3 per row scanned, OPS",
    ),
    layer(
        "core.batch_exec_ns_per_row.naive",
        "ns",
        Lower,
        false,
        "same, naive engine",
    ),
    layer(
        "core.exec_ns_per_test",
        "ns",
        Lower,
        false,
        "OPS execute wall / predicate tests",
    ),
    layer(
        "core.predicate_tests.ops",
        "count",
        Lower,
        true,
        "predicate tests of that run, OPS",
    ),
    layer(
        "core.predicate_tests.naive",
        "count",
        Lower,
        true,
        "predicate tests of that run, naive",
    ),
    layer(
        "core.ops_speedup_tests",
        "x",
        Higher,
        true,
        "naive / OPS predicate tests (the paper's figure of merit)",
    ),
    layer(
        "core.stream_feed_ns_per_row",
        "ns",
        Lower,
        false,
        "StreamSession::feed per row, Q_RISEFALL",
    ),
    layer(
        "core.stream_finish_ms",
        "ms",
        Lower,
        false,
        "StreamSession::finish after that feed",
    ),
    layer(
        "core.worker_feed_ns_per_row",
        "ns",
        Lower,
        false,
        "SessionWorker::feed per row (adds the thread hand-off)",
    ),
    layer(
        "core.worker_handoff_ns_per_row",
        "ns",
        Lower,
        false,
        "worker_feed - stream_feed",
    ),
    layer(
        "core.set8_feed_ns_per_row",
        "ns",
        Lower,
        false,
        "SharedStreamSession of the 8-query family, per row",
    ),
    layer(
        "core.solo8_feed_ns_per_row",
        "ns",
        Lower,
        false,
        "eight solo StreamSessions, per row",
    ),
    layer(
        "core.set1_feed_ns_per_row",
        "ns",
        Lower,
        false,
        "SharedStreamSession of one query, per row",
    ),
    layer(
        "core.set_tests_logical",
        "count",
        Lower,
        true,
        "family predicate tests asked for",
    ),
    layer(
        "core.set_tests_evaluated",
        "count",
        Lower,
        true,
        "family predicate tests physically evaluated",
    ),
    layer(
        "core.set_share_ratio",
        "x",
        Lower,
        true,
        "evaluated / logical",
    ),
    layer(
        "core.snapshot_us",
        "us",
        Lower,
        false,
        "StreamSession::snapshot + to_text at 10k rows",
    ),
    layer(
        "core.checkpoint_bytes_at_10k",
        "B",
        Lower,
        true,
        "checkpoint text size after 10k rows",
    ),
    layer(
        "core.checkpoint_bytes_at_40k",
        "B",
        Lower,
        true,
        "checkpoint text size after 40k rows",
    ),
    layer(
        "core.window_bytes",
        "B",
        Lower,
        true,
        "StreamSession::window_bytes after 40k rows",
    ),
    // Wire probes against a spawned server.  Identical on every workload.
    layer(
        "server.ping_rtt_p50_us",
        "us",
        Lower,
        false,
        "PING round trip: frame decode + dispatch + reply write",
    ),
    layer(
        "server.feed_nosub_p50_us",
        "us",
        Lower,
        false,
        "100-row FEED to a channel with no subscription: decode + row parse",
    ),
    layer(
        "server.feed_nosub_durable_p50_us",
        "us",
        Lower,
        false,
        "same with --data-dir --fsync every: + WAL append + fsync",
    ),
    layer(
        "server.subscribe_ms",
        "ms",
        Lower,
        false,
        "SUBSCRIBE round trip",
    ),
    layer(
        "cli.serve_start_ms",
        "ms",
        Lower,
        false,
        "exec of `sqlts serve` to its `listening on` line",
    ),
    layer(
        "server.unsubscribe_ms",
        "ms",
        Lower,
        false,
        "UNSUBSCRIBE round trip incl. reading the RESULT",
    ),
    layer(
        "server.checkpoint_rtt_ms",
        "ms",
        Lower,
        false,
        "CHECKPOINT round trip",
    ),
    // Open-loop rate ladder on the solo_mem configuration, 10-row frames.
    layer(
        "ladder.sustainable_rows_per_s",
        "rows/s",
        Higher,
        false,
        "rows/s of the highest passing rate step (0 if none)",
    ),
    layer(
        "ladder.paced_ack_p50_ms",
        "ms",
        Lower,
        false,
        "median from-due latency at 10 frames/s: unloaded single-frame latency",
    ),
    layer(
        "bench.gen_lateness_p95_ms",
        "ms",
        Lower,
        false,
        "how late the open-loop generator itself sent, over the passing steps",
    ),
    // The workload's own traced pass: production counters scraped from
    // /metrics outside any timed window.  0 = the layer did no work here.
    layer(
        "server.frame_decode_us_mean",
        "us",
        Lower,
        false,
        "frame decode histogram mean",
    ),
    layer(
        "server.wal_append_us_mean",
        "us",
        Lower,
        false,
        "WAL append histogram mean (fsync excluded)",
    ),
    layer(
        "server.fsync_us_mean",
        "us",
        Lower,
        false,
        "fsync histogram mean",
    ),
    layer(
        "server.fanout_us_mean",
        "us",
        Lower,
        false,
        "fan-out histogram mean",
    ),
    layer(
        "server.snapshot_us_mean",
        "us",
        Lower,
        false,
        "snapshot pass histogram mean",
    ),
    layer("server.wal_appends", "count", Lower, false, "WAL appends"),
    layer("server.wal_fsyncs", "count", Lower, false, "WAL fsyncs"),
    layer(
        "server.snapshots",
        "count",
        Lower,
        false,
        "subscription snapshots written",
    ),
    layer(
        "server.wal_truncations",
        "count",
        Lower,
        false,
        "WAL truncations",
    ),
    layer(
        "server.rows_fed",
        "count",
        Lower,
        false,
        "rows x subscribers fanned out (incl. recovery replay)",
    ),
    layer(
        "server.wal_bytes_per_row",
        "B",
        Lower,
        false,
        "data-dir bytes / acked rows before UNSUBSCRIBE",
    ),
    layer(
        "server.unattributed_pct",
        "%",
        Lower,
        false,
        "share of op_p50_ms not covered by decode + wal_append + fsync + fanout means",
    ),
    layer(
        "server.recovery_p50_ms",
        "ms",
        Lower,
        false,
        "restart exec to first PING OK on the recovered dir",
    ),
    layer(
        "bench.restart_gap_ms",
        "ms",
        Lower,
        false,
        "last ack before a kill to first FEED after it, median",
    ),
    layer(
        "batch.predicate_tests",
        "count",
        Lower,
        true,
        "sum of OPS predicate tests over the suite (the paper's cost metric)",
    ),
    layer(
        "batch.naive_predicate_tests",
        "count",
        Lower,
        true,
        "sum of naive predicate tests over the suite",
    ),
    // Harness spans of the traced pass.
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        false,
        "rows_per_s lost with spans recorded and the server's --log armed",
    ),
    layer(
        "trace.wall_ms",
        "ms",
        Lower,
        false,
        "measured wall of the traced pass, summed over client threads",
    ),
    layer(
        "trace.self_sum_pct",
        "%",
        Higher,
        false,
        "sum of span self times / that wall (must be within 5 of 100)",
    ),
    layer(
        "trace.frame_self_ms",
        "ms",
        Lower,
        false,
        "self time: per-frame loop overhead",
    ),
    layer(
        "trace.gen_self_ms",
        "ms",
        Lower,
        false,
        "self time: building payloads",
    ),
    layer(
        "trace.encode_self_ms",
        "ms",
        Lower,
        false,
        "self time: frame encoding",
    ),
    layer(
        "trace.send_self_ms",
        "ms",
        Lower,
        false,
        "self time: socket writes",
    ),
    layer(
        "trace.await_reply_self_ms",
        "ms",
        Lower,
        false,
        "self time: blocked on FEED replies",
    ),
    layer(
        "trace.read_result_self_ms",
        "ms",
        Lower,
        false,
        "self time: blocked on RESULT replies",
    ),
    layer(
        "trace.verify_self_ms",
        "ms",
        Lower,
        false,
        "self time: batch reference + comparison",
    ),
    layer(
        "trace.restart_self_ms",
        "ms",
        Lower,
        false,
        "self time: kill, restart, recovery wait",
    ),
    layer(
        "trace.compile_self_ms",
        "ms",
        Lower,
        false,
        "self time: compile (batch_suite)",
    ),
    layer(
        "trace.execute_self_ms",
        "ms",
        Lower,
        false,
        "self time: execute (batch_suite)",
    ),
    layer(
        "trace.render_self_ms",
        "ms",
        Lower,
        false,
        "self time: to_csv_string (batch_suite)",
    ),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": u}}` for every metric of `defs`, in
/// definition order.  A per-layer metric nobody measured reads 0 (its
/// layer did no work); a missing end-to-end metric is a bug.
pub fn to_json(defs: &[MetricDef], values: &Values) -> Json {
    Json::obj(defs.iter().map(|def| {
        let value = match (values.get(def.name), def.bound) {
            (Some(v), _) => *v,
            (None, None) => 0.0,
            (None, Some(_)) => panic!("end-to-end metric {} was not measured", def.name),
        };
        (
            def.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        )
    }))
}

/// The metric tables as markdown, for `perfbench/README.md`.
pub fn describe() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let bound = match (def.bound, def.exact) {
            (Some(b), _) => format!("{:.0} %", b * 100.0),
            (None, true) => "exact".into(),
            (None, false) => "-".into(),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            def.name,
            def.unit,
            def.better.as_str(),
            bound,
            def.what
        ));
    }
    out
}

pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |def: &MetricDef| {
        let mut fields = vec![
            ("name", Json::str(def.name)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.as_str())),
        ];
        if let Some(bound) = def.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("perfbench/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("perfbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn find(name: &str) -> Option<&'static MetricDef> {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|m| m.name == name)
    }

    #[test]
    fn definition_meets_the_contract_limits() {
        let mut seen = HashSet::new();
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(def.name) && seen.insert(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{}: unit {}", def.name, def.unit);
        }
        for def in &END_TO_END {
            assert!(
                matches!(def.bound, Some(b) if b > 0.0 && b <= 0.25),
                "{}",
                def.name
            );
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && benchmark_json().pretty().len() < 64 * 1024);
        for span in SPAN_NAMES {
            assert!(find(&format!("trace.{span}_self_ms")).is_some(), "{span}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `loadgen definition > BENCHMARK.json`"
        );
    }

    #[test]
    fn unmeasured_per_layer_metrics_read_zero() {
        let mut values = Values::new();
        values.insert("server.wal_appends", 3.0);
        let json = to_json(&PER_LAYER, &values);
        assert_eq!(
            json.path(&["server.wal_appends", "value"])
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            json.path(&["server.fsync_us_mean", "value"])
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            json.path(&["server.fsync_us_mean", "unit"])
                .and_then(Json::as_str),
            Some("us")
        );
        assert_eq!(json.fields().len(), PER_LAYER.len());
    }
}
