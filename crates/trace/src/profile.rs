//! The merged, machine-readable execution report and its exporters.

use crate::expo::{Exposition, Kind};
use crate::metrics::{BoundedHistogram, ClusterMetrics};
use crate::TraceEvent;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal (appends to
/// `out`, without the surrounding quotes).
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Wall-clock nanoseconds per pipeline phase.  Wall clock is inherently
/// non-deterministic, so these fields are excluded from every
/// bit-identity guarantee; everything else in the profile is exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Lexing + parsing the query text.
    pub parse: u64,
    /// Binding/semantic analysis against the schema.
    pub bind: u64,
    /// Compile-time optimization (θ/φ matrices, shift/next tables).
    pub plan: u64,
    /// `CLUSTER BY` / `SEQUENCE BY` partitioning of the input table
    /// (`Table::cluster_by`).  0 for a streamed run, which admits tuples
    /// to their clusters one at a time.
    pub partition: u64,
    /// Search and projection of every cluster: the wall clock of the
    /// cluster loop (or worker pool), started after the partition and the
    /// plan are in hand.  0 for a streamed run.
    pub execute: u64,
}

impl PhaseNanos {
    /// `(name, nanoseconds)` per phase in pipeline order: the one list the
    /// text, JSON and Prometheus exporters all walk.
    fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("parse", self.parse),
            ("bind", self.bind),
            ("plan", self.plan),
            ("partition", self.partition),
            ("execute", self.execute),
        ]
    }
}

/// The compile-time optimizer report, folded into the profile so one
/// artifact carries both the plan and its runtime consequences (the
/// `explain` text view renders from this same data).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptimizerReport {
    /// One rendered line per pattern element (`p1 *X: X.price > …`).
    pub pattern: Vec<String>,
    /// The 1-based `shift` array.
    pub shift: Vec<usize>,
    /// The 1-based `next` array.
    pub next: Vec<usize>,
    /// Mean shift value (the paper's §8 measure of expected skips).
    pub mean_shift: f64,
    /// Mean next value.
    pub mean_next: f64,
}

impl OptimizerReport {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"pattern\":[");
        for (i, p) in self.pattern.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(p, out);
            out.push('"');
        }
        let _ = write!(
            out,
            "],\"shift\":{:?},\"next\":{:?},\"mean_shift\":{},\"mean_next\":{}}}",
            self.shift, self.next, self.mean_shift, self.mean_next
        );
    }
}

/// One cluster's slice of the execution profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterProfile {
    /// 0-based index in `CLUSTER BY` order.
    pub index: usize,
    /// The cluster's key values rendered for diagnostics (empty when the
    /// query has no `CLUSTER BY`).
    pub key: String,
    /// Input tuples scanned.
    pub tuples: u64,
    /// The cluster's metrics registry.
    pub metrics: ClusterMetrics,
    /// The retained Figure-5 event stream (empty unless tracing was
    /// armed with a capacity).
    pub events: Vec<TraceEvent>,
    /// Events dropped by the bounded recorder.
    pub events_dropped: u64,
}

impl ClusterProfile {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"index\":{},\"key\":\"", self.index);
        json_escape(&self.key, out);
        out.push_str("\",");
        write_metrics_json(out, self.tuples, &self.metrics);
        let _ = write!(out, ",\"events_dropped\":{}", self.events_dropped);
        if !self.events.is_empty() {
            out.push_str(",\"events\":[");
            for (i, e) in self.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                e.write_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }
}

/// `"tuples":…` through the optional `"trip"`: the members a cluster's
/// object and the profile's totals share.
fn write_metrics_json(out: &mut String, tuples: u64, m: &ClusterMetrics) {
    let _ = write!(
        out,
        "\"tuples\":{tuples},\"predicate_tests\":{},\"tests_per_position\":{:?},\
         \"matches\":{},\"governor_flushes\":{}",
        m.total_tests(),
        m.tests_per_position,
        m.matches,
        m.governor_flushes,
    );
    write_hist_json(out, "shift_distances", &m.shifts);
    write_hist_json(out, "backtrack_depths", &m.backtracks);
    if let Some(trip) = m.trip {
        let _ = write!(out, ",\"trip\":\"{trip}\"");
    }
}

fn write_hist_json(out: &mut String, name: &str, h: &BoundedHistogram) {
    let _ = write!(
        out,
        ",\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.max()
    );
    for (i, (bound, count)) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if bound == u64::MAX {
            let _ = write!(out, "[\"inf\",{count}]");
        } else {
            let _ = write!(out, "[{bound},{count}]");
        }
    }
    out.push_str("]}");
}

/// The merged execution profile of one query run: the machine-readable
/// superset of the legacy one-line `--stats` output.
///
/// Built by appending [`ClusterProfile`]s **in cluster order** (the same
/// deterministic merge the executor applies to `EvalCounter` totals), so
/// every field except the wall-clock [`PhaseNanos`] is bit-identical for
/// every thread count.
#[derive(Clone, Debug, Default)]
pub struct ExecutionProfile {
    /// Engine name (`naive`, `backtrack`, `ops`, `shift-only`).
    pub engine: String,
    /// Worker threads configured.
    pub threads: usize,
    /// Per-cluster breakdowns, in cluster order.
    pub clusters: Vec<ClusterProfile>,
    /// Merged metrics across clusters (cluster-order accumulation).
    pub totals: ClusterMetrics,
    /// Total input tuples scanned.
    pub tuples: u64,
    /// Per-phase wall clock (excluded from bit-identity guarantees).
    pub phases: PhaseNanos,
    /// The folded compile-time optimizer report.
    pub optimizer: Option<OptimizerReport>,
}

impl ExecutionProfile {
    /// A profile shell for `engine` running with `threads` workers.
    pub fn new(engine: impl Into<String>, threads: usize) -> ExecutionProfile {
        ExecutionProfile {
            engine: engine.into(),
            threads,
            ..ExecutionProfile::default()
        }
    }

    /// Append one cluster's profile, folding it into the totals.  Must be
    /// called in cluster order to reproduce the sequential merge.
    pub fn push_cluster(&mut self, cluster: ClusterProfile) {
        self.totals.merge(&cluster.metrics);
        self.tuples += cluster.tuples;
        self.clusters.push(cluster);
    }

    /// Total predicate tests — equals the legacy `--stats` number bit for
    /// bit.
    pub fn predicate_tests(&self) -> u64 {
        self.totals.total_tests()
    }

    /// Total matches retained.
    pub fn matches(&self) -> u64 {
        self.totals.matches
    }

    /// The merged event stream: every cluster's retained events, in
    /// cluster order, tagged with the cluster index.
    pub fn merged_events(&self) -> impl Iterator<Item = (usize, &TraceEvent)> {
        self.clusters
            .iter()
            .flat_map(|c| c.events.iter().map(move |e| (c.index, e)))
    }

    /// Human-readable per-cluster breakdown (the `--stats`/`--profile`
    /// text view).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: engine={} threads={} clusters={} tuples={}",
            self.engine,
            self.threads,
            self.clusters.len(),
            self.tuples
        );
        let _ = writeln!(
            out,
            "  total: {} predicate tests, {} matches",
            self.predicate_tests(),
            self.matches()
        );
        let _ = writeln!(
            out,
            "  tests per position: {:?}",
            self.totals.tests_per_position
        );
        if !self.totals.shifts.is_empty() {
            let _ = writeln!(
                out,
                "  shifts: {} taken, mean dist {:.2}, max {}",
                self.totals.shifts.count(),
                self.totals.shifts.mean(),
                self.totals.shifts.max()
            );
        }
        if !self.totals.backtracks.is_empty() {
            let _ = writeln!(
                out,
                "  backtracks: {} episodes, mean depth {:.2}, max {}",
                self.totals.backtracks.count(),
                self.totals.backtracks.mean(),
                self.totals.backtracks.max()
            );
        }
        if self.totals.governor_flushes > 0 {
            let _ = writeln!(out, "  governor flushes: {}", self.totals.governor_flushes);
        }
        if let Some(trip) = self.totals.trip {
            let _ = writeln!(out, "  governor trip: {trip}");
        }
        if self.phases != PhaseNanos::default() {
            let phases = self
                .phases
                .named()
                .map(|(name, ns)| format!("{name} {:.3}ms", ns as f64 / 1e6));
            let _ = writeln!(out, "  phases: {}", phases.join(", "));
        }
        for c in &self.clusters {
            let key = if c.key.is_empty() {
                String::new()
            } else {
                format!(" ({})", c.key)
            };
            let _ = writeln!(
                out,
                "  cluster {}{}: {} tuples, {} tests {:?}, {} matches{}",
                c.index,
                key,
                c.tuples,
                c.metrics.total_tests(),
                c.metrics.tests_per_position,
                c.metrics.matches,
                match c.metrics.trip {
                    Some(t) => format!(", tripped: {t}"),
                    None => String::new(),
                }
            );
        }
        out
    }

    /// The whole profile as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"engine\":\"");
        json_escape(&self.engine, &mut out);
        let _ = write!(
            &mut out,
            "\",\"threads\":{},\"clusters\":{},",
            self.threads,
            self.clusters.len(),
        );
        write_metrics_json(&mut out, self.tuples, &self.totals);
        out.push_str(",\"phases\":{");
        for (i, (name, ns)) in self.phases.named().into_iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(&mut out, "{sep}\"{name}_ns\":{ns}");
        }
        out.push('}');
        if let Some(opt) = &self.optimizer {
            out.push_str(",\"optimizer\":");
            opt.write_json(&mut out);
        }
        out.push_str(",\"cluster_profiles\":[");
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// The merged event stream as JSON-lines (one event object per line,
    /// each tagged with its cluster index) — the `--trace FILE.jsonl`
    /// format.
    ///
    /// The stream always ends with a `{"dropped":N}` trailer summing the
    /// events the bounded recorders discarded.  Without it a truncated
    /// trace is indistinguishable from a complete one — silently wrong in
    /// exactly the runs (long, busy) where tracing matters most.  Readers
    /// treat the trailer as metadata, not an event; `sqlts trace-agg`
    /// surfaces it in the cost tree.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (cluster, event) in self.merged_events() {
            let _ = write!(out, "{{\"cluster\":{cluster},");
            let mut body = String::new();
            event.write_json(&mut body);
            out.push_str(&body[1..]); // splice into the cluster-tagged object
            out.push('\n');
        }
        let dropped: u64 = self.clusters.iter().map(|c| c.events_dropped).sum();
        let _ = writeln!(out, "{{\"dropped\":{dropped}}}");
        out
    }

    /// Prometheus text exposition (metric names are stable API; see the
    /// README's Observability section).
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_labeled(&[])
    }

    /// Prometheus exposition with a base label set attached to every
    /// sample — the server mode uses `[("tenant", id)]` so one scrape can
    /// carry many subscriptions' profiles side by side.  With an empty
    /// slice the output is byte-identical to [`to_prometheus`]; label
    /// values are escaped per the text-format rules.
    ///
    /// [`to_prometheus`]: ExecutionProfile::to_prometheus
    pub fn to_prometheus_labeled(&self, labels: &[(&str, &str)]) -> String {
        let mut w = Exposition::new();
        self.write_prometheus(&mut w, labels);
        w.finish()
    }

    /// Walk the profile's metric table through `w` with `labels` as the
    /// base label set — how the server lays several tenants' profiles
    /// into one `/metrics` document, each family typed once.
    pub fn write_prometheus(&self, w: &mut Exposition, labels: &[(&str, &str)]) {
        w.set_base_labels(labels);
        let totals = &self.totals;
        w.metric(
            "sqlts_predicate_tests_total",
            "",
            Kind::Counter,
            self.predicate_tests(),
        );
        w.declare("sqlts_predicate_tests_by_position", "", Kind::Counter);
        for (j, n) in totals.tests_per_position.iter().enumerate() {
            let position = (j + 1).to_string();
            w.sample(
                "sqlts_predicate_tests_by_position",
                &[("position", &position)],
                n,
            );
        }
        for (name, value) in [
            ("sqlts_matches_total", self.matches()),
            ("sqlts_tuples_total", self.tuples),
            ("sqlts_clusters_total", self.clusters.len() as u64),
            ("sqlts_governor_flushes_total", totals.governor_flushes),
        ] {
            w.metric(name, "", Kind::Counter, value);
        }
        w.histogram("sqlts_shift_distance", &totals.shifts);
        w.histogram("sqlts_backtrack_depth", &totals.backtracks);
        // Untyped: these two series have never carried a type declaration.
        for (phase, ns) in self.phases.named() {
            w.sample("sqlts_phase_seconds", &[("phase", phase)], ns as f64 / 1e9);
        }
        if let Some(trip) = totals.trip {
            w.sample("sqlts_governor_tripped", &[("cause", &trip.to_string())], 1);
        }
        w.set_base_labels(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn fixture_profile() -> ExecutionProfile {
        let mut p = ExecutionProfile::new("ops", 2);
        let mut m = ClusterMetrics::new(2);
        m.tests_per_position = vec![4, 2];
        m.matches = 1;
        m.shifts.record(1);
        p.push_cluster(ClusterProfile {
            index: 0,
            key: "IBM".into(),
            tuples: 5,
            metrics: m,
            events: vec![
                TraceEvent::Advance { i: 1, j: 1 },
                TraceEvent::MatchEmitted { start: 1, end: 2 },
            ],
            events_dropped: 0,
        });
        let mut m2 = ClusterMetrics::new(2);
        m2.tests_per_position = vec![3, 0];
        p.push_cluster(ClusterProfile {
            index: 1,
            key: "MSFT".into(),
            tuples: 3,
            metrics: m2,
            events: vec![TraceEvent::Fail { i: 1, j: 1 }],
            events_dropped: 0,
        });
        p
    }

    #[test]
    fn totals_accumulate_in_cluster_order() {
        let p = fixture_profile();
        assert_eq!(p.predicate_tests(), 9);
        assert_eq!(p.totals.tests_per_position, vec![7, 2]);
        assert_eq!(p.matches(), 1);
        assert_eq!(p.tuples, 8);
    }

    #[test]
    fn json_has_required_keys_and_balances() {
        let p = fixture_profile();
        let json = p.to_json();
        for key in [
            "\"engine\":\"ops\"",
            "\"predicate_tests\":9",
            "\"tests_per_position\":[7, 2]",
            "\"cluster_profiles\":[",
            "\"phases\":",
            "\"key\":\"IBM\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON: {json}");
    }

    #[test]
    fn jsonl_tags_events_with_cluster() {
        let p = fixture_profile();
        let jsonl = p.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], r#"{"cluster":0,"ev":"advance","i":1,"j":1}"#);
        assert_eq!(lines[2], r#"{"cluster":1,"ev":"fail","i":1,"j":1}"#);
        assert_eq!(
            lines[3], r#"{"dropped":0}"#,
            "drop trailer is always present"
        );
    }

    #[test]
    fn jsonl_drop_trailer_sums_cluster_drops() {
        let mut p = fixture_profile();
        p.clusters[0].events_dropped = 7;
        p.clusters[1].events_dropped = 5;
        let jsonl = p.events_jsonl();
        assert_eq!(jsonl.lines().last().unwrap(), r#"{"dropped":12}"#);
    }

    #[test]
    fn empty_profile_exports_are_well_formed() {
        let p = ExecutionProfile::new("ops", 1);
        // Every family is still typed, and both histogram blocks still
        // end with +Inf/sum/count.
        assert_eq!(
            p.to_prometheus(),
            r#"# TYPE sqlts_predicate_tests_total counter
sqlts_predicate_tests_total 0
# TYPE sqlts_predicate_tests_by_position counter
# TYPE sqlts_matches_total counter
sqlts_matches_total 0
# TYPE sqlts_tuples_total counter
sqlts_tuples_total 0
# TYPE sqlts_clusters_total counter
sqlts_clusters_total 0
# TYPE sqlts_governor_flushes_total counter
sqlts_governor_flushes_total 0
# TYPE sqlts_shift_distance histogram
sqlts_shift_distance_bucket{le="+Inf"} 0
sqlts_shift_distance_sum 0
sqlts_shift_distance_count 0
# TYPE sqlts_backtrack_depth histogram
sqlts_backtrack_depth_bucket{le="+Inf"} 0
sqlts_backtrack_depth_sum 0
sqlts_backtrack_depth_count 0
sqlts_phase_seconds{phase="parse"} 0
sqlts_phase_seconds{phase="bind"} 0
sqlts_phase_seconds{phase="plan"} 0
sqlts_phase_seconds{phase="partition"} 0
sqlts_phase_seconds{phase="execute"} 0
"#
        );
        let json = p.to_json();
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count(),
            "unbalanced empty-profile JSON: {json}"
        );
        assert_eq!(p.events_jsonl(), "{\"dropped\":0}\n");
    }

    #[test]
    fn public_histogram_writer_matches_profile_output() {
        let p = fixture_profile();
        let mut w = Exposition::new();
        w.histogram("sqlts_shift_distance", &p.totals.shifts);
        let out = w.finish();
        assert!(
            p.to_prometheus().contains(&out),
            "public writer diverged from the exposition:\n{out}"
        );
    }

    /// `fixture_profile` with every optional series switched on: fixed
    /// phase clocks, a trip, a backtrack histogram that reaches the
    /// overflow bucket.
    fn golden_profile() -> ExecutionProfile {
        let mut p = fixture_profile();
        p.totals.shifts.record(5);
        p.totals.backtracks.record(0);
        p.totals.backtracks.record(3);
        p.totals.backtracks.record(1 << 20);
        p.totals.governor_flushes = 2;
        p.totals.trip = Some(crate::TripCause::StepBudget);
        p.phases = PhaseNanos {
            parse: 1_500,
            bind: 0,
            plan: 250_000,
            partition: 3,
            execute: 2_000_000_000,
        };
        p
    }

    #[test]
    fn prometheus_exposition_names() {
        assert_eq!(
            golden_profile().to_prometheus(),
            r#"# TYPE sqlts_predicate_tests_total counter
sqlts_predicate_tests_total 9
# TYPE sqlts_predicate_tests_by_position counter
sqlts_predicate_tests_by_position{position="1"} 7
sqlts_predicate_tests_by_position{position="2"} 2
# TYPE sqlts_matches_total counter
sqlts_matches_total 1
# TYPE sqlts_tuples_total counter
sqlts_tuples_total 8
# TYPE sqlts_clusters_total counter
sqlts_clusters_total 2
# TYPE sqlts_governor_flushes_total counter
sqlts_governor_flushes_total 2
# TYPE sqlts_shift_distance histogram
sqlts_shift_distance_bucket{le="1"} 1
sqlts_shift_distance_bucket{le="7"} 2
sqlts_shift_distance_bucket{le="+Inf"} 2
sqlts_shift_distance_sum 6
sqlts_shift_distance_count 2
# TYPE sqlts_backtrack_depth histogram
sqlts_backtrack_depth_bucket{le="0"} 1
sqlts_backtrack_depth_bucket{le="3"} 2
sqlts_backtrack_depth_bucket{le="+Inf"} 3
sqlts_backtrack_depth_sum 1048579
sqlts_backtrack_depth_count 3
sqlts_phase_seconds{phase="parse"} 0.0000015
sqlts_phase_seconds{phase="bind"} 0
sqlts_phase_seconds{phase="plan"} 0.00025
sqlts_phase_seconds{phase="partition"} 0.000000003
sqlts_phase_seconds{phase="execute"} 2
sqlts_governor_tripped{cause="step_budget"} 1
"#
        );
    }

    #[test]
    fn prometheus_labeled_exposition() {
        let p = golden_profile();
        // An empty label set must stay byte-identical to the historical
        // unlabeled exposition — dashboards depend on those exact names.
        assert_eq!(p.to_prometheus_labeled(&[]), p.to_prometheus());
        // Backslash, quote and newline in a tenant id must come out as the
        // two-character escapes of the text format: a raw newline would
        // split the sample line and corrupt the whole scrape.
        assert_eq!(
            p.to_prometheus_labeled(&[("tenant", "a\"b\\c\nd")]),
            r#"# TYPE sqlts_predicate_tests_total counter
sqlts_predicate_tests_total{tenant="a\"b\\c\nd"} 9
# TYPE sqlts_predicate_tests_by_position counter
sqlts_predicate_tests_by_position{tenant="a\"b\\c\nd",position="1"} 7
sqlts_predicate_tests_by_position{tenant="a\"b\\c\nd",position="2"} 2
# TYPE sqlts_matches_total counter
sqlts_matches_total{tenant="a\"b\\c\nd"} 1
# TYPE sqlts_tuples_total counter
sqlts_tuples_total{tenant="a\"b\\c\nd"} 8
# TYPE sqlts_clusters_total counter
sqlts_clusters_total{tenant="a\"b\\c\nd"} 2
# TYPE sqlts_governor_flushes_total counter
sqlts_governor_flushes_total{tenant="a\"b\\c\nd"} 2
# TYPE sqlts_shift_distance histogram
sqlts_shift_distance_bucket{tenant="a\"b\\c\nd",le="1"} 1
sqlts_shift_distance_bucket{tenant="a\"b\\c\nd",le="7"} 2
sqlts_shift_distance_bucket{tenant="a\"b\\c\nd",le="+Inf"} 2
sqlts_shift_distance_sum{tenant="a\"b\\c\nd"} 6
sqlts_shift_distance_count{tenant="a\"b\\c\nd"} 2
# TYPE sqlts_backtrack_depth histogram
sqlts_backtrack_depth_bucket{tenant="a\"b\\c\nd",le="0"} 1
sqlts_backtrack_depth_bucket{tenant="a\"b\\c\nd",le="3"} 2
sqlts_backtrack_depth_bucket{tenant="a\"b\\c\nd",le="+Inf"} 3
sqlts_backtrack_depth_sum{tenant="a\"b\\c\nd"} 1048579
sqlts_backtrack_depth_count{tenant="a\"b\\c\nd"} 3
sqlts_phase_seconds{tenant="a\"b\\c\nd",phase="parse"} 0.0000015
sqlts_phase_seconds{tenant="a\"b\\c\nd",phase="bind"} 0
sqlts_phase_seconds{tenant="a\"b\\c\nd",phase="plan"} 0.00025
sqlts_phase_seconds{tenant="a\"b\\c\nd",phase="partition"} 0.000000003
sqlts_phase_seconds{tenant="a\"b\\c\nd",phase="execute"} 2
sqlts_governor_tripped{tenant="a\"b\\c\nd",cause="step_budget"} 1
"#
        );
    }

    #[test]
    fn text_report_mentions_clusters() {
        let p = fixture_profile();
        let text = p.to_text();
        assert!(text.contains("cluster 0 (IBM)"), "{text}");
        assert!(text.contains("9 predicate tests"), "{text}");
    }

    #[test]
    fn json_escape_controls() {
        let mut s = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }
}
