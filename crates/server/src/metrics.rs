//! Server-level counters and the two HTTP documents built from them:
//! the Prometheus text exposition at `GET /metrics` and the JSON at
//! `GET /status`.
//!
//! Every family is declared once, as a row of a table in this file
//! ([`LATENCY_OPS`], [`COUNTERS`], [`SUB_GAUGES`], [`REPL`]);
//! [`metrics_text`] walks the tables — and the finished subscriptions'
//! [`ExecutionProfile`]s and the shared [`PatternSetStats`], which carry
//! their own — through one [`Exposition`], and [`status_json`] reads its
//! keys from the same rows with the `sqlts_server_` prefix stripped.

use crate::replicate::ReplSnapshot;
use sqlts_trace::{
    json_escape, BoundedHistogram, ExecutionProfile, Exposition, Kind, PatternSetStats,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A server hot-path operation with its own latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyOp {
    /// One WAL record append (excluding any fsync it triggered).
    WalAppend,
    /// One `fsync(2)` against a channel WAL.
    Fsync,
    /// One frame decode, from first header byte to parsed payload.
    FrameDecode,
    /// One live FEED frame's payload lines typed into rows.
    RowParse,
    /// One FEED frame's fan-out loop across a channel's session groups.
    Fanout,
    /// One session group's share of a FEED frame's fan-out: the rows
    /// admitted once and driven through every member seated there.
    SessionDrive,
    /// One channel snapshot pass (every subscription checkpointed).
    Snapshot,
}

/// Every [`LatencyOp`] with its name stem, in declaration order (a row's
/// position is its histogram's slot).  `/status` keys the op
/// `<stem>_micros`; `/metrics` names it `sqlts_server_<stem>_micros`.
const LATENCY_OPS: [(LatencyOp, &str); 7] = [
    (LatencyOp::WalAppend, "wal_append"),
    (LatencyOp::Fsync, "fsync"),
    (LatencyOp::FrameDecode, "frame_decode"),
    (LatencyOp::RowParse, "row_parse"),
    (LatencyOp::Fanout, "fanout"),
    (LatencyOp::SessionDrive, "session_drive"),
    (LatencyOp::Snapshot, "snapshot"),
];

/// Power-of-two latency histograms (microsecond buckets) for the
/// hot-path operations, reusing the query profiles' [`BoundedHistogram`]
/// so server latencies and engine shift-distances share one exposition
/// shape.  Each record is one short uncontended mutex acquisition —
/// the recording sites already hold (or just released) the channel
/// persist lock, so this adds no new contention edge.
#[derive(Debug, Default)]
pub struct LatencyHistograms {
    hists: [Mutex<BoundedHistogram>; LATENCY_OPS.len()],
}

impl LatencyHistograms {
    /// Record one operation's duration (nanoseconds; bucketed in µs).
    pub fn record_ns(&self, op: LatencyOp, ns: u64) {
        if let Ok(mut h) = self.hists[op as usize].lock() {
            h.record(ns / 1_000);
        }
    }

    /// A snapshot of one operation's histogram.
    pub fn snapshot(&self, op: LatencyOp) -> BoundedHistogram {
        self.hists[op as usize]
            .lock()
            .map(|h| h.clone())
            .unwrap_or_default()
    }
}

/// Monotonic server counters (all `Relaxed`: scrape-grade accuracy).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// TCP connections accepted (protocol and HTTP alike).
    pub connections_total: AtomicU64,
    /// Protocol frames decoded, well-formed or not.
    pub frames_total: AtomicU64,
    /// Frames answered with `ERR` (any code).
    pub errors_total: AtomicU64,
    /// Subscriptions ever admitted (SUBSCRIBE + RESUME).
    pub subscriptions_total: AtomicU64,
    /// Input rows delivered to workers (rows × subscribers).
    pub rows_fed_total: AtomicU64,
    /// FEED frames appended to a channel WAL (`--data-dir` only).
    pub wal_appends_total: AtomicU64,
    /// fsyncs issued against channel WALs.
    pub wal_fsyncs_total: AtomicU64,
    /// WAL truncations past the snapshot low-water mark.
    pub wal_truncations_total: AtomicU64,
    /// Subscription checkpoint snapshots written to disk.
    pub snapshots_total: AtomicU64,
    /// Subscriptions respawned from snapshots at startup recovery.
    pub recovered_subscriptions_total: AtomicU64,
    /// Replication frames a standby accepted and appended.
    pub repl_frames_received_total: AtomicU64,
    /// Replication frames a standby rejected (bad CRC, malformed rows,
    /// sequence gaps).
    pub repl_rejected_frames_total: AtomicU64,
    /// Successful standby promotions on this server.
    pub repl_promotions_total: AtomicU64,
    /// Hot-path latency histograms (µs buckets).
    pub latency: LatencyHistograms,
    finished: Mutex<Vec<(String, Box<ExecutionProfile>)>>,
    retain_profiles: usize,
}

/// One [`ServerMetrics`] counter: exposition name, help text, whether
/// `/status` lists it, and the field.
type CounterRow = (
    &'static str,
    &'static str,
    bool,
    fn(&ServerMetrics) -> &AtomicU64,
);

#[rustfmt::skip] // a table: one metric per row
const COUNTERS: [CounterRow; 13] = [
    ("sqlts_server_connections_total", "TCP connections accepted", true, |m| &m.connections_total),
    ("sqlts_server_frames_total", "protocol frames decoded", true, |m| &m.frames_total),
    ("sqlts_server_errors_total", "frames answered with ERR", true, |m| &m.errors_total),
    ("sqlts_server_subscriptions_total", "subscriptions admitted", true, |m| &m.subscriptions_total),
    ("sqlts_server_rows_fed_total", "rows delivered to workers", true, |m| &m.rows_fed_total),
    ("sqlts_server_wal_appends_total", "FEED frames appended to channel WALs", true, |m| &m.wal_appends_total),
    ("sqlts_server_wal_fsyncs_total", "fsyncs issued against channel WALs", true, |m| &m.wal_fsyncs_total),
    ("sqlts_server_wal_truncations_total", "WAL truncations past the snapshot low-water mark", false, |m| &m.wal_truncations_total),
    ("sqlts_server_snapshots_total", "subscription checkpoint snapshots written", true, |m| &m.snapshots_total),
    ("sqlts_server_recovered_subscriptions_total", "subscriptions respawned from snapshots at recovery", false, |m| &m.recovered_subscriptions_total),
    ("sqlts_repl_frames_received_total", "replication frames accepted and appended (standby)", false, |m| &m.repl_frames_received_total),
    ("sqlts_repl_rejected_frames_total", "replication frames rejected (crc, malformed, gap)", false, |m| &m.repl_rejected_frames_total),
    ("sqlts_repl_promotions_total", "standby promotions completed", false, |m| &m.repl_promotions_total),
];

/// Reads one sample's value off a snapshot.
type Read<T> = fn(&T) -> u64;

/// The live per-subscription gauges, each labeled `tenant="<sub id>"`.
const SUB_GAUGES: [(&str, Read<SubStatusView>); 5] = [
    ("sqlts_sub_records", |v| v.status.records),
    ("sqlts_sub_skipped", |v| v.status.skipped),
    ("sqlts_sub_quarantined", |v| v.status.quarantined as u64),
    ("sqlts_sub_tripped", |v| u64::from(v.status.trip.is_some())),
    ("sqlts_sub_queue_depth", |v| v.queue_depth),
];

/// The primary-side replication block, emitted only when
/// `--replicate-to` is configured (the standby-side counters are
/// [`COUNTERS`] rows and render unconditionally).  `/status` lists the
/// rows after `connected` under the name minus `sqlts_repl_` / `_total`.
#[rustfmt::skip] // a table: one metric per row
const REPL: [(&str, &str, Kind, Read<ReplSnapshot>); 7] = [
    ("sqlts_repl_connected", "a shipping session to the standby is live", Kind::Gauge, |s| u64::from(s.connected)),
    ("sqlts_repl_lag_rows", "rows committed locally but not standby-acked", Kind::Gauge, |s| s.lag_rows),
    ("sqlts_repl_frames_sent_total", "WAL frames shipped to the standby", Kind::Counter, |s| s.frames_sent),
    ("sqlts_repl_acks_total", "standby frame acknowledgements received", Kind::Counter, |s| s.acks),
    ("sqlts_repl_resyncs_total", "shipping sessions established (each starts with a resync)", Kind::Counter, |s| s.resyncs),
    ("sqlts_repl_send_errors_total", "failed ships (each costs the session)", Kind::Counter, |s| s.send_errors),
    ("sqlts_repl_sync_degraded_total", "sync-ack FEEDs that degraded to async", Kind::Counter, |s| s.sync_degraded),
];

impl ServerMetrics {
    /// A fresh registry retaining at most `retain_profiles` finished
    /// subscription profiles (oldest evicted first).
    pub fn new(retain_profiles: usize) -> ServerMetrics {
        ServerMetrics {
            retain_profiles,
            ..ServerMetrics::default()
        }
    }

    /// Bump a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Retain a finished subscription's profile for future scrapes.
    pub fn retain_profile(&self, tenant: &str, profile: Box<ExecutionProfile>) {
        if self.retain_profiles == 0 {
            return;
        }
        let Ok(mut slot) = self.finished.lock() else {
            return;
        };
        if slot.len() == self.retain_profiles {
            slot.remove(0);
        }
        slot.push((tenant.to_string(), profile));
    }
}

/// Build the whole `GET /metrics` document: server counters and latency
/// histograms, the gauges of every live subscription, the retained
/// finished profiles (tenant-labeled), then the optional shared
/// pattern-set and primary-side replication blocks and the standby gauge.
pub fn metrics_text(
    metrics: &ServerMetrics,
    subs: &[SubStatusView],
    set: Option<&PatternSetStats>,
    repl: Option<&ReplSnapshot>,
    standby: bool,
) -> String {
    let mut w = Exposition::new();
    for (name, help, _, field) in COUNTERS {
        let value = field(metrics).load(Ordering::Relaxed);
        w.metric(name, help, Kind::Counter, value);
    }
    for (op, stem) in LATENCY_OPS {
        w.histogram(
            &format!("sqlts_server_{stem}_micros"),
            &metrics.latency.snapshot(op),
        );
    }
    // Typed up front, so a scrape names the families even with no
    // subscription live.
    for (name, _) in SUB_GAUGES {
        w.declare(name, "", Kind::Gauge);
    }
    for sub in subs {
        for (name, value) in SUB_GAUGES {
            w.sample(name, &[("tenant", &sub.id)], value(sub));
        }
    }
    if let Ok(finished) = metrics.finished.lock() {
        for (tenant, profile) in finished.iter() {
            profile.write_prometheus(&mut w, &[("tenant", tenant)]);
        }
    }
    if let Some(set) = set {
        set.write_prometheus(&mut w);
    }
    if let Some(snap) = repl {
        for (name, help, kind, value) in REPL {
            w.metric(name, help, kind, value(snap));
        }
    }
    w.metric(
        "sqlts_standby",
        "server is an unpromoted warm standby",
        Kind::Gauge,
        u8::from(standby),
    );
    w.finish()
}

/// One subscription's row in the `/metrics` and `/status` documents —
/// the live registry view, assembled by the server under its locks.
#[derive(Debug)]
pub struct SubStatusView {
    /// The subscription id.
    pub id: String,
    /// The channel it consumes.
    pub channel: String,
    /// The worker's point-in-time session status.
    pub status: sqlts_core::SessionStatus,
    /// Callers waiting for the session right now.
    pub queue_depth: u64,
}

/// Render the `GET /status` JSON document: server counters, latency
/// summaries (count/sum/max per op, µs), replication health, and one
/// object per live subscription.  Hand-rolled flat JSON, same as every
/// other JSON exporter in the workspace.
pub fn status_json(
    metrics: &ServerMetrics,
    subs: &[SubStatusView],
    draining: bool,
    standby: bool,
    repl: Option<&ReplSnapshot>,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"draining\":{draining},\"standby\":{standby}");
    for (name, _, _, field) in COUNTERS.iter().filter(|row| row.2) {
        let key = name.trim_start_matches("sqlts_server_");
        let value = field(metrics).load(Ordering::Relaxed);
        let _ = write!(out, ",\"{key}\":{value}");
    }
    if let Some(snap) = repl {
        let _ = write!(
            out,
            ",\"replication\":{{\"connected\":{},\"sync\":{}",
            snap.connected, snap.sync
        );
        for (name, _, _, value) in &REPL[1..] {
            let key = name
                .trim_start_matches("sqlts_repl_")
                .trim_end_matches("_total");
            let _ = write!(out, ",\"{key}\":{}", value(snap));
        }
        out.push('}');
    }
    out.push_str(",\"latency\":{");
    for (i, (op, stem)) in LATENCY_OPS.into_iter().enumerate() {
        let h = metrics.latency.snapshot(op);
        let _ = write!(
            out,
            "{}\"{stem}_micros\":{{\"count\":{},\"sum\":{},\"max\":{}}}",
            if i > 0 { "," } else { "" },
            h.count(),
            h.sum(),
            h.max()
        );
    }
    out.push_str("},\"subscriptions\":[");
    for (i, sub) in subs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":\"");
        json_escape(&sub.id, &mut out);
        out.push_str("\",\"channel\":\"");
        json_escape(&sub.channel, &mut out);
        let _ = write!(
            out,
            "\",\"records\":{},\"skipped\":{},\"quarantined\":{},\"window_bytes\":{},\
             \"queue_depth\":{},\"poisoned\":{}",
            sub.status.records,
            sub.status.skipped,
            sub.status.quarantined,
            sub.status.window_bytes,
            sub.queue_depth,
            sub.status.poisoned,
        );
        match &sub.status.trip {
            Some(trip) => {
                out.push_str(",\"trip\":\"");
                json_escape(&trip.to_string(), &mut out);
                out.push_str("\"}");
            }
            None => out.push_str(",\"trip\":null}"),
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_trace::{ClusterMetrics, ClusterProfile};

    /// Fixed counters and latencies; the two finished tenant profiles
    /// exercise the once-per-document `# TYPE` rule.
    fn golden_metrics() -> ServerMetrics {
        let metrics = ServerMetrics::new(4);
        ServerMetrics::inc(&metrics.connections_total);
        ServerMetrics::add(&metrics.frames_total, 12);
        ServerMetrics::add(&metrics.errors_total, 2);
        ServerMetrics::add(&metrics.subscriptions_total, 3);
        ServerMetrics::add(&metrics.rows_fed_total, 4_000);
        ServerMetrics::add(&metrics.wal_appends_total, 40);
        ServerMetrics::add(&metrics.wal_fsyncs_total, 41);
        ServerMetrics::add(&metrics.wal_truncations_total, 5);
        ServerMetrics::add(&metrics.snapshots_total, 6);
        ServerMetrics::add(&metrics.recovered_subscriptions_total, 7);
        ServerMetrics::add(&metrics.repl_frames_received_total, 8);
        ServerMetrics::add(&metrics.repl_rejected_frames_total, 9);
        ServerMetrics::add(&metrics.repl_promotions_total, 10);
        metrics.latency.record_ns(LatencyOp::WalAppend, 3_000);
        metrics.latency.record_ns(LatencyOp::WalAppend, 9_000);
        metrics.latency.record_ns(LatencyOp::Fsync, 1_500_000);
        metrics.latency.record_ns(LatencyOp::FrameDecode, 999);
        metrics.latency.record_ns(LatencyOp::RowParse, 131_000);
        metrics
            .latency
            .record_ns(LatencyOp::Snapshot, 70_000_000_000);
        let mut finished = ExecutionProfile::new("ops", 2);
        let mut m = ClusterMetrics::new(2);
        m.tests_per_position = vec![4, 2];
        m.matches = 1;
        m.shifts.record(1);
        finished.push_cluster(ClusterProfile {
            index: 0,
            key: "IBM".into(),
            tuples: 5,
            metrics: m,
            events: Vec::new(),
            events_dropped: 0,
        });
        metrics.retain_profile("a", Box::new(finished));
        metrics.retain_profile("b", Box::new(ExecutionProfile::new("naive", 1)));
        metrics
    }

    /// Two live subscriptions; the first id needs every label and JSON
    /// escape there is.
    fn golden_subs() -> Vec<SubStatusView> {
        vec![
            SubStatusView {
                id: "a\"b\\c\nd".into(),
                channel: "nyse".into(),
                status: sqlts_core::SessionStatus {
                    records: 40,
                    skipped: 2,
                    quarantined: 1,
                    window_bytes: 512,
                    predicate_tests: 900,
                    trip: None,
                    poisoned: false,
                },
                queue_depth: 3,
            },
            SubStatusView {
                id: "s2".into(),
                channel: "nyse".into(),
                status: sqlts_core::SessionStatus {
                    records: 7,
                    skipped: 0,
                    quarantined: 0,
                    window_bytes: 64,
                    predicate_tests: 11,
                    trip: Some(sqlts_core::Trip {
                        reason: sqlts_core::TripReason::StepBudget,
                        steps: 11,
                        matches: 0,
                        elapsed: std::time::Duration::from_micros(2_500),
                    }),
                    poisoned: true,
                },
                queue_depth: 0,
            },
        ]
    }

    fn golden_set() -> PatternSetStats {
        let mut set = PatternSetStats {
            queries: 2,
            groups: 1,
            solo: 0,
            classes: 3,
            trie_nodes: 5,
            implication_edges: 2,
            tests_logical: 911,
            tests_evaluated: 241,
            tests_saved: 670,
            tests_shared: 640,
            ..PatternSetStats::default()
        };
        set.shared_prefix_depth.record(2);
        set
    }

    fn golden_repl() -> ReplSnapshot {
        ReplSnapshot {
            configured: true,
            connected: true,
            sync: true,
            frames_sent: 9,
            acks: 8,
            resyncs: 1,
            send_errors: 0,
            sync_degraded: 2,
            lag_rows: 3,
        }
    }

    #[test]
    fn type_lines_are_deduped_across_finished_profiles() {
        let out = metrics_text(
            &golden_metrics(),
            &golden_subs(),
            Some(&golden_set()),
            Some(&golden_repl()),
            true,
        );
        assert_eq!(
            out,
            r#"# HELP sqlts_server_connections_total TCP connections accepted
# TYPE sqlts_server_connections_total counter
sqlts_server_connections_total 1
# HELP sqlts_server_frames_total protocol frames decoded
# TYPE sqlts_server_frames_total counter
sqlts_server_frames_total 12
# HELP sqlts_server_errors_total frames answered with ERR
# TYPE sqlts_server_errors_total counter
sqlts_server_errors_total 2
# HELP sqlts_server_subscriptions_total subscriptions admitted
# TYPE sqlts_server_subscriptions_total counter
sqlts_server_subscriptions_total 3
# HELP sqlts_server_rows_fed_total rows delivered to workers
# TYPE sqlts_server_rows_fed_total counter
sqlts_server_rows_fed_total 4000
# HELP sqlts_server_wal_appends_total FEED frames appended to channel WALs
# TYPE sqlts_server_wal_appends_total counter
sqlts_server_wal_appends_total 40
# HELP sqlts_server_wal_fsyncs_total fsyncs issued against channel WALs
# TYPE sqlts_server_wal_fsyncs_total counter
sqlts_server_wal_fsyncs_total 41
# HELP sqlts_server_wal_truncations_total WAL truncations past the snapshot low-water mark
# TYPE sqlts_server_wal_truncations_total counter
sqlts_server_wal_truncations_total 5
# HELP sqlts_server_snapshots_total subscription checkpoint snapshots written
# TYPE sqlts_server_snapshots_total counter
sqlts_server_snapshots_total 6
# HELP sqlts_server_recovered_subscriptions_total subscriptions respawned from snapshots at recovery
# TYPE sqlts_server_recovered_subscriptions_total counter
sqlts_server_recovered_subscriptions_total 7
# HELP sqlts_repl_frames_received_total replication frames accepted and appended (standby)
# TYPE sqlts_repl_frames_received_total counter
sqlts_repl_frames_received_total 8
# HELP sqlts_repl_rejected_frames_total replication frames rejected (crc, malformed, gap)
# TYPE sqlts_repl_rejected_frames_total counter
sqlts_repl_rejected_frames_total 9
# HELP sqlts_repl_promotions_total standby promotions completed
# TYPE sqlts_repl_promotions_total counter
sqlts_repl_promotions_total 10
# TYPE sqlts_server_wal_append_micros histogram
sqlts_server_wal_append_micros_bucket{le="3"} 1
sqlts_server_wal_append_micros_bucket{le="15"} 2
sqlts_server_wal_append_micros_bucket{le="+Inf"} 2
sqlts_server_wal_append_micros_sum 12
sqlts_server_wal_append_micros_count 2
# TYPE sqlts_server_fsync_micros histogram
sqlts_server_fsync_micros_bucket{le="2047"} 1
sqlts_server_fsync_micros_bucket{le="+Inf"} 1
sqlts_server_fsync_micros_sum 1500
sqlts_server_fsync_micros_count 1
# TYPE sqlts_server_frame_decode_micros histogram
sqlts_server_frame_decode_micros_bucket{le="0"} 1
sqlts_server_frame_decode_micros_bucket{le="+Inf"} 1
sqlts_server_frame_decode_micros_sum 0
sqlts_server_frame_decode_micros_count 1
# TYPE sqlts_server_row_parse_micros histogram
sqlts_server_row_parse_micros_bucket{le="255"} 1
sqlts_server_row_parse_micros_bucket{le="+Inf"} 1
sqlts_server_row_parse_micros_sum 131
sqlts_server_row_parse_micros_count 1
# TYPE sqlts_server_fanout_micros histogram
sqlts_server_fanout_micros_bucket{le="+Inf"} 0
sqlts_server_fanout_micros_sum 0
sqlts_server_fanout_micros_count 0
# TYPE sqlts_server_session_drive_micros histogram
sqlts_server_session_drive_micros_bucket{le="+Inf"} 0
sqlts_server_session_drive_micros_sum 0
sqlts_server_session_drive_micros_count 0
# TYPE sqlts_server_snapshot_micros histogram
sqlts_server_snapshot_micros_bucket{le="+Inf"} 1
sqlts_server_snapshot_micros_sum 70000000
sqlts_server_snapshot_micros_count 1
# TYPE sqlts_sub_records gauge
# TYPE sqlts_sub_skipped gauge
# TYPE sqlts_sub_quarantined gauge
# TYPE sqlts_sub_tripped gauge
# TYPE sqlts_sub_queue_depth gauge
sqlts_sub_records{tenant="a\"b\\c\nd"} 40
sqlts_sub_skipped{tenant="a\"b\\c\nd"} 2
sqlts_sub_quarantined{tenant="a\"b\\c\nd"} 1
sqlts_sub_tripped{tenant="a\"b\\c\nd"} 0
sqlts_sub_queue_depth{tenant="a\"b\\c\nd"} 3
sqlts_sub_records{tenant="s2"} 7
sqlts_sub_skipped{tenant="s2"} 0
sqlts_sub_quarantined{tenant="s2"} 0
sqlts_sub_tripped{tenant="s2"} 1
sqlts_sub_queue_depth{tenant="s2"} 0
# TYPE sqlts_predicate_tests_total counter
sqlts_predicate_tests_total{tenant="a"} 6
# TYPE sqlts_predicate_tests_by_position counter
sqlts_predicate_tests_by_position{tenant="a",position="1"} 4
sqlts_predicate_tests_by_position{tenant="a",position="2"} 2
# TYPE sqlts_matches_total counter
sqlts_matches_total{tenant="a"} 1
# TYPE sqlts_tuples_total counter
sqlts_tuples_total{tenant="a"} 5
# TYPE sqlts_clusters_total counter
sqlts_clusters_total{tenant="a"} 1
# TYPE sqlts_governor_flushes_total counter
sqlts_governor_flushes_total{tenant="a"} 0
# TYPE sqlts_shift_distance histogram
sqlts_shift_distance_bucket{tenant="a",le="1"} 1
sqlts_shift_distance_bucket{tenant="a",le="+Inf"} 1
sqlts_shift_distance_sum{tenant="a"} 1
sqlts_shift_distance_count{tenant="a"} 1
# TYPE sqlts_backtrack_depth histogram
sqlts_backtrack_depth_bucket{tenant="a",le="+Inf"} 0
sqlts_backtrack_depth_sum{tenant="a"} 0
sqlts_backtrack_depth_count{tenant="a"} 0
sqlts_phase_seconds{tenant="a",phase="parse"} 0
sqlts_phase_seconds{tenant="a",phase="bind"} 0
sqlts_phase_seconds{tenant="a",phase="plan"} 0
sqlts_phase_seconds{tenant="a",phase="partition"} 0
sqlts_phase_seconds{tenant="a",phase="execute"} 0
sqlts_predicate_tests_total{tenant="b"} 0
sqlts_matches_total{tenant="b"} 0
sqlts_tuples_total{tenant="b"} 0
sqlts_clusters_total{tenant="b"} 0
sqlts_governor_flushes_total{tenant="b"} 0
sqlts_shift_distance_bucket{tenant="b",le="+Inf"} 0
sqlts_shift_distance_sum{tenant="b"} 0
sqlts_shift_distance_count{tenant="b"} 0
sqlts_backtrack_depth_bucket{tenant="b",le="+Inf"} 0
sqlts_backtrack_depth_sum{tenant="b"} 0
sqlts_backtrack_depth_count{tenant="b"} 0
sqlts_phase_seconds{tenant="b",phase="parse"} 0
sqlts_phase_seconds{tenant="b",phase="bind"} 0
sqlts_phase_seconds{tenant="b",phase="plan"} 0
sqlts_phase_seconds{tenant="b",phase="partition"} 0
sqlts_phase_seconds{tenant="b",phase="execute"} 0
# HELP sqlts_patternset_tests_logical Logical predicate tests charged across shared-set members
# TYPE sqlts_patternset_tests_logical counter
sqlts_patternset_tests_logical 911
# HELP sqlts_patternset_tests_evaluated Physical predicate evaluations performed by the shared pass
# TYPE sqlts_patternset_tests_evaluated counter
sqlts_patternset_tests_evaluated 241
# HELP sqlts_patternset_tests_saved Logical tests answered from the shared memo
# TYPE sqlts_patternset_tests_saved counter
sqlts_patternset_tests_saved 670
# HELP sqlts_patternset_tests_shared Saved tests served across queries or via implication
# TYPE sqlts_patternset_tests_shared counter
sqlts_patternset_tests_shared 640
# HELP sqlts_patternset_queries Queries in the shared pattern set
# TYPE sqlts_patternset_queries gauge
sqlts_patternset_queries 2
# HELP sqlts_patternset_classes Distinct purely-local predicate classes interned
# TYPE sqlts_patternset_classes gauge
sqlts_patternset_classes 3
# HELP sqlts_patternset_trie_nodes Nodes in the class-sequence prefix trie
# TYPE sqlts_patternset_trie_nodes gauge
sqlts_patternset_trie_nodes 5
# HELP sqlts_patternset_implication_edges Cross-class implication edges in the lattice
# TYPE sqlts_patternset_implication_edges gauge
sqlts_patternset_implication_edges 2
# TYPE sqlts_patternset_shared_prefix_depth histogram
sqlts_patternset_shared_prefix_depth_bucket{le="3"} 1
sqlts_patternset_shared_prefix_depth_bucket{le="+Inf"} 1
sqlts_patternset_shared_prefix_depth_sum 2
sqlts_patternset_shared_prefix_depth_count 1
# HELP sqlts_repl_connected a shipping session to the standby is live
# TYPE sqlts_repl_connected gauge
sqlts_repl_connected 1
# HELP sqlts_repl_lag_rows rows committed locally but not standby-acked
# TYPE sqlts_repl_lag_rows gauge
sqlts_repl_lag_rows 3
# HELP sqlts_repl_frames_sent_total WAL frames shipped to the standby
# TYPE sqlts_repl_frames_sent_total counter
sqlts_repl_frames_sent_total 9
# HELP sqlts_repl_acks_total standby frame acknowledgements received
# TYPE sqlts_repl_acks_total counter
sqlts_repl_acks_total 8
# HELP sqlts_repl_resyncs_total shipping sessions established (each starts with a resync)
# TYPE sqlts_repl_resyncs_total counter
sqlts_repl_resyncs_total 1
# HELP sqlts_repl_send_errors_total failed ships (each costs the session)
# TYPE sqlts_repl_send_errors_total counter
sqlts_repl_send_errors_total 0
# HELP sqlts_repl_sync_degraded_total sync-ack FEEDs that degraded to async
# TYPE sqlts_repl_sync_degraded_total counter
sqlts_repl_sync_degraded_total 2
# HELP sqlts_standby server is an unpromoted warm standby
# TYPE sqlts_standby gauge
sqlts_standby 1
"#
        );
    }

    #[test]
    fn latency_histograms_render_into_scrape_and_status() {
        // A bare server: no subscription, pattern set or replication, so
        // the scrape is counters, empty-or-not histograms and the
        // pre-declared gauge families only.
        let metrics = ServerMetrics::new(4);
        metrics.latency.record_ns(LatencyOp::WalAppend, 3_000);
        metrics.latency.record_ns(LatencyOp::WalAppend, 9_000);
        metrics.latency.record_ns(LatencyOp::Fsync, 1_500_000);
        assert_eq!(
            metrics_text(&metrics, &[], None, None, false),
            r#"# HELP sqlts_server_connections_total TCP connections accepted
# TYPE sqlts_server_connections_total counter
sqlts_server_connections_total 0
# HELP sqlts_server_frames_total protocol frames decoded
# TYPE sqlts_server_frames_total counter
sqlts_server_frames_total 0
# HELP sqlts_server_errors_total frames answered with ERR
# TYPE sqlts_server_errors_total counter
sqlts_server_errors_total 0
# HELP sqlts_server_subscriptions_total subscriptions admitted
# TYPE sqlts_server_subscriptions_total counter
sqlts_server_subscriptions_total 0
# HELP sqlts_server_rows_fed_total rows delivered to workers
# TYPE sqlts_server_rows_fed_total counter
sqlts_server_rows_fed_total 0
# HELP sqlts_server_wal_appends_total FEED frames appended to channel WALs
# TYPE sqlts_server_wal_appends_total counter
sqlts_server_wal_appends_total 0
# HELP sqlts_server_wal_fsyncs_total fsyncs issued against channel WALs
# TYPE sqlts_server_wal_fsyncs_total counter
sqlts_server_wal_fsyncs_total 0
# HELP sqlts_server_wal_truncations_total WAL truncations past the snapshot low-water mark
# TYPE sqlts_server_wal_truncations_total counter
sqlts_server_wal_truncations_total 0
# HELP sqlts_server_snapshots_total subscription checkpoint snapshots written
# TYPE sqlts_server_snapshots_total counter
sqlts_server_snapshots_total 0
# HELP sqlts_server_recovered_subscriptions_total subscriptions respawned from snapshots at recovery
# TYPE sqlts_server_recovered_subscriptions_total counter
sqlts_server_recovered_subscriptions_total 0
# HELP sqlts_repl_frames_received_total replication frames accepted and appended (standby)
# TYPE sqlts_repl_frames_received_total counter
sqlts_repl_frames_received_total 0
# HELP sqlts_repl_rejected_frames_total replication frames rejected (crc, malformed, gap)
# TYPE sqlts_repl_rejected_frames_total counter
sqlts_repl_rejected_frames_total 0
# HELP sqlts_repl_promotions_total standby promotions completed
# TYPE sqlts_repl_promotions_total counter
sqlts_repl_promotions_total 0
# TYPE sqlts_server_wal_append_micros histogram
sqlts_server_wal_append_micros_bucket{le="3"} 1
sqlts_server_wal_append_micros_bucket{le="15"} 2
sqlts_server_wal_append_micros_bucket{le="+Inf"} 2
sqlts_server_wal_append_micros_sum 12
sqlts_server_wal_append_micros_count 2
# TYPE sqlts_server_fsync_micros histogram
sqlts_server_fsync_micros_bucket{le="2047"} 1
sqlts_server_fsync_micros_bucket{le="+Inf"} 1
sqlts_server_fsync_micros_sum 1500
sqlts_server_fsync_micros_count 1
# TYPE sqlts_server_frame_decode_micros histogram
sqlts_server_frame_decode_micros_bucket{le="+Inf"} 0
sqlts_server_frame_decode_micros_sum 0
sqlts_server_frame_decode_micros_count 0
# TYPE sqlts_server_row_parse_micros histogram
sqlts_server_row_parse_micros_bucket{le="+Inf"} 0
sqlts_server_row_parse_micros_sum 0
sqlts_server_row_parse_micros_count 0
# TYPE sqlts_server_fanout_micros histogram
sqlts_server_fanout_micros_bucket{le="+Inf"} 0
sqlts_server_fanout_micros_sum 0
sqlts_server_fanout_micros_count 0
# TYPE sqlts_server_session_drive_micros histogram
sqlts_server_session_drive_micros_bucket{le="+Inf"} 0
sqlts_server_session_drive_micros_sum 0
sqlts_server_session_drive_micros_count 0
# TYPE sqlts_server_snapshot_micros histogram
sqlts_server_snapshot_micros_bucket{le="+Inf"} 0
sqlts_server_snapshot_micros_sum 0
sqlts_server_snapshot_micros_count 0
# TYPE sqlts_sub_records gauge
# TYPE sqlts_sub_skipped gauge
# TYPE sqlts_sub_quarantined gauge
# TYPE sqlts_sub_tripped gauge
# TYPE sqlts_sub_queue_depth gauge
# HELP sqlts_standby server is an unpromoted warm standby
# TYPE sqlts_standby gauge
sqlts_standby 0
"#
        );
        assert_eq!(
            status_json(&metrics, &[], false, false, None),
            r#"{"draining":false,"standby":false,"connections_total":0,"frames_total":0,"errors_total":0,"subscriptions_total":0,"rows_fed_total":0,"wal_appends_total":0,"wal_fsyncs_total":0,"snapshots_total":0,"latency":{"wal_append_micros":{"count":2,"sum":12,"max":9},"fsync_micros":{"count":1,"sum":1500,"max":1500},"frame_decode_micros":{"count":0,"sum":0,"max":0},"row_parse_micros":{"count":0,"sum":0,"max":0},"fanout_micros":{"count":0,"sum":0,"max":0},"session_drive_micros":{"count":0,"sum":0,"max":0},"snapshot_micros":{"count":0,"sum":0,"max":0}},"subscriptions":[]}
"#
        );
    }

    #[test]
    fn status_json_lists_subscriptions_and_balances() {
        let out = status_json(
            &golden_metrics(),
            &golden_subs(),
            true,
            false,
            Some(&golden_repl()),
        );
        assert_eq!(
            out,
            r#"{"draining":true,"standby":false,"connections_total":1,"frames_total":12,"errors_total":2,"subscriptions_total":3,"rows_fed_total":4000,"wal_appends_total":40,"wal_fsyncs_total":41,"snapshots_total":6,"replication":{"connected":true,"sync":true,"lag_rows":3,"frames_sent":9,"acks":8,"resyncs":1,"send_errors":0,"sync_degraded":2},"latency":{"wal_append_micros":{"count":2,"sum":12,"max":9},"fsync_micros":{"count":1,"sum":1500,"max":1500},"frame_decode_micros":{"count":1,"sum":0,"max":0},"row_parse_micros":{"count":1,"sum":131,"max":131},"fanout_micros":{"count":0,"sum":0,"max":0},"session_drive_micros":{"count":0,"sum":0,"max":0},"snapshot_micros":{"count":1,"sum":70000000,"max":70000000}},"subscriptions":[{"id":"a\"b\\c\nd","channel":"nyse","records":40,"skipped":2,"quarantined":1,"window_bytes":512,"queue_depth":3,"poisoned":false,"trip":null},{"id":"s2","channel":"nyse","records":7,"skipped":0,"quarantined":0,"window_bytes":64,"queue_depth":0,"poisoned":true,"trip":"step budget exhausted after 2.5ms (11 steps, 0 matches)"}]}
"#
        );
        assert_eq!(
            out.matches(['{', '[']).count(),
            out.matches(['}', ']']).count(),
            "unbalanced status JSON: {out}"
        );
    }

    #[test]
    fn retention_evicts_oldest() {
        let metrics = ServerMetrics::new(1);
        metrics.retain_profile("old", Box::new(ExecutionProfile::new("ops", 1)));
        metrics.retain_profile("new", Box::new(ExecutionProfile::new("ops", 1)));
        let out = metrics_text(&metrics, &[], None, None, false);
        assert!(!out.contains("tenant=\"old\""));
        assert!(out.contains("tenant=\"new\""));
    }
}
