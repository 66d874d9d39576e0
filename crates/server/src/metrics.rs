//! Server-level counters and the Prometheus text exposition served at
//! `GET /metrics`.
//!
//! Three layers are spliced into one scrape:
//!
//! 1. server counters (connections, frames, protocol errors, rows fed);
//! 2. live per-subscription gauges, labeled `tenant="<sub id>"`, sampled
//!    from each worker's [`SessionStatus`](sqlts_core::SessionStatus);
//! 3. the most recent finished subscriptions' full
//!    [`ExecutionProfile`](sqlts_trace::ExecutionProfile) expositions via
//!    `to_prometheus_labeled`, with duplicate `# TYPE` lines removed so
//!    the merged document stays a valid exposition.

use sqlts_trace::{
    escape_label_value, json_escape, write_prometheus_histogram, BoundedHistogram, ExecutionProfile,
};
use std::collections::HashSet;
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
    /// One FEED frame's fan-out loop across a channel's workers.
    Fanout,
    /// One channel snapshot pass (every subscription checkpointed).
    Snapshot,
}

impl LatencyOp {
    const ALL: [LatencyOp; 5] = [
        LatencyOp::WalAppend,
        LatencyOp::Fsync,
        LatencyOp::FrameDecode,
        LatencyOp::Fanout,
        LatencyOp::Snapshot,
    ];

    /// The exposition metric name (`sqlts_server_<op>_micros`).
    pub fn metric_name(self) -> &'static str {
        match self {
            LatencyOp::WalAppend => "sqlts_server_wal_append_micros",
            LatencyOp::Fsync => "sqlts_server_fsync_micros",
            LatencyOp::FrameDecode => "sqlts_server_frame_decode_micros",
            LatencyOp::Fanout => "sqlts_server_fanout_micros",
            LatencyOp::Snapshot => "sqlts_server_snapshot_micros",
        }
    }

    /// The key used in `/status` JSON.
    pub fn json_key(self) -> &'static str {
        match self {
            LatencyOp::WalAppend => "wal_append_micros",
            LatencyOp::Fsync => "fsync_micros",
            LatencyOp::FrameDecode => "frame_decode_micros",
            LatencyOp::Fanout => "fanout_micros",
            LatencyOp::Snapshot => "snapshot_micros",
        }
    }

    fn index(self) -> usize {
        match self {
            LatencyOp::WalAppend => 0,
            LatencyOp::Fsync => 1,
            LatencyOp::FrameDecode => 2,
            LatencyOp::Fanout => 3,
            LatencyOp::Snapshot => 4,
        }
    }
}

/// Power-of-two latency histograms (microsecond buckets) for the five
/// hot-path operations, reusing the query profiles' [`BoundedHistogram`]
/// so server latencies and engine shift-distances share one exposition
/// shape.  Each record is one short uncontended mutex acquisition —
/// the recording sites already hold (or just released) the channel
/// persist lock, so this adds no new contention edge.
#[derive(Debug, Default)]
pub struct LatencyHistograms {
    hists: [Mutex<BoundedHistogram>; 5],
}

impl LatencyHistograms {
    /// Record one operation's duration (nanoseconds; bucketed in µs).
    pub fn record_ns(&self, op: LatencyOp, ns: u64) {
        if let Ok(mut h) = self.hists[op.index()].lock() {
            h.record(ns / 1_000);
        }
    }

    /// A snapshot of one operation's histogram.
    pub fn snapshot(&self, op: LatencyOp) -> BoundedHistogram {
        self.hists[op.index()]
            .lock()
            .map(|h| h.clone())
            .unwrap_or_default()
    }

    /// Append every histogram to a Prometheus exposition.
    fn render_prometheus(&self, out: &mut String) {
        for op in LatencyOp::ALL {
            let h = self.snapshot(op);
            write_prometheus_histogram(out, op.metric_name(), "", &h);
        }
    }

    /// Append `"latency":{...}` summaries (count/sum/max per op, µs) to a
    /// JSON object body.
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, op) in LatencyOp::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = self.snapshot(op);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{}}}",
                op.json_key(),
                h.count(),
                h.sum(),
                h.max()
            );
        }
        out.push('}');
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

    /// Render the merged exposition.  `live` is one pre-rendered gauge
    /// block per live subscription (see [`live_gauges`]).
    pub fn render(&self, live: &[String]) -> String {
        let mut out = String::new();
        for (name, help, value) in [
            (
                "sqlts_server_connections_total",
                "TCP connections accepted",
                &self.connections_total,
            ),
            (
                "sqlts_server_frames_total",
                "protocol frames decoded",
                &self.frames_total,
            ),
            (
                "sqlts_server_errors_total",
                "frames answered with ERR",
                &self.errors_total,
            ),
            (
                "sqlts_server_subscriptions_total",
                "subscriptions admitted",
                &self.subscriptions_total,
            ),
            (
                "sqlts_server_rows_fed_total",
                "rows delivered to workers",
                &self.rows_fed_total,
            ),
            (
                "sqlts_server_wal_appends_total",
                "FEED frames appended to channel WALs",
                &self.wal_appends_total,
            ),
            (
                "sqlts_server_wal_fsyncs_total",
                "fsyncs issued against channel WALs",
                &self.wal_fsyncs_total,
            ),
            (
                "sqlts_server_wal_truncations_total",
                "WAL truncations past the snapshot low-water mark",
                &self.wal_truncations_total,
            ),
            (
                "sqlts_server_snapshots_total",
                "subscription checkpoint snapshots written",
                &self.snapshots_total,
            ),
            (
                "sqlts_server_recovered_subscriptions_total",
                "subscriptions respawned from snapshots at recovery",
                &self.recovered_subscriptions_total,
            ),
            (
                "sqlts_repl_frames_received_total",
                "replication frames accepted and appended (standby)",
                &self.repl_frames_received_total,
            ),
            (
                "sqlts_repl_rejected_frames_total",
                "replication frames rejected (crc, malformed, gap)",
                &self.repl_rejected_frames_total,
            ),
            (
                "sqlts_repl_promotions_total",
                "standby promotions completed",
                &self.repl_promotions_total,
            ),
        ] {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}",
                value.load(Ordering::Relaxed)
            );
        }
        self.latency.render_prometheus(&mut out);
        out.push_str("# TYPE sqlts_sub_records gauge\n");
        out.push_str("# TYPE sqlts_sub_skipped gauge\n");
        out.push_str("# TYPE sqlts_sub_quarantined gauge\n");
        out.push_str("# TYPE sqlts_sub_tripped gauge\n");
        out.push_str("# TYPE sqlts_sub_queue_depth gauge\n");
        for block in live {
            out.push_str(block);
        }
        // Finished profiles: each exposition repeats its own # TYPE
        // headers, so dedupe them across the splice.
        let mut seen_types: HashSet<String> = HashSet::new();
        if let Ok(finished) = self.finished.lock() {
            for (tenant, profile) in finished.iter() {
                for line in profile.to_prometheus_labeled(&[("tenant", tenant)]).lines() {
                    if line.starts_with("# TYPE") && !seen_types.insert(line.to_string()) {
                        continue;
                    }
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Render one live subscription's gauges (tenant-labeled, names declared
/// once by [`ServerMetrics::render`]).  `queue_depth` is the number of
/// callers waiting for the worker's session right now.
pub fn live_gauges(tenant: &str, status: &sqlts_core::SessionStatus, queue_depth: u64) -> String {
    let t = escape_label_value(tenant);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sqlts_sub_records{{tenant=\"{t}\"}} {}",
        status.records
    );
    let _ = writeln!(
        out,
        "sqlts_sub_skipped{{tenant=\"{t}\"}} {}",
        status.skipped
    );
    let _ = writeln!(
        out,
        "sqlts_sub_quarantined{{tenant=\"{t}\"}} {}",
        status.quarantined
    );
    let _ = writeln!(
        out,
        "sqlts_sub_tripped{{tenant=\"{t}\"}} {}",
        u8::from(status.trip.is_some())
    );
    let _ = writeln!(out, "sqlts_sub_queue_depth{{tenant=\"{t}\"}} {queue_depth}");
    out
}

/// Render the primary-side replication gauges/counters as one
/// Prometheus block (`sqlts_repl_*`).  Only emitted when
/// `--replicate-to` is configured; the standby-side counters live on
/// [`ServerMetrics`] and render unconditionally.
pub fn repl_exposition(snap: &crate::replicate::ReplSnapshot) -> String {
    let mut out = String::new();
    for (name, help, value) in [
        (
            "sqlts_repl_connected",
            "a shipping session to the standby is live",
            u64::from(snap.connected),
        ),
        (
            "sqlts_repl_lag_rows",
            "rows committed locally but not standby-acked",
            snap.lag_rows,
        ),
        (
            "sqlts_repl_frames_sent_total",
            "WAL frames shipped to the standby",
            snap.frames_sent,
        ),
        (
            "sqlts_repl_acks_total",
            "standby frame acknowledgements received",
            snap.acks,
        ),
        (
            "sqlts_repl_resyncs_total",
            "shipping sessions established (each starts with a resync)",
            snap.resyncs,
        ),
        (
            "sqlts_repl_send_errors_total",
            "failed ships (each costs the session)",
            snap.send_errors,
        ),
        (
            "sqlts_repl_sync_degraded_total",
            "sync-ack FEEDs that degraded to async",
            snap.sync_degraded,
        ),
    ] {
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        let _ = writeln!(
            out,
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}"
        );
    }
    out
}

/// One subscription's row in the `/status` JSON document — the live
/// registry view, assembled by the server under its locks.
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
    /// The phase the worker published most recently.
    pub phase: &'static str,
}

/// Render the `GET /status` JSON document: server counters, latency
/// summaries, replication health, and one object per live subscription.
/// Hand-rolled flat JSON, same as every other exporter in the workspace.
pub fn status_json(
    metrics: &ServerMetrics,
    subs: &[SubStatusView],
    draining: bool,
    standby: bool,
    repl: Option<&crate::replicate::ReplSnapshot>,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"draining\":{draining},\"standby\":{standby},\"connections_total\":{},\
         \"frames_total\":{},\
         \"errors_total\":{},\"subscriptions_total\":{},\"rows_fed_total\":{},\
         \"wal_appends_total\":{},\"wal_fsyncs_total\":{},\"snapshots_total\":{}",
        metrics.connections_total.load(Ordering::Relaxed),
        metrics.frames_total.load(Ordering::Relaxed),
        metrics.errors_total.load(Ordering::Relaxed),
        metrics.subscriptions_total.load(Ordering::Relaxed),
        metrics.rows_fed_total.load(Ordering::Relaxed),
        metrics.wal_appends_total.load(Ordering::Relaxed),
        metrics.wal_fsyncs_total.load(Ordering::Relaxed),
        metrics.snapshots_total.load(Ordering::Relaxed),
    );
    if let Some(snap) = repl {
        let _ = write!(
            out,
            ",\"replication\":{{\"connected\":{},\"sync\":{},\"lag_rows\":{},\
             \"frames_sent\":{},\"acks\":{},\"resyncs\":{},\"send_errors\":{},\
             \"sync_degraded\":{}}}",
            snap.connected,
            snap.sync,
            snap.lag_rows,
            snap.frames_sent,
            snap.acks,
            snap.resyncs,
            snap.send_errors,
            snap.sync_degraded,
        );
    }
    out.push_str(",\"latency\":");
    metrics.latency.write_json(&mut out);
    out.push_str(",\"subscriptions\":[");
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
             \"queue_depth\":{},\"phase\":\"{}\",\"poisoned\":{}",
            sub.status.records,
            sub.status.skipped,
            sub.status.quarantined,
            sub.status.window_bytes,
            sub.queue_depth,
            sub.phase,
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

    #[test]
    fn type_lines_are_deduped_across_finished_profiles() {
        let metrics = ServerMetrics::new(4);
        ServerMetrics::inc(&metrics.connections_total);
        let profile = ExecutionProfile::new("ops", 2);
        metrics.retain_profile("a", Box::new(profile));
        let profile = ExecutionProfile::new("ops", 2);
        metrics.retain_profile("b", Box::new(profile));
        let out = metrics.render(&[]);
        let type_matches = out
            .lines()
            .filter(|l| *l == "# TYPE sqlts_matches_total counter")
            .count();
        assert_eq!(type_matches, 1, "{out}");
        assert!(out.contains("sqlts_matches_total{tenant=\"a\"} 0"), "{out}");
        assert!(out.contains("sqlts_matches_total{tenant=\"b\"} 0"), "{out}");
        assert!(out.contains("sqlts_server_connections_total 1"), "{out}");
    }

    #[test]
    fn latency_histograms_render_into_scrape_and_status() {
        let metrics = ServerMetrics::new(4);
        metrics.latency.record_ns(LatencyOp::WalAppend, 3_000);
        metrics.latency.record_ns(LatencyOp::WalAppend, 9_000);
        metrics.latency.record_ns(LatencyOp::Fsync, 1_500_000);
        let out = metrics.render(&[]);
        assert!(
            out.contains("# TYPE sqlts_server_wal_append_micros histogram"),
            "{out}"
        );
        assert!(
            out.contains("sqlts_server_wal_append_micros_count 2"),
            "{out}"
        );
        assert!(
            out.contains("sqlts_server_wal_append_micros_sum 12"),
            "{out}"
        );
        assert!(out.contains("sqlts_server_fsync_micros_count 1"), "{out}");
        // Unrecorded ops still render complete (empty) histogram blocks.
        assert!(
            out.contains("sqlts_server_fanout_micros_bucket{le=\"+Inf\"} 0"),
            "{out}"
        );
        let status = status_json(&metrics, &[], false, false, None);
        assert!(
            status.contains("\"wal_append_micros\":{\"count\":2,\"sum\":12,\"max\":9}"),
            "{status}"
        );
        assert!(status.contains("\"draining\":false"), "{status}");
        assert!(status.contains("\"standby\":false"), "{status}");
        assert!(!status.contains("\"replication\""), "{status}");
    }

    #[test]
    fn tenant_labels_escape_quotes_backslashes_and_newlines() {
        let status = sqlts_core::SessionStatus {
            records: 1,
            skipped: 0,
            quarantined: 0,
            window_bytes: 0,
            predicate_tests: 0,
            trip: None,
            poisoned: false,
        };
        let block = live_gauges("a\"b\\c\nd", &status, 3);
        assert!(
            block.contains("sqlts_sub_records{tenant=\"a\\\"b\\\\c\\nd\"} 1"),
            "{block}"
        );
        assert!(
            block.contains("sqlts_sub_queue_depth{tenant=\"a\\\"b\\\\c\\nd\"} 3"),
            "{block}"
        );
        for line in block.lines() {
            assert!(!line.is_empty(), "raw newline split a sample line: {block}");
        }
        assert_eq!(block.lines().count(), 5, "{block}");
    }

    #[test]
    fn status_json_lists_subscriptions_and_balances() {
        let metrics = ServerMetrics::new(4);
        let subs = vec![SubStatusView {
            id: "s\"1".into(),
            channel: "nyse".into(),
            status: sqlts_core::SessionStatus {
                records: 40,
                skipped: 2,
                quarantined: 1,
                window_bytes: 512,
                predicate_tests: 0,
                trip: None,
                poisoned: false,
            },
            queue_depth: 0,
            phase: "idle",
        }];
        let snap = crate::replicate::ReplSnapshot {
            configured: true,
            connected: true,
            sync: true,
            frames_sent: 9,
            acks: 8,
            resyncs: 1,
            send_errors: 0,
            sync_degraded: 2,
            lag_rows: 3,
        };
        let out = status_json(&metrics, &subs, true, false, Some(&snap));
        assert!(out.contains("\"draining\":true"), "{out}");
        assert!(
            out.contains("\"replication\":{\"connected\":true,\"sync\":true,\"lag_rows\":3"),
            "{out}"
        );
        assert!(out.contains("\"id\":\"s\\\"1\""), "{out}");
        assert!(out.contains("\"records\":40"), "{out}");
        assert!(out.contains("\"phase\":\"idle\""), "{out}");
        assert!(out.contains("\"trip\":null"), "{out}");
        assert_eq!(
            out.matches(['{', '[']).count(),
            out.matches(['}', ']']).count(),
            "unbalanced status JSON: {out}"
        );
    }

    #[test]
    fn repl_exposition_renders_every_series() {
        let snap = crate::replicate::ReplSnapshot {
            configured: true,
            connected: true,
            sync: false,
            frames_sent: 5,
            acks: 5,
            resyncs: 2,
            send_errors: 1,
            sync_degraded: 0,
            lag_rows: 7,
        };
        let out = repl_exposition(&snap);
        assert!(out.contains("# TYPE sqlts_repl_connected gauge"), "{out}");
        assert!(out.contains("sqlts_repl_connected 1"), "{out}");
        assert!(out.contains("sqlts_repl_lag_rows 7"), "{out}");
        assert!(
            out.contains("# TYPE sqlts_repl_frames_sent_total counter"),
            "{out}"
        );
        assert!(out.contains("sqlts_repl_frames_sent_total 5"), "{out}");
        assert!(out.contains("sqlts_repl_resyncs_total 2"), "{out}");
        assert!(out.contains("sqlts_repl_send_errors_total 1"), "{out}");
        for line in out.lines() {
            assert!(!line.is_empty(), "{out}");
        }
    }

    #[test]
    fn retention_evicts_oldest() {
        let metrics = ServerMetrics::new(1);
        metrics.retain_profile("old", Box::new(ExecutionProfile::new("ops", 1)));
        metrics.retain_profile("new", Box::new(ExecutionProfile::new("ops", 1)));
        let out = metrics.render(&[]);
        assert!(!out.contains("tenant=\"old\""));
        assert!(out.contains("tenant=\"new\""));
    }
}
