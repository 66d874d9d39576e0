//! The three server workloads: set-up, timed passes over real sockets,
//! kill/recover, byte-for-byte verification against batch `execute`.
//!
//! A *pass* is a fixed, seed-determined unit of work (fixed rows, frames
//! and kill points) on a fresh channel with fresh subscriptions, so its
//! history depth — result size, checkpoint size, resident memory — is
//! the same however fast the server is.  A run repeats passes until the
//! measured time is used up; the last pass is cut at the deadline and
//! still verified, over exactly the rows that were acknowledged.

use crate::data::{batch_csv, result_body, Feed, Q_RISEFALL, SCHEMA_SPEC};
use crate::metrics::Values;
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::wire::{dir_bytes, histogram_mean, scrape_metrics, series, Client, ServerProc};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

pub fn io<T>(result: std::io::Result<T>, what: &str) -> Res<T> {
    result.map_err(|e| format!("{what}: {e}"))
}

/// Where a run finds the server binary and keeps its files.
pub struct Env {
    pub server_bin: PathBuf,
    /// Artifacts that outlive the run: span files, server logs, reports.
    pub out_dir: PathBuf,
    /// Data directories; inside the checkout, removed when the run ends.
    pub tmp_dir: PathBuf,
}

/// Work sizes.  `full` is what the benchmark measures; `smoke` is the same
/// code on tiny passes.
#[derive(Clone, Debug)]
pub struct Scale {
    pub rows_per_frame: usize,
    pub solo_frames: usize,
    pub fanout_frames: usize,
    pub durable_frames_per_feeder: usize,
    /// Channel-frame ordinals after which the durable server is killed.
    pub kill_points: Vec<usize>,
    pub setup_reps: usize,
    pub batch_clusters: usize,
    pub batch_rows_per_cluster: usize,
    pub batch_setup_reps: usize,
}

impl Scale {
    /// Sized so one pass fits the 10 s window at the first baseline's
    /// ~44 ms per reply with margin.  The default snapshot cadence is 64
    /// frames and recovery snapshots, so each kill lands 63 frames past a
    /// snapshot — the longest replay — and the 98 frames after the last
    /// kill cross one periodic snapshot.
    pub fn full() -> Scale {
        Scale {
            rows_per_frame: 100,
            solo_frames: 150,
            fanout_frames: 80,
            durable_frames_per_feeder: 175,
            kill_points: vec![63, 126, 189, 252],
            setup_reps: 5,
            batch_clusters: 16,
            batch_rows_per_cluster: 25_000,
            batch_setup_reps: 5,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            rows_per_frame: 100,
            solo_frames: 12,
            fanout_frames: 6,
            durable_frames_per_feeder: 12,
            kill_points: vec![15],
            setup_reps: 2,
            batch_clusters: 4,
            batch_rows_per_cluster: 2_000,
            batch_setup_reps: 2,
        }
    }
}

/// One server workload's shape.
pub struct Spec {
    pub name: &'static str,
    pub flags: Vec<String>,
    pub durable: bool,
    pub queries: Vec<String>,
    pub feeders: usize,
    pub frames_per_feeder: usize,
    pub kill_points: Vec<usize>,
}

const SYMBOLS: usize = 8;

impl Spec {
    pub fn of(name: &str, scale: &Scale) -> Option<Spec> {
        let flag = |s: &str| s.to_string();
        Some(match name {
            "solo_mem" => Spec {
                name: "solo_mem",
                flags: vec![],
                durable: false,
                queries: vec![Q_RISEFALL.to_string()],
                feeders: 1,
                frames_per_feeder: scale.solo_frames,
                kill_points: vec![],
            },
            "fanout_shared" => Spec {
                name: "fanout_shared",
                flags: vec![flag("--shared-matcher"), flag("on")],
                durable: false,
                queries: sqlts_bench::pattern_set_family(8),
                feeders: 1,
                frames_per_feeder: scale.fanout_frames,
                kill_points: vec![],
            },
            "durable_crash" => Spec {
                name: "durable_crash",
                // The flush policy is fixed and recorded: every append is
                // fsynced.  Snapshot cadence stays at the default 64.
                flags: vec![flag("--fsync"), flag("every")],
                durable: true,
                queries: vec![Q_RISEFALL.to_string()],
                feeders: 2,
                frames_per_feeder: scale.durable_frames_per_feeder,
                kill_points: scale.kill_points.clone(),
            },
            _ => return None,
        })
    }

    /// One feed per feeder: disjoint symbol ranges, so per-cluster order
    /// is deterministic whatever the interleaving on the channel.
    fn feeds(&self, scale: &Scale, seed: u64) -> Vec<Feed> {
        let per_feeder = SYMBOLS / self.feeders;
        let rows_per_symbol = (self.frames_per_feeder * scale.rows_per_frame).div_ceil(per_feeder);
        (0..self.feeders)
            .map(|f| Feed::generate(SYMBOLS, rows_per_symbol, seed, f * per_feeder, per_feeder))
            .collect()
    }

    /// How many frames each feeder sends in each segment; a kill follows
    /// every segment but the last.  The odd frame of an odd segment goes
    /// to alternating feeders so totals stay balanced.
    fn segments(&self) -> Vec<Vec<usize>> {
        let total = self.frames_per_feeder * self.feeders;
        let mut bounds: Vec<usize> = self
            .kill_points
            .iter()
            .copied()
            .filter(|k| *k < total)
            .collect();
        bounds.push(total);
        let mut sent = vec![0usize; self.feeders];
        let mut out = Vec::new();
        let mut done = 0;
        for (i, bound) in bounds.into_iter().enumerate() {
            let mut quota = vec![(bound - done) / self.feeders; self.feeders];
            for extra in 0..(bound - done) % self.feeders {
                quota[(i + extra) % self.feeders] += 1;
            }
            // Never hand a feeder more than it has left.
            for f in 0..self.feeders {
                quota[f] = quota[f].min(self.frames_per_feeder - sent[f]);
                sent[f] += quota[f];
            }
            done = bound;
            out.push(quota);
        }
        out
    }
}

/// What one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Values,
    pub layer: Values,
    pub tally: Tally,
    /// Latency samples behind `op_p50_ms` / `op_p95_ms`.
    pub samples: usize,
    pub passes: usize,
    pub server_argv: Vec<String>,
    pub spans: Vec<Span>,
}

/// Failure accounting: every request is an op; a reply that is not what
/// it should be is a failed op, and a result or count that differs from
/// the reference is also a mismatch, which makes the run incorrect.
#[derive(Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one op whose reply must start with `prefix`.
    pub fn expect(&mut self, reply: &str, prefix: &str) {
        self.attempted += 1;
        if !reply.starts_with(prefix) {
            self.failed += 1;
            self.notes
                .push(format!("expected '{prefix}…', got '{}'", first_line(reply)));
        }
    }

    pub fn mismatch(&mut self, note: String) {
        self.failed += 1;
        self.mismatches += 1;
        self.notes.push(note);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.notes.extend(other.notes);
    }
}

/// A server with its channel opened and subscriptions in place, and how
/// long that took from nothing.
struct Rig {
    server: ServerProc,
    data_dir: Option<PathBuf>,
    feeds: Vec<Feed>,
    control: Client,
    setup_s: f64,
}

impl Drop for Rig {
    fn drop(&mut self) {
        // The server must be gone before its directory is.
        self.server.kill();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn sub_id(pass: usize, i: usize) -> String {
    format!("s{pass}_{i}")
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

/// What one feeder did in one segment.
struct FeederRun {
    acked: usize,
    ack_ms: Vec<f64>,
    first_send: Option<Instant>,
    last_ack: Option<Instant>,
    non_ok: u64,
    spans: Vec<Span>,
}

/// One feeder's share of one segment.
struct FeederJob<'a> {
    addr: &'a str,
    feed: &'a Feed,
    chan: &'a str,
    lane: usize,
    frames: std::ops::Range<usize>,
    rows_per_frame: usize,
    subs: usize,
    deadline: Instant,
    /// The pass's tracer origin when spans are recorded.
    trace_from: Option<Instant>,
}

fn run_feeder(job: FeederJob) -> Res<FeederRun> {
    let mut client = io(Client::connect(job.addr), "feeder connect")?;
    let lane = job.lane as u64 + 1;
    let mut tracer = Tracer::new(
        job.trace_from.is_some(),
        job.trace_from.unwrap_or_else(Instant::now),
        lane,
    );
    let mut run = FeederRun {
        acked: 0,
        ack_ms: Vec::with_capacity(job.frames.len()),
        first_send: None,
        last_ack: None,
        non_ok: 0,
        spans: Vec::new(),
    };
    let rpf = job.rows_per_frame;
    let expected = format!("OK fed {rpf} subs={} rejected=0", job.subs);
    for k in job.frames {
        if Instant::now() >= job.deadline {
            break;
        }
        let frame_id = (lane << 32) | (k as u64 + 1);
        let frame_span = tracer.begin("frame", frame_id);
        let payload = tracer.span("gen", frame_id, || {
            job.feed.frame(job.chan, k * rpf, (k + 1) * rpf)
        });
        let sent = Instant::now();
        run.first_send.get_or_insert(sent);
        let reply = io(
            client.request_traced(&payload, &mut tracer, frame_id, "await_reply"),
            "FEED",
        )?;
        let acked = Instant::now();
        tracer.end(frame_span);
        run.ack_ms.push((acked - sent).as_secs_f64() * 1e3);
        run.last_ack = Some(acked);
        if reply == expected {
            run.acked += 1;
        } else {
            // A refused frame's rows are not in the reference; stop this
            // feeder so later frames cannot arrive out of order.
            run.non_ok += 1;
            break;
        }
    }
    run.spans = tracer.spans;
    Ok(run)
}

/// Sums and counts scraped from `/metrics`, accumulated over the server
/// incarnations of one pass (counters restart with the process).
#[derive(Default)]
struct Scraped {
    histograms: [(f64, f64); 5],
    counters: [f64; 5],
}

const HISTOGRAMS: [(&str, &str); 5] = [
    (
        "server.frame_decode_us_mean",
        "sqlts_server_frame_decode_micros",
    ),
    (
        "server.wal_append_us_mean",
        "sqlts_server_wal_append_micros",
    ),
    ("server.fsync_us_mean", "sqlts_server_fsync_micros"),
    ("server.fanout_us_mean", "sqlts_server_fanout_micros"),
    ("server.snapshot_us_mean", "sqlts_server_snapshot_micros"),
];
const COUNTERS: [(&str, &str); 5] = [
    ("server.wal_appends", "sqlts_server_wal_appends_total"),
    ("server.wal_fsyncs", "sqlts_server_wal_fsyncs_total"),
    ("server.snapshots", "sqlts_server_snapshots_total"),
    (
        "server.wal_truncations",
        "sqlts_server_wal_truncations_total",
    ),
    ("server.rows_fed", "sqlts_server_rows_fed_total"),
];

impl Scraped {
    fn absorb(&mut self, addr: &str) -> Res<()> {
        let text = io(scrape_metrics(addr), "scrape /metrics")?;
        for (slot, (_, series_name)) in self.histograms.iter_mut().zip(HISTOGRAMS) {
            let count = series(&text, &format!("{series_name}_count")).unwrap_or(0.0);
            slot.0 += histogram_mean(&text, series_name) * count;
            slot.1 += count;
        }
        for (slot, (_, series_name)) in self.counters.iter_mut().zip(COUNTERS) {
            *slot += series(&text, series_name).unwrap_or(0.0);
        }
        Ok(())
    }

    fn into_values(self, out: &mut Values) {
        for ((sum, count), (name, _)) in self.histograms.into_iter().zip(HISTOGRAMS) {
            out.insert(name, if count > 0.0 { sum / count } else { 0.0 });
        }
        for (total, (name, _)) in self.counters.into_iter().zip(COUNTERS) {
            out.insert(name, total);
        }
    }
}

/// One pass's measurements.
struct Pass {
    rows_acked: u64,
    acked_per_feeder: Vec<usize>,
    wall_s: f64,
    /// Sum over client threads of their busy wall, for the span check.
    thread_wall_s: f64,
    ack_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    restart_gap_ms: Vec<f64>,
    results: Vec<String>,
    complete: bool,
    peak_rss_mb: f64,
    scraped: Option<Scraped>,
    wal_bytes_per_row: f64,
    spans: Vec<Span>,
}

/// One run of one server workload: what to drive, where, and the op
/// accounting so far.  With `log` set the run is traced: harness spans
/// are recorded, `/metrics` is scraped around the pass, and every server
/// is started with `--log <log> --log-level debug`.
struct Session<'a> {
    env: &'a Env,
    spec: &'a Spec,
    scale: &'a Scale,
    seed: u64,
    log: Option<PathBuf>,
    /// Data directories made so far; each rig gets its own.
    dirs: usize,
    tally: Tally,
}

impl<'a> Session<'a> {
    fn new(
        env: &'a Env,
        spec: &'a Spec,
        scale: &'a Scale,
        seed: u64,
        log: Option<PathBuf>,
    ) -> Self {
        Session {
            env,
            spec,
            scale,
            seed,
            log,
            dirs: 0,
            tally: Tally::default(),
        }
    }

    fn traced(&self) -> bool {
        self.log.is_some()
    }

    fn spawn_server(&self, data_dir: Option<&Path>) -> Res<ServerProc> {
        let mut flags = self.spec.flags.clone();
        if let Some(dir) = data_dir {
            flags.extend(["--data-dir".to_string(), dir.display().to_string()]);
        }
        if let Some(log) = &self.log {
            flags.extend([
                "--log".to_string(),
                log.display().to_string(),
                "--log-level".into(),
                "debug".into(),
            ]);
        }
        io(
            ServerProc::spawn(&self.env.server_bin, &flags),
            "spawn server",
        )
    }

    /// OPEN channel `q<pass>` and SUBSCRIBE the spec's queries on it.
    fn open_and_subscribe(&mut self, addr: &str, pass: usize) -> Res<Client> {
        let mut control = io(Client::connect(addr), "connect")?;
        let chan = format!("q{pass}");
        let reply = io(
            control.request(&format!("OPEN {chan} {SCHEMA_SPEC}")),
            "OPEN",
        )?;
        self.tally.expect(&reply, &format!("OK opened {chan}"));
        for (i, sql) in self.spec.queries.iter().enumerate() {
            let id = sub_id(pass, i);
            let reply = io(
                control.request(&format!("SUBSCRIBE {id} {chan}\n{sql}")),
                "SUBSCRIBE",
            )?;
            self.tally.expect(&reply, &format!("OK subscribed {id}"));
        }
        Ok(control)
    }

    /// Everything before the first measured operation, from nothing: data
    /// generation, server spawn to `listening on`, OPEN and SUBSCRIBE.
    fn set_up(&mut self) -> Res<Rig> {
        self.dirs += 1;
        let data_dir = self.spec.durable.then(|| {
            self.env
                .tmp_dir
                .join(format!("data-{}-{}", self.spec.name, self.dirs))
        });
        let started = Instant::now();
        let feeds = self.spec.feeds(self.scale, self.seed);
        let server = self.spawn_server(data_dir.as_deref())?;
        let control = self.open_and_subscribe(&server.addr, 0)?;
        Ok(Rig {
            server,
            data_dir,
            feeds,
            control,
            setup_s: started.elapsed().as_secs_f64(),
        })
    }

    /// Feed one pass through `rig` (whose channel `q<pass>` and
    /// subscriptions already exist), killing and recovering at the spec's
    /// kill points, then UNSUBSCRIBE and verify.  `budget` bounds the
    /// measured time.
    fn run_pass(&mut self, rig: &mut Rig, pass: usize, budget: Duration) -> Res<Pass> {
        let (spec, rpf) = (self.spec, self.scale.rows_per_frame);
        let origin = Instant::now();
        let mut tracer = Tracer::new(self.traced(), origin, 0);
        let chan = format!("q{pass}");
        let mut out = Pass {
            rows_acked: 0,
            acked_per_feeder: vec![0; spec.feeders],
            wall_s: 0.0,
            thread_wall_s: 0.0,
            ack_ms: Vec::new(),
            recovery_ms: Vec::new(),
            restart_gap_ms: Vec::new(),
            results: Vec::new(),
            complete: true,
            peak_rss_mb: 0.0,
            scraped: self.traced().then(Scraped::default),
            wal_bytes_per_row: 0.0,
            spans: Vec::new(),
        };
        let segments = spec.segments();
        let mut last_ack: Option<Instant> = None;
        let mut killed_at: Option<Instant> = None;
        for (s, quotas) in segments.iter().enumerate() {
            let remaining = budget.saturating_sub(Duration::from_secs_f64(out.wall_s));
            let launched = Instant::now();
            if let Some(killed) = killed_at.take() {
                out.restart_gap_ms
                    .push((launched - killed).as_secs_f64() * 1e3);
            }
            let jobs: Vec<FeederJob> = (0..spec.feeders)
                .map(|f| FeederJob {
                    addr: &rig.server.addr,
                    feed: &rig.feeds[f],
                    chan: &chan,
                    lane: f,
                    frames: out.acked_per_feeder[f]..out.acked_per_feeder[f] + quotas[f],
                    rows_per_frame: rpf,
                    subs: spec.queries.len(),
                    deadline: launched + remaining,
                    trace_from: self.traced().then_some(origin),
                })
                .collect();
            let runs: Vec<Res<FeederRun>> = std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|job| scope.spawn(|| run_feeder(job)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("feeder thread panicked".into()))
                    })
                    .collect()
            });
            let mut first_send: Option<Instant> = None;
            let mut segment_done = true;
            for (f, run) in runs.into_iter().enumerate() {
                let run = run?;
                self.tally.attempted += run.ack_ms.len() as u64;
                self.tally.failed += run.non_ok;
                segment_done &= run.acked == quotas[f];
                out.acked_per_feeder[f] += run.acked;
                out.ack_ms.extend(&run.ack_ms);
                if let (Some(a), Some(b)) = (run.first_send, run.last_ack) {
                    out.thread_wall_s += (b - a).as_secs_f64();
                    first_send = Some(first_send.map_or(a, |x| x.min(a)));
                    last_ack = Some(last_ack.map_or(b, |x| x.max(b)));
                }
                out.spans.extend(run.spans);
            }
            if let (Some(a), Some(b)) = (first_send, last_ack) {
                out.wall_s += (b - a).as_secs_f64();
            }
            if !segment_done {
                out.complete = false;
                break;
            }
            if s + 1 == segments.len() {
                break;
            }
            // Kill between acknowledged frames, restart on the same directory.
            if let Some(scraped) = out.scraped.as_mut() {
                scraped.absorb(&rig.server.addr)?;
            }
            let restart = tracer.begin("restart", 0);
            let restart_started = Instant::now();
            killed_at = Some(restart_started);
            rig.server.kill();
            rig.server = self.spawn_server(rig.data_dir.as_deref())?;
            rig.control = io(Client::connect(&rig.server.addr), "reconnect")?;
            let pong = io(rig.control.request("PING"), "PING after recovery")?;
            out.recovery_ms
                .push(restart_started.elapsed().as_secs_f64() * 1e3);
            tracer.end(restart);
            out.thread_wall_s += restart_started.elapsed().as_secs_f64();
            self.tally.expect(&pong, "OK pong");
        }
        out.rows_acked = (out.acked_per_feeder.iter().sum::<usize>() * rpf) as u64;
        if let (true, Some(dir)) = (self.traced(), &rig.data_dir) {
            out.wal_bytes_per_row = dir_bytes(dir) as f64 / out.rows_acked.max(1) as f64;
        }
        // Work deferred to UNSUBSCRIBE counts: the clock stops when the last
        // RESULT has been read.
        let unsub_started = Instant::now();
        for i in 0..spec.queries.len() {
            let request = format!("UNSUBSCRIBE {}", sub_id(pass, i));
            let reply = io(
                rig.control
                    .request_traced(&request, &mut tracer, 0, "read_result"),
                "UNSUBSCRIBE",
            )?;
            self.tally.attempted += 1;
            out.results.push(reply);
        }
        let results_read = Instant::now();
        out.wall_s += (results_read - last_ack.unwrap_or(unsub_started)).as_secs_f64();
        out.thread_wall_s += (results_read - unsub_started).as_secs_f64();
        out.peak_rss_mb = rig.server.peak_rss_mb();
        if let Some(scraped) = out.scraped.as_mut() {
            scraped.absorb(&rig.server.addr)?;
        }
        // Verify every RESULT byte for byte against batch execute over
        // exactly the acknowledged rows.
        let verify_started = Instant::now();
        let verify = tracer.begin("verify", 0);
        let prefixes: Vec<&[Vec<sqlts_relation::Value>]> = rig
            .feeds
            .iter()
            .zip(&out.acked_per_feeder)
            .map(|(feed, acked)| &feed.rows[..acked * rpf])
            .collect();
        for (i, sql) in spec.queries.iter().enumerate() {
            let id = sub_id(pass, i);
            let expected = batch_csv(sql, &prefixes);
            match result_body(&out.results[i], &id) {
                Some(body) if body == expected => {}
                Some(body) => self.tally.mismatch(format!(
                    "{id}: RESULT differs from batch ({} vs {} lines)",
                    body.lines().count(),
                    expected.lines().count()
                )),
                None => self.tally.mismatch(format!(
                    "{id}: not a clean RESULT: '{}'",
                    first_line(&out.results[i])
                )),
            }
        }
        tracer.end(verify);
        out.thread_wall_s += verify_started.elapsed().as_secs_f64();
        out.spans.extend(tracer.spans);
        Ok(out)
    }

    /// Timed passes until `seconds` of measured time are used (at most
    /// `max_passes`).  In-memory passes share the server and take a fresh
    /// channel each; a durable pass gets a fresh server on a fresh
    /// directory, which numbers its channel and subscriptions from 0 again.
    fn measure(&mut self, rig: &mut Rig, seconds: f64, max_passes: usize) -> Res<Vec<Pass>> {
        let mut passes: Vec<Pass> = Vec::new();
        let mut measured = 0.0;
        while passes.len() < max_passes && measured + 0.02 * seconds < seconds {
            let index = passes.len();
            let pass_no = if self.spec.durable { 0 } else { index };
            if index > 0 && self.spec.durable {
                *rig = self.set_up()?;
            } else if index > 0 {
                rig.control = self.open_and_subscribe(&rig.server.addr, pass_no)?;
            }
            let pass = self.run_pass(rig, pass_no, Duration::from_secs_f64(seconds - measured))?;
            measured += pass.wall_s;
            passes.push(pass);
        }
        // Counts repeat exactly: every complete pass fed the same rows and
        // must have produced the same bytes.
        let mut complete = passes.iter().filter(|p| p.complete);
        if let Some(first) = complete.next() {
            if complete.any(|p| {
                p.rows_acked != first.rows_acked
                    || strip_ids(&p.results) != strip_ids(&first.results)
            }) {
                self.tally
                    .mismatch("complete passes disagree on rows or result bytes".into());
            }
        }
        Ok(passes)
    }
}

/// RESULT replies with the subscription id (which names the pass) removed.
fn strip_ids(results: &[String]) -> Vec<&str> {
    results
        .iter()
        .map(|r| r.split_once(" 0 ").map_or(r.as_str(), |(_, rest)| rest))
        .collect()
}

fn throughput(passes: &[Pass]) -> f64 {
    let rows: u64 = passes.iter().map(|p| p.rows_acked).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    rows as f64 / wall.max(1e-9)
}

/// The untraced run: several set-ups (median reported), then timed
/// passes for `seconds`.
pub fn run_untraced(
    env: &Env,
    spec: &Spec,
    scale: &Scale,
    seed: u64,
    seconds: f64,
) -> Res<Outcome> {
    let mut session = Session::new(env, spec, scale, seed, None);
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..scale.setup_reps {
        // One server at a time: the previous rig goes before the next comes.
        drop(rig.take());
        let fresh = session.set_up()?;
        setups.push(fresh.setup_s);
        rig = Some(fresh);
    }
    let mut rig = rig.ok_or("setup_reps must be at least 1")?;
    let passes = session.measure(&mut rig, seconds, usize::MAX)?;
    let ack_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ack_ms.iter().copied())
        .collect();
    let mut outcome = Outcome {
        samples: ack_ms.len(),
        passes: passes.len(),
        server_argv: rig.server.argv.clone(),
        ..Outcome::default()
    };
    outcome.e2e.insert("setup_s", median(&setups));
    outcome.e2e.insert("rows_per_s", throughput(&passes));
    outcome.e2e.insert("op_p50_ms", median(&ack_ms));
    outcome.e2e.insert("op_p95_ms", percentile(&ack_ms, 95.0));
    outcome.e2e.insert("peak_rss_mb", passes[0].peak_rss_mb);
    outcome.tally = session.tally;
    Ok(outcome)
}

/// The traced run: one untraced pass for reference, then one pass with
/// harness spans recorded and the server's `--log` armed.  Fills the
/// workload-specific per-layer metrics; the caller adds the probes.
pub fn run_traced(env: &Env, spec: &Spec, scale: &Scale, seed: u64, seconds: f64) -> Res<Outcome> {
    let mut reference = Session::new(env, spec, scale, seed, None);
    let reference_rows_per_s = {
        let mut rig = reference.set_up()?;
        throughput(&reference.measure(&mut rig, seconds, 1)?)
    };
    let log = env.out_dir.join(format!("server_{}.log.jsonl", spec.name));
    let _ = std::fs::remove_file(&log);
    let mut session = Session::new(env, spec, scale, seed, Some(log));
    let mut rig = session.set_up()?;
    let pass = session
        .measure(&mut rig, seconds, 1)?
        .pop()
        .ok_or("traced run made no pass")?;
    let mut outcome = Outcome {
        samples: pass.ack_ms.len(),
        passes: 1,
        server_argv: rig.server.argv.clone(),
        ..Outcome::default()
    };
    let traced_rows_per_s = pass.rows_acked as f64 / pass.wall_s.max(1e-9);
    let layer = &mut outcome.layer;
    layer.insert(
        "trace.overhead_pct",
        100.0 * (reference_rows_per_s - traced_rows_per_s) / reference_rows_per_s.max(1e-9),
    );
    let op_p50_us = median(&pass.ack_ms) * 1e3;
    if let Some(scraped) = pass.scraped {
        scraped.into_values(layer);
        let covered: f64 = HISTOGRAMS[..4].iter().map(|(name, _)| layer[name]).sum();
        layer.insert(
            "server.unattributed_pct",
            100.0 * (1.0 - covered / op_p50_us.max(1e-9)),
        );
    }
    layer.insert("server.wal_bytes_per_row", pass.wal_bytes_per_row);
    layer.insert("server.recovery_p50_ms", median(&pass.recovery_ms));
    layer.insert("bench.restart_gap_ms", median(&pass.restart_gap_ms));
    crate::report::span_metrics(&pass.spans, pass.thread_wall_s, layer);
    let covered_pct = layer["trace.self_sum_pct"];
    if (covered_pct - 100.0).abs() > 5.0 {
        session.tally.failed += 1;
        session.tally.notes.push(format!(
            "span self times cover {covered_pct:.1} % of the measured wall (must be within 5 of 100)"
        ));
    }
    outcome.spans = pass.spans;
    outcome.tally = session.tally;
    outcome.tally.absorb(reference.tally);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_split_kill_points_evenly_and_sum_to_the_pass() {
        let spec = Spec::of("durable_crash", &Scale::full()).unwrap();
        let segments = spec.segments();
        assert_eq!(segments.len(), 5, "four kills make five segments");
        assert_eq!(segments[0], vec![32, 31]);
        assert_eq!(segments[1], vec![31, 32]);
        let mut channel_frames = 0;
        for (segment, kill) in segments.iter().zip([63, 126, 189, 252]) {
            channel_frames += segment.iter().sum::<usize>();
            assert_eq!(
                channel_frames, kill,
                "kill lands on its channel-frame ordinal"
            );
        }
        for f in 0..2 {
            assert_eq!(segments.iter().map(|q| q[f]).sum::<usize>(), 175);
        }
        let solo = Spec::of("solo_mem", &Scale::full()).unwrap();
        assert_eq!(solo.segments(), vec![vec![150]]);
        assert!(Spec::of("nope", &Scale::full()).is_none());
    }

    #[test]
    fn feeds_cover_the_pass_with_disjoint_symbols() {
        let scale = Scale::smoke();
        let spec = Spec::of("durable_crash", &scale).unwrap();
        let feeds = spec.feeds(&scale, 5);
        assert_eq!(feeds.len(), 2);
        for feed in &feeds {
            assert!(feed.lines.len() >= spec.frames_per_feeder * scale.rows_per_frame);
        }
        assert!(feeds[0].lines.iter().all(|l| l < &"S0004".to_string()));
        assert!(feeds[1].lines.iter().all(|l| l >= &"S0004".to_string()));
    }

    #[test]
    fn strip_ids_ignores_the_pass_number_only() {
        let a = vec!["RESULT s0_0 0 rows=2\nh\nx\n".to_string()];
        let b = vec!["RESULT s3_0 0 rows=2\nh\nx\n".to_string()];
        let c = vec!["RESULT s3_0 0 rows=2\nh\ny\n".to_string()];
        assert_eq!(strip_ids(&a), strip_ids(&b));
        assert_ne!(strip_ids(&a), strip_ids(&c));
    }
}
