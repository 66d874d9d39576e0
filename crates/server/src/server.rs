//! The TCP server: accept loop, per-connection protocol driver, shared
//! channel/subscription registries, and the `GET /metrics` HTTP shim.
//!
//! ## Protocol
//!
//! Every frame (see [`crate::frame`]) carries one request or one reply.
//! Request payloads are a verb line plus optional body lines:
//!
//! ```text
//! PING
//! OPEN <channel> <name:type,...>
//! SUBSCRIBE <sub-id> <channel>
//! <SQL-TS query ...>
//! RESUME <sub-id> <channel>
//! <SQL-TS query on one line>
//! <sqlts-checkpoint v1 text ...>
//! FEED <channel>
//! <csv row>
//! <csv row ...>
//! STATUS <sub-id>
//! CHECKPOINT <sub-id>
//! UNSUBSCRIBE <sub-id>
//! ```
//!
//! Replies are `OK ...`, `ERR <code> <message>` (codes mirror the CLI's
//! exit classes: 2 usage/protocol, 3 input, 4 runtime/governed/admission,
//! 5 quarantine), `CHECKPOINT <sub-id>` + checkpoint text, or
//! `RESULT <sub-id> <code>` + CSV — the latter carrying partial results
//! with code 4 when the subscription's governor tripped.
//!
//! ## Tenancy model
//!
//! A *channel* is a named, schema-typed input feed; any connection may
//! `FEED` it and every subscription on it sees the same tuples.  A
//! *subscription* is one standing query over one channel, owned by the
//! connection that created it: a lock-guarded [`SessionWorker`] session
//! under the server's default governor budgets.  There is no thread per
//! subscription — the connection thread that `FEED`s a channel runs the
//! matcher of every subscriber on that channel in turn, so isolation is
//! per channel (and per connection), not per subscription.  A stalled
//! tenant's wall-clock deadline is seen tripped by the next `STATUS`,
//! `CHECKPOINT`, `UNSUBSCRIBE` or scrape, with no further `FEED`.  When a
//! connection closes, its subscriptions are finished and their profiles
//! retained for `/metrics`; a client that wants to survive a disconnect
//! takes a `CHECKPOINT` first and `RESUME`s on a new connection.
//!
//! ## Durability (`--data-dir`)
//!
//! With a data directory configured the server becomes crash-safe:
//!
//! * every accepted `FEED` frame is appended to the channel's WAL
//!   ([`crate::wal`]) *before* it fans out, under the channel's persist
//!   lock, so WAL order is exactly feed order;
//! * every subscription's checkpoint is snapshotted atomically every
//!   [`ServerConfig::checkpoint_every_frames`] frames and on fresh
//!   governor trips, and the minimum snapshot position (the low-water
//!   mark) truncates the WAL behind it;
//! * on restart [`Server::bind`] recovers: channels reopen, workers
//!   resume from their snapshots, and the WAL tail replays exactly the
//!   rows each worker has not seen — making output and metrics
//!   byte-identical to an uninterrupted run (see [`crate::recover`]);
//! * recovered subscriptions belong to connection 0, which never closes:
//!   they outlive their original client, and any connection may
//!   `STATUS`/`CHECKPOINT`/`UNSUBSCRIBE` them.
//!
//! Without `--data-dir` nothing below changes observably: no files, no
//! extra reply fields, identical wire traffic.

use crate::frame::{read_frame_timed, write_frame, FrameEvent, FrameFatal};
use crate::metrics::{
    live_gauges, repl_exposition, status_json, LatencyOp, ServerMetrics, SubStatusView,
};
use crate::profiler::SamplingProfiler;
use crate::recover::{
    encode_name, replay_channel, schema_spec, DataDir, ReplaySub, ServeError, SubMeta,
};
use crate::replicate::{
    self, parse_ack, parse_hello, parse_opened_rows, send_repl, ReplAck, ReplCmd, ReplSnapshot,
    Replicator,
};
use crate::wal::{crc32, ChannelWal, FsyncPolicy, GroupCommit, WalFrame};
use sqlts_core::{
    EngineKind, Governor, Instrument, SessionCheckpoint, SessionWorker, SessionWorkerConfig,
    SetRegistry, SharedSpec, TripReason, WorkerError,
};
use sqlts_relation::{parse_headerless_row, ColumnType, Schema};
use sqlts_trace::{Level, LogFormat, PatternSetStats, SpanLog};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Everything the server needs to stand up.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub listen: String,
    /// Admission cap: maximum concurrently live subscriptions.
    pub max_subscriptions: usize,
    /// Largest accepted frame payload; larger frames are drained and
    /// answered with `ERR 2`.
    pub max_frame_bytes: usize,
    /// Default resource budgets applied to every subscription.
    pub governor: Governor,
    /// Engine for fresh subscriptions (resume adopts the checkpoint's).
    pub engine: EngineKind,
    /// How many finished subscription profiles `/metrics` retains.
    pub retain_profiles: usize,
    /// Durable state directory; `None` keeps the server fully in-memory
    /// with behaviour identical to previous releases.
    pub data_dir: Option<PathBuf>,
    /// When to fsync WAL appends (only meaningful with `data_dir`).
    pub fsync: FsyncPolicy,
    /// Snapshot every subscription on a channel after this many FEED
    /// frames (clamped to ≥ 1; only meaningful with `data_dir`).
    pub checkpoint_every_frames: u64,
    /// Structured span log destination (`--log`); `None` leaves the hot
    /// path with a single never-taken branch per record site.
    pub log_file: Option<PathBuf>,
    /// Span log encoding (`--log-format json|text`).
    pub log_format: LogFormat,
    /// Span log filter level (`--log-level error|warn|info|debug`).
    pub log_level: Level,
    /// Rotate the span log past this size (`--log-rotate-bytes`; 0
    /// disables rotation).
    pub log_rotate_bytes: u64,
    /// Warn about any frame whose decode+dispatch exceeds this many
    /// milliseconds (`--slow-frame-ms`); `None` disables the check.
    pub slow_frame_ms: Option<u64>,
    /// Collapsed-stack sampling-profile destination
    /// (`--sample-profile`); `None` runs no profiler thread.
    pub sample_profile: Option<PathBuf>,
    /// Profiler sample rate (`--sample-hz`, clamped to 1..=1000).
    pub sample_hz: u32,
    /// Whether subscriptions join their channel's shared pattern-set
    /// registry (`--shared-matcher on|off`); queries with no shareable
    /// element still fall back to a solo pass.  Off, every subscription
    /// runs its own matcher.
    pub shared_matcher: bool,
    /// Segment roll threshold for channel WALs (`--wal-segment-bytes`).
    pub wal_segment_bytes: u64,
    /// Stream every committed WAL record to this `HOST:PORT` standby
    /// (`--replicate-to`; requires `data_dir`).
    pub replicate_to: Option<String>,
    /// FEED acknowledgement mode relative to standby shipping
    /// (`--repl-ack sync|async`).
    pub repl_ack: ReplAck,
    /// Run as a warm standby: accept only `REPL` traffic, `PROMOTE`,
    /// `PING`, `STATUS` and HTTP scrapes until promoted
    /// (`--standby`; requires `data_dir`).
    pub standby: bool,
    /// Self-promote when the primary's replication connection drops
    /// (`--promote-on-disconnect`; standby only).
    pub promote_on_disconnect: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            max_subscriptions: 64,
            max_frame_bytes: 1 << 20,
            governor: Governor::unlimited(),
            engine: EngineKind::Ops,
            retain_profiles: 32,
            data_dir: None,
            fsync: FsyncPolicy::Every,
            checkpoint_every_frames: 64,
            log_file: None,
            log_format: LogFormat::Json,
            log_level: Level::Info,
            log_rotate_bytes: 0,
            slow_frame_ms: None,
            sample_profile: None,
            sample_hz: 99,
            shared_matcher: false,
            wal_segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            replicate_to: None,
            repl_ack: ReplAck::Async,
            standby: false,
            promote_on_disconnect: false,
        }
    }
}

struct Subscription {
    worker: Arc<SessionWorker>,
    conn: u64,
    /// Channel, join-time row/record base and SQL — exactly what a
    /// durable server persists beside the checkpoint.
    meta: Arc<SubMeta>,
}

/// Per-channel durable state, guarded by one mutex so that WAL append
/// order is exactly fan-out order.  Lock ordering: a holder of this lock
/// may take the `subs` lock, never the reverse.
struct ChannelPersist {
    /// Rows accepted on this channel since it was opened (durable: the
    /// WAL's row count when one exists).
    rows_total: u64,
    /// The write-ahead log; `None` without a data dir.
    wal: Option<ChannelWal>,
    /// FEED frames since the last snapshot pass.
    frames_since_snapshot: u64,
    /// Subscription ids whose trip has already forced a snapshot, so a
    /// latched subscription does not snapshot the channel on every frame.
    tripped_seen: HashSet<String>,
}

#[derive(Clone)]
struct Channel {
    schema: Schema,
    persist: Arc<Mutex<ChannelPersist>>,
    /// The channel's shared pattern-set registry.  Always present (it is
    /// an empty `Vec` behind a mutex until someone joins); subscriptions
    /// only join it when [`ServerConfig::shared_matcher`] says so.
    registry: Arc<SetRegistry>,
    /// Group-commit coordinator for `--fsync group` (idle otherwise).
    group: Arc<GroupCommit>,
}

impl Channel {
    fn new(schema: Schema) -> Channel {
        Channel {
            schema,
            persist: Arc::new(Mutex::new(ChannelPersist {
                rows_total: 0,
                wal: None,
                frames_since_snapshot: 0,
                tripped_seen: HashSet::new(),
            })),
            registry: Arc::new(SetRegistry::new()),
            group: Arc::new(GroupCommit::default()),
        }
    }
}

struct Shared {
    config: ServerConfig,
    channels: Mutex<HashMap<String, Channel>>,
    subs: Mutex<HashMap<String, Subscription>>,
    metrics: ServerMetrics,
    next_conn: AtomicU64,
    /// The locked durable state directory, when configured.
    data: Option<DataDir>,
    /// Live client sockets, for the parting error at drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Set for the rest of the process's life once a drain begins.
    /// Connection reapers check it: the socket shutdowns drain sends wake
    /// every connection thread, and those must not mistake the drain for
    /// a client disconnect and delete durable state the drain just
    /// snapshotted.
    draining: AtomicBool,
    /// The armed structured span log, `None` when `--log` is absent.
    /// Every record site is `if let Some(log) = &shared.log` — one
    /// predictable branch when unarmed, exactly PR 3's discipline.
    log: Option<SpanLog>,
    /// True while this server is an unpromoted warm standby (starts as
    /// [`ServerConfig::standby`], cleared atomically by promotion).
    standby: AtomicBool,
    /// Promotion requested out-of-band (SIGUSR1 relay, primary
    /// disconnect); serviced by the accept loop.
    promote: AtomicBool,
    /// The primary-side replication handle, `None` without
    /// `--replicate-to`.
    repl: Option<Replicator>,
    /// On a standby: the connection id currently speaking `REPL` (0 =
    /// none), so its disconnect can trigger `--promote-on-disconnect`.
    repl_conn: AtomicU64,
}

impl Shared {
    /// Begin a span if the log is armed; 0 otherwise (and [`span_end`]
    /// of 0 is free).
    fn span_begin(&self, level: Level, name: &str, parent: u64, fields: &[(&str, &str)]) -> u64 {
        match &self.log {
            Some(log) => log.begin(level, name, parent, fields),
            None => 0,
        }
    }

    fn span_end(&self, level: Level, name: &str, id: u64, fields: &[(&str, &str)]) {
        if let Some(log) = &self.log {
            log.end(level, name, id, fields);
        }
    }

    fn span_event(&self, level: Level, name: &str, fields: &[(&str, &str)]) {
        if let Some(log) = &self.log {
            log.event(level, name, fields);
        }
    }
}

/// What a recovery pass restored, for startup diagnostics.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Channels reopened from the data dir.
    pub channels: usize,
    /// Subscriptions respawned from snapshots.
    pub subscriptions: usize,
    /// WAL row deliveries accepted during replay.
    pub rows_replayed: u64,
    /// WAL row deliveries rejected by latched workers during replay.
    pub rows_rejected: u64,
    /// Torn/corrupt WAL tail bytes discarded.
    pub dropped_bytes: u64,
    /// Human-readable notes (one per dropped tail).
    pub notes: Vec<String>,
}

/// A bound server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    recovery: Option<RecoveryReport>,
    /// The sampling profiler thread (`--sample-profile`); stopped (with
    /// a final flush) at drain, or on drop.
    profiler: Mutex<Option<SamplingProfiler>>,
    /// The replication shipping thread (`--replicate-to`); it holds only
    /// a [`Weak`] on [`Shared`] and is joined on drop so a dropped
    /// server releases its data dir promptly.
    repl_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(repl) = self.shared.repl.as_ref() {
            repl.shutdown();
        }
        if let Ok(mut slot) = self.repl_thread.lock() {
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Server {
    /// Bind the listen socket, lock the data dir and recover durable
    /// state (both only when `data_dir` is configured).  Every failure is
    /// a typed [`ServeError`] on the CLI's exit-code classes.
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        if config.standby && config.data_dir.is_none() {
            return Err(ServeError::Usage("--standby requires --data-dir".into()));
        }
        if config.replicate_to.is_some() && config.data_dir.is_none() {
            return Err(ServeError::Usage(
                "--replicate-to requires --data-dir".into(),
            ));
        }
        if config.standby && config.replicate_to.is_some() {
            return Err(ServeError::Usage(
                "--standby and --replicate-to are mutually exclusive (chaining is not supported)"
                    .into(),
            ));
        }
        if config.standby && matches!(config.fsync, FsyncPolicy::Group { .. }) {
            // Group commit is driven by concurrent FEED threads; a standby
            // applies frames from one replication connection and would
            // never elect a leader.
            return Err(ServeError::Usage(
                "--standby does not support --fsync group; use every|off".into(),
            ));
        }
        if config.promote_on_disconnect && !config.standby {
            return Err(ServeError::Usage(
                "--promote-on-disconnect requires --standby".into(),
            ));
        }
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| ServeError::Usage(format!("bind {}: {e}", config.listen)))?;
        let data = config
            .data_dir
            .as_ref()
            .map(|root| DataDir::lock(root))
            .transpose()?;
        let log = config
            .log_file
            .as_ref()
            .map(|path| {
                SpanLog::open(
                    path,
                    config.log_level,
                    config.log_format,
                    config.log_rotate_bytes,
                )
                .map_err(|e| ServeError::Usage(format!("open log {}: {e}", path.display())))
            })
            .transpose()?;
        let retain = config.retain_profiles;
        let (repl, repl_rx) = match config.replicate_to.clone() {
            Some(target) => {
                let (repl, rx) = Replicator::new(target, config.repl_ack);
                (Some(repl), Some(rx))
            }
            None => (None, None),
        };
        let standby = config.standby;
        let shared = Arc::new(Shared {
            config,
            channels: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
            metrics: ServerMetrics::new(retain),
            next_conn: AtomicU64::new(1),
            data,
            conns: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            log,
            standby: AtomicBool::new(standby),
            promote: AtomicBool::new(false),
            repl,
            repl_conn: AtomicU64::new(0),
        });
        let recovery = if shared.data.is_some() {
            let span = shared.span_begin(Level::Warn, "recovery", 0, &[]);
            let report = recover(&shared)?;
            for note in &report.notes {
                shared.span_event(Level::Warn, "recovery_dropped_tail", &[("note", note)]);
            }
            shared.span_end(
                Level::Warn,
                "recovery",
                span,
                &[
                    ("channels", &report.channels.to_string()),
                    ("subscriptions", &report.subscriptions.to_string()),
                    ("rows_replayed", &report.rows_replayed.to_string()),
                    ("rows_rejected", &report.rows_rejected.to_string()),
                ],
            );
            Some(report)
        } else {
            None
        };
        let profiler = shared.config.sample_profile.clone().map(|path| {
            let registry = Arc::clone(&shared);
            SamplingProfiler::spawn(path, shared.config.sample_hz, move |out| {
                if let Ok(subs) = registry.subs.lock() {
                    for (id, sub) in subs.iter() {
                        out.push((id.clone(), sub.worker.phase_tag().phase().as_str()));
                    }
                }
            })
        });
        let repl_thread = repl_rx.and_then(|rx| {
            let repl = shared.repl.as_ref().expect("rx implies a replicator");
            let stop = Arc::clone(&repl.stop);
            let weak = Arc::downgrade(&shared);
            std::thread::Builder::new()
                .name("sqlts-repl".into())
                .spawn(move || replication_thread(&weak, &rx, &stop))
                .ok()
        });
        Ok(Server {
            listener,
            shared,
            recovery,
            profiler: Mutex::new(profiler),
            repl_thread: Mutex::new(repl_thread),
        })
    }

    /// A flag that, when set, makes the accept loop promote this standby
    /// (the CLI's SIGUSR1 relay sets it).  Setting it on a non-standby
    /// is a no-op beyond a logged failure.
    pub fn request_promotion(&self) {
        self.shared.promote.store(true, Ordering::SeqCst);
    }

    /// Whether this server is an unpromoted warm standby right now.
    pub fn is_standby(&self) -> bool {
        self.shared.standby.load(Ordering::SeqCst)
    }

    /// What recovery restored, when a data dir was configured.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The actually-bound address (resolves `:0`).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections forever, one thread per connection.
    pub fn run(&self) -> io::Result<()> {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.run_until(&NEVER)
    }

    /// Accept connections until `shutdown` becomes true, then drain
    /// gracefully: final snapshots, a parting `ERR 4` to every live
    /// client, the data-dir LOCK released, and a clean `Ok(())`.
    pub fn run_until(&self, shutdown: &AtomicBool) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                self.drain();
                return Ok(());
            }
            if self.shared.promote.swap(false, Ordering::SeqCst) {
                match promote_server(&self.shared) {
                    Ok(summary) => {
                        self.shared
                            .span_event(Level::Warn, "promoted", &[("summary", &summary)]);
                    }
                    Err(e) => {
                        self.shared
                            .span_event(Level::Warn, "promote_failed", &[("error", &e)]);
                    }
                }
            }
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let _ = stream.set_nonblocking(false);
                    // Replies are single small writes; never let Nagle park
                    // one behind the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let shared = Arc::clone(&self.shared);
                    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                    ServerMetrics::inc(&shared.metrics.connections_total);
                    shared.span_event(
                        Level::Info,
                        "accept",
                        &[("conn", &conn.to_string()), ("peer", &peer.to_string())],
                    );
                    if let Ok(clone) = stream.try_clone() {
                        if let Ok(mut conns) = shared.conns.lock() {
                            conns.insert(conn, clone);
                        }
                    }
                    let _ = std::thread::Builder::new()
                        .name(format!("sqlts-conn-{conn}"))
                        .spawn(move || {
                            let _ = handle_connection(&shared, stream, conn);
                            reap_connection(&shared, conn);
                            if let Ok(mut conns) = shared.conns.lock() {
                                conns.remove(&conn);
                            }
                            // Losing the primary's replication session is
                            // the failover trigger when the operator armed
                            // it.
                            let was_repl = shared
                                .repl_conn
                                .compare_exchange(conn, 0, Ordering::SeqCst, Ordering::SeqCst)
                                .is_ok();
                            if was_repl
                                && shared.config.promote_on_disconnect
                                && shared.standby.load(Ordering::SeqCst)
                                && !shared.draining.load(Ordering::SeqCst)
                            {
                                shared.span_event(
                                    Level::Warn,
                                    "primary_disconnected",
                                    &[("conn", &conn.to_string())],
                                );
                                shared.promote.store(true, Ordering::SeqCst);
                            }
                        });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn drain(&self) {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        if let Some(repl) = shared.repl.as_ref() {
            // Stop shipping first: a drain must not block on standby acks.
            repl.shutdown();
        }
        let span = shared.span_begin(Level::Warn, "drain", 0, &[]);
        let channels: Vec<(String, Channel)> = shared
            .channels
            .lock()
            .map(|map| map.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default();
        for (name, channel) in channels {
            if let Ok(mut persist) = channel.persist.lock() {
                snapshot_channel_locked(shared, &name, &channel, &mut persist, span);
                if let Some(wal) = persist.wal.as_mut() {
                    if wal.sync().is_ok() {
                        ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
                    }
                    shared
                        .metrics
                        .latency
                        .record_ns(LatencyOp::Fsync, wal.take_fsync_ns());
                }
            }
        }
        let parted = shared
            .conns
            .lock()
            .map(|mut conns| {
                let n = conns.len();
                for (_, mut stream) in conns.drain() {
                    let _ = write_frame(&mut stream, "ERR 4 server draining");
                    let _ = stream.shutdown(Shutdown::Both);
                }
                n
            })
            .unwrap_or(0);
        // Final flush before the LOCK release so a supervisor restarting
        // on drain-complete sees the whole profile.
        if let Ok(mut slot) = self.profiler.lock() {
            if let Some(profiler) = slot.take() {
                profiler.stop();
            }
        }
        if let Some(data) = shared.data.as_ref() {
            data.release();
        }
        shared.span_end(
            Level::Warn,
            "drain",
            span,
            &[("connections_parted", &parted.to_string())],
        );
        if let Some(log) = &shared.log {
            log.flush();
        }
    }
}

/// Rebuild channels, subscriptions and in-flight rows from a locked data
/// dir: reopen every channel's WAL (truncating torn tails), respawn every
/// subscription from its snapshot, replay the WAL rows each worker has
/// not yet seen, then snapshot everything so a crash loop cannot replay
/// unboundedly.
///
/// A `--standby` bind stops after the channel-open half: durable state is
/// live and appendable (the replication stream needs the WALs), but no
/// worker spawns until [`promote_server`] runs the second half.
fn recover(shared: &Shared) -> Result<RecoveryReport, ServeError> {
    let mut report = RecoveryReport::default();
    let frames_by_channel = open_durable_channels(shared, &mut report)?;
    if shared.config.standby {
        return Ok(report);
    }
    respawn_and_replay(shared, frames_by_channel, &mut report)?;
    Ok(report)
}

/// The channel half of recovery: reopen every channel's WAL (repairing
/// torn tails) and register it in the live channel map.  Returns each
/// channel's surviving frames for replay.
fn open_durable_channels(
    shared: &Shared,
    report: &mut RecoveryReport,
) -> Result<HashMap<String, Vec<WalFrame>>, ServeError> {
    let data = shared.data.as_ref().expect("recover requires a data dir");
    let mut frames_by_channel: HashMap<String, Vec<WalFrame>> = HashMap::new();
    let mut channels = shared
        .channels
        .lock()
        .map_err(|_| ServeError::Runtime("lock poisoned".into()))?;
    for (name, schema) in data.load_channels()? {
        let (mut wal, scan) = ChannelWal::open(&data.wal_path(&name), shared.config.fsync)?;
        wal.set_segment_bytes(shared.config.wal_segment_bytes);
        if scan.dropped_bytes > 0 {
            report.dropped_bytes += scan.dropped_bytes;
            report.notes.push(format!(
                "channel '{name}': dropped {} trailing wal bytes ({})",
                scan.dropped_bytes,
                scan.corruption
                    .as_deref()
                    .unwrap_or("unreported corruption")
            ));
        }
        frames_by_channel.insert(name.clone(), scan.frames);
        let channel = Channel {
            schema,
            persist: Arc::new(Mutex::new(ChannelPersist {
                rows_total: wal.rows_total(),
                wal: Some(wal),
                frames_since_snapshot: 0,
                tripped_seen: HashSet::new(),
            })),
            registry: Arc::new(SetRegistry::new()),
            group: Arc::new(GroupCommit::default()),
        };
        channels.insert(name, channel);
        report.channels += 1;
    }
    Ok(frames_by_channel)
}

/// The worker config every subscription runs under: the server's engine,
/// budgets and profiling, resuming from `resume_from` when given and —
/// under `--shared-matcher on` — joined to the channel's registry.
fn worker_config(
    shared: &Shared,
    id: &str,
    meta: &SubMeta,
    channel: &Channel,
    resume_from: Option<SessionCheckpoint>,
) -> SessionWorkerConfig {
    let mut config = SessionWorkerConfig::new(id, &meta.sql, channel.schema.clone());
    config.stream.exec.engine = shared.config.engine;
    config.stream.exec.governor = shared.config.governor.clone();
    config.stream.exec.instrument = Instrument::profiling();
    config.resume_from = resume_from;
    if shared.config.shared_matcher {
        // The alignment key: the channel row ordinal the session's
        // record 0 maps to.  It is invariant across checkpoints, so a
        // recovered subscription shares with exactly the peers it could
        // have shared with before the crash; a checkpoint claiming more
        // records than the channel had rows is aligned with nothing and
        // simply runs solo.
        config.shared = meta
            .base_rows
            .checked_sub(meta.base_records)
            .map(|origin| SharedSpec {
                registry: Arc::clone(&channel.registry),
                origin,
            });
    }
    config
}

/// The subscription half of recovery, shared with standby promotion:
/// respawn every persisted subscription from its snapshot and replay the
/// surviving WAL rows each worker has not yet seen.
fn respawn_and_replay(
    shared: &Shared,
    mut frames_by_channel: HashMap<String, Vec<WalFrame>>,
    report: &mut RecoveryReport,
) -> Result<(), ServeError> {
    let data = shared.data.as_ref().expect("recover requires a data dir");
    // Respawn each persisted subscription from its snapshot, noting the
    // first channel row it has NOT seen.
    let mut resume_at: HashMap<String, u64> = HashMap::new();
    for (id, meta, checkpoint) in data.load_subs()? {
        let channel = shared
            .channels
            .lock()
            .map_err(|_| ServeError::Runtime("lock poisoned".into()))?
            .get(&meta.channel)
            .cloned()
            .ok_or_else(|| {
                ServeError::Input(format!(
                    "subscription '{id}' references unknown channel '{}'",
                    meta.channel
                ))
            })?;
        let checkpoint = SessionCheckpoint::from_text(&checkpoint)
            .map_err(|e| ServeError::Input(format!("respawn subscription '{id}': {e}")))?;
        let config = worker_config(shared, &id, &meta, &channel, Some(checkpoint));
        let worker = SessionWorker::spawn(config).map_err(|e| recover_worker_err(&id, &e))?;
        resume_at.insert(id.clone(), meta.resume_ordinal(worker.records()));
        let mut subs = shared
            .subs
            .lock()
            .map_err(|_| ServeError::Runtime("lock poisoned".into()))?;
        subs.insert(
            id,
            Subscription {
                worker: Arc::new(worker),
                conn: 0,
                meta: Arc::new(meta),
            },
        );
        report.subscriptions += 1;
        ServerMetrics::inc(&shared.metrics.recovered_subscriptions_total);
    }
    // Replay each channel's surviving WAL rows into its workers.
    let channels: Vec<(String, Channel)> = shared
        .channels
        .lock()
        .map_err(|_| ServeError::Runtime("lock poisoned".into()))?
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for (name, channel) in channels {
        let frames = frames_by_channel.remove(&name).unwrap_or_default();
        let members: Vec<(String, Arc<SessionWorker>)> = {
            let subs = shared
                .subs
                .lock()
                .map_err(|_| ServeError::Runtime("lock poisoned".into()))?;
            subs.iter()
                .filter(|(_, s)| s.meta.channel == name)
                .map(|(id, s)| (id.clone(), Arc::clone(&s.worker)))
                .collect()
        };
        let mut replay_subs: Vec<ReplaySub<'_>> = members
            .iter()
            .map(|(id, worker)| ReplaySub {
                id,
                resume_ordinal: resume_at.get(id).copied().unwrap_or(0),
                worker,
            })
            .collect();
        let stats = replay_channel(&name, &channel.schema, &frames, &mut replay_subs)?;
        drop(replay_subs);
        report.rows_replayed += stats.rows_replayed;
        report.rows_rejected += stats.rows_rejected;
        ServerMetrics::add(
            &shared.metrics.rows_fed_total,
            stats.rows_replayed + stats.rows_rejected,
        );
        if let Ok(mut persist) = channel.persist.lock() {
            snapshot_channel_locked(shared, &name, &channel, &mut persist, 0);
        }
    }
    Ok(())
}

/// Promote a warm standby into a full primary: flip the standby flag
/// (atomically — a second `PROMOTE` loses), sync and rescan every
/// channel WAL from disk, then run the subscription half of recovery.
/// Byte-identity with the dead primary follows from the WAL being the
/// same bytes the primary shipped, and recovery being the same machinery
/// a crashed primary restarts with.
fn promote_server(shared: &Shared) -> Result<String, String> {
    if shared
        .standby
        .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Err(err(2, "not a standby (already promoted?)"));
    }
    let span = shared.span_begin(Level::Warn, "promote", 0, &[]);
    let mut report = RecoveryReport::default();
    let result = (|| -> Result<(), ServeError> {
        let data = shared.data.as_ref().expect("standby has a data dir");
        let channels: Vec<(String, Channel)> = shared
            .channels
            .lock()
            .map_err(|_| ServeError::Runtime("lock poisoned".into()))?
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        report.channels = channels.len();
        let mut frames_by_channel: HashMap<String, Vec<WalFrame>> = HashMap::new();
        for (name, channel) in &channels {
            let mut persist = channel
                .persist
                .lock()
                .map_err(|_| ServeError::Runtime("lock poisoned".into()))?;
            if let Some(wal) = persist.wal.as_mut() {
                wal.sync()?;
            }
            // Rescan from disk: the standby never kept frames in memory.
            let scan = crate::wal::scan_wal(&data.wal_path(name))?;
            if scan.dropped_bytes > 0 {
                report.dropped_bytes += scan.dropped_bytes;
            }
            frames_by_channel.insert(name.clone(), scan.frames);
        }
        respawn_and_replay(shared, frames_by_channel, &mut report)
    })();
    match result {
        Ok(()) => {
            ServerMetrics::inc(&shared.metrics.repl_promotions_total);
            let summary = format!(
                "channels={} subscriptions={} rows_replayed={}",
                report.channels, report.subscriptions, report.rows_replayed
            );
            shared.span_end(Level::Warn, "promote", span, &[("summary", &summary)]);
            Ok(format!("OK promoted {summary}"))
        }
        Err(e) => {
            // Promotion is all-or-nothing: stay a standby so the operator
            // can retry (or resync from a new primary).
            shared.standby.store(true, Ordering::SeqCst);
            shared.span_end(Level::Warn, "promote", span, &[("error", e.message())]);
            Err(serve_err(&e))
        }
    }
}

/// Dispatch one standby-side `REPL` sub-verb (the head word `REPL` is
/// already stripped; `args` is the rest of the verb line).
fn repl_dispatch(shared: &Shared, conn: u64, args: &[&str], body: &str) -> Result<String, String> {
    match args {
        ["HELLO", "v1"] => standby_hello(shared, conn),
        ["HELLO", v] => Err(err(2, format!("unsupported replication protocol '{v}'"))),
        // Channel announcements reuse the ordinary open path: idempotent
        // for a matching schema, `ERR 2` on a schema clash.
        ["OPEN", chan, spec] => open_channel(shared, chan, spec),
        ["FRAME", chan, start, nrows, crc] => standby_frame(shared, chan, start, nrows, crc, body),
        ["META", id] => standby_meta(shared, id, body),
        ["CHECKPOINT", id] => standby_checkpoint(shared, id, body),
        ["REMOVE", id] => standby_remove(shared, id),
        ["SUBS", keep @ ..] => standby_subs(shared, keep),
        other => Err(err(2, format!("unknown REPL command {other:?}"))),
    }
}

/// `REPL HELLO v1`: adopt this connection as the replication session and
/// report every channel's durable row count so the primary can resync
/// exactly the frames this standby lacks.
fn standby_hello(shared: &Shared, conn: u64) -> Result<String, String> {
    shared.repl_conn.store(conn, Ordering::SeqCst);
    let channels = shared
        .channels
        .lock()
        .map_err(|_| err(4, "lock poisoned"))?;
    let mut reply = String::from("OK repl v1");
    for (name, channel) in channels.iter() {
        let rows = channel.persist.lock().map(|p| p.rows_total).unwrap_or(0);
        reply.push_str(&format!("\n{} {rows}", encode_name(name)));
    }
    Ok(reply)
}

/// `REPL FRAME <chan> <start> <nrows> <crc>` + payload: validate and
/// append one shipped WAL record.  Duplicates (frame end at or below the
/// durable row count — the overlap between a resync scan and the live
/// queue) are acknowledged without appending; anything else out of
/// sequence is a gap the primary answers with a fresh resync.
fn standby_frame(
    shared: &Shared,
    chan: &str,
    start: &str,
    nrows: &str,
    crc: &str,
    body: &str,
) -> Result<String, String> {
    let reject = |code: u8, msg: String| {
        ServerMetrics::inc(&shared.metrics.repl_rejected_frames_total);
        Err(err(code, msg))
    };
    let Ok(start) = start.parse::<u64>() else {
        return reject(2, format!("bad REPL FRAME start ordinal '{start}'"));
    };
    let Ok(nrows) = nrows.parse::<u32>() else {
        return reject(2, format!("bad REPL FRAME row count '{nrows}'"));
    };
    let Ok(crc) = u32::from_str_radix(crc, 16) else {
        return reject(2, format!("bad REPL FRAME crc '{crc}'"));
    };
    if crc32(body.as_bytes()) != crc {
        return reject(3, format!("repl frame crc mismatch on '{chan}'"));
    }
    let channel = {
        let channels = shared
            .channels
            .lock()
            .map_err(|_| err(4, "lock poisoned"))?;
        match channels.get(chan).cloned() {
            Some(c) => c,
            None => return reject(2, format!("unknown channel '{chan}'")),
        }
    };
    // Validate the payload against the schema before touching the WAL:
    // the standby must never persist rows promotion cannot replay.
    let mut parsed = 0u32;
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() {
            return reject(3, format!("repl frame has an empty row line on '{chan}'"));
        }
        if let Err(e) = parse_headerless_row(&channel.schema, line, i + 1) {
            return reject(3, e.to_string());
        }
        parsed += 1;
    }
    if parsed != nrows || nrows == 0 {
        return reject(
            3,
            format!("repl frame row count mismatch: header {nrows}, payload {parsed}"),
        );
    }
    let mut persist = channel
        .persist
        .lock()
        .map_err(|_| err(4, "lock poisoned"))?;
    #[cfg(feature = "failpoints")]
    if let Some(injected) = sqlts_relation::failpoints::hit("repl::standby_append", start) {
        if injected == sqlts_relation::failpoints::Injected::InjectError {
            return Err(err(4, "failpoint 'repl::standby_append' injected error"));
        }
    }
    let end = start + u64::from(nrows);
    if end <= persist.rows_total {
        return Ok(format!("OK repl ack {chan} {}", persist.rows_total));
    }
    if start != persist.rows_total {
        return reject(
            4,
            format!(
                "repl gap on '{chan}': frame starts at {start}, standby at {}",
                persist.rows_total
            ),
        );
    }
    let Some(wal) = persist.wal.as_mut() else {
        return Err(err(
            4,
            format!("channel '{chan}' has no wal on the standby"),
        ));
    };
    let synced = wal
        .append(body, nrows)
        .map_err(|e| err(4, format!("standby wal append on '{chan}': {e}")))?;
    ServerMetrics::inc(&shared.metrics.wal_appends_total);
    if synced {
        ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
        shared
            .metrics
            .latency
            .record_ns(LatencyOp::Fsync, wal.take_fsync_ns());
    }
    persist.rows_total = wal.rows_total();
    ServerMetrics::inc(&shared.metrics.repl_frames_received_total);
    Ok(format!("OK repl ack {chan} {}", persist.rows_total))
}

/// `REPL META <id>` + submeta text: persist a shipped subscription meta.
fn standby_meta(shared: &Shared, id: &str, body: &str) -> Result<String, String> {
    let meta = SubMeta::from_text(body).map_err(|e| err(3, format!("repl meta '{id}': {e}")))?;
    {
        let channels = shared
            .channels
            .lock()
            .map_err(|_| err(4, "lock poisoned"))?;
        if !channels.contains_key(&meta.channel) {
            return Err(err(
                4,
                format!(
                    "repl meta '{id}' references unknown channel '{}'",
                    meta.channel
                ),
            ));
        }
    }
    let data = shared.data.as_ref().expect("standby has a data dir");
    data.save_sub_meta(id, &meta).map_err(|e| serve_err(&e))?;
    Ok(format!("OK repl meta {id}"))
}

/// `REPL CHECKPOINT <id>` + checkpoint text: persist a shipped
/// subscription checkpoint, then truncate the channel's WAL below the
/// new low-water mark (the primary just did the same).
fn standby_checkpoint(shared: &Shared, id: &str, body: &str) -> Result<String, String> {
    SessionCheckpoint::from_text(body)
        .map_err(|e| err(3, format!("repl checkpoint '{id}': {e}")))?;
    let data = shared.data.as_ref().expect("standby has a data dir");
    let meta = data
        .load_sub_meta(id)
        .map_err(|e| serve_err(&e))?
        .ok_or_else(|| err(4, format!("repl checkpoint '{id}' has no shipped meta")))?;
    data.save_sub_checkpoint(id, body)
        .map_err(|e| serve_err(&e))?;
    ServerMetrics::inc(&shared.metrics.snapshots_total);
    standby_truncate(shared, &meta.channel);
    Ok(format!("OK repl checkpoint {id}"))
}

/// Truncate a standby channel's WAL below the minimum resume ordinal of
/// its shipped checkpoints.  Best-effort, like the primary's snapshot
/// pass: a stale checkpoint only makes the low-water mark *lower*, never
/// wrong, and a subscription whose meta has not arrived yet can only
/// need rows at or above the current durable row count.
fn standby_truncate(shared: &Shared, chan: &str) {
    let Some(data) = shared.data.as_ref() else {
        return;
    };
    let Ok(subs) = data.load_subs() else {
        return;
    };
    let channel = {
        let Ok(channels) = shared.channels.lock() else {
            return;
        };
        match channels.get(chan).cloned() {
            Some(c) => c,
            None => return,
        }
    };
    let Ok(mut persist) = channel.persist.lock() else {
        return;
    };
    let mut low_water = persist.rows_total;
    for (_, meta, checkpoint) in &subs {
        if meta.channel != chan {
            continue;
        }
        let Ok(cp) = SessionCheckpoint::from_text(checkpoint) else {
            return; // unreadable checkpoint: hold truncation entirely
        };
        low_water = low_water.min(meta.resume_ordinal(cp.records()));
    }
    if let Some(wal) = persist.wal.as_mut() {
        if wal.sync().is_ok() {
            ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
            if let Ok(true) = wal.truncate_below(low_water) {
                ServerMetrics::inc(&shared.metrics.wal_truncations_total);
            }
        }
    }
}

/// `REPL REMOVE <id>`: drop a shipped subscription's durable files.
fn standby_remove(shared: &Shared, id: &str) -> Result<String, String> {
    let data = shared.data.as_ref().expect("standby has a data dir");
    data.remove_sub(id);
    Ok(format!("OK repl remove {id}"))
}

/// `REPL SUBS <id>...`: reconcile at resync — remove every durable
/// subscription the primary no longer has (its `REMOVE` may have been
/// shipped to a dead session).
fn standby_subs(shared: &Shared, keep: &[&str]) -> Result<String, String> {
    let data = shared.data.as_ref().expect("standby has a data dir");
    let keep: HashSet<&str> = keep.iter().copied().collect();
    let subs = data.load_subs().map_err(|e| serve_err(&e))?;
    for (id, _, _) in &subs {
        if !keep.contains(id.as_str()) {
            data.remove_sub(id);
        }
    }
    Ok(format!("OK repl subs {}", keep.len()))
}

/// Standby `STATUS <id>`: answered from the shipped durable state (no
/// worker exists until promotion).
fn standby_status(shared: &Shared, id: &str) -> Result<String, String> {
    let data = shared.data.as_ref().expect("standby has a data dir");
    let subs = data.load_subs().map_err(|e| serve_err(&e))?;
    let Some((_, meta, checkpoint)) = subs.iter().find(|(sid, _, _)| sid == id) else {
        return Err(err(2, format!("unknown subscription '{id}'")));
    };
    let records = SessionCheckpoint::from_text(checkpoint)
        .map(|cp| cp.records())
        .unwrap_or(0);
    let durable_rows = {
        let channels = shared
            .channels
            .lock()
            .map_err(|_| err(4, "lock poisoned"))?;
        channels
            .get(&meta.channel)
            .and_then(|c| c.persist.lock().ok().map(|p| p.rows_total))
            .unwrap_or(0)
    };
    Ok(format!(
        "OK status standby channel={} records={records} durable_rows={durable_rows}",
        meta.channel
    ))
}

/// How one shipping session ended.
enum SessionEnd {
    /// The stop flag is set (or the server is gone): exit the thread.
    Stop,
    /// The session failed: drain the stale queue, back off, resync.
    Retry,
}

/// The `--replicate-to` shipping thread: one session at a time, each a
/// connect + `HELLO` + full resync + live queue loop.  Holds only a
/// [`Weak`] on [`Shared`] between sessions so a dropped server is not
/// pinned by its own shipper ([`Server`]'s drop joins this thread).
fn replication_thread(weak: &Weak<Shared>, rx: &mpsc::Receiver<ReplCmd>, stop: &Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match replication_session(weak, rx, stop) {
            SessionEnd::Stop => return,
            SessionEnd::Retry => {
                // Anything still queued targeted the dead session; the
                // next resync re-reads the WAL instead.
                while rx.try_recv().is_ok() {}
                for _ in 0..10 {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
}

/// Count a session-fatal shipping error and flip to disconnected (waking
/// any sync-mode feeders so they degrade instead of timing out).
fn session_fail(shared: &Shared, what: &str, e: &str) {
    if let Some(repl) = shared.repl.as_ref() {
        repl.state.send_errors.fetch_add(1, Ordering::Relaxed);
        repl.state.mark_disconnected();
    }
    shared.span_event(
        Level::Warn,
        "repl_session_error",
        &[("what", what), ("error", e)],
    );
}

fn replication_session(
    weak: &Weak<Shared>,
    rx: &mpsc::Receiver<ReplCmd>,
    stop: &Arc<AtomicBool>,
) -> SessionEnd {
    let Some(shared) = weak.upgrade() else {
        return SessionEnd::Stop;
    };
    let repl = shared.repl.as_ref().expect("session implies a replicator");
    let target = repl.target.clone();
    let max_frame = shared.config.max_frame_bytes;
    // Connect with bounded timeouts.  Read timeouts are session-fatal by
    // design: a timeout mid-reply would desync the buffered reader, so
    // the session resets instead of continuing.
    let addrs: Vec<std::net::SocketAddr> = match target.to_socket_addrs() {
        Ok(addrs) => addrs.collect(),
        Err(e) => {
            session_fail(&shared, "resolve", &e.to_string());
            return SessionEnd::Retry;
        }
    };
    let mut stream = None;
    for addr in &addrs {
        if let Ok(s) = TcpStream::connect_timeout(addr, Duration::from_millis(500)) {
            stream = Some(s);
            break;
        }
    }
    let Some(mut stream) = stream else {
        session_fail(
            &shared,
            "connect",
            &format!("no address of '{target}' accepted"),
        );
        return SessionEnd::Retry;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_nodelay(true);
    let Ok(clone) = stream.try_clone() else {
        session_fail(&shared, "clone", "socket clone failed");
        return SessionEnd::Retry;
    };
    let mut reader = BufReader::new(clone);
    let standby_rows = match send_repl(&mut stream, &mut reader, "REPL HELLO v1", max_frame)
        .and_then(|r| parse_hello(&r))
    {
        Ok(rows) => rows,
        Err(e) => {
            session_fail(&shared, "hello", &e);
            return SessionEnd::Retry;
        }
    };
    repl.state.resyncs.fetch_add(1, Ordering::Relaxed);
    for (chan, rows) in &standby_rows {
        repl.state.note_ack(chan, *rows);
    }
    // Connected *before* the resync scan: live frames queue behind it,
    // and the overlap is absorbed by idempotent standby acks.
    repl.state.connected.store(true, Ordering::SeqCst);
    shared.span_event(Level::Info, "repl_connected", &[("target", &target)]);
    let fatal = |what: &str, e: &str| {
        session_fail(&shared, what, e);
        SessionEnd::Retry
    };
    let channels: Vec<(String, Channel)> = match shared.channels.lock() {
        Ok(map) => map.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        Err(_) => return fatal("channels", "lock poisoned"),
    };
    let data = shared
        .data
        .as_ref()
        .expect("--replicate-to requires a data dir");
    for (name, channel) in &channels {
        let spec = schema_spec(&channel.schema);
        let opened = send_repl(
            &mut stream,
            &mut reader,
            &format!("REPL OPEN {name} {spec}"),
            max_frame,
        )
        .and_then(|r| parse_opened_rows(&r));
        match opened {
            Ok(rows) => repl.state.note_ack(name, rows),
            Err(e) => return fatal("open", &e),
        }
        // Ship every durable frame past the standby's watermark.  Read
        // from disk without the persist lock: appends are unbuffered
        // writes, the scan tolerates a torn in-flight tail, and any frame
        // it misses was offered to the live queue behind us.
        let acked = repl.state.acked(name);
        let frames = match crate::wal::read_frames_from(&data.wal_path(name), acked) {
            Ok(frames) => frames,
            Err(e) => return fatal("resync_scan", &e.to_string()),
        };
        for frame in &frames {
            if frame.end() <= repl.state.acked(name) {
                continue;
            }
            if let Err(e) = ship_frame(
                repl,
                &mut stream,
                &mut reader,
                max_frame,
                name,
                frame.start,
                frame.nrows,
                &frame.payload,
            ) {
                return fatal("resync_frame", &e);
            }
        }
    }
    // Reconcile durable subscription state, then ship every meta +
    // checkpoint (idempotent overwrites on the standby).
    let subs = match data.load_subs() {
        Ok(subs) => subs,
        Err(e) => return fatal("load_subs", e.message()),
    };
    let mut subs_line = String::from("REPL SUBS");
    for (id, _, _) in &subs {
        subs_line.push(' ');
        subs_line.push_str(id);
    }
    if let Err(e) = send_repl(&mut stream, &mut reader, &subs_line, max_frame) {
        return fatal("subs", &e);
    }
    for (id, meta, checkpoint) in &subs {
        let shipped = send_repl(
            &mut stream,
            &mut reader,
            &format!("REPL META {id}\n{}", meta.to_text()),
            max_frame,
        )
        .and_then(|_| {
            send_repl(
                &mut stream,
                &mut reader,
                &format!("REPL CHECKPOINT {id}\n{checkpoint}"),
                max_frame,
            )
        });
        if let Err(e) = shipped {
            return fatal("resync_sub", &e);
        }
    }
    // Live loop: drain the commit-ordered queue until stop or a fault.
    loop {
        if stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            repl.state.mark_disconnected();
            return SessionEnd::Stop;
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(ReplCmd::Shutdown) => {
                repl.state.mark_disconnected();
                return SessionEnd::Stop;
            }
            Ok(cmd) => {
                if let Err(e) = ship_cmd(repl, &mut stream, &mut reader, max_frame, &cmd) {
                    return fatal("ship", &e);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                repl.state.mark_disconnected();
                return SessionEnd::Stop;
            }
        }
    }
}

/// Ship one queued replication command over the live session.
fn ship_cmd(
    repl: &Replicator,
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    max_frame: usize,
    cmd: &ReplCmd,
) -> Result<(), String> {
    match cmd {
        ReplCmd::Frame {
            channel,
            start,
            nrows,
            payload,
        } => {
            if start + u64::from(*nrows) <= repl.state.acked(channel) {
                return Ok(()); // the resync scan already covered it
            }
            ship_frame(
                repl, stream, reader, max_frame, channel, *start, *nrows, payload,
            )
        }
        ReplCmd::Open { channel, spec } => {
            let reply = send_repl(
                stream,
                reader,
                &format!("REPL OPEN {channel} {spec}"),
                max_frame,
            )?;
            repl.state.note_ack(channel, parse_opened_rows(&reply)?);
            Ok(())
        }
        ReplCmd::Meta { id, text } => send_repl(
            stream,
            reader,
            &format!("REPL META {id}\n{text}"),
            max_frame,
        )
        .map(|_| ()),
        ReplCmd::Checkpoint { id, text } => send_repl(
            stream,
            reader,
            &format!("REPL CHECKPOINT {id}\n{text}"),
            max_frame,
        )
        .map(|_| ()),
        ReplCmd::Remove { id } => {
            send_repl(stream, reader, &format!("REPL REMOVE {id}"), max_frame).map(|_| ())
        }
        ReplCmd::Shutdown => Ok(()),
    }
}

/// Ship one WAL frame and record its ack watermark.
#[allow(clippy::too_many_arguments)]
fn ship_frame(
    repl: &Replicator,
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    max_frame: usize,
    channel: &str,
    start: u64,
    nrows: u32,
    payload: &str,
) -> Result<(), String> {
    let crc = crc32(payload.as_bytes());
    let reply = send_repl(
        stream,
        reader,
        &format!("REPL FRAME {channel} {start} {nrows} {crc:08x}\n{payload}"),
        max_frame,
    )?;
    repl.state.frames_sent.fetch_add(1, Ordering::Relaxed);
    let (chan, end) = parse_ack(&reply)?;
    if chan != channel {
        return Err(format!("ack for wrong channel: '{chan}' != '{channel}'"));
    }
    repl.state.acks.fetch_add(1, Ordering::Relaxed);
    repl.state.note_ack(channel, end);
    Ok(())
}

fn recover_worker_err(id: &str, e: &WorkerError) -> ServeError {
    let msg = format!("respawn subscription '{id}': {e}");
    if e.exit_code() == 3 {
        ServeError::Input(msg)
    } else {
        ServeError::Runtime(msg)
    }
}

/// Finish (and retain profiles of) every subscription the closed
/// connection owned, releasing their sessions and budgets.
/// Recovered subscriptions belong to connection 0 and are never reaped.
fn reap_connection(shared: &Shared, conn: u64) {
    if shared.draining.load(Ordering::SeqCst) {
        // Not a client disconnect: the drain shut this socket down after
        // snapshotting, and the subscription must survive the restart.
        return;
    }
    let orphans: Vec<(String, Subscription)> = {
        let Ok(mut subs) = shared.subs.lock() else {
            return;
        };
        let ids: Vec<String> = subs
            .iter()
            .filter(|(_, s)| s.conn == conn)
            .map(|(id, _)| id.clone())
            .collect();
        ids.into_iter()
            .filter_map(|id| subs.remove(&id).map(|s| (id, s)))
            .collect()
    };
    for (id, sub) in orphans {
        // Durable state first: a crash between the two leaves a finished
        // worker with no files, never files with no worker.
        if let Some(data) = shared.data.as_ref() {
            data.remove_sub(&id);
            if let Some(repl) = shared.repl.as_ref() {
                repl.offer_remove(&id);
            }
        }
        if let Ok(report) = sub.worker.finish() {
            if let Some(profile) = report.profile {
                shared.metrics.retain_profile(&id, profile);
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream, conn: u64) -> io::Result<()> {
    // HTTP scrapers open with `GET `; everything else is the framed
    // protocol.  Peek so the protocol path sees every byte.  `peek`
    // never consumes, so every call must re-read from the front of the
    // socket buffer into the *whole* probe — peeking at an offset would
    // duplicate the stream's first bytes, not extend them.
    let mut probe = [0u8; 4];
    let mut seen = 0;
    loop {
        match stream.peek(&mut probe)? {
            0 => break,
            n if n >= probe.len() => {
                seen = probe.len();
                break;
            }
            n => {
                seen = n;
                // Fewer than 4 bytes buffered yet; a legitimate client's
                // first frame or request line is longer, so wait briefly
                // for the rest instead of busy-spinning on peek.
                if probe[..n] != b"GET "[..n] {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    if seen == probe.len() && probe == *b"GET " {
        return serve_http(shared, stream);
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let (event, decode_ns) = match read_frame_timed(&mut reader, shared.config.max_frame_bytes)
        {
            Ok(timed) => timed,
            Err(FrameFatal::Desync(why)) => {
                ServerMetrics::inc(&shared.metrics.errors_total);
                shared.span_event(
                    Level::Warn,
                    "frame_desync",
                    &[("conn", &conn.to_string()), ("why", &why)],
                );
                let _ = write_frame(&mut writer, &format!("ERR 2 frame desync: {why}"));
                return Ok(());
            }
            Err(FrameFatal::Io(e)) => return Err(e),
        };
        if !matches!(event, FrameEvent::Eof) {
            shared
                .metrics
                .latency
                .record_ns(LatencyOp::FrameDecode, decode_ns);
        }
        ServerMetrics::inc(&shared.metrics.frames_total);
        let dispatched = Instant::now();
        let reply = match event {
            FrameEvent::Eof => return Ok(()),
            FrameEvent::Oversized { len } => Err(format!(
                "ERR 2 frame of {len} bytes exceeds limit {}",
                shared.config.max_frame_bytes
            )),
            FrameEvent::BadUtf8 => Err("ERR 2 frame payload is not UTF-8".into()),
            FrameEvent::Payload(payload) => dispatch(shared, conn, &payload),
        };
        if let Some(limit_ms) = shared.config.slow_frame_ms {
            // Decode + dispatch only — the idle wait for a frame to start
            // is the client's think time (the decoder's clock starts at
            // the first header byte for the same reason).
            let busy_ns = decode_ns.saturating_add(dispatched.elapsed().as_nanos() as u64);
            let busy_ms = busy_ns / 1_000_000;
            if busy_ms > limit_ms {
                shared.span_event(
                    Level::Warn,
                    "slow_frame",
                    &[
                        ("conn", &conn.to_string()),
                        ("ms", &busy_ms.to_string()),
                        ("limit_ms", &limit_ms.to_string()),
                    ],
                );
            }
        }
        match reply {
            Ok(text) => write_frame(&mut writer, &text)?,
            Err(text) => {
                ServerMetrics::inc(&shared.metrics.errors_total);
                write_frame(&mut writer, &text)?;
            }
        }
    }
}

fn err(code: u8, msg: impl std::fmt::Display) -> String {
    format!("ERR {code} {msg}")
}

fn worker_err(e: &WorkerError) -> String {
    err(e.exit_code(), e)
}

fn serve_err(e: &ServeError) -> String {
    err(e.exit_code(), e.message())
}

/// Short machine-readable name for a trip cause (`STATUS` replies).
fn trip_name(reason: TripReason) -> &'static str {
    match reason {
        TripReason::Deadline => "deadline",
        TripReason::StepBudget => "steps",
        TripReason::MatchBudget => "matches",
        TripReason::Cancelled => "cancelled",
    }
}

/// Handle one decoded request payload; `Ok` and `Err` are both reply
/// payloads, `Err` marking it for the error counter.  Each dispatch is
/// one root span in the span log; sub-operation spans (WAL append,
/// fan-out, snapshot) nest under it.
fn dispatch(shared: &Shared, conn: u64, payload: &str) -> Result<String, String> {
    let (head, body) = match payload.split_once('\n') {
        Some((head, body)) => (head, body),
        None => (payload, ""),
    };
    let mut words = head.split_whitespace();
    let verb = words.next().unwrap_or("");
    let args: Vec<&str> = words.collect();
    let conn_s = conn.to_string();
    let span = shared.span_begin(
        Level::Debug,
        "dispatch",
        0,
        &[("verb", verb), ("conn", &conn_s)],
    );
    // A warm standby accepts only the replication stream and read-only
    // probes; everything mutating is refused until PROMOTE so the two
    // ends of the stream cannot diverge.
    let reply = if shared.standby.load(Ordering::SeqCst) {
        match (verb, args.as_slice()) {
            ("PING", []) => Ok("OK pong".into()),
            ("REPL", rest) => repl_dispatch(shared, conn, rest, body),
            ("PROMOTE", []) => promote_server(shared),
            ("STATUS", [id]) => standby_status(shared, id),
            ("", _) => Err(err(2, "empty frame")),
            (verb, _) => Err(err(
                4,
                format!("standby is read-only; '{verb}' is not served until PROMOTE"),
            )),
        }
    } else {
        match (verb, args.as_slice()) {
            ("PING", []) => Ok("OK pong".into()),
            ("OPEN", [chan, spec]) => open_channel(shared, chan, spec),
            ("SUBSCRIBE", [id, chan]) => subscribe(shared, conn, id, chan, body, None),
            ("RESUME", [id, chan]) => match body.split_once('\n') {
                Some((sql, checkpoint)) => subscribe(shared, conn, id, chan, sql, Some(checkpoint)),
                None => Err(err(2, "RESUME needs an SQL line and checkpoint text")),
            },
            ("FEED", [chan]) => feed(shared, chan, body, span),
            ("STATUS", [id]) => status(shared, id),
            ("CHECKPOINT", [id]) => checkpoint(shared, id),
            ("CHECKPOINT", [id, durable]) if durable.eq_ignore_ascii_case("DURABLE") => {
                checkpoint_durable(shared, id)
            }
            ("UNSUBSCRIBE", [id]) => unsubscribe(shared, id),
            ("PROMOTE", []) => Err(err(2, "not a standby")),
            ("REPL", _) => Err(err(2, "not a standby")),
            ("", _) => Err(err(2, "empty frame")),
            (verb, _) => Err(err(
                2,
                format!(
                    "unknown or malformed command '{verb}' (args: {})",
                    args.len()
                ),
            )),
        }
    };
    shared.span_end(
        Level::Debug,
        "dispatch",
        span,
        &[("ok", if reply.is_ok() { "1" } else { "0" })],
    );
    reply
}

pub(crate) fn parse_schema_spec(spec: &str) -> Result<Schema, String> {
    let mut cols = Vec::new();
    for part in spec.split(',') {
        let (name, ty) = part
            .split_once(':')
            .ok_or_else(|| format!("bad schema entry '{part}' (want name:type)"))?;
        let ty = match ty.trim().to_ascii_lowercase().as_str() {
            "int" | "integer" => ColumnType::Int,
            "float" | "double" | "real" => ColumnType::Float,
            "str" | "string" | "varchar" | "text" => ColumnType::Str,
            "date" => ColumnType::Date,
            other => return Err(format!("unknown column type '{other}'")),
        };
        cols.push((name.trim().to_string(), ty));
    }
    Schema::new(cols).map_err(|e| e.to_string())
}

fn open_channel(shared: &Shared, chan: &str, spec: &str) -> Result<String, String> {
    let schema = parse_schema_spec(spec).map_err(|e| err(2, e))?;
    let mut channels = shared
        .channels
        .lock()
        .map_err(|_| err(4, "lock poisoned"))?;
    let channel = match channels.get(chan) {
        Some(existing) if existing.schema == schema => existing.clone(),
        Some(_) => {
            return Err(err(
                2,
                format!("channel '{chan}' already open with a different schema"),
            ))
        }
        None => {
            let channel = Channel::new(schema);
            if let Some(data) = shared.data.as_ref() {
                // Schema file before WAL: a crash in between leaves a
                // channel recovery re-creates with an empty WAL, never a
                // WAL no recovery pass will ever look at.
                data.save_channel(chan, &channel.schema)
                    .map_err(|e| serve_err(&e))?;
                let (mut wal, scan) = ChannelWal::open(&data.wal_path(chan), shared.config.fsync)
                    .map_err(|e| serve_err(&ServeError::from(e)))?;
                wal.set_segment_bytes(shared.config.wal_segment_bytes);
                let mut persist = channel
                    .persist
                    .lock()
                    .map_err(|_| err(4, "lock poisoned"))?;
                persist.rows_total = scan.rows_total;
                persist.wal = Some(wal);
                if let Some(repl) = shared.repl.as_ref() {
                    repl.offer_open(chan, &schema_spec(&channel.schema));
                }
            }
            channels.insert(chan.to_string(), channel.clone());
            channel
        }
    };
    if shared.data.is_some() {
        // The durable row count lets a crashed feeder resume idempotently
        // (skip rows below it).  Absent a data dir the reply keeps its
        // historical shape exactly.
        let rows = channel.persist.lock().map(|p| p.rows_total).unwrap_or(0);
        Ok(format!("OK opened {chan} rows={rows}"))
    } else {
        Ok(format!("OK opened {chan}"))
    }
}

fn subscribe(
    shared: &Shared,
    conn: u64,
    id: &str,
    chan: &str,
    sql: &str,
    resume_from: Option<&str>,
) -> Result<String, String> {
    if sql.trim().is_empty() {
        return Err(err(2, "missing SQL body"));
    }
    let channel = {
        let channels = shared
            .channels
            .lock()
            .map_err(|_| err(4, "lock poisoned"))?;
        channels
            .get(chan)
            .cloned()
            .ok_or_else(|| err(2, format!("unknown channel '{chan}' (OPEN it first)")))?
    };
    {
        let subs = shared.subs.lock().map_err(|_| err(4, "lock poisoned"))?;
        if subs.contains_key(id) {
            return Err(err(2, format!("subscription id '{id}' is taken")));
        }
        if subs.len() >= shared.config.max_subscriptions {
            return Err(err(
                4,
                format!(
                    "admission: subscription limit {} reached",
                    shared.config.max_subscriptions
                ),
            ));
        }
    }
    let resume_from = resume_from
        .map(SessionCheckpoint::from_text)
        .transpose()
        .map_err(|e| err(3, e))?;
    let resumed = resume_from.is_some();
    // Hold the channel's persist lock across worker spawn, base-ordinal
    // read, registry insert and durable-file writes: no FEED can advance
    // the channel (or fan out to a half-registered subscription) in
    // between — which also pins the shared-matcher alignment origin to
    // the exact row ordinal this subscription starts observing from.
    let persist = channel
        .persist
        .lock()
        .map_err(|_| err(4, "lock poisoned"))?;
    let meta = Arc::new(SubMeta {
        channel: chan.to_string(),
        base_rows: persist.rows_total,
        base_records: resume_from.as_ref().map_or(0, SessionCheckpoint::records),
        sql: sql.to_string(),
    });
    let config = worker_config(shared, id, &meta, &channel, resume_from);
    let worker = Arc::new(SessionWorker::spawn(config).map_err(|e| worker_err(&e))?);
    let durable = match shared.data.as_ref() {
        Some(data) => Some((data, worker.snapshot().map_err(|e| worker_err(&e))?)),
        None => None,
    };
    {
        let mut subs = shared.subs.lock().map_err(|_| err(4, "lock poisoned"))?;
        // Re-check under the lock: another connection may have raced us.
        if subs.contains_key(id) {
            return Err(err(2, format!("subscription id '{id}' is taken")));
        }
        if subs.len() >= shared.config.max_subscriptions {
            return Err(err(4, "admission: subscription limit reached"));
        }
        subs.insert(
            id.to_string(),
            Subscription {
                worker: Arc::clone(&worker),
                conn,
                meta: Arc::clone(&meta),
            },
        );
    }
    if let Some((data, text)) = durable {
        let saved = data
            .save_sub_meta(id, &meta)
            .and_then(|()| data.save_sub_checkpoint(id, &text));
        if let Err(e) = saved {
            // An unpersistable subscription must not run: roll it back so
            // the client's view matches the durable state.
            data.remove_sub(id);
            if let Ok(mut subs) = shared.subs.lock() {
                subs.remove(id);
            }
            let _ = worker.finish();
            return Err(serve_err(&e));
        }
        ServerMetrics::inc(&shared.metrics.snapshots_total);
        if let Some(repl) = shared.repl.as_ref() {
            // Still under the persist lock: the standby sees the meta
            // before any frame this subscription will be replayed over.
            repl.offer_meta(id, &meta.to_text());
            repl.offer_checkpoint(id, &text);
        }
    }
    drop(persist);
    ServerMetrics::inc(&shared.metrics.subscriptions_total);
    let what = if resumed { "resumed" } else { "subscribed" };
    Ok(format!("OK {what} {id} {chan}"))
}

fn feed(shared: &Shared, chan: &str, body: &str, parent: u64) -> Result<String, String> {
    let channel = {
        let channels = shared
            .channels
            .lock()
            .map_err(|_| err(4, "lock poisoned"))?;
        channels
            .get(chan)
            .cloned()
            .ok_or_else(|| err(2, format!("unknown channel '{chan}'")))?
    };
    // Parse the whole frame before feeding anything: a malformed row
    // rejects the frame atomically instead of leaving subscribers halfway
    // through it.
    let mut rows = Vec::new();
    let mut lines = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        rows.push(parse_headerless_row(&channel.schema, line, i + 1).map_err(|e| err(3, e))?);
        lines.push(line);
    }
    let payload_text = lines.join("\n");
    // The channel persist lock is held across append, fan-out and
    // snapshot: WAL order is feed order, and the durable copy lands
    // before any subscriber sees a row.
    let mut persist = channel
        .persist
        .lock()
        .map_err(|_| err(4, "lock poisoned"))?;
    let start_ordinal = persist.rows_total;
    let mut offered = false;
    if !rows.is_empty() {
        if let Some(wal) = persist.wal.as_mut() {
            let span = shared.span_begin(
                Level::Debug,
                "wal_append",
                parent,
                &[("channel", chan), ("rows", &rows.len().to_string())],
            );
            let append_started = Instant::now();
            let appended = wal.append(&payload_text, rows.len() as u32);
            let append_ns = append_started.elapsed().as_nanos() as u64;
            // The fsync (when the policy took one) is inside append's
            // wall time; split it out so the two histograms answer
            // different questions.
            let fsync_ns = wal.take_fsync_ns();
            shared
                .metrics
                .latency
                .record_ns(LatencyOp::WalAppend, append_ns.saturating_sub(fsync_ns));
            match appended {
                Ok(synced) => {
                    ServerMetrics::inc(&shared.metrics.wal_appends_total);
                    if synced {
                        ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
                        shared.metrics.latency.record_ns(LatencyOp::Fsync, fsync_ns);
                        shared.span_event(
                            Level::Debug,
                            "fsync",
                            &[("channel", chan), ("ns", &fsync_ns.to_string())],
                        );
                    }
                    shared.span_end(Level::Debug, "wal_append", span, &[]);
                }
                Err(e) => {
                    shared.span_end(
                        Level::Debug,
                        "wal_append",
                        span,
                        &[("error", &e.to_string())],
                    );
                    return Err(err(4, format!("wal append on '{chan}': {e}")));
                }
            }
        }
        persist.rows_total += rows.len() as u64;
        if let Some(repl) = shared.repl.as_ref() {
            // Enqueued under the persist lock so the shipping queue is in
            // commit order.  While disconnected the offer is dropped: the
            // WAL is the source of truth and the next resync re-reads it.
            offered = repl.offer_frame(chan, start_ordinal, rows.len() as u32, &payload_text);
        }
    }
    let workers: Vec<(String, Arc<SessionWorker>)> = {
        let subs = shared.subs.lock().map_err(|_| err(4, "lock poisoned"))?;
        subs.iter()
            .filter(|(_, s)| s.meta.channel == chan)
            .map(|(id, s)| (id.clone(), Arc::clone(&s.worker)))
            .collect()
    };
    let fanout_span = shared.span_begin(
        Level::Debug,
        "fanout",
        parent,
        &[
            ("channel", chan),
            ("rows", &rows.len().to_string()),
            ("subs", &workers.len().to_string()),
        ],
    );
    let fanout_started = Instant::now();
    let mut tripped = 0u64;
    let mut rejecting: HashSet<&str> = HashSet::new();
    for row in &rows {
        for (id, worker) in &workers {
            match worker.feed(row.clone()) {
                Ok(()) => {}
                // A governed/overflowed subscription stays latched; its
                // partial result is delivered at UNSUBSCRIBE.  The feed
                // keeps flowing to the healthy subscriptions.
                Err(_) => {
                    tripped += 1;
                    rejecting.insert(id);
                }
            }
        }
    }
    shared.metrics.latency.record_ns(
        LatencyOp::Fanout,
        fanout_started.elapsed().as_nanos() as u64,
    );
    shared.span_end(
        Level::Debug,
        "fanout",
        fanout_span,
        &[("rejected", &tripped.to_string())],
    );
    ServerMetrics::add(
        &shared.metrics.rows_fed_total,
        rows.len() as u64 * workers.len() as u64,
    );
    // First trip of each subscription is a warn-level event (durable or
    // not); repeat rejections from an already-latched subscription are
    // steady state and stay quiet.
    let newly: Vec<String> = rejecting
        .iter()
        .filter(|id| !persist.tripped_seen.contains(**id))
        .map(|s| s.to_string())
        .collect();
    for id in &newly {
        shared.span_event(
            Level::Warn,
            "governor_trip",
            &[("sub", id), ("channel", chan)],
        );
    }
    let fresh_trip = !newly.is_empty();
    persist.tripped_seen.extend(newly);
    let has_wal = persist.wal.is_some();
    if has_wal && !rows.is_empty() {
        persist.frames_since_snapshot += 1;
        if fresh_trip
            || persist.frames_since_snapshot >= shared.config.checkpoint_every_frames.max(1)
        {
            snapshot_channel_locked(shared, chan, &channel, &mut persist, parent);
        }
    }
    let end_ordinal = persist.rows_total;
    drop(persist);
    // Group commit: the append above did not sync.  Wait (off-lock, so
    // concurrent FEEDs can pile their appends into the same batch) until
    // a leader's single fsync covers this frame's rows.
    if has_wal && !rows.is_empty() {
        if let FsyncPolicy::Group { window_us } = shared.config.fsync {
            let window = Duration::from_micros(u64::from(window_us));
            let group = Arc::clone(&channel.group);
            let outcome = group.wait_durable(end_ordinal, window, || {
                let mut persist = channel
                    .persist
                    .lock()
                    .map_err(|_| "lock poisoned".to_string())?;
                let Some(wal) = persist.wal.as_mut() else {
                    return Err("wal closed".into());
                };
                wal.sync().map_err(|e| e.to_string())?;
                ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
                shared
                    .metrics
                    .latency
                    .record_ns(LatencyOp::Fsync, wal.take_fsync_ns());
                Ok(wal.rows_total())
            });
            if let Err(e) = outcome {
                // The rows were appended but are not durable; the feeder
                // must not treat them as accepted.  (Recovery truncates
                // or replays them consistently either way.)
                return Err(err(4, format!("group fsync on '{chan}': {e}")));
            }
        }
    }
    // Semi-synchronous replication: hold the ack until the standby has
    // the frame, degrading (counted) rather than failing the FEED when
    // the standby is away or slow.
    if !rows.is_empty() {
        if let Some(repl) = shared.repl.as_ref() {
            if repl.ack == ReplAck::Sync {
                let acked = offered
                    && repl
                        .state
                        .wait_acked(chan, end_ordinal, replicate::SYNC_ACK_TIMEOUT);
                if !acked {
                    repl.state.sync_degraded.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    Ok(format!(
        "OK fed {} subs={} rejected={tripped}",
        rows.len(),
        workers.len()
    ))
}

/// Snapshot every subscription on `chan` (atomic tmp+rename each), then
/// truncate the WAL below the low-water mark — the minimum ordinal any
/// snapshot still needs.  Caller holds the channel's persist lock.
/// Best-effort: a failure leaves the WAL longer than necessary, never
/// inconsistent.  `parent` nests the snapshot span under the operation
/// that forced it (0 for a top-level snapshot).
fn snapshot_channel_locked(
    shared: &Shared,
    chan: &str,
    channel: &Channel,
    persist: &mut ChannelPersist,
    parent: u64,
) {
    persist.frames_since_snapshot = 0;
    let Some(data) = shared.data.as_ref() else {
        return;
    };
    if shared.standby.load(Ordering::SeqCst) {
        // A standby has durable sub metas but no live workers: the
        // "every subscription" sweep below would see none and truncate
        // frames promotion still needs.  Standby truncation is driven by
        // the primary's shipped checkpoints instead.
        return;
    }
    let started = Instant::now();
    let span = shared.span_begin(Level::Debug, "snapshot", parent, &[("channel", chan)]);
    let members: Vec<(String, Arc<SessionWorker>, Arc<SubMeta>)> = {
        let Ok(subs) = shared.subs.lock() else {
            shared.span_end(Level::Debug, "snapshot", span, &[("aborted", "poisoned")]);
            return;
        };
        subs.iter()
            .filter(|(_, s)| s.meta.channel == chan)
            .map(|(id, s)| (id.clone(), Arc::clone(&s.worker), Arc::clone(&s.meta)))
            .collect()
    };
    let mut low_water = persist.rows_total;
    let mut hold_truncation = false;
    for (id, worker, meta) in &members {
        match worker.snapshot_with_records() {
            Ok((text, records)) => {
                if data.save_sub_checkpoint(id, &text).is_err() {
                    hold_truncation = true;
                    continue;
                }
                ServerMetrics::inc(&shared.metrics.snapshots_total);
                if let Some(repl) = shared.repl.as_ref() {
                    repl.offer_checkpoint(id, &text);
                }
                low_water = low_water.min(meta.resume_ordinal(records));
            }
            // A worker that cannot snapshot (finished, poisoned) keeps
            // its WAL rows: skip truncation this round.
            Err(_) => hold_truncation = true,
        }
    }
    let mut truncated = false;
    if !hold_truncation {
        if let Some(wal) = persist.wal.as_mut() {
            if wal.sync().is_ok() {
                ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
                channel.group.publish_synced(wal.rows_total());
                if let Ok(true) = wal.truncate_below(low_water) {
                    ServerMetrics::inc(&shared.metrics.wal_truncations_total);
                    truncated = true;
                }
            }
            shared
                .metrics
                .latency
                .record_ns(LatencyOp::Fsync, wal.take_fsync_ns());
        }
    }
    shared
        .metrics
        .latency
        .record_ns(LatencyOp::Snapshot, started.elapsed().as_nanos() as u64);
    shared.span_end(
        Level::Debug,
        "snapshot",
        span,
        &[
            ("subscriptions", &members.len().to_string()),
            ("truncated", if truncated { "1" } else { "0" }),
        ],
    );
}

fn lookup(shared: &Shared, id: &str) -> Result<Arc<SessionWorker>, String> {
    let subs = shared.subs.lock().map_err(|_| err(4, "lock poisoned"))?;
    subs.get(id)
        .map(|s| Arc::clone(&s.worker))
        .ok_or_else(|| err(2, format!("unknown subscription '{id}'")))
}

fn status(shared: &Shared, id: &str) -> Result<String, String> {
    let worker = lookup(shared, id)?;
    let status = worker.status().map_err(|e| worker_err(&e))?;
    Ok(format!(
        "OK status records={} skipped={} quarantined={} window={} trip={} poisoned={}",
        status.records,
        status.skipped,
        status.quarantined,
        status.window_bytes,
        status.trip.map_or("none", |t| trip_name(t.reason)),
        u8::from(status.poisoned),
    ))
}

fn checkpoint(shared: &Shared, id: &str) -> Result<String, String> {
    let worker = lookup(shared, id)?;
    let text = worker.snapshot().map_err(|e| worker_err(&e))?;
    Ok(format!("CHECKPOINT {id}\n{text}"))
}

/// `CHECKPOINT <id> DURABLE`: force an atomic on-disk snapshot and reply
/// with the durable resume ordinal — the first channel row this
/// subscription has *not* yet observed, which is exactly where recovery
/// (or a promoted standby) resumes it.  The channel WAL is synced first
/// under the persist lock so the reported ordinal is never ahead of
/// durable rows.
fn checkpoint_durable(shared: &Shared, id: &str) -> Result<String, String> {
    let Some(data) = shared.data.as_ref() else {
        return Err(err(2, "CHECKPOINT DURABLE requires --data-dir"));
    };
    let (worker, meta) = {
        let subs = shared.subs.lock().map_err(|_| err(4, "lock poisoned"))?;
        let sub = subs
            .get(id)
            .ok_or_else(|| err(2, format!("unknown subscription '{id}'")))?;
        (Arc::clone(&sub.worker), Arc::clone(&sub.meta))
    };
    let chan = &meta.channel;
    let channel = {
        let channels = shared
            .channels
            .lock()
            .map_err(|_| err(4, "lock poisoned"))?;
        channels
            .get(chan)
            .cloned()
            .ok_or_else(|| err(4, format!("channel '{chan}' is gone")))?
    };
    let mut persist = channel
        .persist
        .lock()
        .map_err(|_| err(4, "lock poisoned"))?;
    if let Some(wal) = persist.wal.as_mut() {
        wal.sync()
            .map_err(|e| err(4, format!("wal sync on '{chan}': {e}")))?;
        ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
        shared
            .metrics
            .latency
            .record_ns(LatencyOp::Fsync, wal.take_fsync_ns());
        channel.group.publish_synced(wal.rows_total());
    }
    let (text, records) = worker.snapshot_with_records().map_err(|e| worker_err(&e))?;
    data.save_sub_checkpoint(id, &text)
        .map_err(|e| serve_err(&e))?;
    ServerMetrics::inc(&shared.metrics.snapshots_total);
    if let Some(repl) = shared.repl.as_ref() {
        repl.offer_checkpoint(id, &text);
    }
    drop(persist);
    let ordinal = meta.resume_ordinal(records);
    Ok(format!("OK checkpoint {id} durable ordinal={ordinal}"))
}

fn unsubscribe(shared: &Shared, id: &str) -> Result<String, String> {
    let sub = {
        let mut subs = shared.subs.lock().map_err(|_| err(4, "lock poisoned"))?;
        subs.remove(id)
            .ok_or_else(|| err(2, format!("unknown subscription '{id}'")))?
    };
    // Durable files go first: a crash between removal and finish delivers
    // nothing to this client, but can never resurrect an unsubscribed
    // query on restart.
    if let Some(data) = shared.data.as_ref() {
        data.remove_sub(id);
        if let Some(repl) = shared.repl.as_ref() {
            repl.offer_remove(id);
        }
    }
    let report = sub.worker.finish().map_err(|e| worker_err(&e))?;
    // An unsubscribe that surfaces a trip, quarantine, or error is the
    // operator-visible outcome of a misbehaving tenant: warn.  A clean
    // finish is routine: info.
    let troubled = report.trip.is_some() || report.error.is_some() || report.quarantined > 0;
    shared.span_event(
        if troubled { Level::Warn } else { Level::Info },
        "unsubscribe",
        &[
            ("sub", id),
            ("channel", &sub.meta.channel),
            ("rows", &report.rows.to_string()),
            ("quarantined", &report.quarantined.to_string()),
            (
                "trip",
                report.trip.as_ref().map_or("none", |t| trip_name(t.reason)),
            ),
        ],
    );
    if let Some(profile) = report.profile {
        shared.metrics.retain_profile(id, profile);
    }
    // Exit-style result code: 0 clean, 4 governed/runtime — partial CSV
    // rides along either way.
    let code = if report.error.is_some() || report.trip.is_some() {
        4
    } else {
        0
    };
    let mut head = format!("RESULT {id} {code} rows={}", report.rows);
    if let Some(trip) = &report.trip {
        head.push_str(&format!(" trip={}", trip_name(trip.reason)));
    }
    if let Some(error) = &report.error {
        head.push_str(&format!(
            " error={}",
            error.replace(char::is_whitespace, "_")
        ));
    }
    Ok(format!("{head}\n{}", report.csv))
}

/// Minimal HTTP/1.1 shim: `GET /metrics` serves the Prometheus
/// exposition, `GET /status` the live-state JSON document, everything
/// else 404s.  One request per connection.
///
/// The whole response — status line, headers, body — is assembled into
/// one buffer and sent with a single `write_all`, so a strict scraper
/// never observes a partial header block, and `Content-Length` is
/// always the byte length of exactly the body that follows.
fn serve_http(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so well-behaved clients aren't reset mid-send.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status_line, content_type, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        let views = http_sub_views(shared);
        let live: Vec<String> = views
            .iter()
            .map(|v| live_gauges(&v.id, &v.status, v.queue_depth))
            .collect();
        let mut body = shared.metrics.render(&live);
        if shared.config.shared_matcher {
            body.push_str(&patternset_exposition(shared, &views));
        }
        if let Some(snap) = repl_snapshot(shared) {
            body.push_str(&repl_exposition(&snap));
        }
        body.push_str(
            "# HELP sqlts_standby server is an unpromoted warm standby\n\
             # TYPE sqlts_standby gauge\n",
        );
        body.push_str(&format!(
            "sqlts_standby {}\n",
            u8::from(shared.standby.load(Ordering::SeqCst))
        ));
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
    } else if path == "/status" || path.starts_with("/status?") {
        let subs = http_sub_views(shared);
        let draining = shared.draining.load(Ordering::SeqCst);
        let standby = shared.standby.load(Ordering::SeqCst);
        let snap = repl_snapshot(shared);
        (
            "200 OK",
            "application/json; charset=utf-8",
            status_json(&shared.metrics, &subs, draining, standby, snap.as_ref()),
        )
    } else {
        (
            "404 Not Found",
            "text/plain",
            "not found: only GET /metrics and GET /status are served\n".to_string(),
        )
    };
    let mut response = String::with_capacity(body.len() + 160);
    response.push_str("HTTP/1.1 ");
    response.push_str(status_line);
    response.push_str("\r\nContent-Type: ");
    response.push_str(content_type);
    response.push_str("\r\nContent-Length: ");
    response.push_str(&body.len().to_string());
    response.push_str("\r\nConnection: close\r\n\r\n");
    response.push_str(&body);
    let mut writer = stream;
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// The primary's live replication health (`None` without
/// `--replicate-to`): counters from [`Replicator`], lag computed against
/// every channel's current durable row count.
fn repl_snapshot(shared: &Shared) -> Option<ReplSnapshot> {
    let repl = shared.repl.as_ref()?;
    let rows: Vec<(String, u64)> = shared
        .channels
        .lock()
        .map(|channels| {
            channels
                .iter()
                .map(|(name, c)| {
                    (
                        name.clone(),
                        c.persist.lock().map(|p| p.rows_total).unwrap_or(0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let lag = repl
        .state
        .lag_rows(rows.iter().map(|(name, total)| (name.as_str(), *total)));
    Some(repl.snapshot(lag))
}

/// Roll the per-channel shared pattern-set registries into one
/// Prometheus block.  Registries carry the compile shape and the memo
/// savings; the *logical* test total comes from the live sessions (solo
/// subscriptions included — their tests are all physically evaluated,
/// which is exactly what `tests_evaluated = logical - saved` charges).
fn patternset_exposition(shared: &Shared, views: &[SubStatusView]) -> String {
    let registries: Vec<Arc<SetRegistry>> = shared
        .channels
        .lock()
        .map(|channels| channels.values().map(|c| Arc::clone(&c.registry)).collect())
        .unwrap_or_default();
    let mut stats = PatternSetStats::default();
    for registry in registries {
        stats.absorb(&registry.stats());
    }
    stats.tests_logical = views.iter().map(|v| v.status.predicate_tests).sum();
    stats.tests_evaluated = stats.tests_logical.saturating_sub(stats.tests_saved);
    stats.to_prometheus()
}

/// Snapshot every live subscription's observable state for the HTTP
/// endpoints: status (records/skips/trip), queue depth, worker phase.
fn http_sub_views(shared: &Shared) -> Vec<SubStatusView> {
    let handles: Vec<(String, String, Arc<SessionWorker>)> = shared
        .subs
        .lock()
        .map(|subs| {
            subs.iter()
                .map(|(id, s)| (id.clone(), s.meta.channel.clone(), Arc::clone(&s.worker)))
                .collect()
        })
        .unwrap_or_default();
    let mut views: Vec<SubStatusView> = handles
        .into_iter()
        .filter_map(|(id, channel, worker)| {
            worker.status().ok().map(|status| SubStatusView {
                id,
                channel,
                status,
                queue_depth: worker.queue_depth(),
                phase: worker.phase_tag().phase().as_str(),
            })
        })
        .collect();
    views.sort_by(|a, b| a.id.cmp(&b.id));
    views
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn schema_spec_round_trip_and_errors() {
        let schema = parse_schema_spec("name:str,day:int,price:float").unwrap();
        assert_eq!(schema.arity(), 3);
        assert!(parse_schema_spec("name").is_err());
        assert!(parse_schema_spec("name:blob").is_err());
    }

    #[test]
    fn unknown_verbs_and_empty_frames_are_usage_errors() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        for payload in ["", "WHAT is this", "SUBSCRIBE onlyone", "OPEN q"] {
            let reply = dispatch(shared, 1, payload).unwrap_err();
            assert!(reply.starts_with("ERR 2 "), "{payload:?} -> {reply}");
        }
        assert_eq!(dispatch(shared, 1, "PING").unwrap(), "OK pong");
    }

    #[test]
    fn end_to_end_over_dispatch() {
        // Protocol-level round trip without sockets: open, subscribe,
        // feed, status, checkpoint, unsubscribe.
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        // Same schema is idempotent; different schema is rejected.
        dispatch(shared, 2, "OPEN q name:str,day:int,price:float").unwrap();
        assert!(dispatch(shared, 2, "OPEN q name:str").is_err());
        let sql = "SELECT X.name, Z.day AS day FROM q CLUSTER BY name SEQUENCE BY day \
                   AS (X, *Y, Z) WHERE Y.price > Y.previous.price \
                   AND Z.price < Z.previous.price";
        dispatch(shared, 1, &format!("SUBSCRIBE s1 q\n{sql}")).unwrap();
        assert!(
            dispatch(shared, 1, &format!("SUBSCRIBE s1 q\n{sql}")).is_err(),
            "duplicate id must be rejected"
        );
        let mut body = String::new();
        for day in 0..40 {
            let wave = (day % 7) as f64;
            body.push_str(&format!("AAA,{day},{}\n", 100.0 + 3.0 * wave));
        }
        let reply = dispatch(shared, 1, &format!("FEED q\n{body}")).unwrap();
        assert!(reply.starts_with("OK fed 40 subs=1"), "{reply}");
        let status = dispatch(shared, 1, "STATUS s1").unwrap();
        assert!(status.contains("records=40"), "{status}");
        assert!(status.contains("trip=none"), "{status}");
        let cp = dispatch(shared, 1, "CHECKPOINT s1").unwrap();
        assert!(
            cp.starts_with("CHECKPOINT s1\nsqlts-checkpoint v1\n"),
            "{cp}"
        );
        let result = dispatch(shared, 1, "UNSUBSCRIBE s1").unwrap();
        let head = result.lines().next().unwrap();
        assert!(head.starts_with("RESULT s1 0 rows="), "{head}");
        assert!(result.contains("name,day\n"), "{result}");
        // Resume from the checkpoint under a new id and finish empty-handed
        // but cleanly (no further rows).
        let text = cp.strip_prefix("CHECKPOINT s1\n").unwrap();
        dispatch(shared, 1, &format!("RESUME s2 q\n{sql}\n{text}")).unwrap();
        let resumed = dispatch(shared, 1, "UNSUBSCRIBE s2").unwrap();
        assert!(resumed.lines().next().unwrap().starts_with("RESULT s2 0"));
    }

    #[test]
    fn admission_limit_is_enforced() {
        let config = ServerConfig {
            max_subscriptions: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind(config).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        let sql = "SELECT X.name FROM q CLUSTER BY name SEQUENCE BY day AS (X, Z) \
                   WHERE Z.price < X.price";
        dispatch(shared, 1, &format!("SUBSCRIBE a q\n{sql}")).unwrap();
        let reply = dispatch(shared, 1, &format!("SUBSCRIBE b q\n{sql}")).unwrap_err();
        assert!(reply.starts_with("ERR 4 admission"), "{reply}");
        // Freeing the slot re-admits.
        dispatch(shared, 1, "UNSUBSCRIBE a").unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE b q\n{sql}")).unwrap();
    }

    #[test]
    fn feeds_are_channel_scoped() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN a name:str,day:int,price:float").unwrap();
        dispatch(shared, 1, "OPEN b ticker:str,t:int,volume:float").unwrap();
        let sql_a = "SELECT X.name FROM a CLUSTER BY name SEQUENCE BY day AS (X, Z) \
                     WHERE Z.price < X.price";
        let sql_b = "SELECT X.ticker FROM b CLUSTER BY ticker SEQUENCE BY t AS (X, Z) \
                     WHERE Z.volume < X.volume";
        dispatch(shared, 1, &format!("SUBSCRIBE sa a\n{sql_a}")).unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE sb b\n{sql_b}")).unwrap();
        // A feed on channel a must reach only a's subscription — b's has a
        // different schema and must never see these rows.
        let reply = dispatch(shared, 1, "FEED a\nIBM,1,50.0").unwrap();
        assert!(reply.starts_with("OK fed 1 subs=1"), "{reply}");
        let sb = dispatch(shared, 1, "STATUS sb").unwrap();
        assert!(sb.contains("records=0"), "{sb}");
    }

    #[test]
    fn shared_matcher_saves_tests_and_keeps_results_byte_identical() {
        let off = Server::bind(ServerConfig::default()).unwrap();
        let on = Server::bind(ServerConfig {
            shared_matcher: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let sql = |i: usize| {
            format!(
                "SELECT X.name, Z.day AS day FROM q CLUSTER BY name SEQUENCE BY day \
                 AS (X, Y, Z) WHERE X.price > 95 AND Y.price > X.previous.price \
                 AND Z.price < {}",
                100 + i
            )
        };
        let mut body = String::new();
        for day in 0..50 {
            for name in ["AAA", "BBB"] {
                let price = 94 + ((day * 7 + name.len()) % 13);
                body.push_str(&format!("{name},{day},{price}\n"));
            }
        }
        for server in [&off, &on] {
            let shared = &server.shared;
            dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
            for i in 0..8 {
                dispatch(shared, 1, &format!("SUBSCRIBE s{i} q\n{}", sql(i))).unwrap();
            }
            dispatch(shared, 1, &format!("FEED q\n{body}")).unwrap();
        }
        // Scrape the shared server while the subscriptions are still live.
        let views = http_sub_views(&on.shared);
        let prom = patternset_exposition(&on.shared, &views);
        let metric = |name: &str| -> u64 {
            prom.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .unwrap_or_else(|| panic!("missing {name} in:\n{prom}"))
                .parse()
                .unwrap()
        };
        assert!(metric("sqlts_patternset_tests_shared") > 0, "{prom}");
        assert!(
            metric("sqlts_patternset_tests_evaluated") < metric("sqlts_patternset_tests_logical"),
            "{prom}"
        );
        assert_eq!(metric("sqlts_patternset_queries"), 8, "{prom}");
        // Per-subscription results are byte-identical shared or not.
        for i in 0..8 {
            let solo = dispatch(&off.shared, 1, &format!("UNSUBSCRIBE s{i}")).unwrap();
            let shared = dispatch(&on.shared, 1, &format!("UNSUBSCRIBE s{i}")).unwrap();
            assert_eq!(solo, shared, "subscription s{i} diverged under sharing");
        }
    }

    #[test]
    fn bad_sql_and_bad_rows_map_to_input_codes() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        let reply = dispatch(shared, 1, "SUBSCRIBE s q\nSELECT garbage FROM").unwrap_err();
        assert!(reply.starts_with("ERR 3 "), "{reply}");
        let reply = dispatch(shared, 1, "FEED q\nIBM,notaday,50").unwrap_err();
        assert!(reply.starts_with("ERR 3 "), "{reply}");
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    fn temp_data_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlts-server-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(root: &Path, every: u64) -> ServerConfig {
        ServerConfig {
            data_dir: Some(root.to_path_buf()),
            fsync: FsyncPolicy::Off,
            checkpoint_every_frames: every,
            ..ServerConfig::default()
        }
    }

    const KILL_SQL: &str = "SELECT X.name, Z.day AS day FROM q CLUSTER BY name \
                            SEQUENCE BY day AS (X, *Y, Z) \
                            WHERE Y.price > Y.previous.price \
                            AND Z.price < Z.previous.price";

    fn kill_frames() -> Vec<String> {
        (0..12)
            .map(|f| {
                let mut body = String::new();
                for r in 0..3 {
                    let day = f * 3 + r;
                    let wave = (day % 5) as f64;
                    body.push_str(&format!("AAA,{day},{}\n", 100.0 + 4.0 * wave));
                }
                body
            })
            .collect()
    }

    /// The tentpole acceptance in miniature: kill the server (drop it
    /// without drain, LOCK file left behind) after *every* possible
    /// frame prefix; the recovered run's final result must be
    /// byte-identical to an uninterrupted run every time.
    #[test]
    fn recovery_is_byte_identical_after_a_kill_at_every_frame_boundary() {
        let frames = kill_frames();
        // Reference: the uninterrupted, non-durable run.
        let reference = {
            let server = Server::bind(ServerConfig::default()).unwrap();
            let shared = &server.shared;
            dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
            dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
            for frame in &frames {
                dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
            }
            dispatch(shared, 1, "UNSUBSCRIBE s").unwrap()
        };
        assert!(reference.contains("\nname,day\n") || reference.contains(" rows="));
        for k in 0..=frames.len() {
            let root = temp_data_dir(&format!("kill{k}"));
            {
                let server = Server::bind(durable_config(&root, 3)).unwrap();
                let shared = &server.shared;
                dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
                dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
                for frame in &frames[..k] {
                    dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
                }
                // Simulated SIGKILL: the server object is dropped with no
                // drain — snapshots stay stale, the LOCK file stays put.
            }
            let server = Server::bind(durable_config(&root, 3)).unwrap();
            let shared = &server.shared;
            let report = server.recovery().expect("durable server reports recovery");
            assert_eq!(report.channels, 1, "kill@{k}");
            assert_eq!(report.subscriptions, 1, "kill@{k}");
            for frame in &frames[k..] {
                dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
            }
            let result = dispatch(shared, 1, "UNSUBSCRIBE s").unwrap();
            assert_eq!(result, reference, "kill after frame {k} diverged");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn open_reply_reports_durable_rows_only_with_a_data_dir() {
        let root = temp_data_dir("openrows");
        {
            let server = Server::bind(durable_config(&root, 64)).unwrap();
            let shared = &server.shared;
            assert_eq!(
                dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap(),
                "OK opened q rows=0"
            );
            dispatch(shared, 1, "FEED q\nAAA,1,10\nAAA,2,11").unwrap();
            // Re-OPEN reports the durable row count a crashed feeder
            // resumes from.
            assert_eq!(
                dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap(),
                "OK opened q rows=2"
            );
        }
        // After a crash the count survives.
        let server = Server::bind(durable_config(&root, 64)).unwrap();
        assert_eq!(
            dispatch(&server.shared, 1, "OPEN q name:str,day:int,price:float").unwrap(),
            "OK opened q rows=2"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unsubscribe_deletes_durable_state_before_finishing() {
        let root = temp_data_dir("unsub");
        let server = Server::bind(durable_config(&root, 64)).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        let sql = "SELECT X.name FROM q CLUSTER BY name SEQUENCE BY day AS (X, Z) \
                   WHERE Z.price < X.price";
        dispatch(shared, 1, &format!("SUBSCRIBE s q\n{sql}")).unwrap();
        let meta = root.join("subs").join("s.meta");
        assert!(meta.exists(), "subscription metadata persisted");
        dispatch(shared, 1, "UNSUBSCRIBE s").unwrap();
        assert!(!meta.exists(), "unsubscribe removes durable files");
        drop(server);
        // A restart must not resurrect the unsubscribed query.
        let server = Server::bind(durable_config(&root, 64)).unwrap();
        assert_eq!(server.recovery().unwrap().subscriptions, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wal_truncates_once_snapshots_pass_the_low_water_mark() {
        let root = temp_data_dir("lowwater");
        let config = ServerConfig {
            // Roll a segment on every append so each frame is alone in
            // its segment and truncation (whole-segment unlink) can bite.
            wal_segment_bytes: 1,
            ..durable_config(&root, 1)
        };
        let server = Server::bind(config).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        let sql = "SELECT X.name FROM q CLUSTER BY name SEQUENCE BY day AS (X, Z) \
                   WHERE Z.price < X.price";
        dispatch(shared, 1, &format!("SUBSCRIBE s q\n{sql}")).unwrap();
        for day in 0..6 {
            dispatch(shared, 1, &format!("FEED q\nAAA,{day},{}", 50 - day)).unwrap();
        }
        // checkpoint_every_frames=1: every feed snapshots and truncates.
        // Every closed segment is unlinked; the active segment (which
        // always retains the newest frame) is all that survives.
        let scan = crate::wal::scan_wal(&root.join("channels").join("q.wal")).unwrap();
        assert_eq!(scan.frames.len(), 1, "only the active frame: {scan:?}");
        assert_eq!(scan.frames[0].end(), 6, "{scan:?}");
        assert_eq!(scan.segments.len(), 1, "{scan:?}");
        assert_eq!(scan.rows_total, 6, "ordinal survives truncation");
        assert!(shared.metrics.wal_truncations_total.load(Ordering::Relaxed) > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn second_bind_on_a_locked_data_dir_is_refused() {
        let root = temp_data_dir("locked");
        let first = Server::bind(durable_config(&root, 64)).unwrap();
        let second = Server::bind(durable_config(&root, 64));
        match second {
            Err(e) => {
                assert_eq!(e.exit_code(), 2, "{e}");
                assert!(e.message().contains("in use"), "{e}");
            }
            Ok(_) => panic!("second bind on a locked dir must fail"),
        }
        drop(first);
        Server::bind(durable_config(&root, 64)).unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_listen_address_is_a_usage_error() {
        let config = ServerConfig {
            listen: "definitely:not:an:address".into(),
            ..ServerConfig::default()
        };
        match Server::bind(config) {
            Err(e) => assert_eq!(e.exit_code(), 2, "{e}"),
            Ok(_) => panic!("bad listen address must fail"),
        }
    }

    #[test]
    fn group_commit_coalesces_concurrent_feeders() {
        let root = temp_data_dir("groupcommit");
        let config = ServerConfig {
            fsync: FsyncPolicy::Group { window_us: 5_000 },
            ..durable_config(&root, 1_000)
        };
        let server = Server::bind(config).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        // Four feeders race 5 FEEDs each; every ack means "my rows are
        // fsynced", but the 5 ms leader window lets concurrent appends
        // share one fsync(2).
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let shared = &server.shared;
                scope.spawn(move || {
                    for f in 0..5u64 {
                        let day = t * 100 + f;
                        let reply =
                            dispatch(shared, t + 1, &format!("FEED q\nAAA,{day},10")).unwrap();
                        assert!(reply.starts_with("OK fed 1"), "{reply}");
                    }
                });
            }
        });
        let appends = shared.metrics.wal_appends_total.load(Ordering::Relaxed);
        let fsyncs = shared.metrics.wal_fsyncs_total.load(Ordering::Relaxed);
        assert_eq!(appends, 20);
        assert!(
            fsyncs < appends,
            "group commit must batch: {fsyncs} fsyncs for {appends} appends"
        );
        drop(server);
        // Every acked row really was durable.
        let server = Server::bind(durable_config(&root, 1_000)).unwrap();
        assert_eq!(
            dispatch(&server.shared, 1, "OPEN q name:str,day:int,price:float").unwrap(),
            "OK opened q rows=20"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_durable_reply_matches_the_checkpoint_on_disk() {
        let root = temp_data_dir("cpdurable");
        let server = Server::bind(durable_config(&root, 1_000)).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
        for frame in kill_frames().iter().take(4) {
            dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
        }
        let reply = dispatch(shared, 1, "CHECKPOINT s DURABLE").unwrap();
        let ordinal: u64 = reply
            .strip_prefix("OK checkpoint s durable ordinal=")
            .unwrap_or_else(|| panic!("unexpected reply: {reply}"))
            .parse()
            .unwrap();
        assert_eq!(ordinal, 12, "4 frames x 3 rows all checkpointed");
        // The regression the verb exists for: the ordinal in the reply
        // must be derived from the snapshot that actually hit the disk.
        let cp_text = std::fs::read_to_string(root.join("subs").join("s.checkpoint")).unwrap();
        let cp = sqlts_core::SessionCheckpoint::from_text(&cp_text).unwrap();
        let meta =
            SubMeta::from_text(&std::fs::read_to_string(root.join("subs").join("s.meta")).unwrap())
                .unwrap();
        assert_eq!(
            ordinal,
            meta.resume_ordinal(cp.records()),
            "reply ordinal diverges from the durable checkpoint"
        );
        // The lowercase spelling works too, and a plain CHECKPOINT still
        // answers with the portable text codec.
        let reply = dispatch(shared, 1, "CHECKPOINT s durable").unwrap();
        assert!(
            reply.starts_with("OK checkpoint s durable ordinal="),
            "{reply}"
        );
        let plain = dispatch(shared, 1, "CHECKPOINT s").unwrap();
        assert!(
            plain.starts_with("CHECKPOINT s\nsqlts-checkpoint v1\n"),
            "{plain}"
        );
        drop(server);
        // Without a data dir there is nothing durable to promise.
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
        let err = dispatch(shared, 1, "CHECKPOINT s DURABLE").unwrap_err();
        assert!(err.starts_with("ERR 2 "), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    #[test]
    fn bind_rejects_invalid_replication_configs() {
        let cases: [(&str, ServerConfig); 5] = [
            (
                "--standby without --data-dir",
                ServerConfig {
                    standby: true,
                    ..ServerConfig::default()
                },
            ),
            (
                "--replicate-to without --data-dir",
                ServerConfig {
                    replicate_to: Some("127.0.0.1:9".into()),
                    ..ServerConfig::default()
                },
            ),
            (
                "--standby with --replicate-to",
                ServerConfig {
                    standby: true,
                    replicate_to: Some("127.0.0.1:9".into()),
                    ..durable_config(&temp_data_dir("cfg-chain"), 64)
                },
            ),
            (
                "--standby with --fsync group",
                ServerConfig {
                    standby: true,
                    fsync: FsyncPolicy::Group { window_us: 500 },
                    ..durable_config(&temp_data_dir("cfg-group"), 64)
                },
            ),
            (
                "--promote-on-disconnect without --standby",
                ServerConfig {
                    promote_on_disconnect: true,
                    ..ServerConfig::default()
                },
            ),
        ];
        for (what, config) in cases {
            match Server::bind(config) {
                Err(e) => assert_eq!(e.exit_code(), 2, "{what}: {e}"),
                Ok(_) => panic!("{what} must be refused at bind"),
            }
        }
    }

    #[test]
    fn standby_is_read_only_until_promoted() {
        let root = temp_data_dir("readonly");
        let config = ServerConfig {
            standby: true,
            ..durable_config(&root, 64)
        };
        let server = Server::bind(config).unwrap();
        let shared = &server.shared;
        // Mutating verbs are refused with a hint at the escape hatch.
        for payload in [
            "OPEN q name:str,day:int,price:float",
            "FEED q\nAAA,1,10",
            &format!("SUBSCRIBE s q\n{KILL_SQL}"),
            "UNSUBSCRIBE s",
            "CHECKPOINT s",
            "DRAIN",
        ] {
            let err = dispatch(shared, 1, payload).unwrap_err();
            assert!(err.starts_with("ERR 4 "), "{payload:?} -> {err}");
            assert!(err.contains("PROMOTE"), "{payload:?} -> {err}");
        }
        assert_eq!(dispatch(shared, 1, "PING").unwrap(), "OK pong");
        // Promotion flips it into a plain durable primary.
        let reply = dispatch(shared, 1, "PROMOTE").unwrap();
        assert!(reply.starts_with("OK promoted channels=0"), "{reply}");
        assert!(!server.is_standby());
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        dispatch(shared, 1, "FEED q\nAAA,1,10").unwrap();
        // Promoting twice (or promoting a server that never was a
        // standby) is a usage error, not a silent no-op.
        let err = dispatch(shared, 1, "PROMOTE").unwrap_err();
        assert!(err.starts_with("ERR 2 "), "{err}");
        let plain = Server::bind(ServerConfig::default()).unwrap();
        let err = dispatch(&plain.shared, 1, "PROMOTE").unwrap_err();
        assert!(err.starts_with("ERR 2 "), "{err}");
        let err = dispatch(&plain.shared, 1, "REPL HELLO v1").unwrap_err();
        assert!(err.starts_with("ERR 2 "), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A warm standby accepting a live replication stream, stoppable and
    /// promotable from the test thread.
    struct StandbyRig {
        server: Arc<Server>,
        stop: Arc<AtomicBool>,
        handle: Option<std::thread::JoinHandle<()>>,
        root: PathBuf,
        addr: String,
    }

    impl StandbyRig {
        fn spawn(name: &str) -> StandbyRig {
            let root = temp_data_dir(name);
            let config = ServerConfig {
                listen: "127.0.0.1:0".into(),
                standby: true,
                ..durable_config(&root, 1_000)
            };
            let server = Arc::new(Server::bind(config).unwrap());
            let addr = server.local_addr().unwrap().to_string();
            let stop = Arc::new(AtomicBool::new(false));
            let handle = {
                let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let _ = server.run_until(&stop);
                })
            };
            StandbyRig {
                server,
                stop,
                handle: Some(handle),
                root,
                addr,
            }
        }

        /// Block until the primary's resync has landed the subscription's
        /// durable files on this standby.
        fn wait_for_sub(&self, id: &str) {
            let meta = self.root.join("subs").join(format!("{id}.meta"));
            let cp = self.root.join("subs").join(format!("{id}.checkpoint"));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !(meta.exists() && cp.exists()) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "standby never received subscription {id}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    impl Drop for StandbyRig {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    fn opened_rows(shared: &Shared) -> u64 {
        let reply = dispatch(shared, 7, "OPEN q name:str,day:int,price:float").unwrap();
        reply
            .strip_prefix("OK opened q rows=")
            .unwrap_or_else(|| panic!("unexpected reply: {reply}"))
            .parse()
            .unwrap()
    }

    /// The tentpole acceptance: kill the primary after every possible
    /// frame prefix, promote the standby, and require the promoted
    /// server's final result to be byte-identical to an uninterrupted
    /// run.  Under `sync` acks nothing may be lost; under `async` only
    /// unacked tail frames may be lost, and the test pins down exactly
    /// which by resuming from the promoted server's own durable ordinal.
    fn promotion_survives_kill_at_every_frame_boundary(ack: ReplAck) {
        let frames = kill_frames();
        let reference = {
            let server = Server::bind(ServerConfig::default()).unwrap();
            let shared = &server.shared;
            dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
            dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
            for frame in &frames {
                dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
            }
            dispatch(shared, 1, "UNSUBSCRIBE s").unwrap()
        };
        for k in 0..=frames.len() {
            let rig = StandbyRig::spawn(&format!("stby-{ack}-{k}"));
            let proot = temp_data_dir(&format!("prim-{ack}-{k}"));
            let acked_at_kill = {
                let primary = Server::bind(ServerConfig {
                    replicate_to: Some(rig.addr.clone()),
                    repl_ack: ack,
                    ..durable_config(&proot, 1_000)
                })
                .unwrap();
                let shared = &primary.shared;
                dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
                dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
                rig.wait_for_sub("s");
                for frame in &frames[..k] {
                    dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
                }
                let repl = shared.repl.as_ref().unwrap();
                if ack == ReplAck::Sync {
                    assert_eq!(
                        repl.state.sync_degraded.load(Ordering::Relaxed),
                        0,
                        "sync acks must not degrade against a live standby (kill@{k})"
                    );
                }
                repl.state.acked("q")
                // The primary dies here: dropped without drain, mid-ship
                // for whatever the queue still holds.
            };
            let reply = dispatch(&rig.server.shared, 9, "PROMOTE").unwrap();
            assert!(
                reply.starts_with("OK promoted channels=1"),
                "kill@{k}: {reply}"
            );
            let shared = &rig.server.shared;
            let rows = opened_rows(shared);
            let fed = 3 * k as u64;
            if ack == ReplAck::Sync {
                // Every FEED ack waited for the standby ack: promotion
                // loses nothing.
                assert_eq!(rows, fed, "sync kill@{k} lost acked rows");
            } else {
                // Async may lose only the unacked tail, and never a frame
                // the primary had seen acknowledged.
                assert!(
                    acked_at_kill <= rows && rows <= fed,
                    "async kill@{k}: acked {acked_at_kill} <= rows {rows} <= fed {fed}"
                );
                assert_eq!(rows % 3, 0, "frames ship whole (kill@{k}, rows={rows})");
            }
            // Resume exactly where the promoted server says it is: the
            // lost set is precisely frames[rows/3..k], nothing else —
            // byte-identity below proves no mid-stream gap.
            for frame in &frames[(rows / 3) as usize..] {
                dispatch(shared, 9, &format!("FEED q\n{frame}")).unwrap();
            }
            let result = dispatch(shared, 9, "UNSUBSCRIBE s").unwrap();
            assert_eq!(result, reference, "{ack} kill after frame {k} diverged");
            assert!(
                shared.metrics.repl_promotions_total.load(Ordering::Relaxed) == 1,
                "kill@{k}"
            );
            let _ = std::fs::remove_dir_all(&proot);
        }
    }

    #[test]
    fn promotion_is_byte_identical_with_sync_acks() {
        promotion_survives_kill_at_every_frame_boundary(ReplAck::Sync);
    }

    #[test]
    fn promotion_loses_only_the_unacked_tail_with_async_acks() {
        promotion_survives_kill_at_every_frame_boundary(ReplAck::Async);
    }

    /// `repl::standby_append` + `DelayMs`: a sync-ack FEED must block
    /// until the standby has actually applied the frame.
    #[cfg(feature = "failpoints")]
    #[test]
    fn sync_feed_blocks_on_the_standby_ack() {
        use sqlts_relation::failpoints::{self, FailAction};
        let rig = StandbyRig::spawn("stby-delay");
        let proot = temp_data_dir("prim-delay");
        let primary = Server::bind(ServerConfig {
            replicate_to: Some(rig.addr.clone()),
            repl_ack: ReplAck::Sync,
            ..durable_config(&proot, 1_000)
        })
        .unwrap();
        let shared = &primary.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
        rig.wait_for_sub("s");
        failpoints::configure("repl::standby_append", FailAction::DelayMs(300));
        let started = std::time::Instant::now();
        dispatch(shared, 1, "FEED q\nAAA,1,10").unwrap();
        let elapsed = started.elapsed();
        failpoints::reset();
        assert!(
            elapsed >= Duration::from_millis(300),
            "sync FEED returned in {elapsed:?}, before the standby applied the frame"
        );
        assert_eq!(
            shared
                .repl
                .as_ref()
                .unwrap()
                .state
                .sync_degraded
                .load(Ordering::Relaxed),
            0,
            "a delayed ack inside the window is not a degrade"
        );
        drop(primary);
        let _ = std::fs::remove_dir_all(&proot);
    }

    #[test]
    fn malformed_durable_state_is_an_input_error() {
        let root = temp_data_dir("malformed");
        {
            let server = Server::bind(durable_config(&root, 64)).unwrap();
            dispatch(&server.shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        }
        std::fs::write(root.join("channels").join("q.schema"), "not a schema").unwrap();
        match Server::bind(durable_config(&root, 64)) {
            Err(e) => assert_eq!(e.exit_code(), 3, "{e}"),
            Ok(_) => panic!("malformed schema file must fail recovery"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
