//! The TCP server: acceptor, per-connection protocol driver, verb
//! handlers, the channel/subscription registries they share, restart
//! recovery, graceful drain, and the `GET /metrics` / `GET /status` HTTP
//! shim.  What happens to a `FEED` frame once its channel is found lives
//! in [`crate::channel`]; both ends of replication live in
//! [`crate::replicate`].
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
//! CHECKPOINT <sub-id> [DURABLE]
//! UNSUBSCRIBE <sub-id>
//! PROMOTE
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
//! connection that created it: a lock-guarded [`sqlts_core::SessionWorker`] session
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
//!   ([`crate::wal`]) *before* it fans out, so WAL order is exactly feed
//!   order;
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

use crate::channel::{save_sub, Channel, Subscription};
use crate::frame::{read_frame_timed, write_frame, FrameEvent, FrameFatal};
use crate::metrics::{metrics_text, status_json, LatencyOp, ServerMetrics, SubStatusView};
use crate::recover::{DataDir, ServeError, SubMeta};
use crate::replicate::{self, ReplAck, ReplSnapshot, Replicator};
use crate::wal::{scan_wal, FsyncPolicy, WalFrame};
use sqlts_core::{EngineKind, FinishReport, Governor, SessionCheckpoint, TripReason, WorkerError};
use sqlts_relation::Schema;
use sqlts_trace::{Level, PatternSetStats, SpanLog};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often [`Server::run_until`] looks at the flags a signal handler
/// sets (shutdown, promotion); connections never wait on it.
const FLAG_POLL: Duration = Duration::from_millis(20);

/// The acceptor's pause after a failed `accept()`, so fd exhaustion
/// cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

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
    /// Span log filter level (`--log-level error|warn|info|debug`).
    pub log_level: Level,
    /// Rotate the span log past this size (`--log-rotate-bytes`; 0
    /// disables rotation).
    pub log_rotate_bytes: u64,
    /// Warn about any frame whose decode+dispatch exceeds this many
    /// milliseconds (`--slow-frame-ms`); `None` disables the check.
    pub slow_frame_ms: Option<u64>,
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
            fsync: FsyncPolicy::Group { window_us: 0 }, // every
            checkpoint_every_frames: 64,
            log_file: None,
            log_level: Level::Info,
            log_rotate_bytes: 0,
            slow_frame_ms: None,
            shared_matcher: false,
            wal_segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            replicate_to: None,
            repl_ack: ReplAck::Async,
            standby: false,
            promote_on_disconnect: false,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    channels: Mutex<HashMap<String, Arc<Channel>>>,
    subs: Mutex<HashMap<String, Arc<Subscription>>>,
    pub(crate) metrics: ServerMetrics,
    next_conn: AtomicU64,
    /// The locked durable state directory, when configured.
    pub(crate) data: Option<DataDir>,
    /// Live client sockets, for the parting error at drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Set for the rest of the process's life once a drain begins.
    /// Connection reapers check it: the socket shutdowns drain sends wake
    /// every connection thread, and those must not mistake the drain for
    /// a client disconnect and delete durable state the drain just
    /// snapshotted.
    pub(crate) draining: AtomicBool,
    /// The armed structured span log, `None` when `--log` is absent.
    /// Every record site goes through the `span_*` helpers — one
    /// predictable branch when unarmed, exactly PR 3's discipline.
    log: Option<SpanLog>,
    /// A [`Role`] as `u8`: starts as `Standby` or `Primary` per
    /// [`ServerConfig::standby`]; only [`promote_server`] changes it.
    role: AtomicU8,
    /// Promotion requested out-of-band (SIGUSR1 relay, primary
    /// disconnect); serviced by [`Server::run_until`]'s flag poll.
    promote: AtomicBool,
    /// The primary-side replication handle, `None` without
    /// `--replicate-to`.
    pub(crate) repl: Option<Replicator>,
    /// On a standby: the connection id currently speaking `REPL` (0 =
    /// none), so its disconnect can trigger `--promote-on-disconnect`.
    pub(crate) repl_conn: AtomicU64,
}

/// Where a server stands in replication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// A warm standby: replication traffic and read-only probes only.
    Standby,
    /// Between the two: workers are respawning and the WAL replaying, so
    /// only `PING` is served — a verb that saw a half-promoted server
    /// could feed the subscriptions already respawned and not the rest.
    Promoting,
    /// Serving every verb (never a standby, or promoted).
    Primary,
}

impl Shared {
    pub(crate) fn role(&self) -> Role {
        match self.role.load(Ordering::SeqCst) {
            0 => Role::Standby,
            1 => Role::Promoting,
            _ => Role::Primary,
        }
    }

    fn set_role(&self, role: Role) {
        self.role.store(role as u8, Ordering::SeqCst);
    }

    /// Begin a span if the log is armed; 0 otherwise (and [`span_end`]
    /// of 0 is free).
    ///
    /// [`span_end`]: Shared::span_end
    pub(crate) fn span_begin(
        &self,
        level: Level,
        name: &str,
        parent: u64,
        fields: &[(&str, &str)],
    ) -> u64 {
        match &self.log {
            Some(log) => log.begin(level, name, parent, fields),
            None => 0,
        }
    }

    pub(crate) fn span_end(&self, level: Level, name: &str, id: u64, fields: &[(&str, &str)]) {
        if let Some(log) = &self.log {
            log.end(level, name, id, fields);
        }
    }

    pub(crate) fn span_event(&self, level: Level, name: &str, fields: &[(&str, &str)]) {
        if let Some(log) = &self.log {
            log.event(level, name, fields);
        }
    }

    /// The span log, when a record at `level` would be written.  A site
    /// whose fields must be formatted goes through this, so an unarmed
    /// (or filtered) server formats nothing.
    pub(crate) fn log_at(&self, level: Level) -> Option<&SpanLog> {
        self.log.as_ref().filter(|log| log.enabled(level))
    }

    // The two registries shrug off poisoning: every update to them is a
    // single map insert or remove, so a panicking holder cannot leave
    // either map half-changed.

    fn channels(&self) -> MutexGuard<'_, HashMap<String, Arc<Channel>>> {
        self.channels.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn subs(&self) -> MutexGuard<'_, HashMap<String, Arc<Subscription>>> {
        self.subs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The open channel called `name`, or the `ERR 2` reply.
    pub(crate) fn channel(&self, name: &str) -> Result<Arc<Channel>, String> {
        self.channels()
            .get(name)
            .cloned()
            .ok_or_else(|| err(2, format!("unknown channel '{name}'")))
    }

    /// Every open channel (registry order, which is arbitrary).
    pub(crate) fn all_channels(&self) -> Vec<Arc<Channel>> {
        self.channels().values().cloned().collect()
    }

    /// The live subscriptions on channel `chan`.
    pub(crate) fn members(&self, chan: &str) -> Vec<Arc<Subscription>> {
        let subs = self.subs();
        let on_chan = subs.values().filter(|s| s.meta.channel == chan);
        on_chan.cloned().collect()
    }

    /// The live subscription `id`, or the `ERR 2` reply.
    fn sub(&self, id: &str) -> Result<Arc<Subscription>, String> {
        self.subs().get(id).cloned().ok_or_else(|| unknown_sub(id))
    }

    /// Drop subscription `id`'s durable record, here and on the standby.
    /// Always *before* the worker is finished: a crash in between leaves
    /// a finished worker with no record, never a record that would
    /// resurrect a query its client saw end.
    fn forget_sub(&self, id: &str) {
        if let Some(data) = self.data.as_ref() {
            data.remove_sub(id);
            if let Some(repl) = self.repl.as_ref() {
                repl.offer_remove(id);
            }
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
    /// The replication shipping thread (`--replicate-to`); it holds only
    /// a `Weak` on [`Shared`] and is joined on drop so a dropped server
    /// releases its data dir promptly.
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
        if config.standby && matches!(config.fsync, FsyncPolicy::Group { window_us: 1.. }) {
            // A standby applies frames from one replication connection, so
            // a group window would only delay each ack, never share a sync.
            return Err(ServeError::Usage(
                "--standby does not support a --fsync group window; use every|off".into(),
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
                SpanLog::open(path, config.log_level, config.log_rotate_bytes)
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
        let role = if config.standby {
            Role::Standby
        } else {
            Role::Primary
        };
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
            role: AtomicU8::new(role as u8),
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
        let repl_thread = repl_rx.and_then(|rx| {
            let repl = shared.repl.as_ref().expect("rx implies a replicator");
            let stop = Arc::clone(&repl.stop);
            let weak = Arc::downgrade(&shared);
            std::thread::Builder::new()
                .name("sqlts-repl".into())
                .spawn(move || replicate::shipping_thread(&weak, &rx, &stop))
                .ok()
        });
        Ok(Server {
            listener,
            shared,
            recovery,
            repl_thread: Mutex::new(repl_thread),
        })
    }

    /// A flag that, when set, makes [`Server::run_until`] promote this
    /// standby (the CLI's SIGUSR1 relay sets it).  Setting it on a
    /// non-standby is a no-op beyond a logged failure.
    pub fn request_promotion(&self) {
        self.shared.promote.store(true, Ordering::SeqCst);
    }

    /// Whether this server is a warm standby right now (a promotion in
    /// progress counts: it is not a primary until the promotion is done).
    pub fn is_standby(&self) -> bool {
        self.shared.role() != Role::Primary
    }

    /// What recovery restored, when a data dir was configured.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The actually-bound address (resolves `:0`).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until the process ends: one `sqlts-accept` thread blocked in
    /// `accept()`, one thread per connection.
    pub fn run(&self) -> io::Result<()> {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.run_until(&NEVER)
    }

    /// Serve until `shutdown` becomes true, then drain gracefully: final
    /// snapshots, a parting `ERR 4` to every live client, the data-dir
    /// LOCK released, and a clean `Ok(())`.
    ///
    /// A `sqlts-accept` thread blocks in `accept()`, so a connection is
    /// served the moment it arrives.  The calling thread polls only what
    /// a signal handler can set — `shutdown` and a requested promotion —
    /// every [`FLAG_POLL`].  On shutdown it stops the acceptor (a stop
    /// flag, then one loopback connect to wake the blocked `accept()`)
    /// and joins it before draining, so nothing is accepted mid-drain.
    /// It returns only once every connection thread the drain parted has
    /// exited, so none still holds the data dir when the caller rebinds.
    pub fn run_until(&self, shutdown: &AtomicBool) -> io::Result<()> {
        let wake = wake_addr(self.listener.local_addr()?);
        let stop = AtomicBool::new(false);
        let conn_threads = std::thread::scope(|scope| -> io::Result<_> {
            let acceptor = std::thread::Builder::new()
                .name("sqlts-accept".into())
                .spawn_scoped(scope, || self.accept_until(&stop))?;
            while !shutdown.load(Ordering::SeqCst) {
                if self.shared.promote.swap(false, Ordering::SeqCst) {
                    let (event, field, text) = match promote_server(&self.shared) {
                        Ok(summary) => ("promoted", "summary", summary),
                        Err(e) => ("promote_failed", "error", e),
                    };
                    self.shared
                        .span_event(Level::Warn, event, &[(field, &text)]);
                }
                std::thread::sleep(FLAG_POLL);
            }
            stop.store(true, Ordering::SeqCst);
            // Retry only a failed connect (fds exhausted): without one
            // the acceptor may never return from accept().
            while TcpStream::connect(wake).is_err() && !acceptor.is_finished() {
                std::thread::sleep(FLAG_POLL);
            }
            Ok(acceptor.join().unwrap_or_default())
        })?;
        self.drain(conn_threads);
        Ok(())
    }

    /// The acceptor: hand every connection its own thread until `stop`
    /// is set.  The connection that wakes it for shutdown is dropped
    /// unserved, uncounted and unlogged.  A failed `accept()` never ends
    /// the server: an aborted peer is skipped, anything else (fds
    /// exhausted, say) is logged and retried after [`ACCEPT_BACKOFF`].
    /// Returns the connection threads still running, for the drain to
    /// join.
    fn accept_until(&self, stop: &AtomicBool) -> Vec<JoinHandle<()>> {
        let mut conn_threads = Vec::new();
        loop {
            let accepted = self.listener.accept();
            if stop.load(Ordering::SeqCst) {
                return conn_threads;
            }
            #[cfg(feature = "failpoints")]
            let accepted = accepted.and_then(|pair| {
                match sqlts_relation::failpoints::hit("server::accept", 0) {
                    Some(sqlts_relation::failpoints::Injected::InjectError) => Err(
                        io::Error::other("failpoint 'server::accept' injected error"),
                    ),
                    _ => Ok(pair),
                }
            });
            match accepted {
                Ok((stream, peer)) => {
                    conn_threads.retain(|t| !t.is_finished());
                    conn_threads.extend(spawn_connection(&self.shared, stream, peer));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => {
                    self.shared.span_event(
                        Level::Warn,
                        "accept_failed",
                        &[("error", &e.to_string())],
                    );
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }

    fn drain(&self, conn_threads: Vec<JoinHandle<()>>) {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        if let Some(repl) = shared.repl.as_ref() {
            // Stop shipping first: a drain must not block on standby acks.
            repl.shutdown();
        }
        let span = shared.span_begin(Level::Warn, "drain", 0, &[]);
        for channel in shared.all_channels() {
            if let Ok(mut persist) = channel.lock() {
                channel.snapshot(shared, &mut persist, span);
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
        // The shutdown above ends every parted connection's thread.
        for thread in conn_threads {
            let _ = thread.join();
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
/// dir: reopen every channel's WAL (truncating torn tails), then
/// [`respawn_and_replay`].
///
/// A `--standby` bind stops after the channel half: durable state is
/// live and appendable (the replication stream needs the WALs), but no
/// worker spawns until [`promote_server`] runs the second half.
fn recover(shared: &Shared) -> Result<RecoveryReport, ServeError> {
    let data = shared.data.as_ref().expect("recover requires a data dir");
    let mut report = RecoveryReport::default();
    let mut frames_by_channel = HashMap::new();
    for (name, schema) in data.load_channels()? {
        let (channel, scan) = Channel::durable(shared, data, &name, schema)?;
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
        shared.channels().insert(name, Arc::new(channel));
        report.channels += 1;
    }
    if !shared.config.standby {
        respawn_and_replay(shared, frames_by_channel, &mut report)?;
    }
    Ok(report)
}

/// The subscription half of recovery, shared with standby promotion:
/// respawn every persisted subscription from its snapshot, then replay
/// each channel's surviving WAL frames into its workers.
fn respawn_and_replay(
    shared: &Shared,
    mut frames_by_channel: HashMap<String, Vec<WalFrame>>,
    report: &mut RecoveryReport,
) -> Result<(), ServeError> {
    let data = shared.data.as_ref().expect("recover requires a data dir");
    for (id, meta, checkpoint) in data.load_subs()? {
        let channel = shared.channel(&meta.channel).map_err(|_| {
            ServeError::Input(format!(
                "subscription '{id}' references unknown channel '{}'",
                meta.channel
            ))
        })?;
        let checkpoint = SessionCheckpoint::from_text(&checkpoint)
            .map_err(|e| ServeError::Input(format!("respawn subscription '{id}': {e}")))?;
        let mut persist = channel.lock()?;
        let sub = channel
            .join(shared, &mut persist, &id, 0, meta, Some(checkpoint))
            .map_err(|e| {
                let msg = format!("respawn subscription '{id}': {e}");
                match e.exit_code() {
                    3 => ServeError::Input(msg),
                    _ => ServeError::Runtime(msg),
                }
            })?;
        shared.subs().insert(id, Arc::new(sub));
        report.subscriptions += 1;
        ServerMetrics::inc(&shared.metrics.recovered_subscriptions_total);
    }
    for channel in shared.all_channels() {
        let frames = frames_by_channel.remove(&channel.name).unwrap_or_default();
        let (accepted, rejected) = channel.replay(shared, &frames)?;
        report.rows_replayed += accepted;
        report.rows_rejected += rejected;
    }
    Ok(())
}

/// Promote a warm standby into a full primary: move it to
/// [`Role::Promoting`] (atomically — a second `PROMOTE` loses), sync and
/// rescan every channel WAL from disk, run the subscription half of
/// recovery, and only then serve as a primary.  Byte-identity with the
/// dead primary follows from the WAL being the same bytes the primary
/// shipped, and recovery being the same machinery a crashed primary
/// restarts with.
fn promote_server(shared: &Shared) -> Result<String, String> {
    let (from, to) = (Role::Standby as u8, Role::Promoting as u8);
    if shared
        .role
        .compare_exchange(from, to, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Err(err(2, "not a standby (already promoted?)"));
    }
    let span = shared.span_begin(Level::Warn, "promote", 0, &[]);
    let mut report = RecoveryReport::default();
    let result = (|| -> Result<(), ServeError> {
        let data = shared.data.as_ref().expect("standby has a data dir");
        let channels = shared.all_channels();
        report.channels = channels.len();
        let mut frames_by_channel = HashMap::new();
        for channel in &channels {
            channel.sync(shared, &mut *channel.lock()?)?;
            // Rescan from disk: the standby never kept frames in memory.
            let scan = scan_wal(&data.wal_path(&channel.name))?;
            report.dropped_bytes += scan.dropped_bytes;
            frames_by_channel.insert(channel.name.clone(), scan.frames);
        }
        respawn_and_replay(shared, frames_by_channel, &mut report)
    })();
    match result {
        Ok(()) => {
            ServerMetrics::inc(&shared.metrics.repl_promotions_total);
            shared.set_role(Role::Primary);
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
            shared.set_role(Role::Standby);
            shared.span_end(Level::Warn, "promote", span, &[("error", e.message())]);
            Err(serve_err(&e))
        }
    }
}

/// Where the shutdown wake-up connects: the listener's own port, with an
/// unspecified address (`0.0.0.0`, `::`) swapped for the loopback of the
/// same family.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// Register an accepted connection and serve it on a thread of its own,
/// reaping its subscriptions when it closes.
/// Returns the thread's handle when the drain can part the connection
/// (its socket is in [`Shared::conns`]), so joining it cannot hang.
fn spawn_connection(
    shared: &Arc<Shared>,
    stream: TcpStream,
    peer: SocketAddr,
) -> Option<JoinHandle<()>> {
    // Replies are single small writes; never let Nagle park one behind
    // the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let shared = Arc::clone(shared);
    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    ServerMetrics::inc(&shared.metrics.connections_total);
    shared.span_event(
        Level::Info,
        "accept",
        &[("conn", &conn.to_string()), ("peer", &peer.to_string())],
    );
    let parted_by_drain = match (stream.try_clone(), shared.conns.lock()) {
        (Ok(clone), Ok(mut conns)) => {
            conns.insert(conn, clone);
            true
        }
        _ => false,
    };
    let thread = std::thread::Builder::new()
        .name(format!("sqlts-conn-{conn}"))
        .spawn(move || {
            // Whatever ends the connection, a panic included, its
            // subscriptions are reaped and its socket leaves the registry.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                handle_connection(&shared, stream, conn)
            }));
            reap_connection(&shared, conn);
            if let Ok(mut conns) = shared.conns.lock() {
                conns.remove(&conn);
            }
            // Losing the primary's replication session is the failover
            // trigger when the operator armed it.
            let was_repl = shared
                .repl_conn
                .compare_exchange(conn, 0, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            if was_repl
                && shared.config.promote_on_disconnect
                && shared.role() == Role::Standby
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
    thread.ok().filter(|_| parted_by_drain)
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
    let mut orphans = Vec::new();
    shared.subs().retain(|_, sub| {
        if sub.conn == conn {
            orphans.push(Arc::clone(sub));
        }
        sub.conn != conn
    });
    for sub in orphans {
        shared.forget_sub(&sub.id);
        if let Ok(report) = sub.worker.finish() {
            retire_tests(shared, &sub, &report);
            if let Some(profile) = report.profile {
                shared.metrics.retain_profile(&sub.id, profile);
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
                ServerMetrics::inc(&shared.metrics.frames_total);
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
        let request = match event {
            // The peer closed on a frame boundary: not a frame, so it is
            // neither timed nor counted.
            FrameEvent::Eof => return Ok(()),
            FrameEvent::Oversized { len } => Err(format!(
                "ERR 2 frame of {len} bytes exceeds limit {}",
                shared.config.max_frame_bytes
            )),
            FrameEvent::BadUtf8 => Err("ERR 2 frame payload is not UTF-8".into()),
            FrameEvent::Payload(payload) => Ok(payload),
        };
        shared
            .metrics
            .latency
            .record_ns(LatencyOp::FrameDecode, decode_ns);
        ServerMetrics::inc(&shared.metrics.frames_total);
        let dispatched = Instant::now();
        let mut panicked = false;
        let reply = request.and_then(|payload| {
            let dispatched = catch_unwind(AssertUnwindSafe(|| dispatch(shared, conn, &payload)));
            dispatched.unwrap_or_else(|cause| {
                // Answer, then close: what the verb left half done is
                // reaped with the connection.  A channel whose persist
                // lock the panic poisoned keeps refusing work.
                panicked = true;
                let verb = payload.split_whitespace().next().unwrap_or("");
                Err(err(4, format!("{verb} panicked: {}", panic_text(&*cause))))
            })
        });
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
        let text = reply.unwrap_or_else(|text| {
            ServerMetrics::inc(&shared.metrics.errors_total);
            text
        });
        write_frame(&mut writer, &text)?;
        if panicked {
            shared.span_event(
                Level::Warn,
                "verb_panicked",
                &[("conn", &conn.to_string()), ("reply", &text)],
            );
            return Ok(());
        }
    }
}

/// A caught panic's message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(text) => text,
        None => payload
            .downcast_ref::<String>()
            .map_or("non-string panic payload", String::as_str),
    }
}

pub(crate) fn err(code: u8, msg: impl std::fmt::Display) -> String {
    format!("ERR {code} {msg}")
}

fn worker_err(e: &WorkerError) -> String {
    err(e.exit_code(), e)
}

pub(crate) fn serve_err(e: &ServeError) -> String {
    err(e.exit_code(), e.message())
}

fn unknown_sub(id: &str) -> String {
    err(2, format!("unknown subscription '{id}'"))
}

/// Short machine-readable name for a trip cause (`STATUS` replies).
fn trip_name(reason: TripReason) -> &'static str {
    match reason {
        TripReason::Deadline => "deadline",
        TripReason::StepBudget => "steps",
        TripReason::MatchBudget => "matches",
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
    let span = shared.log_at(Level::Debug).map_or(0, |log| {
        let fields = [("verb", verb), ("conn", &conn.to_string())];
        log.begin(Level::Debug, "dispatch", 0, &fields)
    });
    // A warm standby accepts only the replication stream and read-only
    // probes; everything mutating is refused until PROMOTE so the two
    // ends of the stream cannot diverge.
    let reply = match shared.role() {
        Role::Standby => match (verb, args.as_slice()) {
            ("PING", []) => Ok("OK pong".into()),
            ("REPL", rest) => replicate::standby_dispatch(shared, conn, rest, body, span),
            ("PROMOTE", []) => promote_server(shared),
            ("STATUS", [id]) => replicate::standby_status(shared, id),
            ("", _) => Err(err(2, "empty frame")),
            (verb, _) => Err(err(
                4,
                format!("standby is read-only; '{verb}' is not served until PROMOTE"),
            )),
        },
        Role::Promoting => match (verb, args.as_slice()) {
            ("PING", []) => Ok("OK pong".into()),
            ("", _) => Err(err(2, "empty frame")),
            (verb, _) => Err(err(
                4,
                format!("promotion in progress; retry '{verb}' once it completes"),
            )),
        },
        Role::Primary => match (verb, args.as_slice()) {
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
        },
    };
    shared.span_end(
        Level::Debug,
        "dispatch",
        span,
        &[("ok", if reply.is_ok() { "1" } else { "0" })],
    );
    reply
}

/// `OPEN` (and the standby's `REPL OPEN`): idempotent for a matching
/// schema, `ERR 2` on a schema clash.
pub(crate) fn open_channel(shared: &Shared, chan: &str, spec: &str) -> Result<String, String> {
    let schema = Schema::parse_spec(spec).map_err(|e| err(2, e))?;
    let mut channels = shared.channels();
    let channel = match channels.get(chan) {
        Some(existing) if existing.schema == schema => Arc::clone(existing),
        Some(_) => {
            return Err(err(
                2,
                format!("channel '{chan}' already open with a different schema"),
            ))
        }
        None => {
            let channel = match shared.data.as_ref() {
                Some(data) => {
                    // Schema file before WAL: a crash in between leaves a
                    // channel recovery re-creates with an empty WAL, never a
                    // WAL no recovery pass will ever look at.
                    data.save_channel(chan, &schema)
                        .map_err(|e| serve_err(&e))?;
                    let (channel, _) =
                        Channel::durable(shared, data, chan, schema).map_err(|e| serve_err(&e))?;
                    if let Some(repl) = shared.repl.as_ref() {
                        repl.offer_open(chan, &channel.schema.to_spec());
                    }
                    channel
                }
                None => Channel::new(chan, schema, None),
            };
            let channel = Arc::new(channel);
            channels.insert(chan.to_string(), Arc::clone(&channel));
            channel
        }
    };
    if shared.data.is_some() {
        // The durable row count lets a crashed feeder resume idempotently
        // (skip rows below it).  Absent a data dir the reply keeps its
        // historical shape exactly.
        Ok(format!("OK opened {chan} rows={}", channel.rows_total()))
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
    let channel = shared
        .channel(chan)
        .map_err(|e| format!("{e} (OPEN it first)"))?;
    let admit = |subs: &HashMap<String, Arc<Subscription>>| {
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
        Ok(())
    };
    admit(&shared.subs())?;
    let resume_from = resume_from
        .map(SessionCheckpoint::from_text)
        .transpose()
        .map_err(|e| err(3, e))?;
    let what = if resume_from.is_some() {
        "resumed"
    } else {
        "subscribed"
    };
    // Hold the channel's persist lock across worker spawn, base-ordinal
    // read, registry insert and durable-record write: no FEED can advance
    // the channel (or fan out to a half-registered subscription) in
    // between — which also pins the shared-matcher alignment origin to
    // the exact row ordinal this subscription starts observing from.
    let mut persist = channel.lock().map_err(|e| serve_err(&e))?;
    // The join ordinal persisted below must not run ahead of the synced WAL.
    channel
        .sync(shared, &mut persist)
        .map_err(|e| err(4, format!("wal sync on '{chan}': {e}")))?;
    let meta = SubMeta {
        channel: chan.to_string(),
        base_rows: persist.rows_total(),
        base_records: resume_from.as_ref().map_or(0, SessionCheckpoint::records),
        sql: sql.to_string(),
    };
    let sub = channel
        .join(shared, &mut persist, id, conn, meta, resume_from)
        .map_err(|e| worker_err(&e))?;
    let durable = match shared.data.as_ref() {
        Some(data) => Some((data, sub.worker.snapshot().map_err(|e| worker_err(&e))?)),
        None => None,
    };
    let sub = Arc::new(sub);
    {
        let mut subs = shared.subs();
        // Re-check under the lock: another connection may have raced us.
        admit(&subs)?;
        subs.insert(id.to_string(), Arc::clone(&sub));
    }
    if let Some((data, text)) = durable {
        // Still under the persist lock: the standby sees the record before
        // any frame this subscription will be replayed over.
        if let Err(e) = save_sub(shared, data, id, &sub.meta, &text) {
            // An unpersistable subscription must not run: roll it back so
            // the client's view matches the durable state.
            shared.forget_sub(id);
            shared.subs().remove(id);
            let _ = sub.worker.finish();
            return Err(serve_err(&e));
        }
    }
    drop(persist);
    ServerMetrics::inc(&shared.metrics.subscriptions_total);
    Ok(format!("OK {what} {id} {chan}"))
}

fn feed(shared: &Shared, chan: &str, body: &str, parent: u64) -> Result<String, String> {
    let channel = shared.channel(chan)?;
    // FEED tolerates blank lines (a trailing newline, a spacer between
    // batches) and strips them; each row keeps its line number within the
    // frame for error messages.  What is kept is what the WAL stores —
    // joined only when a WAL or a standby will read it.
    let kept = || {
        body.lines()
            .enumerate()
            .filter(|(_, line)| !line.is_empty())
    };
    let parse_started = Instant::now();
    let rows = channel.parse_rows(kept());
    shared.metrics.latency.record_ns(
        LatencyOp::RowParse,
        parse_started.elapsed().as_nanos() as u64,
    );
    let rows = rows.map_err(|e| err(3, e))?;
    let fed_rows = rows.len();
    let payload = || kept().map(|(_, line)| line).collect::<Vec<_>>().join("\n");
    let fed = channel.ingest(shared, rows, payload, parent)?;
    Ok(format!(
        "OK fed {fed_rows} subs={} rejected={}",
        fed.subs, fed.rejected
    ))
}

fn status(shared: &Shared, id: &str) -> Result<String, String> {
    let status = shared
        .sub(id)?
        .worker
        .status()
        .map_err(|e| worker_err(&e))?;
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
    let text = shared
        .sub(id)?
        .worker
        .snapshot()
        .map_err(|e| worker_err(&e))?;
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
    let sub = shared.sub(id)?;
    let chan = &sub.meta.channel;
    let channel = shared
        .channel(chan)
        .map_err(|_| err(4, format!("channel '{chan}' is gone")))?;
    let mut persist = channel.lock().map_err(|e| serve_err(&e))?;
    channel
        .sync(shared, &mut persist)
        .map_err(|e| err(4, format!("wal sync on '{chan}': {e}")))?;
    let (text, records) = sub
        .worker
        .snapshot_with_records()
        .map_err(|e| worker_err(&e))?;
    save_sub(shared, data, id, &sub.meta, &text).map_err(|e| serve_err(&e))?;
    drop(persist);
    let ordinal = sub.meta.resume_ordinal(records);
    Ok(format!("OK checkpoint {id} durable ordinal={ordinal}"))
}

fn unsubscribe(shared: &Shared, id: &str) -> Result<String, String> {
    let sub = shared.subs().remove(id).ok_or_else(|| unknown_sub(id))?;
    shared.forget_sub(id);
    let report = sub.worker.finish().map_err(|e| worker_err(&e))?;
    retire_tests(shared, &sub, &report);
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
    let standby = shared.role() != Role::Primary;
    let (status_line, content_type, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        let views = http_sub_views(shared);
        let set = (shared.config.shared_matcher).then(|| patternset_stats(shared, &views));
        let snap = repl_snapshot(shared);
        let body = metrics_text(
            &shared.metrics,
            &views,
            set.as_ref(),
            snap.as_ref(),
            standby,
        );
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
    } else if path == "/status" || path.starts_with("/status?") {
        let subs = http_sub_views(shared);
        let draining = shared.draining.load(Ordering::SeqCst);
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
    let response = format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let mut writer = stream;
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// The primary's live replication health (`None` without
/// `--replicate-to`): counters from [`Replicator`], lag computed against
/// every channel's current durable row count.
fn repl_snapshot(shared: &Shared) -> Option<ReplSnapshot> {
    let repl = shared.repl.as_ref()?;
    let channels = shared.all_channels();
    // Row counts first, so no persist lock is taken under the ack lock.
    let rows: Vec<u64> = channels.iter().map(|c| c.rows_total()).collect();
    let names = channels.iter().map(|c| c.name.as_str());
    Some(repl.snapshot(repl.state.lag_rows(names.zip(rows))))
}

/// Roll the per-channel shared pattern-set registries into one
/// `/metrics` block.  Registries carry the compile shape of the live
/// members and the all-time memo savings; the *logical* test total is
/// all-time too: the live sessions' counts plus each channel's retired
/// total (solo subscriptions included — their tests are all physically
/// evaluated, which is exactly what `tests_evaluated = logical - saved`
/// charges).
fn patternset_stats(shared: &Shared, views: &[SubStatusView]) -> PatternSetStats {
    let mut stats = PatternSetStats::default();
    for channel in shared.all_channels() {
        stats.absorb(&channel.registry.stats());
        stats.tests_logical += channel.retired_tests.load(Ordering::Relaxed);
    }
    stats.tests_logical += views.iter().map(|v| v.status.predicate_tests).sum::<u64>();
    stats.tests_evaluated = stats.tests_logical.saturating_sub(stats.tests_saved);
    stats
}

/// Fold a finished subscription's logical tests into its channel's
/// retired total.
fn retire_tests(shared: &Shared, sub: &Subscription, report: &FinishReport) {
    if let Ok(channel) = shared.channel(&sub.meta.channel) {
        channel
            .retired_tests
            .fetch_add(report.predicate_tests, Ordering::Relaxed);
    }
}

/// Snapshot every live subscription's observable state for the HTTP
/// endpoints: status (records/skips/trip) and queue depth.
fn http_sub_views(shared: &Shared) -> Vec<SubStatusView> {
    let subs: Vec<Arc<Subscription>> = shared.subs().values().cloned().collect();
    let mut views: Vec<SubStatusView> = subs
        .iter()
        .filter_map(|sub| {
            sub.worker.status().ok().map(|status| SubStatusView {
                id: sub.id.clone(),
                channel: sub.meta.channel.clone(),
                status,
                queue_depth: sub.worker.queue_depth(),
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
        // The codec itself is `Schema::parse_spec`/`to_spec`; this pins
        // what OPEN does with it.
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:STR,day:integer,price:double").unwrap();
        let schema = &shared.channel("q").unwrap().schema;
        assert_eq!(schema.to_spec(), "name:str,day:int,price:float");
        assert_eq!(
            dispatch(shared, 1, "OPEN r name").unwrap_err(),
            "ERR 2 bad schema entry 'name' (want name:type)"
        );
        assert_eq!(
            dispatch(shared, 1, "OPEN r name:blob").unwrap_err(),
            "ERR 2 unknown column type 'blob'"
        );
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
    fn a_subscribe_that_loses_an_id_race_leaves_no_seat_behind() {
        // Two connections SUBSCRIBE the same id at once.  The loser may be
        // seated beside the winner before the registry re-check refuses it;
        // either way the winner's group must hold exactly one worker.
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        let sql = "SELECT X.name FROM q CLUSTER BY name SEQUENCE BY day AS (X, Y) \
                   WHERE Y.price > X.price";
        for round in 0..40 {
            let id = format!("dup{round}");
            let request = format!("SUBSCRIBE {id} q\n{sql}");
            let start = std::sync::Barrier::new(2);
            let replies: Vec<_> = std::thread::scope(|scope| {
                let racers: Vec<_> = [1, 2]
                    .map(|conn| {
                        let (start, request) = (&start, &request);
                        scope.spawn(move || {
                            start.wait();
                            dispatch(shared, conn, request)
                        })
                    })
                    .into_iter()
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(
                replies.iter().filter(|r| r.is_ok()).count(),
                1,
                "{replies:?}"
            );
            let winner = shared.sub(&id).unwrap();
            assert_eq!(winner.worker.group().seated(), 1, "round {round}");
            dispatch(shared, 1, &format!("UNSUBSCRIBE {id}")).unwrap();
        }
        // The channel still feeds and answers like a fresh one.
        dispatch(shared, 1, &format!("SUBSCRIBE last q\n{sql}")).unwrap();
        let reply = dispatch(shared, 1, "FEED q\nA,1,1.0\nA,2,2.0").unwrap();
        assert_eq!(reply, "OK fed 2 subs=1 rejected=0");
        let result = dispatch(shared, 1, "UNSUBSCRIBE last").unwrap();
        assert!(result.ends_with("name\nA\n"), "{result}");
    }

    #[test]
    fn subscriptions_joining_at_one_row_share_one_admission() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        let spec = "name:str,day:int,price:float";
        dispatch(shared, 1, &format!("OPEN q {spec}")).unwrap();
        let rise = "SELECT X.name, Z.day AS day FROM q CLUSTER BY name SEQUENCE BY day \
                    AS (X, *Y, Z) WHERE Y.price > Y.previous.price \
                    AND Z.price < Z.previous.price";
        let dip = "SELECT X.name, Y.day AS day FROM q CLUSTER BY name SEQUENCE BY day \
                   AS (X, Y) WHERE Y.price < X.price";
        let flat = "SELECT X.day FROM q SEQUENCE BY day AS (X, Y) WHERE Y.price < X.price";
        let body = |days: std::ops::Range<usize>| -> String {
            days.flat_map(|day| {
                ["AAA", "BBB"]
                    .map(|name| format!("{name},{day},{}\n", 94 + (day * 7 + name.len()) % 13))
            })
            .collect()
        };
        for (id, sql) in [("a", rise), ("b", dip), ("c", flat)] {
            dispatch(shared, 1, &format!("SUBSCRIBE {id} q\n{sql}")).unwrap();
        }
        dispatch(shared, 1, &format!("FEED q\n{}", body(0..20))).unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE d q\n{rise}")).unwrap();
        let reply = dispatch(shared, 1, &format!("FEED q\n{}", body(20..40))).unwrap();
        assert_eq!(reply, "OK fed 40 subs=4 rejected=0");
        // Joined at row 0 and admitting alike: one group.  Another CLUSTER
        // BY, or a later join, admits apart.
        let worker = |id: &str| shared.sub(id).unwrap();
        let group = |id: &str| worker(id).worker.group().clone();
        assert_eq!(group("b"), group("a"));
        assert_ne!(group("c"), group("a"));
        assert_ne!(group("d"), group("a"));
        // Each result is byte-identical to batch over the rows it saw.
        let schema = Schema::parse_spec(spec).unwrap();
        for (id, sql, from) in [
            ("a", rise, 0),
            ("b", dip, 0),
            ("c", flat, 0),
            ("d", rise, 20),
        ] {
            let csv = format!("name,day,price\n{}", body(from..40));
            let table = sqlts_relation::Table::from_csv_str(schema.clone(), &csv).unwrap();
            let query = sqlts_core::compile(sql, &schema, &Default::default()).unwrap();
            let batch = sqlts_core::execute(&query, &table, &Default::default()).unwrap();
            let result = dispatch(shared, 1, &format!("UNSUBSCRIBE {id}")).unwrap();
            let (head, csv) = result.split_once('\n').unwrap();
            assert!(head.starts_with(&format!("RESULT {id} 0 ")), "{head}");
            assert_eq!(csv, batch.table.to_csv_string(), "{id}");
        }
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
        let prom = patternset_stats(&on.shared, &views).to_prometheus();
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

    /// The `/metrics` pattern-set ledger as `[logical, evaluated, saved,
    /// shared, queries]`.
    fn ledger(shared: &Shared) -> [u64; 5] {
        let stats = patternset_stats(shared, &http_sub_views(shared));
        [
            stats.tests_logical,
            stats.tests_evaluated,
            stats.tests_saved,
            stats.tests_shared,
            stats.queries as u64,
        ]
    }

    fn assert_ledger_grew(before: [u64; 5], after: [u64; 5]) {
        for (i, name) in ["logical", "evaluated", "saved", "shared"]
            .iter()
            .enumerate()
        {
            assert!(
                after[i] >= before[i],
                "{name} fell: {before:?} -> {after:?}"
            );
        }
        assert_eq!(after[0], after[1] + after[2], "unbalanced: {after:?}");
    }

    #[test]
    fn patternset_ledger_counts_left_subscriptions() {
        let server = Server::bind(ServerConfig {
            shared_matcher: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        for i in 0..8 {
            let sql = format!(
                "SELECT X.name, Z.day AS day FROM q CLUSTER BY name SEQUENCE BY day \
                 AS (X, Y, Z) WHERE X.price > 95 AND Y.price > X.previous.price \
                 AND Z.price < {}",
                100 + i
            );
            dispatch(shared, 1, &format!("SUBSCRIBE s{i} q\n{sql}")).unwrap();
        }
        let mut body = String::new();
        for day in 0..50 {
            for name in ["AAA", "BBB"] {
                let price = 94 + ((day * 7 + name.len()) % 13);
                body.push_str(&format!("{name},{day},{price}\n"));
            }
        }
        dispatch(shared, 1, &format!("FEED q\n{body}")).unwrap();
        let before = ledger(shared);
        assert_eq!(before[4], 8, "{before:?}");
        assert!(before[3] > 0, "{before:?}");
        for i in 0..7 {
            dispatch(shared, 1, &format!("UNSUBSCRIBE s{i}")).unwrap();
        }
        let after = ledger(shared);
        assert_ledger_grew(before, after);
        assert_eq!(after[4], 1, "queries counts live members: {after:?}");
    }

    #[test]
    fn subscription_churn_leaves_no_registry_behind() {
        let server = Server::bind(ServerConfig {
            shared_matcher: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        let sql = |bound: usize| {
            format!(
                "SELECT X.name FROM q CLUSTER BY name SEQUENCE BY day AS (X, Y) \
                 WHERE X.price > 95 AND Y.price < {bound}"
            )
        };
        let mut last = ledger(shared);
        for cycle in 0..50 {
            // Two aligned members per cycle, at an origin one frame later
            // than the last cycle's: a fresh group every time.
            dispatch(shared, 1, &format!("SUBSCRIBE a{cycle} q\n{}", sql(100))).unwrap();
            dispatch(shared, 1, &format!("SUBSCRIBE b{cycle} q\n{}", sql(101))).unwrap();
            let mut body = String::new();
            for day in 0..10 {
                let price = 94 + ((cycle * 10 + day) * 7 % 13);
                body.push_str(&format!("AAA,{},{price}\n", cycle * 10 + day));
            }
            dispatch(shared, 1, &format!("FEED q\n{body}")).unwrap();
            dispatch(shared, 1, &format!("UNSUBSCRIBE a{cycle}")).unwrap();
            dispatch(shared, 1, &format!("UNSUBSCRIBE b{cycle}")).unwrap();
            let now = ledger(shared);
            assert_ledger_grew(last, now);
            assert_eq!(now[4], 0, "cycle {cycle}: {now:?}");
            last = now;
        }
        assert!(last[3] > 0, "{last:?}");
        let registry = &shared.channel("q").unwrap().registry;
        assert_eq!(registry.footprint(), (0, 0));
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

    #[test]
    fn frames_total_counts_frames_not_connection_closes() {
        let server = Arc::new(Server::bind(ServerConfig::default()).unwrap());
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_loop = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || server.run_until(&stop).unwrap())
        };
        let shared = &server.shared;
        for round in 1..=3u64 {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut reply = |expect: &str| match crate::frame::read_frame(&mut reader, 1 << 20) {
                Ok(FrameEvent::Payload(text)) => assert!(text.starts_with(expect), "{text}"),
                other => panic!("unexpected reply: {other:?}"),
            };
            // Four well-formed frames and one malformed one: five frames.
            for _ in 0..4 {
                write_frame(&mut stream, "PING").unwrap();
                reply("OK pong");
            }
            stream.write_all(b"3 \xff\xfe\xfd\n").unwrap();
            reply("ERR 2 ");
            // Closing is not a frame.  The server sees it asynchronously:
            // wait until the connection thread has come and gone.
            stream.shutdown(Shutdown::Both).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !shared.conns.lock().unwrap().is_empty() {
                assert!(Instant::now() < deadline, "connection never reaped");
                std::thread::sleep(Duration::from_millis(2));
            }
            let frames = shared.metrics.frames_total.load(Ordering::Relaxed);
            assert_eq!(frames, 5 * round, "after {round} connection(s)");
        }
        // Both HTTP views report the same count (and are not frames).
        let http_get = |path: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
            let mut out = String::new();
            io::Read::read_to_string(&mut stream, &mut out).unwrap();
            out
        };
        let prom = http_get("/metrics");
        assert!(prom.contains("\nsqlts_server_frames_total 15\n"), "{prom}");
        let status = http_get("/status");
        assert!(status.contains("\"frames_total\":15,"), "{status}");
        stop.store(true, Ordering::SeqCst);
        accept_loop.join().unwrap();
    }

    /// Shutdown wakes the blocked acceptor with one loopback connect —
    /// to loopback even when the listener is bound to the unspecified
    /// address — and that wake-up is no client: it is not counted, not
    /// logged and not served.  Every real client still gets the parting
    /// `ERR 4`, and nothing is accepted once `run_until` has returned.
    #[test]
    fn shutdown_wakes_the_acceptor_and_parts_only_real_clients() {
        for (i, listen) in ["127.0.0.1:0", "0.0.0.0:0"].into_iter().enumerate() {
            let log = temp_data_dir(&format!("wake{i}.jsonl"));
            let server = Arc::new(
                Server::bind(ServerConfig {
                    listen: listen.into(),
                    log_file: Some(log.clone()),
                    ..ServerConfig::default()
                })
                .unwrap(),
            );
            let addr = wake_addr(server.local_addr().unwrap());
            assert!(addr.ip().is_loopback(), "{listen} -> {addr}");
            let stop = Arc::new(AtomicBool::new(false));
            let run = {
                let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
                std::thread::spawn(move || server.run_until(&stop))
            };
            let mut client = TcpStream::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(client.try_clone().unwrap());
            let mut reply = || match crate::frame::read_frame(&mut reader, 1 << 20) {
                Ok(FrameEvent::Payload(text)) => text,
                other => panic!("{listen}: unexpected reply: {other:?}"),
            };
            write_frame(&mut client, "PING").unwrap();
            assert_eq!(reply(), "OK pong", "{listen}");

            stop.store(true, Ordering::SeqCst);
            let flagged = Instant::now();
            run.join().unwrap().unwrap();
            let took = flagged.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "{listen}: drain took {took:?}"
            );
            assert_eq!(reply(), "ERR 4 server draining", "{listen}");

            let shared = &server.shared;
            let counted = shared.metrics.connections_total.load(Ordering::Relaxed);
            assert_eq!(counted, 1, "{listen}: the wake-up was counted");
            assert_eq!(
                shared.next_conn.load(Ordering::Relaxed),
                2,
                "{listen}: the wake-up got a connection"
            );
            let spans = std::fs::read_to_string(&log).unwrap();
            let accepts = spans.matches("\"name\":\"accept\"").count();
            assert_eq!(accepts, 1, "{listen}: the wake-up was logged:\n{spans}");

            let mut late = TcpStream::connect(addr).unwrap();
            late.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            write_frame(&mut late, "PING").unwrap();
            let mut byte = [0u8; 1];
            let answered = io::Read::read(&mut late, &mut byte);
            assert!(
                !matches!(answered, Ok(n) if n > 0),
                "{listen}: a connect after return was answered"
            );
            let _ = std::fs::remove_file(&log);
        }
    }

    /// FEED and a standby's REPL FRAME share one row validator: whatever
    /// one refuses as bad input the other refuses with the same class.
    /// Blank lines are the one difference — FEED strips them before
    /// validating (and before the WAL), a shipped frame may not have any.
    #[test]
    fn feed_and_repl_frame_reject_the_same_bad_rows() {
        let proot = temp_data_dir("badrows-primary");
        let sroot = temp_data_dir("badrows-standby");
        let primary = Server::bind(durable_config(&proot, 64)).unwrap();
        let standby = Server::bind(ServerConfig {
            standby: true,
            ..durable_config(&sroot, 64)
        })
        .unwrap();
        let spec = "name:str,day:int,price:float,on:date";
        dispatch(&primary.shared, 1, &format!("OPEN q {spec}")).unwrap();
        dispatch(&standby.shared, 1, &format!("REPL OPEN q {spec}")).unwrap();
        let repl_frame = |payload: &str| {
            let (nrows, crc) = (
                payload.lines().count(),
                crate::wal::crc32(payload.as_bytes()),
            );
            let frame = format!("REPL FRAME q 0 {nrows} {crc:08x}\n{payload}");
            dispatch(&standby.shared, 1, &frame)
        };
        let good = "AAA,1,10.5,1999-01-25";
        for (what, bad) in [
            ("too few fields", "AAA,1,10.5"),
            ("bad int", "AAA,one,10.5,1999-01-25"),
            ("bad float", "AAA,1,ten,1999-01-25"),
            ("bad date", "AAA,1,10.5,yesterday"),
        ] {
            for payload in [bad.to_string(), format!("{good}\n{bad}")] {
                let fed = dispatch(&primary.shared, 1, &format!("FEED q\n{payload}")).unwrap_err();
                assert!(fed.starts_with("ERR 3 "), "{what}: FEED -> {fed}");
                let shipped = repl_frame(&payload).unwrap_err();
                assert!(
                    shipped.starts_with("ERR 3 "),
                    "{what}: REPL FRAME -> {shipped}"
                );
            }
        }
        let rejected = &standby.shared.metrics.repl_rejected_frames_total;
        assert_eq!(rejected.load(Ordering::Relaxed), 8);
        // A blank interior line: the standby refuses the frame, FEED
        // feeds the two rows around it and logs exactly those.
        let spaced = format!("{good}\n\nAAA,2,11.5,1999-01-26");
        let shipped = repl_frame(&spaced).unwrap_err();
        assert!(shipped.starts_with("ERR 3 "), "{shipped}");
        let fed = dispatch(&primary.shared, 1, &format!("FEED q\n\n{spaced}\n\n")).unwrap();
        assert_eq!(fed, "OK fed 2 subs=0 rejected=0");
        let scan = scan_wal(&proot.join("channels").join("q.wal")).unwrap();
        assert_eq!(scan.frames.len(), 1, "rejected frames never reach the WAL");
        assert_eq!(scan.frames[0].payload, spaced.replace("\n\n", "\n"));
        // Nothing bad reached the standby's log either, and what FEED
        // logged is exactly what the standby accepts.
        assert_eq!(standby.shared.channel("q").unwrap().rows_total(), 0);
        let acked = repl_frame(&scan.frames[0].payload).unwrap();
        assert_eq!(acked, "OK repl ack q 2");
        drop((primary, standby));
        let _ = std::fs::remove_dir_all(&proot);
        let _ = std::fs::remove_dir_all(&sroot);
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

    /// The uninterrupted, non-durable run over every [`kill_frames`] frame.
    fn kill_reference() -> String {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
        for frame in kill_frames() {
            dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
        }
        dispatch(shared, 1, "UNSUBSCRIBE s").unwrap()
    }

    /// The tentpole acceptance in miniature: kill the server (drop it
    /// without drain, LOCK file left behind) after *every* possible
    /// frame prefix; the recovered run's final result must be
    /// byte-identical to an uninterrupted run every time.
    #[test]
    fn recovery_is_byte_identical_after_a_kill_at_every_frame_boundary() {
        let frames = kill_frames();
        let reference = kill_reference();
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
        let record = root.join("subs").join("s.sub");
        assert!(record.exists(), "subscription record persisted");
        dispatch(shared, 1, "UNSUBSCRIBE s").unwrap();
        assert!(!record.exists(), "unsubscribe removes the record");
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

    /// Four feeders race 5 FEEDs each under `fsync`; every ack means "my
    /// rows are fsynced", which a restart checks.  Returns the appends and
    /// fsyncs the race took.
    fn race_four_feeders(name: &str, fsync: FsyncPolicy) -> (u64, u64) {
        let root = temp_data_dir(name);
        let config = ServerConfig {
            fsync,
            ..durable_config(&root, 1_000)
        };
        let server = Server::bind(config).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
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
        drop(server);
        // Every acked row really was durable.
        let server = Server::bind(durable_config(&root, 1_000)).unwrap();
        assert_eq!(
            dispatch(&server.shared, 1, "OPEN q name:str,day:int,price:float").unwrap(),
            "OK opened q rows=20"
        );
        let _ = std::fs::remove_dir_all(&root);
        (appends, fsyncs)
    }

    #[test]
    fn group_commit_coalesces_concurrent_feeders() {
        // The 5 ms leader window lets concurrent appends share one fsync(2).
        let group = FsyncPolicy::Group { window_us: 5_000 };
        let (appends, fsyncs) = race_four_feeders("groupcommit", group);
        assert!(
            fsyncs < appends,
            "group commit must batch: {fsyncs} fsyncs for {appends} appends"
        );
    }

    /// `every`, the default, is group commit with no window: the leader
    /// syncs at once, so no append costs more than one fsync.
    #[test]
    fn every_is_group_commit_with_no_window() {
        assert_eq!(
            ServerConfig::default().fsync,
            FsyncPolicy::Group { window_us: 0 }
        );
        let (appends, fsyncs) = race_four_feeders("every", FsyncPolicy::Group { window_us: 0 });
        assert!(
            fsyncs >= 1 && fsyncs <= appends,
            "{fsyncs} fsyncs for {appends} appends"
        );
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
        let record = std::fs::read_to_string(root.join("subs").join("s.sub")).unwrap();
        let (meta, cp_text) = SubMeta::from_record(&record).unwrap();
        let cp = sqlts_core::SessionCheckpoint::from_text(cp_text).unwrap();
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
        // The record's tail is that text verbatim.
        assert_eq!(plain, format!("CHECKPOINT s\n{cp_text}"));
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

    /// A standby acknowledges a shipped frame only once an fsync covers
    /// its rows, so the ordinal it acks never runs ahead of its synced
    /// watermark — under `--fsync every`, which `--standby` accepts.
    #[test]
    fn standby_acks_never_run_ahead_of_its_fsynced_watermark() {
        let root = temp_data_dir("standby-acks");
        let config = ServerConfig {
            standby: true,
            fsync: FsyncPolicy::Group { window_us: 0 },
            ..durable_config(&root, 64)
        };
        let server = Server::bind(config).unwrap();
        let shared = &server.shared;
        dispatch(shared, 1, "REPL OPEN q name:str,day:int,price:float").unwrap();
        let channel = shared.channel("q").unwrap();
        let frames = kill_frames();
        let shipped = frames.iter().enumerate().map(|(f, body)| (3 * f, body));
        let mut acked = 0;
        // The last frame is a duplicate of the first: acked unappended.
        for (start, frame) in shipped.chain([(0, &frames[0])]) {
            let payload = frame.trim_end();
            let crc = crate::wal::crc32(payload.as_bytes());
            let repl = format!("REPL FRAME q {start} 3 {crc:08x}\n{payload}");
            let reply = dispatch(shared, 1, &repl).unwrap();
            acked = reply
                .strip_prefix("OK repl ack q ")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("unexpected reply: {reply}"));
            // Already synced: the wait returns without leading a flush.
            let lead = || -> Result<u64, String> { panic!("ack {acked} is not fsynced") };
            channel
                .group
                .wait_durable(acked, Duration::ZERO, lead)
                .unwrap();
        }
        assert_eq!(acked, 36);
        drop(server);
        let _ = std::fs::remove_dir_all(&root);
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

    /// While workers respawn and the WAL replays, the server is neither
    /// standby nor primary: a FEED then could reach the subscriptions
    /// already respawned and miss the rest, so only PING is served.
    #[test]
    fn a_promoting_server_serves_only_ping() {
        let root = temp_data_dir("promoting");
        let server = Server::bind(ServerConfig {
            standby: true,
            ..durable_config(&root, 64)
        })
        .unwrap();
        let shared = &server.shared;
        shared.set_role(Role::Promoting);
        assert_eq!(dispatch(shared, 1, "PING").unwrap(), "OK pong");
        for payload in [
            "OPEN q name:str,day:int,price:float",
            "FEED q\nAAA,1,10",
            "STATUS s",
            "REPL HELLO v1",
            "PROMOTE",
        ] {
            let err = dispatch(shared, 1, payload).unwrap_err();
            assert!(
                err.starts_with("ERR 4 promotion in progress"),
                "{payload:?} -> {err}"
            );
        }
        assert!(server.is_standby(), "not a primary until promotion is done");
        let err = promote_server(shared).unwrap_err();
        assert!(
            err.starts_with("ERR 2 "),
            "a second promotion must lose: {err}"
        );
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
        /// durable record on this standby.
        fn wait_for_sub(&self, id: &str) {
            let record = self.root.join("subs").join(format!("{id}.sub"));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !record.exists() {
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
        let reference = kill_reference();
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

    /// Every prefix of what a primary ships for one durable `SUBSCRIBE`
    /// leaves a standby that promotes, with the subscription either absent
    /// or recovered byte-identically — so a primary that dies mid-way
    /// through a SUBSCRIBE can always be failed over.  A recording
    /// stand-in standby captures the stream; each prefix is then replayed
    /// into a fresh real standby.
    #[test]
    fn every_prefix_of_a_shipped_subscribe_promotes() {
        use crate::frame::read_frame;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shipped = Arc::new(Mutex::new(Vec::<String>::new()));
        let recorder = {
            let shipped = Arc::clone(&shipped);
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                while let Ok(FrameEvent::Payload(payload)) = read_frame(&mut reader, 1 << 20) {
                    let reply = match payload.split_whitespace().nth(1) {
                        Some("HELLO") => "OK repl v1",
                        Some("OPEN") => "OK opened q rows=0",
                        _ => "OK",
                    };
                    shipped.lock().unwrap().push(payload);
                    if write_frame(&mut writer, reply).is_err() {
                        break;
                    }
                }
            })
        };
        let wait_for = |what: &str| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !shipped.lock().unwrap().iter().any(|p| p.contains(what)) {
                assert!(Instant::now() < deadline, "nothing shipped holds {what:?}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let proot = temp_data_dir("prefix-primary");
        {
            let primary = Server::bind(ServerConfig {
                replicate_to: Some(addr),
                ..durable_config(&proot, 1_000)
            })
            .unwrap();
            let shared = &primary.shared;
            dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
            wait_for("REPL OPEN q");
            dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
            wait_for("sqlts-checkpoint v1");
        }
        recorder.join().unwrap();
        let shipped = shipped.lock().unwrap().clone();
        assert!(shipped
            .iter()
            .any(|p| p.starts_with("REPL SUB s\nsqlts-sub v1\n")));
        let reference = kill_reference();
        for n in 0..=shipped.len() {
            let root = temp_data_dir(&format!("prefix-{n}"));
            let standby = Server::bind(ServerConfig {
                standby: true,
                ..durable_config(&root, 1_000)
            })
            .unwrap();
            let shared = &standby.shared;
            for payload in &shipped[..n] {
                dispatch(shared, 9, payload).unwrap();
            }
            let promoted = dispatch(shared, 9, "PROMOTE");
            assert!(promoted.is_ok(), "prefix of {n}: {promoted:?}");
            match dispatch(shared, 9, "STATUS s") {
                Ok(_) => {
                    for frame in kill_frames() {
                        dispatch(shared, 9, &format!("FEED q\n{frame}")).unwrap();
                    }
                    let result = dispatch(shared, 9, "UNSUBSCRIBE s").unwrap();
                    assert_eq!(result, reference, "prefix of {n} diverged");
                }
                Err(e) => assert!(e.starts_with("ERR 2 unknown subscription"), "{e}"),
            }
            drop(standby);
            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&proot);
    }

    /// `subs/` holds one `<id>.sub` per live subscription, whatever wrote
    /// it last (SUBSCRIBE, a snapshot, `CHECKPOINT … DURABLE`), and the
    /// old per-part verbs are unknown to a standby.
    #[test]
    fn one_record_per_live_subscription() {
        let root = temp_data_dir("one-record");
        let server = Server::bind(durable_config(&root, 1)).unwrap();
        let shared = &server.shared;
        let records = || {
            let mut names: Vec<String> = std::fs::read_dir(root.join("subs"))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|name| !name.ends_with(".tmp"))
                .collect();
            names.sort();
            names
        };
        dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
        dispatch(shared, 1, &format!("SUBSCRIBE t q\n{KILL_SQL}")).unwrap();
        for frame in kill_frames().iter().take(3) {
            dispatch(shared, 1, &format!("FEED q\n{frame}")).unwrap();
        }
        dispatch(shared, 1, "CHECKPOINT s DURABLE").unwrap();
        assert_eq!(records(), ["s.sub", "t.sub"]);
        dispatch(shared, 1, "UNSUBSCRIBE t").unwrap();
        assert_eq!(records(), ["s.sub"]);
        drop(server);
        let _ = std::fs::remove_dir_all(&root);
        let rig = StandbyRig::spawn("one-record-standby");
        for verb in [
            "REPL META s\nsqlts-submeta v1",
            "REPL CHECKPOINT s\nsqlts-checkpoint v1",
        ] {
            let reply = dispatch(&rig.server.shared, 9, verb).unwrap_err();
            assert!(reply.starts_with("ERR 2 unknown REPL command"), "{reply}");
        }
    }

    /// A data dir still in the two-file layout (`<id>.meta` beside
    /// `<id>.checkpoint`) is refused at bind, as a primary and as a
    /// standby, with exit 3 naming the file — and left exactly as it was.
    #[test]
    fn the_two_file_layout_is_refused_at_bind_and_left_unchanged() {
        let root = temp_data_dir("two-file");
        {
            let server = Server::bind(durable_config(&root, 64)).unwrap();
            let shared = &server.shared;
            dispatch(shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
            dispatch(shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
            dispatch(shared, 1, &format!("FEED q\n{}", kill_frames()[0])).unwrap();
        }
        // Split the record into the layout it replaced.
        let subs = root.join("subs");
        let record = std::fs::read_to_string(subs.join("s.sub")).unwrap();
        let (meta, checkpoint) = SubMeta::from_record(&record).unwrap();
        let submeta = format!(
            "sqlts-submeta v1\nchannel q\nbase_rows {}\nbase_records {}\nsql\n{}",
            meta.base_rows, meta.base_records, meta.sql
        );
        std::fs::write(subs.join("s.meta"), submeta).unwrap();
        std::fs::write(subs.join("s.checkpoint"), checkpoint).unwrap();
        std::fs::remove_file(subs.join("s.sub")).unwrap();
        fn tree(dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    tree(&path, out);
                } else {
                    out.push((path.clone(), std::fs::read(&path).unwrap()));
                }
            }
            out.sort();
        }
        let mut before = Vec::new();
        tree(&root, &mut before);
        for standby in [false, true] {
            let err = match Server::bind(ServerConfig {
                standby,
                ..durable_config(&root, 64)
            }) {
                Err(e) => e,
                Ok(_) => panic!("the two-file layout must be refused (standby={standby})"),
            };
            assert_eq!(err.exit_code(), 3, "{err}");
            assert!(err.message().contains("s.meta"), "{err}");
            let mut after = Vec::new();
            tree(&root, &mut after);
            assert!(after == before, "a refused data dir was changed");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_durable_state_is_an_input_error() {
        let root = temp_data_dir("malformed");
        {
            let server = Server::bind(durable_config(&root, 64)).unwrap();
            dispatch(&server.shared, 1, "OPEN q name:str,day:int,price:float").unwrap();
            dispatch(&server.shared, 1, &format!("SUBSCRIBE s q\n{KILL_SQL}")).unwrap();
        }
        let schema = root.join("channels").join("q.schema");
        let spec = std::fs::read_to_string(&schema).unwrap();
        std::fs::write(&schema, "not a schema").unwrap();
        match Server::bind(durable_config(&root, 64)) {
            Err(e) => assert_eq!(e.exit_code(), 3, "{e}"),
            Ok(_) => panic!("malformed schema file must fail recovery"),
        }
        std::fs::write(&schema, spec).unwrap();
        // A record torn in its header, and one torn in its checkpoint.
        let record = root.join("subs").join("s.sub");
        let text = std::fs::read_to_string(&record).unwrap();
        let checkpoint_at = text.find("sqlts-checkpoint v1").unwrap();
        for cut in [checkpoint_at / 2, (checkpoint_at + text.len()) / 2] {
            std::fs::write(&record, &text[..cut]).unwrap();
            match Server::bind(durable_config(&root, 64)) {
                Err(e) => assert_eq!(e.exit_code(), 3, "{e}"),
                Ok(_) => panic!("a record cut at byte {cut} must fail recovery"),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
