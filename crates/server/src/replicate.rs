//! Primary→standby WAL streaming replication, both ends.
//!
//! The *primary* half is the [`Replicator`] handle the feed path offers
//! committed work to (a commit-ordered queue plus the per-channel ack
//! watermarks `--repl-ack sync` FEEDs block on and the counters
//! `/metrics` exposes as `sqlts_repl_*`) and the shipping thread that
//! drains it ([`shipping_thread`]): one session at a time, each a
//! connect + `HELLO` + full resync from the WAL on disk + live queue
//! loop.  The queue is bounded ([`QUEUE_DEPTH`]): an offer that finds it
//! full ends the session like a failed send, and the next session's
//! resync reads from disk what the queue could not hold.  The
//! *standby* half is the handler for every `REPL` verb
//! ([`standby_dispatch`]).  A shipped frame is validated and committed
//! by the same [`crate::channel`] steps a live `FEED` uses, so the
//! standby's WAL holds exactly the bytes the primary's does.
//!
//! The protocol rides the ordinary frame codec ([`crate::frame`]) on the
//! standby's listen port, as a family of `REPL` verbs only a `--standby`
//! server answers:
//!
//! ```text
//! REPL HELLO v1                      -> OK repl v1\n<enc-chan> <rows>...
//! REPL OPEN <chan> <spec>            -> OK opened <chan> rows=<n>
//! REPL FRAME <chan> <start> <nrows> <crc>\n<payload>
//!                                    -> OK repl ack <chan> <rows_total>
//! REPL SUB <id>\n<sqlts-sub v1>      -> OK repl sub <id>
//! REPL REMOVE <id>                   -> OK repl remove <id>
//! REPL SUBS <id>...                  -> OK repl subs <kept>
//! ```
//!
//! Every shipped WAL frame carries its start ordinal and a CRC of the
//! payload, so the standby can reject bit-flips (`ERR 3`) and detect
//! gaps (`ERR 4`) without trusting the transport; duplicates (a frame
//! whose rows the standby already holds — the normal overlap between a
//! resync scan and the live queue) are acknowledged idempotently.  A
//! subscription travels as its whole durable record
//! ([`crate::recover`]), so a standby holds each subscription entirely
//! or not at all, whichever prefix of the stream reached it.

use crate::channel::save_sub;
use crate::frame::{read_frame, write_frame, FrameEvent};
use crate::metrics::ServerMetrics;
use crate::recover::{encode_name, DataDir, SubMeta};
use crate::server::{err, open_channel, serve_err, Shared};
use crate::wal::{crc32, read_frames_from};
use sqlts_core::SessionCheckpoint;
use sqlts_trace::Level;
use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// When a `--repl-ack sync` FEED must give up waiting for the standby
/// and degrade to async (counted, never an error to the feeder).
pub const SYNC_ACK_TIMEOUT: Duration = Duration::from_secs(2);

/// Commands the shipping queue holds before an offer ends the session.
pub const QUEUE_DEPTH: usize = 1024;

/// How a primary acknowledges FEEDs relative to standby shipping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplAck {
    /// FEED acks after the local WAL append/fsync; shipping trails.
    #[default]
    Async,
    /// FEED blocks until the standby acknowledges the frame (semi-sync:
    /// degrades to async, with a counter, if the standby is away).
    Sync,
}

impl std::str::FromStr for ReplAck {
    type Err = String;

    fn from_str(s: &str) -> Result<ReplAck, String> {
        match s {
            "async" => Ok(ReplAck::Async),
            "sync" => Ok(ReplAck::Sync),
            other => Err(format!("unknown --repl-ack '{other}' (async|sync)")),
        }
    }
}

impl std::fmt::Display for ReplAck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplAck::Async => "async",
            ReplAck::Sync => "sync",
        })
    }
}

/// One queued unit of shipping work, in commit order.
#[derive(Debug)]
pub(crate) enum ReplCmd {
    /// A committed WAL record.
    Frame {
        /// Channel name.
        channel: String,
        /// Row ordinal of the frame's first row.
        start: u64,
        /// Rows in the frame.
        nrows: u32,
        /// The raw CSV payload, exactly as appended to the local WAL.
        payload: String,
    },
    /// A channel came into existence (name + schema spec).
    Open { channel: String, spec: String },
    /// A wire-ready `REPL SUB|REMOVE` payload: durable subscription
    /// state whose reply carries nothing to record.
    Plain(String),
    /// The server is going away; the thread should exit.
    Shutdown,
}

/// Shared primary-side replication bookkeeping: the connection flag the
/// feed path gates its queueing on, monotonic counters for `/metrics`,
/// and the per-channel standby ack watermarks `--repl-ack sync` blocks
/// on.
#[derive(Debug, Default)]
pub(crate) struct ReplState {
    /// A shipping session is live (set *before* the resync scan so live
    /// frames queue behind it; the overlap is resolved by idempotent
    /// standby acks).
    pub connected: AtomicBool,
    /// WAL frames shipped to the standby.
    pub frames_sent: AtomicU64,
    /// Standby acknowledgements received.
    pub acks: AtomicU64,
    /// Shipping sessions established (each one begins with a resync).
    pub resyncs: AtomicU64,
    /// Sends or replies that failed and cost the session.
    pub send_errors: AtomicU64,
    /// `--repl-ack sync` FEEDs that degraded to async (standby away or
    /// ack not in time).
    pub sync_degraded: AtomicU64,
    /// Highest standby-acknowledged row ordinal per channel.
    acked: Mutex<HashMap<String, u64>>,
    cv: Condvar,
}

impl ReplState {
    fn acked_guard(&self) -> std::sync::MutexGuard<'_, HashMap<String, u64>> {
        self.acked.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a standby ack for `channel` up to row ordinal `end`
    /// (monotonic) and wake any sync-mode feeders.
    pub fn note_ack(&self, channel: &str, end: u64) {
        let mut acked = self.acked_guard();
        let slot = acked.entry(channel.to_string()).or_insert(0);
        if end > *slot {
            *slot = end;
        }
        drop(acked);
        self.cv.notify_all();
    }

    /// The standby's ack watermark for `channel` (0 if never acked).
    pub fn acked(&self, channel: &str) -> u64 {
        self.acked_guard().get(channel).copied().unwrap_or(0)
    }

    /// Sum of `rows_total - acked` over `rows` = (channel, rows_total):
    /// the replication lag gauge.
    pub fn lag_rows<'a>(&self, rows: impl Iterator<Item = (&'a str, u64)>) -> u64 {
        let acked = self.acked_guard();
        rows.map(|(chan, total)| total.saturating_sub(acked.get(chan).copied().unwrap_or(0)))
            .sum()
    }

    /// Block until the standby has acknowledged `channel` rows up to
    /// `end`, the session drops, or `timeout` passes.  Returns whether
    /// the ack arrived.
    pub fn wait_acked(&self, channel: &str, end: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut acked = self.acked_guard();
        loop {
            if acked.get(channel).copied().unwrap_or(0) >= end {
                return true;
            }
            if !self.connected.load(Ordering::SeqCst) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            acked = self
                .cv
                .wait_timeout(acked, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Flip to disconnected and wake sync-mode feeders so they degrade
    /// immediately instead of riding out their timeout.
    pub fn mark_disconnected(&self) {
        self.connected.store(false, Ordering::SeqCst);
        drop(self.acked_guard());
        self.cv.notify_all();
    }
}

/// A point-in-time view of replication health for `/metrics`,
/// `/status`, and the `STATUS` verb.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplSnapshot {
    /// `--replicate-to` was configured.
    pub configured: bool,
    /// A shipping session is currently live.
    pub connected: bool,
    /// `--repl-ack sync` is in force.
    pub sync: bool,
    /// WAL frames shipped.
    pub frames_sent: u64,
    /// Standby acks received.
    pub acks: u64,
    /// Shipping sessions established.
    pub resyncs: u64,
    /// Failed sends/replies (each costs a session).
    pub send_errors: u64,
    /// Sync FEEDs that degraded to async.
    pub sync_degraded: u64,
    /// Rows committed locally but not yet standby-acked.
    pub lag_rows: u64,
}

/// The primary-side handle the server holds: a commit-ordered queue
/// into the shipping thread plus the shared [`ReplState`].
#[derive(Debug)]
pub(crate) struct Replicator {
    /// `HOST:PORT` of the standby.
    pub target: String,
    /// FEED acknowledgement mode.
    pub ack: ReplAck,
    tx: mpsc::SyncSender<ReplCmd>,
    /// Shared with the shipping thread.
    pub state: Arc<ReplState>,
    /// Tells the shipping thread to exit (set by `Server::drop`).
    pub stop: Arc<AtomicBool>,
}

impl Replicator {
    /// A replicator and the receiving end for its shipping thread.
    pub fn new(target: String, ack: ReplAck) -> (Replicator, mpsc::Receiver<ReplCmd>) {
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        (
            Replicator {
                target,
                ack,
                tx,
                state: Arc::new(ReplState::default()),
                stop: Arc::new(AtomicBool::new(false)),
            },
            rx,
        )
    }

    /// Queue a command if a session is live.  While disconnected the
    /// local WAL is the source of truth and the next resync re-reads it,
    /// so dropping here loses nothing.  A full queue disconnects: the
    /// session ends after its current send and resyncs from disk.
    fn offer(&self, cmd: ReplCmd) -> bool {
        if !self.state.connected.load(Ordering::SeqCst) {
            return false;
        }
        let full = matches!(self.tx.try_send(cmd), Err(mpsc::TrySendError::Full(_)));
        if full {
            self.state.mark_disconnected();
        }
        !full
    }

    /// Queue one committed WAL frame.  Call under the channel persist
    /// lock so the queue preserves commit order.
    pub fn offer_frame(&self, channel: &str, start: u64, nrows: u32, payload: &str) -> bool {
        self.offer(ReplCmd::Frame {
            channel: channel.to_string(),
            start,
            nrows,
            payload: payload.to_string(),
        })
    }

    /// Queue a channel-open announcement.
    pub fn offer_open(&self, channel: &str, spec: &str) {
        self.offer(ReplCmd::Open {
            channel: channel.to_string(),
            spec: spec.to_string(),
        });
    }

    /// Queue a subscription's `sqlts-sub v1` record.
    pub fn offer_sub(&self, id: &str, record: &str) {
        self.offer(ReplCmd::Plain(format!("REPL SUB {id}\n{record}")));
    }

    /// Queue a subscription removal.
    pub fn offer_remove(&self, id: &str) {
        self.offer(ReplCmd::Plain(format!("REPL REMOVE {id}")));
    }

    /// Stop the shipping thread (idempotent).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.state.mark_disconnected();
        let _ = self.tx.try_send(ReplCmd::Shutdown);
    }

    /// Counters + the caller-computed lag gauge.
    pub fn snapshot(&self, lag_rows: u64) -> ReplSnapshot {
        ReplSnapshot {
            configured: true,
            connected: self.state.connected.load(Ordering::SeqCst),
            sync: self.ack == ReplAck::Sync,
            frames_sent: self.state.frames_sent.load(Ordering::Relaxed),
            acks: self.state.acks.load(Ordering::Relaxed),
            resyncs: self.state.resyncs.load(Ordering::Relaxed),
            send_errors: self.state.send_errors.load(Ordering::Relaxed),
            sync_degraded: self.state.sync_degraded.load(Ordering::Relaxed),
            lag_rows,
        }
    }
}

/// One live connection from the shipping thread to the standby.
struct Session<'a> {
    repl: &'a Replicator,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    max_frame: usize,
}

/// Why a shipping session ended early: the step that failed, and how.
type SessionError = (&'static str, String);

impl<'a> Session<'a> {
    /// Connect with bounded timeouts.  Read timeouts are session-fatal by
    /// design: a timeout mid-reply would desync the buffered reader, so
    /// the session resets instead of continuing.
    fn connect(repl: &'a Replicator, max_frame: usize) -> Result<Session<'a>, SessionError> {
        let target = &repl.target;
        let stream = target
            .to_socket_addrs()
            .map_err(|e| ("resolve", e.to_string()))?
            .find_map(|addr| TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok())
            .ok_or_else(|| ("connect", format!("no address of '{target}' accepted")))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_nodelay(true);
        let clone = stream
            .try_clone()
            .map_err(|_| ("clone", "socket clone failed".to_string()))?;
        Ok(Session {
            repl,
            stream,
            reader: BufReader::new(clone),
            max_frame,
        })
    }

    /// Send one replication frame and read the standby's reply.  Any I/O
    /// fault, timeout, desync, or `ERR` reply is a session-fatal error
    /// string — the caller reconnects and resyncs.  The `repl::send`
    /// failpoint fires before the write (detail = payload bytes).
    fn send(&mut self, payload: &str) -> Result<String, String> {
        #[cfg(feature = "failpoints")]
        if let Some(sqlts_relation::failpoints::Injected::InjectError) =
            sqlts_relation::failpoints::hit("repl::send", payload.len() as u64)
        {
            return Err("failpoint 'repl::send' injected error".into());
        }
        write_frame(&mut self.stream, payload).map_err(|e| format!("repl send: {e}"))?;
        match read_frame(&mut self.reader, self.max_frame)
            .map_err(|e| format!("repl reply: {e}"))?
        {
            FrameEvent::Payload(reply) if reply.starts_with("ERR ") => {
                Err(format!("standby refused: {reply}"))
            }
            FrameEvent::Payload(reply) => Ok(reply),
            FrameEvent::Eof => Err("standby closed the connection".into()),
            FrameEvent::Oversized { len } => Err(format!("oversized standby reply ({len} bytes)")),
            FrameEvent::BadUtf8 => Err("non-UTF-8 standby reply".into()),
        }
    }

    /// Announce a channel and adopt the standby's durable row count for
    /// it as the ack watermark.
    fn ship_open(&mut self, channel: &str, spec: &str) -> Result<(), String> {
        let reply = self.send(&format!("REPL OPEN {channel} {spec}"))?;
        self.repl
            .state
            .note_ack(channel, parse_opened_rows(&reply)?);
        Ok(())
    }

    /// Ship one WAL frame and record its ack watermark — unless the
    /// standby already holds it (the overlap between a resync scan and
    /// the live queue).
    fn ship_frame(
        &mut self,
        channel: &str,
        start: u64,
        nrows: u32,
        payload: &str,
    ) -> Result<(), String> {
        let state = &self.repl.state;
        if start + u64::from(nrows) <= state.acked(channel) {
            return Ok(());
        }
        let crc = crc32(payload.as_bytes());
        let reply = self.send(&format!(
            "REPL FRAME {channel} {start} {nrows} {crc:08x}\n{payload}"
        ))?;
        state.frames_sent.fetch_add(1, Ordering::Relaxed);
        let (chan, end) = parse_ack(&reply)?;
        if chan != channel {
            return Err(format!("ack for wrong channel: '{chan}' != '{channel}'"));
        }
        state.acks.fetch_add(1, Ordering::Relaxed);
        state.note_ack(channel, end);
        Ok(())
    }

    /// Ship one queued replication command.
    fn ship(&mut self, cmd: &ReplCmd) -> Result<(), String> {
        match cmd {
            ReplCmd::Frame {
                channel,
                start,
                nrows,
                payload,
            } => self.ship_frame(channel, *start, *nrows, payload),
            ReplCmd::Open { channel, spec } => self.ship_open(channel, spec),
            ReplCmd::Plain(payload) => self.send(payload).map(|_| ()),
            ReplCmd::Shutdown => Ok(()),
        }
    }
}

/// The `--replicate-to` shipping thread: one [`run_session`] at a time
/// until told to stop.  Holds only a [`Weak`] on [`Shared`] between
/// sessions so a dropped server is not pinned by its own shipper (the
/// server's drop joins this thread).
pub(crate) fn shipping_thread(
    weak: &Weak<Shared>,
    rx: &mpsc::Receiver<ReplCmd>,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        let Some(shared) = weak.upgrade() else {
            return;
        };
        let repl = shared.repl.as_ref().expect("shipper implies a replicator");
        let Err((what, e)) = run_session(&shared, repl, rx, stop) else {
            repl.state.mark_disconnected();
            return;
        };
        repl.state.send_errors.fetch_add(1, Ordering::Relaxed);
        // Wakes any sync-mode feeders so they degrade instead of timing
        // out.
        repl.state.mark_disconnected();
        shared.span_event(
            Level::Warn,
            "repl_session_error",
            &[("what", what), ("error", &e)],
        );
        drop(shared);
        // Anything still queued targeted the dead session; the next
        // resync re-reads the WAL instead.
        while rx.try_recv().is_ok() {}
        for _ in 0..10 {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One shipping session: connect, `HELLO`, resync every channel and
/// subscription from durable state, then drain the commit-ordered live
/// queue.  `Ok` means the server asked it to stop; `Err` costs the
/// session and the caller retries.
fn run_session(
    shared: &Shared,
    repl: &Replicator,
    rx: &mpsc::Receiver<ReplCmd>,
    stop: &AtomicBool,
) -> Result<(), SessionError> {
    let mut session = Session::connect(repl, shared.config.max_frame_bytes)?;
    let standby_rows = session
        .send("REPL HELLO v1")
        .and_then(|r| parse_hello(&r))
        .map_err(|e| ("hello", e))?;
    repl.state.resyncs.fetch_add(1, Ordering::Relaxed);
    for (chan, rows) in &standby_rows {
        repl.state.note_ack(chan, *rows);
    }
    // Connected *before* the resync scan: live frames queue behind it,
    // and the overlap is absorbed by idempotent standby acks.
    repl.state.connected.store(true, Ordering::SeqCst);
    shared.span_event(Level::Info, "repl_connected", &[("target", &repl.target)]);
    let data = shared
        .data
        .as_ref()
        .expect("--replicate-to requires a data dir");
    for channel in shared.all_channels() {
        let name = &channel.name;
        session
            .ship_open(name, &channel.schema.to_spec())
            .map_err(|e| ("open", e))?;
        // Ship every durable frame past the standby's watermark.  Read
        // from disk without the persist lock: appends are unbuffered
        // writes, the scan tolerates a torn in-flight tail, and any frame
        // it misses was offered to the live queue behind us.
        let frames = read_frames_from(&data.wal_path(name), repl.state.acked(name))
            .map_err(|e| ("resync_scan", e.to_string()))?;
        for frame in &frames {
            session
                .ship_frame(name, frame.start, frame.nrows, &frame.payload)
                .map_err(|e| ("resync_frame", e))?;
        }
    }
    // Reconcile durable subscription state, then ship every record
    // (idempotent overwrites on the standby).
    let subs = data
        .load_subs()
        .map_err(|e| ("load_subs", e.message().to_string()))?;
    let mut subs_line = String::from("REPL SUBS");
    for (id, _, _) in &subs {
        subs_line.push(' ');
        subs_line.push_str(id);
    }
    session.send(&subs_line).map_err(|e| ("subs", e))?;
    for (id, meta, checkpoint) in &subs {
        session
            .send(&format!("REPL SUB {id}\n{}", meta.to_record(checkpoint)))
            .map_err(|e| ("resync_sub", e))?;
    }
    loop {
        if stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Only a full queue disconnects a live session.
        if !repl.state.connected.load(Ordering::SeqCst) {
            return Err(("queue", format!("{QUEUE_DEPTH} commands waited to ship")));
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(ReplCmd::Shutdown) | Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
            Ok(cmd) => session.ship(&cmd).map_err(|e| ("ship", e))?,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Dispatch one standby-side `REPL` sub-verb (the head word `REPL` is
/// already stripped; `args` is the rest of the verb line, `parent` the
/// dispatch span).
pub(crate) fn standby_dispatch(
    shared: &Shared,
    conn: u64,
    args: &[&str],
    body: &str,
    parent: u64,
) -> Result<String, String> {
    match args {
        ["HELLO", "v1"] => standby_hello(shared, conn),
        ["HELLO", v] => Err(err(2, format!("unsupported replication protocol '{v}'"))),
        // Channel announcements reuse the ordinary open path.
        ["OPEN", chan, spec] => open_channel(shared, chan, spec),
        ["FRAME", chan, start, nrows, crc] => {
            standby_frame(shared, chan, [start, nrows, crc], body, parent)
        }
        ["SUB", id] => standby_sub(shared, id, body),
        ["REMOVE", id] => {
            standby_data(shared).remove_sub(id);
            Ok(format!("OK repl remove {id}"))
        }
        ["SUBS", keep @ ..] => standby_subs(shared, keep),
        other => Err(err(2, format!("unknown REPL command {other:?}"))),
    }
}

fn standby_data(shared: &Shared) -> &DataDir {
    shared.data.as_ref().expect("standby has a data dir")
}

/// `REPL HELLO v1`: adopt this connection as the replication session and
/// report every channel's durable row count so the primary can resync
/// exactly the frames this standby lacks.
fn standby_hello(shared: &Shared, conn: u64) -> Result<String, String> {
    shared.repl_conn.store(conn, Ordering::SeqCst);
    let mut reply = String::from("OK repl v1");
    for channel in shared.all_channels() {
        let (name, rows) = (encode_name(&channel.name), channel.rows_total());
        reply.push_str(&format!("\n{name} {rows}"));
    }
    Ok(reply)
}

/// `REPL FRAME <chan> <start> <nrows> <crc>` + payload: validate and
/// commit one shipped WAL record, acknowledged once synced.  Duplicates
/// (frame end at or below the durable row count — the overlap between a
/// resync scan and the live queue) are acknowledged without appending;
/// anything else out of sequence is a gap the primary answers with a
/// fresh resync.
fn standby_frame(
    shared: &Shared,
    chan: &str,
    [start, nrows, crc]: [&str; 3],
    body: &str,
    parent: u64,
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
    let Ok(channel) = shared.channel(chan) else {
        return reject(2, format!("unknown channel '{chan}'"));
    };
    // Validate the payload against the schema before touching the WAL:
    // the standby must never persist rows promotion cannot replay.
    let parsed = match channel.parse_rows(body.lines().enumerate()) {
        Ok(rows) => rows.len(),
        Err(e) => return reject(3, e.to_string()),
    };
    if parsed != nrows as usize || nrows == 0 {
        return reject(
            3,
            format!("repl frame row count mismatch: header {nrows}, payload {parsed}"),
        );
    }
    let mut persist = channel.lock().map_err(|e| serve_err(&e))?;
    #[cfg(feature = "failpoints")]
    if let Some(injected) = sqlts_relation::failpoints::hit("repl::standby_append", start) {
        if injected == sqlts_relation::failpoints::Injected::InjectError {
            return Err(err(4, "failpoint 'repl::standby_append' injected error"));
        }
    }
    let held = persist.rows_total();
    if start.saturating_add(u64::from(nrows)) > held {
        if start != held {
            return reject(
                4,
                format!("repl gap on '{chan}': frame starts at {start}, standby at {held}"),
            );
        }
        channel
            .commit(shared, &mut persist, body, nrows, parent)
            .map_err(|e| err(4, format!("standby wal append on '{chan}': {e}")))?;
        ServerMetrics::inc(&shared.metrics.repl_frames_received_total);
    }
    let acked = persist.rows_total();
    drop(persist); // the ack waits, off the lock, for an fsync covering it
    channel.wait_durable(shared, acked)?;
    Ok(format!("OK repl ack {chan} {acked}"))
}

/// `REPL SUB <id>` + its record: persist a shipped subscription record,
/// then truncate the channel's WAL below the new low-water mark (the
/// primary just did the same).
fn standby_sub(shared: &Shared, id: &str, body: &str) -> Result<String, String> {
    let bad = |e: String| err(3, format!("repl sub '{id}': {e}"));
    let (meta, checkpoint) = SubMeta::from_record(body).map_err(bad)?;
    SessionCheckpoint::from_text(checkpoint).map_err(|e| bad(e.to_string()))?;
    let chan = &meta.channel;
    if shared.channel(chan).is_err() {
        return Err(err(
            4,
            format!("repl sub '{id}' references unknown channel '{chan}'"),
        ));
    }
    save_sub(shared, standby_data(shared), id, &meta, checkpoint).map_err(|e| serve_err(&e))?;
    standby_truncate(shared, chan);
    Ok(format!("OK repl sub {id}"))
}

/// Truncate a standby channel's WAL below the minimum resume ordinal of
/// its shipped records.  Best-effort, like the primary's snapshot pass:
/// a stale record only makes the low-water mark *lower*, never wrong,
/// and a subscription whose record has not arrived yet can only need
/// rows at or above the current durable row count.
fn standby_truncate(shared: &Shared, chan: &str) {
    let (Ok(subs), Ok(channel)) = (standby_data(shared).load_subs(), shared.channel(chan)) else {
        return;
    };
    let Ok(mut persist) = channel.lock() else {
        return;
    };
    let mut low_water = persist.rows_total();
    for (_, meta, checkpoint) in subs.iter().filter(|(_, meta, _)| meta.channel == chan) {
        let Ok(cp) = SessionCheckpoint::from_text(checkpoint) else {
            return; // unreadable checkpoint: hold truncation entirely
        };
        low_water = low_water.min(meta.resume_ordinal(cp.records()));
    }
    channel.truncate_below(shared, &mut persist, low_water);
}

/// `REPL SUBS <id>...`: reconcile at resync — remove every durable
/// subscription the primary no longer has (its `REMOVE` may have been
/// shipped to a dead session).
fn standby_subs(shared: &Shared, keep: &[&str]) -> Result<String, String> {
    let data = standby_data(shared);
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
pub(crate) fn standby_status(shared: &Shared, id: &str) -> Result<String, String> {
    let subs = standby_data(shared)
        .load_subs()
        .map_err(|e| serve_err(&e))?;
    let Some((_, meta, checkpoint)) = subs.iter().find(|(sid, _, _)| sid == id) else {
        return Err(err(2, format!("unknown subscription '{id}'")));
    };
    let records = SessionCheckpoint::from_text(checkpoint).map_or(0, |cp| cp.records());
    let durable_rows = shared.channel(&meta.channel).map_or(0, |c| c.rows_total());
    Ok(format!(
        "OK status standby channel={} records={records} durable_rows={durable_rows}",
        meta.channel
    ))
}

/// Parse a `REPL HELLO` reply's per-channel durable row counts:
/// `OK repl v1` followed by one `<enc-name> <rows>` line per channel.
pub(crate) fn parse_hello(reply: &str) -> Result<HashMap<String, u64>, String> {
    let mut lines = reply.lines();
    match lines.next() {
        Some("OK repl v1") => {}
        other => return Err(format!("bad REPL HELLO reply: {other:?}")),
    }
    let mut rows = HashMap::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        let (Some(enc), Some(n), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("bad REPL HELLO channel line: {line:?}"));
        };
        let name = crate::recover::decode_name(enc)
            .ok_or_else(|| format!("bad REPL HELLO channel name: {enc:?}"))?;
        let n: u64 = n
            .parse()
            .map_err(|_| format!("bad REPL HELLO row count: {line:?}"))?;
        rows.insert(name, n);
    }
    Ok(rows)
}

/// Parse an `OK repl ack <chan> <rows_total>` reply.
pub(crate) fn parse_ack(reply: &str) -> Result<(String, u64), String> {
    let rest = reply
        .strip_prefix("OK repl ack ")
        .ok_or_else(|| format!("bad repl ack: {reply:?}"))?;
    let mut parts = rest.split_whitespace();
    let (Some(chan), Some(end), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(format!("bad repl ack: {reply:?}"));
    };
    let end: u64 = end
        .parse()
        .map_err(|_| format!("bad repl ack ordinal: {reply:?}"))?;
    Ok((chan.to_string(), end))
}

/// Parse an `OK opened <chan> rows=<n>` reply (shared with feeder
/// clients resuming after a promotion).
pub(crate) fn parse_opened_rows(reply: &str) -> Result<u64, String> {
    let rows = reply
        .rsplit(' ')
        .next()
        .and_then(|tok| tok.strip_prefix("rows="))
        .ok_or_else(|| format!("bad OPEN reply: {reply:?}"))?;
    rows.parse()
        .map_err(|_| format!("bad OPEN rows count: {reply:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_ack_parses_and_displays() {
        assert_eq!("sync".parse::<ReplAck>().unwrap(), ReplAck::Sync);
        assert_eq!("async".parse::<ReplAck>().unwrap(), ReplAck::Async);
        assert!("quorum".parse::<ReplAck>().is_err());
        assert_eq!(ReplAck::Sync.to_string(), "sync");
    }

    #[test]
    fn ack_watermarks_are_monotonic_and_wake_waiters() {
        let state = Arc::new(ReplState::default());
        state.connected.store(true, Ordering::SeqCst);
        state.note_ack("q", 5);
        state.note_ack("q", 3);
        assert_eq!(state.acked("q"), 5);
        assert_eq!(state.lag_rows([("q", 9u64), ("r", 2)].into_iter()), 4 + 2);
        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.wait_acked("q", 8, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        state.note_ack("q", 8);
        assert!(waiter.join().unwrap(), "ack should release the waiter");
        assert!(!state.wait_acked("q", 99, Duration::from_millis(10)));
    }

    #[test]
    fn disconnect_releases_sync_waiters_early() {
        let state = Arc::new(ReplState::default());
        state.connected.store(true, Ordering::SeqCst);
        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let start = Instant::now();
                let acked = state.wait_acked("q", 1, Duration::from_secs(30));
                (acked, start.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        state.mark_disconnected();
        let (acked, waited) = waiter.join().unwrap();
        assert!(!acked);
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    }

    #[test]
    fn hello_and_ack_replies_parse() {
        let rows = parse_hello("OK repl v1\nq 12\nr%20s 0").unwrap();
        assert_eq!(rows.get("q"), Some(&12));
        assert_eq!(rows.get("r s"), Some(&0));
        assert!(parse_hello("OK repl v2").is_err());
        assert_eq!(parse_ack("OK repl ack q 34").unwrap(), ("q".into(), 34));
        assert!(parse_ack("OK fed 3").is_err());
        assert_eq!(parse_opened_rows("OK opened q rows=7").unwrap(), 7);
    }

    #[test]
    fn offers_are_dropped_while_disconnected() {
        let (repl, rx) = Replicator::new("127.0.0.1:1".into(), ReplAck::Async);
        assert!(!repl.offer_frame("q", 0, 1, "IBM,1,50"));
        repl.state.connected.store(true, Ordering::SeqCst);
        assert!(repl.offer_frame("q", 0, 1, "IBM,1,50"));
        let cmd = rx.try_recv().unwrap();
        assert!(matches!(
            cmd,
            ReplCmd::Frame {
                start: 0,
                nrows: 1,
                ..
            }
        ));
        assert!(rx.try_recv().is_err(), "disconnected offer must not queue");
    }

    #[test]
    fn a_full_queue_disconnects_instead_of_growing() {
        let (repl, rx) = Replicator::new("127.0.0.1:1".into(), ReplAck::Async);
        repl.state.connected.store(true, Ordering::SeqCst);
        for start in 0..QUEUE_DEPTH as u64 {
            assert!(repl.offer_frame("q", start, 1, "IBM,1,50"), "offer {start}");
        }
        assert!(!repl.offer_frame("q", QUEUE_DEPTH as u64, 1, "IBM,1,50"));
        assert!(
            !repl.state.connected.load(Ordering::SeqCst),
            "a full queue ends the session"
        );
        assert!(
            !repl.offer_frame("q", 0, 1, "IBM,1,50"),
            "and drops later offers"
        );
        assert_eq!(rx.try_iter().count(), QUEUE_DEPTH);
    }
}
