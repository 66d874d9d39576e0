//! Primary→standby WAL streaming replication: the ack mode, the
//! primary-side shipping queue and bookkeeping, and the wire helpers
//! both ends share.
//!
//! The replication *protocol* rides the ordinary frame codec
//! ([`crate::frame`]) on the standby's listen port, as a family of
//! `REPL` verbs only a `--standby` server answers:
//!
//! ```text
//! REPL HELLO v1                      -> OK repl v1\n<enc-chan> <rows>...
//! REPL OPEN <chan> <spec>            -> OK opened <chan> rows=<n>
//! REPL FRAME <chan> <start> <nrows> <crc>\n<payload>
//!                                    -> OK repl ack <chan> <rows_total>
//! REPL META <id>\n<submeta text>     -> OK repl meta <id>
//! REPL CHECKPOINT <id>\n<checkpoint> -> OK repl checkpoint <id>
//! REPL REMOVE <id>                   -> OK repl remove <id>
//! REPL SUBS <id>...                  -> OK repl subs <kept>
//! ```
//!
//! Every shipped WAL frame carries its start ordinal and a CRC of the
//! payload, so the standby can reject bit-flips (`ERR 3`) and detect
//! gaps (`ERR 4`) without trusting the transport; duplicates (a frame
//! whose rows the standby already holds — the normal overlap between a
//! resync scan and the live queue) are acknowledged idempotently.
//!
//! The shipping thread's session loop lives in `server.rs` (it walks
//! the server's channel registry to resync); this module owns the
//! queue, the per-channel ack watermarks the `--repl-ack sync` feed
//! path blocks on, and the counters `/metrics` exposes as
//! `sqlts_repl_*`.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::frame::{read_frame, write_frame, FrameEvent};

/// When a `--repl-ack sync` FEED must give up waiting for the standby
/// and degrade to async (counted, never an error to the feeder).
pub const SYNC_ACK_TIMEOUT: Duration = Duration::from_secs(2);

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
    /// A subscription meta was persisted.
    Meta { id: String, text: String },
    /// A subscription checkpoint was persisted.
    Checkpoint { id: String, text: String },
    /// A subscription's durable state was removed.
    Remove { id: String },
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
    tx: Mutex<mpsc::Sender<ReplCmd>>,
    /// Shared with the shipping thread.
    pub state: Arc<ReplState>,
    /// Tells the shipping thread to exit (set by `Server::drop`).
    pub stop: Arc<AtomicBool>,
}

impl Replicator {
    /// A replicator and the receiving end for its shipping thread.
    pub fn new(target: String, ack: ReplAck) -> (Replicator, mpsc::Receiver<ReplCmd>) {
        let (tx, rx) = mpsc::channel();
        (
            Replicator {
                target,
                ack,
                tx: Mutex::new(tx),
                state: Arc::new(ReplState::default()),
                stop: Arc::new(AtomicBool::new(false)),
            },
            rx,
        )
    }

    /// Queue a command if a session is live.  While disconnected the
    /// local WAL is the source of truth and the next resync re-reads it,
    /// so dropping here loses nothing.
    fn offer(&self, cmd: ReplCmd) -> bool {
        if !self.state.connected.load(Ordering::SeqCst) {
            return false;
        }
        self.tx
            .lock()
            .map(|tx| tx.send(cmd).is_ok())
            .unwrap_or(false)
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

    /// Queue a subscription meta.
    pub fn offer_meta(&self, id: &str, text: &str) {
        self.offer(ReplCmd::Meta {
            id: id.to_string(),
            text: text.to_string(),
        });
    }

    /// Queue a subscription checkpoint.
    pub fn offer_checkpoint(&self, id: &str, text: &str) {
        self.offer(ReplCmd::Checkpoint {
            id: id.to_string(),
            text: text.to_string(),
        });
    }

    /// Queue a subscription removal.
    pub fn offer_remove(&self, id: &str) {
        self.offer(ReplCmd::Remove { id: id.to_string() });
    }

    /// Stop the shipping thread (idempotent).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.state.mark_disconnected();
        if let Ok(tx) = self.tx.lock() {
            let _ = tx.send(ReplCmd::Shutdown);
        }
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

/// Send one replication frame and read the standby's reply.  Any I/O
/// fault, timeout, desync, or `ERR` reply is a session-fatal error
/// string — the caller reconnects and resyncs.  The `repl::send`
/// failpoint fires before the write (detail = payload bytes).
pub(crate) fn send_repl(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    payload: &str,
    max_frame: usize,
) -> Result<String, String> {
    #[cfg(feature = "failpoints")]
    if let Some(sqlts_relation::failpoints::Injected::InjectError) =
        sqlts_relation::failpoints::hit("repl::send", payload.len() as u64)
    {
        return Err("failpoint 'repl::send' injected error".into());
    }
    write_frame(stream, payload).map_err(|e| format!("repl send: {e}"))?;
    match read_frame(reader, max_frame).map_err(|e| format!("repl reply: {e}"))? {
        FrameEvent::Payload(reply) => {
            if reply.starts_with("ERR ") {
                Err(format!("standby refused: {reply}"))
            } else {
                Ok(reply)
            }
        }
        FrameEvent::Eof => Err("standby closed the connection".into()),
        FrameEvent::Oversized { len } => Err(format!("oversized standby reply ({len} bytes)")),
        FrameEvent::BadUtf8 => Err("non-UTF-8 standby reply".into()),
    }
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
}
