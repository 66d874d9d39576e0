//! Fault injection at the durability sites (`--features failpoints`):
//! a WAL append that fails must reject the FEED without fanning out, a
//! failed fsync must surface without corrupting the log or splitting the
//! channel's row count from it, a snapshot whose fsync fails must write
//! no checkpoint, and an injected replay error must abort recovery with a
//! typed runtime error — never a panic, never silent data loss.  A slow
//! fsync shows that the flush a FEED waits for runs off the channel lock.
//! Beside them, the server's `server::accept` site: a failed `accept()`
//! costs one connection, never the server; a crash at any write of a
//! `SUBSCRIBE` (`persist::atomic_write`) leaves a data dir that restarts;
//! and a standby stalled at `repl::standby_append` overflows the
//! primary's bounded shipping queue into a resync, not into memory.

#![cfg(feature = "failpoints")]

use sqlts_relation::failpoints::{self, FailAction};
use sqlts_server::frame::{read_frame, write_frame, FrameEvent};
use sqlts_server::replicate::QUEUE_DEPTH;
use sqlts_server::wal::{scan_wal, segment_path, ChannelWal, FsyncPolicy, WalError};
use sqlts_server::{ReplAck, Server, ServerConfig};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The failpoint registry is process-global; serialize the tests.
static GATE: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
    failpoints::reset();
    guard
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlts-wal-fp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// A server serving on a background thread until [`Rig::stop`] drains it.
struct Rig {
    server: Arc<Server>,
    stop: Arc<AtomicBool>,
    run: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Rig {
    fn start(config: ServerConfig) -> Rig {
        Rig::serve(Server::bind(config).unwrap())
    }

    fn serve(server: Server) -> Rig {
        let server = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let run = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || server.run_until(&stop))
        };
        Rig { server, stop, run }
    }

    fn client(&self) -> Client {
        let stream = TcpStream::connect(self.server.local_addr().unwrap()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.run.join().unwrap().unwrap();
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn call(&mut self, payload: &str) -> String {
        write_frame(&mut self.stream, payload).unwrap();
        match read_frame(&mut self.reader, 1 << 20) {
            Ok(FrameEvent::Payload(text)) => text,
            other => panic!("unexpected reply: {other:?}"),
        }
    }
}

/// What `UNSUBSCRIBE s` answers after frames `0..frames` on an
/// uninterrupted in-memory server.
fn reference(frames: u64) -> String {
    let rig = Rig::start(ServerConfig::default());
    let mut client = rig.client();
    client.call(OPEN);
    client.call(SUBSCRIBE);
    for f in 0..frames {
        assert!(client.call(&feed(f)).starts_with("OK fed 3"));
    }
    let result = client.call("UNSUBSCRIBE s");
    rig.stop();
    result
}

/// A durable server on `root` under the default `--fsync every`.
fn durable(root: &Path, checkpoint_every_frames: u64, wal_segment_bytes: u64) -> ServerConfig {
    ServerConfig {
        data_dir: Some(root.to_path_buf()),
        checkpoint_every_frames,
        wal_segment_bytes,
        ..ServerConfig::default()
    }
}

const OPEN: &str = "OPEN q name:str,day:int,price:float";
const SUBSCRIBE: &str = "SUBSCRIBE s q\nSELECT X.name, Z.day AS day FROM q CLUSTER BY name \
                         SEQUENCE BY day AS (X, *Y, Z) \
                         WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

/// `FEED` frame `f` of a rise-then-fall series: three rows.
fn feed(f: u64) -> String {
    let rows: Vec<String> = (f * 3..f * 3 + 3)
        .map(|day| format!("AAA,{day},{}", 100 + 4 * (day % 5)))
        .collect();
    format!("FEED q\n{}", rows.join("\n"))
}

#[test]
fn injected_append_failure_leaves_the_log_untouched() {
    let _guard = lock();
    let path = temp_path("append.wal");
    let mut wal = ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
    wal.append("a,1", 1).unwrap();
    let before = std::fs::read(segment_path(&path, 0)).unwrap();
    failpoints::configure("wal::append", FailAction::InjectError);
    let err = wal.append("b,2", 1).unwrap_err();
    assert!(matches!(err, WalError::Io(_)), "{err}");
    failpoints::reset();
    // The injected failure fired before any bytes were written: the log
    // still scans clean with exactly the pre-failure content.
    assert_eq!(std::fs::read(segment_path(&path, 0)).unwrap(), before);
    let scan = scan_wal(&path).unwrap();
    assert_eq!(scan.rows_total, 1);
    assert!(scan.corruption.is_none());
    // And the log keeps working once the fault clears.
    wal.append("b,2", 1).unwrap();
    assert_eq!(scan_wal(&path).unwrap().rows_total, 2);
}

#[test]
fn injected_fsync_failure_surfaces_but_preserves_appended_records() {
    let _guard = lock();
    let path = temp_path("fsync.wal");
    let mut wal = ChannelWal::create(&path, FsyncPolicy::Group { window_us: 0 }).unwrap();
    failpoints::configure("wal::fsync", FailAction::InjectError);
    // An append never syncs; the explicit sync is where the fault lands.
    wal.append("a,1", 1).unwrap();
    let err = wal.sync().unwrap_err();
    assert!(matches!(err, WalError::Io(_)), "{err}");
    failpoints::reset();
    // The record reached the file (only the sync failed): a restart that
    // survives the page cache still replays it.
    let scan = scan_wal(&path).unwrap();
    assert_eq!(scan.rows_total, 1);
    assert!(scan.corruption.is_none());
}

#[test]
fn injected_fsync_failure_fails_every_feeder_in_a_group_commit_batch() {
    let _guard = lock();
    use sqlts_server::wal::GroupCommit;
    use std::sync::Arc;
    use std::time::Duration;

    let path = temp_path("group.wal");
    let wal = Arc::new(Mutex::new(
        ChannelWal::create(&path, FsyncPolicy::Group { window_us: 2_000 }).unwrap(),
    ));
    let group = Arc::new(GroupCommit::default());
    // Four feeders append under the lock, then wait for durability as one
    // batch.  The injected fsync failure must reach *all* of them — none
    // may ack a row the disk never saw.
    failpoints::configure("wal::fsync", FailAction::InjectError);
    let mut ends = Vec::new();
    for i in 0..4u64 {
        let mut w = wal.lock().unwrap();
        w.append(&format!("f{i},1"), 1).unwrap();
        ends.push(w.rows_total());
    }
    let handles: Vec<_> = ends
        .into_iter()
        .map(|end| {
            let (group, wal) = (Arc::clone(&group), Arc::clone(&wal));
            std::thread::spawn(move || {
                group.wait_durable(end, Duration::from_millis(2), || {
                    let mut w = wal.lock().unwrap();
                    w.sync().map_err(|e| e.to_string())?;
                    Ok(w.rows_total())
                })
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    failpoints::reset();
    assert!(
        results.iter().all(|r| r.is_err()),
        "every batched feeder must see the sync failure: {results:?}"
    );
    // The rows themselves reached the file; once the fault clears a
    // fresh batch (or a restart) makes them durable.
    group
        .wait_durable(4, Duration::ZERO, || {
            let mut w = wal.lock().unwrap();
            w.sync().map_err(|e| e.to_string())?;
            Ok(w.rows_total())
        })
        .unwrap();
    assert_eq!(scan_wal(&path).unwrap().rows_total, 4);
}

#[test]
fn injected_replay_failure_is_a_typed_runtime_error() {
    let _guard = lock();
    use sqlts_core::{SessionWorker, SessionWorkerConfig};
    use sqlts_server::{DataDir, ServeError, Server, ServerConfig, SubMeta};

    // A data dir as a crashed server leaves it: one channel whose WAL
    // holds a frame the subscription's checkpoint has not seen.
    let root = temp_path("replay-dir");
    let _ = std::fs::remove_dir_all(&root);
    let schema = sqlts_relation::Schema::parse_spec("name:str,day:int,price:float").unwrap();
    let sql = "SELECT X.name FROM q CLUSTER BY name SEQUENCE BY day AS (X, Z) \
               WHERE Z.price < X.price";
    {
        let data = DataDir::lock(&root).unwrap();
        data.save_channel("q", &schema).unwrap();
        let mut wal = ChannelWal::create(&data.wal_path("q"), FsyncPolicy::Off).unwrap();
        wal.append("AAA,1,10.0", 1).unwrap();
        let fresh = SessionWorker::spawn(SessionWorkerConfig::new("fp", sql, schema)).unwrap();
        let meta = SubMeta {
            channel: "q".into(),
            base_rows: 0,
            base_records: 0,
            sql: sql.into(),
        };
        data.save_sub("fp", &meta.to_record(&fresh.snapshot().unwrap()))
            .unwrap();
    }
    let config = ServerConfig {
        data_dir: Some(root.clone()),
        fsync: FsyncPolicy::Off,
        ..ServerConfig::default()
    };
    failpoints::configure("recover::replay", FailAction::InjectError);
    let err = match Server::bind(config.clone()) {
        Err(e) => e,
        Ok(_) => panic!("recovery must surface the injected replay failure"),
    };
    failpoints::reset();
    assert!(matches!(err, ServeError::Runtime(_)), "{err:?}");
    assert_eq!(err.exit_code(), 4);
    // The subscription is still healthy: the failure was injected before
    // any row was delivered and nothing durable moved, so the next
    // recovery respawns it and replays the frame.
    let server = Server::bind(config).unwrap();
    let report = server.recovery().unwrap();
    assert_eq!(report.subscriptions, 1, "{report:?}");
    assert_eq!((report.rows_replayed, report.rows_rejected), (1, 0));
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

/// `server::accept` + `InjectError`: the acceptor logs the failure,
/// drops that one connection, backs off and keeps accepting — the next
/// client is served and the server still drains cleanly.  (Before the
/// acceptor, any accept error but `WouldBlock`/`Interrupted` ended
/// `run_until` with no drain at all.)
#[test]
fn injected_accept_failure_keeps_the_server_accepting() {
    let _guard = lock();
    use std::io::Read;

    let log = temp_path("accept.jsonl");
    let server = Arc::new(
        Server::bind(ServerConfig {
            log_file: Some(log.clone()),
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let addr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    failpoints::configure_rule("server::accept", FailAction::InjectError, 1, None, true);
    let run = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        std::thread::spawn(move || server.run_until(&stop))
    };
    // The first connection is the one whose accept fails: closed unserved.
    let mut lost = TcpStream::connect(addr).unwrap();
    lost.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = write_frame(&mut lost, "PING");
    let mut byte = [0u8; 1];
    assert!(
        !matches!(lost.read(&mut byte), Ok(n) if n > 0),
        "the failed accept's connection was served"
    );
    // The next one is served as if nothing happened.
    let mut client = TcpStream::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut reply = || match read_frame(&mut reader, 1 << 20) {
        Ok(FrameEvent::Payload(text)) => text,
        other => panic!("unexpected reply: {other:?}"),
    };
    write_frame(&mut client, "PING").unwrap();
    assert_eq!(reply(), "OK pong");
    stop.store(true, Ordering::SeqCst);
    run.join().unwrap().unwrap();
    assert_eq!(reply(), "ERR 4 server draining");
    // Two real connections reached the site; the shutdown wake-up did not.
    assert_eq!(failpoints::hit_count("server::accept"), 2);
    failpoints::reset();
    let spans = std::fs::read_to_string(&log).unwrap();
    assert_eq!(
        spans.matches("\"name\":\"accept_failed\"").count(),
        1,
        "{spans}"
    );
    assert_eq!(spans.matches("\"name\":\"accept\"").count(), 1, "{spans}");
    let _ = std::fs::remove_file(&log);
}

/// Under the default `--fsync every`, a failed fsync fails its FEED
/// (`ERR 4`) without splitting the channel's row count from its WAL: the
/// rows were appended and fanned out, the next FEED's fsync covers them,
/// `OPEN` reports what the WAL holds, and a restarted server finishes
/// byte-identical to an uninterrupted run over every committed row.
#[test]
fn a_failed_fsync_leaves_the_row_count_equal_to_the_wal() {
    let _guard = lock();
    let reference = reference(6);
    let root = temp_path("split-dir");
    let _ = std::fs::remove_dir_all(&root);
    let rig = Rig::start(durable(&root, 1_000, 1 << 20));
    let mut client = rig.client();
    assert_eq!(client.call(OPEN), "OK opened q rows=0");
    client.call(SUBSCRIBE);
    assert!(client.call(&feed(0)).starts_with("OK fed 3"));
    failpoints::configure("wal::fsync", FailAction::InjectError);
    let failed = client.call(&feed(1));
    failpoints::reset();
    assert!(failed.starts_with("ERR 4 "), "{failed}");
    assert!(client.call(&feed(2)).starts_with("OK fed 3"));
    let wal_rows = scan_wal(&root.join("channels").join("q.wal"))
        .unwrap()
        .rows_total;
    assert_eq!(wal_rows, 9, "the failed FEED's rows stay appended");
    assert_eq!(client.call(OPEN), format!("OK opened q rows={wal_rows}"));
    assert_eq!(client.call("STATUS s").split(' ').nth(2), Some("records=9"));
    rig.stop(); // a drain: the subscription outlives its connection
    let rig = Rig::start(durable(&root, 1_000, 1 << 20));
    let mut client = rig.client();
    for f in 3..6 {
        assert!(client.call(&feed(f)).starts_with("OK fed 3"));
    }
    assert_eq!(client.call("UNSUBSCRIBE s"), reference);
    rig.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// A snapshot syncs the WAL before it writes any checkpoint, so a failed
/// sync (here during the drain's snapshot pass) rewrites no subscription
/// record and unlinks no segment; the next pass, after recovery, does both.
#[test]
fn a_snapshot_whose_fsync_fails_writes_no_checkpoint_and_truncates_nothing() {
    let _guard = lock();
    let root = temp_path("snapshot-dir");
    let _ = std::fs::remove_dir_all(&root);
    // One frame per segment, and no snapshot until the drain.
    let rig = Rig::start(durable(&root, 1_000, 1));
    let mut client = rig.client();
    client.call(OPEN);
    client.call(SUBSCRIBE);
    let checkpoint = root.join("subs").join("s.sub");
    let joined = std::fs::read_to_string(&checkpoint).unwrap();
    for f in 0..4 {
        assert!(client.call(&feed(f)).starts_with("OK fed 3"));
    }
    let prefix = root.join("channels").join("q.wal");
    let segments = |prefix: &Path| (0..4).filter(|&k| segment_path(prefix, k).exists()).count();
    assert_eq!(segments(&prefix), 4);
    failpoints::configure("wal::fsync", FailAction::InjectError);
    rig.stop(); // still connected, so the drain snapshots `s`
    failpoints::reset();
    assert_eq!(
        std::fs::read_to_string(&checkpoint).unwrap(),
        joined,
        "checkpoint rewritten"
    );
    assert_eq!(segments(&prefix), 4, "a segment was unlinked");
    // Recovery replays all four frames and its snapshot pass succeeds.
    let rig = Rig::start(durable(&root, 1_000, 1));
    assert_ne!(std::fs::read_to_string(&checkpoint).unwrap(), joined);
    assert_eq!(segments(&prefix), 1, "only the active segment survives");
    rig.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// The fsync a FEED waits for runs off the persist lock: while the first
/// feeder's flush is stalled, a second feeder's frame is appended and fanned
/// out (the subscription's `STATUS` counts it) before the first reply
/// arrives.  A leader that synced under the lock would hold the second
/// frame back for the whole stall.
#[test]
fn a_second_feeder_appends_and_fans_out_during_the_first_fsync() {
    let _guard = lock();
    const STALL: Duration = Duration::from_millis(600);
    let root = temp_path("overlap-dir");
    let _ = std::fs::remove_dir_all(&root);
    let rig = Rig::start(durable(&root, 1_000, 1 << 20));
    let mut admin = rig.client();
    admin.call(OPEN);
    admin.call(SUBSCRIBE);
    let synced_before = failpoints::hit_count("wal::fsync");
    failpoints::configure("wal::fsync", FailAction::DelayMs(STALL.as_millis() as u64));
    let first_replied = Arc::new(AtomicBool::new(false));
    let first = {
        let (mut client, replied) = (rig.client(), Arc::clone(&first_replied));
        std::thread::spawn(move || {
            let reply = client.call(&feed(0));
            replied.store(true, Ordering::SeqCst);
            reply
        })
    };
    while failpoints::hit_count("wal::fsync") == synced_before {
        std::thread::sleep(Duration::from_millis(1));
    }
    let flushing = Instant::now();
    let second = {
        let mut client = rig.client();
        std::thread::spawn(move || client.call(&feed(1)))
    };
    while !admin.call("STATUS s").contains(" records=6 ") {
        assert!(
            flushing.elapsed() < 2 * STALL,
            "second frame never fanned out"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let fanned_out = flushing.elapsed();
    let early = !first_replied.load(Ordering::SeqCst);
    let replies = [first.join().unwrap(), second.join().unwrap()];
    failpoints::reset();
    assert!(
        early && fanned_out < STALL,
        "second frame fanned out {fanned_out:?} into a {STALL:?} flush (first replied: {})",
        !early
    );
    for reply in replies {
        assert!(reply.starts_with("OK fed 3"), "{reply}");
    }
    rig.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash at any durable write of a `SUBSCRIBE` leaves a data dir that
/// restarts (exit 0), with the subscription either absent or recovered
/// byte-identically.  A `Panic` at the k-th `persist::atomic_write` of the
/// SUBSCRIBE ends it right after write k − 1 (the connection answers
/// `ERR 4` and closes); every later write fails, as a dead process writes
/// nothing, so the drain adds nothing either.  The first k at which the
/// SUBSCRIBE succeeds ends the sweep.
#[test]
fn a_crash_at_any_write_of_a_subscribe_restarts_cleanly() {
    let _guard = lock();
    let reference = reference(6);
    for k in 1.. {
        let root = temp_path(&format!("subscribe-crash-{k}"));
        let _ = std::fs::remove_dir_all(&root);
        let rig = Rig::start(durable(&root, 1_000, 1 << 20));
        let mut client = rig.client();
        client.call(OPEN);
        failpoints::reset();
        failpoints::configure_rule("persist::atomic_write", FailAction::Panic, k, None, true);
        let dead = FailAction::InjectError;
        failpoints::configure_rule("persist::atomic_write", dead, k + 1, None, false);
        // A crashed SUBSCRIBE answers `ERR 4`: wait for the reply or for
        // the k-th write, whichever comes first.
        write_frame(&mut client.stream, SUBSCRIBE).unwrap();
        let poll = Some(Duration::from_millis(20));
        client.stream.set_read_timeout(poll).unwrap();
        let subscribed = loop {
            match read_frame(&mut client.reader, 1 << 20) {
                Ok(FrameEvent::Payload(reply)) => break reply.starts_with("OK").then_some(reply),
                _ if failpoints::hit_count("persist::atomic_write") >= k => break None,
                _ => {}
            }
        };
        if subscribed.is_some() {
            failpoints::reset(); // no write crashed: an ordinary drain
        }
        rig.stop();
        failpoints::reset();
        let server = Server::bind(durable(&root, 1_000, 1 << 20))
            .unwrap_or_else(|e| panic!("crash at write {k}: restart exits {}: {e}", e.exit_code()));
        let recovered = server.recovery().unwrap().subscriptions;
        let rig = Rig::serve(server);
        let mut client = rig.client();
        if recovered == 1 {
            for f in 0..6 {
                assert!(client.call(&feed(f)).starts_with("OK fed 3"));
            }
            assert_eq!(
                client.call("UNSUBSCRIBE s"),
                reference,
                "crash at write {k}"
            );
        } else {
            assert_eq!(recovered, 0, "crash at write {k}");
            let status = client.call("STATUS s");
            assert!(status.starts_with("ERR 2 unknown subscription"), "{status}");
        }
        rig.stop();
        let _ = std::fs::remove_dir_all(&root);
        if subscribed.is_some() {
            assert_eq!(recovered, 1, "an acknowledged SUBSCRIBE was lost");
            assert!(k > 1, "the SUBSCRIBE wrote nothing durable");
            break;
        }
    }
}

/// A verb whose handler panics is answered, not dropped: the client reads
/// `ERR 4` naming the panic at once (before, the connection thread died
/// and the client waited out its read timeout), and the connection then
/// closes with its subscriptions reaped.  The channel whose persist lock
/// the panic poisoned keeps refusing work; the server serves on.
#[test]
fn a_panicking_verb_is_answered_and_its_connection_reaped() {
    let _guard = lock();
    let root = temp_path("verb-panic");
    let _ = std::fs::remove_dir_all(&root);
    let rig = Rig::start(durable(&root, 1_000, 1 << 20));
    let mut client = rig.client();
    client.call(OPEN);
    let next = failpoints::hit_count("persist::atomic_write") + 1;
    failpoints::configure_rule("persist::atomic_write", FailAction::Panic, next, None, true);
    client
        .stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let asked = Instant::now();
    let reply = client.call(SUBSCRIBE);
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "{:?}",
        asked.elapsed()
    );
    assert!(
        reply.starts_with("ERR 4 SUBSCRIBE panicked") && reply.contains("persist::atomic_write"),
        "{reply}"
    );
    assert!(matches!(
        read_frame(&mut client.reader, 1 << 20),
        Ok(FrameEvent::Eof)
    ));
    let mut other = rig.client();
    assert_eq!(other.call("PING"), "OK pong");
    let status = other.call("STATUS s");
    assert!(status.starts_with("ERR 2 unknown subscription"), "{status}");
    let refused = other.call(&feed(0));
    assert!(refused.starts_with("ERR 4"), "{refused}");
    failpoints::reset();
    rig.stop();
    let _ = std::fs::remove_dir_all(&root);
}

fn metric(addr: std::net::SocketAddr, name: &str) -> u64 {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")));
    line.unwrap_or_else(|| panic!("no {name}")).parse().unwrap()
}

/// Under async acks a stalled standby cannot grow the primary's shipping
/// queue without limit: past [`QUEUE_DEPTH`] queued commands the offer
/// ends the session (counted as a send error), and the next session's
/// resync ships from disk what the queue could not hold.  The promoted
/// standby then finishes byte-identically to the uninterrupted run.
#[test]
fn a_full_replication_queue_resyncs_from_disk() {
    let _guard = lock();
    const STALL: Duration = Duration::from_millis(1500);
    let frames = QUEUE_DEPTH as u64 + 64;
    let reference = reference(frames);
    let (sroot, proot) = (temp_path("queue-standby"), temp_path("queue-primary"));
    let log = temp_path("queue-primary.jsonl");
    for root in [&sroot, &proot] {
        let _ = std::fs::remove_dir_all(root);
    }
    let quiet = |root: &Path| ServerConfig {
        fsync: FsyncPolicy::Off,
        ..durable(root, 1 << 20, 1 << 20)
    };
    let standby = Rig::start(ServerConfig {
        standby: true,
        ..quiet(&sroot)
    });
    let primary = Rig::start(ServerConfig {
        replicate_to: Some(standby.server.local_addr().unwrap().to_string()),
        repl_ack: ReplAck::Async,
        log_file: Some(log.clone()),
        ..quiet(&proot)
    });
    let paddr = primary.server.local_addr().unwrap();
    let mut client = primary.client();
    client.call(OPEN);
    client.call(SUBSCRIBE);
    let mut observer = standby.client();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !observer.call("STATUS s").starts_with("OK status standby") {
        assert!(
            Instant::now() < deadline,
            "the standby never got the record"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let next = failpoints::hit_count("repl::standby_append") + 1;
    let stall = FailAction::DelayMs(STALL.as_millis() as u64);
    failpoints::configure_rule("repl::standby_append", stall, next, None, true);
    let started = Instant::now();
    for f in 0..frames {
        assert!(client.call(&feed(f)).starts_with("OK fed 3"));
    }
    let fed_in = started.elapsed();
    while metric(paddr, "sqlts_repl_resyncs_total") < 2
        || metric(paddr, "sqlts_repl_lag_rows") > 0
        || metric(paddr, "sqlts_repl_connected") == 0
    {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "never caught up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    failpoints::reset();
    assert!(
        fed_in < STALL,
        "feeding took {fed_in:?}, longer than the stall"
    );
    assert_eq!(metric(paddr, "sqlts_repl_send_errors_total"), 1);
    primary.stop();
    let spans = std::fs::read_to_string(&log).unwrap();
    let session_errors: Vec<&str> = spans
        .lines()
        .filter(|l| l.contains("\"name\":\"repl_session_error\""))
        .collect();
    assert_eq!(session_errors.len(), 1, "{spans}");
    assert!(session_errors[0].contains("\"what\":\"queue\""), "{spans}");
    assert!(observer
        .call("PROMOTE")
        .starts_with("OK promoted channels=1"));
    assert_eq!(observer.call("UNSUBSCRIBE s"), reference);
    standby.stop();
    for root in [&sroot, &proot] {
        let _ = std::fs::remove_dir_all(root);
    }
    let _ = std::fs::remove_file(&log);
}
