//! Fault injection at the durability sites (`--features failpoints`):
//! a WAL append that fails must reject the FEED without fanning out, a
//! failed fsync must surface without corrupting the log, and an injected
//! replay error must abort recovery with a typed runtime error — never a
//! panic, never silent data loss.  Beside them, the server's
//! `server::accept` site: a failed `accept()` costs one connection, never
//! the server.

#![cfg(feature = "failpoints")]

use sqlts_relation::failpoints::{self, FailAction};
use sqlts_server::wal::{scan_wal, segment_path, ChannelWal, FsyncPolicy, WalError};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

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
    let mut wal = ChannelWal::create(&path, FsyncPolicy::Every).unwrap();
    failpoints::configure("wal::fsync", FailAction::InjectError);
    let err = wal.append("a,1", 1).unwrap_err();
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
        data.save_sub_meta("fp", &meta).unwrap();
        data.save_sub_checkpoint("fp", &fresh.snapshot().unwrap())
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
    use sqlts_server::frame::{read_frame, write_frame, FrameEvent};
    use sqlts_server::{Server, ServerConfig};
    use std::io::{BufReader, Read};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

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
