//! End-to-end crash-safety tests for `sqlts serve --data-dir`: a real
//! server process with a real durable directory, killed for real.
//!
//! The load-bearing invariants:
//!
//! * SIGKILL mid-feed, then a restart on the same `--data-dir`, yields a
//!   final result byte-identical to an uninterrupted batch run — the WAL
//!   and checkpoint snapshots lose nothing that was acknowledged;
//! * SIGTERM drains gracefully: in-flight connections get a parting
//!   `ERR`, final snapshots land, the process prints `drained` and exits
//!   0, and a restart recovers every subscription;
//! * a second server pointed at a live server's `--data-dir` refuses to
//!   start (exit 2) instead of corrupting it.

#![cfg(unix)]

mod common;

use common::{
    batch_csv, http_get, metric, result_body, rows, Client, ServerGuard, BIN, QUERY, SCHEMA,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Spawn `sqlts serve --listen 127.0.0.1:0 --data-dir <dir> <extra>`; the
/// guard's `preamble` holds the recovery summary printed before the
/// `listening on <addr>` announcement.
fn spawn_server(data_dir: &Path, extra: &[&str]) -> ServerGuard {
    let mut args = vec!["--data-dir", data_dir.to_str().unwrap()];
    args.extend_from_slice(extra);
    common::spawn_server(&args)
}

/// Parse `OK opened quote rows=N`.
fn opened_rows(reply: &str) -> usize {
    reply
        .strip_prefix("OK opened quote rows=")
        .unwrap_or_else(|| panic!("unexpected OPEN reply: {reply}"))
        .parse()
        .unwrap()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlts-durability-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkill_midfeed_then_restart_is_byte_identical_to_batch() {
    let rows = rows();
    let expected = batch_csv(&rows);
    let dir = fresh_dir("sigkill");

    // Phase 1: open, subscribe, feed part of the stream, then die hard —
    // the last FEED is sent without waiting for its acknowledgement, so
    // the kill can land anywhere inside the append/fan-out path.
    let acknowledged;
    {
        let mut server = spawn_server(&dir, &["--checkpoint-every-frames", "2"]);
        // A fresh data dir still announces its (empty) recovery pass.
        assert_eq!(
            server.preamble,
            ["recovered 0 channel(s), 0 subscription(s), 0 row(s) replayed"]
        );
        let mut client = Client::connect(&server.addr);
        assert_eq!(
            client.send(&format!("OPEN quote {SCHEMA}")),
            "OK opened quote rows=0"
        );
        assert_eq!(
            client.send(&format!("SUBSCRIBE s1 quote\n{QUERY}")),
            "OK subscribed s1 quote"
        );
        let mut chunks = rows.chunks(30);
        let mut fed = 0;
        for chunk in chunks.by_ref().take(3) {
            client.send(&format!("FEED quote\n{}", chunk.join("\n")));
            fed += chunk.len();
        }
        acknowledged = fed;
        // Fire one more FEED and kill without reading the reply.
        let in_flight = chunks.next().unwrap();
        client.send_only(&format!("FEED quote\n{}", in_flight.join("\n")));
        server.child.kill().unwrap();
        server.child.wait().unwrap();
    }
    // The kill leaves the LOCK file behind; restart must treat it as
    // stale (the pid is dead) rather than refusing to start.
    assert!(dir.join("LOCK").exists(), "SIGKILL should leave the lock");

    // Phase 2: restart on the same directory, learn how many rows
    // survived from OPEN's durable count, and feed exactly the rest.
    let server = spawn_server(&dir, &["--checkpoint-every-frames", "2"]);
    let summary = server
        .preamble
        .iter()
        .find(|l| l.starts_with("recovered "))
        .unwrap_or_else(|| panic!("no recovery summary in {:?}", server.preamble));
    assert!(
        summary.starts_with("recovered 1 channel(s), 1 subscription(s),"),
        "{summary}"
    );
    let mut client = Client::connect(&server.addr);
    let durable = opened_rows(&client.send(&format!("OPEN quote {SCHEMA}")));
    assert!(
        durable >= acknowledged,
        "durable count {durable} lost acknowledged rows ({acknowledged})"
    );
    assert!(durable <= rows.len());
    if durable < rows.len() {
        let reply = client.send(&format!("FEED quote\n{}", rows[durable..].join("\n")));
        assert!(reply.starts_with("OK fed "), "{reply}");
    }
    let scrape = http_get(&server.addr, "/metrics");
    assert_eq!(
        metric(&scrape, "sqlts_server_recovered_subscriptions_total"),
        1
    );
    let reply = client.send("UNSUBSCRIBE s1");
    assert_eq!(
        result_body(&reply, "s1", 0),
        expected,
        "recovered subscription must be byte-identical to batch"
    );
}

#[test]
fn sigterm_drains_gracefully_and_a_restart_recovers() {
    let rows = rows();
    let expected = batch_csv(&rows);
    let dir = fresh_dir("sigterm");
    let mid = rows.len() / 2;

    let mut server = spawn_server(&dir, &[]);
    let mut client = Client::connect(&server.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    assert_eq!(
        client.send(&format!("SUBSCRIBE s1 quote\n{QUERY}")),
        "OK subscribed s1 quote"
    );
    client.send(&format!("FEED quote\n{}", rows[..mid].join("\n")));

    // Graceful drain: exit code 0, a parting ERR to the in-flight
    // connection, `drained` on stdout, and no LOCK left behind.
    server.signal("TERM");
    let status = server.child.wait().unwrap();
    assert!(status.success(), "drain must exit 0, got {status:?}");
    let parting = client.recv();
    assert!(parting.starts_with("ERR 4 server draining"), "{parting}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server.stdout, &mut rest).unwrap();
    assert!(
        rest.contains("drained"),
        "missing drain announcement: {rest:?}"
    );
    assert!(!dir.join("LOCK").exists(), "drain must release the lock");
    drop(server);

    // The drain snapshotted every subscription: a restart recovers it
    // and the remaining rows complete the stream byte-identically.
    let server = spawn_server(&dir, &[]);
    assert!(
        server
            .preamble
            .iter()
            .any(|l| l.starts_with("recovered 1 channel(s), 1 subscription(s),")),
        "{:?}",
        server.preamble
    );
    let mut client = Client::connect(&server.addr);
    let durable = opened_rows(&client.send(&format!("OPEN quote {SCHEMA}")));
    assert_eq!(durable, mid, "drain must persist every acknowledged row");
    client.send(&format!("FEED quote\n{}", rows[mid..].join("\n")));
    let reply = client.send("UNSUBSCRIBE s1");
    assert_eq!(result_body(&reply, "s1", 0), expected);
}

#[test]
fn second_server_on_a_live_data_dir_is_refused_with_exit_2() {
    let dir = fresh_dir("locked");
    let server = spawn_server(&dir, &[]);

    let out = Command::new(BIN)
        .args(["serve", "--listen", "127.0.0.1:0", "--data-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("locked by running pid"),
        "unexpected refusal message: {stderr}"
    );
    drop(server);
}

/// Poll `cond` for up to ten seconds.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Replication failover through the real binary: a primary streams its
/// WAL to a `--standby` with sync acks and is SIGKILLed with a FEED in
/// flight; SIGUSR1 (the CLI's relay — no in-process test reaches the
/// signal handler) promotes the standby, which must hold every
/// sync-acked row and finish the stream byte-identical to batch.
#[test]
fn sigusr1_promotes_the_standby_after_the_primary_is_killed() {
    let rows = rows();
    let expected = batch_csv(&rows);
    let (pdir, sdir) = (fresh_dir("primary"), fresh_dir("standby"));
    let standby = spawn_server(&sdir, &["--standby"]);
    let primary = spawn_server(
        &pdir,
        &["--replicate-to", &standby.addr, "--repl-ack", "sync"],
    );
    // The shipper connects in the background; a sync FEED that beats it
    // degrades to async by design, so start once the stream is up.
    wait_until("replication session up", || {
        metric(&http_get(&primary.addr, "/metrics"), "sqlts_repl_connected") == 1
    });
    let mut client = Client::connect(&primary.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    client.send(&format!("SUBSCRIBE s1 quote\n{QUERY}"));
    let mut chunks = rows.chunks(30);
    let mut acked = 0;
    for chunk in chunks.by_ref().take(4) {
        let reply = client.send(&format!("FEED quote\n{}", chunk.join("\n")));
        assert!(reply.starts_with("OK fed 30 subs=1"), "{reply}");
        acked += chunk.len();
    }
    let scrape = http_get(&standby.addr, "/metrics");
    assert_eq!(metric(&scrape, "sqlts_standby"), 1);
    assert!(metric(&scrape, "sqlts_repl_frames_received_total") >= 4);

    client.send_only(&format!(
        "FEED quote\n{}",
        chunks.next().unwrap().join("\n")
    ));
    drop(primary);
    standby.signal("USR1");
    let mut client = Client::connect(&standby.addr);
    let mut reply = String::new();
    wait_until("promotion after SIGUSR1", || {
        reply = client.send(&format!("OPEN quote {SCHEMA}"));
        assert!(
            reply.starts_with("OK opened ") || reply.starts_with("ERR 4 "),
            "{reply}"
        );
        reply.starts_with("OK opened ")
    });
    let durable = opened_rows(&reply);
    assert!(
        durable == acked || durable == acked + 30,
        "promoted standby holds {durable} rows, {acked} were sync-acked"
    );
    let scrape = http_get(&standby.addr, "/metrics");
    assert_eq!(metric(&scrape, "sqlts_standby"), 0);
    assert_eq!(metric(&scrape, "sqlts_repl_promotions_total"), 1);
    client.send(&format!("FEED quote\n{}", rows[durable..].join("\n")));
    let reply = client.send("UNSUBSCRIBE s1");
    assert_eq!(
        result_body(&reply, "s1", 0),
        expected,
        "promoted standby must be byte-identical to batch"
    );
}
