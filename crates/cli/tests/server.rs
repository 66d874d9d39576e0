//! End-to-end tests for `sqlts serve`: a real server process, real TCP
//! connections speaking the framed protocol.
//!
//! The load-bearing invariants:
//!
//! * N concurrent subscriptions over one shared feed each produce output
//!   byte-identical to batch `execute` over the same tuples — including a
//!   subscription that checkpointed, lost its connection, and resumed on
//!   a new one;
//! * malformed protocol frames (oversized, bad UTF-8, unknown verbs) are
//!   answered with `ERR`, never by a panic or a dropped connection;
//! * `GET /metrics` on the same port serves a sane Prometheus exposition;
//! * a subscription that stops feeding still trips its wall-clock
//!   deadline (the stalled-tenant fix) and reports a partial, exit-coded
//!   result;
//! * a reply never waits out Nagle x delayed ACK again, and a new
//!   connection never waits on an accept poll.

mod common;

use common::{batch_csv, result_body, rows, spawn_server, Client, BIN, QUERY, SCHEMA};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn concurrent_subscriptions_match_batch() {
    let rows = rows();
    let expected = batch_csv(&rows);
    let server = spawn_server(&[]);

    // Three subscriptions across two connections, one shared feed.
    let mut conn_a = Client::connect(&server.addr);
    let mut conn_b = Client::connect(&server.addr);
    assert_eq!(conn_a.send("PING"), "OK pong");
    assert_eq!(
        conn_a.send(&format!("OPEN quote {SCHEMA}")),
        "OK opened quote"
    );
    for (on_a, id) in [(true, "s1"), (true, "s2"), (false, "s3")] {
        let conn = if on_a { &mut conn_a } else { &mut conn_b };
        let reply = conn.send(&format!("SUBSCRIBE {id} quote\n{QUERY}"));
        assert_eq!(reply, format!("OK subscribed {id} quote"));
    }
    // Feed in chunks from connection B; every subscription sees all rows.
    for chunk in rows.chunks(50) {
        let reply = conn_b.send(&format!("FEED quote\n{}", chunk.join("\n")));
        assert!(
            reply.starts_with(&format!("OK fed {} subs=3", chunk.len())),
            "{reply}"
        );
    }
    for (on_a, id) in [(true, "s1"), (true, "s2"), (false, "s3")] {
        let conn = if on_a { &mut conn_a } else { &mut conn_b };
        let reply = conn.send(&format!("UNSUBSCRIBE {id}"));
        assert_eq!(
            result_body(&reply, id, 0),
            expected,
            "subscription {id} must be byte-identical to batch"
        );
    }
}

#[test]
fn checkpoint_disconnect_resume_matches_batch() {
    let rows = rows();
    let expected = batch_csv(&rows);
    let server = spawn_server(&[]);
    let mid = rows.len() / 2;

    let mut first = Client::connect(&server.addr);
    first.send(&format!("OPEN quote {SCHEMA}"));
    assert_eq!(
        first.send(&format!("SUBSCRIBE s1 quote\n{QUERY}")),
        "OK subscribed s1 quote"
    );
    first.send(&format!("FEED quote\n{}", rows[..mid].join("\n")));
    let reply = first.send("CHECKPOINT s1");
    let checkpoint = reply
        .strip_prefix("CHECKPOINT s1\n")
        .unwrap_or_else(|| panic!("unexpected checkpoint reply: {reply}"));
    assert!(checkpoint.starts_with("sqlts-checkpoint v1\n"));
    // Hard disconnect: the server reaps s1; the checkpoint is the
    // client's to keep.
    drop(first);

    let mut second = Client::connect(&server.addr);
    let reply = second.send(&format!("RESUME s2 quote\n{QUERY}\n{checkpoint}"));
    assert_eq!(reply, "OK resumed s2 quote");
    second.send(&format!("FEED quote\n{}", rows[mid..].join("\n")));
    let reply = second.send("UNSUBSCRIBE s2");
    assert_eq!(
        result_body(&reply, "s2", 0),
        expected,
        "resumed subscription must be byte-identical to batch"
    );
}

/// `--shared-matcher auto`, `--fsync batch`, `--queue-depth`,
/// `--poll-interval-ms` and `--log-format` named mechanisms that no
/// longer exist: asking for one is a usage error, never a silent
/// fallback to some other policy.
#[test]
fn removed_flags_and_flag_values_are_usage_errors() {
    for flag in [
        ["--shared-matcher", "auto"],
        ["--fsync", "batch"],
        ["--queue-depth", "16"],
        ["--poll-interval-ms", "50"],
        ["--sample-profile", "f"],
        ["--sample-hz", "10"],
        ["--log-format", "json"],
    ] {
        let out = Command::new(BIN)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(flag)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
    }
}

#[test]
fn malformed_frames_get_errors_not_disconnects() {
    let server = spawn_server(&["--max-frame-bytes", "64"]);
    let mut client = Client::connect(&server.addr);

    // Oversized frame: drained, ERR 2, connection lives.
    let reply = client.send(&"x".repeat(100));
    assert!(reply.starts_with("ERR 2 frame of 100 bytes"), "{reply}");
    assert_eq!(client.send("PING"), "OK pong");

    // Bad UTF-8 payload: ERR 2, connection lives.
    client.writer.write_all(b"3 \xff\xfe\xfd\n").unwrap();
    let reply = client.recv();
    assert!(
        reply.starts_with("ERR 2 frame payload is not UTF-8"),
        "{reply}"
    );
    assert_eq!(client.send("PING"), "OK pong");

    // Unknown verbs and malformed arities: ERR 2, connection lives.
    for bad in ["NONSENSE", "SUBSCRIBE onlyone", "FEED", "OPEN q notaschema"] {
        let reply = client.send(bad);
        assert!(reply.starts_with("ERR 2 "), "{bad:?} -> {reply}");
    }
    assert_eq!(client.send("PING"), "OK pong");

    // A corrupt length header is fatal by design — but answered with a
    // parting ERR and a clean close, not a panic.
    client.writer.write_all(b"bogus frame\n").unwrap();
    let reply = client.recv();
    assert!(reply.starts_with("ERR 2 frame desync"), "{reply}");
    let mut rest = Vec::new();
    client.reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection should close after desync");

    // The server itself is unharmed.
    let mut fresh = Client::connect(&server.addr);
    assert_eq!(fresh.send("PING"), "OK pong");
}

#[test]
fn metrics_scrape_is_valid_prometheus() {
    let server = spawn_server(&[]);
    let mut client = Client::connect(&server.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    client.send(&format!("SUBSCRIBE live quote\n{QUERY}"));
    client.send("FEED quote\nAAA,1,100.0\nAAA,2,98.5");

    let scrape = || {
        let mut http = TcpStream::connect(&server.addr).unwrap();
        http.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        write!(
            http,
            "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        http.read_to_string(&mut response).unwrap();
        response
    };
    let response = scrape();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("text/plain; version=0.0.4"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    for needle in [
        "# TYPE sqlts_server_connections_total counter",
        "# TYPE sqlts_server_frames_total counter",
        "sqlts_sub_records{tenant=\"live\"} 2",
        "sqlts_sub_tripped{tenant=\"live\"} 0",
    ] {
        assert!(body.contains(needle), "missing {needle} in {body}");
    }
    // Every non-comment line is `name{labels} value` with a numeric value.
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in {line:?}"
        );
    }

    // After the subscription finishes, its profile appears tenant-labeled.
    client.send("UNSUBSCRIBE live");
    let response = scrape();
    assert!(
        response.contains("sqlts_tuples_total{tenant=\"live\"} 2"),
        "{response}"
    );

    // Other paths 404 without harming the protocol port.
    let mut http = TcpStream::connect(&server.addr).unwrap();
    write!(http, "GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
}

/// Parse a raw HTTP/1.1 response: (status line, headers, body bytes).
/// Reads the body by `Content-Length`, byte-exactly — the strictness a
/// real scraper applies.
fn parse_http(raw: &[u8]) -> (String, Vec<(String, String)>, Vec<u8>) {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header/body separator");
    let head = std::str::from_utf8(&raw[..split]).expect("headers are ASCII");
    let mut lines = head.split("\r\n");
    let status = lines.next().unwrap().to_string();
    let headers: Vec<(String, String)> = lines
        .map(|l| {
            let (k, v) = l
                .split_once(':')
                .unwrap_or_else(|| panic!("bad header {l:?}"));
            (k.to_ascii_lowercase(), v.trim().to_string())
        })
        .collect();
    let body = raw[split + 4..].to_vec();
    (status, headers, body)
}

/// Satellite regression: the `/metrics` endpoint must be well-formed
/// HTTP even for a client that dribbles its request one byte at a time
/// (the old peek-probe re-read bytes at the wrong offsets and could
/// misclassify such a connection).  `Content-Length` must equal the
/// body's byte count exactly, with no trailing bytes after it.
#[test]
fn http_scrape_survives_split_writes_and_frames_content_length_exactly() {
    let server = spawn_server(&[]);
    let mut client = Client::connect(&server.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    client.send(&format!("SUBSCRIBE live quote\n{QUERY}"));
    client.send("FEED quote\nAAA,1,100.0\nAAA,2,98.5");

    for path in ["/metrics", "/status"] {
        let mut http = TcpStream::connect(&server.addr).unwrap();
        http.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // One byte at a time, with pauses inside the "GET " probe window.
        let request = format!("{path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        for byte in b"GET " {
            http.write_all(&[*byte]).unwrap();
            http.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        http.write_all(request.as_bytes()).unwrap();
        let mut raw = Vec::new();
        http.read_to_end(&mut raw).unwrap();
        let (status, headers, body) = parse_http(&raw);
        assert_eq!(status, "HTTP/1.1 200 OK", "{path}");
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().unwrap())
            .expect("Content-Length present");
        assert_eq!(
            body.len(),
            length,
            "{path}: Content-Length must frame the body byte-exactly"
        );
        assert!(body.ends_with(b"\n"), "{path}: body ends with a newline");
    }
}

/// `GET /status` returns one JSON document with the server counters,
/// latency histograms, and every live subscription's state.
#[test]
fn status_endpoint_reports_live_subscriptions_as_json() {
    let server = spawn_server(&[]);
    let mut client = Client::connect(&server.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    client.send(&format!("SUBSCRIBE live quote\n{QUERY}"));
    client.send("FEED quote\nAAA,1,100.0\nAAA,2,98.5");

    let mut http = TcpStream::connect(&server.addr).unwrap();
    http.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        http,
        "GET /status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    http.read_to_end(&mut raw).unwrap();
    let (status, headers, body) = parse_http(&raw);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "content-type" && v.starts_with("application/json")),
        "{headers:?}"
    );
    let text = String::from_utf8(body).unwrap();
    for needle in [
        "\"draining\":false",
        "\"id\":\"live\"",
        "\"records\":2",
        "\"queue_depth\":",
        "\"latency\":{",
        "\"frame_decode_micros\":{\"count\":",
        // The one FEED above, timed from production counters: one parse,
        // and one drive of the one session group.
        "\"row_parse_micros\":{\"count\":1,",
        "\"session_drive_micros\":{\"count\":1,",
    ] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }
    assert!(!text.contains("\"phase\""), "{text}");
    // Braces and brackets balance — the document is at least
    // structurally JSON even without a parser on this side.
    let balance = |open: char, close: char| {
        text.chars().filter(|c| *c == open).count() == text.chars().filter(|c| *c == close).count()
    };
    assert!(balance('{', '}') && balance('[', ']'), "{text}");
}

/// A fully armed server (span log at debug, slow-frame watchdog) must
/// produce byte-identical query output to batch mode and a balanced span
/// log after a graceful drain, which `sqlts trace-agg --collapsed` folds
/// into stacks that give each session group's drive a frame of its own.
#[test]
fn armed_observability_run_is_byte_identical_and_artifacts_are_well_formed() {
    let rows = rows();
    let expected = batch_csv(&rows);
    let dir = std::env::temp_dir().join(format!("sqlts-armed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("server.log.jsonl");
    let folded = dir.join("profile.folded");
    let mut server = spawn_server(&[
        "--log",
        log.to_str().unwrap(),
        "--log-level",
        "debug",
        "--slow-frame-ms",
        "10000",
    ]);
    let mut client = Client::connect(&server.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    client.send(&format!("SUBSCRIBE s1 quote\n{QUERY}"));
    for chunk in rows.chunks(40) {
        client.send(&format!("FEED quote\n{}", chunk.join("\n")));
    }
    let reply = client.send("UNSUBSCRIBE s1");
    assert_eq!(
        result_body(&reply, "s1", 0),
        expected,
        "armed run must be byte-identical to batch"
    );
    drop(client);

    // Graceful drain (SIGTERM) flushes the span log; waiting for exit
    // makes it final.
    let pid = server.child.id().to_string();
    let status = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(status.success());
    let exit = server.child.wait().unwrap();
    assert!(exit.success(), "drained server exits 0: {exit:?}");

    // Span log: every line valid JSON-ish, begins balanced with ends.
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(!text.is_empty(), "span log must not be empty");
    let (mut begins, mut ends) = (0u64, 0u64);
    for line in text.lines() {
        assert!(
            line.starts_with("{\"ts\":") && line.ends_with('}'),
            "bad span log line: {line}"
        );
        if line.contains("\"k\":\"b\"") {
            begins += 1;
        } else if line.contains("\"k\":\"e\"") {
            ends += 1;
        }
    }
    assert!(begins > 0, "expected spans in:\n{text}");
    assert_eq!(begins, ends, "unbalanced spans in:\n{text}");
    for name in [
        "\"name\":\"dispatch\"",
        "\"name\":\"wal_append\"",
        "\"name\":\"fanout\"",
        "\"name\":\"session_drive\"",
        "\"name\":\"accept\"",
        "\"name\":\"drain\"",
    ] {
        // wal_append only appears with --data-dir; skip it here.
        if name.contains("wal_append") {
            continue;
        }
        assert!(text.contains(name), "missing {name} in span log:\n{text}");
    }

    // Each session group's drive names the subscriptions it reached.
    let drives: Vec<&str> = text
        .lines()
        .filter(|line| line.contains("\"name\":\"session_drive\""))
        .collect();
    assert!(
        drives.iter().any(|line| line.contains("\"subs\":\"s1\"")),
        "no session_drive record carries s1:\n{text}"
    );

    // The span log is the profiler: its collapsed stacks are `frame;frame
    // count` lines, and a group's drive sits under its frame's fan-out.
    let agg = Command::new(BIN)
        .args(["trace-agg", log.to_str().unwrap(), "--collapsed"])
        .arg(&folded)
        .output()
        .unwrap();
    assert!(agg.status.success(), "{agg:?}");
    let profile = std::fs::read_to_string(&folded).unwrap();
    assert!(
        profile
            .lines()
            .any(|line| line.starts_with("serve;dispatch;fanout;session_drive")),
        "{profile}"
    );
    for line in profile.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack SP count");
        assert!(stack.starts_with("serve;"), "{line}");
        assert!(!stack.contains(' '), "{line}");
        assert!(count.parse::<u64>().is_ok(), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_subscription_trips_wall_clock_deadline() {
    // The acceptance criterion, end to end: a subscription that stops
    // feeding must trip its deadline with no further FEED frame.
    let server = spawn_server(&["--timeout-ms", "150"]);
    let mut client = Client::connect(&server.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    client.send(&format!("SUBSCRIBE stall quote\n{QUERY}"));
    client.send("FEED quote\nAAA,1,100.0");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.send("STATUS stall");
        if status.contains("trip=deadline") {
            break;
        }
        assert!(
            status.starts_with("OK status "),
            "unexpected status reply: {status}"
        );
        assert!(
            Instant::now() < deadline,
            "stalled subscription never tripped: {status}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The governed result is partial and carries the exit-style code 4.
    let reply = client.send("UNSUBSCRIBE stall");
    let head = reply.lines().next().unwrap();
    assert!(head.starts_with("RESULT stall 4 "), "{head}");
    assert!(head.contains("trip=deadline"), "{head}");
}

/// A reply must not wait out Nagle x delayed ACK: 44 ms per round trip
/// before accepted sockets got `TCP_NODELAY` and `write_frame` became one
/// write, ≈ 0.1 ms since.  The median keeps one scheduler hiccup from
/// failing the build.
#[test]
fn ping_round_trip_has_no_reply_stall() {
    let server = spawn_server(&[]);
    let mut client = Client::connect(&server.addr);
    assert_eq!(client.send("PING"), "OK pong");
    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            assert_eq!(client.send("PING"), "OK pong");
            started.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median PING round trip {median:?}: the reply stall is back"
    );
}

/// A fresh connection is read the moment it arrives.  While the listener
/// was polled non-blocking with a 20 ms sleep on every empty poll, each
/// new client waited about one tick for its first reply (a median of
/// ≈ 20 ms over sequential connections); a blocking acceptor answers in
/// ≈ 0.05 ms.
#[test]
fn fresh_connections_are_served_on_arrival() {
    let server = spawn_server(&[]);
    let mut waits: Vec<Duration> = (0..21)
        .map(|_| {
            let started = Instant::now();
            let mut client = Client::connect(&server.addr);
            assert_eq!(client.send("PING"), "OK pong");
            started.elapsed()
        })
        .collect();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-first-reply {median:?}: new connections wait on a poll tick"
    );
}

/// `sqlts trace-agg` must fold the span log a real server wrote — the
/// reader and the writer agree on the format, not just each with a
/// hand-rolled sample of it.
#[test]
fn trace_agg_folds_a_real_server_span_log() {
    let dir = std::env::temp_dir().join(format!("sqlts-agg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (log, folded) = (dir.join("server.log.jsonl"), dir.join("spans.folded"));
    let mut server = spawn_server(&["--log", log.to_str().unwrap(), "--log-level", "debug"]);
    let mut client = Client::connect(&server.addr);
    client.send(&format!("OPEN quote {SCHEMA}"));
    client.send(&format!("SUBSCRIBE s1 quote\n{QUERY}"));
    client.send(&format!("FEED quote\n{}", rows()[..40].join("\n")));
    client.send("UNSUBSCRIBE s1");
    drop(client);
    // Graceful drain, so the log is flushed and final.
    server.signal("TERM");
    assert!(server.child.wait().unwrap().success());

    let agg = Command::new(BIN)
        .args(["trace-agg", log.to_str().unwrap(), "--collapsed"])
        .arg(&folded)
        .output()
        .unwrap();
    assert!(agg.status.success(), "{agg:?}");
    let tree = String::from_utf8(agg.stdout).unwrap();
    assert!(tree.starts_with("span log:"), "{tree}");
    for name in ["dispatch", "fanout", "accept"] {
        assert!(tree.contains(name), "missing {name} in:\n{tree}");
    }
    let collapsed = std::fs::read_to_string(&folded).unwrap();
    assert!(collapsed.contains("serve;dispatch"), "{collapsed}");
    for line in collapsed.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack SP count");
        assert!(stack.contains(';') && !stack.contains(' '), "{line}");
        assert!(count.parse::<u64>().is_ok(), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
