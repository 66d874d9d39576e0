//! Shared harness for the out-of-process `sqlts serve` suites
//! (`server.rs`, `durability.rs`): a server child killed on drop, one
//! framed-protocol connection, the deterministic workload and its batch
//! reference.

// Each suite uses its own subset.
#![allow(dead_code)]

use sqlts_server::frame::{read_frame, write_frame, FrameEvent};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

pub const BIN: &str = env!("CARGO_BIN_EXE_sqlts");
pub const SCHEMA: &str = "name:str,day:int,price:float";
pub const QUERY: &str = "SELECT X.name, Z.day AS day FROM quote \
                         CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) \
                         WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

/// A running `sqlts serve` process, killed on drop.
pub struct ServerGuard {
    pub child: Child,
    pub addr: String,
    /// Stdout after the `listening on` announcement, still attached: a
    /// drained server prints a final "drained" line, and a closed pipe
    /// would turn that print into an EPIPE panic.
    pub stdout: BufReader<std::process::ChildStdout>,
    /// Lines printed *before* the announcement (the recovery summary of
    /// a `--data-dir` server, the standby banner).
    pub preamble: Vec<String>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ServerGuard {
    /// Deliver `signal` (`"TERM"`, `"USR1"`, …) to the server process.
    pub fn signal(&self, signal: &str) {
        let pid = self.child.id().to_string();
        let sent = Command::new("kill")
            .args([&format!("-{signal}"), &pid])
            .status();
        assert!(sent.unwrap().success(), "kill -{signal} {pid}");
    }
}

/// Spawn `sqlts serve --listen 127.0.0.1:0 <extra>` and wait for its
/// `listening on <addr>` announcement.
pub fn spawn_server(extra: &[&str]) -> ServerGuard {
    let mut child = Command::new(BIN)
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut preamble = Vec::new();
    let addr = loop {
        let mut line = String::new();
        if stdout.read_line(&mut line).unwrap() == 0 {
            panic!("server exited before announcing; preamble: {preamble:?}");
        }
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => break addr.to_string(),
            None => preamble.push(line.trim().to_string()),
        }
    };
    ServerGuard {
        child,
        addr,
        stdout,
        preamble,
    }
}

/// One protocol connection.
pub struct Client {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Send one frame and read one reply frame.
    pub fn send(&mut self, payload: &str) -> String {
        self.send_only(payload);
        self.recv()
    }

    /// Send one frame without waiting for its reply.
    pub fn send_only(&mut self, payload: &str) {
        write_frame(&mut self.writer, payload).unwrap();
    }

    pub fn recv(&mut self) -> String {
        match read_frame(&mut self.reader, 1 << 24).unwrap() {
            FrameEvent::Payload(p) => p,
            other => panic!("expected a payload frame, got {other:?}"),
        }
    }
}

/// One `GET <path>` on the protocol port: the raw HTTP response.
pub fn http_get(addr: &str, path: &str) -> String {
    let mut http = TcpStream::connect(addr).unwrap();
    http.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        http,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    response
}

/// The value of one unlabelled sample in a `/metrics` response.
pub fn metric(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("missing {name} in:\n{exposition}"))
        .parse()
        .unwrap()
}

/// The follow-suite's deterministic zig-zag workload over two clusters.
pub fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for day in 0..120i64 {
        for (name, phase) in [("AAA", 0), ("BBB", 1)] {
            let price = 100 + ((day + phase) % 7) * 3 - ((day + phase) % 3) * 5;
            out.push(format!("{name},{day},{price}"));
        }
    }
    out
}

/// The batch-mode reference output for the same tuples.
pub fn batch_csv(rows: &[String]) -> String {
    // One file per call: the suites' tests run on parallel threads.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("sqlts-cli-batch-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!(
        "data-{}.csv",
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, format!("name,day,price\n{}\n", rows.join("\n"))).unwrap();
    let out = Command::new(BIN)
        .args(["--csv", path.to_str().unwrap(), "--schema", SCHEMA, QUERY])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// Strip a `RESULT <id> <code> ...` head and assert the expected code.
pub fn result_body(reply: &str, id: &str, code: u8) -> String {
    let (head, body) = reply.split_once('\n').unwrap();
    assert!(
        head.starts_with(&format!("RESULT {id} {code} ")),
        "unexpected result head: {head}"
    );
    body.to_string()
}
