//! The client side of the wire: frame codec, one blocking connection,
//! the `/metrics` scrape, and the server child process.
//!
//! The client is deliberately ordinary — `TcpStream` with
//! `set_nodelay(true)`, one `write_all` per request, a blocking read —
//! so it sees the latency any client would see.

use crate::trace::Tracer;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Replies larger than this are a protocol fault, not a result.
const MAX_REPLY_BYTES: u64 = 1 << 30;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Encode one frame (`LENGTH SP PAYLOAD LF`) into `out`.
pub fn encode_frame(payload: &str, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(payload.len().to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
}

/// Decode one frame; `Ok(None)` on a clean end of stream.
pub fn decode_frame(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let mut header = Vec::new();
    r.take(21).read_until(b' ', &mut header)?;
    if header.is_empty() {
        return Ok(None);
    }
    if header.pop() != Some(b' ') {
        return Err(bad("frame header has no separating space"));
    }
    let len: u64 = std::str::from_utf8(&header)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("frame length is not a number"))?;
    if len > MAX_REPLY_BYTES {
        return Err(bad("frame length exceeds the reply cap"));
    }
    let mut payload = vec![0u8; len as usize + 1];
    r.read_exact(&mut payload)?;
    if payload.pop() != Some(b'\n') {
        return Err(bad("frame check byte is not LF"));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| bad("frame payload is not UTF-8"))
}

/// One framed-protocol connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            stream,
            buf: Vec::new(),
        })
    }

    /// Write one request frame with a single `write_all`.
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        encode_frame(payload, &mut self.buf);
        self.stream.write_all(&self.buf)
    }

    /// Block until one whole reply frame has been read.
    pub fn recv(&mut self) -> io::Result<String> {
        decode_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    pub fn request(&mut self, payload: &str) -> io::Result<String> {
        self.send(payload)?;
        self.recv()
    }

    /// [`Client::request`] with `encode`/`send`/`wait` spans around its
    /// three steps; `wait` names what the reply is (`await_reply`,
    /// `read_result`).
    pub fn request_traced(
        &mut self,
        payload: &str,
        tracer: &mut Tracer,
        frame: u64,
        wait: &'static str,
    ) -> io::Result<String> {
        tracer.span("encode", frame, || encode_frame(payload, &mut self.buf));
        tracer.span("send", frame, || self.stream.write_all(&self.buf))?;
        tracer.span(wait, frame, || self.recv())
    }

    /// A second handle on the same socket, for a reader thread.
    pub fn split_reader(&self) -> io::Result<BufReader<TcpStream>> {
        Ok(BufReader::with_capacity(1 << 16, self.stream.try_clone()?))
    }
}

/// `GET /metrics` over the server's HTTP shim; returns the exposition.
pub fn scrape_metrics(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "metrics scrape did not answer 200",
        )),
    }
}

/// The value of one unlabelled series in a Prometheus exposition.
pub fn series(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let (series, value) = line.rsplit_once(' ')?;
        (series == name).then(|| value.parse().ok())?
    })
}

/// Mean of a histogram in its own unit (`_sum / _count`; 0 when empty).
pub fn histogram_mean(exposition: &str, name: &str) -> f64 {
    let sum = series(exposition, &format!("{name}_sum")).unwrap_or(0.0);
    match series(exposition, &format!("{name}_count")) {
        Some(count) if count > 0.0 => sum / count,
        _ => 0.0,
    }
}

/// A `sqlts serve` child.  Killed (SIGKILL) and reaped on drop, so no
/// exit path leaves a server behind.
pub struct ServerProc {
    child: Child,
    /// Held open for the child's lifetime: a closed stdout would turn its
    /// next `println!` into a panic.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub argv: Vec<String>,
    /// Spawn → `listening on` line read.
    pub start_ms: f64,
}

impl ServerProc {
    pub fn spawn(bin: &Path, flags: &[String]) -> io::Result<ServerProc> {
        let mut argv = vec!["serve".to_string(), "--listen".into(), "127.0.0.1:0".into()];
        argv.extend_from_slice(flags);
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(&argv)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(
                    "server exited before announcing its address",
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        argv.insert(0, bin.display().to_string());
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
            argv,
            start_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Where the `sqlts` binary sits: beside this executable (both builds
/// share one target directory).
pub fn server_binary() -> io::Result<PathBuf> {
    let bin = std::env::current_exe()?.with_file_name("sqlts");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found; build it with `cargo build --release -p sqlts-cli` \
                 into the same target directory (perfbench/run.sh does both)",
                bin.display()
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOADS: [&str; 5] = [
        "PING",
        "",
        "FEED q\nIBM,1999-01-25,55\nIBM,1999-01-26,50",
        "trailing newline\n",
        "byte-exact ✓",
    ];

    #[test]
    fn codec_round_trips_including_embedded_newlines() {
        let mut wire = Vec::new();
        let mut frame = Vec::new();
        for payload in PAYLOADS {
            encode_frame(payload, &mut frame);
            wire.extend_from_slice(&frame);
        }
        let mut r = io::BufReader::new(&wire[..]);
        for payload in PAYLOADS {
            assert_eq!(decode_frame(&mut r).unwrap().as_deref(), Some(payload));
        }
        assert_eq!(decode_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn codec_agrees_with_the_servers_in_both_directions() {
        let mut frame = Vec::new();
        for payload in PAYLOADS {
            encode_frame(payload, &mut frame);
            let mut theirs = Vec::new();
            sqlts_server::write_frame(&mut theirs, payload).unwrap();
            assert_eq!(frame, theirs, "same bytes on the wire");
            match sqlts_server::read_frame(&mut io::BufReader::new(&frame[..]), 1 << 20).unwrap() {
                sqlts_server::FrameEvent::Payload(p) => assert_eq!(p, payload),
                other => panic!("server decoder rejected a client frame: {other:?}"),
            }
            assert_eq!(
                decode_frame(&mut io::BufReader::new(&theirs[..]))
                    .unwrap()
                    .as_deref(),
                Some(payload)
            );
        }
    }

    #[test]
    fn decoder_rejects_corrupt_frames() {
        for wire in [
            &b"abc PING\n"[..],
            b"4 PINGX",
            b"99999999999999999999999 x\n",
            b"4",
        ] {
            assert!(
                decode_frame(&mut io::BufReader::new(wire)).is_err(),
                "{wire:?}"
            );
        }
        let truncated = decode_frame(&mut io::BufReader::new(&b"10 short"[..]));
        assert_eq!(truncated.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn exposition_helpers_read_counters_and_histogram_means() {
        let text = "# TYPE sqlts_server_frames_total counter\n\
                    sqlts_server_frames_total 12\n\
                    sqlts_server_fanout_micros_bucket{le=\"+Inf\"} 4\n\
                    sqlts_server_fanout_micros_sum 100\n\
                    sqlts_server_fanout_micros_count 4\n";
        assert_eq!(series(text, "sqlts_server_frames_total"), Some(12.0));
        assert_eq!(series(text, "sqlts_server_frames"), None);
        assert_eq!(histogram_mean(text, "sqlts_server_fanout_micros"), 25.0);
        assert_eq!(histogram_mean(text, "sqlts_server_fsync_micros"), 0.0);
    }
}
