//! The length-prefixed frame codec both directions of the wire protocol
//! speak.
//!
//! ```text
//! frame := LENGTH SP PAYLOAD LF
//! ```
//!
//! `LENGTH` is the payload's byte count as ASCII decimal, `PAYLOAD` is
//! UTF-8 text that may itself contain newlines (multi-line verbs such as
//! `SUBSCRIBE` and `FEED` depend on this), and the trailing LF is a frame
//! check, not a terminator — the length alone delimits the payload.
//!
//! The decoder distinguishes **recoverable** faults (a frame that is too
//! large, or not UTF-8: the payload is drained from the socket and the
//! connection keeps going, so one bad frame costs an error reply rather
//! than a disconnect) from **fatal** ones (a corrupt length header: framing
//! is lost and the connection must close).

use std::io::{self, BufRead, Read, Write};

/// Hard ceiling on the length header itself (20 digits covers `u64::MAX`);
/// anything longer is a corrupt header, not a big frame.
const MAX_HEADER_DIGITS: usize = 20;

/// One decode step's outcome when framing survived.
#[derive(Debug)]
pub enum FrameEvent {
    /// A well-formed frame's payload.
    Payload(String),
    /// The frame declared more bytes than the configured cap; the payload
    /// was read and discarded, so the stream is still in sync.
    Oversized {
        /// The declared payload length.
        len: u64,
    },
    /// The frame was well-delimited but not valid UTF-8 (fully consumed).
    BadUtf8,
    /// Clean end of stream (EOF exactly on a frame boundary).
    Eof,
}

/// A framing failure the connection cannot recover from.
#[derive(Debug)]
pub enum FrameFatal {
    /// Underlying socket error (including EOF mid-frame).
    Io(io::Error),
    /// The length header was not `digits SP`, or the frame check byte was
    /// not LF: the byte stream is no longer frame-aligned.
    Desync(String),
}

impl std::fmt::Display for FrameFatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFatal::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameFatal::Desync(why) => write!(f, "frame desync: {why}"),
        }
    }
}

impl std::error::Error for FrameFatal {}

impl From<io::Error> for FrameFatal {
    fn from(e: io::Error) -> FrameFatal {
        FrameFatal::Io(e)
    }
}

fn read_byte(r: &mut impl BufRead) -> Result<Option<u8>, FrameFatal> {
    let mut b = [0u8; 1];
    loop {
        return match r.read(&mut b) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(b[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => Err(FrameFatal::Io(e)),
        };
    }
}

/// Decode one frame.  `max_payload` caps how many payload bytes are
/// buffered; larger frames are drained and reported as
/// [`FrameEvent::Oversized`].
pub fn read_frame(r: &mut impl BufRead, max_payload: usize) -> Result<FrameEvent, FrameFatal> {
    Ok(read_frame_timed(r, max_payload)?.0)
}

/// [`read_frame`] plus the nanoseconds spent decoding, measured from the
/// *first header byte* — the idle wait for a frame to start is the
/// client's think time, not decode cost, and must not pollute the
/// server's frame-decode latency histogram.  `Eof` reports 0.
pub fn read_frame_timed(
    r: &mut impl BufRead,
    max_payload: usize,
) -> Result<(FrameEvent, u64), FrameFatal> {
    // Length header: ASCII digits up to the separating space.  EOF before
    // the first digit is a clean end of stream.
    let mut len: u64 = 0;
    let mut digits = 0usize;
    let mut started: Option<std::time::Instant> = None;
    loop {
        let b = match read_byte(r)? {
            None if digits == 0 => return Ok((FrameEvent::Eof, 0)),
            None => {
                return Err(FrameFatal::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                )))
            }
            Some(b) => b,
        };
        if started.is_none() {
            started = Some(std::time::Instant::now());
        }
        match b {
            b'0'..=b'9' => {
                digits += 1;
                if digits > MAX_HEADER_DIGITS {
                    return Err(FrameFatal::Desync("length header too long".into()));
                }
                len = len
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(u64::from(b - b'0')))
                    .ok_or_else(|| FrameFatal::Desync("length header overflows u64".into()))?;
            }
            b' ' if digits > 0 => break,
            other => {
                return Err(FrameFatal::Desync(format!(
                    "unexpected byte 0x{other:02x} in frame header"
                )))
            }
        }
    }
    let elapsed = move || started.map_or(0, |s| s.elapsed().as_nanos() as u64);
    if len > max_payload as u64 {
        // Drain payload + frame-check LF so the next frame starts clean.
        let drained = io::copy(&mut r.take(len + 1), &mut io::sink())?;
        if drained != len + 1 {
            return Err(FrameFatal::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF while draining oversized frame",
            )));
        }
        return Ok((FrameEvent::Oversized { len }, elapsed()));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    match read_byte(r)? {
        Some(b'\n') => {}
        Some(other) => {
            return Err(FrameFatal::Desync(format!(
                "frame check byte is 0x{other:02x}, not LF"
            )))
        }
        None => {
            return Err(FrameFatal::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF at frame check byte",
            )))
        }
    }
    match String::from_utf8(payload) {
        Ok(text) => Ok((FrameEvent::Payload(text), elapsed())),
        Err(_) => Ok((FrameEvent::BadUtf8, elapsed())),
    }
}

/// Encode one frame.  Header, payload and check byte leave in a single
/// `write_all`: on a `TCP_NODELAY` socket that is one segment train per
/// frame, and without it Nagle never holds a frame's tail back waiting
/// for the peer's delayed ACK of its head.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + MAX_HEADER_DIGITS + 2);
    write!(frame, "{} ", payload.len())?;
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8], max: usize) -> Vec<String> {
        let mut r = io::BufReader::new(bytes);
        let mut out = Vec::new();
        loop {
            match read_frame(&mut r, max).unwrap() {
                FrameEvent::Payload(p) => out.push(p),
                FrameEvent::Oversized { len } => out.push(format!("<oversized {len}>")),
                FrameEvent::BadUtf8 => out.push("<bad-utf8>".into()),
                FrameEvent::Eof => return out,
            }
        }
    }

    #[test]
    fn round_trips_including_embedded_newlines() {
        let mut wire = Vec::new();
        for payload in ["PING", "", "FEED q\nIBM,1,50\nIBM,2,49", "byte-exact ✓"] {
            write_frame(&mut wire, payload).unwrap();
        }
        assert_eq!(
            decode_all(&wire, 1 << 20),
            vec!["PING", "", "FEED q\nIBM,1,50\nIBM,2,49", "byte-exact ✓"]
        );
    }

    /// Counts `write` calls and accepts each whole, the way a socket with
    /// buffer space does.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_exactly_one_write() {
        let payloads = ["PING", "", "FEED q\nIBM,1,50\nIBM,2,49", "byte-exact ✓"];
        let mut w = CountingWriter {
            bytes: Vec::new(),
            writes: 0,
        };
        for (sent, payload) in payloads.iter().enumerate() {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, sent + 1, "frame {payload:?} took extra writes");
        }
        assert_eq!(decode_all(&w.bytes, 1 << 20), payloads);
    }

    #[test]
    fn oversized_frame_is_drained_and_stream_stays_in_sync() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &"x".repeat(100)).unwrap();
        write_frame(&mut wire, "PING").unwrap();
        assert_eq!(decode_all(&wire, 16), vec!["<oversized 100>", "PING"]);
    }

    #[test]
    fn bad_utf8_is_recoverable() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"3 \xff\xfe\xfd\n");
        write_frame(&mut wire, "PING").unwrap();
        assert_eq!(decode_all(&wire, 1 << 20), vec!["<bad-utf8>", "PING"]);
    }

    #[test]
    fn header_corruption_is_fatal() {
        for wire in [&b"abc PING\n"[..], b"4x PING\n", b"4 PINGX"] {
            let mut r = io::BufReader::new(wire);
            match read_frame(&mut r, 1 << 20) {
                Err(FrameFatal::Desync(_)) => {}
                other => panic!("expected desync for {wire:?}, got {other:?}"),
            }
        }
        // A huge header that would overflow u64 is desync, not a panic.
        let mut r = io::BufReader::new(&b"99999999999999999999999 x\n"[..]);
        assert!(matches!(
            read_frame(&mut r, 1 << 20),
            Err(FrameFatal::Desync(_))
        ));
    }

    #[test]
    fn timed_decode_reports_duration_and_zero_at_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "PING").unwrap();
        let mut r = io::BufReader::new(&wire[..]);
        let (event, ns) = read_frame_timed(&mut r, 1 << 20).unwrap();
        assert!(matches!(event, FrameEvent::Payload(p) if p == "PING"));
        assert!(ns < 1_000_000_000, "in-memory decode took {ns}ns");
        let (event, ns) = read_frame_timed(&mut r, 1 << 20).unwrap();
        assert!(matches!(event, FrameEvent::Eof));
        assert_eq!(ns, 0, "EOF charges no decode time");
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut r = io::BufReader::new(&b"10 short"[..]);
        assert!(matches!(
            read_frame(&mut r, 1 << 20),
            Err(FrameFatal::Io(_))
        ));
    }
}
