//! Structured span log: begin/end records with monotonic timestamps,
//! parent ids and key=value fields, written as JSON-lines.
//!
//! The rest of `sqlts-trace` is inert — recorders that never read a
//! clock so merged profiles are reproducible.  A *span log* is the
//! documented exception: it exists precisely to answer "where did wall
//! time go on this server, in order", so an armed [`SpanLog`] reads the
//! process monotonic clock ([`Instant`]) on every record.  The
//! discipline the rest of the crate follows still applies at the
//! call sites: an unarmed server holds no `SpanLog` at all, so the hot
//! path pays one predictable `if let Some(..)` branch and query output
//! is bit-identical armed or not (spans observe, never steer).
//!
//! # Record shape
//!
//! Every record carries a kind (`"b"` span begin, `"e"` span end,
//! `"ev"` instantaneous event), a monotonic timestamp in nanoseconds
//! since the log was opened, a level, a name, and flat string
//! key=value fields.  Begin records also carry the fresh span `id` and
//! the `parent` id (0 = root).  JSON form, one object per line:
//!
//! ```text
//! {"ts":10250,"k":"b","lvl":"debug","name":"wal_append","id":7,"parent":3,"channel":"nyse"}
//! {"ts":91833,"k":"e","lvl":"debug","name":"wal_append","id":7}
//! {"ts":95001,"k":"ev","lvl":"warn","name":"slow_frame","ms":"125"}
//! ```
//!
//! The begin and end of a span share one `id`, so an offline reader
//! (`sqlts trace-agg`) can rebuild the tree and charge each span its
//! self time.  Filtering happens at [`SpanLog::begin`]: a span below
//! the configured level returns id 0, and [`SpanLog::end`] of id 0 is
//! a no-op — begin/end stay balanced *per file* at every level.
//!
//! # Rotation
//!
//! The log is append-only (crash-tolerant by construction: a torn last
//! line is detectable and every earlier line is intact — same argument
//! as the server WAL).  When a write pushes the file past the
//! configured rotation size the current file is renamed to `<path>.1`
//! (replacing any previous rotation) and a fresh file is started, so a
//! long-running server holds at most two generations on disk.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::profile::json_escape;

/// Severity of a span or event, ordered from most to least severe.
///
/// A [`SpanLog`] configured at `Info` writes `Error`, `Warn` and
/// `Info` records and filters `Debug` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable trouble: I/O failures, poisoned channels.
    Error,
    /// Degraded operation worth paging on: governor trips, quarantines,
    /// slow frames, drain and recovery transitions.
    Warn,
    /// Lifecycle landmarks: accepts, subscriptions, checkpoints.
    Info,
    /// Hot-path spans: frame decode, WAL append, fsync, fan-out.
    Debug,
}

impl Level {
    /// The lowercase wire name (`"error"`, `"warn"`, `"info"`,
    /// `"debug"`), used both in records and on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a command-line level name.  Returns `None` for anything
    /// that is not exactly one of the four wire names.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything guarded by the writer lock: the open file, its current
/// size, and the rotation bookkeeping.
struct LogInner {
    file: File,
    path: PathBuf,
    bytes: u64,
    rotate_bytes: u64,
}

/// A thread-safe structured span log.
///
/// Shared by `Arc` across every server thread; each record formats its
/// line outside the lock and holds the writer mutex only for the
/// append (and the occasional rotation).  Span ids come from a single
/// process-wide counter so they are unique across threads without
/// coordination beyond one `fetch_add`.
pub struct SpanLog {
    inner: Mutex<LogInner>,
    level: Level,
    epoch: Instant,
    next_id: AtomicU64,
}

impl SpanLog {
    /// Open (appending) or create the log file at `path`.
    ///
    /// `rotate_bytes` of 0 disables rotation.  The epoch for record
    /// timestamps is the moment of this call.
    pub fn open(path: &Path, level: Level, rotate_bytes: u64) -> io::Result<SpanLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(SpanLog {
            inner: Mutex::new(LogInner {
                file,
                path: path.to_path_buf(),
                bytes,
                rotate_bytes,
            }),
            level,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
        })
    }

    /// The configured filter level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Nanoseconds since the log was opened (the `ts` of a record
    /// written now).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Would a record at `level` be written?
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// Begin a span.  Returns the fresh span id, or 0 if `level` is
    /// filtered out (pass 0 straight back to [`SpanLog::end`]; it is a
    /// no-op).  `parent` is the enclosing span's id, 0 for a root.
    pub fn begin(&self, level: Level, name: &str, parent: u64, fields: &[(&str, &str)]) -> u64 {
        if !self.enabled(level) {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.write_record(level, "b", name, Some((id, parent)), fields);
        id
    }

    /// End the span `id` begun at `level`.  A 0 id (filtered begin) is
    /// ignored, so callers never re-check the level on the way out.
    pub fn end(&self, level: Level, name: &str, id: u64, fields: &[(&str, &str)]) {
        if id == 0 || !self.enabled(level) {
            return;
        }
        self.write_record(level, "e", name, Some((id, u64::MAX)), fields);
    }

    /// Record an instantaneous event (no duration, no id).
    pub fn event(&self, level: Level, name: &str, fields: &[(&str, &str)]) {
        if !self.enabled(level) {
            return;
        }
        self.write_record(level, "ev", name, None, fields);
    }

    /// Format one record and append it under the writer lock, rotating
    /// first if the previous write crossed the size threshold.  Write
    /// errors are swallowed: a full disk must degrade observability,
    /// never the queries being observed.
    fn write_record(
        &self,
        level: Level,
        kind: &str,
        name: &str,
        ids: Option<(u64, u64)>,
        fields: &[(&str, &str)],
    ) {
        let ts = self.now_ns();
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts\":");
        line.push_str(&ts.to_string());
        line.push_str(",\"k\":\"");
        line.push_str(kind);
        line.push_str("\",\"lvl\":\"");
        line.push_str(level.as_str());
        line.push_str("\",\"name\":\"");
        json_escape(name, &mut line);
        line.push('"');
        if let Some((id, parent)) = ids {
            line.push_str(",\"id\":");
            line.push_str(&id.to_string());
            if parent != u64::MAX {
                line.push_str(",\"parent\":");
                line.push_str(&parent.to_string());
            }
        }
        for (k, v) in fields {
            line.push_str(",\"");
            json_escape(k, &mut line);
            line.push_str("\":\"");
            json_escape(v, &mut line);
            line.push('"');
        }
        line.push_str("}\n");
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner.rotate_bytes > 0 && inner.bytes >= inner.rotate_bytes {
            let _ = rotate(&mut inner);
        }
        if inner.file.write_all(line.as_bytes()).is_ok() {
            inner.bytes += line.len() as u64;
        }
    }

    /// Flush buffered OS state (the log writes through an unbuffered
    /// `File`, so this is a plain `flush` for symmetry, not an fsync —
    /// the span log is diagnostics, not durability-critical state).
    pub fn flush(&self) {
        if let Ok(mut inner) = self.inner.lock() {
            let _ = inner.file.flush();
        }
    }
}

/// Rename the live file to `<path>.1` (replacing any previous
/// generation) and start a fresh one.  On failure the current file is
/// kept and writing continues — rotation is best-effort.
fn rotate(inner: &mut LogInner) -> io::Result<()> {
    let mut rotated = inner.path.clone().into_os_string();
    rotated.push(".1");
    std::fs::rename(&inner.path, &rotated)?;
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&inner.path)?;
    inner.file = file;
    inner.bytes = 0;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlts-span-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = fs::remove_file(&p);
        let mut rotated = p.clone().into_os_string();
        rotated.push(".1");
        let _ = fs::remove_file(PathBuf::from(rotated));
        p
    }

    #[test]
    fn level_ordering_and_round_trip() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn json_records_carry_ids_fields_and_balance() {
        let path = temp_path("basic.jsonl");
        let log = SpanLog::open(&path, Level::Debug, 0).unwrap();
        let root = log.begin(Level::Info, "dispatch", 0, &[("verb", "FEED")]);
        assert_ne!(root, 0);
        let child = log.begin(Level::Debug, "wal_append", root, &[("channel", "nyse")]);
        assert_ne!(child, 0);
        log.end(Level::Debug, "wal_append", child, &[("bytes", "512")]);
        log.event(Level::Warn, "slow_frame", &[("ms", "125")]);
        log.end(Level::Info, "dispatch", root, &[]);
        drop(log);

        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"k\":\"b\"") && lines[0].contains("\"name\":\"dispatch\""));
        assert!(lines[0].contains("\"parent\":0") && lines[0].contains("\"verb\":\"FEED\""));
        assert!(lines[1].contains(&format!("\"id\":{child},\"parent\":{root}")));
        assert!(lines[2].contains("\"k\":\"e\"") && lines[2].contains("\"bytes\":\"512\""));
        assert!(!lines[2].contains("parent"), "end records carry no parent");
        assert!(lines[3].contains("\"k\":\"ev\"") && lines[3].contains("\"lvl\":\"warn\""));
        assert!(lines[4].contains("\"k\":\"e\"") && lines[4].contains(&format!("\"id\":{root}")));
        // Timestamps are monotone non-decreasing down the file.
        let mut last = 0u64;
        for line in &lines {
            let ts: u64 = line
                .split("\"ts\":")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(ts >= last);
            last = ts;
        }
    }

    #[test]
    fn level_filter_returns_zero_id_and_writes_nothing() {
        let path = temp_path("filter.jsonl");
        let log = SpanLog::open(&path, Level::Warn, 0).unwrap();
        let id = log.begin(Level::Debug, "wal_append", 0, &[]);
        assert_eq!(id, 0, "filtered begin returns the sentinel id");
        log.end(Level::Debug, "wal_append", id, &[]); // must be a no-op
        log.event(Level::Info, "accept", &[]);
        log.event(Level::Warn, "governor_trip", &[("cause", "budget")]);
        drop(log);
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "only the warn event is written");
        assert!(text.contains("governor_trip"));
    }

    #[test]
    fn fields_are_json_escaped() {
        let path = temp_path("escape.jsonl");
        let log = SpanLog::open(&path, Level::Debug, 0).unwrap();
        log.event(Level::Info, "open", &[("channel", "a\"b\\c\nd")]);
        drop(log);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"channel\":\"a\\\"b\\\\c\\nd\""));
        assert_eq!(
            text.lines().count(),
            1,
            "escaped newline must not split the line"
        );
    }

    #[test]
    fn rotation_renames_to_dot_one_and_restarts() {
        let path = temp_path("rotate.jsonl");
        // Sized so the 32 records (~55 bytes each) cross the threshold
        // exactly once: one rotation, nothing lost.
        let log = SpanLog::open(&path, Level::Debug, 1024).unwrap();
        for i in 0..32 {
            log.event(Level::Info, "tick", &[("i", &i.to_string())]);
        }
        drop(log);
        let mut rotated = path.clone().into_os_string();
        rotated.push(".1");
        let rotated = PathBuf::from(rotated);
        assert!(rotated.exists(), "rotation must have produced <path>.1");
        let live = fs::read_to_string(&path).unwrap();
        let old = fs::read_to_string(&rotated).unwrap();
        assert!(fs::metadata(&rotated).unwrap().len() >= 1024);
        // No record is lost or torn across the single rotation boundary.
        let total = live.lines().count() + old.lines().count();
        assert_eq!(total, 32, "all records accounted for");
        for line in live.lines().chain(old.lines()) {
            assert!(line.starts_with("{\"ts\":") && line.ends_with('}'));
        }
    }

    #[test]
    fn reopen_appends_and_ids_restart_safely() {
        let path = temp_path("reopen.jsonl");
        {
            let log = SpanLog::open(&path, Level::Info, 0).unwrap();
            let id = log.begin(Level::Info, "session", 0, &[]);
            log.end(Level::Info, "session", id, &[]);
        }
        {
            let log = SpanLog::open(&path, Level::Info, 0).unwrap();
            log.event(Level::Info, "recovered", &[]);
        }
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().count(),
            3,
            "second open appended, not truncated"
        );
    }
}
