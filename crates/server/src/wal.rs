//! The per-channel write-ahead log behind `--data-dir`.
//!
//! Every accepted `FEED` frame is appended here *before* it fans out to
//! subscribers, so a crash can lose at most work that was never
//! acknowledged.  The log is **segmented**: a channel named `q` owns a
//! family of files `q.wal.0`, `q.wal.1`, … (the path passed to
//! [`ChannelWal`] is the *prefix*; the numeric suffix is the segment
//! sequence number).  Each segment is self-describing:
//!
//! ```text
//! segment := "sqlts-wal v1 base=<N> crc=<8 hex>\n" record*
//! record  := start:u64le len:u32le nrows:u32le crc:u32le payload[len]
//! ```
//!
//! `base` is the channel row ordinal of the segment's first record, and
//! consecutive segments must be contiguous: segment *k+1*'s base equals
//! segment *k*'s last ordinal.  Each record carries the ordinal of its
//! first row, its payload byte length, its row count, and a CRC-32 over
//! header fields and payload together.  Records must be contiguous
//! within a segment too, so any torn tail, flipped byte, or appended
//! garbage is caught at the first record it damages: the scan keeps the
//! longest valid prefix *across segments*, reports what it dropped, and
//! [`ChannelWal::open`] truncates the damaged segment back to that
//! prefix and unlinks every later segment so subsequent appends produce
//! a clean log again.  A torn tail can therefore only ever be repaired
//! in the *newest* surviving segment — older segments are either kept
//! whole or unlinked whole.
//!
//! Segmentation buys two things.  Low-water-mark truncation
//! ([`ChannelWal::truncate_below`]) becomes a file unlink — it never
//! rewrites a byte.  And replication resync becomes "send the segments
//! at or above the standby's acknowledged ordinal"
//! ([`read_frames_from`] skips whole segments by their header base
//! without reading their records).
//!
//! Appends never sync.  Under `Group` (`every` is its zero window) a
//! FEED's reply waits until one `fsync(2)` covers its rows, run off the
//! channel lock (see [`GroupCommit`]); `Off` leaves flushing to the OS
//! (still survives a process crash — the page cache belongs to the
//! kernel, not the process).

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// When to fsync the WAL file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Group commit: a FEED is acknowledged once an fsync covering its
    /// rows has finished (survives power loss).  The batch leader waits
    /// `window_us` so concurrent FEEDs share its fsync; `every` is 0.
    Group {
        /// Batch-collection window in microseconds.
        window_us: u32,
    },
    /// Never fsync; the OS flushes when it pleases.  Still crash-safe
    /// against a killed *process* — only the machine dying can lose
    /// acknowledged frames.
    Off,
}

/// Group-commit window when `--fsync group` is given without `:us`.
pub const DEFAULT_GROUP_WINDOW_US: u32 = 500;

/// Segment roll threshold when the server does not override it.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

impl std::str::FromStr for FsyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "every" => Ok(FsyncPolicy::Group { window_us: 0 }),
            "off" => Ok(FsyncPolicy::Off),
            "group" => Ok(FsyncPolicy::Group {
                window_us: DEFAULT_GROUP_WINDOW_US,
            }),
            other => {
                if let Some(us) = other.strip_prefix("group:") {
                    let window_us: u32 = us
                        .parse()
                        .map_err(|_| format!("bad group window '{us}' (want microseconds)"))?;
                    return Ok(FsyncPolicy::Group { window_us });
                }
                Err(format!(
                    "unknown fsync policy '{other}' (want every|group[:us]|off)"
                ))
            }
        }
    }
}

/// A WAL failure: real I/O, or a file that is not a WAL at all.  Record
/// -level corruption is *not* an error — the scan tolerates it by
/// keeping the longest valid prefix.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The first segment's header is not a valid `sqlts-wal v1` header —
    /// nothing in the log can be trusted (not even the base ordinal) — or
    /// the prefix holds a bare file instead of numbered segments.
    Malformed(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::Malformed(why) => write!(f, "malformed wal: {why}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

// CRC-32 (IEEE 802.3), table built at compile time — zero dependencies.
const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

fn crc_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 of `bytes` (IEEE, the zlib/`cksum -o 3` polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(0xFFFF_FFFF, bytes)
}

const RECORD_HEADER_LEN: usize = 20;
/// Anything above this is a corrupt length field, not a real frame — the
/// server's own frame limit is far below it.
const MAX_RECORD_PAYLOAD: u32 = 1 << 28;

fn header_line(base: u64) -> String {
    let body = format!("base={base}");
    format!("sqlts-wal v1 {body} crc={:08x}\n", crc32(body.as_bytes()))
}

fn parse_header(bytes: &[u8]) -> Result<(u64, usize), WalError> {
    let nl = bytes
        .iter()
        .take(128)
        .position(|&b| b == b'\n')
        .ok_or_else(|| WalError::Malformed("missing header line".into()))?;
    let line = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| WalError::Malformed("header is not UTF-8".into()))?;
    let rest = line
        .strip_prefix("sqlts-wal v1 ")
        .ok_or_else(|| WalError::Malformed(format!("bad magic in header '{line}'")))?;
    let (body, crc_part) = rest
        .rsplit_once(' ')
        .ok_or_else(|| WalError::Malformed("header missing crc field".into()))?;
    let crc: u32 = crc_part
        .strip_prefix("crc=")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| WalError::Malformed("unparsable header crc".into()))?;
    if crc != crc32(body.as_bytes()) {
        return Err(WalError::Malformed("header crc mismatch".into()));
    }
    let base: u64 = body
        .strip_prefix("base=")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| WalError::Malformed("unparsable header base".into()))?;
    Ok((base, nl + 1))
}

/// The path of segment `seq` of the WAL at `prefix` (`q.wal` → `q.wal.3`).
pub fn segment_path(prefix: &Path, seq: u64) -> PathBuf {
    let mut name = prefix
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("wal"), std::ffi::OsString::from);
    name.push(format!(".{seq}"));
    prefix.with_file_name(name)
}

/// Every on-disk segment of the WAL at `prefix`, sorted by sequence
/// number.  Empty when no segment file exists yet.
fn list_segments(prefix: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let parent = prefix.parent().filter(|p| !p.as_os_str().is_empty());
    let dir = parent.unwrap_or_else(|| Path::new("."));
    let Some(stem) = prefix.file_name().and_then(|n| n.to_str()) else {
        return Ok(Vec::new());
    };
    let mut segs = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(suffix) = name
                    .strip_prefix(stem)
                    .and_then(|rest| rest.strip_prefix('.'))
                else {
                    continue;
                };
                if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                    if let Ok(seq) = suffix.parse::<u64>() {
                        segs.push((seq, entry.path()));
                    }
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    segs.sort_by_key(|(seq, _)| *seq);
    Ok(segs)
}

/// One validated WAL record: `nrows` CSV rows starting at channel row
/// ordinal `start`, stored as the newline-joined row lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalFrame {
    /// Channel row ordinal of the first row in this frame.
    pub start: u64,
    /// Rows in the payload.
    pub nrows: u32,
    /// The newline-joined CSV row lines exactly as fed.
    pub payload: String,
}

impl WalFrame {
    /// Ordinal one past this frame's last row.
    pub fn end(&self) -> u64 {
        self.start + u64::from(self.nrows)
    }
}

/// One retained segment, as reported by [`scan_wal`].
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    /// Segment sequence number (the numeric file suffix).
    pub seq: u64,
    /// Row ordinal of the segment's first record.
    pub base: u64,
    /// Row ordinal one past the segment's last *valid* record.
    pub rows_end: u64,
    /// The segment file.
    pub path: PathBuf,
}

/// The result of scanning a segmented WAL tolerantly.
#[derive(Debug)]
pub struct WalScan {
    /// The base ordinal of the oldest retained segment.
    pub base: u64,
    /// Every record in the longest valid prefix, in order, across all
    /// retained segments.
    pub frames: Vec<WalFrame>,
    /// Row ordinal one past the last valid record (== `base` when empty).
    pub rows_total: u64,
    /// Total byte length of the valid prefix (headers + whole records,
    /// summed over retained segments).
    pub valid_len: u64,
    /// Bytes after the valid prefix that the scan discarded (torn tails
    /// plus whole later segments dropped after a mid-log break).
    pub dropped_bytes: u64,
    /// Why the scan stopped early, when it did.
    pub corruption: Option<String>,
    /// The retained segments, oldest first; never empty.
    pub segments: Vec<SegmentInfo>,
}

fn scan_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    let (base, header_len) = parse_header(bytes)?;
    let mut frames = Vec::new();
    let mut offset = header_len;
    let mut expected = base;
    let mut corruption = None;
    while offset < bytes.len() {
        let remaining = &bytes[offset..];
        if remaining.len() < RECORD_HEADER_LEN {
            corruption = Some(format!("torn record header at byte {offset}"));
            break;
        }
        let start = u64::from_le_bytes(remaining[0..8].try_into().expect("8-byte slice"));
        let len = u32::from_le_bytes(remaining[8..12].try_into().expect("4-byte slice"));
        let nrows = u32::from_le_bytes(remaining[12..16].try_into().expect("4-byte slice"));
        let crc = u32::from_le_bytes(remaining[16..20].try_into().expect("4-byte slice"));
        if len > MAX_RECORD_PAYLOAD {
            corruption = Some(format!("implausible record length {len} at byte {offset}"));
            break;
        }
        let total = RECORD_HEADER_LEN + len as usize;
        if remaining.len() < total {
            corruption = Some(format!("torn record payload at byte {offset}"));
            break;
        }
        let payload = &remaining[RECORD_HEADER_LEN..total];
        let mut state = crc_update(0xFFFF_FFFF, &remaining[0..16]);
        state = crc_update(state, payload);
        if !state != crc {
            corruption = Some(format!("record crc mismatch at byte {offset}"));
            break;
        }
        if start != expected {
            corruption = Some(format!(
                "non-contiguous record at byte {offset}: start {start}, expected {expected}"
            ));
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            corruption = Some(format!("non-UTF-8 record payload at byte {offset}"));
            break;
        };
        if nrows == 0 || text.lines().count() != nrows as usize {
            corruption = Some(format!("row-count mismatch in record at byte {offset}"));
            break;
        }
        frames.push(WalFrame {
            start,
            nrows,
            payload: text.to_string(),
        });
        expected += u64::from(nrows);
        offset += total;
    }
    Ok(WalScan {
        base,
        rows_total: expected,
        frames,
        valid_len: offset as u64,
        dropped_bytes: (bytes.len() - offset) as u64,
        corruption,
        segments: Vec::new(),
    })
}

/// Scan the segmented WAL at `prefix` tolerantly: return the longest
/// valid record prefix across segments plus a report of anything
/// dropped.  Corruption inside a segment keeps that segment's valid
/// prefix and drops every later segment (they can no longer be
/// contiguous); a torn tail is therefore only ever *repairable* in the
/// newest surviving segment.  Only a missing log, a bare file at
/// `prefix` or an untrustworthy header on the *first* segment is an error.
pub fn scan_wal(prefix: &Path) -> Result<WalScan, WalError> {
    let segs = list_segments(prefix)?;
    if segs.is_empty() {
        return Err(no_segments(prefix));
    }
    let mut merged: Option<WalScan> = None;
    let mut broke_at: Option<usize> = None;
    for (idx, (seq, path)) in segs.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let seg_scan = match scan_bytes(&bytes) {
            Ok(s) => s,
            Err(WalError::Io(e)) => return Err(WalError::Io(e)),
            Err(WalError::Malformed(why)) => {
                if merged.is_none() {
                    // Nothing valid precedes it: the whole log is
                    // untrustworthy.
                    return Err(WalError::Malformed(why));
                }
                let out = merged.as_mut().expect("checked above");
                out.dropped_bytes += bytes.len() as u64;
                out.corruption = Some(format!("segment {seq} header: {why}"));
                broke_at = Some(idx);
                break;
            }
        };
        match merged.as_mut() {
            None => {
                let mut out = seg_scan;
                out.segments.push(SegmentInfo {
                    seq: *seq,
                    base: out.base,
                    rows_end: out.rows_total,
                    path: path.clone(),
                });
                let broken = out.corruption.is_some();
                merged = Some(out);
                if broken {
                    broke_at = Some(idx);
                    break;
                }
            }
            Some(out) => {
                if seg_scan.base != out.rows_total {
                    out.dropped_bytes += bytes.len() as u64;
                    out.corruption = Some(format!(
                        "segment {seq} base {} does not continue from {}",
                        seg_scan.base, out.rows_total
                    ));
                    broke_at = Some(idx);
                    break;
                }
                out.frames.extend(seg_scan.frames);
                out.rows_total = seg_scan.rows_total;
                out.valid_len += seg_scan.valid_len;
                out.dropped_bytes += seg_scan.dropped_bytes;
                out.segments.push(SegmentInfo {
                    seq: *seq,
                    base: seg_scan.base,
                    rows_end: seg_scan.rows_total,
                    path: path.clone(),
                });
                if seg_scan.corruption.is_some() {
                    out.corruption = seg_scan.corruption;
                    broke_at = Some(idx);
                    break;
                }
            }
        }
    }
    let mut out = merged.expect("at least one segment scanned");
    if let Some(broke) = broke_at {
        // Everything after the break can no longer be contiguous: count
        // the later segments as dropped whole.
        for (_, path) in &segs[broke + 1..] {
            out.dropped_bytes += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        }
    }
    Ok(out)
}

/// Why a WAL with no numbered segment cannot be read.  A bare file at
/// `prefix` is refused, never taken for an empty log: whatever wrote it
/// was not this segmented format, and starting a fresh segment 0 beside
/// it would silently shadow its rows.
fn no_segments(prefix: &Path) -> WalError {
    if prefix.exists() {
        WalError::Malformed(format!(
            "'{}' is a bare file, not a segmented log (expected '{}')",
            prefix.display(),
            segment_path(prefix, 0).display()
        ))
    } else {
        WalError::Io(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no wal segments at '{}'", prefix.display()),
        ))
    }
}

/// Read every frame whose rows extend past `from` (a row ordinal),
/// skipping whole segments below it by header base alone — the
/// replication resync path ("send segments ≥ the standby's acked
/// ordinal") never deserializes records the standby already has, except
/// in the one segment that straddles the ordinal.
pub fn read_frames_from(prefix: &Path, from: u64) -> Result<Vec<WalFrame>, WalError> {
    let segs = list_segments(prefix)?;
    if segs.is_empty() {
        return Err(no_segments(prefix));
    }
    // Header bases, read without touching record bytes.
    let mut bases = Vec::with_capacity(segs.len());
    for (_, path) in &segs {
        let mut head = [0u8; 128];
        let mut file = File::open(path)?;
        let mut filled = 0;
        while filled < head.len() {
            let n = file.read(&mut head[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        let (base, _) = parse_header(&head[..filled])?;
        bases.push(base);
    }
    // The last segment whose base is ≤ `from` may straddle the ordinal;
    // everything before it is entirely below and skipped unread.
    let start_idx = bases.iter().rposition(|&b| b <= from).unwrap_or(0);
    let mut frames = Vec::new();
    for (idx, (_, path)) in segs.iter().enumerate().skip(start_idx) {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let seg_scan = scan_bytes(&bytes)?;
        if idx > start_idx
            && frames.last().map(WalFrame::end) != Some(seg_scan.base)
            && !frames.is_empty()
        {
            break; // non-contiguous tail: stop at the longest valid prefix
        }
        frames.extend(seg_scan.frames.into_iter().filter(|f| f.end() > from));
        if seg_scan.corruption.is_some() {
            break;
        }
    }
    Ok(frames)
}

/// An open, append-ready segmented WAL for one channel.  `prefix` is the
/// path *stem*; segment files live at `<prefix>.<seq>`.
#[derive(Debug)]
pub struct ChannelWal {
    prefix: PathBuf,
    /// The active (highest-sequence) segment, opened for append; shared
    /// with any [`WalFlush`] still syncing it.
    file: Arc<File>,
    active_seq: u64,
    active_base: u64,
    active_bytes: u64,
    /// Older retained segments as `(seq, base)`, oldest first.  A closed
    /// segment's end ordinal is the next entry's base (or the active
    /// segment's base for the last one).
    closed: Vec<(u64, u64)>,
    base: u64,
    rows_total: u64,
    policy: FsyncPolicy,
    segment_bytes: u64,
}

fn sync_dir_of(path: &Path) -> io::Result<()> {
    // Best-effort: persist the directory entry (some filesystems refuse
    // to fsync directories).
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

impl ChannelWal {
    /// Create a fresh WAL starting at row ordinal 0 (segment `.0`).
    pub fn create(prefix: &Path, policy: FsyncPolicy) -> Result<ChannelWal, WalError> {
        let seg0 = segment_path(prefix, 0);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&seg0)?;
        let header = header_line(0);
        file.write_all(header.as_bytes())?;
        file.sync_all()?;
        sync_dir_of(&seg0)?;
        Ok(ChannelWal {
            prefix: prefix.to_path_buf(),
            file: Arc::new(file),
            active_seq: 0,
            active_base: 0,
            active_bytes: header.len() as u64,
            closed: Vec::new(),
            base: 0,
            rows_total: 0,
            policy,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        })
    }

    /// Open an existing WAL (or create a fresh one): scan it tolerantly,
    /// repair any torn/corrupt tail — truncating the damaged segment to
    /// its valid prefix and unlinking every later segment — so appends
    /// continue from the last valid record, and return the surviving
    /// frames for replay.  A bare file at `prefix` is refused
    /// ([`WalError::Malformed`]).
    pub fn open(prefix: &Path, policy: FsyncPolicy) -> Result<(ChannelWal, WalScan), WalError> {
        if list_segments(prefix)?.is_empty() {
            if prefix.exists() {
                return Err(no_segments(prefix));
            }
            let wal = ChannelWal::create(prefix, policy)?;
            return Ok((
                wal,
                WalScan {
                    base: 0,
                    frames: Vec::new(),
                    rows_total: 0,
                    valid_len: header_line(0).len() as u64,
                    dropped_bytes: 0,
                    corruption: None,
                    segments: vec![SegmentInfo {
                        seq: 0,
                        base: 0,
                        rows_end: 0,
                        path: segment_path(prefix, 0),
                    }],
                },
            ));
        }
        let scan = scan_wal(prefix)?;
        let retained = &scan.segments;
        let last = retained.last().expect("scan keeps at least one segment");
        // Unlink segments past the longest valid prefix (they can no
        // longer be contiguous with it).
        for (seq, path) in list_segments(prefix)? {
            if seq > last.seq {
                fs::remove_file(&path)?;
            }
        }
        // Truncate the newest surviving segment back to its valid bytes.
        let mut file = OpenOptions::new().read(true).write(true).open(&last.path)?;
        let earlier_valid: u64 = retained[..retained.len() - 1]
            .iter()
            .map(|s| fs::metadata(&s.path).map(|m| m.len()).unwrap_or(0))
            .sum();
        let last_valid = scan.valid_len - earlier_valid;
        if file.metadata()?.len() != last_valid {
            file.set_len(last_valid)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let active_bytes = last_valid;
        Ok((
            ChannelWal {
                prefix: prefix.to_path_buf(),
                file: Arc::new(file),
                active_seq: last.seq,
                active_base: last.base,
                active_bytes,
                closed: retained[..retained.len() - 1]
                    .iter()
                    .map(|s| (s.seq, s.base))
                    .collect(),
                base: scan.base,
                rows_total: scan.rows_total,
                policy,
                segment_bytes: DEFAULT_SEGMENT_BYTES,
            },
            scan,
        ))
    }

    /// Override the segment roll threshold (bytes of records per segment
    /// before a new one is started).  Values below 1 are clamped to 1.
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes.max(1);
    }

    /// Row ordinal one past the last appended row.
    pub fn rows_total(&self) -> u64 {
        self.rows_total
    }

    /// Close the active segment and start `<prefix>.<seq+1>`.  The old
    /// segment is fsynced first (except under `Off`) so the cross-segment
    /// contiguity invariant survives power loss.  Returns the fsync's
    /// nanoseconds.
    fn roll(&mut self) -> Result<u64, WalError> {
        let fsync_ns = match self.policy {
            FsyncPolicy::Off => 0,
            FsyncPolicy::Group { .. } => self.sync()?,
        };
        let next_seq = self.active_seq + 1;
        let next_path = segment_path(&self.prefix, next_seq);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&next_path)?;
        let header = header_line(self.rows_total);
        file.write_all(header.as_bytes())?;
        if self.policy != FsyncPolicy::Off {
            file.sync_all()?;
        }
        sync_dir_of(&next_path)?;
        self.closed.push((self.active_seq, self.active_base));
        self.file = Arc::new(file);
        self.active_seq = next_seq;
        self.active_base = self.rows_total;
        self.active_bytes = header.len() as u64;
        Ok(fsync_ns)
    }

    /// Append one frame of `nrows` rows (the newline-joined row lines).
    /// Never syncs the record (a [`WalFlush`] does).  A roll first syncs
    /// the segment it closes, so every row below the active segment is on
    /// disk; returns that fsync's nanoseconds (0 without a roll).
    ///
    /// On error nothing must be trusted past the previous record — the
    /// caller should fail the FEED without fanning out (recovery will
    /// truncate the torn tail).
    pub fn append(&mut self, payload: &str, nrows: u32) -> Result<u64, WalError> {
        #[cfg(feature = "failpoints")]
        if let Some(sqlts_relation::failpoints::Injected::InjectError) =
            sqlts_relation::failpoints::hit("wal::append", self.rows_total)
        {
            return Err(WalError::Io(io::Error::other(
                "failpoint 'wal::append' injected error",
            )));
        }
        if nrows == 0 {
            return Err(WalError::Malformed(
                "refusing to append an empty frame".into(),
            ));
        }
        let mut fsync_ns = 0;
        if self.active_bytes >= self.segment_bytes && self.rows_total > self.active_base {
            fsync_ns = self.roll()?;
        }
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        record.extend_from_slice(&self.rows_total.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&nrows.to_le_bytes());
        let mut crc = crc_update(0xFFFF_FFFF, &record);
        crc = crc_update(crc, payload.as_bytes());
        record.extend_from_slice(&(!crc).to_le_bytes());
        record.extend_from_slice(payload.as_bytes());
        (&*self.file).write_all(&record)?;
        self.rows_total += u64::from(nrows);
        self.active_bytes += record.len() as u64;
        Ok(fsync_ns)
    }

    /// fsync the active segment now, regardless of policy, and return the
    /// nanoseconds it took.  (Closed segments were synced when they rolled.)
    pub fn sync(&mut self) -> Result<u64, WalError> {
        self.flusher().sync().map(|(_, fsync_ns)| fsync_ns)
    }

    /// The active segment and its row count, to sync off the WAL's lock.
    pub fn flusher(&self) -> WalFlush {
        WalFlush {
            file: Arc::clone(&self.file),
            rows: self.rows_total,
        }
    }

    /// Drop every *closed segment* that lies entirely below `low_water`
    /// (the minimum snapshot position across the channel's
    /// subscriptions).  Truncation is a whole-file unlink — it never
    /// rewrites a byte, and it never touches the active segment, so rows
    /// above the low-water mark (and the channel's end ordinal) are
    /// always preserved.  Returns whether anything was unlinked.
    pub fn truncate_below(&mut self, low_water: u64) -> Result<bool, WalError> {
        let mut unlinked = 0usize;
        while !self.closed.is_empty() {
            let end = if self.closed.len() > 1 {
                self.closed[1].1
            } else {
                self.active_base
            };
            if end > low_water {
                break;
            }
            let (seq, _) = self.closed[0];
            fs::remove_file(segment_path(&self.prefix, seq))?;
            self.closed.remove(0);
            unlinked += 1;
        }
        if unlinked == 0 {
            return Ok(false);
        }
        self.base = self.closed.first().map_or(self.active_base, |&(_, b)| b);
        sync_dir_of(&self.prefix)?;
        Ok(true)
    }
}

/// One pending `fsync(2)` of a WAL's active segment ([`ChannelWal::flusher`]);
/// it keeps the segment open through a roll or truncation.
#[derive(Debug)]
pub struct WalFlush {
    file: Arc<File>,
    rows: u64,
}

impl WalFlush {
    /// fsync the segment.  Returns the durable watermark (older segments
    /// synced when they rolled) and the nanoseconds `fsync(2)` took.
    pub fn sync(&self) -> Result<(u64, u64), WalError> {
        #[cfg(feature = "failpoints")]
        if let Some(sqlts_relation::failpoints::Injected::InjectError) =
            sqlts_relation::failpoints::hit("wal::fsync", self.rows)
        {
            return Err(WalError::Io(io::Error::other(
                "failpoint 'wal::fsync' injected error",
            )));
        }
        let start = Instant::now();
        self.file.sync_all()?;
        Ok((self.rows, start.elapsed().as_nanos() as u64))
    }
}

/// Per-channel group-commit coordinator for every policy but `--fsync off`.
///
/// Feeders append under the channel persist lock *without* syncing, then
/// call [`wait_durable`](GroupCommit::wait_durable) after releasing it.
/// The first feeder to arrive becomes the batch **leader**: it sleeps
/// for the window (letting concurrent FEEDs pile their appends into the
/// same segment), performs one fsync through the supplied closure, and
/// publishes the new durable watermark.  Followers whose rows fall under
/// the watermark return without ever touching the file — many FEED acks,
/// one `fsync(2)`.
///
/// A failed sync fails **every** feeder in the batch (their rows are not
/// durable), delivered through a failure generation counter so no waiter
/// can miss it.
#[derive(Debug, Default)]
pub struct GroupCommit {
    state: Mutex<GroupState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Rows below this ordinal are known fsynced.
    synced_rows: u64,
    /// A leader is currently collecting/syncing a batch.
    leader: bool,
    /// Incremented on every failed sync; waiters compare generations.
    fail_seq: u64,
    last_error: String,
}

impl GroupCommit {
    /// Block until rows below `end` are durable, electing this thread as
    /// the batch leader if none is active.  `sync_fn` must perform the
    /// fsync (taking a [`WalFlush`] under whatever lock protects the WAL,
    /// and syncing it after releasing that lock) and return the new
    /// durable watermark.
    pub fn wait_durable<F>(&self, end: u64, window: Duration, sync_fn: F) -> Result<(), String>
    where
        F: Fn() -> Result<u64, String>,
    {
        let mut st = self.state.lock().expect("group-commit lock");
        let entry_fail = st.fail_seq;
        loop {
            if st.synced_rows >= end {
                return Ok(());
            }
            if st.fail_seq != entry_fail {
                return Err(st.last_error.clone());
            }
            if st.leader {
                st = self.cv.wait(st).expect("group-commit lock");
                continue;
            }
            st.leader = true;
            drop(st);
            if !window.is_zero() {
                std::thread::sleep(window);
            }
            let outcome = sync_fn();
            st = self.state.lock().expect("group-commit lock");
            st.leader = false;
            match outcome {
                Ok(watermark) => st.synced_rows = st.synced_rows.max(watermark),
                Err(e) => {
                    st.fail_seq += 1;
                    st.last_error = e;
                }
            }
            self.cv.notify_all();
        }
    }

    /// Record rows made durable outside the group path (snapshot-time
    /// syncs) so later waiters don't re-fsync for them.
    pub fn publish_synced(&self, watermark: u64) {
        let mut st = self.state.lock().expect("group-commit lock");
        if watermark > st.synced_rows {
            st.synced_rows = watermark;
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sqlts-wal-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value every implementation pins.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_group_windows() {
        use std::str::FromStr;
        assert_eq!(
            FsyncPolicy::from_str("group").unwrap(),
            FsyncPolicy::Group {
                window_us: DEFAULT_GROUP_WINDOW_US
            }
        );
        assert_eq!(
            FsyncPolicy::from_str("group:250").unwrap(),
            FsyncPolicy::Group { window_us: 250 }
        );
        assert!(FsyncPolicy::from_str("group:abc").is_err());
        assert_eq!(
            FsyncPolicy::from_str("every").unwrap(),
            FsyncPolicy::Group { window_us: 0 }
        );
        assert_eq!(FsyncPolicy::from_str("off").unwrap(), FsyncPolicy::Off);
    }

    #[test]
    fn append_scan_round_trip() {
        let path = temp_wal("round.wal");
        let mut wal = ChannelWal::create(&path, FsyncPolicy::Group { window_us: 0 }).unwrap();
        wal.append("a,1\nb,2", 2).unwrap();
        wal.append("c,3", 1).unwrap();
        assert_eq!(wal.rows_total(), 3);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.base, 0);
        assert_eq!(scan.rows_total, 3);
        assert!(scan.corruption.is_none());
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].payload, "a,1\nb,2");
        assert_eq!(scan.frames[1].start, 2);
        assert_eq!(scan.segments.len(), 1, "no roll at default segment size");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_wal("torn.wal");
        let mut wal = ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
        wal.append("a,1", 1).unwrap();
        wal.append("b,2", 1).unwrap();
        drop(wal);
        // Tear the last record in half.
        let seg0 = segment_path(&path, 0);
        let bytes = std::fs::read(&seg0).unwrap();
        std::fs::write(&seg0, &bytes[..bytes.len() - 3]).unwrap();
        let (mut wal, scan) = ChannelWal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(scan.frames.len(), 1, "torn record dropped");
        assert_eq!(scan.dropped_bytes, RECORD_HEADER_LEN as u64 + 3 - 3);
        assert!(scan.corruption.is_some());
        assert_eq!(wal.rows_total(), 1);
        // The log is clean again: appends continue from the valid prefix.
        wal.append("c,3", 1).unwrap();
        let rescan = scan_wal(&path).unwrap();
        assert!(rescan.corruption.is_none());
        assert_eq!(rescan.rows_total, 2);
        assert_eq!(rescan.frames[1].payload, "c,3");
    }

    #[test]
    fn appends_roll_into_new_segments() {
        let path = temp_wal("roll.wal");
        let mut wal = ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
        wal.set_segment_bytes(1); // roll before every append after the first
        wal.append("a,1\nb,2", 2).unwrap();
        wal.append("c,3\nd,4", 2).unwrap();
        wal.append("e,5\nf,6", 2).unwrap();
        assert_eq!(wal.active_seq, 2);
        let scan = scan_wal(&path).unwrap();
        assert!(scan.corruption.is_none());
        assert_eq!(scan.segments.len(), 3);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.rows_total, 6);
        assert_eq!(scan.segments[1].base, 2);
        assert_eq!(scan.segments[2].base, 4);
        // Reopen: same picture, appends continue in the active segment.
        drop(wal);
        let (mut wal, scan) = ChannelWal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(scan.rows_total, 6);
        assert_eq!(wal.active_seq, 2);
        wal.append("g,7", 1).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.rows_total, 7);
        assert_eq!(scan.segments.len(), 3, "append reused the active segment");
    }

    #[test]
    fn truncation_unlinks_whole_segments_and_never_rewrites() {
        let path = temp_wal("trunc.wal");
        let mut wal = ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
        wal.set_segment_bytes(1);
        wal.append("a,1\nb,2", 2).unwrap(); // segment 0: rows [0,2)
        wal.append("c,3\nd,4", 2).unwrap(); // segment 1: rows [2,4)
        wal.append("e,5\nf,6", 2).unwrap(); // segment 2 (active): rows [4,6)
        let seg1_before = std::fs::read(segment_path(&path, 1)).unwrap();
        let seg2_before = std::fs::read(segment_path(&path, 2)).unwrap();
        // Low water 2: only segment 0 lies entirely below it.
        assert!(wal.truncate_below(2).unwrap());
        assert!(!segment_path(&path, 0).exists(), "segment 0 unlinked");
        assert_eq!(
            std::fs::read(segment_path(&path, 1)).unwrap(),
            seg1_before,
            "truncation must not rewrite surviving segments"
        );
        assert_eq!(wal.base, 2);
        // Low water 3: segment 1 straddles it and must survive untouched.
        assert!(!wal.truncate_below(3).unwrap());
        assert_eq!(wal.base, 2);
        // Low water 6: everything snapshotted; closed segments unlink but
        // the active segment stays (byte-identical) so the ordinal line
        // and end position survive.
        assert!(wal.truncate_below(6).unwrap());
        assert!(!segment_path(&path, 1).exists());
        assert_eq!(std::fs::read(segment_path(&path, 2)).unwrap(), seg2_before);
        assert_eq!(wal.base, 4);
        assert_eq!(wal.rows_total(), 6);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.base, 4);
        assert_eq!(scan.rows_total, 6);
        // And appends keep the ordinal line unbroken.
        wal.append("g,7", 1).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.frames.last().unwrap().start, 6);
        assert_eq!(scan.rows_total, 7);
    }

    #[test]
    fn interior_corruption_drops_all_later_segments() {
        let path = temp_wal("interior.wal");
        let mut wal = ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
        wal.set_segment_bytes(1);
        wal.append("a,1", 1).unwrap(); // segment 0
        wal.append("b,2", 1).unwrap(); // segment 1
        wal.append("c,3", 1).unwrap(); // segment 2
        drop(wal);
        // Flip a payload byte in the *middle* segment.
        let seg1 = segment_path(&path, 1);
        let mut bytes = std::fs::read(&seg1).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&seg1, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            scan.rows_total, 1,
            "valid prefix ends before segment 1's record"
        );
        assert!(scan.corruption.is_some());
        assert_eq!(scan.segments.last().unwrap().seq, 1);
        // Open repairs: segment 1 truncated to its header, segment 2 gone.
        let (mut wal, _) = ChannelWal::open(&path, FsyncPolicy::Off).unwrap();
        assert!(!segment_path(&path, 2).exists(), "later segment unlinked");
        assert_eq!(wal.rows_total(), 1);
        wal.append("d,2", 1).unwrap();
        let rescan = scan_wal(&path).unwrap();
        assert!(rescan.corruption.is_none());
        assert_eq!(rescan.rows_total, 2);
    }

    #[test]
    fn bare_file_at_the_prefix_is_refused_not_taken_for_an_empty_log() {
        let path = temp_wal("bare.wal");
        ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
        std::fs::rename(segment_path(&path, 0), &path).unwrap();
        assert!(matches!(
            ChannelWal::open(&path, FsyncPolicy::Off),
            Err(WalError::Malformed(_))
        ));
    }

    #[test]
    fn read_frames_from_skips_whole_segments() {
        let path = temp_wal("resync.wal");
        let mut wal = ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
        wal.set_segment_bytes(1);
        wal.append("a,1\nb,2", 2).unwrap();
        wal.append("c,3\nd,4", 2).unwrap();
        wal.append("e,5\nf,6", 2).unwrap();
        let all = read_frames_from(&path, 0).unwrap();
        assert_eq!(all.len(), 3);
        let tail = read_frames_from(&path, 4).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].start, 4);
        // An ordinal inside a frame still returns that frame whole.
        let straddle = read_frames_from(&path, 3).unwrap();
        assert_eq!(straddle.len(), 2);
        assert_eq!(straddle[0].start, 2);
        let none = read_frames_from(&path, 6).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn header_corruption_is_a_typed_error() {
        let path = temp_wal("header.wal");
        ChannelWal::create(&path, FsyncPolicy::Off).unwrap();
        let seg0 = segment_path(&path, 0);
        let mut bytes = std::fs::read(&seg0).unwrap();
        bytes[0] ^= 0x20;
        std::fs::write(&seg0, &bytes).unwrap();
        assert!(matches!(scan_wal(&path), Err(WalError::Malformed(_))));
        assert!(matches!(
            ChannelWal::open(&path, FsyncPolicy::Off),
            Err(WalError::Malformed(_))
        ));
    }

    #[test]
    fn group_commit_shares_one_fsync_across_a_batch() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let gc = Arc::new(GroupCommit::default());
        let syncs = Arc::new(AtomicU64::new(0));
        let appended = Arc::new(AtomicU64::new(0));
        const FEEDERS: u64 = 8;
        let mut handles = Vec::new();
        for i in 0..FEEDERS {
            let gc = Arc::clone(&gc);
            let syncs = Arc::clone(&syncs);
            let appended = Arc::clone(&appended);
            handles.push(std::thread::spawn(move || {
                // "Append" row i, then wait for the group sync.
                let end = appended.fetch_add(1, Ordering::SeqCst) + 1;
                gc.wait_durable(end, Duration::from_millis(50), || {
                    syncs.fetch_add(1, Ordering::SeqCst);
                    Ok(appended.load(Ordering::SeqCst))
                })
                .unwrap();
                let _ = i;
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = syncs.load(Ordering::SeqCst);
        assert!(
            total < FEEDERS,
            "{FEEDERS} feeders must share fsyncs, got {total}"
        );
        assert!(total >= 1);
    }

    #[test]
    fn group_commit_failure_fails_every_waiter_in_the_batch() {
        use std::sync::Arc;
        let gc = Arc::new(GroupCommit::default());
        let mut handles = Vec::new();
        for i in 1..=4u64 {
            let gc = Arc::clone(&gc);
            handles.push(std::thread::spawn(move || {
                gc.wait_durable(i, Duration::from_millis(30), || {
                    Err("disk on fire".to_string())
                })
            }));
        }
        for h in handles {
            let err = h.join().unwrap().expect_err("sync failure must propagate");
            assert!(err.contains("disk on fire"), "{err}");
        }
        // A later successful sync clears the way.
        gc.publish_synced(10);
        gc.wait_durable(5, Duration::ZERO, || Ok(10)).unwrap();
    }
}
