//! The durable state directory behind `--data-dir`: its layout, its
//! single-writer lock, the subscription record codec, and the typed
//! [`ServeError`] every serve-path failure is classified onto.  The
//! recovery pass that rebuilds a crashed server from it is
//! `server::recover`, which replays through `crate::channel`.
//!
//! ## Layout
//!
//! ```text
//! DIR/LOCK                        single-writer lock (holder's pid)
//! DIR/channels/<name>.schema      channel schema spec ("col:type,...")
//! DIR/channels/<name>.wal         per-channel feed WAL (crate::wal)
//! DIR/subs/<id>.sub               subscription record — sqlts-sub v1
//! ```
//!
//! Channel and subscription names come off the wire, so they are
//! percent-encoded before becoming file names — `../../etc/passwd` is a
//! perfectly legal subscription id and a perfectly illegal path.
//!
//! ## Subscription record
//!
//! A subscription's whole durable state is one file, written by one
//! `atomic_write` at `SUBSCRIBE`/`RESUME`, at every snapshot and at
//! `CHECKPOINT … DURABLE`, and shipped to a standby as one `REPL SUB`:
//!
//! ```text
//! sqlts-sub v1
//! channel <enc-name>
//! base_rows <n>
//! base_records <n>
//! sql <len>
//! <the SQL: exactly len bytes, newlines and all>
//! <the sqlts-checkpoint v1 text, verbatim, to the end of the file>
//! ```
//!
//! So the query and its position in the stream land together or not at
//! all: no crash leaves one without the other.  A directory that still
//! holds the earlier two-file layout (`subs/<id>.meta` beside
//! `subs/<id>.checkpoint`) is refused at bind, never migrated.
//!
//! ## Recovery invariant
//!
//! Every snapshot records the channel row ordinal it covers
//! (`base_rows + (checkpoint records − base_records)`); the WAL retains
//! every frame at or past the *minimum* such ordinal (the low-water
//! mark).  Restart therefore resumes each worker from its snapshot and
//! replays exactly the WAL rows that worker has not yet seen — the same
//! rows, in the same order, as the uninterrupted run, which is what
//! makes recovered output byte-identical.
//!
//! All failures surface as [`ServeError`] on the CLI's established
//! exit-code classes — never a panic: 2 for unusable configuration
//! (bad listen address, locked or unwritable data dir), 3 for durable
//! state that cannot be trusted (malformed WAL header, subscription
//! record or schema file, a pre-record layout), 4 for runtime failures
//! while replaying.

use sqlts_core::atomic_write;
use sqlts_relation::Schema;
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A serve-path failure, classified onto the CLI's exit-code classes.
#[derive(Debug)]
pub enum ServeError {
    /// Unusable configuration: bad listen address, locked or unwritable
    /// `--data-dir` (exit 2).
    Usage(String),
    /// Durable state that cannot be trusted: malformed WAL header,
    /// snapshot, metadata or schema file (exit 3).
    Input(String),
    /// Runtime failure during recovery or replay (exit 4).
    Runtime(String),
}

impl ServeError {
    /// The CLI exit code class this failure maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            ServeError::Usage(_) => 2,
            ServeError::Input(_) => 3,
            ServeError::Runtime(_) => 4,
        }
    }

    /// The failure message without its class.
    pub fn message(&self) -> &str {
        match self {
            ServeError::Usage(m) | ServeError::Input(m) | ServeError::Runtime(m) => m,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for ServeError {}

impl From<crate::wal::WalError> for ServeError {
    fn from(e: crate::wal::WalError) -> ServeError {
        match e {
            crate::wal::WalError::Io(e) => ServeError::Runtime(format!("wal I/O: {e}")),
            crate::wal::WalError::Malformed(why) => ServeError::Input(format!("wal: {why}")),
        }
    }
}

/// Percent-encode a wire name into a safe file stem: every byte outside
/// `[A-Za-z0-9_.-]` (plus `%` itself and a bare leading dot) becomes
/// `%XX`, so distinct names map to distinct stems and no name can climb
/// out of the directory.
pub fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, b) in name.bytes().enumerate() {
        let plain = b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || (b == b'.' && i > 0);
        if plain {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Invert [`encode_name`].  Returns `None` for stems that are not valid
/// encodings (foreign files in the directory).
pub fn decode_name(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// A subscription's identity: everything in its durable record but the
/// checkpoint.
///
/// `base_rows` is the channel row ordinal at which the subscription was
/// created (or resumed); `base_records` is the worker's checkpoint
/// record count at that moment (non-zero only for `RESUME`, whose
/// checkpoint arrives with history already in it).  The ordinal a
/// snapshot covers is then [`SubMeta::resume_ordinal`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubMeta {
    /// Channel the subscription consumes.
    pub channel: String,
    /// Channel row ordinal when the subscription joined.
    pub base_rows: u64,
    /// Worker checkpoint record count when it joined (0 unless resumed).
    pub base_records: u64,
    /// The standing SQL-TS query.
    pub sql: String,
}

impl SubMeta {
    /// The first channel row a session whose checkpoint covers `records`
    /// input records has *not* yet seen: where recovery, promotion and
    /// WAL truncation all resume it.
    pub fn resume_ordinal(&self, records: u64) -> u64 {
        self.base_rows + records.saturating_sub(self.base_records)
    }

    /// The `sqlts-sub v1` record of this subscription at `checkpoint`.
    pub fn to_record(&self, checkpoint: &str) -> String {
        format!(
            "sqlts-sub v1\nchannel {}\nbase_rows {}\nbase_records {}\nsql {}\n{}\n{checkpoint}",
            encode_name(&self.channel),
            self.base_rows,
            self.base_records,
            self.sql.len(),
            self.sql
        )
    }

    /// Parse a `sqlts-sub v1` record into its meta and its checkpoint
    /// text (returned unparsed: its consumers parse it).
    pub fn from_record(text: &str) -> Result<(SubMeta, &str), String> {
        let mut rest = text
            .strip_prefix("sqlts-sub v1\n")
            .ok_or("missing 'sqlts-sub v1' header")?;
        let mut field = |key: &str| {
            let (line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
            rest = tail;
            let value = line.strip_prefix(key).and_then(|v| v.strip_prefix(' '));
            value.ok_or_else(|| format!("expected '{key}', found '{line}'"))
        };
        let channel = decode_name(field("channel")?).ok_or("undecodable channel")?;
        let base_rows = field("base_rows")?.parse().map_err(|_| "bad base_rows")?;
        let base_records = field("base_records")?
            .parse()
            .map_err(|_| "bad base_records")?;
        let len: usize = field("sql")?.parse().map_err(|_| "bad sql length")?;
        let (sql, checkpoint) = rest
            .get(..len)
            .zip(rest.get(len..).and_then(|tail| tail.strip_prefix('\n')))
            .ok_or("sql section shorter than its length")?;
        if sql.trim().is_empty() {
            return Err("empty sql section".into());
        }
        let meta = SubMeta {
            channel,
            base_rows,
            base_records,
            sql: sql.to_string(),
        };
        Ok((meta, checkpoint))
    }
}

/// Data dirs locked by *this* process — catches two in-process servers
/// (tests, embedders) binding the same directory, which the pid-based
/// LOCK file cannot distinguish from our own stale lock.
static ACTIVE_DIRS: Mutex<Option<HashSet<PathBuf>>> = Mutex::new(None);

fn register_dir(root: &Path) -> bool {
    let mut guard = ACTIVE_DIRS.lock().unwrap_or_else(|e| e.into_inner());
    guard
        .get_or_insert_with(HashSet::new)
        .insert(root.to_path_buf())
}

fn deregister_dir(root: &Path) {
    let mut guard = ACTIVE_DIRS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(set) = guard.as_mut() {
        set.remove(root);
    }
}

fn pid_is_live(pid: u32) -> bool {
    // Good enough on Linux; elsewhere /proc is absent and every foreign
    // lock looks stale, which errs on the side of recoverability.  A
    // zombie still has a /proc entry but holds no lock worth honouring —
    // a SIGKILLed server lingers as one until its parent reaps it.
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    let state = stat
        .rsplit(')')
        .next()
        .and_then(|rest| rest.trim_start().chars().next());
    !matches!(state, Some('Z') | Some('X') | None)
}

/// The files in `dir` with extension `ext`, sorted by path.
fn listed(dir: &Path, ext: &str) -> Result<Vec<PathBuf>, ServeError> {
    let read_err = |e: std::io::Error| ServeError::Runtime(format!("read {}: {e}", dir.display()));
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(read_err)? {
        let path = entry.map_err(read_err)?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Refuse a `subs/` directory that still holds the two-file layout
/// (`<id>.meta` beside `<id>.checkpoint`) the one record replaced.
fn refuse_two_file_layout(root: &Path) -> Result<(), ServeError> {
    for ext in ["meta", "checkpoint"] {
        if let Some(path) = listed(&root.join("subs"), ext)?.first() {
            return Err(ServeError::Input(format!(
                "{} belongs to the two-file subscription layout, which this \
                 server neither reads nor migrates (one subs/<id>.sub each)",
                path.display()
            )));
        }
    }
    Ok(())
}

/// An exclusively-locked durable state directory.
#[derive(Debug)]
pub struct DataDir {
    root: PathBuf,
}

impl DataDir {
    /// Create (if needed) and exclusively lock `root`.
    ///
    /// A LOCK file holding a live foreign pid refuses the lock (exit
    /// class 2); a LOCK whose pid is dead — or our own, left by a
    /// previous incarnation in this process — is stale and stolen.
    pub fn lock(root: &Path) -> Result<DataDir, ServeError> {
        for sub in ["channels", "subs"] {
            fs::create_dir_all(root.join(sub))
                .map_err(|e| ServeError::Usage(format!("data dir {}: {e}", root.display())))?;
        }
        let root = root
            .canonicalize()
            .map_err(|e| ServeError::Usage(format!("data dir: {e}")))?;
        if !register_dir(&root) {
            return Err(ServeError::Usage(format!(
                "data dir {} is already in use by this process",
                root.display()
            )));
        }
        let lock_path = root.join("LOCK");
        let own_pid = std::process::id();
        if let Ok(text) = fs::read_to_string(&lock_path) {
            if let Ok(pid) = text.trim().parse::<u32>() {
                if pid != own_pid && pid_is_live(pid) {
                    deregister_dir(&root);
                    return Err(ServeError::Usage(format!(
                        "data dir {} is locked by running pid {pid}",
                        root.display()
                    )));
                }
            }
        }
        // Refused, never migrated: nothing in the directory is touched,
        // the LOCK included.
        if let Err(e) = refuse_two_file_layout(&root) {
            deregister_dir(&root);
            return Err(e);
        }
        if let Err(e) = atomic_write(&lock_path, format!("{own_pid}\n").as_bytes()) {
            deregister_dir(&root);
            return Err(ServeError::Usage(format!(
                "data dir {}: cannot write LOCK: {e}",
                root.display()
            )));
        }
        Ok(DataDir { root })
    }

    /// The locked directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `channels/<name>.wal`
    pub fn wal_path(&self, channel: &str) -> PathBuf {
        self.root
            .join("channels")
            .join(format!("{}.wal", encode_name(channel)))
    }

    fn schema_path(&self, channel: &str) -> PathBuf {
        self.root
            .join("channels")
            .join(format!("{}.schema", encode_name(channel)))
    }

    fn sub_path(&self, id: &str) -> PathBuf {
        self.root
            .join("subs")
            .join(format!("{}.sub", encode_name(id)))
    }

    /// Persist a channel's schema spec (atomic).
    pub fn save_channel(&self, channel: &str, schema: &Schema) -> Result<(), ServeError> {
        atomic_write(&self.schema_path(channel), schema.to_spec().as_bytes())
            .map_err(|e| ServeError::Runtime(format!("persist channel '{channel}': {e}")))
    }

    /// Persist a subscription's `sqlts-sub v1` record (atomic).
    pub fn save_sub(&self, id: &str, record: &str) -> Result<(), ServeError> {
        atomic_write(&self.sub_path(id), record.as_bytes())
            .map_err(|e| ServeError::Runtime(format!("persist sub '{id}': {e}")))
    }

    /// Remove a subscription's durable record.  Called *before* the
    /// worker is finished, so a crash in between resurrects nothing.
    pub fn remove_sub(&self, id: &str) {
        let _ = fs::remove_file(self.sub_path(id));
        let _ = fs::remove_file(sqlts_core::persist::staging_path(&self.sub_path(id)));
    }

    /// Enumerate persisted channels as `(name, schema)`.
    pub fn load_channels(&self) -> Result<Vec<(String, Schema)>, ServeError> {
        let mut out = Vec::new();
        for path in listed(&self.root.join("channels"), "schema")? {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            let Some(name) = decode_name(stem) else {
                continue;
            };
            let spec = fs::read_to_string(&path)
                .map_err(|e| ServeError::Runtime(format!("read {}: {e}", path.display())))?;
            let schema = Schema::parse_spec(spec.trim()).map_err(|e| {
                ServeError::Input(format!("malformed schema file {}: {e}", path.display()))
            })?;
            out.push((name, schema));
        }
        Ok(out)
    }

    /// Enumerate persisted subscriptions as `(id, meta, checkpoint)`.
    /// Staging files a crash left behind are skipped.
    pub fn load_subs(&self) -> Result<Vec<(String, SubMeta, String)>, ServeError> {
        let mut out = Vec::new();
        for path in listed(&self.root.join("subs"), "sub")? {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            let Some(id) = decode_name(stem) else {
                continue;
            };
            let text = fs::read_to_string(&path)
                .map_err(|e| ServeError::Runtime(format!("read {}: {e}", path.display())))?;
            let (meta, checkpoint) = SubMeta::from_record(&text).map_err(|e| {
                ServeError::Input(format!(
                    "malformed subscription record {}: {e}",
                    path.display()
                ))
            })?;
            out.push((id, meta, checkpoint.to_string()));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Release the LOCK file (graceful drain).  The in-process
    /// registration is released on drop either way; a crash skips this
    /// and leaves the LOCK behind, where the pid-liveness check makes it
    /// stealable.
    pub fn release(&self) {
        let _ = fs::remove_file(self.root.join("LOCK"));
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        deregister_dir(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlts-recover-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn name_encoding_round_trips_and_defangs_traversal() {
        for name in [
            "quote",
            "a/b",
            "../../etc/passwd",
            ".hidden",
            "naïve",
            "%41",
        ] {
            let enc = encode_name(name);
            assert!(!enc.contains('/'), "{name} -> {enc}");
            assert!(!enc.starts_with('.'), "{name} -> {enc}");
            assert_eq!(decode_name(&enc).as_deref(), Some(name));
        }
        // Distinct names never collide.
        assert_ne!(encode_name("a/b"), encode_name("a%2Fb"));
        assert_eq!(decode_name("no%GGhex"), None);
    }

    #[test]
    fn submeta_round_trip_and_rejections() {
        let meta = SubMeta {
            channel: "quote/eu".into(),
            base_rows: 42,
            base_records: 7,
            sql: "SELECT X.name\nFROM q CLUSTER BY name SEQUENCE BY day AS (X, Z)\n\
                  WHERE Z.price < X.price\n"
                .into(),
        };
        // Multi-line SQL with a trailing newline, and a checkpoint that
        // itself looks like record fields, both come back verbatim.
        let checkpoint = "sqlts-checkpoint v1\nsql 3\nend\n";
        let record = meta.to_record(checkpoint);
        assert_eq!(SubMeta::from_record(&record).unwrap(), (meta, checkpoint));
        assert!(SubMeta::from_record("garbage").is_err());
        assert!(SubMeta::from_record("sqlts-submeta v1\nchannel q\nsql\nSELECT").is_err());
        let fields = "sqlts-sub v1\nchannel q\nbase_rows 1\nbase_records 0\n";
        assert!(SubMeta::from_record(&format!("{fields}sql 0\n\n")).is_err());
        assert!(SubMeta::from_record(&format!("{fields}sql x\nSELECT\n")).is_err());
        assert!(SubMeta::from_record(&format!("{fields}sql 7\nSELECT\n")).is_err());
        assert!(SubMeta::from_record(&format!("{fields}sql 6\nSELECT")).is_err());
        assert!(SubMeta::from_record(&format!("{fields}sql 6\nSELECT\n")).is_ok());
        // Every cut before the checkpoint starts is rejected.
        for cut in 0..record.len() - checkpoint.len() {
            if let Some(torn) = record.get(..cut) {
                assert!(SubMeta::from_record(torn).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn lock_is_exclusive_within_process_and_stealable_when_stale() {
        let root = temp_root("lock");
        let first = DataDir::lock(&root).unwrap();
        // Same process, same dir: refused by the in-process registry.
        let again = DataDir::lock(&root);
        assert!(matches!(again, Err(ServeError::Usage(_))), "{again:?}");
        drop(first);
        // A LOCK file holding our own pid (a prior incarnation in this
        // process) is stale by definition.
        let second = DataDir::lock(&root).unwrap();
        drop(second);
        // A LOCK file holding a dead pid is stolen.
        fs::write(root.join("LOCK"), "999999999\n").unwrap();
        let third = DataDir::lock(&root).unwrap();
        third.release();
        assert!(!root.join("LOCK").exists(), "release removes the LOCK");
    }

    #[test]
    fn channels_and_subs_round_trip_through_the_directory() {
        let root = temp_root("roundtrip");
        let dir = DataDir::lock(&root).unwrap();
        let schema = Schema::parse_spec("name:str,day:int,price:float").unwrap();
        dir.save_channel("quote", &schema).unwrap();
        let loaded = dir.load_channels().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, "quote");
        assert_eq!(loaded[0].1, schema);

        let meta = SubMeta {
            channel: "quote".into(),
            base_rows: 0,
            base_records: 0,
            sql: "SELECT X.name FROM q CLUSTER BY name SEQUENCE BY day AS (X, Z) \
                  WHERE Z.price < X.price"
                .into(),
        };
        let checkpoint = "sqlts-checkpoint v1\n...";
        dir.save_sub("s1", &meta.to_record(checkpoint)).unwrap();
        // A staging file a crash left behind is not a subscription.
        fs::write(root.join("subs").join("s2.sub.tmp"), "torn").unwrap();
        let subs = dir.load_subs().unwrap();
        assert_eq!(subs, vec![("s1".into(), meta, checkpoint.into())]);
        dir.remove_sub("s1");
        assert!(dir.load_subs().unwrap().is_empty());
    }

    #[test]
    fn a_torn_or_malformed_record_is_an_input_error() {
        let root = temp_root("torn");
        let dir = DataDir::lock(&root).unwrap();
        dir.save_sub("s", "sqlts-sub v1\nchannel q\nbase_rows 0\nbase_")
            .unwrap();
        let result = dir.load_subs();
        assert!(matches!(result, Err(ServeError::Input(_))), "{result:?}");
    }

    #[test]
    fn the_two_file_layout_is_refused_and_left_untouched() {
        for name in ["s.meta", "s.checkpoint"] {
            let root = temp_root("twofile");
            fs::create_dir_all(root.join("subs")).unwrap();
            fs::write(root.join("subs").join(name), "sqlts-submeta v1\n").unwrap();
            let err = DataDir::lock(&root).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{err}");
            assert!(err.message().contains(name), "{err}");
            assert!(!root.join("LOCK").exists(), "a refused dir gains no LOCK");
            assert_eq!(
                fs::read(root.join("subs").join(name)).unwrap(),
                b"sqlts-submeta v1\n"
            );
            // The refusal released the in-process registration.
            fs::remove_file(root.join("subs").join(name)).unwrap();
            DataDir::lock(&root).unwrap();
        }
    }

    #[test]
    fn unwritable_data_dir_is_a_usage_error() {
        let result = DataDir::lock(Path::new("/proc/definitely/not/writable"));
        match result {
            Err(ServeError::Usage(_)) => {}
            other => panic!("expected usage error, got {other:?}"),
        }
    }
}
