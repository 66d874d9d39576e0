//! Session multiplexing: one lock-guarded session group per standing query
//! or aligned set of them.
//!
//! There is one session type underneath: a session group, one admission
//! under numbered seats, of which a [`StreamSession`](crate::StreamSession)
//! is the group of one.  Every group owns its queries (through an `Arc`),
//! so it can outlive whoever built it.  A [`SessionWorker`] compiles its
//! query, opens a group of one around it and seats that in a group behind
//! a mutex — its own, or one it joins.  The worker has no thread of its
//! own: every method takes `&self`, locks, and runs the group call **on
//! the caller's thread**.  This is the substrate a multi-tenant host (the
//! `sqlts-server` crate, or any embedding) multiplexes subscriptions onto:
//!
//! * **Where the work runs** — in whoever calls.  A host that feeds N
//!   workers from one thread (the server's FEED path does, per channel)
//!   runs their matchers one after another on that thread; workers fed
//!   from different threads run concurrently.  Isolation is whatever the
//!   host's threading gives it, no more.
//! * **One admission per aligned group** — [`SessionWorker::spawn_in`]
//!   seats a new worker in one of the given [`WorkerGroup`]s when neither
//!   side has seen a tuple yet and both admit alike (same input schema,
//!   `CLUSTER BY`/`SEQUENCE BY` columns and bad-tuple policy).  The group
//!   sits behind one lock and validates, keys, order-checks and stores
//!   each tuple once; every member drives its own machine over the shared
//!   window.  [`WorkerGroup::feed`] is the one way to feed a group of
//!   several, a frame at a time: a member with a governor armed is driven
//!   after every tuple, every other member once per frame and cluster.
//!   [`SessionWorker::feed`] feeds a frame of one tuple, and only to a
//!   worker that sits alone.  Each worker still reads back exactly what it
//!   would have alone, and dropping one gives up its seat.
//! * **Admission control** — per-worker [`Governor`](crate::Governor)
//!   budgets (deadline / step / match) ride in unchanged through
//!   [`StreamOptions::exec`]; [`SessionWorker::queue_depth`] gauges how
//!   many callers are waiting for the session's group.
//! * **Observation** — [`SessionWorker::status`] is the one read of a
//!   live session, taken under its group's lock.  A worker publishes
//!   nothing else: the work runs on the caller's thread, so a host times
//!   it where it calls (the server's span log wraps each group feed in a
//!   `session_drive` span).
//! * **Stalled tenants** — `feed`, `status`, `snapshot` and
//!   `finish` all poll the seat's deadline before they look,
//!   so a tenant that simply stops feeding is seen tripped by the first
//!   observer after its wall-clock deadline, with no further tuple.
//! * **Checkpoint / resume** — [`SessionWorker::snapshot`] returns the
//!   session's `sqlts-checkpoint v1` text, and
//!   [`SessionWorkerConfig::resume_from`] rebuilds a worker that continues
//!   bit-identically (the checkpoint's engine wins, so a resumed
//!   subscription never silently switches machines).
//! * **Panic containment** — every session call runs under
//!   `catch_unwind`: a panic poisons the session whose work it
//!   interrupted (one that escapes a group feed outside any single
//!   member's work poisons every session in the group), surfaces as
//!   [`WorkerError::Runtime`], and never unwinds into the caller's thread
//!   or poisons the lock.
//!
//! Every reply carries a [`WorkerError`] mapped onto the CLI's documented
//! exit-code scheme (3 input, 4 runtime/governed, 5 quarantine) so
//! transports can surface one consistent status vocabulary.

use crate::executor::{panic_cause, QueryResult};
use crate::patternset::SetRegistry;
use crate::stream::{SessionCheckpoint, SessionGroup, SessionView, StreamError, StreamOptions};
use crate::{compile, Trip};
use sqlts_relation::{Schema, Value};
use sqlts_trace::ExecutionProfile;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything a [`SessionWorker`] needs to stand up its session.
#[derive(Clone, Debug)]
pub struct SessionWorkerConfig {
    /// A short identifier used in diagnostics (e.g. the subscription id).
    pub name: String,
    /// The SQL-TS query source; compiled by [`SessionWorker::spawn`].
    pub sql: String,
    /// The input schema the query is compiled against.
    pub schema: Schema,
    /// The full stream options (engine, governor, instrumentation,
    /// bad-tuple policy) the session runs under.
    pub stream: StreamOptions,
    /// The checkpoint to resume from, or `None` for a fresh session.  On
    /// resume the checkpoint's engine overrides `stream.exec.engine` so
    /// continuation is bit-identical.
    pub resume_from: Option<SessionCheckpoint>,
    /// Shared pattern-set membership: when set, the worker joins the
    /// channel's [`SetRegistry`] after compiling, so its session shares
    /// predicate tests with every other subscription in the same group.
    /// `None` (the default) runs exactly as before.
    pub shared: Option<SharedSpec>,
}

/// How a worker joins a channel-level shared pattern-set registry.
#[derive(Clone, Debug)]
pub struct SharedSpec {
    /// The channel's registry of standing queries.
    pub registry: Arc<SetRegistry>,
    /// The feed position this subscription's cluster positions are
    /// counted from: `0` for a subscription created before any feed, the
    /// checkpointed record count for a resumed one.  Groups are keyed by
    /// origin, so misaligned members never share a memo entry.
    pub origin: u64,
}

impl SessionWorkerConfig {
    /// A config with the given query over `schema`: a fresh, solo session
    /// under default stream options.
    pub fn new(name: impl Into<String>, sql: impl Into<String>, schema: Schema) -> Self {
        SessionWorkerConfig {
            name: name.into(),
            sql: sql.into(),
            schema,
            stream: StreamOptions::default(),
            resume_from: None,
            shared: None,
        }
    }
}

/// A worker failure, classified onto the CLI's exit-code scheme so every
/// transport reports one consistent status vocabulary.
#[derive(Debug)]
pub enum WorkerError {
    /// Bad query or bad input (compile error, unbindable tuple, malformed
    /// checkpoint) — exit-code class 3.
    Input(String),
    /// The session started but failed at runtime (poisoned by a contained
    /// panic, I/O) — exit-code class 4.
    Runtime(String),
    /// The resource governor terminated the session — exit-code class 4,
    /// kept distinct so hosts can attach partial-result semantics.
    Governed(Trip),
    /// A quarantine reached its capacity — exit-code class 5.
    Quarantine(String),
    /// The session is gone (already finished).
    Gone,
}

impl WorkerError {
    /// The CLI exit-code class this error mirrors.
    pub fn exit_code(&self) -> u8 {
        match self {
            WorkerError::Input(_) => 3,
            WorkerError::Runtime(_) | WorkerError::Governed(_) | WorkerError::Gone => 4,
            WorkerError::Quarantine(_) => 5,
        }
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Input(m) | WorkerError::Runtime(m) | WorkerError::Quarantine(m) => {
                write!(f, "{m}")
            }
            WorkerError::Governed(trip) => {
                write!(f, "stream terminated by resource governor: {trip}")
            }
            WorkerError::Gone => write!(f, "session worker is gone"),
        }
    }
}

impl std::error::Error for WorkerError {}

fn map_stream_err(e: StreamError) -> WorkerError {
    match e {
        StreamError::Governed { trip, .. } => WorkerError::Governed(trip),
        StreamError::QuarantineFull { .. } => WorkerError::Quarantine(e.to_string()),
        StreamError::Poisoned(_) => WorkerError::Runtime(e.to_string()),
        StreamError::Unsupported(_)
        | StreamError::Table(_)
        | StreamError::BadTuple(_)
        | StreamError::Checkpoint(_) => WorkerError::Input(e.to_string()),
    }
}

/// A point-in-time view of a live session, cheap enough to serve on a
/// metrics scrape.
#[derive(Clone, Debug)]
pub struct SessionStatus {
    /// Input records seen (accepted + rejected).
    pub records: u64,
    /// Records dropped under the skip policy.
    pub skipped: u64,
    /// Tuples parked in quarantine.
    pub quarantined: usize,
    /// Estimated bytes buffered across cluster windows.
    pub window_bytes: usize,
    /// Logical predicate tests performed so far (memo hits under shared
    /// pattern-set execution are charged as if evaluated locally).
    pub predicate_tests: u64,
    /// The latched governor trip, if the session has tripped.
    pub trip: Option<Trip>,
    /// Has a contained panic poisoned the session?
    pub poisoned: bool,
}

/// The terminal report of a finished (or governed/failed) session.
#[derive(Debug)]
pub struct FinishReport {
    /// The result table as CSV (header + rows); partial when governed,
    /// empty when the finish failed outright.
    pub csv: String,
    /// Number of match rows in `csv`.
    pub rows: u64,
    /// The governor trip, when the session was cut short.
    pub trip: Option<Trip>,
    /// A non-governed finish failure (poisoned session, …).
    pub error: Option<String>,
    /// The armed execution profile, when instrumentation was on.
    pub profile: Option<Box<ExecutionProfile>>,
    /// Records dropped under the skip policy.
    pub skipped: u64,
    /// Tuples left in quarantine.
    pub quarantined: usize,
    /// Logical predicate tests over the session's life, as of the finish
    /// (the partial's count when governed, 0 when the finish failed).
    pub predicate_tests: u64,
}

/// A handle to one subscription's session.
///
/// All methods take `&self`, so a handle can sit in a shared registry and
/// be driven from many connection threads at once; each call locks the
/// session's group and runs on the calling thread.  Dropping the handle
/// without calling [`finish`](SessionWorker::finish) gives up its seat:
/// the session is freed and its group stops driving it (take a
/// [`snapshot`](SessionWorker::snapshot) first to keep the work).
pub struct SessionWorker {
    name: String,
    group: WorkerGroup,
    /// This worker's seat in its group (0 for a solo worker).
    seat: usize,
}

/// The session group a [`SessionWorker`] sits in: one lock and one
/// admission for every worker seated there, all fed together by
/// [`WorkerGroup::feed`].  A clone is another handle on the same group;
/// two handles are equal when they name the same group.
#[derive(Clone)]
pub struct WorkerGroup {
    crew: Arc<Crew>,
}

struct Crew {
    /// The founding worker's name, for failures no one seat owns.
    name: String,
    group: Mutex<SessionGroup>,
    queued: AtomicU64,
}

impl Crew {
    /// Lock the group and run `f` on it, on this thread; `label` names the
    /// call in a contained panic's text.  A panic inside `f` is answered
    /// as [`WorkerError::Runtime`] and poisons the work it interrupted:
    /// seat `seat`'s session, or with `None` (a group feed) every session
    /// in the group — one escaping a member's own feed is contained there
    /// and poisons only that member.  Poisoning is contained too: it
    /// copies each leaving member's view of the window, and a panic there
    /// latches the poison on every session in the group, building no
    /// view.  The lock is never held across an unwind, so it cannot be
    /// poisoned by one.
    fn call<T>(
        &self,
        name: &str,
        seat: Option<usize>,
        label: &'static str,
        f: impl FnOnce(&mut SessionGroup) -> Result<T, WorkerError>,
    ) -> Result<T, WorkerError> {
        // Counted while waiting for the lock: the live contention gauge.
        self.queued.fetch_add(1, Ordering::Relaxed);
        let locked = self.group.lock();
        self.queued.fetch_sub(1, Ordering::Relaxed);
        let mut group = locked.map_err(|_| WorkerError::Runtime("session lock poisoned".into()))?;
        match contained(name, label, || f(&mut group)) {
            Ok(result) => result,
            Err(cause) => {
                if contained(name, "poison", || group.poison(seat, &cause)).is_err() {
                    group.latch_poison(None, &cause);
                }
                Err(WorkerError::Runtime(cause))
            }
        }
    }
}

impl WorkerGroup {
    /// Feed the frame `rows`, in order, to every worker seated in the
    /// group, under one lock: each tuple is admitted once; a member with a
    /// governor armed is driven over it at once, and every other member is
    /// driven once for the frame, one advance per cluster it touched.
    /// `report(seat, result)` receives, per row, each occupied seat's
    /// result — what that worker's own `feed` would have returned had it
    /// sat alone and been fed the rows one by one — each seat's in row
    /// order.  Fails with [`WorkerError::Gone`] once every seat is empty,
    /// and otherwise only when a panic escapes the group.
    pub fn feed(
        &self,
        rows: impl IntoIterator<Item = Vec<Value>>,
        mut report: impl FnMut(usize, Result<(), WorkerError>),
    ) -> Result<(), WorkerError> {
        let crew = &self.crew;
        crew.call(&crew.name, None, "feed", |group| {
            if group.occupied() == 0 {
                return Err(WorkerError::Gone);
            }
            group.feed(rows, &mut |seat, result: Result<(), StreamError>| {
                report(seat, result.map_err(map_stream_err));
            });
            Ok(())
        })
    }

    /// Workers seated in the group that have not finished or been dropped.
    pub fn seated(&self) -> usize {
        self.crew.group.lock().map_or(0, |group| group.occupied())
    }
}

impl PartialEq for WorkerGroup {
    fn eq(&self, other: &WorkerGroup) -> bool {
        Arc::ptr_eq(&self.crew, &other.crew)
    }
}

impl Eq for WorkerGroup {}

impl fmt::Debug for WorkerGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerGroup")
            .field("name", &self.crew.name)
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for SessionWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionWorker")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Run `f`, handing a panic back as its rendered cause instead of letting
/// it unwind into the caller (a connection thread, possibly holding the
/// host's own locks).
fn contained<T>(name: &str, label: &'static str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        format!(
            "session '{name}' panicked in {label}: {}",
            panic_cause(payload)
        )
    })
}

/// Stand a worker's session up on the calling thread, as a group of one:
/// compile the query, apply any resume checkpoint, join the shared
/// registry.
fn open_group(config: SessionWorkerConfig) -> Result<SessionGroup, WorkerError> {
    let SessionWorkerConfig {
        name,
        sql,
        schema,
        stream: mut options,
        resume_from,
        shared,
    } = config;
    contained(&name, "compile", || {
        let query = compile(&sql, &schema, &options.exec.compile)
            .map_err(|e| WorkerError::Input(e.render(&sql)))?;
        let query = Arc::new(query);
        if let Some(cp) = &resume_from {
            // The checkpoint's engine wins: a resumed subscription must
            // continue bit-identically, never silently switch machines.
            options.exec.engine = cp.engine();
        }
        let policy = options.exec.policy;
        let mut group =
            SessionGroup::open(Arc::clone(&query), options, resume_from).map_err(map_stream_err)?;
        if let Some(shared) = &shared {
            if let Some(join) = shared.registry.join(shared.origin, &query, policy) {
                group.install_shared(join);
            }
        }
        Ok(group)
    })
    .map_err(WorkerError::Runtime)?
}

impl SessionWorker {
    /// Stand the session up on the calling thread (no thread is spawned):
    /// compile the query, apply any resume checkpoint, join the shared
    /// registry.  A compile or resume failure surfaces here, not later.
    /// The worker sits alone in a group of its own.
    pub fn spawn(config: SessionWorkerConfig) -> Result<SessionWorker, WorkerError> {
        Self::spawn_in(config, std::iter::empty())
    }

    /// [`SessionWorker::spawn`], seated in the first of `groups` that
    /// takes the new session: one that, like it, has seen no tuple yet and
    /// admits alike.  A worker no group takes starts a group of its own;
    /// [`group`](SessionWorker::group) tells which it sits in.  The caller
    /// names the groups that will be fed the same tuples from the same
    /// point on (a server: those joining a channel at the same row); the
    /// group checks the rest.
    pub fn spawn_in<'a>(
        config: SessionWorkerConfig,
        groups: impl IntoIterator<Item = &'a WorkerGroup>,
    ) -> Result<SessionWorker, WorkerError> {
        let name = config.name.clone();
        let mut alone = open_group(config)?;
        for group in groups {
            // A poisoned lock guards a group no one should join.
            let Ok(mut joined) = group.crew.group.lock() else {
                continue;
            };
            match joined.join(alone) {
                Ok(seat) => {
                    let group = group.clone();
                    return Ok(SessionWorker { name, group, seat });
                }
                Err(unseated) => alone = *unseated,
            }
        }
        let crew = Crew {
            name: name.clone(),
            group: Mutex::new(alone),
            queued: AtomicU64::new(0),
        };
        Ok(SessionWorker {
            name,
            group: WorkerGroup {
                crew: Arc::new(crew),
            },
            seat: 0,
        })
    }

    /// Run `f` on this worker's group; a panic poisons this worker's
    /// session only.
    fn call<T>(
        &self,
        label: &'static str,
        f: impl FnOnce(&mut SessionGroup) -> Result<T, WorkerError>,
    ) -> Result<T, WorkerError> {
        self.group.crew.call(&self.name, Some(self.seat), label, f)
    }

    /// The group this worker sits in.
    pub fn group(&self) -> &WorkerGroup {
        &self.group
    }

    /// The seat this worker occupies in its group (0 for a solo worker):
    /// the seat [`WorkerGroup::feed`] reports its results under.
    pub fn seat(&self) -> usize {
        self.seat
    }

    /// Callers currently waiting for the session's group — the live
    /// contention gauge.
    pub fn queue_depth(&self) -> u64 {
        self.group.crew.queued.load(Ordering::Relaxed)
    }

    /// Push one tuple, a frame of one, into a worker that sits alone.  A
    /// worker seated beside others is fed through its
    /// [`group`](SessionWorker::group):
    /// a tuple goes to every member of a group or to none, so here it is
    /// refused with [`WorkerError::Runtime`] and nobody sees it.
    pub fn feed(&self, row: Vec<Value>) -> Result<(), WorkerError> {
        self.call("feed", |group| {
            group.view(self.seat).ok_or(WorkerError::Gone)?;
            let others = group.occupied() - 1;
            if others > 0 {
                return Err(WorkerError::Runtime(format!(
                    "session '{}' shares its group with {others} other(s): feed the group",
                    self.name
                )));
            }
            let mut fed = Ok(());
            group.feed(std::iter::once(row), &mut |_, result| fed = result);
            fed.map_err(map_stream_err)
        })
    }

    /// Capture the session as `sqlts-checkpoint v1` text.
    pub fn snapshot(&self) -> Result<String, WorkerError> {
        Ok(self.snapshot_with_records()?.0)
    }

    /// Capture the session as checkpoint text *plus* the record count the
    /// checkpoint represents, taken under the same lock — so a
    /// persistence layer can align the snapshot with its input log
    /// without re-parsing the text and without racing concurrent feeds.
    pub fn snapshot_with_records(&self) -> Result<(String, u64), WorkerError> {
        self.call("snapshot", |group| {
            // A tripped session still snapshots; the poll only latches.
            let _ = group.poll_deadline(self.seat);
            let view = group.view(self.seat).ok_or(WorkerError::Gone)?;
            let cp = view.snapshot().map_err(map_stream_err)?;
            Ok((cp.to_text(), cp.records()))
        })
    }

    /// A point-in-time status snapshot.
    pub fn status(&self) -> Result<SessionStatus, WorkerError> {
        self.call("status", |group| {
            let _ = group.poll_deadline(self.seat);
            let view = group.view(self.seat).ok_or(WorkerError::Gone)?;
            Ok(status_of(view))
        })
    }

    /// Close the stream: drive the session to end-of-input and return the
    /// final (or partial, when governed) result.  Every later call
    /// answers [`WorkerError::Gone`].
    pub fn finish(&self) -> Result<FinishReport, WorkerError> {
        self.call("finish", |group| {
            let _ = group.poll_deadline(self.seat);
            let view = group.view(self.seat).ok_or(WorkerError::Gone)?;
            let (skipped, quarantined) = (view.skipped(), view.quarantine().len());
            let finished = group.finish(self.seat).ok_or(WorkerError::Gone)?;
            Ok(finish_report(finished, skipped, quarantined))
        })
    }
}

impl Drop for SessionWorker {
    /// Give up the seat, so no one drives or keeps rows for a session no
    /// handle can reach any more.
    fn drop(&mut self) {
        if let Ok(mut group) = self.group.crew.group.lock() {
            let seat = self.seat;
            let _ = catch_unwind(AssertUnwindSafe(|| group.vacate(seat)));
        }
    }
}

fn status_of(view: SessionView<'_>) -> SessionStatus {
    SessionStatus {
        records: view.records(),
        skipped: view.skipped(),
        quarantined: view.quarantine().len(),
        window_bytes: view.window_bytes(),
        predicate_tests: view.predicate_tests(),
        trip: view.trip().cloned(),
        poisoned: view.poisoned(),
    }
}

fn finish_report(
    finished: Result<QueryResult, StreamError>,
    skipped: u64,
    quarantined: usize,
) -> FinishReport {
    match finished {
        Ok(result) => FinishReport {
            csv: result.table.to_csv_string(),
            rows: result.stats.matches,
            trip: None,
            error: None,
            predicate_tests: result.stats.predicate_tests,
            profile: result.profile,
            skipped,
            quarantined,
        },
        Err(StreamError::Governed { trip, partial }) => {
            let (csv, rows, predicate_tests, profile) = match partial {
                Some(p) => (
                    p.table.to_csv_string(),
                    p.stats.matches,
                    p.stats.predicate_tests,
                    p.profile,
                ),
                None => (String::new(), 0, 0, None),
            };
            FinishReport {
                csv,
                rows,
                trip: Some(trip),
                error: None,
                profile,
                skipped,
                quarantined,
                predicate_tests,
            }
        }
        Err(e) => FinishReport {
            csv: String::new(),
            rows: 0,
            trip: None,
            error: Some(e.to_string()),
            profile: None,
            skipped,
            quarantined,
            predicate_tests: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecOptions, Instrument};
    use crate::governor::{Governor, TripReason};
    use crate::EngineKind;
    use sqlts_relation::{ColumnType, Table, Value};
    use std::time::Duration;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("day", ColumnType::Int),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    const QUERY: &str = "SELECT X.name, Z.price AS peak, Z.day AS day FROM quote \
                         CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) \
                         WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

    fn workload() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for day in 0..60i64 {
            for (name, phase) in [("AAA", 0i64), ("BBB", 3)] {
                let wave = ((day + phase) % 7) as f64;
                rows.push(vec![
                    Value::Str(name.to_string()),
                    Value::Int(day),
                    Value::Float(100.0 + 3.0 * wave - 0.1 * day as f64),
                ]);
            }
        }
        rows
    }

    fn batch_csv(rows: &[Vec<Value>]) -> String {
        batch_csv_of(QUERY, rows)
    }

    fn batch_csv_of(sql: &str, rows: &[Vec<Value>]) -> String {
        let mut t = Table::new(quote_schema());
        for row in rows {
            t.push_row(row.clone()).unwrap();
        }
        let q = crate::compile(sql, &quote_schema(), &crate::CompileOptions::default()).unwrap();
        execute(&q, &t, &ExecOptions::default())
            .unwrap()
            .table
            .to_csv_string()
    }

    #[test]
    fn worker_matches_batch_and_resumes_from_checkpoint() {
        let rows = workload();
        let expected = batch_csv(&rows);

        // Straight through.
        let worker =
            SessionWorker::spawn(SessionWorkerConfig::new("t1", QUERY, quote_schema())).unwrap();
        for row in &rows {
            worker.feed(row.clone()).unwrap();
        }
        let report = worker.finish().unwrap();
        assert!(report.trip.is_none());
        assert_eq!(report.csv, expected);

        // Checkpoint at the midpoint, drop the worker, resume in a new one.
        let first =
            SessionWorker::spawn(SessionWorkerConfig::new("t2", QUERY, quote_schema())).unwrap();
        let mid = rows.len() / 2;
        for row in &rows[..mid] {
            first.feed(row.clone()).unwrap();
        }
        let checkpoint = first.snapshot().unwrap();
        drop(first);
        let mut config = SessionWorkerConfig::new("t3", QUERY, quote_schema());
        config.resume_from = Some(SessionCheckpoint::from_text(&checkpoint).unwrap());
        let second = SessionWorker::spawn(config).unwrap();
        for row in &rows[mid..] {
            second.feed(row.clone()).unwrap();
        }
        let resumed = second.finish().unwrap();
        assert_eq!(resumed.csv, expected, "resumed output must equal batch");
    }

    #[test]
    fn stalled_worker_trips_deadline_from_idle_loop() {
        // The acceptance criterion: a non-feeding subscription with a
        // wall-clock deadline trips Governed with no further feed call.
        let mut config = SessionWorkerConfig::new("stall", QUERY, quote_schema());
        config.stream.exec.governor = Governor::unlimited().with_timeout(Duration::from_millis(20));
        let worker = SessionWorker::spawn(config).unwrap();
        worker
            .feed(vec![
                Value::Str("AAA".into()),
                Value::Int(0),
                Value::Float(100.0),
            ])
            .unwrap();
        // Stall: no feeds.  The idle loop must latch the trip by itself.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let trip = loop {
            let status = worker.status().unwrap();
            if let Some(trip) = status.trip {
                break trip;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stalled session never tripped its deadline"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(trip.reason, TripReason::Deadline);
        // finish() reports the partial result with the trip attached.
        let report = worker.finish().unwrap();
        assert_eq!(report.trip.unwrap().reason, TripReason::Deadline);
    }

    #[test]
    fn compile_and_governed_errors_map_to_exit_codes() {
        let err = SessionWorker::spawn(SessionWorkerConfig::new(
            "bad",
            "SELECT nonsense FROM",
            quote_schema(),
        ))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "compile error is input class");

        let mut config = SessionWorkerConfig::new("budget", QUERY, quote_schema());
        config.stream.exec.governor = Governor::unlimited().with_max_steps(10);
        config.stream.exec.instrument = Instrument::default();
        let worker = SessionWorker::spawn(config).unwrap();
        let mut governed = None;
        for row in workload() {
            if let Err(e) = worker.feed(row) {
                governed = Some(e);
                break;
            }
        }
        let err = governed.expect("a 10-step budget must trip");
        assert!(matches!(err, WorkerError::Governed(_)), "{err}");
        assert_eq!(err.exit_code(), 4);
        let report = worker.finish().unwrap();
        assert!(report.trip.is_some());
    }

    #[test]
    fn resume_adopts_checkpoint_engine() {
        let rows = workload();
        let mut config = SessionWorkerConfig::new("naive", QUERY, quote_schema());
        config.stream.exec.engine = EngineKind::Naive;
        let worker = SessionWorker::spawn(config).unwrap();
        for row in &rows[..10] {
            worker.feed(row.clone()).unwrap();
        }
        let checkpoint = worker.snapshot().unwrap();
        drop(worker);
        // Resume with a *different* configured engine: the checkpoint's
        // engine must win so continuation is bit-identical.
        let mut config = SessionWorkerConfig::new("resumed", QUERY, quote_schema());
        config.stream.exec.engine = EngineKind::Ops;
        config.resume_from = Some(SessionCheckpoint::from_text(&checkpoint).unwrap());
        let worker = SessionWorker::spawn(config).unwrap();
        for row in &rows[10..] {
            worker.feed(row.clone()).unwrap();
        }
        let report = worker.finish().unwrap();
        assert_eq!(report.csv, batch_csv(&rows));
    }

    #[test]
    fn concurrent_observers_never_perturb_the_feed() {
        // One feeder, two observers hammering status/snapshot through the
        // same lock: the result is still byte-identical to batch.
        let rows = workload();
        let worker =
            SessionWorker::spawn(SessionWorkerConfig::new("seam", QUERY, quote_schema())).unwrap();
        let start = std::sync::Barrier::new(3);
        let fed = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for row in &rows {
                    worker.feed(row.clone()).unwrap();
                }
                fed.store(true, Ordering::SeqCst);
            });
            for snapshots in [false, true] {
                let (worker, start, fed, total) = (&worker, &start, &fed, rows.len() as u64);
                scope.spawn(move || {
                    start.wait();
                    loop {
                        // Read the flag first so the last probe is
                        // guaranteed to run after the last feed.
                        let done = fed.load(Ordering::SeqCst);
                        let records = if snapshots {
                            worker.snapshot_with_records().unwrap().1
                        } else {
                            worker.status().unwrap().records
                        };
                        assert!(records <= total);
                        if done {
                            assert_eq!(records, total);
                            break;
                        }
                    }
                });
            }
        });
        assert_eq!(worker.queue_depth(), 0);
        assert_eq!(worker.status().unwrap().records, rows.len() as u64);
        let report = worker.finish().unwrap();
        assert!(report.trip.is_none() && report.error.is_none());
        assert_eq!(report.csv, batch_csv(&rows));
    }

    #[test]
    fn finish_alone_reports_a_deadline_that_passed_while_idle() {
        let mut config = SessionWorkerConfig::new("idle", QUERY, quote_schema());
        config.stream.exec.governor = Governor::unlimited().with_timeout(Duration::from_millis(20));
        let worker = SessionWorker::spawn(config).unwrap();
        worker
            .feed(vec![
                Value::Str("AAA".into()),
                Value::Int(0),
                Value::Float(100.0),
            ])
            .unwrap();
        // No call of any kind while the deadline passes.
        std::thread::sleep(Duration::from_millis(60));
        let report = worker.finish().unwrap();
        assert_eq!(report.trip.unwrap().reason, TripReason::Deadline);
    }

    #[test]
    fn workers_seated_together_share_one_feed_and_read_back_their_own_results() {
        let rows = workload();
        let lower = "SELECT X.name, Y.day AS day FROM quote CLUSTER BY name SEQUENCE BY day \
                     AS (X, Y) WHERE Y.price < X.price";
        let unclustered = "SELECT X.day FROM quote SEQUENCE BY day AS (X, Y) \
                           WHERE Y.price < X.price";
        let config = |name: &str, sql: &str| SessionWorkerConfig::new(name, sql, quote_schema());
        let lead = SessionWorker::spawn(config("a", QUERY)).unwrap();
        let beside = SessionWorker::spawn_in(config("b", lower), [lead.group()]).unwrap();
        // Another CLUSTER BY admits differently: a group of its own.
        let apart = SessionWorker::spawn_in(config("c", unclustered), [lead.group()]).unwrap();
        assert_eq!(beside.group(), lead.group());
        assert_ne!(apart.group(), lead.group());
        assert_eq!((lead.seat(), beside.seat(), apart.seat()), (0, 1, 0));
        assert_eq!((lead.group().seated(), apart.group().seated()), (2, 1));
        // One seat of a group is never fed alone: nobody sees the row.
        let refused = lead.feed(rows[0].clone()).unwrap_err();
        assert!(matches!(refused, WorkerError::Runtime(_)), "{refused}");
        assert_eq!(beside.status().unwrap().records, 0);
        let mut accepted = [0; 2];
        for row in &rows[..10] {
            let tally = |seat: usize, result: Result<(), WorkerError>| {
                result.unwrap();
                accepted[seat] += 1;
            };
            lead.group().feed([row.clone()], tally).unwrap();
            apart.feed(row.clone()).unwrap();
        }
        assert_eq!(accepted, [10, 10]);
        // A worker that arrives after a tuple was admitted has not seen it.
        let late = SessionWorker::spawn_in(config("d", QUERY), [lead.group()]).unwrap();
        assert_ne!(late.group(), lead.group());
        // Any handle on the group feeds all of it, a frame under one lock.
        beside
            .group()
            .feed(rows[10..].iter().cloned(), |_, result| result.unwrap())
            .unwrap();
        for row in &rows[10..] {
            apart.feed(row.clone()).unwrap();
        }
        assert_eq!(lead.status().unwrap().records, rows.len() as u64);
        assert_eq!(beside.status().unwrap().records, rows.len() as u64);
        assert_eq!(lead.finish().unwrap().csv, batch_csv(&rows));
        assert!(matches!(lead.feed(rows[0].clone()), Err(WorkerError::Gone)));
        assert_eq!(lead.group().seated(), 1);
        assert_eq!(beside.finish().unwrap().csv, batch_csv_of(lower, &rows));
        let empty = lead.group().feed([rows[0].clone()], |_, _| unreachable!());
        assert!(matches!(empty, Err(WorkerError::Gone)));
        assert_eq!(
            apart.finish().unwrap().csv,
            batch_csv_of(unclustered, &rows)
        );
        assert_eq!(late.finish().unwrap().rows, 0);
    }

    #[test]
    fn a_dropped_worker_gives_up_its_seat() {
        let rows = workload();
        let config = |name: &str| SessionWorkerConfig::new(name, QUERY, quote_schema());
        let kept = SessionWorker::spawn(config("kept")).unwrap();
        let dropped = SessionWorker::spawn_in(config("dropped"), [kept.group()]).unwrap();
        assert_eq!(kept.group().seated(), 2);
        drop(dropped);
        assert_eq!(kept.group().seated(), 1);
        // Nobody else is seated, so the survivor feeds as a solo worker.
        for row in &rows {
            kept.feed(row.clone()).unwrap();
        }
        assert_eq!(kept.finish().unwrap().csv, batch_csv(&rows));
        assert_eq!(kept.group().seated(), 0);
    }

    #[test]
    fn a_governed_worker_leaves_its_group_exactly_as_it_would_trip_alone() {
        let rows = workload();
        let budget = || {
            let mut config = SessionWorkerConfig::new("budget", QUERY, quote_schema());
            config.stream.exec.governor = Governor::unlimited().with_max_steps(10);
            config
        };
        let free =
            SessionWorker::spawn(SessionWorkerConfig::new("free", QUERY, quote_schema())).unwrap();
        let seated = SessionWorker::spawn_in(budget(), [free.group()]).unwrap();
        let alone = SessionWorker::spawn(budget()).unwrap();
        assert_eq!(seated.group(), free.group());
        for row in &rows {
            let mut fed = [None, None];
            free.group()
                .feed([row.clone()], |seat, result| {
                    fed[seat] = Some(result.is_ok())
                })
                .unwrap();
            assert_eq!(fed[0], Some(true));
            assert_eq!(fed[1], Some(alone.feed(row.clone()).is_ok()));
        }
        assert_eq!(seated.snapshot().unwrap(), alone.snapshot().unwrap());
        let (ours, theirs) = (seated.finish().unwrap(), alone.finish().unwrap());
        assert_eq!(ours.csv, theirs.csv);
        let reason = |r: &FinishReport| r.trip.as_ref().map(|t| (t.reason, t.steps));
        assert_eq!(reason(&ours), reason(&theirs));
        assert!(ours.trip.is_some());
        assert_eq!(free.finish().unwrap().csv, batch_csv(&rows));
    }

    #[test]
    fn every_call_after_finish_answers_gone() {
        let worker =
            SessionWorker::spawn(SessionWorkerConfig::new("gone", QUERY, quote_schema())).unwrap();
        worker.finish().unwrap();
        let row = workload().swap_remove(0);
        assert!(matches!(worker.feed(row), Err(WorkerError::Gone)));
        assert!(matches!(worker.status(), Err(WorkerError::Gone)));
        assert!(matches!(worker.snapshot(), Err(WorkerError::Gone)));
        assert!(matches!(worker.finish(), Err(WorkerError::Gone)));
        assert_eq!(worker.queue_depth(), 0);
    }
}
