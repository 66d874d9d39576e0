//! Fault-injection tests for the streaming session's resilience story
//! (compiled only under `--features failpoints`).
//!
//! Each test arms the process-global failpoint registry at one of the
//! stream sites (`stream::feed`, `stream::drive`, `stream::checkpoint`)
//! or an engine-path site (`governor::check`) and asserts the session
//! degrades the way the design promises: panics are contained and a
//! checkpoint resumes past them, a panic in the middle of a group's frame
//! is pinned on the member it interrupted, injected ingest errors take
//! the quarantine path, exhausted budgets trip the governor while the
//! checkpoint stays valid.

#![cfg(feature = "failpoints")]

use sqlts_core::failpoints::{self, FailAction};
use sqlts_core::stream::{
    BadTuplePolicy, SessionCheckpoint, StreamError, StreamOptions, StreamSession,
};
use sqlts_core::{
    compile, execute, CompileOptions, CompiledQuery, ExecOptions, Governor, TripReason,
};
use sqlts_relation::{ColumnType, Schema, Table, Value};
use std::sync::{Mutex, MutexGuard};

/// The registry is process-global: every test serializes on this lock and
/// resets the registry on entry and exit (also when the test panics).
static SERIAL: Mutex<()> = Mutex::new(());

struct RegistryGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        failpoints::reset();
    }
}

fn armed() -> RegistryGuard {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    failpoints::reset();
    RegistryGuard(guard)
}

fn quote_schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("day", ColumnType::Int),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

const QUERY: &str = "SELECT X.name, Y.price AS p FROM quote \
                     CLUSTER BY name SEQUENCE BY day AS (X, Y) \
                     WHERE Y.price > X.price";

fn compiled() -> CompiledQuery {
    compile(QUERY, &quote_schema(), &CompileOptions::default()).unwrap()
}

/// Two interleaved clusters with alternating rises so the query matches
/// repeatedly throughout the stream.
fn rows() -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for day in 0..30i64 {
        for name in ["AAA", "BBB"] {
            let price = if day % 2 == 0 { 100.0 } else { 110.0 } + day as f64;
            out.push(vec![
                Value::Str(name.to_string()),
                Value::Int(day),
                Value::Float(price),
            ]);
        }
    }
    out
}

fn batch_table(rows: &[Vec<Value>]) -> Table {
    let mut t = Table::new(quote_schema());
    for row in rows {
        t.push_row(row.clone()).unwrap();
    }
    t
}

fn table_rows(t: &Table) -> Vec<Vec<Value>> {
    t.rows().map(<[Value]>::to_vec).collect()
}

/// A panic injected mid-feed poisons the session — and a checkpoint taken
/// before the panic resumes past it to the exact batch result.
#[test]
fn panic_mid_feed_recovers_via_resume() {
    let _guard = armed();
    let query = compiled();
    let rows = rows();
    let batch = execute(&query, &batch_table(&rows), &ExecOptions::default()).unwrap();

    // Checkpoint after 20 tuples; panic on the 21st feed.
    failpoints::configure_rule("stream::feed", FailAction::Panic, 21, None, true);
    let mut session = StreamSession::new(&query, StreamOptions::default()).unwrap();
    for row in &rows[..20] {
        session.feed(row.clone()).unwrap();
    }
    let checkpoint = session.snapshot().unwrap();
    match session.feed(rows[20].clone()) {
        Err(StreamError::Poisoned(cause)) => {
            assert!(
                cause.contains("stream::feed"),
                "cause names the site: {cause}"
            )
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    // The poisoned session refuses everything…
    assert!(session.poisoned());
    assert!(matches!(
        session.feed(rows[20].clone()),
        Err(StreamError::Poisoned(_))
    ));
    assert!(matches!(session.snapshot(), Err(StreamError::Poisoned(_))));
    assert!(matches!(session.finish(), Err(StreamError::Poisoned(_))));

    // …but the pre-panic checkpoint picks the stream back up: replay only
    // the tuples after the checkpoint, not the whole history.
    let checkpoint = SessionCheckpoint::from_text(&checkpoint.to_text()).unwrap();
    let mut resumed = StreamSession::resume(&query, StreamOptions::default(), checkpoint).unwrap();
    assert_eq!(resumed.records(), 20);
    for row in &rows[20..] {
        resumed.feed(row.clone()).unwrap();
    }
    let result = resumed.finish().unwrap();
    assert_eq!(table_rows(&result.table), table_rows(&batch.table));
    assert_eq!(result.stats, batch.stats);
}

/// An injected error at `stream::feed` takes the bad-tuple path: under
/// the quarantine policy the tuple is parked, the stream continues, and
/// only that one tuple is missing from the output's input.
#[test]
fn injected_feed_error_lands_in_quarantine() {
    let _guard = armed();
    let query = compiled();
    let rows = rows();
    // Reject exactly the 7th record.
    failpoints::configure_rule("stream::feed", FailAction::InjectError, 1, Some(7), false);
    let options = StreamOptions {
        bad_tuple: BadTuplePolicy::Quarantine { cap: 8 },
        ..StreamOptions::default()
    };
    let mut session = StreamSession::new(&query, options).unwrap();
    for row in &rows {
        session.feed(row.clone()).unwrap();
    }
    assert_eq!(session.quarantine().len(), 1);
    let bad = &session.quarantine()[0];
    assert_eq!(bad.record, 7);
    assert!(bad.reason.contains("stream::feed"), "{}", bad.reason);
    let streamed = session.finish().unwrap();

    // The same stream minus the quarantined tuple, run in batch.
    let mut pruned = rows.clone();
    pruned.remove(6);
    let batch = execute(&query, &batch_table(&pruned), &ExecOptions::default()).unwrap();
    assert_eq!(table_rows(&streamed.table), table_rows(&batch.table));
}

/// Under [`BadTuplePolicy::Fail`] the same injection surfaces as a
/// [`StreamError::BadTuple`] instead of being parked.
#[test]
fn injected_feed_error_fails_under_fail_policy() {
    let _guard = armed();
    let query = compiled();
    failpoints::configure_rule("stream::feed", FailAction::InjectError, 1, None, true);
    let mut session = StreamSession::new(&query, StreamOptions::default()).unwrap();
    match session.feed(rows()[0].clone()) {
        Err(StreamError::BadTuple(bad)) => {
            assert_eq!(bad.record, 1);
            assert!(bad.reason.contains("injected"), "{}", bad.reason);
        }
        other => panic!("expected BadTuple, got {other:?}"),
    }
    // A rejection is not a poisoning: the session keeps going.
    session.feed(rows()[0].clone()).unwrap();
}

/// An `ExhaustBudget` injection at `governor::check` trips the governed
/// session mid-stream; the trip carries a valid checkpoint (snapshot still
/// works) and resuming with a fresh governor completes the stream to the
/// exact ungoverned batch result.
#[test]
fn exhaust_budget_trip_carries_a_valid_checkpoint() {
    let _guard = armed();
    let query = compiled();
    let rows = rows();
    let batch = execute(&query, &batch_table(&rows), &ExecOptions::default()).unwrap();

    // Fire on the second governor check (the second cluster's opening
    // refill), so the trip lands mid-stream with real progress behind it.
    failpoints::configure_rule("governor::check", FailAction::ExhaustBudget, 2, None, true);
    let options = StreamOptions {
        exec: ExecOptions {
            governor: Governor::unlimited().with_max_steps(1_000_000),
            ..ExecOptions::default()
        },
        ..StreamOptions::default()
    };
    let mut session = StreamSession::new(&query, options).unwrap();
    let mut tripped = false;
    for row in &rows {
        match session.feed(row.clone()) {
            Ok(()) => {}
            Err(StreamError::Governed { trip, .. }) => {
                assert_eq!(trip.reason, TripReason::StepBudget);
                tripped = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(
        tripped,
        "the injected budget exhaustion must trip the session"
    );
    assert!(session.tripped());

    // The tripped session still checkpoints.  A tuple whose drive observed
    // the trip was already buffered (it is part of the frozen window), so
    // the checkpoint's own record count — not the caller's tally of Ok
    // feeds — is the authoritative resume position.
    let checkpoint = session.snapshot().unwrap();
    let text = checkpoint.to_text();
    let checkpoint = SessionCheckpoint::from_text(&text).unwrap();
    let consumed = checkpoint.records() as usize;
    assert!(consumed > 0 && consumed < rows.len());

    let mut resumed = StreamSession::resume(&query, StreamOptions::default(), checkpoint).unwrap();
    for row in &rows[consumed..] {
        resumed.feed(row.clone()).unwrap();
    }
    let result = resumed.finish().unwrap();
    assert_eq!(table_rows(&result.table), table_rows(&batch.table));
    assert_eq!(result.stats, batch.stats);
}

/// An injected error at `stream::checkpoint` surfaces as
/// [`StreamError::Checkpoint`] and leaves the session healthy: the next
/// snapshot succeeds and the stream finishes normally.
#[test]
fn injected_checkpoint_error_is_transient() {
    let _guard = armed();
    let query = compiled();
    let rows = rows();
    failpoints::configure_rule("stream::checkpoint", FailAction::InjectError, 1, None, true);
    let mut session = StreamSession::new(&query, StreamOptions::default()).unwrap();
    for row in &rows[..10] {
        session.feed(row.clone()).unwrap();
    }
    match session.snapshot() {
        Err(StreamError::Checkpoint(why)) => {
            assert!(why.contains("stream::checkpoint"), "{why}")
        }
        other => panic!("expected Checkpoint error, got {other:?}"),
    }
    // Transient: the rule was once-only, the session was not poisoned.
    let checkpoint = session.snapshot().unwrap();
    assert_eq!(checkpoint.records(), 10);
    for row in &rows[10..] {
        session.feed(row.clone()).unwrap();
    }
    let batch = execute(&query, &batch_table(&rows), &ExecOptions::default()).unwrap();
    let streamed = session.finish().unwrap();
    assert_eq!(table_rows(&streamed.table), table_rows(&batch.table));
}

/// A delayed feed (the slow-consumer simulation) changes nothing about
/// the results: DelayMs fires inside the failpoint and the stream's
/// output stays bit-identical to batch.
#[test]
fn delayed_feed_does_not_change_results() {
    let _guard = armed();
    let query = compiled();
    let rows = rows();
    failpoints::configure_rule("stream::feed", FailAction::DelayMs(5), 10, None, true);
    let mut session = StreamSession::new(&query, StreamOptions::default()).unwrap();
    for row in &rows {
        session.feed(row.clone()).unwrap();
    }
    let streamed = session.finish().unwrap();
    let batch = execute(&query, &batch_table(&rows), &ExecOptions::default()).unwrap();
    assert_eq!(table_rows(&streamed.table), table_rows(&batch.table));
    assert_eq!(streamed.stats, batch.stats);
}

/// A panic inside a [`SessionWorker`] call other than `feed` runs on the
/// caller's thread: it must come back as a runtime-class error, leave the
/// worker answering (with errors) and the calling thread alive.
#[test]
fn worker_contains_a_snapshot_panic_on_the_callers_thread() {
    use sqlts_core::{SessionWorker, SessionWorkerConfig, WorkerError};

    let _guard = armed();
    let rows = rows();
    failpoints::configure_rule("stream::checkpoint", FailAction::Panic, 1, None, true);
    let worker =
        SessionWorker::spawn(SessionWorkerConfig::new("fp", QUERY, quote_schema())).unwrap();
    for row in &rows[..10] {
        worker.feed(row.clone()).unwrap();
    }
    match worker.snapshot() {
        Err(e @ WorkerError::Runtime(_)) => {
            assert_eq!(e.exit_code(), 4);
            assert!(e.to_string().contains("stream::checkpoint"), "{e}");
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    // The rule was once-only, so these fail because the session is
    // poisoned — not because the failpoint fired again.
    assert!(matches!(worker.snapshot(), Err(WorkerError::Runtime(_))));
    assert!(matches!(
        worker.feed(rows[10].clone()),
        Err(WorkerError::Runtime(_))
    ));
    assert!(worker.status().unwrap().poisoned);
    assert_eq!(worker.queue_depth(), 0);
    let report = worker.finish().unwrap();
    assert!(report
        .error
        .is_some_and(|e| e.contains("stream::checkpoint")));
    assert!(matches!(worker.status(), Err(WorkerError::Gone)));
}

/// A panic in one grouped worker's snapshot is that worker's alone: it is
/// poisoned, while the worker seated beside it keeps its session, is fed
/// on, and reads back exactly the batch result.
#[test]
fn a_snapshot_panic_poisons_only_its_own_seat() {
    use sqlts_core::{SessionWorker, SessionWorkerConfig, WorkerError};

    let _guard = armed();
    let rows = rows();
    let config = |name: &str| SessionWorkerConfig::new(name, QUERY, quote_schema());
    let healthy = SessionWorker::spawn(config("healthy")).unwrap();
    let panicking = SessionWorker::spawn_in(config("panicking"), [healthy.group()]).unwrap();
    assert_eq!(panicking.group(), healthy.group());
    let feed = |rows: &[Vec<Value>]| {
        let mut refused = [0; 2];
        healthy
            .group()
            .feed(rows.iter().cloned(), |seat, result| {
                refused[seat] += u32::from(result.is_err());
            })
            .unwrap();
        refused
    };
    assert_eq!(feed(&rows[..10]), [0, 0]);
    failpoints::configure_rule("stream::checkpoint", FailAction::Panic, 1, None, true);
    assert!(matches!(panicking.snapshot(), Err(WorkerError::Runtime(_))));
    assert!(panicking.status().unwrap().poisoned);
    assert!(!healthy.status().unwrap().poisoned);
    let rest = &rows[10..];
    assert_eq!(feed(rest), [0, rest.len() as u32]);
    assert!(healthy.snapshot().is_ok());
    let report = healthy.finish().unwrap();
    assert!(report.error.is_none());
    let query = compiled();
    let batch = execute(&query, &batch_table(&rows), &ExecOptions::default()).unwrap();
    assert_eq!(report.csv, batch.table.to_csv_string());
    let report = panicking.finish().unwrap();
    assert!(report
        .error
        .is_some_and(|e| e.contains("stream::checkpoint")));
}

/// Poisoning is contained as well.  A member poisoned by a panic leaves
/// its group with a copy of its view of the window; when copying that
/// view panics too, the caller still gets `WorkerError::Runtime`, not an
/// unwind, and every session in the group is poisoned without a view
/// being built.
#[test]
fn a_panic_while_poisoning_poisons_the_group_without_unwinding() {
    use sqlts_core::{SessionWorker, SessionWorkerConfig, WorkerError};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let _guard = armed();
    let rows = rows();
    let config = |name: &str| SessionWorkerConfig::new(name, QUERY, quote_schema());
    let healthy = SessionWorker::spawn(config("healthy")).unwrap();
    let panicking = SessionWorker::spawn_in(config("panicking"), [healthy.group()]).unwrap();
    assert_eq!(panicking.group(), healthy.group());
    let feed = |rows: &[Vec<Value>]| {
        let mut refused = [0; 2];
        healthy
            .group()
            .feed(rows.iter().cloned(), |seat, result| {
                refused[seat] += u32::from(result.is_err());
            })
            .unwrap();
        refused
    };
    assert_eq!(feed(&rows[..10]), [0, 0]);
    failpoints::configure_rule("stream::checkpoint", FailAction::Panic, 1, None, true);
    failpoints::configure_rule("stream::view_for", FailAction::Panic, 1, None, true);
    match catch_unwind(AssertUnwindSafe(|| panicking.snapshot())) {
        Ok(Err(WorkerError::Runtime(cause))) => {
            assert!(cause.contains("stream::checkpoint"), "{cause}");
        }
        Ok(other) => panic!("expected a contained panic, got {other:?}"),
        Err(_) => panic!("a panic while poisoning unwound into the caller"),
    }
    // The rules were once-only: from here on views copy normally, and
    // each seat answers as the poisoned session it now is.
    assert!(panicking.status().unwrap().poisoned);
    assert!(healthy.status().unwrap().poisoned);
    let rest = &rows[10..];
    assert_eq!(feed(rest), [rest.len() as u32; 2]);
    for worker in [&healthy, &panicking] {
        let report = worker.finish().unwrap();
        assert!(report
            .error
            .is_some_and(|e| e.contains("stream::checkpoint")));
    }
}

/// A second query over the same admission, whose floors and counts differ
/// from [`QUERY`]'s.
const FALLS: &str = "SELECT X.name, Y.day AS d FROM quote \
                     CLUSTER BY name SEQUENCE BY day AS (X, Y) \
                     WHERE Y.price < X.price";

/// Three workers seated in one group — `QUERY`, `FALLS`, `QUERY` — and
/// a solo session of each to read them against.
fn seated_trio() -> (
    Vec<sqlts_core::SessionWorker>,
    Vec<StreamSession>,
    Vec<CompiledQuery>,
) {
    use sqlts_core::{SessionWorker, SessionWorkerConfig};
    let sqls = [QUERY, FALLS, QUERY];
    let queries: Vec<CompiledQuery> = sqls
        .iter()
        .map(|sql| compile(sql, &quote_schema(), &CompileOptions::default()).unwrap())
        .collect();
    let config = |i: usize| SessionWorkerConfig::new(format!("w{i}"), sqls[i], quote_schema());
    let lead = SessionWorker::spawn(config(0)).unwrap();
    let mut workers = vec![];
    for i in 1..sqls.len() {
        workers.push(SessionWorker::spawn_in(config(i), [lead.group()]).unwrap());
    }
    workers.insert(0, lead);
    assert!(workers.iter().all(|w| w.group() == workers[0].group()));
    let solos = queries
        .iter()
        .map(|q| StreamSession::new(q, StreamOptions::default()).unwrap())
        .collect();
    (workers, solos, queries)
}

/// Feed `rows` to the trio's group as one frame: each seat's verdicts.
fn feed_frame(workers: &[sqlts_core::SessionWorker], rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut verdicts = vec![Vec::new(); workers.len()];
    workers[0]
        .group()
        .feed(rows.iter().cloned(), |seat, result| {
            verdicts[seat].push(match result {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("{} {e}", e.exit_code()),
            })
        })
        .unwrap();
    verdicts
}

/// What the worker reports for its solo twin's feed results.
fn solo_verdicts(solo: &mut StreamSession, rows: &[Vec<Value>]) -> Vec<String> {
    let verdict = |result: Result<(), StreamError>| match result {
        Ok(()) => "ok".to_string(),
        Err(e @ StreamError::Poisoned(_)) => format!("4 {e}"),
        Err(e) => panic!("unexpected solo error: {e}"),
    };
    rows.iter()
        .map(|row| verdict(solo.feed(row.clone())))
        .collect()
}

/// The status fields a seat and its solo session must share.
fn status_of(worker: &sqlts_core::SessionWorker) -> (u64, usize, u64, bool) {
    let s = worker.status().unwrap();
    (s.records, s.window_bytes, s.predicate_tests, s.poisoned)
}

fn solo_status(solo: &StreamSession) -> (u64, usize, u64, bool) {
    let tests = solo.predicate_tests();
    (solo.records(), solo.window_bytes(), tests, solo.poisoned())
}

/// A panic in one member's once-per-frame drive is that member's alone:
/// it reports `Poisoned` from the first row, in frame order, of the
/// cluster it was driving, while every other member's verdicts, status,
/// checkpoint and finish stay byte-identical to its solo session.
#[test]
fn a_panicking_drive_poisons_its_member_from_the_first_row_of_its_cluster() {
    let _guard = armed();
    let rows = rows();
    let (workers, mut solos, queries) = seated_trio();
    let first = feed_frame(&workers, &rows[..10]);
    for (seat, solo) in solos.iter_mut().enumerate() {
        assert_eq!(first[seat], solo_verdicts(solo, &rows[..10]), "seat {seat}");
    }
    // The next frame opens with AAA (row 0) then BBB (row 1); each seat
    // drives its clusters in that order, seat after seat: seat 1's drive
    // of BBB is the frame's fourth hit of the site.
    let fourth = failpoints::hit_count("stream::drive") + 4;
    failpoints::configure_rule("stream::drive", FailAction::Panic, fourth, Some(1), true);
    let frame = &rows[10..30];
    let fed = feed_frame(&workers, frame);
    assert_eq!(fed[1][0], "ok");
    for verdict in &fed[1][1..] {
        assert!(
            verdict.starts_with("4 ") && verdict.contains("stream::drive"),
            "{verdict}"
        );
    }
    assert!(workers[1].status().unwrap().poisoned);
    let rest = &rows[30..];
    let after = feed_frame(&workers, rest);
    assert!(after[1].iter().all(|v| v.contains("stream::drive")));
    for seat in [0, 2] {
        let solo = &mut solos[seat];
        assert_eq!(fed[seat], solo_verdicts(solo, frame), "seat {seat}");
        assert_eq!(after[seat], solo_verdicts(solo, rest), "seat {seat}");
        assert_eq!(status_of(&workers[seat]), solo_status(solo), "seat {seat}");
        let text = solo.snapshot().unwrap().to_text();
        assert_eq!(workers[seat].snapshot().unwrap(), text, "seat {seat}");
    }
    for (seat, solo) in solos.into_iter().enumerate() {
        let report = workers[seat].finish().unwrap();
        if seat == 1 {
            assert!(report.error.is_some_and(|e| e.contains("stream::drive")));
            continue;
        }
        let solo = solo.finish().unwrap();
        assert_eq!(report.csv, solo.table.to_csv_string(), "seat {seat}");
        assert_eq!(report.predicate_tests, solo.stats.predicate_tests);
        let batch = execute(&queries[seat], &batch_table(&rows), &ExecOptions::default());
        assert_eq!(report.csv, batch.unwrap().table.to_csv_string());
    }
}

/// A panic in admission halfway through a frame poisons every member —
/// but only after the rows the frame admitted before it are driven, so
/// each member stands exactly where feeding the rows one by one leaves a
/// session that panics on the same row.
#[test]
fn an_admission_panic_mid_frame_first_drives_what_the_frame_admitted() {
    let _guard = armed();
    let rows = rows();
    let (workers, mut solos, _) = seated_trio();
    let feed_all = |workers: &[sqlts_core::SessionWorker]| feed_frame(workers, &rows[..10]);
    let first = feed_all(&workers);
    for (seat, solo) in solos.iter_mut().enumerate() {
        assert_eq!(first[seat], solo_verdicts(solo, &rows[..10]), "seat {seat}");
    }
    // Every session panics when it admits its 23rd record.
    failpoints::configure_rule("stream::feed", FailAction::Panic, 1, Some(23), false);
    let frame = &rows[10..40];
    let fed = feed_frame(&workers, frame);
    for (seat, solo) in solos.iter_mut().enumerate() {
        let theirs = solo_verdicts(solo, frame);
        assert!(theirs[12].contains("stream::feed"), "{}", theirs[12]);
        assert_eq!(fed[seat], theirs, "seat {seat}");
        assert_eq!(status_of(&workers[seat]), solo_status(solo), "seat {seat}");
        assert_eq!(solo_status(solo).0, 23);
    }
    for worker in &workers {
        let report = worker.finish().unwrap();
        assert!(report.error.is_some_and(|e| e.contains("stream::feed")));
    }
}
