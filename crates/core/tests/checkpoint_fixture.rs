//! A committed `sqlts-checkpoint v1` file pins the checkpoint format: the
//! codec must read it, write it back byte for byte, and resume it to the
//! result of one batch `execute` over the same input.
//!
//! `fixtures/checkpoint_v1.txt` was written by the CLI from
//! `fixtures/checkpoint_v1.csv`:
//!
//! ```text
//! sqlts --follow --schema name:str,day:int,price:float \
//!   --trace t.jsonl --trace-capacity 16 --on-bad-tuple quarantine:4 \
//!   --checkpoint checkpoint_v1.txt --feed-limit 48 "$QUERY" < checkpoint_v1.csv
//! ```
//!
//! so it carries per-cluster recorder rings that have dropped events,
//! a cluster key with a space in it, and two quarantined records: a line
//! the CSV reader rejects and an out-of-order `SEQUENCE BY` key.

use sqlts_core::stream::{SessionCheckpoint, StreamError, StreamOptions, StreamSession};
use sqlts_core::{
    compile, execute, BadTuplePolicy, CompileOptions, EngineKind, ExecOptions, FirstTuplePolicy,
    Instrument,
};
use sqlts_relation::{ColumnType, CsvRecords, Schema, Table};

const QUERY: &str = "SELECT X.name, Z.price AS peak, Z.day AS day FROM quote \
                     CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) \
                     WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

const FIXTURE: &str = include_str!("fixtures/checkpoint_v1.txt");
const INPUT: &str = include_str!("fixtures/checkpoint_v1.csv");

fn quote_schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("day", ColumnType::Int),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

/// The options the CLI flags above build.
fn options() -> StreamOptions {
    StreamOptions {
        exec: ExecOptions {
            engine: EngineKind::Ops,
            policy: FirstTuplePolicy::VacuousTrue,
            instrument: Instrument {
                profile: true,
                trace: true,
                trace_capacity: 16,
            },
            ..ExecOptions::default()
        },
        bad_tuple: BadTuplePolicy::Quarantine { cap: 4 },
    }
}

#[test]
fn fixture_round_trips_byte_for_byte() {
    let checkpoint = SessionCheckpoint::from_text(FIXTURE).expect("fixture parses");
    assert_eq!(checkpoint.to_text(), FIXTURE);
}

/// v1 once carried a backpressure counter, a session event log and a
/// cancellation trip cause.  Sessions record none of them now, so a file
/// that holds one is refused instead of resumed without it.
#[test]
fn retired_v1_state_is_refused() {
    for (from, to, names) in [
        ("pressure 0", "pressure 1", "line 6"),
        ("log none", "log 8 0 1\nev fd 3", "line 10"),
        ("ev a 5 2", "ev fd 3", "'fd'"),
        ("ev a 5 2", "ev g cancelled", "'cancelled'"),
        ("trip none", "trip cancelled", "'cancelled'"),
    ] {
        assert!(FIXTURE.contains(from), "fixture must contain '{from}'");
        match SessionCheckpoint::from_text(&FIXTURE.replacen(from, to, 1)) {
            Err(StreamError::Checkpoint(msg)) => assert!(msg.contains(names), "{to}: {msg}"),
            other => panic!("{to} must be refused, got {other:?}"),
        }
    }
}

#[test]
fn fixture_resumes_to_the_batch_result() {
    let query = compile(QUERY, &quote_schema(), &CompileOptions::default()).unwrap();
    let checkpoint = SessionCheckpoint::from_text(FIXTURE).unwrap();
    let done = checkpoint.records() as usize;
    let mut session = StreamSession::resume(&query, options(), checkpoint).unwrap();
    let quarantined: Vec<u64> = session.quarantine().iter().map(|b| b.record).collect();
    assert_eq!(quarantined, [15, 30]);

    // Record n is the n-th CSV record, as the CLI counts them.
    let records: Vec<_> = CsvRecords::new(quote_schema(), INPUT.as_bytes())
        .unwrap()
        .collect();
    for record in records.iter().skip(done) {
        let row = record.as_ref().expect("the unfed tail is clean");
        session.feed(row.clone()).unwrap();
    }
    let resumed = session.finish().unwrap();

    let mut table = Table::new(quote_schema());
    for (n, record) in (1u64..).zip(&records) {
        if let (Ok(row), false) = (record, quarantined.contains(&n)) {
            table.push_row(row.clone()).unwrap();
        }
    }
    let batch = execute(&query, &table, &options().exec).unwrap();
    assert!(batch.stats.matches > 0);
    assert_eq!(resumed.table, batch.table, "rows");
    assert_eq!(resumed.stats, batch.stats, "stats");
    let (rp, bp) = (resumed.profile.unwrap(), batch.profile.unwrap());
    assert_eq!(rp.clusters, bp.clusters, "cluster profiles and event rings");
    assert_eq!(rp.totals, bp.totals, "profile totals");
}
