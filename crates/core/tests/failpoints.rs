//! Fault-injection tests for the executor's robustness story (compiled
//! only under `--features failpoints`).
//!
//! Each test arms the process-global failpoint registry at a named site
//! and asserts the executor degrades gracefully: partial results are
//! reported structurally, nothing hangs, and the failure set is the same
//! whether clusters run sequentially or on a worker pool.

#![cfg(feature = "failpoints")]

use sqlts_core::failpoints::{self, FailAction};
use sqlts_core::{execute_query, ExecError, ExecOptions, Governor, TripReason};
use sqlts_relation::{ColumnType, CsvError, Schema, Table, Value};
use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

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
        ("date", ColumnType::Date),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

/// Three clusters (AAA, BBB, CCC), each with rising prices so the query
/// below matches in every cluster.
fn three_cluster_table() -> Table {
    let mut csv = String::from("name,date,price\n");
    for (name, base) in [("AAA", 10.0), ("BBB", 20.0), ("CCC", 30.0)] {
        for day in 1..=4 {
            csv.push_str(&format!("{name},1999-01-{day:02},{}\n", base + day as f64));
        }
    }
    Table::from_csv_str(quote_schema(), &csv).unwrap()
}

const QUERY: &str = "SELECT X.name, Y.price AS p FROM quote \
                     CLUSTER BY name SEQUENCE BY date AS (X, Y) \
                     WHERE Y.price > X.price";

fn opts(threads: usize) -> ExecOptions {
    ExecOptions {
        threads: NonZeroUsize::new(threads).unwrap(),
        ..Default::default()
    }
}

fn rows(table: &Table) -> Vec<Vec<Value>> {
    table.rows().map(<[Value]>::to_vec).collect()
}

#[test]
fn panicking_cluster_is_isolated() {
    let _guard = armed();
    // Panic only when cluster index 1 (BBB) is entered.
    failpoints::configure_rule("executor::cluster", FailAction::Panic, 1, Some(1), false);
    let table = three_cluster_table();
    let result = execute_query(QUERY, &table, &opts(1)).unwrap();
    assert!(!result.is_complete());
    assert_eq!(result.partial.len(), 1);
    let failure = &result.partial[0];
    assert_eq!(failure.cluster, 1);
    assert_eq!(failure.key, "BBB");
    assert!(failure.cause.contains("failpoint"), "{}", failure.cause);
    // The surviving clusters produced all their matches.
    let names: Vec<&Value> = result.table.rows().map(|r| &r[0]).collect();
    assert!(names.iter().all(|n| **n != Value::from("BBB")));
    assert!(names.contains(&&Value::from("AAA")));
    assert!(names.contains(&&Value::from("CCC")));
    assert_eq!(result.stats.clusters, 2, "only surviving clusters counted");
}

#[test]
fn sequential_and_parallel_failure_sets_agree() {
    let _guard = armed();
    let table = three_cluster_table();
    let complete = execute_query(QUERY, &table, &opts(1)).unwrap();
    // Property sweep: whichever cluster is poisoned, the sequential and
    // parallel runs must report the same failure set and the same
    // surviving rows — the complete output minus the poisoned cluster.
    for target in 0..3u64 {
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            failpoints::reset();
            failpoints::configure_rule(
                "executor::cluster",
                FailAction::Panic,
                1,
                Some(target),
                false,
            );
            let result = execute_query(QUERY, &table, &opts(threads)).unwrap();
            assert_eq!(result.partial.len(), 1, "target {target} threads {threads}");
            assert_eq!(result.partial[0].cluster, target as usize);
            outputs.push(result);
        }
        let (seq, par) = (&outputs[0], &outputs[1]);
        assert_eq!(seq.partial, par.partial, "target {target}");
        assert_eq!(rows(&seq.table), rows(&par.table), "target {target}");
        assert_eq!(seq.stats, par.stats, "target {target}");
        // Graceful degradation: exactly the poisoned cluster's rows are
        // missing from the complete output.
        let failed_key = &seq.partial[0].key;
        let expected: Vec<Vec<Value>> = rows(&complete.table)
            .into_iter()
            .filter(|r| r[0] != Value::from(failed_key.as_str()))
            .collect();
        assert_eq!(rows(&seq.table), expected, "target {target}");
    }
}

#[test]
fn exhaust_budget_failpoint_trips_step_budget() {
    let _guard = armed();
    // The governor's shared check honours an injected budget exhaustion on
    // its very first visit — no real steps need to be burned.
    failpoints::configure("governor::check", FailAction::ExhaustBudget);
    let err = execute_query(
        QUERY,
        &three_cluster_table(),
        &ExecOptions {
            governor: Governor::unlimited().with_max_steps(1_000_000),
            ..Default::default()
        },
    )
    .unwrap_err();
    let ExecError::Governed { trip, partial } = err else {
        panic!("expected governed termination");
    };
    assert_eq!(trip.reason, TripReason::StepBudget);
    assert_eq!(partial.table.len(), 0);
}

#[test]
fn delay_failpoint_forces_deadline_trip() {
    let _guard = armed();
    // Make entering the first cluster slower than the deadline, so the
    // trip is deterministic instead of racing the clock.
    failpoints::configure_rule("executor::cluster", FailAction::DelayMs(30), 1, None, true);
    let err = execute_query(
        QUERY,
        &three_cluster_table(),
        &ExecOptions {
            governor: Governor::unlimited().with_timeout(Duration::from_millis(5)),
            ..Default::default()
        },
    )
    .unwrap_err();
    let ExecError::Governed { trip, partial } = err else {
        panic!("expected governed termination");
    };
    assert_eq!(trip.reason, TripReason::Deadline);
    assert!(trip.elapsed >= Duration::from_millis(5));
    assert!(partial.is_complete(), "no cluster panicked");
}

#[test]
fn csv_record_failpoint_injects_ingest_error() {
    let _guard = armed();
    // Fire on the second data record (line 3 of the file).
    failpoints::configure_rule("csv::record", FailAction::InjectError, 2, None, true);
    let err = Table::from_csv_str(
        quote_schema(),
        "name,date,price\nIBM,1999-01-25,81\nIBM,1999-01-26,82\n",
    )
    .unwrap_err();
    match err {
        CsvError::Io(e) => {
            let msg = e.to_string();
            assert!(msg.contains("csv::record"), "{msg}");
            assert!(msg.contains("line 3"), "{msg}");
        }
        other => panic!("expected injected I/O error, got {other:?}"),
    }
    // Once the rule is spent, ingest works again.
    assert!(Table::from_csv_str(quote_schema(), "name,date,price\nIBM,1999-01-25,81\n").is_ok());
}

#[test]
fn panic_isolation_composes_with_governor() {
    let _guard = armed();
    // One poisoned cluster *and* an armed (but generous) governor: the
    // run completes, reports the failure, and never trips.
    failpoints::configure_rule("executor::cluster", FailAction::Panic, 1, Some(0), false);
    let result = execute_query(
        QUERY,
        &three_cluster_table(),
        &ExecOptions {
            governor: Governor::unlimited().with_max_steps(1_000_000),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.partial.len(), 1);
    assert_eq!(result.partial[0].cluster, 0);
    assert!(!result.table.is_empty(), "surviving clusters still match");
}
