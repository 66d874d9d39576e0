//! Search-behaviour properties of the engines beyond match equivalence:
//! cursor discipline (OPS backtracks less than naive, as Figure 5
//! claims), determinism, and controlled match-density workloads.

use sqlts_core::engine::{find_matches, SearchOptions};
use sqlts_core::{compile, CompileOptions, EngineKind, FirstTuplePolicy, SearchTrace};
use sqlts_datagen::{embed_motif, integer_walk, prices_to_table};
use sqlts_relation::{Date, Table};

fn table_of(prices: &[f64]) -> Table {
    prices_to_table("T", Date::from_ymd(1985, 1, 1), prices)
}

fn traced(query_src: &str, table: &Table, engine: EngineKind) -> (SearchTrace, u64, usize) {
    let query = compile(query_src, table.schema(), &CompileOptions::default()).unwrap();
    let clusters = table.cluster_by(&[], &["date"]).unwrap();
    let counter = SearchTrace::counter(query.elements.len());
    let matches = find_matches(
        &query.elements,
        &clusters[0],
        engine,
        &SearchOptions {
            policy: FirstTuplePolicy::Fail,
        },
        &counter,
    );
    let total = counter.total();
    (SearchTrace::of(counter), total, matches.len())
}

const CHAIN: &str = "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C, D) \
     WHERE A.price < A.previous.price \
     AND B.price < B.previous.price AND B.price > 3 AND B.price < 9 \
     AND C.price > C.previous.price AND C.price < 10 \
     AND D.price > D.previous.price";

#[test]
fn ops_backtracks_no_more_than_naive() {
    // Figure 5's qualitative claim, checked across many seeds.
    for seed in 0..20u64 {
        let table = table_of(&integer_walk(400, 1, 12, 2, seed));
        let (naive_trace, naive_cost, naive_matches) = traced(CHAIN, &table, EngineKind::Naive);
        let (ops_trace, ops_cost, ops_matches) = traced(CHAIN, &table, EngineKind::Ops);
        assert_eq!(naive_matches, ops_matches, "seed {seed}");
        assert!(ops_cost <= naive_cost, "seed {seed}");
        assert!(
            ops_trace.backtrack_episodes() <= naive_trace.backtrack_episodes(),
            "seed {seed}: OPS backtracked more ({} vs {})",
            ops_trace.backtrack_episodes(),
            naive_trace.backtrack_episodes()
        );
    }
}

#[test]
fn trace_length_equals_cost_metric_for_all_engines() {
    let table = table_of(&integer_walk(300, 1, 12, 2, 5));
    for engine in [
        EngineKind::Naive,
        EngineKind::NaiveBacktrack,
        EngineKind::Ops,
        EngineKind::OpsShiftOnly,
    ] {
        let (trace, cost, _) = traced(CHAIN, &table, engine);
        assert_eq!(trace.path_len() as u64, cost, "{engine:?}");
    }
}

#[test]
fn search_is_deterministic() {
    let table = table_of(&integer_walk(500, 1, 12, 2, 9));
    let (t1, c1, m1) = traced(CHAIN, &table, EngineKind::Ops);
    let (t2, c2, m2) = traced(CHAIN, &table, EngineKind::Ops);
    assert_eq!(t1.steps, t2.steps);
    assert_eq!(c1, c2);
    assert_eq!(m1, m2);
}

#[test]
fn embedded_motifs_are_all_found() {
    // Plant an unmistakable motif (spike up to 90 then crash to 20 then
    // recover to 60) into a low-amplitude walk; the pattern must find
    // exactly the planted copies, with every engine.
    let mut prices = integer_walk(3_000, 30, 50, 2, 17);
    let motif = [90.0, 20.0, 60.0];
    embed_motif(&mut prices, &motif, 150, 4);
    let expected = prices.windows(3).filter(|w| w == &motif).count();
    assert!(expected >= 5, "embedding produced only {expected} motifs");

    let table = table_of(&prices);
    let query = "SELECT X.date FROM t SEQUENCE BY date AS (X, Y, Z) \
                 WHERE X.price = 90 AND Y.price = 20 AND Z.price = 60";
    for engine in [
        EngineKind::Naive,
        EngineKind::NaiveBacktrack,
        EngineKind::Ops,
    ] {
        let (_, _, matches) = traced(query, &table, engine);
        assert_eq!(matches, expected, "{engine:?}");
    }
}

#[test]
fn ops_cost_is_linear_on_constant_equality_patterns() {
    // The KMP guarantee carried over: on equality patterns OPS performs at
    // most 2n predicate tests regardless of the data.
    for seed in 0..5u64 {
        let prices: Vec<f64> = integer_walk(5_000, 0, 3, 3, seed);
        let table = table_of(&prices);
        let query = "SELECT X.date FROM t SEQUENCE BY date AS (X, Y, Z) \
                     WHERE X.price = 1 AND Y.price = 2 AND Z.price = 1";
        let (_, cost, _) = traced(query, &table, EngineKind::Ops);
        assert!(
            cost <= 2 * 5_000,
            "seed {seed}: {cost} tests exceeds the 2n bound"
        );
    }
}

#[test]
fn long_streams_with_no_matches_stay_cheap() {
    // A pattern that can never match (contradictory band) must cost ~n:
    // the compile-time analysis proves every shift impossible.
    let table = table_of(&integer_walk(10_000, 1, 12, 2, 3));
    let query = "SELECT A.date FROM t SEQUENCE BY date AS (A, B) \
                 WHERE A.price < A.previous.price AND A.price > 100 \
                 AND B.price > B.previous.price";
    let (_, cost, matches) = traced(query, &table, EngineKind::Ops);
    assert_eq!(matches, 0);
    assert!(cost <= 10_000 + 1, "cost {cost}");
}
