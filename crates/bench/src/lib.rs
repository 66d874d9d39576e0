//! Shared workloads and runners for the paper's experiments.
//!
//! Every figure and table of the paper's evaluation maps to a function
//! here (see the experiment index in DESIGN.md §5); the `experiments`
//! binary renders them as text and the Criterion benches time them.

use sqlts_core::{
    execute_query, CompileOptions, EngineKind, ExecOptions, ExecutionProfile, FirstTuplePolicy,
    Instrument, SearchTrace,
};
use sqlts_datagen::{djia_series, integer_walk, prices_to_table, symbol_series};
use sqlts_relation::{Date, Table, Value};
use std::num::NonZeroUsize;

/// The paper's Example 10: the relaxed double-bottom query (±2% bands).
pub const DOUBLE_BOTTOM: &str = "\
SELECT X.NEXT.date, X.NEXT.price, S.previous.date, S.previous.price \
FROM djia SEQUENCE BY date AS (X, *Y, *Z, *T, *U, *V, *W, *R, S) \
WHERE X.price >= 0.98 * X.previous.price \
AND Y.price < 0.98 * Y.previous.price \
AND 0.98 * Z.previous.price < Z.price AND Z.price < 1.02 * Z.previous.price \
AND T.price > 1.02 * T.previous.price \
AND 0.98 * U.previous.price < U.price AND U.price < 1.02 * U.previous.price \
AND V.price < 0.98 * V.previous.price \
AND 0.98 * W.previous.price < W.price AND W.price < 1.02 * W.previous.price \
AND R.price > 1.02 * R.previous.price \
AND S.price <= 1.02 * S.previous.price";

/// The paper's Example 4 predicate pattern (as a standalone 4-element
/// query).
pub const EXAMPLE4: &str = "\
SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C, D) \
WHERE A.price < A.previous.price \
AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
AND C.price > C.previous.price AND C.price < 52 \
AND D.price > D.previous.price";

/// The paper's Example 9 (seven elements, four stars).
pub const EXAMPLE9: &str = "\
SELECT X.NEXT.date, X.NEXT.price, S.previous.date, S.previous.price \
FROM quote CLUSTER BY name SEQUENCE BY date AS (*X, Y, *Z, *T, U, *V, S) \
WHERE X.price > X.previous.price \
AND 30 < Y.price AND Y.price < 40 \
AND Z.price < Z.previous.price \
AND T.price > T.previous.price \
AND 35 < U.price AND U.price < 40 \
AND V.price < V.previous.price \
AND S.price < 30";

/// The paper's §4.2.1 fifteen-value price sequence used for Figure 5.
pub const FIG5_PRICES: [f64; 15] = [
    55.0, 50.0, 45.0, 57.0, 54.0, 50.0, 47.0, 49.0, 45.0, 42.0, 55.0, 57.0, 59.0, 60.0, 57.0,
];

/// Default seed: the publication year, for the simulated DJIA.
pub const DJIA_SEED: u64 = 2001;

/// Build a single-cluster quote table from a plain price series.
pub fn price_table(prices: &[f64]) -> Table {
    prices_to_table("X", Date::from_ymd(1990, 1, 1), prices)
}

/// Cost/result summary of one engine on one workload.
#[derive(Clone, Debug)]
pub struct RunCost {
    /// Engine used.
    pub engine: EngineKind,
    /// Matches found.
    pub matches: u64,
    /// Predicate tests (the paper's metric).
    pub tests: u64,
}

/// Execute `query` over `table` under `engine`, returning the paper's
/// cost metric.
pub fn run_cost(query: &str, table: &Table, engine: EngineKind) -> RunCost {
    run_cost_threads(query, table, engine, 1)
}

/// [`run_cost`] with an explicit worker-thread count for the
/// cluster-parallel executor (the cost metric is identical for every
/// count; only wall time changes).
pub fn run_cost_threads(query: &str, table: &Table, engine: EngineKind, threads: usize) -> RunCost {
    let result = execute_query(
        query,
        table,
        &ExecOptions {
            engine,
            policy: FirstTuplePolicy::VacuousTrue,
            compile: CompileOptions::default(),
            threads: NonZeroUsize::new(threads).expect("thread count must be nonzero"),
            ..Default::default()
        },
    )
    .expect("experiment query executes");
    RunCost {
        engine,
        matches: result.stats.matches,
        tests: result.stats.predicate_tests,
    }
}

/// [`run_cost`] with the metrics registry armed: returns the full
/// machine-readable [`ExecutionProfile`] (per-position test counts,
/// shift-distance histograms, per-cluster breakdown, optimizer report)
/// instead of the two scalar totals.
pub fn run_profile(query: &str, table: &Table, engine: EngineKind) -> ExecutionProfile {
    let result = execute_query(
        query,
        table,
        &ExecOptions {
            engine,
            policy: FirstTuplePolicy::VacuousTrue,
            compile: CompileOptions::default(),
            instrument: Instrument::profiling(),
            ..Default::default()
        },
    )
    .expect("experiment query executes");
    *result.profile.expect("profiling was armed")
}

/// Speedup of `b` relative to `a` in predicate tests (`a.tests/b.tests`).
pub fn speedup(a: &RunCost, b: &RunCost) -> f64 {
    a.tests as f64 / b.tests.max(1) as f64
}

/// Record the `(i, j)` search path of a single-cluster workload.
pub fn trace_path(query: &str, prices: &[f64], engine: EngineKind) -> SearchTrace {
    use sqlts_core::engine::{find_matches, SearchOptions};
    let table = price_table(prices);
    let compiled = sqlts_core::compile(query, table.schema(), &CompileOptions::default())
        .expect("query compiles");
    let clusters = table.cluster_by(&[], &["date"]).expect("cluster");
    let counter = SearchTrace::counter(compiled.elements.len());
    find_matches(
        &compiled.elements,
        &clusters[0],
        engine,
        &SearchOptions {
            policy: FirstTuplePolicy::Fail,
        },
        &counter,
    );
    SearchTrace::of(counter)
}

/// The simulated 25-year DJIA table (experiment E4).
pub fn djia(seed: u64) -> Table {
    djia_series(seed)
}

/// Which workload a sweep case runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Bounded integer random walk (short runs).
    Walk,
    /// Sawtooth with long non-increasing runs (backtracking blow-up
    /// regime).
    Sawtooth,
}

/// One case of the E5 speedup sweep.
pub struct SweepCase {
    /// Short readable id.
    pub id: &'static str,
    /// The SQL-TS query.
    pub query: String,
    /// Which workload to run it on.
    pub workload: Workload,
}

/// Materialize a sweep workload (sizes tuned so the backtracking
/// baseline finishes in seconds).
pub fn sweep_table(workload: Workload) -> Table {
    match workload {
        Workload::Walk => sweep_workload(20_000, 7),
        Workload::Sawtooth => price_table(&sqlts_datagen::sawtooth(12_000, 24, 3)),
    }
}

/// The E5 sweep: a family of patterns of growing length and star density
/// over a workload tuned so that backtracking hurts, paired with readable
/// ids.
pub fn sweep_patterns() -> Vec<SweepCase> {
    let case = |id, query: String, workload| SweepCase {
        id,
        query,
        workload,
    };
    let mut out = Vec::new();
    // Star-free chains of alternating rises/falls, m = 4, 8, 12.
    for (id, m) in [("chain-4", 4usize), ("chain-8", 8), ("chain-12", 12)] {
        let vars: Vec<String> = (0..m).map(|i| format!("V{i}")).collect();
        let conds: Vec<String> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if i % 2 == 0 {
                    format!("{v}.price < {v}.previous.price")
                } else {
                    format!("{v}.price > {v}.previous.price")
                }
            })
            .collect();
        out.push(case(
            id,
            format!(
                "SELECT V0.date FROM t SEQUENCE BY date AS ({}) WHERE {}",
                vars.join(", "),
                conds.join(" AND ")
            ),
            Workload::Walk,
        ));
    }
    // Starred variants with *overlapping* adjacent predicates — the
    // regime where the backtracking baseline explodes.
    out.push(case(
        "star-overlap-3",
        "SELECT FIRST(A).date FROM t SEQUENCE BY date AS (*A, *B, C) \
         WHERE A.price <= A.previous.price AND B.price <= B.previous.price \
         AND C.price > C.previous.price AND C.price > 9"
            .to_string(),
        Workload::Walk,
    ));
    out.push(case(
        "star-overlap-4",
        "SELECT FIRST(A).date FROM t SEQUENCE BY date AS (*A, *B, *C, D) \
         WHERE A.price <= A.previous.price AND B.price <= B.previous.price \
         AND C.price <= C.previous.price AND D.price > D.previous.price AND D.price > 9"
            .to_string(),
        Workload::Walk,
    ));
    // The blow-up regime: overlapping stars over long non-increasing
    // sawtooth runs — a run of length L admits ~L^(k-1) splits across k
    // stars, all of which the backtracker explores before failing.
    for (id, stars) in [
        ("saw-2-stars", 2usize),
        ("saw-3-stars", 3),
        ("saw-4-stars", 4),
        ("saw-5-stars", 5),
    ] {
        let vars: Vec<String> = (0..stars).map(|i| format!("S{i}")).collect();
        let conds: Vec<String> = vars
            .iter()
            .map(|v| format!("{v}.price <= {v}.previous.price"))
            .collect();
        out.push(case(
            id,
            format!(
                "SELECT FIRST(S0).date FROM t SEQUENCE BY date AS (*{}, E) \
                 WHERE {} AND E.price > E.previous.price + 500",
                vars.join(", *"),
                conds.join(" AND ")
            ),
            Workload::Sawtooth,
        ));
    }
    // Exclusive starred pattern (Example 8 style).
    out.push(case(
        "star-exclusive-3",
        "SELECT FIRST(A).date FROM t SEQUENCE BY date AS (*A, *B, *C) \
         WHERE A.price > A.previous.price AND B.price < B.previous.price \
         AND C.price > C.previous.price"
            .to_string(),
        Workload::Walk,
    ));
    // Selective equality chain (KMP regime).
    out.push(case(
        "equality-5",
        "SELECT V0.date FROM t SEQUENCE BY date AS (V0, V1, V2, V3, V4) \
         WHERE V0.price = 3 AND V1.price = 5 AND V2.price = 3 AND V3.price = 5 \
         AND V4.price = 9"
            .to_string(),
        Workload::Walk,
    ));
    out
}

/// The E5 sweep workload: an integer random walk (exact in f64).
pub fn sweep_workload(n: usize, seed: u64) -> Table {
    price_table(&integer_walk(n, 1, 10, 2, seed))
}

/// A `CLUSTER BY name` variant of the E5 sweep workload: `clusters`
/// independent integer walks of `rows_per_cluster` tuples each, under
/// distinct symbol names.  This is the workload the parallel executor
/// fans out (experiment E11 / the `parallel_clusters` bench).
pub fn clustered_sweep_workload(clusters: usize, rows_per_cluster: usize, seed: u64) -> Table {
    let mut table = Table::with_capacity(
        sqlts_datagen::quote_schema(),
        clusters.saturating_mul(rows_per_cluster),
    );
    let start = Date::from_ymd(1990, 1, 1);
    for c in 0..clusters {
        let name = format!("S{c:04}");
        let prices = integer_walk(
            rows_per_cluster,
            1,
            10,
            2,
            seed ^ (c as u64).wrapping_mul(0x9E37),
        );
        let mut day = start;
        for p in prices {
            while day.is_weekend() {
                day = day.plus_days(1);
            }
            table
                .push_row(vec![
                    Value::from(name.as_str()),
                    Value::Date(day),
                    Value::from(p),
                ])
                .expect("generated rows match the schema");
            day = day.plus_days(1);
        }
    }
    table
}

/// Rewrite an E5 sweep query (`FROM t SEQUENCE BY date`) to cluster by
/// symbol, for use with [`clustered_sweep_workload`].
pub fn clustered_query(query: &str) -> String {
    query.replace("SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date")
}

/// The E6 workload: i.i.d. symbols as prices.
pub fn kmp_workload(n: usize, alphabet: u8, seed: u64) -> Table {
    price_table(&symbol_series(n, alphabet, seed))
}

/// A prefix-sharing family of `n` standing queries for shared pattern-set
/// streaming: the `X`/`Y` elements are identical across the family, only
/// `Z`'s threshold varies, so the shared memo holds the common prefix
/// once per cluster position.  Runs over [`clustered_sweep_workload`]
/// tables (integer walks in 1..10).
pub fn pattern_set_family(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "SELECT X.date, Z.date AS to_d FROM quote CLUSTER BY name \
                 SEQUENCE BY date AS (X, Y, Z) WHERE X.price >= 3 \
                 AND Y.price > Y.previous.price AND Z.price < {}",
                3 + i
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_bottom_compiles_and_engines_agree_on_matches() {
        let table = djia(DJIA_SEED);
        let naive = run_cost(DOUBLE_BOTTOM, &table, EngineKind::Naive);
        let ops = run_cost(DOUBLE_BOTTOM, &table, EngineKind::Ops);
        assert_eq!(naive.matches, ops.matches);
        assert!(ops.tests <= naive.tests);
        // The number recorded in EXPERIMENTS.md (paper: 12 on recorded
        // DJIA).  Pinned so the experiment record stays reproducible; if
        // the simulator changes, re-measure and update EXPERIMENTS.md.
        assert_eq!(ops.matches, 11, "E4 match count drifted");
    }

    #[test]
    fn sweep_patterns_all_compile() {
        // Small stand-ins for both workloads keep the test fast.
        let walk = sweep_workload(500, 7);
        let saw = price_table(&sqlts_datagen::sawtooth(500, 24, 3));
        for case in sweep_patterns() {
            let table = match case.workload {
                Workload::Walk => &walk,
                Workload::Sawtooth => &saw,
            };
            let c = run_cost(&case.query, table, EngineKind::Ops);
            assert!(c.tests > 0, "{}", case.id);
        }
    }

    #[test]
    fn clustered_sweep_parallel_costs_match_sequential() {
        let table = clustered_sweep_workload(8, 300, 7);
        let query = clustered_query(
            "SELECT FIRST(A).date FROM t SEQUENCE BY date AS (*A, *B, C) \
             WHERE A.price <= A.previous.price AND B.price <= B.previous.price \
             AND C.price > C.previous.price AND C.price > 9",
        );
        let seq = run_cost_threads(&query, &table, EngineKind::Ops, 1);
        let par = run_cost_threads(&query, &table, EngineKind::Ops, 4);
        assert_eq!(seq.matches, par.matches);
        assert_eq!(seq.tests, par.tests);
        assert!(seq.tests > 0);
    }

    #[test]
    fn fig5_traces_differ() {
        let naive = trace_path(EXAMPLE4, &FIG5_PRICES, EngineKind::Naive);
        let ops = trace_path(EXAMPLE4, &FIG5_PRICES, EngineKind::Ops);
        assert!(ops.path_len() < naive.path_len());
        assert!(ops.backtrack_episodes() <= naive.backtrack_episodes());
    }
}
