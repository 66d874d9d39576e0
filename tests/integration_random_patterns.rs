//! The heaviest soundness artillery: *generate random patterns* (random
//! length, star flags, and per-element predicates drawn from a predicate
//! alphabet) over random walks, and require the optimized engines to
//! agree exactly with the greedy-naive reference.
//!
//! This goes beyond the fixed query pools of the unit property tests: the
//! θ/φ analysis sees arbitrary combinations of implication structure
//! (identical predicates, subsumed bands, complements, constants), which
//! is where unsound shift/next entries would hide.  About one predicate in
//! four is wrapped in `NOT`, and about one price in five is NULL: the
//! solver reasons about the negated operator while the runtime evaluates a
//! NULL comparison, and the two must agree (DESIGN §3, "NULL in `WHERE`").

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlts_core::engine::SearchOptions;
use sqlts_core::{
    compile, execute, execute_query, find_matches, shift_next, star_shift_next, CompileOptions,
    EngineKind, EvalCounter, ExecOptions, FirstTuplePolicy, Instrument, PrecondMatrices,
    Predicates, SearchStats,
};
use sqlts_datagen::{integer_walk, quote_schema};
use sqlts_lang::{eval_projection, EvalCtx};
use sqlts_relation::{Date, Table, Value};
use sqlts_trace::{ClusterProfile, ClusterRecorder};
use std::num::NonZeroUsize;

/// The predicate alphabet (binary-exact constants only, so f64 runtime
/// evaluation matches the solver's exact arithmetic).
const PREDICATES: &[&str] = &[
    "{v}.price < {v}.previous.price",
    "{v}.price > {v}.previous.price",
    "{v}.price <= {v}.previous.price",
    "{v}.price >= {v}.previous.price",
    "{v}.price = {v}.previous.price",
    "{v}.price <> {v}.previous.price",
    "{v}.price < 5",
    "{v}.price > 5",
    "{v}.price >= 3 AND {v}.price <= 8",
    "{v}.price = 4",
    "{v}.price < 0.5 * {v}.previous.price + 4",
    "{v}.price < {v}.previous.price OR {v}.price > 9",
];

fn random_query(rng: &mut SmallRng) -> String {
    let m = rng.gen_range(1..=5);
    random_query_of(rng, m, 0.4)
}

/// A random query of `m` elements, each starred with probability `star`.
fn random_query_of(rng: &mut SmallRng, m: usize, star: f64) -> String {
    let mut vars = Vec::new();
    let mut conds = Vec::new();
    for i in 0..m {
        let name = format!("V{i}");
        let star = rng.gen_bool(star);
        vars.push(if star {
            format!("*{name}")
        } else {
            name.clone()
        });
        // 0–2 predicates per element (0 = unconstrained element).
        for _ in 0..rng.gen_range(0..=2) {
            let p = PREDICATES[rng.gen_range(0..PREDICATES.len())].replace("{v}", &name);
            conds.push(if rng.gen_bool(0.25) {
                format!("(NOT ({p}))")
            } else {
                format!("({p})")
            });
        }
    }
    let select = if vars[0].starts_with('*') {
        "FIRST(V0).date".to_string()
    } else {
        "V0.date".to_string()
    };
    let mut q = format!(
        "SELECT {select} FROM t SEQUENCE BY date AS ({})",
        vars.join(", ")
    );
    if !conds.is_empty() {
        q.push_str(&format!(" WHERE {}", conds.join(" AND ")));
    }
    q
}

/// `walk` as one symbol's rows on consecutive trading days, with about one
/// price in five replaced by NULL.
fn push_walk(table: &mut Table, rng: &mut SmallRng, name: &str, walk: &[f64]) {
    let mut day = Date::from_ymd(1990, 1, 1);
    for &p in walk {
        while day.is_weekend() {
            day = day.plus_days(1);
        }
        let price = if rng.gen_bool(0.2) {
            Value::Null
        } else {
            Value::from(p)
        };
        table
            .push_row(vec![Value::from(name), Value::Date(day), price])
            .unwrap();
        day = day.plus_days(1);
    }
}

fn fuzz(seed: u64, rounds: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut interesting = 0u32; // runs that produced at least one match
    for round in 0..rounds {
        let query = random_query(&mut rng);
        let data_seed = rng.gen::<u64>();
        let n = rng.gen_range(0..400);
        let mut table = Table::new(quote_schema());
        push_walk(
            &mut table,
            &mut rng,
            "T",
            &integer_walk(n, 1, 10, 2, data_seed),
        );
        let policy = if rng.gen_bool(0.5) {
            FirstTuplePolicy::VacuousTrue
        } else {
            FirstTuplePolicy::Fail
        };

        let reference = execute_query(
            &query,
            &table,
            &ExecOptions {
                engine: EngineKind::Naive,
                policy,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("round {round}: {query}: {e}"));
        if reference.stats.matches > 0 {
            interesting += 1;
        }
        for engine in [EngineKind::Ops, EngineKind::OpsShiftOnly] {
            let result = execute_query(
                &query,
                &table,
                &ExecOptions {
                    engine,
                    policy,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                result.table, reference.table,
                "round {round} ({engine:?}, {policy:?}, n={n}, seed={data_seed}):\n{query}"
            );
            assert!(
                result.stats.predicate_tests <= reference.stats.predicate_tests,
                "round {round} ({engine:?}): OPS cost {} > naive {} for\n{query}",
                result.stats.predicate_tests,
                reference.stats.predicate_tests
            );
        }
    }
    // Sanity: the generator must not be producing only unmatched patterns.
    assert!(
        interesting > rounds / 5,
        "only {interesting}/{rounds} runs had matches; generator is too cold"
    );
}

/// A random multi-symbol table: `clusters` independent walks interleaved
/// under distinct names (so `CLUSTER BY name` produces several streams).
fn random_clustered_table(rng: &mut SmallRng, clusters: usize) -> Table {
    let mut table = Table::new(quote_schema());
    for c in 0..clusters {
        let name = format!("T{c}");
        let n = rng.gen_range(0..250);
        let walk = integer_walk(n, 1, 10, 2, rng.gen::<u64>());
        push_walk(&mut table, rng, &name, &walk);
    }
    table
}

/// Property: the cluster-parallel executor (threads ≥ 2) returns the same
/// match set, in the same order, with the same predicate-test count and
/// stats as the sequential executor (threads = 1) — for every engine and
/// policy.
fn fuzz_parallel(seed: u64, rounds: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut interesting = 0u32;
    for round in 0..rounds {
        let base = random_query(&mut rng);
        let query = base.replace("SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date");
        let clusters = rng.gen_range(1..=6);
        let table = random_clustered_table(&mut rng, clusters);
        let policy = if rng.gen_bool(0.5) {
            FirstTuplePolicy::VacuousTrue
        } else {
            FirstTuplePolicy::Fail
        };
        let engine = [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ][rng.gen_range(0..4usize)];
        let opts = |threads: usize| ExecOptions {
            engine,
            policy,
            threads: NonZeroUsize::new(threads).unwrap(),
            ..Default::default()
        };

        let sequential = execute_query(&query, &table, &opts(1))
            .unwrap_or_else(|e| panic!("round {round}: {query}: {e}"));
        if sequential.stats.matches > 0 {
            interesting += 1;
        }
        let threads = rng.gen_range(2..=8);
        let parallel = execute_query(&query, &table, &opts(threads)).unwrap();
        assert_eq!(
            parallel.table, sequential.table,
            "round {round} ({engine:?}, {policy:?}, \
             clusters={clusters}, threads={threads}):\n{query}"
        );
        assert_eq!(
            parallel.stats, sequential.stats,
            "round {round} ({engine:?}, {policy:?}, \
             clusters={clusters}, threads={threads}): stats diverged for\n{query}"
        );
    }
    assert!(
        interesting > rounds / 5,
        "only {interesting}/{rounds} runs had matches; generator is too cold"
    );
}

/// Property: the batch driver adds nothing to the search primitives.  For
/// every engine × threads 1/4, `execute`'s rows, stats and armed profile
/// (minus wall clock) equal a reference assembled here by hand, cluster
/// by cluster, from `find_matches` and `eval_projection` over a private
/// recording counter — so folding the executor's drivers into one cannot
/// have moved a row, a count or an event.
fn fuzz_driver_against_primitives(seed: u64, rounds: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..rounds {
        let base = random_query(&mut rng);
        let text = base.replace("SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date");
        let clusters = rng.gen_range(1..=5);
        let table = random_clustered_table(&mut rng, clusters);
        let query = compile(&text, table.schema(), &CompileOptions::default()).unwrap();
        let policy = FirstTuplePolicy::default();
        let instrument = Instrument::tracing();
        let clusters = table.cluster_by(&["name"], &["date"]).unwrap();
        for engine in [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ] {
            let mut rows = Vec::new();
            let mut stats = SearchStats::default();
            let mut profiles = Vec::new();
            for (index, cluster) in clusters.iter().enumerate() {
                let counter = EvalCounter::new().with_recorder(ClusterRecorder::new(
                    query.elements.len(),
                    instrument.trace_capacity,
                ));
                let options = SearchOptions { policy };
                let found = find_matches(&query.elements, cluster, engine, &options, &counter);
                let ctx = EvalCtx { cluster, policy };
                stats.matches += found.len() as u64;
                rows.extend(
                    found
                        .iter()
                        .map(|m| eval_projection(&query.projection, &ctx, &m.bindings())),
                );
                stats.clusters += 1;
                stats.tuples += cluster.len() as u64;
                stats.predicate_tests += counter.total();
                stats.steps += counter.total();
                let recorder = counter.into_recorder().unwrap();
                let events_dropped = recorder.events.dropped();
                profiles.push(ClusterProfile {
                    index,
                    key: cluster.key()[0].to_string(),
                    tuples: cluster.len() as u64,
                    metrics: recorder.metrics,
                    events: recorder.events.into_events(),
                    events_dropped,
                });
            }
            for threads in [1usize, 4] {
                let ctx = format!("round {round} ({engine:?}, threads={threads}):\n{text}");
                let exec = ExecOptions {
                    engine,
                    policy,
                    threads: NonZeroUsize::new(threads).unwrap(),
                    instrument,
                    ..Default::default()
                };
                let result = execute(&query, &table, &exec).unwrap();
                assert_eq!(self::rows(&result.table), rows, "{ctx}");
                assert_eq!(result.stats, stats, "{ctx}");
                assert!(result.is_complete(), "{ctx}");
                let profile = result.profile.expect("armed run carries a profile");
                assert_eq!(profile.clusters, profiles, "{ctx}");
                assert_eq!(profile.predicate_tests(), stats.predicate_tests, "{ctx}");
                assert_eq!(
                    (profile.engine.as_str(), profile.threads),
                    (engine.name(), threads)
                );
            }
        }
    }
}

/// `sub` appears, in order, within `full` (with arbitrary gaps).
fn is_subsequence(sub: &[Vec<Value>], full: &[Vec<Value>]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|row| it.any(|f| f == row))
}

fn rows(table: &Table) -> Vec<Vec<Value>> {
    table.rows().map(<[Value]>::to_vec).collect()
}

/// Property: whatever limits the governor is armed with, a governed run
/// never invents matches.  An untripped run is bit-identical to the
/// ungoverned one at every thread count; a tripped run yields an ordered
/// subsequence of the ungoverned match set (an exact prefix when
/// sequential), honours the match budget exactly, and reports a trip
/// consistent with the limit that fired.
fn fuzz_governed(seed: u64, rounds: u32) {
    use sqlts_core::{ExecError, Governor, TripReason};
    use std::time::Duration;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tripped_runs = 0u32;
    for round in 0..rounds {
        let base = random_query(&mut rng);
        let query = base.replace("SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date");
        let clusters = rng.gen_range(1..=6);
        let table = random_clustered_table(&mut rng, clusters);
        let policy = if rng.gen_bool(0.5) {
            FirstTuplePolicy::VacuousTrue
        } else {
            FirstTuplePolicy::Fail
        };
        let engine = [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ][rng.gen_range(0..4usize)];
        let opts = |threads: usize, governor: Governor| ExecOptions {
            engine,
            policy,
            threads: NonZeroUsize::new(threads).unwrap(),
            governor,
            ..Default::default()
        };

        let full = execute_query(&query, &table, &opts(1, Governor::unlimited()))
            .unwrap_or_else(|e| panic!("round {round}: {query}: {e}"));
        let full_rows = rows(&full.table);

        let max_steps = rng.gen_range(0..=full.stats.steps + 16);
        let max_matches = rng.gen_range(0..=full.stats.matches + 4);
        let governor = match rng.gen_range(0..4u8) {
            0 => Governor::unlimited().with_max_steps(max_steps),
            1 => Governor::unlimited().with_max_matches(max_matches),
            // A dead deadline: everything must be skipped, instantly.
            2 => Governor::unlimited().with_timeout(Duration::ZERO),
            _ => Governor::unlimited()
                .with_max_steps(max_steps)
                .with_max_matches(max_matches),
        };

        for threads in [1usize, 4] {
            let ctx = format!(
                "round {round} ({engine:?}, {policy:?}, clusters={clusters}, \
                 threads={threads}, governor={governor:?}):\n{query}"
            );
            match execute_query(&query, &table, &opts(threads, governor.clone())) {
                Ok(result) => {
                    assert_eq!(result.table, full.table, "untripped ≠ ungoverned: {ctx}");
                    assert_eq!(result.stats, full.stats, "stats diverged: {ctx}");
                    assert!(result.is_complete(), "{ctx}");
                }
                Err(ExecError::Governed { trip, partial }) => {
                    tripped_runs += 1;
                    assert!(
                        partial.is_complete(),
                        "trip is not a cluster failure: {ctx}"
                    );
                    let partial_rows = rows(&partial.table);
                    assert!(
                        is_subsequence(&partial_rows, &full_rows),
                        "governed output is not a subsequence: {ctx}\n\
                         partial={partial_rows:?}\nfull={full_rows:?}"
                    );
                    if threads == 1 {
                        assert_eq!(
                            partial_rows,
                            full_rows[..partial_rows.len()],
                            "sequential governed output is not a prefix: {ctx}"
                        );
                    }
                    match trip.reason {
                        TripReason::StepBudget => {
                            assert!(trip.steps > max_steps, "{ctx}")
                        }
                        TripReason::MatchBudget => {
                            assert_eq!(partial.stats.matches, max_matches, "{ctx}");
                            assert_eq!(partial_rows.len() as u64, max_matches, "{ctx}");
                        }
                        TripReason::Deadline => {}
                    }
                }
                Err(e) => panic!("unexpected error: {e}\n{ctx}"),
            }
        }
    }
    // Sanity: the budget generator must actually exercise trips.
    assert!(
        tripped_runs > rounds / 4,
        "only {tripped_runs} governed runs tripped in {rounds} rounds"
    );
}

/// Property: feeding a relation one tuple at a time through a
/// [`StreamSession`] and then finishing produces the same rows, the same
/// stats, and (with instrumentation armed) the same per-cluster metrics
/// and event streams as one batch `execute` over the same rows — for
/// every engine, both policies, and both thread counts.
fn fuzz_streamed(seed: u64, rounds: u32) {
    use sqlts_core::{compile, execute, CompileOptions, Instrument, StreamOptions, StreamSession};
    use sqlts_datagen::quote_schema as schema;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut interesting = 0u32;
    for round in 0..rounds {
        let base = random_query(&mut rng);
        let text = base.replace("SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date");
        let clusters = rng.gen_range(1..=4);
        let table = random_clustered_table(&mut rng, clusters);
        let policy = if rng.gen_bool(0.5) {
            FirstTuplePolicy::VacuousTrue
        } else {
            FirstTuplePolicy::Fail
        };
        let engine = [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ][rng.gen_range(0..4usize)];
        let threads = [1usize, 4][rng.gen_range(0..2usize)];
        let query = compile(&text, &schema(), &CompileOptions::default())
            .unwrap_or_else(|e| panic!("round {round}: {text}: {e}"));
        let exec = ExecOptions {
            engine,
            policy,
            threads: NonZeroUsize::new(threads).unwrap(),
            instrument: Instrument::tracing(),
            ..Default::default()
        };
        let ctx = format!("round {round} ({engine:?}, {policy:?}, threads={threads}):\n{text}");

        let batch = execute(&query, &table, &exec).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        if batch.stats.matches > 0 {
            interesting += 1;
        }
        let mut session = StreamSession::new(
            &query,
            StreamOptions {
                exec: exec.clone(),
                ..StreamOptions::default()
            },
        )
        .unwrap();
        for row in table.rows() {
            session
                .feed(row.to_vec())
                .unwrap_or_else(|e| panic!("{ctx}: feed: {e}"));
        }
        let streamed = session
            .finish()
            .unwrap_or_else(|e| panic!("{ctx}: finish: {e}"));
        assert_eq!(streamed.table, batch.table, "streamed ≠ batch rows: {ctx}");
        assert_eq!(streamed.stats, batch.stats, "streamed ≠ batch stats: {ctx}");
        let (sp, bp) = (streamed.profile.unwrap(), batch.profile.unwrap());
        assert_eq!(sp.clusters, bp.clusters, "cluster profiles diverged: {ctx}");
        assert_eq!(sp.totals, bp.totals, "profile totals diverged: {ctx}");
        assert_eq!(sp.tuples, bp.tuples, "profile tuple counts diverged: {ctx}");
    }
    assert!(
        interesting > rounds / 5,
        "only {interesting}/{rounds} streamed runs had matches; generator is too cold"
    );
}

/// Property: a streaming session spends one step budget exactly as a
/// sequential batch run does.  Over random queries, cluster counts and
/// budgets, fed cluster by cluster or with the clusters interleaved, the
/// session trips exactly when batch at threads 1 does, at the same
/// `Trip::steps`, and the feed that crosses the budget is the one that
/// reports it.  On one cluster the partial rows are batch's too.  On
/// several they can differ even fed cluster by cluster: a session learns
/// that a cluster has ended only at `finish`, so the tests batch runs at
/// each cluster's end come later, and the budget runs out elsewhere.
/// Either partial is still a subsequence of the ungoverned rows.
fn fuzz_streamed_budget(seed: u64, rounds: u32) {
    use sqlts_core::{
        compile, CompileOptions, ExecError, Governor, QueryResult, StreamError, StreamOptions,
        StreamSession, Trip,
    };
    use sqlts_datagen::quote_schema as schema;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tripped = 0u32;
    for round in 0..rounds {
        let base = random_query(&mut rng);
        let text = base.replace("SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date");
        let clusters = rng.gen_range(1..=6);
        let table = random_clustered_table(&mut rng, clusters);
        let engine = [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ][rng.gen_range(0..4usize)];
        let query = compile(&text, &schema(), &CompileOptions::default())
            .unwrap_or_else(|e| panic!("round {round}: {text}: {e}"));
        let exec = |governor: Governor| ExecOptions {
            engine,
            governor,
            ..Default::default()
        };
        let full = execute(&query, &table, &exec(Governor::unlimited())).unwrap();
        let full_rows = rows(&full.table);
        let max_steps = rng.gen_range(0..=full.stats.steps + 4);
        let governor = Governor::unlimited().with_max_steps(max_steps);
        let batch = match execute(&query, &table, &exec(governor.clone())) {
            Ok(result) => (result, None),
            Err(ExecError::Governed { trip, partial }) => (*partial, Some(trip)),
            Err(e) => panic!("round {round}: {e}"),
        };
        // Cluster by cluster (the table's order), then round-robin.
        let mut by_cluster: Vec<Vec<Vec<Value>>> = Vec::new();
        for row in table.rows() {
            match by_cluster.last_mut() {
                Some(rows) if rows[0][0] == row[0] => rows.push(row.to_vec()),
                _ => by_cluster.push(vec![row.to_vec()]),
            }
        }
        let mut interleaved = Vec::new();
        for i in 0..by_cluster.iter().map(Vec::len).max().unwrap_or(0) {
            interleaved.extend(by_cluster.iter().filter_map(|rows| rows.get(i).cloned()));
        }
        let arrivals = [table.rows().map(<[Value]>::to_vec).collect(), interleaved];
        for (order, feed) in arrivals.into_iter().enumerate() {
            let ctx = format!(
                "round {round} ({engine:?}, clusters={clusters}, max_steps={max_steps}, \
                 order={order}):\n{text}"
            );
            let options = StreamOptions {
                exec: exec(governor.clone()),
                ..StreamOptions::default()
            };
            let mut session = StreamSession::new(&query, options).unwrap();
            let mut crossed: Option<Trip> = None;
            for row in feed {
                match session.feed(row) {
                    Ok(()) => {}
                    Err(StreamError::Governed { trip, .. }) => {
                        crossed = Some(trip);
                        break;
                    }
                    Err(e) => panic!("{ctx}: feed: {e}"),
                }
            }
            let streamed: (QueryResult, Option<Trip>) = match session.finish() {
                Ok(result) => (result, None),
                Err(StreamError::Governed {
                    trip,
                    partial: Some(partial),
                }) => (*partial, Some(trip)),
                Err(e) => panic!("{ctx}: finish: {e}"),
            };
            let steps = |trip: &Option<Trip>| trip.as_ref().map(|t| t.steps);
            assert_eq!(steps(&streamed.1), steps(&batch.1), "trip steps: {ctx}");
            if crossed.is_some() {
                assert_eq!(steps(&crossed), steps(&batch.1), "feed trip: {ctx}");
                assert_eq!(
                    streamed.0.stats.predicate_tests, batch.0.stats.predicate_tests,
                    "tests at the trip: {ctx}"
                );
            }
            let partial = rows(&streamed.0.table);
            assert!(is_subsequence(&partial, &full_rows), "{ctx}");
            if clusters == 1 {
                assert_eq!(partial, rows(&batch.0.table), "partial rows: {ctx}");
            }
        }
        tripped += u32::from(batch.1.is_some());
    }
    assert!(
        tripped > rounds / 4,
        "only {tripped} of {rounds} budgets tripped"
    );
}

/// Property: a checkpoint taken at *any* tuple boundary — serialized to
/// text and parsed back — resumes to the exact rows, stats, and profile
/// (per-cluster metrics and event rings) of the session that was never
/// interrupted.
fn fuzz_checkpoint_resume(seed: u64, rounds: u32) {
    use sqlts_core::{
        compile, CompileOptions, Instrument, SessionCheckpoint, StreamOptions, StreamSession,
    };
    use sqlts_datagen::quote_schema as schema;

    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..rounds {
        let base = random_query(&mut rng);
        let text = base.replace("SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date");
        let clusters = rng.gen_range(1..=3);
        let table = random_clustered_table(&mut rng, clusters);
        let all: Vec<Vec<Value>> = table.rows().map(<[Value]>::to_vec).collect();
        let engine = [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ][rng.gen_range(0..4usize)];
        let query = compile(&text, &schema(), &CompileOptions::default())
            .unwrap_or_else(|e| panic!("round {round}: {text}: {e}"));
        let options = || StreamOptions {
            exec: ExecOptions {
                engine,
                instrument: Instrument::tracing(),
                ..Default::default()
            },
            ..StreamOptions::default()
        };

        // Every boundary on small streams; a random sample on larger ones.
        let splits: Vec<usize> = if all.len() <= 24 {
            (0..=all.len()).collect()
        } else {
            let mut s = vec![0, 1, all.len() / 2, all.len() - 1, all.len()];
            for _ in 0..4 {
                s.push(rng.gen_range(0..=all.len()));
            }
            s
        };
        for split in splits {
            let ctx = format!(
                "round {round} ({engine:?}, split={split}/{}):\n{text}",
                all.len()
            );
            let mut live = StreamSession::new(&query, options()).unwrap();
            for row in &all[..split] {
                live.feed(row.clone()).unwrap();
            }
            let text_cp = live.snapshot().unwrap().to_text();
            for row in &all[split..] {
                live.feed(row.clone()).unwrap();
            }
            let live_result = live.finish().unwrap();

            let checkpoint = SessionCheckpoint::from_text(&text_cp)
                .unwrap_or_else(|e| panic!("{ctx}: parse: {e}"));
            assert_eq!(checkpoint.records(), split as u64, "{ctx}");
            let mut resumed = StreamSession::resume(&query, options(), checkpoint).unwrap();
            for row in &all[split..] {
                resumed.feed(row.clone()).unwrap();
            }
            let resumed_result = resumed.finish().unwrap();

            assert_eq!(
                resumed_result.table, live_result.table,
                "rows diverged: {ctx}"
            );
            assert_eq!(
                resumed_result.stats, live_result.stats,
                "stats diverged: {ctx}"
            );
            let (rp, lp) = (
                resumed_result.profile.unwrap(),
                live_result.profile.unwrap(),
            );
            assert_eq!(rp.clusters, lp.clusters, "cluster profiles diverged: {ctx}");
            assert_eq!(rp.totals, lp.totals, "profile totals diverged: {ctx}");
        }
    }
}

/// The one result that may differ with the thread count is a governed
/// partial at `threads > 1`: which clusters the workers reached before
/// the trip is a race.  What stays fixed, over ten clusters and twenty
/// runs at threads 4: a step-budget partial is an ordered subsequence of
/// the ungoverned rows, and its part in each cluster is a prefix of that
/// cluster's ungoverned rows; a match budget of N yields exactly N rows.
/// At threads 1 the partial is the same on every run.
#[test]
fn governed_partials_at_four_threads_are_per_cluster_prefixes() {
    use sqlts_core::{ExecError, Governor};

    let mut rng = SmallRng::seed_from_u64(0x9A27);
    let mut table = Table::new(quote_schema());
    let names: Vec<String> = (0..10).map(|c| format!("T{c}")).collect();
    for name in &names {
        let walk = integer_walk(200, 1, 10, 2, rng.gen::<u64>());
        push_walk(&mut table, &mut rng, name, &walk);
    }
    let query = "SELECT X.name, X.date AS start, Z.date AS stop FROM t \
                 CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) \
                 WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";
    let run = |threads: usize, governor: Governor| {
        let options = ExecOptions {
            threads: NonZeroUsize::new(threads).unwrap(),
            governor,
            ..Default::default()
        };
        execute_query(query, &table, &options)
    };
    let full = run(1, Governor::unlimited()).unwrap();
    let full_rows = rows(&full.table);
    let partial = |threads: usize, governor: Governor| match run(threads, governor) {
        Err(ExecError::Governed { partial, .. }) => rows(&partial.table),
        other => panic!("threads={threads}: expected a trip, got {other:?}"),
    };
    let in_cluster = |rows: &[Vec<Value>], name: &str| -> Vec<Vec<Value>> {
        let name = Value::from(name);
        rows.iter().filter(|row| row[0] == name).cloned().collect()
    };
    assert!(names
        .iter()
        .all(|name| !in_cluster(&full_rows, name).is_empty()));
    let steps = Governor::unlimited().with_max_steps(full.stats.steps / 3);
    let matches = full.stats.matches / 3;
    assert!(
        matches > 10,
        "too few matches to budget: {}",
        full.stats.matches
    );
    let sequential = partial(1, steps.clone());
    for round in 0..20 {
        let governed = partial(4, steps.clone());
        assert!(governed.len() < full_rows.len(), "round {round}: no trip");
        assert!(is_subsequence(&governed, &full_rows), "round {round}");
        for name in &names {
            let (ours, theirs) = (in_cluster(&governed, name), in_cluster(&full_rows, name));
            assert_eq!(ours, theirs[..ours.len()], "round {round}, cluster {name}");
        }
        let capped = partial(4, Governor::unlimited().with_max_matches(matches));
        assert_eq!(capped.len() as u64, matches, "round {round}");
        assert_eq!(partial(1, steps.clone()), sequential, "round {round}");
    }
}

#[test]
fn streamed_execution_agrees_with_batch() {
    fuzz_streamed(0x57AE4, 120);
}

#[test]
fn streamed_execution_agrees_with_batch_second_seed() {
    fuzz_streamed(0xFEED5, 120);
}

#[test]
fn streamed_step_budgets_trip_where_batch_does() {
    fuzz_streamed_budget(0xB0D6E7, 150);
}

#[test]
fn checkpoint_resume_is_bit_identical_at_every_boundary() {
    fuzz_checkpoint_resume(0xC4EC4, 12);
}

#[test]
fn random_patterns_agree_across_engines() {
    fuzz(0xC0FFEE, 400);
}

#[test]
fn governed_runs_are_prefix_consistent() {
    fuzz_governed(0x60BE6, 250);
}

#[test]
fn governed_runs_are_prefix_consistent_second_seed() {
    fuzz_governed(0xDEAD11E, 250);
}

#[test]
fn batch_driver_agrees_with_the_search_primitives() {
    fuzz_driver_against_primitives(0xD217E, 40);
}

#[test]
fn parallel_execution_agrees_with_sequential() {
    fuzz_parallel(0xBADC0DE, 300);
}

#[test]
fn parallel_execution_agrees_with_sequential_second_seed() {
    fuzz_parallel(0x5EED5, 300);
}

#[test]
fn random_patterns_agree_across_engines_second_seed() {
    fuzz(0xFEEDBEEF, 400);
}

/// Rows for the group fuzz: one channel's feed in date order across up to
/// four symbols, with about one tuple in twelve bad (short, mistyped or
/// out of order) and one price in ten NULL.
struct GroupFeed {
    day: i32,
    prices: [f64; 4],
}

impl GroupFeed {
    fn row(&mut self, rng: &mut SmallRng) -> Vec<Value> {
        let date = |day: i32| Value::Date(Date::from_ymd(1990, 1, 1).plus_days(day));
        let c = rng.gen_range(0..self.prices.len());
        let name = Value::from(format!("T{c}"));
        if rng.gen_bool(1.0 / 12.0) {
            return match rng.gen_range(0..3) {
                0 => vec![name, date(self.day)],
                1 => vec![name, date(self.day), Value::from("x")],
                _ => vec![name, date(self.day - 9), Value::from(5.0)],
            };
        }
        self.day += rng.gen_range(0..=1);
        let step = f64::from(rng.gen_range(-2i32..=2));
        self.prices[c] = (self.prices[c] + step).clamp(1.0, 10.0);
        let price = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::from(self.prices[c])
        };
        vec![name, date(self.day), price]
    }
}

/// A per-feed verdict, in the exit-class vocabulary both sides share.
/// Trips compare without their wall clock.
fn worker_verdict(result: Result<(), sqlts_core::WorkerError>) -> String {
    use sqlts_core::WorkerError;
    match result {
        Ok(()) => "ok".into(),
        Err(WorkerError::Governed(t)) => {
            format!("governed {:?} {} {}", t.reason, t.steps, t.matches)
        }
        Err(e) => format!("{} {e}", e.exit_code()),
    }
}

fn stream_verdict(result: Result<(), sqlts_core::StreamError>) -> String {
    use sqlts_core::StreamError;
    match result {
        Ok(()) => "ok".into(),
        Err(StreamError::Governed { trip: t, .. }) => {
            format!("governed {:?} {} {}", t.reason, t.steps, t.matches)
        }
        Err(e @ StreamError::QuarantineFull { .. }) => format!("5 {e}"),
        Err(e @ StreamError::Poisoned(_)) => format!("4 {e}"),
        Err(e) => format!("3 {e}"),
    }
}

/// Property: a worker seated in a session group reads back exactly its
/// solo session.  Each round draws 1–8 queries over one schema — mixed
/// `CLUSTER BY`/`SEQUENCE BY` columns, bad-tuple policies, engines, step
/// and match budgets — and a schedule of feeds (group feeds, and solo
/// feeds where a worker sits alone), refused feeds on grouped workers,
/// late joiners, status probes, snapshot-and-resume into a fresh worker,
/// drops and finishes.  The oracle is one `StreamSession` per worker fed
/// the same tuples and polled where the worker polls (before a status,
/// snapshot or finish): every per-row verdict, every status, the checkpoint
/// text at each snapshot and the finish (CSV, counts, trip, profile)
/// must agree, and each group seats exactly the workers still held.
fn fuzz_groups(seed: u64, rounds: u32) {
    use sqlts_core::{
        BadTuplePolicy, FinishReport, Governor, QueryResult, SessionCheckpoint, SessionWorker,
        SessionWorkerConfig, StreamError, StreamOptions, StreamSession, WorkerError, WorkerGroup,
    };

    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut shared_feeds, mut trips, mut resumes) = (0u32, 0u32, 0u32);
    for round in 0..rounds {
        let n = rng.gen_range(1..=8usize);
        let mut sqls = Vec::new();
        let mut options = Vec::new();
        // How a query admits: its CLUSTER BY / SEQUENCE BY columns and its
        // bad-tuple policy.  Most queries of a round share one, so they
        // can group; the rest draw their own.
        let admission = |rng: &mut SmallRng| {
            let cluster = ["", "CLUSTER BY name "][rng.gen_range(0..2usize)];
            let sequence = ["date", "date", "date, price"][rng.gen_range(0..3usize)];
            let policy = [
                BadTuplePolicy::Fail,
                BadTuplePolicy::Skip,
                BadTuplePolicy::Quarantine { cap: 3 },
            ][rng.gen_range(0..3usize)];
            (format!("{cluster}SEQUENCE BY {sequence}"), policy)
        };
        let common = admission(&mut rng);
        for _ in 0..n {
            let (by, bad_tuple) = if rng.gen_bool(0.7) {
                common.clone()
            } else {
                admission(&mut rng)
            };
            sqls.push(random_query(&mut rng).replace("SEQUENCE BY date", &by));
            let mut governor = Governor::unlimited();
            if rng.gen_bool(0.4) {
                governor = governor.with_max_steps(rng.gen_range(5..200));
            }
            if rng.gen_bool(0.2) {
                governor = governor.with_max_matches(rng.gen_range(1..6));
            }
            options.push(StreamOptions {
                exec: ExecOptions {
                    engine: [
                        EngineKind::Naive,
                        EngineKind::NaiveBacktrack,
                        EngineKind::Ops,
                        EngineKind::OpsShiftOnly,
                    ][rng.gen_range(0..4usize)],
                    governor,
                    instrument: [Instrument::none(), Instrument::tracing()]
                        [rng.gen_range(0..2usize)],
                    ..Default::default()
                },
                bad_tuple,
            });
        }
        let queries: Vec<_> = sqls
            .iter()
            .map(|sql| compile(sql, &quote_schema(), &CompileOptions::default()).unwrap())
            .collect();
        let config = |i: usize| {
            let mut config = SessionWorkerConfig::new(format!("w{i}"), &sqls[i], quote_schema());
            config.stream = options[i].clone();
            config
        };
        let ctx = |what: &str, i: usize| format!("round {round}, worker {i}, {what}:\n{}", sqls[i]);
        let mut workers: Vec<Option<SessionWorker>> = (0..n).map(|_| None).collect();
        let mut oracles: Vec<Option<StreamSession>> = (0..n).map(|_| None).collect();
        let mut next = 0;
        let spawn = |i: usize, workers: &mut Vec<Option<SessionWorker>>, resume: Option<&str>| {
            let groups: Vec<WorkerGroup> = workers
                .iter()
                .flatten()
                .map(|w| w.group().clone())
                .collect();
            let mut config = config(i);
            config.resume_from = resume.map(|text| SessionCheckpoint::from_text(text).unwrap());
            let worker = SessionWorker::spawn_in(config, &groups).unwrap();
            workers[i] = Some(worker);
        };
        // The first workers arrive before any tuple, so aligned ones group.
        for _ in 0..rng.gen_range(1..=n) {
            spawn(next, &mut workers, None);
            oracles[next] =
                Some(StreamSession::new(&queries[next], options[next].clone()).unwrap());
            next += 1;
        }
        let mut feed = GroupFeed {
            day: 0,
            prices: [5.0; 4],
        };
        let finish_check = |i: usize, report: FinishReport, mut oracle: StreamSession| {
            let _ = oracle.poll_deadline();
            let (skipped, quarantined) = (oracle.skipped(), oracle.quarantine().len());
            let (result, trip, error): (Option<QueryResult>, _, _) = match oracle.finish() {
                Ok(result) => (Some(result), None, None),
                Err(StreamError::Governed { trip, partial }) => (
                    partial.map(|p| *p),
                    Some((trip.reason, trip.steps, trip.matches)),
                    None,
                ),
                Err(e) => (None, None, Some(e.to_string())),
            };
            let what = ctx("finish", i);
            assert_eq!(
                report.trip.map(|t| (t.reason, t.steps, t.matches)),
                trip,
                "{what}"
            );
            assert_eq!(report.error, error, "{what}");
            assert_eq!(
                (report.skipped, report.quarantined),
                (skipped, quarantined),
                "{what}"
            );
            match result {
                Some(result) => {
                    assert_eq!(report.csv, result.table.to_csv_string(), "{what}");
                    assert_eq!(report.rows, result.stats.matches, "{what}");
                    assert_eq!(
                        report.predicate_tests, result.stats.predicate_tests,
                        "{what}"
                    );
                    match (report.profile, result.profile) {
                        (Some(ours), Some(theirs)) => {
                            assert_eq!(ours.clusters, theirs.clusters, "{what}");
                            assert_eq!(ours.totals, theirs.totals, "{what}");
                            assert_eq!(ours.tuples, theirs.tuples, "{what}");
                        }
                        (ours, theirs) => assert_eq!(ours.is_some(), theirs.is_some(), "{what}"),
                    }
                }
                None => assert_eq!((report.csv.as_str(), report.rows), ("", 0), "{what}"),
            }
        };
        for _ in 0..rng.gen_range(4..32) {
            let live: Vec<usize> = (0..n).filter(|&i| workers[i].is_some()).collect();
            let pick = |rng: &mut SmallRng| live[rng.gen_range(0..live.len())];
            // Workers sharing `i`'s group, `i` included.
            let mates = |workers: &[Option<SessionWorker>], i: usize| -> Vec<usize> {
                let group = workers[i].as_ref().unwrap().group();
                (0..n)
                    .filter(|&j| workers[j].as_ref().is_some_and(|w| w.group() == group))
                    .collect()
            };
            match rng.gen_range(0..12) {
                _ if live.is_empty() => break,
                0..=4 => {
                    let rows: Vec<Vec<Value>> = (0..rng.gen_range(1..=12))
                        .map(|_| feed.row(&mut rng))
                        .collect();
                    let mut done = vec![false; n];
                    for &i in &live {
                        if done[i] {
                            continue;
                        }
                        let members = mates(&workers, i);
                        let mut ours: Vec<Vec<String>> = vec![Vec::new(); n];
                        let worker = workers[i].as_ref().unwrap();
                        if members.len() == 1 && rng.gen_bool(0.5) {
                            for row in &rows {
                                ours[i].push(worker_verdict(worker.feed(row.clone())));
                            }
                        } else {
                            shared_feeds += u32::from(members.len() > 1);
                            let seat_of: Vec<(usize, usize)> = members
                                .iter()
                                .map(|&j| (workers[j].as_ref().unwrap().seat(), j))
                                .collect();
                            worker
                                .group()
                                .feed(rows.iter().cloned(), |seat, result| {
                                    let j = seat_of.iter().find(|(s, _)| *s == seat).unwrap().1;
                                    ours[j].push(worker_verdict(result));
                                })
                                .unwrap();
                        }
                        for &j in &members {
                            done[j] = true;
                            let oracle = oracles[j].as_mut().unwrap();
                            let theirs: Vec<String> = rows
                                .iter()
                                .map(|row| stream_verdict(oracle.feed(row.clone())))
                                .collect();
                            assert_eq!(ours[j], theirs, "{}", ctx("feed verdicts", j));
                            trips += u32::from(theirs.iter().any(|v| v.starts_with("governed")));
                        }
                    }
                }
                5 => {
                    // A grouped worker refuses a feed of its own: nobody
                    // sees the row.
                    let i = pick(&mut rng);
                    if mates(&workers, i).len() > 1 {
                        let refused = workers[i].as_ref().unwrap().feed(feed.row(&mut rng));
                        assert!(
                            matches!(refused, Err(WorkerError::Runtime(_))),
                            "{}",
                            ctx("grouped feed", i)
                        );
                    }
                }
                6 if next < n => {
                    spawn(next, &mut workers, None);
                    oracles[next] =
                        Some(StreamSession::new(&queries[next], options[next].clone()).unwrap());
                    next += 1;
                }
                7 => {
                    let i = pick(&mut rng);
                    let status = workers[i].as_ref().unwrap().status().unwrap();
                    let oracle = oracles[i].as_mut().unwrap();
                    let _ = oracle.poll_deadline();
                    let trip = |t: &sqlts_core::Trip| (t.reason, t.steps, t.matches);
                    assert_eq!(
                        (
                            status.records,
                            status.skipped,
                            status.quarantined,
                            status.window_bytes,
                            status.predicate_tests,
                            status.trip.as_ref().map(trip),
                            status.poisoned,
                        ),
                        (
                            oracle.records(),
                            oracle.skipped(),
                            oracle.quarantine().len(),
                            oracle.window_bytes(),
                            oracle.predicate_tests(),
                            oracle.trip().map(trip),
                            oracle.poisoned(),
                        ),
                        "{}",
                        ctx("status", i)
                    );
                }
                8 => {
                    let i = pick(&mut rng);
                    let text = workers[i].as_ref().unwrap().snapshot().unwrap();
                    let oracle = oracles[i].as_mut().unwrap();
                    let _ = oracle.poll_deadline();
                    let theirs = oracle.snapshot().unwrap().to_text();
                    assert_eq!(text, theirs, "{}", ctx("checkpoint", i));
                    // Both sides resume with a fresh governor (restored work
                    // was metered by the run that checkpointed).
                    workers[i] = None;
                    spawn(i, &mut workers, Some(&text));
                    let checkpoint = SessionCheckpoint::from_text(&text).unwrap();
                    oracles[i] = Some(
                        StreamSession::resume(&queries[i], options[i].clone(), checkpoint).unwrap(),
                    );
                    resumes += 1;
                }
                9 => {
                    let i = pick(&mut rng);
                    workers[i] = None;
                    oracles[i] = None;
                }
                10 => {
                    let i = pick(&mut rng);
                    let report = workers[i].take().unwrap().finish().unwrap();
                    finish_check(i, report, oracles[i].take().unwrap());
                }
                _ => {}
            }
            for i in (0..n).filter(|&i| workers[i].is_some()) {
                let held = mates(&workers, i).len();
                let seated = workers[i].as_ref().unwrap().group().seated();
                assert_eq!(seated, held, "{}", ctx("seats", i));
            }
        }
        for i in 0..n {
            if let Some(worker) = workers[i].take() {
                let report = worker.finish().unwrap();
                finish_check(i, report, oracles[i].take().unwrap());
            }
        }
    }
    assert!(
        shared_feeds > rounds / 2 && trips > rounds / 10 && resumes > rounds / 2,
        "generator is too cold: {shared_feeds} shared feeds, {trips} governed \
         feeds, {resumes} resumes in {rounds} rounds"
    );
}

#[test]
fn group_workers_read_back_their_solo_sessions() {
    fuzz_groups(0x6E0B5, 150);
}

#[test]
#[ignore = "soak: run with --ignored (CI's soak job does)"]
fn group_workers_read_back_their_solo_sessions_soak() {
    fuzz_groups(0x50A6E0B5, 3000);
}

/// Property: a session group fed a stream in frames stands exactly where
/// one fed the same stream row by row stands.  Each round seats 1–6
/// random queries — every engine, instrumented or not, some with step or
/// match budgets (driven after every row), the rest driven once per
/// frame — in two groups that admit alike under one bad-tuple policy.
/// One group takes the rows in random frames of 1–16, the other one row
/// per frame.  Each seat's per-row verdicts, its status and checkpoint
/// text at every frame boundary, and its finish (CSV, counts, trip,
/// predicate tests, profile clusters and totals) must agree.
fn fuzz_chunking(seed: u64, rounds: u32) {
    use sqlts_core::{
        BadTuplePolicy, FinishReport, Governor, SessionWorker, SessionWorkerConfig, StreamOptions,
        WorkerError,
    };

    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut framed, mut governed, mut long_frames) = (0u32, 0u32, 0u32);
    for round in 0..rounds {
        let n = rng.gen_range(1..=6usize);
        let by = ["SEQUENCE BY date", "CLUSTER BY name SEQUENCE BY date"][rng.gen_range(0..2usize)];
        let bad_tuple = [
            BadTuplePolicy::Fail,
            BadTuplePolicy::Skip,
            BadTuplePolicy::Quarantine { cap: 3 },
        ][round as usize % 3];
        let configs: Vec<SessionWorkerConfig> = (0..n)
            .map(|i| {
                let sql = random_query(&mut rng).replace("SEQUENCE BY date", by);
                let mut governor = Governor::unlimited();
                if rng.gen_bool(0.3) {
                    governor = governor.with_max_steps(rng.gen_range(5..300));
                }
                if rng.gen_bool(0.15) {
                    governor = governor.with_max_matches(rng.gen_range(1..6));
                }
                governed += u32::from(!governor.is_unlimited());
                let mut config = SessionWorkerConfig::new(format!("w{i}"), sql, quote_schema());
                config.stream = StreamOptions {
                    exec: ExecOptions {
                        engine: [
                            EngineKind::Naive,
                            EngineKind::NaiveBacktrack,
                            EngineKind::Ops,
                            EngineKind::OpsShiftOnly,
                        ][rng.gen_range(0..4usize)],
                        governor,
                        instrument: [Instrument::none(), Instrument::tracing()]
                            [rng.gen_range(0..2usize)],
                        ..Default::default()
                    },
                    bad_tuple,
                };
                config
            })
            .collect();
        let seat_all = || {
            let lead = SessionWorker::spawn(configs[0].clone()).unwrap();
            let mut workers = vec![];
            for config in &configs[1..] {
                workers.push(SessionWorker::spawn_in(config.clone(), [lead.group()]).unwrap());
            }
            workers.insert(0, lead);
            assert!(workers.iter().all(|w| w.group() == workers[0].group()));
            workers
        };
        let (whole, single) = (seat_all(), seat_all());
        let mut feed = GroupFeed {
            day: 0,
            prices: [5.0; 4],
        };
        let rows: Vec<Vec<Value>> = (0..rng.gen_range(20..160))
            .map(|_| feed.row(&mut rng))
            .collect();
        let what =
            |i: usize, at: usize| format!("round {round}, seat {i}, row {at}:\n{}", configs[i].sql);
        let feed_frame = |workers: &[SessionWorker], frame: &[Vec<Value>]| {
            let mut verdicts = vec![Vec::new(); n];
            let record = |seat: usize, result: Result<(), WorkerError>| {
                verdicts[seat].push(worker_verdict(result));
            };
            workers[0]
                .group()
                .feed(frame.iter().cloned(), record)
                .unwrap();
            verdicts
        };
        let mut at = 0;
        while at < rows.len() {
            let len = rng.gen_range(1..=16usize).min(rows.len() - at);
            let frame = &rows[at..at + len];
            let ours = feed_frame(&whole, frame);
            let mut theirs = vec![Vec::new(); n];
            for row in frame {
                let one = feed_frame(&single, std::slice::from_ref(row));
                for (seat, verdicts) in one.into_iter().enumerate() {
                    theirs[seat].extend(verdicts);
                }
            }
            at += len;
            framed += u32::from(len > 1);
            long_frames += u32::from(len >= 12);
            for i in 0..n {
                assert_eq!(ours[i], theirs[i], "{}", what(i, at));
                let status = |w: &SessionWorker| {
                    let s = w.status().unwrap();
                    let trip = s.trip.map(|t| (t.reason, t.steps, t.matches));
                    let counts = (s.records, s.skipped, s.quarantined);
                    (counts, s.window_bytes, s.predicate_tests, trip, s.poisoned)
                };
                assert_eq!(status(&whole[i]), status(&single[i]), "{}", what(i, at));
                assert_eq!(
                    whole[i].snapshot().unwrap(),
                    single[i].snapshot().unwrap(),
                    "{}",
                    what(i, at)
                );
            }
        }
        for i in 0..n {
            let summary = |report: FinishReport| {
                let trip = report.trip.map(|t| (t.reason, t.steps, t.matches));
                let profile = report.profile.map(|p| (p.clusters, p.totals, p.tuples));
                let counts = (report.rows, report.skipped, report.quarantined);
                let tests = report.predicate_tests;
                (report.csv, counts, tests, trip, report.error, profile)
            };
            let ours = summary(whole[i].finish().unwrap());
            let theirs = summary(single[i].finish().unwrap());
            assert_eq!(ours, theirs, "{}", what(i, rows.len()));
        }
    }
    assert!(
        framed > rounds * 3 && governed > rounds / 2 && long_frames > rounds,
        "generator is too cold: {framed} multi-row frames, {long_frames} frames of 12 or \
         more, {governed} governed queries in {rounds} rounds"
    );
}

#[test]
fn framed_feeds_stand_where_row_by_row_feeds_stand() {
    fuzz_chunking(0xF8A3E, 200);
}

#[test]
#[ignore = "soak: run with --ignored (CI's soak job does)"]
fn framed_feeds_stand_where_row_by_row_feeds_stand_soak() {
    fuzz_chunking(0x50AF8A3E, 3000);
}

/// §5.1's implication-graph derivation (`star_shift_next`) computes
/// exactly §4.2's S-matrix tables (`s_matrix_shift_next`) on star-free
/// patterns — the equality that lets one derivation serve both — over the
/// predicate pool above at m = 1–12 and the paper's own star-free
/// patterns: Example 3's constants, Example 4's query with its cluster
/// filter, and the four-element pattern of Examples 5–7.
#[test]
fn star_free_shift_next_agrees_with_the_star_graph() {
    let paper = [
        "SELECT X.date FROM t SEQUENCE BY date AS (X, Y, Z) \
         WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15",
        "SELECT X.date FROM t CLUSTER BY name SEQUENCE BY date AS (X, Y, Z, T, U) \
         WHERE X.name = 'IBM' AND Y.price < X.price \
         AND Z.price < Y.price AND Z.price > 40 AND Z.price < 50 \
         AND T.price > Z.price AND T.price < 52 AND U.price > T.price",
        "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C, D) \
         WHERE A.price < A.previous.price \
         AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
         AND C.price > C.previous.price AND C.price < 52 \
         AND D.price > D.previous.price",
    ];
    let mut rng = SmallRng::seed_from_u64(0x19A);
    let random: Vec<String> = (0..1_200)
        .map(|i| {
            let m = if i % 4 == 0 {
                rng.gen_range(6..=12)
            } else {
                rng.gen_range(1..=5)
            };
            random_query_of(&mut rng, m, 0.0)
        })
        .collect();
    for sql in paper
        .iter()
        .copied()
        .chain(random.iter().map(String::as_str))
    {
        let query = compile(sql, &quote_schema(), &CompileOptions::default()).unwrap();
        assert!(query.elements.iter().all(|e| !e.star), "{sql}");
        let pattern = Predicates::new(&query.elements);
        let pre = PrecondMatrices::build(pattern);
        assert_eq!(
            star_shift_next(pattern, &pre),
            s_matrix_shift_next(&pre),
            "{sql}"
        );
    }
}

/// §4.2's `shift` / `next` read off the `S` matrix: the test-side
/// reference the planner's implication-graph tables are compared with.
fn s_matrix_shift_next(pre: &PrecondMatrices) -> sqlts_core::ShiftNext {
    use sqlts_tvl::Truth;
    let m = pre.dim();
    let s = shift_next::s_matrix(pre);
    let mut shift = vec![0usize; m + 1];
    let mut next = vec![0usize; m + 1];
    for j in 1..=m {
        // shift(j): the leftmost column of row j that is not 0, else j.
        let sh = (1..j).find(|&k| s.get(j, k) != Truth::False).unwrap_or(j);
        shift[j] = sh;
        // next(j): 0 after a full shift (restart), else the first t with
        // θ[sh+t][t] = U, defaulting to j-sh.  The paper's case 2
        // (S[j][sh] = 1 → j-sh+1) folds into j-sh: the runtime re-tests
        // element j-sh on the failed tuple, as textbook KMP does.
        next[j] = if sh == j {
            0
        } else {
            (1..(j - sh))
                .find(|&t| pre.theta.get(sh + t, t) == Truth::Unknown)
                .unwrap_or(j - sh)
        };
    }
    sqlts_core::ShiftNext::from_arrays(shift, next)
}
