//! Shared pattern-set execution must be *observationally invisible*:
//! `execute_set` over N standing queries returns, slot by slot, exactly
//! what N solo `execute` calls return — rows, stats, armed profiles,
//! governor trips — while physically evaluating strictly fewer
//! predicates when the patterns share structure.
//!
//! Random pattern sets (mixed shared families and unrelated queries)
//! are swept across engines, policies and thread counts; a streamed
//! variant checkpoints every member at every feed boundary and resumes
//! through the `sqlts-checkpoint v1` text codec.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlts_core::{
    compile, execute, execute_set, CompileOptions, CompiledQuery, EngineKind, ExecError,
    ExecOptions, FirstTuplePolicy, Governor, Instrument, SessionCheckpoint, SharedStreamSession,
    StreamOptions,
};
use sqlts_datagen::{integer_walk, quote_schema};
use sqlts_relation::{Date, Table, Value};
use std::num::NonZeroUsize;

/// Predicate alphabet.  The first block is purely local with `Cur`
/// anchors only — internable into shared element classes; the second
/// block reaches back via `previous`, forcing those elements solo.
/// Equivalence must hold for any mix.
const PREDICATES: &[&str] = &[
    "{v}.price < 5",
    "{v}.price > 5",
    "{v}.price >= 3 AND {v}.price <= 8",
    "{v}.price = 4",
    "{v}.price > 2",
    "{v}.price <> 7",
    "{v}.price < {v}.previous.price",
    "{v}.price > {v}.previous.price",
];

/// A random multi-symbol table: `clusters` independent integer walks
/// interleaved under distinct names, about one price in five NULL.
fn random_clustered_table(rng: &mut SmallRng, clusters: usize) -> Table {
    let mut table = Table::new(quote_schema());
    for c in 0..clusters {
        let name = format!("T{c}");
        let n = rng.gen_range(0..200);
        let walk = integer_walk(n, 1, 10, 2, rng.gen::<u64>());
        let mut day = Date::from_ymd(1990, 1, 1);
        for p in walk {
            while day.is_weekend() {
                day = day.plus_days(1);
            }
            table
                .push_row(vec![
                    Value::from(name.as_str()),
                    Value::Date(day),
                    if rng.gen_bool(0.2) {
                        Value::Null
                    } else {
                        Value::from(p)
                    },
                ])
                .unwrap();
            day = day.plus_days(1);
        }
    }
    table
}

fn random_query(rng: &mut SmallRng) -> String {
    let m = rng.gen_range(1..=4);
    let mut vars = Vec::new();
    let mut conds = Vec::new();
    for i in 0..m {
        let name = format!("V{i}");
        let star = rng.gen_bool(0.3);
        vars.push(if star {
            format!("*{name}")
        } else {
            name.clone()
        });
        for _ in 0..rng.gen_range(0..=2) {
            let p = PREDICATES[rng.gen_range(0..PREDICATES.len())].replace("{v}", &name);
            // About one predicate in four under `NOT`.
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
        "SELECT {select} FROM t CLUSTER BY name SEQUENCE BY date AS ({})",
        vars.join(", ")
    );
    if !conds.is_empty() {
        q.push_str(&format!(" WHERE {}", conds.join(" AND ")));
    }
    q
}

/// A random pattern set.  Half the time a *family* — one random body
/// plus a member-specific tail predicate, the shape that exercises
/// cross-query sharing — and half the time unrelated random queries
/// (each still equivalent to its solo run, just without savings).
fn random_set(rng: &mut SmallRng, k: usize) -> Vec<String> {
    if rng.gen_bool(0.5) {
        let base = random_query(rng);
        let glue = if base.contains(" WHERE ") {
            " AND "
        } else {
            " WHERE "
        };
        (0..k)
            .map(|i| format!("{base}{glue}(V0.price < {})", 4 + i))
            .collect()
    } else {
        (0..k).map(|_| random_query(rng)).collect()
    }
}

fn compile_set(texts: &[String]) -> Vec<CompiledQuery> {
    texts
        .iter()
        .map(|t| {
            compile(t, &quote_schema(), &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{t}: {e}"))
        })
        .collect()
}

/// The invisibility oracle: run every query solo, run the set shared,
/// and demand slot-by-slot bit-identity — Ok results match on rows,
/// stats and (when armed) profiles; governed slots match on trip
/// reason, trip step and the partial result.  Returns the solo
/// predicate-test sum for savings assertions.
fn assert_set_matches_solo(
    queries: &[CompiledQuery],
    table: &Table,
    exec: &ExecOptions,
    ctx: &str,
) -> u64 {
    let set = execute_set(queries, table, exec);
    assert_eq!(set.results.len(), queries.len(), "{ctx}");
    let mut solo_sum = 0u64;
    for (i, (query, shared)) in queries.iter().zip(&set.results).enumerate() {
        let solo = execute(query, table, exec);
        match (solo, shared) {
            (Ok(solo), Ok(shared)) => {
                solo_sum += solo.stats.predicate_tests;
                assert_eq!(shared.table, solo.table, "slot {i} rows: {ctx}");
                assert_eq!(shared.stats, solo.stats, "slot {i} stats: {ctx}");
                match (&solo.profile, &shared.profile) {
                    (Some(sp), Some(hp)) => {
                        assert_eq!(hp.clusters, sp.clusters, "slot {i} profile: {ctx}");
                        assert_eq!(hp.totals, sp.totals, "slot {i} profile: {ctx}");
                        assert_eq!(hp.tuples, sp.tuples, "slot {i} profile: {ctx}");
                    }
                    (None, None) => {}
                    _ => panic!("slot {i}: profile armed on one side only: {ctx}"),
                }
            }
            (
                Err(ExecError::Governed {
                    trip: st,
                    partial: sp,
                }),
                Err(ExecError::Governed {
                    trip: ht,
                    partial: hp,
                }),
            ) => {
                solo_sum += sp.stats.predicate_tests;
                assert_eq!(ht.reason, st.reason, "slot {i} trip reason: {ctx}");
                assert_eq!(ht.steps, st.steps, "slot {i} trip step: {ctx}");
                assert_eq!(ht.matches, st.matches, "slot {i} trip matches: {ctx}");
                assert_eq!(hp.table, sp.table, "slot {i} partial rows: {ctx}");
                assert_eq!(hp.stats, sp.stats, "slot {i} partial stats: {ctx}");
            }
            (solo, shared) => panic!(
                "slot {i}: solo {:?} vs shared {:?} diverged: {ctx}",
                solo.as_ref()
                    .map(|r| r.table.len())
                    .map_err(ToString::to_string),
                shared
                    .as_ref()
                    .map(|r| r.table.len())
                    .map_err(ToString::to_string),
            ),
        }
    }
    assert_eq!(
        set.stats.tests_logical, solo_sum,
        "logical tests must equal the solo sum: {ctx}"
    );
    assert_eq!(
        set.stats.tests_evaluated + set.stats.tests_saved,
        set.stats.tests_logical,
        "counter ledger must balance: {ctx}"
    );
    solo_sum
}

/// Property: for random pattern sets across engines, policies and
/// thread counts, the shared pass is bit-identical to solo runs — and,
/// since "identical to a solo run of the same engine" would let a shared
/// and a solo OPS drop the same match, every query's OPS rows also equal
/// the greedy-naive reference.
fn fuzz_set(seed: u64, rounds: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut interesting = 0u32;
    for round in 0..rounds {
        let k = rng.gen_range(2..=6);
        let texts = random_set(&mut rng, k);
        let queries = compile_set(&texts);
        let clusters = rng.gen_range(1..=4);
        let table = random_clustered_table(&mut rng, clusters);
        let engine = [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ][rng.gen_range(0..4usize)];
        let policy = if rng.gen_bool(0.5) {
            FirstTuplePolicy::VacuousTrue
        } else {
            FirstTuplePolicy::Fail
        };
        for threads in [1usize, 4] {
            let exec = ExecOptions {
                engine,
                policy,
                threads: NonZeroUsize::new(threads).unwrap(),
                instrument: Instrument::tracing(),
                ..Default::default()
            };
            let ctx = format!(
                "round {round} ({engine:?}, {policy:?}, threads={threads}):\n{}",
                texts.join("\n")
            );
            let solo_sum = assert_set_matches_solo(&queries, &table, &exec, &ctx);
            if solo_sum > 0 {
                interesting += 1;
            }
        }
        let naive = ExecOptions {
            engine: EngineKind::Naive,
            policy,
            ..Default::default()
        };
        let ops = ExecOptions {
            engine: EngineKind::Ops,
            ..naive.clone()
        };
        for (query, text) in queries.iter().zip(&texts) {
            assert_eq!(
                execute(query, &table, &ops).unwrap().table,
                execute(query, &table, &naive).unwrap().table,
                "round {round} (ops vs naive, {policy:?}):\n{text}"
            );
        }
    }
    assert!(
        interesting > rounds / 4,
        "only {interesting}/{rounds} rounds did any work; generator is too cold"
    );
}

#[test]
fn random_pattern_sets_are_bit_identical_to_solo_runs() {
    fuzz_set(0x5E7A, 60);
}

#[test]
fn random_pattern_sets_are_bit_identical_to_solo_runs_second_seed() {
    fuzz_set(0xB17B17, 60);
}

/// The deterministic prefix-sharing family from the acceptance
/// criterion: identical bodies, member-specific tail constant.
fn prefix_family(k: usize) -> Vec<String> {
    (0..k)
        .map(|i| {
            format!(
                "SELECT V0.date FROM t CLUSTER BY name SEQUENCE BY date AS (V0, V1, V2) \
                 WHERE V0.price >= 3 AND V1.price > 2 AND V2.price < {}",
                4 + i
            )
        })
        .collect()
}

/// Acceptance: over ≥ 8 prefix-sharing queries the shared pass performs
/// strictly fewer physical predicate tests than the solo sum, while the
/// logical ledger still charges exactly the solo sum.
#[test]
fn shared_set_strictly_saves_predicate_tests() {
    let mut rng = SmallRng::seed_from_u64(0x5A71465);
    let texts = prefix_family(8);
    let queries = compile_set(&texts);
    let table = random_clustered_table(&mut rng, 3);
    for threads in [1usize, 4] {
        let exec = ExecOptions {
            engine: EngineKind::Ops,
            threads: NonZeroUsize::new(threads).unwrap(),
            ..Default::default()
        };
        let ctx = format!("threads={threads}");
        let solo_sum = assert_set_matches_solo(&queries, &table, &exec, &ctx);
        let set = execute_set(&queries, &table, &exec);
        assert!(solo_sum > 0, "family found no work to share");
        assert_eq!(set.stats.tests_logical, solo_sum, "{ctx}");
        assert!(
            set.stats.tests_evaluated < solo_sum,
            "shared pass must evaluate strictly less than {solo_sum}, got {}: {ctx}",
            set.stats.tests_evaluated
        );
        assert!(set.stats.tests_shared > 0, "{ctx}");
    }
}

/// Satellite: the governor's per-query accounting is unchanged under
/// sharing — a `--max-steps` budget trips at exactly the same step,
/// with exactly the same partial result, whether the query runs solo or
/// inside a shared set.  Swept over budgets from zero to past the full
/// run, so every slot is exercised both tripped and untripped.
#[test]
fn governor_trips_at_the_same_step_shared_or_not() {
    let mut rng = SmallRng::seed_from_u64(0x60B5E7);
    let texts = prefix_family(6);
    let queries = compile_set(&texts);
    let table = random_clustered_table(&mut rng, 3);
    let full_steps: Vec<u64> = queries
        .iter()
        .map(|q| {
            execute(q, &table, &ExecOptions::default())
                .unwrap()
                .stats
                .predicate_tests
        })
        .collect();
    let max = *full_steps.iter().max().unwrap();
    assert!(max > 8, "family too small to exercise budgets");
    let mut tripped_budgets = 0u32;
    for budget in [0, 1, max / 7, max / 3, max / 2, max - 1, max + 16] {
        let exec = ExecOptions {
            engine: EngineKind::Ops,
            governor: Governor::unlimited().with_max_steps(budget),
            ..Default::default()
        };
        let ctx = format!("max_steps={budget}");
        assert_set_matches_solo(&queries, &table, &exec, &ctx);
        let set = execute_set(&queries, &table, &exec);
        if set.results.iter().any(Result::is_err) {
            tripped_budgets += 1;
        }
    }
    assert!(tripped_budgets >= 3, "budget sweep never tripped");
}

/// Property: a [`SharedStreamSession`] fed row by row finishes
/// bit-identical to the batch shared pass — and a session checkpointed
/// at *every* feed boundary (each member's plain v1 checkpoint
/// round-tripped through the text codec) resumes to the same rows and
/// stats, with the memo cold but the ledger still balanced.
fn fuzz_shared_stream(seed: u64, rounds: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..rounds {
        let k = rng.gen_range(2..=4);
        let texts = random_set(&mut rng, k);
        let queries = compile_set(&texts);
        let clusters = rng.gen_range(1..=3);
        let table = random_clustered_table(&mut rng, clusters);
        let all: Vec<Vec<Value>> = table.rows().map(<[Value]>::to_vec).collect();
        let options = StreamOptions::default();
        let ctx = format!("round {round}:\n{}", texts.join("\n"));

        let reference: Vec<_> = queries
            .iter()
            .map(|q| execute(q, &table, &options.exec).unwrap())
            .collect();

        let mut live = SharedStreamSession::new(&queries, &options).unwrap();
        for row in &all {
            live.feed(row.clone())
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
        let (results, stats) = live.finish();
        for (i, (result, expected)) in results.iter().zip(&reference).enumerate() {
            let result = result.as_ref().unwrap();
            assert_eq!(result.table, expected.table, "member {i} rows: {ctx}");
            assert_eq!(result.stats, expected.stats, "member {i} stats: {ctx}");
        }
        assert_eq!(
            stats.tests_evaluated + stats.tests_saved,
            stats.tests_logical,
            "{ctx}"
        );

        // Resume from every boundary on small streams, a sample on larger.
        let splits: Vec<usize> = if all.len() <= 20 {
            (0..=all.len()).collect()
        } else {
            let mut s = vec![0, 1, all.len() / 2, all.len()];
            for _ in 0..3 {
                s.push(rng.gen_range(0..=all.len()));
            }
            s
        };
        for split in splits {
            let sctx = format!("{ctx}\nsplit={split}/{}", all.len());
            let mut first = SharedStreamSession::new(&queries, &options).unwrap();
            for row in &all[..split] {
                first.feed(row.clone()).unwrap();
            }
            let checkpoints: Vec<Option<SessionCheckpoint>> = first
                .snapshot_all()
                .unwrap()
                .into_iter()
                .map(|cp| {
                    Some(
                        SessionCheckpoint::from_text(&cp.to_text())
                            .unwrap_or_else(|e| panic!("{sctx}: {e}")),
                    )
                })
                .collect();
            drop(first);
            let mut resumed = SharedStreamSession::resume(&queries, &options, checkpoints).unwrap();
            for row in &all[split..] {
                resumed.feed(row.clone()).unwrap();
            }
            let (results, stats) = resumed.finish();
            for (i, (result, expected)) in results.iter().zip(&reference).enumerate() {
                let result = result.as_ref().unwrap();
                assert_eq!(result.table, expected.table, "member {i} rows: {sctx}");
                assert_eq!(result.stats, expected.stats, "member {i} stats: {sctx}");
            }
            assert_eq!(
                stats.tests_evaluated + stats.tests_saved,
                stats.tests_logical,
                "{sctx}"
            );
        }
    }
}

#[test]
fn shared_stream_resume_from_every_prefix_is_bit_identical() {
    fuzz_shared_stream(0x57BEA3, 8);
}
