//! Shared pattern-set streaming must be *observationally invisible*: a
//! `SharedStreamSession` over N standing queries finishes, member by
//! member, exactly as N solo runs — rows, stats, armed profiles, governor
//! trips — while physically evaluating strictly fewer predicates when the
//! patterns share structure.
//!
//! Random pattern sets (mixed shared families and unrelated queries) are
//! swept across engines and policies; every member is checkpointed at
//! feed boundaries and resumed through the `sqlts-checkpoint v1` text
//! codec.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlts_core::{
    compile, execute, CompileOptions, CompiledQuery, EngineKind, ExecOptions, FirstTuplePolicy,
    Governor, Instrument, PatternSetStats, QueryResult, SessionCheckpoint, SetFeedError,
    SharedStreamSession, StreamError, StreamOptions, StreamSession,
};
use sqlts_datagen::{integer_walk, quote_schema};
use sqlts_relation::{Date, Table, Value};

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

/// A shared stream member's result must equal its solo result: rows,
/// stats and, when armed, the profile.
fn assert_member_matches(result: &QueryResult, expected: &QueryResult, ctx: &str) {
    assert_eq!(result.table, expected.table, "rows: {ctx}");
    assert_eq!(result.stats, expected.stats, "stats: {ctx}");
    match (&result.profile, &expected.profile) {
        (Some(rp), Some(ep)) => {
            assert_eq!(rp.clusters, ep.clusters, "profile: {ctx}");
            assert_eq!(rp.totals, ep.totals, "profile: {ctx}");
            assert_eq!(rp.tuples, ep.tuples, "profile: {ctx}");
        }
        (None, None) => {}
        _ => panic!("profile armed on one side only: {ctx}"),
    }
}

fn rows_of(table: &Table) -> Vec<Vec<Value>> {
    table.rows().map(<[Value]>::to_vec).collect()
}

/// Feed every row through one shared session and finish it.
fn shared_run(
    queries: &[CompiledQuery],
    options: &StreamOptions,
    rows: &[Vec<Value>],
) -> (Vec<Result<QueryResult, StreamError>>, PatternSetStats) {
    let mut session = SharedStreamSession::new(queries, options).unwrap();
    for row in rows {
        session.feed(row.clone()).unwrap();
    }
    session.finish()
}

/// Property: a [`SharedStreamSession`] fed row by row finishes with every
/// member bit-identical to its solo batch run — rows, stats and traced
/// profile, under a random engine and `FirstTuplePolicy` — and a session
/// checkpointed at *every* feed boundary (each member's plain v1
/// checkpoint round-tripped through the text codec) resumes to the same
/// results, with the memo cold but the ledger still balanced.  Since
/// "identical to a solo run of the same engine" would let a shared and a
/// solo OPS drop the same match, every query's OPS rows also equal the
/// greedy-naive reference.
fn fuzz_shared_stream(seed: u64, rounds: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..rounds {
        let k = rng.gen_range(2..=4);
        let texts = random_set(&mut rng, k);
        let queries = compile_set(&texts);
        let clusters = rng.gen_range(1..=3);
        let table = random_clustered_table(&mut rng, clusters);
        let all = rows_of(&table);
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
        let options = StreamOptions {
            exec: ExecOptions {
                engine,
                policy,
                instrument: Instrument::tracing(),
                ..Default::default()
            },
            ..Default::default()
        };
        let ctx = format!(
            "round {round} ({engine:?}, {policy:?}):\n{}",
            texts.join("\n")
        );

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

        let reference: Vec<_> = queries
            .iter()
            .map(|q| execute(q, &table, &options.exec).unwrap())
            .collect();
        let (results, stats) = shared_run(&queries, &options, &all);
        for (i, (result, expected)) in results.iter().zip(&reference).enumerate() {
            let at = format!("member {i}: {ctx}");
            assert_member_matches(result.as_ref().unwrap(), expected, &at);
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
                let at = format!("member {i}: {sctx}");
                assert_member_matches(result.as_ref().unwrap(), expected, &at);
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
    fuzz_shared_stream(0x57BEA3, 40);
}

#[test]
#[ignore = "high-round variant of shared_stream_resume_from_every_prefix_is_bit_identical"]
fn shared_stream_resume_from_every_prefix_is_bit_identical_long() {
    fuzz_shared_stream(0x5EA_F00D, 1000);
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

/// Acceptance: over ≥ 8 prefix-sharing queries the shared stream performs
/// strictly fewer physical predicate tests than the solo sum, while the
/// logical ledger still charges exactly the solo sum.
#[test]
fn shared_set_strictly_saves_predicate_tests() {
    let mut rng = SmallRng::seed_from_u64(0x5A71465);
    let queries = compile_set(&prefix_family(8));
    let table = random_clustered_table(&mut rng, 3);
    let options = StreamOptions {
        exec: ExecOptions {
            engine: EngineKind::Ops,
            ..Default::default()
        },
        ..Default::default()
    };
    let (results, stats) = shared_run(&queries, &options, &rows_of(&table));
    let mut solo_sum = 0u64;
    for (i, (query, result)) in queries.iter().zip(&results).enumerate() {
        let solo = execute(query, &table, &options.exec).unwrap();
        solo_sum += solo.stats.predicate_tests;
        assert_member_matches(result.as_ref().unwrap(), &solo, &format!("member {i}"));
    }
    assert!(solo_sum > 0, "family found no work to share");
    assert_eq!(stats.tests_logical, solo_sum, "{stats:?}");
    assert_eq!(
        stats.tests_evaluated + stats.tests_saved,
        stats.tests_logical,
        "{stats:?}"
    );
    assert!(
        stats.tests_evaluated < solo_sum,
        "shared stream must evaluate strictly less than {solo_sum}, got {}",
        stats.tests_evaluated
    );
    assert!(stats.tests_shared > 0, "{stats:?}");
}

/// Feed `rows` to a solo session of `query` and finish it; a governed
/// trip while feeding is left for `finish` to report.
fn solo_stream(
    query: &CompiledQuery,
    options: &StreamOptions,
    rows: &[Vec<Value>],
) -> Result<QueryResult, StreamError> {
    let mut session = StreamSession::new(query, options.clone()).unwrap();
    for row in rows {
        match session.feed(row.clone()) {
            Ok(()) | Err(StreamError::Governed { .. }) => {}
            Err(e) => panic!("{e}"),
        }
    }
    session.finish()
}

/// The governor's per-query accounting is unchanged under sharing: a
/// `--max-steps` budget trips at exactly the same step, with exactly the
/// same partial result, whether the query streams solo or as a member of
/// a shared session.  Swept over budgets from zero to past the full run,
/// so members are exercised both tripped and untripped.  The shared feed
/// stops at the first trip, so each member is compared with a solo
/// session fed exactly the rows it received.
#[test]
fn governor_trips_at_the_same_step_shared_or_not() {
    let mut rng = SmallRng::seed_from_u64(0x60B5E7);
    let queries = compile_set(&prefix_family(6));
    let table = random_clustered_table(&mut rng, 3);
    let rows = rows_of(&table);
    let max = queries
        .iter()
        .map(|q| {
            execute(q, &table, &ExecOptions::default())
                .unwrap()
                .stats
                .predicate_tests
        })
        .max()
        .unwrap();
    assert!(max > 8, "family too small to exercise budgets");
    let mut tripped_budgets = 0u32;
    for budget in [0, 1, max / 7, max / 3, max / 2, max - 1, max + 16] {
        let options = StreamOptions {
            exec: ExecOptions {
                engine: EngineKind::Ops,
                governor: Governor::unlimited().with_max_steps(budget),
                ..Default::default()
            },
            ..Default::default()
        };
        // The rows each member received: the members after a tripping
        // one never see the row it tripped on.
        let mut received = vec![rows.len(); queries.len()];
        let mut shared = SharedStreamSession::new(&queries, &options).unwrap();
        for (r, row) in rows.iter().enumerate() {
            match shared.feed(row.clone()) {
                Ok(()) => {}
                Err(SetFeedError {
                    member,
                    error: StreamError::Governed { .. },
                }) => {
                    for (i, n) in received.iter_mut().enumerate() {
                        *n = if i <= member { r + 1 } else { r };
                    }
                    tripped_budgets += 1;
                    break;
                }
                Err(e) => panic!("max_steps={budget}: {e}"),
            }
        }
        let (results, _) = shared.finish();
        for (i, (query, result)) in queries.iter().zip(results).enumerate() {
            let ctx = format!("max_steps={budget} member {i}");
            match (result, solo_stream(query, &options, &rows[..received[i]])) {
                (Ok(result), Ok(solo)) => assert_member_matches(&result, &solo, &ctx),
                (
                    Err(StreamError::Governed {
                        trip: ht,
                        partial: Some(hp),
                    }),
                    Err(StreamError::Governed {
                        trip: st,
                        partial: Some(sp),
                    }),
                ) => {
                    assert_eq!(ht.reason, st.reason, "trip reason: {ctx}");
                    assert_eq!(ht.steps, st.steps, "trip step: {ctx}");
                    assert_eq!(ht.matches, st.matches, "trip matches: {ctx}");
                    assert_member_matches(&hp, &sp, &ctx);
                }
                (shared, solo) => panic!(
                    "shared {:?} vs solo {:?} diverged: {ctx}",
                    shared.map(|r| r.table.len()).map_err(|e| e.to_string()),
                    solo.map(|r| r.table.len()).map_err(|e| e.to_string()),
                ),
            }
        }
    }
    assert!(tripped_budgets >= 3, "budget sweep never tripped");
}
