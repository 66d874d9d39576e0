//! `batch_suite`: the paper's own use case, no server.  In-process
//! `compile` + `execute` (one thread, the single-threaded baseline) of the
//! E5 pattern sweep over a clustered integer walk plus the double-bottom
//! query over the simulated DJIA, OPS timed, naive run once as the
//! reference every OPS result must equal byte for byte.

use crate::json::Json;
use crate::metrics::Values;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::peak_rss_mb;
use crate::workloads::{Outcome, Res, Scale};
use sqlts_bench::{
    clustered_query, clustered_sweep_workload, djia, run_cost, sweep_patterns, DJIA_SEED,
    DOUBLE_BOTTOM,
};
use sqlts_core::{compile, execute, CompileOptions, EngineKind, ExecOptions};
use sqlts_relation::Table;
use std::time::Instant;

struct Case {
    id: String,
    sql: String,
    /// Index into the suite's tables: 0 = clustered walk, 1 = DJIA.
    table: usize,
}

fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = sweep_patterns()
        .into_iter()
        .map(|case| Case {
            id: case.id.to_string(),
            sql: clustered_query(&case.query),
            table: 0,
        })
        .collect();
    out.push(Case {
        id: "double-bottom".into(),
        sql: DOUBLE_BOTTOM.into(),
        table: 1,
    });
    out
}

/// Generate both tables and load them the way a user would: through CSV.
fn load_tables(scale: &Scale, seed: u64) -> Res<[Table; 2]> {
    let load = |generated: Table| {
        Table::from_csv_str(generated.schema().clone(), &generated.to_csv_string())
            .map_err(|e| format!("CSV load: {e}"))
    };
    Ok([
        load(clustered_sweep_workload(
            scale.batch_clusters,
            scale.batch_rows_per_cluster,
            seed,
        ))?,
        load(djia(seed))?,
    ])
}

fn options(engine: EngineKind) -> ExecOptions {
    ExecOptions {
        engine,
        ..Default::default()
    }
}

/// The new benchmark and experiment E12 can never disagree: the
/// double-bottom predicate-test counts at the paper seed must equal the
/// committed `benchmarks/BENCH_double_bottom.json`.
pub fn cross_check_double_bottom() -> Res<()> {
    let path = "benchmarks/BENCH_double_bottom.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let committed = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let table = djia(DJIA_SEED);
    for (key, engine) in [("ops", EngineKind::Ops), ("naive", EngineKind::Naive)] {
        let recorded = committed
            .path(&["engines", key, "predicate_tests"])
            .and_then(Json::as_f64)
            .ok_or(format!("{path}: no engines.{key}.predicate_tests"))?;
        let measured = run_cost(DOUBLE_BOTTOM, &table, engine).tests;
        if measured as f64 != recorded {
            return Err(format!(
                "DOUBLE_BOTTOM {key} predicate tests drifted: measured {measured}, {path} records {recorded}"
            ));
        }
    }
    Ok(())
}

pub fn run(scale: &Scale, seed: u64, seconds: f64, max_passes: usize, armed: bool) -> Res<Outcome> {
    cross_check_double_bottom()?;
    // Restart this process's peak-RSS mark (best effort), so what an
    // earlier workload of the same `loadgen run` held does not count.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut setups = Vec::new();
    let mut tables = None;
    for _ in 0..scale.batch_setup_reps {
        drop(tables.take());
        let started = Instant::now();
        tables = Some(load_tables(scale, seed)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let tables = tables.ok_or("batch_setup_reps must be at least 1")?;
    let cases = cases();

    // Naive once, untimed: the reference bytes and the naive counts.
    let mut reference = Vec::new();
    let mut naive_tests = 0u64;
    for case in &cases {
        let table = &tables[case.table];
        let query = compile(&case.sql, table.schema(), &CompileOptions::default())
            .map_err(|e| format!("{}: {e}", case.id))?;
        let result = execute(&query, table, &options(EngineKind::Naive))
            .map_err(|e| format!("{}: {e}", case.id))?;
        naive_tests += result.stats.predicate_tests;
        reference.push(result.table.to_csv_string());
    }

    let mut outcome = Outcome::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(armed, origin, 0);
    let (mut wall_s, mut thread_wall_s) = (0.0f64, 0.0f64);
    // Each query's wall in every pass it ran.
    let mut case_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut tests_by_pass: Vec<u64> = Vec::new();
    let mut rss = 0.0;
    'passes: while outcome.passes < max_passes {
        let mut pass_tests = 0u64;
        for (i, case) in cases.iter().enumerate() {
            if wall_s >= seconds {
                break 'passes;
            }
            let table = &tables[case.table];
            let frame_id = (outcome.passes * cases.len() + i + 1) as u64;
            let started = Instant::now();
            let frame = tracer.begin("frame", frame_id);
            let query = tracer
                .span("compile", frame_id, || {
                    compile(&case.sql, table.schema(), &CompileOptions::default())
                })
                .map_err(|e| format!("{}: {e}", case.id))?;
            let result = tracer
                .span("execute", frame_id, || {
                    execute(&query, table, &options(EngineKind::Ops))
                })
                .map_err(|e| format!("{}: {e}", case.id))?;
            let csv = tracer.span("render", frame_id, || result.table.to_csv_string());
            let elapsed = started.elapsed().as_secs_f64();
            let same = tracer.span("verify", frame_id, || csv == reference[i]);
            tracer.end(frame);
            thread_wall_s += started.elapsed().as_secs_f64();
            case_ms[i].push(elapsed * 1e3);
            wall_s += elapsed;
            pass_tests += result.stats.predicate_tests;
            outcome.tally.attempted += 1;
            if !same {
                outcome
                    .tally
                    .mismatch(format!("{}: OPS result differs from naive", case.id));
            }
        }
        if outcome.passes == 0 {
            rss = peak_rss_mb("/proc/self/status");
        }
        tests_by_pass.push(pass_tests);
        outcome.passes += 1;
    }
    if tests_by_pass.windows(2).any(|w| w[0] != w[1]) {
        outcome
            .tally
            .mismatch("predicate-test counts differ between passes".into());
    }
    if rss == 0.0 {
        rss = peak_rss_mb("/proc/self/status");
    }
    outcome.samples = case_ms.iter().map(Vec::len).sum();
    let e2e: &mut Values = &mut outcome.e2e;
    e2e.insert("setup_s", median(&setups));
    // The work is deterministic and CPU-bound, so on a shared machine a
    // neighbour can only add time: each query is represented by the lower
    // quartile of its walls over the passes, which a burst of interference
    // does not move.
    let mut rows = 0;
    let mut typical_ms = Vec::new();
    for (case, ms) in cases.iter().zip(&case_ms).filter(|(_, ms)| !ms.is_empty()) {
        rows += tables[case.table].len();
        typical_ms.push(percentile(ms, 25.0));
    }
    e2e.insert(
        "rows_per_s",
        rows as f64 / (typical_ms.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    e2e.insert("op_p50_ms", median(&typical_ms));
    e2e.insert("op_p95_ms", percentile(&typical_ms, 95.0));
    e2e.insert("peak_rss_mb", rss);
    if let Some(tests) = tests_by_pass.first() {
        outcome.layer.insert("batch.predicate_tests", *tests as f64);
    }
    outcome
        .layer
        .insert("batch.naive_predicate_tests", naive_tests as f64);
    if armed {
        crate::report::span_metrics(&tracer.spans, thread_wall_s, &mut outcome.layer);
        outcome.spans = tracer.spans;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_the_sweep_clustered_plus_double_bottom() {
        let cases = cases();
        assert_eq!(cases.len(), sweep_patterns().len() + 1);
        assert!(cases[..cases.len() - 1]
            .iter()
            .all(|c| c.table == 0 && c.sql.contains("CLUSTER BY name SEQUENCE BY date")));
        assert_eq!(cases.last().unwrap().id, "double-bottom");
    }
}
