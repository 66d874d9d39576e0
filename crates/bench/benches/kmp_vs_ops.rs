//! E6 / §3.1: OPS on constant-equality patterns vs classic KMP vs naive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqlts_bench::kmp::Kmp;
use sqlts_bench::{kmp_workload, run_cost};
use sqlts_core::{EngineKind, EvalCounter};

const QUERY: &str = "SELECT X.date FROM t SEQUENCE BY date AS (X, Y, Z) \
                     WHERE X.price = 0 AND Y.price = 1 AND Z.price = 0";

fn bench(c: &mut Criterion) {
    let n = 50_000;
    let table = kmp_workload(n, 4, 42);
    let symbols: Vec<i64> = table
        .rows()
        .map(|r| r[2].as_f64().unwrap() as i64)
        .collect();

    let mut group = c.benchmark_group("kmp_vs_ops_equality_pattern");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for engine in [EngineKind::Naive, EngineKind::Ops] {
        group.bench_with_input(
            BenchmarkId::new("sqlts", format!("{engine:?}")),
            &engine,
            |b, &engine| b.iter(|| run_cost(QUERY, &table, engine)),
        );
    }
    // Classic KMP on the raw symbol stream — the lower bound OPS should
    // track (modulo the tuple-evaluation machinery).
    let kmp = Kmp::new(&[0i64, 1, 0]);
    group.bench_function("raw_kmp", |b| {
        b.iter(|| {
            let counter = EvalCounter::new();
            kmp.find_all(&symbols, &counter)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
