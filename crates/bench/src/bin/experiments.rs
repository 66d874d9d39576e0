//! Regenerate every figure and table of the paper's evaluation.
//!
//! ```text
//! experiments [all|ex5|ex9|fig5|kmp|double_bottom|sweep|compile_cost|disjunction|ablation|parallel|bench-json]
//! ```
//!
//! Each subcommand corresponds to one experiment of the index in
//! DESIGN.md §5 and prints the paper-vs-measured comparison recorded in
//! EXPERIMENTS.md.

use sqlts_bench::*;
use sqlts_core::{compile, explain, CompileOptions, EngineKind, EvalCounter};
use sqlts_datagen::big_move_fraction;
use std::time::Instant;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = arg == "all";
    let mut ran = false;
    let experiments: &[(&str, fn())] = &[
        ("ex5", ex5),
        ("ex9", ex9),
        ("fig5", fig5),
        ("kmp", kmp),
        ("double_bottom", double_bottom),
        ("sweep", sweep),
        ("compile_cost", compile_cost),
        ("disjunction", disjunction),
        ("ablation", ablation),
        ("parallel", parallel),
        ("bench-json", bench_json),
    ];
    for (name, f) in experiments {
        if all || arg == *name {
            println!("\n================ {name} ================");
            f();
            ran = true;
        }
    }
    if !ran {
        eprintln!(
            "unknown experiment {arg:?}; available: all {}",
            experiments
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
}

fn quote_schema() -> sqlts_relation::Schema {
    sqlts_datagen::quote_schema()
}

/// E2 — the worked tables of Examples 5–7 (θ, φ, S, shift, next for the
/// Example 4 pattern).
fn ex5() {
    let q = compile(EXAMPLE4, &quote_schema(), &CompileOptions::default()).unwrap();
    println!("{}", explain(&q));
    println!("paper (Example 7): shift = [1, 1, 1, 3], next = [0, 1, 2, 1]");
}

/// E3 — Example 9's matrices and the worked shift(6) = 3, next(6) = 1.
fn ex9() {
    let q = compile(EXAMPLE9, &quote_schema(), &CompileOptions::default()).unwrap();
    println!("{}", explain(&q));
    println!("paper (§5.1): shift(6) = 3, next(6) = 1");
}

/// E1 — Figure 5: naive vs OPS search-path curves on the §4.2.1 sequence.
fn fig5() {
    println!("input: {FIG5_PRICES:?}");
    for engine in [EngineKind::Naive, EngineKind::Ops] {
        let trace = trace_path(EXAMPLE4, &FIG5_PRICES, engine);
        println!(
            "\n{engine:?}: path length = {}, backtracking episodes = {}",
            trace.path_len(),
            trace.backtrack_episodes()
        );
        println!("input-cursor trajectory (x = input position, row = test step):");
        print!("{}", trace.ascii_chart(48));
    }
    println!(
        "\npaper (Figure 5): \"for the OPS algorithm, the backtracking episodes are \
         less frequent and less deep, and therefore the length of the search path is \
         significantly shorter\""
    );
}

/// E6 — §3.1: KMP on the paper's text, and OPS ≡ KMP on constant-equality
/// patterns.
fn kmp() {
    use sqlts_core::kmp::{find_all_str, Kmp};
    let pattern = "abcabcacab";
    let text = "babcbabcabcaabcabcabcacabc";
    let kmp = Kmp::new(pattern.as_bytes());
    println!("pattern {pattern:?}, next = {:?}", &kmp.next_array()[1..]);
    let c = EvalCounter::new();
    let hits = find_all_str(pattern, text, &c);
    println!(
        "text {text:?}: occurrences at {hits:?}, {} comparisons for {} symbols (KMP bound 2n = {})",
        c.total(),
        text.len(),
        2 * text.len()
    );

    // Example 3 as a query: OPS comparisons == KMP comparisons.
    let n = 20_000;
    let table = kmp_workload(n, 4, 42);
    let query = "SELECT X.date FROM t SEQUENCE BY date AS (X, Y, Z) \
                 WHERE X.price = 0 AND Y.price = 1 AND Z.price = 0";
    let naive = run_cost(query, &table, EngineKind::Naive);
    let ops = run_cost(query, &table, EngineKind::Ops);
    // Reference KMP over the same symbol stream (non-overlapping
    // restarts to mirror SQL-TS match semantics are immaterial to cost
    // here; report both).
    println!(
        "\nExample 3 analogue over {n} symbols (alphabet 4): \
         naive = {} tests and {} matches, OPS = {} tests and {} matches",
        naive.tests, naive.matches, ops.tests, ops.matches
    );
    if ops.matches != naive.matches {
        // The symbols include 0, and the optimizer assumes every numeric
        // column positive, so OPS can skip real matches.
        println!(
            "the match counts differ (naive {} vs OPS {}): the positive-domain \
             assumption, ROADMAP direction 1",
            naive.matches, ops.matches
        );
    }
    println!(
        "OPS/naive = {:.3}; OPS stays within the KMP linear bound 2n = {} → {}",
        ops.tests as f64 / naive.tests as f64,
        2 * n,
        ops.tests <= 2 * n as u64
    );
}

/// E4 — §7 / Figures 6–7: the relaxed double bottom over 25 years of
/// (simulated) DJIA closes.
fn double_bottom() {
    let table = djia(DJIA_SEED);
    let prices: Vec<f64> = table.rows().map(|r| r[2].as_f64().unwrap()).collect();
    println!(
        "workload: simulated DJIA, {} trading days, start {:.0}, end {:.0}, \
         ±2% daily moves: {:.2}% of days",
        table.len(),
        prices.first().unwrap(),
        prices.last().unwrap(),
        100.0 * big_move_fraction(&prices, 0.02)
    );

    let t0 = Instant::now();
    let bt = run_cost(DOUBLE_BOTTOM, &table, EngineKind::NaiveBacktrack);
    let t_bt = t0.elapsed();
    let t0 = Instant::now();
    let naive = run_cost(DOUBLE_BOTTOM, &table, EngineKind::Naive);
    let t_naive = t0.elapsed();
    let t0 = Instant::now();
    let ops = run_cost(DOUBLE_BOTTOM, &table, EngineKind::Ops);
    let t_ops = t0.elapsed();

    println!(
        "\n{:<22} {:>12} {:>10} {:>12}",
        "engine", "tests", "matches", "wall"
    );
    for (name, c, t) in [
        ("naive-backtracking", &bt, t_bt),
        ("naive-greedy", &naive, t_naive),
        ("OPS", &ops, t_ops),
    ] {
        println!(
            "{:<22} {:>12} {:>10} {:>10.2?}",
            name, c.tests, c.matches, t
        );
    }
    println!(
        "\nspeedup OPS vs naive-backtracking: {:.1}x (paper: 93x on recorded DJIA)",
        speedup(&bt, &ops)
    );
    println!(
        "speedup OPS vs naive-greedy:       {:.2}x",
        speedup(&naive, &ops)
    );
    println!(
        "matches found: {} (paper: 12 on recorded DJIA; counts differ on a \
         simulated series, the engines agree with each other: {})",
        ops.matches,
        ops.matches == naive.matches
    );
}

/// E5 — §7: "speedups up to 800 times over naive search" across complex
/// patterns.
fn sweep() {
    let walk = sweep_table(Workload::Walk);
    let saw = sweep_table(Workload::Sawtooth);
    println!(
        "{:<18} {:>13} {:>12} {:>12} {:>9} {:>9}",
        "pattern", "backtrack", "naive", "OPS", "vs-bt", "vs-naive"
    );
    let mut best: f64 = 0.0;
    for case in sweep_patterns() {
        let table = match case.workload {
            Workload::Walk => &walk,
            Workload::Sawtooth => &saw,
        };
        let bt = run_cost(&case.query, table, EngineKind::NaiveBacktrack);
        let naive = run_cost(&case.query, table, EngineKind::Naive);
        let ops = run_cost(&case.query, table, EngineKind::Ops);
        let s_bt = speedup(&bt, &ops);
        let s_naive = speedup(&naive, &ops);
        best = best.max(s_bt);
        println!(
            "{:<18} {:>13} {:>12} {:>12} {:>8.1}x {:>8.2}x",
            case.id, bt.tests, naive.tests, ops.tests, s_bt, s_naive
        );
    }
    println!(
        "\nmax speedup over the backtracking baseline: {best:.0}x \
         (paper: \"speedups up to 800 times over naive search\")"
    );
}

/// E8 — §5.1: compile-time cost of shift/next vs pattern length
/// (claimed O(m³)).
fn compile_cost() {
    use sqlts_core::matrices::{PrecondMatrices, Predicates};
    use sqlts_core::star_shift_next;
    println!("{:>4} {:>14} {:>14}", "m", "matrices", "shift/next");
    for m in [4usize, 8, 16, 32, 64] {
        // Build an m-element all-star pattern of alternating predicates.
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
        let src = format!(
            "SELECT FIRST(V0).date FROM t SEQUENCE BY date AS (*{}) WHERE {}",
            vars.join(", *"),
            conds.join(" AND ")
        );
        let q = compile(&src, &quote_schema(), &CompileOptions::default()).unwrap();
        let pattern = Predicates::new(&q.elements);
        let t0 = Instant::now();
        let pre = PrecondMatrices::build(pattern);
        let t_matrices = t0.elapsed();
        let t0 = Instant::now();
        let _sn = star_shift_next(pattern, &pre);
        let t_sn = t0.elapsed();
        println!("{m:>4} {t_matrices:>14.2?} {t_sn:>14.2?}");
    }
    println!("\npaper (§5.1): computing all shift/next pairs is O(m³)");
}

/// E9 — §8 extension: disjunctive conditions.
fn disjunction() {
    let table = sweep_workload(20_000, 13);
    let query = "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C) \
                 WHERE (A.price < 2 OR A.price > 9) \
                 AND (B.price < 2 OR B.price > 9) \
                 AND B.price < A.previous.price + 20 \
                 AND C.price >= 4 AND C.price <= 6";
    let naive = run_cost(query, &table, EngineKind::Naive);
    let ops = run_cost(query, &table, EngineKind::Ops);
    println!(
        "disjunctive band pattern: naive = {} tests, OPS = {} tests, speedup {:.2}x, \
         matches agree: {}",
        naive.tests,
        ops.tests,
        speedup(&naive, &ops),
        naive.matches == ops.matches
    );
    println!(
        "(the DNF-lifted solver prunes shifts across OR-conditions; §8 'disjunctive conditions')"
    );
}

/// E11 — cluster-parallel execution of the E5 sweep patterns over a
/// many-symbol workload.
fn parallel() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let table = clustered_sweep_workload(64, 2_000, 7);
    println!("workload: 64 clusters x 2000 tuples; {threads} worker threads vs sequential\n");
    println!(
        "{:<18} {:>12} {:>9} {:>11} {:>11} {:>9} {:>6}",
        "pattern", "tests", "matches", "seq wall", "par wall", "speedup", "equal"
    );
    for case in sweep_patterns() {
        if case.workload != Workload::Walk {
            continue; // sawtooth cases are single-cluster by construction
        }
        let query = clustered_query(&case.query);
        let t0 = Instant::now();
        let seq = run_cost_threads(&query, &table, EngineKind::Ops, 1);
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let par = run_cost_threads(&query, &table, EngineKind::Ops, threads);
        let t_par = t0.elapsed();
        println!(
            "{:<18} {:>12} {:>9} {:>11.2?} {:>11.2?} {:>8.2}x {:>6}",
            case.id,
            par.tests,
            par.matches,
            t_seq,
            t_par,
            t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
            seq.tests == par.tests && seq.matches == par.matches
        );
        assert_eq!(
            seq.tests, par.tests,
            "{}: cost metric must not depend on threads",
            case.id
        );
        assert_eq!(
            seq.matches, par.matches,
            "{}: matches must not depend on threads",
            case.id
        );
    }
    println!(
        "\nclusters are independent streams (§2), so the search fans out per \
         cluster; stats and output are merged in cluster order and are \
         identical for every thread count"
    );
}

/// E12 — machine-readable profiles: write `BENCH_*.json` artifacts, one
/// per workload, each holding the full [`ExecutionProfile`] of every
/// engine (the same JSON `sqlts --profile --metrics-format json` emits).
/// CI schema-validates and archives them; EXPERIMENTS.md's §7 rows are
/// reproducible from these files alone.
fn bench_json() {
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| "target/bench-json".to_string());
    std::fs::create_dir_all(&dir).expect("create bench-json output dir");
    let workloads: Vec<(&str, sqlts_relation::Table, String)> = vec![
        ("fig5", price_table(&FIG5_PRICES), EXAMPLE4.to_string()),
        ("double_bottom", djia(DJIA_SEED), DOUBLE_BOTTOM.to_string()),
        (
            "equality_kmp",
            kmp_workload(20_000, 4, 42),
            "SELECT X.date FROM t SEQUENCE BY date AS (X, Y, Z) \
             WHERE X.price = 0 AND Y.price = 1 AND Z.price = 0"
                .to_string(),
        ),
    ];
    for (id, table, query) in workloads {
        let mut body = String::from("{");
        body.push_str(&format!("\"experiment\":\"{id}\",\"engines\":{{"));
        for (i, engine) in [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
        ]
        .iter()
        .enumerate()
        {
            let profile = run_profile(&query, &table, *engine);
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"{}\":{}", engine.name(), profile.to_json()));
        }
        body.push_str("}}");
        let path = format!("{dir}/BENCH_{id}.json");
        std::fs::write(&path, body).expect("write BENCH json");
        println!("wrote {path}");
    }
}

/// E10 — ablation: full OPS vs shift-only vs naive.
fn ablation() {
    // Tiled Figure-5 sequence: the Example 4 pattern's next(3) = 2
    // genuinely skips re-checks here.
    let fig5_tiled: Vec<f64> = FIG5_PRICES.iter().cycle().take(15_000).copied().collect();
    let workloads: Vec<(&str, sqlts_relation::Table, String)> = vec![
        ("double-bottom", djia(DJIA_SEED), DOUBLE_BOTTOM.to_string()),
        (
            "example4-tiled",
            price_table(&fig5_tiled),
            EXAMPLE4.to_string(),
        ),
        (
            "chain-8",
            sweep_workload(20_000, 7),
            sweep_patterns()
                .into_iter()
                .find(|c| c.id == "chain-8")
                .unwrap()
                .query,
        ),
        (
            "equality-5",
            kmp_workload(20_000, 4, 21),
            sweep_patterns()
                .into_iter()
                .find(|c| c.id == "equality-5")
                .unwrap()
                .query,
        ),
    ];
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "workload", "naive", "shift-only", "full OPS", "next gain"
    );
    for (id, table, query) in workloads {
        let naive = run_cost(&query, &table, EngineKind::Naive);
        let shift_only = run_cost(&query, &table, EngineKind::OpsShiftOnly);
        let full = run_cost(&query, &table, EngineKind::Ops);
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>11.2}x",
            id,
            naive.tests,
            shift_only.tests,
            full.tests,
            shift_only.tests as f64 / full.tests.max(1) as f64
        );
        assert_eq!(naive.matches, full.matches);
        assert_eq!(shift_only.matches, full.matches);
    }
    println!("\n'next gain' isolates the contribution of the next() array on top of shift()");
}
