//! End-to-end tests of the `sqlts` binary.

use std::io::Write;
use std::process::Command;

fn sqlts() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sqlts"))
}

fn write_temp_csv(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sqlts-test-{name}-{}.csv", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const QUOTES: &str = "name,date,price\n\
    INTC,1999-01-25,60\n\
    INTC,1999-01-26,63.5\n\
    INTC,1999-01-27,62\n\
    ACME,1999-01-25,10\n\
    ACME,1999-01-26,12\n\
    ACME,1999-01-27,9\n";

#[test]
fn runs_a_query_over_csv() {
    let csv = write_temp_csv("basic", QUOTES);
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .arg(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) \
             WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price",
        )
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, "name\nACME\n");
    std::fs::remove_file(csv).ok();
}

#[test]
fn stats_and_explain_go_to_stderr() {
    let csv = write_temp_csv("stats", QUOTES);
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .args(["--stats", "--explain", "--engine", "ops"])
        .arg(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
        )
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("theta"), "{stderr}");
    assert!(stderr.contains("predicate tests"), "{stderr}");
    // stdout carries only the CSV result.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("name\n"));
    std::fs::remove_file(csv).ok();
}

#[test]
fn engines_are_selectable_and_agree() {
    let csv = write_temp_csv("engines", QUOTES);
    let mut outputs = Vec::new();
    for engine in ["naive", "backtrack", "ops", "shift-only"] {
        let out = sqlts()
            .args(["--csv", csv.to_str().unwrap()])
            .args(["--schema", "name:str,date:date,price:float"])
            .args(["--engine", engine])
            .arg(
                "SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date \
                 AS (X, Y) WHERE Y.price < X.price",
            )
            .output()
            .unwrap();
        assert!(out.status.success(), "engine {engine}");
        outputs.push(String::from_utf8(out.stdout).unwrap());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn compile_errors_render_with_caret() {
    let csv = write_temp_csv("err", QUOTES);
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .arg("SELECT X.volume FROM quote SEQUENCE BY date AS (X)")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "compile errors exit 3");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no such column: volume"), "{stderr}");
    assert!(stderr.contains('^'), "caret rendering missing: {stderr}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn malformed_csv_exits_3_with_line_diagnostic() {
    let csv = write_temp_csv(
        "badrow",
        "name,date,price\nINTC,1999-01-25,60\nINTC,1999-01-26\n",
    );
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .arg("SELECT X.name FROM quote SEQUENCE BY date AS (X)")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "CSV ingest errors exit 3");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 3"), "{stderr}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn step_budget_trips_with_exit_4_and_diagnostic() {
    let csv = write_temp_csv("budget", QUOTES);
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .args(["--max-steps", "1"])
        .arg(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
        )
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "governed termination exits 4");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("resource governor"), "{stderr}");
    assert!(stderr.contains("step budget"), "{stderr}");
    // The (empty or prefix) partial result is still printed as CSV.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("name\n"), "{stdout}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn match_budget_truncates_output_and_exits_4() {
    let csv = write_temp_csv("matches", QUOTES);
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .args(["--max-matches", "1"])
        .arg(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price <> X.price",
        )
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().count(),
        2,
        "header plus exactly the budgeted match: {stdout}"
    );
    std::fs::remove_file(csv).ok();
}

#[test]
fn generous_governor_flags_leave_output_unchanged() {
    let csv = write_temp_csv("generous", QUOTES);
    let query = "SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date \
                 AS (X, Y) WHERE Y.price < X.price";
    let base_args = |cmd: &mut Command| {
        cmd.args(["--csv", csv.to_str().unwrap()])
            .args(["--schema", "name:str,date:date,price:float"])
            .arg(query);
    };
    let mut plain = sqlts();
    base_args(&mut plain);
    let plain = plain.output().unwrap();
    assert!(plain.status.success());
    let mut governed = sqlts();
    base_args(&mut governed);
    let governed = governed
        .args(["--timeout-ms", "60000"])
        .args(["--max-steps", "1000000"])
        .args(["--max-matches", "1000000"])
        .output()
        .unwrap();
    assert!(governed.status.success(), "generous limits must not trip");
    assert_eq!(plain.stdout, governed.stdout);
    std::fs::remove_file(csv).ok();
}

#[test]
fn demo_djia_is_deterministic() {
    let run = || {
        let out = sqlts()
            .args(["--demo-djia", "--seed", "7"])
            .arg(
                "SELECT FIRST(Y).date AS d FROM djia SEQUENCE BY date AS (*Y, Z) \
                 WHERE Y.price < 0.98*Y.previous.price AND Z.price > 1.02*Z.previous.price",
            )
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn direction_flag_preserves_results() {
    // There is one scan direction, forward. The old `--direction` values are
    // refused with usage and no rows, so none of them can change what a query
    // returns; the plain run still finds each cluster's forward match.
    let csv = write_temp_csv("dir", QUOTES);
    let query = "SELECT X.name, Y.price FROM quote CLUSTER BY name SEQUENCE BY date \
                 AS (X, Y) WHERE Y.price < X.price";
    let run = |extra: &[&str]| {
        sqlts()
            .args(["--csv", csv.to_str().unwrap()])
            .args(["--schema", "name:str,date:date,price:float"])
            .args(extra)
            .arg(query)
            .output()
            .unwrap()
    };
    let plain = run(&[]);
    assert!(plain.status.success());
    let stdout = String::from_utf8(plain.stdout).unwrap();
    assert_eq!(stdout, "name,price\nACME,9.0\nINTC,62.0\n");
    for dir in ["reverse", "auto"] {
        let out = run(&["--direction", dir]);
        assert_eq!(out.status.code(), Some(2), "--direction {dir}");
        assert!(out.stdout.is_empty(), "--direction {dir}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage: sqlts"), "{stderr}");
    }
    std::fs::remove_file(csv).ok();
}

#[test]
fn bad_usage_exits_2() {
    let out = sqlts().arg("--nonsense").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = sqlts().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing query must show usage");
    // There is one scan direction; the old `--direction` flag is unknown.
    let out = sqlts()
        .args(["--demo-djia", "--direction", "forward"])
        .arg("SELECT X.date FROM djia SEQUENCE BY date AS (X) WHERE X.price > 0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--direction is not a flag");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("usage: sqlts"), "{stderr}");
}

#[test]
fn help_exits_0_and_lists_every_flag() {
    let out = sqlts().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0), "--help is not an error");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--csv",
        "--schema",
        "--demo-djia",
        "--engine",
        "--threads",
        "--stats",
        "--profile",
        "--metrics-format",
        "--trace",
        "--trace-capacity",
        "--help",
    ] {
        assert!(stdout.contains(flag), "help missing {flag}:\n{stdout}");
    }
}

#[test]
fn profile_json_goes_to_stderr_and_matches_stats() {
    let csv = write_temp_csv("profjson", QUOTES);
    let query = "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
                 WHERE Y.price > X.price";
    let args = |cmd: &mut Command| {
        cmd.args(["--csv", csv.to_str().unwrap()])
            .args(["--schema", "name:str,date:date,price:float"])
            .arg(query);
    };
    let mut prof = sqlts();
    args(&mut prof);
    let prof = prof
        .args(["--profile", "--metrics-format", "json"])
        .output()
        .unwrap();
    assert!(prof.status.success());
    let stderr = String::from_utf8(prof.stderr).unwrap();
    let json_line = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("JSON profile on stderr");
    assert!(json_line.contains("\"predicate_tests\":"), "{json_line}");
    assert!(json_line.contains("\"clusters\":"), "{json_line}");
    assert!(json_line.contains("\"optimizer\":"), "{json_line}");

    // Its predicate-test total equals the legacy --stats line bit-for-bit.
    let mut stats = sqlts();
    args(&mut stats);
    let stats = stats.arg("--stats").output().unwrap();
    assert!(stats.status.success());
    let stats_err = String::from_utf8(stats.stderr).unwrap();
    // Legacy line shape: "{m} matches, {t} predicate tests over …".
    let legacy_tests: u64 = stats_err
        .lines()
        .find(|l| l.contains("predicate tests"))
        .and_then(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let idx = words.iter().position(|w| *w == "predicate")?;
            words[idx - 1].parse().ok()
        })
        .expect("legacy stats line");
    let profiled_tests: u64 = json_line
        .split("\"predicate_tests\":")
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse().ok())
        })
        .unwrap();
    assert_eq!(profiled_tests, legacy_tests);
    // stdout still carries only the CSV result.
    let stdout = String::from_utf8(prof.stdout).unwrap();
    assert!(stdout.starts_with("name\n"), "{stdout}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn stats_includes_per_cluster_breakdown() {
    let csv = write_temp_csv("percluster", QUOTES);
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .arg("--stats")
        .arg(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
        )
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cluster 0 ("), "{stderr}");
    assert!(stderr.contains("cluster 1 ("), "{stderr}");
    std::fs::remove_file(csv).ok();
}

#[test]
fn trace_flag_writes_jsonl_file() {
    let csv = write_temp_csv("tracefile", QUOTES);
    let trace = std::env::temp_dir().join(format!("sqlts-test-trace-{}.jsonl", std::process::id()));
    let out = sqlts()
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--schema", "name:str,date:date,price:float"])
        .args(["--trace", trace.to_str().unwrap()])
        .arg(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
        )
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let contents = std::fs::read_to_string(&trace).unwrap();
    assert!(!contents.is_empty());
    let lines: Vec<&str> = contents.lines().collect();
    let (events, trailer) = lines.split_at(lines.len() - 1);
    assert!(!events.is_empty(), "trace carried no events: {contents}");
    for line in events {
        assert!(line.starts_with("{\"cluster\":"), "{line}");
        assert!(line.contains("\"ev\":"), "{line}");
    }
    assert!(
        trailer[0].starts_with("{\"dropped\":"),
        "missing drop trailer: {}",
        trailer[0]
    );
    std::fs::remove_file(csv).ok();
    std::fs::remove_file(trace).ok();
}

#[test]
fn prometheus_format_emits_exposition_text() {
    let out = sqlts()
        .args(["--demo-djia", "--seed", "7"])
        .args(["--profile", "--metrics-format", "prom"])
        .arg(
            "SELECT FIRST(Y).date AS d FROM djia SEQUENCE BY date AS (*Y, Z) \
             WHERE Y.price < 0.98*Y.previous.price AND Z.price > 1.02*Z.previous.price",
        )
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("# TYPE sqlts_predicate_tests"), "{stderr}");
    assert!(stderr.contains("sqlts_matches_total"), "{stderr}");
}

#[test]
fn queries_report_every_profile_and_refuse_one_trace_file() {
    let file = std::env::temp_dir().join(format!("sqlts-test-qprof-{}.sql", std::process::id()));
    std::fs::write(
        &file,
        "SELECT X.date FROM djia SEQUENCE BY date AS (X) WHERE X.price > X.previous.price\n\
         SELECT X.date FROM djia SEQUENCE BY date AS (X, Y) \
         WHERE Y.price < 0.98 * X.price\n",
    )
    .unwrap();
    let run = |flags: &[&str]| {
        sqlts()
            .args(["--demo-djia", "--queries", file.to_str().unwrap()])
            .args(flags)
            .output()
            .unwrap()
    };
    let plain = run(&[]);
    assert!(plain.status.success());

    // --profile and --stats report each query under its header on stderr;
    // stdout does not change.
    let prof = run(&["--profile", "--metrics-format", "json", "--stats"]);
    assert!(prof.status.success());
    assert_eq!(prof.stdout, plain.stdout);
    let stderr = String::from_utf8(prof.stderr).unwrap();
    let profiles: Vec<&str> = stderr.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(profiles.len(), 2, "one profile per query: {stderr}");
    for p in profiles {
        assert!(p.contains("\"predicate_tests\":"), "{p}");
    }
    assert_eq!(stderr.matches("  cluster 0: ").count(), 2, "{stderr}");
    let first = stderr.find("-- query 0").expect("query 0 header");
    let second = stderr.find("-- query 1").expect("query 1 header");
    assert!(first < second, "{stderr}");

    // One --trace file cannot hold two traces: a usage error, and no file.
    let trace =
        std::env::temp_dir().join(format!("sqlts-test-qtrace-{}.jsonl", std::process::id()));
    let traced = run(&["--trace", trace.to_str().unwrap()]);
    assert_eq!(traced.status.code(), Some(2));
    assert!(!trace.exists());
    std::fs::remove_file(file).ok();
}
