//! `sqlts --queries FILE`: every query in the file runs over the same
//! table, and each prints, under a `-- query N` header, exactly the stdout
//! a run of that query alone prints.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Three queries over the demo DJIA, most expensive first: 7 229, 6 614
/// and 6 300 predicate tests at the default seed.
const QUERIES: [&str; 3] = [
    "SELECT X.date AS d, Z.date AS e FROM djia SEQUENCE BY date AS (X, *Y, Z) \
     WHERE X.price > 1.01 * X.previous.price AND Y.price < Y.previous.price \
     AND Z.price > 1.02 * Z.previous.price",
    "SELECT FIRST(Y).date AS d FROM djia SEQUENCE BY date AS (*Y, Z) \
     WHERE Y.price < 0.98*Y.previous.price AND Z.price > 1.02*Z.previous.price",
    "SELECT X.date, X.price FROM djia SEQUENCE BY date AS (X) \
     WHERE X.price > 1.03 * X.previous.price",
];

fn sqlts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sqlts"))
        .args(args)
        .output()
        .unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).unwrap()
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("sqlts-queries-{name}-{}.sql", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

/// A query file with a leading comment, and a comment, indentation and a
/// blank line around every query.
fn query_file(name: &str, queries: &[&str]) -> PathBuf {
    let mut contents = String::from("# standing alerts over the demo DJIA\n\n");
    for (i, query) in queries.iter().enumerate() {
        contents.push_str(&format!("# alert {i}\n   {query}  \n\n"));
    }
    temp_file(name, &contents)
}

/// Run one query alone over the demo DJIA with `flags`.
fn solo(flags: &[&str], query: &str) -> Output {
    let mut args = vec!["--demo-djia"];
    args.extend_from_slice(flags);
    args.push(query);
    sqlts(&args)
}

/// Run a query file over the demo DJIA with `flags`.
fn file_run(flags: &[&str], file: &Path) -> Output {
    let mut args = vec!["--demo-djia"];
    args.extend_from_slice(flags);
    args.extend_from_slice(&["--queries", file.to_str().unwrap()]);
    sqlts(&args)
}

/// What a file run must print: each query's solo stdout under its header.
fn expected_stdout(flags: &[&str]) -> String {
    let mut out = String::new();
    for (i, query) in QUERIES.iter().enumerate() {
        out.push_str(&format!("-- query {i}\n"));
        out.push_str(&text(&solo(flags, query).stdout));
    }
    out
}

/// The predicate-test count of a solo run, from the `--stats` line.
fn solo_tests(query: &str) -> u64 {
    let out = solo(&["--stats"], query);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stderr = text(&out.stderr);
    let words: Vec<&str> = stderr.split_whitespace().collect();
    let at = words.iter().position(|w| *w == "predicate").unwrap();
    words[at - 1].parse().unwrap()
}

#[test]
fn each_query_prints_its_solo_stdout_under_its_header() {
    let file = query_file("plain", &QUERIES);
    for threads in ["1", "4"] {
        let flags = ["--threads", threads];
        let out = file_run(&flags, &file);
        assert!(out.status.success(), "{}", text(&out.stderr));
        assert_eq!(
            text(&out.stdout),
            expected_stdout(&flags),
            "threads {threads}"
        );
    }
    std::fs::remove_file(file).ok();
}

#[test]
fn a_governed_query_prints_its_partial_and_later_queries_still_run() {
    // A step budget the first query exceeds and the other two fit in.
    let tests: Vec<u64> = QUERIES.iter().map(|q| solo_tests(q)).collect();
    let budget = tests[1].max(tests[2]);
    assert!(tests[0] > budget, "{tests:?}");
    let budget = budget.to_string();
    let file = query_file("governed", &QUERIES);
    for threads in ["1", "4"] {
        let flags = ["--threads", threads, "--max-steps", budget.as_str()];
        assert_eq!(solo(&flags, QUERIES[0]).status.code(), Some(4));
        assert!(solo(&flags, QUERIES[1]).status.success());
        let out = file_run(&flags, &file);
        assert_eq!(out.status.code(), Some(4), "{}", text(&out.stderr));
        assert_eq!(
            text(&out.stdout),
            expected_stdout(&flags),
            "threads {threads}"
        );
    }
    std::fs::remove_file(file).ok();
}

#[test]
fn a_query_that_does_not_compile_exits_3_and_names_it() {
    let bad = "SELECT X.volume FROM djia SEQUENCE BY date AS (X)";
    let file = query_file("bad", &[QUERIES[0], bad, QUERIES[2]]);
    let out = file_run(&[], &file);
    assert_eq!(out.status.code(), Some(3));
    let stderr = text(&out.stderr);
    assert!(stderr.contains("query 1:"), "{stderr}");
    assert!(stderr.contains("no such column: volume"), "{stderr}");
    assert_eq!(
        text(&out.stdout),
        "",
        "nothing runs before every query compiles"
    );
    std::fs::remove_file(file).ok();
}

#[test]
fn a_file_without_queries_exits_3() {
    let file = temp_file("empty", "# only a comment\n\n   \n");
    let out = file_run(&[], &file);
    assert_eq!(out.status.code(), Some(3), "{}", text(&out.stderr));
    assert_eq!(text(&out.stdout), "");
    std::fs::remove_file(file).ok();
}

#[test]
fn queries_with_a_positional_query_or_follow_is_a_usage_error() {
    let file = query_file("misuse", &QUERIES);
    let path = file.to_str().unwrap();
    let out = sqlts(&["--demo-djia", "--queries", path, QUERIES[2]]);
    assert_eq!(out.status.code(), Some(2));
    let out = sqlts(&[
        "--follow",
        "--schema",
        "name:str,date:date,price:float",
        "--queries",
        path,
    ]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(file).ok();
}
