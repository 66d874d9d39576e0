//! Byte-for-byte goldens of `sqlts` stdout on the paper's examples.
//!
//! Each case runs one query from `sqlts_bench` under every `--engine` at
//! `--threads 1` and `4` and compares stdout with a committed fixture in
//! `tests/golden/` (`<case>.out`; `<case>.<engine>.out` where that
//! engine's semantics give other matches, as the declarative stars of
//! `backtrack` do on Example 9).  A change to the search, the result
//! ordering or the CSV rendering shows up here as a diff rather than as
//! one run agreeing with another.  The inputs are `--demo-djia --seed 7` and the two CSVs
//! next to the fixtures: `fig5.csv` is the §4.2.1 sequence of Figure 5,
//! `quotes.csv` four 300-day clusters (two random walks, two series built
//! from double peaks so that Example 9 matches).
//!
//! A fixture is the stdout of the command its case describes, e.g.
//! `sqlts --csv tests/golden/quotes.csv --schema name:str,date:date,price:float
//! "<EXAMPLE9>" > tests/golden/ex9.out`.

use sqlts_bench::{clustered_query, DOUBLE_BOTTOM, EXAMPLE4, EXAMPLE9};
use std::path::PathBuf;
use std::process::Command;

const ENGINES: [&str; 4] = ["naive", "backtrack", "ops", "shift-only"];
const SCHEMA: &str = "name:str,date:date,price:float";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Run `query` over `input` under every engine × threads 1/4 and check
/// each stdout against `tests/golden/<case>.out`, or against
/// `<case>.<engine>.out` for an engine listed in `own_fixture`.
fn check(case: &str, own_fixture: &[&str], input: &[&str], query: &str) {
    for engine in ENGINES {
        let fixture = if own_fixture.contains(&engine) {
            format!("{case}.{engine}.out")
        } else {
            format!("{case}.out")
        };
        let expected = std::fs::read(golden_dir().join(&fixture)).unwrap();
        assert!(!expected.is_empty(), "{fixture} is empty");
        for threads in ["1", "4"] {
            let out = Command::new(env!("CARGO_BIN_EXE_sqlts"))
                .args(input)
                .args(["--engine", engine, "--threads", threads])
                .arg(query)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{fixture} ({engine}, threads {threads}): {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                out.stdout == expected,
                "{fixture} ({engine}, threads {threads}) differs from the golden:\n\
                 --- got\n{}--- expected\n{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&expected)
            );
        }
    }
}

fn csv(name: &str) -> String {
    golden_dir().join(name).to_str().unwrap().to_owned()
}

#[test]
fn double_bottom_on_demo_djia_seed_7() {
    check(
        "double_bottom_djia_seed7",
        &[],
        &["--demo-djia", "--seed", "7"],
        DOUBLE_BOTTOM,
    );
}

#[test]
fn fig5_example4_on_the_fig5_sequence() {
    check(
        "fig5",
        &[],
        &["--csv", &csv("fig5.csv"), "--schema", SCHEMA],
        EXAMPLE4,
    );
}

#[test]
fn ex5_example4_per_cluster() {
    check(
        "ex5",
        &[],
        &["--csv", &csv("quotes.csv"), "--schema", SCHEMA],
        &clustered_query(EXAMPLE4),
    );
}

#[test]
fn ex9_example9_per_cluster() {
    check(
        "ex9",
        &["backtrack"],
        &["--csv", &csv("quotes.csv"), "--schema", SCHEMA],
        EXAMPLE9,
    );
}
