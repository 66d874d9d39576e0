//! Malformed-checkpoint fuzz for the `sqlts-checkpoint v1` codec, part of
//! the stream fault suite: truncations at every line boundary, systematic
//! single-byte corruptions, adversarial counts, version bumps, and
//! trailing garbage must all surface as a typed
//! [`StreamError::Checkpoint`] (or another typed error) — never a panic,
//! never a silent misparse that breaks the `to_text` fixed point.

use sqlts_core::stream::{SessionCheckpoint, StreamError, StreamOptions, StreamSession};
use sqlts_core::{compile, BadTuplePolicy, CompileOptions, EngineKind, ExecOptions, Instrument};
use sqlts_relation::{ColumnType, Schema, Value};

const QUERY: &str = "SELECT X.name, Z.price AS peak, Z.day AS day FROM quote \
                     CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) \
                     WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

fn quote_schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("day", ColumnType::Int),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

/// A checkpoint exercising every section of the format: several clusters,
/// pending matches, output rows, quarantined tuples with escaped strings,
/// and an armed recorder with histograms and events.
fn rich_checkpoint_text() -> String {
    let query = compile(QUERY, &quote_schema(), &CompileOptions::default()).unwrap();
    let options = StreamOptions {
        exec: ExecOptions {
            engine: EngineKind::Ops,
            instrument: Instrument::tracing(),
            ..ExecOptions::default()
        },
        bad_tuple: BadTuplePolicy::Quarantine { cap: 8 },
    };
    let mut session = StreamSession::new(&query, options).unwrap();
    for day in 0..25i64 {
        for (name, phase) in [("AAA", 0i64), ("BBB", 3)] {
            let wave = ((day + phase) % 7) as f64;
            session
                .feed(vec![
                    Value::Str(name.to_string()),
                    Value::Int(day),
                    Value::Float(100.0 + 3.0 * wave - 0.1 * day as f64),
                ])
                .unwrap();
        }
    }
    session
        .quarantine_external("spaces and % signs".into(), "a,b c%d".into())
        .unwrap();
    session.snapshot().unwrap().to_text()
}

fn is_checkpoint_err(e: &StreamError) -> bool {
    matches!(e, StreamError::Checkpoint(_))
}

#[test]
fn valid_text_round_trips() {
    let text = rich_checkpoint_text();
    let parsed = SessionCheckpoint::from_text(&text).expect("valid checkpoint parses");
    assert_eq!(parsed.to_text(), text, "codec must be a fixed point");
}

#[test]
fn every_line_boundary_truncation_is_rejected() {
    let text = rich_checkpoint_text();
    // Truncate after every line boundary (including the empty prefix):
    // each proper prefix is missing required sections and must fail with a
    // typed checkpoint error, not a panic or a silently shorter session.
    let mut cut = 0;
    while let Some(nl) = text[cut..].find('\n') {
        cut += nl + 1;
        if cut == text.len() {
            break;
        }
        let prefix = &text[..cut];
        match SessionCheckpoint::from_text(prefix) {
            Err(e) => assert!(
                is_checkpoint_err(&e),
                "truncation at byte {cut} gave a non-checkpoint error: {e}"
            ),
            Ok(_) => panic!("truncation at byte {cut} parsed successfully"),
        }
    }
    // Also drop the final newline only: 'end' without a trailing newline
    // still parses (str::lines semantics) — pin that so the behaviour is
    // deliberate, not accidental.
    assert!(SessionCheckpoint::from_text(text.trim_end_matches('\n')).is_ok());
}

#[test]
fn single_byte_corruptions_never_panic() {
    let text = rich_checkpoint_text();
    let bytes = text.as_bytes();
    // Systematic bit flips over the whole text (step 3 keeps runtime sane:
    // ~every third byte, three different bits each).
    for i in (0..bytes.len()).step_by(3) {
        for bit in [0x01u8, 0x10, 0x80] {
            let mut corrupted = bytes.to_vec();
            corrupted[i] ^= bit;
            let Ok(s) = std::str::from_utf8(&corrupted) else {
                continue; // not valid UTF-8: callers can't even hand it over
            };
            // Must not panic.  A flip that survives parsing (e.g. a digit
            // in a counter) must still satisfy the to_text fixed point —
            // i.e. it parsed into a self-consistent checkpoint, not a
            // half-read one.
            if let Ok(cp) = SessionCheckpoint::from_text(s) {
                let reprinted = cp.to_text();
                assert_eq!(
                    SessionCheckpoint::from_text(&reprinted).unwrap().to_text(),
                    reprinted,
                    "corrupted-but-parsable text at byte {i} broke the fixed point"
                );
            }
        }
    }
}

#[test]
fn adversarial_counts_fail_instead_of_allocating() {
    // A corrupted element count must not drive Vec::with_capacity into a
    // capacity-overflow panic or a huge allocation.
    for n in ["18446744073709551615", "9999999999", "4294967295"] {
        let text = format!(
            "sqlts-checkpoint v1\nengine ops\npattern 3\nrecords 0\nskipped 0\n\
             pressure 0\nquarantine {n}\n"
        );
        match SessionCheckpoint::from_text(&text) {
            Err(e) => assert!(is_checkpoint_err(&e), "{e}"),
            Ok(_) => panic!("quarantine count {n} with no entries parsed"),
        }
        let text = format!(
            "sqlts-checkpoint v1\nengine ops\npattern 3\nrecords 0\nskipped 0\n\
             pressure 0\nquarantine 0\nlog none\nclusters {n}\n"
        );
        match SessionCheckpoint::from_text(&text) {
            Err(e) => assert!(is_checkpoint_err(&e), "{e}"),
            Ok(_) => panic!("cluster count {n} with no clusters parsed"),
        }
    }
}

#[test]
fn version_bump_and_trailing_garbage_are_rejected() {
    let text = rich_checkpoint_text();
    let v2 = text.replacen("sqlts-checkpoint v1", "sqlts-checkpoint v2", 1);
    match SessionCheckpoint::from_text(&v2) {
        Err(StreamError::Checkpoint(msg)) => {
            assert!(msg.contains("sqlts-checkpoint v1"), "{msg}")
        }
        other => panic!("v2 header must be rejected, got {other:?}"),
    }
    let trailing = format!("{text}stray line after end\n");
    match SessionCheckpoint::from_text(&trailing) {
        Err(StreamError::Checkpoint(msg)) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("trailing garbage must be rejected, got {other:?}"),
    }
    // Blank trailing lines are tolerated (editors add them).
    assert!(SessionCheckpoint::from_text(&format!("{text}\n\n")).is_ok());
}

#[test]
fn engine_mismatch_and_tag_confusion_are_typed_errors() {
    let text = rich_checkpoint_text();
    for (from, to) in [
        ("engine ops", "engine warp"),
        ("lastseq", "lostseq"),
        ("pattern 3", "pattern x"),
    ] {
        assert!(text.contains(from), "fixture must contain '{from}'");
        let bad = text.replacen(from, to, 1);
        match SessionCheckpoint::from_text(&bad) {
            Err(e) => assert!(is_checkpoint_err(&e), "{from}->{to}: {e}"),
            Ok(_) => panic!("{from}->{to} parsed successfully"),
        }
    }
}
