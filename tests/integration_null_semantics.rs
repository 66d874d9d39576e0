//! Integration: `WHERE` is evaluated in Kleene logic (DESIGN §3, "NULL in
//! `WHERE`"), so the runtime and the θ/φ solver agree on NULL data and all
//! four engines return the same rows.

use sqlts_core::{execute_query, EngineKind, ExecOptions};
use sqlts_relation::{ColumnType, Schema, Table, Value};

const ENGINES: [EngineKind; 4] = [
    EngineKind::Naive,
    EngineKind::NaiveBacktrack,
    EngineKind::Ops,
    EngineKind::OpsShiftOnly,
];

/// One cluster `A`, days 1.., one row per price (`None` = NULL).
fn prices(cells: &[Option<f64>]) -> Table {
    let schema = Schema::new([
        ("name", ColumnType::Str),
        ("day", ColumnType::Int),
        ("price", ColumnType::Float),
    ])
    .unwrap();
    let mut table = Table::new(schema);
    for (i, cell) in cells.iter().enumerate() {
        let price = cell.map_or(Value::Null, Value::from);
        table
            .push_row(vec![Value::from("A"), Value::Int(i as i64 + 1), price])
            .unwrap();
    }
    table
}

/// `(X.day, Y.day)` pairs matched by `AS (X, Y) WHERE <cond>`.
fn pairs(table: &Table, cond: &str, engine: EngineKind) -> Vec<(String, String)> {
    let result = execute_query(
        &format!(
            "SELECT X.day AS a, Y.day AS b FROM q CLUSTER BY name SEQUENCE BY day \
             AS (X, Y) WHERE {cond}"
        ),
        table,
        &ExecOptions {
            engine,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{engine:?}: {cond}: {e}"));
    (0..result.table.len())
        .map(|r| {
            (
                result.table.cell(r, 0).to_string(),
                result.table.cell(r, 1).to_string(),
            )
        })
        .collect()
}

/// The ROADMAP direction-1 witness.  Before the fix the runtime collapsed
/// `NULL > 5` to false and `NOT` flipped it to true, so the NULL row passed
/// `NOT (X.price > 5)` while φ — built from the solver's `price ≤ 5` — said
/// it could not: `naive`/`backtrack` returned `(2,3)`, `ops`/`shift-only`
/// nothing.  `NOT Unknown` is `Unknown`, the NULL row binds nothing, and all
/// four agree on the SQL answer: no match.
#[test]
fn null_under_not_rejects_for_every_engine() {
    let table = prices(&[Some(3.0), None, Some(8.0), Some(20.0)]);
    for engine in ENGINES {
        assert_eq!(
            pairs(&table, "NOT (X.price > 5) AND Y.price < 10", engine),
            Vec::<(String, String)>::new(),
            "{engine:?}"
        );
    }
}

/// `Unknown` is absorbed only by a dominating operand: `Unknown OR True` is
/// `True`, `Unknown AND False` is `False` (so its `NOT` passes), and an
/// excluded middle over a NULL stays `Unknown` and rejects.
#[test]
fn unknown_propagates_through_and_or_not() {
    // X = day 1 (NULL), Y = day 2 (4.0) is the only alignment.
    let table = prices(&[None, Some(4.0)]);
    let hit = vec![("1".to_string(), "2".to_string())];
    for engine in ENGINES {
        for (cond, expected) in [
            ("(X.price > 5 OR X.day = 1) AND Y.price = 4", &hit),
            ("NOT (X.price > 5 AND X.day = 2) AND Y.price = 4", &hit),
            ("(X.price > 5 OR X.price <= 5) AND Y.price = 4", &vec![]),
            ("NOT (X.price > 5 OR X.day = 2) AND Y.price = 4", &vec![]),
            ("X.price <> 5 AND Y.price = 4", &vec![]),
        ] {
            assert_eq!(&pairs(&table, cond, engine), expected, "{engine:?}: {cond}");
        }
    }
}
