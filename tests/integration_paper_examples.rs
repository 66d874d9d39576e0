//! Integration: every runnable example of the paper, end to end.

use sqlts_core::engine::{find_matches, SearchOptions};
use sqlts_core::{
    compile, execute_query, CompileOptions, EngineKind, ExecOptions, FirstTuplePolicy, SearchTrace,
};
use sqlts_relation::{ColumnType, Date, Schema, Table, Value};

fn quote_schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("date", ColumnType::Date),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

fn single_stock(prices: &[f64]) -> Table {
    let mut t = Table::new(quote_schema());
    for (i, &p) in prices.iter().enumerate() {
        t.push_row(vec![
            Value::from("IBM"),
            Value::Date(Date::from_days(i as i32)),
            Value::from(p),
        ])
        .unwrap();
    }
    t
}

/// Example 2: maximal periods in which the price fell more than 50%.
#[test]
fn example2_maximal_falling_period() {
    // 100 → 90 → 70 → 45 (cumulative −55%) → 60.
    let table = single_stock(&[100.0, 90.0, 70.0, 45.0, 60.0]);
    let result = execute_query(
        "SELECT X.name, X.date AS start_date, Z.previous.date AS end_date \
         FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) \
         WHERE Y.price < Y.previous.price AND Z.previous.price < 0.5 * X.price",
        &table,
        &ExecOptions {
            policy: FirstTuplePolicy::Fail,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.table.len(), 1);
    // X binds the day *before* the fall (price 100, day 0); the falling
    // period ends at the 45 (day 3); Z is the rebound day.
    assert_eq!(result.table.cell(0, 1).to_string(), "1970-01-01");
    assert_eq!(result.table.cell(0, 2).to_string(), "1970-01-04");
}

/// Example 3: three consecutive closing prices 10, 11, 15.
#[test]
fn example3_constant_equalities() {
    let table = single_stock(&[9.0, 10.0, 11.0, 15.0, 11.0, 10.0, 11.0, 15.0]);
    for engine in [EngineKind::Naive, EngineKind::Ops] {
        let result = execute_query(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) \
             WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15",
            &table,
            &ExecOptions {
                engine,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.table.len(), 2, "{engine:?}");
    }
}

/// Example 4 over the §4.2.1 sequence, with the Figure 5 cost comparison.
#[test]
fn example4_figure5_paths() {
    let prices = [
        55.0, 50.0, 45.0, 57.0, 54.0, 50.0, 47.0, 49.0, 45.0, 42.0, 55.0, 57.0, 59.0, 60.0, 57.0,
    ];
    let table = single_stock(&prices);
    let query = compile(
        "SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C, D) \
         WHERE A.price < A.previous.price \
         AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
         AND C.price > C.previous.price AND C.price < 52 \
         AND D.price > D.previous.price",
        table.schema(),
        &CompileOptions::default(),
    )
    .unwrap();
    let clusters = table.cluster_by(&[], &["date"]).unwrap();
    let mut lens = Vec::new();
    for engine in [EngineKind::Naive, EngineKind::Ops] {
        let counter = SearchTrace::counter(query.elements.len());
        find_matches(
            &query.elements,
            &clusters[0],
            engine,
            &SearchOptions {
                policy: FirstTuplePolicy::Fail,
            },
            &counter,
        );
        let total = counter.total();
        let trace = SearchTrace::of(counter);
        assert_eq!(trace.path_len() as u64, total);
        lens.push(trace.path_len());
    }
    assert!(
        lens[1] < lens[0],
        "OPS path ({}) must be shorter than naive ({})",
        lens[1],
        lens[0]
    );
}

/// Example 4 in full: the five-variable query with the cluster filter
/// `X.name = 'IBM'`, over a two-stock table where only IBM matches.
#[test]
fn example4_full_query_with_name_filter() {
    let mut table = Table::new(quote_schema());
    // IBM: drop, drop-into-band, rise-under-52, rise.
    // MSFT: the same shape, but the name filter must exclude it.
    for (name, prices) in [
        ("IBM", [55.0, 48.0, 45.0, 51.0, 53.0]),
        ("MSFT", [55.0, 48.0, 45.0, 51.0, 53.0]),
    ] {
        for (i, p) in prices.iter().enumerate() {
            table
                .push_row(vec![
                    Value::from(name),
                    Value::Date(Date::from_days(i as i32)),
                    Value::from(*p),
                ])
                .unwrap();
        }
    }
    let src = "SELECT X.date AS start_date, X.price, U.date AS end_date, U.price \
               FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z, T, U) \
               WHERE X.name='IBM' \
               AND Y.price < X.price \
               AND Z.price < Y.price AND Z.price > 40 AND Z.price < 50 \
               AND T.price > Z.price AND T.price < 52 \
               AND U.price > T.price";
    for engine in [EngineKind::Naive, EngineKind::Ops] {
        let result = execute_query(
            src,
            &table,
            &ExecOptions {
                engine,
                policy: FirstTuplePolicy::VacuousTrue,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.table.len(), 1, "{engine:?}");
        assert_eq!(result.table.cell(0, 1), &Value::from(55.0), "{engine:?}");
        assert_eq!(result.table.cell(0, 3), &Value::from(53.0), "{engine:?}");
    }
}

/// Example 8: rising, falling, rising periods with FIRST/LAST output.
#[test]
fn example8_three_periods() {
    // The §5 count example: 20 21 23 24 22 20 18 15 14 18 21.
    let prices = [
        20.0, 21.0, 23.0, 24.0, 22.0, 20.0, 18.0, 15.0, 14.0, 18.0, 21.0,
    ];
    let table = single_stock(&prices);
    let result = execute_query(
        "SELECT X.name, FIRST(X).date AS sdate, LAST(Z).date AS edate \
         FROM quote CLUSTER BY name SEQUENCE BY date AS (*X, *Y, *Z) \
         WHERE X.price > X.previous.price AND Y.price < Y.previous.price \
         AND Z.price > Z.previous.price",
        &table,
        &ExecOptions {
            policy: FirstTuplePolicy::VacuousTrue,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(result.table.len(), 1);
    assert_eq!(result.table.cell(0, 1).to_string(), "1970-01-01");
    assert_eq!(result.table.cell(0, 2).to_string(), "1970-01-11");
}

/// Example 9 compiles, runs, and its optimizer artifacts match §5.1.
#[test]
fn example9_runs_and_optimizes() {
    use sqlts_core::matrices::{PrecondMatrices, Predicates};
    use sqlts_core::star_shift_next;
    let query_src = "SELECT X.NEXT.date, X.NEXT.price, S.previous.date, S.previous.price \
         FROM quote CLUSTER BY name SEQUENCE BY date AS (*X, Y, *Z, *T, U, *V, S) \
         WHERE X.price > X.previous.price \
         AND 30 < Y.price AND Y.price < 40 \
         AND Z.price < Z.previous.price \
         AND T.price > T.previous.price \
         AND 35 < U.price AND U.price < 40 \
         AND V.price < V.previous.price \
         AND S.price < 30";
    let query = compile(query_src, &quote_schema(), &CompileOptions::default()).unwrap();
    let pattern = Predicates::new(&query.elements);
    let pre = PrecondMatrices::build(pattern);
    let sn = star_shift_next(pattern, &pre);
    assert_eq!(sn.shift(6), 3);
    assert_eq!(sn.next(6), 1);

    // A crafted series matching the four-period shape (greedy star
    // boundaries in mind: each star's run must END on the tuple that
    // starts the next element):
    let prices = [
        28.0, 31.0, 34.0, 38.0, // *X rising run
        33.0, // Y: ends the rise, inside (30,40)
        31.0, // *Z falling run
        36.0, 39.0, // *T rising run
        38.0, // U: ends the rise, inside (35,40)
        33.0, 29.0, // *V falling run
        29.5, // S: ends the fall, below 30
    ];
    let table = single_stock(&prices);
    for engine in [EngineKind::Naive, EngineKind::Ops] {
        let result = execute_query(
            query_src,
            &table,
            &ExecOptions {
                engine,
                policy: FirstTuplePolicy::VacuousTrue,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.table.len(), 1, "{engine:?}");
    }
}

/// Example 10 (the relaxed double bottom) on a crafted miniature.
#[test]
fn example10_relaxed_double_bottom_miniature() {
    // flat, big drop, flat, big rise, flat, big drop, flat, big rise, flat.
    let prices = [
        100.0, 100.5, // X region (no big drop)
        95.0,  // Y: -5.47%
        95.5, 94.8, // Z: flat-ish (±2%)
        99.0, // T: +4.4%
        99.5, // U: flat
        94.0, // V: -5.5%
        94.5, // W: flat
        99.2, // R: +5.0%
        99.5, // S: +0.3% (≤ 2%)
    ];
    let table = single_stock(&prices);
    let query = "SELECT X.NEXT.date, X.NEXT.price, S.previous.date, S.previous.price \
         FROM djia SEQUENCE BY date AS (X, *Y, *Z, *T, *U, *V, *W, *R, S) \
         WHERE X.price >= 0.98 * X.previous.price \
         AND Y.price < 0.98 * Y.previous.price \
         AND 0.98 * Z.previous.price < Z.price AND Z.price < 1.02 * Z.previous.price \
         AND T.price > 1.02 * T.previous.price \
         AND 0.98 * U.previous.price < U.price AND U.price < 1.02 * U.previous.price \
         AND V.price < 0.98 * V.previous.price \
         AND 0.98 * W.previous.price < W.price AND W.price < 1.02 * W.previous.price \
         AND R.price > 1.02 * R.previous.price \
         AND S.price <= 1.02 * S.previous.price";
    for engine in [
        EngineKind::Naive,
        EngineKind::NaiveBacktrack,
        EngineKind::Ops,
    ] {
        let result = execute_query(
            query,
            &table,
            &ExecOptions {
                engine,
                policy: FirstTuplePolicy::VacuousTrue,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.table.len(), 1, "{engine:?}");
        // X.NEXT is the first big-drop day.
        assert_eq!(result.table.cell(0, 1), &Value::from(95.0), "{engine:?}");
        // S.previous is the last flat day before the final rebound's end.
        assert_eq!(result.table.cell(0, 3), &Value::from(99.2), "{engine:?}");
    }
}
