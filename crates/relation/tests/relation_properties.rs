//! Property tests for the relational substrate: total value ordering,
//! CSV round-trips, and clustering invariants.

use proptest::prelude::*;
use sqlts_relation::{ColumnType, Date, Schema, Table, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-1_000i64..1_000).prop_map(Value::Int),
        (-1_000i64..1_000).prop_map(|i| Value::Float(i as f64 / 4.0)),
        "[a-zA-Z0-9 ,\"]{0,12}".prop_map(Value::Str),
        (-50_000i32..50_000).prop_map(|d| Value::Date(Date::from_days(d))),
    ]
}

proptest! {
    /// Value ordering is a total order: antisymmetric, transitive, total.
    #[test]
    fn value_ordering_is_total(
        a in arb_value(),
        b in arb_value(),
        c in arb_value(),
    ) {
        use std::cmp::Ordering;
        // Totality + antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Consistency of Eq with Ord.
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }

    /// Any table of generated values survives a CSV round-trip, except
    /// that floats are rendered decimally (quarter-steps are exact).
    #[test]
    fn csv_round_trip(
        rows in proptest::collection::vec(
            (
                // Avoid the literal "null", which CSV import maps to NULL.
                "[a-zA-Z0-9 ,\"']{0,10}"
                    .prop_filter("not the NULL literal", |s| {
                        !s.trim().eq_ignore_ascii_case("null")
                    }),
                -20_000i32..20_000,
                -1_000i64..1_000,
            ),
            0..40,
        )
    ) {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ]).unwrap();
        let mut table = Table::new(schema.clone());
        for (name, days, q) in &rows {
            // CSV import trims whitespace, so normalize names likewise.
            let name = name.trim().to_string();
            table.push_row(vec![
                Value::Str(name),
                Value::Date(Date::from_days(*days)),
                Value::Float(*q as f64 / 4.0),
            ]).unwrap();
        }
        let rendered = table.to_csv_string();
        let parsed = Table::from_csv_str(schema, &rendered).unwrap();
        prop_assert_eq!(parsed.len(), table.len());
        for (a, b) in parsed.rows().zip(table.rows()) {
            // Empty strings become NULL on import; everything else must
            // round-trip exactly.
            if let (Value::Null, Value::Str(s)) = (&a[0], &b[0]) {
                prop_assert!(s.is_empty());
            } else {
                prop_assert_eq!(&a[0], &b[0]);
            }
            prop_assert_eq!(&a[1], &b[1]);
            prop_assert_eq!(&a[2], &b[2]);
        }
    }

    /// Clustering partitions the row set exactly: every row appears in
    /// exactly one cluster, and within clusters the sequence column is
    /// non-decreasing.
    #[test]
    fn clustering_partitions_and_sorts(
        rows in proptest::collection::vec((0u8..4, -100i32..100), 0..60)
    ) {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ]).unwrap();
        let mut table = Table::new(schema);
        for (k, d) in &rows {
            table.push_row(vec![
                Value::Str(format!("S{k}")),
                Value::Date(Date::from_days(*d)),
                Value::Float(1.0),
            ]).unwrap();
        }
        let clusters = table.cluster_by(&["name"], &["date"]).unwrap();
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, table.len());
        for cluster in &clusters {
            prop_assert!(!cluster.is_empty());
            let mut prev: Option<Date> = None;
            for row in cluster.iter() {
                prop_assert_eq!(&row[0], &cluster.key()[0]);
                let d = row[1].as_date().unwrap();
                if let Some(p) = prev {
                    prop_assert!(d >= p);
                }
                prev = Some(d);
            }
        }
    }
}
