//! [`Schema`], [`Table`] and the `CLUSTER BY` / `SEQUENCE BY` pipeline.

use crate::value::{ColumnType, Value};
use std::collections::BTreeMap;
use std::fmt;

/// One column of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name (matched case-insensitively by lookups).
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

/// An ordered list of named, typed columns.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

/// Errors raised by table construction and row insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row had the wrong number of cells.
    Arity {
        /// Schema arity.
        expected: usize,
        /// Row length.
        got: usize,
    },
    /// A cell value did not fit its column's type.
    Type {
        /// Column name.
        column: String,
        /// Declared column type.
        expected: ColumnType,
        /// Rendering of the offending value.
        got: String,
    },
    /// A referenced column does not exist.
    NoSuchColumn(String),
    /// Two columns share a name.
    DuplicateColumn(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Arity { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            TableError::Type {
                column,
                expected,
                got,
            } => write!(
                f,
                "value {got} does not fit column {column} of type {expected}"
            ),
            TableError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            TableError::DuplicateColumn(c) => write!(f, "duplicate column name: {c}"),
        }
    }
}

impl std::error::Error for TableError {}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Errors
    /// Fails on duplicate (case-insensitive) column names.
    pub fn new<I, S>(columns: I) -> Result<Schema, TableError>
    where
        I: IntoIterator<Item = (S, ColumnType)>,
        S: Into<String>,
    {
        let mut out = Schema::default();
        for (name, ty) in columns {
            let name = name.into();
            if out.index_of(&name).is_some() {
                return Err(TableError::DuplicateColumn(name));
            }
            out.columns.push(Column { name, ty });
        }
        Ok(out)
    }

    /// Parse the `name:type,...` spec grammar the CLI's `--schema` flag,
    /// the server's `OPEN` verb and the durable `.schema` files share.
    /// Type names are case-insensitive with the usual SQL aliases.
    pub fn parse_spec(spec: &str) -> Result<Schema, String> {
        let mut cols = Vec::new();
        for part in spec.split(',') {
            let (name, ty) = part
                .split_once(':')
                .ok_or_else(|| format!("bad schema entry '{part}' (want name:type)"))?;
            let ty = match ty.trim().to_ascii_lowercase().as_str() {
                "int" | "integer" => ColumnType::Int,
                "float" | "double" | "real" => ColumnType::Float,
                "str" | "string" | "varchar" | "text" => ColumnType::Str,
                "date" => ColumnType::Date,
                other => return Err(format!("unknown column type '{other}'")),
            };
            cols.push((name.trim().to_string(), ty));
        }
        Schema::new(cols).map_err(|e| e.to_string())
    }

    /// Render back to the spec grammar; [`Schema::parse_spec`] of the
    /// result is this schema again.
    pub fn to_spec(&self) -> String {
        let entries: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                let ty = match c.ty {
                    ColumnType::Int => "int",
                    ColumnType::Float => "float",
                    ColumnType::Str => "str",
                    ColumnType::Date => "date",
                };
                format!("{}:{ty}", c.name)
            })
            .collect();
        entries.join(",")
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Case-insensitive lookup of a column index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Lookup that reports an error for unknown names.
    pub fn require(&self, name: &str) -> Result<usize, TableError> {
        self.index_of(name)
            .ok_or_else(|| TableError::NoSuchColumn(name.to_string()))
    }

    /// Validate a row's arity and column types without storing it (the
    /// same checks [`Table::push_row`] applies).
    pub fn validate_row(&self, row: &[Value]) -> Result<(), TableError> {
        if row.len() != self.arity() {
            return Err(TableError::Arity {
                expected: self.arity(),
                got: row.len(),
            });
        }
        for (value, column) in row.iter().zip(self.columns()) {
            if !value.fits(column.ty) {
                return Err(TableError::Type {
                    column: column.name.clone(),
                    expected: column.ty,
                    got: value.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// A row-oriented in-memory table.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row after validating arity and column types.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        self.schema.validate_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Drop the first `k` rows (bounded-window compaction for streaming
    /// sessions; `k` is clamped to the current length).
    pub fn remove_prefix(&mut self, k: usize) {
        let k = k.min(self.rows.len());
        drop(self.rows.drain(..k));
    }

    /// The row at `index`.
    pub fn row(&self, index: usize) -> &[Value] {
        &self.rows[index]
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    /// Partition the table per `CLUSTER BY` and order each partition per
    /// `SEQUENCE BY` (§2 of the paper, Figure 1).
    ///
    /// * `cluster_by` — column names whose values identify a stream; may be
    ///   empty, in which case the whole table is one cluster.
    /// * `sequence_by` — column names to sort ascending within each
    ///   cluster; the sort is stable, so input order breaks ties.
    ///
    /// Clusters are returned ordered by their keys so output is
    /// deterministic.
    pub fn cluster_by(
        &self,
        cluster_by: &[&str],
        sequence_by: &[&str],
    ) -> Result<Vec<Cluster<'_>>, TableError> {
        let cluster_cols: Vec<usize> = cluster_by
            .iter()
            .map(|c| self.schema.require(c))
            .collect::<Result<_, _>>()?;
        let sequence_cols: Vec<usize> = sequence_by
            .iter()
            .map(|c| self.schema.require(c))
            .collect::<Result<_, _>>()?;

        let mut groups: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            let key: Vec<Value> = cluster_cols.iter().map(|&c| row[c].clone()).collect();
            groups.entry(key).or_default().push(i);
        }
        Ok(groups
            .into_iter()
            .map(|(key, mut indices)| {
                indices.sort_by(|&a, &b| {
                    let ka = sequence_cols.iter().map(|&c| &self.rows[a][c]);
                    let kb = sequence_cols.iter().map(|&c| &self.rows[b][c]);
                    ka.cmp(kb)
                });
                Cluster {
                    table: self,
                    key,
                    row_indices: indices,
                    base: 0,
                }
            })
            .collect())
    }
}

/// One `CLUSTER BY` partition, with rows in `SEQUENCE BY` order.
///
/// This is the *stream* the pattern engines traverse: `cluster.get(i)`
/// is the paper's `t_{i+1}` (engines use 0-based positions internally).
#[derive(Clone)]
pub struct Cluster<'a> {
    table: &'a Table,
    key: Vec<Value>,
    row_indices: Vec<usize>,
    /// Stream position of the first buffered row.  0 for batch clusters;
    /// a streaming session raises it as it compacts its window, so stream
    /// positions stay absolute while only `len() - base` rows are held.
    base: usize,
}

impl<'a> Cluster<'a> {
    /// A bounded-window view for streaming: `table` holds the rows at
    /// stream positions `base..base + table.len()` in arrival order;
    /// positions below `base` have been compacted away and must not be
    /// accessed.
    pub fn windowed(table: &'a Table, key: Vec<Value>, base: usize) -> Cluster<'a> {
        Cluster {
            table,
            key,
            row_indices: (0..table.len()).collect(),
            base,
        }
    }

    /// The cluster key (values of the `CLUSTER BY` columns).
    pub fn key(&self) -> &[Value] {
        &self.key
    }

    /// Number of rows in the stream (for a windowed cluster this counts
    /// the compacted prefix too: positions are absolute).
    pub fn len(&self) -> usize {
        self.base + self.row_indices.len()
    }

    /// `true` iff the cluster is empty (cannot happen for clusters produced
    /// by [`Table::cluster_by`], but synthetic clusters may be empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `pos`-th row of the stream (0-based; panics below a windowed
    /// cluster's base).
    pub fn get(&self, pos: usize) -> &'a [Value] {
        self.table.row(self.row_indices[pos - self.base])
    }

    /// The underlying table row index of stream position `pos`.
    pub fn table_index(&self, pos: usize) -> usize {
        self.row_indices[pos - self.base]
    }

    /// Iterate the buffered rows in stream order (everything for a batch
    /// cluster; the retained window for a windowed one).
    pub fn iter(&self) -> impl Iterator<Item = &'a [Value]> + '_ {
        self.row_indices.iter().map(move |&i| self.table.row(i))
    }

    /// The table this cluster views.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// A view of this cluster with the stream order reversed (used by the
    /// reverse-direction search of the paper's §8).  Not meaningful for
    /// windowed clusters.
    pub fn reversed(&self) -> Cluster<'a> {
        debug_assert_eq!(self.base, 0, "cannot reverse a windowed cluster");
        Cluster {
            table: self.table,
            key: self.key.clone(),
            row_indices: self.row_indices.iter().rev().copied().collect(),
            base: 0,
        }
    }
}

impl fmt::Debug for Cluster<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cluster(key={:?}, rows={})", self.key, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn schema_spec_round_trips_and_rejects_bad_entries() {
        let schema = Schema::parse_spec("name:STR, date:date,price:double").unwrap();
        assert_eq!(schema, quote_schema());
        assert_eq!(schema.to_spec(), "name:str,date:date,price:float");
        assert_eq!(Schema::parse_spec(&schema.to_spec()).unwrap(), schema);
        assert_eq!(
            Schema::parse_spec("name").unwrap_err(),
            "bad schema entry 'name' (want name:type)"
        );
        assert_eq!(
            Schema::parse_spec("name:blob").unwrap_err(),
            "unknown column type 'blob'"
        );
        assert!(Schema::parse_spec("a:int,A:int").is_err(), "duplicate");
    }

    fn quotes() -> Table {
        // The paper's Figure 1 data (INTC and IBM, 1/25/99–1/27/99),
        // deliberately inserted out of order to exercise the pipeline.
        let mut t = Table::new(quote_schema());
        let d = |day| Value::Date(Date::from_ymd(1999, 1, day));
        for (name, day, price) in [
            ("IBM", 27, 84.0),
            ("INTC", 25, 60.0),
            ("IBM", 25, 81.0),
            ("INTC", 27, 62.0),
            ("IBM", 26, 80.5),
            ("INTC", 26, 63.5),
        ] {
            t.push_row(vec![Value::from(name), d(day), Value::from(price)])
                .unwrap();
        }
        t
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let s = quote_schema();
        assert_eq!(s.index_of("PRICE"), Some(2));
        assert_eq!(s.index_of("Price"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.require("nope").is_err());
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new([("a", ColumnType::Int), ("A", ColumnType::Str)]).unwrap_err();
        assert_eq!(err, TableError::DuplicateColumn("A".into()));
    }

    #[test]
    fn push_row_validates() {
        let mut t = Table::new(quote_schema());
        assert!(matches!(
            t.push_row(vec![Value::from("IBM")]),
            Err(TableError::Arity {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            t.push_row(vec![
                Value::from("IBM"),
                Value::from("oops"),
                Value::from(1.0)
            ]),
            Err(TableError::Type { .. })
        ));
        // Int into Float column is fine; NULLs are fine.
        t.push_row(vec![
            Value::from("IBM"),
            Value::Date(Date::from_days(0)).clone(),
            Value::Int(81),
        ])
        .unwrap();
        t.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cluster_by_groups_and_sorts_like_figure1() {
        let t = quotes();
        let clusters = t.cluster_by(&["name"], &["date"]).unwrap();
        assert_eq!(clusters.len(), 2);
        // BTreeMap ordering: IBM before INTC.
        assert_eq!(clusters[0].key(), &[Value::from("IBM")]);
        assert_eq!(clusters[1].key(), &[Value::from("INTC")]);
        let ibm_prices: Vec<f64> = clusters[0].iter().map(|r| r[2].as_f64().unwrap()).collect();
        assert_eq!(ibm_prices, vec![81.0, 80.5, 84.0]);
        let intc_prices: Vec<f64> = clusters[1].iter().map(|r| r[2].as_f64().unwrap()).collect();
        assert_eq!(intc_prices, vec![60.0, 63.5, 62.0]);
    }

    #[test]
    fn empty_cluster_by_yields_single_stream() {
        let t = quotes();
        let clusters = t.cluster_by(&[], &["date", "name"]).unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 6);
        assert!(clusters[0].key().is_empty());
        // Sorted by (date, name): 25th IBM, 25th INTC, 26th IBM, ...
        let first = clusters[0].get(0);
        assert_eq!(first[0], Value::from("IBM"));
    }

    #[test]
    fn cluster_by_unknown_column_errors() {
        let t = quotes();
        assert!(matches!(
            t.cluster_by(&["ticker"], &["date"]),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn stable_sort_preserves_insert_order_on_ties() {
        let mut t = Table::new(
            Schema::new([
                ("k", ColumnType::Str),
                ("seq", ColumnType::Int),
                ("id", ColumnType::Int),
            ])
            .unwrap(),
        );
        for (id, seq) in [(1, 5), (2, 5), (3, 4)] {
            t.push_row(vec![Value::from("a"), Value::Int(seq), Value::Int(id)])
                .unwrap();
        }
        let c = t.cluster_by(&["k"], &["seq"]).unwrap();
        let ids: Vec<i64> = c[0]
            .iter()
            .map(|r| match r[2] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn windowed_cluster_keeps_absolute_positions() {
        let mut t = Table::new(quote_schema());
        let d = |day| Value::Date(Date::from_ymd(1999, 1, day));
        for (day, price) in [(25, 81.0), (26, 80.5), (27, 84.0)] {
            t.push_row(vec![Value::from("IBM"), d(day), Value::from(price)])
                .unwrap();
        }
        // Compact the first row away; positions 1..=3 remain addressable.
        t.remove_prefix(1);
        let w = Cluster::windowed(&t, vec![Value::from("IBM")], 1);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert_eq!(w.get(1)[2], Value::from(80.5));
        assert_eq!(w.get(2)[2], Value::from(84.0));
        assert_eq!(w.table_index(1), 0);
        assert_eq!(w.iter().count(), 2);
        // remove_prefix clamps.
        t.remove_prefix(100);
        assert!(t.is_empty());
    }

    #[test]
    fn validate_row_matches_push_row() {
        let s = quote_schema();
        assert!(s.validate_row(&[Value::from("IBM")]).is_err());
        assert!(s
            .validate_row(&[Value::from("IBM"), Value::from("oops"), Value::from(1.0)])
            .is_err());
        assert!(s
            .validate_row(&[
                Value::from("IBM"),
                Value::Date(Date::from_days(0)),
                Value::Int(81)
            ])
            .is_ok());
    }

    #[test]
    fn cluster_accessors() {
        let t = quotes();
        let clusters = t.cluster_by(&["name"], &["date"]).unwrap();
        let ibm = &clusters[0];
        assert!(!ibm.is_empty());
        assert_eq!(ibm.get(0)[2], Value::from(81.0));
        let tbl_idx = ibm.table_index(0);
        assert_eq!(t.row(tbl_idx)[2], Value::from(81.0));
        assert!(format!("{ibm:?}").contains("rows=3"));
        assert_eq!(ibm.table().len(), 6);
    }
}
