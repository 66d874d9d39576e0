//! [`Schema`], [`Table`] and the `CLUSTER BY` / `SEQUENCE BY` pipeline.

use crate::value::{ColumnType, Value};
use std::cmp::Ordering;
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

    /// [`Schema::require`] for each of `names`, in order.
    pub fn require_all<S: AsRef<str>>(&self, names: &[S]) -> Result<Vec<usize>, TableError> {
        names.iter().map(|n| self.require(n.as_ref())).collect()
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

/// An in-memory table stored as one cell buffer: row `i` is the slice
/// `cells[i·arity .. (i+1)·arity]`, so a row costs its cells and nothing
/// else — no `Vec` header, no heap chunk of its own.  A producer that
/// knows its row count reserves it up front ([`Table::with_capacity`]),
/// so the buffer is allocated once.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    schema: Schema,
    /// Every cell, row after row.
    cells: Vec<Value>,
    /// Number of rows (kept apart from `cells`: a zero-column table still
    /// has rows).
    len: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        Table::with_capacity(schema, 0)
    }

    /// An empty table with room for `rows` rows: pushing that many never
    /// reallocates the cell buffer.
    pub fn with_capacity(schema: Schema, rows: usize) -> Table {
        Table {
            cells: Vec::with_capacity(rows.saturating_mul(schema.arity())),
            schema,
            len: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a row after validating arity and column types.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        self.schema.validate_row(&row)?;
        self.push_validated(row);
        Ok(())
    }

    /// Drop the first `k` rows (bounded-window compaction for streaming
    /// sessions; `k` is clamped to the current length).
    pub fn remove_prefix(&mut self, k: usize) {
        let k = k.min(self.len);
        self.len -= k;
        drop(self.cells.drain(..k * self.schema.arity()));
    }

    /// The row at `index`.
    pub fn row(&self, index: usize) -> &[Value] {
        debug_assert!(index < self.len, "row {index} of {}", self.len);
        let arity = self.schema.arity();
        &self.cells[index * arity..(index + 1) * arity]
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.row(row)[col]
    }

    /// Append a row the caller has already passed through
    /// [`Schema::validate_row`] for this table's schema.  Only for the
    /// streaming admit path, which checks each tuple once, before it
    /// decides where the tuple goes; everyone else wants
    /// [`Table::push_row`].  A release build does not re-check, and a row
    /// of the wrong shape breaks every later `row[c]`.
    #[doc(hidden)]
    pub fn push_validated(&mut self, row: Vec<Value>) {
        debug_assert!(self.schema.validate_row(&row).is_ok());
        self.cells.extend(row);
        self.len += 1;
    }

    /// Append one row of NULL cells and hand them out to be filled in
    /// place: how the CSV reader types each record straight into the
    /// buffer.
    pub(crate) fn push_nulls(&mut self) -> &mut [Value] {
        let start = self.cells.len();
        self.cells.resize(start + self.schema.arity(), Value::Null);
        self.len += 1;
        &mut self.cells[start..]
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
    /// deterministic.  A cluster's key is taken from its first row in
    /// table order, so when `Int(10)` and `Float(10.0)` (equal values)
    /// meet in one cluster the earlier spelling names it.
    ///
    /// One pass, no allocation per row: keys are compared where they lie
    /// ([`RowKey`]); a row with the previous row's key costs one key
    /// comparison and no lookup; and a cluster is sorted only if some row
    /// arrived below its predecessor.  A table stored in `CLUSTER BY`,
    /// `SEQUENCE BY` order is partitioned in O(rows + clusters · log
    /// clusters) comparisons; the worst case adds a map lookup per row
    /// and the stable sort of the clusters that need one.
    pub fn cluster_by(
        &self,
        cluster_by: &[&str],
        sequence_by: &[&str],
    ) -> Result<Vec<Cluster<'_>>, TableError> {
        let cluster_cols = self.schema.require_all(cluster_by)?;
        let sequence_cols = self.schema.require_all(sequence_by)?;
        let cluster_key = |i: usize| RowKey::new(self.row(i), &cluster_cols);
        let sequence_key = |i: usize| RowKey::new(self.row(i), &sequence_cols);

        /// One cluster under construction.
        struct Group {
            /// Its rows, in table order.
            indices: Vec<usize>,
            /// Is table order still `SEQUENCE BY` order?
            sorted: bool,
        }
        let mut groups: Vec<Group> = Vec::new();
        // Finds a cluster's slot in `groups` by the key of its first row.
        let mut slots: BTreeMap<RowKey<'_>, usize> = BTreeMap::new();
        // The previous row's slot.
        let mut previous: Option<usize> = None;
        for i in 0..self.len {
            let key = cluster_key(i);
            let slot = match previous {
                Some(slot) if cluster_key(groups[slot].indices[0]) == key => slot,
                // The run ended (or none began): find the cluster, or open it.
                _ => *slots.entry(key).or_insert_with(|| {
                    groups.push(Group {
                        indices: Vec::new(),
                        sorted: true,
                    });
                    groups.len() - 1
                }),
            };
            let group = &mut groups[slot];
            if let Some(&last) = group.indices.last() {
                group.sorted = group.sorted && sequence_key(last) <= sequence_key(i);
            }
            group.indices.push(i);
            previous = Some(slot);
        }
        Ok(slots
            .into_iter()
            .map(|(first_row, slot)| {
                let mut indices = std::mem::take(&mut groups[slot].indices);
                if !groups[slot].sorted {
                    indices.sort_by_key(|&i| sequence_key(i));
                }
                Cluster {
                    table: self,
                    key: first_row.to_vec(),
                    order: Order::Indexed(indices),
                }
            })
            .collect())
    }
}

/// The values of one row at a fixed list of columns: a `CLUSTER BY` or
/// `SEQUENCE BY` key compared where it lies, with no `Vec<Value>` built.
/// Orders and equals exactly as the key [`RowKey::to_vec`] builds would
/// (lexicographically, by [`Value`]'s total order).
#[derive(Clone, Copy, Debug)]
pub struct RowKey<'a> {
    row: &'a [Value],
    cols: &'a [usize],
}

impl<'a> RowKey<'a> {
    /// The key of `row` at column indices `cols` (each must be in range
    /// for `row`; a schema-validated row and [`Schema::require`]d
    /// indices are).
    pub fn new(row: &'a [Value], cols: &'a [usize]) -> RowKey<'a> {
        RowKey { row, cols }
    }

    /// Number of key columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` iff the key has no columns (every row then has the same key).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The `i`-th key value.
    pub fn get(&self, i: usize) -> &'a Value {
        &self.row[self.cols[i]]
    }

    /// The key values in column-list order.
    pub fn values(&self) -> impl Iterator<Item = &'a Value> + 'a {
        let row = self.row;
        self.cols.iter().map(move |&c| &row[c])
    }

    /// An owned copy of the key.
    pub fn to_vec(&self) -> Vec<Value> {
        self.values().cloned().collect()
    }
}

impl PartialEq for RowKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for RowKey<'_> {}

impl PartialOrd for RowKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
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
    order: Order,
}

/// Which table row sits at which stream position.
#[derive(Clone)]
enum Order {
    /// A batch cluster: the table row index of every stream position.
    Indexed(Vec<usize>),
    /// A streaming window: table row `r` is stream position `base + r`.
    /// The session raises `base` as it compacts the window, so stream
    /// positions stay absolute while only `len() - base` rows are held.
    Window { base: usize },
}

impl<'a> Cluster<'a> {
    /// A bounded-window view for streaming: `table` holds the rows at
    /// stream positions `base..base + table.len()` in arrival order;
    /// positions below `base` have been compacted away and must not be
    /// accessed.  The view is a range over `table`: building it costs
    /// nothing per row.
    pub fn windowed(table: &'a Table, key: Vec<Value>, base: usize) -> Cluster<'a> {
        Cluster {
            table,
            key,
            order: Order::Window { base },
        }
    }

    /// The cluster key (values of the `CLUSTER BY` columns).
    pub fn key(&self) -> &[Value] {
        &self.key
    }

    /// Stream position of the first buffered row: 0 unless this is a
    /// compacted window.
    fn base(&self) -> usize {
        match self.order {
            Order::Indexed(_) => 0,
            Order::Window { base } => base,
        }
    }

    /// Number of rows in the stream (for a windowed cluster this counts
    /// the compacted prefix too: positions are absolute).
    pub fn len(&self) -> usize {
        match &self.order {
            Order::Indexed(indices) => indices.len(),
            Order::Window { base } => base + self.table.len(),
        }
    }

    /// `true` iff the cluster is empty (cannot happen for clusters produced
    /// by [`Table::cluster_by`], but synthetic clusters may be empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `pos`-th row of the stream (0-based; panics below a windowed
    /// cluster's base).
    pub fn get(&self, pos: usize) -> &'a [Value] {
        self.table.row(self.table_index(pos))
    }

    /// The underlying table row index of stream position `pos`.
    pub fn table_index(&self, pos: usize) -> usize {
        match &self.order {
            Order::Indexed(indices) => indices[pos],
            Order::Window { base } => pos
                .checked_sub(*base)
                .expect("position below the window base"),
        }
    }

    /// Iterate the buffered rows in stream order (everything for a batch
    /// cluster; the retained window for a windowed one).
    pub fn iter(&self) -> impl Iterator<Item = &'a [Value]> + '_ {
        (self.base()..self.len()).map(move |pos| self.get(pos))
    }

    /// The table this cluster views.
    pub fn table(&self) -> &'a Table {
        self.table
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

    /// The table row index at every stream position of `cluster`.
    fn table_indices(cluster: &Cluster<'_>) -> Vec<usize> {
        (0..cluster.len())
            .map(|pos| cluster.table_index(pos))
            .collect()
    }

    #[test]
    fn windowed_cluster_agrees_with_the_batch_cluster_it_is_a_suffix_of() {
        let mut full = Table::new(quote_schema());
        let d = |day| Value::Date(Date::from_ymd(1999, 1, day));
        for day in 1..=6 {
            full.push_row(vec![
                Value::from("IBM"),
                d(day),
                Value::from(80.0 + day as f64),
            ])
            .unwrap();
        }
        let clusters = full.cluster_by(&["name"], &["date"]).unwrap();
        let batch = &clusters[0];
        for base in 0..=6 {
            let mut window = full.clone();
            window.remove_prefix(base);
            let w = Cluster::windowed(&window, vec![Value::from("IBM")], base);
            assert_eq!(w.len(), batch.len(), "positions are absolute");
            assert_eq!(w.is_empty(), batch.is_empty());
            assert_eq!(w.key(), batch.key());
            for pos in base..w.len() {
                assert_eq!(w.get(pos), batch.get(pos), "base {base} pos {pos}");
                assert_eq!(w.table_index(pos), batch.table_index(pos) - base);
            }
            let held: Vec<&[Value]> = w.iter().collect();
            let expected: Vec<&[Value]> = batch.iter().skip(base).collect();
            assert_eq!(held, expected, "base {base}");
        }
    }

    #[test]
    fn row_key_orders_like_the_owned_key() {
        let a = [Value::from("x"), Value::Int(1), Value::Int(10)];
        let b = [Value::from("x"), Value::Int(2), Value::Float(10.0)];
        let cols = [2, 0];
        let (ka, kb) = (RowKey::new(&a, &cols), RowKey::new(&b, &cols));
        assert_eq!(ka, kb, "Int(10) and Float(10.0) are one key");
        assert_eq!(ka.to_vec(), vec![Value::Int(10), Value::from("x")]);
        assert_eq!((ka.len(), ka.is_empty()), (2, false));
        assert_eq!(ka.get(1), &Value::from("x"));
        let by_middle = [1];
        assert!(RowKey::new(&a, &by_middle) < RowKey::new(&b, &by_middle));
        // A shorter key that is a prefix sorts first, as for `Vec`.
        assert!(RowKey::new(&a, &cols[..1]) < ka);
        assert!(RowKey::new(&a, &[]).is_empty());
        assert_eq!(RowKey::new(&a, &[]), RowKey::new(&b, &[]));
    }

    /// The partition `cluster_by` replaced, kept as the reference: an owned
    /// `Vec<Value>` key cloned per row into a `BTreeMap` (which keeps the
    /// first-inserted spelling of equal keys), then an unconditional stable
    /// sort of every cluster.  Returns `(key, table row indices)` per cluster.
    fn reference_partition(
        table: &Table,
        cluster_by: &[&str],
        sequence_by: &[&str],
    ) -> Vec<(Vec<Value>, Vec<usize>)> {
        let cluster_cols = table.schema.require_all(cluster_by).unwrap();
        let sequence_cols = table.schema.require_all(sequence_by).unwrap();
        let mut groups: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (i, row) in table.rows().enumerate() {
            let key: Vec<Value> = cluster_cols.iter().map(|&c| row[c].clone()).collect();
            groups.entry(key).or_default().push(i);
        }
        groups
            .into_iter()
            .map(|(key, mut indices)| {
                indices.sort_by(|&a, &b| {
                    let ka = sequence_cols.iter().map(|&c| &table.row(a)[c]);
                    let kb = sequence_cols.iter().map(|&c| &table.row(b)[c]);
                    ka.cmp(kb)
                });
                (key, indices)
            })
            .collect()
    }

    /// `cluster_by` against the reference: same clusters in the same
    /// order, the same spelling of every key (compared structurally —
    /// `Value`'s own equality cannot tell `Int(1)` from `Float(1.0)`),
    /// the same table row at every position.
    fn assert_partitions_like_the_reference(table: &Table, cluster: &[&str], sequence: &[&str]) {
        let got: Vec<(String, Vec<usize>)> = table
            .cluster_by(cluster, sequence)
            .unwrap()
            .iter()
            .map(|c| (format!("{:?}", c.key()), table_indices(c)))
            .collect();
        let want: Vec<(String, Vec<usize>)> = reference_partition(table, cluster, sequence)
            .into_iter()
            .map(|(key, indices)| (format!("{key:?}"), indices))
            .collect();
        assert_eq!(got, want, "CLUSTER BY {cluster:?} SEQUENCE BY {sequence:?}");
    }

    /// Every `CLUSTER BY` / `SEQUENCE BY` shape: one column, two
    /// non-adjacent columns in both orders, a numeric key column holding
    /// `Int`/`Float`-equal values, and either list empty.
    const KEY_SHAPES: [(&[&str], &[&str]); 8] = [
        (&["sym"], &["seq"]),
        (&["sym", "lot"], &["seq", "tie"]),
        (&["lot", "sym"], &["tie", "seq"]),
        (&["lot"], &["seq"]),
        (&["sym"], &[]),
        (&[], &["seq"]),
        (&[], &["lot", "seq"]),
        (&[], &[]),
    ];

    fn partition_schema() -> Schema {
        Schema::new([
            ("sym", ColumnType::Str),
            ("seq", ColumnType::Int),
            ("lot", ColumnType::Float),
            ("tie", ColumnType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn empty_table_partitions_into_no_clusters() {
        let table = Table::new(partition_schema());
        for (cluster, sequence) in KEY_SHAPES {
            assert!(table.cluster_by(cluster, sequence).unwrap().is_empty());
            assert_partitions_like_the_reference(&table, cluster, sequence);
        }
    }

    #[test]
    fn equal_int_and_float_keys_share_a_cluster_named_by_its_first_row() {
        let mut table = Table::new(partition_schema());
        for (lot, seq) in [
            (Value::Float(10.0), 2),
            (Value::Int(3), 1),
            (Value::Int(10), 1),
            (Value::Float(3.0), 0),
        ] {
            table
                .push_row(vec![Value::Null, Value::Int(seq), lot, Value::Int(0)])
                .unwrap();
        }
        let clusters = table.cluster_by(&["lot"], &["seq"]).unwrap();
        let spelled: Vec<String> = clusters.iter().map(|c| format!("{:?}", c.key())).collect();
        assert_eq!(spelled, ["[Int(3)]", "[Float(10.0)]"]);
        assert_eq!(table_indices(&clusters[0]), vec![3, 1]);
        assert_eq!(table_indices(&clusters[1]), vec![2, 0]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A generated row: symbol (3 = NULL), sequence number (few values,
        /// so ties are common; 4 = NULL), lot spelling, tie-breaker.
        type RowSpec = (u8, u8, u8, u8);

        fn build(specs: &[RowSpec]) -> Table {
            let mut table = Table::new(partition_schema());
            for &(sym, seq, lot, tie) in specs {
                let sym = match sym {
                    3 => Value::Null,
                    s => Value::Str(format!("S{s}")),
                };
                let seq = match seq {
                    4 => Value::Null,
                    s => Value::Int(i64::from(s)),
                };
                // Two spellings each of 1 and 2, plus a value between and NULL.
                let lot = match lot {
                    0 => Value::Null,
                    1 => Value::Int(1),
                    2 => Value::Float(1.0),
                    3 => Value::Float(1.5),
                    4 => Value::Int(2),
                    _ => Value::Float(2.0),
                };
                table
                    .push_row(vec![sym, seq, lot, Value::Int(i64::from(tie))])
                    .unwrap();
            }
            table
        }

        proptest! {
            /// The single-pass partition equals the reference for every key
            /// shape over four storage layouts of the same rows: as
            /// generated (interleaved, unsorted), sequence-sorted but
            /// interleaved, clustered but unsorted within clusters, and
            /// clustered and sorted (where no lookup after a cluster's
            /// first row and no sort happens at all).
            #[test]
            fn cluster_by_equals_the_reference_partition(
                specs in proptest::collection::vec((0u8..4, 0u8..5, 0u8..6, 0u8..3), 0..48),
                layout in 0u8..4,
            ) {
                let mut specs: Vec<RowSpec> = specs;
                match layout {
                    0 => {}
                    1 => specs.sort_by_key(|&(_, seq, _, tie)| (seq, tie)),
                    2 => specs.sort_by_key(|&(sym, _, lot, _)| (sym, lot)),
                    _ => specs.sort(),
                }
                let table = build(&specs);
                for (cluster, sequence) in KEY_SHAPES {
                    assert_partitions_like_the_reference(&table, cluster, sequence);
                }
            }
        }
    }
}
