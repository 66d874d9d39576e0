#![warn(missing_docs)]

//! A minimal in-memory relational substrate for SQL-TS.
//!
//! The paper (§2) views *sorted relations as sequences*: rows are grouped
//! by the `CLUSTER BY` attributes (each group processed as a separate
//! stream) and ordered within each group by the `SEQUENCE BY` attributes.
//! This crate provides exactly the storage and partitioning machinery that
//! view needs — nothing more:
//!
//! * [`Value`], [`ColumnType`] — a small dynamic value model (integers,
//!   floats, strings, dates, null);
//! * [`Date`] — a proleptic-Gregorian calendar date stored as a day number,
//!   so `SEQUENCE BY date` is a plain integer sort;
//! * [`Schema`], [`Table`] — tables stored as one cell buffer (row after
//!   row), with schema validation;
//! * CSV import/export (the DJIA workloads and the examples ship as CSV);
//! * [`Table::cluster_by`] — the `CLUSTER BY` + `SEQUENCE BY` pipeline,
//!   producing [`Cluster`] views whose row order is the stream order the
//!   pattern engines consume;
//! * [`RowKey`] — a row's key columns compared in place, which is how the
//!   pipeline (and a streaming session admitting one tuple at a time)
//!   finds a row's cluster without building a key per row.

mod csv;
mod date;
#[cfg(feature = "failpoints")]
pub mod failpoints;
mod table;
mod value;

pub use csv::{parse_headerless_row, CsvError, CsvRecords};
pub use date::Date;
pub use table::{Cluster, Column, RowKey, Schema, Table, TableError};
pub use value::{ColumnType, Value};
