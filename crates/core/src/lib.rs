#![warn(missing_docs)]

//! The **OPS** (Optimized Pattern Search) optimizer and pattern-search
//! engines of *Optimization of Sequence Queries in Database Systems*
//! (Sadri, Zaniolo, Zarkesh, Adibi — PODS 2001).
//!
//! OPS generalizes the Knuth–Morris–Pratt string-search algorithm from
//! constant-equality patterns to SQL-TS patterns whose elements are
//! arbitrary predicate conjunctions, possibly starred (greedy one-or-more
//! repetition).  At query-compile time it derives:
//!
//! * the pairwise **precondition matrices** θ and φ over three-valued
//!   logic (§4.2) — [`matrices`];
//! * the **implication graph** `G_P` and its per-failure variants
//!   `G_P^j`, from which the `shift` / `next` arrays are derived by
//!   reachability and deterministic-path walking (§5.1) — [`stargraph`];
//!   on a star-free pattern this yields exactly the arrays §4.2 reads off
//!   the whole-pattern matrix **S** ([`shift_next`], kept for `--explain`);
//!
//! and at run time executes the search without re-reading input tuples the
//! compile-time analysis already accounts for — [`engine`].  The paper's
//! cost metric (number of times an input element is tested against a
//! pattern element) is tracked by [`counters::EvalCounter`]; the search
//! trajectories of Figure 5 are recorded by [`counters::SearchTrace`].
//!
//! ```
//! use sqlts_core::{execute_query, EngineKind, ExecOptions};
//! use sqlts_relation::{ColumnType, Schema, Table};
//!
//! let schema = Schema::new([
//!     ("name", ColumnType::Str),
//!     ("date", ColumnType::Date),
//!     ("price", ColumnType::Float),
//! ]).unwrap();
//! let csv = "name,date,price\n\
//!            IBM,1999-01-25,55\nIBM,1999-01-26,50\nIBM,1999-01-27,45\n\
//!            IBM,1999-01-28,57\nIBM,1999-01-29,54\n";
//! let table = Table::from_csv_str(schema, csv).unwrap();
//!
//! // Falling-then-rising: one period of drops, then a rise.
//! let result = execute_query(
//!     "SELECT FIRST(Y).date AS from_date, Z.date AS to_date \
//!      FROM quote CLUSTER BY name SEQUENCE BY date AS (*Y, Z) \
//!      WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price",
//!     &table,
//!     &ExecOptions { engine: EngineKind::Ops, ..Default::default() },
//! ).unwrap();
//! assert_eq!(result.table.len(), 1);
//! ```

pub mod counters;
pub mod engine;
pub mod executor;
pub mod explain;
pub mod governor;
pub mod kmp;
pub mod matrices;
pub mod multiplex;
pub mod patternset;
pub mod persist;
pub mod setstream;
pub mod shift_next;
pub mod stargraph;
pub mod stream;

/// Deterministic fault injection (compiled only under
/// `--features failpoints`): named sites in the engine, executor and CSV
/// ingest paths that tests configure to panic, delay, inject errors or
/// exhaust budgets.  See [`sqlts_relation::failpoints`].
#[cfg(feature = "failpoints")]
pub mod failpoints {
    pub use sqlts_relation::failpoints::*;
}

pub use counters::{EvalCounter, SearchTrace};
pub use engine::{find_matches, EngineKind, MatchSpans, SearchOptions};
pub use executor::{
    execute, execute_query, ClusterFailure, ExecError, ExecOptions, Instrument, QueryResult,
    SearchStats,
};
pub use explain::{explain, optimizer_report};
pub use governor::{Governor, Trip, TripReason};
pub use matrices::{PrecondMatrices, Predicates};
pub use multiplex::{
    FinishReport, SessionStatus, SessionWorker, SessionWorkerConfig, SharedSpec, WorkerError,
    WorkerGroup,
};
pub use patternset::{SetRegistry, SharedJoin};
pub use persist::atomic_write;
pub use setstream::{SetFeedError, SharedStreamSession};
pub use shift_next::ShiftNext;
pub use stargraph::star_shift_next;
pub use stream::{
    BadTuple, BadTuplePolicy, SessionCheckpoint, StreamError, StreamOptions, StreamSession,
};

// Re-export the compiler front end so downstream users need one crate.
pub use sqlts_lang::{compile, CompileOptions, CompiledQuery, FirstTuplePolicy};

/// Re-export of the instrumentation crate: profiles, metrics registries,
/// trace events and their exporters.
pub use sqlts_trace as trace;
pub use sqlts_trace::{ExecutionProfile, PatternSetStats, TraceEvent};
