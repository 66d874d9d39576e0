#![warn(missing_docs)]

//! `sqlts-trace` — execution tracing, metrics registry and
//! machine-readable profiling for the SQL-TS query pipeline.
//!
//! The paper evaluates OPS by a single number (predicate tests, §7) and
//! explains *why* OPS wins with the element-by-element search traces of
//! Figure 5.  This crate provides the runtime artifacts both of those
//! need, with **zero external dependencies** (no `tracing` crate; the
//! build environment has no registry access, so everything here is plain
//! std, in the spirit of the vendored shims under `vendor/`):
//!
//! * [`TraceEvent`] — Figure-5-style search events (`Advance`, `Fail`,
//!   `Shift`, `Next`, `MatchEmitted`, `GovernorTrip`) recorded into a
//!   bounded [`RingBuffer`], so a query's search can be replayed and
//!   asserted in tests;
//! * [`ClusterRecorder`] / [`ClusterMetrics`] — the per-cluster metrics
//!   registry: predicate tests per pattern position, shift-distance and
//!   backtrack-depth [`BoundedHistogram`]s, matches retained, governor
//!   credit flushes and trip causes.  Each cluster records privately (no
//!   atomics in the hot path) and the recorders are merged **in cluster
//!   order**, exactly like the engines' `EvalCounter` totals, so every
//!   derived number and the merged event stream are identical for every
//!   thread count;
//! * [`ExecutionProfile`] — the merged, machine-readable report: totals,
//!   per-cluster breakdowns, per-phase wall clock ([`PhaseNanos`]), the
//!   folded optimizer report ([`OptimizerReport`]), with exporters for
//!   human text ([`ExecutionProfile::to_text`]), a JSON object
//!   ([`ExecutionProfile::to_json`]), JSON-lines event streams
//!   ([`ExecutionProfile::events_jsonl`]) and Prometheus text exposition
//!   ([`ExecutionProfile::to_prometheus`]);
//! * [`Exposition`] — the one Prometheus text-exposition writer (`# HELP`
//!   / `# TYPE` once per name per document, label joining and escaping,
//!   the histogram shape).  [`ExecutionProfile::write_prometheus`],
//!   [`PatternSetStats::write_prometheus`] and the server's `/metrics`
//!   tables all walk through it, so several families share one document;
//! * [`PatternSetStats`] — the set-level counters of a shared pattern-set
//!   execution, with the same three views.
//!
//! The crate is deliberately inert: it never spawns threads, and — with
//! one documented exception — never reads clocks; the query engine
//! decides when (and whether) to record.  When nothing is armed, none of
//! these types are even constructed.  The exception is [`SpanLog`], the
//! structured span log the server arms under `--log`: wall-time
//! attribution is its entire purpose, so it timestamps every record
//! against a monotonic epoch.  Spans observe and never steer — query
//! output is bit-identical whether a `SpanLog` exists or not.

mod event;
mod expo;
mod metrics;
mod profile;
mod setstats;
mod span;

pub use event::{RingBuffer, TraceEvent, TripCause};
pub use expo::{Exposition, Kind};
pub use metrics::{BoundedHistogram, ClusterMetrics, ClusterRecorder, HIST_BUCKETS};
pub use profile::{json_escape, ClusterProfile, ExecutionProfile, OptimizerReport, PhaseNanos};
pub use setstats::PatternSetStats;
pub use span::{Level, SpanLog};
