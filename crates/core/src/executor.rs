//! End-to-end query execution: compile → cluster → search → project.

use crate::counters::EvalCounter;
use crate::engine::{plan_for, search_cluster, EngineKind, SearchOptions, SearchPlan};
use crate::governor::{Governor, RunGovernor, Trip};
use crate::patternset::SharedEvalHandle;
use sqlts_lang::{
    compile, eval_projection, Bindings, CompileOptions, CompiledQuery, EvalCtx, FirstTuplePolicy,
    LangError,
};
use sqlts_relation::{Cluster, Schema, Table, TableError, Value};
use sqlts_trace::{ClusterProfile, ClusterRecorder, ExecutionProfile, PhaseNanos, TraceEvent};
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Options for [`execute`] / [`execute_query`].
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Which engine to run.
    pub engine: EngineKind,
    /// Out-of-range `previous` semantics.
    pub policy: FirstTuplePolicy,
    /// Compiler options (the positive-domain assumption).
    pub compile: CompileOptions,
    /// Worker threads for cluster-parallel execution.
    ///
    /// `CLUSTER BY` partitions are independent streams, so the search plan
    /// is compiled once and clusters are fanned out over a scoped worker
    /// pool.  Results are merged back in cluster order with per-cluster
    /// predicate-test counts summed deterministically, so the output table
    /// and every [`SearchStats`] field are identical for every thread
    /// count.  `1` (the default) runs the sequential path inline.
    pub threads: NonZeroUsize,
    /// Resource limits for this query (wall-clock deadline, step and
    /// match budgets).  The default is
    /// [`Governor::unlimited`], which keeps execution bit-identical to an
    /// ungoverned engine; when any limit trips, [`execute`] returns
    /// [`ExecError::Governed`] carrying the partial result.
    pub governor: Governor,
    /// What instrumentation to arm (metrics registry, trace events).  The
    /// default arms nothing: the engines then pay one predictable branch
    /// per hook and outputs stay bit-identical to an uninstrumented
    /// build.  When armed, [`QueryResult::profile`] carries the merged
    /// [`ExecutionProfile`].
    pub instrument: Instrument,
}

/// Which instrumentation to arm for a run (see the `sqlts-trace` crate).
///
/// Per-cluster recorders are merged **in cluster order** — the same
/// deterministic merge applied to `EvalCounter` totals — so everything in
/// the resulting profile except wall-clock phase timings is identical at
/// every thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instrument {
    /// Collect the per-cluster metrics registry and assemble an
    /// [`ExecutionProfile`] on the result.
    pub profile: bool,
    /// Additionally retain the Figure-5 event stream per cluster (implies
    /// the profile).
    pub trace: bool,
    /// Per-cluster ring-buffer capacity for retained events (only used
    /// when `trace` is set).
    pub trace_capacity: usize,
}

impl Instrument {
    /// Default per-cluster event capacity for `--trace`.
    pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

    /// Arm nothing (the default): unmeasurable overhead, no profile.
    pub fn none() -> Instrument {
        Instrument {
            profile: false,
            trace: false,
            trace_capacity: Self::DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Arm the metrics registry only (no event retention).
    pub fn profiling() -> Instrument {
        Instrument {
            profile: true,
            ..Instrument::none()
        }
    }

    /// Arm metrics and the bounded event recorder.
    pub fn tracing() -> Instrument {
        Instrument {
            profile: true,
            trace: true,
            ..Instrument::none()
        }
    }

    /// Is any instrumentation armed?
    pub fn armed(&self) -> bool {
        self.profile || self.trace
    }

    /// The event-retention capacity to arm per cluster (0 = metrics only).
    pub(crate) fn capacity(&self) -> usize {
        if self.trace {
            self.trace_capacity
        } else {
            0
        }
    }
}

impl Default for Instrument {
    fn default() -> Self {
        Instrument::none()
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            engine: EngineKind::default(),
            policy: FirstTuplePolicy::default(),
            compile: CompileOptions::default(),
            threads: NonZeroUsize::MIN,
            governor: Governor::unlimited(),
            instrument: Instrument::none(),
        }
    }
}

/// Execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// The paper's metric: predicate tests performed.
    pub predicate_tests: u64,
    /// Number of matches found.
    pub matches: u64,
    /// Number of clusters scanned.
    pub clusters: u64,
    /// Total input tuples scanned.
    pub tuples: u64,
    /// Governor budget units consumed — the denomination of
    /// [`Governor::with_max_steps`] and the CLI's `--max-steps`.
    /// Currently one unit per predicate test, so this equals
    /// `predicate_tests`; it is reported separately so budget accounting
    /// stays visible if the metering unit ever broadens.  Deterministic
    /// across thread counts.
    pub steps: u64,
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} matches, {} predicate tests over {} tuples in {} clusters",
            self.matches, self.predicate_tests, self.tuples, self.clusters
        )
    }
}

/// One cluster that failed (panicked) during execution while the others
/// completed — the partial-failure side channel of [`QueryResult`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterFailure {
    /// 0-based index of the cluster in `CLUSTER BY` order.
    pub cluster: usize,
    /// The cluster's key values rendered for diagnostics (empty when the
    /// query has no `CLUSTER BY`).
    pub key: String,
    /// The panic payload, as text.
    pub cause: String,
}

impl fmt::Display for ClusterFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.key.is_empty() {
            write!(f, "cluster {} failed: {}", self.cluster, self.cause)
        } else {
            write!(
                f,
                "cluster {} ({}) failed: {}",
                self.cluster, self.key, self.cause
            )
        }
    }
}

/// The result of executing a query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The output table (one row per match, per the `SELECT` list).
    pub table: Table,
    /// Execution statistics.
    pub stats: SearchStats,
    /// Clusters that panicked while the rest completed.  Empty on a fully
    /// successful run; when non-empty, `table` holds the matches of every
    /// surviving cluster (still in cluster order) and each entry here
    /// describes one isolated failure.
    pub partial: Vec<ClusterFailure>,
    /// The machine-readable execution profile, present when
    /// [`ExecOptions::instrument`] armed it.  Boxed: the common unarmed
    /// path carries only a null pointer.
    pub profile: Option<Box<ExecutionProfile>>,
}

impl QueryResult {
    /// `true` when every cluster completed (no isolated failures).
    pub fn is_complete(&self) -> bool {
        self.partial.is_empty()
    }
}

/// Errors from query execution.
#[derive(Debug)]
pub enum ExecError {
    /// Compilation failed.
    Lang(LangError),
    /// Table/schema problem (unknown cluster/sequence column, …).
    Table(TableError),
    /// The resource governor terminated the query (deadline or budget).
    /// `partial` carries everything completed before the
    /// trip: per cluster, a prefix of the matches the ungoverned run would
    /// have produced, merged in cluster order.
    Governed {
        /// What tripped and how much was consumed.
        trip: Trip,
        /// The partial result assembled at termination.
        partial: Box<QueryResult>,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Lang(e) => write!(f, "{e}"),
            ExecError::Table(e) => write!(f, "{e}"),
            ExecError::Governed { trip, partial } => write!(
                f,
                "query terminated by resource governor: {trip}; partial result: \
                 {} rows from {} clusters",
                partial.table.len(),
                partial.stats.clusters
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<LangError> for ExecError {
    fn from(e: LangError) -> Self {
        ExecError::Lang(e)
    }
}

impl From<TableError> for ExecError {
    fn from(e: TableError) -> Self {
        ExecError::Table(e)
    }
}

/// Compile and execute a SQL-TS query string against a table.
pub fn execute_query(
    src: &str,
    table: &Table,
    options: &ExecOptions,
) -> Result<QueryResult, ExecError> {
    if !options.instrument.armed() {
        let query = compile(src, table.schema(), &options.compile)?;
        return execute(&query, table, options);
    }
    // Profiled path: run parse and bind separately so each phase gets its
    // own wall-clock slice.
    let t = Instant::now();
    let ast = sqlts_lang::parse(src)?;
    let parse_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let query = sqlts_lang::compile_ast(&ast, table.schema(), &options.compile)?;
    let bind_ns = t.elapsed().as_nanos() as u64;
    let mut result = execute(&query, table, options);
    // Stamp the front-end timings onto the profile — including the one
    // travelling inside a governed partial result.
    let profile = match &mut result {
        Ok(r) => r.profile.as_deref_mut(),
        Err(ExecError::Governed { partial, .. }) => partial.profile.as_deref_mut(),
        Err(_) => None,
    };
    if let Some(p) = profile {
        p.phases.parse = parse_ns;
        p.phases.bind = bind_ns;
    }
    result
}

/// Build the output schema for a compiled query's projection, with
/// positional disambiguation of duplicate output names.
pub(crate) fn output_schema(query: &CompiledQuery) -> Result<Schema, TableError> {
    Schema::new(
        query
            .projection
            .iter()
            .enumerate()
            .map(|(i, p)| {
                // Disambiguate duplicate output names positionally.
                let name = if query.projection[..i].iter().any(|q| q.name == p.name) {
                    format!("{}_{}", p.name, i + 1)
                } else {
                    p.name.clone()
                };
                (name, p.ty)
            })
            .collect::<Vec<_>>(),
    )
}

/// One query's share of a run — everything set up before the first tuple
/// is tested: the output schema, the search plan and the armed governor.
/// The query itself stays with the caller: a batch run borrows it, a
/// streaming session owns it through an `Arc`.
pub(crate) struct Member {
    schema: Schema,
    pub(crate) search_plan: Option<SearchPlan>,
    plan_ns: u64,
    pub(crate) run: Option<Arc<RunGovernor>>,
    pattern_len: usize,
    instrument: Instrument,
}

impl Member {
    pub(crate) fn prepare(
        query: &CompiledQuery,
        options: &ExecOptions,
    ) -> Result<Member, TableError> {
        let schema = output_schema(query)?;
        // Compile the search plan once, reuse across clusters.
        let t_plan = options.instrument.armed().then(Instant::now);
        let search_plan = plan_for(&query.elements, options.engine);
        let plan_ns = t_plan.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // Arm the governor only when some limit is actually set: the
        // ungoverned path stays bit-identical to a build without a governor.
        let run = (!options.governor.is_unlimited()).then(|| options.governor.begin());
        Ok(Member {
            schema,
            search_plan,
            plan_ns,
            run,
            pattern_len: query.elements.len(),
            instrument: options.instrument,
        })
    }

    /// A fresh private counter for one cluster of this member, carrying
    /// `recorder` (a restored one) or, when instrumentation is armed, a new
    /// one.  The construction order is fixed — governed scope (whose
    /// initial refill must precede the recorder), then the recorder, then
    /// the shared memo handle — so flush timing is identical wherever a
    /// counter is built.
    pub(crate) fn counter(
        &self,
        recorder: Option<ClusterRecorder>,
        shared: Option<SharedEvalHandle>,
    ) -> EvalCounter {
        let mut counter = match &self.run {
            Some(run) => EvalCounter::governed(run.scope()),
            None => EvalCounter::new(),
        };
        let armed = self.instrument.armed();
        let fresh = || ClusterRecorder::new(self.pattern_len, self.instrument.capacity());
        if let Some(recorder) = recorder.or_else(|| armed.then(fresh)) {
            counter = counter.with_recorder(recorder);
        }
        match shared {
            Some(handle) => counter.with_shared(handle),
            None => counter,
        }
    }
}

/// Execute an already-compiled query against a table: the only batch
/// cluster loop.  The table is partitioned once, the clusters are searched
/// (inline, or over [`ExecOptions::threads`] workers) and their runs are
/// folded in cluster order by the merge streamed sessions also use.
pub fn execute(
    query: &CompiledQuery,
    table: &Table,
    options: &ExecOptions,
) -> Result<QueryResult, ExecError> {
    let cluster_cols: Vec<&str> = query.cluster_by.iter().map(String::as_str).collect();
    let sequence_cols: Vec<&str> = query.sequence_by.iter().map(String::as_str).collect();
    let mut phases = PhaseNanos::default();
    let t_partition = options.instrument.armed().then(Instant::now);
    let clusters = table.cluster_by(&cluster_cols, &sequence_cols)?;
    phases.partition = t_partition.map_or(0, |t| t.elapsed().as_nanos() as u64);
    let member = Member::prepare(query, options)?;
    let job = BatchJob {
        query,
        member: &member,
        clusters: &clusters,
        options,
    };
    let t_exec = options.instrument.armed().then(Instant::now);
    let runs = job.run();
    phases.execute = t_exec.map_or(0, |t| t.elapsed().as_nanos() as u64);
    let keyed = clusters.iter().map(Cluster::key).zip(runs).collect();
    match merge_clusters(&member, query, options, phases, keyed)? {
        (result, None) => Ok(result),
        (partial, Some(trip)) => Err(ExecError::Governed {
            trip,
            partial: Box::new(partial),
        }),
    }
}

/// Fold one member's per-cluster runs, **in cluster order**, into its
/// [`QueryResult`]: output rows, summed counters and profile clusters land
/// exactly where a sequential loop would put them, for any thread count.
/// This is the only cluster-outcome merge — batch and streamed runs both
/// end here — and the governor's trip, if any, is handed back beside the
/// (then partial) result for the caller to wrap in its own error type.
/// `phases` carries the caller's `partition` and `execute` wall clock
/// (both 0 for a streamed run, which has no such phases).
pub(crate) fn merge_clusters<K: AsRef<[Value]>>(
    member: &Member,
    query: &CompiledQuery,
    options: &ExecOptions,
    phases: PhaseNanos,
    runs: Vec<(K, ClusterRun)>,
) -> Result<(QueryResult, Option<Trip>), TableError> {
    // Every projected row is in hand, so the output is sized once.
    let rows = runs
        .iter()
        .map(|(_, run)| match run {
            ClusterRun::Done(outcome) => outcome.rows.len(),
            _ => 0,
        })
        .sum();
    let mut table = Table::with_capacity(member.schema.clone(), rows);
    let mut stats = SearchStats::default();
    let mut partial = Vec::new();
    let mut profile = options.instrument.armed().then(|| {
        Box::new(ExecutionProfile::new(
            options.engine.name(),
            options.threads.get(),
        ))
    });
    for (idx, (key, run)) in runs.into_iter().enumerate() {
        match run {
            ClusterRun::Done(outcome) => {
                stats.clusters += 1;
                stats.tuples += outcome.tuples;
                stats.predicate_tests += outcome.predicate_tests;
                stats.steps += outcome.predicate_tests;
                if let (Some(profile), Some(recorder)) = (profile.as_deref_mut(), outcome.recorder)
                {
                    let recorder = *recorder;
                    let events_dropped = recorder.events.dropped();
                    profile.push_cluster(ClusterProfile {
                        index: idx,
                        key: render_key(key.as_ref()),
                        tuples: outcome.tuples,
                        metrics: recorder.metrics,
                        events: recorder.events.into_events(),
                        events_dropped,
                    });
                }
                for row in outcome.rows {
                    stats.matches += 1;
                    table.push_row(row)?;
                }
            }
            // A cluster skipped because the governor had already tripped
            // contributes nothing: it was never scanned.
            ClusterRun::Skipped => {}
            ClusterRun::Failed { cause } => partial.push(ClusterFailure {
                cluster: idx,
                key: render_key(key.as_ref()),
                cause,
            }),
        }
    }
    if let Some(profile) = profile.as_deref_mut() {
        profile.phases = PhaseNanos {
            plan: member.plan_ns,
            ..phases
        };
        profile.optimizer = Some(crate::explain::optimizer_report(query));
    }
    let result = QueryResult {
        table,
        stats,
        partial,
        profile,
    };
    Ok((result, member.run.as_ref().and_then(|run| run.trip())))
}

/// What one cluster's search produced: projected rows in match order plus
/// the per-cluster slices of the execution stats.
pub(crate) struct ClusterOutcome {
    tuples: u64,
    predicate_tests: u64,
    rows: Vec<Vec<Value>>,
    /// The armed trace/metrics recorder, handed back for the cluster-order
    /// profile merge (`None` when instrumentation was off).  Boxed so the
    /// common unarmed outcome stays small.
    recorder: Option<Box<ClusterRecorder>>,
}

impl ClusterOutcome {
    /// Close a cluster's books: flush the counter's last partially-spent
    /// credit batch so the governor's consumed-step accounting is exact,
    /// stamp a governor trip onto the armed trace, and take the totals.
    pub(crate) fn close(
        counter: EvalCounter,
        run: Option<&Arc<RunGovernor>>,
        tuples: u64,
        rows: Vec<Vec<Value>>,
    ) -> ClusterOutcome {
        counter.finish();
        if counter.armed() && counter.tripped() {
            if let Some(trip) = run.and_then(|r| r.trip()) {
                counter.emit(TraceEvent::GovernorTrip {
                    cause: trip.reason.trace_cause(),
                });
            }
        }
        ClusterOutcome {
            tuples,
            predicate_tests: counter.total(),
            rows,
            recorder: counter.into_recorder().map(Box::new),
        }
    }
}

/// Render a cluster's key values for diagnostics and profiles (empty when
/// the query has no `CLUSTER BY`).
pub(crate) fn render_key(key: &[Value]) -> String {
    key.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// How one cluster's unit of work ended.
pub(crate) enum ClusterRun {
    /// Scanned to completion (possibly cut short by a governor trip — the
    /// rows are then a prefix of the ungoverned output).
    Done(ClusterOutcome),
    /// Never scanned: the governor had already tripped when this cluster
    /// came up.
    Skipped,
    /// The search panicked; the panic was contained and the other clusters
    /// kept running.
    Failed {
        /// The panic payload, as text.
        cause: String,
    },
}

/// Render a caught panic payload for diagnostics.
pub(crate) fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One batch run's fixed inputs, shared by every worker.
struct BatchJob<'a> {
    query: &'a CompiledQuery,
    member: &'a Member,
    clusters: &'a [Cluster<'a>],
    options: &'a ExecOptions,
}

impl BatchJob<'_> {
    /// Scan every cluster — inline, or fanned out over a scoped worker
    /// pool — and return the runs in cluster order.
    ///
    /// Workers pull cluster indices from a shared atomic cursor (dynamic
    /// load balancing: cluster sizes are often skewed) and deposit each
    /// run into that cluster's dedicated slot, so the order is the same
    /// regardless of which worker finished when.  A panicking cluster
    /// never unwinds through the pool ([`BatchJob::run_cluster`]'s barrier
    /// contains it).
    fn run(&self) -> Vec<ClusterRun> {
        let worker_count = self.options.threads.get().min(self.clusters.len());
        if worker_count <= 1 {
            return (0..self.clusters.len())
                .map(|idx| self.run_cluster(idx))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ClusterRun>>> =
            self.clusters.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..worker_count {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                    if idx >= self.clusters.len() {
                        break;
                    }
                    *slots[idx].lock().expect("slot lock") = Some(self.run_cluster(idx));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("worker pool processed every cluster")
            })
            .collect()
    }

    /// The unit of work: one cluster, behind the governor's trip check
    /// and a panic barrier.
    ///
    /// Once the governor has tripped the remaining clusters come back
    /// [`ClusterRun::Skipped`].  `catch_unwind` isolates a poisoned
    /// cluster (bad data tripping a debug assertion, an injected
    /// failpoint, …) so the remaining clusters still produce their
    /// matches; the failure is reported structurally via
    /// [`QueryResult::partial`] instead of tearing down the whole query.
    fn run_cluster(&self, idx: usize) -> ClusterRun {
        if self.member.run.as_ref().is_some_and(|run| run.is_tripped()) {
            return ClusterRun::Skipped;
        }
        match catch_unwind(AssertUnwindSafe(|| self.search(idx))) {
            Ok(outcome) => ClusterRun::Done(outcome),
            Err(payload) => ClusterRun::Failed {
                cause: panic_cause(payload),
            },
        }
    }

    /// Search a single cluster and project its matches.
    ///
    /// The private per-cluster [`EvalCounter`] makes this independent of
    /// every other cluster, and counter totals are additive, so summing
    /// them in cluster order reproduces the single-counter sequential
    /// total bit for bit.
    fn search(&self, idx: usize) -> ClusterOutcome {
        #[cfg(feature = "failpoints")]
        sqlts_relation::failpoints::hit("executor::cluster", idx as u64);
        let (query, member, cluster) = (self.query, self.member, &self.clusters[idx]);
        let search_options = SearchOptions {
            policy: self.options.policy,
        };
        let counter = member.counter(None, None);
        let matches = search_cluster(
            &query.elements,
            cluster,
            self.options.engine,
            member.search_plan.as_ref(),
            &search_options,
            &counter,
        );
        let ctx = EvalCtx {
            cluster,
            policy: search_options.policy,
        };
        let rows = matches
            .into_iter()
            .map(|m| {
                let bindings = Bindings { spans: m.spans };
                eval_projection(&query.projection, &ctx, &bindings)
            })
            .collect();
        ClusterOutcome::close(counter, member.run.as_ref(), cluster.len() as u64, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_relation::{ColumnType, Value};

    fn quote_table() -> Table {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap();
        // Two stocks interleaved; BBB has an up-15%-down-20% pattern.
        let csv = "name,date,price\n\
            AAA,1999-01-01,50\n\
            BBB,1999-01-01,10\n\
            AAA,1999-01-02,51\n\
            BBB,1999-01-02,12\n\
            AAA,1999-01-03,52\n\
            BBB,1999-01-03,9\n";
        Table::from_csv_str(schema, csv).unwrap()
    }

    #[test]
    fn example1_end_to_end() {
        let result = execute_query(
            "SELECT X.name, Y.price AS peak FROM quote \
             CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) \
             WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price",
            &quote_table(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(result.table.len(), 1);
        assert_eq!(result.table.cell(0, 0), &Value::from("BBB"));
        assert_eq!(result.table.cell(0, 1), &Value::from(12.0));
        assert_eq!(result.stats.matches, 1);
        assert_eq!(result.stats.clusters, 2);
        assert_eq!(result.stats.tuples, 6);
        assert!(result.stats.predicate_tests > 0);
    }

    #[test]
    fn clusters_are_independent() {
        // A pattern spanning the last AAA row and the first BBB row must
        // not match: clusters are separate streams.
        let result = execute_query(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE X.price > 50 AND Y.price < 10",
            &quote_table(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(result.table.len(), 0);
    }

    #[test]
    fn engines_agree_end_to_end() {
        let src = "SELECT X.name, FIRST(Y).date AS from_d, LAST(Y).date AS to_d \
                   FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y) \
                   WHERE Y.price > Y.previous.price";
        let table = quote_table();
        let mut outputs = Vec::new();
        for engine in [EngineKind::Naive, EngineKind::Ops, EngineKind::OpsShiftOnly] {
            let r = execute_query(
                src,
                &table,
                &ExecOptions {
                    engine,
                    ..Default::default()
                },
            )
            .unwrap();
            outputs.push(r.table);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn duplicate_projection_names_are_disambiguated() {
        let result = execute_query(
            "SELECT X.price, Y.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
            &quote_table(),
            &ExecOptions::default(),
        )
        .unwrap();
        let names: Vec<&str> = result
            .table
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["price", "price_2"]);
    }

    #[test]
    fn compile_errors_surface() {
        let err = execute_query(
            "SELECT X.nope FROM quote CLUSTER BY name SEQUENCE BY date AS (X)",
            &quote_table(),
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Lang(_)));
        assert!(err.to_string().contains("no such column"));
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        // Output rows, row order, and every stats field must match the
        // sequential run for any thread count — including more workers
        // than clusters.
        let table = quote_table();
        let queries = [
            "SELECT X.name, Y.price AS peak FROM quote \
             CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) \
             WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price",
            "SELECT X.name, FIRST(Y).date AS from_d FROM quote \
             CLUSTER BY name SEQUENCE BY date AS (X, *Y) \
             WHERE Y.price > Y.previous.price",
        ];
        for src in queries {
            for engine in [
                EngineKind::Naive,
                EngineKind::NaiveBacktrack,
                EngineKind::Ops,
                EngineKind::OpsShiftOnly,
            ] {
                let opts = |threads: usize| ExecOptions {
                    engine,
                    threads: NonZeroUsize::new(threads).unwrap(),
                    ..Default::default()
                };
                let seq = execute_query(src, &table, &opts(1)).unwrap();
                for threads in [2, 4, 16] {
                    let par = execute_query(src, &table, &opts(threads)).unwrap();
                    assert_eq!(par.table, seq.table, "{engine:?} threads={threads}");
                    assert_eq!(par.stats, seq.stats, "{engine:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn stats_display() {
        let s = SearchStats {
            predicate_tests: 10,
            matches: 2,
            clusters: 1,
            tuples: 5,
            steps: 10,
        };
        assert_eq!(
            s.to_string(),
            "2 matches, 10 predicate tests over 5 tuples in 1 clusters"
        );
    }

    #[test]
    fn unlimited_governor_result_is_complete() {
        let result = execute_query(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
            &quote_table(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(result.is_complete());
        assert_eq!(result.stats.steps, result.stats.predicate_tests);
    }

    #[test]
    fn step_budget_returns_governed_error_with_partial_prefix() {
        use crate::governor::TripReason;
        let table = quote_table();
        let src = "SELECT X.name, Y.price AS p FROM quote \
                   CLUSTER BY name SEQUENCE BY date AS (X, Y) \
                   WHERE Y.price > X.price";
        let full = execute_query(src, &table, &ExecOptions::default()).unwrap();
        assert!(full.table.len() > 1, "need several matches to truncate");
        // A one-step budget trips during the very first cluster.
        let err = execute_query(
            src,
            &table,
            &ExecOptions {
                governor: Governor::unlimited().with_max_steps(1),
                ..Default::default()
            },
        )
        .unwrap_err();
        let ExecError::Governed { trip, partial } = err else {
            panic!("expected governed termination");
        };
        assert_eq!(trip.reason, TripReason::StepBudget);
        assert!(partial.table.len() < full.table.len());
        // Prefix consistency: every partial row appears in the full output
        // at the same position.
        for (i, row) in partial.table.rows().enumerate() {
            assert_eq!(row, full.table.row(i));
        }
        assert!(trip.steps >= 1);
    }

    #[test]
    fn match_budget_truncates_output() {
        use crate::governor::TripReason;
        let table = quote_table();
        let src = "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
                   WHERE Y.price <> X.price";
        let full = execute_query(src, &table, &ExecOptions::default()).unwrap();
        assert!(full.table.len() >= 2);
        let err = execute_query(
            src,
            &table,
            &ExecOptions {
                governor: Governor::unlimited().with_max_matches(1),
                ..Default::default()
            },
        )
        .unwrap_err();
        let ExecError::Governed { trip, partial } = err else {
            panic!("expected governed termination");
        };
        assert_eq!(trip.reason, TripReason::MatchBudget);
        assert_eq!(partial.table.len(), 1);
        assert_eq!(partial.table.row(0), full.table.row(0));
    }

    #[test]
    fn governed_run_without_trip_is_bit_identical() {
        // A generous budget never trips, so the governed run must be
        // indistinguishable from the ungoverned one at every thread count.
        let table = quote_table();
        let src = "SELECT X.name, Y.price AS p FROM quote \
                   CLUSTER BY name SEQUENCE BY date AS (X, *Y) \
                   WHERE Y.price > Y.previous.price";
        let plain = execute_query(src, &table, &ExecOptions::default()).unwrap();
        for threads in [1usize, 4] {
            let governed = execute_query(
                src,
                &table,
                &ExecOptions {
                    governor: Governor::unlimited()
                        .with_max_steps(1_000_000)
                        .with_timeout(std::time::Duration::from_secs(3600)),
                    threads: NonZeroUsize::new(threads).unwrap(),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(governed.table, plain.table, "threads={threads}");
            assert_eq!(governed.stats, plain.stats, "threads={threads}");
            assert!(governed.is_complete());
        }
    }

    #[test]
    fn expired_deadline_trips_before_work() {
        use crate::governor::TripReason;
        let err = execute_query(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
            &quote_table(),
            &ExecOptions {
                governor: Governor::unlimited().with_timeout(std::time::Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap_err();
        let ExecError::Governed { trip, .. } = err else {
            panic!("expected governed termination");
        };
        assert_eq!(trip.reason, TripReason::Deadline);
    }

    #[test]
    fn pre_tripped_run_stops_execution() {
        // A deadline that has passed before the query starts trips the
        // first check of every cluster, on the inline and the parallel
        // path alike: no predicate test runs and the partial is empty.
        use crate::governor::TripReason;
        for threads in [1usize, 4] {
            let err = execute_query(
                "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
                 WHERE Y.price > X.price",
                &quote_table(),
                &ExecOptions {
                    governor: Governor::unlimited().with_timeout(std::time::Duration::ZERO),
                    threads: NonZeroUsize::new(threads).unwrap(),
                    ..Default::default()
                },
            )
            .unwrap_err();
            let ExecError::Governed { trip, partial } = err else {
                panic!("expected governed termination");
            };
            assert_eq!(trip.reason, TripReason::Deadline, "threads={threads}");
            assert_eq!(trip.steps, 0, "threads={threads}");
            assert_eq!(partial.table.len(), 0, "threads={threads}");
        }
    }

    #[test]
    fn governed_error_display_mentions_partial() {
        let err = execute_query(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) \
             WHERE Y.price > X.price",
            &quote_table(),
            &ExecOptions {
                governor: Governor::unlimited().with_max_steps(1),
                ..Default::default()
            },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("resource governor"), "{msg}");
        assert!(msg.contains("partial result"), "{msg}");
    }

    #[test]
    fn cluster_failure_display() {
        let anon = ClusterFailure {
            cluster: 3,
            key: String::new(),
            cause: "boom".into(),
        };
        assert_eq!(anon.to_string(), "cluster 3 failed: boom");
        let keyed = ClusterFailure {
            cluster: 0,
            key: "IBM".into(),
            cause: "boom".into(),
        };
        assert_eq!(keyed.to_string(), "cluster 0 (IBM) failed: boom");
    }
}
