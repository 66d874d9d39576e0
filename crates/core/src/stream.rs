//! Resilient streaming execution: push-based [`StreamSession`]s.
//!
//! The batch executor ([`crate::executor::execute`]) needs the whole
//! relation up front.  A [`StreamSession`] instead accepts one tuple at a
//! time ([`StreamSession::feed`]) and drives the same resumable engine
//! machines ([`crate::engine::EngineMachine`]) incrementally, holding only
//! the bounded in-flight window each cluster still needs.  The central
//! invariant — enforced by the property suites — is **streamed equals
//! batch**: for every engine and policy, feeding a relation tuple by tuple
//! and then calling [`StreamSession::finish`] produces the same
//! [`QueryResult`] (rows, stats, and armed profile minus wall-clock
//! phases) as one batch `execute` over the same rows.  There is no
//! exception: no option trades output for memory.
//!
//! There is one session type, a `SessionGroup`, in two halves.
//! *Admission* (`Window`) decides what an arriving tuple is — schema
//! check, cluster key, order check — and appends it to its cluster's
//! window; it depends only on the input schema, the
//! `CLUSTER BY`/`SEQUENCE BY` columns, the bad-tuple policy and the tuples
//! seen.  A *member* (`MemberRun`) is one query's side, owning its query
//! through an `Arc`: per cluster a machine, a counter, pending matches,
//! projected rows and its own retention floor in the window.  A group is
//! one admission under numbered seats of members, so aligned members
//! (same admission inputs, nothing admitted yet when they meet) check,
//! key, order-check and store each tuple once, and each reads the shared
//! window from its own floor.  A [`StreamSession`] is the group of one;
//! every member of a larger group reads back byte for byte what it would
//! as a session of its own — rows, stats, profile, status, checkpoint.
//!
//! A group is fed a *frame* of tuples at a time, and [`StreamSession::feed`]
//! is a frame of one.  Admission takes the frame's tuples in order; a
//! member with a governor armed is driven after every tuple, so its trips
//! fall where they would, and every other member is driven once per frame
//! (and at least every `MAX_UNDRIVEN` tuples of a cluster), one advance per
//! cluster the frame touched.  The engines are online machines that
//! resume where they stopped, so a member driven over k tuples at once
//! stands where k one-tuple drives leave it, and everything observable at
//! a frame boundary — results, status, checkpoints — is the same however
//! the stream was cut into frames.
//!
//! Two resilience layers ride on top of the incremental core:
//!
//! * **Checkpoint/restore** — [`StreamSession::snapshot`] captures the
//!   complete session state (automaton positions, window buffers,
//!   counters, pending matches, emitted rows) as a [`SessionCheckpoint`];
//!   [`StreamSession::resume`] rebuilds a session that continues
//!   bit-identically to one that never stopped.  The checkpoint has a
//!   versioned text form ([`SessionCheckpoint::to_text`] /
//!   [`SessionCheckpoint::from_text`]) so a killed process can restart
//!   from a file without replaying history.
//! * **Input hardening** — malformed, unbindable, or out-of-order tuples
//!   never poison the session: per [`BadTuplePolicy`] they are skipped,
//!   surfaced as an error, or parked in a bounded quarantine with a
//!   [`BadTuple`] record mirroring the CSV reader's line-error context.
//!   A panic inside `feed` is contained by a `catch_unwind` barrier; the
//!   session latches [`StreamError::Poisoned`] and a previously saved
//!   checkpoint can resume from the last good boundary.

use crate::counters::EvalCounter;
use crate::engine::{
    EngineKind, EngineMachine, MatchSpans, SearchOptions, SearchPlan, StepInput, StepOutcome,
};
use crate::executor::{
    merge_clusters, panic_cause, render_key, ClusterOutcome, ClusterRun, ExecOptions, Member,
    QueryResult,
};
use crate::governor::{Trip, TripReason};
use sqlts_lang::{
    eval_projection, Bindings, BoolExpr, CompiledQuery, EvalCtx, FieldRef, ScalarExpr,
};
use sqlts_relation::{Cluster, Date, RowKey, Schema, Table, TableError, Value};
use sqlts_trace::{
    BoundedHistogram, ClusterMetrics, ClusterRecorder, PhaseNanos, RingBuffer, TraceEvent,
    TripCause, HIST_BUCKETS,
};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How many driven rows between shared-memo prunes (soft state, so the
/// exact cadence only trades memory for lock traffic).
const SHARED_PRUNE_INTERVAL: usize = 256;

/// How many rows of one cluster a frame admits before the members that
/// wait for the frame are driven over them: what a frame adds to a
/// cluster's window is bounded by this, not by the frame's length.
const MAX_UNDRIVEN: usize = 64;

/// What to do with a tuple that cannot be accepted (schema violation,
/// out-of-order `SEQUENCE BY` key, or an injected ingest fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BadTuplePolicy {
    /// Drop the tuple, count it in [`StreamSession::skipped`], continue.
    Skip,
    /// Surface [`StreamError::BadTuple`] to the caller (the default — bad
    /// input should be loud unless the operator opts out).
    #[default]
    Fail,
    /// Park up to `cap` bad tuples in the session's quarantine for later
    /// inspection; the `cap + 1`-th bad tuple surfaces
    /// [`StreamError::QuarantineFull`].
    Quarantine {
        /// Maximum quarantined tuples before the session refuses more.
        cap: usize,
    },
}

/// One rejected input tuple, with the same diagnostic shape as the CSV
/// reader's line errors: which record, why, and the rendered content.
#[derive(Clone, Debug, PartialEq)]
pub struct BadTuple {
    /// 1-based input record number (the session's feed count).
    pub record: u64,
    /// Why the tuple was rejected.
    pub reason: String,
    /// The tuple rendered as comma-separated values.
    pub rendered: String,
}

impl fmt::Display for BadTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record {}: {} ({})",
            self.record, self.reason, self.rendered
        )
    }
}

/// Options for a [`StreamSession`].
#[derive(Clone, Debug, Default)]
pub struct StreamOptions {
    /// The batch execution options the session mirrors (engine, policy,
    /// governor, instrumentation).  `threads` is accepted for parity but
    /// clusters are driven sequentially (results do not depend on the
    /// thread count anyway).
    pub exec: ExecOptions,
    /// What to do with unacceptable tuples.
    pub bad_tuple: BadTuplePolicy,
}

/// Errors surfaced by a [`StreamSession`].
#[derive(Debug)]
pub enum StreamError {
    /// The queries cannot be streamed together (none given, or members
    /// that read different input schemas).
    Unsupported(String),
    /// Table/schema problem (unknown cluster/sequence column, …).
    Table(TableError),
    /// A tuple was rejected under [`BadTuplePolicy::Fail`].
    BadTuple(BadTuple),
    /// The quarantine reached its cap; the offending tuple is returned.
    QuarantineFull {
        /// The configured quarantine capacity.
        cap: usize,
        /// The tuple that did not fit.
        tuple: BadTuple,
    },
    /// The resource governor terminated the session.  `partial` carries
    /// the assembled result when the error comes from
    /// [`StreamSession::finish`]; it is `None` from `feed` (take a
    /// checkpoint and resume, or call `finish` for the partial result).
    Governed {
        /// What tripped and how much was consumed.
        trip: Trip,
        /// The partial result, from `finish` only.
        partial: Option<Box<QueryResult>>,
    },
    /// A panic inside `feed` was contained; the session refuses further
    /// work.  Resume from the last checkpoint.
    Poisoned(String),
    /// A checkpoint could not be taken, parsed, or applied.
    Checkpoint(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Unsupported(what) => write!(f, "streaming unsupported: {what}"),
            StreamError::Table(e) => write!(f, "{e}"),
            StreamError::BadTuple(t) => write!(f, "bad tuple at {t}"),
            StreamError::QuarantineFull { cap, tuple } => {
                write!(f, "quarantine full (cap {cap}); rejected {tuple}")
            }
            StreamError::Governed { trip, .. } => {
                write!(f, "stream terminated by resource governor: {trip}")
            }
            StreamError::Poisoned(cause) => {
                write!(f, "session poisoned by contained panic: {cause}")
            }
            StreamError::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<TableError> for StreamError {
    fn from(e: TableError) -> Self {
        StreamError::Table(e)
    }
}

/// How far a query's predicates and projection reach around a tuple, in
/// physical stream positions.  Derived once per session by walking every
/// compiled expression for [`FieldRef`] offsets.
///
/// * `test_ahead` gates predicate evaluation: before `eof`, tuple `i` may
///   only be tested once `i + test_ahead < buffered`, so `next`-style
///   references resolve exactly as in a batch run.
/// * `proj_ahead` gates projection: a match ending at `e` projects once
///   `e + proj_ahead < buffered` (or at `eof`).
/// * the `*_behind` margins keep enough prefix in the window that no
///   evaluation ever reaches below the retained base.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Margins {
    test_ahead: usize,
    test_behind: usize,
    proj_ahead: usize,
    proj_behind: usize,
}

fn margins_of(query: &CompiledQuery) -> Margins {
    let mut m = Margins::default();
    let mut test = |fr: &FieldRef| stretch(&mut m.test_ahead, &mut m.test_behind, fr.offset);
    for el in &query.elements {
        for c in &el.conjuncts {
            walk_bool(&c.expr, &mut test);
        }
    }
    let mut proj = |fr: &FieldRef| stretch(&mut m.proj_ahead, &mut m.proj_behind, fr.offset);
    for item in &query.projection {
        walk_scalar(&item.expr, &mut proj);
    }
    m
}

fn stretch(ahead: &mut usize, behind: &mut usize, offset: i32) {
    if offset > 0 {
        *ahead = (*ahead).max(offset as usize);
    } else if offset < 0 {
        *behind = (*behind).max(offset.unsigned_abs() as usize);
    }
}

fn walk_bool<F: FnMut(&FieldRef)>(e: &BoolExpr, f: &mut F) {
    match e {
        BoolExpr::Cmp { lhs, rhs, .. } => {
            walk_scalar(lhs, f);
            walk_scalar(rhs, f);
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            walk_bool(a, f);
            walk_bool(b, f);
        }
        BoolExpr::Not(a) => walk_bool(a, f),
        BoolExpr::Const(_) => {}
    }
}

fn walk_scalar<F: FnMut(&FieldRef)>(e: &ScalarExpr, f: &mut F) {
    match e {
        ScalarExpr::Field(fr) => f(fr),
        ScalarExpr::Arith { lhs, rhs, .. } => {
            walk_scalar(lhs, f);
            walk_scalar(rhs, f);
        }
        ScalarExpr::Neg(a) => walk_scalar(a, f),
        ScalarExpr::Num { .. } | ScalarExpr::Str(_) | ScalarExpr::Date(_) => {}
    }
}

/// Estimated heap footprint of one buffered value (window accounting; a
/// coarse, deterministic model — not an allocator audit).
fn value_bytes(v: &Value) -> usize {
    32 + v.as_str().map_or(0, str::len)
}

/// Estimated footprint of one buffered row.
fn row_bytes(row: &[Value]) -> usize {
    24 + row.iter().map(value_bytes).sum::<usize>()
}

fn render_row(row: &[Value]) -> String {
    row.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A cluster's owned `CLUSTER BY` key, as the session's registry keeps it.
/// The registry can be probed with the key columns of an arriving row where
/// they lie (a [`RowKey`], through [`KeyView`]), so only a cluster's first
/// row pays for an owned key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ClusterKey(Vec<Value>);

/// What an owned [`ClusterKey`] and a borrowed [`RowKey`] have in common:
/// the unsized probe type `BTreeMap<ClusterKey, _>` is searched by.
trait KeyView {
    fn len(&self) -> usize;
    fn at(&self, i: usize) -> &Value;
}

impl KeyView for ClusterKey {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn at(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl KeyView for RowKey<'_> {
    fn len(&self) -> usize {
        RowKey::len(self)
    }
    fn at(&self, i: usize) -> &Value {
        self.get(i)
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for ClusterKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

/// Lexicographic, like the derived order of [`ClusterKey`] and the order
/// of [`RowKey`] — `Borrow` requires them to agree.
impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        let ours = (0..self.len()).map(|i| self.at(i));
        ours.cmp((0..other.len()).map(|i| other.at(i)))
    }
}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for dyn KeyView + '_ {}

/// One cluster's window: the buffered suffix of its stream that some
/// member still needs, and the order high-water mark.  Admission appends
/// to it once per tuple; every member's machine reads it.
struct ClusterWindow {
    key: Vec<Value>,
    /// The buffered rows, the first at absolute position `base`.
    buf: Table,
    base: usize,
    /// `SEQUENCE BY` key of the last accepted tuple (order enforcement).
    last_seq: Option<Vec<Value>>,
    /// The rows a frame admitted that the members driven once per frame
    /// have not been driven over yet (none between frames).
    undriven: Undriven,
}

/// A cluster's rows admitted since its last once-per-frame drive.
#[derive(Clone, Copy, Debug, Default)]
struct Undriven {
    rows: usize,
    /// Their estimated bytes, summed.
    bytes: usize,
    /// The frame row the first of them arrived in.
    first: usize,
}

impl ClusterWindow {
    /// One past the absolute position of the last buffered row.
    fn end(&self) -> usize {
        self.base + self.buf.len()
    }

    /// The buffered rows from absolute position `from` (≥ `base`) on.
    fn rows_from(&self, from: usize) -> impl Iterator<Item = &[Value]> {
        self.buf.rows().skip(from - self.base)
    }
}

/// Why admission turned a tuple away, cloneable so every member of a
/// group can be handed the same verdict.
#[derive(Clone)]
enum Refusal {
    Bad(BadTuple),
    Full { cap: usize, tuple: BadTuple },
}

impl From<Refusal> for StreamError {
    fn from(refusal: Refusal) -> Self {
        match refusal {
            Refusal::Bad(tuple) => StreamError::BadTuple(tuple),
            Refusal::Full { cap, tuple } => StreamError::QuarantineFull { cap, tuple },
        }
    }
}

/// Admission: what a tuple's arrival decides before any machine sees it —
/// the schema check, the cluster, the order check, the window append —
/// and the record, skip and quarantine books that go with it.
struct Window {
    schema: Schema,
    bad_tuple: BadTuplePolicy,
    cluster_idx: Vec<usize>,
    sequence_idx: Vec<usize>,
    /// Clusters in order of first arrival; a cluster's index here is its
    /// slot in every member's `lanes`.
    clusters: Vec<ClusterWindow>,
    /// Cluster key → slot, in key order (the order results merge in).
    slots: BTreeMap<ClusterKey, usize>,
    records: u64,
    skipped: u64,
    quarantine: Vec<BadTuple>,
}

impl Window {
    fn new(query: &CompiledQuery, bad_tuple: BadTuplePolicy) -> Result<Window, StreamError> {
        Ok(Window {
            schema: query.schema.clone(),
            bad_tuple,
            cluster_idx: query.schema.require_all(&query.cluster_by)?,
            sequence_idx: query.schema.require_all(&query.sequence_by)?,
            clusters: Vec::new(),
            slots: BTreeMap::new(),
            records: 0,
            skipped: 0,
            quarantine: Vec::new(),
        })
    }

    /// Would `other` decide every tuple exactly as this window does?
    /// True when both have admitted nothing and admit alike.
    fn aligned_with(&self, other: &Window) -> bool {
        self.records == 0
            && other.records == 0
            && self.clusters.is_empty()
            && other.clusters.is_empty()
            && self.bad_tuple == other.bad_tuple
            && self.cluster_idx == other.cluster_idx
            && self.sequence_idx == other.sequence_idx
            && self.schema == other.schema
    }

    /// Admit one tuple the caller has already counted in `records`:
    /// `Some((slot, bytes))` when it joined cluster `slot`'s window with
    /// an estimated `bytes`, `None` when the policy dropped or parked it.
    fn admit(&mut self, row: Vec<Value>) -> Result<Option<(usize, usize)>, Refusal> {
        #[cfg(feature = "failpoints")]
        if let Some(injected) = sqlts_relation::failpoints::hit("stream::feed", self.records) {
            if injected == sqlts_relation::failpoints::Injected::InjectError {
                let rendered = render_row(&row);
                let reason = "failpoint 'stream::feed' injected error".into();
                return self.reject(reason, rendered).map(|()| None);
            }
        }
        // The one schema check this tuple gets: everything below indexes it
        // by column and stores it as validated.
        if let Err(e) = self.schema.validate_row(&row) {
            let rendered = render_row(&row);
            return self.reject(e.to_string(), rendered).map(|()| None);
        }
        let key = RowKey::new(&row, &self.cluster_idx);
        let seq = RowKey::new(&row, &self.sequence_idx);
        let found = self.slots.get(&key as &dyn KeyView).copied();
        if let Some(last) = found.and_then(|slot| self.clusters[slot].last_seq.as_ref()) {
            if seq.values().lt(last) {
                let reason = format!(
                    "out-of-order SEQUENCE BY key ({}) in cluster ({})",
                    render_key(&seq.to_vec()),
                    render_key(&key.to_vec())
                );
                let rendered = render_row(&row);
                return self.reject(reason, rendered).map(|()| None);
            }
        }
        let slot = match found {
            Some(slot) => slot,
            None => {
                let key = key.to_vec();
                let slot = self.clusters.len();
                self.clusters.push(ClusterWindow {
                    key: key.clone(),
                    buf: Table::new(self.schema.clone()),
                    base: 0,
                    last_seq: None,
                    undriven: Undriven::default(),
                });
                self.slots.insert(ClusterKey(key), slot);
                slot
            }
        };
        let cw = &mut self.clusters[slot];
        match &mut cw.last_seq {
            Some(last) if last.len() == seq.len() => {
                for (held, arrived) in last.iter_mut().zip(seq.values()) {
                    held.clone_from(arrived);
                }
            }
            last => *last = Some(seq.to_vec()),
        }
        let bytes = row_bytes(&row);
        cw.buf.push_validated(row);
        Ok(Some((slot, bytes)))
    }

    fn reject(&mut self, reason: String, rendered: String) -> Result<(), Refusal> {
        let tuple = BadTuple {
            record: self.records,
            reason,
            rendered,
        };
        match self.bad_tuple {
            BadTuplePolicy::Skip => {
                self.skipped += 1;
                Ok(())
            }
            BadTuplePolicy::Fail => Err(Refusal::Bad(tuple)),
            BadTuplePolicy::Quarantine { cap } => {
                if self.quarantine.len() >= cap {
                    Err(Refusal::Full { cap, tuple })
                } else {
                    self.quarantine.push(tuple);
                    Ok(())
                }
            }
        }
    }

    /// Drop cluster `slot`'s rows below `floor`: no member reads them.
    fn trim(&mut self, slot: usize, floor: usize) {
        let cw = &mut self.clusters[slot];
        let k = floor.saturating_sub(cw.base).min(cw.buf.len());
        if k > 0 {
            cw.buf.remove_prefix(k);
            cw.base += k;
        }
    }

    /// A copy holding exactly what `run` reads: each of its clusters from
    /// its own floor on.  What a member takes with it when it leaves a
    /// group.
    fn view_for(&self, run: &MemberRun) -> Window {
        #[cfg(feature = "failpoints")]
        sqlts_relation::failpoints::hit("stream::view_for", self.records);
        let clusters: Vec<ClusterWindow> = self
            .clusters
            .iter()
            .zip(&run.lanes)
            .map(|(cw, lane)| {
                let held = (cw.base + cw.buf.len()).saturating_sub(lane.base);
                let mut buf = Table::with_capacity(self.schema.clone(), held);
                for row in cw.rows_from(lane.base) {
                    buf.push_validated(row.to_vec());
                }
                ClusterWindow {
                    key: cw.key.clone(),
                    buf,
                    base: lane.base,
                    last_seq: cw.last_seq.clone(),
                    undriven: Undriven::default(),
                }
            })
            .collect();
        let slots = self
            .slots
            .iter()
            .filter(|(_, slot)| **slot < clusters.len())
            .map(|(key, slot)| (key.clone(), *slot))
            .collect();
        Window {
            schema: self.schema.clone(),
            bad_tuple: self.bad_tuple,
            cluster_idx: self.cluster_idx.clone(),
            sequence_idx: self.sequence_idx.clone(),
            clusters,
            slots,
            records: self.records,
            skipped: self.skipped,
            quarantine: self.quarantine.clone(),
        }
    }
}

/// One member's state in one cluster: its retention floor in the
/// cluster's window, its resumable machine, its private counter, matches
/// waiting for projection lookahead, and the rows already projected.
struct Lane {
    /// First absolute position this member still reads.  The window may
    /// hold rows below it for other members; the member's checkpoint and
    /// window bytes start here.
    base: usize,
    machine: EngineMachine,
    counter: EvalCounter,
    /// Completed matches not yet projected (waiting for `proj_ahead`).
    pending: Vec<MatchSpans>,
    /// Projected output rows, in match order.
    rows: Vec<Vec<Value>>,
}

/// One query's side of a session: everything a member keeps for itself
/// over a window — the query and its armed governor, one [`Lane`] per
/// cluster (indexed by the window's slots), its window-byte estimate and
/// its latched trip or poison.
struct MemberRun {
    query: Arc<CompiledQuery>,
    /// The same per-query setup a batch run makes (output schema, search
    /// plan, armed governor), so `finish` can hand it to the shared merge.
    member: Member,
    exec: ExecOptions,
    search_options: SearchOptions,
    margins: Margins,
    lanes: Vec<Lane>,
    window_bytes: usize,
    poisoned: Option<String>,
    trip: Option<Trip>,
    /// Shared pattern-set membership (server `--shared-matcher`,
    /// `SharedStreamSession`): hands each cluster's counter a memo handle.
    shared: Option<crate::patternset::SharedJoin>,
    /// Rows driven since the shared memo was last pruned to the lane
    /// floors.
    rows_since_prune: usize,
}

impl MemberRun {
    fn new_lane(&self, key: &[Value]) -> Lane {
        let shared = self.shared.as_ref().map(|shared| shared.handle_for(key));
        Lane {
            base: 0,
            machine: EngineMachine::new(self.exec.engine, self.query.elements.len()),
            counter: self.member.counter(None, shared),
            pending: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Is this member still driven: neither tripped nor poisoned?
    fn driven(&self) -> bool {
        self.trip.is_none() && self.poisoned.is_none()
    }

    /// Is this member driven after every row rather than once per frame?
    /// A member with a governor armed is: its trips, partial rows and
    /// per-row verdicts fall on the row that causes them.
    fn per_row(&self) -> bool {
        self.member.run.is_some()
    }

    /// Latch `cause` as this member's poison; the error its feed returns.
    fn poison(&mut self, cause: &str) -> StreamError {
        self.poisoned = Some(cause.to_string());
        StreamError::Poisoned(cause.to_string())
    }

    /// See [`StreamSession::poll_deadline`].
    fn poll_deadline(&mut self) -> Result<(), StreamError> {
        if let Some(cause) = &self.poisoned {
            return Err(StreamError::Poisoned(cause.clone()));
        }
        if let Some(trip) = &self.trip {
            return Err(StreamError::Governed {
                trip: trip.clone(),
                partial: None,
            });
        }
        if let Some(Err(reason)) = self.member.run.as_ref().map(|run| run.poll()) {
            return Err(self.latch_trip(reason));
        }
        Ok(())
    }

    /// Latch the governor's trip as this member's; the error its feed
    /// returns.  The run records a trip before anything reports one; a
    /// record for `reason` stands in rather than panicking if it is ever
    /// not visible.
    fn latch_trip(&mut self, reason: TripReason) -> StreamError {
        let trip = match &self.member.run {
            Some(run) => run.trip().unwrap_or_else(|| run.make_trip(reason)),
            None => Trip {
                reason,
                steps: 0,
                matches: 0,
                elapsed: std::time::Duration::ZERO,
            },
        };
        self.trip = Some(trip.clone());
        StreamError::Governed {
            trip,
            partial: None,
        }
    }

    fn install_shared(&mut self, window: &Window, join: crate::patternset::SharedJoin) {
        for (key, &slot) in &window.slots {
            if let Some(lane) = self.lanes.get_mut(slot) {
                let counter = std::mem::take(&mut lane.counter);
                lane.counter = counter.with_shared(join.handle_for(&key.0));
            }
        }
        self.shared = Some(join);
    }

    /// Load `checkpoint` into this freshly opened member and its window.
    fn restore(
        &mut self,
        window: &mut Window,
        checkpoint: SessionCheckpoint,
    ) -> Result<(), StreamError> {
        let pattern_len = self.query.elements.len();
        if checkpoint.engine != self.exec.engine {
            return Err(StreamError::Checkpoint(format!(
                "engine mismatch: checkpoint '{}' vs session '{}'",
                checkpoint.engine.name(),
                self.exec.engine.name()
            )));
        }
        if checkpoint.pattern_len != pattern_len {
            return Err(StreamError::Checkpoint(format!(
                "pattern length mismatch: checkpoint {} vs query {pattern_len}",
                checkpoint.pattern_len,
            )));
        }
        window.records = checkpoint.records;
        window.skipped = checkpoint.skipped;
        window.quarantine = checkpoint.quarantine;
        for cc in checkpoint.clusters {
            let key = ClusterKey(cc.key);
            if window.slots.contains_key(&key) {
                return Err(StreamError::Checkpoint(format!(
                    "cluster ({}) appears twice",
                    render_key(&key.0)
                )));
            }
            let mut buf = Table::with_capacity(window.schema.clone(), cc.rows.len());
            for row in cc.rows {
                self.window_bytes += row_bytes(&row);
                buf.push_row(row)?;
            }
            // Built as a fresh cluster's is, so `governor_flushes` and flush
            // timing stay bit-identical; the restored totals come last.
            let counter = self.member.counter(cc.recorder, None);
            counter.restore_total(cc.counter_total);
            let slot = window.clusters.len();
            window.clusters.push(ClusterWindow {
                key: key.0.clone(),
                buf,
                base: cc.base,
                last_seq: cc.last_seq,
                undriven: Undriven::default(),
            });
            window.slots.insert(key, slot);
            self.lanes.push(Lane {
                base: cc.base,
                machine: cc.machine,
                counter,
                pending: cc.pending,
                rows: cc.out_rows,
            });
        }
        Ok(())
    }

    /// Drive this member over the `rows` tuples (estimated at `bytes`)
    /// admission appended to cluster `slot` since its last drive, and
    /// advance its floor.  The window itself is trimmed by the caller, to
    /// the lowest floor of the members reading it.  Fails only with a
    /// governor trip, which it latches.
    fn advance(
        &mut self,
        window: &Window,
        slot: usize,
        bytes: usize,
        rows: usize,
    ) -> Result<(), StreamError> {
        while self.lanes.len() <= slot {
            let lane = self.new_lane(&window.clusters[self.lanes.len()].key);
            self.lanes.push(lane);
        }
        let cw = &window.clusters[slot];
        self.window_bytes += bytes;
        let lane = &mut self.lanes[slot];
        let outcome = drive(
            &self.query,
            self.member.search_plan.as_ref(),
            &self.search_options,
            &self.margins,
            cw,
            lane,
            false,
        );
        self.window_bytes -= compact(&self.margins, cw, lane);
        if outcome == StepOutcome::Tripped {
            return Err(self.latch_trip(TripReason::StepBudget));
        }
        // Periodically drop shared-memo entries the member's floors can no
        // longer probe.  Soft state: over-pruning (another member may lag
        // behind this one's floor) only costs cache misses.  Counted in
        // rows, so how a stream is cut into frames does not move it.
        if let Some(shared) = &self.shared {
            self.rows_since_prune += rows;
            if self.rows_since_prune >= SHARED_PRUNE_INTERVAL {
                self.rows_since_prune %= SHARED_PRUNE_INTERVAL;
                for (key, &slot) in &window.slots {
                    if let Some(lane) = self.lanes.get(slot) {
                        shared.prune_below(&key.0, lane.base as u64);
                    }
                }
            }
        }
        Ok(())
    }

    /// Drive every machine to end-of-input over `window`, project the
    /// remaining matches, and hand the per-cluster outcomes to the batch
    /// executor's cluster-order merge.
    fn finish(self, window: &Window) -> Result<QueryResult, StreamError> {
        if let Some(cause) = self.poisoned {
            return Err(StreamError::Poisoned(cause));
        }
        // Once the governor has tripped, machines are not driven further —
        // the streaming analogue of the batch executor skipping clusters
        // after a trip.  Pending matches are still projected: they were
        // found before the trip.
        let mut tripped = self.trip.is_some();
        let mut lanes: Vec<Option<Lane>> = self.lanes.into_iter().map(Some).collect();
        let mut runs = Vec::with_capacity(lanes.len());
        for (key, &slot) in &window.slots {
            let Some(mut lane) = lanes.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            let cw = &window.clusters[slot];
            if !tripped {
                let outcome = drive(
                    &self.query,
                    self.member.search_plan.as_ref(),
                    &self.search_options,
                    &self.margins,
                    cw,
                    &mut lane,
                    true,
                );
                if outcome == StepOutcome::Tripped {
                    tripped = true;
                }
            }
            if !lane.pending.is_empty() {
                let cluster = Cluster::windowed(&cw.buf, Vec::new(), cw.base);
                let ctx = EvalCtx {
                    cluster: &cluster,
                    policy: self.search_options.policy,
                };
                for m in lane.pending.drain(..) {
                    let bindings = Bindings { spans: m.spans };
                    lane.rows
                        .push(eval_projection(&self.query.projection, &ctx, &bindings));
                }
            }
            let outcome = ClusterOutcome::close(
                lane.counter,
                self.member.run.as_ref(),
                cw.end() as u64,
                lane.rows,
            );
            runs.push((key.0.as_slice(), ClusterRun::Done(outcome)));
        }
        // A streamed run has no separate partition or execute phase to time.
        let phases = PhaseNanos::default();
        match merge_clusters(&self.member, &self.query, &self.exec, phases, runs)? {
            (result, None) => Ok(result),
            (partial, Some(trip)) => Err(StreamError::Governed {
                trip,
                partial: Some(Box::new(partial)),
            }),
        }
    }
}

/// One member read through a window: what a session's accessors report,
/// for any seat of a [`SessionGroup`].
#[derive(Clone, Copy)]
pub(crate) struct SessionView<'a> {
    window: &'a Window,
    run: &'a MemberRun,
}

impl<'a> SessionView<'a> {
    /// See [`StreamSession::records`].
    pub(crate) fn records(&self) -> u64 {
        self.window.records
    }

    /// See [`StreamSession::skipped`].
    pub(crate) fn skipped(&self) -> u64 {
        self.window.skipped
    }

    /// See [`StreamSession::quarantine`].
    pub(crate) fn quarantine(&self) -> &'a [BadTuple] {
        &self.window.quarantine
    }

    /// See [`StreamSession::window_bytes`].
    pub(crate) fn window_bytes(&self) -> usize {
        self.run.window_bytes
    }

    /// See [`StreamSession::predicate_tests`].
    pub(crate) fn predicate_tests(&self) -> u64 {
        self.run.lanes.iter().map(|lane| lane.counter.total()).sum()
    }

    /// See [`StreamSession::trip`].
    pub(crate) fn trip(&self) -> Option<&'a Trip> {
        self.run.trip.as_ref()
    }

    /// See [`StreamSession::poisoned`].
    pub(crate) fn poisoned(&self) -> bool {
        self.run.poisoned.is_some()
    }

    /// See [`StreamSession::snapshot`].
    pub(crate) fn snapshot(&self) -> Result<SessionCheckpoint, StreamError> {
        let (window, run) = (self.window, self.run);
        if let Some(cause) = &run.poisoned {
            return Err(StreamError::Poisoned(cause.clone()));
        }
        #[cfg(feature = "failpoints")]
        if let Some(injected) =
            sqlts_relation::failpoints::hit("stream::checkpoint", window.records)
        {
            if injected == sqlts_relation::failpoints::Injected::InjectError {
                return Err(StreamError::Checkpoint(
                    "failpoint 'stream::checkpoint' injected error".into(),
                ));
            }
        }
        let clusters = window
            .slots
            .iter()
            .filter_map(|(key, &slot)| {
                let (cw, lane) = (&window.clusters[slot], run.lanes.get(slot)?);
                Some(ClusterCheckpoint {
                    key: key.0.clone(),
                    base: lane.base,
                    rows: cw.rows_from(lane.base).map(<[Value]>::to_vec).collect(),
                    last_seq: cw.last_seq.clone(),
                    machine: lane.machine.clone(),
                    counter_total: lane.counter.total(),
                    recorder: lane.counter.recorder_snapshot(),
                    pending: lane.pending.clone(),
                    out_rows: lane.rows.clone(),
                })
            })
            .collect();
        Ok(SessionCheckpoint {
            engine: run.exec.engine,
            pattern_len: run.query.elements.len(),
            records: window.records,
            skipped: window.skipped,
            quarantine: window.quarantine.clone(),
            clusters,
        })
    }
}

/// A push-based streaming execution session over one compiled query.
///
/// Built with [`StreamSession::new`] (or [`StreamSession::resume`] from a
/// checkpoint); fed one tuple at a time — a session group's frame of
/// one — with [`StreamSession::feed`];
/// closed with [`StreamSession::finish`], which returns the same
/// [`QueryResult`] a batch run over the full input would.  The session
/// owns a copy of its query, so it outlives the one it was built from.
pub struct StreamSession {
    /// A session group of one: the session sits in seat 0 until `finish`.
    group: SessionGroup,
}

impl StreamSession {
    /// Open a fresh streaming session for `query`.
    pub fn new(query: &CompiledQuery, options: StreamOptions) -> Result<Self, StreamError> {
        let group = SessionGroup::open(Arc::new(query.clone()), options, None)?;
        Ok(StreamSession { group })
    }

    /// Rebuild a session from a checkpoint, continuing bit-identically to
    /// the session that took it.  The governor and deadline start fresh:
    /// restored work was already metered by the run that checkpointed.
    pub fn resume(
        query: &CompiledQuery,
        options: StreamOptions,
        checkpoint: SessionCheckpoint,
    ) -> Result<Self, StreamError> {
        let group = SessionGroup::open(Arc::new(query.clone()), options, Some(checkpoint))?;
        Ok(StreamSession { group })
    }

    /// The session's one seat, read.
    fn view(&self) -> SessionView<'_> {
        self.group
            .view(0)
            .expect("a session's seat is occupied until finish")
    }

    /// See [`SessionGroup::install_shared`].
    pub(crate) fn install_shared(&mut self, join: crate::patternset::SharedJoin) {
        self.group.install_shared(join);
    }

    /// Input records seen so far (accepted + rejected).
    pub fn records(&self) -> u64 {
        self.view().records()
    }

    /// Records dropped under [`BadTuplePolicy::Skip`].
    pub fn skipped(&self) -> u64 {
        self.view().skipped()
    }

    /// Estimated bytes currently buffered across all cluster windows.
    pub fn window_bytes(&self) -> usize {
        self.view().window_bytes()
    }

    /// Predicate tests performed so far, summed over live clusters.  Under
    /// shared pattern-set execution this is the *logical* count: memo hits
    /// are charged exactly as if this session had evaluated them itself.
    pub fn predicate_tests(&self) -> u64 {
        self.view().predicate_tests()
    }

    /// The quarantined tuples, in rejection order.
    pub fn quarantine(&self) -> &[BadTuple] {
        self.view().quarantine()
    }

    /// Has the governor tripped this session?
    pub fn tripped(&self) -> bool {
        self.trip().is_some()
    }

    /// The latched governor trip, when one has occurred.
    pub fn trip(&self) -> Option<&Trip> {
        self.view().trip()
    }

    /// Has a contained panic poisoned this session?
    pub fn poisoned(&self) -> bool {
        self.view().poisoned()
    }

    /// Push one input tuple into the session.
    ///
    /// Rejected tuples follow [`StreamOptions::bad_tuple`]; a governor
    /// trip surfaces [`StreamError::Governed`] (the tuple that observed a
    /// deadline trip at the feed boundary is **not** consumed); a panic is
    /// contained and poisons the session.
    pub fn feed(&mut self, row: Vec<Value>) -> Result<(), StreamError> {
        let mut fed = Ok(());
        self.group
            .feed(std::iter::once(row), &mut |_, result| fed = result);
        fed
    }

    /// Check the wall-clock deadline *now*, without feeding anything,
    /// latching a [`StreamError::Governed`] trip exactly as a `feed`
    /// boundary would.
    ///
    /// `feed` polls the governor at every tuple boundary, but a stream
    /// that simply *stops feeding* would otherwise never observe its
    /// deadline: an idle or stalled tenant could hold its budget forever.
    /// Long-running hosts (the `sqlts-server` subscription workers, any
    /// `--follow`-style driver with a read timeout) call this from their
    /// idle loop so a stalled session still trips and releases its budget.
    ///
    /// Cheap when it does not trip: one latched-flag read plus at most one
    /// `Instant::now()`.  No steps are charged.
    pub fn poll_deadline(&mut self) -> Result<(), StreamError> {
        self.group.poll_deadline(0)
    }

    /// Fold an input fault detected *outside* the session (e.g. a CSV
    /// line that failed to parse) into the bad-tuple policy, so stream
    /// sources get one uniform skip/fail/quarantine story.
    pub fn quarantine_external(
        &mut self,
        reason: String,
        rendered: String,
    ) -> Result<(), StreamError> {
        self.group.quarantine_external(reason, rendered)
    }

    /// Capture the session's complete state as a [`SessionCheckpoint`].
    pub fn snapshot(&self) -> Result<SessionCheckpoint, StreamError> {
        self.view().snapshot()
    }

    /// Close the stream: drive every machine to end-of-input, project the
    /// remaining matches, and hand the per-cluster outcomes to the batch
    /// executor's cluster-order merge.
    pub fn finish(mut self) -> Result<QueryResult, StreamError> {
        self.group
            .finish(0)
            .expect("a session's seat is occupied until finish")
    }
}

/// Sessions that admit each tuple once: one window under many members,
/// each in a numbered seat.  A [`StreamSession`] is a group of one.
///
/// A group is fed a frame of tuples at a time.  Each tuple is validated,
/// keyed, order-checked and appended once, in order; a member with a
/// governor armed is driven over it at once, and every other member is
/// driven once per frame, one advance per cluster the frame touched, from
/// its own floor over the shared window, which then keeps only what the
/// lowest floor still needs.  Each seat reads back exactly what a session
/// of its own would — rows, stats, profile, status, checkpoint bytes —
/// because admission is the part of a feed that depends on nothing a
/// member owns, and an OPS-style machine driven over k new tuples in one
/// call stands where k one-tuple calls leave it.
///
/// A member that trips its governor or is poisoned is never driven again.
/// While others are still driven it leaves: it takes a copy of its view
/// of the window and becomes a group of one in its seat, answering every
/// later call exactly as a tripped session does.  A finished seat is
/// vacant.
pub(crate) struct SessionGroup {
    window: Window,
    seats: Vec<Seat>,
    /// Clusters with undriven rows, in first-touch order: a frame's
    /// scratch, empty between frames, whose capacity is kept.
    touched: Vec<usize>,
    /// The refusals among the frame rows the members driven once per
    /// frame have not been told of yet, in row order: the only per-row
    /// state a frame keeps, and the steady state refuses nothing.
    refused: Vec<(usize, Refusal)>,
    /// Frame rows those members have been told their verdicts for.
    told: usize,
}

enum Seat {
    /// Read over the group's window.
    Live(MemberRun),
    /// Left the group tripped or poisoned: a group of one over its own
    /// copy of its view.
    Alone(SessionGroup),
    /// Finished.
    Vacant,
}

impl Seat {
    /// The live member sitting here, when it is driven after every row.
    fn per_row(&mut self) -> Option<&mut MemberRun> {
        match self {
            Seat::Live(run) if run.per_row() => Some(run),
            _ => None,
        }
    }
}

impl SessionGroup {
    /// A group of one running `query` in seat 0, fresh or restored from
    /// `checkpoint`.
    pub(crate) fn open(
        query: Arc<CompiledQuery>,
        options: StreamOptions,
        checkpoint: Option<SessionCheckpoint>,
    ) -> Result<SessionGroup, StreamError> {
        let mut window = Window::new(&query, options.bad_tuple)?;
        let mut run = MemberRun {
            member: Member::prepare(&query, &options.exec)?,
            margins: margins_of(&query),
            search_options: SearchOptions {
                policy: options.exec.policy,
            },
            query,
            exec: options.exec,
            lanes: Vec::new(),
            window_bytes: 0,
            poisoned: None,
            trip: None,
            shared: None,
            rows_since_prune: 0,
        };
        if let Some(checkpoint) = checkpoint {
            run.restore(&mut window, checkpoint)?;
        }
        Ok(SessionGroup::of(window, run))
    }

    /// A group of one seating `run` over `window`.
    fn of(window: Window, run: MemberRun) -> SessionGroup {
        SessionGroup {
            window,
            seats: vec![Seat::Live(run)],
            touched: Vec::new(),
            refused: Vec::new(),
            told: 0,
        }
    }

    /// Seat the members of `other` — a group of one — in this group and
    /// return the first one's seat, when the two are aligned: neither has
    /// admitted anything yet, and both admit alike (same input schema,
    /// `CLUSTER BY`/`SEQUENCE BY` columns and bad-tuple policy).
    /// Otherwise hand it back.
    pub(crate) fn join(&mut self, other: SessionGroup) -> Result<usize, Box<SessionGroup>> {
        if !self.window.aligned_with(&other.window) {
            return Err(Box::new(other));
        }
        let seat = self.seats.len();
        self.seats.extend(other.seats);
        Ok(seat)
    }

    /// Attach seat 0 to a shared pattern-set group.  Existing cluster
    /// counters (a restored member's) are retrofitted with memo handles;
    /// clusters created later pick theirs up at birth.  The memo is soft
    /// state — it only short-circuits evaluations whose cached value is
    /// provably identical — so attaching (or not) never changes the
    /// member's output, stats or governor accounting.
    pub(crate) fn install_shared(&mut self, join: crate::patternset::SharedJoin) {
        if let Some(Seat::Live(run)) = self.seats.first_mut() {
            run.install_shared(&self.window, join);
        }
    }

    /// Feed a frame of tuples to every seat, reporting each occupied
    /// seat's result per tuple through `report(seat, result)` — what a
    /// session of its own fed the tuples one by one would have returned.
    /// Each seat's results come in tuple order; how the seats' results
    /// interleave is not.  A panic is contained: in admission it poisons
    /// every live member (each would have panicked alike), once the
    /// tuples admitted before it are driven; in a member's drive that
    /// member alone, from the first tuple of the cluster it was driving.
    pub(crate) fn feed(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
        report: &mut dyn FnMut(usize, Result<(), StreamError>),
    ) {
        self.told = 0;
        let mut at = 0;
        for row in rows {
            // The feed boundary, per member: a member whose deadline has
            // passed leaves before the tuple is admitted, so it does not
            // consume it (its view is copied before the window grows).
            let (mut live, mut left) = (0, false);
            for (i, seat) in self.seats.iter_mut().enumerate() {
                match seat {
                    Seat::Live(run) => match run.poll_deadline() {
                        Ok(()) => live += 1,
                        Err(e) => {
                            left = true;
                            report(i, Err(e));
                        }
                    },
                    // Tripped or poisoned for good: its boundary refuses.
                    Seat::Alone(alone) => report(i, alone.poll_deadline(0)),
                    Seat::Vacant => {}
                }
            }
            if left {
                self.release();
            }
            if live > 0 && self.admit(at, row, report) {
                self.release();
            }
            at += 1;
        }
        if self.drive_undriven(at, report) {
            self.release();
        }
    }

    /// Count frame row `at`, admit it once and drive the members driven
    /// per row over it; the rest wait for the frame's drive, or for the
    /// cluster's `MAX_UNDRIVEN`-th undriven row.  Returns whether a member
    /// tripped or was poisoned, so that it can leave.
    fn admit(
        &mut self,
        at: usize,
        row: Vec<Value>,
        report: &mut dyn FnMut(usize, Result<(), StreamError>),
    ) -> bool {
        let window = &mut self.window;
        window.records += 1;
        let admitted = catch_unwind(AssertUnwindSafe(|| window.admit(row)));
        let (slot, bytes) = match admitted {
            Ok(Ok(Some(admitted))) => admitted,
            // Dropped, parked or refused: the members driven per row hear
            // it now, the rest at the frame's drive.
            Ok(dropped) => {
                let refusal = dropped.err();
                for (i, seat) in self.seats.iter_mut().enumerate() {
                    if seat.per_row().is_some() {
                        report(i, refusal.clone().map_or(Ok(()), |r| Err(r.into())));
                    }
                }
                self.refused.extend(refusal.map(|refusal| (at, refusal)));
                return false;
            }
            Err(payload) => {
                // Drive what the frame admitted before this tuple first, so
                // every member stands where feeding tuple by tuple leaves it.
                self.drive_undriven(at, report);
                let cause = panic_cause(payload);
                for (i, seat) in self.seats.iter_mut().enumerate() {
                    if let Seat::Live(run) = seat {
                        let poisoned = match &run.poisoned {
                            Some(own) => StreamError::Poisoned(own.clone()),
                            None => run.poison(&cause),
                        };
                        report(i, Err(poisoned));
                    }
                }
                self.told = at + 1;
                return true;
            }
        };
        let (window, mut left, mut advanced) = (&self.window, false, false);
        for (i, seat) in self.seats.iter_mut().enumerate() {
            let Some(run) = seat.per_row() else { continue };
            let result = catch_unwind(AssertUnwindSafe(|| run.advance(window, slot, bytes, 1)))
                .unwrap_or_else(|payload| Err(run.poison(&panic_cause(payload))));
            left |= result.is_err();
            advanced = true;
            report(i, result);
        }
        // A member that trips still counts: it copies its view out before
        // the window is trimmed past it.
        if advanced {
            let floor = self.floor(slot);
            self.window.trim(slot, floor);
        }
        let undriven = &mut self.window.clusters[slot].undriven;
        if undriven.rows == 0 {
            undriven.first = at;
            self.touched.push(slot);
        }
        undriven.rows += 1;
        undriven.bytes += bytes;
        if undriven.rows >= MAX_UNDRIVEN {
            left |= self.drive_undriven(at + 1, report);
        }
        left
    }

    /// Drive every live member that is driven once per frame over the rows
    /// admitted since its last drive — one advance per touched cluster, in
    /// first-touch order — and report its verdicts for the frame rows up
    /// to `upto`; then trim those clusters to the lowest floor.  Returns
    /// whether a member was poisoned, so that it can leave.
    fn drive_undriven(
        &mut self,
        upto: usize,
        report: &mut dyn FnMut(usize, Result<(), StreamError>),
    ) -> bool {
        let (window, mut left) = (&self.window, false);
        for (i, seat) in self.seats.iter_mut().enumerate() {
            let Seat::Live(run) = seat else { continue };
            if run.per_row() || !run.driven() {
                continue;
            }
            // The frame row a panic in this member's drive is reported
            // from: the first of the cluster it was driving.
            let mut poisoned_from = None;
            for &slot in &self.touched {
                let undriven = window.clusters[slot].undriven;
                let driven = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(feature = "failpoints")]
                    sqlts_relation::failpoints::hit("stream::drive", i as u64);
                    run.advance(window, slot, undriven.bytes, undriven.rows)
                }));
                if let Err(payload) = driven {
                    run.poison(&panic_cause(payload));
                    poisoned_from = Some(undriven.first);
                    break;
                }
            }
            left |= poisoned_from.is_some();
            let mut refusals = self.refused.iter().peekable();
            for at in self.told..upto {
                let refusal = refusals.next_if(|(row, _)| *row == at);
                let verdict = match (poisoned_from, &run.poisoned, refusal) {
                    (Some(from), Some(cause), _) if at >= from => {
                        Err(StreamError::Poisoned(cause.clone()))
                    }
                    (_, _, Some((_, refusal))) => Err(refusal.clone().into()),
                    _ => Ok(()),
                };
                report(i, verdict);
            }
        }
        for &slot in &self.touched {
            let floor = self.floor(slot);
            self.window.trim(slot, floor);
            self.window.clusters[slot].undriven = Undriven::default();
        }
        self.touched.clear();
        self.refused.clear();
        self.told = upto;
        left
    }

    /// Fold an input fault found outside the group into its bad-tuple
    /// policy, as admission does a tuple it refuses: see
    /// [`StreamSession::quarantine_external`], whose group of one this is.
    pub(crate) fn quarantine_external(
        &mut self,
        reason: String,
        rendered: String,
    ) -> Result<(), StreamError> {
        if let Some(Seat::Live(MemberRun {
            poisoned: Some(cause),
            ..
        })) = self.seats.first()
        {
            return Err(StreamError::Poisoned(cause.clone()));
        }
        self.window.records += 1;
        Ok(self.window.reject(reason, rendered)?)
    }

    /// Seats still occupied (live, or left with their own view).
    pub(crate) fn occupied(&self) -> usize {
        let occupied = |seat: &&Seat| !matches!(seat, Seat::Vacant);
        self.seats.iter().filter(occupied).count()
    }

    /// Give up seat `seat` without finishing it: its member is dropped
    /// and no longer holds the window back.
    pub(crate) fn vacate(&mut self, seat: usize) {
        if let Some(seat) = self.seats.get_mut(seat) {
            *seat = Seat::Vacant;
            self.release();
        }
    }

    /// The lowest floor any live member keeps in cluster `slot`; a member
    /// not yet driven over the cluster reads it from its start.
    fn floor(&self, slot: usize) -> usize {
        let floors = self.seats.iter().filter_map(|seat| match seat {
            Seat::Live(run) => Some(run.lanes.get(slot).map_or(0, |lane| lane.base)),
            _ => None,
        });
        floors.min().unwrap_or(usize::MAX)
    }

    /// Let every tripped or poisoned live member leave with its view of
    /// the window, then trim every cluster to the floors of those left.
    /// With no member driven nothing grows the window, so all stay where
    /// they are and nothing is trimmed.
    fn release(&mut self) {
        let driven = |seat: &Seat| matches!(seat, Seat::Live(run) if run.driven());
        if !self.seats.iter().any(driven) {
            return;
        }
        let window = &self.window;
        for seat in &mut self.seats {
            let Seat::Live(run) = seat else { continue };
            if !run.driven() {
                // The view first: should copying it panic, the member
                // still sits in its seat.
                let window = window.view_for(run);
                if let Seat::Live(run) = std::mem::replace(seat, Seat::Vacant) {
                    *seat = Seat::Alone(SessionGroup::of(window, run));
                }
            }
        }
        for slot in 0..self.window.clusters.len() {
            let floor = self.floor(slot);
            self.window.trim(slot, floor);
        }
    }

    /// Seat `seat` read as a session; `None` once it has finished.
    pub(crate) fn view(&self, seat: usize) -> Option<SessionView<'_>> {
        match self.seats.get(seat)? {
            Seat::Live(run) => Some(SessionView {
                window: &self.window,
                run,
            }),
            Seat::Alone(alone) => alone.view(0),
            Seat::Vacant => None,
        }
    }

    /// [`StreamSession::poll_deadline`] for seat `seat` (`Ok` once it has
    /// finished).  A live member that trips here leaves the group.
    pub(crate) fn poll_deadline(&mut self, seat: usize) -> Result<(), StreamError> {
        let polled = match self.seats.get_mut(seat) {
            Some(Seat::Live(run)) => run.poll_deadline(),
            Some(Seat::Alone(alone)) => alone.poll_deadline(0),
            _ => Ok(()),
        };
        if polled.is_err() {
            self.release();
        }
        polled
    }

    /// Latch `cause` as the poison of seat `seat`, whose own work a panic
    /// interrupted; with `None`, of every seat — a panic outside any one
    /// member's work cannot be pinned on one of them.
    pub(crate) fn poison(&mut self, seat: Option<usize>, cause: &str) {
        self.latch_poison(seat, cause);
        self.release();
    }

    /// Latch `cause` on seat `seat` (`None`: every seat) and let no
    /// member leave, so no view is copied: [`SessionGroup::poison`]
    /// without its release, for when the release itself panicked.  A
    /// poisoned member is never driven again, and the next call that
    /// releases it copies its view then.
    pub(crate) fn latch_poison(&mut self, seat: Option<usize>, cause: &str) {
        for (i, occupant) in self.seats.iter_mut().enumerate() {
            if seat.is_some_and(|seat| seat != i) {
                continue;
            }
            match occupant {
                Seat::Live(run) => {
                    run.poison(cause);
                }
                Seat::Alone(alone) => alone.latch_poison(None, cause),
                Seat::Vacant => {}
            }
        }
    }

    /// [`StreamSession::finish`] for one seat, which is vacant afterwards;
    /// `None` if it already was.
    pub(crate) fn finish(&mut self, seat: usize) -> Option<Result<QueryResult, StreamError>> {
        let finished = match std::mem::replace(self.seats.get_mut(seat)?, Seat::Vacant) {
            Seat::Live(run) => run.finish(&self.window),
            Seat::Alone(mut alone) => alone.finish(0)?,
            Seat::Vacant => return None,
        };
        // The finished member no longer holds the window back.
        self.release();
        Some(finished)
    }
}

/// Advance one cluster's machine as far as the buffered input allows and
/// project every pending match whose lookahead is satisfied.  A free
/// function so the caller can hold disjoint borrows of the member.  The
/// lane's counter settles before and after, so its credit never reaches
/// past what the step budget has left after the other lanes' spending.
fn drive(
    query: &CompiledQuery,
    search_plan: Option<&SearchPlan>,
    search_options: &SearchOptions,
    margins: &Margins,
    cw: &ClusterWindow,
    lane: &mut Lane,
    eof: bool,
) -> StepOutcome {
    let cluster = Cluster::windowed(&cw.buf, Vec::new(), cw.base);
    let input = StepInput {
        cluster: &cluster,
        eof,
        lookahead: margins.test_ahead,
    };
    lane.counter.settle();
    let outcome = lane.machine.run(
        &query.elements,
        search_plan,
        &input,
        search_options,
        &lane.counter,
        &mut lane.pending,
    );
    lane.counter.settle();
    let avail = cw.end();
    let ready = lane
        .pending
        .iter()
        .take_while(|m| eof || m.end() + margins.proj_ahead < avail)
        .count();
    if ready > 0 {
        let ctx = EvalCtx {
            cluster: &cluster,
            policy: search_options.policy,
        };
        for m in lane.pending.drain(..ready) {
            let bindings = Bindings { spans: m.spans };
            lane.rows
                .push(eval_projection(&query.projection, &ctx, &bindings));
        }
    }
    outcome
}

/// Advance a member's floor past the window prefix none of its
/// evaluations can reach any more; returns the estimated bytes that left
/// its view.  The floor is the minimum of the machine's window low and the
/// oldest pending match start, each minus the relevant lookbehind margin;
/// both are monotone, so the floor only ever moves forward.
fn compact(margins: &Margins, cw: &ClusterWindow, lane: &mut Lane) -> usize {
    let machine_floor = lane
        .machine
        .window_low()
        .saturating_sub(margins.test_behind);
    let pending_floor = lane.pending.first().map_or(usize::MAX, |m| {
        m.start().saturating_sub(margins.proj_behind)
    });
    let floor = machine_floor.min(pending_floor);
    let k = floor.saturating_sub(lane.base).min(cw.end() - lane.base);
    if k == 0 {
        return 0;
    }
    let freed = cw.rows_from(lane.base).take(k).map(row_bytes).sum();
    lane.base += k;
    freed
}

/// One cluster's captured state inside a [`SessionCheckpoint`].
#[derive(Clone, Debug)]
struct ClusterCheckpoint {
    key: Vec<Value>,
    base: usize,
    rows: Vec<Vec<Value>>,
    last_seq: Option<Vec<Value>>,
    machine: EngineMachine,
    counter_total: u64,
    recorder: Option<ClusterRecorder>,
    pending: Vec<MatchSpans>,
    out_rows: Vec<Vec<Value>>,
}

/// A complete, self-contained capture of a [`StreamSession`]'s state,
/// taken at a tuple boundary by [`StreamSession::snapshot`].
///
/// The versioned text form (`sqlts-checkpoint v1`, line-oriented,
/// space-separated tokens with percent-escaped strings) is produced by
/// [`SessionCheckpoint::to_text`] and parsed back by
/// [`SessionCheckpoint::from_text`]; `from_text(to_text(c))` round-trips
/// exactly.
#[derive(Clone, Debug)]
pub struct SessionCheckpoint {
    engine: EngineKind,
    pattern_len: usize,
    records: u64,
    skipped: u64,
    quarantine: Vec<BadTuple>,
    clusters: Vec<ClusterCheckpoint>,
}

/// Two v1 lines that no longer carry state: v1 also recorded a
/// backpressure counter and a session event log, and sessions have
/// neither now.  Every file written without them holds exactly these
/// lines, so it keeps reading (and writing back) byte for byte; a file
/// that used either is refused, since resuming it would silently drop
/// what it recorded.
const FIXED_PRESSURE: &str = "pressure 0";
const FIXED_LOG: &str = "log none";

impl SessionCheckpoint {
    /// Input records covered by this checkpoint.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The engine the checkpointed session ran.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Serialize to the versioned line-based text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("sqlts-checkpoint v1\n");
        out.push_str(&format!("engine {}\n", self.engine.name()));
        out.push_str(&format!("pattern {}\n", self.pattern_len));
        out.push_str(&format!("records {}\n", self.records));
        out.push_str(&format!("skipped {}\n", self.skipped));
        out.push_str(FIXED_PRESSURE);
        out.push('\n');
        out.push_str(&format!("quarantine {}\n", self.quarantine.len()));
        for bad in &self.quarantine {
            out.push_str(&format!(
                "bad {} {} {}\n",
                bad.record,
                escape(&bad.reason),
                escape(&bad.rendered)
            ));
        }
        out.push_str(FIXED_LOG);
        out.push('\n');
        out.push_str(&format!("clusters {}\n", self.clusters.len()));
        for cc in &self.clusters {
            out.push_str(&format!("cluster {}", cc.key.len()));
            for v in &cc.key {
                out.push(' ');
                out.push_str(&write_value(v));
            }
            out.push('\n');
            out.push_str(&format!("base {}\n", cc.base));
            match &cc.last_seq {
                None => out.push_str("lastseq none\n"),
                Some(seq) => {
                    out.push_str(&format!("lastseq {}", seq.len()));
                    for v in seq {
                        out.push(' ');
                        out.push_str(&write_value(v));
                    }
                    out.push('\n');
                }
            }
            out.push_str(&format!("rows {}\n", cc.rows.len()));
            for row in &cc.rows {
                write_row(&mut out, row);
            }
            write_machine(&mut out, &cc.machine);
            out.push_str(&format!("counter {}\n", cc.counter_total));
            match &cc.recorder {
                None => out.push_str("recorder none\n"),
                Some(rec) => write_recorder(&mut out, rec),
            }
            out.push_str(&format!("pending {}\n", cc.pending.len()));
            for m in &cc.pending {
                out.push_str(&format!("match {}", m.spans.len()));
                for (a, b) in &m.spans {
                    out.push_str(&format!(" {a} {b}"));
                }
                out.push('\n');
            }
            out.push_str(&format!("out {}\n", cc.out_rows.len()));
            for row in &cc.out_rows {
                write_row(&mut out, row);
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parse the text format back into a checkpoint.
    pub fn from_text(text: &str) -> Result<SessionCheckpoint, StreamError> {
        let mut lines = CheckpointLines::new(text);
        lines.expect_literal("sqlts-checkpoint v1")?;
        let engine_name = lines.tagged("engine")?.to_string();
        let engine = EngineKind::from_name(&engine_name)
            .ok_or_else(|| codec_err(format!("unknown engine '{engine_name}'")))?;
        let pattern_len = lines.tagged_parse::<usize>("pattern")?;
        let records = lines.tagged_parse::<u64>("records")?;
        let skipped = lines.tagged_parse::<u64>("skipped")?;
        lines.expect_literal(FIXED_PRESSURE)?;
        let n_bad = lines.tagged_parse::<usize>("quarantine")?;
        let mut quarantine = Vec::with_capacity(parse_cap(n_bad));
        for _ in 0..n_bad {
            let rest = lines.tagged("bad")?;
            let mut toks = rest.split(' ');
            let record = parse_tok::<u64>(toks.next(), "bad record")?;
            let reason = unescape(toks.next().ok_or_else(|| codec_err("bad reason missing"))?)?;
            let rendered = unescape(
                toks.next()
                    .ok_or_else(|| codec_err("bad rendered missing"))?,
            )?;
            quarantine.push(BadTuple {
                record,
                reason,
                rendered,
            });
        }
        lines.expect_literal(FIXED_LOG)?;
        let n_clusters = lines.tagged_parse::<usize>("clusters")?;
        let mut clusters = Vec::with_capacity(parse_cap(n_clusters));
        for _ in 0..n_clusters {
            let rest = lines.tagged("cluster")?;
            let mut toks = rest.split(' ');
            let key_len = parse_tok::<usize>(toks.next(), "cluster key length")?;
            let mut key = Vec::with_capacity(parse_cap(key_len));
            for _ in 0..key_len {
                key.push(parse_value(
                    toks.next()
                        .ok_or_else(|| codec_err("cluster key value missing"))?,
                )?);
            }
            let base = lines.tagged_parse::<usize>("base")?;
            let rest = lines.tagged("lastseq")?;
            let last_seq = if rest == "none" {
                None
            } else {
                let mut toks = rest.split(' ');
                let n = parse_tok::<usize>(toks.next(), "lastseq length")?;
                let mut seq = Vec::with_capacity(parse_cap(n));
                for _ in 0..n {
                    seq.push(parse_value(
                        toks.next()
                            .ok_or_else(|| codec_err("lastseq value missing"))?,
                    )?);
                }
                Some(seq)
            };
            let n_rows = lines.tagged_parse::<usize>("rows")?;
            let mut rows = Vec::with_capacity(parse_cap(n_rows));
            for _ in 0..n_rows {
                rows.push(parse_row(lines.tagged("row")?)?);
            }
            let machine = parse_machine(&mut lines)?;
            let counter_total = lines.tagged_parse::<u64>("counter")?;
            let recorder = parse_recorder(&mut lines)?;
            let n_pending = lines.tagged_parse::<usize>("pending")?;
            let mut pending = Vec::with_capacity(parse_cap(n_pending));
            for _ in 0..n_pending {
                let rest = lines.tagged("match")?;
                let mut toks = rest.split(' ');
                let n = parse_tok::<usize>(toks.next(), "match span count")?;
                let mut spans = Vec::with_capacity(parse_cap(n));
                for _ in 0..n {
                    let a = parse_tok::<usize>(toks.next(), "match span start")?;
                    let b = parse_tok::<usize>(toks.next(), "match span end")?;
                    spans.push((a, b));
                }
                pending.push(MatchSpans { spans });
            }
            let n_out = lines.tagged_parse::<usize>("out")?;
            let mut out_rows = Vec::with_capacity(parse_cap(n_out));
            for _ in 0..n_out {
                out_rows.push(parse_row(lines.tagged("row")?)?);
            }
            clusters.push(ClusterCheckpoint {
                key,
                base,
                rows,
                last_seq,
                machine,
                counter_total,
                recorder,
                pending,
                out_rows,
            });
        }
        lines.expect_literal("end")?;
        lines.expect_eof()?;
        Ok(SessionCheckpoint {
            engine,
            pattern_len,
            records,
            skipped,
            quarantine,
            clusters,
        })
    }
}

fn codec_err(why: impl fmt::Display) -> StreamError {
    StreamError::Checkpoint(why.to_string())
}

/// Clamp a parsed element count before `Vec::with_capacity`: a corrupted
/// or adversarial count in checkpoint text must surface as a parse error
/// on the missing elements, not as a capacity-overflow panic or an absurd
/// up-front allocation.  Parsing still pushes every element it actually
/// reads, so legitimate larger sections simply grow past the hint.
fn parse_cap(n: usize) -> usize {
    n.min(4096)
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, StreamError> {
    tok.ok_or_else(|| codec_err(format!("{what} missing")))?
        .parse::<T>()
        .map_err(|_| codec_err(format!("{what} unparsable")))
}

/// Percent-escape the bytes that would break the space/line-delimited
/// format; everything else (including multi-byte UTF-8) passes through.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b'\n' | b'\r' => out.push_str(&format!("%{b:02x}")),
            _ => out.push(b as char),
        }
    }
    // An empty token would vanish between separators; mark it explicitly.
    if out.is_empty() {
        out.push_str("%00");
    }
    out
}

fn unescape(s: &str) -> Result<String, StreamError> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| codec_err("truncated escape"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| codec_err("invalid escape"))?;
            let b = u8::from_str_radix(hex, 16).map_err(|_| codec_err("invalid escape"))?;
            if b != 0 {
                out.push(b);
            }
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| codec_err("escaped string is not UTF-8"))
}

/// Encode one value as a single space-free token:
/// `n` (null), `i:<int>`, `f:<f64 bits as hex>`, `d:<day number>`,
/// `s:<escaped string>`.  Floats round-trip exactly via their bits.
fn write_value(v: &Value) -> String {
    match v {
        Value::Null => "n".to_string(),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{:016x}", f.to_bits()),
        Value::Date(d) => format!("d:{}", d.days()),
        Value::Str(s) => format!("s:{}", escape(s)),
    }
}

fn parse_value(tok: &str) -> Result<Value, StreamError> {
    if tok == "n" {
        return Ok(Value::Null);
    }
    let (tag, body) = tok
        .split_once(':')
        .ok_or_else(|| codec_err(format!("malformed value token '{tok}'")))?;
    Ok(match tag {
        "i" => Value::Int(
            body.parse()
                .map_err(|_| codec_err(format!("bad int '{body}'")))?,
        ),
        "f" => Value::Float(f64::from_bits(
            u64::from_str_radix(body, 16)
                .map_err(|_| codec_err(format!("bad float bits '{body}'")))?,
        )),
        "d" => Value::Date(Date::from_days(
            body.parse()
                .map_err(|_| codec_err(format!("bad date '{body}'")))?,
        )),
        "s" => Value::Str(unescape(body)?),
        _ => return Err(codec_err(format!("unknown value tag '{tag}'"))),
    })
}

fn write_row(out: &mut String, row: &[Value]) {
    out.push_str("row");
    for v in row {
        out.push(' ');
        out.push_str(&write_value(v));
    }
    out.push('\n');
}

fn parse_row(rest: &str) -> Result<Vec<Value>, StreamError> {
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    rest.split(' ').map(parse_value).collect()
}

fn write_machine(out: &mut String, machine: &EngineMachine) {
    use crate::engine::{BtFrame, BtPc};
    match machine {
        EngineMachine::Naive(m) => {
            out.push_str(&format!(
                "machine naive {} {} {} {} {}\n",
                m.start,
                m.i,
                m.e,
                m.span_start,
                u8::from(m.in_star)
            ));
            write_spans(out, &m.bindings.spans);
        }
        EngineMachine::Backtrack(m) => {
            out.push_str(&format!("machine backtrack {}\n", m.start));
            match m.pc {
                BtPc::Idle => out.push_str("pc idle\n"),
                BtPc::Call { j, i } => out.push_str(&format!("pc call {j} {i}\n")),
                BtPc::Ret { ok } => out.push_str(&format!("pc ret {}\n", u8::from(ok))),
                BtPc::StarExtend => out.push_str("pc starext\n"),
            }
            out.push_str(&format!("frames {}", m.frames.len()));
            for frame in &m.frames {
                match frame {
                    BtFrame::NonStar => out.push_str(" ns"),
                    BtFrame::Star { i, end } => out.push_str(&format!(" st {i} {end}")),
                }
            }
            out.push('\n');
            write_spans(out, &m.bindings.spans);
        }
        EngineMachine::Ops(m) => {
            out.push_str(&format!(
                "machine ops {} {} {} {}\n",
                m.start,
                m.i,
                m.j,
                u8::from(m.finished)
            ));
            out.push_str(&format!("counts {}", m.counts.len()));
            for c in &m.counts {
                out.push_str(&format!(" {c}"));
            }
            out.push('\n');
            write_spans(out, &m.bindings.spans);
        }
    }
}

fn write_spans(out: &mut String, spans: &[(usize, usize)]) {
    out.push_str(&format!("spans {}", spans.len()));
    for (a, b) in spans {
        out.push_str(&format!(" {a} {b}"));
    }
    out.push('\n');
}

fn parse_spans(lines: &mut CheckpointLines<'_>) -> Result<Vec<(usize, usize)>, StreamError> {
    let rest = lines.tagged("spans")?;
    let mut toks = rest.split(' ');
    let n = parse_tok::<usize>(toks.next(), "span count")?;
    let mut spans = Vec::with_capacity(parse_cap(n));
    for _ in 0..n {
        let a = parse_tok::<usize>(toks.next(), "span start")?;
        let b = parse_tok::<usize>(toks.next(), "span end")?;
        spans.push((a, b));
    }
    Ok(spans)
}

fn parse_machine(lines: &mut CheckpointLines<'_>) -> Result<EngineMachine, StreamError> {
    use crate::engine::{BacktrackMachine, BtFrame, BtPc, NaiveMachine, OpsMachine};
    let rest = lines.tagged("machine")?;
    let mut toks = rest.split(' ');
    let kind = toks
        .next()
        .ok_or_else(|| codec_err("machine kind missing"))?;
    match kind {
        "naive" => {
            let start = parse_tok::<usize>(toks.next(), "naive start")?;
            let i = parse_tok::<usize>(toks.next(), "naive i")?;
            let e = parse_tok::<usize>(toks.next(), "naive e")?;
            let span_start = parse_tok::<usize>(toks.next(), "naive span_start")?;
            let in_star = parse_tok::<u8>(toks.next(), "naive in_star")? != 0;
            let spans = parse_spans(lines)?;
            let mut m = NaiveMachine::new();
            m.start = start;
            m.i = i;
            m.e = e;
            m.span_start = span_start;
            m.in_star = in_star;
            m.bindings.spans = spans;
            Ok(EngineMachine::Naive(m))
        }
        "backtrack" => {
            let start = parse_tok::<usize>(toks.next(), "backtrack start")?;
            let rest = lines.tagged("pc")?;
            let mut toks = rest.split(' ');
            let pc = match toks.next().ok_or_else(|| codec_err("pc kind missing"))? {
                "idle" => BtPc::Idle,
                "call" => BtPc::Call {
                    j: parse_tok::<usize>(toks.next(), "pc call j")?,
                    i: parse_tok::<usize>(toks.next(), "pc call i")?,
                },
                "ret" => BtPc::Ret {
                    ok: parse_tok::<u8>(toks.next(), "pc ret ok")? != 0,
                },
                "starext" => BtPc::StarExtend,
                other => return Err(codec_err(format!("unknown pc '{other}'"))),
            };
            let rest = lines.tagged("frames")?;
            let mut toks = rest.split(' ');
            let n = parse_tok::<usize>(toks.next(), "frame count")?;
            let mut frames = Vec::with_capacity(parse_cap(n));
            for _ in 0..n {
                match toks.next().ok_or_else(|| codec_err("frame missing"))? {
                    "ns" => frames.push(BtFrame::NonStar),
                    "st" => frames.push(BtFrame::Star {
                        i: parse_tok::<usize>(toks.next(), "frame i")?,
                        end: parse_tok::<usize>(toks.next(), "frame end")?,
                    }),
                    other => return Err(codec_err(format!("unknown frame '{other}'"))),
                }
            }
            let spans = parse_spans(lines)?;
            let mut m = BacktrackMachine::new();
            m.start = start;
            m.pc = pc;
            m.frames = frames;
            m.bindings.spans = spans;
            Ok(EngineMachine::Backtrack(m))
        }
        "ops" => {
            let start = parse_tok::<usize>(toks.next(), "ops start")?;
            let i = parse_tok::<usize>(toks.next(), "ops i")?;
            let j = parse_tok::<usize>(toks.next(), "ops j")?;
            let finished = parse_tok::<u8>(toks.next(), "ops finished")? != 0;
            let rest = lines.tagged("counts")?;
            let mut toks = rest.split(' ');
            let n = parse_tok::<usize>(toks.next(), "count length")?;
            if n == 0 {
                return Err(codec_err("ops counts must be non-empty"));
            }
            let mut counts = Vec::with_capacity(parse_cap(n));
            for _ in 0..n {
                counts.push(parse_tok::<usize>(toks.next(), "count value")?);
            }
            let spans = parse_spans(lines)?;
            let mut m = OpsMachine::new(n - 1);
            m.start = start;
            m.i = i;
            m.j = j;
            m.finished = finished;
            m.counts = counts;
            m.bindings.spans = spans;
            Ok(EngineMachine::Ops(m))
        }
        other => Err(codec_err(format!("unknown machine kind '{other}'"))),
    }
}

fn write_event(out: &mut String, event: &TraceEvent) {
    match event {
        TraceEvent::Advance { i, j } => out.push_str(&format!("ev a {i} {j}\n")),
        TraceEvent::Fail { i, j } => out.push_str(&format!("ev f {i} {j}\n")),
        TraceEvent::Shift { j, dist } => out.push_str(&format!("ev s {j} {dist}\n")),
        TraceEvent::Next { j, k } => out.push_str(&format!("ev n {j} {k}\n")),
        TraceEvent::MatchEmitted { start, end } => out.push_str(&format!("ev m {start} {end}\n")),
        TraceEvent::GovernorTrip { cause } => out.push_str(&format!("ev g {}\n", cause.as_str())),
    }
}

fn parse_trip_cause(name: &str) -> Result<TripCause, StreamError> {
    TripCause::parse(name).ok_or_else(|| codec_err(format!("unknown trip cause '{name}'")))
}

fn parse_event(rest: &str) -> Result<TraceEvent, StreamError> {
    let mut toks = rest.split(' ');
    let kind = toks.next().ok_or_else(|| codec_err("event kind missing"))?;
    Ok(match kind {
        "a" => TraceEvent::Advance {
            i: parse_tok::<u32>(toks.next(), "event i")?,
            j: parse_tok::<u32>(toks.next(), "event j")?,
        },
        "f" => TraceEvent::Fail {
            i: parse_tok::<u32>(toks.next(), "event i")?,
            j: parse_tok::<u32>(toks.next(), "event j")?,
        },
        "s" => TraceEvent::Shift {
            j: parse_tok::<u32>(toks.next(), "event j")?,
            dist: parse_tok::<u32>(toks.next(), "event dist")?,
        },
        "n" => TraceEvent::Next {
            j: parse_tok::<u32>(toks.next(), "event j")?,
            k: parse_tok::<u32>(toks.next(), "event k")?,
        },
        "m" => TraceEvent::MatchEmitted {
            start: parse_tok::<u32>(toks.next(), "event start")?,
            end: parse_tok::<u32>(toks.next(), "event end")?,
        },
        "g" => TraceEvent::GovernorTrip {
            cause: parse_trip_cause(toks.next().ok_or_else(|| codec_err("trip cause missing"))?)?,
        },
        other => return Err(codec_err(format!("unknown event kind '{other}'"))),
    })
}

/// A recorder's event ring: an `events <capacity> <dropped> <len>` line,
/// then one `ev` line per retained event, oldest first.
fn write_ring(out: &mut String, rb: &RingBuffer) {
    out.push_str(&format!(
        "events {} {} {}\n",
        rb.capacity(),
        rb.dropped(),
        rb.len()
    ));
    for event in rb.events() {
        write_event(out, event);
    }
}

fn parse_ring(lines: &mut CheckpointLines<'_>) -> Result<RingBuffer, StreamError> {
    let rest = lines.tagged("events")?;
    let mut toks = rest.split(' ');
    let capacity = parse_tok::<usize>(toks.next(), "ring capacity")?;
    let dropped = parse_tok::<u64>(toks.next(), "ring dropped")?;
    let n = parse_tok::<usize>(toks.next(), "ring length")?;
    let mut events = Vec::with_capacity(parse_cap(n));
    for _ in 0..n {
        events.push(parse_event(lines.tagged("ev")?)?);
    }
    Ok(RingBuffer::from_parts(capacity, events, dropped))
}

fn write_recorder(out: &mut String, rec: &ClusterRecorder) {
    out.push_str(&format!(
        "recorder {}",
        rec.metrics.tests_per_position.len()
    ));
    for t in &rec.metrics.tests_per_position {
        out.push_str(&format!(" {t}"));
    }
    out.push('\n');
    write_hist(out, "shifts", &rec.metrics.shifts);
    write_hist(out, "backs", &rec.metrics.backtracks);
    out.push_str(&format!("matches {}\n", rec.metrics.matches));
    out.push_str(&format!("flushes {}\n", rec.metrics.governor_flushes));
    match rec.metrics.trip {
        None => out.push_str("trip none\n"),
        Some(cause) => out.push_str(&format!("trip {}\n", cause.as_str())),
    }
    out.push_str(&format!("lasti {}\n", rec.last_i()));
    write_ring(out, &rec.events);
}

fn parse_recorder(lines: &mut CheckpointLines<'_>) -> Result<Option<ClusterRecorder>, StreamError> {
    let rest = lines.tagged("recorder")?;
    if rest == "none" {
        return Ok(None);
    }
    let mut toks = rest.split(' ');
    let n = parse_tok::<usize>(toks.next(), "tests length")?;
    let mut tests_per_position = Vec::with_capacity(parse_cap(n));
    for _ in 0..n {
        tests_per_position.push(parse_tok::<u64>(toks.next(), "tests value")?);
    }
    let shifts = parse_hist(lines, "shifts")?;
    let backtracks = parse_hist(lines, "backs")?;
    let matches = lines.tagged_parse::<u64>("matches")?;
    let governor_flushes = lines.tagged_parse::<u64>("flushes")?;
    let rest = lines.tagged("trip")?;
    let trip = if rest == "none" {
        None
    } else {
        Some(parse_trip_cause(rest)?)
    };
    let last_i = lines.tagged_parse::<u32>("lasti")?;
    let events = parse_ring(lines)?;
    let metrics = ClusterMetrics {
        tests_per_position,
        shifts,
        backtracks,
        matches,
        governor_flushes,
        trip,
    };
    Ok(Some(ClusterRecorder::from_parts(metrics, events, last_i)))
}

fn write_hist(out: &mut String, tag: &str, hist: &BoundedHistogram) {
    out.push_str(tag);
    for b in hist.raw_buckets() {
        out.push_str(&format!(" {b}"));
    }
    out.push_str(&format!(
        " {} {} {}\n",
        hist.count(),
        hist.sum(),
        hist.max()
    ));
}

fn parse_hist(lines: &mut CheckpointLines<'_>, tag: &str) -> Result<BoundedHistogram, StreamError> {
    let rest = lines.tagged(tag)?;
    let mut toks = rest.split(' ');
    let mut buckets = [0u64; HIST_BUCKETS];
    for bucket in &mut buckets {
        *bucket = parse_tok::<u64>(toks.next(), "histogram bucket")?;
    }
    let count = parse_tok::<u64>(toks.next(), "histogram count")?;
    let sum = parse_tok::<u64>(toks.next(), "histogram sum")?;
    let max = parse_tok::<u64>(toks.next(), "histogram max")?;
    Ok(BoundedHistogram::from_parts(buckets, count, sum, max))
}

/// A cursor over the checkpoint's lines with error positions.
struct CheckpointLines<'a> {
    iter: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> CheckpointLines<'a> {
    fn new(text: &'a str) -> CheckpointLines<'a> {
        CheckpointLines {
            iter: text.lines(),
            lineno: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, StreamError> {
        self.lineno += 1;
        self.iter.next().ok_or_else(|| {
            codec_err(format!(
                "unexpected end of checkpoint at line {}",
                self.lineno
            ))
        })
    }

    fn expect_literal(&mut self, literal: &str) -> Result<(), StreamError> {
        let line = self.next()?;
        if line != literal {
            return Err(codec_err(format!(
                "line {}: expected '{literal}', found '{line}'",
                self.lineno
            )));
        }
        Ok(())
    }

    /// The rest of a line after a required leading tag (empty string when
    /// the line is exactly the tag).
    fn tagged(&mut self, tag: &str) -> Result<&'a str, StreamError> {
        let line = self.next()?;
        if line == tag {
            return Ok("");
        }
        line.strip_prefix(tag)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| {
                codec_err(format!(
                    "line {}: expected '{tag} …', found '{line}'",
                    self.lineno
                ))
            })
    }

    /// Require that nothing but blank lines follows — trailing garbage
    /// after the `end` marker means the text is not a checkpoint this
    /// version wrote, and silently ignoring it would mask corruption.
    fn expect_eof(&mut self) -> Result<(), StreamError> {
        for line in self.iter.by_ref() {
            self.lineno += 1;
            if !line.trim().is_empty() {
                return Err(codec_err(format!(
                    "line {}: trailing content after 'end': '{line}'",
                    self.lineno
                )));
            }
        }
        Ok(())
    }

    fn tagged_parse<T: std::str::FromStr>(&mut self, tag: &str) -> Result<T, StreamError> {
        let rest = self.tagged(tag)?;
        rest.parse::<T>()
            .map_err(|_| codec_err(format!("line {}: bad '{tag}' value '{rest}'", self.lineno)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecError, Instrument};
    use crate::governor::Governor;
    use sqlts_lang::{compile, CompileOptions};
    use sqlts_relation::{ColumnType, Schema};
    use std::num::NonZeroUsize;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("day", ColumnType::Int),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    const QUERY: &str = "SELECT X.name, Z.price AS peak, Z.day AS day FROM quote \
                         CLUSTER BY name SEQUENCE BY day AS (X, *Y, Z) \
                         WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

    fn compiled(src: &str) -> CompiledQuery {
        compile(src, &quote_schema(), &CompileOptions::default()).unwrap()
    }

    /// A deterministic two-cluster zig-zag workload.
    fn workload() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for (name, phase) in [("AAA", 0u64), ("BBB", 3u64)] {
            for day in 0..40u64 {
                let wave = ((day + phase) % 7) as f64;
                rows.push(vec![
                    Value::Str(name.to_string()),
                    Value::Int(day as i64),
                    Value::Float(100.0 + 3.0 * wave - 0.1 * day as f64),
                ]);
            }
        }
        // Interleave the clusters to exercise per-cluster windows.
        let mid = rows.len() / 2;
        let (a, b) = rows.split_at(mid);
        let mut interleaved = Vec::new();
        for (x, y) in a.iter().zip(b) {
            interleaved.push(x.clone());
            interleaved.push(y.clone());
        }
        interleaved
    }

    fn batch_table(rows: &[Vec<Value>]) -> Table {
        let mut t = Table::new(quote_schema());
        for row in rows {
            t.push_row(row.clone()).unwrap();
        }
        t
    }

    fn all_engines() -> [EngineKind; 4] {
        [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ]
    }

    fn stream_opts(engine: EngineKind) -> StreamOptions {
        StreamOptions {
            exec: ExecOptions {
                engine,
                instrument: Instrument::tracing(),
                ..ExecOptions::default()
            },
            ..StreamOptions::default()
        }
    }

    fn table_rows(t: &Table) -> Vec<Vec<Value>> {
        t.rows().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn margins_cover_previous_and_next() {
        // `next` is only legal in SELECT (the binder rejects it in WHERE),
        // so predicate margins only ever look backwards; the projection
        // can reach one tuple ahead.
        let q = compiled(
            "SELECT X.price AS p, Y.next.price AS nx FROM quote \
             CLUSTER BY name SEQUENCE BY day AS (X, Y) \
             WHERE X.price > X.previous.price AND Y.price < Y.previous.price",
        );
        let m = margins_of(&q);
        assert_eq!(m.test_ahead, 0);
        assert_eq!(m.test_behind, 1);
        assert_eq!(m.proj_ahead, 1);
        assert_eq!(m.proj_behind, 0);
    }

    #[test]
    fn streamed_equals_batch_for_every_engine() {
        let query = compiled(QUERY);
        let rows = workload();
        let table = batch_table(&rows);
        for engine in all_engines() {
            let opts = stream_opts(engine);
            let batch = execute(&query, &table, &opts.exec).unwrap();
            let mut session = StreamSession::new(&query, opts).unwrap();
            for row in &rows {
                session.feed(row.clone()).unwrap();
            }
            let streamed = session.finish().unwrap();
            assert_eq!(
                table_rows(&streamed.table),
                table_rows(&batch.table),
                "{engine:?} rows"
            );
            assert_eq!(streamed.stats, batch.stats, "{engine:?} stats");
            let (sp, bp) = (streamed.profile.unwrap(), batch.profile.unwrap());
            assert_eq!(sp.clusters, bp.clusters, "{engine:?} cluster profiles");
            assert_eq!(sp.totals, bp.totals, "{engine:?} profile totals");
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let query = compiled(QUERY);
        let rows = workload();
        let table = batch_table(&rows);
        for engine in [EngineKind::Ops, EngineKind::Naive] {
            let batch = execute(&query, &table, &stream_opts(engine).exec).unwrap();
            for split in [1usize, 7, rows.len() / 2, rows.len() - 1] {
                let mut first = StreamSession::new(&query, stream_opts(engine)).unwrap();
                for row in &rows[..split] {
                    first.feed(row.clone()).unwrap();
                }
                let text = first.snapshot().unwrap().to_text();
                drop(first);
                let checkpoint = SessionCheckpoint::from_text(&text).unwrap();
                let mut second =
                    StreamSession::resume(&query, stream_opts(engine), checkpoint).unwrap();
                assert_eq!(second.records(), split as u64);
                for row in &rows[split..] {
                    second.feed(row.clone()).unwrap();
                }
                let resumed = second.finish().unwrap();
                assert_eq!(
                    table_rows(&resumed.table),
                    table_rows(&batch.table),
                    "{engine:?} split {split} rows"
                );
                assert_eq!(resumed.stats, batch.stats, "{engine:?} split {split} stats");
                let (rp, bp) = (resumed.profile.unwrap(), batch.profile.clone().unwrap());
                assert_eq!(rp.clusters, bp.clusters, "{engine:?} split {split} profile");
            }
        }
    }

    #[test]
    fn checkpoint_text_round_trips() {
        let query = compiled(QUERY);
        let rows = workload();
        let mut opts = stream_opts(EngineKind::Ops);
        opts.bad_tuple = BadTuplePolicy::Quarantine { cap: 4 };
        let mut session = StreamSession::new(&query, opts).unwrap();
        for row in &rows[..17] {
            session.feed(row.clone()).unwrap();
        }
        // Park something in quarantine so that section round-trips too.
        session
            .quarantine_external("synthetic, with spaces".into(), "a,b c%d".into())
            .unwrap();
        let checkpoint = session.snapshot().unwrap();
        let text = checkpoint.to_text();
        let parsed = SessionCheckpoint::from_text(&text).unwrap();
        assert_eq!(parsed.to_text(), text, "codec must be a fixed point");
    }

    #[test]
    fn bad_tuple_policies() {
        let query = compiled(QUERY);
        let good = vec![Value::Str("AAA".into()), Value::Int(0), Value::Float(100.0)];
        let wrong_arity = vec![Value::Str("AAA".into())];
        // Fail (the default) surfaces the error.
        let mut fail = StreamSession::new(&query, stream_opts(EngineKind::Ops)).unwrap();
        fail.feed(good.clone()).unwrap();
        match fail.feed(wrong_arity.clone()) {
            Err(StreamError::BadTuple(bad)) => {
                assert_eq!(bad.record, 2);
                assert_eq!(bad.rendered, "AAA");
            }
            other => panic!("expected BadTuple, got {other:?}"),
        }
        // Skip counts and continues.
        let mut opts = stream_opts(EngineKind::Ops);
        opts.bad_tuple = BadTuplePolicy::Skip;
        let mut skip = StreamSession::new(&query, opts).unwrap();
        skip.feed(good.clone()).unwrap();
        skip.feed(wrong_arity.clone()).unwrap();
        assert_eq!(skip.skipped(), 1);
        assert_eq!(skip.records(), 2);
        // Quarantine parks up to the cap, then refuses.
        let mut opts = stream_opts(EngineKind::Ops);
        opts.bad_tuple = BadTuplePolicy::Quarantine { cap: 1 };
        let mut quarantine = StreamSession::new(&query, opts).unwrap();
        quarantine.feed(wrong_arity.clone()).unwrap();
        assert_eq!(quarantine.quarantine().len(), 1);
        match quarantine.feed(wrong_arity) {
            Err(StreamError::QuarantineFull { cap: 1, tuple }) => assert_eq!(tuple.record, 2),
            other => panic!("expected QuarantineFull, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_sequence_key_is_rejected() {
        let query = compiled(QUERY);
        let mut session = StreamSession::new(&query, stream_opts(EngineKind::Ops)).unwrap();
        let row = |day: i64| {
            vec![
                Value::Str("AAA".into()),
                Value::Int(day),
                Value::Float(100.0),
            ]
        };
        session.feed(row(5)).unwrap();
        match session.feed(row(3)) {
            Err(StreamError::BadTuple(bad)) => {
                assert!(bad.reason.contains("out-of-order"), "{}", bad.reason)
            }
            other => panic!("expected BadTuple, got {other:?}"),
        }
        // Order is per cluster: another cluster may start anywhere.
        session
            .feed(vec![
                Value::Str("BBB".into()),
                Value::Int(0),
                Value::Float(100.0),
            ])
            .unwrap();
    }

    /// Quotes on two venues: the cluster key is `(name, venue)`, columns
    /// 0 and 2, with the sequence column between them.
    fn venue_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("day", ColumnType::Int),
            ("venue", ColumnType::Int),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    const VENUE_QUERY: &str = "SELECT X.name, X.venue, Z.day AS day FROM quote \
                               CLUSTER BY name, venue SEQUENCE BY day AS (X, *Y, Z) \
                               WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

    fn venue_row(name: &str, day: i64, venue: i64, price: f64) -> Vec<Value> {
        vec![
            Value::Str(name.into()),
            Value::Int(day),
            Value::Int(venue),
            Value::Float(price),
        ]
    }

    #[test]
    fn streamed_equals_batch_with_a_two_column_non_adjacent_cluster_key() {
        let query = compile(VENUE_QUERY, &venue_schema(), &CompileOptions::default()).unwrap();
        // Four clusters interleaved day by day; each (name, venue) pair
        // zig-zags on its own phase.
        let mut rows = Vec::new();
        for day in 0..40i64 {
            for (name, venue, phase) in [("AAA", 1, 0), ("BBB", 1, 2), ("AAA", 2, 4), ("BBB", 2, 5)]
            {
                let wave = ((day + phase) % 7) as f64;
                rows.push(venue_row(name, day, venue, 100.0 + 3.0 * wave));
            }
        }
        let mut table = Table::new(venue_schema());
        for row in &rows {
            table.push_row(row.clone()).unwrap();
        }
        for engine in all_engines() {
            let opts = stream_opts(engine);
            let batch = execute(&query, &table, &opts.exec).unwrap();
            assert_eq!(batch.stats.clusters, 4);
            assert!(batch.stats.matches > 0);
            let mut session = StreamSession::new(&query, opts).unwrap();
            for row in &rows {
                session.feed(row.clone()).unwrap();
            }
            let streamed = session.finish().unwrap();
            assert_eq!(
                table_rows(&streamed.table),
                table_rows(&batch.table),
                "{engine:?} rows"
            );
            assert_eq!(streamed.stats, batch.stats, "{engine:?} stats");
            let (sp, bp) = (streamed.profile.unwrap(), batch.profile.unwrap());
            assert_eq!(sp.clusters, bp.clusters, "{engine:?} cluster profiles");
        }
    }

    #[test]
    fn owned_borrowed_and_probe_keys_order_alike() {
        // The registry is keyed by `ClusterKey`, probed through `dyn
        // KeyView` with a `RowKey`: the three orders must be one order.
        let rows = [
            vec![Value::Null, Value::Int(1)],
            vec![Value::Int(10), Value::from("a")],
            vec![Value::Float(10.0), Value::from("b")],
            vec![Value::Float(9.5), Value::from("b")],
            vec![Value::from("x"), Value::Null],
        ];
        // Key column lists, the prefix of another among them.
        let shapes: [&[usize]; 4] = [&[], &[0], &[0, 1], &[1, 0]];
        for a in &rows {
            for b in &rows {
                for cols_a in shapes {
                    for cols_b in shapes {
                        let (ra, rb) = (RowKey::new(a, cols_a), RowKey::new(b, cols_b));
                        let (oa, ob) = (ClusterKey(ra.to_vec()), ClusterKey(rb.to_vec()));
                        let want = oa.cmp(&ob);
                        let context = format!("{oa:?} vs {ob:?}");
                        assert_eq!(ra.cmp(&rb), want, "RowKey {context}");
                        let probes: [(&dyn KeyView, &dyn KeyView); 3] =
                            [(&ra, &rb), (&ra, &ob), (&oa, &rb)];
                        for (x, y) in probes {
                            assert_eq!(x.cmp(y), want, "dyn KeyView {context}");
                            assert_eq!(x == y, want.is_eq(), "dyn KeyView {context}");
                        }
                    }
                }
            }
        }
        assert!(ClusterKey(vec![Value::Int(10)]) == ClusterKey(vec![Value::Float(10.0)]));
        assert!(ClusterKey(vec![Value::Int(10)]) < ClusterKey(vec![Value::Int(10), Value::Null]));
    }

    #[test]
    fn out_of_order_reject_text_is_pinned() {
        // One-column key.
        let query = compiled(QUERY);
        let mut session = StreamSession::new(&query, stream_opts(EngineKind::Ops)).unwrap();
        let row = |day: i64| {
            vec![
                Value::Str("AAA".into()),
                Value::Int(day),
                Value::Float(100.5),
            ]
        };
        session.feed(row(5)).unwrap();
        let err = session.feed(row(3)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad tuple at record 2: out-of-order SEQUENCE BY key (3) in cluster (AAA) \
             (AAA,3,100.5)"
        );
        // An equal key is in order; the rejected row left no trace.
        session.feed(row(5)).unwrap();
        assert_eq!(session.records(), 3);

        // Two-column key.
        let query = compile(VENUE_QUERY, &venue_schema(), &CompileOptions::default()).unwrap();
        let mut session = StreamSession::new(&query, stream_opts(EngineKind::Ops)).unwrap();
        session.feed(venue_row("AAA", 5, 2, 100.0)).unwrap();
        // Same name on another venue is another cluster: any day goes.
        session.feed(venue_row("AAA", 1, 1, 100.0)).unwrap();
        let err = session.feed(venue_row("AAA", 4, 2, 99.0)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad tuple at record 3: out-of-order SEQUENCE BY key (4) in cluster (AAA, 2) \
             (AAA,4,2,99.0)"
        );
    }

    #[test]
    fn quarantined_rows_are_pinned() {
        // The row is validated once, before admission; the records a bad
        // row leaves behind must read exactly as they always have.
        let query = compiled(QUERY);
        let mut opts = stream_opts(EngineKind::Ops);
        opts.bad_tuple = BadTuplePolicy::Quarantine { cap: 4 };
        let mut session = StreamSession::new(&query, opts).unwrap();
        session
            .feed(vec![
                Value::Str("AAA".into()),
                Value::Int(1),
                Value::Float(100.0),
            ])
            .unwrap();
        session
            .feed(vec![
                Value::Str("AAA".into()),
                Value::Str("soon".into()),
                Value::Float(1.0),
            ])
            .unwrap();
        session
            .feed(vec![Value::Str("AAA".into()), Value::Int(2)])
            .unwrap();
        session
            .feed(vec![Value::Str("AAA".into()), Value::Int(0), Value::Null])
            .unwrap();
        let parked: Vec<String> = session.quarantine().iter().map(|b| b.to_string()).collect();
        assert_eq!(
            parked,
            [
                "record 2: value soon does not fit column day of type INT (AAA,soon,1.0)",
                "record 3: row has 2 values, schema has 3 columns (AAA,2)",
                "record 4: out-of-order SEQUENCE BY key (0) in cluster (AAA) (AAA,0,NULL)",
            ]
        );
        // None of them reached the window or moved the order high-water mark.
        session
            .feed(vec![
                Value::Str("AAA".into()),
                Value::Int(1),
                Value::Float(99.0),
            ])
            .unwrap();
        let result = session.finish().unwrap();
        assert_eq!(result.stats.tuples, 2);
    }

    #[test]
    fn window_bytes_counts_exactly_the_buffered_rows() {
        // The estimate `/status` reports: after every feed and after a
        // resume it is the sum over the rows the windows still hold, and
        // compaction keeps that a few rows per cluster.
        let query = compiled(QUERY);
        let rows = workload();
        let buffered = |s: &StreamSession| -> (usize, usize) {
            let held = s.group.window.clusters.iter().flat_map(|cw| cw.buf.rows());
            held.fold((0, 0), |(n, bytes), row| (n + 1, bytes + row_bytes(row)))
        };
        let mut session = StreamSession::new(&query, stream_opts(EngineKind::Ops)).unwrap();
        for row in &rows {
            session.feed(row.clone()).unwrap();
            let (held, bytes) = buffered(&session);
            assert_eq!(session.window_bytes(), bytes);
            assert!(held <= 16, "{held} rows buffered");
        }
        let checkpoint = session.snapshot().unwrap();
        let resumed =
            StreamSession::resume(&query, stream_opts(EngineKind::Ops), checkpoint).unwrap();
        assert_eq!(resumed.window_bytes(), session.window_bytes());
        assert_eq!(buffered(&resumed), buffered(&session));
    }

    #[test]
    fn governed_session_trips_and_finish_carries_partial() {
        let query = compiled(QUERY);
        let rows = workload();
        let mut opts = stream_opts(EngineKind::Ops);
        opts.exec.governor = Governor::unlimited().with_max_steps(40);
        let mut session = StreamSession::new(&query, opts).unwrap();
        let mut governed = false;
        for row in &rows {
            match session.feed(row.clone()) {
                Ok(()) => {}
                Err(StreamError::Governed { .. }) => {
                    governed = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(governed, "a 40-step budget must trip on this workload");
        assert!(session.tripped());
        // A tripped session can still checkpoint…
        let checkpoint = session.snapshot().unwrap();
        assert!(checkpoint.records() > 0);
        // …and finish() reports the trip with the partial result attached.
        match session.finish() {
            Err(StreamError::Governed { partial, .. }) => {
                assert!(partial.is_some());
            }
            other => panic!("expected Governed from finish, got {:?}", other.err()),
        }
        // Resuming from the checkpoint with a fresh (unlimited) governor
        // completes the stream.
        let resumed = StreamSession::resume(&query, stream_opts(EngineKind::Ops), checkpoint);
        assert!(resumed.is_ok());
    }

    #[test]
    fn stalled_session_trips_deadline_via_poll() {
        use crate::governor::TripReason;
        use std::time::Duration;
        // Regression (PR 5 note): the wall-clock deadline used to be
        // observed only at feed boundaries, so a tenant that stopped
        // feeding never tripped and never released its budget.  A stalled
        // session must now trip from `poll_deadline` alone.
        let query = compiled(QUERY);
        let mut opts = stream_opts(EngineKind::Ops);
        opts.exec.governor = Governor::unlimited().with_timeout(Duration::from_millis(5));
        let mut session = StreamSession::new(&query, opts).unwrap();
        session
            .feed(vec![
                Value::Str("AAA".into()),
                Value::Int(0),
                Value::Float(100.0),
            ])
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // No further feed: the idle poll alone must observe the deadline.
        match session.poll_deadline() {
            Err(StreamError::Governed { trip, partial }) => {
                assert_eq!(trip.reason, TripReason::Deadline);
                assert!(partial.is_none());
            }
            other => panic!("expected Governed from poll_deadline, got {other:?}"),
        }
        assert!(session.tripped());
        // The trip is latched: a later feed reports the same verdict.
        match session.feed(vec![
            Value::Str("AAA".into()),
            Value::Int(1),
            Value::Float(100.0),
        ]) {
            Err(StreamError::Governed { trip, .. }) => {
                assert_eq!(trip.reason, TripReason::Deadline)
            }
            other => panic!("expected latched Governed, got {other:?}"),
        }
        // An ungoverned session's poll is a no-op.
        let mut free = StreamSession::new(&query, stream_opts(EngineKind::Ops)).unwrap();
        assert!(free.poll_deadline().is_ok());
    }

    #[test]
    fn threads_do_not_change_streamed_results() {
        let query = compiled(QUERY);
        let rows = workload();
        let table = batch_table(&rows);
        let mut opts = stream_opts(EngineKind::Ops);
        opts.exec.threads = NonZeroUsize::new(4).unwrap();
        let batch = execute(&query, &table, &opts.exec).unwrap();
        let mut session = StreamSession::new(&query, opts).unwrap();
        for row in &rows {
            session.feed(row.clone()).unwrap();
        }
        let streamed = session.finish().unwrap();
        assert_eq!(table_rows(&streamed.table), table_rows(&batch.table));
        assert_eq!(streamed.stats, batch.stats);
        assert_eq!(
            streamed.profile.unwrap().clusters,
            batch.profile.unwrap().clusters
        );
    }

    #[test]
    fn governed_err_from_execute_matches_stream_governed() {
        // Sanity: the batch executor and the stream session surface the
        // same trip reason for the same budget.
        let query = compiled(QUERY);
        let rows = workload();
        let table = batch_table(&rows);
        let mut opts = stream_opts(EngineKind::Ops);
        opts.exec.governor = Governor::unlimited().with_max_steps(40);
        let batch_err = execute(&query, &table, &opts.exec).unwrap_err();
        let ExecError::Governed {
            trip: batch_trip, ..
        } = batch_err
        else {
            panic!("expected governed batch run");
        };
        let mut session = StreamSession::new(&query, opts).unwrap();
        let mut stream_trip = None;
        for row in &rows {
            if let Err(StreamError::Governed { trip, .. }) = session.feed(row.clone()) {
                stream_trip = Some(trip);
                break;
            }
        }
        assert_eq!(stream_trip.unwrap().reason, batch_trip.reason);
    }

    #[test]
    fn a_step_budget_trips_at_the_feed_that_crosses_it_as_batch_does() {
        // Regression: the lanes of four clusters, driven in turn, each held
        // credit for the whole budget, so all ten feeds passed, 10 tests
        // were spent, and only `finish` reported the trip.
        let query = compiled(
            "SELECT FIRST(V0).day AS day FROM quote CLUSTER BY name SEQUENCE BY day \
             AS (*V0, V1, V2, V3, V4) WHERE V0.price > 0 AND V1.price > 0 \
             AND V2.price > 0 AND V3.price > 0 AND V4.price > 0",
        );
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                let name = ["A", "B", "C", "D"][i % 4];
                vec![
                    Value::Str(name.into()),
                    Value::Int(i as i64),
                    Value::Float(1.0 + i as f64),
                ]
            })
            .collect();
        let mut opts = stream_opts(EngineKind::Naive);
        opts.exec.governor = Governor::unlimited().with_max_steps(5);
        let Err(ExecError::Governed { trip, partial }) =
            execute(&query, &batch_table(&rows), &opts.exec)
        else {
            panic!("a 5-step budget must trip the batch run");
        };
        assert_eq!((trip.steps, partial.stats.predicate_tests), (6, 6));
        let mut session = StreamSession::new(&query, opts).unwrap();
        let crossed = rows.iter().position(|row| match session.feed(row.clone()) {
            Ok(()) => false,
            Err(StreamError::Governed { trip, .. }) => {
                assert_eq!(trip.steps, 6);
                true
            }
            Err(e) => panic!("{e}"),
        });
        assert!(crossed.is_some(), "no feed reported the trip");
        assert_eq!(session.predicate_tests(), partial.stats.predicate_tests);
        assert!(session.poll_deadline().is_err());
        match session.finish() {
            Err(StreamError::Governed { trip, partial }) => {
                assert_eq!(trip.steps, 6);
                assert_eq!(partial.unwrap().stats.predicate_tests, 6);
            }
            other => panic!("expected Governed from finish, got {:?}", other.err()),
        }
    }

    #[test]
    fn a_session_owns_its_query() {
        fn owned<T: Send + 'static>(_: &T) {}
        let rows = workload();
        let expected = execute(
            &compiled(QUERY),
            &batch_table(&rows),
            &ExecOptions::default(),
        );
        let mut session = {
            let query = compiled(QUERY);
            StreamSession::new(&query, StreamOptions::default()).unwrap()
        };
        owned(&session);
        for row in &rows {
            session.feed(row.clone()).unwrap();
        }
        let streamed = session.finish().unwrap();
        assert_eq!(streamed.table, expected.unwrap().table);
    }

    /// Queries that admit alike (`CLUSTER BY name SEQUENCE BY day`) but
    /// differ in pattern, lookbehind and projection lookahead, so their
    /// floors in a shared window differ.
    const GROUP_QUERIES: [&str; 3] = [
        QUERY,
        "SELECT X.name, Y.next.price AS nx FROM quote CLUSTER BY name SEQUENCE BY day \
         AS (X, Y) WHERE X.price > X.previous.price AND Y.price < Y.previous.price",
        "SELECT FIRST(Y).day AS from_day, Z.day AS to_day FROM quote CLUSTER BY name \
         SEQUENCE BY day AS (*Y, Z) WHERE Y.price < Y.previous.price \
         AND Z.price > Z.previous.price",
    ];

    /// A group of one running `query`.
    fn group_of(query: &CompiledQuery, options: StreamOptions) -> SessionGroup {
        SessionGroup::open(Arc::new(query.clone()), options, None).unwrap()
    }

    /// What a feed returned, with the trip's wall clock left out.
    fn verdict(result: &Result<(), StreamError>) -> String {
        match result {
            Ok(()) => "ok".into(),
            Err(StreamError::Governed { trip, .. }) => {
                format!("governed {:?} {} {}", trip.reason, trip.steps, trip.matches)
            }
            Err(e) => e.to_string(),
        }
    }

    /// Feed `rows` to a group of `members` and to one solo session per
    /// member side by side: every seat must read back exactly its solo
    /// session — each feed's verdict, status and checkpoint bytes along
    /// the way, and the finished result.  Returns the group for further
    /// inspection.
    fn assert_group_reads_back_solo(
        members: &[(&CompiledQuery, StreamOptions)],
        rows: &[Vec<Value>],
    ) -> SessionGroup {
        let mut solos: Vec<StreamSession> = members
            .iter()
            .map(|(q, o)| StreamSession::new(q, o.clone()).unwrap())
            .collect();
        let mut group = group_of(members[0].0, members[0].1.clone());
        for (i, (q, o)) in members.iter().enumerate().skip(1) {
            assert_eq!(group.join(group_of(q, o.clone())).ok(), Some(i), "seat {i}");
        }
        for (n, row) in rows.iter().enumerate() {
            let mut fed = vec![None; solos.len()];
            group.feed([row.clone()], &mut |seat, result| {
                fed[seat] = Some(verdict(&result))
            });
            for (seat, solo) in solos.iter_mut().enumerate() {
                let want = verdict(&solo.feed(row.clone()));
                assert_eq!(
                    fed[seat].as_deref(),
                    Some(want.as_str()),
                    "seat {seat} row {n}"
                );
            }
            for (slot, cw) in group.window.clusters.iter().enumerate() {
                assert_eq!(cw.base.min(cw.end()), group.floor(slot).min(cw.end()));
            }
            if n % 5 != 0 {
                continue;
            }
            for (seat, solo) in solos.iter().enumerate() {
                let view = group.view(seat).unwrap();
                let at = format!("seat {seat} row {n}");
                assert_eq!(view.records(), solo.records(), "{at}");
                assert_eq!(view.skipped(), solo.skipped(), "{at}");
                assert_eq!(view.quarantine(), solo.quarantine(), "{at}");
                assert_eq!(view.window_bytes(), solo.window_bytes(), "{at}");
                assert_eq!(view.predicate_tests(), solo.predicate_tests(), "{at}");
                assert_eq!(view.poisoned(), solo.poisoned(), "{at}");
                let (ours, theirs) = (view.snapshot().unwrap(), solo.snapshot().unwrap());
                assert_eq!(ours.to_text(), theirs.to_text(), "{at}");
            }
        }
        for (seat, solo) in solos.into_iter().enumerate() {
            let finished = |r: Result<QueryResult, StreamError>| match r {
                Ok(result) => result,
                Err(StreamError::Governed {
                    partial: Some(partial),
                    ..
                }) => *partial,
                Err(e) => panic!("seat {seat}: {e}"),
            };
            let ours = finished(group.finish(seat).unwrap());
            let theirs = finished(solo.finish());
            assert_eq!(
                table_rows(&ours.table),
                table_rows(&theirs.table),
                "seat {seat}"
            );
            assert_eq!(ours.stats, theirs.stats, "seat {seat}");
            let clusters = |r: &QueryResult| r.profile.as_ref().map(|p| p.clusters.clone());
            assert_eq!(clusters(&ours), clusters(&theirs), "seat {seat}");
        }
        group
    }

    #[test]
    fn group_members_read_back_their_solo_sessions() {
        let queries: Vec<CompiledQuery> = GROUP_QUERIES.iter().map(|q| compiled(q)).collect();
        let rows = workload();
        for engine in all_engines() {
            let members: Vec<_> = queries.iter().map(|q| (q, stream_opts(engine))).collect();
            assert_group_reads_back_solo(&members, &rows);
        }
        // Members on different engines share one window too.
        let engines = [
            EngineKind::Naive,
            EngineKind::Ops,
            EngineKind::NaiveBacktrack,
        ];
        let mixed: Vec<_> = queries
            .iter()
            .zip(engines)
            .map(|(q, e)| (q, stream_opts(e)))
            .collect();
        assert_group_reads_back_solo(&mixed, &rows);
    }

    #[test]
    fn group_bad_tuples_meet_every_members_policy() {
        let queries: Vec<CompiledQuery> = GROUP_QUERIES.iter().map(|q| compiled(q)).collect();
        let mut rows = workload();
        rows.insert(9, vec![Value::Str("AAA".into())]);
        rows.insert(
            20,
            vec![Value::Str("AAA".into()), Value::Int(0), Value::Null],
        );
        rows.insert(31, vec![Value::Str("BBB".into()), Value::Str("x".into())]);
        let policies = [
            BadTuplePolicy::Fail,
            BadTuplePolicy::Skip,
            BadTuplePolicy::Quarantine { cap: 2 },
        ];
        for bad_tuple in policies {
            let opts = StreamOptions {
                bad_tuple,
                ..stream_opts(EngineKind::Ops)
            };
            let members: Vec<_> = queries.iter().map(|q| (q, opts.clone())).collect();
            assert_group_reads_back_solo(&members, &rows);
        }
    }

    #[test]
    fn a_tripped_member_leaves_with_its_view_and_the_rest_carry_on() {
        let queries: Vec<CompiledQuery> = GROUP_QUERIES.iter().map(|q| compiled(q)).collect();
        let rows = workload();
        let mut governed = stream_opts(EngineKind::Ops);
        governed.exec.governor = Governor::unlimited().with_max_steps(40);
        let members = [
            (&queries[0], stream_opts(EngineKind::Ops)),
            (&queries[1], governed),
            (&queries[2], stream_opts(EngineKind::Naive)),
        ];
        let group = assert_group_reads_back_solo(&members, &rows);
        assert!(group.seats.iter().all(|seat| matches!(seat, Seat::Vacant)));
        // Mid-stream, the tripped member sits alone and the window holds
        // only what the live members still read.
        let alone = |i: usize| group_of(&queries[i], members[i].1.clone());
        let mut group = alone(0);
        group.join(alone(1)).ok().unwrap();
        for row in &rows {
            group.feed([row.clone()], &mut |_, _| {});
        }
        assert!(matches!(group.seats[0], Seat::Live(_)));
        assert!(matches!(group.seats[1], Seat::Alone(_)));
        let live_floor = |slot: usize| match &group.seats[0] {
            Seat::Live(run) => run.lanes[slot].base,
            _ => unreachable!(),
        };
        for (slot, cw) in group.window.clusters.iter().enumerate() {
            assert_eq!(cw.base, live_floor(slot));
        }
    }

    #[test]
    fn a_checkpoint_naming_a_cluster_twice_is_refused() {
        let query = compiled(QUERY);
        let mut session = StreamSession::new(&query, stream_opts(EngineKind::Ops)).unwrap();
        for row in &workload()[..10] {
            session.feed(row.clone()).unwrap();
        }
        let mut checkpoint = session.snapshot().unwrap();
        let first = checkpoint.clusters[0].clone();
        checkpoint.clusters.push(first);
        match StreamSession::resume(&query, stream_opts(EngineKind::Ops), checkpoint) {
            Err(StreamError::Checkpoint(why)) => assert!(why.contains("appears twice"), "{why}"),
            other => panic!("expected a checkpoint error, got {:?}", other.err()),
        }
    }

    #[test]
    fn a_group_seats_only_sessions_that_admit_alike_and_have_admitted_nothing() {
        let query = compiled(QUERY);
        let opts = stream_opts(EngineKind::Ops);
        let fresh = || group_of(&query, opts.clone());
        let mut group = fresh();
        assert_eq!(group.join(fresh()).ok(), Some(1));
        // Another bad-tuple policy, other CLUSTER BY columns, or another
        // schema would decide some tuple differently.
        let skipping = StreamOptions {
            bad_tuple: BadTuplePolicy::Skip,
            ..opts.clone()
        };
        assert!(group.join(group_of(&query, skipping)).is_err());
        let unclustered =
            compiled("SELECT X.day FROM quote SEQUENCE BY day AS (X, Y) WHERE Y.price < X.price");
        assert!(group.join(group_of(&unclustered, opts.clone())).is_err());
        let venue = compile(VENUE_QUERY, &venue_schema(), &CompileOptions::default()).unwrap();
        assert!(group.join(group_of(&venue, opts.clone())).is_err());
        // Once a tuple is admitted, a newcomer has not seen it: no seat.
        group.feed([workload().swap_remove(0)], &mut |_, result| {
            result.unwrap()
        });
        assert!(group.join(fresh()).is_err());
        let mut fed = StreamSession::new(&query, opts.clone()).unwrap();
        fed.feed(workload().swap_remove(0)).unwrap();
        assert!(fresh().join(fed.group).is_err());
    }
}
