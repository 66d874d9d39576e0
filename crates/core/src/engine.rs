//! The pattern-search engines: naive backtracking and OPS.
//!
//! Both engines implement the same SQL-TS match semantics (see DESIGN.md):
//!
//! * **greedy stars** — a starred element consumes the maximal run of
//!   satisfying tuples (one or more);
//! * **left-maximality / non-overlap** — after a match, the search resumes
//!   at the tuple following the match's last tuple;
//! * identical handling of `previous` references before the start of the
//!   stream ([`FirstTuplePolicy`]).
//!
//! They differ only in how much work they do: the naive engine restarts
//! from scratch one tuple further on every failure; OPS consults the
//! compile-time `shift` / `next` tables and the runtime `count[]` array of
//! §5 to skip work whose outcome is already known.

use crate::counters::EvalCounter;
use crate::matrices::{test_element, PrecondMatrices, Predicates};
use crate::shift_next::ShiftNext;
use crate::stargraph::star_shift_next;
use sqlts_lang::{Bindings, EvalCtx, FirstTuplePolicy, PatternElement};
use sqlts_relation::Cluster;
use sqlts_trace::TraceEvent;

/// Which engine to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// Naive restart-per-tuple search with the greedy star semantics —
    /// the baseline of the paper's Figure 5.
    Naive,
    /// Naive search that *backtracks over star extents* (the direct
    /// implementation of the star's Datalog semantics, cf. §2).  On
    /// patterns whose adjacent predicates are mutually exclusive it finds
    /// the same matches as the greedy engines; its cost explodes on
    /// ambiguous patterns, which is the regime where the paper's §7
    /// reports two-orders-of-magnitude speedups.
    NaiveBacktrack,
    /// Full OPS: compile-time `shift` and `next` (§4.2 / §5.1).
    #[default]
    Ops,
    /// Ablation: OPS `shift` but `next` forced conservative (re-verify the
    /// whole prefix after every shift).  Experiment E10.
    OpsShiftOnly,
}

impl EngineKind {
    /// The engine's stable CLI/profile name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Naive => "naive",
            EngineKind::NaiveBacktrack => "backtrack",
            EngineKind::Ops => "ops",
            EngineKind::OpsShiftOnly => "shift-only",
        }
    }

    /// Invert [`EngineKind::name`]; `None` for anything else.
    pub fn from_name(name: &str) -> Option<EngineKind> {
        Some(match name {
            "naive" => EngineKind::Naive,
            "backtrack" => EngineKind::NaiveBacktrack,
            "ops" => EngineKind::Ops,
            "shift-only" => EngineKind::OpsShiftOnly,
            _ => return None,
        })
    }
}

/// Emit the `MatchEmitted` event for a retained match (1-based inclusive
/// input positions); a no-op branch when the counter is unarmed.
#[inline]
fn emit_match(counter: &EvalCounter, spans: &[(usize, usize)]) {
    if counter.armed() {
        counter.emit(TraceEvent::MatchEmitted {
            start: spans.first().map(|s| s.0 + 1).unwrap_or(0) as u32,
            end: spans.last().map(|s| s.1 + 1).unwrap_or(0) as u32,
        });
    }
}

/// Options shared by the engines.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchOptions {
    /// Semantics of out-of-range `previous`/`next` references.
    pub policy: FirstTuplePolicy,
}

/// One match: per-element inclusive spans of 0-based cluster positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchSpans {
    /// `spans[e]` is the `(first, last)` tuple range element `e` matched.
    pub spans: Vec<(usize, usize)>,
}

impl MatchSpans {
    /// First tuple of the whole match.
    pub fn start(&self) -> usize {
        self.spans.first().map(|s| s.0).unwrap_or(0)
    }

    /// Last tuple of the whole match.
    pub fn end(&self) -> usize {
        self.spans.last().map(|s| s.1).unwrap_or(0)
    }

    /// The bindings view used for projection.
    pub fn bindings(&self) -> Bindings {
        Bindings {
            spans: self.spans.clone(),
        }
    }
}

/// The compile-time plan an engine runs: shift/next tables plus the flags
/// that control the runtime.
#[derive(Clone, Debug)]
pub struct SearchPlan {
    /// The shift/next tables (naive tables for [`EngineKind::Naive`]).
    pub tables: ShiftNext,
    /// Restart one tuple at a time instead of one span at a time.
    ///
    /// Span-granular restarts are justified by greedy determinism, which
    /// needs purely-local predicates; when the first element is starred
    /// and the pattern has non-local conjuncts, a restart *inside* the
    /// first element's span can behave differently (its `FIRST()` binding
    /// changes), so we fall back to tuple granularity.
    pub tuple_granular_restart: bool,
}

/// Build the search plan for a pattern under the chosen engine.
pub fn plan(elements: &[PatternElement], kind: EngineKind) -> SearchPlan {
    let pattern = Predicates::new(elements);
    let m = pattern.len();
    let has_nonlocal = elements.iter().any(|e| !e.purely_local());
    let tables = match kind {
        EngineKind::Naive | EngineKind::NaiveBacktrack => ShiftNext::naive(m),
        EngineKind::Ops | EngineKind::OpsShiftOnly => {
            // §5.1's implication graph serves every pattern: on a
            // star-free one it derives exactly §4.2's S-matrix tables.
            let sn = star_shift_next(pattern, &PrecondMatrices::build(pattern));
            if kind == EngineKind::OpsShiftOnly {
                shift_only(&sn)
            } else {
                sn
            }
        }
    };
    SearchPlan {
        tables,
        tuple_granular_restart: elements.first().is_some_and(|e| e.star) && has_nonlocal,
    }
}

/// The shift-only ablation: keep `shift`, force `next` to re-verify
/// everything (`1`, or `0` where the full shift applies).
fn shift_only(sn: &ShiftNext) -> ShiftNext {
    let m = sn.len();
    let mut shift = vec![0usize; m + 1];
    let mut next = vec![0usize; m + 1];
    for j in 1..=m {
        shift[j] = sn.shift(j);
        next[j] = if sn.shift(j) == j { 0 } else { 1 };
    }
    ShiftNext::from_arrays(shift, next)
}

/// The plan `kind`'s machine needs: `None` for the naive engines, which
/// consult no tables.
pub fn plan_for(elements: &[PatternElement], kind: EngineKind) -> Option<SearchPlan> {
    match kind {
        EngineKind::Naive | EngineKind::NaiveBacktrack => None,
        EngineKind::Ops | EngineKind::OpsShiftOnly => Some(plan(elements, kind)),
    }
}

/// Find all matches of `elements` in `cluster` using `kind`.
///
/// `counter` accumulates the paper's cost metric; armed with a recorder
/// it also retains the `(i, j)` search path (Figure 5) as `Advance`/`Fail`
/// events.
pub fn find_matches(
    elements: &[PatternElement],
    cluster: &Cluster<'_>,
    kind: EngineKind,
    options: &SearchOptions,
    counter: &EvalCounter,
) -> Vec<MatchSpans> {
    let search_plan = plan_for(elements, kind);
    search_cluster(
        elements,
        cluster,
        kind,
        search_plan.as_ref(),
        options,
        counter,
    )
}

/// Run `kind`'s machine over a whole cluster in one step, with a pre-built
/// plan (lets the executor amortize compilation across clusters).  A batch
/// search is the incremental one with the end of input known from the
/// start.
pub(crate) fn search_cluster(
    elements: &[PatternElement],
    cluster: &Cluster<'_>,
    kind: EngineKind,
    search_plan: Option<&SearchPlan>,
    options: &SearchOptions,
    counter: &EvalCounter,
) -> Vec<MatchSpans> {
    let input = StepInput {
        cluster,
        eof: true,
        lookahead: 0,
    };
    let mut out = Vec::new();
    EngineMachine::new(kind, elements.len()).run(
        elements,
        search_plan,
        &input,
        options,
        counter,
        &mut out,
    );
    out
}

/// Why an incremental engine step returned control to its driver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The search consumed everything currently buffered and needs more
    /// input (never returned once `eof` is set).
    NeedInput,
    /// The cluster is fully searched; further calls keep returning `Done`.
    Done,
    /// The governor tripped.  The machine's position is preserved *at* the
    /// trip check, so a resumed session (with a fresh, untripped counter)
    /// continues bit-identically to a run that never tripped; a batch
    /// driver simply stops and keeps the matches found so far.
    Tripped,
}

/// The input view an incremental engine step runs over.
pub struct StepInput<'a, 'b> {
    /// The stream (possibly a bounded window view; positions are absolute).
    pub cluster: &'a Cluster<'b>,
    /// `true` once no further tuples will ever arrive.
    pub eof: bool,
    /// How many tuples beyond the one under test must already be buffered
    /// before the test may run (the pattern's maximum positive field-ref
    /// offset).  Before `eof`, testing tuple `i` requires
    /// `i + lookahead < cluster.len()` so `next`-style references resolve
    /// exactly as they would in a batch run over the full stream.
    pub lookahead: usize,
}

impl StepInput<'_, '_> {
    /// May tuple `i` be tested yet?
    #[inline]
    fn testable(&self, i: usize) -> bool {
        self.eof || i + self.lookahead < self.cluster.len()
    }
}

/// A resumable engine: one of the three search state machines, driven
/// incrementally by [`EngineMachine::run`].
#[derive(Clone, Debug)]
pub enum EngineMachine {
    /// The naive greedy engine.
    Naive(NaiveMachine),
    /// The backtracking baseline.
    Backtrack(BacktrackMachine),
    /// OPS (also the shift-only ablation; the difference lives in the
    /// [`SearchPlan`] tables).
    Ops(OpsMachine),
}

impl EngineMachine {
    /// A fresh machine for `kind` over a pattern of `m` elements.
    pub fn new(kind: EngineKind, m: usize) -> EngineMachine {
        match kind {
            EngineKind::Naive => EngineMachine::Naive(NaiveMachine::new()),
            EngineKind::NaiveBacktrack => EngineMachine::Backtrack(BacktrackMachine::new()),
            EngineKind::Ops | EngineKind::OpsShiftOnly => EngineMachine::Ops(OpsMachine::new(m)),
        }
    }

    /// Advance the search as far as the buffered input allows, appending
    /// completed matches to `out`.  `search_plan` is required for the OPS
    /// machines and ignored by the naive ones.
    pub fn run(
        &mut self,
        elements: &[PatternElement],
        search_plan: Option<&SearchPlan>,
        input: &StepInput<'_, '_>,
        options: &SearchOptions,
        counter: &EvalCounter,
        out: &mut Vec<MatchSpans>,
    ) -> StepOutcome {
        match self {
            EngineMachine::Naive(m) => m.run(elements, input, options, counter, out),
            EngineMachine::Backtrack(m) => m.run(elements, input, options, counter, out),
            EngineMachine::Ops(m) => m.run(
                elements,
                search_plan.expect("OPS machine needs a search plan"),
                input,
                options,
                counter,
                out,
            ),
        }
    }

    /// The lowest stream position the machine can still reference (the
    /// current attempt's start).  A streaming window may compact everything
    /// below `window_low() - lookbehind`.
    pub fn window_low(&self) -> usize {
        match self {
            EngineMachine::Naive(m) => m.start,
            EngineMachine::Backtrack(m) => m.start,
            EngineMachine::Ops(m) => m.start,
        }
    }
}

/// The backtracking baseline as an explicit stack machine (the recursion
/// flattened frame by frame so it can suspend on
/// [`StepOutcome::NeedInput`] and be checkpointed): from every start
/// position, search for *any* assignment of star extents satisfying the
/// pattern (shortest extents first), backtracking on failure.
///
/// This is the direct operational reading of the star's declarative
/// semantics; it can be exponentially slower than the greedy engines and
/// may find matches greedy commitment misses (when adjacent predicates
/// overlap, a shorter star extent can rescue the suffix).
#[derive(Clone, Debug)]
pub struct BacktrackMachine {
    pub(crate) start: usize,
    pub(crate) frames: Vec<BtFrame>,
    pub(crate) pc: BtPc,
    pub(crate) bindings: Bindings,
}

/// One suspended recursion frame of [`BacktrackMachine`]; the frame at
/// depth `d` (0-based) handles pattern element `d + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BtFrame {
    /// A non-star element: on a failed suffix, pop its span and fail.
    NonStar,
    /// A star element at extent `i..=end`: on a failed suffix, try the
    /// next extent.
    Star {
        /// First tuple of the star's span.
        i: usize,
        /// Current last tuple of the star's span.
        end: usize,
    },
}

/// The program counter of [`BacktrackMachine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BtPc {
    /// Between attempts (next: start an attempt at `start`).
    Idle,
    /// About to evaluate `rec(j, i)` from the top.
    Call {
        /// Pattern element.
        j: usize,
        /// Input position.
        i: usize,
    },
    /// A child call returned; resolve against the top frame.
    Ret {
        /// The child's verdict.
        ok: bool,
    },
    /// The top (star) frame is about to test one more extent tuple.
    StarExtend,
}

impl Default for BacktrackMachine {
    fn default() -> Self {
        BacktrackMachine::new()
    }
}

impl BacktrackMachine {
    /// A fresh machine positioned before the first attempt.
    pub fn new() -> BacktrackMachine {
        BacktrackMachine {
            start: 0,
            frames: Vec::new(),
            pc: BtPc::Idle,
            bindings: Bindings::default(),
        }
    }

    fn run(
        &mut self,
        elements: &[PatternElement],
        input: &StepInput<'_, '_>,
        options: &SearchOptions,
        counter: &EvalCounter,
        out: &mut Vec<MatchSpans>,
    ) -> StepOutcome {
        let pattern = Predicates::new(elements);
        let ctx = EvalCtx {
            cluster: input.cluster,
            policy: options.policy,
        };
        let m = pattern.len();
        let avail = input.cluster.len();
        loop {
            match self.pc {
                BtPc::Idle => {
                    if self.start >= avail {
                        if input.eof {
                            return StepOutcome::Done;
                        }
                        return StepOutcome::NeedInput;
                    }
                    if counter.tripped() {
                        return StepOutcome::Tripped;
                    }
                    self.bindings.spans.clear();
                    self.frames.clear();
                    self.pc = BtPc::Call {
                        j: 1,
                        i: self.start,
                    };
                }
                BtPc::Call { j, i } => {
                    if j > m {
                        self.pc = BtPc::Ret { ok: true };
                        continue;
                    }
                    if i >= avail {
                        if !input.eof {
                            return StepOutcome::NeedInput;
                        }
                        self.pc = BtPc::Ret { ok: false };
                        continue;
                    }
                    if counter.tripped() {
                        return StepOutcome::Tripped;
                    }
                    if !input.testable(i) {
                        return StepOutcome::NeedInput;
                    }
                    if !test_element(pattern, j, &ctx, i, &self.bindings, counter) {
                        self.pc = BtPc::Ret { ok: false };
                        continue;
                    }
                    self.bindings.spans.push((i, i));
                    self.frames.push(if pattern.star(j) {
                        BtFrame::Star { i, end: i }
                    } else {
                        BtFrame::NonStar
                    });
                    self.pc = BtPc::Call { j: j + 1, i: i + 1 };
                }
                BtPc::Ret { ok } => {
                    let Some(&frame) = self.frames.last() else {
                        // The attempt resolved.
                        if ok {
                            let end = self
                                .bindings
                                .spans
                                .last()
                                .map(|s| s.1)
                                .unwrap_or(self.start);
                            if counter.match_found() {
                                emit_match(counter, &self.bindings.spans);
                                out.push(MatchSpans {
                                    spans: self.bindings.spans.clone(),
                                });
                            }
                            self.start = end + 1;
                        } else {
                            self.start += 1;
                        }
                        self.pc = BtPc::Idle;
                        continue;
                    };
                    if ok {
                        // Success propagates up without unbinding spans.
                        self.frames.pop();
                        continue;
                    }
                    self.bindings.spans.pop();
                    match frame {
                        BtFrame::NonStar => {
                            self.frames.pop();
                        }
                        BtFrame::Star { .. } => {
                            self.pc = BtPc::StarExtend;
                        }
                    }
                }
                BtPc::StarExtend => {
                    let j = self.frames.len();
                    let Some(&BtFrame::Star { i, end }) = self.frames.last() else {
                        unreachable!("StarExtend with a non-star top frame");
                    };
                    if end + 1 >= avail {
                        if !input.eof {
                            return StepOutcome::NeedInput;
                        }
                        self.frames.pop();
                        self.pc = BtPc::Ret { ok: false };
                        continue;
                    }
                    if counter.tripped() {
                        return StepOutcome::Tripped;
                    }
                    if !input.testable(end + 1) {
                        return StepOutcome::NeedInput;
                    }
                    if !test_element(pattern, j, &ctx, end + 1, &self.bindings, counter) {
                        self.frames.pop();
                        self.pc = BtPc::Ret { ok: false };
                        continue;
                    }
                    let end = end + 1;
                    if let Some(BtFrame::Star { end: e, .. }) = self.frames.last_mut() {
                        *e = end;
                    }
                    self.bindings.spans.push((i, end));
                    self.pc = BtPc::Call {
                        j: j + 1,
                        i: end + 1,
                    };
                }
            }
        }
    }
}

/// The naive baseline as an incremental state machine (able to suspend at
/// any tuple boundary): a greedy attempt from every start position, moving
/// one tuple to the right after every failure.
#[derive(Clone, Debug)]
pub struct NaiveMachine {
    pub(crate) start: usize,
    pub(crate) i: usize,
    /// Pattern element being matched; 0 = between attempts.
    pub(crate) e: usize,
    pub(crate) span_start: usize,
    /// Inside the greedy extension loop of a star element.
    pub(crate) in_star: bool,
    pub(crate) bindings: Bindings,
}

impl Default for NaiveMachine {
    fn default() -> Self {
        NaiveMachine::new()
    }
}

impl NaiveMachine {
    /// A fresh machine positioned before the first attempt.
    pub fn new() -> NaiveMachine {
        NaiveMachine {
            start: 0,
            i: 0,
            e: 0,
            span_start: 0,
            in_star: false,
            bindings: Bindings::default(),
        }
    }

    /// Close the current element's span and advance to the next element,
    /// emitting the match when the pattern is complete.
    fn advance_element(&mut self, m: usize, counter: &EvalCounter, out: &mut Vec<MatchSpans>) {
        self.bindings.spans.push((self.span_start, self.i - 1));
        self.e += 1;
        if self.e > m {
            if counter.match_found() {
                emit_match(counter, &self.bindings.spans);
                out.push(MatchSpans {
                    spans: self.bindings.spans.clone(),
                });
            }
            // Left-maximal, non-overlapping: resume after the match.
            self.start = self.i;
            self.e = 0;
        }
    }

    fn run(
        &mut self,
        elements: &[PatternElement],
        input: &StepInput<'_, '_>,
        options: &SearchOptions,
        counter: &EvalCounter,
        out: &mut Vec<MatchSpans>,
    ) -> StepOutcome {
        let pattern = Predicates::new(elements);
        let ctx = EvalCtx {
            cluster: input.cluster,
            policy: options.policy,
        };
        let m = pattern.len();
        if m == 0 {
            return StepOutcome::Done;
        }
        let avail = input.cluster.len();
        loop {
            if self.e == 0 {
                // Between attempts.
                if self.start >= avail {
                    if input.eof {
                        return StepOutcome::Done;
                    }
                    return StepOutcome::NeedInput;
                }
                if counter.tripped() {
                    return StepOutcome::Tripped;
                }
                self.bindings.spans.clear();
                self.i = self.start;
                self.e = 1;
                self.in_star = false;
                continue;
            }
            if !self.in_star {
                // First tuple of element `e` (stars need at least one).
                // A governor trip abandons the in-flight attempt wholesale:
                // a partially extended star must never be emitted as a match.
                if counter.tripped() {
                    return StepOutcome::Tripped;
                }
                if self.i >= avail {
                    if !input.eof {
                        return StepOutcome::NeedInput;
                    }
                    self.start += 1;
                    self.e = 0;
                    continue;
                }
                if !input.testable(self.i) {
                    return StepOutcome::NeedInput;
                }
                if !test_element(pattern, self.e, &ctx, self.i, &self.bindings, counter) {
                    // Naive realign: one tuple on, resume at element 1 — the
                    // shift/next the naive tables encode.
                    if counter.armed() {
                        counter.emit(TraceEvent::Shift {
                            j: self.e as u32,
                            dist: 1,
                        });
                        counter.emit(TraceEvent::Next {
                            j: self.e as u32,
                            k: 1,
                        });
                    }
                    self.start += 1;
                    self.e = 0;
                    continue;
                }
                self.span_start = self.i;
                self.i += 1;
                if pattern.star(self.e) {
                    self.in_star = true;
                    continue;
                }
                self.advance_element(m, counter, out);
                continue;
            }
            // Greedy: extend the star while the predicate holds.
            if self.i < avail {
                if counter.tripped() {
                    return StepOutcome::Tripped;
                }
                if !input.testable(self.i) {
                    return StepOutcome::NeedInput;
                }
                if test_element(pattern, self.e, &ctx, self.i, &self.bindings, counter) {
                    self.i += 1;
                    continue;
                }
            } else if !input.eof {
                return StepOutcome::NeedInput;
            }
            // The run ended (predicate failed or input exhausted).
            self.in_star = false;
            self.advance_element(m, counter, out);
        }
    }
}

/// The OPS search (§4.2 algorithm generalized with the §5 `count[]`
/// runtime for stars) as an incremental state machine.
///
/// State: the attempt starts at `start`; `counts[e]` is the cumulative
/// number of tuples matched by elements 1..=e of the current attempt
/// (`counts[0] = 0`); the input cursor `i` always equals
/// `start + counts[j]` while element `j` is being matched; `bindings`
/// holds the completed spans of elements `1..j`.
#[derive(Clone, Debug)]
pub struct OpsMachine {
    pub(crate) start: usize,
    pub(crate) i: usize,
    pub(crate) j: usize,
    pub(crate) counts: Vec<usize>,
    pub(crate) bindings: Bindings,
    /// The end-of-input star tail has run; the search is over.
    pub(crate) finished: bool,
}

impl OpsMachine {
    /// A fresh machine for a pattern of `m` elements.
    pub fn new(m: usize) -> OpsMachine {
        OpsMachine {
            start: 0,
            i: 0,
            j: 1,
            counts: vec![0; m + 1],
            bindings: Bindings::default(),
            finished: false,
        }
    }

    pub(crate) fn reset_attempt(&mut self, new_start: usize) {
        self.start = new_start;
        self.i = new_start;
        self.j = 1;
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.bindings.spans.clear();
    }

    fn run(
        &mut self,
        elements: &[PatternElement],
        search_plan: &SearchPlan,
        input: &StepInput<'_, '_>,
        options: &SearchOptions,
        counter: &EvalCounter,
        out: &mut Vec<MatchSpans>,
    ) -> StepOutcome {
        let pattern = Predicates::new(elements);
        let ctx = EvalCtx {
            cluster: input.cluster,
            policy: options.policy,
        };
        let m = pattern.len();
        if m == 0 || self.finished {
            return StepOutcome::Done;
        }
        let sn = &search_plan.tables;
        let avail = input.cluster.len();

        loop {
            if self.j > m {
                // Success: spans derive from the counts.
                if counter.match_found() {
                    emit_match(counter, &self.bindings.spans);
                    out.push(MatchSpans {
                        spans: self.bindings.spans.clone(),
                    });
                }
                self.reset_attempt(self.i);
                continue;
            }
            if counter.tripped() {
                // Governed termination: the matches found so far stand.
                // The in-flight attempt (and the end-of-input star tail
                // below, which is only sound when the input was really
                // exhausted) is frozen, so a batch driver sees a prefix of
                // the ungoverned run and a resumed session (fresh counter)
                // continues exactly where the trip landed.
                return StepOutcome::Tripped;
            }
            if self.i >= avail {
                if !input.eof {
                    return StepOutcome::NeedInput;
                }
                break;
            }
            if !input.testable(self.i) {
                return StepOutcome::NeedInput;
            }

            if test_element(pattern, self.j, &ctx, self.i, &self.bindings, counter) {
                self.counts[self.j] += 1;
                self.i += 1;
                if !pattern.star(self.j) {
                    self.bindings
                        .spans
                        .push((self.start + self.counts[self.j - 1], self.i - 1));
                    self.j += 1;
                    if self.j <= m {
                        self.counts[self.j] = self.counts[self.j - 1];
                    }
                }
                continue;
            }

            // The tuple fails p_j.
            if pattern.star(self.j) && self.counts[self.j] > self.counts[self.j - 1] {
                // A satisfied star: close its span and re-test this tuple
                // against the next element.
                self.bindings.spans.push((
                    self.start + self.counts[self.j - 1],
                    self.start + self.counts[self.j] - 1,
                ));
                self.j += 1;
                if self.j <= m {
                    self.counts[self.j] = self.counts[self.j - 1];
                }
                continue;
            }

            // Genuine failure at element j: realign per shift/next.
            if search_plan.tuple_granular_restart {
                // Degraded to tuple granularity: behaves like the naive
                // tables (shift 1, resume at element 1).
                if counter.armed() {
                    counter.emit(TraceEvent::Shift {
                        j: self.j as u32,
                        dist: 1,
                    });
                    counter.emit(TraceEvent::Next {
                        j: self.j as u32,
                        k: 1,
                    });
                }
                self.reset_attempt(self.start + 1);
                continue;
            }
            let sh = sn.shift(self.j);
            let nx = sn.next(self.j);
            if counter.armed() {
                counter.emit(TraceEvent::Shift {
                    j: self.j as u32,
                    dist: sh as u32,
                });
                counter.emit(TraceEvent::Next {
                    j: self.j as u32,
                    k: nx as u32,
                });
            }
            if nx == 0 {
                // shift(j) = j: no earlier start can work; the failed tuple
                // itself is also excluded (φ[j][1] = 0), so move past it.
                self.reset_attempt(self.i + 1);
                continue;
            }
            debug_assert!(sh + nx - 1 <= self.j, "next must stay within known counts");
            // New start: the beginning of (old) element sh+1's span.  The
            // prefix elements 1..nx-1 of the new attempt inherit the spans
            // of old elements sh+1..sh+nx-1 (the deterministic walk only
            // crosses non-star pairs, so these are single tuples).  The
            // counts move down in place: no copy of the old ones.
            let shifted = self.counts[sh];
            let new_start = self.start + shifted;
            self.counts.copy_within(sh..sh + nx, 0);
            for c in &mut self.counts[..nx] {
                *c -= shifted;
            }
            self.counts[nx] = self.counts[nx - 1];
            for c in self.counts.iter_mut().skip(nx + 1) {
                *c = 0;
            }
            self.i = new_start + self.counts[nx - 1];
            self.start = new_start;
            self.j = nx;
            self.bindings.spans.clear();
            for e in 1..nx {
                self.bindings.spans.push((
                    self.start + self.counts[e - 1],
                    self.start + self.counts[e] - 1,
                ));
            }
        }

        // Input exhausted.  The only completable suffix: the last element
        // is a satisfied star (its span closes at the end of input).
        self.finished = true;
        if self.j == m && pattern.star(m) && self.counts[m] > self.counts[m - 1] {
            self.bindings.spans.push((
                self.start + self.counts[m - 1],
                self.start + self.counts[m] - 1,
            ));
            if counter.match_found() {
                emit_match(counter, &self.bindings.spans);
                out.push(MatchSpans {
                    spans: self.bindings.spans.clone(),
                });
            }
        }
        StepOutcome::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_lang::{compile, CompileOptions, CompiledQuery};
    use sqlts_relation::{ColumnType, Date, Schema, Table, Value};

    fn schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn engine_names_round_trip() {
        for kind in [
            EngineKind::Naive,
            EngineKind::NaiveBacktrack,
            EngineKind::Ops,
            EngineKind::OpsShiftOnly,
        ] {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::from_name("OPS"), None);
    }

    fn table(prices: &[f64]) -> Table {
        let mut t = Table::new(schema());
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

    fn q(src: &str) -> CompiledQuery {
        compile(src, &schema(), &CompileOptions::default()).unwrap()
    }

    fn run(
        query: &CompiledQuery,
        prices: &[f64],
        kind: EngineKind,
        policy: FirstTuplePolicy,
    ) -> (Vec<MatchSpans>, u64) {
        let t = table(prices);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let counter = EvalCounter::new();
        let matches = match clusters.first() {
            None => Vec::new(), // empty table → no clusters
            Some(cluster) => find_matches(
                &query.elements,
                cluster,
                kind,
                &SearchOptions { policy },
                &counter,
            ),
        };
        (matches, counter.total())
    }

    const ALL_KINDS: [EngineKind; 3] =
        [EngineKind::Naive, EngineKind::Ops, EngineKind::OpsShiftOnly];

    #[test]
    fn example4_sequence_from_the_paper() {
        // §4.2.1: the paper searches the pattern of Example 4 over
        //   55 50 45 57 54 50 47 49 45 42 55 57 59 60 57
        // Pattern: fall, fall∧40<p<50, rise∧p<52, rise.
        let query = q("SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C, D) \
             WHERE A.price < A.previous.price \
             AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
             AND C.price > C.previous.price AND C.price < 52 \
             AND D.price > D.previous.price");
        let prices = [
            55.0, 50.0, 45.0, 57.0, 54.0, 50.0, 47.0, 49.0, 45.0, 42.0, 55.0, 57.0, 59.0, 60.0,
            57.0,
        ];
        for kind in ALL_KINDS {
            let (matches, _) = run(&query, &prices, kind, FirstTuplePolicy::Fail);
            // 50→47 (fall), 47... hold on: positions 5..8: 50 47 49 45 —
            // fall(47<50), fall∧band(49? 49>47 no)... The match in the
            // data: 54,50,47,49: fall(50<54)? element A at pos 5 (50<54 ✓),
            // B at 6 (47<50 ✓ and 40<47<50 ✓), C at 7 (49>47 ✓, <52 ✓),
            // D at 8 (45>49 ✗). Try A=6 (47<50✓) B=7? 49>47 ✗...
            // A=8 (45<49 ✓) B=9 (42<45 ✓ band ✓) C=10 (55>42 ✓ but <52 ✗).
            // So with strict band the only candidate dies; the paper's
            // chart indeed ends in failure over this fragment.
            assert!(matches.is_empty(), "{kind:?} found {matches:?}");
        }
    }

    #[test]
    fn ops_is_cheaper_than_naive_on_example4_paper_sequence() {
        let query = q("SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C, D) \
             WHERE A.price < A.previous.price \
             AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
             AND C.price > C.previous.price AND C.price < 52 \
             AND D.price > D.previous.price");
        let prices = [
            55.0, 50.0, 45.0, 57.0, 54.0, 50.0, 47.0, 49.0, 45.0, 42.0, 55.0, 57.0, 59.0, 60.0,
            57.0,
        ];
        let (_, naive) = run(&query, &prices, EngineKind::Naive, FirstTuplePolicy::Fail);
        let (_, ops) = run(&query, &prices, EngineKind::Ops, FirstTuplePolicy::Fail);
        assert!(
            ops < naive,
            "OPS ({ops}) must beat naive ({naive}) on the paper's sequence"
        );
    }

    #[test]
    fn simple_non_star_match_positions() {
        // Example-1 style: up 15%, down 20%.
        let query = q("SELECT X.name FROM quote SEQUENCE BY date AS (X, Y, Z) \
             WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price");
        let prices = [10.0, 10.5, 13.0, 9.0, 9.5, 12.0, 8.0];
        for kind in ALL_KINDS {
            let (matches, _) = run(&query, &prices, kind, FirstTuplePolicy::Fail);
            assert_eq!(matches.len(), 2, "{kind:?}");
            assert_eq!(matches[0].spans, vec![(1, 1), (2, 2), (3, 3)]);
            assert_eq!(matches[1].spans, vec![(4, 4), (5, 5), (6, 6)]);
        }
    }

    #[test]
    fn star_count_example_from_section5() {
        // §5's worked example: prices 20 21 23 24 22 20 18 15 14 18 21
        // against (*rise, *fall, *rise) gives count = 4, 9, 11 — i.e.
        // spans of 4, 5 and 2 tuples (under the vacuous-first policy).
        let query = q(
            "SELECT FIRST(X).date FROM quote SEQUENCE BY date AS (*X, *Y, *Z) \
             WHERE X.price > X.previous.price AND Y.price < Y.previous.price \
             AND Z.price > Z.previous.price",
        );
        let prices = [
            20.0, 21.0, 23.0, 24.0, 22.0, 20.0, 18.0, 15.0, 14.0, 18.0, 21.0,
        ];
        for kind in ALL_KINDS {
            let (matches, _) = run(&query, &prices, kind, FirstTuplePolicy::VacuousTrue);
            assert_eq!(matches.len(), 1, "{kind:?}");
            assert_eq!(
                matches[0].spans,
                vec![(0, 3), (4, 8), (9, 10)],
                "{kind:?}: spans must mirror count(1)=4, count(2)=9, count(3)=11"
            );
        }
    }

    #[test]
    fn star_requires_at_least_one_tuple() {
        let query = q(
            "SELECT FIRST(Y).date FROM quote SEQUENCE BY date AS (*Y, Z) \
             WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price",
        );
        // No falling run before the rise: no match.
        let prices = [10.0, 11.0, 12.0];
        for kind in ALL_KINDS {
            let (matches, _) = run(&query, &prices, kind, FirstTuplePolicy::Fail);
            assert!(matches.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn star_at_end_closes_at_input_end() {
        let query = q("SELECT Z.date FROM quote SEQUENCE BY date AS (Z, *W) \
             WHERE Z.price > 100 AND W.price < W.previous.price");
        let prices = [101.0, 90.0, 80.0];
        for kind in ALL_KINDS {
            let (matches, _) = run(&query, &prices, kind, FirstTuplePolicy::Fail);
            assert_eq!(matches.len(), 1, "{kind:?}");
            assert_eq!(matches[0].spans, vec![(0, 0), (1, 2)]);
        }
    }

    #[test]
    fn greedy_stars_are_committed() {
        // (*Y falling, Z falling) under greedy semantics never matches on
        // a strictly falling series: Y eats everything.
        let query = q(
            "SELECT FIRST(Y).date FROM quote SEQUENCE BY date AS (*Y, Z) \
             WHERE Y.price < Y.previous.price AND Z.price < Z.previous.price",
        );
        let prices = [10.0, 9.0, 8.0, 7.0];
        for kind in ALL_KINDS {
            let (matches, _) = run(&query, &prices, kind, FirstTuplePolicy::Fail);
            assert!(matches.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn matches_do_not_overlap_and_are_left_maximal() {
        // Two consecutive falls in a long falling run: with non-overlap
        // semantics 6 falling steps yield 3 matches.
        let query = q("SELECT A.date FROM quote SEQUENCE BY date AS (A, B) \
             WHERE A.price < A.previous.price AND B.price < B.previous.price");
        let prices = [100.0, 99.0, 98.0, 97.0, 96.0, 95.0, 94.0];
        for kind in ALL_KINDS {
            let (matches, _) = run(&query, &prices, kind, FirstTuplePolicy::Fail);
            assert_eq!(matches.len(), 3, "{kind:?}");
            assert_eq!(matches[0].spans, vec![(1, 1), (2, 2)]);
            assert_eq!(matches[1].spans, vec![(3, 3), (4, 4)]);
            assert_eq!(matches[2].spans, vec![(5, 5), (6, 6)]);
        }
    }

    #[test]
    fn empty_input_and_tiny_inputs() {
        let query = q("SELECT A.date FROM quote SEQUENCE BY date AS (A, B) \
             WHERE A.price < A.previous.price AND B.price < B.previous.price");
        for kind in ALL_KINDS {
            assert!(run(&query, &[], kind, FirstTuplePolicy::Fail).0.is_empty());
            assert!(run(&query, &[5.0], kind, FirstTuplePolicy::Fail)
                .0
                .is_empty());
        }
    }

    #[test]
    fn nonlocal_star_pattern_tuple_granular_restart() {
        // (*X, S) with S comparing against FIRST(X): restarts inside X's
        // span matter, so OPS must degrade to tuple-granular restarts and
        // still agree with naive.
        let query = q("SELECT S.date FROM quote SEQUENCE BY date AS (*X, S) \
             WHERE X.price > X.previous.price AND S.price < 0.9 * FIRST(X).price");
        let p = plan(&query.elements, EngineKind::Ops);
        assert!(p.tuple_granular_restart);
        let prices = [10.0, 11.0, 12.0, 13.0, 10.5, 11.5, 9.0];
        let (naive, _) = run(&query, &prices, EngineKind::Naive, FirstTuplePolicy::Fail);
        let (ops, _) = run(&query, &prices, EngineKind::Ops, FirstTuplePolicy::Fail);
        assert_eq!(naive, ops);
        assert!(!naive.is_empty());
    }

    #[test]
    fn vacuous_policy_admits_first_tuple_matches() {
        let query = q(
            "SELECT FIRST(Y).date FROM quote SEQUENCE BY date AS (*Y, Z) \
             WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price",
        );
        let prices = [10.0, 9.0, 12.0];
        let (fail, _) = run(&query, &prices, EngineKind::Ops, FirstTuplePolicy::Fail);
        let (vac, _) = run(
            &query,
            &prices,
            EngineKind::Ops,
            FirstTuplePolicy::VacuousTrue,
        );
        // Under Fail the first tuple cannot satisfy Y (no previous), so Y
        // matches only tuple 1; under VacuousTrue Y's span starts at 0.
        assert_eq!(fail[0].spans, vec![(1, 1), (2, 2)]);
        assert_eq!(vac[0].spans, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn trace_records_paths() {
        let query = q("SELECT A.date FROM quote SEQUENCE BY date AS (A, B) \
             WHERE A.price = 10 AND B.price = 11");
        let prices = [10.0, 10.0, 11.0, 10.0];
        let t = table(&prices);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let counter =
            EvalCounter::new().with_recorder(sqlts_trace::ClusterRecorder::new(2, usize::MAX));
        let matches = find_matches(
            &query.elements,
            &clusters[0],
            EngineKind::Ops,
            &SearchOptions::default(),
            &counter,
        );
        assert_eq!(matches.len(), 1);
        let total = counter.total();
        let recorder = counter.into_recorder().unwrap();
        let path = recorder
            .events
            .events()
            .filter(|e| matches!(e, TraceEvent::Advance { .. } | TraceEvent::Fail { .. }));
        assert_eq!(path.count() as u64, total);
        assert!(total > 0);
    }

    #[test]
    fn backtracking_agrees_on_exclusive_patterns() {
        // Adjacent predicates mutually exclusive → backtracking and greedy
        // have identical match sets.
        let query = q(
            "SELECT FIRST(X).date FROM t SEQUENCE BY date AS (*X, *Y, *Z) \
             WHERE X.price > X.previous.price AND Y.price < Y.previous.price \
             AND Z.price > Z.previous.price",
        );
        let prices = [
            20.0, 21.0, 23.0, 24.0, 22.0, 20.0, 18.0, 15.0, 14.0, 18.0, 21.0,
        ];
        let (greedy, greedy_cost) = run(
            &query,
            &prices,
            EngineKind::Naive,
            FirstTuplePolicy::VacuousTrue,
        );
        let (bt, bt_cost) = run(
            &query,
            &prices,
            EngineKind::NaiveBacktrack,
            FirstTuplePolicy::VacuousTrue,
        );
        // Interior boundaries are forced by exclusivity; only the *last*
        // star's extent is existentially free (greedy takes the maximal
        // run, shortest-first backtracking the minimal one).
        assert_eq!(greedy.len(), bt.len());
        for (g, b) in greedy.iter().zip(&bt) {
            assert_eq!(g.start(), b.start());
            assert_eq!(g.spans[..g.spans.len() - 1], b.spans[..b.spans.len() - 1]);
        }
        assert!(bt_cost >= greedy_cost);
    }

    #[test]
    fn backtracking_rescues_overlapping_patterns() {
        // (*Y falling, Z falling): greedy commits Y to the whole run and
        // finds nothing; backtracking splits the run and matches — the
        // semantic gap documented in DESIGN.md.
        let query = q("SELECT FIRST(Y).date FROM t SEQUENCE BY date AS (*Y, Z) \
             WHERE Y.price < Y.previous.price AND Z.price < Z.previous.price");
        let prices = [10.0, 9.0, 8.0, 7.0];
        let (greedy, _) = run(&query, &prices, EngineKind::Naive, FirstTuplePolicy::Fail);
        let (bt, _) = run(
            &query,
            &prices,
            EngineKind::NaiveBacktrack,
            FirstTuplePolicy::Fail,
        );
        assert!(greedy.is_empty());
        assert_eq!(bt.len(), 1);
        assert_eq!(bt[0].spans, vec![(1, 1), (2, 2)]);
    }

    /// The core soundness property: every engine returns exactly the same
    /// matches as the naive reference on randomized inputs and patterns.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// A small pool of pattern queries covering stars, bands, ratio
        /// predicates, equalities and disjunction.
        fn query_pool() -> Vec<CompiledQuery> {
            [
                // star-free, previous-chains
                "SELECT A.date FROM t SEQUENCE BY date AS (A, B) \
                 WHERE A.price < A.previous.price AND B.price > B.previous.price",
                "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C) \
                 WHERE A.price < A.previous.price AND B.price < B.previous.price \
                 AND B.price > 4 AND B.price < 8 AND C.price > C.previous.price",
                // constant equalities (KMP fragment), with self-overlap
                "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C) \
                 WHERE A.price = 5 AND B.price = 7 AND C.price = 5",
                "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C, D) \
                 WHERE A.price = 5 AND B.price = 7 AND C.price = 5 AND D.price = 7",
                // stars
                "SELECT FIRST(X).date FROM t SEQUENCE BY date AS (*X, *Y) \
                 WHERE X.price > X.previous.price AND Y.price < Y.previous.price",
                "SELECT FIRST(X).date FROM t SEQUENCE BY date AS (*X, Y, *Z) \
                 WHERE X.price < X.previous.price AND Y.price > 6 \
                 AND Z.price > Z.previous.price",
                "SELECT FIRST(X).date FROM t SEQUENCE BY date AS (A, *X, S) \
                 WHERE A.price > 6 AND X.price < X.previous.price AND S.price > 8",
                // disjunction
                "SELECT A.date FROM t SEQUENCE BY date AS (A, B) \
                 WHERE (A.price < 3 OR A.price > 8) AND B.price > B.previous.price",
                // cross-variable adjacent rewrite
                "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C) \
                 WHERE B.price > A.price AND C.price < B.price",
                // non-local with leading star
                "SELECT S.date FROM t SEQUENCE BY date AS (*X, S) \
                 WHERE X.price > X.previous.price AND S.price < FIRST(X).price",
            ]
            .iter()
            .map(|src| q(src))
            .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]
            #[test]
            fn engines_agree_with_naive(
                qi in 0usize..10,
                prices in proptest::collection::vec(1i32..12, 0..60),
                vacuous in proptest::bool::ANY,
            ) {
                let queries = query_pool();
                let query = &queries[qi];
                let prices: Vec<f64> = prices.iter().map(|&p| p as f64).collect();
                let policy = if vacuous {
                    FirstTuplePolicy::VacuousTrue
                } else {
                    FirstTuplePolicy::Fail
                };
                let (reference, naive_cost) =
                    run(query, &prices, EngineKind::Naive, policy);
                for kind in [EngineKind::Ops, EngineKind::OpsShiftOnly] {
                    let (matches, cost) = run(query, &prices, kind, policy);
                    prop_assert_eq!(
                        &matches, &reference,
                        "{:?} diverged from naive on prices {:?}", kind, prices
                    );
                    // The optimized engines never do more predicate tests
                    // than naive... (they can tie on tiny inputs).
                    prop_assert!(
                        cost <= naive_cost,
                        "{:?} cost {} exceeds naive {}", kind, cost, naive_cost
                    );
                }
            }
        }
    }
}
