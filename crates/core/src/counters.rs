//! Instrumentation: the paper's cost metric and Figure-5 search traces.

use crate::governor::GovernorScope;
use crate::patternset::SharedEvalHandle;
use sqlts_trace::{ClusterRecorder, TraceEvent};
use std::cell::{Cell, RefCell};

/// Counts how many times an input element is tested against a pattern
/// element — exactly the performance metric of the paper's §7:
/// *"In order to measure performance, we count the number of times that an
/// element of input is tested against a pattern element."*
///
/// Uses interior mutability so engines can thread a shared counter without
/// `&mut` plumbing through the recursion.
///
/// A counter can additionally be **governed**
/// ([`EvalCounter::governed`]): each bump then also spends one unit of a
/// batched credit from a [`GovernorScope`], and once the scope reports a
/// budget or deadline trip the [`tripped`](EvalCounter::tripped)
/// flag latches.  The engines poll that flag at their loop heads and
/// return the matches collected so far — always a prefix of what the
/// ungoverned run would produce for that cluster.  An ungoverned counter
/// pays one predictable branch per bump.
/// A counter can also be **armed** with a per-cluster
/// [`ClusterRecorder`] ([`EvalCounter::with_recorder`]): the engines then
/// stream Figure-5 [`TraceEvent`]s and per-position test counts into it
/// through [`emit`](EvalCounter::emit) /
/// [`record_test`](EvalCounter::record_test).  When unarmed, both hooks
/// are a single predictable branch on a `None` — the same no-cost idiom
/// as the ungoverned governor path — so results and counts stay
/// bit-identical whether tracing is on or off.
#[derive(Debug, Default)]
pub struct EvalCounter {
    tests: Cell<u64>,
    /// Steps left before the next governor check (governed mode only).
    credit: Cell<u32>,
    /// How many of `tests` have been flushed to the governor already.
    flushed: Cell<u64>,
    tripped: Cell<bool>,
    scope: Option<GovernorScope>,
    /// The armed trace/metrics recorder, if any.  Boxed so the unarmed
    /// counter stays small; `RefCell` because engines only hold `&self`.
    recorder: Option<Box<RefCell<ClusterRecorder>>>,
    /// The shared pattern-set memo, if this cluster run is part of a
    /// shared group (a `SetRegistry` member).  Consulted between
    /// `bump()` and conjunct evaluation; a single predictable branch on a
    /// `None` for solo runs, same idiom as the recorder.
    shared: Option<Box<SharedEvalHandle>>,
}

impl EvalCounter {
    /// A fresh, ungoverned counter.
    pub fn new() -> EvalCounter {
        EvalCounter::default()
    }

    /// A counter metering against a governor scope.  Performs an initial
    /// check so an already-expired deadline or tripped run is observed
    /// before any work happens.
    pub fn governed(scope: GovernorScope) -> EvalCounter {
        let counter = EvalCounter {
            scope: Some(scope),
            ..EvalCounter::default()
        };
        counter.refill();
        counter
    }

    /// Arm this counter with a per-cluster trace/metrics recorder.  The
    /// engines will stream search events and per-position test counts
    /// into it; take it back with [`into_recorder`](EvalCounter::into_recorder).
    pub fn with_recorder(mut self, recorder: ClusterRecorder) -> EvalCounter {
        self.recorder = Some(Box::new(RefCell::new(recorder)));
        self
    }

    /// Is a recorder armed?  Engines may use this to skip building
    /// events that need extra bookkeeping.
    #[inline]
    pub fn armed(&self) -> bool {
        self.recorder.is_some()
    }

    /// Emit one search event to the armed recorder; a single predictable
    /// branch when unarmed.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(recorder) = &self.recorder {
            recorder.borrow_mut().record(event);
        }
    }

    /// Record the outcome of one predicate test of input position `i`
    /// against pattern element `j` (both 1-based) — the armed recorder
    /// turns this into an `Advance`/`Fail` event and a per-position
    /// count.  No-op when unarmed.
    #[inline]
    pub fn record_test(&self, i: usize, j: usize, ok: bool) {
        if let Some(recorder) = &self.recorder {
            let (i, j) = (i as u32, j as u32);
            recorder.borrow_mut().record(if ok {
                TraceEvent::Advance { i, j }
            } else {
                TraceEvent::Fail { i, j }
            });
        }
    }

    /// Install a shared pattern-set memo handle.  The counter's own
    /// accounting is untouched — `bump()` still fires for every logical
    /// test — but `test_element` may answer from the memo instead of
    /// evaluating.
    pub(crate) fn with_shared(mut self, handle: SharedEvalHandle) -> EvalCounter {
        self.shared = Some(Box::new(handle));
        self
    }

    /// The shared pattern-set memo handle, if one is installed.
    #[inline]
    pub(crate) fn shared(&self) -> Option<&SharedEvalHandle> {
        self.shared.as_deref()
    }

    /// Take the armed recorder back (end-of-cluster accounting).
    pub fn into_recorder(self) -> Option<ClusterRecorder> {
        self.recorder.map(|r| r.into_inner())
    }

    /// Clone the armed recorder's current state without disarming it
    /// (checkpoint capture for a still-running streaming session).
    pub fn recorder_snapshot(&self) -> Option<ClusterRecorder> {
        self.recorder.as_ref().map(|r| r.borrow().clone())
    }

    /// Restore a historical test total (checkpoint resume).  The restored
    /// steps are marked as already flushed: they were metered against the
    /// governor of the run that took the checkpoint, and the fresh governor
    /// of the resumed run only pays for work done after the split point.
    pub fn restore_total(&self, total: u64) {
        self.tests.set(total);
        self.flushed.set(total);
    }

    /// Record one predicate test.
    #[inline]
    pub fn bump(&self) {
        self.tests.set(self.tests.get() + 1);
        if self.scope.is_some() {
            let c = self.credit.get();
            if c <= 1 {
                self.refill();
            } else {
                self.credit.set(c - 1);
            }
        }
    }

    /// The cold path of a governed bump: flush the batch, run the shared
    /// checks, take the next batch of credit.
    #[cold]
    fn refill(&self) {
        let Some(scope) = &self.scope else { return };
        if let Some(recorder) = &self.recorder {
            recorder.borrow_mut().governor_flush();
        }
        let spent = self.tests.get() - self.flushed.get();
        self.flushed.set(self.tests.get());
        match scope.refill(spent) {
            Ok(credit) => self.credit.set(credit),
            Err(_) => self.latch_trip(),
        }
    }

    /// Stop re-checking: the engines observe `tripped` at their loop heads
    /// and wind the cluster down.
    fn latch_trip(&self) {
        self.tripped.set(true);
        self.credit.set(u32::MAX);
    }

    /// Settle a streaming lane around a drive: flush the steps spent since
    /// the last refill and hand back the credit the step budget no longer
    /// covers.  A run's lanes are driven one at a time, so once each
    /// settles, no lane holds a grant past the budget and a trip lands on
    /// the same step as a sequential batch run.  A no-op without a step
    /// budget.
    #[inline]
    pub(crate) fn settle(&self) {
        let Some(scope) = self.scope.as_ref().filter(|scope| scope.budgeted()) else {
            return;
        };
        if self.tripped.get() {
            return;
        }
        let spent = self.tests.get() - self.flushed.get();
        self.flushed.set(self.tests.get());
        match scope.flush(spent) {
            Ok(()) => self.credit.set(self.credit.get().min(scope.credit())),
            Err(_) => self.latch_trip(),
        }
    }

    /// Record one match against the governor's match budget.  Returns
    /// `true` when the match may be retained; `false` means the budget is
    /// exhausted — the caller must drop the match (keeping the retained
    /// count exactly at the budget) and will observe
    /// [`tripped`](EvalCounter::tripped) at its next loop head.  Always
    /// `true` for ungoverned counters.
    #[inline]
    #[must_use]
    pub fn match_found(&self) -> bool {
        if let Some(scope) = &self.scope {
            if scope.record_match().is_err() {
                self.tripped.set(true);
                return false;
            }
        }
        true
    }

    /// Has the governor tripped?  Engines poll this at loop heads and
    /// return early with the matches found so far.
    #[inline]
    pub fn tripped(&self) -> bool {
        self.tripped.get()
    }

    /// Flush any steps not yet reported to the governor (end-of-cluster
    /// accounting; keeps `RunGovernor::steps_consumed` exact).
    pub fn finish(&self) {
        if let Some(scope) = &self.scope {
            // A trip found here is latched in the run; the cluster is done.
            let _ = scope.flush(self.tests.get() - self.flushed.get());
            self.flushed.set(self.tests.get());
        }
    }

    /// Total predicate tests recorded.
    pub fn total(&self) -> u64 {
        self.tests.get()
    }

    /// Reset the test count to zero (the governed credit/trip state is
    /// left untouched; reset is a bench/experiment convenience).
    pub fn reset(&self) {
        self.tests.set(0);
        self.flushed.set(0);
    }
}

/// The `(i, j)` trajectory of a search — the input cursor and pattern
/// cursor at every predicate test, the path curves of the paper's
/// Figure 5 — read off the `Advance`/`Fail` events of an armed recorder.
#[derive(Debug, Default, Clone)]
pub struct SearchTrace {
    /// `(i, j)` pairs, 1-based as in the paper.
    pub steps: Vec<(usize, usize)>,
}

impl SearchTrace {
    /// A counter armed to retain every event of a search over an
    /// `m`-element pattern (the ring drops nothing), for
    /// [`SearchTrace::of`] to read back.
    pub fn counter(m: usize) -> EvalCounter {
        EvalCounter::new().with_recorder(ClusterRecorder::new(m, usize::MAX))
    }

    /// The trajectory `counter`'s recorder retained: one step per
    /// predicate test (empty when the counter was never armed).
    pub fn of(counter: EvalCounter) -> SearchTrace {
        let events = counter.into_recorder().map(|r| r.events.into_events());
        let steps = events
            .unwrap_or_default()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Advance { i, j } | TraceEvent::Fail { i, j } => {
                    Some((i as usize, j as usize))
                }
                _ => None,
            });
        SearchTrace {
            steps: steps.collect(),
        }
    }

    /// The length of the search path (number of tests) — the quantity the
    /// paper calls "the length of the search path".
    pub fn path_len(&self) -> usize {
        self.steps.len()
    }

    /// How many times the input cursor moved backwards (a "backtracking
    /// episode" in the paper's terms).
    pub fn backtrack_episodes(&self) -> usize {
        self.steps.windows(2).filter(|w| w[1].0 < w[0].0).count()
    }

    /// Render the trajectory as a small ASCII chart (input position on the
    /// x-axis over test steps), used by the `experiments fig5` binary.
    pub fn ascii_chart(&self, width: usize) -> String {
        if self.steps.is_empty() {
            return String::new();
        }
        let max_i = self.steps.iter().map(|s| s.0).max().unwrap_or(1);
        let mut out = String::new();
        for (step, &(i, _j)) in self.steps.iter().enumerate() {
            let col = (i - 1) * width.saturating_sub(1) / max_i.max(1);
            out.push_str(&format!("{step:5} |"));
            out.push_str(&" ".repeat(col));
            out.push('*');
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = EvalCounter::new();
        assert_eq!(c.total(), 0);
        c.bump();
        c.bump();
        assert_eq!(c.total(), 2);
        assert!(!c.tripped());
        assert!(c.match_found()); // always retained when ungoverned
        c.finish();
        c.reset();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn governed_counter_trips_on_step_budget() {
        use crate::governor::{Governor, TripReason};
        let run = Governor::unlimited().with_max_steps(100).begin();
        let c = EvalCounter::governed(run.scope());
        let mut bumps = 0u64;
        while !c.tripped() && bumps < 10_000 {
            c.bump();
            bumps += 1;
        }
        assert!(c.tripped(), "budget of 100 must trip");
        // Sequential credit clamping makes the trip land exactly when the
        // budget is first exceeded.
        assert_eq!(bumps, 101);
        c.finish();
        assert_eq!(run.steps_consumed(), c.total());
        assert_eq!(run.trip().unwrap().reason, TripReason::StepBudget);
        // The count itself stays exact despite governing.
        assert_eq!(c.total(), bumps);
    }

    #[test]
    fn governed_counter_without_limits_never_trips() {
        use crate::governor::Governor;
        let run = Governor::unlimited().begin();
        let c = EvalCounter::governed(run.scope());
        for _ in 0..100_000 {
            c.bump();
        }
        assert!(c.match_found());
        c.finish();
        assert!(!c.tripped());
        assert_eq!(run.steps_consumed(), 100_000);
        assert_eq!(run.matches_recorded(), 1);
    }

    #[test]
    fn governed_counter_trips_on_match_budget() {
        use crate::governor::{Governor, TripReason};
        let run = Governor::unlimited().with_max_matches(1).begin();
        let c = EvalCounter::governed(run.scope());
        assert!(c.match_found());
        assert!(!c.tripped());
        assert!(!c.match_found(), "second match must be rejected");
        assert!(c.tripped());
        assert_eq!(run.matches_recorded(), 1);
        assert_eq!(run.trip().unwrap().reason, TripReason::MatchBudget);
    }

    #[test]
    fn governed_counter_observes_pre_tripped_run() {
        use crate::governor::{Governor, TripReason};
        use std::time::Duration;
        let run = Governor::unlimited().with_timeout(Duration::ZERO).begin();
        let c = EvalCounter::governed(run.scope());
        assert!(
            c.tripped(),
            "initial check must observe the expired deadline"
        );
        assert_eq!(c.total(), 0);
        assert_eq!(run.trip().unwrap().reason, TripReason::Deadline);
    }

    #[test]
    fn trace_records_and_measures() {
        let t = SearchTrace {
            steps: vec![(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (4, 3)],
        };
        assert_eq!(t.path_len(), 6);
        assert_eq!(t.backtrack_episodes(), 1); // 3 -> 2
    }

    #[test]
    fn ascii_chart_smoke() {
        let t = SearchTrace {
            steps: vec![(1, 1), (5, 1)],
        };
        let chart = t.ascii_chart(20);
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.contains('*'));
        assert!(SearchTrace::default().ascii_chart(10).is_empty());
    }
}
