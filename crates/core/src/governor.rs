//! The query resource governor: a deadline and budgets.
//!
//! The paper's OPS optimizer bounds *shifts*, not wall-clock or memory: an
//! adversarial pattern (a giant ambiguous-star cluster under
//! [`EngineKind::NaiveBacktrack`](crate::EngineKind::NaiveBacktrack), a
//! pathological input, a runaway client) can otherwise pin a core forever.
//! The governor makes every search loop preemptible without slowing the
//! ungoverned fast path:
//!
//! * a [`Governor`] is the user-facing *configuration* (wall-clock timeout,
//!   step budget, match/row budget) carried in
//!   [`ExecOptions`](crate::ExecOptions);
//! * [`Governor::begin`] arms it into a [`RunGovernor`], the per-query
//!   shared state (deadline instant, consumed-step/match accumulators,
//!   first-trip latch) every worker thread observes;
//! * [`RunGovernor::scope`] hands each cluster a [`GovernorScope`], whose
//!   *batched credit counter* lets the engines' inner loops pay one `Cell`
//!   decrement per predicate test and only touch atomics / `Instant::now()`
//!   once per [`STEP_BATCH`] steps.
//!
//! The unit of the step budget is the paper's own cost metric: one step =
//! one predicate test (one input element tested against one pattern
//! element).  The match budget doubles as a coarse memory budget — each
//! retained match is one projected output row, the only per-result
//! allocation the executor keeps.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many locally metered steps a [`GovernorScope`] takes between
/// expensive checks (atomics, clock reads).  A predicate test is tens of
/// nanoseconds, so a batch is microseconds: deadlines are observed within
/// a sliver of `--timeout-ms` while the per-step overhead stays at one
/// branch + one `Cell` decrement.
pub const STEP_BATCH: u32 = 256;

/// Why a governed run was terminated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TripReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The predicate-test budget was exhausted.
    StepBudget,
    /// The match/row budget was exhausted.
    MatchBudget,
}

impl TripReason {
    /// The dependency-free mirror of this reason in the trace crate's
    /// vocabulary (used when folding trips into profiles and events).
    pub fn trace_cause(self) -> sqlts_trace::TripCause {
        match self {
            TripReason::Deadline => sqlts_trace::TripCause::Deadline,
            TripReason::StepBudget => sqlts_trace::TripCause::StepBudget,
            TripReason::MatchBudget => sqlts_trace::TripCause::MatchBudget,
        }
    }
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripReason::Deadline => write!(f, "deadline exceeded"),
            TripReason::StepBudget => write!(f, "step budget exhausted"),
            TripReason::MatchBudget => write!(f, "match budget exhausted"),
        }
    }
}

/// A record of a governed termination: what tripped, and how much of each
/// resource had been consumed when it did.
#[derive(Clone, Debug)]
pub struct Trip {
    /// Which limit tripped first.
    pub reason: TripReason,
    /// Predicate-test steps consumed across all workers at trip time.
    pub steps: u64,
    /// Matches retained across all workers at trip time.
    pub matches: u64,
    /// Wall-clock time since [`Governor::begin`].
    pub elapsed: Duration,
}

impl fmt::Display for Trip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {:.1}ms ({} steps, {} matches)",
            self.reason,
            self.elapsed.as_secs_f64() * 1e3,
            self.steps,
            self.matches
        )
    }
}

/// Per-query resource limits (all optional; the default is unlimited).
///
/// `Governor` is cheap to clone and inert until [`begin`](Governor::begin)
/// arms it for one query run; reusing the same `Governor` for many queries
/// gives each its own fresh budgets and deadline.
#[derive(Clone, Debug, Default)]
pub struct Governor {
    timeout: Option<Duration>,
    max_steps: Option<u64>,
    max_matches: Option<u64>,
}

impl Governor {
    /// No limits: every check short-circuits.
    pub fn unlimited() -> Governor {
        Governor::default()
    }

    /// Limit wall-clock time, measured from [`begin`](Governor::begin).
    pub fn with_timeout(mut self, timeout: Duration) -> Governor {
        self.timeout = Some(timeout);
        self
    }

    /// Limit total predicate tests (the paper's cost metric) across all
    /// clusters and worker threads.
    pub fn with_max_steps(mut self, max_steps: u64) -> Governor {
        self.max_steps = Some(max_steps);
        self
    }

    /// Limit total retained matches (= projected output rows), the
    /// executor's dominant memory consumer.
    pub fn with_max_matches(mut self, max_matches: u64) -> Governor {
        self.max_matches = Some(max_matches);
        self
    }

    /// `true` if no limit is set — the executor skips all metering
    /// plumbing entirely in that case.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.max_steps.is_none() && self.max_matches.is_none()
    }

    /// Arm the governor for one query run: the deadline clock starts now.
    /// The returned handle is shared (by clone) with every worker thread.
    pub fn begin(&self) -> Arc<RunGovernor> {
        let started = Instant::now();
        Arc::new(RunGovernor {
            deadline: self.timeout.map(|t| started + t),
            max_steps: self.max_steps,
            max_matches: self.max_matches,
            started,
            steps: AtomicU64::new(0),
            matches: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            trip: Mutex::new(None),
        })
    }
}

/// The armed, per-query-run governor state shared (by reference) across
/// the executor's worker threads.
#[derive(Debug)]
pub struct RunGovernor {
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    max_matches: Option<u64>,
    started: Instant,
    steps: AtomicU64,
    matches: AtomicU64,
    tripped: AtomicBool,
    trip: Mutex<Option<Trip>>,
}

impl RunGovernor {
    /// A per-cluster metering handle (single-threaded, batched).
    pub fn scope(self: &Arc<RunGovernor>) -> GovernorScope {
        GovernorScope {
            run: Arc::clone(self),
        }
    }

    /// Total steps flushed by all scopes so far.
    pub fn steps_consumed(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Total matches recorded by all scopes so far.
    pub fn matches_recorded(&self) -> u64 {
        self.matches.load(Ordering::Relaxed)
    }

    /// Has any limit tripped?  Workers poll this before starting each
    /// cluster so a tripped query winds down without scanning further
    /// clusters.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// The first trip recorded, if any.
    pub fn trip(&self) -> Option<Trip> {
        self.trip.lock().expect("trip lock").clone()
    }

    /// Build a [`Trip`] for `reason` from the current counters without
    /// latching it.  Used as a graceful fallback when a caller observed a
    /// trip condition but the latched record is not (yet) visible.
    pub(crate) fn make_trip(&self, reason: TripReason) -> Trip {
        Trip {
            reason,
            steps: self.steps.load(Ordering::Relaxed),
            matches: self.matches.load(Ordering::Relaxed),
            elapsed: self.started.elapsed(),
        }
    }

    /// Latch `reason` as the run's trip (first writer wins).
    fn record_trip(&self, reason: TripReason) {
        let mut slot = self.trip.lock().expect("trip lock");
        if slot.is_none() {
            *slot = Some(self.make_trip(reason));
        }
        drop(slot);
        self.tripped.store(true, Ordering::Relaxed);
    }

    /// The reason of the latched trip, for a caller that saw `tripped`
    /// set.  [`record_trip`](RunGovernor::record_trip) fills the slot
    /// before it sets the flag, so the slot is not empty; `StepBudget`
    /// stands in rather than panicking if that ever breaks.
    fn latched_reason(&self) -> TripReason {
        self.trip
            .lock()
            .expect("trip lock")
            .as_ref()
            .map_or(TripReason::StepBudget, |t| t.reason)
    }

    /// The expensive check: flush `delta` locally metered steps into the
    /// shared total, then test every armed limit.  Called once per
    /// [`STEP_BATCH`] steps by [`GovernorScope`].
    fn check(&self, delta: u64) -> Result<(), TripReason> {
        let total = self.steps.fetch_add(delta, Ordering::Relaxed) + delta;
        if self.tripped.load(Ordering::Relaxed) {
            // Another worker already tripped; report the latched reason so
            // all clusters wind down under one verdict.
            return Err(self.latched_reason());
        }
        #[cfg(feature = "failpoints")]
        if matches!(
            sqlts_relation::failpoints::hit("governor::check", total),
            Some(sqlts_relation::failpoints::Injected::ExhaustBudget)
        ) {
            self.record_trip(TripReason::StepBudget);
            return Err(TripReason::StepBudget);
        }
        if self.max_steps.is_some_and(|m| total > m) {
            self.record_trip(TripReason::StepBudget);
            return Err(TripReason::StepBudget);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.record_trip(TripReason::Deadline);
            return Err(TripReason::Deadline);
        }
        Ok(())
    }

    /// Check the wall-clock deadline *without* charging any steps,
    /// latching a trip exactly like [`check`].
    ///
    /// [`check`] only runs once per credit batch, which is fine when steps
    /// arrive fast — but a streaming session fed a slow trickle of tuples
    /// could otherwise sit inside one batch long past `--timeout-ms`.
    /// Sessions call this at every `feed()` boundary, and scopes call it on
    /// every flush, so the deadline is honored at tuple granularity.
    pub fn poll(&self) -> Result<(), TripReason> {
        if self.tripped.load(Ordering::Relaxed) {
            return Err(self.latched_reason());
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.record_trip(TripReason::Deadline);
            return Err(TripReason::Deadline);
        }
        Ok(())
    }

    /// Record one retained match.  Matches are far rarer than steps, so
    /// this hits the shared counter directly (no batching).  On `Err` the
    /// caller must *not* retain the match (the counter is rolled back so
    /// [`matches_recorded`](RunGovernor::matches_recorded) stays the
    /// retained count).
    fn record_match(&self) -> Result<(), TripReason> {
        let total = self.matches.fetch_add(1, Ordering::Relaxed) + 1;
        if self.max_matches.is_some_and(|m| total > m) {
            self.matches.fetch_sub(1, Ordering::Relaxed);
            self.record_trip(TripReason::MatchBudget);
            return Err(TripReason::MatchBudget);
        }
        Ok(())
    }

    /// How much credit a scope may spend before its next [`check`]: a full
    /// batch, shrunk near the step budget so sequential runs — and a
    /// streaming session's lanes, which settle around every drive — trip
    /// exactly at the limit (parallel runs can overshoot by at most one
    /// batch per worker).
    fn credit(&self) -> u32 {
        match self.max_steps {
            None => STEP_BATCH,
            Some(m) => {
                let left = m.saturating_sub(self.steps.load(Ordering::Relaxed));
                u64::from(STEP_BATCH).min(left).max(1) as u32
            }
        }
    }
}

/// A single-threaded, per-cluster metering handle: the engines' inner
/// loops call [`EvalCounter::bump`](crate::EvalCounter::bump), which spends
/// one unit of this scope's credit; only when the credit runs out does the
/// scope consult the shared [`RunGovernor`].
#[derive(Debug, Clone)]
pub struct GovernorScope {
    run: Arc<RunGovernor>,
}

impl GovernorScope {
    /// Flush `spent` steps and run the shared checks; on success returns
    /// the credit for the next batch.
    pub(crate) fn refill(&self, spent: u64) -> Result<u32, TripReason> {
        self.run.check(spent)?;
        Ok(self.run.credit())
    }

    /// Record one retained match against the match budget.
    pub(crate) fn record_match(&self) -> Result<(), TripReason> {
        self.run.record_match()
    }

    /// Flush steps metered since the last refill without asking for more
    /// credit (end-of-cluster accounting, and a streaming lane between
    /// drives), then check the step budget and poll the wall-clock
    /// deadline: a cluster can finish well inside one credit batch, and
    /// without this a streaming trickle would only observe the deadline
    /// every [`STEP_BATCH`] steps.
    pub(crate) fn flush(&self, spent: u64) -> Result<(), TripReason> {
        let total = self.run.steps.fetch_add(spent, Ordering::Relaxed) + spent;
        if self.run.max_steps.is_some_and(|m| total > m) {
            self.run.record_trip(TripReason::StepBudget);
        }
        self.run.poll()
    }

    /// Is a step budget set?  Only then can one scope's credit outlast
    /// what the budget has left.
    pub(crate) fn budgeted(&self) -> bool {
        self.run.max_steps.is_some()
    }

    /// The credit a scope may hold now (see [`GovernorScope::refill`]).
    pub(crate) fn credit(&self) -> u32 {
        self.run.credit()
    }

    /// The run this scope meters against.
    pub fn run(&self) -> &RunGovernor {
        &self.run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let run = Governor::unlimited().begin();
        let scope = run.scope();
        for _ in 0..10 {
            assert!(scope.refill(1_000_000).is_ok());
        }
        assert!(run.trip().is_none());
        assert!(!run.is_tripped());
        assert_eq!(run.steps_consumed(), 10_000_000);
    }

    #[test]
    fn step_budget_trips_exactly_in_sequential_use() {
        let run = Governor::unlimited().with_max_steps(1000).begin();
        let scope = run.scope();
        let mut spent = 0u64;
        let mut credit;
        loop {
            match scope.refill(0) {
                Ok(c) => credit = c,
                Err(reason) => {
                    assert_eq!(reason, TripReason::StepBudget);
                    break;
                }
            }
            // Spend the whole batch, as the counter does.
            spent += u64::from(credit);
            match scope.refill(u64::from(credit)) {
                Ok(_) => {}
                Err(reason) => {
                    assert_eq!(reason, TripReason::StepBudget);
                    break;
                }
            }
        }
        // Credit clamping shrinks the last batch to 1, so the trip is
        // detected on the very first step past the budget — an overshoot
        // of exactly one step, never a whole batch.
        assert_eq!(spent, 1001, "trip must land on the first over-budget step");
        let trip = run.trip().expect("tripped");
        assert_eq!(trip.reason, TripReason::StepBudget);
        assert!(trip.steps >= 1000);
    }

    #[test]
    fn deadline_trips() {
        let run = Governor::unlimited()
            .with_timeout(Duration::from_millis(0))
            .begin();
        let scope = run.scope();
        assert_eq!(scope.refill(1).unwrap_err(), TripReason::Deadline);
        assert!(run.is_tripped());
        assert_eq!(run.trip().unwrap().reason, TripReason::Deadline);
    }

    #[test]
    fn a_trip_is_sticky_and_each_run_starts_fresh() {
        let gov = Governor::unlimited().with_max_steps(0);
        let run = gov.begin();
        assert_eq!(run.scope().refill(1).unwrap_err(), TripReason::StepBudget);
        assert!(run.is_tripped());
        // Every later check, from any scope, reports the latched trip.
        assert_eq!(run.scope().refill(0).unwrap_err(), TripReason::StepBudget);
        assert_eq!(run.poll().unwrap_err(), TripReason::StepBudget);
        // A second run of the same governor has its own budget.
        let run2 = gov.begin();
        assert!(!run2.is_tripped());
        assert!(run2.trip().is_none());
    }

    #[test]
    fn match_budget_trips() {
        let run = Governor::unlimited().with_max_matches(2).begin();
        let scope = run.scope();
        assert!(scope.record_match().is_ok());
        assert!(scope.record_match().is_ok());
        assert_eq!(scope.record_match().unwrap_err(), TripReason::MatchBudget);
        // The rejected match is rolled back: the counter is the retained
        // count, which is exactly the budget.
        assert_eq!(run.matches_recorded(), 2);
        assert_eq!(run.trip().unwrap().reason, TripReason::MatchBudget);
    }

    #[test]
    fn first_trip_wins() {
        let run = Governor::unlimited()
            .with_max_steps(10)
            .with_max_matches(1)
            .begin();
        let scope = run.scope();
        assert_eq!(
            scope.record_match().and(scope.record_match()).unwrap_err(),
            TripReason::MatchBudget
        );
        // A later step-budget violation reports the latched match trip.
        assert!(scope.refill(100).is_err());
        assert_eq!(run.trip().unwrap().reason, TripReason::MatchBudget);
    }

    #[test]
    fn flush_polls_deadline_within_a_credit_batch() {
        // Regression: a scope that never exhausts its credit batch (slow
        // trickle of steps) must still observe the wall-clock deadline when
        // it flushes, not overshoot by a whole batch.
        let run = Governor::unlimited()
            .with_timeout(Duration::from_millis(1))
            .begin();
        let scope = run.scope();
        std::thread::sleep(Duration::from_millis(5));
        // Far fewer than STEP_BATCH steps: check() never runs.
        assert_eq!(scope.flush(3), Err(TripReason::Deadline));
        assert!(run.is_tripped(), "flush must latch the expired deadline");
        assert_eq!(run.trip().unwrap().reason, TripReason::Deadline);
        assert_eq!(run.steps_consumed(), 3);
    }

    #[test]
    fn flush_checks_the_step_budget() {
        // A flush that carries the total past the budget trips it, so no
        // step spent outside a credit check goes unreported.
        let run = Governor::unlimited().with_max_steps(5).begin();
        let scope = run.scope();
        assert_eq!(scope.flush(5), Ok(()));
        assert_eq!(scope.flush(1), Err(TripReason::StepBudget));
        let trip = run.trip().unwrap();
        assert_eq!((trip.reason, trip.steps), (TripReason::StepBudget, 6));
    }

    #[test]
    fn poll_checks_deadline_without_charging_steps() {
        let run = Governor::unlimited()
            .with_timeout(Duration::from_millis(1))
            .begin();
        assert!(run.poll().is_ok() || run.poll().is_err()); // no panic either way
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(run.poll().unwrap_err(), TripReason::Deadline);
        assert_eq!(run.steps_consumed(), 0, "poll must not charge steps");
        // Latched: subsequent polls report the same trip.
        assert_eq!(run.poll().unwrap_err(), TripReason::Deadline);

        // Budgets are only checked when steps are charged.
        let run = Governor::unlimited().with_max_steps(0).begin();
        assert!(run.poll().is_ok());
        assert!(!run.is_tripped());
    }

    #[test]
    fn trip_display_is_informative() {
        let run = Governor::unlimited().with_max_steps(1).begin();
        let _ = run.scope().refill(5);
        let msg = run.trip().unwrap().to_string();
        assert!(msg.contains("step budget exhausted"), "{msg}");
        assert!(msg.contains("steps"), "{msg}");
    }

    #[test]
    fn is_unlimited_reflects_configuration() {
        assert!(Governor::unlimited().is_unlimited());
        assert!(!Governor::unlimited().with_max_steps(1).is_unlimited());
        assert!(!Governor::unlimited()
            .with_timeout(Duration::from_secs(1))
            .is_unlimited());
        assert!(!Governor::unlimited().with_max_matches(0).is_unlimited());
    }
}
