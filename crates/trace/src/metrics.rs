//! The per-cluster metrics registry: cheap counters and bounded
//! histograms, merged deterministically in cluster order.

use crate::event::{TraceEvent, TripCause};
use crate::RingBuffer;

/// Number of histogram buckets.  Bucket `b` counts values whose bit width
/// is `b` (i.e. `2^(b-1) <= v < 2^b`), with bucket 0 counting zeros and
/// the last bucket absorbing everything wider — so distances up to
/// `2^(HIST_BUCKETS-2)` land in their own power-of-two bucket.
pub const HIST_BUCKETS: usize = 16;

/// A fixed-size power-of-two histogram.  No allocation, `O(1)` record,
/// element-wise merge — the deterministic building block for
/// shift-distance and backtrack-depth distributions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoundedHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl BoundedHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> BoundedHistogram {
        BoundedHistogram::default()
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Merge another histogram into this one (element-wise; associative
    /// and commutative, but the engine always merges in cluster order).
    pub fn merge(&mut self, other: &BoundedHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The non-empty buckets as `(upper_bound_inclusive, count)` pairs;
    /// the last bucket's bound is `u64::MAX`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (Self::bucket_bound(b), c))
    }

    /// Inclusive upper bound of bucket `b`.
    pub fn bucket_bound(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// The raw bucket counts (checkpoint capture).
    pub fn raw_buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Rebuild a histogram from previously captured parts (checkpoint
    /// restore).  `count`/`sum`/`max` are taken as recorded because `sum`
    /// and `max` are not derivable from the buckets.
    pub fn from_parts(buckets: [u64; HIST_BUCKETS], count: u64, sum: u64, max: u64) -> Self {
        BoundedHistogram {
            buckets,
            count,
            sum,
            max,
        }
    }
}

/// The per-cluster slice of the metrics registry.  Plain counters — no
/// interior mutability, no atomics; one recorder belongs to exactly one
/// cluster search, and cross-cluster totals come from merging in cluster
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// Predicate tests per 1-based pattern position (`[j-1]`), the
    /// paper's §7 metric broken down by element.
    pub tests_per_position: Vec<u64>,
    /// Distribution of shift distances taken on realigns (in pattern
    /// elements; naive restarts record distance 1).
    pub shifts: BoundedHistogram,
    /// Distribution of backward input-cursor moves (backtrack depth in
    /// tuples), derived from consecutive test positions exactly like the
    /// paper's "backtracking episodes".
    pub backtracks: BoundedHistogram,
    /// Matches retained.
    pub matches: u64,
    /// Governor credit-batch flushes (0 when ungoverned).
    pub governor_flushes: u64,
    /// Why the governor cut this cluster short, if it did.
    pub trip: Option<TripCause>,
}

impl ClusterMetrics {
    /// A registry for a pattern of `positions` elements.
    pub fn new(positions: usize) -> ClusterMetrics {
        ClusterMetrics {
            tests_per_position: vec![0; positions],
            ..ClusterMetrics::default()
        }
    }

    /// Total predicate tests across all positions — must equal the
    /// engine's `EvalCounter` total bit for bit.
    pub fn total_tests(&self) -> u64 {
        self.tests_per_position.iter().sum()
    }

    /// Merge another cluster's metrics into this one.  Callers merge in
    /// cluster order; the first recorded trip cause wins.
    pub fn merge(&mut self, other: &ClusterMetrics) {
        if self.tests_per_position.len() < other.tests_per_position.len() {
            self.tests_per_position
                .resize(other.tests_per_position.len(), 0);
        }
        for (a, b) in self
            .tests_per_position
            .iter_mut()
            .zip(&other.tests_per_position)
        {
            *a += b;
        }
        self.shifts.merge(&other.shifts);
        self.backtracks.merge(&other.backtracks);
        self.matches += other.matches;
        self.governor_flushes += other.governor_flushes;
        if self.trip.is_none() {
            self.trip = other.trip;
        }
    }
}

/// The per-cluster recorder the engine arms: folds every [`TraceEvent`]
/// into the [`ClusterMetrics`] registry and (when a capacity is given)
/// retains the event stream in a bounded [`RingBuffer`] for replay.
///
/// Backtrack depth is derived here rather than emitted by the engines:
/// whenever a test event's input position moves backwards, the distance
/// is one backtrack episode — the same definition the paper applies to
/// its Figure 5 trajectories.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterRecorder {
    /// The metrics registry being populated.
    pub metrics: ClusterMetrics,
    /// The bounded event recorder (capacity 0 when only profiling).
    pub events: RingBuffer,
    /// Input position of the last test event (backtrack derivation).
    last_i: u32,
}

impl ClusterRecorder {
    /// A recorder for a pattern of `positions` elements.
    /// `trace_capacity` bounds the retained event stream; pass 0 to keep
    /// metrics only.
    pub fn new(positions: usize, trace_capacity: usize) -> ClusterRecorder {
        ClusterRecorder {
            metrics: ClusterMetrics::new(positions),
            events: RingBuffer::new(trace_capacity),
            last_i: 0,
        }
    }

    /// Input position of the last test event (checkpoint capture; needed
    /// so a restored recorder derives backtrack depth identically).
    pub fn last_i(&self) -> u32 {
        self.last_i
    }

    /// Rebuild a recorder mid-stream from previously captured parts
    /// (checkpoint restore).
    pub fn from_parts(metrics: ClusterMetrics, events: RingBuffer, last_i: u32) -> Self {
        ClusterRecorder {
            metrics,
            events,
            last_i,
        }
    }

    /// Record one governor credit flush (metrics only, not an event).
    #[inline]
    pub fn governor_flush(&mut self) {
        self.metrics.governor_flushes += 1;
    }

    /// Fold one event into the metrics and retain it in the ring.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Advance { i, j } | TraceEvent::Fail { i, j } => {
                if let Some(slot) = self.metrics.tests_per_position.get_mut(j as usize - 1) {
                    *slot += 1;
                }
                if i < self.last_i {
                    self.metrics.backtracks.record(u64::from(self.last_i - i));
                }
                self.last_i = i;
            }
            TraceEvent::Shift { dist, .. } => self.metrics.shifts.record(u64::from(dist)),
            TraceEvent::Next { .. } => {}
            TraceEvent::MatchEmitted { .. } => self.metrics.matches += 1,
            TraceEvent::GovernorTrip { cause } => {
                if self.metrics.trip.is_none() {
                    self.metrics.trip = Some(cause);
                }
            }
        }
        self.events.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = BoundedHistogram::new();
        for v in [0, 1, 2, 3, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1018);
        assert_eq!(h.max(), 1000);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 0 → bound 0; 1 → bound 1; 2,3 → bound 3; 4 → bound 7;
        // 8 → bound 15; 1000 → bound 1023.
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (15, 1), (1023, 1)]
        );
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = BoundedHistogram::new();
        a.record(1);
        a.record(5);
        let mut b = BoundedHistogram::new();
        b.record(5);
        b.record(100);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum(), 111);
        assert_eq!(merged.max(), 100);
    }

    #[test]
    fn recorder_folds_events_into_metrics() {
        let mut r = ClusterRecorder::new(3, 16);
        r.record(TraceEvent::Advance { i: 1, j: 1 });
        r.record(TraceEvent::Advance { i: 2, j: 2 });
        r.record(TraceEvent::Fail { i: 3, j: 3 });
        // Backtrack: cursor jumps from 3 back to 2 (depth 1).
        r.record(TraceEvent::Fail { i: 2, j: 1 });
        r.record(TraceEvent::Shift { j: 3, dist: 2 });
        r.record(TraceEvent::Next { j: 3, k: 1 });
        r.record(TraceEvent::MatchEmitted { start: 1, end: 3 });
        r.record(TraceEvent::GovernorTrip {
            cause: TripCause::Deadline,
        });
        assert_eq!(r.metrics.tests_per_position, vec![2, 1, 1]);
        assert_eq!(r.metrics.total_tests(), 4);
        assert_eq!(r.metrics.backtracks.count(), 1);
        assert_eq!(r.metrics.backtracks.max(), 1);
        assert_eq!(r.metrics.shifts.count(), 1);
        assert_eq!(r.metrics.shifts.sum(), 2);
        assert_eq!(r.metrics.matches, 1);
        assert_eq!(r.metrics.trip, Some(TripCause::Deadline));
        assert_eq!(r.events.len(), 8);
    }

    #[test]
    fn metrics_merge_accumulates_in_order() {
        let mut a = ClusterMetrics::new(2);
        a.tests_per_position = vec![3, 1];
        a.matches = 1;
        let mut b = ClusterMetrics::new(2);
        b.tests_per_position = vec![2, 2];
        b.trip = Some(TripCause::StepBudget);
        a.merge(&b);
        assert_eq!(a.tests_per_position, vec![5, 3]);
        assert_eq!(a.total_tests(), 8);
        assert_eq!(a.matches, 1);
        assert_eq!(a.trip, Some(TripCause::StepBudget));
    }
}
