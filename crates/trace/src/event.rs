//! Search events (the paper's Figure 5, machine-readable) and the bounded
//! ring-buffer recorder.

use std::collections::VecDeque;
use std::fmt;

/// Why a governed run was cut short.  A dependency-free mirror of the
/// engine's `TripReason`, so trace artifacts can name the cause without
/// this crate depending on the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TripCause {
    /// The wall-clock deadline passed.
    Deadline,
    /// The predicate-test budget was exhausted.
    StepBudget,
    /// The match/row budget was exhausted.
    MatchBudget,
}

impl TripCause {
    /// Stable machine-readable name (used in JSON and Prometheus output).
    pub fn as_str(&self) -> &'static str {
        match self {
            TripCause::Deadline => "deadline",
            TripCause::StepBudget => "step_budget",
            TripCause::MatchBudget => "match_budget",
        }
    }

    /// Parse a [`TripCause::as_str`] name back (checkpoint decoding).
    pub fn parse(name: &str) -> Option<TripCause> {
        Some(match name {
            "deadline" => TripCause::Deadline,
            "step_budget" => TripCause::StepBudget,
            "match_budget" => TripCause::MatchBudget,
            _ => return None,
        })
    }
}

impl fmt::Display for TripCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One step of a pattern search, in the vocabulary of the paper's
/// Figure 5.  Input positions `i` and pattern positions `j` are 1-based,
/// matching the paper's `t_i` / `p_j` notation.
///
/// `Copy` and four words wide: recording one is a couple of stores.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// Input position `i` satisfied pattern element `j`: the search
    /// advances (into, or further along, element `j`).
    Advance {
        /// 1-based input position tested.
        i: u32,
        /// 1-based pattern element tested.
        j: u32,
    },
    /// Input position `i` failed pattern element `j`.
    Fail {
        /// 1-based input position tested.
        i: u32,
        /// 1-based pattern element tested.
        j: u32,
    },
    /// After a genuine failure at element `j`, the attempt start moved
    /// forward past `dist` pattern elements — the paper's `shift(j)`.
    /// The naive engines always restart one tuple on (`dist = 1`).
    Shift {
        /// 1-based pattern element whose failure triggered the realign.
        j: u32,
        /// Elements shifted over (`shift(j)`), or 1 for naive restarts.
        dist: u32,
    },
    /// After the shift for a failure at `j`, matching resumes at element
    /// `k` — the paper's `next(j)`; `k = 0` means the failed tuple itself
    /// is excluded and the input cursor advances past it.
    Next {
        /// 1-based pattern element whose failure triggered the realign.
        j: u32,
        /// Element where matching resumes (`next(j)`; 0 = advance input).
        k: u32,
    },
    /// A match was retained, spanning input positions `start..=end`
    /// (1-based, inclusive).
    MatchEmitted {
        /// First input position of the match.
        start: u32,
        /// Last input position of the match.
        end: u32,
    },
    /// The resource governor cut this cluster's search short.
    GovernorTrip {
        /// Which limit tripped.
        cause: TripCause,
    },
}

impl TraceEvent {
    /// Stable machine-readable event name.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Advance { .. } => "advance",
            TraceEvent::Fail { .. } => "fail",
            TraceEvent::Shift { .. } => "shift",
            TraceEvent::Next { .. } => "next",
            TraceEvent::MatchEmitted { .. } => "match",
            TraceEvent::GovernorTrip { .. } => "governor_trip",
        }
    }

    /// Append this event as one JSON object (no trailing newline), e.g.
    /// `{"ev":"advance","i":3,"j":2}`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            TraceEvent::Advance { i, j } | TraceEvent::Fail { i, j } => {
                let _ = write!(out, "{{\"ev\":\"{}\",\"i\":{i},\"j\":{j}}}", self.kind());
            }
            TraceEvent::Shift { j, dist } => {
                let _ = write!(out, "{{\"ev\":\"shift\",\"j\":{j},\"dist\":{dist}}}");
            }
            TraceEvent::Next { j, k } => {
                let _ = write!(out, "{{\"ev\":\"next\",\"j\":{j},\"k\":{k}}}");
            }
            TraceEvent::MatchEmitted { start, end } => {
                let _ = write!(out, "{{\"ev\":\"match\",\"start\":{start},\"end\":{end}}}");
            }
            TraceEvent::GovernorTrip { cause } => {
                let _ = write!(out, "{{\"ev\":\"governor_trip\",\"cause\":\"{cause}\"}}");
            }
        }
    }
}

/// A bounded flight recorder: keeps the most recent `capacity` events and
/// counts how many older ones were dropped.  Dropping is deterministic —
/// the retained window depends only on the event stream and the capacity,
/// never on timing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RingBuffer {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingBuffer {
    /// A recorder keeping at most `capacity` events (0 records nothing).
    pub fn new(capacity: usize) -> RingBuffer {
        RingBuffer {
            buf: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Record one event, dropping the oldest retained one when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Drain the retained events into a `Vec`, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into_iter().collect()
    }

    /// How many events were dropped (oldest-first) to stay within bounds.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebuild a recorder from previously captured parts (checkpoint
    /// restore).  Events beyond `capacity` are dropped oldest-first, as if
    /// they had been recorded live.
    pub fn from_parts(capacity: usize, events: Vec<TraceEvent>, dropped: u64) -> RingBuffer {
        let mut rb = RingBuffer {
            buf: VecDeque::new(),
            capacity,
            dropped,
        };
        // Replay through `record` minus the drop accounting already
        // reflected in `dropped`.
        let spill = events.len().saturating_sub(capacity);
        rb.buf.extend(events.into_iter().skip(spill));
        rb
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shapes() {
        let cases = [
            (
                TraceEvent::Advance { i: 3, j: 2 },
                r#"{"ev":"advance","i":3,"j":2}"#,
            ),
            (
                TraceEvent::Fail { i: 4, j: 1 },
                r#"{"ev":"fail","i":4,"j":1}"#,
            ),
            (
                TraceEvent::Shift { j: 4, dist: 3 },
                r#"{"ev":"shift","j":4,"dist":3}"#,
            ),
            (
                TraceEvent::Next { j: 4, k: 1 },
                r#"{"ev":"next","j":4,"k":1}"#,
            ),
            (
                TraceEvent::MatchEmitted { start: 2, end: 5 },
                r#"{"ev":"match","start":2,"end":5}"#,
            ),
            (
                TraceEvent::GovernorTrip {
                    cause: TripCause::StepBudget,
                },
                r#"{"ev":"governor_trip","cause":"step_budget"}"#,
            ),
            (
                TraceEvent::GovernorTrip {
                    cause: TripCause::Deadline,
                },
                r#"{"ev":"governor_trip","cause":"deadline"}"#,
            ),
        ];
        for (event, expect) in cases {
            let mut s = String::new();
            event.write_json(&mut s);
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let mut rb = RingBuffer::new(2);
        for i in 1..=5 {
            rb.record(TraceEvent::Advance { i, j: 1 });
        }
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.dropped(), 3);
        let kept: Vec<_> = rb.events().copied().collect();
        assert_eq!(
            kept,
            vec![
                TraceEvent::Advance { i: 4, j: 1 },
                TraceEvent::Advance { i: 5, j: 1 }
            ]
        );
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut rb = RingBuffer::new(0);
        rb.record(TraceEvent::MatchEmitted { start: 1, end: 1 });
        assert!(rb.is_empty());
        assert_eq!(rb.dropped(), 1);
    }

    #[test]
    fn trip_cause_names_round_trip() {
        for cause in [
            TripCause::Deadline,
            TripCause::StepBudget,
            TripCause::MatchBudget,
        ] {
            assert_eq!(TripCause::parse(cause.as_str()), Some(cause));
        }
        assert_eq!(TripCause::parse("nonsense"), None);
    }

    #[test]
    fn ring_buffer_from_parts_round_trips() {
        let mut rb = RingBuffer::new(3);
        for i in 1..=5 {
            rb.record(TraceEvent::Fail { i, j: 1 });
        }
        let rebuilt =
            RingBuffer::from_parts(rb.capacity(), rb.events().copied().collect(), rb.dropped());
        assert_eq!(rebuilt, rb);
    }
}
