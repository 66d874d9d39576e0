//! Harness-side span recording for the traced run.
//!
//! Spans are recorded around every call the harness makes into the
//! program (socket writes, reply reads, process restarts, in-process
//! verification), kept in memory, and written out as JSON lines when the
//! run ends.  An unarmed tracer records nothing: `begin` returns 0 and
//! `end(0)` is a no-op, so the untraced run pays one branch per site.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.  `frame` groups the spans of one request (0 = none).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub frame: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder.  Ids are made unique across threads by
/// the `lane` folded into their high bits.
pub struct Tracer {
    armed: bool,
    origin: Instant,
    lane: u64,
    next: u64,
    open: Vec<(u64, u64, &'static str, u64, u64)>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(armed: bool, origin: Instant, lane: u64) -> Tracer {
        Tracer {
            armed,
            origin,
            lane,
            next: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, frame: u64) -> u64 {
        if !self.armed {
            return 0;
        }
        self.next += 1;
        let id = (self.lane << 48) | self.next;
        let parent = self.open.last().map_or(0, |o| o.0);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.open.push((id, parent, name, frame, now));
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let (open_id, parent, name, frame, start_ns) =
            self.open.pop().expect("span end without a begin");
        assert_eq!(open_id, id, "spans must close innermost-first");
        self.spans.push(Span {
            id,
            parent,
            name,
            frame,
            start_ns,
            end_ns: now,
        });
    }

    /// Run `work` inside a span.
    pub fn span<T>(&mut self, name: &'static str, frame: u64, work: impl FnOnce() -> T) -> T {
        let id = self.begin(name, frame);
        let out = work();
        self.end(id);
        out
    }
}

/// Fold spans into self time per name: a span's duration minus the part
/// its direct children cover.  The self times of a properly nested set
/// sum to the total duration of its root spans.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        let covered = child_ns.get(&span.id).copied().unwrap_or(0);
        *out.entry(span.name).or_default() += (span.end_ns - span.start_ns).saturating_sub(covered);
    }
    out
}

/// One JSON line per span, in close order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(
            &Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.name)),
                ("frame", Json::Num(s.frame as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
            .encode(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            frame: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // frame 0..100 holds send 10..30 and await 30..90; await holds
        // read 40..60.
        let spans = vec![
            span(2, 1, "send", 10, 30),
            span(4, 3, "read", 40, 60),
            span(3, 1, "await_reply", 30, 90),
            span(1, 0, "frame", 0, 100),
        ];
        let folded = self_times_ns(&spans);
        assert_eq!(folded["send"], 20);
        assert_eq!(folded["read"], 20);
        assert_eq!(folded["await_reply"], 40);
        assert_eq!(folded["frame"], 20);
        assert_eq!(
            folded.values().sum::<u64>(),
            100,
            "self times sum to the root"
        );
    }

    #[test]
    fn unarmed_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.begin("frame", 1);
        assert_eq!(id, 0);
        t.end(id);
        assert_eq!(t.span("send", 1, || 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn armed_tracer_nests_and_tags_lanes() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        let outer = t.begin("frame", 9);
        t.span("send", 9, || ());
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "send");
        assert_eq!(t.spans[0].parent, outer);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(outer >> 48, 3);
        let lines = to_jsonl(&t.spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(Json::parse(lines.lines().next().unwrap()).is_ok());
    }
}
