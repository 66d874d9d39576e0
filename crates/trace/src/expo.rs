//! The one Prometheus text-exposition writer.
//!
//! Every exporter in the workspace — [`crate::ExecutionProfile`],
//! [`crate::PatternSetStats`], the server's `/metrics` families — is a
//! table of `(name, help, kind)` rows walked through an [`Exposition`].
//! The writer alone knows how a metric is declared (`# HELP` / `# TYPE`,
//! once per name per document), how base and per-sample labels are joined
//! and escaped, and what a histogram looks like on the wire, so several
//! families (or several tenants' profiles) can share one document without
//! anyone filtering duplicate headers afterwards.

use crate::metrics::BoundedHistogram;
use std::collections::HashSet;
use std::fmt::{Display, Write as _};

/// The `# TYPE` of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// `_bucket{le}` … `+Inf`, `_sum`, `_count`.
    Histogram,
}

/// One exposition document under construction.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    /// Pre-rendered base labels, attached to every sample until reset.
    base: String,
    declared: HashSet<String>,
}

impl Exposition {
    /// An empty document with no base labels.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Replace the base label set attached to every following sample
    /// (`&[]` clears it).
    pub fn set_base_labels(&mut self, labels: &[(&str, &str)]) {
        self.base.clear();
        push_labels(&mut self.base, labels);
    }

    /// Emit `# HELP` (when `help` is non-empty) and `# TYPE` for `name`,
    /// unless this document already declared it.
    pub fn declare(&mut self, name: &str, help: &str, kind: Kind) {
        if !self.declared.insert(name.to_string()) {
            return;
        }
        if !help.is_empty() {
            let _ = writeln!(self.out, "# HELP {name} {help}");
        }
        let kind = match kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        };
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One sample line, `name{base,labels} value`, with no declaration:
    /// the call for further samples of a declared family and for the
    /// series that have never carried a `# TYPE` line.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        let mut set = self.base.clone();
        push_labels(&mut set, labels);
        if set.is_empty() {
            let _ = writeln!(self.out, "{name} {value}");
        } else {
            let _ = writeln!(self.out, "{name}{{{set}}} {value}");
        }
    }

    /// Declare `name` and emit its one sample (base labels only).
    pub fn metric(&mut self, name: &str, help: &str, kind: Kind, value: impl Display) {
        self.declare(name, help, kind);
        self.sample(name, &[], value);
    }

    /// One [`BoundedHistogram`]: cumulative `_bucket{le=...}` samples for
    /// the non-empty finite buckets, the `+Inf` bucket, `_sum`, `_count`.
    pub fn histogram(&mut self, name: &str, h: &BoundedHistogram) {
        self.declare(name, "", Kind::Histogram);
        let bucket = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (bound, count) in h.nonzero_buckets() {
            if bound == u64::MAX {
                break; // folded into the +Inf bucket below
            }
            cumulative += count;
            self.sample(&bucket, &[("le", &bound.to_string())], cumulative);
        }
        self.sample(&bucket, &[("le", "+Inf")], h.count());
        self.sample(&format!("{name}_sum"), &[], h.sum());
        self.sample(&format!("{name}_count"), &[], h.count());
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Append `k="v"` pairs to a comma-separated label list, escaping each
/// value per the text format: backslash, double-quote and newline.  A raw
/// newline in a label would split the sample line and corrupt the scrape.
fn push_labels(list: &mut String, labels: &[(&str, &str)]) {
    for (key, value) in labels {
        if !list.is_empty() {
            list.push(',');
        }
        list.push_str(key);
        list.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => list.push_str("\\\\"),
                '"' => list.push_str("\\\""),
                '\n' => list.push_str("\\n"),
                _ => list.push(c),
            }
        }
        list.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_once_and_joins_base_with_sample_labels() {
        let mut w = Exposition::new();
        w.metric("m_total", "things", Kind::Counter, 1);
        w.set_base_labels(&[("tenant", "a\"b")]);
        w.metric("m_total", "things", Kind::Counter, 2);
        w.declare("g", "", Kind::Gauge);
        w.sample("g", &[("k", "v\n")], 0.5);
        w.set_base_labels(&[]);
        w.sample("untyped", &[], 3);
        assert_eq!(
            w.finish(),
            "# HELP m_total things\n# TYPE m_total counter\nm_total 1\n\
             m_total{tenant=\"a\\\"b\"} 2\n# TYPE g gauge\n\
             g{tenant=\"a\\\"b\",k=\"v\\n\"} 0.5\nuntyped 3\n"
        );
    }
}
