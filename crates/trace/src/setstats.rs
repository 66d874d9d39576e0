//! Shared pattern-set counters: what one shared pass over N standing
//! queries saved relative to N solo passes.
//!
//! The executor's per-query [`crate::ExecutionProfile`]s stay bit-identical
//! to solo runs under sharing (that is the subsystem's core guarantee), so
//! the *set-level* effect lives in its own registry: how many logical
//! predicate tests the member queries charged (`tests_logical`), how many
//! physical evaluations actually ran (`tests_evaluated`), and how many
//! were answered from the shared memo (`tests_saved`, of which
//! `tests_shared` were served across queries or derived through the
//! cross-query implication lattice).  All counters are deterministic for
//! an in-process shared stream, which feeds each tuple to its members in
//! query order; on a server channel the saved/shared split follows the
//! fan-out order, while `tests_evaluated + tests_saved = tests_logical`
//! always holds.

use crate::expo::{Exposition, Kind};
use crate::metrics::BoundedHistogram;
use std::fmt::Write as _;

/// Compile- and run-time counters for one shared pattern-set execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatternSetStats {
    /// Queries in the set.
    pub queries: usize,
    /// Shared groups formed (same feed origin, `CLUSTER BY`/`SEQUENCE BY`
    /// and first-tuple policy).
    pub groups: usize,
    /// Queries that fell back to a solo pass (unshareable).
    pub solo: usize,
    /// Distinct purely-local predicate classes interned across the set.
    pub classes: usize,
    /// Nodes in the class-sequence prefix trie (excluding the root).
    pub trie_nodes: usize,
    /// Cross-class implication edges in the lattice.
    pub implication_edges: usize,
    /// Per-query depth of the prefix shared with at least one other query
    /// (the trie's payoff, as a distribution).
    pub shared_prefix_depth: BoundedHistogram,
    /// Logical predicate tests charged across all member queries — equal
    /// to the sum of the solo runs' `predicate_tests` by construction.
    pub tests_logical: u64,
    /// Physical predicate evaluations performed
    /// (`tests_logical - tests_saved`).
    pub tests_evaluated: u64,
    /// Logical tests answered from the shared memo instead of evaluated.
    pub tests_saved: u64,
    /// The subset of `tests_saved` served *across* queries: a hit on an
    /// entry another query evaluated, or on an entry derived through the
    /// implication lattice.
    pub tests_shared: u64,
}

impl PatternSetStats {
    /// Fold another set's counters into this one — the multi-channel
    /// roll-up the server's `/metrics` endpoint serves (one registry per
    /// channel, one exposition per scrape).
    pub fn absorb(&mut self, other: &PatternSetStats) {
        self.queries += other.queries;
        self.groups += other.groups;
        self.solo += other.solo;
        self.classes += other.classes;
        self.trie_nodes += other.trie_nodes;
        self.implication_edges += other.implication_edges;
        self.shared_prefix_depth.merge(&other.shared_prefix_depth);
        self.tests_logical += other.tests_logical;
        self.tests_evaluated += other.tests_evaluated;
        self.tests_saved += other.tests_saved;
        self.tests_shared += other.tests_shared;
    }

    /// Human-readable summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pattern set: {} queries, {} shared group(s), {} solo",
            self.queries, self.groups, self.solo
        );
        let _ = writeln!(
            out,
            "  compile: {} classes, {} trie nodes, {} implication edges, \
             shared prefix depth max {} mean {:.2}",
            self.classes,
            self.trie_nodes,
            self.implication_edges,
            self.shared_prefix_depth.max(),
            self.shared_prefix_depth.mean()
        );
        let _ = writeln!(
            out,
            "  tests: {} logical, {} evaluated, {} saved ({} cross-query)",
            self.tests_logical, self.tests_evaluated, self.tests_saved, self.tests_shared
        );
        out
    }

    /// JSON object, same dialect as [`crate::ExecutionProfile::to_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"queries\":{},\"groups\":{},\"solo\":{},\"classes\":{},\
             \"trie_nodes\":{},\"implication_edges\":{},\
             \"shared_prefix_depth_max\":{},\"tests_logical\":{},\
             \"tests_evaluated\":{},\"tests_saved\":{},\"tests_shared\":{}}}",
            self.queries,
            self.groups,
            self.solo,
            self.classes,
            self.trie_nodes,
            self.implication_edges,
            self.shared_prefix_depth.max(),
            self.tests_logical,
            self.tests_evaluated,
            self.tests_saved,
            self.tests_shared,
        );
        out
    }

    /// Prometheus text exposition (counter/gauge blocks plus the prefix
    /// depth histogram).
    pub fn to_prometheus(&self) -> String {
        let mut w = Exposition::new();
        self.write_prometheus(&mut w);
        w.finish()
    }

    /// Walk the set's metric table through `w` — the server's `/metrics`
    /// document carries this block beside its own families.
    pub fn write_prometheus(&self, w: &mut Exposition) {
        #[rustfmt::skip] // a table: one metric per row
        let table = [
            ("sqlts_patternset_tests_logical", "Logical predicate tests charged across shared-set members", Kind::Counter, self.tests_logical),
            ("sqlts_patternset_tests_evaluated", "Physical predicate evaluations performed by the shared pass", Kind::Counter, self.tests_evaluated),
            ("sqlts_patternset_tests_saved", "Logical tests answered from the shared memo", Kind::Counter, self.tests_saved),
            ("sqlts_patternset_tests_shared", "Saved tests served across queries or via implication", Kind::Counter, self.tests_shared),
            ("sqlts_patternset_queries", "Queries in the shared pattern set", Kind::Gauge, self.queries as u64),
            ("sqlts_patternset_classes", "Distinct purely-local predicate classes interned", Kind::Gauge, self.classes as u64),
            ("sqlts_patternset_trie_nodes", "Nodes in the class-sequence prefix trie", Kind::Gauge, self.trie_nodes as u64),
            ("sqlts_patternset_implication_edges", "Cross-class implication edges in the lattice", Kind::Gauge, self.implication_edges as u64),
        ];
        for (name, help, kind, value) in table {
            w.metric(name, help, kind, value);
        }
        w.histogram(
            "sqlts_patternset_shared_prefix_depth",
            &self.shared_prefix_depth,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PatternSetStats {
        let mut s = PatternSetStats {
            queries: 8,
            groups: 1,
            solo: 0,
            classes: 3,
            trie_nodes: 5,
            implication_edges: 2,
            tests_logical: 800,
            tests_evaluated: 130,
            tests_saved: 670,
            tests_shared: 640,
            ..PatternSetStats::default()
        };
        for _ in 0..8 {
            s.shared_prefix_depth.record(2);
        }
        s
    }

    #[test]
    fn text_and_json_carry_the_counters() {
        let s = sample();
        let text = s.to_text();
        assert!(text.contains("8 queries"), "{text}");
        assert!(text.contains("670 saved (640 cross-query)"), "{text}");
        let json = s.to_json();
        assert!(json.contains("\"tests_saved\":670"), "{json}");
        assert!(json.contains("\"tests_shared\":640"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let s = sample();
        assert_eq!(
            s.to_prometheus(),
            r#"# HELP sqlts_patternset_tests_logical Logical predicate tests charged across shared-set members
# TYPE sqlts_patternset_tests_logical counter
sqlts_patternset_tests_logical 800
# HELP sqlts_patternset_tests_evaluated Physical predicate evaluations performed by the shared pass
# TYPE sqlts_patternset_tests_evaluated counter
sqlts_patternset_tests_evaluated 130
# HELP sqlts_patternset_tests_saved Logical tests answered from the shared memo
# TYPE sqlts_patternset_tests_saved counter
sqlts_patternset_tests_saved 670
# HELP sqlts_patternset_tests_shared Saved tests served across queries or via implication
# TYPE sqlts_patternset_tests_shared counter
sqlts_patternset_tests_shared 640
# HELP sqlts_patternset_queries Queries in the shared pattern set
# TYPE sqlts_patternset_queries gauge
sqlts_patternset_queries 8
# HELP sqlts_patternset_classes Distinct purely-local predicate classes interned
# TYPE sqlts_patternset_classes gauge
sqlts_patternset_classes 3
# HELP sqlts_patternset_trie_nodes Nodes in the class-sequence prefix trie
# TYPE sqlts_patternset_trie_nodes gauge
sqlts_patternset_trie_nodes 5
# HELP sqlts_patternset_implication_edges Cross-class implication edges in the lattice
# TYPE sqlts_patternset_implication_edges gauge
sqlts_patternset_implication_edges 2
# TYPE sqlts_patternset_shared_prefix_depth histogram
sqlts_patternset_shared_prefix_depth_bucket{le="3"} 8
sqlts_patternset_shared_prefix_depth_bucket{le="+Inf"} 8
sqlts_patternset_shared_prefix_depth_sum 16
sqlts_patternset_shared_prefix_depth_count 8
"#
        );
        // Invariant the server tests lean on: evaluated + saved == logical.
        assert_eq!(s.tests_evaluated + s.tests_saved, s.tests_logical);
    }
}
