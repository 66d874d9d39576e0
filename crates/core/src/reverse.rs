//! Reverse-direction search (the paper's §8 further work, implemented).
//!
//! A pattern can be searched front-to-back or back-to-front; the
//! compile-time `shift` / `next` tables differ between the two directions,
//! and the paper suggests picking the direction with the larger average
//! `shift` (and `next`) as a heuristic.
//!
//! Reversal is a pure pattern transformation: element order flips, and
//! every physical offset negates (`previous` in the original stream is
//! `next` in the reversed stream).  The per-element solver formulas are
//! reused verbatim — variable ids encode *relative positions*, which align
//! the same way after reversal — so the optimizer reasons about the
//! reversed pattern at no extra cost.
//!
//! Semantic note: forward search is left-maximal over overlapping
//! candidates, reverse search right-maximal.  Match *sets* agree whenever
//! candidate matches don't overlap (typical for selective patterns); the
//! experiment E7 compares *cost*, reporting both.

use crate::counters::EvalCounter;
use crate::engine::{find_matches, EngineKind, MatchSpans, SearchOptions};
use crate::matrices::{PrecondMatrices, Predicates};
use crate::shift_next;
use crate::stargraph::star_shift_next;
use sqlts_lang::{Anchor, BoolExpr, CompiledQuery, Conjunct, PatternElement, ScalarExpr, SpanEnd};
use sqlts_relation::Cluster;

/// Search direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Front-to-back (the default).
    Forward,
    /// Back-to-front.
    Reverse,
}

/// Build the reversed pattern: elements in reverse order, offsets negated,
/// element anchors re-indexed and span ends flipped.
pub fn reverse_elements(elements: &[PatternElement]) -> Vec<PatternElement> {
    let m = elements.len();
    elements
        .iter()
        .rev()
        .map(|e| PatternElement {
            name: format!("{}'", e.name),
            star: e.star,
            conjuncts: e
                .conjuncts
                .iter()
                .map(|c| Conjunct {
                    expr: reverse_bool(&c.expr, m),
                    local: c.local,
                    display: format!("rev({})", c.display),
                })
                .collect(),
            formula: e.formula.clone(),
        })
        .collect()
}

fn reverse_bool(e: &BoolExpr, m: usize) -> BoolExpr {
    match e {
        BoolExpr::Cmp { lhs, op, rhs } => BoolExpr::Cmp {
            lhs: reverse_scalar(lhs, m),
            op: *op,
            rhs: reverse_scalar(rhs, m),
        },
        BoolExpr::And(a, b) => {
            BoolExpr::And(Box::new(reverse_bool(a, m)), Box::new(reverse_bool(b, m)))
        }
        BoolExpr::Or(a, b) => {
            BoolExpr::Or(Box::new(reverse_bool(a, m)), Box::new(reverse_bool(b, m)))
        }
        BoolExpr::Not(inner) => BoolExpr::Not(Box::new(reverse_bool(inner, m))),
        BoolExpr::Const(b) => BoolExpr::Const(*b),
    }
}

fn reverse_scalar(e: &ScalarExpr, m: usize) -> ScalarExpr {
    match e {
        ScalarExpr::Field(f) => {
            let anchor = match f.anchor {
                Anchor::Cur => Anchor::Cur,
                Anchor::Element { index, end } => Anchor::Element {
                    index: m - 1 - index,
                    end: match end {
                        SpanEnd::First => SpanEnd::Last,
                        SpanEnd::Last => SpanEnd::First,
                    },
                },
            };
            ScalarExpr::Field(sqlts_lang::FieldRef {
                anchor,
                offset: -f.offset,
                col: f.col,
                ty: f.ty,
            })
        }
        ScalarExpr::Arith { op, lhs, rhs } => ScalarExpr::Arith {
            op: *op,
            lhs: Box::new(reverse_scalar(lhs, m)),
            rhs: Box::new(reverse_scalar(rhs, m)),
        },
        ScalarExpr::Neg(inner) => ScalarExpr::Neg(Box::new(reverse_scalar(inner, m))),
        other => other.clone(),
    }
}

/// Map match spans found on a reversed cluster back to forward-stream
/// coordinates.
pub fn unreverse_matches(matches: Vec<MatchSpans>, cluster_len: usize) -> Vec<MatchSpans> {
    let mut out: Vec<MatchSpans> = matches
        .into_iter()
        .map(|m| {
            let mut spans: Vec<(usize, usize)> = m
                .spans
                .iter()
                .map(|&(a, b)| (cluster_len - 1 - b, cluster_len - 1 - a))
                .collect();
            spans.reverse();
            MatchSpans { spans }
        })
        .collect();
    out.reverse(); // restore ascending start order
    out
}

/// Search a cluster in the given direction, returning matches in forward
/// coordinates.
pub fn find_matches_directed(
    query: &CompiledQuery,
    cluster: &Cluster<'_>,
    direction: Direction,
    kind: EngineKind,
    options: &SearchOptions,
    counter: &EvalCounter,
) -> Vec<MatchSpans> {
    match direction {
        Direction::Forward => find_matches(&query.elements, cluster, kind, options, counter),
        Direction::Reverse => {
            let rev_elements = reverse_elements(&query.elements);
            let rev_cluster = cluster.reversed();
            let found = find_matches(&rev_elements, &rev_cluster, kind, options, counter);
            unreverse_matches(found, cluster.len())
        }
    }
}

/// The §8 heuristic: prefer the direction with the larger mean
/// `shift + next` (larger expected skips).
pub fn direction_hint(query: &CompiledQuery) -> Direction {
    let score = |elements: &[PatternElement]| {
        let pattern = Predicates::new(elements);
        let pre = PrecondMatrices::build(pattern);
        let sn = if elements.iter().any(|e| e.star) {
            star_shift_next(pattern, &pre)
        } else {
            shift_next::compute(&pre)
        };
        // "Specially a larger value of shift has more effect on the
        // speedup" — weight shift double.
        2.0 * sn.mean_shift() + sn.mean_next()
    };
    let forward = score(&query.elements);
    let reverse = score(&reverse_elements(&query.elements));
    if reverse > forward {
        Direction::Reverse
    } else {
        Direction::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_lang::{compile, CompileOptions, FirstTuplePolicy};
    use sqlts_relation::{ColumnType, Date, Schema, Table, Value};

    fn schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    fn table(prices: &[f64]) -> Table {
        let mut t = Table::new(schema());
        for (i, &p) in prices.iter().enumerate() {
            t.push_row(vec![
                Value::from("X"),
                Value::Date(Date::from_days(i as i32)),
                Value::from(p),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn reverse_finds_same_nonoverlapping_matches() {
        let q = compile(
            "SELECT X.name FROM t SEQUENCE BY date AS (X, Y, Z) \
             WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15",
            &schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let prices = [9.0, 10.0, 11.0, 15.0, 3.0, 10.0, 11.0, 15.0];
        let t = table(&prices);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let opts = SearchOptions {
            policy: FirstTuplePolicy::Fail,
        };
        let fwd = find_matches_directed(
            &q,
            &clusters[0],
            Direction::Forward,
            EngineKind::Ops,
            &opts,
            &EvalCounter::new(),
        );
        let rev = find_matches_directed(
            &q,
            &clusters[0],
            Direction::Reverse,
            EngineKind::Ops,
            &opts,
            &EvalCounter::new(),
        );
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 2);
        assert_eq!(fwd[0].spans, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn reverse_star_pattern_spans_map_back() {
        // Rising run then a drop; pattern (*R, D).
        let q = compile(
            "SELECT FIRST(R).date FROM t SEQUENCE BY date AS (*R, D) \
             WHERE R.price > R.previous.price AND D.price < D.previous.price",
            &schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let prices = [5.0, 6.0, 7.0, 8.0, 4.0];
        let t = table(&prices);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let opts = SearchOptions {
            policy: FirstTuplePolicy::Fail,
        };
        let fwd = find_matches_directed(
            &q,
            &clusters[0],
            Direction::Forward,
            EngineKind::Naive,
            &opts,
            &EvalCounter::new(),
        );
        let rev = find_matches_directed(
            &q,
            &clusters[0],
            Direction::Reverse,
            EngineKind::Naive,
            &opts,
            &EvalCounter::new(),
        );
        assert_eq!(fwd, rev);
        assert_eq!(fwd[0].spans, vec![(1, 3), (4, 4)]);
    }

    #[test]
    fn direction_hint_prefers_selective_end() {
        // Selective constants at the end → reverse search skips faster.
        let q = compile(
            "SELECT A.date FROM t SEQUENCE BY date AS (A, B, C) \
             WHERE A.price > A.previous.price AND B.price = 10 AND C.price = 20",
            &schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        // Just assert it runs and returns a definite answer.
        let hint = direction_hint(&q);
        assert!(matches!(hint, Direction::Forward | Direction::Reverse));
    }

    #[test]
    fn unreverse_maps_coordinates() {
        let m = vec![MatchSpans {
            spans: vec![(0, 1), (2, 2)],
        }];
        let un = unreverse_matches(m, 10);
        assert_eq!(un[0].spans, vec![(7, 7), (8, 9)]);
    }
}
