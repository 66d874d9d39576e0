//! The implication graph and star-pattern `shift` / `next` (§5.1).
//!
//! For patterns containing starred elements, the fixed-alignment reasoning
//! of the `S` matrix no longer applies: a shifted copy of the pattern
//! consumes a *variable* number of tuples per element.  The paper models
//! the simultaneous progress of the original and the shifted pattern as a
//! graph over the entries of θ (below the diagonal): node `(j, k)` means
//! *the original pattern is at element `j` while the shifted copy is at
//! element `k` on the same input tuple*.  Arcs encode the legal joint
//! transitions, which depend on which of the two elements are starred:
//!
//! 1. both stars, `θ[j][k] = U` → arcs to `(j+1,k)`, `(j+1,k+1)`, `(j,k+1)`;
//! 2. both stars, `θ[j][k] = 1` → arcs to `(j+1,k)`, `(j+1,k+1)` (a tuple
//!    satisfying `p_j` must satisfy `p_k`, so the shifted copy cannot
//!    *fail over* to `k+1` while the original stays at `j`);
//! 3. both non-star → single arc to `(j+1,k+1)`;
//! 4. `j` star, `k` non-star → arcs to `(j,k+1)`, `(j+1,k+1)`;
//! 5. `k` star, `j` non-star → arcs to `(j+1,k)`, `(j+1,k+1)`.
//!
//! Arcs incident to a 0-valued node are dropped.  `G_P^j` replaces row `j`
//! with row `j` of φ (the failure information) and truncates below.
//! `shift(j)` is then the least `s` such that a node `(s+1, 1)` reaches
//! the last row; `next(j)` follows the unique chain of *deterministic*
//! nodes from `(shift(j)+1, 1)`.

use crate::matrices::{PrecondMatrices, Predicates};
use crate::shift_next::ShiftNext;
use sqlts_tvl::Truth;

/// Compute `shift` and `next` for a pattern via the implication-graph
/// construction.
///
/// The planner's one derivation: on a star-free pattern it yields exactly
/// the tables §4.2 reads off the `S` matrix.
pub fn star_shift_next(pattern: Predicates<'_>, pre: &PrecondMatrices) -> ShiftNext {
    let m = pattern.len();
    let mut shift = vec![0usize; m + 1];
    let mut next = vec![0usize; m + 1];
    for j in 1..=m {
        let g = FailureGraph::build(pattern, pre, j);
        let (s, n) = g.shift_and_next();
        shift[j] = s;
        next[j] = n;
    }
    ShiftNext::from_arrays(shift, next)
}

/// `G_P^j`: the implication graph specialized to a failure at element `j`.
///
/// Nodes are `(row, col)` with `2 ≤ row ≤ j`, `1 ≤ col < row` (1-based,
/// the strictly-lower-triangular part).  Row `j` carries φ values, rows
/// below carry θ values.
struct FailureGraph<'a> {
    pattern: Predicates<'a>,
    pre: &'a PrecondMatrices,
    /// The failure row (the paper's `j`).
    fail_row: usize,
}

impl<'a> FailureGraph<'a> {
    fn build(pattern: Predicates<'a>, pre: &'a PrecondMatrices, fail_row: usize) -> Self {
        FailureGraph {
            pattern,
            pre,
            fail_row,
        }
    }

    /// The value of node `(row, col)`: φ on the failure row, θ elsewhere.
    fn value(&self, row: usize, col: usize) -> Truth {
        debug_assert!(col < row && row <= self.fail_row);
        if row == self.fail_row {
            self.pre.phi.get(row, col)
        } else {
            self.pre.theta.get(row, col)
        }
    }

    fn node_exists(&self, row: usize, col: usize) -> bool {
        (2..=self.fail_row).contains(&row) && (1..row).contains(&col)
    }

    /// Outgoing arcs of `(row, col)` per the five transition rules,
    /// dropping arcs whose endpoint is missing or 0-valued.
    fn arcs(&self, row: usize, col: usize) -> Vec<(usize, usize)> {
        if self.value(row, col) == Truth::False {
            return Vec::new(); // arcs from 0-nodes are discarded
        }
        let j_star = self.pattern.star(row);
        let k_star = self.pattern.star(col);
        let mut out = Vec::with_capacity(3);
        let candidates: &[(usize, usize)] = match (j_star, k_star) {
            (true, true) => {
                if self.value(row, col) == Truth::True {
                    &[(1, 0), (1, 1)]
                } else {
                    &[(1, 0), (1, 1), (0, 1)]
                }
            }
            (false, false) => &[(1, 1)],
            (true, false) => &[(0, 1), (1, 1)],
            (false, true) => &[(1, 0), (1, 1)],
        };
        for &(dr, dc) in candidates {
            let (r, c) = (row + dr, col + dc);
            if self.node_exists(r, c) && self.value(r, c) != Truth::False {
                out.push((r, c));
            }
        }
        out
    }

    /// Compute `(shift, next)` for this failure row (Definition 1 + the
    /// deterministic-walk rule of §5.1).
    fn shift_and_next(&self) -> (usize, usize) {
        let j = self.fail_row;
        if j == 1 {
            // Failing at the very first element: move the input forward.
            return (1, 0);
        }

        // σ(j): reverse reachability from the (non-zero) last-row nodes.
        let reach = self.reaches_last_row();
        let sigma_min = (1..=j.saturating_sub(2)).find(|&s| {
            self.node_exists(s + 1, 1)
                && self.value(s + 1, 1) != Truth::False
                && reach[self.index(s + 1, 1)]
        });

        let shift = match sigma_min {
            Some(s) => s,
            None if self.pre.phi.get(j, 1) != Truth::False => j - 1,
            None => j,
        };

        if shift == j {
            return (j, 0);
        }

        // next(j): walk the deterministic chain from (shift+1, 1).
        //
        // Skipping the element at column `col` (inheriting old element
        // `row`'s span instead of re-testing) is only sound when
        //
        // 1. the node's value is *proven* (1) — the old tuples certainly
        //    satisfy the new element's predicate — and
        // 2. the span structure transfers — both elements are non-star,
        //    so the inherited span is exactly one tuple and the greedy
        //    boundary is trivially right.
        //
        // This is stricter than the paper's wording (which only inspects
        // arc-target values): our randomized pattern fuzzer exhibits
        // wrong matches under the literal rule — e.g. a U-valued start
        // node skipped unverified, or a non-star element inheriting a
        // two-tuple star span when 0-entries prune a star row's arcs down
        // to one.  Star patterns therefore resume at the first star (or
        // unproven) column; star-free patterns keep full KMP-style skips
        // (and normally use the S-matrix tables anyway).
        let (mut row, mut col) = (shift + 1, 1);
        let next = loop {
            if row == j {
                // Reached the last row: the skipped prefix is verified;
                // resume at element j - shift (which is re-tested).
                break j - shift;
            }
            if self.pattern.star(row)
                || self.pattern.star(col)
                || self.value(row, col) != Truth::True
            {
                break col;
            }
            let arcs = self.arcs(row, col);
            if arcs.len() != 1 {
                break col;
            }
            (row, col) = arcs[0];
        };
        // Geometry of Figure 4: checking resumes no later than element
        // j - shift (the element aligned with the failed input tuple).
        (shift, next.min(j - shift))
    }

    fn index(&self, row: usize, col: usize) -> usize {
        // Dense index over rows 2..=fail_row.
        (row - 2) * (row - 1) / 2 + (col - 1)
    }

    /// For every node, can it reach a non-zero node in the last row?
    fn reaches_last_row(&self) -> Vec<bool> {
        let j = self.fail_row;
        let size = self.index(j, j - 1) + 1;
        let mut reach = vec![false; size];
        // Seed: non-zero nodes of the last row reach themselves.
        for col in 1..j {
            if self.value(j, col) != Truth::False {
                reach[self.index(j, col)] = true;
            }
        }
        // Arcs only go down/right, so a single sweep from high rows to low
        // rows (and high columns to low columns) converges.
        for row in (2..=j).rev() {
            for col in (1..row).rev() {
                if reach[self.index(row, col)] {
                    continue;
                }
                if self
                    .arcs(row, col)
                    .iter()
                    .any(|&(r, c)| reach[self.index(r, c)])
                {
                    reach[self.index(row, col)] = true;
                }
            }
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::PrecondMatrices;
    use sqlts_lang::{compile, CompileOptions, CompiledQuery};
    use sqlts_relation::{ColumnType, Schema};

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    fn example9() -> CompiledQuery {
        compile(
            "SELECT X.NEXT.date, X.NEXT.price, S.previous.date, S.previous.price \
             FROM quote CLUSTER BY name SEQUENCE BY date \
             AS (*X, Y, *Z, *T, U, *V, S) \
             WHERE X.price > X.previous.price \
             AND 30 < Y.price AND Y.price < 40 \
             AND Z.price < Z.previous.price \
             AND T.price > T.previous.price \
             AND 35 < U.price AND U.price < 40 \
             AND V.price < V.previous.price \
             AND S.price < 30",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn example9_shift6_and_next6_match_paper() {
        // §5.1: "there is a non-zero path from node θ41 to φ61, thus
        // shift(6) = 3. … θ41 = 1 … is not a deterministic node …
        // we conclude that next(6) = 1."
        let q = example9();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let sn = star_shift_next(pattern, &pre);
        assert_eq!(sn.shift(6), 3, "paper: shift(6) = 3");
        assert_eq!(sn.next(6), 1, "paper: next(6) = 1");
    }

    #[test]
    fn example9_paper_side_conditions() {
        // §5.1 also argues: "there is no path to the last row starting
        // from node θ31: thus, 2 is not a possible shift. Also there is no
        // path … from θ21; thus a shift of size 1 will never succeed."
        let q = example9();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let g = FailureGraph::build(pattern, &pre, 6);
        let reach = g.reaches_last_row();
        assert!(!reach[g.index(2, 1)], "θ21 must not reach row 6");
        assert!(!reach[g.index(3, 1)], "θ31 must not reach row 6");
        assert!(reach[g.index(4, 1)], "θ41 must reach row 6");
    }

    #[test]
    fn failure_at_element_one() {
        let q = example9();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let sn = star_shift_next(pattern, &pre);
        assert_eq!(sn.shift(1), 1);
        assert_eq!(sn.next(1), 0);
    }

    #[test]
    fn all_star_identical_predicates() {
        // (*A, *B) with identical "falling" predicates: failing at B when
        // B has not yet matched means the input failed "falling" right
        // after a falling run.  Shifting by 1 would need that same tuple
        // (or a later one) to restart... φ[2][1] = 0 (p1 ⇒ p2), σ empty,
        // so shift(2) = 2, next(2) = 0.
        let q = compile(
            "SELECT FIRST(A).date FROM quote SEQUENCE BY date AS (*A, *B) \
             WHERE A.price < A.previous.price AND B.price < B.previous.price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let sn = star_shift_next(pattern, &pre);
        assert_eq!(sn.shift(2), 2);
        assert_eq!(sn.next(2), 0);
    }

    #[test]
    fn rising_falling_rising_example8() {
        // Example 8: (*X rising, *Y falling, *Z rising).  Failing at Y
        // (input not falling, Y not yet matched) — the failed tuple is
        // non-falling after a rising run; it may extend a *new* rising
        // element 1... φ[2][1]: ¬p2 ⇒ p1? ¬(price<prev) leaves equality
        // open, so U; σ(2) is vacuous (no s ≤ 0)... shift(2) = 1.
        let q = compile(
            "SELECT X.name, FIRST(X).date AS sdate, LAST(Z).date AS edate \
             FROM quote CLUSTER BY name SEQUENCE BY date AS (*X, *Y, *Z) \
             WHERE X.price > X.previous.price AND Y.price < Y.previous.price \
             AND Z.price > Z.previous.price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let sn = star_shift_next(pattern, &pre);
        assert_eq!(sn.shift(2), 1);
        assert_eq!(sn.next(2), 1);
        // Failing at Z after an X-run and a Y-run: the failed tuple is
        // neither falling (it ended Y) nor rising (it failed Z), and no
        // tuple of the X-run or Y-run can start a new rising element 1
        // that survives — p1 ≡ p3, θ21 = 0 and φ31 = 0 prove the whole
        // prefix dead, so the search skips past the failed tuple.
        assert_eq!(sn.shift(3), 3);
        assert_eq!(sn.next(3), 0);
    }

    #[test]
    fn mixed_star_nonstar_pairs() {
        // (A fall, *B rise): failing B before it matched — the failed
        // tuple is not rising; it *may* be falling, so element 1 can
        // restart on it: shift(2) = 1, re-test from element 1.
        let q = compile(
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, *B) \
             WHERE A.price < A.previous.price AND B.price > B.previous.price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let sn = star_shift_next(pattern, &pre);
        assert_eq!((sn.shift(2), sn.next(2)), (1, 1));

        // (A fall, *B fall): identical predicates — failing B refutes a
        // restart on the failed tuple too: full shift.
        let q = compile(
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, *B) \
             WHERE A.price < A.previous.price AND B.price < B.previous.price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let sn = star_shift_next(pattern, &pre);
        assert_eq!((sn.shift(2), sn.next(2)), (2, 0));
    }

    #[test]
    fn star_tables_never_exceed_count_bounds() {
        // Structural soundness of every (shift, next) pair the graph
        // method produces, across a battery of patterns: the runtime
        // realignment indexes counts[shift + next - 1], which must stay
        // within the completed prefix.
        let sources = [
            "SELECT A.date FROM quote SEQUENCE BY date AS (*A, B, *C, D) \
             WHERE A.price < A.previous.price AND B.price > 40 \
             AND C.price > C.previous.price AND D.price < 30",
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, *B, *C) \
             WHERE A.price = 10 AND B.price <= B.previous.price \
             AND C.price >= C.previous.price",
            "SELECT A.date FROM quote SEQUENCE BY date AS (*A, *B, *C, *D, E) \
             WHERE A.price <= A.previous.price AND B.price <= B.previous.price \
             AND C.price <= C.previous.price AND D.price <= D.previous.price \
             AND E.price > E.previous.price",
        ];
        for src in sources {
            let q = compile(src, &quote_schema(), &CompileOptions::default()).unwrap();
            let pattern = Predicates::new(&q.elements);
            let pre = PrecondMatrices::build(pattern);
            let sn = star_shift_next(pattern, &pre);
            for j in 1..=pattern.len() {
                let (sh, nx) = (sn.shift(j), sn.next(j));
                assert!((1..=j).contains(&sh), "{src}: shift({j}) = {sh}");
                if nx == 0 {
                    assert_eq!(sh, j, "{src}: next({j}) = 0 needs full shift");
                } else {
                    assert!(sh + nx - 1 < j, "{src}: shift({j})={sh} next({j})={nx}");
                }
            }
        }
    }

    #[test]
    fn graph_method_consistent_with_matrix_method_on_star_free() {
        // On a star-free pattern the graph's shift(j) is §4.2's: the
        // leftmost column of row j of S that is not 0, else j.
        let q = compile(
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C, D) \
             WHERE A.price < A.previous.price \
             AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
             AND C.price > C.previous.price AND C.price < 52 \
             AND D.price > D.previous.price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let pattern = Predicates::new(&q.elements);
        let pre = PrecondMatrices::build(pattern);
        let graph = star_shift_next(pattern, &pre);
        let s = crate::shift_next::s_matrix(&pre);
        for j in 1..=4 {
            let shift = (1..j).find(|&k| s.get(j, k) != Truth::False);
            assert_eq!(graph.shift(j), shift.unwrap_or(j), "shift({j})");
        }
    }
}
