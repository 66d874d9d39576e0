//! The `shift` / `next` tables and the whole-pattern matrix `S` of §4.2.
//!
//! `S[j][k]` (defined for `j > k`) answers: *given that the pattern was
//! satisfied up to (and excluding) element `j`, can it possibly be
//! satisfied after shifting `k` positions to the right?*
//!
//! ```text
//! S[j][k] = θ[k+1][1] ∧ θ[k+2][2] ∧ … ∧ θ[j-1][j-k-1] ∧ φ[j][j-k]
//! ```
//!
//! From `S`, for every failure position `j`, `shift(j)` is the least
//! viable shift and `next(j)` the pattern element from which checking
//! resumes after it.  The planner derives both through §5.1's
//! implication graph ([`crate::stargraph`]), which yields exactly these
//! tables on a star-free pattern; `S` itself is kept for `--explain`'s
//! §4.2 walkthrough.

use crate::matrices::PrecondMatrices;
use sqlts_tvl::{StrictTriMatrix, Truth};

/// The compiled `shift` / `next` tables (1-based, `shift[0]`/`next[0]`
/// unused padding so indices match the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShiftNext {
    /// `shift[j]` for `1 ≤ j ≤ m`.
    shift: Vec<usize>,
    /// `next[j]` for `1 ≤ j ≤ m`.
    next: Vec<usize>,
}

impl ShiftNext {
    /// `shift(j)`, 1-based.
    #[inline]
    pub fn shift(&self, j: usize) -> usize {
        self.shift[j]
    }

    /// `next(j)`, 1-based.
    #[inline]
    pub fn next(&self, j: usize) -> usize {
        self.next[j]
    }

    /// Pattern length `m`.
    pub fn len(&self) -> usize {
        self.shift.len() - 1
    }

    /// `true` for the empty pattern.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean shift value — the paper's §8 measure of how much OPS can skip
    /// ("a large average value for shift and next is a good indication of
    /// effective optimization").
    pub fn mean_shift(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.shift[1..].iter().sum::<usize>() as f64 / self.len() as f64
    }

    /// Mean next value (see [`ShiftNext::mean_shift`]).
    pub fn mean_next(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.next[1..].iter().sum::<usize>() as f64 / self.len() as f64
    }

    /// Build directly from arrays (used by the star-pattern path and by
    /// ablation studies).
    pub fn from_arrays(shift: Vec<usize>, next: Vec<usize>) -> ShiftNext {
        assert_eq!(shift.len(), next.len());
        assert!(!shift.is_empty(), "arrays must include the index-0 padding");
        ShiftNext { shift, next }
    }

    /// The conservative tables that make OPS degenerate to the naive
    /// search: `shift(j) = 1`, `next(j) = 1` (and `next(1) = 0`,
    /// `shift(1) = 1`, which restarts at the next input position).
    pub fn naive(m: usize) -> ShiftNext {
        let mut shift = vec![1; m + 1];
        let mut next = vec![1; m + 1];
        shift[0] = 0;
        next[0] = 0;
        if m >= 1 {
            // Failing at the first element: move input forward one.
            shift[1] = 1;
            next[1] = 0;
        }
        ShiftNext { shift, next }
    }
}

/// Compute the matrix `S` from θ and φ.
pub fn s_matrix(pre: &PrecondMatrices) -> StrictTriMatrix {
    let m = pre.dim();
    let mut s = StrictTriMatrix::unknown(m);
    for j in 2..=m {
        for k in 1..j {
            // θ[k+1][1] ∧ … ∧ θ[j-1][j-k-1] ∧ φ[j][j-k]
            let mut v = pre.phi.get(j, j - k);
            for t in 1..=(j - k - 1) {
                v &= pre.theta.get(k + t, t);
                if v == Truth::False {
                    break;
                }
            }
            s.set(j, k, v);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::{PrecondMatrices, Predicates};
    use crate::EngineKind;
    use sqlts_lang::{compile, CompileOptions, CompiledQuery};
    use sqlts_relation::{ColumnType, Schema};
    use sqlts_tvl::Truth::*;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    fn example4_query() -> CompiledQuery {
        compile(
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C, D) \
             WHERE A.price < A.previous.price \
             AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
             AND C.price > C.previous.price AND C.price < 52 \
             AND D.price > D.previous.price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap()
    }

    fn example4() -> PrecondMatrices {
        PrecondMatrices::build(Predicates::new(&example4_query().elements))
    }

    /// The tables the OPS planner runs `q` with.
    fn planned(q: &CompiledQuery) -> ShiftNext {
        crate::engine::plan(&q.elements, EngineKind::Ops).tables
    }

    #[test]
    fn example6_s_matrix() {
        // The paper's Example 6:
        //   S21 = U; S31 = U; S32 = U; S41 = 0; S42 = 0; S43 = U.
        let s = s_matrix(&example4());
        assert_eq!(s.get(2, 1), Unknown);
        assert_eq!(s.get(3, 1), Unknown);
        assert_eq!(s.get(3, 2), Unknown);
        assert_eq!(s.get(4, 1), False);
        assert_eq!(s.get(4, 2), False);
        assert_eq!(s.get(4, 3), Unknown);
    }

    #[test]
    fn example7_shift_and_next() {
        // The paper's Example 7:
        //   shift = [1, 1, 1, 3], next = [0, 1, 2, 1].
        let sn = planned(&example4_query());
        assert_eq!(sn.len(), 4);
        assert_eq!(
            (1..=4).map(|j| sn.shift(j)).collect::<Vec<_>>(),
            vec![1, 1, 1, 3]
        );
        assert_eq!(
            (1..=4).map(|j| sn.next(j)).collect::<Vec<_>>(),
            vec![0, 1, 2, 1]
        );
    }

    #[test]
    fn kmp_reduction_on_constant_equalities() {
        // Example 3's pattern (10, 11, 15): a tuple failing "=11" (or
        // "=15") might itself be a 10, so the pattern slides to place
        // element 1 under the failed tuple and re-tests it — textbook
        // KMP's next = [0, 1, 1] for a pattern of three distinct symbols.
        let q = compile(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) \
             WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let sn = planned(&q);
        assert_eq!(
            (1..=3).map(|j| sn.shift(j)).collect::<Vec<_>>(),
            vec![1, 1, 2],
            "shift realigns element 1 onto the failed tuple"
        );
        assert_eq!(
            (1..=3).map(|j| sn.next(j)).collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
    }

    #[test]
    fn kmp_reduction_with_self_overlap() {
        // Pattern (5, 7, 5, 7): failing at j=3 (value ≠ 5 where 5 was
        // expected)... the interesting row is j=4: prefix (5,7,5) has been
        // read; shifting by 2 aligns (5) under the read (5) — the classic
        // KMP border. φ[4][2] = 0 (¬(=7) ⇒ ¬(=7) is p2 ⇒ p4: both =7 → 0),
        // so S[4][2] = 0; S[4][1] = θ21 ∧ φ43 where θ21 (7⇒5) = 0.
        // Failing at 4 must therefore shift fully: but wait — shifting by
        // 2 re-tests element 3 against the failed input. φ[4][2] relates
        // ¬p4 to p2 = (=7): failing "=7" contradicts "=7", S42 = 0 ✓.
        // The overlap pays off at *success* continuation, not captured
        // here; what we verify is plain consistency with naive search via
        // the engine equivalence tests.
        let q = compile(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z, W) \
             WHERE X.price = 5 AND Y.price = 7 AND Z.price = 5 AND W.price = 7",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let sn = planned(&q);
        // Failing at j=2 ("expected 7"): could the failed tuple be a 5
        // (pattern start)?  Unknown — ¬(=7) doesn't decide (=5).  So
        // shift(2) = 1 and re-test from element 1.
        assert_eq!(sn.shift(2), 1);
        assert_eq!(sn.next(2), 1);
        // Failing at j=3 ("expected 5" after reading 5,7): shift 1 aligns
        // element 1 (=5) under the read 7 (θ21 = 0, impossible) and shift
        // 2 aligns element 1 (=5) under the tuple that just failed "=5"
        // (φ31 = 0, impossible) — so the whole prefix is skipped.
        assert_eq!(sn.shift(3), 3);
        assert_eq!(sn.next(3), 0);
        // Failing at j=4 (≠7 after 5,7,5): shifts 1 and 2 are refuted
        // (S41 = 0 via θ21, S42 = θ31 ∧ φ42 = 1 ∧ 0 = 0), but the failed
        // tuple itself may be a 5, so shift 3 and test element 1 on it.
        assert_eq!(sn.shift(4), 3);
        assert_eq!(sn.next(4), 1);
    }

    #[test]
    fn naive_tables() {
        let sn = ShiftNext::naive(3);
        assert_eq!(sn.shift(1), 1);
        assert_eq!(sn.next(1), 0);
        assert_eq!(sn.shift(2), 1);
        assert_eq!(sn.next(2), 1);
        assert!((sn.mean_shift() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shift_one_patterns_all_unknown() {
        // Identical predicates: θ = 1 everywhere, φ = 0 everywhere...
        // failing p_j refutes every same-predicate shift: S rows all 0,
        // so shift(j) = j, next(j) = 0 — the whole prefix is skipped.
        let q = compile(
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C) \
             WHERE A.price < A.previous.price AND B.price < B.previous.price \
             AND C.price < C.previous.price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let sn = planned(&q);
        for j in 1..=3 {
            assert_eq!(sn.shift(j), j);
            assert_eq!(sn.next(j), 0);
        }
    }

    #[test]
    fn mean_statistics() {
        let sn = ShiftNext::from_arrays(vec![0, 1, 1, 3], vec![0, 0, 1, 1]);
        assert!((sn.mean_shift() - 5.0 / 3.0).abs() < 1e-9);
        assert!((sn.mean_next() - 2.0 / 3.0).abs() < 1e-9);
    }
}
