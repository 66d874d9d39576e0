//! The positive (θ) and negative (φ) precondition matrices of §4.2.
//!
//! For a pattern `p₁ … p_m`, the matrices capture every pairwise logical
//! relationship, in three-valued logic (entries are defined for `j ≥ k`):
//!
//! ```text
//! θ[j][k] = 1  if p_j ⇒ p_k   and p_j ≢ F
//!           0  if p_j ⇒ ¬p_k
//!           U  otherwise
//!
//! φ[j][k] = 1  if ¬p_j ⇒ p_k
//!           0  if ¬p_j ⇒ ¬p_k  and p_j ≢ T
//!           U  otherwise
//! ```
//!
//! The implications are decided by the [`sqlts_constraints`] solver over
//! each element's **local** predicate formula.  Elements with non-local
//! conjuncts (references to earlier pattern variables across a star) are
//! handled conservatively, per the gating rules in DESIGN.md §3:
//!
//! * `θ[j][k] = 1` additionally requires `p_k` to be purely local, because
//!   a `1` lets the runtime *skip* re-checking `p_k`;
//! * `φ[j][k] = 1` additionally requires both to be purely local (it
//!   asserts knowledge about `¬p_j`, whose non-local part is invisible);
//! * the `0` cases are sound as-is: non-local conjuncts only *strengthen*
//!   a predicate, and contradiction/implication proofs against the weaker
//!   local part carry over.

use crate::counters::EvalCounter;
use crate::patternset::{Probe, SharedEvalHandle};
use sqlts_constraints::{Atom, Formula, System};
use sqlts_lang::PatternElement;
use sqlts_tvl::{TriMatrix, Truth};

/// A light view over the compiled pattern elements with the accessors the
/// optimizer needs.
#[derive(Clone, Copy)]
pub struct Predicates<'a> {
    elements: &'a [PatternElement],
}

impl<'a> Predicates<'a> {
    /// Wrap a compiled pattern.
    pub fn new(elements: &'a [PatternElement]) -> Predicates<'a> {
        Predicates { elements }
    }

    /// Pattern length `m`.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` iff the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// 1-based accessor matching the paper's `p_j`.
    pub fn formula(&self, j: usize) -> &'a Formula {
        &self.elements[j - 1].formula
    }

    /// 1-based star flag.
    pub fn star(&self, j: usize) -> bool {
        self.elements[j - 1].star
    }

    /// 1-based purity flag.
    pub fn purely_local(&self, j: usize) -> bool {
        self.elements[j - 1].purely_local()
    }

    /// The elements.
    pub fn elements(&self) -> &'a [PatternElement] {
        self.elements
    }
}

/// The θ and φ matrices for a pattern.
#[derive(Clone, Debug)]
pub struct PrecondMatrices {
    /// Positive precondition matrix θ.
    pub theta: TriMatrix,
    /// Negative precondition matrix φ.
    pub phi: TriMatrix,
}

impl PrecondMatrices {
    /// Compute θ and φ for a compiled pattern.
    ///
    /// This is part of query compilation; its cost (`O(m²)` solver calls)
    /// is measured by experiment E8.
    pub fn build(pattern: Predicates<'_>) -> PrecondMatrices {
        let m = pattern.len();
        let mut theta = TriMatrix::unknown(m);
        let mut phi = TriMatrix::unknown(m);

        // Pre-compute per-element facts.
        let sat: Vec<Truth> = (1..=m)
            .map(|j| pattern.formula(j).satisfiability())
            .collect();
        let tautology: Vec<bool> = (1..=m)
            .map(|j| Formula::conj(System::new()).implies(pattern.formula(j)))
            .collect();
        let negation: Vec<Option<Formula>> = (1..=m)
            .map(|j| negate_formula(pattern.formula(j), MAX_NEGATION_DNF))
            .collect();

        for j in 1..=m {
            let fj = pattern.formula(j);
            for k in 1..=j {
                let fk = pattern.formula(k);
                // --- θ[j][k] ---
                let t = if pattern.purely_local(k) && sat[j - 1] != Truth::False && fj.implies(fk) {
                    Truth::True
                } else if fj.contradicts(fk) {
                    Truth::False
                } else {
                    Truth::Unknown
                };
                theta.set(j, k, t);

                // --- φ[j][k] ---
                let p = if pattern.purely_local(j)
                    && pattern.purely_local(k)
                    && !tautology[j - 1]
                    && negations_contradict(&negation[j - 1], &negation[k - 1])
                {
                    Truth::True
                } else if pattern.purely_local(j) && !tautology[j - 1] && fk.implies(fj) {
                    Truth::False
                } else {
                    Truth::Unknown
                };
                phi.set(j, k, p);
            }
        }
        PrecondMatrices { theta, phi }
    }

    /// Pattern length `m`.
    pub fn dim(&self) -> usize {
        self.theta.dim()
    }
}

const MAX_NEGATION_DNF: usize = 256;

/// `¬a ∧ ¬b` provably unsatisfiable, i.e. `¬p_j ⇒ p_k`.
fn negations_contradict(a: &Option<Formula>, b: &Option<Formula>) -> bool {
    match (a, b) {
        (Some(na), Some(nb)) => na.contradicts(nb),
        _ => false,
    }
}

/// The negation of a DNF formula, itself in DNF (bounded expansion).
///
/// Positivity assumptions are *domain facts*, not part of the predicate,
/// so they are carried over onto every branch of the negation.
pub(crate) fn negate_formula(f: &Formula, max: usize) -> Option<Formula> {
    // ¬(d₁ ∨ … ∨ d_n) = ¬d₁ ∧ … ∧ ¬d_n, each ¬dᵢ a disjunction of
    // negated atoms; distribute.
    let mut acc: Vec<System> = vec![System::new()];
    for d in f.disjuncts() {
        let atoms = d.atoms();
        if atoms.is_empty() {
            // ¬TRUE = FALSE annihilates the conjunction.
            return Some(Formula::none());
        }
        if acc.len() * atoms.len() > max {
            return None;
        }
        let positive: Vec<_> = d.positive_vars().collect();
        let mut next_acc = Vec::with_capacity(acc.len() * atoms.len());
        for branch in &acc {
            for atom in atoms {
                let mut s = branch.clone();
                s.push(atom.negate());
                for &v in &positive {
                    s.assume_positive(v);
                }
                next_acc.push(s);
            }
        }
        acc = next_acc;
    }
    // Drop trivially-contradictory branches to keep downstream checks fast.
    let kept: Vec<System> = acc
        .into_iter()
        .filter(|s| !s.satisfiability().is_false())
        .collect();
    Some(Formula::disjunction(kept))
}

/// Evaluate pattern element `j` (1-based) on input position `pos`
/// (0-based) with the supplied bindings, bumping the cost counter.
///
/// Lives here (rather than in the engines) so every engine counts cost
/// identically: one test per (input element, pattern element) pair, as in
/// the paper's §7.
#[inline]
pub(crate) fn test_element(
    pattern: Predicates<'_>,
    j: usize,
    ctx: &sqlts_lang::EvalCtx<'_>,
    pos: usize,
    bindings: &sqlts_lang::Bindings,
    counter: &EvalCounter,
) -> bool {
    counter.bump();
    // Shared pattern-set memo: the test is still charged (bump above),
    // but may be answered without evaluation; solo runs pay one branch on
    // a `None`.
    if let Some(memo) = counter.shared() {
        return test_shared(pattern, j, ctx, pos, bindings, counter, memo);
    }
    let ok = eval_element(pattern, j, ctx, pos, bindings);
    // Advance/Fail tracing rides on the same call so every engine emits
    // the identical event per (input element, pattern element) pair.
    counter.record_test(pos + 1, j, ok);
    ok
}

/// [`test_element`] for a member of a shared pattern-set group, after the
/// bump.  A cached outcome — evaluated by another member of the group or
/// derived through the implication lattice — short-circuits the conjunct
/// walk.  Purely-local classes are pure in (class, cluster, pos, policy),
/// so the cached value is exactly what evaluation would produce.  A miss
/// holds the cluster's memo lock through the evaluation and the store.
#[inline(never)]
fn test_shared(
    pattern: Predicates<'_>,
    j: usize,
    ctx: &sqlts_lang::EvalCtx<'_>,
    pos: usize,
    bindings: &sqlts_lang::Bindings,
    counter: &EvalCounter,
    memo: &SharedEvalHandle,
) -> bool {
    let ok = match memo.probe(j - 1, pos) {
        None => eval_element(pattern, j, ctx, pos, bindings),
        Some(Probe::Hit(cached)) => cached,
        Some(Probe::Miss(miss)) => {
            let ok = eval_element(pattern, j, ctx, pos, bindings);
            miss.store(ctx.cluster.len(), ok);
            ok
        }
    };
    counter.record_test(pos + 1, j, ok);
    ok
}

/// Evaluate every conjunct of pattern element `j` (1-based) at `pos`.
#[inline]
fn eval_element(
    pattern: Predicates<'_>,
    j: usize,
    ctx: &sqlts_lang::EvalCtx<'_>,
    pos: usize,
    bindings: &sqlts_lang::Bindings,
) -> bool {
    pattern.elements()[j - 1]
        .conjuncts
        .iter()
        .all(|c| sqlts_lang::eval_conjunct(c, ctx, pos, bindings))
}

/// `true` iff the whole element predicate is a single constant-equality
/// atom (the KMP-applicable fragment of Example 3).
pub fn is_constant_equality(
    element: &PatternElement,
) -> Option<(sqlts_constraints::Var, sqlts_rational::Rational)> {
    let f = &element.formula;
    if !element.purely_local() || f.disjuncts().len() != 1 {
        return None;
    }
    let atoms = f.disjuncts()[0].atoms();
    if atoms.len() != 1 {
        return None;
    }
    match &atoms[0] {
        Atom::VarConst {
            x,
            op: sqlts_constraints::CmpOp::Eq,
            c,
        } => Some((*x, *c)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_lang::{compile, CompileOptions};
    use sqlts_relation::{ColumnType, Schema};
    use Truth::*;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    /// Example 4's pattern, as compiled from SQL-TS source.  Note the
    /// paper's predicates p1..p4 are the conditions on Y, Z, T, U (X only
    /// carries the cluster filter in Example 4; here we use the pure
    /// four-element pattern of Example 5).
    fn example4_pattern() -> sqlts_lang::CompiledQuery {
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

    #[test]
    fn example5_theta_matrix() {
        let q = example4_pattern();
        let m = PrecondMatrices::build(Predicates::new(&q.elements));
        // The paper's Example 5 θ:
        //   1
        //   1 1
        //   0 0 1
        //   0 0 U 1
        let expect = [
            (1, 1, True),
            (2, 1, True),
            (2, 2, True),
            (3, 1, False),
            (3, 2, False),
            (3, 3, True),
            (4, 1, False),
            (4, 2, False),
            (4, 3, Unknown),
            (4, 4, True),
        ];
        for (j, k, v) in expect {
            assert_eq!(m.theta.get(j, k), v, "θ[{j}][{k}]");
        }
    }

    #[test]
    fn example5_phi_matrix() {
        let q = example4_pattern();
        let m = PrecondMatrices::build(Predicates::new(&q.elements));
        // The paper's Example 5 φ:
        //   0
        //   U 0
        //   U U 0
        //   U U 0 0
        let expect = [
            (1, 1, False),
            (2, 1, Unknown),
            (2, 2, False),
            (3, 1, Unknown),
            (3, 2, Unknown),
            (3, 3, False),
            (4, 1, Unknown),
            (4, 2, Unknown),
            (4, 3, False),
            (4, 4, False),
        ];
        for (j, k, v) in expect {
            assert_eq!(m.phi.get(j, k), v, "φ[{j}][{k}]");
        }
    }

    /// Example 9's seven-element pattern (predicates only; stars live on
    /// elements 1, 3, 4 and 6).
    pub(crate) fn example9_query() -> sqlts_lang::CompiledQuery {
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
    fn example9_theta_matrix() {
        let q = example9_query();
        let m = PrecondMatrices::build(Predicates::new(&q.elements));
        // The paper's Example 9 θ (rows below the diagonal):
        let rows: [&[Truth]; 7] = [
            &[True],
            &[Unknown, True],
            &[False, Unknown, True],
            &[True, Unknown, False, True],
            &[Unknown, True, Unknown, Unknown, True],
            &[False, Unknown, True, False, Unknown, True],
            &[Unknown, False, Unknown, Unknown, False, Unknown, True],
        ];
        for (j, row) in rows.iter().enumerate() {
            for (k, v) in row.iter().enumerate() {
                assert_eq!(m.theta.get(j + 1, k + 1), *v, "θ[{}][{}]", j + 1, k + 1);
            }
        }
    }

    #[test]
    fn example9_phi_diagonal_and_key_entries() {
        // The paper's printed φ for Example 9 is garbled in our source
        // (an 8-row listing for a 7×7 matrix), so we pin the values our
        // sound definition produces for the entries that drive shift(6):
        // φ[6][3] = 0 (p3 ⇒ p6: both are "falling"), the rest of row 6
        // unknown except the diagonal.
        let q = example9_query();
        let m = PrecondMatrices::build(Predicates::new(&q.elements));
        assert_eq!(m.phi.get(6, 3), False);
        assert_eq!(m.phi.get(6, 1), Unknown);
        assert_eq!(m.phi.get(6, 2), Unknown);
        assert_eq!(m.phi.get(6, 4), Unknown);
        assert_eq!(m.phi.get(6, 5), Unknown);
        for j in 1..=7 {
            assert_eq!(m.phi.get(j, j), False, "φ[{j}][{j}]");
        }
    }

    #[test]
    fn nonlocal_elements_are_gated() {
        // (X, *Y, Z) with Z referencing X: Z's predicate is non-local, so
        // no θ[·][Z-column] may be 1 and no φ[Z-row][·] may be 1.
        let q = compile(
            "SELECT Z.date FROM quote SEQUENCE BY date AS (X, *Y, Z) \
             WHERE X.price > 0 AND Y.price < Y.previous.price \
             AND Z.price < Z.previous.price AND Z.price < 0.5 * FIRST(X).price",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(!q.elements[2].purely_local());
        let m = PrecondMatrices::build(Predicates::new(&q.elements));
        // θ[3][3] must not be 1 even though p3 ⇒ p3 syntactically, because
        // a 1 would let the runtime skip the non-local half.
        assert_eq!(m.theta.get(3, 3), Unknown);
        // But θ[3][2] = 1 is fine: local(p3) ⇒ p2 and p2 is purely local.
        assert_eq!(m.theta.get(3, 2), True);
        assert_eq!(m.phi.get(3, 2), Unknown);
    }

    #[test]
    fn negate_formula_basics() {
        use sqlts_constraints::{Atom, CmpOp, Var};
        let band = Formula::conj(System::from_atoms([
            Atom::var_const(Var(0), CmpOp::Gt, 40),
            Atom::var_const(Var(0), CmpOp::Lt, 50),
        ]));
        let neg = negate_formula(&band, 64).unwrap();
        assert_eq!(neg.disjuncts().len(), 2); // ≤40 ∨ ≥50
                                              // ¬¬band ≡ band (semantically): ¬band contradicts band.
        assert!(neg.contradicts(&band));
        // ¬TRUE = FALSE.
        let t = Formula::conj(System::new());
        assert_eq!(negate_formula(&t, 64).unwrap().disjuncts().len(), 0);
        // ¬FALSE = TRUE.
        let f = Formula::none();
        let nf = negate_formula(&f, 64).unwrap();
        assert_eq!(nf.satisfiability(), True);
    }

    #[test]
    fn constant_equality_detection() {
        let q = compile(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) \
             WHERE X.price = 10 AND Y.price = 11 AND Z.price = 15",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        for (i, expect) in [(0, 10i64), (1, 11), (2, 15)] {
            let (_, c) = is_constant_equality(&q.elements[i]).expect("constant equality");
            assert_eq!(c, sqlts_rational::Rational::from(expect));
        }
        let q2 = example4_pattern();
        assert!(is_constant_equality(&q2.elements[0]).is_none());
    }

    #[test]
    fn theta_phi_all_unknown_for_opaque_predicates() {
        // Predicates the solver cannot analyze (price * prev compared to
        // a constant is non-affine) must come out U everywhere except the
        // syntactic diagonal.
        let q = compile(
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, B) \
             WHERE A.price * A.previous.price > 100 \
             AND B.price * B.previous.price <= 100",
            &quote_schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let m = PrecondMatrices::build(Predicates::new(&q.elements));
        assert_eq!(m.theta.get(1, 1), True); // syntactic self-implication
        assert_eq!(m.theta.get(2, 1), False); // syntactic contradiction (exact negation)
        assert_eq!(m.phi.get(2, 1), True); // ¬p2 is syntactically p1
    }
}
