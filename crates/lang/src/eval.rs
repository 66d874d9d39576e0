//! Runtime evaluation of compiled predicates and projections.
//!
//! Engines evaluate element predicates millions of times, so the `WHERE`
//! path works over borrowed scalars and never allocates; the `SELECT` path
//! (once per match) produces owned [`Value`]s.

use crate::compiled::{Anchor, ArithOp, BoolExpr, Conjunct, FieldRef, ProjItem, ScalarExpr};
use sqlts_constraints::CmpOp;
use sqlts_relation::{Cluster, Value};
use sqlts_tvl::Truth;

/// How predicates referencing tuples before the start (or after the end)
/// of a cluster evaluate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FirstTuplePolicy {
    /// Comparisons touching an out-of-range tuple are **vacuously true**
    /// (the paper's worked example in §5 counts the first tuple as
    /// matching a `previous`-referencing star predicate).
    #[default]
    VacuousTrue,
    /// Comparisons touching an out-of-range tuple are false, so a pattern
    /// whose first element references `previous` can only match from the
    /// second tuple on.
    Fail,
}

/// The spans (inclusive start/end positions within a cluster) the pattern
/// elements have matched so far.  `spans[k]` is valid once element `k` has
/// completed; during matching of element `j` only `spans[..j]` is read.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    /// Per-element `(first, last)` positions, 0-based, inclusive.
    pub spans: Vec<(usize, usize)>,
}

impl Bindings {
    /// Bindings with capacity for an `m`-element pattern.
    pub fn with_capacity(m: usize) -> Bindings {
        Bindings {
            spans: Vec::with_capacity(m),
        }
    }
}

/// Evaluation context: the stream plus policy knobs.
pub struct EvalCtx<'a> {
    /// The cluster (stream) being searched.
    pub cluster: &'a Cluster<'a>,
    /// Out-of-range semantics.
    pub policy: FirstTuplePolicy,
}

/// A borrowed scalar produced during `WHERE` evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Scalar<'a> {
    Num(f64),
    Str(&'a str),
    Null,
    /// The referenced tuple lies outside the cluster (e.g. `previous` of
    /// the first tuple); resolves per [`FirstTuplePolicy`].
    OutOfRange,
}

/// Resolve a field reference to a stream position, if representable.
fn resolve_pos(f: &FieldRef, cur: usize, bindings: &Bindings) -> Option<isize> {
    let base = match f.anchor {
        Anchor::Cur => cur as isize,
        Anchor::Element { index, end } => {
            let (first, last) = *bindings.spans.get(index)?;
            match end {
                crate::compiled::SpanEnd::First => first as isize,
                crate::compiled::SpanEnd::Last => last as isize,
            }
        }
    };
    Some(base + f.offset as isize)
}

fn field_scalar<'a>(
    f: &FieldRef,
    ctx: &EvalCtx<'a>,
    cur: usize,
    bindings: &Bindings,
) -> Scalar<'a> {
    let pos = match resolve_pos(f, cur, bindings) {
        Some(p) => p,
        None => return Scalar::OutOfRange,
    };
    if pos < 0 || pos as usize >= ctx.cluster.len() {
        return Scalar::OutOfRange;
    }
    match &ctx.cluster.get(pos as usize)[f.col] {
        Value::Null => Scalar::Null,
        Value::Int(i) => Scalar::Num(*i as f64),
        Value::Float(x) => Scalar::Num(*x),
        Value::Str(s) => Scalar::Str(s),
        Value::Date(d) => Scalar::Num(f64::from(d.days())),
    }
}

/// Evaluate a scalar expression in `WHERE` mode.
fn eval_where_scalar<'a>(
    e: &'a ScalarExpr,
    ctx: &EvalCtx<'a>,
    cur: usize,
    bindings: &Bindings,
) -> Scalar<'a> {
    match e {
        ScalarExpr::Num { approx, .. } => Scalar::Num(*approx),
        ScalarExpr::Str(s) => Scalar::Str(s),
        ScalarExpr::Date(d) => Scalar::Num(f64::from(d.days())),
        ScalarExpr::Field(f) => field_scalar(f, ctx, cur, bindings),
        ScalarExpr::Neg(inner) => match eval_where_scalar(inner, ctx, cur, bindings) {
            Scalar::Num(x) => Scalar::Num(-x),
            other => other,
        },
        ScalarExpr::Arith { op, lhs, rhs } => {
            let l = eval_where_scalar(lhs, ctx, cur, bindings);
            let r = eval_where_scalar(rhs, ctx, cur, bindings);
            match (l, r) {
                (Scalar::OutOfRange, _) | (_, Scalar::OutOfRange) => Scalar::OutOfRange,
                (Scalar::Num(a), Scalar::Num(b)) => Scalar::Num(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                }),
                _ => Scalar::Null,
            }
        }
    }
}

/// Evaluate one boolean expression in `WHERE` mode, in Kleene logic: a
/// comparison touching a NULL is `Unknown`, and `NOT Unknown = Unknown`.
/// That equals evaluating the negation-normal form the binder hands the
/// solver (which pushes `NOT` into the comparison operator), so what the
/// runtime accepts and what θ/φ reason about agree on NULL data.
fn eval_truth(e: &BoolExpr, ctx: &EvalCtx<'_>, cur: usize, bindings: &Bindings) -> Truth {
    match e {
        BoolExpr::Const(b) => Truth::from_bool(*b),
        BoolExpr::And(a, b) => match eval_truth(a, ctx, cur, bindings) {
            Truth::False => Truth::False,
            a => a & eval_truth(b, ctx, cur, bindings),
        },
        BoolExpr::Or(a, b) => match eval_truth(a, ctx, cur, bindings) {
            Truth::True => Truth::True,
            a => a | eval_truth(b, ctx, cur, bindings),
        },
        BoolExpr::Not(inner) => !eval_truth(inner, ctx, cur, bindings),
        BoolExpr::Cmp { lhs, op, rhs } => {
            eval_cmp(lhs, *op, rhs, ctx, cur, bindings).map_or(Truth::Unknown, Truth::from_bool)
        }
    }
}

/// One comparison; `None` (Kleene `Unknown`) when an operand is NULL.
#[inline]
fn eval_cmp(
    lhs: &ScalarExpr,
    op: CmpOp,
    rhs: &ScalarExpr,
    ctx: &EvalCtx<'_>,
    cur: usize,
    bindings: &Bindings,
) -> Option<bool> {
    let l = eval_where_scalar(lhs, ctx, cur, bindings);
    let r = eval_where_scalar(rhs, ctx, cur, bindings);
    Some(match (l, r) {
        (Scalar::OutOfRange, _) | (_, Scalar::OutOfRange) => {
            ctx.policy == FirstTuplePolicy::VacuousTrue
        }
        (Scalar::Null, _) | (_, Scalar::Null) => return None,
        (Scalar::Num(a), Scalar::Num(b)) => op.eval_f64(a, b),
        (Scalar::Str(a), Scalar::Str(b)) => match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        },
        // Cross-type comparisons are prevented at bind time.
        _ => false,
    })
}

/// Evaluate one conjunct of an element's predicate against the current
/// tuple.  The tuple passes iff the conjunct is `True` — the SQL rule:
/// `Unknown` rejects, exactly as `False` does.
pub fn eval_conjunct(c: &Conjunct, ctx: &EvalCtx<'_>, cur: usize, bindings: &Bindings) -> bool {
    match &c.expr {
        // A bare comparison is what nearly every conjunct is (the binder
        // splits `WHERE` at its top-level `AND`s); answering it without the
        // round trip through `Truth` is worth 4–5 % of `batch_suite`
        // `rows_per_s` (CHANGES.md PR 21).
        BoolExpr::Cmp { lhs, op, rhs } => eval_cmp(lhs, *op, rhs, ctx, cur, bindings) == Some(true),
        e => eval_truth(e, ctx, cur, bindings).is_true(),
    }
}

/// Evaluate a scalar expression in `SELECT` mode, producing an owned value.
/// Out-of-range references project as NULL.
pub fn eval_scalar(e: &ScalarExpr, ctx: &EvalCtx<'_>, bindings: &Bindings) -> Value {
    match e {
        ScalarExpr::Num { exact, approx } => {
            if exact.is_integer() {
                Value::Int(exact.numer() as i64)
            } else {
                Value::Float(*approx)
            }
        }
        ScalarExpr::Str(s) => Value::Str(s.clone()),
        ScalarExpr::Date(d) => Value::Date(*d),
        ScalarExpr::Field(f) => {
            let pos = match resolve_pos(f, 0, bindings) {
                Some(p) => p,
                None => return Value::Null,
            };
            if pos < 0 || pos as usize >= ctx.cluster.len() {
                return Value::Null;
            }
            ctx.cluster.get(pos as usize)[f.col].clone()
        }
        ScalarExpr::Neg(inner) => match eval_scalar(inner, ctx, bindings) {
            Value::Int(i) => Value::Int(-i),
            Value::Float(x) => Value::Float(-x),
            _ => Value::Null,
        },
        ScalarExpr::Arith { op, lhs, rhs } => {
            let l = eval_scalar(lhs, ctx, bindings);
            let r = eval_scalar(rhs, ctx, bindings);
            match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => Value::Float(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                }),
                _ => Value::Null,
            }
        }
    }
}

/// Evaluate the whole projection for a completed match.
pub fn eval_projection(items: &[ProjItem], ctx: &EvalCtx<'_>, bindings: &Bindings) -> Vec<Value> {
    items
        .iter()
        .map(|item| eval_scalar(&item.expr, ctx, bindings))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::{compile, CompileOptions};
    use sqlts_relation::{ColumnType, Date, Schema, Table};

    fn prices_table(prices: &[f64]) -> Table {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (i, &p) in prices.iter().enumerate() {
            t.push_row(vec![
                Value::from("IBM"),
                Value::Date(Date::from_days(i as i32)),
                Value::from(p),
            ])
            .unwrap();
        }
        t
    }

    fn compile_q(src: &str) -> crate::compiled::CompiledQuery {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap();
        compile(src, &schema, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn local_predicate_evaluation() {
        let t = prices_table(&[10.0, 9.0, 11.0]);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let ctx = EvalCtx {
            cluster: &clusters[0],
            policy: FirstTuplePolicy::Fail,
        };
        let q = compile_q(
            "SELECT X.date FROM t SEQUENCE BY date AS (X) \
             WHERE X.price < X.previous.price",
        );
        let c = &q.elements[0].conjuncts[0];
        let b = Bindings::default();
        assert!(!eval_conjunct(c, &ctx, 0, &b)); // no previous, Fail policy
        assert!(eval_conjunct(c, &ctx, 1, &b)); // 9 < 10
        assert!(!eval_conjunct(c, &ctx, 2, &b)); // 11 > 9
    }

    #[test]
    fn vacuous_policy_on_first_tuple() {
        let t = prices_table(&[10.0, 9.0]);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let ctx = EvalCtx {
            cluster: &clusters[0],
            policy: FirstTuplePolicy::VacuousTrue,
        };
        let q = compile_q(
            "SELECT X.date FROM t SEQUENCE BY date AS (X) \
             WHERE X.price < X.previous.price",
        );
        assert!(eval_conjunct(
            &q.elements[0].conjuncts[0],
            &ctx,
            0,
            &Bindings::default()
        ));
    }

    #[test]
    fn string_and_arith_comparisons() {
        let t = prices_table(&[10.0, 20.0]);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let ctx = EvalCtx {
            cluster: &clusters[0],
            policy: FirstTuplePolicy::Fail,
        };
        let q = compile_q(
            "SELECT X.date FROM t SEQUENCE BY date AS (X) \
             WHERE X.name = 'IBM' AND X.price * 2 + 1 > 40",
        );
        let b = Bindings::default();
        // Both conjuncts land on X.
        assert!(eval_conjunct(&q.elements[0].conjuncts[0], &ctx, 1, &b));
        assert!(eval_conjunct(&q.elements[0].conjuncts[1], &ctx, 1, &b)); // 41 > 40
        assert!(!eval_conjunct(&q.elements[0].conjuncts[1], &ctx, 0, &b)); // 21 < 40
    }

    #[test]
    fn nonlocal_conjunct_uses_bindings() {
        let t = prices_table(&[10.0, 8.0, 6.0, 9.0]);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let ctx = EvalCtx {
            cluster: &clusters[0],
            policy: FirstTuplePolicy::Fail,
        };
        // (X, *Y, Z): Z.price > X.price, non-local.
        let q = compile_q(
            "SELECT Z.date FROM t SEQUENCE BY date AS (X, *Y, Z) \
             WHERE Y.price < Y.previous.price AND Z.price > X.price",
        );
        let c = &q.elements[2].conjuncts[0];
        assert!(!c.local);
        // X bound to pos 0 (price 10), Y to 1..=2; test Z at pos 3 (price 9).
        let b = Bindings {
            spans: vec![(0, 0), (1, 2)],
        };
        assert!(!eval_conjunct(c, &ctx, 3, &b)); // 9 > 10 is false
        let t2 = prices_table(&[5.0, 4.0, 3.0, 9.0]);
        let clusters2 = t2.cluster_by(&[], &["date"]).unwrap();
        let ctx2 = EvalCtx {
            cluster: &clusters2[0],
            policy: FirstTuplePolicy::Fail,
        };
        assert!(eval_conjunct(c, &ctx2, 3, &b)); // 9 > 5
    }

    #[test]
    fn projection_with_first_last_and_navigation() {
        let t = prices_table(&[10.0, 8.0, 6.0, 9.0]);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let ctx = EvalCtx {
            cluster: &clusters[0],
            policy: FirstTuplePolicy::Fail,
        };
        let q = compile_q(
            "SELECT FIRST(Y).price AS a, LAST(Y).price AS b, X.NEXT.price AS c, \
             X.price + 1 AS d \
             FROM t SEQUENCE BY date AS (X, *Y) \
             WHERE Y.price < Y.previous.price",
        );
        let b = Bindings {
            spans: vec![(0, 0), (1, 2)],
        };
        let row = eval_projection(&q.projection, &ctx, &b);
        assert_eq!(row[0], Value::Float(8.0));
        assert_eq!(row[1], Value::Float(6.0));
        assert_eq!(row[2], Value::Float(8.0)); // X.next = pos 1
        assert_eq!(row[3], Value::Float(11.0));
    }

    #[test]
    fn projection_out_of_range_is_null() {
        let t = prices_table(&[10.0]);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let ctx = EvalCtx {
            cluster: &clusters[0],
            policy: FirstTuplePolicy::Fail,
        };
        let q = compile_q(
            "SELECT X.previous.price AS p FROM t SEQUENCE BY date AS (X) WHERE X.price > 0",
        );
        let b = Bindings {
            spans: vec![(0, 0)],
        };
        assert_eq!(eval_projection(&q.projection, &ctx, &b), vec![Value::Null]);
    }

    #[test]
    fn integer_literals_project_as_ints() {
        let t = prices_table(&[10.0]);
        let clusters = t.cluster_by(&[], &["date"]).unwrap();
        let ctx = EvalCtx {
            cluster: &clusters[0],
            policy: FirstTuplePolicy::Fail,
        };
        let q = compile_q("SELECT 42 AS k FROM t SEQUENCE BY date AS (X) WHERE X.price > 0");
        let b = Bindings {
            spans: vec![(0, 0)],
        };
        assert_eq!(
            eval_projection(&q.projection, &ctx, &b),
            vec![Value::Int(42)]
        );
    }
}
