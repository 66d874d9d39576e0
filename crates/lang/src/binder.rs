//! Semantic analysis: binds a parsed [`ast::Query`] against a schema and
//! produces the [`CompiledQuery`] IR.
//!
//! Responsibilities:
//!
//! * validate pattern variables, cluster/sequence columns and field refs;
//! * split the `WHERE` clause into conjuncts and assign each to the
//!   **rightmost** pattern element it mentions (the element whose matching
//!   triggers its evaluation);
//! * rewrite references to adjacent non-star variables into physical
//!   `previous`-offsets (`Y.price > 1.15*X.price` over `AS (X, Y)` becomes
//!   a *local* predicate `cur.price > 1.15 · cur[-1].price`), which is what
//!   makes the paper's Examples 1 and 4 optimizable;
//! * classify conjuncts as local / non-local and build the per-element
//!   [`Formula`] the OPS optimizer reasons over;
//! * compile the `SELECT` list into element-anchored projections.

use crate::ast::{self, BinOp, Expr, FirstLast, Nav, UnOp};
use crate::compiled::*;
use crate::error::{LangError, Span};
use crate::parser::parse;
use sqlts_constraints::{Atom, CmpOp, Formula, System, Var};
use sqlts_rational::Rational;
use sqlts_relation::{ColumnType, Schema};
use std::collections::BTreeMap;

/// Options controlling compilation.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Assume every numeric column ranges over strictly positive values
    /// (true for prices), enabling the §6 ratio transform for
    /// `X op C·Y` predicates.  Default `true`, as in the paper.
    pub assume_positive_domains: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            assume_positive_domains: true,
        }
    }
}

/// Bound on DNF expansion when normalizing disjunctive predicates for the
/// optimizer.  Elements whose predicates exceed the bound are treated
/// opaquely (sound, unoptimized).
const MAX_DNF: usize = 64;

/// Parse and compile a SQL-TS query against `schema`.
pub fn compile(
    src: &str,
    schema: &Schema,
    options: &CompileOptions,
) -> Result<CompiledQuery, LangError> {
    compile_ast(&parse(src)?, schema, options)
}

/// Compile an already-parsed query.
pub fn compile_ast(
    query: &ast::Query,
    schema: &Schema,
    options: &CompileOptions,
) -> Result<CompiledQuery, LangError> {
    let binder = Binder {
        schema,
        options,
        vars: bind_pattern_vars(&query.pattern)?,
        pattern: &query.pattern,
    };

    for col in query.cluster_by.iter().chain(&query.sequence_by) {
        if schema.index_of(col).is_none() {
            return Err(LangError::new(
                format!("no such column: {col}"),
                Span::default(),
            ));
        }
    }

    // --- WHERE clause: split, assign, lower. ---
    let mut element_conjuncts: Vec<Vec<Conjunct>> = vec![Vec::new(); query.pattern.len()];
    if let Some(where_clause) = &query.where_clause {
        let mut conjuncts = Vec::new();
        split_conjuncts(where_clause, &mut conjuncts);
        for conjunct in conjuncts {
            let mut mentioned = Vec::new();
            conjunct.vars(&mut mentioned);
            let indices: Vec<usize> = mentioned
                .iter()
                .map(|v| binder.var_index(v, conjunct.span()))
                .collect::<Result<_, _>>()?;
            let target = indices.iter().copied().max().unwrap_or(0);
            let (expr, local) = binder.lower_bool(conjunct, Some(target))?;
            element_conjuncts[target].push(Conjunct {
                local,
                display: conjunct.to_string(),
                expr,
            });
        }
    }

    // --- Per-element optimizer formulas. ---
    let mut elements = Vec::with_capacity(query.pattern.len());
    for (i, pv) in query.pattern.iter().enumerate() {
        let conjuncts = std::mem::take(&mut element_conjuncts[i]);
        let formula = binder.build_formula(&pv.name, &conjuncts);
        elements.push(PatternElement {
            name: pv.name.clone(),
            star: pv.star,
            conjuncts,
            formula,
        });
    }

    // --- Projection. ---
    let mut projection = Vec::with_capacity(query.select.len());
    for (i, item) in query.select.iter().enumerate() {
        let (expr, ty) = binder.lower_projection(&item.expr)?;
        let name = item.alias.clone().unwrap_or_else(|| match &item.expr {
            Expr::Field { attr, .. } => attr.clone(),
            _ => format!("col{}", i + 1),
        });
        projection.push(ProjItem { expr, name, ty });
    }

    Ok(CompiledQuery {
        table: query.from.clone(),
        cluster_by: query.cluster_by.clone(),
        sequence_by: query.sequence_by.clone(),
        elements,
        projection,
        schema: schema.clone(),
    })
}

fn bind_pattern_vars(pattern: &[ast::PatternVar]) -> Result<BTreeMap<String, usize>, LangError> {
    let mut map = BTreeMap::new();
    for (i, pv) in pattern.iter().enumerate() {
        let key = pv.name.to_ascii_uppercase();
        if map.insert(key, i).is_some() {
            return Err(LangError::new(
                format!("duplicate pattern variable {}", pv.name),
                pv.span,
            ));
        }
    }
    Ok(map)
}

/// Split a boolean expression on top-level ANDs.
fn split_conjuncts<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
            ..
        } => {
            split_conjuncts(lhs, out);
            split_conjuncts(rhs, out);
        }
        other => out.push(other),
    }
}

/// Scalar type classes used by bind-time type checking.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TyClass {
    Num,
    Str,
}

fn ty_class(ty: ColumnType) -> TyClass {
    match ty {
        ColumnType::Str => TyClass::Str,
        // Dates compare as day numbers.
        ColumnType::Int | ColumnType::Float | ColumnType::Date => TyClass::Num,
    }
}

struct Binder<'a> {
    schema: &'a Schema,
    options: &'a CompileOptions,
    vars: BTreeMap<String, usize>,
    pattern: &'a [ast::PatternVar],
}

impl Binder<'_> {
    fn var_index(&self, name: &str, span: Span) -> Result<usize, LangError> {
        self.vars
            .get(&name.to_ascii_uppercase())
            .copied()
            .ok_or_else(|| LangError::new(format!("unknown pattern variable {name}"), span))
    }

    /// Lower a boolean `WHERE` conjunct for element `target`
    /// (`target = None` lowers in projection mode).  Returns the runtime
    /// expression and whether it is local.
    fn lower_bool(
        &self,
        expr: &Expr,
        target: Option<usize>,
    ) -> Result<(BoolExpr, bool), LangError> {
        match expr {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
                ..
            } => {
                let (l, ll) = self.lower_bool(lhs, target)?;
                let (r, rl) = self.lower_bool(rhs, target)?;
                Ok((BoolExpr::And(Box::new(l), Box::new(r)), ll && rl))
            }
            Expr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
                ..
            } => {
                let (l, ll) = self.lower_bool(lhs, target)?;
                let (r, rl) = self.lower_bool(rhs, target)?;
                Ok((BoolExpr::Or(Box::new(l), Box::new(r)), ll && rl))
            }
            Expr::Unary {
                op: UnOp::Not,
                expr,
                ..
            } => {
                let (e, local) = self.lower_bool(expr, target)?;
                Ok((BoolExpr::Not(Box::new(e)), local))
            }
            Expr::Binary { op, lhs, rhs, span } if op.is_comparison() => {
                let (l, lt, ll) = self.lower_scalar(lhs, target)?;
                let (r, rt, rl) = self.lower_scalar(rhs, target)?;
                if lt != rt {
                    return Err(LangError::new(
                        format!("type mismatch in comparison: {lt:?} vs {rt:?}"),
                        *span,
                    ));
                }
                let op = match op {
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::Le => CmpOp::Le,
                    BinOp::Gt => CmpOp::Gt,
                    BinOp::Ge => CmpOp::Ge,
                    BinOp::Eq => CmpOp::Eq,
                    BinOp::Ne => CmpOp::Ne,
                    _ => unreachable!("guarded by is_comparison"),
                };
                Ok((BoolExpr::Cmp { lhs: l, op, rhs: r }, ll && rl))
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
                span,
            } => {
                // e BETWEEN lo AND hi  ≡  e >= lo AND e <= hi.
                let (e, et, el) = self.lower_scalar(expr, target)?;
                let (l, lt, ll) = self.lower_scalar(lo, target)?;
                let (h, ht, hl) = self.lower_scalar(hi, target)?;
                if et != lt || et != ht {
                    return Err(LangError::new("type mismatch in BETWEEN", *span));
                }
                let both = BoolExpr::And(
                    Box::new(BoolExpr::Cmp {
                        lhs: e.clone(),
                        op: CmpOp::Ge,
                        rhs: l,
                    }),
                    Box::new(BoolExpr::Cmp {
                        lhs: e,
                        op: CmpOp::Le,
                        rhs: h,
                    }),
                );
                let out = if *negated {
                    BoolExpr::Not(Box::new(both))
                } else {
                    both
                };
                Ok((out, el && ll && hl))
            }
            other => Err(LangError::new("expected a boolean condition", other.span())),
        }
    }

    /// Lower a scalar expression.  `target = Some(j)` is WHERE-mode for
    /// element `j`; `None` is SELECT-mode.  Returns the compiled
    /// expression, its type class, and locality.
    fn lower_scalar(
        &self,
        expr: &Expr,
        target: Option<usize>,
    ) -> Result<(ScalarExpr, TyClass, bool), LangError> {
        match expr {
            Expr::Number { value, .. } => Ok((ScalarExpr::num(*value), TyClass::Num, true)),
            Expr::Str { value, .. } => Ok((ScalarExpr::Str(value.clone()), TyClass::Str, true)),
            Expr::DateLit { value, span } => {
                let date = value
                    .parse()
                    .map_err(|e| LangError::new(format!("{e}"), *span))?;
                Ok((ScalarExpr::Date(date), TyClass::Num, true))
            }
            Expr::Field {
                var,
                first_last,
                navs,
                attr,
                span,
            } => self.lower_field(var, *first_last, navs, attr, *span, target),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
                span,
            } => {
                let (e, ty, local) = self.lower_scalar(expr, target)?;
                if ty != TyClass::Num {
                    return Err(LangError::new("cannot negate a string", *span));
                }
                Ok((ScalarExpr::Neg(Box::new(e)), TyClass::Num, local))
            }
            Expr::Binary { op, lhs, rhs, span } if op.is_arithmetic() => {
                let (l, lt, ll) = self.lower_scalar(lhs, target)?;
                let (r, rt, rl) = self.lower_scalar(rhs, target)?;
                if lt != TyClass::Num || rt != TyClass::Num {
                    return Err(LangError::new(
                        "arithmetic requires numeric operands",
                        *span,
                    ));
                }
                let op = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    _ => unreachable!("guarded by is_arithmetic"),
                };
                Ok((
                    ScalarExpr::Arith {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    TyClass::Num,
                    ll && rl,
                ))
            }
            other => Err(LangError::new("expected a scalar expression", other.span())),
        }
    }

    fn lower_field(
        &self,
        var: &str,
        first_last: Option<FirstLast>,
        navs: &[Nav],
        attr: &str,
        span: Span,
        target: Option<usize>,
    ) -> Result<(ScalarExpr, TyClass, bool), LangError> {
        let k = self.var_index(var, span)?;
        let col = self
            .schema
            .index_of(attr)
            .ok_or_else(|| LangError::new(format!("no such column: {attr}"), span))?;
        let ty = self.schema.columns()[col].ty;
        let nav_offset: i32 = navs
            .iter()
            .map(|n| match n {
                Nav::Previous => -1,
                Nav::Next => 1,
            })
            .sum();

        let field = |anchor: Anchor, offset: i32| {
            (
                ScalarExpr::Field(FieldRef {
                    anchor,
                    offset,
                    col,
                    ty,
                }),
                ty_class(ty),
            )
        };

        match target {
            // --- SELECT mode: everything anchors at elements. ---
            None => {
                let star = self.pattern[k].star;
                // A bare starred variable defaults to FIRST: the paper's
                // Example 8 writes `SELECT X.name` over `AS (*X, …)`.
                // Leading navigation picks the natural end (`V.previous`
                // steps back from the span start, `V.next` forward from
                // its end).
                let end = match (first_last, star, navs.first()) {
                    (Some(FirstLast::First), _, _) => SpanEnd::First,
                    (Some(FirstLast::Last), _, _) => SpanEnd::Last,
                    (None, false, _) => SpanEnd::First,
                    (None, true, Some(Nav::Next)) => SpanEnd::Last,
                    (None, true, _) => SpanEnd::First,
                };
                let (e, t) = field(Anchor::Element { index: k, end }, nav_offset);
                Ok((e, t, false))
            }
            // --- WHERE mode for element `j`. ---
            Some(j) => {
                if navs.contains(&Nav::Next) {
                    return Err(LangError::new(
                        "`next` navigation is not allowed in WHERE \
                         (the next tuple has not been read yet); use it in SELECT",
                        span,
                    ));
                }
                if k == j {
                    if first_last.is_some() {
                        return Err(LangError::new(
                            format!("FIRST/LAST of {var} cannot be used in {var}'s own condition"),
                            span,
                        ));
                    }
                    let (e, t) = field(Anchor::Cur, nav_offset);
                    return Ok((e, t, true));
                }
                debug_assert!(k < j, "conjunct assigned to rightmost variable");
                // Fixed-offset rewriting: valid when the current element
                // and everything between `k` and `j` is non-star, so the
                // distance from the current tuple to element k's tuple is
                // exactly j - k.
                let rewritable =
                    !self.pattern[j].star && self.pattern[k..j].iter().all(|p| !p.star);
                if rewritable {
                    let (e, t) = field(Anchor::Cur, nav_offset - (j - k) as i32);
                    return Ok((e, t, true));
                }
                // Non-local reference against element k's bound span.
                let end = match first_last {
                    Some(FirstLast::First) => SpanEnd::First,
                    Some(FirstLast::Last) => SpanEnd::Last,
                    None if !self.pattern[k].star => SpanEnd::First,
                    None => {
                        return Err(LangError::new(
                            format!(
                                "ambiguous reference to starred variable {var}; \
                                 use FIRST({var}) or LAST({var})"
                            ),
                            span,
                        ))
                    }
                };
                let (e, t) = field(Anchor::Element { index: k, end }, nav_offset);
                Ok((e, t, false))
            }
        }
    }

    fn lower_projection(&self, expr: &Expr) -> Result<(ScalarExpr, ColumnType), LangError> {
        let (e, _tyclass, _) = self.lower_scalar(expr, None)?;
        Ok((e.clone(), infer_column_type(&e)))
    }

    /// Build the optimizer's DNF view of an element's local conjuncts.
    fn build_formula(&self, element_name: &str, conjuncts: &[Conjunct]) -> Formula {
        let mut formula = Formula::conj(System::new());
        for c in conjuncts.iter().filter(|c| c.local) {
            let cf = match self.bool_to_formula(&c.expr, false) {
                Some(f) => f,
                None => Formula::conj(System::from_atoms([Atom::Opaque {
                    token: format!("{element_name}:{}", c.display),
                    negated: false,
                }])),
            };
            formula = match conjoin_formulas(&formula, &cf) {
                Some(f) => f,
                None => {
                    // DNF blow-up: fall back to a single opaque atom for
                    // the whole element (sound in both implication
                    // directions because the token is never shared).
                    return Formula::conj(System::from_atoms([Atom::Opaque {
                        token: format!("{element_name}:<dnf-overflow>"),
                        negated: false,
                    }]));
                }
            };
        }
        if self.options.assume_positive_domains {
            let positivized = formula
                .disjuncts()
                .iter()
                .map(|d| {
                    let mut d = d.clone();
                    for atom in d.atoms().to_vec() {
                        for v in atom.vars() {
                            if self.var_is_positive_domain(v) {
                                d.assume_positive(v);
                            }
                        }
                    }
                    d
                })
                .collect::<Vec<_>>();
            formula = Formula::disjunction(positivized);
        }
        formula
    }

    /// The positive-domain assumption applies to `Int`/`Float` columns
    /// (prices, volumes) but never to dates: day numbers are epoch-relative
    /// and can be negative, so assuming positivity would be unsound.
    fn var_is_positive_domain(&self, v: Var) -> bool {
        let col = (v.0 & ((1 << 20) - 1)) as usize;
        matches!(
            self.schema.columns().get(col).map(|c| c.ty),
            Some(ColumnType::Int | ColumnType::Float)
        )
    }

    /// Convert a boolean expression to DNF (as a [`Formula`]).  `negated`
    /// tracks NNF polarity.  Returns `None` when the expression is too
    /// large to normalize.
    fn bool_to_formula(&self, expr: &BoolExpr, negated: bool) -> Option<Formula> {
        match (expr, negated) {
            (BoolExpr::Const(b), neg) => {
                if *b != neg {
                    Some(Formula::conj(System::new()))
                } else {
                    Some(Formula::none())
                }
            }
            (BoolExpr::Not(e), neg) => self.bool_to_formula(e, !neg),
            (BoolExpr::And(a, b), false) | (BoolExpr::Or(a, b), true) => {
                let fa = self.bool_to_formula(a, negated)?;
                let fb = self.bool_to_formula(b, negated)?;
                conjoin_formulas(&fa, &fb)
            }
            (BoolExpr::Or(a, b), false) | (BoolExpr::And(a, b), true) => {
                let fa = self.bool_to_formula(a, negated)?;
                let fb = self.bool_to_formula(b, negated)?;
                let mut disjuncts = fa.disjuncts().to_vec();
                disjuncts.extend_from_slice(fb.disjuncts());
                if disjuncts.len() > MAX_DNF {
                    return None;
                }
                Some(Formula::disjunction(disjuncts))
            }
            (BoolExpr::Cmp { lhs, op, rhs }, neg) => {
                let op = if neg { op.negate() } else { *op };
                Some(Formula::conj(System::from_atoms([cmp_to_atom(
                    lhs, op, rhs,
                )])))
            }
        }
    }
}

/// Conjoin two DNF formulas by distribution, bounded by [`MAX_DNF`].
fn conjoin_formulas(a: &Formula, b: &Formula) -> Option<Formula> {
    if a.disjuncts().len() * b.disjuncts().len() > MAX_DNF {
        return None;
    }
    let mut out = Vec::with_capacity(a.disjuncts().len() * b.disjuncts().len());
    for da in a.disjuncts() {
        for db in b.disjuncts() {
            out.push(da.conjoin(db));
        }
    }
    Some(Formula::disjunction(out))
}

/// Encode a Cur-anchored field as a solver variable.
///
/// Layout: bits 0..20 = column index, bits 20.. = `previous` depth, so the
/// same (depth, column) pair always maps to the same id — which is exactly
/// the positional alignment the θ/φ implication checks require.
fn field_var(offset: i32, col: usize) -> Option<Var> {
    if offset > 0 {
        return None; // `next` never reaches the solver (rejected in WHERE)
    }
    let depth = (-offset) as u32;
    if depth > 2048 || col >= (1 << 20) {
        return None;
    }
    Some(Var((depth << 20) | col as u32))
}

/// An affine view of a scalar expression: `Σ coeffᵢ·fieldᵢ + konst`.
#[derive(Default)]
struct Affine {
    terms: BTreeMap<(i32, usize), Rational>, // (offset, col) -> coefficient
    konst: Rational,
}

impl Affine {
    fn constant(c: Rational) -> Affine {
        Affine {
            terms: BTreeMap::new(),
            konst: c,
        }
    }

    /// `None` when a coefficient overflows: the caller abandons the affine
    /// view and the comparison stays an opaque predicate.
    fn scale(mut self, s: Rational) -> Option<Affine> {
        for v in self.terms.values_mut() {
            *v = v.checked_mul(s).ok()?;
        }
        self.konst = self.konst.checked_mul(s).ok()?;
        Some(self)
    }

    /// `None` on coefficient overflow (see [`Affine::scale`]).
    fn add(mut self, other: Affine) -> Option<Affine> {
        for (k, v) in other.terms {
            let entry = self.terms.entry(k).or_insert(Rational::ZERO);
            *entry = entry.checked_add(v).ok()?;
        }
        self.terms.retain(|_, v| !v.is_zero());
        self.konst = self.konst.checked_add(other.konst).ok()?;
        Some(self)
    }

    fn neg(self) -> Option<Affine> {
        self.scale(-Rational::ONE)
    }
}

/// Try to view a Cur-anchored numeric scalar expression as affine.
fn affine(expr: &ScalarExpr) -> Option<Affine> {
    match expr {
        ScalarExpr::Num { exact, .. } => Some(Affine::constant(*exact)),
        ScalarExpr::Date(d) => Some(Affine::constant(Rational::from_int(d.days() as i128))),
        ScalarExpr::Str(_) => None,
        ScalarExpr::Field(f) => match f.anchor {
            Anchor::Cur if ty_class(f.ty) == TyClass::Num => {
                let mut terms = BTreeMap::new();
                terms.insert((f.offset, f.col), Rational::ONE);
                Some(Affine {
                    terms,
                    konst: Rational::ZERO,
                })
            }
            _ => None,
        },
        ScalarExpr::Neg(e) => affine(e)?.neg(),
        ScalarExpr::Arith { op, lhs, rhs } => {
            let l = affine(lhs)?;
            let r = affine(rhs)?;
            match op {
                ArithOp::Add => l.add(r),
                ArithOp::Sub => l.add(r.neg()?),
                ArithOp::Mul => {
                    if l.terms.is_empty() {
                        r.scale(l.konst)
                    } else if r.terms.is_empty() {
                        l.scale(r.konst)
                    } else {
                        None
                    }
                }
                ArithOp::Div => {
                    if r.terms.is_empty() && !r.konst.is_zero() {
                        l.scale(r.konst.checked_recip().ok()?)
                    } else {
                        None
                    }
                }
            }
        }
    }
}

/// Convert a comparison over compiled scalars to a solver [`Atom`].
fn cmp_to_atom(lhs: &ScalarExpr, op: CmpOp, rhs: &ScalarExpr) -> Atom {
    // Categorical: field vs string constant.
    if let (ScalarExpr::Field(f), ScalarExpr::Str(s)) = (lhs, rhs) {
        if let Some(atom) = cat_atom(f, op, s) {
            return atom;
        }
    }
    if let (ScalarExpr::Str(s), ScalarExpr::Field(f)) = (lhs, rhs) {
        if let Some(atom) = cat_atom(f, op.flip(), s) {
            return atom;
        }
    }

    // Numeric: move everything to one side, `diff op 0`.
    if let Some(atom) = numeric_atom(lhs, op, rhs) {
        return atom;
    }

    // Outside the fragment (or overflow): canonical opaque token.
    let (canon_op, negated) = match op {
        CmpOp::Eq | CmpOp::Lt | CmpOp::Le => (op, false),
        CmpOp::Ne => (CmpOp::Eq, true),
        CmpOp::Ge => (CmpOp::Lt, true),
        CmpOp::Gt => (CmpOp::Le, true),
    };
    Atom::Opaque {
        token: format!("{lhs} {canon_op} {rhs}"),
        negated,
    }
}

/// The affine fragment of [`cmp_to_atom`]: `None` when either side is not
/// affine in Cur-anchored fields, when the solver cannot index a variable,
/// or when any rational op overflows — in every case the comparison simply
/// stays opaque, which is always sound.
fn numeric_atom(lhs: &ScalarExpr, op: CmpOp, rhs: &ScalarExpr) -> Option<Atom> {
    let l = affine(lhs)?;
    let r = affine(rhs)?;
    let diff = l.add(r.neg()?)?;
    let fields: Vec<((i32, usize), Rational)> = diff.terms.iter().map(|(k, v)| (*k, *v)).collect();
    match fields.len() {
        0 => {
            // Constant comparison.
            Some(if op.eval(diff.konst, Rational::ZERO) {
                Atom::True
            } else {
                Atom::False
            })
        }
        1 => {
            let ((off, col), coeff) = fields[0];
            let var = field_var(off, col)?;
            // coeff·x + konst op 0  ≡  x op' (-konst/coeff)
            let op = if coeff.is_negative() { op.flip() } else { op };
            let c = diff.konst.checked_neg().ok()?.checked_div(coeff).ok()?;
            Some(Atom::VarConst { x: var, op, c })
        }
        2 => {
            let ((off1, col1), a) = fields[0];
            let ((off2, col2), b) = fields[1];
            let x = field_var(off1, col1)?;
            let y = field_var(off2, col2)?;
            // a·x + b·y + k op 0  ≡  x op' (-b/a)·y + (-k/a)
            let op = if a.is_negative() { op.flip() } else { op };
            let scale = b.checked_neg().ok()?.checked_div(a).ok()?;
            let add = diff.konst.checked_neg().ok()?.checked_div(a).ok()?;
            Some(Atom::VarVar {
                x,
                op,
                y,
                scale,
                add,
            })
        }
        _ => None,
    }
}

fn cat_atom(f: &FieldRef, op: CmpOp, s: &str) -> Option<Atom> {
    if f.anchor != Anchor::Cur || ty_class(f.ty) != TyClass::Str {
        return None;
    }
    let var = field_var(f.offset, f.col)?;
    match op {
        CmpOp::Eq => Some(Atom::Cat {
            x: var,
            value: s.to_string(),
            negated: false,
        }),
        CmpOp::Ne => Some(Atom::Cat {
            x: var,
            value: s.to_string(),
            negated: true,
        }),
        _ => None, // lexicographic string inequalities stay opaque
    }
}

fn infer_column_type(expr: &ScalarExpr) -> ColumnType {
    match expr {
        ScalarExpr::Num { exact, .. } => {
            if exact.is_integer() {
                ColumnType::Int
            } else {
                ColumnType::Float
            }
        }
        ScalarExpr::Str(_) => ColumnType::Str,
        ScalarExpr::Date(_) => ColumnType::Date,
        ScalarExpr::Field(f) => f.ty,
        ScalarExpr::Arith { .. } | ScalarExpr::Neg(_) => ColumnType::Float,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_tvl::Truth;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    fn opts() -> CompileOptions {
        CompileOptions::default()
    }

    #[test]
    fn example1_rewrites_adjacent_vars_to_local_predicates() {
        let q = compile(
            "SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) \
             WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert_eq!(q.elements.len(), 3);
        assert!(q.purely_local(), "adjacent non-star refs must become local");
        // X has no condition; Y and Z each have one local conjunct.
        assert!(q.elements[0].conjuncts.is_empty());
        assert_eq!(q.elements[1].conjuncts.len(), 1);
        assert_eq!(q.elements[2].conjuncts.len(), 1);
        assert!(q.elements[1].conjuncts[0].local);
    }

    #[test]
    fn example4_formulas_feed_the_solver() {
        let q = compile(
            "SELECT X.date AS start_date, X.price FROM quote CLUSTER BY name SEQUENCE BY date \
             AS (X, Y, Z, T, U) \
             WHERE X.name='IBM' AND Y.price < X.price AND Z.price < Y.price \
             AND 40 < Z.price AND Z.price < 50 AND T.price > Z.price AND T.price < 52 \
             AND U.price > T.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        // θ-style checks directly on the element formulas (1-based: p2..p5
        // in the paper's numbering start at element Y here).
        let p = |i: usize| &q.elements[i].formula;
        // p3 (Z) = price < prev ∧ 40 < price < 50; implies p2 (Y) = price < prev.
        assert!(p(2).implies(p(1)), "θ32-analogue");
        // p4 (T) rises, contradicts p2 (Y) falls.
        assert!(p(3).contradicts(p(1)));
        assert_eq!(p(2).satisfiability(), Truth::True);
    }

    #[test]
    fn example2_nonlocal_reference_detected() {
        let q = compile(
            "SELECT X.name, X.date AS start_date, Z.previous.date AS end_date \
             FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z) \
             WHERE Y.price < Y.previous.price AND Z.previous.price < 0.5 * X.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(q.elements[1].purely_local(), "star self-reference is local");
        assert!(
            !q.elements[2].purely_local(),
            "Z's condition references X across a star"
        );
        assert!(q.has_star());
    }

    #[test]
    fn star_self_reference_is_cur_prev() {
        let q = compile(
            "SELECT FIRST(X).date FROM quote SEQUENCE BY date AS (*X) \
             WHERE X.price > X.previous.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        let c = &q.elements[0].conjuncts[0];
        assert!(c.local);
        assert_eq!(c.expr.to_string(), "cur.col2 > cur-1.col2");
    }

    #[test]
    fn select_anchors() {
        let q = compile(
            "SELECT X.NEXT.date, X.NEXT.price, S.previous.date, S.previous.price \
             FROM quote SEQUENCE BY date AS (X, *Y, S) WHERE Y.price < 0.98 * Y.previous.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert_eq!(q.projection.len(), 4);
        match &q.projection[0].expr {
            ScalarExpr::Field(f) => {
                assert_eq!(
                    f.anchor,
                    Anchor::Element {
                        index: 0,
                        end: SpanEnd::First
                    }
                );
                assert_eq!(f.offset, 1);
            }
            other => panic!("{other}"),
        }
        assert_eq!(q.projection[0].name, "date");
        assert_eq!(q.projection[0].ty, ColumnType::Date);
        match &q.projection[2].expr {
            ScalarExpr::Field(f) => assert_eq!(f.offset, -1),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn first_last_projection_on_star() {
        let q = compile(
            "SELECT FIRST(X).date AS sdate, LAST(X).date AS edate \
             FROM quote SEQUENCE BY date AS (*X) WHERE X.price > 0",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert_eq!(q.projection[0].name, "sdate");
        match (&q.projection[0].expr, &q.projection[1].expr) {
            (ScalarExpr::Field(a), ScalarExpr::Field(b)) => {
                assert_eq!(
                    a.anchor,
                    Anchor::Element {
                        index: 0,
                        end: SpanEnd::First
                    }
                );
                assert_eq!(
                    b.anchor,
                    Anchor::Element {
                        index: 0,
                        end: SpanEnd::Last
                    }
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_star_var_in_select_defaults_to_first() {
        // Example 8 writes `SELECT X.name` over `AS (*X, …)`; the binder
        // anchors such references at the span start.
        let q = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (*X) WHERE X.price > 0",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        match &q.projection[0].expr {
            ScalarExpr::Field(f) => assert_eq!(
                f.anchor,
                Anchor::Element {
                    index: 0,
                    end: SpanEnd::First
                }
            ),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn next_in_where_rejected() {
        let err = compile(
            "SELECT X.name FROM quote SEQUENCE BY date AS (X) WHERE X.next.price > 0",
            &quote_schema(),
            &opts(),
        )
        .unwrap_err();
        assert!(err.message.contains("next"), "{}", err.message);
    }

    #[test]
    fn unknown_var_and_column_errors() {
        let schema = quote_schema();
        assert!(compile(
            "SELECT W.name FROM quote SEQUENCE BY date AS (X) WHERE X.price > 0",
            &schema,
            &opts()
        )
        .unwrap_err()
        .message
        .contains("unknown pattern variable"));
        assert!(compile(
            "SELECT X.nope FROM quote SEQUENCE BY date AS (X) WHERE X.price > 0",
            &schema,
            &opts()
        )
        .unwrap_err()
        .message
        .contains("no such column"));
        assert!(compile(
            "SELECT X.name FROM quote CLUSTER BY ticker AS (X)",
            &schema,
            &opts()
        )
        .unwrap_err()
        .message
        .contains("no such column: ticker"));
    }

    #[test]
    fn duplicate_pattern_variable_rejected() {
        let err = compile(
            "SELECT X.name FROM quote SEQUENCE BY date AS (X, x)",
            &quote_schema(),
            &opts(),
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = compile(
            "SELECT X.name FROM quote SEQUENCE BY date AS (X) WHERE X.name > 5",
            &quote_schema(),
            &opts(),
        )
        .unwrap_err();
        assert!(err.message.contains("type mismatch"));
        let err = compile(
            "SELECT X.name FROM quote SEQUENCE BY date AS (X) WHERE X.name + 1 = 2",
            &quote_schema(),
            &opts(),
        )
        .unwrap_err();
        assert!(err.message.contains("numeric"));
    }

    #[test]
    fn categorical_predicate_becomes_cat_atom() {
        let q = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X, Y) \
             WHERE X.name = 'IBM' AND Y.name <> 'IBM'",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(q.elements[0].formula.contradicts(&q.elements[1].formula));
    }

    #[test]
    fn disjunctive_condition_becomes_dnf() {
        let q = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) \
             WHERE X.price < 10 OR X.price > 90",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert_eq!(q.elements[0].formula.disjuncts().len(), 2);
        // The band query contradicts the middle.
        let mid = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) \
             WHERE X.price BETWEEN 20 AND 80",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(q.elements[0].formula.contradicts(&mid.elements[0].formula));
    }

    #[test]
    fn between_is_inclusive() {
        let q = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) \
             WHERE X.price BETWEEN 40 AND 50",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        let f = &q.elements[0].formula;
        let exactly40 = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) WHERE X.price = 40",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(!f.contradicts(&exactly40.elements[0].formula));
    }

    #[test]
    fn ratio_predicates_work_end_to_end() {
        // Example 10 flavour: a >2% drop implies a plain drop.
        let drop = compile(
            "SELECT X.date FROM djia SEQUENCE BY date AS (X) \
             WHERE X.price < 0.98 * X.previous.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        let falling = compile(
            "SELECT X.date FROM djia SEQUENCE BY date AS (X) \
             WHERE X.price < X.previous.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(drop.elements[0]
            .formula
            .implies(&falling.elements[0].formula));
        // Without the positive-domain assumption the proof must vanish.
        let no_pos = CompileOptions {
            assume_positive_domains: false,
        };
        let drop2 = compile(
            "SELECT X.date FROM djia SEQUENCE BY date AS (X) \
             WHERE X.price < 0.98 * X.previous.price",
            &quote_schema(),
            &no_pos,
        )
        .unwrap();
        let falling2 = compile(
            "SELECT X.date FROM djia SEQUENCE BY date AS (X) \
             WHERE X.price < X.previous.price",
            &quote_schema(),
            &no_pos,
        )
        .unwrap();
        assert!(!drop2.elements[0]
            .formula
            .implies(&falling2.elements[0].formula));
    }

    #[test]
    fn constant_conjuncts_fold() {
        let q = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) WHERE 1 < 2 AND X.price > 0",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        // The constant conjunct lands on element 0 and folds to TRUE in the
        // formula (satisfiable, no effect).
        assert_eq!(q.elements[0].formula.satisfiability(), Truth::True);
        assert_eq!(q.elements[0].conjuncts.len(), 2);
    }

    #[test]
    fn division_by_constant_normalizes() {
        // price / 2 < 25  ≡  price < 50.
        let a = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) WHERE X.price / 2 < 25",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        let b = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) WHERE X.price < 50",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(a.elements[0].formula.implies(&b.elements[0].formula));
        assert!(b.elements[0].formula.implies(&a.elements[0].formula));
    }

    #[test]
    fn first_last_in_own_where_rejected() {
        let err = compile(
            "SELECT FIRST(X).date FROM quote SEQUENCE BY date AS (*X) \
             WHERE FIRST(X).price > 0",
            &quote_schema(),
            &opts(),
        )
        .unwrap_err();
        assert!(err.message.contains("own condition"), "{}", err.message);
    }

    #[test]
    fn nonlocal_star_reference_requires_first_last() {
        let err = compile(
            "SELECT S.date FROM quote SEQUENCE BY date AS (*X, S) \
             WHERE X.price > X.previous.price AND S.price > X.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap_err();
        assert!(err.message.contains("FIRST"), "{}", err.message);
        // With FIRST() it binds.
        let q = compile(
            "SELECT S.date FROM quote SEQUENCE BY date AS (*X, S) \
             WHERE X.price > X.previous.price AND S.price > FIRST(X).price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(!q.elements[1].purely_local());
    }

    #[test]
    fn deep_previous_chains_stay_local() {
        let q = compile(
            "SELECT X.date FROM quote SEQUENCE BY date AS (X) \
             WHERE X.price > X.previous.previous.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        let c = &q.elements[0].conjuncts[0];
        assert!(c.local);
        assert_eq!(c.expr.to_string(), "cur.col2 > cur-2.col2");
    }

    #[test]
    fn rewriting_blocked_by_intervening_star() {
        // (X, *Y, Z): Z references X — cannot become a fixed offset.
        let q = compile(
            "SELECT Z.date FROM quote SEQUENCE BY date AS (X, *Y, Z) \
             WHERE Y.price < Y.previous.price AND Z.price > X.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(!q.elements[2].purely_local());
        // (X, Y, Z) all plain: it can.
        let q = compile(
            "SELECT Z.date FROM quote SEQUENCE BY date AS (X, Y, Z) \
             WHERE Z.price > X.price",
            &quote_schema(),
            &opts(),
        )
        .unwrap();
        assert!(q.elements[2].purely_local());
        assert_eq!(
            q.elements[2].conjuncts[0].expr.to_string(),
            "cur.col2 > cur-2.col2"
        );
    }
}
