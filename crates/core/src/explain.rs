//! `EXPLAIN` rendering of the compile-time artifacts: predicates, θ, φ,
//! S, and the shift/next tables — the worked objects of the paper's
//! Examples 5–7 and 9, as human-readable text.

use crate::engine::{plan, EngineKind};
use crate::matrices::{PrecondMatrices, Predicates};
use crate::shift_next;
use sqlts_lang::CompiledQuery;
use sqlts_trace::OptimizerReport;
use std::fmt::Write as _;

/// Build the machine-readable optimizer report: the rendered pattern plus
/// the shift/next tables and their means.  `explain` renders from this
/// same data, and `--profile` embeds it in the
/// [`ExecutionProfile`](crate::ExecutionProfile), so one artifact carries
/// both the plan and its runtime consequences.
pub fn optimizer_report(query: &CompiledQuery) -> OptimizerReport {
    let m = query.elements.len();
    let pattern = query
        .elements
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let star = if e.star { "*" } else { " " };
            let pred = if e.conjuncts.is_empty() {
                "TRUE".to_string()
            } else {
                e.conjuncts
                    .iter()
                    .map(|c| c.display.clone())
                    .collect::<Vec<_>>()
                    .join(" AND ")
            };
            format!(
                "p{} {}{}: {}{}",
                i + 1,
                star,
                e.name,
                pred,
                if e.purely_local() {
                    ""
                } else {
                    " [has non-local conjuncts]"
                }
            )
        })
        .collect();
    let sn = plan(&query.elements, EngineKind::Ops).tables;
    OptimizerReport {
        pattern,
        shift: (1..=m).map(|j| sn.shift(j)).collect(),
        next: (1..=m).map(|j| sn.next(j)).collect(),
        mean_shift: sn.mean_shift(),
        mean_next: sn.mean_next(),
    }
}

/// Render a full optimizer report for a compiled query.
pub fn explain(query: &CompiledQuery) -> String {
    let pattern = Predicates::new(&query.elements);
    let m = pattern.len();
    let report = optimizer_report(query);
    let mut out = String::new();

    let _ = writeln!(out, "pattern ({} elements):", m);
    for line in &report.pattern {
        let _ = writeln!(out, "  {line}");
    }

    let pre = PrecondMatrices::build(pattern);
    let _ = writeln!(out, "\ntheta (positive preconditions):");
    let _ = write!(out, "{}", indent(&pre.theta.to_string()));
    let _ = writeln!(out, "\nphi (negative preconditions):");
    let _ = write!(out, "{}", indent(&pre.phi.to_string()));

    if !query.has_star() {
        let s = shift_next::s_matrix(&pre);
        if m > 1 {
            let _ = writeln!(out, "\nS (whole-pattern shift matrix):");
            let _ = write!(out, "{}", indent(&s.to_string()));
        }
    }

    let _ = writeln!(out, "\nshift: {:?}", report.shift);
    let _ = writeln!(out, "next:  {:?}", report.next);
    let _ = writeln!(
        out,
        "mean shift = {:.2}, mean next = {:.2}",
        report.mean_shift, report.mean_next
    );
    out
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("  {l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_lang::{compile, CompileOptions};
    use sqlts_relation::{ColumnType, Schema};

    #[test]
    fn explain_renders_all_sections() {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap();
        let q = compile(
            "SELECT A.date FROM quote SEQUENCE BY date AS (A, B, C, D) \
             WHERE A.price < A.previous.price \
             AND B.price < B.previous.price AND B.price > 40 AND B.price < 50 \
             AND C.price > C.previous.price AND C.price < 52 \
             AND D.price > D.previous.price",
            &schema,
            &CompileOptions::default(),
        )
        .unwrap();
        let text = explain(&q);
        assert!(text.contains("theta"));
        assert!(text.contains("phi"));
        assert!(text.contains("S (whole-pattern"));
        assert!(text.contains("shift: [1, 1, 1, 3]"));
        assert!(text.contains("next:  [0, 1, 2, 1]"));
    }

    #[test]
    fn explain_star_pattern_marks_stars() {
        let schema = Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap();
        let q = compile(
            "SELECT FIRST(X).date FROM quote SEQUENCE BY date AS (*X, Y) \
             WHERE X.price > X.previous.price AND Y.price < 30",
            &schema,
            &CompileOptions::default(),
        )
        .unwrap();
        let text = explain(&q);
        assert!(text.contains("*X"));
        assert!(!text.contains("S (whole-pattern"));
    }
}
