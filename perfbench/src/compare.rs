//! `loadgen compare <a.json> <b.json>`: is report `b` no worse than
//! report `a`, metric by metric and workload by workload, by the bounds
//! the benchmark fixed?  Used for the two-run-set repeatability check and
//! by every later change that has to show it regressed nothing.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// Run-to-run spread exceeds the bound, so the medians cannot settle
    /// it (and `b` does not beat `a` on every single run).
    Unresolved,
    /// `b` is worse than `a` by more than the bound, or a count differs.
    Breach,
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative = better), the wider of the two spreads, and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    // Quartiles of fewer than four runs are extrapolations, not a spread.
    let wider = if a.len().min(b.len()) >= 4 {
        spread(a).max(spread(b))
    } else {
        0.0
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_always_better = b.iter().all(|x| a.iter().all(|y| beats(*x, *y)));
    let verdict = if wider > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    };
    (worse, wider, verdict)
}

/// Every run's value of one metric on one workload.
fn values(report: &Json, workload: &str, section: &str, metric: &str) -> Vec<(u64, f64)> {
    report
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|run| {
            let seed = run.get("seed")?.as_f64()? as u64;
            let value = run
                .path(&["workloads", workload, section, metric, "value"])?
                .as_f64()?;
            Some((seed, value))
        })
        .collect()
}

/// Compare two reports; returns the rendered table and whether any
/// metric breached.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let (mut breaches, mut unresolved) = (0, 0);
    out.push_str(&format!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median a", "median b", "worse %", "spread %", "bound %"
    ));
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let va: Vec<f64> = values(a, workload, "end_to_end", def.name)
                .into_iter()
                .map(|v| v.1)
                .collect();
            let vb: Vec<f64> = values(b, workload, "end_to_end", def.name)
                .into_iter()
                .map(|v| v.1)
                .collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let (worse, wider, verdict) = judge(&va, &vb, def.better, bound);
            match verdict {
                Verdict::Ok => {}
                Verdict::Unresolved => unresolved += 1,
                Verdict::Breach => breaches += 1,
            }
            out.push_str(&format!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>9.2} {:>8.2} {:>7.0}  {:?}\n",
                workload,
                def.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                wider * 100.0,
                bound * 100.0,
                verdict
            ));
        }
        // Counts must match exactly wherever both reports ran the seed.
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let va = values(a, workload, "per_layer", def.name);
            for (seed, y) in values(b, workload, "per_layer", def.name) {
                if let Some((_, x)) = va.iter().find(|(s, x)| *s == seed && *x != y) {
                    breaches += 1;
                    out.push_str(&format!(
                        "{workload:<14} {}: seed {seed}: {x} != {y}  Breach (exact count)\n",
                        def.name
                    ));
                }
            }
        }
    }
    out.push_str(&format!("{breaches} breach(es), {unresolved} unresolved\n"));
    (out, breaches > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let (worse, _, verdict) = judge(&a, &[105.0, 106.0, 104.0, 105.0], Better::Lower, 0.10);
        assert!((worse - 0.05).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Ok);
        assert_eq!(
            judge(&a, &[115.0, 116.0, 114.0, 115.0], Better::Lower, 0.10).2,
            Verdict::Breach
        );
        // The same numbers read the other way for a higher-is-better metric.
        assert_eq!(
            judge(&a, &[115.0, 116.0, 114.0, 115.0], Better::Higher, 0.10).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[85.0, 86.0, 84.0, 85.0], Better::Higher, 0.10).2,
            Verdict::Breach
        );
    }

    #[test]
    fn judge_reports_unresolved_when_spread_exceeds_the_bound() {
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[90.0, 110.0, 130.0, 150.0], Better::Lower, 0.10).2,
            Verdict::Unresolved
        );
        // ...unless every run of b beats every run of a.
        assert_eq!(
            judge(&noisy, &[10.0, 40.0, 60.0, 70.0], Better::Lower, 0.10).2,
            Verdict::Ok
        );
        // Fewer than four runs a side have no spread to speak of.
        assert_eq!(
            judge(&[100.0], &[104.0], Better::Lower, 0.10).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(&noisy[..3], &[90.0, 110.0, 130.0], Better::Lower, 0.10).2,
            Verdict::Ok
        );
    }

    fn report(seed: u64, rows_per_s: f64, tests: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([(
            "runs",
            Json::Arr(vec![Json::obj([
                ("seed", Json::Num(seed as f64)),
                (
                    "workloads",
                    Json::obj([(
                        "batch_suite",
                        Json::obj([
                            (
                                "end_to_end",
                                Json::obj([("rows_per_s", metric(rows_per_s))]),
                            ),
                            (
                                "per_layer",
                                Json::obj([("batch.predicate_tests", metric(tests))]),
                            ),
                        ]),
                    )]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_flags_slowdowns_and_count_drift_but_not_other_seeds() {
        let base = report(1, 1000.0, 500.0);
        assert!(
            !compare(&base, &report(1, 950.0, 500.0)).1,
            "5% slower is inside the bound"
        );
        let (table, breached) = compare(&base, &report(1, 700.0, 500.0));
        assert!(breached && table.contains("Breach"), "{table}");
        assert!(compare(&base, &report(1, 1000.0, 501.0)).1, "a count moved");
        assert!(
            !compare(&base, &report(2, 1000.0, 777.0)).1,
            "other seed, other data"
        );
    }
}
