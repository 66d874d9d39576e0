//! Order statistics and the two verdict rules the benchmark applies to
//! its own samples: which percentile a sample count supports, and whether
//! an open-loop rate step was sustained.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest of p50/p90/p95/p99/p99.9 that leaves at least ten samples
/// beyond it — the choosing-metrics rule for which tail a run may state.
/// `None` below 20 samples, where not even the median has ten beyond it.
pub fn supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand): whole numbers, so
    // n = 10 000 supports p99.9 exactly.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500)]
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// acceptance driver's.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..n-1, delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Latency limit an open-loop step must meet at p95, from due time.
pub const LADDER_LIMIT_MS: f64 = 100.0;
/// A step whose last fifth runs this much slower than its first fifth is
/// building a backlog even if p95 has not crossed the limit yet.
pub const LADDER_GROWTH_MS: f64 = 25.0;

/// Whether one open-loop rate step was sustained.  `from_due_ms` holds
/// every frame's latency measured from its due time, in send order;
/// `non_ok` counts replies that were not `OK`.
pub fn ladder_step_passes(from_due_ms: &[f64], non_ok: u64) -> bool {
    if non_ok > 0 || from_due_ms.is_empty() {
        return false;
    }
    if percentile(from_due_ms, 95.0) > LADDER_LIMIT_MS {
        return false;
    }
    let fifth = (from_due_ms.len() / 5).max(1);
    let head = median(&from_due_ms[..fifth]);
    let tail = median(&from_due_ms[from_due_ms.len() - fifth..]);
    tail - head <= LADDER_GROWTH_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ladder_verdict_covers_limit_growth_and_errors() {
        let flat = vec![2.0; 100];
        assert!(ladder_step_passes(&flat, 0));
        assert!(
            !ladder_step_passes(&flat, 1),
            "a non-OK reply fails the step"
        );
        assert!(!ladder_step_passes(&[], 0));
        let slow = vec![150.0; 100];
        assert!(!ladder_step_passes(&slow, 0), "p95 over the limit");
        // Under the limit at p95 but climbing steadily: a backlog.
        let growing: Vec<f64> = (0..100).map(|i| 5.0 + f64::from(i) * 0.6).collect();
        assert!(percentile(&growing, 95.0) < LADDER_LIMIT_MS);
        assert!(!ladder_step_passes(&growing, 0));
        // A few slow frames that do not cluster at the end are fine.
        let mut spiky = flat.clone();
        spiky[10] = 90.0;
        spiky[50] = 90.0;
        assert!(ladder_step_passes(&spiky, 0));
    }
}
