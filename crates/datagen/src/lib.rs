#![warn(missing_docs)]

//! Seeded workload generators for the SQL-TS/OPS evaluation.
//!
//! The paper's §7 experiments ran over 25 years of recorded DJIA daily
//! closes.  We do not ship that proprietary series; instead (per the
//! substitution policy in DESIGN.md §4) [`djia_series`] simulates it with
//! a geometric Brownian motion calibrated to the 1975–2000 era — the OPS
//! speedup depends only on the statistical shape of daily relative moves,
//! which the calibration preserves.
//!
//! All generators are deterministic given a seed, so every experiment in
//! EXPERIMENTS.md is exactly reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlts_relation::{ColumnType, Date, Schema, Table, Value};

/// The schema every generated price table uses:
/// `(name VARCHAR, date DATE, price FLOAT)` — the paper's `quote` table.
pub fn quote_schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("date", ColumnType::Date),
        ("price", ColumnType::Float),
    ])
    .expect("static schema is valid")
}

/// Build a quote table from a price series, one row per trading day
/// (weekends skipped), starting at `start`.
pub fn prices_to_table(name: &str, start: Date, prices: &[f64]) -> Table {
    let mut table = Table::with_capacity(quote_schema(), prices.len());
    let mut day = start;
    for &p in prices {
        while day.is_weekend() {
            day = day.plus_days(1);
        }
        table
            .push_row(vec![
                Value::from(name),
                Value::Date(day),
                Value::from((p * 100.0).round() / 100.0),
            ])
            .expect("generated rows match the schema");
        day = day.plus_days(1);
    }
    table
}

/// Parameters of the geometric-Brownian-motion simulator.
#[derive(Clone, Copy, Debug)]
pub struct GbmParams {
    /// Initial level.
    pub start: f64,
    /// Annualized drift (e.g. `0.098` ≈ the DJIA 1975–2000).
    pub drift: f64,
    /// Annualized volatility (e.g. `0.15`).
    pub volatility: f64,
    /// Trading days per year.
    pub days_per_year: f64,
}

impl Default for GbmParams {
    fn default() -> GbmParams {
        GbmParams {
            start: 632.0, // DJIA close, early January 1975
            drift: 0.098,
            volatility: 0.15,
            days_per_year: 252.0,
        }
    }
}

/// A geometric Brownian motion price path of `n` daily closes.
pub fn gbm_series(params: &GbmParams, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dt = 1.0 / params.days_per_year;
    let drift_term = (params.drift - 0.5 * params.volatility * params.volatility) * dt;
    let vol_term = params.volatility * dt.sqrt();
    let mut out = Vec::with_capacity(n);
    let mut level = params.start;
    for _ in 0..n {
        out.push(level);
        let z = standard_normal(&mut rng);
        level *= (drift_term + vol_term * z).exp();
    }
    out
}

/// Parameters of the regime-switching simulator used for the DJIA
/// substitute: a two-state (calm / turbulent) Markov chain modulating the
/// GBM volatility, giving the fat tails and volatility clustering of real
/// index returns — the features that produce the clustered ±2% moves the
/// relaxed-double-bottom query looks for.
#[derive(Clone, Copy, Debug)]
pub struct RegimeParams {
    /// Base GBM parameters (volatility field = calm-state volatility).
    pub base: GbmParams,
    /// Turbulent-state annualized volatility.
    pub turbulent_volatility: f64,
    /// Daily probability of switching calm → turbulent.
    pub p_calm_to_turbulent: f64,
    /// Daily probability of switching turbulent → calm.
    pub p_turbulent_to_calm: f64,
}

impl Default for RegimeParams {
    fn default() -> RegimeParams {
        RegimeParams {
            base: GbmParams {
                volatility: 0.10,
                ..GbmParams::default()
            },
            turbulent_volatility: 0.35,
            p_calm_to_turbulent: 0.02,
            p_turbulent_to_calm: 0.10,
        }
    }
}

/// A regime-switching GBM price path of `n` daily closes.
pub fn regime_series(params: &RegimeParams, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dt = 1.0 / params.base.days_per_year;
    let mut out = Vec::with_capacity(n);
    let mut level = params.base.start;
    let mut turbulent = false;
    for _ in 0..n {
        out.push(level);
        let vol = if turbulent {
            params.turbulent_volatility
        } else {
            params.base.volatility
        };
        let drift_term = (params.base.drift - 0.5 * vol * vol) * dt;
        let z = standard_normal(&mut rng);
        level *= (drift_term + vol * dt.sqrt() * z).exp();
        let flip = if turbulent {
            params.p_turbulent_to_calm
        } else {
            params.p_calm_to_turbulent
        };
        if rng.gen_bool(flip) {
            turbulent = !turbulent;
        }
    }
    out
}

/// The paper's §7 substrate: ~25 years (6300 trading days) of simulated
/// DJIA closes, starting 1975-01-02, seeded for reproducibility.
///
/// Uses the regime-switching model (see [`RegimeParams`]) so daily ±2%
/// moves occur at a realistic rate (~5%) *and* cluster, as on the
/// recorded index.
pub fn djia_series(seed: u64) -> Table {
    let prices = regime_series(&RegimeParams::default(), 6300, seed);
    prices_to_table("DJIA", Date::from_ymd(1975, 1, 2), &prices)
}

/// A uniform-step integer random walk within `[lo, hi]`, for property
/// tests and microbenchmarks (integer values keep f64 arithmetic exact).
pub fn integer_walk(n: usize, lo: i64, hi: i64, max_step: i64, seed: u64) -> Vec<f64> {
    assert!(lo < hi && max_step > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut level = (lo + hi) / 2;
    for _ in 0..n {
        out.push(level as f64);
        level += rng.gen_range(-max_step..=max_step);
        level = level.clamp(lo, hi);
    }
    out
}

/// A series of i.i.d. symbols drawn uniformly from `0..alphabet`, as
/// prices — the text-search workload for the KMP comparison (E6).
pub fn symbol_series(n: usize, alphabet: u8, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| f64::from(rng.gen_range(0..alphabet)))
        .collect()
}

/// Embed copies of `motif` into a base series at roughly every
/// `period` positions (the series length is unchanged; the motif
/// overwrites a window).  Used to control match density in sweeps.
pub fn embed_motif(base: &mut [f64], motif: &[f64], period: usize, seed: u64) {
    assert!(period >= motif.len().max(1));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pos = rng.gen_range(0..period);
    while pos + motif.len() <= base.len() {
        base[pos..pos + motif.len()].copy_from_slice(motif);
        pos += period + rng.gen_range(0..period / 2 + 1);
    }
}

/// A sawtooth series: long gentle declines (each step flat or −1)
/// followed by a sharp recovery, with run lengths jittered around
/// `period`.  Produces long runs of tuples satisfying
/// `price <= previous.price` — the workload on which backtracking
/// evaluation of overlapping star patterns blows up polynomially
/// (experiment E5's high-speedup regime).
pub fn sawtooth(n: usize, period: usize, seed: u64) -> Vec<f64> {
    assert!(period >= 4);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut level = 1000.0f64;
    while out.len() < n {
        let run = rng.gen_range(period / 2..=period + period / 2);
        let mut dropped = 0.0;
        for _ in 0..run {
            if out.len() >= n {
                break;
            }
            out.push(level);
            // Mostly −1, sometimes flat.
            let step = if rng.gen_bool(0.25) { 0.0 } else { 1.0 };
            level -= step;
            dropped += step;
        }
        // Sharp recovery past the previous peak.
        level += dropped + 5.0;
    }
    out
}

/// Box–Muller standard normal deviate.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Fraction of daily moves exceeding ±2% — the statistic that drives the
/// relaxed-double-bottom workload's behaviour; exposed so experiments can
/// report the calibration.
pub fn big_move_fraction(prices: &[f64], threshold: f64) -> f64 {
    if prices.len() < 2 {
        return 0.0;
    }
    let big = prices
        .windows(2)
        .filter(|w| (w[1] / w[0] - 1.0).abs() > threshold)
        .count();
    big as f64 / (prices.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbm_is_deterministic_per_seed() {
        let p = GbmParams::default();
        let a = gbm_series(&p, 100, 42);
        let b = gbm_series(&p, 100, 42);
        let c = gbm_series(&p, 100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[0], 632.0);
        assert!(a.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gbm_drifts_upward_over_25_years() {
        // With ~9.8%/yr drift over 25 years the expected terminal level is
        // ≈ 632·e^2.45 ≈ 7300; any healthy seed lands well above start.
        let p = GbmParams::default();
        let series = gbm_series(&p, 6300, 2001);
        let last = *series.last().unwrap();
        assert!(last > 1500.0, "terminal level {last} suspiciously low");
        assert!(last < 80_000.0, "terminal level {last} suspiciously high");
    }

    #[test]
    fn djia_table_shape() {
        let t = djia_series(2001);
        assert_eq!(t.len(), 6300);
        assert_eq!(t.schema().arity(), 3);
        // Dates ascend and skip weekends.
        let mut prev: Option<Date> = None;
        for row in t.rows().take(50) {
            let d = row[1].as_date().unwrap();
            assert!(!d.is_weekend());
            if let Some(p) = prev {
                assert!(d > p);
            }
            prev = Some(d);
        }
    }

    #[test]
    fn integer_walk_stays_in_bounds() {
        let w = integer_walk(1000, 0, 20, 3, 7);
        assert_eq!(w.len(), 1000);
        assert!(w.iter().all(|&x| (0.0..=20.0).contains(&x)));
        assert!(w.iter().all(|&x| x.fract() == 0.0));
    }

    #[test]
    fn symbol_series_alphabet() {
        let s = symbol_series(500, 3, 1);
        assert!(s.iter().all(|&x| x == 0.0 || x == 1.0 || x == 2.0));
        // All three symbols occur in a long enough series.
        for sym in [0.0, 1.0, 2.0] {
            assert!(s.contains(&sym));
        }
    }

    #[test]
    fn embed_motif_plants_copies() {
        let mut base = vec![0.0; 300];
        let motif = [9.0, 8.0, 9.5];
        embed_motif(&mut base, &motif, 40, 11);
        let hits = base.windows(3).filter(|w| w == &motif).count();
        assert!(hits >= 3, "expected several embedded motifs, got {hits}");
    }

    #[test]
    fn sawtooth_has_long_nonincreasing_runs() {
        let s = sawtooth(2000, 24, 3);
        assert_eq!(s.len(), 2000);
        assert!(s.iter().all(|&x| x > 0.0));
        // Longest run of price <= previous.price spans a whole decline.
        let mut longest = 0usize;
        let mut cur = 0usize;
        for w in s.windows(2) {
            if w[1] <= w[0] {
                cur += 1;
                longest = longest.max(cur);
            } else {
                cur = 0;
            }
        }
        assert!(longest >= 12, "longest non-increasing run {longest}");
    }

    #[test]
    fn big_move_fraction_sane() {
        assert_eq!(big_move_fraction(&[], 0.02), 0.0);
        assert_eq!(big_move_fraction(&[100.0, 100.5], 0.02), 0.0);
        assert_eq!(big_move_fraction(&[100.0, 110.0], 0.02), 1.0);
        let frac = big_move_fraction(&gbm_series(&GbmParams::default(), 6300, 2001), 0.02);
        // At 15% annual vol, daily sigma ≈ 0.94%, so ±2% moves are the
        // ~3.4% two-sided tail — accept a generous band.
        assert!(frac > 0.005 && frac < 0.15, "big-move fraction {frac}");
    }

    #[test]
    fn prices_to_table_rounds_to_cents() {
        let t = prices_to_table("X", Date::from_ymd(2000, 1, 3), &[1.23456]);
        assert_eq!(t.cell(0, 2), &Value::from(1.23));
    }
}
