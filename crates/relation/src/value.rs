//! [`Value`] — the dynamic cell type — and [`ColumnType`].

use crate::date::Date;
use std::cmp::Ordering;
use std::fmt;

/// The declared type of a table column.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (prices, index levels).
    Float,
    /// UTF-8 string (symbols, names).
    Str,
    /// Calendar date.
    Date,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "VARCHAR",
            ColumnType::Date => "DATE",
        })
    }
}

/// A single cell value.
///
/// Numeric comparisons treat `Int` and `Float` as one numeric domain
/// (`Value::Int(10)` equals `Value::Float(10.0)`), matching SQL semantics.
/// `Null` compares less than everything, so sorting is total.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// An integer.
    Int(i64),
    /// A float. Must not be NaN (the constructors in this crate never
    /// produce one; CSV import rejects them).
    Float(f64),
    /// A string.
    Str(String),
    /// A date.
    Date(Date),
}

impl Value {
    /// The column type this value inhabits, or `None` for NULL.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Float(_) => Some(ColumnType::Float),
            Value::Str(_) => Some(ColumnType::Str),
            Value::Date(_) => Some(ColumnType::Date),
        }
    }

    /// Numeric view (ints widen to float), or `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Date view.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// `true` iff the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// `true` iff this value can be stored in a column of type `ty`
    /// (NULL fits everywhere; ints fit float columns).
    #[allow(clippy::match_like_matches_macro)] // table form reads better
    pub fn fits(&self, ty: ColumnType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), ColumnType::Int | ColumnType::Float) => true,
            (Value::Float(_), ColumnType::Float) => true,
            (Value::Str(_), ColumnType::Str) => true,
            (Value::Date(_), ColumnType::Date) => true,
            _ => false,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Date(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .expect("NaN values are rejected at construction")
}

/// Every renderer (CSV, `RESULT`, checkpoint rows) writes cells through
/// this.  The common cells take a direct path: an integral float below
/// 1e15 is its integer plus `.0` (the text `{x:.1}` gives, without the
/// exact fixed-precision float formatter), a date is written digit by
/// digit.  The formatter's width and fill are ignored, as they always
/// were.  `tests::render_is_byte_identical_to_the_format_reference` holds
/// the text to the `format!`-based rendering it replaced.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write_int(f, *i),
            Value::Float(x) => {
                // Integral floats keep a ".0" so the type stays visible.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    if *x == 0.0 && x.is_sign_negative() {
                        write!(f, "{x:.1}")
                    } else {
                        // Exact: |x| < 1e15 < 2^53.
                        write_int(f, *x as i64)?;
                        f.write_str(".0")
                    }
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => fmt::Display::fmt(d, f),
        }
    }
}

/// `n` in decimal, as `{n}` writes it.
fn write_int(f: &mut fmt::Formatter<'_>, n: i64) -> fmt::Result {
    let mut text = [0u8; 20];
    let mut at = text.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        text[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        text[at] = b'-';
    }
    f.write_str(std::str::from_utf8(&text[at..]).expect("ASCII digits"))
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        assert!(!v.is_nan(), "NaN cannot be stored in a Value");
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Value {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(10), Value::Float(10.0));
        assert!(Value::Int(10) < Value::Float(10.5));
        assert!(Value::Float(9.5) < Value::Int(10));
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(1), Value::Null, Value::Int(-5)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn fits_matrix() {
        assert!(Value::Int(1).fits(ColumnType::Float));
        assert!(Value::Int(1).fits(ColumnType::Int));
        assert!(!Value::Float(1.5).fits(ColumnType::Int));
        assert!(Value::Null.fits(ColumnType::Str));
        assert!(!Value::Str("x".into()).fits(ColumnType::Date));
        assert!(Value::Date(Date::from_days(0)).fits(ColumnType::Date));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("IBM".into()).as_str(), Some("IBM"));
        assert_eq!(Value::Null.as_f64(), None);
        let d = Date::from_ymd(1999, 1, 25);
        assert_eq!(Value::Date(d).as_date(), Some(d));
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = Value::from(f64::NAN);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(60).to_string(), "60");
        assert_eq!(Value::Float(63.5).to_string(), "63.5");
        assert_eq!(Value::Float(84.0).to_string(), "84.0");
        assert_eq!(Value::Str("INTC".into()).to_string(), "INTC");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::Str("IBM".into()) < Value::Str("INTC".into()));
    }

    /// The `format!`-based rendering the direct writer replaced: the
    /// oracle every rendered cell is held to.
    fn reference_display(value: &Value) -> String {
        match value {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => format!("{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    format!("{x:.1}")
                } else {
                    format!("{x}")
                }
            }
            Value::Str(s) => s.clone(),
            Value::Date(d) => {
                let (y, m, d) = d.ymd();
                format!("{y:04}-{m:02}-{d:02}")
            }
        }
    }

    /// xorshift64*: deterministic, so a failing case reproduces from the
    /// test alone.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The floats and dates at the edges of the direct paths, plus the
    /// extremes of every other variant.
    fn edge_values() -> Vec<Value> {
        let mut out = vec![
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
        ];
        let below_1e15 = f64::from_bits(1e15f64.to_bits() - 1);
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            -84.0,
            0.5,
            -0.5,
            1e15,
            -1e15,
            below_1e15,
            -below_1e15,
            f64::from_bits(1e15f64.to_bits() + 1),
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            9_007_199_254_740_992.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            out.push(Value::Float(x));
        }
        for (y, m, d) in [
            (-1, 12, 31),
            (-1, 1, 1),
            (0, 1, 1),
            (0, 12, 31),
            (1, 1, 1),
            (999, 12, 31),
            (1970, 1, 1),
            (9999, 12, 31),
            (10000, 1, 1),
            (-10000, 6, 15),
        ] {
            out.push(Value::Date(Date::from_ymd(y, m, d)));
        }
        out
    }

    /// One generated value: mostly floats (integral or not, any
    /// magnitude, any bit pattern but NaN), then ints and dates over a
    /// span of years far wider than 0..=9999.
    fn random_value(g: &mut Gen) -> Value {
        match g.below(8) {
            0 => Value::Int(g.next() as i64 >> g.below(64)),
            1 => Value::Date(Date::from_days(g.below(8_000_000) as i32 - 4_000_000)),
            2 => {
                // Integral, either side of 1e15 and of 2^53.
                let x = (g.next() as i64 >> (g.below(20) + 10)) as f64;
                Value::Float(x)
            }
            3 => Value::Float((g.below(2_000_000) as f64 - 1e6) / 4.0),
            4 => {
                let x = f64::from_bits(g.next());
                Value::Float(if x.is_nan() { 0.1 } else { x })
            }
            5 => Value::Float(g.next() as i64 as f64 * 10f64.powi(g.below(40) as i32 - 20)),
            6 => Value::Float(f64::from_bits(g.below(1 << 52))),
            _ => Value::Float(g.below(2_000) as f64 - 1_000.0),
        }
    }

    fn assert_renders_like_the_reference(cases: usize) {
        let mut g = Gen(0x5eed_0048);
        let values = edge_values()
            .into_iter()
            .chain((0..cases).map(|_| random_value(&mut g)));
        for value in values {
            let want = reference_display(&value);
            assert_eq!(value.to_string(), want, "{value:?}");
            assert_eq!(format!("{value:>40}"), want, "{value:?} ignores the width");
        }
    }

    #[test]
    fn render_is_byte_identical_to_the_format_reference() {
        assert_renders_like_the_reference(20_000);
    }

    #[test]
    #[ignore = "soak: run with --ignored (CI's soak job does)"]
    fn render_is_byte_identical_to_the_format_reference_soak() {
        assert_renders_like_the_reference(4_000_000);
    }
}
