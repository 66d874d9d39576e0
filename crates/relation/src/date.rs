//! [`Date`]: a calendar date stored as days since 1970-01-01.
//!
//! `SEQUENCE BY date` sorts millions of rows, so the representation is a
//! single `i32`; conversion to and from year/month/day uses the standard
//! civil-calendar algorithms and is exact over the full proleptic
//! Gregorian range we care about.

use std::fmt;
use std::str::FromStr;

/// A calendar date, stored as the number of days since 1970-01-01
/// (negative for earlier dates).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Date {
    days: i32,
}

/// Error parsing a [`Date`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDateError {
    input: String,
}

impl fmt::Display for ParseDateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid date literal: {:?} (expected YYYY-MM-DD)",
            self.input
        )
    }
}

impl std::error::Error for ParseDateError {}

impl Date {
    /// Construct from the raw day number (days since 1970-01-01).
    pub const fn from_days(days: i32) -> Date {
        Date { days }
    }

    /// The raw day number.
    pub const fn days(self) -> i32 {
        self.days
    }

    /// Construct from a civil year/month/day.
    ///
    /// # Panics
    /// Panics if the month or day are out of range for the given month.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Date {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day {day} out of range for {year}-{month:02}"
        );
        // Howard Hinnant's days_from_civil.
        let y = i64::from(year) - i64::from(month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(month);
        let d = i64::from(day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Date {
            days: (era * 146_097 + doe - 719_468) as i32,
        }
    }

    /// [`Date::from_ymd`] for a triple that may be out of range: `None`
    /// where `from_ymd` would panic.  The one month/day validation every
    /// date parser shares.
    pub(crate) fn from_ymd_checked(year: i32, month: u32, day: u32) -> Option<Date> {
        ((1..=12).contains(&month) && day >= 1 && day <= days_in_month(year, month))
            .then(|| Date::from_ymd(year, month, day))
    }

    /// The civil `(year, month, day)` triple.
    pub fn ymd(self) -> (i32, u32, u32) {
        // Howard Hinnant's civil_from_days.
        let z = i64::from(self.days) + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn plus_days(self, n: i32) -> Date {
        Date {
            days: self.days + n,
        }
    }

    /// ISO weekday, Monday = 1 … Sunday = 7.
    pub fn weekday(self) -> u32 {
        // 1970-01-01 was a Thursday (4).
        (((i64::from(self.days) + 3).rem_euclid(7)) + 1) as u32
    }

    /// `true` for Saturday/Sunday — used by the trading-calendar generator.
    pub fn is_weekend(self) -> bool {
        self.weekday() >= 6
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month validated by caller"),
    }
}

impl FromStr for Date {
    type Err = ParseDateError;

    fn from_str(s: &str) -> Result<Date, ParseDateError> {
        let err = || ParseDateError {
            input: s.to_string(),
        };
        let mut parts = s.trim().splitn(3, '-');
        let year: i32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        Date::from_ymd_checked(year, month, day).ok_or_else(err)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        match u32::try_from(y) {
            // `YYYY-MM-DD` digit by digit: every date a workload holds,
            // without the padded-integer formatting machinery.
            Ok(y) if y <= 9999 => {
                let digit = |n: u32| b'0' + (n % 10) as u8;
                let text = [
                    digit(y / 1000),
                    digit(y / 100),
                    digit(y / 10),
                    digit(y),
                    b'-',
                    digit(m / 10),
                    digit(m),
                    b'-',
                    digit(d / 10),
                    digit(d),
                ];
                f.write_str(std::str::from_utf8(&text).expect("ASCII digits"))
            }
            _ => write!(f, "{y:04}-{m:02}-{d:02}"),
        }
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch() {
        let d = Date::from_ymd(1970, 1, 1);
        assert_eq!(d.days(), 0);
        assert_eq!(d.ymd(), (1970, 1, 1));
        assert_eq!(d.weekday(), 4); // Thursday
    }

    #[test]
    fn known_dates() {
        assert_eq!(Date::from_ymd(1999, 1, 25).to_string(), "1999-01-25");
        assert_eq!(Date::from_ymd(2000, 2, 29).ymd(), (2000, 2, 29));
        assert_eq!(Date::from_ymd(1975, 1, 2).weekday(), 4); // Thursday
        assert!(Date::from_ymd(2026, 7, 4).is_weekend()); // a Saturday
    }

    #[test]
    fn ordering_follows_calendar() {
        let a = Date::from_ymd(1999, 1, 25);
        let b = Date::from_ymd(1999, 1, 26);
        let c = Date::from_ymd(2000, 1, 1);
        assert!(a < b && b < c);
        assert_eq!(a.plus_days(1), b);
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["1999-01-25", "1970-01-01", "2000-02-29", "1875-12-31"] {
            let d: Date = s.parse().unwrap();
            assert_eq!(d.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "1999",
            "1999-13-01",
            "1999-02-30",
            "01/25/1999",
            "1999-1",
        ] {
            assert!(bad.parse::<Date>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    #[should_panic]
    fn from_ymd_rejects_bad_day() {
        Date::from_ymd(1999, 2, 29);
    }

    #[test]
    fn leap_years() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(1996));
        assert!(!is_leap(1999));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn days_round_trip(days in -200_000i32..200_000) {
                let d = Date::from_days(days);
                let (y, m, dd) = d.ymd();
                prop_assert_eq!(Date::from_ymd(y, m, dd), d);
            }

            #[test]
            fn plus_one_day_is_monotone(days in -200_000i32..200_000) {
                let d = Date::from_days(days);
                prop_assert!(d.plus_days(1) > d);
                let w = d.weekday();
                let w2 = d.plus_days(1).weekday();
                prop_assert_eq!(w % 7 + 1, w2);
            }
        }
    }
}
