//! Seeded inputs and the batch reference every server result is checked
//! against.  The program under test sees only what is generated here.

use sqlts_bench::clustered_sweep_workload;
use sqlts_core::{compile, execute, CompileOptions, EngineKind, ExecOptions};
use sqlts_datagen::quote_schema;
use sqlts_relation::{Table, Value};

/// The wire spelling of [`quote_schema`].
pub const SCHEMA_SPEC: &str = "name:str,date:date,price:float";

/// The CI soak query over the quote schema: match-dense, so result growth
/// is exercised.
pub const Q_RISEFALL: &str = "SELECT X.name, Z.date FROM quote CLUSTER BY name SEQUENCE BY date \
     AS (X, *Y, Z) WHERE Y.price > Y.previous.price AND Z.price < Z.previous.price";

/// A feed: typed rows in arrival order and the same rows as headerless
/// CSV lines.
pub struct Feed {
    pub rows: Vec<Vec<Value>>,
    pub lines: Vec<String>,
}

impl Feed {
    /// `clustered_sweep_workload(symbols, rows_per_symbol, seed)` restricted
    /// to symbols `first..first + count` and re-interleaved by date, the
    /// order a live feed would arrive in.
    pub fn generate(
        symbols: usize,
        rows_per_symbol: usize,
        seed: u64,
        first: usize,
        count: usize,
    ) -> Feed {
        let table = clustered_sweep_workload(symbols, rows_per_symbol, seed);
        let mut interleaved = Table::new(quote_schema());
        for day in 0..rows_per_symbol {
            for symbol in first..first + count {
                interleaved
                    .push_row(table.row(symbol * rows_per_symbol + day).to_vec())
                    .expect("generated rows match the schema");
            }
        }
        let lines = interleaved
            .to_csv_string()
            .lines()
            .skip(1)
            .map(str::to_string)
            .collect();
        Feed {
            rows: interleaved.rows().map(<[Value]>::to_vec).collect(),
            lines,
        }
    }

    /// The payload of the FEED frame carrying `lines[start..end]`.
    pub fn frame(&self, channel: &str, start: usize, end: usize) -> String {
        let mut payload = format!("FEED {channel}");
        for line in &self.lines[start..end] {
            payload.push('\n');
            payload.push_str(line);
        }
        payload
    }
}

/// Batch `execute` of `sql` over the concatenation of `prefixes`, rendered
/// as the CSV a subscription's RESULT must equal byte for byte.
pub fn batch_csv(sql: &str, prefixes: &[&[Vec<Value>]]) -> String {
    let mut table = Table::new(quote_schema());
    for rows in prefixes {
        for row in *rows {
            table
                .push_row(row.clone())
                .expect("generated rows match the schema");
        }
    }
    let query =
        compile(sql, table.schema(), &CompileOptions::default()).expect("benchmark query compiles");
    let options = ExecOptions {
        engine: EngineKind::Ops,
        ..Default::default()
    };
    execute(&query, &table, &options)
        .expect("benchmark query executes")
        .table
        .to_csv_string()
}

/// Split a `RESULT <id> <code> rows=<n>\n<csv>` reply; `None` unless it
/// is a clean (code 0) result for `sub`.
pub fn result_body<'a>(reply: &'a str, sub: &str) -> Option<&'a str> {
    let (head, body) = reply.split_once('\n').unwrap_or((reply, ""));
    head.starts_with(&format!("RESULT {sub} 0 "))
        .then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlts_relation::parse_headerless_row;

    #[test]
    fn feed_is_seed_determined_and_date_interleaved() {
        let a = Feed::generate(4, 50, 7, 0, 4);
        let b = Feed::generate(4, 50, 7, 0, 4);
        let c = Feed::generate(4, 50, 8, 0, 4);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, c.lines);
        assert_eq!(a.lines.len(), 200);
        assert!(a.lines[0].starts_with("S0000,") && a.lines[3].starts_with("S0003,"));
        assert!(a.lines[4].starts_with("S0000,"));
        // Lines parse back to exactly the typed rows.
        let schema = quote_schema();
        for (line, row) in a.lines.iter().zip(&a.rows) {
            assert_eq!(&parse_headerless_row(&schema, line, 1).unwrap(), row);
        }
    }

    #[test]
    fn disjoint_symbol_halves_reassemble_to_the_same_batch_result() {
        let whole = Feed::generate(4, 200, 11, 0, 4);
        let lo = Feed::generate(4, 200, 11, 0, 2);
        let hi = Feed::generate(4, 200, 11, 2, 2);
        let expected = batch_csv(Q_RISEFALL, &[&whole.rows]);
        assert!(expected.lines().count() > 10, "query must be match-dense");
        assert_eq!(batch_csv(Q_RISEFALL, &[&lo.rows, &hi.rows]), expected);
        assert_eq!(batch_csv(Q_RISEFALL, &[&hi.rows, &lo.rows]), expected);
    }

    #[test]
    fn result_body_accepts_only_clean_results_for_the_sub() {
        assert_eq!(
            result_body("RESULT s1 0 rows=1\nh\nr\n", "s1"),
            Some("h\nr\n")
        );
        assert_eq!(
            result_body("RESULT s1 4 rows=1 trip=steps\nh\n", "s1"),
            None
        );
        assert_eq!(result_body("RESULT s10 0 rows=1\nh\n", "s1"), None);
        assert_eq!(result_body("ERR 2 unknown subscription", "s1"), None);
    }
}
