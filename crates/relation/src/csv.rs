//! CSV import/export for [`Table`]: the row codec.
//!
//! A deliberately small dialect: comma-separated, one header line, optional
//! double-quoting with `""` escapes.  This is all the workload files and
//! examples need; it is not a general-purpose CSV library.  Its rules, all
//! of them load-bearing for byte-identity somewhere:
//!
//! * trailing `\r`s are trimmed from a line before it is split;
//! * a `"` opens quoting only as the first character of a field — inside
//!   a field it is an ordinary character;
//! * inside quotes `""` is a literal `"` and `,` is data; the closing `"`
//!   may be followed by more (unquoted) text up to the next `,`;
//! * an unterminated quote is not an error — the field runs to the end of
//!   the line;
//! * a cell is trimmed before it is typed, and an empty or `null` (any
//!   case) cell is NULL;
//! * a line with fewer fields than required is an arity error that counts
//!   every field, and it is reported before any cell is parsed; extra
//!   trailing fields are ignored.
//!
//! **One splitter.**  [`fields`] is the only tokenizer: a byte scanner that
//! yields each field as a slice of the line, owning a copy only when a
//! quoted field's `""` must be unescaped.  [`parse_headerless_row`] (every
//! network `FEED` row) and [`CsvRecords`] (`--csv`, `--follow`,
//! `Table::from_csv*`) both type its fields in one pass through
//! [`parse_row_into`], so an unquoted row costs one allocation for the row
//! plus one per string cell, and nothing per numeric or date cell (a
//! `YYYY-MM-DD` cell is decoded in place).  `Table::from_csv*` types each
//! record straight into the table's cell buffer, so a loaded row costs
//! its string cells alone.  [`Table::to_csv`] renders every cell through
//! one reused buffer, so its allocations do not grow with the row count.
//! `tests/alloc_budget.rs` holds all three to those counts.

use crate::date::Date;
use crate::table::{Column, Schema, Table, TableError};
use crate::value::{ColumnType, Value};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Read, Write};

/// Errors raised by CSV import.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A header column is missing from the file.
    MissingColumn(String),
    /// A cell failed to parse as its column's type.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// Column name.
        column: String,
        /// Offending cell text.
        value: String,
        /// The type it should have parsed as.
        expected: ColumnType,
    },
    /// A data line has the wrong number of fields.
    Arity {
        /// 1-based line number in the file.
        line: usize,
        /// Header field count.
        expected: usize,
        /// Fields found on the line.
        got: usize,
    },
    /// A line is not valid UTF-8.
    Utf8 {
        /// 1-based line number in the file.
        line: usize,
    },
    /// Schema/row validation failure.
    Table(TableError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::MissingColumn(c) => write!(f, "CSV header is missing column {c:?}"),
            CsvError::Parse {
                line,
                column,
                value,
                expected,
            } => write!(
                f,
                "line {line}: cannot parse {value:?} as {expected} for column {column:?}"
            ),
            CsvError::Arity {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected} fields, found {got}"),
            CsvError::Utf8 { line } => write!(f, "line {line}: input is not valid UTF-8"),
            CsvError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> CsvError {
        CsvError::Io(e)
    }
}

impl From<TableError> for CsvError {
    fn from(e: TableError) -> CsvError {
        CsvError::Table(e)
    }
}

/// The fields of `line` (trailing `\r`s trimmed) under the module's
/// dialect, left to right.
fn fields(line: &str) -> Fields<'_> {
    Fields {
        rest: Some(line.trim_end_matches('\r')),
    }
}

/// Iterator behind [`fields`]: `rest` is the unsplit remainder, `None`
/// once the last field has been yielded.
struct Fields<'a> {
    rest: Option<&'a str>,
}

impl<'a> Fields<'a> {
    /// Yield everything before the first `,` of `text` and keep what
    /// follows it (or nothing, when there is no `,`).
    fn until_comma(&mut self, text: &'a str) -> &'a str {
        match text.find(',') {
            Some(comma) => {
                self.rest = Some(&text[comma + 1..]);
                &text[..comma]
            }
            None => {
                self.rest = None;
                text
            }
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Cow<'a, str>;

    fn next(&mut self) -> Option<Cow<'a, str>> {
        let line = self.rest?;
        let Some(quoted) = line.strip_prefix('"') else {
            return Some(Cow::Borrowed(self.until_comma(line)));
        };
        // `unescaped` collects the content only once a `""` forces a copy;
        // until then the content is the borrowed `quoted[..close]`.
        let mut unescaped: Option<String> = None;
        let mut from = 0;
        loop {
            let Some(at) = quoted[from..].find('"').map(|i| from + i) else {
                // Unterminated: the field is the rest of the line.
                self.rest = None;
                return Some(match unescaped {
                    None => Cow::Borrowed(quoted),
                    Some(mut s) => {
                        s.push_str(&quoted[from..]);
                        Cow::Owned(s)
                    }
                });
            };
            if quoted.as_bytes().get(at + 1) == Some(&b'"') {
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&quoted[from..=at]);
                from = at + 2;
                continue;
            }
            // The closing quote; any text after it, up to the next `,`, is
            // part of the field as written.
            let tail = self.until_comma(&quoted[at + 1..]);
            return Some(match unescaped {
                None if tail.is_empty() => Cow::Borrowed(&quoted[..at]),
                unescaped => {
                    let mut s = unescaped.unwrap_or_default();
                    s.push_str(&quoted[from..at]);
                    s.push_str(tail);
                    Cow::Owned(s)
                }
            });
        }
    }
}

/// Type the fields of `line` into `row` (one NULL cell per column) in
/// one pass: file field `i` becomes cell `target(i)` (`None`: ignored).
/// The line must have at least `needed` fields, and every target lies
/// below `needed`, so the scan stops there.  Errors match a
/// split-everything, then-check-arity, then-parse-in-column-order reader
/// exactly: a short line is an arity error counting all of its fields,
/// whatever its cells hold; otherwise the lowest-numbered column that
/// fails to parse is reported.  On an error `row` holds whatever was
/// typed before it.
fn parse_row_into(
    columns: &[Column],
    line: &str,
    lineno: usize,
    needed: usize,
    target: impl Fn(usize) -> Option<usize>,
    row: &mut [Value],
) -> Result<(), CsvError> {
    let mut failed: Option<(usize, CsvError)> = None;
    let mut got = 0;
    for field in fields(line).take(needed) {
        if let Some(col) = target(got) {
            if failed.as_ref().map_or(true, |(first, _)| col < *first) {
                let column = &columns[col];
                match parse_cell(&field, column.ty, lineno, &column.name) {
                    Ok(value) => row[col] = value,
                    Err(e) => failed = Some((col, e)),
                }
            }
        }
        got += 1;
    }
    if got < needed {
        return Err(CsvError::Arity {
            line: lineno,
            expected: needed,
            got,
        });
    }
    match failed {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Write one field, quoted when it holds `,`, `"` or `\n` (a `\r` alone
/// is written bare).
fn write_field(w: &mut impl Write, field: &str) -> io::Result<()> {
    if !field.contains([',', '"', '\n']) {
        return w.write_all(field.as_bytes());
    }
    w.write_all(b"\"")?;
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            w.write_all(b"\"\"")?;
        }
        w.write_all(part.as_bytes())?;
    }
    w.write_all(b"\"")
}

/// A cell that is exactly `YYYY-MM-DD`, decoded in place; `None` for any
/// other spelling (and for an invalid month or day), which then goes
/// through `Date::from_str` — so the accepted values and the errors are
/// that parser's.
fn iso_date(raw: &str) -> Option<Date> {
    let b: &[u8; 10] = raw.as_bytes().try_into().ok()?;
    if b[4] != b'-' || b[7] != b'-' {
        return None;
    }
    let number = |digits: &[u8]| {
        digits.iter().try_fold(0u32, |n, &c| {
            c.is_ascii_digit().then(|| n * 10 + u32::from(c - b'0'))
        })
    };
    let year = number(&b[..4])?;
    Date::from_ymd_checked(year as i32, number(&b[5..7])?, number(&b[8..])?)
}

fn parse_cell(raw: &str, ty: ColumnType, line: usize, column: &str) -> Result<Value, CsvError> {
    let raw = raw.trim();
    if raw.is_empty() || raw.eq_ignore_ascii_case("null") {
        return Ok(Value::Null);
    }
    let err = || CsvError::Parse {
        line,
        column: column.to_string(),
        value: raw.to_string(),
        expected: ty,
    };
    match ty {
        ColumnType::Int => raw.parse::<i64>().map(Value::Int).map_err(|_| err()),
        ColumnType::Float => {
            let v: f64 = raw.parse().map_err(|_| err())?;
            if v.is_nan() {
                Err(err())
            } else {
                Ok(Value::Float(v))
            }
        }
        ColumnType::Str => Ok(Value::Str(raw.to_string())),
        ColumnType::Date => iso_date(raw)
            .or_else(|| raw.parse().ok())
            .map(Value::Date)
            .ok_or_else(err),
    }
}

/// Read one `\n`-terminated line into `buf`, terminator dropped; `false`
/// at end of input.  Reading bytes (instead of `BufRead::lines`) lets a
/// non-UTF-8 byte be reported with the line it sits on rather than as an
/// opaque I/O error.
fn read_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    Ok(true)
}

/// `buf` as text, or the UTF-8 error for line `line`.
fn utf8(buf: &[u8], line: usize) -> Result<&str, CsvError> {
    std::str::from_utf8(buf).map_err(|_| CsvError::Utf8 { line })
}

/// Parse one headerless CSV line into a typed row, fields in schema
/// column order (identity mapping).  Network feeds use this: the sender
/// declares the schema once when opening a channel and then ships bare
/// rows, so there is no header line to map through.  Shares the dialect
/// (quoting, `null`/empty cells, trailing `\r`) and error reporting of
/// [`CsvRecords`]; `line` is the 1-based number used in errors.  Extra
/// trailing fields are ignored, matching the header-driven reader.
pub fn parse_headerless_row(
    schema: &Schema,
    text: &str,
    line: usize,
) -> Result<Vec<Value>, CsvError> {
    let mut row = vec![Value::Null; schema.arity()];
    parse_row_into(schema.columns(), text, line, schema.arity(), Some, &mut row).map(|()| row)
}

/// An incremental CSV record source: parses the header eagerly, then
/// yields one typed row per data line.  The streaming (`--follow`)
/// counterpart of [`Table::from_csv`], sharing its dialect, header
/// mapping, and per-line error reporting — a bad record surfaces as an
/// `Err` item and iteration can continue past it, which is what a
/// quarantine policy needs.
pub struct CsvRecords<R: Read> {
    reader: BufReader<R>,
    schema: Schema,
    /// For each header field, the schema column it fills (`None`:
    /// ignored).  Its length is the header's field count, which every
    /// record must reach.
    targets: Vec<Option<usize>>,
    lineno: usize,
    /// The current line's bytes, reused from line to line; records are
    /// parsed straight out of it.
    buf: Vec<u8>,
    /// Set when the header was absent (empty input): nothing to yield.
    done: bool,
}

impl<R: Read> CsvRecords<R> {
    /// Open a record source, reading and validating the header line.
    ///
    /// Columns are matched by (case-insensitive) header name, so the file's
    /// column order need not match the schema's; extra file columns are
    /// ignored.
    pub fn new(schema: Schema, reader: R) -> Result<CsvRecords<R>, CsvError> {
        let mut reader = BufReader::new(reader);
        let mut buf = Vec::new();
        let mut targets = Vec::new();
        let done = !read_line(&mut reader, &mut buf)?;
        if !done {
            let header: Vec<Cow<'_, str>> = fields(utf8(&buf, 1)?).collect();
            targets = vec![None; header.len()];
            for (col, column) in schema.columns().iter().enumerate() {
                let idx = header
                    .iter()
                    .position(|h| h.trim().eq_ignore_ascii_case(&column.name))
                    .ok_or_else(|| CsvError::MissingColumn(column.name.clone()))?;
                // Column names are unique case-insensitively, so no two
                // columns claim one header field.
                debug_assert!(targets[idx].is_none());
                targets[idx] = Some(col);
            }
        }
        Ok(CsvRecords {
            reader,
            schema,
            targets,
            lineno: 1,
            buf,
            done,
        })
    }

    /// The schema records are typed against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// 1-based line number of the most recently read line.
    pub fn line(&self) -> usize {
        self.lineno
    }

    /// Type `line`, the current record, into `row` (one NULL cell per
    /// schema column) under the header's column mapping.
    fn parse_into(&self, line: &str, row: &mut [Value]) -> Result<(), CsvError> {
        let lineno = self.lineno;
        #[cfg(feature = "failpoints")]
        if matches!(
            crate::failpoints::hit("csv::record", lineno as u64),
            Some(crate::failpoints::Injected::InjectError)
        ) {
            return Err(CsvError::Io(io::Error::other(format!(
                "failpoint 'csv::record' injected error at line {lineno}"
            ))));
        }
        parse_row_into(
            self.schema.columns(),
            line,
            lineno,
            self.targets.len(),
            |i| self.targets[i],
            row,
        )
    }

    /// Read on to the next non-blank line and hand it to `parse`; `None`
    /// at end of input.
    fn next_with<T>(
        &mut self,
        parse: impl FnOnce(&Self, &str) -> Result<T, CsvError>,
    ) -> Option<Result<T, CsvError>> {
        if self.done {
            return None;
        }
        loop {
            self.lineno += 1;
            match read_line(&mut self.reader, &mut self.buf) {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => return Some(Err(e.into())),
            }
            let line = match utf8(&self.buf, self.lineno) {
                Ok(line) => line.trim_end_matches('\r'),
                Err(e) => return Some(Err(e)),
            };
            if !line.is_empty() {
                return Some(parse(self, line));
            }
        }
    }
}

impl<R: Read> Iterator for CsvRecords<R> {
    type Item = Result<Vec<Value>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_with(|records, line| {
            let mut row = vec![Value::Null; records.schema.arity()];
            records.parse_into(line, &mut row).map(|()| row)
        })
    }
}

impl Table {
    /// Read a CSV with a header line into a table with the given schema.
    ///
    /// Columns are matched by (case-insensitive) header name, so the file's
    /// column order need not match the schema's; extra file columns are
    /// ignored.
    pub fn from_csv<R: Read>(schema: Schema, reader: R) -> Result<Table, CsvError> {
        Table::read_csv(schema, reader, 0)
    }

    /// Parse a CSV from a string.  The table is sized once, for one row
    /// per line after the header.
    pub fn from_csv_str(schema: Schema, data: &str) -> Result<Table, CsvError> {
        let newlines = data.bytes().filter(|&b| b == b'\n').count();
        let lines = newlines + usize::from(!data.ends_with('\n'));
        Table::read_csv(schema, data.as_bytes(), lines.saturating_sub(1))
    }

    /// [`Table::from_csv`] with room for `rows` rows reserved.  Each
    /// record is typed straight into the table's cell buffer; a record's
    /// cells are of their column's type by construction, so there is
    /// nothing left to validate.
    fn read_csv<R: Read>(schema: Schema, reader: R, rows: usize) -> Result<Table, CsvError> {
        let mut records = CsvRecords::new(schema, reader)?;
        let mut table = Table::with_capacity(records.schema().clone(), rows);
        while let Some(parsed) =
            records.next_with(|records, line| records.parse_into(line, table.push_nulls()))
        {
            parsed?;
        }
        Ok(table)
    }

    /// Read a CSV file from disk.
    pub fn from_csv_path(schema: Schema, path: &std::path::Path) -> Result<Table, CsvError> {
        Table::from_csv(schema, std::fs::File::open(path)?)
    }

    /// Write the table as CSV (header + rows).
    pub fn to_csv<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut w = io::BufWriter::new(writer);
        self.write_csv(&mut w)?;
        w.flush()
    }

    /// Render the table as a CSV string.
    pub fn to_csv_string(&self) -> String {
        let mut out = Vec::new();
        self.write_csv(&mut out)
            .expect("writing to Vec cannot fail");
        String::from_utf8(out).expect("CSV output is UTF-8")
    }

    /// The CSV text of the table into `w`: a NULL is an empty field, any
    /// other non-string value is its `Display` text, rendered into one
    /// buffer reused for every cell.
    fn write_csv(&self, w: &mut impl Write) -> io::Result<()> {
        for (i, column) in self.schema().columns().iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write_field(w, &column.name)?;
        }
        w.write_all(b"\n")?;
        let mut cell = String::new();
        for row in self.rows() {
            for (i, value) in row.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                match value {
                    Value::Null => {}
                    Value::Str(s) => write_field(w, s)?,
                    other => {
                        cell.clear();
                        let _ = write!(cell, "{other}");
                        write_field(w, &cell)?;
                    }
                }
            }
            w.write_all(b"\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote_schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("date", ColumnType::Date),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    const SAMPLE: &str = "\
name,date,price
INTC,1999-01-25,60
INTC,1999-01-26,63.5
IBM,1999-01-25,81
";

    #[test]
    fn round_trip() {
        let t = Table::from_csv_str(quote_schema(), SAMPLE).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.cell(0, 0), &Value::from("INTC"));
        assert_eq!(t.cell(1, 2), &Value::from(63.5));
        assert_eq!(t.cell(2, 1), &Value::Date(Date::from_ymd(1999, 1, 25)));
        let rendered = t.to_csv_string();
        let t2 = Table::from_csv_str(quote_schema(), &rendered).unwrap();
        assert_eq!(t.len(), t2.len());
        for (a, b) in t.rows().zip(t2.rows()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn header_order_is_flexible_and_extras_ignored() {
        let data = "price,extra,name,date\n42.5,zzz,IBM,1999-01-25\n";
        let t = Table::from_csv_str(quote_schema(), data).unwrap();
        assert_eq!(t.cell(0, 0), &Value::from("IBM"));
        assert_eq!(t.cell(0, 2), &Value::from(42.5));
    }

    #[test]
    fn missing_column_is_reported() {
        let data = "name,date\nIBM,1999-01-25\n";
        assert!(matches!(
            Table::from_csv_str(quote_schema(), data),
            Err(CsvError::MissingColumn(c)) if c == "price"
        ));
    }

    #[test]
    fn parse_errors_carry_location() {
        let data = "name,date,price\nIBM,1999-01-25,not-a-number\n";
        match Table::from_csv_str(quote_schema(), data) {
            Err(CsvError::Parse { line, column, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(column, "price");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn empty_cells_become_null() {
        let data = "name,date,price\nIBM,1999-01-25,\n";
        let t = Table::from_csv_str(quote_schema(), data).unwrap();
        assert!(t.cell(0, 2).is_null());
    }

    #[test]
    fn quoted_fields() {
        let schema = Schema::new([("a", ColumnType::Str), ("b", ColumnType::Int)]).unwrap();
        let data = "a,b\n\"hello, \"\"world\"\"\",7\n";
        let t = Table::from_csv_str(schema, data).unwrap();
        assert_eq!(t.cell(0, 0), &Value::from("hello, \"world\""));
        let rendered = t.to_csv_string();
        assert!(rendered.contains("\"hello, \"\"world\"\"\""));
    }

    #[test]
    fn empty_input_yields_empty_table() {
        let t = Table::from_csv_str(quote_schema(), "").unwrap();
        assert!(t.is_empty());
        let t2 = Table::from_csv_str(quote_schema(), "name,date,price\n").unwrap();
        assert!(t2.is_empty());
    }

    #[test]
    fn crlf_and_blank_lines_tolerated() {
        let data = "name,date,price\r\nIBM,1999-01-25,81\r\n\r\n";
        let t = Table::from_csv_str(quote_schema(), data).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_mismatch_detected() {
        let data = "name,date,price\nIBM,1999-01-25\n";
        assert!(matches!(
            Table::from_csv_str(quote_schema(), data),
            Err(CsvError::Arity { line: 2, .. })
        ));
    }

    #[test]
    fn truncated_final_row_is_reported_with_its_line() {
        // A file cut off mid-record (no trailing newline, missing fields).
        let data = "name,date,price\nIBM,1999-01-25,81\nIBM,1999-01-26";
        match Table::from_csv_str(quote_schema(), data) {
            Err(CsvError::Arity {
                line,
                expected,
                got,
            }) => {
                assert_eq!(line, 3);
                assert_eq!(expected, 3);
                assert_eq!(got, 2);
            }
            other => panic!("expected arity error, got {other:?}"),
        }
    }

    #[test]
    fn bad_date_is_reported_with_line_and_column() {
        let data = "name,date,price\nIBM,1999-01-25,81\nIBM,1999-13-88,82\n";
        match Table::from_csv_str(quote_schema(), data) {
            Err(CsvError::Parse {
                line,
                column,
                value,
                expected,
            }) => {
                assert_eq!(line, 3);
                assert_eq!(column, "date");
                assert_eq!(value, "1999-13-88");
                assert_eq!(expected, ColumnType::Date);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn incremental_records_match_batch_and_survive_bad_lines() {
        // Good, bad (unparsable price), good: the iterator reports the bad
        // line as an Err item and keeps going — the contract quarantine
        // policies rely on.
        let data = "name,date,price\nIBM,1999-01-25,81\nIBM,1999-01-26,oops\nIBM,1999-01-27,84\n";
        let mut records = CsvRecords::new(quote_schema(), data.as_bytes()).unwrap();
        let first = records.next().unwrap().unwrap();
        assert_eq!(first[2], Value::from(81.0));
        assert_eq!(records.line(), 2);
        match records.next().unwrap() {
            Err(CsvError::Parse { line: 3, .. }) => {}
            other => panic!("expected parse error on line 3, got {other:?}"),
        }
        let third = records.next().unwrap().unwrap();
        assert_eq!(third[2], Value::from(84.0));
        assert!(records.next().is_none());
        assert!(records.next().is_none());

        // Empty input: header never arrives, no records.
        let mut empty = CsvRecords::new(quote_schema(), "".as_bytes()).unwrap();
        assert!(empty.next().is_none());
    }

    #[test]
    fn headerless_rows_parse_in_schema_order() {
        let row = parse_headerless_row(&quote_schema(), "IBM,1999-01-25,81\r", 7).unwrap();
        assert_eq!(row[0], Value::from("IBM"));
        assert_eq!(row[1], Value::Date(Date::from_ymd(1999, 1, 25)));
        assert_eq!(row[2], Value::from(81.0));
        // Quoting, nulls and extra trailing fields follow the same dialect.
        let row = parse_headerless_row(&quote_schema(), "\"A,B\",1999-01-26,,extra", 1).unwrap();
        assert_eq!(row[0], Value::from("A,B"));
        assert!(row[2].is_null());
        match parse_headerless_row(&quote_schema(), "IBM,1999-01-25", 9) {
            Err(CsvError::Arity {
                line: 9, got: 2, ..
            }) => {}
            other => panic!("expected arity error, got {other:?}"),
        }
        match parse_headerless_row(&quote_schema(), "IBM,not-a-date,81", 3) {
            Err(CsvError::Parse {
                line: 3, column, ..
            }) => assert_eq!(column, "date"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_bytes_are_reported_with_their_line() {
        let mut data = b"name,date,price\nIBM,1999-01-25,81\n".to_vec();
        data.extend_from_slice(b"IB\xffM,1999-01-26,82\n");
        match Table::from_csv(quote_schema(), &data[..]) {
            Err(CsvError::Utf8 { line }) => assert_eq!(line, 3),
            other => panic!("expected UTF-8 error, got {other:?}"),
        }
        // And in the header too.
        let err = Table::from_csv(quote_schema(), &b"na\xffme,date,price\n"[..]).unwrap_err();
        assert!(matches!(err, CsvError::Utf8 { line: 1 }), "{err:?}");
        assert!(err.to_string().contains("not valid UTF-8"));
    }

    #[test]
    fn only_unescaping_or_a_tail_after_the_quote_copies_a_field() {
        let got: Vec<Cow<'_, str>> = fields("a,\"b,c\",\"d\"\"e\",\"f\"g,\"open\r\r").collect();
        assert_eq!(got, ["a", "b,c", "d\"e", "fg", "open"]);
        let owned: Vec<bool> = got.iter().map(|f| matches!(f, Cow::Owned(_))).collect();
        assert_eq!(owned, [false, false, true, true, false]);
    }

    // The reference codec: the split-then-type reader and the join-based
    // writer this module replaced, kept verbatim as the oracle the
    // differential tests below hold the one-pass codec to.

    /// Split one CSV line into fields, honouring double quotes.
    fn split_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if in_quotes => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '"' if cur.is_empty() => in_quotes = true,
                ',' if !in_quotes => {
                    fields.push(std::mem::take(&mut cur));
                }
                c => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    fn reference_parse_cell(
        raw: &str,
        ty: ColumnType,
        line: usize,
        column: &str,
    ) -> Result<Value, CsvError> {
        let raw = raw.trim();
        if raw.is_empty() || raw.eq_ignore_ascii_case("null") {
            return Ok(Value::Null);
        }
        let err = || CsvError::Parse {
            line,
            column: column.to_string(),
            value: raw.to_string(),
            expected: ty,
        };
        match ty {
            ColumnType::Int => raw.parse::<i64>().map(Value::Int).map_err(|_| err()),
            ColumnType::Float => {
                let v: f64 = raw.parse().map_err(|_| err())?;
                if v.is_nan() {
                    Err(err())
                } else {
                    Ok(Value::Float(v))
                }
            }
            ColumnType::Str => Ok(Value::Str(raw.to_string())),
            ColumnType::Date => raw.parse().map(Value::Date).map_err(|_| err()),
        }
    }

    /// One record: schema column `j` is field `mapping[j]`, and the line
    /// needs `header_arity` fields (the schema's arity when headerless).
    fn reference_record(
        schema: &Schema,
        mapping: &[usize],
        header_arity: usize,
        text: &str,
        line: usize,
    ) -> Result<Vec<Value>, CsvError> {
        let fields = split_line(text.trim_end_matches('\r'));
        if fields.len() < header_arity {
            return Err(CsvError::Arity {
                line,
                expected: header_arity,
                got: fields.len(),
            });
        }
        mapping
            .iter()
            .zip(schema.columns())
            .map(|(&fi, col)| reference_parse_cell(&fields[fi], col.ty, line, &col.name))
            .collect()
    }

    fn quote_field(field: &str) -> String {
        if field.contains(',') || field.contains('"') || field.contains('\n') {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    fn reference_to_csv(table: &Table) -> String {
        let mut w = String::new();
        let header: Vec<String> = table
            .schema()
            .columns()
            .iter()
            .map(|c| quote_field(&c.name))
            .collect();
        writeln!(w, "{}", header.join(",")).unwrap();
        for row in table.rows() {
            let fields: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    other => quote_field(&other.to_string()),
                })
                .collect();
            writeln!(w, "{}", fields.join(",")).unwrap();
        }
        w
    }

    /// xorshift64*: deterministic, so a failing case reproduces from the
    /// test alone.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Cells that exercise the dialect rather than a type.
    const DIALECT: &[&str] = &[
        "",
        " ",
        "null",
        "NULL",
        " Null ",
        "\"A,B\"",
        "\"he said \"\"hi\"\"\"",
        "\"unterminated",
        "\"open, with a comma",
        "\"\"\"",
        "mid\"quote",
        "\"\"",
        "\"\"\"\"",
        "\"ab\"cd",
        "\"ab\"c\"d",
        "\"\"x",
        "\"a\"\"b\"tail",
        "é",
        "日本",
        "\"ä,ö\"",
        "\"1999-01-02\"",
        "\" 7 \"",
    ];

    const STRS: &[&str] = &["IBM", "S0000", " padded ", "a b", "E,E", "x\"y", "ß"];

    const NUMBERS: &[&str] = &[
        "12",
        "-7",
        "+3",
        " 42 ",
        "9223372036854775807",
        "9223372036854775808",
        "1.5",
        "5.0",
        "-0.25",
        "1e3",
        ".5",
        "NaN",
        "nan",
        "inf",
        "-inf",
        "1.2.3",
        "0x10",
        "abc",
    ];

    const DATES: &[&str] = &[
        "1999-01-25",
        "1990-01-01",
        "1999-02-29",
        "2000-02-29",
        "1900-02-29",
        "1999-04-31",
        "+1999-01-01",
        "1999-1-01",
        " 1999-01-01 ",
        "1999-13-01",
        "1999-00-10",
        "1999-01-00",
        "1999-01-32",
        "0000-01-01",
        "10000-01-01",
        "99-01-01",
        "19a9-01-01",
        "1999/01/01",
        "-001-01-01",
        "1999-01-01x",
        "1999-01-1 ",
        "１９９９-01-01",
    ];

    fn cell_for(g: &mut Gen, ty: ColumnType) -> &'static str {
        if g.below(4) == 0 {
            return g.pick(DIALECT);
        }
        match ty {
            ColumnType::Str => g.pick(STRS),
            ColumnType::Int | ColumnType::Float => g.pick(NUMBERS),
            ColumnType::Date => g.pick(DATES),
        }
    }

    /// A line for `schema`: usually one cell per column, sometimes two
    /// short or extra, with CR endings mixed in.
    fn gen_line(g: &mut Gen, schema: &Schema) -> String {
        let width = (schema.arity() + g.below(5)).saturating_sub(2);
        let cells: Vec<&str> = (0..width)
            .map(|i| match schema.columns().get(i) {
                Some(col) => cell_for(g, col.ty),
                None => g.pick(DIALECT),
            })
            .collect();
        let mut line = cells.join(",");
        line.push_str(g.pick(&["", "", "", "\r", "\r\r"]));
        line
    }

    fn schemas() -> Vec<Schema> {
        [
            vec![
                ("name", ColumnType::Str),
                ("date", ColumnType::Date),
                ("price", ColumnType::Float),
            ],
            vec![("n", ColumnType::Int), ("s", ColumnType::Str)],
            vec![
                ("d", ColumnType::Date),
                ("i", ColumnType::Int),
                ("f", ColumnType::Float),
                ("s", ColumnType::Str),
                ("t", ColumnType::Str),
            ],
        ]
        .into_iter()
        .map(|cols| Schema::new(cols).unwrap())
        .collect()
    }

    fn outcome(r: &Result<Vec<Value>, CsvError>) -> String {
        match r {
            Ok(row) => format!("ok {row:?}"),
            Err(e) => format!("err {e}"),
        }
    }

    #[test]
    fn scanner_splits_like_the_reference() {
        let mut g = Gen(0x5eed_0001);
        for schema in schemas() {
            for _ in 0..4_000 {
                let line = gen_line(&mut g, &schema);
                let got: Vec<String> = fields(&line).map(Cow::into_owned).collect();
                assert_eq!(got, split_line(line.trim_end_matches('\r')), "{line:?}");
            }
        }
    }

    #[test]
    fn headerless_rows_type_like_the_reference() {
        let mut g = Gen(0x5eed_0002);
        let (mut ok, mut failed) = (0, 0);
        for schema in schemas() {
            let identity: Vec<usize> = (0..schema.arity()).collect();
            for n in 1..=6_000 {
                let line = gen_line(&mut g, &schema);
                let got = parse_headerless_row(&schema, &line, n);
                let want = reference_record(&schema, &identity, schema.arity(), &line, n);
                assert_eq!(outcome(&got), outcome(&want), "{line:?}");
                if got.is_ok() {
                    ok += 1;
                } else {
                    failed += 1;
                }
            }
        }
        // Both outcomes are exercised in bulk, not by luck.
        assert!(ok > 1_000 && failed > 1_000, "{ok} ok, {failed} failed");
    }

    #[test]
    fn records_under_a_permuted_header_type_like_the_reference() {
        let mut g = Gen(0x5eed_0003);
        for schema in schemas() {
            // The file's column order is the schema's reversed, with an
            // ignored column in front and one at the end.
            let mut header: Vec<String> = schema
                .columns()
                .iter()
                .rev()
                .map(|c| c.name.to_ascii_uppercase())
                .collect();
            header.insert(0, "skip".into());
            header.push(" extra ".into());
            let mapping: Vec<usize> = (0..schema.arity()).map(|j| schema.arity() - j).collect();
            let file_schema = Schema::new(header.iter().enumerate().map(|(i, h)| {
                (
                    h.trim().to_string(),
                    match i {
                        0 => ColumnType::Str,
                        i if i > schema.arity() => ColumnType::Str,
                        i => schema.columns()[schema.arity() - i].ty,
                    },
                )
            }))
            .unwrap();
            let mut text = format!("{}\r\n", header.join(","));
            let mut expected = Vec::new();
            for n in 2..2_002 {
                let line = if g.below(20) == 0 {
                    g.pick(&["", "\r", "\r\r"]).to_string()
                } else {
                    gen_line(&mut g, &file_schema)
                };
                if !line.trim_end_matches('\r').is_empty() {
                    expected.push((
                        n,
                        outcome(&reference_record(&schema, &mapping, header.len(), &line, n)),
                    ));
                }
                text.push_str(&line);
                text.push('\n');
            }
            let mut records = CsvRecords::new(schema.clone(), text.as_bytes()).unwrap();
            for (n, want) in expected {
                let got = records.next().expect("one item per non-blank line");
                assert_eq!((records.line(), outcome(&got)), (n, want));
            }
            assert!(records.next().is_none());
        }
    }

    #[test]
    fn writer_matches_the_reference() {
        let mut g = Gen(0x5eed_0004);
        let schema = Schema::new([
            ("na,me", ColumnType::Str),
            ("say \"when\"", ColumnType::Date),
            ("price", ColumnType::Float),
            ("qty", ColumnType::Int),
        ])
        .unwrap();
        let strs = [
            "IBM",
            "",
            "a,b",
            "say \"hi\"",
            "two\nlines",
            "cr\r",
            "cr\r\nlf",
            "\"",
            ",",
            "é,ü",
        ];
        let floats = [
            0.1,
            84.0,
            -3.5,
            1e15,
            1e20,
            123_456_789.125,
            f64::MIN_POSITIVE,
            -0.0,
        ];
        for rows in [0, 1, 7, 300] {
            let mut table = Table::new(schema.clone());
            for _ in 0..rows {
                let null = |g: &mut Gen| g.below(6) == 0;
                let row = vec![
                    if null(&mut g) {
                        Value::Null
                    } else {
                        Value::from(g.pick(&strs))
                    },
                    if null(&mut g) {
                        Value::Null
                    } else {
                        Value::Date(Date::from_days(g.below(40_000) as i32 - 20_000))
                    },
                    if null(&mut g) {
                        Value::Null
                    } else {
                        Value::Float(floats[g.below(floats.len())])
                    },
                    if null(&mut g) {
                        Value::Null
                    } else {
                        Value::Int(g.below(2_000) as i64 - 1_000)
                    },
                ];
                table.push_row(row).unwrap();
            }
            let want = reference_to_csv(&table);
            assert_eq!(table.to_csv_string(), want);
            let mut streamed = Vec::new();
            table.to_csv(&mut streamed).unwrap();
            assert_eq!(String::from_utf8(streamed).unwrap(), want);
        }
    }
}
