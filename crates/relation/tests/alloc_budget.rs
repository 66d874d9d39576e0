//! Allocation budgets for the row codec.
//!
//! `parse_headerless_row` runs on every row of every network `FEED`,
//! `CsvRecords` on every line of `--csv`, `--follow` and
//! `Table::from_csv*`, and `Table::to_csv` on every `RESULT`.  This
//! binary installs a counting global allocator (its own test binary: a
//! `#[global_allocator]` is process-wide) and pins what each costs:
//!
//! * an unquoted `str,date,float` row: exactly 2 allocation calls — the
//!   row and the string cell.  The split-then-type parser this replaced
//!   made 7 for the same row (a `Vec<String>` of fields grown one `char`
//!   at a time, then the typed row and a second copy of the name);
//! * a steady-state `CsvRecords` line: the same 2, with nothing for the
//!   line itself (was 13: the line was copied twice and the schema's
//!   column list cloned per record);
//! * `to_csv` of N rows: a constant plus the output buffer's doubling,
//!   never O(N) — 15 calls for 1 000 rows, where the join-based writer
//!   made 9 123;
//! * `Table::from_csv_str` of N rows: one call per string cell plus a
//!   constant.  Records are typed straight into the table's one cell
//!   buffer, sized once from the line count, so a row costs nothing of
//!   its own (it used to cost its `Vec` and the table's doubling);
//! * a `Table::with_capacity` table filled by `push_row`: no call at all
//!   for its cells.
//!
//! Counts are per thread and deterministic, so the test cannot flake; if
//! a change moves a pin on purpose, re-pin it and say why in the commit.

use sqlts_relation::{parse_headerless_row, ColumnType, CsvRecords, Date, Schema, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts `alloc`/`realloc` calls made by the current thread.  Per-thread,
/// because the test harness runs tests (and its own bookkeeping) on other
/// threads of the same process.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator is also called while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which does not allocate (a `const`
// initialised `Cell<u64>` needs no lazy initialisation or destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn quote_schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("date", ColumnType::Date),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

#[test]
fn an_unquoted_row_costs_the_row_and_its_string_cell() {
    let schema = quote_schema();
    let (calls, row) = allocations(|| parse_headerless_row(&schema, "S0000,1990-01-01,5.0", 1));
    assert_eq!(calls, 2, "allocation calls for one unquoted row");
    assert_eq!(
        row.unwrap(),
        [
            Value::from("S0000"),
            Value::Date(Date::from_ymd(1990, 1, 1)),
            Value::from(5.0),
        ]
    );
    // A NULL cell, a CRLF ending and ignored extra fields add nothing.
    let (calls, _) = allocations(|| parse_headerless_row(&schema, "S0000,,5.0,x,y\r", 1));
    assert_eq!(calls, 2);
    // Numbers only: the row alone.
    let numeric = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Float)]).unwrap();
    let (calls, _) = allocations(|| parse_headerless_row(&numeric, "1,2.5", 1));
    assert_eq!(calls, 1);
    // A quoted field is borrowed too; only unescaping a `""` copies.
    let (calls, _) = allocations(|| parse_headerless_row(&schema, "\"E,E\",1990-01-01,5", 1));
    assert_eq!(calls, 2);
    let (calls, row) =
        allocations(|| parse_headerless_row(&schema, "\"say \"\"hi\"\"\",1990-01-01,5", 1));
    assert_eq!(row.unwrap()[0], Value::from("say \"hi\""));
    assert!(
        calls <= 5,
        "{calls} allocation calls for an unescaped field"
    );
}

#[test]
fn a_steady_state_record_costs_the_same_as_a_headerless_row() {
    const LINES: usize = 1_000;
    let mut csv = String::from("price,name,date\n");
    for i in 0..LINES {
        csv.push_str(&format!(
            "{}.5,S{:04},1990-01-{:02}\n",
            i,
            i % 8,
            i % 28 + 1
        ));
    }
    let mut records = CsvRecords::new(quote_schema(), csv.as_bytes()).unwrap();
    // Warm up: the line buffer reaches its size.
    for _ in 0..10 {
        records.next().unwrap().unwrap();
    }
    let (calls, rows) = allocations(|| {
        let mut rows = 0;
        for _ in 10..LINES {
            let row = records.next().unwrap().unwrap();
            assert!(matches!(row[0], Value::Str(_)));
            rows += 1;
        }
        rows
    });
    assert_eq!(calls, 2 * rows, "allocation calls over {rows} records");
}

#[test]
fn rendering_allocates_a_constant_plus_output_growth() {
    let table = |rows: usize| {
        let mut t = Table::new(quote_schema());
        for i in 0..rows {
            let name = if i % 5 == 0 { "E,E" } else { "S0001" };
            let price = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64 / 4.0)
            };
            t.push_row(vec![
                Value::from(name),
                Value::Date(Date::from_days(i as i32)),
                price,
            ])
            .unwrap();
        }
        t
    };
    for rows in [10, 1_000, 20_000] {
        let t = table(rows);
        let (calls, text) = allocations(|| t.to_csv_string());
        // The output `Vec` doubles from empty (one call per doubling),
        // plus a handful for the reused cell buffer.  Nothing per row.
        let doublings = u64::from(usize::BITS - text.len().leading_zeros());
        let budget = doublings + 4;
        assert!(
            calls <= budget,
            "{rows} rows ({} bytes): {calls} allocation calls, budget {budget}",
            text.len()
        );
        let mut sink = std::io::sink();
        let (calls, ()) = allocations(|| t.to_csv(&mut sink).unwrap());
        assert!(
            calls <= 4,
            "{rows} rows through a BufWriter: {calls} allocation calls"
        );
    }
}

/// A `quote_schema` CSV of `rows` records, one string cell each.
fn quote_csv(rows: usize) -> String {
    let mut csv = String::from("name,date,price\n");
    for i in 0..rows {
        csv.push_str(&format!(
            "S{:04},1990-01-{:02},{}.5\n",
            i % 8,
            i % 28 + 1,
            i
        ));
    }
    csv
}

#[test]
fn loading_a_csv_string_costs_its_string_cells_plus_a_constant() {
    let load = |rows: usize| {
        let csv = quote_csv(rows);
        let (calls, table) = allocations(|| Table::from_csv_str(quote_schema(), &csv).unwrap());
        assert_eq!(table.len(), rows);
        calls
    };
    let (small, large) = (load(100), load(5_000));
    // Exactly one call per added row: its string cell.
    assert_eq!(
        large - small,
        5_000 - 100,
        "calls: {small} for 100 rows, {large} for 5 000"
    );
    // The rest is fixed: the reader's buffers, the schema copy, the header
    // mapping, the cell buffer (14 calls when this was written).
    assert!(small <= 100 + 24, "{small} calls for 100 rows");
}

#[test]
fn a_reserved_table_never_reallocates_its_cells() {
    const ROWS: usize = 1_000;
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            vec![
                Value::from("S0001"),
                Value::Date(Date::from_days(i as i32)),
                Value::Float(i as f64),
            ]
        })
        .collect();
    let mut table = Table::with_capacity(quote_schema(), ROWS);
    let (calls, ()) = allocations(|| {
        for row in rows {
            table.push_row(row).unwrap();
        }
    });
    assert_eq!(calls, 0, "allocation calls filling a reserved table");
    assert_eq!(table.len(), ROWS);
}
