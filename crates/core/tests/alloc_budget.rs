//! Allocation budgets for the partition step, batch and streaming.
//!
//! `Table::cluster_by` runs on every batch `execute` and
//! `StreamSession::feed` (or a session group's feed) on every arriving
//! tuple, so none may touch the heap once per row.  This binary installs a counting global allocator
//! (its own test binary: a `#[global_allocator]` is process-wide) and
//! bounds the number of allocation calls each makes: O(clusters · log
//! rows) for the batch partition, exactly none for a steady-state feed.
//! Counts are per thread and deterministic — no timing, one thread per
//! measurement — so the test cannot flake; if a change moves the feed
//! pin on purpose, re-pin it and say why in the commit.

use sqlts_core::{
    compile, CompileOptions, SessionWorker, SessionWorkerConfig, StreamOptions, StreamSession,
    WorkerError,
};
use sqlts_relation::{ColumnType, Schema, Table, Value};
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
        ("day", ColumnType::Int),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

fn quote(symbol: usize, day: usize) -> Vec<Value> {
    vec![
        Value::Str(format!("S{symbol:04}")),
        Value::Int(day as i64),
        Value::Float(100.0 + day as f64),
    ]
}

const CLUSTERS: usize = 8;
const ROWS: usize = 10_000;

/// `ROWS` rows over `CLUSTERS` symbols, stored symbol by symbol or
/// day by day.
fn table(interleaved: bool) -> Table {
    let per_cluster = ROWS / CLUSTERS;
    let mut t = Table::new(quote_schema());
    for i in 0..ROWS {
        let (symbol, day) = if interleaved {
            (i % CLUSTERS, i / CLUSTERS)
        } else {
            (i / per_cluster, i % per_cluster)
        };
        t.push_row(quote(symbol, day)).unwrap();
    }
    t
}

#[test]
fn cluster_by_allocates_per_cluster_not_per_row() {
    // Per cluster: the owned key (a `Vec` and the symbol's `String`) and
    // the doubling growth of one index vector — at most log2(ROWS) < 14
    // calls wherever std starts it.  Per call: the two column-index lists,
    // the group list's growth, the B-tree's nodes for 8 keys, the result.
    // (102 calls on the toolchain this was written with; a bound, not a
    // pin, because the split between those is std's business.)
    let budget = (CLUSTERS * (2 + 14) + 8) as u64;
    assert!(budget < ROWS as u64 / 50);
    for interleaved in [false, true] {
        let t = table(interleaved);
        let (calls, clusters) = allocations(|| t.cluster_by(&["name"], &["day"]).unwrap());
        assert_eq!(clusters.len(), CLUSTERS);
        assert!(
            calls <= budget,
            "interleaved={interleaved}: {calls} allocation calls for {ROWS} rows, budget \
             {budget}: O(clusters · log rows), never O(rows)"
        );
    }
}

#[test]
fn steady_state_feed_allocates_nothing_per_row() {
    // No generated price is below 50, so every row fails the first
    // element: it is admitted to its cluster's window, tested, and
    // compacted away again — the whole per-row path, and no match.
    let query = compile(
        "SELECT X.name, Y.day FROM quote CLUSTER BY name SEQUENCE BY day AS (X, Y) \
         WHERE X.price < 50 AND Y.price > X.price",
        &quote_schema(),
        &CompileOptions::default(),
    )
    .unwrap();
    let mut session = StreamSession::new(&query, StreamOptions::default()).unwrap();
    // Warm up: every cluster exists and its window buffer has its capacity.
    let warm_days = 64;
    for day in 0..warm_days {
        for symbol in 0..CLUSTERS {
            session.feed(quote(symbol, day)).unwrap();
        }
    }
    // The rows are built outside the measurement: the budget is what
    // `feed` allocates *beyond* the row it is handed.
    let rows: Vec<Vec<Value>> = (warm_days..warm_days + 100)
        .flat_map(|day| (0..CLUSTERS).map(move |symbol| quote(symbol, day)))
        .collect();
    let fed = rows.len() as u64;
    let (calls, ()) = allocations(|| {
        for row in rows {
            session.feed(row).unwrap();
        }
    });
    assert_eq!(
        calls, 0,
        "{calls} allocation calls over {fed} steady-state feeds"
    );
    assert_eq!(session.finish().unwrap().table.len(), 0);
}

#[test]
fn a_group_feed_allocates_nothing_per_row_for_any_member() {
    // Eight workers seated in one group: each row is admitted once and
    // driven through every member, and no member adds an allocation.
    let config = |i: usize| {
        let sql = format!(
            "SELECT X.name, Y.day FROM quote CLUSTER BY name SEQUENCE BY day AS (X, Y) \
             WHERE X.price < {} AND Y.price > X.price",
            50 + i
        );
        SessionWorkerConfig::new(format!("w{i}"), sql, quote_schema())
    };
    let lead = SessionWorker::spawn(config(0)).unwrap();
    let members: Vec<SessionWorker> = (1..8)
        .map(|i| SessionWorker::spawn_in(config(i), [lead.group()]).unwrap())
        .collect();
    assert!(members.iter().all(|w| w.group() == lead.group()));
    let ok = |_: usize, result: Result<(), WorkerError>| result.unwrap();
    let warm = (0..64).flat_map(|day| (0..CLUSTERS).map(move |symbol| quote(symbol, day)));
    lead.group().feed(warm, ok).unwrap();
    let rows: Vec<Vec<Value>> = (64..164)
        .flat_map(|day| (0..CLUSTERS).map(move |symbol| quote(symbol, day)))
        .collect();
    let fed = rows.len() as u64;
    let (calls, ()) = allocations(|| lead.group().feed(rows, ok).unwrap());
    assert_eq!(
        calls, 0,
        "{calls} allocation calls over {fed} steady-state group feeds of 8 members"
    );
    for worker in members.iter().chain([&lead]) {
        assert_eq!(worker.finish().unwrap().rows, 0);
    }
}
