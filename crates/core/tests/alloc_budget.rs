//! Allocation budgets for the partition step, batch and streaming.
//!
//! `Table::cluster_by` runs on every batch `execute` and
//! `StreamSession::feed` (or a session group's feed) on every arriving
//! tuple, so none may touch the heap once per row.  This binary installs a counting global allocator
//! (its own test binary: a `#[global_allocator]` is process-wide) and
//! bounds the number of allocation calls each makes: O(clusters · log
//! rows) for the batch partition, exactly none for a steady-state feed
//! whatever its frame sizes, and only per match for an OPS search that
//! realigns.
//! Counts are per thread and deterministic — no timing, one thread per
//! measurement — so the test cannot flake; if a change moves the feed
//! pin on purpose, re-pin it and say why in the commit.

use sqlts_core::{
    compile, CompileOptions, Governor, SessionWorker, SessionWorkerConfig, StreamOptions,
    StreamSession, WorkerError,
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

#[test]
fn a_group_fed_frames_of_any_size_allocates_nothing_per_row() {
    // Ungoverned, the group is driven once per frame; with every member
    // under a step budget that never trips, after every row.
    for governor in [
        Governor::unlimited(),
        Governor::unlimited().with_max_steps(u64::MAX / 2),
    ] {
        frames_of_any_size_allocate_nothing_per_row(governor);
    }
}

fn frames_of_any_size_allocate_nothing_per_row(governor: Governor) {
    // After one frame of 64 rows per cluster — as many as a frame admits
    // to a cluster before its members are driven — no frame, short or
    // long, grows a window or the group's per-frame state.
    let config = |i: usize| {
        let sql = format!(
            "SELECT X.name, Y.day FROM quote CLUSTER BY name SEQUENCE BY day AS (X, Y) \
             WHERE X.price < {} AND Y.price > X.price",
            50 + i
        );
        let mut config = SessionWorkerConfig::new(format!("w{i}"), sql, quote_schema());
        config.stream.exec.governor = governor.clone();
        config
    };
    let lead = SessionWorker::spawn(config(0)).unwrap();
    let members: Vec<SessionWorker> = (1..8)
        .map(|i| SessionWorker::spawn_in(config(i), [lead.group()]).unwrap())
        .collect();
    let ok = |_: usize, result: Result<(), WorkerError>| result.unwrap();
    let days = |from: usize, to: usize| {
        (from..to)
            .flat_map(|day| (0..CLUSTERS).map(move |symbol| quote(symbol, day)))
            .collect::<Vec<_>>()
    };
    lead.group().feed(days(0, 64), ok).unwrap();
    // Frames of 1, 3, 8, 50, 100, 200 and 1 000 rows, cut from one feed.
    let mut rows = days(64, 64 + 1362 / CLUSTERS + 1).into_iter();
    let frames: Vec<Vec<Vec<Value>>> = [1, 3, 8, 50, 100, 200, 1000]
        .iter()
        .map(|&n| rows.by_ref().take(n).collect())
        .collect();
    assert_eq!(frames.iter().map(Vec::len).sum::<usize>(), 1362);
    for frame in frames {
        let n = frame.len();
        let (calls, ()) = allocations(|| lead.group().feed(frame, ok).unwrap());
        assert_eq!(
            calls, 0,
            "{calls} allocation calls feeding a frame of {n} rows under {governor:?}"
        );
    }
    for worker in members.iter().chain([&lead]) {
        assert_eq!(worker.finish().unwrap().rows, 0);
    }
}

/// A zigzag walk: each step is ±1, with a second step the same way now
/// and then, so a rise/fall chain breaks at every element.
fn zigzag(len: usize) -> Vec<Vec<Value>> {
    let (mut price, mut state) = (100i64, 0x2545_f491_u64);
    (0..len)
        .map(|day| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let up = day % 2 == 0;
            let keep = (state >> 33) % 4 == 0;
            price += if up != keep { 1 } else { -1 };
            vec![
                Value::Str("S0".into()),
                Value::Int(day as i64),
                Value::Float(price as f64),
            ]
        })
        .collect()
}

#[test]
fn an_ops_search_that_realigns_allocates_only_per_match() {
    // (A, B, C, D) alternating falls and rises: a fall where a rise is
    // due (or the reverse) is a genuine failure, and OPS realigns to the
    // previous shift(j) with next(j) ≥ 1 rather than starting over.
    let query = compile(
        "SELECT A.day, D.day AS last FROM quote CLUSTER BY name SEQUENCE BY day \
         AS (A, B, C, D) WHERE A.price < A.previous.price \
         AND B.price > B.previous.price AND C.price < C.previous.price \
         AND D.price > D.previous.price",
        &quote_schema(),
        &CompileOptions::default(),
    )
    .unwrap();
    let (warm, fed) = (256, 800);
    let rows = zigzag(warm + fed);
    let matches_over = |rows: &[Vec<Value>]| {
        let mut session = StreamSession::new(&query, StreamOptions::default()).unwrap();
        for row in rows {
            session.feed(row.clone()).unwrap();
        }
        session.finish().unwrap().table.len()
    };
    let matches = (matches_over(&rows) - matches_over(&rows[..warm])) as u64;
    assert!(matches > 50, "only {matches} matches: the walk is too tame");
    let mut session = StreamSession::new(&query, StreamOptions::default()).unwrap();
    for row in &rows[..warm] {
        session.feed(row.clone()).unwrap();
    }
    let measured: Vec<Vec<Value>> = rows[warm..].to_vec();
    let (calls, ()) = allocations(|| {
        for row in measured {
            session.feed(row).unwrap();
        }
    });
    // Per match: its spans, its projected row; the pending and output
    // lists grow by doubling.  A realignment allocates nothing.
    let budget = 2 * matches + 16;
    assert!(
        calls <= budget,
        "{calls} allocation calls over {fed} rows with {matches} matches (budget {budget})"
    );
}
