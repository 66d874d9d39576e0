//! Layer probes: the same on every workload.
//!
//! `relation`, `lang` and `core` are measured in-process by timing calls
//! into their public functions; the server is measured across its public
//! wire surface with differential probes (PING vs FEED-to-nobody vs the
//! same on a durable server), and an open-loop rate ladder finds the
//! sustainable rate.  Nothing in the program is instrumented.

use crate::data::{batch_csv, result_body, Feed, Q_RISEFALL, SCHEMA_SPEC};
use crate::metrics::Values;
use crate::stats::{ladder_step_passes, median, percentile};
use crate::wire::{decode_frame, Client, ServerProc};
use crate::workloads::{io, Env, Res, Tally};
use sqlts_bench::{clustered_query, pattern_set_family, sweep_patterns, DOUBLE_BOTTOM};
use sqlts_core::{
    compile, execute, CompileOptions, CompiledQuery, EngineKind, ExecOptions, Instrument,
    SessionWorker, SessionWorkerConfig, SharedStreamSession, StreamOptions, StreamSession,
};
use sqlts_datagen::quote_schema;
use sqlts_relation::{parse_headerless_row, Table, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How much work the probes do.
#[derive(Clone, Debug)]
pub struct ProbeScale {
    /// Rows of the in-process feed (8 symbols, date-interleaved).
    pub stream_rows: usize,
    /// Rows of the CSV-load / cluster-by / batch-exec table.
    pub table_rows: usize,
    /// Wire probes take up to this many samples...
    pub wire_samples: usize,
    /// ...but stop once this much time has gone into one probe.
    pub wire_budget: Duration,
    pub ladder_rates: Vec<u32>,
    pub ladder_step: Duration,
}

impl ProbeScale {
    /// For a contract run: n and step length bounded so a traced run
    /// stays well inside its time limit even at ~44 ms per reply.
    pub fn contract() -> ProbeScale {
        ProbeScale {
            stream_rows: 40_000,
            table_rows: 100_000,
            wire_samples: 200,
            wire_budget: Duration::from_millis(1000),
            ladder_rates: vec![10, 40, 160, 640, 2560, 10240],
            ladder_step: Duration::from_millis(1500),
        }
    }

    /// For `loadgen run`: n >= 200 everywhere, 5 s ladder steps.
    pub fn full() -> ProbeScale {
        ProbeScale {
            wire_budget: Duration::from_secs(60),
            ladder_step: Duration::from_secs(5),
            ..ProbeScale::contract()
        }
    }

    pub fn smoke() -> ProbeScale {
        ProbeScale {
            stream_rows: 4_000,
            table_rows: 8_000,
            wire_samples: 10,
            wire_budget: Duration::from_millis(500),
            ladder_rates: vec![10],
            ladder_step: Duration::from_millis(500),
        }
    }
}

/// Median wall of `reps` runs of `work`, in nanoseconds.
fn median_ns<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(work());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn compiled(sql: &str) -> CompiledQuery {
    compile(sql, &quote_schema(), &CompileOptions::default()).expect("probe query compiles")
}

fn feed_all(rows: &[Vec<Value>], mut feed: impl FnMut(Vec<Value>)) -> f64 {
    let started = Instant::now();
    for row in rows {
        feed(row.clone());
    }
    started.elapsed().as_nanos() as f64 / rows.len() as f64
}

/// Time calls into `relation`, `lang` and `core`.
pub fn in_process(scale: &ProbeScale, seed: u64, out: &mut Values) -> Res<()> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let schema = quote_schema();
    let feed = Feed::generate(8, scale.stream_rows / 8, seed, 0, 8);
    let rows = &feed.rows;

    // relation
    let parse_ns = median_ns(5, || {
        for (i, line) in feed.lines.iter().enumerate() {
            black_box(parse_headerless_row(&schema, line, i + 1).expect("generated line parses"));
        }
    });
    out.insert("relation.parse_row_ns", parse_ns / feed.lines.len() as f64);
    let big = Feed::generate(8, scale.table_rows / 8, seed ^ 0x5eed, 0, 8);
    let csv = format!("name,date,price\n{}\n", big.lines.join("\n"));
    let load_ns = median_ns(3, || {
        Table::from_csv_str(schema.clone(), &csv).expect("generated CSV loads")
    });
    out.insert(
        "relation.csv_load_rows_per_s",
        big.lines.len() as f64 / (load_ns / 1e9),
    );
    let table = Table::from_csv_str(schema.clone(), &csv).map_err(|e| err(&e))?;
    let cluster_ns = median_ns(3, || {
        table
            .cluster_by(&["name"], &["date"])
            .expect("columns exist")
            .len()
    });
    out.insert(
        "relation.cluster_by_ns_per_row",
        cluster_ns / table.len() as f64,
    );

    // lang + optimizer
    out.insert(
        "lang.compile_risefall_us",
        median_ns(20, || compiled(Q_RISEFALL)) / 1e3,
    );
    out.insert(
        "lang.compile_double_bottom_us",
        median_ns(20, || compiled(DOUBLE_BOTTOM)) / 1e3,
    );
    let double_bottom = compiled(DOUBLE_BOTTOM);
    let djia = sqlts_bench::djia(seed);
    let profiled = ExecOptions {
        instrument: Instrument::profiling(),
        ..Default::default()
    };
    let plan_ns: Vec<f64> = (0..5)
        .map(|_| {
            let result = execute(&double_bottom, &djia, &profiled).expect("double bottom executes");
            result.profile.expect("profiling was armed").phases.plan as f64
        })
        .collect();
    out.insert("core.optimizer_us", median(&plan_ns) / 1e3);

    // core, batch: a pattern where OPS earns its keep.
    let overlap = sweep_patterns()
        .into_iter()
        .find(|c| c.id == "star-overlap-3")
        .ok_or("sweep has no star-overlap-3")?;
    let overlap = compiled(&clustered_query(&overlap.query));
    let mut tests = [0u64; 2];
    for (slot, (name, engine)) in [
        ("core.batch_exec_ns_per_row.ops", EngineKind::Ops),
        ("core.batch_exec_ns_per_row.naive", EngineKind::Naive),
    ]
    .into_iter()
    .enumerate()
    {
        let options = ExecOptions {
            engine,
            ..Default::default()
        };
        let ns = median_ns(3, || {
            let result = execute(&overlap, &table, &options).expect("probe query executes");
            tests[slot] = result.stats.predicate_tests;
        });
        out.insert(name, ns / table.len() as f64);
    }
    out.insert(
        "core.exec_ns_per_test",
        out["core.batch_exec_ns_per_row.ops"] * table.len() as f64 / tests[0].max(1) as f64,
    );
    out.insert("core.predicate_tests.ops", tests[0] as f64);
    out.insert("core.predicate_tests.naive", tests[1] as f64);
    out.insert(
        "core.ops_speedup_tests",
        tests[1] as f64 / tests[0].max(1) as f64,
    );

    // core, streaming: one session, then the same behind a worker thread.
    let risefall = compiled(Q_RISEFALL);
    let mut session =
        StreamSession::new(&risefall, StreamOptions::default()).map_err(|e| err(&e))?;
    let quarter = rows.len() / 4;
    let mut feed_ns = feed_all(&rows[..quarter], |row| {
        session.feed(row).expect("probe row feeds")
    }) * quarter as f64;
    let snapshot_ns = median_ns(5, || {
        session
            .snapshot()
            .expect("session snapshots")
            .to_text()
            .len()
    });
    out.insert("core.snapshot_us", snapshot_ns / 1e3);
    let at_quarter = session.snapshot().map_err(|e| err(&e))?.to_text().len();
    feed_ns += feed_all(&rows[quarter..], |row| {
        session.feed(row).expect("probe row feeds")
    }) * (rows.len() - quarter) as f64;
    out.insert("core.stream_feed_ns_per_row", feed_ns / rows.len() as f64);
    out.insert("core.checkpoint_bytes_at_10k", at_quarter as f64);
    out.insert(
        "core.checkpoint_bytes_at_40k",
        session.snapshot().map_err(|e| err(&e))?.to_text().len() as f64,
    );
    out.insert("core.window_bytes", session.window_bytes() as f64);
    let started = Instant::now();
    let streamed = session.finish().map_err(|e| err(&e))?.table.to_csv_string();
    out.insert(
        "core.stream_finish_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    if streamed != batch_csv(Q_RISEFALL, &[rows]) {
        return Err("in-process stream result differs from batch".into());
    }

    let worker = SessionWorker::spawn(SessionWorkerConfig::new(
        "probe",
        Q_RISEFALL,
        schema.clone(),
    ))
    .map_err(|e| err(&e))?;
    let worker_ns = feed_all(rows, |row| worker.feed(row).expect("probe row feeds"));
    worker.finish().map_err(|e| err(&e))?;
    out.insert("core.worker_feed_ns_per_row", worker_ns);
    out.insert(
        "core.worker_handoff_ns_per_row",
        worker_ns - out["core.stream_feed_ns_per_row"],
    );

    // core, pattern sets: 8 shared vs 8 solo vs a set of one.
    let family: Vec<CompiledQuery> = pattern_set_family(8).iter().map(|q| compiled(q)).collect();
    let options = StreamOptions::default();
    let mut set8 = SharedStreamSession::new(&family, &options).map_err(|e| err(&e))?;
    let set8_ns = feed_all(rows, |row| set8.feed(row).expect("probe row feeds"));
    let (_, stats) = set8.finish();
    out.insert("core.set8_feed_ns_per_row", set8_ns);
    out.insert("core.set_tests_logical", stats.tests_logical as f64);
    out.insert("core.set_tests_evaluated", stats.tests_evaluated as f64);
    out.insert(
        "core.set_share_ratio",
        stats.tests_evaluated as f64 / stats.tests_logical.max(1) as f64,
    );
    let mut solos: Vec<StreamSession> = family
        .iter()
        .map(|q| StreamSession::new(q, options.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| err(&e))?;
    let solo8_ns = feed_all(rows, |row| {
        for session in &mut solos {
            session.feed(row.clone()).expect("probe row feeds");
        }
    });
    out.insert("core.solo8_feed_ns_per_row", solo8_ns);
    let mut set1 = SharedStreamSession::new(&family[..1], &options).map_err(|e| err(&e))?;
    let set1_ns = feed_all(rows, |row| set1.feed(row).expect("probe row feeds"));
    out.insert("core.set1_feed_ns_per_row", set1_ns);
    Ok(())
}

/// Up to `scale.wire_samples` round trips of `payload`, stopping at the
/// time budget (never below 5); returns each latency in microseconds.
fn round_trips(
    client: &mut Client,
    scale: &ProbeScale,
    mut payload: impl FnMut(usize) -> String,
    expect: &str,
    ops: &mut Tally,
) -> Res<Vec<f64>> {
    let started = Instant::now();
    let mut samples = Vec::new();
    for i in 0..scale.wire_samples {
        if i >= 5 && started.elapsed() >= scale.wire_budget {
            break;
        }
        let request = payload(i);
        let sent = Instant::now();
        let reply = io(client.request(&request), "probe request")?;
        samples.push(sent.elapsed().as_secs_f64() * 1e6);
        ops.expect(&reply, expect);
    }
    Ok(samples)
}

/// Differential probes over the wire against freshly spawned servers.
pub fn wire(
    env: &Env,
    scale: &ProbeScale,
    seed: u64,
    out: &mut Values,
    ops: &mut Tally,
) -> Res<()> {
    let feed = Feed::generate(8, (scale.wire_samples * 100).div_ceil(8), seed, 0, 8);
    let frame = |chan: &'static str| {
        let feed = &feed;
        move |i: usize| feed.frame(chan, i * 100, (i + 1) * 100)
    };
    let mut starts = Vec::new();

    let server = io(
        ServerProc::spawn(&env.server_bin, &[]),
        "spawn probe server",
    )?;
    starts.push(server.start_ms);
    let mut client = io(Client::connect(&server.addr), "connect")?;
    let pings = round_trips(&mut client, scale, |_| "PING".into(), "OK pong", ops)?;
    out.insert("server.ping_rtt_p50_us", median(&pings));
    let reply = io(client.request(&format!("OPEN nosub {SCHEMA_SPEC}")), "OPEN")?;
    ops.expect(&reply, "OK opened nosub");
    let feeds = round_trips(&mut client, scale, frame("nosub"), "OK fed 100 subs=0", ops)?;
    out.insert("server.feed_nosub_p50_us", median(&feeds));

    // SUBSCRIBE / CHECKPOINT / UNSUBSCRIBE round trips, one of each per
    // family member, with a few frames of history so they carry state.
    let family = pattern_set_family(8);
    let reply = io(client.request(&format!("OPEN ctl {SCHEMA_SPEC}")), "OPEN")?;
    ops.expect(&reply, "OK opened ctl");
    let (mut subscribe, mut checkpoint, mut unsubscribe) = (Vec::new(), Vec::new(), Vec::new());
    for (i, sql) in family.iter().enumerate() {
        let sent = Instant::now();
        let reply = io(
            client.request(&format!("SUBSCRIBE p{i} ctl\n{sql}")),
            "SUBSCRIBE",
        )?;
        subscribe.push(sent.elapsed().as_secs_f64() * 1e3);
        ops.expect(&reply, &format!("OK subscribed p{i}"));
    }
    let history = 5.min(scale.wire_samples);
    for i in 0..history {
        let reply = io(
            client.request(&feed.frame("ctl", i * 100, (i + 1) * 100)),
            "FEED",
        )?;
        ops.expect(&reply, "OK fed 100 subs=8");
    }
    for i in 0..family.len() {
        let sent = Instant::now();
        let reply = io(client.request(&format!("CHECKPOINT p{i}")), "CHECKPOINT")?;
        checkpoint.push(sent.elapsed().as_secs_f64() * 1e3);
        ops.expect(&reply, &format!("CHECKPOINT p{i}\nsqlts-checkpoint v1"));
    }
    for (i, sql) in family.iter().enumerate() {
        let id = format!("p{i}");
        let sent = Instant::now();
        let reply = io(client.request(&format!("UNSUBSCRIBE {id}")), "UNSUBSCRIBE")?;
        unsubscribe.push(sent.elapsed().as_secs_f64() * 1e3);
        ops.attempted += 1;
        if result_body(&reply, &id) != Some(&batch_csv(sql, &[&feed.rows[..history * 100]])) {
            ops.mismatch(format!("probe {id}: RESULT differs from batch"));
        }
    }
    out.insert("server.subscribe_ms", median(&subscribe));
    out.insert("server.checkpoint_rtt_ms", median(&checkpoint));
    out.insert("server.unsubscribe_ms", median(&unsubscribe));
    drop(client);
    drop(server);

    let dir = env.tmp_dir.join("data-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let flags = [
        "--data-dir".to_string(),
        dir.display().to_string(),
        "--fsync".into(),
        "every".into(),
    ];
    let durable = io(
        ServerProc::spawn(&env.server_bin, &flags),
        "spawn durable probe server",
    )?;
    starts.push(durable.start_ms);
    let mut client = io(Client::connect(&durable.addr), "connect")?;
    let reply = io(client.request(&format!("OPEN nosub {SCHEMA_SPEC}")), "OPEN")?;
    ops.expect(&reply, "OK opened nosub rows=0");
    let feeds = round_trips(&mut client, scale, frame("nosub"), "OK fed 100 subs=0", ops)?;
    out.insert("server.feed_nosub_durable_p50_us", median(&feeds));
    drop(client);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    out.insert("cli.serve_start_ms", median(&starts));
    Ok(())
}

const LADDER_ROWS_PER_FRAME: usize = 10;

/// One open-loop step: `rate` frames/s for `step`, sender and reader on
/// separate threads so a slow reply never delays the next send.  Returns
/// (from-due latencies in send order, generator lateness, non-OK count).
fn ladder_step(
    client: &mut Client,
    feed: &Feed,
    first_row: usize,
    rate: u32,
    step: Duration,
) -> Res<(Vec<f64>, Vec<f64>, u64)> {
    let interval = Duration::from_secs_f64(1.0 / f64::from(rate));
    let frames = (step.as_secs_f64() * f64::from(rate)).round() as usize;
    let mut reader = io(client.split_reader(), "split connection")?;
    let expected = format!("OK fed {LADDER_ROWS_PER_FRAME} subs=1 rejected=0");
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + interval * i as u32;
    std::thread::scope(|scope| {
        let replies = scope.spawn(move || -> Res<(Vec<Instant>, u64)> {
            let mut done = Vec::with_capacity(frames);
            let mut non_ok = 0;
            for _ in 0..frames {
                let reply = io(decode_frame(&mut reader), "ladder reply")?
                    .ok_or("server closed the connection mid-step")?;
                done.push(Instant::now());
                non_ok += u64::from(reply != expected);
            }
            Ok((done, non_ok))
        });
        let mut lateness_ms = Vec::with_capacity(frames);
        let mut send_error = None;
        for i in 0..frames {
            let row = first_row + i * LADDER_ROWS_PER_FRAME;
            let payload = feed.frame("ladder", row, row + LADDER_ROWS_PER_FRAME);
            if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lateness_ms.push(
                Instant::now()
                    .saturating_duration_since(due(i))
                    .as_secs_f64()
                    * 1e3,
            );
            if let Err(e) = client.send(&payload) {
                send_error = Some(format!("ladder send: {e}"));
                break;
            }
        }
        let joined = replies
            .join()
            .unwrap_or_else(|_| Err("ladder reader panicked".into()));
        if let Some(e) = send_error {
            return Err(e);
        }
        let (done, non_ok) = joined?;
        let from_due_ms = done
            .iter()
            .enumerate()
            .map(|(i, at)| at.saturating_duration_since(due(i)).as_secs_f64() * 1e3)
            .collect();
        Ok((from_due_ms, lateness_ms, non_ok))
    })
}

/// The open-loop rate ladder on the solo_mem configuration: stop at the
/// first failing step, then UNSUBSCRIBE and verify like any other pass.
pub fn ladder(
    env: &Env,
    scale: &ProbeScale,
    seed: u64,
    out: &mut Values,
    ops: &mut Tally,
) -> Res<()> {
    let total_frames: usize = scale
        .ladder_rates
        .iter()
        .map(|r| (scale.ladder_step.as_secs_f64() * f64::from(*r)).round() as usize)
        .sum();
    let feed = Feed::generate(
        8,
        (total_frames * LADDER_ROWS_PER_FRAME).div_ceil(8),
        seed,
        0,
        8,
    );
    let server = io(
        ServerProc::spawn(&env.server_bin, &[]),
        "spawn ladder server",
    )?;
    let mut client = io(Client::connect(&server.addr), "connect")?;
    let reply = io(
        client.request(&format!("OPEN ladder {SCHEMA_SPEC}")),
        "OPEN",
    )?;
    ops.expect(&reply, "OK opened ladder");
    let reply = io(
        client.request(&format!("SUBSCRIBE l1 ladder\n{Q_RISEFALL}")),
        "SUBSCRIBE",
    )?;
    ops.expect(&reply, "OK subscribed l1");
    let mut fed_rows = 0;
    let mut sustainable = 0.0;
    let mut lateness_all = Vec::new();
    for (i, rate) in scale.ladder_rates.iter().enumerate() {
        let (from_due_ms, lateness_ms, non_ok) =
            ladder_step(&mut client, &feed, fed_rows, *rate, scale.ladder_step)?;
        fed_rows += from_due_ms.len() * LADDER_ROWS_PER_FRAME;
        ops.attempted += from_due_ms.len() as u64;
        // A refused frame or one over the latency limit missed its slot.
        let passed = ladder_step_passes(&from_due_ms, non_ok);
        ops.failed += non_ok;
        if i == 0 {
            out.insert("ladder.paced_ack_p50_ms", median(&from_due_ms));
        }
        if passed || i == 0 {
            lateness_all.extend(lateness_ms);
        }
        if !passed {
            break;
        }
        sustainable = f64::from(*rate) * LADDER_ROWS_PER_FRAME as f64;
    }
    out.insert("ladder.sustainable_rows_per_s", sustainable);
    out.insert("bench.gen_lateness_p95_ms", percentile(&lateness_all, 95.0));
    let reply = io(client.request("UNSUBSCRIBE l1"), "UNSUBSCRIBE")?;
    ops.attempted += 1;
    if result_body(&reply, "l1") != Some(&batch_csv(Q_RISEFALL, &[&feed.rows[..fed_rows]])) {
        ops.mismatch("ladder: RESULT differs from batch".into());
    }
    Ok(())
}

/// Every probe, in the order that keeps at most one server alive.
pub fn all(env: &Env, scale: &ProbeScale, seed: u64, out: &mut Values) -> Res<Tally> {
    let mut ops = Tally::default();
    in_process(scale, seed, out)?;
    wire(env, scale, seed, out, &mut ops)?;
    ladder(env, scale, seed, out, &mut ops)?;
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_probes_fill_every_metric_they_own() {
        let mut out = Values::new();
        in_process(&ProbeScale::smoke(), 3, &mut out).unwrap();
        for def in crate::metrics::PER_LAYER.iter() {
            let owned = ["relation.", "lang.", "core."]
                .iter()
                .any(|p| def.name.starts_with(p));
            assert_eq!(out.contains_key(def.name), owned, "{}", def.name);
        }
        assert!(out["core.predicate_tests.ops"] <= out["core.predicate_tests.naive"]);
        assert!(out["core.set_tests_evaluated"] < out["core.set_tests_logical"]);
        assert!(out["core.checkpoint_bytes_at_10k"] < out["core.checkpoint_bytes_at_40k"]);
        assert!(out.values().all(|v| v.is_finite()));
    }
}
