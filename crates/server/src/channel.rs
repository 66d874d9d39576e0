//! One feed path.  A [`Channel`] is a named, schema-typed input feed plus
//! its durable state, and this module holds the only implementation of
//! each step of a frame's life:
//!
//! 1. **validate** — payload lines → typed rows ([`Channel::parse_rows`]);
//! 2. **commit** — WAL append, its counters, histograms and spans, and the
//!    offer to the replication queue ([`Channel::commit`]);
//! 3. **fan out** — each row to every session group on the channel that
//!    has not seen it yet ([`fan_out`]); a live frame times each group's
//!    drive as `session_drive`;
//! 4. **snapshot** — sync, every subscription's record to disk, then
//!    WAL truncation below the low-water mark ([`Channel::snapshot`]);
//! 5. **sync** — `fsync` plus everything a finished fsync owes, under the
//!    persist lock ([`Channel::sync`]) or after it ([`Channel::wait_durable`]).
//!
//! The three ways a frame arrives compose those steps and add nothing of
//! their own to them: a live `FEED` is validate → commit → fan out →
//! (snapshot) → wait durable ([`Channel::ingest`]); recovery and standby
//! promotion replay WAL frames as validate → fan out, then snapshot
//! ([`Channel::replay`]); a standby's `REPL FRAME` is validate → commit
//! → wait durable ([`crate::replicate`]).  Drain, `CHECKPOINT … DURABLE`
//! and promotion call steps 4 and 5 directly.
//!
//! ## Lock order
//!
//! Each channel has one *persist* lock ([`Channel::lock`]) held across
//! commit, fan-out and snapshot, so WAL order is feed order and a row is
//! appended before any subscriber sees it; the fsync a reply waits for
//! runs after the lock is released.  A holder of a persist lock may take
//! the server's subscription registry ([`Shared::members`]) and then a
//! worker's session lock — never the reverse, nor two persist locks.

use crate::metrics::{LatencyOp, ServerMetrics};
use crate::recover::{DataDir, ServeError, SubMeta};
use crate::replicate::{ReplAck, SYNC_ACK_TIMEOUT};
use crate::server::{err, Role, Shared};
use crate::wal::{ChannelWal, FsyncPolicy, GroupCommit, WalError, WalFrame, WalScan};
use sqlts_core::{
    Instrument, SessionCheckpoint, SessionWorker, SessionWorkerConfig, SetRegistry, SharedSpec,
    WorkerError, WorkerGroup,
};
use sqlts_relation::{parse_headerless_row, CsvError, Schema, Value};
use sqlts_trace::Level;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One standing query over one channel, owned by the connection that
/// created it (0 for recovered subscriptions, which no disconnect reaps).
pub(crate) struct Subscription {
    pub id: String,
    pub worker: SessionWorker,
    pub conn: u64,
    /// Channel, join-time row/record base and SQL — a durable server's
    /// record holds them ahead of the checkpoint.
    pub meta: SubMeta,
}

/// The subscriptions seated in one session group: they joined the
/// channel at the same row and are fed as one.  Settled when
/// [`Channel::join`] seats a worker, so fan-out walks a channel's groups
/// and never sorts its subscriptions into them.
pub(crate) struct FeedGroup {
    workers: WorkerGroup,
    /// First channel row the group's workers had *not* seen when they were
    /// spawned: the join ordinal of live subscriptions, the snapshot's
    /// ordinal after recovery.  Fan-out delivers nothing below it.
    resume_at: u64,
    /// Per seat, the subscription spawned into it.
    seats: Vec<SeatLog>,
    /// Every seat is empty: fan-out drops the group.
    gone: bool,
}

#[derive(Default)]
struct SeatLog {
    id: String,
    /// The seat reported a row in the fan-out under way (it is occupied).
    driven: bool,
    /// Rows the seat rejected in the fan-out under way.
    rejected: u64,
    /// Set by the first live frame the seat rejects a row of, so a
    /// latched subscription is logged (and snapshotted) once, not on
    /// every frame.
    trip_logged: bool,
}

/// Per-channel durable state, guarded by the persist lock.
pub(crate) struct Persist {
    /// Rows accepted on this channel since it was opened (durable: the
    /// WAL's row count).
    rows_total: u64,
    /// The write-ahead log; `None` without a data dir.
    wal: Option<ChannelWal>,
    /// Live frames since the last snapshot pass.
    frames_since_snapshot: u64,
    /// The channel's session groups, in the order they were founded.
    groups: Vec<FeedGroup>,
}

impl Persist {
    pub fn rows_total(&self) -> u64 {
        self.rows_total
    }
}

pub(crate) struct Channel {
    pub name: String,
    pub schema: Schema,
    /// The channel's shared pattern-set registry.  Always present (it is
    /// an empty `Vec` behind a mutex until someone joins); subscriptions
    /// only join it under `--shared-matcher on`.
    pub registry: Arc<SetRegistry>,
    /// Logical predicate tests of the subscriptions that have left the
    /// channel, so the pattern-set ledger counts all-time like the
    /// registry's savings.
    pub retired_tests: AtomicU64,
    persist: Mutex<Persist>,
    /// Group-commit coordinator (idle under `--fsync off`).
    pub(crate) group: GroupCommit,
}

/// The live `FEED` frame a fan-out serves: where each session group's
/// drive is timed and, at debug level, logged under the frame's `fanout`
/// span.
struct LiveFrame<'a> {
    shared: &'a Shared,
    channel: &'a str,
    span: u64,
}

/// What a live frame's trip through [`Channel::ingest`] did.
pub(crate) struct Ingest {
    /// Subscriptions the frame fanned out to.
    pub subs: usize,
    /// Row deliveries latched subscriptions rejected.
    pub rejected: u64,
}

impl Channel {
    pub fn new(name: &str, schema: Schema, wal: Option<ChannelWal>) -> Channel {
        Channel {
            name: name.to_string(),
            schema,
            registry: Arc::new(SetRegistry::new()),
            retired_tests: AtomicU64::new(0),
            persist: Mutex::new(Persist {
                rows_total: wal.as_ref().map_or(0, ChannelWal::rows_total),
                wal,
                frames_since_snapshot: 0,
                groups: Vec::new(),
            }),
            group: GroupCommit::default(),
        }
    }

    /// A channel over its WAL in `data`, created empty or reopened with
    /// any torn tail repaired; the scan carries the surviving frames.
    pub fn durable(
        shared: &Shared,
        data: &DataDir,
        name: &str,
        schema: Schema,
    ) -> Result<(Channel, WalScan), ServeError> {
        let (mut wal, scan) = ChannelWal::open(&data.wal_path(name), shared.config.fsync)?;
        wal.set_segment_bytes(shared.config.wal_segment_bytes);
        Ok((Channel::new(name, schema, Some(wal)), scan))
    }

    /// Take the persist lock (see the module doc for the lock order).
    pub fn lock(&self) -> Result<MutexGuard<'_, Persist>, ServeError> {
        self.persist
            .lock()
            .map_err(|_| ServeError::Runtime("lock poisoned".into()))
    }

    /// Rows accepted so far (0 if the persist lock is poisoned).
    pub fn rows_total(&self) -> u64 {
        self.persist.lock().map_or(0, |p| p.rows_total)
    }

    /// Spawn the worker for standing query `id` on this channel — under
    /// the server's engine, budgets and profiling, resuming from
    /// `resume_from` when given and, under `--shared-matcher on`, joined
    /// to the channel's registry — and seat it in a session group.  The
    /// caller holds the persist lock.
    pub fn join(
        &self,
        shared: &Shared,
        persist: &mut Persist,
        id: &str,
        conn: u64,
        meta: SubMeta,
        resume_from: Option<SessionCheckpoint>,
    ) -> Result<Subscription, WorkerError> {
        let mut config = SessionWorkerConfig::new(id, &meta.sql, self.schema.clone());
        config.stream.exec.engine = shared.config.engine;
        config.stream.exec.governor = shared.config.governor.clone();
        config.stream.exec.instrument = Instrument::profiling();
        let resume_at = meta.resume_ordinal(resume_from.as_ref().map_or(0, |cp| cp.records()));
        config.resume_from = resume_from;
        if shared.config.shared_matcher {
            // The alignment key: the channel row ordinal the session's
            // record 0 maps to.  It is invariant across checkpoints, so a
            // recovered subscription shares with exactly the peers it could
            // have shared with before the crash; a checkpoint claiming more
            // records than the channel had rows is aligned with nothing and
            // simply runs solo.
            config.shared =
                meta.base_rows
                    .checked_sub(meta.base_records)
                    .map(|origin| SharedSpec {
                        registry: Arc::clone(&self.registry),
                        origin,
                    });
        }
        // Groups that started observing the channel at the same row are
        // offered the worker; one takes it when it has admitted no row yet
        // and the query admits alike.
        let groups = &mut persist.groups;
        let aligned = groups.iter().filter(|group| group.resume_at == resume_at);
        let worker = SessionWorker::spawn_in(config, aligned.map(|group| &group.workers))?;
        let log = SeatLog {
            id: id.to_string(),
            ..SeatLog::default()
        };
        match groups
            .iter_mut()
            .find(|group| group.workers == *worker.group())
        {
            Some(group) => {
                let seat = worker.seat();
                if group.seats.len() <= seat {
                    group.seats.resize_with(seat + 1, SeatLog::default);
                }
                group.seats[seat] = log;
            }
            None => groups.push(FeedGroup {
                workers: worker.group().clone(),
                resume_at,
                seats: vec![log],
                gone: false,
            }),
        }
        Ok(Subscription {
            id: id.to_string(),
            worker,
            conn,
            meta,
        })
    }

    /// Step 1: numbered payload lines → rows typed by the channel schema.
    /// All or nothing, so a malformed row rejects its frame before anything
    /// is appended or fed.  An empty line is malformed; `FEED` strips the
    /// blank lines it tolerates before calling.
    pub fn parse_rows<'a>(
        &self,
        lines: impl IntoIterator<Item = (usize, &'a str)>,
    ) -> Result<Vec<Vec<Value>>, CsvError> {
        lines
            .into_iter()
            .map(|(i, line)| match line {
                "" => Err(CsvError::Arity {
                    line: i + 1,
                    expected: self.schema.arity(),
                    got: 0,
                }),
                _ => parse_headerless_row(&self.schema, line, i + 1),
            })
            .collect()
    }

    /// Step 2: make one validated frame part of the channel — appended
    /// (unsynced) to the WAL when there is one, counted, and offered to
    /// the standby.
    /// Returns whether the replication queue took it.  On error nothing
    /// was committed and the caller must not fan out.
    pub fn commit(
        &self,
        shared: &Shared,
        persist: &mut Persist,
        payload: &str,
        nrows: u32,
        parent: u64,
    ) -> Result<bool, WalError> {
        let start = persist.rows_total;
        if let Some(wal) = persist.wal.as_mut() {
            let span = shared.log_at(Level::Debug).map_or(0, |log| {
                let fields = [
                    ("channel", self.name.as_str()),
                    ("rows", &nrows.to_string()),
                ];
                log.begin(Level::Debug, "wal_append", parent, &fields)
            });
            let append_started = Instant::now();
            let appended = wal.append(payload, nrows);
            let append_ns = append_started.elapsed().as_nanos() as u64;
            // Less a segment roll's fsync, so the two histograms answer
            // different questions.
            let roll_ns = appended.as_ref().map_or(0, |&ns| ns);
            shared
                .metrics
                .latency
                .record_ns(LatencyOp::WalAppend, append_ns.saturating_sub(roll_ns));
            if let Err(e) = appended {
                let error = e.to_string();
                shared.span_end(Level::Debug, "wal_append", span, &[("error", &error)]);
                return Err(e);
            }
            ServerMetrics::inc(&shared.metrics.wal_appends_total);
            shared.span_end(Level::Debug, "wal_append", span, &[]);
        }
        persist.rows_total += u64::from(nrows);
        // Enqueued under the persist lock so the shipping queue is in
        // commit order.  While disconnected the offer is dropped: the WAL
        // is the source of truth and the next resync re-reads it.
        Ok(shared
            .repl
            .as_ref()
            .is_some_and(|repl| repl.offer_frame(&self.name, start, nrows, payload)))
    }

    /// Step 5: fsync the WAL now, whatever the policy.
    pub fn sync(&self, shared: &Shared, persist: &mut Persist) -> Result<(), WalError> {
        if let Some(wal) = persist.wal.as_mut() {
            let fsync_ns = wal.sync()?;
            self.synced(shared, wal.rows_total(), fsync_ns);
        }
        Ok(())
    }

    /// What every finished fsync owes: the counter, the histogram sample,
    /// the debug event, and the durable watermark group-commit waiters
    /// sleep on.
    fn synced(&self, shared: &Shared, watermark: u64, fsync_ns: u64) {
        ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
        shared.metrics.latency.record_ns(LatencyOp::Fsync, fsync_ns);
        if let Some(log) = shared.log_at(Level::Debug) {
            let fields = [
                ("channel", self.name.as_str()),
                ("ns", &fsync_ns.to_string()),
            ];
            log.event(Level::Debug, "fsync", &fields);
        }
        self.group.publish_synced(watermark);
    }

    /// Block, off the persist lock, until an fsync covering the rows below
    /// `end` has finished (at once under `--fsync off`).  The first waiter
    /// leads: it sleeps the group window, then syncs a
    /// [`WalFlush`](crate::wal::WalFlush) taken under the lock after
    /// releasing it.  On failure the rows stay appended, unacknowledged.
    pub fn wait_durable(&self, shared: &Shared, end: u64) -> Result<(), String> {
        let FsyncPolicy::Group { window_us } = shared.config.fsync else {
            return Ok(());
        };
        let lead = || {
            let flush = self.lock().map(|p| p.wal.as_ref().map(ChannelWal::flusher));
            let flush = flush.ok().flatten().ok_or("no WAL, or lock poisoned")?;
            let (watermark, fsync_ns) = flush.sync().map_err(|e| e.to_string())?;
            self.synced(shared, watermark, fsync_ns);
            Ok(watermark)
        };
        let window = Duration::from_micros(u64::from(window_us));
        self.group
            .wait_durable(end, window, lead)
            .map_err(|e| err(4, format!("wal fsync on '{}': {e}", self.name)))
    }

    /// Unlink every closed WAL segment wholly below `low_water` (closed
    /// segments were synced when they rolled).  Best-effort: a failure
    /// leaves the WAL longer than necessary, never inconsistent.
    pub fn truncate_below(&self, shared: &Shared, persist: &mut Persist, low_water: u64) -> bool {
        let truncated = persist
            .wal
            .as_mut()
            .is_some_and(|wal| matches!(wal.truncate_below(low_water), Ok(true)));
        if truncated {
            ServerMetrics::inc(&shared.metrics.wal_truncations_total);
        }
        truncated
    }

    /// Step 4: sync the WAL (so no checkpoint covers an unsynced row; on
    /// failure nothing below runs), snapshot every subscription on the
    /// channel (one atomic record write each), then truncate the WAL below the
    /// low-water mark — the minimum ordinal any snapshot still needs.
    /// `parent` nests the span under the operation that forced it.
    pub fn snapshot(&self, shared: &Shared, persist: &mut Persist, parent: u64) {
        persist.frames_since_snapshot = 0;
        let Some(data) = shared.data.as_ref() else {
            return;
        };
        let started = Instant::now();
        if self.sync(shared, persist).is_err() || shared.role() == Role::Standby {
            // A standby has durable sub records but no live workers: the
            // sweep below would see none and truncate frames promotion
            // still needs.  Standby truncation is driven by the primary's
            // shipped records instead.  (A promoting server snapshots:
            // its replay has just respawned the workers.)
            return;
        }
        let span = shared.span_begin(Level::Debug, "snapshot", parent, &[("channel", &self.name)]);
        let members = shared.members(&self.name);
        // `None` once any subscription failed to snapshot (finished,
        // poisoned, disk error): it keeps its WAL rows, so nothing is
        // truncated this round.
        let mut low_water = Some(persist.rows_total);
        for sub in &members {
            let covered = match sub.worker.snapshot_with_records() {
                Ok((text, records))
                    if save_sub(shared, data, &sub.id, &sub.meta, &text).is_ok() =>
                {
                    Some(sub.meta.resume_ordinal(records))
                }
                _ => None,
            };
            low_water = low_water.zip(covered).map(|(low, at)| low.min(at));
        }
        let truncated = low_water.is_some_and(|low| self.truncate_below(shared, persist, low));
        shared
            .metrics
            .latency
            .record_ns(LatencyOp::Snapshot, started.elapsed().as_nanos() as u64);
        shared.span_end(
            Level::Debug,
            "snapshot",
            span,
            &[
                ("subscriptions", &members.len().to_string()),
                ("truncated", if truncated { "1" } else { "0" }),
            ],
        );
    }

    /// A live `FEED` frame: commit, fan out, snapshot when due — all under
    /// the persist lock — then, off-lock, wait out the fsync and whatever
    /// the replication policy still owes the feeder before it may be told
    /// "accepted".  `payload` builds the WAL text of exactly `rows`, and is
    /// called only when a WAL or a standby will read it; the rows
    /// themselves are moved into the subscriptions.
    pub fn ingest(
        &self,
        shared: &Shared,
        rows: Vec<Vec<Value>>,
        payload: impl FnOnce() -> String,
        parent: u64,
    ) -> Result<Ingest, String> {
        let nrows = rows.len();
        let mut persist = self.lock().map_err(|e| err(4, e))?;
        let start = persist.rows_total;
        let offered = nrows > 0 && {
            let read = persist.wal.is_some() || shared.repl.is_some();
            let payload = if read { payload() } else { String::new() };
            self.commit(shared, &mut persist, &payload, nrows as u32, parent)
                .map_err(|e| err(4, format!("wal append on '{}': {e}", self.name)))?
        };
        let subs: usize = persist.groups.iter().map(|g| g.workers.seated()).sum();
        let span = shared.log_at(Level::Debug).map_or(0, |log| {
            let fields = [
                ("channel", self.name.as_str()),
                ("rows", &nrows.to_string()),
                ("subs", &subs.to_string()),
            ];
            log.begin(Level::Debug, "fanout", parent, &fields)
        });
        let fanout_started = Instant::now();
        let frame = LiveFrame {
            shared,
            channel: &self.name,
            span,
        };
        let (_, rejected) = fan_out(&mut persist.groups, start, rows, Some(&frame));
        shared.metrics.latency.record_ns(
            LatencyOp::Fanout,
            fanout_started.elapsed().as_nanos() as u64,
        );
        if let Some(log) = shared.log_at(Level::Debug) {
            log.end(
                Level::Debug,
                "fanout",
                span,
                &[("rejected", &rejected.to_string())],
            );
        }
        ServerMetrics::add(&shared.metrics.rows_fed_total, (nrows * subs) as u64);
        // A governed/overflowed subscription stays latched — its partial
        // result is delivered at UNSUBSCRIBE — and the feed keeps flowing
        // to the healthy ones.  Its first rejection is a warn-level event
        // (durable or not); repeats are steady state and stay quiet.
        let mut fresh_trip = false;
        let seats = persist.groups.iter_mut().flat_map(|group| &mut group.seats);
        for seat in seats.filter(|seat| seat.rejected > 0) {
            if !std::mem::replace(&mut seat.trip_logged, true) {
                fresh_trip = true;
                shared.span_event(
                    Level::Warn,
                    "governor_trip",
                    &[("sub", &seat.id), ("channel", &self.name)],
                );
            }
        }
        let durable = persist.wal.is_some() && nrows > 0;
        if durable {
            persist.frames_since_snapshot += 1;
            if fresh_trip
                || persist.frames_since_snapshot >= shared.config.checkpoint_every_frames.max(1)
            {
                self.snapshot(shared, &mut persist, parent);
            }
        }
        let end = persist.rows_total;
        drop(persist);
        if durable {
            self.wait_durable(shared, end)?;
        }
        // Semi-synchronous replication: hold the ack until the standby has
        // the frame, degrading (counted) rather than failing the FEED when
        // the standby is away or slow.
        if let Some(repl) = shared.repl.as_ref() {
            if repl.ack == ReplAck::Sync && nrows > 0 {
                let state = &repl.state;
                let acked = offered && state.wait_acked(&self.name, end, SYNC_ACK_TIMEOUT);
                if !acked {
                    state.sync_degraded.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(Ingest { subs, rejected })
    }

    /// Recovery and promotion: deliver the WAL's surviving `frames` to the
    /// channel's respawned workers — each exactly the rows its snapshot
    /// has not seen, in feed order — then snapshot, so a crash loop cannot
    /// replay unboundedly.  Returns `(accepted, rejected)` row deliveries;
    /// rejections come from latched workers that equally rejected those
    /// rows in the uninterrupted run.  A row that no longer parses means
    /// the durable state is inconsistent (the WAL validated it at feed
    /// time): an input error.
    pub fn replay(&self, shared: &Shared, frames: &[WalFrame]) -> Result<(u64, u64), ServeError> {
        let mut persist = self.lock()?;
        let (mut accepted, mut rejected) = (0, 0);
        for frame in frames {
            #[cfg(feature = "failpoints")]
            if let Some(sqlts_relation::failpoints::Injected::InjectError) =
                sqlts_relation::failpoints::hit("recover::replay", frame.start)
            {
                return Err(ServeError::Runtime(format!(
                    "failpoint 'recover::replay' injected error at ordinal {}",
                    frame.start
                )));
            }
            let rows = self
                .parse_rows(frame.payload.lines().enumerate())
                .map_err(|e| {
                    ServeError::Input(format!(
                        "channel '{}' wal frame at ordinal {} no longer matches its schema: {e}",
                        self.name, frame.start
                    ))
                })?;
            let (ok, refused) = fan_out(&mut persist.groups, frame.start, rows, None);
            accepted += ok;
            rejected += refused;
        }
        ServerMetrics::add(&shared.metrics.rows_fed_total, accepted + rejected);
        self.snapshot(shared, &mut persist, 0);
        Ok((accepted, rejected))
    }
}

/// Step 3: deliver `rows` — the first at channel ordinal `start` — to
/// every session group on the channel, each from the first row its
/// members have not seen.  A group takes its rows in one call, under one
/// lock: each admitted once, then driven through every member seated in
/// it.  Groups are independent, so each takes the whole frame in turn;
/// the rows are moved into the last group and cloned for the others.  A
/// group whose seats have all emptied is dropped.  Returns the accepted
/// and rejected delivery counts, and leaves each seat's rejections in its
/// [`SeatLog`]; a rejecting (governed, overflowed, poisoned) member stays
/// latched and never stops the rest.  A live frame times each group's
/// drive; replay passes none.
fn fan_out(
    groups: &mut Vec<FeedGroup>,
    start: u64,
    rows: Vec<Vec<Value>>,
    live: Option<&LiveFrame>,
) -> (u64, u64) {
    let mut tally = (0, 0);
    if let Some((last, rest)) = groups.split_last_mut() {
        for group in rest {
            let unseen = rows.iter().skip(group.seen(start)).cloned();
            group.drive(unseen, &mut tally, live);
        }
        let unseen = rows.into_iter().skip(last.seen(start));
        last.drive(unseen, &mut tally, live);
    }
    groups.retain(|group| !group.gone);
    tally
}

impl FeedGroup {
    /// How many rows of a frame whose first is channel ordinal `start` the
    /// group's workers had seen before they were spawned.
    fn seen(&self, start: u64) -> usize {
        usize::try_from(self.resume_at.saturating_sub(start)).unwrap_or(usize::MAX)
    }

    /// [`FeedGroup::feed`], and for a live frame its `session_drive`
    /// latency plus, at debug level, a span of that name under the
    /// frame's `fanout` span.  The span's `subs` field names the seats the
    /// drive reached, so it is written on the end record.
    fn drive(
        &mut self,
        rows: impl ExactSizeIterator<Item = Vec<Value>>,
        tally: &mut (u64, u64),
        live: Option<&LiveFrame>,
    ) {
        let Some(live) = live else {
            return self.feed(rows, tally);
        };
        let log = live.shared.log_at(Level::Debug);
        let span = log.map_or(0, |log| {
            let fields = [("channel", live.channel), ("rows", &rows.len().to_string())];
            log.begin(Level::Debug, "session_drive", live.span, &fields)
        });
        let started = Instant::now();
        self.feed(rows, tally);
        live.shared
            .metrics
            .latency
            .record_ns(LatencyOp::SessionDrive, started.elapsed().as_nanos() as u64);
        if let Some(log) = log {
            let driven = self.seats.iter().filter(|seat| seat.driven);
            let subs = driven.map(|seat| seat.id.as_str()).collect::<Vec<_>>();
            log.end(
                Level::Debug,
                "session_drive",
                span,
                &[("subs", &subs.join(","))],
            );
        }
    }

    /// Feed the group `rows`, adding to the `(accepted, rejected)` tally.
    fn feed(
        &mut self,
        rows: impl Iterator<Item = Vec<Value>>,
        (accepted, rejected): &mut (u64, u64),
    ) {
        let seats = &mut self.seats;
        for seat in seats.iter_mut() {
            (seat.driven, seat.rejected) = (false, 0);
        }
        let fed = self.workers.feed(rows, |seat, result| {
            let failed = result.is_err();
            if failed {
                *rejected += 1;
            } else {
                *accepted += 1;
            }
            if let Some(log) = seats.get_mut(seat) {
                log.driven = true;
                log.rejected += u64::from(failed);
            }
        });
        match fed {
            Ok(()) => {}
            Err(WorkerError::Gone) => self.gone = true,
            // A panic escaped the group feed (every member is poisoned).
            Err(_) => {
                for log in seats.iter_mut() {
                    log.rejected += 1;
                    *rejected += 1;
                }
            }
        }
    }
}

/// Persist a subscription's record at `checkpoint`, count the snapshot,
/// and offer the record to the standby: one file, one write, one verb.
pub(crate) fn save_sub(
    shared: &Shared,
    data: &DataDir,
    id: &str,
    meta: &SubMeta,
    checkpoint: &str,
) -> Result<(), ServeError> {
    let record = meta.to_record(checkpoint);
    data.save_sub(id, &record)?;
    ServerMetrics::inc(&shared.metrics.snapshots_total);
    if let Some(repl) = shared.repl.as_ref() {
        repl.offer_sub(id, &record);
    }
    Ok(())
}
