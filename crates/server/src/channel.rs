//! One feed path.  A [`Channel`] is a named, schema-typed input feed plus
//! its durable state, and this module holds the only implementation of
//! each step of a frame's life:
//!
//! 1. **validate** — payload lines → typed rows ([`Channel::parse_rows`]);
//! 2. **commit** — WAL append, its counters, histograms and spans, and the
//!    offer to the replication queue ([`Channel::commit`]);
//! 3. **fan out** — each row to every subscription on the channel that
//!    has not seen it yet ([`fan_out`]);
//! 4. **snapshot** — every subscription's checkpoint to disk, then WAL
//!    truncation below the low-water mark ([`Channel::snapshot`]);
//! 5. **sync** — `fsync` plus everything a finished fsync owes
//!    ([`Channel::sync`]).
//!
//! The three ways a frame arrives compose those steps and add nothing of
//! their own to them: a live `FEED` is validate → commit → fan out →
//! (snapshot) ([`Channel::ingest`]); recovery and standby promotion
//! replay WAL frames as validate → fan out, then snapshot
//! ([`Channel::replay`]); a standby's `REPL FRAME` is validate → commit
//! ([`crate::replicate`]).  Drain, `CHECKPOINT … DURABLE` and promotion
//! call steps 4 and 5 directly.
//!
//! ## Lock order
//!
//! Each channel has one *persist* lock ([`Channel::lock`]) held across
//! commit, fan-out and snapshot, so WAL order is feed order and the
//! durable copy lands before any subscriber sees a row.  A holder of a
//! persist lock may take the server's subscription registry
//! ([`Shared::members`]) and then a worker's session lock — never the
//! reverse, and never two persist locks at once.

use crate::metrics::{LatencyOp, ServerMetrics};
use crate::recover::{DataDir, ServeError, SubMeta};
use crate::replicate::{ReplAck, SYNC_ACK_TIMEOUT};
use crate::server::{err, Role, Shared};
use crate::wal::{ChannelWal, FsyncPolicy, GroupCommit, WalError, WalFrame, WalScan};
use sqlts_core::{
    Instrument, SessionCheckpoint, SessionWorker, SessionWorkerConfig, SetRegistry, SharedSpec,
    WorkerError,
};
use sqlts_relation::{parse_headerless_row, CsvError, Schema, Value};
use sqlts_trace::Level;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One standing query over one channel, owned by the connection that
/// created it (0 for recovered subscriptions, which no disconnect reaps).
pub(crate) struct Subscription {
    pub id: String,
    pub worker: SessionWorker,
    pub conn: u64,
    /// Channel, join-time row/record base and SQL — exactly what a
    /// durable server persists beside the checkpoint.
    pub meta: SubMeta,
    /// First channel row the worker had *not* seen when it was spawned:
    /// the join ordinal of a live subscription, the snapshot's ordinal
    /// after recovery.  Fan-out delivers nothing below it.
    resume_at: u64,
    /// Set by the first live frame this subscription rejects a row of, so
    /// a latched subscription is logged (and snapshotted) once, not on
    /// every frame.
    trip_logged: AtomicBool,
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
    persist: Mutex<Persist>,
    /// Group-commit coordinator for `--fsync group` (idle otherwise).
    group: GroupCommit,
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
            persist: Mutex::new(Persist {
                rows_total: wal.as_ref().map_or(0, ChannelWal::rows_total),
                wal,
                frames_since_snapshot: 0,
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
    /// to the channel's registry.
    pub fn join(
        &self,
        shared: &Shared,
        id: &str,
        conn: u64,
        meta: SubMeta,
        resume_from: Option<SessionCheckpoint>,
    ) -> Result<Subscription, WorkerError> {
        let mut config = SessionWorkerConfig::new(id, &meta.sql, self.schema.clone());
        config.stream.exec.engine = shared.config.engine;
        config.stream.exec.governor = shared.config.governor.clone();
        config.stream.exec.instrument = Instrument::profiling();
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
        let worker = SessionWorker::spawn(config)?;
        Ok(Subscription {
            id: id.to_string(),
            resume_at: meta.resume_ordinal(worker.records()),
            worker,
            conn,
            meta,
            trip_logged: AtomicBool::new(false),
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

    /// Step 2: make one validated frame part of the channel — appended to
    /// the WAL when there is one, counted, and offered to the standby.
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
            // The fsync (when the policy took one) is inside append's
            // wall time; split it out so the two histograms answer
            // different questions.
            let fsync_ns = wal.take_fsync_ns();
            shared
                .metrics
                .latency
                .record_ns(LatencyOp::WalAppend, append_ns.saturating_sub(fsync_ns));
            let synced = match appended {
                Ok(synced) => synced,
                Err(e) => {
                    let error = e.to_string();
                    shared.span_end(Level::Debug, "wal_append", span, &[("error", &error)]);
                    return Err(e);
                }
            };
            ServerMetrics::inc(&shared.metrics.wal_appends_total);
            if synced {
                self.synced(shared, wal.rows_total(), fsync_ns);
                if let Some(log) = shared.log_at(Level::Debug) {
                    let fields = [
                        ("channel", self.name.as_str()),
                        ("ns", &fsync_ns.to_string()),
                    ];
                    log.event(Level::Debug, "fsync", &fields);
                }
            }
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
            wal.sync()?;
            let fsync_ns = wal.take_fsync_ns();
            self.synced(shared, wal.rows_total(), fsync_ns);
        }
        Ok(())
    }

    /// What every finished fsync owes: the counter, the histogram sample,
    /// and the durable watermark group-commit waiters sleep on.
    fn synced(&self, shared: &Shared, watermark: u64, fsync_ns: u64) {
        ServerMetrics::inc(&shared.metrics.wal_fsyncs_total);
        shared.metrics.latency.record_ns(LatencyOp::Fsync, fsync_ns);
        self.group.publish_synced(watermark);
    }

    /// Sync, then unlink every closed WAL segment wholly below
    /// `low_water`.  Best-effort: a failure leaves the WAL longer than
    /// necessary, never inconsistent.
    pub fn truncate_below(&self, shared: &Shared, persist: &mut Persist, low_water: u64) -> bool {
        let truncated = self.sync(shared, persist).is_ok()
            && persist
                .wal
                .as_mut()
                .is_some_and(|wal| matches!(wal.truncate_below(low_water), Ok(true)));
        if truncated {
            ServerMetrics::inc(&shared.metrics.wal_truncations_total);
        }
        truncated
    }

    /// Step 4: snapshot every subscription on the channel (atomic
    /// tmp+rename each), then truncate the WAL below the low-water mark —
    /// the minimum ordinal any snapshot still needs.  `parent` nests the
    /// span under the operation that forced it (0 for a top-level pass).
    pub fn snapshot(&self, shared: &Shared, persist: &mut Persist, parent: u64) {
        persist.frames_since_snapshot = 0;
        let Some(data) = shared.data.as_ref() else {
            return;
        };
        if shared.role() == Role::Standby {
            // A standby has durable sub metas but no live workers: the
            // sweep below would see none and truncate frames promotion
            // still needs.  Standby truncation is driven by the primary's
            // shipped checkpoints instead.  (A promoting server snapshots:
            // its replay has just respawned the workers.)
            return;
        }
        let started = Instant::now();
        let span = shared.span_begin(Level::Debug, "snapshot", parent, &[("channel", &self.name)]);
        let members = shared.members(&self.name);
        // `None` once any subscription failed to snapshot (finished,
        // poisoned, disk error): it keeps its WAL rows, so nothing is
        // truncated this round.
        let mut low_water = Some(persist.rows_total);
        for sub in &members {
            let covered = match sub.worker.snapshot_with_records() {
                Ok((text, records)) if save_checkpoint(shared, data, &sub.id, &text).is_ok() => {
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
    /// the persist lock — then, off-lock, wait out whatever the fsync and
    /// replication policies still owe the feeder before it may be told
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
        let members = shared.members(&self.name);
        let span = shared.log_at(Level::Debug).map_or(0, |log| {
            let fields = [
                ("channel", self.name.as_str()),
                ("rows", &nrows.to_string()),
                ("subs", &members.len().to_string()),
            ];
            log.begin(Level::Debug, "fanout", parent, &fields)
        });
        let fanout_started = Instant::now();
        let (_, rejections) = fan_out(&members, start, rows);
        let rejected: u64 = rejections.iter().sum();
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
        ServerMetrics::add(
            &shared.metrics.rows_fed_total,
            nrows as u64 * members.len() as u64,
        );
        // A governed/overflowed subscription stays latched — its partial
        // result is delivered at UNSUBSCRIBE — and the feed keeps flowing
        // to the healthy ones.  Its first rejection is a warn-level event
        // (durable or not); repeats are steady state and stay quiet.
        let mut fresh_trip = false;
        for (sub, _) in members.iter().zip(&rejections).filter(|(_, n)| **n > 0) {
            if !sub.trip_logged.swap(true, Ordering::Relaxed) {
                fresh_trip = true;
                shared.span_event(
                    Level::Warn,
                    "governor_trip",
                    &[("sub", &sub.id), ("channel", &self.name)],
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
        // Group commit: the append above did not sync.  Wait (off-lock, so
        // concurrent FEEDs can pile their appends into the same batch)
        // until a leader's single fsync covers this frame's rows.
        if let (true, FsyncPolicy::Group { window_us }) = (durable, shared.config.fsync) {
            let window = Duration::from_micros(u64::from(window_us));
            let lead = || {
                let mut persist = self.lock().map_err(|e| e.to_string())?;
                self.sync(shared, &mut persist).map_err(|e| e.to_string())?;
                Ok(persist.rows_total)
            };
            // On failure the rows were appended but are not durable; the
            // feeder must not treat them as accepted.  (Recovery truncates
            // or replays them consistently either way.)
            self.group
                .wait_durable(end, window, lead)
                .map_err(|e| err(4, format!("group fsync on '{}': {e}", self.name)))?;
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
        Ok(Ingest {
            subs: members.len(),
            rejected,
        })
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
        let members = shared.members(&self.name);
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
            let (ok, rejections) = fan_out(&members, frame.start, rows);
            accepted += ok;
            rejected += rejections.iter().sum::<u64>();
        }
        ServerMetrics::add(&shared.metrics.rows_fed_total, accepted + rejected);
        self.snapshot(shared, &mut persist, 0);
        Ok((accepted, rejected))
    }
}

/// Step 3: deliver `rows` — the first at channel ordinal `start` — to
/// every member that has not seen them, row-major so all members observe
/// one row before any sees the next (the shared matcher's memo relies on
/// it).  Each row is moved into the last member due it; only the members
/// before that get a clone.  Returns the accepted delivery count and, per
/// member, how many rows it rejected; a rejecting (governed, overflowed,
/// poisoned) member stays latched and never stops the rest.
fn fan_out(members: &[Arc<Subscription>], start: u64, rows: Vec<Vec<Value>>) -> (u64, Vec<u64>) {
    let mut accepted = 0;
    let mut rejections = vec![0; members.len()];
    for (ordinal, row) in (start..).zip(rows) {
        let due = |sub: &Arc<Subscription>| ordinal >= sub.resume_at;
        let Some(last) = members.iter().rposition(due) else {
            continue;
        };
        let mut deliver = |i: usize, row: Vec<Value>| match members[i].worker.feed(row) {
            Ok(()) => accepted += 1,
            Err(_) => rejections[i] += 1,
        };
        for i in (0..last).filter(|&i| due(&members[i])) {
            deliver(i, row.clone());
        }
        deliver(last, row);
    }
    (accepted, rejections)
}

/// Persist one subscription checkpoint, count it, and offer it to the
/// standby — the three things every snapshot site owes, in that order.
pub(crate) fn save_checkpoint(
    shared: &Shared,
    data: &DataDir,
    id: &str,
    text: &str,
) -> Result<(), ServeError> {
    data.save_sub_checkpoint(id, text)?;
    ServerMetrics::inc(&shared.metrics.snapshots_total);
    if let Some(repl) = shared.repl.as_ref() {
        repl.offer_checkpoint(id, text);
    }
    Ok(())
}
