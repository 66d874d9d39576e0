#![warn(missing_docs)]

//! **sqlts-server** — a multi-tenant query server for SQL-TS sequence
//! queries (the reproduction's network layer; the paper's optimizer and
//! engines live in [`sqlts_core`]).
//!
//! The server speaks a length-prefixed framed text protocol over TCP
//! (see [`frame`] for the codec and [`server`] for the verb grammar):
//! clients `OPEN` named, schema-typed input channels, `SUBSCRIBE`
//! standing queries onto them, `FEED` CSV rows that fan out to every
//! subscription on the channel, and collect results with `UNSUBSCRIBE` —
//! partial, exit-coded results when a subscription's resource governor
//! trips.  `CHECKPOINT`/`RESUME` ride the `sqlts-checkpoint v1` codec
//! bit-identically, so a client can disconnect and continue elsewhere.
//! The same port answers HTTP `GET /metrics` with a Prometheus
//! exposition ([`metrics`]): server counters, hot-path latency
//! histograms, live per-tenant gauges and the most recent finished
//! subscriptions' execution profiles — and `GET /status` with the same
//! live state as one JSON document.  With `--log` the server appends a
//! structured span log of its hot path (accept, frame decode, WAL
//! append, fsync, fan-out and each session group's drive within it,
//! snapshot, recovery, drain).  That log is the server's one profiler:
//! `sqlts trace-agg LOG --collapsed FILE` folds its spans into
//! flamegraph-ready stacks such as `serve;dispatch;fanout;session_drive`.
//!
//! With `--data-dir` the server is crash-safe: accepted feeds append to
//! per-channel write-ahead logs ([`wal`]) before fan-out, subscription
//! checkpoints snapshot atomically on a configurable cadence, and a
//! restart recovers channels, subscriptions and in-flight rows
//! byte-identically ([`recover`]).
//!
//! Zero dependencies beyond `std` and the workspace's own crates.

mod channel;
pub mod frame;
pub mod metrics;
pub mod recover;
pub mod replicate;
pub mod server;
pub mod wal;

pub use frame::{read_frame, read_frame_timed, write_frame, FrameEvent, FrameFatal};
pub use metrics::{status_json, LatencyHistograms, LatencyOp, ServerMetrics, SubStatusView};
pub use recover::{DataDir, ServeError, SubMeta};
pub use replicate::{ReplAck, ReplSnapshot};
pub use server::{RecoveryReport, Server, ServerConfig};
// Re-exported so embedders configuring `ServerConfig::log_level` need
// not depend on the trace crate directly.
pub use sqlts_trace::{Level, SpanLog};
pub use wal::{
    read_frames_from, scan_wal, segment_path, ChannelWal, FsyncPolicy, GroupCommit, WalError,
    WalFrame, WalScan,
};
