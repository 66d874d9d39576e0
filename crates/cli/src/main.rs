//! `sqlts` — run SQL-TS sequence queries over CSV files.
//!
//! ```text
//! sqlts --csv quotes.csv --schema 'name:str,date:date,price:float' \
//!       [--engine naive|backtrack|ops|shift-only] [--explain] [--stats] \
//!       [--profile] [--trace FILE.jsonl] [--metrics-format json|prom|text] \
//!       [--threads N] [--strict-previous] \
//!       [--timeout-ms N] [--max-steps N] [--max-matches N] \
//!       "SELECT … FROM … AS (X, *Y, Z) WHERE …"
//!
//! sqlts --demo-djia [--seed N] …     # use the built-in simulated DJIA
//!
//! sqlts serve [--listen ADDR] …      # multi-tenant query server mode
//!
//! sqlts trace-agg IN.jsonl [--collapsed FILE]   # fold --trace / --log
//!                                               # JSONL into a cost tree
//! ```
//!
//! Prints the result as CSV on stdout; `--stats` adds the cost metric on
//! stderr, `--explain` prints the optimizer's θ/φ/shift/next report,
//! `--profile` emits the machine-readable execution profile (see the
//! README's Observability section).
//!
//! Streaming mode: `--follow` reads CSV tuples from stdin and feeds them
//! through a resilient push-based session one at a time; `--checkpoint
//! FILE` saves (and, when the file exists, resumes from) a session
//! checkpoint, `--on-bad-tuple` picks the malformed-input policy, and
//! `--feed-limit N` stops after N tuples without finishing (a
//! deterministic mid-stream kill for recovery drills).
//!
//! Server mode: `sqlts serve` binds a TCP listener speaking the framed
//! SQL-TS subscription protocol (see the README's "Server mode" section)
//! and answers HTTP `GET /metrics` on the same port; `sqlts serve --help`
//! lists its flags.
//!
//! Exit codes: `0` success, `2` usage, `3` input (query compile or CSV
//! ingest), `4` runtime (governed termination or isolated cluster
//! failures — the partial result is still printed), `5` quarantine
//! capacity exceeded.

mod trace_agg;

use sqlts_core::stream::{
    BadTuplePolicy, SessionCheckpoint, StreamError, StreamOptions, StreamSession,
};
use sqlts_core::{
    compile, execute, explain, CompileOptions, CompiledQuery, EngineKind, ExecError, ExecOptions,
    FirstTuplePolicy, Governor, Instrument, QueryResult,
};
use sqlts_relation::{CsvRecords, Schema, Table};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// One accepted command-line flag: the single source of truth for both
/// the parser (membership and arity) and the generated `--help` text, so
/// the two can never drift apart.
struct FlagSpec {
    /// The flag itself (`--engine`).
    name: &'static str,
    /// Metavariable for the flag's value; `None` for boolean flags.
    metavar: Option<&'static str>,
    /// One-line description for `--help`.
    help: &'static str,
}

/// Every flag `sqlts` accepts.  `parse_args` rejects anything not listed
/// here, and `help_text` renders exactly this table.
const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--csv",
        metavar: Some("FILE"),
        help: "read input tuples from a CSV file (requires --schema)",
    },
    FlagSpec {
        name: "--schema",
        metavar: Some("'col:type,…'"),
        help: "column names and types for --csv (types: int, float, str, date)",
    },
    FlagSpec {
        name: "--demo-djia",
        metavar: None,
        help: "use the built-in simulated DJIA table instead of --csv",
    },
    FlagSpec {
        name: "--seed",
        metavar: Some("N"),
        help: "random seed for --demo-djia (default 2001)",
    },
    FlagSpec {
        name: "--engine",
        metavar: Some("naive|backtrack|ops|shift-only"),
        help: "pattern-search engine (default ops)",
    },
    FlagSpec {
        name: "--threads",
        metavar: Some("N"),
        help: "worker threads for cluster-parallel execution (default: all \
               cores; 1 = sequential; output is identical for every N)",
    },
    FlagSpec {
        name: "--timeout-ms",
        metavar: Some("N"),
        help: "abort the query after N milliseconds of wall clock (exit 4, partial result printed)",
    },
    FlagSpec {
        name: "--max-steps",
        metavar: Some("N"),
        help: "abort after N predicate tests, the paper's cost metric (exit 4)",
    },
    FlagSpec {
        name: "--max-matches",
        metavar: Some("N"),
        help: "abort after N retained matches / output rows (exit 4)",
    },
    FlagSpec {
        name: "--explain",
        metavar: None,
        help: "print the optimizer report (theta/phi/S, shift/next) to stderr",
    },
    FlagSpec {
        name: "--stats",
        metavar: None,
        help: "print the cost metric to stderr: the legacy one-line summary \
               plus a per-cluster breakdown",
    },
    FlagSpec {
        name: "--profile",
        metavar: None,
        help: "collect an execution profile and print it to stderr in the \
               --metrics-format encoding",
    },
    FlagSpec {
        name: "--metrics-format",
        metavar: Some("json|prom|text"),
        help: "encoding for the --profile report (default text)",
    },
    FlagSpec {
        name: "--trace",
        metavar: Some("FILE"),
        help: "write the per-cluster search-event stream (Figure 5, \
               machine-readable) to FILE as JSON-lines",
    },
    FlagSpec {
        name: "--trace-capacity",
        metavar: Some("N"),
        help: "retained events per cluster for --trace (default 4096; older \
               events are dropped deterministically)",
    },
    FlagSpec {
        name: "--strict-previous",
        metavar: None,
        help: "make out-of-range `previous` references an error instead of vacuously true",
    },
    FlagSpec {
        name: "--queries",
        metavar: Some("FILE"),
        help: "run every query in FILE (one per line; '#' comments and \
               blank lines skipped) in turn, printing each result as CSV \
               under a '-- query N' header; --stats and --profile report \
               each query under the same header on stderr (not with --trace)",
    },
    FlagSpec {
        name: "--follow",
        metavar: None,
        help: "stream CSV tuples from stdin through a push-based session \
               (requires --schema; result printed at end of input)",
    },
    FlagSpec {
        name: "--checkpoint",
        metavar: Some("FILE"),
        help: "with --follow: resume from FILE if it exists, and save the \
               session checkpoint there periodically and on exit",
    },
    FlagSpec {
        name: "--checkpoint-every",
        metavar: Some("N"),
        help: "with --checkpoint: save every N fed tuples (default 1000)",
    },
    FlagSpec {
        name: "--feed-limit",
        metavar: Some("N"),
        help: "with --follow: stop after the session holds N tuples, saving \
               the checkpoint but NOT finishing (simulates a mid-stream kill)",
    },
    FlagSpec {
        name: "--on-bad-tuple",
        metavar: Some("skip|fail|quarantine:N"),
        help: "with --follow: policy for malformed, unbindable, or \
               out-of-order tuples (default fail; exit 5 when a quarantine \
               of capacity N overflows)",
    },
    FlagSpec {
        name: "--help",
        metavar: None,
        help: "print this help and exit",
    },
];

/// Every flag `sqlts serve` accepts, same single-source-of-truth scheme
/// as [`FLAGS`].
const SERVE_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--listen",
        metavar: Some("ADDR"),
        help: "listen address (default 127.0.0.1:7878; port 0 picks a free port, \
               printed as 'listening on <addr>')",
    },
    FlagSpec {
        name: "--max-subscriptions",
        metavar: Some("N"),
        help: "admission cap on concurrently live subscriptions (default 64)",
    },
    FlagSpec {
        name: "--max-frame-bytes",
        metavar: Some("N"),
        help: "largest accepted protocol frame; bigger frames get ERR 2 and \
               are skipped (default 1048576)",
    },
    FlagSpec {
        name: "--timeout-ms",
        metavar: Some("N"),
        help: "default wall-clock budget per subscription (a stalled one is \
               seen tripped by the next STATUS, CHECKPOINT, UNSUBSCRIBE or \
               scrape; no FEED needed)",
    },
    FlagSpec {
        name: "--max-steps",
        metavar: Some("N"),
        help: "default predicate-test budget per subscription",
    },
    FlagSpec {
        name: "--max-matches",
        metavar: Some("N"),
        help: "default retained-match budget per subscription",
    },
    FlagSpec {
        name: "--engine",
        metavar: Some("naive|backtrack|ops|shift-only"),
        help: "engine for fresh subscriptions; RESUME adopts the checkpoint's \
               engine (default ops)",
    },
    FlagSpec {
        name: "--retain-profiles",
        metavar: Some("N"),
        help: "finished subscription profiles kept for /metrics (default 32)",
    },
    FlagSpec {
        name: "--data-dir",
        metavar: Some("DIR"),
        help: "durable state directory: feeds append to per-channel WALs \
               before fan-out, checkpoints snapshot atomically, and a restart \
               with the same DIR recovers byte-identically (default: none, \
               fully in-memory)",
    },
    FlagSpec {
        name: "--fsync",
        metavar: Some("every|group[:us]|off"),
        help: "with --data-dir: WAL fsync policy — group commit (a FEED is \
               acknowledged once an fsync covers it; FEEDs inside a window of \
               'us' microseconds, default 500, share one fsync; survives power \
               loss), every (default: group commit with no window), or left to \
               the OS (still survives a killed process)",
    },
    FlagSpec {
        name: "--wal-segment-bytes",
        metavar: Some("N"),
        help: "with --data-dir: roll the per-channel WAL to a new segment \
               file past N bytes; truncation unlinks whole closed segments \
               and never rewrites bytes (default 1048576)",
    },
    FlagSpec {
        name: "--replicate-to",
        metavar: Some("HOST:PORT"),
        help: "with --data-dir: stream every committed WAL frame (plus \
               channel schemas and subscription records) to the standby \
               listening there; /metrics gains sqlts_repl_* series",
    },
    FlagSpec {
        name: "--repl-ack",
        metavar: Some("sync|async"),
        help: "with --replicate-to: sync blocks each FEED ack until the \
               standby acknowledges the frame (degrades to async, counted, \
               if the standby is away); async acks after the local append \
               (default async)",
    },
    FlagSpec {
        name: "--standby",
        metavar: None,
        help: "with --data-dir: run as a warm standby — accept a primary's \
               replication stream, serve read-only STATUS and /metrics, and \
               refuse mutating verbs until PROMOTE (verb, or SIGUSR1)",
    },
    FlagSpec {
        name: "--promote-on-disconnect",
        metavar: None,
        help: "with --standby: promote automatically when the primary's \
               replication connection drops",
    },
    FlagSpec {
        name: "--checkpoint-every-frames",
        metavar: Some("N"),
        help: "with --data-dir: snapshot every subscription after N FEED \
               frames on its channel, then truncate the WAL behind the \
               snapshots (default 64)",
    },
    FlagSpec {
        name: "--log",
        metavar: Some("FILE"),
        help: "append a structured span log of the server hot path (accept, \
               frame decode, WAL append, fsync, fan-out and each session \
               group's drive, snapshot, recovery, drain) to FILE; \
               `sqlts trace-agg FILE --collapsed OUT` folds it into \
               flamegraph-ready stacks",
    },
    FlagSpec {
        name: "--log-level",
        metavar: Some("error|warn|info|debug"),
        help: "span log filter; debug includes per-frame spans (default info)",
    },
    FlagSpec {
        name: "--log-rotate-bytes",
        metavar: Some("N"),
        help: "rotate the span log to FILE.1 past N bytes, keeping at most \
               two generations (default 0 = never rotate)",
    },
    FlagSpec {
        name: "--slow-frame-ms",
        metavar: Some("N"),
        help: "log a warn-level slow_frame event for any frame whose decode \
               plus dispatch exceeds N milliseconds",
    },
    FlagSpec {
        name: "--shared-matcher",
        metavar: Some("on|off"),
        help: "share one pattern-set pass across a channel's subscriptions: \
               aligned queries pool predicate tests through a shared memo, \
               per-subscription results stay byte-identical; /metrics gains \
               sqlts_patternset_* counters (default off)",
    },
    FlagSpec {
        name: "--help",
        metavar: None,
        help: "print this help and exit",
    },
];

/// How `--profile` serializes the execution profile.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum MetricsFormat {
    #[default]
    Text,
    Json,
    Prom,
}

struct Args {
    csv: Option<PathBuf>,
    schema: Option<String>,
    demo_djia: bool,
    seed: u64,
    engine: EngineKind,
    explain: bool,
    stats: bool,
    profile: bool,
    metrics_format: MetricsFormat,
    trace: Option<PathBuf>,
    trace_capacity: usize,
    strict_previous: bool,
    threads: NonZeroUsize,
    timeout_ms: Option<u64>,
    max_steps: Option<u64>,
    max_matches: Option<u64>,
    follow: bool,
    queries: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    feed_limit: Option<u64>,
    bad_tuple: BadTuplePolicy,
    query: Option<String>,
}

/// Default worker count: one per available core, `1` when the platform
/// cannot say (which is also the exact legacy sequential path).
fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Render the full help text from the flag table.
fn help_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "usage: sqlts [FLAGS] QUERY\n\
         \n\
         Run a SQL-TS sequence query (PODS 2001) over a CSV file or the\n\
         built-in demo table; the result is printed as CSV on stdout.\n\
         \n\
         flags:\n",
    );
    let width = FLAGS
        .iter()
        .map(|f| f.name.len() + f.metavar.map_or(0, |m| m.len() + 1))
        .max()
        .unwrap_or(0);
    for f in FLAGS {
        let lhs = match f.metavar {
            Some(m) => format!("{} {m}", f.name),
            None => f.name.to_string(),
        };
        let _ = writeln!(out, "  {lhs:width$}  {}", f.help);
    }
    out.push_str(
        "\nexample:\n\
         \x20 sqlts --demo-djia --stats \\\n\
         \x20   \"SELECT FIRST(Y).date AS from_d, Z.date AS to_d FROM djia SEQUENCE BY date \\\n\
         \x20    AS (*Y, Z) WHERE Y.price < Y.previous.price AND Z.price > Z.previous.price\"\n\
         \n\
         exit codes: 0 success, 2 usage, 3 input (compile/CSV), 4 runtime\n\
         (governed termination or isolated cluster failures; the partial\n\
         result is still printed), 5 quarantine capacity exceeded\n",
    );
    out
}

fn usage() -> ! {
    eprint!("{}", help_text());
    std::process::exit(2)
}

/// Parse a flag's numeric value, exiting with usage (never panicking) on
/// a malformed or absent one.
fn numeric<T: std::str::FromStr>(v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

/// Require a flag's string value (present for every flag with a metavar;
/// exits with usage rather than panicking if the invariant ever breaks).
fn req(v: Option<String>) -> String {
    v.unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args {
        csv: None,
        schema: None,
        demo_djia: false,
        seed: 2001,
        engine: EngineKind::Ops,
        explain: false,
        stats: false,
        profile: false,
        metrics_format: MetricsFormat::Text,
        trace: None,
        trace_capacity: Instrument::DEFAULT_TRACE_CAPACITY,
        strict_previous: false,
        threads: default_threads(),
        timeout_ms: None,
        max_steps: None,
        max_matches: None,
        follow: false,
        queries: None,
        checkpoint: None,
        checkpoint_every: 1000,
        feed_limit: None,
        bad_tuple: BadTuplePolicy::Fail,
        query: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let name = if arg == "-h" { "--help" } else { arg.as_str() };
        let Some(spec) = FLAGS.iter().find(|f| f.name == name) else {
            if !arg.starts_with('-') && args.query.is_none() {
                args.query = Some(arg);
                continue;
            }
            usage();
        };
        // The table drives arity: flags with a metavar consume one value.
        let value = spec.metavar.map(|_| it.next().unwrap_or_else(|| usage()));
        match name {
            "--csv" => args.csv = Some(PathBuf::from(req(value))),
            "--schema" => args.schema = value,
            "--demo-djia" => args.demo_djia = true,
            "--seed" => args.seed = numeric(value),
            "--engine" => {
                args.engine = value
                    .as_deref()
                    .and_then(EngineKind::from_name)
                    .unwrap_or_else(|| usage())
            }
            "--threads" => args.threads = numeric(value),
            "--timeout-ms" => args.timeout_ms = Some(numeric(value)),
            "--max-steps" => args.max_steps = Some(numeric(value)),
            "--max-matches" => args.max_matches = Some(numeric(value)),
            "--explain" => args.explain = true,
            "--stats" => args.stats = true,
            "--profile" => args.profile = true,
            "--metrics-format" => {
                args.metrics_format = match value.as_deref() {
                    Some("json") => MetricsFormat::Json,
                    Some("prom") => MetricsFormat::Prom,
                    Some("text") => MetricsFormat::Text,
                    _ => usage(),
                }
            }
            "--trace" => args.trace = Some(PathBuf::from(req(value))),
            "--trace-capacity" => args.trace_capacity = numeric(value),
            "--strict-previous" => args.strict_previous = true,
            "--follow" => args.follow = true,
            "--queries" => args.queries = Some(PathBuf::from(req(value))),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(req(value))),
            "--checkpoint-every" => args.checkpoint_every = numeric(value),
            "--feed-limit" => args.feed_limit = Some(numeric(value)),
            "--on-bad-tuple" => {
                args.bad_tuple = match value.as_deref() {
                    Some("skip") => BadTuplePolicy::Skip,
                    Some("fail") => BadTuplePolicy::Fail,
                    Some(v) => match v.strip_prefix("quarantine:").and_then(|n| n.parse().ok()) {
                        Some(cap) => BadTuplePolicy::Quarantine { cap },
                        None => usage(),
                    },
                    None => usage(),
                }
            }
            "--help" => {
                print!("{}", help_text());
                std::process::exit(0)
            }
            _ => unreachable!("flag in table without a parse arm: {name}"),
        }
    }
    args
}

fn serve_help_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "usage: sqlts serve [FLAGS]\n\
         \n\
         Run the multi-tenant SQL-TS query server: a framed TCP protocol\n\
         (OPEN / SUBSCRIBE / FEED / CHECKPOINT / RESUME / UNSUBSCRIBE over\n\
         shared named input channels) plus HTTP GET /metrics on the same\n\
         port.  See the README's \"Server mode\" section for the protocol\n\
         grammar and a walkthrough.\n\
         \n\
         flags:\n",
    );
    let width = SERVE_FLAGS
        .iter()
        .map(|f| f.name.len() + f.metavar.map_or(0, |m| m.len() + 1))
        .max()
        .unwrap_or(0);
    for f in SERVE_FLAGS {
        let lhs = match f.metavar {
            Some(m) => format!("{} {m}", f.name),
            None => f.name.to_string(),
        };
        let _ = writeln!(out, "  {lhs:width$}  {}", f.help);
    }
    out
}

fn serve_usage() -> ! {
    eprint!("{}", serve_help_text());
    std::process::exit(2)
}

/// The `serve` subcommand: parse its flag table, bind, announce the
/// resolved address on stdout (tests and scripts parse this line), and
/// serve until killed.
fn run_serve() -> Result<(), CliError> {
    let mut config = sqlts_server::ServerConfig {
        listen: "127.0.0.1:7878".into(),
        ..sqlts_server::ServerConfig::default()
    };
    let mut timeout_ms: Option<u64> = None;
    let mut max_steps: Option<u64> = None;
    let mut max_matches: Option<u64> = None;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let name = if arg == "-h" { "--help" } else { arg.as_str() };
        let Some(spec) = SERVE_FLAGS.iter().find(|f| f.name == name) else {
            serve_usage();
        };
        let value = spec
            .metavar
            .map(|_| it.next().unwrap_or_else(|| serve_usage()));
        match name {
            "--listen" => config.listen = value.unwrap_or_else(|| serve_usage()),
            "--max-subscriptions" => config.max_subscriptions = serve_numeric(value),
            "--max-frame-bytes" => config.max_frame_bytes = serve_numeric(value),
            "--timeout-ms" => timeout_ms = Some(serve_numeric(value)),
            "--max-steps" => max_steps = Some(serve_numeric(value)),
            "--max-matches" => max_matches = Some(serve_numeric(value)),
            "--engine" => {
                config.engine = value
                    .as_deref()
                    .and_then(EngineKind::from_name)
                    .unwrap_or_else(|| serve_usage())
            }
            "--retain-profiles" => config.retain_profiles = serve_numeric(value),
            "--data-dir" => {
                config.data_dir = Some(PathBuf::from(value.unwrap_or_else(|| serve_usage())))
            }
            "--fsync" => {
                config.fsync = value
                    .as_deref()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| serve_usage())
            }
            "--wal-segment-bytes" => config.wal_segment_bytes = serve_numeric::<u64>(value).max(1),
            "--replicate-to" => config.replicate_to = Some(value.unwrap_or_else(|| serve_usage())),
            "--repl-ack" => {
                config.repl_ack = value
                    .as_deref()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| serve_usage())
            }
            "--standby" => config.standby = true,
            "--promote-on-disconnect" => config.promote_on_disconnect = true,
            "--checkpoint-every-frames" => {
                config.checkpoint_every_frames = serve_numeric::<u64>(value).max(1)
            }
            "--log" => {
                config.log_file = Some(PathBuf::from(value.unwrap_or_else(|| serve_usage())))
            }
            "--log-level" => {
                config.log_level = value
                    .as_deref()
                    .and_then(sqlts_server::Level::parse)
                    .unwrap_or_else(|| serve_usage())
            }
            "--log-rotate-bytes" => config.log_rotate_bytes = serve_numeric(value),
            "--slow-frame-ms" => config.slow_frame_ms = Some(serve_numeric(value)),
            "--shared-matcher" => {
                config.shared_matcher = match value.as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => serve_usage(),
                }
            }
            "--help" => {
                print!("{}", serve_help_text());
                std::process::exit(0)
            }
            _ => unreachable!("serve flag in table without a parse arm: {name}"),
        }
    }
    let mut governor = Governor::unlimited();
    if let Some(ms) = timeout_ms {
        governor = governor.with_timeout(Duration::from_millis(ms));
    }
    if let Some(n) = max_steps {
        governor = governor.with_max_steps(n);
    }
    if let Some(n) = max_matches {
        governor = governor.with_max_matches(n);
    }
    config.governor = governor;
    let replicate_to = config.replicate_to.clone();
    let repl_ack = config.repl_ack;
    let promote_on_disconnect = config.promote_on_disconnect;
    let server = std::sync::Arc::new(sqlts_server::Server::bind(config).map_err(serve_error)?);
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Runtime(format!("local_addr: {e}")))?;
    if let Some(report) = server.recovery() {
        for note in &report.notes {
            eprintln!("recovery: {note}");
        }
        println!(
            "recovered {} channel(s), {} subscription(s), {} row(s) replayed",
            report.channels, report.subscriptions, report.rows_replayed
        );
    }
    if server.is_standby() {
        println!(
            "standby: read-only until PROMOTE or SIGUSR1{}",
            if promote_on_disconnect {
                " (auto-promotes if the primary disconnects)"
            } else {
                ""
            }
        );
    }
    if let Some(target) = replicate_to {
        println!("replicating to {target} ({repl_ack} acks)");
    }
    // Stdout is line-buffered, so this announcement reaches pipes
    // immediately — drivers wait for it before connecting.
    println!("listening on {addr}");
    install_shutdown_handler();
    let promoter = install_promotion_relay(std::sync::Arc::clone(&server));
    server
        .run_until(&SHUTDOWN)
        .map_err(|e| CliError::Runtime(format!("server: {e}")))?;
    if let Some(handle) = promoter {
        let _ = handle.join();
    }
    println!("drained");
    Ok(())
}

/// Classify a server bind/recovery failure onto the CLI's exit codes:
/// unusable configuration (bad address, locked/unwritable data dir) is
/// usage (2), untrustworthy durable state is input (3), the rest runtime.
fn serve_error(e: sqlts_server::ServeError) -> CliError {
    match e.exit_code() {
        2 => CliError::Usage(e.message().to_string()),
        3 => CliError::Input(e.message().to_string()),
        _ => CliError::Runtime(e.message().to_string()),
    }
}

/// Set when SIGTERM/SIGINT arrives; `serve` drains and exits 0.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Arrange for SIGTERM and SIGINT (Ctrl-C) to request a graceful drain.
/// A raw `signal(2)` binding keeps this `std`-only; the handler does
/// nothing but store to an atomic, which is async-signal-safe.
/// `run_until` polls the flag on its own thread while a separate acceptor
/// blocks in `accept()` (which `signal(2)`'s `SA_RESTART` would simply
/// restart), so no EINTR dance is needed.
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

/// Set by SIGUSR1: the operator is asking a standby to promote.
static PROMOTE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Arrange for SIGUSR1 to promote a standby: the signal handler only
/// stores to an atomic (async-signal-safe); a relay thread forwards the
/// flag to [`Server::request_promotion`], which `run_until` serves.
/// Returns the relay thread's handle so the drain can join it.
#[cfg(unix)]
fn install_promotion_relay(
    server: std::sync::Arc<sqlts_server::Server>,
) -> Option<std::thread::JoinHandle<()>> {
    use std::sync::atomic::Ordering;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: i32) {
        PROMOTE.store(true, Ordering::SeqCst);
    }
    const SIGUSR1: i32 = 10;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGUSR1, handler);
    }
    std::thread::Builder::new()
        .name("sqlts-promote-relay".into())
        .spawn(move || {
            while !SHUTDOWN.load(Ordering::SeqCst) {
                if PROMOTE.swap(false, Ordering::SeqCst) {
                    server.request_promotion();
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
        .ok()
}

#[cfg(not(unix))]
fn install_promotion_relay(
    _server: std::sync::Arc<sqlts_server::Server>,
) -> Option<std::thread::JoinHandle<()>> {
    None
}

/// Like [`numeric`] but exits through the serve-mode usage text.
fn serve_numeric<T: std::str::FromStr>(v: Option<String>) -> T {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| serve_usage())
}

/// Every way a run can fail, unified so one printer renders the
/// diagnostic and one place maps failures to exit codes.
enum CliError {
    /// Unusable invocation or configuration (exit 2): bad listen
    /// address, locked or unwritable `--data-dir`.
    Usage(String),
    /// Bad query or bad input data (exit 3): compile errors (already
    /// caret-rendered), CSV ingest errors, schema-spec errors.
    Input(String),
    /// The query started but was cut short (exit 4): governed
    /// termination or isolated cluster failures.  Whatever partial
    /// result existed has already been printed to stdout.
    Runtime(String),
    /// A `--follow` quarantine reached its capacity (exit 5).
    Quarantine(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Runtime(_) => 4,
            CliError::Quarantine(_) => 5,
        }
    }

    /// The same failure, its message prefixed with `context`.
    fn prefixed(self, context: &str) -> CliError {
        match self {
            CliError::Usage(m) => CliError::Usage(format!("{context}{m}")),
            CliError::Input(m) => CliError::Input(format!("{context}{m}")),
            CliError::Runtime(m) => CliError::Runtime(format!("{context}{m}")),
            CliError::Quarantine(m) => CliError::Quarantine(format!("{context}{m}")),
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Input(m)
            | CliError::Runtime(m)
            | CliError::Quarantine(m) => m,
        }
    }
}

fn build_governor(args: &Args) -> Governor {
    let mut governor = Governor::unlimited();
    if let Some(ms) = args.timeout_ms {
        governor = governor.with_timeout(Duration::from_millis(ms));
    }
    if let Some(steps) = args.max_steps {
        governor = governor.with_max_steps(steps);
    }
    if let Some(matches) = args.max_matches {
        governor = governor.with_max_matches(matches);
    }
    governor
}

/// Which instrumentation the requested flags need: `--trace` retains
/// events, `--profile` and `--stats` need the metrics registry.
fn build_instrument(args: &Args) -> Instrument {
    Instrument {
        profile: args.profile || args.stats || args.trace.is_some(),
        trace: args.trace.is_some(),
        trace_capacity: args.trace_capacity,
    }
}

/// Print a result: CSV on stdout, then whatever the flags asked for on
/// stderr.  Shared by the batch path and the `--follow` path (a partial
/// governed result is still worth printing — callers see every match
/// produced before the cut).
fn emit_result(args: &Args, result: &QueryResult) -> Result<(), CliError> {
    print!("{}", result.table.to_csv_string());
    if args.stats {
        // Legacy single-line summary, byte-compatible with older releases…
        eprintln!("{}", result.stats);
        // …plus the per-cluster breakdown the profile now carries.
        if let Some(profile) = &result.profile {
            for c in &profile.clusters {
                let key = if c.key.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", c.key)
                };
                eprintln!(
                    "  cluster {}{}: {} tuples, {} tests {:?}, {} matches",
                    c.index,
                    key,
                    c.tuples,
                    c.metrics.total_tests(),
                    c.metrics.tests_per_position,
                    c.metrics.matches,
                );
            }
        }
    }
    if let Some(profile) = &result.profile {
        if args.profile {
            match args.metrics_format {
                MetricsFormat::Text => eprint!("{}", profile.to_text()),
                MetricsFormat::Json => eprintln!("{}", profile.to_json()),
                MetricsFormat::Prom => eprint!("{}", profile.to_prometheus()),
            }
        }
        if let Some(path) = &args.trace {
            sqlts_core::atomic_write(path, profile.events_jsonl().as_bytes())
                .map_err(|e| CliError::Runtime(format!("{}: {e}", path.display())))?;
        }
    }
    for failure in &result.partial {
        eprintln!("error: {failure}");
    }
    Ok(())
}

/// Snapshot the session and write the checkpoint text to `path`
/// atomically (tmp+rename), so a crash mid-write can never tear the
/// previous good checkpoint — the one file whose whole job is to
/// survive crashes.
fn save_checkpoint(session: &mut StreamSession, path: &Path) -> Result<(), CliError> {
    let checkpoint = session
        .snapshot()
        .map_err(|e| CliError::Runtime(format!("checkpoint: {e}")))?;
    sqlts_core::atomic_write(path, checkpoint.to_text().as_bytes())
        .map_err(|e| CliError::Runtime(format!("{}: {e}", path.display())))
}

/// Close the stream and report: print the (possibly partial) result, note
/// skipped/quarantined input, and map a governed trip to exit 4.
fn finish_and_report(args: &Args, session: StreamSession) -> Result<(), CliError> {
    let skipped = session.skipped();
    let quarantined = session.quarantine().len();
    let outcome = session.finish();
    if skipped > 0 {
        eprintln!("{skipped} bad tuple(s) skipped");
    }
    if quarantined > 0 {
        eprintln!("{quarantined} bad tuple(s) quarantined");
    }
    match outcome {
        Ok(result) => emit_result(args, &result),
        Err(StreamError::Governed { trip, partial }) => {
            if let Some(partial) = partial {
                emit_result(args, &partial)?;
            }
            Err(CliError::Runtime(format!(
                "stream terminated by resource governor: {trip} (partial result printed)"
            )))
        }
        Err(e) => Err(CliError::Runtime(e.to_string())),
    }
}

/// The `--follow` driver: feed stdin CSV records through a streaming
/// session, checkpointing as configured.
fn run_follow(
    args: &Args,
    query: &sqlts_core::CompiledQuery,
    exec: ExecOptions,
) -> Result<(), CliError> {
    let options = StreamOptions {
        exec,
        bad_tuple: args.bad_tuple,
    };
    let mut session = match &args.checkpoint {
        Some(path) if path.exists() => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Input(format!("{}: {e}", path.display())))?;
            let checkpoint = SessionCheckpoint::from_text(&text)
                .map_err(|e| CliError::Input(format!("{}: {e}", path.display())))?;
            eprintln!(
                "resuming from {} ({} records already processed)",
                path.display(),
                checkpoint.records()
            );
            StreamSession::resume(query, options, checkpoint)
                .map_err(|e| CliError::Input(e.to_string()))?
        }
        _ => StreamSession::new(query, options).map_err(|e| CliError::Input(e.to_string()))?,
    };

    let stdin = std::io::stdin();
    let records = CsvRecords::new(query.schema.clone(), stdin.lock())
        .map_err(|e| CliError::Input(format!("stdin: {e}")))?;
    let mut since_save = 0u64;
    for item in records {
        let step = match item {
            Ok(row) => session.feed(row),
            // A line the CSV reader itself rejected goes through the same
            // skip/fail/quarantine policy as an unbindable tuple.
            Err(e) => session.quarantine_external(e.to_string(), String::new()),
        };
        match step {
            Ok(()) => {}
            Err(StreamError::Governed { .. }) => {
                if let Some(path) = &args.checkpoint {
                    save_checkpoint(&mut session, path)?;
                    eprintln!("checkpoint saved to {}", path.display());
                }
                return finish_and_report(args, session);
            }
            Err(StreamError::QuarantineFull { cap, tuple }) => {
                return Err(CliError::Quarantine(format!(
                    "quarantine full (cap {cap}); rejected {tuple}"
                )))
            }
            Err(StreamError::BadTuple(tuple)) => {
                return Err(CliError::Input(format!("bad tuple at {tuple}")))
            }
            Err(e) => return Err(CliError::Runtime(e.to_string())),
        }
        since_save += 1;
        if let Some(limit) = args.feed_limit {
            if session.records() >= limit {
                if let Some(path) = &args.checkpoint {
                    save_checkpoint(&mut session, path)?;
                }
                eprintln!(
                    "feed limit reached at {} records; stream left unfinished",
                    session.records()
                );
                return Ok(());
            }
        }
        if let Some(path) = &args.checkpoint {
            if since_save >= args.checkpoint_every {
                save_checkpoint(&mut session, path)?;
                since_save = 0;
            }
        }
    }
    if let Some(path) = &args.checkpoint {
        save_checkpoint(&mut session, path)?;
    }
    finish_and_report(args, session)
}

/// Execute one compiled query over `table` and print its result: the
/// batch path of a positional query and of every `--queries` entry.
fn run_batch_query(
    args: &Args,
    src: &str,
    query: &CompiledQuery,
    table: &Table,
    exec: &ExecOptions,
) -> Result<(), CliError> {
    let (result, trip) = match execute(query, table, exec) {
        Ok(result) => (result, None),
        Err(ExecError::Governed { trip, partial }) => (*partial, Some(trip)),
        Err(ExecError::Lang(e)) => return Err(CliError::Input(e.render(src))),
        Err(e @ ExecError::Table(_)) => return Err(CliError::Input(e.to_string())),
    };
    emit_result(args, &result)?;
    if let Some(trip) = trip {
        return Err(CliError::Runtime(format!(
            "query terminated by resource governor: {trip} (partial result printed)"
        )));
    }
    if !result.partial.is_empty() {
        return Err(CliError::Runtime(format!(
            "{} cluster(s) failed; partial result printed",
            result.partial.len()
        )));
    }
    Ok(())
}

/// The `--queries` mode: compile every query in the file, then run each
/// in file order as a positional query would run, its output under a
/// `-- query N` header (on stderr too when `--stats` or `--profile` print
/// there).  Every query runs; the exit code is the first failure's, with
/// its message prefixed by the query number.
fn run_query_set(
    args: &Args,
    path: &Path,
    table: &Table,
    exec: ExecOptions,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("{}: {e}", path.display())))?;
    let sources: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if sources.is_empty() {
        return Err(CliError::Input(format!(
            "{}: no queries (one per line; '#' starts a comment)",
            path.display()
        )));
    }
    let mut compiled = Vec::with_capacity(sources.len());
    for (i, src) in sources.iter().enumerate() {
        let query = compile(src, table.schema(), &exec.compile)
            .map_err(|e| CliError::Input(format!("query {i}: {}", e.render(src))))?;
        compiled.push(query);
    }
    if args.explain {
        for (i, query) in compiled.iter().enumerate() {
            eprintln!("-- query {i}");
            eprintln!("{}", explain(query));
        }
    }
    let mut failure: Option<CliError> = None;
    for (i, (src, query)) in sources.iter().zip(&compiled).enumerate() {
        println!("-- query {i}");
        if args.stats || args.profile {
            eprintln!("-- query {i}");
        }
        if let Err(e) = run_batch_query(args, src, query, table, &exec) {
            failure.get_or_insert(e.prefixed(&format!("query {i}: ")));
        }
    }
    failure.map_or(Ok(()), Err)
}

fn run() -> Result<(), CliError> {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        return run_serve();
    }
    if std::env::args().nth(1).as_deref() == Some("trace-agg") {
        std::process::exit(trace_agg::run_trace_agg().into());
    }
    let args = parse_args();
    // `--queries` replaces the positional QUERY and is a batch-only mode;
    // one `--trace` file cannot hold the traces of several queries.
    if args.queries.is_some() && (args.query.is_some() || args.follow || args.trace.is_some()) {
        usage();
    }

    // Batch modes materialize the whole table up front; `--follow` only
    // needs the schema (tuples arrive on stdin).
    let table: Option<Table> = if args.follow {
        None
    } else if args.demo_djia {
        Some(sqlts_datagen::djia_series(args.seed))
    } else {
        let csv = args.csv.clone().unwrap_or_else(|| usage());
        let schema_spec = args.schema.clone().unwrap_or_else(|| usage());
        let schema = Schema::parse_spec(&schema_spec).map_err(CliError::Input)?;
        Some(
            Table::from_csv_path(schema, &csv)
                .map_err(|e| CliError::Input(format!("{}: {e}", csv.display())))?,
        )
    };
    let schema: Schema = match &table {
        Some(t) => t.schema().clone(),
        None => {
            let schema_spec = args.schema.clone().unwrap_or_else(|| usage());
            Schema::parse_spec(&schema_spec).map_err(CliError::Input)?
        }
    };

    let compile_opts = CompileOptions::default();
    let exec = ExecOptions {
        engine: args.engine,
        policy: if args.strict_previous {
            FirstTuplePolicy::Fail
        } else {
            FirstTuplePolicy::VacuousTrue
        },
        compile: compile_opts,
        threads: args.threads,
        governor: build_governor(&args),
        instrument: build_instrument(&args),
    };

    if let Some(path) = &args.queries {
        let Some(table) = table else {
            return Err(CliError::Input(
                "internal: --queries reached without an input table".into(),
            ));
        };
        return run_query_set(&args, path, &table, exec);
    }

    let query_src = args.query.clone().unwrap_or_else(|| usage());
    let compiled = compile(&query_src, &schema, &exec.compile)
        .map_err(|e| CliError::Input(e.render(&query_src)))?;

    if args.explain {
        eprintln!("{}", explain(&compiled));
    }

    if args.follow {
        return run_follow(&args, &compiled, exec);
    }

    // Batch mode: the table was built above in every non-follow branch;
    // degrade to a diagnostic (never a panic) should that ever regress.
    let Some(table) = table else {
        return Err(CliError::Input(
            "internal: batch mode reached without an input table".into(),
        ));
    };
    run_batch_query(&args, &query_src, &compiled, &table, &exec)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{}", err.message());
            ExitCode::from(err.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The help text is generated from the flag table, so every accepted
    /// flag is documented by construction — this pins that property (and
    /// catches accidental duplicates in the table).
    #[test]
    fn every_accepted_flag_appears_in_help() {
        let help = help_text();
        for f in FLAGS {
            assert!(help.contains(f.name), "{} missing from --help", f.name);
            if let Some(m) = f.metavar {
                assert!(
                    help.contains(&format!("{} {m}", f.name)),
                    "{} metavar missing from --help",
                    f.name
                );
            }
        }
        let mut names: Vec<_> = FLAGS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FLAGS.len(), "duplicate flag in table");
    }

    #[test]
    fn help_mentions_exit_codes_and_example() {
        let help = help_text();
        assert!(help.contains("exit codes:"));
        assert!(help.contains("--demo-djia --stats"));
    }
}
