//! The sampling profiler behind `--sample-profile`: a single thread
//! that periodically snapshots every live subscription worker's
//! published [`WorkerPhase`](sqlts_core::WorkerPhase) tag and folds the
//! samples into collapsed-stack format (`frame;frame;frame count`, one
//! stack per line) consumable by standard flamegraph tooling.
//!
//! This is deliberately *not* OS-level stack unwinding: no signals, no
//! ptrace, no frame-pointer walking.  Each worker already publishes a
//! cheap atomic phase tag on every call (see `sqlts_core::multiplex`);
//! sampling it is one relaxed load per subscription per tick, so the
//! profiler observes the server without perturbing it — the armed run's
//! query output stays byte-identical to an unarmed run.
//!
//! Stacks have the fixed shape `serve;<sub-id>;<phase>` (or
//! `serve;idle` when no subscription is live), so sample counts at a
//! given tick always sum to `max(1, live subscriptions)` regardless of
//! how many OS threads the server happens to run — the aggregation is
//! thread-count-invariant by construction.
//!
//! The profile file is rewritten atomically (tmp+rename, the same
//! [`atomic_write`] the checkpoints use) every [`FLUSH_EVERY_TICKS`]
//! ticks and at stop, so a reader never sees a torn file and a killed
//! process loses at most a few seconds of samples.

use sqlts_core::atomic_write;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Ticks between atomic rewrites of the profile file.
const FLUSH_EVERY_TICKS: u64 = 64;

/// A running sampling-profiler thread.  Stop it with
/// [`SamplingProfiler::stop`]; dropping without stopping also flushes
/// (the thread notices the flag at its next tick).
pub struct SamplingProfiler {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl SamplingProfiler {
    /// Spawn the profiler writing to `path` at `sample_hz` samples per
    /// second (clamped to 1..=1000).  `sample` fills its argument with
    /// one `(subscription id, phase name)` pair per live worker; it is
    /// called once per tick on the profiler thread.
    pub fn spawn<F>(path: PathBuf, sample_hz: u32, sample: F) -> SamplingProfiler
    where
        F: Fn(&mut Vec<(String, &'static str)>) + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("sqlts-profiler".into())
            .spawn(move || run(&path, sample_hz, &sample, &thread_stop))
            .ok();
        SamplingProfiler { stop, join }
    }

    /// Signal the thread, wait for its final flush, and return whether
    /// the thread exited cleanly.
    pub fn stop(mut self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        self.join.take().is_some_and(|join| join.join().is_ok())
    }
}

impl Drop for SamplingProfiler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn run<F>(path: &Path, sample_hz: u32, sample: &F, stop: &AtomicBool)
where
    F: Fn(&mut Vec<(String, &'static str)>),
{
    let interval = Duration::from_nanos(1_000_000_000 / u64::from(sample_hz.clamp(1, 1000)));
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut scratch: Vec<(String, &'static str)> = Vec::new();
    let mut ticks = 0u64;
    let mut dirty = false;
    while !stop.load(Ordering::SeqCst) {
        scratch.clear();
        sample(&mut scratch);
        if scratch.is_empty() {
            *counts.entry("serve;idle".to_string()).or_insert(0) += 1;
        } else {
            for (id, phase) in &scratch {
                *counts.entry(format!("serve;{id};{phase}")).or_insert(0) += 1;
            }
        }
        dirty = true;
        ticks += 1;
        if ticks % FLUSH_EVERY_TICKS == 0 {
            flush(path, &counts);
            dirty = false;
        }
        std::thread::sleep(interval);
    }
    if dirty || ticks == 0 {
        flush(path, &counts);
    }
}

/// Rewrite the collapsed-stack file atomically, stacks sorted so the
/// output is deterministic for a given sample multiset.
fn flush(path: &Path, counts: &HashMap<String, u64>) {
    let mut stacks: Vec<(&String, &u64)> = counts.iter().collect();
    stacks.sort();
    let mut out = String::with_capacity(stacks.len() * 32);
    for (stack, count) in stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    let _ = atomic_write(path, out.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqlts-profiler-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn samples_fold_into_collapsed_stacks_and_flush_on_stop() {
        let path = temp_path("busy.folded");
        let profiler = SamplingProfiler::spawn(path.clone(), 1000, |out| {
            out.push(("s1".to_string(), "feed"));
            out.push(("s2".to_string(), "idle"));
        });
        std::thread::sleep(Duration::from_millis(40));
        assert!(profiler.stop(), "profiler thread must join cleanly");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut seen_feed = 0u64;
        for line in text.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack SP count");
            assert!(stack.starts_with("serve;"), "{line}");
            assert!(
                !stack.contains(' '),
                "frames must not contain spaces: {line}"
            );
            let n: u64 = count.parse().expect("count parses");
            assert!(n > 0);
            if stack == "serve;s1;feed" {
                seen_feed = n;
            }
        }
        assert!(seen_feed > 0, "expected serve;s1;feed in:\n{text}");
        // Both tenants tick together, so their totals match exactly.
        let totals: Vec<u64> = text
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(totals.len(), 2, "{text}");
        assert_eq!(totals[0], totals[1], "{text}");
    }

    #[test]
    fn empty_registry_still_writes_an_idle_stack() {
        let path = temp_path("idle.folded");
        let profiler = SamplingProfiler::spawn(path.clone(), 500, |_| {});
        std::thread::sleep(Duration::from_millis(20));
        assert!(profiler.stop());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|l| l.starts_with("serve;idle ")), "{text}");
    }
}
