//! Streaming shared pattern-set execution: N standing queries over one
//! feed, each tuple dispatched once through the shared memo.
//!
//! A [`SharedStreamSession`] wraps one [`StreamSession`] per member query
//! and a private [`SetRegistry`]: members with the same
//! `CLUSTER BY`/`SEQUENCE BY` intern their element classes into a common
//! group, so the first member to test a shared class at a stream position
//! evaluates it and the rest answer from the memo.  Every member keeps its
//! own window, engine machine, counter and governor scope, so per-member
//! results, stats and checkpoints stay bit-identical to running the
//! member in its own [`StreamSession`] — including resume: checkpoints
//! are ordinary `sqlts-checkpoint v1` [`SessionCheckpoint`]s, and the
//! memo is soft state that is simply empty right after a resume.

use crate::executor::QueryResult;
use crate::patternset::SetRegistry;
use crate::stream::{SessionCheckpoint, StreamError, StreamOptions, StreamSession};
use sqlts_lang::CompiledQuery;
use sqlts_relation::Value;
use sqlts_trace::PatternSetStats;
use std::fmt;
use std::sync::Arc;

/// A feed error attributed to one member of a shared stream session.
#[derive(Debug)]
pub struct SetFeedError {
    /// Index of the member (into the query slice the session was built
    /// from) whose feed failed.
    pub member: usize,
    /// The member's error, exactly as its solo session would report it.
    pub error: StreamError,
}

impl fmt::Display for SetFeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "member {}: {}", self.member, self.error)
    }
}

impl std::error::Error for SetFeedError {}

/// N standing queries over one push-based feed, sharing predicate tests.
pub struct SharedStreamSession {
    members: Vec<StreamSession>,
    registry: Arc<SetRegistry>,
    /// Members whose pattern had no shareable element (they run exactly
    /// as solo sessions; counted as solo in the set stats).
    unshared: usize,
}

impl SharedStreamSession {
    /// Open a shared session over `queries`, all starting at feed
    /// position zero.  Every query must read the same input schema (they
    /// are fed the same tuples); queries that disagree on
    /// `CLUSTER BY`/`SEQUENCE BY` still run in the set, they just land in
    /// separate sharing groups.
    pub fn new(queries: &[CompiledQuery], options: &StreamOptions) -> Result<Self, StreamError> {
        let checkpoints = queries.iter().map(|_| None).collect();
        Self::build(queries, options, checkpoints)
    }

    /// Resume a shared session: one `sqlts-checkpoint v1` checkpoint per
    /// member, `None` entries starting fresh.  Sharing groups are keyed by
    /// each member's resume origin (its checkpointed record count), so
    /// members whose positions don't line up never share a memo entry.
    pub fn resume(
        queries: &[CompiledQuery],
        options: &StreamOptions,
        checkpoints: Vec<Option<SessionCheckpoint>>,
    ) -> Result<Self, StreamError> {
        if checkpoints.len() != queries.len() {
            return Err(StreamError::Checkpoint(format!(
                "checkpoint count mismatch: {} checkpoints for {} queries",
                checkpoints.len(),
                queries.len()
            )));
        }
        Self::build(queries, options, checkpoints)
    }

    fn build(
        queries: &[CompiledQuery],
        options: &StreamOptions,
        checkpoints: Vec<Option<SessionCheckpoint>>,
    ) -> Result<Self, StreamError> {
        if queries.is_empty() {
            return Err(StreamError::Unsupported(
                "shared stream session needs at least one query".into(),
            ));
        }
        for query in &queries[1..] {
            if query.schema != queries[0].schema {
                return Err(StreamError::Unsupported(
                    "shared stream members must read the same input schema".into(),
                ));
            }
        }
        let registry = Arc::new(SetRegistry::new());
        let mut members = Vec::with_capacity(queries.len());
        let mut unshared = 0;
        for (query, checkpoint) in queries.iter().zip(checkpoints) {
            let origin = checkpoint.as_ref().map_or(0, SessionCheckpoint::records);
            let mut session = match checkpoint {
                Some(cp) => StreamSession::resume(query, options.clone(), cp)?,
                None => StreamSession::new(query, options.clone())?,
            };
            match registry.join(origin, query, options.exec.policy) {
                Some(join) => session.install_shared(join),
                None => unshared += 1,
            }
            members.push(session);
        }
        Ok(SharedStreamSession {
            members,
            registry,
            unshared,
        })
    }

    /// Number of member queries.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Push one tuple into every member, in member order (the same order
    /// the memo's deterministic counters assume).  Fails fast on the
    /// first member error — its own feed semantics (bad-tuple policy,
    /// governor trips) are unchanged from a solo session.
    pub fn feed(&mut self, row: Vec<Value>) -> Result<(), SetFeedError> {
        for (member, session) in self.members.iter_mut().enumerate() {
            session
                .feed(row.clone())
                .map_err(|error| SetFeedError { member, error })?;
        }
        Ok(())
    }

    /// Checkpoint every member at the same feed boundary, each as a
    /// plain v1 [`SessionCheckpoint`], loadable by a solo
    /// [`StreamSession::resume`] as well as [`SharedStreamSession::resume`].
    /// The shared memo is deliberately not captured: it is derivable
    /// state, and a resumed session simply starts with a cold memo.
    pub fn snapshot_all(&self) -> Result<Vec<SessionCheckpoint>, StreamError> {
        self.members.iter().map(StreamSession::snapshot).collect()
    }

    /// Poll the deadline on every member (idle-loop hook).
    /// Returns the first member error, if any.
    pub fn poll_deadline(&mut self) -> Result<(), SetFeedError> {
        for (member, session) in self.members.iter_mut().enumerate() {
            session
                .poll_deadline()
                .map_err(|error| SetFeedError { member, error })?;
        }
        Ok(())
    }

    /// Close every member and assemble the set statistics.  Each member's
    /// result is exactly what its solo session would return; the stats
    /// combine the registry's compile shape (taken while the members are
    /// still joined) and savings counters (taken after the last finish)
    /// with the members' logical test totals.
    pub fn finish(self) -> (Vec<Result<QueryResult, StreamError>>, PatternSetStats) {
        let mut stats = self.registry.stats();
        let results: Vec<Result<QueryResult, StreamError>> = self
            .members
            .into_iter()
            .map(StreamSession::finish)
            .collect();
        let savings = self.registry.stats();
        stats.tests_saved = savings.tests_saved;
        stats.tests_shared = savings.tests_shared;
        stats.queries += self.unshared;
        stats.solo += self.unshared;
        for result in &results {
            stats.tests_logical += match result {
                Ok(r) => r.stats.predicate_tests,
                Err(StreamError::Governed {
                    partial: Some(p), ..
                }) => p.stats.predicate_tests,
                Err(_) => 0,
            };
        }
        stats.tests_evaluated = stats.tests_logical.saturating_sub(stats.tests_saved);
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecOptions;
    use sqlts_lang::{compile, CompileOptions};
    use sqlts_relation::{ColumnType, Schema, Table};

    fn schema() -> Schema {
        Schema::new([
            ("name", ColumnType::Str),
            ("day", ColumnType::Int),
            ("price", ColumnType::Float),
        ])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for day in 0..n {
            for name in ["AAA", "BBB"] {
                let price = 100 + ((day * 7 + name.len()) % 13) as i64 - 6;
                out.push(vec![
                    Value::from(name),
                    Value::from(day as i64),
                    Value::from(price as f64),
                ]);
            }
        }
        out
    }

    fn queries() -> Vec<CompiledQuery> {
        (0..4)
            .map(|i| {
                compile(
                    &format!(
                        "SELECT X.name, Z.day AS day FROM t \
                         CLUSTER BY name SEQUENCE BY day AS (X, Y, Z) \
                         WHERE X.price > 95 AND Y.price > X.previous.price \
                         AND Z.price < {}",
                        100 + i
                    ),
                    &schema(),
                    &CompileOptions::default(),
                )
                .unwrap()
            })
            .collect()
    }

    fn batch_reference(queries: &[CompiledQuery], rows: &[Vec<Value>]) -> Vec<Table> {
        let mut table = Table::new(schema());
        for row in rows {
            table.push_row(row.clone()).unwrap();
        }
        queries
            .iter()
            .map(|q| {
                crate::executor::execute(q, &table, &ExecOptions::default())
                    .unwrap()
                    .table
            })
            .collect()
    }

    #[test]
    fn shared_stream_matches_batch_and_saves_tests() {
        let queries = queries();
        let rows = rows(40);
        let reference = batch_reference(&queries, &rows);
        let mut session = SharedStreamSession::new(&queries, &StreamOptions::default()).unwrap();
        for row in &rows {
            session.feed(row.clone()).unwrap();
        }
        let (results, stats) = session.finish();
        for (result, expected) in results.iter().zip(&reference) {
            assert_eq!(&result.as_ref().unwrap().table, expected);
        }
        assert!(stats.tests_saved > 0, "{stats:?}");
        assert!(stats.tests_evaluated < stats.tests_logical, "{stats:?}");
    }

    #[test]
    fn resume_from_prefix_is_bit_identical() {
        let queries = queries();
        let rows = rows(30);
        let reference = batch_reference(&queries, &rows);
        let split = rows.len() / 2;
        let mut first = SharedStreamSession::new(&queries, &StreamOptions::default()).unwrap();
        for row in &rows[..split] {
            first.feed(row.clone()).unwrap();
        }
        let checkpoints = first.snapshot_all().unwrap();
        // Round-trip through the v1 text codec, like the server does.
        let checkpoints: Vec<Option<SessionCheckpoint>> = checkpoints
            .into_iter()
            .map(|cp| Some(SessionCheckpoint::from_text(&cp.to_text()).unwrap()))
            .collect();
        let mut resumed =
            SharedStreamSession::resume(&queries, &StreamOptions::default(), checkpoints).unwrap();
        for row in &rows[split..] {
            resumed.feed(row.clone()).unwrap();
        }
        let (results, _) = resumed.finish();
        for (result, expected) in results.iter().zip(&reference) {
            assert_eq!(&result.as_ref().unwrap().table, expected);
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let other_schema = Schema::new([("x", ColumnType::Int)]).unwrap();
        let a = compile(
            "SELECT X.name FROM t CLUSTER BY name SEQUENCE BY day AS (X) WHERE X.price > 0",
            &schema(),
            &CompileOptions::default(),
        )
        .unwrap();
        let b = compile(
            "SELECT X.x FROM t SEQUENCE BY x AS (X) WHERE X.x > 0",
            &other_schema,
            &CompileOptions::default(),
        )
        .unwrap();
        let queries = vec![a, b];
        let Err(err) = SharedStreamSession::new(&queries, &StreamOptions::default()) else {
            panic!("schema mismatch must be rejected");
        };
        assert!(matches!(err, StreamError::Unsupported(_)));
    }
}
