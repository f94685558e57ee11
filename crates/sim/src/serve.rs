//! The serve layer's session: deterministic ingest interleaving plus
//! per-round snapshot publishing.
//!
//! `dg-serve` turns a simulation into a reputation *service*: clients
//! submit transaction reports ("ingest") and query the latest completed
//! round's reputations while the round engine keeps running. Two
//! properties make that safe to replay and safe to read:
//!
//! * **Deterministic interleaving.** Ingested reports are buffered and
//!   folded into the *next* round's estimate phase. Before the round
//!   runs, the buffer is sorted by the total order `(from, seq,
//!   requester, provider, outcome)` — so the fold order depends only on
//!   the *set* of accepted reports, never on arrival timing. Replaying
//!   an ingest log (each report tagged with the round it was accepted
//!   into) reproduces the run bit for bit, on any engine
//!   ([`EngineCore::queue_reports`](crate::kernel::EngineCore::queue_reports)
//!   appends each requester's ingested records after its generated
//!   ones, identically everywhere).
//! * **Round-atomic reads.** After each round the session computes the
//!   network-wide per-subject mean reputations and publishes them as an
//!   immutable [`ReputationSnapshot`](dg_trust::ReputationSnapshot)
//!   through a shared [`SnapshotCell`]: readers clone an `Arc` and
//!   answer every query from one round's coherent state — at worst one
//!   round stale, never torn.
//!
//! The ingest counters land in the round's [`RoundStats`] so a served
//! run's history also records what the service absorbed and what
//! backpressure shed: the engine core counts the records queued when a
//! round opens (`ingested_reports`, for every session that queues
//! reports), and [`ServeSession`] stamps what it shed since the
//! previous round (`ingest_shed`), which only it sees.

use crate::kernel::TransactionRecord;
use crate::rounds::RoundStats;
use crate::session::{RunConfig, RunSession, SessionError};
use dg_graph::NodeId;
use dg_trust::prelude::TransactionOutcome;
use dg_trust::SnapshotCell;
use std::sync::Arc;

/// One externally-submitted transaction report: requester `requester`
/// observed `outcome` from `provider`, submitted by ingest source
/// `from` as its `seq`-th report. `(from, seq)` is the caller's replay
/// tag — the sort key that makes the fold order independent of arrival
/// timing (a source submitting in `seq` order will see its reports
/// fold in that order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReport {
    /// Ingest source (e.g. connection) id.
    pub from: u64,
    /// The source's own sequence number for this report.
    pub seq: u64,
    /// The node this report folds into (the transaction's requester).
    pub requester: NodeId,
    /// The provider the requester transacted with.
    pub provider: NodeId,
    /// What the requester observed.
    pub outcome: TransactionOutcome,
}

impl IngestReport {
    /// Whether a run over `nodes` nodes can fold this report — the one
    /// statement of ingest validity, for [`ServeSession::ingest`] and
    /// for a front end that wants to refuse before it queues. An
    /// out-of-range report names the larger of its two ids.
    pub fn validate(&self, nodes: usize) -> Result<(), IngestError> {
        let highest = self.requester.max(self.provider);
        if highest.index() >= nodes {
            return Err(IngestError::UnknownNode(highest));
        }
        if self.requester == self.provider {
            return Err(IngestError::SelfReport(self.requester));
        }
        Ok(())
    }
}

/// Why an ingest submission was rejected at the session boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// Requester or provider id is outside the scenario's node range.
    UnknownNode(NodeId),
    /// A node cannot report a transaction with itself.
    SelfReport(NodeId),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownNode(id) => write!(f, "unknown node {}", id.0),
            IngestError::SelfReport(id) => write!(f, "node {} reporting about itself", id.0),
        }
    }
}

impl std::error::Error for IngestError {}

/// The total ingest order: `(from, seq)` then the report fields, so
/// the sorted buffer — and therefore the whole run — is a pure
/// function of the accepted-report set.
fn ingest_key(r: &IngestReport) -> (u64, u64, u32, u32, u8, u64) {
    let (tag, bits) = match r.outcome {
        TransactionOutcome::Refused => (0u8, 0u64),
        TransactionOutcome::Served { quality } => (1, quality.to_bits()),
    };
    (r.from, r.seq, r.requester.0, r.provider.0, tag, bits)
}

/// A [`RunSession`] wrapped for serving: buffers ingest, drives rounds,
/// publishes snapshots (see the module docs).
pub struct ServeSession {
    session: RunSession,
    cell: Arc<SnapshotCell>,
    pending: Vec<IngestReport>,
    shed: u64,
}

impl ServeSession {
    /// Start a fresh serving session at round 0.
    pub fn new(config: RunConfig) -> Result<Self, SessionError> {
        Self::from_session(RunSession::new(config)?)
    }

    /// Wrap an existing session (must be at round 0: the snapshot cell
    /// starts from the empty pre-first-round view).
    pub(crate) fn from_session(session: RunSession) -> Result<Self, SessionError> {
        if session.round() != 0 {
            return Err(SessionError::Snapshot {
                reason: format!(
                    "a serving session must start at round 0, got round {}",
                    session.round()
                ),
            });
        }
        let n = session.config().nodes;
        Ok(Self {
            session,
            cell: Arc::new(SnapshotCell::new(n)),
            pending: Vec::new(),
            shed: 0,
        })
    }

    /// The wrapped session.
    pub fn session(&self) -> &RunSession {
        &self.session
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.session.round()
    }

    /// The snapshot cell readers answer queries from. Clone the `Arc`
    /// into each reader; every [`load`](SnapshotCell::load) yields one
    /// completed round's coherent view.
    pub fn snapshots(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.cell)
    }

    /// Accept one report into the next round's buffer. Rejections are
    /// typed and leave the buffer untouched.
    pub fn ingest(&mut self, report: IngestReport) -> Result<(), IngestError> {
        report.validate(self.session.config().nodes)?;
        self.pending.push(report);
        Ok(())
    }

    /// Record `count` submissions shed by backpressure upstream (a full
    /// ingest channel answering `Busy`); stamped into the next round's
    /// [`RoundStats::ingest_shed`].
    pub fn note_shed(&mut self, count: u64) {
        self.shed += count;
    }

    /// Run one round: sort and fold the buffered reports, advance the
    /// engine, stamp the shed counter, publish the round's snapshot.
    pub fn run_round(&mut self) -> Result<&RoundStats, SessionError> {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by_key(ingest_key);
        // Group per requester: a stable sort keeps each requester's
        // reports in the total order above.
        pending.sort_by_key(|r| r.requester);
        let mut batches: Vec<(NodeId, Vec<TransactionRecord>)> = Vec::new();
        for r in pending {
            let record = TransactionRecord {
                provider: r.provider,
                outcome: r.outcome,
            };
            match batches.last_mut() {
                Some((req, records)) if *req == r.requester => records.push(record),
                _ => batches.push((r.requester, vec![record])),
            }
        }
        if !batches.is_empty() {
            self.session.queue_reports(batches);
        }
        let target = self.session.round() + 1;
        self.session.run_to(target)?;
        let last = self
            .session
            .stats_mut()
            .last_mut()
            .expect("a round just completed");
        last.ingest_shed = std::mem::take(&mut self.shed);
        // Publish the completed round: one incremental index rebuild,
        // one pointer swap. Readers holding the previous snapshot keep
        // it; new loads see this round, whole.
        let reps = self.session.subject_mean_reputations();
        let next = self.cell.load().next_round(target as u64, reps);
        self.cell.publish(next);
        Ok(self.session.stats().last().expect("a round just completed"))
    }

    /// Run rounds until `round` rounds have completed.
    pub fn run_to(&mut self, round: usize) -> Result<&[RoundStats], SessionError> {
        while self.session.round() < round {
            self.run_round()?;
        }
        Ok(self.session.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunConfig;

    fn config(nodes: usize) -> RunConfig {
        RunConfig {
            nodes,
            rounds: 3,
            seed: 11,
            ..RunConfig::default()
        }
    }

    fn report(from: u64, seq: u64, requester: u32, provider: u32, quality: f64) -> IngestReport {
        IngestReport {
            from,
            seq,
            requester: NodeId(requester),
            provider: NodeId(provider),
            outcome: TransactionOutcome::Served { quality },
        }
    }

    #[test]
    fn ingest_validates_ids() {
        let mut serve = ServeSession::new(config(16)).expect("session builds");
        assert_eq!(
            serve.ingest(report(0, 0, 16, 2, 0.5)),
            Err(IngestError::UnknownNode(NodeId(16)))
        );
        assert_eq!(
            serve.ingest(report(0, 0, 3, 3, 0.5)),
            Err(IngestError::SelfReport(NodeId(3)))
        );
        assert_eq!(serve.ingest(report(0, 0, 3, 2, 0.5)), Ok(()));
    }

    #[test]
    fn arrival_order_does_not_change_the_run() {
        let submissions = [
            report(2, 0, 5, 1, 0.9),
            report(1, 1, 5, 2, 0.1),
            report(1, 0, 4, 5, 0.7),
            report(3, 7, 5, 1, 0.4),
        ];
        let mut runs = Vec::new();
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let mut serve = ServeSession::new(config(24)).expect("session builds");
            for &i in &order {
                serve.ingest(submissions[i]).expect("valid report");
            }
            serve.run_to(3).expect("rounds run");
            let stats = serde_json::to_string(serve.session().stats()).expect("serializes");
            let reps: Vec<_> = (0..24)
                .map(|i| {
                    serve
                        .snapshots()
                        .load()
                        .reputation(NodeId(i))
                        .map(f64::to_bits)
                })
                .collect();
            runs.push((stats, reps));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn stats_carry_ingest_counters() {
        let mut serve = ServeSession::new(config(16)).expect("session builds");
        serve.ingest(report(0, 0, 3, 2, 0.5)).expect("valid");
        serve.ingest(report(0, 1, 3, 4, 0.5)).expect("valid");
        serve.note_shed(7);
        serve.run_round().expect("round runs");
        serve.run_round().expect("round runs");
        let stats = serve.session().stats();
        assert_eq!(stats[0].ingested_reports, 2);
        assert_eq!(stats[0].ingest_shed, 7);
        assert_eq!(stats[1].ingested_reports, 0);
        assert_eq!(stats[1].ingest_shed, 0);
    }

    #[test]
    fn snapshots_track_completed_rounds() {
        let mut serve = ServeSession::new(config(16)).expect("session builds");
        assert_eq!(serve.snapshots().load().round(), 0);
        serve.run_round().expect("round runs");
        let cell = serve.snapshots();
        let snap = cell.load();
        assert_eq!(snap.round(), 1);
        // The published view is the session's own totals, whole.
        let reps = serve.session().subject_mean_reputations();
        for (i, want) in reps.iter().enumerate() {
            assert_eq!(
                snap.reputation(NodeId(i as u32)).map(f64::to_bits),
                want.map(f64::to_bits),
                "subject {i}"
            );
        }
        serve.run_round().expect("round runs");
        assert_eq!(snap.round(), 1, "held snapshots never mutate");
        assert_eq!(cell.load().round(), 2);
    }
}
