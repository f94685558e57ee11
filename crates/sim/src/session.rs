//! The run session — one front door for configuring, running,
//! checkpointing and resuming a reputation simulation.
//!
//! [`RunConfig`] holds every knob of a run in one flat, serializable,
//! builder-style struct, and [`RunSession`] owns the whole lifecycle:
//!
//! ```no_run
//! use dg_sim::session::{RunConfig, RunSession};
//!
//! let config = RunConfig::with_nodes(500).with_rounds(8);
//! let mut session = RunSession::new(config)?;
//! session.run_to(4)?;
//! session.checkpoint("ckpt".as_ref())?;           // durable epoch
//! // ... process dies here ...
//! let mut resumed = RunSession::resume("ckpt".as_ref())?;
//! resumed.run_to(8)?;                              // picks up at round 4
//! # Ok::<(), dg_sim::session::SessionError>(())
//! ```
//!
//! The resumed run is **bit-for-bit identical** to one that never
//! stopped: engines draw round seeds from the deterministic
//! [`round_seed`] schedule (not from shared RNG state, which a restart
//! could not reproduce), and [`EngineCheckpoint`] carries exactly the
//! cross-round state — estimators, reputation tables, aggregated runs,
//! observer means and the round counter. Everything else (trust matrix,
//! aggregate caches) is derived per round and deliberately omitted;
//! `tests/crash_recovery.rs` pins the equivalence for all three engines.
//!
//! Durability itself lives in the `dg-store` crate: full epochs are
//! written as per-shard files, and consecutive checkpoints of a mostly
//! idle network persist as dirty-row *delta* records
//! ([`dg_store::diff_changed`]) against the last checkpoint.
//!
//! Underneath, [`Scenario::build`] and [`build_engine`] take the same
//! [`RunConfig`]; callers that hold the scenario themselves or choose
//! their own round seeds use those directly and give up resumability.

pub use crate::config::RunConfig;
use crate::kernel::NodeState;
use crate::rounds::{build_engine, RoundEngine, RoundStats};
use crate::scenario::Scenario;
use dg_core::CoreError;
use dg_gossip::GossipError;
use dg_graph::NodeId;
use dg_store::{
    diff_changed, AuditEntryRecord, EstimatorRecord, NodeRecord, SnapshotHeader, Store, StoreError,
    TableRecord,
};
use dg_trust::audit::{ReportLog, ReportLogEntry};
use dg_trust::prelude::{EwmaEstimator, TrustEstimator};
use dg_trust::table::TableEntry;
use dg_trust::{ShardSpec, TrustValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use thiserror::Error;

/// Full-epoch cadence: after this many delta checkpoints the next
/// checkpoint is written as a fresh full epoch, bounding both recovery
/// replay length and the window a corrupt delta file can poison.
pub const FULL_EPOCH_INTERVAL: usize = 8;

/// The deterministic round-seed schedule sessions run on.
///
/// Round `r` of a run seeded `run_seed` always executes with this seed
/// — a pure function of `(run_seed, r)`, **not** a draw from shared RNG
/// state — so a resumed session continues the exact seed sequence the
/// original would have produced. (Engine-level callers of
/// [`build_engine`] choose their own seeds; such runs are reproducible
/// against themselves but not resumable. The bit-identity guarantee is
/// session-vs-session.) SplitMix64 finalisation, like
/// [`dg_gossip::node_stream_seed`].
pub fn round_seed(run_seed: u64, round: u64) -> u64 {
    let mut z = run_seed
        ^ 0xA076_1D64_78BD_642F_u64
        ^ round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Errors from the session lifecycle.
#[derive(Debug, Error)]
pub enum SessionError {
    /// Scenario construction or a round failed.
    #[error(transparent)]
    Core(#[from] CoreError),
    /// The gossip-layer knobs are invalid.
    #[error(transparent)]
    Gossip(#[from] GossipError),
    /// The durable store rejected or could not produce a checkpoint.
    #[error(transparent)]
    Store(#[from] StoreError),
    /// A checkpoint does not fit the engine it was offered to.
    #[error(transparent)]
    Restore(#[from] RestoreError),
    /// A loaded snapshot is internally inconsistent: {reason}
    #[error("snapshot is not usable: {reason}")]
    Snapshot {
        /// What made the snapshot unusable.
        reason: String,
    },
}

/// Errors from handing an [`EngineCheckpoint`] to an engine.
#[derive(Debug, Error, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint was made over a different node count.
    #[error("checkpoint holds {found} nodes, scenario has {expected}")]
    NodeCount {
        /// Node count of the engine's scenario.
        expected: usize,
        /// Node count found in the checkpoint.
        found: usize,
    },
    /// The checkpoint's parallel arrays disagree in length.
    #[error("checkpoint is malformed: {reason}")]
    Shape {
        /// Which arrays disagree.
        reason: String,
    },
}

/// The engine-agnostic cross-round state of a run: exactly what must
/// survive a restart for the continuation to be bit-identical.
///
/// Every engine produces and accepts this one shape
/// ([`EngineCore::checkpoint`](crate::kernel::EngineCore::checkpoint) /
/// [`RoundEngine::restore`]), which is
/// what makes restore *cross-engine*: a checkpoint made by the
/// sequential driver restores into the sharded engine and vice versa.
/// Derived state — the trust matrix, subject-aggregate caches, the
/// incremental engine's dirty sets — is deliberately absent; engines
/// rebuild it from the estimators on the first resumed round.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Rounds completed (the next round to run).
    pub round: usize,
    /// Per-node persistent state, indexed by node id.
    pub nodes: Vec<NodeCheckpoint>,
    /// `aggregated[observer]` — sorted `(subject, reputation)` run.
    pub aggregated: Vec<Vec<(NodeId, f64)>>,
    /// Mean aggregated reputation per observer (admission scale).
    pub observer_mean: Vec<Option<f64>>,
}

impl EngineCheckpoint {
    /// Check the checkpoint fits a scenario of `n` nodes.
    pub fn validate(&self, n: usize) -> Result<(), RestoreError> {
        if self.nodes.len() != n {
            return Err(RestoreError::NodeCount {
                expected: n,
                found: self.nodes.len(),
            });
        }
        if self.aggregated.len() != n || self.observer_mean.len() != n {
            return Err(RestoreError::Shape {
                reason: format!(
                    "{} nodes but {} aggregated rows and {} observer means",
                    n,
                    self.aggregated.len(),
                    self.observer_mean.len()
                ),
            });
        }
        Ok(())
    }
}

/// One node's persistent state inside an [`EngineCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCheckpoint {
    /// Per-provider estimators, sorted by peer.
    pub estimators: Vec<(NodeId, EwmaEstimator)>,
    /// Reputation-table rows, sorted by peer.
    pub table: Vec<(NodeId, TableEntry)>,
    /// Audit report log entries, sorted by subject.
    pub log: Vec<ReportLogEntry>,
    /// Accumulated audit strikes.
    pub strikes: u32,
    /// Round the node was convicted, if ever.
    pub convicted_at: Option<u64>,
}

/// Freeze one node's kernel state.
pub(crate) fn checkpoint_node(state: &NodeState) -> NodeCheckpoint {
    NodeCheckpoint {
        estimators: state.estimators.iter().map(|(&id, &e)| (id, e)).collect(),
        table: state.table.iter().map(|(id, &e)| (id, e)).collect(),
        log: state.log.entries().to_vec(),
        strikes: state.strikes,
        convicted_at: state.convicted_at,
    }
}

/// Thaw checkpointed nodes back into kernel states.
pub(crate) fn restore_nodes(nodes: Vec<NodeCheckpoint>) -> Vec<NodeState> {
    nodes
        .into_iter()
        .map(|node| {
            let mut state = NodeState::new();
            state.estimators = BTreeMap::from_iter(node.estimators);
            for (peer, entry) in node.table {
                state.table.insert(peer, entry);
            }
            state.log = ReportLog::from_entries(node.log);
            state.strikes = node.strikes;
            state.convicted_at = node.convicted_at;
            state
        })
        .collect()
}

/// What [`RunSession::checkpoint`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A full epoch: every node record, one framed file per shard.
    Full,
    /// A delta: only the rows that changed since the last checkpoint.
    Delta,
}

/// A running simulation that can be checkpointed and resumed.
///
/// Owns the engine (which owns the scenario), runs rounds on the
/// deterministic [`round_seed`] schedule, and persists / recovers its
/// state through a [`dg_store::Store`]. See the module docs for the
/// lifecycle and the bit-identity contract.
pub struct RunSession {
    engine: Box<dyn RoundEngine>,
    config: RunConfig,
    stats: Vec<RoundStats>,
    /// Records as of the last checkpoint — the delta diff base.
    last_records: Vec<NodeRecord>,
    /// Round of the last checkpoint *we* wrote (deltas only extend a
    /// chain this session owns end-to-end).
    last_checkpoint_round: Option<u64>,
}

impl RunSession {
    /// Build the scenario and engine for `config` and start at round 0.
    pub fn new(config: RunConfig) -> Result<Self, SessionError> {
        // Fail fast on invalid gossip knobs and adversary mixes even
        // in closed-form runs, so a config either constructs everywhere
        // or nowhere.
        config.gossip_config().validated()?;
        config.adversary.validated()?;
        let scenario = Arc::new(Scenario::build(config)?);
        Ok(Self {
            engine: build_engine(scenario, &config),
            config,
            stats: Vec::new(),
            last_records: Vec::new(),
            last_checkpoint_round: None,
        })
    }

    /// The config driving this session.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.engine.core().round()
    }

    /// Per-round statistics accumulated so far (survives resume: the
    /// full history is carried in every snapshot header).
    pub fn stats(&self) -> &[RoundStats] {
        &self.stats
    }

    /// The reputation table of one node.
    pub fn table(&self, node: NodeId) -> &dg_trust::prelude::ReputationTable {
        self.engine.core().table(node)
    }

    /// The aggregated reputation of `subject` at `observer`, if any
    /// aggregation round has run (and the pair is in scope).
    pub fn aggregated(&self, observer: NodeId, subject: NodeId) -> Option<f64> {
        self.engine.core().aggregated(observer, subject)
    }

    /// Mean absolute error between honest subjects' mean aggregated
    /// reputation and their latent quality (diagnostic — see
    /// [`EngineCore::honest_residual`](crate::kernel::EngineCore::honest_residual)).
    pub fn honest_residual(&self) -> Option<f64> {
        self.engine.core().honest_residual()
    }

    /// Nodes convicted by the audit subsystem so far, as
    /// `(node, round convicted)` sorted by node.
    pub fn convicted(&self) -> Vec<(NodeId, u64)> {
        self.engine.core().convicted()
    }

    /// Queue externally-ingested transaction reports for the *next*
    /// round (see
    /// [`EngineCore::queue_reports`](crate::kernel::EngineCore::queue_reports)):
    /// ascending by requester, no empty batches. The serve layer's
    /// [`ServeSession`](crate::serve::ServeSession) normalises raw
    /// submissions into this shape.
    pub fn queue_reports(&mut self, batches: Vec<(NodeId, Vec<crate::kernel::TransactionRecord>)>) {
        self.engine.core_mut().queue_reports(batches);
    }

    /// Per-subject network-wide mean aggregated reputation (`None`
    /// while no observer scores the subject) — what the serve layer
    /// snapshots after each round.
    pub fn subject_mean_reputations(&self) -> Vec<Option<f64>> {
        self.engine.core().subject_mean_reputations()
    }

    /// Mutable stats access for the serve layer (same crate): it stamps
    /// the ingest counters onto the round it just drove.
    pub(crate) fn stats_mut(&mut self) -> &mut [RoundStats] {
        &mut self.stats
    }

    /// Run rounds until `round` rounds have completed (no-op if already
    /// there); returns the full stats history.
    pub fn run_to(&mut self, round: usize) -> Result<&[RoundStats], SessionError> {
        while self.round() < round {
            let seed = round_seed(self.config.seed, self.round() as u64);
            let stat = self.engine.run_round(seed)?;
            self.stats.push(stat);
        }
        Ok(&self.stats)
    }

    /// Run all configured rounds ([`RunConfig::rounds`]).
    pub fn run(&mut self) -> Result<&[RoundStats], SessionError> {
        self.run_to(self.config.rounds)
    }

    /// Persist the current state into the store at `dir`.
    ///
    /// Writes a full epoch the first time (and every
    /// [`FULL_EPOCH_INTERVAL`]-th time, and whenever the store's chain
    /// was not written by this session); in between, consecutive
    /// checkpoints persist only the node records that changed since the
    /// last one, as a delta on the chain. Checkpointing the same round
    /// twice rewrites a full epoch idempotently.
    pub fn checkpoint(&mut self, dir: &Path) -> Result<CheckpointKind, SessionError> {
        let round = self.round() as u64;
        let records = records_from_checkpoint(&self.engine.core().checkpoint());
        let store = Store::open(dir);
        let head = store.head()?;

        let spec = ShardSpec::configured(self.config.nodes, self.config.shard_count);
        let mut header = SnapshotHeader {
            format_version: dg_store::FORMAT_VERSION,
            round,
            nodes: self.config.nodes as u64,
            shard_ranges: (0..spec.shard_count())
                .map(|s| {
                    let r = spec.range(s);
                    (u64::from(r.start), u64::from(r.end))
                })
                .collect(),
            base_round: None,
            engine: format!("{:?}", self.config.engine),
            config_json: serde_json::to_string(&self.config).map_err(|e| {
                SessionError::Snapshot {
                    reason: format!("config serialization failed: {e}"),
                }
            })?,
            stats_json: serde_json::to_string(&self.stats).map_err(|e| SessionError::Snapshot {
                reason: format!("stats serialization failed: {e}"),
            })?,
            notes: String::new(),
        };

        let as_delta = match &head {
            Some(h) => {
                Some(h.latest_round()) == self.last_checkpoint_round
                    && round > h.latest_round()
                    && h.delta_rounds.len() < FULL_EPOCH_INTERVAL
                    && !self.last_records.is_empty()
            }
            None => false,
        };

        let kind = if as_delta {
            let base = self.last_checkpoint_round.expect("checked above");
            header.base_round = Some(base);
            let changed = diff_changed(&self.last_records, &records);
            store.write_delta(&header, &changed)?;
            CheckpointKind::Delta
        } else {
            store.write_epoch(&header, &records)?;
            CheckpointKind::Full
        };
        self.last_records = records;
        self.last_checkpoint_round = Some(round);
        Ok(kind)
    }

    /// Rebuild a session from the latest committed checkpoint in `dir`.
    ///
    /// The config (and stats history) come out of the snapshot header,
    /// the scenario is rebuilt deterministically from the config's
    /// seed, and the engine state is restored record-for-record — the
    /// resumed session continues the run bit-for-bit.
    pub fn resume(dir: &Path) -> Result<Self, SessionError> {
        let snapshot = Store::open(dir).load_latest()?;
        let config: RunConfig =
            serde_json::from_str(&snapshot.header.config_json).map_err(|e| {
                SessionError::Snapshot {
                    reason: format!("snapshot header carries no usable RunConfig: {e}"),
                }
            })?;
        if snapshot.header.nodes != config.nodes as u64 {
            return Err(SessionError::Snapshot {
                reason: format!(
                    "header says {} nodes but its config says {}",
                    snapshot.header.nodes, config.nodes
                ),
            });
        }
        let stats: Vec<RoundStats> = if snapshot.header.stats_json.is_empty() {
            Vec::new()
        } else {
            serde_json::from_str(&snapshot.header.stats_json).map_err(|e| {
                SessionError::Snapshot {
                    reason: format!("snapshot header carries unreadable stats: {e}"),
                }
            })?
        };

        let mut session = Self::new(config)?;
        let checkpoint =
            checkpoint_from_records(snapshot.header.round as usize, &snapshot.records)?;
        session.engine.restore(checkpoint)?;
        session.stats = stats;
        session.last_records = snapshot.records;
        session.last_checkpoint_round = Some(snapshot.header.round);
        Ok(session)
    }
}

/// Flatten an [`EngineCheckpoint`] into the store's node records.
pub(crate) fn records_from_checkpoint(checkpoint: &EngineCheckpoint) -> Vec<NodeRecord> {
    checkpoint
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| NodeRecord {
            node: i as u32,
            estimators: node
                .estimators
                .iter()
                .map(|&(peer, est)| EstimatorRecord {
                    peer: peer.0,
                    rate: est.rate(),
                    value: est.estimate().get(),
                    count: est.transactions(),
                })
                .collect(),
            table: node
                .table
                .iter()
                .map(|&(peer, entry)| TableRecord {
                    peer: peer.0,
                    local_trust: entry.local_trust.get(),
                    aggregated: entry.aggregated.map(TrustValue::get),
                    last_heard_round: entry.last_heard_round,
                    transactions: entry.transactions,
                })
                .collect(),
            run: checkpoint.aggregated[i]
                .iter()
                .map(|&(subject, rep)| (subject.0, rep))
                .collect(),
            mean: checkpoint.observer_mean[i],
            audit_log: node
                .log
                .iter()
                .map(|e| AuditEntryRecord {
                    subject: e.subject.0,
                    round: e.round,
                    reported: e.reported,
                    implied: e.implied,
                })
                .collect(),
            strikes: node.strikes,
            convicted_at: node.convicted_at,
        })
        .collect()
}

/// Rebuild an [`EngineCheckpoint`] from store records. Records must be
/// dense: record `i` describes node `i`.
pub(crate) fn checkpoint_from_records(
    round: usize,
    records: &[NodeRecord],
) -> Result<EngineCheckpoint, SessionError> {
    let mut nodes = Vec::with_capacity(records.len());
    let mut aggregated = Vec::with_capacity(records.len());
    let mut observer_mean = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        if record.node as usize != i {
            return Err(SessionError::Snapshot {
                reason: format!(
                    "record {i} describes node {} (snapshot not dense)",
                    record.node
                ),
            });
        }
        nodes.push(NodeCheckpoint {
            estimators: record
                .estimators
                .iter()
                .map(|e| {
                    (
                        NodeId(e.peer),
                        // `saturating` is the identity for every value
                        // an estimator can hold (checkpointed values
                        // are already clamped), so this round-trips
                        // bit-for-bit; it only guards hand-edited
                        // snapshots.
                        EwmaEstimator::from_parts(e.rate, TrustValue::saturating(e.value), e.count),
                    )
                })
                .collect(),
            table: record
                .table
                .iter()
                .map(|t| {
                    (
                        NodeId(t.peer),
                        TableEntry {
                            local_trust: TrustValue::saturating(t.local_trust),
                            aggregated: t.aggregated.map(TrustValue::saturating),
                            last_heard_round: t.last_heard_round,
                            transactions: t.transactions,
                        },
                    )
                })
                .collect(),
            log: record
                .audit_log
                .iter()
                .map(|e| ReportLogEntry {
                    subject: NodeId(e.subject),
                    round: e.round,
                    reported: e.reported,
                    implied: e.implied,
                })
                .collect(),
            strikes: record.strikes,
            convicted_at: record.convicted_at,
        });
        aggregated.push(
            record
                .run
                .iter()
                .map(|&(subject, rep)| (NodeId(subject), rep))
                .collect(),
        );
        observer_mean.push(record.mean);
    }
    Ok(EngineCheckpoint {
        round,
        nodes,
        aggregated,
        observer_mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_gossip::EngineKind;

    fn small_config() -> RunConfig {
        RunConfig::with_nodes(80)
            .with_seed(7)
            .with_rounds(5)
            .with_free_riders(0.25)
            .with_quality_range(0.4, 1.0)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dg_session_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_seed_is_deterministic_and_spread() {
        assert_eq!(round_seed(42, 3), round_seed(42, 3));
        assert_ne!(round_seed(42, 3), round_seed(42, 4));
        assert_ne!(round_seed(42, 3), round_seed(43, 3));
    }

    #[test]
    fn invalid_gossip_knobs_and_adversary_mixes_are_rejected_up_front() {
        let bad_xi = RunConfig {
            xi: 0.0,
            ..small_config()
        };
        assert!(matches!(
            RunSession::new(bad_xi),
            Err(SessionError::Gossip(GossipError::InvalidTolerance(_)))
        ));
        let mut bad_mix = small_config();
        bad_mix.adversary.sybil_fraction = 1.5;
        assert!(matches!(
            RunSession::new(bad_mix),
            Err(SessionError::Gossip(GossipError::InvalidAdversaryMix(_)))
        ));
    }

    #[test]
    fn run_config_serde_round_trips() {
        let config = small_config().with_engine(EngineKind::Incremental);
        let json = serde_json::to_string(&config).unwrap();
        let back: RunConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn session_matches_build_engine_path() {
        let config = small_config();
        let mut session = RunSession::new(config).unwrap();
        session.run().unwrap();

        let scenario = Arc::new(Scenario::build(config).unwrap());
        let mut engine = build_engine(scenario, &config);
        for r in 0..config.rounds {
            engine.run_round(round_seed(config.seed, r as u64)).unwrap();
        }
        for i in 0..config.nodes as u32 {
            for j in 0..config.nodes as u32 {
                assert_eq!(
                    session.aggregated(NodeId(i), NodeId(j)),
                    engine.core().aggregated(NodeId(i), NodeId(j))
                );
            }
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let config = small_config();
        let dir = temp_dir("resume");

        let mut straight = RunSession::new(config).unwrap();
        straight.run().unwrap();

        let mut killed = RunSession::new(config).unwrap();
        killed.run_to(2).unwrap();
        assert_eq!(killed.checkpoint(&dir).unwrap(), CheckpointKind::Full);
        drop(killed);

        let mut resumed = RunSession::resume(&dir).unwrap();
        assert_eq!(resumed.round(), 2);
        resumed.run().unwrap();

        let a = records_from_checkpoint(&straight.engine.core().checkpoint());
        let b = records_from_checkpoint(&resumed.engine.core().checkpoint());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(x.bits_eq(y), "node {} diverged after resume", x.node);
        }
        assert_eq!(straight.stats(), resumed.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consecutive_checkpoints_write_deltas() {
        let config = small_config();
        let dir = temp_dir("delta");
        let mut session = RunSession::new(config).unwrap();
        session.run_to(1).unwrap();
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Full);
        session.run_to(2).unwrap();
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Delta);
        session.run_to(3).unwrap();
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Delta);

        let resumed = RunSession::resume(&dir).unwrap();
        assert_eq!(resumed.round(), 3);
        let want = records_from_checkpoint(&session.engine.core().checkpoint());
        let got = records_from_checkpoint(&resumed.engine.core().checkpoint());
        for (x, y) in want.iter().zip(&got) {
            assert!(x.bits_eq(y), "node {} lost state through deltas", x.node);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_same_round_twice_rewrites_full_epoch() {
        let config = small_config();
        let dir = temp_dir("rewrite");
        let mut session = RunSession::new(config).unwrap();
        session.run_to(2).unwrap();
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Full);
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Full);
        let resumed = RunSession::resume(&dir).unwrap();
        assert_eq!(resumed.round(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_empty_dir_is_a_typed_error() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        match RunSession::resume(&dir) {
            Err(SessionError::Store(StoreError::NoSnapshot { .. })) => {}
            Err(other) => panic!("expected NoSnapshot, got {other:?}"),
            Ok(_) => panic!("expected NoSnapshot, got a session"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_engine_restore_continues_identically() {
        // Checkpoint under the sequential driver, resume under the
        // sharded engine: the continuation must be bit-identical.
        let seq = small_config().with_engine(EngineKind::Sequential);
        let dir = temp_dir("cross");
        let mut session = RunSession::new(seq).unwrap();
        session.run_to(2).unwrap();
        session.checkpoint(&dir).unwrap();

        let mut straight = RunSession::new(seq).unwrap();
        straight.run().unwrap();

        // Rewrite the stored config to select another engine. The
        // header carries the config as JSON, so this is exactly what a
        // user editing the snapshot would do; here we just resume and
        // then swap engines via a fresh session restored from records.
        let snapshot = Store::open(&dir).load_latest().unwrap();
        let sharded = seq.with_engine(EngineKind::Sharded);
        let mut resumed = RunSession::new(sharded).unwrap();
        let checkpoint =
            checkpoint_from_records(snapshot.header.round as usize, &snapshot.records).unwrap();
        resumed.engine.restore(checkpoint).unwrap();
        resumed.run_to(seq.rounds).unwrap();

        let a = records_from_checkpoint(&straight.engine.core().checkpoint());
        let b = records_from_checkpoint(&resumed.engine.core().checkpoint());
        for (x, y) in a.iter().zip(&b) {
            assert!(x.bits_eq(y), "node {} diverged across engines", x.node);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
