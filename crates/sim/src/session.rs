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
//! could not reproduce), and the checkpoint is the store's own
//! [`NodeRecord`] list ([`RunSession::records`]): one record per node
//! carrying exactly the cross-round state — estimators, audit state,
//! aggregated run and observer mean — plus the round counter in the
//! header. Everything else (each round's trust matrix, aggregate caches)
//! is derived per round from the estimators and deliberately omitted;
//! `tests/crash_recovery.rs` pins the equivalence for both engines.
//!
//! Durability itself lives in the `dg-store` crate: full epochs are
//! written as per-shard files, and consecutive checkpoints of a mostly
//! idle network persist as *delta* records — only the nodes the engine
//! marked as changed since the last checkpoint, each encoded straight
//! from live state. This
//! module is the one place that converts between a node's live state
//! and its record, and the conversion back validates what it reads: a
//! store is outside input.
//!
//! Underneath, [`Scenario::build`] builds what the rounds read (never
//! [`Scenario::trust`]) and [`build_engine`] the engine its config
//! selects; callers that hold the scenario themselves or choose their
//! own round seeds use those directly and give up resumability.

pub use crate::config::RunConfig;
use crate::kernel::{row_mean, NodeState};
use crate::rounds::{build_engine, RoundEngine, RoundStats};
use crate::scenario::Scenario;
use dg_core::CoreError;
use dg_gossip::GossipError;
use dg_graph::NodeId;
use dg_store::{
    AuditEntryRecord, EstimatorRecord, NodeRecord, Snapshot, SnapshotHeader, Store, StoreError,
};
use dg_trust::audit::{ReportLog, ReportLogEntry};
use dg_trust::prelude::EwmaEstimator;
use dg_trust::{ShardSpec, TrustValue};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
#[derive(Debug)]
pub enum SessionError {
    /// Scenario construction or a round failed.
    Core(CoreError),
    /// The gossip-layer knobs are invalid.
    Gossip(GossipError),
    /// The durable store rejected or could not produce a checkpoint.
    Store(StoreError),
    /// A loaded snapshot is internally inconsistent or does not fit the
    /// engine it was offered to.
    Snapshot {
        /// What made the snapshot unusable.
        reason: String,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Core(e) => std::fmt::Display::fmt(e, f),
            SessionError::Gossip(e) => std::fmt::Display::fmt(e, f),
            SessionError::Store(e) => std::fmt::Display::fmt(e, f),
            SessionError::Snapshot { reason } => write!(f, "snapshot is not usable: {reason}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Core(e) => Some(e),
            SessionError::Gossip(e) => Some(e),
            SessionError::Store(e) => Some(e),
            SessionError::Snapshot { .. } => None,
        }
    }
}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> Self {
        SessionError::Core(e)
    }
}

impl From<GossipError> for SessionError {
    fn from(e: GossipError) -> Self {
        SessionError::Gossip(e)
    }
}

impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> Self {
        SessionError::Store(e)
    }
}

/// One node's cross-round state — its [`NodeState`], its aggregated
/// `run` and its observer `mean` — written down as the store's record.
pub(crate) fn node_record(
    node: usize,
    state: &NodeState,
    run: &[(NodeId, f64)],
    mean: Option<f64>,
) -> NodeRecord {
    NodeRecord {
        node: node as u32,
        estimators: state
            .estimators
            .iter()
            .map(|(peer, est)| EstimatorRecord {
                peer: peer.0,
                rate: est.rate(),
                value: est.estimate().get(),
                count: est.transactions(),
            })
            .collect(),
        run: run.iter().map(|&(subject, rep)| (subject.0, rep)).collect(),
        mean,
        audit_log: state
            .log
            .entries()
            .iter()
            .map(|e| AuditEntryRecord {
                subject: e.subject.0,
                round: e.round,
                reported: e.reported,
                implied: e.implied,
            })
            .collect(),
        strikes: state.strikes,
        convicted_at: state.convicted_at,
    }
}

/// What one [`NodeRecord`] restores: the node's kernel state, its
/// aggregated run and its observer mean.
pub(crate) type NodeParts = (NodeState, Vec<(NodeId, f64)>, Option<f64>);

/// Whether `record` can be node `node` of `nodes`. A record comes from
/// disk, so everything the round loop would index, search or feed into
/// admission arithmetic is checked before [`node_from_record`] reads
/// it: every id list strictly ascending (the run and the audit log are
/// binary-searched) and below `nodes`, rates in `[0, 1]`, run values
/// and the mean finite, the mean exactly its run's [`row_mean`].
/// Records this crate wrote pass.
pub(crate) fn check_record(
    node: usize,
    record: &NodeRecord,
    nodes: usize,
) -> Result<(), SessionError> {
    let bad = |what: String| SessionError::Snapshot {
        reason: format!("node {node}: {what}"),
    };
    if record.node as usize != node {
        return Err(bad(format!("record describes node {}", record.node)));
    }
    let peers = record.estimators.iter().map(|e| e.peer);
    let subjects = record.run.iter().map(|r| r.0);
    let audited = record.audit_log.iter().map(|e| e.subject);
    for (field, stray) in [
        ("estimator peer", first_stray_id(peers, nodes)),
        ("run subject", first_stray_id(subjects, nodes)),
        ("audit subject", first_stray_id(audited, nodes)),
    ] {
        if let Some(id) = stray {
            return Err(bad(format!(
                "{field} {id} is not strictly ascending below {nodes}"
            )));
        }
    }
    if let Some(e) = record
        .estimators
        .iter()
        .find(|e| !(0.0..=1.0).contains(&e.rate))
    {
        return Err(bad(format!(
            "estimator rate {} for peer {}",
            e.rate, e.peer
        )));
    }
    if let Some((subject, rep)) = record.run.iter().find(|r| !r.1.is_finite()) {
        return Err(bad(format!("run value {rep} for subject {subject}")));
    }
    if record.mean.is_some_and(|m| !m.is_finite()) {
        return Err(bad(format!("observer mean {:?}", record.mean)));
    }
    // Rounds keep the mean equal to its run's, and delta checkpoints
    // rely on it: a mean never moves without its run.
    if record.mean.map(f64::to_bits) != row_mean(&record.run).map(f64::to_bits) {
        return Err(bad(format!(
            "observer mean {:?} is not the mean of its run",
            record.mean
        )));
    }
    Ok(())
}

/// The inverse of [`node_record`], for a record [`check_record`]
/// accepted: copied into fresh allocations (the record's own buffers
/// are not adopted), bit for bit.
pub(crate) fn node_from_record(record: &NodeRecord) -> NodeParts {
    // `saturating` is the identity for every value an estimator can
    // hold, so written records round-trip bit for bit.
    let estimator = |e: &EstimatorRecord| {
        let value = TrustValue::saturating(e.value);
        (
            NodeId(e.peer),
            EwmaEstimator::from_parts(e.rate, value, e.count),
        )
    };
    let logged = |e: &AuditEntryRecord| ReportLogEntry {
        subject: NodeId(e.subject),
        round: e.round,
        reported: e.reported,
        implied: e.implied,
    };
    let state = NodeState {
        estimators: record.estimators.iter().map(estimator).collect(),
        log: ReportLog::from_entries(record.audit_log.iter().map(logged).collect()),
        strikes: record.strikes,
        convicted_at: record.convicted_at,
    };
    let run = record
        .run
        .iter()
        .map(|&(j, rep)| (NodeId(j), rep))
        .collect();
    (state, run, record.mean)
}

/// The first id that breaks "strictly ascending and below `nodes`".
fn first_stray_id(mut ids: impl Iterator<Item = u32>, nodes: usize) -> Option<u32> {
    let mut floor = 0;
    ids.find(|&id| {
        let stray = id < floor || id as usize >= nodes;
        floor = id.saturating_add(1);
        stray
    })
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
    stats: Vec<RoundStats>,
    /// Store root and round of the last checkpoint *we* wrote or
    /// resumed from (deltas only extend a chain this session owns
    /// end-to-end, in the directory it owns it in). The engine's change
    /// marks count from exactly this checkpoint.
    last_checkpoint: Option<(PathBuf, u64)>,
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
            engine: build_engine(scenario),
            stats: Vec::new(),
            last_checkpoint: None,
        })
    }

    /// The config driving this session.
    pub fn config(&self) -> &RunConfig {
        &self.engine.core().scenario.config
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

    /// The cross-round state as the store's node records — what
    /// [`checkpoint`](Self::checkpoint) persists and
    /// [`resume`](Self::resume) restores; compare two runs with
    /// [`NodeRecord::bits_eq`].
    pub fn records(&self) -> Vec<NodeRecord> {
        self.engine.core().records()
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
    /// the shed counter onto the round it just drove.
    pub(crate) fn stats_mut(&mut self) -> &mut [RoundStats] {
        &mut self.stats
    }

    /// Run rounds until `round` rounds have completed (no-op if already
    /// there); returns the full stats history.
    pub fn run_to(&mut self, round: usize) -> Result<&[RoundStats], SessionError> {
        while self.round() < round {
            let seed = round_seed(self.config().seed, self.round() as u64);
            let stat = self.engine.run_round(seed)?;
            self.stats.push(stat);
        }
        Ok(&self.stats)
    }

    /// Run all configured rounds ([`RunConfig::rounds`]).
    pub fn run(&mut self) -> Result<&[RoundStats], SessionError> {
        self.run_to(self.config().rounds)
    }

    /// Persist the current state into the store at `dir`.
    ///
    /// Writes a full epoch the first time (and every
    /// [`FULL_EPOCH_INTERVAL`]-th time, and whenever the chain in `dir`
    /// is not the one this session last wrote or resumed); in between,
    /// consecutive checkpoints persist only the node records that
    /// changed since the last one, as a delta on the chain: the nodes
    /// the engine marked. Either kind encodes one record at a time from
    /// live state (no full record list, no diff). A round's marks are
    /// exactly the records it changed; over several rounds they may
    /// include one a later round put back to its committed bits, which
    /// the delta then rewrites unchanged. The marks clear only once the commit
    /// succeeds, so a failed checkpoint can simply be retried.
    /// Checkpointing the same round twice rewrites a full epoch
    /// idempotently.
    pub fn checkpoint(&mut self, dir: &Path) -> Result<CheckpointKind, SessionError> {
        let round = self.round() as u64;
        let store = Store::open(dir);
        let head = store.head()?;

        let spec = ShardSpec::configured(self.config().nodes, self.config().shard_count);
        let mut header = SnapshotHeader {
            format_version: dg_store::FORMAT_VERSION,
            round,
            nodes: self.config().nodes as u64,
            shard_ranges: (0..spec.shard_count())
                .map(|s| {
                    let r = spec.range(s);
                    (u64::from(r.start), u64::from(r.end))
                })
                .collect(),
            base_round: None,
            engine: format!("{:?}", self.config().engine),
            config_json: serde_json::to_string(&self.config()).map_err(|e| {
                SessionError::Snapshot {
                    reason: format!("config serialization failed: {e}"),
                }
            })?,
            stats_json: serde_json::to_string(&self.stats).map_err(|e| SessionError::Snapshot {
                reason: format!("stats serialization failed: {e}"),
            })?,
            notes: String::new(),
        };

        // The chain's tip must be the checkpoint the engine's change
        // marks count from: same directory, same round. Another
        // directory whose unrelated chain happens to end on that round
        // gets a full epoch (paths compare as given, so an alias of the
        // same directory merely costs one too).
        let base = match (&head, &self.last_checkpoint) {
            (Some(h), Some((root, base)))
                if root == dir
                    && h.latest_round() == *base
                    && round > *base
                    && h.delta_rounds.len() < FULL_EPOCH_INTERVAL =>
            {
                Some(*base)
            }
            _ => None,
        };

        let core = self.engine.core();
        let kind = if let Some(base) = base {
            header.base_round = Some(base);
            store.write_delta(&header, core.marked_records())?;
            CheckpointKind::Delta
        } else {
            store.write_epoch_with(&header, |node| core.record(NodeId(node)))?;
            CheckpointKind::Full
        };
        // Committed: the marks restart from this state. A failed write
        // returned above with them intact, so a retry loses nothing.
        self.engine.core_mut().commit_marks();
        self.last_checkpoint = Some((dir.to_path_buf(), round));
        Ok(kind)
    }

    /// Rebuild a session from the latest committed checkpoint in `dir`.
    ///
    /// The config (and stats history) come out of the snapshot header,
    /// the scenario is rebuilt deterministically from the config's
    /// seed, and the engine state is restored record-for-record — the
    /// resumed session continues the run bit-for-bit. The resume holds
    /// the loaded records and one engine: the records are restored in
    /// place into the engine just built and freed once it holds them.
    pub fn resume(dir: &Path) -> Result<Self, SessionError> {
        let Snapshot { header, records } = Store::open(dir).load_latest()?;
        let config: RunConfig =
            serde_json::from_str(&header.config_json).map_err(|e| SessionError::Snapshot {
                reason: format!("snapshot header carries no usable RunConfig: {e}"),
            })?;
        if header.nodes != config.nodes as u64 {
            return Err(SessionError::Snapshot {
                reason: format!(
                    "header says {} nodes but its config says {}",
                    header.nodes, config.nodes
                ),
            });
        }
        let stats: Vec<RoundStats> = if header.stats_json.is_empty() {
            Vec::new()
        } else {
            serde_json::from_str(&header.stats_json).map_err(|e| SessionError::Snapshot {
                reason: format!("snapshot header carries unreadable stats: {e}"),
            })?
        };

        let mut session = Self::new(config)?;
        session.engine.restore(header.round as usize, records)?;
        session.stats = stats;
        session.last_checkpoint = Some((dir.to_path_buf(), header.round));
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TransactionRecord;
    use crate::rounds::{AggregationMode, AggregationScope};
    use crate::workload::TrafficModel;
    use dg_gossip::{AdversaryMix, EngineKind};
    use dg_store::first_divergence;
    use dg_trust::audit::AuditPolicy;
    use dg_trust::prelude::TransactionOutcome;

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
        let mut engine = build_engine(scenario);
        for r in 0..config.rounds {
            engine.run_round(round_seed(config.seed, r as u64)).unwrap();
        }
        let diverged = first_divergence(&session.records(), &engine.core().records());
        assert_eq!(diverged, None);
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

        // Extract and disk agree: the live records are what the store
        // hands back, and a resume restores exactly them.
        let on_disk = Store::open(&dir).load_latest().unwrap().records;
        assert_eq!(first_divergence(&session.records(), &on_disk), None);
        let resumed = RunSession::resume(&dir).unwrap();
        assert_eq!(resumed.round(), 3);
        let lost = first_divergence(&session.records(), &resumed.records());
        assert_eq!(lost, None, "lost state through deltas");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_checkpoint_keeps_its_marks_and_the_retry_loses_nothing() {
        let dir = temp_dir("failed_write");
        let mut session = RunSession::new(small_config()).unwrap();
        session.run_to(1).unwrap();
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Full);
        session.run_to(3).unwrap();
        let marked: Vec<NodeId> = session.engine.core().marks.iter().collect();
        assert!(!marked.is_empty());

        // A directory where the delta's temporary file must go.
        let obstacle = dir.join("delta-3.bin.tmp");
        std::fs::create_dir_all(&obstacle).unwrap();
        match session.checkpoint(&dir) {
            Err(SessionError::Store(StoreError::Io { .. })) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        let kept: Vec<NodeId> = session.engine.core().marks.iter().collect();
        assert_eq!(kept, marked, "a failed write cleared marks");

        std::fs::remove_dir(&obstacle).unwrap();
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Delta);
        let on_disk = Store::open(&dir).load_latest().unwrap().records;
        assert_eq!(first_divergence(&on_disk, &session.records()), None);
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
    fn shard_count_is_capped_at_the_node_count() {
        let config = RunConfig::with_nodes(40)
            .with_seed(7)
            .with_rounds(2)
            .with_engine(EngineKind::Incremental)
            .with_shards(usize::MAX);
        let dir = temp_dir("shard_cap");
        let mut session = RunSession::new(config).unwrap();
        session.run_to(1).unwrap();
        assert_eq!(session.checkpoint(&dir).unwrap(), CheckpointKind::Full);
        let files = std::fs::read_dir(Store::open(&dir).epoch_dir(1)).unwrap();
        let shard_files = files
            .filter(|f| {
                f.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("shard-")
            })
            .count();
        assert!((1..=40).contains(&shard_files), "{shard_files} shard files");
        assert_eq!(RunSession::resume(&dir).unwrap().round(), 1);
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
    fn a_delta_never_lands_on_another_directorys_chain() {
        // Two unrelated runs whose chains both end at round 2. A writes
        // its round-2 state into its own directory, then checkpoints
        // round 3 into B's: that must be a full epoch of A's state, not
        // a delta of A's changes on top of B's base.
        let (dir_a, dir_b) = (temp_dir("cross_dir_a"), temp_dir("cross_dir_b"));
        let mut b = RunSession::new(small_config().with_seed(8)).unwrap();
        b.run_to(2).unwrap();
        b.checkpoint(&dir_b).unwrap();

        let mut a = RunSession::new(small_config()).unwrap();
        a.run_to(2).unwrap();
        assert_eq!(a.checkpoint(&dir_a).unwrap(), CheckpointKind::Full);
        a.run_to(3).unwrap();
        assert_eq!(a.checkpoint(&dir_b).unwrap(), CheckpointKind::Full);

        let resumed = RunSession::resume(&dir_b).unwrap();
        assert_eq!(resumed.config().seed, 7);
        let wrong = first_divergence(&a.records(), &resumed.records());
        assert_eq!(wrong, None, "restored from the wrong base");
        // Back in the directory it now owns, the chain continues.
        a.run_to(4).unwrap();
        assert_eq!(a.checkpoint(&dir_b).unwrap(), CheckpointKind::Delta);
        for dir in [dir_a, dir_b] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_full_epoch_checkpoint_writes_the_bytes_of_write_epoch() {
        let config = small_config()
            .with_engine(EngineKind::Incremental)
            .with_shards(3);
        let (streamed, sliced) = (temp_dir("epoch_streamed"), temp_dir("epoch_sliced"));
        let mut session = RunSession::new(config).unwrap();
        session.run_to(2).unwrap();
        assert_eq!(session.checkpoint(&streamed).unwrap(), CheckpointKind::Full);
        let header = Store::open(&streamed).load_latest().unwrap().header;
        assert_eq!(header.shard_ranges.len(), 3);
        Store::open(&sliced)
            .write_epoch(&header, &session.records())
            .unwrap();
        let versions = dg_store::same(&sliced, &streamed).unwrap();
        let ours = dg_store::FORMAT_VERSION;
        assert_eq!(versions, Some((ours, ours)), "one format: byte for byte");
        for dir in [streamed, sliced] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn restore_rejects_records_the_round_loop_cannot_run_on() {
        // Gated traffic in neighbourhood scope takes the delta round,
        // whose derived state — matrix, column cache, arenas, pending
        // rows — carries across rounds; a refusal must not touch it.
        let config = small_config()
            .with_engine(EngineKind::Incremental)
            .with_traffic(TrafficModel::full().with_activity(0.5))
            .with_scope(AggregationScope::Neighbourhood);
        let mut session = RunSession::new(config).unwrap();
        session.run_to(2).unwrap();
        let good = session.records();
        let node = good
            .iter()
            .position(|r| r.run.len() >= 2 && !r.estimators.is_empty())
            .unwrap();
        let audit = AuditEntryRecord {
            subject: 1,
            round: 1,
            reported: 0.5,
            implied: Some(0.5),
        };
        type Damage = fn(&mut NodeRecord);
        let cases: [(&str, Damage); 12] = [
            ("estimator peer 80 is not", |r| r.estimators[0].peer = 80),
            ("run subject 80 is not", |r| {
                r.run.last_mut().unwrap().0 = 80
            }),
            ("audit subject 80 is not", |r| r.audit_log[1].subject = 80),
            ("run subject", |r| r.run.swap(0, 1)),
            ("run subject", |r| r.run[1].0 = r.run[0].0),
            ("audit subject 1 is not", |r| r.audit_log.swap(0, 1)),
            ("estimator rate NaN", |r| r.estimators[0].rate = f64::NAN),
            ("estimator rate 1.5", |r| r.estimators[0].rate = 1.5),
            ("run value inf", |r| r.run[0].1 = f64::INFINITY),
            ("observer mean Some(NaN)", |r| r.mean = Some(f64::NAN)),
            ("is not the mean of its run", |r| {
                r.mean = r.mean.map(|m| m / 2.0)
            }),
            ("record describes node", |r| r.node += 1),
        ];
        for (expect, damage) in cases {
            let mut records = good.clone();
            records[node].audit_log = vec![
                audit,
                AuditEntryRecord {
                    subject: 2,
                    ..audit
                },
            ];
            damage(&mut records[node]);
            match session.engine.restore(2, records) {
                Err(SessionError::Snapshot { reason }) => assert!(
                    reason.contains(&format!("node {node}: ")) && reason.contains(expect),
                    "{expect:?} not named in {reason:?}"
                ),
                other => panic!("{expect}: expected a Snapshot error, got {other:?}"),
            }
        }
        match session.engine.restore(2, good[1..].to_vec()) {
            Err(SessionError::Snapshot { reason }) => assert!(reason.contains("79 node records")),
            other => panic!("short record list: got {other:?}"),
        }
        // Every refusal left the engine as it was: its records, and the
        // derived state the next rounds run on. A refusal that half
        // rebuilt the delta state moves the bits of the rounds after it.
        let changed = first_divergence(&good, &session.records());
        assert_eq!(changed, None, "changed by a refused restore");
        let mut twin = RunSession::new(config).unwrap();
        session.run_to(4).unwrap();
        twin.run_to(4).unwrap();
        assert_eq!(
            format!("{:?}", session.stats()),
            format!("{:?}", twin.stats()),
            "rounds after a refused restore"
        );
        let diverged = first_divergence(&twin.records(), &session.records());
        assert_eq!(diverged, None, "records after a refused restore");
        // The undamaged records are accepted.
        session.engine.restore(2, good.clone()).unwrap();
        let changed = first_divergence(&good, &session.records());
        assert_eq!(changed, None, "changed by its own records");
    }

    /// FNV-1a fold of every bit of every record: ids, counts, and each
    /// `f64` by `to_bits` (an absent value folds as a marker word).
    fn records_digest(records: &[NodeRecord]) -> u64 {
        fn fold(hash: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *hash = (*hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for r in records {
            fold(&mut hash, r.node as u64);
            fold(&mut hash, r.estimators.len() as u64);
            for e in &r.estimators {
                for word in [e.peer as u64, e.rate.to_bits(), e.value.to_bits(), e.count] {
                    fold(&mut hash, word);
                }
            }
            fold(&mut hash, r.run.len() as u64);
            for &(subject, rep) in &r.run {
                fold(&mut hash, subject as u64);
                fold(&mut hash, rep.to_bits());
            }
            fold(&mut hash, opt(r.mean));
            fold(&mut hash, r.audit_log.len() as u64);
            for e in &r.audit_log {
                for word in [
                    e.subject as u64,
                    e.round,
                    e.reported.to_bits(),
                    opt(e.implied),
                ] {
                    fold(&mut hash, word);
                }
            }
            fold(&mut hash, r.strikes as u64);
            fold(&mut hash, r.convicted_at.unwrap_or(u64::MAX));
        }
        hash
    }

    /// Runs `config` for six rounds on both engines (calling `before`
    /// ahead of each round), checks both against the pinned digest of
    /// every record and the last round's stats as JSON, and returns the
    /// production engine's session.
    fn assert_pinned(
        config: RunConfig,
        before: impl Fn(&mut RunSession, usize),
        digest: u64,
        last_stats: &str,
    ) -> RunSession {
        let mut sessions = [EngineKind::Sequential, EngineKind::Incremental].map(|engine| {
            let mut session = RunSession::new(config.with_engine(engine)).unwrap();
            for round in 0..6 {
                before(&mut session, round);
                session.run_to(round + 1).unwrap();
            }
            let stats = serde_json::to_string(session.stats().last().unwrap()).unwrap();
            let got = records_digest(&session.records());
            assert_eq!(
                (got, stats.as_str()),
                (digest, last_stats),
                "{engine:?}: got {got:#018x}"
            );
            Some(session)
        });
        sessions[1].take().unwrap()
    }

    /// Full traffic: every requester's estimators are created in its
    /// adjacency order in round 0 and only updated after.
    #[test]
    fn dense_rounds_are_pinned() {
        let stats = r#"{"round":5,"served_honest":1190,"refused_honest":5,"served_free_riders":0,"refused_free_riders":375,"served_adversaries":0,"refused_adversaries":0,"mean_rep_honest":0.37058598060790826,"mean_rep_free_riders":0.01715940799823838,"mean_rep_adversaries":0,"washes":0,"active_nodes":80,"dirty_fraction":0.725,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":314,"ingested_reports":0,"ingest_shed":0}"#;
        assert_pinned(
            small_config().with_rounds(6),
            |_, _| {},
            0x9670_abdf_f82b_d7ea,
            stats,
        );
    }

    /// From round 2 on, queues three ingest batches that name providers
    /// outside the requester's adjacency, between its lowest and highest
    /// rated peers.
    fn off_graph_ingest(session: &mut RunSession, round: usize) {
        if round < 2 {
            return;
        }
        let graph = &session.engine.core().scenario.graph;
        let records = session.records();
        let mut batches = Vec::new();
        for r in records.iter().filter(|r| r.estimators.len() >= 2) {
            let (lo, hi) = (r.estimators[0].peer, r.estimators.last().unwrap().peer);
            let neighbours = graph.neighbours(NodeId(r.node));
            let stranger = (lo + 1..hi).find(|&p| {
                p != r.node
                    && !neighbours.contains(&p)
                    && r.estimators.binary_search_by_key(&p, |e| e.peer).is_err()
            });
            if let Some(p) = stranger {
                let quality = (r.node % 5) as f64 / 4.0;
                let outcome = if r.node % 3 == 0 {
                    TransactionOutcome::Refused
                } else {
                    TransactionOutcome::Served { quality }
                };
                let record = TransactionRecord {
                    provider: NodeId(p),
                    outcome,
                };
                batches.push((NodeId(r.node), vec![record; 1 + round % 2]));
            }
            if batches.len() == 3 {
                break;
            }
        }
        assert_eq!(batches.len(), 3, "round {round}: three mid-run strangers");
        session.queue_reports(batches);
    }

    /// Whether some node's view holds a stranger between two rated peers.
    fn has_stranger_inside(session: &RunSession) -> bool {
        let graph = &session.engine.core().scenario.graph;
        session.records().iter().any(|r| {
            let n = r.estimators.len();
            n >= 3
                && r.estimators[1..n - 1]
                    .iter()
                    .any(|e| !graph.neighbours(NodeId(r.node)).contains(&e.peer))
        })
    }

    /// Skewed traffic plus ingest that names providers outside the
    /// requester's adjacency, between its lowest and highest rated
    /// peers: the new estimator lands in the middle of the node's view.
    #[test]
    fn skewed_rounds_with_off_graph_ingest_are_pinned() {
        let config = small_config()
            .with_rounds(6)
            .with_traffic(TrafficModel::full().with_activity(0.3).with_zipf(0.8));
        let stats = r#"{"round":5,"served_honest":150,"refused_honest":0,"served_free_riders":10,"refused_free_riders":45,"served_adversaries":0,"refused_adversaries":0,"mean_rep_honest":0.37152675141756064,"mean_rep_free_riders":0.02341084641040902,"mean_rep_adversaries":0,"washes":0,"active_nodes":16,"dirty_fraction":0.1625,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":198,"ingested_reports":6,"ingest_shed":0}"#;
        let session = assert_pinned(config, off_graph_ingest, 0xab6f_012f_7302_c72b, stats);
        assert!(
            has_stranger_inside(&session),
            "no stranger between two rated peers"
        );
    }

    /// The closed-form neighbourhood twin of the skewed pin: the same
    /// traffic and off-graph ingest, aggregated over each observer's
    /// neighbours only.
    #[test]
    fn skewed_neighbourhood_rounds_with_off_graph_ingest_are_pinned() {
        let config = small_config()
            .with_rounds(6)
            .with_scope(AggregationScope::Neighbourhood)
            .with_traffic(TrafficModel::full().with_activity(0.3).with_zipf(0.8));
        let stats = r#"{"round":5,"served_honest":145,"refused_honest":5,"served_free_riders":10,"refused_free_riders":45,"served_adversaries":0,"refused_adversaries":0,"mean_rep_honest":0.35082361914708776,"mean_rep_free_riders":0.030170218559330414,"mean_rep_adversaries":0,"washes":0,"active_nodes":16,"dirty_fraction":0.1625,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":200,"ingested_reports":6,"ingest_shed":0}"#;
        let session = assert_pinned(config, off_graph_ingest, 0xed8f_c973_8c84_b39f, stats);
        assert!(
            has_stranger_inside(&session),
            "no stranger between two rated peers"
        );
    }

    /// Gated traffic aggregated by real Variation-4 gossip.
    #[test]
    fn skewed_gossip_rounds_are_pinned() {
        let config = small_config()
            .with_rounds(6)
            .with_aggregation(AggregationMode::Gossip)
            .with_traffic(TrafficModel::full().with_activity(0.3).with_zipf(0.8));
        let stats = r#"{"round":5,"served_honest":150,"refused_honest":0,"served_free_riders":10,"refused_free_riders":45,"served_adversaries":0,"refused_adversaries":0,"mean_rep_honest":0.37845178248848177,"mean_rep_free_riders":0.016365112374901365,"mean_rep_adversaries":0,"washes":0,"active_nodes":16,"dirty_fraction":0.1625,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":186,"ingested_reports":0,"ingest_shed":0}"#;
        assert_pinned(config, |_, _| {}, 0xada7_0886_d1e1_bf36, stats);
    }

    /// Whitewashers wash and audits convict: `forget` drops the purged
    /// peers from every view, `reset_identity` empties the purged
    /// nodes', and the audit log reads each emitted report's estimator.
    #[test]
    fn whitewash_and_audit_rounds_are_pinned() {
        let mix = AdversaryMix {
            whitewash_fraction: 0.1,
            stealth_fraction: 0.15,
            stealth_clique: 4,
            stealth_bias: 1.0,
            ..AdversaryMix::none()
        };
        let audit = AuditPolicy {
            audit_rate: 0.3,
            log_capacity: 6,
            ..AuditPolicy::standard()
        };
        let config = small_config()
            .with_rounds(6)
            .with_adversary(mix)
            .with_audit(audit);
        let stats = r#"{"round":5,"served_honest":765,"refused_honest":0,"served_free_riders":40,"refused_free_riders":250,"served_adversaries":350,"refused_adversaries":5,"mean_rep_honest":0.39955307714207866,"mean_rep_free_riders":0.016808839561554767,"mean_rep_adversaries":0.14050490478426403,"washes":8,"active_nodes":75,"dirty_fraction":0.8125,"audits":22,"audit_strikes":3,"convictions":3,"audit_entries":44,"report_entries":282,"ingested_reports":0,"ingest_shed":0}"#;
        let session = assert_pinned(config, |_, _| {}, 0xa409_e801_3e90_22b1, stats);
        let stats = session.stats();
        assert!(
            stats.iter().map(|s| s.washes).sum::<u64>() > 0,
            "no whitewash"
        );
        assert!(
            stats.iter().map(|s| s.convictions).sum::<u64>() > 0,
            "no conviction"
        );
    }

    /// The sybil, collusion, slander and stealth presets: every attack's
    /// report distortion (and the sybils' dormancy) feeds the pinned
    /// records and stats.
    #[test]
    fn attack_preset_rounds_are_pinned() {
        let presets = [
            (
                AdversaryMix::sybil(),
                0x8ff2_ce2c_9540_002d,
                r#"{"round":5,"served_honest":790,"refused_honest":55,"served_free_riders":0,"refused_free_riders":325,"served_adversaries":400,"refused_adversaries":0,"mean_rep_honest":0.3138702714444866,"mean_rep_free_riders":0.012172679512742693,"mean_rep_adversaries":0.5990112180105233,"washes":0,"active_nodes":80,"dirty_fraction":0.7125,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":413,"ingested_reports":0,"ingest_shed":0}"#,
            ),
            (
                AdversaryMix::collusion(),
                0xa6a0_37e9_2417_1951,
                r#"{"round":5,"served_honest":810,"refused_honest":35,"served_free_riders":0,"refused_free_riders":325,"served_adversaries":400,"refused_adversaries":0,"mean_rep_honest":0.3748044568989372,"mean_rep_free_riders":0.013453072075786741,"mean_rep_adversaries":0.5342868670738121,"washes":0,"active_nodes":80,"dirty_fraction":0.7625,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":358,"ingested_reports":0,"ingest_shed":0}"#,
            ),
            (
                AdversaryMix::slander(),
                0x142c_4cb7_6b43_cfcd,
                r#"{"round":5,"served_honest":835,"refused_honest":10,"served_free_riders":0,"refused_free_riders":325,"served_adversaries":355,"refused_adversaries":45,"mean_rep_honest":0.2965834694328295,"mean_rep_free_riders":0.0137720263797783,"mean_rep_adversaries":0.24943989977205608,"washes":0,"active_nodes":80,"dirty_fraction":0.725,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":314,"ingested_reports":0,"ingest_shed":0}"#,
            ),
            (
                AdversaryMix::stealth(),
                0x2246_3976_ecb1_916a,
                r#"{"round":5,"served_honest":660,"refused_honest":45,"served_free_riders":0,"refused_free_riders":165,"served_adversaries":540,"refused_adversaries":160,"mean_rep_honest":0.26807330818383807,"mean_rep_free_riders":0.04025558554960425,"mean_rep_adversaries":0.23862872304303975,"washes":0,"active_nodes":80,"dirty_fraction":0.7375,"audits":0,"audit_strikes":0,"convictions":0,"audit_entries":0,"report_entries":314,"ingested_reports":0,"ingest_shed":0}"#,
            ),
        ];
        for (mix, digest, stats) in presets {
            let config = small_config().with_rounds(6).with_adversary(mix);
            assert_pinned(config, |_, _| {}, digest, stats);
        }
    }

    /// A bubbled-up error prints its inner message and is its own
    /// `source()` (the inner error itself, not the inner's source).
    #[test]
    fn every_error_variant_prints_its_message_and_names_its_source() {
        use std::error::Error;
        let cases = [
            (
                SessionError::from(CoreError::InvalidCollusion("fraction above 1".into())),
                "invalid collusion parameters: fraction above 1",
                Some("invalid collusion parameters: fraction above 1"),
            ),
            (
                SessionError::from(GossipError::ZeroFanout),
                "uniform fan-out must be at least 1",
                Some("uniform fan-out must be at least 1"),
            ),
            (
                SessionError::from(StoreError::NoDelta { dir: "s".into() }),
                "no delta to cut in s: HEAD.json names only the epoch",
                Some("no delta to cut in s: HEAD.json names only the epoch"),
            ),
            (
                SessionError::Snapshot {
                    reason: "node count 3, engine 4".into(),
                },
                "snapshot is not usable: node count 3, engine 4",
                None,
            ),
        ];
        for (e, msg, source) in cases {
            assert_eq!(e.to_string(), msg);
            assert_eq!(e.source().map(|s| s.to_string()).as_deref(), source);
        }
    }
}
