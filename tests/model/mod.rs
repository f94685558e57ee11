//! One session model for the bit-identity suites.
//!
//! A case is a [`RunConfig`] plus a sequence of [`Op`]s applied to a
//! candidate [`RunSession`]. There is one oracle: a straight
//! `Sequential` session fed exactly the rounds and ingest batches the
//! candidate kept. A crash rolls back to the last checkpoint and loses
//! the ingest queued since — the contract `docs/PERSISTENCE.md` states.
//! After every op the model compares `round()`, `stats()`, `records()`
//! (bit for bit), `subject_mean_reputations()`, `honest_residual()` and
//! `convicted()`; after a checkpoint, `Store::load_latest()` must return
//! the live records.
//!
//! On a failure [`check`] deletes ops one at a time while the failure
//! persists, then panics with the minimal sequence as a literal to pin
//! as a named test. Suites pull this in with `mod model;`.

#![allow(dead_code, unused_imports)] // each suite uses its own subset

use differential_gossip::gossip::EngineKind;
use differential_gossip::graph::NodeId;
use differential_gossip::sim::kernel::TransactionRecord;
use differential_gossip::sim::{RunConfig, RunSession, TrafficModel};
use differential_gossip::store::{first_divergence, Store};
use differential_gossip::trust::prelude::TransactionOutcome;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use EngineKind::{Incremental, Sequential};
pub use Op::*;

/// `shard_count` 0: the deterministic auto partition.
pub const AUTO: usize = 0;

/// The shard counts ops and config axes draw from: auto, one shard (the
/// flat case), 16 (trailing shards short) and 64 (most shards own a row
/// or two, so work stealing migrates real blocks).
pub const SHARDS: [usize; 4] = [AUTO, 1, 16, 64];

/// The production engine configurations an equivalence row pins to the
/// oracle: the incremental engine at every shard count of [`SHARDS`].
pub const ACCELERATED: [(EngineKind, usize); 4] = [
    (Incremental, AUTO),
    (Incremental, 1),
    (Incremental, 16),
    (Incremental, 64),
];

/// A gated traffic model under which every node still requests every
/// round (its one flash round, which thins, is a million rounds away):
/// in closed-form neighbourhood scope it sends the incremental engine
/// down its delta round on a row that full traffic would send down the
/// rebuild round.
pub fn everyone_gated() -> TrafficModel {
    TrafficModel::full().with_flash(1_000_000, 0.5)
}

/// One ingested transaction report: `(requester, provider, quality)`,
/// `None` for a refusal.
pub type Report = (u32, u32, Option<f64>);

/// The op alphabet.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run `k` more rounds.
    Run(usize),
    /// Queue reports for the next round through
    /// `RunSession::queue_reports`.
    Ingest(Vec<Report>),
    /// Checkpoint into the case's store directory.
    Checkpoint,
    /// Drop the session and resume it from the store as `(engine,
    /// shards)` — rewriting the stored config when that differs — or
    /// restart it from `new` when nothing was checkpointed yet.
    Crash { resume_as: (EngineKind, usize) },
    /// Run the candidate's later rounds on `t` threads.
    Threads(usize),
}

/// Apply `ops` to a session of `config` and to the oracle; panic with
/// the minimal failing sequence if they ever differ. Returns the
/// oracle's finished session.
pub fn check(config: RunConfig, ops: &[Op]) -> RunSession {
    check_against(config.with_engine(Sequential), config, ops)
}

/// [`check`] against a straight run of `oracle` instead — for a
/// candidate config that must be indistinguishable from another one.
pub fn check_against(oracle: RunConfig, config: RunConfig, ops: &[Op]) -> RunSession {
    let mut failure = match run(oracle, config, ops) {
        Ok(session) => return session,
        Err(failure) => failure,
    };
    let mut ops = ops.to_vec();
    let mut i = 0;
    while i < ops.len() {
        let mut fewer = ops.clone();
        fewer.remove(i);
        match run(oracle, config, &fewer) {
            Err(e) => (ops, failure) = (fewer, e),
            Ok(_) => i += 1,
        }
    }
    let json = |c| serde_json::to_string(&c).expect("config serializes");
    panic!(
        "model: {failure}\noracle config: {}\ncandidate config: {}\n\
         minimal failing sequence, to pin as a named test:\n    {}",
        json(oracle),
        json(config),
        literal(&ops)
    )
}

/// [`check`] once per `(engine, shards)` candidate.
pub fn check_each(config: RunConfig, candidates: &[(EngineKind, usize)], ops: &[Op]) -> RunSession {
    let mut oracle = None;
    for &(engine, shards) in candidates {
        oracle = Some(check(config.with_engine(engine).with_shards(shards), ops));
    }
    oracle.expect("at least one candidate")
}

/// `rounds` rounds, each on the next of 1, 8 and 2 threads.
pub fn rotating_threads(rounds: usize) -> Vec<Op> {
    let threads = [1, 8, 2].into_iter().cycle().take(rounds);
    threads.flat_map(|t| [Threads(t), Run(1)]).collect()
}

/// `ops` as Rust source.
pub fn literal(ops: &[Op]) -> String {
    format!("&{ops:?}").replace("Ingest([", "Ingest(vec![")
}

/// A random sequence of 4–11 ops over a `nodes`-node run, drawn from
/// `seed`: mostly rounds, then ingest, crashes, checkpoints and thread
/// changes.
pub fn random_ops(seed: u64, nodes: usize) -> Vec<Op> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pick = |n: usize| rng.random_range(0..n);
    let qualities = [None, Some(0.0), Some(0.5), Some(0.9)];
    (0..4 + pick(8))
        .map(|_| match pick(10) {
            0..=3 => Run(1 + pick(3)),
            4 | 5 => Ingest(
                (0..1 + pick(5))
                    .map(|_| (pick(nodes) as u32, pick(nodes) as u32, qualities[pick(4)]))
                    .filter(|(requester, provider, _)| requester != provider)
                    .collect(),
            ),
            6 => Checkpoint,
            7 | 8 => Crash {
                resume_as: (
                    EngineKind::ALL[pick(EngineKind::ALL.len())],
                    SHARDS[pick(4)],
                ),
            },
            _ => Threads([1, 2, 8][pick(3)]),
        })
        .collect()
}

/// One case, run to its end (the oracle's session) or to its first
/// difference; a panic anywhere counts as one.
fn run(oracle: RunConfig, config: RunConfig, ops: &[Op]) -> Result<RunSession, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut model = Model::new(oracle, config);
        let outcome = ops.iter().enumerate().try_for_each(|(i, op)| {
            let at = |e| format!("after op {i}, {op:?}: {e}");
            model.apply(op).map_err(at)
        });
        let _ = std::fs::remove_dir_all(&model.dir);
        outcome.map(|()| model.oracle)
    }))
    .unwrap_or_else(|_| Err("panicked (message above)".into()))
}

struct Model {
    dir: PathBuf,
    oracle_config: RunConfig,
    /// The candidate's config: a crash may switch its engine and shards.
    config: RunConfig,
    candidate: RunSession,
    /// The thread pool the candidate's rounds run in.
    pool: ThreadPool,
    oracle: RunSession,
    /// The oracle's input: the ingest of each round the candidate kept.
    kept: Vec<Vec<Report>>,
    /// Reports the candidate has queued for its next round.
    queued: Vec<Report>,
    /// The round of the last checkpoint: where a crash rolls back to.
    checkpointed: Option<usize>,
}

impl Model {
    fn new(oracle_config: RunConfig, config: RunConfig) -> Self {
        static CASES: AtomicUsize = AtomicUsize::new(0);
        let case = CASES.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dg_model_{}_{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self {
            dir,
            oracle_config,
            config,
            candidate: RunSession::new(config).expect("candidate session"),
            pool: ThreadPoolBuilder::new().build().expect("pool"),
            oracle: RunSession::new(oracle_config).expect("oracle session"),
            kept: Vec::new(),
            queued: Vec::new(),
            checkpointed: None,
        }
    }

    fn apply(&mut self, op: &Op) -> Result<(), Box<dyn std::error::Error>> {
        match *op {
            Run(k) => {
                let (target, candidate) = (self.candidate.round() + k, &mut self.candidate);
                self.pool.install(|| candidate.run_to(target).map(drop))?;
                for _ in 0..k {
                    self.kept.push(std::mem::take(&mut self.queued));
                }
            }
            Ingest(ref reports) => {
                self.candidate.queue_reports(batches(reports));
                self.queued.extend_from_slice(reports);
            }
            Checkpoint => {
                self.candidate.checkpoint(&self.dir)?;
                self.checkpointed = Some(self.candidate.round());
                let stored = Store::open(&self.dir).load_latest()?.records;
                if let Some(node) = first_divergence(&self.candidate.records(), &stored) {
                    return Err(format!("the store's node {node} is not the live one").into());
                }
            }
            Crash {
                resume_as: (engine, shards),
            } => {
                self.config = self.config.with_engine(engine).with_shards(shards);
                self.candidate = match self.checkpointed {
                    Some(_) => self.resume()?,
                    None => RunSession::new(self.config)?,
                };
                self.kept.truncate(self.checkpointed.unwrap_or(0));
                self.queued.clear();
                self.oracle = RunSession::new(self.oracle_config)?;
            }
            Threads(t) => self.pool = ThreadPoolBuilder::new().num_threads(t).build()?,
        }
        while self.oracle.round() < self.kept.len() {
            let round = self.oracle.round();
            self.oracle.queue_reports(batches(&self.kept[round]));
            self.oracle.run_to(round + 1)?;
        }
        Ok(self.compare()?)
    }

    /// Resume from the store as `self.config`, first rewriting the
    /// stored header when it names another engine or shard count — the
    /// edit a user switching engines would make.
    fn resume(&self) -> Result<RunSession, Box<dyn std::error::Error>> {
        let store = Store::open(&self.dir);
        let mut snapshot = store.load_latest()?;
        if serde_json::from_str::<RunConfig>(&snapshot.header.config_json)? != self.config {
            snapshot.header.engine = format!("{:?}", self.config.engine);
            snapshot.header.config_json = serde_json::to_string(&self.config)?;
            store.write_epoch(&snapshot.header, &snapshot.records)?;
        }
        Ok(RunSession::resume(&self.dir)?)
    }

    fn compare(&self) -> Result<(), String> {
        let (got, want) = (&self.candidate, &self.oracle);
        if let Some(node) = first_divergence(&want.records(), &got.records()) {
            return Err(format!("records() diverged at node {node}"));
        }
        let bits = |v: Vec<Option<f64>>| -> Vec<Option<u64>> {
            v.into_iter().map(|x| x.map(f64::to_bits)).collect()
        };
        let means = |s: &RunSession| bits(s.subject_mean_reputations());
        let residual = |s: &RunSession| bits(vec![s.honest_residual()]);
        let diverged = [
            ("round()", got.round() != want.round()),
            ("stats()", got.stats() != want.stats()),
            ("subject_mean_reputations()", means(got) != means(want)),
            ("honest_residual()", residual(got) != residual(want)),
            ("convicted()", got.convicted() != want.convicted()),
        ];
        match diverged.into_iter().find(|&(_, differs)| differs) {
            Some((what, _)) => Err(format!("{what} diverged")),
            None => Ok(()),
        }
    }
}

/// Reports as `queue_reports` takes them: grouped per requester,
/// ascending, each requester's reports in arrival order.
fn batches(reports: &[Report]) -> Vec<(NodeId, Vec<TransactionRecord>)> {
    let mut sorted = reports.to_vec();
    sorted.sort_by_key(|r| r.0);
    let mut out: Vec<(NodeId, Vec<TransactionRecord>)> = Vec::new();
    for (requester, provider, quality) in sorted {
        let outcome = match quality {
            Some(quality) => TransactionOutcome::Served { quality },
            None => TransactionOutcome::Refused,
        };
        let record = TransactionRecord {
            provider: NodeId(provider),
            outcome,
        };
        match out.last_mut() {
            Some((r, records)) if r.0 == requester => records.push(record),
            _ => out.push((NodeId(requester), vec![record])),
        }
    }
    out
}
