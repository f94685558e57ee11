//! `persist_cycle` — writes beside reads on `dg-store` and the
//! session's extract / rebuild code, on the `rounds_skewed` config.
//!
//! The system under test starts from a store, so **set-up is
//! `RunSession::resume`**: the input (prepared untimed) is a directory
//! holding one full epoch and one delta; each of the three set-ups
//! kills the live session four rounds past its last checkpoint, resumes
//! from disk (timed), re-runs those four rounds and requires them
//! bit-equal to the ones run before the kill. The measured region then
//! cycles {4 rounds, `checkpoint`} until the deadline — deltas, and a
//! full epoch whenever the chain reaches `FULL_EPOCH_INTERVAL`.
//!
//! One operation is one `checkpoint`; one unit of work is one *durable*
//! node-round (rounds advanced ÷ wall of rounds and checkpoints
//! together). Rounds are a minority of the time: `rounds_skewed` runs
//! the same rounds with no store and is this workload's bypass twin.

use super::rounds::stats_bits;
use super::{
    set_round_times, set_work_counts, skewed_config, substrate_probes, Failure, Params, Report,
    SETUPS, WARMUP_ROUNDS,
};
use crate::host;
use crate::stats::median;
use crate::trace::Tracer;
use dg_sim::{CheckpointKind, RunSession};
use dg_store::{diff_changed, SnapshotHeader, Store};
use std::path::Path;
use std::time::Instant;

/// Rounds between checkpoints (and between a checkpoint and a kill).
const ROUNDS_PER_CYCLE: usize = 4;

/// Reputations as bits, for bit-equality across a restart.
fn reputation_bits(session: &RunSession) -> Vec<Option<u64>> {
    session
        .subject_mean_reputations()
        .into_iter()
        .map(|r| r.map(f64::to_bits))
        .collect()
}

fn advance(session: &mut RunSession, rounds: usize) -> Result<(), Failure> {
    let target = session.round() + rounds;
    session.run_to(target)?;
    Ok(())
}

/// Run the workload.
pub fn run(p: &Params, tr: &mut Tracer, rep: &mut Report) -> Result<(), Failure> {
    let config = skewed_config(p);
    let n = config.nodes as f64;
    let dir = p
        .results_dir
        .join(format!("persist_cycle.store-{}", std::process::id()));
    let scratch = dir.with_extension("scratch");
    for stale in [&dir, &scratch] {
        let _ = std::fs::remove_dir_all(stale);
    }
    std::fs::create_dir_all(&dir)?;
    eprintln!("  store on {} ({})", dir.display(), host::fs_type(&dir));

    let result = cycle(p, &dir, &scratch, tr, rep);
    for used in [&dir, &scratch] {
        let _ = std::fs::remove_dir_all(used);
    }
    let measured = result?;

    let node_rounds = n * measured.rounds as f64;
    rep.set_p50("setup_s", &measured.resume_s);
    rep.set_p50("op_s_p50", &measured.checkpoint_s);
    rep.set("work_per_s", node_rounds / rep.measured_s);
    if p.trace {
        substrate_probes(&config, tr, rep)?;
    }
    Ok(())
}

struct Measured {
    resume_s: Vec<f64>,
    checkpoint_s: Vec<f64>,
    rounds: usize,
}

fn cycle(
    p: &Params,
    dir: &Path,
    scratch: &Path,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Measured, Failure> {
    let config = skewed_config(p);
    let n = config.nodes;
    let mut full_s = Vec::new();
    let mut delta_s = Vec::new();
    let mut checkpoint = |session: &mut RunSession, tr: &mut Tracer, rep: &mut Report| {
        let (kind, s) = tr.time("sim.checkpoint", || session.checkpoint(dir));
        rep.attempted += 1;
        let kind = kind?;
        match kind {
            CheckpointKind::Full => full_s.push(s),
            CheckpointKind::Delta => delta_s.push(s),
        }
        Ok::<_, Failure>((kind, s))
    };

    // The input: a store with a base epoch and a delta on top, written
    // by a session that keeps running.
    let prepare = tr.enter("prepare_store");
    let (session, new_s) = tr.time("sim.session_new", || RunSession::new(config));
    let mut session = session?;
    let (warmed, first_round_s) = tr.time("sim.warmup_round", || session.run_to(1).map(|_| ()));
    warmed?;
    session.run_to(WARMUP_ROUNDS)?;
    for _ in 0..2 {
        advance(&mut session, ROUNDS_PER_CYCLE)?;
        checkpoint(&mut session, tr, rep)?;
    }
    tr.exit(prepare);
    let prepared_bytes = host::dir_bytes(dir);

    let mut resume_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let from = session.round();
        advance(&mut session, ROUNDS_PER_CYCLE)?;
        let before_kill: Vec<String> = session.stats()[from..].iter().map(stats_bits).collect();
        drop(session);
        let (resumed, s) = tr.time("sim.resume", || RunSession::resume(dir));
        rep.attempted += 1;
        session = resumed?;
        resume_s.push(s);
        rep.check(
            || {
                format!(
                    "resumed at round {}, checkpointed at {from}",
                    session.round()
                )
            },
            session.round() == from,
        );
        advance(&mut session, ROUNDS_PER_CYCLE)?;
        for (k, want) in before_kill.iter().enumerate() {
            rep.check(
                || {
                    format!(
                        "round {} after resume differs from before the kill",
                        from + k
                    )
                },
                session.stats().get(from + k).map(stats_bits).as_ref() == Some(want),
            );
        }
        checkpoint(&mut session, tr, rep)?;
    }

    let mut round_s = Vec::new();
    let mut checkpoint_s = Vec::new();
    let mut delta_bytes = Vec::new();
    let start = Instant::now();
    loop {
        for _ in 0..ROUNDS_PER_CYCLE {
            let next = session.round() + 1;
            let (ran, s) = tr.time("sim.round", || session.run_to(next).map(|_| ()));
            rep.attempted += 1;
            ran?;
            round_s.push(s);
        }
        let bytes_before = if p.trace { host::dir_bytes(dir) } else { 0 };
        let (kind, s) = checkpoint(&mut session, tr, rep)?;
        checkpoint_s.push(s);
        if p.trace && kind == CheckpointKind::Delta {
            delta_bytes.push((host::dir_bytes(dir) - bytes_before) as f64);
        }
        if start.elapsed() >= p.window() {
            break;
        }
    }
    rep.measured_s = start.elapsed().as_secs_f64();

    // What the window wrote must restore to what the live session holds.
    let live_round = session.round();
    let live_bits = reputation_bits(&session);
    let live_stats = session.stats().len();
    drop(session);
    let mut session = RunSession::resume(dir)?;
    rep.check(
        || {
            format!(
                "final store restores round {}, live session was at {live_round}",
                session.round()
            )
        },
        session.round() == live_round && session.stats().len() == live_stats,
    );
    rep.check(
        || "final store restores different reputations than the live session held".to_owned(),
        reputation_bits(&session) == live_bits,
    );

    let measured = Measured {
        resume_s,
        checkpoint_s,
        rounds: round_s.len(),
    };
    if !p.trace {
        return Ok(measured);
    }

    set_round_times(rep, &round_s);
    set_work_counts(rep, session.stats());
    rep.set("sim.session_new_s", new_s);
    rep.set("sim.warmup_round_s", first_round_s);
    rep.set("sim.checkpoint_full_s", median(&full_s));
    rep.set("sim.checkpoint_delta_s_p50", median(&delta_s));
    rep.set("sim.resume_s", median(&measured.resume_s));
    rep.set("store.bytes_per_node", prepared_bytes as f64 / n as f64);
    if !delta_bytes.is_empty() {
        rep.set("store.bytes_delta_p50", median(&delta_bytes));
    }

    // dg-store alone: the session's last two states written to, and
    // read back from, a scratch store holding exactly one epoch and one
    // delta — so the bytes behind every rate are known.
    let store = Store::open(dir);
    let older = store.load_latest()?;
    advance(&mut session, ROUNDS_PER_CYCLE)?;
    session.checkpoint(dir)?;
    drop(session);
    let newer = store.load_latest()?;
    let changed = diff_changed(&older.records, &newer.records);
    rep.set(
        "store.delta_record_fraction",
        changed.len() as f64 / n as f64,
    );

    let scratch_store = Store::open(scratch);
    let epoch_header = SnapshotHeader {
        base_round: None,
        ..older.header.clone()
    };
    let (wrote, epoch_s) = tr.time("store.write_epoch", || {
        scratch_store.write_epoch(&epoch_header, &older.records)
    });
    wrote?;
    let epoch_bytes = host::dir_bytes(scratch) as f64;
    rep.set("store.write_epoch_s", epoch_s);
    rep.set("store.bytes_full", epoch_bytes);
    rep.set("store.write_mb_per_s", epoch_bytes / 1e6 / epoch_s);
    let delta_header = SnapshotHeader {
        base_round: Some(older.header.round),
        ..newer.header.clone()
    };
    let (wrote, write_delta_s) = tr.time("store.write_delta", || {
        scratch_store.write_delta(&delta_header, &changed)
    });
    wrote?;
    rep.set("store.write_delta_s", write_delta_s);
    let (loaded, load_s) = tr.time("store.load_latest", || scratch_store.load_latest());
    let loaded = loaded?;
    rep.set("store.load_latest_s", load_s);
    rep.set(
        "store.load_mb_per_s",
        host::dir_bytes(scratch) as f64 / 1e6 / load_s,
    );
    rep.check(
        || "scratch store did not read back the records it was given".to_owned(),
        loaded.records.len() == newer.records.len()
            && loaded
                .records
                .iter()
                .zip(&newer.records)
                .all(|(a, b)| a.bits_eq(b)),
    );

    // Self time of the session around the store: a delta checkpoint is
    // extract + diff + write, a resume is load + scenario rebuild +
    // engine restore.
    rep.set(
        "sim.checkpoint_extract_s",
        (median(&delta_s) - write_delta_s).max(0.0),
    );
    rep.set(
        "sim.restore_rebuild_s",
        (median(&measured.resume_s) - load_s).max(0.0),
    );
    Ok(measured)
}
