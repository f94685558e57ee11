//! `gossip_converge` — the paper's own algorithm at the paper's largest
//! size: `alg2::run` (differential-gossip trust; ξ = 1e-4, differential
//! fan-out, lossless — the `RunConfig` defaults) to convergence on a
//! 50,000-node preferential-attachment graph, one subject after another
//! on one thread, closed loop. Only `dg-gossip` and `dg-core` work; no
//! round engine, store or socket is touched.
//!
//! The unit operation is one gossip step and the unit of work one
//! node-step, not one subject: a subject converges in 80 to 400 steps
//! depending on where the seed put its opinion holders, so seconds per
//! subject swing ±50% from seed to seed while seconds per step do not.
//! The step counts themselves are exact for a seed and are reported
//! per layer.

use super::{substrate_probes, Failure, Params, Report};
use crate::stats::median;
use crate::trace::Tracer;
use dg_core::algorithms::alg2;
use dg_core::ReputationSystem;
use dg_gossip::vector::{GossipVector, VectorEntry};
use dg_gossip::{GossipConfig, GossipPair, ScalarGossip, VectorGossip};
use dg_graph::NodeId;
use dg_sim::{RunConfig, Scenario};
use rand::Rng;
use std::time::Instant;

/// Subject ids are `k · N / SLOTS`: from the oldest hub (`k = 0`) to a
/// late leaf. The loop visits them leaf first — a leaf converges in a
/// second or two, the hub takes ten — and wraps if time remains.
const SLOTS: usize = 10;

/// Subjects that always run, whatever the deadline: the exact counts
/// are taken over these.
const PINNED_SUBJECTS: usize = 3;

/// Set-ups per run. One takes 35 ms — short enough that scheduler noise
/// moves it by a third — so `setup_s` is the median of more of them
/// than the session workloads, whose set-ups take a second, need.
const SETUPS: usize = 15;

/// Observers sampled per subject for the closed-form residual.
const OBSERVERS: usize = 256;

fn subject(k: usize, n: usize) -> NodeId {
    NodeId(((SLOTS - 1 - k % SLOTS) * n / SLOTS) as u32)
}

/// How far a run's output is from Eq. (6): the largest |estimate −
/// closed form| over the sampled observers that ended with an estimate,
/// and how many ended without one. The stopping rule compares a node's
/// per-step movement with N·ξ — 5 at this size — so "converged" means
/// "everyone has heard and announced", not "within ξ of the limit", and
/// an observer the unit gossip weight never reached has no estimate at
/// all. Both numbers are reported, not gated: they are the quality the
/// configured ξ buys, and exact for a seed.
///
/// The subject's opinion sum and count are computed once
/// (`gclr_from_parts`): plain `gclr` rescans the column per call.
fn residual(
    system: &ReputationSystem<'_>,
    subject: NodeId,
    estimates: &[Option<f64>],
    observers: &[NodeId],
) -> (f64, usize) {
    let sum = system.trust().opinion_sum(subject);
    let count = system.trust().opinion_count(subject) as f64;
    let mut worst = 0.0f64;
    let mut without = 0;
    for &observer in observers {
        let closed = system.gclr_from_parts(
            observer,
            subject,
            sum,
            count,
            system.neighbour_excess_sum(observer),
        );
        match (estimates[observer.index()], closed) {
            (Some(estimate), Some(closed)) => worst = worst.max((estimate - closed).abs()),
            _ => without += 1,
        }
    }
    (worst, without)
}

/// Run the workload.
pub fn run(p: &Params, tr: &mut Tracer, rep: &mut Report) -> Result<(), Failure> {
    let n = p.nodes(50_000);
    let config = RunConfig::with_nodes(n).with_seed(p.seed);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut scenario = None;
    for _ in 0..SETUPS {
        let (built, s) = tr.time("setup", || -> Result<Scenario, Failure> {
            let scenario = Scenario::build(config.scenario_config())?;
            // What a caller pays before the first `alg2::run`: the
            // system (it clones the trust matrix) and a checked config.
            scenario.system()?;
            config.gossip_config().validated()?;
            Ok(scenario)
        });
        scenario = Some(built?);
        setup_s.push(s);
    }
    let scenario = scenario.expect("SETUPS > 0");
    let system = scenario.system()?;
    let gossip = config.gossip_config().validated()?;
    let mut pick = p.rng(0x0B5E);
    let observers: Vec<NodeId> = (0..OBSERVERS)
        .map(|_| NodeId(pick.random_range(0..n as u32)))
        .collect();

    let mut step_s = Vec::new();
    let mut subject_s = Vec::new();
    let mut steps = Vec::new();
    let mut messages = Vec::new();
    let mut residuals = Vec::new();
    let mut unestimated = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while k < PINNED_SUBJECTS || start.elapsed() < p.window() {
        let who = subject(k, n);
        let mut rng = scenario.gossip_rng(k as u64);
        let (out, s) = tr.time("core.alg2_run", || {
            alg2::run(&system, who, gossip, &mut rng)
        });
        let out = out?;
        rep.check(
            || format!("subject {} did not converge in {} steps", who.0, out.steps),
            out.converged,
        );
        let (worst, without) = residual(&system, who, &out.estimates, &observers);
        step_s.push(s / out.steps.max(1) as f64);
        subject_s.push(s);
        steps.push(out.steps as f64);
        messages.push(out.total_messages as f64);
        residuals.push(worst);
        unestimated.push(without as f64);
        k += 1;
    }
    rep.measured_s = start.elapsed().as_secs_f64();
    let node_steps = n as f64 * steps.iter().sum::<f64>();
    let busy_s: f64 = subject_s.iter().sum();

    rep.set_p50("setup_s", &setup_s);
    rep.set_p50("op_s_p50", &step_s);
    rep.set("work_per_s", node_steps / busy_s);
    if !p.trace {
        return Ok(());
    }

    rep.set("gossip.subjects", subject_s.len() as f64);
    rep.set_p50("gossip.subject_s_p50", &subject_s);
    let pinned_mean = |v: &[f64]| v[..PINNED_SUBJECTS].iter().sum::<f64>() / PINNED_SUBJECTS as f64;
    rep.set("gossip.steps_mean", pinned_mean(&steps));
    rep.set("gossip.msgs_per_node", pinned_mean(&messages) / n as f64);
    rep.set(
        "gossip.residual_max",
        residuals[..PINNED_SUBJECTS]
            .iter()
            .copied()
            .fold(0.0, f64::max),
    );
    rep.set(
        "gossip.no_estimate_fraction",
        pinned_mean(&unestimated) / OBSERVERS as f64,
    );
    substrate_probes(&config, tr, rep)?;
    layer_probes(&scenario, &system, gossip, steps[0], tr, rep)
}

/// Drive the gossip engines step by step for subject 0 on its own
/// stream — the run `alg2::run` made first, taken apart: what one step
/// and one message cost, what `dg-core` adds on top (the Eq. (6)
/// blend, timed on its own), and what the per-node `BTreeMap` vectors cost over the
/// scalar engine (alg1's shape) on the same opinions.
fn layer_probes(
    scenario: &Scenario,
    system: &ReputationSystem<'_>,
    gossip: GossipConfig,
    alg2_steps: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), Failure> {
    let n = system.node_count();
    let who = subject(0, n);
    let column = system.trust().column(who);
    let originator = column
        .first()
        .map(|&(i, _)| i)
        .ok_or("probe subject has no opinion holders")?;

    // The initial state `alg2::run` builds: the lowest-id opinion
    // holder carries the unit gossip weight, the others ride passive.
    let mut initial = vec![GossipVector::new(); n];
    for &(i, t) in &column {
        let entry = if i == originator {
            VectorEntry::originator(t.get())
        } else {
            VectorEntry::passive(t.get())
        };
        initial[i.index()].insert(who.0, entry);
    }
    let mut rng = scenario.gossip_rng(0);
    let mut engine = VectorGossip::new(system.graph(), gossip, initial)?;
    let mut step_s = Vec::new();
    let mut sent = 0u64;
    while !engine.all_stopped() && engine.steps_taken() < gossip.max_steps {
        let (messages, s) = tr.time("gossip.vector_step", || engine.step(&mut rng));
        sent += messages;
        step_s.push(s);
    }
    let out = engine.run(&mut rng);
    rep.check(
        || format!("stepped run took {} steps, alg2 {alg2_steps}", out.steps),
        out.steps as f64 == alg2_steps,
    );
    let stepped_s: f64 = step_s.iter().sum();
    rep.set("gossip.step_us_p50", median(&step_s) * 1e6);
    rep.set(
        "gossip.ns_per_message",
        stepped_s * 1e9 / sent.max(1) as f64,
    );
    rep.set("gossip.entries_sent", out.entries_sent as f64);
    // What `dg-core` adds after the gossip run: Eq. (6)'s neighbour
    // terms at every observer. Timed directly — as `alg2` span minus the
    // stepped run it drowns in the run-to-run noise of two 2 s runs.
    let ((), blend_s) = tr.time("core.blend", || {
        for observer in system.graph().nodes() {
            std::hint::black_box((
                system.neighbour_excess_sum(observer),
                system.y_hat(observer, who),
            ));
        }
    });
    rep.set("core.blend_s", blend_s);

    let mut pairs = vec![GossipPair::ZERO; n];
    for &(i, t) in &column {
        pairs[i.index()] = GossipPair::originator(t.get());
    }
    let mut rng = scenario.gossip_rng(0);
    let mut scalar = ScalarGossip::new(system.graph(), gossip, pairs)?;
    let mut scalar_s = Vec::new();
    while !scalar.all_stopped() && scalar.steps_taken() < gossip.max_steps {
        let ((), s) = tr.time("gossip.scalar_step", || {
            scalar.step(&mut rng);
        });
        scalar_s.push(s);
    }
    rep.set("gossip.scalar_step_us_p50", median(&scalar_s) * 1e6);
    Ok(())
}
