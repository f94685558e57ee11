//! One function per paper artifact (see `docs/PAPER_MAP.md`,
//! "Evaluation artifacts", for the index).
//!
//! Each function returns plain serde-serialisable rows; the `dg-bench`
//! binaries render them as the paper's tables/series. Parameter sweeps
//! run combo-parallel under rayon, with every combo on its own seeded RNG
//! stream so results stay reproducible regardless of thread scheduling.
//!
//! **Measurement mode for Figs. 3/4 and Table 2.** The evaluation
//! measures the diffusion cost of the gossip layer itself. We run a
//! one-subject gossip in the Theorem 5.2 setting (every node an originator of
//! its own value — the "reputations of all the nodes pushed
//! simultaneously" workload collapses to this per subject, and the paper
//! notes all four variants share the same time complexity). Step counts
//! are until *protocol quiescence*: every node and all its neighbours
//! have announced ξ-convergence.

use crate::config::RunConfig;
use crate::scenario::Scenario;
use dg_core::collusion::{average_rms_error, ColludedAggregates, CollusionScheme, GroupAssignment};
use dg_core::reputation::ReputationSystem;
use dg_core::CoreError;
use dg_gossip::loss::LossModel;
use dg_gossip::potential::PotentialTracker;
use dg_gossip::profile::NetworkProfile;
use dg_gossip::spread::{self, SpreadProtocol};
use dg_gossip::{FanoutPolicy, GossipConfig, VectorGossip};
use dg_graph::{generators, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::Serialize;

/// One measurement of a gossip run (Figs. 3/4, Table 2).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepsRow {
    /// Network size `N`.
    pub nodes: usize,
    /// Error bound `ξ`.
    pub xi: f64,
    /// Fan-out policy label (`differential` / `push`).
    pub policy: String,
    /// Packet loss probability.
    pub loss: f64,
    /// Steps to protocol quiescence.
    pub steps: usize,
    /// Table 2's statistic: messages per actively-gossiping node per
    /// step (≈ the mean differential fan-out).
    pub msgs_per_node_per_step: f64,
    /// Whole-run messages per node under protocol quiescence (nodes stop
    /// pushing once their neighbourhood announced convergence).
    pub msgs_per_node_total: f64,
    /// Whole-run cost under the paper's accounting — every node pushes
    /// every step until the round ends: `steps × msgs/node/step`. This is
    /// the quantity behind the Section 5.3 claim that differential beats
    /// normal push on total cost beyond ~1000 nodes.
    pub msgs_per_node_no_quiesce: f64,
    /// Whether the run converged within the cap.
    pub converged: bool,
}

fn run_steps_once(
    nodes: usize,
    xi: f64,
    policy: FanoutPolicy,
    loss: f64,
    seed: u64,
) -> Result<StepsRow, CoreError> {
    let scenario = Scenario::build(RunConfig::with_nodes(nodes).with_seed(seed))?;
    let values = scenario.population.latent_qualities();
    // Averaging mode starts every node with positive gossip weight, so the
    // paper's literal sticky-announcement protocol is safe (and is what
    // the published step counts reflect).
    let config = GossipConfig {
        xi,
        fanout: policy,
        loss: LossModel::new(loss)?,
        ..GossipConfig::default()
    }
    .with_sticky_announcements();
    let mut rng = scenario.gossip_rng(1);
    let out = VectorGossip::average(&scenario.graph, config, &values)?.run(&mut rng);
    Ok(StepsRow {
        nodes,
        xi,
        policy: policy.label(),
        loss,
        steps: out.steps,
        msgs_per_node_per_step: out.stats.per_active_node_per_step(),
        msgs_per_node_total: out.stats.per_node_total(),
        msgs_per_node_no_quiesce: out.steps as f64 * out.stats.per_active_node_per_step(),
        converged: out.converged,
    })
}

/// Fig. 3 / Table 2 sweep: step counts and message rates over a grid of
/// network sizes, tolerances and fan-out policies.
pub fn steps_experiment(
    sizes: &[usize],
    xis: &[f64],
    policies: &[FanoutPolicy],
    seed: u64,
) -> Result<Vec<StepsRow>, CoreError> {
    let combos: Vec<(usize, f64, FanoutPolicy)> = sizes
        .iter()
        .flat_map(|&n| {
            xis.iter()
                .flat_map(move |&xi| policies.iter().map(move |&p| (n, xi, p)))
        })
        .collect();
    combos
        .into_par_iter()
        .map(|(n, xi, p)| run_steps_once(n, xi, p, 0.0, seed))
        .collect()
}

/// Fig. 4 sweep: step counts at fixed `N` under packet loss.
pub fn loss_experiment(
    nodes: usize,
    xis: &[f64],
    loss_probs: &[f64],
    seed: u64,
) -> Result<Vec<StepsRow>, CoreError> {
    let combos: Vec<(f64, f64)> = xis
        .iter()
        .flat_map(|&xi| loss_probs.iter().map(move |&l| (xi, l)))
        .collect();
    combos
        .into_par_iter()
        .map(|(xi, l)| run_steps_once(nodes, xi, FanoutPolicy::Differential, l, seed))
        .collect()
}

/// One convergence-degradation measurement: how the gossip layer's
/// rounds-to-convergence and residual estimate error respond to a
/// misbehaving network.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradationRow {
    /// Network size `N`.
    pub nodes: usize,
    /// Error bound `ξ`.
    pub xi: f64,
    /// Profile label (`lossless` / `lossy` / `partitioned` / `churning` /
    /// `custom`).
    pub profile: String,
    /// Loss probability in effect.
    pub loss: f64,
    /// Per-round crash probability in effect.
    pub churn: f64,
    /// Steps to protocol quiescence (== the round cap when unconverged).
    pub steps: usize,
    /// Whether the run converged within the cap.
    pub converged: bool,
    /// Maximum absolute deviation of surviving nodes' estimates from the
    /// true mean at termination — the residual error the faults leave
    /// behind.
    pub residual_error: f64,
}

fn degradation_row(
    nodes: usize,
    xi: f64,
    profile: NetworkProfile,
    seed: u64,
) -> Result<DegradationRow, CoreError> {
    let scenario = Scenario::build(
        RunConfig::with_nodes(nodes)
            .with_seed(seed)
            .with_profile(profile),
    )?;
    let values = scenario.population.latent_qualities();
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let config = RunConfig {
        xi,
        ..scenario.config
    }
    .gossip_config()
    .validated()?
    .with_sticky_announcements();
    let mut rng = scenario.gossip_rng(1);
    let out = VectorGossip::average(&scenario.graph, config, &values)?.run(&mut rng);
    Ok(DegradationRow {
        nodes,
        xi,
        profile: profile.label().to_owned(),
        loss: profile.loss,
        churn: profile.churn.crash_probability,
        steps: out.steps,
        converged: out.converged,
        residual_error: out.max_error(0, mean),
    })
}

/// Robustness sweep: rounds-to-convergence and residual error as the
/// loss rate climbs (the paper's Fig. 4 axis, extended with the residual
/// error the faults leave behind).
pub fn degradation_experiment(
    nodes: usize,
    xi: f64,
    loss_probs: &[f64],
    seed: u64,
) -> Result<Vec<DegradationRow>, CoreError> {
    loss_probs
        .par_iter()
        .map(|&loss| {
            let mut profile = NetworkProfile::lossless();
            profile.loss = loss;
            degradation_row(nodes, xi, profile, seed)
        })
        .collect()
}

/// Profile sweep: the same scenario under each [`NetworkProfile`] (the
/// scenario × profile matrix of README §Network faults). Synchronous
/// engines honour the loss / churn knobs; delay, duplication and
/// partitions additionally apply in the `dg-p2p` deployment.
pub fn profile_experiment(
    nodes: usize,
    xi: f64,
    profiles: &[NetworkProfile],
    seed: u64,
) -> Result<Vec<DegradationRow>, CoreError> {
    profiles
        .par_iter()
        .map(|&profile| degradation_row(nodes, xi, profile, seed))
        .collect()
}

/// One collusion measurement (Figs. 5/6).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CollusionRow {
    /// Network size.
    pub nodes: usize,
    /// Percentage of colluding peers.
    pub colluder_pct: f64,
    /// Colluding group size (`1` = individual collusion, Fig. 6).
    pub group_size: usize,
    /// Eq. (18) average RMS error of the paper's weighted GCLR estimate.
    pub rms_gclr: f64,
    /// Same metric for the unweighted global (GossipTrust-style)
    /// estimate — the paper's comparison point.
    pub rms_global: f64,
}

/// Figs. 5/6: average RMS error under collusion, for each
/// `(fraction, group size)` combination.
///
/// Estimates are evaluated in closed form (the gossip limits; agreement
/// between gossip and closed form is verified separately by the test
/// suite), which makes the full `N²` observer × subject sweep tractable.
pub fn collusion_experiment(
    nodes: usize,
    fractions: &[f64],
    group_sizes: &[usize],
    seed: u64,
) -> Result<Vec<CollusionRow>, CoreError> {
    // File-sharing interactions reach beyond overlay neighbours; a
    // moderately dense trust footprint is what gives the weighted GCLR
    // its Eq. (17) protection (see docs/PAPER_MAP.md, "The paper's
    // collusion model").
    let config = RunConfig {
        nodes,
        seed,
        far_partners: 10,
        weight_a: 4.0,
        weight_b: 2.0,
        ..RunConfig::default()
    };
    let scenario = Scenario::build(config)?;
    let system = scenario.system()?;
    let combos: Vec<(f64, usize)> = fractions
        .iter()
        .flat_map(|&f| group_sizes.iter().map(move |&g| (f, g)))
        .collect();

    combos
        .into_par_iter()
        .map(|(fraction, group_size)| collusion_row(&scenario, &system, fraction, group_size, seed))
        .collect()
}

fn collusion_row(
    scenario: &Scenario,
    system: &ReputationSystem<'_>,
    fraction: f64,
    group_size: usize,
    seed: u64,
) -> Result<CollusionRow, CoreError> {
    let n = scenario.graph.node_count();
    let scheme = CollusionScheme::new(fraction, group_size)?;
    let mut rng =
        ChaCha8Rng::seed_from_u64(seed ^ (group_size as u64) << 32 ^ (fraction * 1e6) as u64);
    let assignment = GroupAssignment::assign(n, scheme, &mut rng)?;
    let view = ColludedAggregates::new(system.trust(), &assignment);

    // All subjects: pairs without a defined reference (e.g. colluders
    // nobody honest ever rated) are skipped inside the metric.
    let subjects: Vec<NodeId> = (0..n as u32).map(NodeId).collect();

    // Precompute per-subject aggregates and per-observer excess sums once
    // (the generic closures in dg-core recompute column scans per pair,
    // which would make the full N × N sweep cubic).
    let colluded: Vec<(f64, f64)> = subjects
        .iter()
        .map(|&j| view.colluded_aggregate(j))
        .collect();
    let honest: Vec<(f64, f64)> = subjects.iter().map(|&j| view.honest_aggregate(j)).collect();
    let excess: Vec<f64> = (0..n)
        .map(|i| system.neighbour_excess_sum(NodeId(i as u32)))
        .collect();

    let rms_gclr = average_rms_error(
        n,
        &subjects,
        |i, j| {
            let (sum, count) = colluded[j.index()];
            system.gclr_from_parts(i, j, sum, count, excess[i.index()])
        },
        |i, j| {
            let (sum, count) = honest[j.index()];
            system.gclr_from_parts(i, j, sum, count, excess[i.index()])
        },
    );
    let rms_global = average_rms_error(
        n,
        &subjects,
        |_, j| {
            let (sum, count) = colluded[j.index()];
            (count > 0.0).then(|| sum / count)
        },
        |_, j| {
            let (sum, count) = honest[j.index()];
            (count > 0.0).then(|| sum / count)
        },
    );
    Ok(CollusionRow {
        nodes: n,
        colluder_pct: fraction * 100.0,
        group_size,
        rms_gclr,
        rms_global,
    })
}

/// Table 1: the 10-node worked example. Per-iteration ratio at each node
/// of the paper's Fig. 2 topology.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExampleTrace {
    /// Node degrees (paper row "degree").
    pub degrees: Vec<usize>,
    /// Differential fan-outs (paper row "k").
    pub fanouts: Vec<usize>,
    /// Initial values being averaged.
    pub initial: Vec<f64>,
    /// `rows[it][node]` = tracked ratio after iteration `it+1`.
    pub rows: Vec<Vec<f64>>,
    /// The exact average the ratios converge to.
    pub target: f64,
}

/// Run the Table 1 example: differential gossip averaging on the Fig. 2
/// topology, recording every node's tracked ratio for `iterations` steps.
///
/// The paper does not publish the underlying `t_ij` seed values, so we
/// draw them from the given seed; the published *shape* (contraction to
/// the common average within ~8 iterations; hub fan-out 3) is what the
/// harness asserts.
pub fn example_trace(iterations: usize, seed: u64) -> Result<ExampleTrace, CoreError> {
    let graph = generators::paper_example();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let initial: Vec<f64> = (0..graph.node_count())
        .map(|_| rand::Rng::random_range(&mut rng, 0.05..0.95))
        .collect();
    let target = initial.iter().sum::<f64>() / initial.len() as f64;

    let config = GossipConfig::differential(1e-6)?.with_max_steps(iterations);
    let mut engine = VectorGossip::average(&graph, config, &initial)?;
    let mut rows = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        engine.step(&mut rng);
        rows.push(engine.ratios(0));
    }
    Ok(ExampleTrace {
        degrees: graph.degrees(),
        fanouts: graph.differential_fanouts(),
        initial,
        rows,
        target,
    })
}

/// One rumor-spreading measurement (Theorem 5.1 ablation).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpreadRow {
    /// Network size.
    pub nodes: usize,
    /// Protocol label.
    pub protocol: String,
    /// Mean steps to inform the whole network.
    pub mean_steps: f64,
    /// Fraction of trials that completed within the cap.
    pub completion_rate: f64,
}

/// Theorem 5.1 ablation: mean rumor-spreading time per protocol on PA
/// graphs of each size.
pub fn spread_experiment(
    sizes: &[usize],
    protocols: &[SpreadProtocol],
    trials: usize,
    seed: u64,
) -> Result<Vec<SpreadRow>, CoreError> {
    let combos: Vec<(usize, SpreadProtocol)> = sizes
        .iter()
        .flat_map(|&n| protocols.iter().map(move |&p| (n, p)))
        .collect();
    combos
        .into_par_iter()
        .map(|(n, protocol)| {
            let scenario = Scenario::build(RunConfig::with_nodes(n).with_seed(seed))?;
            let cap = 50 * (n as f64).log2().ceil() as usize;
            let mut total = 0usize;
            let mut completed = 0usize;
            for t in 0..trials {
                let mut rng = scenario.gossip_rng(100 + t as u64);
                let source = NodeId((t % n) as u32);
                let out = spread::spread(&scenario.graph, protocol, source, cap, &mut rng)?;
                total += out.steps;
                completed += usize::from(out.complete);
            }
            Ok(SpreadRow {
                nodes: n,
                protocol: protocol.label().to_owned(),
                mean_steps: total as f64 / trials.max(1) as f64,
                completion_rate: completed as f64 / trials.max(1) as f64,
            })
        })
        .collect()
}

/// Theorem 5.2 ablation: the potential `ψ_n` trace under a fan-out policy.
pub fn potential_experiment(
    nodes: usize,
    policy: FanoutPolicy,
    steps: usize,
    seed: u64,
) -> Result<Vec<f64>, CoreError> {
    let scenario = Scenario::build(RunConfig::with_nodes(nodes).with_seed(seed))?;
    let mut tracker = PotentialTracker::new(&scenario.graph, policy)?;
    let mut rng = scenario.gossip_rng(7);
    Ok(tracker.trace(steps, &mut rng))
}

/// One weight-law ablation row: predicted vs measured collusion-error
/// shrink (Eq. (17)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WeightAblationRow {
    /// Weight base `a`.
    pub a: f64,
    /// Weight exponent scale `b`.
    pub b: f64,
    /// Mean predicted shrink factor `N/(N + Σ(w−1))` over observers.
    pub predicted_shrink: f64,
    /// Measured `rms_gclr / rms_global`.
    pub measured_ratio: f64,
}

/// Eq. (17) ablation: sweep the weight law and compare the predicted
/// shrink factor against the measured RMS-error ratio.
pub fn weight_ablation(
    nodes: usize,
    params: &[(f64, f64)],
    fraction: f64,
    group_size: usize,
    seed: u64,
) -> Result<Vec<WeightAblationRow>, CoreError> {
    params
        .par_iter()
        .map(|&(a, b)| {
            // Complete topology: the Section 5.2 idealisation in which
            // every node is every other's neighbour, so the Eq. (17)
            // shrink factor is exact rather than footprint-limited.
            let config = RunConfig {
                nodes,
                weight_a: a,
                weight_b: b,
                seed,
                topology: crate::scenario::Topology::Complete,
                ..RunConfig::default()
            };
            let scenario = Scenario::build(config)?;
            let system = scenario.system()?;
            let row = collusion_row(&scenario, &system, fraction, group_size, seed)?;
            let n = nodes as f64;
            let predicted: f64 = (0..nodes)
                .map(|i| {
                    let excess = system.neighbour_excess_sum(NodeId(i as u32));
                    n / (n + excess)
                })
                .sum::<f64>()
                / n;
            let measured = if row.rms_global > 0.0 {
                row.rms_gclr / row.rms_global
            } else {
                f64::NAN
            };
            Ok(WeightAblationRow {
                a,
                b,
                predicted_shrink: predicted,
                measured_ratio: measured,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_rows_cover_grid() {
        let rows = steps_experiment(
            &[100, 200],
            &[1e-2, 1e-3],
            &[FanoutPolicy::Differential, FanoutPolicy::Uniform(1)],
            7,
        )
        .unwrap();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.converged));
        assert!(rows.iter().all(|r| r.steps > 0));
    }

    #[test]
    fn steps_grow_with_tighter_xi() {
        let rows =
            steps_experiment(&[300], &[1e-2, 1e-5], &[FanoutPolicy::Differential], 3).unwrap();
        let loose = rows.iter().find(|r| r.xi == 1e-2).unwrap();
        let tight = rows.iter().find(|r| r.xi == 1e-5).unwrap();
        assert!(tight.steps >= loose.steps);
    }

    #[test]
    fn differential_message_rate_exceeds_push_rate() {
        // Table 2 discussion: per-step cost is higher for differential
        // (hubs push more), but convergence needs fewer steps.
        let rows = steps_experiment(
            &[500],
            &[1e-4],
            &[FanoutPolicy::Differential, FanoutPolicy::Uniform(1)],
            11,
        )
        .unwrap();
        let diff = rows.iter().find(|r| r.policy == "differential").unwrap();
        let push = rows.iter().find(|r| r.policy == "push").unwrap();
        assert!(diff.msgs_per_node_per_step > push.msgs_per_node_per_step);
        assert!(diff.steps <= push.steps);
    }

    #[test]
    fn loss_increases_steps_modestly() {
        let rows = loss_experiment(300, &[1e-4], &[0.0, 0.3], 5).unwrap();
        let clean = rows.iter().find(|r| r.loss == 0.0).unwrap();
        let lossy = rows.iter().find(|r| r.loss == 0.3).unwrap();
        assert!(lossy.converged);
        assert!(lossy.steps >= clean.steps);
        // "Small increment": well under 4x.
        assert!((lossy.steps as f64) < 4.0 * clean.steps as f64 + 10.0);
    }

    #[test]
    fn degradation_rows_cover_loss_grid_and_worsen() {
        let rows = degradation_experiment(300, 1e-4, &[0.0, 0.3], 5).unwrap();
        assert_eq!(rows.len(), 2);
        let clean = rows.iter().find(|r| r.loss == 0.0).unwrap();
        let lossy = rows.iter().find(|r| r.loss == 0.3).unwrap();
        assert!(clean.converged && lossy.converged);
        assert!(lossy.steps >= clean.steps);
        assert!(clean.residual_error < 0.02, "{}", clean.residual_error);
        assert_eq!(clean.profile, "lossless");
        assert_eq!(lossy.profile, "custom");

        // The `degradation` rows README §Network faults quotes (seed
        // 42): seed-pinned and deterministic, so pinned exactly.
        let quoted = degradation_experiment(1000, 1e-4, &[0.0, 0.3, 0.5], 42).unwrap();
        assert!(quoted.iter().all(|r| r.converged));
        let steps: Vec<usize> = quoted.iter().map(|r| r.steps).collect();
        assert_eq!(steps, [80, 113, 188]);
    }

    #[test]
    fn profile_rows_report_presets() {
        let profiles = [NetworkProfile::lossless(), NetworkProfile::churning()];
        let rows = profile_experiment(200, 1e-3, &profiles, 7).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].profile, "lossless");
        assert_eq!(rows[1].profile, "churning");
        assert!(rows.iter().all(|r| r.steps > 0));
        // The churning preset maps its crash probability onto the sync
        // churn model.
        assert!(rows[1].churn > 0.0);

        // The four preset rows `degradation` prints at seed 42, exactly.
        let presets = [
            NetworkProfile::lossless(),
            NetworkProfile::lossy(),
            NetworkProfile::partitioned(),
            NetworkProfile::churning(),
        ];
        let quoted = profile_experiment(1000, 1e-4, &presets, 42).unwrap();
        assert!(quoted.iter().all(|r| r.converged));
        let steps: Vec<usize> = quoted.iter().map(|r| r.steps).collect();
        assert_eq!(steps, [80, 83, 80, 139]);
    }

    #[test]
    fn collusion_error_small_and_weighted_beats_global() {
        let rows = collusion_experiment(150, &[0.2, 0.5], &[1, 5], 9).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.rms_gclr <= r.rms_global + 1e-9,
                "gclr {} vs global {} (pct {}, G {})",
                r.rms_gclr,
                r.rms_global,
                r.colluder_pct,
                r.group_size
            );
        }
    }

    /// One Fig. 5 row (G = 5) and one Fig. 6 row (G = 1), bit for bit:
    /// the closed-form Eq. (6) sweep under collusion must not move.
    #[test]
    fn collusion_rows_are_pinned() {
        let rows = collusion_experiment(120, &[0.3], &[1, 5], 17).unwrap();
        let bits: Vec<(usize, u64, u64)> = rows
            .iter()
            .map(|r| (r.group_size, r.rms_gclr.to_bits(), r.rms_global.to_bits()))
            .collect();
        assert_eq!(
            bits,
            [
                (1, 0x3fe2_2c72_edaa_6204, 0x3fe5_657c_77c2_8576),
                (5, 0x3fda_1105_7725_914f, 0x3fdd_8448_f233_38a3),
            ]
        );
    }

    #[test]
    fn example_trace_contracts_to_average() {
        let trace = example_trace(8, 2024).unwrap();
        assert_eq!(trace.degrees, generators::PAPER_EXAMPLE_DEGREES.to_vec());
        assert_eq!(trace.fanouts, generators::PAPER_EXAMPLE_FANOUTS.to_vec());
        assert_eq!(trace.rows.len(), 8);
        // Spread of values shrinks monotonically-ish; by iteration 8 all
        // nodes are close to the target.
        let spread = |row: &Vec<f64>| {
            row.iter().cloned().fold(f64::MIN, f64::max)
                - row.iter().cloned().fold(f64::MAX, f64::min)
        };
        let first = spread(&trace.rows[0]);
        let last = spread(&trace.rows[7]);
        assert!(last < first * 0.5, "spread {first} -> {last}");
        for &v in &trace.rows[7] {
            assert!(
                (v - trace.target).abs() < 0.12,
                "v {v} target {}",
                trace.target
            );
        }
    }

    #[test]
    fn spread_rows_reported_for_all_protocols() {
        let rows = spread_experiment(
            &[200],
            &[SpreadProtocol::Push, SpreadProtocol::DifferentialPush],
            3,
            13,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.completion_rate > 0.0));
    }

    #[test]
    fn potential_trace_decays() {
        let trace = potential_experiment(60, FanoutPolicy::Differential, 25, 17).unwrap();
        assert_eq!(trace.len(), 26);
        assert!((trace[0] - 59.0).abs() < 1e-9); // ψ₀ = N − 1
        assert!(trace[25] < trace[0] * 0.01);
    }

    #[test]
    fn weight_ablation_shrink_under_one() {
        let rows = weight_ablation(120, &[(1.5, 1.0), (4.0, 2.0)], 0.3, 3, 21).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.predicted_shrink < 1.0);
            assert!(r.predicted_shrink > 0.0);
        }
        // Stronger weights → smaller predicted shrink factor.
        assert!(rows[1].predicted_shrink < rows[0].predicted_shrink);
    }
}
