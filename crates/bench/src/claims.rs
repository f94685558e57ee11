//! The paper-claims gate: the pinned-seed adversarial attack matrix.
//!
//! The paper's central robustness claim is that gossip-based trust
//! aggregation *bounds* what free riders and manipulators can extract.
//! The `claims` binary makes that claim executable: for every attack in
//! the matrix (honest baseline, sybil rings, collusion cliques,
//! slander, whitewashing, stealth cartels) it runs the full reputation
//! lifecycle on a pinned seed, once with the paper's plain aggregation
//! and once with the trust-side countermeasures
//! ([`DefensePolicy::defended`]), plus a byzantine run of the real peer
//! deployment over the faulty transport. The stealth row is special:
//! it first *proves the evasion* — the cartel beats clamp + trim on the
//! defended run — and then gates the stochastic-audit countermeasure
//! ([`dg_trust::audit`]) on detection rate, false positives and audit
//! bandwidth.
//! Each attack emits a `CLAIMS_<attack>.json` report, and the binary
//! exits 1 when any documented bound is violated — the CI gate — and 2
//! on a usage error.
//!
//! Everything is deterministic per seed, so the bounds are exact
//! repro thresholds, not statistical hopes. The thresholds are
//! [`ClaimThresholds::default`]; no flag loosens them.

use crate::{or_exit, value};
use dg_core::behavior::Behavior;
use dg_gossip::{AdversaryMix, GossipPair, NetworkProfile};
use dg_graph::NodeId;
use dg_p2p::{run_distributed, DistributedConfig};
use dg_sim::rounds::{DefensePolicy, RoundStats};
use dg_sim::{build_engine, RunConfig, Scenario};
use dg_trust::audit::AuditPolicy;
use rand::RngCore;
use serde::Serialize;
use std::sync::Arc;

/// Network size of the lifecycle matrix runs.
pub const MATRIX_NODES: usize = 250;
/// Lifecycle rounds per matrix run.
pub const MATRIX_ROUNDS: usize = 8;
/// Lifecycle rounds of the stealth-cartel arm: long enough for the
/// stochastic audits (rate × rounds samples per node) to reach the
/// documented detection rate, and for the post-conviction rounds to
/// pull honest reputations back inside the deviation bound.
pub const STEALTH_ROUNDS: usize = 200;
/// Network size of the byzantine distributed check.
pub const BYZANTINE_NODES: usize = 120;

/// The documented bounds the matrix gates on. All comparisons are on
/// the *defended* run (the open run is reported for contrast), except
/// the free-rider bound, which is the paper's baseline claim and must
/// hold without any defense.
#[derive(Debug, Clone, Copy)]
pub struct ClaimThresholds {
    /// Honest requesters keep at least this service rate under every
    /// attack (defended run, last round).
    pub honest_service_min: f64,
    /// Plain free riders are throttled to at most this service rate in
    /// the honest baseline (no defense needed — the paper's core claim).
    pub free_rider_service_max: f64,
    /// Leech-class adversaries that cannot fake a support base
    /// (whitewashers) extract at most this service rate under the
    /// defense's zero-prior rule.
    pub adversary_service_max: f64,
    /// Honest subjects' mean reputation moves by at most this (absolute)
    /// between the defended attack run and the defended no-attack
    /// reference — the executable Eq. (18): attacks must not move
    /// honest reputations.
    pub deviation_max: f64,
    /// Adversaries' mean reputation exceeds the honest mean by at most
    /// this under the defense (ballot-stuffing / ring-vouching bounded).
    pub inflation_max: f64,
    /// Sybil identities get no *preferential* service: their defended
    /// service rate is at most the honest rate plus this slack. (A ring
    /// that vouches for itself can reach ordinary membership — the
    /// claim is it cannot do better.)
    pub preferential_service_slack: f64,
    /// Absolute mass-conservation slack of the byzantine distributed
    /// run: `|Σ final − (Σ initial − lost + duplicated)|`.
    pub mass_tolerance: f64,
    /// Slack on the byzantine bias bound
    /// `|distorted mean − honest mean| ≤ fraction × (1 − honest mean)`.
    pub byzantine_bias_slack: f64,
    /// The audit countermeasure must convict at least this fraction of
    /// the stealth cartel by the end of the stealth arm.
    pub detection_min: f64,
    /// At most this many honest nodes may be convicted by audits
    /// (structurally zero: honest reports re-verify bit-exactly).
    pub false_positive_max: f64,
    /// Audit bandwidth (probe + re-verified entries) over the whole run
    /// stays within this fraction of the run's total report traffic.
    pub audit_overhead_max: f64,
}

impl Default for ClaimThresholds {
    fn default() -> Self {
        Self {
            honest_service_min: 0.9,
            free_rider_service_max: 0.2,
            adversary_service_max: 0.35,
            deviation_max: 0.1,
            inflation_max: 0.25,
            preferential_service_slack: 0.05,
            mass_tolerance: 1e-9,
            byzantine_bias_slack: 1e-9,
            detection_min: 0.95,
            false_positive_max: 0.0,
            audit_overhead_max: 0.03,
        }
    }
}

/// One lifecycle run's headline metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LifecycleMetrics {
    /// Last-round honest service rate.
    pub honest_service_rate: f64,
    /// Last-round plain free-rider service rate.
    pub free_rider_service_rate: f64,
    /// Last-round adversary service rate.
    pub adversary_service_rate: f64,
    /// Last-round mean aggregated reputation of honest nodes.
    pub mean_rep_honest: f64,
    /// Last-round mean aggregated reputation of adversaries.
    pub mean_rep_adversaries: f64,
    /// Diagnostic: honest subjects' mean |reputation − latent quality|
    /// (carries Eq. (6)'s systematic observer deflation; compare
    /// `honest_deviation` between runs for the attack effect).
    pub honest_residual_error: Option<f64>,
    /// Honest subjects' mean |reputation − same subject's reputation in
    /// the no-attack reference run under the same defense| — what the
    /// attack actually moved. `None` for the reference itself.
    pub honest_deviation: Option<f64>,
    /// Total whitewash identity resets over the run.
    pub washes: u64,
}

/// A finished lifecycle run with everything cross-run comparisons need.
pub struct LifecycleRun {
    stats: Vec<RoundStats>,
    residual: Option<f64>,
    /// Per-subject mean reputation at the end of the run.
    means: Vec<Option<f64>>,
    /// Per-subject mean reputation over *honest* observers only (no
    /// adversary roles, no convicted auditees).
    honest_means: Vec<Option<f64>>,
    /// Subjects that are honest contributors (and no adversary role).
    honest_mask: Vec<bool>,
    /// Nodes holding any adversary role.
    adversary_mask: Vec<bool>,
    /// Audit convictions: `(node, round convicted)`.
    convicted: Vec<(NodeId, u64)>,
}

impl LifecycleRun {
    /// Mean absolute reputation movement of honest subjects relative to
    /// a reference run (subjects aggregated in both runs only).
    pub fn deviation_from(&self, reference: &LifecycleRun) -> Option<f64> {
        let (mut acc, mut count) = (0.0, 0usize);
        for (i, &honest) in self.honest_mask.iter().enumerate() {
            if !honest {
                continue;
            }
            if let (Some(a), Some(r)) = (self.means[i], reference.means[i]) {
                acc += (a - r).abs();
                count += 1;
            }
        }
        (count > 0).then(|| acc / count as f64)
    }

    /// [`Self::deviation_from`] restricted to honest observers — the
    /// stealth arm's metric. A 45 % cartel owns nearly half the views in
    /// the plain mean, and its members rate each *other* 0.4 above
    /// honest level while slandering outsiders; the two biases partially
    /// cancel in an all-observer average and mask the damage the honest
    /// network actually experiences. Reputations only matter to the
    /// nodes that act on them, so the evasion claim is measured through
    /// honest eyes.
    pub fn honest_deviation_from(&self, reference: &LifecycleRun) -> Option<f64> {
        let (mut acc, mut count) = (0.0, 0usize);
        for (i, &honest) in self.honest_mask.iter().enumerate() {
            if !honest {
                continue;
            }
            if let (Some(a), Some(r)) = (self.honest_means[i], reference.honest_means[i]) {
                acc += (a - r).abs();
                count += 1;
            }
        }
        (count > 0).then(|| acc / count as f64)
    }

    fn metrics(&self, deviation: Option<f64>) -> LifecycleMetrics {
        let last = self.stats.last().expect("at least one round");
        LifecycleMetrics {
            honest_service_rate: last.honest_service_rate(),
            free_rider_service_rate: last.free_rider_service_rate(),
            adversary_service_rate: last.adversary_service_rate(),
            mean_rep_honest: last.mean_rep_honest,
            mean_rep_adversaries: last.mean_rep_adversaries,
            honest_residual_error: self.residual,
            honest_deviation: deviation,
            washes: self.stats.iter().map(|s| s.washes).sum(),
        }
    }
}

/// The byzantine distributed check: the real peer runtime over the
/// lossy transport with input-falsifying adversaries.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ByzantineCheck {
    /// Byzantine peer fraction (the mix's total adversary fraction).
    pub fraction: f64,
    /// Whether the run converged before the round cap.
    pub converged: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// `|Σ final − (Σ initial − lost + duplicated)|` — exact mass
    /// accounting under both faults and byzantine inputs.
    pub mass_error: f64,
    /// The honest inputs' true mean.
    pub honest_mean: f64,
    /// The mean the falsified inputs actually average to.
    pub distorted_mean: f64,
    /// `|distorted − honest|`, the bias the attack achieved.
    pub measured_bias: f64,
    /// The documented worst-case bound
    /// `fraction × (1 − min honest input)` — sound for every seed, not
    /// just ones whose byzantine subset has average values.
    pub bias_bound: f64,
}

/// The stealth arm's audit-countermeasure metrics: what the seeded
/// stochastic audits ([`dg_trust::audit`]) achieved against a cartel
/// that provably evades the clamp + trim defense.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StealthAudit {
    /// Stealth cartel members in the run.
    pub cartel_members: usize,
    /// Cartel members convicted (k strikes) by the end of the run.
    pub detected: usize,
    /// `detected / cartel_members`.
    pub detection_rate: f64,
    /// Honest nodes convicted (must be zero: an honest node's log
    /// re-verifies bit-exactly, so audits cannot strike it).
    pub false_positives: usize,
    /// Mean 1-based round at which detected members were convicted.
    pub mean_rounds_to_detection: Option<f64>,
    /// Run-total audit bandwidth as a fraction of run-total report
    /// traffic — the gated bandwidth claim. Totals, not a worst round:
    /// convictions purge the cartel's reports, so late rounds carry a
    /// fraction of the original traffic and a per-round ratio there
    /// measures the denominator's collapse, not the audits' cost.
    pub audit_overhead: f64,
    /// Worst single-round audit bandwidth fraction (diagnostic).
    pub max_audit_overhead: f64,
    /// Honest deviation of the defended run *without* audits — the
    /// evasion proof: this must exceed `deviation_max`, or the cartel
    /// never beat the defense and the countermeasure claim is vacuous.
    pub evasion_deviation: Option<f64>,
}

/// One violated bound.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Violation {
    /// Which bound.
    pub bound: String,
    /// The configured limit.
    pub limit: f64,
    /// The measured value.
    pub value: f64,
}

/// The full `CLAIMS_<attack>.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttackReport {
    /// Attack label (`none` / `sybil` / `collusion` / `slander` /
    /// `whitewash` / `stealth`).
    pub attack: String,
    /// Scenario seed.
    pub seed: u64,
    /// Lifecycle network size.
    pub nodes: usize,
    /// Lifecycle rounds.
    pub rounds: usize,
    /// The adversary mix that ran.
    pub mix: AdversaryMix,
    /// Metrics with the paper's plain aggregation. For the `stealth`
    /// attack this slot holds the *defended-without-audits* run — the
    /// baseline the cartel evades.
    pub open: LifecycleMetrics,
    /// Metrics with [`DefensePolicy::defended`]. For the `stealth`
    /// attack the defense additionally runs [`AuditPolicy::standard`].
    pub defended: LifecycleMetrics,
    /// The distributed byzantine check.
    pub byzantine: ByzantineCheck,
    /// For the honest baseline only: whether a zero-fraction mix with
    /// non-default structural knobs replayed bit-identically.
    pub zero_mix_bit_identical: Option<bool>,
    /// For the stealth attack only: the audit-countermeasure metrics.
    #[serde(default)]
    pub stealth: Option<StealthAudit>,
    /// Violated bounds (empty = this attack's claims hold).
    pub violations: Vec<Violation>,
}

/// The attack-matrix run: open (undefended, unaudited) over
/// [`MATRIX_ROUNDS`]; callers switch the defense, audits and horizon on.
fn matrix_config(seed: u64, mix: AdversaryMix) -> RunConfig {
    RunConfig {
        nodes: MATRIX_NODES,
        seed,
        free_rider_fraction: 0.1,
        quality_range: (0.4, 1.0),
        rounds: MATRIX_ROUNDS,
        ..RunConfig::default()
    }
    .with_adversary(mix)
}

fn run_lifecycle(config: RunConfig) -> Result<LifecycleRun, Box<dyn std::error::Error>> {
    let scenario = Arc::new(Scenario::build(config)?);
    let mut engine = build_engine(Arc::clone(&scenario));
    let mut rng = scenario.gossip_rng(2);
    let stats = (0..config.rounds)
        .map(|_| engine.run_round(rng.next_u64()))
        .collect::<Result<Vec<_>, _>>()?;
    let core = engine.core();
    let residual = core.honest_residual();
    let convicted = core.convicted();
    // Subject means over the *operational* observers. Conviction resets
    // an auditee's identity, leaving it the zero-prior newcomer view of
    // everyone — counting those husks as observers would read as a
    // uniform deflation of every honest subject, drowning the signal the
    // deviation comparison is after. With no convictions this is exactly
    // `EngineCore::subject_mean_reputations`.
    let n = scenario.graph.node_count();
    let convicted_mask = {
        let mut mask = vec![false; n];
        for &(node, _) in &convicted {
            mask[node.index()] = true;
        }
        mask
    };
    let subject_means = |excluded: &dyn Fn(usize) -> bool| -> Vec<Option<f64>> {
        (0..n)
            .map(|s| {
                let (mut acc, mut count) = (0.0, 0usize);
                for o in 0..n {
                    if excluded(o) {
                        continue;
                    }
                    if let Some(v) = core.aggregated(NodeId(o as u32), NodeId(s as u32)) {
                        acc += v;
                        count += 1;
                    }
                }
                (count > 0).then(|| acc / count as f64)
            })
            .collect()
    };
    let means = subject_means(&|o| convicted_mask[o]);
    let honest_means = subject_means(&|o| {
        convicted_mask[o] || scenario.adversaries.is_adversary(NodeId(o as u32))
    });
    let honest_mask = scenario
        .graph
        .nodes()
        .map(|v| {
            !scenario.adversaries.is_adversary(v)
                && matches!(scenario.population.behavior(v), Behavior::Honest { .. })
        })
        .collect();
    let adversary_mask = scenario
        .graph
        .nodes()
        .map(|v| scenario.adversaries.is_adversary(v))
        .collect();
    Ok(LifecycleRun {
        stats,
        residual,
        means,
        honest_means,
        honest_mask,
        adversary_mask,
        convicted,
    })
}

/// The defended and undefended no-attack reference runs every attack's
/// deviation is measured against.
pub struct Reference {
    open: LifecycleRun,
    defended: LifecycleRun,
    /// No-attack defended run at [`STEALTH_ROUNDS`]: the stealth arm's
    /// deviations need a reference of the same length.
    stealth_defended: LifecycleRun,
}

/// Build the reference runs for a seed.
pub fn reference(seed: u64) -> Result<Reference, Box<dyn std::error::Error>> {
    let open = matrix_config(seed, AdversaryMix::none());
    let defended = open.with_defense(DefensePolicy::defended());
    Ok(Reference {
        open: run_lifecycle(open)?,
        defended: run_lifecycle(defended)?,
        stealth_defended: run_lifecycle(defended.with_rounds(STEALTH_ROUNDS))?,
    })
}

fn byzantine_check(
    seed: u64,
    mix: AdversaryMix,
) -> Result<ByzantineCheck, Box<dyn std::error::Error>> {
    // The real peer deployment over the lossy transport: byzantine
    // peers falsify their inputs, the network loses (and recredits)
    // shares, and the mass ledger must still close exactly.
    let substrate = Scenario::build(RunConfig {
        nodes: BYZANTINE_NODES,
        seed,
        quality_range: (0.4, 1.0),
        ..RunConfig::default()
    })?;
    let values = substrate.population.latent_qualities();
    let honest_mean = values.iter().sum::<f64>() / values.len() as f64;
    let initial: Vec<GossipPair> = values.iter().map(|&v| GossipPair::originator(v)).collect();
    let config = DistributedConfig {
        xi: 1e-4,
        seed,
        max_rounds: 5_000,
        profile: NetworkProfile::lossy(),
        adversary: mix,
        ..DistributedConfig::default()
    };
    let out = run_distributed(&substrate.graph, config, initial)?;

    let expected = out.ledger.expected_total(out.initial_total);
    let actual = out.total_pair();
    let mass_error = (actual.value - expected.value)
        .abs()
        .max((actual.weight - expected.weight).abs());
    let distorted_mean = out.initial_total.value / out.initial_total.weight;
    // The sound worst-case bound: each byzantine peer shifts the mean by
    // at most `(1 − its value)/n ≤ (1 − worst input)/n`, regardless of
    // which peers the seed happened to select. (A mean-based bound would
    // fail for any seed whose byzantine subset has below-average values.)
    let worst_input = values.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(ByzantineCheck {
        fraction: mix.adversary_fraction(),
        converged: out.converged,
        rounds: out.rounds,
        mass_error,
        honest_mean,
        distorted_mean,
        measured_bias: (distorted_mean - honest_mean).abs(),
        bias_bound: mix.adversary_fraction() * (1.0 - worst_input),
    })
}

/// The pinned attack matrix.
pub fn attack_matrix() -> Vec<(&'static str, AdversaryMix)> {
    vec![
        ("none", AdversaryMix::none()),
        ("sybil", AdversaryMix::sybil()),
        ("collusion", AdversaryMix::collusion()),
        ("slander", AdversaryMix::slander()),
        ("whitewash", AdversaryMix::whitewash()),
        ("stealth", AdversaryMix::stealth()),
    ]
}

fn check(violations: &mut Vec<Violation>, bound: &str, limit: f64, value: f64, ok: bool) {
    if !ok {
        violations.push(Violation {
            bound: bound.to_owned(),
            limit,
            value,
        });
    }
}

/// Run one attack through the lifecycle (open + defended) and the
/// byzantine distributed check, and gate it against the thresholds.
/// `reference` supplies the no-attack runs deviations are measured
/// against.
pub fn run_attack(
    attack: &str,
    mix: AdversaryMix,
    seed: u64,
    thresholds: &ClaimThresholds,
    reference: &Reference,
) -> Result<AttackReport, Box<dyn std::error::Error>> {
    let open = matrix_config(seed, mix);
    let defended = open.with_defense(DefensePolicy::defended());
    let is_stealth = attack == "stealth";
    // The `none` row IS the reference — reuse its runs instead of
    // repeating the identical 250-node lifecycles. The stealth row runs
    // the *defended* lifecycle twice over the long horizon: once without
    // audits (the evasion proof) and once with them (the countermeasure).
    let attack_runs = if mix.is_none() {
        None
    } else if is_stealth {
        let long = defended.with_rounds(STEALTH_ROUNDS);
        Some((
            run_lifecycle(long)?,
            run_lifecycle(long.with_audit(AuditPolicy::standard()))?,
        ))
    } else {
        Some((run_lifecycle(open)?, run_lifecycle(defended)?))
    };
    let (open_run, defended_run) = match &attack_runs {
        Some((open, defended)) => (open, defended),
        None => (&reference.open, &reference.defended),
    };
    let (open_dev, defended_dev) = if mix.is_none() {
        (None, None)
    } else if is_stealth {
        (
            open_run.honest_deviation_from(&reference.stealth_defended),
            defended_run.honest_deviation_from(&reference.stealth_defended),
        )
    } else {
        (
            open_run.deviation_from(&reference.open),
            defended_run.deviation_from(&reference.defended),
        )
    };
    let open = open_run.metrics(open_dev);
    let defended = defended_run.metrics(defended_dev);
    let byzantine = byzantine_check(seed, mix)?;

    let stealth = is_stealth.then(|| {
        let audit_run = defended_run;
        let cartel_members = audit_run.adversary_mask.iter().filter(|&&a| a).count();
        let mut detected = 0usize;
        let mut false_positives = 0usize;
        let mut round_sum = 0.0;
        for &(node, round) in &audit_run.convicted {
            if audit_run.adversary_mask[node.index()] {
                detected += 1;
                round_sum += round as f64 + 1.0;
            } else {
                false_positives += 1;
            }
        }
        StealthAudit {
            cartel_members,
            detected,
            detection_rate: if cartel_members == 0 {
                0.0
            } else {
                detected as f64 / cartel_members as f64
            },
            false_positives,
            mean_rounds_to_detection: (detected > 0).then(|| round_sum / detected as f64),
            audit_overhead: {
                let audit: u64 = audit_run.stats.iter().map(|s| s.audit_entries).sum();
                let report: u64 = audit_run.stats.iter().map(|s| s.report_entries).sum();
                if report == 0 {
                    0.0
                } else {
                    audit as f64 / report as f64
                }
            },
            max_audit_overhead: audit_run
                .stats
                .iter()
                .map(RoundStats::audit_overhead)
                .fold(0.0, f64::max),
            evasion_deviation: open_dev,
        }
    });

    // The zero-adversary bit-identity pin: a mix with all fractions at
    // zero but non-default structural knobs must replay the honest
    // baseline exactly.
    let zero_mix_bit_identical = if mix.is_none() {
        let knobbed = AdversaryMix {
            sybil_ring: 3,
            sybil_spawn_rate: 0.5,
            collusion_clique: 7,
            slander_factor: 0.9,
            wash_threshold: 0.8,
            ..AdversaryMix::none()
        };
        let replay = run_lifecycle(matrix_config(seed, knobbed))?;
        Some(replay.stats == open_run.stats && replay.means == open_run.means)
    } else {
        None
    };

    let t = thresholds;
    let mut violations = Vec::new();
    check(
        &mut violations,
        "honest_service_min",
        t.honest_service_min,
        defended.honest_service_rate,
        defended.honest_service_rate >= t.honest_service_min,
    );
    if let Some(deviation) = defended.honest_deviation {
        check(
            &mut violations,
            "deviation_max",
            t.deviation_max,
            deviation,
            deviation <= t.deviation_max,
        );
    }
    check(
        &mut violations,
        "mass_tolerance",
        t.mass_tolerance,
        byzantine.mass_error,
        byzantine.mass_error <= t.mass_tolerance,
    );
    check(
        &mut violations,
        "byzantine_bias_slack",
        byzantine.bias_bound + t.byzantine_bias_slack,
        byzantine.measured_bias,
        byzantine.measured_bias <= byzantine.bias_bound + t.byzantine_bias_slack,
    );
    match attack {
        "none" => {
            check(
                &mut violations,
                "free_rider_service_max",
                t.free_rider_service_max,
                open.free_rider_service_rate,
                open.free_rider_service_rate <= t.free_rider_service_max,
            );
            check(
                &mut violations,
                "zero_mix_bit_identical",
                1.0,
                if zero_mix_bit_identical == Some(true) {
                    1.0
                } else {
                    0.0
                },
                zero_mix_bit_identical == Some(true),
            );
        }
        "sybil" => {
            // A self-vouching ring can reach ordinary membership; the
            // bound is that it gains nothing *beyond* it, in service or
            // in rank.
            check(
                &mut violations,
                "preferential_service_slack",
                defended.honest_service_rate + t.preferential_service_slack,
                defended.adversary_service_rate,
                defended.adversary_service_rate
                    <= defended.honest_service_rate + t.preferential_service_slack,
            );
            let inflation = defended.mean_rep_adversaries - defended.mean_rep_honest;
            check(
                &mut violations,
                "inflation_max",
                t.inflation_max,
                inflation,
                inflation <= t.inflation_max,
            );
        }
        "whitewash" => {
            check(
                &mut violations,
                "adversary_service_max",
                t.adversary_service_max,
                defended.adversary_service_rate,
                defended.adversary_service_rate <= t.adversary_service_max,
            );
            // The attack must actually have been exercised.
            check(
                &mut violations,
                "washes_exercised",
                1.0,
                open.washes as f64,
                open.washes >= 1,
            );
        }
        "collusion" => {
            let inflation = defended.mean_rep_adversaries - defended.mean_rep_honest;
            check(
                &mut violations,
                "inflation_max",
                t.inflation_max,
                inflation,
                inflation <= t.inflation_max,
            );
        }
        "stealth" => {
            let s = stealth.as_ref().expect("stealth arm computes its audit");
            // The evasion proof: *without* audits the cartel must push
            // honest reputations past the deviation bound, or the
            // countermeasure has nothing to counter. Note the inverted
            // sense — staying under the limit is the violation here.
            let evasion = s.evasion_deviation.unwrap_or(0.0);
            check(
                &mut violations,
                "stealth_evasion_proven",
                t.deviation_max,
                evasion,
                evasion > t.deviation_max,
            );
            check(
                &mut violations,
                "detection_min",
                t.detection_min,
                s.detection_rate,
                s.detection_rate >= t.detection_min,
            );
            check(
                &mut violations,
                "false_positive_max",
                t.false_positive_max,
                s.false_positives as f64,
                (s.false_positives as f64) <= t.false_positive_max,
            );
            check(
                &mut violations,
                "audit_overhead_max",
                t.audit_overhead_max,
                s.audit_overhead,
                s.audit_overhead <= t.audit_overhead_max,
            );
        }
        _ => {}
    }

    Ok(AttackReport {
        attack: attack.to_owned(),
        seed,
        nodes: MATRIX_NODES,
        rounds: if is_stealth {
            STEALTH_ROUNDS
        } else {
            MATRIX_ROUNDS
        },
        mix,
        open,
        defended,
        byzantine,
        zero_mix_bit_identical,
        stealth,
        violations,
    })
}

/// Run the whole matrix; returns every report (pass and fail alike).
pub fn run_matrix(seed: u64) -> Result<Vec<AttackReport>, Box<dyn std::error::Error>> {
    let reference = reference(seed)?;
    let thresholds = ClaimThresholds::default();
    attack_matrix()
        .into_iter()
        .map(|(attack, mix)| run_attack(attack, mix, seed, &thresholds, &reference))
        .collect()
}

/// Parsed `claims` options.
#[derive(Debug, PartialEq)]
struct ClaimsCli {
    /// Scenario seed.
    seed: u64,
    /// Also print each report as a JSON line on stdout.
    json: bool,
    /// Where the `CLAIMS_<attack>.json` reports are written.
    out_dir: String,
}

const USAGE: &str = "usage: claims [--seed <u64>] [--json] [--out-dir <path>]";

impl ClaimsCli {
    /// Parse the options; `Err` is the message to print above the usage
    /// line.
    fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut cli = ClaimsCli {
            seed: 42,
            json: false,
            out_dir: String::from("."),
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => {
                    cli.seed = value(&mut args, |s| s.parse().ok(), "--seed needs a u64 value")?
                }
                "--json" => cli.json = true,
                "--out-dir" => {
                    cli.out_dir =
                        value(&mut args, |s| Some(s.to_owned()), "--out-dir needs a path")?
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(cli)
    }
}

/// The `claims` binary's entry point. A usage error exits 2; a violated
/// bound is an `Err` (the binary exits 1).
pub fn claims_main() -> Result<(), Box<dyn std::error::Error>> {
    let ClaimsCli {
        seed,
        json,
        out_dir,
    } = or_exit(ClaimsCli::parse_args(std::env::args().skip(1)), USAGE);
    eprintln!(
        "claims: attack matrix at N={MATRIX_NODES}, {MATRIX_ROUNDS} rounds, seed {seed} \
         (byzantine check at N={BYZANTINE_NODES} over the lossy transport)"
    );
    let reports = run_matrix(seed)?;
    let mut failed = false;
    eprintln!(
        "  {:<10} {:>8} {:>8} {:>8} {:>9} {:>7} {:>9}  bounds",
        "attack", "honest", "adv", "advDEF", "devDEF", "washes", "byzBias"
    );
    for report in &reports {
        let deviation = report
            .defended
            .honest_deviation
            .map(|d| format!("{d:.4}"))
            .unwrap_or_else(|| "-".into());
        let verdict = if report.violations.is_empty() {
            "ok".to_owned()
        } else {
            failed = true;
            format!(
                "VIOLATED: {}",
                report
                    .violations
                    .iter()
                    .map(|v| format!("{} ({:.4} vs {:.4})", v.bound, v.value, v.limit))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        eprintln!(
            "  {:<10} {:>8.3} {:>8.3} {:>8.3} {:>9} {:>7} {:>9.4}  {}",
            report.attack,
            report.defended.honest_service_rate,
            report.open.adversary_service_rate,
            report.defended.adversary_service_rate,
            deviation,
            report.open.washes,
            report.byzantine.measured_bias,
            verdict,
        );
        let path = format!("{out_dir}/CLAIMS_{}.json", report.attack);
        std::fs::write(&path, serde_json::to_string_pretty(report)?)?;
        if json {
            println!("{}", serde_json::to_string(report)?);
        }
    }
    if failed {
        return Err("claims gate: documented bounds violated (see table above)".into());
    }
    eprintln!("claims gate: all documented bounds hold");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ClaimsCli, String> {
        ClaimsCli::parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn claims_flags_parse_into_their_fields() {
        let cli = parse(&["--seed", "7", "--json", "--out-dir", "reports"]).unwrap();
        let expect = ClaimsCli {
            seed: 7,
            json: true,
            out_dir: "reports".into(),
        };
        assert_eq!(cli, expect);
        let defaults = ClaimsCli {
            seed: 42,
            json: false,
            out_dir: ".".into(),
        };
        assert_eq!(parse(&[]).unwrap(), defaults);
        assert!(parse(&["--seed", "x"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--out-dir"]).unwrap_err().contains("--out-dir"));
    }

    /// `claims` reads only `--seed`, `--json` and `--out-dir`: the
    /// deleted `--bound` and the other binaries' flags are usage errors
    /// (exit 2), not a violated bound (exit 1).
    #[test]
    fn claims_refuses_other_binaries_flags() {
        for flag in ["--bound", "--full", "--engine", "--nodes"] {
            assert_eq!(
                parse(&[flag, "x"]).unwrap_err(),
                format!("unknown flag {flag}")
            );
        }
    }

    #[test]
    fn matrix_covers_every_preset_once() {
        let matrix = attack_matrix();
        let labels: Vec<&str> = matrix.iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec![
                "none",
                "sybil",
                "collusion",
                "slander",
                "whitewash",
                "stealth"
            ]
        );
        for (label, mix) in &matrix {
            assert_eq!(mix.label(), if *label == "none" { "none" } else { label });
            assert!(mix.validated().is_ok());
        }
    }
}
