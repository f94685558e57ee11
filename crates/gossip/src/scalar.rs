//! Scalar push-sum gossip with the paper's convergence protocol
//! (Algorithm 1's diffusion core).
//!
//! Every node holds a gossip pair `(y, g)`. Each step, a still-active node
//! splits its pair into `k + 1` equal shares, keeps one, and pushes one to
//! each of `k` randomly chosen neighbours (`k` from the configured
//! [`FanoutPolicy`](crate::fanout::FanoutPolicy) — 1 for normal push,
//! degree-ratio for differential push). Nodes sum everything they receive;
//! the ratio `y / g` converges to `Σ y⁰ / Σ g⁰` everywhere.
//!
//! The convergence protocol of Section 4.1.1 — when a node announces,
//! revokes and stops pushing, and why — lives in
//! [`protocol`](crate::protocol); this engine feeds it each node's ratio
//! movement in the steps where the node heard from somebody else.
//!
//! ## Mass conservation
//!
//! `Σ y` and `Σ g` are invariant: lost pushes bounce back to the sender
//! ("pushes the gossip pair to itself so that mass conservation still
//! applies"), and departing nodes hand their pair to a surviving node.
//! The engine `debug_assert!`s the invariant every step.

use crate::config::GossipConfig;
use crate::error::GossipError;
use crate::metrics::MessageStats;
use crate::pair::GossipPair;
use crate::protocol::Convergence;
use dg_graph::{Graph, NodeId};
use rand::seq::index::sample;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Result of a completed scalar gossip run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarOutcome {
    /// Gossip steps executed.
    pub steps: usize,
    /// Whether every present node stopped within the step budget.
    pub converged: bool,
    /// Final per-node ratio estimates (`y/g`, sentinel 10 where `g = 0`).
    pub estimates: Vec<f64>,
    /// Final per-node pairs.
    pub pairs: Vec<GossipPair>,
    /// Message accounting.
    pub stats: MessageStats,
    /// Nodes still present at the end (false = departed by churn).
    pub present: Vec<bool>,
}

impl ScalarOutcome {
    /// The estimate at one node.
    pub fn estimate(&self, node: NodeId) -> f64 {
        self.estimates[node.index()]
    }

    /// Maximum absolute deviation of present nodes' estimates from
    /// `reference`.
    pub fn max_error(&self, reference: f64) -> f64 {
        self.estimates
            .iter()
            .zip(&self.present)
            .filter(|(_, &p)| p)
            .map(|(&e, _)| (e - reference).abs())
            .fold(0.0, f64::max)
    }
}

/// Scalar push-sum gossip engine.
///
/// Drive it with [`ScalarGossip::step`] for fine-grained control (the
/// Table 1 harness prints per-iteration values) or [`ScalarGossip::run`]
/// to completion.
#[derive(Debug, Clone)]
pub struct ScalarGossip<'g> {
    graph: &'g Graph,
    config: GossipConfig,
    convergence: Convergence,
    fanouts: Vec<usize>,
    state: Vec<GossipPair>,
    /// Previous-step ratio `u` per node.
    prev_ratio: Vec<f64>,
    /// Current convergence announcement per node (revocable).
    announced: Vec<bool>,
    /// Whether the node is currently quiescent (not pushing).
    stopped: Vec<bool>,
    present: Vec<bool>,
    departures: usize,
    step: usize,
    stats: MessageStats,
    // Scratch buffers reused across steps.
    inbox: Vec<GossipPair>,
    heard_other: Vec<bool>,
}

impl<'g> ScalarGossip<'g> {
    /// Create an engine over `graph` with per-node initial pairs.
    ///
    /// # Errors
    /// * [`GossipError::StateSizeMismatch`] if `initial` has the wrong
    ///   length,
    /// * [`GossipError::InvalidWeight`] if any initial weight is negative
    ///   or non-finite,
    /// * configuration errors from [`GossipConfig::validated`] /
    ///   [`FanoutPolicy::resolve`](crate::fanout::FanoutPolicy::resolve).
    pub fn new(
        graph: &'g Graph,
        config: GossipConfig,
        initial: Vec<GossipPair>,
    ) -> Result<Self, GossipError> {
        let config = config.validated()?;
        let n = graph.node_count();
        if initial.len() != n {
            return Err(GossipError::StateSizeMismatch {
                given: initial.len(),
                expected: n,
            });
        }
        for p in &initial {
            if !p.weight.is_finite() || p.weight < 0.0 {
                return Err(GossipError::InvalidWeight(p.weight));
            }
        }
        let fanouts = config.fanout.resolve(graph)?;
        let prev_ratio = initial.iter().map(GossipPair::ratio).collect();
        Ok(Self {
            graph,
            config,
            convergence: Convergence::new(config.xi, config.sticky_announcements, None),
            fanouts,
            state: initial,
            prev_ratio,
            announced: vec![false; n],
            stopped: vec![false; n],
            present: vec![true; n],
            departures: 0,
            step: 0,
            stats: MessageStats::new(n),
            inbox: vec![GossipPair::ZERO; n],
            heard_other: vec![false; n],
        })
    }

    /// Convenience: start an **average** computation where every node is
    /// an originator of its own value (gossip weight 1 everywhere) —
    /// the setting of Theorem 5.2.
    pub fn average(
        graph: &'g Graph,
        config: GossipConfig,
        values: &[f64],
    ) -> Result<Self, GossipError> {
        let initial = values.iter().map(|&v| GossipPair::originator(v)).collect();
        Self::new(graph, config, initial)
    }

    /// Current per-node ratios.
    pub fn ratios(&self) -> Vec<f64> {
        self.state.iter().map(GossipPair::ratio).collect()
    }

    /// Current pair at `node`.
    pub fn pair(&self, node: NodeId) -> GossipPair {
        self.state[node.index()]
    }

    /// Steps executed so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Whether every present node has stopped (protocol-level quiescence).
    pub fn all_stopped(&self) -> bool {
        self.stopped
            .iter()
            .zip(&self.present)
            .all(|(&s, &p)| s || !p)
    }

    /// Total `(Σ y, Σ g)` over all nodes — the conserved mass.
    pub fn total_mass(&self) -> (f64, f64) {
        self.state
            .iter()
            .fold((0.0, 0.0), |(y, g), p| (y + p.value, g + p.weight))
    }

    fn apply_churn<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.config.churn.departure_probability() == 0.0 {
            return;
        }
        let n = self.graph.node_count();
        for i in 0..n {
            if !self.present[i]
                || self.departures >= self.config.churn.max_departures
                || !self.config.churn.departs(rng)
            {
                continue;
            }
            // Keep at least one node so mass has somewhere to live.
            let survivors = self.present.iter().filter(|&&p| p).count();
            if survivors <= 1 {
                break;
            }
            // Hand the pair over to a present neighbour, or failing that
            // the lowest-id present node (the paper only requires "some
            // other node").
            let heir = self
                .graph
                .neighbours(NodeId(i as u32))
                .iter()
                .map(|&w| w as usize)
                .find(|&w| self.present[w])
                .or_else(|| (0..n).find(|&w| w != i && self.present[w]));
            if let Some(heir) = heir {
                let pair = std::mem::replace(&mut self.state[i], GossipPair::ZERO);
                self.state[heir] += pair;
                self.present[i] = false;
                self.departures += 1;
            }
        }

        // Overlay repair: a surviving node whose entire neighbourhood has
        // departed can never receive a push again, so it could neither
        // converge nor redistribute its mass. In a real overlay such a
        // peer reconnects; we model the equivalent mass movement by
        // cascading its hand-over (the peer drops out and rejoins later
        // as a fresh node). The cascade is not charged against
        // `max_departures` — it is a consequence, not a cause.
        loop {
            let survivors = self.present.iter().filter(|&&p| p).count();
            if survivors <= 1 {
                break;
            }
            let stranded = (0..n).find(|&i| {
                self.present[i]
                    && !self.graph.neighbours(NodeId(i as u32)).is_empty()
                    && self
                        .graph
                        .neighbours(NodeId(i as u32))
                        .iter()
                        .all(|&w| !self.present[w as usize])
            });
            let Some(i) = stranded else { break };
            let heir = (0..n)
                .find(|&w| w != i && self.present[w])
                .expect("survivors > 1");
            let pair = std::mem::replace(&mut self.state[i], GossipPair::ZERO);
            self.state[heir] += pair;
            self.present[i] = false;
        }
    }

    /// Execute one gossip step. Returns the number of network messages
    /// sent during the step.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        #[cfg(debug_assertions)]
        let mass_before = self.total_mass();

        self.apply_churn(rng);

        let n = self.graph.node_count();
        debug_assert_eq!(self.inbox.len(), n);
        for slot in self.inbox.iter_mut() {
            *slot = GossipPair::ZERO;
        }
        self.heard_other.iter_mut().for_each(|h| *h = false);

        let mut messages = 0u64;
        let mut active = 0u64;
        for i in 0..n {
            if !self.present[i] {
                continue;
            }
            if self.stopped[i] {
                // Quiescent: keep the pair in place, send nothing.
                self.inbox[i] += self.state[i];
                continue;
            }
            let neighbours = self.graph.neighbours(NodeId(i as u32));
            let k = self.fanouts[i].min(neighbours.len());
            if k == 0 {
                // Isolated node: nothing to push to; keep the pair.
                self.inbox[i] += self.state[i];
                continue;
            }
            active += 1;
            let share = self.state[i].share(k + 1);
            // Self share (not a network message).
            self.inbox[i] += share;
            // k distinct random neighbours.
            for idx in sample(rng, neighbours.len(), k) {
                let target = neighbours[idx] as usize;
                messages += 1;
                if !self.present[target] || self.config.loss.drops(rng) {
                    // No ack: the share returns to the sender.
                    self.inbox[i] += share;
                } else {
                    self.inbox[target] += share;
                    self.heard_other[target] = true;
                }
            }
        }

        // Commit received sums and update the convergence protocol.
        for i in 0..n {
            if !self.present[i] {
                continue;
            }
            self.state[i] = self.inbox[i];
            let ratio = self.state[i].ratio();
            if self.heard_other[i] {
                let moved = (ratio - self.prev_ratio[i]).abs();
                self.announced[i] = self.convergence.observe(self.announced[i], moved);
            }
            self.prev_ratio[i] = ratio;
        }

        for i in 0..n {
            if !self.present[i] {
                continue;
            }
            let neighbours = self.graph.neighbours(NodeId(i as u32));
            self.stopped[i] = Convergence::quiescent(
                self.announced[i],
                neighbours
                    .iter()
                    .map(|&w| !self.present[w as usize] || self.announced[w as usize]),
            );
        }

        self.step += 1;
        self.stats.record_step(messages, active);

        #[cfg(debug_assertions)]
        {
            let mass_after = self.total_mass();
            debug_assert!(
                (mass_before.0 - mass_after.0).abs() < 1e-6 * (1.0 + mass_before.0.abs())
                    && (mass_before.1 - mass_after.1).abs() < 1e-6 * (1.0 + mass_before.1.abs()),
                "mass not conserved: {mass_before:?} -> {mass_after:?}"
            );
        }

        messages
    }

    /// Run until protocol quiescence or the step cap, consuming the engine.
    pub fn run<R: Rng + ?Sized>(mut self, rng: &mut R) -> ScalarOutcome {
        while !self.all_stopped() && self.step < self.config.max_steps {
            self.step(rng);
        }
        let converged = self.all_stopped();
        ScalarOutcome {
            steps: self.step,
            converged,
            estimates: self.ratios(),
            pairs: self.state,
            stats: self.stats,
            present: self.present,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{ChurnModel, LossModel};
    use dg_graph::{generators, pa};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn mean(values: &[f64]) -> f64 {
        values.iter().sum::<f64>() / values.len() as f64
    }

    #[test]
    fn rejects_wrong_state_size() {
        let g = generators::complete(4);
        let err = ScalarGossip::new(&g, GossipConfig::default(), vec![GossipPair::ZERO; 3]);
        assert!(matches!(
            err,
            Err(GossipError::StateSizeMismatch {
                given: 3,
                expected: 4
            })
        ));
    }

    #[test]
    fn rejects_negative_weight() {
        let g = generators::complete(2);
        let bad = vec![
            GossipPair {
                value: 0.0,
                weight: -1.0,
            },
            GossipPair::ZERO,
        ];
        assert!(matches!(
            ScalarGossip::new(&g, GossipConfig::default(), bad),
            Err(GossipError::InvalidWeight(_))
        ));
    }

    #[test]
    fn averaging_on_complete_graph_converges_to_mean() {
        let g = generators::complete(20);
        let values: Vec<f64> = (0..20).map(|i| i as f64 / 19.0).collect();
        let engine =
            ScalarGossip::average(&g, GossipConfig::differential(1e-6).unwrap(), &values).unwrap();
        let out = engine.run(&mut rng(1));
        assert!(out.converged);
        let target = mean(&values);
        assert!(
            out.max_error(target) < 1e-3,
            "max error {}",
            out.max_error(target)
        );
    }

    #[test]
    fn averaging_on_pa_graph_converges() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 300, m: 2 }, &mut rng(2)).unwrap();
        let values: Vec<f64> = (0..300).map(|i| (i % 10) as f64 / 10.0).collect();
        let out = ScalarGossip::average(&g, GossipConfig::differential(1e-7).unwrap(), &values)
            .unwrap()
            .run(&mut rng(3));
        assert!(out.converged);
        assert!(out.max_error(mean(&values)) < 1e-3);
    }

    #[test]
    fn normal_push_also_converges_but_differential_is_not_slower_on_pa() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 500, m: 2 }, &mut rng(4)).unwrap();
        let values: Vec<f64> = (0..500).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let diff = ScalarGossip::average(&g, GossipConfig::differential(1e-8).unwrap(), &values)
            .unwrap()
            .run(&mut rng(5));
        let push = ScalarGossip::average(&g, GossipConfig::normal_push(1e-8).unwrap(), &values)
            .unwrap()
            .run(&mut rng(5));
        assert!(diff.converged && push.converged);
        // Differential should not need more steps than normal push on a
        // power-law graph (usually strictly fewer).
        assert!(
            diff.steps <= push.steps + 2,
            "differential {} vs push {}",
            diff.steps,
            push.steps
        );
    }

    #[test]
    fn single_originator_sum_mode() {
        // One node starts with weight 1 and value 0.6; everyone converges
        // to 0.6 / 1 = the sum of values over total weight.
        let g = generators::complete(10);
        let mut initial = vec![GossipPair::ZERO; 10];
        initial[3] = GossipPair::originator(0.6);
        let out = ScalarGossip::new(&g, GossipConfig::differential(1e-9).unwrap(), initial)
            .unwrap()
            .run(&mut rng(6));
        assert!(out.converged);
        assert!(out.max_error(0.6) < 1e-4, "estimates {:?}", out.estimates);
    }

    #[test]
    fn mass_is_conserved_under_loss() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 100, m: 2 }, &mut rng(7)).unwrap();
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let config = GossipConfig::differential(1e-6)
            .unwrap()
            .with_loss(LossModel::new(0.3).unwrap());
        let mut engine = ScalarGossip::average(&g, config, &values).unwrap();
        let before = engine.total_mass();
        for _ in 0..50 {
            engine.step(&mut rng(8));
        }
        let after = engine.total_mass();
        assert!((before.0 - after.0).abs() < 1e-8);
        assert!((before.1 - after.1).abs() < 1e-8);
    }

    #[test]
    fn converges_under_packet_loss() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 200, m: 2 }, &mut rng(9)).unwrap();
        let values: Vec<f64> = (0..200).map(|i| ((i % 5) as f64) / 5.0).collect();
        let lossless =
            ScalarGossip::average(&g, GossipConfig::differential(1e-6).unwrap(), &values)
                .unwrap()
                .run(&mut rng(10));
        let lossy = ScalarGossip::average(
            &g,
            GossipConfig::differential(1e-6)
                .unwrap()
                .with_loss(LossModel::new(0.2).unwrap()),
            &values,
        )
        .unwrap()
        .run(&mut rng(10));
        assert!(lossless.converged && lossy.converged);
        assert!(lossy.max_error(mean(&values)) < 1e-2);
        // Fig. 4: loss costs extra steps, but only a modest number.
        assert!(lossy.steps >= lossless.steps);
    }

    #[test]
    fn churn_hands_mass_over() {
        let g = generators::complete(30);
        let values: Vec<f64> = (0..30).map(|i| i as f64 / 29.0).collect();
        let config = GossipConfig::differential(1e-6)
            .unwrap()
            .with_churn(ChurnModel::new(0.01, 10).unwrap());
        let mut engine = ScalarGossip::average(&g, config, &values).unwrap();
        let before = engine.total_mass();
        // One RNG across the whole run: a fresh seed per step would replay
        // the same draws every round and churn could never trigger.
        let mut step_rng = rng(11);
        for _ in 0..100 {
            engine.step(&mut step_rng);
        }
        let after = engine.total_mass();
        assert!((before.0 - after.0).abs() < 1e-8);
        assert!((before.1 - after.1).abs() < 1e-8);
        // Some nodes departed, bounded by the cap.
        let departed = engine.present.iter().filter(|&&p| !p).count();
        assert!(departed > 0 && departed <= 10, "departed {departed}");
    }

    #[test]
    fn message_stats_track_fanout() {
        let g = generators::complete(10);
        let values = vec![0.5; 10];
        // Uniform 1-push on a complete graph: exactly N messages per step.
        let mut engine =
            ScalarGossip::average(&g, GossipConfig::normal_push(1e-6).unwrap(), &values).unwrap();
        let sent = engine.step(&mut rng(12));
        assert_eq!(sent, 10);
    }

    #[test]
    fn max_steps_cap_reports_non_convergence() {
        let g = generators::ring(50).unwrap();
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let config = GossipConfig::differential(1e-12).unwrap().with_max_steps(3);
        let out = ScalarGossip::average(&g, config, &values)
            .unwrap()
            .run(&mut rng(13));
        assert!(!out.converged);
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn stopped_network_stays_quiescent() {
        let g = generators::complete(8);
        let values = vec![0.25; 8]; // already uniform: converges immediately
        let out = ScalarGossip::average(&g, GossipConfig::differential(1e-4).unwrap(), &values)
            .unwrap()
            .run(&mut rng(14));
        assert!(out.converged);
        // Uniform start: every ratio is 0.25 forever, so convergence is
        // detected as soon as the |S| > 1 condition is met once.
        assert!(out.steps <= 4, "steps {}", out.steps);
        assert!(out.max_error(0.25) < 1e-12);
    }

    #[test]
    fn tighter_tolerance_needs_at_least_as_many_steps() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 200, m: 2 }, &mut rng(15)).unwrap();
        let values: Vec<f64> = (0..200).map(|i| ((i * 31) % 17) as f64 / 17.0).collect();
        let loose = ScalarGossip::average(&g, GossipConfig::differential(1e-2).unwrap(), &values)
            .unwrap()
            .run(&mut rng(16));
        let tight = ScalarGossip::average(&g, GossipConfig::differential(1e-8).unwrap(), &values)
            .unwrap()
            .run(&mut rng(16));
        assert!(tight.steps >= loose.steps);
    }
}
