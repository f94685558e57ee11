//! Adversarial roles and their per-node assignment.
//!
//! [`AdversaryMix`] says *how much* of the
//! population attacks; this module says *what each attacker does*. At
//! [`Scenario::build`](crate::Scenario::build) time the mix is compiled
//! into an [`AdversaryAssignment`]: each adversary's `Role` plus the tables
//! the attacks read (sybil rings with their spawn schedules, collusion
//! cliques, stealth cartels, the slander factor and the whitewashers'
//! thresholds). Every round strategy then consults the assignment at three
//! points:
//!
//! 1. **transact** — dormant sybil identities neither request nor serve
//!    (`AdversaryAssignment::participates`); adversarial requesters are
//!    counted in their own service-statistics class;
//! 2. **report** — each node's estimated trust row passes through
//!    `AdversaryAssignment::distort_row`, one `match` on the node's
//!    role, before entering the gossip channel;
//! 3. **wash** — after aggregation, whitewashers whose network-wide mean
//!    reputation fell below their personal threshold discard their
//!    identity ([`AdversaryAssignment::washes`]); the engines then purge
//!    every estimator and aggregated opinion involving the old identity.
//!
//! Determinism: every stochastic attack parameter (sybil activation
//! rounds, personal wash thresholds) is drawn at build time from a
//! *per-adversary* ChaCha8 stream derived from the scenario seed with
//! [`node_stream_seed`]; the attacks themselves draw nothing at run
//! time. Honest nodes consume no adversary randomness at all, so a
//! zero-fraction mix is bit-identical to an honest run (pinned by
//! `tests/adversaries.rs`).

use dg_core::behavior::{Behavior, Population};
use dg_gossip::{node_stream_seed, AdversaryMix, GossipError};
use dg_graph::NodeId;
use dg_trust::TrustValue;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Salt for the role-assignment shuffle stream (decoupled from the
/// topology / population / workload streams of the same seed).
const ASSIGN_SALT: u64 = 0xAD5E_11AE_5EED_0001;
/// Salt for per-adversary build-time parameter streams.
const PARAM_SALT: u64 = 0xAD5E_11AE_5EED_0002;

/// The role a node plays in the adversarial population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Follows the protocol.
    Honest,
    /// Leech identity in the sybil ring with this index: endorses every
    /// active ring-mate at 1, bad-mouths every rated outsider at 0, and
    /// does not exist before its activation round.
    Sybil {
        /// Ring index into the assignment.
        ring: u32,
    },
    /// Member of the collusion clique with this index: serves honestly
    /// but reports every mate at 1 (replacing any honest opinion and
    /// injecting endorsements it never earned), leaving reports about
    /// outsiders intact.
    Colluder {
        /// Clique index into the assignment.
        clique: u32,
    },
    /// Serves honestly but multiplies every report it gossips by the
    /// slander factor (0 = full bad-mouthing).
    Slanderer,
    /// Leeches, and discards its identity whenever its reputation falls
    /// below its personal threshold. The wash is an engine-side state
    /// purge; in the gossip channel it reports honestly.
    Whitewasher,
    /// Member of the stealth cartel with this index: serves honestly but
    /// shifts every report by the stealth bias *inside* the defended
    /// clamp window — outsiders down, cartel mates up — so
    /// `RobustAggregation::defended()` never sees an outlier to clamp
    /// and (for subjects with fewer than `1 / trim_fraction` reporters)
    /// never trims a single value. The cartel knows the defense
    /// parameters (Kerckhoffs's principle) and stays strictly within
    /// them.
    Stealth {
        /// Cartel index into the assignment.
        cartel: u32,
    },
}

/// A sybil ring: its members and the round each one activates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SybilRing {
    /// Ring members, ascending.
    pub members: Vec<NodeId>,
    /// Round at which each member (aligned with `members`) activates.
    pub activation: Vec<u64>,
}

impl SybilRing {
    /// Whether `node` has activated by `round`.
    fn active(&self, node: NodeId, round: u64) -> bool {
        self.members
            .binary_search(&node)
            .is_ok_and(|i| self.activation[i] <= round)
    }
}

/// The defended clamp window of `RobustAggregation::defended()` — the
/// bounds a stealth report must stay within to survive clamping
/// untouched.
const STEALTH_CLAMP: (f64, f64) = (0.1, 0.9);

/// Report every one of `mates` at 1 — replacing an opinion the row
/// holds or injecting one it never earned — keeping the row ascending
/// by subject.
fn endorse(row: &mut Vec<(NodeId, TrustValue)>, mates: impl Iterator<Item = NodeId>) {
    let mut reports: BTreeMap<NodeId, TrustValue> = row.drain(..).collect();
    reports.extend(mates.map(|mate| (mate, TrustValue::ONE)));
    row.extend(reports);
}

/// Who plays what: one role per adversary, aligned with the ascending
/// adversary ids. Indexed by node index, it finds a node's role by
/// binary search; a node not listed is [`Role::Honest`].
#[derive(Debug, Clone, PartialEq)]
struct Roles {
    /// The scenario's node count: a node outside it has no role.
    nodes: usize,
    /// Every adversary's id, ascending.
    ids: Vec<NodeId>,
    /// Each adversary's role, aligned with `ids`.
    roles: Vec<Role>,
}

impl std::ops::Index<usize> for Roles {
    type Output = Role;

    #[inline]
    fn index(&self, node: usize) -> &Role {
        match self.ids.binary_search(&NodeId(node as u32)) {
            Ok(at) => &self.roles[at],
            Err(_) => {
                assert!(node < self.nodes, "node {node} of {}", self.nodes);
                &Role::Honest
            }
        }
    }
}

/// The compiled per-node adversary assignment of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryAssignment {
    roles: Roles,
    rings: Vec<SybilRing>,
    /// Collusion cliques, each ascending.
    cliques: Vec<Vec<NodeId>>,
    slander_factor: f64,
    /// Whitewasher ids, ascending.
    washer_ids: Vec<NodeId>,
    /// Personal wash thresholds, aligned with `washer_ids`.
    wash_thresholds: Vec<f64>,
    /// Stealth cartels, each ascending.
    cartels: Vec<Vec<NodeId>>,
    stealth_bias: f64,
}

impl AdversaryAssignment {
    /// No adversaries (every node honest); consumes no randomness.
    pub fn none(n: usize) -> Self {
        Self {
            roles: Roles {
                nodes: n,
                ids: Vec::new(),
                roles: Vec::new(),
            },
            rings: Vec::new(),
            cliques: Vec::new(),
            slander_factor: 0.0,
            washer_ids: Vec::new(),
            wash_thresholds: Vec::new(),
            cartels: Vec::new(),
            stealth_bias: 0.0,
        }
    }

    /// Compile a mix into the adversaries' roles, drawn from a dedicated ChaCha8
    /// stream of `seed` so the honest substrate (topology, population,
    /// workload) is untouched by the choice of mix. Class sizes use
    /// cumulative rounding — class `k` gets
    /// `round(Σ₀..k fᵢ · n) − round(Σ₀..k−1 fᵢ · n)` nodes — so
    /// per-class rounding never accumulates and starves a later class
    /// (each class is within one node of `fraction · n`).
    pub fn assign(n: usize, mix: AdversaryMix, seed: u64) -> Result<Self, GossipError> {
        let mix = mix.validated()?;
        if mix.is_none() {
            return Ok(Self::none(n));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(node_stream_seed(seed ^ ASSIGN_SALT, 0));
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(&mut rng);

        let mut cursor = 0usize;
        let mut cumulative = 0.0f64;
        let mut take = |fraction: f64| {
            cumulative += fraction;
            let end = ((cumulative * n as f64).round() as usize).clamp(cursor, n);
            let slice = ids[cursor..end].to_vec();
            cursor = end;
            slice
        };

        let mut assignment = Self::none(n);
        // Each adversary's role, in the order the classes take them.
        let mut roles: Vec<(NodeId, Role)> = Vec::new();
        let param_stream =
            |node: u32| ChaCha8Rng::seed_from_u64(node_stream_seed(seed ^ PARAM_SALT, node));

        for chunk in take(mix.sybil_fraction).chunks(mix.sybil_ring) {
            let ring = assignment.rings.len() as u32;
            let mut members: Vec<NodeId> = chunk.iter().map(|&i| NodeId(i)).collect();
            members.sort_unstable();
            // Member k activates around round k / spawn_rate, jittered
            // from its own stream: rings grow instead of materialising.
            let activation = members
                .iter()
                .enumerate()
                .map(|(k, &m)| {
                    let jitter: f64 = param_stream(m.0).random();
                    ((k as f64 + jitter) / mix.sybil_spawn_rate).floor() as u64
                })
                .collect();
            roles.extend(members.iter().map(|&m| (m, Role::Sybil { ring })));
            assignment.rings.push(SybilRing {
                members,
                activation,
            });
        }

        for chunk in take(mix.collusion_fraction).chunks(mix.collusion_clique) {
            let clique = assignment.cliques.len() as u32;
            let mut members: Vec<NodeId> = chunk.iter().map(|&i| NodeId(i)).collect();
            members.sort_unstable();
            roles.extend(members.iter().map(|&m| (m, Role::Colluder { clique })));
            assignment.cliques.push(members);
        }

        assignment.slander_factor = mix.slander_factor;
        let slanderers = take(mix.slander_fraction);
        roles.extend(slanderers.iter().map(|&i| (NodeId(i), Role::Slanderer)));

        let mut washer_ids: Vec<NodeId> = take(mix.whitewash_fraction)
            .iter()
            .map(|&i| NodeId(i))
            .collect();
        washer_ids.sort_unstable();
        for &w in &washer_ids {
            roles.push((w, Role::Whitewasher));
            // Personal threshold jittered ±20 % from the washer's own
            // stream, so washes don't synchronise network-wide.
            let jitter: f64 = param_stream(w.0).random();
            assignment
                .wash_thresholds
                .push((mix.wash_threshold * (0.8 + 0.4 * jitter)).clamp(0.0, 1.0));
        }
        assignment.washer_ids = washer_ids;

        // `stealth_clique` defaults to 0 when the mix has no cartel (so
        // legacy serialized mixes keep deserializing); validation
        // guarantees it is ≥ 1 whenever the fraction is non-zero.
        let stealth_ids = take(mix.stealth_fraction);
        for chunk in stealth_ids.chunks(mix.stealth_clique.max(1)) {
            let cartel = assignment.cartels.len() as u32;
            let mut members: Vec<NodeId> = chunk.iter().map(|&i| NodeId(i)).collect();
            members.sort_unstable();
            roles.extend(members.iter().map(|&m| (m, Role::Stealth { cartel })));
            assignment.cartels.push(members);
        }
        assignment.stealth_bias = mix.stealth_bias;

        roles.sort_unstable_by_key(|&(id, _)| id);
        (assignment.roles.ids, assignment.roles.roles) = roles.into_iter().unzip();
        Ok(assignment)
    }

    /// Whether `node` runs any attack.
    pub fn is_adversary(&self, node: NodeId) -> bool {
        self.roles[node.index()] != Role::Honest
    }

    /// Whether the assignment contains no adversaries at all.
    pub fn is_none(&self) -> bool {
        self.roles.ids.is_empty()
    }

    /// All adversarial node ids, ascending.
    pub fn adversaries(&self) -> &[NodeId] {
        &self.roles.ids
    }

    /// Whether `node` transacts and reports in `round` (dormant sybil
    /// identities do neither).
    pub(crate) fn participates(&self, node: NodeId, round: u64) -> bool {
        match self.roles[node.index()] {
            Role::Sybil { ring } => self.rings[ring as usize].active(node, round),
            _ => true,
        }
    }

    /// Distort one node's honest trust row (ascending by subject) in
    /// place into what it reports into the gossip channel.
    pub(crate) fn distort_row(
        &self,
        node: NodeId,
        round: u64,
        row: &mut Vec<(NodeId, TrustValue)>,
    ) {
        match self.roles[node.index()] {
            Role::Honest | Role::Whitewasher => {}
            Role::Sybil { ring } => {
                let ring = &self.rings[ring as usize];
                if !ring.active(node, round) {
                    // A dormant identity does not exist yet: it reports nothing.
                    row.clear();
                    return;
                }
                for (_, report) in row.iter_mut() {
                    *report = TrustValue::ZERO;
                }
                let active = ring.members.iter().zip(&ring.activation);
                let mates = active.filter(|&(&mate, &at)| mate != node && at <= round);
                endorse(row, mates.map(|(&mate, _)| mate));
            }
            Role::Colluder { clique } => {
                let mates = self.cliques[clique as usize].iter().copied();
                endorse(row, mates.filter(|&mate| mate != node));
            }
            Role::Slanderer => {
                for (_, report) in row.iter_mut() {
                    *report = TrustValue::saturating(report.get() * self.slander_factor);
                }
            }
            Role::Stealth { cartel } => {
                let (mates, (lo, hi)) = (&self.cartels[cartel as usize], STEALTH_CLAMP);
                for (subject, report) in row.iter_mut() {
                    let honest = report.get();
                    let biased = if *subject != node && mates.binary_search(subject).is_ok() {
                        (honest + self.stealth_bias).min(hi)
                    } else {
                        (honest - self.stealth_bias).max(lo)
                    };
                    *report = TrustValue::saturating(biased);
                }
            }
        }
    }

    /// Every whitewasher, ascending — the identities a round's wash can
    /// purge.
    pub fn washers(&self) -> &[NodeId] {
        &self.washer_ids
    }

    /// The whitewashers discarding their identity given the round's
    /// per-subject mean reputations (ascending node order);
    /// `subject_mean` is asked about washers only.
    pub fn washes(&self, subject_mean: impl Fn(NodeId) -> Option<f64>) -> Vec<NodeId> {
        self.washer_ids
            .iter()
            .zip(&self.wash_thresholds)
            .filter(|(&w, &threshold)| subject_mean(w).is_some_and(|mean| mean < threshold))
            .map(|(&w, _)| w)
            .collect()
    }

    /// Rewrite service behaviours to match the roles: sybil identities
    /// and whitewashers are leeches, colluders keep their service
    /// quality but join a collusion group; slanderers serve honestly.
    pub(crate) fn apply_to_population(&self, population: &mut Population) {
        for (&node, &role) in self.roles.ids.iter().zip(&self.roles.roles) {
            match role {
                // Stealth members serve honestly — their lie is the bias
                // in the gossip channel, never the service itself.
                Role::Honest | Role::Slanderer | Role::Stealth { .. } => {}
                Role::Sybil { .. } | Role::Whitewasher => {
                    *population.behavior_mut(node) = Behavior::FreeRider {
                        serve_probability: 0.0,
                    };
                }
                Role::Colluder { clique } => {
                    let quality = population.behavior(node).latent_quality();
                    *population.behavior_mut(node) = Behavior::Colluder {
                        quality,
                        group: clique as usize,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tv(v: f64) -> TrustValue {
        TrustValue::new(v).unwrap()
    }

    #[test]
    fn none_assignment_is_all_honest() {
        let a = AdversaryAssignment::none(10);
        assert!(a.is_none());
        assert!(a.adversaries().is_empty());
        assert!(a.participates(NodeId(3), 0));
        let mut row = vec![(NodeId(1), tv(0.5))];
        a.distort_row(NodeId(0), 0, &mut row);
        assert_eq!(row, vec![(NodeId(1), tv(0.5))]);
    }

    #[test]
    fn assignment_respects_fractions_and_is_deterministic() {
        let mix = AdversaryMix {
            sybil_fraction: 0.2,
            collusion_fraction: 0.1,
            slander_fraction: 0.1,
            whitewash_fraction: 0.1,
            ..AdversaryMix::none()
        };
        let a = AdversaryAssignment::assign(200, mix, 7).unwrap();
        let b = AdversaryAssignment::assign(200, mix, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.adversaries().len(), 100);
        let attacking = (0..200u32).filter(|&i| a.is_adversary(NodeId(i)));
        assert!(attacking.map(NodeId).eq(a.adversaries().iter().copied()));
        let sybils = (0..200u32)
            .filter(|&i| matches!(a.roles[i as usize], Role::Sybil { .. }))
            .count();
        assert_eq!(sybils, 40);
        assert_eq!(a.rings.len(), 5); // 40 sybils in rings of 8
        let c = AdversaryAssignment::assign(200, mix, 8).unwrap();
        assert_ne!(a.adversaries(), c.adversaries());
    }

    #[test]
    fn sybil_ring_spawns_and_distorts() {
        let mix = AdversaryMix {
            sybil_fraction: 0.5,
            sybil_ring: 5,
            sybil_spawn_rate: 1.0,
            ..AdversaryMix::none()
        };
        let a = AdversaryAssignment::assign(10, mix, 3).unwrap();
        let ring = &a.rings[0];
        assert_eq!(ring.members.len(), 5);
        // With spawn rate 1 and jitter < 1, member k activates at round k.
        assert_eq!(ring.activation, vec![0, 1, 2, 3, 4]);
        let first = ring.members[0];
        let last = *ring.members.last().unwrap();
        assert!(a.participates(first, 0));
        assert!(!a.participates(last, 0));
        assert!(a.participates(last, 4));

        // Distortion: outsider ratings zeroed, active mates endorsed.
        let outsider = NodeId((0..10).find(|&i| !a.is_adversary(NodeId(i))).unwrap());
        let mut row = vec![(outsider, tv(0.9))];
        a.distort_row(first, 4, &mut row);
        let expect: Vec<(NodeId, TrustValue)> = {
            let mut m: BTreeMap<NodeId, TrustValue> = ring.members[1..]
                .iter()
                .map(|&mate| (mate, TrustValue::ONE))
                .collect();
            m.insert(outsider, TrustValue::ZERO);
            m.into_iter().collect()
        };
        assert_eq!(row, expect);

        // Dormant member reports nothing.
        let mut row = vec![(outsider, tv(0.9))];
        a.distort_row(last, 0, &mut row);
        assert!(row.is_empty());
    }

    #[test]
    fn clique_inflates_mates_and_keeps_outsiders() {
        let mix = AdversaryMix {
            collusion_fraction: 0.4,
            collusion_clique: 4,
            ..AdversaryMix::none()
        };
        let a = AdversaryAssignment::assign(10, mix, 5).unwrap();
        let clique = &a.cliques[0];
        let member = clique[0];
        let outsider = NodeId((0..10).find(|&i| !a.is_adversary(NodeId(i))).unwrap());
        let mut row = vec![(outsider, tv(0.7))];
        a.distort_row(member, 0, &mut row);
        assert!(row.contains(&(outsider, tv(0.7))), "outsider report kept");
        for &mate in &clique[1..] {
            assert!(row.contains(&(mate, TrustValue::ONE)), "mate endorsed");
        }
    }

    #[test]
    fn slanderer_deflates_reports() {
        let mix = AdversaryMix {
            slander_fraction: 0.5,
            slander_factor: 0.25,
            ..AdversaryMix::none()
        };
        let a = AdversaryAssignment::assign(4, mix, 1).unwrap();
        let s = NodeId((0..4).find(|&i| a.is_adversary(NodeId(i))).unwrap());
        let mut row = vec![(NodeId(0), tv(0.8)), (NodeId(1), tv(0.4))];
        a.distort_row(s, 2, &mut row);
        assert!((row[0].1.get() - 0.2).abs() < 1e-12);
        assert!((row[1].1.get() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn washes_fire_below_personal_threshold_only() {
        let mix = AdversaryMix {
            whitewash_fraction: 0.5,
            wash_threshold: 0.4,
            ..AdversaryMix::none()
        };
        let a = AdversaryAssignment::assign(8, mix, 9).unwrap();
        let washers = a.adversaries();
        assert_eq!(washers.len(), 4);
        // Nobody has a view yet: nobody washes.
        assert!(a.washes(|_| None).is_empty());
        // Collapsed reputation: every washer washes (thresholds are in
        // [0.32, 0.48], all above 0.01).
        let mut means = [Some(0.9); 8];
        for &w in washers {
            means[w.index()] = Some(0.01);
        }
        assert_eq!(a.washes(|w| means[w.index()]), washers);
        // High reputation: nobody washes.
        assert!(a.washes(|_| Some(0.9)).is_empty());
    }

    #[test]
    fn stealth_cartel_biases_within_clamp_bounds() {
        let mix = AdversaryMix {
            stealth_fraction: 0.5,
            stealth_clique: 4,
            stealth_bias: 0.5,
            ..AdversaryMix::none()
        };
        let a = AdversaryAssignment::assign(8, mix, 13).unwrap();
        let cartel = &a.cartels[0];
        assert_eq!(cartel.len(), 4);
        let member = cartel[0];
        let mate = cartel[1];
        let outsider = NodeId((0..8).find(|&i| !a.is_adversary(NodeId(i))).unwrap());

        let mut row = vec![(outsider, tv(0.8)), (mate, tv(0.3))];
        row.sort_by_key(|&(s, _)| s);
        a.distort_row(member, 0, &mut row);
        for &(subject, report) in &row {
            // Every report stays strictly inside the defended clamp
            // window — nothing for the clamp to reject.
            assert!((0.1..=0.9).contains(&report.get()));
            if subject == outsider {
                assert!((report.get() - 0.3).abs() < 1e-12, "outsider deflated");
            } else {
                assert!((report.get() - 0.8).abs() < 1e-12, "mate inflated");
            }
        }

        // Members serve honestly: the population behaviour is untouched.
        let mut population = Population::new(vec![Behavior::Honest { quality: 0.8 }; 8]);
        a.apply_to_population(&mut population);
        assert_eq!(
            population.behavior(member),
            Behavior::Honest { quality: 0.8 }
        );
    }

    #[test]
    fn population_overrides_follow_roles() {
        let mix = AdversaryMix {
            sybil_fraction: 0.25,
            collusion_fraction: 0.25,
            whitewash_fraction: 0.25,
            ..AdversaryMix::none()
        };
        let a = AdversaryAssignment::assign(8, mix, 11).unwrap();
        let mut population = Population::new(vec![Behavior::Honest { quality: 0.8 }; 8]);
        a.apply_to_population(&mut population);
        for i in 0..8u32 {
            let node = NodeId(i);
            match a.roles[node.index()] {
                Role::Sybil { .. } | Role::Whitewasher => assert!(matches!(
                    population.behavior(node),
                    Behavior::FreeRider { serve_probability } if serve_probability == 0.0
                )),
                Role::Colluder { clique } => assert_eq!(
                    population.behavior(node).collusion_group(),
                    Some(clique as usize)
                ),
                _ => assert_eq!(population.behavior(node), Behavior::Honest { quality: 0.8 }),
            }
        }
    }
}
