//! The run configuration — the one description of a run every `dg-sim`
//! layer reads.

use crate::rounds::{AggregationMode, AggregationScope, DefensePolicy};
use crate::scenario::{Topology, TrustSource};
use crate::workload::TrafficModel;
use dg_gossip::profile::NetworkProfile;
use dg_gossip::{AdversaryMix, EngineKind, FanoutPolicy, GossipConfig};
use dg_trust::audit::AuditPolicy;
use serde::{Deserialize, Serialize};

/// The run configuration — every knob of a simulation in one flat,
/// serializable, builder-style struct.
///
/// [`Scenario::build`](crate::scenario::Scenario::build) reads the
/// substrate knobs, the round engines read the execution and round-loop
/// knobs, and [`Self::gossip_config`] hands the gossip knobs across the
/// one real layer boundary (`dg-gossip` cannot see this crate). The full
/// struct is serialized into every snapshot header, which is how
/// [`RunSession::resume`](crate::session::RunSession::resume) rebuilds
/// an identical run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    // --- substrate (scenario) knobs ---
    /// Nodes in the overlay.
    pub nodes: usize,
    /// PA attachment parameter `m`.
    pub m: usize,
    /// RNG seed (drives topology, population, workload, round seeds).
    pub seed: u64,
    /// Weight-law parameter `a`.
    pub weight_a: f64,
    /// Weight-law parameter `b`.
    pub weight_b: f64,
    /// Fraction of free riders in the population.
    pub free_rider_fraction: f64,
    /// Honest quality range `[lo, hi]`.
    pub quality_range: (f64, f64),
    /// How [`Scenario::trust`](crate::scenario::Scenario::trust) builds
    /// the static trust matrix. Shapes only that matrix, which the
    /// paper's analytic experiments read, never a session's rounds.
    pub trust_source: TrustSource,
    /// Overlay topology family.
    pub topology: Topology,
    /// Additional random *far* interaction partners per node: file-sharing
    /// downloads reach beyond overlay neighbours, so each node also rates
    /// this many uniformly chosen non-neighbours. Densifies the trust
    /// matrix the way the paper's Section 5.2 analysis assumes. Like
    /// [`Self::trust_source`], shapes only that static matrix.
    pub far_partners: usize,
    // --- execution knobs ---
    /// Execution engine for the round loop (see [`EngineKind`]): the
    /// production `Incremental` engine by default; tests name the
    /// `Sequential` oracle to compare against it. Does **not** affect
    /// the generated topology, population or trust values, nor any
    /// result.
    pub engine: EngineKind,
    /// Shard count for [`EngineKind::Incremental`] (ignored by the
    /// sequential driver), capped at the node count. `0` — the
    /// default — selects the deterministic auto partition, one shard
    /// per [`ShardSpec::AUTO_CHUNK`](dg_trust::ShardSpec::AUTO_CHUNK)
    /// nodes. Results are bit-identical for **every** value; this is
    /// purely a memory/parallelism knob.
    pub shard_count: usize,
    /// Network fault profile (see [`NetworkProfile`]). Does **not**
    /// affect the generated topology, population or trust values — it
    /// parameterises the gossip layer: [`Self::gossip_config`] maps it
    /// onto the synchronous engines' loss / churn models.
    pub profile: NetworkProfile,
    /// Adversarial population mix (see [`AdversaryMix`]). Compiled into
    /// per-node attack strategies at scenario build time
    /// ([`Scenario::adversaries`](crate::scenario::Scenario::adversaries));
    /// leech roles (sybil identities, whitewashers) also override the
    /// service behaviour, so the trust substrate reflects the attack.
    /// The honest substrate streams are untouched: a zero-fraction mix
    /// builds a bit-identical scenario.
    pub adversary: AdversaryMix,
    /// Traffic shape: which requesters are active each round (see
    /// [`TrafficModel`]). Results are bit-identical across engines for
    /// **every** traffic shape; the incremental engine merely converts
    /// the idleness into speed (a full model takes its rebuild round,
    /// any other its delta round).
    pub traffic: TrafficModel,
    /// Trust-side countermeasures against adversarial reports.
    pub defense: DefensePolicy,
    /// The stochastic-audit countermeasure against within-bounds
    /// stealth cartels (see [`dg_trust::audit`]; off by default; rides
    /// in under `serde(default)` so pre-audit snapshot headers resume).
    #[serde(default)]
    pub audit: AuditPolicy,
    // --- round-loop knobs ---
    /// Rounds a full [`RunSession::run`](crate::session::RunSession::run)
    /// simulates.
    pub rounds: usize,
    /// Requests per directed neighbour pair per round.
    pub requests_per_edge: u32,
    /// Admission threshold as a *fraction of the provider's own mean
    /// aggregated reputation*: a requester is served when its reputation
    /// clears `admission_threshold × mean`. Relative thresholds are
    /// necessary because Eq. (6) deflates estimates observer-dependently
    /// (an observer whose weighted neighbourhood holds no information
    /// about a subject treats the silence like 0-reports, the
    /// anti-whitewash default) — an absolute cut-off would let
    /// high-excess observers refuse honest strangers wholesale.
    pub admission_threshold: f64,
    /// EWMA learning rate for trust estimation.
    pub ewma_rate: f64,
    /// How to refresh reputations.
    pub aggregation: AggregationMode,
    /// Closed-form materialisation scope.
    pub scope: AggregationScope,
    // --- gossip knobs ---
    /// Convergence tolerance `ξ`.
    pub xi: f64,
    /// Fan-out policy (differential vs. uniform push).
    pub fanout: FanoutPolicy,
    /// Hard gossip step cap.
    pub max_steps: usize,
    /// Whether convergence announcements are sticky.
    pub sticky_announcements: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            nodes: 1000,
            m: 2,
            seed: 42,
            weight_a: 2.0,
            weight_b: 2.0,
            free_rider_fraction: 0.0,
            quality_range: (0.2, 1.0),
            trust_source: TrustSource::Exact,
            topology: Topology::Pa,
            far_partners: 0,
            engine: EngineKind::Incremental,
            shard_count: 0,
            profile: NetworkProfile::lossless(),
            adversary: AdversaryMix::none(),
            traffic: TrafficModel::full(),
            defense: DefensePolicy::none(),
            audit: AuditPolicy::off(),
            rounds: 10,
            requests_per_edge: 5,
            admission_threshold: 0.35,
            ewma_rate: 0.3,
            aggregation: AggregationMode::ClosedForm,
            scope: AggregationScope::Full,
            xi: 1e-4,
            fanout: FanoutPolicy::Differential,
            max_steps: 100_000,
            sticky_announcements: false,
        }
    }
}

impl RunConfig {
    /// Default config at a given size.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            nodes,
            ..Self::default()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style engine override.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder-style shard-count override (0 = auto).
    pub fn with_shards(mut self, shard_count: usize) -> Self {
        self.shard_count = shard_count;
        self
    }

    /// Builder-style network-profile override.
    pub fn with_profile(mut self, profile: NetworkProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Builder-style adversary-mix override.
    pub fn with_adversary(mut self, adversary: AdversaryMix) -> Self {
        self.adversary = adversary;
        self
    }

    /// Builder-style traffic-shape override.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Builder-style defense-policy override.
    pub fn with_defense(mut self, defense: DefensePolicy) -> Self {
        self.defense = defense;
        self
    }

    /// Builder-style audit-policy override.
    pub fn with_audit(mut self, audit: AuditPolicy) -> Self {
        self.audit = audit;
        self
    }

    /// Builder-style round-count override.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Builder-style requests-per-edge override.
    pub fn with_requests_per_edge(mut self, requests_per_edge: u32) -> Self {
        self.requests_per_edge = requests_per_edge;
        self
    }

    /// Builder-style free-rider population override.
    pub fn with_free_riders(mut self, fraction: f64) -> Self {
        self.free_rider_fraction = fraction;
        self
    }

    /// Builder-style honest-quality-range override.
    pub fn with_quality_range(mut self, lo: f64, hi: f64) -> Self {
        self.quality_range = (lo, hi);
        self
    }

    /// Builder-style aggregation-scope override.
    pub fn with_scope(mut self, scope: AggregationScope) -> Self {
        self.scope = scope;
        self
    }

    /// Builder-style aggregation-mode override.
    pub fn with_aggregation(mut self, aggregation: AggregationMode) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Whether phase 3 is Eq. (6) in closed form over each observer's
    /// neighbours only, so a report reaches only its subject's neighbours.
    pub(crate) fn is_closed_form_neighbourhood(&self) -> bool {
        self.aggregation == AggregationMode::ClosedForm
            && self.scope == AggregationScope::Neighbourhood
    }

    // Kept only because the frozen benchmark package calls
    // `Scenario::build(config.scenario_config())`; goes with that call.
    #[doc(hidden)]
    pub fn scenario_config(&self) -> RunConfig {
        *self
    }

    /// The gossip-layer view of this config: the gossip knobs, plus the
    /// profile mapped onto the synchronous loss / churn models (at most
    /// a quarter of the network may depart so long runs stay
    /// populated). Not yet validated.
    pub fn gossip_config(&self) -> GossipConfig {
        GossipConfig {
            xi: self.xi,
            fanout: self.fanout,
            max_steps: self.max_steps,
            sticky_announcements: self.sticky_announcements,
            ..GossipConfig::default()
        }
        .with_profile(&self.profile, self.nodes / 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The literal defaults are the contract: a snapshot header written
    /// with `..RunConfig::default()` must mean the same run forever.
    #[test]
    fn defaults_are_pinned() {
        let c = RunConfig::default();
        assert_eq!((c.nodes, c.m, c.seed), (1000, 2, 42));
        assert_eq!((c.weight_a, c.weight_b), (2.0, 2.0));
        assert_eq!(c.free_rider_fraction, 0.0);
        assert_eq!(c.quality_range, (0.2, 1.0));
        assert_eq!(c.trust_source, TrustSource::Exact);
        assert_eq!(c.topology, Topology::Pa);
        assert_eq!(c.far_partners, 0);
        assert_eq!(c.engine, EngineKind::Incremental);
        assert_eq!(c.shard_count, 0);
        assert_eq!(c.profile, NetworkProfile::lossless());
        assert_eq!(c.adversary, AdversaryMix::none());
        assert_eq!(c.traffic, TrafficModel::full());
        assert!(c.defense.is_none());
        assert!(!c.audit.enabled());
        assert_eq!((c.rounds, c.requests_per_edge), (10, 5));
        assert_eq!((c.admission_threshold, c.ewma_rate), (0.35, 0.3));
        assert_eq!(c.aggregation, AggregationMode::ClosedForm);
        assert_eq!(c.scope, AggregationScope::Full);
        assert_eq!(c.xi, 1e-4);
        assert_eq!(c.fanout, FanoutPolicy::Differential);
        assert_eq!(c.max_steps, 100_000);
        assert!(!c.sticky_announcements);
        // The gossip view of the defaults is dg-gossip's own default.
        assert_eq!(c.gossip_config(), GossipConfig::default());
    }

    #[test]
    fn gossip_config_maps_the_profile_and_caps_departures() {
        let c = RunConfig::with_nodes(400).with_profile(NetworkProfile::churning());
        let g = c.gossip_config();
        assert_eq!(g.churn.max_departures, 100);
        assert!(g.churn.departure_probability() > 0.0);
        let lossy = RunConfig::with_nodes(400)
            .with_profile(NetworkProfile::lossy())
            .gossip_config();
        assert!(lossy.loss.probability() > 0.0);
    }
}
