//! The multi-round reputation lifecycle and its types.
//!
//! The paper's system model is a *loop*: peers transact, estimate trust
//! from outcomes, periodically aggregate reputations by gossip, and gate
//! service on the result ("every node is facilitated from the network as
//! per its contribution ... consequently free riding is discouraged").
//! "After the end of a round, next round of gossip will start after some
//! time" — the round engine drives that loop with a constant inter-round
//! gap, as the paper assumes for simplicity.
//!
//! Each round runs the phases of the shared kernel ([`crate::kernel`]):
//! **transact** (traffic-gated, admission-controlled chunk requests
//! along overlay edges), **estimate** (per-edge EWMA updates of each
//! node's first-hand estimators) and **aggregate** (Variation-4
//! differential gossip, in closed form or by real gossip).
//!
//! This module holds the round's types: how phase 3 aggregates
//! ([`AggregationMode`], [`AggregationScope`]), the defences
//! ([`DefensePolicy`]) and each round's [`RoundStats`]. The loop itself
//! is [`RoundEngine`](crate::engine::RoundEngine), one value over one
//! shared [`EngineCore`](crate::kernel::EngineCore) whose round strategy
//! — the sequential oracle, the rebuild round or the delta round — its
//! config selects once, when it is built. Every node consumes a private
//! ChaCha8 stream derived from the round seed, so **every strategy
//! produces bit-for-bit identical results at any thread count, any shard
//! count, and any traffic shape** (pinned by
//! `tests/engine_equivalence.rs`). [`RunSession`](crate::session::RunSession)
//! is the driver that adds the resumable seed schedule and checkpoints.

use dg_trust::RobustAggregation;
use serde::{Deserialize, Serialize};

/// How reputations are refreshed each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Run the real Variation-4 vector gossip (slower, fully faithful).
    Gossip,
    /// Evaluate the converged limit in closed form (fast; the test suite
    /// separately verifies gossip reaches this limit).
    ClosedForm,
}

/// Which (observer, subject) pairs the closed-form aggregation
/// materialises each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AggregationScope {
    /// Every subject anyone holds an opinion about, at every observer —
    /// the paper's full gossip limit. `O(N · S)` state: fine up to a few
    /// thousand nodes.
    #[default]
    Full,
    /// Only each observer's overlay neighbours. Admission control reads
    /// exactly these pairs (requests arrive along edges), so service
    /// gating is unchanged while state shrinks to `O(edges)` — the
    /// production setting for large networks.
    Neighbourhood,
}

/// How a provider treats a requester it aggregates no opinion about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NewcomerPolicy {
    /// Serve strangers — the open-network default, and the honeymoon a
    /// whitewasher farms by discarding exposed identities.
    #[default]
    Optimistic,
    /// The paper's anti-whitewash rule: an unknown requester is worth
    /// its zero prior, so it is refused until it earns reputation by
    /// serving (providers with no aggregated view at all still serve
    /// everyone — there is nothing to gate on yet).
    ZeroPrior,
}

/// Trust-side countermeasure knobs the attack experiments sweep.
///
/// Applies to [`AggregationMode::ClosedForm`]; real distributed gossip
/// ([`AggregationMode::Gossip`]) cannot trim per-subject report sets (no
/// node ever holds them), which is exactly why the claims harness
/// measures the closed-form aggregation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DefensePolicy {
    /// Report clamping / per-subject trimmed aggregation.
    #[serde(default)]
    pub robust: RobustAggregation,
    /// Stranger admission rule.
    #[serde(default)]
    pub newcomer: NewcomerPolicy,
}

impl DefensePolicy {
    /// The paper's plain behaviour: no clamping, no trimming, optimistic
    /// stranger admission.
    pub const fn none() -> Self {
        Self {
            robust: RobustAggregation::none(),
            newcomer: NewcomerPolicy::Optimistic,
        }
    }

    /// The defended setting the claims harness gates on: clamped and
    /// trimmed aggregation plus the zero-prior stranger rule.
    pub const fn defended() -> Self {
        Self {
            robust: RobustAggregation::defended(),
            newcomer: NewcomerPolicy::ZeroPrior,
        }
    }

    /// Whether this policy changes anything over the paper's behaviour.
    pub fn is_none(&self) -> bool {
        self.robust.is_none() && self.newcomer == NewcomerPolicy::Optimistic
    }
}

/// Per-round service statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Requests served, by requester behaviour class.
    pub served_honest: u64,
    /// Requests refused, honest requesters.
    pub refused_honest: u64,
    /// Requests served, free-riding requesters.
    pub served_free_riders: u64,
    /// Requests refused, free-riding requesters.
    pub refused_free_riders: u64,
    /// Requests served, adversarial requesters (any attack role; absent
    /// — zero — in reports written before the adversary layer existed).
    #[serde(default)]
    pub served_adversaries: u64,
    /// Requests refused, adversarial requesters.
    #[serde(default)]
    pub refused_adversaries: u64,
    /// Mean aggregated reputation of honest nodes (as seen network-wide).
    pub mean_rep_honest: f64,
    /// Mean aggregated reputation of free riders.
    pub mean_rep_free_riders: f64,
    /// Mean aggregated reputation of adversarial nodes.
    #[serde(default)]
    pub mean_rep_adversaries: f64,
    /// Whitewash identity resets performed at the end of this round.
    #[serde(default)]
    pub washes: u64,
    /// Requesters that cleared both the participation and the traffic
    /// activity gates this round (absent — zero — in reports written
    /// before the traffic model existed).
    #[serde(default)]
    pub active_nodes: u64,
    /// Fraction of nodes whose trust row gained fresh transaction
    /// records this round — the share of the network the incremental
    /// engine must recompute.
    #[serde(default)]
    pub dirty_fraction: f64,
    /// Audits performed this round (absent — zero — in reports written
    /// before the audit subsystem existed, like every field below).
    #[serde(default)]
    pub audits: u64,
    /// Strikes issued by this round's audits.
    #[serde(default)]
    pub audit_strikes: u64,
    /// Nodes convicted (k strikes reached) and purged this round.
    #[serde(default)]
    pub convictions: u64,
    /// Audit bandwidth in report-entry units: one envelope per audit
    /// plus one unit per re-verified log entry.
    #[serde(default)]
    pub audit_entries: u64,
    /// Report traffic this round (trust-matrix entries after the report
    /// phase) — the denominator of the audit-overhead claim.
    #[serde(default)]
    pub report_entries: u64,
    /// Externally-ingested reports interleaved into this round: the
    /// records queued (`RunSession::queue_reports`, which the serve
    /// layer drives) when the round opened, a convicted requester's
    /// included although its emit drops them. Absent — zero — in
    /// reports written before the serve layer existed, like the shed
    /// counter below.
    #[serde(default)]
    pub ingested_reports: u64,
    /// Ingest submissions shed with a typed `Busy` reply since the
    /// previous round (bounded-channel backpressure — shed load is
    /// counted here, never dropped silently).
    #[serde(default)]
    pub ingest_shed: u64,
}

impl RoundStats {
    /// Service rate for honest requesters.
    pub fn honest_service_rate(&self) -> f64 {
        rate(self.served_honest, self.refused_honest)
    }

    /// Service rate for free-riding requesters.
    pub fn free_rider_service_rate(&self) -> f64 {
        rate(self.served_free_riders, self.refused_free_riders)
    }

    /// Service rate for adversarial requesters.
    pub fn adversary_service_rate(&self) -> f64 {
        rate(self.served_adversaries, self.refused_adversaries)
    }

    /// Audit bandwidth as a fraction of the round's report traffic
    /// (zero when no reports flowed).
    pub fn audit_overhead(&self) -> f64 {
        if self.report_entries == 0 {
            return 0.0;
        }
        self.audit_entries as f64 / self.report_entries as f64
    }
}

fn rate(served: u64, refused: u64) -> f64 {
    let total = served + refused;
    if total == 0 {
        return 0.0;
    }
    served as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::engine::RoundEngine;
    use crate::scenario::Scenario;
    use crate::workload::TrafficModel;
    use dg_graph::NodeId;
    use rand::RngCore;
    use std::sync::Arc;

    /// Build the scenario and engine for `config` and run all its
    /// rounds on seeds drawn from gossip stream `stream`.
    fn run(config: RunConfig, stream: u64) -> Vec<RoundStats> {
        let scenario = Arc::new(Scenario::build(config).unwrap());
        let mut rng = scenario.gossip_rng(stream);
        let mut engine = RoundEngine::new(scenario);
        (0..config.rounds)
            .map(|_| engine.run_round(rng.next_u64()).unwrap())
            .collect()
    }

    /// Honest contributors are decent (≥ 0.4); the gap to free riders is
    /// what admission control must detect.
    fn free_rider_config() -> RunConfig {
        RunConfig {
            nodes: 120,
            free_rider_fraction: 0.25,
            seed: 7,
            quality_range: (0.4, 1.0),
            rounds: 6,
            ..RunConfig::default()
        }
    }

    fn assert_free_riders_starved(last: &RoundStats) {
        assert!(
            last.free_rider_service_rate() < 0.2,
            "free riders still served at {}",
            last.free_rider_service_rate()
        );
        assert!(
            last.honest_service_rate() > 0.8,
            "honest service degraded to {}",
            last.honest_service_rate()
        );
    }

    #[test]
    fn free_riders_get_starved() {
        let stats = run(free_rider_config(), 2);

        // Round 0: nobody has reputations yet; everyone served.
        assert_eq!(stats[0].refused_honest + stats[0].refused_free_riders, 0);
        // By the last round free riders are mostly refused while honest
        // nodes keep near-full service.
        let last = stats.last().unwrap();
        assert_free_riders_starved(last);
        // Reputation separation.
        assert!(last.mean_rep_honest > last.mean_rep_free_riders + 0.2);
        // The full traffic model keeps every node active, and every
        // served requester's row dirty.
        assert_eq!(last.active_nodes, 120);
        assert!(last.dirty_fraction > 0.5);
    }

    #[test]
    fn gossip_mode_agrees_with_closed_form_direction() {
        let stats = run(
            RunConfig {
                nodes: 60,
                free_rider_fraction: 0.2,
                seed: 11,
                rounds: 4,
                aggregation: AggregationMode::Gossip,
                xi: 1e-6,
                ..RunConfig::default()
            },
            3,
        );
        let last = stats.last().unwrap();
        assert!(last.mean_rep_honest > last.mean_rep_free_riders);
    }

    #[test]
    fn aggregated_lookup_works() {
        let config = RunConfig::with_nodes(30).with_seed(5);
        let scenario = Arc::new(Scenario::build(config).unwrap());
        let mut engine = RoundEngine::new(Arc::clone(&scenario));
        assert_eq!(engine.core().aggregated(NodeId(0), NodeId(1)), None);
        engine.run_round(scenario.gossip_rng(4).next_u64()).unwrap();
        // Node 1 is a neighbour of someone, so it has been rated and
        // aggregated.
        assert!(engine.core().aggregated(NodeId(0), NodeId(1)).is_some());
    }

    #[test]
    fn neighbourhood_scope_still_starves_free_riders() {
        let stats = run(
            free_rider_config().with_scope(AggregationScope::Neighbourhood),
            2,
        );
        assert_free_riders_starved(stats.last().unwrap());
    }

    #[test]
    fn thinned_traffic_reduces_activity_and_dirt() {
        let stats = run(
            RunConfig::with_nodes(150)
                .with_seed(19)
                .with_rounds(3)
                .with_traffic(TrafficModel::full().with_activity(0.1)),
            2,
        );
        for s in &stats {
            assert!(
                s.active_nodes < 50,
                "round {} has {} active nodes under 10% activity",
                s.round,
                s.active_nodes
            );
            assert!(s.dirty_fraction < 0.35, "dirty {}", s.dirty_fraction);
            // Only active requesters can dirty their rows.
            let dirty_rows = (s.dirty_fraction * 150.0).round() as u64;
            assert!(dirty_rows <= s.active_nodes);
        }
        // Some traffic still flows.
        assert!(stats.iter().any(|s| s.active_nodes > 0));
    }
}
