//! Engine configuration.

use crate::error::GossipError;
use crate::fanout::FanoutPolicy;
use crate::loss::{ChurnModel, LossModel};
use serde::{Deserialize, Serialize};

/// Execution engine for round-driving layers (the simulator's lifecycle
/// loop and, on multi-core hosts, batched gossip sweeps).
///
/// The gossip *protocol* semantics are identical under every engine —
/// per-node RNG streams derived with [`node_stream_seed`] make results
/// bit-for-bit equal regardless of thread count and shard count.
/// `Sequential` is the reference map-based driver every suite compares
/// against; `Incremental` is the production engine, whose traffic model
/// picks its round: a rebuild into per-shard row slabs under full
/// traffic, a delta round that re-derives only the rows and aggregates
/// the round touched under any gated traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineKind {
    /// Reference single-stream driver over map-based state.
    #[default]
    Sequential,
    /// The production engine: sharded trust state (shard count: the
    /// simulator's `RunConfig::shard_count`), rebuilt every round under
    /// full traffic and maintained by dirty-row deltas and cached
    /// per-subject aggregates otherwise, so a skewed round costs
    /// `O(dirty)` instead of `O(N)`. Configs and snapshot headers
    /// naming the removed `Sharded` and `Parallel` engines deserialize
    /// here.
    #[serde(alias = "Sharded", alias = "Parallel")]
    Incremental,
}

impl EngineKind {
    /// Every engine, in the canonical reporting order. Bench suites and
    /// trend trackers iterate this so a new engine shows up everywhere
    /// by construction.
    pub const ALL: [EngineKind; 2] = [EngineKind::Sequential, EngineKind::Incremental];

    /// Compatibility name of the removed sharded engine: callers that
    /// still select `Sharded` get the production engine.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Sharded: EngineKind = EngineKind::Incremental;

    /// Compatibility name of the removed batched engine.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Parallel: EngineKind = EngineKind::Incremental;

    /// Stable label for CLI flags and JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Sequential => "sequential",
            EngineKind::Incremental => "incremental",
        }
    }

    /// Parse a CLI label (`sharded` / `shard` / `parallel` / `par` are
    /// kept as spellings of the production engine).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sequential" | "seq" => Some(EngineKind::Sequential),
            "incremental" | "inc" | "sharded" | "shard" | "parallel" | "par" => {
                Some(EngineKind::Incremental)
            }
            _ => None,
        }
    }
}

/// Derive the RNG stream seed of one node from a base (round or run)
/// seed — a SplitMix64 mix, so neighbouring node ids land on
/// uncorrelated streams.
///
/// Every fan-out site (the round engine's transact phase, the
/// distributed peer runner) derives per-node `ChaCha8Rng` streams with
/// this function; results are then independent of execution order and
/// thread count by construction.
pub fn node_stream_seed(base: u64, node: u32) -> u64 {
    let mut z = base ^ (u64::from(node).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of a gossip run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Convergence tolerance `ξ` of the paper's algorithms.
    pub xi: f64,
    /// Fan-out policy (differential vs. uniform push).
    pub fanout: FanoutPolicy,
    /// Packet loss model (Fig. 4).
    pub loss: LossModel,
    /// Churn model (node departures with pair hand-over).
    pub churn: ChurnModel,
    /// Hard step cap: runs that have not converged by then report
    /// `converged = false` instead of spinning forever.
    pub max_steps: usize,
    /// Whether convergence announcements are *sticky* (the paper's
    /// literal protocol: once announced, never revoked) in both engines.
    /// Safe — and faster to quiesce — when every node starts with
    /// positive gossip weight (averaging mode); the default `false`
    /// revokes, for the reason the [`protocol`](crate::protocol) docs give.
    pub sticky_announcements: bool,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            xi: 1e-4,
            fanout: FanoutPolicy::Differential,
            loss: LossModel::none(),
            churn: ChurnModel::none(),
            max_steps: 100_000,
            sticky_announcements: false,
        }
    }
}

impl GossipConfig {
    /// Differential gossip with tolerance `xi` and otherwise default
    /// settings.
    pub fn differential(xi: f64) -> Result<Self, GossipError> {
        Self {
            xi,
            ..Self::default()
        }
        .validated()
    }

    /// Normal (uniform, 1-push) push gossip with tolerance `xi` — the
    /// GossipTrust-style baseline.
    pub fn normal_push(xi: f64) -> Result<Self, GossipError> {
        Self {
            xi,
            fanout: FanoutPolicy::Uniform(1),
            ..Self::default()
        }
        .validated()
    }

    /// Builder-style: set the loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style: set the churn model.
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Builder-style: apply a [`NetworkProfile`](crate::profile::NetworkProfile)'s synchronous-engine
    /// view — its loss as the paper's detect-and-recredit [`LossModel`]
    /// and its churn as permanent departures capped at `max_departures`.
    /// Delay, duplication and partitions are transport-level faults with
    /// no synchronous analogue; they take effect only in `dg-p2p`'s
    /// faulty transport.
    pub fn with_profile(
        mut self,
        profile: &crate::profile::NetworkProfile,
        max_departures: usize,
    ) -> Self {
        self.loss = profile.sync_loss_model();
        self.churn = if profile.churn.is_enabled() {
            profile.sync_churn_model(max_departures)
        } else {
            ChurnModel::none()
        };
        self
    }

    /// Builder-style: set the fanout policy (how many neighbours a node
    /// pushes shares to per step).
    pub fn with_fanout(mut self, fanout: FanoutPolicy) -> Self {
        self.fanout = fanout;
        self
    }

    /// Builder-style: set the step cap.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Builder-style: use the paper's literal sticky announcements.
    pub fn with_sticky_announcements(mut self) -> Self {
        self.sticky_announcements = true;
        self
    }

    /// Validate the tolerance.
    pub fn validated(self) -> Result<Self, GossipError> {
        if !self.xi.is_finite() || self.xi <= 0.0 {
            return Err(GossipError::InvalidTolerance(self.xi));
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(GossipConfig::default().validated().is_ok());
    }

    #[test]
    fn tolerance_validation() {
        assert!(GossipConfig::differential(0.0).is_err());
        assert!(GossipConfig::differential(-1.0).is_err());
        assert!(GossipConfig::differential(f64::NAN).is_err());
        assert!(GossipConfig::differential(1e-5).is_ok());
    }

    #[test]
    fn normal_push_uses_uniform_one() {
        let c = GossipConfig::normal_push(1e-3).unwrap();
        assert_eq!(c.fanout, FanoutPolicy::Uniform(1));
    }

    #[test]
    fn engine_kind_labels_roundtrip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
        }
        for old in ["sharded", "shard", "parallel", "par", "inc"] {
            assert_eq!(
                EngineKind::parse(old),
                Some(EngineKind::Incremental),
                "{old}"
            );
        }
        assert_eq!(EngineKind::Sharded, EngineKind::Incremental);
        assert_eq!(EngineKind::Parallel, EngineKind::Incremental);
        assert_eq!(EngineKind::parse("nope"), None);
        assert_eq!(EngineKind::default(), EngineKind::Sequential);
    }

    #[test]
    fn node_stream_seeds_are_distinct_and_stable() {
        let a = node_stream_seed(42, 0);
        let b = node_stream_seed(42, 1);
        let c = node_stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, node_stream_seed(42, 0));
    }

    #[test]
    fn with_profile_maps_loss_and_churn() {
        let c = GossipConfig::default().with_profile(&crate::profile::NetworkProfile::lossy(), 10);
        assert!((c.loss.probability() - 0.1).abs() < 1e-12);
        assert_eq!(c.churn, ChurnModel::none());

        let c =
            GossipConfig::default().with_profile(&crate::profile::NetworkProfile::churning(), 25);
        assert!((c.churn.departure_probability() - 0.02).abs() < 1e-12);
        assert_eq!(c.churn.max_departures, 25);
    }

    #[test]
    fn builder_methods_compose() {
        let c = GossipConfig::differential(1e-3)
            .unwrap()
            .with_loss(LossModel::new(0.1).unwrap())
            .with_max_steps(42);
        assert_eq!(c.max_steps, 42);
        assert!((c.loss.probability() - 0.1).abs() < 1e-12);
    }
}
