//! Node behaviour profiles and latent ground truth.
//!
//! The paper's system model: rational peers in a heavily loaded
//! file-sharing network either contribute (upload when asked) or free
//! ride; colluders additionally lie *in the gossip channel* to inflate
//! each other's reputation. Each node gets a latent service quality
//! `q ∈ [0, 1]` — the "real" trustworthiness that transaction outcomes
//! are drawn from and that reputation estimates should track.

use dg_graph::NodeId;
use dg_trust::prelude::TransactionOutcome;
use rand::Rng;

/// Behaviour profile of a peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Serves requests with the given latent quality.
    Honest {
        /// Mean quality of service delivered, in `[0, 1]`.
        quality: f64,
    },
    /// Rarely serves: draws resources without contributing.
    FreeRider {
        /// Probability of serving at all (0 = pure leech).
        serve_probability: f64,
    },
    /// Serves like an honest node of the given quality but participates
    /// in a collusion group (lying in the gossip channel).
    Colluder {
        /// Latent service quality towards real transactions.
        quality: f64,
        /// Collusion group index.
        group: usize,
    },
}

impl Behavior {
    /// Latent service quality: the expected transaction quality a peer
    /// delivers (free riders deliver quality only when they serve).
    pub fn latent_quality(&self) -> f64 {
        match *self {
            Behavior::Honest { quality } => quality,
            Behavior::FreeRider { serve_probability } => serve_probability * 0.5,
            Behavior::Colluder { quality, .. } => quality,
        }
    }

    /// Collusion group, if any.
    pub fn collusion_group(&self) -> Option<usize> {
        match *self {
            Behavior::Colluder { group, .. } => Some(group),
            _ => None,
        }
    }

    /// Whether the peer colludes.
    pub fn is_colluder(&self) -> bool {
        matches!(self, Behavior::Colluder { .. })
    }

    /// Sample one transaction outcome quality delivered by this peer.
    pub(crate) fn sample_quality<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Behavior::Honest { quality } | Behavior::Colluder { quality, .. } => {
                // Mild multiplicative noise around the latent quality.
                let noise = 0.9 + 0.2 * rng.random::<f64>();
                (quality * noise).clamp(0.0, 1.0)
            }
            Behavior::FreeRider { serve_probability } => {
                if rng.random::<f64>() < serve_probability {
                    0.5 * rng.random::<f64>() + 0.25
                } else {
                    0.0
                }
            }
        }
    }

    /// Sample one transaction as the requester observes it — the one
    /// place a sampled quality becomes a [`TransactionOutcome`]: a
    /// quality of exactly 0 is a refusal, anything else was served.
    pub fn sample_outcome<R: Rng + ?Sized>(&self, rng: &mut R) -> TransactionOutcome {
        let quality = self.sample_quality(rng);
        if quality == 0.0 {
            TransactionOutcome::Refused
        } else {
            TransactionOutcome::Served { quality }
        }
    }
}

/// A population of peers with assigned behaviours.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    behaviors: Vec<Behavior>,
}

impl Population {
    /// Build from explicit behaviours.
    pub fn new(behaviors: Vec<Behavior>) -> Self {
        Self { behaviors }
    }

    /// All-honest population with qualities drawn uniformly from
    /// `[lo, hi]` (clamped to `[0, 1]`).
    pub fn honest_uniform<R: Rng + ?Sized>(n: usize, lo: f64, hi: f64, rng: &mut R) -> Self {
        let (lo, hi) = (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0));
        let behaviors = (0..n)
            .map(|_| Behavior::Honest {
                quality: lo + (hi - lo) * rng.random::<f64>(),
            })
            .collect();
        Self { behaviors }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.behaviors.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.behaviors.is_empty()
    }

    /// Behaviour of one peer.
    pub fn behavior(&self, node: NodeId) -> Behavior {
        self.behaviors[node.index()]
    }

    /// Mutable access (used by the collusion scheme to convert honest
    /// nodes into colluders).
    pub fn behavior_mut(&mut self, node: NodeId) -> &mut Behavior {
        &mut self.behaviors[node.index()]
    }

    /// Latent quality vector.
    pub fn latent_qualities(&self) -> Vec<f64> {
        self.behaviors
            .iter()
            .map(Behavior::latent_quality)
            .collect()
    }

    /// Iterate over `(node, behaviour)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Behavior)> + '_ {
        self.behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| (NodeId(i as u32), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn honest_quality_sampling_tracks_latent() {
        let b = Behavior::Honest { quality: 0.8 };
        let mut r = rng(1);
        let mean: f64 = (0..10_000).map(|_| b.sample_quality(&mut r)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.8).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn pure_free_rider_never_serves() {
        let b = Behavior::FreeRider {
            serve_probability: 0.0,
        };
        let mut r = rng(2);
        assert!((0..100).all(|_| b.sample_quality(&mut r) == 0.0));
        assert_eq!(b.latent_quality(), 0.0);
    }

    #[test]
    fn colluder_group_bookkeeping() {
        let pop = Population::new(vec![
            Behavior::Honest { quality: 0.9 },
            Behavior::Colluder {
                quality: 0.3,
                group: 0,
            },
            Behavior::Colluder {
                quality: 0.2,
                group: 0,
            },
            Behavior::FreeRider {
                serve_probability: 0.1,
            },
        ]);
        let colluders: Vec<bool> = (0..4)
            .map(|i| pop.behavior(NodeId(i)).is_colluder())
            .collect();
        assert_eq!(colluders, [false, true, true, false]);
        assert_eq!(pop.behavior(NodeId(1)).collusion_group(), Some(0));
        assert_eq!(pop.behavior(NodeId(0)).collusion_group(), None);
        assert!(!pop.is_empty());
        assert_eq!(pop.len(), 4);
    }

    #[test]
    fn honest_uniform_respects_bounds() {
        let pop = Population::honest_uniform(200, 0.3, 0.9, &mut rng(3));
        for q in pop.latent_qualities() {
            assert!((0.3..=0.9).contains(&q), "q = {q}");
        }
    }

    #[test]
    fn sampled_qualities_stay_in_range() {
        let mut r = rng(4);
        for b in [
            Behavior::Honest { quality: 1.0 },
            Behavior::Colluder {
                quality: 0.99,
                group: 1,
            },
            Behavior::FreeRider {
                serve_probability: 0.7,
            },
        ] {
            for _ in 0..1000 {
                let q = b.sample_quality(&mut r);
                assert!((0.0..=1.0).contains(&q));
            }
        }
    }
}
