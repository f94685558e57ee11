//! Push fan-out policies.
//!
//! Normal push gossip makes exactly one push per node per step; the
//! paper's differential push makes `k_i = round(deg(i) / avg-neighbour-
//! degree)` pushes (minimum 1), so hubs in a power-law graph shed their
//! information fast enough for the `O((log₂N)²)` bound of Theorem 5.1 to
//! hold without anyone having to *identify* the hubs.
//!
//! [`TargetDraw`] picks which neighbours a step's pushes go to, for every
//! push engine and the `dg-p2p` peer.

use crate::error::GossipError;
use dg_graph::Graph;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How many pushes each node makes per gossip step.
///
/// ```
/// use dg_gossip::FanoutPolicy;
/// use dg_graph::generators;
///
/// // On a 5-node star the hub (degree 4, neighbours of degree 1) gets a
/// // differential fan-out of 4; each leaf pushes once.
/// let star = generators::star(5).expect("n >= 2");
/// let k = FanoutPolicy::Differential.resolve(&star)?;
/// assert_eq!(k, vec![4, 1, 1, 1, 1]);
///
/// // Uniform policies clamp to the node degree (a leaf cannot push to
/// // three distinct neighbours).
/// let k = FanoutPolicy::Uniform(3).resolve(&star)?;
/// assert_eq!(k, vec![3, 1, 1, 1, 1]);
/// # Ok::<(), dg_gossip::GossipError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FanoutPolicy {
    /// Every node makes the same number of pushes (`p = 1` is the normal
    /// push gossip of Kempe et al. / GossipTrust).
    Uniform(usize),
    /// The paper's differential rule: `k_i = max(1, round(deg_i / d̄_i))`
    /// where `d̄_i` is the average degree of `i`'s neighbours.
    #[default]
    Differential,
}

impl FanoutPolicy {
    /// Resolve to a per-node fan-out vector for `graph`.
    ///
    /// Fan-outs are additionally clamped to the node degree — a node
    /// cannot push to more distinct neighbours than it has. (The
    /// differential ratio never exceeds the degree, so the clamp only
    /// matters for large uniform policies.)
    pub fn resolve(self, graph: &Graph) -> Result<Vec<usize>, GossipError> {
        match self {
            FanoutPolicy::Uniform(0) => Err(GossipError::ZeroFanout),
            FanoutPolicy::Uniform(p) => Ok(graph
                .nodes()
                .map(|v| p.min(graph.degree(v)).max(1))
                .collect()),
            FanoutPolicy::Differential => Ok(graph.differential_fanouts()),
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> String {
        match self {
            FanoutPolicy::Uniform(1) => "push".to_owned(),
            FanoutPolicy::Uniform(p) => format!("push-{p}"),
            FanoutPolicy::Differential => "differential".to_owned(),
        }
    }
}

/// Draws `k` distinct indices of `0..len` without allocating: a partial
/// Fisher–Yates over an owned identity permutation. Slot `i` of the
/// first `k` swaps with slot `random_range(i..len)`, so a draw makes the
/// same RNG calls, and yields the same indices in the same order, as the
/// textbook shuffle of a fresh `0..len` would. The next draw first
/// restores the identity in `O(k)`.
#[derive(Debug, Clone, Default)]
pub struct TargetDraw {
    /// The identity permutation, except that its first `drawn` slots
    /// hold the last draw.
    order: Vec<usize>,
    drawn: usize,
}

impl TargetDraw {
    /// `amount` distinct uniform indices of `0..length`.
    ///
    /// # Panics
    /// When `amount > length`.
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, length: usize, amount: usize) -> &[usize] {
        assert!(
            amount <= length,
            "cannot draw {amount} indices from 0..{length}"
        );
        // A value `v` past the drawn slots left its own slot only in the
        // swap that brought it into one of them, and the first `drawn`
        // slots are written only by their own swaps.
        for at in 0..self.drawn {
            let v = self.order[at];
            if v >= self.drawn {
                self.order[v] = v;
            }
            self.order[at] = at;
        }
        if self.order.len() < length {
            let from = self.order.len();
            self.order.extend(from..length);
        }
        for i in 0..amount {
            let j = rng.random_range(i..length);
            self.order.swap(i, j);
        }
        self.drawn = amount;
        &self.order[..amount]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_graph::generators;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The textbook partial Fisher–Yates over a fresh `0..length`.
    fn fresh_shuffle(rng: &mut ChaCha8Rng, length: usize, amount: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..length).collect();
        for i in 0..amount {
            let j = rng.random_range(i..length);
            order.swap(i, j);
        }
        order.truncate(amount);
        order
    }

    /// Draws of mixed lengths and amounts, the buffer growing and
    /// shrinking in use, match a fresh shuffle each and leave the stream
    /// where it leaves it.
    #[test]
    fn draws_match_a_fresh_shuffle() {
        let mut draw = TargetDraw::default();
        let (mut rng, mut reference) = (ChaCha8Rng::seed_from_u64(3), ChaCha8Rng::seed_from_u64(3));
        for round in 0..2_000usize {
            let length = 1 + (round * 7919) % 97;
            let amount = (round * 31) % (length + 1);
            let expected = fresh_shuffle(&mut reference, length, amount);
            assert_eq!(
                draw.draw(&mut rng, length, amount),
                expected,
                "round {round}"
            );
            assert_eq!(rng.next_u64(), reference.next_u64());
        }
        assert!(draw.draw(&mut rng, 5, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot draw 4 indices from 0..3")]
    fn drawing_more_than_the_length_panics() {
        TargetDraw::default().draw(&mut ChaCha8Rng::seed_from_u64(1), 3, 4);
    }

    #[test]
    fn uniform_one_is_all_ones() {
        let g = generators::paper_example();
        let f = FanoutPolicy::Uniform(1).resolve(&g).unwrap();
        assert!(f.iter().all(|&k| k == 1));
    }

    #[test]
    fn uniform_clamps_to_degree() {
        let g = generators::star(5).unwrap();
        let f = FanoutPolicy::Uniform(3).resolve(&g).unwrap();
        assert_eq!(f[0], 3); // hub has degree 4
        assert!(f[1..].iter().all(|&k| k == 1)); // leaves have degree 1
    }

    #[test]
    fn zero_fanout_rejected() {
        let g = generators::paper_example();
        assert_eq!(
            FanoutPolicy::Uniform(0).resolve(&g),
            Err(GossipError::ZeroFanout)
        );
    }

    #[test]
    fn differential_matches_paper_example() {
        let g = generators::paper_example();
        let f = FanoutPolicy::Differential.resolve(&g).unwrap();
        assert_eq!(f, generators::PAPER_EXAMPLE_FANOUTS.to_vec());
    }

    #[test]
    fn labels() {
        assert_eq!(FanoutPolicy::Uniform(1).label(), "push");
        assert_eq!(FanoutPolicy::Uniform(3).label(), "push-3");
        assert_eq!(FanoutPolicy::Differential.label(), "differential");
    }
}
