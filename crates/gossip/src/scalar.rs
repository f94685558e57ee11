//! [`ScalarGossip`]: a one-subject [`VectorGossip`] under the name the
//! benchmark's scalar-step probe calls. It holds no step, churn or
//! convergence logic, and goes once that probe moves (ROADMAP items 10(e)
//! and 12); everything else calls [`VectorGossip::one_subject`].

use crate::{GossipConfig, GossipError, GossipPair, VectorGossip};
use dg_graph::Graph;
use rand::Rng;

/// A one-subject push-sum run, stepped by hand.
#[derive(Debug, Clone)]
pub struct ScalarGossip<'g>(VectorGossip<'g>);

impl<'g> ScalarGossip<'g> {
    /// [`VectorGossip::one_subject`] over `graph`.
    pub fn new(
        graph: &'g Graph,
        config: GossipConfig,
        initial: Vec<GossipPair>,
    ) -> Result<Self, GossipError> {
        VectorGossip::one_subject(graph, config, initial).map(Self)
    }

    /// Whether every present node has stopped.
    pub fn all_stopped(&self) -> bool {
        self.0.all_stopped()
    }

    /// Steps executed so far.
    pub fn steps_taken(&self) -> usize {
        self.0.steps_taken()
    }

    /// Execute one gossip step; returns messages sent.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        self.0.step(rng)
    }
}
