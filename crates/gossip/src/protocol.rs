//! The convergence protocol of Section 4.1.1, stated once:
//! [`VectorGossip`](crate::vector::VectorGossip) and the `dg-p2p` peer
//! drive it, and neither compares a movement with `ξ` or derives
//! quiescence itself.
//!
//! In a step where a node heard from **someone other than itself** (the
//! paper's `|S| > 1`) it hands the distance its estimate moved to
//! [`Convergence::observe`] and *announces* convergence to its
//! neighbours when that is within the bound; it **stops pushing** once
//! itself and *all* of its neighbours have announced
//! ([`Convergence::quiescent`]).
//!
//! **Announcements revoke.** The paper does not say what happens when a
//! ratio moves *after* its node announced (a far region whose gossip
//! weight is still zero sits at the sentinel ratio 10, "converges"
//! trivially, and only later receives real mass). Latched, such regions
//! stop early and become mass sinks, and the run never reaches the true
//! average; so an observation beyond the bound takes the announcement
//! back and the node resumes. Once ratios are genuinely uniform, incoming
//! shares no longer move them and the network quiesces for good.
//! [`GossipConfig::sticky_announcements`](crate::GossipConfig) selects
//! the paper's literal latch — safe, and faster, when every node starts
//! with positive weight. (See `docs/PAPER_MAP.md`, "Convergence protocol".)
//!
//! **Quiescence is derived, never latched**, so a neighbour's revocation
//! re-activates a stopped node. A latch would let a lone unconverged
//! node drain its pair into permanently-stopped neighbours forever — it
//! can never satisfy `|S| > 1` if nobody pushes back — underflowing its
//! gossip weight; derived, it keeps its whole neighbourhood active until
//! it can hear, converge and announce. `VectorGossip` maintains the
//! derivation rather than redoing it over every node each step: it
//! counts each node's unannounced neighbours, updates the counts when an
//! announcement flips, and re-derives [`Convergence::quiescent`] only
//! for the flipped node and its neighbours, passing the neighbours'
//! flags folded into one. The flags it gets are the ones a full scan
//! would, so the rule is still stated only here.

/// The stopping rule: a movement bound and whether announcements latch.
#[derive(Debug, Clone, Copy)]
pub struct Convergence {
    bound: f64,
    sticky: bool,
}

impl Convergence {
    /// The rule for tolerance `ξ` when a node sums the movement of
    /// `subjects` ratios: the bound is `subjects·ξ` (Eq. (7),
    /// `Σ_j |r_j(n) − r_j(n−1)| ≤ N·ξ` with `N` subjects). The caller
    /// states the count: 1 for a one-subject run and the peer, the network
    /// size for [`VectorGossip::new`](crate::vector::VectorGossip::new).
    pub fn new(xi: f64, sticky: bool, subjects: usize) -> Self {
        Self {
            bound: subjects as f64 * xi,
            sticky,
        }
    }

    /// The node's announcement after a step in which it heard from
    /// somebody else and its estimate moved by `movement`: announced
    /// within the bound; beyond it, revoked unless announcements latch.
    #[inline]
    pub fn observe(&self, announced: bool, movement: f64) -> bool {
        movement <= self.bound || (self.sticky && announced)
    }

    /// Whether a node is quiescent this step: it has nobody to gossip
    /// with, or it and every neighbour — one flag each: announced, or no
    /// longer present — have announced.
    pub fn quiescent(announced: bool, mut neighbours: impl ExactSizeIterator<Item = bool>) -> bool {
        neighbours.len() == 0 || (announced && neighbours.all(|flag| flag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_announces_within_the_bound_and_revokes_unless_sticky() {
        let revocable = Convergence::new(1e-3, false, 1);
        let sticky = Convergence::new(1e-3, true, 1);
        // (announced before, movement) -> (revocable, sticky)
        for (before, movement, expect) in [
            (false, 1e-3, (true, true)), // the bound itself is within
            (false, 2e-3, (false, false)),
            (true, 0.0, (true, true)),
            (true, 2e-3, (false, true)), // the one cell the knob decides
            (true, f64::NAN, (false, true)),
        ] {
            let got = (
                revocable.observe(before, movement),
                sticky.observe(before, movement),
            );
            assert_eq!(got, expect, "announced {before}, moved {movement}");
        }
    }

    #[test]
    fn bounds_are_xi_and_n_xi() {
        let scalar = Convergence::new(1e-4, false, 1);
        assert_eq!(scalar.bound.to_bits(), 1e-4f64.to_bits());
        let vector = Convergence::new(1e-4, false, 50_000);
        assert_eq!(vector.bound.to_bits(), (50_000.0 * 1e-4f64).to_bits());
        assert!(vector.observe(false, 5.0) && !vector.observe(false, 5.1));
    }

    #[test]
    fn quiescence_needs_self_and_every_neighbour() {
        let q = |me, neighbours: &[bool]| Convergence::quiescent(me, neighbours.iter().copied());
        assert!(q(false, &[]), "isolated: quiescent whatever it announced");
        assert!(q(true, &[true, true]));
        assert!(!q(false, &[true, true]), "own announcement missing");
        assert!(!q(true, &[true, false]), "one neighbour still moving");
    }

    /// The case the module docs argue from: on a path a – b – c with only
    /// `b` unconverged, everybody stays active (so `b` keeps hearing),
    /// and the moment `b` announces all three stop; when `b` then revokes,
    /// its neighbours resume in the same step because nothing latched.
    #[test]
    fn a_lone_unconverged_node_keeps_its_neighbourhood_active() {
        let stopped = |announced: [bool; 3]| {
            let [a, b, c] = announced;
            [
                Convergence::quiescent(a, [b].into_iter()),
                Convergence::quiescent(b, [a, c].into_iter()),
                Convergence::quiescent(c, [b].into_iter()),
            ]
        };
        assert_eq!(stopped([true, false, true]), [false; 3]);
        assert_eq!(stopped([true, true, true]), [true; 3]);
        let rule = Convergence::new(1e-6, false, 1);
        let b = rule.observe(true, 1e-3);
        assert_eq!(stopped([true, b, true]), [false; 3]);
    }
}
