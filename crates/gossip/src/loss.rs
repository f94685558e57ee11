//! Packet loss and churn (Section 5.3, Fig. 4).
//!
//! "Peer to peer network suffers by packet loss only when some node leaves
//! the network i.e. due to churning... Whenever a node pushes gossip pair
//! to this absent node, the pushing node doesn't receive any
//! acknowledgement. In such cases pushing node pushes the gossip pair to
//! itself so that mass conservation still applies."
//!
//! Two cooperating mechanisms:
//!
//! * [`LossModel`] — each push is independently lost with probability
//!   `p`; the sender detects the missing ack and re-credits the share to
//!   itself.
//! * [`ChurnModel`] — nodes leave outright; a leaving node "hands over the
//!   gossip pair vectors to some other node so mass conservation still
//!   applies", and every subsequent push towards it is lost.

use crate::error::GossipError;
use rand::Rng;

/// Independent per-push loss with detection (failed shares return to the
/// sender).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossModel {
    probability: f64,
}

impl LossModel {
    /// Validated constructor; `p ∈ [0, 1)`.
    pub fn new(probability: f64) -> Result<Self, GossipError> {
        if !probability.is_finite() || !(0.0..1.0).contains(&probability) {
            return Err(GossipError::InvalidLossProbability(probability));
        }
        Ok(Self { probability })
    }

    /// The lossless model.
    pub fn none() -> Self {
        Self { probability: 0.0 }
    }

    /// Loss probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Sample whether a single push is lost.
    #[inline]
    pub fn drops<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.probability > 0.0 && rng.random::<f64>() < self.probability
    }
}

/// Node-departure model.
///
/// At the start of each gossip step every still-present node leaves with
/// probability `departure_probability`. The engine transfers the
/// departing node's pair to a present neighbour (or, if it has none, to
/// the lowest-id present node) before removing it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChurnModel {
    departure_probability: f64,
    /// Upper bound on how many nodes may leave in total (keeps the graph
    /// meaningfully populated during long runs). `usize::MAX` = unbounded.
    pub max_departures: usize,
}

impl ChurnModel {
    /// Validated constructor; `p ∈ [0, 1)`.
    pub fn new(departure_probability: f64, max_departures: usize) -> Result<Self, GossipError> {
        if !departure_probability.is_finite() || !(0.0..1.0).contains(&departure_probability) {
            return Err(GossipError::InvalidDepartureProbability(
                departure_probability,
            ));
        }
        Ok(Self {
            departure_probability,
            max_departures,
        })
    }

    /// No churn.
    pub fn none() -> Self {
        Self {
            departure_probability: 0.0,
            max_departures: 0,
        }
    }

    /// Per-step departure probability.
    pub fn departure_probability(&self) -> f64 {
        self.departure_probability
    }

    /// Sample whether a node departs this step.
    #[inline]
    pub(crate) fn departs<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.departure_probability > 0.0 && rng.random::<f64>() < self.departure_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn loss_model_validation() {
        assert!(LossModel::new(0.0).is_ok());
        assert!(LossModel::new(0.5).is_ok());
        assert!(LossModel::new(1.0).is_err());
        assert!(LossModel::new(-0.1).is_err());
        assert!(LossModel::new(f64::NAN).is_err());
    }

    #[test]
    fn each_probability_names_itself_when_refused() {
        assert_eq!(
            LossModel::new(1.5).unwrap_err().to_string(),
            "loss probability 1.5 outside [0, 1)"
        );
        assert_eq!(
            ChurnModel::new(1.5, 10).unwrap_err().to_string(),
            "departure probability 1.5 outside [0, 1)"
        );
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let m = LossModel::none();
        assert!((0..1000).all(|_| !m.drops(&mut rng)));
    }

    #[test]
    fn loss_rate_is_approximately_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = LossModel::new(0.3).unwrap();
        let drops = (0..100_000).filter(|_| m.drops(&mut rng)).count();
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn churn_validation_and_sampling() {
        assert!(ChurnModel::new(0.99, 10).is_ok());
        assert!(ChurnModel::new(1.0, 10).is_err());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let none = ChurnModel::none();
        assert!((0..100).all(|_| !none.departs(&mut rng)));
    }
}
