//! Network fault profiles: one config object describing how a run's
//! network misbehaves.
//!
//! A [`NetworkProfile`] bundles every fault knob the stack understands —
//! per-message loss and duplication, bounded random delay (which induces
//! reordering), node churn (crash / rejoin) and a two-halves partition
//! window — plus the four named presets the CLI exposes
//! (`lossless` / `lossy` / `partitioned` / `churning`).
//!
//! Two consumers interpret a profile at different fidelities:
//!
//! * the **asynchronous p2p runtime** (`dg-p2p`'s `FaultyNetwork`)
//!   honours every knob: messages are genuinely dropped, delayed,
//!   duplicated or cut, and the resulting mass-conservation violations
//!   are *surfaced* through a per-run ledger instead of silently skewing
//!   estimates;
//! * the **synchronous engines** in this crate map the profile onto
//!   [`LossModel`] / [`ChurnModel`] via `NetworkProfile::sync_loss_model`
//!   and `NetworkProfile::sync_churn_model` — the paper's
//!   detect-and-recredit loss semantics (mass conserved) and
//!   permanent-departure churn. Delay, duplication and partitions have no
//!   synchronous analogue and are ignored there; experiments that need
//!   them run on the p2p transport.
//!
//! Every random decision a profile induces is drawn from seeded ChaCha8
//! streams derived with [`node_stream_seed`](crate::node_stream_seed)
//! (per link, per node), so a `(profile, seed)` pair reproduces the exact
//! same fault schedule on every run and on every machine.

use crate::error::GossipError;
use crate::loss::{ChurnModel, LossModel};
use serde::{Deserialize, Serialize};

/// The largest loss probability the synchronous [`LossModel`] accepts
/// (`p ∈ [0, 1)`); [`NetworkProfile::sync_loss_model`] clamps to it.
const MAX_SYNC_LOSS: f64 = 1.0 - 1e-9;

/// A partition window: the overlay is split into two halves (node index
/// below vs. at-or-above `N/2`) and **all cross-half traffic is dropped**
/// for rounds in `[from_round, until_round)`. The network heals afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First round (0-based) in which the partition is active.
    pub from_round: u64,
    /// First round in which the partition has healed.
    pub until_round: u64,
}

impl PartitionWindow {
    /// Whether the partition is active in `round`.
    #[inline]
    pub fn cuts(&self, round: u64) -> bool {
        (self.from_round..self.until_round).contains(&round)
    }
}

/// Node-churn knobs for the faulty transport: **fail-stop crashes with
/// state-preserving rejoin**. A crashed node neither sends nor receives
/// (in-flight messages towards it are lost) but keeps its gossip pair —
/// as if persisted to disk — and resumes from it on rejoin. This is
/// deliberately different from the synchronous [`ChurnModel`], where
/// departures are permanent and the pair is handed over to a neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ChurnProfile {
    /// Per-node, per-round crash probability (`∈ [0, 1)`).
    pub crash_probability: f64,
    /// Minimum downtime, in rounds (`≥ 1` when churn is enabled).
    pub min_downtime: u64,
    /// Maximum downtime, in rounds (inclusive; `≥ min_downtime`).
    pub max_downtime: u64,
}

impl ChurnProfile {
    /// No churn.
    pub(crate) const NONE: ChurnProfile = ChurnProfile {
        crash_probability: 0.0,
        min_downtime: 0,
        max_downtime: 0,
    };

    /// Whether any crashes can occur.
    pub fn is_enabled(&self) -> bool {
        self.crash_probability > 0.0
    }
}

/// A complete description of how the network misbehaves during a run.
///
/// ```
/// use dg_gossip::profile::NetworkProfile;
///
/// let lossy = NetworkProfile::lossy();
/// assert_eq!(lossy.label(), "lossy");
///
/// // Presets parse from their CLI labels; knobs stay adjustable.
/// let mut custom = NetworkProfile::parse("churning").unwrap();
/// custom.loss = 0.05;
/// assert!(custom.validated().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkProfile {
    /// Per-message drop probability (`∈ [0, 1]`; `1.0` = total blackout).
    pub loss: f64,
    /// Per-message duplication probability (`∈ [0, 1)`). A duplicated
    /// gossip share *injects* mass; the p2p ledger records it.
    pub duplicate: f64,
    /// Whether senders detect dropped messages (the paper's model: no
    /// acknowledgement arrives, so "the pushing node pushes the gossip
    /// pair to itself" — mass conserved, the ledger tallies the bounce).
    /// With `false` the transport behaves like UDP: lost shares destroy
    /// mass outright, and any run that keeps gossiping long enough
    /// bleeds its gossip weight to zero. Either way the exact amounts
    /// are surfaced on the run ledger, never silently absorbed.
    pub detect_loss: bool,
    /// Maximum delivery delay in rounds; each message is delayed by a
    /// uniform draw from `[0, max_delay]`. Distinct delays on one link
    /// reorder messages.
    pub max_delay: u64,
    /// Crash / rejoin churn.
    pub churn: ChurnProfile,
    /// Optional two-halves partition window.
    pub partition: Option<PartitionWindow>,
}

impl Default for NetworkProfile {
    fn default() -> Self {
        Self::lossless()
    }
}

impl NetworkProfile {
    /// The reliable network: no loss, no delay, no duplication, no churn,
    /// no partition. Running under this profile is bit-identical to not
    /// using fault injection at all.
    pub const fn lossless() -> Self {
        Self {
            loss: 0.0,
            duplicate: 0.0,
            detect_loss: true,
            max_delay: 0,
            churn: ChurnProfile::NONE,
            partition: None,
        }
    }

    /// A flaky-but-connected network: 10 % loss, 1 % duplication, up to
    /// 2 rounds of delay.
    pub const fn lossy() -> Self {
        Self {
            loss: 0.1,
            duplicate: 0.01,
            detect_loss: true,
            max_delay: 2,
            churn: ChurnProfile::NONE,
            partition: None,
        }
    }

    /// A clean network that splits into two halves for rounds 5–24 and
    /// then heals.
    pub const fn partitioned() -> Self {
        Self {
            loss: 0.0,
            duplicate: 0.0,
            detect_loss: true,
            max_delay: 0,
            churn: ChurnProfile::NONE,
            partition: Some(PartitionWindow {
                from_round: 5,
                until_round: 25,
            }),
        }
    }

    /// A churning swarm: every node crashes with probability 2 % per
    /// round and stays down for 5–15 rounds, on top of 2 % message loss.
    pub const fn churning() -> Self {
        Self {
            loss: 0.02,
            duplicate: 0.0,
            detect_loss: true,
            max_delay: 1,
            churn: ChurnProfile {
                crash_probability: 0.02,
                min_downtime: 5,
                max_downtime: 15,
            },
            partition: None,
        }
    }

    /// All named presets, in CLI order.
    pub const PRESETS: [&'static str; 4] = ["lossless", "lossy", "partitioned", "churning"];

    /// Parse a preset label (the `--profile` CLI values).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lossless" | "reliable" => Some(Self::lossless()),
            "lossy" => Some(Self::lossy()),
            "partitioned" => Some(Self::partitioned()),
            "churning" => Some(Self::churning()),
            _ => None,
        }
    }

    /// Stable label for file names and JSON reports. Profiles that match
    /// a preset report its name; anything else is `custom`.
    pub fn label(&self) -> &'static str {
        if *self == Self::lossless() {
            "lossless"
        } else if *self == Self::lossy() {
            "lossy"
        } else if *self == Self::partitioned() {
            "partitioned"
        } else if *self == Self::churning() {
            "churning"
        } else {
            "custom"
        }
    }

    /// Validate every knob.
    pub fn validated(self) -> Result<Self, GossipError> {
        if !self.loss.is_finite() || !(0.0..=1.0).contains(&self.loss) {
            return Err(GossipError::InvalidProfile("loss outside [0, 1]"));
        }
        if !self.duplicate.is_finite() || !(0.0..1.0).contains(&self.duplicate) {
            return Err(GossipError::InvalidProfile("duplicate outside [0, 1)"));
        }
        let churn = &self.churn;
        if !churn.crash_probability.is_finite() || !(0.0..1.0).contains(&churn.crash_probability) {
            return Err(GossipError::InvalidProfile(
                "crash probability outside [0, 1)",
            ));
        }
        if churn.is_enabled()
            && (churn.min_downtime == 0 || churn.max_downtime < churn.min_downtime)
        {
            return Err(GossipError::InvalidProfile(
                "churn needs 1 <= min_downtime <= max_downtime",
            ));
        }
        if let Some(p) = self.partition {
            if p.until_round <= p.from_round {
                return Err(GossipError::InvalidProfile(
                    "partition window must be non-empty",
                ));
            }
        }
        Ok(self)
    }

    /// The synchronous-engine view of this profile's loss: the paper's
    /// detect-and-recredit [`LossModel`] (mass conserved). Clamped below
    /// `1.0` because the synchronous model requires `p < 1`.
    pub(crate) fn sync_loss_model(&self) -> LossModel {
        LossModel::new(self.loss.min(MAX_SYNC_LOSS)).expect("clamped loss is valid")
    }

    /// The synchronous-engine view of this profile's churn: permanent
    /// departures with pair hand-over, capped at `max_departures` so long
    /// runs keep a populated network.
    pub(crate) fn sync_churn_model(&self, max_departures: usize) -> ChurnModel {
        ChurnModel::new(self.churn.crash_probability, max_departures)
            .expect("validated crash probability is a valid departure probability")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_roundtrip_through_labels() {
        for name in NetworkProfile::PRESETS {
            let p = NetworkProfile::parse(name).unwrap();
            assert_eq!(p.label(), name);
            assert!(p.validated().is_ok(), "{name} must validate");
        }
        assert!(NetworkProfile::parse("nope").is_none());
    }

    #[test]
    fn lossless_is_the_default() {
        assert_eq!(NetworkProfile::default(), NetworkProfile::lossless());
    }

    #[test]
    fn custom_label() {
        let mut p = NetworkProfile::lossy();
        p.loss = 0.42;
        assert_eq!(p.label(), "custom");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut p = NetworkProfile::lossless();
        p.loss = 1.5;
        assert!(p.validated().is_err());
        p.loss = 1.0; // total blackout is allowed
        assert!(p.validated().is_ok());

        let mut p = NetworkProfile::lossless();
        p.duplicate = 1.0;
        assert!(p.validated().is_err());

        let mut p = NetworkProfile::lossless();
        p.churn = ChurnProfile {
            crash_probability: 0.1,
            min_downtime: 0,
            max_downtime: 4,
        };
        assert!(p.validated().is_err());
        p.churn.min_downtime = 5;
        assert!(p.validated().is_err(), "max < min");
        p.churn.max_downtime = 5;
        assert!(p.validated().is_ok());

        let mut p = NetworkProfile::lossless();
        p.partition = Some(PartitionWindow {
            from_round: 10,
            until_round: 10,
        });
        assert!(p.validated().is_err());
    }

    #[test]
    fn partition_window_cuts_inside_only() {
        let w = PartitionWindow {
            from_round: 2,
            until_round: 4,
        };
        assert!(!w.cuts(1));
        assert!(w.cuts(2));
        assert!(w.cuts(3));
        assert!(!w.cuts(4));
    }

    #[test]
    fn sync_mappings() {
        let p = NetworkProfile::lossy();
        assert!((p.sync_loss_model().probability() - 0.1).abs() < 1e-12);
        let mut blackout = NetworkProfile::lossless();
        blackout.loss = 1.0;
        assert!(blackout.sync_loss_model().probability() < 1.0);

        let c = NetworkProfile::churning();
        let model = c.sync_churn_model(100);
        assert!((model.departure_probability() - 0.02).abs() < 1e-12);
        assert_eq!(model.max_departures, 100);
    }

    #[test]
    fn serde_roundtrip() {
        let p = NetworkProfile::churning();
        let s = serde_json::to_string(&p).unwrap();
        let back: NetworkProfile = serde_json::from_str(&s).unwrap();
        assert_eq!(p, back);
    }
}
