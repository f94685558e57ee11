//! Adversarial population mixes.
//!
//! The paper's robustness claims are only credible when stress-tested
//! against peers that actively lie, not merely fail. [`AdversaryMix`]
//! describes *which fraction of the population runs which attack* plus
//! the per-attack knobs, in one serializable config that travels the
//! same road as [`NetworkProfile`](crate::NetworkProfile):
//!
//! * `RunConfig::adversary` (dg-sim) compiles the mix into per-node
//!   roles and the round engines apply each role's gossip-channel
//!   distortion (`dg_sim::adversary`);
//! * `DistributedConfig::adversary` (dg-p2p) maps the *total* adversary
//!   fraction onto byzantine peers that falsify their gossip inputs over
//!   the real transports, reliable or faulty.
//!
//! Every stochastic attack decision draws from a per-adversary ChaCha8
//! stream derived from the scenario seed, so attack runs are
//! bit-reproducible per `(config, seed)` — and a mix with all fractions
//! at zero consumes no randomness at all, keeping zero-adversary runs
//! bit-identical to honest baselines.

use crate::config::node_stream_seed;
use crate::error::GossipError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Salt folded into the seed of the byzantine-selection stream so it is
/// decoupled from topology, population and workload streams.
const BYZANTINE_SALT: u64 = 0xB12A_171E_5EED_0001;

/// Population mix of adversarial strategies.
///
/// Fractions are of the whole population and must sum to at most 1; the
/// remaining knobs parameterise the individual attacks. The default mix
/// is [`AdversaryMix::none`] — all fractions zero, structural knobs at
/// their preset values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdversaryMix {
    /// Fraction of nodes that are sybil-ring identities (leeches that
    /// vouch maximally for ring-mates and bad-mouth rated outsiders).
    pub sybil_fraction: f64,
    /// Identities per sybil ring.
    pub sybil_ring: usize,
    /// Expected identity activations per round per ring: rings grow over
    /// time instead of appearing fully formed (dormant identities
    /// neither transact nor report).
    pub sybil_spawn_rate: f64,
    /// Fraction of nodes in collusion cliques: peers that serve honestly
    /// but mutually inflate each other's trust reports to 1.
    pub collusion_fraction: f64,
    /// Members per collusion clique.
    pub collusion_clique: usize,
    /// Fraction of slanderers: peers that serve honestly but deflate
    /// every report they gossip about others.
    pub slander_fraction: f64,
    /// Surviving fraction of a slanderer's honest report (0 = full
    /// bad-mouthing, 1 = no distortion).
    pub slander_factor: f64,
    /// Fraction of whitewashers: leeches that discard their identity and
    /// rejoin fresh whenever their network-wide reputation collapses.
    pub whitewash_fraction: f64,
    /// Base reputation threshold below which a whitewasher washes (each
    /// washer jitters its personal threshold from its own stream).
    pub wash_threshold: f64,
    /// Fraction of nodes in stealth cartels: peers that serve honestly
    /// but bias every report *within* the defended clamp bounds —
    /// deflating outsiders and inflating clique mates — so clamping and
    /// trimmed aggregation never see an outlier to reject.
    #[serde(default)]
    pub stealth_fraction: f64,
    /// Members per stealth cartel (must be ≥ 1 whenever
    /// `stealth_fraction > 0`; zero otherwise, so configs serialized
    /// before the stealth knobs existed keep deserializing unchanged).
    #[serde(default)]
    pub stealth_clique: usize,
    /// Bias magnitude a cartel member applies to each report before the
    /// result is folded back into the clamp window `[0.1, 0.9]`.
    #[serde(default)]
    pub stealth_bias: f64,
}

impl Default for AdversaryMix {
    fn default() -> Self {
        Self::none()
    }
}

impl AdversaryMix {
    /// No adversaries at all (all fractions zero).
    pub const fn none() -> Self {
        Self {
            sybil_fraction: 0.0,
            sybil_ring: 8,
            sybil_spawn_rate: 2.0,
            collusion_fraction: 0.0,
            collusion_clique: 4,
            slander_fraction: 0.0,
            slander_factor: 0.0,
            whitewash_fraction: 0.0,
            wash_threshold: 0.25,
            stealth_fraction: 0.0,
            stealth_clique: 0,
            stealth_bias: 0.0,
        }
    }

    /// Preset: 20 % sybil identities in rings of 8, two activations per
    /// round per ring.
    pub const fn sybil() -> Self {
        Self {
            sybil_fraction: 0.2,
            ..Self::none()
        }
    }

    /// Preset: 20 % colluders in cliques of 4.
    pub const fn collusion() -> Self {
        Self {
            collusion_fraction: 0.2,
            ..Self::none()
        }
    }

    /// Preset: 20 % slanderers, full bad-mouthing.
    pub const fn slander() -> Self {
        Self {
            slander_fraction: 0.2,
            ..Self::none()
        }
    }

    /// Preset: 20 % whitewashers washing below reputation 0.25.
    pub const fn whitewash() -> Self {
        Self {
            whitewash_fraction: 0.2,
            ..Self::none()
        }
    }

    /// Preset: 45 % stealth-cartel members in cliques of 5 applying the
    /// maximal within-bounds bias — reports pinned to the clamp
    /// window's own edges, so the defense still sees nothing to reject.
    /// The fraction deliberately exceeds the defended trim fraction
    /// (20 % per tail): a cartel the trim can swallow whole moves
    /// nothing, so evasion needs the colluding mass to outnumber what
    /// the robust aggregation can discard.
    pub const fn stealth() -> Self {
        Self {
            stealth_fraction: 0.45,
            stealth_clique: 5,
            stealth_bias: 1.0,
            ..Self::none()
        }
    }

    /// Parse a CLI spec: a preset label, optionally followed by
    /// `:key=value,key=value,…` knob overrides (full field names, e.g.
    /// `stealth:stealth_bias=0.3,stealth_clique=8`). Any unrecognised
    /// label, key or malformed value returns `None` — a typo in an
    /// experiment spec must fail loudly, never silently run the wrong
    /// attack.
    pub fn parse(s: &str) -> Option<Self> {
        let (label, overrides) = match s.split_once(':') {
            Some((label, rest)) => (label, Some(rest)),
            None => (s, None),
        };
        let mut mix = match label {
            "none" | "honest" => Self::none(),
            "sybil" => Self::sybil(),
            "collusion" => Self::collusion(),
            "slander" => Self::slander(),
            "whitewash" => Self::whitewash(),
            "stealth" => Self::stealth(),
            _ => return None,
        };
        if let Some(overrides) = overrides {
            for pair in overrides.split(',') {
                let (key, value) = pair.split_once('=')?;
                mix.apply_override(key.trim(), value.trim())?;
            }
        }
        Some(mix)
    }

    /// Apply one `key=value` override; `None` on an unknown key or a
    /// value that fails to parse.
    fn apply_override(&mut self, key: &str, value: &str) -> Option<()> {
        fn float(v: &str) -> Option<f64> {
            v.parse().ok()
        }
        fn size(v: &str) -> Option<usize> {
            v.parse().ok()
        }
        match key {
            "sybil_fraction" => self.sybil_fraction = float(value)?,
            "sybil_ring" => self.sybil_ring = size(value)?,
            "sybil_spawn_rate" => self.sybil_spawn_rate = float(value)?,
            "collusion_fraction" => self.collusion_fraction = float(value)?,
            "collusion_clique" => self.collusion_clique = size(value)?,
            "slander_fraction" => self.slander_fraction = float(value)?,
            "slander_factor" => self.slander_factor = float(value)?,
            "whitewash_fraction" => self.whitewash_fraction = float(value)?,
            "wash_threshold" => self.wash_threshold = float(value)?,
            "stealth_fraction" => self.stealth_fraction = float(value)?,
            "stealth_clique" => self.stealth_clique = size(value)?,
            "stealth_bias" => self.stealth_bias = float(value)?,
            _ => return None,
        }
        Some(())
    }

    /// Stable label: the preset name when the mix equals a preset,
    /// `custom` otherwise.
    pub fn label(&self) -> &'static str {
        if *self == Self::none() {
            "none"
        } else if *self == Self::sybil() {
            "sybil"
        } else if *self == Self::collusion() {
            "collusion"
        } else if *self == Self::slander() {
            "slander"
        } else if *self == Self::whitewash() {
            "whitewash"
        } else if *self == Self::stealth() {
            "stealth"
        } else {
            "custom"
        }
    }

    /// Total adversarial fraction of the population.
    pub fn adversary_fraction(&self) -> f64 {
        self.sybil_fraction
            + self.collusion_fraction
            + self.slander_fraction
            + self.whitewash_fraction
            + self.stealth_fraction
    }

    /// Whether the mix contains no adversaries.
    pub fn is_none(&self) -> bool {
        self.adversary_fraction() == 0.0
    }

    /// Validate every knob.
    pub fn validated(self) -> Result<Self, GossipError> {
        let fractions = [
            self.sybil_fraction,
            self.collusion_fraction,
            self.slander_fraction,
            self.whitewash_fraction,
            self.stealth_fraction,
        ];
        if fractions.iter().any(|f| !(0.0..=1.0).contains(f)) {
            return Err(GossipError::InvalidAdversaryMix(
                "every fraction must lie in [0, 1]",
            ));
        }
        if self.adversary_fraction() > 1.0 {
            return Err(GossipError::InvalidAdversaryMix(
                "adversary fractions sum beyond 1",
            ));
        }
        if self.sybil_ring == 0 || self.collusion_clique == 0 {
            return Err(GossipError::InvalidAdversaryMix(
                "ring / clique sizes must be at least 1",
            ));
        }
        if self.stealth_fraction > 0.0 && self.stealth_clique == 0 {
            return Err(GossipError::InvalidAdversaryMix(
                "stealth clique size must be at least 1",
            ));
        }
        if self.sybil_fraction > 0.0
            && !(self.sybil_spawn_rate.is_finite() && self.sybil_spawn_rate > 0.0)
        {
            return Err(GossipError::InvalidAdversaryMix(
                "sybil spawn rate must be positive and finite",
            ));
        }
        if !(0.0..=1.0).contains(&self.slander_factor) {
            return Err(GossipError::InvalidAdversaryMix(
                "slander factor must lie in [0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.wash_threshold) {
            return Err(GossipError::InvalidAdversaryMix(
                "wash threshold must lie in [0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.stealth_bias) {
            return Err(GossipError::InvalidAdversaryMix(
                "stealth bias must lie in [0, 1]",
            ));
        }
        Ok(self)
    }

    /// The deterministic byzantine peer set of a distributed deployment:
    /// `⌊adversary_fraction · n⌋` node ids drawn from a dedicated ChaCha8
    /// stream of `seed`, returned ascending. Gossip-input falsification
    /// does not distinguish strategies — every adversarial identity lies
    /// in the channel — so the total fraction is what matters here.
    pub fn byzantine_peers(&self, n: usize, seed: u64) -> Vec<u32> {
        let count = (self.adversary_fraction() * n as f64).floor() as usize;
        let count = count.min(n);
        if count == 0 {
            return Vec::new();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(node_stream_seed(seed ^ BYZANTINE_SALT, 0));
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(&mut rng);
        ids.truncate(count);
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_roundtrip_labels() {
        for label in [
            "none",
            "sybil",
            "collusion",
            "slander",
            "whitewash",
            "stealth",
        ] {
            let mix = AdversaryMix::parse(label).unwrap();
            assert!(mix.validated().is_ok());
            assert_eq!(mix.label(), label);
        }
        assert_eq!(AdversaryMix::parse("nope"), None);
        let custom = AdversaryMix {
            sybil_fraction: 0.1,
            slander_fraction: 0.1,
            ..AdversaryMix::none()
        };
        assert_eq!(custom.label(), "custom");
    }

    #[test]
    fn parse_applies_known_overrides() {
        let mix = AdversaryMix::parse("stealth:stealth_bias=0.3,stealth_clique=8").unwrap();
        assert_eq!(
            mix,
            AdversaryMix {
                stealth_bias: 0.3,
                stealth_clique: 8,
                ..AdversaryMix::stealth()
            }
        );
        let mix = AdversaryMix::parse("none:sybil_fraction=0.05, sybil_ring=3").unwrap();
        assert_eq!(mix.sybil_fraction, 0.05);
        assert_eq!(mix.sybil_ring, 3);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_malformed_overrides() {
        // A typo in a knob name must fail loudly, not silently run the
        // base preset.
        assert_eq!(AdversaryMix::parse("stealth:stealth_bais=0.3"), None);
        assert_eq!(AdversaryMix::parse("sybil:unknown_key=1"), None);
        // Malformed values and pairs fail too.
        assert_eq!(AdversaryMix::parse("sybil:sybil_ring=abc"), None);
        assert_eq!(AdversaryMix::parse("sybil:sybil_ring"), None);
        assert_eq!(AdversaryMix::parse("sybil:"), None);
        // Unknown base labels keep failing.
        assert_eq!(AdversaryMix::parse("stelth"), None);
    }

    #[test]
    fn legacy_mix_json_deserializes_with_stealth_defaults() {
        // A serialized mix from before the stealth knobs existed must
        // keep parsing (checkpoint headers embed the config as JSON).
        let legacy = r#"{
            "sybil_fraction": 0.2, "sybil_ring": 8, "sybil_spawn_rate": 2.0,
            "collusion_fraction": 0.0, "collusion_clique": 4,
            "slander_fraction": 0.0, "slander_factor": 0.0,
            "whitewash_fraction": 0.0, "wash_threshold": 0.25
        }"#;
        let mix: AdversaryMix = serde_json::from_str(legacy).unwrap();
        assert_eq!(mix, AdversaryMix::sybil());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(AdversaryMix {
            sybil_fraction: -0.1,
            ..AdversaryMix::none()
        }
        .validated()
        .is_err());
        assert!(AdversaryMix {
            sybil_fraction: 0.6,
            collusion_fraction: 0.6,
            ..AdversaryMix::none()
        }
        .validated()
        .is_err());
        assert!(AdversaryMix {
            sybil_fraction: 0.2,
            sybil_spawn_rate: 0.0,
            ..AdversaryMix::none()
        }
        .validated()
        .is_err());
        assert!(AdversaryMix {
            slander_factor: 1.5,
            ..AdversaryMix::none()
        }
        .validated()
        .is_err());
        assert!(AdversaryMix {
            collusion_clique: 0,
            ..AdversaryMix::none()
        }
        .validated()
        .is_err());
        assert!(AdversaryMix {
            stealth_clique: 0,
            ..AdversaryMix::stealth()
        }
        .validated()
        .is_err());
        assert!(AdversaryMix {
            stealth_bias: 1.5,
            ..AdversaryMix::none()
        }
        .validated()
        .is_err());
    }

    #[test]
    fn zero_mix_is_none_and_selects_nobody() {
        let mix = AdversaryMix::none();
        assert!(mix.is_none());
        assert_eq!(mix.adversary_fraction(), 0.0);
        assert!(mix.byzantine_peers(100, 42).is_empty());
    }

    #[test]
    fn byzantine_selection_is_deterministic_and_sized() {
        let mix = AdversaryMix {
            sybil_fraction: 0.1,
            whitewash_fraction: 0.1,
            ..AdversaryMix::none()
        };
        let a = mix.byzantine_peers(200, 7);
        let b = mix.byzantine_peers(200, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        let c = mix.byzantine_peers(200, 8);
        assert_ne!(a, c, "different seed, different set");
    }
}
