//! Durable checkpoints for the peer deployment.
//!
//! A push-sum run's whole cross-round state is its per-peer gossip
//! pairs — everything else (fanouts, fault streams) is derived from the
//! config. [`GossipCheckpoint`] freezes that state plus the run's
//! accounting history (the [`MassLedger`], active-round counters and
//! the falsified initial total), persists it as a `dg-store` `gossip`
//! frame ([`dg_store::write_gossip`]) whose payload
//! [`GossipCheckpoint::save`] lays out itself, and
//! [`resume_distributed`] continues the run from it.
//!
//! ## Resume semantics
//!
//! Unlike the synchronous round engines — whose kill-and-resume runs
//! are **bit-identical** to straight runs — the peer deployment's
//! continuation is *statistical*: peers draw fresh ChaCha8 streams from
//! a continuation seed (mixed from the config seed and the rounds
//! already executed), because mid-run RNG states are deliberately not
//! part of the snapshot format. What **is** exact, and what the
//! `crash-recovery` suite pins, is conservation:
//!
//! * the resumed run is itself deterministic — resuming the same
//!   checkpoint twice is bit-identical;
//! * no falsification is re-applied: byzantine inputs were falsified
//!   when the run started, and the checkpointed pairs already carry it;
//! * the mass invariant spans the restart: with the merged ledger `L`
//!   and the *original* initial total `I`,
//!   `Σ final pairs ≈ L.expected_total(I)` to 1e-9, faulty transport
//!   or not.

use crate::runner::{run_segment, DistributedConfig, DistributedOutcome};
use crate::transport::{FaultyNetwork, MassLedger};
use dg_gossip::pair::GossipPair;
use dg_gossip::GossipError;
use dg_graph::Graph;
use dg_store::{read_gossip, write_gossip, ByteReader, ByteWriter, StoreError};
use std::path::Path;

/// Frozen state of a distributed run after some number of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipCheckpoint {
    /// Rounds executed before the checkpoint.
    pub rounds: usize,
    /// The seed the run started from (informational; the continuation
    /// stream is derived from the *config's* seed and [`rounds`](Self::rounds)).
    pub seed: u64,
    /// The summed initial pair the run started from, after byzantine
    /// falsification — the fixed point mass conservation is checked
    /// against across every restart.
    pub initial_total: GossipPair,
    /// Per-peer gossip pairs at checkpoint time.
    pub pairs: Vec<GossipPair>,
    /// Rounds in which each peer actively pushed, so far.
    pub active_rounds: Vec<u64>,
    /// Mass accounting accumulated so far.
    pub ledger: MassLedger,
}

impl GossipCheckpoint {
    /// Persist to a framed, checksummed snapshot file. The payload is,
    /// little-endian: `rounds`, `seed`, `initial_total`, the ledger's
    /// `lost`, `duplicated` and `recredited` pairs and its four counters,
    /// then the `u32`-counted `pairs` and `active_rounds` (a pair is its
    /// value then its weight, as raw `f64` bits).
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let mut w = ByteWriter::new();
        w.put_u64(self.rounds as u64);
        w.put_u64(self.seed);
        put_pair(&mut w, self.initial_total);
        let l = &self.ledger;
        for pair in [l.lost, l.duplicated, l.recredited] {
            put_pair(&mut w, pair);
        }
        for count in [
            l.shares_lost,
            l.shares_duplicated,
            l.shares_recredited,
            l.announces_lost,
        ] {
            w.put_u64(count);
        }
        w.put_u32(self.pairs.len() as u32);
        for &pair in &self.pairs {
            put_pair(&mut w, pair);
        }
        w.put_u32(self.active_rounds.len() as u32);
        for &rounds in &self.active_rounds {
            w.put_u64(rounds);
        }
        write_gossip(path, &w.into_bytes())
    }

    /// Load a checkpoint saved by [`save`](Self::save). Truncated or
    /// garbled files surface as typed [`StoreError`]s, never a panic.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let payload = read_gossip(path)?;
        Self::decode(&mut ByteReader::new(&payload)).map_err(|reason| StoreError::Corrupt {
            path: path.display().to_string(),
            reason,
        })
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, String> {
        let rounds = r.get_u64("rounds")? as usize;
        let seed = r.get_u64("seed")?;
        let initial_total = get_pair(r, "initial total")?;
        let ledger = MassLedger {
            lost: get_pair(r, "lost mass")?,
            duplicated: get_pair(r, "duplicated mass")?,
            recredited: get_pair(r, "recredited mass")?,
            shares_lost: r.get_u64("shares lost")?,
            shares_duplicated: r.get_u64("shares duplicated")?,
            shares_recredited: r.get_u64("shares recredited")?,
            announces_lost: r.get_u64("announces lost")?,
        };
        let pairs = (0..r.get_len("pair list", 16)?)
            .map(|_| get_pair(r, "pair"))
            .collect::<Result<_, _>>()?;
        let active_rounds = (0..r.get_len("active-round list", 8)?)
            .map(|_| r.get_u64("active rounds"))
            .collect::<Result<_, _>>()?;
        if !r.is_empty() {
            return Err("trailing bytes after gossip checkpoint".into());
        }
        Ok(Self {
            rounds,
            seed,
            initial_total,
            pairs,
            active_rounds,
            ledger,
        })
    }
}

fn put_pair(w: &mut ByteWriter, pair: GossipPair) {
    w.put_f64(pair.value);
    w.put_f64(pair.weight);
}

fn get_pair(r: &mut ByteReader<'_>, what: &str) -> Result<GossipPair, String> {
    Ok(GossipPair {
        value: r.get_f64(what)?,
        weight: r.get_f64(what)?,
    })
}

impl DistributedOutcome {
    /// Freeze this outcome as a resumable checkpoint. `seed` is the
    /// seed the run was configured with (recorded for provenance).
    pub fn checkpoint(&self, seed: u64) -> GossipCheckpoint {
        GossipCheckpoint {
            rounds: self.rounds,
            seed,
            initial_total: self.initial_total,
            pairs: self.pairs.clone(),
            active_rounds: self.active_rounds.clone(),
            ledger: self.ledger,
        }
    }
}

/// The continuation stream seed: a SplitMix64 mix of the config seed
/// and the rounds already executed, so each resume segment gets fresh,
/// deterministic per-peer and per-link streams that never collide with
/// the original run's.
fn continuation_seed(seed: u64, rounds_done: u64) -> u64 {
    let mut z = seed
        ^ 0x5851_F42D_4C95_7F2D_u64
        ^ rounds_done
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Continue a distributed run from a checkpoint.
///
/// The outcome reports the run *as a whole*: `rounds`, `active_rounds`
/// and the `ledger` merge the checkpointed history with the new
/// segment, and `initial_total` is carried from the original start so
/// `total_pair ≈ ledger.expected_total(initial_total)` keeps holding
/// across arbitrarily many restarts. `config.max_rounds` caps the new
/// segment (not the combined total). Byzantine falsification is **not**
/// re-applied — the checkpointed pairs already carry it. See the module
/// docs for what is exact versus statistical about the continuation.
pub fn resume_distributed(
    graph: &Graph,
    config: DistributedConfig,
    checkpoint: GossipCheckpoint,
) -> Result<DistributedOutcome, GossipError> {
    let profile = config.profile.validated()?;
    config.adversary.validated()?;
    let n = graph.node_count();
    if checkpoint.pairs.len() != n || checkpoint.active_rounds.len() != n {
        return Err(GossipError::StateSizeMismatch {
            given: checkpoint.pairs.len().min(checkpoint.active_rounds.len()),
            expected: n,
        });
    }
    let stream_seed = continuation_seed(config.seed, checkpoint.rounds as u64);
    let transport = FaultyNetwork::new(n, profile, stream_seed, config.max_rounds as u64);
    let segment = run_segment(
        graph,
        config,
        checkpoint.pairs,
        transport,
        stream_seed,
        checkpoint.initial_total,
    )?;

    let mut ledger = checkpoint.ledger;
    ledger.merge(&segment.ledger);
    Ok(DistributedOutcome {
        rounds: checkpoint.rounds + segment.rounds,
        converged: segment.converged,
        estimates: segment.estimates,
        pairs: segment.pairs,
        active_rounds: checkpoint
            .active_rounds
            .iter()
            .zip(&segment.active_rounds)
            .map(|(a, b)| a + b)
            .collect(),
        audits_answered: segment.audits_answered,
        ledger,
        initial_total: checkpoint.initial_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_distributed;
    use dg_gossip::profile::NetworkProfile;
    use dg_graph::{generators, pa};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn averaging_initial(values: &[f64]) -> Vec<GossipPair> {
        values.iter().map(|&v| GossipPair::originator(v)).collect()
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dg_gossip_ckpt_{tag}_{}.bin", std::process::id()))
    }

    #[test]
    fn checkpoint_save_load_round_trips_bit_exact() {
        let g = generators::complete(10);
        let values: Vec<f64> = (0..10).map(|i| i as f64 / 9.0).collect();
        let config = DistributedConfig {
            max_rounds: 5,
            xi: 1e-12,
            ..DistributedConfig::default()
        };
        let out = run_distributed(&g, config, averaging_initial(&values)).unwrap();
        let ckpt = out.checkpoint(config.seed);
        let mut signed_zero = ckpt.clone();
        signed_zero.pairs[1].value = -0.0;
        // `PartialEq` calls -0.0 equal to 0.0; the bits must survive too.
        let bits = |c: &GossipCheckpoint| -> Vec<(u64, u64)> {
            c.pairs
                .iter()
                .map(|p| (p.value.to_bits(), p.weight.to_bits()))
                .collect()
        };
        let path = temp_file("roundtrip");
        for ckpt in [ckpt, signed_zero] {
            ckpt.save(&path).unwrap();
            let back = GossipCheckpoint::load(&path).unwrap();
            assert_eq!(back, ckpt);
            assert_eq!(bits(&back), bits(&ckpt));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_run_converges_to_the_conserved_mean() {
        let g = generators::complete(16);
        let values: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
        let mean = values.iter().sum::<f64>() / 16.0;

        // Kill after 3 rounds (well before convergence)...
        let partial = run_distributed(
            &g,
            DistributedConfig {
                max_rounds: 3,
                xi: 1e-12,
                ..DistributedConfig::default()
            },
            averaging_initial(&values),
        )
        .unwrap();
        assert!(!partial.converged);
        let ckpt = partial.checkpoint(0);

        // ...and resume to completion: push-sum conserves mass, so the
        // limit is the same mean a straight run reaches.
        let resumed = resume_distributed(&g, DistributedConfig::default(), ckpt).unwrap();
        assert!(
            resumed.converged,
            "resume hit the cap at {}",
            resumed.rounds
        );
        assert!(resumed.rounds > 3, "rounds must include the first segment");
        for (i, e) in resumed.estimates.iter().enumerate() {
            assert!((e - mean).abs() < 1e-3, "peer {i}: {e} vs {mean}");
        }
        // Active-round history spans both segments.
        assert!(resumed
            .active_rounds
            .iter()
            .zip(&partial.active_rounds)
            .all(|(total, first)| total >= first));
    }

    #[test]
    fn resume_is_deterministic() {
        let g = generators::complete(12);
        let values: Vec<f64> = (0..12).map(|i| ((i * 5) % 7) as f64 / 7.0).collect();
        let partial = run_distributed(
            &g,
            DistributedConfig {
                max_rounds: 2,
                xi: 1e-12,
                ..DistributedConfig::default()
            },
            averaging_initial(&values),
        )
        .unwrap();
        let ckpt = partial.checkpoint(0);
        let a = resume_distributed(&g, DistributedConfig::default(), ckpt.clone()).unwrap();
        let b = resume_distributed(&g, DistributedConfig::default(), ckpt).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mass_ledger_balances_across_restart_on_lossy_transport() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 50, m: 2 }, &mut rng).unwrap();
        let values: Vec<f64> = (0..50).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let config = DistributedConfig {
            xi: 1e-4,
            seed: 21,
            max_rounds: 40,
            profile: NetworkProfile::lossy(),
            ..DistributedConfig::default()
        };
        let partial = run_distributed(&g, config, averaging_initial(&values)).unwrap();
        let ckpt = partial.checkpoint(config.seed);

        // Persist through the store codec mid-way, like a real restart.
        let path = temp_file("lossy");
        ckpt.save(&path).unwrap();
        let ckpt = GossipCheckpoint::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let resumed = resume_distributed(
            &g,
            DistributedConfig {
                max_rounds: 5_000,
                ..config
            },
            ckpt,
        )
        .unwrap();
        assert!(resumed.converged, "lossy resume hit the cap");
        // The merged ledger balances against the original initial
        // total: final = initial − lost + duplicated, across both
        // process lifetimes.
        let expected = resumed.ledger.expected_total(resumed.initial_total);
        let actual = resumed.total_pair();
        assert!(
            (actual.value - expected.value).abs() < 1e-9,
            "value {} vs {}",
            actual.value,
            expected.value
        );
        assert!(
            (actual.weight - expected.weight).abs() < 1e-9,
            "weight {} vs {}",
            actual.weight,
            expected.weight
        );
    }

    #[test]
    fn resume_rejects_mismatched_network_size() {
        let g = generators::complete(6);
        let ckpt = GossipCheckpoint {
            rounds: 1,
            seed: 0,
            initial_total: GossipPair::ZERO,
            pairs: vec![GossipPair::ZERO; 5],
            active_rounds: vec![0; 5],
            ledger: MassLedger::default(),
        };
        let err = resume_distributed(&g, DistributedConfig::default(), ckpt);
        assert!(matches!(err, Err(GossipError::StateSizeMismatch { .. })));
    }

    #[test]
    fn truncated_checkpoint_file_is_a_typed_error() {
        let g = generators::complete(8);
        let values = vec![0.5; 8];
        let out = run_distributed(
            &g,
            DistributedConfig {
                max_rounds: 2,
                xi: 1e-12,
                ..DistributedConfig::default()
            },
            averaging_initial(&values),
        )
        .unwrap();
        let path = temp_file("trunc");
        out.checkpoint(0).save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut at every eighth of the file, the half among them.
        for eighth in 0..8 {
            std::fs::write(&path, &bytes[..bytes.len() * eighth / 8]).unwrap();
            match GossipCheckpoint::load(&path) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("cut at {eighth}/8: expected Corrupt, got {other:?}"),
            }
        }
        // A sound frame around a short payload fails in the decoder.
        std::fs::write(&path, &bytes).unwrap();
        let payload = read_gossip(&path).unwrap();
        write_gossip(&path, &payload[..payload.len() - 1]).unwrap();
        match GossipCheckpoint::load(&path) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("active"), "{reason}")
            }
            other => panic!("short payload: expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
