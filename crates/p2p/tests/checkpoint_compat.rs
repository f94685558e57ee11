//! The distributed checkpoint's file layout is pinned: a file written
//! by an older build loads, and saving what it loaded rewrites it byte
//! for byte.

use dg_p2p::GossipCheckpoint;
use std::path::Path;

#[test]
fn a_committed_checkpoint_loads_and_resaves_byte_for_byte() {
    // `fixtures/gossip-12.bin` was written by 2b1ef3e's
    // `GossipCheckpoint::save` after a 6-round lossy run on 12 peers,
    // with one pair's value set to -0.0 —
    //     let graph = preferential_attachment(PaConfig { nodes: 12, m: 2 },
    //         &mut ChaCha8Rng::seed_from_u64(5))?;
    //     let initial = (0..12).map(|i| GossipPair::originator(i as f64 / 11.0)).collect();
    //     let config = DistributedConfig { xi: 1e-12, seed: 9, max_rounds: 6,
    //         profile: NetworkProfile::lossy(), ..DistributedConfig::default() };
    //     let mut ckpt = run_distributed(&graph, config, initial)?.checkpoint(config.seed);
    //     ckpt.pairs[4].value = -0.0;
    //     ckpt.save(path)?;
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gossip-12.bin");
    let ckpt = GossipCheckpoint::load(&fixture).expect("fixture loads");
    assert_eq!((ckpt.rounds, ckpt.seed), (6, 9));
    assert_eq!((ckpt.pairs.len(), ckpt.active_rounds.len()), (12, 12));
    assert_eq!(ckpt.pairs[4].value.to_bits(), (-0.0f64).to_bits());
    assert_eq!(
        (ckpt.ledger.shares_duplicated, ckpt.ledger.shares_recredited),
        (2, 7)
    );

    let path = std::env::temp_dir().join(format!("dg_p2p_ckpt_compat_{}.bin", std::process::id()));
    ckpt.save(&path).expect("re-save");
    let (old, new) = (
        std::fs::read(&fixture).unwrap(),
        std::fs::read(&path).unwrap(),
    );
    let _ = std::fs::remove_file(&path);
    assert!(old == new, "re-saved checkpoint differs from the fixture");
}
