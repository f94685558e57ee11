//! Reproducibility: every layer is a pure function of its seed.

mod model;

use model::Op::Run;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use differential_gossip::core::algorithms::alg3;
use differential_gossip::gossip::FanoutPolicy;
use differential_gossip::gossip::GossipConfig;
use differential_gossip::sim::experiments::{collusion_experiment, steps_experiment};
use differential_gossip::sim::{RunConfig, Scenario};

/// Pin the concrete ChaCha8 stream for the workspace's canonical seed.
///
/// Every experiment in the repository keys its reproducibility off
/// `ChaCha8Rng::seed_from_u64`; if the vendored generator's stream ever
/// changes (seed expansion, word order, round count), every recorded
/// experiment table silently shifts. This test makes such a change loud.
#[test]
fn chacha8_seed_42_stream_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            3536907876931541756,
            1681417456739323905,
            17856965759995586207,
            13339797155766290778,
        ]
    );

    // The f64 mapping (53 mantissa bits in [0, 1)) is part of the contract
    // too: it is what every simulation actually consumes.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let floats: Vec<f64> = (0..3).map(|_| rng.random::<f64>()).collect();
    for (got, want) in
        floats
            .iter()
            .zip([0.1917361602025135, 0.09114982297259133, 0.968028053549324])
    {
        assert!((got - want).abs() < 1e-15, "{got} vs {want}");
    }

    // Clones continue the stream identically from the fork point.
    let mut a = ChaCha8Rng::seed_from_u64(7);
    a.next_u64();
    let mut b = a.clone();
    assert_eq!(a.next_u64(), b.next_u64());
}

#[test]
fn scenarios_are_bit_reproducible() {
    let cfg = RunConfig {
        nodes: 150,
        seed: 321,
        free_rider_fraction: 0.2,
        far_partners: 5,
        ..RunConfig::default()
    };
    let a = Scenario::build(cfg).expect("scenario");
    let b = Scenario::build(cfg).expect("scenario");
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.trust(), b.trust());
    assert_eq!(a.population, b.population);
}

#[test]
fn gossip_runs_are_reproducible_given_the_same_stream() {
    let s = Scenario::build(RunConfig::with_nodes(80).with_seed(9)).expect("scenario");
    let system = s.system().expect("system");
    let config = GossipConfig::differential(1e-6).expect("config");
    let out1 = alg3::run(&system, config, &mut s.gossip_rng(5)).expect("run");
    let out2 = alg3::run(&system, config, &mut s.gossip_rng(5)).expect("run");
    assert_eq!(out1, out2);
    // A different stream gives a different trajectory (but the same limit).
    let out3 = alg3::run(&system, config, &mut s.gossip_rng(6)).expect("run");
    assert!(out1.steps != out3.steps || out1.estimates != out3.estimates);
}

#[test]
fn experiment_sweeps_are_reproducible_despite_rayon() {
    let a =
        steps_experiment(&[100, 300], &[1e-3], &[FanoutPolicy::Differential], 77).expect("sweep");
    let b =
        steps_experiment(&[100, 300], &[1e-3], &[FanoutPolicy::Differential], 77).expect("sweep");
    assert_eq!(a, b);

    let c = collusion_experiment(100, &[0.3], &[3], 13).expect("sweep");
    let d = collusion_experiment(100, &[0.3], &[3], 13).expect("sweep");
    assert_eq!(c, d);
}

#[test]
fn rounds_simulation_is_reproducible() {
    // The model's candidate and oracle are two independent sequential
    // runs of one config: they must agree bit for bit after every round.
    let config = RunConfig::with_nodes(60).with_seed(2).with_free_riders(0.2);
    model::check(config.with_quality_range(0.4, 1.0), &[Run(1), Run(2)]);
}
