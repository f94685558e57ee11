//! Whole one-subject push-sum runs, pinned: every shape the experiment
//! binaries, Algorithm 1, the examples and the root tests run, with and
//! without loss and churn. Each pin is the run's steps, whether it
//! converged, its total messages and active node-steps, an FNV-1a fold of
//! every node's `(y, g)` bits and presence, and the departed count; the
//! Table 1 pin folds every node's ratio after every step instead.

use dg_gossip::loss::{ChurnModel, LossModel};
use dg_gossip::{FanoutPolicy, GossipConfig, GossipPair, VectorGossip, VectorOutcome};
use dg_graph::{generators, pa, Graph, GraphBuilder, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn fnv(fold: u64, word: u64) -> u64 {
    (fold ^ word).wrapping_mul(0x0100_0000_01b3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(steps, converged, messages, active node-steps, fold, departed)`.
type Pin = (usize, bool, u64, u64, u64, usize);

fn pin(out: &VectorOutcome) -> Pin {
    let mut fold = FNV_OFFSET;
    for (i, &present) in out.present.iter().enumerate() {
        let mut vector = out.vector(NodeId(i as u32));
        let pair = vector
            .find(|&(j, _)| j == 0)
            .map(|(_, e)| e)
            .unwrap_or_default();
        for word in [
            pair.value.to_bits(),
            pair.weight.to_bits(),
            u64::from(present),
        ] {
            fold = fnv(fold, word);
        }
    }
    (
        out.steps,
        out.converged,
        out.stats.total(),
        out.stats.active_per_step.iter().sum(),
        fold,
        out.present.iter().filter(|&&p| !p).count(),
    )
}

fn run(graph: &Graph, config: GossipConfig, initial: Vec<GossipPair>, seed: u64) -> Pin {
    pin(&VectorGossip::one_subject(graph, config, initial)
        .unwrap()
        .run(&mut rng(seed)))
}

fn average(graph: &Graph, config: GossipConfig, values: &[f64], seed: u64) -> Pin {
    run(
        graph,
        config,
        values.iter().map(|&v| GossipPair::originator(v)).collect(),
        seed,
    )
}

fn pa(nodes: usize, m: usize, seed: u64) -> Graph {
    pa::preferential_attachment(pa::PaConfig { nodes, m }, &mut rng(seed)).unwrap()
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 23) as f64 / 23.0).collect()
}

#[test]
fn one_subject_runs_are_pinned_to_the_scalar_engine() {
    let g = pa(1000, 2, 1);
    let vals = values(1000);
    let sticky = GossipConfig::differential(1e-4)
        .unwrap()
        .with_sticky_announcements();

    // fig3 / table2: every node an originator, sticky announcements.
    let averaging = average(&g, sticky, &vals, 2);
    // The revocable default.
    let revocable = average(&g, GossipConfig::differential(1e-6).unwrap(), &vals, 3);
    // Uniform 2-push.
    let uniform = average(
        &g,
        GossipConfig::differential(1e-5)
            .unwrap()
            .with_fanout(FanoutPolicy::Uniform(2)),
        &vals,
        4,
    );
    // fig4: 20% loss.
    let lossy = average(&g, sticky.with_loss(LossModel::new(0.2).unwrap()), &vals, 5);

    // churn_tolerance: 1% departures per step, at most 200.
    let g2000 = pa(2000, 2, 31);
    let churn = GossipConfig::differential(1e-6)
        .unwrap()
        .with_churn(ChurnModel::new(0.01, 200).unwrap());
    let churning = average(&g2000, churn, &values(2000), 77);
    // degradation's `churning` row: churn beside loss, sticky.
    let churning_lossy = average(
        &g,
        sticky
            .with_loss(LossModel::new(0.02).unwrap())
            .with_churn(ChurnModel::new(0.01, 200).unwrap()),
        &vals,
        6,
    );
    // Heavy churn on a tree with isolated nodes: leaves are stranded and
    // cascade, and a node with no present neighbour hands over to the
    // lowest-id survivor.
    let mut b = GraphBuilder::new(90);
    let tree = pa(80, 1, 7);
    for v in tree.nodes() {
        for &w in tree.neighbours(v) {
            if v.0 < w {
                b.add_edge(v.0, w).unwrap();
            }
        }
    }
    let stranding = average(
        &b.build(),
        GossipConfig::differential(1e-6)
            .unwrap()
            .with_churn(ChurnModel::new(0.1, 40).unwrap()),
        &values(90),
        8,
    );

    // alg1's sum mode: opinion holders carry `(t, 1)`, everybody else
    // `ZERO` — and still draws targets and pushes.
    let mut initial = vec![GossipPair::ZERO; 1000];
    for &i in g.neighbours(dg_graph::NodeId(5)) {
        initial[i as usize] = GossipPair::originator(f64::from(i % 10) / 10.0);
    }
    let alg1 = run(&g, GossipConfig::default(), initial, 9);

    // A churning run stopped by the step cap.
    let capped = average(&g2000, churn.with_max_steps(40), &values(2000), 11);

    assert_eq!(
        averaging,
        (77, true, 46_175, 39_445, 0xf3cd_042b_6b28_e6f2, 0)
    );
    assert_eq!(
        revocable,
        (152, true, 123_958, 109_187, 0xae35_c0a5_e01d_780e, 0)
    );
    assert_eq!(
        uniform,
        (128, true, 129_012, 64_506, 0x3a4b_0077_48a1_fe5c, 0)
    );
    assert_eq!(lossy, (106, true, 54_099, 45_970, 0x56a2_ab08_d5a8_7dc5, 0));
    assert_eq!(
        churning,
        (453, true, 436_006, 381_632, 0xe4b6_6ab1_001d_6000, 209)
    );
    assert_eq!(
        churning_lossy,
        (141, true, 44_846, 37_206, 0xdddb_92d3_5c89_3405, 210)
    );
    assert_eq!(stranding, (34, true, 612, 588, 0xbe82_6aea_be76_cea4, 69));
    assert_eq!(
        capped,
        (40, false, 80_162, 72_396, 0x4fab_697e_26bf_bd14, 213)
    );
    assert_eq!(alg1, (127, true, 94_923, 82_853, 0xe0d1_4140_6e44_aa99, 0));
}

/// Table 1: the ratio at every node of the Fig. 2 topology after each
/// of ten steps.
#[test]
fn table1_rows_are_pinned_to_the_scalar_engine() {
    let graph = generators::paper_example();
    let initial: Vec<f64> = (0..graph.node_count())
        .map(|i| 0.05 + 0.09 * i as f64)
        .collect();
    let config = GossipConfig::differential(1e-6).unwrap().with_max_steps(10);
    let pairs = initial.iter().map(|&v| GossipPair::originator(v)).collect();
    let mut engine = VectorGossip::one_subject(&graph, config, pairs).unwrap();
    let mut rng = rng(10);
    let mut fold = FNV_OFFSET;
    for _ in 0..10 {
        engine.step(&mut rng);
        for ratio in engine.ratios(0) {
            fold = fnv(fold, ratio.to_bits());
        }
    }
    assert_eq!(fold, 0x553a_c62e_f099_ce88);
}
