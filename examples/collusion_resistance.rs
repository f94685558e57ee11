//! Collusion resistance — Section 5.2 in action.
//!
//! 30% of peers form colluding groups that endorse each other (report 1)
//! and bad-mouth everyone else (report 0) in the gossip channel. The
//! example compares three estimates of an honest node's reputation:
//!
//! * the clean reference (everyone honest),
//! * the unweighted global estimate under collusion (GossipTrust-style),
//! * the paper's weighted GCLR under collusion,
//!
//! and prints the Eq. (18) average RMS error plus the Eq. (17) predicted
//! error-shrink factor.
//!
//! Run with:
//! ```text
//! cargo run --release --example collusion_resistance
//! ```

use differential_gossip::core::collusion::{
    average_rms_error, theory, ColludedAggregates, CollusionScheme, GroupAssignment,
};
use differential_gossip::graph::NodeId;
use differential_gossip::sim::scenario::Topology;
use differential_gossip::sim::{RunConfig, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Section 5.2 idealisation: a complete interaction graph, so the
    // weighted neighbour channel has full coverage and the Eq. (17)
    // shrink is visible at full strength.
    let config = RunConfig {
        nodes: 200,
        topology: Topology::Complete,
        weight_a: 4.0,
        weight_b: 2.0,
        seed: 99,
        ..RunConfig::default()
    };
    let scenario = Scenario::build(config)?;
    let system = scenario.system()?;
    let n = scenario.graph.node_count();

    let scheme = CollusionScheme::new(0.3, 5)?;
    let mut rng = scenario.gossip_rng(3);
    let assignment = GroupAssignment::assign(n, scheme, &mut rng)?;
    let view = ColludedAggregates::new(system.trust(), &assignment);
    println!(
        "{} peers, {} colluders in {} groups of ≤5\n",
        n,
        assignment.colluder_count(),
        assignment.group_count()
    );

    // A look at one honest victim and one colluder.
    let victim = (0..n as u32)
        .map(NodeId)
        .find(|&v| !assignment.is_colluder(v))
        .expect("someone is honest");
    let colluder = (0..n as u32)
        .map(NodeId)
        .find(|&v| assignment.is_colluder(v))
        .expect("someone colludes");
    for (label, node) in [("honest victim", victim), ("colluder", colluder)] {
        println!(
            "{label} {node}: clean {:.4} | colluded global {:.4} | colluded GCLR (observer 0) {:.4}",
            view.global_clean(node).unwrap_or(f64::NAN),
            view.global_colluded(node).unwrap_or(f64::NAN),
            view.gclr_colluded(&system, NodeId(0), node, false)
                .unwrap_or(f64::NAN),
        );
    }

    // Network-wide Eq. (18) error.
    let subjects: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let rms_global = average_rms_error(
        n,
        &subjects,
        |_, j| view.global_colluded(j),
        |_, j| view.global_clean(j),
    );
    let rms_gclr = average_rms_error(
        n,
        &subjects,
        |i, j| view.gclr_colluded(&system, i, j, false),
        |i, j| view.gclr_clean(&system, i, j),
    );

    let mean_excess = (0..n)
        .map(|i| system.neighbour_excess_sum(NodeId(i as u32)))
        .sum::<f64>()
        / n as f64;
    let predicted = theory::shrink_factor(n, mean_excess);

    println!("\naverage RMS error (Eq. 18):");
    println!("  unweighted global estimate : {rms_global:.4}");
    println!("  weighted GCLR (this paper) : {rms_gclr:.4}");
    println!(
        "  measured shrink            : {:.4}",
        rms_gclr / rms_global
    );
    println!("  Eq. (17) predicted shrink  : {predicted:.4}");
    Ok(())
}
