//! Round-engine micro-benchmarks: sequential reference driver vs the
//! sharded and incremental engines on the same pinned scenario, plus
//! the sharded-CSR-vs-dynamic trust build underneath them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dg_gossip::EngineKind;
use dg_graph::NodeId;
use dg_sim::rounds::AggregationScope;
use dg_sim::{build_engine, RunConfig, Scenario};
use dg_trust::{ShardSpec, TrustMatrix, TrustValue};
use rand::RngCore;
use std::sync::Arc;

fn scenario(nodes: usize, engine: EngineKind) -> Arc<Scenario> {
    let built = Scenario::build(RunConfig {
        nodes,
        seed: 42,
        free_rider_fraction: 0.25,
        quality_range: (0.4, 1.0),
        engine,
        rounds: 3,
        requests_per_edge: 20,
        scope: AggregationScope::Neighbourhood,
        // Real cross-shard assembly, not the degenerate single-shard
        // path auto would pick at 1000 nodes.
        shard_count: 4,
        ..RunConfig::default()
    });
    Arc::new(built.expect("scenario builds"))
}

fn bench_round_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("rounds/engine");
    group.sample_size(3);
    for engine in EngineKind::ALL {
        let s = scenario(1000, engine);
        group.bench_with_input(
            BenchmarkId::new("lifecycle_1000x3", engine.label()),
            &s,
            |b, s| {
                b.iter(|| {
                    let mut sim = build_engine(Arc::clone(s), &s.config);
                    let mut rng = s.gossip_rng(1);
                    (0..s.config.rounds)
                        .map(|_| sim.run_round(rng.next_u64()).expect("round"))
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

fn bench_trust_build(c: &mut Criterion) {
    let s = scenario(5000, EngineKind::Sequential);
    let entries: Vec<(NodeId, NodeId, TrustValue)> = s.trust.entries().collect();
    let n = s.graph.node_count();

    let mut group = c.benchmark_group("rounds/trust_build");
    group.sample_size(5);
    group.bench_with_input(BenchmarkId::from_parameter("dynamic"), &entries, |b, e| {
        b.iter(|| {
            let mut m = TrustMatrix::new(n);
            for &(i, j, t) in e {
                m.set(i, j, t).expect("in range");
            }
            m
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("csr"), &entries, |b, e| {
        b.iter(|| {
            let mut builder = TrustMatrix::sharded_builder(ShardSpec::new(n, 1));
            for &(i, j, t) in e {
                builder.set(i, j, t).expect("in range");
            }
            TrustMatrix::from_sharded(builder.build())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_round_engines, bench_trust_build);
criterion_main!(benches);
