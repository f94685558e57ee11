//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root must say exactly what these
//! tables say (a test compares them), so the driver, `--compare` and
//! the README glossary cannot drift apart.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, failures).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and why it exists.
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
}

/// One metric.
pub struct Metric {
    /// Name (letters, digits, `_`, `.`, `-`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before `--compare` (and the driver) reject.
    pub bound: Option<f64>,
    /// A count that repeats exactly for a given seed: `--compare`
    /// requires it identical between two sets of the same commit.
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

/// `setup_s` may also worsen by this many seconds before it counts: a
/// 40 ms set-up moving by 10 ms is scheduler noise, not a regression.
pub const SETUP_FLOOR_S: f64 = 0.1;

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "gossip_converge",
        why: "The paper's algorithm: alg2 differential gossip to convergence on a 50,000-node PA graph; only dg-gossip and dg-core run, so engine, serve and store changes must leave it flat.",
    },
    Workload {
        name: "rounds_dense",
        why: "RunSession at 100,000 nodes, 50 requests per edge, full traffic, sharded engine: every row is rebuilt every round, so transact, estimate and the aggregation sweep dominate.",
    },
    Workload {
        name: "rounds_skewed",
        why: "RunSession at 500,000 nodes, 1% Zipf traffic, incremental engine: about 0.6% of rows are dirty, so the delta path dominates; a dense gain that costs the delta path shows here.",
    },
    Workload {
        name: "serve_mixed",
        why: "dg-serve on the rounds_skewed config: pipelined queries and 1,000 ingests/s over TCP beside rounds on a fixed interval, so codec, snapshot publish and core contention are in the path.",
    },
    Workload {
        name: "persist_cycle",
        why: "RunSession on the rounds_skewed config resumed from a dg-store directory, then cycling 4 rounds and a checkpoint: store writes and reads dominate; rounds_skewed is its bypass twin.",
    },
];

/// What a user of the system sees. Every workload reports every one of
/// these and none is ever zero; what `op` and `work` mean per workload
/// is tabulated in the README.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("peak_rss_mib", "MiB", Better::Lower, 0.10),
    gated("op_s_p50", "s", Better::Lower, 0.25),
    gated("work_per_s", "1/s", Better::Higher, 0.25),
];

/// What single layers did, taken from outside them in a traced run. A
/// layer a workload never calls reports zero — that *is* the bypass
/// prediction, made checkable.
pub const PER_LAYER: &[Metric] = &[
    // --- validity of the run itself ---
    layer("host.machine_threads", "count", Better::Higher),
    layer("host.rayon_threads", "count", Better::Higher),
    layer("host.cpu_s", "s", Better::Lower),
    layer("host.steal_s", "s", Better::Lower),
    layer("host.disturbed", "count", Better::Lower),
    layer("harness.wall_s", "s", Better::Lower),
    layer("harness.measured_s", "s", Better::Lower),
    layer("harness.spans", "count", Better::Lower),
    layer("harness.traced_op_s_p50", "s", Better::Lower),
    // --- dg-graph ---
    layer("graph.pa_build_s", "s", Better::Lower),
    exact("graph.edges", "count"),
    // --- dg-sim: set-up ---
    layer("sim.scenario_build_s", "s", Better::Lower),
    layer("sim.session_new_s", "s", Better::Lower),
    layer("sim.warmup_round_s", "s", Better::Lower),
    // --- dg-sim: rounds ---
    layer("sim.rounds", "count", Better::Higher),
    layer("sim.round_s_p50", "s", Better::Lower),
    layer("sim.round_s_p90", "s", Better::Lower),
    layer("sim.round_s_max", "s", Better::Lower),
    exact("sim.requests_per_round", "count"),
    exact("sim.active_nodes", "count"),
    exact("sim.dirty_fraction", "ratio"),
    exact("sim.report_entries", "count"),
    layer("sim.ns_per_request", "ns", Better::Lower),
    layer("sim.ns_per_edge_fixed", "ns", Better::Lower),
    layer("sim.us_per_dirty_row", "us", Better::Lower),
    layer("sim.thread_speedup", "ratio", Better::Higher),
    layer("sim.machine_width_round_s", "s", Better::Lower),
    layer("sim.sequential_round_s", "s", Better::Lower),
    layer("sim.engine.parallel.round_s", "s", Better::Lower),
    layer("sim.engine.sharded1.round_s", "s", Better::Lower),
    layer("sim.engine.incremental.round_s", "s", Better::Lower),
    layer("sim.engine.sharded.round_s", "s", Better::Lower),
    // --- dg-sim: session persistence and publishing ---
    layer("sim.checkpoint_full_s", "s", Better::Lower),
    layer("sim.checkpoint_delta_s_p50", "s", Better::Lower),
    layer("sim.resume_s", "s", Better::Lower),
    layer("sim.checkpoint_extract_s", "s", Better::Lower),
    layer("sim.restore_rebuild_s", "s", Better::Lower),
    layer("sim.publish_input_s", "s", Better::Lower),
    // --- dg-trust ---
    layer("trust.snapshot_build_s", "s", Better::Lower),
    layer("trust.snapshot_next_round_s", "s", Better::Lower),
    layer("trust.snapshot_load_ns", "ns", Better::Lower),
    layer("trust.reputation_ns", "ns", Better::Lower),
    layer("trust.top_k16_ns", "ns", Better::Lower),
    layer("trust.percentile_ns", "ns", Better::Lower),
    // --- dg-serve ---
    layer("serve.encode_request_ns", "ns", Better::Lower),
    layer("serve.decode_request_ns", "ns", Better::Lower),
    layer("serve.encode_response_ns", "ns", Better::Lower),
    layer("serve.decode_response_ns", "ns", Better::Lower),
    layer("serve.encode_topk16_response_ns", "ns", Better::Lower),
    layer("serve.decode_topk16_response_ns", "ns", Better::Lower),
    layer("serve.batch_rtt_p50_us", "us", Better::Lower),
    layer("serve.batch_rtt_p99_us", "us", Better::Lower),
    layer("serve.call_reputation_p50_us", "us", Better::Lower),
    layer("serve.call_reputation_p99_us", "us", Better::Lower),
    layer("serve.call_reputation_p999_us", "us", Better::Lower),
    layer("serve.call_topk_p50_us", "us", Better::Lower),
    layer("serve.call_topk_p99_us", "us", Better::Lower),
    layer("serve.call_topk_p999_us", "us", Better::Lower),
    layer("serve.call_percentile_p50_us", "us", Better::Lower),
    layer("serve.call_percentile_p99_us", "us", Better::Lower),
    layer("serve.call_percentile_p999_us", "us", Better::Lower),
    layer("serve.ingest_ack_p50_us", "us", Better::Lower),
    layer("serve.ingest_ack_p99_us", "us", Better::Lower),
    layer("serve.queries_per_s_loaded", "1/s", Better::Higher),
    layer("serve.queries_per_s_idle", "1/s", Better::Higher),
    layer("serve.round_overhead_s", "s", Better::Lower),
    layer("serve.ingest_accepted", "count", Better::Higher),
    layer("serve.ingest_shed", "count", Better::Lower),
    layer("serve.rounds_completed", "count", Better::Higher),
    layer("serve.round_late_max_s", "s", Better::Lower),
    layer("serve.ingest_late_max_s", "s", Better::Lower),
    // --- dg-store ---
    layer("store.write_epoch_s", "s", Better::Lower),
    layer("store.write_mb_per_s", "MB/s", Better::Higher),
    layer("store.write_delta_s", "s", Better::Lower),
    layer("store.load_latest_s", "s", Better::Lower),
    layer("store.load_mb_per_s", "MB/s", Better::Higher),
    layer("store.bytes_full", "bytes", Better::Lower),
    layer("store.bytes_delta_p50", "bytes", Better::Lower),
    layer("store.delta_record_fraction", "ratio", Better::Lower),
    exact("store.bytes_per_node", "bytes"),
    // --- dg-gossip / dg-core ---
    layer("gossip.subjects", "count", Better::Higher),
    layer("gossip.subject_s_p50", "s", Better::Lower),
    exact("gossip.steps_mean", "count"),
    exact("gossip.msgs_per_node", "count"),
    exact("gossip.residual_max", "ratio"),
    exact("gossip.no_estimate_fraction", "ratio"),
    exact("gossip.entries_sent", "count"),
    layer("gossip.step_us_p50", "us", Better::Lower),
    layer("gossip.ns_per_message", "ns", Better::Lower),
    layer("gossip.scalar_step_us_p50", "us", Better::Lower),
    layer("core.blend_s", "s", Better::Lower),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn tables_fit_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
