//! Message accounting (Table 2).
//!
//! The paper reports "number of messages per node per step transmitted
//! due to gossiping": pushes to *other* nodes count as network messages;
//! the share a node keeps for itself does not cross the network and is
//! not counted. A push lost to churn still costs a message (it was
//! transmitted; only the ack is missing).
//!
//! Two normalisations are provided:
//!
//! * [`MessageStats::per_node_per_step`] — total messages / (N · steps):
//!   the whole-network average including protocol-quiescent nodes;
//! * [`MessageStats::per_active_node_per_step`] — the paper's Table 2
//!   statistic: messages divided by the nodes *actively gossiping* that
//!   step (≈ the mean differential fan-out, 1.1–1.2 on PA graphs).

/// Per-run message statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MessageStats {
    /// Messages sent in each completed step (network pushes only).
    pub per_step: Vec<u64>,
    /// Actively pushing nodes in each completed step.
    pub active_per_step: Vec<u64>,
    /// Number of nodes in the run (for per-node normalisation).
    pub nodes: usize,
}

impl MessageStats {
    /// New collector for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            per_step: Vec::new(),
            active_per_step: Vec::new(),
            nodes,
        }
    }

    /// Record a completed step.
    pub(crate) fn record_step(&mut self, messages: u64, active_nodes: u64) {
        self.per_step.push(messages);
        self.active_per_step.push(active_nodes);
    }

    /// Total messages across the run.
    pub fn total(&self) -> u64 {
        self.per_step.iter().sum()
    }

    /// Steps observed.
    pub fn steps(&self) -> usize {
        self.per_step.len()
    }

    /// Mean messages per node per step over **all** nodes.
    pub fn per_node_per_step(&self) -> f64 {
        if self.per_step.is_empty() || self.nodes == 0 {
            return 0.0;
        }
        self.total() as f64 / (self.nodes as f64 * self.per_step.len() as f64)
    }

    /// Table 2's statistic: messages per **actively gossiping** node per
    /// step — total messages divided by total active node-steps. Active
    /// nodes push `k_i` messages each, so this converges to the
    /// activity-weighted mean differential fan-out (≈ 1.1–1.2 on PA
    /// graphs).
    pub fn per_active_node_per_step(&self) -> f64 {
        let active_total: u64 = self.active_per_step.iter().sum();
        if active_total == 0 {
            return 0.0;
        }
        self.total() as f64 / active_total as f64
    }

    /// Total messages per node (the whole-run communication cost used in
    /// the Section 5.3 differential-vs-normal comparison).
    pub fn per_node_total(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.total() as f64 / self.nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = MessageStats::new(10);
        assert_eq!(s.total(), 0);
        assert_eq!(s.per_node_per_step(), 0.0);
        assert_eq!(s.per_active_node_per_step(), 0.0);
        assert_eq!(s.per_node_total(), 0.0);
    }

    #[test]
    fn per_node_per_step_average() {
        let mut s = MessageStats::new(10);
        s.record_step(20, 10);
        s.record_step(10, 5);
        assert_eq!(s.total(), 30);
        assert_eq!(s.steps(), 2);
        assert!((s.per_node_per_step() - 1.5).abs() < 1e-12);
        assert!((s.per_node_total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn active_normalisation_ignores_quiescent_nodes() {
        let mut s = MessageStats::new(10);
        s.record_step(12, 10); // 1.2 per active
        s.record_step(6, 5); // 1.2 per active — half the network stopped
        s.record_step(0, 0); // fully quiescent step: no contribution
        assert!((s.per_active_node_per_step() - 18.0 / 15.0).abs() < 1e-12);
        // The all-nodes normalisation is diluted instead.
        assert!(s.per_node_per_step() < 1.0);
    }

    #[test]
    fn zero_nodes_guard() {
        let mut s = MessageStats::new(0);
        s.record_step(5, 1);
        assert_eq!(s.per_node_per_step(), 0.0);
        assert_eq!(s.per_active_node_per_step(), 5.0);
    }

    #[test]
    fn all_quiescent_run_reports_zero_active_rate() {
        let mut s = MessageStats::new(4);
        s.record_step(0, 0);
        assert_eq!(s.per_active_node_per_step(), 0.0);
    }
}
