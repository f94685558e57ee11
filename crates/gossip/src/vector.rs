//! Vector gossip: simultaneous aggregation for all subjects
//! (the paper's Variations 3 and 4).
//!
//! Instead of gossiping one subject's pair, each node pushes its whole
//! sparse vector of gossip *trios* `(subject id, y, g)` — plus the
//! per-subject `count` mass used by Algorithm 2 — in a single message.
//! "The time complexity of all four variations will be of the same order
//! because reputations of all the nodes will be pushed simultaneously as
//! a vector, whereas the communication complexity ... will increase
//! proportionally to the size of vector." The engine therefore tracks
//! both message counts and entry counts.
//!
//! A node's movement is the left-hand side of Eq. (7),
//! `Σ_j |y_ij(n)/g_ij(n) − y_ij(n−1)/g_ij(n−1)|` with the usual sentinel
//! ratio for zero weights; the bound it is held to and the announce /
//! revoke / stop rule are [`protocol`](crate::protocol)'s.
//!
//! ## State layout
//!
//! Callers build the initial state as one [`GossipVector`] map per node
//! and [`VectorOutcome::state`] hands maps back, but the engine holds no
//! map: every node's vector lives in one arena — the "sorted runs over
//! one arena" layout of `dg_trust::csr`. Node `i` owns the span
//! `offsets[i]..offsets[i + 1]` of a `subjects` array (ascending ids)
//! and of a parallel array of [`VectorEntry`]. Ids sit apart from the
//! masses because a merge first walks ids alone to size its result; the
//! masses stay array-of-structs because every pass reads the three of
//! an entry together (`share`, `add`, `ratio`), so splitting them would
//! buy no locality and would write that arithmetic a second time. A
//! step reads the current arena and appends every node's new vector to
//! a second one; the two swap, and with the per-step scratch (delivered
//! pushes bucketed by receiver, each sender's kept shares) they are
//! owned by the engine and reused, so a steady-state step allocates
//! only what `rand::seq::index::sample` does.
//!
//! ## Accumulation order
//!
//! A step is pull-based. Pass 1 visits senders in ascending id, draws
//! each one's targets and then its losses — the only RNG use — and
//! buckets the delivered pushes by receiver; a counting sort keeps a
//! bucket's senders ascending. Pass 2 builds each receiver's new vector
//! at the tail of the next arena by merging sorted runs into it, and
//! floating-point addition does not reassociate, so the order is part
//! of the result: senders below the receiver (ascending), then the
//! receiver's own kept piece — its whole vector when it is stopped or
//! has nobody to push to, otherwise its `1/(k+1)` share added once plus
//! once per lost push — then senders above it, every subject starting
//! from `0.0`. That is the order in which a per-cell
//! `inbox[target][subject] += share` loop over ascending senders sums,
//! so states are bit-identical to such a map-based engine (the test
//! oracle is one; whole runs are pinned to the one this engine
//! replaced). A stretch of nodes that nothing reached and that pushed
//! nothing — most of the network, once it quiesces — is copied across
//! in one piece, each mass as the `0.0 + e` a lone contribution sums to.
//!
//! Eq. (7) needs last step's ratios, and those are `ratio()` of the
//! current arena's entries: the new run is compared with the old one
//! where it is built, and nothing is kept between steps.
//!
//! ## What this engine does not model
//!
//! Churn: no node ever departs. [`GossipConfig::loss`] and
//! [`GossipConfig::sticky_announcements`] are honoured;
//! [`GossipConfig::churn`] is **refused** — [`VectorGossip::new`] fails
//! with [`GossipError::ChurnNotModelled`] rather than drop it, so a
//! caller whose config may carry one (`RunConfig::gossip_config()` fills
//! it from the network profile) clears it where it calls. Only
//! [`ScalarGossip`](crate::scalar::ScalarGossip) models departures.

use crate::config::GossipConfig;
use crate::error::GossipError;
use crate::loss::ChurnModel;
use crate::metrics::MessageStats;
use crate::pair::RATIO_SENTINEL;
use crate::protocol::Convergence;
use dg_graph::{Graph, NodeId};
use rand::seq::index::sample;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// Per-subject gossip state at one node: value, weight and count masses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct VectorEntry {
    /// Gossip value mass `y`.
    pub value: f64,
    /// Gossip weight mass `g`.
    pub weight: f64,
    /// Opinion-count mass (each opinion holder starts with 1).
    pub count: f64,
}

impl VectorEntry {
    /// Entry for an opinion holder in Variation 3 (weight 1).
    pub fn originator(value: f64) -> Self {
        Self {
            value,
            weight: 1.0,
            count: 1.0,
        }
    }

    /// Entry carrying feedback but zero gossip weight (Variation 4 /
    /// Algorithm 2 style, where exactly one node per subject holds the
    /// unit weight).
    pub fn passive(value: f64) -> Self {
        Self {
            value,
            weight: 0.0,
            count: 1.0,
        }
    }

    /// Ratio `y/g` with the sentinel for zero weight.
    #[inline]
    pub fn ratio(&self) -> f64 {
        if self.weight == 0.0 {
            RATIO_SENTINEL
        } else {
            self.value / self.weight
        }
    }

    /// Count estimate `count/g` (the gossiped `N_d`), `None` for zero
    /// weight.
    pub fn count_estimate(&self) -> Option<f64> {
        (self.weight != 0.0).then(|| self.count / self.weight)
    }

    fn share(&self, shares: usize) -> VectorEntry {
        let f = 1.0 / shares as f64;
        VectorEntry {
            value: self.value * f,
            weight: self.weight * f,
            count: self.count * f,
        }
    }

    fn add(&mut self, other: VectorEntry) {
        self.value += other.value;
        self.weight += other.weight;
        self.count += other.count;
    }
}

/// Sparse per-node gossip vector keyed by subject id.
pub type GossipVector = BTreeMap<u32, VectorEntry>;

/// Result of a completed vector gossip run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorOutcome {
    /// Gossip steps executed.
    pub steps: usize,
    /// Whether every node stopped within the step budget.
    pub converged: bool,
    /// Final per-node vectors.
    pub state: Vec<GossipVector>,
    /// Message accounting (vector messages, not entries).
    pub stats: MessageStats,
    /// Total entries shipped across the run (communication complexity).
    pub entries_sent: u64,
}

impl VectorOutcome {
    /// Ratio estimate of `subject` at `node`, `None` if the node holds no
    /// mass for that subject.
    pub fn estimate(&self, node: NodeId, subject: NodeId) -> Option<f64> {
        self.state[node.index()]
            .get(&subject.0)
            .filter(|e| e.weight != 0.0)
            .map(VectorEntry::ratio)
    }

    /// Count estimate (`N_d`) of `subject` at `node`.
    pub fn count_estimate(&self, node: NodeId, subject: NodeId) -> Option<f64> {
        self.state[node.index()]
            .get(&subject.0)
            .and_then(VectorEntry::count_estimate)
    }
}

/// Every node's vector in one arena: node `i` owns the span
/// `offsets[i]..offsets[i + 1]` of `subjects` (ascending) and `entries`.
#[derive(Debug, Clone)]
struct Arena {
    offsets: Vec<usize>,
    subjects: Vec<u32>,
    entries: Vec<VectorEntry>,
}

impl Arena {
    fn from_maps(maps: &[GossipVector]) -> Self {
        let mut arena = Self {
            offsets: Vec::with_capacity(maps.len() + 1),
            subjects: Vec::new(),
            entries: Vec::new(),
        };
        arena.offsets.push(0);
        for map in maps {
            arena.subjects.extend(map.keys());
            arena.entries.extend(map.values());
            arena.offsets.push(arena.subjects.len());
        }
        arena
    }

    fn to_maps(&self) -> Vec<GossipVector> {
        (0..self.offsets.len() - 1)
            .map(|i| {
                let (subjects, entries) = self.run(i);
                subjects
                    .iter()
                    .copied()
                    .zip(entries.iter().copied())
                    .collect()
            })
            .collect()
    }

    fn run(&self, node: usize) -> (&[u32], &[VectorEntry]) {
        let span = self.offsets[node]..self.offsets[node + 1];
        (&self.subjects[span.clone()], &self.entries[span])
    }

    /// Forget every run, keeping the capacity.
    fn clear(&mut self) {
        self.offsets.truncate(1);
        self.subjects.clear();
        self.entries.clear();
    }

    /// Add to the open run — what follows the last closed one — the
    /// `1/shares` share of every entry of a sorted run, `times` times
    /// over (a sender's lost pushes come back as repeated additions of
    /// the same share, not as a multiple of it). A subject the open run
    /// does not hold yet starts from `0.0`.
    fn accumulate(
        &mut self,
        subjects: &[u32],
        entries: &[VectorEntry],
        shares: usize,
        times: usize,
    ) {
        let start = self.offsets[self.offsets.len() - 1];
        let plus = |mut sum: VectorEntry, e: &VectorEntry| {
            let share = e.share(shares);
            for _ in 0..times {
                sum.add(share);
            }
            sum
        };
        if self.subjects.len() == start {
            // The first run a receiver takes in: nothing to merge with.
            self.subjects.extend_from_slice(subjects);
            self.entries
                .extend(entries.iter().map(|e| plus(VectorEntry::default(), e)));
            return;
        }
        // Make room for the subjects that are new to the open run, then
        // merge from the back so nothing is overwritten before it moves.
        let mut held = start;
        let mut new = 0;
        for &j in subjects {
            while held < self.subjects.len() && self.subjects[held] < j {
                held += 1;
            }
            if self.subjects.get(held) == Some(&j) {
                held += 1;
            } else {
                new += 1;
            }
        }
        let mut from = self.subjects.len();
        let mut to = from + new;
        self.subjects.resize(to, 0);
        self.entries.resize(to, VectorEntry::default());
        for (&j, e) in subjects.iter().zip(entries).rev() {
            while from > start && self.subjects[from - 1] > j {
                from -= 1;
                to -= 1;
                self.subjects[to] = self.subjects[from];
                self.entries[to] = self.entries[from];
            }
            let mut sum = VectorEntry::default();
            if from > start && self.subjects[from - 1] == j {
                from -= 1;
                sum = self.entries[from];
            }
            to -= 1;
            self.subjects[to] = j;
            self.entries[to] = plus(sum, e);
        }
    }

    /// Append the runs of `nodes` as `from` holds them, each mass as the
    /// `0.0 + e` that accumulating it alone would have made of it.
    fn carry_over(&mut self, from: &Arena, nodes: Range<usize>) {
        let span = from.offsets[nodes.start]..from.offsets[nodes.end];
        // Runs only grow, so the copy never lands below where it came from.
        let shift = self.subjects.len() - span.start;
        self.offsets.extend(
            from.offsets[nodes.start + 1..=nodes.end]
                .iter()
                .map(|end| end + shift),
        );
        self.subjects
            .extend_from_slice(&from.subjects[span.clone()]);
        self.entries.extend(from.entries[span].iter().map(|e| {
            let mut sum = VectorEntry::default();
            sum.add(*e);
            sum
        }));
    }

    /// Close the open run: it is the next node's.
    fn close_run(&mut self) {
        self.offsets.push(self.subjects.len());
    }
}

/// Vector push-sum gossip engine (Variations 3 and 4).
#[derive(Debug, Clone)]
pub struct VectorGossip<'g> {
    graph: &'g Graph,
    config: GossipConfig,
    convergence: Convergence,
    /// Pushes per step, clamped to the degree (0 for an isolated node).
    fanouts: Vec<usize>,
    state: Arena,
    /// The arena the step under way appends to; swapped with `state`.
    next: Arena,
    /// This step's delivered pushes as `(receiver, sender)`, in sender order.
    delivered: Vec<(u32, u32)>,
    /// `delivered` bucketed by receiver: `r` heard from
    /// `inbox_senders[inbox_offsets[r]..inbox_offsets[r + 1]]`, ascending.
    inbox_offsets: Vec<usize>,
    inbox_senders: Vec<u32>,
    /// How many times a pushing node adds its own share back this step
    /// (once, plus once per lost push); 0 for a node that pushes nothing
    /// and keeps its vector whole.
    kept_shares: Vec<usize>,
    announced: Vec<bool>,
    stopped: Vec<bool>,
    step: usize,
    stats: MessageStats,
    entries_sent: u64,
}

impl<'g> VectorGossip<'g> {
    /// Create an engine with per-node initial vectors; a config that asks
    /// for churn is refused ([`GossipError::ChurnNotModelled`]).
    pub fn new(
        graph: &'g Graph,
        config: GossipConfig,
        initial: Vec<GossipVector>,
    ) -> Result<Self, GossipError> {
        let config = config.validated()?;
        if config.churn != ChurnModel::none() {
            return Err(GossipError::ChurnNotModelled);
        }
        let n = graph.node_count();
        if initial.len() != n {
            return Err(GossipError::StateSizeMismatch {
                given: initial.len(),
                expected: n,
            });
        }
        for vec in &initial {
            for e in vec.values() {
                if !e.weight.is_finite() || e.weight < 0.0 {
                    return Err(GossipError::InvalidWeight(e.weight));
                }
            }
        }
        let mut fanouts = config.fanout.resolve(graph)?;
        for (k, node) in fanouts.iter_mut().zip(graph.nodes()) {
            *k = (*k).min(graph.degree(node));
        }
        Ok(Self {
            graph,
            config,
            convergence: Convergence::new(config.xi, config.sticky_announcements, Some(n)),
            fanouts,
            state: Arena::from_maps(&initial),
            next: Arena::from_maps(&[]),
            delivered: Vec::new(),
            inbox_offsets: Vec::new(),
            inbox_senders: Vec::new(),
            kept_shares: vec![0; n],
            announced: vec![false; n],
            stopped: vec![false; n],
            step: 0,
            stats: MessageStats::new(n),
            entries_sent: 0,
        })
    }

    /// Steps executed so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Whether every node has stopped.
    pub fn all_stopped(&self) -> bool {
        self.stopped.iter().all(|&s| s)
    }

    /// Total per-subject `(Σ y, Σ g, Σ count)` masses — conserved across
    /// steps.
    pub fn total_mass(&self) -> BTreeMap<u32, (f64, f64, f64)> {
        let mut totals: BTreeMap<u32, (f64, f64, f64)> = BTreeMap::new();
        for (&j, e) in self.state.subjects.iter().zip(&self.state.entries) {
            let t = totals.entry(j).or_insert((0.0, 0.0, 0.0));
            t.0 += e.value;
            t.1 += e.weight;
            t.2 += e.count;
        }
        totals
    }

    /// Execute one gossip step; returns messages sent.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        #[cfg(debug_assertions)]
        let mass_before = self.total_mass();

        let n = self.graph.node_count();
        let mut messages = 0u64;
        let mut active = 0u64;

        // Pass 1, senders ascending: who pushes to whom, and which
        // pushes bounce. Nodes with nothing to say draw nothing. Each
        // receiver's deliveries are counted two slots up (see below).
        self.delivered.clear();
        self.inbox_offsets.clear();
        self.inbox_offsets.resize(n + 2, 0);
        for i in 0..n {
            self.kept_shares[i] = 0;
            let len = self.state.run(i).0.len();
            let k = self.fanouts[i];
            if len == 0 || self.stopped[i] || k == 0 {
                continue;
            }
            active += 1;
            // Choose targets once per node; the whole vector travels in
            // one message per target.
            let neighbours = self.graph.neighbours(NodeId(i as u32));
            let targets = sample(rng, neighbours.len(), k);
            messages += k as u64;
            self.entries_sent += (len * k) as u64;
            let mut kept = 1;
            for idx in targets {
                if self.config.loss.drops(rng) {
                    kept += 1;
                } else {
                    let target = neighbours[idx];
                    self.delivered.push((target, i as u32));
                    self.inbox_offsets[target as usize + 2] += 1;
                }
            }
            self.kept_shares[i] = kept;
        }

        // Bucket the delivered pushes by receiver. A stable counting
        // sort: pass 1 ran in sender order, so senders stay ascending
        // inside a bucket. With the counts two slots up, the scatter can
        // use slot `r + 1` as bucket `r`'s cursor and leave it at the
        // bucket's end, which is bucket `r + 1`'s start.
        for r in 2..n + 2 {
            self.inbox_offsets[r] += self.inbox_offsets[r - 1];
        }
        self.inbox_senders.clear();
        self.inbox_senders.resize(self.delivered.len(), 0);
        for &(r, sender) in &self.delivered {
            let cursor = &mut self.inbox_offsets[r as usize + 1];
            self.inbox_senders[*cursor] = sender;
            *cursor += 1;
        }

        // Pass 2, receivers ascending: merge what each one heard with
        // what it kept, in the order the module docs fix, and hand the
        // convergence protocol Eq. (7)'s summed movement.
        self.next.clear();
        let mut r = 0;
        while r < n {
            // A stretch of nodes nothing came in to and nothing went out
            // of — most of the network, once it quiesces — carries over
            // in one piece.
            let idle = (r..n)
                .take_while(|&i| {
                    self.inbox_offsets[i] == self.inbox_offsets[i + 1] && self.kept_shares[i] == 0
                })
                .count();
            if idle > 0 {
                self.next.carry_over(&self.state, r..r + idle);
                r += idle;
                continue;
            }
            let senders = &self.inbox_senders[self.inbox_offsets[r]..self.inbox_offsets[r + 1]];
            let (old_subjects, old_entries) = self.state.run(r);
            let above = senders.partition_point(|&s| (s as usize) < r);
            let hear = |next: &mut Arena, heard: &[u32]| {
                for &s in heard {
                    let (subjects, entries) = self.state.run(s as usize);
                    next.accumulate(subjects, entries, self.fanouts[s as usize] + 1, 1);
                }
            };
            hear(&mut self.next, &senders[..above]);
            match self.kept_shares[r] {
                0 => self.next.accumulate(old_subjects, old_entries, 1, 1),
                kept => self
                    .next
                    .accumulate(old_subjects, old_entries, self.fanouts[r] + 1, kept),
            }
            hear(&mut self.next, &senders[above..]);
            self.next.close_run();

            if !senders.is_empty() {
                // A node never lets go of a subject, so the old run is a
                // subsequence of the new one.
                let (new_subjects, new_entries) = self.next.run(r);
                let mut total_move = 0.0;
                let mut old = 0;
                for (&j, e) in new_subjects.iter().zip(new_entries) {
                    let prev = if old_subjects.get(old) == Some(&j) {
                        old += 1;
                        old_entries[old - 1].ratio()
                    } else {
                        RATIO_SENTINEL
                    };
                    total_move += (e.ratio() - prev).abs();
                }
                self.announced[r] = self.convergence.observe(self.announced[r], total_move);
            }
            r += 1;
        }
        std::mem::swap(&mut self.state, &mut self.next);

        for i in 0..n {
            let neighbours = self.graph.neighbours(NodeId(i as u32));
            self.stopped[i] = Convergence::quiescent(
                self.announced[i],
                neighbours.iter().map(|&w| self.announced[w as usize]),
            );
        }

        self.step += 1;
        self.stats.record_step(messages, active);

        #[cfg(debug_assertions)]
        {
            let mass_after = self.total_mass();
            let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * (1.0 + a.abs());
            debug_assert!(
                mass_before.len() == mass_after.len()
                    && mass_before.iter().zip(&mass_after).all(|((j, a), (k, b))| {
                        j == k && close(a.0, b.0) && close(a.1, b.1) && close(a.2, b.2)
                    }),
                "mass not conserved: {mass_before:?} -> {mass_after:?}"
            );
        }

        messages
    }

    /// Run to quiescence or the step cap.
    pub fn run<R: Rng + ?Sized>(mut self, rng: &mut R) -> VectorOutcome {
        while !self.all_stopped() && self.step < self.config.max_steps {
            self.step(rng);
        }
        let converged = self.all_stopped();
        VectorOutcome {
            steps: self.step,
            converged,
            state: self.state.to_maps(),
            stats: self.stats,
            entries_sent: self.entries_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::FanoutPolicy;
    use crate::loss::LossModel;
    use dg_graph::{generators, pa, GraphBuilder};
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Build Variation-3 style initial vectors: `opinions[i]` is the list
    /// of `(subject, value)` feedback held by node `i`.
    fn initial_from_opinions(n: usize, opinions: &[(usize, usize, f64)]) -> Vec<GossipVector> {
        let mut init = vec![GossipVector::new(); n];
        for &(i, j, v) in opinions {
            init[i].insert(j as u32, VectorEntry::originator(v));
        }
        init
    }

    #[test]
    fn rejects_wrong_size() {
        let g = generators::complete(3);
        assert!(matches!(
            VectorGossip::new(&g, GossipConfig::default(), vec![GossipVector::new(); 2]),
            Err(GossipError::StateSizeMismatch { .. })
        ));
    }

    #[test]
    fn refuses_churn_instead_of_ignoring_it() {
        let g = generators::complete(3);
        let churning = GossipConfig::default().with_churn(ChurnModel::new(0.01, 1).unwrap());
        assert_eq!(
            VectorGossip::new(&g, churning, vec![GossipVector::new(); 3]).err(),
            Some(GossipError::ChurnNotModelled)
        );
    }

    /// Two engines in lockstep on one stream are identical until the
    /// revocable one first takes an announcement back; the sticky one
    /// keeps it.
    #[test]
    fn sticky_announcements_latch() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 80, m: 2 }, &mut rng(13)).unwrap();
        let config = GossipConfig::differential(1e-6).unwrap();
        let init = neighbour_ratings(&g, false);
        let mut revocable = VectorGossip::new(&g, config, init.clone()).unwrap();
        let mut sticky = VectorGossip::new(&g, config.with_sticky_announcements(), init).unwrap();
        let (mut revocable_rng, mut sticky_rng) = (rng(14), rng(14));
        for _ in 0..200 {
            let before = revocable.announced.clone();
            revocable.step(&mut revocable_rng);
            sticky.step(&mut sticky_rng);
            if let Some(i) = (0..80).find(|&i| before[i] && !revocable.announced[i]) {
                assert!(
                    sticky.announced[i],
                    "node {i} revoked a sticky announcement"
                );
                return;
            }
            assert_eq!(sticky.announced, revocable.announced);
        }
        panic!("the run never revoked an announcement");
    }

    #[test]
    fn per_subject_means_match_direct_computation() {
        let g = generators::complete(12);
        // Subject 0 judged by nodes 1, 2, 3; subject 5 by nodes 0 and 7.
        let opinions = [
            (1, 0, 0.9),
            (2, 0, 0.6),
            (3, 0, 0.3),
            (0, 5, 0.2),
            (7, 5, 0.8),
        ];
        let init = initial_from_opinions(12, &opinions);
        let out = VectorGossip::new(&g, GossipConfig::differential(1e-8).unwrap(), init)
            .unwrap()
            .run(&mut rng(1));
        assert!(out.converged);
        // Every node should estimate subject 0 at (0.9+0.6+0.3)/3 = 0.6
        // and subject 5 at 0.5.
        for v in 0..12u32 {
            let e0 = out.estimate(NodeId(v), NodeId(0)).unwrap();
            let e5 = out.estimate(NodeId(v), NodeId(5)).unwrap();
            assert!((e0 - 0.6).abs() < 1e-3, "node {v}: {e0}");
            assert!((e5 - 0.5).abs() < 1e-3, "node {v}: {e5}");
        }
    }

    #[test]
    fn variation3_count_mass_mirrors_weight_mass() {
        // In Variation 3 every opinion holder starts with weight 1 *and*
        // count 1, so the count estimate converges to
        // Σ count / Σ weight = N_d / N_d = 1 — the count channel only
        // recovers N_d itself under the single-weight-originator setup of
        // Algorithm 2 / Variation 4 (see
        // `single_weight_originator_computes_sum`).
        let g = generators::complete(10);
        let opinions = [(1, 0, 0.3), (2, 0, 0.6), (3, 0, 0.9), (4, 9, 1.0)];
        let init = initial_from_opinions(10, &opinions);
        let out = VectorGossip::new(&g, GossipConfig::differential(1e-9).unwrap(), init)
            .unwrap()
            .run(&mut rng(2));
        assert!(out.converged);
        for v in 0..10u32 {
            let c0 = out.count_estimate(NodeId(v), NodeId(0)).unwrap();
            assert!((c0 - 1.0).abs() < 1e-2, "node {v}: count {c0}");
        }
    }

    #[test]
    fn mass_conserved_per_subject() {
        let g = pa::preferential_attachment(pa::PaConfig { nodes: 60, m: 2 }, &mut rng(3)).unwrap();
        let opinions = [(0, 1, 0.4), (2, 1, 0.9), (5, 30, 0.7)];
        let init = initial_from_opinions(60, &opinions);
        let mut engine =
            VectorGossip::new(&g, GossipConfig::differential(1e-6).unwrap(), init).unwrap();
        let before = engine.total_mass();
        let mut rng = rng(4);
        for _ in 0..30 {
            engine.step(&mut rng);
        }
        let after = engine.total_mass();
        for (j, b) in &before {
            let a = &after[j];
            assert!((b.0 - a.0).abs() < 1e-9, "value mass subject {j}");
            assert!((b.1 - a.1).abs() < 1e-9, "weight mass subject {j}");
            assert!((b.2 - a.2).abs() < 1e-9, "count mass subject {j}");
        }
    }

    #[test]
    fn single_weight_originator_computes_sum() {
        // Variation-4 style: three nodes have feedback about subject 7 but
        // only node 0 carries gossip weight 1; the converged ratio is the
        // *sum* of feedback values.
        let g = generators::complete(8);
        let mut init = vec![GossipVector::new(); 8];
        init[0].insert(7, VectorEntry::originator(0.2)); // weight 1
        init[1].insert(7, VectorEntry::passive(0.5));
        init[2].insert(7, VectorEntry::passive(0.9));
        let out = VectorGossip::new(&g, GossipConfig::differential(1e-9).unwrap(), init)
            .unwrap()
            .run(&mut rng(5));
        assert!(out.converged);
        for v in 0..8u32 {
            let sum = out.estimate(NodeId(v), NodeId(7)).unwrap();
            assert!((sum - 1.6).abs() < 1e-3, "node {v}: {sum}");
            let count = out.count_estimate(NodeId(v), NodeId(7)).unwrap();
            assert!((count - 3.0).abs() < 1e-2, "node {v}: {count}");
        }
    }

    #[test]
    fn entries_sent_grows_with_vector_size() {
        let g = generators::complete(6);
        let small = initial_from_opinions(6, &[(0, 1, 0.5)]);
        let big = initial_from_opinions(
            6,
            &[
                (0, 1, 0.5),
                (0, 2, 0.5),
                (0, 3, 0.5),
                (1, 2, 0.4),
                (2, 3, 0.3),
            ],
        );
        let out_small = VectorGossip::new(&g, GossipConfig::differential(1e-4).unwrap(), small)
            .unwrap()
            .run(&mut rng(6));
        let out_big = VectorGossip::new(&g, GossipConfig::differential(1e-4).unwrap(), big)
            .unwrap()
            .run(&mut rng(6));
        let per_step_small = out_small.entries_sent as f64 / out_small.steps as f64;
        let per_step_big = out_big.entries_sent as f64 / out_big.steps as f64;
        assert!(per_step_big > per_step_small);
    }

    /// The mass movement of the map-based `step` this engine replaced,
    /// kept as the reference: one `BTreeMap` inbox per node, every share
    /// added to its cell as the sender loop reaches it. It takes the
    /// stopped flags as given — the stopping rule is not copied here;
    /// `whole_runs_are_pinned_to_the_map_engine` covers that half.
    /// Returns the new state, the messages and the entries sent.
    fn map_step(
        graph: &Graph,
        fanouts: &[usize],
        loss: LossModel,
        stopped: &[bool],
        state: &[GossipVector],
        rng: &mut ChaCha8Rng,
    ) -> (Vec<GossipVector>, u64, u64) {
        let mut inbox = vec![GossipVector::new(); state.len()];
        let (mut messages, mut entries_sent) = (0, 0);
        for (i, current) in state.iter().enumerate() {
            let neighbours = graph.neighbours(NodeId(i as u32));
            let k = fanouts[i].min(neighbours.len());
            if current.is_empty() {
                continue;
            }
            if stopped[i] || k == 0 {
                for (&j, e) in current {
                    inbox[i].entry(j).or_default().add(*e);
                }
                continue;
            }
            let targets: Vec<usize> = sample(rng, neighbours.len(), k)
                .into_iter()
                .map(|idx| neighbours[idx] as usize)
                .collect();
            messages += k as u64;
            entries_sent += (current.len() * k) as u64;
            let lost: Vec<bool> = targets.iter().map(|_| loss.drops(rng)).collect();
            for (&j, e) in current {
                let share = e.share(k + 1);
                inbox[i].entry(j).or_default().add(share);
                for (&target, &lost) in targets.iter().zip(&lost) {
                    let to = if lost { i } else { target };
                    inbox[to].entry(j).or_default().add(share);
                }
            }
        }
        (inbox, messages, entries_sent)
    }

    fn bits(state: &[GossipVector]) -> Vec<Vec<(u32, [u64; 3])>> {
        state
            .iter()
            .map(|vec| {
                vec.iter()
                    .map(|(&j, e)| (j, [e.value, e.weight, e.count].map(f64::to_bits)))
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every step of the flat engine lands on the bits of the map
        /// inbox and leaves the RNG where the map engine left it.
        #[test]
        fn flat_step_matches_the_map_inbox_bit_for_bit(
            nodes in 5usize..60,
            preferential in 0usize..2,
            edges in proptest::collection::vec((0usize..60, 0usize..60), 1..120),
            subjects in 1u32..13,
            opinions in proptest::collection::vec((0usize..60, 0u32..12, -1.0f64..1.0, 0usize..2), 1..150),
            lossy in 0usize..2,
            push in 0usize..4,
            xi_exponent in 2i32..9,
            seed in 0u64..1000,
        ) {
            // A hub-and-leaf PA graph, or arbitrary edges that may leave
            // nodes isolated (they keep their vector whole).
            let graph = if preferential == 1 {
                pa::preferential_attachment(pa::PaConfig { nodes, m: 2 }, &mut rng(seed)).unwrap()
            } else {
                let mut b = GraphBuilder::new(nodes);
                for &(a, c) in &edges {
                    if a % nodes != c % nodes {
                        b.add_edge((a % nodes) as u32, (c % nodes) as u32).unwrap();
                    }
                }
                b.build()
            };
            let mut state = vec![GossipVector::new(); nodes];
            for &(i, j, value, originator) in &opinions {
                let entry = if originator == 1 {
                    VectorEntry::originator(value)
                } else {
                    VectorEntry::passive(value)
                };
                state[i % nodes].insert(j % subjects, entry);
            }
            let loss = LossModel::new(if lossy == 1 { 0.3 } else { 0.0 }).unwrap();
            let fanout = match push {
                0 => FanoutPolicy::Differential,
                p => FanoutPolicy::Uniform(p),
            };
            let config = GossipConfig::differential(10f64.powi(-xi_exponent))
                .unwrap()
                .with_loss(loss)
                .with_fanout(fanout);
            let fanouts = fanout.resolve(&graph).unwrap();

            let mut engine = VectorGossip::new(&graph, config, state.clone()).unwrap();
            let (mut flat_rng, mut map_rng) = (rng(seed), rng(seed));
            let mut entries_sent = 0;
            for step in 0..40 {
                let (next, messages, entries) =
                    map_step(&graph, &fanouts, loss, &engine.stopped, &state, &mut map_rng);
                state = next;
                entries_sent += entries;
                prop_assert_eq!(engine.step(&mut flat_rng), messages, "messages, step {}", step);
                prop_assert_eq!(engine.entries_sent, entries_sent, "entries, step {}", step);
                prop_assert_eq!(bits(&engine.state.to_maps()), bits(&state), "state, step {}", step);
                prop_assert_eq!(flat_rng.next_u64(), map_rng.next_u64(), "rng, step {}", step);
            }
        }
    }

    /// `(steps, total messages, entries_sent, FNV fold of every
    /// (node, subject, value / weight / count bits))` of a finished run.
    fn run_pin(out: &VectorOutcome) -> (usize, u64, u64, u64) {
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for (i, vec) in out.state.iter().enumerate() {
            for (&j, e) in vec {
                for word in [
                    (i as u64) << 32 | u64::from(j),
                    e.value.to_bits(),
                    e.weight.to_bits(),
                    e.count.to_bits(),
                ] {
                    fold = (fold ^ word).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        (out.steps, out.stats.total(), out.entries_sent, fold)
    }

    /// Every node rates each of its neighbours: Variation 3's initial
    /// state (every holder an originator) or Variation 4's (the lowest-id
    /// holder of a subject carries the unit weight, the rest ride
    /// passive).
    fn neighbour_ratings(g: &Graph, single_originator: bool) -> Vec<GossipVector> {
        let mut init = vec![GossipVector::new(); g.node_count()];
        for i in g.nodes() {
            for &j in g.neighbours(i) {
                let value = f64::from((i.0 * 31 + j * 17) % 101) / 100.0;
                let lowest_holder = g.neighbours(NodeId(j))[0];
                let entry = if !single_originator || lowest_holder == i.0 {
                    VectorEntry::originator(value)
                } else {
                    VectorEntry::passive(value)
                };
                init[i.index()].insert(j, entry);
            }
        }
        init
    }

    /// The protocol half of bit-identity (announce / revoke / derived
    /// quiescence, which the step oracle does not copy): four whole runs
    /// whose goldens were recorded at the last commit where
    /// `VectorGossip` kept a `BTreeMap` per node and a `prev_ratio` map
    /// beside it (PR 16, 86bc120).
    #[test]
    fn whole_runs_are_pinned_to_the_map_engine() {
        let pa = |nodes, seed| {
            pa::preferential_attachment(pa::PaConfig { nodes, m: 2 }, &mut rng(seed)).unwrap()
        };
        let run = |g: &Graph, config: GossipConfig, init, seed| {
            let out = VectorGossip::new(g, config, init)
                .unwrap()
                .run(&mut rng(seed));
            assert!(out.converged);
            run_pin(&out)
        };

        // alg2's shape: one subject, its neighbours the opinion holders,
        // the lowest-id one carrying the unit weight; default ξ.
        let g = pa(400, 11);
        let mut init = vec![GossipVector::new(); 400];
        let holders = g.neighbours(NodeId(3));
        for &i in holders {
            let value = f64::from(i % 10) / 10.0;
            let entry = if i == holders[0] {
                VectorEntry::originator(value)
            } else {
                VectorEntry::passive(value)
            };
            init[i as usize].insert(3, entry);
        }
        let alg2_shape = run(&g, GossipConfig::default(), init, 12);

        // alg3's shape: every node rates its neighbours.
        let g = pa(80, 13);
        let config = GossipConfig::differential(1e-6).unwrap();
        let alg3_shape = run(&g, config, neighbour_ratings(&g, false), 14);

        // alg4's shape under 30% loss: bounced shares return to the sender.
        let g = pa(60, 15);
        let config = GossipConfig::differential(1e-6)
            .unwrap()
            .with_loss(LossModel::new(0.3).unwrap());
        let lossy = run(&g, config, neighbour_ratings(&g, true), 16);

        // Uniform 2-push on the alg3 shape.
        let g = pa(70, 17);
        let config = GossipConfig::differential(1e-6)
            .unwrap()
            .with_fanout(FanoutPolicy::Uniform(2));
        let uniform = run(&g, config, neighbour_ratings(&g, false), 18);

        assert_eq!(alg2_shape, (92, 26_484, 26_484, 0x28cf_1b4a_4cfd_865b));
        assert_eq!(alg3_shape, (108, 8_658, 654_481, 0x8b96_02ff_bc35_528f));
        assert_eq!(lossy, (189, 11_744, 678_682, 0x95ec_2d18_ebc4_59a8));
        assert_eq!(uniform, (104, 12_460, 831_608, 0xdce4_676c_2973_bd20));
    }
}
