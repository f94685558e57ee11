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
//! Callers build the initial state as one [`GossipVector`] map per node,
//! but the engine holds no map, and neither does [`VectorOutcome`]: every
//! node's vector is a sorted run in one slab, the `(start, len)` span
//! layout of `dg_trust::RowSlab`. Node `i`'s span indexes a `subjects`
//! array (ascending ids) and a parallel array of [`VectorEntry`]. Ids
//! sit apart from the masses because a merge first walks ids alone to
//! size its result; the masses stay array-of-structs because every pass
//! reads the three of an entry together (`share`, `add`, `ratio`), so
//! splitting them would buy no locality and would write that arithmetic
//! a second time.
//!
//! A step builds the new runs of the nodes it touched — those that
//! pushed or heard — into a scratch arena, reading only the slab, then
//! commits each one in place: a run that kept its length is overwritten
//! where it lies, the slab's last run grows where it is, and any other
//! run that grew moves to the tail, leaving its old entries dead. The
//! slab repacks, ascending by node, as soon as the dead entries
//! outnumber the live ones, so it never holds more than twice its live
//! entries; a finished run hands [`VectorOutcome`] the slab packed the
//! same way.
//!
//! Beside the slab the engine keeps, per node, its announcement, how
//! many of its neighbours have not announced, and its stopped flag, and
//! two sets of one bit per node: the senders (nodes with a run, not
//! stopped, with fan-out > 0), kept up to date across steps, and this
//! step's receivers. Push targets come from a [`TargetDraw`]. All of it,
//! with the per-step scratch (the rebuilt runs, delivered pushes bucketed
//! by receiver, each sender's kept shares, the nodes whose announcement
//! flipped), is owned by the engine and reused, so once its buffers have
//! grown a step allocates nothing but a repack.
//!
//! A step costs what it touches, not `N + E`: pass 1 walks the sender
//! set, the bucketing, pass 2 and the commit visit only the nodes that
//! pushed or heard and copy only their runs, and stopped flags are
//! re-derived only for a node whose announcement flipped and its
//! neighbours, so [`VectorGossip::all_stopped`] reads a count. What still
//! spans the network is the walk over the two sets' words (`N/64`).
//!
//! ## Accumulation order
//!
//! A step is pull-based. Pass 1 visits the senders in ascending id,
//! draws each one's targets and then its losses — the only RNG use — and
//! buckets the delivered pushes by receiver; a counting sort over the
//! receivers keeps a bucket's senders ascending. Pass 2 builds the new
//! vector of each node that pushed or heard by merging sorted runs into
//! the scratch arena, and floating-point addition does not reassociate,
//! so the order is part of the result: senders below the node
//! (ascending), then its own kept piece — its whole vector when it is
//! stopped or has nobody to push to, otherwise its `1/(k+1)` share added
//! once plus once per lost push — then senders above it, every subject
//! starting from `0.0`. That is the order in which a per-cell
//! `inbox[target][subject] += share` loop over ascending senders sums, so
//! states are bit-identical to such a map-based engine (the test oracle
//! is one; whole runs are pinned to the one this engine replaced). Such
//! an engine rebuilds every run each step, so a run nothing reached
//! holds `0.0 + e` for each of its masses `e`; the slab stores every
//! mass that way from the start (and again after churn rebuilds it), so
//! a `-0.0` input reads as `0.0` before any step touches it.
//!
//! Eq. (7) needs last step's ratios, and those are `ratio()` of the
//! slab's entries: the new run is compared with the old one where it is
//! built, before the commit, and no ratio is kept between steps.
//!
//! ## One subject, and churn
//!
//! [`VectorGossip::one_subject`] is Algorithm 1's diffusion core: every
//! node holds subject `0`, even at zero mass (so it still pushes), and
//! movement is held to `ξ`. [`GossipConfig::churn`] is drawn at step
//! start, present nodes ascending, until `max_departures`: a departing
//! node's vector is summed into its first present neighbour's (else the
//! lowest-id survivor's), whose movement that step is measured from its
//! vector before. A node whose neighbours have all gone hands over too,
//! uncapped (overlay repair). A departed node keeps an empty run, counts
//! as announced, and a push to it bounces without a loss draw.

use crate::config::GossipConfig;
use crate::error::GossipError;
use crate::fanout::TargetDraw;
use crate::metrics::MessageStats;
use crate::pair::{GossipPair, RATIO_SENTINEL};
use crate::protocol::Convergence;
use dg_graph::{Graph, NodeId};
use rand::Rng;
use std::collections::BTreeMap;

/// Per-subject gossip state at one node: value, weight and count masses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct VectorOutcome {
    /// Gossip steps executed.
    pub steps: usize,
    /// Whether every present node stopped within the step budget.
    pub converged: bool,
    /// Message accounting (vector messages, not entries).
    pub stats: MessageStats,
    /// Total entries shipped across the run (communication complexity).
    pub entries_sent: u64,
    /// Nodes still present at the end (false = departed by churn).
    pub present: Vec<bool>,
    /// Final per-node vectors, packed ascending by node.
    runs: Slab,
}

impl VectorOutcome {
    /// `node`'s final vector as `(subject, masses)`, subjects ascending
    /// (empty for a departed node).
    pub fn vector(&self, node: NodeId) -> impl Iterator<Item = (u32, VectorEntry)> + '_ {
        let (subjects, entries) = self.runs.run(node.index());
        subjects.iter().copied().zip(entries.iter().copied())
    }

    /// Ratio estimate of `subject` at `node`, `None` if the node holds no
    /// mass for that subject.
    pub fn estimate(&self, node: NodeId, subject: NodeId) -> Option<f64> {
        self.runs
            .get(node.index(), subject.0)
            .filter(|e| e.weight != 0.0)
            .map(VectorEntry::ratio)
    }

    /// Count estimate (`N_d`) of `subject` at `node`.
    pub fn count_estimate(&self, node: NodeId, subject: NodeId) -> Option<f64> {
        self.runs
            .get(node.index(), subject.0)
            .and_then(VectorEntry::count_estimate)
    }

    /// Maximum absolute deviation of present nodes' `subject` ratios from
    /// `reference` (the sentinel ratio where a node has no weight).
    pub fn max_error(&self, subject: u32, reference: f64) -> f64 {
        (0..self.present.len())
            .filter(|&i| self.present[i])
            .map(|i| {
                self.runs
                    .get(i, subject)
                    .map_or(RATIO_SENTINEL, VectorEntry::ratio)
            })
            .map(|ratio| (ratio - reference).abs())
            .fold(0.0, f64::max)
    }
}

/// Every node's vector in one slab: node `i`'s run is the span
/// `spans[i] = (start, len)` of `subjects` (ascending) and `entries`; an
/// empty run is `(0, 0)`. Entries no span covers are dead.
#[derive(Debug, Clone, PartialEq, Default)]
struct Slab {
    spans: Vec<(u32, u32)>,
    subjects: Vec<u32>,
    entries: Vec<VectorEntry>,
    /// Entries some span covers.
    live: usize,
}

/// The span of a run of `len` entries at `start`.
fn span(start: usize, len: usize) -> (u32, u32) {
    if len == 0 {
        return (0, 0);
    }
    let end = u32::try_from(start + len).expect("a vector slab holds at most u32::MAX entries");
    (end - len as u32, len as u32)
}

impl Slab {
    /// One run per node, ascending, each mass stored as the `0.0 + e` a
    /// step that rebuilt the run alone would make of it.
    fn from_maps(maps: &[GossipVector]) -> Self {
        Self::from_runs(maps.iter().map(|map| map.iter().map(|(&j, &e)| (j, e))))
    }

    fn from_runs<I>(runs: impl IntoIterator<Item = I>) -> Self
    where
        I: IntoIterator<Item = (u32, VectorEntry)>,
    {
        let mut slab = Self::default();
        for run in runs {
            let start = slab.subjects.len();
            for (j, e) in run {
                let mut sum = VectorEntry::default();
                sum.add(e);
                slab.subjects.push(j);
                slab.entries.push(sum);
            }
            slab.spans.push(span(start, slab.subjects.len() - start));
        }
        slab.live = slab.subjects.len();
        slab
    }

    fn to_maps(&self) -> Vec<GossipVector> {
        (0..self.spans.len())
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

    #[inline]
    fn run(&self, node: usize) -> (&[u32], &[VectorEntry]) {
        let (start, len) = self.spans[node];
        let span = start as usize..(start + len) as usize;
        (&self.subjects[span.clone()], &self.entries[span])
    }

    #[inline]
    fn len(&self, node: usize) -> usize {
        self.spans[node].1 as usize
    }

    fn get(&self, node: usize, subject: u32) -> Option<&VectorEntry> {
        let (subjects, entries) = self.run(node);
        subjects.binary_search(&subject).ok().map(|at| &entries[at])
    }

    /// Every run, ascending by node.
    fn runs(&self) -> impl Iterator<Item = (&[u32], &[VectorEntry])> {
        (0..self.spans.len()).map(|i| self.run(i))
    }

    /// Make `node`'s run the given one: in place if it fits, at the tail
    /// otherwise; repack once the dead entries outnumber the live ones.
    fn commit(&mut self, node: usize, subjects: &[u32], entries: &[VectorEntry]) {
        let (start, len) = self.spans[node];
        let (mut start, len, new_len) = (start as usize, len as usize, subjects.len());
        if start + len == self.subjects.len() {
            // The tail run (or the first run of an empty slab).
            self.subjects.truncate(start);
            self.entries.truncate(start);
            self.subjects.extend_from_slice(subjects);
            self.entries.extend_from_slice(entries);
        } else if new_len <= len {
            self.subjects[start..start + new_len].copy_from_slice(subjects);
            self.entries[start..start + new_len].copy_from_slice(entries);
        } else {
            start = self.subjects.len();
            self.subjects.extend_from_slice(subjects);
            self.entries.extend_from_slice(entries);
        }
        self.spans[node] = span(start, new_len);
        self.live = self.live - len + new_len;
        if self.subjects.len() - self.live > self.live {
            self.repack();
        }
    }

    /// Copy every run, ascending by node, into arrays with no dead entry.
    fn repack(&mut self) {
        let mut subjects = Vec::with_capacity(self.live);
        let mut entries = Vec::with_capacity(self.live);
        for s in &mut self.spans {
            let run = s.0 as usize..(s.0 + s.1) as usize;
            *s = span(subjects.len(), run.len());
            subjects.extend_from_slice(&self.subjects[run.clone()]);
            entries.extend_from_slice(&self.entries[run]);
        }
        self.subjects = subjects;
        self.entries = entries;
    }
}

/// The runs a step rebuilds, appended in the order it visits their
/// nodes: run `k` is `offsets[k]..offsets[k + 1]` of `subjects`
/// (ascending) and `entries`.
#[derive(Debug, Clone)]
struct Arena {
    offsets: Vec<usize>,
    subjects: Vec<u32>,
    entries: Vec<VectorEntry>,
}

impl Arena {
    fn new() -> Self {
        Self {
            offsets: vec![0],
            subjects: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn run(&self, k: usize) -> (&[u32], &[VectorEntry]) {
        let span = self.offsets[k]..self.offsets[k + 1];
        (&self.subjects[span.clone()], &self.entries[span])
    }

    /// The last closed run.
    fn last(&self) -> (&[u32], &[VectorEntry]) {
        self.run(self.offsets.len() - 2)
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

    /// Close the open run.
    fn close_run(&mut self) {
        self.offsets.push(self.subjects.len());
    }
}

/// A set of node ids, one bit per node.
#[derive(Debug, Clone)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn contains(&self, node: usize) -> bool {
        self.words[node / 64] >> (node % 64) & 1 == 1
    }

    fn set(&mut self, node: usize, member: bool) {
        let bit = 1 << (node % 64);
        if member {
            self.words[node / 64] |= bit;
        } else {
            self.words[node / 64] &= !bit;
        }
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(at, &word)| members(at, word))
    }
}

/// The nodes a set's `at`-th word holds, ascending. Walking a set word by
/// word leaves the caller free to change the engine as it goes.
fn members(at: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            at * 64 + bit
        })
    })
}

/// Vector push-sum gossip engine (Variations 3 and 4, and Algorithm 1's
/// one-subject core).
#[derive(Debug, Clone)]
pub struct VectorGossip<'g> {
    graph: &'g Graph,
    config: GossipConfig,
    convergence: Convergence,
    /// Pushes per step, clamped to the degree (0 for an isolated node).
    fanouts: Vec<usize>,
    state: Slab,
    /// The runs the step under way rebuilt, committed to `state` at its end.
    rebuilt: Arena,
    targets: TargetDraw,
    /// Who pushes next step: a node with a run, not stopped, and with
    /// fan-out > 0. Re-derived for a node wherever one of the three can
    /// have changed.
    senders: NodeSet,
    /// Whom a push reached this step; empty between steps.
    receivers: NodeSet,
    /// This step's delivered pushes as `(receiver, sender)`, in sender order.
    delivered: Vec<(u32, u32)>,
    /// `delivered` bucketed by receiver into `inbox_senders`, receivers
    /// ascending and each one's senders ascending. `inbox_ends[r]` holds
    /// `r`'s count after pass 1 and its bucket's end after the scatter
    /// (its start is the previous receiver's end); zero between steps.
    inbox_ends: Vec<usize>,
    inbox_senders: Vec<u32>,
    /// How many times a pushing node adds its own share back this step
    /// (once, plus once per lost push); zero between steps.
    kept_shares: Vec<usize>,
    /// A departed node is announced and stopped for good.
    announced: Vec<bool>,
    /// Per node, how many of its neighbours have not announced.
    unannounced: Vec<u32>,
    /// Nodes whose announcement flipped since their own and their
    /// neighbours' stopped flags were last derived; every node before the
    /// first step.
    unsettled: Vec<u32>,
    stopped: Vec<bool>,
    /// Nodes not stopped.
    running: usize,
    present: Vec<bool>,
    survivors: usize,
    departures: usize,
    step: usize,
    stats: MessageStats,
    entries_sent: u64,
}

impl<'g> VectorGossip<'g> {
    /// Create an engine with per-node initial vectors, each node's
    /// movement held to `N·ξ` (Eq. (7)).
    pub fn new(
        graph: &'g Graph,
        config: GossipConfig,
        initial: Vec<GossipVector>,
    ) -> Result<Self, GossipError> {
        Self::build(graph, config, Slab::from_maps(&initial), graph.node_count())
    }

    /// Create a one-subject engine (Algorithm 1's diffusion core): node
    /// `i` gossips `initial[i]` as subject `0`, its movement held to `ξ`.
    pub fn one_subject(
        graph: &'g Graph,
        config: GossipConfig,
        initial: Vec<GossipPair>,
    ) -> Result<Self, GossipError> {
        let state = Slab::from_runs(initial.iter().map(|p| {
            let entry = VectorEntry {
                value: p.value,
                weight: p.weight,
                count: 0.0,
            };
            [(0, entry)]
        }));
        Self::build(graph, config, state, 1)
    }

    /// A one-subject **average** where every node is an originator of its
    /// own value (gossip weight 1 everywhere) — the setting of Theorem 5.2.
    pub fn average(
        graph: &'g Graph,
        config: GossipConfig,
        values: &[f64],
    ) -> Result<Self, GossipError> {
        let initial = values.iter().map(|&v| GossipPair::originator(v)).collect();
        Self::one_subject(graph, config, initial)
    }

    fn build(
        graph: &'g Graph,
        config: GossipConfig,
        state: Slab,
        subjects: usize,
    ) -> Result<Self, GossipError> {
        let config = config.validated()?;
        let n = graph.node_count();
        if state.spans.len() != n {
            return Err(GossipError::StateSizeMismatch {
                given: state.spans.len(),
                expected: n,
            });
        }
        if let Some(e) = state
            .entries
            .iter()
            .find(|e| !e.weight.is_finite() || e.weight < 0.0)
        {
            return Err(GossipError::InvalidWeight(e.weight));
        }
        let mut fanouts = config.fanout.resolve(graph)?;
        for (k, node) in fanouts.iter_mut().zip(graph.nodes()) {
            *k = (*k).min(graph.degree(node));
        }
        let mut engine = Self {
            graph,
            config,
            convergence: Convergence::new(config.xi, config.sticky_announcements, subjects),
            fanouts,
            state,
            rebuilt: Arena::new(),
            targets: TargetDraw::default(),
            senders: NodeSet::new(n),
            receivers: NodeSet::new(n),
            delivered: Vec::new(),
            inbox_ends: vec![0; n],
            inbox_senders: Vec::new(),
            kept_shares: vec![0; n],
            announced: vec![false; n],
            unannounced: graph.nodes().map(|v| graph.degree(v) as u32).collect(),
            unsettled: (0..n as u32).collect(),
            stopped: vec![false; n],
            running: n,
            present: vec![true; n],
            survivors: n,
            departures: 0,
            step: 0,
            stats: MessageStats::new(n),
            entries_sent: 0,
        };
        for i in 0..n {
            engine.refresh_sender(i);
        }
        Ok(engine)
    }

    /// Steps executed so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Whether every present node has stopped.
    pub fn all_stopped(&self) -> bool {
        self.running == 0
    }

    /// Every node's current `subject` ratio (the sentinel where it holds
    /// no weight).
    pub fn ratios(&self, subject: u32) -> Vec<f64> {
        (0..self.graph.node_count())
            .map(|i| {
                self.state
                    .get(i, subject)
                    .map_or(RATIO_SENTINEL, VectorEntry::ratio)
            })
            .collect()
    }

    /// Total per-subject `(Σ y, Σ g, Σ count)` masses — conserved across
    /// steps.
    pub fn total_mass(&self) -> BTreeMap<u32, (f64, f64, f64)> {
        let mut totals: BTreeMap<u32, (f64, f64, f64)> = BTreeMap::new();
        for (subjects, entries) in self.state.runs() {
            for (&j, e) in subjects.iter().zip(entries) {
                let t = totals.entry(j).or_insert((0.0, 0.0, 0.0));
                t.0 += e.value;
                t.1 += e.weight;
                t.2 += e.count;
            }
        }
        totals
    }

    /// This step's departures (see the module docs). If any node left,
    /// the slab is rebuilt and the state the step started from returned.
    #[cold]
    #[inline(never)]
    fn apply_churn<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Slab> {
        let churn = self.config.churn;
        let n = self.graph.node_count();
        let mut maps = Vec::new();
        for i in 0..n {
            if !self.present[i] || self.departures >= churn.max_departures || !churn.departs(rng) {
                continue;
            }
            // Keep at least one node so mass has somewhere to live.
            if self.survivors <= 1 {
                break;
            }
            let heir = self
                .graph
                .neighbours(NodeId(i as u32))
                .iter()
                .map(|&w| w as usize)
                .find(|&w| self.present[w])
                .unwrap_or_else(|| self.lowest_survivor_but(i));
            self.depart(&mut maps, i, heir);
            self.departures += 1;
        }
        // Overlay repair: a node whose every neighbour departed could
        // never hear again.
        while self.survivors > 1 {
            let stranded = (0..n).find(|&i| {
                let neighbours = self.graph.neighbours(NodeId(i as u32));
                self.present[i]
                    && !neighbours.is_empty()
                    && neighbours.iter().all(|&w| !self.present[w as usize])
            });
            let Some(i) = stranded else { break };
            self.depart(&mut maps, i, self.lowest_survivor_but(i));
        }
        if maps.is_empty() {
            return None;
        }
        let prior = std::mem::replace(&mut self.state, Slab::from_maps(&maps));
        // Departed nodes' runs emptied and heirs' filled.
        for i in 0..n {
            self.refresh_sender(i);
        }
        Some(prior)
    }

    fn lowest_survivor_but(&self, node: usize) -> usize {
        (0..self.graph.node_count())
            .find(|&w| w != node && self.present[w])
            .expect("another node survives")
    }

    /// `node` leaves, its vector summed into `heir`'s in `maps` — the
    /// step's state as maps, taken from the slab at the first departure.
    fn depart(&mut self, maps: &mut Vec<GossipVector>, node: usize, heir: usize) {
        if maps.is_empty() {
            *maps = self.state.to_maps();
        }
        for (j, e) in std::mem::take(&mut maps[node]) {
            maps[heir].entry(j).or_default().add(e);
        }
        self.present[node] = false;
        if !self.announced[node] {
            self.flip(node);
        }
        if !self.stopped[node] {
            self.stopped[node] = true;
            self.running -= 1;
        }
        self.survivors -= 1;
    }

    /// Flip `node`'s announcement. Its neighbours' counts follow at once;
    /// the stopped flags around it are re-derived when the step ends.
    fn flip(&mut self, node: usize) {
        let announced = !self.announced[node];
        self.announced[node] = announced;
        for &w in self.graph.neighbours(NodeId(node as u32)) {
            let count = &mut self.unannounced[w as usize];
            *count = if announced { *count - 1 } else { *count + 1 };
        }
        self.unsettled.push(node as u32);
    }

    /// Re-derive whether present `node` is stopped — its neighbours'
    /// flags folded into one, "all announced" — and whether it pushes.
    fn settle(&mut self, node: usize) {
        if !self.present[node] {
            return;
        }
        let neighbours =
            (self.graph.degree(NodeId(node as u32)) > 0).then_some(self.unannounced[node] == 0);
        let stopped = Convergence::quiescent(self.announced[node], neighbours.into_iter());
        if stopped != self.stopped[node] {
            self.stopped[node] = stopped;
            if stopped {
                self.running -= 1;
            } else {
                self.running += 1;
            }
        }
        self.refresh_sender(node);
    }

    fn refresh_sender(&mut self, node: usize) {
        let sends = !self.stopped[node] && self.fanouts[node] > 0 && self.state.len(node) > 0;
        self.senders.set(node, sends);
    }

    /// Execute one gossip step; returns messages sent.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        #[cfg(debug_assertions)]
        let mass_before = self.total_mass();

        // At the cap nothing departs and draws nothing, and the last
        // churning step's repair left no node stranded: skip the walk.
        let churn = self.config.churn;
        let prior =
            if churn.departure_probability() != 0.0 && self.departures < churn.max_departures {
                self.apply_churn(rng)
            } else {
                None
            };
        let mut messages = 0u64;
        let mut active = 0u64;

        // Pass 1, senders ascending: who pushes to whom, and which
        // pushes bounce. Nodes with nothing to say draw nothing.
        self.delivered.clear();
        for i in self.senders.iter() {
            active += 1;
            // Choose targets once per node; the whole vector travels in
            // one message per target.
            let k = self.fanouts[i];
            let neighbours = self.graph.neighbours(NodeId(i as u32));
            messages += k as u64;
            self.entries_sent += (self.state.len(i) * k) as u64;
            let mut kept = 1;
            for &idx in self.targets.draw(rng, neighbours.len(), k) {
                let target = neighbours[idx] as usize;
                if !self.present[target] || self.config.loss.drops(rng) {
                    kept += 1;
                } else {
                    self.delivered.push((target as u32, i as u32));
                    self.inbox_ends[target] += 1;
                    self.receivers.set(target, true);
                }
            }
            self.kept_shares[i] = kept;
        }

        // Bucket the delivered pushes by receiver: a stable counting sort
        // over the receivers alone. Pass 1 ran in sender order, so senders
        // stay ascending inside a bucket. Each receiver's count becomes
        // its bucket's start, the scatter's cursor, which the scatter
        // leaves at the bucket's end.
        let mut end = 0;
        for r in self.receivers.iter() {
            let count = self.inbox_ends[r];
            self.inbox_ends[r] = end;
            end += count;
        }
        self.inbox_senders.clear();
        self.inbox_senders.resize(self.delivered.len(), 0);
        for &(r, sender) in &self.delivered {
            let cursor = &mut self.inbox_ends[r as usize];
            self.inbox_senders[*cursor] = sender;
            *cursor += 1;
        }

        // Pass 2, the nodes that pushed or heard, ascending: merge what
        // each one heard with what it kept, in the order the module docs
        // fix, into `rebuilt`, and hand the convergence protocol Eq. (7)'s
        // summed movement, measured from the state the step started from.
        // The slab is only read here, so every sender's run is still the
        // one it pushed.
        self.rebuilt.clear();
        let mut bucket_start = 0;
        for at in 0..self.senders.words.len() {
            for r in members(at, self.senders.words[at] | self.receivers.words[at]) {
                let mut bucket = 0..0;
                if self.receivers.contains(r) {
                    bucket = bucket_start..std::mem::take(&mut self.inbox_ends[r]);
                    bucket_start = bucket.end;
                }
                let senders = &self.inbox_senders[bucket];
                let (own_subjects, own_entries) = self.state.run(r);
                let above = senders.partition_point(|&s| (s as usize) < r);
                let hear = |rebuilt: &mut Arena, heard: &[u32]| {
                    for &s in heard {
                        let (subjects, entries) = self.state.run(s as usize);
                        rebuilt.accumulate(subjects, entries, self.fanouts[s as usize] + 1, 1);
                    }
                };
                hear(&mut self.rebuilt, &senders[..above]);
                match std::mem::take(&mut self.kept_shares[r]) {
                    0 => self.rebuilt.accumulate(own_subjects, own_entries, 1, 1),
                    kept => self.rebuilt.accumulate(
                        own_subjects,
                        own_entries,
                        self.fanouts[r] + 1,
                        kept,
                    ),
                }
                hear(&mut self.rebuilt, &senders[above..]);
                self.rebuilt.close_run();

                if !senders.is_empty() {
                    // A node never lets go of a subject, so the old run is
                    // a subsequence of the new one.
                    let before = prior.as_ref().unwrap_or(&self.state);
                    let (old_subjects, old_entries) = before.run(r);
                    let (new_subjects, new_entries) = self.rebuilt.last();
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
                    if self.convergence.observe(self.announced[r], total_move) != self.announced[r]
                    {
                        self.flip(r);
                    }
                }
            }
        }

        // Commit the rebuilt runs, visiting the nodes in pass 2's order.
        let mut built = 0;
        for at in 0..self.senders.words.len() {
            for r in members(at, self.senders.words[at] | self.receivers.words[at]) {
                let (subjects, entries) = self.rebuilt.run(built);
                self.state.commit(r, subjects, entries);
                built += 1;
            }
        }

        // Quiescence, maintained: only a node whose announcement flipped
        // and its neighbours can have started or stopped, and a receiver
        // may hold its first run and start pushing.
        let graph = self.graph;
        for at in 0..self.unsettled.len() {
            let node = self.unsettled[at] as usize;
            self.settle(node);
            for &w in graph.neighbours(NodeId(node as u32)) {
                self.settle(w as usize);
            }
        }
        self.unsettled.clear();
        for at in 0..self.receivers.words.len() {
            for r in members(at, std::mem::take(&mut self.receivers.words[at])) {
                self.refresh_sender(r);
            }
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
        self.state.repack();
        VectorOutcome {
            steps: self.step,
            converged,
            stats: self.stats,
            entries_sent: self.entries_sent,
            present: self.present,
            runs: self.state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::FanoutPolicy;
    use crate::loss::{ChurnModel, LossModel};
    use dg_graph::{generators, pa, GraphBuilder};
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn mean(values: &[f64]) -> f64 {
        values.iter().sum::<f64>() / values.len() as f64
    }

    fn pa_graph(nodes: usize, seed: u64) -> Graph {
        pa::preferential_attachment(pa::PaConfig { nodes, m: 2 }, &mut rng(seed)).unwrap()
    }

    fn averaged(g: &Graph, config: GossipConfig, values: &[f64], seed: u64) -> VectorOutcome {
        VectorGossip::average(g, config, values)
            .unwrap()
            .run(&mut rng(seed))
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
        assert!(matches!(
            VectorGossip::one_subject(&g, GossipConfig::default(), vec![GossipPair::ZERO; 2]),
            Err(GossipError::StateSizeMismatch {
                given: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn rejects_negative_weight() {
        let g = generators::complete(2);
        let bad = GossipPair {
            value: 0.0,
            weight: -1.0,
        };
        assert_eq!(
            VectorGossip::one_subject(&g, GossipConfig::default(), vec![bad, GossipPair::ZERO])
                .err(),
            Some(GossipError::InvalidWeight(-1.0))
        );
        let mut init = vec![GossipVector::new(); 2];
        init[1].insert(4, VectorEntry::passive(0.5));
        init[1].get_mut(&4).unwrap().weight = f64::INFINITY;
        assert_eq!(
            VectorGossip::new(&g, GossipConfig::default(), init).err(),
            Some(GossipError::InvalidWeight(f64::INFINITY))
        );
    }

    #[test]
    fn one_subject_averaging_converges_to_the_mean() {
        let g = generators::complete(20);
        let values: Vec<f64> = (0..20).map(|i| i as f64 / 19.0).collect();
        let out = averaged(&g, GossipConfig::differential(1e-6).unwrap(), &values, 1);
        assert!(out.converged);
        let error = out.max_error(0, mean(&values));
        assert!(error < 1e-3, "complete graph: max error {error}");

        let g = pa_graph(300, 2);
        let values: Vec<f64> = (0..300).map(|i| (i % 10) as f64 / 10.0).collect();
        let out = averaged(&g, GossipConfig::differential(1e-7).unwrap(), &values, 3);
        assert!(out.converged);
        let error = out.max_error(0, mean(&values));
        assert!(error < 1e-3, "PA graph: max error {error}");
    }

    #[test]
    fn normal_push_also_converges_but_differential_is_not_slower_on_pa() {
        let g = pa_graph(500, 4);
        let values: Vec<f64> = (0..500).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let diff = averaged(&g, GossipConfig::differential(1e-8).unwrap(), &values, 5);
        let normal = GossipConfig::differential(1e-8)
            .unwrap()
            .with_fanout(FanoutPolicy::Uniform(1));
        let push = averaged(&g, normal, &values, 5);
        assert!(diff.converged && push.converged);
        // Differential should not need more steps than normal push on a
        // power-law graph (usually strictly fewer).
        assert!(
            diff.steps <= push.steps + 2,
            "differential {} vs push {}",
            diff.steps,
            push.steps
        );
    }

    #[test]
    fn converges_under_packet_loss() {
        let g = pa_graph(200, 9);
        let values: Vec<f64> = (0..200).map(|i| ((i % 5) as f64) / 5.0).collect();
        let config = GossipConfig::differential(1e-6).unwrap();
        let lossless = averaged(&g, config, &values, 10);
        let lossy = averaged(
            &g,
            config.with_loss(LossModel::new(0.2).unwrap()),
            &values,
            10,
        );
        assert!(lossless.converged && lossy.converged);
        assert!(lossy.max_error(0, mean(&values)) < 1e-2);
        // Fig. 4: loss costs extra steps, but only a modest number.
        assert!(lossy.steps >= lossless.steps);
    }

    #[test]
    fn uniform_one_push_sends_one_message_per_node_per_step() {
        let g = generators::complete(10);
        let config = GossipConfig::differential(1e-6)
            .unwrap()
            .with_fanout(FanoutPolicy::Uniform(1));
        let mut engine = VectorGossip::average(&g, config, &[0.5; 10]).unwrap();
        assert_eq!(engine.step(&mut rng(12)), 10);
    }

    #[test]
    fn max_steps_cap_reports_non_convergence() {
        let g = generators::ring(50).unwrap();
        let values: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let config = GossipConfig::differential(1e-12).unwrap().with_max_steps(3);
        let out = averaged(&g, config, &values, 13);
        assert!(!out.converged);
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn stopped_network_stays_quiescent() {
        let g = generators::complete(8);
        // Already uniform: every ratio is 0.25 forever, so convergence is
        // detected as soon as the |S| > 1 condition is met once.
        let out = averaged(
            &g,
            GossipConfig::differential(1e-4).unwrap(),
            &[0.25; 8],
            14,
        );
        assert!(out.converged);
        assert!(out.steps <= 4, "steps {}", out.steps);
        assert!(out.max_error(0, 0.25) < 1e-12);
    }

    #[test]
    fn tighter_tolerance_needs_at_least_as_many_steps() {
        let g = pa_graph(200, 15);
        let values: Vec<f64> = (0..200).map(|i| ((i * 31) % 17) as f64 / 17.0).collect();
        let loose = averaged(&g, GossipConfig::differential(1e-2).unwrap(), &values, 16);
        let tight = averaged(&g, GossipConfig::differential(1e-8).unwrap(), &values, 16);
        assert!(tight.steps >= loose.steps);
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

    /// Per subject, across lossless, lossy and churning steps, for a
    /// sparse vector state and a one-subject average.
    #[test]
    fn mass_conserved_per_subject() {
        let g = pa_graph(60, 3);
        let opinions = [(0, 1, 0.4), (2, 1, 0.9), (5, 30, 0.7)];
        let init = initial_from_opinions(60, &opinions);
        let values: Vec<GossipPair> = (0..60)
            .map(|i| GossipPair::originator(i as f64 / 59.0))
            .collect();
        let plain = GossipConfig::differential(1e-6).unwrap();
        for config in [
            plain,
            plain.with_loss(LossModel::new(0.3).unwrap()),
            plain.with_churn(ChurnModel::new(0.05, 10).unwrap()),
        ] {
            for mut engine in [
                VectorGossip::new(&g, config, init.clone()).unwrap(),
                VectorGossip::one_subject(&g, config, values.clone()).unwrap(),
            ] {
                let before = engine.total_mass();
                // One RNG across the whole run: a fresh seed per step
                // would replay the same draws every step, and churn could
                // never trigger.
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
                // Departures are capped; the overlay repair is not.
                let departed = engine.present.iter().filter(|&&p| !p).count();
                assert_eq!(engine.survivors, 60 - departed);
                if config.churn == ChurnModel::none() {
                    assert_eq!(departed, 0);
                } else {
                    assert!(engine.departures > 0 && engine.departures <= 10);
                    assert!(departed >= engine.departures);
                }
            }
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

        // Algorithm 1's sum mode on the one-subject path: one node holds
        // the unit weight and value 0.6, everybody else `ZERO`.
        let g = generators::complete(10);
        let mut initial = vec![GossipPair::ZERO; 10];
        initial[3] = GossipPair::originator(0.6);
        let out = VectorGossip::one_subject(&g, GossipConfig::differential(1e-9).unwrap(), initial)
            .unwrap()
            .run(&mut rng(6));
        assert!(out.converged);
        assert!(out.max_error(0, 0.6) < 1e-4, "outcome {out:?}");
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

    /// The departures of the scalar engine this one absorbed, over maps:
    /// survivors recounted for every departure, an heir's map summed as
    /// its own entries, then the departed node's.
    fn map_churn(
        graph: &Graph,
        churn: ChurnModel,
        present: &mut [bool],
        departures: &mut usize,
        state: &mut [GossipVector],
        rng: &mut ChaCha8Rng,
    ) {
        if churn.departure_probability() == 0.0 {
            return;
        }
        let n = state.len();
        let hand_over = |state: &mut [GossipVector], from: usize, to: usize| {
            let departed = std::mem::take(&mut state[from]);
            let mut merged = GossipVector::new();
            for (&j, e) in state[to].iter().chain(&departed) {
                merged.entry(j).or_default().add(*e);
            }
            state[to] = merged;
        };
        let survivors = |present: &[bool]| present.iter().filter(|&&p| p).count();
        for i in 0..n {
            if !present[i] || *departures >= churn.max_departures || !churn.departs(rng) {
                continue;
            }
            if survivors(present) <= 1 {
                break;
            }
            let heir = graph
                .neighbours(NodeId(i as u32))
                .iter()
                .map(|&w| w as usize)
                .find(|&w| present[w])
                .or_else(|| (0..n).find(|&w| w != i && present[w]));
            if let Some(heir) = heir {
                hand_over(state, i, heir);
                present[i] = false;
                *departures += 1;
            }
        }
        while survivors(present) > 1 {
            let stranded = (0..n).find(|&i| {
                let neighbours = graph.neighbours(NodeId(i as u32));
                present[i]
                    && !neighbours.is_empty()
                    && neighbours.iter().all(|&w| !present[w as usize])
            });
            let Some(i) = stranded else { break };
            let heir = (0..n).find(|&w| w != i && present[w]).unwrap();
            hand_over(state, i, heir);
            present[i] = false;
        }
    }

    /// The mass movement of the map-based `step` this engine replaced,
    /// kept as the reference: one `BTreeMap` inbox per node, every share
    /// added to its cell as the sender loop reaches it, a push to a
    /// departed node bounced without a loss draw. It takes the stopped
    /// and present flags as given: `stopping_rule_from_scratch` checks
    /// the engine's stopped flags, and `whole_runs_are_pinned_to_the_map_engine`
    /// the runs they make. Returns the new state, the messages and the
    /// entries sent.
    fn map_step(
        graph: &Graph,
        fanouts: &[usize],
        loss: LossModel,
        stopped: &[bool],
        present: &[bool],
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
            // The textbook partial Fisher–Yates over a fresh `0..degree`.
            let mut order: Vec<usize> = (0..neighbours.len()).collect();
            for at in 0..k {
                let swap = rng.random_range(at..neighbours.len());
                order.swap(at, swap);
            }
            let targets: Vec<usize> = order[..k]
                .iter()
                .map(|&idx| neighbours[idx] as usize)
                .collect();
            messages += k as u64;
            entries_sent += (current.len() * k) as u64;
            let lost: Vec<bool> = targets
                .iter()
                .map(|&target| !present[target] || loss.drops(rng))
                .collect();
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

    /// What the engine maintains from flips, derived from scratch as
    /// a step that scans every node would: each stopped flag from
    /// `announced` (a departed node announced and stopped), whether all
    /// stopped, and the sender set. `Err` names the first that differs.
    fn stopping_rule_from_scratch(engine: &VectorGossip) -> Result<(), String> {
        let g = engine.graph;
        let stopped: Vec<bool> = g
            .nodes()
            .map(|v| {
                let announced = engine.announced[v.index()];
                if !engine.present[v.index()] {
                    return announced;
                }
                let neighbours = g
                    .neighbours(v)
                    .iter()
                    .map(|&w| engine.announced[w as usize]);
                Convergence::quiescent(announced, neighbours)
            })
            .collect();
        if engine.stopped != stopped {
            return Err(format!("stopped {:?}, derived {stopped:?}", engine.stopped));
        }
        if engine.all_stopped() != stopped.iter().all(|&s| s) {
            return Err(format!("all_stopped() {}", engine.all_stopped()));
        }
        let senders: Vec<usize> = (0..g.node_count())
            .filter(|&i| !stopped[i] && engine.fanouts[i] > 0 && engine.state.len(i) > 0)
            .collect();
        let maintained: Vec<usize> = engine.senders.iter().collect();
        if maintained != senders {
            return Err(format!("senders {maintained:?}, derived {senders:?}"));
        }
        Ok(())
    }

    /// The slab's bookkeeping: `live` counts what the spans cover, the
    /// spans lie inside the arrays without overlapping, each run is
    /// sorted, and dead entries never outnumber live ones. (That each
    /// span reads back its node's run is the oracle comparison's part.)
    fn slab_is_sound(slab: &Slab) -> Result<(), String> {
        let live: usize = slab.spans.iter().map(|&(_, len)| len as usize).sum();
        if slab.live != live || slab.subjects.len() != slab.entries.len() {
            return Err(format!("live {} of {live}", slab.live));
        }
        if slab.subjects.len() > 2 * live {
            return Err(format!("{} entries, {live} live", slab.subjects.len()));
        }
        let mut spans: Vec<(u32, u32)> = slab.spans.iter().copied().filter(|s| s.1 > 0).collect();
        spans.sort_unstable();
        let mut covered = 0;
        for (start, len) in spans {
            let run = &slab.subjects[start as usize..(start + len) as usize];
            if (start as usize) < covered || run.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("span ({start}, {len}) overlaps or is unsorted"));
            }
            covered = (start + len) as usize;
        }
        Ok(())
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

        /// Every step of the flat engine — departures included — lands on
        /// the bits of the map inbox, leaves the RNG where the map engine
        /// left it, and leaves the stopping rule's flags and the sender
        /// set as a from-scratch derivation has them.
        #[test]
        fn flat_step_matches_the_map_inbox_bit_for_bit(
            nodes in 5usize..60,
            preferential in 0usize..2,
            edges in proptest::collection::vec((0usize..60, 0usize..60), 1..120),
            subjects in 1u32..13,
            opinions in proptest::collection::vec((0usize..60, 0u32..12, -1.0f64..1.0, 0usize..2), 1..150),
            lossy in 0usize..2,
            churning in 0usize..2,
            push in 0usize..4,
            xi_exponent in 2i32..9,
            seed in 0u64..1000,
            negative_zero in 0usize..120,
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
            // A mass of `-0.0`, which the map inbox turns into `0.0 + -0.0`
            // on the first step whether or not anything reaches the node.
            if negative_zero < 60 {
                let zero = VectorEntry { value: -0.0, weight: -0.0, count: -0.0 };
                state[negative_zero % nodes].insert(0, zero);
            }
            let loss = LossModel::new(if lossy == 1 { 0.3 } else { 0.0 }).unwrap();
            let fanout = match push {
                0 => FanoutPolicy::Differential,
                p => FanoutPolicy::Uniform(p),
            };
            let churn = if churning == 1 {
                ChurnModel::new(0.05, nodes / 3).unwrap()
            } else {
                ChurnModel::none()
            };
            let config = GossipConfig::differential(10f64.powi(-xi_exponent))
                .unwrap()
                .with_loss(loss)
                .with_churn(churn)
                .with_fanout(fanout);
            let fanouts = fanout.resolve(&graph).unwrap();

            let mut engine = VectorGossip::new(&graph, config, state.clone()).unwrap();
            let (mut flat_rng, mut map_rng) = (rng(seed), rng(seed));
            let (mut present, mut departures) = (vec![true; nodes], 0);
            let mut entries_sent = 0;
            for step in 0..40 {
                map_churn(&graph, churn, &mut present, &mut departures, &mut state, &mut map_rng);
                let (next, messages, entries) =
                    map_step(&graph, &fanouts, loss, &engine.stopped, &present, &state, &mut map_rng);
                state = next;
                entries_sent += entries;
                prop_assert_eq!(engine.step(&mut flat_rng), messages, "messages, step {}", step);
                prop_assert_eq!(&engine.present, &present, "present, step {}", step);
                prop_assert_eq!(engine.entries_sent, entries_sent, "entries, step {}", step);
                prop_assert_eq!(bits(&engine.state.to_maps()), bits(&state), "state, step {}", step);
                if let Err(diff) = slab_is_sound(&engine.state) {
                    prop_assert!(false, "step {}: slab {}", step, diff);
                }
                prop_assert_eq!(flat_rng.next_u64(), map_rng.next_u64(), "rng, step {}", step);
                if let Err(diff) = stopping_rule_from_scratch(&engine) {
                    prop_assert!(false, "step {}: {}", step, diff);
                }
            }
        }
    }

    /// `(steps, total messages, entries_sent, FNV fold of every
    /// (node, subject, value / weight / count bits))` of a finished run.
    fn run_pin(out: &VectorOutcome) -> (usize, u64, u64, u64) {
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..out.present.len() {
            for (j, e) in out.vector(NodeId(i as u32)) {
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

    /// Multi-subject runs under 30% loss and capped churn, revocable and
    /// sticky: departures announce nodes outside any observation and
    /// strand neighbourhoods, so these are the runs the stopping rule's
    /// bookkeeping is most exposed on. Each pin is [`run_pin`], whether
    /// the run converged, the departed count and an FNV fold of `present`.
    #[test]
    fn churning_lossy_runs_are_pinned() {
        let g =
            pa::preferential_attachment(pa::PaConfig { nodes: 90, m: 2 }, &mut rng(19)).unwrap();
        let config = GossipConfig::differential(1e-6)
            .unwrap()
            .with_loss(LossModel::new(0.3).unwrap())
            .with_churn(ChurnModel::new(0.05, 20).unwrap());
        let run = |config| {
            let out = VectorGossip::new(&g, config, neighbour_ratings(&g, true))
                .unwrap()
                .run(&mut rng(20));
            let present = out
                .present
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |fold, &p| {
                    (fold ^ u64::from(p)).wrapping_mul(0x0100_0000_01b3)
                });
            let departed = out.present.iter().filter(|&&p| !p).count();
            (run_pin(&out), out.converged, departed, present)
        };
        let revocable = run(config);
        let sticky = run(config.with_sticky_announcements());

        assert_eq!(
            revocable,
            (
                (582, 37_892, 3_355_372, 0xeb52_a61b_9985_6842),
                true,
                23,
                0xddf1_5ff4_a5a9_c3da
            )
        );
        assert_eq!(
            sticky,
            (
                (318, 17_700, 1_534_579, 0x42ac_27fd_4b85_a3c8),
                true,
                23,
                0x1c65_16e6_d82d_7a28
            )
        );
    }
}
