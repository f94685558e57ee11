//! Deterministic stochastic audits against within-bounds stealth
//! cartels.
//!
//! The clamp + trim defenses in [`robust`](crate::robust) reject
//! *outliers*; a cartel that biases every report **inside** the clamp
//! window in a correlated direction never produces one, so trimmed
//! aggregation is provably blind to it (for subjects with fewer than
//! `1 / trim_fraction` reporters the trim count is zero and even the
//! trim never fires). The countermeasure is re-verification instead of
//! statistics: every node keeps a bounded [`ReportLog`] of the reports
//! it emitted alongside the estimator state that *implied* them, and
//! each round a deterministic pseudo-random sample of nodes is audited
//! — their logged reports replayed against the implied values. A report
//! with no backing estimator, or one deviating from its implied value
//! beyond [`AuditPolicy::tolerance`], earns a strike;
//! [`AuditPolicy::strikes_to_convict`] strikes convict the node and
//! feed it into the existing purge path.
//!
//! Two properties make the scheme sound:
//!
//! * **Zero-coordination determinism** — audit targets come from a
//!   ChaCha8 stream seeded purely from `(run seed, round)` via
//!   [`audit_targets`], so every honest node samples the *same* targets
//!   with no protocol traffic beyond the audit itself.
//! * **Structural zero false positives** — honest nodes emit exactly
//!   their estimator state, so `reported` and `implied` are bit-equal
//!   and no tolerance, however tight, can strike them. Only a node
//!   whose emitted row *differs from its own recorded evidence* can
//!   accumulate strikes.

use crate::error::TrustError;
use dg_graph::NodeId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Salt folded into the audit-selection stream so it is decoupled from
/// every topology, population, workload and adversary stream.
const AUDIT_SALT: u64 = 0xA0D1_75EE_D5EE_D001;

/// SplitMix64 finalizer over `(seed, round)` — the per-round seed of
/// the shared audit-selection stream.
fn audit_stream_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed ^ AUDIT_SALT ^ round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic audit-target set of one round: `⌈audit_rate · n⌉`
/// node ids drawn without replacement from a ChaCha8 stream of
/// `(seed, round)`, returned ascending. Every honest node computes the
/// identical set with zero coordination.
pub fn audit_targets(seed: u64, round: u64, n: usize, audit_rate: f64) -> Vec<NodeId> {
    if audit_rate <= 0.0 || n == 0 {
        return Vec::new();
    }
    let count = ((audit_rate * n as f64).ceil() as usize).min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(audit_stream_seed(seed, round));
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(&mut rng);
    ids.truncate(count);
    ids.sort_unstable();
    ids.into_iter().map(NodeId).collect()
}

/// Knobs of the stochastic-audit layer. The default is
/// [`AuditPolicy::off`] — zero audit rate, no logging, runs
/// bit-identical to pre-audit behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditPolicy {
    /// Fraction of the population audited per round (`⌈rate · n⌉`
    /// targets). Zero disables the subsystem entirely.
    #[serde(default)]
    pub audit_rate: f64,
    /// Strikes at which a node is convicted and purged (must be ≥ 1
    /// whenever the rate is non-zero).
    #[serde(default)]
    pub strikes_to_convict: u32,
    /// Maximum tolerated |reported − implied| deviation before a
    /// checked log entry earns a strike. Honest entries have the two
    /// bit-equal, so any non-negative tolerance keeps them safe.
    #[serde(default)]
    pub tolerance: f64,
    /// Bound on each node's report log (entries, one per subject).
    #[serde(default)]
    pub log_capacity: usize,
    /// Log entries re-verified per audit (most recent first).
    #[serde(default)]
    pub checks_per_audit: usize,
}

impl Default for AuditPolicy {
    fn default() -> Self {
        Self::off()
    }
}

impl AuditPolicy {
    /// Audits disabled: every knob zero, so configs serialized before
    /// the audit layer existed deserialize to exactly this policy and
    /// runs under it are bit-identical to builds that predate the
    /// subsystem.
    pub const fn off() -> Self {
        Self {
            audit_rate: 0.0,
            strikes_to_convict: 0,
            tolerance: 0.0,
            log_capacity: 0,
            checks_per_audit: 0,
        }
    }

    /// The standard defended policy: 3 % of nodes audited per round,
    /// one entry re-verified per audit, conviction at two strikes. The
    /// knobs balance the two claims-gate bounds: enough sampling that a
    /// permanent cheater is audited (and struck) twice with high
    /// probability over a long run, at a bandwidth that stays under the
    /// documented fraction of report traffic even late in the run, when
    /// convictions have thinned the report volume the overhead is
    /// measured against.
    pub const fn standard() -> Self {
        Self {
            audit_rate: 0.03,
            strikes_to_convict: 2,
            tolerance: 0.05,
            log_capacity: 16,
            checks_per_audit: 1,
        }
    }

    /// Whether the subsystem is active at all.
    pub fn enabled(&self) -> bool {
        self.audit_rate > 0.0
    }

    /// Validate every knob.
    pub fn validated(self) -> Result<Self, TrustError> {
        if !(0.0..=1.0).contains(&self.audit_rate) {
            return Err(TrustError::InvalidAuditPolicy(
                "audit rate must lie in [0, 1]".into(),
            ));
        }
        if !(self.tolerance.is_finite() && self.tolerance >= 0.0) {
            return Err(TrustError::InvalidAuditPolicy(
                "tolerance must be finite and non-negative".into(),
            ));
        }
        if self.enabled()
            && (self.strikes_to_convict == 0
                || self.log_capacity == 0
                || self.checks_per_audit == 0)
        {
            return Err(TrustError::InvalidAuditPolicy(
                "conviction threshold, log capacity and checks per audit must be at least 1".into(),
            ));
        }
        Ok(self)
    }

    /// Whether one checked log entry earns a strike: fabricated (no
    /// backing estimator at emit time) or deviating from the implied
    /// value beyond the tolerance.
    pub fn entry_fails(&self, entry: &ReportLogEntry) -> bool {
        match entry.implied {
            None => true,
            Some(implied) => (entry.reported - implied).abs() > self.tolerance,
        }
    }

    /// Strikes earned by auditing `log`: the `checks_per_audit` most
    /// recent entries re-verified, one strike per failing entry.
    pub fn failed_checks(&self, log: &ReportLog) -> u32 {
        log.recent(self.checks_per_audit)
            .iter()
            .filter(|e| self.entry_fails(e))
            .count() as u32
    }
}

/// One logged report: what the node gossiped about `subject` in
/// `round`, alongside the estimate its recorded transaction outcomes
/// implied at emit time (`None` = fabricated, no backing estimator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportLogEntry {
    /// Subject the report was about.
    pub subject: NodeId,
    /// Round the logged value was last *changed* (re-emitting an
    /// unchanged report does not touch the entry — see
    /// [`ReportLog::record`]).
    pub round: u64,
    /// The gossiped trust value.
    pub reported: f64,
    /// The estimator-implied value at emit time.
    pub implied: Option<f64>,
}

/// Bounded per-node log of emitted reports, keyed by subject, kept for
/// audit re-verification.
///
/// `record` is **content-conditional**: re-recording an entry whose
/// `(reported, implied)` bits are unchanged is a total no-op (the entry
/// keeps its original round). This is what makes the log identical
/// across engines — the batched engine re-emits every row every round
/// while the incremental engine skips bitwise-unchanged rows, and the
/// no-op property collapses both into the same log state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportLog {
    /// Entries sorted by ascending subject (at most one per subject).
    entries: Vec<ReportLogEntry>,
}

impl ReportLog {
    /// Record one emitted report. No-op when the subject's existing
    /// entry already holds the same `(reported, implied)` bits;
    /// otherwise upsert with `round`, evicting the stalest entry
    /// (oldest round, smallest subject on ties) when `capacity` is
    /// exceeded. Returns whether the log changed — `false` for the
    /// no-op, and for an insert whose own entry is the one evicted.
    pub fn record(
        &mut self,
        subject: NodeId,
        round: u64,
        reported: f64,
        implied: Option<f64>,
        capacity: usize,
    ) -> bool {
        if capacity == 0 {
            return false;
        }
        match self.entries.binary_search_by_key(&subject, |e| e.subject) {
            Ok(ix) => {
                let e = &mut self.entries[ix];
                let same = e.reported.to_bits() == reported.to_bits()
                    && e.implied.map(f64::to_bits) == implied.map(f64::to_bits);
                if !same {
                    e.round = round;
                    e.reported = reported;
                    e.implied = implied;
                }
                !same
            }
            Err(ix) => {
                self.entries.insert(
                    ix,
                    ReportLogEntry {
                        subject,
                        round,
                        reported,
                        implied,
                    },
                );
                if self.entries.len() > capacity {
                    let evict = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| (e.round, e.subject))
                        .map(|(i, _)| i)
                        .expect("non-empty log");
                    self.entries.remove(evict);
                    return evict != ix;
                }
                true
            }
        }
    }

    /// The `k` most recent entries (greatest round first, larger
    /// subject first on ties) — the audit's re-verification sample.
    pub fn recent(&self, k: usize) -> Vec<ReportLogEntry> {
        let mut picked: Vec<ReportLogEntry> = self.entries.clone();
        picked.sort_by_key(|e| (std::cmp::Reverse(e.round), std::cmp::Reverse(e.subject)));
        picked.truncate(k);
        picked
    }

    /// All entries, sorted by ascending subject.
    pub fn entries(&self) -> &[ReportLogEntry] {
        &self.entries
    }

    /// Rebuild from checkpointed entries (must be sorted by ascending
    /// subject, as [`ReportLog::entries`] emits them).
    pub fn from_entries(entries: Vec<ReportLogEntry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].subject < w[1].subject));
        Self { entries }
    }

    /// Number of logged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (the purge path for convicted / washed nodes).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_selection_is_deterministic_sorted_and_sized() {
        let a = audit_targets(42, 3, 250, 0.04);
        let b = audit_targets(42, 3, 250, 0.04);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        assert_ne!(a, audit_targets(42, 4, 250, 0.04), "round decorrelates");
        assert_ne!(a, audit_targets(43, 3, 250, 0.04), "seed decorrelates");
        assert!(audit_targets(42, 3, 250, 0.0).is_empty());
        assert!(audit_targets(42, 3, 0, 0.5).is_empty());
        assert_eq!(audit_targets(42, 3, 10, 1.0).len(), 10);
    }

    #[test]
    fn policy_validation_rejects_bad_knobs() {
        assert!(AuditPolicy::off().validated().is_ok());
        assert!(AuditPolicy::standard().validated().is_ok());
        for bad in [
            AuditPolicy {
                audit_rate: -0.1,
                ..AuditPolicy::off()
            },
            AuditPolicy {
                audit_rate: 1.5,
                ..AuditPolicy::off()
            },
            AuditPolicy {
                tolerance: -1.0,
                ..AuditPolicy::off()
            },
            AuditPolicy {
                strikes_to_convict: 0,
                ..AuditPolicy::standard()
            },
            AuditPolicy {
                log_capacity: 0,
                ..AuditPolicy::standard()
            },
            AuditPolicy {
                checks_per_audit: 0,
                ..AuditPolicy::standard()
            },
        ] {
            assert!(bad.validated().is_err(), "{bad:?} must fail validation");
        }
    }

    #[test]
    fn record_is_content_conditional() {
        let mut log = ReportLog::default();
        assert!(log.record(NodeId(7), 1, 0.5, Some(0.5), 16));
        // Same bits, later round: total no-op — the round sticks.
        assert!(!log.record(NodeId(7), 5, 0.5, Some(0.5), 16));
        assert_eq!(log.entries()[0].round, 1);
        // Changed bits: the entry moves to the new round.
        assert!(log.record(NodeId(7), 6, 0.25, Some(0.5), 16));
        assert_eq!(log.entries()[0].round, 6);
        assert_eq!(log.entries()[0].reported, 0.25);
        assert_eq!(log.len(), 1);
        // Zero capacity logs nothing.
        assert!(!log.record(NodeId(8), 7, 0.5, None, 0));
    }

    #[test]
    fn an_insert_that_evicts_itself_reports_no_change() {
        let mut log = ReportLog::default();
        assert!(log.record(NodeId(5), 3, 0.5, Some(0.5), 2));
        assert!(log.record(NodeId(9), 3, 0.5, Some(0.5), 2));
        let before = log.clone();
        // Same round, smallest subject: the new entry is the stalest.
        assert!(!log.record(NodeId(1), 3, 0.5, Some(0.5), 2));
        assert_eq!(log, before);
        // A later round evicts an old entry instead.
        assert!(log.record(NodeId(1), 4, 0.5, Some(0.5), 2));
        assert_ne!(log, before);
    }

    #[test]
    fn log_is_bounded_and_evicts_stalest() {
        let mut log = ReportLog::default();
        for (subject, round) in [(3u32, 4u64), (1, 2), (9, 1), (5, 3)] {
            log.record(NodeId(subject), round, 0.5, Some(0.5), 3);
        }
        // Capacity 3: node 9 (round 1, the stalest) was evicted when 5
        // arrived.
        assert_eq!(log.len(), 3);
        let subjects: Vec<u32> = log.entries().iter().map(|e| e.subject.0).collect();
        assert_eq!(subjects, vec![1, 3, 5]);
    }

    #[test]
    fn recent_orders_by_round_then_subject() {
        let mut log = ReportLog::default();
        for (subject, round) in [(3u32, 4u64), (1, 2), (9, 4), (5, 3)] {
            log.record(NodeId(subject), round, 0.5, Some(0.5), 16);
        }
        let top: Vec<u32> = log.recent(3).iter().map(|e| e.subject.0).collect();
        assert_eq!(top, vec![9, 3, 5]);
    }

    #[test]
    fn honest_entries_never_strike_and_biased_ones_do() {
        let policy = AuditPolicy::standard();
        let honest = ReportLogEntry {
            subject: NodeId(1),
            round: 0,
            reported: 0.123_456_789,
            implied: Some(0.123_456_789),
        };
        assert!(!policy.entry_fails(&honest));
        let biased = ReportLogEntry {
            implied: Some(0.623_456_789),
            ..honest
        };
        assert!(policy.entry_fails(&biased));
        let fabricated = ReportLogEntry {
            implied: None,
            ..honest
        };
        assert!(policy.entry_fails(&fabricated));

        // Pin the re-verification depth: with 2 checks per audit only
        // the two most recent entries (the biased and the fabricated
        // one) are examined, and both fail; the honest round-0 entry is
        // outside the window.
        let policy = AuditPolicy {
            checks_per_audit: 2,
            ..policy
        };
        let mut log = ReportLog::default();
        log.record(NodeId(1), 0, 0.4, Some(0.4), 16);
        log.record(NodeId(2), 1, 0.2, Some(0.7), 16);
        log.record(NodeId(3), 1, 0.9, None, 16);
        assert_eq!(policy.failed_checks(&log), 2, "checks the 2 most recent");
    }

    #[test]
    fn policy_json_roundtrips_and_defaults_fill_missing_fields() {
        let policy = AuditPolicy::standard();
        let json = serde_json::to_string(&policy).unwrap();
        let back: AuditPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(policy, back);
        // A config written before the audit layer existed deserializes
        // to the off policy.
        let legacy: AuditPolicy = serde_json::from_str("{}").unwrap();
        assert_eq!(legacy, AuditPolicy::off());
    }
}
