//! Affected-area accounting: `AFF2` and combined statistics.
//!
//! Following Ramalingam & Reps (and Section 4.1 of the paper), the cost of an
//! incremental algorithm is measured against the size of the *affected area*
//! rather than the size of the whole input:
//!
//! * `AFF1` — node pairs of the data graph whose pairwise distance changed
//!   (produced by `gpm_distance::DistanceOracle::apply_batch`);
//! * `AFF2` — match pairs `(u, v)` added to or removed from the maximum
//!   match, together with their neighbourhood.
//!
//! [`Aff2`] records the added/removed pairs; [`IncrementalStats`] aggregates
//! both areas per run, which is exactly what the `|AFF|/per update`
//! annotations of Figures 6(i)–(k) report.

use gpm_graph::{NodeId, PatternNodeId};

/// The changed part of the match relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Aff2 {
    /// Pairs added to the match (`Match+` / insertion side of `IncMatch`).
    pub added: Vec<(PatternNodeId, NodeId)>,
    /// Pairs removed from the match (`Match−` / deletion side of `IncMatch`).
    pub removed: Vec<(PatternNodeId, NodeId)>,
}

impl Aff2 {
    /// Number of changed match pairs, `|AFF2|`.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Whether the match did not change at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Merges another change set produced *after* this one. A pair that is
    /// removed and later re-added (or vice versa) cancels out.
    pub fn merge(&mut self, later: Aff2) {
        for pair in later.added {
            if let Some(pos) = self.removed.iter().position(|&p| p == pair) {
                self.removed.swap_remove(pos);
            } else {
                self.added.push(pair);
            }
        }
        for pair in later.removed {
            if let Some(pos) = self.added.iter().position(|&p| p == pair) {
                self.added.swap_remove(pos);
            } else {
                self.removed.push(pair);
            }
        }
    }
}

/// Aggregated statistics of one incremental run (unit update or batch).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// `|AFF1|`: node pairs whose distance changed.
    pub aff1: usize,
    /// `|AFF2|`: match pairs added or removed.
    pub aff2: usize,
    /// Number of candidate re-verifications performed (work proxy).
    pub verifications: usize,
}

impl IncrementalStats {
    /// The combined affected-area size reported in the figures
    /// (`|AFF| = |AFF1| + |AFF2|`).
    pub fn total_affected(&self) -> usize {
        self.aff1 + self.aff2
    }
}

/// The full outcome of one incremental operation (`Match−`, `Match+`,
/// `IncMatch`): both affected areas plus aggregate statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IncrementalOutcome {
    /// `AFF1`: the node pairs whose distance changed, with old/new values.
    pub aff1: gpm_distance::AffectedPairs,
    /// `AFF2`: the match pairs added or removed.
    pub aff2: Aff2,
    /// Aggregate statistics (sizes and work counters).
    pub stats: IncrementalStats,
}

impl IncrementalOutcome {
    /// Builds the outcome from its parts, filling in the size statistics.
    pub fn new(aff1: gpm_distance::AffectedPairs, aff2: Aff2, verifications: usize) -> Self {
        let stats = IncrementalStats {
            aff1: aff1.len(),
            aff2: aff2.len(),
            verifications,
        };
        IncrementalOutcome { aff1, aff2, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PatternNodeId {
        PatternNodeId::new(i)
    }

    fn d(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn len_and_empty() {
        let mut a = Aff2::default();
        assert!(a.is_empty());
        a.added.push((p(0), d(1)));
        a.removed.push((p(1), d(2)));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn merge_cancels_opposites() {
        let mut first = Aff2 {
            added: vec![(p(0), d(1))],
            removed: vec![(p(1), d(2))],
        };
        let second = Aff2 {
            added: vec![(p(1), d(2)), (p(2), d(3))],
            removed: vec![(p(0), d(1))],
        };
        first.merge(second);
        // (0,1) added then removed: gone. (1,2) removed then added: gone.
        assert!(first.added.iter().all(|&x| x == (p(2), d(3))));
        assert_eq!(first.added.len(), 1);
        assert!(first.removed.is_empty());
    }

    #[test]
    fn stats_total() {
        let s = IncrementalStats {
            aff1: 10,
            aff2: 4,
            verifications: 99,
        };
        assert_eq!(s.total_affected(), 14);
    }
}
