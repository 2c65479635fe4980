//! Edge bounds of pattern graphs.
//!
//! `f_e(u, u')` is either a positive integer `k` — the pattern edge must be
//! witnessed by a non-empty path of length `<= k` in the data graph — or the
//! symbol `*`, in which case the path length is unbounded (Section 2.1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The bound `f_e(u, u')` carried by a pattern edge.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeBound {
    /// A bounded edge: witnessed by a non-empty path of at most `k` hops
    /// (`k >= 1`).
    Hops(u32),
    /// An unbounded edge (`*`): witnessed by any non-empty path.
    Unbounded,
}

impl EdgeBound {
    /// The "traditional" bound of 1 hop — edge-to-edge mapping as in plain
    /// graph simulation and subgraph isomorphism.
    pub const ONE: EdgeBound = EdgeBound::Hops(1);

    /// Whether a witness path of length `len` (in hops) satisfies this bound.
    ///
    /// Witness paths must be non-empty, so `len == 0` never satisfies any
    /// bound.
    #[inline]
    pub fn admits(self, len: u32) -> bool {
        if len == 0 {
            return false;
        }
        match self {
            EdgeBound::Hops(k) => len <= k,
            EdgeBound::Unbounded => true,
        }
    }

    /// The numeric bound if this edge is bounded.
    pub fn hops(self) -> Option<u32> {
        match self {
            EdgeBound::Hops(k) => Some(k),
            EdgeBound::Unbounded => None,
        }
    }

    /// Whether the bound is `*`.
    pub fn is_unbounded(self) -> bool {
        matches!(self, EdgeBound::Unbounded)
    }
}

impl Default for EdgeBound {
    /// The paper omits `f_e(u, u')` when it is 1; the default mirrors that.
    fn default() -> Self {
        EdgeBound::ONE
    }
}

impl From<u32> for EdgeBound {
    fn from(k: u32) -> Self {
        EdgeBound::Hops(k)
    }
}

impl fmt::Display for EdgeBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeBound::Hops(k) => write!(f, "{k}"),
            EdgeBound::Unbounded => write!(f, "*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_respects_bound() {
        let b3 = EdgeBound::Hops(3);
        assert!(!b3.admits(0));
        assert!(b3.admits(1));
        assert!(b3.admits(3));
        assert!(!b3.admits(4));
    }

    #[test]
    fn unbounded_admits_any_nonempty_path() {
        assert!(!EdgeBound::Unbounded.admits(0));
        assert!(EdgeBound::Unbounded.admits(1));
        assert!(EdgeBound::Unbounded.admits(1_000_000));
    }

    #[test]
    fn one_hop_is_edge_to_edge() {
        assert!(EdgeBound::ONE.admits(1));
        assert!(!EdgeBound::ONE.admits(2));
        assert_eq!(EdgeBound::default(), EdgeBound::ONE);
    }

    #[test]
    fn accessors() {
        assert_eq!(EdgeBound::Hops(5).hops(), Some(5));
        assert_eq!(EdgeBound::Unbounded.hops(), None);
        assert!(EdgeBound::Unbounded.is_unbounded());
        assert!(!EdgeBound::Hops(2).is_unbounded());
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(EdgeBound::Hops(4).to_string(), "4");
        assert_eq!(EdgeBound::Unbounded.to_string(), "*");
    }

    #[test]
    fn from_u32() {
        assert_eq!(EdgeBound::from(9u32), EdgeBound::Hops(9));
    }
}
