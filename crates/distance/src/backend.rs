//! Runtime selection of the distance backend.
//!
//! Matching, incremental maintenance and the service layer are generic over
//! [`DistanceOracle`]; [`OracleBackend`] is the small value that picks which
//! maintainable implementation to build. It is read from the `GPM_ORACLE`
//! environment variable by default and exposed as a `--oracle` flag by every
//! experiment binary in `gpm-bench`.

use crate::matrix::DistanceMatrix;
use crate::oracle::DistanceOracle;
use crate::two_hop_inc::IncrementalTwoHop;
use gpm_exec::Executor;
use gpm_graph::DataGraph;

/// The maintainable distance back-ends a matcher or service can run on.
///
/// | backend | memory | build | query | incremental cost |
/// |---------|--------|-------|-------|------------------|
/// | [`Matrix`](OracleBackend::Matrix) | `O(\|V\|²)` | `⌈\|V\| / 64⌉` multi-source BFS passes, 64 rows each | `O(1)` | one backward sweep over the affected cone, row by row |
/// | [`TwoHop`](OracleBackend::TwoHop) | `O(Σ labels)` | pruned landmark BFS | label merge-join | the same sweep (for `AFF1`) plus resumed BFS on insert; affected rectangle `A × B` (rows from one multi-source BFS per 64) re-decided in the labels on delete |
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum OracleBackend {
    /// The paper's all-pairs distance matrix: fastest queries, `|V|²` memory.
    #[default]
    Matrix,
    /// Incrementally maintained 2-hop (pruned landmark) labeling: memory
    /// proportional to the label count, exact label-only queries.
    TwoHop,
}

impl OracleBackend {
    /// Every selectable backend.
    pub const ALL: [OracleBackend; 2] = [OracleBackend::Matrix, OracleBackend::TwoHop];

    /// Reads the backend from the `GPM_ORACLE` environment variable
    /// (`matrix` by default).
    ///
    /// # Panics
    ///
    /// Panics if `GPM_ORACLE` is set to an unknown value, listing the
    /// accepted names — a misconfigured benchmark must not silently fall
    /// back to a different backend.
    pub fn from_env() -> Self {
        match std::env::var("GPM_ORACLE") {
            Ok(v) => match Self::parse(&v) {
                Ok(b) => b,
                Err(e) => panic!("GPM_ORACLE: {e}"),
            },
            Err(_) => OracleBackend::Matrix,
        }
    }

    /// Parses a backend name (`matrix`, `two-hop`; `twohop`/`2-hop` are
    /// accepted aliases).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "matrix" => Ok(OracleBackend::Matrix),
            "two-hop" | "twohop" | "2-hop" => Ok(OracleBackend::TwoHop),
            other => Err(format!(
                "unknown distance backend `{other}` (expected `matrix` or `two-hop`)"
            )),
        }
    }

    /// The canonical name, parseable by [`parse`](Self::parse).
    pub fn name(self) -> &'static str {
        match self {
            OracleBackend::Matrix => "matrix",
            OracleBackend::TwoHop => "two-hop",
        }
    }

    /// Builds the selected backend for `g` on the shared executor.
    pub fn build(self, g: &DataGraph, exec: &Executor) -> Box<dyn DistanceOracle + Send + Sync> {
        let start = gpm_obs::enabled().then(std::time::Instant::now);
        let oracle: Box<dyn DistanceOracle + Send + Sync> = match self {
            OracleBackend::Matrix => Box::new(DistanceMatrix::build_with(g, exec)),
            OracleBackend::TwoHop => Box::new(IncrementalTwoHop::build_with(g, exec)),
        };
        if let Some(start) = start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let m = crate::metrics::build_metrics();
            m.builds.inc();
            m.build_ns.record(ns);
            let nodes = g.node_count();
            let mut fields = vec![("dur_ns", ns), ("nodes", nodes as u64)];
            if self == OracleBackend::Matrix {
                fields.push(("traversals", crate::matrix::build_traversals(nodes)));
            }
            gpm_obs::emit_event("oracle", "build", &fields, &[("backend", self.name())]);
        }
        oracle
    }
}

impl std::fmt::Display for OracleBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeUpdate;
    use gpm_graph::NodeId;

    #[test]
    fn parse_accepts_canonical_names_and_aliases() {
        assert_eq!(OracleBackend::parse("matrix"), Ok(OracleBackend::Matrix));
        assert_eq!(OracleBackend::parse("two-hop"), Ok(OracleBackend::TwoHop));
        assert_eq!(OracleBackend::parse("twohop"), Ok(OracleBackend::TwoHop));
        assert_eq!(OracleBackend::parse("2-hop"), Ok(OracleBackend::TwoHop));
        assert_eq!(OracleBackend::parse(" Matrix "), Ok(OracleBackend::Matrix));
        assert!(OracleBackend::parse("bfs").is_err());
        assert!(OracleBackend::parse("").is_err());
    }

    #[test]
    fn names_round_trip() {
        for b in OracleBackend::ALL {
            assert_eq!(OracleBackend::parse(b.name()), Ok(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(OracleBackend::default(), OracleBackend::Matrix);
    }

    #[test]
    fn build_produces_working_incremental_oracles() {
        let mut g = DataGraph::new();
        g.add_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        let exec = Executor::sequential();
        for b in OracleBackend::ALL {
            let mut oracle = b.build(&g, &exec);
            assert_eq!(
                oracle.nonempty_distance(&g, NodeId::new(0), NodeId::new(1)),
                Some(1),
                "{b}"
            );
            let mut g2 = g.clone();
            g2.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
            let insert = EdgeUpdate::Insert(NodeId::new(1), NodeId::new(2));
            let aff = oracle.apply_batch(&g2, &[insert], &exec);
            assert!(!aff.is_empty(), "{b}");
            assert_eq!(
                oracle.nonempty_distance(&g2, NodeId::new(0), NodeId::new(2)),
                Some(2),
                "{b}"
            );
        }
    }
}
