//! Observability handles for the distance back-ends (scope `"oracle"`).
//!
//! Metric names are prefixed with the backend (`matrix.*` / `twohop.*`) so
//! both implementations report side by side in one scope. All counters here
//! are deterministic: repair outcomes, AFF1 sizes and label-query counts
//! depend only on the graph and the update stream, never on scheduling.

use gpm_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Per-backend maintenance metrics shared by matrix and 2-hop.
pub(crate) struct OracleMetrics {
    pub inserts: Arc<Counter>,
    pub deletes: Arc<Counter>,
    pub aff1_pairs: Arc<Counter>,
    pub aff1_size: Arc<Histogram>,
    pub apply_ns: Arc<Histogram>,
    /// The work of the affected-cone sweeps (`incremental.rs`), so that a
    /// `|V|`-sized pass cannot grow back unnoticed: source rows tested, and
    /// `(source, sink)` pairs whose old distance was read.
    pub sweep_rows: Arc<Counter>,
    pub pairs_examined: Arc<Counter>,
    /// The matrix's deletion row repairs (`Repair::run`); `None` on the
    /// 2-hop, whose deletions do not repair rows.
    pub repair: Option<RepairMetrics>,
}

/// The work of the matrix's deletion row repairs, in two deterministic
/// counters with the bound `repair_searched ≤ repair_candidates ≤
/// pairs_examined`.
pub(crate) struct RepairMetrics {
    /// Tied candidates handed to the repair: at most one per pair examined.
    pub candidates: Arc<Counter>,
    /// Candidates left pending after the repair's first phase, which
    /// settles every candidate that keeps its distance: exactly the summed
    /// `|AFF1|` of the deletion units.
    pub searched: Arc<Counter>,
}

impl OracleMetrics {
    fn new(prefix: &str, repairs_rows: bool) -> Self {
        let scope = gpm_obs::registry().scope("oracle");
        let repair = repairs_rows.then(|| RepairMetrics {
            candidates: scope.counter(&format!("{prefix}.repair_candidates")),
            searched: scope.counter(&format!("{prefix}.repair_searched")),
        });
        OracleMetrics {
            inserts: scope.counter(&format!("{prefix}.inserts")),
            deletes: scope.counter(&format!("{prefix}.deletes")),
            aff1_pairs: scope.counter(&format!("{prefix}.aff1_pairs")),
            aff1_size: scope.histogram(&format!("{prefix}.aff1_size")),
            apply_ns: scope.histogram(&format!("{prefix}.apply_ns")),
            sweep_rows: scope.counter(&format!("{prefix}.sweep_rows")),
            pairs_examined: scope.counter(&format!("{prefix}.pairs_examined")),
            repair,
        }
    }

    /// Account one repaired unit update and its AFF1 size.
    pub(crate) fn note_unit(&self, insert: bool, aff1_len: usize) {
        if !gpm_obs::enabled() {
            return;
        }
        if insert {
            self.inserts.inc();
        } else {
            self.deletes.inc();
        }
        self.aff1_pairs.add(aff1_len as u64);
        self.aff1_size.record(aff1_len as u64);
    }
}

pub(crate) fn matrix() -> &'static OracleMetrics {
    static M: OnceLock<OracleMetrics> = OnceLock::new();
    M.get_or_init(|| OracleMetrics::new("matrix", true))
}

pub(crate) fn twohop() -> &'static OracleMetrics {
    static M: OnceLock<OracleMetrics> = OnceLock::new();
    M.get_or_init(|| OracleMetrics::new("twohop", false))
}

/// 2-hop-specific metrics: label queries and the work of deletion repair.
///
/// The deletion counters sum one term per deletion unit, and each term has
/// a bound in the unit's own sizes (`two_hop_inc.rs`, *Deletions*): `A` and
/// `B` are the nodes whose distance to `t` / from `s` changed, `A′ ⊇ A` and
/// `B′ ⊇ B` those with an old shortest path through the edge. The
/// deletion unit keeps its terms in the batch workspace, where the tests
/// hold them to these bounds on random deletion streams and on every
/// `gpm_datagen::adversarial` topology.
pub(crate) struct TwoHopMetrics {
    /// Queries the matcher made through `DistanceQuery`. Maintenance reads
    /// the labels directly and counts its work in the counters below.
    pub label_queries: Arc<Counter>,
    /// Graph traversals deletion units started: the four rows around the
    /// edge, one multi-source pass per 64 rows of the rectangle's smaller
    /// side, one per recomputed diagonal — so that a BFS per rectangle node
    /// cannot grow back unnoticed. Per unit exactly `4 + ⌈min(|A|, |B|) /
    /// 64⌉ +` the recomputed diagonals, which are at most `|A ∩ B| + 2`.
    pub delete_traversals: Arc<Counter>,
    /// Rectangle pairs a deletion examined: BFS-row lookups over `A × B` and
    /// the tied fringe beside it, plus label queries over the other fringe.
    /// Per unit at most `|A′| · |B′|`.
    pub delete_rect_pairs: Arc<Counter>,
    /// Candidate pairs (`|C|`): those whose entries were re-decided. Per
    /// unit at most its `delete_rect_pairs`.
    pub delete_candidates: Arc<Counter>,
    /// Candidate entries written back into the labels. Per unit at most
    /// its `delete_candidates`.
    pub entries_rewritten: Arc<Counter>,
}

pub(crate) fn twohop_extra() -> &'static TwoHopMetrics {
    static M: OnceLock<TwoHopMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let scope = gpm_obs::registry().scope("oracle");
        TwoHopMetrics {
            label_queries: scope.counter("twohop.label_queries"),
            delete_traversals: scope.counter("twohop.delete_traversals"),
            delete_rect_pairs: scope.counter("twohop.delete_rect_pairs"),
            delete_candidates: scope.counter("twohop.delete_candidates"),
            entries_rewritten: scope.counter("twohop.entries_rewritten"),
        }
    })
}

/// Build-time metrics: `builds` and `build_ns` recorded by
/// [`crate::OracleBackend::build`], the traversal count by the matrix build
/// itself.
pub(crate) struct BuildMetrics {
    pub builds: Arc<Counter>,
    pub build_ns: Arc<Histogram>,
    /// Multi-source traversals matrix builds ran, `⌈|V| / 64⌉` each — so
    /// that a BFS per source cannot grow back unnoticed.
    pub matrix_traversals: Arc<Counter>,
}

pub(crate) fn build_metrics() -> &'static BuildMetrics {
    static M: OnceLock<BuildMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let scope = gpm_obs::registry().scope("oracle");
        BuildMetrics {
            builds: scope.counter("builds"),
            build_ns: scope.histogram("build_ns"),
            matrix_traversals: scope.counter("matrix.build_traversals"),
        }
    })
}
