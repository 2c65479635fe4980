//! The one maintenance kernel of the crate, and its repair half on its own.
//!
//! `Match−`/`Match+`/`IncMatch` are one idea said three times: mutate the
//! graph, maintain the distance oracle (producing `AFF1`), and repair the
//! match state from the affected sources — removals first, then additions.
//! The private `maintain` is the last two steps; [`crate::match_minus`],
//! [`crate::match_plus`] and [`crate::inc_match`] validate, mutate the graph
//! and call it.
//!
//! A continuous-query service maintaining *many* patterns over one graph
//! wants to pay the oracle maintenance — by far the expensive step —
//! **once per update batch** and replay only the cheap repair per registered
//! query. [`repair_match_state`] is that repair step on its own: it takes
//! the `AFF1` produced by one shared `UpdateBM` run and repairs one query's
//! [`MatchState`] against the already-updated oracle.
//!
//! Repair is seeded from the sources with a **bound-crossing** change. The
//! maximum simulation is a function of the predicate `within(x, y, fe(e))`
//! over candidate pairs, and a changed pair flips that predicate only if
//! some bound `k` of *this* pattern has `min(old, new) ≤ k < max(old, new)`
//! (for a `*` edge: reachability flipped). Every other pair of `AFF1` leaves
//! the predicate, hence the match, as it was. Both halves of the repair
//! serve every pattern, cyclic or not:
//!
//! * bound-crossing **increases** are repaired with the removal propagation
//!   of `Match−`;
//! * bound-crossing **decreases** are repaired with the addition
//!   propagation of `Match+`, which admits a candidate optimistically on
//!   the pattern edges that lie on a cycle and then re-verifies those
//!   admissions with the removal cascade (module docs of
//!   [`crate::insert`]). On a DAG pattern that is `Match+` exactly.
//!
//! So the repair cannot refuse: [`repair_match_state`]'s error type is
//! [`Infallible`], and the paper-named [`crate::match_plus`] and
//! [`crate::inc_match`] alone keep the paper's DAG restriction.

use crate::affected::{Aff2, IncrementalOutcome};
use crate::delete::process_removals;
use crate::insert::process_additions;
use crate::state::MatchState;
use gpm_distance::{
    AffectedPair, AffectedPairs, DistanceOracle, DistanceQuery, EdgeUpdate, UNREACHABLE,
};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, NodeId, PatternGraph};
use rustc_hash::FxHashSet;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// Observability handles for per-query repair (scope `"incremental"`).
/// All counters are deterministic; `aff1_relevant` uses the same
/// "touches a matched node (before or after)" rule as `exp_stats_aff_gr`,
/// so the experiment and the live service report from one code path.
pub(crate) struct RepairMetrics {
    pub repairs: Arc<gpm_obs::Counter>,
    pub verifications: Arc<gpm_obs::Counter>,
    pub aff1_pairs: Arc<gpm_obs::Counter>,
    pub aff1_relevant: Arc<gpm_obs::Counter>,
    pub aff2_pairs: Arc<gpm_obs::Counter>,
    pub aff2_size: Arc<gpm_obs::Histogram>,
    pub repair_ns: Arc<gpm_obs::Histogram>,
}

pub(crate) fn metrics() -> &'static RepairMetrics {
    static METRICS: OnceLock<RepairMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let scope = gpm_obs::registry().scope("incremental");
        RepairMetrics {
            repairs: scope.counter("repairs"),
            verifications: scope.counter("verifications"),
            aff1_pairs: scope.counter("aff1_pairs"),
            aff1_relevant: scope.counter("aff1_relevant"),
            aff2_pairs: scope.counter("aff2_pairs"),
            aff2_size: scope.histogram("aff2_size"),
            repair_ns: scope.histogram("repair_ns"),
        }
    })
}

/// The result of one per-query repair pass: the match-pair delta and the
/// verification work it took.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// `AFF2`: the match pairs this repair added or removed.
    pub aff2: Aff2,
    /// Candidate re-verifications performed (the per-query work proxy).
    pub verifications: usize,
}

/// The affected sources of an `AFF1`, split by direction of change:
/// `(increased, decreased)` outgoing-distance source sets.
pub fn split_aff1_sources(aff1: &AffectedPairs) -> (FxHashSet<NodeId>, FxHashSet<NodeId>) {
    split_sources(aff1, |_| true)
}

/// The bound-crossing test of `pattern` (module docs): whether a changed
/// pair has some bound `k` of `pattern` with `min(old, new) ≤ k <
/// max(old, new)` — for a `*` edge, whether reachability flipped. Only such
/// pairs can change `pattern`'s match; [`repair_match_state`] seeds its
/// repair from their sources.
pub fn crosses_a_bound(pattern: &PatternGraph) -> impl Fn(&AffectedPair) -> bool {
    let flips = flip_points(pattern);
    move |p| {
        let (lo, hi) = (p.old.min(p.new), p.old.max(p.new));
        flips.iter().any(|&k| lo <= k && k < hi)
    }
}

fn split_sources(
    aff1: &AffectedPairs,
    keep: impl Fn(&AffectedPair) -> bool,
) -> (FxHashSet<NodeId>, FxHashSet<NodeId>) {
    let mut increased = FxHashSet::default();
    let mut decreased = FxHashSet::default();
    for p in aff1.iter().filter(|p| keep(p)) {
        if p.increased() {
            increased.insert(p.source);
        } else {
            decreased.insert(p.source);
        }
    }
    (increased, decreased)
}

/// The distinct distances `k` at which some `within(·, ·, fe(e))` of
/// `pattern` flips between `k` and `k + 1`. Finite distances stop at
/// `UNREACHABLE - 1`, so a `*` edge — and any bound beyond that — flips
/// exactly between the largest finite distance and `UNREACHABLE`.
fn flip_points(pattern: &PatternGraph) -> Vec<u16> {
    let last_finite = u32::from(UNREACHABLE - 1);
    let mut at: Vec<u16> = pattern
        .edges()
        .map(|e| e.bound.hops().map_or(last_finite, |k| k.min(last_finite)) as u16)
        .collect();
    at.sort_unstable();
    at.dedup();
    at
}

/// Maintains `oracle` and `state` after the effective updates `applied` were
/// made to `graph`: `UpdateBM` on `exec`, then [`repair_match_state`] from
/// its `AFF1`.
pub(crate) fn maintain<O: DistanceOracle + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &mut O,
    state: &mut MatchState,
    applied: &[EdgeUpdate],
    exec: &Executor,
) -> IncrementalOutcome {
    let aff1 = oracle.apply_batch(graph, applied, exec);
    let repair = repair_match_state(pattern, graph, oracle, state, &aff1)
        .unwrap_or_else(|never| match never {});
    IncrementalOutcome::new(aff1, repair.aff2, repair.verifications)
}

/// Repairs one query's match state from a shared, precomputed `AFF1`.
///
/// `oracle` must already reflect the updates that produced `aff1` (i.e. the
/// caller ran the oracle's `apply_batch` first), and `graph` must be
/// the updated graph the oracle answers for. Removals are processed before
/// additions, exactly as `IncMatch` does, so the repaired state equals a
/// from-scratch recomputation on the updated graph, for every pattern.
///
/// The repair cannot fail (module docs); callers unwrap the result with
/// `unwrap_or_else(|never| match never {})`. The `Result` stays only because
/// the repo benchmark's layer replay (`benchmark/src/layers.rs`) still
/// matches on it.
pub fn repair_match_state<O: DistanceQuery + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    state: &mut MatchState,
    aff1: &AffectedPairs,
) -> Result<RepairOutcome, Infallible> {
    let m = metrics();
    let span = m.repair_ns.span();
    // Matched nodes before the repair — half of the `aff1_relevant` rule;
    // only materialised while observability is on.
    let matched_before: Option<FxHashSet<NodeId>> =
        gpm_obs::enabled().then(|| state.relation().iter_pairs().map(|(_, v)| v).collect());

    let (increased, decreased) = split_sources(aff1, crosses_a_bound(pattern));
    let mut aff2 = Aff2::default();
    let mut verifications = 0usize;
    let seeds = increased
        .iter()
        .flat_map(|&v| pattern.node_ids().map(move |u| (u, v)));
    process_removals(
        pattern,
        graph,
        oracle,
        state,
        seeds,
        &mut aff2,
        &mut verifications,
    );
    process_additions(
        pattern,
        graph,
        oracle,
        state,
        &decreased,
        &mut aff2,
        &mut verifications,
    );
    if let Some(mut matched) = matched_before {
        matched.extend(state.relation().iter_pairs().map(|(_, v)| v));
        let relevant = aff1
            .iter()
            .filter(|p| matched.contains(&p.source) || matched.contains(&p.sink))
            .count();
        m.repairs.inc();
        m.verifications.add(verifications as u64);
        m.aff1_pairs.add(aff1.len() as u64);
        m.aff1_relevant.add(relevant as u64);
        m.aff2_pairs.add(aff2.len() as u64);
        m.aff2_size.record(aff2.len() as u64);
    }
    span.finish();
    Ok(RepairOutcome {
        aff2,
        verifications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::bounded_simulation_with_oracle;
    use gpm_datagen::{random_graph, random_updates, RandomGraphConfig, UpdateStreamConfig};
    use gpm_distance::DistanceMatrix;
    use gpm_graph::{EdgeBound, PatternGraphBuilder, PatternNodeId, Predicate};

    /// `UpdateBM` on the matrix, as these tests have always spelled it.
    fn update_matrix_batch(
        g: &DataGraph,
        m: &mut DistanceMatrix,
        u: &[EdgeUpdate],
    ) -> AffectedPairs {
        m.apply_batch(g, u, &Executor::from_env())
    }

    fn dag_pattern() -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .node("z", Predicate::label("a2"))
            .edge("x", "y", 2u32)
            .edge("y", "z", 3u32)
            .build()
            .unwrap();
        p
    }

    fn cyclic_pattern() -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .edge("x", "y", 2u32)
            .edge("y", "x", 2u32)
            .build()
            .unwrap();
        p
    }

    /// The 3-cycle `x:a0 → y:a1 → z:a2 → x` with a head `t:a4 → x` and a
    /// tail `z → w:a3`: edges into, around and out of one pattern SCC.
    fn cycle_with_tail_pattern() -> PatternGraph {
        let (p, _) = PatternGraphBuilder::new()
            .node("x", Predicate::label("a0"))
            .node("y", Predicate::label("a1"))
            .node("z", Predicate::label("a2"))
            .node("w", Predicate::label("a3"))
            .node("t", Predicate::label("a4"))
            .edge("x", "y", 2u32)
            .edge("y", "z", 3u32)
            .edge("z", "x", 2u32)
            .edge("z", "w", 2u32)
            .edge("t", "x", 1u32)
            .build()
            .unwrap();
        p
    }

    /// A data graph whose node `i` carries `labels[i]`.
    fn labeled_graph(labels: &[&str], edges: &[(u32, u32)]) -> DataGraph {
        let mut g = DataGraph::new();
        for &label in labels {
            g.add_node(gpm_graph::Attributes::labeled(label));
        }
        for &(a, b) in edges {
            g.add_edge(NodeId::new(a), NodeId::new(b)).unwrap();
        }
        g
    }

    /// `x:a0 -[xy]-> y:a1 -[yz]-> z:a2`.
    fn chain_pattern(xy: EdgeBound, yz: EdgeBound) -> PatternGraph {
        let mut p = PatternGraph::new();
        let x = p.add_node(Predicate::label("a0"));
        let y = p.add_node(Predicate::label("a1"));
        let z = p.add_node(Predicate::label("a2"));
        p.add_edge(x, y, xy).unwrap();
        p.add_edge(y, z, yz).unwrap();
        p
    }

    /// Every pair of `state`'s match sets, in ascending order — also those of
    /// a pattern whose visible relation is empty.
    fn match_sets(pattern: &PatternGraph, state: &MatchState) -> Vec<(PatternNodeId, NodeId)> {
        let pairs = |u| state.matches_of(u).iter().map(move |&v| (u, v));
        pattern.node_ids().flat_map(pairs).collect()
    }

    /// [`match_sets`] of the naive fixpoint: an independent reference.
    fn naive_match_sets<O: DistanceQuery + ?Sized>(
        pattern: &PatternGraph,
        g: &DataGraph,
        oracle: &O,
    ) -> Vec<(PatternNodeId, NodeId)> {
        let satisfying = |u| {
            g.nodes()
                .filter(move |&v| g.satisfies(v, pattern.predicate(u)))
        };
        let mut sets: Vec<Vec<NodeId>> = pattern
            .node_ids()
            .map(|u| satisfying(u).collect())
            .collect();
        gpm_core::naive::naive_fixpoint(pattern, g, oracle, &mut sets);
        let pairs = |u: PatternNodeId| sets[u.index()].iter().map(move |&v| (u, v));
        pattern.node_ids().flat_map(pairs).collect()
    }

    /// Applies `updates` and repairs `pattern`'s state three ways — seeded
    /// from the bound-crossing sources (`repair_match_state`), seeded from
    /// every source of `AFF1` (the rule this replaced), and recomputed —
    /// asserting that all three agree and that the first repair's `AFF2` is
    /// the net change. Returns that repair's outcome and the size of the
    /// all-sources seed sets.
    fn repair_three_ways(
        pattern: &PatternGraph,
        g: &mut DataGraph,
        updates: &[EdgeUpdate],
    ) -> (RepairOutcome, usize) {
        let mut m = gpm_distance::DistanceMatrix::build(g);
        let mut crossing = MatchState::initialise(pattern, g, &m);
        let mut all_sources = crossing.clone();
        let before = match_sets(pattern, &crossing);
        let applied: Vec<EdgeUpdate> = updates.iter().copied().filter(|u| u.apply(g)).collect();
        let aff1 = update_matrix_batch(g, &mut m, &applied);
        let recomputed = bounded_simulation_with_oracle(pattern, g, &m).relation;

        let (increased, decreased) = split_aff1_sources(&aff1);
        let out = repair_match_state(pattern, g, &m, &mut crossing, &aff1).unwrap();
        assert_eq!(crossing.relation(), recomputed, "bound-crossing seeds");
        // The match sets themselves, visible or not, equal the naive
        // fixpoint's, and AFF2 is exactly their net change.
        let after = match_sets(pattern, &crossing);
        assert_eq!(after, naive_match_sets(pattern, g, &m), "match sets");
        let minus =
            |a: &[_], b: &[_]| -> Vec<_> { a.iter().copied().filter(|p| !b.contains(p)).collect() };
        let sorted = |mut pairs: Vec<_>| {
            pairs.sort_unstable();
            pairs
        };
        assert_eq!(
            sorted(out.aff2.added.clone()),
            minus(&after, &before),
            "AFF2 added"
        );
        assert_eq!(
            sorted(out.aff2.removed.clone()),
            minus(&before, &after),
            "AFF2 removed"
        );

        let (mut aff2, mut work) = (Aff2::default(), 0usize);
        let seeds = increased
            .iter()
            .flat_map(|&v| pattern.node_ids().map(move |u| (u, v)));
        process_removals(
            pattern,
            g,
            &m,
            &mut all_sources,
            seeds,
            &mut aff2,
            &mut work,
        );
        process_additions(
            pattern,
            g,
            &m,
            &mut all_sources,
            &decreased,
            &mut aff2,
            &mut work,
        );
        assert_eq!(all_sources.relation(), recomputed, "all-sources seeds");
        assert!(out.verifications <= work, "fewer seeds cannot verify more");
        (out, increased.len() + decreased.len())
    }

    /// a:a0 reaches b:a1 over one relay (2 hops) or two (3 hops); b → c:a2.
    ///
    /// ```text
    /// 0:a0 → 3 → 1:a1 → 2:a2        0 → 4 → 5 → 1
    /// ```
    fn relay_graph() -> DataGraph {
        labeled_graph(
            &["a0", "a1", "a2", "-", "-", "-"],
            &[(0, 3), (3, 1), (1, 2), (0, 4), (4, 5), (5, 1)],
        )
    }

    const SHORT_RELAY: EdgeUpdate = EdgeUpdate::Delete(NodeId::new(3), NodeId::new(1));
    const LONG_RELAY: EdgeUpdate = EdgeUpdate::Delete(NodeId::new(5), NodeId::new(1));

    #[test]
    fn only_the_crossed_bound_of_two_seeds_a_repair() {
        // Cutting the short relay moves d(a, b) 2 → 3 and d(a, c) 3 → 4:
        // the bound 2 is crossed, the bound 5 is not.
        let p = chain_pattern(EdgeBound::Hops(2), EdgeBound::Hops(5));
        let (out, _) = repair_three_ways(&p, &mut relay_graph(), &[SHORT_RELAY]);
        assert_eq!(
            out.aff2.removed,
            vec![(gpm_graph::PatternNodeId::new(0), NodeId::new(0))]
        );

        // With bounds 4 and 9 neither move crosses anything: a's rows
        // changed, but no matched node is re-verified.
        let p = chain_pattern(EdgeBound::Hops(4), EdgeBound::Hops(9));
        let (out, all_sources) = repair_three_ways(&p, &mut relay_graph(), &[SHORT_RELAY]);
        assert!(all_sources >= 2, "a and the relay both changed");
        assert_eq!((out.verifications, out.aff2.len()), (0, 0));
    }

    #[test]
    fn unbounded_edge_seeds_only_on_a_reachability_flip() {
        let p = chain_pattern(EdgeBound::Unbounded, EdgeBound::Unbounded);
        // a still reaches b over the long relay: nothing to verify.
        let (out, _) = repair_three_ways(&p, &mut relay_graph(), &[SHORT_RELAY]);
        assert_eq!(out.verifications, 0);
        // Both relays cut: a lost b for good.
        let (out, _) = repair_three_ways(&p, &mut relay_graph(), &[SHORT_RELAY, LONG_RELAY]);
        assert_eq!(
            out.aff2.removed,
            vec![(gpm_graph::PatternNodeId::new(0), NodeId::new(0))]
        );
    }

    #[test]
    fn cyclic_pattern_with_irrelevant_decreases_repairs_incrementally() {
        // a:a0 ⇄ b:a1 match the 2-cycle pattern; the insertion 2 → 4 only
        // moves d(2, 4) from 2 to 1 — a decrease, but inside the bound 2 on
        // both sides, so no `within` flips and no recomputation is needed.
        let mut g = labeled_graph(
            &["a0", "a1", "-", "-", "-"],
            &[(0, 1), (1, 0), (2, 3), (3, 4)],
        );
        let shortcut = EdgeUpdate::Insert(NodeId::new(2), NodeId::new(4));
        let (out, all_sources) = repair_three_ways(&cyclic_pattern(), &mut g, &[shortcut]);
        assert_eq!(all_sources, 1, "AFF1 is the one decrease");
        assert_eq!(out, RepairOutcome::default());
    }

    /// On random graphs and mixed batches the three seedings agree for
    /// patterns with one bound, two bounds and a `*` edge, and for a 2-cycle
    /// and a 3-cycle with a head and a tail.
    #[test]
    fn bound_crossing_seeds_equal_all_sources_equal_recompute() {
        let patterns = [
            dag_pattern(),
            chain_pattern(EdgeBound::Hops(1), EdgeBound::Hops(4)),
            chain_pattern(EdgeBound::Hops(2), EdgeBound::Unbounded),
            cyclic_pattern(),
            cycle_with_tail_pattern(),
        ];
        for seed in 0..12u64 {
            let g = random_graph(&RandomGraphConfig::new(40, 90, 5).with_seed(seed));
            let updates = random_updates(&g, &UpdateStreamConfig::mixed(12).with_seed(seed + 31));
            for p in &patterns {
                repair_three_ways(p, &mut g.clone(), &updates);
            }
        }
    }

    /// One shared AFF1 repairs several independent states to the same result
    /// a from-scratch run produces — the service-layer contract.
    #[test]
    fn shared_aff1_repairs_multiple_states() {
        for seed in 0..6u64 {
            let mut g = random_graph(&RandomGraphConfig::new(40, 90, 5).with_seed(seed));
            let patterns: Vec<PatternGraph> = vec![dag_pattern(), dag_pattern()];
            let mut m = gpm_distance::DistanceMatrix::build(&g);
            let mut states: Vec<MatchState> = patterns
                .iter()
                .map(|p| MatchState::initialise(p, &g, &m))
                .collect();

            let updates = random_updates(&g, &UpdateStreamConfig::mixed(20).with_seed(seed + 50));
            let applied: Vec<EdgeUpdate> = updates
                .iter()
                .filter(|u| u.apply(&mut g))
                .copied()
                .collect();
            let aff1 = update_matrix_batch(&g, &mut m, &applied);

            for (p, s) in patterns.iter().zip(states.iter_mut()) {
                repair_match_state(p, &g, &m, s, &aff1).unwrap();
                let recomputed = bounded_simulation_with_oracle(p, &g, &m);
                assert_eq!(s.relation(), recomputed.relation, "seed {seed}");
            }
        }
    }

    #[test]
    fn cyclic_pattern_with_a_bound_crossing_decrease_is_repaired() {
        // a:a0 ← b:a1; inserting a → b takes d(a, b) from ∞ to 1, across the
        // pattern's bound 2. a and b then support each other around the
        // pattern cycle — a dependency `Match+`'s upward propagation cannot
        // find; the optimistic admission does, and re-verification keeps it.
        let mut g = labeled_graph(&["a0", "a1"], &[(1, 0)]);
        let p = cyclic_pattern();
        let mut m = gpm_distance::DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        assert!(s.relation().is_empty());

        let applied = [EdgeUpdate::Insert(NodeId::new(0), NodeId::new(1))];
        applied[0].apply(&mut g);
        let aff1 = update_matrix_batch(&g, &mut m, &applied);
        let out = repair_match_state(&p, &g, &m, &mut s, &aff1).unwrap();
        let recomputed = bounded_simulation_with_oracle(&p, &g, &m).relation;
        assert_eq!(s.relation(), recomputed);
        assert_eq!(recomputed.iter_pairs().count(), 2, "both nodes match");
        assert_eq!((out.aff2.added.len(), out.aff2.removed.len()), (2, 0));

        // A crossing decrease that closes no cycle: c:a0 gains an edge to an
        // unlabelled node, so d(c, ·) drops across the bound 2, but c still
        // reaches no a1. c is admitted optimistically and refuted by the
        // re-verification: AFF2 stays empty while the work shows the trip.
        let mut g = labeled_graph(&["a0", "a1", "a0", "-"], &[(0, 1), (1, 0)]);
        let mut m = gpm_distance::DistanceMatrix::build(&g);
        let mut s = MatchState::initialise(&p, &g, &m);
        let before = s.relation();
        let applied = [EdgeUpdate::Insert(NodeId::new(2), NodeId::new(3))];
        applied[0].apply(&mut g);
        let aff1 = update_matrix_batch(&g, &mut m, &applied);
        let out = repair_match_state(&p, &g, &m, &mut s, &aff1).unwrap();
        assert_eq!(s.relation(), before);
        assert_eq!(before, bounded_simulation_with_oracle(&p, &g, &m).relation);
        assert_eq!(
            out,
            RepairOutcome {
                aff2: Aff2::default(),
                verifications: 1
            }
        );
    }

    /// Deletion-only batches repair cyclic patterns incrementally.
    #[test]
    fn cyclic_pattern_with_deletions_only_is_repaired() {
        for seed in 0..4u64 {
            let mut g = random_graph(&RandomGraphConfig::new(30, 70, 4).with_seed(seed));
            let p = cyclic_pattern();
            let mut m = gpm_distance::DistanceMatrix::build(&g);
            let mut s = MatchState::initialise(&p, &g, &m);

            let updates =
                random_updates(&g, &UpdateStreamConfig::deletions(10).with_seed(seed + 9));
            let applied: Vec<EdgeUpdate> = updates
                .iter()
                .filter(|u| u.apply(&mut g))
                .copied()
                .collect();
            let aff1 = update_matrix_batch(&g, &mut m, &applied);
            repair_match_state(&p, &g, &m, &mut s, &aff1).unwrap();
            let recomputed = bounded_simulation_with_oracle(&p, &g, &m);
            assert_eq!(s.relation(), recomputed.relation, "seed {seed}");
        }
    }

    /// The repair entry point is generic over the oracle: driving it with the
    /// incremental 2-hop labeling produces the same states as the matrix,
    /// for a DAG and a cyclic pattern, on mixed batches.
    #[test]
    fn repair_with_two_hop_oracle_matches_matrix() {
        use gpm_distance::{DistanceMatrix, DistanceOracle as _, IncrementalTwoHop};
        use gpm_exec::Executor;

        for seed in 0..4u64 {
            let mut g = random_graph(&RandomGraphConfig::new(28, 64, 4).with_seed(seed));
            let exec = Executor::sequential();
            let p_dag = dag_pattern();
            let p_cyc = cyclic_pattern();
            let mut matrix = DistanceMatrix::build(&g);
            let mut two_hop = IncrementalTwoHop::build_with(&g, &exec);
            let mut s_dag = MatchState::initialise(&p_dag, &g, &two_hop);
            let mut s_cyc = MatchState::initialise(&p_cyc, &g, &two_hop);

            let updates = random_updates(&g, &UpdateStreamConfig::mixed(10).with_seed(seed + 70));
            let applied: Vec<EdgeUpdate> = updates
                .iter()
                .filter(|u| u.apply(&mut g))
                .copied()
                .collect();
            let aff_matrix = matrix.apply_batch(&g, &applied, &exec);
            let aff_two_hop = two_hop.apply_batch(&g, &applied, &exec);
            assert_eq!(aff_matrix, aff_two_hop, "seed {seed}");

            repair_match_state(&p_dag, &g, &two_hop, &mut s_dag, &aff_two_hop).unwrap();
            repair_match_state(&p_cyc, &g, &two_hop, &mut s_cyc, &aff_two_hop).unwrap();
            for (p, s) in [(&p_dag, &s_dag), (&p_cyc, &s_cyc)] {
                let recomputed = bounded_simulation_with_oracle(p, &g, &matrix);
                assert_eq!(s.relation(), recomputed.relation, "seed {seed}");
            }
        }
    }

    /// The cycle rule on generated patterns, cyclic ones only: on both
    /// back-ends, through insertion, deletion and mixed streams applied one
    /// update at a time and in batches of four, the match sets equal the
    /// naive fixpoint's after every step.
    #[test]
    fn generated_cyclic_patterns_repair_to_the_naive_fixpoint() {
        use gpm_datagen::{generate_pattern, PatternGenConfig};
        use gpm_distance::OracleBackend;

        let exec = Executor::sequential();
        let (mut patterns, mut nonempty) = (0, 0);
        for seed in 0..80u64 {
            let g0 = random_graph(&RandomGraphConfig::new(24, 60, 3).with_seed(seed));
            let size = 2 + seed as usize % 4;
            let config = PatternGenConfig::new(size, size + 2, 3).with_seed(seed);
            let (p, _) = generate_pattern(&g0, &config);
            if p.is_dag() {
                continue;
            }
            patterns += 1;
            let streams = [
                UpdateStreamConfig::insertions(8),
                UpdateStreamConfig::deletions(8),
                UpdateStreamConfig::mixed(8),
            ];
            for backend in OracleBackend::ALL {
                for stream in &streams {
                    let updates = random_updates(&g0, &stream.clone().with_seed(seed + 5));
                    for batch in [1, 4] {
                        let mut g = g0.clone();
                        let mut oracle = backend.build(&g, &exec);
                        let mut s = MatchState::initialise_with(&p, &g, oracle.as_ref(), &exec);
                        for chunk in updates.chunks(batch) {
                            let applied: Vec<EdgeUpdate> =
                                chunk.iter().copied().filter(|u| u.apply(&mut g)).collect();
                            let aff1 = oracle.apply_batch(&g, &applied, &exec);
                            repair_match_state(&p, &g, oracle.as_ref(), &mut s, &aff1).unwrap();
                            assert_eq!(
                                match_sets(&p, &s),
                                naive_match_sets(&p, &g, oracle.as_ref()),
                                "seed {seed}, {backend}, batches of {batch}"
                            );
                            nonempty += usize::from(s.all_matched());
                        }
                    }
                }
            }
        }
        assert!(
            patterns >= 70 && nonempty >= 2_000,
            "{patterns} patterns, {nonempty}"
        );
    }

    #[test]
    fn split_sources_partitions_by_direction() {
        let aff1 = AffectedPairs {
            pairs: vec![
                gpm_distance::AffectedPair {
                    source: NodeId::new(0),
                    sink: NodeId::new(1),
                    old: 2,
                    new: 5,
                },
                gpm_distance::AffectedPair {
                    source: NodeId::new(3),
                    sink: NodeId::new(1),
                    old: 5,
                    new: 2,
                },
            ],
        };
        let (inc, dec) = split_aff1_sources(&aff1);
        assert!(inc.contains(&NodeId::new(0)) && inc.len() == 1);
        assert!(dec.contains(&NodeId::new(3)) && dec.len() == 1);
    }
}
