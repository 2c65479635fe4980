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
//! the predicate, hence the match and every witness counter, as it was.
//!
//! The repair is `Match`'s refinement continued on the state's witness
//! counters ([`gpm_core::Refinement`]), in three steps that serve every
//! pattern, cyclic or not:
//!
//! 1. **the counters are brought to the new oracle** before any removal:
//!    each bound-crossing pair `(x, y)` moves by one the counter of every
//!    pattern edge `e` whose bound it crosses, where `x ∈ mat(from(e))` and
//!    `y ∈ mat(to(e))` — up if the distance fell, down if it grew. Only
//!    crossing pairs can move a counter, so afterwards every counter equals
//!    a recount, and no oracle is read. Recounting the crossing sources'
//!    rows with `count_within` gives the same counters but reads every
//!    target of `mat(to(e))`: on the repo benchmark's `twohop-churn` (2
//!    shared vCPUs) a build that did so repaired in 28.1 µs a query, one
//!    that moved the counters by the pairs in 4.6 µs;
//! 2. **removals are `Match`'s wave**: the crossing sources left with a
//!    zero counter leave, and each removal decrements its parents within
//!    bound, cascading to the fixpoint (`Match−`);
//! 3. **additions** (`Match+`, [`crate::insert`]): a candidate that passes
//!    its admission check is counted on every out-edge, which sets its
//!    counters, and its join adds one to each parent within bound; the
//!    pairs admitted optimistically on pattern cycles and left with a zero
//!    counter are removed by the same wave.
//!
//! So the repair cannot refuse: [`repair_match_state`]'s error type is
//! [`Infallible`], and the paper-named [`crate::match_plus`] and
//! [`crate::inc_match`] alone keep the paper's DAG restriction.

use crate::affected::{Aff2, IncrementalOutcome};
use crate::insert::process_additions;
use crate::state::MatchState;
use gpm_distance::{
    AffectedPair, AffectedPairs, DistanceOracle, DistanceQuery, EdgeUpdate, UNREACHABLE,
};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, EdgeBound, NodeId, PatternEdge, PatternGraph, PatternNodeId};
use rustc_hash::FxHashSet;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// Observability handles for per-query repair (scope `"incremental"`).
/// All counters are deterministic; `aff1_relevant` uses the same
/// "touches a matched node (before or after)" rule as `exp_stats_aff_gr`,
/// so the experiment and the live service report from one code path.
pub(crate) struct RepairMetrics {
    pub repairs: Arc<gpm_obs::Counter>,
    /// Witness checks: one per out-edge a candidate is checked on, and one
    /// per counter an admitted candidate is counted on.
    pub verifications: Arc<gpm_obs::Counter>,
    /// Witness-counter decrements of the repair's waves. Each removed
    /// `(u', y)` decrements, per pattern edge `(u, u')`, at most the parents
    /// `x ∈ mat(u)` that reach `y` within the bound, once each.
    pub decrements: Arc<gpm_obs::Counter>,
    pub aff1_pairs: Arc<gpm_obs::Counter>,
    pub aff1_relevant: Arc<gpm_obs::Counter>,
    pub aff2_pairs: Arc<gpm_obs::Counter>,
    /// Pairs the additions closure added, the optimistic ones included.
    pub admitted: Arc<gpm_obs::Counter>,
    /// Admitted pairs the re-verification removed again. `refuted ≤
    /// admitted`: the closure starts from `S_r ⊆ S_new` and the cascade
    /// never removes a pair of `S_new`, so it removes admitted pairs only.
    /// On a DAG pattern `refuted = 0`: no edge lies on a cycle, so nothing
    /// is admitted optimistically.
    pub refuted: Arc<gpm_obs::Counter>,
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
            decrements: scope.counter("decrements"),
            aff1_pairs: scope.counter("aff1_pairs"),
            aff1_relevant: scope.counter("aff1_relevant"),
            aff2_pairs: scope.counter("aff2_pairs"),
            admitted: scope.counter("admitted"),
            refuted: scope.counter("refuted"),
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
    /// Witness checks made: one per out-edge a candidate is checked on, and
    /// one per counter an admitted candidate is counted on (the per-query
    /// work proxy).
    pub verifications: usize,
}

/// The affected sources of an `AFF1`, split by direction of change:
/// `(increased, decreased)` outgoing-distance source sets.
pub fn split_aff1_sources(aff1: &AffectedPairs) -> (FxHashSet<NodeId>, FxHashSet<NodeId>) {
    let mut increased = FxHashSet::default();
    let mut decreased = FxHashSet::default();
    for p in aff1.iter() {
        if p.increased() {
            increased.insert(p.source);
        } else {
            decreased.insert(p.source);
        }
    }
    (increased, decreased)
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

/// The distinct distances `k` at which some `within(·, ·, fe(e))` of
/// `pattern` flips between `k` and `k + 1`. Finite distances stop at
/// `UNREACHABLE - 1`, so a `*` edge — and any bound beyond that — flips
/// exactly between the largest finite distance and `UNREACHABLE`.
fn flip_points(pattern: &PatternGraph) -> Vec<u16> {
    let mut at = flip_points_by_edge(pattern);
    at.sort_unstable();
    at.dedup();
    at
}

/// The flip point of each pattern edge, in edge order.
fn flip_points_by_edge(pattern: &PatternGraph) -> Vec<u16> {
    let last_finite = u32::from(UNREACHABLE - 1);
    let at = |bound: EdgeBound| bound.hops().map_or(last_finite, |k| k.min(last_finite)) as u16;
    pattern.edges().map(|e| at(e.bound)).collect()
}

/// Maintains `oracle` and `state` after the effective updates `applied` were
/// made to `graph`: `UpdateBM` on `exec`, then [`repair_match_state`] from
/// its `AFF1`.
pub(crate) fn maintain<O: DistanceOracle + Sync + ?Sized>(
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
pub fn repair_match_state<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    state: &mut MatchState,
    aff1: &AffectedPairs,
) -> Result<RepairOutcome, Infallible> {
    Ok(repair(pattern, graph, oracle, state, aff1).0)
}

/// What one repair did, pass by pass, before `AFF2` nets it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Passes {
    /// Pairs the removal wave took out.
    pub removed: Vec<(PatternNodeId, NodeId)>,
    /// Pairs the additions closure added, the optimistic ones included.
    pub added: Vec<(PatternNodeId, NodeId)>,
    /// Admitted pairs the re-verification wave took out again.
    pub refuted: Vec<(PatternNodeId, NodeId)>,
    /// Witness checks ([`RepairOutcome::verifications`]).
    pub verifications: usize,
    /// Witness-counter decrements of both waves.
    pub decrements: usize,
}

/// [`repair_match_state`], also returning its passes.
pub(crate) fn repair<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    state: &mut MatchState,
    aff1: &AffectedPairs,
) -> (RepairOutcome, Passes) {
    let m = metrics();
    let span = m.repair_ns.span();
    // Matched nodes before the repair — half of the `aff1_relevant` rule;
    // only materialised while observability is on.
    let matched_before: Option<FxHashSet<NodeId>> =
        gpm_obs::enabled().then(|| state.relation().iter_pairs().map(|(_, v)| v).collect());

    let passes = repair_from(pattern, graph, oracle, state, aff1, false);
    let mut aff2 = Aff2 {
        added: Vec::new(),
        removed: passes.removed.clone(),
    };
    // Every refuted pair was added first, so it cancels either way.
    aff2.merge(Aff2 {
        added: passes.added.clone(),
        removed: passes.refuted.clone(),
    });
    if let Some(mut matched) = matched_before {
        matched.extend(state.relation().iter_pairs().map(|(_, v)| v));
        let relevant = aff1
            .iter()
            .filter(|p| matched.contains(&p.source) || matched.contains(&p.sink))
            .count();
        m.repairs.inc();
        m.verifications.add(passes.verifications as u64);
        m.decrements.add(passes.decrements as u64);
        m.aff1_pairs.add(aff1.len() as u64);
        m.aff1_relevant.add(relevant as u64);
        m.aff2_pairs.add(aff2.len() as u64);
        m.admitted.add(passes.added.len() as u64);
        m.refuted.add(passes.refuted.len() as u64);
        m.aff2_size.record(aff2.len() as u64);
    }
    span.finish();
    let outcome = RepairOutcome {
        aff2,
        verifications: passes.verifications,
    };
    (outcome, passes)
}

/// The three steps of the module docs, seeded from the bound-crossing
/// pairs of `aff1`, or from every pair with `all_sources`.
pub(crate) fn repair_from<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    state: &mut MatchState,
    aff1: &AffectedPairs,
    all_sources: bool,
) -> Passes {
    let mut passes = Passes::default();
    let (crosses, at) = (crosses_a_bound(pattern), flip_points_by_edge(pattern));
    // The crossing sources whose distances grew (`[0]`) and fell (`[1]`).
    let mut sources: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
    let edges: Vec<PatternEdge> = pattern.edges().copied().collect();
    // The edges whose source `x` matches, kept over the run of pairs of one
    // source (`AFF1` comes sorted by source); mostly none, so most pairs
    // cost one comparison here.
    let (mut source, mut out) = (None, Vec::new());
    let mat = &mut state.mat;
    for p in aff1.iter().filter(|p| all_sources || crosses(p)) {
        let (x, y, gained) = (p.source, p.sink, !p.increased());
        if source != Some(x) {
            source = Some(x);
            out.clear();
            out.extend((0..edges.len()).filter(|&ei| mat.contains(edges[ei].from, x)));
        }
        let (lo, hi) = (p.old.min(p.new), p.old.max(p.new));
        for &ei in &out {
            if lo <= at[ei] && at[ei] < hi && mat.contains(edges[ei].to, y) {
                mat.shift(ei, x, gained);
            }
        }
        let list = &mut sources[usize::from(gained)];
        if list.last() != Some(&x) {
            list.push(x);
        }
    }
    for list in &mut sources {
        list.sort_unstable();
        list.dedup();
    }
    let [increased, decreased] = sources;
    let witnessless = (increased.iter())
        .flat_map(|&x| pattern.node_ids().map(move |u| (u, x)))
        .filter(|&(u, x)| mat.contains(u, x) && mat.unwitnessed(u, x))
        .collect();
    passes.decrements += mat.cascade(graph, oracle, witnessless, &mut passes.removed);
    process_additions(pattern, graph, oracle, state, &decreased, &mut passes);
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_core::bounded_simulation_with_oracle;
    use gpm_datagen::{random_graph, random_updates, RandomGraphConfig, UpdateStreamConfig};
    use gpm_distance::DistanceMatrix;
    use gpm_graph::{EdgeBound, PatternGraphBuilder, Predicate};

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
    /// asserting that all three agree, that the first repair's `AFF2` is
    /// the net change, that both repairs keep the bounds of the
    /// `admitted`/`refuted` counters and of the waves' decrements, and that
    /// every witness counter equals a recount. The seedings' verification
    /// counts are not compared: the seed set orders the checks, and with
    /// them their early exits, so fewer seeds can verify more. Returns the
    /// first repair's outcome and the size of the all-sources seed sets.
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
        let (out, crossing_passes) = repair(pattern, g, &m, &mut crossing, &aff1);
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

        let all_sources_passes = repair_from(pattern, g, &m, &mut all_sources, &aff1, true);
        assert_eq!(all_sources.relation(), recomputed, "all-sources seeds");
        for (passes, state) in [
            (crossing_passes, &crossing),
            (all_sources_passes, &all_sources),
        ] {
            let (admitted, refuted) = (passes.added.len(), passes.refuted.len());
            assert!(refuted <= admitted, "{passes:?}");
            if pattern.is_dag() {
                assert_eq!(refuted, 0, "a DAG admits nothing optimistically");
            }
            assert!(
                passes.decrements <= decrement_bound(pattern, g, &m, &before, &passes),
                "{passes:?}"
            );
            assert_counters_recount(pattern, g, &m, state);
        }
        (out, increased.len() + decreased.len())
    }

    /// The bound of a repair's wave decrements: per removed `(u', y)` and
    /// pattern edge `(u, u')`, the parents `x ∈ mat(u)` that reach `y`
    /// within the bound, where `mat(u)` is at most the state before the
    /// repair plus what the closure added.
    fn decrement_bound(
        pattern: &PatternGraph,
        g: &DataGraph,
        m: &DistanceMatrix,
        before: &[(PatternNodeId, NodeId)],
        passes: &Passes,
    ) -> usize {
        let parents: Vec<_> = before.iter().chain(&passes.added).collect();
        let removed = passes.removed.iter().chain(&passes.refuted);
        let mut bound = 0;
        for &(to, y) in removed {
            for e in pattern.in_edges(to) {
                bound += parents
                    .iter()
                    .filter(|&&&(u, x)| u == e.from && m.within(g, x, y, e.bound))
                    .count();
            }
        }
        bound
    }

    /// The counter invariant of [`MatchState`]: every counter of a matched
    /// node equals a recount against the current match sets.
    fn assert_counters_recount<O: DistanceQuery + ?Sized>(
        pattern: &PatternGraph,
        g: &DataGraph,
        oracle: &O,
        state: &MatchState,
    ) -> usize {
        let mut checked = 0;
        for (ei, e) in pattern.edges().enumerate() {
            for &x in state.matches_of(e.from) {
                let recount = oracle.count_within(g, x, state.matches_of(e.to), e.bound);
                assert_eq!(state.mat.counter(ei, x), recount, "edge {ei} at {x}");
                checked += 1;
            }
        }
        checked
    }

    /// Replays `updates` on `backend` in batches of `batch`, asserting after
    /// every batch that every witness counter equals a recount and that the
    /// match sets equal the naive fixpoint's. Returns the counters checked.
    fn replay_recounting(
        pattern: &PatternGraph,
        g0: &DataGraph,
        updates: &[EdgeUpdate],
        batch: usize,
        backend: gpm_distance::OracleBackend,
    ) -> usize {
        let exec = Executor::sequential();
        let mut g = g0.clone();
        let mut oracle = backend.build(&g, &exec);
        let mut s = MatchState::initialise_with(pattern, &g, oracle.as_ref(), &exec);
        let mut checked = assert_counters_recount(pattern, &g, oracle.as_ref(), &s);
        for chunk in updates.chunks(batch) {
            let applied: Vec<EdgeUpdate> =
                chunk.iter().copied().filter(|u| u.apply(&mut g)).collect();
            let aff1 = oracle.apply_batch(&g, &applied, &exec);
            repair_match_state(pattern, &g, oracle.as_ref(), &mut s, &aff1).unwrap();
            checked += assert_counters_recount(pattern, &g, oracle.as_ref(), &s);
            let naive = naive_match_sets(pattern, &g, oracle.as_ref());
            assert_eq!(
                match_sets(pattern, &s),
                naive,
                "{backend}, batches of {batch}"
            );
        }
        checked
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// The counter invariant of [`MatchState`] on random graphs and
        /// generated patterns, cyclic ones included: after every batch of a
        /// mixed stream, on both back-ends.
        #[test]
        fn witness_counters_equal_a_recount_after_every_batch(
            seed in 0u64..1_000,
            size in 2usize..6,
            batch in 1usize..5,
        ) {
            use gpm_datagen::{generate_pattern, PatternGenConfig};
            let g0 = random_graph(&RandomGraphConfig::new(30, 75, 4).with_seed(seed));
            let config = PatternGenConfig::new(size, size + 2, 3).with_seed(seed);
            let (p, _) = generate_pattern(&g0, &config);
            let updates = random_updates(&g0, &UpdateStreamConfig::mixed(12).with_seed(seed + 3));
            for backend in gpm_distance::OracleBackend::ALL {
                replay_recounting(&p, &g0, &updates, batch, backend);
            }
        }
    }

    /// The same invariant on every adversarial topology: its worst-case
    /// script, the script undone, then a mixed stream, one update at a time
    /// and in batches of four, on both back-ends.
    #[test]
    fn witness_counters_equal_a_recount_on_adversarial_topologies() {
        use gpm_datagen::adversarial::*;
        use gpm_datagen::{generate_pattern, PatternGenConfig};
        let topologies = [
            ("star", star(12), delete_hub_updates(12)),
            ("deep_chain", deep_chain(24), cut_chain_updates(24, 11)),
            ("grid", grid(5, 5), Vec::new()),
            (
                "cliques_with_bridges",
                cliques_with_bridges(4, 5),
                cut_bridge_updates(4, 5, 1),
            ),
            ("bowtie", bowtie(8), sever_waist_updates(8)),
        ];
        for (name, g0, script) in &topologies {
            let undo = script.iter().map(|u| match *u {
                EdgeUpdate::Delete(a, b) => EdgeUpdate::Insert(a, b),
                EdgeUpdate::Insert(a, b) => EdgeUpdate::Delete(a, b),
            });
            let mut updates: Vec<EdgeUpdate> = script.iter().copied().chain(undo).collect();
            updates.extend(random_updates(
                g0,
                &UpdateStreamConfig::mixed(10).with_seed(7),
            ));
            let mut checked = 0;
            for size in 2..5 {
                for seed in 0..4 {
                    let config = PatternGenConfig::new(size, size + 1, 3).with_seed(seed);
                    let (p, _) = generate_pattern(g0, &config);
                    for backend in gpm_distance::OracleBackend::ALL {
                        for batch in [1, 4] {
                            checked += replay_recounting(&p, g0, &updates, batch, backend);
                        }
                    }
                }
            }
            assert!(checked > 0, "{name}: no counter was checked");
        }
    }

    /// The cyclic probe's repair work, pinned: the Fig. 6 stand-in
    /// (`Dataset::YouTube` at scale 0.05, |V| = 741), one mixed stream of
    /// batches of 3 generated from an evolving copy (400 batches in release,
    /// 40 in debug), and the first DAG and the first cyclic P(4,6,3) from
    /// pattern seed 0, each repaired on the matrix, sequentially. The
    /// summed `verifications`, `admitted`, `refuted` and `decrements` are
    /// pinned exactly, and the final match sets equal the naive fixpoint's.
    #[test]
    fn cyclic_probe_repair_work_is_pinned() {
        use gpm_datagen::{generate_pattern, Dataset, PatternGenConfig};
        let exec = Executor::sequential();
        let batches = if cfg!(debug_assertions) { 40 } else { 400 };
        let g0 = Dataset::YouTube.generate(0.05, 2010);
        let mut g = g0.clone();
        let script: Vec<Vec<EdgeUpdate>> = (0..batches)
            .map(|b| {
                let config = UpdateStreamConfig::mixed(3).with_seed(1000 + b);
                let updates = random_updates(&g, &config);
                for u in &updates {
                    u.apply(&mut g);
                }
                updates
            })
            .collect();
        let mut tallies = Vec::new();
        for cyclic in [false, true] {
            let pattern =
                |seed| generate_pattern(&g0, &PatternGenConfig::new(4, 6, 3).with_seed(seed));
            let p = (0..)
                .map(|seed| pattern(seed).0)
                .find(|p| p.is_dag() != cyclic)
                .unwrap();
            let mut g = g0.clone();
            let mut m = DistanceMatrix::build_with(&g, &exec);
            let mut s = MatchState::initialise_with(&p, &g, &m, &exec);
            let mut tally = [0; 4];
            for updates in &script {
                let applied: Vec<EdgeUpdate> = updates
                    .iter()
                    .copied()
                    .filter(|u| u.apply(&mut g))
                    .collect();
                let aff1 = m.apply_batch(&g, &applied, &exec);
                let (_, passes) = repair(&p, &g, &m, &mut s, &aff1);
                let work = [
                    passes.verifications,
                    passes.added.len(),
                    passes.refuted.len(),
                    passes.decrements,
                ];
                tally.iter_mut().zip(work).for_each(|(t, w)| *t += w);
            }
            assert_eq!(
                match_sets(&p, &s),
                naive_match_sets(&p, &g, &m),
                "cyclic: {cyclic}"
            );
            tallies.push(tally);
        }
        // [verifications, admitted, refuted, decrements], DAG then cyclic.
        let expected = if cfg!(debug_assertions) {
            [[33, 0, 0, 0], [4_398, 2_201, 2_201, 29_111]]
        } else {
            [[297, 11, 0, 75], [34_367, 17_204, 17_190, 250_526]]
        };
        assert_eq!(tallies, expected);
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

    /// On random graphs and mixed batches of 4–23 updates the three
    /// seedings agree for patterns with one bound, two bounds and a `*`
    /// edge, and for a 2-cycle and a 3-cycle with a head and a tail. The
    /// full 3 000 seeds run in release (CI runs this crate's tests there),
    /// a tenth in debug.
    #[test]
    fn bound_crossing_seeds_equal_all_sources_equal_recompute() {
        let patterns = [
            dag_pattern(),
            chain_pattern(EdgeBound::Hops(1), EdgeBound::Hops(4)),
            chain_pattern(EdgeBound::Hops(2), EdgeBound::Unbounded),
            cyclic_pattern(),
            cycle_with_tail_pattern(),
        ];
        let seeds = if cfg!(debug_assertions) { 300 } else { 3_000 };
        for seed in 0..seeds {
            let g = random_graph(&RandomGraphConfig::new(40, 90, 5).with_seed(seed));
            let batch = 4 + seed as usize % 20;
            let updates =
                random_updates(&g, &UpdateStreamConfig::mixed(batch).with_seed(seed + 31));
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
