//! The cubic-time `Match` algorithm (Fig. 4 of the paper).
//!
//! Given a pattern `P = (V_p, E_p, f_v, f_e)` and a data graph
//! `G = (V, E, f_A)`, `Match` computes the unique **maximum** bounded
//! simulation relation `S ⊆ V_p × V` (or `∅` when `P ⋬ G`) in
//! `O(|V||E| + |E_p||V|² + |V_p||V|)` time.
//!
//! ## Implementation
//!
//! The structure follows the paper: initial candidate sets `mat(u)` from the
//! node predicates, then iterative removal of nodes that cannot witness some
//! pattern edge, propagated upward until a fixpoint. Four representation
//! choices differ from the pseudo-code but keep the bound:
//!
//! * the initial `mat(u)` (lines 4–5) is read from the data graph's
//!   attribute index ([`DataGraph::nodes_satisfying`]) rather than tested
//!   node by node: each predicate atom is a binary search for at most three
//!   ranges of its attribute's sorted value codes, and the nodes of those
//!   ranges come off contiguous posting slices — or off one scan of the
//!   attribute's code column, when that reads fewer entries — so selection
//!   stays within the paper's `O(|V_p||V|)`;
//! * each `mat(u)` is held twice: as a packed ascending list of its
//!   *initial* candidates, which every pass iterates, and as a membership
//!   bitmap, which is the only part that shrinks. The witness-counter pass
//!   therefore costs `Σ_e |mat(from(e))|·|mat(to(e))|` row-local loads — one
//!   [`DistanceQuery::count_within`] per (pattern edge, source candidate),
//!   against the target's candidate list — which the paper's `|E_p||V|²`
//!   bounds, and nothing after candidate selection scans all of `V`;
//! * `anc`/`desc` sets are not materialised; the distance oracle answers the
//!   `len(x/.../x') <= f_e(u', u)` test in `O(1)` (distance matrix) — this is
//!   exactly the information the `anc`/`desc` sets encode;
//! * the `premv` bookkeeping is realised with per-(pattern-edge, data-node)
//!   **witness counters**: `cnt[e][x]` is the number of nodes currently in
//!   `mat(target(e))` that `x` can reach within the bound of `e`. When a node
//!   `y` is removed from `mat(u)`, the counters of candidate parents that can
//!   reach `y` are decremented; hitting zero removes the parent candidate —
//!   the same `O(|E_p||V|²)` propagation the paper obtains with `premv`.

use crate::match_relation::MatchRelation;
use gpm_distance::{DistanceQuery, OracleBackend};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, NodeId, PatternGraph, PatternNodeId};
use std::sync::{Arc, OnceLock};

/// Observability handles for the refinement (scope `"match"`). Every
/// counter is deterministic: the fixed merge order makes waves, scans and
/// removals bit-identical at any thread count.
struct MatchMetrics {
    runs: Arc<gpm_obs::Counter>,
    waves: Arc<gpm_obs::Counter>,
    /// Candidate-list entries visited by the wave loop: per wave, the sum
    /// over the active pattern edges `e` (those whose target lost candidates)
    /// of `|mat_0(from(e))|`, the length of the packed initial list — live or
    /// not, each entry costs one membership test. A function of the merge
    /// order alone, so identical at any thread or chunk count.
    membership_scans: Arc<gpm_obs::Counter>,
    initial_candidates: Arc<gpm_obs::Counter>,
    removed_candidates: Arc<gpm_obs::Counter>,
    counter_decrements: Arc<gpm_obs::Counter>,
    failed_early: Arc<gpm_obs::Counter>,
    run_ns: Arc<gpm_obs::Histogram>,
}

fn metrics() -> &'static MatchMetrics {
    static METRICS: OnceLock<MatchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let scope = gpm_obs::registry().scope("match");
        MatchMetrics {
            runs: scope.counter("runs"),
            waves: scope.counter("waves"),
            membership_scans: scope.counter("membership_scans"),
            initial_candidates: scope.counter("initial_candidates"),
            removed_candidates: scope.counter("removed_candidates"),
            counter_decrements: scope.counter("counter_decrements"),
            failed_early: scope.counter("failed_early"),
            run_ns: scope.histogram("run_ns"),
        }
    })
}

/// Counters and outcome metadata of a `Match` run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Total number of initial candidates over all pattern nodes
    /// (`Σ_u |mat_0(u)|`).
    pub initial_candidates: usize,
    /// Number of `(u, x)` candidate pairs removed during refinement.
    pub removed_candidates: usize,
    /// Number of witness-counter decrements performed (a proxy for the work
    /// of the refinement loop).
    pub counter_decrements: usize,
    /// Whether the run ended early because some `mat(u)` became empty.
    pub failed_early: bool,
}

/// The result of running `Match`: the maximum match plus run statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchOutcome {
    /// The maximum match `S` (all-empty when `P ⋬ G`).
    pub relation: MatchRelation,
    /// Statistics about the run.
    pub stats: MatchStats,
}

impl MatchOutcome {
    /// Whether the data graph matches the pattern (`P ⊴ G`).
    pub fn is_match(&self, pattern: &PatternGraph) -> bool {
        self.relation.is_match(pattern)
    }
}

/// Runs `Match` with a freshly built distance backend.
///
/// The backend is selected by the `GPM_ORACLE` environment variable via
/// [`OracleBackend::from_env`] (the paper's distance matrix by default).
/// Use [`bounded_simulation_with_oracle`] to reuse a prebuilt oracle (the
/// paper computes `M` once and shares it across patterns) or to pick a
/// specific variant programmatically. Both the oracle construction and the
/// refinement run on the process-default [`gpm_exec::Parallelism`] policy
/// (all available cores, or `GPM_THREADS`); see [`bounded_simulation_on`]
/// to choose explicitly.
pub fn bounded_simulation(pattern: &PatternGraph, graph: &DataGraph) -> MatchOutcome {
    bounded_simulation_on(pattern, graph, &Executor::from_env())
}

/// Runs `Match` (env-selected oracle construction included) on an explicit
/// executor.
pub fn bounded_simulation_on(
    pattern: &PatternGraph,
    graph: &DataGraph,
    exec: &Executor,
) -> MatchOutcome {
    let oracle = OracleBackend::from_env().build(graph, exec);
    bounded_simulation_with_oracle_on(pattern, graph, oracle.as_ref(), exec)
}

/// Runs `Match` against an arbitrary [`DistanceQuery`] on the
/// process-default [`gpm_exec::Parallelism`] policy.
pub fn bounded_simulation_with_oracle<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
) -> MatchOutcome {
    bounded_simulation_with_oracle_on(pattern, graph, oracle, &Executor::from_env())
}

/// Runs `Match` against an arbitrary [`DistanceQuery`] on an explicit
/// executor.
///
/// ## Parallel structure (and why the output is exactly sequential)
///
/// The initial candidates come off the attribute index on the caller thread
/// (a few microseconds per pattern node, below the cost of a region). The
/// two phases of the refinement after them are data-parallel over disjoint
/// state, and every merge is performed in a fixed (pattern-edge, data-node)
/// order that does not depend on the thread count or chunking:
///
/// 1. **witness-counter initialisation** — the `Σ_e |mat(from)|·|mat(to)|`
///    pass is split into (pattern edge × chunk of `mat(from)`) tasks, each
///    owning a disjoint counter range;
/// 2. **removal propagation** — processed in *waves*: all removals of the
///    current wave are grouped per pattern node, the counter decrements they
///    imply are computed in parallel against the wave-start membership
///    (pure reads), and then applied in the fixed merge order, emitting the
///    next wave. Chaotic-iteration confluence makes any wave order reach the
///    same greatest fixpoint; the fixed merge order additionally makes the
///    run — including [`MatchStats`] and early-failure behaviour —
///    bit-identical at every thread count, which is what the determinism
///    suite asserts.
pub fn bounded_simulation_with_oracle_on<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    exec: &Executor,
) -> MatchOutcome {
    let m = metrics();
    let _span = m.run_ns.span();
    let out = match_inner(pattern, graph, oracle, exec);
    if gpm_obs::enabled() {
        m.runs.inc();
        m.initial_candidates
            .add(out.stats.initial_candidates as u64);
        m.removed_candidates
            .add(out.stats.removed_candidates as u64);
        m.counter_decrements
            .add(out.stats.counter_decrements as u64);
        if out.stats.failed_early {
            m.failed_early.inc();
        }
    }
    out
}

/// The refinement itself, uninstrumented (see the public wrapper above for
/// the obs accounting; the wave loop counts waves and scans inline).
fn match_inner<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    exec: &Executor,
) -> MatchOutcome {
    let np = pattern.node_count();
    let nv = graph.node_count();
    let mut stats = MatchStats::default();

    if np == 0 {
        // The empty pattern matches trivially with the empty relation.
        return MatchOutcome {
            relation: MatchRelation::empty(0),
            stats,
        };
    }

    // mat(u) as a packed ascending candidate list per pattern node (lines
    // 4-5 of Fig. 4), read from the graph's attribute index on the caller
    // thread: a list is a few binary searches and posting-slice copies, less
    // than a region's thread spawns. The lists are what the refinement
    // iterates; `member` below is their O(1) membership test, and the only
    // one of the two that shrinks.
    let cand: Vec<Vec<NodeId>> = pattern
        .node_ids()
        .map(|u| {
            let mut list = graph.nodes_satisfying(pattern.predicate(u));
            if pattern.out_degree(u) > 0 {
                list.retain(|&v| graph.out_degree(v) > 0);
            }
            list
        })
        .collect();
    let mut member: Vec<Vec<bool>> = Vec::with_capacity(np);
    let mut live_count: Vec<usize> = Vec::with_capacity(np);
    for list in &cand {
        stats.initial_candidates += list.len();
        if list.is_empty() {
            stats.failed_early = true;
            return MatchOutcome {
                relation: MatchRelation::empty(np),
                stats,
            };
        }
        let mut row = vec![false; nv];
        for v in list {
            row[v.index()] = true;
        }
        member.push(row);
        live_count.push(list.len());
    }

    // Chunking of every `cand[from]` list, shared by both parallel phases. The
    // merge order below is (edge, x ascending) for *any* chunk count, so this
    // choice affects scheduling only, never results.
    let n_chunks = if exec.parallelism().should_parallelise(nv) {
        (exec.threads() * 4).min(nv.max(1))
    } else {
        1
    };

    // Witness counters per pattern edge, indexed like `cand[from(e)]`:
    // cnt[e][i] = |{y in mat(to(e)) : within(x, y, bound(e))}| for the i-th
    // candidate x of from(e) — one row-level oracle query per x.
    //
    // All counters are computed against the *initial* candidate sets before
    // any removal takes place, so that every later removal of a witness `y`
    // corresponds to exactly one decrement. Each (edge, chunk) task owns a
    // disjoint counter range; chunk results are stitched back in task order.
    let edges: Vec<_> = pattern.edges().copied().collect();
    let ne = edges.len();
    let init_chunks: Vec<(Vec<u32>, Vec<NodeId>)> = exec.map_tasks(ne * n_chunks, nv, |ti| {
        let e = &edges[ti / n_chunks];
        let targets = &cand[e.to.index()];
        let sources = &cand[e.from.index()];
        let (start, end) = chunk_range(sources.len(), ti % n_chunks, n_chunks);
        let mut counts = Vec::with_capacity(end - start);
        let mut witnessless: Vec<NodeId> = Vec::new();
        for &x in &sources[start..end] {
            let count = oracle.count_within(graph, x, targets, e.bound);
            if count == 0 {
                // x cannot witness edge e: schedule its removal from mat(from).
                witnessless.push(x);
            }
            counts.push(count);
        }
        (counts, witnessless)
    });
    let mut counters: Vec<Vec<u32>> = Vec::with_capacity(ne);
    // Candidates found witness-less during counter initialisation; their
    // removal is deferred until all counters are in place.
    let mut pending: Vec<(PatternNodeId, NodeId)> = Vec::new();
    for (ti, (counts, witnessless)) in init_chunks.into_iter().enumerate() {
        let ei = ti / n_chunks;
        if ti % n_chunks == 0 {
            counters.push(Vec::with_capacity(cand[edges[ei].from.index()].len()));
        }
        counters[ei].extend(counts);
        pending.extend(witnessless.into_iter().map(|x| (edges[ei].from, x)));
    }

    // First wave of removals.
    let mut wave: Vec<(PatternNodeId, NodeId)> = Vec::new();
    for (u, x) in pending {
        if member[u.index()][x.index()] {
            member[u.index()][x.index()] = false;
            live_count[u.index()] -= 1;
            stats.removed_candidates += 1;
            wave.push((u, x));
            if live_count[u.index()] == 0 {
                stats.failed_early = true;
                return MatchOutcome {
                    relation: MatchRelation::empty(np),
                    stats,
                };
            }
        }
    }

    // Removal propagation in waves (lines 11-14 of Fig. 4). Per wave, the
    // decrements implied by the removed nodes are computed in parallel
    // against the wave-start membership (pure reads of `member` and the
    // oracle), then applied in (edge, x) order.
    while !wave.is_empty() {
        let mut removed_per_u: Vec<Vec<NodeId>> = vec![Vec::new(); np];
        for &(u, y) in &wave {
            removed_per_u[u.index()].push(y);
        }
        // Pattern edges whose target lost candidates this wave.
        let active: Vec<usize> = (0..ne)
            .filter(|&ei| !removed_per_u[edges[ei].to.index()].is_empty())
            .collect();
        if gpm_obs::enabled() {
            let m = metrics();
            m.waves.inc();
            // Each active edge visits every entry of its `cand[from]` list.
            let visited: usize = active
                .iter()
                .map(|&ei| cand[edges[ei].from.index()].len())
                .sum();
            m.membership_scans.add(visited as u64);
        }
        // Per task: (index into cand[from], decrement) for every still-live
        // parent candidate that could reach a node removed this wave.
        let deltas: Vec<Vec<(usize, u32)>> = exec.map_tasks(active.len() * n_chunks, nv, |ti| {
            let e = &edges[active[ti / n_chunks]];
            let parent = e.from.index();
            let removed = &removed_per_u[e.to.index()];
            let (start, end) = chunk_range(cand[parent].len(), ti % n_chunks, n_chunks);
            let mut out: Vec<(usize, u32)> = Vec::new();
            for (i, &x) in cand[parent][start..end].iter().enumerate() {
                if !member[parent][x.index()] {
                    continue;
                }
                let d = oracle.count_within(graph, x, removed, e.bound);
                if d > 0 {
                    out.push((start + i, d));
                }
            }
            out
        });
        let mut next: Vec<(PatternNodeId, NodeId)> = Vec::new();
        for (ti, chunk_deltas) in deltas.into_iter().enumerate() {
            let ei = active[ti / n_chunks];
            let e = &edges[ei];
            let parent = e.from.index();
            for (i, d) in chunk_deltas {
                let x = cand[parent][i];
                if !member[parent][x.index()] {
                    // Removed earlier in this merge pass (through another
                    // edge); its counters no longer matter.
                    continue;
                }
                stats.counter_decrements += d as usize;
                debug_assert!(counters[ei][i] >= d, "witness counter underflow");
                counters[ei][i] -= d;
                if counters[ei][i] == 0 {
                    member[parent][x.index()] = false;
                    live_count[parent] -= 1;
                    stats.removed_candidates += 1;
                    next.push((e.from, x));
                    if live_count[parent] == 0 {
                        stats.failed_early = true;
                        return MatchOutcome {
                            relation: MatchRelation::empty(np),
                            stats,
                        };
                    }
                }
            }
        }
        wave = next;
    }

    // Collect the surviving candidates (lines 16-18).
    let sets: Vec<Vec<NodeId>> = cand
        .into_iter()
        .zip(&member)
        .map(|(mut list, alive)| {
            list.retain(|x| alive[x.index()]);
            list
        })
        .collect();
    MatchOutcome {
        relation: MatchRelation::from_sets(sets),
        stats,
    }
}

/// The index range of chunk `ci` of `n_chunks` over a list of `len` entries,
/// clamped to `[0, len]` at both ends: with `chunk_len = ceil(len /
/// n_chunks)`, trailing chunks can start past `len` and must degenerate to
/// empty ranges (not out-of-bounds slices). Shared by the
/// counter-initialisation and wave-delta tasks so the two phases can never
/// disagree on chunk boundaries.
#[inline]
fn chunk_range(len: usize, ci: usize, n_chunks: usize) -> (usize, usize) {
    let chunk_len = len.div_ceil(n_chunks).max(1);
    let start = (ci * chunk_len).min(len);
    let end = (start + chunk_len).min(len);
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::bounded_simulation_naive_with_oracle;
    use gpm_datagen::{generate_pattern, random_graph, PatternGenConfig, RandomGraphConfig};
    use gpm_distance::{BfsOracle, DistanceMatrix, IncrementalTwoHop, TwoHopOracle};
    use gpm_exec::Parallelism;
    use gpm_graph::{
        Attributes, CmpOp, DataGraphBuilder, EdgeBound, PatternGraphBuilder, Predicate,
    };

    fn pn(i: u32) -> PatternNodeId {
        PatternNodeId::new(i)
    }

    fn dn(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The drug-trafficking example of Fig. 1: pattern P0 and data graph G0.
    ///
    /// G0: boss B oversees AMs A1..Am; Am doubles as the secretary S; the
    /// AMs supervise a small hierarchy of field workers W, who report back.
    fn example_1_1(m: usize) -> (DataGraph, PatternGraph) {
        let mut g = DataGraph::new();
        let b = g.add_node(Attributes::labeled("B"));
        let mut ams = Vec::new();
        for i in 0..m {
            // The last AM is also the secretary: it carries both roles.
            let attrs = if i == m - 1 {
                Attributes::labeled("AM").with("secretary", true)
            } else {
                Attributes::labeled("AM")
            };
            let am = g.add_node(attrs);
            g.add_edge(b, am).unwrap();
            ams.push(am);
        }
        // Field-worker chains of depth 3 under the first AM, depth 1 under
        // the others; everyone reports back to an AM (so FW nodes have
        // outgoing edges, as P0 requires via the FW -> AM edge).
        let mut workers = Vec::new();
        for (i, &am) in ams.iter().enumerate() {
            let depth = if i == 0 { 3 } else { 1 };
            let mut prev = am;
            for _ in 0..depth {
                let w = g.add_node(Attributes::labeled("FW"));
                g.add_edge(prev, w).unwrap();
                workers.push(w);
                prev = w;
            }
            g.add_edge(prev, am).unwrap();
        }
        // The secretary reaches the top-level worker of the first AM in 1 hop.
        g.add_edge(*ams.last().unwrap(), workers[0]).unwrap();

        let mut p = PatternGraph::new();
        let pb = p.add_named_node("B", Predicate::label("B"));
        let pam = p.add_named_node("AM", Predicate::label("AM"));
        let ps = p.add_named_node(
            "S",
            Predicate::label("AM").and("secretary", CmpOp::Eq, true),
        );
        let pfw = p.add_named_node("FW", Predicate::label("FW"));
        p.add_edge(pb, pam, EdgeBound::ONE).unwrap();
        p.add_edge(pb, ps, EdgeBound::ONE).unwrap();
        p.add_edge(pam, pfw, EdgeBound::Hops(3)).unwrap();
        p.add_edge(ps, pfw, EdgeBound::ONE).unwrap();
        p.add_edge(pfw, pam, EdgeBound::Hops(3)).unwrap();
        (g, p)
    }

    #[test]
    fn empty_pattern_matches_trivially() {
        let g = DataGraph::new();
        let p = PatternGraph::new();
        let out = bounded_simulation(&p, &g);
        assert_eq!(out.relation.pattern_node_count(), 0);
        assert!(!out.stats.failed_early);
    }

    #[test]
    fn single_node_pattern() {
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("A2")
            .node("A2", Attributes::labeled("A"))
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .build()
            .unwrap();
        let out = bounded_simulation(&p, &g);
        assert!(out.is_match(&p));
        assert_eq!(out.relation.matches_of(pn(0)).len(), 2);

        let (p2, _) = PatternGraphBuilder::new()
            .labeled_node("Z")
            .build()
            .unwrap();
        let out2 = bounded_simulation(&p2, &g);
        assert!(!out2.is_match(&p2));
        assert!(out2.stats.failed_early);
    }

    #[test]
    fn simple_bounded_edge() {
        // a -> b -> c, pattern A -[2]-> C matches; with bound 1 it does not.
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .path(&["A", "B", "C"])
            .build()
            .unwrap();
        let (p2, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("C")
            .edge("A", "C", 2u32)
            .build()
            .unwrap();
        let out = bounded_simulation(&p2, &g);
        assert!(out.is_match(&p2));
        assert_eq!(out.relation.matches_of(pn(0)), &[dn(0)]);
        assert_eq!(out.relation.matches_of(pn(1)), &[dn(2)]);

        let (p1, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("C")
            .edge("A", "C", 1u32)
            .build()
            .unwrap();
        let out = bounded_simulation(&p1, &g);
        assert!(!out.is_match(&p1));
        assert!(out.relation.is_empty());
    }

    #[test]
    fn unbounded_edge_uses_reachability() {
        // a -> b -> c -> d; pattern A -*-> D.
        let (g, _) = DataGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("B")
            .labeled_node("C")
            .labeled_node("D")
            .path(&["A", "B", "C", "D"])
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("A")
            .labeled_node("D")
            .unbounded_edge("A", "D")
            .build()
            .unwrap();
        let out = bounded_simulation(&p, &g);
        assert!(out.is_match(&p));
    }

    #[test]
    fn nonempty_path_requirement_on_cycles() {
        // Pattern A -[1]-> A requires a data node labelled A with an edge to
        // a node labelled A: a self-loop qualifies, an isolated node doesn't.
        let mut g = DataGraph::new();
        let a0 = g.add_node(Attributes::labeled("A"));
        let _a1 = g.add_node(Attributes::labeled("A"));
        g.add_edge(a0, a0).unwrap();

        let mut p = PatternGraph::new();
        let ua = p.add_node(Predicate::label("A"));
        let ub = p.add_node(Predicate::label("A"));
        p.add_edge(ua, ub, EdgeBound::ONE).unwrap();

        let out = bounded_simulation(&p, &g);
        assert!(out.is_match(&p));
        // Only the self-loop node can match the source; both can match the sink.
        assert_eq!(out.relation.matches_of(ua), &[a0]);
        assert!(out.relation.contains(ub, a0));
    }

    #[test]
    fn example_1_1_matches_expected_nodes() {
        let (g, p) = example_1_1(4);
        let out = bounded_simulation(&p, &g);
        assert!(out.is_match(&p), "P0 should match G0");
        // B matches only the boss.
        assert_eq!(out.relation.matches_of(pn(0)), &[dn(0)]);
        // AM matches all the A_i (the S pattern node maps to the AM that is
        // also the secretary).
        assert_eq!(out.relation.matches_of(pn(1)).len(), 4);
        assert_eq!(out.relation.matches_of(pn(2)).len(), 1);
        // Every FW node is matched to the FW pattern node.
        let fw_nodes = g
            .nodes()
            .filter(|&v| g.attributes(v).label() == Some("FW"))
            .count();
        assert_eq!(out.relation.matches_of(pn(3)).len(), fw_nodes);
        // The relation satisfies the definition.
        let m = DistanceMatrix::build(&g);
        assert!(out.relation.is_valid_match(&p, &g, &m));
    }

    #[test]
    fn oracles_agree_on_example() {
        let (g, p) = example_1_1(5);
        let matrix = DistanceMatrix::build(&g);
        let bfs = BfsOracle::new();
        let two_hop = TwoHopOracle::build(&g);
        let a = bounded_simulation_with_oracle(&p, &g, &matrix);
        let b = bounded_simulation_with_oracle(&p, &g, &bfs);
        let c = bounded_simulation_with_oracle(&p, &g, &two_hop);
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.relation, c.relation);
    }

    #[test]
    fn removing_critical_edge_breaks_match() {
        // Mirrors Example 2.2(3): dropping the only witness edge kills the match.
        let (mut g, names) = DataGraphBuilder::new()
            .labeled_node("CS")
            .labeled_node("Bio")
            .labeled_node("Soc")
            .path(&["CS", "Bio", "Soc"])
            .build()
            .unwrap();
        let (p, _) = PatternGraphBuilder::new()
            .labeled_node("CS")
            .labeled_node("Soc")
            .edge("CS", "Soc", 3u32)
            .build()
            .unwrap();
        assert!(bounded_simulation(&p, &g).is_match(&p));
        g.remove_edge(names["CS"], names["Bio"]).unwrap();
        let out = bounded_simulation(&p, &g);
        assert!(!out.is_match(&p));
        assert!(out.relation.is_empty());
    }

    #[test]
    fn predicates_filter_candidates() {
        let mut g = DataGraph::new();
        let good = g.add_node(Attributes::labeled("Music").with("rate", 4.8));
        let bad = g.add_node(Attributes::labeled("Music").with("rate", 2.0));
        let target = g.add_node(Attributes::labeled("People"));
        g.add_edge(good, target).unwrap();
        g.add_edge(bad, target).unwrap();

        let mut p = PatternGraph::new();
        let u0 = p.add_node(Predicate::label("Music").and("rate", CmpOp::Gt, 4.5));
        let u1 = p.add_node(Predicate::label("People"));
        p.add_edge(u0, u1, EdgeBound::Hops(2)).unwrap();

        let out = bounded_simulation(&p, &g);
        assert!(out.is_match(&p));
        assert_eq!(out.relation.matches_of(u0), &[good]);
        assert_eq!(out.relation.matches_of(u1), &[target]);
    }

    #[test]
    fn stats_are_populated() {
        let (g, p) = example_1_1(3);
        let out = bounded_simulation(&p, &g);
        assert!(out.stats.initial_candidates > 0);
        assert!(!out.stats.failed_early);
        // The out-degree-zero pre-filter plus refinement removed nothing
        // essential, but some removals/decrements may have happened; just
        // check consistency.
        assert!(out.stats.removed_candidates <= out.stats.initial_candidates);
    }

    #[test]
    fn chunk_tails_past_node_count_are_empty_not_panics() {
        // Regression: with `chunk_len = ceil(nv / n_chunks)`, trailing chunk
        // starts can exceed `nv` (e.g. nv = 101, 32 chunks of 4 ⇒ chunk 26
        // starts at 104); they must degenerate to empty ranges. Build a
        // 101-node graph with enough refinement work to reach the wave loop
        // and force a high chunk count.
        use gpm_exec::{Executor, Parallelism};
        let mut g = DataGraph::new();
        for i in 0..101u32 {
            let label = if i % 2 == 0 { "A" } else { "B" };
            g.add_node(Attributes::labeled(label));
        }
        for i in 0..100u32 {
            g.add_edge(dn(i), dn(i + 1)).unwrap();
        }
        let mut p = PatternGraph::new();
        let ua = p.add_node(Predicate::label("A"));
        let ub = p.add_node(Predicate::label("B"));
        p.add_edge(ua, ub, EdgeBound::ONE).unwrap();
        p.add_edge(ub, ua, EdgeBound::ONE).unwrap();

        let sequential = bounded_simulation(&p, &g);
        for threads in [2usize, 8] {
            let exec = Executor::new(Parallelism::new(threads).with_sequential_threshold(0));
            let parallel = bounded_simulation_on(&p, &g, &exec);
            assert_eq!(parallel, sequential, "diverged at {threads} threads");
        }
    }

    #[test]
    fn maximality_every_surviving_pair_is_necessary() {
        // For a small example, check that the computed relation is maximal:
        // adding any non-member candidate pair that satisfies the predicate
        // creates an invalid relation.
        let (g, p) = example_1_1(3);
        let out = bounded_simulation(&p, &g);
        let m = DistanceMatrix::build(&g);
        assert!(out.relation.is_valid_match(&p, &g, &m));
        for u in p.node_ids() {
            for v in g.nodes() {
                if out.relation.contains(u, v) || !g.satisfies(v, p.predicate(u)) {
                    continue;
                }
                let mut bigger = out.relation.clone();
                bigger.insert(u, v);
                assert!(
                    !bigger.is_valid_match(&p, &g, &m),
                    "adding ({u}, {v}) should violate the match conditions"
                );
            }
        }
    }

    /// A pinned outcome: the relation as raw node indices per pattern node,
    /// then the four `MatchStats` fields.
    fn golden(sets: &[&[u32]], stats: (usize, usize, usize, bool)) -> MatchOutcome {
        MatchOutcome {
            relation: MatchRelation::from_sets(
                sets.iter()
                    .map(|set| set.iter().map(|&i| dn(i)).collect())
                    .collect(),
            ),
            stats: MatchStats {
                initial_candidates: stats.0,
                removed_candidates: stats.1,
                counter_decrements: stats.2,
                failed_early: stats.3,
            },
        }
    }

    /// `Match` on the matrix at 1/2/8 threads (threshold 0, so even these
    /// sizes run chunked) must equal `expected` — relation and statistics.
    fn assert_pinned(g: &DataGraph, p: &PatternGraph, expected: &MatchOutcome) {
        let matrix = DistanceMatrix::build(g);
        for threads in [1usize, 2, 8] {
            let exec = Executor::new(Parallelism::new(threads).with_sequential_threshold(0));
            let out = bounded_simulation_with_oracle_on(p, g, &matrix, &exec);
            assert_eq!(&out, expected, "diverged from the pin at {threads} threads");
        }
    }

    /// The `(random_graph, generate_pattern)` pair of a pin below.
    fn generated(
        (nodes, edges, labels, graph_seed): (usize, usize, usize, u64),
        (size, pattern_seed): (usize, u64),
    ) -> (DataGraph, PatternGraph) {
        let g = random_graph(&RandomGraphConfig::new(nodes, edges, labels).with_seed(graph_seed));
        let config = PatternGenConfig::new(size, size + 1, 3).with_seed(pattern_seed);
        let (p, _) = generate_pattern(&g, &config);
        (g, p)
    }

    // The four pins below were captured from the commit before `Match`
    // moved onto packed candidate lists and `count_within` (the dense
    // `member[to]` scan with one `within` per pair); the merge order, and so
    // every statistic, must not move.

    #[test]
    fn pinned_outcome_fig1_example() {
        let (g, p) = example_1_1(4);
        let expected = golden(
            &[&[0], &[1, 2, 3, 4], &[4], &[5, 6, 7, 8, 9, 10]],
            (12, 0, 0, false),
        );
        assert_pinned(&g, &p, &expected);
    }

    #[test]
    fn pinned_outcome_failing_in_candidate_selection() {
        // Some `mat(u)` is empty after the predicate + out-degree filter.
        let (g, p) = generated((40, 90, 4, 1), (3, 6));
        assert_pinned(&g, &p, &golden(&[&[], &[], &[]], (12, 0, 0, true)));
    }

    #[test]
    fn pinned_outcome_failing_in_a_wave() {
        let (g, p) = generated((60, 150, 5, 2), (4, 1));
        assert_pinned(&g, &p, &golden(&[&[], &[], &[], &[]], (103, 71, 309, true)));
    }

    #[test]
    fn pinned_outcome_matching_after_refinement() {
        let (g, p) = generated((60, 150, 5, 1), (4, 27));
        let expected = golden(
            &[
                &[32, 39, 48, 57, 58],
                &[24],
                &[12],
                &[
                    3, 4, 5, 7, 9, 16, 17, 19, 21, 23, 24, 25, 26, 31, 32, 34, 39, 40, 41, 42, 44,
                    47, 48, 53, 54,
                ],
            ],
            (48, 16, 407, false),
        );
        assert_pinned(&g, &p, &expected);
    }

    #[test]
    fn horizon_sized_bounds_do_not_match_disconnected_nodes() {
        // a0 -> b0 -> c0 and, in another component, a1 -> d0. With bounds at
        // and past the `u16` distance horizon the matrix used to compare
        // `UNREACHABLE <= k` and keep a1 as a match of A.
        let (g, names) = DataGraphBuilder::new()
            .node("a0", Attributes::labeled("A"))
            .node("a1", Attributes::labeled("A"))
            .node("b0", Attributes::labeled("B"))
            .node("c0", Attributes::labeled("C"))
            .node("d0", Attributes::labeled("D"))
            .path(&["a0", "b0", "c0"])
            .edge("a1", "d0")
            .build()
            .unwrap();
        let mut p = PatternGraph::new();
        let ua = p.add_node(Predicate::label("A"));
        let ub = p.add_node(Predicate::label("B"));
        let uc = p.add_node(Predicate::label("C"));
        p.add_edge(ua, ub, EdgeBound::Hops(65_535)).unwrap();
        p.add_edge(ua, uc, EdgeBound::Hops(u32::MAX)).unwrap();

        let naive = bounded_simulation_naive_with_oracle(&p, &g, &BfsOracle::new());
        assert_eq!(naive.relation.matches_of(ua), &[names["a0"]]);
        let matrix = bounded_simulation_with_oracle(&p, &g, &DistanceMatrix::build(&g));
        let two_hop = bounded_simulation_with_oracle(&p, &g, &IncrementalTwoHop::build(&g));
        assert_eq!(matrix.relation, naive.relation);
        assert_eq!(two_hop.relation, naive.relation);
        assert_eq!(matrix.stats, two_hop.stats);
    }
}
