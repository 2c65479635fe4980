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
//! pattern edge, propagated upward until a fixpoint, returning `∅` as soon
//! as some `mat(u)` is empty. Five choices differ from the pseudo-code but
//! keep the bound:
//!
//! * the initial `mat(u)` (lines 4–5) is read from the data graph's
//!   attribute index ([`DataGraph::nodes_satisfying`]) rather than tested
//!   node by node: each predicate atom is a binary search for at most three
//!   ranges of its attribute's sorted value codes, whose node count is read
//!   off the index before any node is. The atom with the fewest nodes
//!   drives: they come off contiguous posting slices — or off one scan of
//!   the attribute's code column, when that reads fewer entries — and the
//!   other atoms filter them in ascending count, so selection stays within
//!   the paper's `O(|V_p||V|)`;
//! * each `mat(u)` is held twice: as a packed ascending list of its
//!   *initial* candidates `mat₀(u)`, which is what every count reads as
//!   targets and what every pass iterates as **slots**, and as one
//!   membership flag per slot, which is the only part that shrinks. The
//!   witness-counter pass therefore costs at most
//!   `Σ_e |mat(from(e))|·|mat(to(e))|` row-local loads — one
//!   [`DistanceQuery::count_within`] per (pattern edge, live source
//!   candidate), against the target's candidate list — which the paper's
//!   `|E_p||V|²` bounds, and nothing after candidate selection scans,
//!   allocates or zeroes anything `|V|` wide;
//! * `anc`/`desc` sets are not materialised; the distance oracle answers the
//!   `len(x/.../x') <= f_e(u', u)` test in `O(1)` (distance matrix) — this is
//!   exactly the information the `anc`/`desc` sets encode;
//! * the `premv` bookkeeping is realised with per-(pattern-edge, data-node)
//!   **witness counters**: `cnt[e][x]` is the number of nodes currently in
//!   `mat(target(e))` that `x` can reach within the bound of `e`. When a node
//!   `y` is removed from `mat(u)`, the counters of candidate parents that can
//!   reach `y` are decremented; hitting zero removes the parent candidate —
//!   the same `O(|E_p||V|²)` propagation the paper obtains with `premv`.
//!   The counters are indexed by slot, one `u32` per pattern edge and slot
//!   of its source (`Σ_e |mat₀(from(e))|`), so the count pass's chunk
//!   results, kept in slot order, are the counters. Together with the flags
//!   and lists they are the [`Refinement`] that `gpm-incremental`'s match
//!   state keeps and repairs with the same wave ([`Refinement::cascade`]),
//!   its slots then `sat(u)`. A run makes at most
//!   `Σ_e |mat₀(from(e))|·|mat₀(to(e))|` decrements
//!   ([`MatchStats::counter_decrements`]): each initial target leaves once
//!   and decrements each initial source of each of its in-edges at most
//!   once;
//! * the counters are initialised one pattern edge at a time, in ascending
//!   `|mat₀(from(e))|·|mat₀(to(e))|` (ties by edge index, so the order is
//!   the same at every thread count). The sources an edge finds witness-less
//!   leave `mat(from)` before the next edge is counted, later edges skip
//!   them, and the run returns `∅` the moment a `mat(u)` empties — so a
//!   pattern that is already lost pays only for its cheapest edges
//!   (`match.counted_pairs` counts the reads). Every edge still counts
//!   against the *initial* target list `mat₀(to(e))`, which is what keeps
//!   each later removal of a witness exactly one decrement.

use crate::match_relation::MatchRelation;
use gpm_distance::{DistanceQuery, OracleBackend};
use gpm_exec::Executor;
use gpm_graph::{DataGraph, NodeId, PatternEdge, PatternGraph, PatternNodeId};
use std::sync::{Arc, OnceLock};

/// Observability handles for the refinement (scope `"match"`). Every
/// counter is deterministic: the fixed merge order makes waves, scans and
/// removals bit-identical at any thread count.
struct MatchMetrics {
    runs: Arc<gpm_obs::Counter>,
    waves: Arc<gpm_obs::Counter>,
    /// Slots visited by the wave loop: per wave, the sum over the active
    /// pattern edges `e` (those whose target lost candidates) of the slots
    /// of `from(e)` — `|mat_0(from(e))|` in `Match`, `|sat(from(e))|` in a
    /// match state's build — live or not, each slot costs one flag test. A
    /// function of the merge order alone, so identical at any thread or
    /// chunk count.
    membership_scans: Arc<gpm_obs::Counter>,
    initial_candidates: Arc<gpm_obs::Counter>,
    removed_candidates: Arc<gpm_obs::Counter>,
    counter_decrements: Arc<gpm_obs::Counter>,
    failed_early: Arc<gpm_obs::Counter>,
    /// Target-list entries read by the witness-count pass: per counted
    /// pattern edge `e`, its live sources times `|mat₀(to(e))|`. Edges are
    /// counted cheapest first, a removed source is skipped and an emptied
    /// `mat(u)` ends the pass, so the counter stays within
    /// `Σ_e |mat₀(from(e))|·|mat₀(to(e))|`, the reads of a pass over every
    /// edge. The order depends on the instance alone, so the counter is
    /// identical at any thread or chunk count.
    counted_pairs: Arc<gpm_obs::Counter>,
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
            counted_pairs: scope.counter("counted_pairs"),
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
    /// of the refinement loop). At most `Σ` over pattern edges `(u, u')` of
    /// `|mat₀(u)|·|mat₀(u')|`: a removed `(u', y)` decrements each parent
    /// `x ∈ mat₀(u)` at most once.
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
/// order that does not depend on the thread count or chunking. Each counted
/// edge and each wave opens an executor region only when its own pair reads
/// pay for one (131 072 reads at the default sequential threshold), so small
/// patterns and thin waves run on the caller thread:
///
/// 1. **witness-counter initialisation** — one edge at a time in ascending
///    `|mat₀(from)|·|mat₀(to)|`, each split into chunks of `mat(from)` that
///    own disjoint counter ranges; the edge's witness-less sources are
///    removed before the next edge, and an emptied `mat(u)` ends the run;
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
    let (refined, stats) = metered(pattern, graph, oracle, exec, true);
    let relation = match refined {
        Some(r) => MatchRelation::from_sets(r.lists),
        None => MatchRelation::empty(pattern.node_count()),
    };
    MatchOutcome { relation, stats }
}

/// [`refine`] with the `"match"` scope's accounting.
fn metered<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    exec: &Executor,
    clear: bool,
) -> (Option<Refinement>, MatchStats) {
    let m = metrics();
    let _span = m.run_ns.span();
    let mut work = Work::default();
    let refined = refine(pattern, graph, oracle, exec, clear, &mut work);
    let stats = work.stats;
    if gpm_obs::enabled() {
        m.runs.inc();
        m.waves.add(work.waves as u64);
        m.membership_scans.add(work.membership_scans as u64);
        m.counted_pairs.add(work.counted_pairs as u64);
        m.initial_candidates.add(stats.initial_candidates as u64);
        m.removed_candidates.add(stats.removed_candidates as u64);
        m.counter_decrements.add(stats.counter_decrements as u64);
        if stats.failed_early {
            m.failed_early.inc();
        }
    }
    (refined, stats)
}

/// The work of a refinement, tallied in the order it runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Work {
    /// The run's statistics.
    stats: MatchStats,
    /// `count_within` calls: one per live source of each counted edge, at
    /// most `Σ_e |mat₀(from(e))|`, the calls of a pass over every edge.
    count_calls: usize,
    /// Target-list entries those calls read (`match.counted_pairs`).
    counted_pairs: usize,
    /// Waves run (`match.waves`).
    waves: usize,
    /// Candidate-list entries the waves visited (`match.membership_scans`).
    membership_scans: usize,
}

/// `Match`'s refinement state, indexed by **slot**: a slot of pattern node
/// `u` is a position in `u`'s ascending slot list. Per pattern node it holds
/// that list, one membership flag per slot, the live count and an ascending
/// list holding `mat(u)`; per pattern edge `e`, one `u32` **witness
/// counter** per slot of `from(e)`.
///
/// A run that clears (`Match`) ends, so its slots are `mat₀(u)` itself. A
/// refinement that is kept ([`Refinement::greatest_fixpoint`]) takes
/// `sat(u)`, the nodes satisfying `u`'s predicate, which edge updates never
/// change: a node dropped from `mat₀(u)` for having no out-edge can gain one
/// and join later.
///
/// The invariant, between calls: `mat(u)` is within `u`'s slots, its list
/// is exactly `mat(u)`, and for every pattern edge `e` and every
/// `x ∈ mat(from(e))`, `counter(e, x)` is the number of nodes of
/// `mat(to(e))` that `x` reaches within `bound(e)` on the current oracle.
/// The counter of a slot outside `mat(from(e))` is stale and never read: a
/// node that joins is counted afresh ([`Refinement::count`]).
///
/// `Match` builds one and keeps only its lists; `gpm-incremental`'s match
/// state owns one for the life of a query and maintains it with
/// [`Refinement::count`], [`Refinement::add`], [`Refinement::shift`] and
/// [`Refinement::cascade`], the same wave `Match` refines with. These take
/// node ids: a kept refinement answers membership from a `|V|`-bit row per
/// pattern node and finds a slot by a rank over a second one (24 bytes per
/// 64 data nodes and pattern node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refinement {
    edges: Vec<PatternEdge>,
    slots: Vec<Vec<NodeId>>,
    /// `member[u][i]`: whether `slots[u][i] ∈ mat(u)`.
    member: Vec<Vec<bool>>,
    live: Vec<usize>,
    /// Ascending, holding `mat(u)`; inside a run `mat₀(u)`, of which only
    /// the flags shrink until the final wave compacts it.
    lists: Vec<Vec<NodeId>>,
    /// `counters[e][i]`: the counter of `slots[from(e)][i]`.
    counters: Vec<Vec<u32>>,
    /// Per pattern node, its slots and members as `|V|`-bit rows in 64-bit
    /// words, each word with the count of slots before it: a node's slot is
    /// one rank, its membership one bit. Only a kept refinement looks nodes
    /// up and builds them; `Match`'s are empty.
    ranks: Vec<Vec<Rank>>,
}

/// 64 data nodes of a rank row: the slots before them, and which of them
/// are slots and members.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Rank {
    before: u32,
    slots: u64,
    members: u64,
}

impl Refinement {
    /// The greatest fixpoint of the refinement: `Match` without clearing
    /// to `∅`, so a pattern node keeps its matches when another's empty.
    /// Its slots are `sat(u)`. Runs and is accounted like a `Match` run.
    pub fn greatest_fixpoint<O: DistanceQuery + Sync + ?Sized>(
        pattern: &PatternGraph,
        graph: &DataGraph,
        oracle: &O,
        exec: &Executor,
    ) -> Self {
        let mut r = (metered(pattern, graph, oracle, exec, false).0)
            .expect("a refinement that never clears always finishes");
        for (slots, member) in r.slots.iter().zip(&r.member) {
            let mut row = vec![Rank::default(); graph.node_count().div_ceil(64)];
            for (&x, &flag) in slots.iter().zip(member) {
                let (word, bit) = (&mut row[x.index() / 64], 1 << (x.index() % 64));
                word.slots |= bit;
                word.members |= if flag { bit } else { 0 };
            }
            let mut before = 0;
            for word in &mut row {
                (word.before, before) = (before, before + word.slots.count_ones());
            }
            r.ranks.push(row);
        }
        r
    }

    /// `x`'s word in `u`'s rank row and its bit there.
    #[inline]
    fn rank(&self, u: PatternNodeId, x: NodeId) -> Option<(Rank, u64)> {
        let word = self.ranks[u.index()].get(x.index() / 64)?;
        Some((*word, 1 << (x.index() % 64)))
    }

    /// Sets the member bit of `x`, a slot of `u`, in a kept refinement.
    fn set_member_bit(&mut self, u: PatternNodeId, x: NodeId, member: bool) {
        if let Some(word) =
            (self.ranks.get_mut(u.index())).and_then(|row| row.get_mut(x.index() / 64))
        {
            let bit = 1 << (x.index() % 64);
            word.members = (word.members & !bit) | if member { bit } else { 0 };
        }
    }

    /// Whether `x` is one of `u`'s slots.
    #[inline]
    pub fn covers(&self, u: PatternNodeId, x: NodeId) -> bool {
        self.rank(u, x)
            .is_some_and(|(word, bit)| word.slots & bit != 0)
    }

    /// The slot of `x` in `u`'s slot list: the slot bits before `x`'s. A
    /// node outside the list can never be in `mat(u)`, so asking for its
    /// counter is a caller's bug.
    #[inline]
    fn slot_of(&self, u: PatternNodeId, x: NodeId) -> usize {
        match self.rank(u, x) {
            Some((word, bit)) if word.slots & bit != 0 => {
                (word.before + (word.slots & (bit - 1)).count_ones()) as usize
            }
            _ => panic!("{x} is not a slot of {u}"),
        }
    }

    /// Whether `x ∈ mat(u)`.
    #[inline]
    pub fn contains(&self, u: PatternNodeId, x: NodeId) -> bool {
        self.rank(u, x)
            .is_some_and(|(word, bit)| word.members & bit != 0)
    }

    /// `mat(u)` per pattern node, each ascending.
    #[inline]
    pub fn sets(&self) -> &[Vec<NodeId>] {
        &self.lists
    }

    /// The slot list per pattern node, each ascending: the nodes that may
    /// be in `mat(u)`.
    #[inline]
    pub fn slots(&self) -> &[Vec<NodeId>] {
        &self.slots
    }

    /// The witness counter of pattern edge `edge` (its index in
    /// [`PatternGraph::edges`]) at data node `x`, a slot of `from(edge)`.
    #[inline]
    pub fn counter(&self, edge: usize, x: NodeId) -> u32 {
        self.counters[edge][self.slot_of(self.edges[edge].from, x)]
    }

    /// Recounts the counter of `edge` at `x`, a slot of `from(edge)`, on
    /// `oracle` against `mat(to(edge))`, one `count_within` call, and
    /// returns it.
    pub fn count<O: DistanceQuery + ?Sized>(
        &mut self,
        graph: &DataGraph,
        oracle: &O,
        edge: usize,
        x: NodeId,
    ) -> u32 {
        let e = self.edges[edge];
        let count = oracle.count_within(graph, x, &self.lists[e.to.index()], e.bound);
        let i = self.slot_of(e.from, x);
        self.counters[edge][i] = count;
        count
    }

    /// One witness more (`gained`) or less for `x` on `edge`: a node joined
    /// `mat(to(edge))` within the bound of `x`, or a distance crossed it.
    #[inline]
    pub fn shift(&mut self, edge: usize, x: NodeId, gained: bool) {
        let i = self.slot_of(self.edges[edge].from, x);
        let counter = &mut self.counters[edge][i];
        *counter = if gained { *counter + 1 } else { *counter - 1 };
    }

    /// Whether some out-edge of `u` has no witness for `x`, a slot of `u`.
    pub fn unwitnessed(&self, u: PatternNodeId, x: NodeId) -> bool {
        let i = self.slot_of(u, x);
        (self.edges.iter().zip(&self.counters)).any(|(e, row)| e.from == u && row[i] == 0)
    }

    /// Adds `x`, a slot of `u` but not a member, to `mat(u)`. Its counters
    /// are the caller's to set.
    pub fn add(&mut self, u: PatternNodeId, x: NodeId) {
        let i = self.slot_of(u, x);
        let was = std::mem::replace(&mut self.member[u.index()][i], true);
        debug_assert!(!was, "{x} already matches {u}");
        self.set_member_bit(u, x, true);
        self.live[u.index()] += 1;
        let list = &mut self.lists[u.index()];
        list.insert(list.partition_point(|&w| w < x), x);
    }

    /// Clears the membership of slot `i` in `mat(u)`, leaving the list to
    /// the next compaction.
    fn take(&mut self, u: PatternNodeId, i: usize) -> bool {
        let was = std::mem::replace(&mut self.member[u.index()][i], false);
        self.live[u.index()] -= usize::from(was);
        self.set_member_bit(u, self.slots[u.index()][i], false);
        was
    }

    /// Removes the member pairs `seeds` and runs the wave from them to the
    /// fixpoint, on the caller thread and without clearing; `removed`
    /// receives every pair taken out, seeds first. Returns the counter
    /// decrements made: one per removed `(u', y)` and parent `x ∈ mat(u)`
    /// within the bound of a pattern edge `(u, u')`, at most.
    pub fn cascade<O: DistanceQuery + Sync + ?Sized>(
        &mut self,
        graph: &DataGraph,
        oracle: &O,
        seeds: Vec<(PatternNodeId, NodeId)>,
        removed: &mut Vec<(PatternNodeId, NodeId)>,
    ) -> usize {
        let (mut work, done) = (Work::default(), removed.len());
        for &(u, x) in &seeds {
            self.take(u, self.slot_of(u, x));
        }
        removed.extend(seeds);
        let exec = Executor::sequential();
        self.waves(graph, oracle, &exec, removed, done, false, &mut work);
        work.stats.counter_decrements
    }

    /// The wave (lines 11-14 of Fig. 4) from the pairs `removed[done..]`,
    /// already taken out: per wave, the decrements the removed nodes imply
    /// are computed in parallel against the wave-start flags (pure reads of
    /// `member` and the oracle), then applied in (edge, slot) order; a
    /// counter that reaches zero appends its node to `removed`, the next
    /// wave. With `clear`, the first emptied `mat(u)` stops the run
    /// (`false`). Otherwise the lists are compacted at the fixpoint.
    #[allow(clippy::too_many_arguments)]
    fn waves<O: DistanceQuery + Sync + ?Sized>(
        &mut self,
        graph: &DataGraph,
        oracle: &O,
        exec: &Executor,
        removed: &mut Vec<(PatternNodeId, NodeId)>,
        mut done: usize,
        clear: bool,
        work: &mut Work,
    ) -> bool {
        let (np, stats) = (self.lists.len(), &mut work.stats);
        while done < removed.len() {
            let edges = &self.edges;
            let mut removed_per_u: Vec<Vec<NodeId>> = vec![Vec::new(); np];
            for &(u, y) in &removed[done..] {
                removed_per_u[u.index()].push(y);
            }
            done = removed.len();
            // Pattern edges whose target lost candidates this wave.
            let active: Vec<usize> = (0..edges.len())
                .filter(|&ei| !removed_per_u[edges[ei].to.index()].is_empty())
                .collect();
            // The wave's reads: a flag test per slot of each active edge's
            // source, and one per (live parent, removed target) pair.
            let mut reads = 0;
            for &ei in &active {
                let (from, to) = (edges[ei].from.index(), edges[ei].to.index());
                work.membership_scans += self.slots[from].len();
                reads += self.slots[from].len() + self.live[from] * removed_per_u[to].len();
            }
            work.waves += 1;
            let n_chunks = chunks_for(exec, reads);
            // Per task: (slot, decrement) for every still-live parent that
            // could reach a node removed this wave.
            let (slots, member) = (&self.slots, &self.member);
            let deltas: Vec<Vec<(usize, u32)>> =
                exec.map_tasks(active.len() * n_chunks, region_hint(reads), |ti| {
                    let e = &edges[active[ti / n_chunks]];
                    let (parents, live) = (&slots[e.from.index()], &member[e.from.index()]);
                    let removed = &removed_per_u[e.to.index()];
                    let (start, end) = chunk_range(parents.len(), ti % n_chunks, n_chunks);
                    let mut out: Vec<(usize, u32)> = Vec::new();
                    for i in (start..end).filter(|&i| live[i]) {
                        let d = oracle.count_within(graph, parents[i], removed, e.bound);
                        if d > 0 {
                            out.push((i, d));
                        }
                    }
                    out
                });
            for (ti, chunk_deltas) in deltas.into_iter().enumerate() {
                let ei = active[ti / n_chunks];
                let parent = self.edges[ei].from;
                let p = parent.index();
                for (i, d) in chunk_deltas {
                    if !self.member[p][i] {
                        // Removed earlier in this merge pass (through
                        // another edge); its counters no longer matter.
                        continue;
                    }
                    stats.counter_decrements += d as usize;
                    let counter = &mut self.counters[ei][i];
                    debug_assert!(*counter >= d, "witness counter underflow");
                    *counter -= d;
                    if *counter == 0 {
                        self.take(parent, i);
                        stats.removed_candidates += 1;
                        removed.push((parent, self.slots[p][i]));
                        if clear && self.live[p] == 0 {
                            stats.failed_early = true;
                            return false;
                        }
                    }
                }
            }
        }
        for (u, list) in self.lists.iter_mut().enumerate() {
            if list.len() != self.live[u] {
                *list = members(&self.slots[u], &self.member[u]);
            }
        }
        true
    }
}

/// The slots whose flag is set, ascending.
fn members(slots: &[NodeId], flags: &[bool]) -> Vec<NodeId> {
    let set = slots.iter().zip(flags).filter(|(_, &flag)| flag);
    set.map(|(&x, _)| x).collect()
}

/// The refinement itself (see the public wrapper above for the obs
/// accounting): candidate selection, the witness-count pass and the waves.
/// With `clear`, the run returns `None` at the first emptied `mat(u)`, and
/// the slots are `mat₀(u)`; without, they are `sat(u)` ([`Refinement`]).
fn refine<O: DistanceQuery + Sync + ?Sized>(
    pattern: &PatternGraph,
    graph: &DataGraph,
    oracle: &O,
    exec: &Executor,
    clear: bool,
    work: &mut Work,
) -> Option<Refinement> {
    let np = pattern.node_count();
    let stats = &mut work.stats;

    // mat(u) as a packed ascending candidate list per pattern node (lines
    // 4-5 of Fig. 4), read from the graph's attribute index on the caller
    // thread: a list is a few binary searches and posting-slice copies, less
    // than a region's thread spawns. A node without an out-edge cannot
    // witness a pattern node with one. The lists are what the count pass
    // reads as targets; the per-slot flags are the membership test, and the
    // only part that shrinks until the fixpoint.
    let edges: Vec<PatternEdge> = pattern.edges().copied().collect();
    let ne = edges.len();
    let mut r = Refinement {
        edges,
        slots: Vec::with_capacity(np),
        member: Vec::with_capacity(np),
        live: Vec::with_capacity(np),
        lists: Vec::with_capacity(np),
        counters: vec![Vec::new(); ne],
        ranks: Vec::new(),
    };
    for u in pattern.node_ids() {
        let sat = graph.nodes_satisfying(pattern.predicate(u));
        let needs_out_edge = pattern.out_degree(u) > 0;
        let witnessing = |v: &NodeId| !needs_out_edge || graph.out_degree(*v) > 0;
        let (slots, member, list) = if clear {
            let list: Vec<NodeId> = sat.into_iter().filter(witnessing).collect();
            (list.clone(), vec![true; list.len()], list)
        } else {
            let member: Vec<bool> = sat.iter().map(witnessing).collect();
            let list = members(&sat, &member);
            (sat, member, list)
        };
        stats.initial_candidates += list.len();
        if clear && list.is_empty() {
            stats.failed_early = true;
            return None;
        }
        r.slots.push(slots);
        r.member.push(member);
        r.live.push(list.len());
        r.lists.push(list);
    }

    // Witness counters per pattern edge: cnt[e][i] = |{y in mat₀(to(e)) :
    // within(x, y, bound(e))}| for each live slot x = slots[from(e)][i] —
    // one row-level oracle query per live x.
    //
    // Edges are counted one at a time, cheapest first: ascending
    // |mat₀(from)|·|mat₀(to)|, ties by edge index (the sort is stable), an
    // order fixed by the pattern and the initial lists alone. After each
    // edge its witness-less sources leave `mat(from)` at once and join the
    // first wave, so a later edge skips them (their counters stay 0 and are
    // never read) and, with `clear`, an emptied `mat(u)` ends the run before
    // the dearer edges are counted. Every edge still counts against the
    // *initial* target list, so each later removal of a witness `y` is
    // exactly one decrement. Each chunk task owns a disjoint range of the
    // source's slots; the chunk results, in slot order, are the counters.
    let mut order: Vec<usize> = (0..ne).collect();
    order.sort_by_key(|&ei| {
        let e = &r.edges[ei];
        r.lists[e.from.index()].len() * r.lists[e.to.index()].len()
    });
    let mut removed: Vec<(PatternNodeId, NodeId)> = Vec::new();
    for &ei in &order {
        let e = r.edges[ei];
        let from = e.from.index();
        let (sources, live) = (&r.slots[from], &r.member[from]);
        let targets = &r.lists[e.to.index()];
        let reads = r.live[from] * targets.len();
        let n_chunks = chunks_for(exec, reads);
        let mut counts: Vec<Vec<u32>> = exec.map_tasks(n_chunks, region_hint(reads), |ci| {
            let (start, end) = chunk_range(sources.len(), ci, n_chunks);
            let count = |i| match live[i] {
                true => oracle.count_within(graph, sources[i], targets, e.bound),
                false => 0,
            };
            (start..end).map(count).collect()
        });
        // Every live source was counted against every target.
        work.count_calls += r.live[from];
        work.counted_pairs += reads;
        let row = match counts.len() {
            1 => counts.pop().expect("one chunk"),
            _ => counts.concat(),
        };
        for (i, &count) in row.iter().enumerate() {
            if count > 0 || !r.take(e.from, i) {
                continue;
            }
            // The slot cannot witness edge e: it leaves mat(from) now.
            stats.removed_candidates += 1;
            removed.push((e.from, r.slots[from][i]));
            if clear && r.live[from] == 0 {
                stats.failed_early = true;
                return None;
            }
        }
        r.counters[ei] = row;
    }

    // Removal propagation in waves (lines 11-14 of Fig. 4).
    r.waves(graph, oracle, exec, &mut removed, 0, clear, work)
        .then_some(r)
}

/// Pair reads worth one work-hint item. A region fans out when its reads,
/// in these units, reach the executor's sequential threshold: at the
/// default 256, 131 072 reads, about 0.15 ms at the matrix's 1–1.7 ns a
/// read on 2 shared vCPUs — four times the ≈ 40 µs a two-thread region
/// costs to open and join there, so that two threads pay ≈ 1.3× (see
/// ARCHITECTURE.md § `gpm-exec`).
const READS_PER_HINT_ITEM: usize = 512;

/// The work hint of a region that makes `reads` pair reads.
fn region_hint(reads: usize) -> usize {
    reads / READS_PER_HINT_ITEM
}

/// Chunks per candidate list for a region of `reads` pair reads: one when
/// the region runs inline, four per worker when it fans out. The merge
/// order is (edge, x ascending) for *any* chunk count, so this choice
/// affects scheduling only, never results.
fn chunks_for(exec: &Executor, reads: usize) -> usize {
    if exec.parallelism().should_parallelise(region_hint(reads)) {
        exec.threads() * 4
    } else {
        1
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

    // The first four pins below were captured from the commit before `Match`
    // moved onto packed candidate lists and `count_within` (the dense
    // `member[to]` scan with one `within` per pair). The relation,
    // `initial_candidates`, `counter_decrements` and `failed_early` must
    // never move. `removed_candidates` may move on a run that fails inside
    // the count pass, and only there: it counts the removals made before
    // the return, and those depend on the order the edges are counted in
    // and on the pass returning at the first emptied `mat(u)`. A run that
    // survives the count pass removes every witness-less source of every
    // edge before its first wave, in any counting order, so the four older
    // pins hold as captured; the fifth fails in the count pass.

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
    fn pinned_outcome_failing_in_the_count_pass() {
        // A `mat(u)` empties while the counters are initialised, before any
        // decrement. Counting every edge in pattern-edge order before the
        // first removal, this run reported 8 removed candidates.
        let (g, p) = generated((40, 90, 4, 1), (4, 1));
        assert_pinned(&g, &p, &golden(&[&[], &[], &[], &[]], (48, 5, 0, true)));
    }

    /// Whether `out` failed inside the count pass: some candidate was
    /// removed, yet no counter was decremented.
    fn failed_in_the_count_pass(out: &MatchOutcome) -> bool {
        out.stats.failed_early
            && out.stats.removed_candidates > 0
            && out.stats.counter_decrements == 0
    }

    #[test]
    fn count_pass_failures_are_the_naive_fixpoints_empty_relation() {
        let mut failures = 0;
        for graph_seed in 1..4 {
            for pattern_seed in 0..40 {
                let (g, p) = generated((40, 90, 4, graph_seed), (4, pattern_seed));
                let matrix = DistanceMatrix::build(&g);
                let out =
                    bounded_simulation_with_oracle_on(&p, &g, &matrix, &Executor::sequential());
                if !failed_in_the_count_pass(&out) {
                    continue;
                }
                failures += 1;
                let naive = bounded_simulation_naive_with_oracle(&p, &g, &matrix);
                assert_eq!(
                    out.relation, naive.relation,
                    "({graph_seed}, {pattern_seed})"
                );
                for threads in [2usize, 8] {
                    let exec =
                        Executor::new(Parallelism::new(threads).with_sequential_threshold(0));
                    let parallel = bounded_simulation_with_oracle_on(&p, &g, &matrix, &exec);
                    assert_eq!(
                        parallel, out,
                        "({graph_seed}, {pattern_seed}) at {threads} threads"
                    );
                }
            }
        }
        assert!(
            failures >= 10,
            "only {failures} runs failed in the count pass"
        );
    }

    /// `mat₀(u)` for every pattern node, selected as `Match` selects it.
    fn initial_lists(g: &DataGraph, p: &PatternGraph) -> Vec<Vec<NodeId>> {
        p.node_ids()
            .map(|u| {
                let mut list = g.nodes_satisfying(p.predicate(u));
                if p.out_degree(u) > 0 {
                    list.retain(|&v| g.out_degree(v) > 0);
                }
                list
            })
            .collect()
    }

    /// The count pass's tallies as `match.counted_pairs` documents them,
    /// from one pair query per (source, target): edges in ascending
    /// `|mat₀(from)|·|mat₀(to)|` (stable), each live source counted against
    /// `mat₀(to)`, the witness-less sources removed after their edge, and,
    /// with `clear`, nothing counted past the first emptied `mat(u)`.
    fn reference_count_work(
        g: &DataGraph,
        p: &PatternGraph,
        m: &DistanceMatrix,
        initial: &[Vec<NodeId>],
        clear: bool,
    ) -> (usize, usize) {
        let (mut calls, mut pairs) = (0, 0);
        if clear && initial.iter().any(Vec::is_empty) {
            return (calls, pairs);
        }
        let mut edges: Vec<_> = p.edges().collect();
        edges.sort_by_key(|e| initial[e.from.index()].len() * initial[e.to.index()].len());
        let mut live = initial.to_vec();
        for e in edges {
            let targets = &initial[e.to.index()];
            let sources = &mut live[e.from.index()];
            calls += sources.len();
            pairs += sources.len() * targets.len();
            sources.retain(|&x| targets.iter().any(|&y| m.within(g, x, y, e.bound)));
            if clear && sources.is_empty() {
                break;
            }
        }
        (calls, pairs)
    }

    /// Runs `Match` on the matrix at 1/2/8 threads, clearing and not (the
    /// match state's build), and holds its work to what `match.counted_pairs`
    /// and `MatchStats::counter_decrements` document: the tallies are equal
    /// at every thread count, the count pass's equal
    /// [`reference_count_work`]'s, its reads stay within
    /// `Σ_e |mat₀(from(e))|·|mat₀(to(e))|` and its calls within
    /// `Σ_e |mat₀(from(e))|` — what a pass over every edge in pattern-edge
    /// order reads and calls — and the decrements within the same
    /// `Σ_e |mat₀(from(e))|·|mat₀(to(e))|`. Returns the pairs read.
    fn check_count_work(g: &DataGraph, p: &PatternGraph) -> usize {
        let matrix = DistanceMatrix::build(g);
        let initial = initial_lists(g, p);
        let (mut calls, mut pairs) = (0, 0);
        for e in p.edges() {
            calls += initial[e.from.index()].len();
            pairs += initial[e.from.index()].len() * initial[e.to.index()].len();
        }
        let mut read = 0;
        for clear in [true, false] {
            let run = |threads: usize| {
                let exec = Executor::new(Parallelism::new(threads).with_sequential_threshold(0));
                let mut work = Work::default();
                let refined = refine(p, g, &matrix, &exec, clear, &mut work);
                (refined, work)
            };
            let (refined, work) = run(1);
            for threads in [2usize, 8] {
                let other = run(threads);
                assert_eq!(
                    other,
                    (refined.clone(), work.clone()),
                    "at {threads} threads"
                );
            }
            let counted = (work.count_calls, work.counted_pairs);
            assert_eq!(
                counted,
                reference_count_work(g, p, &matrix, &initial, clear)
            );
            assert!(work.counted_pairs <= pairs, "{work:?} vs {pairs} pairs");
            assert!(work.count_calls <= calls, "{work:?} vs {calls} calls");
            let decrements = work.stats.counter_decrements;
            assert!(
                decrements <= pairs,
                "{decrements} decrements vs {pairs} pairs"
            );
            read += work.counted_pairs;
        }
        read
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn count_work_stays_within_its_bounds_on_random_instances(
            graph_seed in 0u64..1_000,
            pattern_seed in 0u64..1_000,
            size in 2usize..7,
        ) {
            let (g, p) = generated((60, 150, 5, graph_seed), (size, pattern_seed));
            check_count_work(&g, &p);
        }
    }

    #[test]
    fn count_work_stays_within_its_bounds_on_adversarial_topologies() {
        use gpm_datagen::adversarial::{bowtie, cliques_with_bridges, deep_chain, grid, star};
        let topologies = [
            ("star", star(24)),
            ("deep_chain", deep_chain(32)),
            ("grid", grid(6, 6)),
            ("cliques_with_bridges", cliques_with_bridges(4, 6)),
            ("bowtie", bowtie(8)),
        ];
        for (name, g) in &topologies {
            let mut counted = 0;
            for size in 2..6 {
                for seed in 0..12 {
                    let config = PatternGenConfig::new(size, size + 1, 3).with_seed(seed);
                    let (p, _) = generate_pattern(g, &config);
                    counted += check_count_work(g, &p);
                }
            }
            assert!(counted > 0, "{name}: no pattern reached the count pass");
        }
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
