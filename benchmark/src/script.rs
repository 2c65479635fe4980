//! Deterministic workload scripts: everything the program under test sees
//! (graph, patterns, update batches) is generated here from `--seed`, and so
//! is everything the correctness gate compares against.

use gpm::datagen::Dataset;
use gpm::{
    bounded_simulation_with_oracle_on, random_graph, random_updates, DataGraph, DistanceMatrix,
    EdgeUpdate, Executor, MatchRelation, MatchService, OracleBackend, Parallelism, PatternGraph,
    RandomGraphConfig, UpdateStreamConfig,
};
use gpm_bench::{dag_pattern, patterns_for};

/// The four workloads, in the order the suite runs them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Durable service behind the wire front-end, tiny batches.
    WireStream,
    /// In-process matrix-backed service, alternating delete/insert batches.
    InprocMaintain,
    /// In-process 2-hop-backed service, mixed batches.
    TwohopChurn,
    /// `Match` on a cold matrix, no updates.
    MatchCold,
}

impl Workload {
    /// Every workload, in suite order.
    pub const ALL: [Workload; 4] = [
        Workload::WireStream,
        Workload::InprocMaintain,
        Workload::TwohopChurn,
        Workload::MatchCold,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireStream => "wire-stream",
            Workload::InprocMaintain => "inproc-maintain",
            Workload::TwohopChurn => "twohop-churn",
            Workload::MatchCold => "match-cold",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Final sizes of the update workloads (README.md records why).
#[derive(Copy, Clone, Debug)]
pub struct UpdateShape {
    /// Synthetic YouTube scale (1.0 = the paper's 14 829 nodes).
    pub scale: f64,
    /// Registered `dag_pattern(4,4,3)` queries.
    pub queries: usize,
    /// Seed of those queries: the catalog is a fixture like the dataset
    /// (see [`DATASET_SEED`]), chosen once per workload. `wire-stream`'s
    /// gives its busiest query 100–130 deltas per round on the seeds tried;
    /// the in-process pair's keeps repair a minor share of an op.
    pub query_seed: u64,
    /// Ops per round (`N`).
    pub ops: usize,
    /// Distance backend of the service.
    pub backend: OracleBackend,
    mix: BatchMix,
}

#[derive(Copy, Clone, Debug)]
enum BatchMix {
    /// Mixed batches (half insertions) whose size cycles through `lo..=hi`.
    MixedCycle { lo: usize, hi: usize },
    /// Every op is a pure-deletion batch followed by a pure-insertion batch
    /// of `size` updates each, so `|E|` is stationary, each direction is
    /// timed on its own, and the op distribution has one mode: with one
    /// batch per op the median would sit on the edge between the cheap
    /// (insert) and the dear (delete) half and jump with the seed.
    DeleteThenInsert { size: usize },
}

impl Workload {
    /// The update workload's shape; `None` for [`Workload::MatchCold`].
    pub fn update_shape(self) -> Option<UpdateShape> {
        match self {
            Workload::WireStream => Some(UpdateShape {
                scale: 0.02,
                queries: 8,
                query_seed: 2038,
                ops: 600,
                backend: OracleBackend::Matrix,
                mix: BatchMix::MixedCycle { lo: 2, hi: 2 },
            }),
            Workload::InprocMaintain => Some(UpdateShape {
                scale: 0.07,
                queries: 4,
                query_seed: 2010,
                ops: 300,
                backend: OracleBackend::Matrix,
                mix: BatchMix::DeleteThenInsert { size: 2 },
            }),
            Workload::TwohopChurn => Some(UpdateShape {
                scale: 0.015,
                queries: 4,
                query_seed: 2010,
                ops: 300,
                backend: OracleBackend::TwoHop,
                mix: BatchMix::MixedCycle { lo: 2, hi: 4 },
            }),
            Workload::MatchCold => None,
        }
    }
}

/// `match-cold` sizes: `random_graph(nodes, edges, labels)` and `per_size`
/// patterns each of `P(n, n, 3)` for `n` in [`COLD_PATTERN_SIZES`].
#[derive(Copy, Clone, Debug)]
pub struct ColdShape {
    /// `|V|`.
    pub nodes: usize,
    /// `|E|`.
    pub edges: usize,
    /// Distinct attribute values (Fig. 6(g): a tenth of `|V|`).
    pub labels: usize,
    /// Patterns per size class; `N` is seven times this.
    pub per_size: usize,
}

/// The shape `match-cold` runs (Fig. 6(g) at scale 0.05).
pub const COLD_SHAPE: ColdShape = ColdShape {
    nodes: 1000,
    edges: 2000,
    labels: 100,
    per_size: 240,
};
/// Pattern size classes of `match-cold`: `P(n, n, 3)` for every `n` of
/// Fig. 6(f)–(h)'s range. An odd number of classes, so that the median op
/// lies inside a class and not on the edge between two.
pub const COLD_PATTERN_SIZES: [usize; 7] = [4, 5, 6, 7, 8, 9, 10];
/// How many `match-cold` patterns are also matched by the naive fixpoint.
pub const COLD_NAIVE_SAMPLE: usize = 5;

/// Seed of the data graphs (the synthetic YouTube stand-in, `match-cold`'s
/// random graph): a dataset is a fixture, like the real YouTube graph would
/// be, and does not change with `--seed`. Neither do the standing queries
/// ([`UpdateShape::query_seed`]). `--seed` draws the update script and, on
/// `match-cold`, the patterns.
pub const DATASET_SEED: u64 = 2010;

/// Derives an independent sub-seed (splitmix64 finaliser).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One update workload's inputs plus the gate's reference answers.
#[derive(Clone, Debug)]
pub struct UpdateScript {
    /// The shape this script was generated for.
    pub shape: UpdateShape,
    /// The initial data graph.
    pub graph: DataGraph,
    /// The standing queries, in registration order.
    pub patterns: Vec<PatternGraph>,
    /// The update batches, valid when applied in order. Op `i` is the
    /// `batches_per_op` consecutive batches from `i * batches_per_op`.
    pub batches: Vec<Vec<EdgeUpdate>>,
    /// `MatchService::apply` calls per op: 2 on `inproc-maintain`, else 1.
    pub batches_per_op: usize,
    /// Whether batch `i` is a pure-insertion batch (`None` for mixed ones).
    pub batch_is_insert: Vec<Option<bool>>,
    /// `Match` of every pattern on the initial graph.
    pub initial: Vec<MatchRelation>,
    /// `Match` of every pattern on the graph after the last batch,
    /// recomputed from scratch on a freshly built matrix.
    pub expected: Vec<MatchRelation>,
    /// Index of the query with the most non-empty deltas over the script.
    pub busiest: usize,
    /// How many non-empty deltas that query emits per round.
    pub busiest_deltas: usize,
}

/// The single-worker executor every workload runs on: the host has two
/// shared vCPUs and the load generator needs one of them.
pub fn exec1() -> Executor {
    Executor::new(Parallelism::new(1))
}

fn fresh_match(patterns: &[PatternGraph], graph: &DataGraph) -> Vec<MatchRelation> {
    let exec = exec1();
    let matrix = DistanceMatrix::build_with(graph, &exec);
    patterns
        .iter()
        .map(|p| bounded_simulation_with_oracle_on(p, graph, &matrix, &exec).relation)
        .collect()
}

/// Generates the update script of `workload` for `seed`.
///
/// # Panics
///
/// Panics on [`Workload::MatchCold`], and if a matrix-backed dry replay of
/// the script disagrees with the from-scratch recomputation — the gate's
/// two references must agree before anything is measured against them.
pub fn update_script(workload: Workload, seed: u64) -> UpdateScript {
    let shape = workload
        .update_shape()
        .expect("update_script needs an update workload");
    update_script_with(shape, seed)
}

/// [`update_script`] for an explicit shape (the tests shrink `ops`).
pub fn update_script_with(shape: UpdateShape, seed: u64) -> UpdateScript {
    let graph = Dataset::YouTube.generate(shape.scale, DATASET_SEED);

    let batches_per_op = match shape.mix {
        BatchMix::DeleteThenInsert { .. } => 2,
        BatchMix::MixedCycle { .. } => 1,
    };
    let mut scratch = graph.clone();
    let mut batches = Vec::with_capacity(shape.ops * batches_per_op);
    let mut batch_is_insert = Vec::with_capacity(shape.ops * batches_per_op);
    for i in 0..shape.ops * batches_per_op {
        let (count, insert_fraction, direction) = match shape.mix {
            BatchMix::MixedCycle { lo, hi } => (lo + i % (hi - lo + 1), 0.5, None),
            BatchMix::DeleteThenInsert { size } if i % 2 == 0 => (size, 0.0, Some(false)),
            BatchMix::DeleteThenInsert { size } => (size, 1.0, Some(true)),
        };
        let batch = random_updates(
            &scratch,
            &UpdateStreamConfig {
                count,
                insert_fraction,
                seed: sub_seed(seed, 1000 + i as u64),
            },
        );
        for u in &batch {
            u.apply(&mut scratch);
        }
        batches.push(batch);
        batch_is_insert.push(direction);
    }
    let final_graph = scratch;

    let patterns: Vec<PatternGraph> = (0..shape.queries)
        .map(|i| dag_pattern(&graph, 4, 4, 3, sub_seed(shape.query_seed, 100 + i as u64)))
        .collect();
    let initial = fresh_match(&patterns, &graph);
    let expected = fresh_match(&patterns, &final_graph);

    // Dry pass on the matrix backend: finds the busiest query and is the
    // matrix-backend replay `twohop-churn` is compared against.
    let mut svc =
        MatchService::with_backend(graph.clone(), OracleBackend::Matrix, Parallelism::new(1));
    let ids: Vec<_> = patterns.iter().map(|p| svc.register(p.clone())).collect();
    let mut deltas_per_query = vec![0usize; ids.len()];
    for batch in &batches {
        for d in svc.apply(batch).deltas {
            let slot = ids.iter().position(|&q| q == d.query).expect("known query");
            deltas_per_query[slot] += 1;
        }
    }
    for (i, &q) in ids.iter().enumerate() {
        assert_eq!(
            svc.result(q).as_ref(),
            Some(&expected[i]),
            "script generator: matrix replay of query {i} disagrees with recomputation"
        );
    }
    let (busiest, &busiest_deltas) = deltas_per_query
        .iter()
        .enumerate()
        .max_by_key(|(i, &n)| (n, std::cmp::Reverse(*i)))
        .expect("at least one query");

    UpdateScript {
        shape,
        graph,
        patterns,
        batches,
        batches_per_op,
        batch_is_insert,
        initial,
        expected,
        busiest,
        busiest_deltas,
    }
}

/// `match-cold`'s inputs plus the gate's reference answers.
#[derive(Clone, Debug)]
pub struct MatchScript {
    /// The data graph (Fig. 6(g) shape).
    pub graph: DataGraph,
    /// The patterns, one `Match` call each per round.
    pub patterns: Vec<PatternGraph>,
    /// Indices of the patterns the naive fixpoint also matched.
    pub naive_sample: Vec<usize>,
    /// The naive fixpoint's relation for each sampled pattern.
    pub naive_expected: Vec<MatchRelation>,
}

/// Generates the `match-cold` script for `seed`.
pub fn match_script(seed: u64) -> MatchScript {
    match_script_with(COLD_SHAPE, seed)
}

/// [`match_script`] for an explicit shape (the tests shrink it).
pub fn match_script_with(shape: ColdShape, seed: u64) -> MatchScript {
    let graph = random_graph(
        &RandomGraphConfig::new(shape.nodes, shape.edges, shape.labels).with_seed(DATASET_SEED),
    );
    let patterns: Vec<PatternGraph> = COLD_PATTERN_SIZES
        .iter()
        .flat_map(|&n| patterns_for(&graph, n, n, 3, shape.per_size, sub_seed(seed, n as u64)))
        .collect();
    // One sampled pattern per size class, plus the last pattern.
    let stride = patterns.len() / COLD_NAIVE_SAMPLE;
    let naive_sample: Vec<usize> = (0..COLD_NAIVE_SAMPLE).map(|i| i * stride).collect();
    let matrix = DistanceMatrix::build_with(&graph, &exec1());
    let naive_expected = naive_sample
        .iter()
        .map(|&i| {
            gpm::matching::naive::bounded_simulation_naive_with_oracle(
                &patterns[i],
                &graph,
                &matrix,
            )
            .relation
        })
        .collect();
    MatchScript {
        graph,
        patterns,
        naive_sample,
        naive_expected,
    }
}

fn graph_bytes(graph: &DataGraph, out: &mut Vec<u8>) {
    out.extend_from_slice(&(graph.node_count() as u64).to_le_bytes());
    let mut edges: Vec<(u32, u32)> = graph
        .edges()
        .map(|(a, b)| (a.index() as u32, b.index() as u32))
        .collect();
    edges.sort_unstable();
    for (a, b) in edges {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    for v in graph.nodes() {
        let attrs = serde_json::to_string(graph.attributes(v)).expect("attributes serialize");
        out.extend_from_slice(attrs.as_bytes());
    }
}

impl UpdateScript {
    /// A canonical byte rendering of everything the program sees: equal
    /// bytes mean equal inputs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        graph_bytes(&self.graph, &mut out);
        out.extend_from_slice(
            serde_json::to_string(&self.patterns)
                .expect("patterns serialize")
                .as_bytes(),
        );
        out.extend_from_slice(
            serde_json::to_string(&self.batches)
                .expect("batches serialize")
                .as_bytes(),
        );
        out
    }
}

impl MatchScript {
    /// See [`UpdateScript::to_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        graph_bytes(&self.graph, &mut out);
        out.extend_from_slice(
            serde_json::to_string(&self.patterns)
                .expect("patterns serialize")
                .as_bytes(),
        );
        out
    }
}
