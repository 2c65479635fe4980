//! `exp_oracle_scale` — the memory wall of the all-pairs matrix, and the
//! 2-hop backend walking through it.
//!
//! The paper's `Match`/`IncMatch` assume the `|V|²` distance matrix fits in
//! memory; Section 6 names distance indexing as the way past that. This
//! experiment generates a YouTube-shaped graph scaled to `--scale` × 10⁶
//! nodes (edges kept at the dataset's ≈4·|V| density), runs a full bounded
//! simulation — plus, at small scales, an incremental update batch — on the
//! 2-hop backend, and reports the index footprint next to the `2·|V|²`
//! bytes the matrix would need. The matrix leg only runs when that
//! allocation is small enough to be sensible (≤ 1 GiB) — at the default
//! scale it is printed as unallocatable, which is the point of the
//! experiment. The *random* maintenance leg is capped by node count because
//! the `UpdateM` contract enumerates every distance-changed pair exactly,
//! which is `Θ(|V|²)` per update on a connected graph for any backend; above
//! the cap the leg switches to crafted sink-strand deletions (one ancestor
//! column of `AFF1` each), so the row prices the 2-hop backend's in-place
//! deletion repair instead of skipping silently.
//!
//! A second table prices that repair where it is worst: per adversarial
//! topology of `gpm::datagen::adversarial` at two sizes, the whole teardown
//! script repaired in place against one from-scratch `build_with` of the
//! final graph, with the candidate pairs `|C|` the repair re-decided and the
//! script's net `|AFF1|`. The mid-chain cut is the honest worst case: a
//! quarter of all pairs change, and the repair costs more than the build.
//!
//! A construction sweep precedes the table: the rank-batched bit-parallel
//! build at the configured thread count, against the sequential reference
//! loop at small `|V|` (the 868 s / 10⁵-node record holder — pointless to
//! re-run at full scale). Setting `GPM_ASSERT_BUILD_MS=<n>` turns the batched
//! build time into a CI smoke assertion: the process exits non-zero when the
//! build exceeds `n` milliseconds.
//!
//! The pattern is anchored to a short walk from a random node, with
//! equality predicates on a synthetic `part` attribute (≈600 candidates per
//! pattern node at any scale), so match work stays proportional to the
//! candidate sets, not `|V|²`.

use gpm::datagen::{
    bowtie, cliques_with_bridges, cut_bridge_updates, cut_chain_updates, deep_chain,
    delete_hub_updates, sever_waist_updates, star,
};
use gpm::{
    inc_match, random_updates, CmpOp, DataGraph, Dataset, EdgeUpdate, Executor, MatchState, NodeId,
    OracleBackend, PatternGraph, PatternGraphBuilder, Predicate, TwoHopIndex, UpdateStreamConfig,
};
use gpm_bench::{fmt_ms, time, HarnessArgs, Table};

/// Paper-scale node target; `--scale 1.0` is a million-node run.
const PAPER_NODES: usize = 1_000_000;
/// Matrix legs above this allocation are skipped, not attempted.
const MATRIX_BUDGET_BYTES: usize = 1 << 30;
/// Update-maintenance legs above this node count are skipped. The cap guards
/// `|AFF1|` itself, nothing else: a unit costs what its affected cone
/// reaches on either back-end, but a random update on a connected graph
/// *changes* `Θ(|V|²)` pairs, and the exact-`AFF1` contract enumerates and
/// returns every one of them.
const MAINT_NODE_CAP: usize = 20_000;

fn fmt_bytes(b: usize) -> String {
    const GIB: f64 = (1u64 << 30) as f64;
    const MIB: f64 = (1u64 << 20) as f64;
    let b = b as f64;
    if b >= GIB {
        format!("{:.1} GiB", b / GIB)
    } else {
        format!("{:.1} MiB", b / MIB)
    }
}

/// `VmHWM` (peak resident set) of this process, where the OS exposes it.
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A 3-node chain pattern `v0 -[2]-> v1 -[2]-> v2` anchored to a 2-hop walk
/// from `start`, with `part`-equality predicates — non-empty by construction
/// whenever the walk exists.
fn anchored_pattern(g: &gpm::DataGraph, start: NodeId) -> PatternGraph {
    let mut walk = vec![start];
    for _ in 0..2 {
        let cur = *walk.last().expect("walk is non-empty");
        match g.out_neighbors(cur).first() {
            Some(&next) => walk.push(next),
            None => break,
        }
    }
    while walk.len() < 3 {
        // Dead-end walk (a sink this early is rare): repeat the start node.
        walk.push(walk[0]);
    }
    let part_of = |v: NodeId| {
        g.attributes(v)
            .get("part")
            .cloned()
            .expect("every node has a part")
    };
    let (p, _) = PatternGraphBuilder::new()
        .node("v0", Predicate::atom("part", CmpOp::Eq, part_of(walk[0])))
        .node("v1", Predicate::atom("part", CmpOp::Eq, part_of(walk[1])))
        .node("v2", Predicate::atom("part", CmpOp::Eq, part_of(walk[2])))
        .edge("v0", "v1", 2u32)
        .edge("v1", "v2", 2u32)
        .build()
        .expect("chain pattern is well-formed");
    p
}

/// Deletions with *small* `AFF1` that still reach far upstream: in-edges
/// `(s, t)` of pure sinks `t` (out-degree 0), with `s` itself
/// upstream-reachable. Because `t` has no out-edges, only `(·, t)` pairs can
/// change — the exact `AFF1` is one ancestor column, `O(|V|)` pairs, not the
/// `Θ(|V|²)` of a random batch — and `d(s, t)` provably grows from 1 (the
/// only length-1 route *is* the deleted edge), so every one has a non-trivial
/// rectangle `ancestors(s) × {t}`. A batch of them prices in-place deletion
/// repair at scales where random maintenance is uncountable. At most one
/// edge per sink, so the units stay independent.
fn sink_strand_deletions(g: &gpm::DataGraph, max: usize) -> Vec<EdgeUpdate> {
    let mut out = Vec::new();
    for t in g.nodes() {
        if !g.out_neighbors(t).is_empty() {
            continue;
        }
        if let Some(&s) = g
            .in_neighbors(t)
            .iter()
            .find(|&&s| s != t && !g.in_neighbors(s).is_empty())
        {
            out.push(EdgeUpdate::Delete(s, t));
            if out.len() == max {
                break;
            }
        }
    }
    out
}

fn run_leg(
    name: &str,
    backend: OracleBackend,
    pattern: &PatternGraph,
    graph: &gpm::DataGraph,
    updates: &[gpm::EdgeUpdate],
    exec: &Executor,
    table: &mut Table,
) -> usize {
    let mut graph = graph.clone();
    let ((mut oracle, mut state), build) = time(|| {
        let oracle = backend.build(&graph, exec);
        let state = MatchState::initialise_with(pattern, &graph, oracle.as_ref(), exec);
        (oracle, state)
    });
    let matches = state.relation().pair_count();
    let oracle_bytes = oracle.memory_bytes();
    if updates.is_empty() {
        // The maintenance leg was capped out — say so in the table rather
        // than timing a no-op batch that looks like a measurement.
        let skipped = format!("skipped (Θ(|V|²) AFF1 cap {MAINT_NODE_CAP})");
        table.row(vec![
            name.into(),
            fmt_ms(build),
            matches.to_string(),
            skipped,
            "-".into(),
            "-".into(),
            fmt_bytes(oracle_bytes),
        ]);
        return matches;
    }
    let (outcome, maintain) = time(|| {
        inc_match(
            pattern,
            &mut graph,
            oracle.as_mut(),
            &mut state,
            updates,
            exec,
        )
    });
    let outcome = outcome.expect("the anchored chain pattern is a DAG");
    table.row(vec![
        name.into(),
        fmt_ms(build),
        matches.to_string(),
        fmt_ms(maintain),
        outcome.stats.aff1.to_string(),
        outcome.stats.aff2.to_string(),
        fmt_bytes(oracle_bytes),
    ]);
    state.relation().pair_count()
}

/// The DynamicAttackGraphs-shaped table: per adversarial topology, the whole
/// teardown script repaired in place (one batch) against one from-scratch
/// build of the final graph. `|C|` is read off the deterministic obs counter
/// the repair keeps, so observability is switched on for the table only.
fn topology_table(exec: &Executor) {
    let cases: Vec<(String, DataGraph, Vec<EdgeUpdate>)> = [256usize, 1024]
        .into_iter()
        .flat_map(|n| {
            let clique = n / 16;
            [
                (
                    format!("star({n}), every hub→leaf edge"),
                    star(n),
                    delete_hub_updates(n),
                ),
                (
                    format!("deep_chain({n}), head cut"),
                    deep_chain(n),
                    cut_chain_updates(n, 0),
                ),
                (
                    format!("deep_chain({n}), mid cut"),
                    deep_chain(n),
                    cut_chain_updates(n, n / 2 - 1),
                ),
                (
                    format!("bowtie({n}), every waist→sink edge"),
                    bowtie(n),
                    sever_waist_updates(n),
                ),
                (
                    format!("cliques_with_bridges(16, {clique}), middle bridge"),
                    cliques_with_bridges(16, clique),
                    cut_bridge_updates(16, clique, 7),
                ),
            ]
        })
        .collect();

    let candidates = || {
        let counters = gpm::obs::registry().snapshot().det_counters();
        counters
            .get("oracle.twohop.delete_candidates")
            .copied()
            .unwrap_or(0)
    };
    let was_enabled = gpm::obs::enabled();
    gpm::obs::set_enabled(true);
    let mut table = Table::new(
        "exp_oracle_scale: in-place 2-hop deletion repair vs from-scratch build, per adversarial topology",
        &["topology / script", "|V|", "deletions", "repair (ms)", "build_with (ms)", "|C|", "|AFF1|"],
    );
    for (name, mut graph, script) in cases {
        let mut oracle = OracleBackend::TwoHop.build(&graph, exec);
        for u in &script {
            assert!(u.apply(&mut graph), "{name}: {u} must apply");
        }
        let before = candidates();
        let (aff, repair) = time(|| oracle.apply_batch(&graph, &script, exec));
        let re_decided = candidates() - before;
        let (fresh, build) = time(|| TwoHopIndex::build_with(&graph, exec));
        drop(fresh);
        table.row(vec![
            name,
            graph.node_count().to_string(),
            script.len().to_string(),
            fmt_ms(repair),
            fmt_ms(build),
            re_decided.to_string(),
            aff.len().to_string(),
        ]);
    }
    gpm::obs::set_enabled(was_enabled);
    table.print();
}

fn main() {
    let args = HarnessArgs::from_env();
    let nodes = args.scaled(PAPER_NODES);
    // Same |E|/|V| density as the simulated YouTube crawl.
    let dataset_scale = nodes as f64 / Dataset::YouTube.spec().nodes as f64;
    let (mut graph, gen) = time(|| Dataset::YouTube.generate(dataset_scale, args.seed));

    // ≈600 candidates per `part` value, independent of scale.
    let parts = (graph.node_count() / 600).max(8) as i64;
    for v in graph.nodes().collect::<Vec<_>>() {
        let part = v.0 as i64 % parts;
        let attrs = graph.attributes(v).clone().with("part", part);
        *graph.attributes_mut(v) = attrs;
    }

    let matrix_bytes = graph.node_count() * graph.node_count() * 2;
    println!(
        "oracle scale: |V| = {}, |E| = {}, {} parts, {} threads (generated in {})",
        graph.node_count(),
        graph.edge_count(),
        parts,
        args.parallelism().threads(),
        fmt_ms(gen),
    );
    println!(
        "all-pairs matrix would need {} ({} bytes)\n",
        fmt_bytes(matrix_bytes),
        matrix_bytes
    );

    let start = NodeId::new((args.seed % graph.node_count() as u64) as u32);
    let pattern = anchored_pattern(&graph, start);
    // Insertion batch (the Fig. 6(k) workload): the 2-hop index repairs
    // insertions with resumed pruned BFS passes at any scale. The worst
    // cases of deletion repair are priced by the topology table below, not
    // a million-node smoke run.
    // A handful of units is enough to price the per-update repair, but the
    // leg only runs on graphs small enough for exact AFF1 reporting: the
    // UpdateM contract enumerates every changed pair, and on a connected
    // graph a random update changes Θ(|V|²) of them — for *either*
    // backend, however little else the unit examines. Past the cap this
    // experiment prices what scales (build, match, memory) and leaves
    // per-update repair to smaller scales and the adversarial suite.
    let updates = if graph.node_count() <= MAINT_NODE_CAP {
        random_updates(
            &graph,
            &UpdateStreamConfig::insertions(args.scaled(1_000).min(8)).with_seed(args.seed + 13),
        )
    } else {
        // Above the cap a random batch's exact AFF1 is Θ(|V|²) — but a
        // sink-strand deletion's is one ancestor column, so the maintenance
        // row prices in-place deletion repair instead of skipping silently.
        let dels = sink_strand_deletions(&graph, 8);
        if dels.is_empty() {
            println!(
                "maintenance batch skipped at |V| = {} (> {MAINT_NODE_CAP}): no\n\
                 sink-strand edges in this graph, and exact AFF1 for a random batch is\n\
                 Θ(|V|²) per update; run with --scale ≤ 0.02 to price per-update repair\n",
                graph.node_count()
            );
        } else {
            println!(
                "maintenance batch at |V| = {} (> {MAINT_NODE_CAP}): {} sink-strand\n\
                 deletions, each stranding one leaf (AFF1 = one ancestor column, not the\n\
                 Θ(|V|²) of a random batch) — the maintain column prices their in-place\n\
                 label repair; random-batch repair is still priced at --scale ≤ 0.02\n",
                graph.node_count(),
                dels.len()
            );
        }
        dels
    };

    // Construction sweep: the batched bit-parallel build, with the
    // sequential reference loop alongside at small |V| (bit-identity
    // asserted where both run).
    let exec = Executor::new(args.parallelism());
    let (batched, batched_build) = time(|| TwoHopIndex::build_with(&graph, &exec));
    println!(
        "two-hop batched build: {} ms ({} label entries)",
        fmt_ms(batched_build),
        batched.label_entries()
    );
    if graph.node_count() <= MAINT_NODE_CAP {
        let (sequential, seq_build) = time(|| TwoHopIndex::build_sequential(&graph));
        assert!(
            sequential == batched,
            "batched build must be bit-identical to the sequential reference"
        );
        println!(
            "two-hop sequential build: {} ms ({:.2}x the batched build)",
            fmt_ms(seq_build),
            seq_build.as_secs_f64() / batched_build.as_secs_f64().max(1e-9)
        );
    }
    drop(batched);
    if let Ok(cap) = std::env::var("GPM_ASSERT_BUILD_MS") {
        let cap_ms: u128 = cap
            .parse()
            .expect("GPM_ASSERT_BUILD_MS must be a millisecond count");
        let actual = batched_build.as_millis();
        if actual > cap_ms {
            eprintln!(
                "build-time smoke FAILED: batched build took {actual} ms > \
                 GPM_ASSERT_BUILD_MS={cap_ms}"
            );
            std::process::exit(1);
        }
        println!("build-time smoke passed: {actual} ms <= {cap_ms} ms cap");
    }
    println!();

    let mut table = Table::new(
        "exp_oracle_scale: match + batch maintenance per backend",
        &[
            "backend",
            "build+match (ms)",
            "matches",
            "maintain (ms)",
            "|AFF1|",
            "|AFF2|",
            "oracle memory",
        ],
    );

    let two_hop_matches = run_leg(
        "two-hop",
        OracleBackend::TwoHop,
        &pattern,
        &graph,
        &updates,
        &exec,
        &mut table,
    );

    if matrix_bytes <= MATRIX_BUDGET_BYTES {
        let matrix_matches = run_leg(
            "matrix",
            OracleBackend::Matrix,
            &pattern,
            &graph,
            &updates,
            &exec,
            &mut table,
        );
        assert_eq!(
            two_hop_matches, matrix_matches,
            "backends disagree on the maintained match size"
        );
    } else {
        table.row(vec![
            "matrix".into(),
            "unallocatable".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            fmt_bytes(matrix_bytes),
        ]);
    }
    table.print();
    topology_table(&exec);

    if let Some(peak) = peak_rss_bytes() {
        println!(
            "\npeak RSS {} vs matrix {} — ratio {:.3}",
            fmt_bytes(peak),
            fmt_bytes(matrix_bytes),
            peak as f64 / matrix_bytes as f64
        );
    }
    println!(
        "paper reference: Section 6 points past the |V|^2 matrix via distance\n\
         indexing; the 2-hop labeling answers the same queries in label space."
    );
    args.finish_obs();
}
