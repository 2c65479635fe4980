//! Differential oracle suite: four independent implementations of
//! bounded-simulation semantics must agree on random instances.
//!
//! 1. `Match` — the paper's cubic algorithm (`gpm-core`);
//! 2. the naive fixpoint — the textbook reading of the definition
//!    (`gpm-core::naive`), asymptotically worse but obviously correct;
//! 3. recompute-after-every-update — a from-scratch `Match` on the graph as
//!    it evolves (the baseline IncMatch is measured against in the paper);
//! 4. `gpm-service` — the continuous engine's maintained result *and* its
//!    emitted delta stream folded back together.
//!
//! Any divergence pinpoints a bug in exactly one layer: 1≠2 breaks the
//! batch algorithm, 3≠4 breaks incremental maintenance or delta emission.

use gpm::matching::naive::bounded_simulation_naive_with_oracle;
use gpm::{
    bounded_simulation_with_oracle, fold_deltas, generate_pattern, random_updates, DistanceMatrix,
    MatchService, PatternGenConfig, UpdateStreamConfig,
};
use proptest::prelude::*;

mod support;
use support::labelled_graph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Match` ≡ naive fixpoint on random graphs and patterns (cyclic
    /// patterns included — both support them).
    #[test]
    fn match_equals_naive_fixpoint(
        seed in 0u64..10_000,
        nodes in 20usize..70,
        psize in 2usize..6,
    ) {
        let g = labelled_graph(nodes, nodes * 3, 4, seed);
        let (p, _) = generate_pattern(&g, &PatternGenConfig::new(psize, psize, 3).with_seed(seed ^ 0xabc));
        let matrix = DistanceMatrix::build(&g);
        let fast = bounded_simulation_with_oracle(&p, &g, &matrix);
        let slow = bounded_simulation_naive_with_oracle(&p, &g, &matrix);
        prop_assert_eq!(fast.relation, slow.relation);
    }

    /// The service's maintained result tracks recompute-after-every-update
    /// (`Match` *and* the naive fixpoint) through a random update stream,
    /// and its delta stream folds back to the final result.
    #[test]
    fn service_tracks_recompute_after_every_update(
        seed in 0u64..5_000,
        updates in 5usize..25,
        psize in 2usize..5,
    ) {
        let g = labelled_graph(40, 110, 4, seed);
        let (p, _) = generate_pattern(&g, &PatternGenConfig::new(psize, psize, 3).with_seed(seed ^ 0x51));
        let np = p.node_count();

        let mut svc = MatchService::new(g.clone());
        let q = svc.register(p.clone());
        let sub = svc.subscribe(q).unwrap();

        let stream = random_updates(&g, &UpdateStreamConfig::mixed(updates).with_seed(seed + 13));
        for u in &stream {
            svc.apply_one(*u);

            // Recompute from scratch on the service's own (updated) graph.
            let rebuilt = DistanceMatrix::build(svc.graph());
            for x in (0..svc.graph().node_count() as u32).map(gpm::NodeId::new) {
                for y in (0..svc.graph().node_count() as u32).map(gpm::NodeId::new) {
                    prop_assert_eq!(
                        svc.oracle().nonempty_distance(svc.graph(), x, y),
                        rebuilt.nonempty_distance(x, y),
                        "maintained oracle diverged at ({:?}, {:?})", x, y
                    );
                }
            }
            let recomputed = bounded_simulation_with_oracle(&p, svc.graph(), &rebuilt);
            let naive = bounded_simulation_naive_with_oracle(&p, svc.graph(), &rebuilt);
            prop_assert_eq!(&recomputed.relation, &naive.relation, "Match ≠ naive mid-stream");
            prop_assert_eq!(
                &svc.result(q).unwrap(),
                &recomputed.relation,
                "service result ≠ recompute after update {}", u
            );
        }

        // The emitted delta stream folds to the final result.
        let folded = fold_deltas(np, sub.drain().iter());
        prop_assert_eq!(folded, svc.result(q).unwrap());
    }

    /// Batched application agrees with unit-at-a-time application: same
    /// final result, same folded delta stream.
    #[test]
    fn service_batches_equal_unit_updates(
        seed in 0u64..5_000,
        updates in 4usize..20,
        batch in 2usize..6,
    ) {
        let g = labelled_graph(35, 90, 4, seed);
        let (p, _) = generate_pattern(&g, &PatternGenConfig::new(3, 3, 3).with_seed(seed ^ 0x77));
        let np = p.node_count();
        let stream = random_updates(&g, &UpdateStreamConfig::mixed(updates).with_seed(seed + 29));

        let mut unit = MatchService::new(g.clone());
        let qu = unit.register(p.clone());
        let unit_sub = unit.subscribe(qu).unwrap();
        for u in &stream {
            unit.apply_one(*u);
        }

        let mut batched = MatchService::new(g);
        let qb = batched.register(p);
        let batched_sub = batched.subscribe(qb).unwrap();
        for chunk in stream.chunks(batch) {
            batched.apply(chunk);
        }

        prop_assert_eq!(unit.result(qu).unwrap(), batched.result(qb).unwrap());
        prop_assert_eq!(unit.graph().edge_count(), batched.graph().edge_count());
        let unit_folded = fold_deltas(np, unit_sub.drain().iter());
        let batched_folded = fold_deltas(np, batched_sub.drain().iter());
        prop_assert_eq!(unit_folded, batched_folded);
    }
}
