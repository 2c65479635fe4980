//! Candidate selection at `match-cold` scale: `DataGraph::nodes_satisfying`
//! equals the node-by-node filter for every predicate the pattern generator
//! writes, under every order of its atoms.
//!
//! The attribute index plans a conjunction by posting counts: the atom with
//! the fewest passing nodes drives and the others filter in ascending count,
//! and an atom whose passing codes form one range is tested with one
//! compare. Permuting the atoms moves which atom drives and which filter
//! runs first, so every path of the plan is held to the same reference:
//! driving by a posting slice or by a scan, filtering by one range or by
//! the three-range test, and ending early at an empty atom or a missing key.

use gpm::{
    generate_pattern, random_graph, AttrValue, CmpOp, DataGraph, NodeId, PatternGenConfig,
    Predicate, RandomGraphConfig,
};
use std::collections::HashSet;

/// `match-cold`'s data graph: `random_graph(1000, 2000, 100)`, seed 2010
/// (keys `label`, `weight` and `idx` on every node).
fn cold_graph() -> DataGraph {
    random_graph(&RandomGraphConfig::new(1000, 2000, 100).with_seed(2010))
}

/// The node-by-node filter `nodes_satisfying` must agree with.
fn reference(g: &DataGraph, pred: &Predicate) -> Vec<NodeId> {
    g.nodes().filter(|&v| g.satisfies(v, pred)).collect()
}

/// `pred`'s atoms in every order, each as a predicate.
fn permutations(pred: &Predicate) -> Vec<Predicate> {
    fn extend(done: Predicate, left: &[usize], pred: &Predicate, out: &mut Vec<Predicate>) {
        if left.is_empty() {
            out.push(done);
            return;
        }
        for &a in left {
            let atom = &pred.atoms()[a];
            let next = done
                .clone()
                .and(atom.attr.clone(), atom.op, atom.value.clone());
            let rest: Vec<usize> = left.iter().copied().filter(|&b| b != a).collect();
            extend(next, &rest, pred, out);
        }
    }
    let mut out = Vec::new();
    let all: Vec<usize> = (0..pred.len()).collect();
    extend(Predicate::any(), &all, pred, &mut out);
    out
}

/// Asserts that `pred`, in every order of its atoms, selects the nodes the
/// node filter keeps.
fn check_every_order(g: &DataGraph, pred: &Predicate) {
    let expected = reference(g, pred);
    for order in permutations(pred) {
        assert_eq!(g.nodes_satisfying(&order), expected, "`{order}`");
    }
}

/// The predicates of `patterns_for(graph, n, n, 3, per_size, seed)` for
/// every size `n` of `match-cold` (4–10): the same generator calls and
/// seeds as the bench crate's `patterns_for`.
fn generated_predicates(g: &DataGraph, per_size: usize, seed: u64) -> Vec<Predicate> {
    let mut preds = Vec::new();
    for n in 4..=10 {
        for i in 0..per_size {
            let cfg = PatternGenConfig::new(n, n, 3)
                .with_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
            let pattern = generate_pattern(g, &cfg).0;
            preds.extend(pattern.node_ids().map(|u| pattern.predicate(u).clone()));
        }
    }
    preds
}

#[test]
fn generated_predicates_equal_the_node_filter_in_every_atom_order() {
    let g = cold_graph();
    // `match-cold` draws 240 patterns per size; debug builds check a tenth.
    let per_size = if cfg!(debug_assertions) { 24 } else { 240 };
    let mut seen = HashSet::new();
    let (mut checked, mut two_atoms) = (0, 0);
    for seed in [1, 2, 3] {
        for pred in generated_predicates(&g, per_size, seed) {
            if seen.insert(format!("{pred:?}")) {
                check_every_order(&g, &pred);
                checked += 1;
                two_atoms += usize::from(pred.len() == 2);
            }
        }
    }
    // The generator writes one- and two-atom predicates; both must occur.
    assert!(checked > 100 && two_atoms > 10, "{checked} / {two_atoms}");
}

#[test]
fn hand_built_plans_equal_the_node_filter_in_every_atom_order() {
    const P53: i64 = 1 << 53;
    let mut g = cold_graph();
    // A tie band of three entries on `weight`: `Int(2⁵³ + 1)` rounds to
    // 2⁵³, so `Int(2⁵³)`, `Int(2⁵³ + 1)` and `Float(2⁵³)` share an image,
    // with the graph's weights 0..999 below it and 1e300 above. A key
    // `tag` on these nodes only.
    for (i, weight) in [
        AttrValue::Int(P53),
        AttrValue::Int(P53 + 1),
        AttrValue::Float(P53 as f64),
        AttrValue::Float(1e300),
    ]
    .into_iter()
    .enumerate()
    {
        g.add_node([
            ("label", AttrValue::from("a7")),
            ("weight", weight),
            ("idx", AttrValue::Int(1000 + i as i64)),
            ("tag", AttrValue::Bool(i % 2 == 0)),
        ]);
    }
    let preds = [
        // `!=`: two ranges, as a driver and as a filter.
        Predicate::atom("weight", CmpOp::Ne, 500),
        Predicate::atom("weight", CmpOp::Ne, 500).and("label", CmpOp::Eq, "a7"),
        Predicate::atom("label", CmpOp::Ne, "a7").and("weight", CmpOp::Le, 10),
        // The tie band: `!= 2⁵³` passes below it, `Int(2⁵³ + 1)` and above
        // it (three ranges); `< 2⁵³ + 1` passes `Int(2⁵³)` only in it.
        Predicate::atom("weight", CmpOp::Ne, P53),
        Predicate::atom("weight", CmpOp::Ne, P53).and("label", CmpOp::Eq, "a7"),
        Predicate::atom("weight", CmpOp::Ne, P53).and("tag", CmpOp::Eq, true),
        Predicate::atom("weight", CmpOp::Lt, P53 + 1).and("idx", CmpOp::Ge, 990),
        Predicate::atom("weight", CmpOp::Eq, P53 as f64).and("idx", CmpOp::Gt, 900),
        // A key missing only in a later atom: on no node, or on four.
        Predicate::atom("label", CmpOp::Eq, "a7").and("ghost", CmpOp::Ne, 1),
        Predicate::atom("idx", CmpOp::Le, 500).and("ghost", CmpOp::Eq, 1),
        Predicate::atom("label", CmpOp::Eq, "a7").and("tag", CmpOp::Eq, false),
        Predicate::atom("weight", CmpOp::Ge, 0).and("tag", CmpOp::Ne, true),
        // An atom with 0 postings, which drives: no value passes, or no
        // value of the constant's class exists.
        Predicate::atom("label", CmpOp::Eq, "a7").and("weight", CmpOp::Eq, 5000),
        Predicate::atom("idx", CmpOp::Ge, 0).and("label", CmpOp::Eq, "zz"),
        Predicate::atom("label", CmpOp::Eq, "a7").and("weight", CmpOp::Eq, "heavy"),
        Predicate::atom("idx", CmpOp::Lt, 0).and("weight", CmpOp::Ne, f64::NAN),
        // Three atoms, all six orders.
        Predicate::atom("label", CmpOp::Eq, "a7")
            .and("weight", CmpOp::Ge, 300)
            .and("idx", CmpOp::Lt, 800),
        Predicate::atom("weight", CmpOp::Le, 500)
            .and("idx", CmpOp::Ne, 10)
            .and("label", CmpOp::Ne, "a3"),
        Predicate::atom("idx", CmpOp::Ge, 100)
            .and("idx", CmpOp::Le, 120)
            .and("weight", CmpOp::Ne, P53),
        // Ties in the posting count: two atoms that pass the same nodes.
        Predicate::atom("idx", CmpOp::Ge, 400).and("idx", CmpOp::Gt, 399),
        // Five atoms: more than the plan keeps inline.
        Predicate::atom("idx", CmpOp::Ge, 100)
            .and("weight", CmpOp::Le, 900)
            .and("label", CmpOp::Ne, "a1")
            .and("idx", CmpOp::Ne, 150)
            .and("weight", CmpOp::Gt, 50),
    ];
    for pred in &preds {
        check_every_order(&g, pred);
    }
    // The cases select something where they should: the checks above are
    // not all of empty against empty.
    let sat = |p: &Predicate| g.nodes_satisfying(p).len();
    assert_eq!(sat(&preds[3]), g.node_count() - 2);
    assert_eq!(sat(&preds[6]), 11);
    assert!(sat(&preds[16]) > 0 && sat(&preds[17]) > 0 && sat(&preds[20]) > 0);
}

#[test]
fn ascending_and_broken_posting_orders_equal_the_node_filter() {
    const P53: i64 = 1 << 53;
    // `idx` numbers the nodes (node `i` holds `idx = i`), so its postings
    // ascend across codes and a selection on it copies the passing slices
    // in code order. Four more nodes keep that order and put a tie band on
    // it: `Int(2⁵³)`, `Int(2⁵³ + 1)` and `Float(2⁵³)` share an image, and
    // `1e300` lies above it.
    let mut ascending = cold_graph();
    for idx in [
        AttrValue::Int(P53),
        AttrValue::Int(P53 + 1),
        AttrValue::Float(P53 as f64),
        AttrValue::Float(1e300),
    ] {
        ascending.add_node([
            ("label", AttrValue::from("a7")),
            ("weight", AttrValue::Int(7)),
            ("idx", idx),
        ]);
    }
    // One node more whose `idx` is the smallest breaks the order: its code
    // comes first, its id last, so `idx` must take the merge-or-scan rule.
    let mut broken = ascending.clone();
    broken.add_node([
        ("label", AttrValue::from("a7")),
        ("weight", AttrValue::Int(7)),
        ("idx", AttrValue::Int(-1)),
    ]);
    let preds = [
        // One range, alone and in conjunctions.
        Predicate::atom("idx", CmpOp::Le, 500),
        Predicate::atom("idx", CmpOp::Gt, 990),
        Predicate::atom("idx", CmpOp::Lt, 40).and("label", CmpOp::Ne, "a7"),
        Predicate::atom("label", CmpOp::Eq, "a7").and("idx", CmpOp::Ge, 10),
        // `!=`: two ranges, alone, driving and filtering.
        Predicate::atom("idx", CmpOp::Ne, 500),
        Predicate::atom("idx", CmpOp::Ne, 500).and("weight", CmpOp::Le, 900),
        Predicate::atom("idx", CmpOp::Ne, 3).and("idx", CmpOp::Lt, 6),
        Predicate::atom("label", CmpOp::Eq, "a7").and("idx", CmpOp::Ne, 77),
        // The tie band: `!= 2⁵³` passes below it, `Int(2⁵³ + 1)` and above
        // it (three ranges); `< 2⁵³ + 1` passes `Int(2⁵³)` only in it;
        // `== 2⁵³` passes inside it only.
        Predicate::atom("idx", CmpOp::Ne, P53),
        Predicate::atom("idx", CmpOp::Ne, P53).and("weight", CmpOp::Lt, 8),
        Predicate::atom("idx", CmpOp::Lt, P53 + 1).and("idx", CmpOp::Gt, 995),
        Predicate::atom("idx", CmpOp::Eq, P53 as f64),
        Predicate::atom("weight", CmpOp::Eq, 7).and("idx", CmpOp::Ge, P53),
    ];
    for g in [&ascending, &broken] {
        for pred in &preds {
            check_every_order(g, pred);
        }
    }
    // The cases select something where they should.
    let sat = |g: &DataGraph, p: &Predicate| g.nodes_satisfying(p).len();
    assert_eq!(sat(&ascending, &preds[0]), 501);
    assert_eq!(sat(&broken, &preds[0]), 502);
    assert_eq!(sat(&ascending, &preds[4]), ascending.node_count() - 1);
    assert_eq!(sat(&ascending, &preds[8]), ascending.node_count() - 2);
    assert!(sat(&ascending, &preds[11]) >= 2 && sat(&broken, &preds[12]) >= 4);
}
