//! The benchmark's own arithmetic on hand-made samples: nearest-rank
//! percentiles over per-op floors, span self time, the result object.

use gpm_benchmark::report::{metric, MetricSpec, ParsedRun, RunResult, Spec};
use gpm_benchmark::span::{covered_ns, Span, Tracer};
use gpm_benchmark::stats::{FloorScalar, FloorTable};
use std::time::Duration;

fn ms(v: &[u64]) -> Vec<Duration> {
    v.iter().map(|&m| Duration::from_millis(m)).collect()
}

#[test]
fn floor_is_the_per_op_minimum_over_rounds() {
    let mut t = FloorTable::new(4);
    t.record_round(&ms(&[10, 20, 30, 400]));
    t.record_round(&ms(&[15, 12, 30, 40]));
    t.record_round(&ms(&[90, 90, 90, 90]));
    assert_eq!(t.rounds(), 3);
    assert_eq!(t.floors(), ms(&[10, 12, 30, 40]).as_slice());
    assert_eq!(t.floor_sum(), Duration::from_millis(92));
    // N / Σ floor, not N·R / Σ wall.
    assert!((t.ops_per_s() - 4.0 / 0.092).abs() < 1e-9);
    // Σ wall = 917 ms over 3 rounds of a 92 ms floored script.
    assert!((t.interference_ratio() - 917.0 / (3.0 * 92.0)).abs() < 1e-9);
}

#[test]
fn a_stall_that_repeats_survives_the_floor_and_one_that_does_not_is_gone() {
    let mut t = FloorTable::new(3);
    // Op 1 is slow in every round (the program); op 2 is slow once (the
    // neighbour).
    t.record_round(&ms(&[5, 50, 5]));
    t.record_round(&ms(&[5, 51, 70]));
    t.record_round(&ms(&[6, 50, 5]));
    assert_eq!(t.floors(), ms(&[5, 50, 5]).as_slice());
    // The pooled median sees the neighbour, the floored one does not.
    assert_eq!(t.pooled_percentile(1.0), Duration::from_millis(70));
    assert_eq!(t.percentile(1.0), Duration::from_millis(50));
}

#[test]
fn percentiles_are_nearest_rank_over_the_floors() {
    let mut t = FloorTable::new(10);
    t.record_round(&ms(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]));
    // rank = ceil(q·n): p50 of ten is the 5th, p90 the 9th, p91 the 10th.
    assert_eq!(t.percentile(0.5), Duration::from_millis(50));
    assert_eq!(t.percentile(0.9), Duration::from_millis(90));
    assert_eq!(t.percentile(0.91), Duration::from_millis(100));
    assert_eq!(t.percentile(0.0), Duration::from_millis(10));
    // Over a subset: the even-indexed ops are 10, 30, 50, 70, 90.
    assert_eq!(
        t.percentile_where(0.5, |i| i % 2 == 0),
        Duration::from_millis(50)
    );
    assert_eq!(t.percentile_where(0.5, |_| false), Duration::ZERO);
}

#[test]
#[should_panic(expected = "one sample per op")]
fn a_round_that_skipped_an_op_is_refused() {
    FloorTable::new(3).record_round(&ms(&[1, 2]));
}

#[test]
fn scalar_floor() {
    let mut f = FloorScalar::default();
    assert_eq!(f.get(), Duration::ZERO);
    f.record(Duration::from_millis(9));
    f.record(Duration::from_millis(7));
    f.record(Duration::from_millis(8));
    assert_eq!(f.get(), Duration::from_millis(7));
}

#[test]
fn covered_time_counts_overlap_once_and_clips_to_the_parent() {
    // Disjoint children.
    assert_eq!(covered_ns((0, 100), vec![(10, 20), (30, 50)]), 30);
    // Overlapping children: [10,40) ∪ [30,60) = 50.
    assert_eq!(covered_ns((0, 100), vec![(30, 60), (10, 40)]), 50);
    // A child nested in another adds nothing.
    assert_eq!(covered_ns((0, 100), vec![(10, 90), (20, 30)]), 80);
    // Children sticking out of the parent are clipped.
    assert_eq!(covered_ns((50, 100), vec![(0, 60), (90, 200)]), 20);
    assert_eq!(covered_ns((0, 100), vec![]), 0);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_is_duration_minus_what_direct_children_cover() {
    let tracer = Tracer::from_spans(vec![
        span("op", 0, 1000, None),          // 0
        span("a", 100, 400, Some(0)),       // 1
        span("a.inner", 150, 250, Some(1)), // 2: grandchild of 0
        span("b", 300, 700, Some(0)),       // 3: overlaps `a` by 100
        span("c", 900, 1000, Some(0)),      // 4
    ]);
    let selfs = tracer.self_times_ns();
    // op: 1000 − |[100,700) ∪ [900,1000)| = 1000 − 700; the grandchild is
    // `a`'s business, not the root's.
    assert_eq!(selfs[0], 300);
    assert_eq!(selfs[1], 300 - 100);
    assert_eq!(selfs[2], 100);
    assert_eq!(selfs[3], 400);
    assert_eq!(selfs[4], 100);
}

#[test]
fn recorded_spans_nest_under_the_innermost_open_span() {
    let mut tr = Tracer::new();
    let root = tr.enter("op", 7);
    tr.span("layer.one", 7, || std::hint::black_box(1 + 1));
    let mid = tr.enter("layer.two", 7);
    tr.span("layer.three", 7, || ());
    tr.exit(mid);
    tr.exit(root);
    let spans = tr.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!(spans[3].parent, Some(2));
    assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    // Children lie inside their parents, so Σ self = the root's duration.
    let total: u64 = tr.self_times_ns().iter().sum();
    assert_eq!(total, spans[0].duration_ns());
    let json = tr.to_json();
    assert_eq!(json.matches("\"name\"").count(), 4);
    assert!(json.contains("\"parent\":null") && json.contains("\"parent\":2"));
}

#[test]
fn result_object_round_trips_and_keeps_every_digit() {
    let r = RunResult {
        correct: true,
        attempted: 1200,
        failed: 0,
        metrics: vec![
            metric("op_p50_ms", 1.2034567891, "ms"),
            metric("ops_per_s", 2301.0, "1/s"),
        ],
    };
    let line = r.to_json();
    assert!(!line.contains('\n'));
    assert_eq!(
        ParsedRun::parse(&line).unwrap(),
        ParsedRun {
            correct: true,
            attempted: 1200,
            failed: 0,
            metrics: vec![
                ("op_p50_ms".to_string(), 1.2034567891),
                ("ops_per_s".to_string(), 2301.0)
            ],
        }
    );
}

#[test]
fn an_unknown_or_missing_metric_name_is_a_failure() {
    let spec = |name: &str, unit: &str| MetricSpec {
        name: name.to_string(),
        unit: unit.to_string(),
        bound: Some(0.1),
    };
    let declared = [spec("op_p50_ms", "ms"), spec("setup_s", "s")];
    let both = [metric("setup_s", 0.1, "s"), metric("op_p50_ms", 1.0, "ms")];
    assert_eq!(Spec::check(&declared, &both), Ok(()));
    let unknown = Spec::check(&declared[..1], &both).unwrap_err();
    assert!(unknown.contains("setup_s") && unknown.contains("not in"));
    let missing = Spec::check(&declared, &both[..1]).unwrap_err();
    assert!(missing.contains("op_p50_ms") && missing.contains("missing"));
    let unit = Spec::check(
        &declared,
        &[both[0].clone(), metric("op_p50_ms", 1.0, "us")],
    );
    assert!(unit.unwrap_err().contains("unit"));
}

#[test]
fn the_committed_benchmark_json_parses_and_names_the_four_workloads() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Spec::load(&path).unwrap();
    let names: Vec<&str> = gpm_benchmark::script::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(spec.workloads, names);
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}
