//! Regenerates the checked-in `fixtures/` mini-dataset.
//!
//! The fixture is a ~200-node YouTube-shaped graph (the `Dataset::YouTube`
//! generator at a tiny scale) exported in the on-disk attributed-dataset
//! format (`mini-youtube.edges` + `mini-youtube.attrs`). Generation is
//! deterministic — the vendored RNG produces the same stream on every
//! machine — so re-running this binary must reproduce the committed files
//! byte for byte; CI diffs the two to keep the fixture and the
//! writer/loader honest.
//!
//! ```bash
//! cargo run --release -p gpm-bench --bin make_fixture -- --dir fixtures
//! ```

use gpm::graph::dataset::write_dataset;
use gpm::Dataset;
use std::path::PathBuf;

/// `Dataset::YouTube.generate` at this scale yields exactly 200 nodes
/// (round(14829 × 0.0135)) and 795 edges — small enough to commit, big
/// enough for the smoke experiments to find matches.
const FIXTURE_SCALE: f64 = 0.0135;
const FIXTURE_SEED: u64 = 2010;
const FIXTURE_NAME: &str = "mini-youtube";

fn main() {
    let mut dir = PathBuf::from("fixtures");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => match args.next() {
                Some(value) => dir = PathBuf::from(value),
                None => exit_usage("missing value for --dir"),
            },
            "--help" | "-h" => exit_usage("usage: make_fixture [--dir <path>]"),
            other => exit_usage(&format!("unknown argument `{other}`")),
        }
    }

    let graph = Dataset::YouTube.generate(FIXTURE_SCALE, FIXTURE_SEED);
    match write_dataset(&dir, FIXTURE_NAME, &graph) {
        Ok((edges_path, attrs_path)) => {
            println!(
                "wrote {} ({} nodes) and {} ({} edges)",
                attrs_path.display(),
                graph.node_count(),
                edges_path.display(),
                graph.edge_count()
            );
        }
        Err(e) => {
            eprintln!("failed to export fixture: {e}");
            std::process::exit(1);
        }
    }
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
