//! T1 — the dataset-size table of Section 5.
//!
//! By default: the paper-reported sizes of the three real-life graphs next
//! to the sizes of the simulated stand-ins generated at the requested
//! `--scale`. With `--dataset-dir <path>`: the sizes of the on-disk
//! datasets actually loaded (paper columns show `-` for datasets the paper
//! does not report).

use gpm::DatasetSource;
use gpm_bench::{load_source_or_exit, HarnessArgs, Table};

fn main() {
    let args = HarnessArgs::from_env();
    let sources = args.dataset_sources_or_exit();
    let mut table = Table::new(
        format!("Table 1: real-life datasets (scale {})", args.scale),
        &[
            "dataset",
            "source",
            "|V| (paper)",
            "|E| (paper)",
            "|V| (loaded)",
            "|E| (loaded)",
        ],
    );
    for source in &sources {
        let (paper_nodes, paper_edges) = match source {
            DatasetSource::Synthetic(d) => {
                let spec = d.spec();
                (spec.nodes.to_string(), spec.edges.to_string())
            }
            DatasetSource::OnDisk { .. } => ("-".to_string(), "-".to_string()),
        };
        let g = load_source_or_exit(source, &args);
        table.row(vec![
            source.name(),
            if source.is_synthetic() {
                "synthetic".to_string()
            } else {
                "on-disk".to_string()
            },
            paper_nodes,
            paper_edges,
            g.node_count().to_string(),
            g.edge_count().to_string(),
        ]);
    }
    table.print();
    args.finish_obs();
}
