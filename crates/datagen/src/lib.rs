//! # gpm-datagen
//!
//! Workload generators for the evaluation of Section 5 of the paper:
//!
//! * [`random_graph`](mod@random_graph) — the synthetic data graphs (the paper used the C++
//!   Boost generator with three parameters: node count, edge count and a set
//!   of node attributes);
//! * [`powerlaw`] — preferential-attachment digraphs used as the backbone of
//!   the simulated real-life datasets;
//! * [`datasets`] — simulated **Matter**, **PBlog** and **YouTube** graphs
//!   with the node/edge counts and attribute schemas reported in the paper
//!   (the actual crawls are not redistributable; the [`datasets`] module
//!   docs explain the substitution);
//! * [`pattern_gen`] — the pattern generator of the appendix (parameters
//!   `|V_p|`, `|E_p|`, bound `k`, data graph `G`, biased towards positive
//!   patterns);
//! * [`updates`] — random edge insertion/deletion streams for the incremental
//!   experiments (Figures 6(i)–(k));
//! * [`adversarial`] — deterministic worst-case topologies (star, deep
//!   chain, grid, cliques-with-bridges, bowtie) and matching update scripts
//!   for stress-testing the pluggable distance backends;
//! * [`source`] — [`DatasetSource`], abstracting "generate a stand-in" vs
//!   "load a real crawl from disk" for the experiment harness;
//! * [`export`] — how any generated graph is written as an on-disk
//!   `<name>.edges`/`<name>.attrs` dataset (the format of
//!   [`gpm_graph::dataset`]) that reloads bit-identically.
//!
//! All generators are deterministic given a seed: the same seed gives the
//! same graph, down to the order of every neighbour list.
//!
//! ## Example
//!
//! ```
//! use gpm_datagen::{random_graph, RandomGraphConfig};
//!
//! let cfg = RandomGraphConfig::new(100, 300, 10).with_seed(42);
//! let g = random_graph(&cfg);
//! assert_eq!((g.node_count(), g.edge_count()), (100, 300));
//! // Same seed, same graph.
//! let h = random_graph(&cfg);
//! assert_eq!(g.edges().collect::<Vec<_>>(), h.edges().collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod datasets;
pub mod export;
pub mod pattern_gen;
pub mod powerlaw;
pub mod random_graph;
pub mod source;
pub mod updates;

pub use adversarial::{
    bowtie, cliques_with_bridges, cut_bridge_updates, cut_chain_updates, deep_chain,
    delete_hub_updates, grid, sever_waist_updates, star,
};
pub use datasets::{Dataset, DatasetSpec};
pub use pattern_gen::{generate_pattern, PatternGenConfig};
pub use powerlaw::{powerlaw_graph, PowerLawConfig};
pub use random_graph::{random_graph, RandomGraphConfig};
pub use source::DatasetSource;
pub use updates::{
    random_updates, timed_update_stream, TimedBatch, TimedStreamConfig, UpdateStreamConfig,
};
