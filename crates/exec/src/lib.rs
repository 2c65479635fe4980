//! # gpm-exec
//!
//! A small parallel runtime for the gpm workspace: scoped fork-join
//! execution over borrowed data, with a [`Parallelism`] policy shared by
//! the hot paths that earn it. Four regions fan out: the block-of-rows
//! matrix build and the 2-hop build's phase A in `gpm-distance`, and the
//! `Match` witness-counter initialisation and removal waves in `gpm-core`.
//! Each was measured ≥ 1.3× faster at two threads; everything
//! else runs on the caller thread. ARCHITECTURE.md § `gpm-exec` lists every
//! site with its measured ratio.
//!
//! ## Design
//!
//! * **Index-addressed regions.** Every parallel step in this workspace is
//!   *n items, each addressed by its index* — an (edge, chunk) pair, a
//!   block of rows, a root group. A region runs its
//!   items to completion before returning; items may borrow from the
//!   caller's stack (no `'static` bound, no `Arc` plumbing). Worker threads
//!   live for the duration of one region — the executor is a cheap, copyable
//!   *policy* handle, not a long-lived thread pool, which keeps the whole
//!   crate free of `unsafe` lifetime laundering.
//! * **One shared cursor.** The region's items sit behind a single mutex-
//!   guarded iterator; every worker, the caller included, pulls the next
//!   item until none is left. That is dynamic load balancing — a worker
//!   held up by an expensive item pulls fewer — and it hands out disjoint
//!   `&mut` items without `unsafe`. Items in this codebase are coarse (a
//!   64-row BFS block, a chunk of candidates), so one lock per item is noise.
//! * **Deterministic merges.** [`Executor::map_tasks`] always delivers
//!   results in task-index order, whatever interleaving the workers produce,
//!   so parallel `Match` is bit-identical to sequential `Match`.
//! * **Sequential fallback.** Regions whose work hint falls below
//!   [`Parallelism::with_sequential_threshold`] (or when `threads <= 1`) run
//!   inline on the caller thread, in index order — the passthrough executes
//!   the same code as the parallel path, so results cannot diverge.
//!
//! The default thread count honours the `GPM_THREADS` environment variable
//! (see [`Parallelism::from_env`]), which is how CI exercises the parallel
//! paths and how `gpm-bench --threads` sweeps 1→8 cores.
//!
//! ## Example
//!
//! ```
//! use gpm_exec::{Executor, Parallelism};
//!
//! // Four workers; regions smaller than 1 item never go parallel.
//! let exec = Executor::new(Parallelism::new(4).with_sequential_threshold(1));
//!
//! // Deterministic map: results are in index order regardless of scheduling.
//! let squares = exec.map_tasks(1_000, 1_000, |i| i * i);
//! assert_eq!(squares[31], 961);
//!
//! // Disjoint `&mut` items over borrowed data, no lock in sight.
//! let words = ["one", "shared", "cursor"];
//! let mut lens = [0usize; 3];
//! exec.for_each_mut(&mut lens, usize::MAX, |i, len| *len = words[i].len());
//! assert_eq!(lens, [3, 6, 6]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod parallelism;

pub use executor::Executor;
pub use parallelism::Parallelism;
