//! The [`Parallelism`] policy: how many threads, when to bother, and whether
//! reduction merges must be deterministic.

use std::sync::OnceLock;

/// Default number of work items below which a region runs inline: with
/// fewer, spawning the region's scoped worker threads costs more than the
/// work itself. A combinator passes its own item count as the work hint
/// (`map_tasks` takes one from the caller), so what 256 items are depends on
/// the call site — data nodes, slice elements, queries.
pub const DEFAULT_SEQUENTIAL_THRESHOLD: usize = 256;

/// Execution policy for parallel regions.
///
/// A `Parallelism` value is plain data — cloning it is free and it can be
/// threaded through APIs without lifetime concerns. Construct one with
/// [`Parallelism::new`] (explicit thread count), [`Parallelism::sequential`]
/// (single-threaded), or [`Parallelism::from_env`] (available cores,
/// overridable with `GPM_THREADS`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
    sequential_threshold: usize,
    deterministic: bool,
}

impl Parallelism {
    /// A policy with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            sequential_threshold: DEFAULT_SEQUENTIAL_THRESHOLD,
            deterministic: true,
        }
    }

    /// The single-threaded policy: every region runs inline on the caller.
    pub fn sequential() -> Self {
        Parallelism::new(1)
    }

    /// A policy using every core the OS reports as available.
    pub fn available() -> Self {
        Parallelism::new(available_threads())
    }

    /// The process-wide default policy: `GPM_THREADS` if set to a positive
    /// integer (`0` and unparsable values mean "auto"), otherwise all
    /// available cores.
    ///
    /// The environment is read once per process and cached, so hot paths can
    /// call this freely.
    pub fn from_env() -> Self {
        static ENV_THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *ENV_THREADS.get_or_init(|| {
            match std::env::var("GPM_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
            {
                Some(n) if n > 0 => n,
                _ => available_threads(),
            }
        });
        Parallelism::new(threads)
    }

    /// Replaces the thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the sequential-fallback threshold. Regions whose work hint
    /// is below this run inline; `0` forces every region parallel (useful in
    /// tests that must exercise the threaded machinery on tiny inputs).
    pub fn with_sequential_threshold(mut self, threshold: usize) -> Self {
        self.sequential_threshold = threshold;
        self
    }

    /// Sets deterministic-merge mode (default `true`). Only
    /// [`crate::Executor::par_reduce`] observes this: mapping combinators
    /// merge in task order unconditionally.
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.deterministic = deterministic;
        self
    }

    /// Number of worker threads (including the caller thread), `>= 1`.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Work-item count below which a region runs inline.
    #[inline]
    pub fn sequential_threshold(&self) -> usize {
        self.sequential_threshold
    }

    /// Whether reductions must fold partial results in task order.
    #[inline]
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// Whether a region with `work_hint` items should use worker threads.
    #[inline]
    pub fn should_parallelise(&self, work_hint: usize) -> bool {
        self.threads > 1 && work_hint >= self.sequential_threshold
    }
}

impl Default for Parallelism {
    /// Same as [`Parallelism::from_env`].
    fn default() -> Self {
        Parallelism::from_env()
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(8).threads(), 8);
        assert_eq!(Parallelism::sequential().threads(), 1);
        assert_eq!(Parallelism::new(4).with_threads(0).threads(), 1);
    }

    #[test]
    fn builders_and_accessors() {
        let p = Parallelism::new(4)
            .with_sequential_threshold(10)
            .with_deterministic(false);
        assert_eq!(p.threads(), 4);
        assert_eq!(p.sequential_threshold(), 10);
        assert!(!p.deterministic());
        assert_eq!(
            Parallelism::new(2).sequential_threshold(),
            DEFAULT_SEQUENTIAL_THRESHOLD
        );
    }

    #[test]
    fn should_parallelise_honours_threshold_and_threads() {
        let p = Parallelism::new(4).with_sequential_threshold(100);
        assert!(p.should_parallelise(100));
        assert!(!p.should_parallelise(99));
        assert!(!Parallelism::sequential().should_parallelise(1_000_000));
        // Threshold 0 forces parallel execution even on empty regions.
        assert!(Parallelism::new(2)
            .with_sequential_threshold(0)
            .should_parallelise(0));
    }

    #[test]
    fn env_and_available_produce_positive_counts() {
        assert!(Parallelism::available().threads() >= 1);
        assert!(Parallelism::from_env().threads() >= 1);
        assert_eq!(Parallelism::from_env(), Parallelism::default());
    }
}
