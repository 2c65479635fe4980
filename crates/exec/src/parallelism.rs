//! The [`Parallelism`] policy: how many threads, and when to bother.

use std::sync::OnceLock;

/// Default number of work items below which a region runs inline: with
/// fewer, spawning the region's scoped worker threads costs more than the
/// work itself. A combinator passes its own item count as the work hint
/// (`map_tasks` and `for_each_mut` take one from the caller), so what 256 items are depends on
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
}

impl Parallelism {
    /// A policy with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            sequential_threshold: DEFAULT_SEQUENTIAL_THRESHOLD,
        }
    }

    /// The single-threaded policy: every region runs inline on the caller.
    pub fn sequential() -> Self {
        Parallelism::new(1)
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
                _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
            }
        });
        Parallelism::new(threads)
    }

    /// Replaces the sequential-fallback threshold. Regions whose work hint
    /// is below this run inline; `0` forces every region parallel (useful in
    /// tests that must exercise the threaded machinery on tiny inputs).
    pub fn with_sequential_threshold(mut self, threshold: usize) -> Self {
        self.sequential_threshold = threshold;
        self
    }

    /// Number of worker threads (including the caller thread), `>= 1`.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a region with `work_hint` items should use worker threads.
    #[inline]
    pub fn should_parallelise(&self, work_hint: usize) -> bool {
        self.threads > 1 && work_hint >= self.sequential_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(8).threads(), 8);
        assert_eq!(Parallelism::sequential().threads(), 1);
    }

    #[test]
    fn builders_and_accessors() {
        let p = Parallelism::new(4).with_sequential_threshold(10);
        assert_eq!(p.threads(), 4);
        assert_eq!(p.sequential_threshold, 10);
        assert_eq!(
            Parallelism::new(2).sequential_threshold,
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
        assert!(Parallelism::from_env().threads() >= 1);
        // Read once per process: every call sees the same policy.
        assert_eq!(Parallelism::from_env(), Parallelism::from_env());
    }
}
