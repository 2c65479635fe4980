//! The [`Executor`]: scoped fork-join regions whose workers pull items from
//! one shared cursor.

use crate::parallelism::Parallelism;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// A scoped fork-join executor over a [`Parallelism`] policy.
///
/// The executor is a cheap value type (a policy, not a thread pool): worker
/// threads are `std::thread::scope`d to each parallel region, so items can
/// borrow from the caller's stack and every region joins before returning.
/// See the [crate docs](crate) for the design rationale.
#[derive(Clone, Debug)]
pub struct Executor {
    cfg: Parallelism,
}

impl Executor {
    /// Creates an executor with the given policy.
    pub fn new(cfg: Parallelism) -> Self {
        Executor { cfg }
    }

    /// An executor that runs everything inline on the caller thread.
    pub fn sequential() -> Self {
        Executor::new(Parallelism::sequential())
    }

    /// An executor with the process-default policy
    /// ([`Parallelism::from_env`]).
    pub fn from_env() -> Self {
        Executor::new(Parallelism::from_env())
    }

    /// The policy this executor schedules with.
    pub fn parallelism(&self) -> &Parallelism {
        &self.cfg
    }

    /// Number of worker threads (including the caller), `>= 1`.
    pub fn threads(&self) -> usize {
        self.cfg.threads()
    }

    /// Runs `f(index, item)` for every element of `items`, each handed out
    /// exactly once as a disjoint `&mut`, so no synchronisation is needed
    /// inside `f`. `f` must tolerate any execution order.
    ///
    /// `work_hint` is the region's size for the sequential-fallback decision
    /// — not necessarily `items.len()`: a caller with a handful of heavy
    /// items passes `usize::MAX` to fan out regardless. Below the threshold
    /// (or with one worker, or at most one item) the items run inline on the
    /// caller, in index order.
    ///
    /// A panicking item panics the region: items not yet handed out are
    /// skipped and the first panic payload is re-raised on the caller thread.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], work_hint: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.run(items.iter_mut().enumerate(), work_hint, |(i, item)| {
            f(i, item)
        });
    }

    /// Runs `n` index-addressed tasks and returns their results **in index
    /// order** (the deterministic merge every ported hot path relies on).
    ///
    /// `work_hint` is the region's item count for the sequential-fallback
    /// decision (often, but not necessarily, `n` — the matcher passes its
    /// pair reads, scaled, when `n` is a handful of chunks). Below the
    /// threshold the same tasks run inline in index order, so results are
    /// identical either way.
    pub fn map_tasks<R, F>(&self, n: usize, work_hint: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n <= 1 || !self.cfg.should_parallelise(work_hint) {
            return (0..n).map(f).collect();
        }
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        self.for_each_mut(&mut slots, work_hint, |i, slot| *slot = Some(f(i)));
        slots
            .into_iter()
            .map(|slot| slot.expect("the region joined every task, so every slot is filled"))
            .collect()
    }

    /// Splits `data` into consecutive chunks of (at most) `chunk_len`
    /// elements and runs `f(chunk_index, chunk)` for each, in parallel.
    /// Chunks are disjoint `&mut` slices, so no synchronisation is needed
    /// inside `f`. The work hint is `data.len()`.
    ///
    /// # Panics
    /// Panics if `chunk_len` is zero.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let work_hint = data.len();
        self.run(
            data.chunks_mut(chunk_len).enumerate(),
            work_hint,
            |(i, chunk)| f(i, chunk),
        );
    }

    /// One region: every item of `items` goes through `f` exactly once.
    ///
    /// Inline, in order, when the region is degenerate (`<= 1` item) or the
    /// policy says so. Otherwise the iterator becomes the region's shared
    /// cursor: `min(threads, items)` scoped workers — the caller is one of
    /// them — each pull the next item until none is left, so a worker stuck
    /// on an expensive item simply pulls fewer. The first panic payload sits
    /// beside the cursor, under the same lock: once it is stored nothing
    /// more is handed out. The lock is never held while `f` runs.
    fn run<I, F>(&self, items: I, work_hint: usize, f: F)
    where
        I: ExactSizeIterator + Send,
        F: Fn(I::Item) + Sync,
    {
        let n = items.len();
        if n <= 1 || !self.cfg.should_parallelise(work_hint) {
            items.for_each(f);
            return;
        }
        // Every `exec` counter is scheduling-dependent (which regions fan
        // out and how busy each worker is vary with `GPM_THREADS`), so all
        // register as nondeterministic.
        let obs = gpm_obs::enabled().then(|| gpm_obs::registry().scope("exec"));
        if let Some(scope) = &obs {
            scope.nondet_counter("regions").inc();
            scope.nondet_counter("tasks_spawned").add(n as u64);
        }
        const HELD_BRIEFLY: &str = "the region lock is held for one `next()` or one store";
        let region = Mutex::new((items, None::<Box<dyn Any + Send>>));
        let worker = |me: usize| {
            // Busy time accumulates in a local and flushes once at region
            // exit, so the loop stays free of shared-counter traffic.
            let mut busy_ns = 0u64;
            loop {
                let next = {
                    let mut region = region.lock().expect(HELD_BRIEFLY);
                    let (cursor, first_panic) = &mut *region;
                    if first_panic.is_some() {
                        break;
                    }
                    cursor.next()
                };
                let Some(item) = next else { break };
                let start = obs.as_ref().map(|_| Instant::now());
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                if let Some(start) = start {
                    busy_ns += start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                }
                if let Err(payload) = result {
                    region.lock().expect(HELD_BRIEFLY).1.get_or_insert(payload);
                    break;
                }
            }
            if let (Some(scope), true) = (&obs, busy_ns > 0) {
                scope.nondet_counter("busy_ns").add(busy_ns);
                scope
                    .nondet_counter(&format!("worker{me}.busy_ns"))
                    .add(busy_ns);
            }
        };
        std::thread::scope(|s| {
            for w in 1..self.threads().min(n) {
                let worker = &worker;
                s.spawn(move || worker(w));
            }
            worker(0);
        });
        if let Some(payload) = region.into_inner().expect(HELD_BRIEFLY).1 {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    // The schedule itself — concurrency on the hint, dynamic balance, what a
    // panic stops — is pinned under real rendezvous in `tests/scheduling.rs`.
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::thread::current;

    fn forced(threads: usize) -> Executor {
        // Threshold 0: even tiny regions exercise the threaded machinery.
        Executor::new(Parallelism::new(threads).with_sequential_threshold(0))
    }

    #[test]
    fn zero_and_single_task_regions() {
        for exec in [Executor::sequential(), forced(4)] {
            exec.for_each_mut(&mut [] as &mut [u8], usize::MAX, |_, _| unreachable!());
            assert_eq!(exec.map_tasks(0, usize::MAX, |i| i), Vec::<usize>::new());
            assert_eq!(exec.map_tasks(1, usize::MAX, |i| i + 7), vec![7]);
            exec.par_chunks_mut(&mut [] as &mut [u8], 3, |_, _| unreachable!());
        }
    }

    #[test]
    fn threads_1_is_a_passthrough() {
        let exec = Executor::new(Parallelism::new(1).with_sequential_threshold(0));
        // Inline execution happens in index order on the caller thread.
        let caller = current().id();
        let order = Mutex::new(Vec::new());
        exec.for_each_mut(&mut [(); 5], usize::MAX, |i, _| {
            assert_eq!(current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn map_results_are_in_index_order() {
        let exec = forced(4);
        let expected: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(exec.map_tasks(1000, usize::MAX, |i| i * 3), expected);
    }

    #[test]
    fn for_each_visits_every_index_once() {
        let mut visits = vec![0usize; 777];
        let index_sum = AtomicUsize::new(0);
        forced(3).for_each_mut(&mut visits, usize::MAX, |i, visit| {
            *visit += 1;
            index_sum.fetch_add(i, Relaxed);
        });
        assert!(visits.iter().all(|&v| v == 1));
        assert_eq!(index_sum.into_inner(), 777 * 776 / 2);
    }

    #[test]
    fn chunks_mut_partitions_exactly() {
        let exec = forced(4);
        let mut data = vec![0u32; 103];
        exec.par_chunks_mut(&mut data, 10, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 10 + j) as u32;
            }
        });
        let expected: Vec<u32> = (0..103).collect();
        assert_eq!(data, expected);
    }

    /// The region is scoped: items are `&mut` borrows of the caller's own
    /// data, written without any synchronisation.
    #[test]
    fn borrowed_data_mutation_through_scope() {
        let mut out = vec![0usize; 8];
        forced(2).for_each_mut(&mut out, usize::MAX, |i, slot| *slot = i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    /// A panic in a region (the scope of its worker threads) reaches the
    /// caller with its payload, threaded or inline.
    #[test]
    fn scope_panics_propagate() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            forced(4).for_each_mut(&mut [(); 64], usize::MAX, |i, _| {
                if i == 13 {
                    panic!("boom {i}");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("boom 13"));
        // And inline regions propagate identically.
        let err = catch_unwind(AssertUnwindSafe(|| {
            Executor::sequential().for_each_mut(&mut [(); 3], usize::MAX, |i, _| {
                assert_eq!(i, 0, "items after the panicking one are skipped");
                panic!("inline boom");
            });
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"inline boom"));
    }

    #[test]
    fn work_hint_gates_map_tasks() {
        // With a high threshold and a small hint, map_tasks runs inline even
        // for many tasks — observable through the thread id.
        let exec = Executor::new(Parallelism::new(4).with_sequential_threshold(1_000_000));
        let caller = current().id();
        let ids = exec.map_tasks(32, 10, |_| current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
