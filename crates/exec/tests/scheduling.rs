//! What the shared cursor schedules, pinned under real rendezvous: items
//! wait for one another over channels and atomics (with a deadline, so a
//! wrong schedule fails instead of hanging), never on a sleep.

use gpm_exec::{Executor, Parallelism};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::current;
use std::time::{Duration, Instant};

/// How long an item waits for another one before it declares the region
/// not concurrent.
const RENDEZVOUS: Duration = Duration::from_secs(20);

fn forced(threads: usize) -> Executor {
    Executor::new(Parallelism::new(threads).with_sequential_threshold(0))
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < RENDEZVOUS, "timed out before {what}");
        std::thread::yield_now();
    }
}

/// The hint, not the item count, decides. Two items under `usize::MAX` fan
/// out on the default threshold (`TwoHopIndex::build_batched`'s root groups
/// depend on it): each waits for the other's message, so an inline run times
/// out. Under a small hint the same executor runs them on the caller, in
/// index order.
#[test]
fn for_each_mut_fans_out_on_the_hint_not_the_item_count() {
    let exec = Executor::new(Parallelism::new(2));
    let (to_0, from_1) = mpsc::channel();
    let (to_1, from_0) = mpsc::channel();
    let mut items = [(to_1, from_1), (to_0, from_0)];
    exec.for_each_mut(&mut items, usize::MAX, |i, (to_peer, from_peer)| {
        to_peer.send(i).unwrap();
        assert_eq!(from_peer.recv_timeout(RENDEZVOUS), Ok(1 - i));
    });

    let caller = current().id();
    let order = Mutex::new(Vec::new());
    exec.for_each_mut(&mut [(); 2], 2, |i, _| {
        assert_eq!(current().id(), caller);
        order.lock().unwrap().push(i);
    });
    assert_eq!(order.into_inner().unwrap(), [0, 1]);
}

/// Dynamic balance: item 0 does not finish until the 63 others have, so on
/// two workers the second one has to pull every one of them — a static
/// split would leave some behind item 0 and time out. Every item still runs
/// exactly once and the results come back in index order.
#[test]
fn one_slow_item_does_not_hold_back_the_rest() {
    let visits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    let others_done = AtomicUsize::new(0);
    let results = forced(2).map_tasks(64, usize::MAX, |i| {
        visits[i].fetch_add(1, SeqCst);
        if i == 0 {
            wait_until("the 63 trivial items ran", || {
                others_done.load(SeqCst) == 63
            });
        } else {
            others_done.fetch_add(1, SeqCst);
        }
        i * 3
    });
    assert!(visits.iter().all(|v| v.load(SeqCst) == 1));
    assert_eq!(results, (0..64).map(|i| i * 3).collect::<Vec<_>>());
}

/// Sets its flag when the thread that armed it exits — that is, after a
/// worker has left the region's loop.
struct OnThreadExit(Arc<AtomicBool>);

impl Drop for OnThreadExit {
    fn drop(&mut self) {
        self.0.store(true, SeqCst);
    }
}

thread_local!(static ON_EXIT: RefCell<Option<OnThreadExit>> = const { RefCell::new(None) });

/// `region(exec, item)` runs `item(i)` for `i` in `0..64` on 4 forced
/// workers. Once the caller holds an item, one item on a spawned worker
/// panics `"first"`; every other item pulled is held until that worker's
/// thread has exited — hence until its payload is on record. Then the
/// caller's item panics `"late"` (the caller must still see `"first"`) and
/// the others return, so their workers come back for more: nothing beyond
/// the (at most) four items already in flight may be handed out.
fn check_panicking_region(region: impl Fn(&Executor, &(dyn Fn(usize) + Sync))) {
    let caller = current().id();
    let caller_holds_an_item = AtomicBool::new(false);
    let elected = AtomicBool::new(false);
    let recorded = Arc::new(AtomicBool::new(false));
    let pulled = AtomicUsize::new(0);
    let item = |_| {
        pulled.fetch_add(1, SeqCst);
        let on_caller = current().id() == caller;
        if on_caller {
            caller_holds_an_item.store(true, SeqCst);
        } else if !elected.swap(true, SeqCst) {
            wait_until("the caller pulled an item", || {
                caller_holds_an_item.load(SeqCst)
            });
            ON_EXIT.set(Some(OnThreadExit(recorded.clone())));
            panic!("first");
        }
        wait_until("the panicking worker exited", || recorded.load(SeqCst));
        if on_caller {
            panic!("late");
        }
    };
    let err = catch_unwind(AssertUnwindSafe(|| region(&forced(4), &item))).unwrap_err();
    assert_eq!(err.downcast_ref::<&str>(), Some(&"first"));
    let pulled = pulled.into_inner();
    assert!(
        (2..=4).contains(&pulled),
        "{pulled} of 64 items were pulled"
    );
}

#[test]
fn a_panic_re_raises_the_first_payload_and_skips_unpulled_items() {
    check_panicking_region(|exec, item| {
        exec.par_chunks_mut(&mut [0u8; 64], 1, |i, _| item(i));
    });
    check_panicking_region(|exec, item| {
        exec.map_tasks(64, usize::MAX, item);
    });
}
