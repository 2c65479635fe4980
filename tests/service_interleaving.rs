//! Multi-query interleaving: register / deregister / suspend / resume /
//! update scripts against several concurrent queries, on the back-end and
//! worker count the environment selects (`GPM_ORACLE`, `GPM_THREADS`).
//!
//! Every script runs through the service simulator (`support::sim`): after
//! every step each active query equals the naive fixpoint on a rebuilt
//! matrix, and every subscription's folded delta stream equals the live
//! result it follows. The random scripts also run on both back-ends; the
//! others are written by hand.

use gpm::exec::Parallelism;
use gpm::service::wal::WalOp;
use gpm::{fold_deltas, DurableOptions, MatchService, OracleBackend, QueryId};

mod support;
use support::sim::*;
use support::{forced, TempRoot};

/// Runs a script in process on the environment's back-end and policy,
/// checking the reference after every step.
fn run_checked(script: &Script) -> Observed {
    run_inprocess(
        script,
        OracleBackend::from_env(),
        Parallelism::from_env(),
        true,
    )
}

/// Six 20-roll scripts on both back-ends at two forced workers, then four
/// 18-roll scripts on the environment's; among them the opening batch on
/// an empty catalog, no-op batches, and patterns registered again after a
/// deregistration.
#[test]
fn random_schedules_keep_every_query_consistent() {
    for seed in SEEDS {
        let script = Script::generate(seed, 40, 20);
        for backend in OracleBackend::ALL {
            run_inprocess(&script, backend, forced(2), true);
        }
    }
    for seed in 4..8u64 {
        run_checked(&Script::generate(seed, 40, 18));
    }
}

/// A 48-roll script, where the catalog churns: seed 0x1046 deregisters
/// five queries and registers two of their patterns again.
#[test]
fn long_schedule_with_churn() {
    let script = Script::generate(0x10_46, 40, 48);
    let deregistered = (script.ops().iter())
        .filter(|op| matches!(op, WalOp::Deregister(_)))
        .count();
    assert!(deregistered >= 3, "only {deregistered} deregistrations");
    run_checked(&script);
}

/// Deregistering a query mid-stream does not disturb the survivor, and
/// registering the same pattern again starts a fresh query under a new id.
#[test]
fn deregister_and_reregister_same_pattern() {
    let mut gen = Generator::new(77, 35);
    let (first, keeper) = (gen.pattern(true), gen.pattern(false));
    gen.register(first.clone());
    gen.register(keeper);
    gen.subscribe();
    gen.mixed_batch();
    gen.deregister_at(0);
    gen.mixed_batch();
    gen.register(first);
    gen.subscribe();
    gen.mixed_batch();
    let observed = run_checked(&gen.finish());
    let ids: Vec<QueryId> = observed.results.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [QueryId::from_raw(1), QueryId::from_raw(2)]);
    assert!(observed.results.iter().all(|(_, r)| r.is_some()));
}

/// Suspension survives a crash: killing a durable service with a query
/// suspended and reopening leaves it suspended (no answers, no deltas),
/// and resuming then emits at most one catch-up delta covering everything
/// missed, before and after the crash alike.
#[test]
fn suspended_query_stays_suspended_across_kill_and_reopen() {
    let mut gen = Generator::new(21, 30);
    let (sleeper, awake) = (gen.pattern(true), gen.pattern(false));
    gen.register(sleeper);
    gen.register(awake);
    gen.toggle_at(0); // suspend query 0
    gen.mixed_batch(); // logged before the kill
    gen.mixed_batch(); // applied after the reopen
    gen.toggle_at(0); // resume query 0
    let script = gen.finish();
    let ops = script.ops();
    let (suspended, live) = (QueryId::from_raw(0), QueryId::from_raw(1));

    let root = TempRoot::new("suspended");
    let dir = root.path("svc");
    let mut svc =
        MatchService::create_durable(&dir, script.graph, DurableOptions::default()).unwrap();
    for op in &ops[..4] {
        exec(&mut svc, op);
    }
    drop(svc); // kill

    let mut svc = MatchService::open_durable(&dir, DurableOptions::default()).unwrap();
    assert_reference(&svc, "after the reopen");
    assert!(
        svc.result(suspended).is_none(),
        "a suspended query must stay suspended across recovery"
    );
    assert!(
        svc.result(live).is_some(),
        "the active query answers right after recovery"
    );

    let sub = svc.subscribe(suspended).unwrap();
    let mut stream = sub.drain();
    assert_eq!(stream.len(), 1, "subscription snapshot only");
    exec(&mut svc, &ops[4]);
    assert!(
        sub.drain().is_empty(),
        "no deltas reach a suspended query's subscribers"
    );

    // Resume: one catch-up delta reconciles the entire sleep, crash included.
    exec(&mut svc, &ops[5]);
    let catch_up = sub.drain();
    assert!(
        catch_up.len() <= 1,
        "resume emits at most one catch-up delta, got {}",
        catch_up.len()
    );
    assert_reference(&svc, "after the resume");
    stream.extend(catch_up);
    let woken = svc.result(suspended).unwrap();
    assert_eq!(
        fold_deltas(woken.pattern_node_count(), stream.iter()),
        woken,
        "snapshot plus catch-up fold to the live result"
    );
}

/// Edge-case batches: updates on an empty catalog, and a batch of pure
/// no-ops (a duplicate insert, a delete of a missing edge, an update on an
/// unknown node), which applies nothing and emits nothing.
#[test]
fn degenerate_schedules_are_absorbed() {
    let mut gen = Generator::new(9, 20);
    gen.mixed_batch();
    let p = gen.pattern(true);
    gen.register(p);
    gen.subscribe();
    gen.degenerate_batch();
    let observed = run_checked(&gen.finish());
    let [on_empty, no_ops] = &observed.outcomes[..] else {
        panic!("two batches, got {}", observed.outcomes.len());
    };
    assert!(on_empty.applied > 0 && on_empty.deltas.is_empty());
    assert_eq!(no_ops.applied, 0);
    assert!(no_ops.deltas.is_empty());
    assert_eq!(observed.streams[0].len(), 1, "the snapshot only");
}
