//! The end-to-end pass: replay a script round after round against a freshly
//! constructed service or oracle, time every op from outside, and gate every
//! round on correctness.

use crate::script::{exec1, MatchScript, UpdateScript};
use crate::stats::{FloorScalar, FloorTable};
use gpm::net::{NetClient, NetServer, ServerOptions};
use gpm::{
    bounded_simulation_with_oracle_on, fold_deltas, DistanceMatrix, DurableOptions, MatchDelta,
    MatchRelation, MatchService, Parallelism, QueryId,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Counts a round produces that must repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// `Σ |AFF1|` over the round's batches.
    pub aff1_pairs: u64,
    /// Non-empty per-query deltas emitted.
    pub deltas_emitted: u64,
    /// Pairs those deltas carried.
    pub delta_pairs: u64,
    /// Candidate re-verifications (in-process rounds only).
    pub verifications: u64,
    /// Oracle rebuilds (in-process rounds only).
    pub rebuilds: u64,
    /// Pairs in the final relations (every query or pattern).
    pub result_pairs: u64,
}

/// What one round measured.
#[derive(Clone, Debug)]
pub struct RoundSample {
    /// The round's un-scripted set-up: service or oracle construction,
    /// initial snapshot, bind and connect, registration.
    pub setup: Duration,
    /// The part of `setup` spent registering the queries (initial `Match`).
    pub register: Duration,
    /// One wall time per scripted op.
    pub op_times: Vec<Duration>,
    /// One wall time per `apply` call, where an op is more than one.
    pub batch_times: Vec<Duration>,
    /// `wire-stream`: admin send → delta decoded on the subscriber socket,
    /// one per delta of the subscribed query.
    pub delta_times: Vec<Duration>,
    /// Durable rounds: `open_durable_with` of the round's directory.
    pub recover: Option<Duration>,
    /// Exact-repeat counts.
    pub counts: RoundCounts,
    /// The correctness gate's verdict.
    pub check: Result<(), String>,
}

impl RoundSample {
    /// A round that measured nothing yet and passes the gate.
    fn empty() -> Self {
        RoundSample {
            setup: Duration::ZERO,
            register: Duration::ZERO,
            op_times: Vec::new(),
            batch_times: Vec::new(),
            delta_times: Vec::new(),
            recover: None,
            counts: RoundCounts::default(),
            check: Ok(()),
        }
    }
}

/// A workload the end-to-end pass can replay.
pub trait Runner {
    /// Ops per round (`N`).
    fn ops(&self) -> usize;
    /// Runs one full round: set-up, the scripted ops, the correctness gate.
    fn round(&mut self) -> RoundSample;
}

/// Everything the end-to-end pass of one workload produced.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Per-op floors.
    pub ops: FloorTable,
    /// Floor of the per-round set-up.
    pub setup: FloorScalar,
    /// Floor of the registrations' share of the set-up.
    pub register: FloorScalar,
    /// Floor of the per-round recovery (durable rounds).
    pub recover: FloorScalar,
    /// Per-`apply` floors, where an op is more than one (`inproc-maintain`).
    pub batches: Option<FloorTable>,
    /// Per-delta floors (`wire-stream`).
    pub deltas: Option<FloorTable>,
    /// Counts of the first passing round.
    pub counts: RoundCounts,
    /// Ops attempted, over every round.
    pub attempted: u64,
    /// Ops of rounds that failed the gate.
    pub failed: u64,
    /// One line per failed round.
    pub failures: Vec<String>,
}

/// Fewest rounds a pass runs, whatever the time budget: below this a floor
/// is not a floor.
pub const MIN_ROUNDS: usize = 3;

impl Measurement {
    /// An empty measurement for a script of `ops` ops.
    pub fn new(ops: usize) -> Self {
        Measurement {
            ops: FloorTable::new(ops),
            setup: FloorScalar::default(),
            register: FloorScalar::default(),
            recover: FloorScalar::default(),
            batches: None,
            deltas: None,
            counts: RoundCounts::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Folds one round in. A round that fails the gate counts its ops as
    /// failed and contributes no timing; a round whose counts differ from
    /// the first passing round's also fails, because the script is
    /// deterministic.
    pub fn record(&mut self, mut sample: RoundSample) {
        let n = self.ops.floors().len() as u64;
        self.attempted += n;
        if sample.check.is_ok() && self.ops.rounds() > 0 && sample.counts != self.counts {
            sample.check = Err(format!(
                "counts differ from the first round: {:?} vs {:?}",
                sample.counts, self.counts
            ));
        }
        if let Err(why) = sample.check {
            self.failed += n;
            let round = self.attempted / n;
            self.failures.push(format!("round {round}: {why}"));
            return;
        }
        if self.ops.rounds() == 0 {
            self.counts = sample.counts;
        }
        self.ops.record_round(&sample.op_times);
        self.setup.record(sample.setup);
        self.register.record(sample.register);
        if let Some(r) = sample.recover {
            self.recover.record(r);
        }
        for (table, times) in [
            (&mut self.batches, &sample.batch_times),
            (&mut self.deltas, &sample.delta_times),
        ] {
            if !times.is_empty() {
                table
                    .get_or_insert_with(|| FloorTable::new(times.len()))
                    .record_round(times);
            }
        }
    }
}

/// Replays `runner` for `budget` of wall time, and at least [`MIN_ROUNDS`]
/// rounds.
pub fn measure(runner: &mut dyn Runner, budget: Duration) -> Measurement {
    let mut m = Measurement::new(runner.ops());
    let start = Instant::now();
    while m.attempted < (MIN_ROUNDS * runner.ops()) as u64 || start.elapsed() < budget {
        m.record(runner.round());
    }
    m
}

/// Pairs in the relations the program returned (`None` counts nothing).
fn pair_total(relations: &[Option<MatchRelation>]) -> u64 {
    relations
        .iter()
        .flatten()
        .map(|r| r.pair_count() as u64)
        .sum()
}

/// Compares per-query relations against the script's reference.
fn check_relations(
    what: &str,
    got: &[Option<MatchRelation>],
    expected: &[MatchRelation],
) -> Result<(), String> {
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        if g.as_ref() != Some(e) {
            return Err(format!(
                "{what} of query {i} differs from the recomputed match"
            ));
        }
    }
    Ok(())
}

/// `inproc-maintain` and `twohop-churn`: `MatchService::apply` in process.
/// The durable variant is the trace pass that prices the wire: the same
/// script through `create_durable_with`, without `gpm-net`.
pub struct InprocRunner<'a> {
    script: &'a UpdateScript,
    durable_root: Option<PathBuf>,
    round: usize,
}

impl<'a> InprocRunner<'a> {
    /// A runner over `script`, on the script's backend, without a WAL.
    pub fn new(script: &'a UpdateScript) -> Self {
        InprocRunner {
            script,
            durable_root: None,
            round: 0,
        }
    }

    /// The same, but every round's service is durable under `tmp`.
    pub fn durable(script: &'a UpdateScript, tmp: &Path) -> Self {
        InprocRunner {
            durable_root: Some(tmp.to_path_buf()),
            ..InprocRunner::new(script)
        }
    }
}

impl Runner for InprocRunner<'_> {
    fn ops(&self) -> usize {
        self.script.shape.ops
    }

    fn round(&mut self) -> RoundSample {
        let s = self.script;
        self.round += 1;
        let dir = self
            .durable_root
            .as_ref()
            .map(|root| root.join(format!("inproc-{}", self.round)));
        let graph = s.graph.clone();
        let t = Instant::now();
        let mut svc = match &dir {
            None => MatchService::with_backend(graph, s.shape.backend, Parallelism::new(1)),
            Some(dir) => match MatchService::create_durable_with(
                dir,
                graph,
                s.shape.backend,
                Parallelism::new(1),
                DurableOptions::default(),
            ) {
                Ok(svc) => svc,
                Err(e) => {
                    return RoundSample {
                        check: Err(format!("create_durable_with: {e}")),
                        ..RoundSample::empty()
                    }
                }
            },
        };
        let t_reg = Instant::now();
        let ids: Vec<QueryId> = s.patterns.iter().map(|p| svc.register(p.clone())).collect();
        let (setup, register) = (t.elapsed(), t_reg.elapsed());

        let mut streams: Vec<Vec<MatchDelta>> = ids
            .iter()
            .zip(&s.initial)
            .map(|(&q, r)| vec![MatchDelta::snapshot(q, 0, r)])
            .collect();
        let mut counts = RoundCounts::default();
        let mut op_times = Vec::with_capacity(s.shape.ops);
        let mut batch_times = Vec::with_capacity(s.batches.len());
        for op in s.batches.chunks(s.batches_per_op) {
            // An op's time is the sum of its `apply` calls: the harness's
            // own bookkeeping between them is not the program's.
            let mut op_time = Duration::ZERO;
            for batch in op {
                let t = Instant::now();
                let out = svc.apply(black_box(batch));
                let took = t.elapsed();
                batch_times.push(took);
                op_time += took;
                counts.aff1_pairs += out.aff1 as u64;
                for d in out.deltas {
                    counts.deltas_emitted += 1;
                    counts.delta_pairs += d.len() as u64;
                    let slot = ids.iter().position(|&q| q == d.query).expect("known query");
                    streams[slot].push(d);
                }
            }
            op_times.push(op_time);
        }
        if s.batches_per_op == 1 {
            batch_times.clear();
        }

        let live: Vec<Option<MatchRelation>> = ids.iter().map(|&q| svc.result(q)).collect();
        let folded: Vec<Option<MatchRelation>> = streams
            .iter()
            .zip(&s.patterns)
            .map(|(ds, p)| Some(fold_deltas(p.node_count(), ds)))
            .collect();
        counts.verifications = svc.stats().verifications as u64;
        counts.rebuilds = svc.oracle().rebuilds() as u64;
        counts.result_pairs = pair_total(&live);
        // `expected` is both the from-scratch recomputation and (asserted at
        // generation) the matrix-backend replay of the same script.
        let mut check = check_relations("result()", &live, &s.expected)
            .and_then(|()| check_relations("folded BatchOutcome.deltas", &folded, &s.expected));
        drop(svc);
        // Durable rounds end like a crash: reopen the directory (snapshot of
        // WAL record 512 + replay of the rest) and require the recovered
        // service to answer every query like the live one did.
        let mut recover = None;
        if let Some(dir) = dir {
            let t = Instant::now();
            let reopened = MatchService::open_durable_with(
                &dir,
                Parallelism::new(1),
                DurableOptions::default(),
            );
            recover = Some(t.elapsed());
            check = check.and_then(|()| match reopened {
                Ok(mut svc) => {
                    let recovered: Vec<_> = ids.iter().map(|&q| svc.result(q)).collect();
                    check_relations("recovered result()", &recovered, &s.expected)
                }
                Err(e) => Err(format!("open_durable_with: {e}")),
            });
            let _ = std::fs::remove_dir_all(dir);
        }
        RoundSample {
            setup,
            register,
            op_times,
            batch_times,
            recover,
            counts,
            check,
            ..RoundSample::empty()
        }
    }
}

/// `wire-stream`: the service behind `NetServer` on loopback, one admin
/// connection and one subscriber connection. The service is not durable:
/// `sync_data` on this host's shared virtual disk swings by 3× for minutes
/// at a time, which no floor removes; the WAL is priced in the traced pass
/// ([`InprocRunner::durable`]) instead.
pub struct WireRunner<'a> {
    script: &'a UpdateScript,
}

impl<'a> WireRunner<'a> {
    /// A runner over `script`.
    pub fn new(script: &'a UpdateScript) -> Self {
        WireRunner { script }
    }
}

impl Runner for WireRunner<'_> {
    fn ops(&self) -> usize {
        self.script.shape.ops
    }

    fn round(&mut self) -> RoundSample {
        wire_round(self.script).unwrap_or_else(|why| RoundSample {
            check: Err(why),
            ..RoundSample::empty()
        })
    }
}

fn wire_round(s: &UpdateScript) -> Result<RoundSample, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let graph = s.graph.clone();

    let t = Instant::now();
    let svc = MatchService::with_backend(graph, s.shape.backend, Parallelism::new(1));
    let server = NetServer::bind("127.0.0.1:0", svc, ServerOptions::default())
        .map_err(|e| err("bind", &e))?;
    let handle = server.spawn().map_err(|e| err("spawn", &e))?;
    let addr = handle.addr();
    let mut admin = NetClient::connect(addr).map_err(|e| err("admin connect", &e))?;
    let t_reg = Instant::now();
    let mut ids = Vec::with_capacity(s.patterns.len());
    for p in &s.patterns {
        ids.push(admin.register(p).map_err(|e| err("register", &e))?);
    }
    let register = t_reg.elapsed();
    let watched = ids[s.busiest];
    let mut sub = NetClient::connect(addr)
        .and_then(|c| c.subscribe(watched))
        .map_err(|e| err("subscribe", &e))?;
    let setup = t.elapsed();

    // The subscriber stamps every frame as it is decoded; latencies are
    // computed after the join, so the two threads share nothing while timed.
    let subscriber = std::thread::spawn(move || {
        let mut stream: Vec<(MatchDelta, Instant)> = Vec::new();
        loop {
            match sub.next() {
                Ok(Some(d)) => stream.push((d, Instant::now())),
                Ok(None) => return Ok(stream),
                Err(e) => return Err(e.to_string()),
            }
        }
    });

    let mut counts = RoundCounts::default();
    let mut sent_at = Vec::with_capacity(s.batches.len());
    let mut op_times = Vec::with_capacity(s.batches.len());
    // The scripted ops, then the live results. An error here must not skip
    // the teardown below, so it is only propagated after it.
    let live = (|| {
        for batch in &s.batches {
            let t = Instant::now();
            let out = admin
                .apply(black_box(batch))
                .map_err(|e| err("apply", &e))?;
            op_times.push(t.elapsed());
            sent_at.push(t);
            counts.aff1_pairs += out.aff1;
            counts.deltas_emitted += out.deltas.len() as u64;
            counts.delta_pairs += out.deltas.iter().map(|d| d.len() as u64).sum::<u64>();
        }
        ids.iter()
            .map(|&q| admin.result(q).map_err(|e| err("result", &e)))
            .collect::<Result<Vec<_>, String>>()
    })();

    // Deregistering the watched query is the only in-protocol way to end
    // its stream; without it the subscriber never returns, so on that error
    // the thread is left detached instead of joined.
    admin
        .deregister(watched)
        .map_err(|e| err("deregister", &e))?;
    drop(admin);
    handle.shutdown();
    let stream = subscriber
        .join()
        .map_err(|_| "subscriber thread panicked".to_string())??;
    let live = live?;

    // Gate: folded stream ≡ NetClient::result ≡ recompute.
    let mut check = check_relations("NetClient::result", &live, &s.expected);
    let folded = fold_deltas(
        s.patterns[s.busiest].node_count(),
        stream.iter().map(|(d, _)| d),
    );
    if check.is_ok() && folded != s.expected[s.busiest] {
        check = Err("the subscriber's folded stream differs from the recomputed match".into());
    }

    // The first frame is the subscribe-time snapshot; batch `i` is epoch
    // `i + 1` on a fresh service.
    let mut delta_times = Vec::with_capacity(stream.len().saturating_sub(1));
    for (d, at) in stream.iter().skip(1) {
        let sent = sent_at
            .get((d.epoch as usize).wrapping_sub(1))
            .ok_or_else(|| format!("delta for epoch {} the driver never sent", d.epoch))?;
        delta_times.push(at.duration_since(*sent));
    }
    if check.is_ok() && delta_times.len() != s.busiest_deltas {
        check = Err(format!(
            "subscriber saw {} deltas, the dry pass predicted {}",
            delta_times.len(),
            s.busiest_deltas
        ));
    }
    counts.result_pairs = pair_total(&live);
    Ok(RoundSample {
        setup,
        register,
        op_times,
        batch_times: Vec::new(),
        delta_times,
        recover: None,
        counts,
        check,
    })
}

/// `match-cold`: build the matrix, then one `Match` per pattern.
pub struct ColdRunner<'a> {
    script: &'a MatchScript,
}

impl<'a> ColdRunner<'a> {
    /// A runner over `script`.
    pub fn new(script: &'a MatchScript) -> Self {
        ColdRunner { script }
    }
}

impl Runner for ColdRunner<'_> {
    fn ops(&self) -> usize {
        self.script.patterns.len()
    }

    fn round(&mut self) -> RoundSample {
        let s = self.script;
        let exec = exec1();
        let t = Instant::now();
        let matrix = DistanceMatrix::build_with(black_box(&s.graph), &exec);
        let setup = t.elapsed();

        let mut op_times = Vec::with_capacity(s.patterns.len());
        let mut counts = RoundCounts::default();
        let mut check = Ok(());
        for (i, p) in s.patterns.iter().enumerate() {
            let t = Instant::now();
            let out = bounded_simulation_with_oracle_on(black_box(p), &s.graph, &matrix, &exec);
            op_times.push(t.elapsed());
            counts.result_pairs += out.relation.pair_count() as u64;
            if let Some(k) = s.naive_sample.iter().position(|&j| j == i) {
                if out.relation != s.naive_expected[k] {
                    check = Err(format!(
                        "Match of pattern {i} differs from the naive fixpoint"
                    ));
                }
            }
        }
        RoundSample {
            setup,
            op_times,
            counts,
            check,
            ..RoundSample::empty()
        }
    }
}
