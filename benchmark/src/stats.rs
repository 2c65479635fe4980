//! The per-op floor estimator.
//!
//! A workload is a deterministic script of `N` ops replayed for `R` rounds.
//! For op `i` the estimator keeps `floor_i = min over rounds of t(i, round)`
//! and every end-to-end timing statistic is computed over the `N` floors.
//! A stall that belongs to the program (a hub batch, the auto-snapshot at
//! WAL record 512, a rebuild-forcing deletion) hits the same op in every
//! round and survives the minimum; interference from a neighbour on the
//! shared host does not. See README.md for the measurements behind this.

use gpm_bench::percentile_exact;
use std::time::Duration;

/// Rounds of pooled samples a [`FloorTable`] reserves room for.
const POOLED_ROUNDS: usize = 128;

/// Per-op minimum over rounds of one timed series.
#[derive(Clone, Debug)]
pub struct FloorTable {
    floors: Vec<Duration>,
    /// Every sample of every round, for the pooled diagnostics only.
    pooled: Vec<Duration>,
    rounds: usize,
}

impl FloorTable {
    /// An empty table for a script of `ops` ops.
    pub fn new(ops: usize) -> Self {
        FloorTable {
            floors: vec![Duration::MAX; ops],
            // Room for more rounds than a run has, reserved up front: the
            // harness then allocates nothing between rounds, and the
            // program's own allocations find the heap as they left it.
            pooled: Vec::with_capacity(ops * POOLED_ROUNDS),
            rounds: 0,
        }
    }

    /// Folds one round's per-op times in.
    ///
    /// # Panics
    ///
    /// Panics if the round does not have exactly one sample per op: a
    /// replay that skipped an op is a harness bug, not a measurement.
    pub fn record_round(&mut self, times: &[Duration]) {
        assert_eq!(times.len(), self.floors.len(), "one sample per op");
        for (floor, &t) in self.floors.iter_mut().zip(times) {
            *floor = (*floor).min(t);
        }
        self.pooled.extend_from_slice(times);
        self.rounds += 1;
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The per-op floors (all `Duration::MAX` before the first round).
    pub fn floors(&self) -> &[Duration] {
        &self.floors
    }

    /// Nearest-rank percentile over the floors.
    pub fn percentile(&self, q: f64) -> Duration {
        percentile_exact(&self.floors, q)
    }

    /// Nearest-rank percentile over the floors of the ops `keep` selects.
    pub fn percentile_where(&self, q: f64, keep: impl Fn(usize) -> bool) -> Duration {
        let kept: Vec<Duration> = self
            .floors
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, &d)| d)
            .collect();
        percentile_exact(&kept, q)
    }

    /// `Σ floor_i`.
    pub fn floor_sum(&self) -> Duration {
        self.floors.iter().sum()
    }

    /// Throughput of the floored script: `N / Σ floor_i`.
    pub fn ops_per_s(&self) -> f64 {
        self.floors.len() as f64 / self.floor_sum().as_secs_f64()
    }

    /// Nearest-rank percentile over every sample of every round — what PR
    /// 11's rejected design reported. Diagnostic only.
    pub fn pooled_percentile(&self, q: f64) -> Duration {
        percentile_exact(&self.pooled, q)
    }

    /// `Σ wall / (R · Σ floor)`: how much slower the average round ran than
    /// the floored script. 1.0 on a quiet host.
    pub fn interference_ratio(&self) -> f64 {
        let wall: Duration = self.pooled.iter().sum();
        wall.as_secs_f64() / (self.rounds as f64 * self.floor_sum().as_secs_f64())
    }
}

/// Minimum over rounds of one scalar timing (set-up, recovery).
#[derive(Copy, Clone, Debug)]
pub struct FloorScalar(Duration);

impl Default for FloorScalar {
    fn default() -> Self {
        FloorScalar(Duration::MAX)
    }
}

impl FloorScalar {
    /// Folds one round's value in.
    pub fn record(&mut self, d: Duration) {
        self.0 = self.0.min(d);
    }

    /// The floor; zero if nothing was recorded.
    pub fn get(&self) -> Duration {
        if self.0 == Duration::MAX {
            Duration::ZERO
        } else {
            self.0
        }
    }
}

/// Milliseconds as a float, with every digit the clock gave.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
