//! `gpm-obs` — zero-dependency runtime observability for the gpm workspace.
//!
//! The crate provides four primitives and one process-global anchor:
//!
//! * [`Counter`] — a relaxed `AtomicU64` event counter, tagged at creation
//!   as *deterministic* (value must be bit-identical at any `GPM_THREADS`)
//!   or not (scheduling-dependent, e.g. per-worker busy time).
//! * [`Histogram`] — a log-bucketed latency/size histogram: values `< 16`
//!   are exact, larger values land in one of 16 linear sub-buckets per
//!   power-of-two octave, so every recorded value is reported with at most
//!   `1/16` relative error and percentiles come back as certified upper
//!   bounds (see [`HistogramSnapshot::percentile`]).
//! * [`Span`] — a drop-guard timer that records elapsed nanoseconds into a
//!   histogram when it goes out of scope.
//! * [`registry()`] — the process-global [`Registry`] of named per-subsystem
//!   [`Scope`]s (`"match"`, `"oracle"`, `"exec"`, `"wal"`, …), with a
//!   human-readable [`Registry::report`] and a machine-readable JSONL sink.
//!
//! # The gate
//!
//! Everything is behind one runtime flag: the `GPM_OBS` environment variable
//! (`1`/`true`/`on`/`yes`) or an explicit [`set_enabled`] call. When the
//! flag is off, [`Counter::add`], [`Histogram::record`] and
//! [`Histogram::span`] reduce to a single relaxed atomic load plus a
//! predictable branch — no clock reads, no stores — so instrumented hot
//! paths cost nothing measurable (BENCHMARKS.md batch 7 records the delta).
//!
//! # Sinks
//!
//! [`Registry::report`] renders the hierarchy as indented text.
//! [`Registry::export_snapshot`] and [`emit_event`] append single-line JSON
//! records to the file named by `GPM_OBS_OUT` (or [`set_out_path`]); the
//! writer is hand-rolled so this crate stays dependency-free, and the output
//! is plain JSON that any parser (including the workspace's `serde_json`)
//! round-trips.
//!
//! # Example
//!
//! ```
//! gpm_obs::set_enabled(true);
//! let scope = gpm_obs::registry().scope("demo");
//! let waves = scope.counter("waves");           // deterministic counter
//! let lat = scope.histogram("batch_ns");
//!
//! for _ in 0..3 {
//!     let _span = lat.span();                   // records on drop
//!     waves.inc();
//! }
//!
//! assert_eq!(waves.get(), 3);
//! let snap = lat.snapshot();
//! assert_eq!(snap.count, 3);
//! assert!(snap.percentile(0.50) >= snap.min);
//! let text = gpm_obs::registry().report();
//! assert!(text.contains("demo") && text.contains("waves"));
//! ```

mod hist;
mod json;
mod registry;

pub use hist::{Histogram, HistogramSnapshot, Span, NUM_BUCKETS};
pub use registry::{
    emit_event, fmt_ns, registry, set_out_path, CounterSnapshot, Registry, RegistrySnapshot, Scope,
    ScopeSnapshot,
};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether observability is on. The first call resolves `GPM_OBS` from the
/// environment; afterwards this is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_UNINIT => init_from_env(),
        state => state == STATE_ON,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = matches!(
        std::env::var("GPM_OBS").ok().as_deref(),
        Some("1") | Some("true") | Some("on") | Some("yes")
    );
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Programmatically enable/disable observability (overrides `GPM_OBS`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// A monotone event counter.
///
/// Counters are created through [`Scope::counter`] (deterministic — the
/// final value must not depend on thread count or scheduling) or
/// [`Scope::nondet_counter`] (scheduling-dependent). The flag is carried
/// into snapshots so determinism checks can filter on it.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    deterministic: bool,
}

impl Counter {
    pub(crate) fn new(deterministic: bool) -> Self {
        Counter {
            value: AtomicU64::new(0),
            deterministic,
        }
    }

    /// Add `n` events. A no-op (one load + branch) while disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Whether this counter's value is independent of scheduling.
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}
