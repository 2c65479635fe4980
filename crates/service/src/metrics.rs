//! Observability handles for the service layer: the `"service"` scope
//! (batch apply, per-query refresh and delta accounting) and the `"wal"` scope
//! (append/fsync timing and volume).

use gpm_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

pub(crate) struct ServiceMetrics {
    pub scope: Arc<gpm_obs::Scope>,
    pub batches: Arc<Counter>,
    pub updates_applied: Arc<Counter>,
    pub repairs: Arc<Counter>,
    pub recompute_fallbacks: Arc<Counter>,
    pub activations: Arc<Counter>,
    pub verifications: Arc<Counter>,
    pub deltas_emitted: Arc<Counter>,
    pub delta_pairs: Arc<Counter>,
    pub registers: Arc<Counter>,
    pub snapshots: Arc<Counter>,
    /// Whole-batch apply latency — the headline percentile table.
    pub batch_ns: Arc<Histogram>,
    /// Shared AFF1 maintenance (`UpdateBM`) duration per batch.
    pub aff_ns: Arc<Histogram>,
    /// Queries refreshed per batch (0 when `AFF1` is empty).
    pub fanout_size: Arc<Histogram>,
    /// Pairs per emitted delta (added + removed).
    pub delta_size: Arc<Histogram>,
    /// Snapshot fold duration ([`crate::MatchService::snapshot_now`]).
    pub fold_ns: Arc<Histogram>,
    pub register_ns: Arc<Histogram>,
}

pub(crate) fn service() -> &'static ServiceMetrics {
    static M: OnceLock<ServiceMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let scope = gpm_obs::registry().scope("service");
        ServiceMetrics {
            batches: scope.counter("batches"),
            updates_applied: scope.counter("updates_applied"),
            repairs: scope.counter("repairs"),
            recompute_fallbacks: scope.counter("recompute_fallbacks"),
            activations: scope.counter("activations"),
            verifications: scope.counter("verifications"),
            deltas_emitted: scope.counter("deltas_emitted"),
            delta_pairs: scope.counter("delta_pairs"),
            registers: scope.counter("registers"),
            snapshots: scope.counter("snapshots"),
            batch_ns: scope.histogram("batch_ns"),
            aff_ns: scope.histogram("aff_ns"),
            fanout_size: scope.histogram("fanout_size"),
            delta_size: scope.histogram("delta_size"),
            fold_ns: scope.histogram("fold_ns"),
            register_ns: scope.histogram("register_ns"),
            scope,
        }
    })
}

pub(crate) struct WalMetrics {
    pub appends: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub append_ns: Arc<Histogram>,
    pub fsync_ns: Arc<Histogram>,
}

pub(crate) fn wal() -> &'static WalMetrics {
    static M: OnceLock<WalMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let scope = gpm_obs::registry().scope("wal");
        WalMetrics {
            appends: scope.counter("appends"),
            bytes: scope.counter("bytes"),
            append_ns: scope.histogram("append_ns"),
            fsync_ns: scope.histogram("fsync_ns"),
        }
    })
}
