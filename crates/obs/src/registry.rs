//! The process-global registry: named scopes holding counters and
//! histograms, a hierarchical text report, and the JSONL export sink.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json::Obj;
use crate::{enabled, Counter};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// A named group of metrics for one subsystem (`"match"`, `"wal"`, …).
///
/// Lookups get-or-create under a mutex and hand back `Arc`s; instrumented
/// code resolves its handles once (typically in a `OnceLock`) and then
/// touches only lock-free atomics on the hot path.
#[derive(Debug)]
pub struct Scope {
    name: String,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Scope {
    fn new(name: &str) -> Self {
        Scope {
            name: name.to_string(),
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// This scope's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Get-or-create a **deterministic** counter: its final value must be
    /// bit-identical regardless of `GPM_THREADS` or scheduling.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, true)
    }

    /// Get-or-create a counter whose value legitimately depends on
    /// scheduling (per-worker busy time, which regions fan out).
    pub fn nondet_counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, false)
    }

    fn counter_with(&self, name: &str, deterministic: bool) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("obs counter map");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new(deterministic))),
        )
    }

    /// Get-or-create a histogram. Names ending in `_ns` are rendered as
    /// durations in reports; anything else as plain magnitudes.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("obs histogram map");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    fn snapshot(&self) -> ScopeSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs counter map")
            .iter()
            .map(|(k, c)| {
                (
                    k.clone(),
                    CounterSnapshot {
                        value: c.get(),
                        deterministic: c.is_deterministic(),
                    },
                )
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs histogram map")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        ScopeSnapshot {
            counters,
            histograms,
        }
    }

    fn reset(&self) {
        for c in self.counters.lock().expect("obs counter map").values() {
            c.reset();
        }
        for h in self.histograms.lock().expect("obs histogram map").values() {
            h.reset();
        }
    }
}

/// The collection of all [`Scope`]s in the process; obtain it via
/// [`registry()`].
#[derive(Debug, Default)]
pub struct Registry {
    scopes: Mutex<BTreeMap<String, Arc<Scope>>>,
}

/// The process-global [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// Get-or-create the scope named `name`.
    pub fn scope(&self, name: &str) -> Arc<Scope> {
        let mut map = self.scopes.lock().expect("obs scope map");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Scope::new(name))),
        )
    }

    /// Zero every counter and histogram in place. Handles cached by
    /// instrumented code stay valid.
    pub fn reset(&self) {
        for scope in self.scopes.lock().expect("obs scope map").values() {
            scope.reset();
        }
    }

    /// Point-in-time copy of every scope.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let scopes = self
            .scopes
            .lock()
            .expect("obs scope map")
            .iter()
            .map(|(k, s)| (k.clone(), s.snapshot()))
            .collect();
        RegistrySnapshot { scopes }
    }

    /// Render the hierarchy as indented text. Counters print their value
    /// (`~` prefix marks scheduling-dependent ones); histograms print
    /// count, min, p50/p99/p999, max and mean, formatted as durations for
    /// `*_ns` metrics.
    pub fn report(&self) -> String {
        self.snapshot().render()
    }

    /// Append the current snapshot as one JSON line to the `GPM_OBS_OUT`
    /// sink. Returns `true` if a line was written (observability on and a
    /// sink configured).
    pub fn export_snapshot(&self) -> bool {
        if !enabled() {
            return false;
        }
        let line = self.snapshot().to_json();
        write_line(&line)
    }
}

/// One counter inside a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub value: u64,
    pub deterministic: bool,
}

/// One scope inside a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ScopeSnapshot {
    pub counters: BTreeMap<String, CounterSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Point-in-time copy of the whole registry.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    pub scopes: BTreeMap<String, ScopeSnapshot>,
}

impl RegistrySnapshot {
    /// Flatten the deterministic counters as `"scope.name" -> value`.
    /// This is the comparison set for thread-count determinism checks;
    /// nondeterministic counters and (timing) histograms are excluded.
    pub fn det_counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (scope, s) in &self.scopes {
            for (name, c) in &s.counters {
                if c.deterministic {
                    out.insert(format!("{scope}.{name}"), c.value);
                }
            }
        }
        out
    }

    /// Serialize as one compact JSON line:
    /// `{"type":"snapshot","scopes":{"<scope>":{"counters":{"<name>":
    /// {"value":N,"det":B}},"histograms":{"<name>":{"count":N,"sum":N,
    /// "min":N,"max":N,"p50":N,"p99":N,"p999":N,"buckets":[[bound,count],…]}}}}}`
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut root = Obj::begin(&mut out);
        root.str("type", "snapshot");
        let mut scopes = root.nested("scopes");
        for (scope_name, scope) in &self.scopes {
            let mut s = scopes.nested(scope_name);
            let mut counters = s.nested("counters");
            for (name, c) in &scope.counters {
                let mut counter = counters.nested(name);
                counter.uint("value", c.value);
                counter.bool("det", c.deterministic);
                counter.end();
            }
            counters.end();
            let mut hists = s.nested("histograms");
            for (name, h) in &scope.histograms {
                let mut hist = hists.nested(name);
                hist.uint("count", h.count);
                hist.uint("sum", h.sum);
                hist.uint("min", h.min);
                hist.uint("max", h.max);
                hist.uint("p50", h.p50());
                hist.uint("p99", h.p99());
                hist.uint("p999", h.p999());
                hist.uint_pairs("buckets", &h.buckets);
                hist.end();
            }
            hists.end();
            s.end();
        }
        scopes.end();
        root.end();
        out
    }

    fn render(&self) -> String {
        let mut out = String::from("== gpm-obs report ==\n");
        if self.scopes.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        for (scope_name, scope) in &self.scopes {
            out.push_str(&format!("[{scope_name}]\n"));
            for (name, c) in &scope.counters {
                let marker = if c.deterministic { "" } else { "~" };
                out.push_str(&format!(
                    "  {:<38} {}\n",
                    format!("{marker}{name}"),
                    c.value
                ));
            }
            for (name, h) in &scope.histograms {
                let as_duration = name.ends_with("_ns");
                let fmt = |v: u64| {
                    if as_duration {
                        fmt_ns(v)
                    } else {
                        v.to_string()
                    }
                };
                out.push_str(&format!(
                    "  {:<38} n={} min={} p50={} p99={} p999={} max={} mean={}\n",
                    name,
                    h.count,
                    fmt(h.min),
                    fmt(h.p50()),
                    fmt(h.p99()),
                    fmt(h.p999()),
                    fmt(h.max),
                    fmt(h.mean() as u64),
                ));
            }
        }
        out
    }
}

/// Human formatting for nanosecond magnitudes.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

// ---------------------------------------------------------------------------
// JSONL sink

enum OutState {
    /// `GPM_OBS_OUT` not yet consulted.
    Unresolved,
    /// No sink (env unset, or the file failed to open).
    Disabled,
    Open(File),
}

static OUT: Mutex<OutState> = Mutex::new(OutState::Unresolved);

/// Point the JSONL sink at `path` (create/append), overriding
/// `GPM_OBS_OUT`. Returns whether the file opened.
pub fn set_out_path(path: &Path) -> bool {
    let mut out = OUT.lock().expect("obs out sink");
    match OpenOptions::new().create(true).append(true).open(path) {
        Ok(f) => {
            *out = OutState::Open(f);
            true
        }
        Err(err) => {
            eprintln!("gpm-obs: cannot open {}: {err}", path.display());
            *out = OutState::Disabled;
            false
        }
    }
}

fn write_line(line: &str) -> bool {
    let mut out = OUT.lock().expect("obs out sink");
    if let OutState::Unresolved = *out {
        *out = match std::env::var_os("GPM_OBS_OUT") {
            None => OutState::Disabled,
            Some(path) => match OpenOptions::new().create(true).append(true).open(&path) {
                Ok(f) => OutState::Open(f),
                Err(err) => {
                    eprintln!("gpm-obs: cannot open {}: {err}", Path::new(&path).display());
                    OutState::Disabled
                }
            },
        };
    }
    match *out {
        // One write_all per line: with O_APPEND, concurrent processes
        // sharing a sink can interleave lines but never split one.
        OutState::Open(ref mut f) => {
            let mut buf = String::with_capacity(line.len() + 1);
            buf.push_str(line);
            buf.push('\n');
            f.write_all(buf.as_bytes()).is_ok()
        }
        _ => false,
    }
}

/// Append one structured event line to the JSONL sink:
/// `{"type":"event","scope":…,"name":…,<nums as integers>,<strs as strings>}`.
/// A no-op unless observability is on and a sink is configured.
pub fn emit_event(scope: &str, name: &str, nums: &[(&str, u64)], strs: &[(&str, &str)]) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(96);
    let mut obj = Obj::begin(&mut line);
    obj.str("type", "event");
    obj.str("scope", scope);
    obj.str("name", name);
    for &(k, v) in nums {
        obj.uint(k, v);
    }
    for &(k, v) in strs {
        obj.str(k, v);
    }
    obj.end();
    write_line(&line);
}
