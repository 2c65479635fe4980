//! The result object the builder's contract asks for, and the check of its
//! metric names against `BENCHMARK.json`.

use serde::Value;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of one workload prints as its last line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every round passed the correctness gate.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or whose round failed the gate.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object of the contract.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: a metric that is NaN was not measured.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result object read back from a child run's last line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedRun {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// `(name, value)` of every metric, in print order.
    pub metrics: Vec<(String, f64)>,
}

impl ParsedRun {
    /// Inverse of [`RunResult::to_json`], as far as the suite needs it.
    pub fn parse(line: &str) -> Result<ParsedRun, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let field = |name: &str| v.field(name).map_err(|e| e.to_string());
        let Value::Map(entries) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, m) in entries {
            let value = as_f64(m.field("value").map_err(|e| e.to_string())?)?;
            metrics.push((name.clone(), value));
        }
        Ok(ParsedRun {
            correct: matches!(field("correct")?, Value::Bool(true)),
            attempted: as_f64(field("attempted")?)? as u64,
            failed: as_f64(field("failed")?)? as u64,
            metrics,
        })
    }
}

fn as_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

fn as_str(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected a string, found {other:?}")),
    }
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `bound` of an end-to-end metric; `None` for per-layer ones.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// `run_seconds`.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// `end_to_end`.
    pub end_to_end: Vec<MetricSpec>,
    /// `per_layer`.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads and parses `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let seq = |name: &str| match v.field(name) {
            Ok(Value::Seq(items)) => Ok(items.as_slice()),
            _ => Err(format!("`{name}` is not an array")),
        };
        let metric_specs = |name: &str| -> Result<Vec<MetricSpec>, String> {
            seq(name)?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.field(f).map_err(|e| e.to_string());
                    Ok(MetricSpec {
                        name: as_str(field("name")?)?.to_string(),
                        unit: as_str(field("unit")?)?.to_string(),
                        bound: match field("bound")? {
                            Value::Null => None,
                            b => Some(as_f64(b)?),
                        },
                    })
                })
                .collect()
        };
        let workloads = seq("workloads")?
            .iter()
            .map(|w| {
                let name = w.field("name").map_err(|e| e.to_string())?;
                Ok(as_str(name)?.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let run_seconds = as_f64(v.field("run_seconds").map_err(|e| e.to_string())?)? as u64;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metric_specs("end_to_end")?,
            per_layer: metric_specs("per_layer")?,
        })
    }

    /// Requires `got` to carry exactly the declared metrics, by name and
    /// unit: an unknown or a missing name is a failure, not a warning.
    pub fn check(declared: &[MetricSpec], got: &[Metric]) -> Result<(), String> {
        for m in got {
            match declared.iter().find(|d| d.name == m.name) {
                None => return Err(format!("metric `{}` is not in BENCHMARK.json", m.name)),
                Some(d) if d.unit != m.unit => {
                    return Err(format!(
                        "metric `{}` has unit `{}`, BENCHMARK.json says `{}`",
                        m.name, m.unit, d.unit
                    ))
                }
                Some(_) => {}
            }
        }
        for d in declared {
            if !got.iter().any(|m| m.name == d.name) {
                return Err(format!("metric `{}` of BENCHMARK.json is missing", d.name));
            }
        }
        Ok(())
    }
}
