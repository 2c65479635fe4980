//! The repo benchmark (see `README.md` next to this package): four replayed
//! workloads, a per-op floor estimator and a layer-replay trace, all driven
//! from outside the program through its public functions.

pub mod e2e;
pub mod layers;
pub mod report;
pub mod run;
pub mod script;
pub mod span;
pub mod stats;
