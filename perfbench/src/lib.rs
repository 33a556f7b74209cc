//! End-to-end and per-layer benchmark of the `pilfill` CLI and fill
//! daemon. See `README.md` in this directory for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod daemon;
pub mod designs;
pub mod fillcli;
pub mod load;
pub mod metrics;
pub mod trace;
pub mod workloads;
