//! PIL-Fill bounded model checker.
//!
//! A std-only, loom-style checker for the worker-pool protocols in
//! `pilfill-exec`. Models are ordinary closures written against the
//! shadow primitives in [`sync`] and [`thread`]; [`Explorer`] runs each
//! model under many thread schedules — exhaustively with DPOR-style
//! sleep-set pruning and a preemption bound, or randomly from a seed —
//! while a vector-clock engine checks every access against the
//! happens-before relation. Deadlocks, data races, lost notifications,
//! failed model assertions, and leaked threads all surface as
//! [`Violation`]s carrying the exact schedule that triggered them.
//!
//! The four pool protocols under check (epoch publication, atomic-cursor
//! batch claiming, disjoint-slot merging, panic propagation) live in
//! [`models`]; `cargo run -p pilfill-check` runs them all and writes
//! `check-report.json`.

pub mod clock;
pub mod models;
pub mod report;
mod rt;
pub mod sync;
pub mod thread;

pub use rt::{Config, Explorer, Outcome, Stats, Strategy, Violation};
