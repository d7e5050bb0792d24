//! `e2ebench` — the end-to-end benchmark of the local-decision workspace.
//!
//! One command drives four workloads through the public entry points users
//! hit (`ld_runner::stream::run`, the `ld_serve` daemon and its HTTP
//! client, `ld_serve::dispatch`), checks every output against a
//! deterministic reference, and prints the end-to-end metrics; a separate
//! traced run prints the per-layer metrics.  See `README.md` next to this
//! crate for the workloads, the metric map and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod output;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workload;

pub use workload::{replay_counters, run, Options, Replay, Results, Scale, Workload};
