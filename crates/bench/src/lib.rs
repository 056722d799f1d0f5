//! Benchmark harness for the SHIELD reproduction.
//!
//! Provides deterministic workload generators (db_bench-style fillrandom /
//! readrandom / mixed ratios, Mixgraph, YCSB A–F), a multi-threaded driver
//! with latency histograms, system builders for the five configurations
//! the paper compares (unencrypted, EncFS ± WAL-Buf, SHIELD ± WAL-Buf),
//! one experiment per table/figure of the paper's §6 — see
//! [`experiments::all_experiments`] and the `paper` binary — and the
//! [`harness`] every other measurement bin runs under.

#![allow(clippy::field_reassign_with_default)]

pub mod driver;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod rng;
pub mod systems;
pub mod workloads;

pub use driver::{run_workload, DriverConfig, RunResult};
pub use harness::Bench;
pub use report::Table;
pub use rng::{Rng, Zipfian};
pub use systems::{build_system, SystemHandle, SystemKind, SystemStore, Tuning};
