//! Benchmark harness and experiment tables for the Strong Dependency
//! reproduction.
//!
//! - [`table`]: plain-text table rendering used by the `experiments`
//!   binary (which regenerates every claim in EXPERIMENTS.md and writes
//!   every `BENCH_*.json`);
//! - [`workloads`]: parameterized system and program families for the
//!   `experiments` performance sections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;
pub mod workloads;

pub use crate::table::Table;
