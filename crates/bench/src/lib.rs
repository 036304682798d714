//! Benchmark harness library: the paper's workloads and experiment
//! runners, shared by the per-figure binaries and the criterion benches.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod workload;

pub use experiments::{run_config, ConfigResult, PaperConfig};
pub use workload::{paper_case, PaperCase, PAPER_CASES};
