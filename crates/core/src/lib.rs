//! # rbio — reduced-blocking I/O for application-level checkpointing
//!
//! This crate is the paper's primary contribution as a reusable library:
//! the three checkpointing I/O strategies evaluated in *"Parallel I/O
//! Performance for Application-Level Checkpointing on the Blue Gene/P
//! System"* (Fu, Min, Latham, Carothers — CLUSTER 2011), implemented over a
//! plan IR so the same data movement can run for real (threads + files) or
//! be replayed on a simulated Blue Gene/P at 16Ki–64Ki ranks.
//!
//! * [`strategy::Strategy::OnePfpp`] — one POSIX file per processor.
//! * [`strategy::Strategy::CoIo`] — tuned MPI-IO collective writes with a
//!   tunable file count `nf` (split-collective groups).
//! * [`strategy::Strategy::RbIo`] — the paper's reduced-blocking I/O:
//!   dedicated writer ranks aggregate worker data over `Isend` and commit
//!   either independently (`nf = ng`) or collectively (`nf = 1`).
//!
//! ## Quick start
//!
//! ```
//! use rbio::layout::{DataLayout, FieldSpec};
//! use rbio::strategy::{CheckpointSpec, RbIoCommit, Strategy};
//! use rbio::exec::{execute, ExecConfig};
//! use rbio::format::materialize_payloads;
//! use rbio::restart::read_checkpoint;
//!
//! // 8 ranks, two fields of 1 KiB per rank (think Ex and Ey).
//! let layout = DataLayout::uniform(8, &[("Ex", 1024), ("Ey", 1024)]);
//! let spec = CheckpointSpec::new(layout.clone(), "step0")
//!     .strategy(Strategy::RbIo { ng: 2, commit: RbIoCommit::IndependentPerWriter });
//! let plan = spec.plan().expect("valid spec");
//!
//! // Fill fields with app data and run the plan against a temp dir.
//! let dir = std::env::temp_dir().join("rbio-doc-example");
//! let payloads = materialize_payloads(&plan, |rank, field, buf| {
//!     buf.fill(rank as u8 + field as u8)
//! });
//! let report = execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
//! assert_eq!(report.bytes_written, plan.total_file_bytes());
//!
//! // Restart: every rank gets its bytes back.
//! let restored = read_checkpoint(&dir, &plan).unwrap();
//! assert_eq!(restored.field_data(3, 1)[0], 3 + 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

// One file opts back in with `#![allow(unsafe_code)]`: `sys.rs` (raw
// syscalls and the CRC32C intrinsic).
#![deny(unsafe_code)]

pub mod backend;
pub mod buf;
pub mod commit;
pub mod crash;
pub mod exec;
pub mod extent;
pub mod failover;
pub mod fault;
pub mod format;
pub mod layout;
pub mod manager;
pub mod model;
pub mod pipeline;
pub mod restart;
pub mod rt;
pub mod sched;
pub mod scrub;
pub mod service;
pub mod strategy;
pub(crate) mod sys;
pub mod tier;
pub mod vtk;

pub use layout::{DataLayout, FieldSpec};
pub use strategy::{CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy};
