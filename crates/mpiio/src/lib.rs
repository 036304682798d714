//! ROMIO-style two-phase collective write planning.
//!
//! MPI-IO implementations (ROMIO, and the Blue Gene port the paper tunes)
//! execute a collective write in two phases:
//!
//! 1. **Exchange** — the file range being written is partitioned into
//!    contiguous *file domains*, one per *aggregator* (a small subset of the
//!    ranks, placed pset-aware on Blue Gene via the `bgp_nodes_pset` hint).
//!    Every rank sends the pieces of its data that fall inside an
//!    aggregator's domain to that aggregator.
//! 2. **Write** — each aggregator writes its (now contiguous) domain with a
//!    small number of large, *block-aligned* requests, processing the domain
//!    in collective-buffer-sized rounds.
//!
//! Block alignment matters on GPFS: aligned domains mean no two aggregators
//! ever touch the same filesystem block, which avoids byte-range lock
//! revocations (§V-B of the paper, citing Liao & Choudhary).
//!
//! This crate turns a described collective write into plan IR ops
//! ([`plan_collective_write`]); the same expansion is executed for real by
//! `rbio::exec` and in virtual time by `rbio-machine`.

#![forbid(unsafe_code)]

pub mod domains;
pub mod twophase;

pub use domains::{partition_domains, DomainConfig};
pub use twophase::{plan_collective_write, CollectiveWrite, Contribution, SrcKind, TwoPhaseConfig};
