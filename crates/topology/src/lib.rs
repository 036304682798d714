//! Blue Gene/P-style machine topology.
//!
//! Models the structural facts the paper's experiments depend on:
//!
//! * a 3-D torus of compute nodes with six links per node (425 MB/s each
//!   direction on the real machine — bandwidth lives in `rbio-net`; this
//!   crate is pure geometry),
//! * four cores per node ("virtual node" mode: one MPI rank per core),
//! * *psets*: groups of 64 compute nodes served by one dedicated I/O node
//!   (ION) over the collective network, the unit ROMIO's `bgp_nodes_pset`
//!   aggregator hint works in.
//!
//! Everything is deterministic geometry: rank → node → coordinate → pset,
//! plus dimension-order torus routing returning explicit link identifiers so
//! the network model can serialize per-link contention.

#![forbid(unsafe_code)]

pub mod partition;
pub mod torus;

pub use partition::{PartitionSpec, Pset};
pub use torus::{Coord, LinkId, NodeId, Torus3d, NUM_DIRS};
