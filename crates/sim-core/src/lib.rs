//! Deterministic discrete-event simulation core.
//!
//! This crate provides the machinery shared by every simulated subsystem in
//! the rbio reproduction: a virtual clock ([`SimTime`]), an event scheduler
//! ([`EventQueue`] / [`run`]), resource-contention primitives
//! ([`resources::CalendarQueue`], [`resources::FairPipe`]), a seedable RNG
//! with the distributions the machine models need ([`rng::SimRng`]), and
//! small statistics helpers ([`stats`]).
//!
//! Everything here is deterministic: given the same model and the same seed,
//! a simulation produces bit-identical event orderings and timings. Event
//! ties are broken by insertion sequence number.

#![forbid(unsafe_code)]

pub(crate) mod engine;
pub mod resources;
pub mod rng;
pub mod stats;
pub(crate) mod time;

pub use engine::{run, run_until, EventQueue, Model};
pub use time::{transfer_time, SimTime, NS_PER_SEC};
