//! Checkpoint I/O plan intermediate representation.
//!
//! A *plan* ([`Program`]) describes, for every MPI rank, the exact sequence
//! of operations one checkpoint (or restart) performs: local packing,
//! point-to-point messages, barriers, and file operations. The three
//! strategies of the paper — 1PFPP, coIO and rbIO — are compiled into this
//! IR once, and then executed by two interchangeable back-ends:
//!
//! * the **real executor** (`rbio::exec`): one thread per rank, crossbeam
//!   channels for messages, actual files on disk — proving the plans move
//!   every byte to the right place;
//! * the **simulated executor** (`rbio-machine`): the same plan replayed in
//!   virtual time on a Blue Gene/P model at 16Ki–64Ki ranks — regenerating
//!   the paper's figures.
//!
//! Ops within one rank execute strictly in order (rank-local dependencies
//! are implicit); cross-rank ordering exists only through tagged messages
//! and barriers. [`validate()`] checks structural sanity: message matching,
//! buffer bounds, deadlock-freedom, and exact write coverage of every file.

#![forbid(unsafe_code)]

pub(crate) mod compose;
pub mod json;
pub(crate) mod ops;
pub(crate) mod program;
pub mod validate;

pub use compose::{append_program, push_compute};
pub use ops::{CommId, DataRef, FileId, Op, Tag, RESERVED_TAG_BASE};
pub use program::{FileSpec, Program, ProgramBuilder, ProgramStats};
pub use validate::{validate, CoverageMode, ValidateError};

/// An MPI rank index.
pub type Rank = u32;
