//! Plan operations.

use crate::Rank;

/// A file created/accessed by a plan, indexing into [`crate::Program::files`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A barrier group, indexing into [`crate::Program::comms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u32);

/// A message tag; `(src, dst, tag)` triples match sends to receives in
/// program order, exactly like MPI matching with a fixed communicator.
/// A plan's tags are below [`RESERVED_TAG_BASE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

/// Tags from 2⁶¹ up belong to the executors' own messages (a barrier of
/// comm `c` is tag `RESERVED_TAG_BASE + c`); [`crate::validate()`]
/// refuses a `Send` or `Recv` that uses one.
pub const RESERVED_TAG_BASE: u64 = 1 << 61;

/// A reference to bytes a rank can send or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataRef {
    /// A range of this rank's own checkpoint payload buffer.
    Own {
        /// Byte offset into the payload.
        off: u64,
        /// Length in bytes.
        len: u64,
    },
    /// A range of this rank's staging buffer (filled by `Recv`/`ReadAt`,
    /// or assembled by `Pack`).
    Staging {
        /// Byte offset into the staging buffer.
        off: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Synthetic bytes (deterministic filler) — used by simulator-scale
    /// workloads where no real payload exists. The real executor writes a
    /// deterministic pattern so files are still verifiable.
    Synthetic {
        /// Length in bytes.
        len: u64,
    },
}

impl DataRef {
    /// Length of the referenced bytes.
    pub fn len(&self) -> u64 {
        match *self {
            DataRef::Own { len, .. }
            | DataRef::Staging { len, .. }
            | DataRef::Synthetic { len } => len,
        }
    }

    /// True when the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One operation in a rank's sequential program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Local computation for a fixed duration (used to model the solver
    /// phase between checkpoints, and arbitrary fixed overheads).
    Compute {
        /// Duration in nanoseconds of virtual (or modelled) time.
        nanos: u64,
    },
    /// Local memory traffic of `bytes` (packing/unpacking, header assembly).
    /// Timed by the machine's memory bandwidth in simulation; performs the
    /// actual copy in the real executor when `src`/`staging_off` are given.
    Pack {
        /// Source bytes to copy into staging; `None` models pure traffic.
        src: Option<DataRef>,
        /// Destination offset in this rank's staging buffer.
        staging_off: u64,
        /// Bytes moved.
        bytes: u64,
    },
    /// Nonblocking send (`MPI_Isend`): the op completes locally after the
    /// handoff (descriptor post + DMA registration touch of the buffer);
    /// delivery to the receiver proceeds asynchronously.
    Send {
        /// Destination rank.
        dst: Rank,
        /// Matching tag.
        tag: Tag,
        /// Payload reference.
        src: DataRef,
    },
    /// Blocking receive of a matching message into the staging buffer.
    Recv {
        /// Source rank.
        src: Rank,
        /// Matching tag.
        tag: Tag,
        /// Expected length in bytes (must equal the sender's).
        bytes: u64,
        /// Destination offset in this rank's staging buffer.
        staging_off: u64,
    },
    /// Barrier across a rank group.
    Barrier {
        /// The group.
        comm: CommId,
    },
    /// Open a file (creating it if `create`). Shared opens (many ranks,
    /// one file) hit the metadata service once per rank, like MPI-IO.
    Open {
        /// The file.
        file: FileId,
        /// Whether this open creates the file.
        create: bool,
    },
    /// Write bytes at an absolute file offset (`MPI_File_write_at` /
    /// `pwrite`).
    WriteAt {
        /// The file.
        file: FileId,
        /// Absolute byte offset.
        offset: u64,
        /// Source bytes.
        src: DataRef,
    },
    /// Read bytes from an absolute file offset into staging (restart path).
    ReadAt {
        /// The file.
        file: FileId,
        /// Absolute byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
        /// Destination offset in this rank's staging buffer.
        staging_off: u64,
    },
    /// Close a file (flushes; on close-after-create the metadata service is
    /// touched again).
    Close {
        /// The file.
        file: FileId,
    },
    /// Atomically publish a finished checkpoint file: seal the temporary
    /// sibling (checksum footer) and `rename(2)` it onto its final name.
    /// Exactly one rank — the file's owner — commits, after its `Close`.
    Commit {
        /// The file.
        file: FileId,
    },
}

impl Op {
    /// Bytes this op writes to a file (0 for non-write ops).
    pub fn bytes_written(&self) -> u64 {
        match self {
            Op::WriteAt { src, .. } => src.len(),
            _ => 0,
        }
    }

    /// Bytes this op sends over the network (0 for non-send ops).
    pub fn bytes_sent(&self) -> u64 {
        match self {
            Op::Send { src, .. } => src.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataref_len() {
        assert_eq!(DataRef::Own { off: 3, len: 10 }.len(), 10);
        assert_eq!(DataRef::Staging { off: 0, len: 7 }.len(), 7);
        assert_eq!(DataRef::Synthetic { len: 0 }.len(), 0);
        assert!(DataRef::Synthetic { len: 0 }.is_empty());
        assert!(!DataRef::Own { off: 0, len: 1 }.is_empty());
    }

    #[test]
    fn op_byte_accounting() {
        let w = Op::WriteAt {
            file: FileId(0),
            offset: 0,
            src: DataRef::Synthetic { len: 100 },
        };
        assert_eq!(w.bytes_written(), 100);
        assert_eq!(w.bytes_sent(), 0);
        let s = Op::Send {
            dst: 1,
            tag: Tag(0),
            src: DataRef::Own { off: 0, len: 50 },
        };
        assert_eq!(s.bytes_sent(), 50);
        assert_eq!(s.bytes_written(), 0);
        assert_eq!(Op::Barrier { comm: CommId(0) }.bytes_written(), 0);
    }
}
