//! Whole-plan container and builder.

use crate::ops::{CommId, FileId, Op};
use crate::Rank;

/// A file a plan creates or reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// Path, relative to the checkpoint directory.
    pub name: String,
    /// Expected final size in bytes (write plans must cover it exactly).
    /// This is the *logical* size — header plus data. Atomic files gain a
    /// checksum footer beyond `size` at commit time.
    pub size: u64,
    /// Whether the file is published atomically: written to a `.tmp`
    /// sibling and `rename(2)`d into place by a single `Op::Commit`.
    pub atomic: bool,
}

/// A complete plan: one sequential op list per rank, plus the shared
/// file/communicator/buffer tables the ops index into.
#[derive(Debug, Clone)]
pub struct Program {
    /// Per-rank op sequences; `ops.len()` is the rank count.
    pub ops: Vec<Vec<Op>>,
    /// Files referenced by `Open`/`WriteAt`/`ReadAt`/`Close`.
    pub files: Vec<FileSpec>,
    /// Barrier groups referenced by `Barrier` (each a sorted rank list).
    pub comms: Vec<Vec<Rank>>,
    /// Per-rank payload buffer size in bytes (bounds `DataRef::Own`).
    pub payload: Vec<u64>,
    /// Per-rank staging buffer size in bytes (bounds `DataRef::Staging`,
    /// `Recv`, `ReadAt`, `Pack` destinations).
    pub staging: Vec<u64>,
}

impl Program {
    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Aggregate op/byte statistics (used in reports and tests).
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats::default();
        for rank_ops in &self.ops {
            s.total_ops += rank_ops.len() as u64;
            for op in rank_ops {
                s.bytes_written += op.bytes_written();
                s.bytes_sent += op.bytes_sent();
                match op {
                    Op::Send { .. } => s.sends += 1,
                    Op::Recv { .. } => s.recvs += 1,
                    Op::Open { .. } => s.opens += 1,
                    Op::WriteAt { .. } => s.writes += 1,
                    Op::ReadAt { len, .. } => {
                        s.reads += 1;
                        s.bytes_read += len;
                    }
                    Op::Close { .. } => s.closes += 1,
                    Op::Commit { .. } => s.commits += 1,
                    Op::Barrier { .. } => s.barriers += 1,
                    _ => {}
                }
            }
        }
        s
    }

    /// Ranks that perform at least one `WriteAt` (the "writers" of rbIO, or
    /// the aggregators of coIO; every rank under 1PFPP).
    pub fn writer_ranks(&self) -> Vec<Rank> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, ops)| ops.iter().any(|o| matches!(o, Op::WriteAt { .. })))
            .map(|(r, _)| r as Rank)
            .collect()
    }
}

/// Aggregate counts over a whole program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Total ops across all ranks.
    pub total_ops: u64,
    /// Total `Send` ops.
    pub sends: u64,
    /// Total `Recv` ops.
    pub(crate) recvs: u64,
    /// Total `Open` ops.
    pub opens: u64,
    /// Total `WriteAt` ops.
    pub writes: u64,
    /// Total `ReadAt` ops.
    pub(crate) reads: u64,
    /// Total `Close` ops.
    pub closes: u64,
    /// Total `Commit` ops.
    pub(crate) commits: u64,
    /// Total `Barrier` ops.
    pub barriers: u64,
    /// Total bytes written to files.
    pub bytes_written: u64,
    /// Total bytes read from files.
    pub(crate) bytes_read: u64,
    /// Total bytes sent over the network.
    pub bytes_sent: u64,
}

/// Incremental builder for [`Program`].
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    ops: Vec<Vec<Op>>,
    files: Vec<FileSpec>,
    comms: Vec<Vec<Rank>>,
    payload: Vec<u64>,
    staging: Vec<u64>,
}

impl ProgramBuilder {
    /// A builder for `nranks` ranks with the given per-rank payload sizes
    /// (`payload.len()` must equal `nranks`).
    pub fn new(payload: Vec<u64>) -> Self {
        let nranks = payload.len();
        ProgramBuilder {
            ops: vec![Vec::new(); nranks],
            files: Vec::new(),
            comms: Vec::new(),
            payload,
            staging: vec![0; nranks],
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Payload size of `rank`.
    pub fn payload_of(&self, rank: Rank) -> u64 {
        self.payload[rank as usize]
    }

    /// Register a file; returns its id.
    pub fn file(&mut self, name: impl Into<String>, size: u64) -> FileId {
        self.files.push(FileSpec {
            name: name.into(),
            size,
            atomic: false,
        });
        FileId(self.files.len() as u32 - 1)
    }

    /// Register an atomically-published file (written to a `.tmp` sibling,
    /// sealed + renamed by exactly one `Op::Commit`); returns its id.
    pub fn file_atomic(&mut self, name: impl Into<String>, size: u64) -> FileId {
        self.files.push(FileSpec {
            name: name.into(),
            size,
            atomic: true,
        });
        FileId(self.files.len() as u32 - 1)
    }

    /// Register a barrier group; the rank list is sorted and deduplicated.
    pub fn comm(&mut self, mut ranks: Vec<Rank>) -> CommId {
        ranks.sort_unstable();
        ranks.dedup();
        assert!(!ranks.is_empty(), "a communicator needs at least one rank");
        self.comms.push(ranks);
        CommId(self.comms.len() as u32 - 1)
    }

    /// Ensure `rank`'s staging buffer holds at least `bytes`.
    pub fn reserve_staging(&mut self, rank: Rank, bytes: u64) {
        let s = &mut self.staging[rank as usize];
        *s = (*s).max(bytes);
    }

    /// Append an op to `rank`'s program.
    pub fn push(&mut self, rank: Rank, op: Op) {
        self.ops[rank as usize].push(op);
    }

    /// Append the same op to every rank in `ranks`.
    pub fn push_all(&mut self, ranks: impl IntoIterator<Item = Rank>, op: Op) {
        for r in ranks {
            self.ops[r as usize].push(op.clone());
        }
    }

    /// Finish building.
    pub fn build(self) -> Program {
        Program {
            ops: self.ops,
            files: self.files,
            comms: self.comms,
            payload: self.payload,
            staging: self.staging,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{DataRef, Tag};

    #[test]
    fn builder_assembles_program() {
        let mut b = ProgramBuilder::new(vec![100, 100]);
        let f = b.file("ckpt.0", 200);
        let world = b.comm(vec![1, 0, 0]);
        assert_eq!(b.nranks(), 2);
        assert_eq!(b.payload_of(1), 100);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: 100 },
            },
        );
        b.push(
            1,
            Op::Send {
                dst: 0,
                tag: Tag(7),
                src: DataRef::Own { off: 0, len: 100 },
            },
        );
        b.push_all([0, 1], Op::Barrier { comm: world });
        let p = b.build();
        assert_eq!(p.nranks(), 2);
        assert_eq!(p.comms[0], vec![0, 1]);
        assert_eq!(p.files[0].size, 200);
        let s = p.stats();
        assert_eq!(s.total_ops, 5);
        assert_eq!(s.sends, 1);
        assert_eq!(s.barriers, 2);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(p.writer_ranks(), vec![0]);
    }

    #[test]
    fn reserve_staging_takes_max() {
        let mut b = ProgramBuilder::new(vec![0; 3]);
        b.reserve_staging(1, 50);
        b.reserve_staging(1, 20);
        let p = b.build();
        assert_eq!(p.staging, vec![0, 50, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_comm_panics() {
        let mut b = ProgramBuilder::new(vec![0]);
        b.comm(vec![]);
    }
}
