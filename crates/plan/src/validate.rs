//! Structural validation of plans.
//!
//! `validate` performs an abstract execution of the program (ignoring time,
//! honoring ordering semantics) and checks:
//!
//! * **bounds** — every `DataRef`/staging destination fits its buffer, file
//!   and comm indices are in range, barrier callers are comm members,
//!   message tags are below [`crate::RESERVED_TAG_BASE`];
//! * **file discipline** — ranks only write/read files they have opened and
//!   close what they open;
//! * **message matching** — every `Recv` finds a matching `Send` with the
//!   same byte count, in FIFO order per `(src, dst, tag)` channel, and no
//!   posted message is left unconsumed;
//! * **deadlock-freedom** — the abstract execution completes (no rank is
//!   left blocked on a receive or barrier);
//! * **coverage** — in [`CoverageMode::ExactWrite`] mode the union of all
//!   `WriteAt` ranges tiles every file exactly (each byte written once);
//!   in [`CoverageMode::Read`] mode every `ReadAt` stays inside its file.

use std::collections::{HashMap, VecDeque};

use crate::ops::{DataRef, Op, RESERVED_TAG_BASE};
use crate::program::Program;
use crate::Rank;

/// What the plan is expected to do to its files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageMode {
    /// A checkpoint plan: every file byte is written exactly once.
    ExactWrite,
    /// A restart plan: reads must stay in bounds; writes are forbidden.
    Read,
    /// No coverage requirement (partial plans, microbenches).
    None,
}

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A `DataRef` or staging destination exceeds its buffer.
    OutOfBounds {
        /// Offending rank.
        rank: Rank,
        /// Index of the op in that rank's program.
        op_index: usize,
        /// Description of the violated bound.
        what: String,
    },
    /// A file or comm index is out of range.
    BadIndex {
        /// Offending rank.
        rank: Rank,
        /// Index of the op.
        op_index: usize,
        /// Description.
        what: String,
    },
    /// File used without open, double open/close, or left open.
    FileDiscipline {
        /// Offending rank.
        rank: Rank,
        /// Description.
        what: String,
    },
    /// A receive's byte count differs from the matched send's.
    MessageSizeMismatch {
        /// Sender rank.
        src: Rank,
        /// Receiver rank.
        dst: Rank,
        /// Expected (receiver) bytes.
        want: u64,
        /// Actual (sender) bytes.
        got: u64,
    },
    /// The abstract execution stalled: blocked ranks remain.
    Deadlock {
        /// Ranks that could not finish.
        stuck: Vec<Rank>,
    },
    /// Sends were posted but never received.
    UnconsumedMessages {
        /// Number of leftover messages.
        count: usize,
    },
    /// Write coverage violated (gap or overlap).
    Coverage {
        /// File name.
        file: String,
        /// Description of the gap/overlap.
        what: String,
    },
    /// A `Send` or `Recv` uses a tag at or above
    /// [`crate::RESERVED_TAG_BASE`], the executors' own range.
    ReservedTag {
        /// Offending rank.
        rank: Rank,
        /// Index of the op.
        op_index: usize,
        /// The tag.
        tag: u64,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::OutOfBounds {
                rank,
                op_index,
                what,
            } => {
                write!(f, "rank {rank} op {op_index}: out of bounds: {what}")
            }
            ValidateError::BadIndex {
                rank,
                op_index,
                what,
            } => {
                write!(f, "rank {rank} op {op_index}: bad index: {what}")
            }
            ValidateError::FileDiscipline { rank, what } => {
                write!(f, "rank {rank}: file discipline: {what}")
            }
            ValidateError::MessageSizeMismatch {
                src,
                dst,
                want,
                got,
            } => write!(
                f,
                "message {src}->{dst}: receiver wants {want} bytes, sender posted {got}"
            ),
            ValidateError::Deadlock { stuck } => {
                write!(
                    f,
                    "deadlock: {} ranks stuck (first: {:?})",
                    stuck.len(),
                    stuck.first()
                )
            }
            ValidateError::UnconsumedMessages { count } => {
                write!(f, "{count} posted messages never received")
            }
            ValidateError::Coverage { file, what } => write!(f, "file {file}: coverage: {what}"),
            ValidateError::ReservedTag {
                rank,
                op_index,
                tag,
            } => write!(
                f,
                "rank {rank} op {op_index}: tag {tag} is in the reserved range (>= 2^61)"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validate `program` under `mode`. Returns the first error found.
pub fn validate(program: &Program, mode: CoverageMode) -> Result<(), ValidateError> {
    check_bounds(program)?;
    check_file_discipline(program)?;
    abstract_execute(program)?;
    check_coverage(program, mode)?;
    Ok(())
}

fn dataref_in_bounds(r: &DataRef, payload: u64, staging: u64) -> Result<(), String> {
    match *r {
        DataRef::Own { off, len } => {
            if off.checked_add(len).is_none_or(|end| end > payload) {
                return Err(format!("Own[{off}..+{len}] exceeds payload of {payload}"));
            }
        }
        DataRef::Staging { off, len } => {
            if off.checked_add(len).is_none_or(|end| end > staging) {
                return Err(format!(
                    "Staging[{off}..+{len}] exceeds staging of {staging}"
                ));
            }
        }
        DataRef::Synthetic { .. } => {}
    }
    Ok(())
}

fn check_bounds(p: &Program) -> Result<(), ValidateError> {
    let nranks = p.nranks();
    for (rank, ops) in p.ops.iter().enumerate() {
        let rank = rank as Rank;
        let payload = p.payload[rank as usize];
        let staging = p.staging[rank as usize];
        let oob = |i: usize, what: String| ValidateError::OutOfBounds {
            rank,
            op_index: i,
            what,
        };
        let badix = |i: usize, what: String| ValidateError::BadIndex {
            rank,
            op_index: i,
            what,
        };
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Pack {
                    src,
                    staging_off,
                    bytes,
                } => {
                    if let Some(s) = src {
                        dataref_in_bounds(s, payload, staging).map_err(|e| oob(i, e))?;
                        if s.len() != *bytes {
                            return Err(oob(
                                i,
                                format!("Pack src len {} != bytes {bytes}", s.len()),
                            ));
                        }
                    }
                    if staging_off.checked_add(*bytes).is_none_or(|e| e > staging) {
                        return Err(oob(
                            i,
                            format!(
                                "Pack dest [{staging_off}..+{bytes}] exceeds staging {staging}"
                            ),
                        ));
                    }
                }
                Op::Send { tag, .. } | Op::Recv { tag, .. } if tag.0 >= RESERVED_TAG_BASE => {
                    return Err(ValidateError::ReservedTag {
                        rank,
                        op_index: i,
                        tag: tag.0,
                    });
                }
                Op::Send { dst, src, .. } => {
                    if *dst >= nranks {
                        return Err(badix(i, format!("send dst {dst} >= nranks {nranks}")));
                    }
                    dataref_in_bounds(src, payload, staging).map_err(|e| oob(i, e))?;
                }
                Op::Recv {
                    src,
                    bytes,
                    staging_off,
                    ..
                } => {
                    if *src >= nranks {
                        return Err(badix(i, format!("recv src {src} >= nranks {nranks}")));
                    }
                    if staging_off.checked_add(*bytes).is_none_or(|e| e > staging) {
                        return Err(oob(
                            i,
                            format!(
                                "Recv dest [{staging_off}..+{bytes}] exceeds staging {staging}"
                            ),
                        ));
                    }
                }
                Op::Barrier { comm } => {
                    let Some(members) = p.comms.get(comm.0 as usize) else {
                        return Err(badix(i, format!("comm {} not registered", comm.0)));
                    };
                    if members.binary_search(&rank).is_err() {
                        return Err(badix(
                            i,
                            format!("rank {rank} calls barrier on comm {} it is not in", comm.0),
                        ));
                    }
                }
                Op::Open { file, .. } | Op::Close { file } | Op::Commit { file } => {
                    if file.0 as usize >= p.files.len() {
                        return Err(badix(i, format!("file {} not registered", file.0)));
                    }
                }
                Op::WriteAt { file, offset, src } => {
                    let Some(spec) = p.files.get(file.0 as usize) else {
                        return Err(badix(i, format!("file {} not registered", file.0)));
                    };
                    dataref_in_bounds(src, payload, staging).map_err(|e| oob(i, e))?;
                    if offset.checked_add(src.len()).is_none_or(|e| e > spec.size) {
                        return Err(oob(
                            i,
                            format!(
                                "write [{offset}..+{}] exceeds file size {}",
                                src.len(),
                                spec.size
                            ),
                        ));
                    }
                }
                Op::ReadAt {
                    file,
                    offset,
                    len,
                    staging_off,
                } => {
                    let Some(spec) = p.files.get(file.0 as usize) else {
                        return Err(badix(i, format!("file {} not registered", file.0)));
                    };
                    if offset.checked_add(*len).is_none_or(|e| e > spec.size) {
                        return Err(oob(
                            i,
                            format!("read [{offset}..+{len}] exceeds file size {}", spec.size),
                        ));
                    }
                    if staging_off.checked_add(*len).is_none_or(|e| e > staging) {
                        return Err(oob(
                            i,
                            format!("Read dest [{staging_off}..+{len}] exceeds staging {staging}"),
                        ));
                    }
                }
                Op::Compute { .. } => {}
            }
        }
    }
    Ok(())
}

fn check_file_discipline(p: &Program) -> Result<(), ValidateError> {
    // Global commit count per file (exactly one rank — the owner — commits
    // an atomic file; non-atomic files are never committed).
    let mut commits: Vec<u64> = vec![0; p.files.len()];
    for (rank, ops) in p.ops.iter().enumerate() {
        let rank = rank as Rank;
        let mut open: Vec<bool> = vec![false; p.files.len()];
        for op in ops {
            match op {
                Op::Commit { file } => {
                    if open[file.0 as usize] {
                        return Err(ValidateError::FileDiscipline {
                            rank,
                            what: format!("commit of file {} while it is still open", file.0),
                        });
                    }
                    commits[file.0 as usize] += 1;
                }
                Op::Open { file, .. } => {
                    if open[file.0 as usize] {
                        return Err(ValidateError::FileDiscipline {
                            rank,
                            what: format!("double open of file {}", file.0),
                        });
                    }
                    open[file.0 as usize] = true;
                }
                Op::Close { file } => {
                    if !open[file.0 as usize] {
                        return Err(ValidateError::FileDiscipline {
                            rank,
                            what: format!("close of unopened file {}", file.0),
                        });
                    }
                    open[file.0 as usize] = false;
                }
                Op::WriteAt { file, .. } | Op::ReadAt { file, .. } if !open[file.0 as usize] => {
                    return Err(ValidateError::FileDiscipline {
                        rank,
                        what: format!("I/O on unopened file {}", file.0),
                    });
                }
                _ => {}
            }
        }
        if let Some(f) = open.iter().position(|&o| o) {
            return Err(ValidateError::FileDiscipline {
                rank,
                what: format!("file {f} left open at program end"),
            });
        }
    }
    for (f, (&n, spec)) in commits.iter().zip(&p.files).enumerate() {
        let want = u64::from(spec.atomic);
        if n != want {
            return Err(ValidateError::FileDiscipline {
                rank: 0,
                what: format!(
                    "file {f} ({}): {n} commits, want {want} (atomic: {})",
                    spec.name, spec.atomic
                ),
            });
        }
    }
    Ok(())
}

/// Abstract (untimed) execution: checks message matching and deadlock-freedom.
fn abstract_execute(p: &Program) -> Result<(), ValidateError> {
    let nranks = p.nranks() as usize;
    let mut pc = vec![0usize; nranks];
    // Posted (not yet received) message sizes per (src, dst, tag) channel.
    let mut channels: HashMap<(Rank, Rank, u64), VecDeque<u64>> = HashMap::new();
    // Ranks blocked on a recv for (src, dst, tag).
    let mut recv_waiters: HashMap<(Rank, Rank, u64), Rank> = HashMap::new();
    // Barrier arrival counts and waiters.
    let mut barrier_count: HashMap<u32, usize> = HashMap::new();
    let mut barrier_waiters: HashMap<u32, Vec<Rank>> = HashMap::new();

    let mut runnable: VecDeque<Rank> = (0..nranks as Rank).collect();
    let mut blocked = vec![false; nranks];
    let mut finished = 0usize;

    while let Some(rank) = runnable.pop_front() {
        blocked[rank as usize] = false;
        loop {
            let ops = &p.ops[rank as usize];
            if pc[rank as usize] >= ops.len() {
                finished += 1;
                break;
            }
            match &ops[pc[rank as usize]] {
                Op::Send { dst, tag, src } => {
                    let key = (rank, *dst, tag.0);
                    channels.entry(key).or_default().push_back(src.len());
                    if let Some(w) = recv_waiters.remove(&key) {
                        if !blocked[w as usize] {
                            // Already queued (shouldn't happen), skip.
                        } else {
                            blocked[w as usize] = false;
                            runnable.push_back(w);
                        }
                    }
                    pc[rank as usize] += 1;
                }
                Op::Recv {
                    src, tag, bytes, ..
                } => {
                    let key = (*src, rank, tag.0);
                    let avail = channels.get_mut(&key).and_then(|q| q.pop_front());
                    match avail {
                        Some(got) => {
                            if got != *bytes {
                                return Err(ValidateError::MessageSizeMismatch {
                                    src: *src,
                                    dst: rank,
                                    want: *bytes,
                                    got,
                                });
                            }
                            pc[rank as usize] += 1;
                        }
                        None => {
                            recv_waiters.insert(key, rank);
                            blocked[rank as usize] = true;
                            break;
                        }
                    }
                }
                Op::Barrier { comm } => {
                    let size = p.comms[comm.0 as usize].len();
                    let c = barrier_count.entry(comm.0).or_insert(0);
                    *c += 1;
                    if *c == size {
                        *c = 0;
                        pc[rank as usize] += 1;
                        for w in barrier_waiters.remove(&comm.0).unwrap_or_default() {
                            pc[w as usize] += 1;
                            blocked[w as usize] = false;
                            runnable.push_back(w);
                        }
                    } else {
                        barrier_waiters.entry(comm.0).or_default().push(rank);
                        blocked[rank as usize] = true;
                        break;
                    }
                }
                _ => {
                    pc[rank as usize] += 1;
                }
            }
        }
    }

    if finished < nranks {
        let stuck: Vec<Rank> = (0..nranks as Rank)
            .filter(|&r| pc[r as usize] < p.ops[r as usize].len())
            .collect();
        return Err(ValidateError::Deadlock { stuck });
    }
    let leftover: usize = channels.values().map(|q| q.len()).sum();
    if leftover > 0 {
        return Err(ValidateError::UnconsumedMessages { count: leftover });
    }
    Ok(())
}

fn check_coverage(p: &Program, mode: CoverageMode) -> Result<(), ValidateError> {
    match mode {
        CoverageMode::None => Ok(()),
        CoverageMode::Read => {
            // Bounds were already checked; forbid writes.
            for ops in &p.ops {
                for op in ops {
                    if matches!(op, Op::WriteAt { .. }) {
                        return Err(ValidateError::Coverage {
                            file: String::new(),
                            what: "restart plan contains writes".into(),
                        });
                    }
                }
            }
            Ok(())
        }
        CoverageMode::ExactWrite => {
            // Gather write intervals per file, sort, and demand a perfect tile.
            let mut per_file: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p.files.len()];
            for ops in &p.ops {
                for op in ops {
                    if let Op::WriteAt { file, offset, src } = op {
                        if !src.is_empty() {
                            per_file[file.0 as usize].push((*offset, *offset + src.len()));
                        }
                    }
                }
            }
            for (fi, intervals) in per_file.iter_mut().enumerate() {
                let spec = &p.files[fi];
                intervals.sort_unstable();
                let mut cursor = 0u64;
                for &(s, e) in intervals.iter() {
                    if s > cursor {
                        return Err(ValidateError::Coverage {
                            file: spec.name.clone(),
                            what: format!("gap [{cursor}..{s})"),
                        });
                    }
                    if s < cursor {
                        return Err(ValidateError::Coverage {
                            file: spec.name.clone(),
                            what: format!("overlap at {s} (already covered to {cursor})"),
                        });
                    }
                    cursor = e;
                }
                if cursor != spec.size {
                    return Err(ValidateError::Coverage {
                        file: spec.name.clone(),
                        what: format!("covered only [0..{cursor}) of {} bytes", spec.size),
                    });
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{DataRef, Op, Tag};
    use crate::program::ProgramBuilder;

    fn own(len: u64) -> DataRef {
        DataRef::Own { off: 0, len }
    }

    #[test]
    fn simple_valid_write_plan() {
        let mut b = ProgramBuilder::new(vec![10, 10]);
        let f0 = b.file("a", 10);
        let f1 = b.file("b", 10);
        for (r, f) in [(0u32, f0), (1u32, f1)] {
            b.push(
                r,
                Op::Open {
                    file: f,
                    create: true,
                },
            );
            b.push(
                r,
                Op::WriteAt {
                    file: f,
                    offset: 0,
                    src: own(10),
                },
            );
            b.push(r, Op::Close { file: f });
        }
        validate(&b.build(), CoverageMode::ExactWrite).unwrap();
    }

    #[test]
    fn send_recv_matching_and_aggregated_write() {
        let mut b = ProgramBuilder::new(vec![10, 10]);
        let f = b.file("shared", 20);
        b.reserve_staging(0, 20);
        b.push(
            1,
            Op::Send {
                dst: 0,
                tag: Tag(1),
                src: own(10),
            },
        );
        b.push(
            0,
            Op::Pack {
                src: Some(own(10)),
                staging_off: 0,
                bytes: 10,
            },
        );
        b.push(
            0,
            Op::Recv {
                src: 1,
                tag: Tag(1),
                bytes: 10,
                staging_off: 10,
            },
        );
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
                src: DataRef::Staging { off: 0, len: 20 },
            },
        );
        b.push(0, Op::Close { file: f });
        validate(&b.build(), CoverageMode::ExactWrite).unwrap();
    }

    #[test]
    fn detects_gap_and_overlap() {
        let mut b = ProgramBuilder::new(vec![10]);
        let f = b.file("a", 20);
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
                src: own(10),
            },
        );
        b.push(0, Op::Close { file: f });
        let err = validate(&b.build(), CoverageMode::ExactWrite).unwrap_err();
        assert!(matches!(err, ValidateError::Coverage { .. }), "{err}");

        let mut b = ProgramBuilder::new(vec![10, 10]);
        let f = b.file("a", 10);
        for r in 0..2u32 {
            b.push(
                r,
                Op::Open {
                    file: f,
                    create: r == 0,
                },
            );
            b.push(
                r,
                Op::WriteAt {
                    file: f,
                    offset: 0,
                    src: own(10),
                },
            );
            b.push(r, Op::Close { file: f });
        }
        let err = validate(&b.build(), CoverageMode::ExactWrite).unwrap_err();
        match err {
            ValidateError::Coverage { what, .. } => assert!(what.contains("overlap"), "{what}"),
            other => panic!("expected overlap, got {other}"),
        }
    }

    #[test]
    fn detects_deadlock_recv_without_send() {
        let mut b = ProgramBuilder::new(vec![0, 0]);
        b.reserve_staging(0, 10);
        b.push(
            0,
            Op::Recv {
                src: 1,
                tag: Tag(0),
                bytes: 10,
                staging_off: 0,
            },
        );
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(matches!(err, ValidateError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn detects_cross_recv_deadlock_freedom_with_isend() {
        // Both ranks Isend then Recv — fine with nonblocking sends.
        let mut b = ProgramBuilder::new(vec![5, 5]);
        b.reserve_staging(0, 5);
        b.reserve_staging(1, 5);
        b.push(
            0,
            Op::Send {
                dst: 1,
                tag: Tag(0),
                src: own(5),
            },
        );
        b.push(
            1,
            Op::Send {
                dst: 0,
                tag: Tag(0),
                src: own(5),
            },
        );
        b.push(
            0,
            Op::Recv {
                src: 1,
                tag: Tag(0),
                bytes: 5,
                staging_off: 0,
            },
        );
        b.push(
            1,
            Op::Recv {
                src: 0,
                tag: Tag(0),
                bytes: 5,
                staging_off: 0,
            },
        );
        validate(&b.build(), CoverageMode::None).unwrap();
    }

    #[test]
    fn detects_size_mismatch() {
        let mut b = ProgramBuilder::new(vec![5, 5]);
        b.reserve_staging(1, 10);
        b.push(
            0,
            Op::Send {
                dst: 1,
                tag: Tag(0),
                src: own(5),
            },
        );
        b.push(
            1,
            Op::Recv {
                src: 0,
                tag: Tag(0),
                bytes: 10,
                staging_off: 0,
            },
        );
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(
            matches!(err, ValidateError::MessageSizeMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn detects_unconsumed_message() {
        let mut b = ProgramBuilder::new(vec![5, 5]);
        b.push(
            0,
            Op::Send {
                dst: 1,
                tag: Tag(0),
                src: own(5),
            },
        );
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(
            matches!(err, ValidateError::UnconsumedMessages { count: 1 }),
            "{err}"
        );
    }

    #[test]
    fn tags_in_the_reserved_range_are_refused() {
        // A matched pair at each edge of the range: 2^61 - 1 is a plan
        // tag, 2^61 is comm 0's barrier tag, and u64::MAX would overflow
        // an executor's offset.
        let pair = |tag: u64| {
            let mut b = ProgramBuilder::new(vec![5, 5]);
            b.reserve_staging(1, 5);
            b.push(
                0,
                Op::Send {
                    dst: 1,
                    tag: Tag(tag),
                    src: own(5),
                },
            );
            b.push(
                1,
                Op::Recv {
                    src: 0,
                    tag: Tag(tag),
                    bytes: 5,
                    staging_off: 0,
                },
            );
            validate(&b.build(), CoverageMode::None)
        };
        pair(RESERVED_TAG_BASE - 1).unwrap();
        for tag in [RESERVED_TAG_BASE, RESERVED_TAG_BASE + 3, u64::MAX] {
            let err = pair(tag).unwrap_err();
            assert!(
                matches!(
                    err,
                    ValidateError::ReservedTag {
                        rank: 0,
                        op_index: 0,
                        tag: t
                    } if t == tag
                ),
                "{err}"
            );
        }
        // A lone `Recv` in the range is refused too, not reported as a
        // deadlock.
        let mut b = ProgramBuilder::new(vec![0, 0]);
        b.reserve_staging(1, 1);
        b.push(
            1,
            Op::Recv {
                src: 0,
                tag: Tag(RESERVED_TAG_BASE),
                bytes: 1,
                staging_off: 0,
            },
        );
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(
            matches!(err, ValidateError::ReservedTag { rank: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn barrier_membership_enforced() {
        let mut b = ProgramBuilder::new(vec![0, 0, 0]);
        let c = b.comm(vec![0, 1]);
        b.push(2, Op::Barrier { comm: c });
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(matches!(err, ValidateError::BadIndex { .. }), "{err}");
    }

    #[test]
    fn barrier_synchronizes_without_deadlock() {
        let mut b = ProgramBuilder::new(vec![0, 0, 0]);
        let c = b.comm(vec![0, 1, 2]);
        for r in 0..3u32 {
            b.push(r, Op::Compute { nanos: 10 });
            b.push(r, Op::Barrier { comm: c });
            b.push(r, Op::Compute { nanos: 10 });
            b.push(r, Op::Barrier { comm: c });
        }
        validate(&b.build(), CoverageMode::None).unwrap();
    }

    #[test]
    fn file_discipline_errors() {
        // Write without open.
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file("a", 5);
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: own(5),
            },
        );
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(matches!(err, ValidateError::FileDiscipline { .. }), "{err}");

        // Left open.
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file("a", 5);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(matches!(err, ValidateError::FileDiscipline { .. }), "{err}");
    }

    #[test]
    fn out_of_bounds_dataref() {
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file("a", 100);
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
                src: own(6),
            },
        );
        b.push(0, Op::Close { file: f });
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(matches!(err, ValidateError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn write_past_file_end() {
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file("a", 4);
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
                src: own(5),
            },
        );
        b.push(0, Op::Close { file: f });
        let err = validate(&b.build(), CoverageMode::None).unwrap_err();
        assert!(matches!(err, ValidateError::OutOfBounds { .. }), "{err}");
    }

    #[test]
    fn read_mode_forbids_writes() {
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file("a", 5);
        b.push(
            0,
            Op::Open {
                file: f,
                create: false,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: own(5),
            },
        );
        b.push(0, Op::Close { file: f });
        let err = validate(&b.build(), CoverageMode::Read).unwrap_err();
        assert!(matches!(err, ValidateError::Coverage { .. }), "{err}");
    }

    #[test]
    fn atomic_file_requires_exactly_one_commit() {
        // Missing commit.
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file_atomic("a", 5);
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
                src: own(5),
            },
        );
        b.push(0, Op::Close { file: f });
        let err = validate(&b.build(), CoverageMode::ExactWrite).unwrap_err();
        assert!(matches!(err, ValidateError::FileDiscipline { .. }), "{err}");

        // Exactly one commit after close: valid.
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file_atomic("a", 5);
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
                src: own(5),
            },
        );
        b.push(0, Op::Close { file: f });
        b.push(0, Op::Commit { file: f });
        validate(&b.build(), CoverageMode::ExactWrite).unwrap();
    }

    #[test]
    fn commit_while_open_or_duplicated_is_rejected() {
        // Commit while the file is still open on the committing rank.
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file_atomic("a", 5);
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
                src: own(5),
            },
        );
        b.push(0, Op::Commit { file: f });
        b.push(0, Op::Close { file: f });
        let err = validate(&b.build(), CoverageMode::ExactWrite).unwrap_err();
        match &err {
            ValidateError::FileDiscipline { what, .. } => {
                assert!(what.contains("still open"), "{what}")
            }
            other => panic!("expected discipline error, got {other}"),
        }

        // Two ranks both commit the same file.
        let mut b = ProgramBuilder::new(vec![5, 0]);
        let f = b.file_atomic("a", 5);
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
                src: own(5),
            },
        );
        b.push(0, Op::Close { file: f });
        b.push(0, Op::Commit { file: f });
        b.push(1, Op::Commit { file: f });
        let err = validate(&b.build(), CoverageMode::ExactWrite).unwrap_err();
        assert!(matches!(err, ValidateError::FileDiscipline { .. }), "{err}");
    }

    #[test]
    fn non_atomic_file_rejects_commit() {
        let mut b = ProgramBuilder::new(vec![5]);
        let f = b.file("a", 5);
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
                src: own(5),
            },
        );
        b.push(0, Op::Close { file: f });
        b.push(0, Op::Commit { file: f });
        let err = validate(&b.build(), CoverageMode::ExactWrite).unwrap_err();
        assert!(matches!(err, ValidateError::FileDiscipline { .. }), "{err}");
    }

    #[test]
    fn fifo_matching_same_tag() {
        // Two messages on the same channel must match in order.
        let mut b = ProgramBuilder::new(vec![10, 0]);
        b.reserve_staging(1, 10);
        b.push(
            0,
            Op::Send {
                dst: 1,
                tag: Tag(0),
                src: DataRef::Own { off: 0, len: 4 },
            },
        );
        b.push(
            0,
            Op::Send {
                dst: 1,
                tag: Tag(0),
                src: DataRef::Own { off: 4, len: 6 },
            },
        );
        b.push(
            1,
            Op::Recv {
                src: 0,
                tag: Tag(0),
                bytes: 4,
                staging_off: 0,
            },
        );
        b.push(
            1,
            Op::Recv {
                src: 0,
                tag: Tag(0),
                bytes: 6,
                staging_off: 4,
            },
        );
        validate(&b.build(), CoverageMode::None).unwrap();
    }
}
