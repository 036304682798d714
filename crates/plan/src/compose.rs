//! Program composition: concatenate per-step plans into one campaign.
//!
//! A production run is `nc` solver steps, a checkpoint, `nc` more steps, …
//! Composing the per-step checkpoint programs (plus compute ops) into one
//! [`Program`] lets the simulator measure end-to-end production time with
//! checkpoint/compute *overlap* arising naturally: rbIO's dedicated
//! writers have no compute ops, so their flush pipeline runs while the
//! workers' next compute block ticks — the paper's §IV-C design.
//!
//! Appending remaps the appended program's file ids, comm ids, and message
//! tags into fresh ranges so steps never collide.

use crate::ops::{Op, Tag};
use crate::program::Program;

/// Tag stride reserved per appended program. Plans use small tag numbers
/// (field indices and a few planner-internal tags), so a generous stride
/// guarantees disjoint tag spaces.
pub(crate) const TAG_STRIDE: u64 = 1 << 32;

/// Append `step` onto `base` in place: `step`'s ops run after `base`'s on
/// every rank, with its files/comms/tags remapped into fresh id ranges.
/// Payload and staging sizes take the per-rank maximum (each step reuses
/// the same buffers).
///
/// Panics if the rank counts differ.
pub fn append_program(base: &mut Program, step: Program, step_index: u64) {
    assert_eq!(
        base.nranks(),
        step.nranks(),
        "composed programs must have the same rank count"
    );
    let file_off = base.files.len() as u32;
    let comm_off = base.comms.len() as u32;
    let tag_off = step_index
        .checked_mul(TAG_STRIDE)
        .expect("step index fits the tag space");
    base.files.extend(step.files);
    base.comms.extend(step.comms);
    for (rank, ops) in step.ops.into_iter().enumerate() {
        base.payload[rank] = base.payload[rank].max(step.payload[rank]);
        base.staging[rank] = base.staging[rank].max(step.staging[rank]);
        let target = &mut base.ops[rank];
        target.reserve(ops.len());
        for mut op in ops {
            match &mut op {
                Op::Send { tag, .. } | Op::Recv { tag, .. } => {
                    *tag = Tag(tag.0 + tag_off);
                }
                Op::Barrier { comm } => comm.0 += comm_off,
                Op::Open { file, .. }
                | Op::WriteAt { file, .. }
                | Op::ReadAt { file, .. }
                | Op::Close { file }
                | Op::Commit { file } => file.0 += file_off,
                Op::Compute { .. } | Op::Pack { .. } => {}
            }
            target.push(op);
        }
    }
}

/// Push a `Compute` op of `nanos` onto every rank in `ranks`.
pub fn push_compute(base: &mut Program, ranks: impl IntoIterator<Item = u32>, nanos: u64) {
    for r in ranks {
        base.ops[r as usize].push(Op::Compute { nanos });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{DataRef, FileId};
    use crate::program::ProgramBuilder;
    use crate::validate::{validate, CoverageMode};

    fn step_program(name: &str) -> Program {
        let mut b = ProgramBuilder::new(vec![8, 8]);
        let f = b.file(name, 16);
        let c = b.comm(vec![0, 1]);
        b.reserve_staging(0, 8);
        b.push(
            1,
            Op::Send {
                dst: 0,
                tag: Tag(0),
                src: DataRef::Own { off: 0, len: 8 },
            },
        );
        b.push(
            0,
            Op::Recv {
                src: 1,
                tag: Tag(0),
                bytes: 8,
                staging_off: 0,
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
                src: DataRef::Own { off: 0, len: 8 },
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 8,
                src: DataRef::Staging { off: 0, len: 8 },
            },
        );
        b.push(0, Op::Close { file: f });
        b.push_all([0, 1], Op::Barrier { comm: c });
        b.build()
    }

    #[test]
    fn composed_campaign_validates() {
        let mut campaign = step_program("s0");
        push_compute(&mut campaign, [0, 1], 1000);
        append_program(&mut campaign, step_program("s1"), 1);
        push_compute(&mut campaign, [0, 1], 1000);
        append_program(&mut campaign, step_program("s2"), 2);
        assert_eq!(campaign.files.len(), 3);
        assert_eq!(campaign.comms.len(), 3);
        validate(&campaign, CoverageMode::ExactWrite).expect("composed plan valid");
        let stats = campaign.stats();
        assert_eq!(stats.opens, 3);
        assert_eq!(stats.writes, 6);
        assert_eq!(stats.sends, 3);
        assert_eq!(stats.barriers, 6);
    }

    #[test]
    fn tags_do_not_collide_across_steps() {
        let mut campaign = step_program("a");
        append_program(&mut campaign, step_program("b"), 1);
        let tags: Vec<u64> = campaign.ops[1]
            .iter()
            .filter_map(|o| match o {
                Op::Send { tag, .. } => Some(tag.0),
                _ => None,
            })
            .collect();
        assert_eq!(tags.len(), 2);
        assert_ne!(tags[0], tags[1]);
        assert_eq!(tags[1], TAG_STRIDE);
    }

    #[test]
    fn file_ids_remap() {
        let mut campaign = step_program("a");
        append_program(&mut campaign, step_program("b"), 1);
        let files: std::collections::HashSet<u32> = campaign.ops[0]
            .iter()
            .filter_map(|o| match o {
                Op::Open { file, .. } => Some(file.0),
                _ => None,
            })
            .collect();
        assert_eq!(files, [0u32, 1].into_iter().collect());
        // Second step's ops reference FileId(1) == file "b".
        assert_eq!(campaign.files[1].name, "b");
        let _ = FileId(0);
    }

    #[test]
    #[should_panic(expected = "same rank count")]
    fn mismatched_ranks_panic() {
        let mut a = step_program("a");
        let b = ProgramBuilder::new(vec![0; 3]).build();
        append_program(&mut a, b, 1);
    }

    #[test]
    fn buffers_take_max() {
        let mut a = step_program("a");
        let mut bigger = ProgramBuilder::new(vec![100, 3]);
        bigger.reserve_staging(0, 777);
        append_program(&mut a, bigger.build(), 1);
        assert_eq!(a.payload, vec![100, 8]);
        assert_eq!(a.staging[0], 777);
    }
}
