//! coIO: tuned MPI-IO collective writes (§IV-B).
//!
//! Ranks split into `nf` contiguous groups; each group collectively writes
//! one shared file, field by field ("in both cases of coIO, all the
//! processors commit data by fields"). Within a group the write expands
//! into the ROMIO two-phase exchange (`rbio-mpiio`) with one aggregator per
//! `aggregator_ratio` ranks, domains aligned to filesystem blocks.

use rbio_mpiio::{Contribution, SrcKind};

use crate::format;
use crate::strategy::{collective_commit, split_groups, PlanBuilder};

pub(crate) fn build(pb: &mut PlanBuilder<'_>, nf: u32, aggregator_ratio: u32) {
    let layout = pb.spec.layout.clone();
    let app = pb.spec.app.clone();

    for (g0, g1) in split_groups(layout.nranks(), nf) {
        let file = pb.add_file(g0, g1, g0);
        let group: Vec<u32> = (g0..g1).collect();
        // Aggregators: every `aggregator_ratio`-th rank of the group (the
        // Blue Gene MPI-IO library spreads them one per node across psets;
        // with 4 ranks/node a stride of 32 lands on every 8th node).
        let aggregators: Vec<u32> = group
            .iter()
            .copied()
            .step_by(aggregator_ratio as usize)
            .collect();

        // Contributions of each field's collective write.
        let per_field: Vec<Vec<Contribution>> = (0..layout.nfields())
            .map(|f| {
                let field_base = format::field_data_off(&layout, &app, g0, g1, f);
                group
                    .iter()
                    .filter_map(|&r| {
                        let len = layout.field_bytes(r, f);
                        if len == 0 {
                            return None;
                        }
                        Some(Contribution {
                            rank: r,
                            file_off: field_base + layout.field_rank_off(f, g0, r),
                            src_off: pb.payload_base(r) + layout.payload_field_off(r, f),
                            len,
                            src: SrcKind::Own,
                        })
                    })
                    .collect()
            })
            .collect();
        collective_commit(pb, file, &group, aggregators, per_field, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use crate::layout::DataLayout;
    use crate::strategy::{CheckpointSpec, Strategy, Tuning};
    use rbio_plan::Op;

    fn spec(np: u32, nf: u32, ratio: u32) -> CheckpointSpec {
        let layout = DataLayout::uniform(np, &[("Ex", 1000), ("Ey", 500)]);
        CheckpointSpec::new(layout, "t")
            .strategy(Strategy::CoIo {
                nf,
                aggregator_ratio: ratio,
            })
            .tuning(Tuning {
                fs_block_size: 4096,
                align_domains: true,
                cb_buffer_size: 8192,
                writer_buffer: 8192,
                ..Tuning::default()
            })
    }

    #[test]
    fn single_shared_file() {
        let plan = spec(16, 1, 4).plan().unwrap();
        assert_eq!(plan.plan_files.len(), 1);
        assert_eq!(plan.plan_files[0].r0, 0);
        assert_eq!(plan.plan_files[0].r1, 16);
        // Everybody opens the shared file.
        assert_eq!(plan.program.stats().opens, 16);
        // Only aggregators (stride 4 -> ranks 0,4,8,12) plus the header
        // writer (rank 0) touch the file with writes.
        let writers = plan.program.writer_ranks();
        assert_eq!(writers, vec![0, 4, 8, 12]);
    }

    #[test]
    fn split_collective_groups() {
        let plan = spec(16, 4, 2).plan().unwrap();
        assert_eq!(plan.plan_files.len(), 4);
        for (i, f) in plan.plan_files.iter().enumerate() {
            assert_eq!(f.r0, i as u32 * 4);
            assert_eq!(f.r1, i as u32 * 4 + 4);
        }
        // Group leaders own headers.
        let owners: Vec<u32> = plan
            .payload_meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.header_for_file.is_some())
            .map(|(r, _)| r as u32)
            .collect();
        assert_eq!(owners, vec![0, 4, 8, 12]);
    }

    #[test]
    fn barrier_per_field_plus_open_barrier() {
        let plan = spec(8, 1, 8).plan().unwrap();
        let barriers_rank0 = plan.program.ops[0]
            .iter()
            .filter(|o| matches!(o, Op::Barrier { .. }))
            .count();
        // 1 open barrier + 2 field barriers.
        assert_eq!(barriers_rank0, 3);
    }

    #[test]
    fn aggregator_ratio_bigger_than_group_means_leader_only() {
        let plan = spec(16, 4, 64).plan().unwrap();
        assert_eq!(plan.program.writer_ranks(), vec![0, 4, 8, 12]);
    }

    #[test]
    fn total_bytes_match_layout_plus_headers() {
        let plan = spec(16, 2, 4).plan().unwrap();
        let header_bytes: u64 = plan.payload_meta.iter().map(|m| m.header_len).sum();
        assert_eq!(
            plan.total_file_bytes(),
            plan.layout.total_bytes() + header_bytes
        );
    }

    #[test]
    fn coalesced_fields_single_barrier_and_same_bytes() {
        let mut s = spec(8, 1, 8);
        s.tuning.coalesce_fields = true;
        let plan = s.plan().unwrap();
        let barriers_rank0 = plan.program.ops[0]
            .iter()
            .filter(|o| matches!(o, Op::Barrier { .. }))
            .count();
        // 1 open barrier + 1 batched collective (vs 1 + 2 fields).
        assert_eq!(barriers_rank0, 2);
        assert_eq!(
            plan.total_file_bytes(),
            spec(8, 1, 8).plan().unwrap().total_file_bytes()
        );
    }

    #[test]
    fn uneven_groups_still_validate() {
        // 10 ranks into 3 files: groups of 4/3/3.
        let layout = DataLayout::uniform(10, &[("x", 777)]);
        let plan = CheckpointSpec::new(layout, "t")
            .strategy(Strategy::CoIo {
                nf: 3,
                aggregator_ratio: 2,
            })
            .plan()
            .unwrap();
        assert_eq!(plan.plan_files.len(), 3);
        assert_eq!(plan.plan_files[0].r1 - plan.plan_files[0].r0, 4);
    }
}
