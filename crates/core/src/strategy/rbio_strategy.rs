//! rbIO: reduced-blocking I/O (§IV-C) — the paper's contribution.
//!
//! Ranks split into `ng` groups; the first rank of each group is the
//! dedicated *writer*, the rest are *workers*. Workers `Isend` each field
//! block to their writer and return immediately — their blocking time is
//! the handoff, not the disk. The writer aggregates the group's data into a
//! staging image (reordering blocks into file order) and commits:
//!
//! * [`RbIoCommit::IndependentPerWriter`] (`nf = ng`): one file per writer,
//!   written with independent `write_at` calls, *buffering multiple fields
//!   per flush* (`Tuning::writer_buffer`) — the reason this mode doubles the
//!   `nf = 1` bandwidth in Fig. 5;
//! * [`RbIoCommit::CollectiveShared`] (`nf = 1`): all writers collectively
//!   write one shared file, per field, through the MPI-IO two-phase path —
//!   demonstrating that application-level two-phase does not interfere with
//!   ROMIO's.

use rbio_mpiio::{Contribution, SrcKind};
use rbio_plan::{DataRef, Op, Tag};

use crate::format;
use crate::strategy::{collective_commit, split_groups, PlanBuilder, RbIoCommit};

pub(crate) fn build(pb: &mut PlanBuilder<'_>, ng: u32, commit: RbIoCommit) {
    let layout = pb.spec.layout.clone();
    let app = pb.spec.app.clone();
    let tuning = pb.spec.tuning;
    let np = layout.nranks();
    let nfields = layout.nfields();
    let groups = split_groups(np, ng);
    let writers: Vec<u32> = groups.iter().map(|&(g0, _)| g0).collect();
    // Fig. 8: concurrent file creation has a sweet spot around nf ≈ 1024.
    // When ng exceeds `nf_sweet`, independent writers open/write/commit in
    // waves of that size, chained by 1-byte token messages: writer i holds
    // off until writer i - nf_sweet has published its file.
    let wave = tuning.nf_sweet.filter(|&k| k > 0 && k < ng);

    // The shared-file mode needs the global file registered first (owned by
    // the global leader, writer 0).
    let shared_file = match commit {
        RbIoCommit::CollectiveShared => Some(pb.add_file(0, np, 0)),
        RbIoCommit::IndependentPerWriter => None,
    };

    // Phase 1 on every group: workers hand their field blocks to the writer;
    // the writer assembles its group image in staging.
    //
    // Writer staging layout: [optional per-writer header][group image],
    // where the image packs field regions in order, each holding the
    // group's rank blocks in rank order — exactly the file body layout.
    // `image_off[gi][f]` is field `f`'s offset in group `gi`'s image, and
    // `image_off[gi][nfields]` the image's length.
    let image_off: Vec<Vec<u64>> = groups
        .iter()
        .map(|&(g0, g1)| {
            let mut off = vec![0u64; nfields + 1];
            for f in 0..nfields {
                off[f + 1] = off[f] + layout.field_total(f, g0, g1);
            }
            off
        })
        .collect();
    for (gi, &(g0, g1)) in groups.iter().enumerate() {
        let writer = g0;
        let per_writer_file = match commit {
            RbIoCommit::IndependentPerWriter => Some(pb.add_file(g0, g1, writer)),
            RbIoCommit::CollectiveShared => None,
        };
        let hdr = pb.payload_base(writer);
        let prefix = if per_writer_file.is_some() { hdr } else { 0 };
        let (field_off, image_len) = (&image_off[gi][..nfields], image_off[gi][nfields]);
        // Scratch slot after the image: workers' packages land here before
        // the writer reorders them ("the writer aggregates the data from
        // all workers in its group, reorders data blocks" — §IV-C).
        let scratch_off = prefix + image_len;
        let scratch_len = (g0 + 1..g1)
            .map(|r| layout.rank_payload_bytes(r))
            .max()
            .unwrap_or(0)
            // Wave tokens land in the scratch slot too (1 byte).
            .max(u64::from(wave.is_some()));
        pb.b.reserve_staging(writer, scratch_off + scratch_len);

        // Workers: ONE nonblocking send of the whole packed payload. Their
        // program ends here — that is the whole point of reduced-blocking
        // I/O, and the single-package handoff is what the paper's perceived
        // bandwidth (Table I) measures.
        for r in g0 + 1..g1 {
            let total = layout.rank_payload_bytes(r);
            if total == 0 {
                continue;
            }
            pb.b.push(
                r,
                Op::Send {
                    dst: writer,
                    tag: Tag(0),
                    src: DataRef::Own { off: 0, len: total },
                },
            );
        }

        // Writer: stage the header (independent mode) and its own blocks,
        // then receive each worker's package and reorder its field blocks
        // into file order.
        if per_writer_file.is_some() && hdr > 0 {
            pb.b.push(
                writer,
                Op::Pack {
                    src: Some(DataRef::Own { off: 0, len: hdr }),
                    staging_off: 0,
                    bytes: hdr,
                },
            );
        }
        for (f, &field_off) in field_off.iter().enumerate() {
            let own_len = layout.field_bytes(writer, f);
            if own_len > 0 {
                pb.b.push(
                    writer,
                    Op::Pack {
                        src: Some(DataRef::Own {
                            off: hdr + layout.payload_field_off(writer, f),
                            len: own_len,
                        }),
                        staging_off: prefix + field_off,
                        bytes: own_len,
                    },
                );
            }
        }
        for r in g0 + 1..g1 {
            let total = layout.rank_payload_bytes(r);
            if total == 0 {
                continue;
            }
            pb.b.push(
                writer,
                Op::Recv {
                    src: r,
                    tag: Tag(0),
                    bytes: total,
                    staging_off: scratch_off,
                },
            );
            for (f, &field_off) in field_off.iter().enumerate() {
                let len = layout.field_bytes(r, f);
                if len == 0 {
                    continue;
                }
                pb.b.push(
                    writer,
                    Op::Pack {
                        src: Some(DataRef::Staging {
                            off: scratch_off + layout.payload_field_off(r, f),
                            len,
                        }),
                        staging_off: prefix + field_off + layout.field_rank_off(f, g0, r),
                        bytes: len,
                    },
                );
            }
        }

        // Phase 2, independent mode: open own file and flush the staging
        // image in writer_buffer-sized chunks (fields coalesce into large
        // sequential writes — the buffering win of nf = ng).
        if let Some(file) = per_writer_file {
            let file_size = format::file_size(&layout, &app, g0, g1);
            debug_assert_eq!(file_size, prefix + image_len);
            if let Some(k) = wave {
                // Not in the first wave: wait for the writer k groups
                // earlier to finish its commit before creating our file.
                if gi as u32 >= k {
                    pb.b.push(
                        writer,
                        Op::Recv {
                            src: writers[gi - k as usize],
                            tag: Tag(1),
                            bytes: 1,
                            staging_off: scratch_off,
                        },
                    );
                }
            }
            pb.b.push(writer, Op::Open { file, create: true });
            let chunk = tuning.writer_buffer.max(1);
            let mut off = 0u64;
            while off < file_size {
                let len = chunk.min(file_size - off);
                pb.b.push(
                    writer,
                    Op::WriteAt {
                        file,
                        offset: off,
                        src: DataRef::Staging { off, len },
                    },
                );
                off += len;
            }
            pb.b.push(writer, Op::Close { file });
            pb.b.push(writer, Op::Commit { file });
            if let Some(k) = wave {
                // Release the writer k groups later into the next wave.
                let next = gi + k as usize;
                if next < writers.len() {
                    pb.b.push(
                        writer,
                        Op::Send {
                            dst: writers[next],
                            tag: Tag(1),
                            src: DataRef::Synthetic { len: 1 },
                        },
                    );
                }
            }
        }
    }

    // Phase 2, shared mode: writers collectively write the single file,
    // field by field (each field must hit the disk before the next — the
    // flush-per-field cost the paper measures for nf = 1).
    if let Some(file) = shared_file {
        let per_field: Vec<Vec<Contribution>> = (0..nfields)
            .map(|f| {
                let field_base = format::field_data_off(&layout, &app, 0, np, f);
                groups
                    .iter()
                    .enumerate()
                    .filter_map(|(gi, &(g0, g1))| {
                        let len = layout.field_total(f, g0, g1);
                        if len == 0 {
                            return None;
                        }
                        Some(Contribution {
                            rank: writers[gi],
                            file_off: field_base + layout.field_rank_off(f, 0, g0),
                            src_off: image_off[gi][f],
                            len,
                            src: SrcKind::Staging,
                        })
                    })
                    .collect()
            })
            .collect();
        // Round buffers live after the largest group image in staging.
        // Tags start at `nfields`, past the worker hand-off's `Tag(0)`.
        let agg_staging_base = image_off.iter().map(|o| o[nfields]).max().unwrap_or(0);
        collective_commit(
            pb,
            file,
            &writers,
            writers.clone(),
            per_field,
            agg_staging_base,
            nfields as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::layout::DataLayout;
    use crate::strategy::{CheckpointSpec, RbIoCommit, Strategy, Tuning};
    use rbio_plan::Op;

    fn layout(np: u32) -> DataLayout {
        DataLayout::uniform(np, &[("Ex", 1000), ("Ey", 1000), ("Hz", 500)])
    }

    fn tuning() -> Tuning {
        Tuning {
            fs_block_size: 4096,
            align_domains: true,
            cb_buffer_size: 4096,
            writer_buffer: 2048,
            ..Tuning::default()
        }
    }

    #[test]
    fn independent_mode_one_file_per_writer() {
        let plan = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::rbio(4))
            .tuning(tuning())
            .plan()
            .unwrap();
        assert_eq!(plan.plan_files.len(), 4);
        assert_eq!(plan.program.writer_ranks(), vec![0, 4, 8, 12]);
        // Workers only send: no opens, no barriers on worker ranks.
        for r in [1u32, 2, 3, 5, 6, 7] {
            let ops = &plan.program.ops[r as usize];
            assert!(
                ops.iter().all(|o| matches!(o, Op::Send { .. })),
                "rank {r}: {ops:?}"
            );
            assert_eq!(ops.len(), 1); // one package send per worker
        }
        assert_eq!(plan.program.stats().barriers, 0);
    }

    #[test]
    fn writer_buffering_coalesces_fields() {
        // Group payload = 4 ranks x 2500 B = 10000 B + header; with a 1 MiB
        // buffer the writer should need very few writes (here: 1).
        let mut t = tuning();
        t.writer_buffer = 1 << 20;
        let plan = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::rbio(4))
            .tuning(t)
            .plan()
            .unwrap();
        let writes_rank0 = plan.program.ops[0]
            .iter()
            .filter(|o| matches!(o, Op::WriteAt { .. }))
            .count();
        assert_eq!(writes_rank0, 1);

        // With a tiny buffer, many chunked writes.
        let mut t = tuning();
        t.writer_buffer = 1000;
        let plan = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::rbio(4))
            .tuning(t)
            .plan()
            .unwrap();
        let writes_rank0 = plan.program.ops[0]
            .iter()
            .filter(|o| matches!(o, Op::WriteAt { .. }))
            .count();
        assert!(writes_rank0 >= 10, "got {writes_rank0}");
    }

    #[test]
    fn collective_shared_single_file() {
        let plan = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::RbIo {
                ng: 4,
                commit: RbIoCommit::CollectiveShared,
            })
            .tuning(tuning())
            .plan()
            .unwrap();
        assert_eq!(plan.plan_files.len(), 1);
        assert_eq!((plan.plan_files[0].r0, plan.plan_files[0].r1), (0, 16));
        // Only writers touch the file.
        assert_eq!(plan.program.stats().opens, 4);
        // Per-field barriers among writers: 1 open + 3 fields.
        let barriers_w0 = plan.program.ops[0]
            .iter()
            .filter(|o| matches!(o, Op::Barrier { .. }))
            .count();
        assert_eq!(barriers_w0, 4);
        // Workers still only send.
        assert!(plan.program.ops[1]
            .iter()
            .all(|o| matches!(o, Op::Send { .. })));
    }

    #[test]
    fn degenerate_all_writers() {
        // ng = np: every rank its own writer; no messages at all.
        let plan = CheckpointSpec::new(layout(8), "t")
            .strategy(Strategy::rbio(8))
            .tuning(tuning())
            .plan()
            .unwrap();
        assert_eq!(plan.program.stats().sends, 0);
        assert_eq!(plan.plan_files.len(), 8);
    }

    #[test]
    fn single_group_whole_job() {
        let plan = CheckpointSpec::new(layout(8), "t")
            .strategy(Strategy::rbio(1))
            .tuning(tuning())
            .plan()
            .unwrap();
        assert_eq!(plan.plan_files.len(), 1);
        // 7 workers, one package each.
        assert_eq!(plan.program.stats().sends, 7);
    }

    #[test]
    fn per_rank_sizes_supported() {
        use crate::layout::{FieldSizes, FieldSpec};
        let sizes: Vec<u64> = (0..12).map(|r| 100 + r * 17).collect();
        let l = DataLayout::new(
            12,
            vec![
                FieldSpec {
                    name: "v".into(),
                    sizes: FieldSizes::PerRank(sizes),
                },
                FieldSpec {
                    name: "u".into(),
                    sizes: FieldSizes::Uniform(64),
                },
            ],
        );
        for strat in [
            Strategy::rbio(3),
            Strategy::RbIo {
                ng: 3,
                commit: RbIoCommit::CollectiveShared,
            },
        ] {
            let plan = CheckpointSpec::new(l.clone(), "t")
                .strategy(strat)
                .tuning(tuning())
                .plan()
                .unwrap();
            assert!(plan.total_file_bytes() > l.total_bytes());
        }
    }

    #[test]
    fn nf_sweet_schedules_writers_in_waves() {
        let mut t = tuning();
        t.nf_sweet = Some(2);
        let plan = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::rbio(4))
            .tuning(t)
            .plan()
            .unwrap();
        // Writers 0,4 go first; 8,12 each wait on a token; 0,4 each send
        // one. Workers are untouched.
        let tokens_sent = |r: u32| {
            plan.program.ops[r as usize]
                .iter()
                .filter(|o| matches!(o, Op::Send { src, .. } if src.len() == 1))
                .count()
        };
        let tokens_recv = |r: u32| {
            plan.program.ops[r as usize]
                .iter()
                .filter(|o| matches!(o, Op::Recv { bytes: 1, .. }))
                .count()
        };
        assert_eq!(
            (1, 1, 0, 0),
            (
                tokens_sent(0),
                tokens_sent(4),
                tokens_sent(8),
                tokens_sent(12)
            )
        );
        assert_eq!(
            (0, 0, 1, 1),
            (
                tokens_recv(0),
                tokens_recv(4),
                tokens_recv(8),
                tokens_recv(12)
            )
        );
        // The token wait precedes the writer's Open.
        let ops8 = &plan.program.ops[8];
        let recv_idx = ops8
            .iter()
            .position(|o| matches!(o, Op::Recv { bytes: 1, .. }))
            .unwrap();
        let open_idx = ops8
            .iter()
            .position(|o| matches!(o, Op::Open { .. }))
            .unwrap();
        assert!(recv_idx < open_idx);
    }

    #[test]
    fn nf_sweet_at_or_above_ng_is_a_no_op() {
        let mut t = tuning();
        t.nf_sweet = Some(4);
        let with = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::rbio(4))
            .tuning(t)
            .plan()
            .unwrap();
        let without = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::rbio(4))
            .tuning(tuning())
            .plan()
            .unwrap();
        assert_eq!(with.program.ops, without.program.ops);
    }

    #[test]
    fn coalesced_shared_commit_has_one_field_barrier() {
        let mut t = tuning();
        t.coalesce_fields = true;
        let plan = CheckpointSpec::new(layout(16), "t")
            .strategy(Strategy::RbIo {
                ng: 4,
                commit: RbIoCommit::CollectiveShared,
            })
            .tuning(t)
            .plan()
            .unwrap();
        // 1 open barrier + 1 batched-collective barrier (vs 1 + 3 fields).
        let barriers_w0 = plan.program.ops[0]
            .iter()
            .filter(|o| matches!(o, Op::Barrier { .. }))
            .count();
        assert_eq!(barriers_w0, 2);
        assert_eq!(plan.plan_files.len(), 1);
    }
}
