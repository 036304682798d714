//! Pipelined/serial equivalence: for random layouts, strategies, tuning
//! knobs, pipeline depths, and worker-jitter seeds, the double-buffered
//! writer runtime must produce checkpoint generations byte-identical to
//! the serial write path — on both the threaded executor and the MPI-like
//! runtime. This is the determinism contract of the pipelined writers:
//! background flushing reorders *work*, never *bytes*.

use proptest::prelude::*;
use rbio_repro::rbio::exec::{execute, ExecConfig};
use rbio_repro::rbio::format::{footer_len, materialize_payloads};
use rbio_repro::rbio::layout::{DataLayout, FieldSizes, FieldSpec};
use rbio_repro::rbio::rt;
use rbio_repro::rbio::strategy::{
    CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy as Ckpt, Tuning,
};
use rbio_repro::rbio_plan::{DataRef, Op, Program, ProgramBuilder};

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    let mut x = (u64::from(rank) << 24) ^ ((field as u64) << 8) ^ 0x5DEECE66D;
    for b in buf.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 33) as u8;
    }
}

/// Same random-plan generator as `cross_exec_props`, extended with the
/// write-scheduling knobs (`coalesce_fields`, `nf_sweet`).
#[allow(clippy::too_many_arguments)]
fn make_plan(
    np: u32,
    nfields: usize,
    sizes_seed: u64,
    strat_pick: u8,
    group: u32,
    block: u64,
    cb: u64,
    coalesce: bool,
    sweet: Option<u32>,
) -> CheckpointPlan {
    let mut x = sizes_seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 3000
    };
    let fields: Vec<FieldSpec> = (0..nfields)
        .map(|i| FieldSpec {
            name: format!("f{i}"),
            sizes: FieldSizes::PerRank((0..np).map(|_| next()).collect()),
        })
        .collect();
    let layout = DataLayout::new(np, fields);
    let strategy = match strat_pick {
        0 => Ckpt::OnePfpp,
        1 => Ckpt::CoIo {
            nf: group.min(np),
            aggregator_ratio: 1 + (group % 3),
        },
        2 => Ckpt::RbIo {
            ng: group.min(np),
            commit: RbIoCommit::IndependentPerWriter,
        },
        _ => Ckpt::RbIo {
            ng: group.min(np),
            commit: RbIoCommit::CollectiveShared,
        },
    };
    CheckpointSpec::new(layout, "x")
        .strategy(strategy)
        .tuning(Tuning {
            fs_block_size: block,
            align_domains: block.is_multiple_of(2),
            cb_buffer_size: cb,
            writer_buffer: cb.max(512),
            coalesce_fields: coalesce,
            nf_sweet: sweet,
        })
        .plan()
        .expect("valid plan")
}

fn assert_identical(plan: &CheckpointPlan, dir_a: &std::path::Path, dir_b: &std::path::Path) {
    for (i, pf) in plan.plan_files.iter().enumerate() {
        let a = std::fs::read(dir_a.join(&pf.name)).expect("serial file");
        let b = std::fs::read(dir_b.join(&pf.name)).expect("pipelined file");
        let committed = plan.program.files[i].size + footer_len(plan.layout.nfields());
        assert_eq!(a.len() as u64, committed, "file {} truncated", pf.name);
        assert_eq!(a, b, "file {} differs serial vs pipelined", pf.name);
        assert!(!dir_a.join(format!("{}.tmp", pf.name)).exists());
        assert!(!dir_b.join(format!("{}.tmp", pf.name)).exists());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Headline equivalence: serial `exec` vs pipelined `exec` at random
    /// depths and interleaving (jitter) seeds, over random plans that
    /// exercise every strategy and both new scheduling knobs.
    #[test]
    fn pipelined_exec_matches_serial_exec_byte_for_byte(
        np in 3u32..10,
        nfields in 1usize..3,
        sizes_seed in any::<u64>(),
        strat_pick in 0u8..4,
        group in 1u32..4,
        block in 256u64..4096,
        cb in 128u64..4096,
        depth_pick in 0u8..3,
        jitter in any::<u64>(),
        coalesce in any::<bool>(),
        sweet_pick in 0u8..3,
    ) {
        let depth = [1u32, 2, 4][depth_pick as usize];
        let sweet = [None, Some(1), Some(2)][sweet_pick as usize];
        let plan = make_plan(np, nfields, sizes_seed, strat_pick, group, block, cb, coalesce, sweet);
        let payloads = materialize_payloads(&plan, fill);

        let unique = format!(
            "{}-{np}-{nfields}-{sizes_seed:x}-{strat_pick}-{group}-{depth}-{jitter:x}-{coalesce}-{sweet_pick}",
            std::process::id()
        );
        let dir_serial = std::env::temp_dir().join(format!("rbio-pe-s-{unique}"));
        let dir_pipe = std::env::temp_dir().join(format!("rbio-pe-p-{unique}"));
        std::fs::remove_dir_all(&dir_serial).ok();
        std::fs::remove_dir_all(&dir_pipe).ok();

        execute(&plan.program, payloads.clone(), &ExecConfig::new(&dir_serial)).expect("serial");
        let cfg = ExecConfig::new(&dir_pipe)
            .pipeline_depth(depth)
            .pipeline_jitter(jitter);
        execute(&plan.program, payloads, &cfg).expect("pipelined");

        assert_identical(&plan, &dir_serial, &dir_pipe);
        std::fs::remove_dir_all(&dir_serial).ok();
        std::fs::remove_dir_all(&dir_pipe).ok();
    }

    /// The same contract on the MPI-like runtime: serial `exec` is the
    /// reference, the pipelined `rt` the subject — crossing both the
    /// executor boundary and the write-path boundary in one assertion.
    #[test]
    fn pipelined_rt_matches_serial_exec_byte_for_byte(
        np in 3u32..8,
        nfields in 1usize..3,
        sizes_seed in any::<u64>(),
        strat_pick in 0u8..4,
        group in 1u32..4,
        jitter in any::<u64>(),
        depth_pick in 0u8..2,
    ) {
        let depth = [2u32, 4][depth_pick as usize];
        let plan = make_plan(np, nfields, sizes_seed, strat_pick, group, 1024, 1024, false, None);
        let payloads = materialize_payloads(&plan, fill);

        let unique = format!(
            "{}-{np}-{nfields}-{sizes_seed:x}-{strat_pick}-{group}-{depth}-{jitter:x}",
            std::process::id()
        );
        let dir_serial = std::env::temp_dir().join(format!("rbio-pr-s-{unique}"));
        let dir_pipe = std::env::temp_dir().join(format!("rbio-pr-p-{unique}"));
        std::fs::remove_dir_all(&dir_serial).ok();
        std::fs::remove_dir_all(&dir_pipe).ok();

        execute(&plan.program, payloads.clone(), &ExecConfig::new(&dir_serial)).expect("serial");
        let program = &plan.program;
        let payloads_ref = &payloads;
        let cfg = rt::RtConfig::new(&dir_pipe)
            .pipeline_depth(depth)
            .pipeline_jitter(jitter);
        let cfg_ref = &cfg;
        rt::run(np, |mut comm| {
            let rank = comm.rank();
            rt::checkpoint_rank_with(&mut comm, program, &payloads_ref[rank as usize], cfg_ref)
                .expect("rt checkpoint");
        });

        assert_identical(&plan, &dir_serial, &dir_pipe);
        std::fs::remove_dir_all(&dir_serial).ok();
        std::fs::remove_dir_all(&dir_pipe).ok();
    }
}

/// Extended sweep for CI's `--include-ignored` job: every strategy x depth
/// x a bank of jitter seeds, one fixed ragged layout.
#[test]
#[ignore = "extended sweep; run with --include-ignored"]
fn pipelined_exec_equivalence_exhaustive_sweep() {
    let plan_for =
        |strat_pick: u8| make_plan(9, 2, 0xDEC0DE, strat_pick, 3, 2048, 1024, false, None);
    for strat_pick in 0u8..4 {
        let plan = plan_for(strat_pick);
        let payloads = materialize_payloads(&plan, fill);
        let dir_serial =
            std::env::temp_dir().join(format!("rbio-pex-s-{strat_pick}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir_serial).ok();
        execute(
            &plan.program,
            payloads.clone(),
            &ExecConfig::new(&dir_serial),
        )
        .expect("serial");
        for depth in [2u32, 3, 4, 8] {
            for jitter in [0u64, 1, 7, 0xFEED, u64::MAX] {
                let dir_pipe = std::env::temp_dir().join(format!(
                    "rbio-pex-p-{strat_pick}-{depth}-{jitter:x}-{}",
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir_pipe).ok();
                let cfg = ExecConfig::new(&dir_pipe)
                    .pipeline_depth(depth)
                    .pipeline_jitter(jitter);
                execute(&plan.program, payloads.clone(), &cfg).expect("pipelined");
                assert_identical(&plan, &dir_serial, &dir_pipe);
                std::fs::remove_dir_all(&dir_pipe).ok();
            }
        }
        std::fs::remove_dir_all(&dir_serial).ok();
    }
}

/// One rank, one file of three `n`-byte blocks, one `n`-byte staging
/// range used twice: pack A, defer its write, then overwrite the same
/// range — by packing B over it, or by reading B back from the file —
/// and defer a write of that. The file must read A, B, B.
fn staging_reuse_program(n: u64, reuse_by_read: bool) -> Program {
    let mut b = ProgramBuilder::new(vec![2 * n]);
    let file = b.file("reuse.bin", 3 * n);
    b.reserve_staging(0, n);
    let staging = DataRef::Staging { off: 0, len: n };
    let (a_own, b_own) = (
        DataRef::Own { off: 0, len: n },
        DataRef::Own { off: n, len: n },
    );
    let ops = [
        Op::Open { file, create: true },
        Op::Pack {
            src: Some(a_own),
            staging_off: 0,
            bytes: n,
        },
        Op::WriteAt {
            file,
            offset: 0,
            src: staging,
        },
        Op::WriteAt {
            file,
            offset: n,
            src: b_own,
        },
        if reuse_by_read {
            Op::ReadAt {
                file,
                offset: n,
                len: n,
                staging_off: 0,
            }
        } else {
            Op::Pack {
                src: Some(b_own),
                staging_off: 0,
                bytes: n,
            }
        },
        Op::WriteAt {
            file,
            offset: 2 * n,
            src: staging,
        },
        Op::Close { file },
    ];
    ops.into_iter().for_each(|op| b.push(0, op));
    b.build()
}

/// The interpreter hands a deferred write a slice of the frozen staging
/// image only past the rank's last staging mutation. A plan that reuses
/// staging after a deferred write must still get a snapshot: frozen any
/// earlier, the second fill would have nowhere to land (or the first
/// write would flush the second fill's bytes).
#[test]
fn staging_reused_after_a_deferred_write_matches_serial_at_every_depth_and_jitter() {
    const N: u64 = 4096;
    let payload: Vec<u8> = (0..2 * N).map(|i| (i * 31 + i / N * 101) as u8).collect();
    let (a, b) = payload.split_at(N as usize);
    let want = [a, b, b].concat();
    for reuse_by_read in [false, true] {
        let program = staging_reuse_program(N, reuse_by_read);
        let run = |depth: u32, jitter: u64| {
            let dir = std::env::temp_dir().join(format!(
                "rbio-reuse-{reuse_by_read}-{depth}-{jitter:x}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let cfg = ExecConfig::new(&dir)
                .pipeline_depth(depth)
                .pipeline_jitter(jitter);
            execute(&program, vec![payload.clone()], &cfg).expect("execute");
            let got = std::fs::read(dir.join("reuse.bin")).expect("output file");
            std::fs::remove_dir_all(&dir).ok();
            got
        };
        assert_eq!(run(1, 0), want, "serial reference");
        for depth in 2..=4 {
            for jitter in [0, 1, 7, 0xFEED, u64::MAX] {
                assert_eq!(
                    run(depth, jitter),
                    want,
                    "depth {depth}, jitter {jitter:#x}, reuse by read: {reuse_by_read}"
                );
            }
        }
    }
}
