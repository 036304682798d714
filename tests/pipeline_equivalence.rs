//! Pipelined/serial equivalence: for random layouts, strategies, tuning
//! knobs and pipeline depths, the double-buffered writer runtime must produce checkpoint generations byte-identical to
//! the serial write path — on both the threaded executor and the MPI-like
//! runtime. This is the determinism contract of the pipelined writers:
//! background flushing reorders *work*, never *bytes*.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;
use rbio_repro::rbio::exec::{execute, ExecConfig};
use rbio_repro::rbio::format::{footer_len, materialize_payloads};
use rbio_repro::rbio::layout::{DataLayout, FieldSizes, FieldSpec};
use rbio_repro::rbio::rt;
use rbio_repro::rbio::strategy::{
    CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy as Ckpt, Tuning,
};
use rbio_repro::rbio_plan::{DataRef, FileId, Op, Program, ProgramBuilder, Tag};

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
    /// depths, over random plans that exercise every strategy and both
    /// new scheduling knobs. The interleavings themselves are explored
    /// under the controlled scheduler by `rbio-check` (p2, p3, p12).
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
        coalesce in any::<bool>(),
        sweet_pick in 0u8..3,
    ) {
        let depth = [1u32, 2, 4][depth_pick as usize];
        let sweet = [None, Some(1), Some(2)][sweet_pick as usize];
        let plan = make_plan(np, nfields, sizes_seed, strat_pick, group, block, cb, coalesce, sweet);
        let payloads = materialize_payloads(&plan, fill);

        let unique = format!(
            "{}-{np}-{nfields}-{sizes_seed:x}-{strat_pick}-{group}-{depth}-{coalesce}-{sweet_pick}",
            std::process::id()
        );
        let dir_serial = std::env::temp_dir().join(format!("rbio-pe-s-{unique}"));
        let dir_pipe = std::env::temp_dir().join(format!("rbio-pe-p-{unique}"));
        std::fs::remove_dir_all(&dir_serial).ok();
        std::fs::remove_dir_all(&dir_pipe).ok();

        execute(&plan.program, payloads.clone(), &ExecConfig::new(&dir_serial)).expect("serial");
        let cfg = ExecConfig::new(&dir_pipe).pipeline_depth(depth);
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
        depth_pick in 0u8..2,
    ) {
        let depth = [2u32, 4][depth_pick as usize];
        let plan = make_plan(np, nfields, sizes_seed, strat_pick, group, 1024, 1024, false, None);
        let payloads = materialize_payloads(&plan, fill);

        let unique = format!(
            "{}-{np}-{nfields}-{sizes_seed:x}-{strat_pick}-{group}-{depth}",
            std::process::id()
        );
        let dir_serial = std::env::temp_dir().join(format!("rbio-pr-s-{unique}"));
        let dir_pipe = std::env::temp_dir().join(format!("rbio-pr-p-{unique}"));
        std::fs::remove_dir_all(&dir_serial).ok();
        std::fs::remove_dir_all(&dir_pipe).ok();

        execute(&plan.program, payloads.clone(), &ExecConfig::new(&dir_serial)).expect("serial");
        let program = &plan.program;
        let payloads_ref = &payloads;
        let cfg = rt::RtConfig::new(&dir_pipe).pipeline_depth(depth);
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

/// Extended sweep for CI's `--include-ignored` job: every strategy x depth,
/// one fixed ragged layout.
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
            let dir_pipe = std::env::temp_dir().join(format!(
                "rbio-pex-p-{strat_pick}-{depth}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir_pipe).ok();
            let cfg = ExecConfig::new(&dir_pipe).pipeline_depth(depth);
            execute(&plan.program, payloads.clone(), &cfg).expect("pipelined");
            assert_identical(&plan, &dir_serial, &dir_pipe);
            std::fs::remove_dir_all(&dir_pipe).ok();
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

/// A deferred write holds references to the bytes its staging range
/// covered when it was issued. A plan that reuses staging after such a
/// write must not change what it flushes: the first write must still
/// land A, whatever later lands on its staging range.
#[test]
fn staging_reused_after_a_deferred_write_matches_serial_at_every_depth_and_both_reuses() {
    const N: u64 = 4096;
    let payload: Vec<u8> = (0..2 * N).map(|i| (i * 31 + i / N * 101) as u8).collect();
    let (a, b) = payload.split_at(N as usize);
    let want = [a, b, b].concat();
    for reuse_by_read in [false, true] {
        let program = staging_reuse_program(N, reuse_by_read);
        let run = |depth: u32| {
            let dir = std::env::temp_dir().join(format!(
                "rbio-reuse-{reuse_by_read}-{depth}-{}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let cfg = ExecConfig::new(&dir).pipeline_depth(depth);
            execute(&program, vec![payload.clone()], &cfg).expect("execute");
            let got = std::fs::read(dir.join("reuse.bin")).expect("output file");
            std::fs::remove_dir_all(&dir).ok();
            got
        };
        assert_eq!(run(1), want, "serial reference");
        for depth in 2..=4 {
            assert_eq!(
                run(depth),
                want,
                "depth {depth}, reuse by read: {reuse_by_read}"
            );
        }
    }
}

/// What `program` leaves in its files when every rank's staging is a
/// zero-filled flat `Vec<u8>` that packs, receives and reads copy into.
/// Ranks run round-robin; a rank whose next receive has no message yet
/// waits for the next round.
fn flat_model(program: &Program, payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let n = program.nranks() as usize;
    let mut staging: Vec<Vec<u8>> = program
        .staging
        .iter()
        .map(|&s| vec![0; s as usize])
        .collect();
    let mut files: Vec<Vec<u8>> = program
        .files
        .iter()
        .map(|f| vec![0; f.size as usize])
        .collect();
    let mut mail: HashMap<(usize, u32, u64), VecDeque<Vec<u8>>> = HashMap::new();
    let mut pc = vec![0usize; n];
    let range = |off: u64, len: u64| off as usize..(off + len) as usize;
    loop {
        let mut progressed = false;
        for r in 0..n {
            while let Some(op) = program.ops[r].get(pc[r]) {
                let read = |src: &DataRef, staging: &[u8]| match *src {
                    DataRef::Own { off, len } => payloads[r][range(off, len)].to_vec(),
                    DataRef::Staging { off, len } => staging[range(off, len)].to_vec(),
                    DataRef::Synthetic { .. } => unreachable!("no synthetic data here"),
                };
                match op {
                    Op::Pack {
                        src: Some(src),
                        staging_off,
                        bytes,
                    } => {
                        let data = read(src, &staging[r]);
                        staging[r][range(*staging_off, *bytes)].copy_from_slice(&data);
                    }
                    Op::Send { dst, tag, src } => {
                        let data = read(src, &staging[r]);
                        mail.entry((r, *dst, tag.0)).or_default().push_back(data);
                    }
                    Op::Recv {
                        src,
                        tag,
                        bytes,
                        staging_off,
                    } => {
                        let queue = mail.get_mut(&(*src as usize, r as u32, tag.0));
                        let Some(data) = queue.and_then(VecDeque::pop_front) else {
                            break;
                        };
                        staging[r][range(*staging_off, *bytes)].copy_from_slice(&data);
                    }
                    Op::WriteAt { file, offset, src } => {
                        let data = read(src, &staging[r]);
                        let f = &mut files[file.0 as usize];
                        f[range(*offset, data.len() as u64)].copy_from_slice(&data);
                    }
                    Op::ReadAt {
                        file,
                        offset,
                        len,
                        staging_off,
                    } => {
                        let data = files[file.0 as usize][range(*offset, *len)].to_vec();
                        staging[r][range(*staging_off, *len)].copy_from_slice(&data);
                    }
                    _ => {}
                }
                pc[r] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    assert!(
        (0..n).all(|r| pc[r] == program.ops[r].len()),
        "the flat model deadlocked"
    );
    files
}

/// Run `program` under every depth 1–4 and under the
/// serial one-write-per-op reference; each must leave the files the flat
/// model computes.
fn assert_matches_the_flat_model(name: &str, program: &Program, payloads: Vec<Vec<u8>>) {
    let want = flat_model(program, &payloads);
    let run = |label: &str, cfg: &dyn Fn(&std::path::Path) -> ExecConfig| {
        let dir =
            std::env::temp_dir().join(format!("rbio-rope-{name}-{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        execute(program, payloads.clone(), &cfg(&dir)).expect("execute");
        let got: Vec<Vec<u8>> = program
            .files
            .iter()
            .map(|f| std::fs::read(dir.join(&f.name)).expect("output file"))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        got
    };
    let reference = run("ref", &|dir| ExecConfig::new(dir).coalesce_caps(1, 1));
    assert_eq!(reference, want, "{name}: serial reference vs flat model");
    for depth in 1..=4 {
        let got = run(&depth.to_string(), &|dir| {
            ExecConfig::new(dir).pipeline_depth(depth)
        });
        assert_eq!(got, want, "{name}: depth {depth}");
    }
}

/// `n` bytes of a pattern keyed by `seed`.
fn pattern(seed: u64, n: u64) -> Vec<u8> {
    (0..n)
        .map(|i| (i * 31 + seed * 101 + i / 7) as u8)
        .collect()
}

const N: u64 = 3000;

fn build(
    payload: Vec<u64>,
    staging: &[u64],
    files: &[(&str, u64)],
    ops: Vec<(u32, Op)>,
) -> Program {
    let mut b = ProgramBuilder::new(payload);
    for (rank, &bytes) in staging.iter().enumerate() {
        b.reserve_staging(rank as u32, bytes);
    }
    for &(name, size) in files {
        b.file(name, size);
    }
    ops.into_iter().for_each(|(rank, op)| b.push(rank, op));
    b.build()
}

fn own(off: u64, len: u64) -> DataRef {
    DataRef::Own { off, len }
}

fn stg(off: u64, len: u64) -> DataRef {
    DataRef::Staging { off, len }
}

fn pack(src: DataRef, staging_off: u64) -> Op {
    Op::Pack {
        src: Some(src),
        staging_off,
        bytes: src.len(),
    }
}

fn write(offset: u64, src: DataRef) -> Op {
    Op::WriteAt {
        file: FileId(0),
        offset,
        src,
    }
}

fn open_close(rank: u32, body: Vec<Op>) -> Vec<(u32, Op)> {
    let file = FileId(0);
    std::iter::once(Op::Open { file, create: true })
        .chain(body)
        .chain(std::iter::once(Op::Close { file }))
        .map(|op| (rank, op))
        .collect()
}

/// A writer receives a message into a scratch slot, packs it into its
/// image and writes the slot itself (deferred); the next message then
/// lands on the same slot and is packed beside the first.
#[test]
fn a_recv_over_a_scratch_range_already_packed_matches_the_flat_model() {
    let scratch = 2 * N;
    let recv = Op::Recv {
        src: 1,
        tag: Tag(0),
        bytes: N,
        staging_off: scratch,
    };
    let send = |off| Op::Send {
        dst: 0,
        tag: Tag(0),
        src: own(off, N),
    };
    let mut ops = vec![(1, send(0)), (1, send(N))];
    ops.extend(open_close(
        0,
        vec![
            recv.clone(),
            pack(stg(scratch, N), 0),
            write(2 * N, stg(scratch, N)),
            recv,
            pack(stg(scratch, N), N),
            write(0, stg(0, 2 * N)),
        ],
    ));
    let program = build(
        vec![0, 2 * N],
        &[3 * N, 0],
        &[("recv-over.bin", 3 * N)],
        ops,
    );
    let payloads = vec![Vec::new(), pattern(1, 2 * N)];
    assert_matches_the_flat_model("recv-over", &program, payloads);
}

/// A pack lands across the boundary of two earlier ones, another inside
/// one of them, and a staging → staging pack then overlaps its own source.
#[test]
fn a_pack_over_two_earlier_segments_matches_the_flat_model() {
    let ops = open_close(
        0,
        vec![
            pack(own(0, N), 0),
            pack(own(N, N), N),
            pack(own(2 * N, N), N / 2),
            pack(own(N / 3, N / 8), N / 2 + N / 4),
            write(2 * N, stg(0, 2 * N)),
            pack(stg(0, N), N / 4),
            write(0, stg(0, 2 * N)),
        ],
    );
    let program = build(vec![3 * N], &[2 * N], &[("pack-over.bin", 4 * N)], ops);
    assert_matches_the_flat_model("pack-over", &program, vec![pattern(2, 3 * N)]);
}

/// Staging nothing landed in reads as zeros: a whole range, and the
/// stretches around one pack.
#[test]
fn a_write_of_never_written_staging_reads_zeros() {
    let ops = open_close(
        0,
        vec![
            write(0, stg(0, N)),
            pack(own(0, N / 2), N + N / 4),
            write(N, stg(N, 2 * N)),
        ],
    );
    let program = build(vec![N], &[3 * N], &[("zeros.bin", 3 * N)], ops);
    assert_matches_the_flat_model("zeros", &program, vec![pattern(3, N)]);
}

/// A send of a staging range that spans two segments leaves as one
/// message, which the receiver writes.
#[test]
fn a_send_spanning_two_segments_matches_the_flat_model() {
    let mut ops = vec![
        (0, pack(own(0, N), 0)),
        (0, pack(own(N, N), N)),
        (
            0,
            Op::Send {
                dst: 1,
                tag: Tag(0),
                src: stg(N / 2, N),
            },
        ),
    ];
    ops.extend(open_close(
        1,
        vec![
            Op::Recv {
                src: 0,
                tag: Tag(0),
                bytes: N,
                staging_off: 0,
            },
            write(0, stg(0, N)),
        ],
    ));
    let program = build(vec![2 * N, 0], &[2 * N, N], &[("send-span.bin", N)], ops);
    let payloads = vec![pattern(4, 2 * N), Vec::new()];
    assert_matches_the_flat_model("send-span", &program, payloads);
}

/// `ReadAt` lands file bytes over part of a packed segment; the write
/// that follows gathers packed, read-back and never-written staging.
#[test]
fn a_read_into_staging_then_a_write_matches_the_flat_model() {
    let ops = open_close(
        0,
        vec![
            write(0, own(0, N)),
            pack(own(N, N), 0),
            Op::ReadAt {
                file: FileId(0),
                offset: 0,
                len: N,
                staging_off: N / 2,
            },
            write(N, stg(0, 2 * N)),
        ],
    );
    let program = build(vec![2 * N], &[2 * N], &[("read-write.bin", 3 * N)], ops);
    assert_matches_the_flat_model("read-write", &program, vec![pattern(5, 2 * N)]);
}
