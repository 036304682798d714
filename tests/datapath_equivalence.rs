//! Zero-copy datapath equivalence properties.
//!
//! 1. For random ragged layouts and strategies, the datapath (refcounted
//!    buffers, coalesced vectored writes) produces files byte-identical to
//!    a serial run that issues one write per plan op — under both the
//!    thread-per-rank executor and the MPI-like runtime, serial and
//!    pipelined.
//! 2. The CRC kernels — hardware `crc32c` where the CPU has one, slice-by-8
//!    everywhere — equal the byte-at-a-time scalar oracles on arbitrary
//!    lengths and (mis)alignments, including empty input and 1–15 byte
//!    tails, one-shot and streamed.
//! 3. Parallel restart (per-file fan-out + per-region CRC verify) restores
//!    exactly what was written.

use proptest::prelude::*;
use rbio_repro::rbio::exec::{execute, ExecConfig};
use rbio_repro::rbio::format::{
    crc32, crc32_scalar, crc32c, crc32c_scalar, crc32c_sliced, crc32c_update, materialize_payloads,
};
use rbio_repro::rbio::layout::{DataLayout, FieldSizes, FieldSpec};
use rbio_repro::rbio::restart::{read_checkpoint, read_checkpoint_auto};
use rbio_repro::rbio::rt;
use rbio_repro::rbio::strategy::{CheckpointSpec, RbIoCommit, Strategy as Ckpt};

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    let mut x = (u64::from(rank) << 24) ^ ((field as u64) << 8) ^ 0x2545F4914F6CDD1D;
    for b in buf.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 33) as u8;
    }
}

fn ragged_layout(np: u32, nfields: usize, seed: u64) -> DataLayout {
    let mut x = seed | 1;
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
    DataLayout::new(np, fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn both_executors_match_a_serial_one_write_per_op_run(
        np in 3u32..10,
        nfields in 1usize..3,
        sizes_seed in any::<u64>(),
        strat_pick in 0u8..4,
        group in 1u32..4,
        depth in 1u32..4,
    ) {
        let layout = ragged_layout(np, nfields, sizes_seed);
        let strategy = match strat_pick {
            0 => Ckpt::OnePfpp,
            1 => Ckpt::CoIo { nf: group.min(np), aggregator_ratio: 1 + (group % 3) },
            2 => Ckpt::RbIo { ng: group.min(np), commit: RbIoCommit::IndependentPerWriter },
            _ => Ckpt::RbIo { ng: group.min(np), commit: RbIoCommit::CollectiveShared },
        };
        let plan = CheckpointSpec::new(layout, "zc")
            .strategy(strategy)
            .plan()
            .expect("valid plan");
        let payloads = materialize_payloads(&plan, fill);

        let unique = format!(
            "{}-{np}-{nfields}-{sizes_seed:x}-{strat_pick}-{group}-{depth}",
            std::process::id()
        );
        let mk = |tag: &str| {
            let d = std::env::temp_dir().join(format!("rbio-dpq-{tag}-{unique}"));
            std::fs::remove_dir_all(&d).ok();
            d
        };

        // Reference: serial thread-per-rank executor, one write per op.
        let dir_ref = mk("ref");
        let cfg_ref = ExecConfig::new(&dir_ref).coalesce_caps(1, 1);
        execute(&plan.program, payloads.clone(), &cfg_ref).expect("reference exec");

        // exec, coalescing, at the sampled pipeline depth.
        let dir_exec = mk("exec");
        let cfg_exec = ExecConfig::new(&dir_exec).pipeline_depth(depth);
        execute(&plan.program, payloads.clone(), &cfg_exec).expect("exec");

        // The MPI-like runtime, at the same depth.
        let dir_rt = mk("rt");
        let program = &plan.program;
        let payloads_ref = &payloads;
        let rt_cfg = rt::RtConfig::new(&dir_rt).pipeline_depth(depth);
        let rt_cfg_ref = &rt_cfg;
        rt::run(np, |mut comm| {
            let rank = comm.rank();
            rt::checkpoint_rank_with(&mut comm, program, &payloads_ref[rank as usize], rt_cfg_ref)
                .expect("rt checkpoint");
        });

        for pf in &plan.plan_files {
            let a = std::fs::read(dir_ref.join(&pf.name)).expect("ref file");
            let b = std::fs::read(dir_exec.join(&pf.name)).expect("exec file");
            let c = std::fs::read(dir_rt.join(&pf.name)).expect("rt file");
            prop_assert_eq!(&a, &b, "exec differs in {}", pf.name);
            prop_assert_eq!(&a, &c, "rt differs in {}", pf.name);
        }
        for d in [&dir_ref, &dir_exec, &dir_rt] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn sliced_crc_equals_scalar_any_length_and_alignment(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        start in 0usize..16,
    ) {
        let start = start.min(data.len());
        let s = &data[start..];
        prop_assert_eq!(crc32(s), crc32_scalar(s));
        prop_assert_eq!(crc32c_sliced(s), crc32c_scalar(s));
        prop_assert_eq!(crc32c(s), crc32c_scalar(s));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `crc32c` dispatches to the CPU's `crc32` instruction where there is
    /// one; the software kernel is called by name so both run on every
    /// machine. Buffers up to 1 MiB cross hundreds of interleaved blocks,
    /// and the two-part update must land on the one-shot value wherever
    /// the buffer is cut.
    #[test]
    fn crc32c_kernels_and_streaming_agree_on_random_buffers(
        len in 0usize..(1 << 20) + 1,
        seed in any::<u64>(),
        start in 0usize..8,
        cut in any::<u64>(),
    ) {
        let mut data = vec![0u8; start + len];
        fill(seed as u32, (seed >> 32) as usize & 0xFFFF, &mut data);
        let s = &data[start..];
        let want = crc32c_scalar(s);
        prop_assert_eq!(crc32c_sliced(s), want);
        prop_assert_eq!(crc32c(s), want);
        let (a, b) = s.split_at((cut % (len as u64 + 1)) as usize);
        prop_assert_eq!(crc32c_update(crc32c(a), b), want);
    }
}

/// Parallel restart round trip: 1PFPP at np=12 produces 12 files, enough
/// to exercise the multi-worker per-file fan-out; every restored block
/// must equal what `fill` wrote, via both the plan-guided and the
/// self-describing path.
#[test]
fn parallel_restart_round_trips() {
    let np = 12u32;
    let layout = DataLayout::uniform(np, &[("Ex", 2048), ("Hy", 512)]);
    let plan = CheckpointSpec::new(layout.clone(), "pr")
        .step(3)
        .plan()
        .expect("valid plan");
    let dir = std::env::temp_dir().join(format!("rbio-dpq-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let payloads = materialize_payloads(&plan, fill);
    execute(&plan.program, payloads, &ExecConfig::new(&dir)).expect("exec");

    let restored = read_checkpoint(&dir, &plan).expect("restart");
    let auto = read_checkpoint_auto(&dir, "pr").expect("auto restart");
    assert_eq!(restored.step, 3);
    assert_eq!(restored.nranks, np);
    for r in 0..np {
        for (f, want_len) in [(0usize, 2048usize), (1, 512)] {
            let mut want = vec![0u8; want_len];
            fill(r, f, &mut want);
            assert_eq!(restored.field_data(r, f), &want[..], "rank {r} field {f}");
            assert_eq!(auto.field_data(r, f), &want[..], "auto rank {r} field {f}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
