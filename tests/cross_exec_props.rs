//! Cross-executor property test: for random layouts and strategy
//! parameters, the plan executed by the thread-per-rank executor
//! ([`rbio::exec`]) and the same plan executed rank-by-rank inside the
//! MPI-like runtime ([`rbio::rt`]) must produce byte-identical files.
//! The two entry points run one interpreter over different transports,
//! so agreement alone could be shared error: each directory is also
//! restored with `read_checkpoint` and every `(rank, field)` compared to
//! the regenerated `fill` — the ground truth neither side computes.

use proptest::prelude::*;
use rbio_repro::rbio::exec::{execute, ExecConfig};
use rbio_repro::rbio::format::{footer_len, materialize_payloads};
use rbio_repro::rbio::layout::{DataLayout, FieldSizes, FieldSpec};
use rbio_repro::rbio::restart::read_checkpoint;
use rbio_repro::rbio::rt;
use rbio_repro::rbio::strategy::{CheckpointSpec, RbIoCommit, Strategy as Ckpt, Tuning};

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    let mut x = (u64::from(rank) << 24) ^ ((field as u64) << 8) ^ 0x5DEECE66D;
    for b in buf.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 33) as u8;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn exec_and_rt_agree_byte_for_byte(
        np in 3u32..10,
        nfields in 1usize..3,
        sizes_seed in any::<u64>(),
        strat_pick in 0u8..4,
        group in 1u32..4,
        block in 256u64..4096,
        cb in 128u64..4096,
    ) {
        // Build a small ragged layout from the seed.
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
            1 => Ckpt::CoIo { nf: group.min(np), aggregator_ratio: 1 + (group % 3) },
            2 => Ckpt::RbIo { ng: group.min(np), commit: RbIoCommit::IndependentPerWriter },
            _ => Ckpt::RbIo { ng: group.min(np), commit: RbIoCommit::CollectiveShared },
        };
        let plan = CheckpointSpec::new(layout, "x")
            .strategy(strategy)
            .tuning(Tuning {
                fs_block_size: block,
                align_domains: block % 2 == 0,
                cb_buffer_size: cb,
                writer_buffer: cb.max(512),
                ..Tuning::default()
            })
            .plan()
            .expect("valid plan");
        let payloads = materialize_payloads(&plan, fill);

        let unique = format!(
            "{}-{np}-{nfields}-{sizes_seed:x}-{strat_pick}-{group}-{block}-{cb}",
            std::process::id()
        );
        let dir_a = std::env::temp_dir().join(format!("rbio-xa-{unique}"));
        let dir_b = std::env::temp_dir().join(format!("rbio-xb-{unique}"));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();

        execute(&plan.program, payloads.clone(), &ExecConfig::new(&dir_a)).expect("exec");
        let program = &plan.program;
        let payloads_ref = &payloads;
        let dir_b_ref = &dir_b;
        rt::run(np, |mut comm| {
            let rank = comm.rank();
            rt::checkpoint_rank(&mut comm, program, &payloads_ref[rank as usize], dir_b_ref)
                .expect("rt checkpoint");
        });

        for (i, pf) in plan.plan_files.iter().enumerate() {
            let a = std::fs::read(dir_a.join(&pf.name)).expect("exec file");
            let b = std::fs::read(dir_b.join(&pf.name)).expect("rt file");
            // Logical bytes plus the deterministic commit footer.
            let committed = plan.program.files[i].size + footer_len(plan.layout.nfields());
            prop_assert_eq!(a.len() as u64, committed);
            prop_assert_eq!(a, b, "file {} differs between executors", pf.name);
            // Neither executor may leave an uncommitted sibling behind.
            prop_assert!(!dir_a.join(format!("{}.tmp", pf.name)).exists());
            prop_assert!(!dir_b.join(format!("{}.tmp", pf.name)).exists());
        }
        for dir in [&dir_a, &dir_b] {
            let restored = read_checkpoint(dir, &plan).expect("restore");
            for rank in 0..np {
                for field in 0..nfields {
                    let mut want = vec![0u8; plan.layout.field_bytes(rank, field) as usize];
                    fill(rank, field, &mut want);
                    prop_assert_eq!(
                        restored.field_data(rank, field),
                        &want[..],
                        "rank {} field {} restored from {:?}",
                        rank,
                        field,
                        dir
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
