//! Pins the compiled checkpoint plans: a hash of every strategy's
//! `Program`, `plan_files` and `payload_meta` over a matrix of layouts and
//! tunings. A refactor of the plan compiler that changes no op, file or
//! header owner keeps every hash; one that does fails here and names the
//! strategy whose plans moved.
//!
//! The restart plans built from them are pinned the same way (one hash
//! over the whole matrix). Also checks the owner rule the manager relies on: the rank whose
//! `payload_meta` holds a file's header is the one rank that commits it.

use rbio_repro::rbio::layout::{DataLayout, FieldSizes, FieldSpec};
use rbio_repro::rbio::restart::build_restart_plan;
use rbio_repro::rbio::strategy::{CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy, Tuning};
use rbio_repro::rbio_plan::Op;

/// Three layouts: a uniform one with a zero-length field, an uneven
/// per-rank one (a rank with no bytes of one field), and a larger one
/// that takes several exchange rounds.
fn layouts() -> Vec<DataLayout> {
    let uneven: Vec<u64> = (0..10u64)
        .map(|r| if r == 3 { 0 } else { 100 + r * 17 })
        .collect();
    vec![
        DataLayout::uniform(16, &[("Ex", 1000), ("Ey", 500), ("Hz", 0)]),
        DataLayout::new(
            10,
            vec![
                FieldSpec {
                    name: "v".into(),
                    sizes: FieldSizes::PerRank(uneven),
                },
                FieldSpec {
                    name: "u".into(),
                    sizes: FieldSizes::Uniform(64),
                },
            ],
        ),
        DataLayout::uniform(12, &[("a", 5000), ("b", 3000)]),
    ]
}

fn tunings() -> Vec<Tuning> {
    let small = Tuning {
        fs_block_size: 4096,
        align_domains: true,
        cb_buffer_size: 8192,
        writer_buffer: 8192,
        coalesce_fields: false,
        nf_sweet: None,
    };
    vec![
        small,
        Tuning {
            coalesce_fields: true,
            ..small
        },
        Tuning {
            align_domains: false,
            cb_buffer_size: 3000,
            ..small
        },
        Tuning {
            cb_buffer_size: 1024,
            writer_buffer: 1000,
            nf_sweet: Some(2),
            ..small
        },
        Tuning {
            align_domains: false,
            coalesce_fields: true,
            nf_sweet: Some(1),
            ..small
        },
        Tuning::default(),
    ]
}

fn strategies() -> Vec<Strategy> {
    let coio = |nf, aggregator_ratio| Strategy::CoIo {
        nf,
        aggregator_ratio,
    };
    let shared = |ng| Strategy::RbIo {
        ng,
        commit: RbIoCommit::CollectiveShared,
    };
    vec![
        Strategy::OnePfpp,
        coio(1, 1),
        coio(1, 4),
        coio(1, 64),
        coio(2, 2),
        coio(3, 2),
        coio(3, 32),
        coio(5, 1),
        coio(10, 1),
        Strategy::rbio(1),
        Strategy::rbio(2),
        Strategy::rbio(3),
        Strategy::rbio(4),
        Strategy::rbio(5),
        Strategy::rbio(10),
        shared(1),
        shared(2),
        shared(3),
        shared(4),
        shared(5),
        shared(10),
    ]
}

/// Every plan of the matrix for one strategy.
fn plans(strategy: Strategy) -> Vec<CheckpointPlan> {
    let mut out = Vec::new();
    for layout in layouts() {
        for tuning in tunings() {
            let plan = CheckpointSpec::new(layout.clone(), "pin")
                .step(7)
                .strategy(strategy)
                .tuning(tuning)
                .plan()
                .unwrap_or_else(|e| panic!("{strategy:?} {tuning:?}: {e}"));
            out.push(plan);
        }
    }
    out
}

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn plan_hash(strategy: Strategy) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for plan in plans(strategy) {
        let text = format!(
            "{:?}|{:?}|{:?}",
            plan.program, plan.plan_files, plan.payload_meta
        );
        fnv1a(&mut h, text.as_bytes());
    }
    h
}

/// One hash per strategy shape over 3 layouts × 6 tunings.
const PINNED: [u64; 21] = [
    0x8ac1_0c41_035a_2aa9,
    0xe973_ad42_0b8b_9377,
    0x2496_cbd2_c921_d0a3,
    0x75ff_fb1d_287a_4d30,
    0x5fd2_94f4_e3dd_e272,
    0xa344_e18b_50e4_e27f,
    0xb602_17c4_8cf1_1d9a,
    0x8420_d9ed_449f_bd71,
    0x4292_1bc0_36a1_d5ce,
    0x195f_73f3_5085_630e,
    0x25ba_8e98_6e6a_ba45,
    0x2e28_ea79_2d92_74fd,
    0xc766_59b5_366f_8a1c,
    0xd30e_e1fd_7ee7_029f,
    0x6313_614f_76cd_b026,
    0xd6e5_ddd2_88c9_1ed8,
    0xe828_807d_f459_cc9a,
    0xf828_84b6_84ca_0987,
    0xd891_ed67_c190_dc22,
    0x5139_fa04_055d_f28a,
    0xe8e3_e46e_c064_a17d,
];

#[test]
fn compiled_plans_match_their_pinned_hashes() {
    let got: Vec<u64> = strategies().into_iter().map(plan_hash).collect();
    let moved: Vec<String> = strategies()
        .iter()
        .zip(got.iter().zip(PINNED.iter()))
        .filter(|(_, (g, w))| g != w)
        .map(|(s, (g, w))| format!("{s:?}: {g:#018x} (pinned {w:#018x})"))
        .collect();
    assert!(
        moved.is_empty(),
        "compiled plans moved:\n{}\nall: {got:#018x?}",
        moved.join("\n")
    );
}

#[test]
fn restart_plans_match_their_pinned_hash() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for strategy in strategies() {
        for plan in plans(strategy) {
            fnv1a(
                &mut h,
                format!("{:?}", build_restart_plan(&plan)).as_bytes(),
            );
        }
    }
    assert_eq!(h, 0x1b1f_4eb8_0d77_9e67, "restart plans moved: {h:#018x}");
}

#[test]
fn the_header_owner_is_the_only_committer() {
    for strategy in strategies() {
        for plan in plans(strategy) {
            for (i, pf) in plan.plan_files.iter().enumerate() {
                let owners: Vec<usize> = plan
                    .payload_meta
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.header_for_file == Some(i))
                    .map(|(r, _)| r)
                    .collect();
                let committers: Vec<usize> = plan
                    .program
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(_, ops)| {
                        ops.iter()
                            .any(|op| matches!(op, Op::Commit { file } if file.0 as usize == i))
                    })
                    .map(|(r, _)| r)
                    .collect();
                assert_eq!(
                    owners.len(),
                    1,
                    "{strategy:?} {}: owners {owners:?}",
                    pf.name
                );
                assert_eq!(
                    committers, owners,
                    "{strategy:?} {}: the header owner must be the one committer",
                    pf.name
                );
            }
        }
    }
}
