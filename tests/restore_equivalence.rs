//! Restore verdicts and bytes, as a property.
//!
//! `read_checkpoint` lands each block of a file straight in its rank's
//! buffer and checksums the regions as they land; the reader it replaced
//! read the file into one image, ran `verify_committed_typed` over it and
//! sliced it by `FileHeader::rank_block`. That image reader is kept here
//! as the oracle: for every strategy, size shape and damage class the
//! streaming reader must return the oracle's bytes, or refuse with the
//! oracle's text — and never panic. The one check the streaming reader
//! adds (the footer's regions must be the header's field spans, since
//! blocks are placed by one and checked by the other) sits in the oracle
//! where the reader has it: after the footer parses, before any checksum.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rbio_repro::rbio::commit::{commit_file, tmp_path, verify_committed_typed, VerifyError};
use rbio_repro::rbio::exec::{execute, ExecConfig};
use rbio_repro::rbio::format::{
    crc32c, decode_footer, decode_header, encode_footer, encode_header, materialize_payloads,
    FileHeader, FooterRegion,
};
use rbio_repro::rbio::layout::{DataLayout, FieldSizes, FieldSpec};
use rbio_repro::rbio::restart::{read_checkpoint, read_checkpoint_auto, RestartError};
use rbio_repro::rbio::strategy::{CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy as Ckpt};

const NP: u32 = 8;
const SPANS: &str = "commit footer's regions are not the header's field spans";

fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("rbio-restore-eq-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn noise(seed: u64, buf: &mut [u8]) {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for b in buf {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
}

/// Block sizes from empty through a few bytes to large enough that one
/// coIO file's region (four ranks) passes the reader's batch threshold.
fn arb_size() -> BoxedStrategy<u64> {
    prop_oneof![Just(0u64), 1u64..64, 64u64..5000, 200_000u64..400_000].boxed()
}

fn arb_layout() -> BoxedStrategy<DataLayout> {
    let sizes = prop_oneof![
        arb_size().prop_map(FieldSizes::Uniform),
        proptest::collection::vec(arb_size(), NP as usize).prop_map(FieldSizes::PerRank),
    ];
    proptest::collection::vec(sizes, 1..4)
        .prop_map(|fields| {
            let fields = fields.into_iter().enumerate();
            DataLayout::new(
                NP,
                fields
                    .map(|(i, sizes)| FieldSpec {
                        name: format!("f{i}"),
                        sizes,
                    })
                    .collect(),
            )
        })
        .boxed()
}

/// What the image reader makes of one file's bytes: `blocks[rank - r0][field]`
/// sliced out of the image, or the text it is refused with.
fn oracle(image: &[u8], header: &FileHeader) -> Result<Vec<Vec<Vec<u8>>>, String> {
    let logical = header.expected_file_size();
    if (image.len() as u64) < logical {
        return Err(format!(
            "file is {} bytes, header expects {logical}",
            image.len()
        ));
    }
    let verdict = verify_committed_typed(image, logical);
    if matches!(verdict, Ok(()) | Err(VerifyError::ChecksumMismatch { .. })) {
        let regions = decode_footer(&image[logical as usize..]).expect("the verifier parsed it");
        let spans = header
            .fields
            .iter()
            .map(|f| (f.data_off, f.sizes.iter().sum::<u64>()));
        if !regions.iter().map(|r| (r.off, r.len)).eq(spans) {
            return Err(SPANS.to_string());
        }
    }
    verdict.map_err(|e| e.to_string())?;
    Ok((header.r0..header.r1)
        .map(|rank| {
            (0..header.fields.len())
                .map(|field| {
                    let (off, len) = header.rank_block(rank, field);
                    image[off as usize..(off + len) as usize].to_vec()
                })
                .collect()
        })
        .collect())
}

/// Hold `read_checkpoint` of `dir` against the oracle's reading of the
/// files as they are on disk now. Returns whether the restore was refused.
fn restore_matches_oracle(dir: &Path, plan: &CheckpointPlan, headers: &[FileHeader]) -> bool {
    let got = read_checkpoint(dir, plan);
    let mut want = Vec::new();
    for (pf, header) in plan.plan_files.iter().zip(headers) {
        let image = std::fs::read(dir.join(&pf.name)).expect("plan file");
        match oracle(&image, header) {
            Ok(rows) => want.push((header.r0, rows)),
            Err(text) => {
                match got {
                    Err(RestartError::Torn { file, what }) => {
                        assert_eq!(file, pf.name);
                        assert_eq!(what, text, "{}", pf.name);
                    }
                    other => panic!("{}: want Torn({text}), got {other:?}", pf.name),
                }
                return true;
            }
        }
    }
    let got = got.expect("the oracle accepts every file");
    for (r0, rows) in want {
        for (rank, row) in (r0..).zip(rows) {
            for (field, block) in row.iter().enumerate() {
                assert_eq!(
                    got.field_data(rank, field),
                    &block[..],
                    "rank {rank} field {field}"
                );
            }
        }
    }
    false
}

/// `body` (a file's logical bytes) sealed with `regions` as its footer.
fn with_footer(body: &[u8], regions: &[FooterRegion]) -> Vec<u8> {
    [body, &encode_footer(regions)[..]].concat()
}

fn write_checkpoint(dir: &Path, plan: &CheckpointPlan, seed: u64) {
    let payloads = materialize_payloads(plan, |rank, field, buf| {
        noise(seed << 32 | u64::from(rank) << 8 | field as u64, buf);
    });
    execute(&plan.program, payloads, &ExecConfig::new(dir)).expect("execute");
}

/// One case: write the layout with `strategy`, then hold the reader
/// against the oracle on the intact files and on every damage class,
/// applied to one victim file at a time.
fn check(strategy: Ckpt, layout: DataLayout, pick: u64) {
    let plan = CheckpointSpec::new(layout, "eq")
        .strategy(strategy)
        .step(9)
        .plan()
        .expect("valid plan");
    let dir = fresh_dir();
    let other_dir = dir.join("other");
    write_checkpoint(&dir, &plan, 1);
    write_checkpoint(&other_dir, &plan, 2);
    let pristine: Vec<Vec<u8>> = plan
        .plan_files
        .iter()
        .map(|pf| std::fs::read(dir.join(&pf.name)).expect("published file"))
        .collect();
    let headers: Vec<FileHeader> = pristine
        .iter()
        .map(|image| decode_header(image).expect("header"))
        .collect();

    // Intact: the oracle's bytes, by plan and by discovery.
    assert!(!restore_matches_oracle(&dir, &plan, &headers));
    let by_plan = read_checkpoint(&dir, &plan).expect("intact");
    let auto = read_checkpoint_auto(&dir, "eq").expect("intact");
    assert_eq!(auto.step, 9);
    for rank in 0..NP {
        for field in 0..plan.layout.nfields() {
            assert_eq!(
                auto.field_data(rank, field),
                by_plan.field_data(rank, field)
            );
        }
    }

    let victim = pick as usize % plan.plan_files.len();
    let path = dir.join(&plan.plan_files[victim].name);
    let (good, header) = (&pristine[victim], &headers[victim]);
    let logical = header.expected_file_size() as usize;
    let body = &good[..logical];
    let regions = decode_footer(&good[logical..]).expect("footer");
    // Write `image` over the victim and hold the restore against the
    // oracle; `must_refuse` is for damage no reader may accept.
    let damaged = |image: &[u8], must_refuse: bool, what: &str| {
        std::fs::write(&path, image).unwrap();
        let refused = restore_matches_oracle(&dir, &plan, &headers);
        assert!(refused || !must_refuse, "{what}: accepted");
    };

    // One flipped byte per region.
    for (i, r) in regions.iter().enumerate().filter(|(_, r)| r.len > 0) {
        let mut bad = good.clone();
        bad[(r.off + pick % r.len) as usize] ^= 1 << (pick % 8);
        damaged(&bad, true, &format!("flip in region {i}"));
    }
    // Truncation just inside the data and at every footer boundary.
    let mut cuts = vec![logical, logical + 4, logical + 8, good.len() - 1];
    cuts.extend((1..=regions.len()).map(|k| logical + 8 + 20 * k));
    if logical > header.header_len as usize {
        cuts.push(logical - 1);
    }
    for cut in cuts {
        damaged(
            &good[..cut],
            true,
            &format!("cut at {cut} of {}", good.len()),
        );
    }
    // A footer with one region's offset shifted: the stored CRC kept, and
    // recomputed over the shifted span, which the image verifier accepts.
    let i = pick as usize % regions.len();
    for off in [regions[i].off.wrapping_sub(1), regions[i].off + 1] {
        let mut shifted = regions.clone();
        shifted[i].off = off;
        damaged(&with_footer(body, &shifted), true, "shifted offset");
        if let Some(span) = body.get(off as usize..(off + shifted[i].len) as usize) {
            shifted[i].crc32c = crc32c(span);
            let image = with_footer(body, &shifted);
            assert_eq!(verify_committed_typed(&image, logical as u64), Ok(()));
            damaged(&image, true, "shifted offset, CRC recomputed");
        }
    }
    // The footer of another file: the same file of another checkpoint
    // (same spans, other bytes) and, when there is one, its sibling here.
    let same_name = std::fs::read(other_dir.join(&plan.plan_files[victim].name)).unwrap();
    let sibling = &pristine[(victim + 1) % pristine.len()];
    for (what, donor) in [("other checkpoint", &same_name), ("sibling", sibling)] {
        let donor_logical = decode_header(donor).unwrap().expected_file_size() as usize;
        let image = [body, &donor[donor_logical..]].concat();
        damaged(&image, false, what);
    }
    // And back: the pristine file restores again.
    damaged(good, false, "pristine");
    assert!(!restore_matches_oracle(&dir, &plan, &headers));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pfpp_restores_what_the_image_reader_did(layout in arb_layout(), pick in any::<u64>()) {
        check(Ckpt::OnePfpp, layout, pick);
    }

    #[test]
    fn coio_restores_what_the_image_reader_did(layout in arb_layout(), pick in any::<u64>()) {
        check(Ckpt::coio(2), layout, pick);
    }

    #[test]
    fn rbio_restores_what_the_image_reader_did(layout in arb_layout(), pick in any::<u64>()) {
        check(Ckpt::rbio(2), layout, pick);
    }

    #[test]
    fn rbio_shared_file_restores_what_the_image_reader_did(
        layout in arb_layout(),
        pick in any::<u64>(),
    ) {
        let shared = Ckpt::RbIo { ng: 2, commit: RbIoCommit::CollectiveShared };
        check(shared, layout, pick);
    }
}

/// More blocks in one region than one `readv` takes slices (1,024): 2,000
/// ranks' 3-byte blocks in one file. Built by hand — header, field-major
/// data, `commit_file` — so no executor runs 2,000 rank threads.
#[test]
fn more_blocks_than_one_readv_takes() {
    let np = 2000u32;
    let layout = DataLayout::uniform(np, &[("a", 3), ("b", 3)]);
    let mut body = encode_header(&layout, "big", 4, 0, np);
    let header = decode_header(&body).expect("header");
    let data_at = body.len();
    body.resize(data_at + layout.data_total(0, np) as usize, 0);
    noise(7, &mut body[data_at..]);
    let dir = fresh_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.00000.rbio");
    std::fs::write(tmp_path(&path), &body).unwrap();
    commit_file(&tmp_path(&path), &path, body.len() as u64, false).unwrap();
    let good = std::fs::read(&path).unwrap();

    let restored = read_checkpoint_auto(&dir, "big").expect("intact");
    assert_eq!((restored.step, restored.nranks), (4, np));
    let want = oracle(&good, &header).expect("intact");
    for (rank, row) in (0..np).zip(&want) {
        for (field, block) in row.iter().enumerate() {
            assert_eq!(restored.field_data(rank, field), &block[..]);
        }
    }
    // A flip in the first, the 1,025th and the last block of each region.
    for f in &header.fields {
        for block in [0, 1024, u64::from(np) - 1] {
            let mut bad = good.clone();
            bad[(f.data_off + 3 * block) as usize] ^= 0x80;
            std::fs::write(&path, &bad).unwrap();
            let text = oracle(&bad, &header).expect_err("flip");
            match read_checkpoint_auto(&dir, "big") {
                Err(RestartError::Torn { what, .. }) => assert_eq!(what, text),
                other => panic!("want Torn({text}), got {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
