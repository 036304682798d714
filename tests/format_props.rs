//! Property tests for the checkpoint file format: headers round-trip for
//! arbitrary layouts and rank ranges, offsets are consistent, any
//! single-byte corruption of a header is detected, and a header whose
//! fields were rewritten and its CRC resealed is parsed or refused, never
//! a panic or an allocation its bytes cannot back. And a payload is packed:
//! its header and its field blocks tile it, so a buffer leased without the
//! zero-fill has every byte written.

use proptest::prelude::*;
use rbio_repro::rbio::format::{
    crc32, decode_header, encode_header, field_data_off, file_size, header_len,
    materialize_payloads, FormatError,
};
use rbio_repro::rbio::layout::{DataLayout, FieldSizes, FieldSpec};
use rbio_repro::rbio::strategy::{CheckpointSpec, RbIoCommit, Strategy as Ckpt};

fn arb_layout() -> BoxedStrategy<DataLayout> {
    (1u32..20, 1usize..5)
        .prop_flat_map(|(np, nfields)| {
            proptest::collection::vec(
                prop_oneof![
                    (0u64..100_000).prop_map(FieldSizes::Uniform),
                    proptest::collection::vec(0u64..100_000, np as usize)
                        .prop_map(FieldSizes::PerRank),
                ],
                nfields,
            )
            .prop_map(move |sizes| {
                DataLayout::new(
                    np,
                    sizes
                        .into_iter()
                        .enumerate()
                        .map(|(i, s)| FieldSpec {
                            name: format!("field_{i}"),
                            sizes: s,
                        })
                        .collect(),
                )
            })
        })
        .boxed()
}

/// Recompute the header CRC over everything before it, so a mutation
/// gets past the CRC check.
fn reseal(hdr: &mut [u8]) {
    let n = hdr.len() - 4;
    let crc = crc32(&hdr[..n]);
    hdr[n..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn resealed_headers_with_impossible_sizes_are_refused() {
    let size = 0x1234_5678u64;
    let layout = DataLayout::uniform(4, &[("Ex", size), ("Hy", size)]);
    let good = encode_header(&layout, "app", 0, 0, 4);
    assert_eq!(good.len(), 91);
    // `nranks_total` and `r1` at `u32::MAX`: a uniform field's sizes
    // table would be 32 GiB.
    let mut hdr = good.clone();
    hdr[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
    hdr[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut hdr);
    assert!(matches!(
        decode_header(&hdr),
        Err(FormatError::Inconsistent(_))
    ));
    // More fields than the header has bytes for.
    let mut hdr = good.clone();
    let nfields_at = 36 + 2 + 3;
    hdr[nfields_at..nfields_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut hdr);
    assert!(matches!(
        decode_header(&hdr),
        Err(FormatError::Inconsistent(_))
    ));
    // Sizes whose sum overflows a `u64`.
    let mut hdr = good;
    let at = hdr
        .windows(8)
        .position(|w| w == size.to_le_bytes())
        .unwrap();
    hdr[at..at + 8].copy_from_slice(&(u64::MAX / 3).to_le_bytes());
    reseal(&mut hdr);
    assert!(matches!(
        decode_header(&hdr),
        Err(FormatError::Inconsistent(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn header_round_trips_for_any_layout(
        layout in arb_layout(),
        step in any::<u64>(),
        range in (0u32..20, 1u32..20),
        app in "[a-zA-Z0-9_]{1,32}",
    ) {
        let np = layout.nranks();
        let r0 = range.0 % np;
        let r1 = (r0 + 1 + range.1 % (np - r0).max(1)).min(np);
        let hdr = encode_header(&layout, &app, step, r0, r1);
        prop_assert_eq!(hdr.len() as u64, header_len(&layout, &app, r0, r1));
        let parsed = decode_header(&hdr).expect("round trip");
        prop_assert_eq!(parsed.step, step);
        prop_assert_eq!(parsed.nranks_total, np);
        prop_assert_eq!((parsed.r0, parsed.r1), (r0, r1));
        prop_assert_eq!(&parsed.app, &app);
        prop_assert_eq!(parsed.fields.len(), layout.nfields());
        // Offsets and sizes agree with the layout functions.
        for (f, pf) in parsed.fields.iter().enumerate() {
            prop_assert_eq!(pf.data_off, field_data_off(&layout, &app, r0, r1, f));
            for rank in r0..r1 {
                prop_assert_eq!(pf.sizes[(rank - r0) as usize], layout.field_bytes(rank, f));
                let (off, len) = parsed.rank_block(rank, f);
                prop_assert!(off >= parsed.header_len);
                prop_assert!(off + len <= file_size(&layout, &app, r0, r1));
            }
        }
        prop_assert_eq!(parsed.expected_file_size(), file_size(&layout, &app, r0, r1));
    }

    #[test]
    fn any_single_byte_flip_is_detected(
        layout in arb_layout(),
        flip_pos in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let np = layout.nranks();
        let mut hdr = encode_header(&layout, "app", 3, 0, np);
        let pos = flip_pos.index(hdr.len());
        hdr[pos] ^= 1 << flip_bit;
        // Either the parse fails outright, or it must NOT silently produce
        // a different-but-valid header... CRC covers everything except the
        // CRC field itself; flipping CRC bytes fails the check too.
        match decode_header(&hdr) {
            Err(_) => {}
            Ok(parsed) => {
                // Only acceptable if the flip produced the identical bytes
                // (impossible for XOR) — so reaching here is a failure,
                // unless the corrupted field was `header_len` padding that
                // still CRC-checks, which cannot happen since CRC covers
                // all preceding bytes.
                let _ = parsed;
                prop_assert!(false, "corruption at byte {pos} went undetected");
            }
        }
    }

    #[test]
    fn truncation_never_panics(
        layout in arb_layout(),
        cut in any::<prop::sample::Index>(),
    ) {
        let np = layout.nranks();
        let hdr = encode_header(&layout, "app", 0, 0, np);
        let cut = cut.index(hdr.len());
        match decode_header(&hdr[..cut]) {
            Err(FormatError::Truncated) | Err(FormatError::BadMagic) | Err(FormatError::CrcMismatch) | Err(FormatError::Inconsistent(_)) | Err(FormatError::BadVersion(_)) => {}
            Ok(_) => prop_assert!(cut == hdr.len(), "truncated parse succeeded at {cut}"),
        }
    }

    #[test]
    fn resealed_field_mutations_never_panic(
        layout in arb_layout(),
        pos in any::<prop::sample::Index>(),
        value in any::<u64>(),
        width in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        let np = layout.nranks();
        let mut hdr = encode_header(&layout, "app", 0, 0, np);
        // Anywhere past the prelude (magic, version, length) and before
        // the CRC.
        let at = 16 + pos.index(hdr.len() - 16 - 4 - width + 1);
        hdr[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        reseal(&mut hdr);
        if let Ok(parsed) = decode_header(&hdr) {
            prop_assert!(parsed.expected_file_size() >= parsed.header_len);
            for rank in (parsed.r0..parsed.r1).take(64) {
                for f in 0..parsed.fields.len() {
                    parsed.rank_block(rank, f);
                }
            }
        }
    }
}

/// Layouts with small blocks, so every case can be materialized: per-rank
/// sizes and zero-size fields, whole or for some ranks, included.
fn arb_small_layout() -> BoxedStrategy<DataLayout> {
    (1u32..20, 1usize..5)
        .prop_flat_map(|(np, nfields)| {
            let size = || prop_oneof![Just(0u64), 1u64..3000];
            proptest::collection::vec(
                prop_oneof![
                    size().prop_map(FieldSizes::Uniform),
                    proptest::collection::vec(size(), np as usize).prop_map(FieldSizes::PerRank),
                ],
                nfields,
            )
            .prop_map(move |sizes| {
                let fields = sizes.into_iter().enumerate().map(|(i, sizes)| FieldSpec {
                    name: format!("f{i}"),
                    sizes,
                });
                DataLayout::new(np, fields.collect())
            })
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every rank's payload is exactly its encoded header followed by the
    /// blocks handed to `fill`, back to back to the end of the buffer.
    #[test]
    fn a_payload_is_tiled_by_its_header_and_its_blocks(
        layout in arb_small_layout(),
        seed in any::<u64>(),
    ) {
        let np = layout.nranks();
        let (pick, a) = (seed % 4, 1 + ((seed / 4) % u64::from(np)) as u32);
        let strategy = match pick {
            0 => Ckpt::OnePfpp,
            1 => Ckpt::CoIo { nf: a, aggregator_ratio: 1 + (seed >> 40) as u32 % 8 },
            2 => Ckpt::RbIo { ng: a, commit: RbIoCommit::IndependentPerWriter },
            _ => Ckpt::RbIo { ng: a, commit: RbIoCommit::CollectiveShared },
        };
        let plan = CheckpointSpec::new(layout.clone(), "tile")
            .strategy(strategy)
            .step(seed)
            .plan()
            .expect("plan");
        // Each block `fill` is handed: its field, where it starts, its length.
        let mut blocks = vec![Vec::new(); np as usize];
        let payloads = materialize_payloads(&plan, |rank, field, block| {
            blocks[rank as usize].push((field, block.as_ptr() as usize, block.len()));
        });
        for (rank, payload) in payloads.iter().enumerate() {
            let meta = &plan.payload_meta[rank];
            let header = match meta.header_for_file {
                Some(i) => {
                    let pf = &plan.plan_files[i];
                    encode_header(&layout, &plan.app, plan.step, pf.r0, pf.r1).len()
                }
                None => 0,
            };
            prop_assert_eq!(header as u64, meta.header_len, "rank {}'s header", rank);
            let mut spans = vec![(0, header)];
            let base = payload.as_ptr() as usize;
            for &(field, at, len) in &blocks[rank] {
                prop_assert_eq!(len as u64, layout.field_bytes(rank as u32, field));
                spans.push((at - base, len));
            }
            spans.sort_unstable();
            let mut end = 0;
            for (at, len) in spans {
                prop_assert_eq!(at, end, "rank {}: a gap or an overlap", rank);
                end += len;
            }
            prop_assert_eq!(end, payload.len(), "rank {}: the spans end short", rank);
        }
    }
}
