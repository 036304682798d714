//! Two-phase exchange-and-write expansion.

use rbio_plan::{DataRef, FileId, Op, ProgramBuilder, Rank, Tag};

use crate::domains::{partition_domains, DomainConfig};

/// Which buffer a contribution lives in on its owner rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcKind {
    /// The rank's checkpoint payload buffer.
    Own,
    /// The rank's staging buffer (e.g. rbIO writers re-exporting data they
    /// aggregated from their workers).
    Staging,
}

impl SrcKind {
    fn dataref(self, off: u64, len: u64) -> DataRef {
        match self {
            SrcKind::Own => DataRef::Own { off, len },
            SrcKind::Staging => DataRef::Staging { off, len },
        }
    }
}

/// One rank's contiguous contribution to the collective write.
#[derive(Debug, Clone, Copy)]
pub struct Contribution {
    /// Owning rank.
    pub rank: Rank,
    /// Absolute file offset of this piece.
    pub file_off: u64,
    /// Offset inside the owner's source buffer.
    pub src_off: u64,
    /// Length in bytes.
    pub len: u64,
    /// Which buffer `src_off` indexes.
    pub src: SrcKind,
}

/// Tuning knobs of the two-phase algorithm.
#[derive(Debug, Clone, Copy)]
pub struct TwoPhaseConfig {
    /// Domain partitioning (block size + alignment).
    pub domain: DomainConfig,
    /// Collective buffer size: each aggregator processes its domain in
    /// rounds of this many bytes (ROMIO's `cb_buffer_size`).
    pub cb_buffer_size: u64,
    /// Message tag for this collective (must be unique per concurrently
    /// outstanding collective on the same ranks).
    pub tag: u64,
}

impl Default for TwoPhaseConfig {
    fn default() -> Self {
        TwoPhaseConfig {
            domain: DomainConfig::default(),
            cb_buffer_size: 16 << 20,
            tag: 0,
        }
    }
}

/// A collective write to plan.
#[derive(Debug, Clone)]
pub struct CollectiveWrite {
    /// Target file.
    pub file: FileId,
    /// Aggregator ranks (each gets one file domain), ascending.
    pub aggregators: Vec<Rank>,
    /// Every rank's data pieces. Ranks not listed contribute nothing; a
    /// rank may appear multiple times (one entry per field block).
    pub contributions: Vec<Contribution>,
    /// Staging offset on every aggregator where the round buffer may live
    /// (bytes below this are the aggregator's own data region).
    pub agg_staging_base: u64,
}

/// Summary of an expanded collective write (for tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoPhaseStats {
    /// Exchange messages posted.
    pub(crate) messages: u64,
    /// Bytes moved through the exchange phase (excludes aggregator-local
    /// copies).
    pub exchanged_bytes: u64,
    /// Write rounds across all aggregators.
    pub(crate) rounds: u64,
    /// Bytes written.
    pub written_bytes: u64,
}

/// Expand `cw` into plan ops on `b`.
///
/// Emits, per rank:
/// * **contributors** — `Send`s of every slice of their data that falls in
///   another aggregator's round, ordered by (aggregator, round, offset);
/// * **aggregators** — after posting their own outbound sends, per round:
///   `Recv` each inbound slice (sender-rank order), `Pack` their own
///   overlapping slices, then one `WriteAt` for the round.
///
/// The caller is responsible for `Open`/`Close`/`Barrier` ops around the
/// collective (strategies differ in how they synchronize — that is the
/// point of the paper).
pub fn plan_collective_write(
    b: &mut ProgramBuilder,
    cw: &CollectiveWrite,
    cfg: &TwoPhaseConfig,
) -> TwoPhaseStats {
    let mut stats = TwoPhaseStats::default();
    let contribs: Vec<&Contribution> = cw.contributions.iter().filter(|c| c.len > 0).collect();
    if contribs.is_empty() || cw.aggregators.is_empty() {
        return stats;
    }
    let lo = contribs.iter().map(|c| c.file_off).min().expect("nonempty");
    let hi = contribs
        .iter()
        .map(|c| c.file_off + c.len)
        .max()
        .expect("nonempty");
    let domains = partition_domains(lo..hi, cw.aggregators.len(), &cfg.domain);
    let cb = cfg.cb_buffer_size.max(1);
    let tag = Tag(cfg.tag);

    // Sort contributions by file offset for per-domain intersection scans.
    let mut by_off: Vec<&Contribution> = contribs.clone();
    by_off.sort_by_key(|c| c.file_off);

    // Phase A: every rank posts its outbound sends (nonblocking), ordered by
    // (aggregator index, round, file offset). Collect the aggregator-side
    // actions at the same time so both sides agree on order.
    //
    // slices[agg_index] = per-round list of (sender, file_off, src_off, len, kind).
    struct Slice {
        sender: Rank,
        file_off: u64,
        src_off: u64,
        len: u64,
        kind: SrcKind,
    }
    let mut per_agg_rounds: Vec<Vec<Vec<Slice>>> = Vec::with_capacity(domains.len());
    for d in &domains {
        let nrounds = if d.is_empty() {
            0
        } else {
            ((d.end - d.start).div_ceil(cb)) as usize
        };
        per_agg_rounds.push((0..nrounds).map(|_| Vec::new()).collect());
    }
    for c in &by_off {
        // Domains tile the range in order: binary-search the first overlap
        // and scan until past the contribution's end.
        let first = domains.partition_point(|d| d.end <= c.file_off);
        for ai in first..domains.len() {
            let d = &domains[ai];
            if d.start >= c.file_off + c.len {
                break;
            }
            if d.is_empty() || d.end <= c.file_off {
                continue;
            }
            let s = c.file_off.max(d.start);
            let e = (c.file_off + c.len).min(d.end);
            // Split [s, e) into rounds of the domain.
            let mut cur = s;
            while cur < e {
                let round = ((cur - d.start) / cb) as usize;
                let round_end = (d.start + (round as u64 + 1) * cb).min(d.end);
                let piece_end = e.min(round_end);
                per_agg_rounds[ai][round].push(Slice {
                    sender: c.rank,
                    file_off: cur,
                    src_off: c.src_off + (cur - c.file_off),
                    len: piece_end - cur,
                    kind: c.src,
                });
                cur = piece_end;
            }
        }
    }

    // Deterministic per-round ordering: sender rank, then file offset.
    for rounds in &mut per_agg_rounds {
        for slices in rounds.iter_mut() {
            slices.sort_by_key(|s| (s.sender, s.file_off));
        }
    }

    // Emit sends on every contributor, in (agg, round, file_off) order.
    for (ai, rounds) in per_agg_rounds.iter().enumerate() {
        let agg = cw.aggregators[ai];
        for slices in rounds {
            for s in slices {
                if s.sender == agg {
                    continue; // local copy, handled in the write phase
                }
                b.push(
                    s.sender,
                    Op::Send {
                        dst: agg,
                        tag,
                        src: s.kind.dataref(s.src_off, s.len),
                    },
                );
                stats.messages += 1;
                stats.exchanged_bytes += s.len;
            }
        }
    }

    // Phase B: aggregators drain their rounds. All sends above were emitted
    // before any aggregator recv in *program order per rank* only if the
    // aggregator's own sends were pushed first — which they were, because
    // the send loop covers every rank including aggregators.
    for (ai, rounds) in per_agg_rounds.iter().enumerate() {
        let agg = cw.aggregators[ai];
        let d = &domains[ai];
        for (ri, slices) in rounds.iter().enumerate() {
            if slices.is_empty() {
                continue;
            }
            let round_start = d.start + ri as u64 * cb;
            let round_end = (round_start + cb).min(d.end);
            // The round buffer covers [first slice .. last slice end); with
            // exact tiling (checkpoint plans) that equals the round extent
            // clipped to the written range.
            let buf_lo = slices.iter().map(|s| s.file_off).min().expect("nonempty");
            let buf_hi = slices
                .iter()
                .map(|s| s.file_off + s.len)
                .max()
                .expect("nonempty");
            debug_assert!(buf_lo >= round_start && buf_hi <= round_end);
            for s in slices {
                let dst_off = cw.agg_staging_base + (s.file_off - buf_lo);
                if s.sender == agg {
                    b.push(
                        agg,
                        Op::Pack {
                            src: Some(s.kind.dataref(s.src_off, s.len)),
                            staging_off: dst_off,
                            bytes: s.len,
                        },
                    );
                } else {
                    b.push(
                        agg,
                        Op::Recv {
                            src: s.sender,
                            tag,
                            bytes: s.len,
                            staging_off: dst_off,
                        },
                    );
                }
            }
            b.reserve_staging(agg, cw.agg_staging_base + (buf_hi - buf_lo));
            b.push(
                agg,
                Op::WriteAt {
                    file: cw.file,
                    offset: buf_lo,
                    src: DataRef::Staging {
                        off: cw.agg_staging_base,
                        len: buf_hi - buf_lo,
                    },
                },
            );
            stats.rounds += 1;
            stats.written_bytes += buf_hi - buf_lo;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbio_plan::{validate, CoverageMode, ProgramBuilder};

    /// Build a simple contiguous-by-rank collective write: each of `n` ranks
    /// contributes `sz` bytes at offset `rank*sz`.
    fn simple_cw(
        b: &mut ProgramBuilder,
        n: u32,
        sz: u64,
        naggs: usize,
        cfg: &TwoPhaseConfig,
    ) -> TwoPhaseStats {
        let file = b.file("shared", n as u64 * sz);
        let aggregators: Vec<Rank> = (0..naggs as u32).map(|i| i * (n / naggs as u32)).collect();
        let contributions: Vec<Contribution> = (0..n)
            .map(|r| Contribution {
                rank: r,
                file_off: r as u64 * sz,
                src_off: 0,
                len: sz,
                src: SrcKind::Own,
            })
            .collect();
        // Open/close around it so validation passes.
        for &a in &aggregators {
            b.push(
                a,
                Op::Open {
                    file,
                    create: a == 0,
                },
            );
        }
        let stats = plan_collective_write(
            b,
            &CollectiveWrite {
                file,
                aggregators: aggregators.clone(),
                contributions,
                agg_staging_base: 0,
            },
            cfg,
        );
        for &a in &aggregators {
            b.push(a, Op::Close { file });
        }
        stats
    }

    #[test]
    fn covers_file_exactly_and_validates() {
        let n = 16u32;
        let sz = 1000u64;
        let mut b = ProgramBuilder::new(vec![sz; n as usize]);
        let cfg = TwoPhaseConfig {
            domain: DomainConfig {
                block_size: 4096,
                align: true,
            },
            cb_buffer_size: 3000,
            tag: 5,
        };
        let stats = simple_cw(&mut b, n, sz, 4, &cfg);
        assert_eq!(stats.written_bytes, 16_000);
        assert!(stats.rounds >= 4);
        let p = b.build();
        validate(&p, CoverageMode::ExactWrite).expect("two-phase plan must validate");
    }

    #[test]
    fn single_aggregator_single_round() {
        let mut b = ProgramBuilder::new(vec![100; 4]);
        let cfg = TwoPhaseConfig {
            domain: DomainConfig::default(),
            cb_buffer_size: 1 << 20,
            tag: 0,
        };
        let stats = simple_cw(&mut b, 4, 100, 1, &cfg);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.messages, 3); // aggregator's own piece is a local pack
        assert_eq!(stats.exchanged_bytes, 300);
        validate(&b.build(), CoverageMode::ExactWrite).unwrap();
    }

    #[test]
    fn aggregator_writes_are_block_aligned_interior() {
        let n = 8u32;
        let sz = 1000u64;
        let block = 2048u64;
        let mut b = ProgramBuilder::new(vec![sz; n as usize]);
        let cfg = TwoPhaseConfig {
            domain: DomainConfig {
                block_size: block,
                align: true,
            },
            cb_buffer_size: 1 << 20,
            tag: 0,
        };
        simple_cw(&mut b, n, sz, 4, &cfg);
        let p = b.build();
        // Every write either starts at 0 or at a block multiple.
        for ops in &p.ops {
            for op in ops {
                if let Op::WriteAt { offset, .. } = op {
                    assert!(
                        *offset == 0 || *offset % block == 0,
                        "unaligned write at {offset}"
                    );
                }
            }
        }
        validate(&p, CoverageMode::ExactWrite).unwrap();
    }

    #[test]
    fn multi_piece_contributions_split_across_domains() {
        // 2 ranks, each with two field blocks interleaved in the file:
        // rank0: [0,100) and [200,300); rank1: [100,200) and [300,400).
        let mut b = ProgramBuilder::new(vec![200, 200]);
        let file = b.file("f", 400);
        let contributions = vec![
            Contribution {
                rank: 0,
                file_off: 0,
                src_off: 0,
                len: 100,
                src: SrcKind::Own,
            },
            Contribution {
                rank: 0,
                file_off: 200,
                src_off: 100,
                len: 100,
                src: SrcKind::Own,
            },
            Contribution {
                rank: 1,
                file_off: 100,
                src_off: 0,
                len: 100,
                src: SrcKind::Own,
            },
            Contribution {
                rank: 1,
                file_off: 300,
                src_off: 100,
                len: 100,
                src: SrcKind::Own,
            },
        ];
        for a in [0u32, 1] {
            b.push(
                a,
                Op::Open {
                    file,
                    create: a == 0,
                },
            );
        }
        let stats = plan_collective_write(
            &mut b,
            &CollectiveWrite {
                file,
                aggregators: vec![0, 1],
                contributions,
                agg_staging_base: 0,
            },
            &TwoPhaseConfig {
                domain: DomainConfig {
                    block_size: 100,
                    align: true,
                },
                cb_buffer_size: 1 << 20,
                tag: 3,
            },
        );
        for a in [0u32, 1] {
            b.push(a, Op::Close { file });
        }
        assert_eq!(stats.written_bytes, 400);
        validate(&b.build(), CoverageMode::ExactWrite).unwrap();
    }

    #[test]
    fn staging_base_offsets_round_buffer() {
        let mut b = ProgramBuilder::new(vec![50; 2]);
        let file = b.file("f", 100);
        b.push(0, Op::Open { file, create: true });
        plan_collective_write(
            &mut b,
            &CollectiveWrite {
                file,
                aggregators: vec![0],
                contributions: vec![
                    Contribution {
                        rank: 0,
                        file_off: 0,
                        src_off: 0,
                        len: 50,
                        src: SrcKind::Own,
                    },
                    Contribution {
                        rank: 1,
                        file_off: 50,
                        src_off: 0,
                        len: 50,
                        src: SrcKind::Own,
                    },
                ],
                agg_staging_base: 1000,
            },
            &TwoPhaseConfig::default(),
        );
        b.push(0, Op::Close { file });
        let p = b.build();
        assert!(p.staging[0] >= 1100);
        validate(&p, CoverageMode::ExactWrite).unwrap();
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut b = ProgramBuilder::new(vec![0; 2]);
        let file = b.file("f", 0);
        let stats = plan_collective_write(
            &mut b,
            &CollectiveWrite {
                file,
                aggregators: vec![0],
                contributions: vec![],
                agg_staging_base: 0,
            },
            &TwoPhaseConfig::default(),
        );
        assert_eq!(stats, TwoPhaseStats::default());
        assert_eq!(b.build().stats().total_ops, 0);
    }

    #[test]
    fn unaligned_config_still_covers() {
        let n = 8u32;
        let mut b = ProgramBuilder::new(vec![777; n as usize]);
        let cfg = TwoPhaseConfig {
            domain: DomainConfig {
                block_size: 4096,
                align: false,
            },
            cb_buffer_size: 1024,
            tag: 9,
        };
        simple_cw(&mut b, n, 777, 3, &cfg);
        validate(&b.build(), CoverageMode::ExactWrite).unwrap();
    }
}
