//! Crash-consistent checkpoint publication, shared by both executors.
//!
//! Atomic plan files are written to a `.tmp` sibling of their final name.
//! When the owning rank has finished its writes (after its `Close`), the
//! `Op::Commit` step seals the temporary file — appends a [`format`]
//! checksum footer with a CRC32C per field region — optionally fsyncs, and
//! publishes it with a single `rename(2)`. A crash at *any* point therefore
//! leaves either no final file or a complete, checksummed one; a partially
//! written checkpoint is never observable under its final name.
//!
//! Verification is hostile-input safe: a corrupt or adversarial footer
//! (absurd region offsets, truncated tables, oversize counts) yields a
//! typed [`VerifyError`] — never a panic or a silent wrap on 32-bit.

use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rbio_plan::Rank;

use crate::crash;
use crate::fault::{self, FaultPlan, IoCtx};
use crate::format::{self, FooterRegion};
use crate::sched::{self, Revert};

/// Suffix appended to a final path to form its temporary sibling.
pub const TMP_SUFFIX: &str = ".tmp";

/// The `.tmp` sibling of `final_path` that writers target before commit.
pub fn tmp_path(final_path: &Path) -> PathBuf {
    let mut name = final_path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(TMP_SUFFIX);
    final_path.with_file_name(name)
}

/// Seal `tmp` and atomically publish it as `final_path`.
///
/// `expected_size` is the plan's logical file size (header + data); the
/// temporary file must be exactly that long, or the commit fails with
/// `InvalidData` — a short file means some writer's data never landed.
///
/// The footer's regions come from the file's own master header when it
/// parses (one region per field, plus one for the header itself); a file
/// without a parseable header (non-checkpoint payloads) gets a single
/// whole-file region. Either way every byte of the logical file is covered
/// by exactly one checksum.
pub fn commit_file(
    tmp: &Path,
    final_path: &Path,
    expected_size: u64,
    fsync: bool,
) -> io::Result<()> {
    commit_file_with_faults(tmp, final_path, expected_size, fsync, &FaultPlan::none(), 0)
}

/// [`commit_file`] with a fault-injection plan consulted at the
/// directory-fsync edge (the rename-durability barrier). Both executors
/// and the background flush pipeline route commits through here so an
/// injected dir-fsync failure surfaces exactly like a real one: as an
/// error, never as a silently "successful" commit.
pub fn commit_file_with_faults(
    tmp: &Path,
    final_path: &Path,
    expected_size: u64,
    fsync: bool,
    faults: &FaultPlan,
    rank: Rank,
) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(tmp)?;
    let actual = f.metadata()?.len();
    if actual != expected_size {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "commit of {}: tmp file is {actual} bytes, plan expects {expected_size}",
                final_path.display()
            ),
        ));
    }
    let mut bytes = Vec::with_capacity(actual as usize);
    f.read_to_end(&mut bytes)?;
    let regions = footer_regions(&bytes, expected_size)?;
    let footer = format::encode_footer(&regions);
    f.seek(SeekFrom::Start(expected_size))?;
    f.write_all(&footer)?;
    crash::record_write(&f, expected_size, &[&footer]);
    if fsync {
        // Sticky fsync-failure semantics (the fsyncgate rule): consult
        // the plan first, and latch a *real* failure, so no later fsync
        // on this rank can ever report the data clean.
        if let Some(e) = faults.on_fsync(rank) {
            return Err(e);
        }
        f.sync_all()
            .inspect_err(|_| faults.latch_fsync_failure(rank))?;
        crash::record_fsync_file(&f);
    }
    drop(f);
    std::fs::rename(tmp, final_path)?;
    crash::record_rename(tmp, final_path);
    if fsync && !sched::reverted(Revert::Pr1CommitFsync) {
        // Persist the rename itself: fsync the containing directory. A
        // failure here means the publication may not survive a crash, so
        // it must surface — swallowing it turns a broken durability
        // barrier into a silent success.
        let dir = match final_path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        let d = std::fs::File::open(dir)?;
        if let Some(e) = faults.on_dir_fsync(rank) {
            return Err(e);
        }
        d.sync_all()?;
        crash::record_dir_fsync(dir);
    }
    Ok(())
}

/// Per-field checksum regions when the header parses and matches the
/// logical size (the header protects itself with its own CRC32), else one
/// whole-file region. Matches
/// [`format::FileHeader::expected_committed_size`]: `nregions == nfields`.
/// Fails (rather than panics) when a parsed header describes regions
/// outside the file.
fn footer_regions(bytes: &[u8], expected_size: u64) -> io::Result<Vec<FooterRegion>> {
    if let Ok(header) = format::decode_header(bytes) {
        if header.expected_file_size() == expected_size && !header.fields.is_empty() {
            return header
                .fields
                .iter()
                .map(|f| region(bytes, f.data_off, f.sizes.iter().sum()))
                .collect();
        }
    }
    region(bytes, 0, expected_size).map(|r| vec![r])
}

fn region(bytes: &[u8], off: u64, len: u64) -> io::Result<FooterRegion> {
    let slice = checked_slice(bytes, off, len).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checksum region [{off}, +{len}) lies outside the {}-byte file",
                bytes.len()
            ),
        )
    })?;
    Ok(FooterRegion {
        off,
        len,
        crc32c: format::crc32c(slice),
    })
}

/// `&bytes[off..off + len]` with every conversion and addition checked:
/// `None` on u64 overflow, usize truncation (32-bit), or out-of-bounds —
/// the caller decides whether that is an error or a torn file.
fn checked_slice(bytes: &[u8], off: u64, len: u64) -> Option<&[u8]> {
    let end = off.checked_add(len)?;
    let off = usize::try_from(off).ok()?;
    let end = usize::try_from(end).ok()?;
    bytes.get(off..end)
}

/// Files below this logical size verify their regions serially; larger
/// ones fan the per-region CRC computation out across worker threads
/// (restart verification is CPU-bound once the file is in page cache).
const PARALLEL_VERIFY_MIN: u64 = 4 << 20;

/// Why a committed file failed verification. Every variant is a recoverable
/// "treat as torn" outcome; hostile footers map here instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The file is shorter than its logical size.
    Truncated {
        /// Bytes actually present.
        actual: u64,
        /// The plan's logical size.
        expected: u64,
    },
    /// No footer present after the logical size.
    MissingFooter,
    /// The footer's length does not match its own region count.
    FooterLength {
        /// Footer bytes present.
        actual: u64,
        /// Length implied by the region count.
        expected: u64,
    },
    /// The footer failed to decode (bad magic, bad trailer CRC, …).
    FooterInvalid(String),
    /// A footer region lies outside the logical file (offset overflow,
    /// 32-bit truncation, or out-of-bounds end).
    RegionOutOfBounds {
        /// Index of the offending region.
        index: usize,
        /// Its claimed offset.
        off: u64,
        /// Its claimed length.
        len: u64,
    },
    /// A region's stored CRC does not match the data.
    ChecksumMismatch {
        /// Index of the offending region.
        index: usize,
        /// CRC stored in the footer.
        stored: u32,
        /// CRC computed over the data.
        computed: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Truncated { actual, expected } => {
                write!(f, "file is {actual} bytes, logical size is {expected}")
            }
            VerifyError::MissingFooter => {
                write!(f, "commit footer missing (file never committed?)")
            }
            VerifyError::FooterLength { actual, expected } => {
                write!(f, "commit footer is {actual} bytes, expected {expected}")
            }
            VerifyError::FooterInvalid(e) => write!(f, "commit footer invalid: {e}"),
            VerifyError::RegionOutOfBounds { index, off, len } => {
                write!(f, "region {index} [{off}, +{len}) out of bounds")
            }
            VerifyError::ChecksumMismatch {
                index,
                stored,
                computed,
            } => write!(
                f,
                "region {index} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify the commit footer of a fully read file against `expected_size`
/// (the logical, pre-footer size). Returns a description of the first
/// problem (under parallel verification, the lowest-indexed failing
/// region), or `None` when every region checks out.
pub fn verify_committed(bytes: &[u8], expected_size: u64) -> Option<String> {
    verify_committed_typed(bytes, expected_size)
        .err()
        .map(|e| e.to_string())
}

/// [`verify_committed`] with a typed error, for callers that distinguish
/// torn-file classes. All arithmetic is checked: a hostile footer (offsets
/// near `u64::MAX`, absurd region counts, truncated tables) returns an
/// error instead of panicking or truncating on 32-bit targets.
pub fn verify_committed_typed(bytes: &[u8], expected_size: u64) -> Result<(), VerifyError> {
    if (bytes.len() as u64) < expected_size {
        return Err(VerifyError::Truncated {
            actual: bytes.len() as u64,
            expected: expected_size,
        });
    }
    // Safe after the length check above, but stay checked anyway.
    let logical = usize::try_from(expected_size).map_err(|_| VerifyError::Truncated {
        actual: bytes.len() as u64,
        expected: expected_size,
    })?;
    let footer = &bytes[logical..];
    if footer.len() < 8 {
        return Err(VerifyError::MissingFooter);
    }
    let nregions = u32::from_le_bytes(footer[4..8].try_into().expect("len 4")) as usize;
    // Compare in u64: `footer_len` of a hostile 4-billion-region count
    // must not be truncated through usize on 32-bit.
    let flen = format::footer_len(nregions);
    if footer.len() as u64 != flen {
        return Err(VerifyError::FooterLength {
            actual: footer.len() as u64,
            expected: flen,
        });
    }
    let regions =
        format::decode_footer(footer).map_err(|e| VerifyError::FooterInvalid(e.to_string()))?;
    // Bounds first (cheap, serial) so the checksum passes below can slice
    // without further checks.
    for (i, r) in regions.iter().enumerate() {
        let end = r.off.checked_add(r.len);
        let in_bounds =
            end.is_some_and(|e| e <= expected_size) && checked_slice(bytes, r.off, r.len).is_some();
        if !in_bounds {
            return Err(VerifyError::RegionOutOfBounds {
                index: i,
                off: r.off,
                len: r.len,
            });
        }
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(regions.len())
        .min(8);
    if expected_size < PARALLEL_VERIFY_MIN || workers <= 1 {
        return match regions
            .iter()
            .enumerate()
            .find_map(|(i, r)| check_region(bytes, i, r))
        {
            Some(e) => Err(e),
            None => Ok(()),
        };
    }
    // Work-stealing fan-out: workers claim region indices from a shared
    // counter, so one huge region cannot serialize the rest behind it.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let firsts: Vec<Option<(usize, VerifyError)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut first: Option<(usize, VerifyError)> = None;
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= regions.len() {
                            return first;
                        }
                        if let Some(why) = check_region(bytes, i, &regions[i]) {
                            if first.as_ref().is_none_or(|(j, _)| i < *j) {
                                first = Some((i, why));
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify worker must not panic"))
            .collect()
    });
    match firsts.into_iter().flatten().min_by_key(|(i, _)| *i) {
        Some((_, why)) => Err(why),
        None => Ok(()),
    }
}

/// Checksum one bounds-checked footer region.
fn check_region(bytes: &[u8], i: usize, r: &FooterRegion) -> Option<VerifyError> {
    let Some(slice) = checked_slice(bytes, r.off, r.len) else {
        // Bounds were pre-checked; unreachable in practice, but stay safe.
        return Some(VerifyError::RegionOutOfBounds {
            index: i,
            off: r.off,
            len: r.len,
        });
    };
    let got = format::crc32c(slice);
    (got != r.crc32c).then_some(VerifyError::ChecksumMismatch {
        index: i,
        stored: r.crc32c,
        computed: got,
    })
}

/// Publish a small text artifact (a manifest, a commit marker) through the
/// same tmp + CRC footer + rename path as checkpoint data, so a crash
/// mid-write can never leave a final name holding a torn body that still
/// parses. The body write goes through the fault layer as `rank`, so
/// kill-after-bytes plans can crash the metadata writer mid-file exactly
/// like a data writer.
pub fn commit_text_with_faults(
    final_path: &Path,
    body: &str,
    fsync: bool,
    faults: &FaultPlan,
    rank: Rank,
) -> io::Result<()> {
    let tmp = tmp_path(final_path);
    let f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(&tmp)?;
    let ctx = IoCtx {
        rank,
        wid: 0,
        faults,
        write_retries: 0,
        retry_backoff: std::time::Duration::from_micros(50),
    };
    fault::write_at(&ctx, &f, 0, &[body]).map_err(|e| {
        e.into_io()
            .unwrap_or_else(|| io::Error::other(format!("rank {rank} killed mid-write")))
    })?;
    drop(f);
    if faults.on_commit(rank) {
        // Die after the body write, before the rename: the final name
        // must never appear.
        return Err(io::Error::other(format!("rank {rank} killed at commit")));
    }
    commit_file_with_faults(&tmp, final_path, body.len() as u64, fsync, faults, rank)
}

/// [`commit_text_with_faults`] without fault injection.
pub fn commit_text(final_path: &Path, body: &str, fsync: bool) -> io::Result<()> {
    commit_text_with_faults(final_path, body, fsync, &FaultPlan::none(), 0)
}

/// Read a text artifact published by [`commit_text`]: verifies the CRC
/// footer and strips it. Bodies written before the footer era (no `RBFT`
/// trailer) are returned as-is, so old checkpoint directories stay
/// readable. A present-but-corrupt footer is an `InvalidData` error — the
/// caller treats the artifact as torn.
pub fn read_committed_text(path: &Path) -> io::Result<String> {
    let bytes = std::fs::read(path)?;
    let flen = format::footer_len(1) as usize;
    let text = |v: Vec<u8>| {
        String::from_utf8(v)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "metadata file is not UTF-8"))
    };
    if bytes.len() >= flen {
        let logical = bytes.len() - flen;
        if bytes[logical..logical + 4] == format::FOOTER_MAGIC.to_le_bytes() {
            if let Err(e) = verify_committed_typed(&bytes, logical as u64) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            let mut body = bytes;
            body.truncate(logical);
            return text(body);
        }
    }
    text(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_path_is_sibling() {
        let p = Path::new("/ck/step0000000001/app.00000.rbio");
        assert_eq!(
            tmp_path(p),
            PathBuf::from("/ck/step0000000001/app.00000.rbio.tmp")
        );
    }

    #[test]
    fn commit_appends_footer_and_renames() {
        let dir = tempdir("commit_basic");
        let tmp = dir.join("f.bin.tmp");
        let fin = dir.join("f.bin");
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        std::fs::write(&tmp, &payload).unwrap();
        commit_file(&tmp, &fin, 200, false).unwrap();
        assert!(!tmp.exists(), "tmp must be gone after commit");
        let bytes = std::fs::read(&fin).unwrap();
        assert_eq!(bytes.len() as u64, 200 + format::footer_len(1));
        assert_eq!(&bytes[..200], &payload[..]);
        assert!(verify_committed(&bytes, 200).is_none());
    }

    #[test]
    fn short_tmp_file_refuses_to_commit() {
        let dir = tempdir("commit_short");
        let tmp = dir.join("f.bin.tmp");
        let fin = dir.join("f.bin");
        std::fs::write(&tmp, [0u8; 10]).unwrap();
        let err = commit_file(&tmp, &fin, 200, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!fin.exists());
        assert!(tmp.exists(), "failed commit must leave the tmp file");
    }

    #[test]
    fn verify_catches_data_flip() {
        let dir = tempdir("commit_flip");
        let tmp = dir.join("f.bin.tmp");
        let fin = dir.join("f.bin");
        std::fs::write(&tmp, [7u8; 64]).unwrap();
        commit_file(&tmp, &fin, 64, false).unwrap();
        let mut bytes = std::fs::read(&fin).unwrap();
        bytes[13] ^= 0x01;
        let why = verify_committed(&bytes, 64).expect("must detect flip");
        assert!(why.contains("checksum mismatch"), "{why}");
    }

    #[test]
    fn dir_fsync_failure_is_propagated() {
        let dir = tempdir("commit_dirfsync");
        let tmp = dir.join("f.bin.tmp");
        let fin = dir.join("f.bin");
        std::fs::write(&tmp, [3u8; 32]).unwrap();
        let faults = FaultPlan::none().fail_dir_fsync(4);
        let err = commit_file_with_faults(&tmp, &fin, 32, true, &faults, 4)
            .expect_err("a failed rename-durability barrier must surface");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("directory fsync"), "{err}");
        // The fault is one-shot: a retried commit of fresh data succeeds.
        std::fs::write(&tmp, [3u8; 32]).unwrap();
        std::fs::remove_file(&fin).ok();
        commit_file_with_faults(&tmp, &fin, 32, true, &faults, 4).unwrap();
    }

    #[test]
    fn hostile_footers_yield_typed_errors_not_panics() {
        // A region whose offset + length overflows u64.
        let body = vec![0u8; 16];
        let mut file = body.clone();
        file.extend_from_slice(&format::encode_footer(&[FooterRegion {
            off: u64::MAX - 4,
            len: 8,
            crc32c: 0,
        }]));
        match verify_committed_typed(&file, 16) {
            Err(VerifyError::RegionOutOfBounds { index: 0, .. }) => {}
            other => panic!("expected RegionOutOfBounds, got {other:?}"),
        }
        // A region past the logical size.
        let mut file = body.clone();
        file.extend_from_slice(&format::encode_footer(&[FooterRegion {
            off: 8,
            len: 9,
            crc32c: 0,
        }]));
        assert!(matches!(
            verify_committed_typed(&file, 16),
            Err(VerifyError::RegionOutOfBounds { .. })
        ));
        // An absurd region count whose implied footer length would wrap a
        // 32-bit usize: must be a length mismatch, not a panic.
        let mut file = body.clone();
        file.extend_from_slice(&format::FOOTER_MAGIC.to_le_bytes());
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            verify_committed_typed(&file, 16),
            Err(VerifyError::FooterLength { .. })
        ));
        // Footer shorter than the magic + count prelude.
        let mut file = body.clone();
        file.extend_from_slice(&[0u8; 3]);
        assert!(matches!(
            verify_committed_typed(&file, 16),
            Err(VerifyError::MissingFooter)
        ));
        // Truncated entirely.
        assert!(matches!(
            verify_committed_typed(&body, 64),
            Err(VerifyError::Truncated { .. })
        ));
    }

    #[test]
    fn committed_text_roundtrips_and_detects_torn_bodies() {
        let dir = tempdir("commit_text");
        let p = dir.join("step0000000001.manifest");
        let body = "step 1\nextents 2\na.rbio 0 primary\nb.rbio 1 primary\n";
        commit_text(&p, body, false).unwrap();
        assert_eq!(read_committed_text(&p).unwrap(), body);
        // Flip a byte inside the body: the footer CRC must catch it.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let err = read_committed_text(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Legacy plain-text bodies (no footer) still read.
        let legacy = dir.join("legacy.manifest");
        std::fs::write(&legacy, body).unwrap();
        assert_eq!(read_committed_text(&legacy).unwrap(), body);
    }

    #[test]
    fn killed_text_commit_leaves_no_final_file() {
        let dir = tempdir("commit_text_kill");
        let p = dir.join("step0000000001.manifest");
        let faults = FaultPlan::none().kill_writer_after_bytes(99, 4);
        let err = commit_text_with_faults(&p, "step 1\nextents 0\n", false, &faults, 99)
            .expect_err("killed mid-manifest-write");
        assert!(err.to_string().contains("killed"), "{err}");
        assert!(!p.exists(), "final manifest must never appear");
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio_commit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
