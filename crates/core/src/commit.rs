//! Crash-consistent checkpoint publication: every durable edge lives here.
//!
//! The one sticky fsync (`sync_file`), the commit-kill check and the seal
//! of a `.tmp` ([`commit_file_with_faults`]), the sealed write of an
//! in-memory image ([`commit_bytes`]) and the verified read-back
//! ([`read_committed`]) each journal to [`crate::crash`] where they happen;
//! the one directory listing ([`list`]) and the one unlink ([`remove`])
//! sit beside them. The crate's `clippy.toml` keeps fsync, rename and
//! unlink out of other modules.
//!
//! Atomic plan files are written to a `.tmp` sibling of their final name.
//! When the owning rank has finished its writes (after its `Close`), the
//! `Op::Commit` step seals the temporary file — appends a [`format`]
//! checksum footer with a CRC32C per field region — optionally fsyncs, and
//! publishes it with a single `rename(2)`. A crash at *any* point therefore
//! leaves either no final file or a complete, checksummed one; a partially
//! written checkpoint is never observable under its final name.
//!
//! That fsync is the file's only one: no writer syncs an atomic file on
//! `Close`. Writers of files that will be synced start writeback behind
//! each large write instead (`pipeline::hint_writeback`), so the
//! device drains the data while the sealer reads it back for the CRCs, and
//! the one `sync_all` — issued on a descriptor opened here, which
//! therefore reports a writeback error on any writer's pages — waits for
//! what is left plus the footer.
//!
//! Verification is hostile-input safe: a corrupt or adversarial footer
//! (absurd region offsets, truncated tables, oversize counts) yields a
//! typed [`VerifyError`] — never a panic or a silent wrap on 32-bit.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSliceMut, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use rbio_plan::Rank;

use crate::buf::{BufPool, PooledBuf};
use crate::crash;
use crate::fault::{self, FaultPlan, IoCtx, WriteError};
use crate::format::{self, FooterRegion};
use crate::pipeline;
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
///
/// Sealing streams: the header prefix is read, then each region passes
/// once through a [`STREAM_CHUNK`]-sized buffer into the running CRC
/// (warm from the page cache — the writers just put it there). No image
/// of the file is ever built.
pub fn commit_file(
    tmp: &Path,
    final_path: &Path,
    expected_size: u64,
    fsync: bool,
) -> io::Result<()> {
    commit_file_with_faults(tmp, final_path, expected_size, fsync, &FaultPlan::none(), 0)
        .map_err(io::Error::from)
}

/// The one sticky fsync (the fsyncgate rule): `rank`'s plan is consulted
/// first, a *real* failure is latched so that no later fsync on `rank`
/// can report the data clean, and a success is journaled.
#[allow(clippy::disallowed_methods)]
pub(crate) fn sync_file(file: &File, faults: &FaultPlan, rank: Rank) -> io::Result<()> {
    if let Some(e) = faults.on_fsync(rank) {
        return Err(e);
    }
    file.sync_all()
        .inspect_err(|_| faults.latch_fsync_failure(rank))?;
    crash::record_fsync_file(file);
    Ok(())
}

/// [`commit_file`] under `rank`'s fault plan. Both executors, the flush
/// pipeline and [`commit_bytes`] route every commit through here, so an
/// injected failure surfaces exactly like a real one: a kill at the
/// commit edge (after the data, before the rename — the final name never
/// appears) is [`WriteError::Killed`]; an fsync or directory-fsync
/// failure is an error, never a silently "successful" commit.
#[allow(clippy::disallowed_methods)]
pub fn commit_file_with_faults(
    tmp: &Path,
    final_path: &Path,
    expected_size: u64,
    fsync: bool,
    faults: &FaultPlan,
    rank: Rank,
) -> Result<(), WriteError> {
    if faults.on_commit(rank) {
        return Err(WriteError::Killed);
    }
    let f = OpenOptions::new().read(true).write(true).open(tmp)?;
    let actual = f.metadata()?.len();
    if actual != expected_size {
        return Err(WriteError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "commit of {}: tmp file is {actual} bytes, plan expects {expected_size}",
                final_path.display()
            ),
        )));
    }
    let footer = format::encode_footer(&footer_regions(&f, expected_size)?);
    f.write_all_at(&footer, expected_size)?;
    crash::record_write(&f, expected_size, [&footer]);
    if fsync {
        sync_file(&f, faults, rank)?;
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
            return Err(e.into());
        }
        d.sync_all()?;
        crash::record_dir_fsync(dir);
    }
    Ok(())
}

/// Bytes per read of the streaming region walker: large enough that the
/// syscall is noise next to the copy, small enough to stay cache-resident
/// between the copy and the CRC pass over it.
pub(crate) const STREAM_CHUNK: usize = 1 << 20;

/// The buffer one file's regions stream through: [`STREAM_CHUNK`] bytes,
/// or the longest region's length when that is shorter, leased from the
/// global pool — so sealing or verifying a file allocates nothing once the
/// pool has seen a file of its kind. Leased without the zero-fill: each
/// pass reads into the front of it and checksums only what it read, and
/// it is never frozen.
fn stream_buf(region_lens: impl Iterator<Item = u64>) -> PooledBuf {
    let longest = region_lens.max().unwrap_or(0);
    BufPool::global().lease_to_overwrite(longest.min(STREAM_CHUNK as u64) as usize)
}

/// One step of the one streaming region walker — under the sealer,
/// [`verify_committed_file`] (scrub's deep pass with it) and restore
/// alike, the only place a file's bytes meet its CRC: fill `batch`, whose
/// non-empty slices take consecutive bytes from `f`'s cursor, and return
/// `crc` with them appended. One `readv` unless it comes back short, and
/// each slice is checksummed as soon as it is full, while it is still in
/// cache. A file that ends first is an `UnexpectedEof`.
pub(crate) fn read_crc32c(
    mut f: &File,
    batch: &mut [IoSliceMut<'_>],
    mut crc: u32,
) -> io::Result<u32> {
    let mut i = 0;
    while i < batch.len() {
        let mut n = match f.read_vectored(&mut batch[i..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while i < batch.len() && n >= batch[i].len() {
            n -= batch[i].len();
            crc = format::crc32c_update(crc, &batch[i]);
            i += 1;
        }
        if n > 0 {
            // Stopped inside a slice: finish it, then gather again.
            f.read_exact(&mut batch[i][n..])?;
            crc = format::crc32c_update(crc, &batch[i]);
            i += 1;
        }
    }
    Ok(crc)
}

/// CRC32C of the `len` bytes of `f` at `off`, streamed through `buf` (this
/// file's [`stream_buf`]) on `f`'s cursor. The caller has checked the
/// region against the file's length; a file that shrinks meanwhile is an
/// `UnexpectedEof`.
fn crc32c_of_region(mut f: &File, off: u64, len: u64, buf: &mut [u8]) -> io::Result<u32> {
    f.seek(SeekFrom::Start(off))?;
    let (mut crc, mut done) = (0, 0);
    while done < len {
        let n = (len - done).min(buf.len() as u64) as usize;
        crc = read_crc32c(f, &mut [IoSliceMut::new(&mut buf[..n])], crc)?;
        done += n as u64;
    }
    Ok(crc)
}

/// The `(offset, length)` of each checksum region of a logical file of
/// `expected_size` bytes that starts with `head`: one per field when
/// `head` parses as a master header that matches the logical size (the
/// header protects itself with its own CRC32), else one whole-file
/// region. Matches [`format::FileHeader::expected_committed_size`]:
/// `nregions == max(nfields, 1)`.
fn region_spans(head: &[u8], expected_size: u64) -> Vec<(u64, u64)> {
    if let Ok(header) = format::decode_header(head) {
        if header.expected_file_size() == expected_size && !header.fields.is_empty() {
            return header
                .fields
                .iter()
                .map(|f| (f.data_off, f.sizes.iter().sum()))
                .collect();
        }
    }
    vec![(0, expected_size)]
}

/// Does a footer list exactly the regions [`region_spans`] gives a file
/// with this header — one per field, its data span, in field order? A
/// reader that places blocks by the header may then take the footer's
/// CRCs for those very bytes.
pub(crate) fn regions_match_header(regions: &[FooterRegion], header: &format::FileHeader) -> bool {
    regions.len() == header.fields.len()
        && regions
            .iter()
            .zip(&header.fields)
            .all(|(r, f)| r.off == f.data_off && r.len == f.sizes.iter().sum::<u64>())
}

/// Checksum the regions of the `expected_size`-byte file `f` for its
/// footer. Fails (rather than panics) when a parsed header describes
/// regions outside the file.
fn footer_regions(f: &File, expected_size: u64) -> io::Result<Vec<FooterRegion>> {
    let head = format::read_header_prefix(expected_size, |b, off| f.read_exact_at(b, off))?;
    let spans = region_spans(&head, expected_size);
    let mut buf = stream_buf(spans.iter().map(|&(_, len)| len));
    spans
        .into_iter()
        .map(|(off, len)| {
            if !region_in_file(off, len, expected_size) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checksum region [{off}, +{len}) lies outside the {expected_size}-byte file"
                    ),
                ));
            }
            let crc32c = crc32c_of_region(f, off, len, &mut buf)?;
            Ok(FooterRegion { off, len, crc32c })
        })
        .collect()
}

/// Does `[off, off + len)` lie inside a logical file of `size` bytes?
/// Overflow-checked: a hostile offset near `u64::MAX` is just "no".
fn region_in_file(off: u64, len: u64, size: u64) -> bool {
    off.checked_add(len).is_some_and(|end| end <= size)
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
/// problem, or `None` when every region checks out.
pub fn verify_committed(bytes: &[u8], expected_size: u64) -> Option<String> {
    verify_committed_typed(bytes, expected_size)
        .err()
        .map(|e| e.to_string())
}

/// [`verify_committed`] with a typed error, for callers that distinguish
/// torn-file classes. All arithmetic is checked: a hostile footer (offsets
/// near `u64::MAX`, absurd region counts, truncated tables) returns an
/// error instead of panicking or truncating on 32-bit targets.
///
/// The verifier of bytes already in memory — repair paths that go on to
/// reinstall the image, small text artifacts, tests. Restore and scrub
/// stream the file instead ([`read_footer`] + [`read_crc32c`]).
pub fn verify_committed_typed(bytes: &[u8], expected_size: u64) -> Result<(), VerifyError> {
    let truncated = || VerifyError::Truncated {
        actual: bytes.len() as u64,
        expected: expected_size,
    };
    // The conversion cannot fail once the length check passed, but stay
    // checked anyway.
    let logical = usize::try_from(expected_size).map_err(|_| truncated())?;
    let footer = bytes.get(logical..).ok_or_else(truncated)?;
    check_footer_len(&footer[..footer.len().min(8)], footer.len() as u64)?;
    // Bounds are checked here so the checksum pass can slice without
    // further checks.
    let regions = decode_bounded_footer(footer, expected_size)?;
    match regions
        .iter()
        .enumerate()
        .find_map(|(i, r)| check_region(bytes, i, r))
    {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// A footer's check on its own length, from its first bytes: `present`
/// bytes follow the logical size and `prelude` holds the first
/// `min(present, 8)` of them (magic + region count).
fn check_footer_len(prelude: &[u8], present: u64) -> Result<(), VerifyError> {
    let Some(nregions) = prelude.get(4..8) else {
        return Err(VerifyError::MissingFooter);
    };
    let nregions = u32::from_le_bytes(nregions.try_into().expect("len 4")) as usize;
    // Compare in u64: `footer_len` of a hostile 4-billion-region count
    // must not be truncated through usize on 32-bit.
    let expected = format::footer_len(nregions);
    if present != expected {
        return Err(VerifyError::FooterLength {
            actual: present,
            expected,
        });
    }
    Ok(())
}

/// Decode a length-checked footer and bounds-check every region against
/// the logical size. With [`check_footer_len`], the parse the image
/// verifier and [`read_footer`] share; they differ only in where the
/// bytes come from.
fn decode_bounded_footer(
    footer: &[u8],
    expected_size: u64,
) -> Result<Vec<FooterRegion>, VerifyError> {
    let regions =
        format::decode_footer(footer).map_err(|e| VerifyError::FooterInvalid(e.to_string()))?;
    for (index, r) in regions.iter().enumerate() {
        if !region_in_file(r.off, r.len, expected_size) {
            return Err(VerifyError::RegionOutOfBounds {
                index,
                off: r.off,
                len: r.len,
            });
        }
    }
    Ok(regions)
}

/// The one footer reader: the bounds-checked regions of the commit footer
/// that follows the `expected_size` logical bytes of the `actual`-byte
/// file `f`. The outer error is an I/O failure reading `f`; the inner one
/// is the verdict `verify_committed_typed` gives the same bytes before it
/// checksums anything.
pub(crate) fn read_footer(
    f: &File,
    actual: u64,
    expected_size: u64,
) -> io::Result<Result<Vec<FooterRegion>, VerifyError>> {
    let Some(present) = actual.checked_sub(expected_size) else {
        return Ok(Err(VerifyError::Truncated {
            actual,
            expected: expected_size,
        }));
    };
    // Prelude first: a length read from the file is checked against the
    // file before anything is allocated for it.
    let mut prelude = [0u8; 8];
    let prelude = &mut prelude[..present.min(8) as usize];
    f.read_exact_at(prelude, expected_size)?;
    if let Err(e) = check_footer_len(prelude, present) {
        return Ok(Err(e));
    }
    let mut footer = vec![0u8; present as usize];
    f.read_exact_at(&mut footer, expected_size)?;
    Ok(decode_bounded_footer(&footer, expected_size))
}

/// [`verify_committed_typed`] for a file on disk, without building its
/// image: the footer is read and checked, then every region streams
/// through one [`STREAM_CHUNK`] buffer into the CRC. For callers that want
/// a verdict, not the bytes; it moves `f`'s cursor. The outer error is an
/// I/O failure reading `f`; the inner one is the verdict, the same variant
/// `verify_committed_typed` gives the same bytes (the first failing
/// region, in index order).
pub fn verify_committed_file(f: &File, expected_size: u64) -> io::Result<Result<(), VerifyError>> {
    let regions = match read_footer(f, f.metadata()?.len(), expected_size)? {
        Ok(regions) => regions,
        Err(e) => return Ok(Err(e)),
    };
    let mut buf = stream_buf(regions.iter().map(|r| r.len));
    for (index, r) in regions.iter().enumerate() {
        let computed = crc32c_of_region(f, r.off, r.len, &mut buf)?;
        if computed != r.crc32c {
            return Ok(Err(VerifyError::ChecksumMismatch {
                index,
                stored: r.crc32c,
                computed,
            }));
        }
    }
    Ok(Ok(()))
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

/// Seal `bufs`, back to back, as the committed file `final_path` — the
/// one way an in-memory image is published (text artifacts, both tier
/// hops, scrub's reinstall): the `.tmp` is created, one fault-checked
/// write lands the bytes as `rank` (retried on the one budget, as every
/// writer's is), writeback starts behind them when the file will be
/// fsynced, and [`commit_file_with_faults`] publishes it.
pub fn commit_bytes(
    final_path: &Path,
    bufs: &[impl AsRef<[u8]>],
    fsync: bool,
    faults: &FaultPlan,
    rank: Rank,
) -> Result<(), WriteError> {
    let tmp = tmp_path(final_path);
    let f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(&tmp)?;
    fault::write_at(&IoCtx::new(rank, 0, faults), &f, 0, bufs)?;
    let size = bufs.iter().map(|b| b.as_ref().len() as u64).sum();
    if fsync {
        pipeline::hint_writeback(&f, 0, size);
    }
    drop(f);
    commit_file_with_faults(&tmp, final_path, size, fsync, faults, rank)
}

/// Publish a small text artifact (a commit marker) through
/// [`commit_bytes`], so a crash mid-write can never leave a final name
/// holding a torn body that still parses, and kill-after-bytes plans crash
/// the metadata writer `rank` exactly like a data writer.
pub fn commit_text_with_faults(
    final_path: &Path,
    body: &str,
    fsync: bool,
    faults: &FaultPlan,
    rank: Rank,
) -> io::Result<()> {
    commit_bytes(final_path, &[body], fsync, faults, rank).map_err(io::Error::from)
}

/// [`commit_text_with_faults`] without fault injection.
pub fn commit_text(final_path: &Path, body: &str, fsync: bool) -> io::Result<()> {
    commit_text_with_faults(final_path, body, fsync, &FaultPlan::none(), 0)
}

/// The one verified read-back: the committed file at `path` as its
/// `logical_size`-byte image, footer checked, then stripped. Bytes its
/// footer does not vouch for never come back: a torn copy is an
/// `InvalidData` error carrying the [`VerifyError`] text.
pub fn read_committed(path: &Path, logical_size: u64) -> io::Result<Vec<u8>> {
    verified_image(std::fs::read(path)?, logical_size)
}

/// `bytes` cut to its verified `logical_size`-byte body.
fn verified_image(mut bytes: Vec<u8>, logical_size: u64) -> io::Result<Vec<u8>> {
    verify_committed_typed(&bytes, logical_size)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    bytes.truncate(logical_size as usize);
    Ok(bytes)
}

/// Read a text artifact published by [`commit_text`]: verifies the CRC
/// footer and strips it. A body without a valid `RBFT` footer — cut,
/// corrupt, or never sealed — is an `InvalidData` error: the caller
/// treats the artifact as torn.
pub fn read_committed_text(path: &Path) -> io::Result<String> {
    let bytes = std::fs::read(path)?;
    let logical = bytes.len().saturating_sub(format::footer_len(1) as usize);
    String::from_utf8(verified_image(bytes, logical as u64)?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "metadata file is not UTF-8"))
}

/// The one directory listing: the names in `dir`, sorted. An entry that
/// vanishes while it is being listed (a concurrent GC, another manager)
/// is skipped; any other error is real and propagates.
pub(crate) fn list(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        match entry {
            Ok(e) => names.push(e.file_name().to_string_lossy().into_owned()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    names.sort_unstable();
    Ok(names)
}

/// The one unlink: remove `path`, treating "already gone" as success —
/// another process (or an earlier crashed GC) may legally have deleted it
/// between listing and removal. Returns whether this call did the
/// deleting; any other error (permissions, EISDIR, I/O) propagates.
#[allow(clippy::disallowed_methods)]
pub(crate) fn remove(path: &Path) -> io::Result<bool> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
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
    fn commit_bytes_retries_a_transient_write_error() {
        // One injected EIO on the publish's only write: the budget every
        // writer shares retries it, and the file verifies.
        let dir = tempdir("commit_bytes_eio");
        let fin = dir.join("hop.bin");
        let body: Vec<u8> = (0..5000u32).map(|i| (i * 13) as u8).collect();
        let faults = FaultPlan::none().fail_nth_write(9, 0, 1);
        commit_bytes(&fin, &[&body], false, &faults, 9).expect("a retried write publishes");
        assert_eq!(read_committed(&fin, body.len() as u64).unwrap(), body);
        assert!(!tmp_path(&fin).exists(), "tmp must be gone after commit");
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
        let err: io::Error = commit_file_with_faults(&tmp, &fin, 32, true, &faults, 4)
            .expect_err("a failed rename-durability barrier must surface")
            .into();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("directory fsync"), "{err}");
        // The fault is one-shot: a retried commit of fresh data succeeds.
        std::fs::write(&tmp, [3u8; 32]).unwrap();
        #[allow(clippy::disallowed_methods)]
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
        let p = dir.join("step0000000001.commit");
        let body = "step 1\nfiles 2\na.rbio 96 0badc0de 0 primary\nb.rbio 96 0ddba11a 1 primary\n";
        commit_text(&p, body, false).unwrap();
        assert_eq!(read_committed_text(&p).unwrap(), body);
        // Flip a byte inside the body: the footer CRC must catch it.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let err = read_committed_text(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A body without its footer is torn, however it lost it: never
        // sealed, cut at a line boundary, or empty.
        let bare = dir.join("bare.commit");
        let sealed = {
            commit_text(&p, body, false).unwrap();
            std::fs::read(&p).unwrap()
        };
        let last_line = body.trim_end().rfind('\n').unwrap() + 1;
        for unsealed in [body.as_bytes(), &sealed[..last_line], &[]] {
            std::fs::write(&bare, unsealed).unwrap();
            let err = read_committed_text(&bare).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{unsealed:?}");
        }
    }

    #[test]
    fn killed_text_commit_leaves_no_final_file() {
        let dir = tempdir("commit_text_kill");
        let p = dir.join("step0000000001.commit");
        let faults = FaultPlan::none().kill_writer_after_bytes(99, 4);
        let err = commit_text_with_faults(&p, "step 1\nfiles 0\n", false, &faults, 99)
            .expect_err("killed mid-marker-write");
        assert!(err.to_string().contains("killed"), "{err}");
        assert!(!p.exists(), "final marker must never appear");
    }

    #[test]
    fn remove_tolerates_missing_and_surfaces_real_errors() {
        let dir = tempdir("remove");
        let p = dir.join("gone");
        // A concurrently-deleted entry is success, not a panic or error.
        assert!(!remove(&p).expect("missing file is fine"));
        std::fs::write(&p, b"x").unwrap();
        assert!(remove(&p).expect("removes existing"));
        assert!(!p.exists());
        // A genuinely undeletable entry still surfaces a typed error
        // (here: the target is a non-empty directory).
        let sub = dir.join("subdir");
        std::fs::create_dir(&sub).unwrap();
        std::fs::write(sub.join("f"), b"x").unwrap();
        assert!(remove(&sub).is_err());
        assert_eq!(list(&dir).unwrap(), vec!["subdir".to_string()]);
        assert!(list(&dir.join("absent")).is_err());
    }

    /// The sealer as it was before it streamed — checksum regions sliced
    /// out of a whole-file image — kept as the byte-identity oracle.
    fn image_footer_regions(bytes: &[u8], expected_size: u64) -> io::Result<Vec<FooterRegion>> {
        if let Ok(header) = format::decode_header(bytes) {
            if header.expected_file_size() == expected_size && !header.fields.is_empty() {
                return header
                    .fields
                    .iter()
                    .map(|f| image_region(bytes, f.data_off, f.sizes.iter().sum()))
                    .collect();
            }
        }
        image_region(bytes, 0, expected_size).map(|r| vec![r])
    }

    fn image_region(bytes: &[u8], off: u64, len: u64) -> io::Result<FooterRegion> {
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
            crc32c: format::crc32c_sliced(slice),
        })
    }

    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Seal `body` with `commit_file` and return the committed bytes.
    fn seal(dir: &Path, body: &[u8]) -> io::Result<Vec<u8>> {
        let (tmp, fin) = (dir.join("s.bin.tmp"), dir.join("s.bin"));
        std::fs::write(&tmp, body).unwrap();
        commit_file(&tmp, &fin, body.len() as u64, false)?;
        std::fs::read(&fin)
    }

    #[test]
    fn streamed_footer_is_byte_identical_to_the_image_based_one() {
        use crate::exec::{execute, ExecConfig};
        use crate::layout::{DataLayout, FieldSizes, FieldSpec};
        use crate::strategy::{CheckpointSpec, Strategy};
        let dir = tempdir("seal_identity");
        // Logical file bodies, as the writers leave them before commit,
        // and how many checksum regions each should get: one per field
        // for a plan file, one whole-file region for anything else.
        let mut bodies: Vec<(String, Vec<u8>, usize)> = Vec::new();
        // Field regions larger than one STREAM_CHUNK once a file covers
        // four ranks, ragged ones with empty and odd-sized blocks.
        let per_rank = |scale: u64| (0..8).map(|r| (r * 37 % 5) * scale + r % 3).collect();
        let layouts = [
            DataLayout::uniform(8, &[("Ex", 300 << 10), ("Hy", 1000)]),
            DataLayout::new(
                8,
                vec![
                    FieldSpec {
                        name: "a".into(),
                        sizes: FieldSizes::PerRank(per_rank(150_001)),
                    },
                    FieldSpec {
                        name: "b".into(),
                        sizes: FieldSizes::PerRank(per_rank(7)),
                    },
                ],
            ),
        ];
        for (li, layout) in layouts.iter().enumerate() {
            for strategy in [Strategy::OnePfpp, Strategy::coio(2), Strategy::rbio(2)] {
                let plan = CheckpointSpec::new(layout.clone(), "seal")
                    .strategy(strategy)
                    .plan()
                    .unwrap();
                let payloads = format::materialize_payloads(&plan, |rank, field, buf| {
                    buf.copy_from_slice(&noise(buf.len(), u64::from(rank) << 8 | field as u64));
                });
                let sub = dir.join(format!("l{li}-{strategy:?}"));
                execute(&plan.program, payloads, &ExecConfig::new(&sub)).unwrap();
                for pf in &plan.plan_files {
                    let mut bytes = std::fs::read(sub.join(&pf.name)).unwrap();
                    let logical = format::file_size(layout, &plan.app, pf.r0, pf.r1);
                    bytes.truncate(logical as usize);
                    bodies.push((format!("{strategy:?} layout {li} {}", pf.name), bytes, 2));
                }
            }
        }
        bodies.push(("headerless".into(), noise((5 << 19) + 3, 9), 1));
        bodies.push(("seven bytes".into(), noise(7, 11), 1));
        bodies.push(("empty".into(), Vec::new(), 1));
        // A valid header over a body one byte longer than it describes.
        let mut odd = format::encode_header(&layouts[0], "app", 0, 0, 8);
        let data = layouts[0].data_total(0, 8) as usize + 1;
        odd.extend_from_slice(&noise(data, 13));
        bodies.push(("header disagrees with size".into(), odd, 1));

        for (what, body, nregions) in &bodies {
            let size = body.len() as u64;
            let committed = seal(&dir, body).unwrap();
            let regions = image_footer_regions(body, size).unwrap();
            assert_eq!(regions.len(), *nregions, "{what}");
            assert_eq!(&committed[..body.len()], &body[..], "{what}: body changed");
            assert_eq!(
                &committed[body.len()..],
                &format::encode_footer(&regions)[..],
                "{what}: footer differs from the image-based oracle"
            );
            assert_eq!(verify_committed_typed(&committed, size), Ok(()), "{what}");
        }
    }

    #[test]
    fn header_with_regions_outside_the_file_is_invalid_data_not_a_panic() {
        use crate::layout::DataLayout;
        let dir = tempdir("seal_oob");
        let layout = DataLayout::uniform(2, &[("Ex", 64)]);
        let good = format::encode_header(&layout, "oob", 0, 0, 2);
        // One field: its data_off is the 8 bytes before the header CRC.
        let at = good.len() - 12;
        for data_off in [good.len() as u64 + 1, 1 << 40, u64::MAX - 3, u64::MAX] {
            let mut body = good.clone();
            body[at..at + 8].copy_from_slice(&data_off.to_le_bytes());
            let crc = format::crc32(&body[..at + 8]);
            body[at + 8..].copy_from_slice(&crc.to_le_bytes());
            body.extend_from_slice(&[5u8; 128]);
            let header = format::decode_header(&body).expect("still a valid header");
            assert_eq!(header.expected_file_size(), body.len() as u64);
            let err = seal(&dir, &body).expect_err("region lies outside the file");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{data_off}: {err}");
            assert!(!dir.join("s.bin").exists(), "nothing may be published");
        }
    }

    #[test]
    fn streaming_verify_agrees_with_the_image_verifier() {
        use crate::layout::DataLayout;
        let dir = tempdir("verify_stream");
        let path = dir.join("v.bin");
        // Both verifiers over the same bytes; they must return the very
        // same verdict, which is handed back for the caller to classify.
        let both = |bytes: &[u8], expected_size: u64| {
            std::fs::write(&path, bytes).unwrap();
            let streamed =
                verify_committed_file(&File::open(&path).unwrap(), expected_size).unwrap();
            assert_eq!(streamed, verify_committed_typed(bytes, expected_size));
            streamed
        };
        // Three regions, the first two longer than one STREAM_CHUNK.
        let layout = DataLayout::uniform(2, &[("Ex", 600 << 10), ("Ey", 700 << 10), ("Hz", 9)]);
        let mut body = format::encode_header(&layout, "v", 3, 0, 2);
        let header = format::decode_header(&body).unwrap();
        body.extend_from_slice(&noise(layout.data_total(0, 2) as usize, 21));
        let size = body.len() as u64;
        let clean = seal(&dir, &body).unwrap();
        assert_eq!(both(&clean, size), Ok(()));
        // One flipped bit in each region, first, middle and last byte.
        for (index, f) in header.fields.iter().enumerate() {
            let len: u64 = f.sizes.iter().sum();
            for at in [f.data_off, f.data_off + len / 2, f.data_off + len - 1] {
                let mut bad = clean.clone();
                bad[at as usize] ^= 0x10;
                match both(&bad, size) {
                    Err(VerifyError::ChecksumMismatch { index: i, .. }) => assert_eq!(i, index),
                    other => panic!("region {index} byte {at}: {other:?}"),
                }
            }
        }
        // Two damaged regions: both report the lower index.
        let mut bad = clean.clone();
        bad[header.fields[2].data_off as usize] ^= 1;
        bad[header.fields[1].data_off as usize] ^= 1;
        assert!(matches!(
            both(&bad, size),
            Err(VerifyError::ChecksumMismatch { index: 1, .. })
        ));
        // Truncated below the logical size; cut inside the footer; the
        // footer missing, or shorter than its prelude; trailing garbage.
        assert!(matches!(
            both(&clean[..body.len() - 1], size),
            Err(VerifyError::Truncated { .. })
        ));
        assert!(matches!(
            both(&clean[..clean.len() - 1], size),
            Err(VerifyError::FooterLength { .. })
        ));
        assert_eq!(both(&body, size), Err(VerifyError::MissingFooter));
        assert_eq!(
            both(&clean[..body.len() + 7], size),
            Err(VerifyError::MissingFooter)
        );
        let mut long = clean.clone();
        long.push(0);
        assert!(matches!(
            both(&long, size),
            Err(VerifyError::FooterLength { .. })
        ));
        // A region count that disagrees with the bytes present, up to the
        // count whose implied length would wrap a 32-bit usize.
        for nregions in [0u32, 2, 4, u32::MAX] {
            let mut bad = clean.clone();
            bad[body.len() + 4..body.len() + 8].copy_from_slice(&nregions.to_le_bytes());
            assert!(matches!(
                both(&bad, size),
                Err(VerifyError::FooterLength { .. })
            ));
        }
        // A flipped bit inside the footer itself.
        let mut bad = clean.clone();
        bad[body.len() + 12] ^= 1;
        assert!(matches!(
            both(&bad, size),
            Err(VerifyError::FooterInvalid(_))
        ));
        // Hostile, well-formed footers: regions near u64::MAX, past the
        // logical size, and inside the footer's own bytes.
        for (off, len) in [
            (u64::MAX - 4, 8),
            (u64::MAX, 1),
            (0, u64::MAX),
            (size - 1, 2),
            (size, 4),
        ] {
            let mut hostile = body.clone();
            hostile.extend_from_slice(&format::encode_footer(&[
                FooterRegion {
                    off: 0,
                    len: 16,
                    crc32c: format::crc32c(&body[..16]),
                },
                FooterRegion {
                    off,
                    len,
                    crc32c: 0,
                },
            ]));
            match both(&hostile, size) {
                Err(VerifyError::RegionOutOfBounds { index: 1, .. }) => {}
                other => panic!("[{off}, +{len}): {other:?}"),
            }
        }
    }

    /// The region walker reads on the handle's cursor, so it must place
    /// the cursor itself: a handle already read to its end, and used
    /// twice, gives the verdict a fresh one does.
    #[test]
    fn streaming_verify_does_not_depend_on_the_cursor() {
        use crate::layout::DataLayout;
        let dir = tempdir("verify_cursor");
        let layout = DataLayout::uniform(2, &[("Ex", 600 << 10), ("Hz", 9)]);
        let mut body = format::encode_header(&layout, "v", 3, 0, 2);
        let header = format::decode_header(&body).unwrap();
        body.extend_from_slice(&noise(layout.data_total(0, 2) as usize, 23));
        let size = body.len() as u64;
        let clean = seal(&dir, &body).unwrap();
        let mut bad = clean.clone();
        bad[header.fields[1].data_off as usize] ^= 1;
        let path = dir.join("v.bin");
        for bytes in [&clean, &bad] {
            std::fs::write(&path, bytes).unwrap();
            let mut f = File::open(&path).unwrap();
            let want = verify_committed_typed(bytes, size);
            assert_eq!(want.is_ok(), std::ptr::eq(bytes, &clean));
            f.seek(SeekFrom::End(0)).unwrap();
            assert_eq!(verify_committed_file(&f, size).unwrap(), want);
            f.seek(SeekFrom::Start(size / 2)).unwrap();
            assert_eq!(verify_committed_file(&f, size).unwrap(), want);
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio_commit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
