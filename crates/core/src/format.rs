//! Checkpoint file format.
//!
//! Mirrors the structure the paper describes (§III-B, Fig. 2): every output
//! file is a *master header* followed by the field data blocks, sorted by
//! field, and within a field by rank. The header carries the application
//! name, checkpoint step, the rank range the file covers, the per-rank size
//! table of every field, and each field's absolute data offset — everything
//! a restart (or a ParaView-style post-processor) needs to slice the file
//! without touching any other metadata.
//!
//! All integers are little-endian. The header ends with a CRC32 of itself,
//! so a truncated or corrupted checkpoint is detected at restart.
//!
//! Layout:
//!
//! ```text
//! magic  u32      "RBIO" (0x4F49_4252 LE on disk)
//! version u32
//! header_len u64  total master-header bytes including the trailing CRC
//! step   u64
//! nranks_total u32
//! r0 u32, r1 u32  covered rank range [r0, r1)
//! app_len u16, app bytes
//! nfields u32
//! per field:
//!   name_len u16, name bytes
//!   kind u8         0 = uniform, 1 = per-rank
//!   sizes           u64 (uniform) or (r1-r0) × u64
//!   data_off u64    absolute offset of the field's data in this file
//! crc32 u32        over all preceding header bytes
//! ```

use std::sync::OnceLock;

use crate::buf::{BufPool, PooledBuf};
use crate::layout::DataLayout;
use crate::strategy::CheckpointPlan;

/// File magic ("RBIO" as a little-endian u32).
pub const MAGIC: u32 = u32::from_le_bytes(*b"RBIO");
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors parsing a checkpoint file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Not an rbio checkpoint file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer is shorter than the header claims.
    Truncated,
    /// The header CRC does not match (corruption).
    CrcMismatch,
    /// Internally inconsistent header fields.
    Inconsistent(String),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "bad magic (not an rbio checkpoint)"),
            FormatError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::Truncated => write!(f, "truncated header"),
            FormatError::CrcMismatch => write!(f, "header CRC mismatch (corrupt file)"),
            FormatError::Inconsistent(s) => write!(f, "inconsistent header: {s}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// IEEE 802.3 polynomial (reflected) — master-header CRC32.
const CRC32_POLY: u32 = 0xEDB8_8320;
/// Castagnoli polynomial (reflected) — commit-footer CRC32C.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Build the slice-by-8 lookup tables for a reflected CRC polynomial.
/// `tables[0]` is the classic byte-at-a-time table; `tables[k][b]` folds a
/// byte that sits `k` positions ahead in an 8-byte block.
fn build_crc_tables(poly: u32) -> Box<[[u32; 256]; 8]> {
    let mut t = Box::new([[0u32; 256]; 8]);
    for i in 0..256usize {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
        }
        t[0][i] = c;
    }
    for i in 0..256usize {
        let mut c = t[0][i];
        for k in 1..8 {
            c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            t[k][i] = c;
        }
    }
    t
}

/// Slice-by-8 CRC update: process 8 input bytes per iteration with eight
/// independent table lookups (Intel's "slicing-by-8"), falling back to
/// byte-at-a-time for the 0–7 byte tail. `crc` is the running pre-inverted
/// state (`!0` at the start of a message).
#[inline]
fn crc_update_sliced(tables: &[[u32; 256]; 8], mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[0..4].try_into().expect("len 4")) ^ crc;
        let hi = u32::from_le_bytes(c[4..8].try_into().expect("len 4"));
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = tables[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| build_crc_tables(CRC32_POLY))
}

fn crc32c_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| build_crc_tables(CRC32C_POLY))
}

/// CRC32 (IEEE 802.3 polynomial, reflected), slice-by-8.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update_sliced(crc32_tables(), !0, bytes)
}

/// CRC32C (Castagnoli polynomial, reflected) — used for the commit footer's
/// per-region data checksums, keeping it distinct from the header's CRC32.
/// One-shot form of [`crc32c_update`].
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_update(0, bytes)
}

/// Streaming CRC32C: `crc` is the checksum of the bytes seen so far (0
/// for none) and the result is the checksum with `bytes` appended, so
/// `crc32c_update(crc32c(a), b) == crc32c(a ‖ b)` for any split.
///
/// The one dispatch point of the checksum layer: the CPU's `crc32`
/// instruction where it has one (x86-64 SSE4.2, detected at run time),
/// else the slice-by-8 kernel of [`crc32c_sliced`] — every other
/// architecture, aarch64 included.
pub fn crc32c_update(crc: u32, bytes: &[u8]) -> u32 {
    let state = !crc;
    !crate::sys::crc32c_hw(state, bytes)
        .unwrap_or_else(|| crc_update_sliced(crc32c_tables(), state, bytes))
}

/// CRC32C by the software slice-by-8 kernel, whatever the CPU offers:
/// the fallback [`crc32c_update`] takes without hardware support, public
/// so the tests can hold the hardware kernel against it on machines
/// where it would otherwise never run.
pub fn crc32c_sliced(bytes: &[u8]) -> u32 {
    !crc_update_sliced(crc32c_tables(), !0, bytes)
}

/// Byte-at-a-time CRC32 reference implementation. Kept as the oracle the
/// property tests compare the slice-by-8 path against; not used on the
/// checkpoint datapath.
pub fn crc32_scalar(bytes: &[u8]) -> u32 {
    let t = &crc32_tables()[0];
    let mut crc = !0u32;
    for &b in bytes {
        crc = t[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Byte-at-a-time CRC32C reference implementation (test oracle).
pub fn crc32c_scalar(bytes: &[u8]) -> u32 {
    let t = &crc32c_tables()[0];
    let mut crc = !0u32;
    for &b in bytes {
        crc = t[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Commit-footer magic ("RBFT" as a little-endian u32).
pub const FOOTER_MAGIC: u32 = u32::from_le_bytes(*b"RBFT");

/// One checksummed byte region of a committed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FooterRegion {
    /// Absolute byte offset of the region.
    pub off: u64,
    /// Region length in bytes.
    pub len: u64,
    /// CRC32C of the region's bytes.
    pub crc32c: u32,
}

/// Length in bytes of a commit footer covering `nregions` regions.
///
/// Layout, appended at `expected_file_size()` by the committing rank:
///
/// ```text
/// magic    u32   "RBFT"
/// nregions u32
/// per region: off u64, len u64, crc32c u32
/// footer_crc u32   CRC32C over all preceding footer bytes
/// ```
pub fn footer_len(nregions: usize) -> u64 {
    4 + 4 + 20 * nregions as u64 + 4
}

/// Encode a commit footer over `regions`.
pub fn encode_footer(regions: &[FooterRegion]) -> Vec<u8> {
    let mut out = Vec::with_capacity(footer_len(regions.len()) as usize);
    let cap = out.capacity();
    out.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
    out.extend_from_slice(&(regions.len() as u32).to_le_bytes());
    for r in regions {
        out.extend_from_slice(&r.off.to_le_bytes());
        out.extend_from_slice(&r.len.to_le_bytes());
        out.extend_from_slice(&r.crc32c.to_le_bytes());
    }
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len() as u64, footer_len(regions.len()));
    debug_assert_eq!(out.capacity(), cap, "footer_len pre-sized exactly");
    out
}

/// Parse a commit footer from `bytes` (the exact footer slice).
pub fn decode_footer(bytes: &[u8]) -> Result<Vec<FooterRegion>, FormatError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.u32()? != FOOTER_MAGIC {
        return Err(FormatError::BadMagic);
    }
    let nregions = c.u32()? as usize;
    if bytes.len() as u64 != footer_len(nregions) {
        return Err(FormatError::Truncated);
    }
    let mut regions = Vec::with_capacity(nregions);
    for _ in 0..nregions {
        regions.push(FooterRegion {
            off: c.u64()?,
            len: c.u64()?,
            crc32c: c.u32()?,
        });
    }
    let stored = c.u32()?;
    if crc32c(&bytes[..bytes.len() - 4]) != stored {
        return Err(FormatError::CrcMismatch);
    }
    Ok(regions)
}

/// A parsed master header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileHeader {
    /// Checkpoint step number.
    pub step: u64,
    /// Total ranks in the job that wrote this checkpoint.
    pub nranks_total: u32,
    /// First covered rank.
    pub r0: u32,
    /// One past the last covered rank.
    pub r1: u32,
    /// Application name.
    pub app: String,
    /// Per field: name, per-covered-rank byte sizes, absolute data offset.
    pub fields: Vec<ParsedField>,
    /// Total header length in bytes.
    pub header_len: u64,
}

/// One field entry of a parsed header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedField {
    /// Field name.
    pub name: String,
    /// Byte sizes for ranks `r0..r1`, in order.
    pub sizes: Vec<u64>,
    /// Absolute offset of this field's data region in the file.
    pub data_off: u64,
}

impl FileHeader {
    /// Offset of `rank`'s block of field `field` within this file.
    pub fn rank_block(&self, rank: u32, field: usize) -> (u64, u64) {
        assert!((self.r0..self.r1).contains(&rank), "rank not covered");
        let f = &self.fields[field];
        let idx = (rank - self.r0) as usize;
        let off: u64 = f.sizes[..idx].iter().sum();
        (f.data_off + off, f.sizes[idx])
    }

    /// Total size this file should have (header + all field data).
    pub fn expected_file_size(&self) -> u64 {
        self.header_len
            + self
                .fields
                .iter()
                .map(|f| f.sizes.iter().sum::<u64>())
                .sum::<u64>()
    }

    /// Total size after commit: header + data + the checksum footer the
    /// committing rank appends (one region per field).
    pub fn expected_committed_size(&self) -> u64 {
        self.expected_file_size() + footer_len(self.fields.len())
    }
}

fn sizes_encoding_len(layout: &DataLayout, field: usize, r0: u32, r1: u32) -> u64 {
    // kind byte + either one u64 or (r1-r0) u64s.
    match &layout.fields()[field].sizes {
        crate::layout::FieldSizes::Uniform(_) => 1 + 8,
        crate::layout::FieldSizes::PerRank(_) => 1 + 8 * u64::from(r1 - r0),
    }
}

/// Length in bytes of the master header of a file covering ranks `r0..r1`.
pub fn header_len(layout: &DataLayout, app: &str, r0: u32, r1: u32) -> u64 {
    let mut n = 4 + 4 + 8 + 8 + 4 + 4 + 4; // magic..r1
    n += 2 + app.len() as u64;
    n += 4; // nfields
    for (fi, f) in layout.fields().iter().enumerate() {
        n += 2 + f.name.len() as u64;
        n += sizes_encoding_len(layout, fi, r0, r1);
        n += 8; // data_off
    }
    n + 4 // crc
}

/// Absolute offset of field `field`'s data region in a file covering
/// `r0..r1`.
pub fn field_data_off(layout: &DataLayout, app: &str, r0: u32, r1: u32, field: usize) -> u64 {
    header_len(layout, app, r0, r1)
        + (0..field)
            .map(|g| layout.field_total(g, r0, r1))
            .sum::<u64>()
}

/// Total size of a file covering `r0..r1` (header + data).
pub fn file_size(layout: &DataLayout, app: &str, r0: u32, r1: u32) -> u64 {
    header_len(layout, app, r0, r1) + layout.data_total(r0, r1)
}

/// Encode the master header of a file covering `r0..r1`.
pub fn encode_header(layout: &DataLayout, app: &str, step: u64, r0: u32, r1: u32) -> Vec<u8> {
    let hlen = header_len(layout, app, r0, r1);
    let mut out = Vec::with_capacity(hlen as usize);
    let cap = out.capacity();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&hlen.to_le_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&layout.nranks().to_le_bytes());
    out.extend_from_slice(&r0.to_le_bytes());
    out.extend_from_slice(&r1.to_le_bytes());
    out.extend_from_slice(&(app.len() as u16).to_le_bytes());
    out.extend_from_slice(app.as_bytes());
    out.extend_from_slice(&(layout.nfields() as u32).to_le_bytes());
    for (fi, f) in layout.fields().iter().enumerate() {
        out.extend_from_slice(&(f.name.len() as u16).to_le_bytes());
        out.extend_from_slice(f.name.as_bytes());
        match &f.sizes {
            crate::layout::FieldSizes::Uniform(sz) => {
                out.push(0);
                out.extend_from_slice(&sz.to_le_bytes());
            }
            crate::layout::FieldSizes::PerRank(v) => {
                out.push(1);
                for &sz in &v[r0 as usize..r1 as usize] {
                    out.extend_from_slice(&sz.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&field_data_off(layout, app, r0, r1, fi).to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len() as u64, hlen);
    debug_assert_eq!(out.capacity(), cap, "header_len pre-sized exactly");
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.pos + n > self.buf.len() {
            return Err(FormatError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, FormatError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// Parse a master header from the start of `bytes` (which may extend past
/// the header).
pub fn decode_header(bytes: &[u8]) -> Result<FileHeader, FormatError> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.u32()? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let hlen = c.u64()?;
    if hlen as usize > bytes.len() || hlen < 4 {
        return Err(FormatError::Truncated);
    }
    let body = &bytes[..hlen as usize - 4];
    let stored_crc = u32::from_le_bytes(
        bytes[hlen as usize - 4..hlen as usize]
            .try_into()
            .expect("len 4"),
    );
    if crc32(body) != stored_crc {
        return Err(FormatError::CrcMismatch);
    }
    let step = c.u64()?;
    let nranks_total = c.u32()?;
    let r0 = c.u32()?;
    let r1 = c.u32()?;
    if r0 >= r1 || r1 > nranks_total {
        return Err(FormatError::Inconsistent(format!(
            "rank range [{r0},{r1}) of {nranks_total}"
        )));
    }
    let app_len = c.u16()? as usize;
    let app = String::from_utf8(c.take(app_len)?.to_vec())
        .map_err(|_| FormatError::Inconsistent("app name not UTF-8".into()))?;
    let nfields = c.u32()? as usize;
    let covered = (r1 - r0) as usize;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let name_len = c.u16()? as usize;
        let name = String::from_utf8(c.take(name_len)?.to_vec())
            .map_err(|_| FormatError::Inconsistent("field name not UTF-8".into()))?;
        let kind = c.u8()?;
        let sizes = match kind {
            0 => vec![c.u64()?; covered],
            1 => {
                let mut v = Vec::with_capacity(covered);
                for _ in 0..covered {
                    v.push(c.u64()?);
                }
                v
            }
            k => return Err(FormatError::Inconsistent(format!("size kind {k}"))),
        };
        let data_off = c.u64()?;
        fields.push(ParsedField {
            name,
            sizes,
            data_off,
        });
    }
    if c.pos + 4 != hlen as usize {
        return Err(FormatError::Inconsistent(format!(
            "header length {} != declared {}",
            c.pos + 4,
            hlen
        )));
    }
    Ok(FileHeader {
        step,
        nranks_total,
        r0,
        r1,
        app,
        fields,
        header_len: hlen,
    })
}

/// Largest header we will ever allocate for. Real headers are a few KB;
/// anything bigger means the length field itself is damaged, and trusting
/// it would turn a torn file into a multi-GB allocation.
pub(crate) const MAX_HEADER_LEN: u64 = 64 * 1024 * 1024;

/// Length of the fixed header prelude: magic, version, `header_len`.
const HEADER_PRELUDE_LEN: usize = 16;

/// The `header_len` the prelude at the front of `prefix` declares; `None`
/// when `prefix` is too short to hold a prelude.
pub(crate) fn declared_header_len(prefix: &[u8]) -> Option<u64> {
    let field = prefix.get(8..HEADER_PRELUDE_LEN)?;
    Some(u64::from_le_bytes(field.try_into().expect("len 8")))
}

/// Read from the front of `f` (which holds `file_len` bytes) exactly what
/// [`decode_header`] needs and no more: the prelude names `header_len`;
/// when that is at most [`MAX_HEADER_LEN`] and the file holds that many
/// bytes, they are returned. Otherwise only the prelude is (or the whole
/// of a file shorter than one), which `decode_header` then reports as
/// bad magic or `Truncated` exactly as it would given the whole file.
pub(crate) fn read_header_prefix(f: &std::fs::File, file_len: u64) -> std::io::Result<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let mut buf = vec![0u8; file_len.min(HEADER_PRELUDE_LEN as u64) as usize];
    f.read_exact_at(&mut buf, 0)?;
    if let Some(hlen) = declared_header_len(&buf) {
        if hlen > buf.len() as u64 && hlen <= MAX_HEADER_LEN.min(file_len) {
            buf.resize(hlen as usize, 0);
            f.read_exact_at(&mut buf[HEADER_PRELUDE_LEN..], HEADER_PRELUDE_LEN as u64)?;
        }
    }
    Ok(buf)
}

/// Deterministic filler byte for [`rbio_plan::DataRef::Synthetic`] writes,
/// as a function of absolute file offset. Shared by the real executor and
/// verification tools so synthetic checkpoints are checkable.
#[inline]
pub fn synthetic_byte(file_offset: u64) -> u8 {
    // Cheap odd-multiplier hash; any byte-valued mixing works.
    (file_offset.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// Build each rank's in-memory payload for a plan: the header blob (if the
/// rank owns a file) followed by its packed field blocks, filled by
/// `fill(rank, field, buf)`.
///
/// Buffers are leased from [`BufPool::global`] and zeroed, so `fill`
/// writes straight into recycled, resident pages and sees zeros wherever
/// it does not write; drop them (or hand them to
/// [`crate::exec::execute`], which freezes them) to recycle.
pub fn materialize_payloads(
    plan: &CheckpointPlan,
    mut fill: impl FnMut(u32, usize, &mut [u8]),
) -> Vec<PooledBuf> {
    let layout = &plan.layout;
    let mut out = Vec::with_capacity(layout.nranks() as usize);
    for rank in 0..layout.nranks() {
        let meta = &plan.payload_meta[rank as usize];
        let total = meta.header_len + layout.rank_payload_bytes(rank);
        let mut buf = BufPool::global().lease(total as usize);
        if let Some(file_idx) = meta.header_for_file {
            let pf = &plan.plan_files[file_idx];
            let hdr = encode_header(layout, &plan.app, plan.step, pf.r0, pf.r1);
            debug_assert_eq!(hdr.len() as u64, meta.header_len);
            buf[..hdr.len()].copy_from_slice(&hdr);
        }
        for f in 0..layout.nfields() {
            let off = (meta.header_len + layout.payload_field_off(rank, f)) as usize;
            let len = layout.field_bytes(rank, f) as usize;
            fill(rank, f, &mut buf[off..off + len]);
        }
        out.push(buf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{FieldSizes, FieldSpec};

    fn layout() -> DataLayout {
        DataLayout::new(
            4,
            vec![
                FieldSpec {
                    name: "Ex".into(),
                    sizes: FieldSizes::Uniform(100),
                },
                FieldSpec {
                    name: "Hy".into(),
                    sizes: FieldSizes::PerRank(vec![1, 2, 3, 4]),
                },
            ],
        )
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32c_known_vector() {
        // Standard test vector: CRC32C("123456789") = 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn scalar_oracles_match_known_vectors() {
        assert_eq!(crc32_scalar(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32c_scalar(b"123456789"), 0xE306_9283);
        assert_eq!(crc32_scalar(b""), 0);
        assert_eq!(crc32c_scalar(b""), 0);
    }

    #[test]
    fn sliced_crc_equals_scalar_on_all_tail_lengths() {
        // Every length 0..=64 exercises the empty input, sub-block inputs
        // (1–7 bytes), and each 1–15 byte tail after full 8-byte blocks.
        let data: Vec<u8> = (0..64u64).map(synthetic_byte).collect();
        for len in 0..=data.len() {
            let s = &data[..len];
            assert_eq!(crc32(s), crc32_scalar(s), "crc32 len {len}");
            assert_eq!(crc32c_sliced(s), crc32c_scalar(s), "crc32c len {len}");
        }
        // Misaligned starts: slice-by-8 reads u32s from arbitrary offsets.
        for start in 0..8 {
            let s = &data[start..];
            assert_eq!(crc32(s), crc32_scalar(s), "crc32 start {start}");
            assert_eq!(crc32c_sliced(s), crc32c_scalar(s), "crc32c start {start}");
        }
    }

    /// `crc32c` through each kernel: the dispatcher (hardware where the
    /// CPU has it), the hardware kernel called directly when present,
    /// slice-by-8 and the scalar oracle.
    fn crc32c_by_every_kernel(s: &[u8]) -> Vec<u32> {
        let mut out = vec![crc32c_scalar(s), crc32c_sliced(s), crc32c(s)];
        out.extend(crate::sys::crc32c_hw(!0, s).map(|state| !state));
        out
    }

    #[test]
    fn hardware_kernel_is_the_one_tested_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            crate::sys::crc32c_hw(!0, b"").is_some(),
            std::arch::is_x86_feature_detected!("sse4.2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(crate::sys::crc32c_hw(!0, b"").is_none());
    }

    #[test]
    fn crc32c_rfc3720_vectors_hold_for_every_kernel() {
        // RFC 3720 B.4, plus the classic check string.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (bytes, want) in vectors {
            for got in crc32c_by_every_kernel(bytes) {
                assert_eq!(got, want, "{bytes:02x?}");
            }
        }
    }

    #[test]
    fn crc32c_kernels_agree_at_every_length_and_alignment() {
        // 0..=3·BLK+17 covers: nothing, the byte tail alone, the word loop
        // with each tail, exactly one interleaved block, and one block
        // followed by every remainder shape.
        let max = 3 * crate::sys::CRC_BLK + 17;
        let data: Vec<u8> = (0..(max + 8) as u64).map(synthetic_byte).collect();
        for start in 0..8 {
            for len in 0..=max {
                let s = &data[start..start + len];
                let got = crc32c_by_every_kernel(s);
                assert!(
                    got.iter().all(|&c| c == got[0]),
                    "start {start} len {len}: {got:08x?}"
                );
            }
        }
    }

    #[test]
    fn streaming_crc32c_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0..(3 * crate::sys::CRC_BLK + 9) as u64)
            .map(|i| synthetic_byte(i ^ 0x5A5A))
            .collect();
        let whole = crc32c_scalar(&data);
        assert_eq!(crc32c_update(0, &data), whole);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32c_update(crc32c_update(0, a), b),
                whole,
                "split {split}"
            );
        }
    }

    #[test]
    fn header_prefix_read_returns_what_decode_needs_and_no_more() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("rbio-format-prefix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let open = |name: &str, bytes: &[u8]| {
            let p = dir.join(name);
            std::fs::File::create(&p).unwrap().write_all(bytes).unwrap();
            std::fs::File::open(&p).unwrap()
        };
        let l = layout();
        let h = encode_header(&l, "x", 0, 0, 4);
        let mut file = h.clone();
        file.extend_from_slice(&[0xAB; 500]);
        // A whole header followed by data: exactly the header comes back.
        let f = open("full", &file);
        assert_eq!(read_header_prefix(&f, file.len() as u64).unwrap(), h);
        // Shorter than its own header_len: the prelude only, which
        // decode_header calls Truncated.
        let f = open("cut", &h[..h.len() - 1]);
        let got = read_header_prefix(&f, h.len() as u64 - 1).unwrap();
        assert_eq!(got, &h[..HEADER_PRELUDE_LEN]);
        assert_eq!(decode_header(&got), Err(FormatError::Truncated));
        // An absurd header_len is never allocated for.
        let mut huge = file.clone();
        huge[8..16].copy_from_slice(&(MAX_HEADER_LEN + 1).to_le_bytes());
        let f = open("huge", &huge);
        let got = read_header_prefix(&f, huge.len() as u64).unwrap();
        assert_eq!(got.len(), HEADER_PRELUDE_LEN);
        // Shorter than the prelude, and empty: whatever is there.
        let f = open("seven", &h[..7]);
        assert_eq!(read_header_prefix(&f, 7).unwrap(), &h[..7]);
        let f = open("empty", &[]);
        assert!(read_header_prefix(&f, 0).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_round_trip_and_corruption() {
        let regions = vec![
            FooterRegion {
                off: 0,
                len: 100,
                crc32c: 0xDEAD_BEEF,
            },
            FooterRegion {
                off: 100,
                len: 7,
                crc32c: 1,
            },
        ];
        let enc = encode_footer(&regions);
        assert_eq!(enc.len() as u64, footer_len(2));
        assert_eq!(decode_footer(&enc).unwrap(), regions);
        // Flip a byte anywhere: footer CRC catches it.
        let mut bad = enc.clone();
        bad[10] ^= 0xFF;
        assert!(decode_footer(&bad).is_err());
        // Truncation is detected.
        assert!(decode_footer(&enc[..enc.len() - 1]).is_err());
        // Wrong magic.
        let mut wrong = enc;
        wrong[0] ^= 1;
        assert_eq!(decode_footer(&wrong), Err(FormatError::BadMagic));
    }

    #[test]
    fn committed_size_adds_footer() {
        let l = layout();
        let h = encode_header(&l, "x", 0, 0, 4);
        let parsed = decode_header(&h).unwrap();
        assert_eq!(
            parsed.expected_committed_size(),
            parsed.expected_file_size() + footer_len(2)
        );
    }

    #[test]
    fn header_round_trip() {
        let l = layout();
        let h = encode_header(&l, "nekcem", 7, 1, 3);
        assert_eq!(h.len() as u64, header_len(&l, "nekcem", 1, 3));
        let parsed = decode_header(&h).unwrap();
        assert_eq!(parsed.step, 7);
        assert_eq!(parsed.nranks_total, 4);
        assert_eq!((parsed.r0, parsed.r1), (1, 3));
        assert_eq!(parsed.app, "nekcem");
        assert_eq!(parsed.fields.len(), 2);
        assert_eq!(parsed.fields[0].name, "Ex");
        assert_eq!(parsed.fields[0].sizes, vec![100, 100]);
        assert_eq!(parsed.fields[1].sizes, vec![2, 3]);
        assert_eq!(parsed.header_len, h.len() as u64);
        // Data offsets: field 0 right after header, field 1 after 200 bytes.
        assert_eq!(parsed.fields[0].data_off, h.len() as u64);
        assert_eq!(parsed.fields[1].data_off, h.len() as u64 + 200);
        assert_eq!(parsed.expected_file_size(), file_size(&l, "nekcem", 1, 3));
    }

    #[test]
    fn rank_block_offsets() {
        let l = layout();
        let h = encode_header(&l, "x", 0, 0, 4);
        let parsed = decode_header(&h).unwrap();
        let (off0, len0) = parsed.rank_block(0, 0);
        assert_eq!((off0, len0), (parsed.header_len, 100));
        let (off, len) = parsed.rank_block(2, 1);
        assert_eq!(len, 3);
        assert_eq!(off, parsed.fields[1].data_off + 1 + 2);
    }

    #[test]
    fn detects_corruption() {
        let l = layout();
        let mut h = encode_header(&l, "x", 0, 0, 4);
        assert!(decode_header(&h).is_ok());
        let mid = h.len() / 2;
        h[mid] ^= 0xFF;
        assert_eq!(decode_header(&h), Err(FormatError::CrcMismatch));
    }

    #[test]
    fn detects_truncation_and_bad_magic() {
        let l = layout();
        let h = encode_header(&l, "x", 0, 0, 4);
        assert_eq!(decode_header(&h[..10]), Err(FormatError::Truncated));
        let mut bad = h.clone();
        bad[0] ^= 1;
        assert_eq!(decode_header(&bad), Err(FormatError::BadMagic));
        let mut badv = h;
        badv[4] = 99;
        assert!(matches!(
            decode_header(&badv),
            Err(FormatError::BadVersion(_)) | Err(FormatError::CrcMismatch)
        ));
    }

    #[test]
    fn header_parses_with_trailing_data() {
        let l = layout();
        let mut h = encode_header(&l, "x", 0, 0, 4);
        h.extend_from_slice(&[0xAB; 500]);
        let parsed = decode_header(&h).unwrap();
        assert_eq!(parsed.app, "x");
    }

    #[test]
    fn synthetic_byte_is_deterministic_and_varied() {
        assert_eq!(synthetic_byte(42), synthetic_byte(42));
        let distinct: std::collections::HashSet<u8> = (0..256u64).map(synthetic_byte).collect();
        assert!(
            distinct.len() > 100,
            "filler should vary: {}",
            distinct.len()
        );
    }

    /// The plan the payload tests materialize: rbIO(2) over [`layout`],
    /// so ranks 0 and 2 own a file and carry its header.
    fn rbio_plan() -> CheckpointPlan {
        crate::strategy::CheckpointSpec::new(layout(), "t")
            .strategy(crate::strategy::Strategy::rbio(2))
            .step(3)
            .plan()
            .expect("valid plan")
    }

    #[test]
    fn payloads_are_header_then_packed_fields_over_zeros() {
        let plan = rbio_plan();
        // `fill` writes every other byte, so a buffer that did not start
        // as zeros shows.
        let fill = |rank: u32, field: usize, buf: &mut [u8]| {
            buf.iter_mut()
                .step_by(2)
                .for_each(|b| *b = 1 + rank as u8 * 16 + field as u8);
        };
        let got = materialize_payloads(&plan, fill);
        // What the `vec![0u8; total]` version built, rank by rank.
        let (lay, mut owners) = (&plan.layout, 0);
        for (rank, meta) in (0u32..).zip(&plan.payload_meta) {
            let mut want = match meta.header_for_file {
                Some(i) => {
                    owners += 1;
                    let pf = &plan.plan_files[i];
                    encode_header(lay, &plan.app, plan.step, pf.r0, pf.r1)
                }
                None => Vec::new(),
            };
            assert_eq!(want.len() as u64, meta.header_len);
            for f in 0..lay.nfields() {
                let mut block = vec![0u8; lay.field_bytes(rank, f) as usize];
                fill(rank, f, &mut block);
                want.extend(block);
            }
            assert_eq!(got[rank as usize][..], want[..], "rank {rank}");
        }
        assert_eq!(owners, 2, "the layout must exercise header-owning ranks");
    }

    #[test]
    fn fill_sees_zeros_on_a_recycled_lease() {
        let plan = rbio_plan();
        // Dirty every payload, recycle it, materialize again: whichever
        // buffers the pool hands back, `fill` must find them zeroed.
        let mut dirty = materialize_payloads(&plan, |_, _, buf| buf.fill(0xAA));
        dirty.iter_mut().for_each(|p| p.fill(0xAA));
        drop(dirty);
        let mut blocks = 0;
        materialize_payloads(&plan, |rank, field, buf| {
            assert!(
                buf.iter().all(|&b| b == 0),
                "rank {rank} field {field}: stale bytes reached fill"
            );
            blocks += 1;
        });
        assert_eq!(blocks, 8);
    }
}
