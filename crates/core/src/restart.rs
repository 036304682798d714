//! Restart: reading checkpoints back.
//!
//! Two paths are provided:
//!
//! * [`read_checkpoint`] — plan-guided: reads the files a
//!   [`CheckpointPlan`] wrote and returns every rank's field data. Used by
//!   applications restarting from their own plan and by the round-trip
//!   tests.
//! * [`scan_checkpoint_dir`] / [`read_checkpoint_auto`] — self-describing:
//!   reconstructs the checkpoint from the file headers alone (no plan
//!   needed), verifying that the discovered files cover every rank exactly
//!   once. This is what a post-processing/visualization tool would use —
//!   one of the stated benefits of application-level checkpointing (§II).
//!
//! Both read a file the way [`crate::format::materialize_payloads`] built
//! it (DESIGN.md §9 rule 7): one buffer per covered rank, leased from the
//! pool at the payload's size class, filled by one walk of the file in
//! file order and checksummed region by region as the blocks land. The
//! blocks tile each buffer, so it is leased without the zero-fill
//! (DESIGN.md §9 rule 2): a recycled buffer's old bytes are overwritten
//! before it is frozen, and a file that fails a read, a checksum or a
//! shape check drops its buffers unfrozen. The walk is a
//! [`crate::commit::verify_committed_file`] that keeps the bytes, through
//! the same footer reader and region walker. No image of a file is built,
//! so a restore maps nothing a checkpoint did not leave in the pool.
//!
//! A restart [`Program`] builder is also provided so the simulator can
//! replay the read path (the paper's §III-B mesh-read timings).

use std::fs::File;
use std::io::{self, IoSliceMut, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rbio_plan::{FileId, Op, Program, ProgramBuilder};

use crate::buf::{BufPool, Bytes, PooledBuf};
use crate::commit::{self, VerifyError};
use crate::format::{
    declared_header_len, decode_header, read_header_prefix, FileHeader, FormatError, MAX_HEADER_LEN,
};
use crate::sched::unpoisoned;
use crate::strategy::CheckpointPlan;
use crate::tier::{self, TierStage};

/// Cap on concurrent per-file restart readers: files read and
/// checksummed at once.
const MAX_RESTART_WORKERS: usize = 8;

/// Slices per `readv`: Linux's `UIO_MAXIOV`.
const MAX_IOV: usize = 1024;

/// Errors reading a checkpoint back.
#[derive(Debug)]
pub enum RestartError {
    /// Filesystem error.
    Io(io::Error),
    /// A file failed to parse or verify.
    Format {
        /// File path (relative).
        file: String,
        /// Underlying format error.
        source: FormatError,
    },
    /// The set of files does not cover every rank exactly once, or
    /// disagrees about the job shape.
    Inconsistent(String),
    /// A file is missing its commit footer or fails its checksums: the
    /// checkpoint was torn by a crash between write and commit, or the
    /// data rotted afterwards. Restart must fall back to an older
    /// generation.
    Torn {
        /// File path (relative).
        file: String,
        /// What the validation pass found.
        what: String,
    },
    /// A restart worker panicked while extracting one file. Surfaced as
    /// a typed per-file error — the other files' workers run to
    /// completion and a caller (or `restore_latest`) can fall back —
    /// instead of poisoning the slot mutexes and tearing down the whole
    /// restore with it.
    WorkerPanicked {
        /// File path (relative) being extracted when the worker died.
        file: String,
        /// The panic payload, when it was a string.
        what: String,
    },
}

impl From<io::Error> for RestartError {
    fn from(e: io::Error) -> Self {
        RestartError::Io(e)
    }
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::Io(e) => write!(f, "I/O: {e}"),
            RestartError::Format { file, source } => write!(f, "{file}: {source}"),
            RestartError::Inconsistent(s) => write!(f, "inconsistent checkpoint: {s}"),
            RestartError::Torn { file, what } => write!(f, "torn checkpoint: {file}: {what}"),
            RestartError::WorkerPanicked { file, what } => {
                write!(f, "restart worker panicked extracting {file}: {what}")
            }
        }
    }
}

impl std::error::Error for RestartError {}

/// A fully restored checkpoint: every rank's field blocks.
#[derive(Debug, Clone)]
pub struct RestoredData {
    /// Checkpoint step recovered from the headers.
    pub step: u64,
    /// Total ranks.
    pub nranks: u32,
    /// Field names, in order.
    pub field_names: Vec<String>,
    /// `data[rank][field]` = that rank's bytes for that field — a
    /// refcounted slice of the buffer it was read into, so restoring never
    /// copies the data out of the read buffer.
    data: Vec<Vec<Bytes>>,
}

impl RestoredData {
    /// A rank's bytes for one field.
    pub fn field_data(&self, rank: u32, field: usize) -> &[u8] {
        self.data[rank as usize][field].as_ref()
    }

    /// Total restored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.data
            .iter()
            .flat_map(|r| r.iter())
            .map(|v| v.len() as u64)
            .sum()
    }
}

fn read_header(path: &Path) -> Result<FileHeader, RestartError> {
    let f = File::open(path)?;
    let read_at = |buf: &mut [u8], off| f.read_exact_at(buf, off);
    header_of(&path.display().to_string(), f.metadata()?.len(), read_at)
}

/// Read and decode the header of `file`, `len` bytes long, whose bytes
/// `read_at` reads.
fn header_of(
    file: &str,
    len: u64,
    read_at: impl FnMut(&mut [u8], u64) -> io::Result<()>,
) -> Result<FileHeader, RestartError> {
    let buf = read_header_prefix(len, read_at)?;
    let torn = |what: String| RestartError::Torn {
        file: file.to_string(),
        what,
    };
    // `Truncated` from a prefix that stops short of `header_len` is a
    // file torn by a crash mid-create — a generation to fall back from,
    // not a format bug. Which prefix came back says how it was torn.
    match (decode_header(&buf), declared_header_len(&buf)) {
        (Ok(h), _) => Ok(h),
        // Too short to hold even the fixed prelude (magic, version,
        // header_len), the zero-length case included.
        (Err(FormatError::Truncated), None) => {
            Err(torn(format!("file ends mid-header ({} bytes)", buf.len())))
        }
        (Err(FormatError::Truncated), Some(hlen)) if hlen > MAX_HEADER_LEN => {
            Err(torn(format!("implausible header length {hlen}")))
        }
        (Err(FormatError::Truncated), Some(hlen)) if hlen > buf.len() as u64 => {
            Err(torn(format!("file ends inside its {hlen}-byte header")))
        }
        (Err(e), _) => Err(RestartError::Format {
            file: file.to_string(),
            source: e,
        }),
    }
}

/// Read and verify one checkpoint file the way
/// [`crate::format::materialize_payloads`] built it: returns
/// `blocks[rank - r0][field]`, each a zero-copy slice of that rank's
/// buffer — one lease from `pool` per covered rank, sized Σ of its field
/// blocks, the payload class the pool holds idle between checkpoints. The
/// file is walked once, in file order (field-major, rank-minor:
/// footer-region order); each block lands straight in its rank's buffer
/// and its region's CRC32C is chained over the blocks as they land. No
/// image of the file is built.
fn extract_file(pool: &BufPool, dir: &Path, rel: &str, header: &FileHeader) -> FileBlocks {
    let torn = |what: String| RestartError::Torn {
        file: rel.to_string(),
        what,
    };
    let path = dir.join(rel);
    #[cfg(test)]
    {
        let mut armed = unpoisoned(INJECT_EXTRACT_PANIC.lock());
        if armed.as_ref() == Some(&path) {
            *armed = None;
            drop(armed);
            panic!("injected restart worker panic");
        }
    }
    let file = File::open(&path)?;
    let mut file = &file;
    let actual = file.metadata()?.len();
    let logical = header.expected_file_size();
    if actual < logical {
        // Shorter than its own header promises: a crash truncated the
        // write. Classified as torn (fall back a generation), not as a
        // shape mismatch — the header itself is internally consistent.
        return Err(torn(format!(
            "file is {actual} bytes, header expects {logical}"
        )));
    }
    // Every published checkpoint file carries a commit footer with
    // per-field checksums. A missing or failing footer means the file was
    // never committed (crash between write and rename) or rotted
    // afterwards — either way the generation cannot be trusted.
    if header.fields.is_empty() {
        // No blocks to hand out: the sealer's single whole-file region.
        return match commit::verify_committed_file(file, logical)? {
            Ok(()) => Ok(vec![Vec::new(); (header.r1 - header.r0) as usize]),
            Err(e) => Err(torn(e.to_string())),
        };
    }
    let regions = match commit::read_footer(file, actual, logical)? {
        Ok(regions) => regions,
        Err(e) => return Err(torn(e.to_string())),
    };
    // Blocks are placed by the header and checked by the footer, so the
    // two must describe the same spans.
    if !commit::regions_match_header(&regions, header) {
        return Err(torn(
            "commit footer's regions are not the header's field spans".to_string(),
        ));
    }
    place_blocks(pool, header, |index, blocks| {
        file.seek(SeekFrom::Start(header.fields[index].data_off))?;
        let mut batch = Vec::new();
        let (mut crc, mut batched) = (0, 0);
        for (_, block) in blocks {
            batched += block.len();
            batch.push(IoSliceMut::new(block));
            // Gather small blocks into one `readv`; a large one is its own.
            if batched >= commit::STREAM_CHUNK || batch.len() == MAX_IOV {
                crc = commit::read_crc32c(file, &mut batch, crc)?;
                batch.clear();
                batched = 0;
            }
        }
        crc = commit::read_crc32c(file, &mut batch, crc)?;
        let stored = regions[index].crc32c;
        if crc != stored {
            let mismatch = VerifyError::ChecksumMismatch {
                index,
                stored,
                computed: crc,
            };
            return Err(torn(mismatch.to_string()));
        }
        Ok(())
    })
}

/// Place a file's blocks payload-shaped: one buffer per covered rank,
/// leased from `pool` at the size of that rank's field blocks together.
/// `fill(field, blocks)` fills one field's non-empty blocks, each with
/// its file offset, in rank order: back to back from the field's
/// `data_off`. Returns `blocks[rank - r0][field]`, zero-copy slices of
/// the buffers.
///
/// The blocks tile the buffers, which are leased without the zero-fill:
/// `fill` must write every byte of every block it is handed, or fail.
/// On its error (or panic) the buffers drop unfrozen.
fn place_blocks(
    pool: &BufPool,
    header: &FileHeader,
    mut fill: impl FnMut(usize, &mut Blocks<'_>) -> Result<(), RestartError>,
) -> FileBlocks {
    let covered = (header.r1 - header.r0) as usize;
    let mut images: Vec<PooledBuf> = (0..covered)
        .map(|k| pool.lease_to_overwrite(header.fields.iter().map(|f| f.sizes[k] as usize).sum()))
        .collect();
    // What is left to fill of each rank's buffer: fields land in order,
    // so a rank's next block is always the front of its tail.
    let mut tails: Vec<&mut [u8]> = images.iter_mut().map(|b| &mut b[..]).collect();
    for (index, f) in header.fields.iter().enumerate() {
        let mut at = f.data_off;
        let blocks = tails.iter_mut().zip(&f.sizes).filter(|(_, &len)| len > 0);
        fill(
            index,
            &mut blocks.map(|(tail, &len)| {
                let (block, rest) = std::mem::take(tail).split_at_mut(len as usize);
                *tail = rest;
                at += len;
                (at - len, block)
            }),
        )?;
    }
    let rows = images.into_iter().enumerate().map(|(k, image)| {
        let (image, mut end) = (image.freeze(), 0);
        let lens = header.fields.iter().map(|f| f.sizes[k] as usize);
        lens.map(|n| {
            end += n;
            image.slice(end - n..end)
        })
        .collect()
    });
    Ok(rows.collect())
}

/// A plan file's header must describe the rank range, the job size and
/// the step the plan says that file has. The step matters because a
/// multi-file generation publishes file by file: under a reused prefix a
/// crash between two renames leaves files of two generations side by
/// side, each of them intact.
fn check_header_shape(
    plan: &CheckpointPlan,
    pf: &crate::strategy::PlanFile,
    header: &FileHeader,
) -> Result<(), RestartError> {
    if (header.r0, header.r1) != (pf.r0, pf.r1) {
        return Err(RestartError::Inconsistent(format!(
            "{}: covers [{},{}) but plan says [{},{})",
            pf.name, header.r0, header.r1, pf.r0, pf.r1
        )));
    }
    let nranks = plan.layout.nranks();
    if header.nranks_total != nranks {
        return Err(RestartError::Inconsistent(format!(
            "{}: written by a {}-rank job, plan has {nranks}",
            pf.name, header.nranks_total
        )));
    }
    if header.step != plan.step {
        return Err(RestartError::Inconsistent(format!(
            "{}: holds step {}, plan is for step {}",
            pf.name, header.step, plan.step
        )));
    }
    Ok(())
}

/// Wrap per-rank field blocks as the plan's [`RestoredData`], once every
/// rank holds one block per layout field.
fn restored_for_plan(
    plan: &CheckpointPlan,
    step: Option<u64>,
    data: Vec<Vec<Bytes>>,
) -> Result<RestoredData, RestartError> {
    for (r, d) in data.iter().enumerate() {
        if d.len() != plan.layout.nfields() {
            return Err(RestartError::Inconsistent(format!(
                "rank {r}: {} field blocks restored, layout has {}",
                d.len(),
                plan.layout.nfields()
            )));
        }
    }
    Ok(RestoredData {
        step: step.unwrap_or(0),
        nranks: plan.layout.nranks(),
        field_names: plan
            .layout
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect(),
        data,
    })
}

/// Per-file extraction result: one row of zero-copy field blocks per rank
/// covered by the file.
type FileBlocks = Result<Vec<Vec<Bytes>>, RestartError>;

/// One field's blocks of a file, each with its file offset, in rank order.
type Blocks<'a> = dyn Iterator<Item = (u64, &'a mut [u8])> + 'a;

/// Extracts one file, named relative to its checkpoint, by its header.
type Extract<'a> = &'a (dyn Fn(&str, &FileHeader) -> FileBlocks + Sync);

/// Test-only panic injection: extracting the file at this path panics,
/// consuming the injection. Armed with the file's path, not its index in
/// a restore, so a restore of another checkpoint running beside the test
/// never fires it. Pins the regression where a worker panic poisoned its
/// slot mutex and the `expect("no poisoned slots")` unwinds took down the
/// entire restore.
#[cfg(test)]
static INJECT_EXTRACT_PANIC: Mutex<Option<std::path::PathBuf>> = Mutex::new(None);

/// Run one file's extraction, converting a worker panic into a typed
/// [`RestartError::WorkerPanicked`] so sibling files still restore.
fn extract_file_guarded(extract: Extract<'_>, rel: &str, header: &FileHeader) -> FileBlocks {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| extract(rel, header)));
    match res {
        Ok(r) => r,
        Err(payload) => {
            let what = payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(RestartError::WorkerPanicked {
                file: rel.to_string(),
                what,
            })
        }
    }
}

/// Extract every file of a checkpoint, fanning the per-file work (read +
/// checksum verification + slicing) out across up to `max_workers`
/// threads, the caller one of them. Files cover disjoint rank ranges, so the merge is a straight append per rank; the
/// first failing file (by listed order) wins error reporting, whatever
/// the order the files finished in. A panicking worker fails only its own
/// file (typed [`RestartError::WorkerPanicked`]); every other slot
/// completes, and a slot's lock is taken through [`unpoisoned`]: its one
/// update is a whole store.
fn extract_all(
    files: &[(String, FileHeader)],
    nranks: u32,
    extract: Extract<'_>,
    max_workers: usize,
) -> Result<Vec<Vec<Bytes>>, RestartError> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(files.len())
        .min(max_workers);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<FileBlocks>>> = files.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some((name, h)) = files.get(i) else {
            break;
        };
        let res = extract_file_guarded(extract, name, h);
        *unpoisoned(slots[i].lock()) = Some(res);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    let mut data: Vec<Vec<Bytes>> = vec![Vec::new(); nranks as usize];
    for ((_, h), slot) in files.iter().zip(slots) {
        let slot = unpoisoned(slot.into_inner());
        #[allow(clippy::expect_used, reason = "the joined scope filled every slot")]
        let blocks = slot.expect("every file slot filled")?;
        for (k, row) in blocks.into_iter().enumerate() {
            data[h.r0 as usize + k].extend(row);
        }
    }
    Ok(data)
}

/// Read back the checkpoint a plan wrote under `dir`.
pub fn read_checkpoint(
    dir: impl AsRef<Path>,
    plan: &CheckpointPlan,
) -> Result<RestoredData, RestartError> {
    read_checkpoint_in(BufPool::global(), dir.as_ref(), plan)
}

/// [`read_checkpoint`] into buffers leased from `pool`.
pub(crate) fn read_checkpoint_in(
    pool: &BufPool,
    dir: &Path,
    plan: &CheckpointPlan,
) -> Result<RestoredData, RestartError> {
    let header = |name: &str| read_header(&dir.join(name));
    let extract = |name: &str, h: &FileHeader| extract_file(pool, dir, name, h);
    read_plan_files(plan, header, &extract, MAX_RESTART_WORKERS)
}

/// Read back the checkpoint a plan wrote from the node-local tier's
/// sealed files: each is placed payload-shaped (`place_blocks`) by
/// copying its held extents straight into the restored blocks.
///
/// Staged files carry no commit footer (sealing is in-memory; the
/// durability proof lives on the drained tiers), so integrity here is
/// the header shape checks — the same trust as the application's own
/// buffers the stage holds slices of.
///
/// The files are placed one after another on the calling thread. The
/// work is a memory copy out of resident buffers, a few milliseconds
/// a generation; a helper thread costs about as much to get running, so
/// fanning out only paid when the scheduler happened to start it at
/// once, and on a two-core host restore time swung by 2× from run to
/// run.
pub fn read_checkpoint_staged(
    plan: &CheckpointPlan,
    stage: &TierStage,
) -> Result<RestoredData, RestartError> {
    read_checkpoint_staged_in(BufPool::global(), plan, stage)
}

/// [`read_checkpoint_staged`] into buffers leased from `pool`.
pub(crate) fn read_checkpoint_staged_in(
    pool: &BufPool,
    plan: &CheckpointPlan,
    stage: &TierStage,
) -> Result<RestoredData, RestartError> {
    let torn = |file: &str, what| RestartError::Torn {
        file: file.to_string(),
        what,
    };
    let files = stage.sealed_files().map_err(|(n, what)| torn(&n, what))?;
    let header = |name: &str| {
        let Some((map, size)) = files.get(name) else {
            return Err(torn(name, "not sealed in the local tier".to_string()));
        };
        header_of(name, *size, |buf, off| {
            map.read(off, buf, tier::held);
            Ok(())
        })
    };
    let extract = |name: &str, header: &FileHeader| {
        // Sealed: its header was read first. No footer checks the spans
        // here: each field must end in the file.
        let (map, size) = &files[name];
        let ends = header.fields.iter();
        let ends = ends.map(|f| f.data_off.saturating_add(f.sizes.iter().sum()));
        let want = ends.fold(header.expected_file_size(), u64::max);
        if *size < want {
            let what = format!("staged file is {size} bytes, header expects {want}");
            return Err(torn(name, what));
        }
        place_blocks(pool, header, |_, blocks| {
            blocks.for_each(|(at, block)| map.read(at, block, tier::held));
            Ok(())
        })
    };
    read_plan_files(plan, header, &extract, 1)
}

/// Read back the files of `plan`: headers first (small reads, serial), so
/// the shape checks all pass before the heavy per-file extraction fans out
/// across up to `max_workers` threads.
fn read_plan_files(
    plan: &CheckpointPlan,
    header: impl Fn(&str) -> Result<FileHeader, RestartError>,
    extract: Extract<'_>,
    max_workers: usize,
) -> Result<RestoredData, RestartError> {
    let mut files: Vec<(String, FileHeader)> = Vec::with_capacity(plan.plan_files.len());
    for pf in &plan.plan_files {
        let h = header(&pf.name)?;
        check_header_shape(plan, pf, &h)?;
        files.push((pf.name.clone(), h));
    }
    let data = extract_all(&files, plan.layout.nranks(), extract, max_workers)?;
    restored_for_plan(plan, files.last().map(|(_, h)| h.step), data)
}

/// Discover every rbio checkpoint file under `dir` whose name starts with
/// `prefix`, returning `(relative name, parsed header)` sorted by covered
/// rank range.
pub fn scan_checkpoint_dir(
    dir: impl AsRef<Path>,
    prefix: &str,
) -> Result<Vec<(String, FileHeader)>, RestartError> {
    let dir = dir.as_ref();
    let mut out = Vec::new();
    // Entries deleted between listing and stat (a concurrent GC rotating
    // old generations) are not this scan's problem.
    for name in commit::list(dir)? {
        if !name.starts_with(prefix) || !name.ends_with(".rbio") {
            continue;
        }
        let header = match read_header(&dir.join(&name)) {
            Ok(h) => h,
            Err(RestartError::Io(e)) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        out.push((name, header));
    }
    out.sort_by_key(|(_, h)| (h.r0, h.r1));
    Ok(out)
}

/// Rebuild a checkpoint from its files alone (no plan): headers are
/// self-describing, so any tool can slice the data — the portability
/// argument for application-level checkpointing.
pub fn read_checkpoint_auto(
    dir: impl AsRef<Path>,
    prefix: &str,
) -> Result<RestoredData, RestartError> {
    let dir = dir.as_ref();
    let files = scan_checkpoint_dir(dir, prefix)?;
    let Some((_, first)) = files.first() else {
        return Err(RestartError::Inconsistent(format!(
            "no '{prefix}*.rbio' files found"
        )));
    };
    let (nranks, step, nfields) = (first.nranks_total, first.step, first.fields.len());
    let field_names: Vec<String> = first.fields.iter().map(|f| f.name.clone()).collect();
    // Coverage check: the rank ranges must tile [0, nranks).
    let mut cursor = 0u32;
    for (name, h) in &files {
        if h.nranks_total != nranks || h.step != step || h.fields.len() != nfields {
            return Err(RestartError::Inconsistent(format!(
                "{name}: header disagrees with the first file's job shape"
            )));
        }
        if h.r0 != cursor {
            return Err(RestartError::Inconsistent(format!(
                "rank coverage gap/overlap at {cursor} (file {name} starts at {})",
                h.r0
            )));
        }
        cursor = h.r1;
    }
    if cursor != nranks {
        return Err(RestartError::Inconsistent(format!(
            "files cover ranks [0,{cursor}) of {nranks}"
        )));
    }
    let extract = |name: &str, h: &FileHeader| extract_file(BufPool::global(), dir, name, h);
    let data = extract_all(&files, nranks, &extract, MAX_RESTART_WORKERS)?;
    Ok(RestoredData {
        step,
        nranks,
        field_names,
        data,
    })
}

/// Build a restart [`Program`]: every rank opens the file covering it and
/// reads its own blocks (independent reads — reads happen once per job, so
/// the paper leaves them untuned; §III-B).
pub fn build_restart_plan(plan: &CheckpointPlan) -> Program {
    let layout = &plan.layout;
    let np = layout.nranks();
    // Restart reads into staging; the payload buffers are unused.
    let mut b = ProgramBuilder::new(vec![0; np as usize]);
    // Mirror the plan's files.
    let mut ids: Vec<FileId> = Vec::with_capacity(plan.plan_files.len());
    for (i, pf) in plan.plan_files.iter().enumerate() {
        ids.push(b.file(pf.name.clone(), plan.program.files[i].size));
    }
    for (i, pf) in plan.plan_files.iter().enumerate() {
        let field_base: Vec<u64> = (0..layout.nfields())
            .map(|f| crate::format::field_data_off(layout, &plan.app, pf.r0, pf.r1, f))
            .collect();
        for rank in pf.r0..pf.r1 {
            b.reserve_staging(rank, layout.rank_payload_bytes(rank));
            b.push(
                rank,
                Op::Open {
                    file: ids[i],
                    create: false,
                },
            );
            for (f, &base) in field_base.iter().enumerate() {
                let len = layout.field_bytes(rank, f);
                if len == 0 {
                    continue;
                }
                b.push(
                    rank,
                    Op::ReadAt {
                        file: ids[i],
                        offset: base + layout.field_rank_off(f, pf.r0, rank),
                        len,
                        staging_off: layout.payload_field_off(rank, f),
                    },
                );
            }
            b.push(rank, Op::Close { file: ids[i] });
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecConfig};
    use crate::format::materialize_payloads;
    use crate::layout::DataLayout;
    use crate::strategy::{CheckpointSpec, Strategy};
    use rbio_plan::{validate, CoverageMode};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-restart-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn fill(rank: u32, field: usize, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (rank as usize * 31 + field * 7 + i) as u8;
        }
    }

    #[test]
    fn pfpp_write_then_read_round_trip() {
        let layout = DataLayout::uniform(4, &[("Ex", 64), ("Ey", 32)]);
        let plan = CheckpointSpec::new(layout, "ck").step(5).plan().unwrap();
        let dir = tmpdir("pfpp");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        let restored = read_checkpoint(&dir, &plan).unwrap();
        assert_eq!(restored.step, 5);
        assert_eq!(restored.nranks, 4);
        assert_eq!(restored.field_names, vec!["Ex", "Ey"]);
        for r in 0..4u32 {
            for f in 0..2usize {
                let mut want = vec![0u8; if f == 0 { 64 } else { 32 }];
                fill(r, f, &mut want);
                assert_eq!(restored.field_data(r, f), &want[..], "rank {r} field {f}");
            }
        }
        // Auto-discovery agrees.
        let auto = read_checkpoint_auto(&dir, "ck").unwrap();
        assert_eq!(auto.total_bytes(), restored.total_bytes());
        assert_eq!(auto.field_data(2, 1), restored.field_data(2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_plan_validates_and_runs() {
        let layout = DataLayout::uniform(4, &[("Ex", 64)]);
        let plan = CheckpointSpec::new(layout, "ck")
            .strategy(Strategy::coio(2))
            .plan()
            .unwrap();
        let dir = tmpdir("rplan");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();

        let rp = build_restart_plan(&plan);
        validate(&rp, CoverageMode::Read).unwrap();
        execute(&rp, vec![vec![]; 4], &ExecConfig::new(&dir)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a panicking restart worker used to poison its slot
    /// mutex and the `expect("no poisoned slots")` take-down panicked
    /// the whole restore (through `std::thread::scope`). Now the panic
    /// is caught per file, surfaces as a typed `WorkerPanicked` for
    /// that file only, and every other slot completes.
    #[test]
    fn panicking_worker_fails_only_its_file() {
        // 1PFPP over 4 ranks -> 4 files, so the parallel fan-out engages
        // and sibling files genuinely run on other workers.
        let layout = DataLayout::uniform(4, &[("Ex", 64)]);
        let plan = CheckpointSpec::new(layout, "ck").step(3).plan().unwrap();
        let dir = tmpdir("panic");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        assert!(plan.plan_files.len() >= 2, "need multiple files");

        let first = dir.join(&plan.plan_files[0].name);
        *INJECT_EXTRACT_PANIC.lock().unwrap() = Some(first);
        let res = read_checkpoint(&dir, &plan);
        assert!(
            INJECT_EXTRACT_PANIC.lock().unwrap().is_none(),
            "injection must have been consumed"
        );
        match res {
            Err(RestartError::WorkerPanicked { file, what }) => {
                assert_eq!(file, plan.plan_files[0].name);
                assert!(what.contains("injected"), "payload: {what}");
            }
            other => panic!("want WorkerPanicked, got {other:?}"),
        }

        // With the injection consumed, the same checkpoint restores.
        let restored = read_checkpoint(&dir, &plan).unwrap();
        assert_eq!(restored.nranks, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staged_restore_refuses_a_field_past_the_sealed_size() {
        use std::sync::Arc;
        let layout = DataLayout::uniform(2, &[("Ex", 64)]);
        let plan = CheckpointSpec::new(layout, "ck").step(4).plan().unwrap();
        let dir = tmpdir("staged-span");
        std::fs::create_dir_all(&dir).unwrap();
        let stage = Arc::new(TierStage::with_budget(4, 1 << 16));
        let cfg = ExecConfig::new(&dir).stage(Arc::clone(&stage));
        execute(&plan.program, materialize_payloads(&plan, fill), &cfg).unwrap();
        let restored = read_checkpoint_staged(&plan, &stage).unwrap();
        let mut want = vec![0u8; 64];
        fill(1, 0, &mut want);
        assert_eq!(restored.field_data(1, 0), &want[..]);

        // Re-stage one header with its field's `data_off` a byte late and
        // its CRC resealed: the field now ends past the sealed bytes.
        let name = &plan.plan_files[0].name;
        let files = stage.sealed_files().unwrap();
        let (map, size) = &files[name];
        let read = |b: &mut [u8], off| {
            map.read(off, b, tier::held);
            Ok(())
        };
        let h = header_of(name, *size, read).unwrap();
        let mut hdr = vec![0u8; h.header_len as usize];
        map.read(0, &mut hdr, tier::held);
        let n = hdr.len() - 4;
        let late = h.fields[0].data_off + 1;
        hdr[n - 8..n].copy_from_slice(&late.to_le_bytes());
        let crc = crate::format::crc32(&hdr[..n]);
        hdr[n..].copy_from_slice(&crc.to_le_bytes());
        stage.append(name, 0, &hdr).unwrap();
        match read_checkpoint_staged(&plan, &stage) {
            Err(RestartError::Torn { file, what }) => {
                assert_eq!(&file, name);
                assert!(
                    what.contains(&format!("header expects {}", size + 1)),
                    "{what}"
                );
            }
            other => panic!("want Torn, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_reported() {
        let layout = DataLayout::uniform(2, &[("x", 8)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_checkpoint(&dir, &plan).is_err());
        assert!(read_checkpoint_auto(&dir, "ck").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_data_reported_as_torn() {
        let layout = DataLayout::uniform(2, &[("x", 512)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-bit");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Flip one data byte (well clear of the 32-byte footer): the
        // footer's field checksum must catch it.
        let victim = dir.join(&plan.plan_files[0].name);
        let mut bytes = std::fs::read(&victim).unwrap();
        let idx = bytes.len() - 64;
        bytes[idx] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footerless_file_reported_as_torn() {
        let layout = DataLayout::uniform(2, &[("x", 128)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-nofoot");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Chop the footer off: data intact but the commit proof is gone —
        // indistinguishable from a file renamed by something other than
        // the commit path.
        let victim = dir.join(&plan.plan_files[1].name);
        let hdr = read_header(&victim).unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(hdr.expected_file_size()).unwrap();
        drop(f);
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_detected() {
        let layout = DataLayout::uniform(2, &[("x", 1000)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("trunc");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Truncate the second file mid-data.
        let victim = dir.join(&plan.plan_files[1].name);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(200).unwrap();
        drop(f);
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_length_and_header_stub_files_are_torn_not_panics() {
        let layout = DataLayout::uniform(2, &[("x", 256)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-zero");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();

        // Zero-length file: crash between create and first write.
        let victim = dir.join(&plan.plan_files[0].name);
        let good = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, b"").unwrap();
        for err in [
            read_checkpoint(&dir, &plan).unwrap_err(),
            read_checkpoint_auto(&dir, "ck").unwrap_err(),
        ] {
            assert!(
                matches!(err, RestartError::Torn { .. }),
                "want Torn, got {err}"
            );
        }

        // A few bytes of header prelude, then nothing.
        std::fs::write(&victim, &good[..10]).unwrap();
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );

        // Valid prelude but the file ends inside its declared header.
        std::fs::write(&victim, &good[..20.min(good.len())]).unwrap();
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_truncated_mid_footer_is_torn() {
        let layout = DataLayout::uniform(2, &[("x", 512)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("torn-midfoot");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // Cut the file inside its commit footer: data complete, commit
        // proof half-written — exactly what a crash mid-commit leaves.
        let victim = dir.join(&plan.plan_files[0].name);
        let hdr = read_header(&victim).unwrap();
        let full = std::fs::metadata(&victim).unwrap().len();
        let logical = hdr.expected_file_size();
        assert!(full > logical + 1, "need a footer to cut");
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(logical + (full - logical) / 2).unwrap();
        drop(f);
        let err = read_checkpoint(&dir, &plan).unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        let err = read_checkpoint_auto(&dir, "ck").unwrap_err();
        assert!(
            matches!(err, RestartError::Torn { .. }),
            "want Torn, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Multi-file generations publish file by file, so under a reused
    /// prefix a crash between two renames leaves intact files of two
    /// steps side by side. A plan-guided restore must refuse the mix
    /// rather than return it under one step.
    #[test]
    fn files_of_two_steps_under_one_prefix_are_refused() {
        let layout = DataLayout::uniform(4, &[("Ex", 64), ("Ey", 8)]);
        let plan_for = |step| {
            CheckpointSpec::new(layout.clone(), "ck")
                .strategy(Strategy::coio(2))
                .step(step)
                .plan()
                .unwrap()
        };
        let (old, new) = (plan_for(5), plan_for(7));
        let (old_dir, dir) = (tmpdir("mixed-old"), tmpdir("mixed"));
        for (plan, dir) in [(&old, &old_dir), (&new, &dir)] {
            let payloads = materialize_payloads(plan, |r, f, buf| {
                fill(r + plan.step as u32, f, buf);
            });
            execute(&plan.program, payloads, &ExecConfig::new(dir)).unwrap();
        }
        assert_eq!(new.plan_files.len(), 2);
        assert_eq!(read_checkpoint(&dir, &new).unwrap().step, 7);
        // File 1 of step 5 where file 1 of step 7 was never published.
        let name = &new.plan_files[1].name;
        assert_eq!(name, &old.plan_files[1].name, "one prefix, same names");
        std::fs::copy(old_dir.join(name), dir.join(name)).unwrap();
        for plan in [&new, &old] {
            match read_checkpoint(&dir, plan) {
                Err(RestartError::Inconsistent(what)) => {
                    assert!(what.contains("step"), "{what}")
                }
                other => panic!("want Inconsistent, got {other:?}"),
            }
        }
        assert!(matches!(
            read_checkpoint_auto(&dir, "ck"),
            Err(RestartError::Inconsistent(_))
        ));
        std::fs::remove_dir_all(&old_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_skips_entries_that_vanish_mid_scan() {
        let layout = DataLayout::uniform(2, &[("x", 64)]);
        let plan = CheckpointSpec::new(layout, "ck").plan().unwrap();
        let dir = tmpdir("scan-vanish");
        let payloads = materialize_payloads(&plan, fill);
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).unwrap();
        // A dangling symlink is what a concurrently-GC'd entry looks like
        // at open time: it lists, but opening it yields NotFound.
        std::os::unix::fs::symlink(dir.join("no-such-file"), dir.join("ck-gone.rbio")).unwrap();
        let files = scan_checkpoint_dir(&dir, "ck").expect("scan tolerates vanished entry");
        assert_eq!(files.len(), plan.plan_files.len());
        let restored = read_checkpoint_auto(&dir, "ck").expect("restore unaffected");
        assert_eq!(restored.nranks, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
