//! Crash-state torture harness: record the durability-relevant op
//! stream, enumerate legal post-crash filesystem images, and prove
//! every one of them restores.
//!
//! Everything the fault sweeps verify happens inside a *live* process;
//! what actually survives a power loss is a different question. POSIX
//! only promises that data reached stable storage once the matching
//! `fsync` returned, and that a `rename` is durable once the parent
//! directory has been fsynced. Between those barriers the kernel may
//! persist writes in any order, partially, or not at all. This module
//! closes the loop the way crash-consistency checkers (ALICE, CrashMonkey)
//! do:
//!
//! 1. **Record.** A process-global [`Recorder`] journals every
//!    `write_at` (with byte payload), file `fsync`, `rename`, and
//!    directory `fsync` under a root directory, in the order the
//!    process issued them. Data writes have exactly one journaling
//!    seam: [`crate::fault::write_at_or_short`], the one fault-checked
//!    write the serial interpreter, the threaded backend, the ring
//!    backend and the text-artifact commit all call, plus its
//!    continuation [`crate::fault::finish_short_write`] — so the bytes
//!    a resubmitted short write lands are journaled like any others.
//!    The commit path journals its own footer/fsync/rename/dir-fsync
//!    edges, and the [`RecordingBackend`] decorator covers the one edge
//!    backends own directly: `sync_file`. No backend writes data any
//!    other way. The harness also notes a [`RecOp::DurablePoint`] after
//!    each `checkpoint()` returns with `fsync = true` — the instant the
//!    API contract promises the step is crash-safe.
//! 2. **Enumerate.** A *legal crash image* at cut `k` applies a subset
//!    of `ops[..k]` to an in-memory filesystem model: every op that a
//!    later-but-before-`k` barrier made durable (a write followed by
//!    its file's fsync; a rename followed by its directory's fsync) is
//!    **required**; the rest are *volatile* and may be dropped
//!    independently, and the last applied volatile write may addition-
//!    ally be **torn** (only a prefix of its payload persisted).
//! 3. **Check.** Each image is materialized into a fresh directory and
//!    restored with [`CheckpointManager::restore_latest`]. The
//!    invariant: every image restores a generation with
//!    `step >= max(DurablePoint before the cut)` — possibly an older,
//!    degraded one — and never panics, never errors, never returns
//!    bytes that differ from what the application wrote for that step.
//!
//! Op order across writer threads is whatever interleaving the run
//! produced — any recorded order is a legal history, so the invariant
//! is sound for all of them — but a journal can be saved with
//! [`save_ops`] and replayed bit-deterministically with [`load_ops`],
//! which is how a violating image is reproduced from CI.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rbio_profile::counters;

use crate::backend::{BatchOutcome, IoBackend, IoCtx, WriteOp};
use crate::layout::DataLayout;
use crate::manager::{CheckpointManager, ManagerConfig, ManagerError};
use crate::sched::{Revert, RevertGuard};
use crate::strategy::Strategy;

/// One recorded durability-relevant operation. Paths are relative to
/// the recorder's root directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecOp {
    /// `data` landed at `offset` in `path`.
    Write {
        /// Target file, relative to the recorder root.
        path: PathBuf,
        /// Absolute file offset of the payload.
        offset: u64,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// `fsync` on `path` returned: every earlier write to it is durable.
    Fsync {
        /// The synced file, relative to the recorder root.
        path: PathBuf,
    },
    /// `from` was renamed over `to`.
    Rename {
        /// Source, relative to the recorder root.
        from: PathBuf,
        /// Destination, relative to the recorder root.
        to: PathBuf,
    },
    /// `fsync` on directory `dir` returned: every earlier rename whose
    /// destination lives in `dir` is durable.
    DirFsync {
        /// The synced directory, relative to the recorder root ("" for
        /// the root itself).
        dir: PathBuf,
    },
    /// The API promised durability here: `checkpoint(step)` returned
    /// with fsync on. Every crash image cut after this point must
    /// restore `step` or newer.
    DurablePoint {
        /// The step the caller was told is durable.
        step: u64,
    },
}

struct RecState {
    root: PathBuf,
    ops: Vec<RecOp>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<RecState>> = Mutex::new(None);
/// Serializes recorders across threads: the journal is process-global,
/// so two concurrently recording scenarios would interleave streams.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn state_guard() -> MutexGuard<'static, Option<RecState>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// True when a recorder is installed (one relaxed load; the journal
/// hooks are free when nothing records).
#[inline]
pub fn recording() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// A scoped, process-global op journal for everything written under a
/// root directory. Holding the recorder serializes with every other
/// would-be recorder in the process; dropping it uninstalls the journal.
pub struct Recorder {
    _serial: MutexGuard<'static, ()>,
}

impl Recorder {
    /// Install a recorder rooted at `root` (must exist; it is
    /// canonicalized so fd-derived paths compare equal). Blocks until
    /// any other live recorder is dropped.
    pub fn install(root: &Path) -> io::Result<Recorder> {
        let serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let root = root.canonicalize()?;
        *state_guard() = Some(RecState {
            root,
            ops: Vec::new(),
        });
        ACTIVE.store(true, Ordering::Release);
        Ok(Recorder { _serial: serial })
    }

    /// Take the journal recorded so far (leaving it empty).
    pub fn take(&self) -> Vec<RecOp> {
        state_guard()
            .as_mut()
            .map(|s| std::mem::take(&mut s.ops))
            .unwrap_or_default()
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Release);
        *state_guard() = None;
    }
}

/// Resolve the filesystem path behind an open file descriptor.
fn fd_path(file: &File) -> Option<PathBuf> {
    use std::os::unix::io::AsRawFd;
    std::fs::read_link(format!("/proc/self/fd/{}", file.as_raw_fd())).ok()
}

fn push_under_root(path: &Path, make: impl FnOnce(PathBuf) -> RecOp) {
    let mut g = state_guard();
    if let Some(st) = g.as_mut() {
        if let Ok(rel) = path.strip_prefix(&st.root) {
            let op = make(rel.to_path_buf());
            st.ops.push(op);
        }
    }
}

/// Best-effort canonicalization for paths that may no longer exist
/// (a renamed-away tmp): canonicalize the parent and re-attach the
/// file name.
fn canon(path: &Path) -> Option<PathBuf> {
    if let Ok(c) = path.canonicalize() {
        return Some(c);
    }
    let parent = path.parent()?.canonicalize().ok()?;
    Some(parent.join(path.file_name()?))
}

/// Journal a completed write of `bufs`, back to back at `offset`, into
/// `file`.
pub(crate) fn record_write(file: &File, offset: u64, bufs: &[impl AsRef<[u8]>]) {
    if !recording() {
        return;
    }
    if let Some(p) = fd_path(file) {
        push_under_root(&p, |path| {
            let mut data = Vec::new();
            for b in bufs {
                data.extend_from_slice(b.as_ref());
            }
            RecOp::Write { path, offset, data }
        });
    }
}

/// Journal a successful file fsync.
pub(crate) fn record_fsync_file(file: &File) {
    if !recording() {
        return;
    }
    if let Some(p) = fd_path(file) {
        push_under_root(&p, |path| RecOp::Fsync { path });
    }
}

/// Journal a successful rename.
pub(crate) fn record_rename(from: &Path, to: &Path) {
    if !recording() {
        return;
    }
    let (Some(from), Some(to)) = (canon(from), canon(to)) else {
        return;
    };
    let mut g = state_guard();
    if let Some(st) = g.as_mut() {
        if let (Ok(f), Ok(t)) = (from.strip_prefix(&st.root), to.strip_prefix(&st.root)) {
            let op = RecOp::Rename {
                from: f.to_path_buf(),
                to: t.to_path_buf(),
            };
            st.ops.push(op);
        }
    }
}

/// Journal a successful directory fsync.
pub(crate) fn record_dir_fsync(dir: &Path) {
    if !recording() {
        return;
    }
    if let Some(p) = canon(dir) {
        push_under_root(&p, |dir| RecOp::DirFsync { dir });
    }
}

/// Journal a durability promise: the API reported `step` crash-safe.
pub fn note_durable(step: u64) {
    if !recording() {
        return;
    }
    if let Some(st) = state_guard().as_mut() {
        st.ops.push(RecOp::DurablePoint { step });
    }
}

/// [`IoBackend`] decorator that journals the durability edge backends
/// own directly — `sync_file` — into the crash recorder. Write payloads
/// are journaled one layer down, in the one fault-checked write
/// ([`crate::fault::write_at_or_short`]) every backend and the serial
/// interpreter funnel through, so wrapping
/// either [`crate::backend::ThreadedBackend`] or
/// [`crate::backend::RingBackend`] yields the same complete op stream.
pub struct RecordingBackend {
    inner: Arc<dyn IoBackend>,
}

impl RecordingBackend {
    /// Decorate `inner`.
    pub fn new(inner: Arc<dyn IoBackend>) -> Self {
        RecordingBackend { inner }
    }
}

/// Wrap `backend` in a [`RecordingBackend`] when a recorder is live;
/// otherwise return it unchanged (zero overhead off the harness path).
pub fn wrap_if_recording(backend: Arc<dyn IoBackend>) -> Arc<dyn IoBackend> {
    if recording() {
        Arc::new(RecordingBackend::new(backend))
    } else {
        backend
    }
}

impl IoBackend for RecordingBackend {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    fn run_writes(&self, ctx: &IoCtx<'_>, ops: Vec<WriteOp>) -> BatchOutcome {
        // Payload journaling happens inside the shared fault-checked
        // write; delegating keeps linked-op and buffer-
        // ownership semantics exactly the inner backend's.
        self.inner.run_writes(ctx, ops)
    }

    fn sync_file(&self, file: &File) -> io::Result<()> {
        self.inner.sync_file(file)?;
        record_fsync_file(file);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Crash-image enumeration.
// ---------------------------------------------------------------------------

/// How the volatile (not-yet-barriered) ops of a cut are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Every op before the cut persisted (clean prefix).
    AllApplied,
    /// Only barrier-protected ops persisted (maximal loss).
    RequiredOnly,
    /// Each volatile op persisted iff a seeded coin says so.
    Subset(u64),
    /// Like [`Variant::AllApplied`], but the last volatile write is
    /// torn: only a seeded-length prefix of its payload persisted.
    Torn(u64),
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::AllApplied => write!(f, "all"),
            Variant::RequiredOnly => write!(f, "required"),
            Variant::Subset(s) => write!(f, "subset:{s:#x}"),
            Variant::Torn(s) => write!(f, "torn:{s:#x}"),
        }
    }
}

impl std::str::FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "all" {
            return Ok(Variant::AllApplied);
        }
        if s == "required" {
            return Ok(Variant::RequiredOnly);
        }
        let parse_seed = |v: &str| {
            let v = v.trim_start_matches("0x");
            u64::from_str_radix(v, 16).map_err(|e| format!("bad variant seed {v:?}: {e}"))
        };
        if let Some(v) = s.strip_prefix("subset:") {
            return Ok(Variant::Subset(parse_seed(v)?));
        }
        if let Some(v) = s.strip_prefix("torn:") {
            return Ok(Variant::Torn(parse_seed(v)?));
        }
        Err(format!("unknown variant {s:?}"))
    }
}

/// One crash image: a cut position in the op stream plus a treatment of
/// the volatile ops before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageSpec {
    /// Ops `0..cut` happened before the crash.
    pub cut: usize,
    /// What subset of the volatile ops persisted.
    pub variant: Variant,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Which ops in `ops[..cut]` a crash at `cut` *cannot* have dropped:
/// a write whose file was fsynced after it (still before the cut), a
/// rename whose destination directory was fsynced after it, and every
/// barrier/durable-point op itself (they carry no filesystem state).
pub fn required_ops(ops: &[RecOp], cut: usize) -> Vec<bool> {
    let mut required = vec![false; cut];
    for j in 0..cut {
        match &ops[j] {
            RecOp::Fsync { path } => {
                for (i, req) in required.iter_mut().enumerate().take(j) {
                    if let RecOp::Write { path: wp, .. } = &ops[i] {
                        if wp == path {
                            *req = true;
                        }
                    }
                }
            }
            RecOp::DirFsync { dir } => {
                for (i, req) in required.iter_mut().enumerate().take(j) {
                    if let RecOp::Rename { to, .. } = &ops[i] {
                        if to.parent().map(Path::to_path_buf).unwrap_or_default() == *dir {
                            *req = true;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    required
}

/// The newest step the API had promised durable before `cut`, if any.
pub fn durable_floor(ops: &[RecOp], cut: usize) -> Option<u64> {
    ops[..cut]
        .iter()
        .filter_map(|op| match op {
            RecOp::DurablePoint { step } => Some(*step),
            _ => None,
        })
        .max()
}

/// In-memory filesystem model the applied ops replay into.
#[derive(Default)]
struct FsModel {
    files: BTreeMap<PathBuf, Vec<u8>>,
}

impl FsModel {
    fn apply(&mut self, op: &RecOp, torn_len: Option<usize>) {
        match op {
            RecOp::Write { path, offset, data } => {
                let data = match torn_len {
                    Some(n) => &data[..n.min(data.len())],
                    None => &data[..],
                };
                let f = self.files.entry(path.clone()).or_default();
                let end = *offset as usize + data.len();
                if f.len() < end {
                    f.resize(end, 0);
                }
                f[*offset as usize..end].copy_from_slice(data);
            }
            RecOp::Rename { from, to } => {
                let content = self.files.remove(from).unwrap_or_default();
                self.files.insert(to.clone(), content);
            }
            RecOp::Fsync { .. } | RecOp::DirFsync { .. } | RecOp::DurablePoint { .. } => {}
        }
    }

    fn materialize(&self, out_dir: &Path) -> io::Result<()> {
        for (rel, content) in &self.files {
            let path = out_dir.join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(&path, content)?;
        }
        Ok(())
    }
}

/// Which ops `spec` applies, and the torn length of the final applied
/// volatile write (if the variant tears one).
fn applied_set(ops: &[RecOp], spec: ImageSpec) -> (Vec<bool>, Option<(usize, usize)>) {
    let required = required_ops(ops, spec.cut);
    let mut applied = vec![true; spec.cut];
    match spec.variant {
        Variant::AllApplied => {}
        Variant::RequiredOnly => {
            for (i, a) in applied.iter_mut().enumerate() {
                *a = required[i];
            }
        }
        Variant::Subset(seed) => {
            for (i, a) in applied.iter_mut().enumerate() {
                if !required[i] {
                    *a = splitmix(seed ^ (i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd)) & 1 == 0;
                }
            }
        }
        Variant::Torn(seed) => {
            // Clean prefix, but the last volatile write only partially
            // persisted. Barriered writes are never torn — their fsync
            // returned.
            let victim = (0..spec.cut).rev().find(|&i| {
                !required[i] && matches!(&ops[i], RecOp::Write { data, .. } if data.len() > 1)
            });
            if let Some(i) = victim {
                if let RecOp::Write { data, .. } = &ops[i] {
                    let torn = 1 + (splitmix(seed) as usize) % (data.len() - 1);
                    return (applied, Some((i, torn)));
                }
            }
        }
    }
    (applied, None)
}

/// Materialize the crash image `spec` describes into `out_dir`.
pub fn materialize_image(ops: &[RecOp], spec: ImageSpec, out_dir: &Path) -> io::Result<()> {
    let (applied, torn) = applied_set(ops, spec);
    let mut fs = FsModel::default();
    for i in 0..spec.cut {
        if applied[i] {
            let torn_len = torn.and_then(|(vi, n)| (vi == i).then_some(n));
            fs.apply(&ops[i], torn_len);
        }
    }
    fs.materialize(out_dir)
}

// ---------------------------------------------------------------------------
// Scenario recording and sweeping.
// ---------------------------------------------------------------------------

/// A recorded workload: `steps` checkpoints of a fixed two-field layout
/// under one strategy, fsync on, rotation disabled (every recorded op
/// survives to enumeration).
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Aggregation strategy under test.
    pub strategy: Strategy,
    /// Writer ranks in the layout.
    pub nranks: u32,
    /// Checkpoints recorded (each ends in a durable point).
    pub steps: u64,
}

impl Scenario {
    /// Stable label for reports and replay coordinates.
    pub fn label(&self) -> String {
        let s = match self.strategy {
            Strategy::OnePfpp => "1pfpp".to_string(),
            Strategy::CoIo { nf, .. } => format!("coio{nf}"),
            Strategy::RbIo { ng, .. } => format!("rbio{ng}"),
        };
        format!("{s}-r{}-s{}", self.nranks, self.steps)
    }

    /// The layout every scenario records under.
    pub fn layout(&self) -> DataLayout {
        DataLayout::uniform(self.nranks, &[("u", 512), ("v", 128)])
    }
}

/// The deterministic byte the workload writes at position `i` of
/// (`step`, `rank`, `field`) — the checker regenerates it to detect
/// torn or cross-step data in a restored image.
pub fn fill_value(step: u64, rank: u32, field: usize, i: usize) -> u8 {
    (step
        .wrapping_mul(31)
        .wrapping_add(u64::from(rank).wrapping_mul(7))
        .wrapping_add((field as u64).wrapping_mul(13))
        .wrapping_add(i as u64)) as u8
}

/// Run the scenario's checkpoints under a recorder rooted at `scratch`
/// (created fresh, removed afterward) and return the op journal.
/// `revert_pr1` plants the missing-dir-fsync bug for the duration.
pub fn record_scenario(
    scn: &Scenario,
    scratch: &Path,
    revert_pr1: bool,
) -> Result<Vec<RecOp>, ManagerError> {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch)?;
    let rec = Recorder::install(scratch)?;
    let run = || -> Result<(), ManagerError> {
        // Plant the bug only while holding the recorder: the install lock
        // serializes scenarios, so the process-wide switch cannot leak
        // into an unrelated recording.
        let _planted = revert_pr1.then(|| RevertGuard::arm(Revert::Pr1CommitFsync));
        let mut cfg = ManagerConfig::new(scratch, scn.strategy);
        cfg.fsync = true;
        // Rotation would delete files with unrecorded ops; keep every
        // generation so the journal is the complete history.
        cfg.keep = scn.steps as usize + 1;
        let mgr = CheckpointManager::new(scn.layout(), cfg)?;
        for step in 1..=scn.steps {
            mgr.checkpoint(step, |rank, field, buf| {
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = fill_value(step, rank, field, i);
                }
            })?;
            note_durable(step);
        }
        Ok(())
    };
    let result = run();
    let ops = rec.take();
    drop(rec);
    let _ = std::fs::remove_dir_all(scratch);
    result.map(|()| ops)
}

/// One invariant breach: the image's replay coordinates plus what went
/// wrong.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Scenario label ([`Scenario::label`]).
    pub scenario: String,
    /// Cut position in the journal.
    pub cut: usize,
    /// Volatile-op treatment (parseable by `Variant::from_str`).
    pub variant: String,
    /// What the restore did wrong.
    pub detail: String,
}

/// What a sweep covered and found.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Crash images materialized and checked.
    pub images: usize,
    /// Ops in the recorded journal.
    pub journal_ops: usize,
    /// Invariant breaches (empty on a correct commit protocol).
    pub violations: Vec<Violation>,
}

/// The image specs a sweep of a `nops`-op journal checks, at most
/// `budget` of them: five variants per cut, cut positions strided to
/// fit the budget, with the full-stream cut always included (it is the
/// one that catches a missing final barrier).
pub fn enumerate_specs(nops: usize, budget: usize, seed: u64) -> Vec<ImageSpec> {
    const PER_CUT: usize = 5;
    let stride = ((nops + 1) * PER_CUT).div_ceil(budget.max(PER_CUT)).max(1);
    let mut cuts: Vec<usize> = (0..=nops).step_by(stride).collect();
    if cuts.last() != Some(&nops) {
        cuts.push(nops);
    }
    let mut specs = Vec::with_capacity(cuts.len() * PER_CUT);
    for cut in cuts {
        let base = splitmix(seed ^ (cut as u64));
        specs.push(ImageSpec {
            cut,
            variant: Variant::AllApplied,
        });
        specs.push(ImageSpec {
            cut,
            variant: Variant::RequiredOnly,
        });
        specs.push(ImageSpec {
            cut,
            variant: Variant::Subset(base),
        });
        specs.push(ImageSpec {
            cut,
            variant: Variant::Subset(splitmix(base)),
        });
        specs.push(ImageSpec {
            cut,
            variant: Variant::Torn(base),
        });
    }
    specs.truncate(budget.max(PER_CUT));
    specs
}

/// Materialize `spec` into `img_dir` and check the restore invariant.
/// `None` means the image is fine; `Some(detail)` describes the breach.
pub fn check_image(
    ops: &[RecOp],
    spec: ImageSpec,
    scn: &Scenario,
    img_dir: &Path,
) -> io::Result<Option<String>> {
    materialize_image(ops, spec, img_dir)?;
    let floor = durable_floor(ops, spec.cut);
    let cfg = ManagerConfig::new(img_dir, scn.strategy);
    let layout = scn.layout();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        CheckpointManager::new(layout, cfg).and_then(|mgr| mgr.restore_latest())
    }));
    counters::add_crash_images_checked(1);
    let detail = match outcome {
        Err(_) => Some("restore panicked".to_string()),
        Ok(Ok(data)) => {
            if floor.is_some_and(|f| data.step < f) {
                Some(format!(
                    "restored step {} older than fsync-promised step {}",
                    data.step,
                    floor.unwrap_or(0)
                ))
            } else {
                verify_restored_bytes(&data, scn)
            }
        }
        Ok(Err(ManagerError::NothingToRestore)) => floor.map(|f| {
            format!("nothing restorable, but step {f} was promised durable before the cut")
        }),
        Ok(Err(e)) => Some(format!("restore failed: {e}")),
    };
    Ok(detail)
}

fn verify_restored_bytes(data: &crate::restart::RestoredData, scn: &Scenario) -> Option<String> {
    let layout = scn.layout();
    for rank in 0..layout.nranks() {
        for field in 0..layout.nfields() {
            let got = data.field_data(rank, field);
            for (i, &b) in got.iter().enumerate() {
                let want = fill_value(data.step, rank, field, i);
                if b != want {
                    return Some(format!(
                        "torn data accepted: step {} rank {rank} field {field} byte {i}: \
                         got {b:#04x}, wrote {want:#04x}",
                        data.step
                    ));
                }
            }
        }
    }
    None
}

/// Record `scn` and check up to `budget` crash images from its journal.
/// Image directories live (briefly) under `work`. Set `revert_pr1` to
/// plant the missing-dir-fsync bug and prove the sweep catches it.
pub fn sweep_scenario(
    scn: &Scenario,
    budget: usize,
    seed: u64,
    work: &Path,
    revert_pr1: bool,
) -> Result<SweepReport, ManagerError> {
    let ops = record_scenario(scn, &work.join("record"), revert_pr1)?;
    let specs = enumerate_specs(ops.len(), budget, seed);
    let mut report = SweepReport {
        journal_ops: ops.len(),
        ..SweepReport::default()
    };
    for (i, spec) in specs.iter().enumerate() {
        let img = work.join(format!("img-{i}"));
        let _ = std::fs::remove_dir_all(&img);
        std::fs::create_dir_all(&img)?;
        if let Some(detail) = check_image(&ops, *spec, scn, &img)? {
            report.violations.push(Violation {
                scenario: scn.label(),
                cut: spec.cut,
                variant: spec.variant.to_string(),
                detail,
            });
        }
        report.images += 1;
        let _ = std::fs::remove_dir_all(&img);
    }
    // A dirty sweep persists its journal beside the images so every
    // reported (cut, variant) coordinate replays bit-deterministically.
    if !report.violations.is_empty() {
        save_ops(&ops, &work.join("crash.journal"))?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Journal persistence (deterministic replay of a CI-found violation).
// ---------------------------------------------------------------------------

fn hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd hex length".to_string());
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).map_err(|e| e.to_string()))
        .collect()
}

/// Serialize a journal to a text file (one op per line, payloads hex).
pub fn save_ops(ops: &[RecOp], path: &Path) -> io::Result<()> {
    let mut out = String::new();
    for op in ops {
        match op {
            RecOp::Write { path, offset, data } => {
                out.push_str(&format!(
                    "write {} {offset} {}\n",
                    path.display(),
                    hex(data)
                ));
            }
            RecOp::Fsync { path } => out.push_str(&format!("fsync {}\n", path.display())),
            RecOp::Rename { from, to } => {
                out.push_str(&format!("rename {} {}\n", from.display(), to.display()));
            }
            RecOp::DirFsync { dir } => {
                out.push_str(&format!("dirfsync {}\n", dir.display()));
            }
            RecOp::DurablePoint { step } => out.push_str(&format!("durable {step}\n")),
        }
    }
    std::fs::write(path, out)
}

/// Load a journal saved by [`save_ops`].
pub fn load_ops(path: &Path) -> io::Result<Vec<RecOp>> {
    let text = std::fs::read_to_string(path)?;
    let bad = |line: &str, why: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal line {line:?}: {why}"),
        )
    };
    let mut ops = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let op = match parts.next() {
            Some("write") => {
                let (Some(p), Some(off), Some(data)) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(bad(line, "expected `write <path> <offset> <hex>`".into()));
                };
                RecOp::Write {
                    path: PathBuf::from(p),
                    offset: off.parse().map_err(|e| bad(line, format!("{e}")))?,
                    data: unhex(data).map_err(|e| bad(line, e))?,
                }
            }
            Some("fsync") => RecOp::Fsync {
                path: PathBuf::from(
                    parts
                        .next()
                        .ok_or_else(|| bad(line, "missing path".into()))?,
                ),
            },
            Some("rename") => {
                let (Some(f), Some(t)) = (parts.next(), parts.next()) else {
                    return Err(bad(line, "expected `rename <from> <to>`".into()));
                };
                RecOp::Rename {
                    from: PathBuf::from(f),
                    to: PathBuf::from(t),
                }
            }
            Some("dirfsync") => RecOp::DirFsync {
                dir: PathBuf::from(parts.next().unwrap_or_default()),
            },
            Some("durable") => RecOp::DurablePoint {
                step: parts
                    .next()
                    .ok_or_else(|| bad(line, "missing step".into()))?
                    .parse()
                    .map_err(|e| bad(line, format!("{e}")))?,
            },
            Some(other) => return Err(bad(line, format!("unknown op {other:?}"))),
            None => continue,
        };
        ops.push(op);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rbio-crash-{tag}-{}", std::process::id()))
    }

    #[test]
    fn recorder_captures_the_full_commit_chain() {
        let dir = scratch("chain");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Recorder::install(&dir).unwrap();
        commit::commit_text(&dir.join("x.commit"), "hello marker\n", true).unwrap();
        let ops = rec.take();
        drop(rec);
        // Body write, footer write, tmp fsync, rename, dir fsync.
        assert!(
            ops.iter()
                .any(|o| matches!(o, RecOp::Write { path, offset: 0, data }
                    if path == Path::new("x.commit.tmp") && data == b"hello marker\n")),
            "body write missing from {ops:?}"
        );
        assert!(ops
            .iter()
            .any(|o| matches!(o, RecOp::Fsync { path } if path == Path::new("x.commit.tmp"))));
        assert!(ops.iter().any(|o| matches!(o, RecOp::Rename { from, to }
                if from == Path::new("x.commit.tmp") && to == Path::new("x.commit"))));
        assert!(ops
            .iter()
            .any(|o| matches!(o, RecOp::DirFsync { dir } if dir == Path::new(""))));
        // And in barrier order: write < fsync < rename < dirfsync.
        let pos = |pred: &dyn Fn(&RecOp) -> bool| ops.iter().position(pred).unwrap();
        let w = pos(&|o| matches!(o, RecOp::Write { offset: 0, .. }));
        let f = pos(&|o| matches!(o, RecOp::Fsync { .. }));
        let r = pos(&|o| matches!(o, RecOp::Rename { .. }));
        let d = pos(&|o| matches!(o, RecOp::DirFsync { .. }));
        assert!(w < f && f < r && r < d, "order broken: {ops:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_outside_the_root_are_not_recorded() {
        let dir = scratch("root");
        let other = scratch("other");
        for d in [&dir, &other] {
            let _ = std::fs::remove_dir_all(d);
            std::fs::create_dir_all(d).unwrap();
        }
        let rec = Recorder::install(&dir).unwrap();
        commit::commit_text(&other.join("y.commit"), "elsewhere\n", true).unwrap();
        assert!(rec.take().is_empty(), "foreign-dir ops leaked in");
        drop(rec);
        for d in [&dir, &other] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn required_ops_track_barriers() {
        let p = PathBuf::from("a.tmp");
        let q = PathBuf::from("a");
        let ops = vec![
            RecOp::Write {
                path: p.clone(),
                offset: 0,
                data: vec![1, 2],
            },
            RecOp::Fsync { path: p.clone() },
            RecOp::Rename {
                from: p.clone(),
                to: q.clone(),
            },
            RecOp::Write {
                path: PathBuf::from("b.tmp"),
                offset: 0,
                data: vec![3],
            },
            RecOp::DirFsync {
                dir: PathBuf::new(),
            },
        ];
        // Cut after the rename, before the dir fsync: the write is
        // pinned by its fsync, the rename is still volatile.
        let req = required_ops(&ops, 3);
        assert_eq!(req, vec![true, false, false]);
        // Cut after the dir fsync: the rename is pinned too; the
        // unsynced write to b.tmp stays volatile.
        let req = required_ops(&ops, 5);
        assert_eq!(req, vec![true, false, true, false, false]);
    }

    #[test]
    fn torn_variant_never_tears_a_synced_write() {
        let p = PathBuf::from("a.tmp");
        let ops = vec![
            RecOp::Write {
                path: p.clone(),
                offset: 0,
                data: vec![9; 64],
            },
            RecOp::Fsync { path: p.clone() },
        ];
        let (applied, torn) = applied_set(
            &ops,
            ImageSpec {
                cut: 2,
                variant: Variant::Torn(7),
            },
        );
        assert_eq!(applied, vec![true, true]);
        assert_eq!(torn, None, "fsynced write must persist whole");
    }

    #[test]
    fn journal_round_trips_through_save_and_load() {
        let ops = vec![
            RecOp::Write {
                path: PathBuf::from("f.rbio.tmp"),
                offset: 128,
                data: vec![0, 255, 16, 32],
            },
            RecOp::Fsync {
                path: PathBuf::from("f.rbio.tmp"),
            },
            RecOp::Rename {
                from: PathBuf::from("f.rbio.tmp"),
                to: PathBuf::from("f.rbio"),
            },
            RecOp::DirFsync {
                dir: PathBuf::new(),
            },
            RecOp::DurablePoint { step: 3 },
        ];
        let dir = scratch("journal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.journal");
        save_ops(&ops, &path).unwrap();
        assert_eq!(load_ops(&path).unwrap(), ops);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn materialized_image_is_deterministic() {
        let scn = Scenario {
            strategy: Strategy::OnePfpp,
            nranks: 2,
            steps: 1,
        };
        let work = scratch("det");
        let ops = record_scenario(&scn, &work.join("rec"), false).unwrap();
        assert!(!ops.is_empty());
        let spec = ImageSpec {
            cut: ops.len(),
            variant: Variant::Subset(0xfeed),
        };
        let mut digests = Vec::new();
        for pass in 0..2 {
            let img = work.join(format!("img-{pass}"));
            let _ = std::fs::remove_dir_all(&img);
            std::fs::create_dir_all(&img).unwrap();
            materialize_image(&ops, spec, &img).unwrap();
            let mut listing = Vec::new();
            for e in std::fs::read_dir(&img).unwrap() {
                let e = e.unwrap();
                let bytes = std::fs::read(e.path()).unwrap();
                listing.push((e.file_name(), crate::format::crc32(&bytes)));
            }
            listing.sort();
            digests.push(listing);
            let _ = std::fs::remove_dir_all(&img);
        }
        assert_eq!(digests[0], digests[1]);
        let _ = std::fs::remove_dir_all(&work);
    }
}
