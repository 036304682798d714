//! Multi-tier checkpoint staging: a node-local fast tier with an
//! asynchronous drain engine.
//!
//! The paper's rbIO strategy hides PFS latency behind dedicated writer
//! ranks; this module goes one hop further and hides the *writers'* I/O
//! behind node-local storage, the way burst buffers do on machines a
//! generation after the Blue Gene/P. A checkpoint generation is:
//!
//! 1. **Staged** — writer ranks append extents into a pre-allocated,
//!    mmap'd slab file ([`SlabPool`]) at memory speed. The append hot
//!    path is zero-alloc: an atomic bump pointer plus one `memcpy`.
//!    Each file is an [`ExtentMap`] of its extents' slab windows.
//!    From the application's point of view the checkpoint is over as
//!    soon as staging finishes — this is the *perceived* bandwidth.
//! 2. **Drained** — a background [`TierEngine`] thread flushes each
//!    staged generation down the hierarchy (local → optional burst
//!    directory → PFS), each hop one [`crate::commit::commit_bytes`] per
//!    file that gathers its slab windows (no image of the file is built),
//!    then publishes the generation's commit marker.
//!    Only then is the generation *durable*.
//! 3. **Retained** — the most recent drained generations stay resident
//!    in the local tier so a restart can be served at memory speed
//!    (restore-from-nearest-tier); older stages are evicted.
//! 4. **Recycled** — an evicted stage's slab that nothing else still
//!    reads is rewound and kept as the engine's one idle slab, which the
//!    next generation stages into (`TierEngine::take_slab`): a warm
//!    generation neither creates, maps nor faults in a slab.
//!
//! Tier loss is a first-class fault: [`TierEngine::lose_local`] drops
//! the local tier. Files that already reached the burst tier are read
//! back verified from there ([`crate::commit::read_committed`]) and the
//! generation degrades instead of aborting — mirroring how writer failover
//! degrades a generation in [`crate::failover`]. Files that never left the
//! local tier make the generation fail; earlier durable generations remain
//! restorable.
//!
//! Everything here is instrumented with [`crate::sched`] points and
//! events so the `rbio-check` harness can race drains against restores
//! and tier losses deterministically.

#![allow(unsafe_code)]

use std::borrow::Cow;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use rbio_plan::Rank;
use rbio_profile::counters;

use crate::commit;
use crate::extent::{ExtentMap, Source};
use crate::fault::FaultPlan;
use crate::sched::{self, Point, TierId, Wait};
use crate::sys::{self, Mmap};

/// The rank the drain engine commits as. Out of the plan's
/// rank space so rank-targeted fault plans never hit the drain by
/// accident (`Rank::MAX` itself is the manager's commit identity).
pub const DRAIN_RANK: Rank = Rank::MAX - 1;

/// Tier staging errors.
#[derive(Debug)]
pub enum TierError {
    /// The pre-allocated slab ran out of room mid-append.
    StageFull {
        /// Slab capacity in bytes.
        capacity: usize,
        /// Size of the append that did not fit.
        requested: usize,
    },
    /// The generation can never become durable (e.g. the local tier was
    /// lost before its extents reached the burst or PFS tier).
    Failed {
        /// The failed generation step.
        step: u64,
        /// What went wrong.
        reason: String,
    },
    /// The drain engine shut down before the generation drained.
    Shutdown,
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::StageFull {
                capacity,
                requested,
            } => write!(
                f,
                "local tier slab full: {requested} byte append exceeds {capacity} byte capacity"
            ),
            TierError::Failed { step, reason } => {
                write!(f, "generation {step} cannot become durable: {reason}")
            }
            TierError::Shutdown => write!(f, "tier drain engine shut down"),
        }
    }
}

impl std::error::Error for TierError {}

/// Configuration for the local staging tier.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Directory holding the node-local slab files.
    pub local_dir: PathBuf,
    /// Pre-allocated slab size per generation. Staging a generation
    /// larger than this fails with [`TierError::StageFull`].
    pub slab_capacity: usize,
    /// Optional intermediate burst-buffer directory. With one set, a
    /// drained file is committed there before the PFS hop, and tier
    /// loss mid-drain can recover from it.
    pub burst_dir: Option<PathBuf>,
    /// Drained generations kept resident in the local tier for
    /// restore-from-nearest-tier. Older slabs are evicted.
    pub retain: usize,
    /// fsync burst and PFS files as they are committed.
    pub fsync: bool,
}

impl TierConfig {
    /// Stage into `local_dir` with a 16 MiB slab, no burst tier, one
    /// retained generation, fsync on.
    pub fn new(local_dir: impl Into<PathBuf>) -> TierConfig {
        TierConfig {
            local_dir: local_dir.into(),
            slab_capacity: 16 << 20,
            burst_dir: None,
            retain: 1,
            fsync: true,
        }
    }

    /// Set the per-generation slab capacity.
    pub fn slab_capacity(mut self, bytes: usize) -> TierConfig {
        self.slab_capacity = bytes;
        self
    }

    /// Route drains through an intermediate burst-buffer directory.
    pub fn burst_dir(mut self, dir: impl Into<PathBuf>) -> TierConfig {
        self.burst_dir = Some(dir.into());
        self
    }

    /// Set how many drained generations stay resident locally.
    pub fn retain(mut self, n: usize) -> TierConfig {
        self.retain = n;
        self
    }

    /// Toggle fsync on drained files.
    pub fn fsync(mut self, on: bool) -> TierConfig {
        self.fsync = on;
        self
    }
}

/// A staged extent's location inside a [`SlabPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabRef {
    /// Byte offset inside the slab.
    pub off: usize,
    /// Extent length.
    pub len: usize,
}

impl Source for SlabRef {
    fn sub(&self, k: u64, n: u64) -> SlabRef {
        SlabRef {
            off: self.off + k as usize,
            len: n as usize,
        }
    }
}

/// A pre-allocated append-only slab, mmap'd from a node-local file when
/// the platform allows ([`crate::sys::Mmap`]), else heap-backed.
///
/// The hot path is [`SlabPool::append`]: one `fetch_add` to reserve a
/// disjoint window, one `memcpy` into it. No allocation, no lock.
pub struct SlabPool {
    /// The shared read-write mapping of the slab file; `None` for an
    /// anonymous slab or where mapping failed, and the slab is `heap`.
    map: Option<Mmap>,
    /// The heap slab (empty when mapped). Interior-mutable cells, so
    /// `append` may write through `&self` exactly as it does through the
    /// mapping's raw pointer.
    heap: Box<[UnsafeCell<u8>]>,
    capacity: usize,
    head: AtomicUsize,
    path: Option<PathBuf>,
    _file: Option<File>,
}

// SAFETY: `append` hands out disjoint `[off, off+len)` windows via the
// atomic bump pointer, so concurrent appends never alias. Readers only
// reach a window through a `SlabRef` published after the filling memcpy
// (in practice via the `TierStage` mutex), which orders the bytes.
unsafe impl Sync for SlabPool {}

impl SlabPool {
    /// Create (and pre-allocate) a slab file of `capacity` bytes at
    /// `path`, mapping it shared read-write. Falls back to a heap slab
    /// (keeping the file open) if mmap fails. The file's name is the
    /// caller's to remove: the mapping outlives an unlink.
    pub fn create(path: &Path, capacity: usize) -> io::Result<SlabPool> {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        f.set_len(capacity as u64)?;
        let prot = sys::PROT_READ | sys::PROT_WRITE;
        let map = Mmap::new(f.as_raw_fd(), capacity, 0, prot, sys::MAP_SHARED);
        Ok(Self::with(map, capacity, Some(path.to_path_buf()), Some(f)))
    }

    /// A purely in-memory slab (tests, platforms without a local disk).
    pub fn anonymous(capacity: usize) -> SlabPool {
        Self::with(None, capacity, None, None)
    }

    fn with(
        map: Option<Mmap>,
        capacity: usize,
        path: Option<PathBuf>,
        file: Option<File>,
    ) -> SlabPool {
        let heap_len = if map.is_some() { 0 } else { capacity };
        SlabPool {
            map,
            heap: std::iter::repeat_with(|| UnsafeCell::new(0))
                .take(heap_len)
                .collect(),
            capacity,
            head: AtomicUsize::new(0),
            path,
            _file: file,
        }
    }

    /// Base of the `capacity`-byte slab, writable through `&self`.
    fn base(&self) -> *mut u8 {
        match &self.map {
            Some(m) => m.as_ptr(),
            None => UnsafeCell::raw_get(self.heap.as_ptr()),
        }
    }

    /// Reserve one window for `bufs` and copy them into it back to back.
    /// `None` when the slab is full — the caller surfaces
    /// [`TierError::StageFull`].
    pub fn append(&self, bufs: &[impl AsRef<[u8]>]) -> Option<SlabRef> {
        let len = bufs.iter().map(|b| b.as_ref().len()).sum();
        let off = self.head.fetch_add(len, Ordering::Relaxed);
        let end = off.checked_add(len)?;
        if end > self.capacity {
            return None;
        }
        let mut at = off;
        for data in bufs.iter().map(AsRef::as_ref) {
            // SAFETY: `[off, end)` is in-bounds (checked above) and
            // exclusively ours (bump pointer), `[at, at + data.len())`
            // lies inside it, and `data` cannot overlap a slab we own.
            unsafe {
                std::ptr::copy_nonoverlapping(data.as_ptr(), self.base().add(at), data.len());
            }
            at += data.len();
        }
        Some(SlabRef { off, len })
    }

    /// Rewind the bump pointer: the whole slab is free again. Stale
    /// bytes stay until overwritten; no [`SlabRef`] into them survives.
    fn rearm(&mut self) {
        *self.head.get_mut() = 0;
    }

    /// Read back a staged extent.
    pub fn slice(&self, r: SlabRef) -> &[u8] {
        assert!(
            r.off
                .checked_add(r.len)
                .is_some_and(|end| end <= self.capacity),
            "slab ref out of bounds"
        );
        // SAFETY: bounds asserted; the window was fully written before
        // its SlabRef was published.
        unsafe { std::slice::from_raw_parts(self.base().add(r.off), r.len) }
    }

    /// Total pre-allocated capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backing slab file, when one exists.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

impl std::fmt::Debug for SlabPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabPool")
            .field("capacity", &self.capacity)
            .field("head", &self.head)
            .field("mapped", &self.map.is_some())
            .field("path", &self.path)
            .finish()
    }
}

/// A staged file: where its extents sit in the slab, the latest append
/// winning where two overlap, and its size once sealed.
#[derive(Default)]
struct StagedFile {
    map: ExtentMap<SlabRef>,
    sealed_size: Option<u64>,
}

/// [`TierStage::sealed_files`] by name: each one's extents and size.
pub(crate) type SealedFiles = BTreeMap<String, (ExtentMap<SlabRef>, u64)>;

/// One generation's worth of staged checkpoint files in the local tier.
///
/// Executors append extents as the plan's `WriteAt` ops run and seal
/// each file at its `Commit` op; the drain engine writes each sealed
/// file's extents down the hierarchy as one gather, and a restore copies
/// them straight into the restored blocks.
pub struct TierStage {
    step: u64,
    pool: Arc<SlabPool>,
    files: Mutex<BTreeMap<String, StagedFile>>,
}

impl TierStage {
    /// Stage generation `step` into `pool`.
    pub fn new(step: u64, pool: Arc<SlabPool>) -> TierStage {
        TierStage {
            step,
            pool,
            files: Mutex::new(BTreeMap::new()),
        }
    }

    /// The generation this stage holds.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Append one extent of `name` at logical file `offset`.
    pub fn append(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), TierError> {
        self.append_slices(name, offset, &[data])
    }

    /// Append `bufs`, back to back, as one extent of `name` at logical
    /// file `offset`: one slab reservation, one copy of each byte.
    pub fn append_slices(
        &self,
        name: &str,
        offset: u64,
        bufs: &[impl AsRef<[u8]>],
    ) -> Result<(), TierError> {
        let r = self.pool.append(bufs).ok_or_else(|| TierError::StageFull {
            capacity: self.pool.capacity(),
            requested: bufs.iter().map(|b| b.as_ref().len()).sum(),
        })?;
        counters::add_tier_staged_bytes(r.len as u64);
        counters::add_bytes_copied(r.len as u64);
        let mut g = self.files.lock().expect("tier stage lock");
        g.entry(name.to_string())
            .or_default()
            .map
            .put(offset, r.len as u64, r);
        drop(g);
        sched::emit(|| sched::Event::TierExtentStaged {
            step: self.step,
            path_hash: sched::fingerprint([name.as_bytes()]),
        });
        Ok(())
    }

    /// Seal `name` at its logical (pre-footer) `size`: no more extents
    /// will arrive; the file is ready to drain.
    pub fn seal_file(&self, name: &str, size: u64) {
        let mut g = self.files.lock().expect("tier stage lock");
        g.entry(name.to_string()).or_default().sealed_size = Some(size);
    }

    /// This generation's sealed files, by name (the deterministic drain
    /// order). Taken under the stage lock and read without it: a published
    /// window never changes. A file with an extent past its sealed size
    /// has no image to drain or restore; it is the error, `(name, what)`.
    pub(crate) fn sealed_files(&self) -> Result<SealedFiles, (String, String)> {
        let g = self.files.lock().expect("tier stage lock");
        let sealed = g
            .iter()
            .filter_map(|(n, f)| Some((n.clone(), &f.map, f.sealed_size?)));
        sealed
            .map(|(name, map, size)| match map.end() {
                end if end > size => Err((name, format!("extent ends at {end}, sealed at {size}"))),
                _ => Ok((name, (map.clone(), size))),
            })
            .collect()
    }

    /// The bytes `k` of staged extent `r`.
    pub(crate) fn bytes(&self, r: &SlabRef, k: Range<u64>) -> &[u8] {
        self.pool.slice(r.sub(k.start, k.end - k.start))
    }
}

impl std::fmt::Debug for TierStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let files = self.files.lock().expect("tier stage lock").len();
        write!(f, "TierStage {{ step: {}, files: {files} }}", self.step)
    }
}

/// What a completed drain produced, handed to the publish callback.
#[derive(Debug)]
pub struct DrainOutcome {
    /// The drained generation.
    pub step: u64,
    /// Files whose PFS copy was sourced from the burst tier because the
    /// local tier was lost mid-drain. Non-empty ⇒ degraded generation.
    pub recovered_from_burst: Vec<String>,
    /// Logical bytes flushed to the PFS tier.
    pub drained_bytes: u64,
}

/// Publishes a drained generation's commit marker.
pub type PublishFn = Box<dyn FnOnce(&DrainOutcome) -> io::Result<()> + Send>;

/// One generation's drain work order.
pub struct DrainJob {
    /// The generation step.
    pub step: u64,
    /// Its staged extents.
    pub stage: Arc<TierStage>,
    /// Final PFS directory the files are published into.
    pub pfs_dir: PathBuf,
    /// Optional intermediate burst directory.
    pub burst_dir: Option<PathBuf>,
    /// fsync burst/PFS files as they are committed.
    pub fsync: bool,
    /// Publishes the generation's commit marker once every
    /// file is on the PFS; the generation is durable only after this
    /// returns `Ok`.
    pub publish: PublishFn,
}

impl std::fmt::Debug for DrainJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrainJob")
            .field("step", &self.step)
            .field("pfs_dir", &self.pfs_dir)
            .field("burst_dir", &self.burst_dir)
            .finish()
    }
}

#[derive(Debug, Default)]
struct EngineState {
    /// Generations waiting for the drain thread, FIFO.
    queue: VecDeque<DrainJob>,
    /// Set by the engine's drop: drain what is queued, then stop.
    shutdown: bool,
    durable: BTreeSet<u64>,
    failed: BTreeMap<u64, String>,
    retained: VecDeque<Arc<TierStage>>,
    /// The last evicted stage's slab, rewound, for the next generation.
    idle: Option<SlabPool>,
    stopped: bool,
}

#[derive(Debug)]
struct EngineShared {
    state: Mutex<EngineState>,
    cv: Condvar,
    lost_local: AtomicBool,
    lose_between_hops: AtomicBool,
}

/// The background drain engine: one thread, FIFO over generations,
/// committing each file itself, hop by hop.
#[derive(Debug)]
pub struct TierEngine {
    shared: Arc<EngineShared>,
    join: Mutex<Option<JoinHandle<()>>>,
    alive: Arc<AtomicBool>,
}

impl TierEngine {
    /// Spawn the drain thread, keeping `retain` drained generations
    /// resident in the local tier.
    pub fn new(retain: usize) -> Arc<TierEngine> {
        let shared = Arc::new(EngineShared {
            state: Mutex::new(EngineState::default()),
            cv: Condvar::new(),
            lost_local: AtomicBool::new(false),
            lose_between_hops: AtomicBool::new(false),
        });
        let alive = Arc::new(AtomicBool::new(true));
        let (s2, a2) = (Arc::clone(&shared), Arc::clone(&alive));
        sched::spawning();
        let join = std::thread::Builder::new()
            .name("rbio-tier-drain".into())
            .spawn(move || {
                sched::register("tier-drain");
                drain_loop(&s2, retain);
                a2.store(false, Ordering::Release);
                sched::unregister();
            })
            .expect("spawn tier drain engine");
        Arc::new(TierEngine {
            shared,
            join: Mutex::new(Some(join)),
            alive,
        })
    }

    /// Queue a generation for draining (FIFO).
    pub fn submit(&self, job: DrainJob) {
        let mut g = self.shared.state.lock().expect("tier engine lock");
        g.queue.push_back(job);
        self.shared.cv.notify_all();
    }

    /// Block until generation `step` is durable on the PFS tier.
    pub fn wait_durable(&self, step: u64) -> Result<(), TierError> {
        let sh = &*self.shared;
        let mut g = sh.state.lock().expect("tier engine lock");
        let mut wait = Wait::new(Point::TierDurableWait, None);
        loop {
            if g.durable.contains(&step) {
                return Ok(());
            }
            if let Some(reason) = g.failed.get(&step) {
                return Err(TierError::Failed {
                    step,
                    reason: reason.clone(),
                });
            }
            if g.stopped {
                return Err(TierError::Shutdown);
            }
            g = wait.park(&sh.state, &sh.cv, g).unwrap_or_else(|(g, _)| g);
        }
    }

    /// Simulate losing the node-local tier: retained and idle slabs are
    /// gone and in-flight drains must source from the burst tier or fail.
    pub fn lose_local(&self) {
        apply_local_loss(&self.shared);
    }

    /// Arm a deterministic mid-drain loss: the drain thread applies
    /// [`TierEngine::lose_local`] exactly between the burst hop and the
    /// PFS hop of the generation it processes next.
    pub fn lose_local_between_hops(&self) {
        self.shared.lose_between_hops.store(true, Ordering::Release);
    }

    /// The engine's idle slab, rewound, when its capacity is `capacity`:
    /// the slab of the last evicted stage that nothing else still held.
    pub(crate) fn take_slab(&self, capacity: usize) -> Option<SlabPool> {
        let mut g = self.shared.state.lock().expect("tier engine lock");
        g.idle.take().filter(|p| p.capacity() == capacity)
    }

    /// The newest drained generation still resident in the local tier.
    pub fn newest_retained(&self) -> Option<Arc<TierStage>> {
        let g = self.shared.state.lock().expect("tier engine lock");
        g.retained.back().cloned()
    }
}

impl Drop for TierEngine {
    fn drop(&mut self) {
        self.shared.state.lock().expect("tier engine lock").shutdown = true;
        self.shared.cv.notify_all();
        // Under a controlled scheduler a blocking join would wedge the
        // schedule; spin through the JoinWait point until the drain
        // thread has unhooked itself (same pattern as the executors).
        if sched::registered() {
            while self.alive.load(Ordering::Acquire) {
                sched::yield_now(Point::JoinWait);
            }
        }
        if let Some(j) = self.join.lock().expect("tier engine join lock").take() {
            j.join().ok();
        }
    }
}

fn apply_local_loss(shared: &EngineShared) {
    let was_lost = shared.lost_local.swap(true, Ordering::AcqRel);
    let mut g = shared.state.lock().expect("tier engine lock");
    g.retained.clear();
    g.idle = None;
    drop(g);
    if !was_lost {
        counters::add_tier_losses(1);
        sched::emit(|| sched::Event::TierLost {
            tier: TierId::Local,
        });
    }
    shared.cv.notify_all();
}

fn drain_loop(sh: &EngineShared, retain: usize) {
    let mut idle = Wait::new(Point::TierDrainIdle, None);
    let mut g = sh.state.lock().expect("tier engine lock");
    loop {
        if let Some(job) = g.queue.pop_front() {
            drop(g);
            run_drain(sh, job, retain);
            g = sh.state.lock().expect("tier engine lock");
        } else if g.shutdown {
            g.stopped = true;
            sh.cv.notify_all();
            return;
        } else {
            g = idle.park(&sh.state, &sh.cv, g).unwrap_or_else(|(g, _)| g);
        }
    }
}

fn run_drain(shared: &EngineShared, job: DrainJob, retain: usize) {
    let DrainJob {
        step,
        stage,
        pfs_dir,
        burst_dir,
        fsync,
        publish,
    } = job;
    // Both hops' one call, under a plan that injects nothing: tier loss,
    // not a torn write, is a hop's failure mode.
    let commit_hop = |hop: &str, path: &Path, name: &str, bufs: &[Cow<'_, [u8]>]| {
        commit::commit_bytes(path, bufs, fsync, &FaultPlan::none(), DRAIN_RANK)
            .map_err(|e| format!("{hop} hop for {name}: {}", io::Error::from(e)))
    };

    let outcome = (|| -> Result<DrainOutcome, String> {
        let files = stage
            .sealed_files()
            .map_err(|(n, what)| format!("{n}: {what}"))?;
        // Hop 1: local → burst. Every file lands as a committed copy so
        // the PFS hop can verify it before trusting it.
        if let Some(bdir) = burst_dir.as_deref() {
            std::fs::create_dir_all(bdir)
                .map_err(|e| format!("burst dir {}: {e}", bdir.display()))?;
            for (name, (map, size)) in &files {
                let dst = bdir.join(name);
                if shared.lost_local.load(Ordering::Acquire) {
                    if dst.exists() {
                        continue; // an earlier pass already landed it
                    }
                    return Err(format!(
                        "local tier lost before {name} reached the burst tier"
                    ));
                }
                let bufs: Vec<_> = map.slices(0, *size, |r, k| stage.bytes(r, k)).collect();
                commit_hop("burst", &dst, name, &bufs)?;
                sched::emit(|| sched::Event::TierExtentDrained {
                    step,
                    tier: TierId::Burst,
                    path_hash: sched::fingerprint([name.as_bytes()]),
                });
            }
        }

        if shared.lose_between_hops.swap(false, Ordering::AcqRel) {
            apply_local_loss(shared);
        }

        // Hop 2: → PFS, the burst hop's own call; after a local loss the
        // image is the burst copy, read back verified.
        let mut recovered = Vec::new();
        let mut drained = 0u64;
        for (name, (map, size)) in &files {
            let bufs = if shared.lost_local.load(Ordering::Acquire) {
                let bdir = burst_dir
                    .as_deref()
                    .ok_or_else(|| format!("local tier lost and no burst copy of {name}"))?;
                recovered.push(name.clone());
                let img = commit::read_committed(&bdir.join(name), *size)
                    .map_err(|e| format!("burst copy of {name}: {e}"))?;
                vec![Cow::Owned(img)]
            } else {
                map.slices(0, *size, |r, k| stage.bytes(r, k)).collect()
            };
            drained += size;
            commit_hop("PFS", &pfs_dir.join(name), name, &bufs)?;
        }
        counters::add_tier_drained_bytes(drained);
        for name in files.keys() {
            sched::emit(|| sched::Event::TierExtentDrained {
                step,
                tier: TierId::Pfs,
                path_hash: sched::fingerprint([name.as_bytes()]),
            });
        }
        Ok(DrainOutcome {
            step,
            recovered_from_burst: recovered,
            drained_bytes: drained,
        })
    })();

    let published = outcome.and_then(|out| {
        publish(&out)
            .map(|()| out)
            .map_err(|e| format!("publish for step {step}: {e}"))
    });

    match published {
        Ok(_out) => {
            sched::emit(|| sched::Event::TierDurable { step });
            let mut g = shared.state.lock().expect("tier engine lock");
            g.durable.insert(step);
            if !shared.lost_local.load(Ordering::Acquire) {
                g.retained.push_back(stage);
                while g.retained.len() > retain {
                    // Popped under the engine lock, so no restore can
                    // take the stage from here on: one that still holds
                    // it keeps the slab, which then goes with it.
                    let old = g.retained.pop_front().and_then(Arc::into_inner);
                    if let Some(mut pool) = old.and_then(|o| Arc::into_inner(o.pool)) {
                        pool.rearm();
                        g.idle = Some(pool);
                    }
                }
            }
            drop(g);
            shared.cv.notify_all();
        }
        Err(reason) => {
            let mut g = shared.state.lock().expect("tier engine lock");
            g.failed.insert(step, reason);
            drop(g);
            shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_appends_are_disjoint_and_readable() {
        let pool = SlabPool::anonymous(1 << 16);
        let a = pool.append(&[b"hello"]).unwrap();
        let b = pool.append(&[&b"wor"[..], b"ld!"]).unwrap();
        assert_eq!(pool.slice(a), b"hello");
        assert_eq!(pool.slice(b), b"world!");
        assert_eq!(pool.head.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn slab_full_append_fails_cleanly() {
        let pool = SlabPool::anonymous(8);
        assert!(pool.append(&[[1; 8]]).is_some());
        assert!(pool.append(&[[2; 1]]).is_none());
        // The failed reservation must not have corrupted earlier data.
        assert_eq!(pool.slice(SlabRef { off: 0, len: 8 }), &[1; 8]);
    }

    #[test]
    fn file_backed_slab_roundtrips() {
        let dir = std::env::temp_dir().join("rbio-tier-slab-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("step.slab");
        let pool = SlabPool::create(&path, 4096).unwrap();
        let r = pool.append(&[b"persisted"]).unwrap();
        assert_eq!(pool.slice(r), b"persisted");
        assert_eq!(pool.path(), Some(path.as_path()));
        drop(pool);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drains_zero_holes_let_the_latest_append_win_and_fail_an_overrun() {
        let dir = std::env::temp_dir().join(format!("rbio-tier-drain-map-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let engine = TierEngine::new(1);
        let drain = |step, stage| {
            engine.submit(DrainJob {
                step,
                stage,
                pfs_dir: dir.clone(),
                burst_dir: Some(dir.join("burst")),
                fsync: false,
                publish: Box::new(|_| Ok(())),
            });
            engine.wait_durable(step)
        };
        // Two holes, and an append over one earlier extent's tail.
        let stage = Arc::new(TierStage::new(1, Arc::new(SlabPool::anonymous(1 << 12))));
        let mut flat = [0u8; 28];
        for (at, fill, len) in [(0, 1, 6), (14, 2, 10), (4, 3, 6)] {
            stage.append("f", at as u64, &vec![fill; len]).unwrap();
            flat[at..at + len].fill(fill);
        }
        stage.seal_file("f", 28);
        drain(1, stage).unwrap();
        for d in [dir.clone(), dir.join("burst")] {
            let bytes = std::fs::read(d.join("f")).unwrap();
            assert!(commit::verify_committed(&bytes, 28).is_none());
            assert_eq!(&bytes[..28], &flat[..]);
        }
        // An extent past the sealed size fails the generation.
        let stage = Arc::new(TierStage::new(2, Arc::new(SlabPool::anonymous(1 << 12))));
        stage.append("g", 0, &[7; 8]).unwrap();
        stage.append("g", 12, &[7; 8]).unwrap();
        stage.seal_file("g", 16);
        match drain(2, stage) {
            Err(TierError::Failed { step: 2, reason }) => {
                assert!(
                    reason.contains("g: extent ends at 20, sealed at 16"),
                    "{reason}"
                )
            }
            other => panic!("expected a failed generation, got {other:?}"),
        }
        assert!(!dir.join("g").exists() && !dir.join("burst").join("g").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn burst_hop_image_is_journaled_by_the_crash_recorder() {
        use crate::crash::{RecOp, Recorder};
        let dir = std::env::temp_dir().join(format!("rbio-tier-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("pfs")).unwrap();
        let img: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        let stage = Arc::new(TierStage::new(1, Arc::new(SlabPool::anonymous(1 << 16))));
        stage.append("ck.rbio", 0, &img).unwrap();
        stage.seal_file("ck.rbio", 3000);
        let rec = Recorder::install(&dir).unwrap();
        let engine = TierEngine::new(1);
        engine.submit(DrainJob {
            step: 1,
            stage,
            pfs_dir: dir.join("pfs"),
            burst_dir: Some(dir.join("burst")),
            fsync: true,
            publish: Box::new(|_| Ok(())),
        });
        engine.wait_durable(1).unwrap();
        let ops = rec.take();
        drop(rec);
        assert_eq!(ops.len(), 10, "{ops:?}");
        // Each hop, in order: the image's own bytes, then the commit
        // protocol's four edges.
        for (hop, ops) in ["burst", "pfs"].into_iter().zip(ops.chunks(5)) {
            let tmp = Path::new(hop).join("ck.rbio.tmp");
            assert!(
                matches!(&ops[0], RecOp::Write { path, offset: 0, data } if *path == tmp && *data == img),
                "{hop}: the image must be journaled first: {:?}",
                ops.first()
            );
            assert!(matches!(&ops[1], RecOp::Write { path, offset: 3000, .. } if *path == tmp));
            assert!(
                matches!(&ops[2], RecOp::Fsync { path } if *path == tmp),
                "{hop}"
            );
            assert!(
                matches!(&ops[3], RecOp::Rename { from, .. } if *from == tmp),
                "{hop}"
            );
            assert!(matches!(&ops[4], RecOp::DirFsync { dir } if dir == Path::new(hop)));
            let bytes = std::fs::read(dir.join(hop).join("ck.rbio")).unwrap();
            assert!(commit::verify_committed(&bytes, 3000).is_none());
            assert_eq!(&bytes[..3000], &img[..]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_drains_stage_to_pfs_byte_identically() {
        let dir = std::env::temp_dir().join("rbio-tier-engine-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let stage = Arc::new(TierStage::new(1, Arc::new(SlabPool::anonymous(1 << 16))));
        let body: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        stage.append("ck.rbio", 0, &body).unwrap();
        stage.seal_file("ck.rbio", body.len() as u64);

        let engine = TierEngine::new(1);
        let published = Arc::new(AtomicBool::new(false));
        let p2 = Arc::clone(&published);
        engine.submit(DrainJob {
            step: 1,
            stage: Arc::clone(&stage),
            pfs_dir: dir.clone(),
            burst_dir: None,
            fsync: false,
            publish: Box::new(move |out| {
                assert_eq!(out.drained_bytes, 1000);
                assert!(out.recovered_from_burst.is_empty());
                p2.store(true, Ordering::Release);
                Ok(())
            }),
        });
        engine.wait_durable(1).unwrap();
        assert!(published.load(Ordering::Acquire));
        let bytes = std::fs::read(dir.join("ck.rbio")).unwrap();
        assert!(commit::verify_committed(&bytes, 1000).is_none());
        assert_eq!(&bytes[..1000], &body[..]);
        let durable = engine.shared.state.lock().unwrap().durable.clone();
        assert_eq!(durable.into_iter().collect::<Vec<_>>(), [1]);
        assert!(engine.newest_retained().is_some_and(|s| s.step() == 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tier_loss_mid_drain_recovers_from_burst() {
        let dir = std::env::temp_dir().join("rbio-tier-loss-test");
        std::fs::remove_dir_all(&dir).ok();
        let pfs = dir.join("pfs");
        let burst = dir.join("burst");
        std::fs::create_dir_all(&pfs).unwrap();
        let stage = Arc::new(TierStage::new(2, Arc::new(SlabPool::anonymous(1 << 16))));
        stage.append("ck.rbio", 0, &[0xAB; 512]).unwrap();
        stage.seal_file("ck.rbio", 512);

        let engine = TierEngine::new(1);
        engine.lose_local_between_hops();
        engine.submit(DrainJob {
            step: 2,
            stage,
            pfs_dir: pfs.clone(),
            burst_dir: Some(burst.clone()),
            fsync: false,
            publish: Box::new(|out| {
                assert_eq!(out.recovered_from_burst, vec!["ck.rbio".to_string()]);
                Ok(())
            }),
        });
        engine.wait_durable(2).unwrap();
        assert!(engine.shared.lost_local.load(Ordering::Acquire));
        // Nothing retained after a loss, but the PFS copy is whole.
        assert!(engine.newest_retained().is_none());
        let bytes = std::fs::read(pfs.join("ck.rbio")).unwrap();
        assert!(commit::verify_committed(&bytes, 512).is_none());
        assert_eq!(&bytes[..512], &[0xAB; 512][..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tier_loss_without_burst_fails_the_generation() {
        let dir = std::env::temp_dir().join("rbio-tier-loss-noburst-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let stage = Arc::new(TierStage::new(3, Arc::new(SlabPool::anonymous(1 << 12))));
        stage.append("ck.rbio", 0, &[1; 64]).unwrap();
        stage.seal_file("ck.rbio", 64);

        let engine = TierEngine::new(1);
        engine.lose_local_between_hops();
        engine.submit(DrainJob {
            step: 3,
            stage,
            pfs_dir: dir.clone(),
            burst_dir: None,
            fsync: false,
            publish: Box::new(|_| panic!("must not publish a lost generation")),
        });
        match engine.wait_durable(3) {
            Err(TierError::Failed { step: 3, .. }) => {}
            other => panic!("expected failed generation, got {other:?}"),
        }
        assert!(!dir.join("ck.rbio").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Drain `stage` as generation `step` into `dir`, no burst tier, and
    /// wait until it is durable.
    fn drain_to(engine: &TierEngine, dir: &Path, stage: Arc<TierStage>) {
        std::fs::create_dir_all(dir).unwrap();
        let step = stage.step();
        engine.submit(DrainJob {
            step,
            stage,
            pfs_dir: dir.to_path_buf(),
            burst_dir: None,
            fsync: false,
            publish: Box::new(|_| Ok(())),
        });
        engine.wait_durable(step).unwrap();
    }

    /// The bytes of staged file `name`, read as a restore reads them.
    fn staged_image(stage: &TierStage, name: &str) -> Vec<u8> {
        let files = stage.sealed_files().unwrap();
        let (map, size) = &files[name];
        let mut img = vec![0x55; *size as usize];
        map.read(0, &mut img, |r, k| stage.bytes(r, k));
        img
    }

    #[test]
    fn eviction_honors_retain() {
        let dir = std::env::temp_dir().join("rbio-tier-evict-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let engine = TierEngine::new(1);
        for step in 1..=3u64 {
            // As the manager stages: the recycled slab, else a fresh one
            // whose file is unlinked once it is mapped.
            let pool = engine.take_slab(4096).unwrap_or_else(|| {
                let slab_path = dir.join(format!("step{step}.slab"));
                let pool = SlabPool::create(&slab_path, 4096).unwrap();
                commit::remove(&slab_path).unwrap();
                pool
            });
            let stage = Arc::new(TierStage::new(step, Arc::new(pool)));
            stage.append("ck.rbio", 0, &[step as u8; 32]).unwrap();
            stage.seal_file("ck.rbio", 32);
            drain_to(&engine, &dir, stage);
        }
        let newest = engine.newest_retained().expect("a retained stage");
        assert_eq!(newest.step(), 3);
        assert_eq!(engine.shared.state.lock().unwrap().retained.len(), 1);
        // Step 3 staged into step 1's slab, step 2's is idle, and no slab
        // rests on disk.
        let step1 = dir.join("step1.slab");
        assert_eq!(newest.pool.path(), Some(step1.as_path()));
        let idle = engine.take_slab(4096).expect("step 2's slab, recycled");
        assert_eq!(idle.path(), Some(dir.join("step2.slab").as_path()));
        let slabs = commit::list(&dir).unwrap();
        assert!(!slabs.iter().any(|n| n.ends_with(".slab")), "{slabs:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_recycled_slab_reads_zeros_in_a_hole_not_its_last_bytes() {
        let dir = std::env::temp_dir().join(format!("rbio-tier-rearm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        const CAP: usize = 4096;
        let engine = TierEngine::new(1);
        // Generation 1 fills its whole slab with 0xAA; generation 2's
        // drain evicts it, and its slab becomes the engine's idle one.
        let stage = Arc::new(TierStage::new(1, Arc::new(SlabPool::anonymous(CAP))));
        stage.append("f", 0, &[0xAA; CAP]).unwrap();
        stage.seal_file("f", CAP as u64);
        drain_to(&engine, &dir.join("1"), stage);
        assert!(engine.take_slab(CAP).is_none(), "step 1 is still retained");
        let stage = Arc::new(TierStage::new(2, Arc::new(SlabPool::anonymous(CAP))));
        stage.append("f", 0, &[2; 64]).unwrap();
        stage.seal_file("f", 64);
        drain_to(&engine, &dir.join("2"), stage);
        // Generation 3 stages a file with two holes into that slab.
        let pool = engine.take_slab(CAP).expect("step 1's slab, re-armed");
        assert!(pool.slice(SlabRef { off: 0, len: CAP }) == [0xAA; CAP]);
        let stage = Arc::new(TierStage::new(3, Arc::new(pool)));
        stage.append("f", 100, &[3; 100]).unwrap();
        stage.append("f", 300, &[4; 50]).unwrap();
        stage.seal_file("f", 400);
        drain_to(&engine, &dir.join("3"), stage);
        let mut want = vec![0u8; 400];
        want[100..200].fill(3);
        want[300..350].fill(4);
        let bytes = std::fs::read(dir.join("3").join("f")).unwrap();
        assert!(commit::verify_committed(&bytes, 400).is_none());
        assert_eq!(&bytes[..400], &want[..], "drained");
        let retained = engine.newest_retained().expect("step 3 retained");
        assert_eq!(retained.step(), 3);
        assert_eq!(staged_image(&retained, "f"), want, "restored from the slab");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stage_a_restore_holds_is_never_rearmed() {
        let dir = std::env::temp_dir().join(format!("rbio-tier-held-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        const CAP: usize = 4096;
        let engine = TierEngine::new(1);
        let body: Vec<u8> = (0..CAP as u32).map(|i| (i * 13) as u8).collect();
        let stage = Arc::new(TierStage::new(1, Arc::new(SlabPool::anonymous(CAP))));
        stage.append("f", 0, &body).unwrap();
        stage.seal_file("f", CAP as u64);
        drain_to(&engine, &dir.join("1"), stage);
        let held = engine.newest_retained().expect("step 1 retained");
        // Two later generations: step 1 is evicted while held, so its
        // slab is not recycled; step 2's, held by nobody, is.
        for step in 2..=3u64 {
            let pool = engine.take_slab(CAP);
            assert!(pool.is_none(), "step {step} was offered a held slab");
            let stage = Arc::new(TierStage::new(step, Arc::new(SlabPool::anonymous(CAP))));
            stage.append("f", 0, &[step as u8; CAP]).unwrap();
            stage.seal_file("f", CAP as u64);
            drain_to(&engine, &dir.join(step.to_string()), stage);
        }
        assert_eq!(held.step(), 1);
        assert_eq!(staged_image(&held, "f"), body);
        let idle = engine.take_slab(CAP).expect("step 2's slab, recycled");
        assert!(idle.slice(SlabRef { off: 0, len: CAP }) == [2; CAP]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
