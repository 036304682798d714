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
//!    From the application's point of view the checkpoint is over as
//!    soon as staging finishes — this is the *perceived* bandwidth.
//! 2. **Drained** — a background [`TierEngine`] thread flushes each
//!    staged generation down the hierarchy (local → optional burst
//!    directory → PFS) through the shared flush pool in
//!    [`crate::pipeline`], then publishes the generation's manifest and
//!    commit marker. Only then is the generation *durable*.
//! 3. **Retained** — the most recent drained generations stay resident
//!    in the local tier so a restart can be served at memory speed
//!    (restore-from-nearest-tier); older slabs are evicted.
//!
//! Tier loss is a first-class fault: [`TierEngine::lose_local`] drops
//! the local tier. Files that already reached the burst tier are
//! re-read (and footer-verified) from there and the generation degrades
//! instead of aborting — mirroring how writer failover degrades a
//! generation in [`crate::failover`]. Files that never left the local
//! tier make the generation fail; earlier durable generations remain
//! restorable.
//!
//! Everything here is instrumented with [`crate::sched`] points and
//! events so the `rbio-check` harness can race drains against restores
//! and tier losses deterministically.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rbio_plan::Rank;
use rbio_profile::counters;

use crate::buf::Bytes;
use crate::commit;
use crate::fault::{self, FaultPlan, IoCtx};
use crate::pipeline::{self, FlushJob, FlushPool, WriterTuning};
use crate::sched::{self, Point, TierId};
use crate::sys::{self, Mmap};

/// Pipeline rank the drain engine registers under. Out of the plan's
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
    /// (keeping the file for eviction bookkeeping) if mmap fails.
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

    /// Reserve a window and copy `data` into it. `None` when the slab
    /// is full — the caller surfaces [`TierError::StageFull`].
    pub fn append(&self, data: &[u8]) -> Option<SlabRef> {
        let off = self.head.fetch_add(data.len(), Ordering::Relaxed);
        let end = off.checked_add(data.len())?;
        if end > self.capacity {
            return None;
        }
        // SAFETY: `[off, end)` is in-bounds (checked above) and
        // exclusively ours (bump pointer), and `data` cannot overlap a
        // slab we own.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.base().add(off), data.len());
        }
        Some(SlabRef {
            off,
            len: data.len(),
        })
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

    /// Bytes appended so far (saturated at capacity).
    pub fn used(&self) -> usize {
        self.head.load(Ordering::Relaxed).min(self.capacity)
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
            .field("used", &self.used())
            .field("mapped", &self.map.is_some())
            .field("path", &self.path)
            .finish()
    }
}

#[derive(Default)]
struct StagedFile {
    extents: Vec<(u64, SlabRef)>,
    sealed_size: Option<u64>,
}

/// One generation's worth of staged checkpoint files in the local tier.
///
/// Executors append extents as the plan's `WriteAt` ops run and seal
/// each file at its `Commit` op; the drain engine assembles the sealed
/// images and flushes them down the hierarchy.
pub struct TierStage {
    step: u64,
    pool: Arc<SlabPool>,
    files: Mutex<HashMap<String, StagedFile>>,
}

impl TierStage {
    /// Stage generation `step` into `pool`.
    pub fn new(step: u64, pool: Arc<SlabPool>) -> TierStage {
        TierStage {
            step,
            pool,
            files: Mutex::new(HashMap::new()),
        }
    }

    /// The generation this stage holds.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The backing slab.
    pub fn pool(&self) -> &Arc<SlabPool> {
        &self.pool
    }

    /// Append one extent of `name` at logical file `offset`.
    pub fn append(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), TierError> {
        let r = self.pool.append(data).ok_or(TierError::StageFull {
            capacity: self.pool.capacity(),
            requested: data.len(),
        })?;
        counters::add_tier_staged_bytes(data.len() as u64);
        counters::add_bytes_copied(data.len() as u64);
        let mut g = self.files.lock().expect("tier stage lock");
        g.entry(name.to_string())
            .or_default()
            .extents
            .push((offset, r));
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

    /// The sealed files of this generation, `(name, logical size)`,
    /// sorted by name for deterministic drain order.
    pub fn sealed_files(&self) -> Vec<(String, u64)> {
        let g = self.files.lock().expect("tier stage lock");
        let mut v: Vec<(String, u64)> = g
            .iter()
            .filter_map(|(n, f)| f.sealed_size.map(|s| (n.clone(), s)))
            .collect();
        v.sort();
        v
    }

    /// Total staged bytes across all files.
    pub fn staged_bytes(&self) -> u64 {
        let g = self.files.lock().expect("tier stage lock");
        g.values()
            .flat_map(|f| f.extents.iter())
            .map(|(_, r)| r.len as u64)
            .sum()
    }

    /// Assemble the full logical image of a sealed file from its
    /// staged extents (unstaged regions read as zero, matching what a
    /// sparse PFS write would produce). `None` for unknown or unsealed
    /// names.
    pub fn assemble(&self, name: &str) -> Option<Vec<u8>> {
        let g = self.files.lock().expect("tier stage lock");
        let f = g.get(name)?;
        let size = usize::try_from(f.sealed_size?).ok()?;
        let mut img = vec![0u8; size];
        for &(off, r) in &f.extents {
            let off = usize::try_from(off).ok()?;
            let end = off.checked_add(r.len)?;
            if end > size {
                return None;
            }
            img[off..end].copy_from_slice(self.pool.slice(r));
        }
        Some(img)
    }
}

impl std::fmt::Debug for TierStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierStage")
            .field("step", &self.step)
            .field("staged_bytes", &self.staged_bytes())
            .finish()
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

/// Publishes a drained generation's manifest and commit marker.
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
    /// Publishes the generation's manifest and commit marker once every
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

enum Msg {
    Drain(DrainJob),
    Shutdown,
}

#[derive(Default)]
struct EngineState {
    durable: BTreeSet<u64>,
    failed: BTreeMap<u64, String>,
    retained: VecDeque<Arc<TierStage>>,
    stopped: bool,
}

struct EngineShared {
    state: Mutex<EngineState>,
    cv: Condvar,
    lost_local: AtomicBool,
    lose_between_hops: AtomicBool,
}

/// The background drain engine: one thread, FIFO over generations,
/// flushing each through the shared [`FlushPool`].
pub struct TierEngine {
    tx: Mutex<Option<Sender<Msg>>>,
    shared: Arc<EngineShared>,
    join: Mutex<Option<JoinHandle<()>>>,
    alive: Arc<AtomicBool>,
    retain: usize,
}

impl TierEngine {
    /// Spawn the drain thread, keeping `retain` drained generations
    /// resident in the local tier.
    pub fn new(retain: usize) -> Arc<TierEngine> {
        let (tx, rx) = mpsc::channel();
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
                drain_loop(&s2, &rx, retain);
                a2.store(false, Ordering::Release);
                sched::unregister();
            })
            .expect("spawn tier drain engine");
        Arc::new(TierEngine {
            tx: Mutex::new(Some(tx)),
            shared,
            join: Mutex::new(Some(join)),
            alive,
            retain,
        })
    }

    /// Drained generations kept resident.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Queue a generation for draining (FIFO).
    pub fn submit(&self, job: DrainJob) {
        let g = self.tx.lock().expect("tier engine tx lock");
        let sent = g
            .as_ref()
            .is_some_and(|tx| tx.send(Msg::Drain(job)).is_ok());
        drop(g);
        if !sent {
            // Engine already shut down: surface as a failed generation
            // rather than hanging wait_durable.
            let mut s = self.shared.state.lock().expect("tier engine lock");
            s.stopped = true;
            self.shared.cv.notify_all();
        }
    }

    /// Block until generation `step` is durable on the PFS tier.
    pub fn wait_durable(&self, step: u64) -> Result<(), TierError> {
        let mut g = self.shared.state.lock().expect("tier engine lock");
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
            if sched::registered() {
                drop(g);
                sched::yield_now(Point::TierDurableWait);
                g = self.shared.state.lock().expect("tier engine lock");
            } else {
                g = self.shared.cv.wait(g).expect("tier engine lock");
            }
        }
    }

    /// Simulate losing the node-local tier: retained slabs are gone and
    /// in-flight drains must source from the burst tier or fail.
    pub fn lose_local(&self) {
        apply_local_loss(&self.shared);
    }

    /// Arm a deterministic mid-drain loss: the drain thread applies
    /// [`TierEngine::lose_local`] exactly between the burst hop and the
    /// PFS hop of the generation it processes next.
    pub fn lose_local_between_hops(&self) {
        self.shared.lose_between_hops.store(true, Ordering::Release);
    }

    /// Whether the local tier has been lost.
    pub fn local_lost(&self) -> bool {
        self.shared.lost_local.load(Ordering::Acquire)
    }

    /// Steps that have reached durability, ascending.
    pub fn durable_steps(&self) -> Vec<u64> {
        let g = self.shared.state.lock().expect("tier engine lock");
        g.durable.iter().copied().collect()
    }

    /// The newest drained generation still resident in the local tier.
    pub fn newest_retained(&self) -> Option<Arc<TierStage>> {
        let g = self.shared.state.lock().expect("tier engine lock");
        g.retained.back().cloned()
    }

    /// The resident stage for `step`, if retained.
    pub fn retained_stage(&self, step: u64) -> Option<Arc<TierStage>> {
        let g = self.shared.state.lock().expect("tier engine lock");
        g.retained.iter().find(|s| s.step() == step).cloned()
    }
}

impl std::fmt::Debug for TierEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.shared.state.lock().expect("tier engine lock");
        f.debug_struct("TierEngine")
            .field("retain", &self.retain)
            .field("durable", &g.durable)
            .field("failed", &g.failed.keys().collect::<Vec<_>>())
            .field("lost_local", &self.local_lost())
            .finish()
    }
}

impl Drop for TierEngine {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.lock().expect("tier engine tx lock").take() {
            tx.send(Msg::Shutdown).ok();
        }
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
    for stage in g.retained.drain(..) {
        if let Some(p) = stage.pool().path() {
            std::fs::remove_file(p).ok();
        }
    }
    drop(g);
    if !was_lost {
        counters::add_tier_losses(1);
        sched::emit(|| sched::Event::TierLost {
            tier: TierId::Local,
        });
    }
    shared.cv.notify_all();
}

fn drain_loop(shared: &EngineShared, rx: &Receiver<Msg>, retain: usize) {
    loop {
        let msg = if sched::registered() {
            loop {
                match rx.try_recv() {
                    Ok(m) => break m,
                    Err(TryRecvError::Empty) => sched::yield_now(Point::TierDrainIdle),
                    Err(TryRecvError::Disconnected) => return finish(shared),
                }
            }
        } else {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => return finish(shared),
            }
        };
        match msg {
            Msg::Shutdown => return finish(shared),
            Msg::Drain(job) => run_drain(shared, job, retain),
        }
    }
}

fn finish(shared: &EngineShared) {
    let mut g = shared.state.lock().expect("tier engine lock");
    g.stopped = true;
    drop(g);
    shared.cv.notify_all();
}

/// Read a committed burst copy back as a logical image: footer-verify,
/// then strip the footer. Never trusts an unverified burst file.
fn read_burst(path: &Path, size: u64) -> Result<Vec<u8>, String> {
    let bytes = std::fs::read(path)
        .map_err(|e| format!("burst copy {} unreadable: {e}", path.display()))?;
    if let Some(err) = commit::verify_committed(&bytes, size) {
        return Err(format!("burst copy {} corrupt: {err}", path.display()));
    }
    let mut img = bytes;
    img.truncate(size as usize);
    Ok(img)
}

/// Commit `img` at `path` via the tmp + footer + rename path so the
/// copy is torn-write detectable like any other checkpoint file. The
/// image lands through the one fault-checked, journaled write (under a
/// plan that injects nothing: tier loss, not a torn write, is this hop's
/// failure mode), so the crash recorder sees its bytes like any others.
fn write_committed(path: &Path, img: &[u8], fsync: bool) -> io::Result<()> {
    let tmp = commit::tmp_path(path);
    let f = File::create(&tmp)?;
    let ctx = IoCtx {
        rank: DRAIN_RANK,
        wid: 0,
        faults: &FaultPlan::none(),
        write_retries: 0,
        retry_backoff: Duration::ZERO,
    };
    fault::write_at(&ctx, &f, 0, &[img]).map_err(|e| {
        e.into_io()
            .unwrap_or_else(|| io::Error::other("burst-hop write killed"))
    })?;
    if fsync {
        pipeline::hint_writeback(&f, 0, img.len() as u64);
    }
    drop(f);
    commit::commit_file(&tmp, path, img.len() as u64, fsync)
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
    let files = stage.sealed_files();

    let outcome = (|| -> Result<DrainOutcome, String> {
        // Hop 1: local → burst. Every file lands as a committed copy so
        // the PFS hop can verify it before trusting it.
        if let Some(bdir) = burst_dir.as_deref() {
            std::fs::create_dir_all(bdir)
                .map_err(|e| format!("burst dir {}: {e}", bdir.display()))?;
            for (name, _size) in &files {
                let dst = bdir.join(name);
                if shared.lost_local.load(Ordering::Acquire) {
                    if dst.exists() {
                        continue; // an earlier pass already landed it
                    }
                    return Err(format!(
                        "local tier lost before {name} reached the burst tier"
                    ));
                }
                let img = stage
                    .assemble(name)
                    .ok_or_else(|| format!("{name} not sealed in local tier"))?;
                write_committed(&dst, &img, fsync)
                    .map_err(|e| format!("burst hop for {name}: {e}"))?;
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

        // Hop 2: → PFS, through the shared flush pool so drain traffic
        // rides the same FIFO/retry/error-latching machinery as
        // foreground writers.
        let pool = FlushPool::current();
        let tuning = WriterTuning {
            durable: fsync,
            ..WriterTuning::default()
        };
        let writer = pool.register(DRAIN_RANK, 2, FaultPlan::none(), tuning);
        let mut recovered = Vec::new();
        let mut drained = 0u64;
        for (name, size) in &files {
            let (img, from_burst) = if shared.lost_local.load(Ordering::Acquire) {
                let bdir = burst_dir
                    .as_deref()
                    .ok_or_else(|| format!("local tier lost and no burst copy of {name}"))?;
                (read_burst(&bdir.join(name), *size)?, true)
            } else {
                let img = stage
                    .assemble(name)
                    .ok_or_else(|| format!("{name} not sealed in local tier"))?;
                (img, false)
            };
            if from_burst {
                recovered.push(name.clone());
            }
            let final_path = pfs_dir.join(name);
            let tmp = commit::tmp_path(&final_path);
            let f = Arc::new(File::create(&tmp).map_err(|e| format!("PFS tmp for {name}: {e}"))?);
            drained += img.len() as u64;
            writer
                .submit(FlushJob::Write {
                    file: Arc::clone(&f),
                    offset: 0,
                    data: Bytes::from_vec(img),
                })
                .map_err(|e| format!("PFS write for {name}: {e}"))?;
            writer
                .submit(FlushJob::Close {
                    file: f,
                    fsync: false,
                })
                .map_err(|e| format!("PFS close for {name}: {e}"))?;
            writer
                .submit(FlushJob::Commit {
                    tmp,
                    final_path,
                    size: *size,
                    fsync,
                })
                .map_err(|e| format!("PFS commit for {name}: {e}"))?;
        }
        writer
            .drain()
            .map_err(|e| format!("PFS drain for step {step}: {e}"))?;
        counters::add_tier_drained_bytes(drained);
        for (name, _) in &files {
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
                    if let Some(old) = g.retained.pop_front() {
                        if let Some(p) = old.pool().path() {
                            std::fs::remove_file(p).ok();
                        }
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
        let a = pool.append(b"hello").unwrap();
        let b = pool.append(b"world!").unwrap();
        assert_eq!(pool.slice(a), b"hello");
        assert_eq!(pool.slice(b), b"world!");
        assert_eq!(pool.used(), 11);
    }

    #[test]
    fn slab_full_append_fails_cleanly() {
        let pool = SlabPool::anonymous(8);
        assert!(pool.append(&[1; 8]).is_some());
        assert!(pool.append(&[2; 1]).is_none());
        // The failed reservation must not have corrupted earlier data.
        assert_eq!(pool.slice(SlabRef { off: 0, len: 8 }), &[1; 8]);
    }

    #[test]
    fn file_backed_slab_roundtrips() {
        let dir = std::env::temp_dir().join("rbio-tier-slab-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("step.slab");
        let pool = SlabPool::create(&path, 4096).unwrap();
        let r = pool.append(b"persisted").unwrap();
        assert_eq!(pool.slice(r), b"persisted");
        assert_eq!(pool.path(), Some(path.as_path()));
        drop(pool);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_assembles_sealed_images_with_holes_zeroed() {
        let stage = TierStage::new(7, Arc::new(SlabPool::anonymous(1 << 12)));
        stage.append("f", 0, b"head").unwrap();
        stage.append("f", 8, b"tail").unwrap();
        stage.seal_file("f", 12);
        let img = stage.assemble("f").unwrap();
        assert_eq!(&img[0..4], b"head");
        assert_eq!(&img[4..8], &[0; 4]);
        assert_eq!(&img[8..12], b"tail");
        assert!(stage.assemble("missing").is_none());
        assert_eq!(stage.sealed_files(), vec![("f".to_string(), 12)]);
    }

    #[test]
    fn burst_hop_image_is_journaled_by_the_crash_recorder() {
        use crate::crash::{RecOp, Recorder};
        let dir = std::env::temp_dir().join(format!("rbio-tier-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let img: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        let rec = Recorder::install(&dir).unwrap();
        write_committed(&dir.join("ck.rbio"), &img, true).unwrap();
        let ops = rec.take();
        drop(rec);
        // The image's own bytes, then the commit protocol's four edges.
        let tmp = Path::new("ck.rbio.tmp");
        assert!(
            matches!(&ops[0], RecOp::Write { path, offset: 0, data } if path == tmp && *data == img),
            "the image must be journaled first: {:?}",
            ops.first()
        );
        assert!(matches!(&ops[1], RecOp::Write { path, offset: 3000, .. } if path == tmp));
        assert!(matches!(&ops[2], RecOp::Fsync { path } if path == tmp));
        assert!(matches!(&ops[3], RecOp::Rename { from, .. } if from == tmp));
        assert!(matches!(&ops[4], RecOp::DirFsync { .. }));
        assert_eq!(ops.len(), 5);
        let bytes = std::fs::read(dir.join("ck.rbio")).unwrap();
        assert!(commit::verify_committed(&bytes, 3000).is_none());
        assert_eq!(&bytes[..3000], &img[..]);
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
        assert_eq!(engine.durable_steps(), vec![1]);
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
        assert!(engine.local_lost());
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

    #[test]
    fn eviction_honors_retain() {
        let dir = std::env::temp_dir().join("rbio-tier-evict-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let engine = TierEngine::new(1);
        for step in 1..=3u64 {
            let slab_path = dir.join(format!("step{step}.slab"));
            let pool = Arc::new(SlabPool::create(&slab_path, 4096).unwrap());
            let stage = Arc::new(TierStage::new(step, pool));
            stage.append("ck.rbio", 0, &[step as u8; 32]).unwrap();
            stage.seal_file("ck.rbio", 32);
            engine.submit(DrainJob {
                step,
                stage,
                pfs_dir: dir.clone(),
                burst_dir: None,
                fsync: false,
                publish: Box::new(|_| Ok(())),
            });
            engine.wait_durable(step).unwrap();
        }
        assert!(engine.newest_retained().is_some_and(|s| s.step() == 3));
        assert!(engine.retained_stage(1).is_none());
        assert!(engine.retained_stage(2).is_none());
        // Evicted slab files are deleted; the retained one survives.
        assert!(!dir.join("step1.slab").exists());
        assert!(!dir.join("step2.slab").exists());
        assert!(dir.join("step3.slab").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
