//! Multi-tier checkpoint staging: a node-local fast tier with an
//! asynchronous drain engine.
//!
//! The paper's rbIO strategy hides PFS latency behind dedicated writer
//! ranks; this module goes one hop further and hides the *writers'* I/O
//! behind node-local memory, the way burst buffers do on machines a
//! generation after the Blue Gene/P. A checkpoint generation is:
//!
//! 1. **Staged** — writer ranks hand their write runs to a [`TierStage`]
//!    as the immutable, refcounted [`Bytes`] the interpreter already
//!    holds (payload slices and received messages): each file is an
//!    [`ExtentMap`] of them, and staging moves no byte. The stage is one
//!    more holder on the buffer lifecycle ([`crate::buf`]). From the
//!    application's point of view the checkpoint is over as soon as
//!    staging finishes — this is the *perceived* bandwidth.
//! 2. **Drained** — a background [`TierEngine`] thread flushes each
//!    staged generation down the hierarchy (local → optional burst
//!    directory → PFS), each hop one [`crate::commit::commit_bytes`] per
//!    file that gathers its held slices (no image of the file is built),
//!    then publishes the generation's commit marker.
//!    Only then is the generation *durable*.
//! 3. **Retained** — the most recent drained generations stay resident
//!    in the local tier so a restart can be served at memory speed
//!    (restore-from-nearest-tier); older stages are evicted.
//! 4. **Recycled** — an evicted stage drops its slices, and each buffer
//!    goes back to its [`crate::buf::BufPool`] once nothing else holds
//!    it (a restore still reading the stage keeps it whole): a warm
//!    generation's payloads are leases the pool recycled.
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

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use rbio_plan::Rank;
use rbio_profile::counters;

use crate::buf::{BufPool, Bytes};
use crate::commit;
use crate::extent::ExtentMap;
use crate::fault::FaultPlan;
use crate::sched::{self, unpoisoned, Point, TierId, Wait};

/// The rank the drain engine commits as. Out of the plan's
/// rank space so rank-targeted fault plans never hit the drain by
/// accident (`Rank::MAX` itself is the manager's commit identity).
pub const DRAIN_RANK: Rank = Rank::MAX - 1;

/// Tier staging errors.
#[derive(Debug)]
pub enum TierError {
    /// The stage's byte budget ran out mid-append.
    StageFull {
        /// The stage's budget in bytes.
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
                "local tier stage full: {requested} byte append exceeds its {capacity} byte budget"
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
    /// The node-local tier's directory. The manager creates it, and
    /// staging keeps nothing there: a stage holds the writers' buffers
    /// in memory, and a restore from it checks the header shapes, while
    /// a restore from the burst or PFS copy verifies every byte it reads.
    pub local_dir: PathBuf,
    /// Bytes one generation may stage. Staging more than this fails
    /// with [`TierError::StageFull`].
    pub slab_capacity: usize,
    /// Optional intermediate burst-buffer directory. With one set, a
    /// drained file is committed there before the PFS hop, and tier
    /// loss mid-drain can recover from it.
    pub burst_dir: Option<PathBuf>,
    /// Drained generations kept resident in the local tier for
    /// restore-from-nearest-tier. Older stages are evicted.
    pub retain: usize,
    /// fsync burst and PFS files as they are committed.
    pub fsync: bool,
}

impl TierConfig {
    /// Stage into `local_dir` with a 16 MiB budget, no burst tier, one
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

    /// Set the per-generation staging budget.
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

/// The bytes `k` of a held slice: how a stage's [`ExtentMap`] resolves
/// its pieces.
pub(crate) fn held(b: &Bytes, k: Range<u64>) -> &[u8] {
    &b[k.start as usize..k.end as usize]
}

/// A stage's byte budget, under the name and constructor of the
/// mmap'd slab it replaced: [`TierStage::new`] takes one.
#[derive(Debug)]
pub struct SlabPool {
    capacity: usize,
}

impl SlabPool {
    /// A budget of `capacity` bytes. Leaves an empty file at `path`, as
    /// the slab it stands for did: callers of that slab remove it.
    pub fn create(path: &Path, capacity: usize) -> io::Result<SlabPool> {
        std::fs::File::create(path)?;
        Ok(SlabPool { capacity })
    }
}

/// A staged file: the slices of its extents, the latest append winning
/// where two overlap, and its size once sealed. The map is shared with
/// the drain and restores that read it, and copied only by an append
/// that lands while one of them still does.
#[derive(Default)]
struct StagedFile {
    map: Arc<ExtentMap<Bytes>>,
    sealed_size: Option<u64>,
}

/// A stage's files by name, and the bytes handed to it so far.
#[derive(Default)]
struct StageFiles {
    by_name: BTreeMap<String, StagedFile>,
    staged: usize,
}

/// [`TierStage::sealed_files`] by name: each one's extents and size.
pub(crate) type SealedFiles = BTreeMap<String, (Arc<ExtentMap<Bytes>>, u64)>;

/// One generation's worth of staged checkpoint files in the local tier.
///
/// Executors append extents as the plan's `WriteAt` ops run and seal
/// each file at its `Commit` op; the drain engine writes each sealed
/// file's extents down the hierarchy as one gather, and a restore copies
/// them straight into the restored blocks. The stage holds the slices it
/// was handed: dropping it releases them.
pub struct TierStage {
    step: u64,
    /// Bytes the stage accepts in all before [`TierError::StageFull`].
    budget: usize,
    /// Taken through [`unpoisoned`]: every update under it is a container
    /// edit in straight-line code that cannot panic midway (the bytes are
    /// handed over before it is taken), so a panic on a thread holding it
    /// leaves no half-made change to refuse.
    files: Mutex<StageFiles>,
}

impl TierStage {
    /// Stage generation `step` within `pool`'s budget.
    pub fn new(step: u64, pool: Arc<SlabPool>) -> TierStage {
        TierStage::with_budget(step, pool.capacity)
    }

    /// Stage generation `step`, accepting `budget` bytes in all.
    pub fn with_budget(step: u64, budget: usize) -> TierStage {
        TierStage {
            step,
            budget,
            files: Mutex::default(),
        }
    }

    /// The generation this stage holds.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Append a copy of `data` as one extent of `name` at logical file
    /// `offset`: one counted copy into a pooled buffer.
    pub fn append(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), TierError> {
        self.append_bytes(name, offset, &[BufPool::global().copy_from_slice(data)])
    }

    /// Hold `pieces`, back to back, as extents of `name` from logical
    /// file `offset` on. Each is shared, not copied: the stage keeps a
    /// reference until it is dropped.
    pub(crate) fn append_bytes(
        &self,
        name: &str,
        offset: u64,
        pieces: &[Bytes],
    ) -> Result<(), TierError> {
        let len: usize = pieces.iter().map(Bytes::len).sum();
        let mut g = unpoisoned(self.files.lock());
        if len > self.budget - g.staged {
            return Err(TierError::StageFull {
                capacity: self.budget,
                requested: len,
            });
        }
        g.staged += len;
        let file = match g.by_name.get_mut(name) {
            Some(file) => file,
            None => g.by_name.entry(name.to_string()).or_default(),
        };
        let map = Arc::make_mut(&mut file.map);
        let mut at = offset;
        for piece in pieces {
            map.put(at, piece.len() as u64, piece.clone());
            at += piece.len() as u64;
        }
        drop(g);
        counters::add_tier_staged_bytes(len as u64);
        sched::emit(|| sched::Event::TierExtentStaged {
            step: self.step,
            path_hash: sched::fingerprint([name.as_bytes()]),
        });
        Ok(())
    }

    /// Seal `name` at its logical (pre-footer) `size`: no more extents
    /// will arrive; the file is ready to drain.
    pub fn seal_file(&self, name: &str, size: u64) {
        let mut g = unpoisoned(self.files.lock());
        // A name is copied once per file, not once per call.
        let file = match g.by_name.get_mut(name) {
            Some(file) => file,
            None => g.by_name.entry(name.to_string()).or_default(),
        };
        file.sealed_size = Some(size);
    }

    /// This generation's sealed files, by name (the deterministic drain
    /// order). Taken under the stage lock and read without it: a held
    /// slice never changes. A file with an extent past its sealed size
    /// has no image to drain or restore; it is the error, `(name, what)`.
    pub(crate) fn sealed_files(&self) -> Result<SealedFiles, (String, String)> {
        let g = unpoisoned(self.files.lock());
        let sealed = g
            .by_name
            .iter()
            .filter_map(|(n, f)| Some((n.clone(), &f.map, f.sealed_size?)));
        sealed
            .map(|(name, map, size)| match map.end() {
                end if end > size => Err((name, format!("extent ends at {end}, sealed at {size}"))),
                _ => Ok((name, (Arc::clone(map), size))),
            })
            .collect()
    }
}

impl std::fmt::Debug for TierStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let files = unpoisoned(self.files.lock()).by_name.len();
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
    stopped: bool,
}

#[derive(Debug)]
struct EngineShared {
    /// Taken through [`unpoisoned`]: every update under it is a container
    /// edit in straight-line code that cannot panic midway (publish
    /// callbacks and I/O run with it released), so a panic on a thread
    /// holding it leaves no half-made change to refuse.
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
    /// Taken through [`unpoisoned`]: its one update is a `take`.
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
        // A process that cannot start one thread cannot checkpoint
        // either: this spawn's failure is the module's one panic.
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
        let mut g = unpoisoned(self.shared.state.lock());
        g.queue.push_back(job);
        self.shared.cv.notify_all();
    }

    /// Block until generation `step` is durable on the PFS tier.
    pub fn wait_durable(&self, step: u64) -> Result<(), TierError> {
        let sh = &*self.shared;
        let mut g = unpoisoned(sh.state.lock());
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

    /// Simulate losing the node-local tier: retained stages are gone and
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

    /// The newest drained generation still resident in the local tier.
    pub fn newest_retained(&self) -> Option<Arc<TierStage>> {
        let g = unpoisoned(self.shared.state.lock());
        g.retained.back().cloned()
    }
}

impl Drop for TierEngine {
    fn drop(&mut self) {
        unpoisoned(self.shared.state.lock()).shutdown = true;
        self.shared.cv.notify_all();
        // Under a controlled scheduler a blocking join would wedge the
        // schedule; spin through the JoinWait point until the drain
        // thread has unhooked itself (same pattern as the executors).
        if sched::registered() {
            while self.alive.load(Ordering::Acquire) {
                sched::yield_now(Point::JoinWait);
            }
        }
        if let Some(j) = unpoisoned(self.join.lock()).take() {
            j.join().ok();
        }
    }
}

fn apply_local_loss(shared: &EngineShared) {
    let was_lost = shared.lost_local.swap(true, Ordering::AcqRel);
    unpoisoned(shared.state.lock()).retained.clear();
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
    let mut g = unpoisoned(sh.state.lock());
    loop {
        if let Some(job) = g.queue.pop_front() {
            drop(g);
            run_drain(sh, job, retain);
            g = unpoisoned(sh.state.lock());
        } else if g.shutdown {
            g.stopped = true;
            sh.cv.notify_all();
            return;
        } else {
            g = idle.park(&sh.state, &sh.cv, g).unwrap_or_else(|(g, _)| g);
        }
    }
}

/// Refill `bufs` with the pieces of `map`'s first `size` bytes, the
/// list sized before it is filled.
fn gather<'m>(bufs: &mut Vec<Cow<'m, [u8]>>, map: &'m ExtentMap<Bytes>, size: u64) {
    bufs.clear();
    bufs.reserve(map.pieces(0, size).count());
    bufs.extend(map.slices(0, size, held));
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
        // Each file's pieces, one list for every file and both hops.
        let mut bufs = Vec::new();
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
                gather(&mut bufs, map, *size);
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
            if shared.lost_local.load(Ordering::Acquire) {
                let bdir = burst_dir
                    .as_deref()
                    .ok_or_else(|| format!("local tier lost and no burst copy of {name}"))?;
                recovered.push(name.clone());
                let img = commit::read_committed(&bdir.join(name), *size)
                    .map_err(|e| format!("burst copy of {name}: {e}"))?;
                bufs.clear();
                bufs.push(Cow::Owned(img));
            } else {
                gather(&mut bufs, map, *size);
            }
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
            let mut g = unpoisoned(shared.state.lock());
            g.durable.insert(step);
            if !shared.lost_local.load(Ordering::Acquire) {
                g.retained.push_back(stage);
            }
            // Each drain retains at most one stage more, so at most one
            // goes: dropped under the engine lock, so its buffers are
            // back in their pool before anyone sees this step durable,
            // and no restore can take it from here on. One that still
            // holds the stage keeps its buffers until it lets go.
            if g.retained.len() > retain {
                g.retained.pop_front();
            }
            drop(g);
            shared.cv.notify_all();
        }
        Err(reason) => {
            let mut g = unpoisoned(shared.state.lock());
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
    fn a_stage_shares_owned_slices_copies_borrowed_ones_and_keeps_its_budget() {
        let pool = BufPool::new();
        let mut lease = pool.lease(8);
        lease.copy_from_slice(b"abcdefgh");
        let held_buf = lease.freeze();
        let stage = TierStage::with_budget(1, 12);
        stage
            .append_bytes("f", 0, &[held_buf.slice(..3), held_buf.slice(5..)])
            .unwrap();
        stage.append("f", 6, b"XY").unwrap();
        stage.seal_file("f", 8);
        let files = stage.sealed_files().unwrap();
        let pieces: Vec<_> = files["f"].0.slices(0, 8, held).collect();
        assert_eq!(pieces.concat(), b"abcfghXY");
        assert!(
            std::ptr::eq(pieces[0].as_ptr(), held_buf.as_ptr()),
            "an owned slice is held, not copied"
        );
        drop(pieces);
        // 8 of 12 bytes staged: 5 more do not fit, and nothing lands.
        match stage.append("f", 0, &[0; 5]) {
            Err(TierError::StageFull {
                capacity: 12,
                requested: 5,
            }) => {}
            other => panic!("want StageFull, got {other:?}"),
        }
        stage.append("f", 0, &[0; 4]).unwrap();
        drop((stage, files, held_buf));
        assert_eq!(
            pool.free_buffers(),
            1,
            "the dropped stage let its buffer go"
        );
    }

    #[test]
    fn a_slab_pool_is_a_budget_that_leaves_its_file() {
        let dir = std::env::temp_dir().join(format!("rbio-tier-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.slab");
        let stage = TierStage::new(1, Arc::new(SlabPool::create(&path, 4).unwrap()));
        assert!(
            path.exists(),
            "callers written for the slab remove its file"
        );
        assert!(stage.append("f", 0, &[1; 5]).is_err());
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
        let stage = Arc::new(TierStage::with_budget(1, 1 << 12));
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
        let stage = Arc::new(TierStage::with_budget(2, 1 << 12));
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
        let stage = Arc::new(TierStage::with_budget(1, 1 << 16));
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
        let stage = Arc::new(TierStage::with_budget(1, 1 << 16));
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
        let stage = Arc::new(TierStage::with_budget(2, 1 << 16));
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
        let stage = Arc::new(TierStage::with_budget(3, 1 << 12));
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
        map.read(0, &mut img, held);
        img
    }

    /// A stage of generation `step` holding `body` as file `f`: a buffer
    /// leased from `pool`, handed over whole.
    fn staged(pool: &BufPool, step: u64, body: &[u8]) -> Arc<TierStage> {
        let mut buf = pool.lease(body.len());
        buf.copy_from_slice(body);
        let stage = Arc::new(TierStage::with_budget(step, body.len()));
        stage.append_bytes("f", 0, &[buf.freeze()]).unwrap();
        stage.seal_file("f", body.len() as u64);
        stage
    }

    #[test]
    fn eviction_honors_retain_and_returns_the_buffers() {
        let dir = std::env::temp_dir().join(format!("rbio-tier-evict-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (engine, pool) = (TierEngine::new(1), BufPool::new());
        for step in 1..=3u64 {
            drain_to(&engine, &dir, staged(&pool, step, &[step as u8; 32]));
            // Step 1 stays retained; from step 2 on, the step before is
            // evicted and its buffer is the pool's again.
            assert_eq!(pool.free_buffers(), usize::from(step > 1), "step {step}");
        }
        let newest = engine.newest_retained().expect("a retained stage");
        assert_eq!(newest.step(), 3);
        assert_eq!(unpoisoned(engine.shared.state.lock()).retained.len(), 1);
        assert_eq!(staged_image(&newest, "f"), [3; 32]);
        // Staging created nothing on disk beside the drained file.
        assert_eq!(commit::list(&dir).unwrap(), ["f"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_hole_reads_zeros_not_the_buffer_behind_its_neighbours() {
        let dir = std::env::temp_dir().join(format!("rbio-tier-hole-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        const CAP: usize = 4096;
        let (engine, pool) = (TierEngine::new(1), BufPool::new());
        // Generation 1 fills a whole buffer with 0xAA; generation 2's
        // drain evicts it, and the buffer is the pool's again.
        drain_to(&engine, &dir.join("1"), staged(&pool, 1, &[0xAA; CAP]));
        drain_to(&engine, &dir.join("2"), staged(&pool, 2, &[2; 64]));
        // Generation 3 writes two stretches of that recycled buffer and
        // stages only them, as a file with holes between and after.
        let mut buf = pool.lease_to_overwrite(CAP);
        assert!(buf[..] == [0xAA; CAP], "generation 1's buffer, recycled");
        buf[100..200].fill(3);
        buf[300..350].fill(4);
        let buf = buf.freeze();
        let stage = Arc::new(TierStage::with_budget(3, CAP));
        stage
            .append_bytes("f", 100, &[buf.slice(100..200)])
            .unwrap();
        stage
            .append_bytes("f", 300, &[buf.slice(300..350)])
            .unwrap();
        stage.seal_file("f", 400);
        drop(buf);
        drain_to(&engine, &dir.join("3"), stage);
        let mut want = vec![0u8; 400];
        want[100..200].fill(3);
        want[300..350].fill(4);
        let bytes = std::fs::read(dir.join("3").join("f")).unwrap();
        assert!(commit::verify_committed(&bytes, 400).is_none());
        assert_eq!(&bytes[..400], &want[..], "drained");
        let retained = engine.newest_retained().expect("step 3 retained");
        assert_eq!(retained.step(), 3);
        assert_eq!(
            staged_image(&retained, "f"),
            want,
            "restored from the stage"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_held_stage_keeps_its_bytes_while_later_generations_recycle() {
        let dir = std::env::temp_dir().join(format!("rbio-tier-held-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        const CAP: usize = 4096;
        let (engine, pool) = (TierEngine::new(1), BufPool::new());
        let body: Vec<u8> = (0..CAP as u32).map(|i| (i * 13) as u8).collect();
        drain_to(&engine, &dir.join("1"), staged(&pool, 1, &body));
        let held = engine.newest_retained().expect("step 1 retained");
        // Steps 2 and 3 evict step 1, held, and then step 2, which
        // nothing holds: only step 2's buffer is the pool's again, and
        // step 4 stages into it.
        for step in 2..=4u64 {
            let recycled = pool.free_buffers();
            assert_eq!(recycled, usize::from(step == 4), "before step {step}");
            let dst = dir.join(step.to_string());
            drain_to(&engine, &dst, staged(&pool, step, &[step as u8; CAP]));
            assert_eq!(
                pool.free_buffers(),
                usize::from(step >= 3),
                "after step {step}"
            );
        }
        assert_eq!(held.step(), 1);
        assert_eq!(staged_image(&held, "f"), body);
        drop(held);
        assert_eq!(pool.free_buffers(), 2, "step 1's buffer, let go at last");
        std::fs::remove_dir_all(&dir).ok();
    }
}
