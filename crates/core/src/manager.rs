//! Checkpoint campaign management: the operational layer a production run
//! needs around single-step checkpoints.
//!
//! The paper's §II motivates application-level checkpointing with rollback
//! ("roll back to the most recently saved state"); doing that safely needs
//! more than writing files:
//!
//! * **atomic completion** — a step is only restartable once *every* file
//!   landed; a crash mid-checkpoint must not leave a half-step that a
//!   restart could mistake for a good one. We publish a `*.commit` marker
//!   (naming each file and how it landed) after all writes complete; it
//!   is the generation's only record, and each file vouches for its own
//!   bytes.
//! * **rotation** — keep the last `k` complete steps, deleting older ones
//!   *only after* a newer step committed.
//! * **latest-step discovery** — a restarting job scans the directory and
//!   picks the newest committed step whose files read back verified.

use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::buf::BufPool;
use crate::commit;
use crate::exec::{execute, ExecConfig, ExecError, ExecReport};
use crate::failover::FailoverPolicy;
use crate::fault::FaultPlan;
use crate::format::{decode_header, materialize_payloads_in, read_header_prefix, FileHeader};
use crate::layout::DataLayout;
use crate::restart::{read_checkpoint_in, read_checkpoint_staged_in, RestartError, RestoredData};
use crate::sched::{self, Event, TierId};
use crate::strategy::{CheckpointPlan, CheckpointSpec, Strategy, Tuning};
use crate::tier::{DrainJob, TierConfig, TierEngine, TierError, TierStage};
use rbio_plan::Rank;

/// The fault-injection rank identity of the manager's own metadata
/// commit (the marker). Distinct from every plan writer rank and
/// from [`crate::tier::DRAIN_RANK`], so tests can kill the campaign
/// layer's commit path specifically.
pub(crate) const MANAGER_RANK: Rank = Rank::MAX;

/// Errors from campaign operations.
#[derive(Debug)]
pub enum ManagerError {
    /// Planning failed.
    Plan(crate::strategy::PlanError),
    /// Execution failed.
    Exec(ExecError),
    /// Filesystem trouble.
    Io(io::Error),
    /// Restart/verification failed.
    Restart(RestartError),
    /// No committed checkpoint exists.
    NothingToRestore,
    /// A commit marker, or a file it lists, fails its check.
    CommitMismatch(String),
    /// The staging tier failed (stage full, drain failure, tier loss
    /// with no recoverable copy).
    Tier(TierError),
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::Plan(e) => write!(f, "plan: {e}"),
            ManagerError::Exec(e) => write!(f, "exec: {e}"),
            ManagerError::Io(e) => write!(f, "io: {e}"),
            ManagerError::Restart(e) => write!(f, "restart: {e}"),
            ManagerError::NothingToRestore => write!(f, "no committed checkpoint found"),
            ManagerError::CommitMismatch(s) => write!(f, "commit marker mismatch: {s}"),
            ManagerError::Tier(e) => write!(f, "tier: {e}"),
        }
    }
}

impl std::error::Error for ManagerError {}

impl From<io::Error> for ManagerError {
    fn from(e: io::Error) -> Self {
        ManagerError::Io(e)
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Checkpoint directory.
    pub(crate) dir: PathBuf,
    /// Strategy for every step.
    pub(crate) strategy: Strategy,
    /// Tuning for every step.
    pub(crate) tuning: Tuning,
    /// Number of committed steps to retain (≥1).
    pub keep: usize,
    /// fsync files before commit (durable but slower).
    pub fsync: bool,
    /// Fault injection for every step's execution (tests and failure
    /// drills; [`FaultPlan::none`] in production).
    pub faults: FaultPlan,
    /// Writer failover: when a writer dies or hangs mid-step, a
    /// surviving writer takes over its extent and the step completes
    /// *degraded* instead of aborting. On by default; the deadlines are
    /// derived from the executor's receive timeout. Disable to get the
    /// pre-failover abort-and-fall-back behavior.
    pub failover: bool,
    /// Node-local burst-buffer tier. With one configured, checkpoints
    /// stage in local memory, holding the writers' buffers, and a
    /// background engine drains them to the PFS; [`CheckpointManager::
    /// wait_durable`] blocks until a step's PFS copy is committed.
    /// `None` writes straight to the PFS as before.
    pub tier: Option<TierConfig>,
}

impl ManagerConfig {
    /// Defaults: rbIO with ng = nranks/8 (at least 1), keep 2 steps.
    pub fn new(dir: impl AsRef<Path>, strategy: Strategy) -> Self {
        ManagerConfig {
            dir: dir.as_ref().to_path_buf(),
            strategy,
            tuning: Tuning::default(),
            keep: 2,
            fsync: false,
            faults: FaultPlan::none(),
            failover: true,
            tier: None,
        }
    }

    /// Stage checkpoints through a node-local tier (see
    /// [`ManagerConfig::tier`]).
    pub fn tier(mut self, tier: TierConfig) -> Self {
        self.tier = Some(tier);
        self
    }
}

/// How restorable a committed generation is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenerationState {
    /// Every extent landed through its primary writer.
    Complete,
    /// Every extent landed, but at least one through a failover
    /// successor — fully restorable, flagged for operators.
    Degraded,
    /// Verification failed: missing/truncated/corrupt extents. Not
    /// restorable; `restore_latest` falls back past it.
    Torn,
}

/// A checkpoint campaign: write steps, rotate, restore the latest.
#[derive(Debug)]
pub struct CheckpointManager {
    cfg: ManagerConfig,
    layout: DataLayout,
    engine: Option<Arc<TierEngine>>,
    /// The manager's own buffers: its payloads and its restores. A
    /// payload is handed to `fill` without the zero-fill, so it may hold
    /// only bytes that this manager wrote or restored before.
    pool: BufPool,
}

fn step_prefix(step: u64) -> String {
    format!("step{step:010}")
}

/// File name of `step`'s commit marker.
pub(crate) fn commit_name(step: u64) -> String {
    format!("{}.commit", step_prefix(step))
}

/// Whether the entry `name` belongs to `step`'s generation: the step
/// prefix followed by a `.`, so that step 1000000000 never claims the
/// files of step 10000000000.
fn of_step(name: &str, step: u64) -> bool {
    name.strip_prefix(&step_prefix(step))
        .is_some_and(|rest| rest.starts_with('.'))
}

/// The step a commit-marker file name belongs to ([`commit_name`]'s
/// inverse); `None` for any other name.
pub(crate) fn marker_step(name: &str) -> Option<u64> {
    name.strip_prefix("step")?
        .strip_suffix(".commit")?
        .parse()
        .ok()
}

fn commit_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(commit_name(step))
}

/// Format a commit marker: `step N`, `files M`, then one `name landing`
/// line per file. The landing is `primary`, `failover:S` or
/// `tierloss:burst`. Each file vouches for its own bytes (header CRC,
/// length, footer CRCs), so the marker records only what no file can say
/// about itself: which files make up the generation and how each landed.
fn marker_body<'a>(step: u64, files: impl ExactSizeIterator<Item = (&'a str, &'a str)>) -> String {
    let mut body = format!("step {step}\nfiles {}\n", files.len());
    for (name, landing) in files {
        body.push_str(&format!("{name} {landing}\n"));
    }
    body
}

/// Whether `landing` is one a marker records.
fn known_landing(landing: &str) -> bool {
    matches!(landing, "primary" | "tierloss:burst")
        || landing
            .strip_prefix("failover:")
            .is_some_and(|s| s.parse::<Rank>().is_ok())
}

/// The `(name, landing)` of each file `step`'s marker lists. The marker
/// must be exactly what [`marker_body`] writes for those lines, each
/// naming a distinct file of `step` and a known landing; `Err` says how
/// it is not.
pub(crate) fn marker_files(marker: &str, step: u64) -> Result<Vec<(&str, &str)>, String> {
    let mut names = std::collections::HashSet::new();
    let files = marker
        .lines()
        .skip(2)
        .map(|line| match line.split_once(' ') {
            Some((name, landing))
                if of_step(name, step) && known_landing(landing) && names.insert(name) =>
            {
                Ok((name, landing))
            }
            _ => Err(format!("bad marker line {line:?}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    if marker_body(step, files.iter().copied()) != marker {
        return Err(format!("not the step {step} marker of its file lines"));
    }
    Ok(files)
}

/// Check one file a marker of `step` lists against what the file says
/// about itself: its header decodes (so the header's own CRC32 holds),
/// holds `step`, and describes exactly the file's length. `deep` also
/// re-reads the body against the commit footer's per-field CRCs. Returns
/// the header, or what is wrong (`"missing"` when the file is absent).
pub(crate) fn check_committed_file(
    path: &Path,
    step: u64,
    deep: bool,
) -> Result<FileHeader, String> {
    let f = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err("missing".into()),
        Err(e) => return Err(format!("unreadable: {e}")),
    };
    let len = f.metadata().map_err(|e| format!("stat: {e}"))?.len();
    let header = read_header_prefix(len, |b, off| f.read_exact_at(b, off))
        .map_err(|e| format!("read header: {e}"))
        .and_then(|hdr| decode_header(&hdr).map_err(|e| format!("header: {e}")))?;
    if header.step != step {
        return Err(format!("holds step {}, not {step}", header.step));
    }
    if len != header.expected_committed_size() {
        return Err(format!(
            "{len} bytes on disk, its header describes {}",
            header.expected_committed_size()
        ));
    }
    if deep {
        // Data integrity: the commit footer's per-field checksums,
        // streamed from the file rather than over an image of it.
        commit::verify_committed_file(&f, header.expected_file_size())
            .map_err(|e| format!("read body: {e}"))?
            .map_err(|what| what.to_string())?;
    }
    Ok(header)
}

/// Publish a generation: its one commit marker, through the tmp + CRC
/// footer + rename commit path so a crash mid-publish never leaves a
/// half-written marker that a restart could trust. Runs on the campaign
/// thread (direct path) or the drain thread (tiered path) once the files
/// are on the PFS, and opens none of them.
fn publish_generation(
    dir: &Path,
    step: u64,
    specs: &[(String, String)],
    recovered: &[String],
    fsync: bool,
    faults: &FaultPlan,
) -> io::Result<()> {
    // A file the drain `recovered` from the burst tier after local-tier
    // loss lands `tierloss:burst`, classifying the generation Degraded.
    let body = marker_body(
        step,
        specs.iter().map(|(name, landing)| {
            let landing = if recovered.contains(name) {
                "tierloss:burst"
            } else {
                landing
            };
            (name.as_str(), landing)
        }),
    );
    commit::commit_text_with_faults(&commit_path(dir, step), &body, fsync, faults, MANAGER_RANK)?;
    if fsync {
        // The durability promise the crash sweep holds restores to:
        // from here on, losing this generation is a contract breach.
        sched::emit(|| Event::GenDurable { step });
    }
    Ok(())
}

/// Garbage-collect the `*.tmp` siblings a crashed run can leave in the
/// checkpoint directory (a writer died between open and commit). Every
/// reaped file counts toward the `gc_orphans` profile counter.
fn gc_orphans(dir: &Path) -> Result<u64, ManagerError> {
    let mut removed = 0u64;
    for name in commit::list(dir)? {
        if name.ends_with(commit::TMP_SUFFIX) && commit::remove(&dir.join(name))? {
            removed += 1;
        }
    }
    if removed > 0 {
        rbio_profile::counters::add_gc_orphans(removed);
    }
    Ok(removed)
}

impl CheckpointManager {
    /// A manager for `layout` under `cfg.dir` (created if needed). A
    /// `cfg.keep` of 0 is an `InvalidInput` error, refused before anything
    /// is created.
    pub fn new(layout: DataLayout, cfg: ManagerConfig) -> Result<Self, ManagerError> {
        if cfg.keep == 0 {
            return Err(ManagerError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "keep must retain at least one step",
            )));
        }
        fs::create_dir_all(&cfg.dir)?;
        let engine = match &cfg.tier {
            Some(t) => {
                fs::create_dir_all(&t.local_dir)?;
                if let Some(b) = &t.burst_dir {
                    fs::create_dir_all(b)?;
                }
                Some(TierEngine::new(t.retain))
            }
            None => None,
        };
        // Startup GC: a crashed predecessor's half-written `.tmp`
        // siblings are dead weight — no marker references them.
        gc_orphans(&cfg.dir)?;
        Ok(CheckpointManager {
            cfg,
            layout,
            engine,
            pool: BufPool::global().child(),
        })
    }

    /// The drain engine, when a tier is configured — for failure drills
    /// ([`TierEngine::lose_local_between_hops`]) and drain observation in
    /// tests.
    pub fn tier_engine(&self) -> Option<&Arc<TierEngine>> {
        self.engine.as_ref()
    }

    /// The layout being checkpointed.
    pub fn layout(&self) -> &DataLayout {
        &self.layout
    }

    /// The pool the manager's payloads and restores are leased from
    /// (observability: what it retains between generations).
    pub fn buf_pool(&self) -> &BufPool {
        &self.pool
    }

    fn plan_for(&self, step: u64) -> Result<CheckpointPlan, ManagerError> {
        CheckpointSpec::new(self.layout.clone(), step_prefix(step))
            .strategy(self.cfg.strategy)
            .tuning(self.cfg.tuning)
            .step(step)
            .plan()
            .map_err(ManagerError::Plan)
    }

    /// Write checkpoint `step` with field data from `fill`, commit it
    /// atomically, then rotate old steps. Returns the executor report.
    ///
    /// `fill(rank, field, block)` writes into a recycled buffer of the
    /// manager's own, not zeroed first: a byte it does not write holds a
    /// zero or a byte this manager checkpointed or restored before, never
    /// another caller's.
    pub fn checkpoint(
        &self,
        step: u64,
        fill: impl FnMut(u32, usize, &mut [u8]),
    ) -> Result<ExecReport, ManagerError> {
        let plan = self.plan_for(step)?;
        let payloads = materialize_payloads_in(&self.pool, &plan, fill);
        let mut exec_cfg = ExecConfig::new(&self.cfg.dir);
        exec_cfg.fsync_on_close = self.cfg.fsync;
        exec_cfg.faults = self.cfg.faults.clone();
        if self.cfg.failover {
            exec_cfg.failover = FailoverPolicy::from_recv_timeout(exec_cfg.recv_timeout);
        }
        // Tiered path: atomic files divert into a stage that holds the
        // writers' payload slices, and the background engine drains
        // them to the PFS later.
        let tiered = self
            .cfg
            .tier
            .as_ref()
            .zip(self.engine.as_ref())
            .map(|(tier, engine)| {
                let stage = Arc::new(TierStage::with_budget(step, tier.slab_capacity));
                exec_cfg.stage = Some(Arc::clone(&stage));
                (tier, engine, stage)
            });
        let report = match execute(&plan.program, payloads, &exec_cfg) {
            Ok(r) => r,
            Err(e) => {
                // Abort cleanly: reap the aborted step's half-written
                // `.tmp` files so a full device or dead writer never
                // latches partial state — the prior committed generation
                // stays the newest visible one. Final-named files are
                // never touched: anything already committed for this step
                // is unreferenced without a marker and harmless.
                self.abort_step_cleanup(step);
                return Err(ManagerError::Exec(e));
            }
        };

        // Per-file marker entries, `(name, landing)`: the marker records
        // which writer landed each file, so any committed generation can
        // be classified Complete vs Degraded. A file's header owner is the
        // rank that commits it.
        let specs: Vec<(String, String)> = plan
            .plan_files
            .iter()
            .enumerate()
            .map(|(i, pf)| {
                let owner = plan
                    .payload_meta
                    .iter()
                    .position(|m| m.header_for_file == Some(i))
                    .unwrap_or(0) as u32;
                let landing = match report.failovers.iter().find(|(orphan, _)| *orphan == owner) {
                    Some((_, successor)) => format!("failover:{successor}"),
                    None => "primary".to_string(),
                };
                (pf.name.clone(), landing)
            })
            .collect();

        if let Some((tier, engine, stage)) = tiered {
            // Tiered path: the step is *perceived* complete here — bytes
            // are held by the local stage — but only durable once the
            // drain engine lands every file on the PFS and publishes the
            // marker from the drain thread.
            let dir = self.cfg.dir.clone();
            let fsync = self.cfg.fsync;
            let faults = self.cfg.faults.clone();
            engine.submit(DrainJob {
                step,
                stage,
                pfs_dir: self.cfg.dir.clone(),
                burst_dir: tier.burst_dir.clone(),
                fsync: tier.fsync,
                publish: Box::new(move |recovered| {
                    publish_generation(&dir, step, &specs, recovered, fsync, &faults)
                }),
            });
        } else {
            // Direct path: the marker, published on this thread.
            publish_generation(
                &self.cfg.dir,
                step,
                &specs,
                &[],
                self.cfg.fsync,
                &self.cfg.faults,
            )?;
        }
        // Both paths prune here, so a campaign that never waits for
        // durability still rotates: on the tiered path, what the drain
        // has published by now.
        self.rotate()?;
        Ok(report)
    }

    /// Best-effort removal of an aborted step's `.tmp` siblings. Errors
    /// are swallowed — the abort itself is the news, and anything missed
    /// here is reaped by the next manager's startup GC.
    fn abort_step_cleanup(&self, step: u64) {
        let mut removed = 0u64;
        for name in commit::list(&self.cfg.dir).unwrap_or_default() {
            if of_step(&name, step) && name.ends_with(commit::TMP_SUFFIX) {
                removed += u64::from(commit::remove(&self.cfg.dir.join(name)).unwrap_or(false));
            }
        }
        if removed > 0 {
            rbio_profile::counters::add_gc_orphans(removed);
        }
    }

    /// Block until `step` is durable on the PFS tier, then rotate old
    /// generations. Without a tier this is a no-op: the direct path is
    /// synchronously durable at [`CheckpointManager::checkpoint`]
    /// return. A generation that can never drain (local tier lost with
    /// no burst copy) surfaces here as [`ManagerError::Tier`]; older
    /// committed generations remain restorable.
    pub fn wait_durable(&self, step: u64) -> Result<(), ManagerError> {
        if let Some(engine) = &self.engine {
            engine.wait_durable(step).map_err(ManagerError::Tier)?;
            self.rotate()?;
        }
        Ok(())
    }

    /// Committed steps present, ascending. Entries that vanish while the
    /// directory is being listed (concurrent GC, another manager) are
    /// skipped; any other error propagates as a typed [`ManagerError::Io`].
    pub fn committed_steps(&self) -> Result<Vec<u64>, ManagerError> {
        let mut steps: Vec<u64> = commit::list(&self.cfg.dir)?
            .iter()
            .filter_map(|name| marker_step(name))
            .collect();
        steps.sort_unstable();
        Ok(steps)
    }

    /// Delete everything but the newest `keep` committed steps (markers
    /// first, then each file and its burst copy, so a partial delete still
    /// looks uncommitted). Tolerates entries deleted out from under it — a
    /// concurrent GC removing the same old generation is success, not an
    /// error — and a burst directory that does not exist yet.
    fn rotate(&self) -> Result<(), ManagerError> {
        let steps = self.committed_steps()?;
        let old = &steps[..steps.len().saturating_sub(self.cfg.keep)];
        if old.is_empty() {
            return Ok(());
        }
        for &step in old {
            commit::remove(&commit_path(&self.cfg.dir, step))?;
        }
        // `of_step`'s test, each prefix formatted once. A drained file's
        // burst copy has its name.
        let prefixes: Vec<String> = old.iter().map(|&s| step_prefix(s) + ".").collect();
        let burst = self.cfg.tier.as_ref().and_then(|t| t.burst_dir.as_deref());
        for name in commit::list(&self.cfg.dir)? {
            if prefixes.iter().any(|p| name.starts_with(p.as_str())) {
                commit::remove(&self.cfg.dir.join(&name))?;
                if let Some(bdir) = burst {
                    commit::remove(&bdir.join(name))?;
                }
            }
        }
        Ok(())
    }

    /// Verify a committed step: its marker, then every file it lists
    /// against the file's own header and commit footer. No marker is
    /// [`ManagerError::NothingToRestore`]; a marker that exists but cannot
    /// be read is [`ManagerError::Io`].
    pub fn verify(&self, step: u64) -> Result<(), ManagerError> {
        self.verified_marker(step).map(drop)
    }

    /// [`CheckpointManager::read_marker`] for `step`, then each file it
    /// lists through [`check_committed_file`], body bytes included.
    /// Returns whether the generation landed degraded.
    fn verified_marker(&self, step: u64) -> Result<bool, ManagerError> {
        let plan = self.plan_for(step)?;
        let degraded = self.read_marker(&plan)?;
        for pf in &plan.plan_files {
            check_committed_file(&self.cfg.dir.join(&pf.name), step, true)
                .map_err(|why| ManagerError::CommitMismatch(format!("{}: {why}", pf.name)))?;
        }
        Ok(degraded)
    }

    /// Read the marker of `plan`'s step: its CRC footer, then its lines,
    /// which must list the plan's files in order. A marker without a
    /// valid footer is torn. Returns whether any file landed other than
    /// `primary` (`failover:S` or `tierloss:burst`).
    fn read_marker(&self, plan: &CheckpointPlan) -> Result<bool, ManagerError> {
        let mismatch = |why| ManagerError::CommitMismatch(format!("commit marker: {why}"));
        let marker = commit::read_committed_text(&commit_path(&self.cfg.dir, plan.step)).map_err(
            |e| match e.kind() {
                io::ErrorKind::NotFound => ManagerError::NothingToRestore,
                io::ErrorKind::InvalidData => mismatch(e.to_string()),
                _ => ManagerError::Io(e),
            },
        )?;
        let files = marker_files(&marker, plan.step).map_err(mismatch)?;
        let names = files.iter().map(|(name, _)| *name);
        if !names.eq(plan.plan_files.iter().map(|pf| pf.name.as_str())) {
            return Err(mismatch("does not list the plan's files".into()));
        }
        Ok(files.iter().any(|(_, landing)| *landing != "primary"))
    }

    /// Classify a committed generation: [`GenerationState::Torn`] if it
    /// fails [`CheckpointManager::verify`], otherwise Complete or
    /// Degraded per the landings in its marker (any file not landed
    /// `primary` degrades it).
    pub fn generation_state(&self, step: u64) -> GenerationState {
        match self.verified_marker(step) {
            Err(_) => GenerationState::Torn,
            Ok(true) => GenerationState::Degraded,
            Ok(false) => GenerationState::Complete,
        }
    }

    /// Restore the newest restorable step from the nearest tier holding
    /// it: the retained local stage (memory speed), then, newest step
    /// first, the burst copy and the PFS copy. A step needs a marker that
    /// lists the plan's files; the read is then the one check of the
    /// files — header, step and shape against the plan, the exact
    /// committed length, and every region's CRC32C — so each restored
    /// byte is checked once. A torn or missing copy falls through to the
    /// next tier, then to the step before; any other PFS I/O error
    /// propagates. A degraded-but-recoverable step restores normally (its
    /// failover extents carry identical bytes) and is counted in the
    /// profile as a degraded restore.
    pub fn restore_latest(&self) -> Result<RestoredData, ManagerError> {
        // Restore-time GC: a restore means the previous run is over, so
        // its half-written `.tmp` orphans are reapable. Only without a
        // drain engine — a live engine may still be publishing through
        // `.tmp` siblings of its own.
        if self.engine.is_none() {
            gc_orphans(&self.cfg.dir)?;
        }
        // The engine retains a stage only once it is durable: one whose
        // drain failed or is still in flight is not restart state yet.
        if let Some(stage) = self.engine.as_ref().and_then(|e| e.newest_retained()) {
            let plan = self.plan_for(stage.step())?;
            if let Ok(data) = read_checkpoint_staged_in(&self.pool, &plan, &stage) {
                return Ok(self.restored(data, TierId::Local, false));
            }
        }
        // Burst copies are full committed files (footer and all), so the
        // same verified read applies to both directories.
        let burst = self.cfg.tier.as_ref().and_then(|t| t.burst_dir.as_deref());
        let dirs = [
            burst.map(|b| (TierId::Burst, b)),
            Some((TierId::Pfs, self.cfg.dir.as_path())),
        ];
        for &step in self.committed_steps()?.iter().rev() {
            let plan = self.plan_for(step)?;
            let Ok(degraded) = self.read_marker(&plan) else {
                continue;
            };
            for &(tier, dir) in dirs.iter().flatten() {
                match read_checkpoint_in(&self.pool, dir, &plan) {
                    Ok(data) => return Ok(self.restored(data, tier, degraded)),
                    Err(RestartError::Io(e))
                        if tier == TierId::Pfs && e.kind() != io::ErrorKind::NotFound =>
                    {
                        return Err(ManagerError::Io(e))
                    }
                    Err(_) => {}
                }
            }
        }
        Err(ManagerError::NothingToRestore)
    }

    /// Count and announce a restore `data` read from `tier`: a tier
    /// restore unless it came from the PFS, a tier event when a tier is
    /// configured, a degraded restore when its marker says so.
    fn restored(&self, data: RestoredData, tier: TierId, degraded: bool) -> RestoredData {
        let step = data.step;
        if tier != TierId::Pfs {
            rbio_profile::counters::add_tier_restores(1);
        }
        if self.engine.is_some() {
            sched::emit(|| Event::TierRestore { step, tier });
        }
        if degraded {
            rbio_profile::counters::add_degraded_generations(1);
        }
        sched::emit(|| Event::RestoreDone { step });
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::materialize_payloads;

    fn mk(name: &str, keep: usize) -> (CheckpointManager, PathBuf) {
        let dir = std::env::temp_dir().join(format!("rbio-mgr-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let layout = DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
        cfg.keep = keep;
        (CheckpointManager::new(layout, cfg).expect("manager"), dir)
    }

    fn fill_for(step: u64) -> impl FnMut(u32, usize, &mut [u8]) {
        move |rank, field, buf| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (step as usize + rank as usize * 3 + field * 7 + i) as u8;
            }
        }
    }

    #[test]
    fn checkpoint_commit_restore_cycle() {
        let (mgr, dir) = mk("cycle", 2);
        mgr.checkpoint(100, fill_for(100)).expect("ck 100");
        assert_eq!(mgr.committed_steps().unwrap(), vec![100]);
        mgr.verify(100).expect("verify");
        let restored = mgr.restore_latest().expect("restore");
        assert_eq!(restored.step, 100);
        assert_eq!(restored.field_data(2, 0)[0], (100 + 6) as u8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_generation_without_fields_vouches_for_itself() {
        // A file with no fields is sealed with one whole-file region; its
        // header must still describe its committed length.
        let dir = std::env::temp_dir().join(format!("rbio-mgr-nofields-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let layout = DataLayout::uniform(8, &[]);
        let mgr = CheckpointManager::new(layout, ManagerConfig::new(&dir, Strategy::rbio(2)))
            .expect("manager");
        mgr.checkpoint(1, |_, _, _| {}).expect("ck 1");
        mgr.verify(1).expect("verify");
        assert_eq!(mgr.generation_state(1), GenerationState::Complete);
        let report = crate::scrub::scrub(&crate::scrub::ScrubConfig::new(&dir)).unwrap();
        assert!(report.clean(), "{:?}", report.damage);
        assert_eq!(mgr.restore_latest().expect("restore").step, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_only_last_k() {
        let (mgr, dir) = mk("rotate", 2);
        for step in [1u64, 2, 3, 4] {
            mgr.checkpoint(step, fill_for(step)).expect("ck");
        }
        assert_eq!(mgr.committed_steps().unwrap(), vec![3, 4]);
        // Files of rotated steps are gone.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !names.iter().any(|n| n.starts_with("step0000000001")),
            "{names:?}"
        );
        let restored = mgr.restore_latest().expect("restore");
        assert_eq!(restored.step, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_latest_falls_back_to_previous() {
        // Damage one file of step 2 after commit, one kind at a time. With
        // no burst copy, the file's own header and length give it away to
        // verify, generation_state and scrub, and restore falls back.
        let (mgr, dir) = mk("torn", 3);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        mgr.checkpoint(2, fill_for(2)).expect("ck 2");
        let marker = commit::read_committed_text(&commit_path(&dir, 2)).unwrap();
        let name = marker_files(&marker, 2).unwrap()[0].0.to_owned();
        let victim = dir.join(&name);
        let healthy = fs::read(&victim).unwrap();
        let older = name.replacen(&step_prefix(2), &step_prefix(1), 1);
        let mut longer = healthy.clone();
        longer.push(0);
        let cases = [
            ("cut to 3 bytes", Some(healthy[..3].to_vec())),
            (
                "cut by one byte",
                Some(healthy[..healthy.len() - 1].to_vec()),
            ),
            ("extended by one byte", Some(longer)),
            (
                "step 1's file of that name",
                Some(fs::read(dir.join(older)).unwrap()),
            ),
            ("deleted", None),
        ];
        for (case, damaged) in cases {
            let kind = match &damaged {
                Some(bytes) => {
                    fs::write(&victim, bytes).unwrap();
                    crate::scrub::DamageKind::TornFile
                }
                None => {
                    commit::remove(&victim).unwrap();
                    crate::scrub::DamageKind::MissingFile
                }
            };
            assert!(
                matches!(mgr.verify(2), Err(ManagerError::CommitMismatch(_))),
                "{case}"
            );
            assert_eq!(mgr.generation_state(2), GenerationState::Torn, "{case}");
            let report = crate::scrub::scrub(&crate::scrub::ScrubConfig::new(&dir)).unwrap();
            assert_eq!(report.damage.len(), 1, "{case}: {:?}", report.damage);
            assert_eq!(report.damage[0].file, name, "{case}");
            assert_eq!(report.damage[0].kind, kind, "{case}");
            let restored = mgr.restore_latest().expect("fallback");
            assert_eq!(restored.step, 1, "{case}");
            fs::write(&victim, &healthy).unwrap();
        }
        assert_eq!(mgr.restore_latest().expect("restore").step, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_step_is_invisible() {
        let (mgr, dir) = mk("uncommitted", 2);
        mgr.checkpoint(5, fill_for(5)).expect("ck 5");
        // Simulate a crash mid-step-6: files exist, marker does not.
        let layout = mgr.layout().clone();
        let plan = CheckpointSpec::new(layout, "step0000000006")
            .strategy(Strategy::rbio(2))
            .step(6)
            .plan()
            .expect("plan");
        let payloads = materialize_payloads(&plan, fill_for(6));
        execute(&plan.program, payloads, &ExecConfig::new(&dir)).expect("write, no commit");
        assert_eq!(mgr.committed_steps().unwrap(), vec![5]);
        let restored = mgr.restore_latest().expect("restore");
        assert_eq!(restored.step, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_writer_mid_step_falls_back_to_previous_generation() {
        let (mgr, dir) = mk("kill", 2);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        let want = mgr.restore_latest().expect("gen 1");

        // Step 2 with a fault armed: writer rank 4 dies after its first
        // written byte — at its commit edge, after data, before rename.
        // Failover is explicitly off: this test pins the pre-failover
        // contract (the step aborts and restart falls back a generation).
        let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.faults = FaultPlan::none().kill_writer_after_bytes(4, 1);
        cfg.failover = false;
        let mgr2 = CheckpointManager::new(mgr.layout().clone(), cfg).expect("manager");
        assert!(
            mgr2.checkpoint(2, fill_for(2)).is_err(),
            "fault must abort the step"
        );

        // The torn step never committed; no final file of step 2 may be
        // half-written (rank 4's stays a .tmp sibling).
        assert_eq!(mgr.committed_steps().unwrap(), vec![1]);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.starts_with("step0000000002") && name.ends_with(".rbio") {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                let h = decode_header(&bytes).expect("published file parses");
                assert!(
                    commit::verify_committed(&bytes, h.expected_file_size()).is_none(),
                    "{name}: published but not fully committed"
                );
            }
        }

        // Restart resumes from generation 1, byte-identically.
        let restored = mgr.restore_latest().expect("fallback");
        assert_eq!(restored.step, 1);
        for r in 0..8u32 {
            for f in 0..2usize {
                assert_eq!(
                    restored.field_data(r, f),
                    want.field_data(r, f),
                    "rank {r} field {f}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_writer_with_failover_completes_degraded_and_restores_identically() {
        // Reference: the same step, same fill, no faults.
        let (ref_mgr, ref_dir) = mk("deg-ref", 2);
        ref_mgr.checkpoint(2, fill_for(2)).expect("reference ck");
        let want = ref_mgr.restore_latest().expect("reference restore");

        // Injected run: writer rank 4 is killed mid-extent; failover (on
        // by default) hands its extent to the surviving writer and the
        // step still commits.
        let dir = std::env::temp_dir().join(format!("rbio-mgr-deg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.faults = FaultPlan::none().kill_writer_after_bytes(4, 1);
        let layout = DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mgr = CheckpointManager::new(layout, cfg).expect("manager");
        let before = rbio_profile::counters::failover_snapshot();
        let report = mgr.checkpoint(2, fill_for(2)).expect("degraded ck");
        assert_eq!(report.failovers.len(), 1, "{:?}", report.failovers);
        assert_eq!(report.failovers[0].0, 4, "rank 4 is the orphan");

        // The generation is committed, verified, and classified
        // degraded via its marker.
        assert_eq!(mgr.committed_steps().unwrap(), vec![2]);
        mgr.verify(2).expect("degraded generation verifies");
        assert_eq!(mgr.generation_state(2), GenerationState::Degraded);
        let marker = commit::read_committed_text(&commit_path(&dir, 2)).expect("marker");
        assert!(marker.contains(" failover:"), "{marker}");

        // Restore is byte-identical to the uninjected reference and
        // counted as a degraded restore.
        let restored = mgr.restore_latest().expect("degraded restore");
        assert_eq!(restored.step, 2);
        for r in 0..8u32 {
            for f in 0..2usize {
                assert_eq!(
                    restored.field_data(r, f),
                    want.field_data(r, f),
                    "rank {r} field {f}"
                );
            }
        }
        let delta = rbio_profile::counters::failover_snapshot().delta_since(&before);
        assert!(delta.failovers >= 1, "{delta:?}");
        assert!(delta.degraded_generations >= 1, "{delta:?}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    #[test]
    fn restore_walks_past_torn_into_degraded_generation() {
        // Three generations: 1 complete, 2 degraded (failover), 3
        // committed then torn after the fact. Restore must skip 3 and
        // pick the degraded-but-recoverable 2, not fall through to 1.
        let dir = std::env::temp_dir().join(format!("rbio-mgr-walk-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let layout = DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
        cfg.keep = 3;
        let mgr = CheckpointManager::new(layout.clone(), cfg.clone()).expect("manager");
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");

        let mut cfg2 = cfg.clone();
        cfg2.faults = FaultPlan::none().kill_writer_after_bytes(4, 1);
        let mgr2 = CheckpointManager::new(layout, cfg2).expect("manager 2");
        let want = {
            let (ref_mgr, ref_dir) = mk("walk-ref", 2);
            ref_mgr.checkpoint(2, fill_for(2)).expect("reference ck");
            let w = ref_mgr.restore_latest().expect("reference restore");
            std::fs::remove_dir_all(&ref_dir).ok();
            w
        };
        mgr2.checkpoint(2, fill_for(2)).expect("ck 2 degraded");
        mgr.checkpoint(3, fill_for(3)).expect("ck 3");

        // Tear generation 3 post-commit.
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("step0000000003")
                    && p.extension().is_some_and(|e| e == "rbio")
            })
            .expect("step-3 file");
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(3).unwrap();
        drop(f);

        assert_eq!(mgr.generation_state(3), GenerationState::Torn);
        assert_eq!(mgr.generation_state(2), GenerationState::Degraded);
        assert_eq!(mgr.generation_state(1), GenerationState::Complete);

        let restored = mgr.restore_latest().expect("restore");
        assert_eq!(restored.step, 2, "newest restorable generation wins");
        for r in 0..8u32 {
            for f in 0..2usize {
                assert_eq!(
                    restored.field_data(r, f),
                    want.field_data(r, f),
                    "rank {r} field {f}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_tolerates_entries_deleted_by_concurrent_manager() {
        let (mgr, dir) = mk("race-gc", 1);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        mgr.checkpoint(2, fill_for(2)).expect("ck 2 + rotate");
        assert_eq!(mgr.committed_steps().unwrap(), vec![2]);
        // Simulate a second manager having partially GC'd an old
        // generation: the marker exists again but (some of) its data
        // files are already gone. Rotation must clean up what is left
        // and not fail on what is not.
        std::fs::write(commit_path(&dir, 1), "step 1\nfiles 0\n").unwrap();
        mgr.rotate().expect("rotate past half-deleted generation");
        assert_eq!(mgr.committed_steps().unwrap(), vec![2]);
        // Same with a data file left behind but its siblings vanished.
        std::fs::write(commit_path(&dir, 1), "step 1\nfiles 0\n").unwrap();
        std::fs::write(dir.join("step0000000001.orphan.rbio"), b"stale").unwrap();
        mgr.rotate().expect("rotate reaps the orphan");
        assert!(!dir.join("step0000000001.orphan.rbio").exists());
        assert_eq!(mgr.committed_steps().unwrap(), vec![2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_and_restore_gc_reap_orphaned_tmps() {
        let (mgr, dir) = mk("gc-orphans", 2);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        drop(mgr);
        // A crashed predecessor left half-written commit tmps behind.
        std::fs::write(dir.join("step0000000002.00000.rbio.tmp"), b"half").unwrap();
        std::fs::write(dir.join("step0000000002.commit.tmp"), b"half").unwrap();
        let before = rbio_profile::counters::scrub_snapshot();
        let mgr = CheckpointManager::new(
            DataLayout::uniform(8, &[("u", 1024), ("v", 256)]),
            ManagerConfig::new(&dir, Strategy::rbio(2)),
        )
        .expect("reopen");
        assert!(
            !dir.join("step0000000002.00000.rbio.tmp").exists(),
            "startup GC must reap orphaned tmps"
        );
        assert!(!dir.join("step0000000002.commit.tmp").exists());
        let delta = rbio_profile::counters::scrub_snapshot().delta_since(&before);
        assert!(
            delta.gc_orphans >= 2,
            "gc_orphans counted {}",
            delta.gc_orphans
        );
        // Orphans appearing later are reaped at restore time too (no
        // tier engine is running, so the sweep is safe).
        std::fs::write(dir.join("step0000000003.00000.rbio.tmp"), b"half").unwrap();
        let restored = mgr.restore_latest().expect("restore");
        assert_eq!(restored.step, 1, "GC must not disturb committed data");
        assert!(
            !dir.join("step0000000003.00000.rbio.tmp").exists(),
            "restore-time GC must reap orphaned tmps"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Checkpoint step 2 beside `mgr`'s generations with the metadata
    /// writer killed once it has written `threshold` bytes. No plan rank
    /// dies, so failover (and its monitor's poll) is off.
    fn meta_kill_at(mgr: &CheckpointManager, threshold: u64) -> Result<ExecReport, ManagerError> {
        let mut cfg = ManagerConfig::new(&mgr.cfg.dir, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.failover = false;
        cfg.faults = FaultPlan::none().kill_writer_after_bytes(MANAGER_RANK, threshold);
        CheckpointManager::new(mgr.layout().clone(), cfg)?.checkpoint(2, fill_for(2))
    }

    #[test]
    fn manager_rank_kill_leaves_no_metadata_final_files() {
        // A generation's metadata is published through the fault layer as
        // MANAGER_RANK. Killing that rank at any byte of it must abort the
        // step with no final-named metadata file (only .tmp siblings),
        // leaving the previous generation authoritative; once the
        // threshold is past every metadata byte, the step commits.
        let (mgr, dir) = mk("meta-kill", 2);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        let metadata = |step| -> Vec<String> {
            commit::list(&dir)
                .unwrap()
                .into_iter()
                .filter(|n| {
                    of_step(n, step) && !n.ends_with(".rbio") && !n.ends_with(commit::TMP_SUFFIX)
                })
                .collect()
        };
        let meta_bytes: u64 = metadata(1)
            .iter()
            .map(|n| fs::metadata(dir.join(n)).unwrap().len())
            .sum();
        for threshold in 1..=meta_bytes + 1 {
            let committed = meta_kill_at(&mgr, threshold).is_ok();
            let left = metadata(2);
            if committed {
                assert_eq!(left, vec![commit_name(2)], "threshold {threshold}");
                assert_eq!(mgr.restore_latest().expect("restore").step, 2);
                std::fs::remove_dir_all(&dir).ok();
                return;
            }
            assert!(left.is_empty(), "threshold {threshold} left {left:?}");
            assert_eq!(mgr.committed_steps().unwrap(), vec![1]);
            let restored = mgr.restore_latest().expect("fallback");
            assert_eq!(restored.step, 1, "threshold {threshold}");
        }
        panic!(
            "no threshold up to {} bytes committed step 2",
            meta_bytes + 1
        );
    }

    #[test]
    fn footerless_and_older_column_markers_are_torn() {
        // A marker is the sealed two-column form or nothing: the same body
        // without its footer, or sealed with three columns per file (the
        // shape before markers recorded landings) or five (name, size,
        // header CRC, owner, landing: the shape before files vouched for
        // themselves), is torn.
        let (mgr, dir) = mk("old-marker", 3);
        mgr.checkpoint(3, fill_for(3)).expect("ck 3");
        mgr.checkpoint(4, fill_for(4)).expect("ck 4");
        let marker = commit::read_committed_text(&commit_path(&dir, 4)).unwrap();
        let files = marker_files(&marker, 4).unwrap();
        let head = "step 4\n".to_owned() + &format!("files {}\n", files.len());
        // The five-column header CRC covered the header and its own
        // stored CRC32, so on every header that decodes it was the
        // CRC-32 residue 2144df1c.
        let sized = |name: &str| fs::metadata(dir.join(name)).unwrap().len();
        let three_columns: String = files
            .iter()
            .map(|(name, _)| format!("{name} {} 2144df1c\n", sized(name)))
            .collect();
        let five_columns: String = files
            .iter()
            .enumerate()
            .map(|(i, (name, landing))| format!("{name} {} 2144df1c {i} {landing}\n", sized(name)))
            .collect();
        for old in [three_columns, five_columns] {
            commit::commit_text(&commit_path(&dir, 4), &(head.clone() + &old), false).unwrap();
            assert!(matches!(
                mgr.verify(4),
                Err(ManagerError::CommitMismatch(_))
            ));
            assert_eq!(mgr.generation_state(4), GenerationState::Torn);
            assert_eq!(mgr.restore_latest().expect("fallback").step, 3);
        }

        std::fs::write(commit_path(&dir, 4), &marker).unwrap();
        assert!(matches!(
            mgr.verify(4),
            Err(ManagerError::CommitMismatch(_))
        ));
        assert_eq!(mgr.generation_state(4), GenerationState::Torn);
        assert_eq!(mgr.restore_latest().expect("fallback").step, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_marker_cut_at_a_line_boundary_is_torn() {
        // A cut that drops the footer and the last file line leaves
        // whole lines. They must not vouch for the files they no longer
        // name.
        let (mgr, dir) = mk("marker-cut", 3);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        mgr.checkpoint(2, fill_for(2)).expect("ck 2");
        let path = commit_path(&dir, 2);
        let marker = commit::read_committed_text(&path).unwrap();
        let cut = marker.trim_end().rfind('\n').unwrap() + 1;
        assert!(marker[..cut].lines().count() >= 3, "{marker}");
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        assert!(matches!(
            mgr.verify(2),
            Err(ManagerError::CommitMismatch(_))
        ));
        let report = crate::scrub::scrub(&crate::scrub::ScrubConfig::new(&dir)).unwrap();
        assert_eq!(report.damage.len(), 1, "{:?}", report.damage);
        assert_eq!(report.damage[0].file, commit_name(2));
        assert_eq!(report.damage[0].kind, crate::scrub::DamageKind::TornFile);
        assert_eq!(mgr.restore_latest().expect("fallback").step, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_marker_is_an_io_error_not_nothing_to_restore() {
        let (mgr, dir) = mk("marker-eisdir", 2);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        std::fs::create_dir(commit_path(&dir, 3)).unwrap();
        assert!(matches!(mgr.verify(3), Err(ManagerError::Io(_))));
        assert!(matches!(mgr.verify(5), Err(ManagerError::NothingToRestore)));
        // Restore still treats the generation as torn and falls back.
        assert_eq!(mgr.generation_state(3), GenerationState::Torn);
        assert_eq!(mgr.restore_latest().expect("fallback").step, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keep_zero_is_refused_before_anything_is_created() {
        let dir = std::env::temp_dir().join(format!("rbio-mgr-keep0-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
        cfg.keep = 0;
        let layout = DataLayout::uniform(8, &[("u", 1024)]);
        match CheckpointManager::new(layout, cfg) {
            Err(ManagerError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("keep 0 must be refused, got {other:?}"),
        }
        assert!(!dir.exists(), "nothing may be created for a refused config");
    }

    #[test]
    fn rotation_never_claims_the_files_of_a_longer_step_number() {
        // `step1000000000` is a prefix of `step10000000000`: rotating the
        // older generation away must leave every file of the newer one.
        let (mgr, dir) = mk("prefix", 1);
        let (older, newer) = (1_000_000_000, 10_000_000_000);
        mgr.checkpoint(older, fill_for(older)).expect("older");
        mgr.checkpoint(newer, fill_for(newer))
            .expect("newer + rotate");
        assert_eq!(mgr.committed_steps().unwrap(), vec![newer]);
        mgr.verify(newer).expect("the kept generation is whole");
        assert_eq!(mgr.restore_latest().expect("restore").step, newer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiered_checkpoint_is_byte_identical_and_restores_from_local_tier() {
        // Direct-to-PFS reference run, same step and fill.
        let (ref_mgr, ref_dir) = mk("tier-ref", 2);
        ref_mgr.checkpoint(7, fill_for(7)).expect("reference ck");
        let want = ref_mgr.restore_latest().expect("reference restore");

        let base = std::env::temp_dir().join(format!("rbio-mgr-tier-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let (pfs, local) = (base.join("pfs"), base.join("local"));
        let layout = DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.tier = Some(crate::tier::TierConfig::new(&local).slab_capacity(1 << 20));
        let mgr = CheckpointManager::new(layout, cfg).expect("manager");
        mgr.checkpoint(7, fill_for(7)).expect("tiered ck");
        mgr.wait_durable(7).expect("drain to PFS");
        assert_eq!(mgr.committed_steps().unwrap(), vec![7]);
        mgr.verify(7).expect("drained generation verifies");
        assert_eq!(mgr.generation_state(7), GenerationState::Complete);

        // Drained PFS bytes are identical to the direct path's.
        let mut compared = 0;
        for entry in std::fs::read_dir(&pfs).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "rbio") {
                let name = p.file_name().unwrap().to_os_string();
                let direct = std::fs::read(ref_dir.join(&name)).expect("direct twin");
                assert_eq!(std::fs::read(&p).unwrap(), direct, "{name:?}");
                compared += 1;
            }
        }
        assert!(compared > 0, "no checkpoint files drained");

        // Restore comes from the retained local stage, byte-identical.
        let before = rbio_profile::counters::tier_snapshot();
        let restored = mgr.restore_latest().expect("tier restore");
        assert_eq!(restored.step, 7);
        for r in 0..8u32 {
            for f in 0..2usize {
                assert_eq!(
                    restored.field_data(r, f),
                    want.field_data(r, f),
                    "rank {r} field {f}"
                );
            }
        }
        let delta = rbio_profile::counters::tier_snapshot().delta_since(&before);
        assert!(delta.tier_restores >= 1, "{delta:?}");
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    #[test]
    fn tier_loss_mid_drain_degrades_generation_and_restores_identically() {
        let (ref_mgr, ref_dir) = mk("tloss-ref", 2);
        ref_mgr.checkpoint(3, fill_for(3)).expect("reference ck");
        let want = ref_mgr.restore_latest().expect("reference restore");

        let base = std::env::temp_dir().join(format!("rbio-mgr-tloss-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let (pfs, local, burst) = (base.join("pfs"), base.join("local"), base.join("burst"));
        let layout = DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.tier = Some(
            crate::tier::TierConfig::new(&local)
                .burst_dir(&burst)
                .slab_capacity(1 << 20),
        );
        let mgr = CheckpointManager::new(layout, cfg).expect("manager");
        // Lose the node-local tier exactly between the burst and PFS
        // hops of the drain: every file must be recovered from its
        // burst copy and the generation lands Degraded, not lost.
        mgr.tier_engine().unwrap().lose_local_between_hops();
        mgr.checkpoint(3, fill_for(3)).expect("staged ck");
        mgr.wait_durable(3).expect("recovered from burst tier");
        assert_eq!(mgr.generation_state(3), GenerationState::Degraded);
        let marker = commit::read_committed_text(&commit_path(&pfs, 3)).expect("marker");
        assert!(marker.contains(" tierloss:burst"), "{marker}");

        // The local tier is gone; restore still succeeds byte-for-byte
        // from the surviving tiers.
        let restored = mgr.restore_latest().expect("degraded restore");
        assert_eq!(restored.step, 3);
        for r in 0..8u32 {
            for f in 0..2usize {
                assert_eq!(
                    restored.field_data(r, f),
                    want.field_data(r, f),
                    "rank {r} field {f}"
                );
            }
        }
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    #[test]
    fn rotation_prunes_the_burst_tier_and_restore_still_falls_back_to_it() {
        let (ref_mgr, ref_dir) = mk("bprune-ref", 2);
        ref_mgr.checkpoint(6, fill_for(6)).expect("reference ck");
        let want = ref_mgr.restore_latest().expect("reference restore");

        let base = std::env::temp_dir().join(format!("rbio-mgr-bprune-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let (pfs, local, burst) = (base.join("pfs"), base.join("local"), base.join("burst"));
        let mgr_layout = || DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.tier = Some(
            crate::tier::TierConfig::new(&local)
                .burst_dir(&burst)
                .slab_capacity(1 << 20),
        );
        let mgr = CheckpointManager::new(mgr_layout(), cfg).expect("manager");
        for step in 1..=6u64 {
            mgr.checkpoint(step, fill_for(step)).expect("ck");
            mgr.wait_durable(step).expect("durable");
        }
        assert_eq!(mgr.committed_steps().unwrap(), vec![5, 6]);
        let data_files = |dir: &Path| {
            let names = commit::list(dir).unwrap();
            names
                .into_iter()
                .filter(|n| marker_step(n).is_none())
                .collect::<Vec<_>>()
        };
        let in_burst = data_files(&burst);
        assert!(!in_burst.is_empty());
        assert_eq!(in_burst, data_files(&pfs), "the newest two generations");
        assert!(
            in_burst.iter().all(|n| of_step(n, 5) || of_step(n, 6)),
            "{in_burst:?}"
        );
        assert_eq!(
            commit::list(&local).unwrap(),
            Vec::<String>::new(),
            "staging leaves nothing at rest"
        );

        // With the local tier gone, restore reads step 6's burst copy.
        mgr.tier_engine().unwrap().lose_local();
        let before = rbio_profile::counters::tier_snapshot();
        let restored = mgr.restore_latest().expect("restore from the burst tier");
        assert_eq!(restored.step, 6);
        for r in 0..8u32 {
            for f in 0..2usize {
                assert_eq!(restored.field_data(r, f), want.field_data(r, f));
            }
        }
        let delta = rbio_profile::counters::tier_snapshot().delta_since(&before);
        assert!(delta.tier_restores >= 1, "{delta:?}");

        // A burst directory that is not there (yet) is nothing to prune.
        drop(mgr);
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.keep = 1;
        cfg.tier = Some(crate::tier::TierConfig::new(&local).burst_dir(base.join("new")));
        let mgr = CheckpointManager::new(mgr_layout(), cfg).expect("second manager");
        std::fs::remove_dir_all(base.join("new")).unwrap();
        mgr.rotate().expect("rotation without a burst directory");
        assert_eq!(mgr.committed_steps().unwrap(), vec![6]);
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    #[test]
    fn a_tiered_campaign_that_never_calls_wait_durable_still_rotates() {
        let base = std::env::temp_dir().join(format!("rbio-mgr-nowait-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let (pfs, local, burst) = (base.join("pfs"), base.join("local"), base.join("burst"));
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.tier = Some(
            crate::tier::TierConfig::new(&local)
                .burst_dir(&burst)
                .slab_capacity(1 << 20),
        );
        let mgr =
            CheckpointManager::new(DataLayout::uniform(8, &[("u", 1024)]), cfg).expect("manager");
        let engine = Arc::clone(mgr.tier_engine().expect("tiered"));
        for step in 1..=6u64 {
            // The engine's own wait publishes the previous step and prunes
            // nothing; only the manager's calls may rotate.
            if step > 1 {
                engine.wait_durable(step - 1).expect("drained");
            }
            mgr.checkpoint(step, fill_for(step)).expect("ck");
        }
        engine.wait_durable(6).expect("drained");
        // Steps 1–5 were published before the last call; of those only
        // the newest two, 4 and 5, may outlive it (6 is newer still).
        let stale = |dir: &Path| {
            let names = commit::list(dir).unwrap();
            names
                .into_iter()
                .filter(|n| (1..=3).any(|s| of_step(n, s)))
                .collect::<Vec<_>>()
        };
        assert_eq!(stale(&pfs), Vec::<String>::new(), "PFS tier");
        assert_eq!(stale(&burst), Vec::<String>::new(), "burst tier");
        assert!(mgr.committed_steps().unwrap().ends_with(&[5, 6]));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_damaged_pfs_file_restores_from_the_intact_burst_copy() {
        let (ref_mgr, ref_dir) = mk("brot-ref", 2);
        ref_mgr.checkpoint(2, fill_for(2)).expect("reference ck");
        let want = ref_mgr.restore_latest().expect("reference restore");

        let base = std::env::temp_dir().join(format!("rbio-mgr-brot-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let (pfs, local, burst) = (base.join("pfs"), base.join("local"), base.join("burst"));
        // Two independent copies, as on two filesystems: a linked pair
        // shares the damage.
        crate::tier::tests::force_copy_hop(&burst);
        let layout = DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.tier = Some(
            crate::tier::TierConfig::new(&local)
                .burst_dir(&burst)
                .slab_capacity(1 << 20),
        );
        let mgr = CheckpointManager::new(layout, cfg).expect("manager");
        for step in 1..=2u64 {
            mgr.checkpoint(step, fill_for(step)).expect("ck");
            mgr.wait_durable(step).expect("durable");
        }
        mgr.tier_engine().unwrap().lose_local();

        // Damage the newest generation's first PFS file, one way at a
        // time. Its burst copy stays intact, so every case restores step 2.
        let marker = commit::read_committed_text(&commit_path(&pfs, 2)).unwrap();
        let victim = pfs.join(marker_files(&marker, 2).unwrap()[0].0);
        let healthy = std::fs::read(&victim).unwrap();
        let flipped = |at: usize| {
            let mut bytes = healthy.clone();
            bytes[at] ^= 0xff;
            bytes
        };
        let cases = [
            ("a body byte flipped", Some(flipped(healthy.len() / 2))),
            ("a header byte flipped", Some(flipped(20))),
            (
                "cut by one byte",
                Some(healthy[..healthy.len() - 1].to_vec()),
            ),
            ("deleted", None),
        ];
        for (case, damaged) in cases {
            match &damaged {
                Some(bytes) => std::fs::write(&victim, bytes).unwrap(),
                None => assert!(commit::remove(&victim).unwrap()),
            }
            assert!(
                matches!(mgr.verify(2), Err(ManagerError::CommitMismatch(_))),
                "{case}"
            );
            let before = rbio_profile::counters::tier_snapshot();
            let restored = mgr.restore_latest().expect("restore from the burst tier");
            assert_eq!(
                restored.step, 2,
                "{case}: the burst copy of the newest step is intact"
            );
            for r in 0..8u32 {
                for f in 0..2usize {
                    assert_eq!(restored.field_data(r, f), want.field_data(r, f), "{case}");
                }
            }
            let delta = rbio_profile::counters::tier_snapshot().delta_since(&before);
            assert!(delta.tier_restores >= 1, "{case}: {delta:?}");
            std::fs::write(&victim, &healthy).unwrap();
        }
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    #[test]
    fn tier_loss_without_burst_fails_step_but_older_generation_survives() {
        let base = std::env::temp_dir().join(format!("rbio-mgr-tfail-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let (pfs, local) = (base.join("pfs"), base.join("local"));
        let layout = DataLayout::uniform(8, &[("u", 1024), ("v", 256)]);
        let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.tier = Some(crate::tier::TierConfig::new(&local).slab_capacity(1 << 20));
        let mgr = CheckpointManager::new(layout, cfg).expect("manager");
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        mgr.wait_durable(1).expect("gen 1 durable");

        mgr.tier_engine().unwrap().lose_local_between_hops();
        mgr.checkpoint(2, fill_for(2))
            .expect("staging itself succeeds");
        assert!(
            matches!(mgr.wait_durable(2), Err(ManagerError::Tier(_))),
            "no burst tier: the lost generation can never become durable"
        );
        assert_eq!(mgr.committed_steps().unwrap(), vec![1]);
        let restored = mgr.restore_latest().expect("older generation");
        assert_eq!(restored.step, 1);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn verify_detects_post_commit_tampering() {
        let (mgr, dir) = mk("tamper", 2);
        mgr.checkpoint(9, fill_for(9)).expect("ck");
        // Corrupt a header byte.
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "rbio"))
            .expect("file");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[20] ^= 0x5A;
        std::fs::write(&victim, bytes).unwrap();
        assert!(matches!(
            mgr.verify(9),
            Err(ManagerError::CommitMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `marker` mutated one way, still ASCII: kind 0 flips the byte at
    /// `at` by `mask`, 1 cuts the text at `at`, and 2–4 drop, double or
    /// add a column to the line at `at`.
    fn mutate(marker: &str, kind: u8, at: usize, mask: u8) -> String {
        let mut lines: Vec<String> = marker.lines().map(str::to_owned).collect();
        let line = at % lines.len();
        match kind {
            0 => {
                let mut bytes = marker.as_bytes().to_vec();
                bytes[at % marker.len()] ^= mask;
                return String::from_utf8(bytes).expect("ASCII stays ASCII");
            }
            1 => return marker[..at % marker.len()].to_owned(),
            2 => drop(lines.remove(line)),
            3 => lines.insert(line, lines[line].clone()),
            _ => lines[line].push_str(" 0"),
        }
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A marker mutated and resealed, so that its footer passes, is
        /// torn: verify, generation_state and scrub say so in typed
        /// results, none panics, and restore falls back to the older step.
        #[test]
        fn a_resealed_mutated_marker_is_torn(kind in 0u8..5, at in 0usize..4096, mask in 1u8..128) {
            let (mgr, dir) = mk("marker-prop", 3);
            mgr.checkpoint(1, fill_for(1)).expect("ck 1");
            mgr.checkpoint(2, fill_for(2)).expect("ck 2");
            let path = commit_path(&dir, 2);
            let marker = commit::read_committed_text(&path).unwrap();
            let mutated = mutate(&marker, kind, at, mask);
            proptest::prop_assert_ne!(&mutated, &marker);
            commit::commit_text(&path, &mutated, false).unwrap();

            proptest::prop_assert!(
                matches!(mgr.verify(2), Err(ManagerError::CommitMismatch(_))),
                "{mutated:?}"
            );
            proptest::prop_assert_eq!(mgr.generation_state(2), GenerationState::Torn);
            let report = crate::scrub::scrub(&crate::scrub::ScrubConfig::new(&dir)).unwrap();
            proptest::prop_assert!(
                !report.clean() && report.damage.iter().all(|d| d.step == Some(2)),
                "{mutated:?}: {:?}",
                report.damage
            );
            proptest::prop_assert_eq!(mgr.restore_latest().expect("fallback").step, 1);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
