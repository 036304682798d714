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
//!   (with per-file sizes and header CRCs) after all writes complete.
//! * **rotation** — keep the last `k` complete steps, deleting older ones
//!   *only after* a newer step committed.
//! * **latest-step discovery** — a restarting job scans the directory and
//!   picks the newest committed step, verifying it before trusting it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::commit;
use crate::exec::{execute, ExecConfig, ExecError, ExecReport};
use crate::failover::FailoverPolicy;
use crate::fault::FaultPlan;
use crate::format::{
    crc32, declared_header_len, decode_header, footer_len, materialize_payloads, read_header_prefix,
};
use crate::layout::DataLayout;
use crate::restart::{read_checkpoint, read_checkpoint_staged, RestartError, RestoredData};
use crate::sched::{self, Event, TierId};
use crate::strategy::{CheckpointPlan, CheckpointSpec, Strategy, Tuning};
use crate::tier::{DrainJob, SlabPool, TierConfig, TierEngine, TierError, TierStage};
use rbio_plan::Rank;

/// The fault-injection rank identity of the manager's own metadata
/// commits (manifest + marker). Distinct from every plan writer rank and
/// from [`crate::tier::DRAIN_RANK`], so tests can kill the campaign
/// layer's commit path specifically.
pub const MANAGER_RANK: Rank = Rank::MAX;

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
    /// The commit marker disagrees with the files on disk.
    CommitMismatch(String),
    /// The staging tier failed (slab full, drain failure, tier loss
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
    pub dir: PathBuf,
    /// Strategy for every step.
    pub strategy: Strategy,
    /// Tuning for every step.
    pub tuning: Tuning,
    /// Number of committed steps to retain (≥1).
    pub keep: usize,
    /// Application name stored in headers.
    pub app: String,
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
    /// stage into a pre-allocated local slab at memory speed and a
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
            app: "nekcem".to_string(),
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
}

fn step_prefix(step: u64) -> String {
    format!("step{step:010}")
}

/// File name of `step`'s commit marker.
pub(crate) fn commit_name(step: u64) -> String {
    format!("{}.commit", step_prefix(step))
}

/// File name of `step`'s generation manifest.
pub(crate) fn manifest_name(step: u64) -> String {
    format!("{}.manifest", step_prefix(step))
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

fn manifest_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(manifest_name(step))
}

/// The `name size header-crc` lines [`marker_body`] wrote after a
/// marker's two header lines; `Err` carries a line that does not parse.
pub(crate) fn marker_files(marker: &str) -> impl Iterator<Item = Result<(&str, u64, &str), &str>> {
    marker.lines().skip(2).map(|line| {
        let mut parts = line.split_whitespace();
        let (name, size, crc) = (parts.next(), parts.next(), parts.next());
        match (name, size.and_then(|s| s.parse().ok()), crc) {
            (Some(name), Some(size), Some(crc)) => Ok((name, size, crc)),
            _ => Err(line),
        }
    })
}

/// Check one marker-referenced file against what the marker recorded:
/// its size, then the CRC of its header region. `deep` also re-reads
/// the whole body and re-verifies the commit footer's per-field CRCs.
/// Returns the bytes deep-verified, or what is wrong (`"missing"` when
/// the file is absent).
pub(crate) fn check_committed_file(
    path: &Path,
    want_size: u64,
    want_crc: &str,
    deep: bool,
) -> Result<u64, String> {
    let meta = match fs::metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err("missing".into()),
        Err(e) => return Err(format!("unreadable: {e}")),
    };
    if meta.len() != want_size {
        return Err(format!(
            "size {} on disk, marker recorded {want_size}",
            meta.len()
        ));
    }
    let f = fs::File::open(path).map_err(|e| format!("open: {e}"))?;
    let hdr = read_header_prefix(&f, meta.len()).map_err(|e| format!("read header: {e}"))?;
    if declared_header_len(&hdr).is_none() {
        return Err("too short for a header".into());
    }
    if format!("{:08x}", crc32(&hdr)) != want_crc {
        return Err("header CRC changed since commit".into());
    }
    if !deep {
        return Ok(0);
    }
    // Data integrity: the commit footer's per-field checksums, streamed
    // from the file rather than over an image of it.
    let header = decode_header(&hdr).map_err(|e| format!("header: {e}"))?;
    match commit::verify_committed_file(&f, header.expected_file_size()) {
        Ok(Ok(())) => Ok(meta.len()),
        Ok(Err(what)) => Err(what.to_string()),
        Err(e) => Err(format!("read body: {e}")),
    }
}

/// Remove `path`, treating "already gone" as success: during generation
/// scans and GC another process (or an earlier crashed GC) may legally
/// have deleted an entry between listing and removal. Returns whether
/// this call did the deleting; any error other than `NotFound` is real
/// (permissions, EISDIR, I/O) and propagates.
fn remove_if_exists(path: &Path) -> io::Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// A `read_dir` entry error for something that vanished mid-iteration.
fn entry_vanished(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::NotFound
}

/// Per-file commit-marker expectations: `(name, expected size on disk
/// including the checksum footer, header length to CRC)`.
type MarkerSpec = (String, u64, u64);

/// Build the commit-marker body by checking every published file against
/// its spec. Runs on the campaign thread (direct path) or the drain
/// thread (tiered path) once the files are on the PFS.
fn marker_body(dir: &Path, step: u64, specs: &[MarkerSpec]) -> Result<String, ManagerError> {
    let mut body = String::new();
    body.push_str(&format!("step {step}\nfiles {}\n", specs.len()));
    for (name, expect, hdr_len) in specs {
        let path = dir.join(name);
        let meta = fs::metadata(&path)?;
        if meta.len() != *expect {
            return Err(ManagerError::CommitMismatch(format!(
                "{name}: {} bytes on disk, plan wrote {expect}",
                meta.len(),
            )));
        }
        // CRC the header region only (data integrity is the header
        // CRC + size check; whole-file CRCs would double write time).
        let mut hdr = vec![0u8; (*hdr_len).min(meta.len()) as usize];
        use std::os::unix::fs::FileExt;
        fs::File::open(&path)?.read_exact_at(&mut hdr, 0)?;
        body.push_str(&format!("{name} {} {:08x}\n", meta.len(), crc32(&hdr)));
    }
    Ok(body)
}

/// Rewrite manifest ownership lines for extents whose PFS copy was
/// recovered from the burst tier after local-tier loss: ` primary`
/// becomes ` tierloss:burst`, classifying the generation Degraded.
fn amend_manifest_for_tier_loss(manifest: &str, recovered: &[String]) -> String {
    if recovered.is_empty() {
        return manifest.to_string();
    }
    let mut out = String::with_capacity(manifest.len() + 16 * recovered.len());
    for line in manifest.lines() {
        let name = line.split_whitespace().next().unwrap_or("");
        if recovered.iter().any(|r| r == name) {
            if let Some(prefix) = line.strip_suffix(" primary") {
                out.push_str(prefix);
                out.push_str(" tierloss:burst\n");
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Publish a generation: manifest first (an aborted publish may leave a
/// manifest without a marker; the prefix GC reaps it), then the commit
/// marker. Both go through the tmp + CRC footer + rename commit path so
/// a crash mid-publish never leaves a half-written metadata file that a
/// restart could trust.
fn publish_generation(
    dir: &Path,
    step: u64,
    manifest: &str,
    specs: &[MarkerSpec],
    recovered: &[String],
    fsync: bool,
    faults: &FaultPlan,
) -> io::Result<()> {
    let manifest = amend_manifest_for_tier_loss(manifest, recovered);
    commit::commit_text_with_faults(
        &manifest_path(dir, step),
        &manifest,
        fsync,
        faults,
        MANAGER_RANK,
    )?;
    let body = marker_body(dir, step, specs).map_err(|e| io::Error::other(e.to_string()))?;
    commit::commit_text_with_faults(&commit_path(dir, step), &body, fsync, faults, MANAGER_RANK)?;
    if fsync {
        // The durability promise the crash sweep holds restores to:
        // from here on, losing this generation is a contract breach.
        sched::emit(|| Event::GenDurable { step });
    }
    Ok(())
}

/// Remove every file in `dir` whose name ends with `suffix`, tolerating
/// concurrent deletion. Returns how many this call removed.
fn reap_suffix(dir: &Path, suffix: &str) -> Result<u64, ManagerError> {
    let mut victims = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = match entry {
            Ok(e) => e,
            Err(e) if entry_vanished(&e) => continue,
            Err(e) => return Err(ManagerError::Io(e)),
        };
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(suffix) {
            victims.push(entry.path());
        }
    }
    let mut removed = 0u64;
    for victim in victims {
        if remove_if_exists(&victim)? {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Garbage-collect orphans a crashed run can leave behind: `*.tmp`
/// siblings in the checkpoint directory (a writer died between open and
/// commit) and, when given, `*.slab` staging files in the tier's local
/// directory (slabs are only meaningful to the engine instance that
/// created them — a fresh manager can never drain a dead one's slab).
/// Every reaped file counts toward the `gc_orphans` profile counter.
fn gc_orphans(dir: &Path, slab_dir: Option<&Path>) -> Result<u64, ManagerError> {
    let mut removed = reap_suffix(dir, commit::TMP_SUFFIX)?;
    if let Some(sd) = slab_dir {
        removed += reap_suffix(sd, ".slab")?;
    }
    if removed > 0 {
        rbio_profile::counters::add_gc_orphans(removed);
    }
    Ok(removed)
}

impl CheckpointManager {
    /// A manager for `layout` under `cfg.dir` (created if needed).
    pub fn new(layout: DataLayout, cfg: ManagerConfig) -> Result<Self, ManagerError> {
        fs::create_dir_all(&cfg.dir)?;
        assert!(cfg.keep >= 1, "must keep at least one step");
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
        // siblings and its unreferenced staging slabs are dead weight —
        // no marker references them, and this engine cannot drain them.
        gc_orphans(&cfg.dir, cfg.tier.as_ref().map(|t| t.local_dir.as_path()))?;
        Ok(CheckpointManager {
            cfg,
            layout,
            engine,
        })
    }

    /// The drain engine, when a tier is configured — for failure drills
    /// ([`TierEngine::lose_local`]) and drain observation in tests.
    pub fn tier_engine(&self) -> Option<&Arc<TierEngine>> {
        self.engine.as_ref()
    }

    /// The layout being checkpointed.
    pub fn layout(&self) -> &DataLayout {
        &self.layout
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
    pub fn checkpoint(
        &self,
        step: u64,
        fill: impl FnMut(u32, usize, &mut [u8]),
    ) -> Result<ExecReport, ManagerError> {
        let plan = self.plan_for(step)?;
        let payloads = materialize_payloads(&plan, fill);
        let mut exec_cfg = ExecConfig::new(&self.cfg.dir);
        exec_cfg.fsync_on_close = self.cfg.fsync;
        exec_cfg.faults = self.cfg.faults.clone();
        if self.cfg.failover {
            exec_cfg.failover = FailoverPolicy::from_recv_timeout(exec_cfg.recv_timeout);
        }
        // Tiered path: atomic files divert into a pre-allocated local
        // slab; the background engine drains them to the PFS later.
        let stage = match &self.cfg.tier {
            Some(t) => {
                let slab_path = t.local_dir.join(format!("{}.slab", step_prefix(step)));
                let pool = SlabPool::create(&slab_path, t.slab_capacity)?;
                let stage = Arc::new(TierStage::new(step, Arc::new(pool)));
                exec_cfg.stage = Some(Arc::clone(&stage));
                Some(stage)
            }
            None => None,
        };
        let report = match execute(&plan.program, payloads, &exec_cfg) {
            Ok(r) => r,
            Err(e) => {
                // Abort cleanly: reap the aborted step's half-written
                // `.tmp` files (and its staging slab) so a full device
                // or dead writer never latches partial state — the
                // prior committed generation stays the newest visible
                // one. Final-named files are never touched: anything
                // already committed for this step is unreferenced
                // without a marker and harmless.
                self.abort_step_cleanup(step);
                return Err(ManagerError::Exec(e));
            }
        };

        // Generation manifest: which writer actually landed each extent.
        // Written before the commit marker (an aborted step may leave a
        // manifest without a marker; the prefix GC reaps it), so any
        // committed generation can be classified Complete vs Degraded.
        let mut manifest = String::new();
        manifest.push_str(&format!("step {step}\nextents {}\n", plan.plan_files.len()));
        for (i, pf) in plan.plan_files.iter().enumerate() {
            let owner = plan
                .program
                .ops
                .iter()
                .position(|ops| {
                    ops.iter().any(
                        |op| matches!(op, rbio_plan::Op::Commit { file } if file.0 as usize == i),
                    )
                })
                .unwrap_or(0) as u32;
            match report.failovers.iter().find(|(orphan, _)| *orphan == owner) {
                Some((_, successor)) => {
                    manifest.push_str(&format!("{} {} failover:{}\n", pf.name, owner, successor));
                }
                None => manifest.push_str(&format!("{} {} primary\n", pf.name, owner)),
            }
        }
        // Per-file marker expectations: committed files carry a
        // checksum footer past the plan's logical size.
        let specs: Vec<MarkerSpec> = plan
            .plan_files
            .iter()
            .enumerate()
            .map(|(i, pf)| {
                let expect = plan.program.files[i].size + footer_len(plan.layout.nfields());
                let hdr_len = plan
                    .payload_meta
                    .iter()
                    .find(|m| m.header_for_file == Some(i))
                    .map(|m| m.header_len)
                    .unwrap_or(0);
                (pf.name.clone(), expect, hdr_len)
            })
            .collect();

        if let Some(stage) = stage {
            // Tiered path: the step is *perceived* complete here — bytes
            // are safe in the local slab — but only durable once the
            // drain engine lands every file on the PFS and publishes the
            // manifest + marker from the drain thread.
            let engine = self
                .engine
                .as_ref()
                .expect("engine exists when tier is set");
            let tier = self.cfg.tier.as_ref().expect("tier config");
            let dir = self.cfg.dir.clone();
            let fsync = self.cfg.fsync;
            let faults = self.cfg.faults.clone();
            engine.submit(DrainJob {
                step,
                stage: Arc::clone(&stage),
                pfs_dir: self.cfg.dir.clone(),
                burst_dir: tier.burst_dir.clone(),
                fsync: tier.fsync,
                publish: Box::new(move |outcome| {
                    publish_generation(
                        &dir,
                        step,
                        &manifest,
                        &specs,
                        &outcome.recovered_from_burst,
                        fsync,
                        &faults,
                    )
                }),
            });
            return Ok(report);
        }

        // Direct path: manifest then commit marker, both through the
        // tmp + CRC footer + rename commit path so a crash never leaves
        // a half-written metadata file that a restart could trust.
        publish_generation(
            &self.cfg.dir,
            step,
            &manifest,
            &specs,
            &[],
            self.cfg.fsync,
            &self.cfg.faults,
        )?;

        self.rotate()?;
        Ok(report)
    }

    /// Best-effort removal of an aborted step's `.tmp` siblings and its
    /// staging slab. Errors are swallowed — the abort itself is the
    /// news, and anything missed here is reaped by the next manager's
    /// startup GC.
    fn abort_step_cleanup(&self, step: u64) {
        let prefix = step_prefix(step);
        let mut removed = 0u64;
        if let Ok(entries) = fs::read_dir(&self.cfg.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with(&prefix) && name.ends_with(commit::TMP_SUFFIX) {
                    removed += u64::from(remove_if_exists(&entry.path()).unwrap_or(false));
                }
            }
        }
        if let Some(t) = &self.cfg.tier {
            let slab = t.local_dir.join(format!("{prefix}.slab"));
            removed += u64::from(remove_if_exists(&slab).unwrap_or(false));
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
    /// directory is being scanned (concurrent GC, another manager) are
    /// skipped with a warning instead of failing the whole scan; any
    /// other per-entry error propagates as a typed [`ManagerError::Io`].
    pub fn committed_steps(&self) -> Result<Vec<u64>, ManagerError> {
        let mut steps = Vec::new();
        for entry in fs::read_dir(&self.cfg.dir)? {
            let entry = match entry {
                Ok(e) => e,
                Err(e) if entry_vanished(&e) => {
                    eprintln!(
                        "rbio: warning: entry in {} vanished during generation scan (skipped)",
                        self.cfg.dir.display()
                    );
                    continue;
                }
                Err(e) => return Err(ManagerError::Io(e)),
            };
            let name = entry.file_name().to_string_lossy().into_owned();
            steps.extend(marker_step(&name));
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// Delete everything but the newest `keep` committed steps (markers
    /// first, then files, so a partial delete still looks uncommitted).
    /// Tolerates entries deleted out from under it: a concurrent GC
    /// removing the same old generation is success, not an error.
    fn rotate(&self) -> Result<(), ManagerError> {
        let steps = self.committed_steps()?;
        if steps.len() <= self.cfg.keep {
            return Ok(());
        }
        for &old in &steps[..steps.len() - self.cfg.keep] {
            remove_if_exists(&commit_path(&self.cfg.dir, old))?;
            remove_if_exists(&manifest_path(&self.cfg.dir, old))?;
            let prefix = step_prefix(old);
            // List first, then delete: the snapshot keeps the removal
            // set stable even as entries disappear mid-iteration.
            let mut victims = Vec::new();
            for entry in fs::read_dir(&self.cfg.dir)? {
                let entry = match entry {
                    Ok(e) => e,
                    Err(e) if entry_vanished(&e) => continue,
                    Err(e) => return Err(ManagerError::Io(e)),
                };
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with(&prefix)
                    && (name.ends_with(".rbio")
                        || name.ends_with(".rbio.tmp")
                        || name.ends_with(".manifest")
                        || name.ends_with(".manifest.tmp")
                        || name.ends_with(".commit.tmp"))
                {
                    victims.push(entry.path());
                }
            }
            for victim in victims {
                remove_if_exists(&victim)?;
            }
        }
        Ok(())
    }

    /// Verify a committed step's marker against the files on disk.
    pub fn verify(&self, step: u64) -> Result<(), ManagerError> {
        // Markers carry a CRC footer since the tiering era; plain-text
        // markers from older directories pass through unchanged. A
        // present-but-corrupt footer means a torn marker.
        let marker =
            commit::read_committed_text(&commit_path(&self.cfg.dir, step)).map_err(|e| match e
                .kind()
            {
                io::ErrorKind::InvalidData => {
                    ManagerError::CommitMismatch(format!("commit marker: {e}"))
                }
                _ => ManagerError::NothingToRestore,
            })?;
        for line in marker_files(&marker) {
            let (name, size, crc) = line
                .map_err(|bad| ManagerError::CommitMismatch(format!("bad marker line: {bad}")))?;
            check_committed_file(&self.cfg.dir.join(name), size, crc, true)
                .map_err(|why| ManagerError::CommitMismatch(format!("{name}: {why}")))?;
        }
        Ok(())
    }

    /// Classify a committed generation: [`GenerationState::Torn`] if its
    /// marker/files fail verification, otherwise Complete or Degraded
    /// per the manifest ("failover:" or "tierloss:" extents).
    /// Generations from before manifests existed verify as Complete.
    pub fn generation_state(&self, step: u64) -> GenerationState {
        if self.verify(step).is_err() {
            return GenerationState::Torn;
        }
        match commit::read_committed_text(&manifest_path(&self.cfg.dir, step)) {
            Ok(m) => {
                if m.lines()
                    .skip(2)
                    .any(|l| l.contains(" failover:") || l.contains(" tierloss:"))
                {
                    GenerationState::Degraded
                } else {
                    GenerationState::Complete
                }
            }
            Err(_) => GenerationState::Complete,
        }
    }

    /// Restore the newest committed-and-verified step. Torn steps are
    /// skipped (newest first) so a damaged latest step falls back to the
    /// one before it; a degraded-but-recoverable step restores normally
    /// (its failover extents carry identical bytes) and is counted in
    /// the profile as a degraded restore.
    /// With a tier configured, restore comes from the *nearest* tier
    /// holding a durable copy: the retained local slab (memory speed),
    /// then the burst directory, then the PFS.
    pub fn restore_latest(&self) -> Result<RestoredData, ManagerError> {
        // Restore-time GC: a restore means the previous run is over, so
        // its half-written `.tmp` orphans are reapable. Only without a
        // drain engine — a live engine may still be publishing through
        // `.tmp` siblings of its own.
        if self.engine.is_none() {
            gc_orphans(&self.cfg.dir, None)?;
        }
        // Nearest tier: the newest drained-and-retained local stage.
        // Only durable generations qualify — a stage whose drain failed
        // or is still in flight is not restart state yet.
        if let Some(engine) = &self.engine {
            if let Some(stage) = engine.newest_retained() {
                let step = stage.step();
                if engine.durable_steps().contains(&step) {
                    let plan = self.plan_for(step)?;
                    if let Ok(data) = read_checkpoint_staged(&plan, |name| stage.assemble(name)) {
                        rbio_profile::counters::add_tier_restores(1);
                        sched::emit(|| Event::TierRestore {
                            step,
                            tier: TierId::Local,
                        });
                        sched::emit(|| Event::RestoreDone { step });
                        return Ok(data);
                    }
                }
            }
        }
        let burst = self.cfg.tier.as_ref().and_then(|t| t.burst_dir.as_deref());
        let steps = self.committed_steps()?;
        for &step in steps.iter().rev() {
            let state = self.generation_state(step);
            if state == GenerationState::Torn {
                continue;
            }
            let plan = self.plan_for(step)?;
            // Burst copies are full committed files (footer and all), so
            // the normal verified read path applies; a missing or torn
            // burst copy falls through to the PFS.
            if let Some(bdir) = burst {
                if let Ok(data) = read_checkpoint(bdir, &plan) {
                    rbio_profile::counters::add_tier_restores(1);
                    sched::emit(|| Event::TierRestore {
                        step,
                        tier: TierId::Burst,
                    });
                    if state == GenerationState::Degraded {
                        rbio_profile::counters::add_degraded_generations(1);
                    }
                    sched::emit(|| Event::RestoreDone { step });
                    return Ok(data);
                }
            }
            match read_checkpoint(&self.cfg.dir, &plan) {
                Ok(data) => {
                    if self.engine.is_some() {
                        sched::emit(|| Event::TierRestore {
                            step,
                            tier: TierId::Pfs,
                        });
                    }
                    if state == GenerationState::Degraded {
                        rbio_profile::counters::add_degraded_generations(1);
                    }
                    sched::emit(|| Event::RestoreDone { step });
                    return Ok(data);
                }
                Err(RestartError::Io(e)) => return Err(ManagerError::Io(e)),
                Err(_) => continue,
            }
        }
        Err(ManagerError::NothingToRestore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (mgr, dir) = mk("torn", 3);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        mgr.checkpoint(2, fill_for(2)).expect("ck 2");
        // Damage step 2's data after commit (bit rot / torn write).
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("step0000000002")
                    && p.extension().is_some_and(|e| e == "rbio")
            })
            .expect("step-2 file");
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap();
        f.set_len(3).unwrap();
        drop(f);
        assert!(mgr.verify(2).is_err());
        let restored = mgr.restore_latest().expect("fallback");
        assert_eq!(restored.step, 1);
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
        // degraded via its manifest.
        assert_eq!(mgr.committed_steps().unwrap(), vec![2]);
        mgr.verify(2).expect("degraded generation verifies");
        assert_eq!(mgr.generation_state(2), GenerationState::Degraded);
        let manifest = commit::read_committed_text(&manifest_path(&dir, 2)).expect("manifest");
        assert!(manifest.contains(" failover:"), "{manifest}");

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
    fn remove_if_exists_tolerates_missing_and_surfaces_real_errors() {
        let dir = std::env::temp_dir().join(format!("rbio-mgr-rie-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("gone");
        // A concurrently-deleted entry is success, not a panic or error.
        assert!(!remove_if_exists(&p).expect("missing file is fine"));
        std::fs::write(&p, b"x").unwrap();
        assert!(remove_if_exists(&p).expect("removes existing"));
        assert!(!p.exists());
        // A genuinely unreadable/undeletable entry still surfaces a
        // typed error (here: the target is a non-empty directory).
        let sub = dir.join("subdir");
        std::fs::create_dir(&sub).unwrap();
        std::fs::write(sub.join("f"), b"x").unwrap();
        assert!(remove_if_exists(&sub).is_err());
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
        std::fs::write(dir.join("step0000000001-orphan.rbio"), b"stale").unwrap();
        mgr.rotate().expect("rotate reaps the orphan");
        assert!(!dir.join("step0000000001-orphan.rbio").exists());
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
        std::fs::write(dir.join("step0000000002.manifest.tmp"), b"half").unwrap();
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
        assert!(!dir.join("step0000000002.manifest.tmp").exists());
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

    #[test]
    fn manager_rank_kill_leaves_no_metadata_final_files() {
        // The manifest and marker are published through the fault layer
        // as MANAGER_RANK: killing that rank mid-write must abort the
        // step with neither final metadata name present (only .tmp
        // siblings), leaving the previous generation authoritative.
        let (mgr, dir) = mk("meta-kill", 2);
        mgr.checkpoint(1, fill_for(1)).expect("ck 1");
        let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
        cfg.keep = 2;
        cfg.faults = FaultPlan::none().kill_writer_after_bytes(MANAGER_RANK, 1);
        let mgr2 = CheckpointManager::new(mgr.layout().clone(), cfg).expect("manager");
        assert!(
            mgr2.checkpoint(2, fill_for(2)).is_err(),
            "metadata-writer kill must abort the step"
        );
        assert!(
            !manifest_path(&dir, 2).exists(),
            "killed manifest write must not publish a final manifest"
        );
        assert!(
            !commit_path(&dir, 2).exists(),
            "no marker may exist for the aborted step"
        );
        assert_eq!(mgr.committed_steps().unwrap(), vec![1]);
        let restored = mgr.restore_latest().expect("fallback");
        assert_eq!(restored.step, 1);
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
        let manifest = commit::read_committed_text(&manifest_path(&pfs, 3)).expect("manifest");
        assert!(manifest.contains(" tierloss:burst"), "{manifest}");

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
}
