//! Workload 4, `rbio_mgr_tiered`: the production entry point. The
//! `CheckpointManager` stages into a node-local slab, a background
//! engine drains local → burst → PFS, and only `wait_durable` makes the
//! generation crash-safe — the one workload where perceived ≠ durable.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rbio::exec::ExecConfig;
use rbio::manager::{CheckpointManager, ManagerConfig};
use rbio::scrub::ScrubConfig;
use rbio::strategy::{CheckpointSpec, Strategy};
use rbio::tier::TierConfig;

use crate::fill::FieldData;
use crate::plan_campaign::{exec_generation, record_rank_times};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{compare_restored, layout, Campaign, GenTimes, ProbeSizes, Tally, FIELDS};

/// Per-rank field size: 16 MiB/generation. At 64 MiB/generation the
/// durable time of identical runs ranged 714–1037 ms; at 16 MiB it
/// repeats within a few percent (see README, sizing notes).
pub const FIELD_BYTES: u64 = 512 << 10;

/// Direct `execute` runs of the identical plan that
/// `manager.overhead_ms` is measured against.
const REFERENCE_RUNS: u64 = 5;

pub struct ManagerCampaign<'a> {
    mgr: CheckpointManager,
    dir: PathBuf,
    data: &'a FieldData,
    /// Writer ranks of the plan the manager compiles each step.
    writers: Vec<u32>,
    plan_ops: u64,
    plan_files: u64,
    bytes_sent: u64,
    retries: u64,
}

impl<'a> ManagerCampaign<'a> {
    pub fn open(dir: &Path, data: &'a FieldData) -> Result<Self, String> {
        let gen_bytes = data.total_bytes() as usize;
        let tier = TierConfig::new(dir.join("local"))
            .burst_dir(dir.join("burst"))
            .retain(1)
            .slab_capacity(2 * gen_bytes)
            .fsync(true);
        // keep = 2 and failover = on are the manager's defaults.
        let mut cfg = ManagerConfig::new(dir.join("pfs"), Strategy::rbio(2)).tier(tier);
        cfg.fsync = true;
        let mgr = CheckpointManager::new(layout(FIELD_BYTES), cfg)
            .map_err(|e| format!("CheckpointManager::new: {e}"))?;
        let writers = CheckpointSpec::new(layout(FIELD_BYTES), "writers")
            .strategy(Strategy::rbio(2))
            .plan()
            .map_err(|e| format!("plan: {e}"))?
            .program
            .writer_ranks();
        Ok(ManagerCampaign {
            mgr,
            writers,
            dir: dir.to_path_buf(),
            data,
            plan_ops: 0,
            plan_files: 0,
            bytes_sent: 0,
            retries: 0,
        })
    }
}

impl Campaign for ManagerCampaign<'_> {
    fn checkpoint(&mut self, gen: u64, tr: &mut Tracer) -> Result<GenTimes, String> {
        tr.enter("driver.checkpoint", gen);
        let t0 = Instant::now();
        tr.enter("manager.checkpoint", gen);
        let t_exec = Instant::now();
        let report = self
            .mgr
            .checkpoint(gen, |r, f, buf| self.data.fill(gen, r, f, buf));
        let blocked_s = t0.elapsed().as_secs_f64();
        if let Ok(rep) = &report {
            record_rank_times(tr, gen, t_exec, &self.writers, rep);
            self.bytes_sent = rep.bytes_sent;
            self.retries += rep.retries;
        }
        tr.exit();
        let (durable, _) = tr.timed("manager.wait_durable", gen, || self.mgr.wait_durable(gen));
        let durable_s = t0.elapsed().as_secs_f64();
        tr.exit();
        report.map_err(|e| format!("checkpoint: {e}"))?;
        durable.map_err(|e| format!("wait_durable: {e}"))?;
        Ok(GenTimes {
            blocked_s,
            durable_s,
        })
    }

    fn restore(&mut self, gen: u64, tr: &mut Tracer, tally: &mut Tally) -> Result<f64, String> {
        tr.enter("driver.restore", gen);
        let (got, secs) = tr.timed("manager.restore_latest", gen, || self.mgr.restore_latest());
        let (verified, _) = tr.timed("manager.verify", gen, || self.mgr.verify(gen));
        tr.exit();
        tally.check("verify", verified.map_err(|e| e.to_string()));
        let got = got.map_err(|e| format!("restore_latest: {e}"))?;
        compare_restored(self.data, gen, &got)?;
        Ok(secs)
    }

    /// The same plan and payloads through `execute` directly — no
    /// staging, no failover monitor, no publish — so the manager's own
    /// cost is `checkpoint` minus this.
    fn after_window(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let ref_dir = self.dir.join("reference");
        let mut cfg = ExecConfig::new(&ref_dir);
        cfg.fsync_on_close = true;
        for gen in 1..=REFERENCE_RUNS {
            let spec = CheckpointSpec::new(self.mgr.layout().clone(), "ref")
                .strategy(Strategy::rbio(2))
                .step(gen);
            tr.enter("driver.reference", gen);
            let out = exec_generation(tr, gen, &spec, self.data, &cfg);
            tr.exit();
            if let Some(g) = tally.check("reference execute", out) {
                self.plan_ops = g.plan.program.stats().total_ops;
                self.plan_files = g.plan.plan_files.len() as u64;
            }
        }
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("exec.bytes_sent", self.bytes_sent as f64),
            ("exec.retries", self.retries as f64),
            ("strategy.plan_ops", self.plan_ops as f64),
            ("strategy.plan_files", self.plan_files as f64),
        ]
    }

    fn gen_bytes(&self) -> u64 {
        self.data.total_bytes()
    }

    fn scrub_targets(&self) -> Vec<ScrubConfig> {
        let mut cfg = ScrubConfig::new(self.dir.join("pfs"));
        cfg.burst_dir = Some(self.dir.join("burst"));
        vec![cfg]
    }

    fn probe_sizes(&self) -> ProbeSizes {
        let file = self.gen_bytes() as usize / 2;
        ProbeSizes {
            chunk: file / FIELDS.len(),
            file,
            // The tier's PFS hop registers its drain writer at depth 2.
            depth: 2,
        }
    }
}

/// `manager.overhead_ms`: median `manager.checkpoint` span minus the
/// median direct generation (`driver.reference` span), in ms.
pub fn overhead_ms(tr: &Tracer) -> f64 {
    let reference = tr.durations_ms("driver.reference");
    if reference.is_empty() {
        return 0.0;
    }
    median(&tr.durations_ms("manager.checkpoint")) - median(&reference)
}
