//! Workloads 1–3: the application plans a generation itself and runs it
//! through one of the two real interpreters (`exec::execute`, or
//! `rt::run` + `rt::checkpoint_rank_with`), then restarts from the files.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rbio::backend::BackendKind;
use rbio::exec::{execute, ExecConfig, ExecReport};
use rbio::format::materialize_payloads;
use rbio::layout::DataLayout;
use rbio::restart::{read_checkpoint, scan_checkpoint_dir};
use rbio::rt::{self, RtConfig};
use rbio::scrub::ScrubConfig;
use rbio::strategy::{CheckpointPlan, CheckpointSpec, Strategy};

use crate::fill::FieldData;
use crate::trace::Tracer;
use crate::workload::{compare_restored, layout, Campaign, GenTimes, ProbeSizes, Tally, NRANKS};

/// Per-rank field size of the 64 MiB/generation workloads.
pub const FIELD_BYTES: u64 = 2 << 20;

/// Which interpreter runs the plan.
pub enum Engine {
    Exec(ExecConfig),
    Rt(RtConfig),
}

/// The strategy and interpreter set-up of a plan-based workload.
pub type Config = fn(&Path) -> (Strategy, Engine);

/// The config of workload `name`, if it is one of the three here.
pub fn config_for(name: &str) -> Option<Config> {
    match name {
        "rbio_exec" => Some(rbio_exec),
        "pfpp_exec" => Some(pfpp_exec),
        "coio_rt_ring" => Some(coio_rt_ring),
        _ => None,
    }
}

/// `rbio_exec`: rbIO nf = ng = 2 through `exec` at depth 2, threaded.
fn rbio_exec(dir: &Path) -> (Strategy, Engine) {
    let mut cfg = ExecConfig::new(dir)
        .pipeline_depth(2)
        .io_backend(BackendKind::Threaded);
    cfg.fsync_on_close = true;
    (Strategy::rbio(2), Engine::Exec(cfg))
}

/// `pfpp_exec`: one file per rank through `exec`, serial (depth 1).
fn pfpp_exec(dir: &Path) -> (Strategy, Engine) {
    let mut cfg = ExecConfig::new(dir);
    cfg.fsync_on_close = true;
    (Strategy::OnePfpp, Engine::Exec(cfg))
}

/// `coio_rt_ring`: coIO nf = 2 through `rt` at depth 3 on the ring.
fn coio_rt_ring(dir: &Path) -> (Strategy, Engine) {
    let mut cfg = RtConfig::new(dir)
        .pipeline_depth(3)
        .io_backend(BackendKind::Ring);
    cfg.fsync_on_close = true;
    (Strategy::coio(2), Engine::Rt(cfg))
}

/// Record `report.rank_times` (Figs. 9–11) as spans beside the
/// `execute` span they describe. The executor reports each rank's time
/// from its synchronized start, so the spans are anchored at the call's
/// start. `writers` tells writer ranks from worker ranks.
pub fn record_rank_times(
    tr: &mut Tracer,
    gen: u64,
    t_exec: Instant,
    writers: &[u32],
    report: &ExecReport,
) {
    for (rank, d) in report.rank_times.iter().enumerate() {
        let name = if writers.contains(&(rank as u32)) {
            "exec.writer_rank"
        } else {
            "exec.worker_rank"
        };
        tr.record(name, gen, 1 + rank as u32, t_exec, t_exec + *d);
    }
}

/// One generation through `exec`: what the caller gets back.
pub struct ExecGeneration {
    pub plan: CheckpointPlan,
    pub report: ExecReport,
    /// When `execute` was called.
    pub t_exec: Instant,
    /// Seconds from handing over the field data to `execute` returning.
    pub blocked_s: f64,
}

/// Plan, materialize and `execute` one generation with a span around
/// each call.
pub fn exec_generation(
    tr: &mut Tracer,
    gen: u64,
    spec: &CheckpointSpec,
    data: &FieldData,
    cfg: &ExecConfig,
) -> Result<ExecGeneration, String> {
    let t0 = Instant::now();
    let (plan, _) = tr.timed("strategy.plan", gen, || spec.plan());
    let plan = plan.map_err(|e| format!("plan: {e}"))?;
    let (payloads, _) = tr.timed("format.materialize", gen, || {
        materialize_payloads(&plan, |r, f, buf| data.fill(gen, r, f, buf))
    });
    let t_exec = Instant::now();
    let (report, _) = tr.timed("exec.execute", gen, || {
        execute(&plan.program, payloads, cfg)
    });
    let blocked_s = t0.elapsed().as_secs_f64();
    let report = report.map_err(|e| format!("execute: {e}"))?;
    Ok(ExecGeneration {
        plan,
        report,
        t_exec,
        blocked_s,
    })
}

pub struct PlanCampaign<'a> {
    dir: PathBuf,
    layout: DataLayout,
    strategy: Strategy,
    engine: Engine,
    data: &'a FieldData,
    /// Plan of the newest generation (what a restart would read).
    newest: Option<CheckpointPlan>,
    bytes_sent: u64,
    retries: u64,
}

impl<'a> PlanCampaign<'a> {
    pub fn open(dir: &Path, data: &'a FieldData, config: Config) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (strategy, engine) = config(dir);
        Ok(PlanCampaign {
            dir: dir.to_path_buf(),
            layout: layout(FIELD_BYTES),
            strategy,
            engine,
            data,
            newest: None,
            bytes_sent: 0,
            retries: 0,
        })
    }

    /// Two generations stay on disk: prefixes alternate, and a new
    /// generation atomically replaces the one two steps back.
    fn prefix(gen: u64) -> &'static str {
        if gen % 2 == 0 {
            "ckA"
        } else {
            "ckB"
        }
    }

    fn spec(&self, gen: u64) -> CheckpointSpec {
        CheckpointSpec::new(self.layout.clone(), Self::prefix(gen))
            .strategy(self.strategy)
            .step(gen)
    }
}

impl Campaign for PlanCampaign<'_> {
    fn checkpoint(&mut self, gen: u64, tr: &mut Tracer) -> Result<GenTimes, String> {
        tr.enter("driver.checkpoint", gen);
        let spec = self.spec(gen);
        let out = match &self.engine {
            Engine::Exec(cfg) => exec_generation(tr, gen, &spec, self.data, cfg).map(|g| {
                record_rank_times(tr, gen, g.t_exec, &g.plan.program.writer_ranks(), &g.report);
                self.bytes_sent = g.report.bytes_sent;
                self.retries += g.report.retries;
                (g.plan, g.blocked_s)
            }),
            Engine::Rt(cfg) => rt_generation(tr, gen, &spec, self.data, cfg),
        };
        tr.exit();
        let (plan, blocked_s) = out?;
        self.newest = Some(plan);
        // Both interpreters return only after every file is fsynced and
        // renamed: perceived and durable coincide.
        Ok(GenTimes {
            blocked_s,
            durable_s: blocked_s,
        })
    }

    fn restore(&mut self, gen: u64, tr: &mut Tracer, _tally: &mut Tally) -> Result<f64, String> {
        let plan = self.newest.as_ref().ok_or("nothing checkpointed yet")?;
        tr.enter("driver.restore", gen);
        let (got, secs) = tr.timed("restart.read_checkpoint", gen, || {
            read_checkpoint(&self.dir, plan)
        });
        if tr.enabled() {
            let (scan, _) = tr.timed("restart.scan", gen, || {
                scan_checkpoint_dir(&self.dir, Self::prefix(gen))
            });
            scan.map_err(|e| format!("scan_checkpoint_dir: {e}"))?;
        }
        tr.exit();
        let got = got.map_err(|e| format!("read_checkpoint: {e}"))?;
        compare_restored(self.data, gen, &got)?;
        Ok(secs)
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("exec.bytes_sent", self.bytes_sent as f64),
            ("exec.retries", self.retries as f64),
        ];
        if let Some(plan) = &self.newest {
            out.push(("strategy.plan_ops", plan.program.stats().total_ops as f64));
            out.push(("strategy.plan_files", plan.plan_files.len() as f64));
        }
        out
    }

    fn gen_bytes(&self) -> u64 {
        self.data.total_bytes()
    }

    fn scrub_targets(&self) -> Vec<ScrubConfig> {
        vec![ScrubConfig::new(&self.dir)]
    }

    fn probe_sizes(&self) -> ProbeSizes {
        let nfiles = self
            .newest
            .as_ref()
            .map_or(1, |p| p.plan_files.len().max(1));
        let file = (self.gen_bytes() as usize) / nfiles;
        match &self.engine {
            // One write per field per file.
            Engine::Exec(cfg) => ProbeSizes {
                chunk: file / crate::workload::FIELDS.len(),
                file,
                depth: cfg.pipeline_depth,
            },
            // Collective file domains are cut at the 4 MiB block size.
            Engine::Rt(cfg) => ProbeSizes {
                chunk: 4 << 20,
                file,
                depth: cfg.pipeline_depth,
            },
        }
    }
}

/// Plan, materialize and run one generation on `rt`: one application
/// thread per rank, each making the collective checkpoint call and
/// timing it from inside.
fn rt_generation(
    tr: &mut Tracer,
    gen: u64,
    spec: &CheckpointSpec,
    data: &FieldData,
    cfg: &RtConfig,
) -> Result<(CheckpointPlan, f64), String> {
    let t0 = Instant::now();
    let (plan, _) = tr.timed("strategy.plan", gen, || spec.plan());
    let plan = plan.map_err(|e| format!("plan: {e}"))?;
    let (payloads, _) = tr.timed("format.materialize", gen, || {
        materialize_payloads(&plan, |r, f, buf| data.fill(gen, r, f, buf))
    });
    tr.enter("rt.run", gen);
    let ranks = rt::run(NRANKS, |mut comm| {
        let rank = comm.rank() as usize;
        let a = Instant::now();
        let res = rt::checkpoint_rank_with(&mut comm, &plan.program, &payloads[rank], cfg);
        (res.map_err(|e| e.to_string()), a, Instant::now())
    });
    let blocked_s = t0.elapsed().as_secs_f64();
    for (rank, (_, a, b)) in ranks.iter().enumerate() {
        tr.record("rt.checkpoint_rank", gen, 1 + rank as u32, *a, *b);
    }
    tr.exit();
    for (rank, (res, _, _)) in ranks.into_iter().enumerate() {
        res.map_err(|e| format!("rank {rank}: {e}"))?;
    }
    Ok((plan, blocked_s))
}
