//! What all workloads share: sizes, the closed-loop generation driver,
//! and the samples one run collects.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rbio::layout::DataLayout;
use rbio::restart::RestoredData;
use rbio::scrub::{scrub, ScrubConfig};
use rbio_profile::counters;

use crate::alloc;
use crate::fill::FieldData;
use crate::sysinfo;
use crate::trace::Tracer;

/// Stable workload identifiers, in report order.
pub const NAMES: [&str; 5] = [
    "rbio_exec",
    "pfpp_exec",
    "coio_rt_ring",
    "rbio_mgr_tiered",
    "service_mixed",
];

pub const NRANKS: u32 = 8;
pub const FIELDS: [&str; 4] = ["Ex", "Ey", "Hx", "Hz"];
/// Generations run before the measured window; their time is set-up.
pub const WARMUP: u64 = 5;
/// Set-ups per run; `setup_s` is their median and the last one is kept
/// for the measured window.
pub const SETUPS: usize = 3;
/// Every this-many generations is restored and compared.
pub const RESTORE_EVERY: u64 = 4;

/// One run's parameters.
pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fresh directory this run owns (removed when it ends).
    pub run_dir: PathBuf,
}

impl Opts {
    /// `(seconds, traced)` segments of the measured window. The traced
    /// pass spends its first third untraced, so tracing overhead is a
    /// same-process, same-directory comparison.
    pub fn phases(&self) -> Vec<(f64, bool)> {
        if self.trace {
            vec![
                (self.seconds / 3.0, false),
                (self.seconds * 2.0 / 3.0, true),
            ]
        } else {
            vec![(self.seconds, false)]
        }
    }
}

/// The layout every plan-based workload checkpoints.
pub fn layout(field_bytes: u64) -> DataLayout {
    let fields: Vec<(&str, u64)> = FIELDS.iter().map(|f| (*f, field_bytes)).collect();
    DataLayout::uniform(NRANKS, &fields)
}

/// Operations tried and operations that failed or returned wrong bytes.
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failure is logged and yields `None`.
    pub fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Program-side counters read at both ends of a window segment.
#[derive(Clone, Copy)]
pub struct Counters {
    pub copy: counters::CopySnapshot,
    pub tier: counters::TierSnapshot,
    pub service: counters::ServiceSnapshot,
    pub scrub: counters::ScrubSnapshot,
    pub allocs: (u64, u64),
    /// `(read, write)` syscalls of this process.
    pub syscalls: (u64, u64),
}

impl Counters {
    pub fn read() -> Counters {
        Counters {
            copy: counters::snapshot(),
            tier: counters::tier_snapshot(),
            service: counters::service_snapshot(),
            scrub: counters::scrub_snapshot(),
            allocs: alloc::counts(),
            syscalls: sysinfo::io_syscalls(),
        }
    }

    /// Growth since `prev`.
    pub fn since(&self, prev: &Counters) -> Counters {
        Counters {
            copy: self.copy.delta_since(&prev.copy),
            tier: self.tier.delta_since(&prev.tier),
            service: self.service.delta_since(&prev.service),
            scrub: self.scrub.delta_since(&prev.scrub),
            allocs: (self.allocs.0 - prev.allocs.0, self.allocs.1 - prev.allocs.1),
            syscalls: (
                self.syscalls.0.saturating_sub(prev.syscalls.0),
                self.syscalls.1.saturating_sub(prev.syscalls.1),
            ),
        }
    }
}

/// Samples of one window segment. Times are seconds.
#[derive(Default)]
pub struct Phase {
    pub window_s: f64,
    /// Blocked time per checkpoint: field data handed over → call returns.
    pub ckpt_s: Vec<f64>,
    /// Same start → generation durable.
    pub durable_s: Vec<f64>,
    pub restore_s: Vec<f64>,
    /// Wall time of each full restore cycle: `RESTORE_EVERY` checkpoints
    /// made durable plus the restore (and verify) that follows them.
    pub cycle_s: Vec<f64>,
    /// Counter growth over the segment.
    pub delta: Option<Counters>,
}

/// Everything one run measured, before it is turned into metrics.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub phases: Vec<Phase>,
    /// User bytes of one checkpoint (one generation / one session).
    pub ckpt_bytes: u64,
    /// Closed loops running side by side (1 driver, or the tenants).
    pub streams: u64,
    /// Bytes under the run directory after the last set-up's warm-up
    /// generations ÷ user bytes of the generations still live.
    pub stored_ratio: f64,
    pub tally: Tally,
    pub tracer: Tracer,
    /// Layer counts the workload knows directly (`(metric, value)`).
    pub counts: Vec<(&'static str, f64)>,
    pub scrub: ScrubOutcome,
    /// Sizes the layer probes should use for this workload.
    pub probe: ProbeSizes,
    /// The kept directory (for probes); the caller removes `run_dir`.
    pub final_dir: PathBuf,
}

/// The workload's own I/O sizes, so layer probes measure the layer at
/// the operating point the workload puts it in.
#[derive(Clone, Copy)]
pub struct ProbeSizes {
    /// Bytes per write job / write op.
    pub chunk: usize,
    /// Bytes per committed file.
    pub file: usize,
    /// Pipeline depth the workload registers writers at.
    pub depth: u32,
}

/// Blocked and durable seconds of one generation.
pub struct GenTimes {
    pub blocked_s: f64,
    pub durable_s: f64,
}

/// A single-driver-thread workload: the application loop that calls
/// checkpoint every step and restores now and then.
pub trait Campaign: Sized {
    /// Write generation `gen` and wait until it is durable.
    fn checkpoint(&mut self, gen: u64, tr: &mut Tracer) -> Result<GenTimes, String>;
    /// Restore generation `gen` (the newest) and compare every byte.
    /// Returns the restore call's seconds; follow-up checks (marker
    /// verify) go to `tally` as operations of their own.
    fn restore(&mut self, gen: u64, tr: &mut Tracer, tally: &mut Tally) -> Result<f64, String>;
    /// Traced pass only, after the window: reference measurements that
    /// need the workload's own state.
    fn after_window(&mut self, _tr: &mut Tracer, _tally: &mut Tally) {}
    /// Layer counts known to the workload.
    fn counts(&self) -> Vec<(&'static str, f64)>;
    /// User bytes per generation.
    fn gen_bytes(&self) -> u64;
    /// Directories the final scrub walks once the campaign is dropped.
    fn scrub_targets(&self) -> Vec<ScrubConfig>;
    fn probe_sizes(&self) -> ProbeSizes;
}

/// Compare every restored block against the regenerated fill.
pub fn compare_restored(data: &FieldData, gen: u64, got: &RestoredData) -> Result<(), String> {
    if got.step != gen {
        return Err(format!("restored step {} but newest is {gen}", got.step));
    }
    for rank in 0..NRANKS {
        for (field, name) in FIELDS.iter().enumerate() {
            if !data.matches(gen, rank, field, got.field_data(rank, field)) {
                return Err(format!(
                    "generation {gen}: rank {rank} field {name} differs from the regenerated fill"
                ));
            }
        }
    }
    Ok(())
}

/// What the final scrub of the run's directories found.
#[derive(Default)]
pub struct ScrubOutcome {
    pub bytes_verified: u64,
    pub seconds: f64,
    pub damage: u64,
}

/// Scrub `targets`; an unclean report or an error is a failed operation.
pub fn final_scrub(targets: &[ScrubConfig], tally: &mut Tally) -> ScrubOutcome {
    let mut out = ScrubOutcome::default();
    let t0 = Instant::now();
    for cfg in targets {
        let what = format!("scrub of {}", cfg.dir.display());
        let res = scrub(cfg).map_err(|e| e.to_string()).and_then(|rep| {
            out.bytes_verified += rep.bytes_verified;
            out.damage += rep.damage.len() as u64;
            if rep.clean() {
                Ok(())
            } else {
                Err(format!("not clean: {}", rep.to_json()))
            }
        });
        tally.check(&what, res);
    }
    out.seconds = t0.elapsed().as_secs_f64();
    out
}

/// Switch span recording and allocation counting together.
pub fn set_tracing(tr: &mut Tracer, on: bool) {
    tr.set_enabled(on);
    alloc::set_counting(on);
}

/// Run a single-driver-thread workload: `SETUPS` set-ups (construct +
/// `WARMUP` generations each), then the closed-loop measured window on
/// the last one, then the scrub gate.
pub fn run_campaign<C: Campaign>(
    opts: &Opts,
    make: impl Fn(&Path) -> Result<C, String>,
) -> Result<Measured, String> {
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = opts.run_dir.join(format!("setup{i}"));
        let t0 = Instant::now();
        let mut c = make(&dir)?;
        for gen in 1..=WARMUP {
            tally.check("warm-up checkpoint", c.checkpoint(gen, &mut tr));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((c, dir));
        } else {
            drop(c);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
    }
    let (mut c, dir) = kept.expect("SETUPS >= 1");
    let stored = sysinfo::dir_bytes(&dir).map_err(|e| format!("size of {}: {e}", dir.display()))?;
    // Two generations are live: alternating prefixes, or `keep = 2`.
    let stored_ratio = stored as f64 / (2 * c.gen_bytes()) as f64;

    let mut phases = Vec::new();
    let mut gen = WARMUP;
    for (secs, traced) in opts.phases() {
        set_tracing(&mut tr, traced);
        let mut ph = Phase::default();
        let before = Counters::read();
        let start = Instant::now();
        let window = Duration::from_secs_f64(secs);
        // Cycles run from the end of one restore to the end of the next.
        let mut cycle_start = None;
        while start.elapsed() < window {
            gen += 1;
            if let Some(t) = tally.check("checkpoint", c.checkpoint(gen, &mut tr)) {
                ph.ckpt_s.push(t.blocked_s);
                ph.durable_s.push(t.durable_s);
            }
            if gen % RESTORE_EVERY == 0 {
                let r = c.restore(gen, &mut tr, &mut tally);
                if let Some(s) = tally.check("restore", r) {
                    ph.restore_s.push(s);
                }
                let now = Instant::now();
                if let Some(t0) = cycle_start.replace(now) {
                    ph.cycle_s.push((now - t0).as_secs_f64());
                }
            }
        }
        ph.window_s = start.elapsed().as_secs_f64();
        ph.delta = Some(Counters::read().since(&before));
        phases.push(ph);
    }
    if opts.trace {
        c.after_window(&mut tr, &mut tally);
    }
    set_tracing(&mut tr, false);

    let counts = c.counts();
    let ckpt_bytes = c.gen_bytes();
    let probe = c.probe_sizes();
    let targets = c.scrub_targets();
    drop(c); // quiesce: the scrubber is an offline tool
    let scrub = final_scrub(&targets, &mut tally);
    Ok(Measured {
        setup_s,
        phases,
        ckpt_bytes,
        streams: 1,
        stored_ratio,
        tally,
        tracer: tr,
        counts,
        scrub,
        probe,
        final_dir: dir,
    })
}
