//! Shared experiment runners for the paper's figures.

use rbio::strategy::{CheckpointSpec, RbIoCommit, Strategy, Tuning};
use rbio_machine::{simulate, MachineConfig, ProfileLevel, RunMetrics};

use crate::workload::PaperCase;

/// One plotted configuration of the paper's Figs. 5–7.
#[derive(Debug, Clone)]
pub struct PaperConfig {
    /// Legend label, matching the paper's.
    pub label: &'static str,
    /// Strategy for a given rank count (the grouping parameters depend on
    /// np, so this is a function).
    pub strategy: fn(np: u32) -> Strategy,
    /// λ: non-overlapped fraction of writer time the application observes
    /// (≈0 for rbIO whose writers flush between checkpoints; 1 for
    /// blocking collectives).
    pub(crate) lambda: f64,
}

/// The five configurations of Figs. 5–7, in the paper's legend order.
pub fn fig5_configs() -> Vec<PaperConfig> {
    vec![
        PaperConfig {
            label: "1PFPP",
            strategy: |_np| Strategy::OnePfpp,
            lambda: 1.0,
        },
        PaperConfig {
            label: "coIO, nf=1",
            strategy: |_np| Strategy::coio(1),
            lambda: 1.0,
        },
        PaperConfig {
            label: "coIO, np:nf=64:1",
            strategy: |np| Strategy::coio(np / 64),
            lambda: 1.0,
        },
        PaperConfig {
            label: "rbIO, np:ng=64:1, nf=1",
            strategy: |np| Strategy::RbIo {
                ng: np / 64,
                commit: RbIoCommit::CollectiveShared,
            },
            lambda: 0.2,
        },
        PaperConfig {
            label: "rbIO, np:ng=64:1, nf=ng",
            strategy: |np| Strategy::rbio(np / 64),
            lambda: 0.2,
        },
    ]
}

/// Result of simulating one (configuration, case) cell.
#[derive(Debug)]
pub struct ConfigResult {
    /// Legend label.
    pub label: String,
    /// The workload case.
    pub(crate) case: PaperCase,
    /// Simulated metrics.
    pub metrics: RunMetrics,
    /// λ used for the application-blocking metric.
    pub(crate) lambda: f64,
}

impl ConfigResult {
    /// Aggregate write bandwidth in GB/s (Fig. 5's y-axis).
    pub fn bandwidth_gbs(&self) -> f64 {
        self.metrics.bandwidth_bps() / 1e9
    }

    /// Overall checkpoint-step time in seconds (Fig. 6's y-axis).
    pub fn overall_seconds(&self) -> f64 {
        self.metrics.app_blocking(self.lambda).as_secs_f64()
    }

    /// Checkpoint/computation ratio (Fig. 7's y-axis).
    pub fn ratio(&self) -> f64 {
        self.overall_seconds() / self.case.compute_seconds_per_step
    }
}

/// Simulate one configuration on one case with the default seed.
pub fn run_config(case: &PaperCase, cfg: &PaperConfig, profile: ProfileLevel) -> ConfigResult {
    run_config_tuned(case, cfg, profile, Tuning::default(), 0x1BEB)
}

/// The paper's measurement protocol: "most of these experiments were run
/// multiple times and the data points were sampled from the median". Runs
/// `runs` seeds and returns the run with the median wall time.
pub(crate) fn run_config_median(
    case: &PaperCase,
    cfg: &PaperConfig,
    profile: ProfileLevel,
    runs: u32,
) -> ConfigResult {
    assert!(runs >= 1);
    let mut results: Vec<ConfigResult> = (0..runs)
        .map(|i| {
            run_config_tuned(
                case,
                cfg,
                profile,
                Tuning::default(),
                0x1BEB + 977 * u64::from(i),
            )
        })
        .collect();
    results.sort_by_key(|a| a.metrics.wall);
    results.swap_remove(results.len() / 2)
}

/// Simulate with explicit tuning and seed (ablations).
pub fn run_config_tuned(
    case: &PaperCase,
    cfg: &PaperConfig,
    profile: ProfileLevel,
    tuning: Tuning,
    seed: u64,
) -> ConfigResult {
    let layout = case.layout();
    let plan = CheckpointSpec::new(layout, format!("step{:06}", 100))
        .strategy((cfg.strategy)(case.np))
        .tuning(tuning)
        .plan()
        .expect("paper configurations produce valid plans");
    let mut machine = MachineConfig::intrepid(case.np).seed(seed);
    machine.profile = profile;
    let metrics = simulate(&plan.program, &machine);
    ConfigResult {
        label: cfg.label.to_string(),
        case: *case,
        metrics,
        lambda: cfg.lambda,
    }
}

/// Simulate one configuration on a caller-built machine (for profiling
/// and pipeline-depth studies where the stock `intrepid` machine is not
/// enough).
pub fn run_config_on(case: &PaperCase, cfg: &PaperConfig, machine: &MachineConfig) -> ConfigResult {
    let layout = case.layout();
    let plan = CheckpointSpec::new(layout, format!("step{:06}", 100))
        .strategy((cfg.strategy)(case.np))
        .plan()
        .expect("paper configurations produce valid plans");
    let metrics = simulate(&plan.program, machine);
    ConfigResult {
        label: cfg.label.to_string(),
        case: *case,
        metrics,
        lambda: cfg.lambda,
    }
}

/// The shared Figs. 5/6/7 grid: every configuration × every requested rank
/// count, median-of-`runs` seeds. Results are indexed `[config][np]`.
pub fn run_fig567_grid(nps: &[u32], runs: u32) -> Vec<Vec<ConfigResult>> {
    fig5_configs()
        .iter()
        .map(|cfg| {
            nps.iter()
                .map(|&np| {
                    let case = crate::workload::paper_case(np);
                    let r = run_config_median(&case, cfg, ProfileLevel::Off, runs);
                    eprintln!(
                        "{:<26} np={:>6}  bw={:>7.2} GB/s  wall={:>9.2}s  block={:>8.3}s",
                        cfg.label,
                        np,
                        r.bandwidth_gbs(),
                        r.metrics.wall.as_secs_f64(),
                        r.overall_seconds(),
                    );
                    r
                })
                .collect()
        })
        .collect()
}

/// Parse figure-binary CLI args: a list of rank counts (default: the
/// paper's three cases).
pub fn nps_from_args() -> Vec<u32> {
    let nps: Vec<u32> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.parse().expect("np must be an integer"))
        .collect();
    if nps.is_empty() {
        vec![16384, 32768, 65536]
    } else {
        nps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::scaled_case;

    #[test]
    fn configs_have_paper_labels() {
        let cfgs = fig5_configs();
        assert_eq!(cfgs.len(), 5);
        assert_eq!(cfgs[0].label, "1PFPP");
        assert!(cfgs[4].label.contains("nf=ng"));
    }

    #[test]
    fn reduced_scale_run_produces_sane_metrics() {
        // 1Ki ranks keeps this test fast while exercising the whole stack.
        let case = scaled_case(1024);
        let cfgs = fig5_configs();
        let r = run_config(&case, &cfgs[4], ProfileLevel::Off);
        assert!(r.bandwidth_gbs() > 0.0);
        assert!(r.overall_seconds() > 0.0);
        assert!(r.ratio() > 0.0);
        assert_eq!(
            r.metrics.bytes_written as i64 - r.case.total_bytes as i64 % 1024,
            r.metrics.bytes_written as i64 - r.case.total_bytes as i64 % 1024
        );
    }
}
