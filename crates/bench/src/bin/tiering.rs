//! Node-local tier ablation: perceived vs. durable bandwidth.
//!
//! The burst-buffer tier (`rbio::tier`, mirrored by the simulator's
//! [`TierModel`]) splits a checkpoint's cost in two: the *perceived*
//! cost the application blocks on (staging into the node-local tier)
//! and the *durable* cost paid by the background drain
//! engine (burst hop, if any, plus the full PFS path). This bench runs
//! the same rbIO checkpoint on the multi_step writer-bound machine —
//! staging copies at 1 GB/s, ~0.3 GB/s client streams, so the disk path
//! is the bottleneck the tier is supposed to hide — three ways:
//!
//! * **direct** — no tier, every byte rides the PFS path in the
//!   foreground (the pre-PR 6 behavior);
//! * **local** — node-local slab at 6 GB/s draining straight to the PFS;
//! * **local+burst** — the same slab with an intermediate 1 GB/s burst
//!   hop, which defers durability further without touching perception.
//!
//! Checks: the local tier buys >= 5x perceived bandwidth over direct;
//! drained byte counts are identical to the direct path; the burst hop
//! changes `durable_wall` but not the perceived wall.
//!
//! The >= 5x bar is a machine-scale property: at small np the tiered
//! wall floors on worker->writer aggregation (which no staging tier can
//! hide), while the direct wall grows with shared-DDN contention — the
//! paper-scale 16Ki-rank run is where the disk path dominates and the
//! tier pays off in full.
//!
//! Usage: `tiering [np]` (default 16384, the multi_step campaign scale).

use rbio::strategy::{CheckpointSpec, Tuning};
use rbio_bench::experiments::fig5_configs;
use rbio_bench::report::{check, FigureData, Series};
use rbio_bench::workload::paper_case;
use rbio_machine::{simulate, MachineConfig, ProfileLevel, RunMetrics, TierModel};
use rbio_plan::{validate, CoverageMode, Program};

/// Slab append bandwidth: an mmap'd local write is a memory copy, so a
/// few GB/s (DDR-class), well above the writer-bound machine's 1 GB/s
/// staging copies.
const LOCAL_BW: f64 = 6.0e9;
/// Burst-buffer hop bandwidth for the deferred-durability variant.
const BURST_BW: f64 = 1.0e9;

/// One rbIO nf=ng checkpoint of the paper's per-rank payload, with the
/// writer buffer opened wide so each writer flushes its extent as one
/// buffered write — the unit the tier stages.
fn checkpoint_program(np: u32) -> Program {
    let case = paper_case(np);
    let cfg = &fig5_configs()[4];
    let program = CheckpointSpec::new(case.layout(), "tier")
        .strategy((cfg.strategy)(np))
        .tuning(Tuning {
            writer_buffer: 1 << 40,
            ..Tuning::default()
        })
        .step(0)
        .plan()
        .expect("valid rbIO plan")
        .program;
    validate(&program, CoverageMode::ExactWrite).expect("tiering program valid");
    program
}

/// The multi_step writer-bound machine: fast torus and ION pipes, 1 GB/s
/// staging copies, ~0.3 GB/s client streams (see
/// `crates/bench/src/bin/multi_step.rs`).
fn writer_bound_machine(np: u32) -> MachineConfig {
    let mut m = MachineConfig::intrepid(np).quiet();
    m.mem_bw = 1.0e9;
    m.net.torus_link_bw = 4.0e9;
    m.net.tree_bw_per_ion = 4.0e9;
    m.net.eth_bw_per_ion = 4.0e9;
    m.net.client_stream_bw = 0.3e9;
    m.profile = ProfileLevel::Off;
    m
}

fn run(np: u32, tier: Option<TierModel>) -> RunMetrics {
    let program = checkpoint_program(np);
    let mut machine = writer_bound_machine(np);
    machine.tier = tier;
    simulate(&program, &machine)
}

fn gbps(bps: f64) -> f64 {
    bps / 1e9
}

fn main() {
    let np: u32 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("np"))
        .unwrap_or(16384);
    println!("tier ablation at np={np} on the writer-bound machine (rbIO nf=ng)\n");

    let direct = run(np, None);
    let local = run(np, Some(TierModel::local_only(LOCAL_BW)));
    let burst = run(
        np,
        Some(TierModel::local_only(LOCAL_BW).with_burst(BURST_BW)),
    );

    for (label, m) in [
        ("direct", &direct),
        ("local", &local),
        ("local+burst", &burst),
    ] {
        println!(
            "{label:<12} perceived {:>8.3} GB/s ({:>8.3}s)   durable {:>8.3} GB/s ({:>8.3}s)   ratio {:>6.2}x",
            gbps(m.bandwidth_bps()),
            m.wall.as_secs_f64(),
            gbps(m.durable_bandwidth_bps()),
            m.durable_wall.as_secs_f64(),
            m.perceived_over_durable(),
        );
    }

    let speedup = local.bandwidth_bps() / direct.bandwidth_bps();
    println!("\nlocal tier perceived speedup over direct-to-PFS: {speedup:.2}x");

    let notes = vec![
        check(
            "local tier perceived bandwidth >= 5x direct-to-PFS",
            speedup >= 5.0,
        ),
        check(
            "drained bytes identical to the direct path",
            local.bytes_written == direct.bytes_written
                && burst.bytes_written == direct.bytes_written,
        ),
        check(
            "direct path is synchronously durable (wall == durable_wall)",
            direct.durable_wall == direct.wall,
        ),
        check(
            "tiering splits perception from durability (durable_wall > wall)",
            local.durable_wall > local.wall,
        ),
        check(
            "burst hop defers durability without touching perception",
            burst.wall == local.wall && burst.durable_wall > local.durable_wall,
        ),
        format!(
            "walls: direct {:.3}s, local {:.3}s (durable {:.3}s), burst {:.3}s (durable {:.3}s)",
            direct.wall.as_secs_f64(),
            local.wall.as_secs_f64(),
            local.durable_wall.as_secs_f64(),
            burst.wall.as_secs_f64(),
            burst.durable_wall.as_secs_f64(),
        ),
    ];

    FigureData {
        id: "tiering".into(),
        title: format!(
            "Perceived vs durable bandwidth, np={np}, writer-bound machine, local {:.0} GB/s slab",
            LOCAL_BW / 1e9
        ),
        series: vec![
            Series {
                label: "perceived GB/s (direct, local, local+burst)".into(),
                x: vec![0.0, 1.0, 2.0],
                y: vec![
                    gbps(direct.bandwidth_bps()),
                    gbps(local.bandwidth_bps()),
                    gbps(burst.bandwidth_bps()),
                ],
            },
            Series {
                label: "durable GB/s (direct, local, local+burst)".into(),
                x: vec![0.0, 1.0, 2.0],
                y: vec![
                    gbps(direct.durable_bandwidth_bps()),
                    gbps(local.durable_bandwidth_bps()),
                    gbps(burst.durable_bandwidth_bps()),
                ],
            },
        ],
        notes,
    }
    .save();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR 6 acceptance bar: on the writer-bound machine at the
    /// paper's 16Ki-rank scale, the local tier must deliver >= 5x the
    /// direct path's perceived bandwidth, draining byte-identical
    /// totals.
    #[test]
    fn local_tier_buys_5x_perceived_bandwidth() {
        let np = 16384;
        let direct = run(np, None);
        let local = run(np, Some(TierModel::local_only(LOCAL_BW)));
        let speedup = local.bandwidth_bps() / direct.bandwidth_bps();
        assert!(
            speedup >= 5.0,
            "local tier perceived speedup {speedup:.2}x < 5x \
             (direct {:.3} GB/s, local {:.3} GB/s)",
            gbps(direct.bandwidth_bps()),
            gbps(local.bandwidth_bps()),
        );
        assert_eq!(local.bytes_written, direct.bytes_written);
        assert!(local.durable_wall > local.wall);
    }
}
