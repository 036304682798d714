//! Figure 8: rbIO (nf = ng) write bandwidth as a function of the number of
//! files, for 16Ki/32Ki/64Ki processors. The paper's finding: the GPFS on
//! Intrepid prefers ~1024 concurrently written files at every scale —
//! performance is poor when nf is too small (too few parallel streams to
//! saturate the arrays, each capped by per-client forwarding throughput)
//! or too big (directory-metadata pressure, the 1PFPP limit).
//!
//! The sweep is driven through `rbio-tune`'s cost oracle — the same
//! `Env` + `MachineOracle` path the autotuner searches over — so the
//! figure and the tuner are guaranteed to read the same machine model.
//!
//! Usage: `fig08_nf_sweep [np ...]`.

use rbio_bench::experiments::nps_from_args;
use rbio_bench::report::{check, print_table, FigureData, Series};
use rbio_tune::{Candidate, Env, MachineOracle, StrategyKind};

const NFS: [u32; 5] = [256, 512, 1024, 2048, 4096];

/// The fixed-knob candidate matching the pre-tuner sweep: rbIO at
/// `nf = ng`, planner `Tuning::default()` buffers, no flush pipeline
/// (depth 1 — no flush calls are priced there), no tier.
fn rbio_candidate(nf: u32) -> Candidate {
    Candidate {
        strategy: StrategyKind::RbIo,
        nf,
        pipeline_depth: 1,
        writer_buffer: 16 << 20,
        cb_buffer: 16 << 20,
        coalesce_fields: false,
        tier_drain_bw: None,
    }
}

fn main() {
    let nps = nps_from_args();
    let mut series = Vec::new();
    let mut rows = Vec::new();
    for &np in &nps {
        // 15 seeds per point, cost = the median run (by wall time) —
        // the oracle's standard evaluation protocol.
        let mut env = Env::intrepid(np).with_seeds((0..15u64).map(|i| 0x1BEB + 977 * i).collect());
        env.workload.prefix = "f8".to_string();
        let oracle = MachineOracle::new(env).expect("intrepid model validates");
        let mut y = Vec::new();
        for &nf in &NFS {
            // One writer per file: ng = nf (the paper varies them together).
            let m = oracle
                .median_metrics(&rbio_candidate(nf))
                .expect("rbIO plan compiles at every swept nf");
            let bw = m.bandwidth_bps() / 1e9;
            eprintln!(
                "np={np:>6} nf={nf:>5}  bw={bw:>7.2} GB/s  wall={:>7.2}s",
                m.wall.as_secs_f64()
            );
            y.push(bw);
        }
        series.push(Series {
            label: format!("{np} processors"),
            x: NFS.iter().map(|&n| n as f64).collect(),
            y: y.clone(),
        });
        rows.push((format!("np={np}"), y));
    }
    let cols: Vec<String> = NFS.iter().map(|n| n.to_string()).collect();
    print_table(
        "Fig. 8: rbIO bandwidth vs number of files (nf=ng)",
        &cols,
        &rows,
        "GB/s",
    );

    // The paper: "this number stays around 1,024 when running on 16K, 32K
    // and 64K processors", with clear degradation toward both extremes.
    let mut notes = Vec::new();
    for s in &series {
        let peak = s.y.iter().cloned().fold(0.0f64, f64::max);
        notes.push(check(
            &format!("{}: nf=1024 within 10% of the sweep peak", s.label),
            s.y[2] >= peak * 0.90,
        ));
        notes.push(check(
            &format!("{}: nf=1024 clearly beats both extremes (>25%)", s.label),
            s.y[2] > s.y[0] * 1.25 && s.y[2] > s.y[4] * 1.25,
        ));
    }
    FigureData {
        id: "fig08".into(),
        title: "rbIO (nf=ng) bandwidth vs file count (simulated)".into(),
        series,
        notes,
    }
    .save();
}
