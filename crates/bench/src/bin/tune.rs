//! Autotuner campaign: run the full-budget `rbio-tune` solver over each
//! machine-model variant and record what it found and what it cost to
//! find it.
//!
//! This is the bench-tier counterpart of the `rbio-tune` CLI: one
//! full-budget [`search`] per [`Env`] preset at the paper's 16Ki-rank
//! scale, over the full Intrepid software space (tier presets gain the
//! drain-rate axis). The JSON records, per environment, the winning
//! configuration, its simulated cost, and the solver's economics
//! (unique oracle evaluations vs. the cross-product size, memo hits,
//! bound-pruned candidates).
//!
//! Checks pin the headline tuner results: the Intrepid winner is rbIO
//! at the paper's nf = 1024 sweet spot; adding a staging tier moves the
//! optimum off 1024; the durable objective picks the fastest drain; and
//! every search evaluates >= 5x fewer configurations than the
//! exhaustive cross product.
//!
//! Usage: `tune [np]` (writes `target/paper-results/tune.json`).

use rbio_bench::experiments::nps_from_args;
use rbio_bench::report::{check, print_table, FigureData, Series};
use rbio_tune::{search, Env, MachineOracle, SearchConfig, Space, StrategyKind};

fn main() {
    let np = *nps_from_args().first().unwrap_or(&16384);

    let mut labels = Vec::new();
    let mut costs = Vec::new();
    let mut evals = Vec::new();
    let mut sizes = Vec::new();
    let mut notes = Vec::new();
    let mut rows = Vec::new();

    for name in Env::PRESETS {
        let env = Env::by_name(name, np).expect("preset");
        let space = if env.has_tier() {
            Space::intrepid(np).with_tier_drain(&[1_500_000_000, 3_000_000_000])
        } else {
            Space::intrepid(np)
        };
        let oracle = MachineOracle::new(env).expect("preset machine validates");
        let out = search(&oracle, &space, &SearchConfig::default()).expect("search runs");
        let b = &out.best;
        eprintln!(
            "env={name:<12} winner={:?} nf={} depth={} drain={:?}  \
             cost={:.4}s  evals={}/{} memo={} pruned={}",
            b.strategy,
            b.nf,
            b.pipeline_depth,
            b.tier_drain_bw,
            out.cost,
            out.evals,
            space.size(),
            out.memo_hits,
            out.pruned
        );
        notes.push(format!(
            "{name}: winner {:?} nf={} depth={} drain={:?} cost={:.4}s",
            b.strategy, b.nf, b.pipeline_depth, b.tier_drain_bw, out.cost
        ));
        notes.push(check(
            &format!(
                "{name}: solver evals ({}) at least 5x below the cross product ({})",
                out.evals,
                space.size()
            ),
            out.evals * 5 <= space.size(),
        ));
        match name {
            "intrepid" => {
                notes.push(check(
                    "intrepid: rediscovers the paper's rbIO nf=1024 sweet spot unaided",
                    b.strategy == StrategyKind::RbIo && b.nf == 1024,
                ));
                notes.push(check(
                    "intrepid: bound model pruned candidates without simulating them",
                    out.pruned > 0,
                ));
            }
            "tier" => notes.push(check(
                "tier: staging tier moves the perceived-time optimum off nf=1024",
                b.nf < 1024,
            )),
            "tier-durable" => notes.push(check(
                "tier-durable: durable objective picks the fastest drain rate",
                b.tier_drain_bw == Some(3_000_000_000),
            )),
            _ => {}
        }
        rows.push((
            name.to_string(),
            vec![out.cost, out.evals as f64, space.size() as f64],
        ));
        labels.push(name);
        costs.push(out.cost);
        evals.push(out.evals as f64);
        sizes.push(space.size() as f64);
    }

    print_table(
        &format!("Autotuner campaign at np={np} (cost / evals / space size)"),
        &["cost (s)".into(), "evals".into(), "space".into()],
        &rows,
        "",
    );

    let x: Vec<f64> = (0..labels.len()).map(|i| i as f64).collect();
    FigureData {
        id: "tune".into(),
        title: format!(
            "rbio-tune full-budget search per machine variant at np={np} \
             (x = env index: {})",
            labels.join(", ")
        ),
        series: vec![
            Series {
                label: "best cost (s)".into(),
                x: x.clone(),
                y: costs,
            },
            Series {
                label: "solver oracle evals".into(),
                x: x.clone(),
                y: evals,
            },
            Series {
                label: "cross-product size".into(),
                x,
                y: sizes,
            },
        ],
        notes,
    }
    .save();
}
