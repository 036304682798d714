//! `rbio-tune` — search the checkpoint-configuration space against the
//! simulated machine and export the winning plan.
//!
//! ```text
//! rbio-tune search  [opts]   run the solver, print a JSON report
//! rbio-tune export  [opts]   run the solver, print only the TunedPlan JSON
//! rbio-tune explain [opts]   run the solver, print a human-readable account
//!
//! options:
//!   --np N                 ranks (default 16384)
//!   --env NAME             machine variant: intrepid|tier|tier-durable|pvfs|ciod
//!   --budget small|full    search effort (default full)
//!   --seeds N              seeds per evaluation, median-of-N (default 1)
//!   --objective NAME       perceived|durable (overrides the env preset)
//!   --expect-nf LO:HI      exit 1 unless the winner's nf lands in [LO,HI]
//!   --out FILE             also write the TunedPlan JSON to FILE
//! ```

use rbio_profile::counters::tune_snapshot;
use rbio_tune::{search, Env, MachineOracle, Objective, SearchConfig, Space, TunedPlan};
use std::process::ExitCode;

struct Args {
    command: String,
    np: u32,
    env: String,
    budget: String,
    seeds: u32,
    objective: Option<Objective>,
    expect_nf: Option<(u32, u32)>,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rbio-tune <search|export|explain> [--np N] [--env {}] \
         [--budget small|full] [--seeds N] [--objective perceived|durable] \
         [--expect-nf LO:HI] [--out FILE]",
        Env::PRESETS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    if !matches!(command.as_str(), "search" | "export" | "explain") {
        return Err(format!("unknown command '{command}'"));
    }
    let mut args = Args {
        command,
        np: 16384,
        env: "intrepid".to_string(),
        budget: "full".to_string(),
        seeds: 1,
        objective: None,
        expect_nf: None,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--np" => args.np = value("--np")?.parse().map_err(|e| format!("--np: {e}"))?,
            "--env" => args.env = value("--env")?,
            "--budget" => args.budget = value("--budget")?,
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
                if args.seeds == 0 {
                    return Err("--seeds must be >= 1".to_string());
                }
            }
            "--objective" => {
                let name = value("--objective")?;
                args.objective =
                    Some(Objective::from_name(&name).ok_or(format!("unknown objective '{name}'"))?);
            }
            "--expect-nf" => {
                let v = value("--expect-nf")?;
                let (lo, hi) = v
                    .split_once(':')
                    .ok_or("--expect-nf wants LO:HI".to_string())?;
                let lo = lo.parse().map_err(|e| format!("--expect-nf: {e}"))?;
                let hi = hi.parse().map_err(|e| format!("--expect-nf: {e}"))?;
                if lo > hi {
                    return Err("--expect-nf: LO > HI".to_string());
                }
                args.expect_nf = Some((lo, hi));
            }
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rbio-tune: {e}");
            return usage();
        }
    };

    let Some(mut env) = Env::by_name(&args.env, args.np) else {
        eprintln!("rbio-tune: unknown env '{}'", args.env);
        return usage();
    };
    env = env.with_seeds(
        (0..u64::from(args.seeds))
            .map(|i| 0x1BEB + 977 * i)
            .collect(),
    );
    if let Some(obj) = args.objective {
        env = env.with_objective(obj);
    }

    let mut space = Space::intrepid(args.np);
    if env.has_tier() {
        space = space.with_tier_drain(&[1_500_000_000, 3_000_000_000]);
    }

    let cfg = match args.budget.as_str() {
        "small" => SearchConfig::small(),
        "full" => SearchConfig::default(),
        other => {
            eprintln!("rbio-tune: unknown budget '{other}'");
            return usage();
        }
    };

    let oracle = match MachineOracle::new(env) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rbio-tune: invalid machine config: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match search(&oracle, &space, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rbio-tune: search failed: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = TunedPlan {
        candidate: outcome.best,
        cost_seconds: outcome.cost,
        np: args.np,
        env_label: oracle.env().label.clone(),
        objective: oracle.env().objective,
    };

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, plan.to_json()) {
            eprintln!("rbio-tune: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let telemetry = tune_snapshot();
    match args.command.as_str() {
        "export" => print!("{}", plan.to_json()),
        "search" => {
            let history: Vec<String> = outcome
                .history
                .iter()
                .map(|h| format!("    \"{}\"", rbio_plan::json::escape(h)))
                .collect();
            println!(
                concat!(
                    "{{\n",
                    "  \"plan\": {},\n",
                    "  \"search\": {{\n",
                    "    \"space_size\": {},\n",
                    "    \"evals\": {},\n",
                    "    \"memo_hits\": {},\n",
                    "    \"pruned\": {},\n",
                    "    \"history\": [\n{}\n    ]\n",
                    "  }},\n",
                    "  \"telemetry\": {}\n",
                    "}}"
                ),
                plan.to_json().trim_end(),
                space.size(),
                outcome.evals,
                outcome.memo_hits,
                outcome.pruned,
                history.join(",\n"),
                telemetry.to_json(),
            );
        }
        "explain" => {
            let c = &outcome.best;
            println!(
                "env {} np {} objective {}: best cost {:.4}s",
                oracle.env().label,
                args.np,
                oracle.env().objective.name(),
                outcome.cost
            );
            println!(
                "winner: strategy {:?} nf {} depth {} writer_buffer {} cb_buffer {} \
                 coalesce {} tier_drain {:?}",
                c.strategy,
                c.nf,
                c.pipeline_depth,
                c.writer_buffer,
                c.cb_buffer,
                c.coalesce_fields,
                c.tier_drain_bw
            );
            println!(
                "search: {} evals, {} memo hits, {} pruned of {} configurations",
                outcome.evals,
                outcome.memo_hits,
                outcome.pruned,
                space.size()
            );
            let bounds = oracle.bound_model();
            println!("analytic floors along nf (strategy {:?}):", c.strategy);
            for &nf in &space.nf {
                println!(
                    "  nf {:>5}: floor {:.4}s",
                    nf,
                    bounds.interval_bound(c.strategy, nf, nf)
                );
            }
            for line in &outcome.history {
                println!("  {line}");
            }
        }
        _ => unreachable!(),
    }

    if let Some((lo, hi)) = args.expect_nf {
        if !(lo..=hi).contains(&plan.candidate.nf) {
            eprintln!(
                "rbio-tune: winner nf {} outside expected band [{lo}, {hi}]",
                plan.candidate.nf
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "rbio-tune: winner nf {} within expected band [{lo}, {hi}]",
            plan.candidate.nf
        );
    }
    ExitCode::SUCCESS
}
