//! rbio-check CLI: sweep seeds or replay a pinned schedule.
//!
//! ```text
//! rbio-check sweep  --program p1..p13|all [--seeds N] [--start S]
//!                   [--preempt] [--stop-first] [--revert-pr2] [--revert-pr3]
//!                   [--revert-pr5] [--revert-pr7] [--revert-pr33]
//! rbio-check replay --program p1..p13 --schedule "a,b,c,..."
//!                   [--revert-pr2] [--revert-pr3] [--revert-pr5] [--revert-pr7]
//!                   [--revert-pr33]
//!                   [--expect-violation]
//! ```
//!
//! A failing sweep prints, per seed: the violations and the exact
//! schedule string to hand back to `replay --schedule`. Exit status is
//! 0 on the expected result, 1 otherwise (including a `replay
//! --expect-violation` that found nothing).

use std::process::ExitCode;

use rbio::sched::{Revert, RevertGuard};
use rbio_check::{run_one, sweep, CheckReport, Policy, ProgramKind};

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    eprintln!("usage:");
    eprintln!("  rbio-check sweep  --program <p1..p13|all> [--seeds N] [--start S]");
    eprintln!("                    [--preempt] [--stop-first] [--revert-pr2] [--revert-pr3]");
    eprintln!("                    [--revert-pr5] [--revert-pr7] [--revert-pr33]");
    eprintln!("  rbio-check replay --program <p1..p13> --schedule \"name,name,...\"");
    eprintln!("                    [--revert-pr2] [--revert-pr3] [--revert-pr5] [--revert-pr7]");
    eprintln!("                    [--revert-pr33]");
    eprintln!("                    [--expect-violation]");
    eprintln!();
    for k in ProgramKind::all() {
        eprintln!("  {}: {}", k.label(), k.describe());
    }
    ExitCode::FAILURE
}

struct Args {
    cmd: String,
    programs: Vec<ProgramKind>,
    seeds: u64,
    start: u64,
    preempt: bool,
    stop_first: bool,
    schedule: Option<String>,
    expect_violation: bool,
    /// Historical bugs switched back on for this process's runs.
    reverts: Vec<RevertGuard>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or("missing command (sweep | replay)")?;
    let mut args = Args {
        cmd,
        programs: Vec::new(),
        seeds: 64,
        start: 0,
        preempt: false,
        stop_first: false,
        schedule: None,
        expect_violation: false,
        reverts: Vec::new(),
    };
    let need_value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--program" => {
                let v = need_value(&mut argv, "--program")?;
                if v == "all" {
                    args.programs = ProgramKind::all().to_vec();
                } else {
                    args.programs
                        .push(ProgramKind::parse(&v).ok_or(format!("unknown program '{v}'"))?);
                }
            }
            "--seeds" => {
                args.seeds = need_value(&mut argv, "--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--start" => {
                args.start = need_value(&mut argv, "--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?;
            }
            "--schedule" => args.schedule = Some(need_value(&mut argv, "--schedule")?),
            "--preempt" => args.preempt = true,
            "--stop-first" => args.stop_first = true,
            "--expect-violation" => args.expect_violation = true,
            "--revert-pr2" => args
                .reverts
                .push(RevertGuard::arm(Revert::Pr2DoubleEnqueue)),
            "--revert-pr3" => args.reverts.push(RevertGuard::arm(Revert::Pr3FaultDrop)),
            "--revert-pr5" => args.reverts.push(RevertGuard::arm(Revert::Pr5Fence)),
            "--revert-pr7" => args.reverts.push(RevertGuard::arm(Revert::Pr7EarlyRecycle)),
            "--revert-pr33" => args
                .reverts
                .push(RevertGuard::arm(Revert::Pr33GrantBlindToArrivals)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.programs.is_empty() {
        return Err("--program is required".into());
    }
    Ok(args)
}

fn print_failure(kind: ProgramKind, seed: Option<u64>, report: &CheckReport) {
    match seed {
        Some(s) => println!("FAIL {} seed={s}", kind.label()),
        None => println!("FAIL {} (replay)", kind.label()),
    }
    for v in &report.violations {
        println!("  violation: {v}");
    }
    if let Err(e) = &report.outcome {
        println!("  outcome: error: {e}");
    }
    if report.aborted {
        println!("  (run aborted at the step budget and finished free-running)");
    }
    println!("  replay with:");
    println!(
        "    rbio-check replay --program {} --expect-violation --schedule \"{}\"",
        kind.label(),
        report.schedule()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match args.cmd.as_str() {
        "sweep" => {
            let mut any_fail = false;
            for kind in &args.programs {
                let range = args.start..args.start + args.seeds;
                let mode = if args.preempt { "preempt" } else { "seeded" };
                let result = sweep(*kind, range, args.preempt, args.stop_first);
                if result.clean() {
                    println!(
                        "ok {} ({mode}): {} seeds, no violations",
                        kind.label(),
                        result.seeds_run
                    );
                } else {
                    any_fail = true;
                    for (seed, report) in &result.failures {
                        print_failure(*kind, Some(*seed), report);
                    }
                    println!(
                        "{} ({mode}): {} of {} seeds failed",
                        kind.label(),
                        result.failures.len(),
                        result.seeds_run
                    );
                }
            }
            if any_fail {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "replay" => {
            let Some(schedule) = args.schedule.as_deref() else {
                return usage("replay needs --schedule");
            };
            if args.programs.len() != 1 {
                return usage("replay takes exactly one --program");
            }
            let kind = args.programs[0];
            let report = run_one(kind, Policy::pinned(schedule));
            let failed = report.failed();
            if failed {
                print_failure(kind, None, &report);
            } else {
                println!(
                    "ok {}: schedule replayed ({} decisions), no violations{}",
                    kind.label(),
                    report.trace.len(),
                    if report.diverged {
                        " [diverged from the pinned schedule]"
                    } else {
                        ""
                    }
                );
            }
            if failed == args.expect_violation {
                ExitCode::SUCCESS
            } else if args.expect_violation {
                eprintln!("expected a violation, but the schedule replayed clean");
                ExitCode::FAILURE
            } else {
                ExitCode::FAILURE
            }
        }
        other => usage(&format!("unknown command '{other}'")),
    }
}
