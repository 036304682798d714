//! rbio-crash CLI: crash-image torture sweeps over recorded durability
//! op streams, with deterministic journal replay.
//!
//! ```text
//! rbio-crash sweep  [--strategy 1pfpp|coio|rbio|all] [--ranks N] [--steps N]
//!                   [--images N] [--seed S] [--work DIR] [--json PATH]
//!                   [--revert-pr1]
//! rbio-crash replay --journal PATH --cut K --variant V
//!                   --strategy 1pfpp|coio|rbio [--ranks N] [--steps N]
//!                   [--work DIR] [--expect-violation]
//! ```
//!
//! `sweep` records each strategy's op stream under the schedule
//! controller (seeded from `--seed`, so a sweep repeats byte for byte),
//! enumerates legal post-crash filesystem images (prefix cuts ×
//! fsync-barrier-respecting drop subsets × torn final writes), and
//! restores every one. With `--revert-pr1` the commit protocol's
//! directory fsync is planted out and the sweep must *catch* it (exit 0
//! only if violations surface); the journal and a failing image's
//! coordinates are printed for `replay`. `--json` writes a bench artifact
//! with image counts and a scrub-repair throughput selftest.
//!
//! A failing image's `(journal, cut, variant)` triple replays the exact
//! filesystem image: the journal carries every recorded byte, so replay
//! is bit-deterministic across runs and machines.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rbio::crash::{self, ImageSpec, Scenario, SweepReport, Variant};
use rbio::scrub::{scrub, DamageKind, ScrubConfig};
use rbio::strategy::Strategy;
use rbio_check::Policy;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    eprintln!("usage:");
    eprintln!("  rbio-crash sweep  [--strategy 1pfpp|coio|rbio|all] [--ranks N] [--steps N]");
    eprintln!("                    [--images N] [--seed S] [--work DIR] [--json PATH]");
    eprintln!("                    [--revert-pr1]");
    eprintln!("  rbio-crash replay --journal PATH --cut K --variant V");
    eprintln!("                    --strategy 1pfpp|coio|rbio [--ranks N] [--steps N]");
    eprintln!("                    [--work DIR] [--expect-violation]");
    ExitCode::FAILURE
}

fn parse_strategy(v: &str) -> Result<Vec<(&'static str, Strategy)>, String> {
    match v {
        "1pfpp" => Ok(vec![("1pfpp", Strategy::OnePfpp)]),
        "coio" => Ok(vec![("coio", Strategy::coio(2))]),
        "rbio" => Ok(vec![("rbio", Strategy::rbio(2))]),
        "all" => Ok(vec![
            ("1pfpp", Strategy::OnePfpp),
            ("coio", Strategy::coio(2)),
            ("rbio", Strategy::rbio(2)),
        ]),
        other => Err(format!("unknown strategy '{other}'")),
    }
}

struct Args {
    cmd: String,
    strategies: Vec<(&'static str, Strategy)>,
    ranks: u32,
    steps: u64,
    images: usize,
    seed: u64,
    work: PathBuf,
    json: Option<PathBuf>,
    revert_pr1: bool,
    journal: Option<PathBuf>,
    cut: Option<usize>,
    variant: Option<Variant>,
    expect_violation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or("missing command (sweep | replay)")?;
    let mut args = Args {
        cmd,
        strategies: parse_strategy("all").expect("default"),
        ranks: 4,
        steps: 2,
        images: 64,
        seed: 0x5eed,
        work: std::env::temp_dir().join(format!("rbio-crash-{}", std::process::id())),
        json: None,
        revert_pr1: false,
        journal: None,
        cut: None,
        variant: None,
        expect_violation: false,
    };
    let need = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--strategy" => args.strategies = parse_strategy(&need(&mut argv, "--strategy")?)?,
            "--ranks" => {
                args.ranks = need(&mut argv, "--ranks")?
                    .parse()
                    .map_err(|e| format!("--ranks: {e}"))?;
            }
            "--steps" => {
                args.steps = need(&mut argv, "--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?;
            }
            "--images" => {
                args.images = need(&mut argv, "--images")?
                    .parse()
                    .map_err(|e| format!("--images: {e}"))?;
            }
            "--seed" => {
                let v = need(&mut argv, "--seed")?;
                let v = v.trim_start_matches("0x");
                args.seed = u64::from_str_radix(v, 16).map_err(|e| format!("--seed (hex): {e}"))?;
            }
            "--work" => args.work = PathBuf::from(need(&mut argv, "--work")?),
            "--json" => args.json = Some(PathBuf::from(need(&mut argv, "--json")?)),
            "--revert-pr1" => args.revert_pr1 = true,
            "--journal" => args.journal = Some(PathBuf::from(need(&mut argv, "--journal")?)),
            "--cut" => {
                args.cut = Some(
                    need(&mut argv, "--cut")?
                        .parse()
                        .map_err(|e| format!("--cut: {e}"))?,
                );
            }
            "--variant" => args.variant = Some(need(&mut argv, "--variant")?.parse()?),
            "--expect-violation" => args.expect_violation = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

/// Build a one-generation tiered+burst directory, tear a payload byte,
/// and time a repairing scrub over it: proves the repair path works in
/// this build and yields a throughput figure for the bench artifact.
fn scrub_selftest(work: &std::path::Path) -> Result<(u64, u64, f64), String> {
    use rbio::layout::DataLayout;
    use rbio::manager::{CheckpointManager, ManagerConfig};
    use rbio::tier::TierConfig;

    let root = work.join("scrub-selftest");
    let _ = std::fs::remove_dir_all(&root);
    let pfs = root.join("pfs");
    let burst = root.join("burst");
    let layout = DataLayout::uniform(4, &[("u", 4096), ("v", 1024)]);
    let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
    cfg.tier = Some(
        TierConfig::new(root.join("local"))
            .burst_dir(&burst)
            .slab_capacity(1 << 22),
    );
    let mgr = CheckpointManager::new(layout, cfg).map_err(|e| format!("manager: {e}"))?;
    mgr.checkpoint(1, |rank, field, buf| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = crash::fill_value(1, rank, field, i);
        }
    })
    .map_err(|e| format!("checkpoint: {e}"))?;
    mgr.wait_durable(1).map_err(|e| format!("drain: {e}"))?;
    drop(mgr);

    // Tear one payload byte past the header.
    let victim = std::fs::read_dir(&pfs)
        .map_err(|e| format!("pfs dir: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "rbio"))
        .ok_or("no checkpoint file to tear")?;
    let healthy = std::fs::read(&victim).map_err(|e| format!("read victim: {e}"))?;
    let mut torn = healthy.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0xff;
    std::fs::write(&victim, &torn).map_err(|e| format!("tear: {e}"))?;

    let mut scfg = ScrubConfig::new(&pfs);
    scfg.burst_dir = Some(burst);
    scfg.repair = true;
    let t0 = Instant::now();
    let report = scrub(&scfg).map_err(|e| format!("scrub: {e}"))?;
    let elapsed = t0.elapsed().as_secs_f64();
    if report.repairs != 1 || report.damage.iter().any(|d| d.kind != DamageKind::TornFile) {
        return Err(format!(
            "selftest expected one torn-file repair: {report:?}"
        ));
    }
    let repaired = std::fs::read(&victim).map_err(|e| format!("reread victim: {e}"))?;
    if repaired != healthy {
        return Err("selftest repair was not byte-identical".into());
    }
    let throughput = report.bytes_verified as f64 / elapsed.max(1e-9);
    let _ = std::fs::remove_dir_all(&root);
    Ok((report.files_checked, report.repairs, throughput))
}

fn sweep_json(
    results: &[(String, SweepReport)],
    elapsed: f64,
    scrub_stats: &(u64, u64, f64),
) -> String {
    let images: usize = results.iter().map(|(_, r)| r.images).sum();
    let violations: usize = results.iter().map(|(_, r)| r.violations.len()).sum();
    let mut per = String::new();
    for (label, r) in results {
        if !per.is_empty() {
            per.push(',');
        }
        per.push_str(&format!(
            "{{\"scenario\":\"{label}\",\"images\":{},\"journal_ops\":{},\"violations\":{}}}",
            r.images,
            r.journal_ops,
            r.violations.len()
        ));
    }
    let (scrub_files, scrub_repairs, scrub_tput) = scrub_stats;
    format!(
        "{{\"bench\":\"crash\",\"images_checked\":{images},\"violations\":{violations},\
         \"elapsed_sec\":{elapsed:.3},\"images_per_sec\":{:.1},\
         \"scrub_files_checked\":{scrub_files},\"scrub_repairs\":{scrub_repairs},\
         \"scrub_bytes_per_sec\":{scrub_tput:.0},\"scenarios\":[{per}]}}",
        images as f64 / elapsed.max(1e-9)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match args.cmd.as_str() {
        "sweep" => {
            let t0 = Instant::now();
            let mut results: Vec<(String, SweepReport)> = Vec::new();
            let mut any_violation = false;
            for (tag, strategy) in &args.strategies {
                let scn = Scenario {
                    strategy: *strategy,
                    nranks: args.ranks,
                    steps: args.steps,
                };
                let work = args.work.join(tag);
                // Record under the schedule controller, seeded from
                // `--seed`: the rank threads interleave the same way on
                // every run, so the journal — and every image cut from
                // it — repeats byte for byte.
                let (recorded, run) = rbio_check::controlled(Policy::seeded(args.seed), || {
                    crash::record_scenario(&scn, &work.join("record"), args.revert_pr1)
                });
                if let Some(v) = run.violations.first() {
                    eprintln!("{tag}: recording broke a schedule invariant: {v:?}");
                    return ExitCode::FAILURE;
                }
                let swept = recorded.map_err(|e| e.to_string()).and_then(|ops| {
                    crash::sweep_journal(&scn, &ops, args.images, args.seed, &work)
                        .map_err(|e| e.to_string())
                });
                let report = match swept {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("{tag}: sweep failed to run: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if report.violations.is_empty() {
                    println!(
                        "ok {tag}: {} images from {} ops, no unrestorable states",
                        report.images, report.journal_ops
                    );
                } else {
                    any_violation = true;
                    println!(
                        "FAIL {tag}: {} of {} images violated the restore contract",
                        report.violations.len(),
                        report.images
                    );
                    // Persist the journal so every violation replays.
                    let journal = work.join("crash.journal");
                    for v in report.violations.iter().take(8) {
                        println!(
                            "  [{} cut={} variant={}] {}",
                            v.scenario, v.cut, v.variant, v.detail
                        );
                        println!(
                            "  replay with:\n    rbio-crash replay --journal {} --cut {} \
                             --variant {} --strategy {tag} --ranks {} --steps {} \
                             --expect-violation",
                            journal.display(),
                            v.cut,
                            v.variant,
                            args.ranks,
                            args.steps
                        );
                    }
                }
                results.push((tag.to_string(), report));
            }
            let elapsed = t0.elapsed().as_secs_f64();

            if let Some(json) = &args.json {
                let scrub_stats = match scrub_selftest(&args.work) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("scrub selftest failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let body = sweep_json(&results, elapsed, &scrub_stats);
                if let Some(parent) = json.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                if let Err(e) = std::fs::write(json, &body) {
                    eprintln!("write {}: {e}", json.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", json.display());
            }
            if !any_violation {
                // Keep the work dir (it holds the journals) when the
                // sweep found something to replay.
                let _ = std::fs::remove_dir_all(&args.work);
            }

            if args.revert_pr1 {
                // The planted missing-dir-fsync must be *caught*.
                if any_violation {
                    println!("revert-pr1: harness caught the missing dir fsync");
                    ExitCode::SUCCESS
                } else {
                    eprintln!("revert-pr1: planted bug was NOT caught by the sweep");
                    ExitCode::FAILURE
                }
            } else if any_violation {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "replay" => {
            let Some(journal) = &args.journal else {
                return usage("replay needs --journal");
            };
            let (Some(cut), Some(variant)) = (args.cut, args.variant) else {
                return usage("replay needs --cut and --variant");
            };
            if args.strategies.len() != 1 {
                return usage("replay takes exactly one --strategy");
            }
            let scn = Scenario {
                strategy: args.strategies[0].1,
                nranks: args.ranks,
                steps: args.steps,
            };
            let ops = match crash::load_ops(journal) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("load {}: {e}", journal.display());
                    return ExitCode::FAILURE;
                }
            };
            let img = args.work.join("replay-img");
            let _ = std::fs::remove_dir_all(&img);
            if let Err(e) = std::fs::create_dir_all(&img) {
                eprintln!("create {}: {e}", img.display());
                return ExitCode::FAILURE;
            }
            let spec = ImageSpec { cut, variant };
            let outcome = crash::check_image(&ops, spec, &scn, &img);
            let _ = std::fs::remove_dir_all(&args.work);
            match outcome {
                Ok(None) => {
                    println!("ok: image at cut {cut} variant {variant} restores cleanly");
                    if args.expect_violation {
                        eprintln!("expected a violation, but the image restored");
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Ok(Some(detail)) => {
                    println!("violation at cut {cut} variant {variant}: {detail}");
                    if args.expect_violation {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("replay failed to run: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => usage(&format!("unknown command '{other}'")),
    }
}
