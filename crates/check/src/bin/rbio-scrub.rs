//! rbio-scrub CLI: offline checkpoint-directory scrubber.
//!
//! ```text
//! rbio-scrub --dir DIR [--burst DIR] [--repair | --dry-run] [--rate F]
//!            [--json] [--counters]
//! rbio-scrub --demo [--work DIR]
//! ```
//!
//! Walks a quiesced checkpoint directory's commit markers, re-verifies
//! every listed file against what it says about itself (its header's own
//! CRC32, its step and its length, and at `--rate` its full per-field
//! footer CRCs), and classifies damage: torn files (a torn marker among
//! them), missing files and orphaned tmps. With `--repair`, torn or
//! missing files are reinstalled byte-identically from their burst-tier
//! copies and orphans are reaped; the default is a dry run that only
//! reports.
//!
//! Exit status: 0 when the directory is clean (or every finding was
//! repaired), 1 when unrepaired damage remains, 2 on usage errors.
//!
//! `--demo` runs the self-test: builds a tiered generation, then tears a
//! payload byte and, once that is repaired, a header byte; for each it
//! proves the dry run classifies it `torn-file` and the repair restores
//! the exact original bytes from the burst copy.

use std::path::PathBuf;
use std::process::ExitCode;

use rbio::scrub::{scrub, DamageKind, ScrubConfig};

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n");
    eprintln!("usage:");
    eprintln!("  rbio-scrub --dir DIR [--burst DIR] [--repair | --dry-run] [--rate F]");
    eprintln!("             [--json] [--counters]");
    eprintln!("  rbio-scrub --demo [--work DIR]");
    ExitCode::from(2)
}

struct Args {
    dir: Option<PathBuf>,
    burst: Option<PathBuf>,
    repair: bool,
    rate: f64,
    json: bool,
    counters: bool,
    demo: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: None,
        burst: None,
        repair: false,
        rate: 1.0,
        json: false,
        counters: false,
        demo: false,
        work: std::env::temp_dir().join(format!("rbio-scrub-demo-{}", std::process::id())),
    };
    let mut argv = std::env::args().skip(1);
    let need = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--dir" => args.dir = Some(PathBuf::from(need(&mut argv, "--dir")?)),
            "--burst" => args.burst = Some(PathBuf::from(need(&mut argv, "--burst")?)),
            "--repair" => args.repair = true,
            "--dry-run" => args.repair = false,
            "--rate" => {
                args.rate = need(&mut argv, "--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--json" => args.json = true,
            "--counters" => args.counters = true,
            "--demo" => args.demo = true,
            "--work" => args.work = PathBuf::from(need(&mut argv, "--work")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !args.demo && args.dir.is_none() {
        return Err("--dir is required (or --demo)".into());
    }
    Ok(args)
}

/// Self-test: seed a tiered generation with a burst copy, tear one
/// payload byte and then one header byte, and prove detect-then-repair
/// restores the original bytes exactly each time.
fn demo(work: &std::path::Path) -> Result<(), String> {
    use rbio::layout::DataLayout;
    use rbio::manager::{CheckpointManager, ManagerConfig};
    use rbio::strategy::Strategy;
    use rbio::tier::TierConfig;

    let _ = std::fs::remove_dir_all(work);
    let pfs = work.join("pfs");
    let burst = work.join("burst");
    let layout = DataLayout::uniform(4, &[("u", 2048), ("v", 512)]);
    let mut cfg = ManagerConfig::new(&pfs, Strategy::rbio(2));
    cfg.tier = Some(
        TierConfig::new(work.join("local"))
            .burst_dir(&burst)
            .slab_capacity(1 << 22),
    );
    let mgr = CheckpointManager::new(layout, cfg).map_err(|e| format!("manager: {e}"))?;
    mgr.checkpoint(1, |rank, field, buf| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (rank as usize + field * 5 + i) as u8;
        }
    })
    .map_err(|e| format!("checkpoint: {e}"))?;
    mgr.wait_durable(1).map_err(|e| format!("drain: {e}"))?;
    drop(mgr);

    let victim = std::fs::read_dir(&pfs)
        .map_err(|e| format!("pfs dir: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "rbio"))
        .ok_or("no checkpoint file to tear")?;
    let healthy = std::fs::read(&victim).map_err(|e| format!("read: {e}"))?;
    let mut cfg = ScrubConfig::new(&pfs);
    cfg.burst_dir = Some(burst);
    // A payload byte is caught by the footer's field CRC, a header byte by
    // the header's own CRC32: the file vouches for both.
    for (part, at) in [("payload", healthy.len() / 2), ("header", 20)] {
        let mut torn = healthy.clone();
        torn[at] ^= 0xff;
        std::fs::write(&victim, &torn).map_err(|e| format!("tear: {e}"))?;
        println!("demo: tore one {part} byte of {}", victim.display());

        cfg.repair = false;
        let dry = scrub(&cfg).map_err(|e| format!("dry scrub: {e}"))?;
        if dry.damage.len() != 1 || dry.damage[0].kind != DamageKind::TornFile {
            return Err(format!(
                "dry run should find exactly the {part} tear: {dry:?}"
            ));
        }
        println!(
            "demo: dry run classified the {part} tear {} ({})",
            dry.damage[0].kind, dry.damage[0].detail
        );

        cfg.repair = true;
        let fixed = scrub(&cfg).map_err(|e| format!("repair scrub: {e}"))?;
        if fixed.repairs != 1 {
            return Err(format!("repair pass should fix the {part} tear: {fixed:?}"));
        }
        let repaired = std::fs::read(&victim).map_err(|e| format!("reread: {e}"))?;
        if repaired != healthy {
            return Err(format!(
                "{part} repair was not byte-identical to the original"
            ));
        }
        println!("demo: repair reinstalled the burst copy byte-identically");
    }
    let _ = std::fs::remove_dir_all(work);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.demo {
        return match demo(&args.work) {
            Ok(()) => {
                println!("demo: PASS");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("demo: FAIL: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let before = rbio_profile::counters::scrub_snapshot();
    let cfg = ScrubConfig {
        dir: args.dir.expect("validated"),
        burst_dir: args.burst,
        repair: args.repair,
        deep_rate: args.rate,
    };
    let report = match scrub(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scrub {}: {e}", cfg.dir.display());
            return ExitCode::FAILURE;
        }
    };
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!(
            "{} generation(s), {} file(s) checked, {} byte(s) re-verified{}",
            report.generations,
            report.files_checked,
            report.bytes_verified,
            if cfg.repair { "" } else { " (dry run)" }
        );
        for d in &report.damage {
            println!(
                "  {}{}: {} — {}{}",
                d.step.map(|s| format!("step {s} ")).unwrap_or_default(),
                d.kind,
                d.file,
                d.detail,
                if d.repaired { " [repaired]" } else { "" }
            );
        }
    }
    if args.counters {
        let delta = rbio_profile::counters::scrub_snapshot().delta_since(&before);
        eprintln!("{}", delta.to_json());
    }
    if report.unrepaired() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
