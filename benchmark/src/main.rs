//! Wall-clock end-to-end benchmark of the real rbio checkpoint runtime.
//! See `benchmark/README.md` for metrics, workloads and how to run.

mod alloc;
mod compare;
mod fill;
mod manager_campaign;
mod metrics;
mod plan_campaign;
mod probes;
mod report;
mod service_workload;
mod stats;
mod sysinfo;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use rbio_plan::json::{self, Json};

use fill::FieldData;
use manager_campaign::ManagerCampaign;
use plan_campaign::PlanCampaign;
use workload::{run_campaign, Measured, Opts, FIELDS, NAMES, NRANKS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Measured window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` is the same number.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Where result files and traces land, relative to the repo root.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  run.sh [--seed N] [--seconds S] [--repeat K] [--trace] [--smoke] [--out FILE]
        every workload, each in its own process; --trace adds the traced pass
  run.sh --workload NAME --seed N --seconds S --trace 0|1
        one run; the last stdout line is the result object
  run.sh compare A.json B.json
        apply BENCHMARK.json's bounds to two result files";

/// Run the workload's measured part.
fn measure(opts: &Opts) -> Result<Measured, String> {
    let fields = |n_outer: u32, n_inner: usize, len: usize| {
        FieldData::generate(opts.seed, n_outer, n_inner, len)
    };
    if let Some(config) = plan_campaign::config_for(opts.workload) {
        let data = fields(NRANKS, FIELDS.len(), plan_campaign::FIELD_BYTES as usize);
        return run_campaign(opts, |dir| PlanCampaign::open(dir, &data, config));
    }
    match opts.workload {
        "rbio_mgr_tiered" => {
            let data = fields(NRANKS, FIELDS.len(), manager_campaign::FIELD_BYTES as usize);
            run_campaign(opts, |dir| ManagerCampaign::open(dir, &data))
        }
        "service_mixed" => {
            let data = fields(
                service_workload::TENANTS,
                service_workload::WRITES_PER_SESSION,
                service_workload::WRITE_BYTES,
            );
            service_workload::run(opts, &data)
        }
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// One run of one workload. Prints the metric table, writes the run
/// file (and the trace), and prints the result object as the last line.
fn run_one(opts: &Opts) -> Result<bool, String> {
    std::fs::remove_dir_all(&opts.run_dir).ok();
    std::fs::create_dir_all(&opts.run_dir)
        .map_err(|e| format!("create {}: {e}", opts.run_dir.display()))?;
    let fingerprint = sysinfo::fingerprint_json(&opts.run_dir, opts.seed, opts.seconds);
    println!(
        "{} seed={} window={}s trace={} dir={} ({}; fsync on everywhere — on tmpfs it is nearly free)",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.run_dir.display(),
        sysinfo::fs_type(&opts.run_dir),
    );
    let measured = measure(opts);
    let result = measured.and_then(|mut m| {
        let set = if opts.trace {
            let mut set = report::per_layer(&m);
            probes::run_all(
                &opts.run_dir.join("probes"),
                &m.final_dir,
                m.probe,
                m.ckpt_bytes,
                &mut set,
                &mut m.tally,
            );
            report::ceiling_ratios(&m, &mut set);
            let failed_frac = m.tally.failed as f64 / m.tally.attempted.max(1) as f64;
            set.set(
                "driver.failed_frac",
                failed_frac,
                m.tally.attempted as usize,
            );
            let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.json", opts.workload));
            std::fs::write(&trace_path, trace::to_json(opts.workload, m.tracer.spans()))
                .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
            println!("spans: {}", trace_path.display());
            set
        } else {
            report::end_to_end(&m)
        };
        Ok((set, m.tally))
    });
    std::fs::remove_dir_all(&opts.run_dir).ok();
    let (set, tally) = result?;

    let title = if opts.trace {
        "per-layer metrics (traced pass)"
    } else {
        "end-to-end metrics (untraced pass)"
    };
    report::print_table(title, &set);
    let correct = tally.failed == 0;
    println!(
        "attempted={} failed={} failed_frac={}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let head = format!(
        "\"correct\":{correct},\"attempted\":{},\"failed\":{}",
        tally.attempted.max(1),
        tally.failed
    );
    let run_file = run_file(opts.workload, opts.trace);
    let detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{head},\"fingerprint\":{fingerprint},\"metrics\":{}}}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        report::metrics_json(&set, true)
    );
    std::fs::write(&run_file, detail).map_err(|e| format!("write {}: {e}", run_file.display()))?;
    println!(
        "{{{head},\"metrics\":{}}}",
        report::metrics_json(&set, false)
    );
    Ok(correct)
}

fn run_file(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

/// Every workload, each in a fresh process of this same binary.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs: Vec<String> = Vec::new();
    let mut all_correct = true;
    let passes: &[bool] = if a.trace { &[false, true] } else { &[false] };
    for &trace in passes {
        // One traced run per workload is enough for per-layer numbers.
        let repeats = if trace { 1 } else { a.repeat };
        for workload in NAMES {
            for k in 0..repeats {
                let seed = a.seed + k;
                eprintln!(
                    "running {workload} seed={seed} trace={} ...",
                    u8::from(trace)
                );
                let out = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args([
                        "--seconds",
                        &a.seconds.to_string(),
                        "--trace",
                        if trace { "1" } else { "0" },
                    ])
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                all_correct &= out.status.success();
                if !out.status.success() {
                    eprint!("{}", String::from_utf8_lossy(&out.stdout));
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    return Err(format!("{workload} (seed {seed}) failed"));
                }
                let path = run_file(workload, trace);
                runs.push(
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?
                        .trim_end()
                        .to_owned(),
                );
            }
        }
    }
    let doc = format!(
        "{{\"schema_version\":{},\"runs\":[\n{}\n]}}\n",
        sysinfo::SCHEMA_VERSION,
        runs.join(",\n")
    );
    print_matrix(&doc)?;
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("result-seed{}.json", a.seed)));
    std::fs::write(&out, doc).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    Ok(all_correct)
}

/// Metrics down, workloads across; a repeated run shows its median.
fn print_matrix(doc: &str) -> Result<(), String> {
    let doc = json::parse(doc).map_err(|e| format!("result document: {e}"))?;
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("no runs")?;
    for (trace, title, table) in [
        (0, "end-to-end metrics (untraced pass)", metrics::END_TO_END),
        (1, "per-layer metrics (traced pass)", metrics::PER_LAYER),
    ] {
        let of = |workload: &str, metric: &str| -> Vec<(f64, u64)> {
            runs.iter()
                .filter(|r| {
                    r.get("trace").and_then(Json::as_u64) == Some(trace)
                        && r.get("workload").and_then(Json::as_str) == Some(workload)
                })
                .filter_map(|r| {
                    let m = r.get("metrics")?.get(metric)?;
                    Some((m.get("value")?.as_f64()?, m.get("n")?.as_u64()?))
                })
                .collect()
        };
        if of(NAMES[0], table[0].0).is_empty() {
            continue;
        }
        println!("\n{title}; value (samples)");
        print!("{:<34} {:<6}", "metric", "unit");
        for w in NAMES {
            print!(" {w:>22}");
        }
        println!();
        for (name, unit) in table {
            print!("{name:<34} {unit:<6}");
            for w in NAMES {
                let cells = of(w, name);
                let values: Vec<f64> = cells.iter().map(|c| c.0).collect();
                let n = cells.first().map_or(0, |c| c.1);
                print!(" {:>22}", format!("{:.4} ({n})", stats::median(&values)));
            }
            println!();
        }
        // Failures ride in the result object, not in a metric (an
        // end-to-end metric may never read 0); shown here all the same.
        print!("{:<34} {:<6}", "failed_frac", "ratio");
        for w in NAMES {
            let (mut failed, mut attempted) = (0, 0);
            for r in runs.iter().filter(|r| {
                r.get("trace").and_then(Json::as_u64) == Some(trace)
                    && r.get("workload").and_then(Json::as_str) == Some(w)
            }) {
                failed += r.get("failed").and_then(Json::as_u64).unwrap_or(0);
                attempted += r.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            }
            let frac = failed as f64 / attempted.max(1) as f64;
            print!(" {:>22}", format!("{frac:.4} ({attempted})"));
        }
        println!();
    }
    let fp = runs[0]
        .get("fingerprint")
        .ok_or("run without fingerprint")?;
    let text = |k: &str| {
        fp.get(k)
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned()
    };
    println!(
        "\nmachine: nproc={} cpu={} kernel={} bench_dir_fs={} {} commit={}",
        fp.get("nproc").and_then(Json::as_u64).unwrap_or(0),
        text("cpu"),
        text("kernel"),
        text("bench_dir_fs"),
        text("rustc"),
        text("git_commit"),
    );
    Ok(())
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(
                    NAMES
                        .iter()
                        .copied()
                        .find(|n| n == name)
                        .ok_or(format!("unknown workload {name}; one of {NAMES:?}"))?,
                );
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => a.seconds = SMOKE_SECONDS,
            // `--trace` alone switches the traced pass on; the driver
            // form `--trace 0|1` says which pass to run.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("compare takes two result files".into());
        };
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
        let not_ok = compare::run(&read("BENCHMARK.json")?, &read(a)?, &read(b)?)?;
        println!("{not_ok} pair(s) regressed or unresolved");
        return Ok(not_ok == 0);
    }
    let a = parse(&argv)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    match a.workload {
        None => run_all(&a),
        Some(workload) => {
            let root = std::env::var_os("RBIO_BENCH_DIR")
                .map_or_else(|| Path::new(OUT_DIR).join("work"), PathBuf::from);
            run_one(&Opts {
                workload,
                seed: a.seed,
                seconds: a.seconds,
                trace: a.trace,
                run_dir: root.join(format!("{workload}-{}", std::process::id())),
            })
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_form_and_the_flag_form_of_trace() {
        let a = args("--workload pfpp_exec --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some("pfpp_exec"), 9, 3.0, true)
        );
        assert!(
            !args("--workload pfpp_exec --trace 0 --seed 2")
                .unwrap()
                .trace
        );
        let a = args("--trace --seed 4").unwrap();
        assert!(a.trace && a.seed == 4 && a.workload.is_none());
        assert_eq!(args("--smoke").unwrap().seconds, SMOKE_SECONDS);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn default_window_is_benchmark_json_run_seconds() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
