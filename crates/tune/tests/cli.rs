//! `rbio-tune` CLI smoke tests: the binary runs end-to-end, reports
//! non-zero tuner telemetry, exports a parseable plan, and enforces
//! `--expect-nf`.

use rbio_tune::TunedPlan;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rbio-tune"))
}

#[test]
fn search_reports_nonzero_telemetry() {
    let out = bin()
        .args([
            "search", "--np", "256", "--env", "intrepid", "--budget", "small",
        ])
        .output()
        .expect("spawn rbio-tune");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = rbio_plan::json::parse(&stdout).expect("report is valid JSON");
    let evals = report
        .get("search")
        .and_then(|s| s.get("evals"))
        .and_then(|v| v.as_u64())
        .expect("search.evals present");
    assert!(evals > 0, "no evaluations recorded");
    // Telemetry flows through the rbio-profile counters and must show
    // the same activity.
    let tele_evals = report
        .get("telemetry")
        .and_then(|t| t.get("evals"))
        .and_then(|v| v.as_u64())
        .expect("telemetry.evals present");
    assert!(tele_evals >= evals);
    let nanos = report
        .get("telemetry")
        .and_then(|t| t.get("eval_nanos"))
        .and_then(|v| v.as_u64())
        .expect("telemetry.eval_nanos present");
    assert!(nanos > 0, "eval time not accounted");
}

#[test]
fn export_emits_a_parseable_plan() {
    let out = bin()
        .args([
            "export", "--np", "256", "--env", "intrepid", "--budget", "small",
        ])
        .output()
        .expect("spawn rbio-tune");
    assert!(out.status.success());
    let plan = TunedPlan::from_json(&String::from_utf8(out.stdout).unwrap()).expect("plan parses");
    assert_eq!(plan.np, 256);
    assert_eq!(plan.env_label, "intrepid");
    assert!(plan.cost_seconds.is_finite());
    // The exported plan converts into executor/simulator configs.
    let exec = plan.exec_config("/tmp/ckpt");
    assert_eq!(exec.pipeline_depth, plan.candidate.pipeline_depth);
    let m = plan.machine_config(&rbio_machine::MachineConfig::intrepid(256));
    assert_eq!(m.pipeline_depth, plan.candidate.pipeline_depth);
}

#[test]
fn expect_nf_band_gates_exit_code() {
    // At np=256 the winner's nf is 256 (no create storm this small, so
    // more streams always win); a band excluding it must fail...
    let out = bin()
        .args([
            "search",
            "--np",
            "256",
            "--env",
            "intrepid",
            "--budget",
            "small",
            "--expect-nf",
            "1:64",
        ])
        .output()
        .expect("spawn rbio-tune");
    assert_eq!(out.status.code(), Some(1));
    // ...and a band containing it must pass.
    let out = bin()
        .args([
            "search",
            "--np",
            "256",
            "--env",
            "intrepid",
            "--budget",
            "small",
            "--expect-nf",
            "128:512",
        ])
        .output()
        .expect("spawn rbio-tune");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_usage_exits_2() {
    let out = bin().args(["frobnicate"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["search", "--env", "nonsense"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    // Not a whole number of psets in a power-of-two partition.
    for np in ["300", "0", "128"] {
        let out = bin()
            .args(["search", "--np", np, "--budget", "small"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "--np {np}");
    }
}
