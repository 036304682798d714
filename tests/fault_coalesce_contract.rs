//! Pins the fault/coalescer contract: an armed [`FaultPlan`] disables the
//! vectored-write coalescer, so fault injection always observes
//! one write syscall per plan op.
//!
//! Why this matters: `fail_nth_write(rank, n, ..)` addresses the *n*th
//! write a rank issues. If a refactor silently re-enabled coalescing under
//! armed faults, a run of contiguous `WriteAt` ops would collapse into a
//! single vectored write, the *n*th write would never happen, and every
//! fault-injection test would silently stop injecting — passing while
//! testing nothing. These tests fail loudly in that world, across the
//! thread-per-rank executor (serial and pipelined) and the MPI-like
//! runtime.

use rbio_plan::{DataRef, Op, Program, ProgramBuilder};
use rbio_repro::rbio::exec::{execute, ExecConfig};
use rbio_repro::rbio::fault::FaultPlan;
use rbio_repro::rbio::rt;

const CHUNK: u64 = 1024;
const NCHUNKS: u64 = 4;

/// One rank, one file, `NCHUNKS` contiguous `WriteAt` ops — the exact
/// shape the coalescer turns into a single vectored write when unarmed.
fn contiguous_write_program() -> Program {
    let mut b = ProgramBuilder::new(vec![CHUNK * NCHUNKS]);
    let f = b.file("coalesce-probe.bin", CHUNK * NCHUNKS);
    b.push(
        0,
        Op::Open {
            file: f,
            create: true,
        },
    );
    for k in 0..NCHUNKS {
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: k * CHUNK,
                src: DataRef::Own {
                    off: k * CHUNK,
                    len: CHUNK,
                },
            },
        );
    }
    b.push(0, Op::Close { file: f });
    b.build()
}

fn payloads() -> Vec<Vec<u8>> {
    vec![(0..CHUNK * NCHUNKS).map(|i| (i * 31 % 251) as u8).collect()]
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("rbio-fcc-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Fails the last of the four writes once; the retry then succeeds. Only
/// possible if all four writes actually happen separately.
fn one_shot_fault() -> FaultPlan {
    FaultPlan::none().fail_nth_write(0, NCHUNKS - 1, 1)
}

/// Fails the last write more times than the retry budget allows: the run
/// must error out — unless coalescing swallowed the write, in which case
/// the fault never fires and the run wrongly succeeds.
fn permanent_fault(write_retries: u32) -> FaultPlan {
    FaultPlan::none().fail_nth_write(0, NCHUNKS - 1, write_retries + 1)
}

#[test]
fn armed_faults_disable_coalescer_exec_serial() {
    let program = contiguous_write_program();

    // Reference bytes from an unfaulted run.
    let dir_ref = tmpdir("exec-ref");
    execute(&program, payloads(), &ExecConfig::new(&dir_ref)).expect("reference run");
    let want = std::fs::read(dir_ref.join("coalesce-probe.bin")).expect("reference file");

    // Armed: the 4th write exists, fails once, retries, and the retry
    // leaves the file byte-identical to the unfaulted run.
    let dir = tmpdir("exec-armed");
    let cfg = ExecConfig::new(&dir).faults(one_shot_fault());
    let report = execute(&program, payloads(), &cfg).expect("faulted run recovers");
    assert_eq!(
        report.retries,
        1,
        "the injected fault on write #{} must fire exactly once — zero \
         retries means the coalescer merged the writes despite armed faults",
        NCHUNKS - 1
    );
    let got = std::fs::read(dir.join("coalesce-probe.bin")).expect("faulted file");
    assert_eq!(got, want, "retry must reproduce the unfaulted bytes");

    for d in [&dir_ref, &dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn armed_faults_disable_coalescer_exec_pipelined() {
    let program = contiguous_write_program();
    let dir = tmpdir("exec-pipe");
    let cfg = ExecConfig::new(&dir)
        .pipeline_depth(2)
        .faults(permanent_fault(3));
    let err = execute(&program, payloads(), &cfg);
    assert!(
        err.is_err(),
        "a permanent fault on write #{} must sink the pipelined run; \
         success means the write was coalesced away under armed faults",
        NCHUNKS - 1
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn armed_faults_disable_coalescer_rt() {
    let program = contiguous_write_program();
    let dir = tmpdir("rt");
    let pl = payloads();
    let cfg = rt::RtConfig::new(&dir).faults(permanent_fault(3));
    let (program_ref, pl_ref, cfg_ref) = (&program, &pl, &cfg);
    let results = rt::run(1, |mut comm| {
        rt::checkpoint_rank_with(&mut comm, program_ref, &pl_ref[0], cfg_ref)
    });
    assert!(
        results[0].is_err(),
        "rt must also see write #{} and exhaust its retries on it",
        NCHUNKS - 1
    );
    std::fs::remove_dir_all(&dir).ok();
}
