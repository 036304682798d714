//! Backend conformance: every `IoBackend` must be observably identical
//! to the blocking serial reference — same bytes on disk across
//! strategies, executors, and pipeline depths; same typed errors at the
//! same logical write; same kill byte boundaries; same commit fencing
//! under failover. The ring backend additionally must survive injected
//! short writes by resubmitting the remainder.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rbio::backend::{self, BackendKind, IoBackend, IoCtx, RingBackend, RingConfig, WriteOp};
use rbio::buf::{Bytes, CopyMode};
use rbio::exec::{execute, ExecConfig};
use rbio::failover::FailoverPolicy;
use rbio::fault::{FaultPlan, WriteError};
use rbio::format::materialize_payloads;
use rbio::layout::DataLayout;
use rbio::rt;
use rbio::strategy::{CheckpointPlan, CheckpointSpec, RbIoCommit, Strategy};

/// The two selectable backends, swept by every conformance test.
const BACKENDS: [BackendKind; 2] = [BackendKind::Threaded, BackendKind::Ring];

fn kind_label(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Default => "default",
        BackendKind::Threaded => "threaded",
        BackendKind::Ring => "ring",
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rbio-conf-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Deterministic payload filler (same recipe as the equivalence tests).
fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    let mut x = (u64::from(rank) << 24) ^ ((field as u64) << 8) ^ 0x2545F4914F6CDD1D;
    for b in buf.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (x >> 33) as u8;
    }
}

fn plan_for(strategy: Strategy) -> CheckpointPlan {
    let layout = DataLayout::uniform(4, &[("Ex", 384), ("Ey", 160)]);
    CheckpointSpec::new(layout, "ck")
        .strategy(strategy)
        .step(7)
        .plan()
        .expect("valid plan")
}

/// Serial deep-copy reference run: the ground truth every backend and
/// depth must reproduce byte-for-byte.
fn reference(plan: &CheckpointPlan, dir: &Path) -> Vec<(String, Vec<u8>)> {
    let payloads = materialize_payloads(plan, fill);
    let ref_dir = dir.join("ref");
    execute(
        &plan.program,
        payloads,
        &ExecConfig::new(&ref_dir).copy_mode(CopyMode::DeepCopy),
    )
    .expect("reference execution");
    plan.plan_files
        .iter()
        .map(|pf| {
            let bytes = std::fs::read(ref_dir.join(&pf.name)).expect("reference file");
            (pf.name.clone(), bytes)
        })
        .collect()
}

fn assert_files_match(out: &Path, expected: &[(String, Vec<u8>)], what: &str) {
    for (name, want) in expected {
        let got =
            std::fs::read(out.join(name)).unwrap_or_else(|e| panic!("{what}: read {name}: {e}"));
        assert_eq!(
            &got, want,
            "{what}: {name} differs from the serial reference"
        );
    }
}

#[test]
fn byte_identical_across_strategies_depths_and_backends() {
    let strategies = [
        Strategy::OnePfpp,
        Strategy::coio(2),
        Strategy::rbio(2),
        Strategy::RbIo {
            ng: 2,
            commit: RbIoCommit::CollectiveShared,
        },
    ];
    for (si, strategy) in strategies.into_iter().enumerate() {
        let dir = tmpdir(&format!("equiv-s{si}"));
        let plan = plan_for(strategy);
        let expected = reference(&plan, &dir);
        for kind in BACKENDS {
            for depth in [1u32, 2, 4] {
                let out = dir.join(format!("{}-d{depth}", kind_label(kind)));
                let payloads = materialize_payloads(&plan, fill);
                let cfg = ExecConfig::new(&out).pipeline_depth(depth).io_backend(kind);
                execute(&plan.program, payloads, &cfg).unwrap_or_else(|e| {
                    panic!("{} depth {depth} strategy {si}: {e}", kind_label(kind))
                });
                assert_files_match(
                    &out,
                    &expected,
                    &format!("{} depth {depth} strategy {si}", kind_label(kind)),
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn byte_identical_through_the_rt_executor_per_backend() {
    let dir = tmpdir("rt-equiv");
    let plan = plan_for(Strategy::RbIo {
        ng: 2,
        commit: RbIoCommit::CollectiveShared,
    });
    let expected = reference(&plan, &dir);
    for kind in BACKENDS {
        let out = dir.join(kind_label(kind));
        let payloads = materialize_payloads(&plan, fill);
        let cfg = rt::RtConfig::new(&out).pipeline_depth(2).io_backend(kind);
        let program = &plan.program;
        let results = rt::run(program.nranks(), |mut comm| {
            let rank = comm.rank() as usize;
            rt::checkpoint_rank_with(&mut comm, program, &payloads[rank], &cfg)
                .map_err(|e| format!("{e:?}"))
        });
        for r in results {
            r.unwrap_or_else(|e| panic!("{}: rt rank failed: {e}", kind_label(kind)));
        }
        assert_files_match(&out, &expected, &format!("rt {}", kind_label(kind)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `RBIO_IO_BACKEND` seam: `BackendKind::Default` resolves through
/// the environment, which is how CI re-runs this whole suite under the
/// ring backend without code changes.
#[test]
fn default_kind_resolves_via_environment() {
    let resolved = backend::resolve(BackendKind::Default);
    match std::env::var("RBIO_IO_BACKEND").as_deref() {
        Ok("ring") => assert_eq!(resolved.name(), "ring"),
        _ => assert_eq!(resolved.name(), "threaded"),
    }
}

#[test]
fn short_writes_resubmit_to_byte_identical_output_per_backend() {
    let dir = tmpdir("short");
    let plan = plan_for(Strategy::rbio(2));
    let expected = reference(&plan, &dir);
    // Writer rank 0's first logical write delivers only a `cap`-byte
    // prefix — `cap = 0` is a device that accepted nothing; both
    // backends must finish the op (blocking continuation for the
    // threaded path, completion-driven resubmit for the ring) and land
    // the same bytes as the uninjected reference. The kill threshold
    // sits one byte past everything rank 0 writes: it stays silent
    // unless a backend consults the fault plan twice for the cut write
    // and so accounts its bytes twice.
    let rank0_bytes: u64 = plan.program.ops[0]
        .iter()
        .map(|op| op.bytes_written())
        .sum();
    for kind in BACKENDS {
        for cap in [64, 0] {
            let what = format!("short cap {cap} {}", kind_label(kind));
            let out = dir.join(format!("{}-cap{cap}", kind_label(kind)));
            let payloads = materialize_payloads(&plan, fill);
            let before = rbio_profile::counters::failover_snapshot();
            let faults = FaultPlan::none()
                .short_write(0, 0, cap)
                .kill_writer_after_bytes(0, rank0_bytes + 1);
            let cfg = ExecConfig::new(&out)
                .pipeline_depth(2)
                .io_backend(kind)
                .faults(faults);
            execute(&plan.program, payloads, &cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_files_match(&out, &expected, &what);
            let delta = rbio_profile::counters::failover_snapshot().delta_since(&before);
            assert!(
                delta.short_write_retries >= 1,
                "{what}: the injected short write must be counted as a \
                 short-write retry, not a hedge or transient retry"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_write_errors_latch_and_fence_commits_per_backend() {
    let dir = tmpdir("latch");
    let plan = plan_for(Strategy::rbio(2));
    for kind in BACKENDS {
        let out = dir.join(kind_label(kind));
        let payloads = materialize_payloads(&plan, fill);
        let cfg = ExecConfig::new(&out)
            .pipeline_depth(2)
            .io_backend(kind)
            .faults(FaultPlan::none().fail_nth_write(0, 0, u32::MAX));
        let err = execute(&plan.program, payloads, &cfg).expect_err("failing write must surface");
        let _ = err.to_string();
        // Commit fencing: writer 0's file must never publish under its
        // final name (the latched error skips the commit job).
        let victim = &plan.plan_files[0].name;
        assert!(
            !out.join(victim).exists(),
            "{}: {victim} was published despite a persistently failing write",
            kind_label(kind)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_fencing_under_failover_is_backend_independent() {
    let dir = tmpdir("failover");
    let plan = plan_for(Strategy::rbio(2));
    let expected = reference(&plan, &dir);
    // Writer rank 0 hangs long enough to be declared dead; the survivor
    // re-stages the orphaned extent. The published bytes must match the
    // uninjected reference whichever backend runs the flush jobs.
    for kind in BACKENDS {
        let out = dir.join(kind_label(kind));
        let payloads = materialize_payloads(&plan, fill);
        let cfg = ExecConfig::new(&out)
            .pipeline_depth(2)
            .io_backend(kind)
            .faults(FaultPlan::none().hang_writer(0, Duration::from_millis(300)))
            .failover(FailoverPolicy {
                enabled: true,
                straggler_after: Duration::from_millis(25),
                dead_after: Duration::from_millis(50),
            });
        let report = execute(&plan.program, payloads, &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", kind_label(kind)));
        assert!(
            !report.failovers.is_empty(),
            "{}: hung writer 0 was never taken over",
            kind_label(kind)
        );
        assert_files_match(&out, &expected, &format!("failover {}", kind_label(kind)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill faults must land on the same logical byte boundary whichever
/// backend executes the batch: the fault layer's accounting is consulted
/// in submission order on both paths.
#[test]
fn kill_after_bytes_lands_on_the_same_boundary_per_backend() {
    let run = |b: &dyn IoBackend, name: &str| -> (u64, usize) {
        let dir = tmpdir(name);
        let path = dir.join("k.bin");
        let file = Arc::new(
            std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(&path)
                .expect("open"),
        );
        let faults = FaultPlan::none().kill_writer_after_bytes(0, 1000);
        let ctx = IoCtx {
            rank: 0,
            wid: 0,
            faults: &faults,
            write_retries: 3,
            retry_backoff: Duration::from_micros(50),
        };
        let ops: Vec<WriteOp> = (0..5)
            .map(|i| WriteOp {
                file: Arc::clone(&file),
                offset: i * 400,
                bufs: vec![Bytes::from_vec(vec![i as u8 + 1; 400])],
            })
            .collect();
        let out = b.run_writes(&ctx, ops);
        let at = match out.error {
            Some((i, WriteError::Killed)) => i,
            other => panic!("{name}: expected a kill, got {other:?}"),
        };
        let len = file.metadata().expect("meta").len();
        std::fs::remove_dir_all(&dir).ok();
        (len, at)
    };
    let threaded = run(&backend::ThreadedBackend, "kill-t");
    // A ring of depth 2 takes the five ops in three windows: the kill at
    // op 3 lands in the second, and must also cancel op 4 in the third.
    let ring = run(
        &RingBackend::with_config(RingConfig {
            depth: 2,
            batch: 2,
            completion_seed: 0xBEEF,
        }),
        "kill-r",
    );
    assert_eq!(
        threaded, ring,
        "(file length, killed op index) must not depend on the backend"
    );
}
