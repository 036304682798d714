//! Degraded-mode observability: checkpoint campaigns under injected
//! writer failures must complete instead of aborting, restore
//! byte-identically, and surface every failover-path counter
//! (`failovers`, `fenced_commits_refused`, `degraded_generations`) in
//! the profile export. A slow writer stays alive, and a write the fault
//! plan refused never reaches the disk.

use std::time::Duration;

use rbio_profile::counters;
use rbio_repro::rbio::commit;
use rbio_repro::rbio::exec::{execute, ExecConfig, ExecError};
use rbio_repro::rbio::failover::FailoverPolicy;
use rbio_repro::rbio::fault::FaultPlan;
use rbio_repro::rbio::format::materialize_payloads;
use rbio_repro::rbio::layout::DataLayout;
use rbio_repro::rbio::manager::{CheckpointManager, GenerationState, ManagerConfig};
use rbio_repro::rbio::strategy::{CheckpointSpec, Strategy};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("rbio-fo-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (rank as usize * 31 + field * 7 + i) as u8;
    }
}

/// One test driving all three counters so the final delta-and-JSON check
/// sees every leg of the failover path in a single snapshot window.
#[test]
fn degraded_campaign_bumps_every_failover_counter_and_exports_them() {
    let before = counters::failover_snapshot();
    let layout = DataLayout::uniform(8, &[("Ex", 2048), ("Ey", 512)]);

    // Leg 1 — failovers + degraded_generations: writer rank 4 dies
    // mid-extent; the campaign completes degraded and restores
    // byte-identically to an uninjected reference run.
    let ref_dir = tmpdir("ref");
    let ref_mgr = CheckpointManager::new(
        layout.clone(),
        ManagerConfig::new(&ref_dir, Strategy::rbio(2)),
    )
    .expect("reference manager");
    ref_mgr.checkpoint(1, fill).expect("reference checkpoint");
    let want = ref_mgr.restore_latest().expect("reference restore");

    let kill_dir = tmpdir("kill");
    let mut kill_cfg = ManagerConfig::new(&kill_dir, Strategy::rbio(2));
    kill_cfg.faults = FaultPlan::none().kill_writer_after_bytes(4, 64);
    let mgr = CheckpointManager::new(layout.clone(), kill_cfg).expect("manager");
    let rep = mgr.checkpoint(1, fill).expect("failover absorbs the death");
    assert!(
        rep.failovers.iter().any(|&(dead, _)| dead == 4),
        "rank 4's extent must have been taken over: {:?}",
        rep.failovers
    );
    assert_eq!(mgr.generation_state(1), GenerationState::Degraded);
    let got = mgr.restore_latest().expect("degraded restore");
    assert_eq!(got.step, want.step);
    for r in 0..8u32 {
        for f in 0..2usize {
            assert_eq!(
                got.field_data(r, f),
                want.field_data(r, f),
                "rank {r} field {f} must restore byte-identically"
            );
        }
    }

    // Leg 2 — fenced_commits_refused: a hung writer is declared dead and
    // fenced; when the zombie revives, its own commit must be refused
    // (the successor already owns the extent).
    let hang_dir = tmpdir("hang");
    let plan = CheckpointSpec::new(layout.clone(), "h001")
        .strategy(Strategy::rbio(2))
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    let mut hang_cfg = ExecConfig::new(&hang_dir);
    hang_cfg.faults = FaultPlan::none().hang_writer(0, Duration::from_millis(300));
    hang_cfg.failover = FailoverPolicy {
        enabled: true,
        dead_after: Duration::from_millis(50),
    };
    let rep = execute(&plan.program, payloads, &hang_cfg).expect("hang absorbed");
    assert!(
        rep.failovers.iter().any(|&(dead, _)| dead == 0),
        "hung writer 0 must have been fenced out: {:?}",
        rep.failovers
    );

    // Leg 3 — a slow writer completes with no failover: every write of
    // rank 0 is delayed, far short of `dead_after`, and the drain simply
    // waits the delay out. Depth 4 keeps the trailing close/commit
    // submits from filling the pipeline window, so the stall surfaces at
    // the drain rather than as submit backpressure.
    let slow_dir = tmpdir("slow");
    let plan = CheckpointSpec::new(layout.clone(), "d001")
        .strategy(Strategy::rbio(2))
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    let mut slow_cfg = ExecConfig::new(&slow_dir).pipeline_depth(4);
    slow_cfg.faults = FaultPlan::none().delay_writes(0, Duration::from_millis(150));
    slow_cfg.failover = FailoverPolicy {
        enabled: true,
        dead_after: Duration::from_secs(30),
    };
    let rep = execute(&plan.program, payloads, &slow_cfg).expect("slow writer completes");
    assert!(
        rep.failovers.is_empty(),
        "a slow writer is waited for, not failed over: {:?}",
        rep.failovers
    );

    // Every leg's counter must be visible in one snapshot delta, and the
    // JSON export must carry all three keys.
    let delta = counters::failover_snapshot().delta_since(&before);
    assert!(delta.failovers >= 2, "kill + hang legs: {delta:?}");
    assert!(delta.degraded_generations >= 1, "{delta:?}");
    assert!(delta.fenced_commits_refused >= 1, "{delta:?}");
    let json = delta.to_json();
    for key in [
        "failovers",
        "fenced_commits_refused",
        "degraded_generations",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "{key} missing: {json}"
        );
    }

    for d in [ref_dir, kill_dir, hang_dir, slow_dir] {
        std::fs::remove_dir_all(&d).ok();
    }
}

/// A write the fault plan refuses never reaches the disk, however long
/// the drain waits on it: rank 0's device is full from its first byte,
/// and every write it makes is slow — slower than a quarter of the
/// receive timeout, faster than `dead_after`, so the writer stays alive
/// throughout. The run fails with `ENOSPC`, and rank 0's unpublished
/// file holds none of the bytes the plan refused.
#[test]
fn a_refused_write_never_lands_while_the_drain_waits() {
    // One field: rank 0 submits a header write, a field write, a close
    // and a commit, which all fit in the depth-4 window, so the run
    // waits on the slow write in `drain`, not in `submit`.
    let layout = DataLayout::uniform(2, &[("Ex", 2048)]);
    let plan = CheckpointSpec::new(layout, "r001")
        .strategy(Strategy::OnePfpp)
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    let dir = tmpdir("refused");
    let cfg = ExecConfig::new(&dir)
        .pipeline_depth(4)
        .faults(
            FaultPlan::none()
                .delay_writes(0, Duration::from_millis(700))
                .enospc_after_bytes(0, 0),
        )
        .failover(FailoverPolicy::from_recv_timeout(Duration::from_secs(2)));
    match execute(&plan.program, payloads, &cfg) {
        Err(ExecError::Io { rank: 0, source }) => {
            assert_eq!(source.raw_os_error(), Some(28), "ENOSPC expected: {source}")
        }
        other => panic!("rank 0's disk is full, yet: {other:?}"),
    }
    assert_eq!(plan.plan_files[0].r0, 0, "file 0 is rank 0's");
    let tmp = commit::tmp_path(&dir.join(&plan.plan_files[0].name));
    let on_disk = std::fs::read(&tmp).unwrap_or_default();
    assert!(
        on_disk.iter().all(|&b| b == 0),
        "{}: {} bytes, {} of them non-zero, although the plan refused every write",
        tmp.display(),
        on_disk.len(),
        on_disk.iter().filter(|&&b| b != 0).count()
    );
    std::fs::remove_dir_all(&dir).ok();
}
