//! Failure injection: corrupted, truncated, or missing checkpoint files
//! must be detected at restart, and damage to one step must not impair
//! restart from another step — the fault-tolerance properties that make
//! application-level checkpointing worth its cost.

use proptest::prelude::*;
use rbio_repro::rbio::exec::{execute, ExecConfig, ExecError};
use rbio_repro::rbio::fault::FaultPlan;
use rbio_repro::rbio::format::{decode_header, materialize_payloads, FormatError};
use rbio_repro::rbio::layout::DataLayout;
use rbio_repro::rbio::restart::{read_checkpoint, read_checkpoint_auto, RestartError};
use rbio_repro::rbio::strategy::{CheckpointPlan, CheckpointSpec, Strategy};
use rbio_repro::rbio_plan::Op;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("rbio-fi-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (rank as usize + field + i) as u8;
    }
}

fn write_step(
    dir: &std::path::Path,
    layout: &DataLayout,
    step: u64,
    strategy: Strategy,
) -> CheckpointPlan {
    let plan = CheckpointSpec::new(layout.clone(), format!("s{step:03}"))
        .strategy(strategy)
        .step(step)
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    execute(&plan.program, payloads, &ExecConfig::new(dir)).expect("checkpoint");
    plan
}

#[test]
fn corrupted_header_detected() {
    let dir = tmpdir("corrupt-hdr");
    let layout = DataLayout::uniform(8, &[("a", 4096)]);
    let plan = write_step(&dir, &layout, 1, Strategy::rbio(2));
    let victim = dir.join(&plan.plan_files[0].name);
    // Flip a byte inside the header region.
    let mut bytes = std::fs::read(&victim).expect("read");
    bytes[40] ^= 0xFF;
    std::fs::write(&victim, bytes).expect("write");
    let err = read_checkpoint(&dir, &plan).expect_err("must detect corruption");
    match err {
        RestartError::Format { source, .. } => {
            assert!(
                matches!(
                    source,
                    FormatError::CrcMismatch | FormatError::BadVersion(_)
                ),
                "{source}"
            )
        }
        other => panic!("expected Format error, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_data_detected() {
    let dir = tmpdir("truncate");
    let layout = DataLayout::uniform(8, &[("a", 8192), ("b", 100)]);
    let plan = write_step(&dir, &layout, 1, Strategy::coio(2));
    let victim = dir.join(&plan.plan_files[1].name);
    let orig = std::fs::metadata(&victim).expect("meta").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .expect("open");
    f.set_len(orig / 2).expect("truncate");
    drop(f);
    let err = read_checkpoint(&dir, &plan).expect_err("must detect truncation");
    // Truncation is a torn checkpoint (incomplete write), not a layout
    // inconsistency: it must carry the Torn classification so restart
    // can fall back to the previous complete step.
    assert!(matches!(err, RestartError::Torn { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deleted_file_detected_by_plan_and_auto_discovery() {
    let dir = tmpdir("deleted");
    let layout = DataLayout::uniform(8, &[("a", 1024)]);
    let plan = write_step(&dir, &layout, 1, Strategy::rbio(4));
    std::fs::remove_file(dir.join(&plan.plan_files[2].name)).expect("delete");
    assert!(read_checkpoint(&dir, &plan).is_err());
    // Auto-discovery sees a rank-coverage gap.
    let err = read_checkpoint_auto(&dir, "s001").expect_err("gap");
    assert!(matches!(err, RestartError::Inconsistent(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damage_to_new_step_leaves_old_step_restartable() {
    // The operational pattern: keep step N-1 until step N is verified.
    let dir = tmpdir("two-steps");
    let layout = DataLayout::uniform(8, &[("a", 2048)]);
    let old_plan = write_step(&dir, &layout, 10, Strategy::rbio(2));
    let new_plan = write_step(&dir, &layout, 20, Strategy::rbio(2));
    // The "crash" during step 20: one file half-written.
    let victim = dir.join(&new_plan.plan_files[1].name);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .expect("open");
    f.set_len(10).expect("truncate");
    drop(f);
    assert!(
        read_checkpoint(&dir, &new_plan).is_err(),
        "new step must fail"
    );
    let restored = read_checkpoint(&dir, &old_plan).expect("old step must restore");
    assert_eq!(restored.step, 10);
    let mut want = vec![0u8; 2048];
    fill(5, 0, &mut want);
    assert_eq!(restored.field_data(5, 0), &want[..]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn swapped_files_between_steps_detected() {
    // Restoring a plan against files from a different job shape fails.
    let dir_a = tmpdir("swap-a");
    let dir_b = tmpdir("swap-b");
    let layout_a = DataLayout::uniform(8, &[("a", 1024)]);
    let layout_b = DataLayout::uniform(16, &[("a", 1024)]);
    let plan_a = write_step(&dir_a, &layout_a, 1, Strategy::rbio(2));
    let plan_b = write_step(&dir_b, &layout_b, 1, Strategy::rbio(2));
    // Same file names (same prefix/count for first two files); copy B's
    // file over A's and try to restore A.
    std::fs::copy(
        dir_b.join(&plan_b.plan_files[0].name),
        dir_a.join(&plan_a.plan_files[0].name),
    )
    .expect("copy");
    let err = read_checkpoint(&dir_a, &plan_a).expect_err("job shape mismatch");
    assert!(matches!(err, RestartError::Inconsistent(_)), "{err}");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn executor_surfaces_io_errors_with_rank() {
    // Point the executor at an unwritable base dir.
    let layout = DataLayout::uniform(4, &[("a", 64)]);
    let plan = CheckpointSpec::new(layout, "x").plan().expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    let err = execute(
        &plan.program,
        payloads,
        &ExecConfig::new("/proc/definitely/not/writable"),
    )
    .expect_err("must fail");
    assert!(
        matches!(err, ExecError::Setup(_) | ExecError::Io { .. }),
        "{err}"
    );
}

#[test]
fn stale_files_from_previous_run_are_overwritten() {
    // create:true truncates, so a shrinking re-checkpoint cannot leave
    // stale tail bytes that would confuse the reader.
    let dir = tmpdir("stale");
    let big = DataLayout::uniform(4, &[("a", 8192)]);
    write_step(&dir, &big, 1, Strategy::rbio(1));
    let small = DataLayout::uniform(4, &[("a", 128)]);
    let plan_small = CheckpointSpec::new(small.clone(), "s001")
        .strategy(Strategy::rbio(1))
        .step(2)
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan_small, fill);
    execute(&plan_small.program, payloads, &ExecConfig::new(&dir)).expect("rewrite");
    // File on disk must now be exactly the small size (plus footer).
    let f = dir.join(&plan_small.plan_files[0].name);
    let len = std::fs::metadata(&f).expect("meta").len();
    let header = decode_header(&std::fs::read(&f).expect("read")).expect("header");
    assert_eq!(len, header.expected_committed_size());
    let restored = read_checkpoint(&dir, &plan_small).expect("restart");
    assert_eq!(restored.step, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dropped_worker_message_times_out_instead_of_hanging() {
    // rbio(1): ranks 1..4 hand their payload to writer 0. Drop rank 1's
    // package: the writer's recv must time out with a diagnosis, and every
    // rank must unwind — not deadlock.
    let dir = tmpdir("drop-msg");
    let layout = DataLayout::uniform(4, &[("a", 256)]);
    let plan = CheckpointSpec::new(layout, "s001")
        .strategy(Strategy::rbio(1))
        .plan()
        .expect("plan");
    let payloads = materialize_payloads(&plan, fill);
    let mut cfg = ExecConfig::new(&dir);
    cfg.faults = FaultPlan::none().drop_message(1, 0, 0);
    cfg.recv_timeout = std::time::Duration::from_millis(100);
    let err = execute(&plan.program, payloads, &cfg).expect_err("must time out");
    assert!(err.to_string().contains("lost handoff"), "{err}");
    // No file was published.
    assert!(!dir.join(&plan.plan_files[0].name).exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The rank whose op list commits plan file 0 (its owner), and the other
/// ranks that have it open and close it.
fn owner_and_bystanders_of_file_0(plan: &CheckpointPlan) -> (u32, Vec<u32>) {
    let ranks_with = |wanted: fn(&Op) -> bool| -> Vec<u32> {
        let ops = plan.program.ops.iter().zip(0u32..);
        ops.filter(|(ops, _)| ops.iter().any(wanted))
            .map(|(_, rank)| rank)
            .collect()
    };
    let owners = ranks_with(|op| matches!(op, Op::Commit { file } if file.0 == 0));
    assert_eq!(owners.len(), 1, "exactly one rank commits a file");
    let mut closers = ranks_with(|op| matches!(op, Op::Close { file } if file.0 == 0));
    closers.retain(|r| *r != owners[0]);
    (owners[0], closers)
}

/// `FaultPlan::fsync_eio` end to end. An atomic file is synced once, by
/// the rank that commits it, after the footer is in it: the injection on
/// that rank fails the generation there (the sealed `.tmp` is what is
/// left, never the final name), keeps failing it on every later
/// generation under the same plan, and leaves the previous generation
/// restorable. On any other rank that has the file open — coIO's group
/// members, one of them a second aggregator here — it fails nothing:
/// that rank's `Close` no longer syncs.
#[test]
fn fsync_eio_fails_the_commit_of_its_rank_and_nothing_else() {
    let layout = DataLayout::uniform(8, &[("a", 4096), ("b", 1024)]);
    let coio = Strategy::CoIo {
        nf: 2,
        aggregator_ratio: 2,
    };
    for (tag, strategy) in [
        ("1pfpp", Strategy::OnePfpp),
        ("coio", coio),
        ("rbio", Strategy::rbio(2)),
    ] {
        for depth in [1u32, 2] {
            let case = format!("{tag} at depth {depth}");
            let dir = tmpdir(&format!("fsync-eio-{tag}-{depth}"));
            let gen1 = write_step(&dir, &layout, 1, strategy);
            let want = read_checkpoint(&dir, &gen1).expect("gen 1");
            let durable = |faults: FaultPlan| {
                let mut cfg = ExecConfig::new(&dir).pipeline_depth(depth).faults(faults);
                cfg.fsync_on_close = true;
                cfg
            };
            let plan_for = |step: u64| {
                CheckpointSpec::new(layout.clone(), format!("s{step:03}"))
                    .strategy(strategy)
                    .step(step)
                    .plan()
                    .expect("plan")
            };

            let plan2 = plan_for(2);
            let (owner, bystanders) = owner_and_bystanders_of_file_0(&plan2);
            assert_eq!(bystanders.is_empty(), tag != "coio", "{case}");

            // On the bystanders: nothing fails, the generation restores.
            let faults = bystanders
                .iter()
                .fold(FaultPlan::none(), |p, r| p.fsync_eio(*r));
            let payloads = materialize_payloads(&plan2, fill);
            execute(&plan2.program, payloads, &durable(faults))
                .unwrap_or_else(|e| panic!("{case}: a rank that does not commit failed: {e}"));
            assert_eq!(read_checkpoint(&dir, &plan2).expect("gen 2").step, 2);

            // On the owner: generations 3 and 4 fail at its commit fsync.
            let cfg = durable(FaultPlan::none().fsync_eio(owner));
            for step in [3u64, 4] {
                let plan = plan_for(step);
                let payloads = materialize_payloads(&plan, fill);
                match execute(&plan.program, payloads, &cfg) {
                    Err(ExecError::Io { rank, source }) => {
                        assert_eq!(rank, owner, "{case}, step {step}");
                        assert_eq!(source.raw_os_error(), Some(5), "{case}: {source}");
                    }
                    other => panic!("{case}, step {step}: expected EIO, got {other:?}"),
                }
                let final_path = dir.join(&plan.plan_files[0].name);
                assert!(!final_path.exists(), "{case}: unsynced file published");
                // Sealed but unpublished: the failure came after the
                // footer write, at the one fsync of the file.
                let tmp = std::fs::read(format!("{}.tmp", final_path.display())).expect("tmp");
                let header = decode_header(&tmp).expect("header");
                assert_eq!(tmp.len() as u64, header.expected_committed_size(), "{case}");
                assert!(read_checkpoint(&dir, &plan).is_err(), "{case}");
            }

            let again = read_checkpoint(&dir, &gen1).expect("gen 1 intact");
            for r in 0..8u32 {
                for f in 0..2usize {
                    assert_eq!(again.field_data(r, f), want.field_data(r, f), "{case}");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The crash-consistency contract — on the serial AND pipelined write
    /// paths: whatever rank is killed at whatever byte threshold, at any
    /// pipeline depth, restart either loads a complete generation or
    /// reports a typed error — and the previous generation always restores
    /// byte-identically.
    #[test]
    fn any_fault_point_restores_prior_generation_or_errors_typed(
        kill_rank in 0u32..6,
        threshold in 1u64..20_000,
        depth_pick in 0u8..3,
    ) {
        let depth = [1u32, 2, 4][depth_pick as usize];
        let dir = tmpdir(&format!("prop-{kill_rank}-{threshold}-{depth}"));
        let layout = DataLayout::uniform(6, &[("a", 2048), ("b", 512)]);
        let gen1 = write_step(&dir, &layout, 1, Strategy::rbio(2));
        let want = read_checkpoint(&dir, &gen1).expect("gen 1");

        let plan2 = CheckpointSpec::new(layout.clone(), "s002")
            .strategy(Strategy::rbio(2))
            .step(2)
            .plan()
            .expect("plan");
        let payloads = materialize_payloads(&plan2, fill);
        let mut cfg = ExecConfig::new(&dir).pipeline_depth(depth);
        cfg.faults = FaultPlan::none().kill_writer_after_bytes(kill_rank, threshold);
        let res = execute(&plan2.program, payloads, &cfg);

        match read_checkpoint(&dir, &plan2) {
            Ok(r2) => {
                // Complete generation: the fault never fired (worker rank,
                // or threshold past the rank's total writes).
                prop_assert!(res.is_ok(), "execute failed but restart read a full generation");
                prop_assert_eq!(r2.step, 2);
            }
            Err(e) => {
                prop_assert!(res.is_err(), "execute succeeded but restart failed: {}", e);
                prop_assert!(
                    matches!(
                        e,
                        RestartError::Torn { .. }
                            | RestartError::Io(_)
                            | RestartError::Inconsistent(_)
                    ),
                    "untyped restart failure: {}",
                    e
                );
            }
        }

        // Generation 1 is untouched by generation 2's crash.
        let again = read_checkpoint(&dir, &gen1).expect("gen 1 intact");
        for r in 0..6u32 {
            for f in 0..2usize {
                prop_assert_eq!(again.field_data(r, f), want.field_data(r, f));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Exhaustive pipelined fault-point sweep for CI's `--include-ignored`
/// job: every writer rank x a ladder of byte thresholds x depths 2 and 4.
/// Any kill point must leave the prior generation byte-identical and the
/// new one either complete or failing with a typed restart error.
#[test]
#[ignore = "exhaustive fault sweep; run with --include-ignored"]
fn pipelined_fault_sweep_never_publishes_torn_files() {
    let layout = DataLayout::uniform(6, &[("a", 2048), ("b", 512)]);
    for depth in [2u32, 4] {
        for kill_rank in [0u32, 3] {
            for threshold in [1u64, 100, 2048, 5000, 10_000, 20_000] {
                let dir = tmpdir(&format!("sweep-{depth}-{kill_rank}-{threshold}"));
                let gen1 = write_step(&dir, &layout, 1, Strategy::rbio(2));
                let want = read_checkpoint(&dir, &gen1).expect("gen 1");

                let plan2 = CheckpointSpec::new(layout.clone(), "s002")
                    .strategy(Strategy::rbio(2))
                    .step(2)
                    .plan()
                    .expect("plan");
                let payloads = materialize_payloads(&plan2, fill);
                let mut cfg = ExecConfig::new(&dir).pipeline_depth(depth);
                cfg.faults = FaultPlan::none().kill_writer_after_bytes(kill_rank, threshold);
                let res = execute(&plan2.program, payloads, &cfg);

                match read_checkpoint(&dir, &plan2) {
                    Ok(_) => assert!(res.is_ok(), "killed run read back complete"),
                    Err(e) => {
                        assert!(res.is_err(), "ok run failed restart: {e}");
                        assert!(
                            matches!(
                                e,
                                RestartError::Torn { .. }
                                    | RestartError::Io(_)
                                    | RestartError::Inconsistent(_)
                            ),
                            "untyped: {e}"
                        );
                    }
                }
                let again = read_checkpoint(&dir, &gen1).expect("gen 1 intact");
                for r in 0..6u32 {
                    for f in 0..2usize {
                        assert_eq!(again.field_data(r, f), want.field_data(r, f));
                    }
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}
