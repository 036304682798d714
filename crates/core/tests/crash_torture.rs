//! Crash-image torture sweeps: record each strategy's durability op
//! stream, enumerate legal post-crash filesystem images (prefix cuts ×
//! fsync-barrier-respecting drop subsets × torn final writes), and
//! assert every image restores the newest fsync-promised step or newer
//! — and that the sweep *does* catch a planted missing-dir-fsync bug.
//!
//! The recorder is process-global, so every test that records (or flips
//! the planted-bug switch) serializes on `SWEEP_LOCK` in addition to
//! the recorder's own install lock.

use std::path::PathBuf;
use std::sync::Mutex;

use proptest::prelude::*;

use rbio::crash::{self, ImageSpec, Scenario, Variant};
use rbio::strategy::Strategy;

static SWEEP_LOCK: Mutex<()> = Mutex::new(());

fn work(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rbio-torture-{tag}-{}", std::process::id()))
}

fn strategies() -> [(&'static str, Strategy); 3] {
    [
        ("1pfpp", Strategy::OnePfpp),
        ("coio", Strategy::coio(2)),
        ("rbio", Strategy::rbio(2)),
    ]
}

#[test]
fn every_crash_image_restores_for_all_three_strategies() {
    let _g = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (tag, strategy) in strategies() {
        let scn = Scenario {
            strategy,
            nranks: 4,
            steps: 2,
        };
        let w = work(tag);
        let ops = crash::record_scenario(&scn, &w.join("record"), false).unwrap();
        let report = crash::sweep_journal(&scn, &ops, 80, 0x5eed, &w).unwrap();
        assert!(
            report.images >= 40,
            "{tag}: expected a real sweep, got {} images",
            report.images
        );
        assert!(
            report.violations.is_empty(),
            "{tag}: {} unrestorable crash images, first: {:?}",
            report.violations.len(),
            report.violations.first()
        );
        let _ = std::fs::remove_dir_all(&w);
    }
}

/// The journal's shape, per strategy: every file published by a rename
/// was synced exactly once since its `.tmp` was (re)created — after
/// every write to it, the last of which is its footer — and that one
/// `Fsync` is what makes those writes required in every later image.
#[test]
fn every_atomic_file_is_synced_once_after_its_footer_and_before_its_rename() {
    use rbio::crash::RecOp;
    use std::collections::HashMap;

    /// Journal indices of the writes and fsyncs to one `.tmp` path since
    /// it was last renamed away.
    #[derive(Default)]
    struct Pending {
        writes: Vec<usize>,
        fsyncs: Vec<usize>,
    }

    let _g = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (tag, strategy) in strategies() {
        let scn = Scenario {
            strategy,
            nranks: 4,
            steps: 2,
        };
        let w = work(&format!("shape-{tag}"));
        let ops = crash::record_scenario(&scn, &w.join("record"), false).unwrap();
        let mut pending: HashMap<&std::path::Path, Pending> = HashMap::new();
        let mut published = 0;
        for (i, op) in ops.iter().enumerate() {
            match op {
                RecOp::Write { path, .. } => pending.entry(path).or_default().writes.push(i),
                RecOp::Fsync { path } => pending.entry(path).or_default().fsyncs.push(i),
                RecOp::Rename { from, to } => {
                    let p = pending.remove(from.as_path()).unwrap_or_default();
                    let what = format!("{tag}: {} (journal op {i})", to.display());
                    assert_eq!(p.fsyncs.len(), 1, "{what}: fsyncs at {:?}", p.fsyncs);
                    let last_write = *p.writes.last().expect("a published file has writes");
                    assert!(
                        last_write < p.fsyncs[0],
                        "{what}: write {last_write} after the fsync at {}",
                        p.fsyncs[0]
                    );
                    let RecOp::Write { data, .. } = &ops[last_write] else {
                        unreachable!("indexed as a write");
                    };
                    assert!(
                        data.starts_with(&rbio::format::FOOTER_MAGIC.to_le_bytes()),
                        "{what}: the last write before the fsync is not the footer"
                    );
                    published += 1;
                }
                RecOp::DirFsync { .. } | RecOp::DurablePoint { .. } => {}
            }
        }
        assert!(pending.is_empty(), "{tag}: written but never published");
        assert!(
            published >= 2 * 3,
            "{tag}: only {published} files published"
        );
        let _ = std::fs::remove_dir_all(&w);
    }
}

/// A non-atomic file has no commit: its `Close` is its durability point,
/// run inline at depth 1 and as a pipelined job at depth 2. Either way its
/// writes are followed by exactly one journaled `Fsync` — the same journal
/// at both depths.
#[test]
fn a_non_atomic_files_close_fsync_is_journaled_at_every_depth() {
    use rbio::crash::{RecOp, Recorder};
    use rbio::exec::{execute, ExecConfig};
    use rbio_plan::{DataRef, Op, ProgramBuilder};
    use std::path::Path;

    let _g = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut b = ProgramBuilder::new(vec![64]);
    let file = b.file("plain.bin", 64);
    b.push(0, Op::Open { file, create: true });
    for k in 0..4u64 {
        let src = DataRef::Own {
            off: k * 16,
            len: 16,
        };
        b.push(
            0,
            Op::WriteAt {
                file,
                offset: k * 16,
                src,
            },
        );
    }
    b.push(0, Op::Close { file });
    let program = b.build();
    let payload: Vec<u8> = (0..64).collect();
    let mut journals = Vec::new();
    for depth in [1, 2] {
        let dir = work(&format!("close-fsync-{depth}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Recorder::install(&dir).unwrap();
        let mut cfg = ExecConfig::new(&dir).pipeline_depth(depth);
        cfg.fsync_on_close = true;
        execute(&program, vec![payload.clone()], &cfg).unwrap();
        let ops = rec.take();
        drop(rec);
        let path = Path::new("plain.bin");
        let (last, writes) = ops.split_last().expect("a journal");
        assert_eq!(last, &RecOp::Fsync { path: path.into() }, "depth {depth}");
        assert!(!writes.is_empty(), "depth {depth}: no writes journaled");
        for op in writes {
            assert!(
                matches!(op, RecOp::Write { path: p, .. } if p == path),
                "depth {depth}: {op:?} before the one fsync"
            );
        }
        journals.push(ops);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(journals[0], journals[1], "the journal depends on the depth");
}

#[test]
fn missing_dir_fsync_is_caught_and_replays_deterministically() {
    let _g = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scn = Scenario {
        strategy: Strategy::rbio(2),
        nranks: 4,
        steps: 2,
    };
    let w = work("revert-pr1");
    let _ = std::fs::remove_dir_all(&w);
    std::fs::create_dir_all(&w).unwrap();

    // Record once with the commit protocol's dir fsync planted out.
    let ops = crash::record_scenario(&scn, &w.join("record"), true).unwrap();
    assert!(
        !ops.iter()
            .any(|op| matches!(op, crash::RecOp::DirFsync { .. })),
        "the planted revert must remove every dir-fsync barrier"
    );

    // The maximal-loss image at the full stream: every rename is now
    // volatile, so the generation the API promised durable can vanish.
    let spec = ImageSpec {
        cut: ops.len(),
        variant: Variant::RequiredOnly,
    };
    let img = w.join("img");
    std::fs::create_dir_all(&img).unwrap();
    let detail = crash::check_image(&ops, spec, &scn, &img)
        .unwrap()
        .expect("missing dir-fsync must surface as a violation");
    assert!(
        detail.contains("promised durable") || detail.contains("older than"),
        "unexpected violation detail: {detail}"
    );

    // Deterministic replay: the journal round-trips through disk and
    // the same (cut, variant) coordinates reproduce the same breach.
    let journal = w.join("crash.journal");
    crash::save_ops(&ops, &journal).unwrap();
    let reloaded = crash::load_ops(&journal).unwrap();
    assert_eq!(reloaded, ops);
    let img2 = w.join("img2");
    std::fs::create_dir_all(&img2).unwrap();
    let replayed = crash::check_image(&reloaded, spec, &scn, &img2)
        .unwrap()
        .expect("replay must reproduce the violation");
    assert_eq!(replayed, detail);

    let _ = std::fs::remove_dir_all(&w);
}

#[test]
fn enospc_mid_generation_leaves_prior_generation_restorable() {
    use rbio::fault::FaultPlan;
    use rbio::layout::DataLayout;
    use rbio::manager::{CheckpointManager, ManagerConfig};

    let dir = work("enospc");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let layout = DataLayout::uniform(4, &[("u", 512), ("v", 128)]);

    // Step 1 lands cleanly.
    let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
    cfg.fsync = true;
    let mgr = CheckpointManager::new(layout.clone(), cfg).unwrap();
    mgr.checkpoint(1, |_, _, buf| buf.fill(0x11)).unwrap();

    // Step 2 hits a full device partway through the writers' extents.
    // Every rank gets a budget: which ranks actually hold files open
    // depends on the strategy's aggregation, and whichever writer
    // crosses 256 bytes first aborts the generation.
    let mut cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
    cfg.fsync = true;
    cfg.failover = false;
    cfg.faults = (0..4).fold(FaultPlan::none(), |p, r| p.enospc_after_bytes(r, 256));
    let mgr2 = CheckpointManager::new(layout.clone(), cfg).unwrap();
    mgr2.checkpoint(2, |_, _, buf| buf.fill(0x22))
        .expect_err("ENOSPC must abort the generation");

    // Clean abort: no half-written tmp files latched on disk, and the
    // prior generation still restores.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.ends_with(".tmp").then_some(name)
        })
        .collect();
    assert!(
        leftovers.is_empty(),
        "aborted generation left tmp files: {leftovers:?}"
    );
    let cfg = ManagerConfig::new(&dir, Strategy::rbio(2));
    let mgr3 = CheckpointManager::new(layout, cfg).unwrap();
    let data = mgr3.restore_latest().unwrap();
    assert_eq!(data.step, 1, "prior generation must survive the abort");
    assert!(data.field_data(0, 0).iter().all(|&b| b == 0x11));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Random (strategy, cut, volatile-subset seed, torn-tail seed)
    /// points of the crash-image space all satisfy the restore
    /// invariant. Complements the exhaustive strided sweep above with
    /// coverage at arbitrary coordinates.
    #[test]
    fn random_crash_images_restore(case_seed in 0u64..1_000_000) {
        let _g = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let strategy = strategies()[(case_seed % 3) as usize].1;
        let scn = Scenario { strategy, nranks: 4, steps: 2 };
        let w = work(&format!("prop-{case_seed}"));
        let ops = crash::record_scenario(&scn, &w.join("record"), false).unwrap();
        let n = ops.len();
        let cut = (case_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (n as u64 + 1)) as usize;
        let variant = match case_seed % 4 {
            0 => Variant::AllApplied,
            1 => Variant::RequiredOnly,
            2 => Variant::Subset(case_seed ^ 0xdead_beef),
            _ => Variant::Torn(case_seed ^ 0x7041),
        };
        let img = w.join("img");
        std::fs::create_dir_all(&img).unwrap();
        let detail = crash::check_image(&ops, ImageSpec { cut, variant }, &scn, &img).unwrap();
        let _ = std::fs::remove_dir_all(&w);
        prop_assert!(
            detail.is_none(),
            "cut {cut}/{n} variant {variant:?}: {detail:?}"
        );
    }
}
