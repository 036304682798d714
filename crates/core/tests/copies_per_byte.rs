//! Copies per checkpoint byte: every real memcpy in the datapath
//! (`counters::add_bytes_copied`) divided by the bytes that reach
//! `WriteAt`, per strategy, on the serial and pipelined paths
//! (EXPERIMENTS.md, "Datapath copy accounting").
//!
//! Beside it, the other count of the copy group: early-writeback hints,
//! issued behind large landed writes when — and only when — the files
//! will be fsynced.
//!
//! Its own test binary because the counters are process-wide: nothing
//! else may checkpoint in this process, and the tests below serialize on
//! one lock.

use std::path::Path;
use std::sync::Mutex;

use rbio::exec::{execute, ExecConfig};
use rbio::format::materialize_payloads;
use rbio::layout::DataLayout;
use rbio::strategy::{CheckpointSpec, Strategy};
use rbio_profile::counters::{self, CopySnapshot};

static COUNTERS: Mutex<()> = Mutex::new(());

/// The table's layout: two fields, 64 and 32 KiB per rank.
const TWO_FIELDS: &[(&str, u64)] = &[("Ex", 64 * 1024), ("Hy", 32 * 1024)];

/// Run one checkpoint of `np` ranks holding `fields` at pipeline `depth`
/// and return copies per checkpoint byte.
fn ratio_for(np: u32, fields: &[(&str, u64)], strategy: Strategy, depth: u32) -> f64 {
    let cfg = |dir: &Path| ExecConfig::new(dir).pipeline_depth(depth);
    counted(np, fields, strategy, cfg).copies_per_checkpoint_byte()
}

/// What one checkpoint of `np` ranks holding `fields`, executed under
/// `cfg(dir)`, adds to the copy counters.
fn counted(
    np: u32,
    fields: &[(&str, u64)],
    strategy: Strategy,
    cfg: impl Fn(&Path) -> ExecConfig,
) -> CopySnapshot {
    let layout = DataLayout::uniform(np, fields);
    let plan = CheckpointSpec::new(layout, "dp")
        .strategy(strategy)
        .plan()
        .expect("valid plan");
    let payloads = materialize_payloads(&plan, |rank, field, buf| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (rank as usize * 13 + field * 5 + i) as u8;
        }
    });
    let dir = std::env::temp_dir().join(format!("rbio-copies-per-byte-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let before = counters::snapshot();
    execute(&plan.program, payloads, &cfg(&dir)).expect("exec");
    let delta = counters::snapshot().delta_since(&before);
    std::fs::remove_dir_all(&dir).ok();
    delta
}

#[test]
fn copies_per_byte_matches_the_experiments_table() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let strategies = [Strategy::OnePfpp, Strategy::coio(4), Strategy::rbio(4)];
    // (variant, depth, expected 1PFPP / coIO nf=4 / rbIO ng=4).
    //
    // The pipelined row follows from the plans, not from a measurement. A
    // deferred write of staging costs a snapshot copy only while the
    // rank's op list still has a `Pack`, `Recv` or `ReadAt` ahead; after
    // the last one the image is frozen and the job gets a slice of it.
    // rbIO's writers aggregate and re-pack first and write afterwards, so
    // no write is snapshotted: the serial 1.75. coIO runs one collective
    // per field over the same staging range, so every field's write but
    // the last one's precedes a `Recv` and is snapshotted: the serial 1.0
    // plus the first field's share of the bytes, 64 / 96.
    let table = [
        ("zero-copy serial", 1, [0.0, 1.0, 1.75]),
        ("zero-copy pipelined", 3, [0.0, 1.0 + 64.0 / 96.0, 1.75]),
    ];
    for (variant, depth, want) in table {
        for (strategy, want) in strategies.iter().zip(want) {
            let got = ratio_for(16, TWO_FIELDS, *strategy, depth);
            assert!(
                (got - want).abs() <= 0.01,
                "{variant}, {strategy:?}: {got:.4} copies/byte, table says {want}"
            );
        }
    }
    // With one field, coIO's only collective is its last: nothing is
    // snapshotted at any depth.
    let one_field = [("Ex", 96 * 1024)];
    let got = ratio_for(16, &one_field, Strategy::coio(4), 3);
    assert!(
        (got - 1.0).abs() <= 0.01,
        "one-field coIO, pipelined: {got:.4} copies/byte, want 1.0"
    );
}

#[test]
fn writeback_hints_follow_the_fsync_switch_and_the_size_floor() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let big = [("Ex", 1 << 20), ("Hy", 1 << 20)];
    let small = [("Ex", 8 << 10), ("Hy", 4 << 10)];
    let hints = |fields: &[(&str, u64)], strategy, depth, fsync| {
        let cfg = |dir: &Path| {
            let mut cfg = ExecConfig::new(dir).pipeline_depth(depth);
            cfg.fsync_on_close = fsync;
            cfg
        };
        counted(4, fields, strategy, cfg).writeback_hints
    };
    for strategy in [Strategy::OnePfpp, Strategy::coio(2), Strategy::rbio(2)] {
        for depth in [1, 2] {
            let case = format!("{strategy:?} at depth {depth}");
            assert_eq!(
                hints(&big, strategy, depth, false),
                0,
                "{case}: a file that is never fsynced gets no hint"
            );
            assert!(
                hints(&big, strategy, depth, true) > 0,
                "{case}: MiB-sized writes of fsynced files are hinted"
            );
            // 48 KiB in the whole checkpoint: however the writes coalesce,
            // every one is under the floor.
            assert_eq!(
                hints(&small, strategy, depth, true),
                0,
                "{case}: writes under the floor are left to the fsync"
            );
        }
    }
}
