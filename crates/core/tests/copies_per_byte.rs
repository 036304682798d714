//! Copies per checkpoint byte: every real memcpy in the datapath
//! (`counters::add_bytes_copied`) divided by the bytes that reach
//! `WriteAt`, per strategy, on the serial and pipelined paths
//! (EXPERIMENTS.md, "Datapath copy accounting"); and per byte of a
//! service session, for each write form and for its restore.
//!
//! Beside it, the other counts of the copy group: early-writeback hints,
//! issued behind large landed writes when — and only when — the files
//! will be fsynced; and the bytes the buffer pool zero-fills, which a
//! warm restore leaves at none and a payload at its own length.
//!
//! Its own test binary because the counters are process-wide: nothing
//! else may checkpoint in this process, and the tests below serialize on
//! one lock.

use std::path::Path;
use std::sync::{Arc, Mutex};

use rbio::buf::Bytes;
use rbio::exec::{execute, ExecConfig};
use rbio::format::materialize_payloads;
use rbio::layout::DataLayout;
use rbio::manager::{CheckpointManager, ManagerConfig};
use rbio::restart::read_checkpoint;
use rbio::rt;
use rbio::service::{CheckpointService, ServiceConfig, TenantSpec};
use rbio::strategy::{CheckpointPlan, CheckpointSpec, Strategy};
use rbio::tier::{TierConfig, TierStage};
use rbio_plan::Op;
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

fn plan_for(np: u32, fields: &[(&str, u64)], strategy: Strategy) -> CheckpointPlan {
    CheckpointSpec::new(DataLayout::uniform(np, fields), "dp")
        .strategy(strategy)
        .plan()
        .expect("valid plan")
}

fn fill(rank: u32, field: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (rank as usize * 13 + field * 5 + i) as u8;
    }
}

/// What `run(dir)` adds to the copy counters, in a fresh directory.
fn counted_in(run: impl FnOnce(&Path)) -> CopySnapshot {
    let dir = std::env::temp_dir().join(format!("rbio-copies-per-byte-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let before = counters::snapshot();
    run(&dir);
    let delta = counters::snapshot().delta_since(&before);
    std::fs::remove_dir_all(&dir).ok();
    delta
}

/// What one checkpoint of `np` ranks holding `fields`, executed under
/// `cfg(dir)`, adds to the copy counters.
fn counted(
    np: u32,
    fields: &[(&str, u64)],
    strategy: Strategy,
    cfg: impl Fn(&Path) -> ExecConfig,
) -> CopySnapshot {
    let plan = plan_for(np, fields, strategy);
    let payloads = materialize_payloads(&plan, fill);
    counted_in(|dir| {
        execute(&plan.program, payloads, &cfg(dir)).expect("exec");
    })
}

#[test]
fn copies_per_byte_matches_the_experiments_table() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let strategies = [Strategy::OnePfpp, Strategy::coio(4), Strategy::rbio(4)];
    // `exec` moves no byte between the payloads and the files at any
    // depth: workers send slices of their payloads, a received message or
    // a pack becomes a reference in the writer's staging map, and every
    // write — serial or deferred — gathers the pieces it covers.
    for depth in [1, 3] {
        for strategy in strategies {
            let got = ratio_for(16, TWO_FIELDS, strategy, depth);
            assert!(
                got == 0.0,
                "exec at depth {depth}, {strategy:?}: {got:.4} copies/byte, table says 0"
            );
        }
    }
    let one_field = [("Ex", 96 * 1024)];
    let got = ratio_for(16, &one_field, Strategy::coio(4), 3);
    assert!(
        got == 0.0,
        "one-field coIO, pipelined: {got:.4} copies/byte"
    );
}

#[test]
fn rt_copies_only_its_eager_hand_off() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // `rt` borrows its payloads for the call, so a message that leaves a
    // rank is one pooled copy (MPI's eager buffer); at depth 1 every write
    // borrows, so the plan's sent bytes are the whole count.
    let plan = plan_for(16, TWO_FIELDS, Strategy::coio(4));
    let ops = plan.program.ops.iter().flatten();
    let (sent, written): (u64, u64) = ops.fold((0, 0), |(s, w), op: &Op| {
        (s + op.bytes_sent(), w + op.bytes_written())
    });
    let payloads = materialize_payloads(&plan, fill);
    let delta = counted_in(|dir| {
        let cfg = rt::RtConfig::new(dir);
        rt::run(plan.program.nranks(), |mut comm| {
            let rank = comm.rank() as usize;
            rt::checkpoint_rank_with(&mut comm, &plan.program, &payloads[rank], &cfg)
                .expect("rt checkpoint");
        });
    });
    let (got, want) = (
        delta.copies_per_checkpoint_byte(),
        sent as f64 / written as f64,
    );
    assert!(
        want > 0.5 && (got - want).abs() <= 1e-9,
        "rt coIO: {got:.4} copies/byte, the plan sends {want:.4} per byte written"
    );
}

#[test]
fn the_tiered_manager_stages_without_a_copy() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let delta = counted_in(|dir| {
        let mut cfg = ManagerConfig::new(dir.join("pfs"), Strategy::rbio(4));
        cfg.tier = Some(TierConfig::new(dir.join("local")).slab_capacity(8 << 20));
        let mgr =
            CheckpointManager::new(DataLayout::uniform(16, TWO_FIELDS), cfg).expect("manager");
        mgr.checkpoint(1, fill).expect("tiered checkpoint");
        mgr.wait_durable(1).expect("drain");
    });
    let got = delta.copies_per_checkpoint_byte();
    assert!(
        got == 0.0,
        "tiered rbIO: {got:.4} copies/byte, want 0 (the stage holds the payload slices)"
    );
}

#[test]
fn rt_staged_copies_its_borrowed_payload_once() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // Under `rt` the stage holds what `rt` owns: a worker's message is
    // its eager copy, a writer's own payload bytes one pooled copy.
    let plan = plan_for(16, TWO_FIELDS, Strategy::rbio(4));
    let payloads = materialize_payloads(&plan, fill);
    let stage = Arc::new(TierStage::with_budget(1, 8 << 20));
    let delta = counted_in(|dir| {
        let cfg = rt::RtConfig::new(dir).stage(Arc::clone(&stage));
        rt::run(plan.program.nranks(), |mut comm| {
            let rank = comm.rank() as usize;
            rt::checkpoint_rank_with(&mut comm, &plan.program, &payloads[rank], &cfg)
                .expect("rt staged checkpoint");
        });
    });
    let got = delta.copies_per_checkpoint_byte();
    assert!(
        (got - 1.0).abs() <= 1e-9,
        "rt-staged rbIO: {got:.4} copies/byte, want 1.0 (the borrowed payload copy)"
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

/// Copies per byte of a `len`-byte stream that `work` adds.
fn copies_per_byte_of(len: usize, work: impl FnOnce()) -> f64 {
    let before = counters::snapshot();
    work();
    counters::snapshot().delta_since(&before).bytes_copied as f64 / len as f64
}

#[test]
fn a_service_session_copies_only_what_it_borrows() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // Four quanta and a short one.
    let data: Vec<u8> = (0..(4 << 20) + 12345).map(|i| (i * 7) as u8).collect();
    let dir = std::env::temp_dir().join(format!("rbio-copies-service-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(1 << 20));
    let tenant = TenantSpec::new(1);
    for (name, owned, want) in [("borrowed", false, 1.0), ("owned", true, 0.0)] {
        let mut s = svc.checkpoint(tenant, name).expect("admit");
        let handed_over = Bytes::from_vec(data.clone());
        let written = copies_per_byte_of(data.len(), || {
            let res = if owned {
                s.write_bytes(handed_over)
            } else {
                s.write(&data)
            };
            res.expect("session write");
            s.commit().expect("commit");
        });
        assert_eq!(written, want, "{name} session write: copies per byte");
        let mut r = svc.restore(tenant, name).expect("admit restore");
        let mut image = None;
        let read = copies_per_byte_of(data.len(), || image = Some(r.read_all().expect("read_all")));
        assert_eq!(read, 0.0, "read_all fills its pooled image in place");
        assert_eq!(image.expect("read"), data, "{name} round trip");
    }
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

/// Zero-filled bytes that `work` adds.
fn zeroed_by(work: impl FnOnce()) -> u64 {
    let before = counters::snapshot();
    work();
    counters::snapshot().delta_since(&before).bytes_zeroed
}

#[test]
fn a_payload_is_zeroed_and_a_warm_restore_is_not() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let plan = plan_for(16, TWO_FIELDS, Strategy::rbio(4));
    let payload_bytes: u64 = (0..16)
        .map(|r| plan.payload_meta[r as usize].header_len + plan.layout.rank_payload_bytes(r))
        .sum();
    // Warm: the second round of payloads recycles the first's buffers, and
    // `fill` is promised zeros wherever it does not write.
    drop(materialize_payloads(&plan, fill));
    let mut payloads = None;
    let zeroed = zeroed_by(|| payloads = Some(materialize_payloads(&plan, fill)));
    assert_eq!(
        zeroed, payload_bytes,
        "a warm payload is zeroed once, whole"
    );

    let dir = std::env::temp_dir().join(format!("rbio-zeroed-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let payloads = payloads.expect("materialized");
    execute(&plan.program, payloads, &ExecConfig::new(&dir)).expect("exec");
    // A restore writes every byte of its blocks: once the pool holds its
    // buffers, it zero-fills none of them.
    drop(read_checkpoint(&dir, &plan).expect("cold restore"));
    let zeroed = zeroed_by(|| drop(read_checkpoint(&dir, &plan).expect("warm restore")));
    assert_eq!(zeroed, 0, "a warm restore from files zero-fills nothing");

    // The same from the tiered manager's retained stage.
    let mut cfg = ManagerConfig::new(dir.join("pfs"), Strategy::rbio(4));
    cfg.tier = Some(TierConfig::new(dir.join("local")).slab_capacity(8 << 20));
    let mgr = CheckpointManager::new(DataLayout::uniform(16, TWO_FIELDS), cfg).expect("manager");
    mgr.checkpoint(1, fill).expect("tiered checkpoint");
    mgr.wait_durable(1).expect("drain");
    let restores = counters::tier_snapshot().tier_restores;
    drop(mgr.restore_latest().expect("cold restore"));
    let zeroed = zeroed_by(|| drop(mgr.restore_latest().expect("warm restore")));
    assert_eq!(
        counters::tier_snapshot().tier_restores - restores,
        2,
        "both from the stage"
    );
    assert_eq!(
        zeroed, 0,
        "a warm restore from the stage zero-fills nothing"
    );
    drop(mgr);

    // And a service restore's pooled image.
    let svc = CheckpointService::new(ServiceConfig::new(dir.join("svc")).quantum(1 << 20));
    let tenant = TenantSpec::new(1);
    let data: Vec<u8> = (0..(3 << 20) + 777).map(|i| (i * 11) as u8).collect();
    let mut s = svc.checkpoint(tenant, "gen").expect("admit");
    s.write(&data).expect("session write");
    s.commit().expect("commit");
    let read_all = || {
        svc.restore(tenant, "gen")
            .expect("admit restore")
            .read_all()
    };
    assert_eq!(read_all().expect("cold read_all"), data);
    let zeroed = zeroed_by(|| assert_eq!(read_all().expect("warm read_all"), data));
    assert_eq!(zeroed, 0, "a warm read_all zero-fills nothing");
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_warm_manager_checkpoint_zeroes_nothing() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // The manager's payloads come from its own pool, whose buffers hold
    // only its own earlier bytes: `fill` writes over them unzeroed.
    let strategies = [Strategy::OnePfpp, Strategy::coio(4), Strategy::rbio(4)];
    for tiered in [false, true] {
        for strategy in strategies {
            let case = format!("{strategy:?}, tiered: {tiered}");
            let dir =
                std::env::temp_dir().join(format!("rbio-zeroed-manager-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let mut cfg = ManagerConfig::new(dir.join("pfs"), strategy);
            if tiered {
                cfg.tier = Some(TierConfig::new(dir.join("local")).slab_capacity(8 << 20));
            }
            let mgr =
                CheckpointManager::new(DataLayout::uniform(16, TWO_FIELDS), cfg).expect("manager");
            let checkpoint = |step| {
                mgr.checkpoint(step, fill).expect("checkpoint");
                mgr.wait_durable(step).expect("durable");
            };
            // Cold: the pool adopts or maps the buffers the next step
            // reuses (a tiered step's stay staged until the one after).
            checkpoint(1);
            checkpoint(2);
            let zeroed = zeroed_by(|| checkpoint(3));
            assert_eq!(zeroed, 0, "{case}: a warm checkpoint zero-fills nothing");
            drop(mgr);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
