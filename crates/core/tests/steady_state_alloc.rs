//! Steady-state checkpointing maps no fresh generation-sized buffers:
//! after two warm-up generations every payload, eager-send copy and
//! restore image is a recycled lease from `BufPool::global()` (the tiered
//! manager's payloads and restores from its own pool), so a whole
//! generation allocates a small fraction of the bytes it checkpoints — on
//! `exec`, on `rt`, through the tiered manager and through the service's
//! sessions alike — and the plan loops' pool keeps nothing larger than a
//! payload (writer staging leases nothing, and neither a tier hop nor a
//! restore from the tier's stage builds a file image).
//!
//! Its own test binary because the allocator below counts every
//! allocation in the process: nothing else may run beside the one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use rbio::buf::BufPool;
use rbio::exec::{execute, ExecConfig};
use rbio::format::{header_len, materialize_payloads};
use rbio::layout::DataLayout;
use rbio::manager::{CheckpointManager, ManagerConfig};
use rbio::restart::read_checkpoint;
use rbio::rt::{self, RtConfig};
use rbio::service::{CheckpointService, ServiceConfig, TenantSpec};
use rbio::strategy::{CheckpointPlan, CheckpointSpec, Strategy};
use rbio::tier::TierConfig;
use rbio_profile::counters;

struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NRANKS: u32 = 8;
/// 32 MiB per generation: what a warm generation still allocates is of
/// fixed size (plans, headers, op lists, queue nodes: ≈ 0.15 MB), so the
/// fields are sized for it to sit well under the budget.
const FIELD_BYTES: u64 = 1 << 20;
const FIELDS: [(&str, u64); 4] = [
    ("Ex", FIELD_BYTES),
    ("Ey", FIELD_BYTES),
    ("Hx", FIELD_BYTES),
    ("Hz", FIELD_BYTES),
];
const USER_BYTES: u64 = NRANKS as u64 * FIELDS.len() as u64 * FIELD_BYTES;

fn plan_for(strategy: Strategy, gen: u64) -> CheckpointPlan {
    CheckpointSpec::new(DataLayout::uniform(NRANKS, &FIELDS), "ss")
        .strategy(strategy)
        .step(gen)
        .plan()
        .expect("valid plan")
}

fn fill(gen: u64) -> impl FnMut(u32, usize, &mut [u8]) {
    move |rank, field, buf| buf.fill((gen as usize * 31 + rank as usize * 5 + field) as u8)
}

/// How many buffers of a field's class can be out at once: an eager-send
/// copy per (rank, field) and the stream buffer of each file's sealer,
/// which is [`FIELD_BYTES`] long here too.
const FIELD_CLASS_PEAK: usize = NRANKS as usize * FIELDS.len() + 2;
/// And of a header's class: `rt` borrows its payloads, so each file's
/// owner writes a pooled copy of the header — two files at most.
const HEADER_CLASS_PEAK: usize = 2;

/// Hold [`FIELD_CLASS_PEAK`] leases of a field's class and
/// [`HEADER_CLASS_PEAK`] of a header's at once and return them. How many
/// of them a generation has out together depends on its timing (do the two
/// commits overlap? how far do the senders run ahead?), so left alone the
/// pool would complete a class in whichever generation first reaches the
/// peak. Seeing the peak once, as the cold generation ends, makes the warm
/// state the same on every run.
fn complete_the_timing_dependent_classes() {
    let pool = BufPool::global();
    let plan = plan_for(Strategy::coio(2), 0);
    let header = header_len(&plan.layout, &plan.app, 0, NRANKS);
    let fields = (0..FIELD_CLASS_PEAK).map(|_| pool.lease(FIELD_BYTES as usize));
    let headers = (0..HEADER_CLASS_PEAK).map(|_| pool.lease(header as usize));
    drop(fields.chain(headers).collect::<Vec<_>>());
}

/// Bytes allocated by `generation(gen)` for each `gen` in `1..=gens`; the
/// first, cold one [completes the classes whose peak depends on
/// timing](complete_the_timing_dependent_classes).
fn allocated_per_generation(gens: u64, mut generation: impl FnMut(u64)) -> Vec<u64> {
    (1..=gens)
        .map(|gen| {
            let before = ALLOCATED.load(Ordering::Relaxed);
            generation(gen);
            if gen == 1 {
                complete_the_timing_dependent_classes();
            }
            ALLOCATED.load(Ordering::Relaxed) - before
        })
        .collect()
}

/// materialize → `execute` (rbIO(2), depth 2) → `read_checkpoint` → drop.
/// A restore lands each rank's blocks in a buffer of the payload class,
/// so the whole loop runs on one set of buffers.
fn exec_generation(dir: &Path, gen: u64) {
    let plan = plan_for(Strategy::rbio(2), gen);
    let payloads = materialize_payloads(&plan, fill(gen));
    execute(
        &plan.program,
        payloads,
        &ExecConfig::new(dir).pipeline_depth(2),
    )
    .expect("execute");
    restore(dir, &plan);
}

/// The largest buffer a generation has any use for keeping: a payload
/// (a rank's fields behind, at most, a whole file's header) at its size
/// class, which rounds up by at most an eighth. Writer staging is a map of
/// references, so nothing of a group image's size is ever leased.
fn payload_class_bound(plan: &CheckpointPlan) -> usize {
    let payload =
        FIELDS.len() as u64 * FIELD_BYTES + header_len(&plan.layout, &plan.app, 0, NRANKS);
    (payload + payload / 8) as usize
}

fn restore(dir: &Path, plan: &CheckpointPlan) {
    let restored = read_checkpoint(dir, plan).expect("restore");
    assert_eq!(restored.step, plan.step);
    assert_eq!(restored.total_bytes(), USER_BYTES);
}

/// materialize → `rt::run` + `checkpoint_rank_with` (coIO(2), depth 3) →
/// `read_checkpoint` → drop. A coIO file holds four ranks' data, but its
/// restore is four rank-sized buffers like any other strategy's.
fn rt_generation(dir: &Path, gen: u64) {
    let plan = plan_for(Strategy::coio(2), gen);
    let payloads = materialize_payloads(&plan, fill(gen));
    let cfg = RtConfig::new(dir).pipeline_depth(3);
    rt::run(NRANKS, |mut comm| {
        let rank = comm.rank() as usize;
        rt::checkpoint_rank_with(&mut comm, &plan.program, &payloads[rank], &cfg)
            .expect("rt checkpoint");
    });
    drop(payloads);
    restore(dir, &plan);
}

/// A `CheckpointManager` staging rbIO(2) in the local tier, draining it
/// through a burst directory to the PFS.
fn tiered_manager(dir: &Path) -> CheckpointManager {
    let tier = TierConfig::new(dir.join("local"))
        .burst_dir(dir.join("burst"))
        .slab_capacity(2 * USER_BYTES as usize);
    let cfg = ManagerConfig::new(dir.join("pfs"), Strategy::rbio(2)).tier(tier);
    CheckpointManager::new(DataLayout::uniform(NRANKS, &FIELDS), cfg).expect("manager")
}

/// `checkpoint` → `wait_durable` → `restore_latest`, which the retained
/// stage serves. The stage holds the generation's payload slices, so
/// they go back to the pool when the next drain evicts it; both hops
/// write gathers of those slices, and the restore copies them into
/// payload-class leases.
fn tiered_generation(mgr: &CheckpointManager, gen: u64) {
    let before = counters::tier_snapshot().tier_restores;
    mgr.checkpoint(gen, fill(gen)).expect("tiered checkpoint");
    mgr.wait_durable(gen).expect("durable");
    let restored = mgr.restore_latest().expect("restore");
    assert_eq!(restored.step, gen);
    assert_eq!(restored.total_bytes(), USER_BYTES);
    let from_stage = counters::tier_snapshot().tier_restores - before;
    assert_eq!(from_stage, 1, "generation {gen} restored from the stage");
}

/// Sessions per service generation; the last of them is restored.
const SESSIONS_PER_GEN: u64 = 4;
/// A service session's writes, each of a field's size and so one chunk at
/// the 4 MiB quantum: a generation of sessions writes `USER_BYTES`.
const SESSION_WRITES: u64 = USER_BYTES / FIELD_BYTES / SESSIONS_PER_GEN;

fn session_byte(gen: u64, session: u64, write: u64) -> u8 {
    (gen * 31 + session * 7 + write) as u8
}

/// `SESSIONS_PER_GEN` sessions, each its writes (`write`, or `write_bytes`
/// when `owned`) and a `commit`, then `read_all` of the last one, checked
/// byte for byte. Each write's bytes are a pooled lease of a field's
/// class; a borrowed write's copy is another, and the restore image one of
/// a session's size.
fn service_generation(svc: &CheckpointService, gen: u64, owned: bool) {
    let (pool, tenant) = (BufPool::global(), TenantSpec::new(1));
    let name = |session: u64| ["a.ckpt", "b.ckpt"][session as usize % 2];
    for session in 0..SESSIONS_PER_GEN {
        let mut s = svc.checkpoint(tenant, name(session)).expect("admit");
        for write in 0..SESSION_WRITES {
            let mut block = pool.lease(FIELD_BYTES as usize);
            block.fill(session_byte(gen, session, write));
            let written = if owned {
                s.write_bytes(block.freeze())
            } else {
                s.write(&block)
            };
            written.expect("session write");
        }
        let committed = s.commit().expect("commit");
        assert_eq!(committed, SESSION_WRITES * FIELD_BYTES);
    }
    let last = SESSIONS_PER_GEN - 1;
    let mut r = svc.restore(tenant, name(last)).expect("admit restore");
    let image = r.read_all().expect("restore");
    assert_eq!(image.len() as u64, SESSION_WRITES * FIELD_BYTES);
    for (write, block) in image.chunks(FIELD_BYTES as usize).enumerate() {
        let want = session_byte(gen, last, write as u64);
        assert!(
            block.iter().all(|&b| b == want),
            "generation {gen}, write {write}"
        );
    }
}

#[test]
fn a_warm_generation_allocates_a_fraction_of_its_user_bytes() {
    let dir = std::env::temp_dir().join(format!("rbio-steady-state-{}", std::process::id()));
    let budget = USER_BYTES / 50;
    let pool = BufPool::global();

    std::fs::remove_dir_all(&dir).ok();
    let bound = payload_class_bound(&plan_for(Strategy::rbio(2), 0));
    let (mut retained, mut largest) = (Vec::new(), Vec::new());
    let exec = allocated_per_generation(10, |gen| {
        exec_generation(&dir, gen);
        retained.push(pool.retained_bytes());
        largest.push(pool.largest_free());
    });
    assert!(
        exec[0] > USER_BYTES,
        "the cold generation maps its buffers: {exec:?}"
    );
    assert!(
        exec[2..].iter().all(|&a| a < budget),
        "exec: warm generations allocated {exec:?}, budget {budget}"
    );
    assert_eq!(
        retained[2], retained[9],
        "the retained set is fixed from generation 3 on: {retained:?}"
    );
    assert!(
        largest.iter().all(|&l| l <= bound),
        "exec: the pool kept a buffer above the payload class ({bound} bytes): {largest:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
    retained.clear();
    largest.clear();
    let rt = allocated_per_generation(8, |gen| {
        rt_generation(&dir, gen);
        retained.push(pool.retained_bytes());
        largest.push(pool.largest_free());
    });
    assert!(
        rt[2..].iter().all(|&a| a < budget),
        "rt: warm generations allocated {rt:?}, budget {budget}"
    );
    assert_eq!(
        retained[2], retained[7],
        "the retained set is fixed from generation 3 on: {retained:?}"
    );
    assert!(
        largest.iter().all(|&l| l <= bound),
        "rt: the pool kept a buffer above the payload class ({bound} bytes): {largest:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
    retained.clear();
    largest.clear();
    let mgr = tiered_manager(&dir);
    // The manager leases its payloads and restores from a pool of its own.
    let (own, mut own_retained) = (mgr.buf_pool(), Vec::new());
    let tiered = allocated_per_generation(6, |gen| {
        tiered_generation(&mgr, gen);
        retained.push(pool.retained_bytes());
        own_retained.push(own.retained_bytes());
        largest.push(pool.largest_free().max(own.largest_free()));
    });
    drop(mgr);
    assert!(
        tiered[2..].iter().all(|&a| a < budget),
        "tiered: warm generations allocated {tiered:?}, budget {budget}"
    );
    assert_eq!(
        retained[2], retained[5],
        "tiered: the retained set is fixed from generation 3 on: {retained:?}"
    );
    assert_eq!(
        own_retained[2], own_retained[5],
        "tiered: the manager's retained set is fixed from generation 3 on: {own_retained:?}"
    );
    assert!(
        largest.iter().all(|&l| l <= bound),
        "tiered: the pool kept a buffer above the payload class ({bound} bytes): {largest:?}"
    );

    // The service, at the benchmark's 4 MiB quantum. A warm generation
    // writes and reads leases only, so it allocates well under 1 % of
    // what it writes.
    let service_budget = USER_BYTES / 100;
    for owned in [false, true] {
        std::fs::remove_dir_all(&dir).ok();
        retained.clear();
        let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(4 << 20));
        let service = allocated_per_generation(6, |gen| {
            service_generation(&svc, gen, owned);
            retained.push(pool.retained_bytes());
        });
        drop(svc);
        let form = if owned { "write_bytes" } else { "write" };
        assert!(
            service[2..].iter().all(|&a| a < service_budget),
            "service ({form}): warm generations allocated {service:?}, budget {service_budget}"
        );
        assert_eq!(
            retained[2], retained[5],
            "service ({form}): the retained set is fixed from generation 3 on: {retained:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
