//! Steady-state checkpointing maps no fresh generation-sized buffers:
//! after two warm-up generations every payload, staging image, eager-send
//! copy and restore image is a recycled lease from `BufPool::global()`,
//! so a whole generation allocates a small fraction of the bytes it
//! checkpoints — on `exec` and on `rt` alike.
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
use rbio::restart::read_checkpoint;
use rbio::rt::{self, RtConfig};
use rbio::strategy::{CheckpointPlan, CheckpointSpec, Strategy};

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

#[test]
fn a_warm_generation_allocates_a_fraction_of_its_user_bytes() {
    let dir = std::env::temp_dir().join(format!("rbio-steady-state-{}", std::process::id()));
    let budget = USER_BYTES / 50;
    let pool = BufPool::global();

    std::fs::remove_dir_all(&dir).ok();
    let mut retained = Vec::new();
    let exec = allocated_per_generation(10, |gen| {
        exec_generation(&dir, gen);
        retained.push(pool.retained_bytes());
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

    std::fs::remove_dir_all(&dir).ok();
    retained.clear();
    let rt = allocated_per_generation(8, |gen| {
        rt_generation(&dir, gen);
        retained.push(pool.retained_bytes());
    });
    assert!(
        rt[2..].iter().all(|&a| a < budget),
        "rt: warm generations allocated {rt:?}, budget {budget}"
    );
    assert_eq!(
        retained[2], retained[7],
        "the retained set is fixed from generation 3 on: {retained:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
