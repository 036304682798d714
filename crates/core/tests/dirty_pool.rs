//! Stale bytes never surface. A restore, a `read_all` and a `read_at`
//! lease their buffers without the zero-fill, because they write every
//! byte before they freeze one; so this binary first dirties the global
//! pool — every size class it uses, leased, filled with `0xA5`, dropped —
//! and then byte-compares what each of them hands back against what was
//! written. Where a read fails, the error is typed, no bytes come back,
//! and the public lease of the class that buffer went home to reads all
//! zeros.
//!
//! Its own test binary because it dirties `BufPool::global()`.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rbio::backend::{IoBackend, ThreadedBackend};
use rbio::buf::BufPool;
use rbio::exec::{execute, ExecConfig};
use rbio::format::{footer_len, materialize_payloads};
use rbio::layout::DataLayout;
use rbio::manager::{CheckpointManager, ManagerConfig};
use rbio::restart::{read_checkpoint, RestartError, RestoredData};
use rbio::service::{CheckpointService, ServiceConfig, TenantSpec};
use rbio::strategy::{CheckpointPlan, CheckpointSpec, Strategy};
use rbio::tier::TierConfig;
use rbio_profile::counters;

const NRANKS: u32 = 8;
/// Two fields whose blocks are not powers of two: a rank's restore
/// buffer is 64,000 bytes, inside its size class.
const FIELDS: [(&str, u64); 2] = [("Ex", 40_000), ("Hy", 24_000)];
const RANK_BYTES: usize = 64_000;
/// A service session's length and a `read_at`'s, neither a class size.
const SESSION_BYTES: usize = 300_007;
const READ_AT_BYTES: usize = 100_003;
const STALE: u8 = 0xA5;

/// The two tests share the global pool: one at a time, so that neither
/// takes the other's stale buffers.
static POOL: Mutex<()> = Mutex::new(());

/// Lease enough buffers of each length to serve every lease of it that
/// the next read makes at once, fill them with [`STALE`] and drop them:
/// the buffers those reads are handed hold nothing but stale bytes.
fn dirty_pool() {
    let pool = BufPool::global();
    let lens = [RANK_BYTES, SESSION_BYTES, READ_AT_BYTES];
    let held: Vec<_> = lens
        .iter()
        .flat_map(|&len| (0..2 * NRANKS).map(move |_| len))
        .map(|len| {
            let mut buf = pool.lease(len);
            buf.fill(STALE);
            buf
        })
        .collect();
    drop(held);
}

/// A public lease of `len` bytes reads all zeros, whichever buffer of the
/// class comes back.
fn assert_public_leases_read_zeros(len: usize, after: &str) {
    let held: Vec<_> = (0..2 * NRANKS)
        .map(|_| BufPool::global().lease(len))
        .collect();
    for buf in &held {
        assert!(
            buf.iter().all(|&b| b == 0),
            "after {after}: a public lease of {len} bytes holds stale bytes"
        );
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rbio-dirty-pool-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn byte(seed: u8, rank: u32, field: usize, i: usize) -> u8 {
    (seed as usize * 29 + rank as usize * 7 + field * 3 + i) as u8
}

fn fill(seed: u8) -> impl Fn(u32, usize, &mut [u8]) {
    move |rank, field, buf| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = byte(seed, rank, field, i);
        }
    }
}

fn plan_for(strategy: Strategy, step: u64) -> CheckpointPlan {
    CheckpointSpec::new(DataLayout::uniform(NRANKS, &FIELDS), "dirty")
        .strategy(strategy)
        .step(step)
        .plan()
        .expect("valid plan")
}

fn assert_restored(got: &RestoredData, seed: u8, what: &str) {
    for rank in 0..NRANKS {
        for (field, &(name, len)) in FIELDS.iter().enumerate() {
            let want: Vec<u8> = (0..len as usize)
                .map(|i| byte(seed, rank, field, i))
                .collect();
            let got = got.field_data(rank, field);
            let stale = got.iter().filter(|&&b| b == STALE).count();
            assert!(
                got == want.as_slice(),
                "{what}: rank {rank} field {name} differs from what was written \
                 ({stale} of its {len} bytes read {STALE:#x})"
            );
        }
    }
}

/// Write one checkpoint of `strategy` into `dir`.
fn write(dir: &Path, strategy: Strategy, seed: u8) -> CheckpointPlan {
    let plan = plan_for(strategy, 1);
    let payloads = materialize_payloads(&plan, fill(seed));
    execute(&plan.program, payloads, &ExecConfig::new(dir)).expect("exec");
    plan
}

#[test]
fn restores_and_reads_into_a_dirty_pool_return_only_written_bytes() {
    let _one = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let strategies = [
        ("rbIO", Strategy::rbio(4)),
        ("1PFPP", Strategy::OnePfpp),
        ("coIO", Strategy::coio(2)),
    ];
    for (k, (name, strategy)) in strategies.into_iter().enumerate() {
        let dir = tmpdir(name);
        let seed = k as u8 + 1;
        let plan = write(&dir, strategy, seed);
        dirty_pool();
        let got = read_checkpoint(&dir, &plan).expect("restore");
        assert_restored(&got, seed, name);
        std::fs::remove_dir_all(&dir).ok();
    }

    // From the tiered manager's retained stage.
    let dir = tmpdir("tier");
    let mut cfg = ManagerConfig::new(dir.join("pfs"), Strategy::rbio(4));
    cfg.tier = Some(TierConfig::new(dir.join("local")).slab_capacity(4 << 20));
    let mgr = CheckpointManager::new(DataLayout::uniform(NRANKS, &FIELDS), cfg).expect("manager");
    mgr.checkpoint(1, fill(9)).expect("tiered checkpoint");
    mgr.wait_durable(1).expect("drain");
    dirty_pool();
    let restores = counters::tier_snapshot().tier_restores;
    let got = mgr.restore_latest().expect("restore");
    assert_eq!(
        counters::tier_snapshot().tier_restores - restores,
        1,
        "from the stage"
    );
    assert_restored(&got, 9, "tier stage");
    drop((got, mgr));
    std::fs::remove_dir_all(&dir).ok();

    // A service session's `read_all`.
    let dir = tmpdir("svc");
    let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(64 << 10));
    let tenant = TenantSpec::new(5);
    let data: Vec<u8> = (0..SESSION_BYTES).map(|i| (i * 13 + 1) as u8).collect();
    let mut s = svc.checkpoint(tenant, "gen").expect("admit");
    s.write(&data).expect("session write");
    s.commit().expect("commit");
    dirty_pool();
    let mut r = svc.restore(tenant, "gen").expect("admit restore");
    assert!(r.read_all().expect("read_all") == data, "read_all");
    drop(svc);

    // A backend's `read_at`, off the start of the session file.
    let file = File::open(dir.join("tenant-5").join("gen")).expect("session file");
    dirty_pool();
    let got = ThreadedBackend
        .read_at(&file, 17, READ_AT_BYTES)
        .expect("read_at");
    assert!(got[..] == data[17..17 + READ_AT_BYTES], "read_at");
    std::fs::remove_dir_all(&dir).ok();
}

/// Flip the `len` bytes of `path` that end `back` bytes before its end.
fn flip(path: &Path, back: usize, len: usize) {
    let mut bytes = std::fs::read(path).expect("read");
    let end = bytes.len() - back;
    bytes[end - len..end].iter_mut().for_each(|b| *b = !*b);
    std::fs::write(path, bytes).expect("damage");
}

#[test]
fn a_failed_read_returns_an_error_and_leaves_no_stale_bytes_behind() {
    let _one = POOL.lock().unwrap_or_else(|e| e.into_inner());
    // Torn: the last file's last block is damaged, so its ranks' buffers
    // are written up to it before its field's checksum fails.
    let dir = tmpdir("torn");
    let plan = write(&dir, Strategy::rbio(4), 3);
    let path = dir.join(&plan.plan_files.last().expect("a file").name);
    // The data ends where the commit footer begins.
    flip(&path, footer_len(FIELDS.len()) as usize, 8);
    dirty_pool();
    match read_checkpoint(&dir, &plan) {
        Err(RestartError::Torn { what, .. }) => {
            assert!(what.contains("checksum"), "torn for its checksum: {what}")
        }
        other => panic!("a damaged block must be Torn, got {:?}", other.map(|_| ())),
    }
    assert_public_leases_read_zeros(RANK_BYTES, "a torn file");

    // Short: the same file cut in half.
    let f = OpenOptions::new().write(true).open(&path).expect("open");
    f.set_len(std::fs::metadata(&path).expect("stat").len() / 2)
        .expect("truncate");
    dirty_pool();
    match read_checkpoint(&dir, &plan) {
        Err(RestartError::Torn { what, .. }) => {
            assert!(what.contains("bytes"), "torn for its length: {what}")
        }
        other => panic!("a short file must be Torn, got {:?}", other.map(|_| ())),
    }
    assert_public_leases_read_zeros(RANK_BYTES, "a short file");
    std::fs::remove_dir_all(&dir).ok();

    // A session file truncated after `restore` opened it: `read_all`
    // runs into its end and must refuse, not hand back the image.
    let dir = tmpdir("svc-short");
    let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(64 << 10));
    let tenant = TenantSpec::new(6);
    let data: Vec<u8> = (0..SESSION_BYTES).map(|i| (i * 5 + 3) as u8).collect();
    let mut s = svc.checkpoint(tenant, "gen").expect("admit");
    s.write(&data).expect("session write");
    s.commit().expect("commit");
    let mut r = svc.restore(tenant, "gen").expect("admit restore");
    let f = OpenOptions::new()
        .write(true)
        .open(dir.join("tenant-6").join("gen"))
        .expect("open");
    f.set_len(SESSION_BYTES as u64 / 3).expect("truncate");
    dirty_pool();
    assert!(
        r.read_all().is_err(),
        "a session file cut short under its reader must fail read_all"
    );
    assert_public_leases_read_zeros(SESSION_BYTES, "a short session");
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

/// A manager over `dir` holding the test's layout, tiered or not.
fn manager(dir: &Path, tiered: bool) -> CheckpointManager {
    let mut cfg = ManagerConfig::new(dir.join("pfs"), Strategy::rbio(4));
    if tiered {
        cfg.tier = Some(TierConfig::new(dir.join("local")).slab_capacity(4 << 20));
    }
    CheckpointManager::new(DataLayout::uniform(NRANKS, &FIELDS), cfg).expect("manager")
}

/// Checkpoint `step` with every block set to `value`, first collecting
/// every distinct byte `fill` finds in its blocks before it writes them;
/// then restore it and check it.
fn checkpoint_seeing(mgr: &CheckpointManager, step: u64, value: u8) -> Vec<u8> {
    let mut seen = [false; 256];
    let fill = |_: u32, _: usize, block: &mut [u8]| {
        block.iter().for_each(|&b| seen[b as usize] = true);
        block.fill(value);
    };
    mgr.checkpoint(step, fill).expect("checkpoint");
    mgr.wait_durable(step).expect("durable");
    let got = mgr.restore_latest().expect("restore");
    for rank in 0..NRANKS {
        for field in 0..FIELDS.len() {
            let data = got.field_data(rank, field);
            assert!(data.iter().all(|&b| b == value), "step {step} restored");
        }
    }
    (0..=255u8).filter(|&b| seen[b as usize]).collect()
}

#[test]
fn a_manager_fill_sees_only_zeros_or_its_own_bytes() {
    let _one = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let (dir_a, dir_b, dir_c) = (tmpdir("mgr-a"), tmpdir("mgr-b"), tmpdir("mgr-c"));
    dirty_pool();
    // A, tiered, restores from its stage; its blocks are 0x41, 0x42, ….
    let a = manager(&dir_a, true);
    let mut written = vec![0u8];
    for step in 1..=4 {
        let value = 0x40 + step as u8;
        let seen = checkpoint_seeing(&a, step, value);
        assert!(
            seen.iter().all(|b| written.contains(b)),
            "manager A's fill at step {step} saw {seen:x?}, not only zeros or {written:x?}"
        );
        written.push(value);
    }
    // B, beside A and cold, sees neither A's bytes nor the global pool's.
    let b = manager(&dir_b, false);
    let seen = checkpoint_seeing(&b, 1, 0x81);
    assert_eq!(seen, [0], "manager B's first fill saw {seen:x?}");
    drop(b);
    // A's buffers go back to the global pool when it drops; a manager
    // that adopts them zero-fills them first.
    drop(a);
    let c = manager(&dir_c, true);
    let seen = checkpoint_seeing(&c, 1, 0xC1);
    assert_eq!(seen, [0], "manager C's first fill saw {seen:x?}");
    drop(c);
    for dir in [dir_a, dir_b, dir_c] {
        std::fs::remove_dir_all(&dir).ok();
    }
}
