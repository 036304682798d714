//! Multi-tenant checkpoint-service isolation under stress.
//!
//! The service's contract (DESIGN.md §16) is that tenants cannot hurt
//! each other: admission is bounded and typed, bandwidth is arbitrated
//! by weighted fair share, and QoS preemption keeps restores responsive
//! under bulk checkpoint load. These tests drive the *real* service —
//! real files, real flush pool, real threads — at a scale the unit
//! tests don't reach:
//!
//! * hundreds of tenants with deterministic heavy-tailed payload sizes
//!   and arrival gaps, all of which must commit and restore byte-exactly
//!   while the bounded admission queue absorbs the overload;
//! * one tenant whose background writer is fault-killed on its first
//!   byte plus one firehose tenant streaming flat out, neither of which
//!   may starve or fail the healthy tenants running beside them;
//! * a latency-sensitive tenant whose restores must stay responsive
//!   (and register QoS preemptions) while four bulk checkpoints stream;
//! * four equal-weight tenants streaming identical checkpoints, whose
//!   per-tenant goodput must stay within 2x of each other.
//!
//! All randomness is a seeded LCG keyed by tenant id — reruns are
//! byte-identical. The tests share the process-global service counters,
//! so they serialize on one lock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use rbio_profile::counters;
use rbio_repro::rbio::fault::FaultPlan;
use rbio_repro::rbio::service::{
    Admission, CheckpointService, QosClass, ServiceConfig, TenantSpec,
};

/// Counter deltas are process-global; run one stress scenario at a time.
fn run_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("rbio-svc-iso-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// One step of a 64-bit LCG (Knuth's MMIX constants); returns the top
/// bits, which are the well-mixed ones.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Heavy-tailed arrival gap in microseconds: mostly back-to-back, a
/// tail of real pauses — the bursty arrival process the admission queue
/// exists to absorb.
fn arrival_gap_us(x: &mut u64) -> u64 {
    match lcg(x) % 100 {
        0..=89 => 0,
        90..=98 => 200,
        _ => 2_000,
    }
}

/// Heavy-tailed checkpoint size: a crowd of small writers and a tail of
/// 32x–128x whales, like a mixed production batch.
fn heavy_tailed_len(x: &mut u64) -> usize {
    match lcg(x) % 100 {
        0..=79 => 1 << 10,
        80..=95 => 8 << 10,
        96..=98 => 32 << 10,
        _ => 128 << 10,
    }
}

fn payload(tenant: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (tenant as usize * 31 + i * 7) as u8)
        .collect()
}

#[test]
fn hundreds_of_tenants_with_heavy_tailed_arrivals_all_complete() {
    let _g = run_lock();
    let dir = tmpdir("stress");
    const TENANTS: u64 = 240;
    const WORKERS: usize = 12;
    let svc = Arc::new(CheckpointService::new(
        ServiceConfig::new(&dir)
            .pool_threads(4)
            .admission(8, 64)
            .quantum(4 << 10)
            .timeouts(Duration::from_secs(30), Duration::from_secs(30)),
    ));
    let next = Arc::new(AtomicU64::new(0));
    let queued = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..WORKERS {
        let svc = Arc::clone(&svc);
        let next = Arc::clone(&next);
        let queued = Arc::clone(&queued);
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut total = 0u64;
            loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                if id >= TENANTS {
                    return Ok(total);
                }
                let mut rng = 0x5eed_0000 + id;
                let gap = arrival_gap_us(&mut rng);
                if gap > 0 {
                    std::thread::sleep(Duration::from_micros(gap));
                }
                let len = heavy_tailed_len(&mut rng);
                let data = payload(id, len);
                let mut s = svc
                    .checkpoint(TenantSpec::new(id), "gen0.ckpt")
                    .map_err(|e| format!("tenant {id}: admit: {e}"))?;
                if s.admission() == Admission::Queued {
                    queued.fetch_add(1, Ordering::Relaxed);
                }
                s.write(&data)
                    .map_err(|e| format!("tenant {id}: write: {e}"))?;
                let n = s
                    .commit()
                    .map_err(|e| format!("tenant {id}: commit: {e}"))?;
                total += n;
            }
        }));
    }
    let mut grand = 0u64;
    for h in handles {
        grand += h.join().expect("worker thread").expect("tenant session");
    }
    // Byte-exact totals: replay each tenant's deterministic draws.
    let mut expect = 0u64;
    for id in 0..TENANTS {
        let mut rng = 0x5eed_0000 + id;
        let _ = arrival_gap_us(&mut rng);
        expect += heavy_tailed_len(&mut rng) as u64;
    }
    assert_eq!(grand, expect, "every tenant must commit its full payload");
    // 12 workers against 8 in-flight slots: the bounded queue must have
    // actually absorbed overload (nobody may have been rejected — the
    // workers' `?` would have surfaced it above).
    assert!(
        queued.load(Ordering::Relaxed) >= 1,
        "overload never reached the admission queue"
    );
    // Sampled byte-exact restores across the id space.
    for id in (0..TENANTS).step_by(17) {
        let mut rng = 0x5eed_0000 + id;
        let _ = arrival_gap_us(&mut rng);
        let len = heavy_tailed_len(&mut rng);
        let mut r = svc
            .restore(TenantSpec::new(id), "gen0.ckpt")
            .expect("restore admit");
        assert_eq!(
            r.read_all().expect("restore read"),
            payload(id, len),
            "tenant {id} round trip"
        );
    }
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_writer_and_bursting_tenant_cannot_starve_healthy_tenants() {
    let _g = run_lock();
    let dir = tmpdir("starve");
    let svc = Arc::new(CheckpointService::new(
        ServiceConfig::new(&dir)
            .pool_threads(4)
            .admission(12, 16)
            .quantum(2 << 10)
            .timeouts(Duration::from_secs(10), Duration::from_secs(10)),
    ));
    let before = counters::service_snapshot();

    // Sick tenant first so its writer registers as session id 0 — the
    // rank the fault plan kills on the first byte.
    let sick = TenantSpec::new(900);
    let faults = FaultPlan::none().kill_writer_after_bytes(0, 0);
    let mut s = svc
        .checkpoint_with_faults(sick, "dead.ckpt", faults)
        .expect("admit sick tenant");
    assert_eq!(s.session_id(), 0);

    // Firehose tenant: streams flat out until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let svc2 = Arc::clone(&svc);
    let stop2 = Arc::clone(&stop);
    let burster = std::thread::spawn(move || {
        let mut s = svc2
            .checkpoint(TenantSpec::new(901), "burst.ckpt")
            .expect("admit burster");
        let chunk = payload(901, 64 << 10);
        let mut total = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            s.write(&chunk).expect("burst write");
            total += chunk.len() as u64;
        }
        s.commit().expect("burst commit");
        total
    });

    // Healthy tenants run beside the dead writer and the firehose; each
    // must commit well inside the grant deadline (no starvation).
    let mut healthy = Vec::new();
    for id in 910..918u64 {
        let svc = Arc::clone(&svc);
        healthy.push(std::thread::spawn(move || {
            let start = Instant::now();
            let mut s = svc
                .checkpoint(TenantSpec::new(id), "ok.ckpt")
                .expect("healthy admit");
            s.write(&payload(id, 32 << 10)).expect("healthy write");
            (s.commit().expect("healthy commit"), start.elapsed())
        }));
    }

    // Drive the sick session until the kill latches as a typed error;
    // dropping the errored session frees its admission slot and counts
    // the failure.
    let mut failed = false;
    for _ in 0..32 {
        if s.write(&payload(900, 1024)).is_err() {
            failed = true;
            break;
        }
    }
    let failed = if failed {
        drop(s);
        true
    } else {
        s.commit().is_err()
    };
    assert!(failed, "fault-killed writer must surface a typed error");

    for h in healthy {
        let (n, took) = h.join().expect("healthy tenant");
        assert_eq!(n, 32 << 10);
        assert!(
            took < Duration::from_secs(8),
            "healthy tenant starved: {took:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    assert!(burster.join().expect("burster") > 0);

    for id in 910..918u64 {
        assert!(dir.join(format!("tenant-{id}")).join("ok.ckpt").exists());
    }
    assert!(dir.join("tenant-901").join("burst.ckpt").exists());
    // The dead tenant's file must never have been published.
    assert!(!dir.join("tenant-900").join("dead.ckpt").exists());
    let delta = counters::service_snapshot().delta_since(&before);
    assert!(delta.failed >= 1, "sick session not counted failed");
    assert!(delta.completed >= 9, "healthy + burst sessions missing");
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latency_restores_stay_responsive_under_bulk_checkpoint_load() {
    let _g = run_lock();
    let dir = tmpdir("qos");
    let svc = Arc::new(CheckpointService::new(
        ServiceConfig::new(&dir)
            .pool_threads(4)
            .admission(8, 8)
            .quantum(1 << 10)
            .timeouts(Duration::from_secs(10), Duration::from_secs(10)),
    ));
    // Seed the image the latency tenant will restore.
    let lat = TenantSpec::new(950).qos(QosClass::LatencySensitive);
    let mut s = svc.checkpoint(lat, "seed.ckpt").expect("admit seed");
    s.write(&payload(950, 16 << 10)).expect("seed write");
    s.commit().expect("seed commit");

    let before = counters::service_snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for id in 951..955u64 {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut s = svc
                .checkpoint(TenantSpec::new(id), "bulk.ckpt")
                .expect("admit bulk");
            let chunk = payload(id, 8 << 10);
            let mut total = 0u64;
            while !stop.load(Ordering::Relaxed) {
                s.write(&chunk).expect("bulk write");
                total += chunk.len() as u64;
            }
            s.commit().expect("bulk commit");
            total
        }));
    }
    // Let the bulk streams establish themselves, then restore repeatedly:
    // each restore must finish promptly despite four saturating writers.
    std::thread::sleep(Duration::from_millis(30));
    for round in 0..6 {
        let t0 = Instant::now();
        let mut r = svc.restore(lat, "seed.ckpt").expect("restore admit");
        assert_eq!(r.read_all().expect("restore read").len(), 16 << 10);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "round {round}: restore took {:?} under bulk load",
            t0.elapsed()
        );
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        assert!(w.join().expect("bulk writer") > 0, "bulk stream starved");
    }
    let delta = counters::service_snapshot().delta_since(&before);
    assert!(
        delta.preemptions >= 1,
        "latency restores never preempted the bulk writers"
    );
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn equal_weight_tenants_get_goodput_within_2x_of_each_other() {
    let _serial = run_lock();
    const BYTES: usize = 4 << 20;
    let dir = tmpdir("fair");
    let svc = Arc::new(CheckpointService::new(
        ServiceConfig::new(&dir)
            .pool_threads(4)
            .admission(8, 8)
            .quantum(16 << 10)
            .timeouts(Duration::from_secs(10), Duration::from_secs(10)),
    ));
    // All four admitted and holding a chunk before any of them writes,
    // so they contend for the arbiter over the whole stream.
    let start = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4u64)
        .map(|id| {
            let (svc, start) = (Arc::clone(&svc), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut s = svc
                    .checkpoint(TenantSpec::new(id), "gen.ckpt")
                    .expect("admit");
                let chunk = payload(id, 64 << 10);
                start.wait();
                let t0 = Instant::now();
                for _ in 0..BYTES / chunk.len() {
                    s.write(&chunk).expect("write");
                }
                s.commit().expect("commit");
                BYTES as f64 / t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    let goodput: Vec<f64> = handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread"))
        .collect();
    // The weighted-fair-queuing bound: no tenant runs more than a
    // quantum ahead, so finish times bunch.
    let max = goodput.iter().copied().fold(f64::MIN, f64::max);
    let min = goodput.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        max / min <= 2.0,
        "equal-weight max/min goodput {:.3} exceeds 2.0x: {goodput:?} B/s",
        max / min
    );
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}
