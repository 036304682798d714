//! Workload 5, `service_mixed`: two throughput tenants stream
//! checkpoints through one `CheckpointService` (one arbiter, one flush
//! pool) and read some of them back while the other keeps writing.

use std::path::Path;
use std::time::{Duration, Instant};

use rbio::scrub::ScrubConfig;
use rbio::service::{CheckpointService, ServiceConfig, TenantSpec};

use crate::fill::FieldData;
use crate::stats::gbps;
use crate::sysinfo;
use crate::trace::Tracer;
use crate::workload::{
    final_scrub, Counters, Measured, Opts, Phase, ProbeSizes, Tally, RESTORE_EVERY, SETUPS, WARMUP,
};

/// Exactly two generator threads: the box has two cores, and pool and
/// rank threads belong to the program.
pub const TENANTS: u32 = 2;
pub const WRITE_BYTES: usize = 1 << 20;
pub const WRITES_PER_SESSION: usize = 16;
pub const SESSION_BYTES: u64 = (WRITE_BYTES * WRITES_PER_SESSION) as u64;
/// Gated grant quantum. At the default 256 KiB every contended grant
/// parks on a 25 ms condvar slice and goodput swings 0.12–0.72 GB/s
/// between identical runs; 4 MiB repeats (see README, sizing notes).
pub const QUANTUM: u64 = 4 << 20;

fn service(dir: &Path, quantum: u64) -> CheckpointService {
    let mut cfg = ServiceConfig::new(dir)
        .pool_threads(2)
        .pipeline_depth(2)
        .admission(4, 4)
        .quantum(quantum);
    cfg.fsync = true;
    CheckpointService::new(cfg)
}

/// One generator thread's state, kept across window segments.
struct Tenant<'a> {
    id: u32,
    data: &'a FieldData,
    /// The session's bytes, stamped before the clock starts.
    scratch: Vec<u8>,
    gen: u64,
    tracer: Tracer,
    tally: Tally,
}

/// What one tenant did in one segment.
#[derive(Default)]
struct TenantPhase {
    session_s: Vec<f64>,
    restore_s: Vec<f64>,
    cycle_s: Vec<f64>,
    bytes: u64,
}

impl<'a> Tenant<'a> {
    fn new(id: u32, data: &'a FieldData, epoch: Instant) -> Self {
        Tenant {
            id,
            data,
            scratch: vec![0; SESSION_BYTES as usize],
            gen: 0,
            tracer: Tracer::new(epoch, 1 + id),
            tally: Tally::default(),
        }
    }

    fn spec(&self) -> TenantSpec {
        TenantSpec::new(self.id as u64)
    }

    /// Two sessions per tenant stay on disk.
    fn name(gen: u64) -> &'static str {
        if gen % 2 == 0 {
            "ckA.bin"
        } else {
            "ckB.bin"
        }
    }

    /// Open a session, stream the generation in, commit. Returns the
    /// blocked (= durable: commit fsyncs and renames) seconds.
    fn session(&mut self, svc: &CheckpointService) -> Result<f64, String> {
        self.gen += 1;
        let gen = self.gen;
        for (i, block) in self.scratch.chunks_mut(WRITE_BYTES).enumerate() {
            self.data.fill(gen, self.id, i, block);
        }
        let spec = self.spec();
        let tr = &mut self.tracer;
        tr.enter("driver.checkpoint", gen);
        let t0 = Instant::now();
        let out = (|| {
            let (sess, _) = tr.timed("service.open", gen, || {
                svc.checkpoint(spec, Self::name(gen))
            });
            let mut sess = sess.map_err(|e| format!("open: {e}"))?;
            for block in self.scratch.chunks(WRITE_BYTES) {
                let (w, _) = tr.timed("service.write", gen, || sess.write(block));
                w.map_err(|e| format!("write: {e}"))?;
            }
            let (n, _) = tr.timed("service.commit", gen, || sess.commit());
            match n.map_err(|e| format!("commit: {e}"))? {
                SESSION_BYTES => Ok(()),
                n => Err(format!("commit reported {n} bytes, wrote {SESSION_BYTES}")),
            }
        })();
        let secs = t0.elapsed().as_secs_f64();
        tr.exit();
        out.map(|()| secs)
    }

    /// Read the newest session back through the service and compare.
    fn restore(&mut self, svc: &CheckpointService) -> Result<f64, String> {
        let gen = self.gen;
        let spec = self.spec();
        let (got, secs) = self.tracer.timed("service.restore", gen, || {
            svc.restore(spec, Self::name(gen))
                .and_then(|mut r| r.read_all())
        });
        let got = got.map_err(|e| format!("restore: {e}"))?;
        if got.len() as u64 != SESSION_BYTES {
            return Err(format!("restored {} bytes of {SESSION_BYTES}", got.len()));
        }
        for (i, block) in got.chunks(WRITE_BYTES).enumerate() {
            if !self.data.matches(gen, self.id, i, block) {
                return Err(format!(
                    "tenant {} generation {gen}: write {i} differs from the regenerated fill",
                    self.id
                ));
            }
        }
        Ok(secs)
    }

    /// The tenant's closed loop: session after session until `stop`
    /// says so, every `RESTORE_EVERY`-th followed by a restore.
    fn run(&mut self, svc: &CheckpointService, mut stop: impl FnMut(u64) -> bool) -> TenantPhase {
        let mut out = TenantPhase::default();
        let mut done = 0;
        let mut cycle_start = None;
        while !stop(done) {
            let r = self.session(svc);
            if let Some(s) = self.tally.check("session", r) {
                out.session_s.push(s);
                out.bytes += SESSION_BYTES;
            }
            if self.gen % RESTORE_EVERY == 0 {
                let r = self.restore(svc);
                if let Some(s) = self.tally.check("restore", r) {
                    out.restore_s.push(s);
                }
                let now = Instant::now();
                if let Some(t0) = cycle_start.replace(now) {
                    out.cycle_s.push((now - t0).as_secs_f64());
                }
            }
            done += 1;
        }
        out
    }
}

/// Run every tenant's loop side by side; returns their segment results
/// and the seconds until the last one stopped.
fn run_tenants<'a>(
    svc: &CheckpointService,
    tenants: &mut [Tenant<'a>],
    stop: impl Fn(u64) -> bool + Sync,
) -> (Vec<TenantPhase>, f64) {
    let start = Instant::now();
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .map(|t| {
                let stop = &stop;
                scope.spawn(move || t.run(svc, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread must not panic"))
            .collect()
    });
    (outs, start.elapsed().as_secs_f64())
}

fn tenant_dirs(dir: &Path) -> Vec<ScrubConfig> {
    (0..TENANTS)
        .map(|t| ScrubConfig::new(dir.join(format!("tenant-{t}"))))
        .collect()
}

pub fn run(opts: &Opts, data: &FieldData) -> Result<Measured, String> {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = opts.run_dir.join(format!("setup{i}"));
        let mut tenants: Vec<Tenant> = (0..TENANTS).map(|t| Tenant::new(t, data, epoch)).collect();
        let t0 = Instant::now();
        let svc = service(&dir, QUANTUM);
        run_tenants(&svc, &mut tenants, |done| done >= WARMUP);
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((svc, tenants, dir));
        } else {
            drop(svc);
            for t in tenants {
                tally.absorb(t.tally);
            }
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
    }
    let (svc, mut tenants, dir) = kept.expect("SETUPS >= 1");
    let stored = sysinfo::dir_bytes(&dir).map_err(|e| format!("size of {}: {e}", dir.display()))?;
    let stored_ratio = stored as f64 / (2 * TENANTS as u64 * SESSION_BYTES) as f64;

    let mut phases = Vec::new();
    let mut tenant_bytes = vec![0u64; TENANTS as usize];
    for (secs, traced) in opts.phases() {
        for t in tenants.iter_mut() {
            t.tracer.set_enabled(traced);
        }
        crate::alloc::set_counting(traced);
        let mut ph = Phase::default();
        let before = Counters::read();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let (outs, window_s) = run_tenants(&svc, &mut tenants, |_| Instant::now() >= deadline);
        ph.window_s = window_s;
        ph.delta = Some(Counters::read().since(&before));
        for (i, o) in outs.into_iter().enumerate() {
            ph.durable_s.extend_from_slice(&o.session_s);
            ph.ckpt_s.extend(o.session_s);
            ph.restore_s.extend(o.restore_s);
            ph.cycle_s.extend(o.cycle_s);
            if traced {
                tenant_bytes[i] = o.bytes;
            }
        }
        phases.push(ph);
    }
    crate::alloc::set_counting(false);
    drop(svc);

    let mut counts = Vec::new();
    if opts.trace {
        let (max, min) = (
            *tenant_bytes.iter().max().expect("tenants") as f64,
            *tenant_bytes.iter().min().expect("tenants") as f64,
        );
        counts.push((
            "service.tenant_bytes_max_over_min",
            if min > 0.0 { max / min } else { 0.0 },
        ));
        counts.push((
            "service.goodput_q256k_gbps",
            default_quantum_goodput(opts, data, &mut tally)?,
        ));
    }

    let mut tracer = Tracer::new(epoch, 0);
    for t in tenants {
        tracer.absorb(t.tracer);
        tally.absorb(t.tally);
    }
    let scrub = final_scrub(&tenant_dirs(&dir), &mut tally);
    Ok(Measured {
        setup_s,
        phases,
        ckpt_bytes: SESSION_BYTES,
        streams: TENANTS as u64,
        stored_ratio,
        tally,
        tracer,
        counts,
        scrub,
        probe: ProbeSizes {
            chunk: WRITE_BYTES,
            file: SESSION_BYTES as usize,
            depth: 2,
        },
        final_dir: dir,
    })
}

/// Side-run at the service's default 256 KiB quantum: the same two
/// tenant loops for a quarter window. Reported ungated — it is known to
/// be bimodal, and showing that is the point.
fn default_quantum_goodput(
    opts: &Opts,
    data: &FieldData,
    tally: &mut Tally,
) -> Result<f64, String> {
    let dir = opts.run_dir.join("q256k");
    let svc = service(&dir, ServiceConfig::new(&dir).quantum);
    let mut tenants: Vec<Tenant> = (0..TENANTS)
        .map(|t| Tenant::new(t, data, Instant::now()))
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64((opts.seconds / 4.0).min(5.0));
    let (outs, window_s) = run_tenants(&svc, &mut tenants, |_| Instant::now() >= deadline);
    drop(svc);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    for t in tenants {
        tally.absorb(t.tally);
    }
    Ok(gbps(outs.iter().map(|o| o.bytes).sum(), window_s))
}
