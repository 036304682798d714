//! Multi-tenant checkpoint service: many concurrent checkpoint/restore
//! sessions multiplexed over one explicitly-constructed [`FlushPool`].
//!
//! The paper's rbIO strategy exists because many clients contending for
//! a shared filesystem collapse without coordination. This module is the
//! production analogue at service scale: tenants open *sessions*, and
//! the service decides (a) whether a session may start at all
//! (admission control — bounded in-flight sessions, a bounded FIFO
//! queue, and a typed [`ServiceError::Rejected`] beyond that), (b) when
//! each admitted session's next chunk may move (weighted fair-share
//! bandwidth arbitration, the gpfs fair-shared-pipe model extended to
//! tenant weights), and (c) who goes first under contention
//! ([`QosClass::LatencySensitive`] restores preempt
//! [`QosClass::Throughput`] checkpoints at chunk grant points).
//!
//! The service owns and passes its pool: every session writer is
//! registered on the pool the service constructed from its own config,
//! so a differently-configured service is a different pool — there is
//! no process-wide pool to go stale. The pool stops when the
//! service and its last open session are gone. An admission wait is one
//! [`Wait`], waking every 25 ms. A grant is work-conserving: it waits
//! only for a contender that can hand off to it (see
//! [`FairShare::grant`]), and the 25 ms slice is its stall backstop and
//! the granularity of its timeout, never a sleep on the common path.
//!
//! Every admission decision and per-tenant byte moved is charged to the
//! zero-alloc counters in [`rbio_profile::counters`].

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rbio_profile::counters;

use crate::buf::{BufPool, Bytes};
use crate::commit;
use crate::fault::FaultPlan;
use crate::pipeline::{FlushJob, FlushPool, PipelineError, WriterHandle, WriterTuning};
use crate::sched::{self, unpoisoned, Point, Revert, Wait};

/// How often a session waiting for admission re-checks; how long in all
/// a grant waits for hidden contenders before it counts them as stalled;
/// the granularity of both timeouts.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// Fixed-point scale for virtual time: one byte at weight `WEIGHT_SCALE`
/// costs one vtime unit, so `cost = bytes * WEIGHT_SCALE / weight`.
const WEIGHT_SCALE: u64 = 64;

/// Quality-of-service class of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Restore-style traffic: a waiter of this class preempts
    /// `Throughput` sessions at the next chunk grant point.
    LatencySensitive,
    /// Checkpoint-style traffic: yields to latency-sensitive waiters.
    Throughput,
}

/// A tenant identity as the service schedules it.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Stable tenant id (hashes to a counter slot, see
    /// [`counters::tenant_slot`]).
    pub id: u64,
    /// Fair-share weight (≥ 1): bandwidth under contention is split in
    /// proportion to weights.
    pub weight: u32,
    /// Scheduling class for this tenant's sessions.
    pub qos: QosClass,
}

impl TenantSpec {
    /// An equal-weight throughput tenant.
    pub fn new(id: u64) -> Self {
        TenantSpec {
            id,
            weight: 1,
            qos: QosClass::Throughput,
        }
    }

    /// Replace the fair-share weight (clamped to ≥ 1).
    pub fn weight(mut self, w: u32) -> Self {
        self.weight = w.max(1);
        self
    }

    /// Replace the QoS class.
    pub fn qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory all session files live under (one subdirectory per
    /// tenant).
    pub base_dir: PathBuf,
    /// Flush worker threads in the service-owned pool.
    pub pool_threads: usize,
    /// Outstanding background jobs per session writer (≥ 1; 0 runs as 1).
    pub pipeline_depth: u32,
    /// Sessions allowed in flight at once; the `max_inflight + 1`-th
    /// session queues.
    pub max_inflight: usize,
    /// Sessions allowed to wait in the admission queue; beyond this the
    /// outcome is a typed [`ServiceError::Rejected`].
    pub queue_depth: usize,
    /// Fair-share grant quantum in bytes: sessions move at most this
    /// many bytes per arbitration turn, so preemption latency is bounded
    /// by one quantum.
    pub quantum: u64,
    /// Deadline for a queued session to be admitted.
    pub admit_timeout: Duration,
    /// Deadline for one chunk's bandwidth grant.
    pub grant_timeout: Duration,
    /// fsync session files before publishing them.
    pub fsync: bool,
}

impl ServiceConfig {
    /// Defaults: 2 pool threads, depth 2, 8 in flight, 64 queued, 256
    /// KiB quantum, 2 s deadlines, no fsync.
    pub fn new(base_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            base_dir: base_dir.into(),
            pool_threads: 2,
            pipeline_depth: 2,
            max_inflight: 8,
            queue_depth: 64,
            quantum: 256 << 10,
            admit_timeout: Duration::from_secs(2),
            grant_timeout: Duration::from_secs(2),
            fsync: false,
        }
    }

    /// Set pool threads (≥ 1).
    pub fn pool_threads(mut self, n: usize) -> Self {
        self.pool_threads = n.max(1);
        self
    }

    /// Set per-writer pipeline depth (≥ 1).
    pub fn pipeline_depth(mut self, d: u32) -> Self {
        self.pipeline_depth = d.max(1);
        self
    }

    /// Set admission bounds: `inflight` concurrent sessions, `queued`
    /// waiting beyond that.
    pub fn admission(mut self, inflight: usize, queued: usize) -> Self {
        self.max_inflight = inflight.max(1);
        self.queue_depth = queued;
        self
    }

    /// Set the fair-share grant quantum in bytes (≥ 1).
    pub fn quantum(mut self, bytes: u64) -> Self {
        self.quantum = bytes.max(1);
        self
    }

    /// Set both wait deadlines.
    pub fn timeouts(mut self, admit: Duration, grant: Duration) -> Self {
        self.admit_timeout = admit;
        self.grant_timeout = grant;
        self
    }
}

/// A typed service failure.
#[derive(Debug)]
pub enum ServiceError {
    /// Admission refused outright: in-flight sessions and the waiting
    /// queue are both at capacity. The caller is expected to back off
    /// and retry — nothing was queued on its behalf.
    Rejected {
        /// Tenant that was refused.
        tenant: u64,
        /// In-flight sessions at refusal time.
        inflight: usize,
        /// Queued sessions at refusal time.
        queued: usize,
    },
    /// A queued session was not admitted within the deadline.
    AdmitTimeout {
        /// Tenant whose session timed out.
        tenant: u64,
        /// How long it waited.
        waited: Duration,
    },
    /// A chunk's bandwidth grant did not arrive within the deadline.
    GrantTimeout {
        /// Tenant whose grant timed out.
        tenant: u64,
        /// How long it waited.
        waited: Duration,
    },
    /// The arbiter was asked for a grant or a chunk loop on behalf of a
    /// tenant with no open session ([`FairShare::join`] first).
    NotJoined {
        /// The unknown tenant.
        tenant: u64,
    },
    /// The session's background writer failed (first error latched).
    Pipeline(PipelineError),
    /// A foreground file operation failed.
    Io(io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected {
                tenant,
                inflight,
                queued,
            } => write!(
                f,
                "tenant {tenant}: admission rejected ({inflight} in flight, {queued} queued)"
            ),
            ServiceError::AdmitTimeout { tenant, waited } => {
                write!(f, "tenant {tenant}: not admitted within {waited:?}")
            }
            ServiceError::GrantTimeout { tenant, waited } => {
                write!(f, "tenant {tenant}: no bandwidth grant within {waited:?}")
            }
            ServiceError::NotJoined { tenant } => {
                write!(f, "tenant {tenant}: no session joined to the arbiter")
            }
            ServiceError::Pipeline(e) => write!(f, "session writer: {e}"),
            ServiceError::Io(e) => write!(f, "session i/o: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PipelineError> for ServiceError {
    fn from(e: PipelineError) -> Self {
        ServiceError::Pipeline(e)
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// How an admitted session got in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Capacity was free; the session started immediately.
    Admitted,
    /// The session waited in the bounded queue first.
    Queued,
}

// ---------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------

struct GateState {
    inflight: usize,
    /// FIFO tickets: next to hand out, and next to serve.
    next_ticket: u64,
    serve_ticket: u64,
    /// Tickets whose owner gave up waiting; skipped when serving.
    abandoned: std::collections::HashSet<u64>,
}

impl GateState {
    fn queued(&self) -> usize {
        (self.next_ticket - self.serve_ticket) as usize - self.abandoned.len()
    }

    /// Skip over abandoned tickets so a timed-out waiter can't wedge the
    /// queue.
    fn skip_abandoned(&mut self) {
        while self.abandoned.remove(&self.serve_ticket) {
            self.serve_ticket += 1;
        }
    }
}

/// Bounded admission: at most `max_inflight` permits out, at most
/// `queue_depth` FIFO waiters, typed rejection beyond that.
pub struct AdmissionGate {
    /// Taken through [`unpoisoned`]: every update under it is a ticket or
    /// permit count, or a set edit, in straight-line code that cannot
    /// panic midway, so a panic on a thread holding it leaves no
    /// half-made change to refuse.
    m: Mutex<GateState>,
    cv: Condvar,
    max_inflight: usize,
    queue_depth: usize,
    admit_timeout: Duration,
}

/// RAII permit for one in-flight session; releases on drop.
pub struct SessionPermit {
    gate: Arc<AdmissionGate>,
    /// How the permit was obtained.
    pub admission: Admission,
}

impl std::fmt::Debug for SessionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPermit")
            .field("admission", &self.admission)
            .finish_non_exhaustive()
    }
}

impl AdmissionGate {
    /// A gate allowing `max_inflight` concurrent permits and
    /// `queue_depth` waiters.
    pub fn new(max_inflight: usize, queue_depth: usize, admit_timeout: Duration) -> Arc<Self> {
        Arc::new(AdmissionGate {
            m: Mutex::new(GateState {
                inflight: 0,
                next_ticket: 0,
                serve_ticket: 0,
                abandoned: std::collections::HashSet::new(),
            }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue_depth,
            admit_timeout,
        })
    }

    /// Acquire a permit for `tenant`, queueing (bounded, FIFO) when the
    /// service is at capacity.
    pub fn acquire(self: &Arc<Self>, tenant: u64) -> Result<SessionPermit, ServiceError> {
        let mut g = unpoisoned(self.m.lock());
        g.skip_abandoned();
        let admission = if g.inflight < self.max_inflight && g.queued() == 0 {
            Admission::Admitted
        } else if g.queued() < self.queue_depth {
            counters::add_service_queued(1);
            Admission::Queued
        } else {
            counters::add_service_rejected(1);
            return Err(ServiceError::Rejected {
                tenant,
                inflight: g.inflight,
                queued: g.queued(),
            });
        };
        // With a permit free and nobody queued, this ticket is served now.
        let ticket = g.next_ticket;
        g.next_ticket += 1;
        let mut wait = Wait::new(Point::AdmitWait, Some(self.admit_timeout)).slice(WAIT_SLICE);
        loop {
            if g.serve_ticket == ticket && g.inflight < self.max_inflight {
                g.serve_ticket += 1;
                g.skip_abandoned();
                g.inflight += 1;
                counters::add_service_admitted(1);
                self.cv.notify_all();
                let gate = Arc::clone(self);
                return Ok(SessionPermit { gate, admission });
            }
            g = match wait.park(&self.m, &self.cv, g) {
                Ok(g) => g,
                Err((mut g, waited)) => {
                    g.abandoned.insert(ticket);
                    g.skip_abandoned();
                    self.cv.notify_all();
                    return Err(ServiceError::AdmitTimeout { tenant, waited });
                }
            };
        }
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        let mut g = unpoisoned(self.gate.m.lock());
        g.inflight -= 1;
        g.skip_abandoned();
        self.gate.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Weighted fair-share arbiter
// ---------------------------------------------------------------------

struct TenantSched {
    weight: u32,
    qos: QosClass,
    /// Weighted virtual time: grows by `bytes * WEIGHT_SCALE / weight`
    /// per grant, so heavier tenants accumulate vtime slower and are
    /// eligible more often — bandwidth splits in weight proportion.
    vtime: u64,
    /// Active sessions of this tenant (refcount for state retention).
    sessions: usize,
    /// Sessions of this tenant currently blocked in `grant`.
    waiting: usize,
    /// Sessions of this tenant inside a chunk loop ([`FairShare::call`]):
    /// between two of its grants such a session will ask again.
    calls: usize,
}

struct FsState {
    tenants: HashMap<u64, TenantSched>,
    /// Latency-sensitive sessions currently blocked in `grant`; while
    /// nonzero, throughput sessions stay blocked (QoS preemption).
    lat_waiters: usize,
}

/// Weighted fair-share bandwidth arbiter over tenant virtual time — the
/// gpfs fair-shared-pipe model (every stream progresses, none overtakes
/// by more than a quantum) extended with per-tenant weights and QoS
/// preemption.
pub struct FairShare {
    /// Taken through [`unpoisoned`]: every update under it is a count or
    /// vtime bump, or a map edit, in straight-line code that cannot panic
    /// midway (a grant's waits release it), so a panic on a thread
    /// holding it leaves no half-made change to refuse.
    m: Mutex<FsState>,
    cv: Condvar,
    /// Vtime slack a tenant may run ahead of the slowest waiter.
    quantum_v: u64,
    grant_timeout: Duration,
    /// Grants announced but not yet registered as waiters: blocked on
    /// the lock, which a decision in progress holds.
    arriving: AtomicUsize,
}

/// A session's chunk loop, as [`FairShare::call`] registers it; ends on
/// drop.
pub struct Call<'a> {
    fs: &'a FairShare,
    tenant: u64,
}

impl Drop for Call<'_> {
    fn drop(&mut self) {
        let mut g = unpoisoned(self.fs.m.lock());
        if let Some(t) = g.tenants.get_mut(&self.tenant) {
            t.calls = t.calls.saturating_sub(1);
        }
        self.fs.cv.notify_all();
    }
}

impl FairShare {
    /// An arbiter whose tenants may run at most `quantum` bytes (at
    /// weight 1) ahead of the slowest contender.
    pub fn new(quantum: u64, grant_timeout: Duration) -> Self {
        FairShare {
            m: Mutex::new(FsState {
                tenants: HashMap::new(),
                lat_waiters: 0,
            }),
            cv: Condvar::new(),
            quantum_v: quantum.max(1).saturating_mul(WEIGHT_SCALE),
            grant_timeout,
            arriving: AtomicUsize::new(0),
        }
    }

    /// Register one session of `tenant`. A tenant joining an ongoing
    /// contest starts at the present minimum vtime, not at zero — new
    /// arrivals get an equal share, not a retroactive credit.
    pub fn join(&self, tenant: &TenantSpec) {
        let mut g = unpoisoned(self.m.lock());
        let floor = g
            .tenants
            .values()
            .filter(|t| t.sessions > 0)
            .map(|t| t.vtime)
            .min()
            .unwrap_or(0);
        let t = g.tenants.entry(tenant.id).or_insert(TenantSched {
            weight: tenant.weight.max(1),
            qos: tenant.qos,
            vtime: floor,
            sessions: 0,
            waiting: 0,
            calls: 0,
        });
        t.weight = tenant.weight.max(1);
        t.qos = tenant.qos;
        t.vtime = t.vtime.max(floor);
        t.sessions += 1;
    }

    /// Unregister one session of `tenant`.
    pub fn leave(&self, tenant_id: u64) {
        let mut g = unpoisoned(self.m.lock());
        if let Some(t) = g.tenants.get_mut(&tenant_id) {
            t.sessions = t.sessions.saturating_sub(1);
            if t.sessions == 0 {
                g.tenants.remove(&tenant_id);
            }
        }
        self.cv.notify_all();
    }

    /// Mark one session of `tenant` as inside a chunk loop until the
    /// returned guard drops. A contender far enough ahead waits for the
    /// loop's next grant instead of overtaking it between two grants.
    pub fn call(&self, tenant_id: u64) -> Result<Call<'_>, ServiceError> {
        let mut g = unpoisoned(self.m.lock());
        let t = g
            .tenants
            .get_mut(&tenant_id)
            .ok_or(ServiceError::NotJoined { tenant: tenant_id })?;
        t.calls += 1;
        Ok(Call {
            fs: self,
            tenant: tenant_id,
        })
    }

    /// Block until `tenant` may move `bytes` more bytes, then charge
    /// them. Eligibility: the tenant's vtime is within one quantum of
    /// the slowest *waiting* contender, and no latency-sensitive session
    /// is waiting if this one is throughput-class.
    ///
    /// A grant is work-conserving: it returns at once unless a contender
    /// the decision cannot see yet could go first. Such a contender is
    /// *hidden*: it is arriving (announced, blocked on the lock), or it
    /// is inside a chunk loop ([`FairShare::call`]) between two grants
    /// and more than one quantum behind this tenant. Decisions are made
    /// among the sessions that want the pipe, so without the wait two
    /// streams trading instantaneous grants would never observe each
    /// other and fairness would degrade to FIFO. The wait lasts until the
    /// contender registers or its loop ends, and at most one scheduling
    /// slice in all, timed from the first hidden contender (other
    /// tenants' notifies do not extend it): a session stalled inside its
    /// loop can never fence healthy ones. A tenant between sessions or in
    /// `commit` is not in a loop and costs nothing. A latency-sensitive
    /// grant looks only at latency-sensitive loops; an arrival's class is
    /// unknown until it registers, so every grant waits for one (a lock
    /// hand-off).
    ///
    /// A latency-sensitive grant made while a throughput session waits
    /// or is inside a chunk loop counts as a QoS preemption
    /// (`service.preemptions`).
    pub fn grant(&self, tenant_id: u64, bytes: u64) -> Result<(), ServiceError> {
        // Announce before the lock, so a decision in progress sees this
        // grant even while it is blocked on the mutex.
        self.arriving.fetch_add(1, Ordering::SeqCst);
        sched::yield_now(Point::GrantWait);
        let mut g = unpoisoned(self.m.lock());
        self.arriving.fetch_sub(1, Ordering::SeqCst);
        let Some(t) = g.tenants.get_mut(&tenant_id) else {
            // The arrival is over: wake the decisions that waited for it.
            self.cv.notify_all();
            return Err(ServiceError::NotJoined { tenant: tenant_id });
        };
        let (qos, cost) = (
            t.qos,
            bytes.saturating_mul(WEIGHT_SCALE) / u64::from(t.weight),
        );
        t.waiting += 1;
        if qos == QosClass::LatencySensitive {
            g.lat_waiters += 1;
        }
        self.cv.notify_all();
        let mut wait = Wait::new(Point::GrantWait, Some(self.grant_timeout)).slice(WAIT_SLICE);
        let mut counted_block = false;
        let outcome = loop {
            let Some(me) = g.tenants.get(&tenant_id).map(|t| t.vtime) else {
                break Err(ServiceError::NotJoined { tenant: tenant_id });
            };
            let arriving = self.arriving.load(Ordering::SeqCst) > 0
                && !sched::reverted(Revert::Pr33GrantBlindToArrivals);
            // Hidden contenders that have not registered or left their
            // loop within a slice have stalled, and stop counting.
            let hidden = (arriving || g.loop_behind(tenant_id, qos, me, self.quantum_v))
                && !wait.held_a_slice();
            if !hidden && g.eligible(qos, me, self.quantum_v) {
                if qos == QosClass::LatencySensitive && g.throughput_wants_pipe() {
                    counters::add_service_preemptions(1);
                }
                if let Some(t) = g.tenants.get_mut(&tenant_id) {
                    t.vtime = t.vtime.saturating_add(cost);
                }
                break Ok(());
            }
            if !counted_block {
                counted_block = true;
                counters::add_service_throttle_waits(1);
            }
            match wait.park(&self.m, &self.cv, g) {
                Ok(ng) => g = ng,
                Err((ng, waited)) => {
                    g = ng;
                    break Err(ServiceError::GrantTimeout {
                        tenant: tenant_id,
                        waited,
                    });
                }
            }
        };
        if let Some(t) = g.tenants.get_mut(&tenant_id) {
            t.waiting = t.waiting.saturating_sub(1);
        }
        if qos == QosClass::LatencySensitive {
            g.lat_waiters -= 1;
        }
        self.cv.notify_all();
        outcome
    }
}

impl FsState {
    /// Whether a grant at vtime `me` may go now among the registered
    /// waiters: within one quantum of the slowest of them, and past the
    /// QoS gate.
    fn eligible(&self, qos: QosClass, me: u64, quantum_v: u64) -> bool {
        // While a latency-sensitive session waits, throughput waiters
        // are frozen by the QoS gate; leaving their stale vtime in the
        // floor would wedge the latency stream one quantum later (it
        // waits on a vtime that can't advance — deadlock). The floor
        // spans only waiters eligible to run right now.
        let lat_only = self.lat_waiters > 0;
        if lat_only && qos == QosClass::Throughput {
            return false;
        }
        self.tenants
            .values()
            .filter(|t| t.waiting > 0 && (!lat_only || t.qos == QosClass::LatencySensitive))
            .map(|t| t.vtime)
            .min()
            .is_none_or(|floor| me <= floor.saturating_add(quantum_v))
    }

    /// Whether another tenant that counts for a `qos` grant is inside a
    /// chunk loop, not waiting, and more than one quantum behind `me`:
    /// once it asks again, the floor would hold this grant back.
    fn loop_behind(&self, tenant_id: u64, qos: QosClass, me: u64, quantum_v: u64) -> bool {
        self.tenants.iter().any(|(&id, t)| {
            id != tenant_id
                && (qos == QosClass::Throughput || t.qos == QosClass::LatencySensitive)
                && t.calls > t.waiting
                && t.vtime.saturating_add(quantum_v) < me
        })
    }

    /// Whether a throughput session waits for a grant or is inside a
    /// chunk loop. A latency-sensitive grant made meanwhile counts as a
    /// preemption.
    fn throughput_wants_pipe(&self) -> bool {
        self.tenants
            .values()
            .any(|t| t.qos == QosClass::Throughput && (t.waiting > 0 || t.calls > 0))
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

struct SvcInner {
    cfg: ServiceConfig,
    pool: Arc<FlushPool>,
    gate: Arc<AdmissionGate>,
    arbiter: FairShare,
    session_seq: AtomicU32,
}

impl Drop for SvcInner {
    /// Open sessions write, commit and quiesce through the pool until the last goes.
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

/// A long-lived multi-tenant checkpoint service. See the module docs.
pub struct CheckpointService {
    inner: Arc<SvcInner>,
}

impl CheckpointService {
    /// Construct the service and its owned flush pool.
    pub fn new(cfg: ServiceConfig) -> Self {
        let pool = FlushPool::with_threads(cfg.pool_threads.max(1));
        let gate = AdmissionGate::new(cfg.max_inflight, cfg.queue_depth, cfg.admit_timeout);
        let arbiter = FairShare::new(cfg.quantum, cfg.grant_timeout);
        CheckpointService {
            inner: Arc::new(SvcInner {
                cfg,
                pool,
                gate,
                arbiter,
                session_seq: AtomicU32::new(0),
            }),
        }
    }

    /// Open a checkpoint session writing `name` for `tenant`. Admission
    /// is bounded — see [`ServiceError::Rejected`]; fairness and QoS
    /// apply per [`CheckpointSession::write`] chunk.
    pub fn checkpoint(
        &self,
        tenant: TenantSpec,
        name: &str,
    ) -> Result<CheckpointSession, ServiceError> {
        self.checkpoint_with_faults(tenant, name, FaultPlan::none())
    }

    /// [`CheckpointService::checkpoint`] with an injected fault plan on
    /// the session's background writer (the writer "rank" is the session
    /// id this returns via [`CheckpointSession::session_id`] — fault
    /// plans keyed on rank 0 hit every session writer registered as 0).
    pub fn checkpoint_with_faults(
        &self,
        tenant: TenantSpec,
        name: &str,
        faults: FaultPlan,
    ) -> Result<CheckpointSession, ServiceError> {
        let inner = &self.inner;
        let permit = inner.gate.acquire(tenant.id)?;
        let sid = inner.session_seq.fetch_add(1, Ordering::Relaxed);
        let dir = inner.cfg.base_dir.join(format!("tenant-{}", tenant.id));
        std::fs::create_dir_all(&dir).map_err(ServiceError::Io)?;
        let final_path = dir.join(name);
        let tmp_path = commit::tmp_path(&final_path);
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&tmp_path)
            .map_err(ServiceError::Io)?;
        let writer = inner.pool.register(
            sid,
            inner.cfg.pipeline_depth.max(1),
            faults.clone(),
            WriterTuning {
                durable: inner.cfg.fsync,
                ..WriterTuning::default()
            },
        );
        inner.arbiter.join(&tenant);
        Ok(CheckpointSession {
            inner: Arc::clone(inner),
            tenant,
            slot: counters::tenant_slot(tenant.id),
            sid,
            file: Arc::new(file),
            tmp_path,
            final_path,
            offset: 0,
            writer: Some(writer),
            faults,
            _permit: permit,
        })
    }

    /// Open a restore session reading `name` for `tenant`. Reads go
    /// through the same admission gate and fair-share arbiter as writes
    /// (restore is how `LatencySensitive` tenants preempt checkpoints).
    pub fn restore(&self, tenant: TenantSpec, name: &str) -> Result<RestoreSession, ServiceError> {
        let inner = &self.inner;
        let permit = inner.gate.acquire(tenant.id)?;
        let path = inner
            .cfg
            .base_dir
            .join(format!("tenant-{}", tenant.id))
            .join(name);
        let file = File::open(&path).map_err(ServiceError::Io)?;
        let len = file.metadata().map_err(ServiceError::Io)?.len();
        inner.arbiter.join(&tenant);
        Ok(RestoreSession {
            inner: Arc::clone(inner),
            tenant,
            slot: counters::tenant_slot(tenant.id),
            file,
            len,
            offset: 0,
            counted: false,
            _permit: permit,
        })
    }
}

/// An admitted checkpoint session: stream bytes in with
/// [`CheckpointSession::write`], publish atomically with
/// [`CheckpointSession::commit`].
pub struct CheckpointSession {
    inner: Arc<SvcInner>,
    tenant: TenantSpec,
    slot: usize,
    sid: u32,
    file: Arc<File>,
    tmp_path: PathBuf,
    final_path: PathBuf,
    offset: u64,
    writer: Option<WriterHandle>,
    /// The writer's plan (clones share state), for the commit fsync.
    faults: FaultPlan,
    _permit: SessionPermit,
}

impl std::fmt::Debug for CheckpointSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSession")
            .field("tenant", &self.tenant.id)
            .field("sid", &self.sid)
            .field("offset", &self.offset)
            .finish_non_exhaustive()
    }
}

impl CheckpointSession {
    /// The session's writer id within the service pool.
    pub fn session_id(&self) -> u32 {
        self.sid
    }

    /// Whether admission was immediate or queued.
    pub fn admission(&self) -> Admission {
        self._permit.admission
    }

    /// Append `data` to the checkpoint stream. The write is chunked at
    /// the fair-share quantum: each chunk waits for this tenant's
    /// bandwidth grant (the preemption point for latency-sensitive
    /// restores), then rides the background flush pipeline. The call is
    /// one chunk loop ([`FairShare::call`]): contenders see the stream
    /// between its grants. The pipeline outlives the borrow, so each
    /// chunk is copied into a pooled buffer once it is granted; a caller
    /// that owns its bytes hands them over with
    /// [`CheckpointSession::write_bytes`] instead.
    pub fn write(&mut self, data: &[u8]) -> Result<(), ServiceError> {
        self.write_chunks(data.len(), |r| BufPool::global().copy_from_slice(&data[r]))
    }

    /// [`CheckpointSession::write`] for bytes the caller hands over: each
    /// granted chunk is submitted as a slice of `data`, with no copy, and
    /// the storage goes home (to its pool, if leased) once the last chunk
    /// is on disk and the caller's own handles are gone.
    pub fn write_bytes(&mut self, data: Bytes) -> Result<(), ServiceError> {
        self.write_chunks(data.len(), |r| data.slice(r))
    }

    /// The chunk loop of both write forms: `len` bytes in quantum-sized
    /// chunks, each granted before `chunk(range)` produces its bytes.
    fn write_chunks(
        &mut self,
        len: usize,
        mut chunk: impl FnMut(Range<usize>) -> Bytes,
    ) -> Result<(), ServiceError> {
        let quantum = self.inner.cfg.quantum.max(1) as usize;
        let _call = self.inner.arbiter.call(self.tenant.id)?;
        for start in (0..len).step_by(quantum) {
            let end = len.min(start + quantum);
            let n = (end - start) as u64;
            self.inner.arbiter.grant(self.tenant.id, n)?;
            self.writer
                .as_ref()
                .expect("writer lives until commit")
                .submit(FlushJob::Write {
                    file: Arc::clone(&self.file),
                    offset: self.offset,
                    data: chunk(start..end),
                })?;
            self.offset += n;
            counters::tenant_add_bytes_written(self.slot, n);
        }
        Ok(())
    }

    /// Drain the pipeline and atomically publish the file under its
    /// final name. Returns total bytes written.
    pub fn commit(mut self) -> Result<u64, ServiceError> {
        let res = self.commit_inner();
        match &res {
            Ok(_) => counters::add_service_completed(1),
            Err(_) => counters::add_service_failed(1),
        }
        counters::tenant_add_session_done(self.slot);
        res
    }

    fn commit_inner(&mut self) -> Result<u64, ServiceError> {
        let writer = self.writer.take().expect("commit runs once");
        writer.drain()?;
        drop(writer); // quiesce + free the pool slot
        if self.inner.cfg.fsync {
            commit::sync_file(&self.file, &self.faults, self.sid).map_err(ServiceError::Io)?;
        }
        // A bare rename, with no footer and no directory fsync, until
        // sessions publish through the one publication path and come
        // under the crash enumerator (ROADMAP items 3 and 4(d)).
        #[allow(clippy::disallowed_methods)]
        std::fs::rename(&self.tmp_path, &self.final_path).map_err(ServiceError::Io)?;
        Ok(self.offset)
    }
}

impl Drop for CheckpointSession {
    fn drop(&mut self) {
        self.inner.arbiter.leave(self.tenant.id);
        if self.writer.is_some() {
            // Aborted session: the writer drops (quiesce + free) and the
            // tmp file stays unpublished.
            counters::add_service_failed(1);
            counters::tenant_add_session_done(self.slot);
        }
    }
}

/// An admitted restore session: stream the checkpoint back into the
/// caller's buffer with [`RestoreSession::read`], or whole into a pooled
/// image with [`RestoreSession::read_all`].
///
/// The session is counted once in the service counters: completed when
/// its stream reaches the end, failed when a read errors. A session
/// dropped before either is not counted.
pub struct RestoreSession {
    inner: Arc<SvcInner>,
    tenant: TenantSpec,
    slot: usize,
    file: File,
    len: u64,
    offset: u64,
    /// The session has been counted completed or failed.
    counted: bool,
    _permit: SessionPermit,
}

impl RestoreSession {
    /// Total bytes in the checkpoint being restored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the checkpoint is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read the next chunk into `buf`; returns bytes read (0 at EOF).
    /// Chunked at the quantum through the fair-share arbiter, like
    /// writes.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize, ServiceError> {
        let left = (self.len - self.offset) as usize;
        let quantum = self.inner.cfg.quantum.max(1) as usize;
        let n = buf.len().min(left).min(quantum);
        if n > 0 {
            let granted = self.inner.arbiter.grant(self.tenant.id, n as u64);
            let dst = &mut buf[..n];
            let read = granted.and_then(|()| Ok(self.file.read_exact_at(dst, self.offset)?));
            if let Err(e) = read {
                self.count(false);
                return Err(e);
            }
            self.offset += n as u64;
            counters::tenant_add_bytes_read(self.slot, n as u64);
        }
        if self.offset == self.len {
            self.count(true);
        }
        Ok(n)
    }

    /// Read the whole remaining stream, as one chunk loop
    /// ([`FairShare::call`]), into a buffer leased from
    /// [`BufPool::global`]. The image is returned frozen: it derefs to
    /// `[u8]`, and its buffer goes back to the pool when the last handle
    /// on it drops, so the next restore reuses resident memory instead of
    /// faulting in a fresh mapping. A caller that must own a `Vec<u8>`
    /// calls [`Bytes::into_vec`] (one counted copy). The reads overwrite
    /// the whole lease, so it skips the zero-fill; a read that fails
    /// drops it unfrozen.
    pub fn read_all(&mut self) -> Result<Bytes, ServiceError> {
        let mut image = BufPool::global().lease_to_overwrite((self.len - self.offset) as usize);
        let inner = Arc::clone(&self.inner);
        let _call = inner.arbiter.call(self.tenant.id)?;
        let mut done = 0;
        while done < image.len() {
            done += self.read(&mut image[done..])?;
        }
        // An empty remainder takes no read to reach the end.
        self.count(true);
        Ok(image.freeze())
    }

    /// Count the session completed (`ok`) or failed, the first time only.
    fn count(&mut self, ok: bool) {
        if std::mem::replace(&mut self.counted, true) {
            return;
        }
        if ok {
            counters::add_service_completed(1);
        } else {
            counters::add_service_failed(1);
        }
        counters::tenant_add_session_done(self.slot);
    }
}

impl Drop for RestoreSession {
    fn drop(&mut self) {
        self.inner.arbiter.leave(self.tenant.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-svc-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn payload(tenant: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (tenant as usize + i * 7) as u8).collect()
    }

    #[test]
    fn checkpoint_then_restore_round_trips() {
        let dir = tmpdir("roundtrip");
        let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(1 << 10));
        let t = TenantSpec::new(42);
        let data = payload(42, 10_000);
        let mut s = svc.checkpoint(t, "gen0.ckpt").expect("admit");
        assert_eq!(s.admission(), Admission::Admitted);
        s.write(&data).expect("write");
        assert_eq!(s.commit().expect("commit"), 10_000);
        // Tmp sibling must be gone, final file present.
        assert!(dir.join("tenant-42").join("gen0.ckpt").exists());
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        assert_eq!(r.len(), 10_000);
        assert_eq!(r.read_all().expect("read"), data);
    }

    #[test]
    fn a_zero_depth_service_round_trips() {
        // The field is public: a literal may set what the builder clamps.
        let dir = tmpdir("depth0");
        let svc = CheckpointService::new(ServiceConfig {
            pipeline_depth: 0,
            ..ServiceConfig::new(&dir)
        });
        let t = TenantSpec::new(43);
        let data = payload(43, 3000);
        let mut s = svc.checkpoint(t, "gen0.ckpt").expect("admit");
        s.write(&data).expect("write");
        assert_eq!(s.commit().expect("commit"), 3000);
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        assert_eq!(r.read_all().expect("read"), data);
    }

    #[test]
    fn owned_and_borrowed_writes_land_back_to_back() {
        let dir = tmpdir("write-bytes");
        let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(1 << 10));
        let t = TenantSpec::new(44);
        let data = payload(44, 10_000);
        let owned = Bytes::copy_from_slice(&data);
        let mut s = svc.checkpoint(t, "gen0.ckpt").expect("admit");
        // Two slices of one buffer around a borrow; quantum boundaries
        // fall inside each part.
        s.write_bytes(owned.slice(..2500)).expect("write_bytes");
        s.write(&data[2500..7000]).expect("write");
        s.write_bytes(owned.slice(7000..)).expect("write_bytes");
        s.write_bytes(Bytes::new()).expect("an empty hand-over");
        assert_eq!(s.commit().expect("commit"), 10_000);
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        assert_eq!(r.read_all().expect("read"), data);
    }

    /// Sessions counted done for tenant `id` (its slot is no other
    /// test's here, so the count is exact).
    fn sessions_done(id: u64) -> u64 {
        counters::tenant_snapshot(counters::tenant_slot(id)).sessions_done
    }

    #[test]
    fn a_restore_is_counted_once_when_its_stream_ends() {
        let dir = tmpdir("restore-counted");
        let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(1 << 10));
        let t = TenantSpec::new(142);
        let data = payload(142, 10_000);
        let mut s = svc.checkpoint(t, "gen0.ckpt").expect("admit");
        s.write(&data).expect("write");
        s.commit().expect("commit");
        let before = (sessions_done(t.id), counters::service_snapshot());

        // Through `read` alone: counted when the last byte arrives.
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        let mut buf = vec![0u8; 3000];
        let mut got = Vec::new();
        while sessions_done(t.id) == before.0 {
            let n = r.read(&mut buf).expect("read");
            assert!(n > 0, "the stream ended uncounted");
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, data);
        assert_eq!(r.read(&mut buf).expect("read at EOF"), 0);
        drop(r);
        // Twice through `read_all`: the second call is at EOF and empty.
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        assert_eq!(r.read_all().expect("read"), data);
        assert!(r.read_all().expect("read at EOF").is_empty());
        drop(r);
        // Dropped half-read: neither completed nor failed.
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        assert_eq!(r.read(&mut buf).expect("read"), 1 << 10);
        drop(r);

        assert_eq!(sessions_done(t.id) - before.0, 2);
        let delta = counters::service_snapshot().delta_since(&before.1);
        assert!(delta.completed >= 2, "{delta:?}");
    }

    #[test]
    fn a_restore_whose_read_fails_is_counted_failed_once() {
        let dir = tmpdir("restore-failed");
        let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(1 << 10));
        let t = TenantSpec::new(143);
        let mut s = svc.checkpoint(t, "gen0.ckpt").expect("admit");
        s.write(&payload(143, 8192)).expect("write");
        s.commit().expect("commit");
        let before = (sessions_done(t.id), counters::service_snapshot());

        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        // The file shrinks under the open session: the read past the
        // new end fails.
        let path = dir.join("tenant-143").join("gen0.ckpt");
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(4096).expect("truncate");
        match r.read_all() {
            Err(ServiceError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected a short read, got {other:?}"),
        }
        assert!(r.read(&mut [0u8; 512]).is_err(), "still past the end");
        drop(r);

        assert_eq!(sessions_done(t.id) - before.0, 1);
        let delta = counters::service_snapshot().delta_since(&before.1);
        assert!(delta.failed >= 1, "{delta:?}");
    }

    #[test]
    fn a_session_outlives_its_dropped_service() {
        let dir = tmpdir("orphan-session");
        let (tx, rx) = std::sync::mpsc::channel();
        let d = dir.clone();
        std::thread::spawn(move || {
            let quantum = 1 << 10;
            let cfg = || ServiceConfig::new(&d).quantum(quantum);
            let t = TenantSpec::new(7);
            let data = payload(7, 3 * quantum as usize);
            let mut s = CheckpointService::new(cfg())
                .checkpoint(t, "gen0.ckpt")
                .expect("admit");
            // The service is gone; the session's writes (the third waits
            // on the pipeline at depth 2) and its commit still run.
            s.write(&data).expect("write");
            s.commit().expect("commit");
            let mut r = CheckpointService::new(cfg())
                .restore(t, "gen0.ckpt")
                .expect("admit restore");
            tx.send(r.read_all().expect("read") == data).ok();
        });
        let same = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a session whose service was dropped must not hang");
        assert!(same, "restored bytes differ");
    }

    #[test]
    fn commit_fsync_answers_to_the_sessions_fault_plan() {
        let dir = tmpdir("fsync-eio");
        let mut cfg = ServiceConfig::new(&dir);
        cfg.fsync = true;
        let svc = CheckpointService::new(cfg);
        // A fresh service numbers its sessions from 0.
        let faults = FaultPlan::none().fsync_eio(0);
        let mut s = svc
            .checkpoint_with_faults(TenantSpec::new(3), "gen0.ckpt", faults)
            .expect("admit");
        assert_eq!(s.session_id(), 0);
        s.write(&payload(3, 4096)).expect("write");
        match s.commit() {
            Err(ServiceError::Io(e)) => assert_eq!(e.raw_os_error(), Some(5), "{e}"),
            other => panic!("expected EIO at the commit fsync, got {other:?}"),
        }
        let published = dir.join("tenant-3").join("gen0.ckpt");
        assert!(!published.exists(), "a failed fsync must not publish");
    }

    #[test]
    fn a_transient_write_error_is_retried_like_a_plan_writers() {
        let dir = tmpdir("eio-once");
        let svc = CheckpointService::new(ServiceConfig::new(&dir));
        // A fresh service numbers its sessions from 0: the session's first
        // write fails once with EIO, and the one retry budget lands it.
        let faults = FaultPlan::none().fail_nth_write(0, 0, 1);
        let t = TenantSpec::new(5);
        let data = payload(5, 10_000);
        let mut s = svc
            .checkpoint_with_faults(t, "gen0.ckpt", faults)
            .expect("admit");
        assert_eq!(s.session_id(), 0);
        s.write(&data).expect("write");
        assert_eq!(s.commit().expect("commit"), 10_000);
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        assert_eq!(r.read_all().expect("read"), data);
    }

    #[test]
    fn admission_queues_then_rejects_beyond_capacity() {
        let dir = tmpdir("admission");
        let svc = CheckpointService::new(
            ServiceConfig::new(&dir)
                .admission(1, 1)
                .timeouts(Duration::from_millis(100), Duration::from_secs(2)),
        );
        let t = TenantSpec::new(1);
        let s0 = svc.checkpoint(t, "a.ckpt").expect("first session admits");
        // Second session queues and times out (nobody releases the slot),
        // third is rejected outright while the queue is occupied.
        let gate = Arc::clone(&svc.inner.gate);
        let waiter = std::thread::spawn(move || gate.acquire(9));
        // Give the waiter time to enter the queue.
        #[allow(clippy::disallowed_methods)] // lets the other thread get there first
        std::thread::sleep(Duration::from_millis(20));
        match svc.checkpoint(t, "c.ckpt") {
            Err(ServiceError::Rejected {
                inflight: 1,
                queued: 1,
                ..
            }) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
        match waiter.join().expect("waiter thread") {
            Err(ServiceError::AdmitTimeout { tenant: 9, .. }) => {}
            other => panic!("expected admit timeout, got {other:?}"),
        }
        // Releasing the permit un-wedges admission (abandoned ticket is
        // skipped, not served).
        drop(s0);
        let s = svc.checkpoint(t, "d.ckpt").expect("slot free again");
        drop(s);
    }

    #[test]
    fn queued_session_admits_when_slot_frees() {
        let dir = tmpdir("queued");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).admission(1, 4),
        ));
        let t = TenantSpec::new(5);
        let s0 = svc.checkpoint(t, "a.ckpt").expect("admit");
        let svc2 = Arc::clone(&svc);
        let h = std::thread::spawn(move || {
            let mut s = svc2.checkpoint(t, "b.ckpt").expect("queued then admitted");
            assert_eq!(s.admission(), Admission::Queued);
            s.write(&payload(5, 256)).expect("write");
            s.commit().expect("commit")
        });
        #[allow(clippy::disallowed_methods)] // lets the other thread get there first
        std::thread::sleep(Duration::from_millis(30));
        s0.commit().expect("commit first");
        assert_eq!(h.join().expect("second session"), 256);
    }

    #[test]
    fn equal_weights_split_bandwidth_evenly() {
        // Two equal-weight tenants pushing identical streams through a
        // tiny quantum: neither may finish more than a quantum ahead in
        // *granted* bytes at any point. We approximate by checking both
        // complete and per-tenant counters agree.
        let dir = tmpdir("fair");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).quantum(512).admission(8, 8),
        ));
        let bytes = 64 * 1024;
        let mut handles = Vec::new();
        for id in [60u64, 61] {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let t = TenantSpec::new(id);
                let mut s = svc.checkpoint(t, "gen.ckpt").expect("admit");
                s.write(&payload(id, bytes)).expect("write");
                s.commit().expect("commit")
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("tenant thread"), bytes as u64);
        }
        let a = counters::tenant_snapshot(counters::tenant_slot(60));
        let b = counters::tenant_snapshot(counters::tenant_slot(61));
        assert!(a.bytes_written >= bytes as u64);
        assert!(b.bytes_written >= bytes as u64);
    }

    #[test]
    fn weighted_tenant_gets_proportionally_more_grants() {
        // Drive the arbiter directly: tenant 2 has twice tenant 1's
        // weight, and each streams grants inside a chunk loop, as a
        // session's write does. Both loops are open before either thread
        // runs, so a loop descheduled between two of its grants is still a
        // contender: the other's grant waits for it (one slice at most)
        // instead of running on alone. The charged byte ratio then follows
        // the weights however the OS schedules the two threads. The run
        // ends on a grant count, not on a wall-clock window.
        const GRANTS: u64 = 3000;
        let fs = FairShare::new(1024, Duration::from_secs(2));
        let t1 = TenantSpec::new(71).weight(1);
        let t2 = TenantSpec::new(72).weight(2);
        fs.join(&t1);
        fs.join(&t2);
        let total = std::sync::atomic::AtomicU64::new(0);
        let counts = std::thread::scope(|s| {
            let loops = [t1, t2].map(|t| (t.id, fs.call(t.id).expect("joined")));
            let handles = loops.map(|(id, call)| {
                let (fs, total) = (&fs, &total);
                s.spawn(move || {
                    let mut count = 0u64;
                    while total.load(Ordering::Relaxed) < GRANTS {
                        if fs.grant(id, 1024).is_ok() {
                            count += 1;
                            total.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    drop(call); // the loop ends with its thread, not at spawn
                    count
                })
            });
            handles.map(|h| h.join().expect("grant thread"))
        });
        fs.leave(t1.id);
        fs.leave(t2.id);
        let (c1, c2) = (counts[0] as f64, counts[1] as f64);
        assert!(c1 > 0.0 && c2 > 0.0, "both tenants must progress");
        let ratio = c2 / c1;
        assert!(
            (1.2..=3.3).contains(&ratio),
            "weight-2 tenant should get ~2x the grants, got {ratio:.2} ({c1} vs {c2})"
        );
    }

    #[test]
    fn a_grant_beside_an_idle_session_does_not_park() {
        // B holds an open session outside any chunk loop (between writes,
        // or in commit's fsync): it will not hand off, so A never waits.
        let fs = FairShare::new(1024, Duration::from_secs(2));
        let (a, b) = (TenantSpec::new(111), TenantSpec::new(112));
        fs.join(&a);
        fs.join(&b);
        let t0 = std::time::Instant::now();
        for _ in 0..16 {
            fs.grant(a.id, 1024).expect("grant");
        }
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(5), "16 grants took {took:?}");
    }

    #[test]
    fn a_stalled_call_costs_a_contender_at_most_one_slice() {
        // B enters a chunk loop and never asks for a grant. A may run one
        // quantum ahead of it at once; past that it waits for B's next
        // grant, and about one slice later stops waiting. Meanwhile C, a
        // latency-sensitive stream that B's loop does not hold back,
        // grants in a tight loop and notifies the arbiter every time, so
        // no slice of A's wait is silent: the backstop must be timed.
        let fs = Arc::new(FairShare::new(1024, Duration::from_secs(2)));
        let (a, b, c) = (
            TenantSpec::new(121),
            TenantSpec::new(122),
            TenantSpec::new(123).qos(QosClass::LatencySensitive),
        );
        for t in [&a, &b, &c] {
            fs.join(t);
        }
        let _stalled = fs.call(b.id).expect("b joined");
        let t0 = std::time::Instant::now();
        for _ in 0..2 {
            fs.grant(a.id, 1024).expect("within a quantum of b");
        }
        assert!(t0.elapsed() < WAIT_SLICE, "{:?}", t0.elapsed());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let notifier = {
            let (fs, stop) = (Arc::clone(&fs), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut grants = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    fs.grant(c.id, 1).expect("c is never held back");
                    grants += 1;
                }
                grants
            })
        };
        let t1 = std::time::Instant::now();
        let res = fs.grant(a.id, 1024);
        let took = t1.elapsed();
        stop.store(true, Ordering::Relaxed);
        assert!(notifier.join().expect("c thread") > 0);
        res.expect("a stalled loop must not time a grant out");
        assert!(
            took >= WAIT_SLICE && took < 20 * WAIT_SLICE,
            "the grant past b waited {took:?}, want about one slice"
        );
    }

    #[test]
    fn an_unjoined_tenant_gets_a_typed_error_and_others_are_still_granted() {
        let fs = FairShare::new(1024, Duration::from_secs(2));
        let a = TenantSpec::new(131);
        fs.join(&a);
        assert!(matches!(
            fs.grant(139, 1024),
            Err(ServiceError::NotJoined { tenant: 139 })
        ));
        assert!(matches!(
            fs.call(139),
            Err(ServiceError::NotJoined { tenant: 139 })
        ));
        // The error left the arbiter usable: no poisoned lock, no
        // arrival left announced.
        fs.grant(a.id, 1024)
            .expect("a joined tenant is still granted");
        let _call = fs.call(a.id).expect("a joined tenant enters a loop");
        fs.grant(a.id, 1024).expect("and is granted inside it");
    }

    #[test]
    fn latency_sensitive_restore_preempts_throughput_checkpoint() {
        let dir = tmpdir("qos");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).quantum(256).admission(8, 8),
        ));
        // Seed a checkpoint for the restore to read.
        let lat = TenantSpec::new(81).qos(QosClass::LatencySensitive);
        let mut s = svc.checkpoint(lat, "seed.ckpt").expect("admit");
        s.write(&payload(81, 4096)).expect("write");
        s.commit().expect("commit");

        let before = counters::service_snapshot();
        let thr = TenantSpec::new(80); // Throughput
        let svc2 = Arc::clone(&svc);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let streamed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (stop2, streamed2) = (Arc::clone(&stop), Arc::clone(&streamed));
        let writer = std::thread::spawn(move || {
            let mut s = svc2.checkpoint(thr, "big.ckpt").expect("admit");
            while !stop2.load(Ordering::Relaxed) {
                s.write(&payload(80, 2048)).expect("write");
                streamed2.fetch_add(2048, Ordering::Relaxed);
            }
            s.commit().expect("commit");
            streamed2.load(Ordering::Relaxed)
        });
        // Interleave restores once the checkpoint streams: at least four,
        // and on until one preempts it or a generous deadline passes.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while streamed.load(Ordering::Relaxed) < 256 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let preempted = || {
            counters::service_snapshot()
                .delta_since(&before)
                .preemptions
                >= 1
        };
        let mut restores = 0;
        while restores < 4 || (!preempted() && std::time::Instant::now() < deadline) {
            let mut r = svc.restore(lat, "seed.ckpt").expect("admit restore");
            let got = r.read_all().expect("read");
            assert_eq!(got.len(), 4096);
            restores += 1;
        }
        stop.store(true, Ordering::Relaxed);
        assert!(writer.join().expect("writer") > 0);
        // The restore stream must have registered at least one QoS
        // preemption against the bulk writer.
        let delta = counters::service_snapshot().delta_since(&before);
        assert!(delta.completed >= 5);
        assert!(
            delta.preemptions >= 1,
            "latency restore never preempted the bulk checkpoint ({restores} restores)"
        );
    }

    #[test]
    fn dead_tenant_writer_does_not_fence_healthy_tenants() {
        // One tenant's background writer is fault-killed mid-stream; the
        // error latches on *its* session only, and a concurrent healthy
        // tenant commits untouched.
        let dir = tmpdir("isolate");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).quantum(512).admission(8, 8),
        ));
        let sick = TenantSpec::new(90);
        let healthy = TenantSpec::new(91);
        // Open the sick session first so its writer deterministically
        // registers as session id 0 — the rank the fault plan targets.
        let faults = FaultPlan::none().kill_writer_after_bytes(0, 0);
        let mut s = svc
            .checkpoint_with_faults(sick, "dead.ckpt", faults)
            .expect("admit");
        assert_eq!(s.session_id(), 0);
        let svc2 = Arc::clone(&svc);
        let h = std::thread::spawn(move || {
            let mut s = svc2.checkpoint(healthy, "ok.ckpt").expect("admit");
            for _ in 0..16 {
                s.write(&payload(91, 1024)).expect("write");
            }
            s.commit().expect("healthy tenant must commit")
        });
        let mut failed = false;
        for _ in 0..16 {
            if s.write(&payload(90, 1024)).is_err() {
                failed = true;
                break;
            }
        }
        let failed = failed || s.commit().is_err();
        assert!(failed, "fault-killed writer must surface a typed error");
        assert_eq!(h.join().expect("healthy thread"), 16 * 1024);
        assert!(dir.join("tenant-91").join("ok.ckpt").exists());
        assert!(!dir.join("tenant-90").join("dead.ckpt").exists());
    }
}
