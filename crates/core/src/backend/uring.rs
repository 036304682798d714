//! Real io_uring syscalls behind the `io-uring` cargo feature.
//!
//! [`UringBackend`] drives the kernel's submission/completion rings
//! directly: one transient ring per write batch, `IORING_OP_WRITEV`
//! SQEs linked with `IOSQE_IO_LINK` (execution stops at the first
//! failure; later SQEs complete as `-ECANCELED`), a single
//! `io_uring_enter` that submits the batch and waits for all its
//! completions, and CQE-driven reaping that holds every op's buffers
//! until its completion is consumed — the same contract the emulation
//! ([`super::ring::RingBackend`]) enforces, with the same sched events,
//! so a trace from either backend replays against the same shadow
//! model.
//!
//! Two deliberate scope limits keep the syscall path auditable:
//!
//! * **Armed fault plans delegate to the emulation.** Fault injection
//!   needs a per-attempt consult loop around each logical write; the
//!   kernel cannot run our fault hooks mid-ring. Production runs have
//!   unarmed plans and stay on the syscall path.
//! * **Transient errors and short writes finish via `pwrite`.** A CQE
//!   carrying `-EINTR`/`-EAGAIN` or a partial length is completed with
//!   the blocking full-delivery loop (counted as a short-write retry)
//!   rather than another ring round trip — correctness first, the win
//!   is the batched submission of the common case.
//!
//! Containers commonly seccomp-block `io_uring_setup`, so
//! [`kernel_supported`] probes once at startup and the backend factory
//! falls back to the emulation when the probe fails.
#![allow(unsafe_code)]

use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use rbio_profile::counters;

use super::ring::{RingBackend, RingConfig};
use super::{BatchOutcome, IoBackend, IoCtx, WriteOp};
use crate::buf::Bytes;
use crate::fault::{self, WriteError};
use crate::sched;
use crate::sys::{self, syscall6, Mmap};

/// Same numbers on every architecture (the generic syscall table).
const NR_IO_URING_SETUP: usize = 425;
const NR_IO_URING_ENTER: usize = 426;
const MAP_POPULATE: usize = 0x8000;
const IORING_OP_WRITEV: u8 = 2;
const IOSQE_IO_LINK: u8 = 1 << 2;
const IORING_ENTER_GETEVENTS: u32 = 1;
const IORING_OFF_SQ_RING: usize = 0;
const IORING_OFF_CQ_RING: usize = 0x0800_0000;
const IORING_OFF_SQES: usize = 0x1000_0000;
const IORING_FEAT_SINGLE_MMAP: u32 = 1;
const ECANCELED: i32 = 125;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    resv2: u64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    resv2: u64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct UringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawSqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    rw_flags: u32,
    user_data: u64,
    pad: [u64; 3],
}

#[repr(C)]
#[derive(Clone, Copy)]
struct RawCqe {
    user_data: u64,
    res: i32,
    flags: u32,
}

#[repr(C)]
struct IoVec {
    base: *const u8,
    len: usize,
}

/// One live kernel ring: its mappings and its fd, each released by its
/// own drop (mappings first, in field order).
struct KernelRing {
    sq_ring: Mmap,
    /// `None` under `IORING_FEAT_SINGLE_MMAP`: the CQ ring then lives
    /// in `sq_ring`'s mapping.
    cq_ring: Option<Mmap>,
    sqes: Mmap,
    fd: OwnedFd,
    p: UringParams,
}

impl KernelRing {
    fn new(entries: u32) -> io::Result<KernelRing> {
        let mut p = UringParams::default();
        let fd = io_uring_setup(entries, &mut p)?;
        let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
        let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<RawCqe>();
        let single_mmap = p.features & IORING_FEAT_SINGLE_MMAP != 0;
        let map = |len: usize, off: usize, what: &str| {
            let prot = sys::PROT_READ | sys::PROT_WRITE;
            Mmap::new(
                fd.as_raw_fd(),
                len,
                off,
                prot,
                sys::MAP_SHARED | MAP_POPULATE,
            )
            .ok_or_else(|| io::Error::other(format!("mmap of the {what} failed")))
        };
        let sq_ring = if single_mmap {
            map(sq_len.max(cq_len), IORING_OFF_SQ_RING, "SQ+CQ ring")?
        } else {
            map(sq_len, IORING_OFF_SQ_RING, "SQ ring")?
        };
        let cq_ring = if single_mmap {
            None
        } else {
            Some(map(cq_len, IORING_OFF_CQ_RING, "CQ ring")?)
        };
        let sqes_len = p.sq_entries as usize * std::mem::size_of::<RawSqe>();
        let sqes = map(sqes_len, IORING_OFF_SQES, "SQE array")?;
        Ok(KernelRing {
            sq_ring,
            cq_ring,
            sqes,
            fd,
            p,
        })
    }

    /// An atomic view of the `u32` ring field at `off` in `ring`.
    ///
    /// # Safety
    /// `off` must come from the kernel-filled offsets of the ring
    /// `ring` maps.
    unsafe fn atomic(ring: &Mmap, off: u32) -> &AtomicU32 {
        // SAFETY: the kernel aligned these fields; the mapping outlives
        // the borrow (tied to `ring`).
        unsafe { &*(ring.as_ptr().add(off as usize) as *const AtomicU32) }
    }

    /// Queue `sqes` (≤ sq_entries) and submit them with one
    /// `io_uring_enter`, waiting for `sqes.len()` completions.
    fn submit_and_wait(&self, sqes: &[RawSqe]) -> io::Result<()> {
        let mask = self.p.sq_entries - 1;
        // SAFETY: offsets are kernel-provided for this mapping.
        let (tail_a, array) = unsafe {
            (
                Self::atomic(&self.sq_ring, self.p.sq_off.tail),
                self.sq_ring.as_ptr().add(self.p.sq_off.array as usize) as *mut u32,
            )
        };
        let slots = self.sqes.as_ptr() as *mut RawSqe;
        let mut tail = tail_a.load(Ordering::Relaxed);
        for sqe in sqes {
            let idx = tail & mask;
            // SAFETY: idx < sq_entries, inside both mapped arrays.
            unsafe {
                *slots.add(idx as usize) = *sqe;
                *array.add(idx as usize) = idx;
            }
            tail = tail.wrapping_add(1);
        }
        // Publish the new tail before entering the kernel.
        tail_a.store(tail, Ordering::Release);
        let want = sqes.len() as u32;
        loop {
            match self.enter(want, want) {
                Err(e) if e.raw_os_error() == Some(EINTR) => {}
                done => return done,
            }
        }
    }

    /// `io_uring_enter(2)`: submit `to_submit` SQEs and wait for
    /// `min_complete` completions.
    fn enter(&self, to_submit: u32, min_complete: u32) -> io::Result<()> {
        let fd = self.fd.as_raw_fd() as usize;
        let (s, c) = (to_submit as usize, min_complete as usize);
        let flags = IORING_ENTER_GETEVENTS as usize;
        // SAFETY: no userspace memory is passed (the sigmask is null).
        let ret = unsafe { syscall6(NR_IO_URING_ENTER, [fd, s, c, flags, 0, 0]) };
        if ret < 0 {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(())
    }

    /// Pop every available CQE.
    fn reap_all(&self) -> Vec<RawCqe> {
        let cq_ring = self.cq_ring.as_ref().unwrap_or(&self.sq_ring);
        // SAFETY: offsets are kernel-provided for this mapping.
        let (head_a, tail_a, cqes) = unsafe {
            (
                Self::atomic(cq_ring, self.p.cq_off.head),
                Self::atomic(cq_ring, self.p.cq_off.tail),
                cq_ring.as_ptr().add(self.p.cq_off.cqes as usize) as *const RawCqe,
            )
        };
        let mask = self.p.cq_entries - 1;
        let mut head = head_a.load(Ordering::Relaxed);
        let tail = tail_a.load(Ordering::Acquire);
        let mut out = Vec::with_capacity(tail.wrapping_sub(head) as usize);
        while head != tail {
            // SAFETY: (head & mask) < cq_entries, inside the mapping.
            out.push(unsafe { *cqes.add((head & mask) as usize) });
            head = head.wrapping_add(1);
        }
        head_a.store(head, Ordering::Release);
        out
    }
}

/// `io_uring_setup(2)`: a ring of `entries` SQEs, described in `p`.
fn io_uring_setup(entries: u32, p: &mut UringParams) -> io::Result<OwnedFd> {
    let args = [entries as usize, p as *mut UringParams as usize, 0, 0, 0, 0];
    // SAFETY: `p` is a live, writable params struct of the layout the
    // kernel expects.
    let ret = unsafe { syscall6(NR_IO_URING_SETUP, args) };
    if ret < 0 {
        return Err(io::Error::from_raw_os_error(-ret as i32));
    }
    // SAFETY: a non-negative return is a fresh fd nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(ret as RawFd) })
}

/// Whether this kernel (and seccomp policy) lets us set up an io_uring.
/// Probed once per process.
pub fn kernel_supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| io_uring_setup(4, &mut UringParams::default()).is_ok())
}

/// The real-syscall completion-queue backend.
pub struct UringBackend {
    cfg: RingConfig,
    /// Armed fault plans need per-attempt hooks the kernel cannot run;
    /// those batches run on the emulation with identical semantics.
    fallback: RingBackend,
}

impl UringBackend {
    /// A backend with explicit ring geometry.
    pub fn with_config(cfg: RingConfig) -> Self {
        UringBackend {
            cfg,
            fallback: RingBackend::with_config(cfg),
        }
    }
}

impl IoBackend for UringBackend {
    fn name(&self) -> &'static str {
        "ring-uring"
    }

    fn max_batch(&self) -> usize {
        self.cfg.batch.max(1)
    }

    fn run_writes(&self, ctx: &IoCtx<'_>, ops: Vec<WriteOp>) -> BatchOutcome {
        if ctx.faults.is_armed() {
            return self.fallback.run_writes(ctx, ops);
        }
        match self.run_ring(ctx, &ops) {
            Ok(outcome) => outcome,
            // Ring setup failed at runtime (fd limits, seccomp change):
            // the batch still has to land — use the emulation.
            Err(_) => self.fallback.run_writes(ctx, ops),
        }
    }

    fn read_at(&self, file: &File, offset: u64, len: usize) -> io::Result<Bytes> {
        super::mmapio::read_via_mmap(file, offset, len)
    }

    fn sync_file(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }
}

impl UringBackend {
    fn run_ring(&self, ctx: &IoCtx<'_>, ops: &[WriteOp]) -> io::Result<BatchOutcome> {
        let entries = (ops.len().max(1) as u32).next_power_of_two();
        let ring = KernelRing::new(entries)?;
        // iovec arrays must outlive the enter call; ops (and their
        // Bytes) outlive the whole reap loop — ownership until reap.
        let iovecs: Vec<Vec<IoVec>> = ops
            .iter()
            .map(|op| {
                op.bufs
                    .iter()
                    .map(|b| IoVec {
                        base: b.as_ref().as_ptr(),
                        len: b.len(),
                    })
                    .collect()
            })
            .collect();
        let sqes: Vec<RawSqe> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| RawSqe {
                opcode: IORING_OP_WRITEV,
                // Linked chain: a failure cancels every later op.
                flags: if i + 1 < ops.len() { IOSQE_IO_LINK } else { 0 },
                fd: op.file.as_raw_fd(),
                off: op.offset,
                addr: iovecs[i].as_ptr() as u64,
                len: iovecs[i].len() as u32,
                user_data: i as u64 + 1,
                ..RawSqe::default()
            })
            .collect();
        for sqe in &sqes {
            sched::emit(|| sched::Event::SubmitQueued {
                wid: ctx.wid,
                udata: sqe.user_data,
                hash: 0,
            });
        }
        ring.submit_and_wait(&sqes)?;
        sched::emit(|| sched::Event::SubmitBatched {
            wid: ctx.wid,
            count: sqes.len(),
        });

        let mut error: Option<(usize, WriteError)> = None;
        let mut reaped = 0usize;
        while reaped < ops.len() {
            let cqes = ring.reap_all();
            if cqes.is_empty() {
                // Completions may trail the enter return; collect them.
                match ring.enter(0, 1) {
                    Err(e) if e.raw_os_error() != Some(EINTR) => return Err(e),
                    _ => continue,
                }
            }
            for cqe in cqes {
                reaped += 1;
                let i = (cqe.user_data - 1) as usize;
                let op = &ops[i];
                sched::emit(|| sched::Event::CompletionReaped {
                    wid: ctx.wid,
                    udata: cqe.user_data,
                    hash: 0,
                    ok: cqe.res >= 0,
                });
                let expected = op.len();
                if cqe.res < 0 {
                    let err = -cqe.res;
                    if err == ECANCELED {
                        continue;
                    }
                    if err == EINTR || err == EAGAIN {
                        // Transient: finish with the blocking loop.
                        if let Err(e) = finish_op(op, 0) {
                            set_first(&mut error, i, e);
                        }
                        continue;
                    }
                    set_first(
                        &mut error,
                        i,
                        WriteError::Io(io::Error::from_raw_os_error(err)),
                    );
                } else if (cqe.res as u64) < expected {
                    let written = cqe.res as u64;
                    sched::emit(|| sched::Event::ShortWriteResubmit {
                        wid: ctx.wid,
                        udata: cqe.user_data,
                        written,
                        expected,
                    });
                    counters::add_short_write_retries(1);
                    if let Err(e) = finish_op(op, written) {
                        set_first(&mut error, i, e);
                    }
                }
            }
        }
        Ok(BatchOutcome { retries: 0, error })
    }
}

fn set_first(error: &mut Option<(usize, WriteError)>, i: usize, e: WriteError) {
    let earlier = match error {
        Some((j, _)) => i < *j,
        None => true,
    };
    if earlier {
        *error = Some((i, e));
    }
}

/// Deliver the remainder of `op` past `already` bytes with the blocking
/// full-delivery loop.
fn finish_op(op: &WriteOp, already: u64) -> Result<(), WriteError> {
    let mut done = 0u64;
    for b in &op.bufs {
        let blen = b.len() as u64;
        if done + blen > already {
            let skip = already.saturating_sub(done) as usize;
            fault::write_full_at(&op.file, op.offset + done, b.as_ref(), skip)?;
        }
        done += blen;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn uring_or_fallback_round_trips() {
        let dir = std::env::temp_dir().join(format!("rbio-uring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let f = Arc::new(
            std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(dir.join("f"))
                .expect("open"),
        );
        let faults = FaultPlan::none();
        let ctx = IoCtx {
            rank: 0,
            wid: 0,
            faults: &faults,
            write_retries: 0,
            retry_backoff: Duration::ZERO,
        };
        let b = UringBackend::with_config(RingConfig::default());
        let out = b.run_writes(
            &ctx,
            vec![
                WriteOp {
                    file: Arc::clone(&f),
                    offset: 0,
                    bufs: vec![Bytes::from_vec(vec![1; 8])],
                },
                WriteOp {
                    file: Arc::clone(&f),
                    offset: 8,
                    bufs: vec![Bytes::from_vec(vec![2; 4]), Bytes::from_vec(vec![3; 4])],
                },
            ],
        );
        assert!(
            out.error.is_none(),
            "kernel_supported={}",
            kernel_supported()
        );
        let got = b.read_at(&f, 0, 16).expect("read");
        assert_eq!(
            got.as_ref(),
            &[1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
