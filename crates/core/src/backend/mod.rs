//! Pluggable I/O backends for the flush pipeline.
//!
//! The paper's rbIO strategy hides the PFS path behind aggregation, but
//! once staging and messaging overlap the flush threads, the raw write
//! path itself becomes the ceiling: the [`crate::pipeline::FlushPool`]
//! historically issued one blocking `pwrite` per job. An [`IoBackend`]
//! owns submission and completion of that write work so the pool can
//! drive either:
//!
//! * [`ThreadedBackend`] — the portable baseline: one blocking,
//!   fault-checked, retried `pwrite`/`pwritev` per job (exactly the
//!   pre-backend behavior).
//! * [`ring::RingBackend`] — a completion-queue backend: multi-op
//!   submission batching, bounded in-flight depth, short-write
//!   resubmission at reap time, and completion-driven buffer-ownership
//!   release (a buffer's refcount may not drop until its completion has
//!   been reaped). It is a portable state machine ([`ring::RingCore`])
//!   whose SQEs execute through the same fault-checked write as the
//!   threaded engine — what `rbio-check`'s p8 families and the
//!   conformance suite explore.
//!
//! Both engines write with `pwrite`/`pwritev` and read restart data with
//! `pread` ([`IoBackend::read_at`]'s one body). There is deliberately no
//! kernel-ring engine: real `io_uring_setup`/`enter` syscalls, one
//! transient ring per batch, were timed against these two and never beat
//! the threaded engine — DESIGN.md §14 has the table and what a design
//! that could win would need.
//!
//! ## Contract
//!
//! A backend executes one FIFO batch of write ops per call. Ops are
//! *linked* (io_uring `IOSQE_IO_LINK` semantics): execution stops at the
//! first op whose fault check or write fails, and every later op in the
//! batch completes as canceled — never executed — so error latching and
//! fault-plan byte accounting are identical to the serial path on every
//! backend. Within an op, buffers land back to back at the op's offset.
//!
//! **Buffer ownership**: a backend takes ownership of each op's
//! [`Bytes`] and may not drop them (returning pooled slabs for reuse)
//! until the op's completion is reaped. The ring emulation re-hashes the
//! held payload at reap time and reports it via
//! [`Event::CompletionReaped`], so `rbio-check`'s shadow model catches
//! any early release as a fingerprint mismatch.
//!
//! [`Event::CompletionReaped`]: crate::sched::Event::CompletionReaped

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::{Arc, OnceLock};

use crate::buf::{BufPool, Bytes};
use crate::fault::{self, WriteError};

pub mod ring;

pub use crate::fault::IoCtx;
pub use ring::{RingBackend, RingConfig};

/// Which backend a config knob selects. The indirection (rather than an
/// `Arc<dyn IoBackend>` in every config struct) keeps `ExecConfig` and
/// `RtConfig` `Debug + Clone`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Process default: `RBIO_IO_BACKEND=ring|threaded` if set, else
    /// threaded.
    #[default]
    Default,
    /// The blocking per-job baseline.
    Threaded,
    /// The completion-queue backend ([`ring::RingBackend`]).
    Ring,
}

/// One write op handed to a backend: `bufs` land back to back at
/// `offset`. A single-buffer op is a plain `pwrite`; multi-buffer ops
/// are one *logical* write for fault accounting (the executors only
/// coalesce when no faults are armed).
pub struct WriteOp {
    /// Open target file (the `.tmp` sibling for atomic files).
    pub file: Arc<File>,
    /// Absolute file offset of the first buffer.
    pub offset: u64,
    /// The payload, snapshotted at submit time.
    pub bufs: Vec<Bytes>,
}

impl WriteOp {
    /// Total payload length.
    pub fn len(&self) -> u64 {
        self.bufs.iter().map(|b| b.len() as u64).sum()
    }

    /// True when the op carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bufs.iter().all(|b| b.is_empty())
    }
}

/// What one batch execution produced.
pub struct BatchOutcome {
    /// Retried write attempts accumulated across the batch.
    pub retries: u32,
    /// First failure in submission order, if any. Ops after index
    /// `error.0` were canceled, never executed (linked-op semantics).
    pub error: Option<(usize, WriteError)>,
}

impl BatchOutcome {
    pub(crate) fn ok(retries: u32) -> BatchOutcome {
        BatchOutcome {
            retries,
            error: None,
        }
    }
}

/// A submission/completion engine for writer I/O. Implementations must
/// be shareable across pool threads (`Send + Sync`); per-batch state
/// lives on the caller's stack, not in the backend.
pub trait IoBackend: Send + Sync {
    /// Stable name, for reports and BENCH artifacts.
    fn name(&self) -> &'static str;

    /// Upper bound on write ops per submitted batch (1 = no batching).
    fn max_batch(&self) -> usize {
        1
    }

    /// Execute `ops` FIFO with linked-op semantics (see module docs).
    fn run_writes(&self, ctx: &IoCtx<'_>, ops: Vec<WriteOp>) -> BatchOutcome;

    /// Flush `file`'s data and metadata (close/commit durability).
    fn sync_file(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }

    /// Read `len` bytes at `offset` with `pread` into a buffer leased from
    /// the global pool, which recycles like any checkpoint buffer; fails
    /// if fewer than `len` bytes exist. Every engine shares this body.
    /// Callers: the benchmark's probe and the conformance tests.
    fn read_at(&self, file: &File, offset: u64, len: usize) -> io::Result<Bytes> {
        let mut image = BufPool::global().lease(len);
        file.read_exact_at(&mut image, offset)?;
        Ok(image.freeze())
    }
}

/// The portable baseline: one blocking, fault-checked, retried
/// positional write per op — byte-for-byte the pre-backend flush path.
pub struct ThreadedBackend;

impl IoBackend for ThreadedBackend {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run_writes(&self, ctx: &IoCtx<'_>, ops: Vec<WriteOp>) -> BatchOutcome {
        let mut retries = 0u32;
        for (i, op) in ops.into_iter().enumerate() {
            match fault::write_at(ctx, &op.file, op.offset, &op.bufs) {
                Ok(attempts) => retries += attempts,
                Err(e) => {
                    return BatchOutcome {
                        retries,
                        error: Some((i, e)),
                    }
                }
            }
        }
        BatchOutcome::ok(retries)
    }
}

static THREADED: OnceLock<Arc<dyn IoBackend>> = OnceLock::new();
static RING: OnceLock<Arc<dyn IoBackend>> = OnceLock::new();

/// The shared [`ThreadedBackend`] instance.
pub fn threaded() -> Arc<dyn IoBackend> {
    Arc::clone(THREADED.get_or_init(|| Arc::new(ThreadedBackend)))
}

/// The shared default-configuration [`RingBackend`].
pub fn ring_default() -> Arc<dyn IoBackend> {
    Arc::clone(
        RING.get_or_init(|| Arc::new(ring::RingBackend::with_config(ring::RingConfig::default()))),
    )
}

/// Resolve a config knob to a backend instance. [`BackendKind::Default`]
/// honors `RBIO_IO_BACKEND` (`ring` or `threaded`), so the whole test
/// suite can be re-run under the ring backend without touching configs.
pub fn resolve(kind: BackendKind) -> Arc<dyn IoBackend> {
    match kind {
        BackendKind::Threaded => threaded(),
        BackendKind::Ring => ring_default(),
        BackendKind::Default => match std::env::var("RBIO_IO_BACKEND").ok().as_deref() {
            Some("ring") => ring_default(),
            _ => threaded(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::time::Duration;

    fn tmpfile(name: &str) -> (std::path::PathBuf, Arc<File>) {
        let dir = std::env::temp_dir().join(format!("rbio-backend-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("f");
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&p)
            .expect("open");
        (dir, Arc::new(f))
    }

    fn ctx(faults: &FaultPlan) -> IoCtx<'_> {
        IoCtx {
            rank: 0,
            wid: 0,
            faults,
            write_retries: 3,
            retry_backoff: Duration::from_micros(50),
        }
    }

    #[test]
    fn threaded_executes_ops_in_order_and_reads_back() {
        let (dir, f) = tmpfile("threaded");
        let faults = FaultPlan::none();
        let out = ThreadedBackend.run_writes(
            &ctx(&faults),
            vec![
                WriteOp {
                    file: Arc::clone(&f),
                    offset: 0,
                    bufs: vec![Bytes::from_vec(vec![1; 4])],
                },
                WriteOp {
                    file: Arc::clone(&f),
                    offset: 4,
                    bufs: vec![Bytes::from_vec(vec![2; 2]), Bytes::from_vec(vec![3; 2])],
                },
            ],
        );
        assert!(out.error.is_none());
        let got = ThreadedBackend.read_at(&f, 0, 8).expect("read");
        assert_eq!(got.as_ref(), &[1, 1, 1, 1, 2, 2, 3, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_cancels_ops_after_a_kill() {
        let (dir, f) = tmpfile("kill");
        let faults = FaultPlan::none().kill_writer_after_bytes(0, 4);
        let out = ThreadedBackend.run_writes(
            &ctx(&faults),
            vec![
                WriteOp {
                    file: Arc::clone(&f),
                    offset: 0,
                    bufs: vec![Bytes::from_vec(vec![7; 4])],
                },
                WriteOp {
                    file: Arc::clone(&f),
                    offset: 4,
                    bufs: vec![Bytes::from_vec(vec![8; 4])],
                },
                WriteOp {
                    file: Arc::clone(&f),
                    offset: 8,
                    bufs: vec![Bytes::from_vec(vec![9; 4])],
                },
            ],
        );
        match out.error {
            Some((1, WriteError::Killed)) => {}
            other => panic!("expected kill at op 1, got {other:?}"),
        }
        // Only op 0's bytes landed; ops 1 and 2 never executed.
        assert_eq!(f.metadata().expect("meta").len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_honors_kinds() {
        assert_eq!(resolve(BackendKind::Threaded).name(), "threaded");
        assert_eq!(resolve(BackendKind::Ring).name(), "ring");
    }
}
