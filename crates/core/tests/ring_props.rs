//! Property tests for the portable ring core: for arbitrary
//! push/submit/reap sequences, the ring must keep its in-flight depth
//! bound, execute in FIFO order with link-break cancelation, and
//! deliver every completion exactly once — and the backend built on it
//! must take a batch of any length.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use rbio::backend::ring::{RingCore, RingFull};
use rbio::backend::{IoBackend, IoCtx, RingBackend, RingConfig, ThreadedBackend, WriteOp};
use rbio::buf::Bytes;
use rbio::fault::FaultPlan;
use rbio::sched::{self, Event, Sched};

/// Pushed-but-unreaped SQEs, counted from the events `RingBackend`
/// reports to an installed scheduler.
#[derive(Default)]
struct InFlight {
    now: AtomicUsize,
    high_water: AtomicUsize,
}

impl Sched for InFlight {
    fn controlled(&self) -> bool {
        true
    }

    fn emit(&self, event: Event) {
        match event {
            Event::SubmitQueued { .. } => {
                let now = self.now.fetch_add(1, Ordering::Relaxed) + 1;
                self.high_water.fetch_max(now, Ordering::Relaxed);
            }
            Event::CompletionReaped { .. } => {
                self.now.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Run `n` 16-byte ops through `backend` into a fresh file (the op at
/// index `cut`, if any, is cut short after 3 bytes) and return the
/// file's bytes.
fn land(backend: &dyn IoBackend, dir: &std::path::Path, n: usize, cut: usize) -> Vec<u8> {
    let path = dir.join(backend.name());
    let file = Arc::new(
        std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .expect("open"),
    );
    let faults = FaultPlan::none().short_write(0, cut as u64, 3);
    let ctx = IoCtx {
        rank: 0,
        wid: 0,
        faults: &faults,
        write_retries: 3,
        retry_backoff: Duration::from_micros(50),
    };
    let ops = (0..n)
        .map(|i| WriteOp {
            file: Arc::clone(&file),
            offset: i as u64 * 16,
            bufs: vec![Bytes::from_vec(vec![i as u8 + 1; 16])],
        })
        .collect();
    let out = backend.run_writes(&ctx, ops);
    assert!(out.error.is_none(), "{}: {:?}", backend.name(), out.error);
    std::fs::read(&path).expect("read back")
}

/// One driver step against the ring.
#[derive(Clone, Debug)]
enum Step {
    /// Try to push the next op (may be refused at the depth bound).
    Push,
    /// Execute everything queued; the payload value `fail_on` (if any)
    /// breaks the link.
    Submit,
    /// Deliver one completion (may be a no-op on an empty CQ).
    Reap,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![Just(Step::Push), Just(Step::Submit), Just(Step::Reap)],
        1..80,
    )
}

proptest! {
    /// Pushed-but-unreaped ops never exceed the configured depth, and a
    /// push at the bound is refused (not dropped, not queued).
    #[test]
    fn in_flight_never_exceeds_depth(
        depth in 1usize..9,
        seed in 0u64..1000,
        script in steps(),
    ) {
        let mut core: RingCore<u32, u32> = RingCore::new(depth, seed);
        let mut next = 0u32;
        for step in script {
            match step {
                Step::Push => match core.push(next) {
                    Ok(_) => next += 1,
                    Err(RingFull) => prop_assert_eq!(core.in_flight(), depth),
                },
                Step::Submit => {
                    core.submit(|_, v| (*v, true), |_, _| 0);
                }
                Step::Reap => {
                    core.reap();
                }
            }
            prop_assert!(core.in_flight() <= depth);
        }
        prop_assert!(core.high_water() <= depth);
    }

    /// Every pushed op is executed in FIFO order (or canceled after a
    /// link break) and its completion is delivered exactly once — no
    /// loss, no duplication, whatever the delivery permutation.
    #[test]
    fn completions_are_fifo_executed_and_delivered_exactly_once(
        depth in 1usize..9,
        seed in 0u64..1000,
        fail_on in prop_oneof![
            Just(None),
            (0u32..40).prop_map(Some),
        ],
        script in steps(),
    ) {
        let mut core: RingCore<u32, (u32, bool)> = RingCore::new(depth, seed);
        let mut next = 0u32;
        let mut exec_order: Vec<u32> = Vec::new();
        let mut delivered: Vec<(u64, u32, bool)> = Vec::new();
        let mut pushed: Vec<(u64, u32)> = Vec::new();
        for step in script {
            match step {
                Step::Push => {
                    if let Ok(udata) = core.push(next) {
                        pushed.push((udata, next));
                        next += 1;
                    }
                }
                Step::Submit => {
                    core.submit(
                        |_, v| {
                            exec_order.push(*v);
                            let ok = Some(*v) != fail_on;
                            ((*v, true), ok)
                        },
                        |_, v| (*v, false),
                    );
                }
                Step::Reap => {
                    if let Some((udata, v, (cv, executed))) = core.reap() {
                        prop_assert_eq!(v, cv, "completion carries its own op");
                        delivered.push((udata, v, executed));
                    }
                }
            }
        }
        // Drain whatever is still in flight.
        core.submit(
            |_, v| {
                exec_order.push(*v);
                let ok = Some(*v) != fail_on;
                ((*v, true), ok)
            },
            |_, v| (*v, false),
        );
        while let Some((udata, v, (_, executed))) = core.reap() {
            delivered.push((udata, v, executed));
        }

        // Executed ops are a FIFO prefix-respecting subsequence: values
        // execute in push order with no gaps among executed ones.
        let executed_sorted = {
            let mut e = exec_order.clone();
            e.sort_unstable();
            e
        };
        prop_assert_eq!(&exec_order, &executed_sorted, "execution is FIFO in push order");

        // Exactly-once delivery of every pushed op, by udata.
        prop_assert_eq!(delivered.len(), pushed.len());
        let mut got: Vec<(u64, u32)> = delivered.iter().map(|&(u, v, _)| (u, v)).collect();
        got.sort_unstable();
        let mut want = pushed.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want, "every pushed op delivers exactly once");

        // Link-break semantics: the delivered `executed` flag agrees
        // with the execution log, and an op is only ever canceled when
        // the failing op really executed before it in push order.
        for &(_, v, executed) in &delivered {
            prop_assert_eq!(executed, exec_order.contains(&v));
            if !executed {
                let f = fail_on.expect("cancelation requires a link break");
                prop_assert!(exec_order.contains(&f), "canceled without the break executing");
                prop_assert!(v > f, "op {} canceled before the break at {}", v, f);
            }
        }
    }

    /// `RingBackend::run_writes` takes a batch of any length, not only
    /// one the pool bounded by `max_batch()`: what exceeds the ring goes
    /// in further windows, the file matches the threaded engine's byte
    /// for byte, and the in-flight bound holds throughout — also when a
    /// full window has to resubmit a short write.
    #[test]
    fn any_batch_length_lands_like_threaded_within_depth(
        shape in (1usize..6).prop_flat_map(|depth| (Just(depth), 1usize..=4 * depth)),
        cut in 0usize..24,
        seed in 0u64..1000,
    ) {
        let (depth, n) = shape;
        let dir = std::env::temp_dir().join(format!("rbio-ring-props-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let want = land(&ThreadedBackend, &dir, n, cut);
        let in_flight = Arc::new(InFlight::default());
        sched::install(Arc::clone(&in_flight) as Arc<dyn Sched>);
        let ring = RingBackend::with_config(RingConfig {
            depth,
            batch: depth,
            completion_seed: seed,
        });
        let got = land(&ring, &dir, n, cut);
        sched::uninstall();
        prop_assert_eq!(got, want);
        prop_assert_eq!(in_flight.now.load(Ordering::Relaxed), 0, "every SQE reaped");
        let high = in_flight.high_water.load(Ordering::Relaxed);
        prop_assert_eq!(high, n.min(depth), "a window fills the ring, never more");
        std::fs::remove_dir_all(&dir).ok();
    }
}
