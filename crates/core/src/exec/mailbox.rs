//! The bounded per-rank mailbox both entry points message through.
//!
//! One `sync_channel` per rank, every rank holding the full sender
//! table; receives match `(src, tag)` FIFO per channel and stash
//! everything else. A blocked send or receive ends in one of three
//! ways: the peer acts, the run aborts (when an abort flag is
//! attached), or its [`Wait`] gives up: at the deadline, or after its
//! point's futile-poll budget under a controlled scheduler.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use rbio_profile::counters;

use crate::buf::Bytes;
use crate::sched::{Point, Wait};

/// How often a blocked receive wakes to bump the heartbeat and re-check
/// the abort flag.
pub(super) const RECV_POLL: Duration = Duration::from_millis(25);

/// How often a sender facing a full mailbox retries.
const SEND_POLL: Duration = Duration::from_micros(100);

type Msg = (u32, u64, Bytes); // (src, tag, data)

/// How a blocked mailbox operation ended without its message.
#[derive(Debug)]
pub(crate) enum MailError {
    /// The attached abort flag was raised: a peer rank failed.
    Aborted,
    /// The peer's endpoint is gone (its thread exited).
    Disconnected,
    /// The deadline passed after waiting this long.
    Timeout(Duration),
}

/// One rank's endpoint: its receiver, the shared sender table, and the
/// stash of early arrivals.
pub(crate) struct Mailbox {
    senders: Arc<Vec<SyncSender<Msg>>>,
    rx: Receiver<Msg>,
    stash: HashMap<(u32, u64), VecDeque<Bytes>>,
    /// Deadline for one blocked send or receive.
    pub(crate) timeout: Duration,
    /// Run-wide abort flag: once raised, blocked operations return
    /// [`MailError::Aborted`].
    pub(crate) abort: Option<Arc<AtomicBool>>,
    /// This rank's liveness heartbeat, bumped on every poll: a rank
    /// blocked on a peer is alive, just waiting.
    pub(crate) beat: Option<Arc<AtomicU64>>,
}

impl Mailbox {
    /// `n` fully connected mailboxes of `capacity` messages each (min 1),
    /// in rank order. Bounded so a burst or a stalled receiver exerts
    /// backpressure on senders instead of growing the heap.
    pub(crate) fn mesh(n: usize, capacity: usize, timeout: Duration) -> Vec<Mailbox> {
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| sync_channel::<Msg>(capacity.max(1))).unzip();
        let senders = Arc::new(txs);
        rxs.into_iter()
            .map(|rx| Mailbox {
                senders: Arc::clone(&senders),
                rx,
                stash: HashMap::new(),
                timeout,
                abort: None,
                beat: None,
            })
            .collect()
    }

    /// Bump the heartbeat, if one is attached.
    pub(crate) fn beat(&self) {
        if let Some(b) = &self.beat {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bump the heartbeat, then fail if the attached abort flag (if any)
    /// has been raised.
    pub(crate) fn poll(&self) -> Result<(), MailError> {
        self.beat();
        match &self.abort {
            Some(a) if a.load(Ordering::Acquire) => Err(MailError::Aborted),
            _ => Ok(()),
        }
    }

    /// Deliver `data` to `dst` as a message from `src` (a successor
    /// forwards under the orphan's identity). Returns at once while the
    /// mailbox has room; a full mailbox blocks — that bounded wait *is*
    /// the backpressure: resident queue bytes never exceed the capacity.
    pub(crate) fn send_as(
        &self,
        src: u32,
        dst: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<(), MailError> {
        let tx = &self.senders[dst as usize];
        let attempt = |msg: Msg| match tx.try_send(msg) {
            Ok(()) => Ok(None),
            Err(TrySendError::Disconnected(_)) => Err(MailError::Disconnected),
            Err(TrySendError::Full(m)) => Ok(Some(m)),
        };
        let Some(mut msg) = attempt((src, tag, data))? else {
            return Ok(());
        };
        counters::add_send_backpressure_blocks(1);
        let mut wait = Wait::new(Point::SendFull, Some(self.timeout)).slice(SEND_POLL);
        loop {
            self.poll()?;
            msg = match attempt(msg)? {
                Some(m) => m,
                None => return Ok(()),
            };
            #[allow(clippy::disallowed_methods)] // no condvar: the Wait sleeps
            let slept = wait.once(std::thread::sleep);
            if let Err(waited) = slept {
                counters::add_send_backpressure_timeouts(1);
                return Err(MailError::Timeout(waited));
            }
        }
    }

    /// Blocking receive of the next message from `src` with `tag`.
    pub(crate) fn recv(&mut self, src: u32, tag: u64) -> Result<Bytes, MailError> {
        if let Some(d) = self
            .stash
            .get_mut(&(src, tag))
            .and_then(VecDeque::pop_front)
        {
            return Ok(d);
        }
        // Never disconnected: this mailbox holds its own sender too.
        let mut wait = Wait::new(Point::RecvEmpty, Some(self.timeout)).slice(RECV_POLL);
        loop {
            self.poll()?;
            let got = match self.rx.try_recv() {
                Ok(m) => Some(m),
                Err(_) => wait
                    .once(|left| self.rx.recv_timeout(left).ok())
                    .map_err(MailError::Timeout)?
                    .flatten(),
            };
            match got {
                Some((s, t, d)) if s == src && t == tag => return Ok(d),
                Some((s, t, d)) => self.stash.entry((s, t)).or_default().push_back(d),
                None => {}
            }
        }
    }
}
