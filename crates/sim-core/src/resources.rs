//! Resource-contention primitives.
//!
//! Three contention models cover every shared resource in the machine:
//!
//! * [`Serializer`] — a single FIFO server (a torus link, a directory-block
//!   token): requests occupy it back-to-back.
//! * [`CalendarQueue`] — `k` identical FIFO servers (a metadata service
//!   thread pool): each request is placed on the earliest-free server.
//! * [`FairPipe`] — a processor-sharing pipe (a DDN array, an ION's 10 GbE
//!   uplink): all active flows share the capacity equally, optionally capped
//!   per flow (a writer cannot pull more than its own link rate). Rates are
//!   recomputed on every arrival/departure (max–min water-filling), so
//!   per-flow finish times respond to contention the way Fig. 10/11 of the
//!   paper require.
//!
//! All three are *calendar* style: they answer "when would this finish?"
//! deterministically, and the caller schedules the corresponding events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A single FIFO server. Requests are serviced strictly back-to-back.
#[derive(Debug, Clone, Default)]
pub struct Serializer {
    busy_until: SimTime,
}

impl Serializer {
    /// A serializer that is free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the server for `service` starting no earlier than `now`.
    /// Returns `(start, end)` of the granted slot.
    pub fn occupy(&mut self, now: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let end = start.saturating_add(service);
        self.busy_until = end;
        (start, end)
    }

    /// When the server next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }
}

/// `k` identical FIFO servers; each request goes to the earliest-free one.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    free: BinaryHeap<Reverse<SimTime>>,
}

impl CalendarQueue {
    /// A queue with `servers` parallel servers (at least one).
    pub fn new(servers: usize) -> Self {
        let servers = servers.max(1);
        let mut free = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free.push(Reverse(SimTime::ZERO));
        }
        CalendarQueue { free }
    }

    /// Service a request of length `service` arriving at `now`.
    /// Returns `(start, end)`.
    pub fn request(&mut self, now: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let Reverse(free_at) = self.free.pop().expect("queue has at least one server");
        let start = now.max(free_at);
        let end = start.saturating_add(service);
        self.free.push(Reverse(end));
        (start, end)
    }
}

/// Identifier of an active [`FairPipe`] flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    remaining: f64, // bytes
    rate_cap: f64,  // bytes/sec; INFINITY when uncapped
    rate: f64,      // current granted rate, bytes/sec
}

/// Processor-sharing pipe with optional per-flow rate caps.
///
/// The pipe divides its capacity among active flows by max–min fairness:
/// flows whose cap is below their equal share get their cap, and the
/// residue is shared equally among the rest. Rates are piecewise-constant
/// between flow arrivals/departures, so the next completion time is exact.
#[derive(Debug, Clone)]
pub struct FairPipe {
    capacity: f64, // bytes/sec
    flows: Vec<Flow>,
    last_update: SimTime,
    next_id: u64,
    bytes_moved: f64,
}

/// Completion epsilon, in bytes: flows within this of zero are finished.
const DONE_EPS: f64 = 1e-6;

impl FairPipe {
    /// A pipe of `capacity` bytes/second.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "pipe capacity must be positive and finite"
        );
        FairPipe {
            capacity,
            flows: Vec::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
            bytes_moved: 0.0,
        }
    }

    /// Number of currently active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes transferred through the pipe so far (as of last update).
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_moved
    }

    /// Start a flow of `bytes` at `now`; `rate_cap` limits the flow's share
    /// (pass `f64::INFINITY` for no cap). Returns the flow id.
    pub fn start(&mut self, now: SimTime, bytes: u64, rate_cap: f64) -> FlowId {
        self.advance_to(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.push(Flow {
            id,
            remaining: bytes as f64,
            rate_cap: if rate_cap > 0.0 {
                rate_cap
            } else {
                f64::INFINITY
            },
            rate: 0.0,
        });
        self.recompute_rates();
        id
    }

    /// Advance internal progress to `now` and return the flows that have
    /// completed by then, removing them from the pipe. A flow counts as
    /// complete when its residue is within what it would transfer in one
    /// clock tick — the virtual clock has nanosecond granularity, so a
    /// completion time rounded down by half a tick must still complete
    /// (otherwise a caller looping on `next_completion` would spin).
    pub fn collect_completions(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance_to(now);
        let mut done = Vec::new();
        self.flows.retain(|f| {
            let tick_bytes = f.rate * 2e-9;
            if f.remaining <= DONE_EPS + tick_bytes {
                done.push(f.id);
                false
            } else {
                true
            }
        });
        if !done.is_empty() {
            self.recompute_rates();
        }
        done
    }

    /// Predicted time of the next flow completion under current rates.
    pub fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for f in &self.flows {
            if f.rate <= 0.0 {
                continue;
            }
            let t = f.remaining / f.rate;
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        // Round *up* to the next tick so the returned time is never
        // earlier than the true completion.
        best.map(|dt| {
            self.last_update
                .saturating_add(SimTime::from_secs_f64(dt.max(0.0)))
                .saturating_add(SimTime::from_nanos(1))
        })
    }

    fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        let dt = (now - self.last_update).as_secs_f64();
        for f in &mut self.flows {
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            self.bytes_moved += moved;
            if f.remaining < DONE_EPS {
                f.remaining = 0.0;
            }
        }
        self.last_update = now;
    }

    /// Max–min fair allocation with per-flow caps (water-filling).
    fn recompute_rates(&mut self) {
        let n = self.flows.len();
        if n == 0 {
            return;
        }
        // Iterate: a flow whose cap is below its equal share gets its cap;
        // the residue is re-divided among the rest. Terminates in at most n
        // rounds because each round fixes at least one flow.
        let mut fixed = vec![false; n];
        let mut remaining_cap = self.capacity;
        let mut unfixed = n;
        while unfixed > 0 {
            let share = remaining_cap / unfixed as f64;
            let mut changed = false;
            for (i, f) in self.flows.iter_mut().enumerate() {
                if !fixed[i] && f.rate_cap <= share {
                    f.rate = f.rate_cap;
                    remaining_cap -= f.rate_cap;
                    unfixed -= 1;
                    fixed[i] = true;
                    changed = true;
                }
            }
            if !changed {
                for (i, f) in self.flows.iter_mut().enumerate() {
                    if !fixed[i] {
                        f.rate = share;
                    }
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::NS_PER_SEC;

    #[test]
    fn serializer_fifo() {
        let mut s = Serializer::new();
        let (a0, a1) = s.occupy(SimTime::from_nanos(10), SimTime::from_nanos(5));
        assert_eq!((a0.as_nanos(), a1.as_nanos()), (10, 15));
        // Arrives while busy: queued behind.
        let (b0, b1) = s.occupy(SimTime::from_nanos(12), SimTime::from_nanos(5));
        assert_eq!((b0.as_nanos(), b1.as_nanos()), (15, 20));
        // Arrives after idle gap: starts immediately.
        let (c0, _) = s.occupy(SimTime::from_nanos(100), SimTime::from_nanos(1));
        assert_eq!(c0.as_nanos(), 100);
        assert_eq!(s.free_at().as_nanos(), 101);
    }

    #[test]
    fn calendar_queue_uses_all_servers() {
        let mut q = CalendarQueue::new(2);
        let svc = SimTime::from_nanos(10);
        let (_, e1) = q.request(SimTime::ZERO, svc);
        let (_, e2) = q.request(SimTime::ZERO, svc);
        let (s3, e3) = q.request(SimTime::ZERO, svc);
        // First two run in parallel; third waits for a free server.
        assert_eq!(e1.as_nanos(), 10);
        assert_eq!(e2.as_nanos(), 10);
        assert_eq!(s3.as_nanos(), 10);
        assert_eq!(e3.as_nanos(), 20);
    }

    #[test]
    fn calendar_queue_min_one_server() {
        let mut q = CalendarQueue::new(0);
        let (_, e) = q.request(SimTime::ZERO, SimTime::from_nanos(1));
        assert_eq!(e.as_nanos(), 1);
        // One server: a second request queues behind the first.
        let (s2, _) = q.request(SimTime::ZERO, SimTime::from_nanos(1));
        assert_eq!(s2.as_nanos(), 1);
    }

    #[test]
    fn fair_pipe_single_flow_full_rate() {
        let mut p = FairPipe::new(100.0); // 100 B/s
        p.start(SimTime::ZERO, 200, f64::INFINITY);
        let t = p.next_completion().unwrap();
        assert!(t.as_nanos().abs_diff(2 * NS_PER_SEC) <= 1, "{t}");
        let done = p.collect_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!(p.active(), 0);
    }

    #[test]
    fn fair_pipe_two_flows_share_equally() {
        let mut p = FairPipe::new(100.0);
        p.start(SimTime::ZERO, 100, f64::INFINITY);
        p.start(SimTime::ZERO, 100, f64::INFINITY);
        // Each gets 50 B/s -> both complete at t=2s.
        let t = p.next_completion().unwrap();
        assert!(t.as_nanos().abs_diff(2 * NS_PER_SEC) <= 1, "{t}");
        let done = p.collect_completions(t);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn fair_pipe_late_arrival_slows_first_flow() {
        let mut p = FairPipe::new(100.0);
        let a = p.start(SimTime::ZERO, 100, f64::INFINITY);
        // At t=0.5s flow a has 50 bytes left; b arrives.
        let half = SimTime::from_secs_f64(0.5);
        let b = p.start(half, 100, f64::INFINITY);
        // Both now at 50 B/s. a finishes at 0.5 + 50/50 = 1.5s.
        let t = p.next_completion().unwrap();
        assert!(t.as_nanos().abs_diff(3 * NS_PER_SEC / 2) <= 1, "{t}");
        let done = p.collect_completions(t);
        assert_eq!(done, vec![a]);
        // b: arrived 0.5, ran at 50 B/s until 1.5 (50 bytes), then 100 B/s
        // for remaining 50 bytes -> finishes at 2.0s.
        let t2 = p.next_completion().unwrap();
        assert!(t2.as_nanos().abs_diff(2 * NS_PER_SEC) <= 2, "{t2}");
        assert_eq!(p.collect_completions(t2), vec![b]);
        assert!((p.bytes_moved() - 200.0).abs() < 1e-3);
    }

    #[test]
    fn fair_pipe_respects_rate_caps() {
        let mut p = FairPipe::new(100.0);
        // Capped flow gets 10 B/s; the other gets the residual 90 B/s.
        p.start(SimTime::ZERO, 10, 10.0);
        p.start(SimTime::ZERO, 90, f64::INFINITY);
        let t = p.next_completion().unwrap();
        assert!(t.as_nanos().abs_diff(NS_PER_SEC) <= 1, "{t}");
        // Both finish at 1s (within a tick).
        assert_eq!(p.collect_completions(t).len(), 2);
    }

    #[test]
    fn fair_pipe_zero_byte_flow_completes_immediately() {
        let mut p = FairPipe::new(10.0);
        let id = p.start(SimTime::ZERO, 0, f64::INFINITY);
        let done = p.collect_completions(SimTime::ZERO);
        assert_eq!(done, vec![id]);
    }
}
