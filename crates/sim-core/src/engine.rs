//! Event scheduler and simulation driver.
//!
//! The engine is deliberately minimal: a model is any type implementing
//! [`Model`], events are an opaque payload type chosen by the model, and the
//! driver pops events in `(time, sequence)` order and hands them to the
//! model together with a scheduler handle for posting follow-up events.
//! Determinism comes from the total order on `(time, sequence)` — two events
//! at the same timestamp fire in the order they were scheduled.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Pending-event priority queue, ordered by `(time, insertion sequence)`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `ev` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a model bug; it is tolerated (the event
    /// fires "now" relative to heap order) so that rounding at the f64/ns
    /// boundary cannot abort a run, but debug builds assert.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq: self.seq,
            ev,
        });
    }

    /// Schedule `ev` at `now + delay`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimTime, ev: E) {
        self.schedule(now.saturating_add(delay), ev);
    }

    /// Remove and return the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        Some((e.time, e.ev))
    }

    /// Timestamp of the earliest pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Drop all pending events and reset the sequence counter,
    /// keeping the heap allocation. Lets a driver reuse one queue across
    /// many runs (the `rbio-machine` cost-query arena) without paying a
    /// fresh heap growth per run.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

/// A simulation model: owns all mutable world state and reacts to events.
pub trait Model {
    /// The event payload type this model consumes and produces.
    type Event;

    /// Handle one event at virtual time `now`, scheduling any follow-ups on `q`.
    fn handle(&mut self, now: SimTime, ev: Self::Event, q: &mut EventQueue<Self::Event>);
}

/// Drive `model` until the event queue drains. Returns the time of the last
/// delivered event (`SimTime::ZERO` if the queue started empty).
pub fn run<M: Model>(model: &mut M, q: &mut EventQueue<M::Event>) -> SimTime {
    run_until(model, q, SimTime::MAX)
}

/// Drive `model` until the queue drains or the next event would fire after
/// `deadline`. Events exactly at `deadline` are delivered.
pub fn run_until<M: Model>(
    model: &mut M,
    q: &mut EventQueue<M::Event>,
    deadline: SimTime,
) -> SimTime {
    let mut last = SimTime::ZERO;
    while let Some(t) = q.peek_time() {
        if t > deadline {
            break;
        }
        let (now, ev) = q.pop().expect("peeked entry must pop");
        debug_assert!(now >= last, "event queue delivered out of order");
        last = now;
        model.handle(now, ev, q);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records delivery order and chains follow-up events.
    struct Recorder {
        seen: Vec<(u64, u32)>,
        chain_left: u32,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.seen.push((now.as_nanos(), ev));
            if self.chain_left > 0 {
                self.chain_left -= 1;
                q.schedule_after(now, SimTime::from_nanos(5), 100 + self.chain_left);
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let mut m = Recorder {
            seen: vec![],
            chain_left: 0,
        };
        let end = run(&mut m, &mut q);
        assert_eq!(m.seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(end.as_nanos(), 30);
        assert!(q.heap.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        let mut m = Recorder {
            seen: vec![],
            chain_left: 0,
        };
        run(&mut m, &mut q);
        let evs: Vec<u32> = m.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_fire() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0);
        let mut m = Recorder {
            seen: vec![],
            chain_left: 3,
        };
        let end = run(&mut m, &mut q);
        assert_eq!(m.seen.len(), 4);
        assert_eq!(end.as_nanos(), 15);
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut q = EventQueue::new();
        for t in [5u64, 10, 15, 20] {
            q.schedule(SimTime::from_nanos(t), t as u32);
        }
        let mut m = Recorder {
            seen: vec![],
            chain_left: 0,
        };
        let end = run_until(&mut m, &mut q, SimTime::from_nanos(15));
        assert_eq!(end.as_nanos(), 15);
        assert_eq!(m.seen.len(), 3);
        assert_eq!(q.heap.len(), 1);
    }

    #[test]
    fn empty_queue_returns_zero() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut m = Recorder {
            seen: vec![],
            chain_left: 0,
        };
        assert_eq!(run(&mut m, &mut q), SimTime::ZERO);
    }
}
