//! The virtual-time plan executor.

use std::collections::{HashMap, VecDeque};

use rbio_gpfs::FileSystemModel;
use rbio_net::TorusNet;
use rbio_plan::{Op, Program};
use rbio_profile::{OpKind, Timeline};
use rbio_sim::resources::Serializer;
use rbio_sim::{run as engine_run, transfer_time, EventQueue, Model, SimTime};

use crate::config::{MachineConfig, ProfileLevel};
use crate::metrics::RunMetrics;

/// Events driving the simulation.
enum Ev {
    /// Try to execute `rank`'s next op (its previous op just completed).
    Advance { rank: u32 },
    /// A message reached its destination node.
    Arrive { src: u32, dst: u32, tag: u64 },
    /// `rank`'s background flusher starts its next queued job. Costing
    /// happens here, at the job's true start time, so background I/O
    /// contends with foreground ops in causal order.
    FlushStart { rank: u32 },
    /// A background flush job finished (`data` = it held a staging
    /// buffer, freeing a pipeline slot).
    FlushDone { rank: u32, data: bool },
}

/// One deferred unit of writer work on the simulated background flusher
/// (mirror of the real executors' `FlushJob`, minus the payload bytes).
enum FlushReq {
    Write { file: u32, offset: u64, bytes: u64 },
    Close,
    Commit,
}

/// One unit of a dead writer's orphaned work, re-run by its successor
/// (mirror of the real executors' pull-based `run_takeover`).
enum TakeoverReq {
    /// Re-stage bytes the orphan had aggregated (its packs/receives).
    Stage { bytes: u64 },
    /// Re-run one of the orphan's file writes.
    Write { file: u32, offset: u64, bytes: u64 },
    /// A metadata round trip (reopen / close / commit-rename).
    Meta,
}

/// A pending takeover: the successor runs `work` serially once it has
/// finished its own program, no earlier than `ready`.
struct Takeover {
    successor: u32,
    ready: SimTime,
    work: Vec<TakeoverReq>,
}

struct Sim<'a> {
    program: &'a Program,
    cfg: &'a MachineConfig,
    torus: TorusNet,
    /// One ingest pipe per pset (collective network into the ION).
    ion: Vec<Serializer>,
    fs: FileSystemModel,
    pc: Vec<usize>,
    finish: Vec<SimTime>,
    /// Arrived-but-unreceived messages per (src, dst, tag) channel.
    arrived: HashMap<(u32, u32, u64), VecDeque<SimTime>>,
    /// Rank blocked in a Recv on this channel.
    waiting: HashMap<(u32, u32, u64), u32>,
    barrier_count: Vec<usize>,
    barrier_waiters: Vec<Vec<u32>>,
    timeline: Timeline,
    max_handoff: SimTime,
    bytes_sent: u64,
    done_ranks: usize,
    /// Queued background jobs per rank with their issue (ready) times
    /// (pipeline_depth >= 2 only); the head job is dispatched by
    /// `Ev::FlushStart` in FIFO order.
    flush_queue: Vec<VecDeque<(SimTime, FlushReq)>>,
    /// A `FlushStart`/`FlushDone` chain is in flight for this rank.
    flush_running: Vec<bool>,
    /// Queued + running background jobs (any kind).
    flush_outstanding: Vec<usize>,
    /// Outstanding *data* flushes only (jobs that own a staging buffer).
    /// `pipeline_depth` bounds these: metadata jobs (close/commit) ride
    /// the flusher FIFO but hold no buffer.
    flush_data_outstanding: Vec<usize>,
    /// The rank's foreground is parked (blocked on a slot, a drain point,
    /// or end-of-program) and must be re-advanced on the next FlushDone.
    flush_wake: Vec<bool>,
    /// Ranks that have fully finished (program + flushes + takeovers).
    rank_done: Vec<bool>,
    /// The injected failure already tripped.
    failed: bool,
    /// Bytes the configured victim has written so far (budget tracking).
    fail_written: u64,
    /// Orphaned work awaiting its successor, if a writer died.
    takeover: Option<Takeover>,
    /// `(dead, successor)` pairs, in death order.
    failovers: Vec<(u32, u32)>,
    /// Tier mode only: when each rank's background drain engine frees up
    /// (drains run FIFO per rank, serialized against each other).
    drain_free: Vec<SimTime>,
}

impl Sim<'_> {
    fn node(&self, rank: u32) -> rbio_topology::NodeId {
        self.cfg.partition.node_of_rank(rank)
    }

    fn record(&mut self, rank: u32, kind: OpKind, start: SimTime, end: SimTime, bytes: u64) {
        let keep = match self.cfg.profile {
            ProfileLevel::Off => false,
            ProfileLevel::Writes => {
                matches!(kind, OpKind::Write | OpKind::Send | OpKind::Overlap)
            }
            ProfileLevel::Full => true,
        };
        if keep {
            self.timeline.record(rank, kind, start, end, bytes);
        }
    }

    fn pack_time(&self, bytes: u64) -> SimTime {
        self.cfg
            .pack_overhead
            .saturating_add(transfer_time(bytes, self.cfg.mem_bw))
    }

    /// The full ION + client-stream + filesystem cost of one file write
    /// issued at `start`; returns its completion time.
    fn disk_write(
        &mut self,
        rank: u32,
        file: u32,
        offset: u64,
        bytes: u64,
        start: SimTime,
    ) -> SimTime {
        let pset = self.cfg.partition.pset_of_rank(rank).0 as usize;
        let ion_time = transfer_time(bytes, self.cfg.net.ion_pipe_bw());
        let (_, ion_occ) = self.ion[pset].occupy(start, ion_time);
        let lat = self.cfg.net.ion_latency;
        // CIOD forwards in small units (cut-through): the servers
        // see the head of the stream after ~1 MiB, and the write
        // retires when both the client stream (paced at
        // client_stream_bw) and the filesystem commit are done.
        let head = transfer_time(bytes.min(1 << 20), self.cfg.net.client_stream_bw);
        let stream_done = start.saturating_add(transfer_time(bytes, self.cfg.net.client_stream_bw));
        let fsize = self.program.files[file as usize].size;
        let fs_done = self.fs.write(
            start.saturating_add(head).saturating_add(lat),
            rank,
            file,
            offset,
            bytes,
            fsize,
        );
        fs_done.max(stream_done).max(ion_occ).saturating_add(lat)
    }

    /// Backpressure at a pipelined write: when `depth` staging buffers
    /// are still being flushed, park the rank until the next FlushDone
    /// and report "blocked".
    fn flush_slot_blocked(&mut self, rank: u32) -> bool {
        if self.flush_data_outstanding[rank as usize] >= self.cfg.pipeline_depth as usize {
            self.flush_wake[rank as usize] = true;
            true
        } else {
            false
        }
    }

    /// Drain point (barrier / read-after-write): when flushes are still
    /// in flight, park the rank until the next FlushDone and report
    /// "blocked".
    fn flush_drain_blocked(&mut self, rank: u32) -> bool {
        if self.flush_outstanding[rank as usize] > 0 {
            self.flush_wake[rank as usize] = true;
            true
        } else {
            false
        }
    }

    /// Enqueue one background job on `rank`'s flusher. Jobs run FIFO;
    /// each is costed by `Ev::FlushStart` at its true start time (never
    /// eagerly), so background I/O hits the shared filesystem and ION
    /// models in the same causal order the event loop sees.
    fn flush_enqueue(&mut self, rank: u32, ready: SimTime, req: FlushReq, q: &mut EventQueue<Ev>) {
        self.flush_outstanding[rank as usize] += 1;
        if matches!(req, FlushReq::Write { .. }) {
            self.flush_data_outstanding[rank as usize] += 1;
        }
        self.flush_queue[rank as usize].push_back((ready, req));
        if !self.flush_running[rank as usize] {
            self.flush_running[rank as usize] = true;
            q.schedule(ready, Ev::FlushStart { rank });
        }
    }

    /// Kill `rank` at `at`: collect its remaining ops (the current one
    /// included) as a takeover list for the next surviving writer, release
    /// any barriers it would have joined so live ranks cannot deadlock,
    /// and jump its pc to end-of-program. Mirrors the real runtime's
    /// fence-and-reroute: the orphan's extent is re-staged and re-written
    /// in full by the successor, starting `detection_delay` after the
    /// death. With no surviving writer the work is dropped (the
    /// generation stays torn) and no failover is recorded.
    fn kill(&mut self, rank: u32, at: SimTime, q: &mut EventQueue<Ev>) {
        self.failed = true;
        let mut work = Vec::new();
        for op in &self.program.ops[rank as usize][self.pc[rank as usize]..] {
            match op {
                Op::WriteAt { file, offset, src } => work.push(TakeoverReq::Write {
                    file: file.0,
                    offset: *offset,
                    bytes: src.len(),
                }),
                Op::Pack { bytes, .. } => work.push(TakeoverReq::Stage { bytes: *bytes }),
                Op::Recv { bytes, .. } => work.push(TakeoverReq::Stage { bytes: *bytes }),
                Op::Open { .. } | Op::Close { .. } | Op::Commit { .. } => {
                    work.push(TakeoverReq::Meta)
                }
                Op::Barrier { comm } => {
                    // The monitor fences the dead rank out of the barrier;
                    // model that as an instant arrival so live members
                    // still release.
                    let ci = comm.0 as usize;
                    let size = self.program.comms[ci].len();
                    self.barrier_count[ci] += 1;
                    if self.barrier_count[ci] == size {
                        self.barrier_count[ci] = 0;
                        let done = at.saturating_add(self.cfg.net.barrier_cost(size as u32));
                        for w in std::mem::take(&mut self.barrier_waiters[ci]) {
                            self.pc[w as usize] += 1;
                            self.record(w, OpKind::Barrier, at, done, 0);
                            q.schedule(done, Ev::Advance { rank: w });
                        }
                    }
                }
                Op::Compute { .. } | Op::Send { .. } | Op::ReadAt { .. } => {}
            }
        }
        self.pc[rank as usize] = self.program.ops[rank as usize].len();
        let writers = self.program.writer_ranks();
        let successor = writers.iter().position(|&w| w == rank).and_then(|i| {
            (1..writers.len())
                .map(|k| writers[(i + k) % writers.len()])
                .next()
        });
        let Some(successor) = successor else {
            return;
        };
        let delay = self
            .cfg
            .writer_failure
            .expect("kill without a failure")
            .detection_delay;
        let ready = at.saturating_add(delay);
        self.failovers.push((rank, successor));
        self.takeover = Some(Takeover {
            successor,
            ready,
            work,
        });
        if self.rank_done[successor as usize] {
            // The successor already retired; pull it back for the takeover.
            self.rank_done[successor as usize] = false;
            self.done_ranks -= 1;
            q.schedule(ready, Ev::Advance { rank: successor });
        }
    }

    /// Execute `rank`'s current op at `now`. Returns `Some(done)` when the
    /// op completes at `done` (pc already advanced), `None` when blocked.
    fn execute(&mut self, rank: u32, now: SimTime, q: &mut EventQueue<Ev>) -> Option<SimTime> {
        let op = &self.program.ops[rank as usize][self.pc[rank as usize]];
        let pipelined = self.cfg.pipeline_depth >= 2;
        if pipelined {
            // Mirror the real pipeline's blocking points: writes wait for
            // a free staging buffer (close/commit hold none — they ride
            // the flusher FIFO); barriers and reads drain the pipeline.
            match op {
                Op::WriteAt { .. } if self.flush_slot_blocked(rank) => {
                    return None;
                }
                Op::Barrier { .. } | Op::ReadAt { .. } if self.flush_drain_blocked(rank) => {
                    return None;
                }
                _ => {}
            }
        }
        let done = match op {
            Op::Compute { nanos } => {
                let done = now.saturating_add(SimTime::from_nanos(*nanos));
                self.record(rank, OpKind::Compute, now, done, 0);
                done
            }
            Op::Pack { bytes, .. } => {
                let done = now.saturating_add(self.pack_time(*bytes));
                self.record(rank, OpKind::Pack, now, done, *bytes);
                done
            }
            Op::Send { dst, tag, src } => {
                let bytes = src.len();
                self.bytes_sent += bytes;
                let handoff = self.cfg.net.isend_handoff(bytes);
                let done = now.saturating_add(handoff);
                self.max_handoff = self.max_handoff.max(handoff);
                let arrival = self
                    .torus
                    .send(now, self.node(rank), self.node(*dst), bytes);
                q.schedule(
                    arrival,
                    Ev::Arrive {
                        src: rank,
                        dst: *dst,
                        tag: tag.0,
                    },
                );
                self.record(rank, OpKind::Send, now, done, bytes);
                done
            }
            Op::Recv {
                src, tag, bytes, ..
            } => {
                let key = (*src, rank, tag.0);
                match self.arrived.get_mut(&key).and_then(|v| v.pop_front()) {
                    Some(_arr) => {
                        let done = now.saturating_add(self.pack_time(*bytes));
                        self.record(rank, OpKind::Recv, now, done, *bytes);
                        done
                    }
                    None => {
                        self.waiting.insert(key, rank);
                        return None;
                    }
                }
            }
            Op::Barrier { comm } => {
                let ci = comm.0 as usize;
                let size = self.program.comms[ci].len();
                self.barrier_count[ci] += 1;
                if self.barrier_count[ci] == size {
                    self.barrier_count[ci] = 0;
                    let done = now.saturating_add(self.cfg.net.barrier_cost(size as u32));
                    for w in std::mem::take(&mut self.barrier_waiters[ci]) {
                        self.pc[w as usize] += 1;
                        self.record(w, OpKind::Barrier, now, done, 0);
                        q.schedule(done, Ev::Advance { rank: w });
                    }
                    self.record(rank, OpKind::Barrier, now, done, 0);
                    done
                } else {
                    self.barrier_waiters[ci].push(rank);
                    return None;
                }
            }
            Op::Open { file, create } => {
                let lat = self.cfg.net.ion_latency;
                let meta_done = if *create {
                    // Directory = the step prefix of the file name (files
                    // of one checkpoint step share a directory).
                    let name = &self.program.files[file.0 as usize].name;
                    let prefix = name.split(['.', '/']).next().unwrap_or(name);
                    let mut dir = 0xcbf29ce484222325u64;
                    for b in prefix.bytes() {
                        dir = (dir ^ u64::from(b)).wrapping_mul(0x100000001b3);
                    }
                    self.fs.create(now.saturating_add(lat), dir)
                } else {
                    self.fs.open(now.saturating_add(lat))
                };
                let done = meta_done.saturating_add(lat);
                self.record(rank, OpKind::Open, now, done, 0);
                done
            }
            Op::WriteAt { file, offset, src } if self.cfg.tier.is_some() => {
                let tier = self.cfg.tier.expect("guard");
                let bytes = src.len();
                // Foreground: the slab append is a memory copy at the
                // local tier's bandwidth — the cost the application
                // *perceives*.
                let fg_done = now
                    .saturating_add(self.cfg.pack_overhead)
                    .saturating_add(transfer_time(bytes, tier.local_bw));
                self.record(rank, OpKind::Write, now, fg_done, bytes);
                // Background: the drain engine serializes per rank,
                // paying the burst hop (if any) and then the full PFS
                // path — the cost of the bytes becoming *durable*.
                let start = self.drain_free[rank as usize].max(fg_done);
                let burst_done = match tier.burst_bw {
                    Some(bw) => start.saturating_add(transfer_time(bytes, bw)),
                    None => start,
                };
                let pfs_done = self.disk_write(rank, file.0, *offset, bytes, burst_done);
                self.record(rank, OpKind::Overlap, start, pfs_done, bytes);
                self.drain_free[rank as usize] = pfs_done;
                fg_done
            }
            Op::WriteAt { file, offset, src } => {
                let bytes = src.len();
                if let Some(f) = self.cfg.writer_failure {
                    if f.rank == rank && !self.failed {
                        if self.fail_written.saturating_add(bytes) > f.after_bytes {
                            // Dies partway through this write: cost the
                            // partial prefix it got onto disk, then hand
                            // the whole op list from here to a successor.
                            let partial = f.after_bytes - self.fail_written;
                            let death = if partial > 0 {
                                self.disk_write(rank, file.0, *offset, partial, now)
                            } else {
                                now
                            };
                            self.record(rank, OpKind::Write, now, death, partial);
                            self.kill(rank, death, q);
                            return Some(death);
                        }
                        self.fail_written += bytes;
                    }
                }
                if pipelined {
                    // Foreground cost is the double-buffer staging copy
                    // plus the flush hand-off call; the disk path runs on
                    // the background flusher.
                    let fg_done = now
                        .saturating_add(self.pack_time(bytes))
                        .saturating_add(self.cfg.flush_call_cost);
                    self.flush_enqueue(
                        rank,
                        fg_done,
                        FlushReq::Write {
                            file: file.0,
                            offset: *offset,
                            bytes,
                        },
                        q,
                    );
                    self.record(rank, OpKind::Write, now, fg_done, bytes);
                    fg_done
                } else {
                    let done = self.disk_write(rank, file.0, *offset, bytes, now);
                    self.record(rank, OpKind::Write, now, done, bytes);
                    done
                }
            }
            Op::ReadAt {
                file, offset, len, ..
            } => {
                let lat = self.cfg.net.ion_latency;
                let fs_done = self.fs.read(now.saturating_add(lat), file.0, *offset, *len);
                let pset = self.cfg.partition.pset_of_rank(rank).0 as usize;
                let ion_time = transfer_time(*len, self.cfg.net.ion_pipe_bw());
                let (_, ion_done) = self.ion[pset].occupy(fs_done, ion_time);
                let done = ion_done.saturating_add(lat);
                self.record(rank, OpKind::Read, now, done, *len);
                done
            }
            Op::Close { .. } | Op::Commit { .. } if self.cfg.tier.is_some() => {
                // Sealing a staged file is an in-memory bookkeeping op
                // (perceived cost ~0); the durable metadata round trip
                // (reopen + publish) rides the rank's drain tail.
                let lat = self.cfg.net.ion_latency;
                let tail = self.drain_free[rank as usize].max(now);
                let opened = self.fs.open(tail.saturating_add(lat));
                self.drain_free[rank as usize] = self.fs.close(opened).saturating_add(lat);
                self.record(rank, OpKind::Commit, now, now, 0);
                now
            }
            Op::Close { .. } => {
                let lat = self.cfg.net.ion_latency;
                if pipelined {
                    // Metadata jobs ride the same submission path as the
                    // data flushes (one `WriterHandle::submit` each).
                    let fg_done = now.saturating_add(self.cfg.flush_call_cost);
                    self.flush_enqueue(rank, fg_done, FlushReq::Close, q);
                    self.record(rank, OpKind::Close, now, fg_done, 0);
                    fg_done
                } else {
                    let done = self.fs.close(now.saturating_add(lat)).saturating_add(lat);
                    self.record(rank, OpKind::Close, now, done, 0);
                    done
                }
            }
            Op::Commit { .. } => {
                // Footer write + rename: two metadata round-trips to the
                // filesystem (reopen the file, publish the new name).
                let lat = self.cfg.net.ion_latency;
                if pipelined {
                    let fg_done = now.saturating_add(self.cfg.flush_call_cost);
                    self.flush_enqueue(rank, fg_done, FlushReq::Commit, q);
                    self.record(rank, OpKind::Commit, now, fg_done, 0);
                    fg_done
                } else {
                    let opened = self.fs.open(now.saturating_add(lat));
                    let done = self.fs.close(opened).saturating_add(lat);
                    self.record(rank, OpKind::Commit, now, done, 0);
                    done
                }
            }
        };
        self.pc[rank as usize] += 1;
        Some(done)
    }
}

impl Model for Sim<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Advance { rank } => {
                if self.pc[rank as usize] >= self.program.ops[rank as usize].len() {
                    // A rank is not done until its background flusher is:
                    // park until the last FlushDone re-advances us.
                    if self.flush_outstanding[rank as usize] > 0 {
                        self.flush_wake[rank as usize] = true;
                        return;
                    }
                    if self.takeover.as_ref().is_some_and(|t| t.successor == rank) {
                        // Serial epilogue takeover (mirrors run_takeover):
                        // re-stage and re-write the orphan's extent, no
                        // earlier than the detection deadline.
                        let t = self.takeover.take().unwrap();
                        let mut cur = now.max(t.ready);
                        for req in t.work {
                            cur = match req {
                                TakeoverReq::Stage { bytes } => {
                                    let done = cur.saturating_add(self.pack_time(bytes));
                                    self.record(rank, OpKind::Pack, cur, done, bytes);
                                    done
                                }
                                TakeoverReq::Write {
                                    file,
                                    offset,
                                    bytes,
                                } => {
                                    let done = self.disk_write(rank, file, offset, bytes, cur);
                                    self.record(rank, OpKind::Write, cur, done, bytes);
                                    done
                                }
                                TakeoverReq::Meta => {
                                    let lat = self.cfg.net.ion_latency;
                                    let opened = self.fs.open(cur.saturating_add(lat));
                                    let done = self.fs.close(opened).saturating_add(lat);
                                    self.record(rank, OpKind::Commit, cur, done, 0);
                                    done
                                }
                            };
                        }
                        q.schedule(cur, Ev::Advance { rank });
                        return;
                    }
                    self.finish[rank as usize] = self.finish[rank as usize].max(now);
                    self.rank_done[rank as usize] = true;
                    self.done_ranks += 1;
                    return;
                }
                if let Some(done) = self.execute(rank, now, q) {
                    q.schedule(done, Ev::Advance { rank });
                }
            }
            Ev::FlushStart { rank } => {
                let (_, req) = self.flush_queue[rank as usize]
                    .pop_front()
                    .expect("FlushStart with an empty queue");
                let lat = self.cfg.net.ion_latency;
                let (done, bytes) = match req {
                    FlushReq::Write {
                        file,
                        offset,
                        bytes,
                    } => (self.disk_write(rank, file, offset, bytes, now), bytes),
                    FlushReq::Close => (
                        self.fs.close(now.saturating_add(lat)).saturating_add(lat),
                        0,
                    ),
                    FlushReq::Commit => {
                        let opened = self.fs.open(now.saturating_add(lat));
                        (self.fs.close(opened).saturating_add(lat), 0)
                    }
                };
                // Reaping the job's completion is part of the background
                // job's lifetime: one more call.
                let done = done.saturating_add(self.cfg.flush_call_cost);
                let data = bytes > 0;
                self.record(rank, OpKind::Overlap, now, done, bytes);
                q.schedule(done, Ev::FlushDone { rank, data });
            }
            Ev::FlushDone { rank, data } => {
                self.flush_outstanding[rank as usize] -= 1;
                if data {
                    self.flush_data_outstanding[rank as usize] -= 1;
                }
                match self.flush_queue[rank as usize].front() {
                    Some(&(ready, _)) => {
                        q.schedule(ready.max(now), Ev::FlushStart { rank });
                    }
                    None => self.flush_running[rank as usize] = false,
                }
                if std::mem::take(&mut self.flush_wake[rank as usize]) {
                    q.schedule(now, Ev::Advance { rank });
                }
            }
            Ev::Arrive { src, dst, tag } => {
                let key = (src, dst, tag);
                self.arrived.entry(key).or_default().push_back(now);
                if let Some(w) = self.waiting.remove(&key) {
                    debug_assert_eq!(w, dst);
                    // Re-attempt the blocked Recv now that data is here.
                    if let Some(done) = self.execute(w, now, q) {
                        q.schedule(done, Ev::Advance { rank: w });
                    }
                }
            }
        }
    }
}

/// Reset a recycled scratch vector to `n` copies of `val`, keeping its
/// allocation.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, val: T) {
    v.clear();
    v.resize(n, val);
}

/// Reusable per-run simulator state: the event heap, the torus link
/// calendars, and every per-rank bookkeeping vector.
///
/// [`simulate`] builds all of this from scratch on every call, which is
/// fine for one-shot figure runs but wasteful for an autotuner costing
/// hundreds of candidate configurations back to back on the same
/// partition. An arena amortizes the setup: allocations are made once and
/// recycled, only truly per-run state (the filesystem model with its
/// seeded noise, the profiling timeline) is rebuilt. Results are
/// bit-identical to [`simulate`] — the arena only recycles memory, never
/// simulation state.
pub struct SimArena {
    queue: EventQueue<Ev>,
    torus: Option<TorusNet>,
    pc: Vec<usize>,
    barrier_count: Vec<usize>,
    barrier_waiters: Vec<Vec<u32>>,
    ion: Vec<Serializer>,
    flush_queue: Vec<VecDeque<(SimTime, FlushReq)>>,
    flush_running: Vec<bool>,
    flush_outstanding: Vec<usize>,
    flush_data_outstanding: Vec<usize>,
    flush_wake: Vec<bool>,
    rank_done: Vec<bool>,
    drain_free: Vec<SimTime>,
    runs: u64,
}

impl Default for SimArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SimArena {
    /// An empty arena; the first run pays the allocations.
    pub fn new() -> Self {
        SimArena {
            queue: EventQueue::new(),
            torus: None,
            pc: Vec::new(),
            barrier_count: Vec::new(),
            barrier_waiters: Vec::new(),
            ion: Vec::new(),
            flush_queue: Vec::new(),
            flush_running: Vec::new(),
            flush_outstanding: Vec::new(),
            flush_data_outstanding: Vec::new(),
            flush_wake: Vec::new(),
            rank_done: Vec::new(),
            drain_free: Vec::new(),
            runs: 0,
        }
    }

    /// Completed simulation runs through this arena.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Simulate `program` on `cfg`, recycling this arena's allocations.
    /// Semantics are identical to [`simulate`].
    pub fn simulate(&mut self, program: &Program, cfg: &MachineConfig) -> RunMetrics {
        let nranks = program.nranks();
        assert_eq!(
            nranks,
            cfg.partition.num_ranks(),
            "program rank count must match the machine partition"
        );
        let n = nranks as usize;
        refill(&mut self.pc, n, 0);
        refill(&mut self.flush_running, n, false);
        refill(&mut self.flush_outstanding, n, 0);
        refill(&mut self.flush_data_outstanding, n, 0);
        refill(&mut self.flush_wake, n, false);
        refill(&mut self.rank_done, n, false);
        refill(&mut self.drain_free, n, SimTime::ZERO);
        refill(&mut self.barrier_count, program.comms.len(), 0);
        // Inner queues/waiter lists are drained by the end of a run, so
        // clearing keeps their capacity without carrying stale entries.
        for w in &mut self.barrier_waiters {
            w.clear();
        }
        self.barrier_waiters
            .resize_with(program.comms.len(), Vec::new);
        for q in &mut self.flush_queue {
            q.clear();
        }
        self.flush_queue.resize_with(n, VecDeque::new);
        refill(
            &mut self.ion,
            cfg.partition.num_psets() as usize,
            Serializer::new(),
        );
        let torus = match self.torus.take() {
            Some(mut t) => {
                t.reinit(cfg.partition.torus, cfg.net);
                t
            }
            None => TorusNet::new(cfg.partition.torus, cfg.net),
        };
        self.queue.clear();
        let mut sim = Sim {
            program,
            cfg,
            torus,
            ion: std::mem::take(&mut self.ion),
            fs: FileSystemModel::new(cfg.fs, program.files.len() as u32, cfg.seed),
            pc: std::mem::take(&mut self.pc),
            finish: vec![SimTime::ZERO; n],
            arrived: HashMap::new(),
            waiting: HashMap::new(),
            barrier_count: std::mem::take(&mut self.barrier_count),
            barrier_waiters: std::mem::take(&mut self.barrier_waiters),
            timeline: Timeline::new(),
            max_handoff: SimTime::ZERO,
            bytes_sent: 0,
            done_ranks: 0,
            flush_queue: std::mem::take(&mut self.flush_queue),
            flush_running: std::mem::take(&mut self.flush_running),
            flush_outstanding: std::mem::take(&mut self.flush_outstanding),
            flush_data_outstanding: std::mem::take(&mut self.flush_data_outstanding),
            flush_wake: std::mem::take(&mut self.flush_wake),
            rank_done: std::mem::take(&mut self.rank_done),
            failed: false,
            fail_written: 0,
            takeover: None,
            failovers: Vec::new(),
            drain_free: std::mem::take(&mut self.drain_free),
        };
        for rank in 0..nranks {
            self.queue.schedule(SimTime::ZERO, Ev::Advance { rank });
        }
        engine_run(&mut sim, &mut self.queue);
        assert_eq!(
            sim.done_ranks, n,
            "simulation stalled: {} of {} ranks finished (invalid program?)",
            sim.done_ranks, nranks
        );
        let stats = program.stats();
        // Durable completion: every rank's program is done AND its drain
        // engine has landed the last staged byte on the PFS. Without a tier
        // this collapses to the ordinary wall time.
        let durable_wall = sim
            .finish
            .iter()
            .zip(&sim.drain_free)
            .map(|(&f, &d)| f.max(d))
            .max()
            .unwrap_or(SimTime::ZERO);
        // Hand the scratch back for the next run.
        self.torus = Some(sim.torus);
        self.pc = sim.pc;
        self.barrier_count = sim.barrier_count;
        self.barrier_waiters = sim.barrier_waiters;
        self.ion = sim.ion;
        self.flush_queue = sim.flush_queue;
        self.flush_running = sim.flush_running;
        self.flush_outstanding = sim.flush_outstanding;
        self.flush_data_outstanding = sim.flush_data_outstanding;
        self.flush_wake = sim.flush_wake;
        self.rank_done = sim.rank_done;
        self.drain_free = sim.drain_free;
        self.runs += 1;
        RunMetrics::assemble(
            program,
            sim.finish,
            sim.timeline,
            sim.max_handoff,
            stats.bytes_written,
            sim.bytes_sent,
            sim.fs.stats(),
            sim.failovers,
            durable_wall,
        )
    }
}

/// Simulate `program` on the configured machine. The program must be valid
/// (deadlock-free, matched messages — [`rbio_plan::validate()`] guarantees
/// this for strategy plans); an invalid program panics.
///
/// Builds fresh state for a single run; callers costing many programs or
/// configurations back to back should hold a [`SimArena`] (or the
/// [`crate::CostQuery`] wrapper) and reuse it.
pub fn simulate(program: &Program, cfg: &MachineConfig) -> RunMetrics {
    SimArena::new().simulate(program, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbio_plan::{CommId, DataRef, FileId, ProgramBuilder, Tag};
    use rbio_topology::PartitionSpec;

    fn machine(ranks: u32) -> MachineConfig {
        // ranks must be 8*k for this helper: 2 ranks/node, [k,2,2] nodes.
        let nodes = ranks / 2;
        assert!(nodes.is_multiple_of(4));
        MachineConfig::small(PartitionSpec::custom([nodes / 4, 2, 2], 2, 4)).quiet()
    }

    #[test]
    fn compute_only_program_times_exactly() {
        let cfg = machine(8);
        let mut b = ProgramBuilder::new(vec![0; 8]);
        for r in 0..8 {
            b.push(
                r,
                Op::Compute {
                    nanos: 1000 * (r as u64 + 1),
                },
            );
        }
        let m = simulate(&b.build(), &cfg);
        assert_eq!(m.wall.as_nanos(), 8000);
        assert_eq!(m.per_rank_finish[0].as_nanos(), 1000);
        assert_eq!(m.per_rank_finish[7].as_nanos(), 8000);
    }

    #[test]
    fn message_blocks_receiver_until_arrival() {
        let cfg = machine(8);
        let mut b = ProgramBuilder::new(vec![1 << 20, 0, 0, 0, 0, 0, 0, 0]);
        b.reserve_staging(7, 1 << 20);
        b.push(0, Op::Compute { nanos: 5_000_000 }); // sender is late
        b.push(
            0,
            Op::Send {
                dst: 7,
                tag: Tag(1),
                src: DataRef::Own {
                    off: 0,
                    len: 1 << 20,
                },
            },
        );
        b.push(
            7,
            Op::Recv {
                src: 0,
                tag: Tag(1),
                bytes: 1 << 20,
                staging_off: 0,
            },
        );
        let m = simulate(&b.build(), &cfg);
        // Receiver cannot finish before the sender's compute + transfer.
        assert!(m.per_rank_finish[7].as_nanos() > 5_000_000);
        assert_eq!(m.bytes_sent, 1 << 20);
    }

    #[test]
    fn early_sender_does_not_block() {
        let cfg = machine(8);
        let mut b = ProgramBuilder::new(vec![1024; 8]);
        b.reserve_staging(1, 1024);
        b.push(
            0,
            Op::Send {
                dst: 1,
                tag: Tag(0),
                src: DataRef::Own { off: 0, len: 1024 },
            },
        );
        b.push(1, Op::Compute { nanos: 50_000_000 });
        b.push(
            1,
            Op::Recv {
                src: 0,
                tag: Tag(0),
                bytes: 1024,
                staging_off: 0,
            },
        );
        let m = simulate(&b.build(), &cfg);
        // Sender finished long ago (handoff only).
        assert!(m.per_rank_finish[0] < SimTime::from_millis(1));
        // Receiver: compute dominates; message already arrived.
        let r1 = m.per_rank_finish[1];
        assert!(
            r1 >= SimTime::from_millis(50) && r1 < SimTime::from_millis(51),
            "{r1}"
        );
    }

    #[test]
    fn barrier_synchronizes_all_members() {
        let cfg = machine(8);
        let mut b = ProgramBuilder::new(vec![0; 8]);
        let c = b.comm((0..8).collect());
        for r in 0..8u32 {
            b.push(
                r,
                Op::Compute {
                    nanos: 1_000 * u64::from(r),
                },
            );
            b.push(r, Op::Barrier { comm: CommId(c.0) });
            b.push(r, Op::Compute { nanos: 10 });
        }
        let m = simulate(&b.build(), &cfg);
        // All ranks finish within one barrier+compute of each other.
        let lo = m.per_rank_finish.iter().min().unwrap();
        let hi = m.per_rank_finish.iter().max().unwrap();
        assert_eq!(lo, hi, "barrier must align completions");
        assert!(hi.as_nanos() >= 7_000 + 10);
    }

    #[test]
    fn file_io_program_produces_write_metrics() {
        let cfg = machine(8);
        let mut b = ProgramBuilder::new(vec![4 << 20; 8]);
        let f: Vec<FileId> = (0..8).map(|r| b.file(format!("f{r}"), 4 << 20)).collect();
        for r in 0..8u32 {
            b.push(
                r,
                Op::Open {
                    file: f[r as usize],
                    create: true,
                },
            );
            b.push(
                r,
                Op::WriteAt {
                    file: f[r as usize],
                    offset: 0,
                    src: DataRef::Own {
                        off: 0,
                        len: 4 << 20,
                    },
                },
            );
            b.push(
                r,
                Op::Close {
                    file: f[r as usize],
                },
            );
        }
        let m = simulate(&b.build(), &cfg);
        assert_eq!(m.bytes_written, 8 * (4 << 20));
        assert!(m.bandwidth_bps() > 0.0);
        assert!(m.wall > SimTime::ZERO);
        assert_eq!(m.fs_stats.creates, 8);
        assert_eq!(m.fs_stats.closes, 8);
        // Timeline captured the writes.
        assert_eq!(m.timeline.count_of(rbio_profile::OpKind::Write), 8);
    }

    #[test]
    fn same_pset_writers_share_the_ion_pipe() {
        // 8 ranks, 2 per node, 4 nodes per pset => one pset in [2,2,1].
        // Two writers in one pset serialize on the ION; two writers in
        // different psets do not.
        let mut one_pset = MachineConfig::small(PartitionSpec::custom([2, 2, 1], 2, 4)).quiet();
        let mut two_psets = MachineConfig::small(PartitionSpec::custom([2, 2, 1], 2, 2)).quiet();
        // Lift the per-client cap so the shared ION pipe is the binding
        // constraint under test.
        one_pset.net.client_stream_bw = 10.0e9;
        two_psets.net.client_stream_bw = 10.0e9;
        let bytes = 256u64 << 20; // big enough that the pipe dominates
        let build = || {
            let mut b = ProgramBuilder::new(vec![bytes, 0, 0, 0, bytes, 0, 0, 0]);
            let f0 = b.file("a", bytes);
            let f1 = b.file("b", bytes);
            for (r, f) in [(0u32, f0), (4u32, f1)] {
                b.push(
                    r,
                    Op::Open {
                        file: f,
                        create: true,
                    },
                );
                b.push(
                    r,
                    Op::WriteAt {
                        file: f,
                        offset: 0,
                        src: DataRef::Own { off: 0, len: bytes },
                    },
                );
                b.push(r, Op::Close { file: f });
            }
            b.build()
        };
        let shared = simulate(&build(), &one_pset);
        let split = simulate(&build(), &two_psets);
        assert!(
            shared.wall > split.wall,
            "one pset {:?} must be slower than two psets {:?}",
            shared.wall,
            split.wall
        );
    }

    #[test]
    fn client_stream_cap_limits_a_single_writer() {
        let mut cfg = machine(8);
        cfg.net.client_stream_bw = 10.0e6; // 10 MB/s
        let bytes = 100u64 << 20; // 100 MB -> at least 10 s
        let mut b = ProgramBuilder::new(vec![bytes, 0, 0, 0, 0, 0, 0, 0]);
        let f = b.file("slow", bytes);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: bytes },
            },
        );
        b.push(0, Op::Close { file: f });
        let m = simulate(&b.build(), &cfg);
        let min_secs = bytes as f64 / 10.0e6;
        assert!(
            m.wall.as_secs_f64() >= min_secs,
            "wall {:.2}s must respect the {min_secs:.2}s client cap",
            m.wall.as_secs_f64()
        );
    }

    #[test]
    fn many_to_one_senders_contend_on_the_torus() {
        // All ranks ship data to rank 0: arrival of the last message must
        // reflect link serialization near the destination node.
        let cfg = machine(16);
        let bytes = 8u64 << 20;
        let mut b = ProgramBuilder::new(vec![bytes; 16]);
        b.reserve_staging(0, bytes);
        for r in 1..16u32 {
            b.push(
                r,
                Op::Send {
                    dst: 0,
                    tag: Tag(0),
                    src: DataRef::Own { off: 0, len: bytes },
                },
            );
        }
        for _ in 1..16u32 {
            // Order-agnostic receive: match senders in rank order (each
            // channel holds exactly one message).
        }
        for r in 1..16u32 {
            b.push(
                0,
                Op::Recv {
                    src: r,
                    tag: Tag(0),
                    bytes,
                    staging_off: 0,
                },
            );
        }
        let m = simulate(&b.build(), &cfg);
        // 15 x 8 MB over at most 6 inbound links of 425 MB/s: >= 47 ms even
        // with perfect spreading.
        let floor = (15.0 * bytes as f64) / (6.0 * 425.0e6);
        assert!(
            m.per_rank_finish[0].as_secs_f64() > floor * 0.8,
            "rank 0 finished too fast: {:.3}s < {:.3}s",
            m.per_rank_finish[0].as_secs_f64(),
            floor
        );
    }

    #[test]
    #[should_panic(expected = "rank count")]
    fn wrong_partition_panics() {
        let cfg = machine(8);
        let b = ProgramBuilder::new(vec![0; 4]);
        simulate(&b.build(), &cfg);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = MachineConfig::small(PartitionSpec::custom([2, 2, 1], 2, 4));
        let build = || {
            let mut b = ProgramBuilder::new(vec![1 << 16; 8]);
            let f = b.file("x", 8 << 16);
            b.reserve_staging(0, 8 << 16);
            for r in 1..8u32 {
                b.push(
                    r,
                    Op::Send {
                        dst: 0,
                        tag: Tag(0),
                        src: DataRef::Own {
                            off: 0,
                            len: 1 << 16,
                        },
                    },
                );
            }
            for r in 1..8u32 {
                b.push(
                    0,
                    Op::Recv {
                        src: r,
                        tag: Tag(0),
                        bytes: 1 << 16,
                        staging_off: (u64::from(r)) << 16,
                    },
                );
            }
            b.push(
                0,
                Op::Open {
                    file: f,
                    create: true,
                },
            );
            b.push(
                0,
                Op::WriteAt {
                    file: f,
                    offset: 0,
                    src: DataRef::Staging {
                        off: 0,
                        len: 7 << 16,
                    },
                },
            );
            b.push(0, Op::Close { file: f });
            b.build()
        };
        let m1 = simulate(&build(), &cfg);
        let m2 = simulate(&build(), &cfg);
        assert_eq!(m1.wall, m2.wall);
        assert_eq!(m1.per_rank_finish, m2.per_rank_finish);
    }

    /// One writer alternating aggregation (`Pack`) and `WriteAt` over many
    /// fields. Serially each period costs pack + disk; pipelined, the disk
    /// flush of field k overlaps the aggregation of field k+1.
    fn pack_write_program(nfields: u64, bytes: u64) -> Program {
        let mut b = ProgramBuilder::new(vec![0; 8]);
        let f = b.file("ckpt", nfields * bytes);
        b.reserve_staging(0, bytes);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        for k in 0..nfields {
            b.push(
                0,
                Op::Pack {
                    src: None,
                    staging_off: 0,
                    bytes,
                },
            );
            b.push(
                0,
                Op::WriteAt {
                    file: f,
                    offset: k * bytes,
                    src: DataRef::Synthetic { len: bytes },
                },
            );
        }
        b.push(0, Op::Close { file: f });
        b.build()
    }

    #[test]
    fn pipelined_writer_overlaps_aggregation_with_flush() {
        // Disk period ~2x the aggregation period: the pipelined writer
        // should approach max(pack + copy, disk) = disk per field, i.e.
        // about 1.5x over serial pack + disk.
        let mut cfg = machine(8);
        cfg.mem_bw = 1.0e9;
        cfg.net.client_stream_bw = 0.5e9;
        let prog = pack_write_program(16, 8 << 20);
        let serial = simulate(&prog, &cfg);
        let piped = simulate(&prog, &cfg.clone().pipeline_depth(2));
        let ratio = serial.wall.as_secs_f64() / piped.wall.as_secs_f64();
        assert!(
            ratio >= 1.3,
            "depth 2 must be >= 1.3x faster: serial {:?}, piped {:?} (ratio {ratio:.2})",
            serial.wall,
            piped.wall
        );
        // Background flushes are visible to the profiler: one Overlap
        // interval per write plus one for the deferred close.
        assert_eq!(piped.timeline.count_of(OpKind::Overlap), 17);
        assert_eq!(serial.timeline.count_of(OpKind::Overlap), 0);
    }

    #[test]
    fn flush_call_cost_shifts_pipelined_wall() {
        // Many small writes make the per-job call cost visible: each job
        // pays it at hand-off and again at reap, so the wall grows with
        // it. The zero default is the identity — existing calibrations
        // must not move — and the serial path never pays it.
        let cfg = machine(8).quiet().pipeline_depth(2);
        let prog = pack_write_program(64, 64 << 10);
        let with_cost = |us| {
            let mut c = cfg.clone();
            c.flush_call_cost = SimTime::from_micros(us);
            c
        };
        let free = simulate(&prog, &cfg);
        let again = simulate(&prog, &with_cost(0));
        assert_eq!(free.wall, again.wall, "zero is the default cost");
        let cheap = simulate(&prog, &with_cost(1));
        let dear = simulate(&prog, &with_cost(4));
        assert!(
            free.wall < cheap.wall && cheap.wall < dear.wall,
            "per-job calls must order the walls: 0 µs {:?} < 1 µs {:?} < 4 µs {:?}",
            free.wall,
            cheap.wall,
            dear.wall
        );
        let serial = machine(8).quiet();
        let mut serial_dear = serial.clone();
        serial_dear.flush_call_cost = SimTime::from_micros(4);
        assert_eq!(
            simulate(&prog, &serial).wall,
            simulate(&prog, &serial_dear).wall,
            "depth 1 has no flush calls"
        );
    }

    #[test]
    fn pipelined_rank_finish_includes_background_flushes() {
        // A single write has nothing to overlap with: the rank cannot
        // finish before its background flush lands, so depth 2 must not
        // report a faster wall than serial.
        let cfg = machine(8);
        let prog = pack_write_program(1, 32 << 20);
        let serial = simulate(&prog, &cfg);
        let piped = simulate(&prog, &cfg.clone().pipeline_depth(2));
        assert!(
            piped.wall.as_secs_f64() >= serial.wall.as_secs_f64() * 0.99,
            "no-overlap program must not speed up: serial {:?}, piped {:?}",
            serial.wall,
            piped.wall
        );
        assert_eq!(piped.bytes_written, serial.bytes_written);
    }

    /// Two independent writers (ranks 0 and 4), one file each.
    fn two_writer_program(bytes0: u64, bytes4: u64) -> Program {
        let mut b = ProgramBuilder::new(vec![bytes0, 0, 0, 0, bytes4, 0, 0, 0]);
        let f0 = b.file("a", bytes0);
        let f1 = b.file("b", bytes4);
        for (r, f, len) in [(0u32, f0, bytes0), (4u32, f1, bytes4)] {
            b.push(
                r,
                Op::Open {
                    file: f,
                    create: true,
                },
            );
            b.push(
                r,
                Op::WriteAt {
                    file: f,
                    offset: 0,
                    src: DataRef::Own { off: 0, len },
                },
            );
            b.push(r, Op::Close { file: f });
        }
        b.build()
    }

    #[test]
    fn killed_writer_extent_is_costed_onto_the_successor() {
        let cfg = machine(8);
        let prog = two_writer_program(32 << 20, 32 << 20);
        let healthy = simulate(&prog, &cfg);
        assert!(healthy.failovers.is_empty());
        let m = simulate(
            &prog,
            &cfg.clone()
                .writer_failure(0, 1 << 20, SimTime::from_millis(10)),
        );
        assert_eq!(m.failovers, vec![(0, 4)]);
        // The dead writer retires early (it only got 1 MiB out); the
        // successor pays for both extents, so it finishes later than on
        // the healthy run and the wall time grows.
        assert!(m.per_rank_finish[0] < healthy.per_rank_finish[0]);
        assert!(m.per_rank_finish[4] > healthy.per_rank_finish[4]);
        assert!(m.wall > healthy.wall);
        // The takeover re-writes the orphan's full 32 MiB extent.
        let rewritten: u64 = m
            .timeline
            .intervals()
            .iter()
            .filter(|iv| iv.rank == 4 && iv.kind == OpKind::Write)
            .map(|iv| iv.bytes)
            .sum();
        assert_eq!(rewritten, 64 << 20);
    }

    #[test]
    fn takeover_waits_out_the_detection_delay() {
        // The successor's own work is tiny, so the takeover start is
        // dominated by death + detection_delay: a 500 ms deadline must
        // show up nearly in full against a 10 ms one.
        let cfg = machine(8);
        let prog = two_writer_program(32 << 20, 1 << 10);
        let fast = simulate(
            &prog,
            &cfg.clone()
                .writer_failure(0, 1 << 20, SimTime::from_millis(10)),
        );
        let slow = simulate(
            &prog,
            &cfg.clone()
                .writer_failure(0, 1 << 20, SimTime::from_millis(500)),
        );
        assert_eq!(fast.failovers, vec![(0, 4)]);
        assert_eq!(slow.failovers, vec![(0, 4)]);
        assert!(
            slow.wall >= fast.wall.saturating_add(SimTime::from_millis(400)),
            "500ms deadline must defer the takeover: fast {:?}, slow {:?}",
            fast.wall,
            slow.wall
        );
    }

    #[test]
    fn sole_writer_failure_drops_the_extent_without_failover() {
        // With no surviving writer there is nobody to take over: the run
        // still completes (no stall) and records no failover.
        let cfg = machine(8);
        let bytes = 8u64 << 20;
        let mut b = ProgramBuilder::new(vec![bytes, 0, 0, 0, 0, 0, 0, 0]);
        let f = b.file("only", bytes);
        b.push(
            0,
            Op::Open {
                file: f,
                create: true,
            },
        );
        b.push(
            0,
            Op::WriteAt {
                file: f,
                offset: 0,
                src: DataRef::Own { off: 0, len: bytes },
            },
        );
        b.push(0, Op::Close { file: f });
        let m = simulate(
            &b.build(),
            &cfg.writer_failure(0, 1 << 20, SimTime::from_millis(10)),
        );
        assert!(m.failovers.is_empty());
        assert!(m.wall > SimTime::ZERO);
    }

    #[test]
    fn tier_splits_perceived_from_durable() {
        use crate::config::TierModel;
        // Writer-bound regime: slab copies and staging at 6 GB/s, PFS
        // client stream capped at 0.3 GB/s — the drain tail dominates
        // durability while the foreground barely notices the writes.
        let mut cfg = machine(8);
        cfg.mem_bw = 6.0e9;
        cfg.net.client_stream_bw = 0.3e9;
        let prog = pack_write_program(16, 8 << 20);
        let direct = simulate(&prog, &cfg);
        assert_eq!(
            direct.durable_wall, direct.wall,
            "no tier: durable == perceived"
        );
        let tiered = simulate(&prog, &cfg.clone().tier(TierModel::local_only(6.0e9)));
        assert_eq!(tiered.bytes_written, direct.bytes_written);
        // Perceived completion is far earlier than direct-to-PFS…
        assert!(
            tiered.wall.as_secs_f64() * 5.0 <= direct.wall.as_secs_f64(),
            "local tier must be >= 5x faster perceived: tiered {:?}, direct {:?}",
            tiered.wall,
            direct.wall
        );
        // …but durability still pays the full PFS path.
        assert!(tiered.durable_wall > tiered.wall);
        assert!(tiered.perceived_over_durable() >= 5.0);
        assert!(tiered.durable_bandwidth_bps() < tiered.bandwidth_bps());
    }

    #[test]
    fn burst_hop_defers_durability_but_not_perception() {
        use crate::config::TierModel;
        let mut cfg = machine(8);
        cfg.net.client_stream_bw = 0.5e9;
        let prog = pack_write_program(8, 8 << 20);
        let local = simulate(&prog, &cfg.clone().tier(TierModel::local_only(6.0e9)));
        let burst = simulate(
            &prog,
            &cfg.clone()
                .tier(TierModel::local_only(6.0e9).with_burst(1.0e9)),
        );
        // The burst hop is invisible to the application…
        assert_eq!(local.wall, burst.wall);
        // …but adds a per-byte cost on the path to durability.
        assert!(burst.durable_wall > local.durable_wall);
    }

    #[test]
    fn pipelined_depth_bounds_outstanding_flushes_deterministically() {
        let cfg = machine(8).pipeline_depth(4);
        let prog = pack_write_program(12, 4 << 20);
        let m1 = simulate(&prog, &cfg);
        let m2 = simulate(&prog, &cfg);
        assert_eq!(m1.wall, m2.wall);
        assert_eq!(m1.per_rank_finish, m2.per_rank_finish);
        // Deeper pipelines never lose to shallower ones on this program.
        let d2 = simulate(&prog, &cfg.clone().pipeline_depth(2));
        assert!(m1.wall <= d2.wall);
    }
}
