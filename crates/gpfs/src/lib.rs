//! Parallel filesystem model (GPFS-like, with a lock-free PVFS profile).
//!
//! Reproduces the filesystem *mechanisms* the paper's results hinge on:
//!
//! * a **metadata service** whose directory-insert cost grows with the
//!   number of entries already in the directory — the 1PFPP storm of Fig. 9
//!   ("request to create, write, and close 16,384 small files
//!   simultaneously");
//! * a **distributed byte-range lock manager** with GPFS-style optimistic
//!   whole-remainder grants and token revocation on conflict — the `nf=1`
//!   shared-file overhead, and the reason block-aligned file domains help
//!   (§V-B);
//! * **NSD servers and DDN arrays**: file blocks stripe round-robin over
//!   servers (8 servers per array on Intrepid), each write pays a per-server
//!   RPC overhead and occupies its array's bandwidth;
//! * seeded **noise**: lognormal service jitter plus rare slow outliers —
//!   the "normal user load" that produces Fig. 10's stragglers.
//!
//! The model is calendar-based: every call happens at a virtual `now`
//! (calls must be made in nondecreasing time order, which the event loop
//! guarantees) and returns the completion time deterministically.

#![forbid(unsafe_code)]

pub(crate) mod stripe;
pub mod tokens;

use rbio_sim::resources::{CalendarQueue, Serializer};
use rbio_sim::rng::SimRng;
use rbio_sim::{transfer_time, SimTime};

use stripe::{stripe_chunks_shifted, stripe_shift};
use tokens::FileTokens;

/// Which filesystem personality to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsProfile {
    /// GPFS: byte-range locking, block-granular tokens.
    Gpfs,
    /// PVFS: no locking (the paper's intended comparison target, §V-C1).
    Pvfs,
    /// Lustre: per-file striping over a few OSTs with per-object extent
    /// locks — the paper's §VII future-work target ("how rbIO performs on
    /// platforms such as the Cray XT with other file systems such as
    /// Lustre"). Shared-file writes from many clients ping-pong the
    /// per-object locks (the Dickens & Logan observation, ref. 8);
    /// file-per-writer streams are clean.
    Lustre,
}

/// Filesystem model parameters (Intrepid-like defaults).
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    /// Personality.
    pub profile: FsProfile,
    /// Filesystem block size (GPFS on Intrepid: 4 MiB).
    pub block_size: u64,
    /// Number of NSD file servers (Intrepid: 128).
    pub nsd_servers: u32,
    /// Number of DDN storage arrays (Intrepid: 16; 8 servers each).
    pub ddn_arrays: u32,
    /// Sustained write bandwidth per DDN array, bytes/s. 16 × 2.3 GB/s
    /// ≈ 37 GB/s aggregate, between the 47 GB/s theoretical peak and the
    /// ~13–16 GB/s the application realizes after overheads.
    pub array_write_bw: f64,
    /// Sustained read bandwidth per DDN array, bytes/s (reads peak higher:
    /// 60 vs 47 GB/s on Intrepid).
    pub array_read_bw: f64,
    /// Per-request server-side overhead (RPC handling, journaling).
    pub server_overhead: SimTime,
    /// Per-write-call client/forwarding overhead (syscall shipping through
    /// CIOD, GPFS client processing) — why committing many small buffers
    /// is slower than streaming a few large ones (the rbIO nf=ng buffering
    /// win, §V-B).
    pub write_call_overhead: SimTime,
    /// Parallel metadata service width (token/metadata manager threads).
    pub metadata_servers: u32,
    /// Base service time of a file create.
    pub create_base: SimTime,
    /// Directory-contention scale: creating the i-th entry of a directory
    /// costs an extra `create_dir_scale * i^1.2` seconds. Superlinear
    /// because GPFS directory-block token convoys worsen as the directory
    /// grows under concurrent inserts — the term that wrecks 1PFPP at
    /// 16Ki+ files in one directory (≈315 s to drain, Fig. 9) while
    /// leaving ~1Ki files nearly free (Fig. 8's optimum).
    pub create_dir_scale: f64,
    /// Service time of opening an existing file.
    pub open_existing: SimTime,
    /// Service time of a close (metadata update / final flush ack).
    pub close_base: SimTime,
    /// One token acquisition/revocation RPC.
    pub lock_rpc: SimTime,
    /// Probability that a *contended* token negotiation hits a congested
    /// token/lock manager and stalls for seconds ("noise and/or other
    /// factors under normal user load" — the Fig. 10 stragglers).
    pub lock_stall_prob: f64,
    /// Maximum stall duration when it happens (uniform in [0.5, 1.0]× this).
    pub lock_stall_max: SimTime,
    /// Convoy concurrency knee: stalls only occur once more than this many
    /// distinct clients are negotiating byte-range tokens. coIO's default
    /// 32:1 aggregator ratio doubles the filesystem access concurrency of
    /// rbIO's 64:1 grouping ("the file system access concurrency is only
    /// 50% of the concurrency in the coIO case", §V-C1); at 64Ki ranks
    /// coIO crosses the knee and collects stragglers while rbIO does not.
    pub lock_convoy_threshold: u32,
    /// Exogenous "normal user load" interference: rate (events per
    /// array-busy-second) at which a DDN array is grabbed by another job's
    /// burst. Each event occupies the array for seconds, delaying every
    /// queued request behind it — the §V-B caveat that "the file systems
    /// are shared between Intrepid, Eureka … and noise from other online
    /// users", and the source of Fig. 10's stragglers.
    pub array_noise_rate: f64,
    /// Maximum duration of one interference burst (uniform in
    /// [0.4, 1.0]× this).
    pub array_noise_max: SimTime,
    /// Lustre: OSTs a file stripes over (`lfs setstripe -c`; default 4).
    pub lustre_stripe_count: u32,
    /// Lustre: cost of bouncing a per-object extent lock between clients.
    pub lustre_lock_switch: SimTime,
    /// Lognormal σ applied multiplicatively to service times.
    pub noise_sigma: f64,
    /// Probability a server request hits a transient stall ("normal user
    /// load" interference).
    pub outlier_prob: f64,
    /// Stall multiplier when it happens.
    pub outlier_factor: f64,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            profile: FsProfile::Gpfs,
            block_size: 4 << 20,
            nsd_servers: 128,
            ddn_arrays: 16,
            array_write_bw: 1.1e9,
            array_read_bw: 2.2e9,
            server_overhead: SimTime::from_micros(300),
            write_call_overhead: SimTime::from_micros(800),
            metadata_servers: 4,
            create_base: SimTime::from_millis(2),
            create_dir_scale: 1.48e-6,
            open_existing: SimTime::from_micros(400),
            close_base: SimTime::from_micros(300),
            lock_rpc: SimTime::from_micros(700),
            lock_stall_prob: 1.5e-4,
            lock_stall_max: SimTime::from_secs_f64(16.0),
            lock_convoy_threshold: 1200,
            array_noise_rate: 0.008,
            array_noise_max: SimTime::from_secs_f64(2.5),
            lustre_stripe_count: 4,
            lustre_lock_switch: SimTime::from_millis(1),
            noise_sigma: 0.15,
            outlier_prob: 0.0008,
            outlier_factor: 6.0,
        }
    }
}

/// Aggregate filesystem statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStats {
    /// File creates served.
    pub creates: u64,
    /// Opens of existing files.
    pub(crate) opens: u64,
    /// Closes.
    pub closes: u64,
    /// Write requests (after striping).
    pub(crate) write_chunks: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Lock RPCs (acquisitions + revocations).
    pub lock_rpcs: u64,
    /// Seconds-scale token-manager stalls encountered.
    pub lock_stalls: u64,
    /// Exogenous array interference bursts injected.
    pub interference_bursts: u64,
    /// Blocks fetched for read-modify-write of unaligned writes.
    pub rmw_blocks: u64,
    /// Requests that hit the outlier stall.
    pub(crate) outliers: u64,
}

/// The filesystem model.
#[derive(Debug, Clone)]
pub struct FileSystemModel {
    cfg: FsConfig,
    meta: CalendarQueue,
    /// Entries per directory key. One checkpoint step's files share a
    /// directory (the paper's 1PFPP pathological case: 16Ki creates in one
    /// directory); separate steps use separate directories, as production
    /// runs do.
    dir_entries: std::collections::HashMap<u64, u64>,
    /// Per-file lock state, indexed by plan file id.
    tokens: Vec<FileTokens>,
    /// Per-file token-manager serialization point.
    token_mgr: Vec<Serializer>,
    servers: Vec<Serializer>,
    arrays: Vec<Serializer>,
    /// Distinct clients seen negotiating tokens (convoy-knee tracking).
    lock_clients: std::collections::HashSet<u32>,
    /// Lustre: last client to write each (file, server/OST) object.
    ost_last_writer: std::collections::HashMap<(u32, u32), u32>,
    /// End of the active convoy episode per file's token manager.
    convoy_until: Vec<SimTime>,
    rng: SimRng,
    stats: FsStats,
}

impl FileSystemModel {
    /// A filesystem with `nfiles` known files (plan file ids `0..nfiles`).
    pub fn new(cfg: FsConfig, nfiles: u32, seed: u64) -> Self {
        FileSystemModel {
            meta: CalendarQueue::new(cfg.metadata_servers as usize),
            dir_entries: std::collections::HashMap::new(),
            tokens: (0..nfiles).map(|_| FileTokens::new()).collect(),
            token_mgr: vec![Serializer::new(); nfiles as usize],
            servers: vec![Serializer::new(); cfg.nsd_servers as usize],
            arrays: vec![Serializer::new(); cfg.ddn_arrays as usize],
            lock_clients: std::collections::HashSet::new(),
            ost_last_writer: std::collections::HashMap::new(),
            convoy_until: vec![SimTime::ZERO; nfiles as usize],
            rng: SimRng::new(seed ^ 0xF5),
            stats: FsStats::default(),
            cfg,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    fn jitter(&mut self) -> f64 {
        self.rng.lognormal_jitter(self.cfg.noise_sigma)
    }

    /// With probability `rate × busy_seconds`, another job's burst grabs
    /// the array before our transfer, occupying it for seconds.
    fn maybe_array_interference(&mut self, array: u32, xfer: SimTime) {
        let p = self.cfg.array_noise_rate * xfer.as_secs_f64();
        if p > 0.0 && self.rng.chance(p) {
            self.stats.interference_bursts += 1;
            let frac = self.rng.uniform_range(0.4, 1.0);
            let burst = SimTime::from_secs_f64(self.cfg.array_noise_max.as_secs_f64() * frac);
            let free = self.arrays[array as usize].free_at();
            self.arrays[array as usize].occupy(free, burst);
        }
    }

    fn maybe_outlier(&mut self) -> f64 {
        if self.rng.chance(self.cfg.outlier_prob) {
            self.stats.outliers += 1;
            self.cfg.outlier_factor
        } else {
            1.0
        }
    }

    /// Create a file in directory `dir` (an opaque key — the machine hashes
    /// the checkpoint-step prefix); the request arrives at the metadata
    /// service at `now`. Returns the completion time.
    pub fn create(&mut self, now: SimTime, dir: u64) -> SimTime {
        self.stats.creates += 1;
        let slot = self.dir_entries.entry(dir).or_insert(0);
        let entries = *slot;
        *slot += 1;
        let svc = self.cfg.create_base.as_secs_f64()
            + self.cfg.create_dir_scale * (entries as f64).powf(1.2);
        let svc = SimTime::from_secs_f64(svc * self.jitter());
        let (_, done) = self.meta.request(now, svc);
        done
    }

    /// Open an existing file.
    pub fn open(&mut self, now: SimTime) -> SimTime {
        self.stats.opens += 1;
        let svc = SimTime::from_secs_f64(self.cfg.open_existing.as_secs_f64() * self.jitter());
        let (_, done) = self.meta.request(now, svc);
        done
    }

    /// Close a file. Unlike create/open, close is mostly client-local
    /// (flush own cache, send an async metadata update), so it does not
    /// queue through the metadata service — otherwise every 1PFPP rank
    /// would be forced to wait out the whole create storm before closing,
    /// flattening the Fig. 9 spread the paper observed.
    pub fn close(&mut self, now: SimTime) -> SimTime {
        self.stats.closes += 1;
        let svc = SimTime::from_secs_f64(self.cfg.close_base.as_secs_f64() * self.jitter());
        now.saturating_add(svc)
    }

    /// Write `len` bytes at `offset` of `file` on behalf of `client`; the
    /// request reaches the filesystem at `now`. `file_size` bounds the
    /// optimistic token grant. Returns the completion (commit) time.
    pub fn write(
        &mut self,
        now: SimTime,
        client: u32,
        file: u32,
        offset: u64,
        len: u64,
        file_size: u64,
    ) -> SimTime {
        if len == 0 {
            return now;
        }
        self.stats.bytes_written += len;
        let mut t0 = now.saturating_add(SimTime::from_secs_f64(
            self.cfg.write_call_overhead.as_secs_f64() * self.jitter(),
        ));

        // Phase 0 (GPFS only): read-modify-write of partially written
        // blocks. A write that does not start/end on a block boundary must
        // fetch the affected block(s) first — the data-path half of why
        // aligned file domains matter (§V-B, [25]).
        if self.cfg.profile == FsProfile::Gpfs {
            let b = self.cfg.block_size;
            let mut rmw_blocks = 0u64;
            // Head block partially overwritten.
            if !offset.is_multiple_of(b) {
                rmw_blocks += 1;
            }
            // Tail block partially overwritten (distinct from the head
            // block, and not a pure append at end-of-file).
            if !(offset + len).is_multiple_of(b)
                && (offset + len) < file_size
                && offset % b + len > b
            {
                rmw_blocks += 1;
            }
            if rmw_blocks > 0 {
                self.stats.rmw_blocks += rmw_blocks;
                let fetch = SimTime::from_secs_f64(
                    (self.cfg.server_overhead.as_secs_f64() + b as f64 / self.cfg.array_read_bw)
                        * rmw_blocks as f64
                        * self.jitter(),
                );
                t0 = t0.saturating_add(fetch);
            }
        }

        // Phase 1 (GPFS only): byte-range token. Lock granularity is the
        // filesystem block, so unaligned writes contend with neighbours.
        let mut t = t0;
        if self.cfg.profile == FsProfile::Gpfs {
            let b = self.cfg.block_size;
            let lock_lo = offset / b * b;
            let lock_hi = (offset + len).div_ceil(b) * b;
            let ft = &mut self.tokens[file as usize];
            let acq = ft.acquire(
                client,
                lock_lo..lock_hi.min(file_size.max(lock_hi)),
                file_size,
            );
            if acq.rpcs > 0 {
                self.lock_clients.insert(client);
                self.stats.lock_rpcs += acq.rpcs;
                let svc = SimTime::from_nanos(
                    (self.cfg.lock_rpc.as_nanos() as f64 * acq.rpcs as f64 * self.jitter()) as u64,
                );
                let (_, done) = self.token_mgr[file as usize].occupy(t, svc);
                t = done;
                // Under "normal user load", once enough distinct clients
                // are negotiating byte-range tokens (the convoy knee), a
                // *contended* negotiation occasionally kicks off a convoy
                // EPISODE on that file's token manager: for its duration,
                // every contended negotiation on the same file waits for
                // the convoy to clear. Uncontended first acquisitions
                // (rpcs == 1 — single-writer files, like rbIO's nf=ng)
                // never participate, which is exactly why Fig. 11's
                // writers stay flat while Fig. 10's coIO aggregators
                // straggle — and why a convoy on one split-collective
                // group's file stalls that group only (the Fig. 10
                // outliers), while nf=1 funnels everyone through the one
                // afflicted manager.
                if acq.rpcs > 1 && self.lock_clients.len() as u32 > self.cfg.lock_convoy_threshold {
                    let until = &mut self.convoy_until[file as usize];
                    if t >= *until && self.rng.chance(self.cfg.lock_stall_prob) {
                        self.stats.lock_stalls += 1;
                        let frac = self.rng.uniform_range(0.5, 1.0);
                        *until = t.saturating_add(SimTime::from_secs_f64(
                            self.cfg.lock_stall_max.as_secs_f64() * frac,
                        ));
                    }
                    if t < *until {
                        t = *until;
                    }
                }
            }
        }

        // Phase 2: striped data path — per-chunk server RPC + array budget.
        // GPFS/PVFS stripe every file over all servers (with a per-file
        // rotation so small files spread out); Lustre stripes each file
        // over only `lustre_stripe_count` OSTs.
        let shift = stripe_shift(file, self.cfg.nsd_servers);
        let effective_servers = if self.cfg.profile == FsProfile::Lustre {
            self.cfg.lustre_stripe_count.min(self.cfg.nsd_servers)
        } else {
            self.cfg.nsd_servers
        };
        let mut finish = t;
        for mut chunk in
            stripe_chunks_shifted(offset, len, self.cfg.block_size, effective_servers, 0)
        {
            chunk.server = (chunk.server + shift) % self.cfg.nsd_servers;
            self.stats.write_chunks += 1;
            let noise = self.jitter() * self.maybe_outlier();
            let mut overhead =
                SimTime::from_secs_f64(self.cfg.server_overhead.as_secs_f64() * noise);
            // Lustre extent locks are per (file, OST object): when writers
            // alternate on an object, the lock bounces with a server round
            // trip and cache flush each time.
            if self.cfg.profile == FsProfile::Lustre {
                let key = (file, chunk.server);
                let prev = self.ost_last_writer.insert(key, client);
                if prev.is_some_and(|p| p != client) {
                    self.stats.lock_rpcs += 1;
                    overhead = overhead.saturating_add(SimTime::from_secs_f64(
                        self.cfg.lustre_lock_switch.as_secs_f64() * self.jitter(),
                    ));
                }
            }
            let (_, srv_done) = self.servers[chunk.server as usize].occupy(t, overhead);
            let array = (chunk.server / (self.cfg.nsd_servers / self.cfg.ddn_arrays).max(1))
                .min(self.cfg.ddn_arrays - 1);
            let xfer = SimTime::from_secs_f64(
                transfer_time(chunk.len, self.cfg.array_write_bw).as_secs_f64() * noise,
            );
            self.maybe_array_interference(array, xfer);
            let (_, arr_done) = self.arrays[array as usize].occupy(srv_done, xfer);
            finish = finish.max(arr_done);
        }
        finish
    }

    /// Read `len` bytes at `offset` of `file`; returns completion time.
    /// Reads use shared tokens — no lock traffic.
    pub fn read(&mut self, now: SimTime, file: u32, offset: u64, len: u64) -> SimTime {
        if len == 0 {
            return now;
        }
        self.stats.bytes_read += len;
        let shift = stripe_shift(file, self.cfg.nsd_servers);
        let mut finish = now;
        for chunk in stripe_chunks_shifted(
            offset,
            len,
            self.cfg.block_size,
            self.cfg.nsd_servers,
            shift,
        ) {
            let noise = self.jitter() * self.maybe_outlier();
            let overhead = SimTime::from_secs_f64(self.cfg.server_overhead.as_secs_f64() * noise);
            let (_, srv_done) = self.servers[chunk.server as usize].occupy(now, overhead);
            let array = (chunk.server / (self.cfg.nsd_servers / self.cfg.ddn_arrays).max(1))
                .min(self.cfg.ddn_arrays - 1);
            let xfer = SimTime::from_secs_f64(
                transfer_time(chunk.len, self.cfg.array_read_bw).as_secs_f64() * noise,
            );
            self.maybe_array_interference(array, xfer);
            let (_, arr_done) = self.arrays[array as usize].occupy(srv_done, xfer);
            finish = finish.max(arr_done);
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_profile(profile: FsProfile) -> FsConfig {
        FsConfig {
            profile,
            ..FsConfig::default()
        }
    }

    fn quiet(cfg: &mut FsConfig) {
        cfg.noise_sigma = 0.0;
        cfg.outlier_prob = 0.0;
    }

    #[test]
    fn create_cost_grows_with_directory_size() {
        let mut cfg = FsConfig::default();
        quiet(&mut cfg);
        cfg.metadata_servers = 1;
        let mut fs = FileSystemModel::new(cfg, 4, 1);
        let d1 = fs.create(SimTime::ZERO, 0);
        let base = cfg.create_base.as_nanos();
        assert_eq!(d1.as_nanos(), base);
        // A thousand entries later, creates cost measurably more...
        for _ in 0..1000 {
            fs.create(SimTime::ZERO, 0);
        }
        let before = fs.create(SimTime::ZERO, 0);
        let later = fs.create(SimTime::ZERO, 0) - before;
        let expect_extra = (cfg.create_dir_scale * 1000f64.powf(1.2) * 1e9) as u64;
        assert!(later.as_nanos() > base + expect_extra / 2, "{later:?}");
        // ...and the growth is superlinear: 16x the entries cost more
        // than 16x the increment (i^1.2: 16^1.2 ≈ 28x).
        for _ in 0..15_000 {
            fs.create(SimTime::ZERO, 0);
        }
        let before = fs.create(SimTime::ZERO, 0);
        let later16 = fs.create(SimTime::ZERO, 0) - before;
        assert!(
            later16.as_nanos() - base > 20 * (later.as_nanos() - base),
            "1k: {later:?}, 16k: {later16:?}"
        );
    }

    #[test]
    fn metadata_storm_spreads_finish_times() {
        // 1024 simultaneous creates: finish times should spread out over a
        // long interval (the Fig. 9 effect at reduced scale).
        let mut cfg = FsConfig::default();
        quiet(&mut cfg);
        let mut fs = FileSystemModel::new(cfg, 1024, 7);
        let times: Vec<SimTime> = (0..1024).map(|_| fs.create(SimTime::ZERO, 0)).collect();
        let first = times.iter().min().unwrap().as_secs_f64();
        let last = times.iter().max().unwrap().as_secs_f64();
        assert!(last / first > 100.0, "spread {first}..{last}");
        assert_eq!(fs.stats().creates, 1024);
    }

    #[test]
    fn disjoint_aligned_writers_pay_one_lock_rpc_each() {
        let mut cfg = FsConfig::default();
        quiet(&mut cfg);
        let b = cfg.block_size;
        let mut fs = FileSystemModel::new(cfg, 1, 1);
        let size = 64 * b;
        // Client 0 writes the first block: first acquisition, 1 RPC.
        fs.write(SimTime::ZERO, 0, 0, 0, b, size);
        let rpcs0 = fs.stats().lock_rpcs;
        assert_eq!(rpcs0, 1);
        // Client 1 writes a later block: revoke part of client 0's
        // optimistic whole-remainder token (1 acquire + 1 revoke).
        fs.write(SimTime::ZERO, 1, 0, 8 * b, b, size);
        assert_eq!(fs.stats().lock_rpcs, rpcs0 + 2);
        // Client 0 writes again inside its retained range: free.
        let before = fs.stats().lock_rpcs;
        fs.write(SimTime::ZERO, 0, 0, b, b, size);
        assert_eq!(fs.stats().lock_rpcs, before);
    }

    #[test]
    fn unaligned_writers_false_share_blocks() {
        let mut cfg = FsConfig::default();
        quiet(&mut cfg);
        let b = cfg.block_size;
        let mut fs_aligned = FileSystemModel::new(cfg, 1, 1);
        let mut fs_unaligned = FileSystemModel::new(cfg, 1, 1);
        let size = 64 * b;
        // Aligned: client 0 streams inside [0,b), client 1 inside [b,2b) —
        // disjoint blocks, so after the initial grants every round is free.
        for round in 0..8u64 {
            fs_aligned.write(SimTime::ZERO, 0, 0, round * 128, 128, size);
            fs_aligned.write(SimTime::ZERO, 1, 0, b + round * 128, 128, size);
        }
        // Unaligned: both clients' ranges live in block 0 — the block-
        // granular token ping-pongs on every round.
        for round in 0..8u64 {
            fs_unaligned.write(SimTime::ZERO, 0, 0, round * 128, 128, size);
            fs_unaligned.write(SimTime::ZERO, 1, 0, b / 2 + round * 128, 128, size);
        }
        assert!(
            fs_unaligned.stats().lock_rpcs > fs_aligned.stats().lock_rpcs,
            "unaligned {} vs aligned {}",
            fs_unaligned.stats().lock_rpcs,
            fs_aligned.stats().lock_rpcs
        );
    }

    #[test]
    fn pvfs_profile_never_locks() {
        let mut cfg = with_profile(FsProfile::Pvfs);
        quiet(&mut cfg);
        let mut fs = FileSystemModel::new(cfg, 1, 1);
        for i in 0..8u32 {
            fs.write(SimTime::ZERO, i, 0, u64::from(i) * 1000, 1000, 1 << 30);
        }
        assert_eq!(fs.stats().lock_rpcs, 0);
    }

    #[test]
    fn array_bandwidth_bounds_throughput() {
        let mut cfg = FsConfig::default();
        quiet(&mut cfg);
        cfg.profile = FsProfile::Pvfs; // isolate the data path
        let mut fs = FileSystemModel::new(cfg, 1, 1);
        // Write 1 GiB spread over everything.
        let total: u64 = 1 << 30;
        let done = fs.write(SimTime::ZERO, 0, 0, 0, total, total);
        let secs = done.as_secs_f64();
        let agg_bw = cfg.array_write_bw * cfg.ddn_arrays as f64;
        // Must take at least total/aggregate-bandwidth...
        assert!(secs >= total as f64 / agg_bw * 0.9, "{secs}");
        // ...and not be absurdly slower (within 5x including overheads).
        assert!(secs <= total as f64 / agg_bw * 5.0, "{secs}");
        assert_eq!(fs.stats().bytes_written, total);
    }

    #[test]
    fn outliers_are_rare_but_present() {
        let cfg = FsConfig {
            outlier_prob: 0.05,
            ..FsConfig::default()
        };
        let mut fs = FileSystemModel::new(cfg, 1, 99);
        for i in 0..2000u64 {
            fs.write(SimTime::from_micros(i), 0, 0, i * 4096, 4096, 1 << 40);
        }
        let o = fs.stats().outliers;
        assert!(o > 20 && o < 400, "outliers {o}");
    }

    #[test]
    fn reads_touch_no_locks_and_respect_read_bw() {
        let mut cfg = FsConfig::default();
        quiet(&mut cfg);
        let mut fs = FileSystemModel::new(cfg, 1, 1);
        let done = fs.read(SimTime::ZERO, 0, 0, 1 << 26);
        assert!(done > SimTime::ZERO);
        assert_eq!(fs.stats().lock_rpcs, 0);
        assert_eq!(fs.stats().bytes_read, 1 << 26);
    }

    #[test]
    fn lustre_stripes_narrow_and_bounces_object_locks() {
        let mut cfg = with_profile(FsProfile::Lustre);
        quiet(&mut cfg);
        let mut fs = FileSystemModel::new(cfg, 1, 1);
        // One client streaming: no lock traffic.
        for i in 0..8u64 {
            fs.write(
                SimTime::ZERO,
                0,
                0,
                i * cfg.block_size,
                cfg.block_size,
                1 << 30,
            );
        }
        assert_eq!(fs.stats().lock_rpcs, 0);
        // A second client touching the same objects bounces extent locks.
        fs.write(SimTime::ZERO, 1, 0, 0, 4 * cfg.block_size, 1 << 30);
        assert!(fs.stats().lock_rpcs >= 4, "{}", fs.stats().lock_rpcs);
        // And the first client coming back bounces them again.
        let before = fs.stats().lock_rpcs;
        fs.write(SimTime::ZERO, 0, 0, 0, 4 * cfg.block_size, 1 << 30);
        assert!(fs.stats().lock_rpcs > before);
    }

    #[test]
    fn lustre_uses_only_stripe_count_servers_per_file() {
        let mut cfg = with_profile(FsProfile::Lustre);
        quiet(&mut cfg);
        cfg.lustre_stripe_count = 2;
        let mut fs = FileSystemModel::new(cfg, 1, 1);
        // 16 blocks over 2 OSTs: makespan ~ 8 blocks per OST serialized,
        // roughly 4x slower than GPFS striping the same data over many
        // servers' arrays... compare against a GPFS run of the same shape.
        let bytes = 16 * cfg.block_size;
        let t_lustre = fs.write(SimTime::ZERO, 0, 0, 0, bytes, bytes);
        let mut gcfg = FsConfig::default();
        quiet(&mut gcfg);
        let mut gfs = FileSystemModel::new(gcfg, 1, 1);
        let t_gpfs = gfs.write(SimTime::ZERO, 0, 0, 0, bytes, bytes);
        // Two OSTs can land on the same DDN array: the narrow stripe is
        // measurably slower than GPFS's full-width striping.
        assert!(
            t_lustre.as_secs_f64() > 1.5 * t_gpfs.as_secs_f64(),
            "lustre {:?} vs gpfs {:?}",
            t_lustre,
            t_gpfs
        );
    }

    #[test]
    fn zero_length_io_is_free() {
        let mut fs = FileSystemModel::new(FsConfig::default(), 1, 1);
        let t = SimTime::from_millis(5);
        assert_eq!(fs.write(t, 0, 0, 0, 0, 100), t);
        assert_eq!(fs.read(t, 0, 0, 0), t);
    }
}
