//! Analytic lower bounds on simulated checkpoint cost.
//!
//! The branch-and-bound pruner needs cheap, *admissible* bounds: a
//! bound must never exceed the true simulated cost, or the solver would
//! prune the optimum. Three physical floors from the GPFS model are
//! combined (each validated against full simulations — see the tests):
//!
//! * **flat disk floor** — all bytes must cross the DDN arrays:
//!   `total / (ddn_arrays · array_write_bw)`.
//! * **per-writer stream cap** — each concurrent stream is capped at
//!   the client's ION-bound stream bandwidth, so with `s` streams no
//!   byte schedule beats `(total / s) / client_stream_bw`.
//! * **create storm** — file creation serializes on the metadata
//!   servers with a superlinearly growing per-entry directory cost:
//!   `(n · create_base + create_dir_scale · n^2.2 / 2.2) / mds`
//!   (the integral of the per-entry cost `scale · i^1.2`).
//!
//! The stream term falls with file count while the create term grows,
//! which is exactly the Fig. 8 valley — and what makes the pair usable
//! as an *interval* bound: over `nf ∈ [lo, hi]` the cost is at least
//! `max(flat, stream(hi), create(lo))`.
//!
//! With a staging tier the write path lands in node-local memory, so
//! the flat and stream floors do not constrain *perceived* cost; only
//! the create storm survives (creates still hit the metadata servers
//! synchronously). For *durable* cost the flat floor returns (drained
//! bytes still cross the arrays) but the stream cap — a client-side
//! limit — does not.
//!
//! All bounds are scaled by a 0.98 safety factor so that model noise
//! (lock stalls, array noise) can never make an otherwise-true bound
//! inadmissible by a hair.

use crate::space::{Candidate, StrategyKind};
use rbio_machine::MachineConfig;

/// coIO's fixed compute-node-to-aggregator fan-in (see
/// `Strategy::coio`): np/32 aggregators stream concurrently.
const COIO_AGGREGATOR_RATIO: f64 = 32.0;

/// Safety margin applied to every bound (see module docs).
const SAFETY: f64 = 0.98;

/// Analytic cost floors for one (machine, workload, objective) triple.
#[derive(Debug, Clone, Copy)]
pub struct BoundModel {
    total_bytes: f64,
    np: f64,
    /// Aggregate DDN array write bandwidth (bytes/s).
    disk_bw: f64,
    /// Per-client concurrent stream bandwidth (bytes/s).
    stream_bw: f64,
    create_base: f64,
    create_dir_scale: f64,
    metadata_servers: f64,
    has_tier: bool,
    durable: bool,
}

impl BoundModel {
    /// Build the floors from the machine model under test. `durable`
    /// selects the durable-completion objective (tier drain included).
    pub(crate) fn new(cfg: &MachineConfig, np: u32, total_bytes: u64, durable: bool) -> Self {
        BoundModel {
            total_bytes: total_bytes as f64,
            np: np as f64,
            disk_bw: cfg.fs.ddn_arrays as f64 * cfg.fs.array_write_bw,
            stream_bw: cfg.net.client_stream_bw,
            create_base: cfg.fs.create_base.as_secs_f64(),
            create_dir_scale: cfg.fs.create_dir_scale,
            metadata_servers: cfg.fs.metadata_servers as f64,
            has_tier: cfg.tier.is_some(),
            durable,
        }
    }

    fn flat_floor(&self) -> f64 {
        self.total_bytes / self.disk_bw
    }

    fn stream_floor(&self, streams: f64) -> f64 {
        (self.total_bytes / streams.max(1.0)) / self.stream_bw
    }

    fn create_floor(&self, files: f64) -> f64 {
        let n = files.max(1.0);
        (n * self.create_base + self.create_dir_scale * n.powf(2.2) / 2.2) / self.metadata_servers
    }

    /// Number of concurrent writer streams a strategy opens for a given
    /// file count.
    fn streams(&self, strategy: StrategyKind, nf: f64) -> f64 {
        match strategy {
            StrategyKind::OnePfpp => self.np,
            StrategyKind::CoIo => (self.np / COIO_AGGREGATOR_RATIO).max(1.0),
            StrategyKind::RbIo => nf,
        }
    }

    /// Number of files a strategy creates for a given nf knob value.
    fn files(&self, strategy: StrategyKind, nf: f64) -> f64 {
        match strategy {
            StrategyKind::OnePfpp => self.np,
            StrategyKind::CoIo | StrategyKind::RbIo => nf,
        }
    }

    /// Lower bound on the cost of *any* candidate with this strategy
    /// and `nf ∈ [nf_lo, nf_hi]`. Admissible because the stream floor
    /// is non-increasing and the create floor non-decreasing in nf.
    pub fn interval_bound(&self, strategy: StrategyKind, nf_lo: u32, nf_hi: u32) -> f64 {
        let create = self.create_floor(self.files(strategy, nf_lo as f64));
        let bound = if self.has_tier && !self.durable {
            // Perceived time with a tier: bytes land in local memory,
            // only the create storm constrains.
            create
        } else if self.has_tier {
            // Durable with a tier: drained bytes cross the arrays, but
            // the client-side stream cap no longer applies.
            self.flat_floor().max(create)
        } else {
            let stream = self.stream_floor(self.streams(strategy, nf_hi as f64));
            self.flat_floor().max(stream).max(create)
        };
        bound * SAFETY
    }

    /// Lower bound for a single candidate.
    pub(crate) fn point_bound(&self, c: &Candidate) -> f64 {
        self.interval_bound(c.strategy, c.nf, c.nf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(np: u32, total: u64, tier: bool, durable: bool) -> BoundModel {
        let mut cfg = MachineConfig::intrepid(np);
        if tier {
            cfg.tier = Some(rbio_machine::TierModel::local_only(3.0e9).with_burst(1.5e9));
        }
        BoundModel::new(&cfg, np, total, durable)
    }

    #[test]
    fn stream_floor_decreases_and_create_floor_increases_in_nf() {
        let m = model(16384, 39 << 30, false, false);
        let lo = m.interval_bound(StrategyKind::RbIo, 64, 64);
        let hi = m.interval_bound(StrategyKind::RbIo, 8192, 8192);
        let mid = m.interval_bound(StrategyKind::RbIo, 1024, 1024);
        // Both extremes must be bounded above the valley floor.
        assert!(lo > mid, "low-nf stream wall: {lo} vs {mid}");
        assert!(hi > mid, "high-nf create wall: {hi} vs {mid}");
    }

    #[test]
    fn interval_bound_is_admissible_for_members() {
        let m = model(16384, 39 << 30, false, false);
        // The interval bound can never exceed any member's point bound.
        for &(lo, hi) in &[(64u32, 8192u32), (256, 1024), (1024, 1024)] {
            let ib = m.interval_bound(StrategyKind::RbIo, lo, hi);
            let mut nf = lo;
            while nf <= hi {
                let pb = m.interval_bound(StrategyKind::RbIo, nf, nf);
                assert!(
                    ib <= pb + 1e-12,
                    "interval [{lo},{hi}] bound {ib} exceeds member nf={nf} bound {pb}"
                );
                nf *= 2;
            }
        }
    }

    /// Empirical anchor points from full simulations (np=16384, 39 GB,
    /// rbIO, seed 0x1BEB): the bound must sit below the observed cost
    /// at every measured nf.
    #[test]
    fn bounds_sit_below_observed_simulation_costs() {
        let m = model(16384, 39_028_519_526, false, false);
        let observed = [
            (64u32, 16.541),
            (128, 8.370),
            (256, 3.762),
            (512, 2.491),
            (1024, 2.465),
            (2048, 4.932),
            (4096, 17.517),
            (8192, 74.118),
        ];
        for &(nf, obs) in &observed {
            let b = m.interval_bound(StrategyKind::RbIo, nf, nf);
            assert!(b <= obs, "bound {b} exceeds observed {obs} at nf={nf}");
        }
    }

    #[test]
    fn tier_perceived_keeps_only_create_floor() {
        let np = 16384;
        let total = 39_028_519_526;
        let plain = model(np, total, false, false);
        let tier = model(np, total, true, false);
        // At low nf the plain model is stream-walled; the tier model
        // must not be (bytes land locally).
        let plain_lo = plain.interval_bound(StrategyKind::RbIo, 64, 64);
        let tier_lo = tier.interval_bound(StrategyKind::RbIo, 64, 64);
        assert!(tier_lo < plain_lo / 10.0, "{tier_lo} vs {plain_lo}");
        // At high nf both are create-walled identically.
        let plain_hi = plain.interval_bound(StrategyKind::RbIo, 8192, 8192);
        let tier_hi = tier.interval_bound(StrategyKind::RbIo, 8192, 8192);
        assert!((plain_hi - tier_hi).abs() < 1e-9);
    }

    #[test]
    fn tier_durable_restores_flat_floor() {
        let np = 16384;
        let total = 39_028_519_526u64;
        let perceived = model(np, total, true, false);
        let durable = model(np, total, true, true);
        let p = perceived.interval_bound(StrategyKind::RbIo, 256, 256);
        let d = durable.interval_bound(StrategyKind::RbIo, 256, 256);
        assert!(d >= p);
        // Durable floor includes the full-bytes disk crossing.
        let flat = total as f64 / (16.0 * 2.3e9) * SAFETY;
        assert!(d >= flat * 0.999, "{d} vs flat {flat}");
    }
}
