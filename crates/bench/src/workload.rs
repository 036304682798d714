//! The paper's weak-scaling workloads (§V-B).
//!
//! 3-D cylindrical waveguide runs with polynomial order N=15, so each
//! element holds (N+1)³ = 4096 grid points. The three cases are
//! (np, E, n, S) = (16Ki, 68K, 275M, 39 GB), (32Ki, 137K, 550M, 78 GB),
//! (64Ki, 273K, 1.1B, 156 GB): the checkpoint writes the six field
//! components of every grid point (plus coordinates/cell metadata, which
//! is why S exceeds 6×8 bytes per point).

use rbio::layout::DataLayout;
use rbio_nekcem::workload::{paper_compute_seconds, FIELD_NAMES};

/// One weak-scaling case of the paper.
#[derive(Debug, Clone, Copy)]
pub struct PaperCase {
    /// MPI ranks.
    pub np: u32,
    /// Spectral elements (paper notation E).
    pub(crate) elements: u64,
    /// Total grid points n = E·(N+1)³.
    pub(crate) grid_points: u64,
    /// Checkpoint bytes per I/O step (paper notation S).
    pub total_bytes: u64,
    /// Computation seconds per solver time step at this scale.
    pub compute_seconds_per_step: f64,
}

/// The paper's three cases: (16Ki, 39 GB), (32Ki, 78 GB), (64Ki, 156 GB).
pub(crate) const PAPER_CASES: [PaperCase; 3] = [
    PaperCase {
        np: 16384,
        elements: 68_000,
        grid_points: 275_000_000,
        total_bytes: 39_000_000_000,
        compute_seconds_per_step: 0.26,
    },
    PaperCase {
        np: 32768,
        elements: 137_000,
        grid_points: 550_000_000,
        total_bytes: 78_000_000_000,
        compute_seconds_per_step: 0.26,
    },
    PaperCase {
        np: 65536,
        elements: 273_000,
        grid_points: 1_100_000_000,
        total_bytes: 156_000_000_000,
        compute_seconds_per_step: 0.26,
    },
];

/// Look up the case for a rank count.
pub fn paper_case(np: u32) -> PaperCase {
    PAPER_CASES
        .iter()
        .copied()
        .find(|c| c.np == np)
        .unwrap_or_else(|| scaled_case(np))
}

/// Derive a weak-scaled case for a non-paper rank count (reduced-scale
/// smoke tests): same per-rank bytes as the paper.
pub fn scaled_case(np: u32) -> PaperCase {
    let per_rank = PAPER_CASES[0].total_bytes / u64::from(PAPER_CASES[0].np);
    PaperCase {
        np,
        elements: PAPER_CASES[0].elements * u64::from(np) / u64::from(PAPER_CASES[0].np),
        grid_points: PAPER_CASES[0].grid_points * u64::from(np) / u64::from(PAPER_CASES[0].np),
        total_bytes: per_rank * u64::from(np),
        compute_seconds_per_step: paper_compute_seconds(np),
    }
}

impl PaperCase {
    /// The checkpoint layout: NekCEM's six field components, splitting the
    /// case's bytes evenly per rank and per field.
    pub fn layout(&self) -> DataLayout {
        let per_rank = self.total_bytes / u64::from(self.np);
        let per_field = per_rank / FIELD_NAMES.len() as u64;
        let fields: Vec<(&str, u64)> = FIELD_NAMES.iter().map(|&n| (n, per_field)).collect();
        DataLayout::uniform(self.np, &fields)
    }

    /// Bytes each rank checkpoints.
    pub fn bytes_per_rank(&self) -> u64 {
        self.total_bytes / u64::from(self.np)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cases_match_table() {
        assert_eq!(paper_case(16384).total_bytes, 39_000_000_000);
        assert_eq!(paper_case(32768).total_bytes, 78_000_000_000);
        assert_eq!(paper_case(65536).total_bytes, 156_000_000_000);
        // Weak scaling: per-rank bytes constant (~2.4 MB).
        for c in PAPER_CASES {
            let per = c.bytes_per_rank();
            assert!((2_300_000..2_500_000).contains(&per), "{per}");
        }
    }

    #[test]
    fn layout_totals_match() {
        let c = paper_case(16384);
        let l = c.layout();
        assert_eq!(l.nranks(), 16384);
        assert_eq!(l.nfields(), 6);
        // Within rounding of the even split.
        let total = l.total_bytes();
        assert!(total <= c.total_bytes);
        assert!(total > c.total_bytes - u64::from(c.np) * 6);
    }

    #[test]
    fn scaled_case_preserves_per_rank_bytes() {
        let c = scaled_case(1024);
        assert_eq!(c.bytes_per_rank(), PAPER_CASES[0].bytes_per_rank());
    }
}
