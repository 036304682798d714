//! 3-D waveguide mode fields — the production workload NekCEM checkpoints.
//!
//! The paper's runs simulate a 3-D cylindrical waveguide; here we carry the
//! analytically-known TE₁₀ mode of a rectangular waveguide (an exact
//! solution of the Maxwell curl equations in normalized units), sampled on
//! tensor-product GLL grids over a mesh of hexahedral elements distributed
//! across ranks. Checkpoint payloads built from this state are *real*
//! solver data: deterministic, time-dependent, and restart-checkable, with
//! the same six-component field layout (§III-A) as the production code.

use crate::gll::gll_points;
use rbio::layout::{DataLayout, FieldSizes, FieldSpec};

use crate::workload::FIELD_NAMES;

/// A rectangular waveguide `[0,a]×[0,b]×[0,len]` meshed into
/// `ex×ey×ez` hex elements of order `n`, distributed over `nranks` ranks.
#[derive(Debug, Clone)]
pub struct Waveguide {
    a: f64,
    b: f64,
    len: f64,
    elems: [u32; 3],
    order: usize,
    nranks: u32,
    gll: Vec<f64>,
    /// Propagation constant β of the TE₁₀ mode.
    beta: f64,
    /// Angular frequency ω (ω² = β² + (π/a)²).
    omega: f64,
}

impl Waveguide {
    /// A waveguide with `elems = [ex, ey, ez]` elements of order `order`,
    /// distributed over `nranks` ranks. `beta` sets the axial wavenumber.
    pub fn new(elems: [u32; 3], order: usize, nranks: u32, beta: f64) -> Self {
        let a = 1.0;
        assert!(nranks >= 1);
        assert!(elems.iter().all(|&e| e >= 1));
        let omega = (beta * beta + (std::f64::consts::PI / a).powi(2)).sqrt();
        Waveguide {
            a,
            b: 0.5,
            len: 4.0,
            elems,
            order,
            nranks,
            gll: gll_points(order.max(1)),
            beta,
            omega,
        }
    }

    /// Total hex elements.
    pub fn num_elements(&self) -> u64 {
        u64::from(self.elems[0]) * u64::from(self.elems[1]) * u64::from(self.elems[2])
    }

    /// Grid points per element, `(N+1)³`.
    pub fn points_per_element(&self) -> u64 {
        let np = self.order as u64 + 1;
        np * np * np
    }

    /// Elements owned by `rank` (balanced contiguous split, like NekCEM's
    /// `genmap` output).
    pub(crate) fn elements_of_rank(&self, rank: u32) -> std::ops::Range<u64> {
        let e = self.num_elements();
        let np = u64::from(self.nranks);
        let r = u64::from(rank);
        let base = e / np;
        let rem = e % np;
        let start = r * base + r.min(rem);
        let len = base + u64::from(r < rem);
        start..start + len
    }

    /// Bytes of one field on `rank` (f64 per grid point).
    pub(crate) fn field_bytes(&self, rank: u32) -> u64 {
        let r = self.elements_of_rank(rank);
        (r.end - r.start) * self.points_per_element() * 8
    }

    /// The checkpoint layout for this distribution: six field components,
    /// per-rank sizes from the element split.
    pub fn layout(&self) -> DataLayout {
        let sizes: Vec<u64> = (0..self.nranks).map(|r| self.field_bytes(r)).collect();
        let fields = FIELD_NAMES
            .iter()
            .map(|&name| FieldSpec {
                name: name.to_string(),
                sizes: FieldSizes::PerRank(sizes.clone()),
            })
            .collect();
        DataLayout::new(self.nranks, fields)
    }

    /// Physical coordinate of node `(i,j,k)` of element `el`.
    fn node_coord(&self, el: u64, i: usize, j: usize, k: usize) -> (f64, f64, f64) {
        let [ex, ey, _] = self.elems;
        let exi = (el % u64::from(ex)) as f64;
        let eyi = ((el / u64::from(ex)) % u64::from(ey)) as f64;
        let ezi = (el / (u64::from(ex) * u64::from(ey))) as f64;
        let hx = self.a / f64::from(self.elems[0]);
        let hy = self.b / f64::from(self.elems[1]);
        let hz = self.len / f64::from(self.elems[2]);
        (
            (exi + (self.gll[i] + 1.0) * 0.5) * hx,
            (eyi + (self.gll[j] + 1.0) * 0.5) * hy,
            (ezi + (self.gll[k] + 1.0) * 0.5) * hz,
        )
    }

    /// TE₁₀ field component `field` (0..6 = Ex,Ey,Ez,Hx,Hy,Hz) at `(x,_,z)`
    /// and time `t` — an exact Maxwell solution in normalized units.
    pub(crate) fn mode_value(&self, field: usize, x: f64, _y: f64, z: f64, t: f64) -> f64 {
        let kx = std::f64::consts::PI / self.a;
        let phase = self.omega * t - self.beta * z;
        match field {
            1 => (kx * x).sin() * phase.sin(), // Ey
            3 => -(self.beta / self.omega) * (kx * x).sin() * phase.sin(), // Hx
            5 => (kx / self.omega) * (kx * x).cos() * phase.cos(), // Hz
            _ => 0.0,                          // Ex, Ez, Hy
        }
    }

    /// Fill `out` with `rank`'s samples of field `field` at time `t`, as
    /// little-endian f64s. `out.len()` must equal
    /// `Waveguide::field_bytes` for the rank.
    pub fn fill_field(&self, rank: u32, field: usize, t: f64, out: &mut [u8]) {
        assert_eq!(out.len() as u64, self.field_bytes(rank), "buffer size");
        let np = self.order + 1;
        let mut pos = 0;
        for el in self.elements_of_rank(rank) {
            for k in 0..np {
                for j in 0..np {
                    for i in 0..np {
                        let (x, y, z) = self.node_coord(el, i, j, k);
                        let v = self.mode_value(field, x, y, z, t);
                        out[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
                        pos += 8;
                    }
                }
            }
        }
        debug_assert_eq!(pos, out.len());
    }

    /// Verify the divergence-free/curl consistency of the mode at a point
    /// by finite differences: returns the max residual of the two curl
    /// equations at `(x,y,z,t)`. Used by tests; small values certify the
    /// analytic fields really solve Maxwell.
    pub fn maxwell_residual(&self, x: f64, y: f64, z: f64, t: f64) -> f64 {
        let eps = 1e-6;
        let f = |fi: usize, x: f64, y: f64, z: f64, t: f64| self.mode_value(fi, x, y, z, t);
        // ∂Ey/∂t = ∂Hx/∂z − ∂Hz/∂x  (y-component of curl H)
        let dey_dt = (f(1, x, y, z, t + eps) - f(1, x, y, z, t - eps)) / (2.0 * eps);
        let dhx_dz = (f(3, x, y, z + eps, t) - f(3, x, y, z - eps, t)) / (2.0 * eps);
        let dhz_dx = (f(5, x + eps, y, z, t) - f(5, x - eps, y, z, t)) / (2.0 * eps);
        let r1 = dey_dt - (dhx_dz - dhz_dx);
        // ∂Hx/∂t = ∂Ey/∂z (x-component of −curl E with Ex=Ez=0)
        let dhx_dt = (f(3, x, y, z, t + eps) - f(3, x, y, z, t - eps)) / (2.0 * eps);
        let dey_dz = (f(1, x, y, z + eps, t) - f(1, x, y, z - eps, t)) / (2.0 * eps);
        let r2 = dhx_dt - dey_dz;
        // ∂Hz/∂t = −∂Ey/∂x (z-component of −curl E)
        let dhz_dt = (f(5, x, y, z, t + eps) - f(5, x, y, z, t - eps)) / (2.0 * eps);
        let dey_dx = (f(1, x + eps, y, z, t) - f(1, x - eps, y, z, t)) / (2.0 * eps);
        let r3 = dhz_dt + dey_dx;
        r1.abs().max(r2.abs()).max(r3.abs())
    }
}

impl Waveguide {
    /// Build a ParaView-ready [`rbio::vtk::VtkGrid`] of the whole mesh:
    /// GLL points of every element, `N³` sub-hexes per element, and the
    /// six field components supplied by `field_values(rank, field)` —
    /// typically [`rbio::restart::RestoredData::field_data`] decoded with
    /// [`rbio::vtk::decode_f64_field`], closing the paper's
    /// checkpoint-to-visualization loop (§III-B).
    pub fn vtk_grid(
        &self,
        mut field_values: impl FnMut(u32, usize) -> Vec<f64>,
    ) -> rbio::vtk::VtkGrid {
        let np = self.order + 1;
        let ppe = self.points_per_element() as usize;
        let total_points = (self.num_elements() as usize) * ppe;
        let mut grid = rbio::vtk::VtkGrid {
            points: Vec::with_capacity(total_points),
            hexes: Vec::with_capacity(self.num_elements() as usize * (np - 1).pow(3)),
            fields: FIELD_NAMES
                .iter()
                .map(|&n| (n.to_string(), Vec::with_capacity(total_points)))
                .collect(),
        };
        // Points and connectivity, element-major in rank order — matching
        // the checkpoint's field-block layout exactly.
        for rank in 0..self.nranks {
            for el in self.elements_of_rank(rank) {
                let base = grid.points.len() as u32;
                for k in 0..np {
                    for j in 0..np {
                        for i in 0..np {
                            let (x, y, z) = self.node_coord(el, i, j, k);
                            grid.points.push([x, y, z]);
                        }
                    }
                }
                let id =
                    |i: usize, j: usize, k: usize| -> u32 { base + (i + np * (j + np * k)) as u32 };
                for k in 0..np - 1 {
                    for j in 0..np - 1 {
                        for i in 0..np - 1 {
                            grid.hexes.push([
                                id(i, j, k),
                                id(i + 1, j, k),
                                id(i + 1, j + 1, k),
                                id(i, j + 1, k),
                                id(i, j, k + 1),
                                id(i + 1, j, k + 1),
                                id(i + 1, j + 1, k + 1),
                                id(i, j + 1, k + 1),
                            ]);
                        }
                    }
                }
            }
        }
        for (f, (_, vals)) in grid.fields.iter_mut().enumerate() {
            for rank in 0..self.nranks {
                let v = field_values(rank, f);
                assert_eq!(
                    v.len() as u64,
                    self.field_bytes(rank) / 8,
                    "rank {rank} field {f}: wrong value count"
                );
                vals.extend_from_slice(&v);
            }
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wg() -> Waveguide {
        Waveguide::new([4, 2, 8], 5, 8, 2.0)
    }

    #[test]
    fn element_distribution_covers_all() {
        let w = wg();
        let mut total = 0;
        let mut cursor = 0;
        for r in 0..8 {
            let range = w.elements_of_rank(r);
            assert_eq!(range.start, cursor);
            cursor = range.end;
            total += range.end - range.start;
        }
        assert_eq!(total, w.num_elements());
        assert_eq!(w.num_elements(), 64);
        assert_eq!(w.points_per_element(), 216);
    }

    #[test]
    fn layout_matches_field_bytes() {
        let w = wg();
        let l = w.layout();
        assert_eq!(l.nranks(), 8);
        assert_eq!(l.nfields(), 6);
        for r in 0..8 {
            assert_eq!(l.field_bytes(r, 0), w.field_bytes(r));
            assert_eq!(l.rank_payload_bytes(r), 6 * w.field_bytes(r));
        }
    }

    #[test]
    fn mode_satisfies_maxwell() {
        let w = wg();
        for &(x, y, z, t) in &[
            (0.3, 0.2, 1.0, 0.0),
            (0.7, 0.1, 2.5, 0.4),
            (0.11, 0.33, 3.2, 1.7),
        ] {
            let r = w.maxwell_residual(x, y, z, t);
            assert!(r < 1e-6, "residual {r} at ({x},{y},{z},{t})");
        }
    }

    #[test]
    fn boundary_conditions_hold() {
        // Tangential E vanishes on the PEC side walls x=0 and x=a.
        let w = wg();
        for z in [0.1, 1.9, 3.3] {
            assert!(w.mode_value(1, 0.0, 0.2, z, 0.5).abs() < 1e-12);
            assert!(w.mode_value(1, 1.0, 0.2, z, 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn fill_field_round_trips_and_is_time_dependent() {
        let w = wg();
        let mut buf0 = vec![0u8; w.field_bytes(3) as usize];
        let mut buf1 = vec![0u8; w.field_bytes(3) as usize];
        w.fill_field(3, 1, 0.0, &mut buf0);
        w.fill_field(3, 1, 0.5, &mut buf1);
        assert_ne!(buf0, buf1, "fields must evolve in time");
        // Deterministic.
        let mut buf0b = vec![0u8; buf0.len()];
        w.fill_field(3, 1, 0.0, &mut buf0b);
        assert_eq!(buf0, buf0b);
        // Decode a value and check range (|fields| bounded by ~1).
        let v = f64::from_le_bytes(buf0[0..8].try_into().unwrap());
        assert!(v.abs() <= 1.5);
    }

    #[test]
    fn zero_components_are_zero() {
        let w = wg();
        let mut buf = vec![0u8; w.field_bytes(0) as usize];
        for field in [0usize, 2, 4] {
            w.fill_field(0, field, 0.7, &mut buf);
            assert!(
                buf.iter().all(|&b| b == 0),
                "field {field} should be identically zero"
            );
        }
    }

    #[test]
    fn vtk_grid_is_consistent_with_analytic_fields() {
        let w = Waveguide::new([2, 1, 2], 2, 2, 1.5);
        let t = 0.3;
        let grid = w.vtk_grid(|rank, field| {
            let mut buf = vec![0u8; w.field_bytes(rank) as usize];
            w.fill_field(rank, field, t, &mut buf);
            rbio::vtk::decode_f64_field(&buf)
        });
        grid.validate().expect("valid grid");
        let ppe = w.points_per_element() as usize;
        assert_eq!(grid.points.len() as u64, w.num_elements() * ppe as u64);
        // N=2 -> 8 sub-hexes per element.
        assert_eq!(grid.hexes.len() as u64, w.num_elements() * 8);
        assert_eq!(grid.fields.len(), 6);
        // Spot-check: the stored Ey value at an arbitrary point equals the
        // analytic mode evaluated at that point's coordinates.
        let pi = 100usize.min(grid.points.len() - 1);
        let [x, y, z] = grid.points[pi];
        let want = w.mode_value(1, x, y, z, t);
        let got = grid.fields[1].1[pi];
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        // And it renders to legacy VTK.
        let mut buf = Vec::new();
        grid.write_to(&mut buf, "waveguide", false).expect("write");
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("SCALARS Ey double 1"));
    }

    #[test]
    fn uneven_rank_split() {
        let w = Waveguide::new([3, 1, 1], 2, 2, 1.0);
        assert_eq!(w.elements_of_rank(0), 0..2);
        assert_eq!(w.elements_of_rank(1), 2..3);
        assert_ne!(w.field_bytes(0), w.field_bytes(1));
    }
}
