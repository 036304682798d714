//! Mini NekCEM: a spectral-element discontinuous Galerkin (SEDG) Maxwell
//! miniapp plus the paper's workload descriptors.
//!
//! NekCEM (§III-A of the paper) solves the Maxwell curl equations with
//! SEDG discretizations: tensor-product Lagrange bases on Gauss–Lobatto–
//! Legendre (GLL) points (diagonal mass matrix), upwind numerical fluxes at
//! element faces, and five-stage fourth-order low-storage Runge–Kutta time
//! stepping. This crate implements that numerical core at laptop scale —
//! honestly, with convergence tests — so the checkpoint examples write
//! *real* solver state:
//!
//! * [`gll`] — GLL nodes, quadrature weights, differentiation matrices;
//! * `rk` — the Carpenter–Kennedy 2N-storage RK4 scheme NekCEM uses;
//! * [`maxwell1d`] — a multi-element SEDG solver for the 1-D Maxwell
//!   system (E, H) with upwind fluxes and periodic boundaries, verified
//!   spectrally convergent against the exact travelling wave;
//! * [`maxwell2d`] — the 2-D transverse-magnetic system on tensor-product
//!   quad elements with characteristic upwind fluxes, likewise verified
//!   spectrally convergent (axis-aligned and oblique plane waves);
//! * [`waveguide`] — the 3-D cylindrical/rectangular waveguide mode fields
//!   the paper's production runs checkpoint (analytic time advance,
//!   sampled on tensor-product GLL grids per element);
//! * [`workload`] — the paper's weak-scaling case constants.

#![forbid(unsafe_code)]

pub mod gll;
pub mod maxwell1d;
pub mod maxwell2d;
pub(crate) mod rk;
pub mod waveguide;
pub mod workload;
