//! # temu-thermal — RC-network thermal model (paper §5)
//!
//! A C++-library-equivalent in Rust: the silicon die and its copper heat
//! spreader are divided into box-shaped cells of several sizes (finer cells
//! over the floorplan components flagged *hot*, §5.2 / Fig. 3a); every cell
//! carries four lateral thermal resistances, one vertical resistance and one
//! thermal capacitance (Fig. 3b). Silicon conductivity is **non-linear**,
//! `k(T) = 150 · (300/T)^{4/3} W/mK` (Table 2); the copper spreader is
//! linear. Heat enters as equivalent current sources on the bottom-surface
//! cells (power density × cell area); no heat leaves through the bottom or
//! the sides, and the top surface convects into the package through a
//! 20 K/W package-to-air resistance weighted by cell area — all exactly the
//! paper's §5.2 boundary conditions.
//!
//! Each cell interacts only with its neighbours, so one integration step is
//! linear in the number of cells; the explicit integrator picks a
//! stability-bounded internal substep automatically.
//!
//! # Solver architecture (perf notes)
//!
//! The hot path is organized for mesh sizes far beyond the paper's 660
//! cells:
//!
//! * **CSR adjacency** — the cell network is flattened into
//!   offsets/neighbour/edge arrays at meshing time (one contiguous pass per
//!   sweep, no per-cell heap indirection), with convection folded in as a
//!   branch-free per-cell conductance. The mesher itself builds lateral
//!   adjacency with a sorted boundary-line sweep, O(n log n + E), so 10k+
//!   tile floorplans mesh in milliseconds.
//! * **Lazy coefficient refresh** — the non-linear silicon conductivity
//!   (`powf` per cell) and the derived conductances are refreshed when the
//!   temperature field has drifted enough to matter (5 mK for the implicit
//!   path, a fixed 16-substep cadence for the explicit one), not every
//!   substep.
//! * **Second-order warm start + SOR** — each implicit substep starts from
//!   the previous substeps' linearly-extrapolated change (`2δₙ − δₙ₋₁`),
//!   and the Gauss–Seidel path over-relaxes with an ω locked from the
//!   observed contraction ratio — together cutting iteration counts by an
//!   order of magnitude on smooth transients.
//! * **Geometric multigrid** ([`ImplicitSolve`]) — Gauss–Seidel contraction
//!   collapses with refinement (the 46k-cell bench rung used to exhaust its
//!   sweep budget *every substep* and silently accept the unconverged
//!   field). [`ImplicitSolve::Multigrid`] — chosen automatically above
//!   [`GridConfig::multigrid_threshold`] cells (default 12288) by the
//!   [`ImplicitSolve::Auto`] default — solves each backward-Euler substep
//!   by flexible CG preconditioned with an aggregation K-cycle: coarse RC
//!   networks built by conductance-guided pairwise matching (~8 cells per
//!   aggregate per level), symmetric Gauss–Seidel smoothing, a dense
//!   Cholesky solve at the ≤80-cell coarsest level, and an energy-norm
//!   line search re-scaling every coarse correction. Converges every
//!   substep in a handful of cycles regardless of mesh size, 100k+ cells
//!   included.
//! * **Convergence accounting** ([`SolverStats`]) — any implicit substep
//!   that exhausts its iteration budget unconverged is counted (and its
//!   residual recorded) instead of silently accepted;
//!   [`GridConfig::strict_convergence`] escalates it to
//!   [`ThermalError::NotConverged`] via [`ThermalModel::try_step`].
//! * **One serial solver** — every optimized sweep runs on the calling
//!   thread, in natural cell order. A model's trajectory therefore
//!   depends on its inputs alone, never on the host's core count, and
//!   parallelism lives one level up: campaigns and sweeps run whole
//!   points on separate threads.
//! * **[`SweepMode::Reference`]** preserves the seed solver exactly and
//!   anchors the equivalence tests: the optimized [`SweepMode::Serial`]
//!   path — multigrid included — must track it within 1e-4 K over a 2 s
//!   transient
//!   (`tests/` + the bench crate's golden tests on the Fig. 4b floorplan).
//!
//! ```
//! use temu_thermal::{Floorplan, GridConfig, ThermalModel};
//!
//! let mut fp = Floorplan::new("die", 4000.0, 4000.0);
//! let cpu = fp.add_component("cpu", 500.0, 500.0, 1500.0, 1500.0, true);
//! let model_cfg = GridConfig::default();
//! let mut model = ThermalModel::new(&fp, &model_cfg).unwrap();
//! model.set_component_power(cpu, 1.5); // watts
//! model.step(0.010);                   // 10 ms sampling window
//! assert!(model.component_temp(cpu) > 300.0);
//! ```

#![forbid(unsafe_code)]

mod csr;
mod error;
mod floorplan;
mod grid;
mod mg;
mod props;
mod reference;
mod solver;

pub use error::ThermalError;
pub use floorplan::{Component, ComponentId, Floorplan};
pub use grid::{GridConfig, ImplicitSolve, Integrator, SweepMode, ThermalGrid};
pub use mg::MgTopology;
pub use props::{
    silicon_conductivity, ThermalProps, COPPER_CONDUCTIVITY, COPPER_SPECIFIC_HEAT_PER_UM3,
    COPPER_THICKNESS_UM, PACKAGE_TO_AIR_K_PER_W, SILICON_SPECIFIC_HEAT_PER_UM3, SILICON_THICKNESS_UM,
};
pub use reference::analytic_stack_temp;
pub use solver::{SolverStats, ThermalModel, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
