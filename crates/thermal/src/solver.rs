//! Transient RC solver with non-linear silicon conductivity.
//!
//! # Hot-path layout (CSR)
//!
//! The solver keeps every per-substep quantity in flat arrays indexed by the
//! grid's CSR adjacency (see [`crate::csr`]): per-entry conductances
//! (`g_entry`), per-cell convection conductances (`g_conv`, zero when the
//! cell has no convection path — the update needs no branch), and for the
//! semi-implicit path a precomputed reciprocal diagonal (`inv_diag`) so the
//! Gauss–Seidel update is one fused multiply-accumulate pass per cell.
//!
//! # Coefficient refresh lag
//!
//! Silicon conductivity `k(T) = 150·(300/T)^{4/3}` costs a `powf` per cell.
//! The temperature drift across one substep is micro-kelvins, so the
//! optimized semi-implicit path refreshes the non-linear coefficients
//! lazily instead of every substep: whenever the temperature field has
//! drifted more than [`REFRESH_DRIFT_K`] since the last refresh — tight in
//! fast transients, nearly free at steady state. The lagged coefficients
//! perturb the trajectory orders of magnitude less than the discretization
//! error (the equivalence tests bound the drift below 1e-4 K over a
//! transient) while removing the `powf`s and the per-edge divisions from
//! the per-substep cost.
//!
//! # One explicit path
//!
//! [`Integrator::Explicit`] runs the seed's forward-Euler arithmetic
//! (per-edge divisions, conductivities refreshed every [`K_REFRESH`]
//! stability-bounded substeps) on every sweep mode. No preset selects it:
//! it stays as the independent physics check of the semi-implicit solver,
//! and a faster copy of it would only be a second path to keep equal.
//!
//! # One thread
//!
//! Every sweep runs on the calling thread in natural cell order, so a
//! trajectory depends only on the model's inputs, never on the host.
//!
//! # Multigrid kernels
//!
//! The CSR rows are sorted and split at the diagonal (see [`crate::csr`]),
//! and each flexible-CG cycle walks the fine grid twice: a full-row
//! forward sweep that stores its lower sums, then one pass over the upper
//! halves (the backward sweep, reusing those lower sums) and one over the
//! lower halves (`A·z` from the stored upper sums, fused with the search
//! direction update) — Eisenstat's trick for symmetric Gauss–Seidel
//! (SIAM J. Sci. Stat. Comput. 2(1), 1981). `A·p` follows from `A·z` by
//! the CG recurrence instead of its own pass.
//!
//! [`SweepMode::Reference`] keeps the seed implementation's algorithm
//! (natural-order serial sweeps, per-substep refresh, per-edge divisions)
//! as the golden baseline for equivalence tests and speedup measurements;
//! like every path, it sums each row in neighbour order.

use crate::csr::{entries_dot, entries_dot_fresh_first, entries_dot_fresh_last, SortedRows, NO_CONV};
use crate::error::ThermalError;
use crate::floorplan::{ComponentId, Floorplan};
use crate::grid::{GridConfig, Integrator, SweepMode, ThermalGrid};
use crate::mg::{MgTopology, Multigrid};
use crate::props::{silicon_conductivity, COPPER_CONDUCTIVITY};
use std::sync::Arc;
use std::time::{Duration, Instant};
use temu_state::{StateError, StateReader, StateWriter};

/// Cached handles into the process-wide metrics registry for the
/// per-substep hot path: one relaxed load (`temu_obs::enabled`) gates all
/// recording, and the handles are resolved once so a substep never takes
/// the registry lock.
struct SubstepObs {
    /// Wall-clock per implicit substep, nanoseconds.
    latency_ns: Arc<temu_obs::Histogram>,
    /// Gauss–Seidel sweeps (smoother sweeps, on the MG path) per substep.
    sweeps: Arc<temu_obs::Histogram>,
    /// Final per-substep residual in nano-kelvin (the `f64` residual is
    /// scaled by 1e9 so the log2 buckets resolve the 1e-6 K tolerance).
    residual_nk: Arc<temu_obs::Histogram>,
    /// Path counters: which solver serviced the substep.
    substeps_mg: Arc<temu_obs::Counter>,
    substeps_gs: Arc<temu_obs::Counter>,
    substeps_explicit: Arc<temu_obs::Counter>,
    /// Optimized implicit substeps that refreshed the non-linear
    /// coefficients before solving.
    refreshes: Arc<temu_obs::Counter>,
    /// Coefficient-refresh check (and refresh, when due) before each
    /// optimized implicit substep, nanoseconds. It lies outside
    /// `substep_ns`.
    refresh_ns: Arc<temu_obs::Histogram>,
    /// Per-[`Phase`] wall time of one substep, nanoseconds (indexed by
    /// `Phase as usize`).
    phase_ns: [Arc<temu_obs::Histogram>; 4],
}

fn substep_obs() -> &'static SubstepObs {
    static OBS: std::sync::OnceLock<SubstepObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let scope = temu_obs::global().scope("thermal");
        SubstepObs {
            latency_ns: scope.histogram("substep_ns"),
            sweeps: scope.histogram("substep_sweeps"),
            residual_nk: scope.histogram("residual_nk"),
            substeps_mg: scope.counter("substeps_mg"),
            substeps_gs: scope.counter("substeps_gs"),
            substeps_explicit: scope.counter("substeps_explicit"),
            refreshes: scope.counter("refreshes"),
            refresh_ns: scope.histogram("phase.refresh_ns"),
            phase_ns: [
                scope.histogram("phase.residual_ns"),
                scope.histogram("phase.coarse_ns"),
                scope.histogram("phase.smooth_ns"),
                scope.histogram("phase.krylov_ns"),
            ],
        }
    })
}

/// The phases of an optimized implicit substep, timed into the
/// `thermal.phase.*` spans. Together they cover `substep_ns` except its
/// bookkeeping tail (warm-start deltas, energy books).
#[derive(Clone, Copy)]
enum Phase {
    /// Set-up: warm start, diagonals, hierarchy refresh, right-hand side
    /// and the initial fine residual.
    Residual,
    /// The coarse-grid corrections.
    Coarse,
    /// Fine smoothing: the two multigrid sweeps per cycle, or the plain
    /// path's SOR sweeps.
    Smooth,
    /// The flexible-CG direction (`A·z`, `p`, `A·p`) and update.
    Krylov,
}

/// Per-[`Phase`] wall time of one substep, summed over its cycles. A no-op
/// unless the metrics registry is enabled when the substep starts.
struct PhaseClock {
    last: Option<Instant>,
    spent: [Duration; 4],
}

impl PhaseClock {
    fn start() -> PhaseClock {
        PhaseClock { last: temu_obs::enabled().then(Instant::now), spent: [Duration::ZERO; 4] }
    }

    /// Books the time since the previous lap to `phase`.
    fn lap(&mut self, phase: Phase) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.spent[phase as usize] += now - *last;
            *last = now;
        }
    }

    /// Records every phase the substep ran.
    fn record(&self) {
        if self.last.is_some() {
            for (h, &d) in substep_obs().phase_ns.iter().zip(&self.spent) {
                if !d.is_zero() {
                    h.record_duration(d);
                }
            }
        }
    }
}

/// `max_i f(i)` over `0..n`, with `f` called in ascending `i`, kept in four
/// independent lanes so four compare chains overlap. A max does not depend
/// on order, so the result is bit-identical to a serial fold from 0.0.
#[inline(always)]
fn max_in_lanes(n: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let body = n - n % 4;
    for i in (0..body).step_by(4) {
        for (l, m) in lanes.iter_mut().enumerate() {
            *m = m.max(f(i + l));
        }
    }
    for i in body..n {
        lanes[0] = lanes[0].max(f(i));
    }
    lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]))
}

/// A residual in kelvin as integer nano-kelvin, saturating (negative and
/// non-finite inputs clamp to the range ends).
fn residual_nanokelvin(residual_k: f64) -> u64 {
    let nk = residual_k * 1e9;
    if nk.is_finite() && nk >= 0.0 {
        if nk >= u64::MAX as f64 {
            u64::MAX
        } else {
            nk as u64
        }
    } else if nk > 0.0 {
        u64::MAX
    } else {
        0
    }
}

/// Magic bytes of a [`ThermalModel::snapshot`] stream.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSNP";

/// Version of the snapshot format written by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Substeps between silicon-conductivity refreshes on the explicit path
/// (the seed's fixed cadence; the stability-bounded explicit substep is
/// small enough that 16 substeps of lag stay in the micro-kelvin range).
const K_REFRESH: u64 = 16;

/// Temperature drift since the last refresh that triggers a coefficient
/// refresh on the optimized semi-implicit path. The silicon conductivity
/// changes by `(4/3)/T ≈ 0.44 %` per kelvin, so a 5 mK lag perturbs the
/// conductances by ~2e-5 relative — an order of magnitude below the 1e-4 K
/// equivalence budget, while letting a near-steady mesh skip the `powf`
/// refresh for hundreds of substeps.
const REFRESH_DRIFT_K: f64 = 5e-3;

/// Hard cap on substeps between refreshes of the semi-implicit path.
const REFRESH_MAX_INTERVAL: u64 = 256;

/// Gauss–Seidel iteration cap per implicit substep.
const MAX_SWEEPS: usize = 60;

/// Multigrid cycle cap per implicit substep. Each cycle costs roughly
/// three fine-grid sweeps: two full row passes (a full forward sweep, then
/// an upper-half and a lower-half pass that finish the backward sweep and
/// the operator application) plus the coarse visit and the CG update. So
/// 40 cycles is about double the Gauss–Seidel sweep budget — warm-started
/// substeps converge in a few cycles, and the headroom exists for the rare
/// cold-start substep, which must *converge*, not merely stay within a
/// pretty budget.
const MAX_CYCLES: usize = 40;

/// Fine-grid Gauss–Seidel sweeps after each cycle's coarse-grid correction,
/// one forward and one backward (the piecewise-constant prolongation
/// re-introduces high-frequency error that the post-sweeps must kill); the
/// backward sweep walks only upper halves (see the module docs). There is
/// no fine pre-smoothing: with a zero initial guess the coarse correction
/// restricts the outer FCG residual directly — the calibrated sweet spot
/// on the 46k-cell rung, a full residual pass cheaper per cycle than the
/// textbook pre+post shape.
const FINE_POST_SWEEPS: usize = 2;

/// Gauss–Seidel convergence threshold, kelvin: sub-tenth-of-a-microkelvin
/// per substep is far below both the discretization error and the sensor
/// quantization.
const SWEEP_TOL: f64 = 1e-7;

/// Derives a successive-over-relaxation factor from the observed
/// Gauss–Seidel contraction.
///
/// The first sweeps kill the high-frequency error modes fast, so the early
/// delta ratios badly underestimate the asymptotic contraction ρ (on a fine
/// mesh the ratio climbs from ~0.4 to ~0.95 over a few sweeps). The tuner
/// therefore watches plain-GS ratios until they stabilize (two consecutive
/// ratios within 2 %, or five sweeps), then locks the classic
/// `ω = 2 / (1 + √(1 − ρ))`. The system matrix is symmetric positive
/// definite, so SOR converges for any ω in (0, 2) — the clamp guards the
/// estimate, not correctness.
struct SorTuner {
    omega: f64,
    d_prev: f64,
    r_prev: f64,
}

impl SorTuner {
    fn new() -> SorTuner {
        SorTuner { omega: 1.0, d_prev: f64::INFINITY, r_prev: 0.0 }
    }

    /// Feeds the max update of the sweep just finished; returns the factor
    /// to use for the next sweep.
    fn observe(&mut self, sweep: usize, d: f64) -> f64 {
        if self.omega == 1.0 && sweep >= 1 && self.d_prev.is_finite() && self.d_prev > 0.0 {
            let r = d / self.d_prev;
            if r > 0.0 && r < 1.0 && sweep >= 2 && ((r - self.r_prev).abs() < 0.02 * r || sweep >= 5) {
                self.omega = (2.0 / (1.0 + (1.0 - r).sqrt())).clamp(1.0, 1.95);
            }
            self.r_prev = r;
        }
        self.d_prev = d;
        self.omega
    }
}

/// Convergence accounting of the implicit solver since model construction.
///
/// The headline field is `unconverged_substeps`: every implicit substep
/// that exhausted its iteration budget without meeting the tolerance and
/// was accepted anyway (the silent failure mode of large meshes under
/// plain Gauss–Seidel). A committed benchmark row with a non-zero count is
/// measuring a solver that quietly stopped converging — treat it as a bug,
/// not a number. [`GridConfig::strict_convergence`] upgrades the
/// accounting into a hard [`ThermalError::NotConverged`] from
/// [`ThermalModel::try_step`].
#[derive(Clone, Copy, PartialEq, Debug, Default)]
#[non_exhaustive]
pub struct SolverStats {
    /// Integration substeps taken (both integrators).
    pub substeps: u64,
    /// Implicit substeps accepted without reaching the convergence
    /// tolerance. Zero on a healthy run.
    pub unconverged_substeps: u64,
    /// Largest final-iteration update (max |ΔT| of the last sweep, K)
    /// among unconverged substeps — how far from converged the worst
    /// accepted substep still was. 0.0 when every substep converged.
    pub worst_residual_k: f64,
    /// Fine-grid Gauss–Seidel sweeps spent by implicit substeps.
    pub total_sweeps: u64,
    /// Multigrid K-cycles (flexible-CG iterations) spent by implicit
    /// substeps (0 on the plain Gauss–Seidel path).
    pub total_cycles: u64,
}

impl SolverStats {
    /// The counter difference `self − base`, for reporting per-run deltas
    /// on top of the model's cumulative accounting. `worst_residual_k` is
    /// a watermark, not a counter: the value is carried from `self`, which
    /// is exact when the watermark was re-armed at `base` via
    /// [`ThermalModel::reset_residual_watermark`].
    #[must_use]
    pub fn delta_since(&self, base: &SolverStats) -> SolverStats {
        SolverStats {
            substeps: self.substeps - base.substeps,
            unconverged_substeps: self.unconverged_substeps - base.unconverged_substeps,
            worst_residual_k: self.worst_residual_k,
            total_sweeps: self.total_sweeps - base.total_sweeps,
            total_cycles: self.total_cycles - base.total_cycles,
        }
    }
}

/// The thermal model: a meshed floorplan plus its temperature state and the
/// per-component power inputs.
///
/// Integration cost per substep is linear in the number of cells (each cell
/// interacts only with its neighbours, §5.2).
#[derive(Clone, Debug)]
pub struct ThermalModel {
    /// The meshed cell network — immutable, shareable between models via
    /// [`ThermalModel::with_artifacts`].
    grid: Arc<ThermalGrid>,
    /// This model's own solver configuration. A shared `grid` carries the
    /// config of whoever built it, which may differ from this model's in
    /// the per-run knobs (integrator, sweep mode, strictness) — every
    /// config read in the solver goes through this field, never
    /// `grid.cfg`.
    cfg: GridConfig,
    /// Shared multigrid hierarchy topology, when the model was built from
    /// artifacts; the lazily-built [`Multigrid`] instantiates on it
    /// instead of re-coarsening the mesh.
    mg_topo: Option<Arc<MgTopology>>,
    temps: Vec<f64>,
    comp_power: Vec<f64>,
    cell_power: Vec<f64>,
    k_cell: Vec<f64>,
    flow: Vec<f64>,
    /// Per-edge conductance at the last refresh.
    g_edge: Vec<f64>,
    /// Per-CSR-entry copy of `g_edge` — sweeps read it sequentially.
    g_entry: Vec<f64>,
    /// Per-cell convection conductance (0 where no convection path).
    g_conv: Vec<f64>,
    /// Per-cell `C/h` for the semi-implicit diagonal (valid for `diag_h`).
    c_over_h: Vec<f64>,
    /// Per-cell Gauss–Seidel diagonal `C/h + Σg + g_conv` (valid for
    /// `diag_h`; the multigrid residual pass reads it directly).
    diag: Vec<f64>,
    /// Per-cell reciprocal Gauss–Seidel diagonal (valid for `diag_h`).
    inv_diag: Vec<f64>,
    /// Substep the diagonal arrays were built for (NaN = stale).
    diag_h: f64,
    /// Coarse-grid hierarchy of the multigrid implicit solver, built on
    /// first use (`None` until then, and forever when the model never runs
    /// a multigrid substep).
    mg: Option<Multigrid>,
    /// Right-hand side of the implicit system (multigrid path scratch).
    rhs: Vec<f64>,
    /// Fine-grid outer residual (multigrid path scratch).
    resid: Vec<f64>,
    /// Preconditioner output (multigrid path scratch).
    fcg_z: Vec<f64>,
    /// Half-row sums the fine smoother hands forward: the forward sweep's
    /// lower sums, then the backward sweep's upper sums (multigrid path
    /// scratch).
    fcg_half: Vec<f64>,
    /// FCG search direction (multigrid path scratch).
    fcg_p: Vec<f64>,
    /// `A·p` (multigrid path scratch).
    fcg_ap: Vec<f64>,
    /// Scratch for `stable_dt` (reused across calls instead of allocating).
    g_scratch: Vec<f64>,
    /// Temperature snapshot at the last coefficient refresh (drift-based
    /// refresh policy of the semi-implicit path).
    refresh_temps: Vec<f64>,
    /// Per-cell temperature change of the previous implicit substep —
    /// extrapolated as the warm start of the next substep's sweeps.
    step_delta: Vec<f64>,
    /// Substep length `step_delta` was recorded at (NaN = no prediction);
    /// a different `h` means the prediction's scale is wrong.
    step_delta_h: f64,
    /// The substep change before `step_delta` (second-order warm start).
    step_delta_prev: Vec<f64>,
    /// Substep length `step_delta_prev` was recorded at (NaN = invalid).
    step_delta_prev_h: f64,
    /// Sweeps the last implicit substep needed (diagnostic).
    last_sweeps: usize,
    /// Multigrid cycles the last implicit substep needed (0 on the plain
    /// Gauss–Seidel path).
    last_cycles: usize,
    /// Whether the last implicit substep was accepted unconverged.
    last_substep_unconverged: bool,
    /// The last implicit substep's final iteration update, K.
    last_delta: f64,
    /// Implicit substeps accepted without reaching the convergence
    /// tolerance (see [`SolverStats`]).
    unconverged_substeps: u64,
    /// Largest final-iteration update among unconverged substeps, K.
    worst_unconverged_delta: f64,
    /// Fine-grid Gauss–Seidel sweeps spent by implicit substeps.
    total_sweeps: u64,
    /// Multigrid K-cycles spent by implicit substeps.
    total_cycles: u64,
    /// Implicit substeps since the last coefficient refresh. Persists
    /// across `step` calls: the coefficients depend only on temperatures,
    /// which do not move between calls, so a new sampling window must not
    /// force a refresh by itself.
    since_refresh: u64,
    /// Substeps taken since construction (perf accounting).
    substeps: u64,
    work: Vec<f64>,
    time: f64,
    energy_in: f64,
    energy_out: f64,
}

impl ThermalModel {
    /// Meshes `fp` and initializes every cell at ambient temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError`] if the grid configuration is invalid.
    pub fn new(fp: &Floorplan, cfg: &GridConfig) -> Result<ThermalModel, ThermalError> {
        let grid = Arc::new(ThermalGrid::build(fp, cfg)?);
        ThermalModel::with_artifacts(grid, None, cfg)
    }

    /// Builds a model on pre-built shared artifacts: the meshed grid and
    /// (optionally) the multigrid hierarchy topology, both behind `Arc`s
    /// so k models of one sweep share one mesh and one hierarchy instead
    /// of rebuilding them k times. `cfg` is *this model's* solver
    /// configuration; it must be mesh-compatible with the config the grid
    /// was built from (same [`GridConfig::mesh_fingerprint`]) but may
    /// differ in every per-run knob.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError`] if `cfg` is invalid.
    pub fn with_artifacts(
        grid: Arc<ThermalGrid>,
        mg_topo: Option<Arc<MgTopology>>,
        cfg: &GridConfig,
    ) -> Result<ThermalModel, ThermalError> {
        cfg.validate()?;
        debug_assert_eq!(
            grid.cfg.mesh_fingerprint(),
            cfg.mesh_fingerprint(),
            "shared grid geometry must match the model's config"
        );
        let n = grid.n_cells();
        let n_entries = grid.csr.rows.n_entries();
        Ok(ThermalModel {
            temps: vec![cfg.ambient_k; n],
            comp_power: vec![0.0; grid.comp_cells.len()],
            cell_power: vec![0.0; n],
            k_cell: vec![0.0; n],
            flow: vec![0.0; n],
            g_edge: vec![0.0; grid.edges.len()],
            g_entry: vec![0.0; n_entries],
            g_conv: vec![0.0; n],
            c_over_h: vec![0.0; n],
            diag: vec![0.0; n],
            inv_diag: vec![0.0; n],
            diag_h: f64::NAN,
            mg: None,
            rhs: vec![0.0; n],
            resid: vec![0.0; n],
            fcg_z: vec![0.0; n],
            fcg_half: vec![0.0; n],
            fcg_p: vec![0.0; n],
            fcg_ap: vec![0.0; n],
            g_scratch: vec![0.0; n],
            refresh_temps: vec![cfg.ambient_k; n],
            step_delta: vec![0.0; n],
            step_delta_h: f64::NAN,
            step_delta_prev: vec![0.0; n],
            step_delta_prev_h: f64::NAN,
            last_sweeps: 0,
            last_cycles: 0,
            last_substep_unconverged: false,
            last_delta: 0.0,
            unconverged_substeps: 0,
            worst_unconverged_delta: 0.0,
            total_sweeps: 0,
            total_cycles: 0,
            since_refresh: REFRESH_MAX_INTERVAL,
            substeps: 0,
            work: vec![cfg.ambient_k; n],
            time: 0.0,
            energy_in: 0.0,
            energy_out: 0.0,
            cfg: *cfg,
            mg_topo,
            grid,
        })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &ThermalGrid {
        &self.grid
    }

    /// The underlying grid as a shareable artifact (hand it to
    /// [`ThermalModel::with_artifacts`] to build sibling models without
    /// re-meshing).
    pub fn grid_arc(&self) -> Arc<ThermalGrid> {
        self.grid.clone()
    }

    /// This model's solver configuration.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Simulated seconds elapsed.
    pub fn time(&self) -> f64 {
        self.time
    }

    fn reference_mode(&self) -> bool {
        self.cfg.sweep == SweepMode::Reference
    }

    /// Whether the semi-implicit substeps run multigrid K-cycles on this
    /// model's mesh ([`GridConfig::uses_multigrid`]). Always false for the
    /// explicit integrator and for the [`SweepMode::Reference`] path.
    pub fn uses_multigrid(&self) -> bool {
        self.cfg.uses_multigrid(self.temps.len())
    }

    /// Number of multigrid levels (including the fine grid) once the
    /// hierarchy has been built; `None` before the first multigrid substep
    /// (or forever when multigrid is not in use).
    pub fn multigrid_levels(&self) -> Option<usize> {
        self.mg.as_ref().map(Multigrid::n_levels)
    }

    /// Convergence accounting since construction (see [`SolverStats`]).
    pub fn solver_stats(&self) -> SolverStats {
        SolverStats {
            substeps: self.substeps,
            unconverged_substeps: self.unconverged_substeps,
            worst_residual_k: self.worst_unconverged_delta,
            total_sweeps: self.total_sweeps,
            total_cycles: self.total_cycles,
        }
    }

    /// Re-arms the `worst_residual_k` watermark without touching the
    /// cumulative counters. Callers that report per-run deltas (the
    /// co-emulation loop's per-call [`SolverStats`]) reset it at the start
    /// of each run so the reported residual belongs to that run alone.
    pub fn reset_residual_watermark(&mut self) {
        self.worst_unconverged_delta = 0.0;
    }

    /// Serializes the model's run state at a step boundary (between
    /// [`ThermalModel::try_step`] calls): temperatures, component powers,
    /// the coefficient-refresh anchor, the second-order warm-start vectors
    /// and their substep lengths, the convergence accounting and the
    /// time/energy bookkeeping. The mesh, the solver configuration and the
    /// multigrid hierarchy are *not* recorded — [`ThermalModel::restore`]
    /// rebuilds them deterministically from the same floorplan and config.
    ///
    /// The SOR tuner holds no state across substeps (a fresh
    /// `SorTuner` is constructed inside every solve), so snapshots taken
    /// at step boundaries cover it vacuously.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.f64_slice(&self.temps);
        w.f64_slice(&self.comp_power);
        w.f64_slice(&self.refresh_temps);
        w.u64(self.since_refresh);
        w.bool(self.mg.is_some());
        w.f64_slice(&self.step_delta);
        w.f64(self.step_delta_h);
        w.f64_slice(&self.step_delta_prev);
        w.f64(self.step_delta_prev_h);
        w.usize(self.last_sweeps);
        w.usize(self.last_cycles);
        w.bool(self.last_substep_unconverged);
        w.f64(self.last_delta);
        w.u64(self.unconverged_substeps);
        w.f64(self.worst_unconverged_delta);
        w.u64(self.total_sweeps);
        w.u64(self.total_cycles);
        w.u64(self.substeps);
        w.f64(self.time);
        w.f64(self.energy_in);
        w.f64(self.energy_out);
        w.into_bytes()
    }

    /// Restores a [`ThermalModel::snapshot`] into a model built from the
    /// *same* floorplan and configuration. After a successful restore the
    /// model continues **bitwise-identically** to the snapshotted one: the
    /// conductances are re-derived at the recorded refresh anchor, the
    /// multigrid hierarchy (when the snapshotted model had built one) is
    /// re-aggregated from the same ambient-uniform conductances the
    /// original was built from, and the warm-start vectors resume the
    /// solver on the identical iterate.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the snapshot's geometry (cell or
    /// component count) disagrees with this model's — it belongs to a
    /// different floorplan or mesh — or the stream is corrupt. The model
    /// is unchanged on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let (mut r, _) = StateReader::new(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let n = self.temps.len();
        let temps = r.f64_vec_exact(n)?;
        let comp_power = r.f64_vec_exact(self.comp_power.len())?;
        let refresh_temps = r.f64_vec_exact(n)?;
        let since_refresh = r.u64()?;
        let mg_built = r.bool()?;
        let step_delta = r.f64_vec_exact(n)?;
        let step_delta_h = r.f64()?;
        let step_delta_prev = r.f64_vec_exact(n)?;
        let step_delta_prev_h = r.f64()?;
        let last_sweeps = r.usize()?;
        let last_cycles = r.usize()?;
        let last_substep_unconverged = r.bool()?;
        let last_delta = r.f64()?;
        let unconverged_substeps = r.u64()?;
        let worst_unconverged_delta = r.f64()?;
        let total_sweeps = r.u64()?;
        let total_cycles = r.u64()?;
        let substeps = r.u64()?;
        let time = r.f64()?;
        let energy_in = r.f64()?;
        let energy_out = r.f64()?;
        r.finish()?;
        for &p in &comp_power {
            if !(p.is_finite() && p >= 0.0) {
                return Err(StateError::BadValue { what: "component power", value: p.to_bits() });
            }
        }
        self.set_powers(&comp_power);
        if mg_built && self.mg.is_none() {
            self.mg = Some(self.build_multigrid());
        }
        // Re-derive the lagged coefficients at the recorded refresh anchor,
        // then install the live temperatures on top. `refresh_conductances`
        // marks the implicit diagonal and the multigrid conductances stale;
        // the next substep rebuilds both from these exact inputs, which is
        // what the snapshotted model would have done too.
        self.temps.copy_from_slice(&refresh_temps);
        self.refresh_conductivities();
        self.refresh_conductances();
        self.refresh_temps.copy_from_slice(&refresh_temps);
        self.temps.copy_from_slice(&temps);
        self.since_refresh = since_refresh;
        self.step_delta = step_delta;
        self.step_delta_h = step_delta_h;
        self.step_delta_prev = step_delta_prev;
        self.step_delta_prev_h = step_delta_prev_h;
        self.last_sweeps = last_sweeps;
        self.last_cycles = last_cycles;
        self.last_substep_unconverged = last_substep_unconverged;
        self.last_delta = last_delta;
        self.unconverged_substeps = unconverged_substeps;
        self.worst_unconverged_delta = worst_unconverged_delta;
        self.total_sweeps = total_sweeps;
        self.total_cycles = total_cycles;
        self.substeps = substeps;
        self.time = time;
        self.energy_in = energy_in;
        self.energy_out = energy_out;
        Ok(())
    }

    /// Sets a component's dissipated power in watts (injected as equivalent
    /// current sources on its bottom-surface cells, weighted by area).
    ///
    /// # Panics
    ///
    /// Panics if `power_w` is negative or not finite.
    pub fn set_component_power(&mut self, comp: ComponentId, power_w: f64) {
        assert!(power_w >= 0.0 && power_w.is_finite(), "power must be a finite non-negative number");
        self.comp_power[comp] = power_w;
        // Bottom-layer cell index == tile index (layer 0 comes first).
        for &(tile, frac) in &self.grid.comp_cells[comp] {
            self.cell_power[tile] = power_w * frac;
        }
    }

    /// Sets all component powers at once.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the component count.
    pub fn set_powers(&mut self, powers_w: &[f64]) {
        assert_eq!(powers_w.len(), self.comp_power.len(), "one power value per floorplan component");
        for (c, &p) in powers_w.iter().enumerate() {
            self.set_component_power(c, p);
        }
    }

    /// Total power currently injected, W.
    pub fn total_power(&self) -> f64 {
        self.comp_power.iter().sum()
    }

    /// Cell temperatures (layer-major: bottom silicon first).
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Hottest cell temperature, K.
    pub fn max_temp(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Coolest cell temperature, K.
    pub fn min_temp(&self) -> f64 {
        self.temps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Area-weighted mean temperature of a component's bottom cells — what
    /// the platform's temperature sensor for that component reads.
    pub fn component_temp(&self, comp: ComponentId) -> f64 {
        let cells = &self.grid.comp_cells[comp];
        let mut acc = 0.0;
        let mut total = 0.0;
        for &(tile, frac) in cells {
            acc += self.temps[tile] * frac;
            total += frac;
        }
        acc / total.max(f64::MIN_POSITIVE)
    }

    /// Temperatures of every component (sensor vector for the platform).
    pub fn component_temps(&self) -> Vec<f64> {
        (0..self.comp_power.len()).map(|c| self.component_temp(c)).collect()
    }

    /// Energy injected since construction, J.
    pub fn energy_in(&self) -> f64 {
        self.energy_in
    }

    /// Energy convected to ambient since construction, J.
    pub fn energy_out(&self) -> f64 {
        self.energy_out
    }

    /// Heat currently stored relative to ambient, J (`Σ C_i (T_i - T_amb)`).
    pub fn stored_energy(&self) -> f64 {
        let amb = self.cfg.ambient_k;
        self.temps.iter().zip(&self.grid.capacity).map(|(&t, &c)| c * (t - amb)).sum()
    }

    fn conductivity(&self, cell: usize, temp: f64) -> f64 {
        if self.grid.is_silicon(cell) {
            match self.cfg.silicon_k_override {
                Some(k) => k,
                None => silicon_conductivity(temp),
            }
        } else {
            COPPER_CONDUCTIVITY
        }
    }

    /// Recomputes per-cell conductivities at the current temperatures.
    fn refresh_conductivities(&mut self) {
        for i in 0..self.temps.len() {
            self.k_cell[i] = self.conductivity(i, self.temps[i]);
        }
    }

    /// Recomputes edge/entry/convection conductances from `k_cell` and
    /// marks the implicit diagonal stale.
    fn refresh_conductances(&mut self) {
        for (gi, e) in self.grid.edges.iter().enumerate() {
            self.g_edge[gi] = 1.0 / (e.g_a / self.k_cell[e.a] + e.g_b / self.k_cell[e.b]);
        }
        for (g, &e) in self.g_entry.iter_mut().zip(&self.grid.csr.rows.edge) {
            *g = self.g_edge[e as usize];
        }
        for &(cell, r_pkg, g_half) in &self.grid.convection {
            self.g_conv[cell] = 1.0 / (r_pkg + g_half / self.k_cell[cell]);
        }
        self.diag_h = f64::NAN;
        if let Some(mg) = &mut self.mg {
            mg.stale_g = true;
        }
    }

    fn refresh_all(&mut self) {
        self.refresh_conductivities();
        self.refresh_conductances();
        self.refresh_temps.copy_from_slice(&self.temps);
        self.since_refresh = 0;
    }

    /// Max |ΔT| of any cell since the coefficients were last refreshed.
    fn drift_since_refresh(&self) -> f64 {
        let n = self.temps.len();
        let (t, r) = (&self.temps[..n], &self.refresh_temps[..n]);
        max_in_lanes(n, |i| (t[i] - r[i]).abs())
    }

    /// Builds the semi-implicit diagonal arrays for substep `h`.
    fn build_diag(&mut self, h: f64) {
        let n = self.temps.len();
        let (capacity, g_conv) = (&self.grid.capacity[..n], &self.g_conv[..n]);
        let off = &self.grid.csr.rows.offsets[..=n];
        let (c_over_h, diag) = (&mut self.c_over_h[..n], &mut self.diag[..n]);
        let inv_diag = &mut self.inv_diag[..n];
        for i in 0..n {
            let c = capacity[i] / h;
            let g_sum: f64 = self.g_entry[off[i] as usize..off[i + 1] as usize].iter().sum();
            let d = c + g_sum + g_conv[i];
            c_over_h[i] = c;
            diag[i] = d;
            inv_diag[i] = 1.0 / d;
        }
        self.diag_h = h;
    }

    /// Largest stable explicit substep for the current temperature field.
    ///
    /// Refreshes the conductances as a side effect (the explicit path
    /// relies on this for its first substeps).
    pub fn stable_dt(&mut self) -> f64 {
        self.refresh_all();
        let off = &self.grid.csr.rows.offsets;
        for i in 0..self.temps.len() {
            let g_sum: f64 = self.g_entry[off[i] as usize..off[i + 1] as usize].iter().sum();
            self.g_scratch[i] = g_sum + self.g_conv[i];
        }
        let mut dt = f64::INFINITY;
        for (i, &g) in self.g_scratch.iter().enumerate() {
            if g > 0.0 {
                dt = dt.min(self.grid.capacity[i] / g);
            }
        }
        dt * 0.3
    }

    /// Advances the model by `seconds`, substepping for stability.
    ///
    /// See the module docs for the refresh-lag machinery; the paper's §5.2
    /// real-time budget (2 s of simulation on a 660-cell floorplan in under
    /// 2 s of host time) is what this hot path exists to beat.
    ///
    /// An implicit substep that exhausts its iteration budget is accepted
    /// and *recorded* in [`SolverStats`]; under
    /// [`GridConfig::strict_convergence`] use [`ThermalModel::try_step`]
    /// instead, which turns such a substep into an error.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or not finite, or (strict mode
    /// only) if an implicit substep fails to converge — call
    /// [`ThermalModel::try_step`] to handle that case gracefully.
    pub fn step(&mut self, seconds: f64) {
        if let Err(e) = self.try_step(seconds) {
            panic!("{e}");
        }
    }

    /// [`ThermalModel::step`], reporting strict-mode convergence failures
    /// as [`ThermalError::NotConverged`] instead of proceeding: integration
    /// stops at the offending substep, leaving the model at the last
    /// accepted state. Without [`GridConfig::strict_convergence`] this
    /// never errors.
    ///
    /// # Errors
    ///
    /// [`ThermalError::NotConverged`] in strict mode.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or not finite.
    pub fn try_step(&mut self, seconds: f64) -> Result<(), ThermalError> {
        assert!(seconds >= 0.0 && seconds.is_finite(), "step duration must be finite and non-negative");
        if seconds == 0.0 {
            return Ok(());
        }
        match self.cfg.integrator {
            Integrator::Explicit => {
                // The seed's arithmetic on every sweep mode: this integrator
                // is the independent physics check of the semi-implicit one.
                let dt_max = self.stable_dt();
                let n_sub = (seconds / dt_max).ceil().max(1.0) as u64;
                let dt = seconds / n_sub as f64;
                for n in 0..n_sub {
                    if n > 0 && n % K_REFRESH == 0 {
                        self.refresh_conductivities();
                    }
                    self.substep_reference(dt);
                }
                if temu_obs::enabled() {
                    substep_obs().substeps_explicit.add(n_sub);
                }
                Ok(())
            }
            Integrator::SemiImplicit { dt } => {
                let n_sub = (seconds / dt).ceil().max(1.0) as u64;
                let h = seconds / n_sub as f64;
                let reference = self.reference_mode();
                let multigrid = self.uses_multigrid();
                for _ in 0..n_sub {
                    if reference {
                        self.implicit_substep_reference(h);
                    } else {
                        let t0 = temu_obs::enabled().then(Instant::now);
                        if self.since_refresh >= REFRESH_MAX_INTERVAL
                            || self.drift_since_refresh() > REFRESH_DRIFT_K
                        {
                            self.refresh_all();
                            if t0.is_some() {
                                substep_obs().refreshes.inc();
                            }
                        }
                        let t0 = t0.map(|t0| {
                            substep_obs().refresh_ns.record_duration(t0.elapsed());
                            Instant::now()
                        });
                        if multigrid {
                            self.implicit_substep_mg(h, &mut |_, _| {});
                        } else {
                            self.implicit_substep_csr(h);
                        }
                        if let Some(t0) = t0 {
                            let o = substep_obs();
                            o.latency_ns.record_duration(t0.elapsed());
                            o.sweeps.record(self.last_sweeps as u64);
                            o.residual_nk.record(residual_nanokelvin(self.last_delta));
                            if multigrid { &o.substeps_mg } else { &o.substeps_gs }.inc();
                        }
                        self.since_refresh += 1;
                    }
                    self.check_strict()?;
                }
                Ok(())
            }
        }
    }

    /// In strict mode, converts a just-recorded unconverged substep into
    /// the typed error.
    fn check_strict(&self) -> Result<(), ThermalError> {
        if self.cfg.strict_convergence && self.last_substep_unconverged {
            return Err(ThermalError::NotConverged {
                time_s: self.time,
                residual_k: self.last_delta,
                sweeps: self.last_sweeps,
            });
        }
        Ok(())
    }

    /// One backward-Euler substep on the optimized path: solve
    /// `(C/h + G) T' = C/h * T + P + G_conv * T_amb` by Gauss–Seidel/SOR
    /// with conductances lagged at the last refresh. The system matrix is
    /// strictly diagonally dominant, so the sweeps converge unconditionally
    /// in any order.
    fn implicit_substep_csr(&mut self, h: f64) {
        let mut clock = PhaseClock::start();
        self.implicit_substep_begin(h);
        clock.lap(Phase::Residual);
        let (sweeps, delta, converged) = self.solve_serial();
        clock.lap(Phase::Smooth);
        self.record_implicit(sweeps, 0, delta, converged);
        self.implicit_substep_finish(h, self.cfg.ambient_k);
        clock.record();
    }

    /// The model's multigrid hierarchy: on the shared topology artifact
    /// when the model has one, else aggregated from the conductances of a
    /// uniform ambient field ([`MgTopology::for_grid`]). Either way it is
    /// the hierarchy of the conductances the first multigrid substep runs
    /// with, since that substep follows a refresh at the ambient field
    /// every model starts at; a restored model rebuilds the same one.
    fn build_multigrid(&self) -> Multigrid {
        let topo = self.mg_topo.clone().unwrap_or_else(|| Arc::new(MgTopology::for_grid(&self.grid, &self.cfg)));
        Multigrid::from_topology(topo)
    }

    /// One backward-Euler substep solved by flexible CG preconditioned
    /// with one multigrid K-cycle per iteration: the coarse correction on
    /// the aggregated hierarchy ([`crate::mg`]), then a symmetric
    /// Gauss–Seidel smoothing of the fine grid (see the module docs for
    /// the kernels). Falls back to plain sweeps when the mesh is too small
    /// to coarsen. `on_cycle` sees `(p, A·p)` after every cycle's direction
    /// update.
    fn implicit_substep_mg(&mut self, h: f64, on_cycle: &mut impl FnMut(&[f64], &[f64])) {
        if self.mg.is_none() {
            self.mg = Some(self.build_multigrid());
        }
        if self.mg.as_ref().expect("just built").is_degenerate() {
            self.implicit_substep_csr(h);
            return;
        }
        let mut clock = PhaseClock::start();
        self.implicit_substep_begin(h);
        let mg = self.mg.as_mut().expect("just built");
        if mg.stale_g {
            mg.refresh_g(&self.g_edge, &self.g_conv);
        }
        if !mg.diag_ready(h) {
            mg.build_diag(h);
        }
        let rows = &self.grid.csr.rows;
        let (g, diag, inv_diag) = (&self.g_entry[..], &self.diag[..], &self.inv_diag[..]);
        let (rhs, x, r) = (&self.rhs[..], &mut self.work[..], &mut self.resid[..]);
        let (z, half) = (&mut self.fcg_z[..], &mut self.fcg_half[..]);
        let (p, ap) = (&mut self.fcg_p[..], &mut self.fcg_ap[..]);
        let mut sweeps = 0usize;
        let mut cycles = 0usize;
        // Outer flexible CG on the warm-started iterate, preconditioned by
        // one multigrid cycle per iteration. The convergence measure is the
        // diagonally-scaled residual `max |r_i| / A_ii` — the size of the
        // next Jacobi update, the same "last update below tolerance"
        // contract the Gauss–Seidel path enforces.
        let mut delta = fine_residual(rows, g, diag, inv_diag, rhs, x, r);
        let mut converged = delta < SWEEP_TOL;
        clock.lap(Phase::Residual);
        let mut p_ap_prev = 0.0;
        while !converged && cycles < MAX_CYCLES {
            // Preconditioner: z ≈ A⁻¹ r. With a zero initial guess the
            // outer residual restricts directly (see [`FINE_POST_SWEEPS`])
            // and the prolonged correction is assigned, not accumulated.
            mg.coarse_correction(r, z);
            clock.lap(Phase::Coarse);
            // Forward + backward: a symmetric smoother keeps the whole
            // preconditioner symmetric positive definite, which the outer
            // conjugate-gradient acceleration rewards with visibly fewer
            // cycles than two forward sweeps.
            sweep_forward(rows, g, inv_diag, r, z, half);
            let (z_ap, z_r) = sweep_backward(rows, g, inv_diag, r, z, half, ap);
            sweeps += FINE_POST_SWEEPS;
            clock.lap(Phase::Smooth);
            // Flexible CG update (β from the stored A·p — the
            // preconditioner is not constant across iterations).
            let beta = (cycles > 0).then(|| -z_ap / p_ap_prev);
            let p_ap = fcg_direction(rows, g, diag, z, half, beta, p, ap);
            on_cycle(p, ap);
            if p_ap <= 0.0 || z_r == 0.0 {
                clock.lap(Phase::Krylov);
                break;
            }
            p_ap_prev = p_ap;
            delta = fcg_update(z_r / p_ap, p, ap, inv_diag, x, r);
            clock.lap(Phase::Krylov);
            cycles += 1;
            converged = delta < SWEEP_TOL;
        }
        self.record_implicit(sweeps, cycles, delta, converged);
        self.implicit_substep_finish(h, self.cfg.ambient_k);
        clock.record();
    }

    /// Shared head of an optimized implicit substep: per-`h` diagonals, the
    /// right-hand side and the warm start. Extrapolating the previous
    /// substep's per-cell change leaves an O(h²) leftover error under
    /// smooth heating instead of O(h) — and with *two* previous changes
    /// available, extrapolating the change linearly (`2δₙ − δₙ₋₁`) shaves
    /// another order, which typically saves most of the iterations.
    fn implicit_substep_begin(&mut self, h: f64) {
        if self.diag_h != h {
            self.build_diag(h);
        }
        // The right-hand side `C/h·T + P + G_conv·T_amb`, formed once: every
        // sweep and residual pass re-reads it.
        let amb = self.cfg.ambient_k;
        for i in 0..self.rhs.len() {
            self.rhs[i] = self.c_over_h[i] * self.temps[i] + self.cell_power[i] + self.g_conv[i] * amb;
        }
        if self.step_delta_h == h {
            if self.step_delta_prev_h == h {
                for i in 0..self.work.len() {
                    self.work[i] =
                        self.temps[i] + 2.0 * self.step_delta[i] - self.step_delta_prev[i];
                }
            } else {
                for i in 0..self.work.len() {
                    self.work[i] = self.temps[i] + self.step_delta[i];
                }
            }
        } else {
            self.work.copy_from_slice(&self.temps);
        }
    }

    /// Shared tail of an optimized implicit substep: warm-start state,
    /// energy bookkeeping on the accepted state, and the swap.
    fn implicit_substep_finish(&mut self, h: f64, amb: f64) {
        std::mem::swap(&mut self.step_delta, &mut self.step_delta_prev);
        self.step_delta_prev_h = self.step_delta_h;
        for i in 0..self.work.len() {
            self.step_delta[i] = self.work[i] - self.temps[i];
        }
        self.step_delta_h = h;
        let mut out = 0.0;
        for &(cell, _, _) in &self.grid.convection {
            out += (self.work[cell] - amb) * self.g_conv[cell];
        }
        self.energy_out += out * h;
        self.energy_in += self.total_power() * h;
        std::mem::swap(&mut self.temps, &mut self.work);
        self.time += h;
        self.substeps += 1;
    }

    /// Records one implicit substep's solver effort and convergence
    /// outcome.
    fn record_implicit(&mut self, sweeps: usize, cycles: usize, delta: f64, converged: bool) {
        self.last_sweeps = sweeps;
        self.last_cycles = cycles;
        self.last_delta = delta;
        self.last_substep_unconverged = !converged;
        self.total_sweeps += sweeps as u64;
        self.total_cycles += cycles as u64;
        if !converged {
            self.unconverged_substeps += 1;
            self.worst_unconverged_delta = self.worst_unconverged_delta.max(delta);
        }
    }

    /// Fine-grid Gauss–Seidel sweeps the last implicit substep needed
    /// (diagnostic, for the scaling benchmark's sweep statistics).
    pub fn last_sweep_count(&self) -> usize {
        self.last_sweeps
    }

    /// Multigrid K-cycles the last implicit substep needed (0 on the plain
    /// Gauss–Seidel path).
    pub fn last_cycle_count(&self) -> usize {
        self.last_cycles
    }

    /// Integration substeps taken since construction (perf accounting —
    /// the scaling benchmark's substeps/second numerator).
    pub fn substeps_taken(&self) -> u64 {
        self.substeps
    }

    /// Serial Gauss–Seidel/SOR solve in natural cell order: plain sweeps
    /// until the contraction ratio stabilizes, then over-relaxed sweeps
    /// until [`SWEEP_TOL`]. Each row sums its upper half (the previous
    /// sweep's values) first and its lower half last, ending on the
    /// freshest neighbour. Returns `(sweeps, final max |ΔT|, converged)`.
    fn solve_serial(&mut self) -> (usize, f64, bool) {
        let rows = &self.grid.csr.rows;
        let n = self.work.len();
        let (rhs, inv_diag, x) = (&self.rhs[..n], &self.inv_diag[..n], &mut self.work[..n]);
        let (off, split, g, nbr) = (&rows.offsets[..=n], &rows.split[..n], &self.g_entry[..], &rows.nbr[..]);
        let mut tuner = SorTuner::new();
        let mut omega = 1.0f64;
        let mut max_delta = f64::INFINITY;
        for sweep in 0..MAX_SWEEPS {
            max_delta = 0.0f64;
            for i in 0..n {
                let (lo, mid, hi) = (off[i] as usize, split[i] as usize, off[i + 1] as usize);
                let up = entries_dot(&g[mid..hi], &nbr[mid..hi], x);
                let num = rhs[i] + up + entries_dot(&g[lo..mid], &nbr[lo..mid], x);
                let old = x[i];
                let new = old + omega * (num * inv_diag[i] - old);
                max_delta = max_delta.max((new - old).abs());
                x[i] = new;
            }
            if max_delta < SWEEP_TOL {
                return (sweep + 1, max_delta, true);
            }
            omega = tuner.observe(sweep, max_delta);
        }
        (MAX_SWEEPS, max_delta, false)
    }

    /// The seed's backward-Euler substep (refresh every substep,
    /// natural-order serial sweeps, per-edge divisions, each row summed in
    /// neighbour order) — the golden baseline.
    fn implicit_substep_reference(&mut self, h: f64) {
        let amb = self.cfg.ambient_k;
        for i in 0..self.temps.len() {
            self.k_cell[i] = self.conductivity(i, self.temps[i]);
        }
        for (gi, e) in self.grid.edges.iter().enumerate() {
            self.g_edge[gi] = 1.0 / (e.g_a / self.k_cell[e.a] + e.g_b / self.k_cell[e.b]);
        }
        self.work.copy_from_slice(&self.temps);
        let csr = &self.grid.csr;
        let rows = &csr.rows;
        let mut sweeps = MAX_SWEEPS;
        let mut final_delta = f64::INFINITY;
        let mut converged = false;
        for sweep in 0..MAX_SWEEPS {
            let mut max_delta = 0.0f64;
            for i in 0..self.work.len() {
                let c_over_h = self.grid.capacity[i] / h;
                let mut num = c_over_h * self.temps[i] + self.cell_power[i];
                let mut diag = c_over_h;
                for k in rows.offsets[i] as usize..rows.offsets[i + 1] as usize {
                    let g = self.g_edge[rows.edge[k] as usize];
                    num += g * self.work[rows.nbr[k] as usize];
                    diag += g;
                }
                if csr.conv[i] != NO_CONV {
                    let (_, r_pkg, g_half) = self.grid.convection[csr.conv[i] as usize];
                    let g = 1.0 / (r_pkg + g_half / self.k_cell[i]);
                    num += g * amb;
                    diag += g;
                }
                let new = num / diag;
                max_delta = max_delta.max((new - self.work[i]).abs());
                self.work[i] = new;
            }
            final_delta = max_delta;
            if max_delta < SWEEP_TOL {
                sweeps = sweep + 1;
                converged = true;
                break;
            }
        }
        // The arithmetic above is the seed's; the accounting is not part
        // of the trajectory, so the reference path surfaces non-convergence
        // like every other path.
        self.record_implicit(sweeps, 0, final_delta, converged);
        let mut out = 0.0;
        for &(cell, r_pkg, g_half) in &self.grid.convection {
            out += (self.work[cell] - amb) / (r_pkg + g_half / self.k_cell[cell]);
        }
        self.energy_out += out * h;
        self.energy_in += self.total_power() * h;
        std::mem::swap(&mut self.temps, &mut self.work);
        self.time += h;
        self.substeps += 1;
    }

    /// The seed's forward-Euler substep (edge-wise divisions).
    fn substep_reference(&mut self, dt: f64) {
        let amb = self.cfg.ambient_k;
        self.flow.copy_from_slice(&self.cell_power);
        for e in &self.grid.edges {
            let r = e.g_a / self.k_cell[e.a] + e.g_b / self.k_cell[e.b];
            let q = (self.temps[e.a] - self.temps[e.b]) / r;
            self.flow[e.a] -= q;
            self.flow[e.b] += q;
        }
        let mut out = 0.0;
        for &(cell, r_pkg, g_half) in &self.grid.convection {
            let r = r_pkg + g_half / self.k_cell[cell];
            let q = (self.temps[cell] - amb) / r;
            self.flow[cell] -= q;
            out += q;
        }
        for i in 0..self.temps.len() {
            self.temps[i] += self.flow[i] * dt / self.grid.capacity[i];
        }
        self.energy_in += self.total_power() * dt;
        self.energy_out += out * dt;
        self.time += dt;
        self.substeps += 1;
    }

    /// Runs until the hottest cell changes by less than `tol_k_per_s` kelvin
    /// per second (or `max_seconds` elapse). Returns the simulated seconds it
    /// took.
    ///
    /// The probe interval between convergence checks starts at 50 ms and
    /// doubles (capped at 1.6 s) once the rate falls within an order of
    /// magnitude of the tolerance — the long exponential tail of a large
    /// mesh is screened with a handful of checks instead of thousands of
    /// tiny ones.
    pub fn run_to_steady(&mut self, max_seconds: f64, tol_k_per_s: f64) -> f64 {
        let start = self.time;
        let mut probe = 0.05f64;
        while self.time - start < max_seconds {
            let before = self.max_temp();
            let window = probe.min(max_seconds - (self.time - start)).max(1e-9);
            self.step(window);
            let rate = (self.max_temp() - before).abs() / window;
            if rate < tol_k_per_s {
                break;
            }
            if rate < 10.0 * tol_k_per_s {
                probe = (probe * 2.0).min(1.6);
            }
        }
        self.time - start
    }
}

/// Forward half of the fine symmetric Gauss–Seidel smoother on `A z = b`,
/// from the prolonged correction in `z`. Each row sums its upper half (the
/// previous values) first and its lower half last, ending on the freshest
/// neighbour; the lower sums are stored in `lower` for [`sweep_backward`].
fn sweep_forward(
    rows: &SortedRows,
    g: &[f64],
    inv_diag: &[f64],
    b: &[f64],
    z: &mut [f64],
    lower: &mut [f64],
) {
    let n = z.len();
    let (inv_diag, b, lower) = (&inv_diag[..n], &b[..n], &mut lower[..n]);
    let (off, split, nbr) = (&rows.offsets[..=n], &rows.split[..n], &rows.nbr[..]);
    for i in 0..n {
        let (lo, mid, hi) = (off[i] as usize, split[i] as usize, off[i + 1] as usize);
        let up = entries_dot(&g[mid..hi], &nbr[mid..hi], z);
        let (low, fresh) = entries_dot_fresh_last(&g[lo..mid], &nbr[lo..mid], z);
        z[i] = (b[i] + up + low + fresh) * inv_diag[i];
        lower[i] = low + fresh;
    }
}

/// Backward half of the smoother, by Eisenstat's trick: when row `i` is
/// updated its lower neighbours still hold the forward sweep's values, so
/// the lower sum [`sweep_forward`] stored in `half` is reused and only the
/// upper half is walked. The upper sums — those of the final `z` —
/// replace the lower ones in `half`. Returns `(z·ap, z·b)`, the flexible
/// CG's β and α numerators (`ap` still holds the previous `A·p`).
fn sweep_backward(
    rows: &SortedRows,
    g: &[f64],
    inv_diag: &[f64],
    b: &[f64],
    z: &mut [f64],
    half: &mut [f64],
    ap: &[f64],
) -> (f64, f64) {
    let n = z.len();
    let (inv_diag, b, half, ap) = (&inv_diag[..n], &b[..n], &mut half[..n], &ap[..n]);
    let (off, split, nbr) = (&rows.offsets[..=n], &rows.split[..n], &rows.nbr[..]);
    let (mut z_ap, mut z_b) = (0.0, 0.0);
    for i in (0..n).rev() {
        let (mid, hi) = (split[i] as usize, off[i + 1] as usize);
        let (up, fresh) = entries_dot_fresh_first(&g[mid..hi], &nbr[mid..hi], z);
        let zi = (b[i] + half[i] + up + fresh) * inv_diag[i];
        z[i] = zi;
        half[i] = up + fresh;
        z_ap += zi * ap[i];
        z_b += zi * b[i];
    }
    (z_ap, z_b)
}

/// The flexible-CG direction in one pass over the lower halves:
/// `A·z = D·z − lower − upper`, with the upper sums [`sweep_backward`]
/// stored, then `p = z + β·p` and `A·p = A·z + β·A·p` (the CG recurrence;
/// `None` starts a fresh direction `p = z`). Returns `p·A·p`.
#[allow(clippy::too_many_arguments)] // one fused pass over the cycle's vectors
fn fcg_direction(
    rows: &SortedRows,
    g: &[f64],
    diag: &[f64],
    z: &[f64],
    upper: &[f64],
    beta: Option<f64>,
    p: &mut [f64],
    ap: &mut [f64],
) -> f64 {
    let n = z.len();
    let (diag, upper, p, ap) = (&diag[..n], &upper[..n], &mut p[..n], &mut ap[..n]);
    let (off, split, nbr) = (&rows.offsets[..=n], &rows.split[..n], &rows.nbr[..]);
    let mut p_ap = 0.0;
    for i in 0..n {
        let (lo, mid) = (off[i] as usize, split[i] as usize);
        let az = diag[i] * z[i] - entries_dot(&g[lo..mid], &nbr[lo..mid], z) - upper[i];
        let (pi, api) = match beta {
            Some(beta) => (z[i] + beta * p[i], az + beta * ap[i]),
            None => (z[i], az),
        };
        p[i] = pi;
        ap[i] = api;
        p_ap += pi * api;
    }
    p_ap
}

/// The flexible-CG update `x += α·p`, `r −= α·A·p`; returns
/// `max_i |r_i| / A_ii` (the size of the next Jacobi update).
fn fcg_update(alpha: f64, p: &[f64], ap: &[f64], inv_diag: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = x.len();
    let (p, ap, inv_diag, r) = (&p[..n], &ap[..n], &inv_diag[..n], &mut r[..n]);
    max_in_lanes(n, |i| {
        x[i] += alpha * p[i];
        let ri = r[i] - alpha * ap[i];
        r[i] = ri;
        (ri * inv_diag[i]).abs()
    })
}

/// Fine-grid residual `r = rhs - A x` of the implicit system; returns
/// `max_i |r_i| / A_ii` (the size of the next Jacobi update) in the same
/// pass.
fn fine_residual(
    rows: &SortedRows,
    g: &[f64],
    diag: &[f64],
    inv_diag: &[f64],
    rhs: &[f64],
    x: &[f64],
    r: &mut [f64],
) -> f64 {
    let n = x.len();
    let (diag, inv_diag, rhs, r) = (&diag[..n], &inv_diag[..n], &rhs[..n], &mut r[..n]);
    let (off, nbr) = (&rows.offsets[..=n], &rows.nbr[..]);
    let mut delta = 0.0f64;
    for i in 0..n {
        let (lo, hi) = (off[i] as usize, off[i + 1] as usize);
        let ri = rhs[i] - diag[i] * x[i] + entries_dot(&g[lo..hi], &nbr[lo..hi], x);
        r[i] = ri;
        delta = delta.max((ri * inv_diag[i]).abs());
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::grid::ImplicitSolve;
    use crate::reference::analytic_stack_temp;

    fn uniform(power: f64, cfg: &GridConfig) -> ThermalModel {
        let mut fp = Floorplan::new("u", 2000.0, 2000.0);
        let c = fp.add_component("all", 0.0, 0.0, 2000.0, 2000.0, false);
        let mut m = ThermalModel::new(&fp, cfg).unwrap();
        m.set_component_power(c, power);
        m
    }

    /// Runs `m` for `pre` steps of `dt`, snapshots into a fresh model built
    /// by `fresh`, then steps both (and an uninterrupted twin is `m`
    /// itself) `post` more times and asserts bitwise-equal trajectories.
    fn assert_restore_bitwise(
        mut m: ThermalModel,
        fresh: impl Fn() -> ThermalModel,
        dt: f64,
        pre: usize,
        post: usize,
    ) {
        for _ in 0..pre {
            m.step(dt);
        }
        let snap = m.snapshot();
        let mut r = fresh();
        r.restore(&snap).unwrap();
        assert_eq!(m.temps(), r.temps(), "restore reproduces the temperature field exactly");
        assert_eq!(m.time().to_bits(), r.time().to_bits());
        assert_eq!(m.solver_stats(), r.solver_stats());
        for i in 0..post {
            m.step(dt);
            r.step(dt);
            assert_eq!(m.temps(), r.temps(), "step {i} after restore diverged");
        }
        assert_eq!(m.energy_in().to_bits(), r.energy_in().to_bits());
        assert_eq!(m.energy_out().to_bits(), r.energy_out().to_bits());
        assert_eq!(m.solver_stats(), r.solver_stats());
    }

    #[test]
    fn snapshot_restore_gauss_seidel_bitwise() {
        let cfg = GridConfig { implicit_solve: ImplicitSolve::GaussSeidel, ..GridConfig::default() };
        assert_restore_bitwise(uniform(2.0, &cfg), || uniform(2.0, &cfg), 0.02, 7, 9);
    }

    #[test]
    fn snapshot_restore_multigrid_bitwise() {
        let cfg = GridConfig {
            implicit_solve: ImplicitSolve::Multigrid,
            ..GridConfig::default()
        };
        assert_restore_bitwise(uniform(2.0, &cfg), || uniform(2.0, &cfg), 0.02, 7, 9);
    }

    #[test]
    fn snapshot_restore_explicit_bitwise() {
        let cfg = GridConfig { integrator: Integrator::Explicit, ..GridConfig::default() };
        assert_restore_bitwise(uniform(2.0, &cfg), || uniform(2.0, &cfg), 0.01, 3, 4);
    }

    #[test]
    fn snapshot_restore_with_power_change_midway() {
        // The restored model must track a *changed* input trajectory too.
        let cfg = GridConfig { implicit_solve: ImplicitSolve::GaussSeidel, ..GridConfig::default() };
        let mut m = uniform(2.0, &cfg);
        for _ in 0..5 {
            m.step(0.02);
        }
        let snap = m.snapshot();
        let mut r = uniform(0.0, &cfg);
        r.restore(&snap).unwrap();
        m.set_component_power(0, 4.0);
        r.set_component_power(0, 4.0);
        for _ in 0..5 {
            m.step(0.02);
            r.step(0.02);
        }
        assert_eq!(m.temps(), r.temps());
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let cfg = GridConfig::default();
        let m = uniform(1.0, &cfg);
        let snap = m.snapshot();
        let fine = GridConfig { default_div: cfg.default_div * 2, ..cfg };
        let mut other = uniform(1.0, &fine);
        assert!(other.restore(&snap).is_err());
        let before = other.temps().to_vec();
        assert_eq!(other.temps(), &before[..], "failed restore leaves the model unchanged");
    }

    #[test]
    fn restore_rejects_corrupt_stream() {
        let m = uniform(1.0, &GridConfig::default());
        let mut snap = m.snapshot();
        snap.truncate(snap.len() - 3);
        let mut r = uniform(1.0, &GridConfig::default());
        assert!(r.restore(&snap).is_err());
    }

    #[test]
    fn starts_at_ambient() {
        let m = uniform(0.0, &GridConfig::default());
        assert_eq!(m.max_temp(), 300.0);
        assert_eq!(m.min_temp(), 300.0);
        assert_eq!(m.time(), 0.0);
    }

    #[test]
    fn no_power_stays_at_ambient() {
        let mut m = uniform(0.0, &GridConfig::default());
        m.step(0.5);
        assert!((m.max_temp() - 300.0).abs() < 1e-9);
        assert!((m.min_temp() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn heating_is_monotone_and_bottom_is_hottest() {
        let mut m = uniform(2.0, &GridConfig::default());
        let mut prev = 300.0;
        for _ in 0..5 {
            m.step(0.05);
            let t = m.max_temp();
            assert!(t > prev, "temperature rises under constant power");
            prev = t;
        }
        // Heat is injected at the bottom: the bottom silicon layer must be
        // the hottest region.
        let n_tiles = m.grid().n_tiles();
        let bottom_max = m.temps()[..n_tiles].iter().copied().fold(f64::MIN, f64::max);
        assert!((bottom_max - m.max_temp()).abs() < 1e-9);
    }

    #[test]
    fn energy_conservation_adiabatic() {
        // Forward Euler injects exactly P*dt per substep, so stored energy
        // must match injected energy to rounding.
        let cfg = GridConfig {
            package_to_air: f64::INFINITY,
            integrator: Integrator::Explicit,
            ..GridConfig::default()
        };
        let mut m = uniform(3.0, &cfg);
        m.step(0.2);
        let injected = m.energy_in();
        let stored = m.stored_energy();
        assert!((injected - 3.0 * 0.2).abs() < 1e-9);
        assert!(
            ((stored - injected) / injected).abs() < 1e-6,
            "stored {stored} J vs injected {injected} J"
        );
    }

    #[test]
    fn steady_state_energy_balance() {
        let mut m = uniform(2.0, &GridConfig::default());
        m.run_to_steady(50.0, 0.01);
        // At steady state, the convected flow equals the injected power:
        // check via a short window's energy deltas.
        let in0 = m.energy_in();
        let out0 = m.energy_out();
        m.step(0.1);
        let din = m.energy_in() - in0;
        let dout = m.energy_out() - out0;
        assert!((din - dout).abs() / din < 0.01, "in {din} J vs out {dout} J over the window");
    }

    #[test]
    fn uniform_steady_state_matches_analytic_stack() {
        // Linear silicon so the 1-D closed form is exact.
        let cfg = GridConfig {
            silicon_k_override: Some(120.0),
            default_div: 2,
            ..GridConfig::default()
        };
        let mut m = uniform(2.0, &cfg);
        m.run_to_steady(200.0, 1e-3);
        let die_area = 2e-3 * 2e-3;
        let expect = analytic_stack_temp(2.0, die_area, &cfg, 120.0);
        let got = m.component_temp(0);
        assert!(
            (got - expect).abs() < 0.05,
            "bottom temperature {got:.3} K vs analytic {expect:.3} K"
        );
    }

    #[test]
    fn nonlinear_silicon_runs_hotter_than_linear_at_high_power() {
        // k(T) drops as T rises, so the non-linear die must end up hotter
        // than a linear one evaluated at the 300 K conductivity.
        let linear = GridConfig { silicon_k_override: Some(150.0), ..GridConfig::default() };
        let nonlinear = GridConfig::default();
        let mut a = uniform(8.0, &linear);
        let mut b = uniform(8.0, &nonlinear);
        a.run_to_steady(100.0, 0.01);
        b.run_to_steady(100.0, 0.01);
        assert!(b.max_temp() > a.max_temp());
    }

    #[test]
    fn symmetric_floorplan_heats_symmetrically() {
        let mut fp = Floorplan::new("sym", 4000.0, 2000.0);
        let l = fp.add_component("left", 0.0, 0.0, 1000.0, 2000.0, true);
        let r = fp.add_component("right", 3000.0, 0.0, 1000.0, 2000.0, true);
        let mut m = ThermalModel::new(&fp, &GridConfig::default()).unwrap();
        m.set_component_power(l, 1.0);
        m.set_component_power(r, 1.0);
        m.step(0.5);
        // Gauss-Seidel sweep order breaks exactness at the solver tolerance;
        // anything below a micro-kelvin is symmetric for every physical
        // purpose.
        assert!((m.component_temp(l) - m.component_temp(r)).abs() < 1e-5);
    }

    #[test]
    fn hotter_component_reads_hotter_sensor() {
        let mut fp = Floorplan::new("two", 4000.0, 2000.0);
        let busy = fp.add_component("busy", 0.0, 0.0, 1000.0, 2000.0, true);
        let idle = fp.add_component("idle", 3000.0, 0.0, 1000.0, 2000.0, true);
        let mut m = ThermalModel::new(&fp, &GridConfig::default()).unwrap();
        m.set_component_power(busy, 2.0);
        m.set_component_power(idle, 0.1);
        m.step(1.0);
        assert!(m.component_temp(busy) > m.component_temp(idle) + 1.0);
        let temps = m.component_temps();
        assert!((temps[busy] - m.component_temp(busy)).abs() < 1e-12);
    }

    #[test]
    fn refinement_insensitivity() {
        // The component sensor reading must be stable under mesh refinement:
        // every coarser mesh stays within a degree of the finest one on a
        // ~50 K rise (the role the paper's FE calibration played).
        let mut fp = Floorplan::new("c", 3000.0, 3000.0);
        fp.add_component("cpu", 1000.0, 1000.0, 1000.0, 1000.0, true);
        let mut temps = Vec::new();
        for div in [1usize, 2, 4, 6] {
            let cfg = GridConfig { hot_div: div, filler_pitch_um: 750.0, ..GridConfig::default() };
            let mut m = ThermalModel::new(&fp, &cfg).unwrap();
            m.set_component_power(0, 1.5);
            m.run_to_steady(100.0, 0.01);
            temps.push(m.component_temp(0));
        }
        let finest = *temps.last().unwrap();
        assert!(finest > 320.0, "the component heated up: {finest:.1} K");
        for (i, t) in temps.iter().enumerate() {
            assert!((t - finest).abs() < 1.0, "mesh {i}: {t:.3} K vs finest {finest:.3} K");
        }
    }

    #[test]
    fn semi_implicit_matches_explicit_trajectory() {
        // The two integrators must agree on a heating transient to within a
        // small fraction of the temperature rise.
        let explicit = GridConfig { integrator: Integrator::Explicit, ..GridConfig::default() };
        let implicit = GridConfig { integrator: Integrator::SemiImplicit { dt: 2e-4 }, ..GridConfig::default() };
        let mut a = uniform(3.0, &explicit);
        let mut b = uniform(3.0, &implicit);
        for _ in 0..10 {
            a.step(0.01);
            b.step(0.01);
            let rise = a.max_temp() - 300.0;
            let diff = (a.max_temp() - b.max_temp()).abs();
            assert!(diff < 0.02 + 0.02 * rise, "explicit {:.4} K vs implicit {:.4} K", a.max_temp(), b.max_temp());
        }
    }

    #[test]
    fn semi_implicit_energy_balance_approximate() {
        // Backward Euler + Gauss-Seidel conserves energy to solver tolerance.
        let cfg = GridConfig { package_to_air: f64::INFINITY, ..GridConfig::default() };
        let mut m = uniform(3.0, &cfg);
        m.step(0.2);
        let injected = m.energy_in();
        let stored = m.stored_energy();
        assert!(((stored - injected) / injected).abs() < 1e-3, "stored {stored} J vs injected {injected} J");
    }

    #[test]
    fn semi_implicit_is_stable_with_huge_steps() {
        let cfg = GridConfig { integrator: Integrator::SemiImplicit { dt: 0.05 }, ..GridConfig::default() };
        let mut m = uniform(5.0, &cfg);
        m.step(5.0);
        assert!(m.max_temp().is_finite());
        assert!(m.max_temp() > 300.0 && m.max_temp() < 600.0, "no blow-up: {}", m.max_temp());
    }

    #[test]
    fn power_update_replaces_previous_injection() {
        let mut m = uniform(5.0, &GridConfig::default());
        m.set_component_power(0, 1.0);
        assert!((m.total_power() - 1.0).abs() < 1e-12, "power is replaced, not accumulated");
    }

    #[test]
    fn cooling_after_power_off() {
        let mut m = uniform(4.0, &GridConfig::default());
        m.step(1.0);
        let hot = m.max_temp();
        m.set_component_power(0, 0.0);
        m.step(5.0);
        assert!(m.max_temp() < hot, "die cools once power is removed");
        assert!(m.max_temp() >= 300.0 - 1e-6, "never below ambient");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_power_panics() {
        let mut m = uniform(0.0, &GridConfig::default());
        m.set_component_power(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "one power value per floorplan component")]
    fn wrong_power_vector_length_panics() {
        let mut m = uniform(0.0, &GridConfig::default());
        m.set_powers(&[1.0, 2.0]);
    }

    /// Max |ΔT| between two models' cell temperatures.
    fn max_abs_diff(a: &ThermalModel, b: &ThermalModel) -> f64 {
        a.temps()
            .iter()
            .zip(b.temps())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn optimized_modes_match_reference_trajectory() {
        // The optimized serial path must track the reference path within
        // 1e-4 K over a transient (the explicit integrator has one path).
        let base = GridConfig { integrator: Integrator::SemiImplicit { dt: 5e-4 }, hot_div: 4, ..GridConfig::default() };
        let mut fp = Floorplan::new("eq", 4000.0, 2000.0);
        let l = fp.add_component("left", 0.0, 0.0, 1000.0, 2000.0, true);
        let r = fp.add_component("right", 3000.0, 0.0, 1000.0, 2000.0, true);
        let build = |sweep| {
            let cfg = GridConfig { sweep, ..base };
            let mut m = ThermalModel::new(&fp, &cfg).unwrap();
            m.set_component_power(l, 2.0);
            m.set_component_power(r, 0.5);
            m
        };
        let mut reference = build(SweepMode::Reference);
        let mut serial = build(SweepMode::Serial);
        for _ in 0..20 {
            reference.step(0.01);
            serial.step(0.01);
        }
        let ds = max_abs_diff(&reference, &serial);
        assert!(ds < 1e-4, "serial drift {ds:.2e} K");
    }

    #[test]
    fn adaptive_probe_still_reaches_steady_state() {
        // Same steady state as a fixed-probe run, with the probe growth
        // engaged (long max_seconds budget, tight tolerance).
        let cfg = GridConfig { silicon_k_override: Some(120.0), ..GridConfig::default() };
        let mut m = uniform(2.0, &cfg);
        m.run_to_steady(200.0, 1e-3);
        let die_area = 2e-3 * 2e-3;
        let expect = analytic_stack_temp(2.0, die_area, &cfg, 120.0);
        assert!((m.component_temp(0) - expect).abs() < 0.05);
    }

    #[test]
    fn stable_dt_reuses_scratch_and_is_positive() {
        let mut m = uniform(2.0, &GridConfig::default());
        let a = m.stable_dt();
        let b = m.stable_dt();
        assert!(a > 0.0 && a.is_finite());
        assert!((a - b).abs() < 1e-18, "same state, same dt");
    }

    #[test]
    fn with_artifacts_shares_one_mesh_and_matches_fresh_build() {
        let mut fp = Floorplan::new("art", 4000.0, 2000.0);
        let l = fp.add_component("left", 0.0, 0.0, 1000.0, 2000.0, true);
        let cfg = GridConfig::default();
        let fresh = ThermalModel::new(&fp, &cfg).unwrap();
        let grid = fresh.grid_arc();
        let mut a = ThermalModel::with_artifacts(grid.clone(), None, &cfg).unwrap();
        let mut b = ThermalModel::with_artifacts(grid.clone(), None, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a.grid, &b.grid), "one mesh, two models");
        // A model on a shared mesh follows the exact fresh-build trajectory.
        let mut fresh = fresh;
        fresh.set_component_power(l, 2.0);
        a.set_component_power(l, 2.0);
        b.set_component_power(l, 0.5);
        for _ in 0..5 {
            fresh.step(0.01);
            a.step(0.01);
            b.step(0.01);
        }
        assert_eq!(fresh.temps(), a.temps(), "shared mesh changes nothing");
        assert!(b.max_temp() < a.max_temp(), "sibling state stays independent");
    }

    #[test]
    fn fcg_recurrence_tracks_the_direct_operator() {
        // `A·p` comes from `A·z` by the CG recurrence instead of its own
        // pass; after every cycle it must still be the operator applied
        // to `p`.
        let mut fp = Floorplan::new("rec", 4000.0, 4000.0);
        let c = fp.add_component("hot", 500.0, 500.0, 2000.0, 2000.0, true);
        let cfg = GridConfig { hot_div: 24, implicit_solve: ImplicitSolve::Multigrid, ..GridConfig::default() };
        let mut m = ThermalModel::new(&fp, &cfg).unwrap();
        m.set_component_power(c, 1.0);
        m.step(0.004);
        m.set_component_power(c, 6.0);
        let mut log: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        m.implicit_substep_mg(5e-4, &mut |p, ap| log.push((p.to_vec(), ap.to_vec())));
        assert!(log.len() >= 3, "the substep ran {} cycles", log.len());
        let rows = &m.grid.csr.rows;
        for (cycle, (p, ap)) in log.iter().enumerate() {
            let direct: Vec<f64> = (0..p.len())
                .map(|i| {
                    let row = rows.offsets[i] as usize..rows.offsets[i + 1] as usize;
                    m.diag[i] * p[i] - entries_dot(&m.g_entry[row.clone()], &rows.nbr[row], p)
                })
                .collect();
            let scale = direct.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            let worst = direct.iter().zip(ap).fold(0.0f64, |s, (d, a)| s.max((d - a).abs()));
            assert!(worst <= 1e-10 * scale, "cycle {cycle}: |Δ(A·p)| {worst:e} against {scale:e}");
        }
    }

    #[test]
    fn shared_mg_topology_matches_lazy_build() {
        // A model handed the topology artifact must integrate bit-for-bit
        // like one that lazily coarsens its own hierarchy.
        let mut fp = Floorplan::new("mgshare", 4000.0, 4000.0);
        let c = fp.add_component("hot", 500.0, 500.0, 2000.0, 2000.0, true);
        let cfg = GridConfig {
            hot_div: 12,
            implicit_solve: ImplicitSolve::Multigrid,
            ..GridConfig::default()
        };
        let mut lazy = ThermalModel::new(&fp, &cfg).unwrap();
        let topo = Arc::new(MgTopology::for_grid(lazy.grid(), &cfg));
        let mut shared =
            ThermalModel::with_artifacts(lazy.grid_arc(), Some(topo), &cfg).unwrap();
        lazy.set_component_power(c, 3.0);
        shared.set_component_power(c, 3.0);
        for _ in 0..5 {
            lazy.step(0.01);
            shared.step(0.01);
        }
        assert!(lazy.uses_multigrid() && lazy.multigrid_levels().unwrap() >= 2);
        assert_eq!(lazy.multigrid_levels(), shared.multigrid_levels());
        assert_eq!(lazy.temps(), shared.temps(), "identical trajectories");
    }
}
