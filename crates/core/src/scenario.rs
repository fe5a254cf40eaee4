//! Fluent experiment construction: one [`Scenario`] = one runnable
//! co-emulation.
//!
//! A scenario composes everything an experiment needs — platform
//! (cores/caches/interconnect), workload (with parameters and input
//! images), power model, thermal grid/solver configuration, DFS policy,
//! floorplan, run budget and an optional FPGA-fit gate — and builds it into
//! a ready-to-run [`ThermalEmulation`]. Named presets reproduce the paper's
//! experiments in one line; builder methods tweak any knob from there:
//!
//! ```
//! use temu_framework::{Scenario, TemuError};
//!
//! # fn main() -> Result<(), TemuError> {
//! let run = Scenario::exploration_bus(2)
//!     .sampling_window_s(0.002)
//!     .run()?;
//! assert!(run.report.all_halted);
//! # Ok(())
//! # }
//! ```

use crate::artifacts::ArtifactCache;
use crate::emulation::{EmulationConfig, EmulationReport, EmulationState, ThermalEmulation};
use crate::error::TemuError;
use crate::sweep::{fnv1a64, fnv1a64_fold};
use crate::trace::ThermalTrace;
use temu_fpga::{estimate, CostModel, Device, V2VP30};
use temu_isa::Program;
use temu_link::EthernetConfig;
use temu_mem::{CacheConfig, MemArray, MemError};
use temu_platform::{DfsPolicy, IcChoice, Machine, PlatformConfig};
use temu_power::floorplans::quad_core;
use temu_power::{CoreKind, FloorplanMap, PowerModel};
use temu_thermal::{GridConfig, ImplicitSolve, SweepMode, ThermalGrid, ThermalModel};
use temu_workloads::dithering::{self, DitherConfig};
use temu_workloads::image::GreyImage;
use temu_workloads::matrix::{self, MatrixConfig};
use temu_workloads::{WorkloadError, SHARED_BASE};

/// The SW driver a scenario runs, with its parameters and input data.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Workload {
    /// The MATRIX / MATRIX-TM kernel (§7).
    Matrix(MatrixConfig),
    /// The DITHERING filter (§7) over synthetic grey images derived from
    /// `seed`.
    Dithering {
        /// Geometry and distribution of the filter.
        cfg: DitherConfig,
        /// Seed of the deterministic synthetic input images.
        seed: u64,
    },
}

impl Workload {
    /// Cores the workload is parameterized for.
    pub fn cores(&self) -> u32 {
        match self {
            Workload::Matrix(c) => c.cores,
            Workload::Dithering { cfg, .. } => cfg.cores,
        }
    }

    /// Generates the TE32 program.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for a degenerate configuration.
    pub fn program(&self) -> Result<Program, WorkloadError> {
        match self {
            Workload::Matrix(c) => matrix::program(c),
            Workload::Dithering { cfg, .. } => dithering::program(cfg),
        }
    }

    /// A short human-readable label ("matrix-16x16x1000", "dither-64x64x2").
    pub fn label(&self) -> String {
        match self {
            Workload::Matrix(c) => format!("matrix-{}x{}x{}", c.n, c.n, c.iters),
            Workload::Dithering { cfg, .. } => {
                format!("dither-{}x{}x{}", cfg.width, cfg.height, cfg.images)
            }
        }
    }

    /// Loads the workload's input data into `shared`, a machine's shared
    /// memory (either engine's).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] when an input does not fit in `shared`.
    pub fn load_inputs(&self, shared: &mut MemArray) -> Result<(), MemError> {
        if let Workload::Dithering { cfg, seed } = self {
            for i in 0..cfg.images {
                let img = GreyImage::synthetic(cfg.width as usize, cfg.height as usize, seed + u64::from(i));
                shared.load(cfg.image_addr(i) - SHARED_BASE, &img.pixels)?;
            }
        }
        Ok(())
    }
}

/// How long a scenario runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunBudget {
    /// Run until every core halts, or at most this many sampling windows.
    ToHalt {
        /// The window cap.
        max_windows: u64,
    },
    /// Run exactly this many sampling windows, halted or not (long thermal
    /// observations over repeating workloads).
    Windows(u64),
}

/// One fully-described co-emulation experiment (see the module docs).
///
/// The builder is by-value: every method consumes and returns the scenario,
/// so configurations chain fluently and clone cheaply into sweeps.
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    named: bool,
    platform: PlatformConfig,
    floorplan: Option<FloorplanMap>,
    workload: Workload,
    emu: EmulationConfig,
    budget: RunBudget,
    fit_device: Option<Device>,
}

impl Default for Scenario {
    fn default() -> Scenario {
        Scenario::new()
    }
}

impl Scenario {
    /// The default experiment: the §7 thermal platform (4 cores, 8 KB
    /// caches, 4-switch NoC at 500 MHz virtual) running a moderate MATRIX
    /// workload to halt.
    pub fn new() -> Scenario {
        Scenario {
            name: String::new(),
            named: false,
            platform: PlatformConfig::paper_thermal(4),
            floorplan: None,
            workload: Workload::Matrix(MatrixConfig::thermal(4, 1_000)),
            emu: EmulationConfig::default(),
            budget: RunBudget::ToHalt { max_windows: 10_000 },
            fit_device: None,
        }
    }

    // ---- presets -------------------------------------------------------

    /// The Fig. 6 headline experiment: MATRIX-TM on the 4×ARM11 floorplan
    /// at 500 MHz with the paper's dual-threshold DFS policy. Observed for
    /// 3 virtual seconds — the die crosses the 350 K threshold near 2.6 s
    /// (the package heats with a ~4.6 s time constant), so the policy's
    /// saw-tooth is visible by the end of the window budget.
    pub fn paper_fig6() -> Scenario {
        Scenario::paper_fig6_unmanaged().policy(DfsPolicy::paper()).name("paper-fig6-dfs")
    }

    /// The Fig. 6 baseline: same stress workload without thermal
    /// management (500 MHz throughout).
    pub fn paper_fig6_unmanaged() -> Scenario {
        Scenario::new()
            .workload(Workload::Matrix(MatrixConfig::thermal(4, 20_000)))
            .windows(300)
            .name("paper-fig6-unmanaged")
    }

    /// A MATRIX-TM thermal-stress variant with a chosen iteration count,
    /// run to halt.
    pub fn thermal_stress(iters: u32) -> Scenario {
        Scenario::new()
            .workload(Workload::Matrix(MatrixConfig::thermal(4, iters)))
            .name(format!("thermal-stress-{iters}"))
    }

    /// A §7 exploration point: `cores` processors with 4 KB L1s behind the
    /// OPB bus, running the DITHERING workload to halt.
    pub fn exploration_bus(cores: usize) -> Scenario {
        Scenario::new()
            .platform(PlatformConfig::paper_bus(cores))
            .workload(Workload::Dithering {
                cfg: DitherConfig { width: 64, height: 64, images: 2, cores: cores as u32 },
                seed: 7,
            })
    }

    /// The same exploration point on the paper's two-switch NoC.
    pub fn exploration_noc(cores: usize) -> Scenario {
        Scenario::exploration_bus(cores).platform(PlatformConfig::paper_noc(cores))
    }

    // ---- builder knobs -------------------------------------------------

    /// Names the scenario (campaign reports key on this; defaults to a
    /// label derived from the configuration).
    pub fn name(mut self, name: impl Into<String>) -> Scenario {
        self.name = name.into();
        self.named = true;
        self
    }

    /// Replaces the whole platform configuration.
    pub fn platform(mut self, platform: PlatformConfig) -> Scenario {
        self.platform = platform;
        self
    }

    /// Resizes the experiment to `cores` processors: platform core count,
    /// interconnect attachment ports and the workload's distribution are
    /// all retargeted together.
    pub fn cores(mut self, cores: usize) -> Scenario {
        self.platform.cores = cores;
        match &mut self.platform.interconnect {
            IcChoice::Bus(b) => b.initiators = cores,
            IcChoice::Noc(n) => {
                let switches = n.topology.switches().max(1);
                n.core_switch = (0..cores).map(|c| c % switches).collect();
            }
        }
        match &mut self.workload {
            Workload::Matrix(c) => c.cores = cores as u32,
            Workload::Dithering { cfg, .. } => cfg.cores = cores as u32,
        }
        self
    }

    /// Sets both L1 caches to the same geometry.
    pub fn caches(mut self, cache: CacheConfig) -> Scenario {
        self.platform.icache = Some(cache);
        self.platform.dcache = Some(cache);
        self
    }

    /// Replaces the workload.
    pub fn workload(mut self, workload: Workload) -> Scenario {
        self.workload = workload;
        self
    }

    /// Enables run-time thermal management with the given DFS policy.
    pub fn policy(mut self, policy: DfsPolicy) -> Scenario {
        self.emu.policy = Some(policy);
        self
    }

    /// Disables run-time thermal management (the default).
    pub fn no_policy(mut self) -> Scenario {
        self.emu.policy = None;
        self
    }

    /// Sets the statistics sampling window (virtual seconds; the paper
    /// uses 10 ms).
    pub fn sampling_window_s(mut self, window_s: f64) -> Scenario {
        self.emu.sampling_window_s = window_s;
        self
    }

    /// Replaces the thermal meshing/solver configuration.
    pub fn grid(mut self, grid: GridConfig) -> Scenario {
        self.emu.grid = grid;
        self
    }

    /// Selects the optimized solver or the reference one, the seed's
    /// algorithm (see [`SweepMode`]).
    pub fn sweep(mut self, sweep: SweepMode) -> Scenario {
        self.emu.grid.sweep = sweep;
        self
    }

    /// Selects the semi-implicit linear-system strategy (plain
    /// Gauss–Seidel, geometric multigrid, or the cell-count-resolved
    /// [`ImplicitSolve::Auto`] default).
    pub fn implicit_solve(mut self, solve: ImplicitSolve) -> Scenario {
        self.emu.grid.implicit_solve = solve;
        self
    }

    /// Demands strict solver convergence: a thermal substep that exhausts
    /// its iteration budget fails the run with a typed
    /// [`TemuError::Thermal`] instead of silently proceeding on an
    /// unconverged temperature field. Off by default — but even then every
    /// such substep is counted in
    /// [`EmulationReport::solver`](crate::EmulationReport).
    pub fn strict_convergence(mut self, strict: bool) -> Scenario {
        self.emu.grid.strict_convergence = strict;
        self
    }

    /// Replaces the activity-to-power conversion model.
    pub fn power(mut self, power: PowerModel) -> Scenario {
        self.emu.power = power;
        self
    }

    /// Replaces the statistics-link parameters.
    pub fn link(mut self, link: EthernetConfig) -> Scenario {
        self.emu.link = link;
        self
    }

    /// Uses an explicit floorplan instead of the Fig. 4 layout derived
    /// from the platform.
    pub fn floorplan(mut self, map: FloorplanMap) -> Scenario {
        self.floorplan = Some(map);
        self
    }

    /// Runs exactly `n` sampling windows.
    pub fn windows(mut self, n: u64) -> Scenario {
        self.budget = RunBudget::Windows(n);
        self
    }

    /// Runs until every core halts, capped at `max_windows` windows.
    pub fn to_halt(mut self, max_windows: u64) -> Scenario {
        self.budget = RunBudget::ToHalt { max_windows };
        self
    }

    /// Gates the build on the FPGA cost model: building fails with
    /// [`TemuError::DoesNotFit`] if the platform exceeds `device` (the
    /// paper's pre-synthesis check, §6).
    pub fn check_fit(mut self, device: Device) -> Scenario {
        self.fit_device = Some(device);
        self
    }

    /// Gates the build on the paper's Virtex-2 Pro VP30.
    pub fn check_fit_v2vp30(self) -> Scenario {
        self.check_fit(V2VP30)
    }

    // ---- accessors and execution ---------------------------------------

    /// The scenario's name (explicit, or derived from the configuration).
    pub fn label(&self) -> String {
        if self.named {
            return self.name.clone();
        }
        let ic = match &self.platform.interconnect {
            IcChoice::Bus(_) => "bus",
            IcChoice::Noc(_) => "noc",
        };
        format!("{}core-{}-{}", self.platform.cores, ic, self.workload.label())
    }

    /// The platform configuration.
    pub fn platform_config(&self) -> &PlatformConfig {
        &self.platform
    }

    /// A stable content key of everything that determines the run's
    /// outcome — platform, floorplan, workload, emulation configuration
    /// (grid, solver, power, link, DFS policy), run budget and fit gate —
    /// deliberately excluding the display name. Two scenarios with equal
    /// keys produce identical runs, which is what lets
    /// [`crate::ResultCache`] skip re-executing repeated sweep points.
    ///
    /// The key hashes a deterministic `Debug` rendering of those fields.
    /// On-disk result caches and fleet routing depend on its exact bytes.
    #[must_use]
    pub fn content_key(&self) -> u64 {
        fnv1a64(
            format!(
                "platform={:?};floorplan={:?};workload={:?};emu={:?};budget={:?};fit={:?}",
                self.platform, self.floorplan, self.workload, self.emu, self.budget, self.fit_device
            )
            .as_bytes(),
        )
    }

    /// The semantic cache sub-keys of the scenario's build artifacts —
    /// deliberately *narrower* than [`Scenario::content_key`]: the mesh
    /// key covers only the platform, floorplan and mesh-geometry knobs
    /// ([`GridConfig::mesh_fingerprint`]), so two points differing in
    /// workload, budget or solver strategy still share one meshed grid in
    /// an [`ArtifactCache`].
    pub(crate) fn artifact_keys(&self) -> ArtifactKeys {
        let floorplan = fnv1a64(format!("platform={:?};floorplan={:?};", self.platform, self.floorplan).as_bytes());
        let mesh = fnv1a64_fold(floorplan, self.emu.grid.mesh_fingerprint().as_bytes());
        let operator = fnv1a64_fold(mesh, self.emu.grid.operator_fingerprint().as_bytes());
        let program = fnv1a64(format!("workload={:?};", self.workload).as_bytes());
        ArtifactKeys { floorplan, mesh, operator, program }
    }

    /// The run budget.
    pub(crate) fn budget(&self) -> RunBudget {
        self.budget
    }

    /// The workload.
    pub fn workload_config(&self) -> &Workload {
        &self.workload
    }

    /// Assembles the scenario into a ready-to-run [`ThermalEmulation`]:
    /// validates the platform, optionally checks the FPGA fit, generates
    /// and loads the program and its input data, and wires the machine to
    /// the floorplan and thermal model.
    ///
    /// # Errors
    ///
    /// Any [`TemuError`]: configuration, fit, workload generation, or
    /// floorplan mismatch.
    pub fn build(&self) -> Result<ThermalEmulation, TemuError> {
        self.build_with(None)
    }

    /// [`Scenario::build`] with an optional layered [`ArtifactCache`]: the
    /// resolved floorplan, the meshed thermal grid, the multigrid
    /// hierarchy topology and the generated program are each looked up
    /// under their `Scenario::artifact_keys` sub-key and built only on
    /// miss, so sibling sweep points that share geometry share one mesh
    /// (behind an `Arc`) instead of re-meshing per point.
    ///
    /// # Errors
    ///
    /// The same errors as [`Scenario::build`]; failed artifact builds are
    /// never cached.
    pub fn build_with(&self, artifacts: Option<&ArtifactCache>) -> Result<ThermalEmulation, TemuError> {
        let mut emu = temu_obs::time!("core.point_build_ns", self.build_inner(artifacts))?;
        // Bind the emulation to this configuration so its checkpoints can
        // only ever resume under the same scenario.
        emu.set_scenario_key(self.content_key());
        Ok(emu)
    }

    fn build_inner(&self, artifacts: Option<&ArtifactCache>) -> Result<ThermalEmulation, TemuError> {
        self.platform.validate()?;
        if let Some(device) = self.fit_device {
            let report = estimate(&self.platform, &CostModel::default(), device, 1);
            if !report.fits() {
                return Err(TemuError::DoesNotFit(Box::new(report)));
            }
        }
        if self.workload.cores() as usize != self.platform.cores {
            return Err(WorkloadError::CoreMismatch {
                workload_cores: self.workload.cores(),
                platform_cores: self.platform.cores,
            }
            .into());
        }
        let Some(cache) = artifacts else {
            let program = self.workload.program()?;
            let mut machine = Machine::new(self.platform.clone())?;
            machine.load_program_all(&program)?;
            self.workload.load_inputs(machine.shared_mut())?;
            return ThermalEmulation::new(machine, self.resolved_floorplan()?, self.emu.clone());
        };
        let keys = self.artifact_keys();
        let program = cache.program(keys.program, || self.workload.program().map_err(TemuError::from))?;
        let mut machine = Machine::new(self.platform.clone())?;
        machine.load_program_all(&program)?;
        self.workload.load_inputs(machine.shared_mut())?;
        let map = cache.floorplan(keys.floorplan, || self.resolved_floorplan())?;
        map.check_cores(machine.num_cores())?;
        let grid = cache
            .mesh(keys.mesh, || ThermalGrid::build(&map.floorplan, &self.emu.grid).map_err(TemuError::from))?;
        let topo = if self.emu.grid.uses_multigrid(grid.n_cells()) {
            Some(cache.operator(keys.operator, &grid, &self.emu.grid)?)
        } else {
            None
        };
        let model = ThermalModel::with_artifacts(grid, topo, &self.emu.grid)?;
        ThermalEmulation::with_model(machine, (*map).clone(), model, self.emu.clone())
    }

    /// Builds and runs the scenario to its budget.
    ///
    /// # Errors
    ///
    /// Any [`TemuError`] from [`Scenario::build`] or a platform fault
    /// during emulation.
    pub fn run(&self) -> Result<ScenarioRun, TemuError> {
        self.run_observed(None, None, None)
    }

    /// [`Scenario::run`] building through an optional [`ArtifactCache`]
    /// (see [`Scenario::build_with`]). The run itself is byte-identical to
    /// an uncached run — artifacts only change *how often* the build
    /// stages execute, never what they produce.
    ///
    /// # Errors
    ///
    /// Any [`TemuError`] from [`Scenario::build_with`] or a platform fault
    /// during emulation.
    pub fn run_with(&self, artifacts: Option<&ArtifactCache>) -> Result<ScenarioRun, TemuError> {
        self.run_observed(artifacts, None, None)
    }

    /// Rebuilds the emulation, installs a window-granular checkpoint taken
    /// by [`ThermalEmulation::checkpoint`] under this same scenario, and
    /// runs the rest of the budget. The result is bitwise-identical to an
    /// uninterrupted [`Scenario::run`] — same report counters, same trace
    /// — except for host wall-clock time.
    ///
    /// # Errors
    ///
    /// [`TemuError::CheckpointMismatch`] when the state was checkpointed
    /// under a different scenario configuration
    /// ([`Scenario::content_key`] differs); [`TemuError::State`] when the
    /// embedded platform or thermal streams are corrupt; any build error,
    /// platform fault or (strict mode) thermal non-convergence.
    pub fn resume_run(&self, state: &EmulationState) -> Result<ScenarioRun, TemuError> {
        self.run_observed(None, Some(state), None)
    }

    /// The one execution spine of every run — fresh or resumed, observed
    /// or not: builds the emulation (restoring `resume` into it after the
    /// content-key check) and runs the scenario budget under
    /// `core.point_run_ns`, handing `observer` every `observer.0` windows
    /// a checkpointable boundary.
    pub(crate) fn run_observed(
        &self,
        artifacts: Option<&ArtifactCache>,
        resume: Option<&EmulationState>,
        observer: crate::emulation::WindowObserver<'_>,
    ) -> Result<ScenarioRun, TemuError> {
        if let Some(state) = resume {
            let expected = self.content_key();
            if state.scenario_key() != expected {
                return Err(TemuError::CheckpointMismatch { expected, found: state.scenario_key() });
            }
        }
        let mut emu = self.build_with(artifacts)?;
        if let Some(state) = resume {
            emu.restore_state(state)?;
        }
        let report =
            temu_obs::time!("core.point_run_ns", emu.run_budget(self.budget, resume.is_some(), observer))?;
        Ok(ScenarioRun { name: self.label(), report, trace: emu.into_trace() })
    }

    /// The explicit floorplan when one was set, the derived Fig. 4 layout
    /// otherwise.
    fn resolved_floorplan(&self) -> Result<FloorplanMap, TemuError> {
        match &self.floorplan {
            Some(map) => Ok(map.clone()),
            None => self.derived_floorplan(),
        }
    }

    /// The Fig. 4 floorplan matching the platform (ARM11 components; NoC
    /// switch tiles when the platform uses a NoC).
    fn derived_floorplan(&self) -> Result<FloorplanMap, TemuError> {
        let cores = self.platform.cores;
        if !(1..=4).contains(&cores) {
            // The Fig. 4 family holds at most four core tiles; larger dies
            // need an explicit floorplan.
            return Err(temu_power::PowerError::CoreTileMismatch { core_tiles: 4, cores }.into());
        }
        let switches = match &self.platform.interconnect {
            IcChoice::Bus(_) => 0,
            IcChoice::Noc(n) => n.topology.switches(),
        };
        Ok(quad_core(CoreKind::Arm11, cores, switches))
    }
}

/// The semantic sub-keys of a scenario's cacheable build artifacts (see
/// [`Scenario::artifact_keys`]); each addresses one [`ArtifactCache`]
/// layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ArtifactKeys {
    /// Resolved floorplan map: platform + floorplan configuration.
    pub floorplan: u64,
    /// Meshed thermal grid: `floorplan` + the mesh-geometry knobs.
    pub mesh: u64,
    /// Multigrid hierarchy topology: `mesh` + the operator knobs.
    pub operator: u64,
    /// Generated TE32 program: the workload alone.
    pub program: u64,
}

/// The outcome of one scenario: the run summary plus the full temperature
/// trace.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The scenario's name.
    pub name: String,
    /// The run summary (windows, cycles, FPGA/virtual time, aggregate
    /// statistics, link statistics).
    pub report: EmulationReport,
    /// The recorded temperature trace.
    pub trace: ThermalTrace,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_builds() {
        let emu = Scenario::new().build().unwrap();
        assert_eq!(emu.machine().num_cores(), 4);
    }

    #[test]
    fn preset_labels_are_stable() {
        assert_eq!(Scenario::paper_fig6().label(), "paper-fig6-dfs");
        assert_eq!(Scenario::exploration_bus(2).label(), "2core-bus-dither-64x64x2");
        assert_eq!(Scenario::exploration_noc(4).label(), "4core-noc-dither-64x64x2");
    }

    #[test]
    fn cores_retargets_platform_interconnect_and_workload() {
        let s = Scenario::exploration_bus(4).cores(2);
        assert_eq!(s.platform_config().cores, 2);
        assert_eq!(s.workload_config().cores(), 2);
        assert!(s.platform_config().validate().is_ok());
        let s = Scenario::new().cores(2); // NoC attachment lists follow too
        assert!(s.platform_config().validate().is_ok());
    }

    #[test]
    fn workload_platform_core_mismatch_is_typed() {
        let s = Scenario::new().workload(Workload::Matrix(MatrixConfig::small(2)));
        let e = s.build().unwrap_err();
        assert!(
            matches!(
                e,
                TemuError::Workload(WorkloadError::CoreMismatch { workload_cores: 2, platform_cores: 4 })
            ),
            "{e:?}"
        );
    }

    #[test]
    fn fit_gate_rejects_oversized_designs() {
        // A tiny device cannot host the 4-core NoC platform.
        let nano = Device { slices: 100, bram18: 2, ppc405: 1 };
        let e = Scenario::new().check_fit(nano).build().unwrap_err();
        assert!(matches!(e, TemuError::DoesNotFit(_)), "{e:?}");
        // The paper's device fits its own exploration platform.
        assert!(Scenario::exploration_bus(2).check_fit_v2vp30().build().is_ok());
    }

    #[test]
    fn scenario_runs_to_halt_and_heats() {
        let run = Scenario::exploration_bus(2).sampling_window_s(0.002).run().unwrap();
        assert!(run.report.all_halted);
        assert!(run.trace.peak_temp().unwrap() > 300.0);
    }

    #[test]
    fn artifact_keys_ignore_per_run_solver_knobs() {
        let base = Scenario::exploration_bus(2);
        let strict = Scenario::exploration_bus(2).strict_convergence(true);
        let solver = Scenario::exploration_bus(2).implicit_solve(ImplicitSolve::Multigrid);
        let workload = Scenario::exploration_bus(2).windows(3);
        assert_eq!(base.artifact_keys().mesh, strict.artifact_keys().mesh);
        assert_eq!(base.artifact_keys().mesh, solver.artifact_keys().mesh);
        assert_eq!(base.artifact_keys().mesh, workload.artifact_keys().mesh);
        // But content keys all differ — artifact keys are deliberately
        // coarser than result keys.
        assert_ne!(base.content_key(), strict.content_key());
        // Mesh-geometry knobs do land in the mesh key.
        let fine = GridConfig { hot_div: 5, ..GridConfig::default() };
        assert_ne!(base.artifact_keys().mesh, base.clone().grid(fine).artifact_keys().mesh);
    }

    #[test]
    fn cached_build_shares_one_mesh_across_siblings() {
        let cache = ArtifactCache::new();
        let a = Scenario::exploration_bus(2).build_with(Some(&cache)).unwrap();
        let b = Scenario::exploration_bus(2).windows(5).build_with(Some(&cache)).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a.model().grid_arc(), &b.model().grid_arc()),
            "sibling points share one meshed grid instance"
        );
        let stats = cache.stats();
        assert_eq!((stats.mesh_misses, stats.mesh_hits), (1, 1));
        assert_eq!((stats.floorplan_misses, stats.floorplan_hits), (1, 1));
        assert_eq!((stats.program_misses, stats.program_hits), (1, 1));
        assert_eq!(stats.operator_misses, 0, "paper-scale Gauss-Seidel points skip the hierarchy");
    }

    #[test]
    fn cached_run_matches_uncached_run_exactly() {
        let cache = ArtifactCache::new();
        let scenario = Scenario::exploration_bus(2).sampling_window_s(0.002);
        let cached = scenario.run_with(Some(&cache)).unwrap();
        let plain = scenario.run().unwrap();
        assert_eq!(cached.report.windows, plain.report.windows);
        assert_eq!(cached.trace.samples.len(), plain.trace.samples.len());
        for (x, y) in cached.trace.samples.iter().zip(plain.trace.samples.iter()) {
            assert_eq!(x.max_temp_k.to_bits(), y.max_temp_k.to_bits(), "bitwise-identical trace");
        }
    }

    #[test]
    fn resume_run_matches_uninterrupted_run_bitwise() {
        let scenario = Scenario::exploration_bus(2).sampling_window_s(0.002).windows(8);
        let full = scenario.run().unwrap();

        let mut emu = scenario.build().unwrap();
        let _ = emu.run_windows(3).unwrap();
        let state = emu.checkpoint();
        assert_eq!(state.scenario_key(), scenario.content_key());
        let state = EmulationState::from_bytes(&state.to_bytes()).unwrap();

        let resumed = scenario.resume_run(&state).unwrap();
        assert_eq!(resumed.report.windows, full.report.windows);
        assert_eq!(resumed.report.virtual_cycles, full.report.virtual_cycles);
        assert_eq!(resumed.report.aggregate, full.report.aggregate);
        assert_eq!(resumed.trace.samples.len(), full.trace.samples.len());
        for (x, y) in resumed.trace.samples.iter().zip(full.trace.samples.iter()) {
            assert_eq!(x.virtual_hz, y.virtual_hz);
            assert_eq!(x.max_temp_k.to_bits(), y.max_temp_k.to_bits(), "bitwise-identical trace");
            for (tx, ty) in x.temps_k.iter().zip(&y.temps_k) {
                assert_eq!(tx.to_bits(), ty.to_bits());
            }
        }
    }

    #[test]
    fn resume_refuses_a_checkpoint_from_a_different_scenario() {
        let scenario = Scenario::exploration_bus(2).sampling_window_s(0.002).windows(6);
        let mut emu = scenario.build().unwrap();
        let _ = emu.run_windows(2).unwrap();
        let state = emu.checkpoint();
        // Any configuration difference changes the content key.
        let other = scenario.clone().strict_convergence(true);
        let e = other.resume_run(&state).unwrap_err();
        assert!(matches!(e, TemuError::CheckpointMismatch { .. }), "{e:?}");
        // The matching scenario accepts the same state.
        assert!(scenario.resume_run(&state).is_ok());
    }

    #[test]
    fn cached_multigrid_build_caches_the_hierarchy() {
        let cache = ArtifactCache::new();
        let build = || {
            Scenario::exploration_bus(2)
                .implicit_solve(ImplicitSolve::Multigrid)
                .build_with(Some(&cache))
                .unwrap()
        };
        let _a = build();
        let _b = build();
        let stats = cache.stats();
        assert_eq!((stats.operator_misses, stats.operator_hits), (1, 1));
    }
}
