//! The sequential co-emulation loop (Fig. 5).

use crate::error::TemuError;
use crate::scenario::RunBudget;
use crate::trace::{ThermalTrace, TraceSample};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use temu_link::{stats_record_bytes, EthernetConfig, EthernetLink, LinkStats};
use temu_platform::{DfsPolicy, Machine, WindowStats, EVENT_BYTES};
use temu_power::{FloorplanMap, PowerModel};
use temu_state::{StateError, StateReader, StateWriter};
use temu_thermal::{GridConfig, SolverStats, ThermalModel};

/// The `core.link_events` counter: the logged events every window shipped
/// over the statistics link, buffered and overflowed alike. The handle is
/// resolved once, so a window never takes the registry lock.
fn link_events() -> &'static temu_obs::Counter {
    static COUNTER: OnceLock<Arc<temu_obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| temu_obs::global().counter("core.link_events"))
}

/// Envelope magic of [`EmulationState::to_bytes`].
pub const STATE_MAGIC: [u8; 4] = *b"EMUS";
/// The [`EmulationState`] stream version this build writes, and the only
/// one it reads.
pub const STATE_VERSION: u32 = 2;
/// Inner envelope of the platform section (machine + statistics link)
/// embedded in an [`EmulationState`].
const PLATFORM_MAGIC: [u8; 4] = *b"TPLT";
const PLATFORM_VERSION: u32 = 1;

/// A mid-run window observer: `(every, hook)` — the hook sees the
/// emulation at a checkpointable window boundary after every `every`-th
/// window since the build (see [`ThermalEmulation::run_budget`]).
pub(crate) type WindowObserver<'a> =
    Option<(u64, &'a mut dyn FnMut(&ThermalEmulation) -> Result<(), TemuError>)>;

/// Configuration of the co-emulation loop.
#[derive(Clone, Debug)]
pub struct EmulationConfig {
    /// Virtual seconds per statistics sampling window (the paper uses 10 ms).
    pub sampling_window_s: f64,
    /// Run-time thermal-management policy; `None` disables DFS (the paper's
    /// "without thermal management" curve).
    pub policy: Option<DfsPolicy>,
    /// Statistics-link parameters.
    pub link: EthernetConfig,
    /// Activity-to-power conversion.
    pub power: PowerModel,
    /// Thermal meshing, boundary conditions and solver choice. The solver
    /// runs on the thread that runs the emulation, whatever the mesh size.
    pub grid: GridConfig,
}

impl Default for EmulationConfig {
    fn default() -> EmulationConfig {
        EmulationConfig {
            sampling_window_s: 0.010,
            policy: None,
            link: EthernetConfig::default(),
            power: PowerModel::default(),
            grid: GridConfig::default(),
        }
    }
}

/// Summary of an emulation's run, counted from its build.
///
/// Every field but `wall` covers every window since the build, so a
/// second `run_windows` / `run_to_halt` call reports the first call's
/// windows too, and [`ThermalEmulation::totals`] returns the same account
/// between calls. A restored emulation continues the counts of the run
/// its checkpoint came from: a resumed run reports what the uninterrupted
/// one would, wall time excepted.
#[derive(Clone, Debug)]
#[must_use]
pub struct EmulationReport {
    /// Sampling windows executed.
    pub windows: u64,
    /// Virtual seconds emulated.
    pub virtual_seconds: f64,
    /// Virtual cycles executed (varies with DFS).
    pub virtual_cycles: u64,
    /// Modeled FPGA (physical) time, including VPCM freezes — the Table 3
    /// "HW Emulator" quantity, now with the thermal loop attached.
    pub fpga_seconds: f64,
    /// Host wall-clock time (platform + thermal + link) of this
    /// emulation's `run_*` calls. It is not checkpointed: a resumed run
    /// counts only its own calls.
    pub wall: Duration,
    /// Whether every core halted.
    pub all_halted: bool,
    /// Aggregate platform statistics of the windows.
    pub aggregate: WindowStats,
    /// Statistics-link traffic.
    pub link: LinkStats,
    /// Convergence accounting of the thermal solver. A non-zero
    /// `unconverged_substeps` means the temperature trace was produced by
    /// an implicit solver that silently stopped converging — configure
    /// `GridConfig::strict_convergence` (or
    /// `Scenario::strict_convergence`) to turn that into a hard
    /// [`TemuError::Thermal`] instead.
    pub solver: SolverStats,
}

/// The in-process sequential HW/SW co-emulation.
///
/// Feedback is pipelined exactly like the physical system: the temperatures
/// computed from window *k* reach the sensor registers (and the DFS policy)
/// before window *k+1* starts.
#[derive(Debug)]
pub struct ThermalEmulation {
    machine: Machine,
    map: FloorplanMap,
    model: ThermalModel,
    link: EthernetLink,
    cfg: EmulationConfig,
    policy: Option<DfsPolicy>,
    /// One sample per window since the build: the run's window count,
    /// virtual seconds and FPGA seconds are its length and its last
    /// sample's.
    trace: ThermalTrace,
    /// The windows' statistics since the build: `cycles()` is the run's
    /// virtual cycles.
    aggregate: WindowStats,
    /// Host time spent in `run_*` calls.
    wall: Duration,
    /// Content key of the [`crate::Scenario`] that built this emulation
    /// (0 for hand-wired emulations), embedded in every checkpoint so
    /// [`crate::Scenario::resume_run`] can refuse state from a different
    /// experiment.
    scenario_key: u64,
}

impl ThermalEmulation {
    /// Wires a machine to a floorplan and thermal model.
    ///
    /// # Errors
    ///
    /// Returns [`TemuError::Thermal`] if the thermal grid cannot be built,
    /// or [`TemuError::Power`] if the floorplan has fewer core tiles than
    /// the machine has cores.
    pub fn new(machine: Machine, map: FloorplanMap, cfg: EmulationConfig) -> Result<ThermalEmulation, TemuError> {
        map.check_cores(machine.num_cores())?;
        let model = ThermalModel::new(&map.floorplan, &cfg.grid)?;
        ThermalEmulation::with_model(machine, map, model, cfg)
    }

    /// Wires a machine to a floorplan and a **pre-built** thermal model —
    /// the artifact-cached build path ([`crate::Scenario::build_with`]),
    /// where the model was constructed on a shared meshed grid instead of
    /// re-meshing per emulation.
    pub(crate) fn with_model(
        machine: Machine,
        map: FloorplanMap,
        model: ThermalModel,
        cfg: EmulationConfig,
    ) -> Result<ThermalEmulation, TemuError> {
        map.check_cores(machine.num_cores())?;
        let names = map.floorplan.components().iter().map(|c| c.name.clone()).collect();
        Ok(ThermalEmulation {
            machine,
            map,
            model,
            link: EthernetLink::new(cfg.link),
            policy: cfg.policy.clone(),
            cfg,
            trace: ThermalTrace::new(names),
            aggregate: WindowStats::default(),
            wall: Duration::ZERO,
            scenario_key: 0,
        })
    }

    /// Binds the emulation to the content key of the scenario that built
    /// it (embedded in checkpoints for resume validation).
    pub(crate) fn set_scenario_key(&mut self, key: u64) {
        self.scenario_key = key;
    }

    /// The emulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The thermal model.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// The temperature trace recorded so far.
    pub fn trace(&self) -> &ThermalTrace {
        &self.trace
    }

    /// Consumes the emulation, returning the recorded trace (the artifact
    /// scenario runs keep after the machine is dropped).
    #[must_use]
    pub fn into_trace(self) -> ThermalTrace {
        self.trace
    }

    /// The statistics link.
    pub fn link(&self) -> &EthernetLink {
        &self.link
    }

    /// Executes one sampling window: platform → statistics → power → link →
    /// thermal step → temperature feedback → policy.
    ///
    /// With the metrics registry on, the whole window records into
    /// `core.window_ns` and each stage into its own span:
    /// `core.stage.{machine,power,link,thermal,feedback}_ns`; the counter
    /// `core.link_events` adds the logged events the window shipped.
    ///
    /// # Errors
    ///
    /// Propagates platform faults as [`TemuError::Cpu`]; under
    /// `GridConfig::strict_convergence`, a thermal substep that fails to
    /// converge is [`TemuError::Thermal`].
    pub fn run_window(&mut self) -> Result<(), TemuError> {
        temu_obs::time!("core.window_ns", self.run_window_inner())
    }

    fn run_window_inner(&mut self) -> Result<(), TemuError> {
        let window_s = self.cfg.sampling_window_s;
        let hz = self.machine.vpcm().virtual_hz();
        let cycles = (window_s * hz as f64).round() as u64;
        let stats = temu_obs::time!("core.stage.machine_ns", self.machine.run_window(cycles))?;

        // Convert sniffer statistics to per-component power.
        let powers = temu_obs::time!("core.stage.power_ns", self.cfg.power.window_powers(&self.map, &stats, hz));

        // Ship statistics (and the window's logged events) over the link
        // within the window's physical-time budget.
        let fpga_hz = self.machine.vpcm().fpga_hz;
        let physical_window_s = (stats.cycles() + stats.freeze_mem) as f64 / fpga_hz as f64;
        let link_freeze_s = temu_obs::time!("core.stage.link_ns", self.ship_stats(&stats, powers.len(), physical_window_s));

        // Thermal step and temperature feedback.
        let temps = temu_obs::time!("core.stage.thermal_ns", {
            self.model.set_powers(&powers);
            self.model.try_step(window_s)?;
            self.model.component_temps()
        });
        temu_obs::time!("core.stage.feedback_ns", self.feed_back(&temps, hz));

        // Bookkeeping: the sample carries the run's clocks on.
        let (t_virtual_s, fpga_seconds) = self.clocks();
        self.aggregate.merge(&stats);
        let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.trace.push(TraceSample {
            t_virtual_s: t_virtual_s + window_s,
            temps_k: temps,
            max_temp_k: hottest,
            virtual_hz: hz,
            total_power_w: powers.iter().sum(),
            fpga_seconds: fpga_seconds + (physical_window_s + link_freeze_s),
        });
        Ok(())
    }

    /// Windows run since the build: one trace sample each.
    fn windows(&self) -> u64 {
        self.trace.len() as u64
    }

    /// `(virtual seconds, FPGA seconds)` since the build: the last
    /// sample's, zero before the first window.
    fn clocks(&self) -> (f64, f64) {
        self.trace.samples.last().map_or((0.0, 0.0), |s| (s.t_virtual_s, s.fpga_seconds))
    }

    /// Sends the window's statistics record for `components` floorplan
    /// components, plus the window's logged events, over the link within
    /// the window's physical time, and records the congestion freeze in the
    /// VPCM. Returns the freeze in seconds.
    fn ship_stats(&mut self, stats: &WindowStats, components: usize, physical_window_s: f64) -> f64 {
        // Every logged event must cross the link: the buffered ones and the
        // ones that found the BRAM buffer full. On the real platform the
        // VPCM would have frozen the virtual clock mid-window instead of
        // dropping them, so their transmission time is charged the same way,
        // at window granularity. Count-logging windows log none.
        let events = stats.events_pending as u64 + stats.events_overflowed;
        if temu_obs::enabled() {
            link_events().add(events);
        }
        let payload_bytes = stats_record_bytes(components) + events * EVENT_BYTES as u64;
        let link_freeze_s = self.link.send_window(payload_bytes, physical_window_s);
        // Surface the congestion freeze through the VPCM so the next window's
        // statistics carry it (the report accounts it directly).
        let fpga_hz = self.machine.vpcm().fpga_hz;
        self.machine
            .vpcm_mut()
            .record_link_freeze((link_freeze_s * fpga_hz as f64).round() as u64);
        link_freeze_s
    }

    /// Returns the temperatures to the platform's sensor registers and runs
    /// the §7 DFS state machine on the hottest one. The downlink carries a
    /// few bytes per component and is never the bottleneck, so it is not
    /// booked on the link.
    fn feed_back(&mut self, temps: &[f64], hz: u64) {
        for (i, &t) in temps.iter().enumerate() {
            self.machine.set_sensor_kelvin(i, t);
        }
        if let Some(policy) = &mut self.policy {
            let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let new_hz = policy.update(hottest);
            if new_hz != hz {
                self.machine.set_virtual_hz(new_hz);
            }
        }
    }

    /// Runs up to `max_windows` more windows, stopping once every core
    /// has halted. The report covers the run since the build.
    ///
    /// # Errors
    ///
    /// Propagates platform faults and (strict mode) thermal
    /// non-convergence.
    pub fn run_to_halt(&mut self, max_windows: u64) -> Result<EmulationReport, TemuError> {
        let max_windows = self.windows().saturating_add(max_windows);
        self.run_budget(RunBudget::ToHalt { max_windows }, None)
    }

    /// Runs `n` more windows regardless of halting (long thermal
    /// observations over repeating workloads). The report covers the run
    /// since the build.
    ///
    /// # Errors
    ///
    /// Propagates platform faults and (strict mode) thermal
    /// non-convergence.
    pub fn run_windows(&mut self, n: u64) -> Result<EmulationReport, TemuError> {
        self.run_budget(RunBudget::Windows(self.windows().saturating_add(n)), None)
    }

    /// Runs a [`RunBudget`] with optional mid-run observation — the one
    /// window loop behind [`ThermalEmulation::run_to_halt`],
    /// [`ThermalEmulation::run_windows`], [`crate::Scenario::run`],
    /// checkpoint resume and the sweep's point observer.
    ///
    /// The budget counts windows since the build, so a run restored from
    /// a checkpoint ([`ThermalEmulation::restore_state`]) executes only
    /// the windows its checkpoint had left, under the same budget as a
    /// fresh run.
    ///
    /// `observer` is `(every, hook)`: after every `every`-th window since
    /// the build the hook sees the emulation at a window boundary
    /// (checkpointable); it never fires on the final window or after the
    /// workload halts, where a checkpoint could buy nothing. A hook error
    /// aborts the run.
    ///
    /// # Errors
    ///
    /// Propagates platform faults, (strict mode) thermal non-convergence,
    /// and observer errors.
    pub(crate) fn run_budget(
        &mut self,
        budget: RunBudget,
        mut observer: WindowObserver<'_>,
    ) -> Result<EmulationReport, TemuError> {
        let t0 = Instant::now();
        let (cap, to_halt) = match budget {
            RunBudget::ToHalt { max_windows } => (max_windows, true),
            RunBudget::Windows(n) => (n, false),
        };
        let mut run = || -> Result<(), TemuError> {
            while self.windows() < cap {
                if to_halt && self.windows() > 0 && self.machine.all_halted() {
                    break;
                }
                self.run_window()?;
                if let Some((every, hook)) = observer.as_mut() {
                    let windows = self.windows();
                    if *every > 0
                        && windows.is_multiple_of(*every)
                        && windows < cap
                        && !(to_halt && self.machine.all_halted())
                    {
                        hook(self)?;
                    }
                }
            }
            Ok(())
        };
        let outcome = run();
        self.wall += t0.elapsed();
        outcome.map(|()| self.totals())
    }

    /// Captures the complete run state at a window boundary as a
    /// serializable [`EmulationState`] — machine (cores, caches, memories,
    /// interconnect, sniffers, VPCM), thermal model (temperature field,
    /// warm-start history, convergence accounting), statistics link, DFS
    /// ladder position, trace samples and the run's aggregate statistics.
    /// Restoring it into a freshly built identical emulation
    /// ([`crate::Scenario::resume_run`]) continues the run
    /// bitwise-identically.
    pub fn checkpoint(&self) -> EmulationState {
        temu_obs::time!("core.checkpoint_capture_ns", self.checkpoint_inner())
    }

    fn checkpoint_inner(&self) -> EmulationState {
        let mut w = StateWriter::new(PLATFORM_MAGIC, PLATFORM_VERSION);
        self.machine.save_state(&mut w);
        self.link.save_state(&mut w);
        EmulationState {
            scenario_key: self.scenario_key,
            aggregate: self.aggregate.clone(),
            samples: self.trace.samples.clone(),
            dfs_level: self.policy.as_ref().map(DfsPolicy::level),
            platform: w.into_bytes(),
            model: self.model.snapshot(),
        }
    }

    /// Installs a checkpoint into this (freshly built, identically
    /// configured) emulation. The caller — [`crate::Scenario::resume_run`]
    /// — is responsible for the configuration match; this method validates
    /// only structural shape (core count, cache presence, mesh geometry,
    /// DFS ladder depth). On error the emulation may be partially
    /// overwritten and must not be reused.
    ///
    /// # Errors
    ///
    /// [`TemuError::State`] if the embedded platform or thermal streams
    /// are corrupt or shaped for a different configuration.
    pub(crate) fn restore_state(&mut self, state: &EmulationState) -> Result<(), TemuError> {
        let mut r = StateReader::new(&state.platform, PLATFORM_MAGIC, PLATFORM_VERSION)?;
        self.machine.load_state(&mut r)?;
        self.link.load_state(&mut r)?;
        r.finish()?;
        self.model.restore(&state.model)?;
        match (state.dfs_level, self.policy.as_mut()) {
            (Some(level), Some(policy)) => {
                if !policy.restore_level(level) {
                    return Err(StateError::BadValue {
                        what: "DFS ladder level",
                        value: level as u64,
                    }
                    .into());
                }
            }
            (None, None) => {}
            (dfs_level, _) => {
                return Err(StateError::BadValue {
                    what: "DFS policy presence",
                    value: u64::from(dfs_level.is_some()),
                }
                .into());
            }
        }
        self.aggregate = state.aggregate.clone();
        self.trace.samples = state.samples.clone();
        Ok(())
    }

    /// The run since the build, as the last `run_*` call reported it,
    /// plus any windows run since through [`ThermalEmulation::run_window`].
    pub fn totals(&self) -> EmulationReport {
        let (virtual_seconds, fpga_seconds) = self.clocks();
        EmulationReport {
            windows: self.windows(),
            virtual_seconds,
            virtual_cycles: self.aggregate.cycles(),
            fpga_seconds,
            wall: self.wall,
            all_halted: self.machine.all_halted(),
            aggregate: self.aggregate.clone(),
            link: *self.link.stats(),
            solver: self.model.solver_stats(),
        }
    }
}

/// The complete run state of a [`ThermalEmulation`] at a sampling-window
/// boundary, detached from the emulation and serializable
/// ([`EmulationState::to_bytes`] / [`EmulationState::from_bytes`]).
///
/// A checkpoint holds everything the next window's execution depends on:
///
/// * the **platform** — every core's registers and in-flight memory
///   operation, caches, private and shared memories, interconnect
///   arbitration, sniffer counters and event counts, VPCM clock state;
/// * the **thermal model** — temperature field, lazily refreshed
///   coefficient anchors, second-order warm-start history, SOR/convergence
///   accounting ([`ThermalModel::snapshot`]);
/// * the **statistics link** counters, the **DFS ladder** position, the
///   recorded temperature **trace** samples and the **aggregate** window
///   statistics since the build.
///
/// It holds each fact once. The run's window count is the number of
/// samples; its virtual and FPGA seconds are the last sample's; its
/// virtual cycles are `aggregate.cycles()`. The component names, the
/// mesh, the configuration and the multigrid hierarchy come from the
/// build the state is restored into.
///
/// # Invariants
///
/// * A state restored into an emulation built from the **same scenario
///   configuration** continues the run **bitwise-identically**: every
///   subsequent window executes the same cycles and produces the same
///   temperature bits as the uninterrupted run, and the final report and
///   trace are equal (wall-clock time excepted).
/// * `scenario_key` names the [`crate::Scenario`] (by
///   [`crate::Scenario::content_key`]) the state belongs to;
///   [`crate::Scenario::resume_run`] refuses a key mismatch, so a
///   checkpoint can never silently continue a different experiment.
/// * Checkpoints exist only at window boundaries:
///   [`ThermalEmulation::run_window`] runs a whole window per call.
/// * The byte stream is versioned (`EMUS`, version 2) and fails closed:
///   corrupt, truncated, or differently-shaped streams, and streams of
///   any other version, return [`TemuError::State`] instead of partially
///   applying.
#[derive(Clone, Debug)]
pub struct EmulationState {
    scenario_key: u64,
    aggregate: WindowStats,
    /// The trace's samples; the restoring build has the component names.
    samples: Vec<TraceSample>,
    dfs_level: Option<usize>,
    /// Machine + statistics-link sections under the `TPLT` envelope.
    platform: Vec<u8>,
    /// [`ThermalModel::snapshot`] stream (its own `TSNP` envelope).
    model: Vec<u8>,
}

impl EmulationState {
    /// Content key of the scenario this state was checkpointed under
    /// (0 for hand-wired emulations).
    pub fn scenario_key(&self) -> u64 {
        self.scenario_key
    }

    /// Sampling windows the run had executed when this state was taken.
    pub fn windows(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Serializes the state into a self-describing versioned byte stream
    /// (`EMUS`, version 2): the scenario key, the aggregate, the trace
    /// samples, the DFS ladder level, then the platform (`TPLT`) and
    /// thermal (`TSNP`) sections.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new(STATE_MAGIC, STATE_VERSION);
        w.u64(self.scenario_key);
        self.aggregate.save_state(&mut w);
        w.usize(self.samples.len());
        for s in &self.samples {
            w.f64(s.t_virtual_s);
            w.f64_slice(&s.temps_k);
            w.f64(s.max_temp_k);
            w.u64(s.virtual_hz);
            w.f64(s.total_power_w);
            w.f64(s.fpga_seconds);
        }
        w.bool(self.dfs_level.is_some());
        if let Some(level) = self.dfs_level {
            w.usize(level);
        }
        w.bytes(&self.platform);
        w.bytes(&self.model);
        w.into_bytes()
    }

    /// Decodes a stream written by [`EmulationState::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`TemuError::State`] on a corrupt or truncated stream, and on one
    /// of another version ([`StateError::UnsupportedVersion`]). The
    /// embedded platform and thermal sections are validated later, on
    /// restore.
    pub fn from_bytes(buf: &[u8]) -> Result<EmulationState, TemuError> {
        let mut r = StateReader::new(buf, STATE_MAGIC, STATE_VERSION)?;
        let scenario_key = r.u64()?;
        let mut aggregate = WindowStats::default();
        aggregate.load_state(&mut r)?;
        let n_samples = r.usize()?;
        let mut samples = Vec::new();
        for _ in 0..n_samples {
            samples.push(TraceSample {
                t_virtual_s: r.f64()?,
                temps_k: r.f64_vec()?,
                max_temp_k: r.f64()?,
                virtual_hz: r.u64()?,
                total_power_w: r.f64()?,
                fpga_seconds: r.f64()?,
            });
        }
        let dfs_level = if r.bool()? { Some(r.usize()?) } else { None };
        let platform = r.bytes()?;
        let model = r.bytes()?;
        r.finish()?;
        Ok(EmulationState {
            scenario_key,
            aggregate,
            samples,
            dfs_level,
            platform,
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temu_platform::PlatformConfig;
    use temu_power::floorplans::fig4b_arm11;
    use temu_workloads::matrix::{self, MatrixConfig};

    fn emulation(policy: Option<DfsPolicy>, iters: u32) -> ThermalEmulation {
        let mut machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
        let cfg = MatrixConfig { n: 8, iters, cores: 4 };
        machine.load_program_all(&matrix::program(&cfg).unwrap()).unwrap();
        let mut ecfg = EmulationConfig { policy, ..EmulationConfig::default() };
        ecfg.sampling_window_s = 0.001; // 1 ms windows keep the tests fast
        ThermalEmulation::new(machine, fig4b_arm11(), ecfg).unwrap()
    }

    #[test]
    fn workload_completes_and_heats_the_die() {
        let mut emu = emulation(None, 50);
        let report = emu.run_to_halt(400).unwrap();
        assert!(report.all_halted, "matrix workload finished");
        assert!(report.windows > 1);
        let peak = emu.trace().peak_temp().unwrap();
        assert!(peak > 300.5, "the die warmed up: {peak}");
        assert!(report.fpga_seconds > 0.0);
        assert_eq!(report.virtual_cycles, report.aggregate.cycles());
    }

    #[test]
    fn reports_count_the_run_from_the_build() {
        let mut emu = emulation(None, 100_000);
        let first = emu.run_windows(3).unwrap();
        assert_eq!(first.windows, 3);
        let second = emu.run_windows(2).unwrap();
        assert_eq!(second.windows, 5, "two more windows, reported with the three before them");
        assert!((second.virtual_seconds - 0.005).abs() < 1e-9, "5 × 1 ms windows");
        assert!(second.virtual_cycles > first.virtual_cycles);
        assert_eq!(second.virtual_cycles, second.aggregate.cycles(), "the aggregate spans the run");
        assert!(second.wall >= first.wall, "wall time adds up the calls");
        // Between calls, the emulation holds the same account.
        let totals = emu.totals();
        assert_eq!(totals.windows, second.windows);
        assert_eq!(totals.virtual_seconds.to_bits(), second.virtual_seconds.to_bits());
        assert_eq!(totals.virtual_cycles, second.virtual_cycles);
        assert_eq!(totals.fpga_seconds.to_bits(), second.fpga_seconds.to_bits());
        assert_eq!(totals.wall, second.wall);
        assert_eq!(totals.all_halted, second.all_halted);
        assert_eq!(totals.aggregate, second.aggregate);
        assert_eq!(totals.link, second.link);
        assert_eq!(totals.solver, second.solver);
    }

    #[test]
    fn trace_grows_one_sample_per_window() {
        let mut emu = emulation(None, 10_000);
        let _ = emu.run_windows(5).unwrap();
        assert_eq!(emu.trace().len(), 5);
        let t = emu.trace().samples.last().unwrap().t_virtual_s;
        assert!((t - 0.005).abs() < 1e-9);
    }

    #[test]
    fn dfs_policy_throttles_when_forced_hot() {
        // An aggressive policy (hot threshold just above ambient) must kick
        // in within a few windows and halve the cycle budget of later windows.
        let policy = DfsPolicy::new(300.6, 300.3, 500_000_000, 100_000_000).unwrap();
        let mut emu = emulation(Some(policy), 100_000);
        let _ = emu.run_windows(40).unwrap();
        let hzs: Vec<u64> = emu.trace().samples.iter().map(|s| s.virtual_hz).collect();
        assert!(hzs.contains(&500_000_000), "starts fast");
        assert!(hzs.contains(&100_000_000), "throttles when hot: {hzs:?}");
        assert!(emu.trace().throttled_fraction() > 0.0);
    }

    #[test]
    fn sensors_reflect_model_temperatures() {
        let mut emu = emulation(None, 100_000);
        let _ = emu.run_windows(3).unwrap();
        let model_t = emu.model().component_temp(emu.map.cores[0].0);
        let sensor_t = emu.machine().uncore().mmio.sensor_kelvin(emu.map.cores[0].0);
        assert!((model_t - sensor_t).abs() < 0.01, "sensor {sensor_t} vs model {model_t}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = emulation(Some(DfsPolicy::paper()), 2000);
        let mut b = emulation(Some(DfsPolicy::paper()), 2000);
        let _ = a.run_windows(10).unwrap();
        let _ = b.run_windows(10).unwrap();
        assert_eq!(a.trace().samples.len(), b.trace().samples.len());
        for (x, y) in a.trace().samples.iter().zip(b.trace().samples.iter()) {
            assert_eq!(x.virtual_hz, y.virtual_hz);
            assert!((x.max_temp_k - y.max_temp_k).abs() < 1e-12);
        }
    }

    #[test]
    fn mismatched_floorplan_rejected() {
        let machine = Machine::new(PlatformConfig::paper_bus(8)).unwrap();
        let e = ThermalEmulation::new(machine, fig4b_arm11(), EmulationConfig::default());
        assert!(e.is_err(), "4-core floorplan cannot host 8 cores");
    }

    #[test]
    fn sweep_mode_flows_through_emulation_config() {
        use temu_thermal::SweepMode;
        // The default config runs the optimized serial solver, and a
        // configured mode reaches the loop's solver unchanged.
        assert_eq!(emulation(None, 10).model().config().sweep, SweepMode::Serial);
        let machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
        let mut ecfg = EmulationConfig::default();
        ecfg.grid.sweep = SweepMode::Reference;
        let reference = ThermalEmulation::new(machine, fig4b_arm11(), ecfg).unwrap();
        assert_eq!(reference.model().config().sweep, SweepMode::Reference);
    }

    #[test]
    fn link_carries_stats_every_window() {
        let mut emu = emulation(None, 10_000);
        let _ = emu.run_windows(4).unwrap();
        assert!(emu.link().stats().frames >= 4, "at least one frame per window");
        assert_eq!(emu.link().stats().freeze_seconds, 0.0, "count-logging never congests");
    }

    /// `(frames, wire_bytes, busy_seconds bits, freeze_seconds bits,
    /// fpga_seconds bits)` of a finished run.
    fn link_golden(report: &EmulationReport) -> (u64, u64, u64, u64, u64) {
        let link = report.link;
        (
            link.frames,
            link.wire_bytes,
            link.busy_seconds.to_bits(),
            link.freeze_seconds.to_bits(),
            report.fpga_seconds.to_bits(),
        )
    }

    #[test]
    fn count_logging_link_books_are_pinned() {
        let run = crate::Scenario::exploration_bus(2).sampling_window_s(0.002).windows(4).run().unwrap();
        assert_eq!(link_golden(&run.report), (4, 428, 4552773954680481915, 0, 4575765307799480828));
    }

    #[test]
    fn congesting_event_log_link_books_are_pinned() {
        let mut platform = PlatformConfig::paper_thermal(4);
        platform.sniffer_mode = temu_platform::SnifferMode::EventLogging { capacity: 1 << 10 };
        let mut emu = crate::Scenario::new()
            .platform(platform)
            .workload(crate::Workload::Matrix(MatrixConfig { n: 8, iters: 100_000, cores: 4 }))
            .sampling_window_s(0.001)
            .windows(3)
            .build()
            .unwrap();
        // One window per call (the budget counts windows since the
        // build), so every window boundary's checkpoint bytes are pinned
        // too.
        let mut checkpoints = Vec::new();
        let mut report = None;
        temu_obs::global().set_enabled(true);
        let shipped = link_events().get();
        for window in 1..=3 {
            report = Some(emu.run_budget(RunBudget::Windows(window), None).unwrap());
            checkpoints.push(temu_state::fnv1a64(&emu.checkpoint().to_bytes()));
        }
        let report = report.expect("three windows ran");
        assert!(report.link.freeze_seconds > 0.0, "the event log outruns the link");
        assert_eq!(
            link_golden(&report),
            (4244, 6525015, 4602878339444778530, 4602743231455957415, 4602878339444778530)
        );
        assert_eq!((report.aggregate.events_pending, report.aggregate.events_overflowed), (3072, 394640));
        // Each window shipped its 1,024 buffered events, and the overflow:
        // the aggregate's two counts add up to what the link carried.
        assert_eq!(link_events().get() - shipped, 3 * 1024 + 394640);
        assert_eq!(checkpoints, [1329130833917750512, 6211990265350414356, 12645821579531512420]);
    }

    #[test]
    fn checkpoint_resume_continues_bitwise_identically() {
        // An aggressive DFS band so the ladder moves before the split
        // point — the checkpoint must carry the mid-ladder position.
        let policy = || Some(DfsPolicy::new(300.6, 300.3, 500_000_000, 100_000_000).unwrap());
        let mut uninterrupted = emulation(policy(), 100_000);
        let full = uninterrupted.run_windows(20).unwrap();

        let mut first_half = emulation(policy(), 100_000);
        let _ = first_half.run_windows(12).unwrap();
        let state = first_half.checkpoint();
        assert_eq!(state.scenario_key(), 0, "hand-wired emulations carry the null key");
        assert_eq!(state.windows(), 12);
        // Round-trip through the serialized form.
        let state = EmulationState::from_bytes(&state.to_bytes()).unwrap();

        let mut resumed = emulation(policy(), 100_000);
        resumed.restore_state(&state).unwrap();
        let report = resumed.run_budget(RunBudget::Windows(20), None).unwrap();

        // The resumed report covers the run since the build.
        assert_eq!(report.windows, full.windows);
        assert_eq!(report.virtual_cycles, full.virtual_cycles);
        assert_eq!(report.virtual_seconds.to_bits(), full.virtual_seconds.to_bits());
        assert_eq!(report.fpga_seconds.to_bits(), full.fpga_seconds.to_bits());
        assert_eq!(report.aggregate, full.aggregate);
        assert_eq!(report.link, full.link);
        assert_eq!(report.solver, full.solver);
        // And the trace is bitwise-identical, DFS ladder moves included.
        let (a, b) = (uninterrupted.trace(), resumed.trace());
        assert_eq!(a.samples.len(), b.samples.len());
        let mut throttled = false;
        for (x, y) in a.samples.iter().zip(b.samples.iter()) {
            assert_eq!(x.virtual_hz, y.virtual_hz);
            throttled |= x.virtual_hz < 500_000_000;
            assert_eq!(x.max_temp_k.to_bits(), y.max_temp_k.to_bits());
            for (tx, ty) in x.temps_k.iter().zip(&y.temps_k) {
                assert_eq!(tx.to_bits(), ty.to_bits());
            }
        }
        assert!(throttled, "the DFS ladder actually moved across the split");
    }

    #[test]
    fn corrupt_state_stream_is_rejected() {
        let mut emu = emulation(None, 10_000);
        let _ = emu.run_windows(3).unwrap();
        let bytes = emu.checkpoint().to_bytes();
        let truncated = &bytes[..bytes.len() - 4];
        assert!(matches!(EmulationState::from_bytes(truncated), Err(TemuError::State(_))));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(EmulationState::from_bytes(&wrong_magic), Err(TemuError::State(_))));
        // A stream of the older layout fails closed on its version word.
        let mut older = bytes.clone();
        older[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            EmulationState::from_bytes(&older),
            Err(TemuError::State(StateError::UnsupportedVersion { found: 1, supported: 2 }))
        ));
    }
}
