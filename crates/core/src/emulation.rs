//! The sequential co-emulation loop (Fig. 5).

use crate::error::TemuError;
use crate::scenario::RunBudget;
use crate::trace::{ThermalTrace, TraceSample};
use std::time::{Duration, Instant};
use temu_link::{EthernetConfig, EthernetLink, LinkStats, StatsPacket, TempPacket};
use temu_platform::{DfsPolicy, Machine, WindowStats, EVENT_BYTES};
use temu_power::{FloorplanMap, PowerModel};
use temu_state::{StateError, StateReader, StateWriter};
use temu_thermal::{GridConfig, SolverStats, ThermalModel};

/// Envelope magic of [`EmulationState::to_bytes`].
pub const STATE_MAGIC: [u8; 4] = *b"EMUS";
/// Highest [`EmulationState`] stream version this build reads and writes.
pub const STATE_VERSION: u32 = 1;
/// Inner envelope of the platform section (machine + statistics link)
/// embedded in an [`EmulationState`].
const PLATFORM_MAGIC: [u8; 4] = *b"TPLT";
const PLATFORM_VERSION: u32 = 1;

/// A mid-run window observer: `(every, hook)` — the hook sees the
/// emulation at a checkpointable window boundary after every `every`-th
/// window of the logical run (see [`ThermalEmulation::run_budget`]).
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
    /// Thermal meshing, boundary conditions and solver execution strategy.
    ///
    /// The default [`temu_thermal::SweepMode::Auto`] resolves per mesh:
    /// paper-scale floorplans solve single-threaded, meshes at or above
    /// `grid.parallel_threshold` cells run colored parallel sweeps on the
    /// solver's worker pool — the co-emulation loop inherits whichever the
    /// mesh warrants (see [`ThermalEmulation::solver_parallel`]).
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

/// Summary of one finished co-emulation run call.
///
/// Every field is a **per-call delta**: a second `run_windows` /
/// `run_to_halt` call on the same emulation reports only the windows,
/// time, cycles, statistics and link traffic of *that* call, so throughput
/// derived from a report (windows per wall second, virtual-to-FPGA ratio)
/// is always internally consistent. Lifetime totals across every call stay
/// available on the emulation itself via [`ThermalEmulation::totals`].
#[derive(Clone, Debug)]
#[must_use]
pub struct EmulationReport {
    /// Sampling windows executed by this call.
    pub windows: u64,
    /// Virtual seconds emulated by this call.
    pub virtual_seconds: f64,
    /// Virtual cycles executed by this call (varies with DFS).
    pub virtual_cycles: u64,
    /// Modeled FPGA (physical) time of this call, including VPCM freezes —
    /// the Table 3 "HW Emulator" quantity, now with the thermal loop
    /// attached.
    pub fpga_seconds: f64,
    /// Host wall-clock time of this call (platform + thermal + link).
    pub wall: Duration,
    /// Whether every core halted.
    pub all_halted: bool,
    /// Aggregate platform statistics of this call's windows.
    pub aggregate: WindowStats,
    /// Statistics-link traffic of this call.
    pub link: LinkStats,
    /// Convergence accounting of the thermal solver over this call. A non-zero
    /// `unconverged_substeps` means the temperature trace was produced by
    /// an implicit solver that silently stopped converging — configure
    /// `GridConfig::strict_convergence` (or
    /// `Scenario::strict_convergence`) to turn that into a hard
    /// [`TemuError::Thermal`] instead.
    pub solver: SolverStats,
}

/// Lifetime totals of a [`ThermalEmulation`], accumulated across every
/// `run_*` call (the cumulative view that [`EmulationReport`]'s per-call
/// deltas deliberately exclude).
#[derive(Clone, Debug)]
#[must_use]
pub struct EmulationTotals {
    /// Sampling windows executed since construction.
    pub windows: u64,
    /// Virtual seconds emulated since construction.
    pub virtual_seconds: f64,
    /// Virtual cycles executed since construction.
    pub virtual_cycles: u64,
    /// Modeled FPGA (physical) time since construction.
    pub fpga_seconds: f64,
    /// Aggregate platform statistics since construction.
    pub aggregate: WindowStats,
    /// Statistics-link traffic since construction.
    pub link: LinkStats,
    /// Thermal-solver convergence accounting since construction.
    pub solver: SolverStats,
}

/// Per-call baseline captured at the start of each `run_*` call so the
/// report can subtract everything that happened before it.
#[derive(Clone, Debug, Default)]
struct CallBase {
    windows: u64,
    virtual_seconds: f64,
    virtual_cycles: u64,
    fpga_seconds: f64,
    link: LinkStats,
    solver: SolverStats,
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
    trace: ThermalTrace,
    seq: u32,
    windows: u64,
    virtual_seconds: f64,
    virtual_cycles: u64,
    fpga_seconds: f64,
    aggregate: WindowStats,
    call_aggregate: WindowStats,
    call_base: CallBase,
    /// Residual watermarks of *previous* calls (the model's own watermark
    /// is re-armed per call), folded into [`ThermalEmulation::totals`].
    past_worst_residual_k: f64,
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
            seq: 0,
            windows: 0,
            virtual_seconds: 0.0,
            virtual_cycles: 0,
            fpga_seconds: 0.0,
            aggregate: WindowStats::default(),
            call_aggregate: WindowStats::default(),
            call_base: CallBase::default(),
            past_worst_residual_k: 0.0,
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

    /// Mutable machine access (program loading, shared-data setup).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The thermal model.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// Whether the thermal solver runs parallel colored sweeps for this
    /// emulation's mesh (threshold-based resolution of the configured
    /// sweep mode).
    pub fn solver_parallel(&self) -> bool {
        self.model.uses_parallel_sweeps()
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
    /// `core.stage.{machine,power,link,thermal,feedback}_ns`.
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

        // Ship statistics (and any event-log backlog) over the link within
        // the window's physical-time budget.
        let fpga_hz = self.machine.vpcm().fpga_hz;
        let physical_window_s = (stats.cycles() + stats.freeze_mem) as f64 / fpga_hz as f64;
        let link_freeze_s = temu_obs::time!("core.stage.link_ns", self.ship_stats(&stats, &powers, hz, physical_window_s));

        // Thermal step and temperature feedback.
        let temps = temu_obs::time!("core.stage.thermal_ns", {
            self.model.set_powers(&powers);
            self.model.try_step(window_s)?;
            self.model.component_temps()
        });
        temu_obs::time!("core.stage.feedback_ns", self.feed_back(&temps, hz));

        // Bookkeeping.
        self.seq = self.seq.wrapping_add(1);
        self.windows += 1;
        self.virtual_seconds += window_s;
        self.virtual_cycles += stats.cycles();
        self.fpga_seconds += physical_window_s + link_freeze_s;
        self.aggregate.merge(&stats);
        self.call_aggregate.merge(&stats);
        let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.trace.push(TraceSample {
            t_virtual_s: self.virtual_seconds,
            temps_k: temps,
            max_temp_k: hottest,
            virtual_hz: hz,
            total_power_w: powers.iter().sum(),
            fpga_seconds: self.fpga_seconds,
        });
        Ok(())
    }

    /// Sends the window's statistics packet, plus the event-log backlog,
    /// over the link within the window's physical time, and records the
    /// congestion freeze in the VPCM. Returns the freeze in seconds.
    fn ship_stats(&mut self, stats: &WindowStats, powers: &[f64], hz: u64, physical_window_s: f64) -> f64 {
        let packet = StatsPacket {
            seq: self.seq,
            window_start: stats.start_cycle,
            window_cycles: stats.cycles(),
            virtual_hz: hz,
            power_mw: powers.iter().map(|&p| (p * 1000.0).round() as u32).collect(),
        };
        let mut payload = packet.encode().to_vec();
        if let Some(events) = self.machine.uncore_mut().events_mut() {
            // Every event must cross the link: the buffered ones and the ones
            // that found the BRAM buffer full (already counted into
            // `stats.events_overflowed` by the window collection) — on the
            // real platform the VPCM would have frozen the virtual clock
            // mid-window instead of dropping them, so their transmission time
            // is charged the same way (congestion accounted at window
            // granularity, DESIGN.md §2).
            let drained = events.drain(usize::MAX >> 1).len() as u64 + stats.events_overflowed;
            payload.extend(std::iter::repeat_n(0u8, (drained as usize) * EVENT_BYTES));
        }
        let frames = self.link.packetize(&payload.into(), true);
        let link_freeze_s = self.link.send_window(&frames, physical_window_s);
        // Surface the congestion freeze through the VPCM so the next window's
        // statistics carry it (the report accounts it directly).
        let fpga_hz = self.machine.vpcm().fpga_hz;
        self.machine
            .vpcm_mut()
            .record_link_freeze((link_freeze_s * fpga_hz as f64).round() as u64);
        link_freeze_s
    }

    /// Returns the temperatures to the platform (reply packet, sensor
    /// registers) and runs the §7 DFS state machine on the hottest one.
    fn feed_back(&mut self, temps: &[f64], hz: u64) {
        let reply = TempPacket {
            seq: self.seq,
            temps_centi_k: temps.iter().map(|&t| (t * 100.0).round() as u32).collect(),
        };
        let reply_frames = self.link.packetize(&reply.encode().to_vec().into(), false);
        let _ = self.link.tx_seconds(&reply_frames); // downlink is never the bottleneck
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

    /// Runs windows until every core halts or `max_windows` elapse.
    ///
    /// # Errors
    ///
    /// Propagates platform faults and (strict mode) thermal
    /// non-convergence.
    pub fn run_to_halt(&mut self, max_windows: u64) -> Result<EmulationReport, TemuError> {
        self.run_budget(RunBudget::ToHalt { max_windows }, false, None)
    }

    /// Runs a fixed number of windows regardless of halting (long thermal
    /// observations over repeating workloads).
    ///
    /// # Errors
    ///
    /// Propagates platform faults and (strict mode) thermal
    /// non-convergence.
    pub fn run_windows(&mut self, n: u64) -> Result<EmulationReport, TemuError> {
        self.run_budget(RunBudget::Windows(n), false, None)
    }

    /// Runs a [`RunBudget`] with optional mid-run observation — the one
    /// window loop behind [`ThermalEmulation::run_to_halt`],
    /// [`ThermalEmulation::run_windows`], [`crate::Scenario::run`],
    /// checkpoint resume and the sweep's point observer.
    ///
    /// `resumed` marks a call that continues a run restored by
    /// [`ThermalEmulation::restore_state`]: the per-call baseline captured
    /// by the *original* call (carried through the checkpoint) is kept
    /// instead of re-arming it, so the returned report covers the whole
    /// logical run — identical to an uninterrupted one except for wall
    /// time. The budget is counted against that same baseline, so a
    /// resumed `Windows(n)` call executes only the windows the original
    /// call had left.
    ///
    /// `observer` is `(every, hook)`: after every `every`-th window of the
    /// logical run the hook sees the emulation at a window boundary
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
        resumed: bool,
        mut observer: WindowObserver<'_>,
    ) -> Result<EmulationReport, TemuError> {
        let t0 = Instant::now();
        if !resumed {
            self.begin_call();
        }
        let (cap, to_halt) = match budget {
            RunBudget::ToHalt { max_windows } => (max_windows, true),
            RunBudget::Windows(n) => (n, false),
        };
        let mut executed = self.windows - self.call_base.windows;
        while executed < cap {
            if to_halt && executed > 0 && self.machine.all_halted() {
                break;
            }
            self.run_window()?;
            executed += 1;
            if let Some((every, hook)) = observer.as_mut() {
                if *every > 0
                    && executed.is_multiple_of(*every)
                    && executed < cap
                    && !(to_halt && self.machine.all_halted())
                {
                    hook(self)?;
                }
            }
        }
        Ok(self.report(t0))
    }

    /// Captures the complete run state at a window boundary as a
    /// serializable [`EmulationState`] — machine (cores, caches, memories,
    /// interconnect, sniffers, VPCM), thermal model (temperature field,
    /// warm-start history, convergence accounting), statistics link, DFS
    /// ladder position, trace and every cumulative counter. Restoring it
    /// into a freshly built identical emulation
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
            seq: self.seq,
            windows: self.windows,
            virtual_seconds: self.virtual_seconds,
            virtual_cycles: self.virtual_cycles,
            fpga_seconds: self.fpga_seconds,
            aggregate: self.aggregate.clone(),
            call_aggregate: self.call_aggregate.clone(),
            call_base: self.call_base.clone(),
            past_worst_residual_k: self.past_worst_residual_k,
            trace: self.trace.clone(),
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
        let (mut r, _) = StateReader::new(&state.platform, PLATFORM_MAGIC, PLATFORM_VERSION)?;
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
        self.seq = state.seq;
        self.windows = state.windows;
        self.virtual_seconds = state.virtual_seconds;
        self.virtual_cycles = state.virtual_cycles;
        self.fpga_seconds = state.fpga_seconds;
        self.aggregate = state.aggregate.clone();
        self.call_aggregate = state.call_aggregate.clone();
        self.call_base = state.call_base.clone();
        self.past_worst_residual_k = state.past_worst_residual_k;
        self.trace = state.trace.clone();
        Ok(())
    }

    /// Lifetime totals across every `run_*` call (and any direct
    /// [`ThermalEmulation::run_window`] calls) on this emulation — the
    /// cumulative counterpart of the per-call [`EmulationReport`].
    pub fn totals(&self) -> EmulationTotals {
        let mut solver = self.model.solver_stats();
        solver.worst_residual_k = solver.worst_residual_k.max(self.past_worst_residual_k);
        EmulationTotals {
            windows: self.windows,
            virtual_seconds: self.virtual_seconds,
            virtual_cycles: self.virtual_cycles,
            fpga_seconds: self.fpga_seconds,
            aggregate: self.aggregate.clone(),
            link: *self.link.stats(),
            solver,
        }
    }

    /// Marks the start of a `run_*` call: snapshots every cumulative
    /// counter so [`ThermalEmulation::report`] can subtract it, resets the
    /// per-call aggregate, and re-arms the solver's residual watermark
    /// (banking the old one for [`ThermalEmulation::totals`]).
    fn begin_call(&mut self) {
        self.call_aggregate = WindowStats::default();
        self.past_worst_residual_k = self.past_worst_residual_k.max(self.model.solver_stats().worst_residual_k);
        self.model.reset_residual_watermark();
        self.call_base = CallBase {
            windows: self.windows,
            virtual_seconds: self.virtual_seconds,
            virtual_cycles: self.virtual_cycles,
            fpga_seconds: self.fpga_seconds,
            link: *self.link.stats(),
            solver: self.model.solver_stats(),
        };
    }

    fn report(&self, t0: Instant) -> EmulationReport {
        let base = &self.call_base;
        let link = *self.link.stats();
        EmulationReport {
            windows: self.windows - base.windows,
            virtual_seconds: self.virtual_seconds - base.virtual_seconds,
            virtual_cycles: self.virtual_cycles - base.virtual_cycles,
            fpga_seconds: self.fpga_seconds - base.fpga_seconds,
            wall: t0.elapsed(),
            all_halted: self.machine.all_halted(),
            aggregate: self.call_aggregate.clone(),
            link: LinkStats {
                frames: link.frames - base.link.frames,
                wire_bytes: link.wire_bytes - base.link.wire_bytes,
                busy_seconds: link.busy_seconds - base.link.busy_seconds,
                freeze_seconds: link.freeze_seconds - base.link.freeze_seconds,
            },
            solver: self.model.solver_stats().delta_since(&base.solver),
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
///   arbitration, sniffer counters and event backlog, VPCM clock state;
/// * the **thermal model** — temperature field, lazily refreshed
///   coefficient anchors, second-order warm-start history, SOR/convergence
///   accounting ([`ThermalModel::snapshot`]);
/// * the **statistics link** counters, the **DFS ladder** position, the
///   recorded temperature **trace**, and every cumulative counter and
///   per-call baseline of the emulation.
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
/// * The byte stream is versioned (`EMUS`, version 1) and fails closed:
///   corrupt, truncated, or differently-shaped streams return
///   [`TemuError::State`] instead of partially applying.
#[derive(Clone, Debug)]
pub struct EmulationState {
    scenario_key: u64,
    seq: u32,
    windows: u64,
    virtual_seconds: f64,
    virtual_cycles: u64,
    fpga_seconds: f64,
    aggregate: WindowStats,
    call_aggregate: WindowStats,
    call_base: CallBase,
    past_worst_residual_k: f64,
    trace: ThermalTrace,
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
        self.windows
    }

    /// Serializes the state into a self-describing versioned byte stream.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new(STATE_MAGIC, STATE_VERSION);
        w.u64(self.scenario_key);
        w.u32(self.seq);
        w.u64(self.windows);
        w.f64(self.virtual_seconds);
        w.u64(self.virtual_cycles);
        w.f64(self.fpga_seconds);
        self.aggregate.save_state(&mut w);
        self.call_aggregate.save_state(&mut w);
        w.u64(self.call_base.windows);
        w.f64(self.call_base.virtual_seconds);
        w.u64(self.call_base.virtual_cycles);
        w.f64(self.call_base.fpga_seconds);
        self.call_base.link.save_state(&mut w);
        save_solver_stats(&self.call_base.solver, &mut w);
        w.f64(self.past_worst_residual_k);
        w.usize(self.trace.component_names.len());
        for name in &self.trace.component_names {
            w.bytes(name.as_bytes());
        }
        w.usize(self.trace.samples.len());
        for s in &self.trace.samples {
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
    /// [`TemuError::State`] on a corrupt, truncated, or
    /// unsupported-version stream. The embedded platform and thermal
    /// sections are validated later, on restore.
    pub fn from_bytes(buf: &[u8]) -> Result<EmulationState, TemuError> {
        let (mut r, _) = StateReader::new(buf, STATE_MAGIC, STATE_VERSION)?;
        let scenario_key = r.u64()?;
        let seq = r.u32()?;
        let windows = r.u64()?;
        let virtual_seconds = r.f64()?;
        let virtual_cycles = r.u64()?;
        let fpga_seconds = r.f64()?;
        let mut aggregate = WindowStats::default();
        aggregate.load_state(&mut r)?;
        let mut call_aggregate = WindowStats::default();
        call_aggregate.load_state(&mut r)?;
        let mut call_base = CallBase {
            windows: r.u64()?,
            virtual_seconds: r.f64()?,
            virtual_cycles: r.u64()?,
            fpga_seconds: r.f64()?,
            ..CallBase::default()
        };
        call_base.link.load_state(&mut r)?;
        call_base.solver = load_solver_stats(&mut r)?;
        let past_worst_residual_k = r.f64()?;
        let n_names = r.usize()?;
        let mut component_names = Vec::new();
        for _ in 0..n_names {
            let raw = r.bytes()?;
            component_names.push(String::from_utf8(raw).map_err(|_| StateError::BadValue {
                what: "component name (not UTF-8)",
                value: 0,
            })?);
        }
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
        let mut trace = ThermalTrace::new(component_names);
        trace.samples = samples;
        Ok(EmulationState {
            scenario_key,
            seq,
            windows,
            virtual_seconds,
            virtual_cycles,
            fpga_seconds,
            aggregate,
            call_aggregate,
            call_base,
            past_worst_residual_k,
            trace,
            dfs_level,
            platform,
            model,
        })
    }
}

/// [`SolverStats`] is `#[non_exhaustive]`, so it is serialized here next
/// to its only cross-crate consumer instead of in `temu-thermal`.
fn save_solver_stats(s: &SolverStats, w: &mut StateWriter) {
    w.u64(s.substeps);
    w.u64(s.unconverged_substeps);
    w.f64(s.worst_residual_k);
    w.u64(s.total_sweeps);
    w.u64(s.total_cycles);
}

fn load_solver_stats(r: &mut StateReader<'_>) -> Result<SolverStats, StateError> {
    let mut s = SolverStats::default();
    s.substeps = r.u64()?;
    s.unconverged_substeps = r.u64()?;
    s.worst_residual_k = r.f64()?;
    s.total_sweeps = r.u64()?;
    s.total_cycles = r.u64()?;
    Ok(s)
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
    fn second_call_reports_only_its_own_windows() {
        // Regression: the report used to mix lifetime-cumulative counters
        // with a per-call wall clock, so a second `run_windows` call
        // charged this call's wall time against all-time window counts and
        // corrupted any derived throughput.
        let mut emu = emulation(None, 100_000);
        let first = emu.run_windows(3).unwrap();
        assert_eq!(first.windows, 3);
        let second = emu.run_windows(2).unwrap();
        assert_eq!(second.windows, 2, "second call reports its own windows only");
        assert!((second.virtual_seconds - 0.002).abs() < 1e-9, "2 × 1 ms windows");
        assert!(second.virtual_cycles < first.virtual_cycles);
        assert_eq!(
            second.virtual_cycles,
            second.aggregate.cycles(),
            "per-call aggregate matches per-call cycles"
        );
        assert!(second.fpga_seconds > 0.0 && second.fpga_seconds < first.fpga_seconds);
        assert!(second.link.frames >= 2 && second.link.frames < first.link.frames);
        assert!(second.solver.substeps > 0 && second.solver.substeps < first.solver.substeps);
        // The cumulative view lives on the emulation itself.
        let totals = emu.totals();
        assert_eq!(totals.windows, 5);
        assert!((totals.virtual_seconds - 0.005).abs() < 1e-9);
        assert_eq!(totals.virtual_cycles, first.virtual_cycles + second.virtual_cycles);
        assert_eq!(totals.aggregate.cycles(), totals.virtual_cycles);
        assert_eq!(totals.link.frames, first.link.frames + second.link.frames);
        assert_eq!(totals.solver.substeps, first.solver.substeps + second.solver.substeps);
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
        // Paper-scale mesh under the default Auto mode: serial.
        let auto = emulation(None, 10);
        assert!(!auto.solver_parallel(), "paper-scale mesh stays single-threaded");
        // Forcing the threshold down (or the mode to Parallel) switches the
        // loop's solver to colored parallel sweeps.
        let machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
        let mut ecfg = EmulationConfig::default();
        ecfg.grid.sweep = SweepMode::Parallel;
        let forced = ThermalEmulation::new(machine, fig4b_arm11(), ecfg).unwrap();
        assert!(forced.solver_parallel());
    }

    #[test]
    fn forced_parallel_solver_matches_serial_loop() {
        use temu_thermal::SweepMode;
        let run = |sweep| {
            let mut machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
            let cfg = MatrixConfig { n: 8, iters: 50_000, cores: 4 };
            machine.load_program_all(&matrix::program(&cfg).unwrap()).unwrap();
            let mut ecfg = EmulationConfig { sampling_window_s: 0.001, ..EmulationConfig::default() };
            ecfg.grid.sweep = sweep;
            let mut emu = ThermalEmulation::new(machine, fig4b_arm11(), ecfg).unwrap();
            let _ = emu.run_windows(10).unwrap();
            emu.trace().samples.last().unwrap().max_temp_k
        };
        let serial = run(SweepMode::Serial);
        let parallel = run(SweepMode::Parallel);
        assert!((serial - parallel).abs() < 1e-3, "serial {serial} K vs parallel {parallel} K");
    }

    #[test]
    fn link_carries_stats_every_window() {
        let mut emu = emulation(None, 10_000);
        let _ = emu.run_windows(4).unwrap();
        assert!(emu.link().stats().frames >= 4, "at least one frame per window");
        assert_eq!(emu.link().stats().freeze_seconds, 0.0, "count-logging never congests");
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
        let report = resumed.run_budget(RunBudget::Windows(20), true, None).unwrap();

        // The resumed report covers the whole logical run.
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
    }
}
