//! # temu-framework — the HW/SW thermal co-emulation flow
//!
//! The paper's contribution (§6, Fig. 5): run the emulated MPSoC for one
//! statistics sampling window (10 ms of virtual time by default), convert the
//! extracted sniffer statistics into per-floorplan-component power, ship them
//! over the Ethernet statistics link to the SW thermal model, advance the RC
//! network by the same window, feed the resulting temperatures back into the
//! platform's sensor registers, and let the run-time thermal-management
//! policy (the §7 dual-threshold DFS) retune the virtual clock — then repeat,
//! autonomously, until the workload halts.
//!
//! ## Describing experiments: [`Scenario`]
//!
//! A [`Scenario`] is the fluent front door: it composes platform, workload,
//! power model, thermal grid, DFS policy, floorplan, run budget and an
//! optional FPGA-fit gate, with presets for the paper's experiments:
//!
//! ```
//! use temu_framework::{Scenario, TemuError};
//!
//! fn main() -> Result<(), TemuError> {
//!     let run = Scenario::exploration_bus(2) // 2 cores, OPB bus, DITHERING
//!         .sampling_window_s(0.002)
//!         .run()?;
//!     assert!(run.report.all_halted);
//!     println!("peak {:?} K over {} windows", run.trace.peak_temp(), run.report.windows);
//!     Ok(())
//! }
//! ```
//!
//! ## Sweeping the design space: [`Campaign`]
//!
//! A [`Campaign`] executes many scenarios concurrently across host threads
//! ([`Campaign::threads`] sets the width, else the host's parallelism up
//! to 16; each scenario, its thermal solver included, runs on one thread)
//! and returns an input-ordered [`CampaignReport`] with JSON/CSV export —
//! the batching layer for design-space exploration, where each scenario is
//! one "synthesis-free" evaluation point:
//!
//! ```no_run
//! use temu_framework::{Campaign, Scenario};
//!
//! let report = Campaign::new()
//!     .scenarios((1..=4).map(Scenario::exploration_bus))
//!     .scenario(Scenario::exploration_noc(4))
//!     .run();
//! println!("{}", report.to_json());
//! ```
//!
//! Failures stay local: a scenario that returns a [`TemuError`] (or
//! panics) is carried in its slot of the report while its siblings run to
//! completion.
//!
//! ## Sweeping parameter grids: [`Sweep`]
//!
//! A [`Sweep`] expands cartesian axes — core counts, DFS frequency
//! ladders ([`temu_platform::DfsPolicy::ladder`]) or threshold bands,
//! mesh resolutions, workloads, implicit-solver choices, run budgets, or
//! custom knobs — into grid points, runs them on the campaign's worker
//! pool, streams each as it finishes ([`Sweep::on_progress`]) and reports
//! per grid point ([`SweepReport`]). A [`ResultCache`] memoizes each point
//! under its configuration content key ([`Scenario::content_key`],
//! optionally persisted to an on-disk store, a checksummed append log), so
//! re-running an identical or overlapping sweep skips every already-solved
//! point:
//!
//! ```no_run
//! use temu_framework::{ResultCache, Scenario, Sweep};
//!
//! let cache = ResultCache::in_memory();
//! let report = Sweep::new("bands", Scenario::paper_fig6_unmanaged())
//!     .cores(&[2, 4])
//!     .dfs_bands(&[(350.0, 340.0), (345.0, 335.0)], 500_000_000, 100_000_000)
//!     .run_cached(&cache);
//! println!("{}", report.to_csv());
//! ```
//!
//! ## One window loop
//!
//! [`ThermalEmulation::run_window`] is the one loop that advances an
//! emulation, with the feedback pipelined by one window like the paper's
//! FPGA-plus-host-PC system. Every run — scenario, campaign, sweep point,
//! served job — goes through it.
//!
//! ## Errors
//!
//! Every layer reports a typed error (`PlatformError`, `ThermalError`,
//! `WorkloadError`, `PowerError`, …); [`TemuError`] folds them into one
//! workspace-wide hierarchy so whole experiments run behind a single `?`.

mod artifacts;
mod campaign;
mod emulation;
mod error;
mod export;
mod scenario;
mod spec;
mod sweep;
mod trace;

pub use artifacts::{ArtifactCache, ArtifactStats};
pub use campaign::{Campaign, CampaignReport, ScenarioResult};
pub use emulation::{EmulationConfig, EmulationReport, EmulationState, ThermalEmulation};
pub use error::TemuError;
pub use export::{json_array, JsonObject, JsonValue};
pub use scenario::{RunBudget, Scenario, ScenarioRun, Workload};
pub use spec::{
    AxisSpec, DfsSpec, MeshSpec, PlatformSpec, ScenarioSpec, SpecError, SweepSpec, WorkloadSpec,
    NAMED_SWEEPS,
};
pub use sweep::{
    fnv1a64, fnv1a64_fold, CheckpointDecision, PointCheckpoint, PointSummary, ResultCache, Sweep,
    SweepPoint, SweepPointResult, SweepProgress, SweepReport, SweepSink,
};
pub use temu_thermal::{ImplicitSolve, SolverStats};
pub use trace::{ThermalTrace, TraceSample};
