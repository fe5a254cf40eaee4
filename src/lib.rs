//! # temu — HW/SW thermal emulation framework for MPSoC
//!
//! Facade crate re-exporting the whole `temu` workspace: a Rust reproduction
//! of Atienza et al., *"A Fast HW/SW FPGA-Based Thermal Emulation Framework
//! for Multi-Processor System-on-Chip"* (DAC 2006).
//!
//! ## Quickstart
//!
//! Experiments are described by a fluent [`Scenario`] — platform, workload,
//! thermal model, DFS policy, run budget — and executed either one at a time
//! or in bulk with a [`Campaign`]. All failures are one typed error,
//! [`TemuError`]:
//!
//! ```
//! use temu::{Campaign, Scenario, TemuError};
//!
//! fn main() -> Result<(), TemuError> {
//!     // One experiment: 2 cores on the OPB bus dithering two images.
//!     let run = Scenario::exploration_bus(2).sampling_window_s(0.002).run()?;
//!     assert!(run.report.all_halted);
//!
//!     // A design-space sweep: bus vs NoC, executed concurrently, reported
//!     // in input order with JSON/CSV export.
//!     let report = Campaign::new()
//!         .scenario(Scenario::exploration_bus(2).sampling_window_s(0.002))
//!         .scenario(Scenario::exploration_noc(2).sampling_window_s(0.002))
//!         .run();
//!     assert!(report.all_ok());
//!     println!("{}", report.to_csv());
//!     Ok(())
//! }
//! ```
//!
//! For full design-space grids there is [`Sweep`]: cartesian parameter
//! axes (core counts, DFS frequency ladders, mesh resolutions, workloads,
//! solver choices) expand into grid points that run on the campaign's
//! worker pool, stream per-point progress, and memoize results by
//! configuration content key ([`ResultCache`]) so repeated or
//! overlapping sweeps skip already-solved points.
//!
//! Experiments are also expressible as *data*: a [`ScenarioSpec`] /
//! [`SweepSpec`] is the JSON wire form of the same builders, and the
//! [`serve`] crate (`temu-serve` / `temu-client` bins) runs submitted
//! specs on a shared job server whose content-keyed [`ResultCache`] spans
//! jobs, connections and restarts.
//!
//! Start with [`framework`] for the closed-loop co-emulation flow, or
//! [`platform`] to build and run an emulated MPSoC directly. See the README
//! for the architecture overview and DESIGN.md for the experiment index.

pub use temu_cpu as cpu;
pub use temu_des as des;
pub use temu_fleet as fleet;
pub use temu_fpga as fpga;
pub use temu_framework as framework;
pub use temu_interconnect as interconnect;
pub use temu_isa as isa;
pub use temu_link as link;
pub use temu_mem as mem;
pub use temu_platform as platform;
pub use temu_power as power;
pub use temu_serve as serve;
pub use temu_thermal as thermal;
pub use temu_workloads as workloads;

pub use temu_framework::{
    Campaign, CampaignReport, ImplicitSolve, PointSummary, ResultCache, Scenario, ScenarioResult,
    ScenarioRun, ScenarioSpec, SolverStats, SpecError, Sweep, SweepPoint, SweepPointResult,
    SweepProgress, SweepReport, SweepSpec, TemuError, Workload,
};
