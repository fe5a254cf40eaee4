//! The workspace-wide error type of the co-emulation framework.
//!
//! Every crate in the stack reports its own typed error
//! ([`PlatformError`], [`ThermalError`], [`WorkloadError`], [`PowerError`],
//! [`MemConfigError`], [`IcError`], [`CpuError`], [`MemError`]); this module
//! folds them into one [`TemuError`] so a whole experiment — scenario
//! construction, program generation, machine assembly, emulation — can run
//! behind a single `?`.

use std::error::Error;
use std::fmt;
use temu_cpu::CpuError;
use temu_fpga::UtilizationReport;
use temu_interconnect::IcError;
use temu_mem::{MemConfigError, MemError};
use temu_platform::PlatformError;
use temu_power::PowerError;
use temu_state::StateError;
use temu_thermal::ThermalError;
use temu_workloads::WorkloadError;

/// Any failure of the co-emulation framework, from configuration to run
/// time.
#[derive(Debug)]
#[non_exhaustive]
pub enum TemuError {
    /// The platform configuration or machine construction failed.
    Platform(PlatformError),
    /// The thermal grid or solver configuration failed.
    Thermal(ThermalError),
    /// The workload configuration or program generation failed.
    Workload(WorkloadError),
    /// The floorplan cannot serve the platform.
    Power(PowerError),
    /// A memory-system configuration failed outside a platform build.
    MemConfig(MemConfigError),
    /// An interconnect configuration failed outside a platform build.
    Interconnect(IcError),
    /// Workload input data did not fit in the shared memory.
    SharedData(MemError),
    /// A core faulted during emulation.
    Cpu(CpuError),
    /// The scenario requested an FPGA-fit check and the platform does not
    /// fit the device (the paper's pre-synthesis gate, §6).
    DoesNotFit(Box<UtilizationReport>),
    /// A scenario panicked inside a campaign worker; the payload is the
    /// panic message.
    ScenarioPanicked(String),
    /// The sweep was cancelled before this point started: its point
    /// observer cancelled at the point's start, or an earlier point
    /// cancelled (see [`crate::Sweep::on_point`]). Already-completed
    /// points keep their results.
    Cancelled,
    /// The point observer cancelled *inside* this point at a window
    /// boundary (see [`crate::Sweep::on_point`]); the payload records how
    /// far the point got, and the observer saw (and could persist) the
    /// [`crate::EmulationState`] of that boundary.
    CancelledMidPoint {
        /// Sampling windows the point had executed when it was stopped.
        windows: u64,
    },
    /// A wire-format experiment spec ([`crate::ScenarioSpec`] /
    /// [`crate::SweepSpec`]) failed to parse or lower onto the builders.
    Spec(crate::SpecError),
    /// A checkpoint byte stream failed to decode, or decoded state did not
    /// fit the emulation it was restored into.
    State(StateError),
    /// A checkpoint was taken under a different scenario configuration
    /// than the one trying to resume from it (content keys differ), so
    /// restoring it would continue the *wrong* experiment.
    CheckpointMismatch {
        /// Content key of the scenario attempting the resume.
        expected: u64,
        /// Scenario content key embedded in the checkpoint.
        found: u64,
    },
}

impl TemuError {
    /// Whether this is a cancellation ([`TemuError::Cancelled`] or
    /// [`TemuError::CancelledMidPoint`]) rather than a failure.
    #[must_use]
    pub fn is_cancellation(&self) -> bool {
        matches!(self, TemuError::Cancelled | TemuError::CancelledMidPoint { .. })
    }
}

impl fmt::Display for TemuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemuError::Platform(e) => write!(f, "platform: {e}"),
            TemuError::Thermal(e) => write!(f, "thermal: {e}"),
            TemuError::Workload(e) => write!(f, "workload: {e}"),
            TemuError::Power(e) => write!(f, "power: {e}"),
            TemuError::MemConfig(e) => write!(f, "memory config: {e}"),
            TemuError::Interconnect(e) => write!(f, "interconnect: {e}"),
            TemuError::SharedData(e) => write!(f, "loading workload data: {e}"),
            TemuError::Cpu(e) => write!(f, "platform fault: {e}"),
            TemuError::DoesNotFit(report) => write!(
                f,
                "design does not fit the FPGA: {}/{} slices, {}/{} BRAM18",
                report.slices(),
                report.device.slices,
                report.bram18,
                report.device.bram18
            ),
            TemuError::ScenarioPanicked(msg) => write!(f, "scenario panicked: {msg}"),
            TemuError::Cancelled => write!(f, "cancelled before execution"),
            TemuError::CancelledMidPoint { windows } => {
                write!(f, "cancelled mid-point after {windows} windows")
            }
            TemuError::Spec(e) => write!(f, "spec: {e}"),
            TemuError::State(e) => write!(f, "checkpoint state: {e}"),
            TemuError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different scenario: content key {found:#018x}, expected {expected:#018x}"
            ),
        }
    }
}

impl Error for TemuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TemuError::Platform(e) => Some(e),
            TemuError::Thermal(e) => Some(e),
            TemuError::Workload(e) => Some(e),
            TemuError::Power(e) => Some(e),
            TemuError::MemConfig(e) => Some(e),
            TemuError::Interconnect(e) => Some(e),
            TemuError::SharedData(e) => Some(e),
            TemuError::Cpu(e) => Some(e),
            TemuError::Spec(e) => Some(e),
            TemuError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::SpecError> for TemuError {
    fn from(e: crate::SpecError) -> TemuError {
        TemuError::Spec(e)
    }
}

impl From<PlatformError> for TemuError {
    fn from(e: PlatformError) -> TemuError {
        TemuError::Platform(e)
    }
}

impl From<ThermalError> for TemuError {
    fn from(e: ThermalError) -> TemuError {
        TemuError::Thermal(e)
    }
}

impl From<WorkloadError> for TemuError {
    fn from(e: WorkloadError) -> TemuError {
        TemuError::Workload(e)
    }
}

impl From<PowerError> for TemuError {
    fn from(e: PowerError) -> TemuError {
        TemuError::Power(e)
    }
}

impl From<MemConfigError> for TemuError {
    fn from(e: MemConfigError) -> TemuError {
        TemuError::MemConfig(e)
    }
}

impl From<IcError> for TemuError {
    fn from(e: IcError) -> TemuError {
        TemuError::Interconnect(e)
    }
}

impl From<MemError> for TemuError {
    fn from(e: MemError) -> TemuError {
        TemuError::SharedData(e)
    }
}

impl From<CpuError> for TemuError {
    fn from(e: CpuError) -> TemuError {
        TemuError::Cpu(e)
    }
}

impl From<StateError> for TemuError {
    fn from(e: StateError) -> TemuError {
        TemuError::State(e)
    }
}
