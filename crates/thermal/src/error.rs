//! Typed errors of the thermal meshing and solver configuration.

use std::error::Error;
use std::fmt;

/// Why a [`GridConfig`](crate::GridConfig) was rejected or a
/// [`ThermalGrid`](crate::ThermalGrid) could not be built.
#[derive(Clone, Copy, PartialEq, Debug)]
#[non_exhaustive]
pub enum ThermalError {
    /// `si_layers` is zero.
    NoSiliconLayers,
    /// `cu_layers` is zero.
    NoCopperLayers,
    /// `default_div` or `hot_div` is zero.
    ZeroSubdivision,
    /// The filler pitch is not a positive number.
    NonPositiveFillerPitch {
        /// The offending pitch, µm.
        pitch_um: f64,
    },
    /// The ambient temperature is not a positive number.
    NonPositiveAmbient {
        /// The offending temperature, K.
        ambient_k: f64,
    },
    /// The package-to-air resistance is not positive (use
    /// `f64::INFINITY` for an adiabatic top).
    NonPositivePackageResistance {
        /// The offending resistance, K/W.
        k_per_w: f64,
    },
    /// The semi-implicit substep is not a positive number.
    NonPositiveSubstep {
        /// The offending substep, seconds.
        dt_s: f64,
    },
    /// The multigrid switch-over threshold is zero cells.
    ZeroMultigridThreshold,
    /// An implicit substep exhausted its iteration budget without meeting
    /// the convergence tolerance, and the configuration demands strict
    /// convergence (`GridConfig::strict_convergence`). The temperature
    /// field is left at the last accepted substep.
    NotConverged {
        /// Simulated time of the substep that failed, seconds.
        time_s: f64,
        /// The substep's final iteration update (max |ΔT| of the last
        /// sweep), K — the solver's convergence measure, still above the
        /// tolerance.
        residual_k: f64,
        /// Fine-level Gauss–Seidel sweeps the substep spent.
        sweeps: usize,
    },
    /// The tiling failed to partition the die (an inconsistent floorplan:
    /// overlapping or out-of-bounds components).
    CoverageGap {
        /// Area the tiles cover, m².
        covered_m2: f64,
        /// Die area, m².
        die_m2: f64,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::NoSiliconLayers => write!(f, "at least one silicon layer is required"),
            ThermalError::NoCopperLayers => write!(f, "at least one copper layer is required"),
            ThermalError::ZeroSubdivision => write!(f, "component subdivisions must be >= 1"),
            ThermalError::NonPositiveFillerPitch { pitch_um } => {
                write!(f, "filler pitch must be positive (got {pitch_um})")
            }
            ThermalError::NonPositiveAmbient { ambient_k } => {
                write!(f, "ambient temperature must be positive (got {ambient_k})")
            }
            ThermalError::NonPositivePackageResistance { k_per_w } => {
                write!(f, "package-to-air resistance must be positive (got {k_per_w}; use INFINITY for adiabatic)")
            }
            ThermalError::NonPositiveSubstep { dt_s } => {
                write!(f, "semi-implicit substep must be positive (got {dt_s})")
            }
            ThermalError::ZeroMultigridThreshold => write!(f, "multigrid threshold must be >= 1 cell"),
            ThermalError::NotConverged { time_s, residual_k, sweeps } => write!(
                f,
                "implicit substep at t={time_s:.6} s did not converge within {sweeps} sweeps (last update {residual_k:.3e} K)"
            ),
            ThermalError::CoverageGap { covered_m2, die_m2 } => {
                write!(f, "tiling covers {covered_m2:.3e} m^2 of a {die_m2:.3e} m^2 die")
            }
        }
    }
}

impl Error for ThermalError {}
