//! # temu-cpu — TE32 processor core model
//!
//! A multicycle in-order RISC-32 core (MicroBlaze-class, §3.1 of the paper):
//! each instruction costs its instruction fetch, an execute phase (with extra
//! cycles for taken control transfers, multiplies and divides) and, for
//! memory instructions, the data access. All memory timing comes from the
//! [`MemoryPort`] the platform attaches the core to (memory controller +
//! caches + interconnect), so the same core model drives both the fast
//! emulation engine and the signal-level baseline.
//!
//! The core tracks the statistics the paper's HW sniffers export for the
//! processor level: cycles spent **active**, **stalled** (waiting on the
//! memory hierarchy) and **idle** (halted / frozen), plus instruction mix
//! counters.

mod core;
mod port;
mod regfile;
mod stats;

pub use crate::core::{Cpu, CpuConfig, CpuError, StepOutcome};
pub use port::{MemReply, MemoryPort, Text};
pub use regfile::RegFile;
pub use stats::CoreStats;
