//! # temu-platform — the fast MPSoC emulation engine
//!
//! This crate is the Rust stand-in for the paper's FPGA side (§3–§4): it
//! assembles TE32 cores, per-core memory controllers with L1 caches, private
//! and shared memories and a bus or NoC into a [`Machine`], executes real
//! programs on it cycle-accurately, and extracts the statistics the paper's
//! **HW sniffers** export at the three architectural levels (processors,
//! memory subsystem, interconnect).
//!
//! The engine issues every access that may reach shared state in exact
//! global-time order (from the core with the smallest local cycle, with
//! interconnect-defined tie-breaking), so shared-resource contention
//! resolves identically to the signal-level `temu-des` baseline — the two
//! are cross-validated cycle-exactly. In between, each core runs its
//! core-local work (private-memory fetches and data accesses) back to back,
//! ahead of the others, so the engine does O(1) work per instruction and
//! rarely switches cores, which is what gives the
//! three-orders-of-magnitude throughput gap the paper reports.
//!
//! The **Virtual Platform Clock Manager** ([`Vpcm`], §4.2) tracks the
//! relationship between emulated (virtual) cycles and FPGA (physical) time:
//! freezes caused by physically-slow memory devices or statistics-link
//! congestion extend physical time without advancing virtual time, and the
//! dual-threshold DFS policy of §7 switches the virtual clock frequency.

mod config;
mod error;
mod machine;
mod mmio;
mod sniffer;
mod stats;
mod uncore;
mod vpcm;

pub use config::{IcChoice, PlatformConfig};
pub use error::PlatformError;
pub use machine::{Machine, RunSummary};
pub use mmio::{
    Mmio, MMIO_CONSOLE, MMIO_CORE_ID, MMIO_CYCLE_HI, MMIO_CYCLE_LO, MMIO_FREQ_MHZ, MMIO_NCORES,
    MMIO_SENSOR_BASE, MMIO_SNIFFER_CTRL,
};
pub use sniffer::{EventBuffer, SnifferMode, EVENT_BYTES};
pub use stats::WindowStats;
pub use uncore::Uncore;
pub use vpcm::{DfsBand, DfsPolicy, Vpcm};
