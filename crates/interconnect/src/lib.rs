//! # temu-interconnect — buses and NoCs of the emulated MPSoC
//!
//! Reproduces the paper's §3.3: the interconnect between the per-core memory
//! controllers and the shared main memory is configurable and can be
//!
//! * a shared **bus** — the Xilinx OPB/PLB classes or the paper's own
//!   configurable 32-bit data/address bus with selectable arbitration
//!   (fixed-priority, round-robin or TDMA), or
//! * a packet-switched **NoC** (Xpipes-class: switches with output buffers,
//!   point-to-point links, OCP-style request/response transactions).
//!
//! Both are *transaction-timing* models driven by the emulation engine: a
//! [`Request`] issued at a cycle returns a [`Grant`] with the completion
//! cycle, with contention resolved through per-resource busy-until windows.
//! The signal-level FSM equivalents used by the `temu-des` baseline implement
//! the same semantics cycle by cycle; the two are cross-validated.
//!
//! Switching activity ("the signal transitions in the buses or NoC
//! interconnects", §4.1) is counted deterministically: address-line toggles
//! are Hamming distances between successive addresses, data-line toggles use
//! the half-width average-case estimate per transferred word.

mod bus;
mod error;
mod noc;
mod req;

pub use bus::{Arbitration, Bus, BusConfig, BusKind};
pub use error::IcError;
pub use noc::{Noc, NocConfig, Topology};
pub use req::{Grant, IcStats, Request};

/// Average-case data-line toggle estimate: half the 32 data wires switch per
/// transferred word.
pub(crate) fn data_transitions(words: u32) -> u64 {
    u64::from(words) * 16
}

/// Hamming distance between successive values on a 32-bit line group.
pub(crate) fn addr_transitions(prev: u32, next: u32) -> u64 {
    u64::from((prev ^ next).count_ones())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_estimates() {
        assert_eq!(data_transitions(4), 64);
        assert_eq!(addr_transitions(0b1010, 0b0110), 2);
        assert_eq!(addr_transitions(7, 7), 0);
    }
}
