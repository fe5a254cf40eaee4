//! Shared-bus timing model (§3.3).
//!
//! The paper includes the Xilinx On-chip Peripheral Bus (OPB) and Processor
//! Local Bus (PLB), plus a custom configurable 32-bit data/address bus with
//! selectable bandwidth and arbitration policy. All are single-transaction
//! buses: once granted, the bus is held for the address phase, the memory
//! service time and the data burst.
//!
//! Timing of one transaction (DESIGN.md §4):
//!
//! ```text
//! start    = max(issue + arb_latency, busy_until, tdma-slot constraint)
//! occupancy = addr_phase(1) + mem_latency + words * cycles_per_word
//! complete = start + occupancy
//! ```

use crate::req::{Grant, IcStats, Request};
use crate::{addr_transitions, data_transitions, IcError};
use temu_state::{StateError, StateReader, StateWriter};

/// Arbitration policy of the custom bus.
///
/// Policies differ only when several initiators contend: the emulation engine
/// presents colliding requests in arbitration order obtained from
/// [`Bus::tie_break`], and the cycle-level baseline applies the same rule
/// among request lines asserted in the same cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arbitration {
    /// Lowest initiator index wins.
    FixedPriority,
    /// Rotating priority starting after the last granted initiator.
    RoundRobin,
    /// Time-division slots of `slot_cycles` per initiator; a transaction may
    /// only *start* inside the owner's slot.
    Tdma {
        /// Length of each initiator's slot in cycles.
        slot_cycles: u32,
    },
}

/// Bus flavour (affects the defaults and the FPGA resource/power models).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BusKind {
    /// Xilinx On-chip Peripheral Bus: general-purpose, 1-cycle/word.
    Opb,
    /// Xilinx Processor Local Bus: fast memories/processors.
    Plb,
    /// The paper's own parameterizable 32-bit bus.
    Custom,
}

/// Bus configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusConfig {
    /// Flavour label.
    pub kind: BusKind,
    /// Arbitration policy.
    pub arbitration: Arbitration,
    /// Cycles from request to grant when the bus is idle.
    pub arb_latency: u32,
    /// Data cycles per 32-bit word (bandwidth knob; 1 = full width).
    pub cycles_per_word: u32,
    /// Number of initiator ports.
    pub initiators: usize,
}

impl BusConfig {
    /// OPB with `n` initiators, fixed priority, 1 word/cycle.
    pub fn opb(n: usize) -> BusConfig {
        BusConfig { kind: BusKind::Opb, arbitration: Arbitration::FixedPriority, arb_latency: 1, cycles_per_word: 1, initiators: n }
    }

    /// PLB with `n` initiators (faster arbitration pipeline).
    pub fn plb(n: usize) -> BusConfig {
        BusConfig { kind: BusKind::Plb, arbitration: Arbitration::FixedPriority, arb_latency: 1, cycles_per_word: 1, initiators: n }
    }

    /// The paper's custom exploration bus with a chosen arbitration policy.
    pub fn custom(n: usize, arbitration: Arbitration) -> BusConfig {
        BusConfig { kind: BusKind::Custom, arbitration, arb_latency: 1, cycles_per_word: 1, initiators: n }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: there must be at least one
    /// initiator, `cycles_per_word` must be nonzero, and a TDMA slot must be
    /// at least one cycle.
    pub fn validate(&self) -> Result<(), IcError> {
        if self.initiators == 0 {
            return Err(IcError::NoInitiators);
        }
        if self.cycles_per_word == 0 {
            return Err(IcError::ZeroCyclesPerWord);
        }
        if let Arbitration::Tdma { slot_cycles } = self.arbitration {
            if slot_cycles == 0 {
                return Err(IcError::ZeroTdmaSlot);
            }
        }
        Ok(())
    }
}

/// A shared bus instance.
#[derive(Clone, Debug)]
pub struct Bus {
    cfg: BusConfig,
    busy_until: u64,
    last_granted: usize,
    last_addr: u32,
    stats: IcStats,
}

impl Bus {
    /// Builds a bus from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: BusConfig) -> Bus {
        if let Err(e) = cfg.validate() {
            panic!("invalid bus configuration: {e}");
        }
        Bus { cfg, busy_until: 0, last_granted: usize::MAX, last_addr: 0, stats: IcStats::default() }
    }

    /// The configuration the bus was built with.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Cycle until which the bus is currently reserved.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Arbitration order key for initiator `who`: among requests presented in
    /// the same cycle, lower keys win. Used by the emulation engines to order
    /// colliding requests exactly like the cycle-level arbiter FSM does.
    pub fn tie_break(&self, who: usize) -> usize {
        match self.cfg.arbitration {
            Arbitration::FixedPriority => who,
            Arbitration::RoundRobin => {
                let n = self.cfg.initiators;
                let first = if self.last_granted == usize::MAX { 0 } else { (self.last_granted + 1) % n };
                (who + n - first) % n
            }
            // TDMA needs no tie-break: slots are disjoint by construction.
            Arbitration::Tdma { .. } => who,
        }
    }

    /// Unloaded service time of a transaction of `words` (plus any combined
    /// write-back payload) with `mem_latency`.
    pub fn unloaded(&self, words: u32, mem_latency: u32) -> u64 {
        u64::from(1 + mem_latency + words * self.cfg.cycles_per_word)
    }

    fn tdma_start(&self, earliest: u64, who: usize, slot_cycles: u32) -> u64 {
        let n = self.cfg.initiators as u64;
        let slot = u64::from(slot_cycles);
        let frame = n * slot;
        let my_start_in_frame = who as u64 * slot;
        // First cycle >= earliest that falls inside one of `who`'s slots.
        let frame_base = (earliest / frame) * frame;
        let mut candidate = frame_base + my_start_in_frame;
        loop {
            let slot_end = candidate + slot;
            if slot_end > earliest {
                return candidate.max(earliest);
            }
            candidate += frame;
        }
    }

    /// Serializes the arbitration and occupancy state.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.busy_until);
        w.usize(if self.last_granted == usize::MAX { self.cfg.initiators } else { self.last_granted });
        w.u32(self.last_addr);
        self.stats.save_state(w);
    }

    /// Restores state saved by [`Bus::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadValue`] on an out-of-range granted index.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.busy_until = r.u64()?;
        let granted = r.usize()?;
        // `initiators` encodes the never-granted sentinel (usize::MAX).
        if granted > self.cfg.initiators {
            return Err(StateError::BadValue { what: "last granted initiator", value: granted as u64 });
        }
        self.last_granted = if granted == self.cfg.initiators { usize::MAX } else { granted };
        self.last_addr = r.u32()?;
        self.stats.load_state(r)?;
        Ok(())
    }

    /// Schedules one transaction and returns its timing. The bus is held
    /// for the whole access, `mem_latency` (the target memory's service
    /// latency) included: the paper's platform has no split transactions.
    pub fn transact(&mut self, req: &Request, mem_latency: u32) -> Grant {
        debug_assert!(req.initiator < self.cfg.initiators, "initiator {} out of range", req.initiator);
        let earliest = req.issue_cycle + u64::from(self.cfg.arb_latency);
        let free = earliest.max(self.busy_until);
        let start = match self.cfg.arbitration {
            Arbitration::FixedPriority | Arbitration::RoundRobin => free,
            Arbitration::Tdma { slot_cycles } => self.tdma_start(free, req.initiator, slot_cycles),
        };
        let occupancy = self.unloaded(req.words + req.wb_words, mem_latency);
        let complete = start + occupancy;
        self.busy_until = complete;
        self.last_granted = req.initiator;

        self.stats.transactions += 1;
        self.stats.words += u64::from(req.words + req.wb_words);
        self.stats.transitions += addr_transitions(self.last_addr, req.addr) + data_transitions(req.words);
        self.stats.contention_cycles += start - earliest;
        self.stats.busy_cycles += occupancy;
        self.last_addr = req.addr;

        Grant { start, complete }
    }

    /// Statistics since construction or the last [`Bus::take_stats`].
    #[must_use]
    pub fn stats(&self) -> &IcStats {
        &self.stats
    }

    /// Returns and resets the statistics (sampling-window collection).
    pub fn take_stats(&mut self) -> IcStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(initiator: usize, issue: u64) -> Request {
        Request { initiator, target: 0, is_write: false, words: 4, wb_words: 0, addr: 0x1000_0000, issue_cycle: issue }
    }

    #[test]
    fn combined_eviction_fill_extends_occupancy() {
        let mut bus = Bus::new(BusConfig::opb(1));
        let g = bus.transact(&Request { wb_words: 4, ..req(0, 0) }, 5);
        // occupancy = 1 + 5 + (4 + 4) = 14.
        assert_eq!(g.complete - g.start, 14);
        assert_eq!(bus.stats().words, 8);
    }

    #[test]
    fn unloaded_transaction_timing() {
        let mut bus = Bus::new(BusConfig::opb(2));
        // start = issue(10) + arb(1); occupancy = 1 + lat(5) + 4 words = 10.
        let g = bus.transact(&req(0, 10), 5);
        assert_eq!(g, Grant { start: 11, complete: 21 });
        assert_eq!(bus.stats().contention_cycles, 0);
        assert_eq!(bus.stats().busy_cycles, 10);
    }

    #[test]
    fn back_to_back_serializes() {
        let mut bus = Bus::new(BusConfig::opb(2));
        let g0 = bus.transact(&req(0, 10), 5);
        let g1 = bus.transact(&req(1, 10), 5);
        assert_eq!(g1.start, g0.complete, "second initiator waits for the bus");
        assert_eq!(bus.stats().contention_cycles, g1.start - 11);
    }

    #[test]
    fn idle_bus_does_not_delay() {
        let mut bus = Bus::new(BusConfig::opb(2));
        bus.transact(&req(0, 0), 2);
        let g = bus.transact(&req(1, 1000), 2);
        assert_eq!(g.start, 1001);
    }

    #[test]
    fn round_robin_tie_break_rotates() {
        let mut bus = Bus::new(BusConfig::custom(4, Arbitration::RoundRobin));
        assert_eq!(bus.tie_break(0), 0, "before any grant, id order");
        bus.transact(&req(1, 0), 2);
        // After granting 1, priority order is 2,3,0,1.
        assert_eq!(bus.tie_break(2), 0);
        assert_eq!(bus.tie_break(3), 1);
        assert_eq!(bus.tie_break(0), 2);
        assert_eq!(bus.tie_break(1), 3);
    }

    #[test]
    fn fixed_priority_tie_break_is_identity() {
        let bus = Bus::new(BusConfig::opb(4));
        for i in 0..4 {
            assert_eq!(bus.tie_break(i), i);
        }
    }

    #[test]
    fn tdma_waits_for_slot() {
        // 2 initiators, 10-cycle slots: frame = 20; core 1 owns [10,20), [30,40)...
        let mut bus = Bus::new(BusConfig::custom(2, Arbitration::Tdma { slot_cycles: 10 }));
        let g = bus.transact(&req(1, 0), 2);
        assert_eq!(g.start, 10, "waits for its slot");
        let mut bus2 = Bus::new(BusConfig::custom(2, Arbitration::Tdma { slot_cycles: 10 }));
        let g2 = bus2.transact(&req(0, 3), 2);
        assert_eq!(g2.start, 4, "already inside its slot: only arb latency");
    }

    #[test]
    fn tdma_slot_in_later_frame() {
        let mut bus = Bus::new(BusConfig::custom(2, Arbitration::Tdma { slot_cycles: 10 }));
        let g = bus.transact(&req(0, 15), 2);
        assert_eq!(g.start, 20, "core 0's next slot starts at 20");
    }

    #[test]
    fn bandwidth_knob_scales_burst() {
        let mut cfg = BusConfig::custom(1, Arbitration::FixedPriority);
        cfg.cycles_per_word = 2;
        let mut bus = Bus::new(cfg);
        let g = bus.transact(&req(0, 0), 0);
        // addr phase + zero memory latency + 4 words at 2 cycles each
        assert_eq!(g.complete - g.start, 1 + 8);
    }

    #[test]
    fn transitions_accumulate() {
        let mut bus = Bus::new(BusConfig::opb(1));
        bus.transact(&Request { addr: 0, ..req(0, 0) }, 0);
        let before = bus.stats().transitions;
        bus.transact(&Request { addr: 0xF, issue_cycle: 100, ..req(0, 0) }, 0);
        assert_eq!(bus.stats().transitions - before, 4 + 64, "4 addr toggles + 4 words * 16");
    }

    #[test]
    fn take_stats_resets() {
        let mut bus = Bus::new(BusConfig::opb(1));
        bus.transact(&req(0, 0), 1);
        assert_eq!(bus.take_stats().transactions, 1);
        assert_eq!(bus.stats().transactions, 0);
    }

    #[test]
    fn validation() {
        assert!(BusConfig::opb(0).validate().is_err());
        let mut c = BusConfig::opb(1);
        c.cycles_per_word = 0;
        assert!(c.validate().is_err());
        assert!(BusConfig::custom(2, Arbitration::Tdma { slot_cycles: 0 }).validate().is_err());
        assert!(BusConfig::plb(4).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid bus configuration")]
    fn new_panics_on_invalid() {
        let _ = Bus::new(BusConfig::opb(0));
    }
}
