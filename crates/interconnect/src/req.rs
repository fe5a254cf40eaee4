//! Transaction requests, grants and interconnect statistics.

use temu_state::{StateError, StateReader, StateWriter};

/// One memory transaction as seen by the interconnect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Request {
    /// Index of the issuing core (initiator port).
    pub initiator: usize,
    /// Index of the target memory port (0 = shared main memory).
    pub target: usize,
    /// Whether this is a write (data travels with the request).
    pub is_write: bool,
    /// Number of 32-bit words transferred (1 for single accesses,
    /// line words for cache fills).
    pub words: u32,
    /// Dirty-victim words carried along a fill as a combined
    /// eviction+fill burst (0 for everything but write-back misses whose
    /// victim lives behind the interconnect). The memory controller issues
    /// the pair as one transaction so that arbitration order stays identical
    /// between the transaction-level and signal-level engines.
    pub wb_words: u32,
    /// Byte address (used for switching-activity accounting and routing).
    pub addr: u32,
    /// Cycle at which the initiator presents the request.
    pub issue_cycle: u64,
}

/// Timing outcome of a scheduled transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// Cycle the transaction started occupying the interconnect.
    pub start: u64,
    /// Cycle at which the initiator has its data (read) or acknowledgment
    /// (write) and may resume.
    pub complete: u64,
}

impl Grant {
    /// Cycles the initiator waited beyond the unloaded service time.
    pub fn wait(&self, unloaded: u64) -> u64 {
        (self.complete - self.start).saturating_sub(unloaded)
    }
}

/// Aggregated interconnect statistics (what the paper's count-logging
/// sniffers report for the interconnection level).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IcStats {
    /// Transactions carried.
    pub transactions: u64,
    /// Words transferred (both directions).
    pub words: u64,
    /// Estimated wire toggles (address + data lines).
    pub transitions: u64,
    /// Cycles initiators spent waiting for arbitration/contention beyond the
    /// unloaded latency of their transaction.
    pub contention_cycles: u64,
    /// Cycles the medium was occupied (bus) or summed link-busy cycles (NoC).
    pub busy_cycles: u64,
}

impl IcStats {
    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &IcStats) {
        self.transactions += other.transactions;
        self.words += other.words;
        self.transitions += other.transitions;
        self.contention_cycles += other.contention_cycles;
        self.busy_cycles += other.busy_cycles;
    }

    /// Serializes the counters into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.transactions);
        w.u64(self.words);
        w.u64(self.transitions);
        w.u64(self.contention_cycles);
        w.u64(self.busy_cycles);
    }

    /// Restores the counters from a checkpoint stream.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a corrupt stream.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.transactions = r.u64()?;
        self.words = r.u64()?;
        self.transitions = r.u64()?;
        self.contention_cycles = r.u64()?;
        self.busy_cycles = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_wait() {
        let g = Grant { start: 10, complete: 25 };
        assert_eq!(g.wait(10), 5);
        assert_eq!(g.wait(20), 0, "saturates at zero");
    }

    #[test]
    fn stats_merge() {
        let mut a = IcStats { transactions: 1, words: 2, transitions: 3, contention_cycles: 4, busy_cycles: 5 };
        a.merge(&a.clone());
        assert_eq!(a.transactions, 2);
        assert_eq!(a.busy_cycles, 10);
    }
}
