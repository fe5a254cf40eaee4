//! Sampling-window statistics snapshots — the payload the statistics
//! extraction system ships to the host-side thermal tool every window.

use temu_cpu::CoreStats;
use temu_interconnect::IcStats;
use temu_mem::{CacheStats, MemStats};
use temu_state::{StateError, StateReader, StateWriter};

/// Everything the count-logging sniffers collected over one sampling window
/// (or over a whole run).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WindowStats {
    /// First virtual cycle of the window.
    pub start_cycle: u64,
    /// One-past-last virtual cycle of the window.
    pub end_cycle: u64,
    /// Per-core processor sniffer counters.
    pub cores: Vec<CoreStats>,
    /// Per-core instruction-cache counters.
    pub icaches: Vec<CacheStats>,
    /// Per-core data-cache counters.
    pub dcaches: Vec<CacheStats>,
    /// Per-core private-memory counters.
    pub private_mems: Vec<MemStats>,
    /// Shared main-memory counters.
    pub shared_mem: MemStats,
    /// Interconnect counters.
    pub interconnect: IcStats,
    /// VPCM freeze cycles caused by physically slow devices.
    pub freeze_mem: u64,
    /// VPCM freeze cycles caused by statistics-link congestion.
    pub freeze_link: u64,
    /// Events the window logged into the event-logging sniffers' buffer
    /// (at most its capacity), shipped with the window; in an aggregate,
    /// the sum over its windows.
    pub events_pending: usize,
    /// Events that found the buffer full during the window, shipped with
    /// it too. An aggregate's `events_pending + events_overflowed` is every
    /// logged event its windows shipped.
    pub events_overflowed: u64,
}

impl WindowStats {
    /// Window length in virtual cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Instructions retired across all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Folds another window into this one (used to aggregate a whole run).
    pub fn merge(&mut self, other: &WindowStats) {
        self.end_cycle = self.end_cycle.max(other.end_cycle);
        if self.cores.is_empty() {
            // An aggregate that begins mid-run (an emulation wired to a
            // machine that already ran) adopts its first window's start: a
            // default of 0 would stretch `cycles()` back over what came before.
            self.start_cycle = other.start_cycle;
            self.cores = vec![CoreStats::default(); other.cores.len()];
            self.icaches = vec![CacheStats::default(); other.icaches.len()];
            self.dcaches = vec![CacheStats::default(); other.dcaches.len()];
            self.private_mems = vec![MemStats::default(); other.private_mems.len()];
        }
        for (a, b) in self.cores.iter_mut().zip(&other.cores) {
            a.merge(b);
        }
        for (a, b) in self.icaches.iter_mut().zip(&other.icaches) {
            a.merge(b);
        }
        for (a, b) in self.dcaches.iter_mut().zip(&other.dcaches) {
            a.merge(b);
        }
        for (a, b) in self.private_mems.iter_mut().zip(&other.private_mems) {
            a.merge(b);
        }
        self.shared_mem.merge(&other.shared_mem);
        self.interconnect.merge(&other.interconnect);
        self.freeze_mem += other.freeze_mem;
        self.freeze_link += other.freeze_link;
        self.events_pending += other.events_pending;
        self.events_overflowed += other.events_overflowed;
    }

    /// Serializes the snapshot into a checkpoint stream.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.start_cycle);
        w.u64(self.end_cycle);
        w.usize(self.cores.len());
        for c in &self.cores {
            c.save_state(w);
        }
        w.usize(self.icaches.len());
        for c in &self.icaches {
            c.save_state(w);
        }
        w.usize(self.dcaches.len());
        for c in &self.dcaches {
            c.save_state(w);
        }
        w.usize(self.private_mems.len());
        for m in &self.private_mems {
            m.save_state(w);
        }
        self.shared_mem.save_state(w);
        self.interconnect.save_state(w);
        w.u64(self.freeze_mem);
        w.u64(self.freeze_link);
        w.usize(self.events_pending);
        w.u64(self.events_overflowed);
    }

    /// Restores a snapshot saved by [`WindowStats::save_state`], replacing
    /// the current contents entirely.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a corrupt stream.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.start_cycle = r.u64()?;
        self.end_cycle = r.u64()?;
        // Grow-on-demand (no pre-allocation from the untrusted count: a
        // corrupt length fails on EOF instead of exhausting memory).
        let n = r.usize()?;
        self.cores = Vec::new();
        for _ in 0..n {
            let mut c = CoreStats::default();
            c.load_state(r)?;
            self.cores.push(c);
        }
        let n = r.usize()?;
        self.icaches = Vec::new();
        for _ in 0..n {
            let mut c = CacheStats::default();
            c.load_state(r)?;
            self.icaches.push(c);
        }
        let n = r.usize()?;
        self.dcaches = Vec::new();
        for _ in 0..n {
            let mut c = CacheStats::default();
            c.load_state(r)?;
            self.dcaches.push(c);
        }
        let n = r.usize()?;
        self.private_mems = Vec::new();
        for _ in 0..n {
            let mut m = MemStats::default();
            m.load_state(r)?;
            self.private_mems.push(m);
        }
        self.shared_mem.load_state(r)?;
        self.interconnect.load_state(r)?;
        self.freeze_mem = r.u64()?;
        self.freeze_link = r.u64()?;
        self.events_pending = r.usize()?;
        self.events_overflowed = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_aggregates_and_tracks_window_end() {
        let mut a = WindowStats {
            start_cycle: 0,
            end_cycle: 100,
            cores: vec![CoreStats { instructions: 10, ..CoreStats::default() }],
            icaches: vec![CacheStats::default()],
            dcaches: vec![CacheStats::default()],
            private_mems: vec![MemStats::default()],
            freeze_mem: 5,
            ..WindowStats::default()
        };
        let b = WindowStats {
            start_cycle: 100,
            end_cycle: 200,
            cores: vec![CoreStats { instructions: 7, ..CoreStats::default() }],
            icaches: vec![CacheStats::default()],
            dcaches: vec![CacheStats::default()],
            private_mems: vec![MemStats::default()],
            freeze_mem: 2,
            ..WindowStats::default()
        };
        a.merge(&b);
        assert_eq!(a.end_cycle, 200);
        assert_eq!(a.total_instructions(), 17);
        assert_eq!(a.freeze_mem, 7);
        assert_eq!(a.cycles(), 200);
    }

    #[test]
    fn merge_into_empty_adopts_shape() {
        let mut empty = WindowStats::default();
        let b = WindowStats {
            cores: vec![CoreStats { instructions: 3, ..CoreStats::default() }; 2],
            icaches: vec![CacheStats::default(); 2],
            dcaches: vec![CacheStats::default(); 2],
            private_mems: vec![MemStats::default(); 2],
            ..WindowStats::default()
        };
        empty.merge(&b);
        assert_eq!(empty.cores.len(), 2);
        assert_eq!(empty.total_instructions(), 6);
    }
}
