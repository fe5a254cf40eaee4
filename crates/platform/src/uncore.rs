//! The "uncore": per-core memory controllers, caches, memories, interconnect
//! and MMIO, implementing [`MemoryPort`] for the cores.
//!
//! This is the transaction-level twin of the paper's memory-controller RTL
//! (§3.2): it routes each access by address range, runs it through the L1
//! caches when the range is cacheable, services private-memory traffic
//! locally and shared-memory traffic over the interconnect, raises VPCM
//! freeze cycles when the physical backing device is slower than the emulated
//! latency target, and feeds the sniffers.
//!
//! Timing rules are the ones fixed in `DESIGN.md` §4; the signal-level
//! `temu-des` baseline implements the same rules cycle by cycle.

use crate::config::{IcChoice, PlatformConfig};
use crate::mmio::Mmio;
use crate::sniffer::{EventBuffer, SnifferMode};
use temu_cpu::{MemReply, MemoryPort, Text};
use temu_interconnect::{Bus, Grant, IcStats, Noc, Request};
use temu_isa::Width;
use temu_mem::{
    AccessKind, AddressMap, Cache, CacheKind, CacheResponse, CacheStats, MappedRange, MemArray, MemError, MemStats,
    MemoryConfig, RangeTarget,
};
use temu_state::{StateError, StateReader, StateWriter};

/// Per-core memory-side state.
#[derive(Clone, Debug)]
struct CoreMem {
    icache: Option<Cache>,
    dcache: Option<Cache>,
    private: MemArray,
    priv_cfg: MemoryConfig,
    priv_stats: MemStats,
}

/// The interconnect instance.
#[derive(Clone, Debug)]
enum IcModel {
    Bus(Bus),
    Noc(Noc),
}

impl IcModel {
    fn transact(&mut self, req: &Request, mem_latency: u32) -> Grant {
        match self {
            IcModel::Bus(b) => b.transact(req, mem_latency),
            IcModel::Noc(n) => n.transact(req, mem_latency),
        }
    }

    fn stats(&mut self) -> IcStats {
        match self {
            IcModel::Bus(b) => b.take_stats(),
            IcModel::Noc(n) => n.take_stats(),
        }
    }

    fn peek_stats(&self) -> &IcStats {
        match self {
            IcModel::Bus(b) => b.stats(),
            IcModel::Noc(n) => n.stats(),
        }
    }
}

/// The shared memory system of one emulated MPSoC.
#[derive(Clone, Debug)]
pub struct Uncore {
    map: AddressMap,
    /// The private range when it is cacheable: a core's text there may run
    /// as blocks and its D-cache hits there may run in place.
    private_cached: Option<MappedRange>,
    per_core: Vec<CoreMem>,
    shared: MemArray,
    shared_cfg: MemoryConfig,
    shared_stats: MemStats,
    ic: IcModel,
    /// MMIO window (console, sensors, sniffer control).
    pub mmio: Mmio,
    events: Option<EventBuffer>,
    freeze_mem: u64,
}

impl Uncore {
    /// Builds the memory system for a validated platform configuration.
    /// (Public so that alternative execution engines — the signal-level
    /// `temu-des` baseline — can drive the same memory system.)
    pub fn new(cfg: &PlatformConfig) -> Uncore {
        let map = AddressMap::paper_default(cfg.private_mem.size, cfg.shared_mem.size, cfg.shared_cacheable);
        let per_core = (0..cfg.cores)
            .map(|_| CoreMem {
                icache: cfg.icache.map(|c| Cache::new(c, CacheKind::Instruction)),
                dcache: cfg.dcache.map(|c| Cache::new(c, CacheKind::Data)),
                private: MemArray::new(cfg.private_mem.size),
                priv_cfg: cfg.private_mem,
                priv_stats: MemStats::default(),
            })
            .collect();
        let ic = match &cfg.interconnect {
            IcChoice::Bus(b) => IcModel::Bus(Bus::new(*b)),
            IcChoice::Noc(n) => IcModel::Noc(Noc::new(n.clone())),
        };
        let events = match cfg.sniffer_mode {
            SnifferMode::CountLogging => None,
            SnifferMode::EventLogging { capacity } => Some(EventBuffer::new(capacity)),
        };
        let private_cached = map.iter().find(|r| r.target == RangeTarget::Private && r.cacheable).copied();
        Uncore {
            map,
            private_cached,
            per_core,
            shared: MemArray::new(cfg.shared_mem.size),
            shared_cfg: cfg.shared_mem,
            shared_stats: MemStats::default(),
            ic,
            mmio: Mmio::new(cfg.cores, (cfg.virtual_hz / 1_000_000) as u32),
            events,
            freeze_mem: 0,
        }
    }

    /// Engine tie-break key for equal-time cores: the interconnect's
    /// arbitration order (bus policies) or the core index (NoC).
    pub fn tie_key(&self, core: usize) -> usize {
        match &self.ic {
            IcModel::Bus(b) => b.tie_break(core),
            IcModel::Noc(_) => core,
        }
    }

    /// Loads bytes into a core's private memory (program loader).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the image does not fit.
    pub fn load_private(&mut self, core: usize, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        self.per_core[core].private.load(addr, bytes)
    }

    /// Functional view of the shared memory.
    pub fn shared(&self) -> &MemArray {
        &self.shared
    }

    /// Mutable functional view of the shared memory (test fixtures, shared
    /// data initialization).
    pub fn shared_mut(&mut self) -> &mut MemArray {
        &mut self.shared
    }

    /// Functional view of a core's private memory.
    pub fn private(&self, core: usize) -> &MemArray {
        &self.per_core[core].private
    }

    /// The event buffer, when event-logging sniffers are configured.
    pub fn events(&self) -> Option<&EventBuffer> {
        self.events.as_ref()
    }

    /// Returns and clears accumulated memory-induced freeze cycles.
    pub(crate) fn take_freeze(&mut self) -> u64 {
        std::mem::take(&mut self.freeze_mem)
    }

    /// Interconnect counters without resetting them (signal taps).
    pub fn interconnect_stats(&self) -> &IcStats {
        self.ic.peek_stats()
    }

    /// A core's private-memory counters without resetting them.
    pub fn private_stats(&self, core: usize) -> &MemStats {
        &self.per_core[core].priv_stats
    }

    /// Shared-memory counters without resetting them.
    pub fn shared_stats(&self) -> &MemStats {
        &self.shared_stats
    }

    /// A core's cache counters without resetting them (I-cache, D-cache).
    pub fn cache_stats(&self, core: usize) -> (Option<&CacheStats>, Option<&CacheStats>) {
        let cm = &self.per_core[core];
        (cm.icache.as_ref().map(Cache::stats), cm.dcache.as_ref().map(Cache::stats))
    }

    pub(crate) fn collect_cache_stats(&mut self) -> (Vec<CacheStats>, Vec<CacheStats>) {
        let i = self.per_core.iter_mut().map(|c| c.icache.as_mut().map(|c| c.take_stats()).unwrap_or_default()).collect();
        let d = self.per_core.iter_mut().map(|c| c.dcache.as_mut().map(|c| c.take_stats()).unwrap_or_default()).collect();
        (i, d)
    }

    pub(crate) fn collect_mem_stats(&mut self) -> (Vec<MemStats>, MemStats) {
        let p = self.per_core.iter_mut().map(|c| std::mem::take(&mut c.priv_stats)).collect();
        (p, std::mem::take(&mut self.shared_stats))
    }

    pub(crate) fn collect_ic_stats(&mut self) -> IcStats {
        self.ic.stats()
    }

    /// The window's `(buffered, overflowed)` events, emptying the buffer
    /// (the Ethernet dispatcher's drain); `(0, 0)` without event logging.
    pub(crate) fn collect_events(&mut self) -> (usize, u64) {
        self.events.as_mut().map_or((0, 0), EventBuffer::take_window)
    }

    /// Logs one event, when event-logging sniffers are configured and
    /// software left them enabled.
    fn log_event(&mut self) {
        if let Some(buf) = self.events.as_mut() {
            if self.mmio.sniffers_enabled() {
                buf.push();
            }
        }
    }

    /// Functional read from the backing store of a mapped range.
    fn backing_read(&self, core: usize, target: RangeTarget, offset: u32, width: Width) -> Result<u32, MemError> {
        match target {
            RangeTarget::Private => self.per_core[core].private.read(offset, width),
            RangeTarget::Shared => self.shared.read(offset, width),
            RangeTarget::Mmio => unreachable!("MMIO handled by the caller"),
        }
    }

    fn backing_write(&mut self, core: usize, target: RangeTarget, offset: u32, width: Width, value: u32) -> Result<(), MemError> {
        match target {
            RangeTarget::Private => self.per_core[core].private.write(offset, width, value),
            RangeTarget::Shared => self.shared.write(offset, width, value),
            RangeTarget::Mmio => unreachable!("MMIO handled by the caller"),
        }
    }

    /// Timing of a private-memory burst: `latency + words` cycles, no
    /// arbitration (the device is local to the memory controller).
    fn private_service(&mut self, core: usize, words: u32, is_write: bool, issue: u64) -> u64 {
        let cm = &mut self.per_core[core];
        let done = issue + u64::from(cm.priv_cfg.latency) + u64::from(words);
        if is_write {
            cm.priv_stats.writes += 1;
        } else {
            cm.priv_stats.reads += 1;
        }
        cm.priv_stats.words += u64::from(words);
        let freeze = cm.priv_cfg.freeze_cycles();
        cm.priv_stats.freeze_cycles += freeze;
        self.freeze_mem += freeze;
        done
    }

    /// Timing of a shared-memory transaction over the interconnect.
    fn shared_service(&mut self, core: usize, addr: u32, words: u32, wb_words: u32, is_write: bool, issue: u64) -> u64 {
        let req = Request { initiator: core, target: 0, is_write, words, wb_words, addr, issue_cycle: issue };
        let grant = self.ic.transact(&req, self.shared_cfg.latency);
        if is_write {
            self.shared_stats.writes += 1;
        } else {
            self.shared_stats.reads += 1;
        }
        self.shared_stats.words += u64::from(words + wb_words);
        let freeze = self.shared_cfg.freeze_cycles();
        self.shared_stats.freeze_cycles += freeze;
        self.freeze_mem += freeze;
        self.log_event();
        grant.complete
    }

    /// Burst service to whichever device owns `addr`.
    #[allow(clippy::too_many_arguments)] // one flat dispatch for the memory-port hot path
    fn service(&mut self, core: usize, target: RangeTarget, addr: u32, words: u32, wb_words: u32, is_write: bool, issue: u64) -> u64 {
        match target {
            RangeTarget::Private => self.private_service(core, words + wb_words, is_write, issue),
            RangeTarget::Shared => self.shared_service(core, addr, words, wb_words, is_write, issue),
            RangeTarget::Mmio => issue + 1,
        }
    }

    /// Cache-mediated access path shared by fetches and data accesses.
    ///
    /// Returns `(done_at, stall)` where the first `hit_latency` cycles count
    /// as active.
    fn cached_access(
        &mut self,
        core: usize,
        is_icache: bool,
        target: RangeTarget,
        addr: u32,
        kind: AccessKind,
        now: u64,
    ) -> (u64, u64) {
        let cm = &mut self.per_core[core];
        let cache = if is_icache { cm.icache.as_mut() } else { cm.dcache.as_mut() }.expect("caller checked presence");
        let hit_lat = u64::from(cache.config().hit_latency);
        let line_words = cache.config().line_words();
        let response = cache.access(addr, kind);
        let line_base = cache.line_base(addr);
        match response {
            CacheResponse::Hit => (now + hit_lat, 0),
            CacheResponse::Miss { writeback_addr } => {
                self.log_event();
                let issue = now + hit_lat;
                let done = match writeback_addr {
                    None => self.service(core, target, line_base, line_words, 0, false, issue),
                    Some(wb) => {
                        // The victim may live in a different range than the fill.
                        let wb_target = self.map.lookup(wb).map(|r| r.target).unwrap_or(target);
                        if wb_target == target {
                            // Combined eviction+fill burst on one device.
                            self.service(core, target, line_base, line_words, line_words, false, issue)
                        } else {
                            // Write back locally/remotely first, then fill.
                            let t1 = self.service(core, wb_target, wb, line_words, 0, true, issue);
                            self.service(core, target, line_base, line_words, 0, false, t1)
                        }
                    }
                };
                (done, done - now - hit_lat)
            }
            CacheResponse::WriteThrough { .. } => {
                let issue = now + hit_lat;
                let done = self.service(core, target, addr, 1, 0, true, issue);
                (done, done - now - hit_lat)
            }
        }
    }

    /// Serializes all mutable memory-system state: caches, memory images,
    /// device statistics, interconnect occupancy, MMIO registers, the event
    /// counts and pending freeze cycles. The address map and configurations
    /// are rebuild-derived and not recorded.
    ///
    /// The event section is a presence flag, then the buffered count, the
    /// overflowed count and the total. At a window boundary, where
    /// checkpoints are taken, the dispatcher has just emptied the buffer,
    /// so the section reads `(0, 0, total)` there; that layout is part of
    /// the version-1 checkpoint format.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.per_core.len());
        for cm in &self.per_core {
            w.bool(cm.icache.is_some());
            if let Some(c) = &cm.icache {
                c.save_state(w);
            }
            w.bool(cm.dcache.is_some());
            if let Some(c) = &cm.dcache {
                c.save_state(w);
            }
            cm.private.save_state(w);
            cm.priv_stats.save_state(w);
        }
        self.shared.save_state(w);
        self.shared_stats.save_state(w);
        match &self.ic {
            IcModel::Bus(b) => {
                w.u8(0);
                b.save_state(w);
            }
            IcModel::Noc(n) => {
                w.u8(1);
                n.save_state(w);
            }
        }
        self.mmio.save_state(w);
        w.bool(self.events.is_some());
        if let Some(e) = &self.events {
            e.save_state(w);
        }
        w.u64(self.freeze_mem);
    }

    /// Restores state saved by [`Uncore::save_state`] into a memory system
    /// freshly built from the *same* platform configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the recorded shape (core count, cache
    /// presence, memory sizes, interconnect kind) disagrees with this
    /// instance — the checkpoint belongs to a different platform — or if the
    /// stream is corrupt.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let ncores = r.usize()?;
        if ncores != self.per_core.len() {
            return Err(StateError::BadLength { found: ncores as u64, max: self.per_core.len() as u64 });
        }
        for cm in &mut self.per_core {
            for (cache, what) in [(&mut cm.icache, "icache presence"), (&mut cm.dcache, "dcache presence")] {
                let present = r.bool()?;
                match (present, cache.as_mut()) {
                    (true, Some(c)) => c.load_state(r)?,
                    (false, None) => {}
                    _ => return Err(StateError::BadValue { what, value: u64::from(present) }),
                }
            }
            cm.private.load_state(r)?;
            cm.priv_stats.load_state(r)?;
        }
        self.shared.load_state(r)?;
        self.shared_stats.load_state(r)?;
        let ic_kind = r.u8()?;
        match (ic_kind, &mut self.ic) {
            (0, IcModel::Bus(b)) => b.load_state(r)?,
            (1, IcModel::Noc(n)) => n.load_state(r)?,
            _ => return Err(StateError::BadValue { what: "interconnect kind", value: u64::from(ic_kind) }),
        }
        self.mmio.load_state(r)?;
        let has_events = r.bool()?;
        match (has_events, self.events.as_mut()) {
            (true, Some(e)) => e.load_state(r)?,
            (false, None) => {}
            _ => return Err(StateError::BadValue { what: "event buffer presence", value: u64::from(has_events) }),
        }
        self.freeze_mem = r.u64()?;
        Ok(())
    }
}

impl MemoryPort for Uncore {
    fn fetch(&mut self, core: usize, pc: u32, now: u64) -> Result<MemReply, MemError> {
        let range = *self.map.lookup(pc).ok_or(MemError::Unmapped { addr: pc })?;
        if range.target == RangeTarget::Mmio {
            return Err(MemError::Unmapped { addr: pc });
        }
        let value = self.backing_read(core, range.target, range.offset(pc), Width::Word)?;
        let (done_at, stall) = if range.cacheable && self.per_core[core].icache.is_some() {
            self.cached_access(core, true, range.target, pc, AccessKind::Fetch, now)
        } else {
            let done = self.service(core, range.target, pc, 1, 0, false, now);
            (done, done - now - 1)
        };
        Ok(MemReply { value, done_at, stall })
    }

    fn read(&mut self, core: usize, addr: u32, width: Width, now: u64) -> Result<MemReply, MemError> {
        let range = *self.map.lookup(addr).ok_or(MemError::Unmapped { addr })?;
        if range.target == RangeTarget::Mmio {
            if !addr.is_multiple_of(width.bytes()) {
                return Err(MemError::Misaligned { addr, width });
            }
            let value = self.mmio.read(core, range.offset(addr), now);
            return Ok(MemReply { value, done_at: now + 1, stall: 0 });
        }
        let value = self.backing_read(core, range.target, range.offset(addr), width)?;
        self.log_event();
        let (done_at, stall) = if range.cacheable && self.per_core[core].dcache.is_some() {
            self.cached_access(core, false, range.target, addr, AccessKind::Read, now)
        } else {
            let done = self.service(core, range.target, addr, 1, 0, false, now);
            (done, done - now - 1)
        };
        Ok(MemReply { value, done_at, stall })
    }

    fn write(&mut self, core: usize, addr: u32, width: Width, value: u32, now: u64) -> Result<MemReply, MemError> {
        let range = *self.map.lookup(addr).ok_or(MemError::Unmapped { addr })?;
        if range.target == RangeTarget::Mmio {
            if !addr.is_multiple_of(width.bytes()) {
                return Err(MemError::Misaligned { addr, width });
            }
            self.mmio.write(core, range.offset(addr), value);
            return Ok(MemReply { value: 0, done_at: now + 1, stall: 0 });
        }
        self.backing_write(core, range.target, range.offset(addr), width, value)?;
        self.log_event();
        let (done_at, stall) = if range.cacheable && self.per_core[core].dcache.is_some() {
            self.cached_access(core, false, range.target, addr, AccessKind::Write, now)
        } else {
            let done = self.service(core, range.target, addr, 1, 0, true, now);
            (done, done - now - 1)
        };
        Ok(MemReply { value: 0, done_at, stall })
    }

    fn tas(&mut self, core: usize, addr: u32, now: u64) -> Result<MemReply, MemError> {
        let range = *self.map.lookup(addr).ok_or(MemError::Unmapped { addr })?;
        if range.target == RangeTarget::Mmio {
            return Err(MemError::Unmapped { addr });
        }
        // TAS bypasses the caches: it is a single atomic read-modify-write
        // transaction at the memory (the paper's spinlocks live in shared,
        // non-cached memory).
        let offset = range.offset(addr);
        let value = self.backing_read(core, range.target, offset, Width::Word)?;
        self.backing_write(core, range.target, offset, Width::Word, 1)?;
        self.log_event();
        let done_at = self.service(core, range.target, addr, 1, 0, true, now);
        Ok(MemReply { value, done_at, stall: done_at - now - 1 })
    }

    fn text(&self, core: usize, pc: u32, len: u32) -> Option<Text<'_>> {
        let cm = &self.per_core[core];
        let icache = cm.icache.as_ref()?;
        let range = self.private_cached.filter(|r| r.contains(pc) && pc.is_multiple_of(4))?;
        let start = range.offset(pc);
        let end = start.saturating_add(len).min(cm.private.size());
        Some(Text {
            bytes: cm.private.slice(start, end - start),
            hit_latency: icache.config().hit_latency,
            generation: icache.generation(),
        })
    }

    fn fetch_hits(&mut self, core: usize, pc: u32, fetches: u32, runs: u32) -> bool {
        let icache = self.per_core[core].icache.as_mut().expect("text answered only behind an I-cache");
        icache.try_hits(pc, fetches, runs)
    }

    #[inline(always)]
    fn data_hit(&mut self, core: usize, addr: u32, width: Width, store: Option<u32>, now: u64) -> Option<MemReply> {
        // Under event logging every data access is an event, which the
        // full path logs.
        if self.events.is_some() || !addr.is_multiple_of(width.bytes()) {
            return None;
        }
        let offset = self.private_cached.filter(|r| r.contains(addr))?.offset(addr);
        let cm = &mut self.per_core[core];
        if u64::from(offset) + u64::from(width.bytes()) > u64::from(cm.private.size()) {
            return None;
        }
        let dcache = cm.dcache.as_mut()?;
        if !dcache.try_hit(addr, if store.is_some() { AccessKind::Write } else { AccessKind::Read }) {
            return None;
        }
        let value = match store {
            None => cm.private.read(offset, width),
            Some(value) => cm.private.write(offset, width, value).map(|()| 0),
        }
        .expect("an aligned access inside private memory");
        Some(MemReply { value, done_at: now + u64::from(dcache.config().hit_latency), stall: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temu_mem::{MMIO_BASE as MMIO_BASE_ADDR, SHARED_BASE as SHARED_BASE_ADDR};

    fn uncore(cores: usize) -> Uncore {
        Uncore::new(&PlatformConfig::paper_bus(cores))
    }

    #[test]
    fn fetch_hits_after_miss() {
        let mut u = uncore(1);
        let a = u.fetch(0, 0x100, 0).unwrap();
        assert!(a.stall > 0, "cold miss fills the line");
        let b = u.fetch(0, 0x104, a.done_at).unwrap();
        assert_eq!(b.stall, 0, "same line hits");
        assert_eq!(b.done_at, a.done_at + 1);
    }

    #[test]
    fn text_answers_only_for_private_cached_text() {
        let mut u = uncore(1);
        u.load_private(0, 0x100, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let t = u.text(0, 0x100, 8).expect("private cacheable text");
        assert_eq!(t.bytes, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(t.hit_latency, 1, "1-cycle hits");
        let top = u.private(0).size() - 4;
        assert_eq!(u.text(0, top, 32).unwrap().bytes.len(), 4, "clipped at the end of private memory");
        assert!(u.text(0, 0x102, 4).is_none(), "misaligned");
        assert!(u.text(0, SHARED_BASE_ADDR, 4).is_none(), "shared text");
        assert!(u.text(0, MMIO_BASE_ADDR, 4).is_none(), "MMIO");
        assert!(u.text(0, 0x0800_0000, 4).is_none(), "unmapped");
        let mut cfg = PlatformConfig::paper_bus(1);
        cfg.icache = None;
        assert!(Uncore::new(&cfg).text(0, 0x100, 4).is_none(), "no I-cache");
    }

    fn state(u: &Uncore) -> Vec<u8> {
        let mut w = StateWriter::new(*b"TEST", 1);
        u.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn fetch_hits_book_what_single_fetches_would() {
        let (mut one, mut bulk) = (uncore(1), uncore(1));
        // A run on a line not yet fetched declines and changes nothing; the
        // full fetch then misses as it would have anyway.
        let before = state(&bulk);
        assert!(!bulk.fetch_hits(0, 0x100, 1, 1), "cold line");
        assert_eq!(state(&bulk), before);
        let t = one.fetch(0, 0x100, 0).unwrap().done_at;
        assert_eq!(bulk.fetch(0, 0x100, 0).unwrap().done_at, t);
        for (i, pc) in [0x104, 0x108, 0x10C].into_iter().enumerate() {
            assert_eq!(one.fetch(0, pc, t + i as u64).unwrap(), MemReply { value: 0, done_at: t + i as u64 + 1, stall: 0 });
        }
        assert!(bulk.fetch_hits(0, 0x104, 3, 1));
        assert_eq!(state(&one), state(&bulk));
        assert!(!bulk.fetch_hits(0, 0x110, 1, 1), "the next line is absent");
        assert_eq!(state(&one), state(&bulk));

        // Once the next two lines are filled, one run over all three books
        // what one fetch per word does.
        for u in [&mut one, &mut bulk] {
            u.fetch(0, 0x110, 100).unwrap();
            u.fetch(0, 0x120, 200).unwrap();
        }
        for pc in (0x108..0x128).step_by(4) {
            assert_eq!(one.fetch(0, pc, 300).unwrap().stall, 0, "{pc:#x} hits");
        }
        assert!(bulk.fetch_hits(0, 0x108, 8, 1));
        assert_eq!(state(&one), state(&bulk));
        let before = state(&bulk);
        assert!(!bulk.fetch_hits(0, 0x128, 3, 1), "a run into an absent line declines");
        assert_eq!(state(&bulk), before);
    }

    #[test]
    fn text_reports_the_icache_generation() {
        let mut u = uncore(1);
        let generation = |u: &Uncore| u.text(0, 0x100, 4).unwrap().generation;
        let g = generation(&u);
        u.fetch(0, 0x100, 0).unwrap();
        let filled = generation(&u);
        assert_ne!(filled, g, "a fill moves it");
        u.fetch(0, 0x104, 10).unwrap();
        assert!(u.fetch_hits(0, 0x108, 2, 1));
        u.read(0, 0x2000, Width::Word, 20).unwrap();
        assert_eq!(generation(&u), filled, "hits, and D-cache fills, leave it");
        let saved = state(&u);
        let (mut r, _) = StateReader::new(&saved, *b"TEST", 1).unwrap();
        u.load_state(&mut r).unwrap();
        assert_ne!(generation(&u), filled, "a restore moves it");
    }

    #[test]
    fn data_hits_book_what_reads_and_writes_do() {
        let (mut full, mut hit) = (uncore(1), uncore(1));
        for u in [&mut full, &mut hit] {
            u.read(0, 0x2000, Width::Word, 0).unwrap(); // a clean line
            u.write(0, 0x2010, Width::Word, 7, 10).unwrap(); // a dirty line
        }
        let accesses = [
            (0x2004, Width::Word, None),          // a read
            (0x2008, Width::Half, Some(0xBEEF)),   // a write to the clean line
            (0x2014, Width::Byte, Some(0x1FF)),    // a write to the dirty line
            (0x2008, Width::Word, None),           // reads back the half word
        ];
        for (i, (addr, width, store)) in accesses.into_iter().enumerate() {
            let now = 100 + 10 * i as u64;
            let reply = match store {
                None => full.read(0, addr, width, now),
                Some(value) => full.write(0, addr, width, value, now),
            }
            .unwrap();
            assert_eq!(reply, MemReply { value: reply.value, done_at: now + 1, stall: 0 }, "{addr:#x} hits");
            assert_eq!(hit.data_hit(0, addr, width, store, now), Some(reply), "{addr:#x}");
            assert_eq!(state(&full), state(&hit), "{addr:#x}");
        }
        assert_eq!(hit.data_hit(0, 0x2008, Width::Word, None, 0).unwrap().value, 0xBEEF);
        // The store dirtied the clean line: evicting it writes it back.
        let (_, d) = hit.collect_cache_stats();
        assert_eq!(d[0].writebacks, 0);
        hit.read(0, 0x3000, Width::Word, 500).unwrap();
        assert_eq!(hit.collect_cache_stats().1[0].writebacks, 1);
    }

    #[test]
    fn data_hits_decline_everything_but_private_cached_hits() {
        let declines = |u: &mut Uncore, addr: u32, width: Width, store: Option<u32>, what: &str| {
            let before = state(u);
            assert_eq!(u.data_hit(0, addr, width, store, 50), None, "{what}");
            assert!(state(u) == before, "{what}: a declined access changes nothing");
        };
        let mut u = uncore(1);
        u.read(0, 0x2000, Width::Word, 0).unwrap();
        u.read(0, SHARED_BASE_ADDR, Width::Word, 10).unwrap();
        declines(&mut u, 0x2100, Width::Word, None, "an absent line");
        declines(&mut u, 0x2100, Width::Word, Some(1), "an absent line, stored");
        declines(&mut u, SHARED_BASE_ADDR, Width::Word, None, "shared");
        declines(&mut u, MMIO_BASE_ADDR, Width::Word, None, "MMIO");
        declines(&mut u, 0x2002, Width::Word, None, "misaligned");
        declines(&mut u, 0x2001, Width::Half, Some(1), "misaligned");
        let top = u.private(0).size();
        declines(&mut u, top, Width::Word, None, "past private memory");
        declines(&mut u, 0x0800_0000, Width::Word, Some(1), "unmapped");
        assert!(u.data_hit(0, 0x2000, Width::Word, Some(1), 60).is_some(), "a write-back store hit");

        let mut cfg = PlatformConfig::paper_bus(1);
        cfg.dcache.as_mut().unwrap().write_policy = temu_mem::WritePolicy::WriteThrough;
        let mut wt = Uncore::new(&cfg);
        wt.read(0, 0x2000, Width::Word, 0).unwrap();
        declines(&mut wt, 0x2004, Width::Word, Some(1), "a write-through store");
        assert!(wt.data_hit(0, 0x2004, Width::Word, None, 60).is_some(), "a write-through read hit");

        cfg = PlatformConfig::paper_bus(1);
        cfg.dcache = None;
        declines(&mut Uncore::new(&cfg), 0x2000, Width::Word, None, "no D-cache");

        cfg = PlatformConfig::paper_bus(1);
        cfg.sniffer_mode = SnifferMode::EventLogging { capacity: 64 };
        let mut logging = Uncore::new(&cfg);
        logging.read(0, 0x2000, Width::Word, 0).unwrap();
        declines(&mut logging, 0x2004, Width::Word, None, "event logging");
        declines(&mut logging, 0x2004, Width::Word, Some(1), "event logging, stored");
    }

    #[test]
    fn private_fill_timing_is_local() {
        let mut u = uncore(1);
        // Miss on private: hit_lat(1) + latency(2) + 4 words = 7 cycles.
        let a = u.fetch(0, 0x100, 0).unwrap();
        assert_eq!(a.done_at, 7);
        assert_eq!(a.stall, 6);
    }

    #[test]
    fn shared_word_read_goes_over_the_bus() {
        let mut u = uncore(1);
        u.shared_mut().write(0x40, Width::Word, 77).unwrap();
        let r = u.read(0, SHARED_BASE_ADDR + 0x40, Width::Word, 0).unwrap();
        assert_eq!(r.value, 77);
        // arb(1) + addr(1) + latency(6) + 1 word = 9.
        assert_eq!(r.done_at, 9);
        assert_eq!(u.collect_ic_stats().transactions, 1);
    }

    #[test]
    fn mmio_reads_core_id_in_one_cycle() {
        let mut u = uncore(4);
        let r = u.read(3, MMIO_BASE_ADDR, Width::Word, 10).unwrap();
        assert_eq!(r.value, 3);
        assert_eq!(r.done_at, 11);
        assert_eq!(r.stall, 0);
    }

    #[test]
    fn mmio_fetch_and_tas_rejected() {
        let mut u = uncore(1);
        assert!(matches!(u.fetch(0, MMIO_BASE_ADDR, 0), Err(MemError::Unmapped { .. })));
        assert!(matches!(u.tas(0, MMIO_BASE_ADDR, 0), Err(MemError::Unmapped { .. })));
    }

    #[test]
    fn unmapped_hole_rejected() {
        let mut u = uncore(1);
        assert!(matches!(u.read(0, 0x0800_0000, Width::Word, 0), Err(MemError::Unmapped { .. })));
    }

    #[test]
    fn tas_is_atomic_at_the_memory() {
        let mut u = uncore(2);
        let lock = SHARED_BASE_ADDR + 0x10;
        let a = u.tas(0, lock, 0).unwrap();
        assert_eq!(a.value, 0);
        let b = u.tas(1, lock, 0).unwrap();
        assert_eq!(b.value, 1, "second core sees the lock taken");
        assert!(b.done_at > a.done_at, "transactions serialized on the bus");
    }

    #[test]
    fn private_memories_are_disjoint() {
        let mut u = uncore(2);
        u.write(0, 0x200, Width::Word, 111, 0).unwrap();
        u.write(1, 0x200, Width::Word, 222, 0).unwrap();
        assert_eq!(u.read(0, 0x200, Width::Word, 50).unwrap().value, 111);
        assert_eq!(u.read(1, 0x200, Width::Word, 50).unwrap().value, 222);
    }

    #[test]
    fn dirty_writeback_extends_the_fill() {
        let mut u = uncore(1);
        // Write to line A (allocates, dirty), then read a conflicting line B:
        // the miss must carry the victim back.
        let a = 0x0000; // set 0
        let b = 0x1000; // 4KB direct-mapped: same set
        u.write(0, a, Width::Word, 5, 0).unwrap();
        let first_done = u.read(0, a, Width::Word, 20).unwrap().done_at; // hit
        assert_eq!(first_done, 21);
        let miss = u.read(0, b, Width::Word, 30).unwrap();
        // hit_lat(1) + combined burst on private memory: latency(2) + 8 words = 10 → done 41.
        assert_eq!(miss.done_at, 41);
        let (_, d) = u.collect_cache_stats();
        assert_eq!(d[0].writebacks, 1);
    }

    #[test]
    fn write_through_posts_every_store() {
        let mut cfg = PlatformConfig::paper_bus(1);
        if let Some(c) = &mut cfg.dcache {
            c.write_policy = temu_mem::WritePolicy::WriteThrough;
        }
        let mut u = Uncore::new(&cfg);
        u.write(0, 0x100, Width::Word, 1, 0).unwrap();
        u.write(0, 0x100, Width::Word, 2, 50).unwrap();
        let (_, d) = u.collect_cache_stats();
        assert_eq!(d[0].write_throughs, 2);
        assert_eq!(d[0].writebacks, 0);
    }

    #[test]
    fn freeze_cycles_accumulate_for_ddr_backing() {
        let mut cfg = PlatformConfig::paper_bus(1);
        cfg.shared_mem = MemoryConfig::ddr(1024 * 1024, 6, 18);
        let mut u = Uncore::new(&cfg);
        u.read(0, SHARED_BASE_ADDR, Width::Word, 0).unwrap();
        u.read(0, SHARED_BASE_ADDR + 4, Width::Word, 100).unwrap();
        assert_eq!(u.take_freeze(), 24, "12 excess physical cycles per access");
        assert_eq!(u.take_freeze(), 0);
    }

    #[test]
    fn event_logging_records_and_overflows() {
        let mut cfg = PlatformConfig::paper_bus(1);
        cfg.sniffer_mode = SnifferMode::EventLogging { capacity: 2 };
        let mut u = Uncore::new(&cfg);
        for i in 0..4 {
            u.read(0, SHARED_BASE_ADDR + 4 * i, Width::Word, u64::from(i) * 100).unwrap();
        }
        // Each uncached shared read logs the read and its bus transaction.
        assert_eq!(u.events().expect("event mode has a buffer").pending(), (2, 6));
        assert_eq!(u.collect_events(), (2, 6));
        assert_eq!(u.collect_events(), (0, 0), "the drain emptied the buffer");
        assert_eq!(u.events().unwrap().total(), 8);
    }

    #[test]
    fn sniffer_disable_stops_event_logging() {
        let mut cfg = PlatformConfig::paper_bus(1);
        cfg.sniffer_mode = SnifferMode::EventLogging { capacity: 64 };
        let mut u = Uncore::new(&cfg);
        u.mmio.write(0, crate::mmio::MMIO_SNIFFER_CTRL, 0);
        u.read(0, SHARED_BASE_ADDR, Width::Word, 0).unwrap();
        assert_eq!(u.events().unwrap().total(), 0);
    }

    #[test]
    fn count_mode_has_no_buffer() {
        let mut u = uncore(1);
        assert!(u.events().is_none());
        u.read(0, SHARED_BASE_ADDR, Width::Word, 0).unwrap();
        assert_eq!(u.collect_events(), (0, 0));
    }
}
