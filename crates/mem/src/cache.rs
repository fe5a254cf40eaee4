//! Timing/traffic model of the private HW-controlled L1 caches (§3.2).
//!
//! Direct-mapped and set-associative organizations are supported, with
//! independently configurable total size, line size and hit latency — exactly
//! the knobs the paper exposes. Replacement is LRU within a set. Write policy
//! is configurable (the platform default is write-back/write-allocate).

use crate::error::MemConfigError;
use crate::stats::{AccessKind, CacheStats};
use temu_state::{StateError, StateReader, StateWriter};

/// Write-handling policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WritePolicy {
    /// Dirty lines written back on eviction; write misses allocate.
    WriteBack,
    /// Every write is forwarded to memory; write misses do not allocate.
    WriteThrough,
}

/// Whether a cache serves instruction fetches or data accesses (statistics
/// and sniffers report them separately).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheKind {
    Instruction,
    Data,
}

/// Cache geometry and timing configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u32,
    /// Line size in bytes (power of two, ≥ 4).
    pub line_bytes: u32,
    /// Associativity; 1 = direct-mapped.
    pub ways: u32,
    /// Cycles a hit occupies the core (≥ 1).
    pub hit_latency: u32,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The paper's §7 exploration configuration: 4 KB direct-mapped, 16-byte
    /// lines, single-cycle hits, write-back.
    pub fn paper_l1_4k() -> CacheConfig {
        CacheConfig { size_bytes: 4 * 1024, line_bytes: 16, ways: 1, hit_latency: 1, write_policy: WritePolicy::WriteBack }
    }

    /// The paper's §7 thermal configuration: 8 KB direct-mapped.
    pub fn paper_l1_8k() -> CacheConfig {
        CacheConfig { size_bytes: 8 * 1024, line_bytes: 16, ways: 1, hit_latency: 1, write_policy: WritePolicy::WriteBack }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// Words per line.
    pub fn line_words(&self) -> u32 {
        self.line_bytes / 4
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: sizes must be powers of two,
    /// the line must be ≥ 4 bytes, the ways must split the capacity into a
    /// power-of-two number of sets (at least one) with nothing left over,
    /// and `hit_latency` must be ≥ 1.
    pub fn validate(&self) -> Result<(), MemConfigError> {
        if !self.size_bytes.is_power_of_two() {
            return Err(MemConfigError::CacheSizeNotPowerOfTwo { size_bytes: self.size_bytes });
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 4 {
            return Err(MemConfigError::CacheLineInvalid { line_bytes: self.line_bytes });
        }
        // With a power-of-two capacity and line, the sets tile the capacity
        // exactly and number a power of two iff the ways are a power of two.
        if !self.ways.is_power_of_two() || self.size_bytes / self.line_bytes < self.ways {
            return Err(MemConfigError::CacheGeometry {
                size_bytes: self.size_bytes,
                ways: self.ways,
                line_bytes: self.line_bytes,
            });
        }
        if self.hit_latency == 0 {
            return Err(MemConfigError::CacheZeroHitLatency);
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::paper_l1_4k()
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Outcome of one cache access, telling the memory controller what traffic
/// the access generates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheResponse {
    /// Line present; no memory traffic.
    Hit,
    /// Line fill required; `writeback_addr` is the base address of the dirty
    /// victim that must be written back first (write-back policy only).
    Miss { writeback_addr: Option<u32> },
    /// Write-through / non-allocating write: the word goes straight to
    /// memory; no fill happens. (`hit` tells whether the line was present and
    /// updated in place.)
    WriteThrough { hit: bool },
}

/// One L1 cache instance (tags + LRU state + statistics; data lives in the
/// functional memory image, keeping the cache transparent as in the paper).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    kind: CacheKind,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
    /// `log2(line_bytes)`: an address's line index is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(sets)`: a line index splits into `tag << set_bits | set`.
    set_bits: u32,
    /// See [`Cache::generation`]; never saved.
    generation: u64,
}

impl Cache {
    /// Builds a cache from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails — configurations are user input and
    /// must be validated at platform-build time.
    pub fn new(cfg: CacheConfig, kind: CacheKind) -> Cache {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache configuration: {e}");
        }
        let lines = vec![Line::default(); (cfg.sets() * cfg.ways) as usize];
        Cache {
            cfg,
            kind,
            lines,
            tick: 0,
            stats: CacheStats::default(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: cfg.sets().trailing_zeros(),
            generation: 0,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Whether this is an instruction or data cache.
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// Statistics accumulated since construction or the last [`Cache::take_stats`].
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Returns and resets the statistics (sampling-window collection).
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// A host-side count that changes on every line fill, on
    /// [`Cache::invalidate_all`] and on [`Cache::load_state`], and on
    /// nothing else: while it stays the same, every line that was present
    /// still is. It is not part of the cache's state and is never saved.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Base address of the line containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.cfg.line_bytes - 1)
    }

    /// The set `addr` maps to, and its tag there.
    #[inline]
    fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        self.split(addr >> self.line_shift)
    }

    /// The set of line index `line`, and its tag there.
    #[inline]
    fn split(&self, line: u32) -> (u32, u32) {
        (line & ((1 << self.set_bits) - 1), line >> self.set_bits)
    }

    /// Index into `lines` of line index `line`, when it is present.
    #[inline(always)]
    fn find(&self, line: u32) -> Option<usize> {
        let (set, tag) = self.split(line);
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        self.lines[base..base + ways].iter().position(|l| l.valid && l.tag == tag).map(|way| base + way)
    }

    /// Performs one access, updating tags, LRU and statistics, and reports
    /// the generated memory traffic.
    #[inline]
    pub fn access(&mut self, addr: u32, kind: AccessKind) -> CacheResponse {
        self.tick += 1;
        let is_write = kind == AccessKind::Write;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        let (set, tag) = self.set_and_tag(addr);
        let ways = self.cfg.ways as usize;
        let base = set as usize * ways;
        let set_lines = &mut self.lines[base..base + ways];

        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            self.stats.hits += 1;
            if is_write {
                match self.cfg.write_policy {
                    WritePolicy::WriteBack => {
                        line.dirty = true;
                        CacheResponse::Hit
                    }
                    WritePolicy::WriteThrough => {
                        self.stats.write_throughs += 1;
                        CacheResponse::WriteThrough { hit: true }
                    }
                }
            } else {
                CacheResponse::Hit
            }
        } else {
            self.stats.misses += 1;
            if is_write && self.cfg.write_policy == WritePolicy::WriteThrough {
                // No-allocate write miss: single word to memory.
                self.stats.write_throughs += 1;
                return CacheResponse::WriteThrough { hit: false };
            }
            // Choose the LRU victim (invalid lines first).
            let victim = set_lines
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
                .expect("sets are never empty");
            let writeback_addr = if victim.valid && victim.dirty {
                self.stats.writebacks += 1;
                Some(((victim.tag << self.set_bits) | set) << self.line_shift)
            } else {
                None
            };
            victim.valid = true;
            victim.dirty = is_write;
            victim.tag = tag;
            victim.lru = self.tick;
            self.generation += 1;
            CacheResponse::Miss { writeback_addr }
        }
    }

    /// When every line holding a word of `[addr, addr + 4 * words)` is
    /// present, books `runs` runs of `words` read hits on them, exactly as
    /// [`Cache::access`] calls on `addr`, `addr + 4`, … in turn, repeated
    /// `runs` times, would — the tick, the read and hit counters and each
    /// line's LRU stamp all end where those calls leave them — and returns
    /// `true`. Otherwise changes nothing and returns `false`. `addr` is
    /// word-aligned.
    pub fn try_hits(&mut self, addr: u32, words: u32, runs: u32) -> bool {
        if words == 0 || runs == 0 {
            return true;
        }
        let end = u64::from(addr) + 4 * u64::from(words);
        let lines = (addr >> self.line_shift)..=((end - 1) >> self.line_shift) as u32;
        if !lines.clone().all(|line| self.find(line).is_some()) {
            return false;
        }
        // The last run stamps the lines: a line's stamp is the tick of that
        // run's last access to it, a count of the words from `addr` on, so
        // no stamp waits on another.
        let hits = u64::from(runs) * u64::from(words);
        let tick = self.tick + hits - u64::from(words);
        for line in lines {
            let line_end = (u64::from(line) + 1) << self.line_shift;
            let i = self.find(line).expect("checked present");
            self.lines[i].lru = tick + (line_end.min(end) - u64::from(addr)) / 4;
        }
        self.tick += hits;
        self.stats.reads += hits;
        self.stats.hits += hits;
        true
    }

    /// When a `kind` access to `addr` hits with no memory traffic — the
    /// line is present, and the access is a read or, under write-back, a
    /// write — books it exactly as [`Cache::access`] would (the tick, the
    /// read or write counter, the hit counter, the line's LRU stamp and,
    /// for a write, its dirty bit) and returns `true`. Otherwise changes
    /// nothing and returns `false`.
    #[inline(always)]
    pub fn try_hit(&mut self, addr: u32, kind: AccessKind) -> bool {
        let is_write = kind == AccessKind::Write;
        if is_write && self.cfg.write_policy == WritePolicy::WriteThrough {
            return false;
        }
        let Some(i) = self.find(addr >> self.line_shift) else { return false };
        self.tick += 1;
        let line = &mut self.lines[i];
        line.lru = self.tick;
        if is_write {
            line.dirty = true;
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.hits += 1;
        true
    }

    /// Invalidates all lines (losing dirtiness — used on reset only).
    pub fn invalidate_all(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.generation += 1;
    }

    /// Serializes tags, LRU state, the access tick and statistics.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.lines.len());
        for l in &self.lines {
            w.u32(l.tag);
            w.bool(l.valid);
            w.bool(l.dirty);
            w.u64(l.lru);
        }
        w.u64(self.tick);
        self.stats.save_state(w);
    }

    /// Restores tags, LRU state, the access tick and statistics.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] if the recorded geometry differs
    /// from this cache's, or a decode error on a corrupt stream.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.generation += 1;
        let n = r.usize()?;
        if n != self.lines.len() {
            return Err(StateError::BadLength { found: n as u64, max: self.lines.len() as u64 });
        }
        for l in &mut self.lines {
            l.tag = r.u32()?;
            l.valid = r.bool()?;
            l.dirty = r.bool()?;
            l.lru = r.u64()?;
        }
        self.tick = r.u64()?;
        self.stats.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_cache() -> Cache {
        // 4 sets of 16-byte lines, direct-mapped.
        Cache::new(
            CacheConfig { size_bytes: 64, line_bytes: 16, ways: 1, hit_latency: 1, write_policy: WritePolicy::WriteBack },
            CacheKind::Data,
        )
    }

    #[test]
    fn geometry_helpers() {
        let c = CacheConfig::paper_l1_4k();
        assert_eq!(c.sets(), 256);
        assert_eq!(c.line_words(), 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut c = CacheConfig::paper_l1_4k();
        c.size_bytes = 3000;
        assert!(c.validate().is_err());
        c = CacheConfig::paper_l1_4k();
        c.line_bytes = 2;
        assert!(c.validate().is_err());
        c = CacheConfig::paper_l1_4k();
        c.ways = 0;
        assert!(c.validate().is_err());
        c = CacheConfig::paper_l1_4k();
        c.hit_latency = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_ways_that_leave_capacity_unused() {
        // 4096 / (16 * 3) = 85.3: 85 sets would hold 4080 bytes, not 4096.
        let mut c = CacheConfig::paper_l1_4k();
        c.ways = 3;
        assert_eq!(c.validate(), Err(MemConfigError::CacheGeometry { size_bytes: 4096, ways: 3, line_bytes: 16 }));
        for ways in [5, 6, 7, 12, 255] {
            c.ways = ways;
            assert!(matches!(c.validate(), Err(MemConfigError::CacheGeometry { .. })), "{ways} ways");
        }
        for ways in [1, 2, 4, 64, 256] {
            c.ways = ways;
            assert_eq!(c.validate(), Ok(()), "{ways} ways");
            assert!(c.sets().is_power_of_two());
            assert_eq!(c.sets() * c.ways * c.line_bytes, c.size_bytes);
        }
        c.ways = 512; // more ways than lines
        assert!(matches!(c.validate(), Err(MemConfigError::CacheGeometry { .. })));
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn construction_panics_on_invalid() {
        let mut c = CacheConfig::paper_l1_4k();
        c.ways = 3;
        c.size_bytes = 4096; // 4096 / (16*3) is not integral but also not power-of-two-clean
        c.line_bytes = 24;
        let _ = Cache::new(c, CacheKind::Data);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = dm_cache();
        assert_eq!(c.access(0x00, AccessKind::Read), CacheResponse::Miss { writeback_addr: None });
        assert_eq!(c.access(0x04, AccessKind::Read), CacheResponse::Hit, "same line");
        assert_eq!(c.access(0x10, AccessKind::Read), CacheResponse::Miss { writeback_addr: None });
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let mut c = dm_cache();
        // 4 sets * 16B = 64B; addresses 0x00 and 0x40 conflict in set 0.
        c.access(0x00, AccessKind::Read);
        assert_eq!(c.access(0x40, AccessKind::Read), CacheResponse::Miss { writeback_addr: None }, "clean victim");
        assert_eq!(c.access(0x00, AccessKind::Read), CacheResponse::Miss { writeback_addr: None }, "evicted");
    }

    #[test]
    fn dirty_victim_writeback() {
        let mut c = dm_cache();
        c.access(0x00, AccessKind::Write); // allocate + dirty
        match c.access(0x40, AccessKind::Read) {
            CacheResponse::Miss { writeback_addr: Some(a) } => assert_eq!(a, 0x00),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn set_associative_lru() {
        // 2 ways, 2 sets, 16-byte lines → 64 bytes.
        let cfg = CacheConfig { size_bytes: 64, line_bytes: 16, ways: 2, hit_latency: 1, write_policy: WritePolicy::WriteBack };
        let mut c = Cache::new(cfg, CacheKind::Data);
        // Set 0 holds lines at 0x00, 0x20, 0x40, ... (line/sets interleave).
        c.access(0x00, AccessKind::Read);
        c.access(0x20, AccessKind::Read);
        c.access(0x00, AccessKind::Read); // touch 0x00 so 0x20 is LRU
        c.access(0x40, AccessKind::Read); // evicts 0x20
        assert_eq!(c.access(0x00, AccessKind::Read), CacheResponse::Hit);
        assert_eq!(c.access(0x20, AccessKind::Read), CacheResponse::Miss { writeback_addr: None });
    }

    #[test]
    fn write_through_never_writes_back() {
        let cfg = CacheConfig { size_bytes: 64, line_bytes: 16, ways: 1, hit_latency: 1, write_policy: WritePolicy::WriteThrough };
        let mut c = Cache::new(cfg, CacheKind::Data);
        assert_eq!(c.access(0x00, AccessKind::Write), CacheResponse::WriteThrough { hit: false }, "no allocate");
        c.access(0x00, AccessKind::Read); // fill
        assert_eq!(c.access(0x00, AccessKind::Write), CacheResponse::WriteThrough { hit: true });
        c.access(0x40, AccessKind::Read); // evict — must not write back
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.stats().write_throughs, 2);
    }

    #[test]
    fn line_base_masks_offset() {
        let c = dm_cache();
        assert_eq!(c.line_base(0x1237), 0x1230);
    }

    #[test]
    fn take_stats_resets() {
        let mut c = dm_cache();
        c.access(0, AccessKind::Read);
        let s = c.take_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn recorded_hits_match_single_accesses() {
        // Two ways, so the LRU stamps decide the victim of the last miss.
        let cfg = CacheConfig { size_bytes: 64, line_bytes: 16, ways: 2, hit_latency: 1, write_policy: WritePolicy::WriteBack };
        let (mut one, mut bulk) = (Cache::new(cfg, CacheKind::Instruction), Cache::new(cfg, CacheKind::Instruction));
        for c in [&mut one, &mut bulk] {
            c.access(0x00, AccessKind::Fetch);
            c.access(0x20, AccessKind::Fetch);
        }
        for addr in [0x04, 0x08, 0x0C] {
            assert_eq!(one.access(addr, AccessKind::Fetch), CacheResponse::Hit);
        }
        assert!(bulk.try_hits(0x04, 3, 1), "the line is present");
        assert_eq!(state(&one), state(&bulk));
        assert_eq!(bulk.stats().hits, 3);

        // An absent line — never filled, or filled and then evicted — is
        // left to the full access, which misses.
        for absent in [0x10, 0x40] {
            let before = state(&bulk);
            assert!(!bulk.try_hits(absent, 1, 1), "{absent:#x} is absent");
            assert_eq!(state(&bulk), before, "a failed probe changes no state byte");
        }
        assert_eq!(one.access(0x40, AccessKind::Fetch), bulk.access(0x40, AccessKind::Fetch));
        assert!(!bulk.try_hits(0x20, 1, 1), "0x20 was the LRU victim");
        assert_eq!(bulk.access(0x00, AccessKind::Fetch), CacheResponse::Hit);
        assert!(bulk.try_hits(0x44, 1, 1));
        assert_eq!(one.access(0x00, AccessKind::Fetch), CacheResponse::Hit);
        assert_eq!(one.access(0x44, AccessKind::Fetch), CacheResponse::Hit);
        assert_eq!(state(&one), state(&bulk));
    }

    fn state(c: &Cache) -> Vec<u8> {
        let mut w = StateWriter::new(*b"TEST", 1);
        c.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn fetch_hit_runs_across_lines_book_what_per_line_runs_do() {
        // Two ways, so the LRU stamps decide later victims.
        let cfg = CacheConfig { size_bytes: 128, line_bytes: 16, ways: 2, hit_latency: 1, write_policy: WritePolicy::WriteBack };
        let (mut lines, mut run) = (Cache::new(cfg, CacheKind::Instruction), Cache::new(cfg, CacheKind::Instruction));
        for c in [&mut lines, &mut run] {
            for addr in [0x00, 0x10, 0x20, 0x30] {
                c.access(addr, AccessKind::Fetch);
            }
        }
        // Eleven fetches from 0x08: two on the first line, four on each of
        // the next two, one on the last.
        for (addr, words) in [(0x08, 2), (0x10, 4), (0x20, 4), (0x30, 1)] {
            assert!(lines.try_hits(addr, words, 1));
        }
        assert!(run.try_hits(0x08, 11, 1));
        assert_eq!(state(&lines), state(&run));
        assert_eq!(run.stats().hits, 11);
        // Runs repeated back to back book what one call per run does.
        for _ in 0..3 {
            assert!(lines.try_hits(0x08, 11, 1));
        }
        assert!(run.try_hits(0x08, 11, 3));
        assert_eq!(state(&lines), state(&run));
        assert!(run.try_hits(0x08, 11, 0), "no run books nothing");
        assert!(run.try_hits(0x34, 0, 1), "an empty run books nothing");
        assert_eq!(state(&lines), state(&run));

        // A run over any absent line books nothing, not even on the
        // present lines before it.
        let before = state(&run);
        assert!(!run.try_hits(0x30, 5, 1), "0x40 is absent");
        assert!(!run.try_hits(0x7C, 1, 1));
        assert_eq!(state(&run), before);
    }

    #[test]
    fn generation_moves_on_fills_invalidation_and_restore_only() {
        let mut c = dm_cache();
        let moved = |c: &mut Cache, f: &dyn Fn(&mut Cache)| {
            let g = c.generation();
            f(c);
            c.generation() != g
        };
        assert!(moved(&mut c, &|c| assert_eq!(c.access(0x00, AccessKind::Read), CacheResponse::Miss { writeback_addr: None })));
        assert!(!moved(&mut c, &|c| assert_eq!(c.access(0x04, AccessKind::Write), CacheResponse::Hit)));
        assert!(!moved(&mut c, &|c| assert!(c.try_hits(0x00, 4, 1))), "a fetch-hit run");
        assert!(!moved(&mut c, &|c| assert!(!c.try_hits(0x10, 1, 1))), "a probe that declines");
        assert!(!moved(&mut c, &|c| assert!(c.try_hit(0x08, AccessKind::Write))), "a data hit");
        assert!(moved(&mut c, &|c| assert!(matches!(c.access(0x40, AccessKind::Read), CacheResponse::Miss { .. }))));
        assert!(moved(&mut c, &|c| c.invalidate_all()));

        let cfg = CacheConfig { write_policy: WritePolicy::WriteThrough, ..*dm_cache().config() };
        let mut wt = Cache::new(cfg, CacheKind::Data);
        assert!(!moved(&mut wt, &|c| assert_eq!(c.access(0x00, AccessKind::Write), CacheResponse::WriteThrough { hit: false })));

        // A restore moves it even when it restores the very same lines:
        // the generation is not part of the saved state.
        let saved = state(&c);
        let (mut r, _) = temu_state::StateReader::new(&saved, *b"TEST", 1).unwrap();
        let g = c.generation();
        c.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_ne!(c.generation(), g);
        assert_eq!(state(&c), saved);
    }

    #[test]
    fn data_hits_book_what_accesses_do() {
        let (mut one, mut hit) = (dm_cache(), dm_cache());
        for c in [&mut one, &mut hit] {
            c.access(0x00, AccessKind::Read); // clean line
            c.access(0x10, AccessKind::Write); // dirty line
        }
        for (addr, kind) in [(0x04, AccessKind::Read), (0x08, AccessKind::Write), (0x14, AccessKind::Write), (0x18, AccessKind::Read)]
        {
            assert_eq!(one.access(addr, kind), CacheResponse::Hit);
            assert!(hit.try_hit(addr, kind), "{addr:#x} is present");
            assert_eq!(state(&one), state(&hit), "{kind:?} at {addr:#x}");
        }
        // The store hit dirtied the clean line: evicting it writes it back.
        assert_eq!(hit.access(0x40, AccessKind::Read), CacheResponse::Miss { writeback_addr: Some(0x00) });

        let before = state(&hit);
        assert!(!hit.try_hit(0x00, AccessKind::Read), "evicted");
        assert!(!hit.try_hit(0x20, AccessKind::Write), "never filled");
        assert_eq!(state(&hit), before, "a declined access changes nothing");
        let cfg = CacheConfig { write_policy: WritePolicy::WriteThrough, ..*dm_cache().config() };
        let mut wt = Cache::new(cfg, CacheKind::Data);
        wt.access(0x00, AccessKind::Read);
        let before = state(&wt);
        assert!(!wt.try_hit(0x04, AccessKind::Write), "a write-through store has memory traffic");
        assert_eq!(state(&wt), before);
        assert!(wt.try_hit(0x04, AccessKind::Read), "a write-through read hit has none");
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = dm_cache();
        c.access(0, AccessKind::Read);
        c.invalidate_all();
        assert_eq!(c.access(0, AccessKind::Read), CacheResponse::Miss { writeback_addr: None });
    }
}
