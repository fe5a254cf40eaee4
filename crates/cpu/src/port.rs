//! The memory port a core issues its accesses through.

use temu_isa::Width;
use temu_mem::MemError;

/// Reply to one memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemReply {
    /// Value read (zero for writes).
    pub value: u32,
    /// Absolute cycle at which the core may continue (`>= now + 1`).
    pub done_at: u64,
    /// Cycles of the access that count as *stall* for the sniffer's
    /// active/stalled breakdown (time beyond the cache hit latency:
    /// miss service, arbitration, memory waits).
    pub stall: u64,
}

/// Instruction bytes a core may run as a block (see [`MemoryPort::text`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Text<'a> {
    /// The text from the requested PC on, up to the requested length.
    pub bytes: &'a [u8],
    /// Cycles an I-cache hit takes.
    pub hit_latency: u32,
    /// The I-cache's generation: a value that changes whenever a line may
    /// have left the I-cache (a fill, an invalidation, a restore), so
    /// lines that were all present at one generation still are while it
    /// reads the same.
    pub generation: u64,
}

/// Interface between a core and its memory controller.
///
/// `now` is the absolute core cycle at which the access starts; `core` is the
/// issuing core's index (the controller routes private memory per core and
/// attributes statistics). Implementations perform the *functional* access
/// immediately and model all timing in the returned [`MemReply`].
///
/// The three provided methods let a core run straight-line code as a
/// warm block with its core-local cache hits kept off the full access
/// path: [`MemoryPort::text`] hands it the instruction bytes and the
/// I-cache's generation, [`MemoryPort::fetch_hits`] books the fetches of a
/// warm block's entries in a row at once, and [`MemoryPort::data_hit`]
/// performs a load or store that hits the core's private D-cache in
/// place. Their defaults decline, so every access then goes through
/// [`MemoryPort::fetch`], [`MemoryPort::read`] and [`MemoryPort::write`],
/// as phase-at-a-time execution does; a cold block entry is that
/// execution, and uses only `text` and those.
///
/// A port that answers `text` books fetch hits, and must change the
/// generation it reports on every I-cache fill and whenever else a line
/// may leave the I-cache. A core whose cold entry fetched a whole block
/// through `fetch` runs it warm while the port reports the generation read
/// at the start of that entry: it fetches nothing and books the block's
/// fetches with `fetch_hits` after the data accesses between them, at the
/// latest before its next fetch, so data accesses must leave the I-cache
/// alone.
pub trait MemoryPort {
    /// Instruction fetch of the word at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped, misaligned or out-of-range fetches.
    fn fetch(&mut self, core: usize, pc: u32, now: u64) -> Result<MemReply, MemError>;

    /// Data read of `width` bytes at `addr` (zero-extended value).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped, misaligned or out-of-range reads.
    fn read(&mut self, core: usize, addr: u32, width: Width, now: u64) -> Result<MemReply, MemError>;

    /// Data write of the low `width` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped, misaligned or out-of-range writes.
    fn write(&mut self, core: usize, addr: u32, width: Width, value: u32, now: u64) -> Result<MemReply, MemError>;

    /// Atomic test-and-set: reads the word at `addr` and writes 1 to it as a
    /// single indivisible transaction (the platform's spinlock primitive).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] for unmapped, misaligned or out-of-range access.
    fn tas(&mut self, core: usize, addr: u32, now: u64) -> Result<MemReply, MemError>;

    /// The bytes of `[pc, pc + len)` — fewer where the range ends — with
    /// the I-cache's hit latency and generation, when `pc` is 4-aligned text
    /// in the core's private cacheable range behind an I-cache, so that a
    /// fetch there has no effect beyond the I-cache and its miss traffic to
    /// private memory; `None` otherwise (the default).
    fn text(&self, _core: usize, _pc: u32, _len: u32) -> Option<Text<'_>> {
        None
    }

    /// When every I-cache line holding a word of `[pc, pc + 4 * fetches)`
    /// is present, books `runs` runs of `fetches` fetch hits on them,
    /// exactly as [`MemoryPort::fetch`] calls on `pc`, `pc + 4`, … in turn,
    /// repeated `runs` times, would, and returns `true`. Otherwise changes
    /// nothing and returns `false` (the default). A core calls it only to
    /// book the fetches of warm block entries, whose lines are all present,
    /// in text [`MemoryPort::text`] answered.
    fn fetch_hits(&mut self, _core: usize, _pc: u32, _fetches: u32, _runs: u32) -> bool {
        false
    }

    /// Performs a load of `width` bytes at `addr` (`store` is `None`) or a
    /// store of the low `width` bytes of the value in `store`, starting at
    /// `now`, when it is a hit with no effect beyond the core's own
    /// D-cache and private memory: width-aligned, inside the core's private
    /// cacheable range, on a present D-cache line and, for a store, under
    /// write-back. Books it exactly as [`MemoryPort::read`] or
    /// [`MemoryPort::write`] would and returns their reply. Declines,
    /// changing nothing, for every other access (the default); the core
    /// then runs it through `read` or `write`.
    ///
    /// A warm block calls it from inside its loop for every load and
    /// store, so an implementation's hit path is meant to be inlined there
    /// (`#[inline(always)]`, down to the cache lookup): an out-of-line call
    /// spills the block loop's registers around every hit.
    fn data_hit(&mut self, _core: usize, _addr: u32, _width: Width, _store: Option<u32>, _now: u64) -> Option<MemReply> {
        None
    }
}
