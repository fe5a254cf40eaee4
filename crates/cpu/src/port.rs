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
    /// `log2` of the I-cache line size: two fetches hit the same line iff
    /// their addresses agree above this bit.
    pub line_shift: u32,
    /// Cycles an I-cache hit takes.
    pub hit_latency: u32,
}

/// Interface between a core and its memory controller.
///
/// `now` is the absolute core cycle at which the access starts; `core` is the
/// issuing core's index (the controller routes private memory per core and
/// attributes statistics). Implementations perform the *functional* access
/// immediately and model all timing in the returned [`MemReply`].
///
/// The two provided methods let a core run straight-line code as a block:
/// [`MemoryPort::text`] hands it the instruction bytes, and
/// [`MemoryPort::fetch_hits`] books I-cache fetch hits without a fetch —
/// a probe of one hit on each new line, and in one update the hits that
/// follow on that line. Their defaults decline, so every fetch then goes
/// through [`MemoryPort::fetch`]; a port that answers `text` books hits.
/// A block runs its loads, stores and `tas` through [`MemoryPort::read`],
/// [`MemoryPort::write`] and [`MemoryPort::tas`] between its fetches, as
/// phase-at-a-time execution does.
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

    /// The bytes of `[pc, pc + len)` — fewer where the range ends — when
    /// `pc` is 4-aligned text in the core's private cacheable range behind
    /// an I-cache, so that a fetch there has no effect beyond the I-cache
    /// and its miss traffic to private memory; `None` otherwise (the
    /// default).
    fn text(&self, _core: usize, _pc: u32, _len: u32) -> Option<Text<'_>> {
        None
    }

    /// When the I-cache line holding `pc` is present, books `hits` fetch
    /// hits on it, exactly as that many [`MemoryPort::fetch`] calls on the
    /// line would, and returns `true`. When it is absent, changes nothing
    /// and returns `false` (the default); the core then fetches `pc`
    /// through [`MemoryPort::fetch`], which misses. Only called for text
    /// [`MemoryPort::text`] answered.
    fn fetch_hits(&mut self, _core: usize, _pc: u32, _hits: u32) -> bool {
        false
    }
}
