//! The TE32 core: fetch/decode/execute with cycle accounting.
//!
//! Execution is split into micro-phases: [`Cpu::step`] first performs the
//! instruction fetch and execute phase; if the instruction needs a data
//! access, the core parks it as a pending operation and the *next* `step`
//! call performs it. Every micro-phase makes at most one memory access, so
//! the engine can order the phases that reach shared resources (bus, NoC
//! links, shared memory): it runs each of them on the core with the
//! smallest (local time, interconnect tie key), which gives shared
//! resources their requests in nondecreasing global time, exactly as the
//! signal-level `temu-des` baseline issues them. Phases whose access stays
//! in the core's private range touch only that core's own state, so the
//! engine lets a core run them back to back ([`Cpu::run_local`]), ahead of
//! the other cores, without changing any result.
//!
//! [`Cpu::run_local`] runs private cached text a block at a time: up to 32
//! predecoded instructions of straight-line code, ending at (and
//! including) the first control transfer or `halt`, or before an
//! undecodable word. Loads, stores and `tas` stay inside a block: each
//! one's data phase runs right after its fetch phase, under the
//! rule `run_local` applies between phases (local time below the limit,
//! address below the core-local end); where the rule fails, the block
//! stops with the access parked. A store or `tas` over the block's own
//! text ends the block right after it, so the words after it are fetched
//! again. A block keeps the bytes it was decoded from and compares them
//! with memory on every entry, so stores over the text and restored
//! checkpoints need no invalidation.
//!
//! A fetch that stays on the I-cache line fetched before is a hit, since
//! only this core's fetches touch its I-cache. A fetch on a new line — the
//! block's first, and each line change — is a tag probe
//! ([`MemoryPort::fetch_hits`] with one fetch): a present line books the
//! hit, and only an absent one goes through the full
//! [`MemoryPort::fetch`], which misses as before. An entry that fetches
//! every instruction of its block with every probe hitting records the
//! I-cache's generation ([`Text::generation`]), which the port changes
//! whenever a line may leave the I-cache; while it reads the same, all
//! the block's lines are still present and the block runs warm, with no
//! probe. Hits are booked in one `fetch_hits` over the run since the last
//! probe (warm: since the block's start), before the next probe, at the
//! block's end and before a data fault is returned. A load or store that
//! hits the core's private D-cache runs in place
//! ([`MemoryPort::data_hit`]); every other data access (a miss, shared
//! or MMIO data, `tas`, a write-through store, an access the port
//! declines) goes through the full [`MemoryPort::read`], `write` or `tas`.
//! Every cycle, counter, cache tag, LRU stamp and access tick ends exactly
//! where phase-at-a-time execution leaves it. Text with no block (outside
//! the private cacheable range, without an I-cache, misaligned or
//! undecodable) runs one phase at a time, and [`Cpu::step`] always does:
//! it is what the shared-phase order and the `temu-des` baseline run, with
//! no block code in its path.

use crate::port::{MemReply, MemoryPort, Text};
use crate::regfile::RegFile;
use crate::stats::CoreStats;
use std::error::Error;
use std::fmt;
use temu_isa::{DecodeError, Instr, Reg, Width};
use temu_mem::MemError;
use temu_state::{StateError, StateReader, StateWriter};

/// Core timing configuration (execute-phase extras).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuConfig {
    /// Extra cycles for a taken branch or jump (pipeline refill).
    pub branch_penalty: u32,
    /// Extra cycles for `mul`/`mulh`.
    pub mul_extra: u32,
    /// Extra cycles for `div`/`rem` (iterative divider).
    pub div_extra: u32,
}

impl Default for CpuConfig {
    fn default() -> CpuConfig {
        CpuConfig { branch_penalty: 2, mul_extra: 2, div_extra: 31 }
    }
}

/// Result of one [`Cpu::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// A micro-phase completed; the core remains runnable.
    Executed,
    /// The core is halted (either it just executed `halt` or it was halted
    /// before the call).
    Halted,
}

/// Execution fault, carrying the faulting PC for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuError {
    /// The fetched word does not decode.
    Decode {
        /// PC of the undecodable word.
        pc: u32,
        /// The fetched word.
        word: u32,
        /// Decoder diagnosis.
        err: DecodeError,
    },
    /// A memory access faulted.
    Mem {
        /// PC of the faulting instruction.
        pc: u32,
        /// The memory system diagnosis.
        err: MemError,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::Decode { pc, word, err } => {
                write!(f, "undecodable instruction {word:#010x} at pc {pc:#010x}: {err}")
            }
            CpuError::Mem { pc, err } => write!(f, "memory fault at pc {pc:#010x}: {err}"),
        }
    }
}

impl Error for CpuError {}

/// Parked data access awaiting its micro-phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DataOp {
    Load { rd: Reg, addr: u32, width: Width, signed: bool },
    Store { addr: u32, width: Width, value: u32 },
    Tas { rd: Reg, addr: u32 },
}

impl DataOp {
    fn addr(self) -> u32 {
        match self {
            DataOp::Load { addr, .. } | DataOp::Store { addr, .. } | DataOp::Tas { addr, .. } => addr,
        }
    }

    /// Whether the access writes a byte of `[start, end)`.
    fn writes_into(self, start: u64, end: u64) -> bool {
        let (addr, bytes) = match self {
            DataOp::Load { .. } => return false,
            DataOp::Store { addr, width, .. } => (addr, width.bytes()),
            DataOp::Tas { addr, .. } => (addr, 4),
        };
        u64::from(addr) < end && u64::from(addr) + u64::from(bytes) > start
    }
}

/// Slots of the [`DecodeCache`]: any 4 KB of contiguous text gets distinct
/// slots (the MATRIX and DITHERING programs are ~120 words); words 4 KB
/// apart share one and decode again when they alternate.
const DECODE_SLOTS: usize = 1024;

/// Direct-mapped memo of decoded instructions, indexed by word address.
/// A slot keeps the word it decoded and is used only when the fetched word
/// matches it, so a store over the text can never leave a stale decode
/// behind: the cache needs no invalidation and no checkpoint state.
#[derive(Clone, Debug, Default)]
struct DecodeCache {
    /// `(word, its decode)` per slot; empty until the first fetch, so
    /// building a machine allocates nothing.
    slots: Vec<(u32, Instr)>,
}

impl DecodeCache {
    #[inline]
    fn decode(&mut self, pc: u32, word: u32) -> Result<Instr, DecodeError> {
        let slot = (pc >> 2) as usize & (DECODE_SLOTS - 1);
        match self.slots.get(slot) {
            Some(&(w, instr)) if w == word => Ok(instr),
            _ => self.fill(slot, word),
        }
    }

    /// The decode itself, kept out of line so the hit path stays small.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, slot: usize, word: u32) -> Result<Instr, DecodeError> {
        let instr = Instr::decode(word)?;
        if self.slots.is_empty() {
            self.slots = vec![(word, instr); DECODE_SLOTS];
        }
        self.slots[slot] = (word, instr);
        Ok(instr)
    }
}

/// Instructions a block holds at most.
const BLOCK_LEN: usize = 32;

/// Text bytes a block is decoded from at most.
const BLOCK_BYTES: u32 = 4 * BLOCK_LEN as u32;

/// Slots of the [`BlockCache`], direct-mapped by start PC: any 1 KB of
/// contiguous text gets distinct slots (the MATRIX and DITHERING text is
/// under 1 KB).
const BLOCK_SLOTS: usize = 256;

// A core's table, allocated on its first block, stays within 112 KB.
const _: () = assert!(BLOCK_SLOTS * std::mem::size_of::<Block>() <= 112 * 1024);

/// A run of straight-line instructions starting at `pc`, ending at (and
/// including) the first control transfer or `halt`, before an
/// undecodable word, or at [`BLOCK_LEN`] instructions.
///
/// Each block starts a cache line (448 bytes a block): with unaligned
/// 400-byte blocks, the ISS ran ~4% slower on one-core DITHERING and the
/// thermal step after each window 6–10% slower.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Block {
    pc: u32,
    /// Instructions in the block; 0 when its first word does not decode.
    len: usize,
    /// The I-cache generation ([`Text::generation`]) at the end of an entry
    /// that fetched every instruction with every line probe hitting: while
    /// the I-cache reports it, all the block's lines are present.
    warm: Option<u64>,
    /// The text the block was decoded from; its first `4 * len` bytes count.
    bytes: [u8; BLOCK_BYTES as usize],
    instrs: [Instr; BLOCK_LEN],
}

impl Block {
    const EMPTY: Block =
        Block { pc: 0, len: 0, warm: None, bytes: [0; BLOCK_BYTES as usize], instrs: [Instr::NOP; BLOCK_LEN] };

    /// Decodes the block at `pc` from `text`, the text from `pc` on; kept
    /// out of line so the cache's hit path stays small.
    #[cold]
    #[inline(never)]
    fn decode(pc: u32, text: &[u8]) -> Block {
        let mut block = Block { pc, ..Block::EMPTY };
        for (word, bytes) in text.chunks_exact(4).take(BLOCK_LEN).enumerate() {
            let Ok(instr) = Instr::decode(u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"))) else { break };
            block.instrs[word] = instr;
            block.bytes[4 * word..4 * word + 4].copy_from_slice(bytes);
            block.len = word + 1;
            if instr.is_control() || instr == Instr::Halt {
                break;
            }
        }
        block
    }
}

/// Direct-mapped cache of [`Block`]s by start PC. A block is used only when
/// the text at its PC still holds the bytes it was decoded from (one slice
/// compare per entry), so, as with the decode cache, stores over the text
/// and restored checkpoints need no invalidation and the cache no
/// checkpoint state.
#[derive(Clone, Debug, Default)]
struct BlockCache {
    /// Empty until the first block, so building a machine allocates nothing.
    slots: Vec<Block>,
}

impl BlockCache {
    /// The block at `pc`, decoded again from `text` (the text from `pc` on)
    /// unless its slot holds one decoded from the same bytes.
    #[inline]
    fn get(&mut self, pc: u32, text: &[u8]) -> &mut Block {
        if self.slots.is_empty() {
            self.slots = vec![Block::EMPTY; BLOCK_SLOTS];
        }
        let block = &mut self.slots[(pc >> 2) as usize & (BLOCK_SLOTS - 1)];
        let n = 4 * block.len;
        if block.pc != pc || n == 0 || text.get(..n) != Some(&block.bytes[..n]) {
            *block = Block::decode(pc, text);
        }
        block
    }
}

/// One TE32 core instance.
#[derive(Clone, Debug)]
pub struct Cpu {
    id: usize,
    cfg: CpuConfig,
    regs: RegFile,
    pc: u32,
    time: u64,
    halted: bool,
    pending: Option<(DataOp, u32)>, // (operation, pc of the owning instruction)
    stats: CoreStats,
    decoded: DecodeCache,
    blocks: BlockCache,
}

impl Cpu {
    /// Creates core `id` with the given timing configuration, at PC 0 and
    /// local cycle 0.
    pub fn new(id: usize, cfg: CpuConfig) -> Cpu {
        Cpu {
            id,
            cfg,
            regs: RegFile::new(),
            pc: 0,
            time: 0,
            halted: false,
            pending: None,
            stats: CoreStats::default(),
            decoded: DecodeCache::default(),
            blocks: BlockCache::default(),
        }
    }

    /// The core's index on the platform.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The core's local cycle counter.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Whether the core has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the core is between the fetch and data phases of a memory
    /// instruction.
    pub fn mid_instruction(&self) -> bool {
        self.pending.is_some()
    }

    /// Read access to the register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable access to the register file (used by loaders to set the stack
    /// pointer and argument registers).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// Statistics accumulated since the last [`Cpu::take_stats`].
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Returns and resets the statistics.
    pub fn take_stats(&mut self) -> CoreStats {
        std::mem::take(&mut self.stats)
    }

    /// Adds externally-imposed idle cycles (clock freezes, post-halt time)
    /// and advances the local clock accordingly.
    pub fn add_idle(&mut self, cycles: u64) {
        self.stats.idle_cycles += cycles;
        self.time += cycles;
    }

    /// Resets the core to `entry`, clearing registers, time and statistics.
    pub fn reset(&mut self, entry: u32) {
        self.regs = RegFile::new();
        self.pc = entry;
        self.time = 0;
        self.halted = false;
        self.pending = None;
        self.stats = CoreStats::default();
    }

    /// Executes one micro-phase (fetch/execute, or a parked data access)
    /// through `port`.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] if the fetched word does not decode or a memory
    /// access faults; the core's state is left at the faulting instruction.
    pub fn step<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Result<StepOutcome, CpuError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        if let Some((op, pc)) = self.pending.take() {
            return self.data_phase(port, op, pc);
        }
        self.fetch_phase(port)
    }

    /// Runs micro-phases back to back while the core is running, its local
    /// time is below `limit` and the address its next phase accesses — the
    /// parked data access, else the PC — is below `local_end`.
    ///
    /// The engine passes the end of the range `[0, local_end)` whose
    /// accesses touch only this core's own state (its caches, its private
    /// memory and its counters), so these phases may run ahead of other
    /// cores' work; `0` runs nothing, `1 << 32` runs to `limit` or `halt`.
    ///
    /// Fetch phases run as blocks where the port offers the text
    /// ([`MemoryPort::text`]): each phase of a block after its first — a
    /// fetch, or the data phase of a load, store or `tas` — runs under the
    /// same `limit` and `local_end` rule, fetches that hit the I-cache are
    /// booked through [`MemoryPort::fetch_hits`] (with no probe in a warm
    /// block) and D-cache hits run through [`MemoryPort::data_hit`]. The
    /// result — state, counters and cache — is the one phase-at-a-time
    /// execution gives, which remains the path for text with no block.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] exactly as [`Cpu::step`] does; the core is left
    /// at the faulting phase, with its local time at the phase's start.
    pub fn run_local<P: MemoryPort + ?Sized>(&mut self, port: &mut P, limit: u64, local_end: u64) -> Result<(), CpuError> {
        while !self.halted && self.time < limit {
            match self.pending {
                Some((op, pc)) if u64::from(op.addr()) < local_end => {
                    self.pending = None;
                    self.data_phase(port, op, pc)?;
                }
                None if u64::from(self.pc) < local_end => {
                    if !self.run_block(port, limit, local_end)? {
                        self.fetch_phase(port)?;
                    }
                }
                _ => break,
            }
        }
        Ok(())
    }

    fn data_phase<P: MemoryPort + ?Sized>(&mut self, port: &mut P, op: DataOp, pc: u32) -> Result<StepOutcome, CpuError> {
        let t = self.time;
        let reply = match op {
            DataOp::Load { addr, width, .. } => port.read(self.id, addr, width, t),
            DataOp::Store { addr, width, value } => port.write(self.id, addr, width, value, t),
            DataOp::Tas { addr, .. } => port.tas(self.id, addr, t),
        }
        .map_err(|err| {
            self.pending = Some((op, pc)); // stay at the faulting phase
            CpuError::Mem { pc, err }
        })?;
        self.retire_data(op, pc, reply);
        Ok(StepOutcome::Executed)
    }

    /// Ends the data phase of `op`, owned by the instruction at `pc`, with
    /// the access's `reply`.
    #[inline(always)]
    fn retire_data(&mut self, op: DataOp, pc: u32, reply: MemReply) {
        match op {
            DataOp::Load { rd, width, signed, .. } => {
                self.regs.write(rd, extend(reply.value, width, signed));
                self.stats.loads += 1;
            }
            DataOp::Store { .. } => self.stats.stores += 1,
            DataOp::Tas { rd, .. } => {
                self.regs.write(rd, reply.value);
                self.stats.loads += 1;
            }
        }
        let elapsed = reply.done_at - self.time;
        self.stats.stall_cycles += reply.stall;
        self.stats.active_cycles += elapsed - reply.stall;
        self.stats.instructions += 1;
        self.time = reply.done_at;
        self.pc = pc.wrapping_add(4);
    }

    fn fetch_phase<P: MemoryPort + ?Sized>(&mut self, port: &mut P) -> Result<StepOutcome, CpuError> {
        let t0 = self.time;
        let pc = self.pc;
        let fetch = port.fetch(self.id, pc, t0).map_err(|err| CpuError::Mem { pc, err })?;
        let instr = self.decoded.decode(pc, fetch.value).map_err(|err| CpuError::Decode { pc, word: fetch.value, err })?;
        self.execute(instr, pc, t0, fetch.done_at, fetch.stall);
        Ok(if self.halted { StepOutcome::Halted } else { StepOutcome::Executed })
    }

    /// Runs the block of straight-line code at the PC, phase by phase, as
    /// [`Cpu::fetch_phase`] and [`Cpu::data_phase`] would with the same
    /// `limit` and `local_end` rule as [`Cpu::run_local`] between phases;
    /// returns `false`, having run nothing, when the PC has no block.
    ///
    /// A block that fetched every instruction of an entry with every line
    /// probe hitting records the I-cache generation ([`Text::generation`]),
    /// and runs warm while the I-cache reports the same one: all its lines
    /// are still present, so it fetches with no probe. See
    /// [`Cpu::run_decoded`] for the loop.
    fn run_block<P: MemoryPort + ?Sized>(&mut self, port: &mut P, limit: u64, local_end: u64) -> Result<bool, CpuError> {
        let Some(text) = port.text(self.id, self.pc, BLOCK_BYTES) else { return Ok(false) };
        let Text { line_shift, hit_latency, generation, .. } = text;
        // The table moves out while the block runs, so the block is
        // borrowed from it rather than copied.
        let mut blocks = std::mem::take(&mut self.blocks);
        let block = blocks.get(self.pc, text.bytes);
        let ran = block.len > 0;
        let result = if ran {
            let warm = block.warm == Some(generation);
            self.run_decoded(port, block, warm, line_shift, u64::from(hit_latency), limit, local_end).map(|all_hit| {
                if all_hit {
                    block.warm = Some(generation);
                }
            })
        } else {
            Ok(())
        };
        self.blocks = blocks;
        result.map(|()| ran)
    }

    /// The loop of [`Cpu::run_block`] over `block`, which starts at the PC,
    /// behind I-cache lines of `1 << line_shift` bytes; returns whether it
    /// fetched every instruction of the block and every fetch hit.
    ///
    /// Cold, a fetch on a new line (the block's first, or a line change)
    /// probes the line with one [`MemoryPort::fetch_hits`] and goes through
    /// [`MemoryPort::fetch`] only when the line is absent; the fetches
    /// after it on that line are hits, since only this core's fetches touch
    /// its I-cache. `warm`, every fetch is a hit. Hits are booked in one
    /// `fetch_hits` over the run since the last probe (warm: since the
    /// block's start), before the next probe, at the block's end and before
    /// a data-phase fault is returned. A memory instruction's data phase
    /// runs in place after its fetch, a private D-cache hit without a full
    /// access ([`MemoryPort::data_hit`]); a store or `tas` over the block's
    /// own text ends the block.
    #[allow(clippy::too_many_arguments)] // the block loop's invariants, hoisted out of it
    fn run_decoded<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        block: &Block,
        warm: bool,
        line_shift: u32,
        hit_latency: u64,
        limit: u64,
        local_end: u64,
    ) -> Result<bool, CpuError> {
        let text_start = u64::from(block.pc);
        let text_end = text_start + 4 * block.len as u64;
        let mut line = u32::MAX; // the line probed last; none yet
        let (mut first, mut hits) = (block.pc, 0); // fetch hits from `first` on, not booked yet
        let (mut fetched, mut missed) = (0, false);
        for &instr in &block.instrs[..block.len] {
            let (pc, t0) = (self.pc, self.time);
            if fetched > 0 && (t0 >= limit || u64::from(pc) >= local_end) {
                break;
            }
            fetched += 1;
            if warm || pc >> line_shift == line {
                hits += 1;
                self.execute(instr, pc, t0, t0 + hit_latency, 0);
            } else {
                self.book_hits(port, first, hits);
                (line, first, hits) = (pc >> line_shift, pc.wrapping_add(4), 0);
                if port.fetch_hits(self.id, pc, 1) {
                    self.execute(instr, pc, t0, t0 + hit_latency, 0);
                } else {
                    missed = true;
                    let fetch = port.fetch(self.id, pc, t0).map_err(|err| CpuError::Mem { pc, err })?;
                    self.execute(instr, pc, t0, fetch.done_at, fetch.stall);
                }
            }
            let Some((op, op_pc)) = self.pending else { continue };
            if self.time >= limit || u64::from(op.addr()) >= local_end {
                break;
            }
            self.pending = None;
            if let Err(err) = self.block_data_phase(port, op, op_pc) {
                self.book_hits(port, first, hits);
                return Err(err);
            }
            if op.writes_into(text_start, text_end) {
                break;
            }
        }
        self.book_hits(port, first, hits);
        Ok(fetched == block.len && !missed)
    }

    /// The data phase of a block's memory instruction: in place when the
    /// port performs it as a D-cache hit, else as [`Cpu::data_phase`].
    #[inline(always)]
    fn block_data_phase<P: MemoryPort + ?Sized>(&mut self, port: &mut P, op: DataOp, pc: u32) -> Result<(), CpuError> {
        let hit = match op {
            DataOp::Load { addr, width, .. } => port.data_hit(self.id, addr, width, None, self.time),
            DataOp::Store { addr, width, value } => port.data_hit(self.id, addr, width, Some(value), self.time),
            DataOp::Tas { .. } => None,
        };
        match hit {
            Some(reply) => self.retire_data(op, pc, reply),
            None => {
                self.data_phase(port, op, pc)?;
            }
        }
        Ok(())
    }

    /// Books `hits` fetch hits on the words from `first` on, which the
    /// running block fetched.
    fn book_hits<P: MemoryPort + ?Sized>(&self, port: &mut P, first: u32, hits: u32) {
        if hits > 0 {
            let present = port.fetch_hits(self.id, first, hits);
            debug_assert!(present, "the lines of a block's fetch hits stay present until it books them");
        }
    }

    /// Executes `instr`, fetched from `pc` in the fetch that started at
    /// `t0` and ended at `fetched` with `stall` stall cycles: applies its
    /// effect on registers, PC and counters, or parks its data access, and
    /// ends its phase with the execute-phase extras.
    #[inline(always)]
    fn execute(&mut self, instr: Instr, pc: u32, t0: u64, fetched: u64, stall: u64) {
        let mut t = fetched;
        let mut next_pc = pc.wrapping_add(4);
        let mut retired = true;
        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.regs.read(rs1), self.regs.read(rs2));
                if op.is_mul() {
                    self.stats.muls += 1;
                    t += u64::from(self.cfg.mul_extra);
                } else if op.is_div() {
                    self.stats.divs += 1;
                    t += u64::from(self.cfg.div_extra);
                }
                self.regs.write(rd, v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                self.regs.write(rd, op.eval(self.regs.read(rs1), imm));
            }
            Instr::ShiftImm { op, rd, rs1, sh } => {
                self.regs.write(rd, op.eval(self.regs.read(rs1), sh));
            }
            Instr::Lui { rd, imm } => {
                self.regs.write(rd, u32::from(imm) << 16);
            }
            Instr::Load { width, signed, rd, rs1, off } => {
                let addr = self.regs.read(rs1).wrapping_add(off as i32 as u32);
                self.pending = Some((DataOp::Load { rd, addr, width, signed }, pc));
                retired = false;
            }
            Instr::Store { width, rs2, rs1, off } => {
                let addr = self.regs.read(rs1).wrapping_add(off as i32 as u32);
                self.pending = Some((DataOp::Store { addr, width, value: self.regs.read(rs2) }, pc));
                retired = false;
            }
            Instr::Tas { rd, rs1, off } => {
                let addr = self.regs.read(rs1).wrapping_add(off as i32 as u32);
                self.pending = Some((DataOp::Tas { rd, addr }, pc));
                retired = false;
            }
            Instr::Branch { cond, rs1, rs2, off } => {
                self.stats.branches += 1;
                if cond.eval(self.regs.read(rs1), self.regs.read(rs2)) {
                    self.stats.taken_branches += 1;
                    next_pc = branch_target(pc, i32::from(off));
                    t += u64::from(self.cfg.branch_penalty);
                }
            }
            Instr::Jal { off } => {
                self.regs.write(Reg::RA, pc.wrapping_add(4));
                next_pc = branch_target(pc, off);
                t += u64::from(self.cfg.branch_penalty);
                self.stats.branches += 1;
                self.stats.taken_branches += 1;
            }
            Instr::Jalr { rd, rs1, off } => {
                let target = self.regs.read(rs1).wrapping_add(off as i32 as u32) & !3;
                self.regs.write(rd, pc.wrapping_add(4));
                next_pc = target;
                t += u64::from(self.cfg.branch_penalty);
                self.stats.branches += 1;
                self.stats.taken_branches += 1;
            }
            Instr::Halt => {
                self.halted = true;
            }
        }
        self.stats.stall_cycles += stall;
        self.stats.active_cycles += t - t0 - stall;
        self.time = t;
        if retired {
            self.pc = next_pc;
            self.stats.instructions += 1;
        }
    }
}

impl Cpu {
    /// Serializes the full architectural and micro-architectural state:
    /// registers, PC, local clock, halt flag, a parked data access (a core
    /// *can* sit between the fetch and data phases of a memory instruction at
    /// a window boundary) and statistics.
    pub fn save_state(&self, w: &mut StateWriter) {
        for i in 0..32 {
            w.u32(self.regs.read(Reg::new(i)));
        }
        w.u32(self.pc);
        w.u64(self.time);
        w.bool(self.halted);
        match self.pending {
            None => w.u8(0),
            Some((DataOp::Load { rd, addr, width, signed }, pc)) => {
                w.u8(1);
                w.u8(rd.index());
                w.u32(addr);
                w.u8(width.bytes() as u8);
                w.bool(signed);
                w.u32(pc);
            }
            Some((DataOp::Store { addr, width, value }, pc)) => {
                w.u8(2);
                w.u32(addr);
                w.u8(width.bytes() as u8);
                w.u32(value);
                w.u32(pc);
            }
            Some((DataOp::Tas { rd, addr }, pc)) => {
                w.u8(3);
                w.u8(rd.index());
                w.u32(addr);
                w.u32(pc);
            }
        }
        self.stats.save_state(w);
    }

    /// Restores state saved by [`Cpu::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a corrupt stream (bad register index,
    /// width or pending-op discriminant).
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let mut regs = RegFile::new();
        for i in 0..32 {
            regs.write(Reg::new(i), r.u32()?);
        }
        self.regs = regs;
        self.pc = r.u32()?;
        self.time = r.u64()?;
        self.halted = r.bool()?;
        self.pending = match r.u8()? {
            0 => None,
            1 => {
                let rd = load_reg(r)?;
                let addr = r.u32()?;
                let width = load_width(r)?;
                let signed = r.bool()?;
                let pc = r.u32()?;
                Some((DataOp::Load { rd, addr, width, signed }, pc))
            }
            2 => {
                let addr = r.u32()?;
                let width = load_width(r)?;
                let value = r.u32()?;
                let pc = r.u32()?;
                Some((DataOp::Store { addr, width, value }, pc))
            }
            3 => {
                let rd = load_reg(r)?;
                let addr = r.u32()?;
                let pc = r.u32()?;
                Some((DataOp::Tas { rd, addr }, pc))
            }
            d => return Err(StateError::BadValue { what: "pending data-op kind", value: u64::from(d) }),
        };
        self.stats.load_state(r)?;
        Ok(())
    }
}

fn load_reg(r: &mut StateReader<'_>) -> Result<Reg, StateError> {
    let i = r.u8()?;
    Reg::try_new(i).ok_or(StateError::BadValue { what: "register index", value: u64::from(i) })
}

fn load_width(r: &mut StateReader<'_>) -> Result<Width, StateError> {
    match r.u8()? {
        1 => Ok(Width::Byte),
        2 => Ok(Width::Half),
        4 => Ok(Width::Word),
        b => Err(StateError::BadValue { what: "access width", value: u64::from(b) }),
    }
}

/// Branch/jump target: `pc + 4 + off * 4` with wrapping.
fn branch_target(pc: u32, off: i32) -> u32 {
    pc.wrapping_add(4).wrapping_add((off as u32).wrapping_mul(4))
}

/// Sign/zero extension of a loaded value.
fn extend(value: u32, width: Width, signed: bool) -> u32 {
    match (width, signed) {
        (Width::Byte, true) => value as u8 as i8 as i32 as u32,
        (Width::Half, true) => value as u16 as i16 as i32 as u32,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::{MemReply, Text};
    use temu_isa::asm::assemble;
    use temu_mem::MemArray;

    /// Flat single-cycle test memory implementing the port.
    struct TestPort {
        mem: MemArray,
        fetch_extra: u64,
        data_extra: u64,
    }

    impl TestPort {
        fn new(size: u32) -> TestPort {
            TestPort { mem: MemArray::new(size), fetch_extra: 0, data_extra: 0 }
        }

        fn load_program(src: &str) -> (Cpu, TestPort) {
            let p = assemble(src).expect("test program assembles");
            let mut port = TestPort::new(64 * 1024);
            port.mem.load(p.base, &p.to_bytes()).unwrap();
            let mut cpu = Cpu::new(0, CpuConfig::default());
            cpu.reset(p.entry);
            (cpu, port)
        }
    }

    impl MemoryPort for TestPort {
        fn fetch(&mut self, _core: usize, pc: u32, now: u64) -> Result<MemReply, MemError> {
            let value = self.mem.read(pc, Width::Word)?;
            Ok(MemReply { value, done_at: now + 1 + self.fetch_extra, stall: self.fetch_extra })
        }

        fn read(&mut self, _core: usize, addr: u32, width: Width, now: u64) -> Result<MemReply, MemError> {
            let value = self.mem.read(addr, width)?;
            Ok(MemReply { value, done_at: now + 1 + self.data_extra, stall: self.data_extra })
        }

        fn write(&mut self, _core: usize, addr: u32, width: Width, value: u32, now: u64) -> Result<MemReply, MemError> {
            self.mem.write(addr, width, value)?;
            Ok(MemReply { value: 0, done_at: now + 1 + self.data_extra, stall: self.data_extra })
        }

        fn tas(&mut self, _core: usize, addr: u32, now: u64) -> Result<MemReply, MemError> {
            let value = self.mem.read(addr, Width::Word)?;
            self.mem.write(addr, Width::Word, 1)?;
            Ok(MemReply { value, done_at: now + 1 + self.data_extra, stall: self.data_extra })
        }
    }

    fn run(src: &str) -> (Cpu, TestPort) {
        let (mut cpu, mut port) = TestPort::load_program(src);
        for _ in 0..200_000 {
            match cpu.step(&mut port).expect("no faults") {
                StepOutcome::Halted => return (cpu, port),
                StepOutcome::Executed => {}
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_program() {
        let (cpu, _) = run("li r1, 6\n li r2, 7\n mul r3, r1, r2\n addi r3, r3, -2\n halt\n");
        assert_eq!(cpu.regs().read(Reg::new(3)), 40);
        assert_eq!(cpu.stats().muls, 1);
    }

    #[test]
    fn loads_and_stores_with_extension() {
        let (cpu, port) = run(
            "start: la r1, data\n
                    lw  r2, 0(r1)\n
                    lb  r3, 0(r1)\n
                    lbu r4, 0(r1)\n
                    lh  r5, 0(r1)\n
                    lhu r6, 0(r1)\n
                    sw  r2, 8(r1)\n
                    sb  r2, 12(r1)\n
                    halt\n
             data:  .word 0xFFFFFF80\n .word 0\n .word 0\n .word 0\n",
        );
        assert_eq!(cpu.regs().read(Reg::new(2)), 0xFFFF_FF80);
        assert_eq!(cpu.regs().read(Reg::new(3)), 0xFFFF_FF80, "lb sign-extends");
        assert_eq!(cpu.regs().read(Reg::new(4)), 0x80, "lbu zero-extends");
        assert_eq!(cpu.regs().read(Reg::new(5)), 0xFFFF_FF80, "lh sign-extends");
        assert_eq!(cpu.regs().read(Reg::new(6)), 0xFF80, "lhu zero-extends");
        let data = cpu.regs().read(Reg::new(1));
        assert_eq!(port.mem.read(data + 8, Width::Word).unwrap(), 0xFFFF_FF80);
        assert_eq!(port.mem.read(data + 12, Width::Word).unwrap(), 0x80, "sb writes one byte");
        assert_eq!(cpu.stats().loads, 5);
        assert_eq!(cpu.stats().stores, 2);
    }

    #[test]
    fn loop_counts() {
        let (cpu, _) = run("li r1, 10\n li r2, 0\nloop: addi r2, r2, 3\n addi r1, r1, -1\n bnez r1, loop\n halt\n");
        assert_eq!(cpu.regs().read(Reg::new(2)), 30);
        assert_eq!(cpu.stats().branches, 10);
        assert_eq!(cpu.stats().taken_branches, 9);
    }

    #[test]
    fn call_and_return() {
        let (cpu, _) = run(
            "start: li a0, 5\n call double\n mv s0, a0\n halt\n
             double: add a0, a0, a0\n ret\n",
        );
        assert_eq!(cpu.regs().read(Reg::new(20)), 10);
    }

    #[test]
    fn jalr_links_after_reading_base() {
        // jalr rd == rs1: the link value must not clobber the jump target.
        let (cpu, _) = run(
            "start: la r1, target\n jalr r1, r1, 0\n halt\n
             target: halt\n",
        );
        // After jalr, r1 = pc_of_jalr + 4 (address of the first halt).
        let jalr_pc = 2 * 4; // la expands to two instructions
        assert_eq!(cpu.regs().read(Reg::new(1)), jalr_pc as u32 + 4);
    }

    #[test]
    fn tas_returns_old_and_sets_one() {
        let (cpu, port) = run("la r1, lock\n tas r2, 0(r1)\n tas r3, 0(r1)\n halt\nlock: .word 0\n");
        assert_eq!(cpu.regs().read(Reg::new(2)), 0, "first TAS sees free lock");
        assert_eq!(cpu.regs().read(Reg::new(3)), 1, "second TAS sees taken lock");
        let lock = cpu.regs().read(Reg::new(1));
        assert_eq!(port.mem.read(lock, Width::Word).unwrap(), 1);
    }

    #[test]
    fn cycle_accounting_single_cycle_alu() {
        let (cpu, _) = run("nop\n nop\n nop\n halt\n");
        // 4 instructions, 1 cycle each (fetch subsumes issue).
        assert_eq!(cpu.time(), 4);
        assert_eq!(cpu.stats().active_cycles, 4);
        assert_eq!(cpu.stats().stall_cycles, 0);
        assert_eq!(cpu.stats().instructions, 4);
    }

    #[test]
    fn mem_instruction_takes_fetch_plus_access() {
        let (cpu, _) = run("lw r1, 0(r0)\n halt\n");
        // lw: fetch 1 + access 1; halt: fetch 1.
        assert_eq!(cpu.time(), 3);
        assert_eq!(cpu.stats().instructions, 2);
    }

    #[test]
    fn micro_phase_visible_between_fetch_and_data() {
        let (mut cpu, mut port) = TestPort::load_program("lw r1, 0(r0)\n halt\n");
        cpu.step(&mut port).unwrap();
        assert!(cpu.mid_instruction(), "load is parked after its fetch phase");
        assert_eq!(cpu.stats().instructions, 0, "not retired yet");
        cpu.step(&mut port).unwrap();
        assert!(!cpu.mid_instruction());
        assert_eq!(cpu.stats().instructions, 1);
    }

    /// A [`TestPort`] that offers all its text as blocks behind 16-byte
    /// lines with 1-cycle hits (which its fetches take), and performs loads
    /// and stores below 0x800 as 1-cycle D-cache hits (which its reads and
    /// writes take). A line is present once a full fetch has touched it,
    /// and each full fetch moves the generation. The port counts the full
    /// fetches, logs every booked run of fetch hits as `(first pc, hits)`
    /// and counts the data hits.
    struct BlockPort {
        inner: TestPort,
        present: Vec<u32>,
        generation: u64,
        fetches: u64,
        booked: Vec<(u32, u32)>,
        data_hits: u64,
    }

    impl BlockPort {
        fn new(inner: TestPort) -> BlockPort {
            BlockPort { inner, present: Vec::new(), generation: 0, fetches: 0, booked: Vec::new(), data_hits: 0 }
        }

        /// Instructions fetched, by either means.
        fn fetched(&self) -> u64 {
            self.fetches + self.booked.iter().map(|&(_, hits)| u64::from(hits)).sum::<u64>()
        }
    }

    impl MemoryPort for BlockPort {
        fn fetch(&mut self, core: usize, pc: u32, now: u64) -> Result<MemReply, MemError> {
            self.fetches += 1;
            let line = pc >> 4;
            assert!(!self.present.contains(&line), "a present line is probed, not fetched");
            self.present.push(line);
            self.generation += 1;
            self.inner.fetch(core, pc, now)
        }

        fn read(&mut self, core: usize, addr: u32, width: Width, now: u64) -> Result<MemReply, MemError> {
            self.inner.read(core, addr, width, now)
        }

        fn write(&mut self, core: usize, addr: u32, width: Width, value: u32, now: u64) -> Result<MemReply, MemError> {
            self.inner.write(core, addr, width, value, now)
        }

        fn tas(&mut self, core: usize, addr: u32, now: u64) -> Result<MemReply, MemError> {
            self.inner.tas(core, addr, now)
        }

        fn text(&self, _core: usize, pc: u32, len: u32) -> Option<Text<'_>> {
            let len = len.min(self.inner.mem.size() - pc);
            Some(Text { bytes: self.inner.mem.slice(pc, len), line_shift: 4, hit_latency: 1, generation: self.generation })
        }

        fn fetch_hits(&mut self, _core: usize, pc: u32, hits: u32) -> bool {
            if !(pc >> 4..=(pc + 4 * hits - 4) >> 4).all(|line| self.present.contains(&line)) {
                return false;
            }
            self.booked.push((pc, hits));
            true
        }

        fn data_hit(&mut self, core: usize, addr: u32, width: Width, store: Option<u32>, now: u64) -> Option<MemReply> {
            if addr >= 0x800 {
                return None;
            }
            self.data_hits += 1;
            Some(match store {
                None => self.inner.read(core, addr, width, now),
                Some(value) => self.inner.write(core, addr, width, value, now),
            }
            .expect("aligned test accesses"))
        }
    }

    fn state(cpu: &Cpu) -> Vec<u8> {
        let mut w = StateWriter::new(*b"TEST", 1);
        cpu.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn blocks_leave_the_state_phases_leave() {
        let src = "li r1, 7\n
                   loop: addi r2, r2, 3\n mul r3, r2, r1\n xor r4, r3, r2\n sw r4, 0x400(r0)\n
                         lw r5, 0x400(r0)\n add r6, r6, r5\n addi r1, r1, -1\n bnez r1, loop\n
                   halt\n";
        let (stepped, port) = run(src);
        let (mut cpu, inner) = TestPort::load_program(src);
        let mut blocks = BlockPort::new(inner);
        cpu.run_local(&mut blocks, u64::MAX, 1 << 32).unwrap();
        assert!(cpu.is_halted());
        assert_eq!(state(&cpu), state(&stepped));
        assert_eq!(blocks.inner.mem, port.mem);
        assert_eq!(blocks.fetched(), cpu.stats().instructions, "every instruction fetched once");
        assert_eq!(blocks.fetches, 3, "one full fetch per line");
        assert_eq!(blocks.data_hits, 14, "every load and store ran in place");
        // The first pass runs the block at 0 and fills the three lines; the
        // second enters the loop block at 4, probes its three lines and
        // finds them present; passes 3 to 7 run it warm, each booking its
        // eight fetches in one run with no probe and no full fetch.
        assert_eq!(&blocks.booked[..2], [(4, 3), (0x14, 3)], "the first pass books the hits after each fill");
        assert_eq!(&blocks.booked[2..7], [(4, 1), (8, 2), (0x10, 1), (0x14, 3), (0x20, 1)], "the cold pass probes");
        assert_eq!(&blocks.booked[7..12], [(4, 8); 5], "warm passes book one run each");
        assert_eq!(&blocks.booked[12..], [(0x24, 1)], "the halt block probes its line");

        // A limit or a local end inside a block stops it at the same phase,
        // also between a load's or store's fetch and its data access, and
        // the block path resumes from there as the phases do.
        let mut parked = 0;
        for local_end in [0x400, 1 << 32] {
            for limit in 1..110 {
                let what = format!("limit {limit}, local end {local_end:#x}");
                let (mut cpu, inner) = TestPort::load_program(src);
                let mut blocks = BlockPort::new(inner);
                cpu.run_local(&mut blocks, limit, local_end).unwrap();
                let (mut stepped, mut port) = TestPort::load_program(src);
                stepped.run_local(&mut port, limit, local_end).unwrap();
                assert_eq!(state(&cpu), state(&stepped), "{what}");
                if local_end == 1 << 32 && cpu.mid_instruction() {
                    parked += 1;
                }
                cpu.run_local(&mut blocks, u64::MAX, 1 << 32).unwrap();
                stepped.run_local(&mut port, u64::MAX, 1 << 32).unwrap();
                assert!(cpu.is_halted(), "{what}");
                assert_eq!(state(&cpu), state(&stepped), "{what}, resumed");
                assert_eq!(blocks.fetched(), cpu.stats().instructions, "{what}, resumed");
            }
        }
        assert_eq!(parked, 14, "a limit fell between each load's and store's fetch and data phase");
    }

    #[test]
    fn run_local_stops_before_the_first_non_local_access() {
        let (mut cpu, mut port) = TestPort::load_program("nop\n nop\n lw r1, 0x100(r0)\n halt\n");
        cpu.run_local(&mut port, u64::MAX, 0x80).unwrap();
        assert!(cpu.mid_instruction(), "the load at 0x100 is parked, not run");
        assert_eq!(cpu.stats().instructions, 2);
        cpu.run_local(&mut port, u64::MAX, 0x80).unwrap();
        assert_eq!(cpu.stats().instructions, 2, "a non-local next access runs nothing");
        cpu.run_local(&mut port, 4, 1 << 32).unwrap();
        assert_eq!(cpu.stats().instructions, 3, "the limit stops it after the load");
        cpu.run_local(&mut port, u64::MAX, 1 << 32).unwrap();
        assert!(cpu.is_halted());
    }

    #[test]
    fn taken_branch_pays_penalty() {
        let (cpu, _) = run("beq r0, r0, skip\n nop\nskip: halt\n");
        // fetch(1) + penalty(2) for branch, fetch(1) for halt = 4.
        assert_eq!(cpu.time(), 4);
        let (cpu2, _) = run("bne r0, r0, skip\n nop\nskip: halt\n");
        // untaken branch 1 + nop 1 + halt 1 = 3.
        assert_eq!(cpu2.time(), 3);
    }

    #[test]
    fn mul_div_latency() {
        let (cpu, _) = run("mul r1, r0, r0\n halt\n");
        assert_eq!(cpu.time(), 1 + 2 + 1, "fetch + mul_extra + halt");
        let (cpu2, _) = run("div r1, r0, r0\n halt\n");
        assert_eq!(cpu2.time(), 1 + 31 + 1);
        assert_eq!(cpu2.stats().divs, 1);
    }

    #[test]
    fn memory_stall_attribution() {
        let (mut cpu, mut port) = TestPort::load_program("lw r1, 0(r0)\n halt\n");
        port.data_extra = 7;
        loop {
            if cpu.step(&mut port).unwrap() == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(cpu.stats().stall_cycles, 7);
        assert_eq!(cpu.stats().active_cycles, cpu.time() - 7);
    }

    #[test]
    fn halted_core_stays_halted() {
        let (mut cpu, mut port) = TestPort::load_program("halt\n");
        assert_eq!(cpu.step(&mut port).unwrap(), StepOutcome::Halted);
        let t = cpu.time();
        assert_eq!(cpu.step(&mut port).unwrap(), StepOutcome::Halted);
        assert_eq!(cpu.time(), t, "no time passes for a halted core");
    }

    #[test]
    fn add_idle_advances_clock() {
        let mut cpu = Cpu::new(0, CpuConfig::default());
        cpu.add_idle(10);
        assert_eq!(cpu.time(), 10);
        assert_eq!(cpu.stats().idle_cycles, 10);
    }

    #[test]
    fn decode_fault_reports_pc() {
        let (mut cpu, mut port) = TestPort::load_program("nop\n .word 0xF8000000\n");
        cpu.step(&mut port).unwrap();
        match cpu.step(&mut port) {
            Err(CpuError::Decode { pc, word, .. }) => {
                assert_eq!(pc, 4);
                assert_eq!(word, 0xF800_0000);
            }
            other => panic!("expected decode fault, got {other:?}"),
        }
    }

    #[test]
    fn mem_fault_reports_pc() {
        // `li 0x20000` expands to lui+ori, so the faulting lw sits at pc 8.
        let (mut cpu, mut port) = TestPort::load_program("li r1, 0x20000\n lw r2, 0(r1)\n halt\n");
        cpu.step(&mut port).unwrap();
        cpu.step(&mut port).unwrap();
        cpu.step(&mut port).unwrap(); // fetch phase of lw
        let e = cpu.step(&mut port).unwrap_err(); // data phase faults
        assert!(matches!(e, CpuError::Mem { pc: 8, .. }));
        assert!(e.to_string().contains("memory fault"));
    }

    #[test]
    fn reset_clears_state() {
        let (mut cpu, _) = run("li r1, 3\n halt\n");
        cpu.reset(0);
        assert_eq!(cpu.pc(), 0);
        assert_eq!(cpu.time(), 0);
        assert!(!cpu.is_halted());
        assert_eq!(cpu.regs().read(Reg::new(1)), 0);
        assert_eq!(cpu.stats().instructions, 0);
    }

    #[test]
    fn slt_family_through_execution() {
        let (cpu, _) = run(
            "li r1, -5\n li r2, 3\n
             slt  r3, r1, r2\n
             sltu r4, r1, r2\n
             slti r5, r1, 0\n
             sltiu r6, r2, -1\n
             halt\n",
        );
        assert_eq!(cpu.regs().read(Reg::new(3)), 1, "-5 < 3 signed");
        assert_eq!(cpu.regs().read(Reg::new(4)), 0, "big unsigned not < 3");
        assert_eq!(cpu.regs().read(Reg::new(5)), 1);
        assert_eq!(cpu.regs().read(Reg::new(6)), 1, "3 < 0xFFFFFFFF unsigned");
    }

    #[test]
    fn shifts_through_execution() {
        let (cpu, _) = run(
            "li r1, 0x80000000\n li r2, 4\n
             srl r3, r1, r2\n sra r4, r1, r2\n sll r5, r2, r2\n
             srli r6, r1, 31\n srai r7, r1, 31\n slli r8, r2, 2\n
             halt\n",
        );
        assert_eq!(cpu.regs().read(Reg::new(3)), 0x0800_0000);
        assert_eq!(cpu.regs().read(Reg::new(4)), 0xF800_0000);
        assert_eq!(cpu.regs().read(Reg::new(5)), 64);
        assert_eq!(cpu.regs().read(Reg::new(6)), 1);
        assert_eq!(cpu.regs().read(Reg::new(7)), u32::MAX);
        assert_eq!(cpu.regs().read(Reg::new(8)), 16);
    }
}
