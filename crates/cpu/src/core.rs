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
//! Every decoded instruction is lowered once into an [`Op`]: one
//! discriminant per TE32 operation (`add`, `mulh`, `lhu`, `bgeu`, `jalr`,
//! …) with its registers and its immediate already extended.
//! [`Cpu::execute`] is one `match` over ops and the only definition of
//! each instruction's effect; the phase-at-a-time path and warm block
//! entries run it, and each times the phase and books the counters itself.
//!
//! [`Cpu::run_local`] runs private cached text a block at a time: up to 32
//! ops of straight-line code, ending at (and including) the first control
//! transfer or `halt`, or before an undecodable word. A block keeps the
//! bytes it was decoded from and compares them with memory on every entry,
//! so stores over the text and restored checkpoints need no invalidation.
//! The block table is a core's only memo of decoded instructions:
//! [`Cpu::step`] decodes every word it fetches.
//!
//! A cold entry is phase-at-a-time execution: [`Cpu::fetch_phase`] and
//! [`Cpu::data_phase`] under the rule `run_local` applies between phases
//! (local time below the limit, next access below the core-local end),
//! while the PC walks the block's text. Each fetch phase runs the block's
//! op when it fetches the word the block decoded it from, and decodes the
//! fetched word when a store of the entry has rewritten it. Text with no
//! block (outside the private cacheable range, without an I-cache,
//! misaligned or undecodable) runs as a one-instruction cold entry that
//! decodes its word. A cold entry that fetched every instruction of its
//! block records the I-cache's generation ([`Text::generation`]) read at
//! its start. The port changes the generation on every fill and whenever
//! else a line may leave the I-cache, so the mark matches again only if no
//! fetch of the entry missed, and while it does all the block's lines are
//! present.
//!
//! While its mark matches, a block runs warm ([`Cpu::run_decoded`]): every
//! fetch a hit, the core's clock kept in a local and the PC as the index
//! of the op it is at. Loads, stores and `tas` stay inside the block: each one's
//! data phase runs right after its fetch under the same rule; where the
//! rule fails, the block stops with the access parked. A load or store that
//! hits the core's private D-cache runs in place, inlined into the block
//! loop ([`MemoryPort::data_hit`]); every other data access (a miss, shared
//! or MMIO data, `tas`, a write-through store, an access the port declines)
//! goes through the full [`MemoryPort::read`], `write` or `tas`. A store or
//! `tas` over the block's own text ends the block right after it, so the
//! words after it are fetched again.
//!
//! A warm self-loop chains: a block whose last op jumps back to its own
//! start, with the local time still below the limit, runs its next pass
//! inside the same warm entry. The pass needs no text lookup, text compare
//! or generation check, because nothing it would check can have moved: a
//! store over the block's text has already ended the entry, only this core
//! writes its private memory, nothing is fetched inside an entry and data
//! accesses leave the I-cache alone. A warm entry books the clock, the PC
//! and the counters of the ops it retired once, at exit, its chained passes
//! as whole-block counts, and `run_local` books the fetch hits of warm runs
//! of one block in a row (entries, and the passes chained inside them) in
//! one [`MemoryPort::fetch_hits`] call, before any other fetch of the core
//! and before it returns, also with a data fault. Every cycle, counter,
//! cache tag, LRU stamp and access tick ends exactly where phase-at-a-time
//! execution leaves it.
//! [`Cpu::step`] always runs one phase: it is what the shared-phase order
//! and the `temu-des` baseline run, with no block code in its path.

use crate::port::{MemReply, MemoryPort, Text};
use crate::regfile::RegFile;
use crate::stats::CoreStats;
use std::error::Error;
use std::fmt;
use temu_isa::{AluImmOp, AluOp, Cond, DecodeError, Instr, Reg, ShiftOp, Width};
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

/// A TE32 operation: one per opcode, and one per function of the
/// register-register opcode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    Mulh,
    Div,
    Rem,
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    Slli,
    Srli,
    Srai,
    Lui,
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Sb,
    Sh,
    Sw,
    Tas,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Jal,
    Jalr,
    Halt,
}

/// A decoded instruction lowered for [`Cpu::execute`]: its operation, its
/// registers (`r0` where it has none; `r31` for `jal`) and its immediate
/// extended to the 32-bit operand it is — sign- or zero-extended as its
/// operation reads it, `lui`'s shifted into the upper half, and a
/// branch's or `jal`'s offset turned into the byte distance from its PC to
/// its target. The operation names its execute-phase extra from the core's
/// [`CpuConfig`] (`mul_extra`, `div_extra`, or `branch_penalty` once
/// taken) and the [`CoreStats`] counters it books ([`Mix`]). Eight bytes,
/// so a [`Block`] holds 32 ops beside the 128 text bytes they came from in
/// one 448-byte slot; an extra held per op would not fit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Op {
    kind: Kind,
    rd: Reg,
    rs1: Reg,
    rs2: Reg,
    imm: u32,
}

impl Op {
    const NOP: Op = Op { kind: Kind::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, rs2: Reg::ZERO, imm: 0 };

    /// Lowers a decoded instruction (the decoder marks every word load
    /// signed, which is what `lw`'s parked access records).
    fn lower(instr: Instr) -> Op {
        let z = Reg::ZERO;
        let offset = |off: i16| off as i32 as u32;
        // `pc + 4 + 4 * off` as a distance from the PC.
        let target = |off: i32| 4u32.wrapping_add((off as u32).wrapping_mul(4));
        let (kind, rd, rs1, rs2, imm) = match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let kind = match op {
                    AluOp::Add => Kind::Add,
                    AluOp::Sub => Kind::Sub,
                    AluOp::And => Kind::And,
                    AluOp::Or => Kind::Or,
                    AluOp::Xor => Kind::Xor,
                    AluOp::Nor => Kind::Nor,
                    AluOp::Sll => Kind::Sll,
                    AluOp::Srl => Kind::Srl,
                    AluOp::Sra => Kind::Sra,
                    AluOp::Slt => Kind::Slt,
                    AluOp::Sltu => Kind::Sltu,
                    AluOp::Mul => Kind::Mul,
                    AluOp::Mulh => Kind::Mulh,
                    AluOp::Div => Kind::Div,
                    AluOp::Rem => Kind::Rem,
                };
                (kind, rd, rs1, rs2, 0)
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let kind = match op {
                    AluImmOp::Add => Kind::Addi,
                    AluImmOp::And => Kind::Andi,
                    AluImmOp::Or => Kind::Ori,
                    AluImmOp::Xor => Kind::Xori,
                    AluImmOp::Slt => Kind::Slti,
                    AluImmOp::Sltu => Kind::Sltiu,
                };
                (kind, rd, rs1, z, op.expand_imm(imm))
            }
            Instr::ShiftImm { op, rd, rs1, sh } => {
                let kind = match op {
                    ShiftOp::Sll => Kind::Slli,
                    ShiftOp::Srl => Kind::Srli,
                    ShiftOp::Sra => Kind::Srai,
                };
                (kind, rd, rs1, z, u32::from(sh & 31))
            }
            Instr::Lui { rd, imm } => (Kind::Lui, rd, z, z, u32::from(imm) << 16),
            Instr::Load { width, signed, rd, rs1, off } => {
                let kind = match (width, signed) {
                    (Width::Byte, true) => Kind::Lb,
                    (Width::Byte, false) => Kind::Lbu,
                    (Width::Half, true) => Kind::Lh,
                    (Width::Half, false) => Kind::Lhu,
                    (Width::Word, _) => Kind::Lw,
                };
                (kind, rd, rs1, z, offset(off))
            }
            Instr::Store { width, rs2, rs1, off } => {
                let kind = match width {
                    Width::Byte => Kind::Sb,
                    Width::Half => Kind::Sh,
                    Width::Word => Kind::Sw,
                };
                (kind, z, rs1, rs2, offset(off))
            }
            Instr::Tas { rd, rs1, off } => (Kind::Tas, rd, rs1, z, offset(off)),
            Instr::Branch { cond, rs1, rs2, off } => {
                let kind = match cond {
                    Cond::Eq => Kind::Beq,
                    Cond::Ne => Kind::Bne,
                    Cond::Lt => Kind::Blt,
                    Cond::Ge => Kind::Bge,
                    Cond::Ltu => Kind::Bltu,
                    Cond::Geu => Kind::Bgeu,
                };
                (kind, z, rs1, rs2, target(i32::from(off)))
            }
            Instr::Jal { off } => (Kind::Jal, Reg::RA, z, z, target(off)),
            Instr::Jalr { rd, rs1, off } => (Kind::Jalr, rd, rs1, z, offset(off)),
            Instr::Halt => (Kind::Halt, z, z, z, 0),
        };
        Op { kind, rd, rs1, rs2, imm }
    }
}

/// The instruction-mix counters of [`CoreStats`] that retired ops book:
/// loads (`tas` among them) and stores in their data phase, branches
/// (jumps among them), multiplies and divides in their fetch phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Mix {
    loads: u8,
    stores: u8,
    branches: u8,
    muls: u8,
    divs: u8,
}

impl Mix {
    /// The counters `ops`, all retired, book (at most 255 of each).
    fn of(ops: &[Op]) -> Mix {
        let mut mix = Mix::default();
        for op in ops {
            let counter = match op.kind {
                Kind::Lb | Kind::Lbu | Kind::Lh | Kind::Lhu | Kind::Lw | Kind::Tas => &mut mix.loads,
                Kind::Sb | Kind::Sh | Kind::Sw => &mut mix.stores,
                Kind::Beq | Kind::Bne | Kind::Blt | Kind::Bge | Kind::Bltu | Kind::Bgeu | Kind::Jal | Kind::Jalr => {
                    &mut mix.branches
                }
                Kind::Mul | Kind::Mulh => &mut mix.muls,
                Kind::Div | Kind::Rem => &mut mix.divs,
                _ => continue,
            };
            *counter += 1;
        }
        mix
    }

    /// Books the counters of `runs` runs of the ops.
    fn book(self, stats: &mut CoreStats, runs: u64) {
        stats.loads += u64::from(self.loads) * runs;
        stats.stores += u64::from(self.stores) * runs;
        stats.branches += u64::from(self.branches) * runs;
        stats.muls += u64::from(self.muls) * runs;
        stats.divs += u64::from(self.divs) * runs;
    }
}

/// How an op's fetch/execute phase ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Flow {
    /// Retired; the next instruction follows (also after `halt`, which
    /// sets the halt flag).
    Next,
    /// A taken branch or a jump: retired, and continues at the target.
    Jump(u32),
    /// A load, store or `tas`, whose data access is its next phase.
    Data(DataOp),
}

/// The fetch hits of warm block runs still to book: `runs` runs in a row of
/// the block at `pc`, each of which fetched `fetches` instructions. A run
/// is a warm entry, or one pass of a self-loop chained inside an entry
/// ([`Cpu::run_decoded`]). [`Cpu::run_local`] books them in one
/// [`MemoryPort::fetch_hits`] call when other runs follow, before any
/// other fetch of the core and before it returns, so the I-cache is never
/// seen with runs unbooked.
#[derive(Clone, Copy, Debug, Default)]
struct WarmRuns {
    pc: u32,
    fetches: u32,
    runs: u32,
}

impl WarmRuns {
    /// Adds `runs` runs of the block at `pc` that each fetched `fetches`
    /// instructions; the runs before them are booked unless they repeat
    /// them.
    fn add<P: MemoryPort + ?Sized>(&mut self, port: &mut P, core: usize, pc: u32, fetches: u32, runs: u32) {
        match self.runs.checked_add(runs) {
            Some(total) if self.runs > 0 && (self.pc, self.fetches) == (pc, fetches) => self.runs = total,
            _ => {
                self.book(port, core);
                *self = WarmRuns { pc, fetches, runs };
            }
        }
    }

    fn book<P: MemoryPort + ?Sized>(&mut self, port: &mut P, core: usize) {
        if self.runs > 0 {
            let present = port.fetch_hits(core, self.pc, self.fetches, self.runs);
            debug_assert!(present, "a warm block's lines stay present until its runs are booked");
            self.runs = 0;
        }
    }
}

/// Why a block entry stopped ([`Cpu::run_decoded`]).
enum Exit {
    /// At the end of the block, at the limit, or after a store over the
    /// block's text.
    Ran,
    /// After a taken branch or a jump to the target.
    Jumped(u32),
    /// With the data access of the instruction at the PC parked for later.
    Parked(DataOp, u32),
    /// The data access of the instruction at the PC faulted.
    DataFault(DataOp, u32, MemError),
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
/// undecodable word, or at [`BLOCK_LEN`] instructions, lowered to ops.
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
    /// The counters a run of all `len` ops books.
    mix: Mix,
    /// The I-cache generation ([`Text::generation`]) at the start of an
    /// entry that fetched every instruction: while the I-cache reports it,
    /// all the block's lines are present.
    warm: Option<u64>,
    /// The text the block was decoded from; its first `4 * len` bytes count.
    bytes: [u8; BLOCK_BYTES as usize],
    ops: [Op; BLOCK_LEN],
}

impl Block {
    const EMPTY: Block = Block {
        pc: 0,
        len: 0,
        mix: Mix { loads: 0, stores: 0, branches: 0, muls: 0, divs: 0 },
        warm: None,
        bytes: [0; BLOCK_BYTES as usize],
        ops: [Op::NOP; BLOCK_LEN],
    };

    /// Decodes the block at `pc` from `text`, the text from `pc` on; kept
    /// out of line so the cache's hit path stays small.
    #[cold]
    #[inline(never)]
    fn decode(pc: u32, text: &[u8]) -> Block {
        let mut block = Block { pc, ..Block::EMPTY };
        for (word, bytes) in text.chunks_exact(4).take(BLOCK_LEN).enumerate() {
            let Ok(instr) = Instr::decode(u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"))) else { break };
            block.ops[word] = Op::lower(instr);
            block.bytes[4 * word..4 * word + 4].copy_from_slice(bytes);
            block.len = word + 1;
            if instr.is_control() || instr == Instr::Halt {
                break;
            }
        }
        block.mix = Mix::of(&block.ops[..block.len]);
        block
    }

    /// The word the block decoded as instruction `i`, and its op.
    fn word_op(&self, i: usize) -> Option<(u32, Op)> {
        (i < self.len).then(|| {
            let bytes = self.bytes[4 * i..4 * i + 4].try_into().expect("4-byte chunk");
            (u32::from_le_bytes(bytes), self.ops[i])
        })
    }
}

/// Direct-mapped cache of [`Block`]s by start PC. A block is used only when
/// the text at its PC still holds the bytes it was decoded from (one slice
/// compare per entry), so stores over the text and restored checkpoints
/// need no invalidation and the cache no checkpoint state.
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
        self.fetch_phase(port, None)
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
    /// Fetch phases run a block at a time where the port offers the text
    /// ([`MemoryPort::text`]), else one at a time: each phase of a block
    /// after its first — a fetch, or the data phase of a load, store or
    /// `tas` — runs under the same `limit` and `local_end` rule. A cold
    /// block entry is those phases themselves, running the block's ops
    /// where the fetched words are the block's. A warm one runs its D-cache
    /// hits inline through [`MemoryPort::data_hit`] and, when the block
    /// jumps back to its own start below `limit`, runs on into the next
    /// pass without leaving the entry. The fetch hits of warm runs of one
    /// block in a row, entries and chained passes alike, are booked in one
    /// [`MemoryPort::fetch_hits`] call, before any other fetch and before
    /// the call returns. The result — state, counters and cache — is the
    /// one phase-at-a-time execution gives.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] exactly as [`Cpu::step`] does; the core is left
    /// at the faulting phase, with its local time at the phase's start.
    pub fn run_local<P: MemoryPort + ?Sized>(&mut self, port: &mut P, limit: u64, local_end: u64) -> Result<(), CpuError> {
        let mut warm = WarmRuns::default();
        let result = loop {
            if self.halted || self.time >= limit {
                break Ok(());
            }
            let phase = match self.pending {
                Some((op, pc)) if u64::from(op.addr()) < local_end => {
                    self.pending = None;
                    self.data_phase(port, op, pc).map(drop)
                }
                None if u64::from(self.pc) < local_end => self.run_block(port, limit, local_end, &mut warm),
                _ => break Ok(()),
            };
            if let Err(err) = phase {
                break Err(err);
            }
        };
        warm.book(port, self.id);
        result
    }

    fn data_phase<P: MemoryPort + ?Sized>(&mut self, port: &mut P, op: DataOp, pc: u32) -> Result<StepOutcome, CpuError> {
        let reply = self.access(port, op, self.time).map_err(|err| {
            self.pending = Some((op, pc)); // stay at the faulting phase
            CpuError::Mem { pc, err }
        })?;
        self.finish(op, reply.value);
        match op {
            DataOp::Store { .. } => self.stats.stores += 1,
            DataOp::Load { .. } | DataOp::Tas { .. } => self.stats.loads += 1,
        }
        self.stats.stall_cycles += reply.stall;
        self.stats.active_cycles += reply.done_at - self.time - reply.stall;
        self.stats.instructions += 1;
        self.time = reply.done_at;
        self.pc = pc.wrapping_add(4);
        Ok(StepOutcome::Executed)
    }

    /// The full access of `op`, starting at `now`.
    fn access<P: MemoryPort + ?Sized>(&self, port: &mut P, op: DataOp, now: u64) -> Result<MemReply, MemError> {
        match op {
            DataOp::Load { addr, width, .. } => port.read(self.id, addr, width, now),
            DataOp::Store { addr, width, value } => port.write(self.id, addr, width, value, now),
            DataOp::Tas { addr, .. } => port.tas(self.id, addr, now),
        }
    }

    /// Writes the result of a load or `tas` whose access returned `value`.
    #[inline(always)]
    fn finish(&mut self, op: DataOp, value: u32) {
        match op {
            DataOp::Load { rd, width, signed, .. } => self.regs.write(rd, extend(value, width, signed)),
            DataOp::Tas { rd, .. } => self.regs.write(rd, value),
            DataOp::Store { .. } => {}
        }
    }

    /// The fetch/execute phase of the instruction at the PC. `predecoded`
    /// is a block's word at the PC and its op, which the phase runs when it
    /// fetches that word; any other word it decodes, as a store may have
    /// rewritten the text since the block was decoded.
    fn fetch_phase<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        predecoded: Option<(u32, Op)>,
    ) -> Result<StepOutcome, CpuError> {
        let (pc, t0) = (self.pc, self.time);
        let fetch = port.fetch(self.id, pc, t0).map_err(|err| CpuError::Mem { pc, err })?;
        let word = fetch.value;
        let op = match predecoded {
            Some((decoded, op)) if decoded == word => op,
            _ => Instr::decode(word).map(Op::lower).map_err(|err| CpuError::Decode { pc, word, err })?,
        };
        let mut t = fetch.done_at;
        let next = match self.execute(op, pc, &mut t) {
            Flow::Next => Some(pc.wrapping_add(4)),
            Flow::Jump(target) => {
                self.stats.taken_branches += 1;
                Some(target)
            }
            Flow::Data(data) => {
                self.pending = Some((data, pc));
                None
            }
        };
        if let Some(next) = next {
            self.pc = next;
            self.stats.instructions += 1;
            Mix::of(&[op]).book(&mut self.stats, 1);
        }
        self.stats.stall_cycles += fetch.stall;
        self.stats.active_cycles += t - t0 - fetch.stall;
        self.time = t;
        Ok(if self.halted { StepOutcome::Halted } else { StepOutcome::Executed })
    }

    /// Runs the block of straight-line code at the PC: warm through
    /// [`Cpu::run_decoded`] while its mark matches, else as a cold entry
    /// ([`Cpu::run_phases`]). Text with no block (no [`MemoryPort::text`],
    /// or an undecodable first word) runs as a one-instruction cold entry.
    ///
    /// After a cold entry that fetched every instruction of the block, the
    /// block records the I-cache generation ([`Text::generation`]) read at
    /// the entry's start. A fill during the entry moves the generation, so
    /// only an entry whose fetches all hit leaves a mark that can match;
    /// while the I-cache reports it, all the block's lines are present and
    /// the block runs warm.
    fn run_block<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        limit: u64,
        local_end: u64,
        warm: &mut WarmRuns,
    ) -> Result<(), CpuError> {
        let Some(text) = port.text(self.id, self.pc, BLOCK_BYTES) else {
            return self.run_phases(port, &Block::EMPTY, limit, local_end, warm).map(drop);
        };
        let Text { hit_latency, generation, .. } = text;
        // The table moves out while the block runs, so the block is
        // borrowed from it rather than copied.
        let mut blocks = std::mem::take(&mut self.blocks);
        let block = blocks.get(self.pc, text.bytes);
        let result = if block.warm == Some(generation) {
            self.run_decoded(port, block, u64::from(hit_latency), limit, local_end, warm)
        } else {
            self.run_phases(port, block, limit, local_end, warm).map(|whole| {
                if whole {
                    block.warm = Some(generation);
                }
            })
        };
        self.blocks = blocks;
        result
    }

    /// A cold entry of `block`, which starts at the PC: books the `warm`
    /// runs before it, then runs the block's instructions one phase at a
    /// time through [`Cpu::fetch_phase`], handed the block's word and op at
    /// each index, and [`Cpu::data_phase`], under [`Cpu::run_local`]'s rule
    /// between phases, while the PC walks them in order. An empty block
    /// (text with no block, or an undecodable first word) runs the word at
    /// the PC alone. Returns whether it fetched all the block's
    /// instructions, which an empty block never does.
    fn run_phases<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        block: &Block,
        limit: u64,
        local_end: u64,
        warm: &mut WarmRuns,
    ) -> Result<bool, CpuError> {
        warm.book(port, self.id);
        let len = block.len.max(1);
        let start = u64::from(self.pc);
        let mut fetched = 0;
        loop {
            self.fetch_phase(port, block.word_op(fetched))?;
            fetched += 1;
            if let Some((op, pc)) = self.pending {
                if self.time >= limit || u64::from(op.addr()) >= local_end {
                    break;
                }
                self.pending = None;
                self.data_phase(port, op, pc)?;
            }
            let next = start + 4 * fetched as u64;
            if fetched == len || self.halted || self.time >= limit || u64::from(self.pc) != next || next >= local_end {
                break;
            }
        }
        Ok(fetched == block.len)
    }

    /// A warm entry of `block`, which starts at the PC: every fetch is a
    /// hit taking `hit_latency` cycles, and the entry adds its fetches to
    /// the `warm` runs that [`Cpu::run_local`] books. Each op runs through
    /// [`Cpu::execute`]; a memory instruction's data phase runs in place
    /// after its fetch, a private D-cache hit inline without a full access
    /// ([`MemoryPort::data_hit`]). A store or `tas` over the block's own
    /// text ends the block.
    ///
    /// A self-loop chains: when the block's last op jumps back to its own
    /// start with the local time still below `limit`, the next pass runs
    /// on inside the entry, with no [`MemoryPort::text`], table lookup,
    /// text compare or generation check. None is needed: a store over the
    /// block's text has ended the entry, only this core writes its private
    /// memory, nothing is fetched inside an entry, and data accesses leave
    /// the I-cache alone, so `run_local` would find the same block, still
    /// warm, at the same start, which lies below `local_end`.
    ///
    /// The entry keeps the local clock and the stall cycles in locals and
    /// the PC as the index of the op it is at; `local_end` is checked
    /// against the block's text once, at entry. The ops up to each data
    /// phase run in an inner loop with no call, and the function stays out
    /// of line, so the clock and the index stay in registers. At exit the
    /// entry books the clock, the PC and the counters of the ops it
    /// retired at once: the chained passes' whole-block counts (their
    /// instructions, taken branches and the block's [`Mix`] per pass, and
    /// their fetches as runs of the block), then the last pass's: its
    /// number of ops, a taken branch, and their [`Mix`], the block's own
    /// when it retired them all, with the cycles of the whole entry.
    #[inline(never)]
    fn run_decoded<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        block: &Block,
        hit_latency: u64,
        limit: u64,
        local_end: u64,
        warm: &mut WarmRuns,
    ) -> Result<(), CpuError> {
        let start = block.pc;
        let text_end = u64::from(start) + 4 * block.len as u64;
        // `run_local` checked the first fetch against `local_end`; these
        // ops lie below it.
        let ops = &block.ops[..block.len.min((local_end - u64::from(start)).div_ceil(4) as usize)];
        let t0 = self.time;
        let (mut t, mut stall) = (t0, 0);
        // Whole passes of a self-loop before the one at `fetched`.
        let mut passes = 0u32;
        let mut fetched = 0;
        let exit = 'entry: loop {
            // The ops up to the next data phase, which run on registers.
            let (data, pc) = loop {
                let op = ops[fetched];
                let pc = start + 4 * fetched as u32;
                t += hit_latency;
                fetched += 1;
                match self.execute(op, pc, &mut t) {
                    Flow::Next if fetched < ops.len() && t < limit => {}
                    Flow::Next => break 'entry Exit::Ran,
                    // A jump ends its block, so this pass ran every op.
                    Flow::Jump(target) if target == start && t < limit && passes < u32::MAX => {
                        passes += 1;
                        fetched = 0;
                    }
                    Flow::Jump(target) => break 'entry Exit::Jumped(target),
                    Flow::Data(data) => break (data, pc),
                }
            };
            if t >= limit || u64::from(data.addr()) >= local_end {
                break Exit::Parked(data, pc);
            }
            match self.block_data_phase(port, data, t) {
                Ok(reply) => {
                    stall += reply.stall;
                    t = reply.done_at;
                }
                Err(err) => break Exit::DataFault(data, pc, err),
            }
            if data.writes_into(u64::from(start), text_end) || fetched == ops.len() || t >= limit {
                break Exit::Ran;
            }
        };
        let (retired, jump, fault) = match exit {
            Exit::Ran => (fetched, None, None),
            Exit::Jumped(target) => (fetched, Some(target), None),
            Exit::Parked(data, pc) => {
                self.pending = Some((data, pc));
                (fetched - 1, None, None)
            }
            Exit::DataFault(data, pc, err) => {
                self.pending = Some((data, pc)); // stay at the faulting phase
                (fetched - 1, None, Some(CpuError::Mem { pc, err }))
            }
        };
        self.time = t;
        self.pc = jump.unwrap_or(start + 4 * retired as u32);
        let whole = u64::from(passes);
        let stats = &mut self.stats;
        stats.instructions += whole * block.len as u64 + retired as u64;
        stats.stall_cycles += stall;
        stats.active_cycles += t - t0 - stall;
        stats.taken_branches += whole + u64::from(jump.is_some());
        block.mix.book(stats, whole);
        if retired == block.len { block.mix } else { Mix::of(&block.ops[..retired]) }.book(stats, 1);
        if passes > 0 {
            warm.add(port, self.id, start, block.len as u32, passes);
        }
        warm.add(port, self.id, start, fetched as u32, 1);
        fault.map_or(Ok(()), Err)
    }

    /// The data phase of a block's memory instruction, starting at `now`:
    /// in place when the port performs it as a D-cache hit, else through
    /// the full access ([`Cpu::access`]). Writes a load's result and
    /// returns the reply; the block books the counters.
    #[inline(always)]
    fn block_data_phase<P: MemoryPort + ?Sized>(&mut self, port: &mut P, op: DataOp, now: u64) -> Result<MemReply, MemError> {
        let hit = match op {
            DataOp::Load { addr, width, .. } => port.data_hit(self.id, addr, width, None, now),
            DataOp::Store { addr, width, value } => port.data_hit(self.id, addr, width, Some(value), now),
            DataOp::Tas { .. } => None,
        };
        let reply = match hit {
            Some(reply) => reply,
            None => self.access(port, op, now)?,
        };
        self.finish(op, reply.value);
        Ok(reply)
    }

    /// Executes `op`, fetched from `pc`, in the phase whose clock is `t`:
    /// writes its result register (and, for `halt`, the halt flag), adds
    /// the execute-phase extra its operation takes to `t` and returns how
    /// the phase ends. The one definition of every instruction's effect,
    /// run by the phases ([`Cpu::step`] and cold block entries) and by warm
    /// block entries alike, which time the rest of the phase and book its
    /// counters: a phase per phase, a warm entry once per entry.
    #[inline(always)]
    fn execute(&mut self, op: Op, pc: u32, t: &mut u64) -> Flow {
        let Op { kind, rd, rs1, rs2, imm } = op;
        let (a, b) = (self.regs.read(rs1), self.regs.read(rs2));
        let CpuConfig { branch_penalty, mul_extra, div_extra } = self.cfg;
        let addr = || a.wrapping_add(imm);
        let load = |width, signed| Flow::Data(DataOp::Load { rd, addr: addr(), width, signed });
        let store = |width| Flow::Data(DataOp::Store { addr: addr(), width, value: b });
        let jump = |t: &mut u64, target| {
            *t += u64::from(branch_penalty);
            Flow::Jump(target)
        };
        let value = match kind {
            Kind::Add => AluOp::Add.eval(a, b),
            Kind::Sub => AluOp::Sub.eval(a, b),
            Kind::And => AluOp::And.eval(a, b),
            Kind::Or => AluOp::Or.eval(a, b),
            Kind::Xor => AluOp::Xor.eval(a, b),
            Kind::Nor => AluOp::Nor.eval(a, b),
            Kind::Sll => AluOp::Sll.eval(a, b),
            Kind::Srl => AluOp::Srl.eval(a, b),
            Kind::Sra => AluOp::Sra.eval(a, b),
            Kind::Slt => AluOp::Slt.eval(a, b),
            Kind::Sltu => AluOp::Sltu.eval(a, b),
            Kind::Mul => {
                *t += u64::from(mul_extra);
                AluOp::Mul.eval(a, b)
            }
            Kind::Mulh => {
                *t += u64::from(mul_extra);
                AluOp::Mulh.eval(a, b)
            }
            Kind::Div => {
                *t += u64::from(div_extra);
                AluOp::Div.eval(a, b)
            }
            Kind::Rem => {
                *t += u64::from(div_extra);
                AluOp::Rem.eval(a, b)
            }
            Kind::Addi => AluOp::Add.eval(a, imm),
            Kind::Andi => AluOp::And.eval(a, imm),
            Kind::Ori => AluOp::Or.eval(a, imm),
            Kind::Xori => AluOp::Xor.eval(a, imm),
            Kind::Slti => AluOp::Slt.eval(a, imm),
            Kind::Sltiu => AluOp::Sltu.eval(a, imm),
            Kind::Slli => AluOp::Sll.eval(a, imm),
            Kind::Srli => AluOp::Srl.eval(a, imm),
            Kind::Srai => AluOp::Sra.eval(a, imm),
            Kind::Lui => imm,
            Kind::Lb => return load(Width::Byte, true),
            Kind::Lbu => return load(Width::Byte, false),
            Kind::Lh => return load(Width::Half, true),
            Kind::Lhu => return load(Width::Half, false),
            Kind::Lw => return load(Width::Word, true),
            Kind::Sb => return store(Width::Byte),
            Kind::Sh => return store(Width::Half),
            Kind::Sw => return store(Width::Word),
            Kind::Tas => return Flow::Data(DataOp::Tas { rd, addr: addr() }),
            Kind::Beq if Cond::Eq.eval(a, b) => return jump(t, pc.wrapping_add(imm)),
            Kind::Bne if Cond::Ne.eval(a, b) => return jump(t, pc.wrapping_add(imm)),
            Kind::Blt if Cond::Lt.eval(a, b) => return jump(t, pc.wrapping_add(imm)),
            Kind::Bge if Cond::Ge.eval(a, b) => return jump(t, pc.wrapping_add(imm)),
            Kind::Bltu if Cond::Ltu.eval(a, b) => return jump(t, pc.wrapping_add(imm)),
            Kind::Bgeu if Cond::Geu.eval(a, b) => return jump(t, pc.wrapping_add(imm)),
            Kind::Beq | Kind::Bne | Kind::Blt | Kind::Bge | Kind::Bltu | Kind::Bgeu => return Flow::Next,
            Kind::Jal => {
                self.regs.write(rd, pc.wrapping_add(4));
                return jump(t, pc.wrapping_add(imm));
            }
            Kind::Jalr => {
                // The target was read before the link is written: `rd` may be `rs1`.
                self.regs.write(rd, pc.wrapping_add(4));
                return jump(t, addr() & !3);
            }
            Kind::Halt => {
                self.halted = true;
                return Flow::Next;
            }
        };
        self.regs.write(rd, value);
        Flow::Next
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
    /// and only that fill moves the generation. The port counts the full
    /// fetches, logs every booking of fetch hits as `(first pc, hits per
    /// run, runs)` and counts the data hits.
    struct BlockPort {
        inner: TestPort,
        present: Vec<u32>,
        generation: u64,
        fetches: u64,
        booked: Vec<(u32, u32, u32)>,
        data_hits: u64,
    }

    impl BlockPort {
        fn new(inner: TestPort) -> BlockPort {
            BlockPort { inner, present: Vec::new(), generation: 0, fetches: 0, booked: Vec::new(), data_hits: 0 }
        }

        /// Instructions fetched, by either means.
        fn fetched(&self) -> u64 {
            self.fetches + self.booked.iter().map(|&(_, hits, runs)| u64::from(hits * runs)).sum::<u64>()
        }
    }

    impl MemoryPort for BlockPort {
        fn fetch(&mut self, core: usize, pc: u32, now: u64) -> Result<MemReply, MemError> {
            self.fetches += 1;
            let line = pc >> 4;
            if !self.present.contains(&line) {
                self.present.push(line);
                self.generation += 1;
            }
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
            Some(Text { bytes: self.inner.mem.slice(pc, len), hit_latency: 1, generation: self.generation })
        }

        fn fetch_hits(&mut self, _core: usize, pc: u32, hits: u32, runs: u32) -> bool {
            if !(pc >> 4..=(pc + 4 * hits - 4) >> 4).all(|line| self.present.contains(&line)) {
                return false;
            }
            self.booked.push((pc, hits, runs));
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
        assert_eq!(blocks.data_hits, 10, "every warm load and store ran in place");
        // The first pass runs the block at 0 cold and fills the three
        // lines; the second enters the loop block at 4 cold, fetching its
        // eight words with every line present. Both take the full `read`
        // and `write`, as the phases do. Passes 3 to 7 run it warm with no
        // full fetch, their loads and stores in place, and their five runs
        // of eight fetches are booked at once before the halt block runs
        // cold.
        assert_eq!(blocks.fetches, 9 + 8 + 1, "cold entries fetch every word");
        assert_eq!(blocks.booked, [(4, 8, 5)], "warm passes in a row book at once");

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

    /// Where an opcode case leaves its result: a register, or the data word
    /// at 0x900.
    #[derive(Clone, Copy, Debug)]
    enum Out {
        Reg(u8),
        Word,
    }

    /// The end of a run of an opcode case: its result, the PC, the local
    /// time and the ten [`CoreStats`] counters in declaration order.
    fn observe(cpu: &Cpu, mem: &MemArray, out: Out) -> [u64; 13] {
        let result = match out {
            Out::Reg(r) => cpu.regs().read(Reg::new(r)),
            Out::Word => mem.read(0x900, Width::Word).unwrap(),
        };
        let s = cpu.stats();
        [
            u64::from(result),
            u64::from(cpu.pc()),
            cpu.time(),
            s.instructions,
            s.active_cycles,
            s.stall_cycles,
            s.idle_cycles,
            s.loads,
            s.stores,
            s.branches,
            s.taken_branches,
            s.muls,
            s.divs,
        ]
    }

    /// Every TE32 operation in a short program that halts, with its data
    /// word at 0x900 (`data`, followed by `end`) behind 3-cycle data
    /// accesses that [`BlockPort`] does not take in place: the program
    /// runs through [`Cpu::step`] on a [`TestPort`], and through
    /// [`Cpu::run_local`] on a [`BlockPort`] three times from a reset core
    /// and a reloaded image, the first time cold with its lines filling,
    /// the second cold on present lines and the third warm. All three end
    /// at the pinned result, PC, time and counters (`observe`).
    #[test]
    fn every_operation_steps_and_runs_cold_and_warm_alike() {
        let alu = |op: &str, a: i64, b: i64| format!("li r1, {a}\n li r2, {b}\n {op} r3, r1, r2\n halt");
        let imm = |op: &str, a: i64, imm: i64| format!("li r1, {a}\n {op} r3, r1, {imm}\n halt");
        let branch = |op: &str, a: i64, b: i64| format!("li r1, {a}\n li r2, {b}\n {op} r1, r2, skip\n li r3, 1\nskip: halt");
        let cases: Vec<(String, Out, [u64; 13])> = vec![
            (alu("add", 7, -3), Out::Reg(3), [4, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("sub", 7, 12), Out::Reg(3), [4294967291, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("and", 0xF0F0, 0xFF00), Out::Reg(3), [61440, 24, 6, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("or", 0xF0F0, 0xFF00), Out::Reg(3), [65520, 24, 6, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("xor", 0xF0F0, 0xFF00), Out::Reg(3), [4080, 24, 6, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("nor", 0xF0F0, 0xFF00), Out::Reg(3), [4294901775, 24, 6, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("sll", 0x1234, 36), Out::Reg(3), [74560, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("srl", 0x8000_0000, 33), Out::Reg(3), [1073741824, 20, 5, 5, 5, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("sra", 0x8000_0000, 4), Out::Reg(3), [4160749568, 20, 5, 5, 5, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("slt", -5, 3), Out::Reg(3), [1, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("sltu", -5, 3), Out::Reg(3), [0, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (alu("mul", -7, 6), Out::Reg(3), [4294967254, 16, 6, 4, 6, 0, 0, 0, 0, 0, 0, 1, 0]),
            (alu("mulh", 0x4000_0000, -8), Out::Reg(3), [4294967294, 20, 7, 5, 7, 0, 0, 0, 0, 0, 0, 1, 0]),
            (alu("div", -7, 2), Out::Reg(3), [4294967293, 16, 35, 4, 35, 0, 0, 0, 0, 0, 0, 0, 1]),
            (alu("rem", -7, 2), Out::Reg(3), [4294967295, 16, 35, 4, 35, 0, 0, 0, 0, 0, 0, 0, 1]),
            (alu("div", 5, 0), Out::Reg(3), [4294967295, 16, 35, 4, 35, 0, 0, 0, 0, 0, 0, 0, 1]),
            (alu("rem", 5, 0), Out::Reg(3), [5, 16, 35, 4, 35, 0, 0, 0, 0, 0, 0, 0, 1]),
            (alu("div", 0x8000_0000, -1), Out::Reg(3), [2147483648, 20, 36, 5, 36, 0, 0, 0, 0, 0, 0, 0, 1]),
            (alu("rem", 0x8000_0000, -1), Out::Reg(3), [0, 20, 36, 5, 36, 0, 0, 0, 0, 0, 0, 0, 1]),
            (imm("addi", 7, -9), Out::Reg(3), [4294967294, 12, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("andi", -1, 0xFF0F), Out::Reg(3), [65295, 12, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("ori", 0x10000, -1), Out::Reg(3), [131071, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("xori", 0x0F0F_0F0F, 0x8001), Out::Reg(3), [252677902, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("slti", -2, -1), Out::Reg(3), [1, 12, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("sltiu", 5, -1), Out::Reg(3), [1, 12, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("slli", 0x8000_0003, 31), Out::Reg(3), [2147483648, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("srli", 0x8000_0003, 1), Out::Reg(3), [1073741825, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (imm("srai", 0x8000_0003, 3), Out::Reg(3), [4026531840, 16, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
            (String::from("lui r3, 0xBEEF\n halt"), Out::Reg(3), [3203334144, 8, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0]),
            (String::from("la r1, data\n lb r3, 3(r1)\n halt"), Out::Reg(3), [4294967168, 16, 8, 4, 5, 3, 0, 1, 0, 0, 0, 0, 0]),
            (String::from("la r1, data\n lbu r3, 1(r1)\n halt"), Out::Reg(3), [255, 16, 8, 4, 5, 3, 0, 1, 0, 0, 0, 0, 0]),
            (String::from("la r1, data\n lh r3, 2(r1)\n halt"), Out::Reg(3), [4294934657, 16, 8, 4, 5, 3, 0, 1, 0, 0, 0, 0, 0]),
            (String::from("la r1, data\n lhu r3, 2(r1)\n halt"), Out::Reg(3), [32897, 16, 8, 4, 5, 3, 0, 1, 0, 0, 0, 0, 0]),
            (String::from("la r1, end\n lw r3, -4(r1)\n halt"), Out::Reg(3), [2156003200, 16, 8, 4, 5, 3, 0, 1, 0, 0, 0, 0, 0]),
            (String::from("la r1, data\n li r2, 0x12345678\n sb r2, 1(r1)\n halt"), Out::Word, [2155968640, 24, 10, 6, 7, 3, 0, 0, 1, 0, 0, 0, 0]),
            (String::from("la r1, data\n li r2, 0x12345678\n sh r2, 2(r1)\n halt"), Out::Word, [1450770304, 24, 10, 6, 7, 3, 0, 0, 1, 0, 0, 0, 0]),
            (String::from("la r1, end\n li r2, 0x12345678\n sw r2, -4(r1)\n halt"), Out::Word, [305419896, 24, 10, 6, 7, 3, 0, 0, 1, 0, 0, 0, 0]),
            (String::from("la r1, data\n tas r3, 0(r1)\n halt"), Out::Reg(3), [2156003200, 16, 8, 4, 5, 3, 0, 1, 0, 0, 0, 0, 0]),
            (String::from("la r1, data\n tas r3, 0(r1)\n halt"), Out::Word, [1, 16, 8, 4, 5, 3, 0, 1, 0, 0, 0, 0, 0]),
            (branch("beq", 5, 5), Out::Reg(3), [0, 20, 6, 4, 6, 0, 0, 0, 0, 1, 1, 0, 0]),
            (branch("beq", 5, 6), Out::Reg(3), [1, 20, 5, 5, 5, 0, 0, 0, 0, 1, 0, 0, 0]),
            (branch("bne", 5, 6), Out::Reg(3), [0, 20, 6, 4, 6, 0, 0, 0, 0, 1, 1, 0, 0]),
            (branch("bne", 5, 5), Out::Reg(3), [1, 20, 5, 5, 5, 0, 0, 0, 0, 1, 0, 0, 0]),
            (branch("blt", -1, 0), Out::Reg(3), [0, 20, 6, 4, 6, 0, 0, 0, 0, 1, 1, 0, 0]),
            (branch("blt", 0, -1), Out::Reg(3), [1, 20, 5, 5, 5, 0, 0, 0, 0, 1, 0, 0, 0]),
            (branch("bge", 0, -1), Out::Reg(3), [0, 20, 6, 4, 6, 0, 0, 0, 0, 1, 1, 0, 0]),
            (branch("bge", -1, 0), Out::Reg(3), [1, 20, 5, 5, 5, 0, 0, 0, 0, 1, 0, 0, 0]),
            (branch("bltu", 0, -1), Out::Reg(3), [0, 20, 6, 4, 6, 0, 0, 0, 0, 1, 1, 0, 0]),
            (branch("bltu", -1, 0), Out::Reg(3), [1, 20, 5, 5, 5, 0, 0, 0, 0, 1, 0, 0, 0]),
            (branch("bgeu", -1, 0), Out::Reg(3), [0, 20, 6, 4, 6, 0, 0, 0, 0, 1, 1, 0, 0]),
            (branch("bgeu", 0, -1), Out::Reg(3), [1, 20, 5, 5, 5, 0, 0, 0, 0, 1, 0, 0, 0]),
            (String::from("li r1, 3\nloop: addi r3, r3, 5\n addi r1, r1, -1\n bnez r1, loop\n halt"), Out::Reg(3), [15, 20, 15, 11, 15, 0, 0, 0, 0, 3, 2, 0, 0]),
            (String::from("jal f\n li r3, 1\n halt\nf: halt"), Out::Reg(31), [4, 16, 4, 2, 4, 0, 0, 0, 0, 1, 1, 0, 0]),
            (String::from("la r1, f\n jalr r1, r1, 0\n li r3, 1\n halt\nf: halt"), Out::Reg(1), [12, 24, 6, 4, 6, 0, 0, 0, 0, 1, 1, 0, 0]),
            (String::from("halt"), Out::Reg(0), [0, 4, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for (body, out, want) in cases {
            let src = format!("{body}\n .org 0x900\ndata: .word 0x8081FF80\nend: .word 0\n");
            let image = assemble(&src).expect("case assembles");
            let (mut stepped, mut port) = TestPort::load_program(&src);
            port.data_extra = 3;
            while stepped.step(&mut port).expect("no faults") == StepOutcome::Executed {}
            assert_eq!(observe(&stepped, &port.mem, out), want, "{body}: stepped");

            let (mut cpu, mut inner) = TestPort::load_program(&src);
            inner.data_extra = 3;
            let mut blocks = BlockPort::new(inner);
            for entry in ["cold, filling", "cold", "warm"] {
                blocks.inner.mem.load(image.base, &image.to_bytes()).unwrap();
                cpu.reset(image.entry);
                let (fetches, booked) = (blocks.fetches, blocks.booked.len());
                cpu.run_local(&mut blocks, u64::MAX, 1 << 32).expect("no faults");
                assert!(cpu.is_halted(), "{body}: {entry}");
                assert_eq!(observe(&cpu, &blocks.inner.mem, out), want, "{body}: {entry}");
                if entry == "warm" {
                    assert_eq!(blocks.fetches, fetches, "{body}: a warm run fetches nothing");
                    assert!(blocks.booked.len() > booked, "{body}: a warm run books its fetches");
                }
            }
        }
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
