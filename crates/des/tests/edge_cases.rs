//! Engine agreement on edges the random differential does not reach.
//!
//! * Self-modifying code: both engines share `temu_cpu::Cpu`, so the
//!   differential alone cannot tell a stale decode from a correct one. Here
//!   a program overwrites an instruction it has already executed and must
//!   then execute the new one, and a block's first entry stores an
//!   undecodable word over one of the block's own later instructions and
//!   must then fault on it.
//! * Faults on several cores: the fast engine lets a core run its
//!   core-local work ahead of the others, so a late fault can be met
//!   before an earlier one on another core. Both engines must still report
//!   the fault with the smallest (time, tie key).
//! * Cacheable shared memory: a private miss can then evict a dirty shared
//!   line over the interconnect, so private accesses stop being core-local.
//!   The random differential meets this about once in 200 seeds; here it
//!   happens on every iteration.

use temu_cpu::CpuError;
use temu_des::DesMachine;
use temu_isa::asm::assemble;
use temu_isa::{Program, Reg, Width};
use temu_mem::MemError;
use temu_platform::{Machine, PlatformConfig};

/// Runs `patch` twice: the first pass executes `addi r5, r0, 11` and then
/// stores `addi r5, r0, 77` over it, so the second pass must yield 77.
fn self_modifying_program() -> Program {
    let new_word = assemble("addi r5, r0, 77").expect("valid asm").words[0];
    let src = format!(
        "start: la   r1, patch
                li   r2, {new_word:#x}
                li   r6, 2
         patch: addi r5, r0, 11
                addi r6, r6, -1
                sw   r2, 0(r1)
                bnez r6, patch
                halt"
    );
    assemble(&src).expect("valid asm")
}

#[test]
fn self_modifying_code_runs_the_new_instruction() {
    let program = self_modifying_program();
    for cores in [1, 4] {
        let platform = PlatformConfig::paper_bus(cores);
        let mut fast = Machine::new(platform.clone()).unwrap();
        fast.load_program_all(&program).unwrap();
        let f = fast.run_to_halt(1_000_000).unwrap();
        let mut des = DesMachine::new(platform).unwrap();
        des.load_program_all(&program).unwrap();
        let d = des.run_to_halt(1_000_000).unwrap();
        assert!(f.all_halted && d.all_halted);
        assert_eq!(f.cycles, d.cycles, "{cores} core(s)");
        for core in 0..cores {
            assert_eq!(fast.core(core).regs().read(Reg::new(5)), 77, "fast engine, {cores} core(s), core {core}");
            assert_eq!(des.core(core).regs().read(Reg::new(5)), 77, "DES engine, {cores} core(s), core {core}");
        }
    }
}

/// The block at `loop` stores the undecodable word `0xF8000000` over its
/// own `patch` two words further on. The block's first entry is cold, so
/// its fetch of `patch` must decode the word it fetched, not run the
/// `addi` the block decoded there.
#[test]
fn store_of_an_undecodable_word_into_a_cold_block_faults_on_it() {
    let program = assemble(
        "
        start: la   r1, patch
               li   r2, 0xF8000000
               j    loop
        loop:  addi r3, r3, 1
               sw   r2, 0(r1)
               addi r4, r4, 1
        patch: addi r5, r5, 11
               halt
        ",
    )
    .expect("valid asm");
    let patch = program.symbol("patch");
    for cores in [1, 2] {
        let platform = PlatformConfig::paper_bus(cores);
        let mut fast = Machine::new(platform.clone()).unwrap();
        fast.load_program_all(&program).unwrap();
        let f = fast.run_to_halt(1_000_000).unwrap_err();
        let mut des = DesMachine::new(platform).unwrap();
        des.load_program_all(&program).unwrap();
        let d = des.run_to_halt(1_000_000).unwrap_err();
        assert!(matches!(f, CpuError::Decode { pc, word: 0xF800_0000, .. } if pc == patch), "{cores} core(s): {f:?}");
        assert_eq!(f, d, "{cores} core(s): the same fault");
        for core in 0..cores {
            let (fc, dc) = (fast.core(core), des.core(core));
            assert_eq!((fc.pc(), fc.time()), (dc.pc(), dc.time()), "{cores} core(s), core {core}");
            assert_eq!(fc.regs().read(Reg::new(5)), 0, "{cores} core(s), core {core}: the old `patch` never ran");
        }
    }
}

/// Core 0 spins long, then meets an undecodable word; core 1 spins short,
/// then loads from a misaligned private address. Both faults are
/// core-local, so the fast engine runs core 0 ahead to its late fault
/// before core 1 reaches its early one.
const TWO_FAULTS: &str = "
    .equ MMIO, 0xFFFF0000
    start: li   r1, MMIO
           lw   r2, 0(r1)          ; core id
           bnez r2, core1
           li   r3, 200
    spin0: addi r3, r3, -1
           bnez r3, spin0
           .word 0xF8000000        ; core 0: undecodable, late
    core1: li   r3, 20
    spin1: addi r3, r3, -1
           bnez r3, spin1
    bad:   lw   r4, 2(r0)          ; core 1: misaligned, early
           halt
";

#[test]
fn earliest_fault_wins_across_cores() {
    let program = assemble(TWO_FAULTS).expect("valid asm");
    let early = CpuError::Mem { pc: program.symbol("bad"), err: MemError::Misaligned { addr: 2, width: Width::Word } };
    for platform in [PlatformConfig::paper_bus(2), PlatformConfig::paper_noc(2)] {
        let mut fast = Machine::new(platform.clone()).unwrap();
        fast.load_program_all(&program).unwrap();
        let f = fast.run_to_halt(1_000_000).unwrap_err();
        let mut des = DesMachine::new(platform).unwrap();
        des.load_program_all(&program).unwrap();
        let d = des.run_to_halt(1_000_000).unwrap_err();
        assert_eq!(d, early, "the baseline meets core 1's fault first");
        assert_eq!(f, early, "the fast engine reports the same fault");
        assert_eq!(fast.core(1).time(), des.core(1).time(), "core 1 stops at its fault");
    }
}

/// Core 0 dirties a shared line, then misses on a private line in the same
/// D-cache set, writing the shared line back over the bus; core 1 keeps
/// the bus busy with uncached test-and-sets meanwhile.
const PRIVATE_MISS_EVICTS_SHARED: &str = "
    .equ MMIO, 0xFFFF0000
    .equ SHARED, 0x10000000
    start: li   r1, MMIO
           lw   r2, 0(r1)          ; core id
           li   r1, SHARED
           li   r4, 0x4000         ; same 4 KB direct-mapped set as SHARED
           li   r3, 30
           bnez r2, core1
    core0: sw   r3, 0(r1)
           lw   r5, 0(r4)
           addi r3, r3, -1
           bnez r3, core0
           halt
    core1: tas  r5, 0x40(r1)
           addi r3, r3, -1
           bnez r3, core1
           halt
";

#[test]
fn private_misses_evicting_shared_lines_stay_in_order() {
    let program = assemble(PRIVATE_MISS_EVICTS_SHARED).expect("valid asm");
    let mut platform = PlatformConfig::paper_bus(2);
    platform.shared_cacheable = true;
    let mut fast = Machine::new(platform.clone()).unwrap();
    fast.load_program_all(&program).unwrap();
    let f = fast.run_to_halt(1_000_000).unwrap();
    let mut des = DesMachine::new(platform).unwrap();
    des.load_program_all(&program).unwrap();
    let d = des.run_to_halt(1_000_000).unwrap();
    assert!(f.all_halted && d.all_halted);
    assert!(f.stats.dcaches[0].writebacks >= 30, "every private miss writes a shared line back");
    assert_eq!(f.cycles, d.cycles);
    assert_eq!(f.instructions, d.instructions);
    for core in 0..2 {
        assert_eq!(fast.core(core).time(), des.core(core).time(), "core {core}");
    }
}
