//! Full-state differential of the fast engine against the cycle-driven
//! baseline, aimed at the ISS's block path.
//!
//! `random_programs.rs` compares cycles, retired instructions, registers
//! and shared memory. Here every core's whole `Cpu::save_state` (registers,
//! PC, local time, a parked access and every sniffer counter) and the whole
//! `Uncore::save_state` (cache tags, LRU stamps, access ticks and counters,
//! memories, device counters, interconnect and MMIO state) must be equal
//! bit for bit, so an I-cache hit booked once too often, an LRU stamp
//! left behind or an event-logging sniffer count off by one shows even
//! when no cycle count moves. The fast engine runs
//! through `Machine::run_until`, which takes no statistics, so its counters
//! accumulate from the start exactly as the baseline's do.
//!
//! The generator favours what the ISS runs as blocks: straight-line ALU
//! runs of 1–12 instructions that cross I-cache lines, forward branches
//! into the middle of a run, calls, multiplies and divides, and private
//! and shared data accesses. Hand-written programs then take the block
//! path's edges one at a time, and a DFS differential switches the
//! virtual frequency on both engines at every boundary while the programs
//! read it back.
//!
//! The tier-1 cases take a few seeds per platform; the `#[ignore]`d
//! `long_full_state_every_platform` runs 100 (`scripts/check.sh` runs it
//! in release):
//!
//! ```text
//! cargo test --release -p temu-des --test full_state -- --include-ignored
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temu_cpu::{Cpu, CpuError};
use temu_des::DesMachine;
use temu_interconnect::Arbitration;
use temu_isa::asm::assemble;
use temu_isa::{Program, Reg};
use temu_mem::{CacheConfig, MemError, WritePolicy};
use temu_platform::{Machine, PlatformConfig, SnifferMode, Uncore, MMIO_FREQ_MHZ, MMIO_SNIFFER_CTRL};
use temu_state::StateWriter;

/// Cycle budget every program halts well within.
const BUDGET: u64 = 20_000_000;

/// An odd window length, so boundaries fall at every phase of the
/// programs' loops, inside blocks and mid-instruction.
const ODD_WINDOW: u64 = 997;

/// A one-line DFS window, a fifth of [`ODD_WINDOW`]: the 500/100 MHz ratio
/// of the paper's dual-threshold policy.
const DFS_SLOW_WINDOW: u64 = 199;

fn cpu_state(cpu: &Cpu) -> Vec<u8> {
    let mut w = StateWriter::new(*b"CORE", 1);
    cpu.save_state(&mut w);
    w.into_bytes()
}

fn uncore_state(uncore: &Uncore) -> Vec<u8> {
    let mut w = StateWriter::new(*b"UNCR", 1);
    uncore.save_state(&mut w);
    w.into_bytes()
}

/// One program on both engines, advanced window by window.
struct Pair {
    fast: Machine,
    des: DesMachine,
    /// Cycle both engines have been run up to.
    boundary: u64,
}

impl Pair {
    fn new(platform: &PlatformConfig, program: &Program) -> Pair {
        let mut fast = Machine::new(platform.clone()).unwrap();
        fast.load_program_all(program).unwrap();
        let mut des = DesMachine::new(platform.clone()).unwrap();
        des.load_program_all(program).unwrap();
        Pair { fast, des, boundary: 0 }
    }

    /// Runs both engines through the next `cycles` cycles.
    fn window(&mut self, cycles: u64) {
        self.boundary += cycles;
        assert!(self.boundary <= BUDGET, "programs halt by construction");
        self.fast.run_until(self.boundary).unwrap();
        self.des.run_slice(cycles).unwrap();
    }

    /// Runs both engines until every core halts.
    fn run_to_halt(&mut self) {
        self.fast.run_until(BUDGET).unwrap();
        self.des.run_to_halt(BUDGET).unwrap();
        assert!(self.fast.all_halted(), "programs halt by construction");
        assert!(self.des.all_halted(), "the baseline halts with the fast engine");
    }

    /// Switches the virtual clock on both engines (the DFS actuator).
    fn set_virtual_hz(&mut self, hz: u64) {
        self.fast.set_virtual_hz(hz);
        self.des.set_virtual_hz(hz);
    }

    /// Asserts the two engines hold the same full state: every core's, and
    /// the memory system's. The counters and caches are compared on their
    /// own first, so a divergence names what moved.
    fn assert_same(&self, at: &str) {
        for core in 0..self.fast.num_cores() {
            let (f, d) = (self.fast.core(core), self.des.core(core));
            assert_eq!(f.stats(), d.stats(), "{at}: core {core} counters diverged");
            let (fu, du) = (self.fast.uncore(), self.des.uncore());
            assert_eq!(fu.cache_stats(core), du.cache_stats(core), "{at}: core {core} cache counters diverged");
            assert_eq!(fu.private_stats(core), du.private_stats(core), "{at}: core {core} private memory counters diverged");
            assert!(cpu_state(f) == cpu_state(d), "{at}: core {core} state diverged");
        }
        assert!(
            uncore_state(self.fast.uncore()) == uncore_state(self.des.uncore()),
            "{at}: memory system state diverged"
        );
    }
}

/// Checks the full state at halt.
fn at_halt(platform: &PlatformConfig, program: &Program, what: &str) {
    let mut pair = Pair::new(platform, program);
    pair.run_to_halt();
    pair.assert_same(&format!("{what}, at halt"));
}

/// Checks the full state at every boundary of windows whose lengths cycle
/// through `windows`, and at halt.
fn at_boundaries(platform: &PlatformConfig, program: &Program, windows: &[u64], what: &str) {
    let mut pair = Pair::new(platform, program);
    for &cycles in windows.iter().cycle() {
        pair.window(cycles);
        pair.assert_same(&format!("{what}, at cycle {}", pair.boundary));
        if pair.fast.all_halted() {
            break;
        }
    }
    assert!(pair.des.all_halted(), "{what}: the baseline halts with the fast engine");
}

/// Checks the full state at every boundary of alternating fast and slow
/// DFS windows, switching both engines' virtual clock at each one: 500 MHz
/// for [`ODD_WINDOW`] cycles, then 100 MHz for [`DFS_SLOW_WINDOW`].
fn with_dfs(platform: &PlatformConfig, program: &Program, what: &str) {
    let mut pair = Pair::new(platform, program);
    for (hz, cycles) in [(500_000_000, ODD_WINDOW), (100_000_000, DFS_SLOW_WINDOW)].into_iter().cycle() {
        pair.set_virtual_hz(hz);
        pair.window(cycles);
        pair.assert_same(&format!("{what}, at cycle {} ({} MHz)", pair.boundary, hz / 1_000_000));
        if pair.fast.all_halted() {
            break;
        }
    }
    assert!(pair.des.all_halted(), "{what}: the baseline halts with the fast engine");
}

const ALU_OPS: [&str; 15] =
    ["add", "sub", "and", "or", "xor", "nor", "sll", "srl", "sra", "slt", "sltu", "mul", "mulh", "div", "rem"];
const ALU_IMM_OPS: [&str; 6] = ["addi", "andi", "ori", "xori", "slti", "sltiu"];
const SHIFT_OPS: [&str; 3] = ["slli", "srli", "srai"];
const BRANCHES: [&str; 6] = ["beq", "bne", "blt", "bge", "bltu", "bgeu"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// One random ALU instruction over r2–r11 (sources also read r1).
fn alu_op(rng: &mut StdRng) -> String {
    let rd = rng.gen_range(2..12);
    let rs1 = rng.gen_range(1..12);
    let rs2 = rng.gen_range(1..12);
    match rng.gen_range(0..10) {
        0..=4 => format!("    {} r{rd}, r{rs1}, r{rs2}\n", pick(rng, &ALU_OPS)),
        5..=7 => format!("    {} r{rd}, r{rs1}, {}\n", pick(rng, &ALU_IMM_OPS), rng.gen_range(-200..200)),
        8 => format!("    {} r{rd}, r{rs1}, {}\n", pick(rng, &SHIFT_OPS), rng.gen_range(0..32)),
        _ => format!("    lui r{rd}, {}\n", rng.gen_range(0..0x10000)),
    }
}

/// A straight-line run of 1–`max` ALU instructions.
fn alu_run(rng: &mut StdRng, max: usize) -> String {
    let n = rng.gen_range(1..=max);
    (0..n).map(|_| alu_op(rng)).collect()
}

/// A halting SPMD program aimed at the block path: an outer loop over
/// random chunks (ALU runs, forward branches into the middle of a run,
/// `jal`/`jalr` calls, private and — with `shared` — shared accesses),
/// then two leaf subroutines. With `read_freq`, each iteration also loads
/// the MMIO frequency register and folds it into r14 and r2.
fn block_program(rng: &mut StdRng, shared: bool, read_freq: bool) -> Program {
    let mut src = String::from(
        ".equ MMIO, 0xFFFF0000\n\
         .equ SHARED, 0x10000000\n\
         start:\n\
             li r1, MMIO\n\
             lw s7, 0(r1)\n\
             li s6, 12\n\
         outer:\n",
    );
    if read_freq {
        src.push_str(&format!("    lw r13, {MMIO_FREQ_MHZ}(r1)\n    add r14, r14, r13\n    xor r2, r2, r14\n"));
    }
    for label in 0..rng.gen_range(6..16) {
        match rng.gen_range(0..12) {
            0..=3 => src.push_str(&alu_run(rng, 12)),
            4..=5 => {
                // Taken or not, the branch lands inside a straight-line run.
                let n = rng.gen_range(2..=12);
                let at = rng.gen_range(1..n);
                let (rs1, rs2) = (rng.gen_range(1..12), rng.gen_range(1..12));
                src.push_str(&format!("    {} r{rs1}, r{rs2}, mid{label}\n", pick(rng, &BRANCHES)));
                for i in 0..n {
                    if i == at {
                        src.push_str(&format!("mid{label}:\n"));
                    }
                    src.push_str(&alu_op(rng));
                }
            }
            6 => src.push_str(&format!("    call sub{}\n", rng.gen_range(0..2))),
            7 => src.push_str(&format!("    la r12, sub{}\n    jalr ra, r12, 0\n", rng.gen_range(0..2))),
            8..=9 => {
                let addr = 0x4000 + 4 * rng.gen_range(0..0x400);
                let (rd, rs) = (rng.gen_range(2..12), rng.gen_range(1..12));
                let access = match rng.gen_range(0..4) {
                    0 => format!("lw r{rd}"),
                    1 => format!("lbu r{rd}"),
                    2 => format!("sw r{rs}"),
                    _ => format!("sh r{rs}"),
                };
                src.push_str(&format!("    li r13, {addr}\n    {access}, 0(r13)\n"));
            }
            _ if shared => {
                let off = 4 * rng.gen_range(0..0x100);
                let (rd, rs) = (rng.gen_range(2..12), rng.gen_range(1..12));
                let access = if rng.gen_bool(0.5) { format!("lw r{rd}") } else { format!("sw r{rs}") };
                src.push_str(&format!("    li r13, SHARED\n    {access}, {off}(r13)\n"));
            }
            _ => src.push_str(&alu_run(rng, 1)),
        }
    }
    src.push_str("    addi s6, s6, -1\n    bnez s6, outer\n    halt\n");
    for sub in 0..2 {
        src.push_str(&format!("sub{sub}:\n"));
        src.push_str(&alu_run(rng, 12));
        src.push_str("    ret\n");
    }
    assemble(&src).expect("generator emits valid asm")
}

fn seeded_program(seed: u64, shared: bool, read_freq: bool) -> Program {
    block_program(&mut StdRng::seed_from_u64(seed), shared, read_freq)
}

fn shared_cacheable_bus(cores: usize) -> PlatformConfig {
    let mut platform = PlatformConfig::paper_bus(cores);
    platform.shared_cacheable = true;
    platform
}

fn no_caches_bus(cores: usize) -> PlatformConfig {
    let mut platform = PlatformConfig::paper_bus(cores);
    platform.icache = None;
    platform.dcache = None;
    platform
}

/// `paper_bus` with event-logging sniffers: every data access and cache
/// miss is counted into a buffer of 256 events, which most programs with
/// shared accesses overflow.
fn event_logging_bus(cores: usize) -> PlatformConfig {
    let mut platform = PlatformConfig::paper_bus(cores);
    platform.sniffer_mode = SnifferMode::EventLogging { capacity: 256 };
    platform
}

/// The platforms of `random_programs.rs` plus an event-logging bus, and
/// whether their programs hit shared memory (private-only programs let the
/// fast engine run whole windows of one core ahead of the others, except
/// under event logging).
fn every_platform() -> Vec<(PlatformConfig, bool)> {
    vec![
        (PlatformConfig::paper_bus(1), true),
        (PlatformConfig::paper_bus(4), true),
        (PlatformConfig::paper_noc(4), true),
        (PlatformConfig::paper_bus(8), true),
        (PlatformConfig::paper_thermal(4), true),
        (shared_cacheable_bus(4), true),
        (no_caches_bus(2), true),
        (PlatformConfig::paper_custom_bus(4, Arbitration::RoundRobin), true),
        (PlatformConfig::paper_custom_bus(4, Arbitration::Tdma { slot_cycles: 16 }), true),
        (PlatformConfig::paper_bus(4), false),
        (PlatformConfig::paper_thermal(4), false),
        (event_logging_bus(4), true),
        (event_logging_bus(4), false),
    ]
}

/// Runs `seeds` seeds per platform (distinct per platform, so a failing
/// seed names its platform) through `check`.
fn every_platform_seeds(first: u64, seeds: u64, check: impl Fn(&PlatformConfig, bool, u64, &str)) {
    for (i, (platform, shared)) in every_platform().into_iter().enumerate() {
        let base = first + 1000 * i as u64;
        for seed in base..base + seeds {
            check(&platform, shared, seed, &format!("platform {i}, seed {seed}"));
        }
    }
}

#[test]
fn block_programs_match_at_halt() {
    every_platform_seeds(100_000, 3, |platform, shared, seed, what| {
        at_halt(platform, &seeded_program(seed, shared, false), what);
    });
}

#[test]
fn block_programs_match_at_every_boundary() {
    every_platform_seeds(200_000, 2, |platform, shared, seed, what| {
        at_boundaries(platform, &seeded_program(seed, shared, false), &[ODD_WINDOW], what);
    });
}

#[test]
fn dfs_mid_run_matches_at_every_boundary() {
    every_platform_seeds(300_000, 2, |platform, shared, seed, what| {
        with_dfs(platform, &seeded_program(seed, shared, true), what);
    });
}

#[test]
#[ignore = "long: 100 seeds per platform; run in release by scripts/check.sh"]
fn long_full_state_every_platform() {
    every_platform_seeds(1_000_000, 100, |platform, shared, seed, what| {
        at_halt(platform, &seeded_program(seed, shared, false), what);
        at_boundaries(platform, &seeded_program(seed, shared, false), &[ODD_WINDOW], what);
        with_dfs(platform, &seeded_program(seed, shared, true), what);
    });
}

/// `iters` passes of a loop over a 20-instruction straight-line run with a
/// multiply: 80 bytes over six 16-byte lines, three blocks of up to 8.
fn straight_loop(iters: u32) -> Program {
    let src = format!(
        "
        start: li   r1, {iters}
        loop:  addi r2, r2, 1
               addi r3, r3, 2
               xor  r4, r2, r3
               add  r5, r5, r4
               slli r6, r5, 3
               sub  r7, r6, r2
               or   r8, r7, r3
               and  r9, r8, r6
               mul  r10, r9, r2
               addi r2, r2, 1
               addi r3, r3, 2
               xor  r4, r2, r3
               add  r5, r5, r4
               slli r6, r5, 3
               sub  r7, r6, r2
               or   r8, r7, r3
               and  r9, r8, r6
               addi r11, r11, 7
               addi r1, r1, -1
               bnez r1, loop
               halt
        "
    );
    assemble(&src).expect("valid asm")
}

#[test]
fn window_limits_inside_blocks() {
    let program = straight_loop(4);
    for cores in [1, 2] {
        for window in 1..=9 {
            let what = format!("{cores} core(s), {window}-cycle windows");
            at_boundaries(&PlatformConfig::paper_bus(cores), &program, &[window], &what);
        }
    }
}

/// 24 passes of a loop block over private loads and stores: 14
/// instructions over four I-cache lines, seven of them loads and stores.
/// The block runs warm from its third pass, so later limits fall inside
/// warm entries.
const WARM_DATA_LOOP: &str = "
    start: li   r1, 24
           li   r2, 0x4000
    loop:  lw   r3, 0(r2)
           addi r3, r3, 1
           sw   r3, 0(r2)
           xor  r4, r3, r1
           lw   r5, 4(r2)
           add  r5, r5, r4
           sw   r5, 4(r2)
           slli r6, r5, 2
           lbu  r7, 1(r2)
           or   r8, r7, r6
           sh   r8, 8(r2)
           lw   r9, 8(r2)
           addi r1, r1, -1
           bnez r1, loop
           halt
";

#[test]
fn window_limits_inside_warm_blocks() {
    // Window lengths of about one pass and more, so blocks run warm between
    // limits and the limits land on every op of the loop, its loads and
    // stores included: a warm entry parks at a data op.
    let program = assemble(WARM_DATA_LOOP).expect("valid asm");
    for cores in [1, 2] {
        for window in 17..=36 {
            let what = format!("{cores} core(s), {window}-cycle windows");
            at_boundaries(&PlatformConfig::paper_bus(cores), &program, &[window], &what);
        }
    }
}

/// `paper_bus` with a small I-cache: 16-byte lines, `sets` sets of `ways`.
fn small_icache_bus(cores: usize, sets: u32, ways: u32) -> PlatformConfig {
    let mut platform = PlatformConfig::paper_bus(cores);
    platform.icache = Some(CacheConfig { size_bytes: 16 * sets * ways, line_bytes: 16, ways, ..CacheConfig::paper_l1_4k() });
    platform
}

#[test]
fn blocks_crossing_into_lines_that_miss() {
    // The loop spans six lines and the I-cache holds four, so blocks keep
    // crossing into lines the previous pass evicted.
    let program = straight_loop(40);
    for (sets, ways) in [(4, 1), (2, 2), (1, 4)] {
        let platform = small_icache_bus(2, sets, ways);
        let what = format!("{sets} set(s) of {ways}");
        at_halt(&platform, &program, &what);
        at_boundaries(&platform, &program, &[ODD_WINDOW, 13], &what);
        let mut pair = Pair::new(&platform, &program);
        pair.run_to_halt();
        let icache = pair.fast.uncore().cache_stats(0).0.copied().expect("an I-cache");
        assert!(icache.misses > 100, "{what}: every pass misses ({icache:?})");
    }
}

/// 48 passes of a loop over three I-cache lines (0x04–0x2B) that calls
/// `clash` every fourth pass. `clash` sits at 0x84: on a 128-byte
/// direct-mapped I-cache it maps onto the loop's sets and evicts the lines
/// the loop's blocks ran from while warm.
const CLASHING_CALLS: &str = "
    start: li   r1, 48
    loop:  addi r2, r2, 1
           addi r3, r3, 2
           xor  r4, r2, r3
           add  r5, r5, r4
           slli r6, r5, 1
           andi r9, r1, 3
           bnez r9, skip
           call clash
    skip:  addi r1, r1, -1
           bnez r1, loop
           halt
           .org 0x84
    clash: addi r10, r10, 1
           addi r11, r11, 3
           xor  r12, r10, r11
           add  r13, r13, r12
           slli r14, r13, 2
           sub  r15, r14, r10
           or   r16, r15, r11
           and  r17, r16, r14
           addi r18, r18, 5
           xor  r19, r18, r17
           ret
";

#[test]
fn warm_blocks_whose_lines_a_call_evicts() {
    let program = assemble(CLASHING_CALLS).expect("valid asm");
    assert_eq!((program.symbol("loop"), program.symbol("clash")), (0x04, 0x84));
    for cores in [1, 2] {
        let platform = small_icache_bus(cores, 8, 1);
        let what = format!("{cores} core(s)");
        at_halt(&platform, &program, &what);
        at_boundaries(&platform, &program, &[ODD_WINDOW, 13], &what);
        let mut pair = Pair::new(&platform, &program);
        pair.run_to_halt();
        let icache = pair.fast.uncore().cache_stats(0).0.copied().expect("an I-cache");
        assert!(icache.misses > 30, "{what}: each call evicts the loop ({icache:?})");
    }
}

/// 40 passes over two private words 0x4000 and 0x4010, and 0x5000, which
/// maps onto the first word's D-cache line on a 4 KB direct-mapped D-cache.
/// Each pass loads the first word's line clean and stores into it, then a
/// conflicting load evicts it and the next load brings it back clean for
/// two stores more; the other line is stored to while dirty.
const STORES_ON_CLEAN_LINES: &str = "
    start: li   r1, 40
           li   r2, 0x4000
           li   r3, 0x5000
    loop:  lw   r4, 0(r2)
           addi r4, r4, 1
           sw   r4, 0(r2)
           lw   r5, 0(r3)
           add  r6, r6, r5
           lw   r7, 4(r2)
           sh   r7, 6(r2)
           sb   r1, 9(r2)
           lbu  r8, 9(r2)
           sw   r8, 16(r2)
           lw   r9, 16(r2)
           sw   r9, 20(r2)
           addi r1, r1, -1
           bnez r1, loop
           halt
";

#[test]
fn store_hits_on_clean_lines() {
    let program = assemble(STORES_ON_CLEAN_LINES).expect("valid asm");
    let write_through = |cores| {
        let mut platform = PlatformConfig::paper_bus(cores);
        platform.dcache = Some(CacheConfig { write_policy: WritePolicy::WriteThrough, ..CacheConfig::paper_l1_4k() });
        platform
    };
    let platforms = [
        ("write-back, 1 core", PlatformConfig::paper_bus(1)),
        ("write-back, 2 cores", PlatformConfig::paper_bus(2)),
        ("write-through, 1 core", write_through(1)),
        ("write-through, 2 cores", write_through(2)),
        ("event logging, 1 core", event_logging_bus(1)),
    ];
    for (what, platform) in platforms {
        at_halt(&platform, &program, what);
        at_boundaries(&platform, &program, &[ODD_WINDOW, 13], what);
        let mut pair = Pair::new(&platform, &program);
        pair.run_to_halt();
        let dcache = pair.fast.uncore().cache_stats(0).1.copied().expect("a D-cache");
        if platform.dcache.is_some_and(|c| c.write_policy == WritePolicy::WriteThrough) {
            assert_eq!(dcache.write_throughs, 5 * 40, "{what}: every store goes to memory ({dcache:?})");
        } else {
            assert!(dcache.writebacks >= 40, "{what}: each pass writes the dirtied line back ({dcache:?})");
        }
    }
}

#[test]
fn one_set_icache_evicts_the_previous_line() {
    // `size_bytes == line_bytes`: each new line evicts the one before it,
    // so a block's bulk hits must be booked before its next line's fetch.
    let program = straight_loop(40);
    for cores in [1, 4] {
        let platform = small_icache_bus(cores, 1, 1);
        let what = format!("one-line I-cache, {cores} core(s)");
        at_halt(&platform, &program, &what);
        at_boundaries(&platform, &program, &[ODD_WINDOW, 7], &what);
    }
    for random in 0..5 {
        at_halt(&small_icache_bus(2, 1, 1), &seeded_program(400_000 + random, true, false), "one-line I-cache, random");
    }
}

#[test]
fn text_ending_at_the_end_of_private_memory() {
    // The loop's back jump is the last word of the 64 KB private memory,
    // so the text its blocks are decoded from is cut short there.
    let program = assemble(
        "
        start: li   r1, 30
               j    tail
        done:  halt
               .org 0xFFE4
        tail:  addi r2, r2, 1
               addi r3, r3, 3
               xor  r4, r2, r3
               addi r1, r1, -1
               beqz r1, done
               add  r5, r5, r4
        last:  j    tail
        ",
    )
    .expect("valid asm");
    assert_eq!(program.symbol("last"), 0x1_0000 - 4, "the back jump is the last private word");
    for cores in [1, 2] {
        let platform = PlatformConfig::paper_bus(cores);
        at_halt(&platform, &program, &format!("{cores} core(s)"));
        at_boundaries(&platform, &program, &[5, 3], &format!("{cores} core(s)"));
    }

    // Here the last private word is a plain ALU instruction: its block ends
    // with the text, and the next fetch faults at the same point on both.
    let program = assemble("start: j tail
 .org 0xFFF4
 tail: addi r2, r2, 1
 addi r3, r3, 1
 addi r4, r4, 1
")
        .expect("valid asm");
    for cores in [1, 2] {
        let mut pair = Pair::new(&PlatformConfig::paper_bus(cores), &program);
        let fast = pair.fast.run_until(BUDGET).unwrap_err();
        let des = pair.des.run_to_halt(BUDGET).unwrap_err();
        assert_eq!(fast, des, "{cores} core(s): the same fault");
        assert!(matches!(fast, CpuError::Mem { pc: 0x1_0000, err: MemError::Unmapped { .. } }), "{fast:?}");
        pair.assert_same(&format!("{cores} core(s), at the fault"));
    }
}

#[test]
fn jumps_into_the_middle_of_cached_blocks() {
    // Each pass runs the run from its top, then from its third and from
    // its sixth instruction: three blocks over the same words.
    let program = assemble(
        "
        start: li   r1, 25
        loop:  li   r12, 0
        top:   addi r2, r2, 1
               addi r3, r3, 2
        third: xor  r4, r2, r3
               add  r5, r5, r4
               slli r6, r5, 1
        sixth: sub  r7, r6, r2
               mul  r8, r7, r3
               addi r12, r12, 1
               li   r13, 1
               beq  r12, r13, again3
               li   r13, 2
               beq  r12, r13, again6
               addi r1, r1, -1
               bnez r1, loop
               halt
        again3: j   third
        again6: j   sixth
        ",
    )
    .expect("valid asm");
    for cores in [1, 2] {
        let platform = PlatformConfig::paper_bus(cores);
        at_halt(&platform, &program, &format!("{cores} core(s)"));
        at_boundaries(&platform, &program, &[ODD_WINDOW, 11], &format!("{cores} core(s)"));
    }
}

#[test]
fn store_rewrites_the_middle_of_a_cached_block() {
    // The first pass runs `addi r5, r5, 11` as the third instruction of the
    // block at `loop`, then stores `addi r5, r5, 77` over it; the next two
    // passes re-enter that block and must run the new word: r5 = 11 + 2 * 77.
    let new_word = assemble("addi r5, r5, 77").expect("valid asm").words[0];
    let program = assemble(&format!(
        "
        start: la   r1, patch
               li   r2, {new_word:#x}
               li   r6, 3
               j    loop
        loop:  addi r3, r3, 1
               addi r4, r4, 1
        patch: addi r5, r5, 11
               addi r7, r7, 1
               addi r6, r6, -1
               sw   r2, 0(r1)
               bnez r6, loop
               halt
        "
    ))
    .expect("valid asm");
    for cores in [1, 4] {
        let platform = PlatformConfig::paper_bus(cores);
        let mut pair = Pair::new(&platform, &program);
        pair.run_to_halt();
        pair.assert_same(&format!("{cores} core(s), at halt"));
        for core in 0..cores {
            assert_eq!(pair.fast.core(core).regs().read(Reg::new(5)), 11 + 2 * 77, "{cores} core(s), core {core}");
        }
        at_boundaries(&platform, &program, &[3], &format!("{cores} core(s)"));
    }
}

#[test]
fn store_rewrites_a_later_instruction_of_its_own_block() {
    // The block at `loop` stores `addi r5, r5, 77` over its own `patch`
    // two words further on, before `patch` runs, so every pass — the first
    // too — must run the new word: r5 = 3 * 77. A block that ran on past
    // the store would run the word it decoded on the first pass.
    let new_word = assemble("addi r5, r5, 77").expect("valid asm").words[0];
    let program = assemble(&format!(
        "
        start: la   r1, patch
               li   r2, {new_word:#x}
               li   r6, 3
               j    loop
        loop:  addi r3, r3, 1
               sw   r2, 0(r1)
               addi r4, r4, 1
        patch: addi r5, r5, 11
               addi r6, r6, -1
               bnez r6, loop
               halt
        "
    ))
    .expect("valid asm");
    for cores in [1, 4] {
        let platform = PlatformConfig::paper_bus(cores);
        let mut pair = Pair::new(&platform, &program);
        pair.run_to_halt();
        pair.assert_same(&format!("{cores} core(s), at halt"));
        for core in 0..cores {
            assert_eq!(pair.fast.core(core).regs().read(Reg::new(5)), 3 * 77, "{cores} core(s), core {core}");
        }
        at_boundaries(&platform, &program, &[ODD_WINDOW, 3], &format!("{cores} core(s)"));
    }
}

#[test]
fn data_fault_inside_a_block_books_its_fetch_hits() {
    // `go` starts an I-cache line; its third word loads from a misaligned
    // private address. The block fetches the line once and has two hits on
    // it to book when the load's data phase faults.
    let program = assemble(
        "
        start: li   r3, 5
               j    go
               .org 0x40
        go:    addi r2, r2, 1
               addi r3, r3, 1
        bad:   lw   r4, 2(r0)
               halt
        ",
    )
    .expect("valid asm");
    assert_eq!(program.symbol("bad"), 0x48, "the load is the line's third word");
    for cores in [1, 2] {
        let mut pair = Pair::new(&PlatformConfig::paper_bus(cores), &program);
        let fast = pair.fast.run_until(BUDGET).unwrap_err();
        let des = pair.des.run_to_halt(BUDGET).unwrap_err();
        assert_eq!(fast, des, "{cores} core(s): the same fault");
        assert!(matches!(fast, CpuError::Mem { pc: 0x48, err: MemError::Misaligned { addr: 2, .. } }), "{fast:?}");
        pair.assert_same(&format!("{cores} core(s), at the fault"));
        let icache = pair.fast.uncore().cache_stats(0).0.copied().expect("an I-cache");
        assert_eq!((icache.reads, icache.misses), (5, 2), "{cores} core(s): every fetch up to the fault is booked");
    }
}

#[test]
fn data_fault_inside_a_warm_block() {
    // The loop block runs warm from its third pass. On the pass where r5 is
    // 2 its load reads 0x402 and faults, with every fetch of that entry
    // still to book.
    let program = assemble(
        "
        start: li    r5, 8
        loop:  addi  r2, r2, 1
               addi  r6, r5, -2
               sltiu r7, r6, 1
               slli  r3, r7, 1
        load:  lw    r4, 0x400(r3)
               addi  r5, r5, -1
               bnez  r5, loop
               halt
        ",
    )
    .expect("valid asm");
    assert_eq!((program.symbol("loop"), program.symbol("load")), (0x04, 0x14));
    for cores in [1, 2] {
        let mut pair = Pair::new(&PlatformConfig::paper_bus(cores), &program);
        let fast = pair.fast.run_until(BUDGET).unwrap_err();
        let des = pair.des.run_to_halt(BUDGET).unwrap_err();
        assert_eq!(fast, des, "{cores} core(s): the same fault");
        assert!(matches!(fast, CpuError::Mem { pc: 0x14, err: MemError::Misaligned { addr: 0x402, .. } }), "{fast:?}");
        pair.assert_same(&format!("{cores} core(s), at the fault"));
    }
}

/// Copies `sub`, a position-independent leaf routine of 12 words, into
/// shared memory, then calls it there 20 times: the copy's fetches go over
/// the interconnect, outside any block.
const CODE_IN_SHARED_MEMORY: &str = "
    .equ SHARED, 0x10000000
    start: la   r1, sub
           li   r2, SHARED
           addi r2, r2, 0x200
           li   r3, 12
    copy:  lw   r4, 0(r1)
           sw   r4, 0(r2)
           addi r1, r1, 4
           addi r2, r2, 4
           addi r3, r3, -1
           bnez r3, copy
           li   r12, SHARED
           addi r12, r12, 0x200
           li   r11, 20
    calls: jalr ra, r12, 0
           addi r11, r11, -1
           bnez r11, calls
           halt
    sub:   addi r5, r5, 1
           addi r6, r6, 3
           xor  r7, r5, r6
           add  r8, r8, r7
           slli r9, r8, 1
           mul  r10, r9, r5
           bnez r0, skip
           addi r5, r5, 2
    skip:  sub  r9, r9, r10
           or   r7, r7, r9
           and  r6, r6, r7
           ret
";

#[test]
fn fallback_paths_match() {
    for platform in [no_caches_bus(1), no_caches_bus(2)] {
        for seed in 500_000..500_003 {
            let what = format!("no caches, {} core(s), seed {seed}", platform.cores);
            at_halt(&platform, &seeded_program(seed, true, false), &what);
        }
        at_boundaries(&platform, &straight_loop(40), &[ODD_WINDOW, 5], "no caches");
    }
    let program = assemble(CODE_IN_SHARED_MEMORY).expect("valid asm");
    for cores in [1, 2] {
        let platform = PlatformConfig::paper_bus(cores);
        let what = format!("code in shared memory, {cores} core(s)");
        let mut pair = Pair::new(&platform, &program);
        pair.run_to_halt();
        pair.assert_same(&what);
        assert_eq!(pair.fast.core(0).regs().read(Reg::new(5)), 60, "{what}: the copy ran 20 times");
        at_boundaries(&platform, &program, &[ODD_WINDOW, 7], &what);
    }
}

/// Core 1 writes `first`, then 1, to the sniffer-enable register, while
/// the other cores store and load private words in a loop.
fn sniffer_toggle(first: u32) -> Program {
    let src = format!(
        "
        .equ MMIO, 0xFFFF0000
        start:  li   r1, MMIO
                lw   r2, 0(r1)
                li   r3, 1
                beq  r2, r3, toggle
                li   r4, 0x4000
                li   r5, 200
        loop:   sw   r5, 0(r4)
                lw   r6, 0(r4)
                addi r4, r4, 4
                addi r5, r5, -1
                bnez r5, loop
                halt
        toggle: li   r7, 40
        wait1:  addi r7, r7, -1
                bnez r7, wait1
                li   r8, {first}
                sw   r8, {MMIO_SNIFFER_CTRL}(r1)
                li   r7, 100
        wait2:  addi r7, r7, -1
                bnez r7, wait2
                sw   r3, {MMIO_SNIFFER_CTRL}(r1)
                halt
        "
    );
    assemble(&src).expect("valid asm")
}

#[test]
fn sniffers_switched_off_while_other_cores_run_private_accesses() {
    // Whether an access is logged depends on the sniffer-enable register
    // at the access's global time, so under event logging no core may run
    // its private accesses ahead of another core's write to it.
    let platform = event_logging_bus(4);
    let program = sniffer_toggle(0);
    at_halt(&platform, &program, "sniffers switched off and on");
    at_boundaries(&platform, &program, &[ODD_WINDOW, 13], "sniffers switched off and on");
    let logged = |program: &Program| {
        let mut pair = Pair::new(&platform, program);
        pair.run_to_halt();
        pair.fast.uncore().events().expect("event logging").total()
    };
    let (toggled, always_on) = (logged(&program), logged(&sniffer_toggle(1)));
    assert!(toggled < always_on, "the switched-off stretch logs nothing: {toggled} vs {always_on} events");
}
