//! Randomized differential testing: arbitrary (well-formed, halting) TE32
//! programs must produce identical cycle counts, register-visible results
//! and shared-memory contents on the fast engine and the cycle-driven
//! baseline. This is the strongest form of the cross-validation requirement
//! behind Table 3.
//!
//! The tier-1 cases take a few seeds per platform; the `#[ignore]`d
//! `long_differential_every_platform` runs 100 seeds on each, to halt and
//! window by window (`scripts/check.sh` runs it in release):
//!
//! ```text
//! cargo test --release -p temu-des --test random_programs -- --include-ignored
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temu_des::DesMachine;
use temu_interconnect::Arbitration;
use temu_isa::asm::assemble;
use temu_isa::Program;
use temu_platform::{Machine, PlatformConfig};

/// Generates a halting SPMD program: a bounded outer loop over a block of
/// random ALU operations and private/shared loads and stores, ending in a
/// barrier-free halt. All memory accesses are word-aligned and in range.
fn random_program(rng: &mut StdRng, shared_heavy: bool) -> String {
    let mut src = String::from(
        ".equ MMIO, 0xFFFF0000\n\
         .equ SHARED, 0x10000000\n\
         start:\n\
             li r1, MMIO\n\
             lw s7, 0(r1)\n\
             li s6, 40\n\
         outer:\n",
    );
    let ops = rng.gen_range(10..60);
    for _ in 0..ops {
        let rd = rng.gen_range(2..12);
        let rs1 = rng.gen_range(1..12);
        let rs2 = rng.gen_range(1..12);
        match rng.gen_range(0..10) {
            0 => src.push_str(&format!("    add r{rd}, r{rs1}, r{rs2}\n")),
            1 => src.push_str(&format!("    sub r{rd}, r{rs1}, r{rs2}\n")),
            2 => src.push_str(&format!("    xor r{rd}, r{rs1}, r{rs2}\n")),
            3 => src.push_str(&format!("    mul r{rd}, r{rs1}, r{rs2}\n")),
            4 => src.push_str(&format!("    addi r{rd}, r{rs1}, {}\n", rng.gen_range(-100..100))),
            5 => src.push_str(&format!("    slli r{rd}, r{rs1}, {}\n", rng.gen_range(0..31))),
            6 => {
                // Private memory access, word-aligned, inside 0x4000..0x8000.
                let off = rng.gen_range(0..0x400) * 4;
                src.push_str(&format!("    li r13, {}\n", 0x4000 + off));
                if rng.gen_bool(0.5) {
                    src.push_str(&format!("    lw r{rd}, 0(r13)\n"));
                } else {
                    src.push_str(&format!("    sw r{rs1}, 0(r13)\n"));
                }
            }
            7 if shared_heavy => {
                // Shared memory access (word-aligned, per-core slot region).
                let off = rng.gen_range(0..0x100) * 4;
                src.push_str("    li r13, SHARED\n");
                src.push_str(&format!("    addi r13, r13, {off}\n"));
                if rng.gen_bool(0.5) {
                    src.push_str(&format!("    lw r{rd}, 0(r13)\n"));
                } else {
                    src.push_str(&format!("    sw r{rs1}, 0(r13)\n"));
                }
            }
            7 => src.push_str(&format!("    sltu r{rd}, r{rs1}, r{rs2}\n")),
            8 => src.push_str(&format!("    div r{rd}, r{rs1}, r{rs2}\n")),
            _ => src.push_str(&format!("    srl r{rd}, r{rs1}, r{rs2}\n")),
        }
    }
    src.push_str(
        "    addi s6, s6, -1\n\
             bnez s6, outer\n\
             halt\n",
    );
    src
}

fn seeded_program(seed: u64, shared_heavy: bool) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    assemble(&random_program(&mut rng, shared_heavy)).expect("generator emits valid asm")
}

fn cross_validate(seed: u64, platform: PlatformConfig, shared_heavy: bool) {
    let program = seeded_program(seed, shared_heavy);

    let mut fast = Machine::new(platform.clone()).unwrap();
    fast.load_program_all(&program).unwrap();
    let f = fast.run_to_halt(50_000_000).unwrap();
    assert!(f.all_halted, "random programs halt by construction");

    let mut des = DesMachine::new(platform).unwrap();
    des.load_program_all(&program).unwrap();
    let d = des.run_to_halt(50_000_000).unwrap();
    assert!(d.all_halted);

    assert_eq!(f.cycles, d.cycles, "seed {seed}: cycle counts diverged");
    assert_eq!(f.instructions, d.instructions, "seed {seed}: instruction counts diverged");
    for core in 0..fast.num_cores() {
        for r in 0..32 {
            let reg = temu_isa::Reg::new(r);
            assert_eq!(
                fast.core(core).regs().read(reg),
                des.core(core).regs().read(reg),
                "seed {seed}: core {core} r{r} diverged"
            );
        }
    }
    assert_eq!(
        fast.shared().slice(0, 0x500),
        des.shared().slice(0, 0x500),
        "seed {seed}: shared memory diverged"
    );
}

#[test]
fn random_programs_single_core_bus() {
    for seed in 0..12 {
        cross_validate(seed, PlatformConfig::paper_bus(1), true);
    }
}

#[test]
fn random_programs_four_cores_bus_shared_heavy() {
    for seed in 100..108 {
        cross_validate(seed, PlatformConfig::paper_bus(4), true);
    }
}

#[test]
fn random_programs_four_cores_noc_shared_heavy() {
    for seed in 200..208 {
        cross_validate(seed, PlatformConfig::paper_noc(4), true);
    }
}

#[test]
fn random_programs_eight_cores() {
    for seed in 300..304 {
        cross_validate(seed, PlatformConfig::paper_bus(8), true);
    }
}

/// Stops both engines at every boundary of `window`-cycle windows
/// (`Machine::run_window` vs `DesMachine::run_slice`) and compares every
/// core there: halt state, PC, a parked data access, retired instructions,
/// registers, and the local time of every core still running (a halted
/// core's time differs by design: the fast engine books the rest of each
/// window as idle).
fn cross_validate_windows(seed: u64, platform: PlatformConfig, shared_heavy: bool, window: u64) {
    let program = seeded_program(seed, shared_heavy);
    let mut fast = Machine::new(platform.clone()).unwrap();
    fast.load_program_all(&program).unwrap();
    let mut des = DesMachine::new(platform).unwrap();
    des.load_program_all(&program).unwrap();
    let mut instret = vec![0u64; fast.num_cores()];
    let mut boundary = 0;
    while !fast.all_halted() {
        boundary += window;
        assert!(boundary <= 50_000_000, "seed {seed}: random programs halt by construction");
        let stats = fast.run_window(window).unwrap();
        des.run_slice(window).unwrap();
        for (core, retired) in instret.iter_mut().enumerate() {
            *retired += stats.cores[core].instructions;
            let (f, d) = (fast.core(core), des.core(core));
            let at = format!("seed {seed}: core {core} at cycle {boundary}");
            assert_eq!(f.is_halted(), d.is_halted(), "{at}: halt state diverged");
            assert_eq!(f.pc(), d.pc(), "{at}: pc diverged");
            assert_eq!(f.mid_instruction(), d.mid_instruction(), "{at}: parked access diverged");
            assert_eq!(*retired, d.stats().instructions, "{at}: instret diverged");
            if !f.is_halted() {
                assert_eq!(f.time(), d.time(), "{at}: local time diverged");
            }
            for r in 0..32 {
                let reg = temu_isa::Reg::new(r);
                assert_eq!(f.regs().read(reg), d.regs().read(reg), "{at}: r{r} diverged");
            }
        }
    }
    assert!(des.all_halted(), "seed {seed}: the baseline halts with the fast engine");
    assert_eq!(fast.shared().slice(0, 0x500), des.shared().slice(0, 0x500), "seed {seed}: shared memory diverged");
}

/// An odd window length, so boundaries fall at every phase of the
/// programs' loops and mid-instruction.
const ODD_WINDOW: u64 = 997;

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

fn tdma_bus(cores: usize) -> PlatformConfig {
    PlatformConfig::paper_custom_bus(cores, Arbitration::Tdma { slot_cycles: 16 })
}

/// Every platform the differential covers, and whether its programs hit
/// shared memory (private-only programs let the fast engine run whole
/// windows of one core ahead of the others).
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
        (tdma_bus(4), true),
        (PlatformConfig::paper_bus(4), false),
        (PlatformConfig::paper_thermal(4), false),
    ]
}

#[test]
fn random_programs_shared_cacheable() {
    for seed in 400..406 {
        cross_validate(seed, shared_cacheable_bus(4), true);
    }
}

#[test]
fn random_programs_no_caches() {
    for seed in 500..506 {
        cross_validate(seed, no_caches_bus(2), true);
    }
}

#[test]
fn random_programs_round_robin_bus() {
    for seed in 600..606 {
        cross_validate(seed, PlatformConfig::paper_custom_bus(4, Arbitration::RoundRobin), true);
    }
}

#[test]
fn random_programs_tdma_bus() {
    for seed in 700..706 {
        cross_validate(seed, tdma_bus(4), true);
    }
}

#[test]
fn random_programs_four_cores_private_only() {
    for seed in 800..804 {
        cross_validate(seed, PlatformConfig::paper_bus(4), false);
        cross_validate(seed, PlatformConfig::paper_thermal(4), false);
    }
}

#[test]
fn random_programs_window_boundaries() {
    for (i, (platform, shared_heavy)) in every_platform().into_iter().enumerate() {
        cross_validate_windows(900 + i as u64, platform, shared_heavy, ODD_WINDOW);
    }
}

#[test]
#[ignore = "long: 100 seeds per platform; run in release by scripts/check.sh"]
fn long_differential_every_platform() {
    // Seeds are distinct per platform, so a failing seed names its platform.
    for (i, (platform, shared_heavy)) in every_platform().into_iter().enumerate() {
        let base = 10_000 * (i as u64 + 1);
        for seed in base..base + 100 {
            cross_validate(seed, platform.clone(), shared_heavy);
            cross_validate_windows(seed, platform.clone(), shared_heavy, ODD_WINDOW);
        }
    }
}
