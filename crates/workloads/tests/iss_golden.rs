//! Golden values of the ISS: the FNV-1a hash of `Machine::save_state`
//! after each of three short windows, on the two machines the benchmark's
//! emulations run — MATRIX-TM on `paper_thermal(4)` (`fig6`) and one core
//! dithering on `paper_bus(1)` (`served`, `fine_mesh`).
//!
//! The state holds every core's registers, PC, local clock, parked access
//! and counters, and the memory system's cache tags, LRU stamps, access
//! ticks, memories and device counters, so a change to any of their bits
//! fails here. The `temu-des` differentials cannot catch a change in
//! `Cpu::execute`, which both engines share. The machines run through
//! `Machine::run_until`, which takes no statistics, so the counters
//! accumulate across the windows. A change that means to move the emulated
//! timing updates these values and says why.

use temu_platform::{Machine, PlatformConfig};
use temu_state::{fnv1a64, StateWriter};
use temu_workloads::dithering::{self, DitherConfig};
use temu_workloads::image::GreyImage;
use temu_workloads::matrix::{self, MatrixConfig};
use temu_workloads::SHARED_BASE;

/// Cycles per window.
const WINDOW: u64 = 250_000;

/// The state hash after each of three windows; every core must still be
/// running at the end, so all three windows execute code.
fn window_hashes(mut machine: Machine) -> [u64; 3] {
    let mut hashes = [0; 3];
    for (i, hash) in (1..).zip(hashes.iter_mut()) {
        machine.run_until(WINDOW * i).expect("no faults");
        let mut w = StateWriter::new(*b"GOLD", 1);
        machine.save_state(&mut w);
        *hash = fnv1a64(&w.into_bytes());
    }
    assert!((0..machine.num_cores()).all(|c| !machine.core(c).is_halted()), "every core runs all three windows");
    hashes
}

#[test]
fn matrix_tm_on_the_thermal_platform() {
    let mut machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
    machine.load_program_all(&matrix::program(&MatrixConfig::thermal(4, 20_000)).unwrap()).unwrap();
    assert_eq!(window_hashes(machine), [0xf8ed_925f_3497_3f23, 0x0f96_c76a_87f3_ca1f, 0xfdbc_ad5b_adb9_ca00]);
}

#[test]
fn dithering_on_one_bus_core() {
    let cfg = DitherConfig { width: 64, height: 64, images: 2, cores: 1 };
    let mut machine = Machine::new(PlatformConfig::paper_bus(1)).unwrap();
    machine.load_program_all(&dithering::program(&cfg).unwrap()).unwrap();
    for i in 0..cfg.images {
        let image = GreyImage::synthetic(64, 64, 7 + u64::from(i));
        machine.shared_mut().load(cfg.image_addr(i) - SHARED_BASE, &image.pixels).unwrap();
    }
    assert_eq!(window_hashes(machine), [0xd431_d915_68c0_9a01, 0xbaba_28d8_6586_389d, 0x2169_0aa9_fac4_68e6]);
}
