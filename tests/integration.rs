//! Workspace-level integration tests: full flows across crates through the
//! `temu` facade — platform + workloads + thermal + link + framework + DES.

use temu::des::DesMachine;
use temu::framework::{EmulationConfig, ThermalEmulation};
use temu::isa::Width;
use temu::platform::{DfsPolicy, Machine, PlatformConfig};
use temu::power::floorplans::{fig4a_arm7, fig4b_arm11};
use temu::workloads::dithering::{self, DitherConfig};
use temu::workloads::image::GreyImage;
use temu::workloads::matrix::{self, MatrixConfig};

/// The whole Fig. 5 flow on the Dithering workload: emulate, extract
/// statistics, heat the die, verify the output is still bit-exact.
#[test]
fn closed_loop_dithering_with_thermal_model() {
    let mut machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
    let wl = DitherConfig { width: 64, height: 64, images: 2, cores: 4 };
    machine.load_program_all(&dithering::program(&wl).unwrap()).unwrap();
    let mut references = Vec::new();
    for i in 0..wl.images {
        let img = GreyImage::synthetic(64, 64, 500 + u64::from(i));
        let off = wl.image_addr(i) - temu::workloads::SHARED_BASE;
        machine.shared_mut().load(off, &img.pixels).unwrap();
        let mut r = img;
        dithering::reference_dither(&mut r, wl.cores);
        references.push(r);
    }

    let cfg = EmulationConfig { sampling_window_s: 0.002, ..EmulationConfig::default() };
    let mut emu = ThermalEmulation::new(machine, fig4b_arm11(), cfg).unwrap();
    let report = emu.run_to_halt(5_000).unwrap();
    assert!(report.all_halted, "dithering finished inside the window budget");
    assert!(report.windows >= 1);
    assert!(emu.model().max_temp() > 300.0, "the die heated");
    assert!(emu.link().stats().frames >= report.windows, "statistics shipped every window");

    for (i, reference) in references.iter().enumerate() {
        let off = wl.image_addr(i as u32) - temu::workloads::SHARED_BASE;
        assert_eq!(
            emu.machine().shared().slice(off, 64 * 64),
            &reference.pixels[..],
            "image {i} still bit-exact under the thermal loop"
        );
    }
}

/// DFS genuinely trades performance for temperature: the managed run is
/// cooler but needs more windows for the same work.
#[test]
fn dfs_trades_time_for_temperature() {
    let build = |policy| {
        let mut machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
        let wl = MatrixConfig { n: 12, iters: 120, cores: 4 };
        machine.load_program_all(&matrix::program(&wl).unwrap()).unwrap();
        let cfg = EmulationConfig { sampling_window_s: 0.001, policy, ..EmulationConfig::default() };
        ThermalEmulation::new(machine, fig4b_arm11(), cfg).unwrap()
    };
    // A policy with thresholds low enough to trip on a short test run.
    let policy = DfsPolicy::new(300.8, 300.4, 500_000_000, 100_000_000).unwrap();

    let mut fast = build(None);
    let fast_report = fast.run_to_halt(100_000).unwrap();
    let mut managed = build(Some(policy));
    let managed_report = managed.run_to_halt(100_000).unwrap();

    assert!(fast_report.all_halted && managed_report.all_halted);
    assert!(managed.trace().throttled_fraction() > 0.0, "the policy engaged");
    assert!(
        managed_report.windows > fast_report.windows,
        "throttled run needs more windows ({} vs {})",
        managed_report.windows,
        fast_report.windows
    );
    let (managed_peak, fast_peak) =
        (managed.trace().peak_temp().unwrap(), fast.trace().peak_temp().unwrap());
    assert!(
        managed_peak <= fast_peak + 1e-9,
        "and never runs hotter ({managed_peak:.2} vs {fast_peak:.2})"
    );
}

/// The two floorplans of Fig. 4 behave as the paper describes: the ARM7
/// platform at 100 MHz stays nearly ambient, the ARM11 one at 500 MHz heats
/// visibly (that is why the thermal study uses ARM11).
#[test]
fn arm7_runs_cool_arm11_runs_hot() {
    let run = |arm11: bool| {
        let mut platform = PlatformConfig::paper_thermal(4);
        if !arm11 {
            platform.virtual_hz = 100_000_000;
        }
        let mut machine = Machine::new(platform).unwrap();
        let wl = MatrixConfig { n: 12, iters: 100_000, cores: 4 };
        machine.load_program_all(&matrix::program(&wl).unwrap()).unwrap();
        let map = if arm11 { fig4b_arm11() } else { fig4a_arm7() };
        let cfg = EmulationConfig { sampling_window_s: 0.004, ..EmulationConfig::default() };
        let mut emu = ThermalEmulation::new(machine, map, cfg).unwrap();
        let _ = emu.run_windows(25).unwrap();
        emu.trace().peak_temp().unwrap()
    };
    let arm7_peak = run(false);
    let arm11_peak = run(true);
    assert!(arm7_peak < 301.0, "ARM7 @ 100 MHz stays near ambient: {arm7_peak:.2} K");
    assert!(arm11_peak > arm7_peak + 2.0, "ARM11 @ 500 MHz heats: {arm11_peak:.2} K");
}

/// Cross-engine agreement through the facade: the fast engine and the
/// cycle-driven baseline agree on cycles and on memory contents.
#[test]
fn facade_cross_engine_agreement() {
    let platform = PlatformConfig::paper_noc(4);
    let wl = MatrixConfig { n: 8, iters: 2, cores: 4 };
    let program = matrix::program(&wl).unwrap();

    let mut fast = Machine::new(platform.clone()).unwrap();
    fast.load_program_all(&program).unwrap();
    let f = fast.run_to_halt(u64::MAX).unwrap();

    let mut des = DesMachine::new(platform).unwrap();
    des.load_program_all(&program).unwrap();
    let d = des.run_to_halt(u64::MAX).unwrap();

    assert_eq!(f.cycles, d.cycles);
    let off = matrix::layout().total_addr - temu::workloads::SHARED_BASE;
    assert_eq!(
        fast.shared().read(off, Width::Word).unwrap(),
        des.shared().read(off, Width::Word).unwrap()
    );
    assert_eq!(fast.shared().read(off, Width::Word).unwrap(), matrix::reference_total(&wl));
}

/// Long-running thermal observation: virtual time accumulates correctly and
/// the modeled FPGA time exceeds virtual time by the 5x frequency ratio.
#[test]
fn vpcm_time_accounting_500mhz() {
    let mut machine = Machine::new(PlatformConfig::paper_thermal(4)).unwrap();
    let wl = MatrixConfig { n: 12, iters: 100_000, cores: 4 };
    machine.load_program_all(&matrix::program(&wl).unwrap()).unwrap();
    let mut emu = ThermalEmulation::new(machine, fig4b_arm11(), EmulationConfig::default()).unwrap();
    let report = emu.run_windows(10).unwrap();
    assert!((report.virtual_seconds - 0.10).abs() < 1e-9, "10 windows x 10 ms");
    // 10 ms at 500 MHz virtual = 5 M cycles = 50 ms of 100 MHz FPGA time.
    assert!(
        (report.fpga_seconds - 0.50).abs() < 0.01,
        "FPGA time {:.3} s should be ~5x virtual time",
        report.fpga_seconds
    );
}
