//! Golden values of the closed loop: the FNV-1a hash of the whole run state
//! (`ThermalEmulation::checkpoint().to_bytes()`) after every window of the
//! three machines the benchmark's emulations run — 20 windows of the
//! paper's Fig. 6 run (MATRIX-TM on four cores with dual-threshold DFS), 40
//! two-millisecond windows of one dithering core behind the OPB bus, and 10
//! windows of the benchmark's `fine_mesh` run (the same kind of core on a
//! die meshed far finer, solved by strict serial multigrid).
//!
//! The state holds the machine (cores, caches, memories, interconnect,
//! sniffers, VPCM), the thermal field and its solver history, the link,
//! the DFS ladder, the trace and every cumulative counter, so a change in
//! any stage of the loop — ISS, power, link, thermal, sensors, policy —
//! fails here, where `iss_golden` runs the machine alone. The first two
//! runs solve the paper's mesh by Gauss–Seidel; the `fine_mesh` windows
//! pin every bit of the multigrid solver, which the 1e-4 K solver goldens
//! would let move. The first two take seconds in a release build, so they
//! are ignored in tier-1 and run from `scripts/check.sh`:
//!
//! ```text
//! cargo test --release -p temu-framework --test closed_loop_golden -- --include-ignored
//! ```
//!
//! The `fine_mesh` windows take well under a second in the test profile
//! and run in tier-1.
//!
//! A change that means to move the emulation updates these values and says
//! why.

use temu_framework::{fnv1a64, ImplicitSolve, Scenario, Workload};
use temu_platform::PlatformConfig;
use temu_thermal::{GridConfig, SweepMode};
use temu_workloads::dithering::DitherConfig;

/// The state hash after each of the first `windows` windows of `scenario`.
fn window_hashes(scenario: &Scenario, windows: usize) -> Vec<u64> {
    let mut emulation = scenario.build().expect("scenario builds");
    (0..windows)
        .map(|_| {
            emulation.run_window().expect("window runs");
            fnv1a64(&emulation.checkpoint().to_bytes())
        })
        .collect()
}

#[test]
#[ignore = "seconds in release; scripts/check.sh runs it"]
fn paper_fig6_state_after_every_window() {
    assert_eq!(
        window_hashes(&Scenario::paper_fig6(), 20),
        [
            0x5235_e0d3_e3c9_e546, 0x8449_ff7c_41a1_0911, 0x0ba3_e50a_538b_c6f5, 0x0eb7_1aeb_4104_642e,
            0x4ead_0ccd_d994_289a, 0x74d7_9ccd_30c0_d482, 0x74d2_a11c_9f4c_7e7a, 0x005c_3093_9fe8_bad7,
            0x8b7e_bcf1_ecc7_c383, 0x9aa6_701e_3e07_0a49, 0xe7e8_af02_a97e_ed4c, 0x2c1a_c0f2_3d24_eb77,
            0x4be4_4ff0_670a_ba7b, 0xfa3a_3bed_c218_12de, 0xedd1_10f6_f0d5_2811, 0xd251_ab26_3199_3de3,
            0x0622_1e80_7d6e_e109, 0x9d54_84ab_8e90_9f59, 0xd848_edae_0d1d_b932, 0x4df5_a720_d0d0_d5f1,
        ]
    );
}

#[test]
#[ignore = "seconds in release; scripts/check.sh runs it"]
fn exploration_bus_state_after_every_window() {
    assert_eq!(
        window_hashes(&Scenario::exploration_bus(1).sampling_window_s(0.002), 40),
        [
            0x3ab3_e1ce_71e2_79a2, 0x07a6_b2a6_7c95_2ddc, 0xf813_10fc_b121_008a, 0x63b3_cb29_e546_bded,
            0x1268_aa27_cc45_0b12, 0x0f5a_d764_0115_c988, 0xd903_b0fd_e929_6a97, 0x5db5_d50d_d982_bb77,
            0x39fe_917e_227e_05c4, 0xab63_4c58_4c0a_c796, 0xbe28_02d4_f0b0_1728, 0x340c_7a9a_a013_4a48,
            0x4aaa_7a08_538c_19d4, 0x43e2_f852_a04e_579d, 0xa66a_3ada_6c55_d19f, 0xdfc9_dce8_f686_e015,
            0x7f6b_1a6b_fae3_d10d, 0xc4dc_4fe5_5125_cd77, 0xa35d_d52d_3470_11a3, 0x7bcb_3c00_cbdf_3bca,
            0x0b61_b096_88f4_3111, 0x7712_e695_eb9f_f407, 0x685d_674f_b308_0478, 0x2f33_551c_8fc1_4c88,
            0x499e_7ff7_0bef_1c89, 0xc340_1586_4ec9_0207, 0xc9ab_5c72_3d66_fe41, 0x0582_cd01_9bf4_effc,
            0x488b_808e_10dd_e21f, 0x05d5_2e23_83a4_fc2a, 0x1af3_6c0f_14b2_539f, 0x0032_dd75_bc4b_fb8d,
            0x93c8_e7ab_f761_9c68, 0xaf4c_4e58_bbb4_435f, 0x5e7e_7892_4e2a_00d6, 0x8054_4c88_613c_6dcb,
            0xef6d_07ef_28ad_8545, 0xd280_84f8_c083_6756, 0x7f4d_d185_451e_1939, 0x4539_db46_3c27_42b4,
        ]
    );
}

/// The benchmark's `fine_mesh` run at seed 1: one bus core dithering
/// 128×128 images in 2 ms windows on an 18/36/120 µm mesh (14,876 cells,
/// four multigrid levels), solved by strict serial multigrid.
#[test]
fn fine_mesh_state_after_every_window() {
    let scenario = Scenario::new()
        .platform(PlatformConfig::paper_bus(1))
        .workload(Workload::Dithering { cfg: DitherConfig { width: 128, height: 128, images: 16, cores: 1 }, seed: 1 })
        .grid(GridConfig {
            default_div: 18,
            hot_div: 36,
            filler_pitch_um: 120.0,
            sweep: SweepMode::Serial,
            implicit_solve: ImplicitSolve::Multigrid,
            strict_convergence: true,
            ..GridConfig::default()
        })
        .sampling_window_s(0.002)
        .no_policy()
        .windows(40);
    assert_eq!(
        window_hashes(&scenario, 10),
        [
            0x54e8_6874_6f2a_f730, 0x7bd2_b767_8adf_5db0, 0xcba3_bb9f_9df7_438d, 0x2e1f_8e06_725a_290c,
            0x6aa6_0b45_e944_da01, 0x3843_c647_cac3_5ba6, 0xa615_4beb_fe5b_1c59, 0x363e_615e_f7f9_1fed,
            0xfc6e_3e4f_ff19_3fff, 0x9070_6a61_b048_2ad6,
        ]
    );
}
