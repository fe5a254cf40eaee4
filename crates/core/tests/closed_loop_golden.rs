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
//! the DFS ladder, the trace and the aggregate statistics, so a change in
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
//!
//! The hashes pin the `EMUS` layout too: a change to what a state holds
//! or how it is written (its version word included) moves every one of
//! them although no emulated bit moved. Such a change re-captures them in
//! a commit that changes only the state's writers, readers and version
//! words, so that commit shows that only the layout moved; a commit that
//! then deletes what the stream no longer carries moves none of them.

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
            0x0c44_3724_6b33_97a2, 0xbe85_4b9a_a883_835f, 0xa76c_f280_7bd2_5b09, 0xdf03_3cd3_64d4_441d,
            0x8b0c_d520_48be_553c, 0xb872_3d84_a37e_d212, 0xfec7_3da2_3215_5f38, 0x9ef8_3aa4_3e62_9af5,
            0xb26a_f7fc_1af1_d0a8, 0x4741_4c44_c904_5131, 0xea6c_30c1_bc5b_dfbb, 0x14bf_952a_fcdf_f1d5,
            0x5ee7_d171_33e9_3401, 0x3516_4954_bec5_df6e, 0x14ab_97b7_058b_60a6, 0xf42b_df10_430a_3190,
            0x6f01_6a43_3a70_b80b, 0x2c48_d86c_e291_c319, 0x5300_4963_49ad_a73d, 0xd82c_849f_1714_82b5,
        ]
    );
}

#[test]
#[ignore = "seconds in release; scripts/check.sh runs it"]
fn exploration_bus_state_after_every_window() {
    assert_eq!(
        window_hashes(&Scenario::exploration_bus(1).sampling_window_s(0.002), 40),
        [
            0xbab1_3dd8_18ab_34d0, 0xe560_b2b5_3830_90cf, 0x3e5c_04c4_d069_4ad5, 0xd22d_1852_d18e_09ae,
            0x4f61_b14d_3575_7958, 0x354c_b61d_b927_d517, 0x7373_d47f_1a0b_8532, 0x3397_eef7_8830_6ddf,
            0x7387_a0cc_b908_4545, 0x231a_72cb_219a_003f, 0x8f42_22ff_1b44_644b, 0x5b86_e3d7_b86b_845c,
            0x77bb_ae39_29e9_4323, 0x6695_d2cf_f124_4627, 0x5f58_461f_9415_de25, 0xdf29_309f_5d6f_0b2b,
            0x3a7c_6ef9_4fc9_74ee, 0xc3f6_8627_fdf9_bba3, 0xbedb_32f1_74da_b9fc, 0xdc28_af6b_ef8e_2bda,
            0x4602_763e_6c7a_21e6, 0x12de_bd47_251b_648c, 0x8432_ab02_feab_1a9e, 0x1bdd_63bf_8c0e_762a,
            0x80ef_a8cd_139c_5f76, 0xd86f_7537_eda5_9f91, 0x5ca2_33eb_b1c4_8f8e, 0x1b78_8575_6284_b5f3,
            0x476c_a06b_0642_c3b0, 0xf6ca_50bc_b2fd_df39, 0x40f2_165c_31c5_d717, 0x0f57_82d4_4d91_1f25,
            0xca07_55f9_f8ee_921d, 0xc314_2621_d75d_00ab, 0x64a3_3833_cf5a_d1ed, 0x7914_2409_c975_80bf,
            0x21e0_d126_c9a0_c7ae, 0x858c_12e5_9fbb_776a, 0xd2e3_4dfb_3508_2417, 0x33a7_3978_ea1f_2f6f,
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
            0xecea_4692_2cde_8286, 0x9b9f_1bde_f8b1_1c00, 0xf0b1_055a_3161_1345, 0xe7be_0fd2_1b24_46ec,
            0xec38_4543_4cec_c790, 0x5162_db0b_b337_09cf, 0xf8c1_b5ef_e577_8040, 0x3fc7_148e_21c7_b622,
            0xe481_cec9_1610_9d7f, 0x0d4c_f482_d7fa_c041,
        ]
    );
}
