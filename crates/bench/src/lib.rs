//! # temu-bench — shared harness code for the table/figure generators
//!
//! Every table and figure of the paper's evaluation (§7) is regenerated by a
//! binary in `src/bin/` (see DESIGN.md §6 for the experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — 130 nm power values |
//! | `table2` | Table 2 — thermal properties |
//! | `table3` | Table 3 — emulator vs cycle-accurate-simulator timing |
//! | `fig3_grid` | Fig. 3 — cell decomposition / RC structure |
//! | `fig4_floorplans` | Fig. 4 — the two evaluation floorplans |
//! | `fig6` | Fig. 6 — Matrix-TM temperature evolution ± DFS |
//! | `thermal_speed` | §5.2 — "2 s / 660 cells / 1.65 s" solver claim |
//! | `resources` | §3–4 — FPGA utilization figures |
//! | `sniffer_scaling` | §4.1/§7 — sniffers are free; event logging congests |
//! | `arbitration` | §3.3 ablation — bus arbitration policies |
//!
//! Workload sizes are scaled relative to the paper (the paper's Matrix run
//! is 120 M cycles; two days of MPARM time is not a useful default) by the
//! `TEMU_SCALE` environment variable: `TEMU_SCALE=1.0` reproduces full
//! paper-sized workloads, the default of `0.05` keeps every binary under a
//! few minutes. Reports print both the scaled measurement and the
//! scale-independent throughput numbers the comparison actually relies on.

pub mod thermal_scaling;

use std::time::Duration;
use temu_des::{DesMachine, DesSummary};
use temu_framework::Workload;
use temu_platform::{Machine, PlatformConfig, RunSummary};

/// Workload scale factor from `TEMU_SCALE` (1.0 = paper size).
pub fn scale() -> f64 {
    std::env::var("TEMU_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(0.05)
}

/// Outcome of one Table 3 row measurement.
#[derive(Clone, Debug)]
pub struct RowMeasurement {
    /// Fast-engine summary (cycle counts, modeled FPGA time).
    pub fast: RunSummary,
    /// Baseline summary.
    pub des: DesSummary,
    /// Seconds the baseline would need for the full workload (equal to the
    /// measured wall time unless the baseline was time-boxed and
    /// extrapolated, as the paper's two-day MPARM figure effectively was).
    pub des_full_seconds: f64,
    /// Whether `des_full_seconds` is an extrapolation.
    pub des_extrapolated: bool,
}

impl RowMeasurement {
    /// The Table 3 speed-up: baseline time over modeled FPGA emulation time.
    pub fn speedup(&self) -> f64 {
        self.des_full_seconds / self.fast.fpga_seconds.max(1e-12)
    }
}

/// Runs a workload on both engines. The baseline is time-boxed to
/// `des_budget`; when the budget expires before completion, its full-run
/// time is extrapolated from the measured cycles-per-second rate.
pub fn measure_row(platform: &PlatformConfig, workload: &Workload, des_budget: Duration) -> RowMeasurement {
    let program = workload.program().expect("assembles");
    let mut fast = Machine::new(platform.clone()).expect("valid platform");
    fast.load_program_all(&program).expect("fits");
    workload.load_inputs(fast.shared_mut()).expect("inputs fit in shared memory");
    let fast_summary = fast.run_to_halt(u64::MAX).expect("workload runs");
    assert!(fast_summary.all_halted, "workload must complete on the fast engine");

    let mut des = DesMachine::new(platform.clone()).expect("valid platform");
    des.load_program_all(&program).expect("fits");
    workload.load_inputs(des.shared_mut()).expect("inputs fit in shared memory");
    let mut des_summary = des.run_slice(200_000).expect("baseline runs"); // warm slice
    let mut extrapolated = false;
    while !des.all_halted() {
        if des_summary.wall >= des_budget {
            extrapolated = true;
            break;
        }
        let next = des.run_slice(1_000_000).expect("baseline runs");
        des_summary = DesSummary {
            cycles: next.cycles,
            instructions: next.instructions,
            all_halted: next.all_halted,
            wall: des_summary.wall + next.wall,
            signal_transitions: next.signal_transitions,
            commits: next.commits,
        };
    }
    let des_full_seconds = if extrapolated {
        let rate = des_summary.cycles as f64 / des_summary.wall.as_secs_f64().max(1e-9);
        fast_summary.cycles as f64 / rate
    } else {
        des_summary.wall.as_secs_f64()
    };
    RowMeasurement { fast: fast_summary, des: des_summary, des_full_seconds, des_extrapolated: extrapolated }
}

/// Formats seconds the way the paper's Table 3 does (`5' 23 sec`, `1.2 sec`).
pub fn fmt_seconds(s: f64) -> String {
    if s >= 86_400.0 {
        format!("{:.1} days", s / 86_400.0)
    } else if s >= 60.0 {
        format!("{}' {:02.0} sec", (s / 60.0) as u64, s % 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} sec")
    } else {
        format!("{:.1} ms", s * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temu_workloads::dithering::DitherConfig;
    use temu_workloads::matrix::MatrixConfig;

    #[test]
    fn measure_row_completes_and_speedup_positive() {
        let platform = PlatformConfig::paper_bus(1);
        let row = measure_row(
            &platform,
            &Workload::Matrix(MatrixConfig { n: 6, iters: 1, cores: 1 }),
            Duration::from_secs(10),
        );
        assert!(row.fast.all_halted);
        assert_eq!(row.fast.cycles, row.des.cycles.max(row.fast.cycles), "engines agree when both complete");
        assert!(row.speedup() > 1.0, "the modeled FPGA beats the cycle-driven baseline");
        assert!(!row.des_extrapolated);
    }

    #[test]
    fn extrapolation_kicks_in_under_tiny_budget() {
        let platform = PlatformConfig::paper_bus(2);
        let row = measure_row(
            &platform,
            &Workload::Matrix(MatrixConfig { n: 16, iters: 40, cores: 2 }),
            Duration::from_millis(1),
        );
        assert!(row.des_extrapolated);
        assert!(row.des_full_seconds > row.des.wall.as_secs_f64() * 0.5);
    }

    #[test]
    fn fmt_seconds_ranges() {
        assert_eq!(fmt_seconds(1.2), "1.20 sec");
        assert_eq!(fmt_seconds(0.18), "180.0 ms");
        assert!(fmt_seconds(323.0).starts_with("5'"));
        assert!(fmt_seconds(2.0 * 86_400.0).contains("days"));
    }

    #[test]
    fn scale_is_positive() {
        assert!(scale() > 0.0);
    }

    #[test]
    fn dither_workload_loads_on_both_engines() {
        let platform = PlatformConfig::paper_bus(2);
        let w = Workload::Dithering { cfg: DitherConfig::small(2), seed: 11 };
        let row = measure_row(&platform, &w, Duration::from_secs(20));
        assert!(row.fast.all_halted);
        assert!(row.des.all_halted);
        assert_eq!(row.fast.cycles, row.des.cycles);
    }
}
