//! `core.point_run_ns` records exactly one sample per executed point on
//! every run path: resumed runs and observed sweep points time their run
//! the same way fresh, unobserved ones do.
//!
//! Lives in its own test binary because the metrics registry is
//! process-global: runs in sibling tests would move the sample count.

use temu_framework::{CheckpointDecision, Scenario, Sweep, Workload};
use temu_workloads::matrix::MatrixConfig;

fn run_samples() -> u64 {
    temu_obs::global().histogram("core.point_run_ns").view().count()
}

#[test]
fn resumed_and_observed_points_each_record_one_run_span() {
    temu_obs::global().set_enabled(true);
    let scenario = Scenario::new()
        .cores(1)
        .workload(Workload::Matrix(MatrixConfig { n: 4, iters: 2, cores: 1 }))
        .sampling_window_s(0.0002)
        .windows(6);

    let mut emu = scenario.build().unwrap();
    let _ = emu.run_windows(2).unwrap();
    let state = emu.checkpoint();
    let before = run_samples();
    scenario.resume_run(&state).unwrap();
    assert_eq!(run_samples() - before, 1, "a resumed run records one span");

    let before = run_samples();
    let report = Sweep::new("spans", scenario)
        .windows(&[4, 6])
        .threads(1)
        .on_point(2, |_| CheckpointDecision::Continue)
        .run();
    assert!(report.all_ok(), "{}", report.to_json());
    assert_eq!(run_samples() - before, 2, "one span per observed sweep point");
}
