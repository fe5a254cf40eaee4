//! The tier-1 bench-smoke gate: the two smallest scaling rungs must run
//! without panic or NaN, and the committed `BENCH_thermal.json` format must
//! serialize. (The release-mode equivalent is
//! `cargo run --release -p temu-bench --bin thermal_scaling -- --smoke`.)

use temu_bench::thermal_scaling;
use temu_framework::{Campaign, ImplicitSolve, ResultCache, Scenario, Sweep, Workload};
use temu_workloads::matrix::MatrixConfig;

#[test]
fn thermal_scaling_smoke() {
    // Tiny budget: this runs in debug mode under `cargo test`. `run`
    // itself asserts that no multigrid case accepted an unconverged
    // substep — that non-convergence gate is part of this smoke test.
    let report = thermal_scaling::run(true, 0.02);
    assert!(report.smoke);
    // 2 rungs × (semi-implicit: 2 gs sweeps + 1 mg; explicit: 1).
    assert_eq!(report.cases.len(), 8);
    let mut mg_cases = 0;
    for c in &report.cases {
        assert!(c.substeps > 0, "{}/{}/{} did no work", c.mesh, c.integrator, c.sweep);
        assert!(c.substeps_per_s.is_finite() && c.substeps_per_s > 0.0);
        assert!(c.max_temp_k.is_finite() && c.max_temp_k >= 300.0, "{}: bad max temp", c.mesh);
        if c.solver == "mg" {
            mg_cases += 1;
            assert_eq!(c.unconverged, 0, "{}: multigrid must converge every substep", c.mesh);
        }
    }
    assert_eq!(mg_cases, 2, "one multigrid case per smoke rung");
    assert_eq!(report.builds.len(), 2);
    let json = report.to_json();
    assert!(json.contains("\"cases\""));
    assert!(json.contains("\"speedup_vs_reference\""));
    assert!(json.contains("\"unconverged_substeps\""));
    assert!(json.contains("\"solver\": \"mg\""));
}

/// A three-scenario mini campaign must run end to end (debug mode, tiny
/// workloads) and export a well-formed report — the batch-runner smoke
/// gate. The third scenario runs the multigrid implicit solver in strict
/// mode, so any substep-level non-convergence fails the gate loudly.
#[test]
fn mini_campaign_smoke() {
    let report = Campaign::new()
        .scenario(Scenario::exploration_bus(1).sampling_window_s(0.002))
        .scenario(Scenario::exploration_noc(1).sampling_window_s(0.002))
        .scenario(
            Scenario::exploration_bus(1)
                .sampling_window_s(0.002)
                .implicit_solve(ImplicitSolve::Multigrid)
                .strict_convergence(true)
                .name("strict-multigrid"),
        )
        .threads(2)
        .run();
    assert_eq!(report.results.len(), 3);
    assert!(report.all_ok(), "{}", report.to_json());
    let json = report.to_json();
    assert!(json.contains("1core-bus-dither-64x64x2"));
    assert!(json.contains("1core-noc-dither-64x64x2"));
    assert!(json.contains("strict-multigrid"));
    assert!(json.contains("\"ok\": true"));
    assert!(json.contains("\"unconverged_substeps\": 0"));
    let mg = report.results[2].outcome.as_ref().unwrap();
    assert_eq!(mg.report.solver.unconverged_substeps, 0);
    assert!(mg.report.solver.total_cycles > 0, "multigrid cycles were spent");
    assert_eq!(report.to_csv().lines().count(), 4, "header + 3 rows");
}

/// The debug-mode twin of `sweep -- --smoke` (the release gate in
/// check.sh): a strict-convergence mini sweep over workload × solver must
/// run clean through `Campaign`, and its identical re-run must be 100%
/// cache hits with zero scenario executions.
#[test]
fn mini_sweep_smoke() {
    let tiny = |iters: u32| Workload::Matrix(MatrixConfig { n: 4, iters, cores: 1 });
    let base = Scenario::new().cores(1).workload(tiny(1)).sampling_window_s(0.0005).windows(2);
    let base = base.strict_convergence(true);
    let build = || {
        Sweep::new("smoke", base.clone())
            .workloads((1..=3).map(tiny).collect())
            .implicit_solves(&[ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid])
            .threads(2)
    };
    let cache = ResultCache::in_memory();
    let first = build().run_cached(&cache);
    assert_eq!(first.points.len(), 6);
    assert!(first.all_ok(), "{}", first.to_json());
    assert_eq!(first.executed, 6);
    for p in &first.points {
        assert_eq!(p.outcome.as_ref().unwrap().unconverged_substeps, 0, "{} converged", p.label);
    }
    let rerun = build().run_cached(&cache);
    assert_eq!(rerun.executed, 0, "identical re-run executes nothing");
    assert_eq!(rerun.cache_hits, 6);
    assert!(rerun.to_json().contains("\"cache_hit\": true"));
}
