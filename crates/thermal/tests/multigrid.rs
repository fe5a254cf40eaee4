//! The headline bugfix contract: on meshes where warm-started SOR
//! Gauss–Seidel exhausts its sweep budget (the silent non-convergence the
//! committed `huge` bench row used to hide), the multigrid solver must
//! converge every substep — and the accounting/strict machinery must
//! surface the Gauss–Seidel failure instead of letting it pass silently.

use temu_thermal::{
    Floorplan, GridConfig, ImplicitSolve, Integrator, SweepMode, ThermalError, ThermalModel,
};

/// A ~37k-cell uniform mesh (96×96 tiles × 4 layers) at the default 5e-4 s
/// substep: fine enough that plain Gauss–Seidel's contraction collapses.
fn big_config(solve: ImplicitSolve) -> (Floorplan, GridConfig) {
    let mut fp = Floorplan::new("big", 2000.0, 2000.0);
    fp.add_component("all", 0.0, 0.0, 2000.0, 2000.0, true);
    let cfg = GridConfig {
        hot_div: 96,
        integrator: Integrator::SemiImplicit { dt: 5e-4 },
        sweep: SweepMode::Serial,
        implicit_solve: solve,
        ..GridConfig::default()
    };
    (fp, cfg)
}

fn big_model(solve: ImplicitSolve, strict: bool) -> ThermalModel {
    let (fp, cfg) = big_config(solve);
    let cfg = GridConfig { strict_convergence: strict, ..cfg };
    let mut m = ThermalModel::new(&fp, &cfg).unwrap();
    m.set_component_power(0, 8.0);
    m
}

#[test]
fn gauss_seidel_hits_the_sweep_cap_where_multigrid_converges() {
    // The bug being fixed: Gauss–Seidel accepts unconverged substeps on
    // this mesh — and now says so.
    let mut gs = big_model(ImplicitSolve::GaussSeidel, false);
    gs.step(0.002); // 4 substeps
    let gs_stats = gs.solver_stats();
    assert!(
        gs_stats.unconverged_substeps > 0,
        "the mesh must exercise the failure mode (stats {gs_stats:?})"
    );
    assert!(gs_stats.worst_residual_k > 0.0, "the worst residual is recorded");

    // The fix: multigrid converges every substep on the same mesh.
    let mut mg = big_model(ImplicitSolve::Multigrid, false);
    assert!(mg.uses_multigrid());
    mg.step(0.002);
    let mg_stats = mg.solver_stats();
    assert_eq!(mg_stats.unconverged_substeps, 0, "stats {mg_stats:?}");
    assert!(mg_stats.total_cycles > 0, "the hierarchy was actually used");
    assert!(mg.multigrid_levels().unwrap() >= 3, "a real hierarchy was built");
    assert!(mg.max_temp().is_finite() && mg.max_temp() > 300.0);
}

#[test]
fn strict_mode_rejects_the_unconverged_substep() {
    let mut gs = big_model(ImplicitSolve::GaussSeidel, true);
    let err = gs.try_step(0.002).unwrap_err();
    assert!(
        matches!(err, ThermalError::NotConverged { .. }),
        "strict Gauss–Seidel surfaces the failure: {err:?}"
    );
    // The error message carries the diagnosis.
    let msg = err.to_string();
    assert!(msg.contains("did not converge"), "{msg}");

    let mut mg = big_model(ImplicitSolve::Multigrid, true);
    mg.try_step(0.002).expect("strict multigrid converges");
}

#[test]
fn auto_resolves_by_cell_count() {
    // The big mesh is far above the default threshold.
    let auto = big_model(ImplicitSolve::Auto, false);
    assert!(auto.uses_multigrid());
    // A paper-scale mesh stays on Gauss–Seidel under Auto.
    let mut fp = Floorplan::new("small", 2000.0, 2000.0);
    fp.add_component("all", 0.0, 0.0, 2000.0, 2000.0, false);
    let small = ThermalModel::new(&fp, &GridConfig::default()).unwrap();
    assert!(!small.uses_multigrid());
    // The explicit integrator never multigrids.
    let explicit = GridConfig {
        integrator: Integrator::Explicit,
        implicit_solve: ImplicitSolve::Multigrid,
        ..GridConfig::default()
    };
    let m = ThermalModel::new(&fp, &explicit).unwrap();
    assert!(!m.uses_multigrid());
}

#[test]
fn multigrid_tracks_gauss_seidel_where_both_converge() {
    // On a mesh where Gauss–Seidel *does* converge, the two solvers solve
    // the same linear systems to the same tolerance — trajectories must
    // agree tightly (the Fig. 4b golden test in temu-bench covers the
    // full-transient contract; this is the quick unit-level version).
    let mut fp = Floorplan::new("mid", 3000.0, 3000.0);
    fp.add_component("cpu", 500.0, 500.0, 2000.0, 2000.0, true);
    let base = GridConfig {
        hot_div: 12,
        integrator: Integrator::SemiImplicit { dt: 5e-4 },
        sweep: SweepMode::Serial,
        ..GridConfig::default()
    };
    let build = |solve| {
        let cfg = GridConfig { implicit_solve: solve, ..base };
        let mut m = ThermalModel::new(&fp, &cfg).unwrap();
        m.set_component_power(0, 3.0);
        m
    };
    let mut gs = build(ImplicitSolve::GaussSeidel);
    let mut mg = build(ImplicitSolve::Multigrid);
    assert!(mg.uses_multigrid() && !gs.uses_multigrid());
    for _ in 0..20 {
        gs.step(0.01);
        mg.step(0.01);
    }
    assert_eq!(gs.solver_stats().unconverged_substeps, 0);
    assert_eq!(mg.solver_stats().unconverged_substeps, 0);
    let drift = gs
        .temps()
        .iter()
        .zip(mg.temps())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(drift < 1e-4, "multigrid vs Gauss-Seidel drift {drift:.2e} K");
}

/// Multigrid cycles [`cycle_budget_run`] needs, measured on the kernels
/// that walked three full fine-grid rows per cycle (forward sweep,
/// backward sweep, `A·p`). Cheaper kernels for the same preconditioner
/// need no more; one that weakens it (say, an `A·p` recurrence that
/// drifts from the true operator) needs more and fails here instead of
/// quietly costing time.
const CYCLE_BUDGET: u64 = 965;

/// 20 windows of 2 ms on a ~4.6k-cell two-component mesh under strict
/// multigrid, with both components' power changing every window so the
/// warm start never settles.
fn cycle_budget_run() -> ThermalModel {
    let mut fp = Floorplan::new("budget", 3000.0, 3000.0);
    let a = fp.add_component("a", 250.0, 250.0, 1200.0, 1200.0, true);
    let b = fp.add_component("b", 1550.0, 1550.0, 1200.0, 1200.0, true);
    let cfg = GridConfig {
        hot_div: 24,
        implicit_solve: ImplicitSolve::Multigrid,
        strict_convergence: true,
        ..GridConfig::default()
    };
    let mut m = ThermalModel::new(&fp, &cfg).unwrap();
    for w in 0..20 {
        m.set_component_power(a, [3.0, 0.5, 2.0, 4.0][w % 4]);
        m.set_component_power(b, [1.0, 2.5, 0.2, 1.5, 3.0][w % 5]);
        m.try_step(0.002).expect("strict multigrid converges");
    }
    m
}

#[test]
fn multigrid_cycle_budget_holds_under_changing_power() {
    let m = cycle_budget_run();
    assert!(m.uses_multigrid() && m.multigrid_levels().unwrap() >= 3);
    let s = m.solver_stats();
    assert_eq!(s.substeps, 80);
    assert_eq!(s.unconverged_substeps, 0, "stats {s:?}");
    assert_eq!(s.total_sweeps, 2 * s.total_cycles, "two fine sweeps per cycle: {s:?}");
    assert!(
        s.total_cycles <= CYCLE_BUDGET,
        "{} cycles, budget {CYCLE_BUDGET}: the preconditioner got weaker",
        s.total_cycles
    );
}
