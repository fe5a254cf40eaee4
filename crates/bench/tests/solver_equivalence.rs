//! Golden-trajectory regression: the optimized serial CSR solver must
//! reproduce the reference solver (the seed's algorithm) on the Fig. 4b
//! ARM11 floorplan to within 1e-4 K over a 2 s heating transient of the
//! semi-implicit integrator (the explicit one runs the seed's arithmetic
//! on every sweep mode), and forced multigrid must track plain
//! Gauss–Seidel to the same bound. This is the contract that lets every
//! later perf change be judged purely on speed.
//!
//! Tier-1 checks the first [`PREFIX_WINDOWS`] windows of each transient.
//! The full 2 s goldens are `#[ignore]`d because the reference solver
//! takes minutes in a debug build; `scripts/check.sh` runs them in
//! release with `--include-ignored`.

use temu_power::floorplans::fig4b_arm11;
use temu_thermal::{GridConfig, ImplicitSolve, Integrator, SweepMode, ThermalModel};

/// 10 ms sampling windows in the full 2 s transient.
const FULL_WINDOWS: usize = 200;
/// Windows of the tier-1 prefix: 50 ms, a few seconds in a debug build.
const PREFIX_WINDOWS: usize = 5;
/// Hottest die temperature the prefix must reach, K. From 300 K ambient
/// the die passes 304 K within 50 ms and 310 K within the full 2 s.
const PREFIX_HEATED_K: f64 = 303.0;

/// The Fig. 4b model under the semi-implicit integrator, with 0.5 ms
/// substeps.
fn model(sweep: SweepMode, solve: ImplicitSolve) -> ThermalModel {
    let map = fig4b_arm11();
    let integrator = Integrator::SemiImplicit { dt: 5e-4 };
    let cfg = GridConfig { integrator, sweep, implicit_solve: solve, ..GridConfig::default() };
    let mut m = ThermalModel::new(&map.floorplan, &cfg).unwrap();
    // Asymmetric load: cores hot, one core hotter — exercises lateral
    // gradients, not just the 1-D stack.
    for (i, &(p, _, _, _)) in map.cores.iter().enumerate() {
        m.set_component_power(p, if i == 0 { 1.8 } else { 1.2 });
    }
    m
}

fn max_cell_diff(a: &ThermalModel, b: &ThermalModel) -> f64 {
    a.temps().iter().zip(b.temps()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Steps `golden` and `candidate` side by side through `windows` 10 ms
/// sampling windows and asserts the candidate tracks the golden within
/// 1e-4 K throughout (an error that grows and decays inside the run would
/// hide from an endpoint-only check), that the die heated past
/// `heated_k`, and that both energy books balance to the same totals
/// within the trajectory tolerance.
fn assert_tracks(
    golden: &mut ThermalModel,
    candidate: &mut ThermalModel,
    windows: usize,
    heated_k: f64,
    what: &str,
) {
    let mut worst = 0.0f64;
    for _ in 0..windows {
        golden.step(0.010);
        candidate.step(0.010);
        worst = worst.max(max_cell_diff(golden, candidate));
    }
    assert!(worst < 1e-4, "max |ΔT| {worst:.2e} K over {windows} windows ({what})");
    assert!(golden.max_temp() > heated_k, "the die heated up: {} K ({what})", golden.max_temp());
    let rel = (golden.energy_out() - candidate.energy_out()).abs() / golden.energy_out().max(1e-12);
    assert!(rel < 1e-3, "energy-out drift {rel:.2e} ({what})");
}

fn optimized_matches_reference(windows: usize, heated_k: f64) {
    let mut reference = model(SweepMode::Reference, ImplicitSolve::Auto);
    let mut optimized = model(SweepMode::Serial, ImplicitSolve::Auto);
    assert_tracks(&mut reference, &mut optimized, windows, heated_k, "optimized vs reference");
}

/// The multigrid golden contract, mirroring the reference one: forced
/// multigrid must track the plain Gauss–Seidel path, since both solve
/// each substep's linear system to the same tolerance and may differ only
/// by solver-tolerance noise.
fn multigrid_matches_gauss_seidel(windows: usize, heated_k: f64) {
    let mut gs = model(SweepMode::Serial, ImplicitSolve::GaussSeidel);
    let mut mg = model(SweepMode::Serial, ImplicitSolve::Multigrid);
    assert!(mg.uses_multigrid() && !gs.uses_multigrid());
    assert_tracks(&mut gs, &mut mg, windows, heated_k, "multigrid vs Gauss-Seidel");
    // Every substep of both solvers converged (the mesh is paper-scale).
    assert_eq!(gs.solver_stats().unconverged_substeps, 0);
    assert_eq!(mg.solver_stats().unconverged_substeps, 0);
    assert!(mg.solver_stats().total_cycles > 0, "multigrid cycles were spent");
}

#[test]
fn optimized_solver_matches_reference_on_fig4b_prefix() {
    optimized_matches_reference(PREFIX_WINDOWS, PREFIX_HEATED_K);
}

#[test]
fn multigrid_matches_gauss_seidel_on_fig4b_prefix() {
    multigrid_matches_gauss_seidel(PREFIX_WINDOWS, PREFIX_HEATED_K);
}

#[test]
#[ignore = "minutes in a debug build; scripts/check.sh runs it in release"]
fn optimized_solver_matches_reference_on_fig4b_full_2s() {
    optimized_matches_reference(FULL_WINDOWS, 310.0);
}

#[test]
#[ignore = "minutes in a debug build; scripts/check.sh runs it in release"]
fn multigrid_matches_gauss_seidel_on_fig4b_full_2s() {
    multigrid_matches_gauss_seidel(FULL_WINDOWS, 310.0);
}
