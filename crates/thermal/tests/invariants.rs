//! Physical invariants every solver path keeps on random floorplans: a
//! die without power stays at ambient, an adiabatic die stores exactly
//! the energy it was given, and a mirror-symmetric die reads equal
//! sensors on both halves.
//!
//! The paths are the reference (the seed's algorithm) and the optimized
//! serial solver, each on plain Gauss–Seidel and forced multigrid, and
//! the explicit integrator, which runs the seed's arithmetic on every
//! sweep mode.

use proptest::prelude::*;
use temu_thermal::{Floorplan, GridConfig, ImplicitSolve, Integrator, SweepMode, ThermalModel};

/// Simulated seconds each model runs.
const RUN_S: f64 = 0.02;

/// Every (sweep mode, integrator, implicit solve) path under test.
fn paths() -> Vec<(SweepMode, Integrator, ImplicitSolve)> {
    let implicit = Integrator::SemiImplicit { dt: 5e-4 };
    let mut out = Vec::new();
    for sweep in [SweepMode::Reference, SweepMode::Serial] {
        out.push((sweep, implicit, ImplicitSolve::GaussSeidel));
        out.push((sweep, implicit, ImplicitSolve::Multigrid));
    }
    out.push((SweepMode::Serial, Integrator::Explicit, ImplicitSolve::GaussSeidel));
    out
}

/// Builds one model per path on `fp` with `base`'s meshing, sets
/// `powers` and runs it for [`RUN_S`]. Every mesh here is large enough to
/// coarsen, so the forced-multigrid path really runs on a hierarchy.
fn run_paths(fp: &Floorplan, base: GridConfig, powers: &[f64]) -> Vec<(String, ThermalModel)> {
    paths()
        .into_iter()
        .map(|(sweep, integrator, implicit_solve)| {
            let cfg = GridConfig { sweep, integrator, implicit_solve, ..base };
            let mut m = ThermalModel::new(fp, &cfg).expect("the floorplan meshes");
            m.set_powers(powers);
            m.step(RUN_S);
            let path = format!("{sweep:?}/{integrator:?}/{implicit_solve:?}");
            if m.uses_multigrid() {
                let levels = m.multigrid_levels();
                assert!(levels >= Some(2), "{path}: {levels:?} levels on {} cells", m.grid().n_cells());
            }
            (path, m)
        })
        .collect()
}

/// Meshing of the random floorplans: a 250 µm filler pitch keeps every
/// mesh above a hundred cells.
fn random_grid(hot_div: usize) -> GridConfig {
    GridConfig { hot_div, filler_pitch_um: 250.0, ..GridConfig::default() }
}

/// One component in its own 1500 µm column of a 4500 × 3000 µm die:
/// `(x offset, width, y, height)` as multiples of 250 µm, hotness, and
/// power in tenths of a watt.
type Comp = (u32, u32, u32, u32, bool, u32);

fn component() -> impl Strategy<Value = Comp> {
    (0u32..=2, 2u32..=4, 0u32..=4, 2u32..=8, any::<bool>(), 1u32..=40)
}

fn floorplan(comps: &[Comp]) -> (Floorplan, Vec<f64>) {
    let mut fp = Floorplan::new("random", 4500.0, 3000.0);
    let mut powers = Vec::new();
    for (column, &(x, w, y, h, hot, tenths)) in comps.iter().enumerate() {
        let q = |n: u32| f64::from(n) * 250.0;
        fp.add_component(format!("c{column}"), 1500.0 * column as f64 + q(x), q(y), q(w), q(h), hot);
        powers.push(f64::from(tenths) / 10.0);
    }
    (fp, powers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn zero_power_stays_at_ambient(
        comps in prop::collection::vec(component(), 1..4),
        hot_div in 1usize..=4,
    ) {
        let (fp, powers) = floorplan(&comps);
        let base = random_grid(hot_div);
        for (path, m) in run_paths(&fp, base, &vec![0.0; powers.len()]) {
            let amb = base.ambient_k;
            let off = (m.max_temp() - amb).abs().max((m.min_temp() - amb).abs());
            prop_assert!(off < 1e-9, "{path}: {off:e} K off ambient on {comps:?}");
        }
    }

    #[test]
    fn adiabatic_die_stores_what_it_was_given(
        comps in prop::collection::vec(component(), 1..4),
        hot_div in 1usize..=4,
    ) {
        let (fp, powers) = floorplan(&comps);
        let base = GridConfig { package_to_air: f64::INFINITY, ..random_grid(hot_div) };
        for (path, m) in run_paths(&fp, base, &powers) {
            let (given, stored) = (m.energy_in(), m.stored_energy());
            let rel = ((given - stored) / given).abs();
            let tol = if m.config().integrator == Integrator::Explicit { 1e-6 } else { 1e-3 };
            prop_assert!(rel < tol, "{path}: stored {stored} J of {given} J on {comps:?}");
        }
    }

    #[test]
    fn mirror_symmetric_die_reads_equal_sensors(
        width in 12u32..=20,
        (x, w, y, h) in (0u32..=2, 2u32..=4, 0u32..=2, 2u32..=6),
        hot in any::<bool>(),
        (hot_div, default_div) in (3usize..=4, 3usize..=4),
        tenths in 1u32..=40,
    ) {
        // Two copies of one component mirrored about the die's vertical
        // center line. A filler pitch as wide as the die keeps the filler
        // tiling mirror-symmetric too; three copper and three silicon
        // layers keep the mesh large enough to coarsen.
        let q = |n: u32| f64::from(n) * 250.0;
        let die_w = q(width);
        let mut fp = Floorplan::new("mirror", die_w, 2000.0);
        let left = fp.add_component("left", q(x), q(y), q(w), q(h), hot);
        let right = fp.add_component("right", die_w - q(x) - q(w), q(y), q(w), q(h), hot);
        let base = GridConfig {
            hot_div,
            default_div,
            filler_pitch_um: die_w,
            si_layers: 3,
            cu_layers: 3,
            ..GridConfig::default()
        };
        let p = f64::from(tenths) / 10.0;
        for (path, m) in run_paths(&fp, base, &[p, p]) {
            let (l, r) = (m.component_temp(left), m.component_temp(right));
            prop_assert!(l > base.ambient_k, "{path}: the die heated");
            prop_assert!((l - r).abs() < 1e-5, "{path}: left {l} K vs right {r} K");
        }
    }
}
