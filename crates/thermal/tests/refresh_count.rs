//! `thermal.refreshes` counts the optimized implicit substeps that
//! refreshed the non-linear coefficients: on a model that never drifts,
//! only the first substep and the 256-substep cap refresh.
//!
//! Lives in its own test binary because the metrics registry is
//! process-global: substeps in sibling tests would move the count.

use temu_thermal::{Floorplan, GridConfig, ImplicitSolve, ThermalModel};

#[test]
fn a_model_at_ambient_refreshes_only_on_the_first_substep_and_the_cap() {
    temu_obs::global().set_enabled(true);
    let mut fp = Floorplan::new("die", 2000.0, 2000.0);
    fp.add_component("all", 0.0, 0.0, 2000.0, 2000.0, true);
    let cfg = GridConfig { implicit_solve: ImplicitSolve::GaussSeidel, ..GridConfig::default() };
    let mut model = ThermalModel::new(&fp, &cfg).unwrap();
    assert!(!model.uses_multigrid());

    let refreshes = temu_obs::global().counter("thermal.refreshes");
    let substeps = temu_obs::global().counter("thermal.substeps_gs");
    let (refreshes0, substeps0) = (refreshes.get(), substeps.get());
    for _ in 0..300 {
        model.step(5e-4); // one default-length substep, no power
    }
    assert_eq!(substeps.get() - substeps0, 300);
    assert_eq!(refreshes.get() - refreshes0, 2, "substep 0 and substep 256");
    let drift = (model.max_temp() - cfg.ambient_k).abs();
    assert!(drift < 1e-9, "zero power keeps the die at ambient: drift {drift} K");
}
