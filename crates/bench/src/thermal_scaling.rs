//! Thermal-solver scaling benchmark: substeps/second across mesh sizes,
//! integrators, sweep modes and implicit-solver strategies, tracked as
//! `BENCH_thermal.json` so the perf trajectory is visible across PRs.
//!
//! The mesh ladder refines the Fig. 4b ARM11 floorplan from the paper's
//! ~660-cell operating point (§5.2: "2 s of simulation on 660 cells in
//! 1.65 s") up to ~105k cells. Every rung measures the seed's reference
//! [`SweepMode::Reference`] semi-implicit solver against the optimized
//! [`SweepMode::Serial`] path and the multigrid solver (`mg` rows), and
//! the explicit integrator once: it runs the seed's arithmetic on every
//! sweep mode.
//!
//! Convergence is part of the contract, not just speed: every case records
//! its `unconverged_substeps`, and the run **fails** if a multigrid case
//! accepted any unconverged substep — the silent 60-sweep-cap failure this
//! solver exists to kill stays loud forever.

use std::time::Instant;
use temu_framework::JsonObject;
use temu_power::floorplans::fig4b_arm11;
use temu_thermal::{GridConfig, ImplicitSolve, Integrator, SweepMode, ThermalGrid, ThermalModel};

/// One measured (mesh × integrator × sweep mode × solver) point.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Mesh rung label.
    pub mesh: &'static str,
    /// Total cells.
    pub cells: usize,
    /// Resistive edges.
    pub edges: usize,
    /// `"semi_implicit"` or `"explicit"`.
    pub integrator: &'static str,
    /// `"reference"`, `"serial"` or `"mg"`.
    pub sweep: &'static str,
    /// Implicit-solver strategy: `"gs"`, `"mg"`, or `"-"` for explicit.
    pub solver: &'static str,
    /// 10 ms sampling windows executed.
    pub windows: u64,
    /// Integration substeps executed.
    pub substeps: u64,
    /// Wall-clock seconds consumed.
    pub wall_s: f64,
    /// The headline number: substeps per wall-clock second.
    pub substeps_per_s: f64,
    /// Mean fine-grid Gauss–Seidel sweeps per substep over the first
    /// measured window's substeps, the same ones on every build however
    /// many windows fit the budget (0 for explicit).
    pub avg_sweeps: f64,
    /// Mean multigrid cycles per substep over the same substeps (0 off
    /// the multigrid path).
    pub avg_cycles: f64,
    /// Implicit substeps accepted unconverged over the whole model
    /// lifetime (warm-up included) — non-zero rows are measuring a solver
    /// that quietly stopped converging.
    pub unconverged: u64,
    /// Hottest cell at the end (sanity: finite, above ambient).
    pub max_temp_k: f64,
}

/// Build-artifact wall-time for one rung: the two artifacts the sweep
/// layer's [`temu_framework::ArtifactCache`] memoizes. These columns are
/// what the cache saves per hit, so the committed bench makes the value of
/// a mesh/operator cache hit visible at every mesh scale.
#[derive(Clone, Debug)]
pub struct MeshBuild {
    /// Mesh rung label.
    pub mesh: &'static str,
    /// xy tiles per layer.
    pub tiles: usize,
    /// Total cells.
    pub cells: usize,
    /// Milliseconds `ThermalGrid::build` took.
    pub mesh_build_ms: f64,
    /// Milliseconds `MgTopology::for_grid` (the multigrid hierarchy —
    /// coarse grids, interpolation stencils, coarse operators) took.
    pub hierarchy_build_ms: f64,
}

/// A full scaling run.
#[derive(Clone, Debug)]
pub struct ScalingReport {
    /// Host CPU count (every case runs on one thread).
    pub host_cores: usize,
    /// Whether this was the reduced smoke run.
    pub smoke: bool,
    /// Per-combination measurements.
    pub cases: Vec<CaseResult>,
    /// Per-rung meshing times.
    pub builds: Vec<MeshBuild>,
}

/// The mesh ladder (label, refinement config). Smoke mode keeps the two
/// smallest rungs: the paper-scale mesh and `criterion_fine`.
pub fn mesh_ladder(smoke: bool) -> Vec<(&'static str, GridConfig)> {
    let ladder = vec![
        // ~640 cells: the paper's §5.2 real-time operating point.
        ("paper660", GridConfig { default_div: 2, hot_div: 3, filler_pitch_um: 2000.0, ..GridConfig::default() }),
        // ~1.5k cells: the acceptance rung for speedup-vs-reference. The
        // name is the deleted Criterion bench's, kept so that the
        // `BENCH_thermal.json` rows stay comparable.
        ("criterion_fine", GridConfig { default_div: 3, hot_div: 6, filler_pitch_um: 700.0, ..GridConfig::default() }),
        // ~5.5k cells.
        ("xfine", GridConfig { default_div: 6, hot_div: 12, filler_pitch_um: 350.0, ..GridConfig::default() }),
        // ~20k cells: above the default multigrid threshold.
        ("xxfine", GridConfig { default_div: 12, hot_div: 24, filler_pitch_um: 180.0, ..GridConfig::default() }),
        // ~46k cells (11.5k tiles): the rung where plain Gauss–Seidel used
        // to pin at the sweep cap.
        ("huge", GridConfig { default_div: 18, hot_div: 36, filler_pitch_um: 120.0, ..GridConfig::default() }),
        // ~105k cells: the multigrid headroom rung (the ROADMAP's "100k+
        // cell meshes" target).
        ("mega", GridConfig { default_div: 28, hot_div: 56, filler_pitch_um: 80.0, ..GridConfig::default() }),
    ];
    if smoke {
        ladder.into_iter().take(2).collect()
    } else {
        ladder
    }
}

/// The semi-implicit integrator every implicit case runs.
const SEMI_IMPLICIT: (&str, Integrator) = ("semi_implicit", Integrator::SemiImplicit { dt: 5e-4 });

/// Gauss–Seidel, pinned so the multigrid comparison stays meaningful even
/// where the library default (`Auto`) would already pick multigrid.
const GAUSS_SEIDEL: (&str, ImplicitSolve) = ("gs", ImplicitSolve::GaussSeidel);

/// One labelled (integrator, sweep mode, implicit solver) combination.
type Case = ((&'static str, Integrator), (&'static str, SweepMode), (&'static str, ImplicitSolve));

/// The cases measured on every rung.
const CASES: [Case; 4] = [
    (SEMI_IMPLICIT, ("reference", SweepMode::Reference), GAUSS_SEIDEL),
    (SEMI_IMPLICIT, ("serial", SweepMode::Serial), GAUSS_SEIDEL),
    (SEMI_IMPLICIT, ("mg", SweepMode::Serial), ("mg", ImplicitSolve::Multigrid)),
    (("explicit", Integrator::Explicit), ("reference", SweepMode::Reference), GAUSS_SEIDEL),
];

fn measure_case(
    mesh: &'static str,
    cfg: &GridConfig,
    integrator: (&'static str, Integrator),
    sweep: (&'static str, SweepMode),
    solve: (&'static str, ImplicitSolve),
    budget_s: f64,
) -> CaseResult {
    let map = fig4b_arm11();
    let cfg =
        GridConfig { integrator: integrator.1, sweep: sweep.1, implicit_solve: solve.1, ..*cfg };
    let mut model = ThermalModel::new(&map.floorplan, &cfg).expect("meshes");
    for &(p, _, _, _) in &map.cores {
        model.set_component_power(p, 1.2);
    }
    // One warm-up window takes the model off the cold start (and fills the
    // warm-start/SOR state the steady loop runs with).
    model.step(0.010);
    let warm = model.solver_stats();
    let t0 = Instant::now();
    let mut windows = 0u64;
    let mut first = None;
    loop {
        model.step(0.010);
        windows += 1;
        first.get_or_insert_with(|| model.solver_stats());
        if t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let substeps = model.solver_stats().substeps - warm.substeps;
    // The first measured window's solver effort per substep.
    let first = first.expect("one window ran");
    let per_substep = |count: u64| count as f64 / (first.substeps - warm.substeps) as f64;
    let max_temp_k = model.max_temp();
    assert!(max_temp_k.is_finite(), "{mesh}/{}/{}: non-finite temperature", integrator.0, sweep.0);
    assert!(max_temp_k >= cfg.ambient_k - 1e-6, "{mesh}: below ambient");
    let implicit = integrator.0 == "semi_implicit";
    CaseResult {
        mesh,
        cells: model.grid().n_cells(),
        edges: model.grid().n_edges(),
        integrator: integrator.0,
        sweep: sweep.0,
        solver: if implicit { solve.0 } else { "-" },
        windows,
        substeps,
        wall_s,
        substeps_per_s: substeps as f64 / wall_s,
        avg_sweeps: if implicit { per_substep(first.total_sweeps - warm.total_sweeps) } else { 0.0 },
        avg_cycles: if implicit { per_substep(first.total_cycles - warm.total_cycles) } else { 0.0 },
        unconverged: model.solver_stats().unconverged_substeps,
        max_temp_k,
    }
}

/// Runs the scaling sweep. `budget_s` bounds the wall time of each
/// (mesh × integrator × sweep × solver) measurement.
///
/// # Panics
///
/// Panics if any multigrid case accepted an unconverged substep — this is
/// the bench-side convergence gate (`--smoke` runs it too).
pub fn run(smoke: bool, budget_s: f64) -> ScalingReport {
    run_filtered(smoke, budget_s, None)
}

/// [`run`], optionally restricted to one mesh rung (the bin's `--mesh`
/// flag — for quick solver-tuning iterations on the big rungs).
///
/// # Panics
///
/// Panics if `only_mesh` names no rung of the (smoke-filtered) ladder — a
/// typo must not silently produce an empty report (which would both
/// clobber the committed `BENCH_thermal.json` and let the convergence
/// gate pass vacuously).
pub fn run_filtered(smoke: bool, budget_s: f64, only_mesh: Option<&str>) -> ScalingReport {
    if let Some(m) = only_mesh {
        assert!(
            mesh_ladder(smoke).iter().any(|(mesh, _)| *mesh == m),
            "no mesh rung named {m:?} in the {} ladder",
            if smoke { "smoke" } else { "full" },
        );
    }
    let mut cases = Vec::new();
    let mut builds = Vec::new();
    let map = fig4b_arm11();
    for (mesh, cfg) in mesh_ladder(smoke) {
        if only_mesh.is_some_and(|m| m != mesh) {
            continue;
        }
        let t0 = Instant::now();
        let grid = ThermalGrid::build(&map.floorplan, &cfg).expect("meshes");
        let mesh_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let _topo = temu_thermal::MgTopology::for_grid(&grid, &cfg);
        builds.push(MeshBuild {
            mesh,
            tiles: grid.n_tiles(),
            cells: grid.n_cells(),
            mesh_build_ms,
            hierarchy_build_ms: t1.elapsed().as_secs_f64() * 1e3,
        });
        for (integrator, sweep, solve) in CASES {
            cases.push(measure_case(mesh, &cfg, integrator, sweep, solve, budget_s));
        }
    }
    for c in &cases {
        assert!(
            c.solver != "mg" || c.unconverged == 0,
            "{}/{}: the multigrid solver accepted {} unconverged substeps",
            c.mesh,
            c.sweep,
            c.unconverged,
        );
    }
    ScalingReport {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        smoke,
        cases,
        builds,
    }
}

impl ScalingReport {
    /// Speedup of `sweep` over the reference solver on (`mesh`,
    /// `integrator`), when both were measured.
    pub fn speedup(&self, mesh: &str, integrator: &str, sweep: &str) -> Option<f64> {
        let find = |s: &str| {
            self.cases
                .iter()
                .find(|c| c.mesh == mesh && c.integrator == integrator && c.sweep == s)
                .map(|c| c.substeps_per_s)
        };
        Some(find(sweep)? / find("reference")?)
    }

    /// Serializes to the committed `BENCH_thermal.json` format (a
    /// non-finite measurement, or the speedup over a reference that ran
    /// at 0 substeps/s, is `null`).
    pub fn to_json(&self) -> String {
        let builds = self.builds.iter().map(|b| {
            JsonObject::line()
                .str("mesh", b.mesh)
                .raw("tiles", b.tiles)
                .raw("cells", b.cells)
                .num("mesh_build_ms", b.mesh_build_ms, 3)
                .num("hierarchy_build_ms", b.hierarchy_build_ms, 3)
                .finish()
        });
        let cases = self.cases.iter().map(|c| {
            JsonObject::line()
                .str("mesh", c.mesh)
                .raw("cells", c.cells)
                .raw("edges", c.edges)
                .str("integrator", c.integrator)
                .str("sweep", c.sweep)
                .str("solver", c.solver)
                .raw("windows", c.windows)
                .raw("substeps", c.substeps)
                .num("wall_s", c.wall_s, 6)
                .num("substeps_per_s", c.substeps_per_s, 1)
                .num("avg_sweeps", c.avg_sweeps, 2)
                .num("avg_cycles", c.avg_cycles, 2)
                .raw("unconverged_substeps", c.unconverged)
                .num("max_temp_k", c.max_temp_k, 3)
                .num("speedup_vs_reference", self.speedup(c.mesh, c.integrator, c.sweep), 3)
                .finish()
        });
        JsonObject::document()
            .raw("host_cores", self.host_cores)
            .raw("smoke", self.smoke)
            .rows("mesh_builds", builds)
            .rows("cases", cases)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temu_framework::JsonValue;

    #[test]
    fn ladder_spans_paper_to_large() {
        let full = mesh_ladder(false);
        assert!(full.len() >= 5);
        let smoke = mesh_ladder(true);
        assert_eq!(smoke.len(), 2);
        assert_eq!(smoke[0].0, "paper660");
        assert_eq!(smoke[1].0, "criterion_fine");
    }

    #[test]
    fn json_shape_is_stable() {
        let report = ScalingReport {
            host_cores: 4,
            smoke: true,
            cases: vec![CaseResult {
                mesh: "paper660",
                cells: 640,
                edges: 1936,
                integrator: "semi_implicit",
                sweep: "reference",
                solver: "gs",
                windows: 3,
                substeps: 60,
                wall_s: 0.1,
                substeps_per_s: 600.0,
                avg_sweeps: 7.5,
                avg_cycles: 0.0,
                unconverged: 60,
                max_temp_k: 301.0,
            }],
            builds: vec![MeshBuild {
                mesh: "paper660",
                tiles: 160,
                cells: 640,
                mesh_build_ms: 1.0,
                hierarchy_build_ms: 2.5,
            }],
        };
        let json = report.to_json();
        for needle in [
            "\"host_cores\": 4",
            "\"substeps_per_s\": 600.0",
            "\"speedup_vs_reference\": 1.000",
            "\"mesh_builds\"",
            "\"mesh_build_ms\": 1.000",
            "\"hierarchy_build_ms\": 2.500",
            "\"smoke\": true",
            "\"solver\": \"gs\"",
            "\"unconverged_substeps\": 60",
            "\"avg_cycles\": 0.00",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    fn case(mesh: &'static str, sweep: &'static str, substeps_per_s: f64) -> CaseResult {
        CaseResult {
            mesh,
            cells: 640,
            edges: 1936,
            integrator: "semi_implicit",
            sweep,
            solver: "gs",
            windows: 3,
            substeps: 60,
            wall_s: 0.1234567,
            substeps_per_s,
            avg_sweeps: 7.456,
            avg_cycles: 0.0,
            unconverged: 0,
            max_temp_k: 301.0004,
        }
    }

    #[test]
    fn json_bytes_are_pinned() {
        let report = ScalingReport {
            host_cores: 2,
            smoke: false,
            // `fine` has no reference case, so its speedup is null.
            cases: vec![
                case("paper660", "reference", 600.0),
                case("paper660", "serial", 1500.25),
                case("fine", "serial", 90.0),
            ],
            builds: vec![
                MeshBuild {
                    mesh: "paper660",
                    tiles: 160,
                    cells: 640,
                    mesh_build_ms: 1.0,
                    hierarchy_build_ms: 2.5,
                },
                MeshBuild {
                    mesh: "fine",
                    tiles: 1600,
                    cells: 6400,
                    mesh_build_ms: 10.0625,
                    hierarchy_build_ms: 0.0,
                },
            ],
        };
        assert_eq!(report.to_json(), GOLDEN_SCALING);
        let empty = ScalingReport {
            host_cores: 1,
            smoke: true,
            cases: Vec::new(),
            builds: Vec::new(),
        };
        assert_eq!(empty.to_json(), GOLDEN_EMPTY_SCALING);
    }

    #[test]
    fn non_finite_measurements_serialize_as_null() {
        // A NaN temperature and a reference measured at 0 substeps/s (so
        // every other case's speedup is infinite) must still yield a
        // parseable document, with those fields null.
        let mut nan = case("paper660", "serial", 900.0);
        nan.max_temp_k = f64::NAN;
        let report = ScalingReport {
            host_cores: 1,
            smoke: true,
            cases: vec![case("paper660", "reference", 0.0), nan],
            builds: Vec::new(),
        };
        let json = report.to_json();
        let doc = JsonValue::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        let cases = doc.get("cases").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(cases[1].get("max_temp_k"), Some(&JsonValue::Null));
        assert_eq!(cases[1].get("speedup_vs_reference"), Some(&JsonValue::Null));
    }

    const GOLDEN_SCALING: &str = concat!(
        "{\n",
        "  \"host_cores\": 2,\n",
        "  \"smoke\": false,\n",
        "  \"mesh_builds\": [\n",
        "    {\"mesh\": \"paper660\", \"tiles\": 160, \"cells\": 640, \"mesh_build_ms\": 1.000, \"hierarchy_build_ms\": 2.500},\n",
        "    {\"mesh\": \"fine\", \"tiles\": 1600, \"cells\": 6400, \"mesh_build_ms\": 10.062, \"hierarchy_build_ms\": 0.000}\n",
        "  ],\n",
        "  \"cases\": [\n",
        "    {\"mesh\": \"paper660\", \"cells\": 640, \"edges\": 1936, \"integrator\": \"semi_implicit\", \"sweep\": \"reference\", \"solver\": \"gs\", \"windows\": 3, \"substeps\": 60, \"wall_s\": 0.123457, \"substeps_per_s\": 600.0, \"avg_sweeps\": 7.46, \"avg_cycles\": 0.00, \"unconverged_substeps\": 0, \"max_temp_k\": 301.000, \"speedup_vs_reference\": 1.000},\n",
        "    {\"mesh\": \"paper660\", \"cells\": 640, \"edges\": 1936, \"integrator\": \"semi_implicit\", \"sweep\": \"serial\", \"solver\": \"gs\", \"windows\": 3, \"substeps\": 60, \"wall_s\": 0.123457, \"substeps_per_s\": 1500.2, \"avg_sweeps\": 7.46, \"avg_cycles\": 0.00, \"unconverged_substeps\": 0, \"max_temp_k\": 301.000, \"speedup_vs_reference\": 2.500},\n",
        "    {\"mesh\": \"fine\", \"cells\": 640, \"edges\": 1936, \"integrator\": \"semi_implicit\", \"sweep\": \"serial\", \"solver\": \"gs\", \"windows\": 3, \"substeps\": 60, \"wall_s\": 0.123457, \"substeps_per_s\": 90.0, \"avg_sweeps\": 7.46, \"avg_cycles\": 0.00, \"unconverged_substeps\": 0, \"max_temp_k\": 301.000, \"speedup_vs_reference\": null}\n",
        "  ]\n",
        "}\n",
    );
    const GOLDEN_EMPTY_SCALING: &str = concat!(
        "{\n",
        "  \"host_cores\": 1,\n",
        "  \"smoke\": true,\n",
        "  \"mesh_builds\": [\n",
        "  ],\n",
        "  \"cases\": [\n",
        "  ]\n",
        "}\n",
    );

    #[test]
    fn ladder_has_a_100k_rung() {
        let full = mesh_ladder(false);
        assert_eq!(full.last().unwrap().0, "mega");
    }
}
