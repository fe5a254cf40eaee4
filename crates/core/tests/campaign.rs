//! Campaign-runner and typed-error-path integration tests: the acceptance
//! surface of the Scenario/Campaign API redesign.

use temu_framework::{Campaign, Scenario, Sweep, TemuError, Workload};
use temu_isa::asm::assemble;
use temu_mem::MemError;
use temu_platform::{Machine, PlatformConfig, PlatformError};
use temu_power::PowerError;
use temu_thermal::{GridConfig, ThermalError};
use temu_workloads::dithering::DitherConfig;
use temu_workloads::matrix::MatrixConfig;

/// Four distinct exploration points: bus vs NoC × two workloads.
fn four_scenarios() -> Vec<Scenario> {
    let dither = |noc: bool| {
        let base = if noc { Scenario::exploration_noc(2) } else { Scenario::exploration_bus(2) };
        base.sampling_window_s(0.002)
    };
    let matrix = |noc: bool| dither(noc).workload(Workload::Matrix(MatrixConfig::small(2)));
    vec![dither(false), dither(true), matrix(false), matrix(true)]
}

#[test]
fn campaign_runs_concurrently_in_input_order_with_json_export() {
    let scenarios = four_scenarios();
    let names: Vec<String> = scenarios.iter().map(Scenario::label).collect();
    assert_eq!(names.len(), 4, "four distinct scenarios");
    assert_eq!(names.iter().collect::<std::collections::HashSet<_>>().len(), 4);

    // Two worker threads even on a single-CPU host: the concurrent path is
    // exercised, and results must still come back in input order.
    let report = Campaign::new().scenarios(scenarios).threads(2).run();
    assert_eq!(report.results.len(), 4);
    assert!(report.all_ok(), "{}", report.to_json());
    for (result, name) in report.results.iter().zip(&names) {
        assert_eq!(&result.name, name, "input-ordered results");
        let run = result.outcome.as_ref().unwrap();
        assert!(run.report.all_halted, "{name} halted");
        assert!(run.trace.peak_temp().unwrap() > 300.0, "{name} heated");
    }

    let json = report.to_json();
    for name in &names {
        assert!(json.contains(name.as_str()), "JSON carries {name}");
    }
    assert!(json.contains("\"ok\": true"));
    assert!(json.contains("\"peak_temp_k\""));
    assert!(!json.contains("\"error\""));

    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), 5, "header + 4 rows");
    assert!(csv.starts_with("scenario,ok,"));
}

#[test]
fn panicking_sink_panics_run_after_every_worker_stops() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let calls = Arc::new(AtomicUsize::new(0));
    let sink_calls = Arc::clone(&calls);
    let sweep = Sweep::new("panicking-sink", Scenario::new())
        .axis("scenario", four_scenarios(), Scenario::label, |_, s| Ok(s.clone()))
        .threads(2)
        .on_progress(move |p| {
            sink_calls.fetch_add(1, Ordering::SeqCst);
            if p.completed == 1 {
                panic!("deliberate sink panic");
            }
        });
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep.run()));
    let Err(payload) = outcome else { panic!("a panicking sink must panic run") };
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"deliberate sink panic"), "original payload");
    // The panicking worker stopped after its first point; the other one
    // claimed and delivered the remaining three before `run` panicked.
    assert_eq!(calls.load(Ordering::SeqCst), 4);
}

#[test]
fn failing_scenario_does_not_abort_siblings() {
    let bad_grid = GridConfig { si_layers: 0, ..GridConfig::default() };
    let report = Campaign::new()
        .scenario(Scenario::exploration_bus(1).sampling_window_s(0.002))
        .scenario(Scenario::new().grid(bad_grid).name("broken-grid"))
        .scenario(Scenario::exploration_noc(1).sampling_window_s(0.002))
        .threads(2)
        .run();
    assert_eq!(report.results.len(), 3);
    assert_eq!(report.n_failed(), 1);
    assert!(report.results[0].is_ok(), "sibling before the failure completed");
    assert!(report.results[2].is_ok(), "sibling after the failure completed");
    let err = report.results[1].outcome.as_ref().unwrap_err();
    assert!(
        matches!(err, TemuError::Thermal(ThermalError::NoSiliconLayers)),
        "typed error carried through the report: {err:?}"
    );
    let json = report.to_json();
    assert!(json.contains("\"ok\": false"));
    assert!(json.contains("\"error\""));
    assert!(json.contains("silicon layer"));
}

#[test]
fn floorplan_core_mismatch_is_typed() {
    // The Fig. 4 floorplan family holds four core tiles; an 8-core platform
    // without an explicit floorplan must fail with the power-layer error.
    let e = Scenario::exploration_bus(8).build().unwrap_err();
    assert!(
        matches!(e, TemuError::Power(PowerError::CoreTileMismatch { core_tiles: 4, cores: 8 })),
        "{e:?}"
    );
}

#[test]
fn program_too_large_for_memory_map_is_typed() {
    // A 1 KB private memory cannot hold a ~1.5 KB image.
    let mut platform = PlatformConfig::paper_bus(1);
    platform.private_mem.size = 1024;
    let mut machine = Machine::new(platform).unwrap();
    let big = format!("start:\n{}halt\n", "  li r1, 1\n".repeat(400));
    let program = assemble(&big).unwrap();
    let e = machine.load_program(0, &program).unwrap_err();
    assert!(
        matches!(
            &e,
            PlatformError::ProgramLoad { core: 0, source: MemError::OutOfRange { .. } }
        ),
        "{e:?}"
    );
    // And through the workspace-wide hierarchy:
    let top: TemuError = e.into();
    assert!(matches!(top, TemuError::Platform(PlatformError::ProgramLoad { .. })));
}

#[test]
fn workload_data_overflowing_shared_memory_is_typed() {
    // The §7 thermal platform has 32 KB of shared memory; two 128×128
    // images (32 KB at a 4 KB offset) do not fit.
    let e = Scenario::new()
        .workload(Workload::Dithering { cfg: DitherConfig::paper(), seed: 1 })
        .build()
        .unwrap_err();
    assert!(matches!(e, TemuError::SharedData(MemError::OutOfRange { .. })), "{e:?}");
}

#[test]
fn invalid_grid_config_is_typed() {
    let bad = GridConfig { package_to_air: -2.0, ..GridConfig::default() };
    let e = Scenario::new().grid(bad).build().unwrap_err();
    assert!(
        matches!(e, TemuError::Thermal(ThermalError::NonPositivePackageResistance { .. })),
        "{e:?}"
    );
}

#[test]
fn run_budget_windows_is_exact() {
    let run = Scenario::new()
        .workload(Workload::Matrix(MatrixConfig::thermal(4, 100_000)))
        .sampling_window_s(0.001)
        .windows(5)
        .run()
        .unwrap();
    assert_eq!(run.report.windows, 5);
    assert_eq!(run.trace.len(), 5);
}

#[test]
fn empty_campaign_reports_empty() {
    let report = Campaign::new().run();
    assert!(report.results.is_empty());
    assert!(report.all_ok());
    assert_eq!(report.n_failed(), 0);
    assert!(report.to_json().contains("\"scenarios\": [\n  ]"));
}

#[test]
fn export_guards_non_finite_floats() {
    // A report whose run carries NaN/inf durations must still export valid
    // JSON (`null`, never a bare `NaN`) and empty CSV fields.
    use std::time::Duration;
    use temu_framework::{CampaignReport, EmulationReport, ScenarioResult, ScenarioRun, ThermalTrace};

    let report = EmulationReport {
        windows: 3,
        virtual_seconds: f64::NAN,
        virtual_cycles: 42,
        fpga_seconds: f64::INFINITY,
        wall: Duration::from_millis(1),
        all_halted: true,
        aggregate: temu_platform::WindowStats::default(),
        link: temu_link::LinkStats::default(),
        solver: temu_thermal::SolverStats::default(),
    };
    let run = ScenarioRun { name: "nan-run".into(), report, trace: ThermalTrace::default() };
    let campaign = CampaignReport {
        results: vec![ScenarioResult {
            name: "nan-run".into(),
            wall: Duration::from_millis(1),
            outcome: Ok(run),
        }],
        wall: Duration::from_millis(2),
        threads: 1,
    };
    let json = campaign.to_json();
    assert!(json.contains("\"virtual_s\": null"), "{json}");
    assert!(json.contains("\"fpga_s\": null"), "{json}");
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    let csv = campaign.to_csv();
    assert!(!csv.contains("NaN") && !csv.contains("inf"), "{csv}");
    assert_eq!(csv.lines().count(), 2);
}

#[test]
fn export_carries_solver_convergence_stats() {
    let report = Campaign::new()
        .scenario(Scenario::exploration_bus(1).sampling_window_s(0.002))
        .run();
    assert!(report.all_ok(), "{}", report.to_json());
    let json = report.to_json();
    assert!(json.contains("\"unconverged_substeps\": 0"), "{json}");
    assert!(json.contains("\"worst_residual_k\": 0.000000000"), "{json}");
    let csv = report.to_csv();
    assert!(csv.lines().next().unwrap().contains("unconverged_substeps,worst_residual_k"), "{csv}");
    let run = report.results[0].outcome.as_ref().unwrap();
    assert_eq!(run.report.solver.unconverged_substeps, 0);
    assert!(run.report.solver.total_sweeps > 0, "implicit sweeps were counted");
}

#[test]
fn strict_multigrid_scenario_runs_clean() {
    // A paper-scale scenario forced onto the multigrid solver with strict
    // convergence: must complete (every substep converges) and report a
    // clean SolverStats through the campaign export.
    use temu_framework::ImplicitSolve;
    let report = Campaign::new()
        .scenario(
            Scenario::exploration_bus(1)
                .sampling_window_s(0.002)
                .implicit_solve(ImplicitSolve::Multigrid)
                .strict_convergence(true)
                .name("strict-mg"),
        )
        .run();
    assert!(report.all_ok(), "{}", report.to_json());
    let run = report.results[0].outcome.as_ref().unwrap();
    assert_eq!(run.report.solver.unconverged_substeps, 0);
    assert!(run.report.solver.total_cycles > 0, "the multigrid path was exercised");
}
