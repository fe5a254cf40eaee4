//! Wire-format round-trip coverage: every `Scenario` preset and every
//! `Sweep` axis must survive `Spec → JSON → Spec → Scenario` with an
//! unchanged `content_key()` — the contract that pins the wire format to
//! the result cache's key space. A spec that drifted through
//! serialization would silently miss (or worse, falsely hit) cached
//! results.

use temu_framework::{
    fnv1a64, fnv1a64_fold, AxisSpec, DfsSpec, ImplicitSolve, MeshSpec, PlatformSpec, Scenario,
    ScenarioSpec, SweepSpec, WorkloadSpec,
};
use temu_platform::DfsBand;

/// Lowers a scenario spec before and after a JSON round trip and asserts
/// the content keys (and labels) match.
fn assert_scenario_roundtrip(spec: &ScenarioSpec) -> Scenario {
    let direct = spec.lower().expect("spec lowers");
    let json = spec.to_json();
    let reparsed = ScenarioSpec::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
    assert_eq!(&reparsed, spec, "struct equality after the round trip: {json}");
    let rehydrated = reparsed.lower().expect("reparsed spec lowers");
    assert_eq!(
        rehydrated.content_key(),
        direct.content_key(),
        "content key drifted through JSON: {json}"
    );
    assert_eq!(rehydrated.label(), direct.label());
    direct
}

/// Expands a sweep spec before and after a JSON round trip and asserts
/// every grid point's content key (and label) matches.
fn assert_sweep_roundtrip(spec: &SweepSpec) {
    let direct = spec.lower().expect("sweep spec lowers").expand();
    let json = spec.to_json();
    let reparsed = SweepSpec::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
    assert_eq!(&reparsed, spec, "struct equality after the round trip: {json}");
    let rehydrated = reparsed.lower().expect("reparsed sweep lowers").expand();
    assert_eq!(rehydrated.len(), direct.len());
    for (a, b) in direct.iter().zip(&rehydrated) {
        assert_eq!(a.label, b.label, "{json}");
        assert_eq!(a.key, b.key, "point {} changed content key through JSON", a.label);
    }
}

#[test]
fn every_scenario_preset_round_trips_with_its_builder_key() {
    // (spec, the fluent-builder scenario it must be indistinguishable
    // from — same content key, hence same cache entries.)
    let presets: Vec<(ScenarioSpec, Scenario)> = vec![
        (ScenarioSpec::default(), Scenario::new()),
        (ScenarioSpec::preset("new"), Scenario::new()),
        (ScenarioSpec::preset("paper_fig6"), Scenario::paper_fig6()),
        (ScenarioSpec::preset("paper_fig6_unmanaged"), Scenario::paper_fig6_unmanaged()),
        (ScenarioSpec::preset_with("thermal_stress", 123), Scenario::thermal_stress(123)),
        (ScenarioSpec::preset_with("exploration_bus", 2), Scenario::exploration_bus(2)),
        (ScenarioSpec::preset_with("exploration_noc", 4), Scenario::exploration_noc(4)),
    ];
    for (spec, builder) in presets {
        let lowered = assert_scenario_roundtrip(&spec);
        assert_eq!(
            lowered.content_key(),
            builder.content_key(),
            "spec {:?} must hit the same cache entries as the fluent preset",
            spec.preset
        );
    }
}

#[test]
fn fully_overridden_scenario_spec_round_trips() {
    let spec = ScenarioSpec {
        preset: Some(String::from("exploration_bus")),
        preset_arg: Some(4),
        name: Some(String::from("überride \"quoted\"\n")),
        cores: Some(2),
        workload: Some(WorkloadSpec::Dithering { width: 32, height: 32, images: 1, cores: 2, seed: 11 }),
        dfs: Some(DfsSpec::Ladder {
            levels_hz: vec![500_000_000, 250_000_000, 100_000_000],
            bands: vec![DfsBand { hot_k: 345.5, cool_k: 335.25 }, DfsBand { hot_k: 355.0, cool_k: 345.75 }],
        }),
        sampling_window_s: Some(0.00125),
        mesh: Some(MeshSpec {
            ambient_k: Some(301.5),
            si_layers: Some(1),
            cu_layers: Some(1),
            default_div: Some(3),
            hot_div: Some(4),
            filler_pitch_um: Some(750.0),
            package_to_air: Some(4.5),
            dt_s: Some(0.00025),
        }),
        solver: Some(ImplicitSolve::Multigrid),
        strict_convergence: Some(true),
        windows: Some(7),
        to_halt: None,
        check_fit_v2vp30: true,
    };
    let lowered = assert_scenario_roundtrip(&spec);
    assert_eq!(lowered.label(), spec.name.clone().unwrap(), "explicit names survive");

    // The unmanaged marker and the to_halt budget round-trip too.
    let spec = ScenarioSpec {
        dfs: Some(DfsSpec::Unmanaged),
        to_halt: Some(50),
        ..ScenarioSpec::default()
    };
    assert_scenario_roundtrip(&spec);
}

#[test]
fn every_sweep_axis_round_trips_point_keys() {
    let base = ScenarioSpec {
        cores: Some(1),
        workload: Some(WorkloadSpec::Matrix { n: 4, iters: 1, cores: 1 }),
        sampling_window_s: Some(0.0005),
        windows: Some(1),
        ..ScenarioSpec::default()
    };
    // One sweep per axis kind, so a failure names the axis that drifted.
    let axes: Vec<(&str, AxisSpec)> = vec![
        ("cores", AxisSpec::Cores(vec![1, 2, 4])),
        ("windows", AxisSpec::Windows(vec![1, 2, 3])),
        (
            "dfs_bands",
            AxisSpec::DfsBands {
                bands: vec![(350.0, 340.0), (345.5, 335.25)],
                high_hz: 500_000_000,
                low_hz: 100_000_000,
            },
        ),
        (
            "dfs_ladders",
            AxisSpec::DfsLadders {
                levels_hz: vec![500_000_000, 250_000_000, 100_000_000],
                band_sets: vec![
                    vec![DfsBand { hot_k: 345.0, cool_k: 335.0 }, DfsBand { hot_k: 355.0, cool_k: 345.0 }],
                    vec![DfsBand { hot_k: 342.0, cool_k: 332.0 }, DfsBand { hot_k: 352.0, cool_k: 342.0 }],
                ],
            },
        ),
        (
            "dfs_policies",
            AxisSpec::DfsPolicies(vec![DfsSpec::Unmanaged, DfsSpec::paper()]),
        ),
        (
            "platforms",
            AxisSpec::Platforms(vec![
                PlatformSpec { kind: String::from("bus"), cores: 2 },
                PlatformSpec { kind: String::from("noc"), cores: 2 },
                PlatformSpec { kind: String::from("thermal"), cores: 2 },
            ]),
        ),
        (
            "meshes",
            AxisSpec::Meshes(vec![
                (String::from("paper"), MeshSpec::default()),
                (
                    String::from("fine"),
                    MeshSpec { default_div: Some(3), hot_div: Some(5), ..MeshSpec::default() },
                ),
            ]),
        ),
        (
            "workloads",
            AxisSpec::Workloads(vec![
                WorkloadSpec::Matrix { n: 4, iters: 2, cores: 1 },
                WorkloadSpec::Dithering { width: 32, height: 32, images: 1, cores: 1, seed: 3 },
            ]),
        ),
        (
            "solvers",
            AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid, ImplicitSolve::Auto]),
        ),
    ];
    for (name, axis) in axes {
        let spec = SweepSpec {
            name: format!("axis-{name}"),
            base: base.clone(),
            axes: vec![axis],
            threads: None,
        };
        assert_sweep_roundtrip(&spec);
    }
}

#[test]
fn multi_axis_sweep_and_named_presets_round_trip() {
    // A grid combining several axes (including per-point errors: the
    // second band is inverted, so that point's key is None on both sides).
    let spec = SweepSpec {
        name: String::from("multi"),
        base: ScenarioSpec::default(),
        axes: vec![
            AxisSpec::Cores(vec![2, 4]),
            AxisSpec::DfsBands {
                bands: vec![(350.0, 340.0), (340.0, 350.0)],
                high_hz: 500_000_000,
                low_hz: 100_000_000,
            },
            AxisSpec::Solvers(vec![ImplicitSolve::Auto]),
        ],
        threads: Some(2),
    };
    assert_sweep_roundtrip(&spec);
    let expanded = spec.lower().unwrap().expand();
    assert_eq!(expanded.len(), 4);
    assert!(expanded.iter().any(|p| p.key.is_none()), "the inverted band stays a per-point error");

    for (name, _) in temu_framework::NAMED_SWEEPS {
        assert_sweep_roundtrip(&SweepSpec::named(name).expect("named preset"));
    }
}

#[test]
fn spec_content_keys_match_the_equivalent_builder_chain() {
    // A spec-described sweep point must land on the same cache key as the
    // hand-built builder chain an API user would write.
    let spec = SweepSpec {
        name: String::from("parity"),
        base: ScenarioSpec::preset_with("exploration_bus", 2),
        axes: vec![AxisSpec::Cores(vec![1, 2])],
        threads: None,
    };
    let from_spec = spec.lower().unwrap().expand();
    let by_hand =
        temu_framework::Sweep::new("parity", Scenario::exploration_bus(2)).cores(&[1, 2]).expand();
    assert_eq!(from_spec.len(), by_hand.len());
    for (a, b) in from_spec.iter().zip(&by_hand) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.key, b.key, "wire-described grids share the builder's cache keys");
    }
}

#[test]
fn named_preset_point_keys_are_pinned() {
    // On-disk result caches and fleet shard routing both hash these keys,
    // so a change to the fingerprint rendering must show up here as a
    // deliberate re-key, not pass silently.
    let mut folds = Vec::new();
    for (name, _) in temu_framework::NAMED_SWEEPS {
        let points = SweepSpec::named(name).expect("named preset").lower().expect("preset lowers").expand();
        let mut fold = fnv1a64(b"");
        for p in &points {
            let key = p.scenario.as_ref().expect("preset points are valid").content_key();
            assert_eq!(p.key, Some(key), "{name}/{}", p.label);
            fold = fnv1a64_fold(fold, &key.to_le_bytes());
        }
        folds.push((*name, points.len(), fold));
    }
    assert_eq!(
        folds,
        [
            ("smoke", 8, 0xa98a_5143_4b08_2b38),
            ("ladder", 8, 0xd606_18c1_ab77_d1a7),
            ("mesh", 6, 0x8364_894d_bb8e_9d77),
            ("explore", 12, 0xc24c_dd6e_b224_fe5c),
            ("grid100", 100, 0xde15_07c2_9a63_52f9),
        ]
    );
}

#[test]
fn spec_json_bytes_are_pinned() {
    // Every scenario field and every axis kind: the bytes clients send
    // and the job journal stores.
    let base = ScenarioSpec {
        preset: Some(String::from("exploration_bus")),
        preset_arg: Some(4),
        name: Some(String::from("überride \"quoted\"\n")),
        cores: Some(2),
        workload: Some(WorkloadSpec::Dithering { width: 32, height: 32, images: 1, cores: 2, seed: 11 }),
        dfs: Some(DfsSpec::Ladder {
            levels_hz: vec![500_000_000, 100_000_000],
            bands: vec![DfsBand { hot_k: 345.5, cool_k: 0.1 + 0.2 }],
        }),
        sampling_window_s: Some(0.00125),
        mesh: Some(MeshSpec {
            ambient_k: Some(301.5),
            hot_div: Some(4),
            dt_s: Some(1e-7),
            ..MeshSpec::default()
        }),
        solver: Some(ImplicitSolve::Multigrid),
        strict_convergence: Some(true),
        windows: Some(7),
        to_halt: None,
        check_fit_v2vp30: true,
    };
    let spec = SweepSpec {
        name: String::from("all\taxes"),
        base,
        axes: vec![
            AxisSpec::Cores(vec![1, 2]),
            AxisSpec::Windows(vec![3]),
            AxisSpec::DfsBands { bands: vec![(350.0, 340.0)], high_hz: 500_000_000, low_hz: 100_000_000 },
            AxisSpec::DfsLadders {
                levels_hz: vec![500_000_000, 100_000_000],
                band_sets: vec![vec![DfsBand { hot_k: 342.25, cool_k: 332.0 }]],
            },
            AxisSpec::DfsPolicies(vec![DfsSpec::Unmanaged, DfsSpec::paper()]),
            AxisSpec::Platforms(vec![PlatformSpec { kind: String::from("noc"), cores: 2 }]),
            AxisSpec::Meshes(vec![(
                String::from("fine"),
                MeshSpec { default_div: Some(3), ..MeshSpec::default() },
            )]),
            AxisSpec::Workloads(vec![WorkloadSpec::Matrix { n: 4, iters: 2, cores: 1 }]),
            AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Auto]),
        ],
        threads: Some(2),
    };
    assert_eq!(spec.to_json(), GOLDEN_SPEC);
    let unmanaged =
        ScenarioSpec { dfs: Some(DfsSpec::Unmanaged), to_halt: Some(50), ..ScenarioSpec::default() };
    assert_eq!(unmanaged.to_json(), GOLDEN_UNMANAGED);
}

const GOLDEN_SPEC: &str = "{\"sweep\": \"all\\taxes\", \"threads\": 2, \"base\": {\"preset\": \"exploration_bus\", \"preset_arg\": 4, \"name\": \"überride \\\"quoted\\\"\\n\", \"cores\": 2, \"workload\": {\"kind\": \"dithering\", \"width\": 32, \"height\": 32, \"images\": 1, \"cores\": 2, \"seed\": 11}, \"dfs\": {\"levels_hz\": [500000000, 100000000], \"bands\": [[345.5, 0.30000000000000004]]}, \"sampling_window_s\": 0.00125, \"mesh\": {\"ambient_k\": 301.5, \"hot_div\": 4, \"dt_s\": 0.0000001}, \"solver\": \"mg\", \"strict_convergence\": true, \"windows\": 7, \"check_fit_v2vp30\": true}, \"axes\": [{\"axis\": \"cores\", \"values\": [1, 2]}, {\"axis\": \"windows\", \"values\": [3]}, {\"axis\": \"dfs_bands\", \"bands\": [[350, 340]], \"high_hz\": 500000000, \"low_hz\": 100000000}, {\"axis\": \"dfs_ladders\", \"levels_hz\": [500000000, 100000000], \"band_sets\": [[[342.25, 332]]]}, {\"axis\": \"dfs_policies\", \"values\": [\"none\", {\"levels_hz\": [500000000, 100000000], \"bands\": [[350, 340]]}]}, {\"axis\": \"platforms\", \"values\": [{\"kind\": \"noc\", \"cores\": 2}]}, {\"axis\": \"meshes\", \"values\": [{\"name\": \"fine\", \"default_div\": 3}]}, {\"axis\": \"workloads\", \"values\": [{\"kind\": \"matrix\", \"n\": 4, \"iters\": 2, \"cores\": 1}]}, {\"axis\": \"solvers\", \"values\": [\"gs\", \"auto\"]}]}";
const GOLDEN_UNMANAGED: &str = "{\"dfs\": \"none\", \"to_halt\": 50}";
