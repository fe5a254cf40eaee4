//! Criterion benchmarks of the RC thermal solver (§5.2: one 10 ms sampling
//! window must run far faster than real time; the paper quotes 2 s of
//! simulation on 660 cells in 1.65 s).
//!
//! Each mesh is measured twice: `reference` is the seed's solver algorithm
//! (natural-order serial Gauss–Seidel, per-substep coefficient refresh),
//! `optimized` is the serial CSR path with lazy refresh and warm-started
//! SOR sweeps — the ratio is the PR-over-PR perf trajectory the scaling
//! benchmark tracks in `BENCH_thermal.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use temu_power::floorplans::fig4b_arm11;
use temu_thermal::{GridConfig, SweepMode, ThermalModel};

fn model_with_cells(target: &str, sweep: SweepMode) -> ThermalModel {
    let map = fig4b_arm11();
    let cfg = match target {
        "coarse" => GridConfig { default_div: 1, hot_div: 2, filler_pitch_um: 4000.0, ..GridConfig::default() },
        "default" => GridConfig::default(),
        _ => GridConfig { default_div: 3, hot_div: 6, filler_pitch_um: 700.0, ..GridConfig::default() },
    };
    let cfg = GridConfig { sweep, ..cfg };
    let mut m = ThermalModel::new(&map.floorplan, &cfg).expect("meshes");
    for &(p, _, _, _) in &map.cores {
        m.set_component_power(p, 1.2);
    }
    m
}

fn bench_thermal(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_window_10ms");
    group.sample_size(20);
    for mesh in ["coarse", "default", "fine"] {
        for (label, sweep) in [("reference", SweepMode::Reference), ("optimized", SweepMode::Serial)] {
            let template = model_with_cells(mesh, sweep);
            let cells = template.grid().n_cells();
            group.bench_with_input(
                BenchmarkId::new("step", format!("{mesh}_{cells}cells_{label}")),
                &cells,
                |b, _| {
                    let mut model = template.clone();
                    // Take the model off the cold start so the measurement
                    // reflects the sustained co-emulation loop.
                    model.step(0.010);
                    b.iter(|| model.step(0.010));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_thermal);
criterion_main!(benches);
