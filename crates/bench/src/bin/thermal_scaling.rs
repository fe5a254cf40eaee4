//! Thermal-solver scaling benchmark (see `temu_bench::thermal_scaling`).
//!
//! Sweeps mesh sizes from the paper's ~660-cell operating point to ~105k
//! cells, measuring substeps/second for every semi-implicit sweep mode and
//! solver and for the explicit integrator, and writes `BENCH_thermal.json`
//! so the perf trajectory is tracked across PRs.
//!
//! Flags:
//!   --smoke          two smallest rungs only, short budget; intended as
//!                    the tier-1 bench-smoke gate (fails on panic/NaN)
//!   --budget <s>     wall-clock budget per measurement (default 0.4;
//!                    smoke default 0.05)
//!   --mesh <name>    only measure one ladder rung (solver tuning)
//!   --out <path>     output path (default BENCH_thermal.json)

use temu_bench::thermal_scaling;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut budget = if smoke { 0.05 } else { 0.4 };
    let mut out = String::from("BENCH_thermal.json");
    let mut mesh: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget" => {
                budget = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--budget takes a positive number of seconds");
            }
            "--out" => out = it.next().expect("--out takes a path").clone(),
            "--mesh" => mesh = Some(it.next().expect("--mesh takes a rung name").clone()),
            "--smoke" => {}
            other => panic!(
                "unknown flag {other} (supported: --smoke, --budget <s>, --mesh <name>, --out <path>)"
            ),
        }
    }

    let report = thermal_scaling::run_filtered(smoke, budget, mesh.as_deref());

    println!(
        "Thermal solver scaling on the Fig. 4b ARM11 floorplan ({} host core(s), one solver thread):\n",
        report.host_cores
    );
    println!(
        "{:<16} {:>7} {:>14} {:>10} {:>7} {:>12} {:>7} {:>7} {:>7} {:>9}",
        "mesh", "cells", "integrator", "sweep", "solver", "substeps/s", "sweeps", "cycles", "unconv", "speedup"
    );
    for c in &report.cases {
        let speedup = report
            .speedup(c.mesh, c.integrator, c.sweep)
            .map_or(String::from("-"), |v| format!("{v:.2}x"));
        println!(
            "{:<16} {:>7} {:>14} {:>10} {:>7} {:>12.0} {:>7.1} {:>7.1} {:>7} {:>9}",
            c.mesh,
            c.cells,
            c.integrator,
            c.sweep,
            c.solver,
            c.substeps_per_s,
            c.avg_sweeps,
            c.avg_cycles,
            c.unconverged,
            speedup,
        );
    }
    println!("\nArtifact build times (what one sweep-layer cache hit saves per point):");
    println!("{:<16} {:>7} {:>8} {:>14} {:>19}", "mesh", "tiles", "cells", "mesh_build_ms", "hierarchy_build_ms");
    for b in &report.builds {
        println!(
            "{:<16} {:>7} {:>8} {:>14.3} {:>19.3}",
            b.mesh, b.tiles, b.cells, b.mesh_build_ms, b.hierarchy_build_ms
        );
    }

    std::fs::write(&out, report.to_json()).expect("write report");
    println!("\nWrote {out}");
}
