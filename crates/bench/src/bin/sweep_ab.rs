//! A/B benchmark of the sweep engine's artifact cache, tracked as
//! `BENCH_sweep.json`.
//!
//! For each named preset (default: `explore` and `grid100`) the same grid
//! runs two ways on one thread:
//!
//! * `per_point` — every point built from scratch (`Scenario::run`):
//!   floorplan, mesh, multigrid hierarchy and workload program are
//!   rederived per point, exactly what every sweep paid before the
//!   artifact cache existed;
//! * `campaign` — the sweep engine's path: one sweep-scoped
//!   [`ArtifactCache`](temu_framework::ArtifactCache) shares those builds
//!   across points.
//!
//! Each leg is timed over several interleaved repetitions (median wall).
//! The run **fails** unless both legs produce the same window count and
//! bitwise-identical peak/final temperatures for every point — the golden
//! equivalence gate for the artifact cache, enforced on the real presets,
//! not a toy grid.
//!
//! Flags:
//!
//! ```text
//! --reps <n>    repetitions per leg (default 5)
//! --out <path>  output path (default BENCH_sweep.json)
//! ```

use std::time::Instant;
use temu_framework::{JsonObject, Sweep, SweepReport, SweepSpec};

/// A point's golden fields: windows, then the peak and final temperature
/// bit patterns.
type Golden = (u64, Option<u64>, Option<u64>);

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn build(name: &str) -> Sweep {
    SweepSpec::named(name)
        .unwrap_or_else(|| panic!("no preset named {name}"))
        .lower()
        .unwrap_or_else(|e| panic!("preset {name} must lower: {e}"))
        .threads(1)
}

/// One timed pass of the pre-artifact-cache baseline: run every point as
/// a standalone scenario, rebuilding all of its artifacts.
fn time_per_point(name: &str) -> (f64, Vec<Golden>) {
    let t0 = Instant::now();
    let points = build(name).expand();
    let mut golden = Vec::with_capacity(points.len());
    for p in &points {
        let scenario = p.scenario.as_ref().expect("preset points are valid");
        let run = scenario.run().expect("preset points succeed");
        golden.push((
            run.report.windows,
            run.trace.peak_temp().map(f64::to_bits),
            run.trace.final_temp().map(f64::to_bits),
        ));
    }
    (t0.elapsed().as_secs_f64(), golden)
}

fn time_campaign(name: &str) -> (f64, SweepReport) {
    let t0 = Instant::now();
    let r = build(name).run();
    let wall = t0.elapsed().as_secs_f64();
    assert!(r.all_ok(), "{name} failed:\n{}", r.to_json());
    (wall, r)
}

/// Every campaign point must match its standalone run — the golden
/// equivalence gate.
fn assert_golden(name: &str, per_point: &[Golden], campaign: &SweepReport) {
    assert_eq!(per_point.len(), campaign.points.len());
    for (golden, p) in per_point.iter().zip(&campaign.points) {
        let s = p.outcome.as_ref().expect("all_ok checked");
        let cached = (s.windows, s.peak_temp_k.map(f64::to_bits), s.final_temp_k.map(f64::to_bits));
        assert_eq!(
            *golden, cached,
            "{name}/{}: the cached campaign must match the per-point run bitwise",
            p.label
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5usize;
    let mut out = String::from("BENCH_sweep.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes a positive integer");
            }
            "--out" => out = it.next().expect("--out takes a path").clone(),
            other => panic!("unknown flag {other} (supported: --reps <n>, --out <path>)"),
        }
    }

    let mut rows = Vec::new();
    let presets = ["explore", "grid100"];
    for name in presets {
        println!("{name}: timing {reps} interleaved rep(s) per leg on one thread");
        // Interleaved, so slow drift in host state biases neither leg.
        let (mut per_point_walls, mut campaign_walls) = (Vec::new(), Vec::new());
        let (mut golden, mut campaign) = (Vec::new(), None);
        for _ in 0..reps {
            let (wall, g) = time_per_point(name);
            per_point_walls.push(wall);
            golden = g;
            let (wall, r) = time_campaign(name);
            campaign_walls.push(wall);
            campaign = Some(r);
        }
        let campaign = campaign.expect("reps >= 1");
        assert_golden(name, &golden, &campaign);

        let (per_point_s, campaign_s) = (median(per_point_walls), median(campaign_walls));
        let speedup = per_point_s / campaign_s;
        println!(
            "  per_point {per_point_s:.4} s   campaign {campaign_s:.4} s ({speedup:.2}x)   [golden: bitwise-identical]"
        );
        let a = campaign.artifacts;
        rows.push(
            JsonObject::line()
                .str("sweep", name)
                .raw("points", campaign.points.len())
                .raw("reps", reps)
                .num("per_point_wall_s", per_point_s, 6)
                .num("campaign_wall_s", campaign_s, 6)
                .num("speedup_campaign_vs_per_point", speedup, 3)
                .raw("golden_bitwise", true)
                .raw("mesh_builds", a.mesh_misses)
                .raw("mesh_hits", a.mesh_hits)
                .raw("operator_builds", a.operator_misses)
                .raw("operator_hits", a.operator_hits)
                .finish(),
        );
    }

    let json = JsonObject::document()
        .raw("host_cores", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .raw("threads", 1)
        .rows("rows", rows)
        .finish();
    std::fs::write(&out, json).expect("write report");
    println!("wrote {out}");
}
