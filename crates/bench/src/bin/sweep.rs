//! Named design-space sweeps over the `temu::Sweep` engine, with JSON/CSV
//! export and an optional persistent result cache.
//!
//! ```sh
//! cargo run --release -p temu-bench --bin sweep -- --list
//! cargo run --release -p temu-bench --bin sweep -- ladder --out ladder.json
//! cargo run --release -p temu-bench --bin sweep -- grid100 --cache target/sweep_cache.jsonl
//! cargo run --release -p temu-bench --bin sweep -- explore --threads 2
//! cargo run --release -p temu-bench --bin sweep -- --smoke
//! ```
//!
//! The named sweeps are the workspace's shared [`SweepSpec::named`]
//! presets — the same grids `temu-client submit --preset` sends to a
//! `temu-serve` server; this bin runs them in-process. Every run streams
//! per-point progress and reports the sweep's build-artifact cache
//! (floorplans, meshes, multigrid hierarchies, workload programs shared
//! across points); with `--cache <store.jsonl>` a re-run (same process or
//! not) skips every already-solved point.
//!
//! `--smoke` runs the check.sh gate: the strict-convergence `smoke`
//! preset (8 points, multigrid included) on one thread — asserting the
//! artifact cache built the shared mesh exactly once — then an in-process
//! re-run that must be 100% cache hits. Any failed point, unconverged
//! substep, missed cache hit or artifact rebuild exits non-zero.

use temu_framework::{ResultCache, Sweep, SweepReport, SweepSpec, NAMED_SWEEPS};

/// Resolves a named preset and lowers it onto the sweep engine.
fn build(name: &str) -> Option<Sweep> {
    let spec = SweepSpec::named(name)?;
    Some(spec.lower().unwrap_or_else(|e| panic!("preset {name} must lower: {e}")))
}

fn with_progress(sweep: Sweep) -> Sweep {
    sweep.on_progress(|p| {
        let status = match p.outcome {
            Ok(s) => format!(
                "peak {} windows {}{}",
                s.peak_temp_k.map_or_else(|| String::from("-"), |t| format!("{t:.2}K")),
                s.windows,
                if p.cache_hit { "  [cached]" } else { "" }
            ),
            Err(e) => format!("FAILED: {e}"),
        };
        println!("  [{:>3}/{}] {:<60} {status}", p.completed, p.total, p.label);
    })
}

fn summarize(report: &SweepReport) {
    println!(
        "\n{}: {} point(s), {} executed, {} cache hit(s), {} failed, {:.2} s wall on {} thread(s)",
        report.name,
        report.points.len(),
        report.executed,
        report.cache_hits,
        report.n_failed(),
        report.wall.as_secs_f64(),
        report.threads
    );
    let a = report.artifacts;
    if a.hits() + a.misses() > 0 {
        println!(
            "  artifacts: floorplan {}/{}, mesh {}/{}, operator {}/{}, program {}/{} (hits/builds)",
            a.floorplan_hits,
            a.floorplan_misses,
            a.mesh_hits,
            a.mesh_misses,
            a.operator_hits,
            a.operator_misses,
            a.program_hits,
            a.program_misses,
        );
    }
}

/// The check.sh gate (see the module docs).
fn smoke() -> i32 {
    let cache = ResultCache::in_memory();
    // One worker so the per-layer artifact counts are deterministic
    // (racing campaign workers may each build the first miss).
    let build = || build("smoke").expect("the smoke preset exists").threads(1);
    println!("sweep smoke: 8-point strict-convergence grid");
    let first = with_progress(build()).run_cached(&cache);
    summarize(&first);
    if !first.all_ok() || first.points.len() < 6 {
        eprintln!("sweep smoke FAILED: {} failed point(s)\n{}", first.n_failed(), first.to_json());
        return 1;
    }
    for p in &first.points {
        let s = p.outcome.as_ref().expect("all_ok checked");
        if s.unconverged_substeps != 0 {
            eprintln!("sweep smoke FAILED: {} accepted unconverged substeps", p.label);
            return 1;
        }
    }
    // Eight points, one floorplan geometry: the sweep's artifact cache
    // must have built the mesh once and served the other seven points.
    let a = first.artifacts;
    if a.mesh_misses != 1 || a.mesh_hits != 7 {
        eprintln!(
            "sweep smoke FAILED: expected 1 mesh build + 7 cache hits, got {}/{}",
            a.mesh_misses, a.mesh_hits
        );
        return 1;
    }
    if a.operator_hits == 0 {
        eprintln!("sweep smoke FAILED: the multigrid points never shared their hierarchy");
        return 1;
    }

    println!("\nsweep smoke: identical re-run must be 100% cache hits");
    let rerun = with_progress(build()).run_cached(&cache);
    summarize(&rerun);
    if rerun.executed != 0 || rerun.cache_hits != rerun.points.len() {
        eprintln!(
            "sweep smoke FAILED: re-run executed {} scenario(s), {} cache hit(s)",
            rerun.executed, rerun.cache_hits
        );
        return 1;
    }

    println!("\nsweep smoke OK");
    0
}

/// The instrumentation-overhead guard (`--obs-ab`): the smoke grid runs
/// twice from a cold cache, once with the metrics registry disabled and
/// once enabled, and the enabled run must stay within noise of the
/// disabled one. Counters always record (they are one relaxed atomic
/// add); what this gates is the histogram/timer layer behind
/// `temu_obs::enabled()` — the solver substep timers sit on the hottest
/// loop in the workspace, so a regression here is a real perf bug, not a
/// bookkeeping nit.
fn obs_ab() -> i32 {
    let build = || build("smoke").expect("the smoke preset exists").threads(1);
    let timed = |enabled: bool| {
        temu_obs::global().set_enabled(enabled);
        let report = build().run_cached(&ResultCache::in_memory());
        temu_obs::global().set_enabled(true);
        assert!(report.all_ok(), "obs A/B smoke grid must pass");
        report.wall.as_secs_f64()
    };
    // Warm-up run: fault in artifacts-layer code paths and the page
    // cache so neither timed run pays first-touch costs.
    let _ = timed(true);
    let off = timed(false);
    let on = timed(true);
    let overhead = if off > 0.0 { (on - off) / off * 100.0 } else { 0.0 };
    println!("obs A/B: disabled {off:.3} s, enabled {on:.3} s ({overhead:+.1}% overhead)");
    // Generous bound: CI hosts are noisy and the smoke grid is short, so
    // single-digit-percent jitter is routine. What this catches is the
    // order-of-magnitude mistake — a syscall or lock on the substep path.
    if on > off * 1.5 + 0.05 {
        eprintln!("obs A/B FAILED: instrumentation overhead {overhead:.1}% exceeds the 50% noise bound");
        return 1;
    }
    println!("obs A/B OK");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    if args.iter().any(|a| a == "--obs-ab") {
        std::process::exit(obs_ab());
    }
    if args.iter().any(|a| a == "--list") || args.is_empty() {
        println!("named sweeps (run with: sweep <name> [--out x.json] [--csv x.csv] [--cache store.jsonl] [--threads N]):");
        for (name, what) in NAMED_SWEEPS {
            println!("  {name:<10} {what}");
        }
        return;
    }

    let mut name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut cache_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().expect("--out takes a path").clone()),
            "--csv" => csv = Some(it.next().expect("--csv takes a path").clone()),
            "--cache" => cache_path = Some(it.next().expect("--cache takes a path").clone()),
            "--threads" => {
                threads = Some(
                    it.next().and_then(|v| v.parse().ok()).expect("--threads takes a positive integer"),
                );
            }
            flag if flag.starts_with("--") => {
                panic!("unknown flag {flag} (supported: --out, --csv, --cache, --threads, --smoke, --obs-ab, --list)")
            }
            positional => name = Some(String::from(positional)),
        }
    }

    let name = name.expect("pass a sweep name (or --list)");
    let mut sweep = build(&name)
        .unwrap_or_else(|| panic!("unknown sweep {name:?} — run with --list to see the named sweeps"));
    if let Some(t) = threads {
        sweep = sweep.threads(t);
    }
    sweep = with_progress(sweep);

    println!("sweep {name}: {} point(s)", sweep.n_points());
    let report = match &cache_path {
        Some(path) => {
            let cache = ResultCache::with_store(path).expect("open cache store");
            println!("cache store {path}: {} entr(ies) preloaded", cache.len());
            sweep.run_cached(&cache)
        }
        None => sweep.run(),
    };
    summarize(&report);

    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).expect("write JSON report");
        println!("wrote {path}");
    }
    if let Some(path) = csv {
        std::fs::write(&path, report.to_csv()).expect("write CSV report");
        println!("wrote {path}");
    }
    if !report.all_ok() {
        std::process::exit(1);
    }
}
