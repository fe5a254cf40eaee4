//! Integration tests of the design-space sweep engine: grid execution on
//! the campaign's worker pool, streaming progress, content-keyed caching
//! (memory and disk), and per-point error containment.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use temu_framework::{ImplicitSolve, ResultCache, Scenario, Sweep, TemuError, Workload};
use temu_platform::PlatformError;
use temu_workloads::matrix::MatrixConfig;

/// The cheapest useful scenario: one core, a one-iteration 4×4 MATRIX
/// kernel, a single 0.2 ms sampling window.
fn tiny() -> Scenario {
    Scenario::new()
        .cores(1)
        .workload(Workload::Matrix(MatrixConfig { n: 4, iters: 1, cores: 1 }))
        .sampling_window_s(0.0002)
        .windows(1)
}

fn tiny_matrix(iters: u32) -> Workload {
    Workload::Matrix(MatrixConfig { n: 4, iters, cores: 1 })
}

#[test]
fn identical_sweep_rerun_is_all_cache_hits() {
    let cache = ResultCache::in_memory();
    let sweep = || {
        Sweep::new("cache-test", tiny())
            .workloads(vec![tiny_matrix(1), tiny_matrix(2)])
            .windows(&[1, 2])
            .threads(2)
    };
    let first = sweep().run_cached(&cache);
    assert_eq!(first.points.len(), 4);
    assert!(first.all_ok(), "{}", first.to_json());
    assert_eq!(first.executed, 4);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(cache.len(), 4);
    for p in &first.points {
        assert!(!p.cache_hit);
        let s = p.outcome.as_ref().unwrap();
        assert!(s.windows >= 1);
        assert!(s.peak_temp_k.unwrap() > 300.0);
    }

    let second = sweep().run_cached(&cache);
    assert_eq!(second.executed, 0, "identical rerun executes zero scenarios");
    assert_eq!(second.cache_hits, 4, "every point is served from the cache");
    assert!(second.all_ok());
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.key, b.key);
        assert!(b.cache_hit);
        assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap(), "cached summary is identical");
    }

    // A third sweep that merely overlaps reuses the shared points.
    let overlapping = Sweep::new("overlap", tiny())
        .workloads(vec![tiny_matrix(1), tiny_matrix(3)])
        .windows(&[1])
        .run_cached(&cache);
    assert_eq!(overlapping.cache_hits, 1, "workload=1/windows=1 was already cached");
    assert_eq!(overlapping.executed, 1);
}

#[test]
fn disk_store_makes_reruns_incremental_across_cache_instances() {
    let path = std::env::temp_dir().join(format!("temu_sweep_store_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let sweep = || Sweep::new("disk", tiny()).workloads(vec![tiny_matrix(1), tiny_matrix(2), tiny_matrix(3)]);

    let cache = ResultCache::with_store(&path).unwrap();
    assert!(cache.is_empty());
    let first = sweep().run_cached(&cache);
    assert!(first.all_ok(), "{}", first.to_json());
    assert_eq!(first.executed, 3);
    drop(cache);

    // A brand-new cache instance loads the persisted entries.
    let reloaded = ResultCache::with_store(&path).unwrap();
    assert_eq!(reloaded.len(), 3, "store reloads every persisted point");
    let second = sweep().run_cached(&reloaded);
    assert_eq!(second.executed, 0);
    assert_eq!(second.cache_hits, 3);
    for (a, b) in first.points.iter().zip(&second.points) {
        let (x, y) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(x.windows, y.windows);
        assert_eq!(x.instructions, y.instructions);
        assert!((x.fpga_s - y.fpga_s).abs() < 1e-9, "numeric fields survive the JSON round trip");
        assert_eq!(x.time_at_hz.len(), y.time_at_hz.len());
    }
    let _ = std::fs::remove_file(&path);
}

/// Splits an intact store file's records (after its 8-byte magic) into
/// their raw frames: `TREC`, payload length (u32 LE), checksum (u64 LE),
/// payload.
fn frames(bytes: &[u8]) -> Vec<&[u8]> {
    let (mut out, mut at) = (Vec::new(), 8);
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        out.push(&bytes[at..at + 16 + len]);
        at += 16 + len;
    }
    out
}

#[test]
fn torn_store_lines_are_skipped_without_dropping_later_records() {
    // Simulate a writer that died mid-append: a torn partial record, after
    // which another O_APPEND writer glued a complete record — followed by
    // further intact records. The loader must recover every complete
    // record and skip only the torn one.
    let path = std::env::temp_dir().join(format!("temu_torn_store_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let seed = ResultCache::with_store(&path).unwrap();
    let report = Sweep::new("seed", tiny())
        .workloads(vec![tiny_matrix(1), tiny_matrix(2), tiny_matrix(3)])
        .run_cached(&seed);
    assert!(report.all_ok());
    drop(seed);

    // Tear the store: truncate the first record mid-frame and glue the
    // remaining records directly after it — exactly what interleaved
    // crash-and-append produces.
    let content = std::fs::read(&path).unwrap();
    assert!(content.starts_with(b"temuSTO2"), "stores open with the format's magic");
    let records = frames(&content);
    assert_eq!(records.len(), 3, "magic + 3 records");
    let torn = [&content[..8], &records[0][..records[0].len() / 2], records[1], records[2]].concat();
    std::fs::write(&path, torn).unwrap();

    let reloaded = ResultCache::with_store(&path).unwrap();
    assert_eq!(reloaded.len(), 2, "both intact records survive; only the torn one is lost");

    // A trailing torn partial (crash during the very last append) is
    // skipped without disturbing anything before it, and foreign bytes
    // starting with multi-byte UTF-8 must not panic the resync scan.
    let content = std::fs::read(&path).unwrap();
    let dirty = [&content[..8], "é foreign bytes\n".as_bytes(), &content[8..], &records[0][..20]].concat();
    std::fs::write(&path, dirty).unwrap();
    let reloaded = ResultCache::with_store(&path).unwrap();
    assert_eq!(reloaded.len(), 2, "torn trailing partial and foreign bytes are skipped");

    // The torn point simply re-executes on the next sweep.
    let rerun = Sweep::new("seed", tiny())
        .workloads(vec![tiny_matrix(1), tiny_matrix(2), tiny_matrix(3)])
        .run_cached(&reloaded);
    assert_eq!(rerun.cache_hits, 2);
    assert_eq!(rerun.executed, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mostly_dead_store_is_compacted_on_load_and_round_trips() {
    let path = std::env::temp_dir().join(format!("temu_compact_store_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Seed three real records, then inflate the file with duplicates far
    // past the dead-fraction threshold, plus a torn tail.
    let seed = ResultCache::with_store(&path).unwrap();
    let sweep = || {
        Sweep::new("compact", tiny()).workloads(vec![tiny_matrix(1), tiny_matrix(2), tiny_matrix(3)])
    };
    assert!(sweep().run_cached(&seed).all_ok());
    drop(seed);

    let content = std::fs::read(&path).unwrap();
    let records = frames(&content);
    assert_eq!(records.len(), 3);
    let mut dirty = content.clone();
    for _ in 0..40 {
        for r in &records {
            dirty.extend_from_slice(r);
        }
    }
    dirty.extend_from_slice(&records[0][..records[0].len() - 1]);
    std::fs::write(&path, &dirty).unwrap();
    let dirty_len = std::fs::metadata(&path).unwrap().len();

    // Loading compacts: the file shrinks back to magic + 3 unique
    // records, and the cache still answers every original content key.
    let compacted = ResultCache::with_store(&path).unwrap();
    assert_eq!(compacted.len(), 3);
    let clean = std::fs::read(&path).unwrap();
    assert!(std::fs::metadata(&path).unwrap().len() < dirty_len / 10, "compaction shrinks the file");
    assert!(clean.starts_with(b"temuSTO2"));
    assert_eq!(frames(&clean).len(), 3, "one record per unique key");
    let rerun = sweep().run_cached(&compacted);
    assert_eq!((rerun.cache_hits, rerun.executed), (3, 0), "identical content keys round-trip");
    drop(compacted);

    // Reloading the compacted store is stable: nothing dead, no rewrite.
    let reloaded = ResultCache::with_store(&path).unwrap();
    assert_eq!(reloaded.len(), 3);
    assert_eq!(std::fs::read(&path).unwrap(), clean);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_json_lines_store_from_an_older_version_fails_closed() {
    let path = std::env::temp_dir().join(format!("temu_old_store_{}.jsonl", std::process::id()));
    let old = "{\"temu_store\": 1, \"entries\": 0}\n";
    std::fs::write(&path, old).unwrap();
    let err = ResultCache::with_store(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains(&path.display().to_string()), "names the file: {err}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), old, "the old store is left untouched");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sibling_cache_handles_see_each_others_appends_via_refresh() {
    // Two independent ResultCache instances sharing one store file — the
    // fleet's members-behind-one-store topology. A miss in one handle
    // picks up what the other appended since its last read.
    let path = std::env::temp_dir().join(format!("temu_shared_store_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let a = ResultCache::with_store(&path).unwrap();
    let b = ResultCache::with_store(&path).unwrap();

    let sweep = || Sweep::new("shared", tiny()).workloads(vec![tiny_matrix(1), tiny_matrix(2)]);
    assert!(sweep().run_cached(&a).all_ok());
    assert_eq!(a.len(), 2);
    assert_eq!(b.len(), 0, "b has not looked yet");

    let rerun = sweep().run_cached(&b);
    assert_eq!((rerun.cache_hits, rerun.executed), (2, 0), "b misses, refreshes, and hits a's records");
    assert_eq!(b.len(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_grid_point_is_contained_and_never_cached() {
    let cache = ResultCache::in_memory();
    let sweep = || {
        Sweep::new("bands", tiny())
            .dfs_bands(&[(301.0, 300.5), (300.5, 301.0)], 500_000_000, 100_000_000)
    };
    let report = sweep().run_cached(&cache);
    assert_eq!(report.points.len(), 2);
    assert_eq!(report.n_failed(), 1);
    assert!(report.points[0].is_ok(), "the valid band runs");
    match &report.points[1].outcome {
        Err(TemuError::Platform(PlatformError::DfsLadder { .. })) => {}
        other => panic!("inverted band must be a typed platform error, got {other:?}"),
    }
    assert_eq!(report.executed, 1, "the malformed point never reaches the campaign");
    assert_eq!(cache.len(), 1, "failures are not cached");
    // The report row for the failure carries the error in CSV and JSON,
    // and failed rows stay aligned with the header's 17 columns (none of
    // these rows contain quoted fields, so a plain comma count is exact).
    let csv = report.to_csv();
    assert!(csv.contains("DFS ladder"));
    let header_cols = csv.lines().next().unwrap().matches(',').count();
    for line in csv.lines().skip(1) {
        assert!(!line.contains('"'), "field-count check requires unquoted rows: {line}");
        assert_eq!(line.matches(',').count(), header_cols, "row misaligned: {line}");
    }
    assert!(report.to_json().contains("\"ok\": false"));

    // Re-running: the good point hits the cache, the bad one fails again.
    let rerun = sweep().run_cached(&cache);
    assert_eq!(rerun.executed, 0);
    assert_eq!(rerun.cache_hits, 1);
    assert_eq!(rerun.n_failed(), 1);
}

#[test]
fn hundred_point_sweep_streams_progress_and_reruns_from_cache() {
    // The acceptance grid: 5 workloads × 5 DFS bands × 2 solvers × 2 run
    // budgets = 100 points, every scenario deliberately tiny.
    let cache = ResultCache::in_memory();
    let build = || {
        Sweep::new("grid100", tiny())
            .workloads((1..=5).map(tiny_matrix).collect())
            .dfs_bands(
                &[(340.0, 330.0), (345.0, 335.0), (350.0, 340.0), (355.0, 345.0), (360.0, 350.0)],
                500_000_000,
                100_000_000,
            )
            .implicit_solves(&[ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid])
            .windows(&[1, 2])
            .threads(2)
    };

    type ProgressLog = Arc<Mutex<Vec<(usize, usize, bool, bool)>>>;
    let events: ProgressLog = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&events);
    let report = build()
        .on_progress(move |p| {
            assert_eq!(p.total, 100);
            log.lock().unwrap().push((p.completed, p.index, p.cache_hit, p.outcome.is_ok()));
        })
        .run_cached(&cache);

    assert_eq!(report.points.len(), 100);
    assert!(report.all_ok(), "{}", report.to_json());
    assert_eq!(report.executed, 100);
    assert_eq!(report.cache_hits, 0);

    // Streaming: one event per point, `completed` counting 1..=100 in call
    // order, every grid index delivered exactly once.
    let streamed = events.lock().unwrap();
    assert_eq!(streamed.len(), 100);
    assert_eq!(streamed.iter().map(|e| e.0).collect::<Vec<_>>(), (1..=100).collect::<Vec<_>>());
    let mut indices: Vec<usize> = streamed.iter().map(|e| e.1).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..100).collect::<Vec<_>>());
    assert!(streamed.iter().all(|e| !e.2 && e.3), "first run: no cache hits, no failures");
    drop(streamed);

    // The identical sweep re-run: 100% cache hits, zero executions.
    let hits = Arc::new(AtomicUsize::new(0));
    let hit_counter = Arc::clone(&hits);
    let rerun = build()
        .on_progress(move |p| {
            assert!(p.cache_hit, "rerun point {} must be cached", p.label);
            hit_counter.fetch_add(1, Ordering::Relaxed);
        })
        .run_cached(&cache);
    assert_eq!(rerun.executed, 0, "identical 100-point rerun executes zero scenarios");
    assert_eq!(rerun.cache_hits, 100, "100% cache hits");
    assert_eq!(rerun.artifacts.misses(), 0, "a fully cached rerun builds no artifacts");
    assert_eq!(hits.load(Ordering::Relaxed), 100);
    assert!(rerun.all_ok());
    assert!(rerun.wall < report.wall, "a fully cached sweep is faster than the real one");

    // Exports: one CSV row per point plus the header.
    assert_eq!(rerun.to_csv().lines().count(), 101);
    assert!(rerun.to_json().contains("\"cache_hits\": 100"));
}

#[test]
fn checkpoint_hook_cancels_between_grid_points() {
    use temu_framework::CheckpointDecision;

    // Six points, one thread, start calls only: the observer runs at the
    // start of every executed point. Cancel the third point's start.
    let cache = ResultCache::in_memory();
    let seen = Arc::new(Mutex::new(Vec::<(usize, u64, bool)>::new()));
    let log = Arc::clone(&seen);
    let report = Sweep::new("cancelme", tiny())
        .workloads((1..=6).map(tiny_matrix).collect())
        .threads(1)
        .on_point(0, move |cp| {
            log.lock().unwrap().push((cp.index, cp.windows, cp.state.is_some()));
            if cp.index >= 2 {
                CheckpointDecision::Cancel
            } else {
                CheckpointDecision::Continue
            }
        })
        .run_cached(&cache);

    assert!(report.cancelled, "the hook's Cancel decision is recorded");
    assert_eq!(report.executed, 2, "no point starts after the Cancel decision");
    assert_eq!(report.n_cancelled(), 4);
    assert_eq!(report.n_failed(), 0, "cancelled points are not failures");
    assert!(!report.all_ok());
    assert_eq!(cache.len(), 2, "completed points stay cached");
    for (i, p) in report.points.iter().enumerate() {
        if i < 2 {
            assert!(p.is_ok());
        } else {
            assert!(matches!(p.outcome, Err(TemuError::Cancelled)), "point {i}: {:?}", p.outcome);
        }
    }
    // One start call per point that reached its start (0, 1, 2), none
    // after the Cancel, and never a state with `every = 0`.
    assert_eq!(*seen.lock().unwrap(), vec![(0, 0, false), (1, 0, false), (2, 0, false)]);

    // Re-running without a hook resumes from the cache: the two completed
    // points are hits, the cancelled four execute now.
    let resume = Sweep::new("cancelme", tiny())
        .workloads((1..=6).map(tiny_matrix).collect())
        .threads(1)
        .run_cached(&cache);
    assert!(resume.all_ok());
    assert_eq!((resume.cache_hits, resume.executed), (2, 4), "a cancelled sweep resumes as cache hits");
    assert!(!resume.cancelled);
    assert!(resume.to_json().contains("\"cancelled\": false"));
}

#[test]
fn dfs_only_sweep_builds_the_mesh_exactly_once() {
    // Eight DFS-band points over one die: identical floorplan, mesh and
    // workload. The sweep-scoped artifact cache must build each of those
    // exactly once and serve the other seven points from the shared Arc.
    let bands: Vec<(f64, f64)> =
        (0..8).map(|i| (340.0 + i as f64 * 2.0, 330.0 + i as f64 * 2.0)).collect();
    let report = Sweep::new("dfs-only", tiny())
        .dfs_bands(&bands, 500_000_000, 100_000_000)
        .threads(1)
        .run();
    assert!(report.all_ok(), "{}", report.to_json());
    assert_eq!(report.executed, 8);
    let a = report.artifacts;
    assert_eq!((a.floorplan_misses, a.floorplan_hits), (1, 7), "one floorplan derivation");
    assert_eq!((a.mesh_misses, a.mesh_hits), (1, 7), "one mesh build for eight points");
    assert_eq!((a.program_misses, a.program_hits), (1, 7), "one workload compilation");
    assert_eq!(a.operator_misses, 0, "tiny mesh never engages the multigrid hierarchy");
    assert!(report.to_json().contains("\"mesh_misses\": 1"));

    // A second sweep injected with a shared cross-sweep cache re-uses the
    // first sweep's artifacts outright, and the report's stats stay scoped
    // to that sweep's own window of use.
    let shared = Arc::new(temu_framework::ArtifactCache::new());
    let warm = Sweep::new("warmup", tiny())
        .dfs_bands(&bands[..2], 500_000_000, 100_000_000)
        .threads(1)
        .artifacts(Arc::clone(&shared))
        .run();
    assert_eq!((warm.artifacts.mesh_misses, warm.artifacts.mesh_hits), (1, 1));
    let reuse = Sweep::new("reuse", tiny())
        .dfs_bands(&bands[2..], 500_000_000, 100_000_000)
        .threads(1)
        .artifacts(shared)
        .run();
    assert_eq!(
        (reuse.artifacts.mesh_misses, reuse.artifacts.mesh_hits),
        (0, 6),
        "a shared cache carries the mesh across sweeps"
    );
}

#[test]
fn fully_cached_sweep_never_checkpoints() {
    let cache = ResultCache::in_memory();
    let build = || Sweep::new("warm", tiny()).workloads(vec![tiny_matrix(1), tiny_matrix(2)]).threads(1);
    assert!(build().run_cached(&cache).all_ok());
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let rerun = build()
        .on_point(1, move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
            temu_framework::CheckpointDecision::Cancel
        })
        .run_cached(&cache);
    assert_eq!(rerun.cache_hits, 2);
    assert!(!rerun.cancelled, "nothing to execute, nothing to cancel");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "the hook only runs when points execute");
}

/// Every [`PointSummary`] field except wall time, compared bitwise — the
/// checkpoint/resume invariant (wall clock is the one thing a restart
/// legitimately changes).
fn assert_summary_bitwise_eq(x: &temu_framework::PointSummary, y: &temu_framework::PointSummary) {
    assert_eq!(x.windows, y.windows);
    assert_eq!(x.virtual_s.to_bits(), y.virtual_s.to_bits());
    assert_eq!(x.fpga_s.to_bits(), y.fpga_s.to_bits());
    assert_eq!(x.all_halted, y.all_halted);
    assert_eq!(x.instructions, y.instructions);
    assert_eq!(x.peak_temp_k.map(f64::to_bits), y.peak_temp_k.map(f64::to_bits));
    assert_eq!(x.final_temp_k.map(f64::to_bits), y.final_temp_k.map(f64::to_bits));
    assert_eq!(x.throttled_fraction.to_bits(), y.throttled_fraction.to_bits());
    assert_eq!(x.time_at_hz.len(), y.time_at_hz.len());
    for ((ha, ta), (hb, tb)) in x.time_at_hz.iter().zip(&y.time_at_hz) {
        assert_eq!(ha, hb);
        assert_eq!(ta.to_bits(), tb.to_bits());
    }
    assert_eq!(x.unconverged_substeps, y.unconverged_substeps);
    assert_eq!(x.worst_residual_k.to_bits(), y.worst_residual_k.to_bits());
}

#[test]
fn window_checkpoint_hook_sees_boundaries_and_cancels_mid_point() {
    use temu_framework::CheckpointDecision;

    // Two 6-window points, observed every 2 windows: a start call, then
    // boundaries at 2 and 4 (never the final window). Cancel the second
    // point at window 4.
    let build = || {
        Sweep::new("winck", tiny())
            .workloads(vec![tiny_matrix(1), tiny_matrix(2)])
            .windows(&[6])
            .threads(1)
    };
    let target = build().expand()[1].key.unwrap();
    let seen = Arc::new(Mutex::new(Vec::<(usize, u64, u64, u64, Option<u64>)>::new()));
    let log = Arc::clone(&seen);
    let report = build()
        .on_point(2, move |cp| {
            log.lock().unwrap().push((
                cp.index,
                cp.key,
                cp.windows,
                cp.total_windows,
                cp.state.map(|s| s.scenario_key()),
            ));
            if cp.key == target && cp.windows >= 4 {
                CheckpointDecision::Cancel
            } else {
                CheckpointDecision::Continue
            }
        })
        .run();

    assert!(report.cancelled, "a mid-point cancel cancels the sweep");
    assert_eq!(report.n_cancelled(), 1);
    assert_eq!(report.n_failed(), 0, "a cancelled point is not a failure");
    assert!(report.points[0].is_ok(), "{:?}", report.points[0].outcome);
    match &report.points[1].outcome {
        Err(TemuError::CancelledMidPoint { windows }) => {
            assert_eq!(*windows, 4, "the error reports how far the point got");
        }
        other => panic!("expected CancelledMidPoint, got {other:?}"),
    }

    let seen = seen.lock().unwrap();
    // Point 0: start, 2, 4; point 1: start, 2, then 4 where it dies.
    assert_eq!(seen.len(), 6, "{seen:?}");
    let windows: Vec<(usize, u64)> = seen.iter().map(|c| (c.0, c.2)).collect();
    assert_eq!(windows, vec![(0, 0), (0, 2), (0, 4), (1, 0), (1, 2), (1, 4)]);
    for (_, key, windows, total, state_key) in seen.iter() {
        assert_eq!(*total, 6);
        match state_key {
            None => assert_eq!(*windows, 0, "only the start call carries no state"),
            Some(k) => assert_eq!(key, k, "the delivered state is bound to the point's scenario"),
        }
    }
}

#[test]
fn seeded_resume_continues_a_sweep_point_bitwise() {
    use temu_framework::{CheckpointDecision, EmulationState};

    let build = || {
        Sweep::new("resume", tiny())
            .workloads(vec![tiny_matrix(1), tiny_matrix(2)])
            .windows(&[6])
            .threads(1)
    };
    let uninterrupted = build().run();
    assert!(uninterrupted.all_ok(), "{}", uninterrupted.to_json());

    // Interrupt point 1 at window 4, persisting the boundary's state via
    // the serialized byte stream — exactly what a journal would store.
    let target = build().expand()[1].key.unwrap();
    let saved = Arc::new(Mutex::new(Vec::<u8>::new()));
    let sink = Arc::clone(&saved);
    let interrupted = build()
        .on_point(2, move |cp| match cp.state {
            Some(state) if cp.key == target && cp.windows == 4 => {
                *sink.lock().unwrap() = state.to_bytes();
                CheckpointDecision::Cancel
            }
            _ => CheckpointDecision::Continue,
        })
        .run();
    assert!(matches!(
        interrupted.points[1].outcome,
        Err(TemuError::CancelledMidPoint { windows: 4 })
    ));

    // Resume: the seeded point continues from window 4 instead of
    // restarting, and its summary is bitwise-identical to the
    // uninterrupted run (wall clock excepted).
    let bytes = saved.lock().unwrap().clone();
    assert!(!bytes.is_empty(), "the hook persisted the checkpoint");
    let state = EmulationState::from_bytes(&bytes).unwrap();
    assert_eq!(state.scenario_key(), target);
    assert_eq!(state.windows(), 4);
    let starts = Arc::new(Mutex::new(Vec::<(usize, u64)>::new()));
    let log = Arc::clone(&starts);
    let resumed = build()
        .resume_point(state)
        .on_point(0, move |cp| {
            log.lock().unwrap().push((cp.index, cp.windows));
            CheckpointDecision::Continue
        })
        .run();
    assert!(resumed.all_ok(), "{}", resumed.to_json());
    assert_eq!(*starts.lock().unwrap(), vec![(0, 0), (1, 4)], "the seeded point starts at window 4");
    for (a, b) in uninterrupted.points.iter().zip(&resumed.points) {
        assert_eq!(a.key, b.key);
        assert_summary_bitwise_eq(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }
}

#[test]
fn disabled_window_checkpointing_never_captures_state() {
    // `every = 0` (the serve CLI's off position): the observer sees each
    // point's start and nothing else — no state is ever captured.
    let starts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&starts);
    let report = Sweep::new("off", tiny())
        .workloads(vec![tiny_matrix(1), tiny_matrix(2)])
        .windows(&[4])
        .threads(1)
        .on_point(0, move |cp| {
            assert!(cp.state.is_none(), "no state is captured with every = 0");
            counter.fetch_add(1, Ordering::Relaxed);
            temu_framework::CheckpointDecision::Continue
        })
        .run();
    assert!(report.all_ok(), "{}", report.to_json());
    assert_eq!(report.executed, 2);
    assert_eq!(starts.load(Ordering::Relaxed), 2, "one start call per executed point");
}
