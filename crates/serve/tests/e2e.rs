//! End-to-end protocol tests: a real client/server pair over localhost.
//!
//! The acceptance loop for the serve subsystem: submit a [`SweepSpec`],
//! receive the streamed progress events in order, fetch a report equal
//! (per content key) to running the same sweep in-process, and observe a
//! resubmission served entirely from the shared [`ResultCache`] — plus
//! store persistence across a server restart and typed refusals.

use temu_framework::{
    AxisSpec, ImplicitSolve, JsonValue, ResultCache, ScenarioSpec, SweepSpec, WorkloadSpec,
};
use temu_serve::journal::JOURNAL_MAGIC;
use temu_serve::{Client, ClientError, ServeConfig, Server};
use temu_state::AppendLog;

/// A 4-point near-instant sweep (two tiny workloads × two solvers).
fn tiny_sweep(name: &str) -> SweepSpec {
    let tiny = |iters: u32| WorkloadSpec::Matrix { n: 4, iters, cores: 1 };
    SweepSpec {
        name: String::from(name),
        base: ScenarioSpec {
            cores: Some(1),
            workload: Some(tiny(1)),
            sampling_window_s: Some(0.0005),
            windows: Some(2),
            strict_convergence: Some(true),
            ..ScenarioSpec::default()
        },
        axes: vec![
            AxisSpec::Workloads(vec![tiny(1), tiny(2)]),
            AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid]),
        ],
        threads: None,
    }
}

fn spawn_server(store: Option<std::path::PathBuf>) -> temu_serve::ServerHandle {
    Server::spawn(ServeConfig { addr: String::from("127.0.0.1:0"), store, ..ServeConfig::default() })
        .expect("bind an ephemeral port")
}

fn connect(handle: &temu_serve::ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect")
}

#[test]
fn end_to_end_submit_stream_result_and_cached_resubmit() {
    let spec = tiny_sweep("e2e");

    // Ground truth: the same sweep run in-process against its own cache.
    let reference = spec.lower().unwrap().run_cached(&ResultCache::in_memory());
    assert!(reference.all_ok());
    assert_eq!(reference.points.len(), 4);

    let handle = spawn_server(None);
    let mut client = connect(&handle);

    // Submit and stream: every point event arrives in completion order.
    let mut events: Vec<JsonValue> = Vec::new();
    let outcome = client.submit(&spec, true, |e| events.push(e.clone())).unwrap();
    let done = outcome.done.expect("watched submissions end with a done summary");
    assert_eq!(outcome.total, 4);
    assert!(done.ok, "all points converge: {done:?}");
    assert_eq!((done.points, done.executed, done.cache_hits, done.failed), (4, 4, 0, 0));

    let points: Vec<&JsonValue> =
        events.iter().filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("point")).collect();
    assert_eq!(points.len(), 4);
    for (i, point) in points.iter().enumerate() {
        assert_eq!(
            point.get("completed").and_then(JsonValue::as_u64),
            Some(i as u64 + 1),
            "events stream in completion order"
        );
        assert_eq!(point.get("cache_hit").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(point.get("ok").and_then(JsonValue::as_bool), Some(true));
    }
    assert_eq!(
        events.last().and_then(|e| e.get("event")).and_then(JsonValue::as_str),
        Some("done"),
        "the done event is last"
    );

    // The fetched report matches the in-process run per content key (and
    // per label and outcome — the emulation is deterministic).
    let frame = client.result(outcome.job).unwrap();
    let report = frame.get("report").expect("result carries the report");
    let fetched = report.get("points").and_then(JsonValue::as_arr).expect("report points");
    assert_eq!(fetched.len(), reference.points.len());
    for (fetched_point, reference_point) in fetched.iter().zip(&reference.points) {
        let expect_key = format!("{:016x}", reference_point.key.unwrap());
        assert_eq!(fetched_point.get("key").and_then(JsonValue::as_str), Some(expect_key.as_str()));
        assert_eq!(
            fetched_point.get("label").and_then(JsonValue::as_str),
            Some(reference_point.label.as_str())
        );
        let reference_summary = reference_point.outcome.as_ref().unwrap();
        assert_eq!(
            fetched_point.get("windows").and_then(JsonValue::as_u64),
            Some(reference_summary.windows)
        );
        assert_eq!(
            fetched_point.get("unconverged_substeps").and_then(JsonValue::as_u64),
            Some(0),
            "strict convergence held"
        );
    }

    // Resubmission: served entirely from the shared cache, zero scenarios
    // executed.
    let mut rerun_events: Vec<JsonValue> = Vec::new();
    let rerun = client.submit(&spec, true, |e| rerun_events.push(e.clone())).unwrap();
    let rerun_done = rerun.done.unwrap();
    assert_eq!(
        (rerun_done.executed, rerun_done.cache_hits, rerun_done.failed),
        (0, 4, 0),
        "identical resubmission is 100% cache hits"
    );
    assert!(rerun_events
        .iter()
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("point"))
        .all(|e| e.get("cache_hit").and_then(JsonValue::as_bool) == Some(true)));

    // Server counters reflect both jobs and the hit rate.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("jobs_completed").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(stats.get("points_executed").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(stats.get("point_cache_hits").and_then(JsonValue::as_u64), Some(4));
    assert_eq!(stats.get("cache_entries").and_then(JsonValue::as_u64), Some(4));
    assert!(stats.get("cache_hit_rate").and_then(JsonValue::as_f64).unwrap() > 0.49);

    // The process-wide artifact cache absorbed the builds: only the first
    // job built anything (the resubmission was all result-cache hits), its
    // four points looked up exactly one shared mesh each, and at most the
    // racing campaign workers built it redundantly — never all four.
    let mesh_hits = stats.get("artifact_mesh_hits").and_then(JsonValue::as_u64).unwrap();
    let mesh_misses = stats.get("artifact_mesh_misses").and_then(JsonValue::as_u64).unwrap();
    assert_eq!(mesh_hits + mesh_misses, 4, "one mesh lookup per executed point");
    assert!(mesh_misses >= 1);
    let fp_hits = stats.get("artifact_floorplan_hits").and_then(JsonValue::as_u64).unwrap();
    let fp_misses = stats.get("artifact_floorplan_misses").and_then(JsonValue::as_u64).unwrap();
    assert_eq!(fp_hits + fp_misses, 4);

    // The `metrics` snapshot agrees with `stats` on every job and point
    // counter (`stats` is a thin view over the same registry), and the
    // merged process-wide half carries the solver instrumentation.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("temu_metrics").and_then(JsonValue::as_u64), Some(1));
    let counters = metrics.get("counters").expect("counters map");
    let metric = |k: &str| counters.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    for (snapshot_key, stats_key) in [
        ("serve.jobs_submitted", "jobs_submitted"),
        ("serve.jobs_completed", "jobs_completed"),
        ("serve.jobs_failed", "jobs_failed"),
        ("serve.points_executed", "points_executed"),
        ("serve.point_cache_hits", "point_cache_hits"),
    ] {
        assert_eq!(
            Some(metric(snapshot_key)),
            stats.get(stats_key).and_then(JsonValue::as_u64),
            "{snapshot_key} agrees with stats.{stats_key}"
        );
    }
    let histograms = metrics.get("histograms").expect("histograms map");
    let run_count = histograms
        .get("serve.run_ns")
        .and_then(|h| h.get("count"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    assert_eq!(run_count, 2, "one run-duration sample per completed job");
    assert!(
        histograms
            .get("thermal.substep_ns")
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            > 0,
        "the merged snapshot carries the process-wide solver timers"
    );

    // A finished job can be statused but not cancelled.
    let status = client.status(outcome.job).unwrap();
    assert_eq!(status.get("state").and_then(JsonValue::as_str), Some("done"));
    assert!(matches!(client.cancel(outcome.job), Err(ClientError::Server(_))));
    // Watching a finished job replays its terminal summary immediately.
    let replay = client.watch(rerun.job, |_| {}).unwrap();
    assert_eq!(replay.cache_hits, 4);

    handle.shutdown();
}

#[test]
fn disk_store_serves_resubmissions_across_server_restarts() {
    let dir = std::env::temp_dir().join(format!("temu_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("cache.jsonl");
    let _ = std::fs::remove_file(&store);
    let spec = tiny_sweep("restart");

    let first = spawn_server(Some(store.clone()));
    let done = connect(&first).submit(&spec, true, |_| {}).unwrap().done.unwrap();
    assert_eq!((done.executed, done.cache_hits), (4, 0));
    first.shutdown();

    // A fresh server process-equivalent: same store, empty memory.
    let second = spawn_server(Some(store.clone()));
    let done = connect(&second).submit(&spec, true, |_| {}).unwrap().done.unwrap();
    assert_eq!(
        (done.executed, done.cache_hits),
        (0, 4),
        "the reloaded store answers the whole resubmission"
    );
    second.shutdown();
    // The journal sits beside the store.
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn terminal_job_history_is_bounded() {
    let handle = Server::spawn(ServeConfig {
        addr: String::from("127.0.0.1:0"),
        history_limit: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = connect(&handle);
    let first = client.submit(&tiny_sweep("old"), true, |_| {}).unwrap();
    let second = client.submit(&tiny_sweep("new"), true, |_| {}).unwrap();
    // With a one-entry history the older finished job is evicted; its
    // results still live in the shared cache.
    assert!(matches!(client.status(first.job), Err(ClientError::Server(_))), "old job evicted");
    assert_eq!(
        client.status(second.job).unwrap().get("state").and_then(JsonValue::as_str),
        Some("done")
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_entries").and_then(JsonValue::as_u64), Some(4));
    handle.shutdown();
}

#[test]
fn shutdown_never_leaves_a_watcher_hanging() {
    let handle = Server::spawn(ServeConfig {
        addr: String::from("127.0.0.1:0"),
        ..ServeConfig::default()
    })
    .unwrap();
    // Occupy the single worker, then queue a watched job behind it.
    let mut occupant = connect(&handle);
    let mut big = tiny_sweep("occupant");
    big.axes.push(temu_framework::AxisSpec::Windows((1..=4).collect()));
    occupant.submit(&big, false, |_| {}).unwrap();
    let mut watcher = connect(&handle);
    let watched = std::thread::spawn(move || watcher.submit(&tiny_sweep("stranded"), true, |_| {}));
    std::thread::sleep(std::time::Duration::from_millis(30));
    // Shutdown must deliver a terminal event to the stranded watcher (or
    // let the job finish normally if the worker got to it) — either way
    // this join returns instead of hanging forever.
    handle.shutdown();
    let outcome = watched.join().expect("watcher thread finishes").expect("submission completes");
    let done = outcome.done.expect("done event delivered");
    assert!(
        done.cancelled || done.ok,
        "the stranded job either reports shutdown-cancellation or ran to completion: {done:?}"
    );
}

#[test]
fn cancel_during_run_stops_between_grid_points() {
    let handle = spawn_server(None);

    // Six slower points, one campaign thread: the sweep checkpoints
    // before every point, so a cancel acknowledged mid-run allows at most
    // the in-flight point to finish.
    let tiny = |iters: u32| temu_framework::WorkloadSpec::Matrix { n: 4, iters, cores: 1 };
    let spec = SweepSpec {
        name: String::from("cancel-mid-run"),
        base: ScenarioSpec {
            cores: Some(1),
            workload: Some(tiny(1)),
            sampling_window_s: Some(0.0005),
            windows: Some(40),
            strict_convergence: Some(true),
            ..ScenarioSpec::default()
        },
        axes: vec![
            AxisSpec::Workloads(vec![tiny(1), tiny(2), tiny(3)]),
            AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid]),
        ],
        threads: Some(1),
    };

    let mut client = connect(&handle);
    let mut canceller = connect(&handle);
    let mut acked = false;
    let mut points_after_ack = 0u64;
    let mut completed_at_ack = 0u64;
    let outcome = client
        .submit(&spec, true, |event| {
            if event.get("event").and_then(JsonValue::as_str) != Some("point") {
                return;
            }
            if acked {
                points_after_ack += 1;
                return;
            }
            // First point landed: cancel the running job from a second
            // connection and count what still executes after the ack.
            let job = event.get("job").and_then(JsonValue::as_u64).expect("point carries job id");
            let frame = canceller.cancel(job).expect("cancel a running job");
            assert_eq!(
                frame.get("cancelling").and_then(JsonValue::as_bool),
                Some(true),
                "a running job acknowledges with cancelling: {frame}"
            );
            acked = true;
            completed_at_ack = event.get("completed").and_then(JsonValue::as_u64).unwrap_or(0);
        })
        .unwrap();

    let done = outcome.done.expect("watched submission ends with done");
    assert!(acked, "the job produced at least one point before finishing");
    assert!(done.cancelled, "the job reports cancellation: {done:?}");
    assert!(
        points_after_ack <= 1,
        "at most the in-flight point finishes after the ack, saw {points_after_ack}"
    );
    let finished = done.executed + done.cache_hits;
    assert!(finished < done.points, "some grid points never started: {done:?}");
    assert_eq!(done.failed, 0, "cancelled points are not failures");

    let status = client.status(outcome.job).unwrap();
    assert_eq!(status.get("state").and_then(JsonValue::as_str), Some("cancelled"));

    // The completed points stayed cached: resubmitting finishes the grid
    // with exactly those points served from the cache.
    let rerun = client.submit(&spec, true, |_| {}).unwrap().done.unwrap();
    assert!(rerun.ok, "{rerun:?}");
    assert_eq!(rerun.cache_hits, finished, "completed points survived the cancellation");
    assert_eq!(rerun.executed, rerun.points - finished);

    handle.shutdown();
}

#[test]
fn cancel_inside_the_last_point_ends_the_job_cancelled_not_failed() {
    // One long point under window checkpointing: a cancel that lands
    // inside the job's only (hence last) point stops it at the next
    // window boundary, and the job ends `cancelled` with no failed point
    // — in the done event, in `status`, in the counters and the journal.
    let dir = std::env::temp_dir().join(format!("temu_serve_lastcancel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for stale in ["cache.jsonl", "jobs.jsonl"] {
        let _ = std::fs::remove_file(dir.join(stale));
    }
    let handle = Server::spawn(ServeConfig {
        addr: String::from("127.0.0.1:0"),
        store: Some(dir.join("cache.jsonl")),
        window_checkpoint: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let spec = SweepSpec {
        name: String::from("cancel-last-point"),
        base: ScenarioSpec {
            cores: Some(1),
            workload: Some(WorkloadSpec::Matrix { n: 4, iters: 3, cores: 1 }),
            sampling_window_s: Some(0.0005),
            windows: Some(400),
            strict_convergence: Some(true),
            ..ScenarioSpec::default()
        },
        axes: Vec::new(),
        threads: Some(1),
    };

    let mut client = connect(&handle);
    let mut canceller = connect(&handle);
    let mut acked = false;
    let outcome = client
        .submit(&spec, true, |event| {
            if acked || event.get("progress").is_none() {
                return;
            }
            // First mid-point `progress` event: cancel the running job.
            let job = event.get("job").and_then(JsonValue::as_u64).expect("progress carries the job id");
            let frame = canceller.cancel(job).expect("cancel a running job");
            assert_eq!(frame.get("cancelling").and_then(JsonValue::as_bool), Some(true), "{frame}");
            acked = true;
        })
        .unwrap();

    assert!(acked, "the point reported mid-point progress before finishing");
    let done = outcome.done.expect("watched submission ends with done");
    assert!(done.cancelled, "the job reports cancellation: {done:?}");
    assert!(!done.ok);
    assert_eq!(done.failed, 0, "a cancelled point is not a failure: {done:?}");
    let status = client.status(outcome.job).unwrap();
    assert_eq!(status.get("state").and_then(JsonValue::as_str), Some("cancelled"));
    assert_eq!(status.get("failed").and_then(JsonValue::as_u64), Some(0));
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("jobs_cancelled").and_then(JsonValue::as_u64), Some(1), "{stats}");
    assert_eq!(stats.get("jobs_completed").and_then(JsonValue::as_u64), Some(0), "{stats}");
    handle.shutdown();

    let (_, journal) =
        AppendLog::open(dir.join("jobs.jsonl"), JOURNAL_MAGIC).expect("journal next to the store");
    let terminal = format!("{{\"op\": \"cancelled\", \"job\": {}}}", outcome.job);
    assert!(journal.records.iter().any(|r| r == terminal.as_bytes()), "journaled as cancelled: {journal:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_feed_streams_every_point_exactly_once_across_a_reconnect() {
    let handle = spawn_server(None);

    // Six slower points on one campaign thread (the cancel test's grid):
    // the job is still mid-sweep when the first connection polls the
    // feed, so the second connection genuinely resumes a live stream.
    let tiny = |iters: u32| WorkloadSpec::Matrix { n: 4, iters, cores: 1 };
    let spec = SweepSpec {
        name: String::from("feed"),
        base: ScenarioSpec {
            cores: Some(1),
            workload: Some(tiny(1)),
            sampling_window_s: Some(0.0005),
            windows: Some(40),
            strict_convergence: Some(true),
            ..ScenarioSpec::default()
        },
        axes: vec![
            AxisSpec::Workloads(vec![tiny(1), tiny(2), tiny(3)]),
            AxisSpec::Solvers(vec![ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid]),
        ],
        threads: Some(1),
    };

    let mut submitter = connect(&handle);
    let job = submitter.submit(&spec, false, |_| {}).unwrap().job;

    // First connection: replay the retained feed (no follow) until at
    // least one event is visible, then drop the connection — the resume
    // below continues from the cursor the dropped stream returned.
    let mut events: Vec<JsonValue> = Vec::new();
    let mut cursor = 0u64;
    while events.is_empty() {
        cursor = connect(&handle)
            .results(cursor, false, Some(job), |e| events.push(e.clone()))
            .unwrap();
        if events.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    // Fresh connection resuming at the cursor, following to the job's
    // terminal event: the union of both streams is the feed exactly once.
    let end_cursor = connect(&handle)
        .results(cursor, true, Some(job), |e| events.push(e.clone()))
        .unwrap();

    // Sequence numbers are strictly increasing across the reconnect — no
    // duplicates, no reordering — and the end event hands back the last
    // delivered seq.
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.get("seq").and_then(JsonValue::as_u64).expect("every feed event is stamped"))
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "strictly increasing seqs: {seqs:?}");
    assert_eq!(seqs.last().copied(), Some(end_cursor));

    // Every completed point streamed exactly once, in completion order,
    // capped by the job's terminal summary.
    let points: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("point"))
        .collect();
    assert_eq!(points.len(), 6, "all six grid points streamed");
    for (i, point) in points.iter().enumerate() {
        assert_eq!(point.get("completed").and_then(JsonValue::as_u64), Some(i as u64 + 1));
        assert_eq!(point.get("job").and_then(JsonValue::as_u64), Some(job));
    }
    let last = events.last().unwrap();
    assert_eq!(last.get("event").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(last.get("ok").and_then(JsonValue::as_bool), Some(true), "{last}");

    // Following again from the end cursor terminates immediately with
    // nothing to say (the terminal event is behind the cursor), and a
    // from-scratch replay reproduces the identical history.
    let mut rest: Vec<JsonValue> = Vec::new();
    let again = connect(&handle)
        .results(end_cursor, true, Some(job), |e| rest.push(e.clone()))
        .unwrap();
    assert!(rest.is_empty(), "no events past the end cursor: {rest:?}");
    assert_eq!(again, end_cursor);
    let mut replayed: Vec<u64> = Vec::new();
    connect(&handle)
        .results(0, false, Some(job), |e| {
            replayed.push(e.get("seq").and_then(JsonValue::as_u64).unwrap());
        })
        .unwrap();
    assert_eq!(replayed, seqs, "a from-scratch replay matches the live stream");

    handle.shutdown();
}

#[test]
fn refusals_are_typed_and_do_not_kill_the_connection() {
    let handle = spawn_server(None);
    let mut client = connect(&handle);

    // A spec that parses but cannot lower is refused at submit time.
    let bad = SweepSpec::new("bad", ScenarioSpec::preset("no-such-preset"));
    match client.submit(&bad, true, |_| {}) {
        Err(ClientError::Server(message)) => assert!(message.contains("no-such-preset"), "{message}"),
        other => panic!("expected a server refusal, got {other:?}"),
    }

    // The same connection keeps working afterwards.
    assert!(matches!(client.status(999), Err(ClientError::Server(_))));
    assert!(matches!(client.result(999), Err(ClientError::Server(_))));
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("jobs_submitted").and_then(JsonValue::as_u64), Some(0));

    // Cancelling races against the single worker: a still-queued job
    // reports "cancelled", one caught running acknowledges "cancelling"
    // (it stops at its next checkpoint), and one already finished is a
    // typed refusal.
    let mut submitter = connect(&handle);
    let queued = submitter.submit(&tiny_sweep("cancelme"), false, |_| {}).unwrap();
    match client.cancel(queued.job) {
        Ok(frame) => {
            if frame.get("cancelled").and_then(JsonValue::as_bool) == Some(true) {
                let status = client.status(queued.job).unwrap();
                assert_eq!(status.get("state").and_then(JsonValue::as_str), Some("cancelled"));
            } else {
                assert_eq!(frame.get("cancelling").and_then(JsonValue::as_bool), Some(true));
            }
        }
        Err(ClientError::Server(message)) => {
            assert!(message.contains("finished jobs cannot be cancelled"), "{message}");
        }
        Err(other) => panic!("unexpected cancel failure: {other}"),
    }

    handle.shutdown();
}
