//! Chaos e2e: the fault-injection harness turned up high against a real
//! in-process server. Workers panic at checkpoints, journal appends tear,
//! and fresh connections drop — yet no request hangs, every job reaches a
//! terminal state, progress accumulates in the store across panics, and a
//! resubmitted sweep eventually completes fully from the cache.
//!
//! Lives in its own test binary so `fault::install` (process-global,
//! first caller wins) cannot leak into the other e2e suites.

use std::path::PathBuf;
use temu_framework::{
    AxisSpec, ImplicitSolve, JsonValue, ScenarioSpec, SweepSpec, WorkloadSpec,
};
use temu_serve::client::submit_with_retry;
use temu_serve::{Client, ClientError, FaultPlan, Journal, RetryPolicy, ServeConfig, Server};

/// A 4-point sweep on one campaign thread, so a checkpoint (and therefore
/// a `worker_panic` roll) lands between every grid point.
fn chaos_sweep() -> SweepSpec {
    let tiny = |iters: u32| WorkloadSpec::Matrix { n: 4, iters, cores: 1 };
    SweepSpec {
        name: String::from("chaos"),
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
        threads: Some(1),
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("temu_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Retries a client call until it survives the connection-dropping fault.
fn with_retry<T>(mut call: impl FnMut() -> Result<T, ClientError>) -> T {
    for _ in 0..40 {
        match call() {
            Ok(value) => return value,
            Err(e) if e.is_transient() => std::thread::sleep(std::time::Duration::from_millis(5)),
            Err(e) => panic!("non-transient client error under chaos: {e}"),
        }
    }
    panic!("client call did not survive 40 attempts under chaos");
}

#[test]
fn server_under_injected_faults_stays_terminal_and_converges_to_cached() {
    // Every fault dialed high, installed before the server exists. The
    // `install` return tells us whether this process won the global slot
    // (it must — this test binary owns it).
    assert!(
        temu_serve::fault::install(FaultPlan { worker_panic: 0.5, torn_write: 0.5, drop_conn: 0.3 }),
        "this test binary installs the fault plan first"
    );

    let dir = temp_dir();
    let store = dir.join("cache.jsonl");
    let _ = std::fs::remove_file(&store);
    let journal = store.with_file_name("jobs.jsonl");
    let _ = std::fs::remove_file(&journal);

    let handle = Server::spawn(ServeConfig {
        addr: String::from("127.0.0.1:0"),
        store: Some(store.clone()),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = handle.addr().to_string();
    let spec = chaos_sweep();
    let policy = RetryPolicy { retries: 8, ..RetryPolicy::default() };

    // Resubmit until one run completes with every point ok. Each failed
    // run still banked at least the points it executed before its panic
    // (the checkpoint hook syncs the store first, then rolls the panic
    // die), so this converges long before the attempt budget — the final
    // successful run is typically served fully from the cache, where no
    // checkpoint fires and `worker_panic` cannot reach it.
    let mut done = None;
    let mut attempts = 0u32;
    while attempts < 60 {
        attempts += 1;
        let outcome = submit_with_retry(&addr, &policy, &spec, true, 0, |_| {})
            .expect("submission survives transient chaos");
        let summary = outcome.done.expect("watched submissions end with a done summary");
        if summary.ok && summary.failed == 0 {
            done = Some(summary);
            break;
        }
    }
    let done = done.expect("a chaos-battered sweep still completes within 60 submissions");
    assert_eq!(done.points, 4);
    assert_eq!(done.executed + done.cache_hits, 4, "the whole grid was served");

    // One more submission is pure cache: immune to worker panics.
    let outcome = submit_with_retry(&addr, &policy, &spec, true, 0, |_| {})
        .expect("cached resubmission survives transient chaos");
    let cached = outcome.done.unwrap();
    assert!(cached.ok);
    assert_eq!((cached.cache_hits, cached.executed, cached.failed), (4, 0, 0));

    // Every job the server ever accepted is terminal, and the server is
    // still answering requests.
    let stats = with_retry(|| Client::connect_with_retry(&addr, &policy)?.stats());
    let counter = |k: &str| stats.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(counter("running"), 0);
    assert_eq!(counter("queue_depth"), 0);
    assert_eq!(
        counter("jobs_submitted"),
        counter("jobs_completed") + counter("jobs_failed") + counter("jobs_cancelled"),
        "no job is left in limbo: {stats}"
    );
    assert!(counter("jobs_completed") >= 2, "both clean runs completed: {stats}");

    with_retry(|| Client::connect_with_retry(&addr, &policy)?.shutdown());
    handle.shutdown();

    // The journal the chaos run left behind — torn appends and all —
    // replays without panicking, and never resurrects a job id that was
    // never submitted.
    let (_, replayed) = Journal::open(&journal).expect("journal exists next to the store");
    let submitted = counter("jobs_submitted");
    for job in &replayed.pending {
        assert!(job.id >= 1 && job.id <= submitted, "phantom pending job {}", job.id);
        // A torn tail may lose the highest ids entirely, but whatever is
        // recoverable must be cleared by the fresh-id horizon.
        assert!(replayed.next_id > job.id, "fresh ids clear every recovered job");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// SIGKILL mid-point: window-granular checkpoint/restore through the real bin
// ---------------------------------------------------------------------------

/// A one-point sweep long enough (150 sampling windows) that SIGKILL lands
/// in the middle of the *point*, not between points — the case the
/// between-point store flush cannot save.
fn long_point_sweep() -> SweepSpec {
    SweepSpec {
        name: String::from("midpoint"),
        base: ScenarioSpec {
            cores: Some(1),
            workload: Some(WorkloadSpec::Matrix { n: 4, iters: 3, cores: 1 }),
            sampling_window_s: Some(0.0005),
            windows: Some(150),
            strict_convergence: Some(true),
            ..ScenarioSpec::default()
        },
        axes: Vec::new(),
        threads: Some(1),
    }
}

/// Spawns the real `temu-serve` bin with window checkpointing every
/// window, returning the child, its bound address, and the banner's
/// recovered-job / recovered-checkpoint counts.
fn spawn_checkpointing_serve(
    store: &std::path::Path,
) -> (std::process::Child, String, u64, u64) {
    use std::io::BufRead as _;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_temu-serve"))
        .args(["--addr", "127.0.0.1:0", "--window-checkpoint", "1", "--store"])
        .arg(store)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn temu-serve");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let (mut addr, mut recovered_jobs, mut recovered_states) = (None, 0u64, 0u64);
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).expect("read banner") == 0 {
            panic!("temu-serve exited before printing its banner");
        }
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("temu-serve listening on ") {
            addr = Some(rest.to_string());
        }
        if let Some((head, _)) = trimmed.split_once(" job(s) recovered") {
            recovered_jobs = head.rsplit(' ').next().and_then(|n| n.parse().ok()).unwrap_or(0);
        }
        if let Some((head, _)) = trimmed.split_once(" mid-point state(s) recovered") {
            recovered_states = head.rsplit(' ').next().and_then(|n| n.parse().ok()).unwrap_or(0);
        }
        if trimmed.contains("worker(s)") {
            break;
        }
    }
    (child, addr.expect("server printed its address"), recovered_jobs, recovered_states)
}

fn progress_windows(event: &JsonValue) -> Option<u64> {
    event
        .get("progress")
        .and_then(|p| p.get("windows"))
        .and_then(JsonValue::as_u64)
}

#[test]
fn sigkill_mid_point_resumes_from_the_window_checkpoint() {
    let dir = std::env::temp_dir().join(format!("temu_midpoint_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("cache.jsonl");
    for stale in ["cache.jsonl", "jobs.jsonl"] {
        let _ = std::fs::remove_file(dir.join(stale));
    }
    let spec = long_point_sweep();

    // Ground truth: the same point, uninterrupted and in-process.
    let reference = spec
        .lower()
        .unwrap()
        .run_cached(&temu_framework::ResultCache::in_memory());
    assert!(reference.all_ok());
    assert_eq!(reference.points.len(), 1);
    let ref_point = &reference.points[0];
    let ref_summary = ref_point.outcome.as_ref().unwrap();

    // First incarnation: submit, wait until the point is visibly past
    // window 10 via the mid-point `progress` events, then SIGKILL.
    let (mut first, addr, recovered_jobs, recovered_states) = spawn_checkpointing_serve(&store);
    assert_eq!((recovered_jobs, recovered_states), (0, 0), "a fresh journal recovers nothing");
    let (tx, rx) = std::sync::mpsc::channel();
    let watcher = {
        let spec = spec.clone();
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect to first server");
            // The submission dies with the server; the error is expected.
            let _ = client.submit(&spec, true, |event| {
                if let Some(windows) = progress_windows(event) {
                    let _ = tx.send(windows);
                }
            });
        })
    };
    let mut killed_after = 0;
    while killed_after < 10 {
        killed_after = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the point reports mid-point progress before the kill");
    }
    first.kill().expect("SIGKILL the server mid-point");
    let _ = first.wait();
    watcher.join().expect("watcher thread exits after the server dies");

    // Second incarnation: the journal recovers the job AND the checkpoint
    // store recovers the in-flight point's last window boundary.
    let (mut second, addr2, recovered_jobs, recovered_states) = spawn_checkpointing_serve(&store);
    assert_eq!(recovered_jobs, 1, "the killed job is re-enqueued");
    assert_eq!(recovered_states, 1, "the in-flight point's run state is recovered");
    let mut client = Client::connect(&addr2).expect("connect to restarted server");
    let mut resumed_progress: Vec<u64> = Vec::new();
    let done = client
        .watch(1, |event| {
            if let Some(windows) = progress_windows(event) {
                resumed_progress.push(windows);
            }
        })
        .expect("watch the recovered job to completion");
    assert!(done.ok, "the recovered job completes: {done:?}");
    assert_eq!(done.failed, 0);
    assert_eq!(
        (done.executed, done.cache_hits),
        (1, 0),
        "a mid-point resume still *executes* the point (it is not a cache hit)"
    );

    // The resume really was mid-point: the first boundary reported after
    // the restart continues past the pre-kill checkpoint instead of
    // starting over at window 1, so windows run after the restart < total.
    let first_after = *resumed_progress.first().expect("the resumed point reports progress");
    assert!(
        first_after > killed_after && first_after < 150,
        "resume continues from the checkpoint (first boundary after restart: \
         {first_after}, pre-kill progress: {killed_after})"
    );

    // The resumed point's report matches the uninterrupted run.
    let frame = client.result(1).expect("fetch the recovered job's report");
    let report = frame.get("report").expect("report attached");
    let points = report.get("points").and_then(JsonValue::as_arr).expect("points array");
    assert_eq!(points.len(), 1);
    let fetched = &points[0];
    let key = format!("{:016x}", ref_point.key.unwrap());
    assert_eq!(fetched.get("key").and_then(JsonValue::as_str), Some(key.as_str()));
    assert_eq!(fetched.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(fetched.get("windows").and_then(JsonValue::as_u64), Some(ref_summary.windows));
    assert_eq!(
        fetched.get("instructions").and_then(JsonValue::as_u64),
        Some(ref_summary.instructions),
        "the resumed point retired exactly the uninterrupted instruction count"
    );
    // The wire rounds peaks to 3 decimals; round the reference the same way.
    let wire_peak = ref_summary.peak_temp_k.map(|t| format!("{t:.3}").parse::<f64>().unwrap());
    assert_eq!(
        fetched.get("peak_temp_k").and_then(JsonValue::as_f64),
        wire_peak,
        "the resumed point's peak temperature matches the uninterrupted run"
    );

    client.shutdown().expect("graceful shutdown");
    let _ = second.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
