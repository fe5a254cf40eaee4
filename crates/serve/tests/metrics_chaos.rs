//! Chaos e2e for the metrics surface: with worker panics and dropped
//! connections dialed high (but journal appends intact), the `metrics`
//! snapshot's job counters must agree exactly with both the `stats` view
//! and the journal's own record counts — the registry, the legacy stats
//! fields, and the write-ahead log are three views of one truth.
//!
//! Lives in its own test binary because `fault::install` is
//! process-global (first caller wins) and this plan differs from the
//! main chaos suite's: `torn_write` stays at zero so every terminal
//! transition a worker counted also landed intact in the journal.

use std::path::PathBuf;
use temu_framework::{
    AxisSpec, ImplicitSolve, JsonValue, ScenarioSpec, SweepSpec, WorkloadSpec,
};
use temu_serve::client::submit_with_retry;
use temu_serve::journal::JOURNAL_MAGIC;
use temu_serve::{Client, ClientError, FaultPlan, RetryPolicy, ServeConfig, Server};
use temu_state::AppendLog;

/// A 4-point sweep on one campaign thread, so a checkpoint (and a
/// `worker_panic` roll) lands between every grid point.
fn chaos_sweep() -> SweepSpec {
    let tiny = |iters: u32| WorkloadSpec::Matrix { n: 4, iters, cores: 1 };
    SweepSpec {
        name: String::from("metrics-chaos"),
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
    let dir = std::env::temp_dir().join(format!("temu_metrics_chaos_{}", std::process::id()));
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
fn metrics_job_counters_match_stats_and_the_journal_after_a_chaos_run() {
    assert!(
        temu_serve::fault::install(FaultPlan {
            worker_panic: 0.5,
            torn_write: 0.0,
            drop_conn: 0.3,
        }),
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

    // Resubmit until one run completes fully, then once more from the
    // cache — every submission is watched to its done summary, so every
    // job the server ever accepted is terminal before the counters are
    // read (a panicked job reports `failed`, not limbo).
    let mut completed = false;
    let mut attempts = 0u32;
    while attempts < 60 && !completed {
        attempts += 1;
        let outcome = submit_with_retry(&addr, &policy, &spec, true, 0, |_| {})
            .expect("submission survives transient chaos");
        let summary = outcome.done.expect("watched submissions end with a done summary");
        completed = summary.ok && summary.failed == 0;
    }
    assert!(completed, "a chaos-battered sweep still completes within 60 submissions");
    let cached = submit_with_retry(&addr, &policy, &spec, true, 0, |_| {})
        .expect("cached resubmission survives transient chaos")
        .done
        .unwrap();
    assert_eq!((cached.cache_hits, cached.executed, cached.failed), (4, 0, 0));

    // Three views of the job ledger, fetched while the server is up.
    let stats = with_retry(|| Client::connect_with_retry(&addr, &policy)?.stats());
    let metrics = with_retry(|| Client::connect_with_retry(&addr, &policy)?.metrics());
    assert_eq!(metrics.get("temu_metrics").and_then(JsonValue::as_u64), Some(1));
    let counters = metrics.get("counters").expect("counters map");
    let counter = |k: &str| counters.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let stat = |k: &str| stats.get(k).and_then(JsonValue::as_u64).unwrap_or(0);

    // View 1 vs view 2: the registry and the stats frame agree key for
    // key (`stats` is a thin view over the same counters).
    for (snapshot_key, stats_key) in [
        ("serve.jobs_submitted", "jobs_submitted"),
        ("serve.jobs_completed", "jobs_completed"),
        ("serve.jobs_failed", "jobs_failed"),
        ("serve.jobs_cancelled", "jobs_cancelled"),
        ("serve.points_executed", "points_executed"),
        ("serve.point_cache_hits", "point_cache_hits"),
    ] {
        assert_eq!(
            counter(snapshot_key),
            stat(stats_key),
            "{snapshot_key} agrees with stats.{stats_key}: {metrics}"
        );
    }
    let terminal = counter("serve.jobs_completed")
        + counter("serve.jobs_failed")
        + counter("serve.jobs_cancelled");
    assert_eq!(counter("serve.jobs_submitted"), terminal, "no job is left in limbo");
    assert!(counter("serve.jobs_completed") >= 2, "both clean runs completed: {metrics}");

    with_retry(|| Client::connect_with_retry(&addr, &policy)?.shutdown());
    handle.shutdown();

    // View 3: with torn writes disabled, the journal holds exactly one
    // submit record per counted submission and one terminal record per
    // counted completion/failure/cancellation.
    let (_, replay) =
        AppendLog::open(&journal, JOURNAL_MAGIC).expect("journal exists next to the store");
    let records = |op: &str| -> u64 {
        let prefix = format!("{{\"op\": \"{op}\",");
        replay.records.iter().filter(|r| r.starts_with(prefix.as_bytes())).count() as u64
    };
    assert_eq!(records("submit"), counter("serve.jobs_submitted"), "journal submit records");
    assert_eq!(
        records("done") + records("failed") + records("cancelled"),
        terminal,
        "journal terminal records match the metrics job counters"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
