//! Kill-and-restart e2e: a real `temu-serve` process is SIGKILLed in the
//! middle of a multi-point sweep; a fresh process on the same store +
//! journal must recover the job, resume it as cache hits plus the
//! remaining points, and produce a report identical (per `content_key`)
//! to an uninterrupted run.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::channel;
use temu_framework::{
    AxisSpec, ImplicitSolve, JsonValue, ResultCache, ScenarioSpec, SweepSpec, WorkloadSpec,
};
use temu_serve::Client;

/// A 6-point sweep whose points are slow enough (~tens of ms each) that a
/// kill lands mid-run; one campaign thread so checkpoints fall between
/// every point.
fn slow_sweep() -> SweepSpec {
    let tiny = |iters: u32| WorkloadSpec::Matrix { n: 4, iters, cores: 1 };
    SweepSpec {
        name: String::from("recovery"),
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
    }
}

/// Spawns the real server bin on an ephemeral port and parses the bound
/// address (and recovered-job count) from its startup banner.
fn spawn_serve(store: &Path) -> (Child, BufReader<ChildStdout>, String, u64) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_temu-serve"))
        .args(["--addr", "127.0.0.1:0", "--store"])
        .arg(store)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn temu-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut addr = None;
    let mut recovered = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).expect("read banner") == 0 {
            panic!("temu-serve exited before printing its banner");
        }
        if let Some(rest) = line.trim().strip_prefix("temu-serve listening on ") {
            addr = Some(rest.to_string());
        }
        if let Some((count, _)) = line.trim().split_once(" job(s) recovered") {
            recovered = count.rsplit(' ').next().and_then(|n| n.parse().ok()).unwrap_or(0);
        }
        if line.contains("worker(s)") {
            break;
        }
    }
    (child, stdout, addr.expect("server printed its address"), recovered)
}

fn temp_store() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("temu_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("cache.jsonl")
}

#[test]
fn killed_server_recovers_the_job_and_resumes_from_the_cache() {
    let store = temp_store();
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(store.with_file_name("jobs.jsonl"));
    let spec = slow_sweep();

    // Ground truth for content keys: the same sweep, uninterrupted.
    let reference = spec.lower().unwrap().run_cached(&ResultCache::in_memory());
    assert!(reference.all_ok());
    let total = reference.points.len() as u64;

    // First incarnation: submit, watch from a side thread, SIGKILL the
    // process once two points have completed (and are in the store).
    let (mut first, _stdout, addr, recovered) = spawn_serve(&store);
    assert_eq!(recovered, 0, "a fresh journal recovers nothing");
    let (point_tx, point_rx) = channel();
    let watcher = {
        let spec = spec.clone();
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect to first server");
            // The submission dies with the server; the error is expected.
            let _ = client.submit(&spec, true, |event| {
                if event.get("event").and_then(JsonValue::as_str) == Some("point") {
                    let _ = point_tx.send(());
                }
            });
        })
    };
    for _ in 0..2 {
        point_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the sweep makes progress before the kill");
    }
    first.kill().expect("SIGKILL the server");
    let _ = first.wait();
    watcher.join().expect("watcher thread exits after the server dies");

    // Second incarnation: the journal re-enqueues job 1 automatically.
    let (mut second, _stdout2, addr2, recovered) = spawn_serve(&store);
    assert_eq!(recovered, 1, "the killed job is recovered from the journal");
    let mut client = Client::connect(&addr2).expect("connect to restarted server");
    let done = client.watch(1, |_| {}).expect("watch the recovered job to completion");
    assert!(done.ok, "the recovered job completes: {done:?}");
    assert_eq!(done.points, total);
    assert_eq!(done.failed, 0);
    assert!(
        done.cache_hits >= 2,
        "every point completed before the kill is a cache hit on resume: {done:?}"
    );
    assert_eq!(done.executed + done.cache_hits, total, "the whole grid was served");

    // Identical results per content key.
    let frame = client.result(1).expect("fetch the recovered job's report");
    let report = frame.get("report").expect("report attached");
    let points = report.get("points").and_then(JsonValue::as_arr).expect("points array");
    assert_eq!(points.len(), reference.points.len());
    for (fetched, expected) in points.iter().zip(&reference.points) {
        let key = format!("{:016x}", expected.key.unwrap());
        assert_eq!(fetched.get("key").and_then(JsonValue::as_str), Some(key.as_str()));
        assert_eq!(fetched.get("ok").and_then(JsonValue::as_bool), Some(true));
    }

    // Restart counters are visible to operators.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("jobs_recovered").and_then(JsonValue::as_u64), Some(1));
    assert!(stats.get("journal").and_then(JsonValue::as_str).is_some());

    client.shutdown().expect("graceful shutdown");
    let _ = second.wait();
    let dir = store.parent().unwrap().to_path_buf();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts the real server bin on an ephemeral port with `args`, reads its
/// startup banner, and shuts the server down before returning the
/// banner's lines, so a failing assertion on them leaves no server behind.
fn startup_banner(args: &[&OsStr]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_temu-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn temu-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (mut addr, mut banner, mut line) = (None, String::new(), String::new());
    while !line.contains("worker(s)") {
        line.clear();
        assert!(stdout.read_line(&mut line).expect("read banner") > 0, "banner ended early");
        addr = addr.or_else(|| line.trim().strip_prefix("temu-serve listening on ").map(String::from));
        banner.push_str(&line);
    }
    let addr = addr.expect("server printed its address");
    let stopped = Client::connect(&addr).and_then(|mut client| client.shutdown());
    if stopped.is_err() {
        let _ = child.kill();
    }
    let _ = child.wait();
    stopped.expect("graceful shutdown");
    banner
}

#[test]
fn startup_banner_reports_damaged_records_skipped_by_replay() {
    let dir = std::env::temp_dir().join(format!("temu_banner_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("cache.jsonl");
    let journal = dir.join("jobs.jsonl");
    for stale in [&store, &journal] {
        let _ = std::fs::remove_file(stale);
    }
    // A finished job, then a torn tail: one damaged journal record.
    {
        let (j, _) = temu_serve::Journal::open(&journal).unwrap();
        j.record_submit(1, "smoke", 0, &SweepSpec::named("smoke").unwrap());
        j.record_terminal(1, "done");
    }
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(b"TREC torn");
    std::fs::write(&journal, bytes).unwrap();

    let banner = startup_banner(&["--store".as_ref(), store.as_os_str()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        banner.contains(
            "0 job(s) recovered and re-enqueued, 0 mid-point state(s) recovered, 1 unreadable record(s) skipped\n"
        ),
        "{banner}"
    );
}

#[test]
fn startup_banner_announces_the_metrics_cadence_the_server_keeps() {
    let dir = std::env::temp_dir().join(format!("temu_metrics_banner_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("metrics.ndjson");
    // 5 ms is below the server's 10 ms floor: the banner names the floor.
    let banner =
        startup_banner(&["--metrics-interval".as_ref(), "5".as_ref(), "--metrics-log".as_ref(), log.as_os_str()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(banner.contains(&format!("metrics log {}: one snapshot every 10 ms\n", log.display())), "{banner}");
}

#[test]
fn an_old_json_lines_store_makes_the_server_exit_1_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("temu_old_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("cache.jsonl");
    let old = "{\"temu_store\": 1, \"entries\": 0}\n";
    std::fs::write(&store, old).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_temu-serve"))
        .args(["--addr", "127.0.0.1:0", "--store"])
        .arg(&store)
        .output()
        .expect("run temu-serve");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&store.display().to_string()), "names the store: {stderr}");
    assert!(!stderr.contains("cannot bind"), "a store error is not a bind error: {stderr}");
    assert_eq!(std::fs::read_to_string(&store).unwrap(), old, "the old store is left untouched");
    let _ = std::fs::remove_dir_all(&dir);
}
