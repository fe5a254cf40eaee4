//! Wire goldens: the exact bytes of every `temu-serve` reply and event,
//! read off a raw socket. Timings and other floats are masked (`F`), and
//! temp paths are replaced by placeholders; everything else — key order,
//! spacing, escaping, optional fields — must match byte for byte.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use temu_framework::{AxisSpec, ImplicitSolve, ResultCache, ScenarioSpec, SweepSpec, WorkloadSpec};
use temu_serve::{ServeConfig, Server, ServerHandle, MAX_FRAME_LEN};

/// A 4-point near-instant sweep on one campaign thread (deterministic
/// event order).
fn tiny_sweep(name: &str, windows: u64) -> SweepSpec {
    let tiny = |iters: u32| WorkloadSpec::Matrix { n: 4, iters, cores: 1 };
    SweepSpec {
        name: String::from(name),
        base: ScenarioSpec {
            cores: Some(1),
            workload: Some(tiny(1)),
            sampling_window_s: Some(0.0005),
            windows: Some(windows),
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

/// Replaces every JSON number with a fraction or exponent (outside
/// strings) by `F`, so timings and temperatures do not pin the golden.
fn mask(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                '\\' => out.extend(chars.next()),
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '-' || c.is_ascii_digit() {
            let mut number = String::from(c);
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() || matches!(d, '.' | 'e' | 'E' | '+' | '-') {
                    number.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            if number.contains(['.', 'e', 'E']) {
                out.push('F');
            } else {
                out.push_str(&number);
            }
        } else {
            in_string = c == '"';
            out.push(c);
        }
    }
    out
}

/// Replaces the window count of a mid-point cancellation by `N`: how far
/// the point got depends on when the cancel lands.
fn mask_windows_run(frame: &str) -> String {
    const AT: &str = "cancelled mid-point after ";
    match frame.split_once(AT).and_then(|(head, rest)| Some((head, rest.split_once(" windows")?.1))) {
        Some((head, tail)) => format!("{head}{AT}N windows{tail}"),
        None => frame.to_string(),
    }
}

struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(handle: &ServerHandle) -> Raw {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let writer = stream.try_clone().unwrap();
        Raw { reader: BufReader::new(stream), writer }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "every frame ends in a newline: {line:?}");
        line.pop();
        line
    }

    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Reads frames up to and including the first `done` event.
    fn until_done(&mut self) -> Vec<String> {
        let mut frames = Vec::new();
        loop {
            let frame = self.recv();
            let done = frame.starts_with("{\"event\": \"done\"");
            frames.push(frame);
            if done {
                return frames;
            }
        }
    }
}

fn submit_line(spec: &SweepSpec, watch: bool) -> String {
    format!("{{\"cmd\": \"submit\", \"watch\": {watch}, \"sweep\": {}}}", spec.to_json())
}

fn masked(frames: &[String]) -> Vec<String> {
    frames.iter().map(|f| mask(f)).collect()
}

#[test]
fn server_reply_and_event_bytes_are_pinned() {
    let handle = Server::spawn(ServeConfig {
        addr: String::from("127.0.0.1:0"),
        workers: 1,
        window_checkpoint: 1,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut raw = Raw::connect(&handle);
    assert_eq!(mask(&raw.ask("{\"cmd\": \"stats\"}")), GOLDEN_STATS_EMPTY);

    // A watched submission: ack, start, per-window progress, points, done.
    let spec = tiny_sweep("wire \"golden\"", 2);
    raw.send(&submit_line(&spec, true));
    assert_eq!(masked(&raw.until_done()), GOLDEN_SUBMIT_STREAM);

    assert_eq!(raw.ask("{\"cmd\": \"status\", \"job\": 1}"), GOLDEN_STATUS);
    assert_eq!(raw.ask("{\"cmd\": \"status\", \"job\": 99}"), GOLDEN_NO_SUCH_JOB);

    // The result frame carries the report flattened onto one line.
    let reference = spec.lower().unwrap().run_cached(&ResultCache::in_memory());
    let result = raw.ask("{\"cmd\": \"result\", \"job\": 1}");
    let expected = format!(
        "{{\"ok\": true, \"job\": 1, \"state\": \"done\", \"failed\": 0, \"report\": {}}}",
        reference.to_json().replace('\n', " ")
    );
    assert_eq!(mask(&result), mask(&expected));

    // Watching a finished job replays its terminal summary.
    raw.send("{\"cmd\": \"watch\", \"job\": 1}");
    assert_eq!(masked(&raw.until_done()), GOLDEN_WATCH_TERMINAL);

    // The results feed: ack, seq-stamped events, end.
    raw.send("{\"cmd\": \"results\", \"after\": 3}");
    let mut feed = vec![raw.recv()];
    while !feed.last().unwrap().starts_with("{\"event\": \"end\"") {
        feed.push(raw.recv());
    }
    assert_eq!(masked(&feed), GOLDEN_RESULTS);

    // Both cancels: a long job runs on the single worker while a second
    // one waits in the queue.
    let long = tiny_sweep("long", 40_000);
    assert_eq!(raw.ask(&submit_line(&long, false)), GOLDEN_LONG_ACK);
    assert_eq!(raw.ask(&submit_line(&tiny_sweep("queued", 2), false)), GOLDEN_QUEUED_ACK);
    assert_eq!(raw.ask("{\"cmd\": \"cancel\", \"job\": 3}"), GOLDEN_CANCELLED);
    // Cancel the running job only once its first point is past its start
    // check, so the cancel stops that point mid-run and it counts as
    // executed: a second connection watches job 2 up to its first
    // window-progress frame (the server runs with `window_checkpoint: 1`).
    let mut watcher = Raw::connect(&handle);
    watcher.send("{\"cmd\": \"watch\", \"job\": 2}");
    while !watcher.recv().contains("\"progress\": ") {}
    drop(watcher);
    assert_eq!(raw.ask("{\"cmd\": \"cancel\", \"job\": 2}"), GOLDEN_CANCELLING);
    raw.send("{\"cmd\": \"watch\", \"job\": 2}");
    let watched = raw.until_done();
    assert_eq!(watched[0], "{\"ok\": true, \"job\": 2}");
    assert_eq!(mask(watched.last().unwrap()), GOLDEN_CANCELLED_DONE);
    // Job 2's results feed keeps the point the cancel stopped, whenever
    // the watch attached: flagged cancelled, not failed.
    raw.send("{\"cmd\": \"results\", \"job\": 2}");
    let mut feed = vec![raw.recv()];
    while !feed.last().unwrap().starts_with("{\"event\": \"end\"") {
        feed.push(raw.recv());
    }
    let feed: Vec<String> = feed.iter().map(|f| mask(&mask_windows_run(f))).collect();
    assert_eq!(feed, GOLDEN_CANCELLED_RESULTS);

    // The metrics reply wraps the versioned snapshot.
    let metrics = raw.ask("{\"cmd\": \"metrics\"}");
    assert!(metrics.starts_with("{\"ok\": true, \"temu_metrics\":1,\"counters\":{"), "{metrics}");

    // An oversized frame is refused with a typed error, then the server
    // hangs up.
    let mut big = Raw::connect(&handle);
    let mut sink = big.writer.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = sink.write_all(&vec![b'x'; MAX_FRAME_LEN + 3]);
    });
    assert_eq!(big.recv(), GOLDEN_FRAME_TOO_LONG);
    flood.join().unwrap();

    assert_eq!(raw.ask("{\"cmd\": \"shutdown\"}"), GOLDEN_SHUTDOWN);
    handle.shutdown();
}

#[test]
fn member_stats_and_metrics_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("temu-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("cache.jsonl");
    let journal = dir.join("jobs.jsonl");
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&journal);
    let handle = Server::spawn(ServeConfig {
        addr: String::from("127.0.0.1:0"),
        store: Some(store.clone()),
        journal: Some(journal.clone()),
        member: Some(String::from("member \"a\"")),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut raw = Raw::connect(&handle);
    let stats = raw
        .ask("{\"cmd\": \"stats\"}")
        .replace(&store.display().to_string(), "STORE")
        .replace(&journal.display().to_string(), "JOURNAL");
    assert_eq!(mask(&stats), GOLDEN_MEMBER_STATS);
    let metrics = raw.ask("{\"cmd\": \"metrics\"}");
    assert!(
        metrics.starts_with(
            "{\"ok\": true, \"member\": \"member \\\"a\\\"\", \"temu_metrics\":1,\"counters\":{"
        ),
        "{metrics}"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

const GOLDEN_STATS_EMPTY: &str = "{\"ok\": true, \"jobs_submitted\": 0, \"jobs_completed\": 0, \"jobs_failed\": 0, \"jobs_cancelled\": 0, \"jobs_recovered\": 0, \"queue_depth\": 0, \"running\": 0, \"workers\": 1, \"queue_limit\": 64, \"points_executed\": 0, \"point_cache_hits\": 0, \"points_failed\": 0, \"cache_hit_rate\": F, \"artifact_hit_rate\": F, \"artifact_floorplan_hits\": 0, \"artifact_floorplan_misses\": 0, \"artifact_mesh_hits\": 0, \"artifact_mesh_misses\": 0, \"artifact_operator_hits\": 0, \"artifact_operator_misses\": 0, \"artifact_program_hits\": 0, \"artifact_program_misses\": 0, \"cache_entries\": 0, \"store\": null, \"journal\": null}";
const GOLDEN_SUBMIT_STREAM: [&str; 11] = [
    "{\"ok\": true, \"job\": 1, \"total\": 4}",
    "{\"event\": \"start\", \"job\": 1, \"total\": 4}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 0, \"label\": \"workload=matrix-4x4x1/solver=gs\", \"progress\": {\"windows\": 1, \"total_windows\": 2}}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 0, \"completed\": 1, \"total\": 4, \"label\": \"workload=matrix-4x4x1/solver=gs\", \"cache_hit\": false, \"ok\": true, \"peak_temp_k\": F, \"windows\": 2, \"unconverged_substeps\": 0}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 1, \"label\": \"workload=matrix-4x4x1/solver=mg\", \"progress\": {\"windows\": 1, \"total_windows\": 2}}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 1, \"completed\": 2, \"total\": 4, \"label\": \"workload=matrix-4x4x1/solver=mg\", \"cache_hit\": false, \"ok\": true, \"peak_temp_k\": F, \"windows\": 2, \"unconverged_substeps\": 0}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 2, \"label\": \"workload=matrix-4x4x2/solver=gs\", \"progress\": {\"windows\": 1, \"total_windows\": 2}}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 2, \"completed\": 3, \"total\": 4, \"label\": \"workload=matrix-4x4x2/solver=gs\", \"cache_hit\": false, \"ok\": true, \"peak_temp_k\": F, \"windows\": 2, \"unconverged_substeps\": 0}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 3, \"label\": \"workload=matrix-4x4x2/solver=mg\", \"progress\": {\"windows\": 1, \"total_windows\": 2}}",
    "{\"event\": \"point\", \"job\": 1, \"index\": 3, \"completed\": 4, \"total\": 4, \"label\": \"workload=matrix-4x4x2/solver=mg\", \"cache_hit\": false, \"ok\": true, \"peak_temp_k\": F, \"windows\": 2, \"unconverged_substeps\": 0}",
    "{\"event\": \"done\", \"job\": 1, \"ok\": true, \"points\": 4, \"executed\": 4, \"cache_hits\": 0, \"failed\": 0, \"wall_s\": F}",
];
const GOLDEN_STATUS: &str = "{\"ok\": true, \"job\": 1, \"name\": \"wire \\\"golden\\\"\", \"state\": \"done\", \"priority\": 0, \"completed\": 4, \"total\": 4, \"executed\": 4, \"cache_hits\": 0, \"failed\": 0}";
const GOLDEN_NO_SUCH_JOB: &str = "{\"ok\": false, \"error\": \"no such job 99\"}";
const GOLDEN_WATCH_TERMINAL: [&str; 2] = [
    "{\"ok\": true, \"job\": 1}",
    "{\"event\": \"done\", \"job\": 1, \"ok\": true, \"points\": 4, \"executed\": 4, \"cache_hits\": 0, \"failed\": 0, \"wall_s\": F}",
];
const GOLDEN_RESULTS: [&str; 4] = [
    "{\"ok\": true, \"cursor\": 5, \"earliest_retained\": 1}",
    "{\"seq\": 4, \"event\": \"point\", \"job\": 1, \"index\": 3, \"completed\": 4, \"total\": 4, \"label\": \"workload=matrix-4x4x2/solver=mg\", \"cache_hit\": false, \"ok\": true, \"peak_temp_k\": F, \"windows\": 2, \"unconverged_substeps\": 0}",
    "{\"seq\": 5, \"event\": \"done\", \"job\": 1, \"ok\": true, \"points\": 4, \"executed\": 4, \"cache_hits\": 0, \"failed\": 0, \"wall_s\": F}",
    "{\"event\": \"end\", \"cursor\": 5}",
];
const GOLDEN_LONG_ACK: &str = "{\"ok\": true, \"job\": 2, \"total\": 4}";
const GOLDEN_QUEUED_ACK: &str = "{\"ok\": true, \"job\": 3, \"total\": 4}";
const GOLDEN_CANCELLED: &str = "{\"ok\": true, \"job\": 3, \"cancelled\": true}";
const GOLDEN_CANCELLING: &str = "{\"ok\": true, \"job\": 2, \"cancelling\": true}";
const GOLDEN_CANCELLED_DONE: &str = "{\"event\": \"done\", \"job\": 2, \"ok\": false, \"points\": 4, \"executed\": 1, \"cache_hits\": 0, \"failed\": 0, \"wall_s\": F, \"cancelled\": true}";
const GOLDEN_CANCELLED_RESULTS: [&str; 4] = [
    "{\"ok\": true, \"cursor\": 8, \"earliest_retained\": 1}",
    "{\"seq\": 7, \"event\": \"point\", \"job\": 2, \"index\": 0, \"completed\": 1, \"total\": 4, \"label\": \"workload=matrix-4x4x1/solver=gs\", \"cache_hit\": false, \"ok\": false, \"error\": \"cancelled mid-point after N windows\", \"cancelled\": true}",
    "{\"seq\": 8, \"event\": \"done\", \"job\": 2, \"ok\": false, \"points\": 4, \"executed\": 1, \"cache_hits\": 0, \"failed\": 0, \"wall_s\": F, \"cancelled\": true}",
    "{\"event\": \"end\", \"cursor\": 8}",
];
const GOLDEN_FRAME_TOO_LONG: &str = "{\"ok\": false, \"code\": \"frame_too_long\", \"limit\": 1048576, \"error\": \"frame exceeds the 1048576-byte protocol bound\"}";
const GOLDEN_SHUTDOWN: &str = "{\"ok\": true, \"shutdown\": true}";
const GOLDEN_MEMBER_STATS: &str = "{\"ok\": true, \"member\": \"member \\\"a\\\"\", \"jobs_submitted\": 0, \"jobs_completed\": 0, \"jobs_failed\": 0, \"jobs_cancelled\": 0, \"jobs_recovered\": 0, \"queue_depth\": 0, \"running\": 0, \"workers\": 1, \"queue_limit\": 64, \"points_executed\": 0, \"point_cache_hits\": 0, \"points_failed\": 0, \"cache_hit_rate\": F, \"artifact_hit_rate\": F, \"artifact_floorplan_hits\": 0, \"artifact_floorplan_misses\": 0, \"artifact_mesh_hits\": 0, \"artifact_mesh_misses\": 0, \"artifact_operator_hits\": 0, \"artifact_operator_misses\": 0, \"artifact_program_hits\": 0, \"artifact_program_misses\": 0, \"cache_entries\": 0, \"store\": \"STORE\", \"journal\": \"JOURNAL\"}";
