//! The emulation job client.
//!
//! ```sh
//! temu-client [--addr HOST:PORT] [--retries N | --no-retry]
//!             submit (--spec FILE.json | --preset NAME)
//!             [--threads N] [--priority N] [--no-watch] [--require-cached]
//! temu-client [--addr HOST:PORT] status JOB | result JOB | cancel JOB |
//!             watch JOB | stats | shutdown
//! temu-client [--addr HOST:PORT] metrics [--watch SECS]
//! temu-client [--addr HOST:PORT] results [--after SEQ] [--follow] [--job ID]
//! temu-client check-metrics-log FILE.ndjson [--jobs-done N]
//! temu-client presets
//! ```
//!
//! `submit` sends a sweep spec (a JSON file — a full sweep, or a bare
//! scenario spec that becomes a one-point sweep — or a named preset) and,
//! unless `--no-watch`, pretty-prints the streamed per-point progress.
//!
//! Transient failures (refused connect, dropped connection, deadline) are
//! retried with exponential backoff and jitter — `--retries N` sizes the
//! budget, `--no-retry` fails fast. Retried submissions are safe: the
//! server memoizes results by content key, so a resubmitted sweep's
//! completed points are cache hits.
//!
//! Exit codes: 0 success; 1 failed points or a failed/cancelled job;
//! 2 usage, connection or server-refusal errors (including an unreachable
//! server after all attempts); 3 `--require-cached` was passed and the
//! job executed any scenario instead of hitting the cache.

use std::process::exit;
use temu_framework::{JsonValue, SweepSpec, NAMED_SWEEPS};
use temu_serve::client::{request_with_retry, submit_with_retry};
use temu_serve::{spec_from_document, Client, ClientError, RetryPolicy, ADDR_ENV, DEFAULT_ADDR};

const USAGE: &str = "usage: temu-client [--addr HOST:PORT] [--retries N | --no-retry] <submit|status|result|cancel|watch|stats|metrics|results|check-metrics-log|shutdown|presets> [args]
  submit (--spec FILE.json | --preset NAME) [--threads N] [--priority N] [--no-watch] [--require-cached]
  status|result|cancel|watch JOB
  metrics [--watch SECS]    metrics snapshot (repeating with counter deltas)
  results [--after SEQ] [--follow] [--job ID]    stream completed points as NDJSON
  check-metrics-log FILE.ndjson [--jobs-done N]    validate a --metrics-log file offline
  presets    list the named sweep presets";

fn fail(message: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("temu-client: {message}");
    exit(code);
}

fn fail_client(e: &ClientError) -> ! {
    match e {
        ClientError::Unreachable { addr, attempts, .. } => {
            fail(format!("server unreachable at {addr} after {attempts} attempt(s)"), 2)
        }
        other => fail(other, 2),
    }
}

/// One idempotent request with full retry (fresh connection per attempt).
fn retrying<T>(
    addr: &str,
    policy: &RetryPolicy,
    call: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> T {
    request_with_retry(addr, policy, call).unwrap_or_else(|e| fail_client(&e))
}

/// The line `submit` and `watch` print for one streamed event; `None` for
/// the `done` event, which [`summarize`] reports.
fn event_line(event: &JsonValue) -> Option<String> {
    match event.get("event").and_then(JsonValue::as_str) {
        Some("start") => {
            let total = event.get("total").and_then(JsonValue::as_u64).unwrap_or(0);
            Some(format!("running {total} point(s)"))
        }
        Some("point") => {
            let field = |k: &str| event.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
            let label = match event.get("label").and_then(JsonValue::as_str).unwrap_or("?") {
                // The one point of a sweep without axes has an empty label.
                "" => format!("point {}", field("index")),
                label => label.to_string(),
            };
            // A mid-point window-checkpoint update (servers running with
            // --window-checkpoint); finished-point events never carry it.
            if let Some(progress) = event.get("progress") {
                let at = |k: &str| progress.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                return Some(format!(
                    "  [  ...  ] {label:<60} running {}/{} windows",
                    at("windows"),
                    at("total_windows")
                ));
            }
            let status = if event.get("ok").and_then(JsonValue::as_bool) == Some(true) {
                let peak = event
                    .get("peak_temp_k")
                    .and_then(JsonValue::as_f64)
                    .map_or_else(|| String::from("-"), |t| format!("{t:.2}K"));
                let cached = if event.get("cache_hit").and_then(JsonValue::as_bool) == Some(true) {
                    "  [cached]"
                } else {
                    ""
                };
                format!("peak {peak} windows {}{cached}", field("windows"))
            } else {
                let error = event.get("error").and_then(JsonValue::as_str).unwrap_or("?");
                // A point that a cancel stopped says so in its error.
                if event.get("cancelled").and_then(JsonValue::as_bool) == Some(true) {
                    String::from(error)
                } else {
                    format!("FAILED: {error}")
                }
            };
            Some(format!("  [{:>3}/{}] {:<60} {status}", field("completed"), field("total"), label))
        }
        Some("done") => None,
        _ => Some(event.to_string()),
    }
}

fn print_event(event: &JsonValue) {
    if let Some(line) = event_line(event) {
        println!("{line}");
    }
}

fn summarize(done: &temu_serve::DoneSummary) {
    println!(
        "job finished: {} point(s), {} executed, {} cache hit(s), {} failed, {:.2} s server wall",
        done.points, done.executed, done.cache_hits, done.failed, done.wall_s
    );
    if let Some(e) = &done.error {
        println!("job error: {e}");
    }
}

fn submit(addr: &str, policy: &RetryPolicy, args: &[String]) -> ! {
    let mut spec: Option<SweepSpec> = None;
    let mut watch = true;
    let mut require_cached = false;
    let mut threads: Option<usize> = None;
    let mut priority: i64 = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                let path = it.next().unwrap_or_else(|| fail("--spec takes a path", 2));
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format!("reading {path}: {e}"), 2));
                let doc = JsonValue::parse(&text)
                    .unwrap_or_else(|e| fail(format!("{path}: invalid JSON: {e}"), 2));
                spec = Some(
                    spec_from_document(&doc).unwrap_or_else(|e| fail(format!("{path}: {e}"), 2)),
                );
            }
            "--preset" => {
                let name = it.next().unwrap_or_else(|| fail("--preset takes a name", 2));
                spec = Some(SweepSpec::named(name).unwrap_or_else(|| {
                    fail(format!("unknown preset {name:?} (see: temu-client presets)"), 2)
                }));
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--threads takes a positive integer", 2)),
                );
            }
            "--priority" => {
                priority = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--priority takes an integer (higher runs first)", 2));
            }
            "--no-watch" => watch = false,
            "--require-cached" => require_cached = true,
            other => fail(format!("unknown submit argument {other:?}\n{USAGE}"), 2),
        }
    }
    let mut spec = spec.unwrap_or_else(|| fail(format!("submit needs --spec or --preset\n{USAGE}"), 2));
    if require_cached && !watch {
        // The cache gate needs the job's done summary, which only a
        // watched submission delivers.
        fail("--require-cached needs the watched submission (drop --no-watch)", 2);
    }
    if threads.is_some() {
        spec.threads = threads;
    }

    println!("submitting \"{}\" to {addr}", spec.name);
    let outcome = submit_with_retry(addr, policy, &spec, watch, priority, print_event)
        .unwrap_or_else(|e| fail_client(&e));
    if !watch {
        println!("queued as job {} ({} point(s))", outcome.job, outcome.total);
        exit(0);
    }
    let done = outcome.done.unwrap_or_else(|| fail("watched submission ended without a done event", 2));
    summarize(&done);
    if require_cached && done.executed != 0 {
        fail(format!("--require-cached: {} point(s) executed instead of hitting the cache", done.executed), 3);
    }
    exit(i32::from(!(done.ok && done.failed == 0)));
}

/// Human-oriented lines after the raw stats frame. Every field is
/// optional — an older server (no `queue_depth`) or a plain member (no
/// `members` breakdown) just prints fewer lines.
fn print_stats_summary(frame: &JsonValue) {
    if let Some(depth) = frame.get("queue_depth").and_then(JsonValue::as_u64) {
        let running = frame.get("running").and_then(JsonValue::as_u64).unwrap_or(0);
        let workers = frame.get("workers").and_then(JsonValue::as_u64).unwrap_or(0);
        println!("queue: {depth} queued, {running} running, {workers} worker(s)");
    }
    let Some(JsonValue::Arr(members)) = frame.get("members") else { return };
    println!("fleet: {} member(s)", members.len());
    for member in members {
        let addr = member.get("addr").and_then(JsonValue::as_str).unwrap_or("?");
        let state = if member.get("up").and_then(JsonValue::as_bool) == Some(true) {
            "up"
        } else {
            "DOWN"
        };
        let routed = member.get("routed").and_then(JsonValue::as_u64).unwrap_or(0);
        let failures = member.get("failures").and_then(JsonValue::as_u64).unwrap_or(0);
        println!("  {addr:<21} {state:<4} {routed} routed, {failures} failure(s)");
    }
}

/// One human line per histogram: count, mean and the three quantiles the
/// snapshot carries. Nanosecond metrics (`*_ns`) render in milliseconds.
fn print_histogram_line(name: &str, h: &JsonValue) {
    let num = |k: &str| h.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let (scale, unit) = if name.ends_with("_ns") { (1e6, " ms") } else { (1.0, "") };
    println!(
        "  {name:<36} n={:<8} mean {:>9.3}{unit}  p50 {:>9.3}{unit}  p90 {:>9.3}{unit}  p99 {:>9.3}{unit}",
        num("count") as u64,
        num("mean") / scale,
        num("p50") / scale,
        num("p90") / scale,
        num("p99") / scale,
    );
}

/// Pretty-prints one metrics frame; with a previous frame, counters print
/// their delta since it (unchanged counters are suppressed, so a watch
/// tick shows what moved).
fn print_metrics(frame: &JsonValue, prev: Option<&JsonValue>) {
    if let Some(JsonValue::Obj(counters)) = frame.get("counters") {
        println!("counters:");
        for (name, v) in counters {
            let now = v.as_u64().unwrap_or(0);
            let before = prev
                .and_then(|p| p.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_u64);
            match before {
                Some(b) if now == b => {}
                Some(b) => println!("  {name:<36} {now:<12} (+{})", now - b),
                None => println!("  {name:<36} {now}"),
            }
        }
    }
    if let Some(JsonValue::Obj(gauges)) = frame.get("gauges") {
        println!("gauges:");
        for (name, v) in gauges {
            println!("  {name:<36} {}", v.as_u64().unwrap_or(0));
        }
    }
    if let Some(JsonValue::Obj(histograms)) = frame.get("histograms") {
        println!("histograms:");
        for (name, h) in histograms {
            print_histogram_line(name, h);
        }
    }
}

fn metrics_cmd(addr: &str, policy: &RetryPolicy, args: &[String]) -> ! {
    let mut watch: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--watch" => {
                watch = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&secs| secs > 0)
                        .unwrap_or_else(|| fail("--watch takes a positive second count", 2)),
                );
            }
            other => fail(format!("unknown metrics argument {other:?}\n{USAGE}"), 2),
        }
    }
    let mut prev: Option<JsonValue> = None;
    loop {
        let frame = retrying(addr, policy, |c| c.metrics());
        print_metrics(&frame, prev.as_ref());
        let Some(secs) = watch else { exit(0) };
        prev = Some(frame);
        std::thread::sleep(std::time::Duration::from_secs(secs));
        println!();
    }
}

/// Streams the completed-point feed as raw NDJSON (one event per line,
/// each carrying its `seq`) — pipeline-friendly. `--follow` keeps the
/// stream open; a dropped connection resumes from the last seen sequence
/// number, so no event is duplicated or lost while the server retains it.
fn results_cmd(addr: &str, policy: &RetryPolicy, args: &[String]) -> ! {
    let mut after: u64 = 0;
    let mut follow = false;
    let mut job: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--after" => {
                after = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--after takes a sequence number", 2));
            }
            "--follow" => follow = true,
            "--job" => {
                job = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--job takes a job id", 2)),
                );
            }
            other => fail(format!("unknown results argument {other:?}\n{USAGE}"), 2),
        }
    }
    // The resume cursor advances as events print, so a reconnect (inside
    // request_with_retry, or the outer follow loop) replays from the last
    // event actually seen — exactly-once across drops.
    let cursor = std::cell::Cell::new(after);
    loop {
        let outcome = request_with_retry(addr, policy, |c| {
            c.results(cursor.get(), follow, job, |event| {
                if let Some(seq) = event.get("seq").and_then(JsonValue::as_u64) {
                    cursor.set(seq);
                }
                println!("{event}");
            })
        });
        match outcome {
            Ok(_end_cursor) => exit(0),
            // A mid-stream drop under --follow past the retry budget:
            // keep reconnecting from the cursor as long as the server
            // answers connects (an unreachable server is not transient
            // and falls through to the failure below).
            Err(e) if follow && e.is_transient() => continue,
            Err(e) => fail_client(&e),
        }
    }
}

/// Offline validation of a `--metrics-log` NDJSON file (the check.sh
/// obs-smoke gate): every line parses as a v1 snapshot, sequence numbers
/// strictly increase, every counter is monotone non-decreasing across
/// snapshots, and (with `--jobs-done`) the final snapshot's completed-job
/// counter matches. Snapshot lines are single `O_APPEND` writes, so only
/// the file's last line may legitimately be torn (a dying server).
fn check_metrics_log(args: &[String]) -> ! {
    let mut path: Option<&String> = None;
    let mut jobs_done: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs-done" => {
                jobs_done = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--jobs-done takes a count", 2)),
                );
            }
            other if !other.starts_with("--") && path.is_none() => path = Some(arg),
            other => fail(format!("unknown check-metrics-log argument {other:?}\n{USAGE}"), 2),
        }
    }
    let path = path.unwrap_or_else(|| fail(format!("check-metrics-log takes a file\n{USAGE}"), 2));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("reading {path}: {e}"), 2));
    let lines: Vec<&str> = text.lines().filter(|line| !line.trim().is_empty()).collect();
    let mut prev: Option<JsonValue> = None;
    let mut snapshots = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let frame = match JsonValue::parse(line) {
            Ok(frame) => frame,
            Err(e) if i + 1 == lines.len() => {
                println!("tolerating torn final line: {e}");
                break;
            }
            Err(e) => fail(format!("{path}:{}: invalid JSON: {e}", i + 1), 1),
        };
        if frame.get("temu_metrics").and_then(JsonValue::as_u64) != Some(1) {
            fail(format!("{path}:{}: not a v1 metrics snapshot", i + 1), 1);
        }
        let seq = frame
            .get("seq")
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| fail(format!("{path}:{}: snapshot missing seq", i + 1), 1));
        if let Some(p) = &prev {
            let prev_seq = p.get("seq").and_then(JsonValue::as_u64).unwrap_or(0);
            if seq <= prev_seq {
                fail(format!("{path}:{}: seq {seq} does not advance past {prev_seq}", i + 1), 1);
            }
            if let (Some(JsonValue::Obj(counters)), Some(before)) =
                (frame.get("counters"), p.get("counters"))
            {
                for (name, v) in counters {
                    let now = v.as_u64().unwrap_or(0);
                    let was = before.get(name).and_then(JsonValue::as_u64).unwrap_or(0);
                    if now < was {
                        fail(
                            format!(
                                "{path}:{}: counter {name} went backwards ({was} -> {now})",
                                i + 1
                            ),
                            1,
                        );
                    }
                }
            }
        }
        prev = Some(frame);
        snapshots += 1;
    }
    let last = prev.unwrap_or_else(|| fail(format!("{path}: no complete snapshot"), 1));
    let completed = last
        .get("counters")
        .and_then(|c| c.get("serve.jobs_completed"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    if let Some(expect) = jobs_done {
        if completed != expect {
            fail(format!("final snapshot reports {completed} completed job(s), expected {expect}"), 1);
        }
    }
    println!("metrics log OK: {snapshots} snapshot(s), final jobs_completed={completed}");
    exit(0);
}

fn job_arg(args: &[String]) -> u64 {
    args.first()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail(format!("expected a job id\n{USAGE}"), 2))
}

/// One latency line under `stats`, fed by a best-effort `metrics` fetch:
/// queue-wait and run p50/p99 plus the point cache hit rate. Servers
/// predating the `metrics` command refuse the request — that (and any
/// other failure here) silently prints nothing, keeping `stats` working
/// against every server version.
fn print_latency_summary(addr: &str, stats: &JsonValue) {
    let Ok(mut client) = Client::connect(addr) else { return };
    let Ok(metrics) = client.metrics() else { return };
    let quantiles = |name: &str| {
        let h = metrics.get("histograms")?.get(name)?;
        let ms = |k: &str| Some(h.get(k)?.as_f64()? / 1e6);
        if h.get("count")?.as_u64()? == 0 {
            return None;
        }
        Some((ms("p50")?, ms("p99")?))
    };
    let mut parts: Vec<String> = Vec::new();
    if let Some((p50, p99)) = quantiles("serve.queue_wait_ns") {
        parts.push(format!("queue wait p50 {p50:.1} ms / p99 {p99:.1} ms"));
    }
    if let Some((p50, p99)) = quantiles("serve.run_ns") {
        parts.push(format!("run p50 {p50:.1} ms / p99 {p99:.1} ms"));
    }
    if let Some(rate) = stats.get("cache_hit_rate").and_then(JsonValue::as_f64) {
        parts.push(format!("cache hit rate {:.1}%", rate * 100.0));
    }
    if !parts.is_empty() {
        println!("latency: {}", parts.join(", "));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = std::env::var(ADDR_ENV).unwrap_or_else(|_| String::from(DEFAULT_ADDR));
    let mut policy = RetryPolicy::default();
    let mut rest = &args[..];
    loop {
        match rest {
            [flag, value, tail @ ..] if flag == "--addr" => {
                addr = value.clone();
                rest = tail;
            }
            [flag, value, tail @ ..] if flag == "--retries" => {
                policy.retries = value
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--retries takes a count\n{USAGE}"), 2));
                rest = tail;
            }
            [flag, tail @ ..] if flag == "--no-retry" => {
                policy = RetryPolicy::none();
                rest = tail;
            }
            _ => break,
        }
    }
    let Some((cmd, cmd_args)) = rest.split_first() else {
        eprintln!("{USAGE}");
        exit(2);
    };
    match cmd.as_str() {
        "submit" => submit(&addr, &policy, cmd_args),
        "presets" => {
            println!("named sweep presets (submit with: temu-client submit --preset NAME):");
            for (name, what) in NAMED_SWEEPS {
                println!("  {name:<10} {what}");
            }
        }
        "status" => {
            let job = job_arg(cmd_args);
            let frame = retrying(&addr, &policy, |c| c.status(job));
            println!("{frame}");
        }
        "result" => {
            let job = job_arg(cmd_args);
            let frame = retrying(&addr, &policy, |c| c.result(job));
            match frame.get("report") {
                Some(report) => println!("{report}"),
                None => println!("{frame}"),
            }
            let failed = frame.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
            exit(i32::from(failed != 0));
        }
        "cancel" => {
            let job = job_arg(cmd_args);
            let frame = retrying(&addr, &policy, |c| c.cancel(job));
            println!("{frame}");
        }
        "watch" => {
            // A mid-stream drop reattaches; a job that finished in the
            // gap answers the re-watch with its done summary immediately.
            let job = job_arg(cmd_args);
            let done = retrying(&addr, &policy, |c| c.watch(job, print_event));
            summarize(&done);
            exit(i32::from(!(done.ok && done.failed == 0)));
        }
        "stats" => {
            let frame = retrying(&addr, &policy, |c| c.stats());
            println!("{frame}");
            print_stats_summary(&frame);
            print_latency_summary(&addr, &frame);
        }
        "metrics" => metrics_cmd(&addr, &policy, cmd_args),
        "results" => results_cmd(&addr, &policy, cmd_args),
        "check-metrics-log" => check_metrics_log(cmd_args),
        "shutdown" => {
            retrying(&addr, &policy, |c| c.shutdown());
            println!("server at {addr} shutting down");
        }
        other => fail(format!("unknown command {other:?}\n{USAGE}"), 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(event: &str) -> Option<String> {
        event_line(&JsonValue::parse(event).unwrap())
    }

    /// The label column: every point line pads its label to 60 columns.
    fn col(label: &str) -> String {
        format!("{label:<60}")
    }

    #[test]
    fn start_and_done_events() {
        assert_eq!(line(r#"{"event": "start", "job": 3, "total": 8}"#).unwrap(), "running 8 point(s)");
        assert_eq!(line(r#"{"event": "done", "job": 3, "ok": true}"#), None, "summarize reports it");
    }

    #[test]
    fn finished_and_cached_points() {
        let finished = r#"{"event": "point", "job": 1, "index": 0, "completed": 1, "total": 4,
            "label": "cores=2", "cache_hit": false, "ok": true, "peak_temp_k": 351.236,
            "windows": 40, "unconverged_substeps": 0}"#;
        assert_eq!(line(finished).unwrap(), format!("  [  1/4] {} peak 351.24K windows 40", col("cores=2")));
        let cached = r#"{"event": "point", "job": 1, "index": 3, "completed": 4, "total": 4,
            "label": "cores=4", "cache_hit": true, "ok": true, "windows": 40}"#;
        assert_eq!(
            line(cached).unwrap(),
            format!("  [  4/4] {} peak - windows 40  [cached]", col("cores=4")),
            "a point without a finite peak prints a dash"
        );
    }

    #[test]
    fn failed_and_cancelled_points() {
        let failed = r#"{"event": "point", "job": 2, "index": 1, "completed": 2, "total": 2,
            "label": "mesh=9", "cache_hit": false, "ok": false, "error": "thermal: diverged"}"#;
        assert_eq!(line(failed).unwrap(), format!("  [  2/2] {} FAILED: thermal: diverged", col("mesh=9")));
        let cancelled = r#"{"event": "point", "job": 2, "index": 0, "completed": 1, "total": 1,
            "label": "resume-smoke", "cache_hit": false, "ok": false,
            "error": "cancelled mid-point after 25 windows", "cancelled": true}"#;
        assert_eq!(
            line(cancelled).unwrap(),
            format!("  [  1/1] {} cancelled mid-point after 25 windows", col("resume-smoke")),
            "a point a cancel stopped is not a failure"
        );
    }

    #[test]
    fn points_without_a_label_print_their_index() {
        let finished = r#"{"event": "point", "job": 1, "index": 0, "completed": 1, "total": 1,
            "label": "", "cache_hit": false, "ok": true, "peak_temp_k": 304.94, "windows": 400}"#;
        assert_eq!(line(finished).unwrap(), format!("  [  1/1] {} peak 304.94K windows 400", col("point 0")));
        let progress = r#"{"event": "point", "job": 1, "index": 0, "label": "",
            "progress": {"windows": 75, "total_windows": 400}}"#;
        assert_eq!(line(progress).unwrap(), format!("  [  ...  ] {} running 75/400 windows", col("point 0")));
    }

    #[test]
    fn mid_point_progress() {
        let progress = r#"{"event": "point", "job": 5, "index": 0, "label": "cores=2",
            "progress": {"windows": 25, "total_windows": 400}}"#;
        assert_eq!(line(progress).unwrap(), format!("  [  ...  ] {} running 25/400 windows", col("cores=2")));
    }
}
