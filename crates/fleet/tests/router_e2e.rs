//! Router end-to-end: an *unmodified* [`Client`] (the exact library
//! under `temu-client`) drives a 2-member fleet through the router —
//! submit/stream, cached resubmission on the same member, proxied
//! status/result/watch/cancel, and the aggregated stats breakdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use temu_fleet::{Router, RouterConfig};
use temu_framework::{
    AxisSpec, ImplicitSolve, JsonValue, ScenarioSpec, SweepSpec, WorkloadSpec,
};
use temu_serve::{Client, ClientError, ServeConfig, Server, ServerHandle, MAX_FRAME_LEN};

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

fn spawn_member(name: &str) -> ServerHandle {
    Server::spawn(ServeConfig {
        addr: String::from("127.0.0.1:0"),
        member: Some(String::from(name)),
        ..ServeConfig::default()
    })
    .expect("bind a member on an ephemeral port")
}

fn spawn_fleet() -> (ServerHandle, ServerHandle, temu_fleet::RouterHandle) {
    let a = spawn_member("a");
    let b = spawn_member("b");
    let router = Router::spawn(RouterConfig {
        addr: String::from("127.0.0.1:0"),
        members: vec![a.addr().to_string(), b.addr().to_string()],
        probe_interval: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("bind the router on an ephemeral port");
    (a, b, router)
}

#[test]
fn unmodified_client_is_fully_cached_on_resubmission_through_the_router() {
    let (a, b, router) = spawn_fleet();
    let spec = tiny_sweep("fleet-e2e");
    let mut client = Client::connect(&router.addr().to_string()).expect("connect to router");

    // First submission executes everything on whichever member owns the
    // content key.
    let mut events: Vec<JsonValue> = Vec::new();
    let outcome = client.submit(&spec, true, |e| events.push(e.clone())).expect("first submit");
    let done = outcome.done.expect("watched submissions end with a done summary");
    assert!(done.ok, "all points converge: {done:?}");
    assert_eq!((done.points, done.executed, done.cache_hits, done.failed), (4, 4, 0, 0));
    // Every relayed event carries the *router's* job id.
    for event in &events {
        assert_eq!(event.get("job").and_then(JsonValue::as_u64), Some(outcome.job));
    }

    // The identical resubmission rendezvous-hashes to the same member
    // and is served entirely from its cache.
    let rerun = client.submit(&spec, true, |_| {}).expect("resubmit");
    let cached = rerun.done.expect("done summary");
    assert!(cached.ok);
    assert_eq!(
        (cached.executed, cached.cache_hits),
        (0, 4),
        "the second run must be 100% cached: {cached:?}"
    );
    assert_ne!(rerun.job, outcome.job, "the router hands out fresh job ids");

    // Aggregated stats: fleet-level counters plus the per-member
    // breakdown, with exactly one member having taken both submissions.
    let stats = client.stats().expect("router stats");
    assert_eq!(stats.get("fleet").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(stats.get("members_up").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(stats.get("submissions").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(stats.get("failovers").and_then(JsonValue::as_u64), Some(0));
    let Some(JsonValue::Arr(members)) = stats.get("members") else {
        panic!("stats without a members array: {stats}")
    };
    assert_eq!(members.len(), 2);
    let routed: Vec<u64> =
        members.iter().map(|m| m.get("routed").and_then(JsonValue::as_u64).unwrap_or(0)).collect();
    assert_eq!(routed.iter().sum::<u64>(), 2, "both submissions routed: {routed:?}");
    assert!(
        routed.contains(&2),
        "identical submissions land on the same member: {routed:?}"
    );
    for member in members {
        assert!(
            matches!(member.get("member").and_then(JsonValue::as_str), Some("a" | "b")),
            "probe carries the member identity: {member}"
        );
    }

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn status_result_watch_and_cancel_proxy_under_router_job_ids() {
    let (a, b, router) = spawn_fleet();
    let spec = tiny_sweep("fleet-proxy");
    let addr = router.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect to router");

    let outcome = client.submit_with(&spec, true, 7, |_| {}).expect("watched submit");
    assert!(outcome.done.expect("done summary").ok);
    let job = outcome.job;

    let status = client.status(job).expect("status through router");
    assert_eq!(status.get("job").and_then(JsonValue::as_u64), Some(job));
    assert_eq!(status.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(
        status.get("priority").and_then(JsonValue::as_u64),
        Some(7),
        "priority passes through router and member: {status}"
    );

    let result = client.result(job).expect("result through router");
    assert_eq!(result.get("job").and_then(JsonValue::as_u64), Some(job));
    assert!(result.get("report").is_some(), "result carries the report: {result}");

    // Watching a finished job answers with its done summary immediately.
    let done = client.watch(job, |_| {}).expect("watch through router");
    assert!(done.ok);
    assert_eq!(done.points, 4);

    // Cancelling a finished job is the member's typed refusal, proxied.
    let refusal = client.cancel(job).expect_err("finished jobs cannot be cancelled");
    assert!(
        matches!(&refusal, ClientError::Server(m) if m.contains("cannot be cancelled")),
        "unexpected refusal: {refusal:?}"
    );

    // Unknown jobs are refused by the router itself (no route).
    let missing = client.status(9999).expect_err("unknown job");
    assert!(matches!(&missing, ClientError::Server(m) if m.contains("no such job 9999")));

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn distinct_sweeps_shard_by_content_key_not_by_name() {
    let (a, b, router) = spawn_fleet();
    let addr = router.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect to router");

    // Same physics, different name/threads: must land on the same member
    // (the second run fully cached there).
    let mut renamed = tiny_sweep("original");
    let first = client.submit(&renamed, true, |_| {}).expect("submit original");
    assert!(first.done.expect("done").ok);
    renamed.name = String::from("renamed");
    renamed.threads = Some(2);
    let cached = client.submit(&renamed, true, |_| {}).expect("submit renamed");
    let done = cached.done.expect("done");
    assert_eq!((done.executed, done.cache_hits), (0, 4), "same content key: {done:?}");

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// Sends one raw frame and reads one raw reply line (newline stripped).
fn ask(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    reader.get_mut().write_all(format!("{line}\n").as_bytes()).expect("send");
    recv(reader)
}

fn recv(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("recv");
    assert!(line.ends_with('\n'), "every frame ends in a newline: {line:?}");
    line.pop();
    line
}

#[test]
fn router_frame_bytes_are_pinned() {
    let member = spawn_member("a");
    let router = Router::spawn(RouterConfig {
        addr: String::from("127.0.0.1:0"),
        members: vec![member.addr().to_string()],
        probe_interval: Duration::from_secs(60),
        ..RouterConfig::default()
    })
    .expect("bind the router on an ephemeral port");
    let addr = member.addr().to_string();
    let mut reader = BufReader::new(TcpStream::connect(router.addr()).expect("connect"));
    // Unparsable lines get the member's reply, byte for byte, and the
    // connection stays open for the requests below.
    let mut direct = BufReader::new(TcpStream::connect(member.addr()).expect("connect"));
    for garbage in ["not json", "{\"cmd\": \"nope\"}"] {
        assert_eq!(ask(&mut reader, garbage), ask(&mut direct, garbage), "{garbage}");
    }
    assert_eq!(ask(&mut reader, "{\"cmd\": \"nope\"}"), GOLDEN_ROUTER_UNKNOWN_CMD);
    drop(direct);
    let submit = format!("{{\"cmd\": \"submit\", \"watch\": true, \"sweep\": {}}}", tiny_sweep("wire").to_json());
    assert_eq!(ask(&mut reader, &submit).replace(&addr, "MEMBER"), GOLDEN_ROUTER_ACK);
    while !recv(&mut reader).starts_with("{\"event\": \"done\"") {}
    let stats = ask(&mut reader, "{\"cmd\": \"stats\"}");
    assert_eq!(stats.replace(&addr, "MEMBER"), GOLDEN_ROUTER_STATS);
    let metrics = ask(&mut reader, "{\"cmd\": \"metrics\"}");
    assert!(metrics.starts_with("{\"ok\": true, \"fleet\": true, \"temu_metrics\":1,\"counters\":{"), "{metrics}");

    // An oversized frame is refused with the member's bytes, then the
    // router hangs up.
    let mut big = BufReader::new(TcpStream::connect(router.addr()).expect("connect"));
    big.get_ref().set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut sink = big.get_ref().try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = sink.write_all(&vec![b'x'; MAX_FRAME_LEN + 3]);
    });
    assert_eq!(recv(&mut big), GOLDEN_FRAME_TOO_LONG);
    match big.read_line(&mut String::new()) {
        Ok(n) => assert_eq!(n, 0, "nothing follows the refusal"),
        Err(e) => assert!(
            !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "the router hangs up after the refusal: {e}"
        ),
    }
    flood.join().unwrap();

    assert_eq!(ask(&mut reader, "{\"cmd\": \"shutdown\"}"), GOLDEN_ROUTER_SHUTDOWN);
    router.shutdown();
    member.shutdown();
}

const GOLDEN_ROUTER_UNKNOWN_CMD: &str = "{\"ok\": false, \"error\": \"unknown cmd \\\"nope\\\"\"}";
/// The member's refusal (`GOLDEN_FRAME_TOO_LONG` in `crates/serve/tests/wire.rs`).
const GOLDEN_FRAME_TOO_LONG: &str = "{\"ok\": false, \"code\": \"frame_too_long\", \"limit\": 1048576, \"error\": \"frame exceeds the 1048576-byte protocol bound\"}";
const GOLDEN_ROUTER_ACK: &str = "{\"ok\": true, \"job\": 1, \"total\": 4, \"member\": \"MEMBER\"}";
const GOLDEN_ROUTER_STATS: &str = "{\"ok\": true, \"fleet\": true, \"members_up\": 1, \"submissions\": 1, \"failovers\": 0, \"routes\": 1, \"queue_depth\": 0, \"running\": 0, \"workers\": 1, \"members\": [{\"addr\": \"MEMBER\", \"up\": true, \"routed\": 1, \"failures\": 0, \"member\": \"a\", \"queue_depth\": 0, \"running\": 0, \"workers\": 1, \"cache_entries\": 4}]}";
const GOLDEN_ROUTER_SHUTDOWN: &str = "{\"ok\": true, \"shutdown\": true}";
