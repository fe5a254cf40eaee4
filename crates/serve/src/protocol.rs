//! The `temu-serve` wire protocol: newline-delimited JSON over TCP.
//!
//! Every frame — request, response, or streamed event — is one complete
//! JSON object on one line. A connection carries any number of requests;
//! each request yields exactly one response line, except `submit` with
//! `"watch": true` and `watch`, which follow the response with a stream of
//! event lines ending in a `"done"` event.
//!
//! # Requests
//!
//! | `cmd` | fields | response |
//! |---|---|---|
//! | `submit` | `sweep` ([`SweepSpec`] object), optional `watch`, optional `priority` (default 0; higher runs first, FIFO within a level) | `{"ok", "job", "total"}` (+ events) |
//! | `status` | `job` | job state and progress counters |
//! | `result` | `job` | the finished job's [`SweepReport`](temu_framework::SweepReport) JSON |
//! | `cancel` | `job` | `{"ok", "job", "cancelled": true}` for a queued job; `{"ok", "job", "cancelling": true}` for a running one, which stops at its next point start or window boundary; finished jobs refuse |
//! | `watch` | `job` | `{"ok"}` + event stream until the job finishes |
//! | `stats` | — | server counters (jobs, queue depth, cache hit rate) |
//! | `metrics` | — | versioned metrics snapshot (`{"ok", "temu_metrics", "counters", "gauges", "histograms"}`) |
//! | `results` | optional `after` (cursor, default 0), `follow`, `job` | `{"ok", "cursor", "earliest_retained"}` + completed-point NDJSON events, ending in `{"event": "end", "cursor"}` |
//! | `shutdown` | — | `{"ok", "shutdown": true}`; the server then stops accepting and exits |
//!
//! # Events
//!
//! `{"event": "start", "job", "total"}` once when a job begins executing;
//! `{"event": "point", ...}` per finished grid point (label, cache_hit,
//! ok, and either summary headline numbers or the point's error, with
//! `"cancelled": true` after the error when a cancel stopped the point
//! mid-run: it counts as cancelled, not failed);
//! `{"event": "point", "job", "index", "label", "progress": {"windows",
//! "total_windows"}}` at each window checkpoint inside a running point
//! (servers started with `--window-checkpoint N`: every N windows);
//! `{"event": "done", "job", "ok", "points", "executed", "cache_hits",
//! "failed", "wall_s"}` exactly once, last (with `"error"` when the job
//! failed to lower and `"cancelled": true` when it was cancelled).
//!
//! An optional field that is absent or `null` takes its default; one of
//! the wrong type (`"job": "7"`, `"priority": 1.5`) refuses the request.
//! Responses to failed requests are `{"ok": false, "error": "..."}`; the
//! connection stays usable. Refusals a peer may want to branch on also
//! carry a machine-readable `"code"` field (`frame_too_long`,
//! `queue_full`) — see [`coded_error_line`].
//!
//! # Frames on the socket
//!
//! One frame, one write: [`write_frame`] hands a frame and its `\n` to the
//! socket in a single `write_all`, and it is the only way a line reaches
//! a socket. Every socket that carries frames, accepted or connected,
//! goes through [`prepare_stream`], which sets `TCP_NODELAY` along with
//! the [`IO_TIMEOUT`] deadlines. Under Nagle's algorithm a frame written
//! in two pieces sends its second piece only once the peer ACKs the
//! first, and the peer delays that ACK (~40 ms on Linux) waiting for the
//! rest of the frame: a stall on every exchange that no server metric
//! sees, because the kernel holds the bytes.
//!
//! # One request loop
//!
//! The job server and the fleet router are two [`Service`]s behind one
//! loop: [`accept_loop`] serves each accepted connection on a thread of
//! its own, which frames, refuses and parses requests, acks `shutdown`,
//! and hands everything else to [`Service::dispatch`]. [`ServerHandle`]
//! runs either on a background thread.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use temu_framework::{JsonObject, JsonValue, SpecError, SweepSpec};

/// The default server address (loopback; the server is an experiment
/// cache, not an internet service).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7181";

/// Environment variable overriding the default address for both bins.
pub const ADDR_ENV: &str = "TEMU_SERVE_ADDR";

/// The hard bound on one NDJSON frame (1 MiB). A peer sending a longer
/// line — slowloris drip, a runaway spec, or plain garbage — is refused
/// with a typed error instead of being buffered unbounded into memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The read and write deadline of every socket that carries frames
/// ([`prepare_stream`]): a peer that stops sending mid-request or stops
/// draining its replies is disconnected instead of pinning a thread
/// forever. The client lifts its read deadline while it waits on an
/// event stream, whose silences last as long as a grid point runs.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A transport-level failure of the NDJSON framing layer, shared by the
/// server's connection handler and the [`Client`](crate::Client).
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A socket deadline elapsed (`set_read_timeout`/`set_write_timeout`):
    /// the peer stopped sending or stopped draining.
    Timeout,
    /// The peer sent a line longer than the frame bound.
    FrameTooLong {
        /// The bound that was exceeded ([`MAX_FRAME_LEN`] by default).
        limit: usize,
    },
    /// The peer closed the connection.
    Closed,
    /// Any other socket failure.
    Io(std::io::Error),
    /// The frame's bytes were not UTF-8.
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Timeout => write!(f, "socket deadline elapsed"),
            ProtocolError::FrameTooLong { limit } => {
                write!(f, "frame exceeds the {limit}-byte protocol bound")
            }
            ProtocolError::Closed => write!(f, "peer closed the connection"),
            ProtocolError::Io(e) => write!(f, "socket: {e}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl Error for ProtocolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        match e.kind() {
            // A read/write deadline surfaces as WouldBlock on Unix and
            // TimedOut on Windows; both mean the peer missed the deadline.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtocolError::Timeout,
            std::io::ErrorKind::UnexpectedEof => ProtocolError::Closed,
            _ => ProtocolError::Io(e),
        }
    }
}

impl ProtocolError {
    /// Whether retrying the operation on a fresh connection could
    /// succeed (connection-level trouble, not a malformed frame).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, ProtocolError::Timeout | ProtocolError::Closed | ProtocolError::Io(_))
    }
}

/// Reads one newline-terminated frame without ever buffering more than
/// `max` bytes: the length check runs as bytes arrive, so an oversized or
/// never-terminated line is refused while still in flight. Returns
/// `Ok(None)` on clean EOF; a final unterminated line is delivered as a
/// frame (the lenient behavior of `BufRead::lines`).
///
/// # Errors
///
/// [`ProtocolError::FrameTooLong`] past the bound,
/// [`ProtocolError::Timeout`] when the socket deadline elapses mid-frame,
/// [`ProtocolError::Malformed`] for non-UTF-8 bytes, and
/// [`ProtocolError::Io`] for any other socket failure.
pub fn read_frame<R: BufRead>(reader: &mut R, max: usize) -> Result<Option<String>, ProtocolError> {
    let mut frame: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::from(e)),
        };
        if available.is_empty() {
            if frame.is_empty() {
                return Ok(None);
            }
            break;
        }
        let (chunk, terminated) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (available.len(), false),
        };
        // Check before buffering: the frame is refused while oversized
        // bytes are still on the wire, not after they fill memory (+2
        // tolerates a CRLF terminator on an exactly-max-length frame; the
        // post-loop check bounds the content itself).
        if frame.len() + chunk > max.saturating_add(2) {
            return Err(ProtocolError::FrameTooLong { limit: max });
        }
        frame.extend_from_slice(&available[..chunk]);
        reader.consume(chunk);
        if terminated {
            frame.pop();
            if frame.last() == Some(&b'\r') {
                frame.pop();
            }
            break;
        }
    }
    if frame.len() > max {
        return Err(ProtocolError::FrameTooLong { limit: max });
    }
    if temu_obs::enabled() {
        static FRAME_BYTES: std::sync::OnceLock<std::sync::Arc<temu_obs::Histogram>> =
            std::sync::OnceLock::new();
        FRAME_BYTES
            .get_or_init(|| temu_obs::global().histogram("serve.frame_bytes"))
            .record(frame.len() as u64);
    }
    String::from_utf8(frame)
        .map(Some)
        .map_err(|_| ProtocolError::Malformed(String::from("non-UTF-8 bytes")))
}

/// Writes one frame: `frame` (one line, no newline) and its `\n` in a
/// single `write_all`, so the frame never leaves as two segments.
///
/// # Errors
///
/// The write's I/O error (a deadline elapsing surfaces as `WouldBlock` or
/// `TimedOut`).
pub fn write_frame(w: &mut impl Write, frame: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(frame.len() + 1);
    bytes.extend_from_slice(frame.as_bytes());
    bytes.push(b'\n');
    w.write_all(&bytes)
}

/// Readies an accepted or connected socket for frames: `TCP_NODELAY`, and
/// both socket deadlines set to [`IO_TIMEOUT`].
///
/// # Errors
///
/// Any socket option failure.
pub fn prepare_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))
}

/// A service behind the one request loop: the job server and the fleet
/// router each answer requests their own way and share everything else.
pub trait Service: Send + Sync + 'static {
    /// Answers one request on `writer`. `shutdown` arrives here too, with
    /// nothing to answer: the loop acks it and stops the service once
    /// this returns.
    ///
    /// # Errors
    ///
    /// A write failure, which ends the connection.
    fn dispatch(&self, writer: &mut TcpStream, request: Request) -> io::Result<()>;

    /// Flags the service down and wakes whatever waits on it (idempotent).
    fn stop(&self);

    /// Whether [`Service::stop`] has run.
    fn stopped(&self) -> bool;

    /// Whether to serve an accepted connection at all; `false` hangs up
    /// before a single frame is read.
    fn admit(&self) -> bool {
        true
    }
}

/// Serves one accepted connection until the peer hangs up or goes quiet
/// past the deadline: each non-blank frame is parsed and dispatched; an
/// unparsable one is answered with [`error_line`] and the connection
/// kept; an oversized one is refused with the `frame_too_long` code and
/// the connection closed, since nothing after it can be framed reliably.
/// `shutdown` is acked, then the service stops and its accept loop wakes.
///
/// # Errors
///
/// A socket option failure or a write failure.
fn serve_connection(service: &dyn Service, stream: TcpStream) -> io::Result<()> {
    prepare_stream(&stream)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(line)) => line,
            // Clean EOF: the peer is done with the connection.
            Ok(None) => return Ok(()),
            Err(e @ ProtocolError::FrameTooLong { limit }) => {
                let refusal = JsonObject::line()
                    .raw("ok", false)
                    .str("code", "frame_too_long")
                    .raw("limit", limit)
                    .str("error", &e.to_string())
                    .finish();
                return write_frame(&mut writer, &refusal);
            }
            // Deadline elapsed or the socket failed: the peer is gone or
            // unresponsive (a live client reconnects).
            Err(_) => return Ok(()),
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                write_frame(&mut writer, &error_line(&e))?;
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        service.dispatch(&mut writer, request)?;
        if shutdown {
            write_frame(&mut writer, &JsonObject::line().raw("ok", true).raw("shutdown", true).finish())?;
            stop_and_wake(service, writer.local_addr()?);
            return Ok(());
        }
    }
}

/// Stops `service`, then wakes its accept loop, blocked in `accept`, with
/// a loopback connect to the listen address `addr`.
fn stop_and_wake(service: &dyn Service, addr: SocketAddr) {
    service.stop();
    let _ = TcpStream::connect(addr);
}

/// Accepts connections until `service` stops, serving each one it admits
/// on a thread of its own (`serve_connection`).
pub fn accept_loop<S: Service>(listener: &TcpListener, service: &Arc<S>) {
    for stream in listener.incoming() {
        if service.stopped() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let service = Arc::clone(service);
        std::thread::spawn(move || {
            if service.admit() {
                let _ = serve_connection(&*service, stream);
            }
        });
    }
}

/// A service running on a background thread, as
/// [`Server::spawn`](crate::Server::spawn) and the fleet's `Router::spawn`
/// return it.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<dyn Service>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Runs `run`, the body of a service bound to `addr`, on a new thread.
    pub fn spawn(addr: SocketAddr, service: Arc<dyn Service>, run: impl FnOnce() + Send + 'static) -> ServerHandle {
        ServerHandle { addr, service, thread: std::thread::spawn(run) }
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the service (idempotent), wakes its accept loop and joins
    /// its thread.
    pub fn shutdown(self) {
        stop_and_wake(&*self.service, self.addr);
        let _ = self.thread.join();
    }
}

/// One parsed client request.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum Request {
    /// Queue a sweep; optionally stream its progress on this connection.
    Submit {
        /// The experiment to run.
        spec: Box<SweepSpec>,
        /// Stream `point`/`done` events after the acknowledgement.
        watch: bool,
        /// Scheduling priority: higher claims a worker first, FIFO within
        /// a level. 0 (the default) is the normal batch tier; old servers
        /// ignore the field and schedule plain FIFO.
        priority: i64,
    },
    /// Report a job's state and progress counters.
    Status {
        /// The job id from `submit`.
        job: u64,
    },
    /// Fetch a finished job's full `SweepReport` JSON.
    Result {
        /// The job id from `submit`.
        job: u64,
    },
    /// Cancel a still-queued job.
    Cancel {
        /// The job id from `submit`.
        job: u64,
    },
    /// Attach to a job's event stream until it finishes.
    Watch {
        /// The job id from `submit`.
        job: u64,
    },
    /// Report server counters.
    Stats,
    /// Report a full metrics-registry snapshot.
    Metrics,
    /// Replay (and optionally follow) the completed-point event feed.
    Results {
        /// Replay only events with a sequence number strictly greater
        /// than this cursor (0 replays everything still retained).
        after: u64,
        /// Keep the stream open and push new events as points finish;
        /// otherwise replay what is retained and end.
        follow: bool,
        /// Restrict the stream to one job's events; the stream ends once
        /// that job's terminal event has been sent (even under `follow`).
        job: Option<u64>,
    },
    /// Stop the server.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed frame.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let cmd = v
            .get("cmd")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| String::from("missing string field \"cmd\""))?;
        let job = || {
            v.get("job")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("\"{cmd}\" needs an integer \"job\" field"))
        };
        match cmd {
            "submit" => {
                let spec_value =
                    v.get("sweep").ok_or_else(|| String::from("\"submit\" needs a \"sweep\" spec object"))?;
                let spec = SweepSpec::from_value(spec_value).map_err(|e| e.to_string())?;
                let watch = optional(&v, cmd, "watch", "a boolean", JsonValue::as_bool)?.unwrap_or(false);
                let priority = optional(&v, cmd, "priority", "an integer", JsonValue::as_i64)?.unwrap_or(0);
                Ok(Request::Submit { spec: Box::new(spec), watch, priority })
            }
            "status" => Ok(Request::Status { job: job()? }),
            "result" => Ok(Request::Result { job: job()? }),
            "cancel" => Ok(Request::Cancel { job: job()? }),
            "watch" => Ok(Request::Watch { job: job()? }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "results" => {
                let after = optional(&v, cmd, "after", "a non-negative integer", JsonValue::as_u64)?.unwrap_or(0);
                let follow = optional(&v, cmd, "follow", "a boolean", JsonValue::as_bool)?.unwrap_or(false);
                let job = optional(&v, cmd, "job", "a non-negative integer", JsonValue::as_u64)?;
                Ok(Request::Results { after, follow, job })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd {other:?}")),
        }
    }

    /// The request's `cmd` name.
    #[must_use]
    pub(crate) fn cmd(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Result { .. } => "result",
            Request::Cancel { .. } => "cancel",
            Request::Watch { .. } => "watch",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Results { .. } => "results",
            Request::Shutdown => "shutdown",
        }
    }

    /// Renders the request as one protocol line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let line = JsonObject::line().str("cmd", self.cmd());
        match self {
            // The default priority is omitted so the rendered line is
            // byte-identical to what pre-priority clients sent.
            Request::Submit { spec, watch, priority } => line
                .raw("watch", watch)
                .opt_raw("priority", (*priority != 0).then_some(priority))
                .raw("sweep", spec.to_json()),
            Request::Status { job } | Request::Result { job } | Request::Cancel { job } | Request::Watch { job } => {
                line.raw("job", job)
            }
            Request::Results { after, follow, job } => {
                line.raw("after", after).raw("follow", follow).opt_raw("job", *job)
            }
            Request::Stats | Request::Metrics | Request::Shutdown => line,
        }
        .finish()
    }
}

/// The optional field `field` of request `cmd`: `None` when absent or
/// `null`; present, `read` must accept it, or the request is refused with
/// what the field wants.
fn optional<T>(
    v: &JsonValue,
    cmd: &str,
    field: &str,
    want: &str,
    read: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => read(x)
            .map(Some)
            .ok_or_else(|| format!("\"{cmd}\" field \"{field}\" must be {want}, got {}", x.type_name())),
    }
}

/// Renders the standard error response line.
#[must_use]
pub fn error_line(message: &str) -> String {
    JsonObject::line().raw("ok", false).str("error", message).finish()
}

/// Renders an error response line carrying a machine-readable `code`
/// alongside the human message — for refusals a peer wants to branch on:
/// the fleet router fails a `queue_full` submission over to the next
/// member in rendezvous order instead of surfacing it to the client.
#[must_use]
pub fn coded_error_line(code: &str, message: &str) -> String {
    JsonObject::line().raw("ok", false).str("code", code).str("error", message).finish()
}

/// Interprets a spec file's JSON as a submittable [`SweepSpec`]: a
/// document with a `"sweep"` key is a sweep spec; anything else is read
/// as a [`ScenarioSpec`](temu_framework::ScenarioSpec) and wrapped into a
/// one-point sweep (named after the spec's `name`, or `"scenario"`).
///
/// # Errors
///
/// [`SpecError`] from whichever shape the document matched.
pub fn spec_from_document(v: &JsonValue) -> Result<SweepSpec, SpecError> {
    if v.get("sweep").is_some() {
        return SweepSpec::from_value(v);
    }
    let scenario = temu_framework::ScenarioSpec::from_value(v)?;
    let name = scenario.name.clone().unwrap_or_else(|| String::from("scenario"));
    Ok(SweepSpec::new(name, scenario))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let ack = JsonObject::line().raw("ok", true).raw("job", 1).raw("total", 4).finish();
        let big = "x".repeat(100 * 1024);
        for frame in ["", &ack, &big] {
            let mut log = WriteLog::default();
            write_frame(&mut log, frame).unwrap();
            assert_eq!(log.0.len(), 1, "a {}-byte frame took {} writes", frame.len(), log.0.len());
            assert_eq!(log.0[0], format!("{frame}\n").into_bytes());
        }
    }

    #[test]
    fn prepared_streams_are_nodelay_with_both_deadlines() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let connected = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        for stream in [&connected, &accepted] {
            prepare_stream(stream).unwrap();
            assert!(stream.nodelay().unwrap());
            assert_eq!(stream.read_timeout().unwrap(), Some(IO_TIMEOUT));
            assert_eq!(stream.write_timeout().unwrap(), Some(IO_TIMEOUT));
        }
    }

    #[test]
    fn requests_round_trip_through_lines() {
        let reqs = vec![
            Request::Submit {
                spec: Box::new(SweepSpec::named("smoke").unwrap()),
                watch: true,
                priority: 0,
            },
            Request::Submit {
                spec: Box::new(SweepSpec::named("smoke").unwrap()),
                watch: false,
                priority: 9,
            },
            Request::Status { job: 3 },
            Request::Result { job: 4 },
            Request::Cancel { job: 5 },
            Request::Watch { job: 6 },
            Request::Stats,
            Request::Metrics,
            Request::Results { after: 0, follow: false, job: None },
            Request::Results { after: 41, follow: true, job: Some(7) },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(!line.contains('\n'), "one frame = one line: {line}");
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        assert!(Request::parse("").unwrap_err().contains("invalid JSON"));
        assert!(Request::parse("{}").unwrap_err().contains("cmd"));
        assert!(Request::parse("{\"cmd\": \"nope\"}").unwrap_err().contains("unknown cmd"));
        assert!(Request::parse("{\"cmd\": \"status\"}").unwrap_err().contains("job"));
        assert!(Request::parse("{\"cmd\": \"submit\"}").unwrap_err().contains("sweep"));
        let bad_spec = "{\"cmd\": \"submit\", \"sweep\": {\"sweep\": \"x\", \"base\": {\"preset\": 7}}}";
        assert!(Request::parse(bad_spec).unwrap_err().contains("preset"));
        // A present optional field of the wrong type is refused, not read
        // as its default; an absent or null one keeps the default.
        let sweep = "\"sweep\": {\"sweep\": \"g\", \"base\": {\"preset\": \"smoke\"}, \"axes\": []}";
        for (line, want) in [
            (format!("{{\"cmd\": \"submit\", \"priority\": 1.5, {sweep}}}"), "\"priority\" must be an integer, got number"),
            (format!("{{\"cmd\": \"submit\", \"priority\": \"9\", {sweep}}}"), "\"priority\" must be an integer, got string"),
            (format!("{{\"cmd\": \"submit\", \"watch\": 1, {sweep}}}"), "\"watch\" must be a boolean, got number"),
            (String::from("{\"cmd\": \"results\", \"job\": \"7\"}"), "\"job\" must be a non-negative integer, got string"),
            (String::from("{\"cmd\": \"results\", \"job\": -7}"), "\"job\" must be a non-negative integer, got number"),
            (String::from("{\"cmd\": \"results\", \"after\": 2.5}"), "\"after\" must be a non-negative integer, got number"),
            (String::from("{\"cmd\": \"results\", \"follow\": \"true\"}"), "\"follow\" must be a boolean, got string"),
        ] {
            let err = Request::parse(&line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
        let defaults = Request::Results { after: 0, follow: false, job: None };
        assert_eq!(Request::parse("{\"cmd\": \"results\"}").unwrap(), defaults);
        let nulls = "{\"cmd\": \"results\", \"after\": null, \"follow\": null, \"job\": null}";
        assert_eq!(Request::parse(nulls).unwrap(), defaults);
        match Request::parse(&format!("{{\"cmd\": \"submit\", {sweep}}}")).unwrap() {
            Request::Submit { watch, priority, .. } => assert_eq!((watch, priority), (false, 0)),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn default_priority_renders_the_pre_priority_line() {
        let req = Request::Submit {
            spec: Box::new(SweepSpec::named("smoke").unwrap()),
            watch: true,
            priority: 0,
        };
        assert!(
            !req.to_line().contains("priority"),
            "priority 0 is omitted for old-server byte compatibility"
        );
        match Request::parse(&req.to_line()).unwrap() {
            Request::Submit { priority, .. } => assert_eq!(priority, 0),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn scenario_documents_wrap_into_one_point_sweeps() {
        let v = JsonValue::parse("{\"preset\": \"paper_fig6\", \"name\": \"mine\"}").unwrap();
        let spec = spec_from_document(&v).unwrap();
        assert_eq!(spec.name, "mine");
        assert_eq!(spec.axes.len(), 0);
        let v = JsonValue::parse("{\"sweep\": \"s\", \"axes\": [{\"axis\": \"cores\", \"values\": [1, 2]}]}")
            .unwrap();
        assert_eq!(spec_from_document(&v).unwrap().lower().unwrap().n_points(), 2);
    }

    #[test]
    fn request_and_error_line_bytes_are_pinned() {
        let spec = || Box::new(SweepSpec::new("g", temu_framework::ScenarioSpec::preset("smoke")));
        let lines: Vec<String> = [
            Request::Submit { spec: spec(), watch: true, priority: 0 },
            Request::Submit { spec: spec(), watch: false, priority: -2 },
            Request::Status { job: 3 },
            Request::Result { job: 4 },
            Request::Cancel { job: 5 },
            Request::Watch { job: 6 },
            Request::Stats,
            Request::Metrics,
            Request::Results { after: 0, follow: false, job: None },
            Request::Results { after: 41, follow: true, job: Some(7) },
            Request::Shutdown,
        ]
        .iter()
        .map(Request::to_line)
        .collect();
        assert_eq!(lines, GOLDEN_REQUESTS);
        assert_eq!(error_line("no such job 9: \"x\"\n"), GOLDEN_ERROR);
        assert_eq!(coded_error_line("queue_full", "queue is full\t(8)"), GOLDEN_CODED_ERROR);
    }

    const GOLDEN_REQUESTS: [&str; 11] = [
        "{\"cmd\": \"submit\", \"watch\": true, \"sweep\": {\"sweep\": \"g\", \"base\": {\"preset\": \"smoke\"}, \"axes\": []}}",
        "{\"cmd\": \"submit\", \"watch\": false, \"priority\": -2, \"sweep\": {\"sweep\": \"g\", \"base\": {\"preset\": \"smoke\"}, \"axes\": []}}",
        "{\"cmd\": \"status\", \"job\": 3}",
        "{\"cmd\": \"result\", \"job\": 4}",
        "{\"cmd\": \"cancel\", \"job\": 5}",
        "{\"cmd\": \"watch\", \"job\": 6}",
        "{\"cmd\": \"stats\"}",
        "{\"cmd\": \"metrics\"}",
        "{\"cmd\": \"results\", \"after\": 0, \"follow\": false}",
        "{\"cmd\": \"results\", \"after\": 41, \"follow\": true, \"job\": 7}",
        "{\"cmd\": \"shutdown\"}",
    ];
    const GOLDEN_ERROR: &str = "{\"ok\": false, \"error\": \"no such job 9: \\\"x\\\"\\n\"}";
    const GOLDEN_CODED_ERROR: &str = "{\"ok\": false, \"code\": \"queue_full\", \"error\": \"queue is full\\t(8)\"}";
}
