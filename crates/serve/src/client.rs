//! The client half of the protocol: connect, submit, stream progress,
//! fetch results — the library under the `temu-client` bin and the
//! end-to-end tests.
//!
//! Transient failures — a refused connect while the server restarts, a
//! dropped connection, an elapsed socket deadline — are retryable:
//! [`Client::connect_with_retry`] backs off exponentially with jitter
//! ([`RetryPolicy`]), and resubmitting after a drop is safe because
//! results are memoized by `content_key` (a re-run sweep is served from
//! the cache, not re-executed).

use crate::protocol::{prepare_stream, read_frame, write_frame, ProtocolError, Request, MAX_FRAME_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;
use temu_framework::{JsonObject, JsonValue, SweepSpec};

/// A client-side failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(std::io::Error),
    /// A socket deadline elapsed while waiting on the server.
    Timeout,
    /// The server closed the connection mid-exchange.
    Closed,
    /// The server sent a frame the client could not interpret.
    Protocol(String),
    /// The server answered `{"ok": false, ...}`; the payload is its
    /// error message.
    Server(String),
    /// Every connect attempt failed ([`Client::connect_with_retry`]).
    Unreachable {
        /// The address that never answered.
        addr: String,
        /// Connect attempts made.
        attempts: u32,
        /// The last attempt's error.
        last: Box<ClientError>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the server"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Unreachable { addr, attempts, last } => {
                write!(f, "server unreachable at {addr} after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Unreachable { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::Timeout,
            std::io::ErrorKind::UnexpectedEof => ClientError::Closed,
            _ => ClientError::Io(e),
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        match e {
            ProtocolError::Timeout => ClientError::Timeout,
            ProtocolError::Closed => ClientError::Closed,
            ProtocolError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl ClientError {
    /// Whether retrying on a fresh connection could succeed: connection
    /// trouble is transient; a server refusal or malformed frame is not.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_) | ClientError::Timeout | ClientError::Closed
        )
    }
}

/// Exponential backoff with full jitter for transient failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub retries: u32,
    /// Backoff before retry *n* is uniform in `(0, base * 2^n]`.
    pub base: Duration,
    /// Ceiling on any single backoff sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { retries: 4, base: Duration::from_millis(50), cap: Duration::from_secs(2) }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy { retries: 0, ..RetryPolicy::default() }
    }

    /// The sleep before retry `attempt` (1-based): full jitter over the
    /// exponentially grown, capped window. Randomized so a fleet of
    /// clients re-finding a restarted server doesn't stampede it.
    fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let ceiling = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt.min(16)))
            .min(self.cap)
            .max(Duration::from_millis(1));
        let nanos = u64::try_from(ceiling.as_nanos()).unwrap_or(u64::MAX);
        Duration::from_nanos(rng.gen_range(1..=nanos))
    }
}

fn jitter_rng() -> StdRng {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    StdRng::seed_from_u64(u64::from(nanos) ^ (u64::from(std::process::id()) << 32))
}

/// The terminal summary of a watched job (the protocol's `done` event).
#[derive(Clone, PartialEq, Debug)]
pub struct DoneSummary {
    /// Whether the job finished with every point succeeding.
    pub ok: bool,
    /// Grid points in the job.
    pub points: u64,
    /// Points that executed a scenario.
    pub executed: u64,
    /// Points served from the shared cache.
    pub cache_hits: u64,
    /// Points that failed.
    pub failed: u64,
    /// Server-side wall seconds.
    pub wall_s: f64,
    /// The job-level error, when it failed before running.
    pub error: Option<String>,
    /// Whether the job was cancelled (while queued or running).
    pub cancelled: bool,
}

impl DoneSummary {
    /// Renders the summary as job `job`'s `done` event: the one builder
    /// of that frame (the server's terminal events and the router's
    /// synthesized failures), read back by `DoneSummary::from_event`.
    #[must_use]
    pub fn to_event(&self, job: u64) -> String {
        JsonObject::line()
            .str("event", "done")
            .raw("job", job)
            .raw("ok", self.ok)
            .raw("points", self.points)
            .raw("executed", self.executed)
            .raw("cache_hits", self.cache_hits)
            .raw("failed", self.failed)
            .num("wall_s", self.wall_s, 6)
            .opt_str("error", self.error.as_deref())
            .opt_raw("cancelled", self.cancelled.then_some(true))
            .finish()
    }

    fn from_event(v: &JsonValue) -> Result<DoneSummary, ClientError> {
        let int = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(DoneSummary {
            ok: v
                .get("ok")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| ClientError::Protocol(format!("done event without ok: {v}")))?,
            points: int("points"),
            executed: int("executed"),
            cache_hits: int("cache_hits"),
            failed: int("failed"),
            wall_s: v.get("wall_s").and_then(JsonValue::as_f64).unwrap_or(0.0),
            error: v.get("error").and_then(JsonValue::as_str).map(String::from),
            cancelled: v.get("cancelled").and_then(JsonValue::as_bool).unwrap_or(false),
        })
    }
}

/// The acknowledgement plus (when watching) terminal summary of one
/// submission.
#[derive(Clone, PartialEq, Debug)]
pub struct Submission {
    /// The server's job id.
    pub job: u64,
    /// Grid points the job expands to.
    pub total: u64,
    /// The terminal summary (`None` for fire-and-forget submissions).
    pub done: Option<DoneSummary>,
}

/// One protocol connection.
///
/// Request/response exchanges run under the socket deadline set at
/// connect time; event *streams* (`submit --watch`, `watch`) lift the
/// read deadline while waiting, because a slow grid point legitimately
/// produces long silences (a killed server still surfaces immediately as
/// [`ClientError::Closed`] — TCP delivers the reset). Dropping the client
/// shuts the socket down cleanly ([`Client::close`]).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The deadline on each request/response exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    /// Connects to a server (single attempt; see
    /// [`Client::connect_with_retry`]).
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        prepare_stream(&stream, Some(IO_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Connects, retrying transient failures with exponential backoff and
    /// jitter — the restart-tolerant entry point.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unreachable`] once every attempt failed.
    pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> Result<Client, ClientError> {
        let mut rng = jitter_rng();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if e.is_transient() && attempts <= policy.retries => {
                    std::thread::sleep(policy.backoff(attempts, &mut rng));
                }
                Err(e) => {
                    return Err(ClientError::Unreachable {
                        addr: addr.to_string(),
                        attempts,
                        last: Box::new(e),
                    })
                }
            }
        }
    }

    /// Shuts the connection down cleanly (also done on drop).
    pub fn close(self) {
        // Drop runs the shutdown.
    }

    /// Writes one request frame (the fleet router relays frames between
    /// its client side and member connections through these primitives).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &request.to_line())?;
        Ok(())
    }

    /// Reads one frame; `Err(Closed)` on EOF, typed errors for deadline,
    /// oversized, or non-JSON frames.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on EOF; deadline, oversized-frame, and
    /// parse failures.
    pub fn recv(&mut self) -> Result<JsonValue, ClientError> {
        match read_frame(&mut self.reader, MAX_FRAME_LEN)? {
            None => Err(ClientError::Closed),
            Some(line) => JsonValue::parse(line.trim()).map_err(ClientError::Protocol),
        }
    }

    /// Lifts or restores the read deadline around event streaming.
    ///
    /// # Errors
    ///
    /// Socket option failures.
    pub fn set_read_deadline(&self, deadline: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(deadline)?;
        Ok(())
    }

    /// Reads one response frame, mapping `{"ok": false}` to
    /// [`ClientError::Server`].
    fn recv_ok(&mut self) -> Result<JsonValue, ClientError> {
        let v = self.recv()?;
        match v.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => Ok(v),
            Some(false) => Err(ClientError::Server(
                v.get("error").and_then(JsonValue::as_str).unwrap_or("unspecified error").to_string(),
            )),
            None => Err(ClientError::Protocol(format!("response without ok field: {v}"))),
        }
    }

    fn request(&mut self, request: &Request) -> Result<JsonValue, ClientError> {
        self.send(request)?;
        self.recv_ok()
    }

    /// Submits a sweep. With `watch`, streams events to `on_event` until
    /// the job's `done` event, which is summarized in the returned
    /// [`Submission`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for a refused spec or full queue; protocol
    /// and I/O failures.
    pub fn submit(
        &mut self,
        spec: &SweepSpec,
        watch: bool,
        on_event: impl FnMut(&JsonValue),
    ) -> Result<Submission, ClientError> {
        self.submit_with(spec, watch, 0, on_event)
    }

    /// [`Client::submit`] with an explicit scheduling priority (higher
    /// runs first; FIFO within a level; 0 is the default).
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    pub fn submit_with(
        &mut self,
        spec: &SweepSpec,
        watch: bool,
        priority: i64,
        mut on_event: impl FnMut(&JsonValue),
    ) -> Result<Submission, ClientError> {
        let ack = self.request(&Request::Submit { spec: Box::new(spec.clone()), watch, priority })?;
        let job = ack
            .get("job")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("submit ack without job id: {ack}")))?;
        let total = ack.get("total").and_then(JsonValue::as_u64).unwrap_or(0);
        if !watch {
            return Ok(Submission { job, total, done: None });
        }
        let done = self.stream_until_done(&mut on_event)?;
        Ok(Submission { job, total, done: Some(done) })
    }

    /// Forwards events until `done`, with the read deadline lifted: the
    /// gap between events is one grid point's execution, which has no
    /// a-priori bound.
    fn stream_until_done(
        &mut self,
        on_event: &mut impl FnMut(&JsonValue),
    ) -> Result<DoneSummary, ClientError> {
        self.set_read_deadline(None)?;
        let outcome = loop {
            let event = match self.recv() {
                Ok(event) => event,
                Err(e) => break Err(e),
            };
            on_event(&event);
            if event.get("event").and_then(JsonValue::as_str) == Some("done") {
                break DoneSummary::from_event(&event);
            }
        };
        self.set_read_deadline(Some(IO_TIMEOUT))?;
        outcome
    }

    /// Fetches a job's state and progress counters.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for an unknown job.
    pub fn status(&mut self, job: u64) -> Result<JsonValue, ClientError> {
        self.request(&Request::Status { job })
    }

    /// Fetches a finished job's result frame; the `"report"` field holds
    /// the full `SweepReport` JSON.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job is unknown or unfinished.
    pub fn result(&mut self, job: u64) -> Result<JsonValue, ClientError> {
        self.request(&Request::Result { job })
    }

    /// Cancels a queued job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job is unknown or already
    /// running/finished.
    pub fn cancel(&mut self, job: u64) -> Result<JsonValue, ClientError> {
        self.request(&Request::Cancel { job })
    }

    /// Attaches to a job's event stream until it finishes, returning its
    /// terminal summary.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for an unknown job.
    pub fn watch(&mut self, job: u64, mut on_event: impl FnMut(&JsonValue)) -> Result<DoneSummary, ClientError> {
        self.request(&Request::Watch { job })?;
        self.stream_until_done(&mut on_event)
    }

    /// Fetches the server counters.
    ///
    /// # Errors
    ///
    /// Protocol and I/O failures.
    pub fn stats(&mut self) -> Result<JsonValue, ClientError> {
        self.request(&Request::Stats)
    }

    /// Fetches a full metrics snapshot (counters, gauges, histogram
    /// quantiles) — the versioned `metrics` frame. Old servers answer
    /// `unknown cmd` as a [`ClientError::Server`]; callers wanting a
    /// silent fallback branch on that variant.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] from a pre-metrics server; protocol and
    /// I/O failures.
    pub fn metrics(&mut self) -> Result<JsonValue, ClientError> {
        self.request(&Request::Metrics)
    }

    /// Streams the completed-point event feed: replays retained events
    /// with sequence numbers strictly greater than `after` (optionally
    /// restricted to one `job`), and under `follow` keeps the stream open
    /// for new events. Every event (each carrying a `"seq"` field) goes
    /// to `on_event`; returns the final cursor from the stream's `end`
    /// event — pass it back as `after` to resume without duplicates
    /// after a reconnect.
    ///
    /// # Errors
    ///
    /// Protocol and I/O failures (including a pre-`results` server's
    /// refusal, surfaced as [`ClientError::Server`]).
    pub fn results(
        &mut self,
        after: u64,
        follow: bool,
        job: Option<u64>,
        mut on_event: impl FnMut(&JsonValue),
    ) -> Result<u64, ClientError> {
        self.request(&Request::Results { after, follow, job })?;
        let mut cursor = after;
        // Follow-mode gaps are unbounded (the next event arrives when the
        // next grid point completes), so lift the read deadline like the
        // other event streams do.
        self.set_read_deadline(None)?;
        let outcome = loop {
            let event = match self.recv() {
                Ok(event) => event,
                Err(e) => break Err(e),
            };
            if event.get("event").and_then(JsonValue::as_str) == Some("end") {
                break Ok(event.get("cursor").and_then(JsonValue::as_u64).unwrap_or(cursor));
            }
            if let Some(seq) = event.get("seq").and_then(JsonValue::as_u64) {
                cursor = seq;
            }
            on_event(&event);
        };
        self.set_read_deadline(Some(IO_TIMEOUT))?;
        outcome
    }

    /// Asks the server to stop.
    ///
    /// # Errors
    ///
    /// Protocol and I/O failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Half-open connections are what the server's deadlines exist to
        // kill; a well-behaved client hangs up explicitly instead.
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

/// Submits with end-to-end retry: transient failures (dropped connection,
/// deadline, refused connect) reconnect and resubmit. Safe because the
/// server memoizes results by `content_key` — a resubmitted sweep's
/// completed points are cache hits, not re-executions (the retried job
/// does get a fresh job id).
///
/// # Errors
///
/// The last attempt's error once `policy.retries` is exhausted, or the
/// first non-transient error.
pub fn submit_with_retry(
    addr: &str,
    policy: &RetryPolicy,
    spec: &SweepSpec,
    watch: bool,
    priority: i64,
    mut on_event: impl FnMut(&JsonValue),
) -> Result<Submission, ClientError> {
    request_with_retry(addr, policy, |client| client.submit_with(spec, watch, priority, &mut on_event))
}

/// Runs one request against a fresh connection with end-to-end retry:
/// transient failures (dropped connection, deadline, refused connect)
/// reconnect and reissue the call. Only suitable for idempotent requests
/// — every protocol request except `submit` qualifies, and `submit` is
/// made idempotent by the content-keyed cache (see [`submit_with_retry`]).
///
/// # Errors
///
/// The last attempt's error once `policy.retries` is exhausted, or the
/// first non-transient error.
pub fn request_with_retry<T>(
    addr: &str,
    policy: &RetryPolicy,
    mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut rng = jitter_rng();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        // Connect attempts budget their own retries inside the same
        // policy; a mid-stream drop falls through to the outer loop.
        let result = Client::connect_with_retry(addr, policy).and_then(|mut client| call(&mut client));
        match result {
            Ok(value) => return Ok(value),
            Err(e @ ClientError::Unreachable { .. }) => return Err(e),
            Err(e) if e.is_transient() && attempts <= policy.retries => {
                std::thread::sleep(policy.backoff(attempts, &mut rng));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_events_round_trip() {
        let ok = DoneSummary {
            ok: true,
            points: 8,
            executed: 5,
            cache_hits: 3,
            failed: 0,
            wall_s: 1.25,
            error: None,
            cancelled: false,
        };
        let failed = DoneSummary {
            ok: false,
            failed: 2,
            wall_s: 0.0,
            error: Some(String::from("every fleet member failed: \"a\"\n\u{1}")),
            ..ok.clone()
        };
        let cancelled = DoneSummary { ok: false, cancelled: true, ..ok.clone() };
        for summary in [ok, failed, cancelled] {
            let event = summary.to_event(7);
            let parsed = JsonValue::parse(&event).unwrap();
            assert_eq!(parsed.get("event").and_then(JsonValue::as_str), Some("done"));
            assert_eq!(parsed.get("job").and_then(JsonValue::as_u64), Some(7));
            assert_eq!(DoneSummary::from_event(&parsed).unwrap(), summary, "{event}");
        }
    }
}
