//! The fleet front-end: speaks the `temu-serve` protocol to unmodified
//! clients and fans submissions across the member table.
//!
//! One connection thread per client, one outbound member connection per
//! in-flight request — the router holds no job state beyond the route
//! table (router job id → member + member job id), so it is restartable:
//! a restarted router loses only the id mapping, never results (those
//! live in the members' content-keyed stores, and resubmitting through
//! the new router is a cache hit on the same member).
//!
//! # Failover
//!
//! A submission tries members in rendezvous order (up members first).
//! Failures divide into:
//!
//! * **refused before ack** (connect failure, IO error, `queue_full`):
//!   silently try the next member — the client sees one ack from
//!   whichever member accepted;
//! * **lost after ack mid-stream**: the router *resubmits* the same spec
//!   to the next member and keeps streaming under the original router
//!   job id (the fresh ack is swallowed). This is safe because results
//!   are memoized by content key — points the dead member completed and
//!   synced replay from the shared store as cache-hit events, not
//!   re-executions;
//! * **all members exhausted**: a submission that was never acked gets a
//!   `no_members` coded error; one that was acked gets a synthesized
//!   failed `done` event (resubmitting is the recovery path, and it is
//!   idempotent).

use crate::member::MemberTable;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use temu_framework::{JsonObject, JsonValue, SweepSpec};
use temu_serve::protocol::{accept_loop, Service};
use temu_serve::{
    coded_error_line, error_line, write_frame, Client, ClientError, DoneSummary, Request, ServerHandle,
    DEFAULT_HISTORY_LIMIT,
};

/// Default router listen address (one above the serve default).
pub const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:7182";

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address; port 0 requests an ephemeral port.
    pub addr: String,
    /// Member `temu-serve` addresses (the static fleet).
    pub members: Vec<String>,
    /// Health-probe period: each member's `stats` is polled this often
    /// and the member marked up/down accordingly.
    pub probe_interval: Duration,
    /// Routes (router job id → member job) kept before the oldest are
    /// evicted; evicted jobs answer `status`/`watch` with "no such job"
    /// even though the member still remembers them. The default is
    /// [`DEFAULT_HISTORY_LIMIT`], the members' default job history.
    pub history_limit: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: String::from(DEFAULT_ROUTER_ADDR),
            members: Vec::new(),
            probe_interval: Duration::from_secs(2),
            history_limit: DEFAULT_HISTORY_LIMIT,
        }
    }
}

struct Route {
    member: usize,
    member_job: u64,
    total: u64,
}

struct Routes {
    map: HashMap<u64, Route>,
    order: VecDeque<u64>,
    next_id: u64,
}

impl Routes {
    fn insert(&mut self, id: u64, route: Route, limit: usize) {
        self.map.insert(id, route);
        self.order.push_back(id);
        while self.order.len() > limit {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
    }
}

struct Shared {
    table: MemberTable,
    routes: Mutex<Routes>,
    history_limit: usize,
    probe_interval: Duration,
    shutdown: AtomicBool,
    submissions: AtomicU64,
    failovers: AtomicU64,
}

impl Shared {
    fn lock_routes(&self) -> MutexGuard<'_, Routes> {
        self.routes.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A router running on a background thread ([`Router::spawn`]). Its
/// `shutdown` stops the router only: members are independent processes
/// and keep running.
pub type RouterHandle = ServerHandle;

impl Router {
    /// Binds the listen socket.
    ///
    /// # Errors
    ///
    /// A member-less configuration (`InvalidInput`) or any socket error.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        if config.members.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one --member",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            table: MemberTable::new(config.members),
            routes: Mutex::new(Routes { map: HashMap::new(), order: VecDeque::new(), next_id: 1 }),
            history_limit: config.history_limit.max(1),
            probe_interval: config.probe_interval,
            shutdown: AtomicBool::new(false),
            submissions: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        });
        Ok(Router { listener, shared })
    }

    /// The bound address (resolves an ephemeral port request).
    ///
    /// # Errors
    ///
    /// The socket's address lookup failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The member table (exposed so tests can compute the rendezvous
    /// owner of a spec the same way the router will).
    #[must_use]
    pub fn members(&self) -> &MemberTable {
        &self.shared.table
    }

    /// Runs the router on the current thread until a `shutdown` request:
    /// spawns the health prober, then accepts and serves connections.
    pub fn run(self) {
        let prober = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || prober_loop(&shared))
        };
        accept_loop(&self.listener, &self.shared);
        let _ = prober.join();
    }

    /// Runs the router on a background thread, returning a handle with
    /// the bound address.
    ///
    /// # Errors
    ///
    /// Any [`Router::bind`] error.
    pub fn spawn(config: RouterConfig) -> std::io::Result<RouterHandle> {
        let router = Router::bind(config)?;
        let addr = router.local_addr()?;
        let shared = Arc::clone(&router.shared);
        Ok(ServerHandle::spawn(addr, shared, move || router.run()))
    }
}

/// Polls every member's `stats` each interval, marking members up/down.
/// Probe verdicts use [`MemberTable::set_up`], so a member that stays
/// down doesn't accrue one "failure" per interval — the failure counter
/// tracks traffic, the prober tracks availability.
fn prober_loop(shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        probe_members(shared);
        let mut slept = Duration::ZERO;
        while slept < shared.probe_interval {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let step = Duration::from_millis(50).min(shared.probe_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

fn probe_members(shared: &Shared) {
    for i in 0..shared.table.len() {
        let addr = shared.table.addr(i).to_string();
        let started = std::time::Instant::now();
        match Client::connect(&addr).and_then(|mut member| member.stats()) {
            Ok(frame) => {
                if temu_obs::enabled() {
                    // Successful probes only: a refused connect fails in
                    // microseconds and would drag the RTT quantiles to
                    // meaninglessness.
                    temu_obs::global().histogram("fleet.probe_rtt_ns").record_duration(started.elapsed());
                }
                shared.table.note_stats(i, frame);
                shared.table.set_up(i, true);
            }
            Err(_) => shared.table.set_up(i, false),
        }
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

impl Service for Shared {
    fn dispatch(&self, writer: &mut TcpStream, request: Request) -> std::io::Result<()> {
        match request {
            Request::Submit { spec, watch, priority } => handle_submit(self, writer, *spec, watch, priority),
            Request::Status { job } => forward_request(self, writer, job, Forward::Status),
            Request::Result { job } => forward_request(self, writer, job, Forward::Result),
            Request::Cancel { job } => forward_request(self, writer, job, Forward::Cancel),
            Request::Watch { job } => handle_watch(self, writer, job),
            Request::Stats => write_frame(writer, &stats_response(self)),
            // The router's own registry view: probe RTTs, submit-ack
            // latency, spill/failover counters, per-member routed counts.
            // (Member-level job metrics come from asking each member's
            // `metrics` directly.)
            Request::Metrics => write_frame(
                writer,
                &JsonObject::line()
                    .raw("ok", true)
                    .raw("fleet", true)
                    .fields(&temu_obs::global().snapshot().to_json_fields())
                    .finish(),
            ),
            // The request loop acks it and stops the router.
            Request::Shutdown => Ok(()),
            // `Request` is non-exhaustive: refuse anything a future
            // protocol adds rather than guessing how to route it.
            _ => write_frame(writer, &error_line("request not supported by the fleet router")),
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Re-renders a member frame with its `"job"` field replaced by the
/// router-side job id (frames without the field pass through unchanged).
/// Safe to re-emit: [`JsonValue`]'s `Display` renders valid compact JSON.
fn with_job(frame: &JsonValue, id: u64) -> String {
    let JsonValue::Obj(fields) = frame else { return frame.to_string() };
    let patched: Vec<(String, JsonValue)> = fields
        .iter()
        .map(|(k, v)| {
            if k == "job" {
                #[allow(clippy::cast_precision_loss)]
                (k.clone(), JsonValue::Num(id as f64))
            } else {
                (k.clone(), v.clone())
            }
        })
        .collect();
    JsonValue::Obj(patched).to_string()
}

enum RelayOutcome {
    /// The member's terminal `done` event was forwarded.
    Done,
    /// The *client* went away; nothing left to serve.
    ClientGone(std::io::Error),
    /// The member connection failed mid-stream.
    MemberLost(ClientError),
}

/// Forwards member events to the client under the router job id until
/// the terminal event. The member-side read deadline is lifted — the
/// gap between points is one emulation run, unbounded a priori (a dead
/// member still surfaces immediately as a TCP reset).
fn relay_events(writer: &mut TcpStream, member: &mut Client, router_id: u64) -> RelayOutcome {
    if let Err(e) = member.set_read_deadline(None) {
        return RelayOutcome::MemberLost(e);
    }
    loop {
        let event = match member.recv() {
            Ok(event) => event,
            Err(e) => return RelayOutcome::MemberLost(e),
        };
        if let Err(e) = write_frame(writer, &with_job(&event, router_id)) {
            return RelayOutcome::ClientGone(e);
        }
        if event.get("event").and_then(JsonValue::as_str) == Some("done") {
            return RelayOutcome::Done;
        }
    }
}

#[allow(clippy::too_many_lines)]
fn handle_submit(
    shared: &Shared,
    writer: &mut TcpStream,
    spec: SweepSpec,
    watch: bool,
    priority: i64,
) -> std::io::Result<()> {
    // The shard key is the whole sweep's content key: the submission is
    // the retry/idempotency unit, so the identical resubmission must
    // reach the member holding the cached run (see the crate docs for
    // why not per-point sharding).
    let key = match spec.content_key() {
        Ok(key) => key,
        Err(e) => {
            write_frame(writer, &error_line(&e.to_string()))?;
            return Ok(());
        }
    };
    let order = shared.table.rendezvous(key);
    // Up members first (mark-down steers new work away), then the down
    // ones as a last resort — a "down" member may be back between probes.
    let mut candidates: Vec<usize> = order.iter().copied().filter(|i| shared.table.up(*i)).collect();
    candidates.extend(order.iter().copied().filter(|i| !shared.table.up(*i)));
    let mut acked: Option<(u64, u64)> = None;
    let mut errors: Vec<String> = Vec::new();
    for i in candidates {
        let addr = shared.table.addr(i).to_string();
        let mut member = match Client::connect(&addr) {
            Ok(member) => member,
            Err(e) => {
                shared.table.mark_down(i);
                errors.push(format!("{addr}: {e}"));
                continue;
            }
        };
        let sent = temu_obs::time!("fleet.submit_ack_ns", {
            member
                .send(&Request::Submit { spec: Box::new(spec.clone()), watch, priority })
                .and_then(|()| member.recv())
        });
        let ack = match sent {
            Ok(ack) => ack,
            Err(e) => {
                shared.table.mark_down(i);
                errors.push(format!("{addr}: {e}"));
                continue;
            }
        };
        if ack.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            if ack.get("code").and_then(JsonValue::as_str) == Some("queue_full") {
                // Spill: a full member is healthy, just busy — the next
                // member in rendezvous order takes the job (a later
                // resubmission to the primary becomes a store refresh
                // away from a cache hit only if stores are shared; either
                // way the job runs).
                shared.failovers.fetch_add(1, Ordering::Relaxed);
                temu_obs::global().counter("fleet.spills").inc();
                errors.push(format!("{addr}: queue full"));
                continue;
            }
            // Any other refusal (bad spec, ...) is deterministic — every
            // member would say the same, so forward the verdict.
            write_frame(writer, &ack.to_string())?;
            return Ok(());
        }
        let member_job = ack.get("job").and_then(JsonValue::as_u64).unwrap_or(0);
        let total = ack.get("total").and_then(JsonValue::as_u64).unwrap_or(0);
        shared.table.mark_routed(i);
        temu_obs::global().counter(&format!("fleet.member.{addr}.routed")).inc();
        let router_id = match acked {
            None => {
                let id = {
                    let mut routes = shared.lock_routes();
                    let id = routes.next_id;
                    routes.next_id += 1;
                    routes.insert(id, Route { member: i, member_job, total }, shared.history_limit);
                    id
                };
                shared.submissions.fetch_add(1, Ordering::Relaxed);
                temu_obs::global().counter("fleet.submissions").inc();
                // The ack an unmodified client expects, plus the member
                // annotation (ignored by clients that don't know it).
                let ack = JsonObject::line()
                    .raw("ok", true)
                    .raw("job", id)
                    .raw("total", total)
                    .str("member", &addr)
                    .finish();
                write_frame(writer, &ack)?;
                acked = Some((id, total));
                id
            }
            Some((id, _)) => {
                // Failover resubmission: the client already holds its
                // ack, so repoint the route and swallow this one — the
                // job id the client sees never changes mid-stream.
                let mut routes = shared.lock_routes();
                if let Some(route) = routes.map.get_mut(&id) {
                    route.member = i;
                    route.member_job = member_job;
                }
                id
            }
        };
        if !watch {
            return Ok(());
        }
        match relay_events(writer, &mut member, router_id) {
            RelayOutcome::Done => return Ok(()),
            RelayOutcome::ClientGone(e) => return Err(e),
            RelayOutcome::MemberLost(e) => {
                // Resubmit to the next member in rendezvous order: safe
                // because the sweep is idempotent by content key —
                // whatever the lost member finished and synced replays
                // as cache-hit point events.
                shared.table.mark_down(i);
                shared.failovers.fetch_add(1, Ordering::Relaxed);
                temu_obs::global().counter("fleet.failovers").inc();
                errors.push(format!("{addr}: {e}"));
            }
        }
    }
    let detail = errors.join("; ");
    match acked {
        None => write_frame(
            writer,
            &coded_error_line("no_members", &format!("every fleet member refused or failed: {detail}")),
        )?,
        Some((id, total)) => {
            let error = format!("every fleet member failed: {detail}");
            write_frame(writer, &failed_done(id, total, error))?;
        }
    }
    Ok(())
}

enum Forward {
    Status,
    Result,
    Cancel,
}

fn forward_request(
    shared: &Shared,
    writer: &mut TcpStream,
    router_job: u64,
    kind: Forward,
) -> std::io::Result<()> {
    let route = shared.lock_routes().map.get(&router_job).map(|r| (r.member, r.member_job));
    let Some((i, member_job)) = route else {
        write_frame(writer, &error_line(&format!("no such job {router_job}")))?;
        return Ok(());
    };
    let addr = shared.table.addr(i).to_string();
    let mut member = match Client::connect(&addr) {
        Ok(member) => member,
        Err(e) => {
            shared.table.mark_down(i);
            write_frame(writer, &coded_error_line("member_down", &format!("{addr}: {e}")))?;
            return Ok(());
        }
    };
    let result = match kind {
        Forward::Status => member.status(member_job),
        Forward::Result => member.result(member_job),
        Forward::Cancel => member.cancel(member_job),
    };
    match result {
        Ok(frame) => write_frame(writer, &with_job(&frame, router_job))?,
        // The member's refusal text references *its* job id; the message
        // is still the truth about this route, so forward it.
        Err(ClientError::Server(message)) => write_frame(writer, &error_line(&message))?,
        Err(e) => {
            shared.table.mark_down(i);
            write_frame(writer, &coded_error_line("member_down", &format!("{addr}: {e}")))?;
        }
    }
    Ok(())
}

fn handle_watch(shared: &Shared, writer: &mut TcpStream, router_job: u64) -> std::io::Result<()> {
    let route = shared.lock_routes().map.get(&router_job).map(|r| (r.member, r.member_job, r.total));
    let Some((i, member_job, total)) = route else {
        write_frame(writer, &error_line(&format!("no such job {router_job}")))?;
        return Ok(());
    };
    let addr = shared.table.addr(i).to_string();
    let attach = Client::connect(&addr).and_then(|mut member| {
        member.send(&Request::Watch { job: member_job })?;
        let ack = member.recv()?;
        Ok((member, ack))
    });
    let (mut member, ack) = match attach {
        Ok(attached) => attached,
        Err(e) => {
            shared.table.mark_down(i);
            write_frame(writer, &coded_error_line("member_down", &format!("{addr}: {e}")))?;
            return Ok(());
        }
    };
    if ack.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        write_frame(writer, &with_job(&ack, router_job))?;
        return Ok(());
    }
    write_frame(writer, &with_job(&ack, router_job))?;
    match relay_events(writer, &mut member, router_job) {
        RelayOutcome::Done => Ok(()),
        RelayOutcome::ClientGone(e) => Err(e),
        RelayOutcome::MemberLost(e) => {
            // A watch is an observer, not the submitter: the router can't
            // resubmit on its behalf (the submitter may already be doing
            // so). Close the stream with a failed done; resubmission
            // through the router is the idempotent recovery path.
            shared.table.mark_down(i);
            let error = format!("fleet member {addr} lost mid-watch: {e} — resubmit to recover");
            write_frame(writer, &failed_done(router_job, total, error))?;
            Ok(())
        }
    }
}

/// The router's aggregated `stats`: fleet-level counters, load sums over
/// *up* members, and the per-member breakdown. Members are probed live
/// here (and marked up/down) so `stats` reflects the fleet now, not as
/// of the last probe tick.
fn stats_response(shared: &Shared) -> String {
    probe_members(shared);
    JsonObject::line()
        .raw("ok", true)
        .raw("fleet", true)
        .raw("members_up", shared.table.up_count())
        .raw("submissions", shared.submissions.load(Ordering::Relaxed))
        .raw("failovers", shared.failovers.load(Ordering::Relaxed))
        .raw("routes", shared.lock_routes().map.len())
        .raw("queue_depth", shared.table.sum_stat("queue_depth"))
        .raw("running", shared.table.sum_stat("running"))
        .raw("workers", shared.table.sum_stat("workers"))
        .raw("members", shared.table.members_json())
        .finish()
}

/// The `done` event that closes a router-side stream the fleet could not
/// finish: no point ran here, so every counter is zero.
fn failed_done(job: u64, total: u64, error: String) -> String {
    DoneSummary {
        ok: false,
        points: total,
        executed: 0,
        cache_hits: 0,
        failed: 0,
        wall_s: 0.0,
        error: Some(error),
        cancelled: false,
    }
    .to_event(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_table_default_is_the_members_job_history() {
        let (router, member) = (RouterConfig::default(), temu_serve::ServeConfig::default());
        assert_eq!(router.history_limit, member.history_limit);
        assert_eq!(router.history_limit, DEFAULT_HISTORY_LIMIT);
    }
}
