//! The job server: a bounded queue of sweep jobs drained by worker
//! threads into one process-wide [`ResultCache`].
//!
//! Architecture (all `std`, no external dependencies):
//!
//! * the protocol's one **request loop** ([`crate::protocol::accept_loop`],
//!   a thread per connection), which hands each request to the server's
//!   dispatch;
//! * a **bounded job queue** (`VecDeque` under the jobs mutex, refused at
//!   [`ServeConfig::queue_limit`]) drained by [`ServeConfig::workers`]
//!   worker threads;
//! * each job re-lowers its [`SweepSpec`] and executes through the
//!   ordinary [`Sweep`](temu_framework::Sweep) engine, on the campaign's
//!   worker pool — the server is a transport in front of the experiment
//!   API, never a second execution path;
//! * every job runs against the **shared cache** (optionally persisted via
//!   [`ResultCache::with_store`]), so resubmitted or overlapping sweeps
//!   are served without executing scenarios, across jobs, connections and
//!   server restarts;
//! * progress streams to subscribed connections as the protocol's `point`
//!   events, straight from the sweep's
//!   [`on_progress`](temu_framework::Sweep::on_progress) sink.
//!
//! # Crash safety
//!
//! * every job transition is journaled ([`crate::journal::Journal`],
//!   `jobs.jsonl` next to the store by default): on startup the server
//!   replays the journal and re-enqueues jobs that were queued or running
//!   when the previous process died, preserving their ids;
//! * under `--window-checkpoint N`, every N-th window boundary of a
//!   running point appends its run state to the same journal, so a
//!   recovered job resumes its in-flight points from their last boundary;
//! * the journal and the store are checksummed
//!   [`temu_state::AppendLog`]s: a torn or bit-rotten record is skipped
//!   and counted (the startup banner reports it), never misread as
//!   another job's;
//! * every executed point is flushed to the store ([`ResultCache::sync`])
//!   once banked, so a job killed at point *k* restarts as *k* cache hits;
//! * one point observer per job sees each executed point's start (and,
//!   under `--window-checkpoint N`, every N-th window boundary): `cancel`
//!   stops a *running* job there, and it ends `cancelled`, never `failed`;
//! * a worker that panics (a scenario bug, or the `worker_panic` fault
//!   from [`crate::fault`]) fails only its own job with a typed error —
//!   the worker thread survives and keeps draining the queue;
//! * accepted connections carry read/write deadlines
//!   ([`crate::protocol::IO_TIMEOUT`]) and a bounded frame reader
//!   ([`crate::protocol::read_frame`]), so a slowloris or garbage peer
//!   cannot pin a handler thread or buffer unbounded bytes; they are
//!   `TCP_NODELAY` and take each frame in one write
//!   ([`crate::protocol::write_frame`]).

use crate::client::DoneSummary;
use crate::journal::Journal;
use crate::protocol::{
    accept_loop, coded_error_line, error_line, write_frame, Request, ServerHandle, Service,
};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use temu_framework::{
    ArtifactCache, CheckpointDecision, EmulationState, JsonObject, JsonValue, ResultCache,
    SweepProgress, SweepSpec,
};

/// Default size of a member's job history ([`ServeConfig::history_limit`])
/// and of a fleet router's route table (`RouterConfig::history_limit` in
/// `temu-fleet`). Both use this one value, so a route the router still
/// holds finds its member's job. A client that asks for an early job's
/// `result` after running many more jobs needs the history to hold all
/// of them.
pub const DEFAULT_HISTORY_LIMIT: usize = 4096;

/// Shortest cadence of the metrics log: a shorter
/// [`ServeConfig::metrics_interval`] runs at this one.
pub(crate) const MIN_METRICS_INTERVAL: Duration = Duration::from_millis(10);

/// Server configuration (see the module docs).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port (the bound
    /// address is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads draining the job queue (each job additionally runs
    /// its points on the campaign's own worker threads).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; further submissions are
    /// refused with a typed error response.
    pub queue_limit: usize,
    /// Optional store file for the shared result cache
    /// ([`ResultCache::with_store`], a binary append log; a store in an
    /// older format fails the bind); `None` keeps results in memory only.
    pub store: Option<PathBuf>,
    /// How many finished (done/failed/cancelled) jobs to keep queryable
    /// via `status`/`result`. Older terminal jobs are evicted so a
    /// long-running server's job registry stays bounded — their cached
    /// *results* live on in the shared [`ResultCache`]. The default is
    /// [`DEFAULT_HISTORY_LIMIT`].
    pub history_limit: usize,
    /// Job journal path (a binary append log, which also holds the
    /// [`window_checkpoint`](ServeConfig::window_checkpoint) records and
    /// is compacted at every bind; a journal in an older format fails the
    /// bind, like the store). `None` derives `jobs.jsonl` next to the
    /// store (no journal at all when the cache is purely in-memory); an
    /// explicit path journals regardless of the store.
    pub journal: Option<PathBuf>,
    /// Fleet member identity advertised in `stats` (the router labels its
    /// per-member breakdown with it); `None` omits the field.
    pub member: Option<String>,
    /// Persist each running point's serialized run state every N sampling
    /// windows as a window record in the job journal, so a killed server
    /// resumes an in-flight point from its last window boundary instead
    /// of re-running it. 0 (the default) disables capture; resuming from
    /// the window records a journal already holds happens regardless, so
    /// turning the flag off never strands recoverable state. Requires a
    /// journal (in-memory servers have nothing durable to resume into).
    pub window_checkpoint: u64,
    /// Optional NDJSON metrics log: a background thread appends one
    /// metrics snapshot line (the same JSON the `metrics` command
    /// returns, plus `seq` and `unix_ms`) every
    /// [`metrics_interval`](ServeConfig::metrics_interval), `O_APPEND`
    /// single-write per line so a torn tail never corrupts earlier
    /// snapshots. A final snapshot is appended at shutdown.
    pub metrics_log: Option<PathBuf>,
    /// Cadence of the metrics log (ignored without
    /// [`metrics_log`](ServeConfig::metrics_log)), at least 10 ms.
    pub metrics_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: String::from(crate::protocol::DEFAULT_ADDR),
            workers: 1,
            queue_limit: 64,
            store: None,
            history_limit: DEFAULT_HISTORY_LIMIT,
            journal: None,
            member: None,
            window_checkpoint: 0,
            metrics_log: None,
            metrics_interval: Duration::from_secs(1),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    fn tag(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

struct Job {
    name: String,
    spec: SweepSpec,
    state: JobState,
    /// Scheduling priority: higher first, FIFO within a level (0 default).
    priority: i64,
    total: usize,
    completed: usize,
    executed: usize,
    cache_hits: usize,
    failed: usize,
    wall_s: f64,
    error: Option<String>,
    report_json: Option<String>,
    subscribers: Vec<Sender<String>>,
    /// Set by `cancel` on a running job; the sweep's point observer sees
    /// it at the next point start or window boundary.
    cancel: Arc<AtomicBool>,
    /// When the job entered the queue — the base of the queue-wait
    /// histogram sample taken when a worker claims it.
    submitted: Instant,
    /// When a worker claimed the job — the base of the run-duration
    /// sample `finish_job` takes before it broadcasts `done`.
    started: Option<Instant>,
    /// Mid-point run states the journal recovered for the job, which the
    /// worker that claims it seeds its sweep with.
    resume: Vec<EmulationState>,
}

fn new_job(name: String, spec: SweepSpec, total: usize, priority: i64) -> Job {
    Job {
        name,
        spec,
        state: JobState::Queued,
        priority,
        total,
        completed: 0,
        executed: 0,
        cache_hits: 0,
        failed: 0,
        wall_s: 0.0,
        error: None,
        report_json: None,
        subscribers: Vec::new(),
        cancel: Arc::new(AtomicBool::new(false)),
        submitted: Instant::now(),
        started: None,
        resume: Vec::new(),
    }
}

struct Jobs {
    map: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    /// Terminal job ids, oldest first — the eviction order that keeps the
    /// registry bounded at [`ServeConfig::history_limit`].
    terminal: VecDeque<u64>,
    next_id: u64,
}

impl Jobs {
    /// Claims the next runnable job id: highest priority first, FIFO
    /// within a priority level (the queue itself is submission-ordered,
    /// so the first entry at the max level is the oldest). Entries whose
    /// job is no longer `Queued` (cancelled while waiting, or evicted)
    /// are dropped along the way.
    fn claim_next(&mut self) -> Option<u64> {
        self.queue
            .retain(|id| self.map.get(id).is_some_and(|j| j.state == JobState::Queued));
        let pos = self
            .queue
            .iter()
            .enumerate()
            .max_by(|(ai, a), (bi, b)| {
                let ap = self.map.get(a).map_or(i64::MIN, |j| j.priority);
                let bp = self.map.get(b).map_or(i64::MIN, |j| j.priority);
                // Strict priority order; on a tie the *earlier* index wins,
                // so compare indices reversed.
                ap.cmp(&bp).then(bi.cmp(ai))
            })
            .map(|(i, _)| i)?;
        self.queue.remove(pos)
    }

    /// Whether job `id` can publish no more events: it finished (its
    /// terminal event published), was evicted, or never existed.
    /// [`Shared::publish_terminal`] records the finish after it pushes the
    /// terminal event to the feed, so this never holds before that push.
    fn ended(&self, id: u64) -> bool {
        !self.map.contains_key(&id) || self.terminal.contains(&id)
    }

    /// Records a job's terminal transition and evicts the oldest finished
    /// jobs beyond the history limit.
    fn note_terminal(&mut self, id: u64, limit: usize) {
        self.terminal.push_back(id);
        while self.terminal.len() > limit {
            if let Some(evicted) = self.terminal.pop_front() {
                self.map.remove(&evicted);
            }
        }
    }
}

/// The server's metrics handles, all interned in a **per-server**
/// registry (not the process-wide one): tests spawn several servers in
/// one process, and their job counters must not cross-pollute. The
/// `metrics` command merges the process-wide registry (solver, core and
/// store instrumentation) with this one, server values winning on a
/// name collision.
struct ServeObs {
    registry: temu_obs::Registry,
    jobs_recovered: Arc<temu_obs::Counter>,
    jobs_submitted: Arc<temu_obs::Counter>,
    jobs_completed: Arc<temu_obs::Counter>,
    jobs_failed: Arc<temu_obs::Counter>,
    jobs_cancelled: Arc<temu_obs::Counter>,
    points_executed: Arc<temu_obs::Counter>,
    point_cache_hits: Arc<temu_obs::Counter>,
    points_failed: Arc<temu_obs::Counter>,
    queue_wait_ns: Arc<temu_obs::Histogram>,
    run_ns: Arc<temu_obs::Histogram>,
    queue_depth: Arc<temu_obs::Gauge>,
    running: Arc<temu_obs::Gauge>,
    cache_entries: Arc<temu_obs::Gauge>,
    results_retained: Arc<temu_obs::Gauge>,
}

impl ServeObs {
    fn new() -> ServeObs {
        let registry = temu_obs::Registry::new();
        let (
            jobs_recovered,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            jobs_cancelled,
            points_executed,
            point_cache_hits,
            points_failed,
            queue_wait_ns,
            run_ns,
            queue_depth,
            running,
            cache_entries,
            results_retained,
        ) = {
            let serve = registry.scope("serve");
            (
                serve.counter("jobs_recovered"),
                serve.counter("jobs_submitted"),
                serve.counter("jobs_completed"),
                serve.counter("jobs_failed"),
                serve.counter("jobs_cancelled"),
                serve.counter("points_executed"),
                serve.counter("point_cache_hits"),
                serve.counter("points_failed"),
                serve.histogram("queue_wait_ns"),
                serve.histogram("run_ns"),
                serve.gauge("queue_depth"),
                serve.gauge("running"),
                serve.gauge("cache_entries"),
                serve.gauge("results_retained"),
            )
        };
        ServeObs {
            registry,
            jobs_recovered,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            jobs_cancelled,
            points_executed,
            point_cache_hits,
            points_failed,
            queue_wait_ns,
            run_ns,
            queue_depth,
            running,
            cache_entries,
            results_retained,
        }
    }
}

/// How many completed-point / terminal-job events the results feed
/// retains for replay. A `results` client whose cursor has fallen off
/// the window sees `earliest_retained` jump past its cursor and knows
/// it missed events (it can re-fetch reports via `result`).
const FEED_RETAIN: usize = 4096;

struct FeedState {
    /// Retained events, oldest first: `(seq, job, terminal, line)`.
    /// `line` is the full event JSON *with* its `"seq"` field.
    buf: VecDeque<(u64, u64, bool, String)>,
    /// The next sequence number to assign (first event gets 1).
    next_seq: u64,
}

/// The completed-point event feed behind the `results` command: every
/// point completion and every terminal job transition is appended here
/// with a monotone sequence number, so a client can replay from a
/// cursor, follow live, and resume after a reconnect without duplicates
/// (ROADMAP 1b).
struct ResultsFeed {
    state: Mutex<FeedState>,
    cv: Condvar,
}

impl ResultsFeed {
    fn new() -> ResultsFeed {
        ResultsFeed {
            state: Mutex::new(FeedState { buf: VecDeque::new(), next_seq: 1 }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FeedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `line` (an event object, `{`-prefixed) to the feed,
    /// stamping it with the next sequence number.
    fn push(&self, job: u64, terminal: bool, line: &str) {
        let mut state = self.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let stamped = JsonObject::line().raw("seq", seq).fields(&line[1..line.len() - 1]).finish();
        state.buf.push_back((seq, job, terminal, stamped));
        while state.buf.len() > FEED_RETAIN {
            state.buf.pop_front();
        }
        drop(state);
        self.cv.notify_all();
    }

    /// The latest assigned sequence number (0 before the first event).
    fn cursor(&self) -> u64 {
        self.lock().next_seq - 1
    }

    /// The oldest retained sequence number (0 when nothing is retained).
    fn earliest_retained(&self) -> u64 {
        self.lock().buf.front().map_or(0, |(seq, ..)| *seq)
    }

    /// Events after `cursor` (optionally restricted to one job),
    /// oldest first. The second return is true when a terminal event of
    /// the filtered job is *retained* — checked against the whole buffer,
    /// not just the slice past the cursor, so a follow stream resuming at
    /// or beyond a finished job's terminal event ends immediately instead
    /// of blocking for events that will never come.
    fn collect_after(&self, cursor: u64, job: Option<u64>) -> (Vec<(u64, String)>, bool) {
        let state = self.lock();
        let mut out = Vec::new();
        let mut job_done = false;
        for (seq, event_job, terminal, line) in &state.buf {
            if let Some(want) = job {
                if *event_job != want {
                    continue;
                }
                job_done |= *terminal;
            }
            if *seq <= cursor {
                continue;
            }
            out.push((*seq, line.clone()));
        }
        (out, job_done)
    }

    fn retained(&self) -> usize {
        self.lock().buf.len()
    }
}

struct Shared {
    cache: ResultCache,
    /// Process-wide build-artifact cache: every job's sweep threads its
    /// scenario builds through this, so floorplans, meshes and multigrid
    /// hierarchies survive across jobs the way point *results* survive in
    /// `cache`. Unbounded by design — a server's working set of distinct
    /// geometries is small (the artifacts are keyed by configuration, not
    /// by job).
    artifacts: Arc<ArtifactCache>,
    journal: Option<Journal>,
    /// The window-checkpoint cadence (0 = record nothing; recovered jobs
    /// still resume from their window records).
    window_every: u64,
    member: Option<String>,
    queue_limit: usize,
    history_limit: usize,
    workers: usize,
    jobs: Mutex<Jobs>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Per-server metrics registry and pre-interned handles; the job and
    /// point counters the `stats` command reports live here (`stats` is a
    /// thin view over the registry).
    obs: ServeObs,
    /// The completed-point event feed behind `results`.
    feed: ResultsFeed,
    metrics_log: Option<PathBuf>,
    metrics_interval: Duration,
}

impl Shared {
    fn lock_jobs(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sends a non-terminal event `line` to the job's subscribers,
    /// dropping the ones that went away.
    fn broadcast(&self, job_id: u64, line: &str) {
        let mut jobs = self.lock_jobs();
        if let Some(job) = jobs.map.get_mut(&job_id) {
            job.subscribers.retain(|tx| tx.send(line.to_string()).is_ok());
        }
    }

    /// Publishes a job's terminal event `line`: into the results feed, to
    /// every subscriber, detaching them all (their receivers then
    /// disconnect, ending the client-side stream loop), and into the
    /// bounded history. The send and the history update share one jobs
    /// lock, so a request sent after `done` already sees the history that
    /// `done` implies.
    fn publish_terminal(&self, job_id: u64, line: &str) {
        self.feed.push(job_id, true, line);
        let mut jobs = self.lock_jobs();
        if let Some(job) = jobs.map.get_mut(&job_id) {
            for tx in job.subscribers.drain(..) {
                let _ = tx.send(line.to_string());
            }
        }
        jobs.note_terminal(job_id, self.history_limit);
    }
}

/// The terminal `done` event / non-terminal progress snapshot for a job.
fn done_line(job_id: u64, job: &Job) -> String {
    DoneSummary {
        ok: job.state == JobState::Done && job.failed == 0,
        points: job.total as u64,
        executed: job.executed as u64,
        cache_hits: job.cache_hits as u64,
        failed: job.failed as u64,
        wall_s: job.wall_s,
        error: job.error.clone(),
        cancelled: job.state == JobState::Cancelled,
    }
    .to_event(job_id)
}

fn point_line(job_id: u64, p: &SweepProgress<'_>) -> String {
    let line = JsonObject::line()
        .str("event", "point")
        .raw("job", job_id)
        .raw("index", p.index)
        .raw("completed", p.completed)
        .raw("total", p.total)
        .str("label", p.label)
        .raw("cache_hit", p.cache_hit)
        .raw("ok", p.outcome.is_ok());
    match p.outcome {
        Ok(s) => {
            // A point without a finite peak omits the field.
            let line = match s.peak_temp_k.filter(|t| t.is_finite()) {
                Some(peak) => line.num("peak_temp_k", peak, 3),
                None => line,
            };
            line.raw("windows", s.windows).raw("unconverged_substeps", s.unconverged_substeps)
        }
        // A point that a cancel stopped is not a failure: the flag keeps
        // it apart, as the job's counters and its `done` event do.
        Err(e) => line.str("error", &e.to_string()).opt_raw("cancelled", e.is_cancellation().then_some(true)),
    }
    .finish()
}

/// A bound, not-yet-running job server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Damaged or undecodable records the journal skipped at bind time.
    skipped: usize,
}

impl Server {
    /// Binds the listen socket and opens the shared cache (loading any
    /// existing store entries).
    ///
    /// # Errors
    ///
    /// Any I/O error binding the address or opening a durable file.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let cache = match &config.store {
            Some(path) => ResultCache::with_store(path)?,
            None => ResultCache::in_memory(),
        };
        // The journal lives next to the store unless placed explicitly; a
        // fully in-memory server has nothing durable to recover into, so
        // it runs unjournaled.
        let journal_path = config
            .journal
            .clone()
            .or_else(|| config.store.as_ref().map(|s| s.with_file_name("jobs.jsonl")));
        let (journal, replayed) = match journal_path {
            Some(path) => {
                let (journal, replayed) = Journal::open(path)?;
                (Some(journal), replayed)
            }
            None => (None, crate::journal::JournalReplay { next_id: 1, ..Default::default() }),
        };
        let listener = TcpListener::bind(&config.addr).map_err(|e| {
            std::io::Error::new(e.kind(), format!("cannot bind {}: {e}", config.addr))
        })?;
        let shared = Arc::new(Shared {
            cache,
            artifacts: Arc::new(ArtifactCache::new()),
            journal,
            window_every: config.window_checkpoint,
            member: config.member.clone(),
            queue_limit: config.queue_limit.max(1),
            history_limit: config.history_limit.max(1),
            workers: config.workers.max(1),
            jobs: Mutex::new(Jobs {
                map: HashMap::new(),
                queue: VecDeque::new(),
                terminal: VecDeque::new(),
                next_id: replayed.next_id.max(1),
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            obs: ServeObs::new(),
            feed: ResultsFeed::new(),
            metrics_log: config.metrics_log.clone(),
            metrics_interval: config.metrics_interval.max(MIN_METRICS_INTERVAL),
        });
        // Re-enqueue what the previous incarnation never finished — their
        // executed points are already cache entries, so a recovered job
        // resumes as cache hits plus the remaining grid, and its in-flight
        // points from their last window records. A state that fails to
        // decode (version skew) is dropped and counted as a skipped
        // record: its point re-runs from scratch, which is correct, just
        // slower.
        let mut skipped = replayed.skipped;
        for recovered in replayed.pending {
            let total = match recovered.spec.lower() {
                Ok(sweep) => sweep.n_points(),
                Err(e) => {
                    // The spec journaled fine but no longer lowers (e.g. a
                    // preset removed across versions): close it out rather
                    // than re-journal it forever.
                    if let Some(journal) = &shared.journal {
                        journal.record_terminal(recovered.id, "failed");
                    }
                    let _ = e;
                    continue;
                }
            };
            let mut job = new_job(recovered.name, recovered.spec, total, recovered.priority);
            job.resume =
                recovered.states.values().filter_map(|bytes| EmulationState::from_bytes(bytes).ok()).collect();
            skipped += recovered.states.len() - job.resume.len();
            let mut jobs = shared.lock_jobs();
            jobs.map.insert(recovered.id, job);
            jobs.queue.push_back(recovered.id);
            drop(jobs);
            shared.obs.jobs_recovered.inc();
        }
        Ok(Server { listener, shared, skipped })
    }

    /// Jobs the journal recovered at bind time (queued again, not yet
    /// counted as submitted).
    #[must_use]
    pub fn recovered_jobs(&self) -> u64 {
        self.shared.obs.jobs_recovered.get()
    }

    /// Mid-point run states the journal recovered at bind time, still
    /// waiting for their job to be claimed — points that will resume from
    /// a window boundary instead of re-running.
    #[must_use]
    pub fn recovered_checkpoints(&self) -> usize {
        self.shared.lock_jobs().map.values().map(|job| job.resume.len()).sum()
    }

    /// Damaged or undecodable records the journal skipped at bind time,
    /// window records whose state does not decode included.
    #[must_use]
    pub(crate) fn skipped_records(&self) -> usize {
        self.skipped
    }

    /// The journal path, when journaling is active.
    #[must_use]
    pub fn journal_path(&self) -> Option<&std::path::Path> {
        self.shared.journal.as_ref().map(Journal::path)
    }

    /// The bound address (resolves an ephemeral port request).
    ///
    /// # Errors
    ///
    /// The socket's address lookup failure (effectively never after a
    /// successful bind).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of cached points currently shared across jobs.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Runs the server on the current thread until a `shutdown` request
    /// arrives: spawns the worker pool, then accepts and serves
    /// connections.
    pub fn run(self) {
        let workers: Vec<JoinHandle<()>> = (0..self.shared.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let metrics_thread = self.shared.metrics_log.clone().map(|path| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || metrics_log_loop(&shared, &path))
        });
        accept_loop(&self.listener, &self.shared);
        self.shared.cv.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        // No watcher is left hanging by shutdown: any job the workers
        // never claimed is cancelled with a terminal event (workers stop
        // claiming once the flag is set, so the drain below races with
        // nothing).
        let abandoned: Vec<(u64, String)> = {
            let mut jobs = self.shared.lock_jobs();
            let ids: Vec<u64> = jobs.queue.drain(..).collect();
            ids.into_iter()
                .filter_map(|id| {
                    let job = jobs.map.get_mut(&id)?;
                    job.state = JobState::Cancelled;
                    job.error = Some(String::from("server shut down before the job ran"));
                    Some((id, done_line(id, job)))
                })
                .collect()
        };
        for (id, line) in abandoned {
            self.shared.obs.jobs_cancelled.inc();
            if let Some(journal) = &self.shared.journal {
                journal.record_terminal(id, JobState::Cancelled.tag());
            }
            self.shared.publish_terminal(id, &line);
        }
        if let Some(metrics) = metrics_thread {
            let _ = metrics.join();
        }
    }

    /// Runs the server on a background thread, returning a handle with
    /// the bound address — the in-process form the tests and examples
    /// drive.
    ///
    /// # Errors
    ///
    /// Any [`Server::bind`] error.
    pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.local_addr()?;
        let shared = Arc::clone(&server.shared);
        Ok(ServerHandle::spawn(addr, shared, move || server.run()))
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let claimed = {
            let mut jobs = shared.lock_jobs();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(id) = jobs.claim_next() {
                    if let Some(job) = jobs.map.get_mut(&id) {
                        if job.state == JobState::Queued {
                            job.state = JobState::Running;
                            job.started = Some(Instant::now());
                            if temu_obs::enabled() {
                                shared.obs.queue_wait_ns.record_duration(job.submitted.elapsed());
                            }
                            let resume = std::mem::take(&mut job.resume);
                            break Some((id, job.spec.clone(), Arc::clone(&job.cancel), resume));
                        }
                    }
                    continue;
                }
                jobs = shared.cv.wait(jobs).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((id, spec, cancel, resume)) = claimed else { return };
        if let Some(journal) = &shared.journal {
            journal.record_start(id);
        }
        // A panicking job — a scenario bug past the campaign's own
        // isolation, or the `worker_panic` fault — fails that job with a
        // typed error; this worker thread survives to drain the queue.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, id, &spec, &cancel, resume);
        }));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| String::from("opaque panic payload"));
            finish_job(shared, id, JobState::Failed, Some(format!("worker panicked: {message}")), None);
        }
    }
}

fn run_job(
    shared: &Arc<Shared>,
    id: u64,
    spec: &SweepSpec,
    cancel: &Arc<AtomicBool>,
    resume: Vec<EmulationState>,
) {
    let sweep = match spec.lower() {
        Ok(sweep) => sweep,
        Err(e) => {
            // Lowering is validated at submit time, but the running server
            // must survive any spec that slips through regardless.
            finish_job(shared, id, JobState::Failed, Some(e.to_string()), None);
            return;
        }
    };
    let total = sweep.n_points();
    let start =
        JsonObject::line().str("event", "start").raw("job", id).raw("total", total).finish();
    shared.broadcast(id, &start);
    let progress_shared = Arc::clone(shared);
    let observer_shared = Arc::clone(shared);
    let observer_cancel = Arc::clone(cancel);
    let mut sweep = sweep.artifacts(Arc::clone(&shared.artifacts));
    // Seed recovered mid-point states: a point whose content key matches
    // resumes from its last window boundary; everything else (including a
    // state whose grid point changed across versions) builds fresh.
    for state in resume {
        sweep = sweep.resume_point(state);
    }
    let report = sweep
        // At each executed point's start, and every N windows inside it
        // under `--window-checkpoint N`: persist the boundary's run state
        // and stream a `progress` event to watchers, then observe
        // cancellation — a client `cancel` (or server shutdown) stops the
        // job at the next point start or resumable window boundary.
        .on_point(shared.window_every, move |cp| {
            if let Some(state) = cp.state {
                if let Some(journal) = &observer_shared.journal {
                    journal.record_window(id, cp.key, cp.windows, &state.to_bytes());
                }
                let progress = JsonObject::line()
                    .raw("windows", cp.windows)
                    .raw("total_windows", cp.total_windows)
                    .finish();
                let line = JsonObject::line()
                    .str("event", "point")
                    .raw("job", id)
                    .raw("index", cp.index)
                    .str("label", cp.label)
                    .raw("progress", progress)
                    .finish();
                observer_shared.broadcast(id, &line);
            }
            if observer_cancel.load(Ordering::Acquire) || observer_shared.shutdown.load(Ordering::SeqCst) {
                CheckpointDecision::Cancel
            } else {
                CheckpointDecision::Continue
            }
        })
        .on_progress(move |p| {
            {
                let mut jobs = progress_shared.lock_jobs();
                if let Some(job) = jobs.map.get_mut(&id) {
                    job.completed = p.completed;
                    if p.cache_hit {
                        job.cache_hits += 1;
                    } else {
                        job.executed += 1;
                    }
                    if p.outcome.is_err_and(|e| !e.is_cancellation()) {
                        job.failed += 1;
                    }
                }
            }
            let line = point_line(id, p);
            progress_shared.feed.push(id, false, &line);
            progress_shared.broadcast(id, &line);
            // An executed point was just banked in the store: flush it so
            // a crash from here on resumes it as a cache hit, then inject
            // chaos — a panic propagates to this worker's catch_unwind and
            // fails the whole job. Fully cached reruns never get here.
            if !p.cache_hit && p.outcome.is_ok() {
                progress_shared.cache.sync();
                crate::fault::worker_panic_point();
            }
        })
        .run_cached(&shared.cache);
    shared.obs.points_executed.add(report.executed as u64);
    shared.obs.point_cache_hits.add(report.cache_hits as u64);
    shared.obs.points_failed.add(report.n_failed() as u64);
    let state = if report.cancelled { JobState::Cancelled } else { JobState::Done };
    finish_job(shared, id, state, None, Some(report));
}

fn finish_job(
    shared: &Arc<Shared>,
    id: u64,
    state: JobState,
    error: Option<String>,
    report: Option<temu_framework::SweepReport>,
) {
    let (line, started) = {
        let mut jobs = shared.lock_jobs();
        let Some(job) = jobs.map.get_mut(&id) else { return };
        job.state = state;
        job.error = error;
        if let Some(report) = &report {
            // `job.completed` stays the progress sink's count: points
            // that never started were never streamed.
            job.total = report.points.len();
            job.executed = report.executed;
            job.cache_hits = report.cache_hits;
            job.failed = report.n_failed();
            job.wall_s = report.wall.as_secs_f64();
            // Stored single-line: every newline in the pretty export is
            // structural (strings escape theirs), so this stays valid JSON.
            job.report_json = Some(report.to_json().replace('\n', " "));
        }
        (done_line(id, job), job.started.take())
    };
    // Sampled before `done` goes out, so a client reading `metrics` right
    // after `done` sees this job's run.
    if let Some(started) = started.filter(|_| temu_obs::enabled()) {
        shared.obs.run_ns.record_duration(started.elapsed());
    }
    match state {
        JobState::Done => shared.obs.jobs_completed.inc(),
        JobState::Cancelled => shared.obs.jobs_cancelled.inc(),
        _ => shared.obs.jobs_failed.inc(),
    };
    if let Some(journal) = &shared.journal {
        journal.record_terminal(id, state.tag());
    }
    shared.publish_terminal(id, &line);
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

impl Service for Shared {
    fn dispatch(&self, writer: &mut TcpStream, request: Request) -> std::io::Result<()> {
        self.obs.registry.counter(&format!("serve.req.{}", request.cmd())).inc();
        match request {
            Request::Submit { spec, watch, priority } => handle_submit(self, writer, *spec, watch, priority),
            Request::Status { job } => write_frame(writer, &status_response(self, job)),
            Request::Result { job } => write_frame(writer, &result_response(self, job)),
            Request::Cancel { job } => write_frame(writer, &cancel_response(self, job)),
            Request::Watch { job } => handle_watch(self, writer, job),
            Request::Stats => write_frame(writer, &stats_response(self)),
            Request::Metrics => write_frame(writer, &metrics_response(self)),
            Request::Results { after, follow, job } => handle_results(self, writer, after, follow, job),
            // The request loop acks it and stops the server.
            Request::Shutdown => Ok(()),
        }
    }

    /// Closes the queue and wakes the workers and the followers of the
    /// results feed, so they observe the flag.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cv.notify_all();
        self.feed.cv.notify_all();
    }

    fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The `drop_conn` fault: hang up before serving, as a crashing or
    /// partitioned server would, leaving the client to retry.
    fn admit(&self) -> bool {
        !crate::fault::drop_connection()
    }
}

fn handle_submit(
    shared: &Shared,
    writer: &mut TcpStream,
    spec: SweepSpec,
    watch: bool,
    priority: i64,
) -> std::io::Result<()> {
    // Validate by lowering once up front, so a bad spec is the
    // submitter's typed error, not a later queue failure.
    let total = match spec.lower() {
        Ok(sweep) => sweep.n_points(),
        Err(e) => {
            write_frame(writer, &error_line(&e.to_string()))?;
            return Ok(());
        }
    };
    let subscription = {
        let mut jobs = shared.lock_jobs();
        if jobs.queue.len() >= shared.queue_limit {
            drop(jobs);
            // Coded refusal: the fleet router spills `queue_full` to the
            // next member in rendezvous order instead of failing the
            // submission.
            let refusal = coded_error_line(
                "queue_full",
                &format!("queue full ({} job(s) queued)", shared.queue_limit),
            );
            write_frame(writer, &refusal)?;
            return Ok(());
        }
        let id = jobs.next_id;
        jobs.next_id += 1;
        let mut job = new_job(spec.name.clone(), spec, total, priority);
        // Write-ahead: the submit record lands (under the jobs lock, so
        // journal order matches queue order) before the job is visible to
        // workers — a crash from here on recovers it.
        if let Some(journal) = &shared.journal {
            journal.record_submit(id, &job.name, job.priority, &job.spec);
        }
        // Subscribe before the job can start: no event is ever missed.
        let rx = watch.then(|| {
            let (tx, rx) = channel();
            job.subscribers.push(tx);
            rx
        });
        jobs.map.insert(id, job);
        jobs.queue.push_back(id);
        (id, rx)
    };
    let (id, rx) = subscription;
    shared.obs.jobs_submitted.inc();
    shared.cv.notify_one();
    let ack = JsonObject::line().raw("ok", true).raw("job", id).raw("total", total).finish();
    write_frame(writer, &ack)?;
    if let Some(rx) = rx {
        stream_events(writer, &rx)?;
    }
    Ok(())
}

/// Forwards queued event lines until the job's terminal event detaches
/// the sender side.
fn stream_events(writer: &mut TcpStream, rx: &Receiver<String>) -> std::io::Result<()> {
    while let Ok(line) = rx.recv() {
        write_frame(writer, &line)?;
    }
    Ok(())
}

enum WatchOutcome {
    Missing,
    AlreadyTerminal(String),
    Attached(Receiver<String>),
}

fn handle_watch(shared: &Shared, writer: &mut TcpStream, job_id: u64) -> std::io::Result<()> {
    let outcome = {
        let mut jobs = shared.lock_jobs();
        match jobs.map.get_mut(&job_id) {
            None => WatchOutcome::Missing,
            Some(job) if job.state.terminal() => WatchOutcome::AlreadyTerminal(done_line(job_id, job)),
            Some(job) => {
                let (tx, rx) = channel();
                job.subscribers.push(tx);
                WatchOutcome::Attached(rx)
            }
        }
    };
    let ack = JsonObject::line().raw("ok", true).raw("job", job_id).finish();
    match outcome {
        WatchOutcome::Missing => write_frame(writer, &error_line(&format!("no such job {job_id}"))),
        WatchOutcome::AlreadyTerminal(done) => {
            write_frame(writer, &ack)?;
            write_frame(writer, &done)
        }
        WatchOutcome::Attached(rx) => {
            write_frame(writer, &ack)?;
            stream_events(writer, &rx)
        }
    }
}

fn status_response(shared: &Shared, job_id: u64) -> String {
    let jobs = shared.lock_jobs();
    match jobs.map.get(&job_id) {
        None => error_line(&format!("no such job {job_id}")),
        Some(job) => JsonObject::line()
            .raw("ok", true)
            .raw("job", job_id)
            .str("name", &job.name)
            .str("state", job.state.tag())
            .raw("priority", job.priority)
            .raw("completed", job.completed)
            .raw("total", job.total)
            .raw("executed", job.executed)
            .raw("cache_hits", job.cache_hits)
            .raw("failed", job.failed)
            .finish(),
    }
}

fn result_response(shared: &Shared, job_id: u64) -> String {
    let jobs = shared.lock_jobs();
    match jobs.map.get(&job_id) {
        None => error_line(&format!("no such job {job_id}")),
        Some(job) => match (&job.report_json, job.state) {
            (Some(report), _) => JsonObject::line()
                .raw("ok", true)
                .raw("job", job_id)
                .str("state", job.state.tag())
                .raw("failed", job.failed)
                .raw("report", report)
                .finish(),
            (None, state) => error_line(&format!("job {job_id} has no report (state: {})", state.tag())),
        },
    }
}

fn cancel_response(shared: &Shared, job_id: u64) -> String {
    let line = {
        let mut jobs = shared.lock_jobs();
        match jobs.map.get_mut(&job_id) {
            None => return error_line(&format!("no such job {job_id}")),
            Some(job) if job.state == JobState::Queued => {
                job.state = JobState::Cancelled;
                let done = done_line(job_id, job);
                jobs.queue.retain(|id| *id != job_id);
                done
            }
            Some(job) if job.state == JobState::Running => {
                // Acknowledge now; the point observer stops the sweep at the
                // next point start or window boundary, and the worker emits
                // the terminal event (completed points stay cached).
                job.cancel.store(true, Ordering::Release);
                return JsonObject::line()
                    .raw("ok", true)
                    .raw("job", job_id)
                    .raw("cancelling", true)
                    .finish();
            }
            Some(job) => {
                return error_line(&format!(
                    "job {job_id} is {} — finished jobs cannot be cancelled",
                    job.state.tag()
                ))
            }
        }
    };
    shared.obs.jobs_cancelled.inc();
    if let Some(journal) = &shared.journal {
        journal.record_terminal(job_id, JobState::Cancelled.tag());
    }
    shared.publish_terminal(job_id, &line);
    JsonObject::line().raw("ok", true).raw("job", job_id).raw("cancelled", true).finish()
}

fn stats_response(shared: &Shared) -> String {
    let (queue_depth, running) = {
        let jobs = shared.lock_jobs();
        let running = jobs.map.values().filter(|j| j.state == JobState::Running).count();
        (jobs.queue.len(), running)
    };
    let executed = shared.obs.points_executed.get();
    let hits = shared.obs.point_cache_hits.get();
    let served = executed + hits;
    let hit_rate = if served == 0 { 0.0 } else { hits as f64 / served as f64 };
    // The build-artifact layer: how much scenario construction the
    // process-wide cache absorbed, per layer, since the server started.
    let arts = shared.artifacts.stats();
    let art_served = arts.hits() + arts.misses();
    let art_rate = if art_served == 0 { 0.0 } else { arts.hits() as f64 / art_served as f64 };
    let path = |p: Option<&std::path::Path>| {
        p.map_or(JsonValue::Null, |p| JsonValue::Str(p.display().to_string()))
    };
    JsonObject::line()
        .raw("ok", true)
        .opt_str("member", shared.member.as_deref())
        .raw("jobs_submitted", shared.obs.jobs_submitted.get())
        .raw("jobs_completed", shared.obs.jobs_completed.get())
        .raw("jobs_failed", shared.obs.jobs_failed.get())
        .raw("jobs_cancelled", shared.obs.jobs_cancelled.get())
        .raw("jobs_recovered", shared.obs.jobs_recovered.get())
        .raw("queue_depth", queue_depth)
        .raw("running", running)
        .raw("workers", shared.workers)
        .raw("queue_limit", shared.queue_limit)
        .raw("points_executed", executed)
        .raw("point_cache_hits", hits)
        .raw("points_failed", shared.obs.points_failed.get())
        .num("cache_hit_rate", hit_rate, 4)
        .num("artifact_hit_rate", art_rate, 4)
        .raw("artifact_floorplan_hits", arts.floorplan_hits)
        .raw("artifact_floorplan_misses", arts.floorplan_misses)
        .raw("artifact_mesh_hits", arts.mesh_hits)
        .raw("artifact_mesh_misses", arts.mesh_misses)
        .raw("artifact_operator_hits", arts.operator_hits)
        .raw("artifact_operator_misses", arts.operator_misses)
        .raw("artifact_program_hits", arts.program_hits)
        .raw("artifact_program_misses", arts.program_misses)
        .raw("cache_entries", shared.cache.len())
        .raw("store", path(shared.cache.store_path()))
        .raw("journal", path(shared.journal.as_ref().map(Journal::path)))
        .finish()
}

/// A point-in-time metrics snapshot: the process-wide registry (solver,
/// core, store instrumentation) merged with the server's own (job and
/// point counters, request counters, latency histograms; server values
/// win a name collision). Point-in-time gauges are refreshed first.
fn metrics_snapshot(shared: &Shared) -> temu_obs::Snapshot {
    {
        let jobs = shared.lock_jobs();
        let running = jobs.map.values().filter(|j| j.state == JobState::Running).count();
        shared.obs.queue_depth.set(jobs.queue.len() as u64);
        shared.obs.running.set(running as u64);
    }
    shared.obs.cache_entries.set(shared.cache.len() as u64);
    shared.obs.results_retained.set(shared.feed.retained() as u64);
    let mut snapshot = temu_obs::global().snapshot();
    snapshot.merge(&shared.obs.registry.snapshot());
    snapshot
}

fn metrics_response(shared: &Shared) -> String {
    JsonObject::line()
        .raw("ok", true)
        .opt_str("member", shared.member.as_deref())
        .fields(&metrics_snapshot(shared).to_json_fields())
        .finish()
}

/// Serves one `results` request: ack with the current cursor and
/// retention horizon, replay retained events past `after`, then (under
/// `follow`) block for new events until the job filter's terminal event,
/// until that job can send no more ([`Jobs::ended`]), the client hangs
/// up, or the server shuts down. Every stream ends with an `end` event
/// carrying the cursor to resume from.
fn handle_results(
    shared: &Shared,
    writer: &mut TcpStream,
    after: u64,
    follow: bool,
    job: Option<u64>,
) -> std::io::Result<()> {
    let ack = JsonObject::line()
        .raw("ok", true)
        .raw("cursor", shared.feed.cursor())
        .raw("earliest_retained", shared.feed.earliest_retained())
        .finish();
    write_frame(writer, &ack)?;
    let mut cursor = after;
    loop {
        // Read before collecting: `ended` holds only once the job's
        // terminal event is in the feed, so the collect below sends that
        // event if the feed still holds it.
        let job_ended = job.is_some_and(|id| shared.lock_jobs().ended(id));
        let (events, job_done) = shared.feed.collect_after(cursor, job);
        for (seq, line) in events {
            cursor = seq;
            write_frame(writer, &line)?;
        }
        if job_done || job_ended || !follow || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Block until the feed grows (or shutdown). The timeout bounds
        // how stale the shutdown check can get; spurious wakeups just
        // re-collect nothing.
        let state = shared.feed.lock();
        if state.next_seq - 1 <= cursor {
            let _unused = shared
                .feed
                .cv
                .wait_timeout(state, Duration::from_millis(250))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    write_frame(writer, &JsonObject::line().str("event", "end").raw("cursor", cursor).finish())
}

/// The `--metrics-log` thread body: append one snapshot line per
/// interval (each line a single `write` to an `O_APPEND` handle, so a
/// dying server tears at most the last line), plus a final snapshot at
/// shutdown.
fn metrics_log_loop(shared: &Arc<Shared>, path: &std::path::Path) {
    let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
    let Ok(mut file) = file else {
        eprintln!("temu-serve: cannot open metrics log {}", path.display());
        return;
    };
    let mut seq: u64 = 0;
    let mut append = |seq: u64| {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let mut line = JsonObject::line()
            .raw("seq", seq)
            .raw("unix_ms", unix_ms)
            .fields(&metrics_snapshot(shared).to_json_fields())
            .finish();
        line.push('\n');
        let _ = file.write_all(line.as_bytes());
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        seq += 1;
        append(seq);
        // Sleep in small slices so shutdown is honored promptly even
        // under a long interval.
        let mut left = shared.metrics_interval;
        while !left.is_zero() && !shared.shutdown.load(Ordering::SeqCst) {
            let slice = left.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            left -= slice;
        }
    }
    append(seq + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn queued(priority: i64) -> Job {
        let spec = SweepSpec::named("smoke").expect("smoke preset");
        new_job(String::from("t"), spec, 1, priority)
    }

    #[test]
    fn claim_order_is_priority_then_fifo_and_skips_non_queued() {
        let mut jobs = Jobs {
            map: HashMap::new(),
            queue: VecDeque::new(),
            terminal: VecDeque::new(),
            next_id: 6,
        };
        for (id, priority) in [(1, 0), (2, 5), (3, 0), (4, 5), (5, -1)] {
            jobs.map.insert(id, queued(priority));
            jobs.queue.push_back(id);
        }
        // Job 4 was cancelled while queued: it must be skipped even though
        // it ties job 2 for the highest priority.
        jobs.map.get_mut(&4).expect("job 4").state = JobState::Cancelled;
        let mut order = Vec::new();
        while let Some(id) = jobs.claim_next() {
            jobs.map.get_mut(&id).expect("claimed job").state = JobState::Running;
            order.push(id);
        }
        assert_eq!(order, vec![2, 1, 3, 5], "priority desc, FIFO within a level");
    }

    #[test]
    fn undecodable_window_states_count_as_skipped_records() {
        let dir = std::env::temp_dir().join(format!("temu-server-junk-state-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.record_submit(1, "smoke", 0, &SweepSpec::named("smoke").expect("smoke preset"));
            journal.record_start(1);
            journal.record_window(1, 7, 3, b"not an emulation state");
            // A state that decodes, but for its version word, which names
            // the older layout.
            let mut emulation = temu_framework::Scenario::exploration_bus(1).build().unwrap();
            emulation.run_window().unwrap();
            let mut older = emulation.checkpoint().to_bytes();
            assert!(EmulationState::from_bytes(&older).is_ok());
            older[4..8].copy_from_slice(&1u32.to_le_bytes());
            journal.record_window(1, 8, 1, &older);
        }
        let server = Server::bind(ServeConfig {
            addr: String::from("127.0.0.1:0"),
            journal: Some(path),
            ..ServeConfig::default()
        })
        .unwrap();
        let recovered = (server.recovered_jobs(), server.recovered_checkpoints(), server.skipped_records());
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(recovered, (1, 0, 2), "one job, no state, the junk and the older state counted as skipped");
    }

    /// A real point summary with its floats pinned to fixed values
    /// (`PointSummary` is non-exhaustive, so it comes from a tiny run).
    fn pinned_summary() -> temu_framework::PointSummary {
        let spec = SweepSpec::from_json(
            r#"{"sweep": "one", "base": {"cores": 1, "workload": {"kind": "matrix", "n": 4, "iters": 1, "cores": 1}, "sampling_window_s": 0.0005, "windows": 2}, "axes": []}"#,
        )
        .unwrap();
        let report = spec.lower().unwrap().run();
        let mut s = report.points[0].outcome.as_ref().unwrap().clone();
        s.windows = 12;
        s.peak_temp_k = Some(351.2509);
        s.unconverged_substeps = 3;
        s
    }

    #[test]
    fn event_line_bytes_are_pinned() {
        let mut job = queued(0);
        job.state = JobState::Done;
        (job.total, job.executed, job.cache_hits, job.failed, job.wall_s) = (8, 5, 3, 0, 1.25);
        let ok = done_line(7, &job);
        job.state = JobState::Failed;
        job.failed = 2;
        job.wall_s = 0.000_000_4;
        job.error = Some(String::from("worker panicked: \"boom\"\n"));
        let failed = done_line(7, &job);
        job.state = JobState::Cancelled;
        job.error = None;
        let cancelled = done_line(7, &job);
        assert_eq!([ok.as_str(), &failed, &cancelled], GOLDEN_DONE);

        fn progress<'a>(
            label: &'a str,
            outcome: Result<&'a temu_framework::PointSummary, &'a temu_framework::TemuError>,
        ) -> SweepProgress<'a> {
            SweepProgress { index: 2, completed: 3, total: 8, label, cache_hit: false, outcome }
        }
        let mut summary = pinned_summary();
        let with_peak = point_line(7, &progress("cores=2/\"x\"", Ok(&summary)));
        summary.peak_temp_k = Some(f64::INFINITY);
        let non_finite = point_line(7, &progress("cores=2", Ok(&summary)));
        summary.peak_temp_k = None;
        let without = point_line(7, &progress("cores=2", Ok(&summary)));
        let error = temu_framework::TemuError::ScenarioPanicked(String::from("bad\tpoint"));
        let failed = point_line(7, &progress("cores=0", Err(&error)));
        assert_eq!([with_peak.as_str(), &non_finite, &without, &failed], GOLDEN_POINT);
    }

    #[test]
    fn feed_stamps_events_with_a_seq() {
        let feed = ResultsFeed::new();
        feed.push(3, false, "{\"event\": \"start\", \"job\": 3, \"total\": 1}");
        feed.push(3, true, "{\"event\": \"done\", \"job\": 3}");
        let (events, done) = feed.collect_after(0, Some(3));
        assert!(done);
        let lines: Vec<&str> = events.iter().map(|(_, line)| line.as_str()).collect();
        assert_eq!(lines, GOLDEN_FEED);
    }

    #[test]
    fn follow_of_a_job_whose_events_left_the_feed_ends() {
        let server = Server::bind(ServeConfig { addr: String::from("127.0.0.1:0"), ..ServeConfig::default() })
            .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let shared = Arc::clone(&server.shared);
        // Job 1 finished; job 2's events then pushed its terminal event out.
        let mut done = queued(0);
        done.state = JobState::Done;
        shared.lock_jobs().map.insert(1, done);
        shared.publish_terminal(1, "{\"event\": \"done\", \"job\": 1}");
        for _ in 0..FEED_RETAIN {
            shared.feed.push(2, false, "{\"event\": \"point\", \"job\": 2}");
        }
        let handle = ServerHandle::spawn(addr, shared, move || server.run());
        let mut client = crate::Client::connect(&addr.to_string()).expect("connect");
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let mut events = 0;
            let cursor = client.results(0, true, Some(1), |_| events += 1).expect("stream ends with `end`");
            let _ = tx.send((cursor, events));
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok((0, 0)), "the follow ends with nothing to send");
        handle.shutdown();
    }

    /// Characters that stress the escaper (see `export.rs` in
    /// `temu-framework` for the writer's own property).
    const NASTY: &[char] =
        &['a', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '中', '😀'];

    fn nasty_string() -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(NASTY), 0..12)
            .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn frames_carrying_user_strings_parse_back(
            name in nasty_string(),
            label in nasty_string(),
            message in nasty_string(),
        ) {
            let server = Server::bind(ServeConfig {
                addr: String::from("127.0.0.1:0"),
                member: Some(name.clone()),
                ..ServeConfig::default()
            })
            .unwrap();
            let shared = &server.shared;
            let parse =
                |line: String| JsonValue::parse(&line).unwrap_or_else(|e| panic!("{e}: {line:?}"));
            let text =
                |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).map(String::from);

            let mut job = queued(0);
            job.name = name.clone();
            job.state = JobState::Failed;
            job.error = Some(message.clone());
            let done = parse(done_line(1, &job));
            prop_assert_eq!(text(&done, "error"), Some(message.clone()));
            shared.lock_jobs().map.insert(1, job);
            prop_assert_eq!(text(&parse(status_response(shared, 1)), "name"), Some(name.clone()));

            let error = temu_framework::TemuError::ScenarioPanicked(message.clone());
            let progress = SweepProgress {
                index: 0,
                completed: 1,
                total: 1,
                label: &label,
                cache_hit: false,
                outcome: Err(&error),
            };
            let point = parse(point_line(1, &progress));
            prop_assert_eq!(text(&point, "label"), Some(label.clone()));
            prop_assert_eq!(text(&point, "error"), Some(error.to_string()));

            prop_assert_eq!(text(&parse(stats_response(shared)), "member"), Some(name.clone()));
            prop_assert_eq!(text(&parse(metrics_response(shared)), "member"), Some(name.clone()));
        }
    }

    const GOLDEN_DONE: [&str; 3] = [
        "{\"event\": \"done\", \"job\": 7, \"ok\": true, \"points\": 8, \"executed\": 5, \"cache_hits\": 3, \"failed\": 0, \"wall_s\": 1.250000}",
        "{\"event\": \"done\", \"job\": 7, \"ok\": false, \"points\": 8, \"executed\": 5, \"cache_hits\": 3, \"failed\": 2, \"wall_s\": 0.000000, \"error\": \"worker panicked: \\\"boom\\\"\\n\"}",
        "{\"event\": \"done\", \"job\": 7, \"ok\": false, \"points\": 8, \"executed\": 5, \"cache_hits\": 3, \"failed\": 2, \"wall_s\": 0.000000, \"cancelled\": true}",
    ];
    const GOLDEN_POINT: [&str; 4] = [
        "{\"event\": \"point\", \"job\": 7, \"index\": 2, \"completed\": 3, \"total\": 8, \"label\": \"cores=2/\\\"x\\\"\", \"cache_hit\": false, \"ok\": true, \"peak_temp_k\": 351.251, \"windows\": 12, \"unconverged_substeps\": 3}",
        "{\"event\": \"point\", \"job\": 7, \"index\": 2, \"completed\": 3, \"total\": 8, \"label\": \"cores=2\", \"cache_hit\": false, \"ok\": true, \"windows\": 12, \"unconverged_substeps\": 3}",
        "{\"event\": \"point\", \"job\": 7, \"index\": 2, \"completed\": 3, \"total\": 8, \"label\": \"cores=2\", \"cache_hit\": false, \"ok\": true, \"windows\": 12, \"unconverged_substeps\": 3}",
        "{\"event\": \"point\", \"job\": 7, \"index\": 2, \"completed\": 3, \"total\": 8, \"label\": \"cores=0\", \"cache_hit\": false, \"ok\": false, \"error\": \"scenario panicked: bad\\tpoint\"}",
    ];
    const GOLDEN_FEED: [&str; 2] = [
        "{\"seq\": 1, \"event\": \"start\", \"job\": 3, \"total\": 1}",
        "{\"seq\": 2, \"event\": \"done\", \"job\": 3}",
    ];
}
