//! The job server: a bounded queue of sweep jobs drained by worker
//! threads into one process-wide [`ResultCache`].
//!
//! Architecture (all `std`, no external dependencies):
//!
//! * one **accept loop** ([`Server::run`]) spawning a thread per
//!   connection;
//! * a **bounded job queue** (`VecDeque` under the jobs mutex, refused at
//!   [`ServeConfig::queue_limit`]) drained by [`ServeConfig::workers`]
//!   worker threads;
//! * each job re-lowers its [`SweepSpec`] and executes through the
//!   ordinary [`Sweep`](temu_framework::Sweep) →
//!   [`Campaign`](temu_framework::Campaign) engine — the server is a
//!   transport in front of the experiment API, never a second execution
//!   path;
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
//! * every executed point is flushed to the store ([`ResultCache::sync`])
//!   once banked, so a job killed at point *k* restarts as *k* cache hits;
//! * one point observer per job sees each executed point's start (and,
//!   under `--window-checkpoint N`, every N-th window boundary): `cancel`
//!   stops a *running* job there, and it ends `cancelled`, never `failed`;
//! * a worker that panics (a scenario bug, or the `worker_panic` fault
//!   from [`crate::fault`]) fails only its own job with a typed error —
//!   the worker thread survives and keeps draining the queue;
//! * accepted connections carry read/write deadlines and a bounded frame
//!   reader ([`crate::protocol::read_frame`]), so a slowloris or garbage
//!   peer cannot pin a handler thread or buffer unbounded bytes.

use crate::checkpoints::CheckpointStore;
use crate::journal::Journal;
use crate::protocol::{coded_error_line, error_line, read_frame, ProtocolError, Request, MAX_FRAME_LEN};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use temu_framework::{
    json_escape, ArtifactCache, CheckpointDecision, EmulationState, ResultCache, SweepProgress,
    SweepSpec,
};

/// Server configuration (see the module docs).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port (the bound
    /// address is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads draining the job queue (each job additionally
    /// parallelizes its points through the campaign pool).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; further submissions are
    /// refused with a typed error response.
    pub queue_limit: usize,
    /// Optional JSON-lines path for the shared result cache
    /// ([`ResultCache::with_store`]); `None` keeps results in memory only.
    pub store: Option<PathBuf>,
    /// How many finished (done/failed/cancelled) jobs to keep queryable
    /// via `status`/`result`. Older terminal jobs are evicted so a
    /// long-running server's job registry stays bounded — their cached
    /// *results* live on in the shared [`ResultCache`].
    pub history_limit: usize,
    /// Job journal path. `None` derives `jobs.jsonl` next to the store
    /// (no journal at all when the cache is purely in-memory); an explicit
    /// path journals regardless of the store.
    pub journal: Option<PathBuf>,
    /// Read/write deadline on every accepted connection (`None` disables
    /// deadlines). A peer that stops sending mid-request or stops draining
    /// its event stream is disconnected instead of pinning a handler
    /// thread forever.
    pub io_timeout: Option<Duration>,
    /// Fleet member identity advertised in `stats` (the router labels its
    /// per-member breakdown with it); `None` omits the field.
    pub member: Option<String>,
    /// Persist each running point's serialized run state every N sampling
    /// windows (`<journal>.checkpoints.jsonl`, e.g. `jobs.checkpoints.jsonl`
    /// for the default journal), so a killed
    /// server resumes an in-flight point from its last window boundary
    /// instead of re-running it. 0 (the default) disables capture; resume
    /// *seeding* from an existing checkpoint file happens regardless, so
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
    /// [`metrics_log`](ServeConfig::metrics_log)).
    pub metrics_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: String::from(crate::protocol::DEFAULT_ADDR),
            workers: 1,
            queue_limit: 64,
            store: None,
            history_limit: 256,
            journal: None,
            io_timeout: Some(Duration::from_secs(30)),
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
        let stamped = format!("{{\"seq\": {seq}, {}", &line[1..]);
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
    /// The window-checkpoint store (present whenever the journal is) and
    /// the capture cadence (0 = record nothing; seeded resume still
    /// happens).
    checkpoints: Option<CheckpointStore>,
    window_every: u64,
    /// Mid-point run states recovered at bind time, waiting for their
    /// re-enqueued job to be claimed (the worker takes them out).
    resume_states: Mutex<HashMap<u64, Vec<EmulationState>>>,
    member: Option<String>,
    io_timeout: Option<Duration>,
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

    /// Sends `line` to the job's subscribers, dropping the ones that went
    /// away; a terminal line also detaches everyone (their receivers then
    /// disconnect, ending the client-side stream loop).
    fn broadcast(&self, job_id: u64, line: &str, terminal: bool) {
        let mut jobs = self.lock_jobs();
        if let Some(job) = jobs.map.get_mut(&job_id) {
            job.subscribers.retain(|tx| tx.send(line.to_string()).is_ok());
            if terminal {
                job.subscribers.clear();
            }
        }
    }
}

/// The terminal `done` event / non-terminal progress snapshot for a job.
fn done_line(job_id: u64, job: &Job) -> String {
    let mut line = format!(
        "{{\"event\": \"done\", \"job\": {job_id}, \"ok\": {}, \"points\": {}, \"executed\": {}, \"cache_hits\": {}, \"failed\": {}, \"wall_s\": {:.6}",
        job.state == JobState::Done && job.failed == 0,
        job.total,
        job.executed,
        job.cache_hits,
        job.failed,
        job.wall_s,
    );
    if let Some(e) = &job.error {
        line.push_str(&format!(", \"error\": \"{}\"", json_escape(e)));
    }
    if job.state == JobState::Cancelled {
        line.push_str(", \"cancelled\": true");
    }
    line.push('}');
    line
}

fn point_line(job_id: u64, p: &SweepProgress<'_>) -> String {
    let mut line = format!(
        "{{\"event\": \"point\", \"job\": {job_id}, \"index\": {}, \"completed\": {}, \"total\": {}, \"label\": \"{}\", \"cache_hit\": {}, \"ok\": {}",
        p.index,
        p.completed,
        p.total,
        json_escape(p.label),
        p.cache_hit,
        p.outcome.is_ok(),
    );
    match p.outcome {
        Ok(s) => {
            if let Some(peak) = s.peak_temp_k.filter(|t| t.is_finite()) {
                line.push_str(&format!(", \"peak_temp_k\": {peak:.3}"));
            }
            line.push_str(&format!(
                ", \"windows\": {}, \"unconverged_substeps\": {}",
                s.windows, s.unconverged_substeps
            ));
        }
        Err(e) => line.push_str(&format!(", \"error\": \"{}\"", json_escape(&e.to_string()))),
    }
    line.push('}');
    line
}

/// A bound, not-yet-running job server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread (see
/// [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server (idempotent): closes the queue, wakes the accept
    /// loop, and joins the server thread.
    pub fn shutdown(mut self) {
        request_shutdown(&self.shared, self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Flags the server down and unblocks its accept loop with a dummy
/// connection.
fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.cv.notify_all();
    // Followers of the results feed block on its condvar; wake them so
    // they observe the flag and end their streams.
    shared.feed.cv.notify_all();
    let _ = TcpStream::connect(addr);
}

impl Server {
    /// Binds the listen socket and opens the shared cache (loading any
    /// existing store entries).
    ///
    /// # Errors
    ///
    /// Any I/O error binding the address or opening the store.
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
        // The window-checkpoint store rides with the journal: replay it,
        // seed the recovered jobs' mid-point states, and compact away the
        // checkpoints of jobs that reached a terminal record. A state that
        // fails to decode (version skew, torn bytes) is dropped — its
        // point re-runs from scratch, which is correct, just slower. The
        // path derives from the *journal* (`jobs.jsonl` →
        // `jobs.checkpoints.jsonl`), not a fixed sibling name: records
        // are keyed by journal-local job ids, and fleet members sharing
        // one store directory run distinct journals — a shared
        // checkpoints file would mix their id spaces and race the
        // startup compaction's tmp+rename.
        let mut resume_states: HashMap<u64, Vec<EmulationState>> = HashMap::new();
        let checkpoints = match &journal {
            Some(journal) => {
                let path = journal.path().with_extension("checkpoints.jsonl");
                let (store, ck_replay) = CheckpointStore::open(&path)?;
                let pending: std::collections::HashSet<u64> =
                    replayed.pending.iter().map(|job| job.id).collect();
                for (&job, points) in &ck_replay.states {
                    if !pending.contains(&job) {
                        continue;
                    }
                    let states: Vec<EmulationState> = points
                        .values()
                        .filter_map(|(_, bytes)| EmulationState::from_bytes(bytes).ok())
                        .collect();
                    if !states.is_empty() {
                        resume_states.insert(job, states);
                    }
                }
                store.compact(&ck_replay, |job| pending.contains(&job))?;
                Some(store)
            }
            None => None,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            cache,
            artifacts: Arc::new(ArtifactCache::new()),
            journal,
            checkpoints,
            window_every: config.window_checkpoint,
            resume_states: Mutex::new(resume_states),
            member: config.member.clone(),
            io_timeout: config.io_timeout,
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
            metrics_interval: config.metrics_interval.max(Duration::from_millis(10)),
        });
        // Re-enqueue what the previous incarnation never finished — their
        // executed points are already cache entries, so a recovered job
        // resumes as cache hits plus the remaining grid.
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
            let mut jobs = shared.lock_jobs();
            jobs.map.insert(
                recovered.id,
                new_job(recovered.name, recovered.spec, total, recovered.priority),
            );
            jobs.queue.push_back(recovered.id);
            drop(jobs);
            shared.obs.jobs_recovered.inc();
        }
        Ok(Server { listener, shared })
    }

    /// Jobs the journal recovered at bind time (queued again, not yet
    /// counted as submitted).
    #[must_use]
    pub fn recovered_jobs(&self) -> u64 {
        self.shared.obs.jobs_recovered.get()
    }

    /// Mid-point run states recovered from the window-checkpoint store at
    /// bind time — points that will resume from a window boundary instead
    /// of re-running.
    #[must_use]
    pub fn recovered_checkpoints(&self) -> usize {
        self.shared
            .resume_states
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// The window-checkpoint store path, when active.
    #[must_use]
    pub fn checkpoints_path(&self) -> Option<&std::path::Path> {
        self.shared.checkpoints.as_ref().map(CheckpointStore::path)
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
        let addr = self.listener.local_addr().ok();
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
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                let _ = serve_connection(&shared, stream, addr);
            });
        }
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
            self.shared.feed.push(id, true, &line);
            self.shared.broadcast(id, &line, true);
            self.shared.lock_jobs().note_terminal(id, self.shared.history_limit);
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
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, shared, thread: Some(thread) })
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
                            if temu_obs::enabled() {
                                shared.obs.queue_wait_ns.record_duration(job.submitted.elapsed());
                            }
                            break Some((id, job.spec.clone(), Arc::clone(&job.cancel)));
                        }
                    }
                    continue;
                }
                jobs = shared.cv.wait(jobs).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((id, spec, cancel)) = claimed else { return };
        if let Some(journal) = &shared.journal {
            journal.record_start(id);
        }
        // A panicking job — a scenario bug past the campaign's own
        // isolation, or the `worker_panic` fault — fails that job with a
        // typed error; this worker thread survives to drain the queue.
        let run_started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, id, &spec, &cancel);
        }));
        if temu_obs::enabled() {
            shared.obs.run_ns.record_duration(run_started.elapsed());
        }
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

fn run_job(shared: &Arc<Shared>, id: u64, spec: &SweepSpec, cancel: &Arc<AtomicBool>) {
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
    shared.broadcast(id, &format!("{{\"event\": \"start\", \"job\": {id}, \"total\": {total}}}"), false);
    let progress_shared = Arc::clone(shared);
    let observer_shared = Arc::clone(shared);
    let observer_cancel = Arc::clone(cancel);
    let mut sweep = sweep.artifacts(Arc::clone(&shared.artifacts));
    // Seed recovered mid-point states: a point whose content key matches
    // resumes from its last window boundary; everything else (including a
    // state whose grid point changed across versions) builds fresh.
    let seeds = shared
        .resume_states
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&id)
        .unwrap_or_default();
    for state in seeds {
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
                if let Some(store) = &observer_shared.checkpoints {
                    store.record(id, cp.key, cp.windows, &state.to_bytes());
                }
                let line = format!(
                    "{{\"event\": \"point\", \"job\": {id}, \"index\": {}, \"label\": \"{}\", \"progress\": {{\"windows\": {}, \"total_windows\": {}}}}}",
                    cp.index,
                    json_escape(cp.label),
                    cp.windows,
                    cp.total_windows,
                );
                observer_shared.broadcast(id, &line, false);
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
            progress_shared.broadcast(id, &line, false);
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
    let line = {
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
        done_line(id, job)
    };
    match state {
        JobState::Done => shared.obs.jobs_completed.inc(),
        JobState::Cancelled => shared.obs.jobs_cancelled.inc(),
        _ => shared.obs.jobs_failed.inc(),
    };
    if let Some(journal) = &shared.journal {
        journal.record_terminal(id, state.tag());
    }
    shared.feed.push(id, true, &line);
    shared.broadcast(id, &line, true);
    shared.lock_jobs().note_terminal(id, shared.history_limit);
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

fn serve_connection(
    shared: &Arc<Shared>,
    stream: TcpStream,
    addr: Option<SocketAddr>,
) -> std::io::Result<()> {
    // The `drop_conn` fault: hang up before serving, as a crashing or
    // partitioned server would, leaving the client to retry.
    if crate::fault::drop_connection() {
        return Ok(());
    }
    stream.set_read_timeout(shared.io_timeout)?;
    stream.set_write_timeout(shared.io_timeout)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(line)) => line,
            // Clean EOF: the client is done with the connection.
            Ok(None) => return Ok(()),
            Err(e @ ProtocolError::FrameTooLong { .. }) => {
                // Typed refusal, then hang up: the rest of the oversized
                // line is still in flight and nothing after it can be
                // framed reliably.
                let refusal = format!(
                    "{{\"ok\": false, \"code\": \"frame_too_long\", \"limit\": {MAX_FRAME_LEN}, \"error\": \"{}\"}}",
                    json_escape(&e.to_string())
                );
                writeln!(writer, "{refusal}")?;
                return Ok(());
            }
            // Deadline elapsed or the socket failed: the peer is gone or
            // unresponsive — stop serving it (a live client reconnects).
            Err(_) => return Ok(()),
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                writeln!(writer, "{}", error_line(&e))?;
                continue;
            }
        };
        let cmd = match &request {
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Result { .. } => "result",
            Request::Cancel { .. } => "cancel",
            Request::Watch { .. } => "watch",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Results { .. } => "results",
            Request::Shutdown => "shutdown",
        };
        shared.obs.registry.counter(&format!("serve.req.{cmd}")).inc();
        match request {
            Request::Submit { spec, watch, priority } => {
                handle_submit(shared, &mut writer, *spec, watch, priority)?;
            }
            Request::Status { job } => writeln!(writer, "{}", status_response(shared, job))?,
            Request::Result { job } => writeln!(writer, "{}", result_response(shared, job))?,
            Request::Cancel { job } => writeln!(writer, "{}", cancel_response(shared, job))?,
            Request::Watch { job } => handle_watch(shared, &mut writer, job)?,
            Request::Stats => writeln!(writer, "{}", stats_response(shared))?,
            Request::Metrics => writeln!(writer, "{}", metrics_response(shared))?,
            Request::Results { after, follow, job } => {
                handle_results(shared, &mut writer, after, follow, job)?;
            }
            Request::Shutdown => {
                writeln!(writer, "{{\"ok\": true, \"shutdown\": true}}")?;
                if let Some(addr) = addr {
                    request_shutdown(shared, addr);
                }
                return Ok(());
            }
        }
        writer.flush()?;
    }
}

fn handle_submit(
    shared: &Arc<Shared>,
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
            writeln!(writer, "{}", error_line(&e.to_string()))?;
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
            writeln!(
                writer,
                "{}",
                coded_error_line(
                    "queue_full",
                    &format!("queue full ({} job(s) queued)", shared.queue_limit)
                )
            )?;
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
    writeln!(writer, "{{\"ok\": true, \"job\": {id}, \"total\": {total}}}")?;
    writer.flush()?;
    if let Some(rx) = rx {
        stream_events(writer, &rx)?;
    }
    Ok(())
}

/// Forwards queued event lines until the job's terminal event detaches
/// the sender side.
fn stream_events(writer: &mut TcpStream, rx: &Receiver<String>) -> std::io::Result<()> {
    while let Ok(line) = rx.recv() {
        writeln!(writer, "{line}")?;
        writer.flush()?;
    }
    Ok(())
}

enum WatchOutcome {
    Missing,
    AlreadyTerminal(String),
    Attached(Receiver<String>),
}

fn handle_watch(shared: &Arc<Shared>, writer: &mut TcpStream, job_id: u64) -> std::io::Result<()> {
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
    match outcome {
        WatchOutcome::Missing => writeln!(writer, "{}", error_line(&format!("no such job {job_id}"))),
        WatchOutcome::AlreadyTerminal(done) => {
            writeln!(writer, "{{\"ok\": true, \"job\": {job_id}}}")?;
            writeln!(writer, "{done}")
        }
        WatchOutcome::Attached(rx) => {
            writeln!(writer, "{{\"ok\": true, \"job\": {job_id}}}")?;
            writer.flush()?;
            stream_events(writer, &rx)
        }
    }
}

fn status_response(shared: &Arc<Shared>, job_id: u64) -> String {
    let jobs = shared.lock_jobs();
    match jobs.map.get(&job_id) {
        None => error_line(&format!("no such job {job_id}")),
        Some(job) => format!(
            "{{\"ok\": true, \"job\": {job_id}, \"name\": \"{}\", \"state\": \"{}\", \"priority\": {}, \"completed\": {}, \"total\": {}, \"executed\": {}, \"cache_hits\": {}, \"failed\": {}}}",
            json_escape(&job.name),
            job.state.tag(),
            job.priority,
            job.completed,
            job.total,
            job.executed,
            job.cache_hits,
            job.failed,
        ),
    }
}

fn result_response(shared: &Arc<Shared>, job_id: u64) -> String {
    let jobs = shared.lock_jobs();
    match jobs.map.get(&job_id) {
        None => error_line(&format!("no such job {job_id}")),
        Some(job) => match (&job.report_json, job.state) {
            (Some(report), _) => {
                format!(
                    "{{\"ok\": true, \"job\": {job_id}, \"state\": \"{}\", \"failed\": {}, \"report\": {report}}}",
                    job.state.tag(),
                    job.failed
                )
            }
            (None, state) => error_line(&format!("job {job_id} has no report (state: {})", state.tag())),
        },
    }
}

fn cancel_response(shared: &Arc<Shared>, job_id: u64) -> String {
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
                return format!("{{\"ok\": true, \"job\": {job_id}, \"cancelling\": true}}");
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
    shared.feed.push(job_id, true, &line);
    shared.broadcast(job_id, &line, true);
    shared.lock_jobs().note_terminal(job_id, shared.history_limit);
    format!("{{\"ok\": true, \"job\": {job_id}, \"cancelled\": true}}")
}

fn stats_response(shared: &Arc<Shared>) -> String {
    let (queue_depth, running) = {
        let jobs = shared.lock_jobs();
        let running = jobs.map.values().filter(|j| j.state == JobState::Running).count();
        (jobs.queue.len(), running)
    };
    let executed = shared.obs.points_executed.get();
    let hits = shared.obs.point_cache_hits.get();
    let served = executed + hits;
    let hit_rate = if served == 0 { 0.0 } else { hits as f64 / served as f64 };
    let member = match &shared.member {
        Some(name) => format!("\"member\": \"{}\", ", json_escape(name)),
        None => String::new(),
    };
    // The build-artifact layer: how much scenario construction the
    // process-wide cache absorbed, per layer, since the server started.
    let arts = shared.artifacts.stats();
    let art_served = arts.hits() + arts.misses();
    let art_rate = if art_served == 0 { 0.0 } else { arts.hits() as f64 / art_served as f64 };
    let artifacts = format!(
        "\"artifact_hit_rate\": {art_rate:.4}, \"artifact_floorplan_hits\": {}, \"artifact_floorplan_misses\": {}, \"artifact_mesh_hits\": {}, \"artifact_mesh_misses\": {}, \"artifact_operator_hits\": {}, \"artifact_operator_misses\": {}, \"artifact_program_hits\": {}, \"artifact_program_misses\": {}",
        arts.floorplan_hits,
        arts.floorplan_misses,
        arts.mesh_hits,
        arts.mesh_misses,
        arts.operator_hits,
        arts.operator_misses,
        arts.program_hits,
        arts.program_misses,
    );
    format!(
        "{{\"ok\": true, {member}\"jobs_submitted\": {}, \"jobs_completed\": {}, \"jobs_failed\": {}, \"jobs_cancelled\": {}, \"jobs_recovered\": {}, \"queue_depth\": {queue_depth}, \"running\": {running}, \"workers\": {}, \"queue_limit\": {}, \"points_executed\": {executed}, \"point_cache_hits\": {hits}, \"points_failed\": {}, \"cache_hit_rate\": {hit_rate:.4}, {artifacts}, \"cache_entries\": {}, \"store\": {}, \"journal\": {}}}",
        shared.obs.jobs_submitted.get(),
        shared.obs.jobs_completed.get(),
        shared.obs.jobs_failed.get(),
        shared.obs.jobs_cancelled.get(),
        shared.obs.jobs_recovered.get(),
        shared.workers,
        shared.queue_limit,
        shared.obs.points_failed.get(),
        shared.cache.len(),
        match shared.cache.store_path() {
            Some(path) => format!("\"{}\"", json_escape(&path.display().to_string())),
            None => String::from("null"),
        },
        match shared.journal.as_ref().map(|j| j.path().display().to_string()) {
            Some(path) => format!("\"{}\"", json_escape(&path)),
            None => String::from("null"),
        },
    )
}

/// A point-in-time metrics snapshot: the process-wide registry (solver,
/// core, store instrumentation) merged with the server's own (job and
/// point counters, request counters, latency histograms; server values
/// win a name collision). Point-in-time gauges are refreshed first.
fn metrics_snapshot(shared: &Arc<Shared>) -> temu_obs::Snapshot {
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

fn metrics_response(shared: &Arc<Shared>) -> String {
    let member = match &shared.member {
        Some(name) => format!("\"member\": \"{}\", ", json_escape(name)),
        None => String::new(),
    };
    format!("{{\"ok\": true, {member}{}}}", metrics_snapshot(shared).to_json_fields())
}

/// Serves one `results` request: ack with the current cursor and
/// retention horizon, replay retained events past `after`, then (under
/// `follow`) block for new events until the job filter's terminal event,
/// the client hangs up, or the server shuts down. Every stream ends with
/// an `end` event carrying the cursor to resume from.
fn handle_results(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    after: u64,
    follow: bool,
    job: Option<u64>,
) -> std::io::Result<()> {
    writeln!(
        writer,
        "{{\"ok\": true, \"cursor\": {}, \"earliest_retained\": {}}}",
        shared.feed.cursor(),
        shared.feed.earliest_retained(),
    )?;
    writer.flush()?;
    let mut cursor = after;
    loop {
        let (events, job_done) = shared.feed.collect_after(cursor, job);
        for (seq, line) in events {
            cursor = seq;
            writeln!(writer, "{line}")?;
        }
        writer.flush()?;
        if job_done || !follow || shared.shutdown.load(Ordering::SeqCst) {
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
    writeln!(writer, "{{\"event\": \"end\", \"cursor\": {cursor}}}")?;
    writer.flush()
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
        let line = format!(
            "{{\"seq\": {seq}, \"unix_ms\": {unix_ms}, {}}}\n",
            metrics_snapshot(shared).to_json_fields()
        );
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
}
