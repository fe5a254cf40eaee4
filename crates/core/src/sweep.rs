//! Cartesian design-space sweeps over [`Scenario`] axes, with content-keyed
//! result caching — the batching layer the paper's "fast design-space
//! exploration" claim turns into an API.
//!
//! A [`Sweep`] starts from one base scenario and takes any number of
//! **axes** — core counts, DFS frequency ladders or threshold bands, mesh
//! resolutions ([`GridConfig`]), workloads, implicit-solver choices, run
//! budgets, or arbitrary custom knobs — and expands their cartesian product
//! into one [`Campaign`] run. Results come back as a [`SweepReport`] keyed
//! by grid point (one row per parameter combination, labelled
//! `axis=value/axis=value/…`), with JSON/CSV export.
//!
//! ```no_run
//! use temu_framework::{ResultCache, Scenario, Sweep};
//!
//! let cache = ResultCache::in_memory();
//! let sweep = || {
//!     Sweep::new("ladder-study", Scenario::paper_fig6_unmanaged())
//!         .cores(&[2, 4])
//!         .dfs_bands(&[(350.0, 340.0), (345.0, 335.0)], 500_000_000, 100_000_000)
//! };
//! let report = sweep().run_cached(&cache);
//! println!("{}", report.to_csv());
//! // Re-running the identical sweep executes zero scenarios:
//! let rerun = sweep().run_cached(&cache);
//! assert_eq!(rerun.executed, 0);
//! assert_eq!(rerun.cache_hits, 4);
//! ```
//!
//! # Caching
//!
//! Every grid point is identified by [`Scenario::content_key`] — a stable
//! FNV-1a hash of the scenario's canonical configuration (platform,
//! floorplan, workload, grid/solver, power, link, DFS policy, budget, fit
//! gate; *not* its display name). A [`ResultCache`] memoizes the
//! [`PointSummary`] per key in process, and optionally persists it to an
//! on-disk store ([`ResultCache::with_store`]) so re-runs of a
//! sweep — including across processes, or sweeps that merely overlap — are
//! incremental: cached points are reported without executing their
//! scenarios. Failed points are never cached (they re-run until they
//! succeed).
//!
//! # Streaming progress
//!
//! [`Sweep::on_progress`] installs a sink that is called once per grid
//! point — cache hits first, then executed points in completion order off
//! the campaign's worker threads — so a long sweep reports incrementally
//! instead of only at the join (see [`SweepProgress`]).
//!
//! # Observing, cancelling and resuming points
//!
//! [`Sweep::on_point`] installs one point observer, called on the worker
//! at each executed point's start and every N windows inside it with the
//! boundary's [`EmulationState`]; its [`CheckpointDecision::Cancel`]
//! stops that point and every later one. [`Sweep::resume_point`] seeds a
//! point with such a state. Every executed point — fresh or resumed,
//! observed or not — runs through one point runner and one [`Scenario`]
//! spine.
//!
//! # Error containment
//!
//! A sweep-generated bad grid point (say, an inverted DFS hysteresis band
//! from [`Sweep::dfs_bands`]) surfaces as that point's typed [`TemuError`]
//! in its slot of the report — never as a panic, and without aborting its
//! sibling points.

use crate::artifacts::{ArtifactCache, ArtifactStats};
use crate::campaign::{Campaign, PointRunner};
use crate::emulation::{EmulationState, ThermalEmulation};
use crate::error::TemuError;
use crate::export::{csv_f64, csv_field, csv_opt, JsonObject, JsonValue};
use crate::scenario::{RunBudget, Scenario, ScenarioRun, Workload};
use crate::spec::solve_tag;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use temu_platform::{DfsBand, DfsPolicy};
use temu_state::AppendLog;
use temu_thermal::{GridConfig, ImplicitSolve};

pub use temu_state::{fnv1a64, fnv1a64_fold};

// ---------------------------------------------------------------------------
// Point summaries (the cacheable unit)
// ---------------------------------------------------------------------------

/// The scalar outcome of one sweep point: what a design-space comparison
/// actually consumes (and what the cache stores) — run totals, the Fig. 6
/// thermal headline numbers, the per-frequency DFS residency and the
/// solver-convergence accounting. When the full [`ScenarioRun`] (trace
/// included) is needed, run the point through a plain [`Campaign`].
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub struct PointSummary {
    /// Sampling windows executed.
    pub windows: u64,
    /// Virtual seconds emulated.
    pub virtual_s: f64,
    /// Modeled FPGA (physical) seconds.
    pub fpga_s: f64,
    /// Host wall seconds of the original execution (a cache hit reports
    /// the time the point took when it actually ran).
    pub wall_s: f64,
    /// Whether every core halted.
    pub all_halted: bool,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Hottest temperature ever reached, K.
    pub peak_temp_k: Option<f64>,
    /// Final maximum temperature, K.
    pub final_temp_k: Option<f64>,
    /// Fraction of windows below the top observed frequency.
    pub throttled_fraction: f64,
    /// Virtual seconds at each observed clock frequency, fastest first
    /// ([`crate::ThermalTrace::time_at_hz`]).
    pub time_at_hz: Vec<(u64, f64)>,
    /// Implicit substeps accepted unconverged (non-zero = suspect data).
    pub unconverged_substeps: u64,
    /// Worst unconverged residual, K.
    pub worst_residual_k: f64,
}

impl PointSummary {
    fn from_run(run: &ScenarioRun, wall: Duration) -> PointSummary {
        PointSummary {
            windows: run.report.windows,
            virtual_s: run.report.virtual_seconds,
            fpga_s: run.report.fpga_seconds,
            wall_s: wall.as_secs_f64(),
            all_halted: run.report.all_halted,
            instructions: run.report.aggregate.total_instructions(),
            peak_temp_k: run.trace.peak_temp(),
            final_temp_k: run.trace.final_temp(),
            throttled_fraction: run.trace.throttled_fraction(),
            time_at_hz: run.trace.time_at_hz(),
            unconverged_substeps: run.report.solver.unconverged_substeps,
            worst_residual_k: run.report.solver.worst_residual_k,
        }
    }

    /// Appends the summary's fields to `row` — shared between the report
    /// export and the disk store.
    fn write_fields(&self, row: JsonObject) -> JsonObject {
        row.raw("windows", self.windows)
            .num("virtual_s", self.virtual_s, 6)
            .num("fpga_s", self.fpga_s, 6)
            .num("wall_s", self.wall_s, 6)
            .raw("all_halted", self.all_halted)
            .raw("instructions", self.instructions)
            .num("peak_temp_k", self.peak_temp_k, 3)
            .num("final_temp_k", self.final_temp_k, 3)
            .num("throttled_fraction", self.throttled_fraction, 4)
            .str("time_at_hz", &self.residency_field())
            .raw("unconverged_substeps", self.unconverged_substeps)
            .num("worst_residual_k", self.worst_residual_k, 9)
    }

    /// The residency encoded as space-separated `hz:seconds` pairs — one
    /// CSV/JSON string field instead of a nested structure.
    fn residency_field(&self) -> String {
        self.time_at_hz.iter().map(|(hz, s)| format!("{hz}:{s:.6}")).collect::<Vec<_>>().join(" ")
    }

    fn parse_residency(s: &str) -> Vec<(u64, f64)> {
        s.split_whitespace()
            .filter_map(|pair| {
                let (hz, secs) = pair.split_once(':')?;
                Some((hz.parse().ok()?, secs.parse().ok()?))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The result cache
// ---------------------------------------------------------------------------

/// The store file's magic: format 2, the checksummed append log.
const STORE_MAGIC: [u8; 8] = *b"temuSTO2";
/// Compaction trigger: minimum record + damaged runs replayed at load
/// before the dead-fraction rule applies (tiny stores are never worth
/// rewriting).
const COMPACT_MIN_RECORDS: usize = 64;
/// Compaction trigger: fraction of dead runs (duplicate records + damaged
/// ones) above which the store is rewritten deduped at load.
const COMPACT_DEAD_FRACTION: f64 = 0.25;

struct CacheInner {
    mem: Mutex<HashMap<u64, PointSummary>>,
    store: Option<Mutex<AppendLog>>,
    path: Option<PathBuf>,
}

/// A content-keyed memo of sweep-point results: [`Scenario::content_key`] →
/// [`PointSummary`].
///
/// The cache is a cheaply-cloneable handle (clones share the same state),
/// so one cache can serve many sweeps — overlapping grids skip their
/// shared points. [`ResultCache::with_store`] additionally persists every
/// insert to an on-disk store (a binary append log of flat JSON records)
/// and pre-loads existing entries, making sweep re-runs incremental
/// across processes.
#[derive(Clone)]
pub struct ResultCache {
    inner: Arc<CacheInner>,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .field("store", &self.inner.path)
            .finish()
    }
}

impl ResultCache {
    /// An empty in-process cache (no disk store).
    #[must_use]
    pub fn in_memory() -> ResultCache {
        ResultCache {
            inner: Arc::new(CacheInner { mem: Mutex::new(HashMap::new()), store: None, path: None }),
        }
    }

    /// A cache backed by an on-disk store: existing entries at `path` are
    /// loaded, and every new insert is appended.
    ///
    /// The store is a [`temu_state::AppendLog`] (magic `temuSTO2`) of flat
    /// `{"key": …}` JSON records, safe to share between concurrent writers
    /// (threads of one server, or processes appending to one file); a torn
    /// or corrupted record costs only itself. When loading finds the file
    /// mostly dead — duplicate and damaged records over
    /// `COMPACT_DEAD_FRACTION` of at least `COMPACT_MIN_RECORDS` runs —
    /// it is rewritten deduped; a failed rewrite degrades to the dirty
    /// store. Rename caveat: a *concurrent* writer still holding the old
    /// file moves to the new one at its next [`ResultCache::refresh`] (every
    /// miss runs one), which replays the compacted store from its first
    /// record. What it appended in between went to the unlinked file, so
    /// the others re-execute those points on miss.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the store, and
    /// [`std::io::ErrorKind::InvalidData`] naming the file for a store in an
    /// older format: it fails closed, and as it is only a cache, moving it
    /// aside loses nothing.
    pub fn with_store(path: impl AsRef<Path>) -> std::io::Result<ResultCache> {
        let path = path.as_ref().to_path_buf();
        let (mut log, replay) = AppendLog::open(&path, STORE_MAGIC)?;
        let mem: HashMap<u64, PointSummary> =
            replay.records.iter().filter_map(|r| ResultCache::decode(r)).collect();
        let total = replay.records.len() + replay.skipped;
        let dead = total - mem.len();
        #[allow(clippy::cast_precision_loss)]
        if total >= COMPACT_MIN_RECORDS && dead as f64 > total as f64 * COMPACT_DEAD_FRACTION {
            // Sorted by the zero-padded key the records open with.
            let mut records: Vec<String> = mem.iter().map(|(&k, s)| ResultCache::encode(k, s)).collect();
            records.sort_unstable();
            let _ = log.rewrite(&records);
        }
        Ok(ResultCache {
            inner: Arc::new(CacheInner {
                mem: Mutex::new(mem),
                store: Some(Mutex::new(log)),
                path: Some(path),
            }),
        })
    }

    /// Number of cached points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.mem.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The on-disk store path, when persistent.
    #[must_use]
    pub fn store_path(&self) -> Option<&Path> {
        self.inner.path.as_deref()
    }

    /// Flushes the on-disk store to stable storage (`fdatasync`); a no-op
    /// for in-memory caches. Inserts already reach the OS in one
    /// `O_APPEND` write each, so this only matters for surviving machine
    /// (not process) crashes — the natural call site is a progress sink,
    /// after each executed point was inserted.
    pub fn sync(&self) {
        if let Some(store) = &self.inner.store {
            let _ = store.lock().unwrap_or_else(std::sync::PoisonError::into_inner).sync();
        }
    }

    /// Looks a content key up. On a persistent cache, a miss first pulls
    /// in anything other writers appended to the store file since the last
    /// read ([`ResultCache::refresh`]) — so processes sharing one store
    /// (fleet members, say) see each other's results without restarting.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<PointSummary> {
        let hit = self
            .inner
            .mem
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
            .cloned();
        if hit.is_some() || self.inner.store.is_none() {
            return hit;
        }
        self.refresh();
        self.inner.mem.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key).cloned()
    }

    /// Decodes any records appended to the store file since the last load
    /// or refresh into memory (existing in-memory entries win). A
    /// concurrent writer's half-append is left for the next refresh
    /// ([`temu_state::AppendLog::read_new`]). Returns the number of keys
    /// that were new to this handle; 0 for in-memory caches (and on any
    /// read error, which degrades to a plain miss).
    pub fn refresh(&self) -> usize {
        let Some(store) = &self.inner.store else { return 0 };
        let Ok(records) = store.lock().unwrap_or_else(std::sync::PoisonError::into_inner).read_new()
        else {
            return 0;
        };
        let mut mem = self.inner.mem.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut new = 0usize;
        for (key, summary) in records.iter().filter_map(|r| ResultCache::decode(r)) {
            if let std::collections::hash_map::Entry::Vacant(slot) = mem.entry(key) {
                slot.insert(summary);
                new += 1;
            }
        }
        new
    }

    /// Memoizes one point (and appends it to the disk store, if any; a
    /// store write failure degrades to in-memory caching rather than
    /// failing the sweep). The store append is one record in a single
    /// `O_APPEND` write, so concurrent writers — threads or whole
    /// processes — never interleave records.
    pub fn insert(&self, key: u64, summary: PointSummary) {
        let fresh = self
            .inner
            .mem
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, summary.clone())
            .is_none();
        if fresh {
            if let Some(store) = &self.inner.store {
                let record = ResultCache::encode(key, &summary);
                let s = store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let _ = s.append(record.as_bytes());
            }
        }
    }

    /// One store record: a flat JSON object keyed by the content key.
    fn encode(key: u64, summary: &PointSummary) -> String {
        summary.write_fields(JsonObject::line().str("key", &format!("{key:016x}"))).finish()
    }

    /// Decodes one store record; `None` when it is not one.
    fn decode(payload: &[u8]) -> Option<(u64, PointSummary)> {
        let obj = JsonValue::parse(std::str::from_utf8(payload).ok()?).ok()?;
        let key = u64::from_str_radix(obj.get("key")?.as_str()?, 16).ok()?;
        let num = |name: &str| obj.get(name).and_then(JsonValue::as_f64);
        let int = |name: &str| obj.get(name).and_then(JsonValue::as_u64);
        let summary = PointSummary {
            windows: int("windows")?,
            virtual_s: num("virtual_s")?,
            fpga_s: num("fpga_s")?,
            wall_s: num("wall_s")?,
            all_halted: obj.get("all_halted")?.as_bool()?,
            instructions: int("instructions")?,
            peak_temp_k: num("peak_temp_k"),
            final_temp_k: num("final_temp_k"),
            throttled_fraction: num("throttled_fraction")?,
            time_at_hz: PointSummary::parse_residency(obj.get("time_at_hz")?.as_str()?),
            unconverged_substeps: int("unconverged_substeps")?,
            worst_residual_k: num("worst_residual_k").unwrap_or(0.0),
        };
        Some((key, summary))
    }
}

// ---------------------------------------------------------------------------
// Axes and the sweep builder
// ---------------------------------------------------------------------------

type Applier = Arc<dyn Fn(Scenario) -> Result<Scenario, TemuError> + Send + Sync>;

#[derive(Clone)]
struct AxisValue {
    label: String,
    apply: Applier,
}

#[derive(Clone)]
struct Axis {
    name: String,
    values: Vec<AxisValue>,
}

/// A streaming per-point sink (see [`Sweep::on_progress`]).
pub type SweepSink = dyn Fn(&SweepProgress<'_>) + Send + Sync;

/// What a [`Sweep::on_point`] observer tells the sweep to do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointDecision {
    /// Keep running this point and the rest of the grid.
    Continue,
    /// Stop: the observed point ends as [`TemuError::Cancelled`] (at its
    /// start) or [`TemuError::CancelledMidPoint`] (at a window boundary),
    /// no later point starts, points already running elsewhere finish
    /// (and stay cached), and [`SweepReport::cancelled`] is set.
    Cancel,
}

/// A point's position when the [`Sweep::on_point`] observer runs: at the
/// start of an executed point, or at a window boundary inside it.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct PointCheckpoint<'a> {
    /// Grid-point index (the point's slot in [`SweepReport::points`]).
    pub index: usize,
    /// The point's `axis=value/…` label.
    pub label: &'a str,
    /// The point's scenario content key (the cache/journal key).
    pub key: u64,
    /// Sampling windows the point has executed so far (at the start: 0,
    /// or the window a seeded resume continues from).
    pub windows: u64,
    /// The point's window budget (`max_windows` for a to-halt run, which
    /// may halt earlier).
    pub total_windows: u64,
    /// `None` at the point's start; at a window boundary, the run state
    /// of that boundary — persist [`EmulationState::to_bytes`] to make
    /// the point resumable from here (see [`Sweep::resume_point`]).
    pub state: Option<&'a EmulationState>,
}

/// The point observer installed by [`Sweep::on_point`].
type PointHook = dyn Fn(&PointCheckpoint<'_>) -> CheckpointDecision + Send + Sync;

/// One finished (or cache-served) sweep point, delivered to a
/// [`Sweep::on_progress`] sink while the rest of the grid is still
/// running.
#[derive(Debug)]
pub struct SweepProgress<'a> {
    /// Grid-point index (the point's slot in [`SweepReport::points`]).
    pub index: usize,
    /// Points finished so far, this one included (1, 2, …, `total` across
    /// sink invocations).
    pub completed: usize,
    /// Points in the whole grid.
    pub total: usize,
    /// The point's `axis=value/…` label.
    pub label: &'a str,
    /// Whether the result came from the cache (no scenario executed).
    pub cache_hit: bool,
    /// The point's summary, or the typed error that stopped it.
    pub outcome: Result<&'a PointSummary, &'a TemuError>,
}

/// A cartesian parameter grid over [`Scenario`] axes (see the module
/// docs).
#[derive(Clone)]
pub struct Sweep {
    name: String,
    base: Scenario,
    axes: Vec<Axis>,
    threads: Option<usize>,
    sink: Option<Arc<SweepSink>>,
    observer: Option<(u64, Arc<PointHook>)>,
    resume: HashMap<u64, EmulationState>,
    artifacts: Option<Arc<ArtifactCache>>,
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axes: Vec<String> = self.axes.iter().map(|a| format!("{}×{}", a.name, a.values.len())).collect();
        f.debug_struct("Sweep")
            .field("name", &self.name)
            .field("axes", &axes)
            .field("points", &self.n_points())
            .finish()
    }
}

impl Sweep {
    /// A sweep of `base` with no axes yet (one grid point: the base
    /// itself).
    pub fn new(name: impl Into<String>, base: Scenario) -> Sweep {
        Sweep {
            name: name.into(),
            base,
            axes: Vec::new(),
            threads: None,
            sink: None,
            observer: None,
            resume: HashMap::new(),
            artifacts: None,
        }
    }

    /// The sweep's name (prefixed onto every point's scenario name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of grid points the current axes expand to.
    #[must_use]
    pub fn n_points(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Adds a custom axis: one grid dimension named `name`, taking each
    /// value in `params`. `label` renders a parameter for point labels;
    /// `apply` folds it into the point's scenario — returning an error
    /// marks that grid point (and only it) failed with a typed
    /// [`TemuError`].
    pub fn axis<P, L, F>(mut self, name: impl Into<String>, params: Vec<P>, label: L, apply: F) -> Sweep
    where
        P: Send + Sync + 'static,
        L: Fn(&P) -> String,
        F: Fn(Scenario, &P) -> Result<Scenario, TemuError> + Send + Sync + Clone + 'static,
    {
        let values = params
            .into_iter()
            .map(|p| {
                let label = label(&p);
                let apply = apply.clone();
                AxisValue { label, apply: Arc::new(move |s| apply(s, &p)) }
            })
            .collect();
        self.axes.push(Axis { name: name.into(), values });
        self
    }

    /// A `cores` axis: each point is retargeted with [`Scenario::cores`].
    pub fn cores(self, cores: &[usize]) -> Sweep {
        self.axis("cores", cores.to_vec(), ToString::to_string, |s, &n| Ok(s.cores(n)))
    }

    /// A DFS-policy axis over pre-built frequency ladders (`None` =
    /// unmanaged). Labels come from [`DfsPolicy::label`].
    pub fn dfs_policies(self, policies: Vec<Option<DfsPolicy>>) -> Sweep {
        self.axis(
            "dfs",
            policies,
            |p| p.as_ref().map_or_else(|| String::from("none"), DfsPolicy::label),
            |s, p| {
                Ok(match p {
                    Some(p) => s.policy(p.clone()),
                    None => s.no_policy(),
                })
            },
        )
    }

    /// A DFS threshold axis: each `(hot_k, cool_k)` pair becomes the
    /// classic two-level policy between `high_hz` and `low_hz`. The
    /// policy is constructed **per grid point**, so an inverted pair
    /// surfaces as that point's typed [`TemuError::Platform`] instead of
    /// a panic.
    pub fn dfs_bands(self, bands: &[(f64, f64)], high_hz: u64, low_hz: u64) -> Sweep {
        self.axis(
            "dfs",
            bands.to_vec(),
            |(hot, cool)| format!("{hot:.0}/{cool:.0}"),
            move |s, &(hot, cool)| Ok(s.policy(DfsPolicy::new(hot, cool, high_hz, low_hz)?)),
        )
    }

    /// A multi-level DFS ladder axis built per point from shared
    /// frequency levels and per-point hysteresis band sets — a malformed
    /// ladder surfaces as that point's typed error.
    pub fn dfs_ladders(self, levels_hz: Vec<u64>, band_sets: Vec<Vec<DfsBand>>) -> Sweep {
        self.axis(
            "dfs",
            band_sets,
            |bands| {
                bands.iter().map(|b| format!("{:.0}/{:.0}", b.hot_k, b.cool_k)).collect::<Vec<_>>().join("+")
            },
            move |s, bands| Ok(s.policy(DfsPolicy::ladder(&levels_hz, bands)?)),
        )
    }

    /// A mesh-resolution axis: named [`GridConfig`]s (the names label the
    /// points).
    pub fn meshes(self, meshes: Vec<(String, GridConfig)>) -> Sweep {
        self.axis("mesh", meshes, |(name, _)| name.clone(), |s, (_, grid)| Ok(s.grid(*grid)))
    }

    /// A workload axis; labels come from [`Workload::label`].
    pub fn workloads(self, workloads: Vec<Workload>) -> Sweep {
        self.axis("workload", workloads, Workload::label, |s, w| Ok(s.workload(w.clone())))
    }

    /// An implicit-solver axis (`gs`, `mg`, `auto`).
    pub fn implicit_solves(self, solves: &[ImplicitSolve]) -> Sweep {
        self.axis(
            "solver",
            solves.to_vec(),
            |&s| String::from(solve_tag(s)),
            |s, &solve| Ok(s.implicit_solve(solve)),
        )
    }

    /// A run-budget axis: each point runs exactly `n` sampling windows.
    pub fn windows(self, windows: &[u64]) -> Sweep {
        self.axis("windows", windows.to_vec(), |n| format!("{n}w"), |s, &n| Ok(s.windows(n)))
    }

    /// Sets the campaign worker-thread count for executed points.
    pub fn threads(mut self, threads: usize) -> Sweep {
        self.threads = Some(threads);
        self
    }

    /// Shares a build-artifact cache with this sweep (e.g. a process-wide
    /// cache serving many sweeps). Without this call every run uses its
    /// own fresh [`ArtifactCache`] — artifact reuse *within* a sweep is
    /// always on; this widens it *across* sweeps.
    pub fn artifacts(mut self, artifacts: Arc<ArtifactCache>) -> Sweep {
        self.artifacts = Some(artifacts);
        self
    }

    /// Installs a streaming per-point sink: cache hits and malformed
    /// points are delivered first, then executed points in completion
    /// order. Invocations are serialized, with
    /// [`SweepProgress::completed`] counting 1..=total.
    pub fn on_progress(mut self, sink: impl Fn(&SweepProgress<'_>) + Send + Sync + 'static) -> Sweep {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// Installs the point observer: called on the worker thread executing
    /// a point, once at the point's start (`state: None`) and then every
    /// `every` sampling windows inside it with that boundary's
    /// serializable [`EmulationState`] — persist its
    /// [`EmulationState::to_bytes`] and a killed sweep resumes the point
    /// mid-run via [`Sweep::resume_point`]. `every = 0` means start calls
    /// only, and then no state is ever captured. Cache-served points are
    /// never observed.
    ///
    /// Returning [`CheckpointDecision::Cancel`] ends the observed point —
    /// as [`TemuError::Cancelled`] at its start, as
    /// [`TemuError::CancelledMidPoint`] (carrying the windows it had
    /// executed) at a window boundary — and cancels the sweep: no later
    /// point starts, and each lands in the report as
    /// [`TemuError::Cancelled`] with [`SweepReport::cancelled`] set.
    /// Neither kind counts as a failure.
    pub fn on_point(
        mut self,
        every: u64,
        hook: impl Fn(&PointCheckpoint<'_>) -> CheckpointDecision + Send + Sync + 'static,
    ) -> Sweep {
        self.observer = Some((every, Arc::new(hook)));
        self
    }

    /// Seeds the sweep with a mid-run checkpoint: the grid point whose
    /// scenario content key matches `state` (captured by an
    /// [`Sweep::on_point`] observer of an earlier, interrupted run)
    /// resumes from that window boundary instead of starting over,
    /// and its report is bitwise-identical to an uninterrupted run. Points
    /// with no seeded state build fresh as usual; a state whose key
    /// matches no grid point is ignored.
    pub fn resume_point(mut self, state: EmulationState) -> Sweep {
        self.resume.insert(state.scenario_key(), state);
        self
    }

    /// Expands the cartesian grid without running anything: one
    /// [`SweepPoint`] per combination, first axis slowest-varying (the
    /// order [`SweepReport::points`] uses). Useful for inspecting point
    /// counts, labels and content keys up front.
    #[must_use]
    pub fn expand(&self) -> Vec<SweepPoint> {
        let total = self.n_points();
        let mut points = Vec::with_capacity(total);
        for i in 0..total {
            let mut label = String::new();
            let mut scenario: Result<Scenario, TemuError> = Ok(self.base.clone());
            let mut stride = total;
            for axis in &self.axes {
                stride /= axis.values.len();
                let value = &axis.values[(i / stride) % axis.values.len()];
                if !label.is_empty() {
                    label.push('/');
                }
                label.push_str(&axis.name);
                label.push('=');
                label.push_str(&value.label);
                scenario = scenario.and_then(|s| (value.apply)(s));
            }
            let scenario = scenario.map(|s| s.name(format!("{}/{label}", self.name)));
            let key = scenario.as_ref().ok().map(Scenario::content_key);
            points.push(SweepPoint { index: i, label, key, scenario });
        }
        points
    }

    /// Runs the sweep without caching (every point executes).
    pub fn run(&self) -> SweepReport {
        self.run_with(None)
    }

    /// Runs the sweep against a [`ResultCache`]: points whose content key
    /// is already cached are reported (and streamed) without executing
    /// their scenario; fresh points run through one [`Campaign`] and are
    /// inserted into the cache as they finish.
    pub fn run_cached(&self, cache: &ResultCache) -> SweepReport {
        self.run_with(Some(cache))
    }

    /// Resolves, executes and assembles the grid: [`Sweep::resolve`]
    /// settles every point that needs no execution, [`Sweep::execute`]
    /// runs the rest through one campaign, and [`assemble`] puts the
    /// results back in grid order.
    fn run_with(&self, cache: Option<&ResultCache>) -> SweepReport {
        let t0 = Instant::now();
        // Build-artifact reuse is always on within a sweep; an injected
        // cache ([`Sweep::artifacts`]) widens it across sweeps, and the
        // report's stats are the delta this run contributed.
        let artifacts = self.artifacts.clone().unwrap_or_else(|| Arc::new(ArtifactCache::new()));
        let artifact_base = artifacts.stats();
        let total = self.n_points();
        let progress = Arc::new(Progress { sink: self.sink.clone(), total, completed: Mutex::new(0) });
        // Finished points in arbitrary order. (No pre-sized Option slots:
        // report assembly must be panic-free — a long-running server
        // survives any malformed point.)
        let mut filled = Vec::with_capacity(total);
        let queue = self.resolve(cache, &progress, &mut filled);
        let cache_hits = filled.iter().filter(|(_, p)| p.cache_hit).count();
        let (executed, cancelled, threads) = self.execute(queue, cache, &artifacts, &progress, &mut filled);
        let points = assemble(filled, total);
        SweepReport {
            name: self.name.clone(),
            threads,
            wall: t0.elapsed(),
            executed,
            cache_hits,
            cancelled,
            artifacts: artifacts.stats().delta_since(&artifact_base),
            points,
        }
    }

    /// Settles every point that needs no execution — malformed grid
    /// points and cache hits — streaming each to the sink up front, and
    /// returns the rest, queued for [`Sweep::execute`].
    fn resolve(
        &self,
        cache: Option<&ResultCache>,
        progress: &Progress,
        filled: &mut Vec<(usize, SweepPointResult)>,
    ) -> Vec<(PointId, Scenario)> {
        let mut queue = Vec::new();
        for point in self.expand() {
            let mut id = PointId { index: point.index, label: point.label, key: point.key };
            match point.scenario {
                Err(e) => {
                    progress.emit(&id, false, Err(&e));
                    filled.push(id.result(false, Err(e)));
                }
                Ok(scenario) => {
                    let key = *id.key.get_or_insert_with(|| scenario.content_key());
                    match cache.and_then(|c| c.get(key)) {
                        Some(summary) => {
                            progress.emit(&id, true, Ok(&summary));
                            filled.push(id.result(true, Ok(summary)));
                        }
                        None => queue.push((id, scenario)),
                    }
                }
            }
        }
        queue
    }

    /// Runs the queued points through one [`Campaign`] and its
    /// [`Sweep::point_runner`], memoizing each summary as it lands and
    /// streaming it to the sink. Returns `(executed, cancelled, threads)`;
    /// `executed` leaves out points cancelled before they started.
    fn execute(
        &self,
        queue: Vec<(PointId, Scenario)>,
        cache: Option<&ResultCache>,
        artifacts: &Arc<ArtifactCache>,
        progress: &Arc<Progress>,
        filled: &mut Vec<(usize, SweepPointResult)>,
    ) -> (usize, bool, usize) {
        let (ids, scenarios): (Vec<PointId>, Vec<Scenario>) = queue.into_iter().unzip();
        let ids = Arc::new(ids);
        let cancelled = Arc::new(AtomicBool::new(false));
        // Summaries computed in the result sink are stashed per campaign
        // slot so the filling pass below doesn't re-scan every trace.
        let stash: Arc<Vec<Mutex<Option<PointSummary>>>> =
            Arc::new((0..ids.len()).map(|_| Mutex::new(None)).collect());
        let mut campaign = Campaign::new()
            .scenarios(scenarios)
            .artifacts(Arc::clone(artifacts))
            .runner(self.point_runner(&ids, &cancelled));
        if let Some(t) = self.threads {
            campaign = campaign.threads(t);
        }
        {
            let (ids, stash, progress) = (Arc::clone(&ids), Arc::clone(&stash), Arc::clone(progress));
            let cache = cache.cloned();
            campaign = campaign.on_result(move |p| {
                let id = &ids[p.index];
                match &p.result.outcome {
                    Ok(run) => {
                        let summary = PointSummary::from_run(run, p.result.wall);
                        if let Some((cache, key)) = cache.as_ref().zip(id.key) {
                            cache.insert(key, summary.clone());
                        }
                        progress.emit(id, false, Ok(&summary));
                        *lock(&stash[p.index]) = Some(summary);
                    }
                    // Points that never started are not streamed: the
                    // terminal report is their record.
                    Err(TemuError::Cancelled) => {}
                    Err(e) => progress.emit(id, false, Err(e)),
                }
            });
        }
        let report = campaign.run();
        let mut executed = 0;
        for (slot, result) in report.results.into_iter().enumerate() {
            executed += usize::from(!matches!(result.outcome, Err(TemuError::Cancelled)));
            let outcome = result.outcome.map(|run| {
                lock(&stash[slot]).take().unwrap_or_else(|| PointSummary::from_run(&run, result.wall))
            });
            filled.push(ids[slot].result(false, outcome));
        }
        (executed, cancelled.load(Ordering::Acquire), report.threads)
    }

    /// The one executor of every queued point — fresh or resumed,
    /// observed or not. Once the sweep is cancelled it starts nothing;
    /// otherwise it offers the point's start to the [`Sweep::on_point`]
    /// observer, then runs the scenario spine with the point's seeded
    /// state (if any) and the observer at its window boundaries. A
    /// [`CheckpointDecision::Cancel`] raises the sweep's `cancelled` flag.
    fn point_runner(&self, ids: &Arc<Vec<PointId>>, cancelled: &Arc<AtomicBool>) -> Arc<PointRunner> {
        let (ids, cancelled) = (Arc::clone(ids), Arc::clone(cancelled));
        let (resume, observer) = (self.resume.clone(), self.observer.clone());
        Arc::new(move |slot: usize, scenario: &Scenario, artifacts: Option<&ArtifactCache>| {
            let id = &ids[slot];
            let key = id.key.unwrap_or_else(|| scenario.content_key());
            let seed = resume.get(&key);
            let (RunBudget::Windows(total_windows) | RunBudget::ToHalt { max_windows: total_windows }) =
                scenario.budget();
            let (index, label) = (id.index, id.label.as_str());
            let windows = seed.map_or(0, EmulationState::windows);
            let start = PointCheckpoint { index, label, key, windows, total_windows, state: None };
            let cancel = |cp: &PointCheckpoint<'_>| {
                let stop = observer.as_ref().is_some_and(|(_, hook)| hook(cp) == CheckpointDecision::Cancel);
                cancelled.fetch_or(stop, Ordering::AcqRel);
                stop
            };
            if cancelled.load(Ordering::Acquire) || cancel(&start) {
                return Err(TemuError::Cancelled);
            }
            let mut observe = |emu: &ThermalEmulation| {
                let state = emu.checkpoint();
                let windows = state.windows();
                if cancel(&PointCheckpoint { windows, state: Some(&state), ..start }) {
                    return Err(TemuError::CancelledMidPoint { windows });
                }
                Ok(())
            };
            let every = observer.as_ref().map_or(0, |(every, _)| *every);
            scenario.run_observed(artifacts, seed, Some((every, &mut observe)))
        })
    }
}

/// A grid point's identity in the report: its grid index, label and
/// content key (`None` for a malformed point).
struct PointId {
    index: usize,
    label: String,
    key: Option<u64>,
}

impl PointId {
    /// The point's report slot — the one constructor of every
    /// [`SweepPointResult`] a sweep reports.
    fn result(&self, cache_hit: bool, outcome: Result<PointSummary, TemuError>) -> (usize, SweepPointResult) {
        (self.index, SweepPointResult { label: self.label.clone(), key: self.key, cache_hit, outcome })
    }
}

/// Serialized progress streaming: numbers finished points 1..=total, in
/// call order across the resolve pass and every campaign worker, and
/// forwards each to the sweep's sink.
struct Progress {
    sink: Option<Arc<SweepSink>>,
    total: usize,
    completed: Mutex<usize>,
}

impl Progress {
    fn emit(&self, id: &PointId, cache_hit: bool, outcome: Result<&PointSummary, &TemuError>) {
        // The lock is held across the sink call, so invocations never
        // overlap and `completed` reaches the sink in order.
        let mut done = lock(&self.completed);
        *done += 1;
        if let Some(sink) = &self.sink {
            sink(&SweepProgress {
                index: id.index,
                completed: *done,
                total: self.total,
                label: &id.label,
                cache_hit,
                outcome,
            });
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Grid-orders the finished points. Every index is filled exactly once by
/// resolve and execute; if a slot were ever skipped (a campaign delivering
/// short — which [`Campaign::run`] prevents by construction), it surfaces
/// as a typed per-point error rather than a server-killing panic.
fn assemble(mut filled: Vec<(usize, SweepPointResult)>, total: usize) -> Vec<SweepPointResult> {
    filled.sort_unstable_by_key(|(index, _)| *index);
    let mut it = filled.into_iter().peekable();
    (0..total)
        .map(|index| match it.next_if(|(i, _)| *i == index) {
            Some((_, result)) => result,
            None => {
                let missing =
                    TemuError::ScenarioPanicked(String::from("sweep point result was never delivered"));
                PointId { index, label: format!("point-{index}"), key: None }.result(false, Err(missing)).1
            }
        })
        .collect()
}

/// One expanded grid point (see [`Sweep::expand`]).
#[derive(Debug)]
pub struct SweepPoint {
    /// The point's position in the grid (first axis slowest-varying).
    pub index: usize,
    /// The `axis=value/…` label.
    pub label: String,
    /// The scenario's content key ([`Scenario::content_key`]); `None`
    /// when the point is malformed.
    pub key: Option<u64>,
    /// The fully-applied scenario, or the typed error that invalidated
    /// the point.
    pub scenario: Result<Scenario, TemuError>,
}

/// One grid point's slot in a [`SweepReport`].
#[derive(Debug)]
pub struct SweepPointResult {
    /// The point's `axis=value/…` label.
    pub label: String,
    /// The scenario's content key, `None` for malformed points.
    pub key: Option<u64>,
    /// Whether the result came from the cache (no execution).
    pub cache_hit: bool,
    /// The point's summary, or the typed error that stopped it.
    pub outcome: Result<PointSummary, TemuError>,
}

impl SweepPointResult {
    /// Whether the point completed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Grid-ordered results of a sweep, with JSON and CSV export.
#[derive(Debug)]
#[must_use]
pub struct SweepReport {
    /// The sweep's name.
    pub name: String,
    /// Worker threads the executed points ran on (1 when everything was
    /// cached).
    pub threads: usize,
    /// Host wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Points that actually executed a scenario.
    pub executed: usize,
    /// Points served from the cache.
    pub cache_hits: usize,
    /// Whether the [`Sweep::on_point`] observer cancelled the sweep (the
    /// cancelled point and every never-started one carry a cancellation
    /// error).
    pub cancelled: bool,
    /// Build-artifact reuse this run contributed (per-layer hit/miss
    /// deltas of the sweep's [`ArtifactCache`]): `mesh_misses` counts
    /// actual meshings, so a same-geometry sweep shows exactly one.
    pub artifacts: ArtifactStats,
    /// One result per grid point, in expansion order.
    pub points: Vec<SweepPointResult>,
}

impl SweepReport {
    /// Whether every point completed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.points.iter().all(SweepPointResult::is_ok)
    }

    /// Number of failed points (cancelled points are accounted
    /// separately by [`SweepReport::n_cancelled`]).
    #[must_use]
    pub fn n_failed(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.as_ref().is_err_and(|e| !e.is_cancellation())).count()
    }

    /// Number of cancelled points: never started, or stopped mid-point
    /// ([`TemuError::is_cancellation`]).
    #[must_use]
    pub fn n_cancelled(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.as_ref().is_err_and(TemuError::is_cancellation)).count()
    }

    /// Serializes the report as a JSON document (same layout as
    /// [`crate::CampaignReport::to_json`]; non-finite floats as `null`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let a = &self.artifacts;
        let artifacts = JsonObject::line()
            .raw("floorplan_hits", a.floorplan_hits)
            .raw("floorplan_misses", a.floorplan_misses)
            .raw("mesh_hits", a.mesh_hits)
            .raw("mesh_misses", a.mesh_misses)
            .raw("operator_hits", a.operator_hits)
            .raw("operator_misses", a.operator_misses)
            .raw("program_hits", a.program_hits)
            .raw("program_misses", a.program_misses)
            .finish();
        let rows = self.points.iter().map(|p| {
            let row = JsonObject::line()
                .str("label", &p.label)
                .raw("key", p.key.map_or(JsonValue::Null, |k| JsonValue::Str(format!("{k:016x}"))))
                .raw("cache_hit", p.cache_hit)
                .raw("ok", p.is_ok());
            match &p.outcome {
                Ok(s) => s.write_fields(row),
                Err(e) => row.str("error", &e.to_string()),
            }
            .finish()
        });
        JsonObject::document()
            .str("sweep", &self.name)
            .raw("threads", self.threads)
            .num("wall_s", self.wall.as_secs_f64(), 6)
            .raw("points_total", self.points.len())
            .raw("executed", self.executed)
            .raw("cache_hits", self.cache_hits)
            .raw("cancelled", self.cancelled)
            .raw("artifacts", artifacts)
            .rows("points", rows)
            .finish()
    }

    /// Serializes the per-point summary lines as CSV (field quoting
    /// shared with every other exporter; `time_at_hz` is `hz:seconds`
    /// pairs in one field).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "point,key,cache_hit,ok,windows,virtual_s,fpga_s,wall_s,all_halted,instructions,peak_temp_k,final_temp_k,throttled_fraction,time_at_hz,unconverged_substeps,worst_residual_k,error\n",
        );
        for p in &self.points {
            let key = p.key.map_or_else(String::new, |k| format!("{k:016x}"));
            match &p.outcome {
                Ok(s) => out.push_str(&format!(
                    "{},{},{},true,{},{},{},{},{},{},{},{},{},{},{},{},\n",
                    csv_field(&p.label),
                    key,
                    p.cache_hit,
                    s.windows,
                    csv_f64(s.virtual_s, 6),
                    csv_f64(s.fpga_s, 6),
                    csv_f64(s.wall_s, 6),
                    s.all_halted,
                    s.instructions,
                    csv_opt(s.peak_temp_k),
                    csv_opt(s.final_temp_k),
                    csv_f64(s.throttled_fraction, 4),
                    csv_field(&s.residency_field()),
                    s.unconverged_substeps,
                    csv_f64(s.worst_residual_k, 9),
                )),
                // 12 empty fields (windows..worst_residual_k) keep failed
                // rows aligned with the 17-column header.
                Err(e) => out.push_str(&format!(
                    "{},{},false,false,,,,,,,,,,,,,{}\n",
                    csv_field(&p.label),
                    key,
                    csv_field(&e.to_string())
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use temu_platform::PlatformError;

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for 64-bit FNV-1a — the on-disk cache format
        // depends on these never changing.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn expansion_counts_labels_and_orders_points() {
        let sweep = Sweep::new("t", Scenario::new()).cores(&[1, 2]).windows(&[1, 2, 3]);
        assert_eq!(sweep.n_points(), 6);
        let points = sweep.expand();
        assert_eq!(points.len(), 6);
        // First axis slowest-varying, later axes cycle fastest.
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "cores=1/windows=1w",
                "cores=1/windows=2w",
                "cores=1/windows=3w",
                "cores=2/windows=1w",
                "cores=2/windows=2w",
                "cores=2/windows=3w",
            ]
        );
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
            let s = p.scenario.as_ref().unwrap();
            assert_eq!(s.label(), format!("t/{}", p.label), "scenario names carry the sweep prefix");
        }
        // All six configurations are distinct, so all six keys are.
        let mut keys: Vec<u64> = points.iter().map(|p| p.key.unwrap()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn content_key_ignores_display_name_only() {
        let a = Scenario::exploration_bus(2);
        let b = Scenario::exploration_bus(2).name("renamed");
        let c = Scenario::exploration_bus(2).sampling_window_s(0.002);
        assert_eq!(a.content_key(), b.content_key(), "names do not affect the key");
        assert_ne!(a.content_key(), c.content_key(), "configuration does");
    }

    #[test]
    fn inverted_band_grid_point_is_a_typed_platform_error() {
        let points = Sweep::new("bad", Scenario::new())
            .dfs_bands(&[(350.0, 340.0), (340.0, 350.0)], 500_000_000, 100_000_000)
            .expand();
        assert_eq!(points.len(), 2);
        assert!(points[0].scenario.is_ok());
        match &points[1].scenario {
            Err(TemuError::Platform(PlatformError::DfsLadder { .. })) => {}
            other => panic!("expected a typed DfsLadder error, got {other:?}"),
        }
        assert!(points[1].key.is_none());
    }

    #[test]
    fn flat_json_round_trips_a_summary() {
        let summary = PointSummary {
            windows: 12,
            virtual_s: 0.012,
            fpga_s: 0.05,
            wall_s: 0.25,
            all_halted: true,
            instructions: 34567,
            peak_temp_k: Some(351.25),
            final_temp_k: None,
            throttled_fraction: 0.25,
            time_at_hz: vec![(500_000_000, 0.01), (100_000_000, 0.002)],
            unconverged_substeps: 0,
            worst_residual_k: 0.0,
        };
        let line = ResultCache::encode(0xdead_beef, &summary);
        let (key, decoded) = ResultCache::decode(line.as_bytes()).expect("record parses");
        assert_eq!(key, 0xdead_beef);
        assert_eq!(decoded.windows, 12);
        assert_eq!(decoded.peak_temp_k, Some(351.25));
        assert_eq!(decoded.final_temp_k, None);
        assert_eq!(decoded.time_at_hz, summary.time_at_hz);
        assert!(ResultCache::decode(b"not json").is_none());
        assert!(ResultCache::decode(b"{\"key\": \"zz\"}").is_none());
    }

    #[test]
    fn cache_handles_share_state() {
        let a = ResultCache::in_memory();
        let b = a.clone();
        a.insert(
            7,
            PointSummary {
                windows: 1,
                virtual_s: 0.0,
                fpga_s: 0.0,
                wall_s: 0.0,
                all_halted: true,
                instructions: 0,
                peak_temp_k: None,
                final_temp_k: None,
                throttled_fraction: 0.0,
                time_at_hz: Vec::new(),
                unconverged_substeps: 0,
                worst_residual_k: 0.0,
            },
        );
        assert_eq!(b.len(), 1);
        assert!(b.get(7).is_some());
        assert!(b.get(8).is_none());
    }

    /// A summary with every float shape the writers must handle: a
    /// rounded number, an absent temperature and a residency list.
    fn golden_summary() -> PointSummary {
        PointSummary {
            windows: 12,
            virtual_s: 0.012,
            fpga_s: 0.0504,
            wall_s: 0.25,
            all_halted: true,
            instructions: 34567,
            peak_temp_k: Some(351.2509),
            final_temp_k: None,
            throttled_fraction: 0.25,
            time_at_hz: vec![(500_000_000, 0.01), (100_000_000, 0.002)],
            unconverged_substeps: 3,
            worst_residual_k: 0.000_012_5,
        }
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        let mut cached = golden_summary();
        cached.peak_temp_k = Some(f64::NAN);
        cached.final_temp_k = Some(340.0);
        cached.time_at_hz.clear();
        let report = SweepReport {
            name: String::from("golden \"grid\"\t\\"),
            threads: 2,
            wall: Duration::from_micros(1_500_250),
            executed: 1,
            cache_hits: 1,
            cancelled: false,
            artifacts: ArtifactStats {
                floorplan_hits: 1,
                floorplan_misses: 2,
                mesh_hits: 3,
                mesh_misses: 4,
                operator_hits: 5,
                operator_misses: 6,
                program_hits: 7,
                program_misses: 8,
            },
            points: vec![
                SweepPointResult {
                    label: String::from("cores=2/dfs=350/340K"),
                    key: Some(0xdead_beef),
                    cache_hit: false,
                    outcome: Ok(golden_summary()),
                },
                SweepPointResult {
                    label: String::from("cores=4/dfs=350/340K"),
                    key: Some(0x0123_4567_89ab_cdef),
                    cache_hit: true,
                    outcome: Ok(cached),
                },
                SweepPointResult {
                    label: String::from("cores=0/\"bad\""),
                    key: None,
                    cache_hit: false,
                    outcome: Err(TemuError::ScenarioPanicked(String::from("boom \"q\"\nline"))),
                },
            ],
        };
        assert_eq!(report.to_json(), GOLDEN_REPORT);
        let empty = SweepReport {
            name: String::from("empty"),
            threads: 1,
            wall: Duration::ZERO,
            executed: 0,
            cache_hits: 0,
            cancelled: true,
            artifacts: ArtifactStats::default(),
            points: Vec::new(),
        };
        assert_eq!(empty.to_json(), GOLDEN_EMPTY_REPORT);
    }

    #[test]
    fn store_record_bytes_are_pinned() {
        assert_eq!(ResultCache::encode(0xdead_beef, &golden_summary()), GOLDEN_RECORD);
    }

    /// Characters that stress the escaper (see `export.rs` for the full
    /// writer property).
    const NASTY: &[char] =
        &['a', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '中', '😀'];

    fn nasty_string() -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(NASTY), 0..12)
            .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn reports_and_records_parse_back(
            name in nasty_string(),
            label in nasty_string(),
            message in nasty_string(),
            nan_peak in any::<bool>(),
        ) {
            let mut summary = golden_summary();
            summary.peak_temp_k = if nan_peak { Some(f64::NAN) } else { Some(f64::INFINITY) };
            let report = SweepReport {
                name: name.clone(),
                threads: 1,
                wall: Duration::ZERO,
                executed: 1,
                cache_hits: 0,
                cancelled: false,
                artifacts: ArtifactStats::default(),
                points: vec![
                    SweepPointResult {
                        label: label.clone(),
                        key: Some(1),
                        cache_hit: false,
                        outcome: Ok(summary.clone()),
                    },
                    SweepPointResult {
                        label: label.clone(),
                        key: None,
                        cache_hit: false,
                        outcome: Err(TemuError::ScenarioPanicked(message.clone())),
                    },
                ],
            };
            let json = report.to_json();
            let doc = JsonValue::parse(&json).unwrap_or_else(|e| panic!("{e}: {json:?}"));
            assert_eq!(doc.get("sweep").and_then(JsonValue::as_str), Some(name.as_str()));
            let points = doc.get("points").and_then(JsonValue::as_arr).unwrap();
            assert_eq!(points[0].get("label").and_then(JsonValue::as_str), Some(label.as_str()));
            assert_eq!(points[0].get("peak_temp_k"), Some(&JsonValue::Null));
            assert_eq!(points[1].get("key"), Some(&JsonValue::Null));
            let error = format!("scenario panicked: {message}");
            assert_eq!(points[1].get("error").and_then(JsonValue::as_str), Some(error.as_str()));

            let record = ResultCache::encode(7, &summary);
            assert_eq!(JsonValue::parse(&record).unwrap().get("peak_temp_k"), Some(&JsonValue::Null));
            let (key, decoded) = ResultCache::decode(record.as_bytes()).expect("record decodes");
            assert_eq!((key, decoded.peak_temp_k, decoded.time_at_hz), (7, None, summary.time_at_hz));
        }
    }

    const GOLDEN_REPORT: &str = concat!(
        "{\n",
        "  \"sweep\": \"golden \\\"grid\\\"\\t\\\\\",\n",
        "  \"threads\": 2,\n",
        "  \"wall_s\": 1.500250,\n",
        "  \"points_total\": 3,\n",
        "  \"executed\": 1,\n",
        "  \"cache_hits\": 1,\n",
        "  \"cancelled\": false,\n",
        "  \"artifacts\": {\"floorplan_hits\": 1, \"floorplan_misses\": 2, \"mesh_hits\": 3, \"mesh_misses\": 4, \"operator_hits\": 5, \"operator_misses\": 6, \"program_hits\": 7, \"program_misses\": 8},\n",
        "  \"points\": [\n",
        "    {\"label\": \"cores=2/dfs=350/340K\", \"key\": \"00000000deadbeef\", \"cache_hit\": false, \"ok\": true, \"windows\": 12, \"virtual_s\": 0.012000, \"fpga_s\": 0.050400, \"wall_s\": 0.250000, \"all_halted\": true, \"instructions\": 34567, \"peak_temp_k\": 351.251, \"final_temp_k\": null, \"throttled_fraction\": 0.2500, \"time_at_hz\": \"500000000:0.010000 100000000:0.002000\", \"unconverged_substeps\": 3, \"worst_residual_k\": 0.000012500},\n",
        "    {\"label\": \"cores=4/dfs=350/340K\", \"key\": \"0123456789abcdef\", \"cache_hit\": true, \"ok\": true, \"windows\": 12, \"virtual_s\": 0.012000, \"fpga_s\": 0.050400, \"wall_s\": 0.250000, \"all_halted\": true, \"instructions\": 34567, \"peak_temp_k\": null, \"final_temp_k\": 340.000, \"throttled_fraction\": 0.2500, \"time_at_hz\": \"\", \"unconverged_substeps\": 3, \"worst_residual_k\": 0.000012500},\n",
        "    {\"label\": \"cores=0/\\\"bad\\\"\", \"key\": null, \"cache_hit\": false, \"ok\": false, \"error\": \"scenario panicked: boom \\\"q\\\"\\nline\"}\n",
        "  ]\n",
        "}\n",
    );
    const GOLDEN_EMPTY_REPORT: &str = concat!(
        "{\n",
        "  \"sweep\": \"empty\",\n",
        "  \"threads\": 1,\n",
        "  \"wall_s\": 0.000000,\n",
        "  \"points_total\": 0,\n",
        "  \"executed\": 0,\n",
        "  \"cache_hits\": 0,\n",
        "  \"cancelled\": true,\n",
        "  \"artifacts\": {\"floorplan_hits\": 0, \"floorplan_misses\": 0, \"mesh_hits\": 0, \"mesh_misses\": 0, \"operator_hits\": 0, \"operator_misses\": 0, \"program_hits\": 0, \"program_misses\": 0},\n",
        "  \"points\": [\n",
        "  ]\n",
        "}\n",
    );
    const GOLDEN_RECORD: &str = "{\"key\": \"00000000deadbeef\", \"windows\": 12, \"virtual_s\": 0.012000, \"fpga_s\": 0.050400, \"wall_s\": 0.250000, \"all_halted\": true, \"instructions\": 34567, \"peak_temp_k\": 351.251, \"final_temp_k\": null, \"throttled_fraction\": 0.2500, \"time_at_hz\": \"500000000:0.010000 100000000:0.002000\", \"unconverged_substeps\": 3, \"worst_residual_k\": 0.000012500}";
}
