//! Batch execution of scenarios across host threads.
//!
//! A [`Campaign`] takes any number of [`Scenario`]s and runs them
//! concurrently on a dedicated worker pool (the panic-safe fork-join pool
//! the thermal solver uses, instantiated separately so a scenario's own
//! parallel sweeps never contend with campaign dispatch). Results come back
//! as a [`CampaignReport`] in **input order**, regardless of which worker
//! finished first — one failed or panicked scenario is carried as its typed
//! [`TemuError`] without aborting its siblings.
//!
//! Thread count resolution: an explicit [`Campaign::threads`] call wins;
//! otherwise [`temu_thermal::default_workers`] resolves
//! `TEMU_CAMPAIGN_THREADS` with exactly the same syntax, clamping (1..=64)
//! and fallback (available parallelism capped at 16) as the solver's
//! `TEMU_THERMAL_THREADS`; the count is always capped by the number of
//! scenarios.
//!
//! # Export format
//!
//! [`CampaignReport::to_json`]/[`CampaignReport::to_csv`] carry, per
//! scenario, the run summary plus the thermal solver's convergence
//! accounting ([`temu_thermal::SolverStats`]): `unconverged_substeps`
//! (implicit substeps accepted without reaching tolerance — non-zero means
//! the temperatures came from a solver that silently stopped converging)
//! and `worst_residual_k` (how far from converged the worst such substep
//! still was). Every floating-point field is emitted as a JSON number only
//! when finite and as `null` otherwise, so the export is always valid
//! JSON.

use crate::artifacts::ArtifactCache;
use crate::error::TemuError;
use crate::export::{csv_f64, csv_field, csv_opt, json_escape, json_f64, json_num_or_null};
use crate::scenario::{Scenario, ScenarioRun};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use temu_thermal::{default_workers, WorkerPool};

/// A streaming result sink: called once per finished scenario, in
/// completion order (see [`Campaign::on_result`]).
pub type ResultSink = dyn Fn(&CampaignProgress<'_>) + Send + Sync;

/// A custom point executor installed by [`Campaign::runner`], called with
/// the scenario's input index instead of the default
/// [`Scenario::run_with`] — the sweep layer's one point runner (resume,
/// observation, cancellation), which the campaign knows nothing about.
pub(crate) type PointRunner =
    dyn Fn(usize, &Scenario, Option<&ArtifactCache>) -> Result<ScenarioRun, TemuError> + Send + Sync;

/// One finished scenario, delivered to a [`Campaign::on_result`] sink while
/// the rest of the batch is still running.
#[derive(Debug)]
pub struct CampaignProgress<'a> {
    /// Input index of the scenario that just finished (its slot in the
    /// final [`CampaignReport::results`]).
    pub index: usize,
    /// Scenarios finished so far, this one included (monotonically
    /// increasing across sink invocations: 1, 2, …, `total`).
    pub completed: usize,
    /// Scenarios in the whole batch.
    pub total: usize,
    /// The finished scenario's result.
    pub result: &'a ScenarioResult,
}

/// The outcome of one scenario inside a campaign.
#[derive(Debug)]
pub struct ScenarioResult {
    /// The scenario's name ([`Scenario::label`]).
    pub name: String,
    /// Host wall-clock time this scenario took.
    pub wall: Duration,
    /// The run, or the typed error that stopped it.
    pub outcome: Result<ScenarioRun, TemuError>,
}

impl ScenarioResult {
    /// Whether the scenario completed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// A batch of scenarios executed concurrently (see the module docs).
#[derive(Clone, Default)]
pub struct Campaign {
    scenarios: Vec<Scenario>,
    threads: Option<usize>,
    sink: Option<Arc<ResultSink>>,
    artifacts: Option<Arc<ArtifactCache>>,
    runner: Option<Arc<PointRunner>>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("scenarios", &self.scenarios)
            .field("threads", &self.threads)
            .field("sink", &self.sink.as_ref().map(|_| "Fn(&CampaignProgress)"))
            .finish()
    }
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Campaign {
        Campaign::default()
    }

    /// Appends one scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Campaign {
        self.scenarios.push(scenario);
        self
    }

    /// Appends every scenario of an iterator (sweep construction).
    pub fn scenarios(mut self, iter: impl IntoIterator<Item = Scenario>) -> Campaign {
        self.scenarios.extend(iter);
        self
    }

    /// Sets the worker-thread count explicitly. When unset, the
    /// `TEMU_CAMPAIGN_THREADS` environment variable and then the host's
    /// available parallelism decide.
    pub fn threads(mut self, threads: usize) -> Campaign {
        self.threads = Some(threads);
        self
    }

    /// Builds every scenario through a shared layered [`ArtifactCache`]
    /// ([`Scenario::build_with`]): scenarios that agree on floorplan
    /// geometry, mesh or workload share those build artifacts instead of
    /// rebuilding them per scenario. Results are unchanged — only build
    /// cost is.
    pub fn artifacts(mut self, artifacts: Arc<ArtifactCache>) -> Campaign {
        self.artifacts = Some(artifacts);
        self
    }

    /// Replaces the default per-scenario executor
    /// ([`Scenario::run_with`]) — the sweep layer's point runner. Panic
    /// containment and result ordering are unchanged.
    pub(crate) fn runner(mut self, runner: Arc<PointRunner>) -> Campaign {
        self.runner = Some(runner);
        self
    }

    /// Installs a streaming result sink: `sink` is called once per
    /// scenario as it finishes — in **completion order**, from whichever
    /// worker thread ran it — so long batches can report progress (or
    /// persist results) incrementally instead of only at the final join.
    ///
    /// Invocations are serialized (never concurrent), and
    /// [`CampaignProgress::completed`] counts them 1..=total; the final
    /// [`CampaignReport`] is unchanged and stays input-ordered.
    pub fn on_result(mut self, sink: impl Fn(&CampaignProgress<'_>) + Send + Sync + 'static) -> Campaign {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// Number of scenarios queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the campaign is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Runs every scenario and collects the report (input-ordered).
    pub fn run(&self) -> CampaignReport {
        let t0 = Instant::now();
        let n_jobs = self.scenarios.len();
        let threads = self.resolve_threads(n_jobs);
        let next = AtomicUsize::new(0);
        let completed = Mutex::new(0usize);
        let slots: Vec<Mutex<Option<ScenarioResult>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
        let worker = |_lane: usize, _lanes: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                break;
            }
            let result = run_one(i, &self.scenarios[i], self.artifacts.as_deref(), self.runner.as_deref());
            if let Some(sink) = &self.sink {
                // The lock is held across the sink call: invocations are
                // serialized and `completed` increases monotonically even
                // when results race in from several workers.
                let mut done = completed.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                *done += 1;
                sink(&CampaignProgress { index: i, completed: *done, total: n_jobs, result: &result });
            }
            *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
        };
        if threads <= 1 {
            worker(0, 1);
        } else {
            WorkerPool::new(threads).run(&worker);
        }
        let results = slots
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                // A slot can only be empty if its worker aborted between
                // claiming the scenario and storing the result (e.g. a
                // panicking result sink). Surface that as the scenario's
                // typed error instead of panicking the whole report.
                m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner).unwrap_or_else(|| {
                    ScenarioResult {
                        name: self.scenarios[i].label(),
                        wall: Duration::ZERO,
                        outcome: Err(TemuError::ScenarioPanicked(String::from(
                            "scenario result was never delivered",
                        ))),
                    }
                })
            })
            .collect();
        CampaignReport { results, wall: t0.elapsed(), threads }
    }

    fn resolve_threads(&self, n_jobs: usize) -> usize {
        // An explicit `threads()` call wins; otherwise the shared
        // environment-variable helper decides, so tests that pin a width
        // stay meaningful on hosts that export the variable and both
        // `TEMU_*_THREADS` knobs behave identically.
        let configured = self.threads.unwrap_or_else(|| default_workers("TEMU_CAMPAIGN_THREADS"));
        configured.min(n_jobs).max(1)
    }
}

/// Runs one scenario, converting a panic into a typed error so sibling
/// scenarios keep running.
fn run_one(
    index: usize,
    scenario: &Scenario,
    artifacts: Option<&ArtifactCache>,
    runner: Option<&PointRunner>,
) -> ScenarioResult {
    let name = scenario.label();
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match runner {
        Some(run) => run(index, scenario, artifacts),
        None => scenario.run_with(artifacts),
    }))
    .unwrap_or_else(|payload| Err(TemuError::ScenarioPanicked(panic_message(&payload))));
    ScenarioResult { name, wall: t0.elapsed(), outcome }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Input-ordered results of a campaign, with JSON and CSV export.
#[derive(Debug)]
#[must_use]
pub struct CampaignReport {
    /// One result per scenario, in the order they were added.
    pub results: Vec<ScenarioResult>,
    /// Host wall-clock time of the whole batch.
    pub wall: Duration,
    /// Worker threads the batch ran on.
    pub threads: usize,
}

impl CampaignReport {
    /// Whether every scenario completed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(ScenarioResult::is_ok)
    }

    /// Number of failed scenarios.
    #[must_use]
    pub fn n_failed(&self) -> usize {
        self.results.iter().filter(|r| !r.is_ok()).count()
    }

    /// Serializes the report as JSON (no external dependencies; failures
    /// carry their error string). Non-finite floats serialize as `null` —
    /// bare `NaN`/`inf` would make the whole document unparseable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"wall_s\": {},\n", json_f64(self.wall.as_secs_f64(), 6)));
        out.push_str("  \"scenarios\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": \"{}\", ", json_escape(&r.name)));
            out.push_str(&format!("\"ok\": {}, ", r.is_ok()));
            out.push_str(&format!("\"wall_s\": {}", json_f64(r.wall.as_secs_f64(), 6)));
            match &r.outcome {
                Ok(run) => {
                    let rep = &run.report;
                    out.push_str(&format!(", \"windows\": {}", rep.windows));
                    out.push_str(&format!(", \"virtual_s\": {}", json_f64(rep.virtual_seconds, 6)));
                    out.push_str(&format!(", \"virtual_cycles\": {}", rep.virtual_cycles));
                    out.push_str(&format!(", \"fpga_s\": {}", json_f64(rep.fpga_seconds, 6)));
                    out.push_str(&format!(", \"all_halted\": {}", rep.all_halted));
                    out.push_str(&format!(", \"instructions\": {}", rep.aggregate.total_instructions()));
                    out.push_str(&json_num_or_null(", \"peak_temp_k\": ", run.trace.peak_temp()));
                    out.push_str(&json_num_or_null(", \"final_temp_k\": ", run.trace.final_temp()));
                    out.push_str(&format!(
                        ", \"throttled_fraction\": {}",
                        json_f64(run.trace.throttled_fraction(), 4)
                    ));
                    out.push_str(&format!(
                        ", \"unconverged_substeps\": {}",
                        rep.solver.unconverged_substeps
                    ));
                    out.push_str(&format!(
                        ", \"worst_residual_k\": {}",
                        json_f64(rep.solver.worst_residual_k, 9)
                    ));
                }
                Err(e) => out.push_str(&format!(", \"error\": \"{}\"", json_escape(&e.to_string()))),
            }
            out.push_str(if i + 1 < self.results.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes the per-scenario summary lines as CSV (non-finite floats
    /// become empty fields, like the other absent values).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,ok,wall_s,windows,virtual_s,fpga_s,peak_temp_k,final_temp_k,throttled_fraction,unconverged_substeps,worst_residual_k,error\n",
        );
        for r in &self.results {
            match &r.outcome {
                Ok(run) => {
                    let rep = &run.report;
                    out.push_str(&format!(
                        "{},true,{},{},{},{},{},{},{},{},{},\n",
                        csv_field(&r.name),
                        csv_f64(r.wall.as_secs_f64(), 6),
                        rep.windows,
                        csv_f64(rep.virtual_seconds, 6),
                        csv_f64(rep.fpga_seconds, 6),
                        csv_opt(run.trace.peak_temp()),
                        csv_opt(run.trace.final_temp()),
                        csv_f64(run.trace.throttled_fraction(), 4),
                        rep.solver.unconverged_substeps,
                        csv_f64(rep.solver.worst_residual_k, 9),
                    ));
                }
                Err(e) => {
                    out.push_str(&format!(
                        "{},false,{},,,,,,,,,{}\n",
                        csv_field(&r.name),
                        csv_f64(r.wall.as_secs_f64(), 6),
                        csv_field(&e.to_string())
                    ));
                }
            }
        }
        out
    }
}

