//! Batch execution of scenarios across host threads.
//!
//! A [`Campaign`] takes any number of [`Scenario`]s and runs them
//! concurrently on scoped worker threads, each claiming the next unstarted
//! scenario until none is left; every scenario runs on one thread. Results
//! come back as a [`CampaignReport`] in **input order**, regardless of
//! which worker finished first — one failed or panicked scenario is carried
//! as its typed [`TemuError`] without aborting its siblings.
//!
//! Thread count resolution: an explicit [`Campaign::threads`] call wins;
//! otherwise `TEMU_CAMPAIGN_THREADS` (clamped to 1..=64; a value that does
//! not parse as an unsigned integer is ignored), and then the host's
//! available parallelism capped at 16. The count is always capped by the
//! number of scenarios.
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
use crate::export::{csv_f64, csv_field, csv_opt, JsonObject};
use crate::scenario::{Scenario, ScenarioRun};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
        let worker = || loop {
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
            worker();
        } else {
            std::thread::scope(|scope| {
                let lanes: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
                // Every worker stops before a panic (a panicking result
                // sink) propagates, with its original payload.
                let mut panicked = None;
                for lane in lanes {
                    if let Err(payload) = lane.join() {
                        panicked.get_or_insert(payload);
                    }
                }
                if let Some(payload) = panicked {
                    std::panic::resume_unwind(payload);
                }
            });
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
        // An explicit `threads()` call wins, so tests that pin a width stay
        // meaningful on hosts that export the variable.
        let configured = self
            .threads
            .unwrap_or_else(|| default_workers(std::env::var("TEMU_CAMPAIGN_THREADS").ok().as_deref()));
        configured.min(n_jobs).max(1)
    }
}

/// Worker count from a `TEMU_CAMPAIGN_THREADS` value (clamped to 1..=64),
/// falling back to the available parallelism capped at 16 when the value
/// is absent or does not parse as an unsigned integer. Takes the value,
/// not the variable, so tests never mutate the process environment, which
/// would race with concurrent `getenv` calls from sibling tests.
fn default_workers(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .map(|v| v.clamp(1, 64))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()).min(16))
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

    /// Serializes the report as a JSON document (failures carry their
    /// error string). Non-finite floats serialize as `null` —
    /// bare `NaN`/`inf` would make the whole document unparseable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows = self.results.iter().map(|r| {
            let row = JsonObject::line()
                .str("name", &r.name)
                .raw("ok", r.is_ok())
                .num("wall_s", r.wall.as_secs_f64(), 6);
            match &r.outcome {
                Ok(run) => {
                    let rep = &run.report;
                    row.raw("windows", rep.windows)
                        .num("virtual_s", rep.virtual_seconds, 6)
                        .raw("virtual_cycles", rep.virtual_cycles)
                        .num("fpga_s", rep.fpga_seconds, 6)
                        .raw("all_halted", rep.all_halted)
                        .raw("instructions", rep.aggregate.total_instructions())
                        .num("peak_temp_k", run.trace.peak_temp(), 3)
                        .num("final_temp_k", run.trace.final_temp(), 3)
                        .num("throttled_fraction", run.trace.throttled_fraction(), 4)
                        .raw("unconverged_substeps", rep.solver.unconverged_substeps)
                        .num("worst_residual_k", rep.solver.worst_residual_k, 9)
                }
                Err(e) => row.str("error", &e.to_string()),
            }
            .finish()
        });
        JsonObject::document()
            .raw("threads", self.threads)
            .num("wall_s", self.wall.as_secs_f64(), 6)
            .rows("scenarios", rows)
            .finish()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulation::EmulationReport;
    use crate::trace::{ThermalTrace, TraceSample};

    fn sample(t: f64, max_temp_k: f64, virtual_hz: u64) -> TraceSample {
        TraceSample {
            t_virtual_s: t,
            temps_k: vec![max_temp_k],
            max_temp_k,
            virtual_hz,
            total_power_w: 1.0,
            fpga_seconds: t,
        }
    }

    #[test]
    fn default_workers_parses_clamps_and_falls_back() {
        let fallback = default_workers(None);
        assert!((1..=16).contains(&fallback), "availability-derived default, capped at 16");
        assert_eq!(default_workers(Some("3")), 3);
        assert_eq!(default_workers(Some("0")), 1, "clamped up");
        assert_eq!(default_workers(Some("1000")), 64, "clamped down");
        assert_eq!(default_workers(Some("not-a-number")), fallback, "garbage is ignored, not fatal");
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        let mut aggregate = temu_platform::WindowStats::default();
        aggregate.cores.push(temu_cpu::CoreStats { instructions: 1200, ..Default::default() });
        aggregate.cores.push(temu_cpu::CoreStats { instructions: 34, ..Default::default() });
        let mut solver = temu_thermal::SolverStats::default();
        solver.unconverged_substeps = 2;
        solver.worst_residual_k = 0.000_031_25;
        let mut trace = ThermalTrace::new(vec![String::from("cpu")]);
        trace.push(sample(0.01, 351.2509, 500_000_000));
        trace.push(sample(0.02, 349.5, 100_000_000));
        let run = ScenarioRun {
            name: String::from("ok \"one\""),
            report: EmulationReport {
                windows: 2,
                virtual_seconds: 0.02,
                virtual_cycles: 6_000_000,
                fpga_seconds: 0.1234567,
                wall: Duration::from_millis(7),
                all_halted: false,
                aggregate,
                link: temu_link::LinkStats::default(),
                solver,
            },
            trace,
        };
        let report = CampaignReport {
            results: vec![
                ScenarioResult {
                    name: String::from("ok \"one\""),
                    wall: Duration::from_micros(250_125),
                    outcome: Ok(run),
                },
                ScenarioResult {
                    name: String::from("bad\\two"),
                    wall: Duration::ZERO,
                    outcome: Err(TemuError::ScenarioPanicked(String::from("boom\n\"q\""))),
                },
            ],
            wall: Duration::from_micros(1_000_001),
            threads: 2,
        };
        assert_eq!(report.to_json(), GOLDEN_REPORT);
    }

    const GOLDEN_REPORT: &str = concat!(
        "{\n",
        "  \"threads\": 2,\n",
        "  \"wall_s\": 1.000001,\n",
        "  \"scenarios\": [\n",
        "    {\"name\": \"ok \\\"one\\\"\", \"ok\": true, \"wall_s\": 0.250125, \"windows\": 2, \"virtual_s\": 0.020000, \"virtual_cycles\": 6000000, \"fpga_s\": 0.123457, \"all_halted\": false, \"instructions\": 1234, \"peak_temp_k\": 351.251, \"final_temp_k\": 349.500, \"throttled_fraction\": 0.5000, \"unconverged_substeps\": 2, \"worst_residual_k\": 0.000031250},\n",
        "    {\"name\": \"bad\\\\two\", \"ok\": false, \"wall_s\": 0.000000, \"error\": \"scenario panicked: boom\\n\\\"q\\\"\"}\n",
        "  ]\n",
        "}\n",
    );
}
