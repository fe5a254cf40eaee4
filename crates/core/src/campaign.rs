//! Batch execution of scenarios across host threads, and the one worker
//! pool that every batch runs on.
//!
//! A [`Campaign`] takes any number of [`Scenario`]s and runs them
//! concurrently on scoped worker threads, each claiming the next unstarted
//! scenario until none is left; every scenario runs on one thread. Results
//! come back as a [`CampaignReport`] in **input order**, regardless of
//! which worker finished first — one failed or panicked scenario is carried
//! as its typed [`TemuError`] without aborting its siblings.
//!
//! A [`Sweep`](crate::Sweep) runs its executed points on the same pool,
//! under the same panic containment: the pool is crate-private, and
//! [`Campaign::run`] and the sweep are its only callers.
//!
//! Width: an explicit [`Campaign::threads`] call wins; otherwise the host's
//! available parallelism capped at 16. The width is then capped by the
//! number of scenarios, with a minimum of 1; a width of 1 runs inline on
//! the calling thread.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
#[derive(Clone, Default, Debug)]
pub struct Campaign {
    scenarios: Vec<Scenario>,
    threads: Option<usize>,
    artifacts: Option<Arc<ArtifactCache>>,
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

    /// Sets the worker-thread count explicitly. When unset, the host's
    /// available parallelism (capped at 16) decides.
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
        let (results, threads) = pool(self.threads, self.scenarios.len(), |i| {
            let scenario = &self.scenarios[i];
            let name = scenario.label();
            let (outcome, wall) = contained(|| scenario.run_with(self.artifacts.as_deref()));
            ScenarioResult { name, wall, outcome }
        });
        CampaignReport { results, wall: t0.elapsed(), threads }
    }
}

/// The pool width for `n_jobs` jobs: `threads` when set, else the host's
/// available parallelism capped at 16; then capped by `n_jobs`, with a
/// minimum of 1.
fn width(threads: Option<usize>, n_jobs: usize) -> usize {
    threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(16))
        .min(n_jobs)
        .max(1)
}

/// The one worker pool: runs `job(i)` for every `i` in `0..n_jobs` and
/// returns the results in input order, with the width it ran at
/// ([`width`]). Workers claim indices from one atomic counter; a width of
/// 1 runs inline on the calling thread. Each worker hands back the
/// `(index, result)` pairs it ran, so every index is filled exactly once.
/// A panic escaping `job` stops its worker, and is re-raised with its
/// original payload once every worker has stopped.
pub(crate) fn pool<T: Send>(
    threads: Option<usize>,
    n_jobs: usize,
    job: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, usize) {
    let width = width(threads, n_jobs);
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut ran = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                return ran;
            }
            ran.push((i, job(i)));
        }
    };
    let mut ran = if width == 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..width).map(|_| scope.spawn(worker)).collect();
            let mut ran = Vec::with_capacity(n_jobs);
            let mut panicked = None;
            for lane in lanes {
                match lane.join() {
                    Ok(pairs) => ran.extend(pairs),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            ran
        })
    };
    ran.sort_unstable_by_key(|&(i, _)| i);
    (ran.into_iter().map(|(_, result)| result).collect(), width)
}

/// Runs one job of the pool, timed, converting a panic into
/// [`TemuError::ScenarioPanicked`] so sibling jobs keep running.
pub(crate) fn contained<T>(job: impl FnOnce() -> Result<T, TemuError>) -> (Result<T, TemuError>, Duration) {
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
        .unwrap_or_else(|payload| Err(TemuError::ScenarioPanicked(panic_message(&payload))));
    (outcome, t0.elapsed())
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
    fn width_is_explicit_else_the_host_then_capped_by_jobs_and_at_least_one() {
        let host = width(None, usize::MAX);
        assert!((1..=16).contains(&host), "availability-derived default, capped at 16");
        // (threads, jobs, width)
        let table = [
            (Some(3), 10, 3),
            (Some(40), 100, 40),
            (Some(8), 2, 2),
            (Some(0), 5, 1),
            (Some(4), 0, 1),
            (None, 0, 1),
            (None, 1, 1),
            (None, usize::MAX, host),
        ];
        for (threads, jobs, expected) in table {
            assert_eq!(width(threads, jobs), expected, "threads {threads:?}, {jobs} job(s)");
        }
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
