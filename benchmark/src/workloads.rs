//! The three workloads and the loop that measures them.
//!
//! Every workload is a closed loop with one caller — the next unit of work
//! is issued when the previous one finished — and all emulation runs on
//! one host thread (serial thermal sweeps, the server with one worker and
//! one-thread sweeps), so a run measures the emulator rather than the
//! host's spare cores.
//!
//! | workload | unit of work | why |
//! |---|---|---|
//! | `fig6` | one 10 ms window of the paper's Fig. 6 run: MATRIX-TM on four ARM11 cores at 500 MHz, paper mesh, dual-threshold DFS | the headline emulation speed; the ISS dominates |
//! | `fine_mesh` | a freshly built 80 ms run (40 windows of 2 ms) of one bus core dithering, on a die meshed far finer than the paper's | the implicit thermal solver dominates |
//! | `served` | one 4-point DITHERING sweep submitted to an in-process `temu-serve` and watched to `done` | the job server, its protocol, the sweep engine and its artifact cache; every point misses the result cache |
//!
//! The seed picks the inputs: the DFS thresholds and MATRIX-TM length of
//! `fig6`, and the synthetic images of every DITHERING run. It never
//! changes how much work a unit is, so seeds measure one cost on
//! different data.
//!
//! Checks: no thermal substep went unconverged and every temperature is
//! plausible; a fresh build of each window workload reproduces the
//! measured emulation's first windows exactly; every `served` job executes
//! all its points and the first job's report matches a local run.

use crate::{text, Metric, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use temu_framework::{
    AxisSpec, JsonValue, Scenario, ScenarioSpec, SweepSpec, ThermalEmulation, TraceSample,
    Workload, WorkloadSpec,
};
use temu_obs::Snapshot;
use temu_platform::{DfsPolicy, PlatformConfig};
use temu_serve::{Client, ServeConfig, Server};
use temu_thermal::{GridConfig, ImplicitSolve, SweepMode};
use temu_workloads::dithering::DitherConfig;
use temu_workloads::matrix::MatrixConfig;

/// Host time between set-up repetitions in an untraced run's loop.
const SETUP_EVERY: Duration = Duration::from_millis(500);

/// A hottest temperature outside this range means a broken thermal model.
const SANE_K: std::ops::Range<f64> = 250.0..600.0;

/// `fig6` windows per emulation before the loop rebuilds it, untimed: the
/// first virtual second, while all four MATRIX-TM cores are still busy.
const FIG6_WINDOWS: u64 = 100;

/// `fine_mesh` windows per emulation, all one unit of work, ending before
/// the DITHERING core halts. A whole run is the unit because its windows
/// differ in cost: the solver needs more cycles while the die warms up.
const FINE_MESH_WINDOWS: u64 = 40;

/// Windows a fresh build must reproduce after a window workload's loop.
const CHECK_WINDOWS: usize = 2;

/// Sampling window of `fine_mesh` and of the `served` points.
const SHORT_WINDOW_S: f64 = 0.002;

/// Points per `served` job.
const SERVED_POINTS: usize = 4;

/// Windows per `served` point.
const SERVED_WINDOWS: u64 = 3;

/// What a workload's measured loop produced.
struct Measured {
    /// Host seconds of each set-up repetition.
    setup_s: Vec<f64>,
    /// Host seconds the caller waited for each completed unit of work.
    unit_s: Vec<f64>,
    /// Virtual seconds one unit of work emulates.
    unit_virtual_s: f64,
    attempted: u64,
    failed: u64,
    /// Instructions the emulated cores retired in the measured units.
    instructions: u64,
    /// Whether the loop's emulation runs as sweep points (each built and
    /// run inside its unit) rather than as bare windows.
    points: bool,
    obs_before: Snapshot,
    obs_after: Snapshot,
    problems: Vec<String>,
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-up repetitions interleaved with a measured loop's units, one before
/// the first unit and then one whenever [`SETUP_EVERY`] has passed, so that
/// their median sees the same host as the units do: on a shared host the
/// speed changes for seconds at a time, and repetitions taken back to back
/// all land in one such stretch. Each call of `setup` performs one
/// repetition and returns the host seconds it took. A traced run reports
/// no set-up time and runs none, as they would land in the layers' spans.
struct Setups<F> {
    setup: F,
    enabled: bool,
    next: Instant,
    samples: Vec<f64>,
}

impl<F: FnMut() -> Result<f64, String>> Setups<F> {
    fn new(trace: bool, setup: F) -> Setups<F> {
        Setups {
            setup,
            enabled: !trace,
            next: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Runs one repetition if the next one is due.
    fn tick(&mut self) -> Result<(), String> {
        if self.enabled && Instant::now() >= self.next {
            self.samples.push((self.setup)()?);
            self.next = Instant::now() + SETUP_EVERY;
        }
        Ok(())
    }
}

/// Runs one workload and assembles its result line.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to report
/// (a scenario that does not build, a server that does not start).
pub fn run(name: &str, seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let start = temu_obs::global().snapshot();
    let m = match name {
        "fig6" => windows(&fig6(seed)?, 0.010, 1, FIG6_WINDOWS, budget, trace)?,
        "fine_mesh" => windows(
            &fine_mesh(seed),
            SHORT_WINDOW_S,
            FINE_MESH_WINDOWS,
            FINE_MESH_WINDOWS,
            budget,
            trace,
        )?,
        "served" => served(seed, budget, trace)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    for problem in &m.problems {
        eprintln!("check failed: {problem}");
    }
    Ok(Outcome {
        correct: m.problems.is_empty(),
        attempted: m.attempted,
        failed: m.failed,
        metrics: if trace {
            per_layer(&m, &start)
        } else {
            end_to_end(&m)
        },
    })
}

/// `fig6`: `Scenario::paper_fig6` with the seed moving the DFS thresholds
/// around the paper's 350/340 K and the MATRIX-TM length around its
/// 20 000 iterations. Neither changes the measured windows' work: the die
/// stays below the thresholds and the cores stay busy through the first
/// virtual second, which is all the loop runs.
fn fig6(seed: u64) -> Result<Scenario, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot_k = 349.0 + f64::from(rng.gen_range(0u32..2000)) / 1000.0;
    let iterations = rng.gen_range(19_000..21_000);
    Ok(Scenario::paper_fig6()
        .workload(Workload::Matrix(MatrixConfig::thermal(4, iterations)))
        .policy(DfsPolicy::new(hot_k, hot_k - 10.0, 500_000_000, 100_000_000).map_err(text)?))
}

/// `fine_mesh`: one core of the §7 bus platform dithering seeded
/// 128×128 images in 2 ms windows, on a die meshed far finer than the
/// paper's and solved by strict multigrid with serial sweeps, so the
/// thermal step outweighs the ISS.
fn fine_mesh(seed: u64) -> Scenario {
    Scenario::new()
        .platform(PlatformConfig::paper_bus(1))
        .workload(Workload::Dithering {
            cfg: DitherConfig {
                width: 128,
                height: 128,
                images: 16,
                cores: 1,
            },
            seed,
        })
        .grid(GridConfig {
            default_div: 18,
            hot_div: 36,
            filler_pitch_um: 120.0,
            sweep: SweepMode::Serial,
            implicit_solve: ImplicitSolve::Multigrid,
            strict_convergence: true,
            ..GridConfig::default()
        })
        .sampling_window_s(SHORT_WINDOW_S)
        .no_policy()
        .windows(FINE_MESH_WINDOWS)
}

/// Drives one emulation window by window (`fig6`, `fine_mesh`). A unit of
/// work is `per_unit` consecutive windows; every `per_build` windows, a
/// multiple of `per_unit`, the loop rebuilds the emulation, untimed.
/// Set-up is building the emulation.
fn windows(
    scenario: &Scenario,
    window_s: f64,
    per_unit: u64,
    per_build: u64,
    budget: Duration,
    trace: bool,
) -> Result<Measured, String> {
    let mut setups = Setups::new(trace, || {
        let t = Instant::now();
        let built = scenario.build().map_err(text)?;
        let took = seconds_since(t);
        drop(built);
        Ok(took)
    });
    let mut emu = scenario.build().map_err(text)?;
    let mut problems = Vec::new();
    let (mut unit_s, mut failed, mut instructions, mut in_build) = (Vec::new(), 0u64, 0u64, 0u64);
    let obs_before = temu_obs::global().snapshot();
    let end = Instant::now() + budget;
    while unit_s.is_empty() || Instant::now() < end {
        setups.tick()?;
        if in_build == per_build {
            check_emulation(&emu, &mut problems);
            instructions += emu.totals().aggregate.total_instructions();
            emu = scenario.build().map_err(text)?;
            in_build = 0;
        }
        let t = Instant::now();
        let outcome = (0..per_unit).try_for_each(|_| emu.run_window());
        let dt = seconds_since(t);
        in_build += per_unit;
        match outcome {
            Ok(()) => unit_s.push(dt),
            Err(e) => {
                failed += 1;
                problems.push(format!("window failed: {e}"));
                break;
            }
        }
    }
    let obs_after = temu_obs::global().snapshot();
    check_emulation(&emu, &mut problems);
    instructions += emu.totals().aggregate.total_instructions();
    check_rebuild(scenario, &emu.trace().samples, &mut problems)?;
    Ok(Measured {
        setup_s: setups.samples,
        unit_virtual_s: window_s * per_unit as f64,
        attempted: unit_s.len() as u64 + failed,
        failed,
        unit_s,
        instructions,
        points: false,
        obs_before,
        obs_after,
        problems,
    })
}

fn check_emulation(emu: &ThermalEmulation, problems: &mut Vec<String>) {
    let unconverged = emu.totals().solver.unconverged_substeps;
    if unconverged > 0 {
        problems.push(format!("{unconverged} thermal substep(s) did not converge"));
    }
    if let Some(s) = emu
        .trace()
        .samples
        .iter()
        .find(|s| !SANE_K.contains(&s.max_temp_k))
    {
        problems.push(format!(
            "implausible temperature {} K at {} s",
            s.max_temp_k, s.t_virtual_s
        ));
    }
}

/// A fresh build of `scenario` must reproduce the first windows of the
/// last measured emulation's trace exactly: the same temperatures, clocks
/// and modeled FPGA time. A build that leaks state from an earlier one, or a
/// solver whose result depends on timing, fails here.
fn check_rebuild(
    scenario: &Scenario,
    reference: &[TraceSample],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let n = reference.len().min(CHECK_WINDOWS);
    let mut fresh = scenario.build().map_err(text)?;
    for _ in 0..n {
        fresh.run_window().map_err(text)?;
    }
    if fresh.trace().samples[..] != reference[..n] {
        problems.push(format!(
            "a fresh build did not reproduce the first {n} window(s) of the measured run"
        ));
    }
    Ok(())
}

/// One `served` job: the 1-core exploration point over four DITHERING
/// image sets drawn from the seed's stream, so no two jobs share a point
/// and every point misses the server's result cache. Image seeds stay
/// below 2^53: the wire format carries numbers as JSON doubles.
fn served_job(rng: &mut StdRng) -> SweepSpec {
    let images = (0..SERVED_POINTS)
        .map(|_| WorkloadSpec::Dithering {
            width: 64,
            height: 64,
            images: 2,
            cores: 1,
            seed: rng.next_u64() >> 11,
        })
        .collect();
    SweepSpec {
        name: String::from("served"),
        base: ScenarioSpec {
            sampling_window_s: Some(SHORT_WINDOW_S),
            windows: Some(SERVED_WINDOWS),
            ..ScenarioSpec::preset_with("exploration_bus", 1)
        },
        axes: vec![AxisSpec::Workloads(images)],
        threads: Some(1),
    }
}

/// `served`: one client submits jobs to an in-process `temu-serve` (one
/// worker, in-memory cache) and watches each to `done` before the next.
/// The unit of work is a job, timed at the client from submit to `done`;
/// set-up is starting a server and getting its first answer, to `stats`.
fn served(seed: u64, budget: Duration, trace: bool) -> Result<Measured, String> {
    let config = || ServeConfig {
        addr: String::from("127.0.0.1:0"),
        ..ServeConfig::default()
    };
    let setups = Setups::new(trace, || {
        let t = Instant::now();
        let server = Server::spawn(config()).map_err(text)?;
        let answered =
            Client::connect(&server.addr().to_string()).and_then(|mut client| client.stats());
        let took = seconds_since(t);
        server.shutdown();
        answered.map_err(text)?;
        Ok(took)
    });
    let server = Server::spawn(config()).map_err(text)?;
    let measured = Client::connect(&server.addr().to_string())
        .map_err(text)
        .and_then(|mut client| submit_jobs(&mut client, seed, budget, setups));
    server.shutdown();
    measured
}

fn submit_jobs(
    client: &mut Client,
    seed: u64,
    budget: Duration,
    mut setups: Setups<impl FnMut() -> Result<f64, String>>,
) -> Result<Measured, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut problems = Vec::new();
    let (mut unit_s, mut attempted, mut failed, mut instructions) = (Vec::new(), 0u64, 0u64, 0u64);
    let mut first: Option<(u64, SweepSpec)> = None;
    let obs_before = temu_obs::global().snapshot();
    let end = Instant::now() + budget;
    while attempted == 0 || Instant::now() < end {
        setups.tick()?;
        let spec = served_job(&mut rng);
        attempted += 1;
        let t = Instant::now();
        let submitted = client.submit(&spec, true, |_| {});
        let latency = seconds_since(t);
        match submitted {
            Ok(sub) => match &sub.done {
                Some(done)
                    if done.ok && done.executed == SERVED_POINTS as u64 && done.cache_hits == 0 =>
                {
                    unit_s.push(latency);
                    instructions += report_points(&client.result(sub.job).map_err(text)?)
                        .iter()
                        .filter_map(|p| p.get("instructions").and_then(JsonValue::as_u64))
                        .sum::<u64>();
                    if first.is_none() {
                        first = Some((sub.job, spec));
                    }
                }
                other => {
                    failed += 1;
                    problems.push(format!("served job {} ended {other:?}", sub.job));
                }
            },
            Err(e) => {
                failed += 1;
                problems.push(format!("submit failed: {e}"));
                break;
            }
        }
    }
    let obs_after = temu_obs::global().snapshot();
    let (job, spec) = first.ok_or("no served job completed")?;
    check_served(client, job, &spec, &mut problems)?;
    Ok(Measured {
        setup_s: setups.samples,
        unit_s,
        unit_virtual_s: SERVED_POINTS as f64 * SERVED_WINDOWS as f64 * SHORT_WINDOW_S,
        attempted,
        failed,
        instructions,
        points: true,
        obs_before,
        obs_after,
        problems,
    })
}

/// The per-point reports of a `result` frame.
fn report_points(frame: &JsonValue) -> &[JsonValue] {
    frame
        .get("report")
        .and_then(|r| r.get("points"))
        .and_then(JsonValue::as_arr)
        .unwrap_or_default()
}

/// The server's report of `job` must match running its points locally
/// (content key, windows, instructions, peak temperature as reported).
fn check_served(
    client: &mut Client,
    job: u64,
    spec: &SweepSpec,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let frame = client.result(job).map_err(text)?;
    let remote = report_points(&frame);
    let scenarios: Vec<Scenario> = spec
        .lower()
        .map_err(text)?
        .expand()
        .into_iter()
        .map(|p| p.scenario.map_err(text))
        .collect::<Result<_, _>>()?;
    if remote.len() != scenarios.len() {
        problems.push(format!(
            "served job {job} reported {} of {} points",
            remote.len(),
            scenarios.len()
        ));
    }
    for (s, point) in scenarios.iter().zip(remote) {
        let run = s.run().map_err(text)?;
        let peak = |t: f64| format!("{t:.3}");
        let key = format!("{:016x}", s.content_key());
        let same = point.get("key").and_then(JsonValue::as_str) == Some(key.as_str())
            && point.get("windows").and_then(JsonValue::as_u64) == Some(run.report.windows)
            && point.get("instructions").and_then(JsonValue::as_u64)
                == Some(run.report.aggregate.total_instructions())
            && point
                .get("peak_temp_k")
                .and_then(JsonValue::as_f64)
                .map(peak)
                == run.trace.peak_temp().map(peak);
        if !same {
            problems.push(format!(
                "served point {} differs from its local run: {point}",
                s.label()
            ));
        }
    }
    Ok(())
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `q`-quantile of `xs`, interpolated linearly between neighbouring
/// order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let i = q * (v.len() - 1) as f64;
    let (lo, hi) = (i.floor() as usize, i.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (i - lo as f64)
}

/// What a user sees: the host seconds the caller waited per emulated
/// second, and the median set-up time. In a closed loop of equal units
/// this speed is also the unit latency, up to the unit's fixed virtual
/// length.
///
/// The speed is the 10th percentile over the run's units, not the median:
/// on a shared host, other tenants slow bursts of consecutive units by up
/// to 2× for seconds at a time, so the median of a run moves with how many
/// bursts it caught, while the fastest tenth tracks the emulator's own
/// cost.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        metric(
            "wall_s_per_emulated_s_p10",
            quantile(&m.unit_s, 0.1) / m.unit_virtual_s,
            "s/s",
        ),
        metric("setup_s", quantile(&m.setup_s, 0.5), "s"),
    ]
}

/// Samples and summed values a program histogram recorded between two
/// snapshots.
fn span(from: &Snapshot, to: &Snapshot, name: &str) -> (f64, f64) {
    let read = |s: &Snapshot| {
        s.histograms
            .get(name)
            .map_or((0, 0), |h| (h.count(), h.sum))
    };
    let ((c0, s0), (c1, s1)) = (read(from), read(to));
    (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
}

/// One number per layer, read from the program's own spans over the
/// measured loop and the instructions the loop counted: mean scenario build; mean window and, per
/// window, the thermal solver's share; the solver's substeps per second
/// and sweeps (multigrid cycles) per substep; the platform's instructions
/// per host second of window time outside the thermal step, and per
/// window; and per unit of work the host time outside build and emulation
/// (loop, server, protocol and client).
fn per_layer(m: &Measured, start: &Snapshot) -> Vec<Metric> {
    let (before, after) = (&m.obs_before, &m.obs_after);
    // The sweep points build inside their units, the window workloads
    // before and between them.
    let (builds, build_ns) = span(start, after, "core.point_build_ns");
    let (windows, window_ns) = span(before, after, "core.window_ns");
    let (_, thermal_ns) = span(before, after, "thermal.substep_ns");
    let (substeps, sweeps) = span(before, after, "thermal.substep_sweeps");
    let engine_ns = if m.points {
        build_ns + span(before, after, "core.point_run_ns").1
    } else {
        window_ns
    };
    let unit_ns = m.unit_s.iter().sum::<f64>() * 1e9;
    let instructions = m.instructions as f64;
    vec![
        metric("build_ms", build_ns / builds / 1e6, "ms"),
        metric("window_us", window_ns / windows / 1e3, "us"),
        metric("thermal_us", thermal_ns / windows / 1e3, "us"),
        metric("thermal_substeps_per_s", substeps / thermal_ns * 1e9, "1/s"),
        metric("sweeps_per_substep", sweeps / substeps, "count"),
        metric(
            "iss_mips",
            instructions / (window_ns - thermal_ns) * 1e3,
            "MIPS",
        ),
        metric("instructions_per_window", instructions / windows, "count"),
        metric(
            "dispatch_us",
            (unit_ns - engine_ns) / m.unit_s.len() as f64 / 1e3,
            "us",
        ),
    ]
}
