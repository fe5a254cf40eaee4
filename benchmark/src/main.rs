//! Emulation-speed benchmark of temu, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <fig6|fine_mesh|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds one workload's inputs from `--seed`, drives the workload
//! for `--seconds` of host time, timing set-up repetitions between its
//! units, checks its outputs, and prints one JSON object as the last line
//! of stdout:
//!
//! ```text
//! {"correct": true, "attempted": 52, "failed": 0, "metrics": {"wall_s_per_emulated_s_p10": {"value": 48.7, "unit": "s/s"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics registry is off and the end-to-end metrics
//! are reported; with `--trace 1` it is on and the per-layer metrics are
//! reported instead, read from the program's own spans (see [`workloads`]).

mod workloads;

use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: temu-benchmark --workload <fig6|fine_mesh|served> --seed <n> --seconds <s> --trace <0|1>";

/// One named measurement of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        // JSON has no NaN or infinity; a non-finite value is a broken
        // measurement and marks the run incorrect.
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Error text for the benchmark's `Result<_, String>` plumbing.
fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Args {
    workload: String,
    seed: u64,
    budget: Duration,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    if !argv.len().is_multiple_of(2) {
        return Err(String::from("every flag takes exactly one value"));
    }
    let (mut workload, mut seed, mut budget, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let (flag, value) = (pair[0].as_str(), pair[1].as_str());
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?;
                budget = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        budget: budget.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // End-to-end numbers are taken with the metrics registry off, so they
    // carry no instrumentation cost; the traced run switches it on.
    temu_obs::global().set_enabled(args.trace);
    match workloads::run(&args.workload, args.seed, args.budget, args.trace) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
