//! Fault injection for the chaos tests and the `chaos-smoke` CI gate.
//!
//! A [`FaultPlan`] names the faults the server should inject into itself:
//! worker panics mid-sweep, torn journal appends, dropped connections.
//! The plan comes from the `TEMU_FAULT` environment variable (parsed once,
//! on first use) or from [`install`] in tests; when neither sets one, every
//! injection point is a single relaxed atomic load — the production path
//! pays nothing else.
//!
//! ```text
//! TEMU_FAULT=worker_panic:0.2,torn_write,drop_conn:0.1
//! ```
//!
//! Each element is `name` (probability 1.0) or `name:p` with `0 < p <= 1`.
//! Unknown names are rejected loudly at parse time — a typo silently
//! injecting nothing would invalidate the chaos run it was meant to drive.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable naming the faults to inject.
pub const FAULT_ENV: &str = "TEMU_FAULT";

/// Which faults to inject, each with an independent per-event probability
/// (`0.0` disables the fault).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultPlan {
    /// Probability that a worker panics right after an executed sweep
    /// point was banked in the result store (a fully cached job never
    /// rolls it).
    pub worker_panic: f64,
    /// Probability that a journal append is torn mid-record.
    pub torn_write: f64,
    /// Probability that an accepted connection is dropped before serving.
    pub drop_conn: f64,
}

impl FaultPlan {
    /// Whether any fault is armed.
    #[must_use]
    pub fn active(&self) -> bool {
        self.worker_panic > 0.0 || self.torn_write > 0.0 || self.drop_conn > 0.0
    }

    /// Parses the `TEMU_FAULT` syntax
    /// (`worker_panic:0.2,torn_write,drop_conn:0.1`).
    ///
    /// # Errors
    ///
    /// A description of the first unknown fault name or unparsable
    /// probability.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, prob) = match part.split_once(':') {
                Some((name, p)) => {
                    let p: f64 = p
                        .trim()
                        .parse()
                        .map_err(|_| format!("{FAULT_ENV}: bad probability in {part:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("{FAULT_ENV}: probability out of [0, 1] in {part:?}"));
                    }
                    (name.trim(), p)
                }
                None => (part, 1.0),
            };
            match name {
                "worker_panic" => plan.worker_panic = prob,
                "torn_write" => plan.torn_write = prob,
                "drop_conn" => plan.drop_conn = prob,
                other => return Err(format!("{FAULT_ENV}: unknown fault {other:?}")),
            }
        }
        Ok(plan)
    }
}

struct FaultState {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
}

static STATE: OnceLock<FaultState> = OnceLock::new();
/// Fast-path flag mirroring `STATE.plan.active()`: injection points check
/// this single load before touching the lock.
static ARMED: AtomicBool = AtomicBool::new(false);

fn seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    u64::from(nanos) ^ (u64::from(std::process::id()) << 32)
}

fn state() -> &'static FaultState {
    STATE.get_or_init(|| {
        let plan = std::env::var(FAULT_ENV)
            .ok()
            .map(|text| match FaultPlan::parse(&text) {
                Ok(plan) => plan,
                // Refusing to start beats silently running a chaos gate
                // with no chaos in it.
                Err(e) => panic!("{e}"),
            })
            .unwrap_or_default();
        ARMED.store(plan.active(), Ordering::Release);
        FaultState { plan, rng: Mutex::new(StdRng::seed_from_u64(seed())) }
    })
}

/// Installs a plan programmatically (tests), bypassing the environment.
/// First caller wins against the env parse; a plan installed after faults
/// already fired is ignored (returns `false`).
pub fn install(plan: FaultPlan) -> bool {
    let mut installed = false;
    STATE.get_or_init(|| {
        installed = true;
        ARMED.store(plan.active(), Ordering::Release);
        FaultState { plan, rng: Mutex::new(StdRng::seed_from_u64(seed())) }
    });
    installed
}

/// Whether any fault is armed (one atomic load — safe to call on every
/// connection and executed point).
#[must_use]
pub fn armed() -> bool {
    if STATE.get().is_none() {
        // First touch: resolve the environment exactly once.
        state();
    }
    ARMED.load(Ordering::Acquire)
}

fn roll(prob: f64) -> bool {
    if !armed() || prob <= 0.0 {
        return false;
    }
    let s = state();
    let mut rng = s.rng.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    rng.gen_bool(prob)
}

/// Panics (the `worker_panic` fault) with probability from the plan.
/// Call sites sit under the worker's `catch_unwind`, so an injected panic
/// fails exactly one job.
pub fn worker_panic_point() {
    if roll(state_plan().worker_panic) {
        panic!("injected fault: worker_panic");
    }
}

/// Whether to drop the current connection (the `drop_conn` fault).
#[must_use]
pub fn drop_connection() -> bool {
    roll(state_plan().drop_conn)
}

/// Tears a record (the `torn_write` fault): returns a strict prefix of
/// `record` to write in place of the whole line, or `None` to write it
/// intact.
#[must_use]
pub fn torn_write(record: &str) -> Option<String> {
    if !roll(state_plan().torn_write) || record.len() < 2 {
        return None;
    }
    let s = state();
    let mut rng = s.rng.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let cut = rng.gen_range(1..record.len());
    let cut = (1..=cut).rev().find(|&i| record.is_char_boundary(i)).unwrap_or(1);
    Some(record[..cut].to_string())
}

fn state_plan() -> FaultPlan {
    if !armed() {
        return FaultPlan::default();
    }
    state().plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let plan = FaultPlan::parse("worker_panic:0.2,torn_write,drop_conn:0.1").unwrap();
        assert_eq!(plan, FaultPlan { worker_panic: 0.2, torn_write: 1.0, drop_conn: 0.1 });
        assert!(plan.active());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert!(!FaultPlan::parse("").unwrap().active());
    }

    #[test]
    fn parse_rejects_typos_and_bad_probabilities() {
        assert!(FaultPlan::parse("worker_panics").unwrap_err().contains("unknown fault"));
        assert!(FaultPlan::parse("torn_write:x").unwrap_err().contains("bad probability"));
        assert!(FaultPlan::parse("drop_conn:1.5").unwrap_err().contains("out of [0, 1]"));
    }
}
