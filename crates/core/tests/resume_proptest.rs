//! Property: splitting a run at *any* window boundary — run `k` windows,
//! checkpoint, serialize, deserialize, resume, run the remaining `n - k`
//! — produces a report and temperature trace bitwise-identical to the
//! uninterrupted `n`-window run. Sampled across both implicit solvers
//! and the DFS ladder variants, because each owns state a checkpoint
//! must carry (multigrid warm-start history, ladder level + hysteresis).

use proptest::prelude::*;
use temu_framework::{EmulationState, ImplicitSolve, Scenario, ScenarioRun};
use temu_platform::DfsPolicy;

#[derive(Clone, Copy, Debug)]
enum Ladder {
    /// No DFS: cores run at their nominal clock throughout.
    Off,
    /// The paper's 350 K / 340 K dual-threshold policy.
    Paper,
    /// Thresholds barely above ambient, so the ladder actually moves
    /// (and its position + hysteresis state matter) within a short run.
    Aggressive,
}

fn scenario(n: u64, solver: ImplicitSolve, ladder: Ladder) -> Scenario {
    let base = Scenario::exploration_bus(2)
        .sampling_window_s(0.002)
        .windows(n)
        .implicit_solve(solver);
    match ladder {
        Ladder::Off => base,
        Ladder::Paper => base.policy(DfsPolicy::paper()),
        Ladder::Aggressive => base.policy(
            DfsPolicy::new(301.0, 300.5, 500_000_000, 100_000_000)
                .expect("a barely-above-ambient band is a valid ladder"),
        ),
    }
}

/// Bitwise equality of everything a run reports except wall-clock time.
fn assert_run_bitwise_eq(split: &ScenarioRun, full: &ScenarioRun) {
    let (a, b) = (&split.report, &full.report);
    prop_assert_eq!(a.windows, b.windows);
    prop_assert_eq!(a.virtual_cycles, b.virtual_cycles);
    prop_assert_eq!(a.virtual_seconds.to_bits(), b.virtual_seconds.to_bits());
    prop_assert_eq!(a.fpga_seconds.to_bits(), b.fpga_seconds.to_bits());
    prop_assert_eq!(a.all_halted, b.all_halted);
    prop_assert_eq!(format!("{:?}", a.aggregate), format!("{:?}", b.aggregate));
    prop_assert_eq!(format!("{:?}", a.link), format!("{:?}", b.link));
    prop_assert_eq!(format!("{:?}", a.solver), format!("{:?}", b.solver));
    prop_assert_eq!(split.trace.samples.len(), full.trace.samples.len());
    for (x, y) in split.trace.samples.iter().zip(full.trace.samples.iter()) {
        prop_assert_eq!(x.virtual_hz, y.virtual_hz);
        prop_assert_eq!(x.max_temp_k.to_bits(), y.max_temp_k.to_bits());
        prop_assert_eq!(x.temps_k.len(), y.temps_k.len());
        for (tx, ty) in x.temps_k.iter().zip(&y.temps_k) {
            prop_assert_eq!(tx.to_bits(), ty.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_split_point_resumes_bitwise_identically(
        n in 4u64..9,
        split_roll in 0u64..1000,
        solver in prop::sample::select(&[ImplicitSolve::GaussSeidel, ImplicitSolve::Multigrid]),
        ladder in prop::sample::select(&[Ladder::Off, Ladder::Paper, Ladder::Aggressive]),
    ) {
        let k = 1 + split_roll % (n - 1); // 1 ..= n-1: a genuine mid-run boundary
        let scenario = scenario(n, solver, ladder);
        let full = scenario.run().unwrap();

        // Run the first k windows, checkpoint, and force the state
        // through its serialized form — the proof covers the codec, not
        // just the in-memory struct.
        let mut emu = scenario.build().unwrap();
        let _ = emu.run_windows(k).unwrap();
        let state = emu.checkpoint();
        prop_assert_eq!(state.windows(), k);
        prop_assert_eq!(state.scenario_key(), scenario.content_key());
        let state = EmulationState::from_bytes(&state.to_bytes()).unwrap();

        let resumed = scenario.resume_run(&state).unwrap();
        assert_run_bitwise_eq(&resumed, &full);
    }
}
