//! Ablation for the §3.3 design choice: the custom 32-bit bus's configurable
//! arbitration policies, measured on the shared-memory-heavy Dithering
//! workload.

use temu_framework::Workload;
use temu_interconnect::Arbitration;
use temu_platform::{Machine, PlatformConfig};
use temu_workloads::dithering::DitherConfig;

fn main() {
    let cores = 4;
    let workload = Workload::Dithering { cfg: DitherConfig { width: 64, height: 64, images: 2, cores }, seed: 99 };
    let program = workload.program().expect("assembles");
    println!("Bus-arbitration ablation: Dithering, {cores} cores, shared-memory images\n");
    println!("{:<28} {:>12} {:>16} {:>18}", "policy", "cycles", "bus contention", "per-core balance");

    for (name, arb) in [
        ("fixed priority", Arbitration::FixedPriority),
        ("round robin", Arbitration::RoundRobin),
        ("TDMA (16-cycle slots)", Arbitration::Tdma { slot_cycles: 16 }),
    ] {
        let platform = PlatformConfig::paper_custom_bus(cores as usize, arb);
        let mut machine = Machine::new(platform).expect("valid platform");
        machine.load_program_all(&program).expect("fits");
        workload.load_inputs(machine.shared_mut()).expect("images fit in shared memory");
        let s = machine.run_to_halt(u64::MAX).expect("runs");
        assert!(s.all_halted);
        let times: Vec<u64> = s.stats.cores.iter().map(|c| c.active_cycles + c.stall_cycles).collect();
        let max = *times.iter().max().expect("cores") as f64;
        let min = *times.iter().min().expect("cores") as f64;
        println!(
            "{:<28} {:>12} {:>16} {:>17.3}",
            name,
            s.cycles,
            s.stats.interconnect.contention_cycles,
            min / max,
        );
    }
    println!(
        "\nReading the table: the platform's bus queues requests in arrival order\n\
         (DESIGN.md section 4 — what keeps the two engines cycle-exact), so the\n\
         priority policies differ only when requests collide in the same cycle,\n\
         which is rare for blocking single-outstanding cores. The policy knob that\n\
         reshapes timing is TDMA: its slot discipline bounds any core's worst-case\n\
         wait at the price of idle slots (more total cycles, more contention wait)."
    );
}
