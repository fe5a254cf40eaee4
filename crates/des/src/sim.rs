//! The cycle-driven machine.

use crate::signals::SignalBoard;
use std::time::{Duration, Instant};
use temu_cpu::{Cpu, CpuError};
use temu_isa::Program;
use temu_mem::MemArray;
use temu_platform::{PlatformConfig, PlatformError, Uncore};

/// Result of a cycle-driven simulation run.
#[derive(Clone, Debug)]
pub struct DesSummary {
    /// Simulated cycles (the slowest core's local time — directly comparable
    /// to `temu_platform::RunSummary::cycles`).
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Whether every core halted.
    pub all_halted: bool,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
    /// Bit transitions observed on the signal board.
    pub signal_transitions: u64,
    /// Update phases executed (≥ one per simulated cycle).
    pub commits: u64,
}

impl DesSummary {
    /// Effective simulation speed in simulated cycles per host second (the
    /// paper quotes MPARM at ~120 kHz on a 3 GHz Pentium 4).
    pub fn effective_hz(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// The signal-level, cycle-driven simulator of a `temu` platform.
///
/// Functionally and cycle-count-wise identical to
/// [`temu_platform::Machine`] (same cores, same memory system, same timing
/// semantics — asserted by cross-validation tests); the difference is the
/// execution discipline: a global clock loop that evaluates **every
/// component every cycle** and samples its ports onto the [`SignalBoard`]
/// with a two-pass settle/commit, like an HDL or SystemC kernel.
pub struct DesMachine {
    cfg: PlatformConfig,
    cores: Vec<Cpu>,
    uncore: Uncore,
    board: SignalBoard,
    /// Per-core port indices: pc, status, local-time, retired instructions.
    sig_core: Vec<[usize; 4]>,
    /// Per-core memory-side ports: icache accesses, dcache accesses,
    /// private-memory reads+writes.
    sig_mem: Vec<[usize; 3]>,
    /// Platform ports: interconnect transactions, interconnect busy cycles,
    /// shared-memory accesses.
    sig_platform: [usize; 3],
    now: u64,
}

impl DesMachine {
    /// Builds the simulator for a platform configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`PlatformError`] validation error, exactly as
    /// [`temu_platform::Machine::new`] does.
    pub fn new(cfg: PlatformConfig) -> Result<DesMachine, PlatformError> {
        cfg.validate()?;
        let cores: Vec<Cpu> = (0..cfg.cores).map(|i| Cpu::new(i, cfg.cpu)).collect();
        let uncore = Uncore::new(&cfg);
        let mut board = SignalBoard::new();
        let mut sig_core = Vec::new();
        let mut sig_mem = Vec::new();
        for i in 0..cfg.cores {
            sig_core.push([
                board.register(format!("core{i}.pc")),
                board.register(format!("core{i}.status")),
                board.register(format!("core{i}.time")),
                board.register(format!("core{i}.instret")),
            ]);
            sig_mem.push([
                board.register(format!("icache{i}.accesses")),
                board.register(format!("dcache{i}.accesses")),
                board.register(format!("pmem{i}.accesses")),
            ]);
        }
        let sig_platform = [
            board.register("ic.transactions"),
            board.register("ic.busy"),
            board.register("smem.accesses"),
        ];
        Ok(DesMachine { cfg, cores, uncore, board, sig_core, sig_mem, sig_platform, now: 0 })
    }

    /// The configuration the simulator was built from.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Loads a program image into one core (same loader semantics as the
    /// fast engine: entry PC, stack at the top of private memory).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::ProgramLoad`] if the image does not fit in
    /// private memory.
    pub fn load_program(&mut self, core: usize, program: &Program) -> Result<(), PlatformError> {
        self.uncore
            .load_private(core, program.base, &program.to_bytes())
            .map_err(|e| PlatformError::ProgramLoad { core, source: e })?;
        self.cores[core].reset(program.entry);
        let sp = self.cfg.private_mem.size - 16;
        self.cores[core].regs_mut().write(temu_isa::Reg::SP, sp);
        Ok(())
    }

    /// Loads the same image on every core.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::ProgramLoad`] if the image does not fit in
    /// private memory.
    pub fn load_program_all(&mut self, program: &Program) -> Result<(), PlatformError> {
        for core in 0..self.cores.len() {
            self.load_program(core, program)?;
        }
        Ok(())
    }

    /// Mutable functional view of the shared memory (input data loading).
    pub fn shared_mut(&mut self) -> &mut MemArray {
        self.uncore.shared_mut()
    }

    /// Functional view of the shared memory.
    pub fn shared(&self) -> &MemArray {
        self.uncore.shared()
    }

    /// Core `i`.
    pub fn core(&self, i: usize) -> &Cpu {
        &self.cores[i]
    }

    /// The memory system (caches, memories, interconnect, MMIO), for
    /// comparing its full state with the fast engine's.
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Publishes a new virtual frequency in the MMIO window, as
    /// `temu_platform::Machine::set_virtual_hz` does (the baseline has no
    /// VPCM to retune).
    pub fn set_virtual_hz(&mut self, hz: u64) {
        self.uncore.mmio.set_freq_mhz((hz / 1_000_000) as u32);
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(Cpu::is_halted)
    }

    /// Simulated time: the slowest core's local cycle.
    pub fn cycles(&self) -> u64 {
        self.cores.iter().map(Cpu::time).max().unwrap_or(0)
    }

    /// The signal board (transition statistics).
    pub fn board(&self) -> &SignalBoard {
        &self.board
    }

    /// Simulates one clock cycle: execute the cores scheduled at this cycle
    /// (arbitration-tie order), then evaluate and sample every component,
    /// settling the signal board in up to two delta passes.
    ///
    /// # Errors
    ///
    /// Propagates the first core fault: the one with the smallest (time,
    /// tie key).
    pub fn tick(&mut self) -> Result<(), CpuError> {
        // Execute phase: all cores whose local time is this cycle, in the
        // interconnect's arbitration-tie order. This is the reference order:
        // the fast engine issues every shared access in the same (time, tie
        // key) order and only runs core-local phases ahead, hence identical
        // cycle counts.
        loop {
            let mut best: Option<usize> = None;
            let mut best_key = usize::MAX;
            for (i, c) in self.cores.iter().enumerate() {
                if !c.is_halted() && c.time() == self.now {
                    let key = self.uncore.tie_key(i);
                    if key < best_key {
                        best_key = key;
                        best = Some(i);
                    }
                }
            }
            let Some(i) = best else { break };
            self.cores[i].step(&mut self.uncore)?;
        }

        // Evaluate/update phases (delta cycles): sample every port, commit,
        // settle once more if anything moved.
        self.sample_all();
        if self.board.unsettled() {
            self.board.commit();
            self.sample_all();
        }
        self.board.commit();
        self.now += 1;
        Ok(())
    }

    fn sample_all(&mut self) {
        for (i, core) in self.cores.iter().enumerate() {
            let [pc, status, time, instret] = self.sig_core[i];
            self.board.drive(pc, core.pc());
            self.board
                .drive(status, u32::from(core.is_halted()) | (u32::from(core.mid_instruction()) << 1));
            self.board.drive(time, core.time() as u32);
            self.board.drive(instret, core.stats().instructions as u32);

            let [ic, dc, pm] = self.sig_mem[i];
            let (icache, dcache) = self.uncore.cache_stats(i);
            self.board.drive(ic, icache.map(|s| s.accesses() as u32).unwrap_or(0));
            self.board.drive(dc, dcache.map(|s| s.accesses() as u32).unwrap_or(0));
            self.board.drive(pm, self.uncore.private_stats(i).accesses() as u32);
        }
        let ic_stats = self.uncore.interconnect_stats();
        let (t, b) = (ic_stats.transactions as u32, ic_stats.busy_cycles as u32);
        let s = self.uncore.shared_stats().accesses() as u32;
        let [ic_t, ic_b, sm] = self.sig_platform;
        self.board.drive(ic_t, t);
        self.board.drive(ic_b, b);
        self.board.drive(sm, s);
    }

    /// Runs until every core halts or `max_cycles` simulated cycles elapse.
    ///
    /// # Errors
    ///
    /// Propagates the first core fault: the one with the smallest (time,
    /// tie key).
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<DesSummary, CpuError> {
        let t0 = Instant::now();
        while !self.all_halted() && self.now < max_cycles {
            self.tick()?;
        }
        // Drain the remaining scheduled work so `cycles` matches the fast
        // engine's "slowest core" metric even when halting early.
        Ok(DesSummary {
            cycles: self.cycles(),
            instructions: self.cores.iter().map(|c| c.stats().instructions).sum(),
            all_halted: self.all_halted(),
            wall: t0.elapsed(),
            signal_transitions: self.board.transitions(),
            commits: self.board.commits(),
        })
    }

    /// Runs for a bounded number of cycles and extrapolates nothing —
    /// convenience for time-boxed baseline measurements (the paper could run
    /// MPARM for only 0.18 emulated seconds in two days).
    ///
    /// # Errors
    ///
    /// Propagates the first core fault: the one with the smallest (time,
    /// tie key).
    pub fn run_slice(&mut self, cycles: u64) -> Result<DesSummary, CpuError> {
        let end = self.now + cycles;
        let t0 = Instant::now();
        while !self.all_halted() && self.now < end {
            self.tick()?;
        }
        Ok(DesSummary {
            cycles: self.cycles(),
            instructions: self.cores.iter().map(|c| c.stats().instructions).sum(),
            all_halted: self.all_halted(),
            wall: t0.elapsed(),
            signal_transitions: self.board.transitions(),
            commits: self.board.commits(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temu_platform::Machine;
    use temu_workloads::dithering::{self, DitherConfig};
    use temu_workloads::image::GreyImage;
    use temu_workloads::matrix::{self, MatrixConfig};

    /// Runs the same workload on both engines and asserts identical cycle
    /// counts and instruction counts.
    fn cross_validate_matrix(platform: PlatformConfig, cfg: &MatrixConfig) {
        let program = matrix::program(cfg).unwrap();
        let mut fast = Machine::new(platform.clone()).unwrap();
        fast.load_program_all(&program).unwrap();
        let f = fast.run_to_halt(200_000_000).unwrap();
        assert!(f.all_halted);

        let mut des = DesMachine::new(platform).unwrap();
        des.load_program_all(&program).unwrap();
        let d = des.run_to_halt(200_000_000).unwrap();
        assert!(d.all_halted);

        assert_eq!(d.cycles, f.cycles, "cycle counts must match exactly");
        assert_eq!(d.instructions, f.instructions);
    }

    #[test]
    fn cross_validation_single_core_bus() {
        cross_validate_matrix(PlatformConfig::paper_bus(1), &MatrixConfig { n: 6, iters: 2, cores: 1 });
    }

    #[test]
    fn cross_validation_four_cores_bus() {
        cross_validate_matrix(PlatformConfig::paper_bus(4), &MatrixConfig { n: 6, iters: 1, cores: 4 });
    }

    #[test]
    fn cross_validation_eight_cores_bus() {
        cross_validate_matrix(PlatformConfig::paper_bus(8), &MatrixConfig { n: 4, iters: 1, cores: 8 });
    }

    #[test]
    fn cross_validation_four_cores_noc() {
        cross_validate_matrix(PlatformConfig::paper_noc(4), &MatrixConfig { n: 6, iters: 1, cores: 4 });
    }

    #[test]
    fn cross_validation_thermal_platform() {
        cross_validate_matrix(PlatformConfig::paper_thermal(4), &MatrixConfig { n: 6, iters: 1, cores: 4 });
    }

    #[test]
    fn cross_validation_shared_cacheable_bus() {
        // Write-back misses over the bus (combined eviction+fill bursts).
        let mut platform = PlatformConfig::paper_bus(2);
        platform.shared_cacheable = true;
        cross_validate_matrix(platform, &MatrixConfig { n: 5, iters: 1, cores: 2 });
    }

    #[test]
    fn cross_validation_dithering_noc() {
        let dcfg = DitherConfig::small(4);
        let program = dithering::program(&dcfg).unwrap();
        let img = GreyImage::synthetic(32, 32, 5);
        let off = dcfg.image_addr(0) - temu_workloads::SHARED_BASE;

        let mut fast = Machine::new(PlatformConfig::paper_noc(4)).unwrap();
        fast.load_program_all(&program).unwrap();
        fast.shared_mut().load(off, &img.pixels).unwrap();
        let f = fast.run_to_halt(200_000_000).unwrap();

        let mut des = DesMachine::new(PlatformConfig::paper_noc(4)).unwrap();
        des.load_program_all(&program).unwrap();
        des.shared_mut().load(off, &img.pixels).unwrap();
        let d = des.run_to_halt(200_000_000).unwrap();

        assert_eq!(d.cycles, f.cycles);
        assert_eq!(des.shared().slice(off, 32 * 32), fast.shared().slice(off, 32 * 32), "same dithered image");
    }

    #[test]
    fn per_cycle_signal_work_happens() {
        let mut des = DesMachine::new(PlatformConfig::paper_bus(2)).unwrap();
        let program = matrix::program(&MatrixConfig { n: 4, iters: 1, cores: 2 }).unwrap();
        des.load_program_all(&program).unwrap();
        let s = des.run_to_halt(10_000_000).unwrap();
        assert!(s.commits >= s.cycles, "at least one update phase per cycle");
        assert!(s.signal_transitions > s.instructions, "ports toggled");
        assert!(s.effective_hz() > 0.0);
    }

    #[test]
    fn determinism() {
        let program = matrix::program(&MatrixConfig { n: 4, iters: 1, cores: 4 }).unwrap();
        let mut a = DesMachine::new(PlatformConfig::paper_bus(4)).unwrap();
        let mut b = DesMachine::new(PlatformConfig::paper_bus(4)).unwrap();
        a.load_program_all(&program).unwrap();
        b.load_program_all(&program).unwrap();
        let sa = a.run_to_halt(50_000_000).unwrap();
        let sb = b.run_to_halt(50_000_000).unwrap();
        assert_eq!(sa.cycles, sb.cycles);
        assert_eq!(sa.signal_transitions, sb.signal_transitions);
    }

    #[test]
    fn run_slice_is_resumable() {
        let program = matrix::program(&MatrixConfig { n: 6, iters: 3, cores: 1 }).unwrap();
        let mut des = DesMachine::new(PlatformConfig::paper_bus(1)).unwrap();
        des.load_program_all(&program).unwrap();
        let s1 = des.run_slice(5_000).unwrap();
        assert!(!s1.all_halted);
        let s2 = des.run_to_halt(200_000_000).unwrap();
        assert!(s2.all_halted);
        assert!(s2.cycles > s1.cycles);

        // The sliced run must end at the same total as an unsliced one.
        let mut whole = DesMachine::new(PlatformConfig::paper_bus(1)).unwrap();
        whole.load_program_all(&program).unwrap();
        let sw = whole.run_to_halt(200_000_000).unwrap();
        assert_eq!(s2.cycles, sw.cycles);
    }
}
