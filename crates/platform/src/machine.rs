//! The emulated MPSoC machine and its execution engine.

use crate::config::PlatformConfig;
use crate::error::PlatformError;
use crate::sniffer::SnifferMode;
use crate::stats::WindowStats;
use crate::uncore::Uncore;
use crate::vpcm::Vpcm;
use std::time::{Duration, Instant};
use temu_cpu::{Cpu, CpuError};
use temu_isa::{Program, Reg};
use temu_mem::MemArray;
use temu_state::{StateError, StateReader, StateWriter};

/// Outcome of a [`Machine::run_to_halt`] call.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Virtual cycles elapsed (the slowest core's local time).
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Whether every core reached `halt` (false: the cycle budget ran out).
    pub all_halted: bool,
    /// Host wall-clock time the emulation took.
    pub wall: Duration,
    /// Modeled FPGA execution time (`(cycles + freezes) / fpga_hz`) — the
    /// quantity Table 3 reports for the HW emulator.
    pub fpga_seconds: f64,
    /// Aggregate sniffer statistics for the whole run.
    pub stats: WindowStats,
}

impl RunSummary {
    /// Effective emulation throughput of the Rust engine in virtual
    /// cycles per host second.
    pub fn emulated_hz(&self) -> f64 {
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// One emulated MPSoC: cores + memory system + interconnect + VPCM.
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: PlatformConfig,
    cores: Vec<Cpu>,
    uncore: Uncore,
    vpcm: Vpcm,
    window_start: u64,
    /// Cores run accesses below this address ahead ([`Cpu::run_local`]).
    local_end: u64,
}

impl Machine {
    /// Builds a machine from a platform configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError`] if the configuration is inconsistent.
    pub fn new(cfg: PlatformConfig) -> Result<Machine, PlatformError> {
        cfg.validate()?;
        let cores = (0..cfg.cores).map(|i| Cpu::new(i, cfg.cpu)).collect();
        let uncore = Uncore::new(&cfg);
        let vpcm = Vpcm::new(cfg.fpga_hz, cfg.virtual_hz);
        let local_end = core_local_end(&cfg);
        Ok(Machine { cfg, cores, uncore, vpcm, window_start: 0, local_end })
    }

    /// The configuration the machine was built from.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Core `i`.
    pub fn core(&self, i: usize) -> &Cpu {
        &self.cores[i]
    }

    /// The memory system (functional views, MMIO, event counts).
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// The VPCM.
    pub fn vpcm(&self) -> &Vpcm {
        &self.vpcm
    }

    /// Mutable VPCM (the framework records link-congestion freezes here).
    pub fn vpcm_mut(&mut self) -> &mut Vpcm {
        &mut self.vpcm
    }

    /// Retunes the virtual clock (DFS actuator) and publishes the new
    /// frequency in the MMIO window.
    pub fn set_virtual_hz(&mut self, hz: u64) {
        self.vpcm.set_virtual_hz(hz);
        self.uncore.mmio.set_freq_mhz((hz / 1_000_000) as u32);
    }

    /// Writes a temperature sample into sensor register `i`.
    pub fn set_sensor_kelvin(&mut self, i: usize, kelvin: f64) {
        self.uncore.mmio.set_sensor_kelvin(i, kelvin);
    }

    /// Bytes core `i` wrote to its debug console.
    pub fn console(&self, i: usize) -> &[u8] {
        self.uncore.mmio.console(i)
    }

    /// Functional view of the shared memory.
    pub fn shared(&self) -> &MemArray {
        self.uncore.shared()
    }

    /// Mutable functional view of the shared memory.
    pub fn shared_mut(&mut self) -> &mut MemArray {
        self.uncore.shared_mut()
    }

    /// Loads a program image into core `core`'s private memory, resets the
    /// core to the program entry and points its stack pointer at the top of
    /// private memory.
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
        self.cores[core].regs_mut().write(Reg::SP, sp);
        Ok(())
    }

    /// Loads the same image on every core (SPMD workloads; cores branch on
    /// the MMIO core-id register).
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

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(Cpu::is_halted)
    }

    /// Platform time: the maximum core local time.
    pub fn time(&self) -> u64 {
        self.cores.iter().map(Cpu::time).max().unwrap_or(0)
    }

    /// Runs the platform until every core is halted or has a local time of
    /// at least `limit`.
    ///
    /// Scheduling invariant: every micro-phase that may touch shared state
    /// (interconnect, shared memory, MMIO, the sniffer-enable register that
    /// decides whether an event is logged) runs on the core
    /// with the smallest (local time, interconnect tie key), so shared
    /// resources see requests in nondecreasing global time, in the order the
    /// signal-level `temu-des` baseline issues them cycle by cycle. A picked
    /// core then runs its following core-local micro-phases back to back
    /// ([`Cpu::run_local`]): they touch only its own caches, private memory
    /// and counters, plus the order-free freeze-cycle sum, so running them
    /// ahead of the other cores changes no result. Which phases count as
    /// core-local depends on the platform (see `core_local_end`).
    ///
    /// # Errors
    ///
    /// Returns the fault the baseline meets first: the one with the smallest
    /// (local time, tie key). A core that faults while running ahead stops
    /// at the fault, which is returned once it is the earliest pending work;
    /// by then other cores may have run core-local work past it.
    pub fn run_until(&mut self, limit: u64) -> Result<(), CpuError> {
        // Faults met while running ahead, by core; allocated on the first one.
        let mut held: Vec<Option<CpuError>> = Vec::new();
        loop {
            let mut best: Option<usize> = None;
            let mut best_key = (u64::MAX, usize::MAX);
            for (i, c) in self.cores.iter().enumerate() {
                if c.is_halted() {
                    continue;
                }
                let t = c.time();
                if t >= limit {
                    continue;
                }
                let key = (t, self.uncore.tie_key(i));
                if key < best_key {
                    best_key = key;
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            if let Some(e) = held.get_mut(i).and_then(Option::take) {
                return Err(e);
            }
            let core = &mut self.cores[i];
            core.step(&mut self.uncore)?;
            if let Err(e) = core.run_local(&mut self.uncore, limit, self.local_end) {
                held.resize(self.cores.len(), None);
                held[i] = Some(e);
            }
        }
        Ok(())
    }

    /// Runs for one sampling window of `cycles` virtual cycles and collects
    /// the window's sniffer statistics. Halted cores accumulate idle time up
    /// to the window boundary.
    ///
    /// # Errors
    ///
    /// Propagates the earliest core fault (see [`Machine::run_until`]).
    pub fn run_window(&mut self, cycles: u64) -> Result<WindowStats, CpuError> {
        let end = self.window_start + cycles;
        self.run_until(end)?;
        for c in &mut self.cores {
            if c.is_halted() && c.time() < end {
                let gap = end - c.time();
                c.add_idle(gap);
            }
        }
        let stats = self.collect_stats(self.window_start, end);
        self.window_start = end;
        Ok(stats)
    }

    /// Runs until every core halts (or `max_cycles` elapse), returning the
    /// run summary with aggregate statistics and the modeled FPGA time.
    ///
    /// # Errors
    ///
    /// Propagates the earliest core fault (see [`Machine::run_until`]).
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<RunSummary, CpuError> {
        let t0 = Instant::now();
        let chunk = 4_000_000u64;
        loop {
            let limit = self.time().saturating_add(chunk).min(max_cycles);
            self.run_until(limit)?;
            if self.all_halted() || limit >= max_cycles {
                break;
            }
        }
        let wall = t0.elapsed();
        let cycles = self.time();
        let stats = self.collect_stats(self.window_start, cycles);
        self.window_start = cycles;
        Ok(RunSummary {
            cycles,
            instructions: stats.total_instructions(),
            all_halted: self.all_halted(),
            wall,
            fpga_seconds: (cycles + stats.freeze_mem + stats.freeze_link) as f64 / self.cfg.fpga_hz as f64,
            stats,
        })
    }

    /// Serializes the whole machine's mutable state — every core (registers,
    /// pipeline, pending data access), the memory system, the VPCM and the
    /// window cursor. The configuration is *not* recorded: a restore target
    /// is rebuilt from the same [`PlatformConfig`] first.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.cores.len());
        for c in &self.cores {
            c.save_state(w);
        }
        self.uncore.save_state(w);
        self.vpcm.save_state(w);
        w.u64(self.window_start);
    }

    /// Restores state saved by [`Machine::save_state`] into a machine built
    /// from the *same* configuration. After a successful restore the machine
    /// continues bitwise-identically to the one that was saved.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the recorded shape disagrees with this
    /// machine's configuration or the stream is corrupt. The machine may be
    /// partially overwritten on error and must not be reused.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let ncores = r.usize()?;
        if ncores != self.cores.len() {
            return Err(StateError::BadLength { found: ncores as u64, max: self.cores.len() as u64 });
        }
        for c in &mut self.cores {
            c.load_state(r)?;
        }
        self.uncore.load_state(r)?;
        self.vpcm.load_state(r)?;
        self.window_start = r.u64()?;
        Ok(())
    }

    fn collect_stats(&mut self, start: u64, end: u64) -> WindowStats {
        let cores = self.cores.iter_mut().map(Cpu::take_stats).collect();
        let (icaches, dcaches) = self.uncore.collect_cache_stats();
        let (private_mems, shared_mem) = self.uncore.collect_mem_stats();
        let interconnect = self.uncore.collect_ic_stats();
        self.vpcm.record_mem_freeze(self.uncore.take_freeze());
        let (freeze_mem, freeze_link) = self.vpcm.take_freezes();
        let (events_pending, events_overflowed) = self.uncore.collect_events();
        WindowStats {
            start_cycle: start,
            end_cycle: end,
            cores,
            icaches,
            dcaches,
            private_mems,
            shared_mem,
            interconnect,
            freeze_mem,
            freeze_link,
            events_pending,
            events_overflowed,
        }
    }
}

/// End of the address range `[0, end)` whose accesses touch nothing but
/// the issuing core's own state, so that the core may run them ahead of the
/// others. On one core every access qualifies. With several it is the
/// private range (at address 0), unless a private access can reach shared
/// state: with cacheable shared memory a private miss can evict a shared
/// victim over the interconnect, and with event-logging sniffers each data
/// access and each cache miss reads the MMIO sniffer-enable register, which
/// any core may write. The event counts do not depend on the order of the
/// accesses, but whether an access is counted depends on that register at
/// the access's global time, so no access may run ahead of an earlier
/// write to it. Then nothing qualifies.
fn core_local_end(cfg: &PlatformConfig) -> u64 {
    if cfg.cores == 1 {
        1 << 32
    } else if cfg.shared_cacheable || !matches!(cfg.sniffer_mode, SnifferMode::CountLogging) {
        0
    } else {
        u64::from(cfg.private_mem.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temu_isa::asm::assemble;

    fn machine(cores: usize, src: &str) -> Machine {
        let mut m = Machine::new(PlatformConfig::paper_bus(cores)).unwrap();
        let p = assemble(src).unwrap();
        m.load_program_all(&p).unwrap();
        m
    }

    #[test]
    fn single_core_program_runs_to_halt() {
        let mut m = machine(1, "li r1, 21\n add r1, r1, r1\n halt\n");
        let s = m.run_to_halt(1_000_000).unwrap();
        assert!(s.all_halted);
        assert_eq!(m.core(0).regs().read(Reg::new(1)), 42);
        assert!(s.cycles > 0);
        assert!(s.instructions >= 3);
        assert!(s.fpga_seconds > 0.0);
    }

    #[test]
    fn spmd_cores_diverge_on_core_id() {
        // Each core writes (core_id + 1) * 10 into shared memory slot id.
        let src = "
            .equ MMIO, 0xFFFF0000
            .equ SHARED, 0x10000000
            start:  li   r1, MMIO
                    lw   r2, 0(r1)      ; core id
                    addi r3, r2, 1
                    li   r4, 10
                    mul  r5, r3, r4
                    li   r6, SHARED
                    slli r7, r2, 2
                    add  r6, r6, r7
                    sw   r5, 0(r6)
                    halt
        ";
        let mut m = machine(4, src);
        let s = m.run_to_halt(1_000_000).unwrap();
        assert!(s.all_halted);
        for core in 0..4 {
            let v = m.shared().read(core as u32 * 4, temu_isa::Width::Word).unwrap();
            assert_eq!(v, (core as u32 + 1) * 10);
        }
        assert!(s.stats.interconnect.transactions >= 4);
    }

    #[test]
    fn console_output_via_mmio() {
        let src = "
            .equ CONSOLE, 0xFFFF0004
            start: li r1, CONSOLE
                   li r2, 72        ; 'H'
                   sw r2, 0(r1)
                   li r2, 105       ; 'i'
                   sw r2, 0(r1)
                   halt
        ";
        let mut m = machine(1, src);
        m.run_to_halt(100_000).unwrap();
        assert_eq!(m.console(0), b"Hi");
    }

    #[test]
    fn windows_partition_time_exactly() {
        let mut m = machine(2, "li r1, 1000\nloop: addi r1, r1, -1\n bnez r1, loop\n halt\n");
        let w1 = m.run_window(500).unwrap();
        assert_eq!(w1.start_cycle, 0);
        assert_eq!(w1.end_cycle, 500);
        let w2 = m.run_window(500).unwrap();
        assert_eq!(w2.start_cycle, 500);
        assert_eq!(w2.end_cycle, 1000);
        assert!(w1.total_instructions() > 0);
    }

    #[test]
    fn halted_cores_accumulate_idle_in_windows() {
        let mut m = machine(1, "halt\n");
        let w = m.run_window(1000).unwrap();
        assert!(m.all_halted());
        let c = &w.cores[0];
        assert_eq!(c.idle_cycles + c.active_cycles + c.stall_cycles, 1000);
        // Everything after the halt instruction (whose cold fetch misses) is idle.
        assert!(c.idle_cycles >= 990, "idle = {}", c.idle_cycles);
    }

    #[test]
    fn run_budget_stops_runaway_programs() {
        let mut m = machine(1, "loop: j loop\n");
        let s = m.run_to_halt(10_000).unwrap();
        assert!(!s.all_halted);
        assert!(s.cycles >= 10_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "
            .equ SHARED, 0x10000000
            start: li r1, SHARED
                   li r2, 200
            loop:  lw r3, 0(r1)
                   addi r3, r3, 1
                   sw r3, 0(r1)
                   addi r2, r2, -1
                   bnez r2, loop
                   halt
        ";
        let mut a = machine(4, src);
        let mut b = machine(4, src);
        let sa = a.run_to_halt(10_000_000).unwrap();
        let sb = b.run_to_halt(10_000_000).unwrap();
        assert_eq!(sa.cycles, sb.cycles, "the engine is deterministic");
        assert_eq!(sa.instructions, sb.instructions);
        // The increment is a non-atomic read-modify-write, so updates may be
        // lost — but deterministically: both runs end with the same value.
        let va = a.shared().read(0, temu_isa::Width::Word).unwrap();
        let vb = b.shared().read(0, temu_isa::Width::Word).unwrap();
        assert_eq!(va, vb);
        assert!((200..=800).contains(&va), "final counter {va}");
    }

    #[test]
    fn stack_pointer_initialized_at_private_top() {
        let m = machine(1, "halt\n");
        let sp = m.core(0).regs().read(Reg::SP);
        assert_eq!(sp, m.config().private_mem.size - 16);
    }

    #[test]
    fn save_restore_continues_bitwise_identically() {
        let src = "
            .equ SHARED, 0x10000000
            start: li r1, SHARED
                   li r2, 300
            loop:  lw r3, 0(r1)
                   addi r3, r3, 1
                   sw r3, 0(r1)
                   addi r2, r2, -1
                   bnez r2, loop
                   halt
        ";
        let mut a = machine(4, src);
        let mut b = machine(4, src);
        a.run_window(400).unwrap();
        b.run_window(400).unwrap();

        // Snapshot `a` mid-run and restore it into a fresh machine.
        let mut w = temu_state::StateWriter::new(*b"MACH", 1);
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut c = machine(4, src);
        let (mut r, _) = temu_state::StateReader::new(&bytes, *b"MACH", 1).unwrap();
        c.load_state(&mut r).unwrap();
        r.finish().unwrap();

        // The restored machine and the uninterrupted one must stay in
        // lockstep for the rest of the run.
        let wb = b.run_window(400).unwrap();
        let wc = c.run_window(400).unwrap();
        assert_eq!(wb, wc);
        assert_eq!(b.time(), c.time());
        let vb = b.shared().read(0, temu_isa::Width::Word).unwrap();
        let vc = c.shared().read(0, temu_isa::Width::Word).unwrap();
        assert_eq!(vb, vc);
        for i in 0..4 {
            assert_eq!(b.core(i).regs().read(Reg::new(1)), c.core(i).regs().read(Reg::new(1)));
        }
    }

    fn state(m: &Machine) -> Vec<u8> {
        let mut w = temu_state::StateWriter::new(*b"MACH", 1);
        m.save_state(&mut w);
        w.into_bytes()
    }

    fn restore(m: &mut Machine, bytes: &[u8]) {
        let (mut r, _) = temu_state::StateReader::new(bytes, *b"MACH", 1).unwrap();
        m.load_state(&mut r).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn restore_into_a_machine_that_ran_on_continues_like_a_fresh_one() {
        // A 128-byte direct-mapped I-cache: the second loop, at 0x80, maps
        // onto the first loop's lines. The checkpoint is taken in the first
        // loop; the machine then runs on into the second, whose blocks go
        // warm. After the restore the first loop's lines are present again
        // and the second's are not, so those warm blocks must fetch again.
        let src = "
            start: li   r1, 30
            first: addi r2, r2, 1
                   addi r3, r3, 2
                   xor  r4, r2, r3
                   addi r1, r1, -1
                   bnez r1, first
                   li   r1, 400
                   j    second
                   .org 0x80
            second: addi r5, r5, 1
                   addi r6, r6, 3
                   xor  r7, r5, r6
                   add  r8, r8, r7
                   addi r1, r1, -1
                   bnez r1, second
                   halt
        ";
        let mut cfg = PlatformConfig::paper_bus(1);
        cfg.icache = Some(temu_mem::CacheConfig { size_bytes: 128, ..temu_mem::CacheConfig::paper_l1_4k() });
        let build = || {
            let mut m = Machine::new(cfg.clone()).unwrap();
            m.load_program_all(&assemble(src).unwrap()).unwrap();
            m
        };
        let mut ran_on = build();
        ran_on.run_window(100).unwrap();
        let checkpoint = state(&ran_on);
        ran_on.run_window(2000).unwrap();
        assert!(ran_on.core(0).pc() >= 0x80, "the machine ran on into the second loop");
        restore(&mut ran_on, &checkpoint);
        let mut fresh = build();
        restore(&mut fresh, &checkpoint);
        while !fresh.all_halted() {
            assert_eq!(ran_on.run_window(97).unwrap(), fresh.run_window(97).unwrap());
            assert!(state(&ran_on) == state(&fresh), "diverged by cycle {}", fresh.time());
        }
        assert!(ran_on.all_halted());
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let mut a = machine(2, "halt\n");
        let mut w = temu_state::StateWriter::new(*b"MACH", 1);
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut wrong = machine(4, "halt\n");
        let (mut r, _) = temu_state::StateReader::new(&bytes, *b"MACH", 1).unwrap();
        assert!(wrong.load_state(&mut r).is_err());
        let _ = &mut a;
    }

    #[test]
    fn dfs_actuator_updates_mmio() {
        let mut m = machine(1, "halt\n");
        m.set_virtual_hz(500_000_000);
        assert_eq!(m.vpcm().virtual_hz(), 500_000_000);
        assert_eq!(m.uncore().mmio.read(0, crate::mmio::MMIO_FREQ_MHZ, 0), 500);
    }
}
