use temu_isa::Reg;

/// The 32-entry register file; `r0` reads as zero and ignores writes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// All registers zeroed.
    pub fn new() -> RegFile {
        RegFile { regs: [0; 32] }
    }

    /// Reads a register.
    #[inline]
    pub fn read(&self, r: Reg) -> u32 {
        self.regs[usize::from(r.index() & 31)] // a `Reg` is always < 32: the mask only drops the bounds check
    }

    /// Writes a register; writes to `r0` are discarded.
    #[inline]
    pub fn write(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[usize::from(r.index() & 31)] = value;
        }
    }
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r0_is_hardwired_zero() {
        let mut rf = RegFile::new();
        rf.write(Reg::ZERO, 42);
        assert_eq!(rf.read(Reg::ZERO), 0);
    }

    #[test]
    fn other_registers_hold_values() {
        let mut rf = RegFile::new();
        for i in 1..32 {
            rf.write(Reg::new(i), u32::from(i) * 10);
        }
        for i in 1..32 {
            assert_eq!(rf.read(Reg::new(i)), u32::from(i) * 10);
        }
    }
}
