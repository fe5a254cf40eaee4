use std::fmt;

/// A TE32 general-purpose register, `r0`–`r31`.
///
/// `r0` reads as zero and ignores writes. By software convention `r31` is the
/// link register (`ra`) and `r30` the stack pointer (`sp`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Link register written by `jal`/`jalr` (alias `ra`).
    pub const RA: Reg = Reg(31);
    /// Stack pointer by software convention (alias `sp`).
    pub const SP: Reg = Reg(30);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn new(index: u8) -> Reg {
        assert!(index < 32, "register index {index} out of range 0..32");
        Reg(index)
    }

    /// Creates a register from its index, returning `None` if out of range.
    pub fn try_new(index: u8) -> Option<Reg> {
        (index < 32).then_some(Reg(index))
    }

    /// The register index, `0..32`.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Register-register ALU operation selector (R-type `funct` field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    /// Logical shift left by `rs2 & 31`.
    Sll,
    /// Logical shift right by `rs2 & 31`.
    Srl,
    /// Arithmetic shift right by `rs2 & 31`.
    Sra,
    /// Signed set-less-than.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Low 32 bits of the signed product.
    Mul,
    /// High 32 bits of the signed product.
    Mulh,
    /// Signed division (`i32::MIN / -1` wraps; division by zero yields `-1`).
    Div,
    /// Signed remainder (remainder of division by zero is the dividend).
    Rem,
}

impl AluOp {
    pub(crate) const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::Mulh,
        AluOp::Div,
        AluOp::Rem,
    ];

    /// Evaluates the operation on two operand values.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Nor => !(a | b),
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Mul => (a as i32).wrapping_mul(b as i32) as u32,
            AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            AluOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
        }
    }
}

/// Immediate ALU operation selector (I-type opcodes).
///
/// `Add`/`Slt`/`Sltu` sign-extend the 16-bit immediate; the bitwise operations
/// `And`/`Or`/`Xor` zero-extend it (so `lui` + `ori` materializes any 32-bit
/// constant in two instructions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluImmOp {
    Add,
    And,
    Or,
    Xor,
    Slt,
    Sltu,
}

impl AluImmOp {
    #[cfg_attr(not(test), allow(dead_code))] // proptest strategies only
    pub(crate) const ALL: [AluImmOp; 6] = [
        AluImmOp::Add,
        AluImmOp::And,
        AluImmOp::Or,
        AluImmOp::Xor,
        AluImmOp::Slt,
        AluImmOp::Sltu,
    ];

    /// Expands the immediate to its 32-bit operand value.
    #[inline]
    pub fn expand_imm(self, imm: i16) -> u32 {
        match self {
            AluImmOp::Add | AluImmOp::Slt | AluImmOp::Sltu => imm as i32 as u32,
            AluImmOp::And | AluImmOp::Or | AluImmOp::Xor => imm as u16 as u32,
        }
    }
}

/// Shift-immediate operation selector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShiftOp {
    Sll,
    Srl,
    Sra,
}

impl ShiftOp {
    #[cfg_attr(not(test), allow(dead_code))] // proptest strategies only
    pub(crate) const ALL: [ShiftOp; 3] = [ShiftOp::Sll, ShiftOp::Srl, ShiftOp::Sra];
}

/// Memory access width for loads and stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    Byte,
    Half,
    Word,
}

impl Width {
    /// Number of bytes transferred.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
        }
    }
}

/// Branch comparison condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl Cond {
    #[cfg_attr(not(test), allow(dead_code))] // proptest strategies only
    pub(crate) const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

    /// Evaluates the condition on two register values.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }
}

/// One decoded TE32 instruction.
///
/// Branch and jump offsets are in *instructions*, relative to the address of
/// the following instruction (`pc + 4`), as produced by the assembler.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `rd <- rs1 <op> rs2`
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd <- rs1 <op> imm`
    AluImm { op: AluImmOp, rd: Reg, rs1: Reg, imm: i16 },
    /// `rd <- rs1 <op> sh` (shift by constant, `sh < 32`)
    ShiftImm { op: ShiftOp, rd: Reg, rs1: Reg, sh: u8 },
    /// `rd <- imm << 16`
    Lui { rd: Reg, imm: u16 },
    /// `rd <- sign/zero-extended mem[rs1 + off]`
    Load { width: Width, signed: bool, rd: Reg, rs1: Reg, off: i16 },
    /// `mem[rs1 + off] <- rs2` (low `width` bytes)
    Store { width: Width, rs2: Reg, rs1: Reg, off: i16 },
    /// Atomic test-and-set: `rd <- mem32[rs1 + off]; mem32[rs1 + off] <- 1`.
    Tas { rd: Reg, rs1: Reg, off: i16 },
    /// `if rs1 <cond> rs2 then pc <- pc + 4 + off*4`
    Branch { cond: Cond, rs1: Reg, rs2: Reg, off: i16 },
    /// `r31 <- pc + 4; pc <- pc + 4 + off*4` (off is a signed 26-bit value)
    Jal { off: i32 },
    /// `rd <- pc + 4; pc <- (rs1 + off) & !3`
    Jalr { rd: Reg, rs1: Reg, off: i16 },
    /// Stop the issuing core.
    Halt,
}

impl Instr {
    /// Canonical `nop` encoding (`addi r0, r0, 0`).
    pub const NOP: Instr = Instr::AluImm { op: AluImmOp::Add, rd: Reg(0), rs1: Reg(0), imm: 0 };

    /// Whether this instruction may redirect the program counter.
    pub fn is_control(self) -> bool {
        matches!(self, Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::disasm::disassemble(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_new_and_index_round_trip() {
        for i in 0..32 {
            assert_eq!(Reg::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_new_rejects_32() {
        let _ = Reg::new(32);
    }

    #[test]
    fn reg_try_new_bounds() {
        assert_eq!(Reg::try_new(31), Some(Reg::new(31)));
        assert_eq!(Reg::try_new(32), None);
    }

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u32::MAX);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Nor.eval(0, 0), u32::MAX);
        assert_eq!(AluOp::Sll.eval(1, 4), 16);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Slt.eval(u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.eval(u32::MAX, 0), 0);
        assert_eq!(AluOp::Mul.eval(7, 6), 42);
        assert_eq!(AluOp::Mulh.eval(0x8000_0000, 2), u32::MAX, "high word of -2^32");
        assert_eq!(AluOp::Div.eval(42, 7), 6);
        assert_eq!(AluOp::Rem.eval(43, 7), 1);
    }

    #[test]
    fn alu_div_rem_edge_cases() {
        // Division by zero: quotient -1, remainder = dividend.
        assert_eq!(AluOp::Div.eval(5, 0), u32::MAX);
        assert_eq!(AluOp::Rem.eval(5, 0), 5);
        // i32::MIN / -1 wraps rather than trapping.
        assert_eq!(AluOp::Div.eval(i32::MIN as u32, u32::MAX), i32::MIN as u32);
        assert_eq!(AluOp::Rem.eval(i32::MIN as u32, u32::MAX), 0);
        // Signed semantics.
        assert_eq!(AluOp::Div.eval((-7i32) as u32, 2), (-3i32) as u32);
        assert_eq!(AluOp::Rem.eval((-7i32) as u32, 2), (-1i32) as u32);
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(AluOp::Sll.eval(1, 33), 2, "shift amount masked to 5 bits");
        assert_eq!(AluOp::Srl.eval(4, 1), 2);
    }

    #[test]
    fn imm_expansion_matches_signedness_rules() {
        assert_eq!(AluImmOp::Add.expand_imm(-1), u32::MAX);
        assert_eq!(AluImmOp::Or.expand_imm(-1), 0xFFFF);
        assert_eq!(AluOp::And.eval(0xFFFF_FFFF, AluImmOp::And.expand_imm(-1)), 0xFFFF);
        assert_eq!(AluOp::Add.eval(1, AluImmOp::Add.expand_imm(-2)), u32::MAX);
        assert_eq!(AluOp::Slt.eval(0, AluImmOp::Slt.expand_imm(-1)), 0);
        assert_eq!(AluOp::Sltu.eval(0, AluImmOp::Sltu.expand_imm(-1)), 1, "sltiu compares against sign-extended imm");
    }

    #[test]
    fn cond_eval_signedness() {
        assert!(Cond::Lt.eval(u32::MAX, 0));
        assert!(!Cond::Ltu.eval(u32::MAX, 0));
        assert!(Cond::Geu.eval(u32::MAX, 0));
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Ge.eval(0, 0));
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::Byte.bytes(), 1);
        assert_eq!(Width::Half.bytes(), 2);
        assert_eq!(Width::Word.bytes(), 4);
    }

    #[test]
    fn nop_is_addi_zero() {
        match Instr::NOP {
            Instr::AluImm { op: AluImmOp::Add, rd, rs1, imm: 0 } => {
                assert_eq!(rd, Reg::ZERO);
                assert_eq!(rs1, Reg::ZERO);
            }
            other => panic!("unexpected NOP encoding: {other:?}"),
        }
    }

    #[test]
    fn classification_helpers() {
        assert!(Instr::Jal { off: 0 }.is_control());
        assert!(!Instr::Load { width: Width::Word, signed: false, rd: Reg::ZERO, rs1: Reg::ZERO, off: 0 }.is_control());
        assert!(!Instr::NOP.is_control());
    }
}
