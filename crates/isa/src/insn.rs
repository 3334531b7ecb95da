//! Instruction forms and operand queries.
//!
//! The ISA is a load/store RISC with explicit threading and atomic
//! operations. Memory is word-granular (`u64` cells). The operand-query
//! methods ([`Instruction::def`], [`Instruction::reg_uses`],
//! [`Instruction::mem_ref`]) are what every dynamic analysis in the
//! workspace is written against — the tracing, taint and slicing engines
//! never match on opcodes directly except for control flow.

use crate::reg::Reg;
use crate::Addr;
use serde::{Deserialize, Serialize};

/// Binary ALU operations (register-register and register-immediate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Unsigned division; division by zero traps the executing thread.
    Div,
    /// Unsigned remainder; remainder by zero traps the executing thread.
    Rem,
    And,
    Or,
    Xor,
    /// Logical shift left (shift amount taken mod 64).
    Shl,
    /// Logical shift right (shift amount taken mod 64).
    Shr,
    /// Arithmetic shift right (shift amount taken mod 64).
    Sar,
    /// Set-if-equal (1/0).
    Eq,
    /// Set-if-not-equal (1/0).
    Ne,
    /// Signed less-than (1/0).
    Lt,
    /// Signed less-or-equal (1/0).
    Le,
    /// Unsigned less-than (1/0).
    Ltu,
    /// Unsigned less-or-equal (1/0).
    Leu,
    /// Unsigned minimum.
    Min,
    /// Unsigned maximum.
    Max,
}

/// Conditions for conditional branches (two-register compare-and-branch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchCond {
    Eq,
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluate the condition on two operand values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// The condition accepting exactly the complementary set of operand
    /// pairs. Used by predicate switching (fault location) to flip a
    /// branch outcome.
    #[inline]
    pub fn negate(self) -> BranchCond {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Ltu => BranchCond::Geu,
            BranchCond::Geu => BranchCond::Ltu,
        }
    }
}

/// Read-modify-write atomic operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AtomicOp {
    /// `rd <- mem[base]; mem[base] <- old + rs`.
    FetchAdd,
    /// `rd <- mem[base]; mem[base] <- rs`.
    Swap,
}

/// The instruction forms.
///
/// `target` operands are absolute instruction addresses; the
/// [`ProgramBuilder`](crate::builder::ProgramBuilder) patches them from
/// labels so user code never computes addresses by hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Opcode {
    /// No operation.
    Nop,
    /// `rd <- imm`.
    Li { rd: Reg, imm: i64 },
    /// `rd <- rs`.
    Mov { rd: Reg, rs: Reg },
    /// `rd <- rs1 <op> rs2`.
    Bin { op: BinOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd <- rs1 <op> imm`.
    BinImm { op: BinOp, rd: Reg, rs1: Reg, imm: i64 },
    /// `rd <- mem[rs(base) + offset]`.
    Load { rd: Reg, base: Reg, offset: i64 },
    /// `mem[rs(base) + offset] <- rs`.
    Store { rs: Reg, base: Reg, offset: i64 },
    /// Unconditional jump to an absolute instruction address.
    Jump { target: Addr },
    /// Indirect jump through a register (computed goto / jump table).
    JumpInd { rs: Reg },
    /// Conditional two-register branch.
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, target: Addr },
    /// Direct call; pushes the return address on the thread's call stack.
    Call { target: Addr },
    /// Indirect call through a register (function pointer).
    CallInd { rs: Reg },
    /// Return to the address on top of the call stack.
    Ret,
    /// `rd <- next word from input channel`. The canonical taint source.
    In { rd: Reg, channel: u16 },
    /// Emit `rs` on an output channel. The canonical observable sink.
    Out { rs: Reg, channel: u16 },
    /// `rd <- address of a fresh heap block of rs(size) words`.
    Alloc { rd: Reg, size: Reg },
    /// Release the heap block starting at `rs`.
    Free { rs: Reg },
    /// Spawn a thread at `target` with `arg` in its `r4`; `rd <- tid`.
    Spawn { rd: Reg, target: Addr, arg: Reg },
    /// Block until thread `rs` exits.
    Join { rs: Reg },
    /// Atomic read-modify-write on `mem[base]`.
    Atomic { op: AtomicOp, rd: Reg, base: Reg, rs: Reg },
    /// Compare-and-swap: `rd <- mem[base]; if rd == expected { mem[base] <- new }`.
    Cas { rd: Reg, base: Reg, expected: Reg, new: Reg },
    /// Full memory fence (a scheduling point; the interpreter is
    /// sequentially consistent so this orders nothing further).
    Fence,
    /// Voluntarily end the scheduling quantum.
    Yield,
    /// Trap the executing thread if `rs == 0`; `msg` names the assertion.
    Assert { rs: Reg, msg: u32 },
    /// Terminate the executing thread normally.
    Halt,
    /// Terminate the whole machine with exit code `rs`.
    Exit { rs: Reg },
}

/// Whether a memory reference reads or writes (atomics do both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemKind {
    Read,
    Write,
    ReadWrite,
}

/// A static description of an instruction's memory operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRef {
    pub base: Reg,
    pub offset: i64,
    pub kind: MemKind,
}

/// A tiny inline register list returned by operand queries (never
/// allocates; instructions use at most three register sources).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegList {
    regs: [Reg; 3],
    len: u8,
}

impl RegList {
    #[inline]
    fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }

    /// The registers as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn contains(&self, r: Reg) -> bool {
        self.as_slice().contains(&r)
    }
}

impl<'a> IntoIterator for &'a RegList {
    type Item = Reg;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Reg>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

/// Statement identifier: maps an instruction back to a "source statement"
/// for fault-location reporting (the builder assigns one per builder call
/// unless overridden, mimicking line numbers in the original systems).
pub type StmtId = u32;

/// One instruction plus its source-statement tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instruction {
    pub op: Opcode,
    pub stmt: StmtId,
}

impl Default for Instruction {
    /// A `Nop` — the identity instruction, used to initialize effect
    /// buffers before the first step.
    fn default() -> Self {
        Instruction::new(Opcode::Nop, 0)
    }
}

impl Instruction {
    pub fn new(op: Opcode, stmt: StmtId) -> Self {
        Instruction { op, stmt }
    }

    /// The register written by this instruction, if any.
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        match self.op {
            Opcode::Li { rd, .. }
            | Opcode::Mov { rd, .. }
            | Opcode::Bin { rd, .. }
            | Opcode::BinImm { rd, .. }
            | Opcode::Load { rd, .. }
            | Opcode::In { rd, .. }
            | Opcode::Alloc { rd, .. }
            | Opcode::Spawn { rd, .. }
            | Opcode::Atomic { rd, .. }
            | Opcode::Cas { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// The registers read by this instruction (including address bases).
    #[inline]
    pub fn reg_uses(&self) -> RegList {
        let mut l = RegList::default();
        match self.op {
            Opcode::Mov { rs, .. }
            | Opcode::JumpInd { rs }
            | Opcode::CallInd { rs }
            | Opcode::Out { rs, .. }
            | Opcode::Free { rs }
            | Opcode::Join { rs }
            | Opcode::Assert { rs, .. }
            | Opcode::Exit { rs } => l.push(rs),
            Opcode::Bin { rs1, rs2, .. } => {
                l.push(rs1);
                l.push(rs2);
            }
            Opcode::BinImm { rs1, .. } => l.push(rs1),
            Opcode::Load { base, .. } => l.push(base),
            Opcode::Store { rs, base, .. } => {
                l.push(rs);
                l.push(base);
            }
            Opcode::Branch { rs1, rs2, .. } => {
                l.push(rs1);
                l.push(rs2);
            }
            Opcode::Alloc { size, .. } => l.push(size),
            Opcode::Spawn { arg, .. } => l.push(arg),
            Opcode::Atomic { base, rs, .. } => {
                l.push(base);
                l.push(rs);
            }
            Opcode::Cas { base, expected, new, .. } => {
                l.push(base);
                l.push(expected);
                l.push(new);
            }
            Opcode::Nop
            | Opcode::Li { .. }
            | Opcode::Jump { .. }
            | Opcode::Call { .. }
            | Opcode::Ret
            | Opcode::In { .. }
            | Opcode::Fence
            | Opcode::Yield
            | Opcode::Halt => {}
        }
        l
    }

    /// The registers that flow *data* into the value produced (excludes
    /// address bases, which carry an *address* dependence). Taint engines
    /// propagate through these; whether address registers also propagate
    /// is a policy choice (`dift-taint`).
    #[inline]
    pub fn data_uses(&self) -> RegList {
        let mut l = RegList::default();
        match self.op {
            Opcode::Mov { rs, .. } => l.push(rs),
            Opcode::Bin { rs1, rs2, .. } => {
                l.push(rs1);
                l.push(rs2);
            }
            Opcode::BinImm { rs1, .. } => l.push(rs1),
            Opcode::Store { rs, .. } => l.push(rs),
            Opcode::Atomic { rs, .. } => l.push(rs),
            Opcode::Cas { new, .. } => l.push(new),
            // The emitted value is data leaving the program — the
            // canonical taint sink.
            Opcode::Out { rs, .. } => l.push(rs),
            _ => {}
        }
        l
    }

    /// The address-forming registers (base registers of loads/stores and
    /// indirect-control registers). These are the registers whose taint
    /// triggers the paper's attack-detection policy when non-zero.
    #[inline]
    pub fn addr_uses(&self) -> RegList {
        let mut l = RegList::default();
        match self.op {
            Opcode::Load { base, .. } | Opcode::Store { base, .. } => l.push(base),
            Opcode::Atomic { base, .. } | Opcode::Cas { base, .. } => l.push(base),
            Opcode::JumpInd { rs } | Opcode::CallInd { rs } => l.push(rs),
            _ => {}
        }
        l
    }

    /// The instruction's static memory operand, if it has one.
    #[inline]
    pub fn mem_ref(&self) -> Option<MemRef> {
        match self.op {
            Opcode::Load { base, offset, .. } => Some(MemRef { base, offset, kind: MemKind::Read }),
            Opcode::Store { base, offset, .. } => {
                Some(MemRef { base, offset, kind: MemKind::Write })
            }
            Opcode::Atomic { base, .. } | Opcode::Cas { base, .. } => {
                Some(MemRef { base, offset: 0, kind: MemKind::ReadWrite })
            }
            _ => None,
        }
    }

    /// True when the instruction ends a basic block.
    #[inline]
    pub fn is_block_end(&self) -> bool {
        matches!(
            self.op,
            Opcode::Jump { .. }
                | Opcode::JumpInd { .. }
                | Opcode::Branch { .. }
                | Opcode::Call { .. }
                | Opcode::CallInd { .. }
                | Opcode::Ret
                | Opcode::Halt
                | Opcode::Exit { .. }
        )
    }

    /// True for conditional branches (the predicates of control
    /// dependence).
    #[inline]
    pub fn is_branch(&self) -> bool {
        matches!(self.op, Opcode::Branch { .. })
    }

    /// True for instructions that can block or reschedule the thread.
    #[inline]
    pub fn is_sync_point(&self) -> bool {
        matches!(
            self.op,
            Opcode::Join { .. }
                | Opcode::Atomic { .. }
                | Opcode::Cas { .. }
                | Opcode::Fence
                | Opcode::Yield
        )
    }

    /// The statically-known successor addresses of an instruction at
    /// address `at`. Indirect jumps/returns yield an empty list (their
    /// successors are dynamic).
    pub fn static_successors(&self, at: Addr) -> Vec<Addr> {
        match self.op {
            Opcode::Jump { target } => vec![target],
            Opcode::Branch { target, .. } => vec![target, at + 1],
            // Calls fall through after the callee returns; for CFG
            // purposes within a function the successor is the next
            // instruction.
            Opcode::Call { .. } | Opcode::CallInd { .. } => vec![at + 1],
            Opcode::JumpInd { .. } | Opcode::Ret | Opcode::Halt | Opcode::Exit { .. } => vec![],
            _ => vec![at + 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(op: Opcode) -> Instruction {
        Instruction::new(op, 0)
    }

    #[test]
    fn def_and_uses_of_alu() {
        let add = i(Opcode::Bin { op: BinOp::Add, rd: Reg(3), rs1: Reg(1), rs2: Reg(2) });
        assert_eq!(add.def(), Some(Reg(3)));
        assert_eq!(add.reg_uses().as_slice(), &[Reg(1), Reg(2)]);
        assert_eq!(add.data_uses().as_slice(), &[Reg(1), Reg(2)]);
        assert!(add.addr_uses().is_empty());
    }

    #[test]
    fn load_separates_data_and_address_uses() {
        let ld = i(Opcode::Load { rd: Reg(5), base: Reg(6), offset: 8 });
        assert_eq!(ld.def(), Some(Reg(5)));
        assert_eq!(ld.reg_uses().as_slice(), &[Reg(6)]);
        assert!(ld.data_uses().is_empty());
        assert_eq!(ld.addr_uses().as_slice(), &[Reg(6)]);
        let mr = ld.mem_ref().unwrap();
        assert_eq!(mr.kind, MemKind::Read);
        assert_eq!(mr.base, Reg(6));
    }

    #[test]
    fn store_uses_value_and_base() {
        let st = i(Opcode::Store { rs: Reg(1), base: Reg(2), offset: -4 });
        assert_eq!(st.def(), None);
        assert_eq!(st.reg_uses().as_slice(), &[Reg(1), Reg(2)]);
        assert_eq!(st.data_uses().as_slice(), &[Reg(1)]);
        assert_eq!(st.mem_ref().unwrap().kind, MemKind::Write);
    }

    #[test]
    fn cas_reads_three_registers() {
        let cas = i(Opcode::Cas { rd: Reg(1), base: Reg(2), expected: Reg(3), new: Reg(4) });
        assert_eq!(cas.def(), Some(Reg(1)));
        assert_eq!(cas.reg_uses().len(), 3);
        assert_eq!(cas.mem_ref().unwrap().kind, MemKind::ReadWrite);
    }

    #[test]
    fn branch_cond_eval_and_negate() {
        for (c, a, b, want) in [
            (BranchCond::Eq, 1u64, 1u64, true),
            (BranchCond::Ne, 1, 1, false),
            (BranchCond::Lt, u64::MAX, 0, true), // -1 < 0 signed
            (BranchCond::Ltu, u64::MAX, 0, false),
            (BranchCond::Ge, 5, 5, true),
            (BranchCond::Geu, 4, 5, false),
        ] {
            assert_eq!(c.eval(a, b), want, "{c:?} {a} {b}");
            assert_eq!(c.negate().eval(a, b), !want, "negated {c:?}");
        }
    }

    #[test]
    fn static_successors() {
        let br = i(Opcode::Branch { cond: BranchCond::Eq, rs1: Reg(0), rs2: Reg(0), target: 7 });
        assert_eq!(br.static_successors(3), vec![7, 4]);
        let jmp = i(Opcode::Jump { target: 2 });
        assert_eq!(jmp.static_successors(9), vec![2]);
        assert!(i(Opcode::Ret).static_successors(5).is_empty());
        assert_eq!(i(Opcode::Nop).static_successors(5), vec![6]);
    }

    #[test]
    fn block_end_classification() {
        assert!(i(Opcode::Ret).is_block_end());
        assert!(i(Opcode::Halt).is_block_end());
        assert!(i(Opcode::Call { target: 0 }).is_block_end());
        assert!(!i(Opcode::Nop).is_block_end());
        assert!(!i(Opcode::Store { rs: Reg(0), base: Reg(1), offset: 0 }).is_block_end());
    }
}
