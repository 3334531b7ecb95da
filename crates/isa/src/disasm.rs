//! Textual disassembly (Display impls and program listings).

use crate::insn::{AtomicOp, BinOp, BranchCond, Instruction, Opcode};
use crate::program::Program;
use std::fmt;

/// Every [`BinOp`] with its mnemonic, in declaration order: `Display`
/// indexes it by discriminant and the assembler searches it.
pub(crate) const BIN_OPS: [(BinOp, &str); 19] = [
    (BinOp::Add, "add"),
    (BinOp::Sub, "sub"),
    (BinOp::Mul, "mul"),
    (BinOp::Div, "div"),
    (BinOp::Rem, "rem"),
    (BinOp::And, "and"),
    (BinOp::Or, "or"),
    (BinOp::Xor, "xor"),
    (BinOp::Shl, "shl"),
    (BinOp::Shr, "shr"),
    (BinOp::Sar, "sar"),
    (BinOp::Eq, "seq"),
    (BinOp::Ne, "sne"),
    (BinOp::Lt, "slt"),
    (BinOp::Le, "sle"),
    (BinOp::Ltu, "sltu"),
    (BinOp::Leu, "sleu"),
    (BinOp::Min, "min"),
    (BinOp::Max, "max"),
];

/// Every [`BranchCond`] with its mnemonic, in declaration order.
pub(crate) const BRANCH_CONDS: [(BranchCond, &str); 6] = [
    (BranchCond::Eq, "beq"),
    (BranchCond::Ne, "bne"),
    (BranchCond::Lt, "blt"),
    (BranchCond::Ge, "bge"),
    (BranchCond::Ltu, "bltu"),
    (BranchCond::Geu, "bgeu"),
];

// `Display` indexes each table by discriminant: a row out of order is a
// compile error.
const _: () = {
    let mut i = 0;
    while i < BIN_OPS.len() {
        assert!(BIN_OPS[i].0 as usize == i, "BIN_OPS is out of declaration order");
        i += 1;
    }
    let mut i = 0;
    while i < BRANCH_CONDS.len() {
        assert!(BRANCH_CONDS[i].0 as usize == i, "BRANCH_CONDS is out of declaration order");
        i += 1;
    }
};

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(BIN_OPS[*self as usize].1)
    }
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(BRANCH_CONDS[*self as usize].1)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Opcode::Nop => write!(f, "nop"),
            Opcode::Li { rd, imm } => write!(f, "li    {rd}, {imm}"),
            Opcode::Mov { rd, rs } => write!(f, "mov   {rd}, {rs}"),
            Opcode::Bin { op, rd, rs1, rs2 } => write!(f, "{op:<5} {rd}, {rs1}, {rs2}"),
            Opcode::BinImm { op, rd, rs1, imm } => write!(f, "{op}i{:<1} {rd}, {rs1}, {imm}", ""),
            Opcode::Load { rd, base, offset } => write!(f, "ld    {rd}, {offset}({base})"),
            Opcode::Store { rs, base, offset } => write!(f, "st    {rs}, {offset}({base})"),
            Opcode::Jump { target } => write!(f, "j     @{target}"),
            Opcode::JumpInd { rs } => write!(f, "jr    {rs}"),
            Opcode::Branch { cond, rs1, rs2, target } => {
                write!(f, "{cond:<5} {rs1}, {rs2}, @{target}")
            }
            Opcode::Call { target } => write!(f, "call  @{target}"),
            Opcode::CallInd { rs } => write!(f, "callr {rs}"),
            Opcode::Ret => write!(f, "ret"),
            Opcode::In { rd, channel } => write!(f, "in    {rd}, ch{channel}"),
            Opcode::Out { rs, channel } => write!(f, "out   {rs}, ch{channel}"),
            Opcode::Alloc { rd, size } => write!(f, "alloc {rd}, {size}"),
            Opcode::Free { rs } => write!(f, "free  {rs}"),
            Opcode::Spawn { rd, target, arg } => write!(f, "spawn {rd}, @{target}, {arg}"),
            Opcode::Join { rs } => write!(f, "join  {rs}"),
            Opcode::Atomic { op: AtomicOp::FetchAdd, rd, base, rs } => {
                write!(f, "amoadd {rd}, ({base}), {rs}")
            }
            Opcode::Atomic { op: AtomicOp::Swap, rd, base, rs } => {
                write!(f, "amoswap {rd}, ({base}), {rs}")
            }
            Opcode::Cas { rd, base, expected, new } => {
                write!(f, "cas   {rd}, ({base}), {expected}, {new}")
            }
            Opcode::Fence => write!(f, "fence"),
            Opcode::Yield => write!(f, "yield"),
            Opcode::Assert { rs, msg } => write!(f, "assert {rs}, #{msg}"),
            Opcode::Halt => write!(f, "halt"),
            Opcode::Exit { rs } => write!(f, "exit  {rs}"),
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.op.fmt(f)
    }
}

/// Render a full program listing with addresses and function headers.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for (addr, insn) in program.instructions().iter().enumerate() {
        let addr = addr as u32;
        for func in program.funcs() {
            if func.entry == addr {
                out.push_str(&format!("\n{}:\n", func.name));
            }
        }
        out.push_str(&format!("  {addr:>5}  {insn}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Reg;

    #[test]
    fn listing_contains_function_headers_and_instructions() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 5);
        b.call("f");
        b.halt();
        b.func("f");
        b.ret();
        let p = b.build().unwrap();
        let text = disassemble(&p);
        assert!(text.contains("main:"));
        assert!(text.contains("f:"));
        assert!(text.contains("li    r1, 5"));
        assert!(text.contains("call  @3"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn opcode_display_forms() {
        assert_eq!(Opcode::Nop.to_string(), "nop");
        assert_eq!(
            Opcode::Load { rd: Reg(1), base: Reg(2), offset: -3 }.to_string(),
            "ld    r1, -3(r2)"
        );
        assert_eq!(Opcode::Fence.to_string(), "fence");
    }
}
