//! In-memory assembler with labels, functions, and fixups.
//!
//! All workloads in the workspace are written against this builder; it
//! plays the role of the compiler+assembler producing the "binaries" that
//! the DBI framework instruments.

use crate::insn::{AtomicOp, BinOp, BranchCond, Instruction, Opcode, StmtId};
use crate::program::{FuncInfo, Program};
use crate::reg::{Reg, NUM_REGS};
use crate::{Addr, MemAddr};
use std::collections::BTreeMap;

/// A branch/call/spawn target: either an already-known address or a label
/// patched at [`ProgramBuilder::build`] time.
#[derive(Clone, Debug)]
pub enum Target {
    Abs(Addr),
    Label(String),
}

impl From<Addr> for Target {
    fn from(a: Addr) -> Self {
        Target::Abs(a)
    }
}

impl From<&str> for Target {
    fn from(s: &str) -> Self {
        Target::Label(s.to_string())
    }
}

impl From<String> for Target {
    fn from(s: String) -> Self {
        Target::Label(s)
    }
}

impl From<&String> for Target {
    fn from(s: &String) -> Self {
        Target::Label(s.clone())
    }
}

/// Errors detected while assembling a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// The same label (or function name, which doubles as one) was
    /// defined twice.
    DuplicateLabel(String),
    /// A data block runs past the end of the address space.
    DataOverflow { addr: MemAddr, words: usize },
    /// A target address is outside the program.
    TargetOutOfRange { at: Addr, target: Addr },
    /// An instruction names a register `>= NUM_REGS`.
    InvalidRegister { at: Addr, reg: Reg },
    /// The program has no instructions.
    Empty,
    /// An instruction was emitted before any `func()` call.
    CodeOutsideFunction,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BuildError::DataOverflow { addr, words } => {
                write!(f, "data block of {words} words at {addr} overflows the address space")
            }
            BuildError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets out-of-range address {target}")
            }
            BuildError::InvalidRegister { at, reg } => {
                write!(f, "instruction {at} names invalid register {reg}")
            }
            BuildError::Empty => write!(f, "program has no instructions"),
            BuildError::CodeOutsideFunction => {
                write!(f, "instruction emitted before the first func()")
            }
        }
    }
}

impl std::error::Error for BuildError {}

enum Fixup {
    Jump(Addr),
    Branch(Addr),
    Call(Addr),
    Spawn(Addr),
}

/// Builder/assembler for [`Program`]s.
///
/// Instructions are appended in order; every emission helper returns the
/// address of the emitted instruction so call sites can record interesting
/// points (e.g. the address of a seeded bug).
pub struct ProgramBuilder {
    instrs: Vec<Instruction>,
    labels: BTreeMap<String, Addr>,
    fixups: Vec<(Fixup, String)>,
    funcs: Vec<FuncInfo>,
    data: BTreeMap<MemAddr, u64>,
    entry: Option<String>,
    next_stmt: StmtId,
    cur_stmt: Option<StmtId>,
    in_func: bool,
    /// The first definition error (a duplicate label or an overflowing
    /// data block), reported by [`ProgramBuilder::build`].
    error: Option<BuildError>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    pub fn new() -> Self {
        ProgramBuilder {
            instrs: Vec::new(),
            labels: BTreeMap::new(),
            fixups: Vec::new(),
            funcs: Vec::new(),
            data: BTreeMap::new(),
            entry: None,
            next_stmt: 0,
            cur_stmt: None,
            in_func: false,
            error: None,
        }
    }

    /// Current emission address (address of the next instruction).
    #[inline]
    pub fn here(&self) -> Addr {
        self.instrs.len() as Addr
    }

    /// Begin a new function. Its name doubles as a label at its entry.
    /// The first function (or one named `main`) becomes the entry point.
    pub fn func(&mut self, name: &str) -> &mut Self {
        let here = self.here();
        if let Some(last) = self.funcs.last_mut() {
            last.end = here;
        }
        self.funcs.push(FuncInfo { name: name.to_string(), entry: here, end: here });
        self.in_func = true;
        self.label(name)
    }

    /// Define `name` at the current address. A name defined twice is a
    /// [`BuildError::DuplicateLabel`] at [`ProgramBuilder::build`].
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self.labels.insert(name.to_string(), self.here()).is_some() {
            self.fail(BuildError::DuplicateLabel(name.to_string()));
        }
        self
    }

    /// Keep the first definition error for [`ProgramBuilder::build`].
    fn fail(&mut self, e: BuildError) {
        self.error.get_or_insert(e);
    }

    /// Force the entry point to the named function/label (defaults to
    /// `main` when present, else the first function).
    pub fn entry(&mut self, name: &str) -> &mut Self {
        self.entry = Some(name.to_string());
        self
    }

    /// Pin the statement id for subsequently emitted instructions (until
    /// [`ProgramBuilder::end_stmt`]). Lets multi-instruction "source
    /// statements" share one id, as the original line-number mapping does.
    pub fn stmt(&mut self, id: StmtId) -> &mut Self {
        self.cur_stmt = Some(id);
        if id >= self.next_stmt {
            self.next_stmt = id + 1;
        }
        self
    }

    /// Return to one-statement-per-instruction numbering.
    pub fn end_stmt(&mut self) -> &mut Self {
        self.cur_stmt = None;
        self
    }

    /// Seed a word in the initial data image.
    pub fn data(&mut self, addr: MemAddr, value: u64) -> &mut Self {
        self.data.insert(addr, value);
        self
    }

    /// Seed consecutive words starting at `addr`. A block whose last
    /// word would lie past `MemAddr::MAX` is a
    /// [`BuildError::DataOverflow`] at [`ProgramBuilder::build`].
    pub fn data_block(&mut self, addr: MemAddr, values: &[u64]) -> &mut Self {
        if !values.is_empty() && addr.checked_add(values.len() as MemAddr - 1).is_none() {
            self.fail(BuildError::DataOverflow { addr, words: values.len() });
            return self;
        }
        for (i, v) in values.iter().enumerate() {
            self.data.insert(addr + i as MemAddr, *v);
        }
        self
    }

    fn stamp(&mut self) -> StmtId {
        match self.cur_stmt {
            Some(id) => id,
            None => {
                let id = self.next_stmt;
                self.next_stmt += 1;
                id
            }
        }
    }

    fn emit(&mut self, op: Opcode) -> Addr {
        let at = self.here();
        let stmt = self.stamp();
        self.instrs.push(Instruction::new(op, stmt));
        at
    }

    fn emit_target(
        &mut self,
        make: impl FnOnce(Addr) -> Opcode,
        t: Target,
        kind: fn(Addr) -> Fixup,
    ) -> Addr {
        match t {
            Target::Abs(a) => self.emit(make(a)),
            Target::Label(l) => {
                let at = self.emit(make(0));
                self.fixups.push((kind(at), l));
                at
            }
        }
    }

    // ---- emission helpers ------------------------------------------------

    pub fn nop(&mut self) -> Addr {
        self.emit(Opcode::Nop)
    }

    /// `rd <- imm`.
    pub fn li(&mut self, rd: Reg, imm: i64) -> Addr {
        self.emit(Opcode::Li { rd, imm })
    }

    pub fn mov(&mut self, rd: Reg, rs: Reg) -> Addr {
        self.emit(Opcode::Mov { rd, rs })
    }

    pub fn bin(&mut self, op: BinOp, rd: Reg, rs1: Reg, rs2: Reg) -> Addr {
        self.emit(Opcode::Bin { op, rd, rs1, rs2 })
    }

    pub fn bini(&mut self, op: BinOp, rd: Reg, rs1: Reg, imm: i64) -> Addr {
        self.emit(Opcode::BinImm { op, rd, rs1, imm })
    }

    /// `rd <- rs1 + rs2` (the most common op gets a shorthand).
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> Addr {
        self.bin(BinOp::Add, rd, rs1, rs2)
    }

    /// `rd <- rs + imm`.
    pub fn addi(&mut self, rd: Reg, rs: Reg, imm: i64) -> Addr {
        self.bini(BinOp::Add, rd, rs, imm)
    }

    pub fn load(&mut self, rd: Reg, base: Reg, offset: i64) -> Addr {
        self.emit(Opcode::Load { rd, base, offset })
    }

    pub fn store(&mut self, rs: Reg, base: Reg, offset: i64) -> Addr {
        self.emit(Opcode::Store { rs, base, offset })
    }

    pub fn jump(&mut self, t: impl Into<Target>) -> Addr {
        self.emit_target(|a| Opcode::Jump { target: a }, t.into(), Fixup::Jump)
    }

    pub fn jump_ind(&mut self, rs: Reg) -> Addr {
        self.emit(Opcode::JumpInd { rs })
    }

    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, t: impl Into<Target>) -> Addr {
        self.emit_target(
            move |a| Opcode::Branch { cond, rs1, rs2, target: a },
            t.into(),
            Fixup::Branch,
        )
    }

    pub fn call(&mut self, t: impl Into<Target>) -> Addr {
        self.emit_target(|a| Opcode::Call { target: a }, t.into(), Fixup::Call)
    }

    pub fn call_ind(&mut self, rs: Reg) -> Addr {
        self.emit(Opcode::CallInd { rs })
    }

    pub fn ret(&mut self) -> Addr {
        self.emit(Opcode::Ret)
    }

    /// Read one word from input channel `channel` into `rd`.
    pub fn input(&mut self, rd: Reg, channel: u16) -> Addr {
        self.emit(Opcode::In { rd, channel })
    }

    /// Write `rs` to output channel `channel`.
    pub fn output(&mut self, rs: Reg, channel: u16) -> Addr {
        self.emit(Opcode::Out { rs, channel })
    }

    pub fn alloc(&mut self, rd: Reg, size: Reg) -> Addr {
        self.emit(Opcode::Alloc { rd, size })
    }

    pub fn free(&mut self, rs: Reg) -> Addr {
        self.emit(Opcode::Free { rs })
    }

    pub fn spawn(&mut self, rd: Reg, t: impl Into<Target>, arg: Reg) -> Addr {
        self.emit_target(move |a| Opcode::Spawn { rd, target: a, arg }, t.into(), Fixup::Spawn)
    }

    pub fn join(&mut self, rs: Reg) -> Addr {
        self.emit(Opcode::Join { rs })
    }

    pub fn fetch_add(&mut self, rd: Reg, base: Reg, rs: Reg) -> Addr {
        self.emit(Opcode::Atomic { op: AtomicOp::FetchAdd, rd, base, rs })
    }

    pub fn swap(&mut self, rd: Reg, base: Reg, rs: Reg) -> Addr {
        self.emit(Opcode::Atomic { op: AtomicOp::Swap, rd, base, rs })
    }

    pub fn cas(&mut self, rd: Reg, base: Reg, expected: Reg, new: Reg) -> Addr {
        self.emit(Opcode::Cas { rd, base, expected, new })
    }

    pub fn fence(&mut self) -> Addr {
        self.emit(Opcode::Fence)
    }

    pub fn yield_(&mut self) -> Addr {
        self.emit(Opcode::Yield)
    }

    /// Trap the thread when `rs == 0`.
    pub fn assert_(&mut self, rs: Reg, msg: u32) -> Addr {
        self.emit(Opcode::Assert { rs, msg })
    }

    pub fn halt(&mut self) -> Addr {
        self.emit(Opcode::Halt)
    }

    pub fn exit(&mut self, rs: Reg) -> Addr {
        self.emit(Opcode::Exit { rs })
    }

    // ---- finalization ----------------------------------------------------

    /// Resolve fixups, validate, and produce the immutable [`Program`].
    pub fn build(mut self) -> Result<Program, BuildError> {
        if self.instrs.is_empty() {
            return Err(BuildError::Empty);
        }
        if self.funcs.is_empty() {
            return Err(BuildError::CodeOutsideFunction);
        }
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(last) = self.funcs.last_mut() {
            last.end = self.instrs.len() as Addr;
        }

        // Patch label fixups.
        for (fix, label) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .ok_or_else(|| BuildError::UndefinedLabel(label.clone()))?;
            let at = match fix {
                Fixup::Jump(a) | Fixup::Branch(a) | Fixup::Call(a) | Fixup::Spawn(a) => a,
            };
            match &mut self.instrs[at as usize].op {
                Opcode::Jump { target: t }
                | Opcode::Branch { target: t, .. }
                | Opcode::Call { target: t }
                | Opcode::Spawn { target: t, .. } => *t = target,
                _ => unreachable!("fixup points at non-target instruction"),
            }
        }

        let len = self.instrs.len() as Addr;

        // Validate targets and registers.
        for (i, insn) in self.instrs.iter().enumerate() {
            let at = i as Addr;
            if let Opcode::Jump { target }
            | Opcode::Branch { target, .. }
            | Opcode::Call { target }
            | Opcode::Spawn { target, .. } = insn.op
            {
                if target >= len {
                    return Err(BuildError::TargetOutOfRange { at, target });
                }
            }
            if let Some(rd) = insn.def() {
                if rd.index() >= NUM_REGS {
                    return Err(BuildError::InvalidRegister { at, reg: rd });
                }
            }
            for r in &insn.reg_uses() {
                if r.index() >= NUM_REGS {
                    return Err(BuildError::InvalidRegister { at, reg: r });
                }
            }
        }

        // Entry point: explicit > `main` > first function.
        let entry_label = self
            .entry
            .clone()
            .or_else(|| self.labels.contains_key("main").then(|| "main".to_string()))
            .unwrap_or_else(|| self.funcs[0].name.clone());
        let entry =
            *self.labels.get(&entry_label).ok_or(BuildError::UndefinedLabel(entry_label))?;

        Ok(Program::from_parts(self.instrs, self.funcs, self.labels, self.data, entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_label_fixup() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.jump("end");
        b.li(Reg(1), 42);
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(0).op, Opcode::Jump { target: 2 });
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.jump("nowhere");
        assert_eq!(b.build().unwrap_err(), BuildError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn empty_program_is_an_error() {
        assert_eq!(ProgramBuilder::new().build().unwrap_err(), BuildError::Empty);
    }

    #[test]
    fn code_outside_function_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.nop();
        assert_eq!(b.build().unwrap_err(), BuildError::CodeOutsideFunction);
    }

    #[test]
    fn invalid_register_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(200), 1);
        b.halt();
        assert!(matches!(b.build().unwrap_err(), BuildError::InvalidRegister { .. }));
    }

    #[test]
    fn entry_prefers_main() {
        let mut b = ProgramBuilder::new();
        b.func("helper");
        b.ret();
        b.func("main");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.entry(), 1);
    }

    #[test]
    fn explicit_entry_override() {
        let mut b = ProgramBuilder::new();
        b.func("a");
        b.halt();
        b.func("b");
        b.halt();
        b.entry("b");
        let p = b.build().unwrap();
        assert_eq!(p.entry(), 1);
    }

    #[test]
    fn func_ranges_are_contiguous() {
        let mut b = ProgramBuilder::new();
        b.func("f");
        b.nop();
        b.nop();
        b.func("g");
        b.nop();
        let p = b.build().unwrap();
        assert_eq!(p.funcs()[0].entry, 0);
        assert_eq!(p.funcs()[0].end, 2);
        assert_eq!(p.funcs()[1].entry, 2);
        assert_eq!(p.funcs()[1].end, 3);
    }

    #[test]
    fn stmt_pinning_groups_instructions() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.stmt(7);
        b.li(Reg(1), 1);
        b.li(Reg(2), 2);
        b.end_stmt();
        b.li(Reg(3), 3);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(0).stmt, 7);
        assert_eq!(p.fetch(1).stmt, 7);
        assert_eq!(p.fetch(2).stmt, 8);
    }

    #[test]
    fn data_block_seeds_memory() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.halt();
        b.data_block(100, &[1, 2, 3]);
        let p = b.build().unwrap();
        let image: Vec<(MemAddr, u64)> = p.data_image().iter().map(|(&a, &v)| (a, v)).collect();
        assert_eq!(image, [(100, 1), (101, 2), (102, 3)]);
    }

    #[test]
    fn data_block_at_the_top_of_memory() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.halt();
        b.data_block(u64::MAX, &[7]);
        b.data_block(u64::MAX - 1, &[]);
        let p = b.build().unwrap();
        let image: Vec<(MemAddr, u64)> = p.data_image().iter().map(|(&a, &v)| (a, v)).collect();
        assert_eq!(image, [(u64::MAX, 7)]);

        let mut b = ProgramBuilder::new();
        b.func("main");
        b.halt();
        b.data_block(u64::MAX, &[1, 2]);
        assert_eq!(b.build().unwrap_err(), BuildError::DataOverflow { addr: u64::MAX, words: 2 });
    }

    #[test]
    fn a_label_defined_twice_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.label("x");
        b.nop();
        b.label("x");
        b.jump("x");
        assert_eq!(b.build().unwrap_err(), BuildError::DuplicateLabel("x".into()));
    }

    #[test]
    fn a_function_defined_twice_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.nop();
        b.func("main");
        b.halt();
        assert_eq!(b.build().unwrap_err(), BuildError::DuplicateLabel("main".into()));

        // A label may not reuse a function's name either.
        let mut b = ProgramBuilder::new();
        b.func("f");
        b.label("f");
        b.halt();
        assert_eq!(b.build().unwrap_err(), BuildError::DuplicateLabel("f".into()));
    }

    #[test]
    fn branch_target_out_of_range_via_abs() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.jump(999u32);
        assert!(matches!(b.build().unwrap_err(), BuildError::TargetOutOfRange { .. }));
    }
}
