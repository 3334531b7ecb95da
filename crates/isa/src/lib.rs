//! # dift-isa — the instruction set of the DIFT substrate
//!
//! The IPDPS'08 system instruments x86 binaries under Pin/Valgrind. This
//! reproduction replaces that substrate with a small, well-specified
//! RISC-like ISA plus an interpreting VM (`dift-vm`). Every algorithm in
//! the paper — dependence tracing, slicing, taint propagation, replay —
//! consumes the *dynamic instruction stream* (opcodes, register and memory
//! operands, control flow), which this ISA produces faithfully.
//!
//! The crate provides:
//!
//! * [`Instruction`] / [`Opcode`] — the instruction forms, with generic
//!   def/use queries ([`Instruction::def`], [`Instruction::reg_uses`]).
//! * [`Program`] and [`ProgramBuilder`] — an in-memory assembler with
//!   labels, functions and an initial data image.
//! * [`mod@cfg`] — basic-block discovery and control-flow graphs.
//! * [`dom`] — dominator / post-dominator trees and static control
//!   dependence (needed by slicing and by ONTRAC's static optimizations).
//! * [`asm`] — a text assembler that round-trips with [`disasm`].
//!
//! ```
//! use dift_isa::{ProgramBuilder, Reg, BinOp};
//!
//! let mut b = ProgramBuilder::new();
//! b.func("main");
//! b.li(Reg(1), 2);
//! b.li(Reg(2), 3);
//! b.bin(BinOp::Add, Reg(3), Reg(1), Reg(2));
//! b.halt();
//! let program = b.build().unwrap();
//! assert_eq!(program.len(), 4);
//! ```

pub mod asm;
pub mod builder;
pub mod cfg;
pub mod disasm;
pub mod dom;
pub mod insn;
pub mod program;
pub mod reg;

pub use asm::{assemble, AsmError};
pub use builder::{BuildError, ProgramBuilder};
pub use cfg::{BasicBlock, BlockId, Cfg};
pub use dom::{control_dependence, DomTree};
pub use insn::{
    AtomicOp, BinOp, BranchCond, Instruction, MemKind, MemRef, Opcode, RegList, StmtId,
};
pub use program::{FuncId, FuncInfo, Program};
pub use reg::{Reg, NUM_REGS};

/// Instruction address (index into [`Program`]'s instruction array).
pub type Addr = u32;

/// A data-memory address (word-granular; the VM's memory is an array of
/// `u64` cells).
pub type MemAddr = u64;

/// Page size, in words, of the dense paged shadow structures that mirror
/// data memory (taint shadow map, DDG last-writer tables). One page
/// shadows 4 Ki words = 32 KiB of program memory; page-granular
/// allocation keeps sparse shadows cheap while indexing stays two array
/// lookups. Shared here so every shadow structure pages identically.
pub const SHADOW_PAGE_WORDS: usize = 4096;
