//! Text assembler: the parsing counterpart of [`crate::disasm`].
//!
//! Accepts a simple line-oriented syntax — one instruction, label or
//! directive per line, `;` comments — that round-trips with the
//! disassembler's output:
//!
//! ```text
//! .func main
//!     li    r1, 10
//! loop:
//!     subi  r1, r1, 1
//!     bne   r1, r0, loop
//!     out   r1, ch0
//!     halt
//! .data 100 1 2 3
//! ```
//!
//! Branch/jump/call/spawn targets may be labels or absolute `@addr`
//! references (the form the disassembler emits). Operands are strict:
//! an immediate is one optional `-` then decimal digits or `0x` and hex
//! digits, every other number is plain decimal, an atomic's memory
//! operand is `(rN)` (the atomics have no offset field), and a line
//! with more operands than its mnemonic takes is an error. A directive
//! is its line's first whitespace-delimited token; `.func` and `.entry`
//! take exactly one name.

use crate::builder::{BuildError, ProgramBuilder, Target};
use crate::disasm::{BIN_OPS, BRANCH_CONDS};
use crate::program::Program;
use crate::reg::Reg;

/// Assembly-parsing errors, with the offending 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// Syntax problem in a line.
    Parse { line: usize, msg: String },
    /// The assembled program failed builder validation.
    Build(BuildError),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            AsmError::Build(e) => write!(f, "assembly failed validation: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError::Parse { line, msg: msg.into() }
}

/// A non-empty run of decimal digits. Rust's `parse` would also take a
/// sign (`+5`, and `-5` for signed types), which no operand field has.
fn parse_dec<N: std::str::FromStr>(t: &str) -> Option<N> {
    (!t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())).then(|| t.parse().ok()).flatten()
}

fn parse_reg(t: &str, line: usize) -> Result<Reg, AsmError> {
    let num =
        t.strip_prefix('r').ok_or_else(|| err(line, format!("expected register, got `{t}`")))?;
    let n: u8 = parse_dec(num).ok_or_else(|| err(line, format!("bad register `{t}`")))?;
    let r = Reg(n);
    if !r.is_valid() {
        return Err(err(line, format!("register out of range `{t}`")));
    }
    Ok(r)
}

/// One optional `-`, then decimal digits or `0x` and hex digits.
fn parse_imm(t: &str, line: usize) -> Result<i64, AsmError> {
    let bad = || err(line, format!("bad immediate `{t}`"));
    let (neg, mag) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let (radix, digits) = match mag.strip_prefix("0x") {
        Some(hex) => (16, hex),
        None => (10, mag),
    };
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return Err(bad());
    }
    // The magnitude is parsed wider than `i64` so that `i64::MIN`, whose
    // magnitude `i64` cannot hold, is accepted.
    let v = i128::from_str_radix(digits, radix).map_err(|_| bad())?;
    i64::try_from(if neg { -v } else { v }).map_err(|_| bad())
}

fn parse_target(t: &str, line: usize) -> Result<Target, AsmError> {
    if let Some(abs) = t.strip_prefix('@') {
        let a = parse_dec(abs).ok_or_else(|| err(line, format!("bad address `{t}`")))?;
        Ok(Target::Abs(a))
    } else if t.is_empty() {
        Err(err(line, "missing target"))
    } else {
        Ok(Target::Label(t.to_string()))
    }
}

/// Parse `offset(base)` memory operands like `-4(r2)`; the operand ends
/// at its `)`.
fn parse_mem(t: &str, line: usize) -> Result<(Reg, i64), AsmError> {
    let (off_str, rest) =
        t.split_once('(').ok_or_else(|| err(line, format!("expected offset(base), got `{t}`")))?;
    let base = rest
        .strip_suffix(')')
        .ok_or_else(|| err(line, format!("memory operand must end at its `)`: `{t}`")))?;
    let base = parse_reg(base, line)?;
    let offset = if off_str.is_empty() { 0 } else { parse_imm(off_str, line)? };
    Ok((base, offset))
}

/// An atomic's memory operand: `(rN)`, with no offset.
fn parse_atomic_mem(t: &str, line: usize) -> Result<Reg, AsmError> {
    let base = t
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| err(line, format!("an atomic's memory operand is `(rN)`, got `{t}`")))?;
    parse_reg(base, line)
}

fn parse_channel(t: &str, line: usize) -> Result<u16, AsmError> {
    let n = t
        .strip_prefix("ch")
        .ok_or_else(|| err(line, format!("expected channel `chN`, got `{t}`")))?;
    parse_dec(n).ok_or_else(|| err(line, format!("bad channel `{t}`")))
}

/// The variant `mnemonic` names in one of the disassembler's tables.
fn lookup<T: Copy>(table: &[(T, &str)], mnemonic: &str) -> Option<T> {
    table.iter().find(|&&(_, m)| m == mnemonic).map(|&(v, _)| v)
}

/// Assemble a source string into a [`Program`].
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    for (i, raw) in source.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // Directives: the line's first token.
        let mut toks = line.split_whitespace();
        let first = toks.next().expect("non-empty");
        if let ".func" | ".entry" = first {
            let (Some(name), None) = (toks.next(), toks.next()) else {
                return Err(err(line_no, format!("`{first}` takes one name")));
            };
            if first == ".func" {
                b.func(name);
            } else {
                b.entry(name);
            }
            continue;
        }
        if first == ".data" {
            let addr: u64 = toks
                .next()
                .and_then(parse_dec)
                .ok_or_else(|| err(line_no, ".data needs an address"))?;
            let words: Option<Vec<u64>> = toks.map(parse_dec).collect();
            let words = words.ok_or_else(|| err(line_no, "bad .data word"))?;
            b.data_block(addr, &words);
            continue;
        }

        // Labels (possibly with a trailing instruction).
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (label, tail) = rest.split_at(colon);
            if label.contains(char::is_whitespace) {
                break; // `:` belongs to something else
            }
            if label.is_empty() {
                return Err(err(line_no, "empty label"));
            }
            b.label(label);
            rest = tail[1..].trim();
            if rest.is_empty() {
                break;
            }
        }
        if rest.is_empty() {
            continue;
        }

        // Instruction.
        let mut toks = rest.split_whitespace();
        let mnem = toks.next().expect("non-empty");
        let ops: Vec<&str> = toks.map(|t| t.strip_suffix(',').unwrap_or(t)).collect();
        let need = |n: usize| -> Result<(), AsmError> {
            if ops.len() != n {
                Err(err(line_no, format!("`{mnem}` takes {n} operand(s), got {}", ops.len())))
            } else {
                Ok(())
            }
        };

        match mnem {
            "li" => {
                need(2)?;
                b.li(parse_reg(ops[0], line_no)?, parse_imm(ops[1], line_no)?);
            }
            "mov" => {
                need(2)?;
                b.mov(parse_reg(ops[0], line_no)?, parse_reg(ops[1], line_no)?);
            }
            "ld" => {
                need(2)?;
                let (base, off) = parse_mem(ops[1], line_no)?;
                b.load(parse_reg(ops[0], line_no)?, base, off);
            }
            "st" => {
                need(2)?;
                let (base, off) = parse_mem(ops[1], line_no)?;
                b.store(parse_reg(ops[0], line_no)?, base, off);
            }
            "j" => {
                need(1)?;
                b.jump(parse_target(ops[0], line_no)?);
            }
            "jr" => {
                need(1)?;
                b.jump_ind(parse_reg(ops[0], line_no)?);
            }
            "call" => {
                need(1)?;
                b.call(parse_target(ops[0], line_no)?);
            }
            "callr" => {
                need(1)?;
                b.call_ind(parse_reg(ops[0], line_no)?);
            }
            "in" => {
                need(2)?;
                b.input(parse_reg(ops[0], line_no)?, parse_channel(ops[1], line_no)?);
            }
            "out" => {
                need(2)?;
                b.output(parse_reg(ops[0], line_no)?, parse_channel(ops[1], line_no)?);
            }
            "alloc" => {
                need(2)?;
                b.alloc(parse_reg(ops[0], line_no)?, parse_reg(ops[1], line_no)?);
            }
            "free" => {
                need(1)?;
                b.free(parse_reg(ops[0], line_no)?);
            }
            "spawn" => {
                need(3)?;
                b.spawn(
                    parse_reg(ops[0], line_no)?,
                    parse_target(ops[1], line_no)?,
                    parse_reg(ops[2], line_no)?,
                );
            }
            "join" => {
                need(1)?;
                b.join(parse_reg(ops[0], line_no)?);
            }
            "amoadd" => {
                need(3)?;
                let base = parse_atomic_mem(ops[1], line_no)?;
                b.fetch_add(parse_reg(ops[0], line_no)?, base, parse_reg(ops[2], line_no)?);
            }
            "amoswap" => {
                need(3)?;
                let base = parse_atomic_mem(ops[1], line_no)?;
                b.swap(parse_reg(ops[0], line_no)?, base, parse_reg(ops[2], line_no)?);
            }
            "cas" => {
                need(4)?;
                let base = parse_atomic_mem(ops[1], line_no)?;
                b.cas(
                    parse_reg(ops[0], line_no)?,
                    base,
                    parse_reg(ops[2], line_no)?,
                    parse_reg(ops[3], line_no)?,
                );
            }
            "assert" => {
                need(2)?;
                let msg = parse_dec(ops[1].strip_prefix('#').unwrap_or(ops[1]))
                    .ok_or_else(|| err(line_no, "assert needs #N message id"))?;
                b.assert_(parse_reg(ops[0], line_no)?, msg);
            }
            "nop" | "ret" | "fence" | "yield" | "halt" => {
                need(0)?;
                match mnem {
                    "nop" => b.nop(),
                    "ret" => b.ret(),
                    "fence" => b.fence(),
                    "yield" => b.yield_(),
                    _ => b.halt(),
                };
            }
            "exit" => {
                need(1)?;
                b.exit(parse_reg(ops[0], line_no)?);
            }
            other => {
                // Register-register and register-immediate ALU forms:
                // `add rd, rs1, rs2` / `addi rd, rs1, imm`.
                if let Some(op) = lookup(&BIN_OPS, other) {
                    need(3)?;
                    b.bin(
                        op,
                        parse_reg(ops[0], line_no)?,
                        parse_reg(ops[1], line_no)?,
                        parse_reg(ops[2], line_no)?,
                    );
                } else if let Some(op) = other.strip_suffix('i').and_then(|m| lookup(&BIN_OPS, m)) {
                    need(3)?;
                    b.bini(
                        op,
                        parse_reg(ops[0], line_no)?,
                        parse_reg(ops[1], line_no)?,
                        parse_imm(ops[2], line_no)?,
                    );
                } else if let Some(cond) = lookup(&BRANCH_CONDS, other) {
                    need(3)?;
                    b.branch(
                        cond,
                        parse_reg(ops[0], line_no)?,
                        parse_reg(ops[1], line_no)?,
                        parse_target(ops[2], line_no)?,
                    );
                } else {
                    return Err(err(line_no, format!("unknown mnemonic `{other}`")));
                }
            }
        }
    }
    b.build().map_err(AsmError::Build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use crate::insn::Opcode;

    #[test]
    fn assemble_sum_loop_and_run_shape() {
        let p = assemble(
            r"
            .func main
                li    r1, 10
                li    r2, 0
            loop:
                add   r2, r2, r1
                subi  r1, r1, 1
                bne   r1, r0, loop
                out   r2, ch0
                halt
            ",
        )
        .unwrap();
        assert_eq!(p.len(), 7);
        assert_eq!(p.label("loop"), Some(2));
        assert!(matches!(p.fetch(4).op, Opcode::Branch { target: 2, .. }));
    }

    #[test]
    fn memory_operands_parse() {
        let p = assemble(
            r"
            .func main
                li  r1, 100
                st  r2, -4(r1)
                ld  r3, 8(r1)
                ld  r4, (r1)
                halt
            ",
        )
        .unwrap();
        assert_eq!(p.fetch(1).op, Opcode::Store { rs: Reg(2), base: Reg(1), offset: -4 });
        assert_eq!(p.fetch(2).op, Opcode::Load { rd: Reg(3), base: Reg(1), offset: 8 });
        assert_eq!(p.fetch(3).op, Opcode::Load { rd: Reg(4), base: Reg(1), offset: 0 });
    }

    #[test]
    fn directives_and_comments() {
        let p = assemble(
            r"
            ; a program with two functions
            .func helper
                ret
            .func main     ; entry by name
                call helper
                halt
            .data 50 7 8 9
            .entry main
            ",
        )
        .unwrap();
        assert_eq!(p.entry(), 1);
        assert_eq!(p.data_image().get(&51), Some(&8));
    }

    #[test]
    fn threads_atomics_and_io() {
        let p = assemble(
            r"
            .func main
                li      r1, 0
                spawn   r5, worker, r1
                join    r5
                amoadd  r2, (r3), r4
                amoswap r2, (r3), r4
                cas     r2, (r3), r4, r5
                in      r6, ch2
                out     r6, ch3
                fence
                yield
                assert  r6, #9
                halt
            .func worker
                exit r0
            ",
        )
        .unwrap();
        assert!(matches!(p.fetch(1).op, Opcode::Spawn { .. }));
        assert!(matches!(
            p.fetch(3).op,
            Opcode::Atomic { op: crate::insn::AtomicOp::FetchAdd, .. }
        ));
        assert!(matches!(p.fetch(5).op, Opcode::Cas { .. }));
        assert!(matches!(p.fetch(10).op, Opcode::Assert { msg: 9, .. }));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(".func main\n  bogus r1\n  halt").unwrap_err();
        assert!(matches!(e, AsmError::Parse { line: 2, .. }), "{e}");
        let e = assemble(".func main\n  li r99, 1\n  halt").unwrap_err();
        assert!(matches!(e, AsmError::Parse { line: 2, .. }));
        let e = assemble(".func main\n  j nowhere").unwrap_err();
        assert!(matches!(e, AsmError::Build(BuildError::UndefinedLabel(_))));
    }

    #[test]
    fn disassembly_round_trips() {
        let src = r"
            .func main
                li    r1, 5
                li    r2, 100
            loop:
                st    r1, (r2)
                ld    r3, (r2)
                muli  r3, r3, 3
                subi  r1, r1, 1
                bne   r1, r0, loop
                callr r3
                out   r3, ch1
                halt
            .func f
                slt   r4, r1, r2
                ret
        ";
        let p1 = assemble(src).unwrap();
        // Disassemble and re-assemble: instructions must be identical.
        let text = disassemble(&p1);
        // Strip address columns and function headers back into our syntax.
        let mut src2 = String::new();
        for line in text.lines() {
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            if let Some(name) = t.strip_suffix(':') {
                src2.push_str(&format!(".func {name}\n"));
            } else {
                // drop the leading address
                let insn = t.split_once(' ').map_or("", |x| x.1).trim();
                src2.push_str(insn);
                src2.push('\n');
            }
        }
        let p2 = assemble(&src2).unwrap();
        assert_eq!(p1.instructions().len(), p2.instructions().len());
        for (a, b) in p1.instructions().iter().zip(p2.instructions()) {
            assert_eq!(a.op, b.op);
        }
    }

    #[test]
    fn absolute_targets_parse() {
        let p = assemble(
            r"
            .func main
                j     @2
                nop
                halt
            ",
        )
        .unwrap();
        assert_eq!(p.fetch(0).op, Opcode::Jump { target: 2 });
    }

    #[test]
    fn a_name_defined_twice_is_an_error() {
        let e = assemble(".func main\nx:\n nop\nx:\n j x\n halt").unwrap_err();
        assert_eq!(e, AsmError::Build(BuildError::DuplicateLabel("x".into())));
        let e = assemble(".func main\n nop\n.func main\n halt").unwrap_err();
        assert_eq!(e, AsmError::Build(BuildError::DuplicateLabel("main".into())));
    }

    #[test]
    fn an_overflowing_data_block_is_an_error() {
        let e = assemble(".func main\n halt\n.data 18446744073709551615 1 2").unwrap_err();
        let want = BuildError::DataOverflow { addr: u64::MAX, words: 2 };
        assert_eq!(e, AsmError::Build(want));
        let p = assemble(".func main\n halt\n.data 18446744073709551615 1").unwrap();
        assert_eq!(p.data_image().get(&u64::MAX), Some(&1));
    }

    #[test]
    fn an_empty_label_is_an_error() {
        for src in [".func main\n: halt", ".func main\n:\n halt", ".func main\na:: halt"] {
            let e = assemble(src).unwrap_err();
            assert!(matches!(e, AsmError::Parse { line: 2, .. }), "{src:?}: {e}");
        }
    }

    #[test]
    fn misordered_parentheses_are_errors_not_panics() {
        for src in [".func main\n ld r1, )(\n", ".func main\n st r3, )0(r6\n"] {
            let e = assemble(src).unwrap_err();
            assert!(matches!(e, AsmError::Parse { line: 2, .. }), "{src:?}: {e}");
        }
    }

    #[test]
    fn the_most_negative_immediate_is_accepted() {
        let p = assemble(
            ".func main\n li r1, -9223372036854775808\n addi r2, r2, -0x8000000000000000\n halt",
        )
        .unwrap();
        assert_eq!(p.fetch(0).op, Opcode::Li { rd: Reg(1), imm: i64::MIN });
        assert!(matches!(p.fetch(1).op, Opcode::BinImm { imm: i64::MIN, .. }));
        // One past either end, and the negation of `i64::MIN`, still fail.
        for imm in ["-9223372036854775809", "9223372036854775808", "--9223372036854775808"] {
            let e = assemble(&format!(".func main\n li r1, {imm}\n halt")).unwrap_err();
            assert!(matches!(e, AsmError::Parse { line: 2, .. }), "{imm}: {e}");
        }
    }
}
