//! Property tests: assembler/disassembler round-trip on random programs
//! and CFG structural invariants.

use dift_isa::{
    assemble, disasm::disassemble, AsmError, BinOp, BranchCond, Cfg, Instruction, ProgramBuilder,
    Reg,
};
use proptest::prelude::*;

const BIN_OPS: [BinOp; 19] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Sar,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Ltu,
    BinOp::Leu,
    BinOp::Min,
    BinOp::Max,
];

const CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

/// A strategy over "emittable" opcodes (targets filled in later, bounded
/// by the program length).
#[derive(Clone, Debug)]
enum Emit {
    Nop,
    Li(u8, i64),
    Mov(u8, u8),
    Bin(usize, u8, u8, u8),
    BinImm(usize, u8, u8, i64),
    Load(u8, u8, i64),
    Store(u8, u8, i64),
    Branch(usize, u8, u8),
    In(u8, u16),
    Out(u8, u16),
    FetchAdd(u8, u8, u8),
    Swap(u8, u8, u8),
    Cas(u8, u8, u8, u8),
    Fence,
    Yield,
    Assert(u8, u32),
}

fn emit() -> impl Strategy<Value = Emit> {
    let r = 0u8..32;
    prop_oneof![
        Just(Emit::Nop),
        (r.clone(), -4096i64..4096).prop_map(|(a, i)| Emit::Li(a, i)),
        (r.clone(), r.clone()).prop_map(|(a, b)| Emit::Mov(a, b)),
        (0..BIN_OPS.len(), r.clone(), r.clone(), r.clone())
            .prop_map(|(o, a, b, c)| Emit::Bin(o, a, b, c)),
        (0..BIN_OPS.len(), r.clone(), r.clone(), -512i64..512)
            .prop_map(|(o, a, b, i)| Emit::BinImm(o, a, b, i)),
        (r.clone(), r.clone(), -64i64..64).prop_map(|(a, b, o)| Emit::Load(a, b, o)),
        (r.clone(), r.clone(), -64i64..64).prop_map(|(a, b, o)| Emit::Store(a, b, o)),
        (0..CONDS.len(), r.clone(), r.clone()).prop_map(|(c, a, b)| Emit::Branch(c, a, b)),
        (r.clone(), 0u16..8).prop_map(|(a, c)| Emit::In(a, c)),
        (r.clone(), 0u16..8).prop_map(|(a, c)| Emit::Out(a, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Emit::FetchAdd(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Emit::Swap(a, b, c)),
        (r.clone(), r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c, d)| Emit::Cas(a, b, c, d)),
        Just(Emit::Fence),
        Just(Emit::Yield),
        (r, 0u32..100).prop_map(|(a, m)| Emit::Assert(a, m)),
    ]
}

fn build_program(emits: &[Emit]) -> dift_isa::Program {
    let n = emits.len() as u32 + 1; // + halt
    let mut b = ProgramBuilder::new();
    b.func("main");
    for (i, e) in emits.iter().enumerate() {
        match e.clone() {
            Emit::Nop => {
                b.nop();
            }
            Emit::Li(a, imm) => {
                b.li(Reg(a), imm);
            }
            Emit::Mov(a, c) => {
                b.mov(Reg(a), Reg(c));
            }
            Emit::Bin(o, a, c, d) => {
                b.bin(BIN_OPS[o], Reg(a), Reg(c), Reg(d));
            }
            Emit::BinImm(o, a, c, imm) => {
                b.bini(BIN_OPS[o], Reg(a), Reg(c), imm);
            }
            Emit::Load(a, c, off) => {
                b.load(Reg(a), Reg(c), off);
            }
            Emit::Store(a, c, off) => {
                b.store(Reg(a), Reg(c), off);
            }
            Emit::Branch(c, a, d) => {
                // Deterministic in-range target derived from position.
                let target = ((i as u32) * 7 + 3) % n;
                b.branch(CONDS[c], Reg(a), Reg(d), target);
            }
            Emit::In(a, ch) => {
                b.input(Reg(a), ch);
            }
            Emit::Out(a, ch) => {
                b.output(Reg(a), ch);
            }
            Emit::FetchAdd(a, c, d) => {
                b.fetch_add(Reg(a), Reg(c), Reg(d));
            }
            Emit::Swap(a, c, d) => {
                b.swap(Reg(a), Reg(c), Reg(d));
            }
            Emit::Cas(a, c, d, e2) => {
                b.cas(Reg(a), Reg(c), Reg(d), Reg(e2));
            }
            Emit::Fence => {
                b.fence();
            }
            Emit::Yield => {
                b.yield_();
            }
            Emit::Assert(a, m) => {
                b.assert_(Reg(a), m);
            }
        }
    }
    b.halt();
    b.build().unwrap()
}

/// Convert a disassembly listing back into assembler syntax.
fn relisting(text: &str) -> String {
    let mut src = String::new();
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(name) = t.strip_suffix(':') {
            src.push_str(&format!(".func {name}\n"));
        } else {
            let insn = t.split_once(' ').map_or("", |x| x.1).trim();
            src.push_str(insn);
            src.push('\n');
        }
    }
    src
}

/// Swap, drop or duplicate the parentheses of the memory operand on a
/// relisted line (`edit` picks which); every such edit is malformed.
fn edit_parens(line: &str, edit: usize) -> String {
    match edit {
        0 => line
            .chars()
            .map(|c| match c {
                '(' => ')',
                ')' => '(',
                c => c,
            })
            .collect(),
        1 => line.replacen('(', "", 1),
        2 => line.replacen(')', "", 1),
        3 => line.replacen('(', "((", 1),
        _ => line.replacen(')', "))", 1),
    }
}

/// Malform one operand of a relisted line (`edit` picks how): a
/// doubled sign on an immediate or offset, an inner sign in a register,
/// channel, target or message number, text after a memory operand's
/// `)`, one operand too many, a directive fused with its operand, or an
/// offset on an atomic's `(rN)`. `None` when the line has nothing that
/// edit applies to.
fn edit_operand(line: &str, edit: usize) -> Option<String> {
    if line.starts_with('.') {
        return (edit == 4).then(|| line.replacen(' ', "", 1));
    }
    let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
    if edit == 3 {
        let sep = if toks.len() > 1 { "," } else { "" };
        return Some(format!("{line}{sep} r1"));
    }
    for t in toks.iter_mut().skip(1) {
        let edited =
            match edit {
                0 => t
                    .trim_start_matches('-')
                    .starts_with(|c: char| c.is_ascii_digit())
                    .then(|| if t.starts_with('-') { format!("-{t}") } else { format!("-+{t}") }),
                1 => ["r", "ch", "@", "#"].iter().find_map(|p| {
                    let n = t.strip_prefix(p)?;
                    n.starts_with(|c: char| c.is_ascii_digit()).then(|| format!("{p}+{n}"))
                }),
                2 => t.contains(')').then(|| t.replacen(')', ")x", 1)),
                // Only an atomic's memory operand starts at its `(`: the
                // disassembler prints every load and store offset.
                5 => t.starts_with('(').then(|| format!("8{t}")),
                _ => None,
            };
        if let Some(e) = edited {
            *t = e;
            return Some(toks.join(" "));
        }
    }
    None
}

/// Operand forms the assembler once took (reading `--5` as 5, `0x-5` as
/// -5, `r+1` as r1, `4(r2)x` as `4(r2)`, dropping an extra operand or an
/// atomic's offset, and reading a directive fused with its operand, or
/// followed by two names, as that directive): each is now an error on
/// its own line.
#[test]
fn malformed_operand_forms_are_errors() {
    for bad in [
        "li r1, --5",
        "li r1, 0x-5",
        "li r1, 0x+5",
        "li r1, -+5",
        "li r1, +5",
        "li r+1, 5",
        "ld r1, 4(r+2)",
        "in r1, ch+0",
        "j @+1",
        ".data +10 +5",
        "ld r1, 4(r2)x",
        "add r1, r2, r3, r4",
        "li r1, 5 7",
        "ret r1",
        "halt r1",
        ".funcmain",
        ".entrymain",
        ".data100 5",
        ".func main extra",
        ".entry",
        ".entry main extra",
        "amoadd r1, 8(r2), r3",
        "amoswap r1, 8(r2), r3",
        "cas r1, 16(r2), r3, r4",
        "amoadd r1, 0(r2), r3",
    ] {
        let e = assemble(&format!(".func main\n{bad}\nhalt\n"));
        assert!(matches!(e, Err(AsmError::Parse { line: 2, .. })), "{bad}: {e:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Malformed operands are assembly errors: `assemble` fails exactly
    /// when some line of a relisted random program was edited.
    #[test]
    fn malformed_operands_are_errors(
        emits in proptest::collection::vec(emit(), 1..60),
        edits in proptest::collection::vec(0usize..6, 1..8),
    ) {
        let src = relisting(&disassemble(&build_program(&emits)));
        let mut edits = edits.iter().cycle();
        let mut edited = false;
        let mut mutated = String::new();
        for line in src.lines() {
            match edit_operand(line, *edits.next().unwrap()) {
                Some(e) => {
                    mutated.push_str(&e);
                    edited = true;
                }
                None => mutated.push_str(line),
            }
            mutated.push('\n');
        }
        prop_assert_eq!(assemble(&mutated).is_err(), edited, "source:\n{}", mutated);
    }

    /// Memory operands with misplaced parentheses are assembly errors,
    /// never panics. Random byte mutations almost never produce one, so
    /// the edits target the operands of relisted random programs.
    #[test]
    fn misparenthesized_memory_operands_are_errors(
        emits in proptest::collection::vec(emit(), 1..60),
        edits in proptest::collection::vec(0usize..5, 1..8),
    ) {
        let src = relisting(&disassemble(&build_program(&emits)));
        let mut edits = edits.iter().cycle();
        let mut edited = false;
        let mut mutated = String::new();
        for line in src.lines() {
            if line.contains('(') {
                mutated.push_str(&edit_parens(line, *edits.next().unwrap()));
                edited = true;
            } else {
                mutated.push_str(line);
            }
            mutated.push('\n');
        }
        prop_assert_eq!(assemble(&mutated).is_err(), edited, "source:\n{}", mutated);
    }

    /// disassemble ∘ assemble is the identity on instructions for random
    /// programs over (almost) the whole opcode space.
    #[test]
    fn disasm_asm_round_trip(emits in proptest::collection::vec(emit(), 1..60)) {
        let p1 = build_program(&emits);
        let text = disassemble(&p1);
        let p2 = assemble(&relisting(&text))
            .unwrap_or_else(|e| panic!("reassembly failed: {e}\n{text}"));
        prop_assert_eq!(p1.len(), p2.len());
        for (a, b) in p1.instructions().iter().zip(p2.instructions()) {
            prop_assert_eq!(a.op, b.op, "listing:\n{}", text);
        }
    }

    /// CFG structural invariants: blocks partition the function, edges
    /// are symmetric, and every non-exit terminator's static successors
    /// are block leaders.
    #[test]
    fn cfg_invariants(emits in proptest::collection::vec(emit(), 1..60)) {
        let p = build_program(&emits);
        let cfg = Cfg::build(&p, 0);
        // Partition: block ranges are contiguous and cover the function.
        let mut expected_start = 0u32;
        for blk in &cfg.blocks {
            prop_assert_eq!(blk.start, expected_start);
            prop_assert!(blk.end > blk.start);
            expected_start = blk.end;
        }
        prop_assert_eq!(expected_start as usize, p.len());
        // Edge symmetry.
        for (i, blk) in cfg.blocks.iter().enumerate() {
            for &s in &blk.succs {
                prop_assert!(cfg.blocks[s as usize].preds.contains(&(i as u32)));
            }
            for &pr in &blk.preds {
                prop_assert!(cfg.blocks[pr as usize].succs.contains(&(i as u32)));
            }
        }
        // block_at agrees with the partition.
        for (i, blk) in cfg.blocks.iter().enumerate() {
            for a in blk.addrs() {
                prop_assert_eq!(cfg.block_at(a), Some(i as u32));
            }
        }
    }

    /// Instruction def/use queries never mention invalid registers and
    /// the data/addr split partitions reg_uses.
    #[test]
    fn operand_queries_are_consistent(emits in proptest::collection::vec(emit(), 1..60)) {
        let p = build_program(&emits);
        for insn @ Instruction { op, .. } in p.instructions() {
            let uses = insn.reg_uses();
            for r in &uses {
                prop_assert!(r.is_valid());
            }
            for r in &insn.data_uses() {
                // In/Out channel regs etc: data uses are a subset of uses.
                prop_assert!(uses.contains(r), "{op:?}: data use {r} not in reg_uses");
            }
            for r in &insn.addr_uses() {
                prop_assert!(uses.contains(r), "{op:?}: addr use {r} not in reg_uses");
            }
            if let Some(rd) = insn.def() {
                prop_assert!(rd.is_valid());
            }
            // Atomics read and write memory; loads read; stores write.
            if let Some(mr) = insn.mem_ref() {
                prop_assert!(mr.base.is_valid());
            }
        }
    }
}
