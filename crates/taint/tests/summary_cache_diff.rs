//! Differential property test: [`SummaryCachedEngine`] vs the plain
//! [`TaintEngine`] on randomized *looped* programs.
//!
//! The cache's contract is behavioral identity — labels, alerts
//! (including origin pointers), live shadow cells, output lineage, and
//! exact peak statistics must match the plain engine bit for bit, no
//! matter how the guards fare. Random loop bodies (ALU mixes, loads and
//! stores against a fixed buffer, tainted-address accesses, divisions
//! that can trap, data-dependent branches that diverge mid-region) run
//! over both a **fixed** scan base (guards hold, summaries apply) and a
//! **moving** one (every sweep's addresses differ, guards must bail),
//! through [`SummaryCachedEngine::process_stream`].

use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
use dift_taint::{BitTaint, PcTaint, SummaryCachedEngine, TaintEngine, TaintLabel, TaintPolicy};
use dift_vm::{Machine, MachineConfig, StepEffects};
use proptest::prelude::*;
use std::sync::Arc;

const OPS: [BinOp; 8] =
    [BinOp::Add, BinOp::Xor, BinOp::Mul, BinOp::And, BinOp::Shl, BinOp::Min, BinOp::Div, BinOp::Or];

/// Scan-buffer base; sized so `base + sweeps + 63 < mem_words` for
/// [`MachineConfig::small`].
const BUF: i64 = 500;

/// One random inner-loop statement. Data registers are `R1..=R8`;
/// `R9` = scan base, `R10` = inner index, `R11` = sweeps left,
/// `R12` = scratch address.
#[derive(Clone, Debug)]
enum Stmt {
    Alu {
        op: usize,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// `rd = mem[base + slot]` — fixed slot off the (possibly moving)
    /// scan base.
    Load {
        rd: u8,
        slot: u8,
    },
    /// `mem[base + slot] = rs`.
    Store {
        rs: u8,
        slot: u8,
    },
    /// Store through a data-derived (possibly tainted) address —
    /// the alert path, and per-sweep address variation even under a
    /// fixed base.
    StoreVia {
        rs: u8,
    },
    /// Skip the next statement when `rs1 < rs2` (signed): a
    /// data-dependent branch, so the sweep's path can diverge
    /// mid-region and the guard must bail exactly there.
    SkipIf {
        rs1: u8,
        rs2: u8,
    },
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..OPS.len(), 1u8..9, 1u8..9, 1u8..9).prop_map(|(op, rd, rs1, rs2)| Stmt::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (1u8..9, 0u8..8).prop_map(|(rd, slot)| Stmt::Load { rd, slot }),
        (1u8..9, 0u8..8).prop_map(|(rs, slot)| Stmt::Store { rs, slot }),
        (1u8..9).prop_map(|rs| Stmt::StoreVia { rs }),
        (1u8..9, 1u8..9).prop_map(|(rs1, rs2)| Stmt::SkipIf { rs1, rs2 }),
    ]
}

/// Build a looped program: ingest `ninputs` tainted words into the scan
/// buffer, run `sweeps` outer iterations of the random body, emit the
/// data registers. With `moving` the scan base advances one word per
/// sweep, so every sweep's address stream differs and guards must bail.
fn build(ninputs: usize, sweeps: u8, body: &[Stmt], moving: bool) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(9), BUF);
    for i in 0..ninputs {
        b.input(Reg(13), 0);
        b.store(Reg(13), Reg(9), i as i64);
        b.li(Reg(i as u8 + 1), i as i64 + 3); // seed the data regs too
    }
    b.li(Reg(11), sweeps as i64);
    b.label("sweep");
    // A `SkipIf` branches forward over the next statement; `pending`
    // holds its label until that statement has been emitted.
    let mut pending: Option<String> = None;
    let mut skip = 0usize;
    for s in body {
        if let Stmt::SkipIf { rs1, rs2 } = s {
            if let Some(l) = pending.take() {
                b.label(&l); // consecutive branch: previous one skips nothing
            }
            let l = format!("skip{skip}");
            skip += 1;
            b.branch(BranchCond::Lt, Reg(*rs1), Reg(*rs2), l.as_str());
            pending = Some(l);
            continue;
        }
        match s {
            Stmt::Alu { op, rd, rs1, rs2 } => {
                b.bin(OPS[*op], Reg(*rd), Reg(*rs1), Reg(*rs2));
            }
            Stmt::Load { rd, slot } => {
                b.load(Reg(*rd), Reg(9), *slot as i64);
            }
            Stmt::Store { rs, slot } => {
                b.store(Reg(*rs), Reg(9), *slot as i64);
            }
            Stmt::StoreVia { rs } => {
                // Address = BUF + (r[rs] & 63): in bounds, taint rides
                // on the address register.
                b.bini(BinOp::And, Reg(12), Reg(*rs), 63);
                b.add(Reg(12), Reg(12), Reg(9));
                b.store(Reg(*rs), Reg(12), 0);
            }
            Stmt::SkipIf { .. } => unreachable!("handled above"),
        }
        if let Some(l) = pending.take() {
            b.label(&l);
        }
    }
    if let Some(l) = pending.take() {
        b.label(&l);
    }
    if moving {
        b.addi(Reg(9), Reg(9), 1);
    }
    b.bini(BinOp::Sub, Reg(11), Reg(11), 1);
    b.branch(BranchCond::Ne, Reg(11), Reg(0), "sweep");
    for i in 1..9u8 {
        b.output(Reg(i), 1);
    }
    b.halt();
    Arc::new(b.build().unwrap())
}

fn capture(p: &Arc<Program>, inputs: &[u64]) -> (Vec<StepEffects>, usize) {
    let mut m = Machine::new(p.clone(), MachineConfig::small());
    m.feed_input(0, inputs);
    let mem_words = m.mem_words();
    (dift_dbi::capture(m).0, mem_words)
}

/// Run the plain engine and the cache over `p`'s effects stream and
/// assert every observable matches. Returns the hit count so callers
/// can assert the cache actually engaged where it must.
fn assert_cached_matches<T: TaintLabel>(
    p: &Arc<Program>,
    inputs: &[u64],
    policy: TaintPolicy,
) -> u64 {
    let (stream, mem_words) = capture(p, inputs);
    let mut plain = TaintEngine::<T>::new(policy);
    plain.pre_size(mem_words);
    for fx in &stream {
        plain.process(fx);
    }
    let mut cached = SummaryCachedEngine::<T>::new(policy, p);
    cached.engine_mut().pre_size(mem_words);
    cached.process_stream(&stream);

    let e = cached.engine();
    assert_eq!(e.output_labels, plain.output_labels, "output lineage must agree");
    assert_eq!(e.alerts, plain.alerts, "alerts (incl. origins) must agree");
    assert_eq!(e.tainted_words(), plain.tainted_words(), "tainted words");
    let cached_cells: Vec<(u64, T)> =
        e.shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
    let plain_cells: Vec<(u64, T)> =
        plain.shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
    assert_eq!(cached_cells, plain_cells, "live shadow cells must agree");
    assert_eq!(e.stats(), plain.stats(), "stats incl. exact peaks must agree");
    cached.stats().hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fixed scan base: the cacheable regime. Checks-on policy so the
    /// alert stream (tainted stores, tainted addresses) is compared too.
    #[test]
    fn cached_engine_matches_plain_on_fixed_buffers(
        body in proptest::collection::vec(stmt(), 1..16),
        sweeps in 3u8..9,
        inputs in proptest::collection::vec(0u64..1000, 1..5),
    ) {
        let p = build(inputs.len(), sweeps, &body, false);
        assert_cached_matches::<BitTaint>(&p, &inputs, TaintPolicy::default());
        assert_cached_matches::<PcTaint>(&p, &inputs, TaintPolicy::propagate_only());
    }

    /// Moving scan base: every sweep shifts the address stream, so
    /// guards bail and the fallback path must stay bit-identical.
    #[test]
    fn cached_engine_matches_plain_on_moving_buffers(
        body in proptest::collection::vec(stmt(), 1..16),
        sweeps in 3u8..9,
        inputs in proptest::collection::vec(0u64..1000, 1..5),
    ) {
        let p = build(inputs.len(), sweeps, &body, true);
        assert_cached_matches::<BitTaint>(&p, &inputs, TaintPolicy::default());
        let addr = TaintPolicy { propagate_through_addr: true, ..TaintPolicy::default() };
        assert_cached_matches::<BitTaint>(&p, &inputs, addr);
    }
}

/// The proptest must not pass vacuously: a branch-free fixed-base body
/// has stable shape, so the cache must actually hit it.
#[test]
fn fixed_buffer_loops_actually_hit_the_cache() {
    let body = vec![
        Stmt::Load { rd: 1, slot: 0 },
        Stmt::Alu { op: 0, rd: 2, rs1: 2, rs2: 1 },
        Stmt::Store { rs: 2, slot: 4 },
    ];
    let p = build(2, 8, &body, false);
    let hits = assert_cached_matches::<BitTaint>(&p, &[7, 9], TaintPolicy::default());
    assert!(hits > 0, "shape-stable loop must produce summary hits, got {hits}");
}
