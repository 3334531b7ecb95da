//! Differential property test: slice queries against the epoch-sharded
//! pipeline's merged index must be bit-identical to queries against the
//! serial tracer's index.
//!
//! Random looped programs (control dependences from the loop branch, a
//! call/ret pair per iteration to exercise the control-stack snapshots,
//! loop-carried register and memory dependences) run once; the captured
//! effects stream is fed to [`shard_lineage_stream`] with slicing
//! enabled at several epoch lengths, and every [`SliceService`] query
//! path — backward, forward, backward-from-address — is compared against
//! the same query over the serial `OnTrac` unoptimized index. The serial
//! run also pins the one deriver: the offline post-processing pass over
//! the captured stream yields the tracer's records, in order, and every
//! record names its steps' true address and statement.

use dift_dbi::{Capture, Engine};
use dift_ddg::buffer::BufRecord;
use dift_ddg::offline::derive_full_deps;
use dift_ddg::{OnTrac, OnTracConfig, SliceIndex};
use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
use dift_multicore::{shard_lineage_stream, LineageShardConfig};
use dift_slicing::{KindMask, SliceQuery, SliceService};
use dift_vm::{Machine, MachineConfig, StepEffects};
use proptest::prelude::*;
use std::sync::Arc;

const OPS: [BinOp; 6] = [BinOp::Add, BinOp::Xor, BinOp::Mul, BinOp::And, BinOp::Min, BinOp::Shl];

#[derive(Clone, Debug)]
enum Step {
    Alu { op: usize, rd: u8, rs1: u8, rs2: u8 },
    Store { rs: u8, slot: u8 },
    Load { rd: u8, slot: u8 },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..OPS.len(), 1u8..10, 1u8..10, 1u8..10).prop_map(|(op, rd, rs1, rs2)| Step::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (1u8..10, 0u8..8).prop_map(|(rs, slot)| Step::Store { rs, slot }),
        (1u8..10, 0u8..8).prop_map(|(rd, slot)| Step::Load { rd, slot }),
    ]
}

/// Random loop body with a call per iteration: control dependences from
/// the back-edge branch, frames pushed/popped across epoch boundaries.
fn build(iters: u64, steps: &[Step]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(13), iters as i64);
    b.li(Reg(11), 500);
    for r in 1..10u8 {
        b.li(Reg(r), r as i64);
    }
    b.label("loop");
    for s in steps {
        match s {
            Step::Alu { op, rd, rs1, rs2 } => {
                b.bin(OPS[*op], Reg(*rd), Reg(*rs1), Reg(*rs2));
            }
            Step::Store { rs, slot } => {
                b.store(Reg(*rs), Reg(11), *slot as i64);
            }
            Step::Load { rd, slot } => {
                b.load(Reg(*rd), Reg(11), *slot as i64);
            }
        }
    }
    b.call("bump");
    b.bini(BinOp::Sub, Reg(13), Reg(13), 1);
    b.branch(BranchCond::Ne, Reg(13), Reg(0), "loop");
    b.output(Reg(2), 0);
    b.halt();
    b.func("bump");
    b.bini(BinOp::Add, Reg(9), Reg(9), 1);
    b.ret();
    Arc::new(b.build().unwrap())
}

/// The serial ground truth: unoptimized ONTRAC with a never-evicting
/// buffer (the sharded path records every dependence too).
fn serial_index(p: &Arc<Program>) -> (OnTrac, Vec<StepEffects>) {
    let m = Machine::new(p.clone(), MachineConfig::small());
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(p, mem, OnTracConfig::unoptimized(1 << 24));
    let mut cap = Capture::default();
    let r = Engine::new(m).run(&mut [&mut tracer, &mut cap]);
    assert!(r.status.is_clean(), "{:?}", r.status);
    (tracer, cap.0)
}

/// One deriver, true def sites: the offline pass over the captured
/// stream equals the serial tracer's records in order, and each record's
/// def and user address and statement are those of the captured steps
/// it names (a single-threaded stream is indexed by step).
fn assert_one_deriver(p: &Arc<Program>, tracer: &OnTrac, fxs: &[StepEffects]) {
    let offline = derive_full_deps(p, fxs, MachineConfig::small().mem_words);
    let serial: Vec<BufRecord> = tracer.buffer().records().collect();
    assert_eq!(offline, serial, "offline derivation vs serial tracer");
    for r in &offline {
        for (step, addr, stmt) in
            [(r.dep.def, r.def_addr, r.def_stmt), (r.dep.user, r.user_addr, r.user_stmt)]
        {
            let fx = &fxs[step as usize];
            assert_eq!(fx.step, step, "captured steps index the stream");
            assert_eq!((addr, stmt), (fx.addr, fx.insn.stmt), "site of step {step} in {r:?}");
        }
    }
}

/// Every service query path over the merged index must equal the same
/// query over the serial index.
fn assert_service_agrees(sharded: &SliceIndex, serial: &SliceIndex, p: &Arc<Program>, ctx: &str) {
    assert_eq!(sharded.edges(), serial.edges(), "{ctx}: edge count");
    let mut live: Vec<u64> = serial.steps().collect();
    live.sort_unstable();
    let crit_sets: Vec<Vec<u64>> = vec![
        live.iter().copied().step_by(live.len().div_ceil(5).max(1)).collect(),
        live.last().map(|&s| vec![s, u64::MAX]).unwrap_or_default(),
        vec![],
    ];
    let addrs: Vec<u32> = (0..p.len() as u32).chain([999_999]).collect();
    let mut got = SliceService::new(sharded);
    let mut want = SliceService::new(serial);
    for mask in [KindMask::classic(), KindMask::data_only()] {
        for crit in &crit_sets {
            let q = SliceQuery::Backward { criterion: crit.clone(), mask };
            assert_eq!(got.query(&q), want.query(&q), "{ctx}: backward {crit:?}");
            let q = SliceQuery::Forward { criterion: crit.clone(), mask };
            assert_eq!(got.query(&q), want.query(&q), "{ctx}: forward {crit:?}");
        }
        for &addr in &addrs {
            let q = SliceQuery::BackwardFromAddr { addr, mask };
            assert_eq!(got.query(&q), want.query(&q), "{ctx}: from_addr {addr}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_slice_service_matches_serial(
        steps in proptest::collection::vec(step(), 2..10),
        iters in 3u64..12,
        epoch_len in 3usize..32,
        workers in 1usize..4,
    ) {
        let p = build(iters, &steps);
        let (tracer, fxs) = serial_index(&p);
        assert_one_deriver(&p, &tracer, &fxs);
        let serial = tracer.slice_index().expect("index on");
        let mem_words = MachineConfig::small().mem_words;
        let mut cfg = LineageShardConfig::new(workers, epoch_len, 16);
        cfg.slice = true;
        let run = shard_lineage_stream(&fxs, &p, mem_words, &cfg);
        let merged = run.index.as_ref().expect("slice enabled");
        let ctx = format!("workers={workers} epoch_len={epoch_len}");
        assert_service_agrees(merged, serial, &p, &ctx);
    }
}

/// Epoch length 1 — every dependence crosses an epoch boundary, the
/// worst case for the pending-resolution path.
#[test]
fn single_step_epochs_still_match() {
    let steps = vec![
        Step::Alu { op: 0, rd: 2, rs1: 1, rs2: 2 },
        Step::Store { rs: 2, slot: 3 },
        Step::Load { rd: 4, slot: 3 },
    ];
    let p = build(5, &steps);
    let (tracer, fxs) = serial_index(&p);
    assert_one_deriver(&p, &tracer, &fxs);
    let serial = tracer.slice_index().expect("index on");
    let mem_words = MachineConfig::small().mem_words;
    let mut cfg = LineageShardConfig::new(2, 1, 16);
    cfg.slice = true;
    let run = shard_lineage_stream(&fxs, &p, mem_words, &cfg);
    assert_service_agrees(run.index.as_ref().unwrap(), serial, &p, "epoch_len=1");
    assert!(run.stats.cross_epoch_deps > 0, "everything must cross: {:?}", run.stats);
}
