//! Differential property test: sentinel verdicts are identical no
//! matter which taint engine produced the PC-taint state — the plain
//! serial [`TaintEngine`], the epoch-parallel [`run_epoch_dift`]
//! offload, or the [`SummaryCachedEngine`]. Those engines guarantee
//! bit-identical alerts and output labels; this test pins that the
//! *policy layer* built on top inherits the guarantee: combined sink
//! events, rule verdicts, lineage sets, root-cause PCs, and receipts
//! serialize to byte-identical [`SentinelOutcome`]s.

use dift_dbi::capture;
use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
use dift_multicore::{run_epoch_dift, EpochModel};
use dift_sentinel::{
    apply_policy, combine_events, BoundaryPolicy, LineagePredicate, SinkClass, SinkObserver,
    SourceSpec, TaintBoundary, Verdict,
};
use dift_taint::{PcTaint, SummaryCachedEngine, TaintAlert, TaintEngine, TaintPolicy};
use dift_vm::{Machine, MachineConfig};
use proptest::prelude::*;
use std::sync::Arc;

const OPS: [BinOp; 6] = [BinOp::Add, BinOp::Xor, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Min];

/// Scratch buffer base, in bounds for [`MachineConfig::small`].
const BUF: i64 = 500;

/// One random loop statement over data registers `R1..=R6`.
#[derive(Clone, Debug)]
enum Stmt {
    Alu {
        op: usize,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Load {
        rd: u8,
        slot: u8,
    },
    Store {
        rs: u8,
        slot: u8,
    },
    /// Store through a data-derived (possibly tainted) address — the
    /// taint-alert path and a `MemWriteAddr` sink.
    StoreVia {
        rs: u8,
    },
    /// Data-dependent forward branch.
    SkipIf {
        rs1: u8,
        rs2: u8,
    },
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..OPS.len(), 1u8..7, 1u8..7, 1u8..7).prop_map(|(op, rd, rs1, rs2)| Stmt::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (1u8..7, 0u8..8).prop_map(|(rd, slot)| Stmt::Load { rd, slot }),
        (1u8..7, 0u8..8).prop_map(|(rs, slot)| Stmt::Store { rs, slot }),
        (1u8..7).prop_map(|rs| Stmt::StoreVia { rs }),
        (1u8..7, 1u8..7).prop_map(|(rs1, rs2)| Stmt::SkipIf { rs1, rs2 }),
    ]
}

/// Ingest words from TWO input channels (so lineage-channel predicates
/// have something to distinguish), run `sweeps` iterations of the
/// random body, then emit the data registers — `Output` sinks with
/// real per-word lineage.
fn build(n0: usize, n1: usize, sweeps: u8, body: &[Stmt]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(9), BUF);
    for i in 0..n0 {
        b.input(Reg(13), 0);
        b.store(Reg(13), Reg(9), i as i64);
        b.li(Reg(i as u8 % 6 + 1), i as i64 + 3);
    }
    for i in 0..n1 {
        b.input(Reg(13), 1);
        b.store(Reg(13), Reg(9), (n0 + i) as i64);
    }
    b.li(Reg(11), sweeps as i64);
    b.label("sweep");
    let mut pending: Option<String> = None;
    let mut skip = 0usize;
    for s in body {
        if let Stmt::SkipIf { rs1, rs2 } = s {
            if let Some(l) = pending.take() {
                b.label(&l);
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
    b.bini(BinOp::Sub, Reg(11), Reg(11), 1);
    b.branch(BranchCond::Ne, Reg(11), Reg(0), "sweep");
    for i in 1..7u8 {
        b.output(Reg(i), 2);
    }
    b.halt();
    Arc::new(b.build().unwrap())
}

/// A policy touching every sink class, with a lineage predicate and a
/// wildcard output rule, so a verdict mismatch anywhere surfaces.
fn boundary() -> BoundaryPolicy {
    BoundaryPolicy::new()
        .class("untrusted", vec![0])
        .rule(TaintBoundary::new(
            "halt-tainted-control",
            SourceSpec::Class("untrusted".into()),
            SinkClass::ControlTarget,
            Verdict::Contain,
        ))
        .rule(TaintBoundary::new(
            "block-tainted-store",
            SourceSpec::Class("untrusted".into()),
            SinkClass::MemWriteAddr,
            Verdict::Contain,
        ))
        .rule(TaintBoundary::new(
            "block-tainted-load",
            SourceSpec::Class("untrusted".into()),
            SinkClass::MemReadAddr,
            Verdict::Deny,
        ))
        .rule(
            TaintBoundary::new(
                "no-mixed-writes",
                SourceSpec::Any,
                SinkClass::MemWriteValue,
                Verdict::Deny,
            )
            .when(LineagePredicate::MinDistinctChannels(2)),
        )
        .rule(TaintBoundary::new(
            "no-secret-output",
            SourceSpec::Channels(vec![1]),
            SinkClass::Output { channel: None },
            Verdict::Deny,
        ))
}

fn machine(p: &Arc<Program>, in0: &[u64], in1: &[u64]) -> Machine {
    let mut m = Machine::new(p.clone(), MachineConfig::small());
    m.feed_input(0, in0);
    m.feed_input(1, in1);
    m
}

/// Evaluate the boundary policy against one engine's taint state (the
/// sink observations are shared — lineage is engine-independent).
fn verdicts(
    observer: &mut SinkObserver,
    alerts: &[TaintAlert<PcTaint>],
    output_labels: &[(u16, u64, PcTaint)],
) -> String {
    let events = combine_events(observer.observations(), alerts, output_labels);
    apply_policy(&boundary(), events).canonical_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Plain vs epoch-parallel vs summary-cached: the sentinel outcome
    /// must be byte-identical across all three.
    #[test]
    fn sentinel_outcome_is_engine_independent(
        body in proptest::collection::vec(stmt(), 1..12),
        sweeps in 2u8..7,
        in0 in proptest::collection::vec(0u64..1000, 1..4),
        in1 in proptest::collection::vec(0u64..1000, 1..4),
    ) {
        let p = build(in0.len(), in1.len(), sweeps, &body);
        let policy = TaintPolicy::default();

        // Capture the step stream once.
        let m = machine(&p, &in0, &in1);
        let mem_words = m.mem_words();
        let (fxs, _) = capture(m);

        // One shared lineage pass (engine-independent by construction).
        let mut observer = SinkObserver::new();
        for fx in &fxs {
            observer.process(fx);
        }

        // Plain serial engine.
        let mut plain = TaintEngine::<PcTaint>::new(policy);
        plain.pre_size(mem_words);
        for fx in &fxs {
            plain.process(fx);
        }
        let baseline = verdicts(&mut observer, &plain.alerts, &plain.output_labels);

        // Epoch-parallel offload.
        let epoch = run_epoch_dift::<PcTaint>(machine(&p, &in0, &in1), EpochModel::software(3), policy);
        prop_assert_eq!(&epoch.engine.alerts, &plain.alerts, "epoch alert stream must agree");
        let via_epoch = verdicts(&mut observer, &epoch.engine.alerts, &epoch.engine.output_labels);
        prop_assert_eq!(&via_epoch, &baseline, "epoch-parallel sentinel outcome diverged");

        // Summary-cached engine.
        let mut cached = SummaryCachedEngine::<PcTaint>::new(policy, &p);
        cached.engine_mut().pre_size(mem_words);
        cached.process_stream(&fxs);
        let e = cached.engine();
        prop_assert_eq!(&e.alerts, &plain.alerts, "cached alert stream must agree");
        let via_cache = verdicts(&mut observer, &e.alerts, &e.output_labels);
        prop_assert_eq!(&via_cache, &baseline, "summary-cached sentinel outcome diverged");
    }
}
