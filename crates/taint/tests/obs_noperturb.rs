//! Observability must not perturb semantics: a `TaintEngine` wired to a
//! live `StatsRecorder` must produce bit-identical outputs, alerts, and
//! statistics to the default no-op-instrumented engine, for arbitrary
//! programs. This is the contract that makes the probes safe to leave
//! in the hot path.

use dift_dbi::Engine;
use dift_isa::{BinOp, Program, ProgramBuilder, Reg};
use dift_obs::{Metric, StatsRecorder};
use dift_taint::{PcTaint, TaintEngine, TaintPolicy};
use dift_vm::{Machine, MachineConfig};
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

fn build(ninputs: usize, steps: &[Step]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    for i in 0..ninputs {
        b.input(Reg(i as u8 + 1), 0);
    }
    b.li(Reg(11), 500);
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
    for i in 1..10u8 {
        b.output(Reg(i), 1);
    }
    b.halt();
    Arc::new(b.build().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Enabled-vs-disabled recorder: identical engine outputs.
    #[test]
    fn recorder_does_not_perturb_semantics(steps in proptest::collection::vec(step(), 1..40)) {
        let p = build(2, &steps);
        let policy = TaintPolicy::default();

        let mut m1 = Machine::new(p.clone(), MachineConfig::small());
        m1.feed_input(0, &[3, 4]);
        let mut plain = TaintEngine::<PcTaint>::new(policy);
        let r1 = Engine::new(m1).run_tool(&mut plain);

        let mut m2 = Machine::new(p, MachineConfig::small());
        m2.feed_input(0, &[3, 4]);
        let mut probed =
            TaintEngine::<PcTaint, StatsRecorder>::with_recorder(policy, StatsRecorder::new());
        let r2 = Engine::new(m2).run_tool(&mut probed);

        prop_assert_eq!(r1.cycles, r2.cycles, "probes must not change modeled time");
        prop_assert_eq!(&plain.output_labels, &probed.output_labels);
        prop_assert_eq!(&plain.alerts, &probed.alerts);
        prop_assert_eq!(plain.stats(), probed.stats());
        prop_assert_eq!(plain.tainted_words(), probed.tainted_words());
        let plain_shadow: Vec<_> =
            plain.shadow().iter_tainted().map(|(a, l)| (a, *l)).collect();
        let probed_shadow: Vec<_> =
            probed.shadow().iter_tainted().map(|(a, l)| (a, *l)).collect();
        prop_assert_eq!(plain_shadow, probed_shadow);

        // And the recorder agrees with the engine's own counters — the
        // probes observe, not invent.
        prop_assert_eq!(probed.obs.get(Metric::TaintProcessCalls), probed.stats().instrs);
        prop_assert_eq!(probed.obs.get(Metric::TaintSources), probed.stats().sources);
        prop_assert_eq!(probed.obs.get(Metric::TaintAlerts) as usize, probed.alerts.len());
        prop_assert_eq!(
            probed.obs.get(Metric::TaintTaintedWords) as usize, probed.tainted_words()
        );
    }
}
