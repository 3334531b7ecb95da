//! Differential property test: the paged-shadow engine vs the retained
//! HashMap reference oracle.
//!
//! Randomized programs (ALU mixes, direct and *indirect* memory traffic
//! through possibly-tainted addresses) run once; the recorded effects
//! stream drives both engines, which must agree on every observable:
//! output labels, alerts (including origin pointers), live tainted
//! cells, and exact peak statistics.

use dift_dbi::capture;
use dift_isa::{BinOp, Program, ProgramBuilder, Reg};
use dift_taint::{
    process_by_epochs, BitTaint, PcTaint, ReferenceTaintEngine, TaintEngine, TaintLabel,
    TaintPolicy,
};
use dift_vm::{Machine, MachineConfig};
use proptest::prelude::*;
use std::sync::Arc;

const OPS: [BinOp; 6] = [BinOp::Add, BinOp::Xor, BinOp::Mul, BinOp::And, BinOp::Min, BinOp::Shl];

#[derive(Clone, Debug)]
enum Step {
    Alu {
        op: usize,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Store {
        rs: u8,
        slot: u8,
    },
    Load {
        rd: u8,
        slot: u8,
    },
    /// Store through an address derived from a (possibly tainted)
    /// register — the alert-generating path.
    StoreVia {
        rs: u8,
    },
    /// Load through a derived address.
    LoadVia {
        rd: u8,
        rs: u8,
    },
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
        (1u8..10).prop_map(|rs| Step::StoreVia { rs }),
        (1u8..10, 1u8..10).prop_map(|(rd, rs)| Step::LoadVia { rd, rs }),
    ]
}

fn build(ninputs: usize, steps: &[Step]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    for i in 0..ninputs {
        b.input(Reg(i as u8 + 1), 0);
    }
    b.li(Reg(11), 500); // direct-slot base
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
            Step::StoreVia { rs } => {
                // Address = 500 + (r[rs] & 63): stays in-bounds while
                // keeping the source register's taint on the address.
                b.bini(BinOp::And, Reg(12), Reg(*rs), 63);
                b.add(Reg(12), Reg(12), Reg(11));
                b.store(Reg(*rs), Reg(12), 0);
            }
            Step::LoadVia { rd, rs } => {
                b.bini(BinOp::And, Reg(12), Reg(*rs), 63);
                b.add(Reg(12), Reg(12), Reg(11));
                b.load(Reg(*rd), Reg(12), 0);
            }
        }
    }
    for i in 1..10u8 {
        b.output(Reg(i), 1);
    }
    b.halt();
    Arc::new(b.build().unwrap())
}

fn assert_engines_agree<T: TaintLabel>(p: &Arc<Program>, inputs: &[u64], policy: TaintPolicy) {
    let mut m = Machine::new(p.clone(), MachineConfig::small());
    m.feed_input(0, inputs);
    let mem_words = m.mem_words();
    let (fxs, _) = capture(m);

    let mut fast = TaintEngine::<T>::new(policy);
    fast.pre_size(mem_words);
    let mut oracle = ReferenceTaintEngine::<T>::new(policy);
    for fx in &fxs {
        fast.process(fx);
        oracle.process(fx);
    }

    assert_eq!(fast.output_labels, oracle.output_labels, "output lineage must agree");
    assert_eq!(fast.alerts, oracle.alerts, "alerts (incl. origins) must agree");
    assert_eq!(fast.tainted_words(), oracle.tainted_words());
    let fast_cells: Vec<(u64, T)> =
        fast.shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
    assert_eq!(fast_cells, oracle.tainted_cells(), "live shadow cells must agree");
    assert_eq!(fast.stats(), oracle.stats(), "stats incl. exact peaks must agree");

    // Epoch-parallel summaries composed in order must be bit-identical
    // too: same labels, alerts (with origins), output lineage, live
    // cells, and exact peak statistics, at every epoch granularity —
    // down to one step per epoch, where every read is symbolic.
    for epoch_len in [1usize, 5, 17, 64] {
        let mut epoch = TaintEngine::<T>::new(policy);
        epoch.pre_size(mem_words);
        process_by_epochs(&mut epoch, &fxs, epoch_len);
        assert_eq!(
            epoch.output_labels, oracle.output_labels,
            "epoch_len={epoch_len}: output lineage must agree"
        );
        assert_eq!(epoch.alerts, oracle.alerts, "epoch_len={epoch_len}: alerts must agree");
        assert_eq!(epoch.tainted_words(), oracle.tainted_words(), "epoch_len={epoch_len}");
        let cells: Vec<(u64, T)> =
            epoch.shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
        assert_eq!(cells, oracle.tainted_cells(), "epoch_len={epoch_len}: live cells");
        assert_eq!(epoch.stats(), oracle.stats(), "epoch_len={epoch_len}: stats incl. peaks");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Propagation-only mode: labels and peaks agree for any program.
    #[test]
    fn shadow_map_matches_hashmap_oracle_propagate_only(
        steps in proptest::collection::vec(step(), 1..40),
        inputs in proptest::collection::vec(0u64..1000, 0..4),
    ) {
        let p = build(inputs.len(), &steps);
        assert_engines_agree::<BitTaint>(&p, &inputs, TaintPolicy::propagate_only());
        assert_engines_agree::<PcTaint>(&p, &inputs, TaintPolicy::propagate_only());
    }

    /// Detector mode (alerts on) with pointer taint: the alert stream
    /// and origin pointers agree too. Each check also runs alone, so an
    /// alert gated on the wrong check shows.
    #[test]
    fn shadow_map_matches_hashmap_oracle_with_checks(
        steps in proptest::collection::vec(step(), 1..40),
        inputs in proptest::collection::vec(0u64..1000, 1..4),
    ) {
        let p = build(inputs.len(), &steps);
        let mut policy = TaintPolicy::default();
        assert_engines_agree::<PcTaint>(&p, &inputs, policy);
        let control_only = TaintPolicy { check_mem_addr: false, ..policy };
        assert_engines_agree::<PcTaint>(&p, &inputs, control_only);
        let memory_only = TaintPolicy { check_control: false, ..policy };
        assert_engines_agree::<PcTaint>(&p, &inputs, memory_only);
        policy.propagate_through_addr = true;
        assert_engines_agree::<BitTaint>(&p, &inputs, policy);
    }
}
