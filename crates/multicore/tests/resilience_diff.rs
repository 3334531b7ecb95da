//! Differential property test for the fault-tolerant epoch pipeline:
//! randomized programs under randomized fault plans must stay
//! bit-identical to the retained `ReferenceTaintEngine` oracle.
//!
//! Randomized programs (ALU mixes, direct and indirect memory traffic
//! through possibly-tainted addresses) run once; the recorded effects
//! stream drives the serial oracle, while the same machine runs through
//! [`run_epoch_dift_tolerant`] with a seeded [`ScriptedFaults`] plan
//! injecting shard panics, message drops, queue stalls, and summary
//! corruption at random (shard, epoch) coordinates. Whatever fires, the
//! tolerant run must complete and agree on every observable — output
//! lineage, alerts with origins, live shadow cells, exact peak stats —
//! and must report `epochs_recovered > 0` whenever a fault actually
//! fired.

use dift_dbi::capture;
use dift_isa::{BinOp, Program, ProgramBuilder, Reg};
use dift_multicore::{
    epoch_process_stream_tolerant, run_epoch_dift_tolerant, silence_injected_panics, ChannelModel,
    EpochModel, FaultSite, NoopFaults, RecoveryPolicy, ScriptedFaults,
};
use dift_obs::NoopRecorder;
use dift_taint::{PcTaint, ReferenceTaintEngine, TaintLabel, TaintPolicy};
use dift_vm::{Machine, MachineConfig, StepEffects};
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

fn machine(p: &Arc<Program>, inputs: &[u64]) -> Machine {
    let mut m = Machine::new(p.clone(), MachineConfig::small());
    m.feed_input(0, inputs);
    m
}

fn oracle<T: TaintLabel>(fxs: &[StepEffects], policy: TaintPolicy) -> ReferenceTaintEngine<T> {
    let mut o = ReferenceTaintEngine::<T>::new(policy);
    for fx in fxs {
        o.process(fx);
    }
    o
}

/// Queue-shallow model so small proptest workloads still span several
/// epochs per shard.
fn test_model(workers: usize, epoch_len: usize) -> EpochModel {
    EpochModel {
        chan: ChannelModel { enqueue_cycles: 3, helper_per_msg: 5, queue_depth: 128 },
        workers,
        epoch_len,
        fanout_cycles: 1,
        compose_per_epoch: 64,
    }
}

fn assert_agrees<T: TaintLabel>(
    engine: &dift_taint::TaintEngine<T>,
    oracle: &ReferenceTaintEngine<T>,
    what: &str,
) {
    assert_eq!(engine.output_labels, oracle.output_labels, "{what}: output lineage");
    assert_eq!(engine.alerts, oracle.alerts, "{what}: alerts incl. origins");
    assert_eq!(engine.tainted_words(), oracle.tainted_words(), "{what}: tainted words");
    let cells: Vec<(u64, T)> =
        engine.shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
    assert_eq!(cells, oracle.tainted_cells(), "{what}: live shadow cells");
    assert_eq!(engine.stats(), oracle.stats(), "{what}: stats incl. exact peaks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random programs under random seeded fault plans: the tolerant
    /// runner must complete bit-identical to the serial oracle, and must
    /// have recovered something whenever a fault fired.
    #[test]
    fn tolerant_runner_matches_oracle_under_random_faults(
        steps in proptest::collection::vec(step(), 8..48),
        inputs in proptest::collection::vec(0u64..1000, 1..4),
        seed in 0u64..u64::MAX,
        nfaults in 1usize..6,
        epoch_len in 4usize..24,
        workers in 2usize..5,
    ) {
        silence_injected_panics();
        let p = build(inputs.len(), &steps);
        let policy = TaintPolicy::default();
        let (fxs, _) = capture(machine(&p, &inputs));
        let oracle = oracle::<PcTaint>(&fxs, policy);

        // Shard range covers the spares (workers + retry rounds) so the
        // plan can also attack the recovery path itself; epoch range
        // covers the whole stream.
        let epochs = fxs.len() / epoch_len + 1;
        let plan = ScriptedFaults::seeded(seed, nfaults, workers + 2, epochs);
        let (run, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
            machine(&p, &inputs),
            test_model(workers, epoch_len),
            policy,
            NoopRecorder,
            plan.clone(),
            RecoveryPolicy::quick(),
        );
        assert_agrees(&run.engine, &oracle, "threaded tolerant runner");
        let rs = run.stats.recovery;
        prop_assert_eq!(rs.epochs_recovered, rs.epochs_lost, "recovery must finish: {:?}", rs);
        if rs.faults_injected > 0 {
            prop_assert!(
                rs.epochs_recovered > 0,
                "a fired fault must cost (and recover) at least one epoch: {:?}",
                rs
            );
        }

        // Same adversary against the stream-parallel path.
        let mem_words = machine(&p, &inputs).mem_words();
        let (par, srs) = epoch_process_stream_tolerant::<PcTaint, _>(
            &fxs, policy, mem_words, epoch_len, workers, plan,
        );
        assert_agrees(&par, &oracle, "stream tolerant runner");
        prop_assert_eq!(srs.epochs_recovered, srs.epochs_lost, "{:?}", srs);
    }
}

/// The deterministic fault grid CI runs: every fault site × the first
/// two shards, at the epoch each shard is guaranteed to own (epoch e
/// steers to shard e % workers), at reduced size.
#[test]
fn deterministic_fault_grid_recovers_every_site() {
    silence_injected_panics();
    let steps: Vec<Step> = (0..32)
        .map(|i| match i % 4 {
            0 => Step::Alu { op: i % OPS.len(), rd: 2, rs1: 1, rs2: 2 },
            1 => Step::Store { rs: 2, slot: (i % 8) as u8 },
            2 => Step::LoadVia { rd: 3, rs: 2 },
            _ => Step::StoreVia { rs: 3 },
        })
        .collect();
    let p = build(2, &steps);
    let inputs = [7u64, 13];
    let policy = TaintPolicy::default();
    let (fxs, _) = capture(machine(&p, &inputs));
    let oracle = oracle::<PcTaint>(&fxs, policy);

    for site in FaultSite::ALL {
        for shard in 0..2usize {
            let plan = ScriptedFaults::single(site, shard, shard);
            let (run, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
                machine(&p, &inputs),
                test_model(3, 16),
                policy,
                NoopRecorder,
                plan,
                RecoveryPolicy::quick(),
            );
            let what = format!("{site:?} at shard {shard}");
            assert_agrees(&run.engine, &oracle, &what);
            let rs = run.stats.recovery;
            assert!(rs.faults_injected >= 1, "{what}: fault must fire: {rs:?}");
            assert!(rs.epochs_recovered >= 1, "{what}: must recover: {rs:?}");
            assert_eq!(rs.epochs_recovered, rs.epochs_lost, "{what}: {rs:?}");
        }
    }
}

/// Fault-free tolerant runs stay bit-identical and uneventful — the
/// zero-fault half of the acceptance criteria.
#[test]
fn fault_free_tolerant_run_is_uneventful() {
    let steps: Vec<Step> =
        (0..24).map(|i| Step::Alu { op: i % OPS.len(), rd: 2, rs1: 1, rs2: 2 }).collect();
    let p = build(1, &steps);
    let policy = TaintPolicy::default();
    let (fxs, _) = capture(machine(&p, &[5]));
    let oracle = oracle::<PcTaint>(&fxs, policy);
    let (run, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
        machine(&p, &[5]),
        test_model(3, 8),
        policy,
        NoopRecorder,
        NoopFaults,
        RecoveryPolicy::tolerant(),
    );
    assert_agrees(&run.engine, &oracle, "fault-free tolerant");
    assert!(!run.stats.recovery.eventful(), "{:?}", run.stats.recovery);
}
