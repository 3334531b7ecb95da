//! Differential property test: demand-driven slice queries vs the
//! rebuild-per-query reference path.
//!
//! Random looped programs (ALU mixes, direct and indirect memory
//! traffic) run under ONTRAC at several buffer budgets — including
//! eviction-heavy ones where most of the execution has been evicted and
//! the head was re-anchored many times. For every budget and every
//! [`KindMask`] preset, slices served from the tracer's incremental
//! `SliceIndex` (live, snapshotted, and batched through
//! [`SliceService`]) must be **bit-identical** to [`Slicer`] over
//! `DdgGraph::from_records` of the same live window.

use dift_dbi::Engine;
use dift_ddg::buffer::record;
use dift_ddg::{CircularTraceBuffer, DdgGraph, DepKind, OnTrac, OnTracConfig};
use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
use dift_obs::{Metric, StatsRecorder};
use dift_slicing::{
    backward_from_addr_over, backward_from_addr_stitched_checked, backward_over,
    backward_stitched_checked, batch_via_rebuild, forward_over, forward_stitched_checked, KindMask,
    SliceQuery, SliceService, Slicer, StitchedOutcome,
};
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

/// Random loop body: control deps from the branch, loop-carried reg and
/// mem deps, WAR/WAW from store/load interleavings.
fn build(iters: u64, steps: &[Step]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(13), iters as i64);
    b.li(Reg(11), 500); // memory slot base
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
    b.bini(BinOp::Sub, Reg(13), Reg(13), 1);
    b.branch(BranchCond::Ne, Reg(13), Reg(0), "loop");
    b.output(Reg(2), 0);
    b.halt();
    Arc::new(b.build().unwrap())
}

fn run_ontrac(p: &Arc<Program>, budget: usize) -> OnTrac {
    run_ontrac_with(p, budget, false)
}

fn run_ontrac_with(p: &Arc<Program>, budget: usize, cold_tier: bool) -> OnTrac {
    let mut cfg = OnTracConfig::unoptimized(budget);
    cfg.record_war_waw = true; // so the multithreaded mask has edges to walk
    cfg.cold_tier = cold_tier;
    let m = Machine::new(p.clone(), MachineConfig::small());
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(p, mem, cfg);
    let r = Engine::new(m).run_tool(&mut tracer);
    assert!(r.status.is_clean());
    tracer
}

type MaskPreset = (&'static str, fn() -> KindMask);

const MASKS: [MaskPreset; 3] = [
    ("classic", KindMask::classic),
    ("data_only", KindMask::data_only),
    ("multithreaded", KindMask::multithreaded),
];

/// Every query path over the index must equal `Slicer` over the rebuilt
/// window graph, bit for bit.
fn assert_paths_agree(tracer: &OnTrac, p: &Arc<Program>, budget: usize) {
    let g = DdgGraph::from_records(tracer.buffer().records(), p);
    let slicer = Slicer::new(&g);
    let idx = tracer.slice_index().expect("presets enable the index");

    // Deterministic sample of criteria: a spread of live steps plus
    // absent ones (evicted step 0, far-future step), and every program
    // address plus one that never executed.
    let mut live: Vec<u64> = g.steps().collect();
    live.sort_unstable();
    let crit_sets: Vec<Vec<u64>> = vec![
        live.iter().copied().step_by(live.len().div_ceil(4).max(1)).collect(),
        live.last().map(|&s| vec![s, 0, u64::MAX]).unwrap_or_default(),
        vec![],
    ];
    let addrs: Vec<u32> = (0..p.len() as u32).chain([999_999]).collect();

    let mut svc = SliceService::new(idx);
    for (name, mask) in MASKS {
        let mask = mask();
        for crit in &crit_sets {
            let ctx = format!("budget={budget} mask={name} crit={crit:?}");
            let want_b = slicer.backward(crit, mask);
            assert_eq!(backward_over(idx, crit, mask), want_b, "live backward: {ctx}");
            let q = SliceQuery::Backward { criterion: crit.clone(), mask };
            assert_eq!(svc.query(&q), want_b, "service backward: {ctx}");
            let want_f = slicer.forward(crit, mask);
            assert_eq!(forward_over(idx, crit, mask), want_f, "live forward: {ctx}");
            let q = SliceQuery::Forward { criterion: crit.clone(), mask };
            assert_eq!(svc.query(&q), want_f, "service forward: {ctx}");
        }
        for &addr in &addrs {
            let want = slicer.backward_from_addr(addr, mask);
            assert_eq!(
                backward_from_addr_over(idx, addr, mask),
                want,
                "live from_addr: budget={budget} mask={name} addr={addr}"
            );
            assert_eq!(
                svc.query(&SliceQuery::BackwardFromAddr { addr, mask }),
                want,
                "service from_addr: budget={budget} mask={name} addr={addr}"
            );
        }
    }

    // Batched answers over one snapshot equal the rebuild reference.
    let queries: Vec<SliceQuery> = crit_sets
        .iter()
        .flat_map(|crit| {
            MASKS.iter().flat_map(|(_, mask)| {
                [
                    SliceQuery::Backward { criterion: crit.clone(), mask: mask() },
                    SliceQuery::Forward { criterion: crit.clone(), mask: mask() },
                ]
            })
        })
        .chain(
            addrs
                .iter()
                .map(|&addr| SliceQuery::BackwardFromAddr { addr, mask: KindMask::classic() }),
        )
        .collect();
    assert_eq!(
        svc.batch(&queries),
        batch_via_rebuild(&g, &queries),
        "batched answers: budget={budget}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bit-identity across budgets, from eviction-heavy (a few dozen
    /// bytes holds only the tail of the run) to effectively unbounded.
    #[test]
    fn service_matches_rebuild_at_every_budget(
        steps in proptest::collection::vec(step(), 1..12),
        iters in 2u64..12,
    ) {
        let p = build(iters, &steps);
        for budget in [64usize, 256, 4096, 1 << 20] {
            let tracer = run_ontrac(&p, budget);
            assert_paths_agree(&tracer, &p, budget);
        }
    }
}

/// Deterministic smoke of the eviction-heavy regime, pinned so a
/// regression reproduces without proptest shrinking.
#[test]
fn eviction_heavy_window_stays_identical() {
    let steps = vec![
        Step::Alu { op: 0, rd: 2, rs1: 2, rs2: 3 },
        Step::Store { rs: 2, slot: 3 },
        Step::Load { rd: 4, slot: 3 },
        Step::Store { rs: 4, slot: 3 },
        Step::Alu { op: 1, rd: 5, rs1: 4, rs2: 2 },
    ];
    let p = build(40, &steps);
    for budget in [48usize, 96, 192] {
        let tracer = run_ontrac(&p, budget);
        assert!(tracer.buffer().evicted > 0, "budget {budget} must evict");
        assert_paths_agree(&tracer, &p, budget);
    }
}

/// A budget large enough that nothing is ever evicted: the reference
/// "full history" every stitched query must reproduce.
const FULL_BUDGET: usize = 1 << 20;

/// Stitched (live window + cold tier) slices at a small budget must be
/// bit-identical to [`Slicer`] over the **full never-evicted trace** —
/// including criteria and addresses that only exist beyond the
/// eviction horizon. This is the property that turns the window budget
/// into a cache size instead of a correctness limit.
fn assert_stitched_matches_full_trace(p: &Arc<Program>, budget: usize) {
    let tracer = run_ontrac_with(p, budget, true);
    let full = run_ontrac(p, FULL_BUDGET);
    assert_eq!(full.buffer().evicted, 0, "reference tracer must hold everything");
    let g = DdgGraph::from_records(full.buffer().records(), p);
    let slicer = Slicer::new(&g);

    let idx = tracer.slice_index().expect("presets enable the index");
    let cold = tracer.cold_store().expect("cold tier enabled");
    // The stream is budget-independent: live ∪ cold is a partition of
    // the full record stream.
    assert_eq!(cold.record_count(), tracer.buffer().evicted);
    assert_eq!(
        cold.record_count() + tracer.buffer().len() as u64,
        full.buffer().len() as u64,
        "cold + live must partition the full stream"
    );
    let snap = idx.snapshot();

    // Criteria from the FULL graph: a spread that includes evicted
    // steps, the newest step plus absent ones, and the empty set.
    let mut all: Vec<u64> = g.steps().collect();
    all.sort_unstable();
    let crit_sets: Vec<Vec<u64>> = vec![
        all.iter().copied().step_by(all.len().div_ceil(5).max(1)).collect(),
        all.first().map(|&s| vec![s]).unwrap_or_default(), // oldest: surely evicted
        all.last().map(|&s| vec![s, 0, u64::MAX]).unwrap_or_default(),
        vec![],
    ];
    let addrs: Vec<u32> = (0..p.len() as u32).chain([999_999]).collect();

    // A healthy cold tier: every stitched answer must come back `Full`.
    let mut svc = SliceService::from_snapshot(snap.clone());
    for (name, mask) in MASKS {
        let mask = mask();
        for crit in &crit_sets {
            let ctx = format!("budget={budget} mask={name} crit={crit:?}");
            let want_b = StitchedOutcome::Full(slicer.backward(crit, mask));
            let got = backward_stitched_checked(&snap, cold, crit, mask);
            assert_eq!(got, want_b, "stitched bwd: {ctx}");
            let q = SliceQuery::Backward { criterion: crit.clone(), mask };
            assert_eq!(svc.query_stitched(cold, &q), want_b, "svc stitched bwd: {ctx}");
            let want_f = StitchedOutcome::Full(slicer.forward(crit, mask));
            let got = forward_stitched_checked(&snap, cold, crit, mask);
            assert_eq!(got, want_f, "stitched fwd: {ctx}");
            let q = SliceQuery::Forward { criterion: crit.clone(), mask };
            assert_eq!(svc.query_stitched(cold, &q), want_f, "svc stitched fwd: {ctx}");
        }
        for &addr in &addrs {
            let ctx = format!("budget={budget} mask={name} addr={addr}");
            let want = StitchedOutcome::Full(slicer.backward_from_addr(addr, mask));
            assert_eq!(
                backward_from_addr_stitched_checked(&snap, cold, addr, mask),
                want,
                "stitched from_addr: {ctx}"
            );
            assert_eq!(
                svc.query_stitched(cold, &SliceQuery::BackwardFromAddr { addr, mask }),
                want,
                "svc stitched from_addr: {ctx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stitched live+cold equals the offline `Slicer` on the full
    /// never-evicted trace, across eviction-heavy budgets.
    #[test]
    fn stitched_matches_full_trace_at_every_budget(
        steps in proptest::collection::vec(step(), 1..12),
        iters in 2u64..12,
    ) {
        let p = build(iters, &steps);
        for budget in [64usize, 256, 2048] {
            assert_stitched_matches_full_trace(&p, budget);
        }
    }
}

/// Deterministic stitched smoke: most of the execution is beyond the
/// eviction horizon, and slices still span all of it.
#[test]
fn stitched_slices_cross_the_eviction_horizon() {
    let steps = vec![
        Step::Alu { op: 0, rd: 2, rs1: 2, rs2: 3 },
        Step::Store { rs: 2, slot: 3 },
        Step::Load { rd: 4, slot: 3 },
        Step::Store { rs: 4, slot: 3 },
        Step::Alu { op: 1, rd: 5, rs1: 4, rs2: 2 },
    ];
    let p = build(40, &steps);
    for budget in [48usize, 96, 192] {
        let tracer = run_ontrac_with(&p, budget, true);
        assert!(tracer.buffer().evicted > 0, "budget {budget} must evict");
        assert_stitched_matches_full_trace(&p, budget);
    }
}

/// `SliceService::refresh` with an unmoved generation performs zero
/// chunk copies (and no re-snapshot), observable through the new
/// `slicing/service/chunk_copies` gauge.
#[test]
fn refresh_with_unmoved_generation_copies_no_chunks() {
    let mut buf = CircularTraceBuffer::new(1 << 20);
    let rec = |u: u64| {
        record(u, u - 1, DepKind::RegData, u as u32 % 7, (u - 1) as u32 % 7, u as u32, u as u32 - 1)
    };
    for i in 1..=200u64 {
        buf.push(rec(i));
    }

    let mut svc = SliceService::with_recorder(buf.index(), StatsRecorder::new());
    assert_eq!(svc.obs.get(Metric::SlChunkCopies), 0, "no copies at first snapshot");
    let gen = svc.generation();
    for _ in 0..5 {
        svc.refresh(buf.index());
    }
    assert_eq!(svc.generation(), gen, "generation unmoved");
    assert_eq!(svc.obs.get(Metric::SlSnapshotReuse), 5, "every refresh reused the snapshot");
    assert_eq!(svc.obs.get(Metric::SlChunkCopies), 0, "unmoved generation must copy nothing");

    // Queries are reads; they never force copy-on-write either.
    svc.query(&SliceQuery::Backward { criterion: vec![200], mask: KindMask::classic() });
    svc.refresh(buf.index());
    assert_eq!(svc.obs.get(Metric::SlChunkCopies), 0);

    // Control: actually moving the window DOES copy (the service's
    // snapshot shares the chunks the new pushes touch), which is what
    // makes the zero above meaningful.
    for i in 201..=210u64 {
        buf.push(rec(i));
    }
    svc.refresh(buf.index());
    assert_ne!(svc.generation(), gen);
    assert!(svc.obs.get(Metric::SlChunkCopies) >= 1, "a moved window pays its dirty chunks");
}
