//! Differential property test for the **durable** cold tier under I/O
//! fault injection.
//!
//! Random looped programs run under ONTRAC at a full (never-evicting)
//! budget to produce a reference trace; the same record stream is then
//! replayed through an eviction-heavy window whose cold tier spills to
//! disk through a scripted [`ScriptedIoFaults`] plan. The contract:
//!
//! * **No-fault and transient-fault runs** (retried `fsync` failures and
//!   short reads, plus `ENOSPC` which degrades losslessly to the
//!   in-memory tier) answer every stitched query **bit-identically** to
//!   the offline [`Slicer`] over the full trace, for every kind mask.
//! * **Permanent-fault runs** (torn writes, bit flips) always complete —
//!   no panic, no wrong slice — and after a [`ColdStore::verify`] scrub
//!   the checked queries return [`StitchedOutcome::Degraded`] naming
//!   *exactly* the step ranges of the quarantined segments, with the
//!   degraded slice a subset of the reference.
//!
//! Fault coordinates are stable across plans because a spill consumes a
//! sequence number whether it succeeds or not, so a clean run's
//! [`ColdStore::segment_metas`] predicts precisely which step ranges a
//! scripted plan destroys.

use dift_dbi::Engine;
use dift_ddg::durable::MAX_IO_RETRIES;
use dift_ddg::iofault::{IoFaultPlan, IoFaultSite, ScriptedIoFaults};
use dift_ddg::{
    CircularTraceBuffer, ColdStore, DdgGraph, OnTrac, OnTracConfig, SegMeta, SliceIndex,
};
use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
use dift_obs::{Metric, StatsRecorder};
use dift_slicing::{
    backward_from_addr_stitched_checked, backward_stitched_checked, forward_stitched_checked,
    KindMask, Slice, SliceQuery, SliceService, Slicer, StitchedOutcome,
};
use dift_vm::{Machine, MachineConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Random loop body (same shape as `service_diff`): control deps from
/// the branch, loop-carried reg and mem deps, WAR/WAW interleavings.
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

/// A budget large enough that nothing is ever evicted: the reference
/// "full history" every durable stitched query must reproduce.
const FULL_BUDGET: usize = 1 << 22;

fn run_full(p: &Arc<Program>) -> OnTrac {
    let mut cfg = OnTracConfig::unoptimized(FULL_BUDGET);
    cfg.record_war_waw = true; // so the multithreaded mask has edges to walk
    let m = Machine::new(p.clone(), MachineConfig::small());
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(p, mem, cfg);
    let r = Engine::new(m).run_tool(&mut tracer);
    assert!(r.status.is_clean());
    assert_eq!(tracer.buffer().evicted, 0, "reference tracer must hold everything");
    tracer
}

/// Replay the reference record stream through an eviction-heavy window
/// backed by the given durable cold store, mirroring the tracer's exact
/// wiring (every evicted record spills to the cold tier). Flushes the
/// open tail so every evicted record sits in a sealed segment.
fn replay(
    full: &OnTrac,
    budget: usize,
    mut cold: ColdStore<ScriptedIoFaults>,
) -> (CircularTraceBuffer, ColdStore<ScriptedIoFaults>) {
    let mut buf = CircularTraceBuffer::new(budget);
    for r in full.buffer().records() {
        buf.push_with(r, |e| cold.append(e));
    }
    cold.flush();
    assert_eq!(
        cold.record_count() + buf.len() as u64,
        full.buffer().len() as u64,
        "cold + live must partition the full stream"
    );
    (buf, cold)
}

/// Fresh scratch directory under the target tmpdir; unique per call so
/// concurrently-running tests and proptest cases never collide.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("durable_diff_{tag}_{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_replay(
    full: &OnTrac,
    budget: usize,
    tag: &str,
    plan: ScriptedIoFaults,
) -> (CircularTraceBuffer, ColdStore<ScriptedIoFaults>) {
    let cold = ColdStore::durable_with_faults(&scratch(tag), plan).expect("create store");
    replay(full, budget, cold)
}

type MaskPreset = (&'static str, fn() -> KindMask);

const MASKS: [MaskPreset; 3] = [
    ("classic", KindMask::classic),
    ("data_only", KindMask::data_only),
    ("multithreaded", KindMask::multithreaded),
];

/// Deterministic query sample over the FULL graph: a spread including
/// surely-evicted steps, the oldest step, the newest plus absent ones,
/// the empty criterion, and a few addresses.
fn crit_sets(g: &DdgGraph) -> (Vec<Vec<u64>>, Vec<u32>) {
    let mut all: Vec<u64> = g.steps().collect();
    all.sort_unstable();
    let crits = vec![
        all.iter().copied().step_by(all.len().div_ceil(5).max(1)).collect(),
        all.first().map(|&s| vec![s]).unwrap_or_default(),
        all.last().map(|&s| vec![s, 0, u64::MAX]).unwrap_or_default(),
        vec![],
    ];
    (crits, vec![0, 3, 999_999])
}

/// Every checked stitched query must come back `Full` and bit-identical
/// to the offline `Slicer` on the full trace, for every mask preset.
fn assert_full_identity(
    idx: &SliceIndex,
    cold: &ColdStore<ScriptedIoFaults>,
    slicer: &Slicer,
    g: &DdgGraph,
    ctx: &str,
) {
    let snap = idx.snapshot();
    let (crits, addrs) = crit_sets(g);
    for (name, mask) in MASKS {
        let mask = mask();
        for crit in &crits {
            let c = format!("{ctx} mask={name} crit={crit:?}");
            let want_b = slicer.backward(crit, mask);
            assert_eq!(
                backward_stitched_checked(&snap, cold, crit, mask),
                StitchedOutcome::Full(want_b),
                "checked bwd: {c}"
            );
            let want_f = slicer.forward(crit, mask);
            assert_eq!(
                forward_stitched_checked(&snap, cold, crit, mask),
                StitchedOutcome::Full(want_f),
                "checked fwd: {c}"
            );
        }
        for &addr in &addrs {
            let want = slicer.backward_from_addr(addr, mask);
            assert_eq!(
                backward_from_addr_stitched_checked(&snap, cold, addr, mask),
                StitchedOutcome::Full(want),
                "checked from_addr: {ctx} mask={name} addr={addr}"
            );
        }
    }
}

fn assert_subset(sub: &Slice, sup: &Slice, ctx: &str) {
    assert!(sub.steps.is_subset(&sup.steps), "degraded steps ⊄ reference: {ctx}");
    assert!(sub.addrs.is_subset(&sup.addrs), "degraded addrs ⊄ reference: {ctx}");
    assert!(sub.stmts.is_subset(&sup.stmts), "degraded stmts ⊄ reference: {ctx}");
}

/// Every checked stitched query must be `Degraded` naming exactly
/// `expect_missing`, and its slice must be a subset of the reference.
fn assert_degraded_exactly(
    idx: &SliceIndex,
    cold: &ColdStore<ScriptedIoFaults>,
    slicer: &Slicer,
    g: &DdgGraph,
    expect_missing: &[(u64, u64)],
    ctx: &str,
) {
    let snap = idx.snapshot();
    let (crits, addrs) = crit_sets(g);
    for (name, mask) in MASKS {
        let mask = mask();
        for crit in &crits {
            let c = format!("{ctx} mask={name} crit={crit:?}");
            let out = backward_stitched_checked(&snap, cold, crit, mask);
            assert!(out.is_degraded(), "bwd outcome must be degraded: {c}");
            assert_eq!(out.missing_step_ranges(), expect_missing, "bwd missing: {c}");
            assert_subset(out.slice(), &slicer.backward(crit, mask), &c);
            let out = forward_stitched_checked(&snap, cold, crit, mask);
            assert_eq!(out.missing_step_ranges(), expect_missing, "fwd missing: {c}");
            assert_subset(out.slice(), &slicer.forward(crit, mask), &c);
        }
        for &addr in &addrs {
            let c = format!("{ctx} mask={name} addr={addr}");
            let out = backward_from_addr_stitched_checked(&snap, cold, addr, mask);
            assert_eq!(out.missing_step_ranges(), expect_missing, "from_addr missing: {c}");
            assert_subset(out.slice(), &slicer.backward_from_addr(addr, mask), &c);
        }
    }
}

/// Merge step ranges exactly the way `ColdStore::missing_step_ranges`
/// does: sorted, adjacent-or-overlapping ranges coalesce.
fn merge_ranges(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in v {
        match merged.last_mut() {
            Some((_, end)) if lo <= end.saturating_add(1) => *end = (*end).max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// Predict which step ranges a scripted plan destroys, by running the
/// spill state machine's fault decisions on paper: `ENOSPC` and
/// exhausted transients fall back to memory (lossless), a torn write is
/// lost, a bit flip is lost unless a same-attempt `fsync` failure
/// discards the flipped image first. Load-side short reads never lose
/// data here because seeded plans only fire at attempt 0 (one retry
/// recovers).
fn expected_losses(plan: &ScriptedIoFaults, metas: &[SegMeta]) -> Vec<(u64, u64)> {
    let mut lost = Vec::new();
    for (seq, m) in metas.iter().enumerate() {
        let seq = seq as u64;
        let mut attempt = 0u32;
        let lost_here = loop {
            if plan.fires(IoFaultSite::Enospc, seq, attempt) {
                break false; // memory fallback keeps the records
            }
            if plan.fires(IoFaultSite::TornWrite, seq, attempt) {
                break true; // truncated image, believed durable
            }
            let flipped = plan.fires(IoFaultSite::BitFlip, seq, attempt);
            if plan.fires(IoFaultSite::FsyncFail, seq, attempt) {
                if attempt >= MAX_IO_RETRIES {
                    break false; // retries exhausted: memory fallback
                }
                attempt += 1;
                continue;
            }
            break flipped; // image written; lost iff it was flipped
        };
        if lost_here {
            lost.push((m.first_user, m.last_user));
        }
    }
    merge_ranges(lost)
}

/// Pinned loop body big enough to seal several 1024-record segments at
/// eviction-heavy budgets.
fn pinned_program() -> Arc<Program> {
    let steps = vec![
        Step::Alu { op: 0, rd: 2, rs1: 2, rs2: 3 },
        Step::Store { rs: 2, slot: 3 },
        Step::Load { rd: 4, slot: 3 },
        Step::Store { rs: 4, slot: 3 },
        Step::Alu { op: 1, rd: 5, rs1: 4, rs2: 2 },
        Step::Alu { op: 2, rd: 6, rs1: 5, rs2: 6 },
    ];
    build(260, &steps)
}

/// Transient and lossless-permanent faults leave every stitched query
/// bit-identical to the offline reference — the fault grid unit the
/// release-mode CI matrix runs.
#[test]
fn transient_faults_leave_stitched_slices_bit_identical() {
    let p = pinned_program();
    let full = run_full(&p);
    let g = DdgGraph::from_records(full.buffer().records(), &p);
    let slicer = Slicer::new(&g);

    for budget in [64usize, 2048] {
        // Clean baseline: an armed plan with no injections still goes
        // through every instrumented path.
        let (buf, cold) = durable_replay(&full, budget, "clean", ScriptedIoFaults::new(Vec::new()));
        let metas = cold.segment_metas();
        assert!(metas.len() >= 3, "budget {budget} must seal several segments");
        assert!(cold.verify().is_empty(), "clean run must scrub clean");
        assert_full_identity(
            buf.index(),
            &cold,
            &slicer,
            &g,
            &format!("budget={budget} plan=clean"),
        );

        for seq in 0..metas.len() as u64 {
            for site in [IoFaultSite::FsyncFail, IoFaultSite::ShortRead, IoFaultSite::Enospc] {
                let (buf, cold) =
                    durable_replay(&full, budget, site.name(), ScriptedIoFaults::single(site, seq));
                assert!(
                    cold.verify().is_empty(),
                    "budget {budget} {site:?}@{seq} must lose nothing"
                );
                assert_full_identity(
                    buf.index(),
                    &cold,
                    &slicer,
                    &g,
                    &format!("budget={budget} plan={site:?}@{seq}"),
                );
                if site == IoFaultSite::Enospc {
                    assert_eq!(cold.mem_fallbacks(), 1, "{site:?}@{seq} falls back to memory");
                } else if site == IoFaultSite::FsyncFail {
                    let io = cold.durable_stats().expect("durable");
                    assert!(
                        io.retries.load(Ordering::Relaxed) >= 1,
                        "{site:?}@{seq} must be retried"
                    );
                }
            }
        }
    }
}

/// Permanent latent faults (torn writes, bit flips) never panic and
/// never return a wrong slice: after the scrub, every checked query is
/// `Degraded` naming exactly the destroyed segment's step range.
#[test]
fn permanent_faults_degrade_with_exact_missing_ranges() {
    let p = pinned_program();
    let full = run_full(&p);
    let g = DdgGraph::from_records(full.buffer().records(), &p);
    let slicer = Slicer::new(&g);
    let budget = 64usize;

    let (_, clean) = durable_replay(&full, budget, "grid_clean", ScriptedIoFaults::new(Vec::new()));
    let metas = clean.segment_metas();
    assert!(metas.len() >= 3, "grid needs several sealed segments");

    for seq in 0..metas.len() as u64 {
        for site in [IoFaultSite::TornWrite, IoFaultSite::BitFlip] {
            let plan = ScriptedIoFaults::single(site, seq);
            let (buf, cold) = durable_replay(&full, budget, site.name(), plan.clone());
            // Segment cuts are fault-independent, so the clean run's
            // metas predict the damage exactly.
            assert_eq!(cold.segment_metas(), metas, "segment cut must be plan-independent");
            let expect = expected_losses(&plan, &metas);
            let m = metas[seq as usize];
            assert_eq!(expect, vec![(m.first_user, m.last_user)], "{site:?}@{seq}");
            assert_eq!(cold.verify(), expect, "scrub must find exactly {site:?}@{seq}");
            assert_eq!(cold.corrupt_segments(), 1, "{site:?}@{seq} quarantines one segment");
            assert_degraded_exactly(
                buf.index(),
                &cold,
                &slicer,
                &g,
                &expect,
                &format!("plan={site:?}@{seq}"),
            );
        }
    }
}

/// `SliceService::query_stitched` surfaces degradation the same way and
/// counts it on the `slicing/service/degraded_queries` counter.
#[test]
fn service_counts_degraded_queries() {
    let p = pinned_program();
    let full = run_full(&p);
    let plan = ScriptedIoFaults::single(IoFaultSite::TornWrite, 0);
    let (buf, cold) = durable_replay(&full, 64, "svc", plan);
    let missing = cold.verify();
    assert_eq!(missing.len(), 1);

    let mut svc = SliceService::with_recorder(buf.index(), StatsRecorder::new());
    let q = SliceQuery::Backward { criterion: vec![u64::MAX], mask: KindMask::classic() };
    let out = svc.query_stitched(&cold, &q);
    assert!(out.is_degraded());
    assert_eq!(out.missing_step_ranges(), missing.as_slice());
    assert_eq!(svc.obs.get(Metric::SlDegraded), 1, "degraded query must be counted");
    let q = SliceQuery::Forward { criterion: vec![], mask: KindMask::classic() };
    let out = svc.query_stitched(&cold, &q);
    assert_eq!(out.missing_step_ranges(), missing.as_slice());
    assert_eq!(svc.obs.get(Metric::SlDegraded), 2);
    let q = SliceQuery::BackwardFromAddr { addr: 0, mask: KindMask::data_only() };
    let out = svc.query_stitched(&cold, &q);
    assert!(out.is_degraded());
    assert_eq!(svc.obs.get(Metric::SlDegraded), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Every seeded fault plan completes; lossless plans stay
    /// bit-identical to the offline `Slicer`, lossy plans report
    /// exactly the predicted step ranges.
    #[test]
    fn every_fault_plan_completes_and_reports_exact_damage(
        steps in proptest::collection::vec(step(), 4..10),
        iters in 150u64..300,
        seed in 0u64..u64::MAX,
    ) {
        let p = build(iters, &steps);
        let full = run_full(&p);
        let g = DdgGraph::from_records(full.buffer().records(), &p);
        let slicer = Slicer::new(&g);
        let budget = 64usize;

        let (buf, clean) =
            durable_replay(&full, budget, "prop_clean", ScriptedIoFaults::new(Vec::new()));
        let metas = clean.segment_metas();
        prop_assert!(!metas.is_empty(), "eviction-heavy budget must seal segments");
        prop_assert!(clean.verify().is_empty());
        assert_full_identity(buf.index(), &clean, &slicer, &g, "plan=clean");

        for salt in 0..2u64 {
            let plan =
                ScriptedIoFaults::seeded(seed ^ salt.wrapping_mul(0x9e37_79b9), 4, metas.len() as u64);
            let ctx = format!("seed={seed} salt={salt} plan={:?}", plan.injections());
            let (buf, cold) = durable_replay(&full, budget, "prop_seeded", plan.clone());
            prop_assert_eq!(cold.segment_metas(), metas.clone(), "segment cut drifted: {}", ctx);
            let expect = expected_losses(&plan, &metas);
            prop_assert_eq!(cold.verify(), expect.clone(), "scrub mismatch: {}", ctx);
            if expect.is_empty() {
                assert_full_identity(buf.index(), &cold, &slicer, &g, &ctx);
            } else {
                assert_degraded_exactly(buf.index(), &cold, &slicer, &g, &expect, &ctx);
            }
        }
    }
}
