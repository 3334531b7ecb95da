//! Implicit dependences via predicate switching (execution-omission
//! errors, PLDI'07 — reference \[16\] of the paper).
//!
//! Execution-omission errors fail because code that *should* have run did
//! not; dynamic slices cannot see the missing statements. The fully
//! dynamic solution: forcibly flip one dynamic branch instance (the
//! *predicate switch*), re-execute, and observe whether the failing value
//! changes. A change verifies an **implicit dependence** from the branch
//! to the failing value; adding it to the graph lets ordinary backward
//! slicing reach the root cause. The search is demand-driven — predicates
//! closest to the failure are verified first — so few re-executions are
//! needed.

use crate::slicer::{KindMask, Slice, Slicer};
use dift_dbi::{Capture, Engine, Tool};
use dift_ddg::offline::derive_full_deps;
use dift_ddg::{DdgGraph, DepKind, Dependence, StepMeta};
use dift_isa::{Addr, Program};
use dift_vm::{ControlEffect, ExitStatus, Machine, MachineConfig, StepEffects};
use std::sync::Arc;

/// Result of one predicate-switch verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// The run completed and the observed output differed.
    OutputChanged { output: Vec<u64> },
    /// The run completed with identical output.
    OutputUnchanged,
    /// The switched run did not complete cleanly (crash, deadlock, step
    /// limit) — no conclusion.
    Inconclusive(ExitStatus),
}

/// A tool that flips the outcome of the `instance`-th dynamic execution
/// of the conditional branch at `addr` (0-based instance count).
pub struct PredicateSwitcher {
    pub addr: Addr,
    pub instance: u64,
    seen: u64,
    pub switched: bool,
}

impl PredicateSwitcher {
    pub fn new(addr: Addr, instance: u64) -> PredicateSwitcher {
        PredicateSwitcher { addr, instance, seen: 0, switched: false }
    }
}

impl Tool for PredicateSwitcher {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        if fx.addr != self.addr || !fx.insn.is_branch() {
            return;
        }
        let this = self.seen;
        self.seen += 1;
        if this != self.instance {
            return;
        }
        if let Some(ControlEffect::Branch { taken, target }) = fx.control {
            // Redirect the thread to the outcome it did not take.
            let flipped = if taken { fx.addr + 1 } else { target };
            m.set_pc(fx.tid, flipped);
            self.switched = true;
        }
    }
}

/// Run `program` (prepared by `setup`, e.g. feeding inputs) with one
/// predicate instance switched; compare the output on `channel` against
/// `baseline`.
pub fn switch_predicate(
    program: &Arc<Program>,
    config: &MachineConfig,
    setup: &dyn Fn(&mut Machine),
    addr: Addr,
    instance: u64,
    channel: u16,
    baseline: &[u64],
) -> SwitchOutcome {
    let mut m = Machine::new(program.clone(), config.clone());
    setup(&mut m);
    let mut engine = Engine::new(m);
    let mut switcher = PredicateSwitcher::new(addr, instance);
    let result = engine.run_tool(&mut switcher);
    let m = engine.into_machine();
    if !result.status.is_clean() {
        return SwitchOutcome::Inconclusive(result.status);
    }
    let out = m.output(channel).to_vec();
    if out != baseline {
        SwitchOutcome::OutputChanged { output: out }
    } else {
        SwitchOutcome::OutputUnchanged
    }
}

/// Report of the demand-driven omission-error search.
#[derive(Clone, Debug)]
pub struct OmissionReport {
    /// Predicate-switch runs performed.
    pub verifications: u64,
    /// The verified branch `(addr, dynamic instance)`, if one was found.
    pub verified: Option<(Addr, u64)>,
    /// The plain dynamic slice of the failing output (for comparison).
    pub dynamic_slice: Slice,
    /// The final fault-candidate slice (dynamic slice + verified implicit
    /// dependence closure). Empty when nothing was verified.
    pub candidates: Slice,
}

/// Locate an execution-omission error.
///
/// `setup` prepares each (re-)execution; the failing output is whatever
/// the program emits on `channel`. Branch instances are tried from the
/// failure backwards, up to `budget` verifications.
pub fn locate_omission_error(
    program: &Arc<Program>,
    config: &MachineConfig,
    setup: &dyn Fn(&mut Machine),
    channel: u16,
    budget: u64,
) -> OmissionReport {
    // 1. Record the failing execution.
    let mut m = Machine::new(program.clone(), config.clone());
    setup(&mut m);
    let mut cap = Capture::default();
    let mut engine = Engine::new(m);
    engine.run_tool(&mut cap);
    let failing_output = engine.machine().output(channel).to_vec();
    let events = cap.0;

    let records = derive_full_deps(program, &events, config.mem_words);
    let graph = DdgGraph::from_records(records.iter().copied(), program);

    // The failing criterion: the last output instruction on the channel.
    let out_step = events
        .iter()
        .rev()
        .find(|e| matches!(e.output, Some((ch, _)) if ch == channel))
        .map(|e| e.step);
    let Some(out_step) = out_step else {
        return OmissionReport {
            verifications: 0,
            verified: None,
            dynamic_slice: Slice::default(),
            candidates: Slice::default(),
        };
    };
    let dynamic_slice = Slicer::new(&graph).backward(&[out_step], KindMask::classic());

    // 2. Candidate branch instances, nearest the failure first.
    let mut candidates: Vec<(Addr, u64, u64)> = Vec::new(); // (addr, instance, step)
    let mut instance_count: std::collections::HashMap<Addr, u64> = std::collections::HashMap::new();
    for e in &events {
        if e.insn.is_branch() {
            let n = instance_count.entry(e.addr).or_insert(0);
            candidates.push((e.addr, *n, e.step));
            *n += 1;
        }
    }
    candidates.retain(|&(_, _, s)| s < out_step);
    candidates.sort_by_key(|&(_, _, s)| std::cmp::Reverse(s));

    // 3. Demand-driven verification.
    let mut verifications = 0;
    for (addr, instance, step) in candidates {
        if verifications >= budget {
            break;
        }
        verifications += 1;
        let outcome =
            switch_predicate(program, config, setup, addr, instance, channel, &failing_output);
        if let SwitchOutcome::OutputChanged { .. } = outcome {
            // Implicit dependence verified: out_step depends on this
            // branch instance. Extend the graph and slice again.
            let mut deps = graph.deps().to_vec();
            deps.push(Dependence::new(out_step, step, DepKind::Control));
            let mut metas: Vec<StepMeta> =
                graph.steps().filter_map(|s| graph.meta(s).copied()).collect();
            if graph.meta(step).is_none() {
                if let Some(e) = events.iter().find(|e| e.step == step) {
                    metas.push(StepMeta { step, addr: e.addr, stmt: e.insn.stmt, tid: e.tid });
                }
            }
            let augmented = DdgGraph::from_deps(deps, metas);
            let cand = Slicer::new(&augmented).backward(&[out_step], KindMask::classic());
            return OmissionReport {
                verifications,
                verified: Some((addr, instance)),
                dynamic_slice,
                candidates: cand,
            };
        }
    }
    OmissionReport { verifications, verified: None, dynamic_slice, candidates: Slice::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dift_isa::{BranchCond, ProgramBuilder, Reg};

    /// The omission bug: a wrong predicate skips the fix-up store.
    fn omission_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 100);
        b.li(Reg(2), 5);
        b.store(Reg(2), Reg(1), 0); // 2: stale value
        b.li(Reg(3), 0); // 3: buggy predicate operand
        b.branch(BranchCond::Eq, Reg(3), Reg(0), "skip"); // 4: wrongly taken
        b.li(Reg(4), 42); // 5
        b.store(Reg(4), Reg(1), 0); // 6: omitted fix-up
        b.label("skip");
        b.load(Reg(5), Reg(1), 0); // 7
        b.output(Reg(5), 0); // 8
        b.halt();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn switcher_flips_exactly_one_instance() {
        let p = omission_program();
        let cfg = MachineConfig::small();
        let out = switch_predicate(&p, &cfg, &|_| {}, 4, 0, 0, &[5]);
        match out {
            SwitchOutcome::OutputChanged { output } => assert_eq!(output, vec![42]),
            other => panic!("expected change, got {other:?}"),
        }
    }

    #[test]
    fn switching_unrelated_instance_is_unchanged() {
        let p = omission_program();
        let cfg = MachineConfig::small();
        // Instance 5 of the branch never executes; nothing is switched.
        let out = switch_predicate(&p, &cfg, &|_| {}, 4, 5, 0, &[5]);
        assert_eq!(out, SwitchOutcome::OutputUnchanged);
    }

    #[test]
    fn omission_error_located_with_few_verifications() {
        let p = omission_program();
        let cfg = MachineConfig::small();
        let report = locate_omission_error(&p, &cfg, &|_| {}, 0, 16);
        assert_eq!(report.verified, Some((4, 0)));
        assert_eq!(report.verifications, 1, "nearest-first finds it immediately");
        // The dynamic slice misses the root cause (stmt of addr 3)…
        assert!(!report.dynamic_slice.contains_addr(3));
        // …but the implicit-dependence slice contains it.
        assert!(report.candidates.contains_addr(4), "the switched branch");
        assert!(report.candidates.contains_addr(3), "its operand def — the root cause");
    }

    #[test]
    fn healthy_program_verifies_nothing() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 3);
        b.li(Reg(2), 3);
        // A branch that doesn't matter: both paths emit the same value.
        b.branch(BranchCond::Eq, Reg(1), Reg(2), "same");
        b.label("same");
        b.output(Reg(1), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let report = locate_omission_error(&p, &MachineConfig::small(), &|_| {}, 0, 8);
        assert_eq!(report.verified, None);
        assert!(report.candidates.is_empty());
    }

    #[test]
    fn inconclusive_when_switched_run_crashes() {
        // Flipping the guard jumps into a division by zero.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 1);
        b.li(Reg(2), 0);
        b.branch(BranchCond::Ne, Reg(1), Reg(0), "safe"); // taken normally
        b.bin(dift_isa::BinOp::Div, Reg(3), Reg(1), Reg(2)); // div by zero
        b.label("safe");
        b.output(Reg(1), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let out = switch_predicate(&p, &MachineConfig::small(), &|_| {}, 2, 0, 0, &[1]);
        assert!(matches!(out, SwitchOutcome::Inconclusive(_)));
    }
}
