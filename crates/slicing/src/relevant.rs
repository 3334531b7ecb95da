//! Relevant slicing: conservative potential dependences.
//!
//! A *potential dependence* connects a use to an earlier branch instance
//! that, had it gone the other way, might have produced a different
//! definition for that use — the static mechanism that lets slices catch
//! execution-omission errors. Because the analysis must be conservative
//! (any store in skipped code may alias any later load), relevant slices
//! are much larger than dynamic slices; the paper's PLDI'07 work (our
//! [`crate::implicit`]) replaces them with verified implicit dependences.

use crate::slicer::{KindMask, Slice, Slicer};
use dift_ddg::{DdgGraph, DepKind, Dependence, StepMeta};
use dift_isa::{Addr, Cfg, Program, Reg};
use dift_vm::{ControlEffect, StepEffects};
use std::collections::{HashMap, HashSet};

/// A potential dependence: `user` might have depended on branch instance
/// `branch` had the branch gone the other way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PotentialDep {
    pub user: u64,
    pub branch: u64,
}

struct BranchInfo {
    /// Block entry on the taken side / fall-through side.
    succ_of_outcome: [Option<Addr>; 2],
}

/// Static per-block def summary.
#[derive(Default, Clone)]
struct BlockDefs {
    regs: HashSet<Reg>,
    has_store: bool,
}

fn block_defs(program: &Program, cfg: &Cfg, entry: Addr) -> BlockDefs {
    let mut out = BlockDefs::default();
    if let Some(b) = cfg.block_at(entry) {
        for at in cfg.blocks[b as usize].addrs() {
            let insn = program.fetch(at);
            if let Some(r) = insn.def() {
                out.regs.insert(r);
            }
            if matches!(
                insn.mem_ref().map(|m| m.kind),
                Some(dift_isa::MemKind::Write) | Some(dift_isa::MemKind::ReadWrite)
            ) {
                out.has_store = true;
            }
        }
    }
    out
}

/// Compute potential dependences from a recorded execution.
///
/// For every executed conditional branch, the *not-taken* successor block
/// is inspected statically; until the branch's control region closes,
/// later instructions that read a register the skipped block defines (or
/// read memory when the skipped block stores) acquire a potential
/// dependence on the branch instance. `cap` bounds the total (relevant
/// slicing explodes by design; the cap keeps tests fast).
pub fn potential_dependences(
    program: &Program,
    events: &[StepEffects],
    cap: usize,
) -> Vec<PotentialDep> {
    // Static tables.
    let cfgs = Cfg::build_all(program);
    let mut branch_info: HashMap<Addr, (usize, BranchInfo)> = HashMap::new();
    for (f, cfg) in cfgs.iter().enumerate() {
        for blk in &cfg.blocks {
            if blk.succs.len() < 2 {
                continue;
            }
            let term = blk.terminator();
            let insn = program.fetch(term);
            let (taken, fall) = match insn.op {
                dift_isa::Opcode::Branch { target, .. } => (Some(target), Some(term + 1)),
                _ => (None, None),
            };
            branch_info.insert(term, (f, BranchInfo { succ_of_outcome: [fall, taken] }));
        }
    }

    let mut out = Vec::new();
    for (i, fx) in events.iter().enumerate() {
        if out.len() >= cap {
            break;
        }
        let Some(ControlEffect::Branch { taken, .. }) = fx.control else { continue };
        let Some((f, info)) = branch_info.get(&fx.addr) else { continue };
        // The path NOT taken: index by the outcome that did not happen.
        let skipped_entry = info.succ_of_outcome[if taken { 0 } else { 1 }];
        let Some(skipped) = skipped_entry else { continue };
        let defs = block_defs(program, &cfgs[*f], skipped);
        if defs.regs.is_empty() && !defs.has_store {
            continue;
        }
        // A skipped register definition stays "potential" until the
        // register is dynamically redefined; skipped stores (unknowable
        // aliasing) stay live for a bounded horizon.
        let mut live_regs = defs.regs.clone();
        for later in events[i + 1..].iter().take(4096) {
            if later.tid != fx.tid {
                continue;
            }
            if live_regs.is_empty() && !defs.has_store {
                break;
            }
            let mut hit = false;
            for r in &later.insn.reg_uses() {
                if live_regs.contains(&r) {
                    hit = true;
                }
            }
            if defs.has_store && later.mem_read.is_some() {
                hit = true;
            }
            if hit {
                out.push(PotentialDep { user: later.step, branch: fx.step });
                if out.len() >= cap {
                    break;
                }
            }
            if let Some(rd) = later.insn.def() {
                live_regs.remove(&rd);
            }
        }
    }
    out
}

/// A backward *relevant slice*: the dynamic slice over `graph` augmented
/// with the potential dependences derived from `events`.
pub fn relevant_slice(
    graph: &DdgGraph,
    program: &Program,
    events: &[StepEffects],
    criterion: &[u64],
    mask: KindMask,
) -> Slice {
    let pots = potential_dependences(program, events, 2_000_000);
    // Merge into an augmented graph (potential deps ride as Control).
    let mut deps: Vec<Dependence> = graph.deps().to_vec();
    let mut metas: Vec<StepMeta> = graph.steps().filter_map(|s| graph.meta(s).copied()).collect();
    let known: HashSet<u64> = metas.iter().map(|m| m.step).collect();
    let by_step: HashMap<u64, &StepEffects> = events.iter().map(|e| (e.step, e)).collect();
    for p in pots {
        deps.push(Dependence::new(p.user, p.branch, DepKind::Control));
        for s in [p.user, p.branch] {
            if !known.contains(&s) {
                if let Some(e) = by_step.get(&s) {
                    metas.push(StepMeta { step: s, addr: e.addr, stmt: e.insn.stmt, tid: e.tid });
                }
            }
        }
    }
    let augmented = DdgGraph::from_deps(deps, metas);
    Slicer::new(&augmented).backward(criterion, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dift_isa::{BranchCond, ProgramBuilder};
    use dift_vm::{Machine, MachineConfig};
    use std::sync::Arc;

    /// Execution-omission pattern: the fix-up store is skipped because
    /// the predicate is wrong, so the output reads a stale value.
    fn omission_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 100); // base
        b.li(Reg(2), 5);
        b.store(Reg(2), Reg(1), 0); // mem[100] = 5 (stale)
        b.li(Reg(3), 0); // predicate operand (buggy: should be 1)
        b.branch(BranchCond::Eq, Reg(3), Reg(0), "skip"); // taken (wrongly)
        b.li(Reg(4), 42);
        b.store(Reg(4), Reg(1), 0); // the omitted fix-up
        b.label("skip");
        b.load(Reg(5), Reg(1), 0); // reads stale 5
        b.output(Reg(5), 0);
        b.halt();
        Arc::new(b.build().unwrap())
    }

    fn run_with_events(p: &Arc<Program>) -> Vec<StepEffects> {
        dift_dbi::capture(Machine::new(p.clone(), MachineConfig::small())).0
    }

    #[test]
    fn potential_dep_connects_skipped_store_to_later_load() {
        let p = omission_program();
        let events = run_with_events(&p);
        let pots = potential_dependences(&p, &events, 1000);
        // The branch is at addr 4; the load at addr 7 reads memory while
        // the skipped block stores -> potential dep.
        let branch_step = events.iter().find(|e| e.addr == 4).unwrap().step;
        let load_step = events.iter().find(|e| e.addr == 7).unwrap().step;
        assert!(
            pots.iter().any(|pd| pd.user == load_step && pd.branch == branch_step),
            "expected potential dep load<-branch in {pots:?}"
        );
    }

    #[test]
    fn relevant_slice_catches_omission_but_is_larger() {
        let p = omission_program();
        let events = run_with_events(&p);
        let full = dift_ddg::offline::derive_full_deps(&p, &events, 1 << 12);
        let graph = DdgGraph::from_records(full.iter().copied(), &p);
        let out_step = events.iter().find(|e| e.output.is_some()).unwrap().step;

        let dynamic = Slicer::new(&graph).backward(&[out_step], KindMask::classic());
        // The buggy predicate operand def (addr 3) is NOT in the dynamic
        // slice: the load's def is the first store, not the branch.
        assert!(!dynamic.contains_addr(3), "dynamic slice misses omission root cause");

        let relevant = relevant_slice(&graph, &p, &events, &[out_step], KindMask::classic());
        assert!(relevant.contains_addr(4), "relevant slice includes the branch");
        assert!(relevant.contains_addr(3), "…and its operand definition");
        assert!(relevant.len() >= dynamic.len(), "relevant slices are larger");
    }

    #[test]
    fn no_branches_no_potential_deps() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 1);
        b.output(Reg(1), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let events = run_with_events(&p);
        assert!(potential_dependences(&p, &events, 100).is_empty());
    }
}
