//! The prior-work offline pipeline (PLDI'04): collect the full trace,
//! then post-process into a compact DDG.
//!
//! This is E1's baseline. The collection phase charges a per-instruction
//! file-write cost to the VM; the post-processing phase derives every
//! dependence from the recorded trace (unoptimized — that's the point)
//! and its cost is accounted separately, since it runs after the program
//! has finished. The paper's observation is that the *sum* is a ~540×
//! slowdown vs ~19× for ONTRAC.
//!
//! Post-processing is the epoch-sharded deriver ([`crate::epoch`]) run
//! over the whole trace as one epoch, so the offline pipeline, the
//! sharded pipeline and the tests' ground truth share one derivation
//! loop.

use crate::buffer::BufRecord;
use crate::compact::CompactDdg;
use crate::costs;
use crate::epoch::summarize_dep_epoch;
use crate::graph::DdgGraph;
use crate::shadow::ControlStack;
use dift_dbi::{Engine, Tool};
use dift_isa::Program;
use dift_vm::{Machine, RunResult, StepEffects};

/// Statistics from an offline-pipeline run.
#[derive(Clone, Debug)]
pub struct OfflineStats {
    /// Instructions executed.
    pub steps: u64,
    /// VM cycles of the run including collection instrumentation.
    pub collect_cycles: u64,
    /// Modeled cost of the post-processing pass.
    pub post_cycles: u64,
    /// Raw trace bytes written (16 B per instruction).
    pub raw_bytes: u64,
    /// Dependences derived by post-processing.
    pub deps: u64,
    /// Compact representation size.
    pub compact_bytes: usize,
}

impl OfflineStats {
    /// Total cycles attributable to the pipeline.
    pub fn total_cycles(&self) -> u64 {
        self.collect_cycles + self.post_cycles
    }

    /// Raw-trace bytes per instruction (should be
    /// [`costs::RAW_BYTES_PER_INSN`]).
    pub fn bytes_per_instr(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.steps as f64
        }
    }
}

/// Trace collector: records every step's effects and charges the
/// file-write cost.
struct Collector {
    events: Vec<StepEffects>,
}

impl Tool for Collector {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        m.charge(costs::OFFLINE_COLLECT_PER_INSN);
        self.events.push(fx.clone());
    }
}

/// Derive the complete dependence set from a recorded trace — the
/// post-processing step, and the ground truth tests compare against.
/// This is the sharded deriver ([`crate::epoch`]) run as one epoch from
/// an empty control stack, so a use of a location never written
/// derives nothing and every record's sites are its steps' own.
pub fn derive_full_deps(
    program: &Program,
    events: &[StepEffects],
    mem_words: usize,
) -> Vec<BufRecord> {
    let first_step = events.first().map_or(0, |fx| fx.step);
    summarize_dep_epoch(events, ControlStack::new(program), first_step, mem_words).records
}

/// The two-phase offline pipeline.
pub struct OfflinePipeline;

impl OfflinePipeline {
    /// Run `machine` under trace collection, then post-process. Returns
    /// the stats, the full graph and the compact representation.
    pub fn run(machine: Machine) -> (OfflineStats, DdgGraph, CompactDdg, RunResult) {
        let mem_words = machine.config().mem_words;
        let program = machine.program().clone();
        let mut engine = Engine::new(machine);
        let mut collector = Collector { events: Vec::new() };
        let result = engine.run_tool(&mut collector);

        // Phase 2: offline post-processing (modeled cost).
        let records = derive_full_deps(&program, &collector.events, mem_words);
        let post_cycles = costs::OFFLINE_POST_PER_INSN * result.steps;
        let graph = DdgGraph::from_records(records.iter().copied(), &program);
        let compact = CompactDdg::from_graph(&graph);

        let stats = OfflineStats {
            steps: result.steps,
            collect_cycles: result.cycles,
            post_cycles,
            raw_bytes: costs::RAW_BYTES_PER_INSN * result.steps,
            deps: graph.dep_count() as u64,
            compact_bytes: compact.size_bytes(),
        };
        (stats, graph, compact, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::DepKind;
    use crate::ontrac::{OnTrac, OnTracConfig};
    use dift_dbi::Capture;
    use dift_isa::{BinOp, BranchCond, ProgramBuilder, Reg};
    use dift_vm::MachineConfig;
    use dift_workloads::{parallel, server};
    use std::sync::Arc;

    fn sum_loop_machine() -> Machine {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 10);
        b.li(Reg(2), 0);
        b.label("loop");
        b.add(Reg(2), Reg(2), Reg(1));
        b.bini(BinOp::Sub, Reg(1), Reg(1), 1);
        b.branch(BranchCond::Ne, Reg(1), Reg(0), "loop");
        b.output(Reg(2), 0);
        b.halt();
        Machine::new(Arc::new(b.build().unwrap()), MachineConfig::small())
    }

    #[test]
    fn offline_pipeline_produces_complete_ddg() {
        let (stats, graph, compact, result) = OfflinePipeline::run(sum_loop_machine());
        assert!(result.status.is_clean());
        assert_eq!(stats.steps, result.steps);
        assert!(stats.deps > 0);
        assert_eq!(compact.dep_count(), graph.dep_count() as u64);
        assert_eq!(stats.bytes_per_instr(), 16.0);
        // Post-processing dominates, as in the paper.
        assert!(stats.post_cycles > stats.collect_cycles);
    }

    #[test]
    fn derived_deps_include_loop_carried_chain() {
        let mut m = sum_loop_machine();
        // Manually run and collect effects.
        let mut events = Vec::new();
        while m.pending().is_some() {
            m.step();
            events.push(m.last_step().clone());
        }
        let program = m.program().clone();
        let recs = derive_full_deps(&program, &events, m.config().mem_words);
        // The accumulator add at addr 2 must depend on its own previous
        // instance (loop-carried RegData through r2).
        let adds: Vec<_> =
            recs.iter().filter(|r| r.user_addr == 2 && r.dep.kind == DepKind::RegData).collect();
        assert!(adds.iter().any(|r| r.def_addr == 2), "loop-carried dep on the add itself");
        // And every loop-body instruction is control dependent on the
        // branch at addr 4.
        assert!(recs.iter().any(|r| r.dep.kind == DepKind::Control && r.def_addr == 4));
    }

    /// The multithreaded suite and the kv server: the offline pass equals
    /// unoptimized ONTRAC's never-evicting buffer record for record, in
    /// order, and each record's def and user address and statement are
    /// those of the captured steps it names.
    #[test]
    fn offline_pass_is_ontrac_with_true_sites() {
        let mut ws = parallel::all_parallel();
        ws.push(server::server(server::ServerConfig::default()));
        for w in ws {
            let m = w.machine();
            let (program, mem_words) = (m.program().clone(), m.config().mem_words);
            let mut tracer = OnTrac::new(&program, mem_words, OnTracConfig::unoptimized(1 << 30));
            let mut cap = Capture::default();
            let r = Engine::new(m).run(&mut [&mut tracer, &mut cap]);
            assert!(r.status.is_clean(), "{}: {:?}", w.name, r.status);
            let recs = derive_full_deps(&program, &cap.0, mem_words);
            assert!(
                recs.iter().copied().eq(tracer.buffer().records()),
                "{}: records differ",
                w.name
            );
            for rec in &recs {
                for (step, addr, stmt) in [
                    (rec.dep.def, rec.def_addr, rec.def_stmt),
                    (rec.dep.user, rec.user_addr, rec.user_stmt),
                ] {
                    let fx = &cap.0[step as usize];
                    assert_eq!(fx.step, step, "{}: captured steps index the stream", w.name);
                    assert_eq!((addr, stmt), (fx.addr, fx.insn.stmt), "{}: {rec:?}", w.name);
                }
            }
        }
    }

    #[test]
    fn compact_round_trips_the_full_graph() {
        let (_, graph, compact, _) = OfflinePipeline::run(sum_loop_machine());
        let expanded = compact.expand();
        assert_eq!(expanded.len(), graph.dep_count());
    }
}
