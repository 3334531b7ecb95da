//! The facade crate exposes the full system under stable paths.

use dift_core::prelude::*;
use dift_core::{
    attack, dbi, ddg, faultloc, lineage, multicore, race, replay, robdd, slicing, taint, tm, vm,
    workloads,
};

#[test]
fn prelude_builds_and_runs_a_program() {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(1), 21);
    b.bini(dift_core::isa::BinOp::Mul, Reg(2), Reg(1), 2);
    b.output(Reg(2), 0);
    b.halt();
    let p: std::sync::Arc<Program> = std::sync::Arc::new(b.build().unwrap());
    let mut m = Machine::new(p, MachineConfig::default());
    let r: RunResult = m.run();
    assert!(matches!(r.status, ExitStatus::Completed));
    assert_eq!(m.output(0), &[42]);
}

#[test]
fn every_subsystem_is_reachable() {
    // Touch one item per re-exported crate so a facade regression is a
    // compile error here.
    let _ = vm::MachineConfig::small();
    let _ = dbi::CountingTool::default();
    let _ = ddg::OnTracConfig::optimized(1024);
    let _ = slicing::KindMask::classic();
    let _ = taint::TaintPolicy::default();
    let _ = robdd::BddManager::new(8);
    let _ = lineage::NaiveBackend::new();
    let _ = replay::PatchFile::default();
    let _ = multicore::ChannelModel::hardware();
    let _ = tm::ConflictPolicy::SyncAware;
    let _ = race::Mode::SyncAware;
    assert_eq!(attack::all_cases().len(), 5);
    assert_eq!(faultloc::faulty_cases().len(), 3);
    assert_eq!(workloads::spec::all_spec(workloads::spec::Size::Tiny).len(), 7);
}

#[test]
fn engine_and_tool_compose_through_the_prelude() {
    struct Counter(u64);
    impl Tool for Counter {
        fn after(&mut self, _m: &mut Machine, _fx: &vm::StepEffects) {
            self.0 += 1;
        }
    }
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(1), 1);
    b.halt();
    let p = std::sync::Arc::new(b.build().unwrap());
    let m = Machine::new(p, MachineConfig::small());
    let mut tool = Counter(0);
    let mut e = Engine::new(m);
    let r = e.run_tool(&mut tool);
    assert_eq!(tool.0, r.steps);
}
