//! End-to-end ONTRAC tests: optimizations reduce stored trace volume
//! without losing the dependences slicing needs.

use dift_dbi::Engine;
use dift_ddg::{DepKind, OnTrac, OnTracConfig};
use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
use dift_vm::{Machine, MachineConfig};
use std::sync::Arc;

/// A program with a hot loop, memory traffic and a call.
fn workload() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(1), 200); // iterations
    b.li(Reg(2), 0); // acc
    b.li(Reg(3), 100); // array base
    b.label("loop");
    // acc += mem[base + (i % 8)] (some reuse for redundant loads)
    b.bini(BinOp::Rem, Reg(4), Reg(1), 8);
    b.add(Reg(5), Reg(3), Reg(4));
    b.load(Reg(6), Reg(5), 0);
    b.add(Reg(2), Reg(2), Reg(6));
    // store/reload the accumulator: real memory dependences each iteration
    b.store(Reg(2), Reg(3), 64);
    b.load(Reg(2), Reg(3), 64);
    b.bini(BinOp::Sub, Reg(1), Reg(1), 1);
    b.branch(BranchCond::Ne, Reg(1), Reg(0), "loop");
    b.call("emit");
    b.halt();
    b.func("emit");
    b.output(Reg(2), 0);
    b.ret();
    b.data_block(100, &[1, 2, 3, 4, 5, 6, 7, 8]);
    Arc::new(b.build().unwrap())
}

fn run_ontrac(p: &Arc<Program>, cfg: OnTracConfig) -> (OnTrac, dift_vm::RunResult) {
    let m = Machine::new(p.clone(), MachineConfig::small());
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(p, mem, cfg);
    let mut engine = Engine::new(m);
    let r = engine.run_tool(&mut tracer);
    (tracer, r)
}

#[test]
fn optimizations_shrink_stored_trace() {
    let p = workload();
    let (unopt, r1) = run_ontrac(&p, OnTracConfig::unoptimized(1 << 20));
    let (opt, r2) = run_ontrac(&p, OnTracConfig::optimized(1 << 20));
    assert!(r1.status.is_clean());
    assert!(r2.status.is_clean());
    let su = unopt.stats();
    let so = opt.stats();
    assert_eq!(su.instrs, so.instrs, "same execution");
    assert!(
        so.deps_recorded < su.deps_recorded / 2,
        "optimizations should drop most records: {} vs {}",
        so.deps_recorded,
        su.deps_recorded
    );
    assert!(so.bytes_per_instr() < su.bytes_per_instr());
}

#[test]
fn optimized_cycles_are_lower() {
    let p = workload();
    let (_, r_unopt) = run_ontrac(&p, OnTracConfig::unoptimized(1 << 20));
    let (_, r_opt) = run_ontrac(&p, OnTracConfig::optimized(1 << 20));
    assert!(r_opt.cycles < r_unopt.cycles, "{} vs {}", r_opt.cycles, r_unopt.cycles);
}

#[test]
fn graph_contains_loop_carried_and_control_deps() {
    let p = workload();
    let (t, _) = run_ontrac(&p, OnTracConfig::unoptimized(1 << 24));
    let g = t.graph(&p);
    assert!(g.count_kind(DepKind::Control) > 0);
    assert!(g.count_kind(DepKind::MemData) > 0);
    assert!(g.count_kind(DepKind::RegData) > 0);
}

#[test]
fn optimized_graph_keeps_cross_block_deps() {
    // Block-static inference may only remove intra-block reg deps; the
    // loop-carried dependence on the accumulator must survive.
    let p = workload();
    let (t, _) = run_ontrac(&p, OnTracConfig::optimized(1 << 24));
    let g = t.graph(&p);
    // addr 6 is `add acc, acc, r6`; it depends on its previous instance
    // (cross-iteration = cross-block), which must be recorded.
    let add_steps = g.steps_at_addr(6);
    assert!(!add_steps.is_empty(), "accumulator add must appear in graph");
}

#[test]
fn small_buffer_bounds_window() {
    let p = workload();
    let (t, _) = run_ontrac(&p, OnTracConfig::unoptimized(256));
    assert!(t.buffer().bytes() <= 256);
    assert!(t.buffer().evicted > 0, "small buffer must evict");
    let stats = t.stats();
    assert!(stats.window_len > 0);
    assert!(stats.window_len < stats.instrs, "window shorter than run");
}

#[test]
fn optimized_buffer_covers_longer_window_at_same_budget() {
    let p = workload();
    let budget = 2048;
    let (unopt, _) = run_ontrac(&p, OnTracConfig::unoptimized(budget));
    let (opt, _) = run_ontrac(&p, OnTracConfig::optimized(budget));
    assert!(
        opt.stats().window_len >= unopt.stats().window_len,
        "optimizations stretch the window: {} vs {}",
        opt.stats().window_len,
        unopt.stats().window_len
    );
}

#[test]
fn selective_tracing_records_only_selected_function() {
    let p = workload();
    let mut cfg = OnTracConfig::unoptimized(1 << 24);
    let emit = p.func_by_name("emit").unwrap();
    cfg.selective_funcs = Some([emit].into_iter().collect());
    let (t, _) = run_ontrac(&p, cfg);
    let g = t.graph(&p);
    let emit_range = &p.funcs()[emit as usize];
    for d in g.deps() {
        let m = g.meta(d.user).unwrap();
        assert!(emit_range.contains(m.addr), "user at addr {} outside selected function", m.addr);
    }
    // The output instruction in emit uses r2 defined in main's loop — the
    // sound summarization must preserve that cross-boundary dependence.
    assert!(
        g.deps().iter().any(|d| d.kind == DepKind::RegData),
        "cross-boundary reg dep through untraced code must be kept"
    );
}

#[test]
fn naive_selective_breaks_dependence_chains() {
    let p = workload();
    let emit = p.func_by_name("emit").unwrap();

    let mut sound = OnTracConfig::unoptimized(1 << 24);
    sound.selective_funcs = Some([emit].into_iter().collect());
    let (t_sound, _) = run_ontrac(&p, sound);

    let mut naive = OnTracConfig::unoptimized(1 << 24);
    naive.selective_funcs = Some([emit].into_iter().collect());
    naive.naive_selective = true;
    let (t_naive, _) = run_ontrac(&p, naive);

    let sound_reg = t_sound.stats().deps_recorded;
    let naive_reg = t_naive.stats().deps_recorded;
    assert!(naive_reg < sound_reg, "naive mode must lose dependences ({naive_reg} vs {sound_reg})");
}

#[test]
fn forward_slice_filter_keeps_only_input_affected_deps() {
    // Program where half the computation flows from input, half from
    // constants.
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.input(Reg(1), 0); // tainted
    b.li(Reg(2), 5); // untainted
    b.li(Reg(3), 0);
    b.li(Reg(4), 0);
    b.li(Reg(9), 50);
    b.label("loop");
    b.add(Reg(3), Reg(3), Reg(1)); // tainted chain
    b.add(Reg(4), Reg(4), Reg(2)); // untainted chain
    b.bini(BinOp::Sub, Reg(9), Reg(9), 1);
    b.branch(BranchCond::Ne, Reg(9), Reg(0), "loop");
    b.output(Reg(3), 0);
    b.output(Reg(4), 0);
    b.halt();
    let p = Arc::new(b.build().unwrap());

    let mut cfg = OnTracConfig::unoptimized(1 << 24);
    cfg.forward_slice_input = true;
    let m = {
        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, &[7]);
        m
    };
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(&p, mem, cfg);
    let mut engine = Engine::new(m);
    let r = engine.run_tool(&mut tracer);
    assert!(r.status.is_clean());
    let g = tracer.graph(&p);

    // The tainted accumulator (addr 5) must be in the graph; the
    // untainted one (addr 6) must not appear as a user of reg deps.
    let tainted_users = g.steps_at_addr(5);
    assert!(!tainted_users.is_empty(), "tainted chain recorded");
    for d in g.deps() {
        if d.kind == DepKind::RegData {
            let m = g.meta(d.user).unwrap();
            assert_ne!(m.addr, 6, "untainted chain must be filtered out");
        }
    }
}

#[test]
fn war_waw_edges_recorded_when_enabled() {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(1), 100);
    b.li(Reg(2), 1);
    b.store(Reg(2), Reg(1), 0); // write
    b.load(Reg(3), Reg(1), 0); // read
    b.li(Reg(4), 2);
    b.store(Reg(4), Reg(1), 0); // write again: WAR on the load, WAW on store
    b.halt();
    let p = Arc::new(b.build().unwrap());
    let mut cfg = OnTracConfig::unoptimized(1 << 20);
    cfg.record_war_waw = true;
    let (t, _) = {
        let m = Machine::new(p.clone(), MachineConfig::small());
        let mem = m.config().mem_words;
        let mut tracer = OnTrac::new(&p, mem, cfg);
        let mut engine = Engine::new(m);
        let r = engine.run_tool(&mut tracer);
        (tracer, r)
    };
    let g = t.graph(&p);
    assert_eq!(g.count_kind(DepKind::War), 1);
    assert_eq!(g.count_kind(DepKind::Waw), 1);
}

/// A def older than 4 M defining steps keeps its site. The register
/// written at address 1 (step 1) is read after a 2.1 M-iteration loop
/// whose `sub` and `branch` each define or open a region, and the record
/// on it names the defining instruction's address and statement.
#[test]
fn old_def_keeps_its_site_past_four_million_defining_steps() {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(1), 2_100_000); // 0: iterations
    b.li(Reg(2), 7); // 1: the old def
    b.label("loop");
    b.bini(BinOp::Sub, Reg(1), Reg(1), 1); // 2
    b.branch(BranchCond::Ne, Reg(1), Reg(0), "loop"); // 3
    b.output(Reg(2), 0); // 4: reads the step-1 def
    b.halt();
    let p = Arc::new(b.build().unwrap());
    let (tracer, r) = run_ontrac(&p, OnTracConfig::unoptimized(1 << 12));
    assert!(r.status.is_clean(), "{:?}", r.status);
    assert!(r.steps > 4_200_000);
    let rec = tracer
        .buffer()
        .records()
        .filter(|rec| rec.dep.def == 1)
        .last()
        .expect("the read of the step-1 def is in the window");
    assert_eq!(rec.dep.kind, DepKind::RegData);
    assert_eq!((rec.def_addr, rec.def_stmt), (1, p.fetch(1).stmt), "{rec:?}");
}
