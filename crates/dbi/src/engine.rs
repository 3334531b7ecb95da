//! The instrumentation engine: drives the VM and dispatches tool
//! callbacks.

use crate::tool::Tool;
use dift_isa::Cfg;
use dift_vm::{ExitStatus, Machine, RunResult};

/// [`Engine`]'s per-address flag bits.
const LEADER: u8 = 1;
const SEEN: u8 = 2;

/// Drives a machine to completion while dispatching to tools.
///
/// Basic blocks are discovered statically (per function) when the engine
/// is constructed — the moral equivalent of the DBI front-end decoding
/// code as it is first reached; the `is_new` flag on block entries
/// reproduces the first-touch distinction.
///
/// Dispatch is table-driven and hash-free: one flag byte per program
/// address (block leader, already entered) and one block-pending flag
/// per thread, both plain vectors indexed by address and tid.
pub struct Engine {
    machine: Machine,
    /// `LEADER | SEEN` bits, indexed by program address.
    addr_flags: Vec<u8>,
    /// Indexed by tid: the thread's last instrumented instruction
    /// transferred control, so its next one begins a block.
    block_pending: Vec<bool>,
}

impl Engine {
    pub fn new(machine: Machine) -> Engine {
        let program = machine.program();
        let mut addr_flags = vec![0; program.len()];
        for cfg in Cfg::build_all(program) {
            for b in &cfg.blocks {
                addr_flags[b.start as usize] |= LEADER;
            }
        }
        Engine { machine, addr_flags, block_pending: Vec::new() }
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Consume the engine, returning the machine (for post-run
    /// inspection when the engine is no longer needed).
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// Execute one instruction with callbacks; returns machine status.
    ///
    /// [`Machine::pending`] has already parked blocked threads and raised
    /// faults that execute nothing, so the callbacks fired here are for
    /// exactly the instruction `Machine::step` then executes.
    pub fn step(&mut self, tools: &mut [&mut dyn Tool]) -> ExitStatus {
        let Some(pending) = self.machine.pending() else {
            return self.machine.status();
        };
        let at = pending.addr as usize;
        let flags = self.addr_flags[at];
        // Block-entry dispatch: the pending address is a leader, or the
        // thread's last instrumented instruction transferred control. The
        // thread's flag is consumed either way so it cannot leak into the
        // block body.
        let tid = pending.tid as usize;
        let flagged = self.block_pending.get_mut(tid).is_some_and(std::mem::take);
        if flags & LEADER != 0 || flagged {
            self.addr_flags[at] = flags | SEEN;
            for t in tools.iter_mut() {
                t.on_block(&mut self.machine, pending.tid, pending.addr, flags & SEEN == 0);
            }
        }
        for t in tools.iter_mut() {
            t.before(&mut self.machine, &pending);
        }
        let status = self.machine.step();
        let fx = self.machine.last_step().clone();
        if fx.control.is_some() {
            if tid >= self.block_pending.len() {
                self.block_pending.resize(tid + 1, false);
            }
            self.block_pending[tid] = true;
        }
        for t in tools.iter_mut() {
            t.after(&mut self.machine, &fx);
        }
        status
    }

    /// Run to completion with callbacks; returns the run summary.
    pub fn run(&mut self, tools: &mut [&mut dyn Tool]) -> RunResult {
        for t in tools.iter_mut() {
            t.on_start(&mut self.machine);
        }
        while self.step(tools) == ExitStatus::Running {}
        // Final summary comes from the machine.
        let result = RunResult {
            status: self.machine.status(),
            steps: self.machine.steps(),
            cycles: self.machine.cycles(),
            threads: self.machine.threads().len(),
            sched_decisions: self.machine.sched_trace().len(),
        };
        for t in tools.iter_mut() {
            t.on_finish(&mut self.machine, &result);
        }
        result
    }

    /// Convenience: run a single tool.
    pub fn run_tool(&mut self, tool: &mut dyn Tool) -> RunResult {
        let mut tools: [&mut dyn Tool; 1] = [tool];
        self.run(&mut tools)
    }

    /// Number of statically discovered basic blocks.
    pub fn block_count(&self) -> usize {
        self.addr_flags.iter().filter(|&&f| f & LEADER != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::{CountingTool, NullTool};
    use dift_isa::{Addr, BinOp, BranchCond, ProgramBuilder, Reg};
    use dift_vm::{Arrival, Fault, MachineConfig, Pending, StepEffects, ThreadId};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn looping_program() -> Arc<dift_isa::Program> {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 5);
        b.label("loop");
        b.bini(BinOp::Sub, Reg(1), Reg(1), 1);
        b.branch(BranchCond::Ne, Reg(1), Reg(0), "loop");
        b.call("leaf");
        b.halt();
        b.func("leaf");
        b.li(Reg(2), 1);
        b.ret();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn callbacks_fire_for_every_instruction() {
        let m = Machine::new(looping_program(), MachineConfig::small());
        let mut e = Engine::new(m);
        let mut tool = CountingTool::default();
        let r = e.run_tool(&mut tool);
        assert!(tool.started && tool.finished);
        assert_eq!(tool.before_calls, r.steps);
        assert_eq!(tool.after_calls, r.steps);
    }

    #[test]
    fn block_entries_count_loop_iterations() {
        let m = Machine::new(looping_program(), MachineConfig::small());
        let mut e = Engine::new(m);
        let mut tool = CountingTool::default();
        e.run_tool(&mut tool);
        // Blocks: [li], [sub,bne] x5, [call], [halt], [leaf li,ret].
        assert_eq!(tool.new_blocks as usize, 5);
        assert_eq!(tool.block_entries, 1 + 5 + 1 + 1 + 1);
    }

    #[test]
    fn multiple_tools_all_receive_events() {
        let m = Machine::new(looping_program(), MachineConfig::small());
        let mut e = Engine::new(m);
        let mut t1 = CountingTool::default();
        let mut t2 = CountingTool::default();
        {
            let mut tools: [&mut dyn Tool; 2] = [&mut t1, &mut t2];
            e.run(&mut tools);
        }
        assert_eq!(t1.before_calls, t2.before_calls);
        assert!(t1.before_calls > 0);
    }

    #[test]
    fn null_tool_adds_no_cycles() {
        let p = looping_program();
        let mut bare = Machine::new(p.clone(), MachineConfig::small());
        let bare_r = bare.run();

        let m = Machine::new(p, MachineConfig::small());
        let mut e = Engine::new(m);
        let mut tool = NullTool;
        let r = e.run_tool(&mut tool);
        assert_eq!(r.cycles, bare_r.cycles, "engine dispatch itself is free in the cost model");
        assert_eq!(r.steps, bare_r.steps);
    }

    #[test]
    fn block_count_matches_static_discovery() {
        let m = Machine::new(looping_program(), MachineConfig::small());
        let e = Engine::new(m);
        assert_eq!(e.block_count(), 5);
    }

    #[test]
    fn tool_can_mutate_machine_state() {
        // A before-hook that forces r1 = 0 right before the branch,
        // making the loop exit on the first iteration.
        struct Forcer;
        impl Tool for Forcer {
            fn before(&mut self, m: &mut Machine, p: &dift_vm::Pending) {
                if p.insn.is_branch() {
                    m.set_reg(p.tid, Reg(1), 0);
                }
            }
        }
        let m = Machine::new(looping_program(), MachineConfig::small());
        let mut e = Engine::new(m);
        let mut forcer = Forcer;
        let r = e.run_tool(&mut forcer);
        // Unforced: 1 + 5*2 + 1(call) + 2(leaf) + 1(halt) = 15 steps.
        // Forced: single loop iteration = 1 + 2 + 1 + 2 + 1 = 7.
        assert_eq!(r.steps, 7);
    }

    #[test]
    fn run_stops_when_the_pc_leaves_the_text() {
        // No `halt`: the PC falls off the end of the text after one step.
        let p = Arc::new(dift_isa::asm::assemble(".func main\n li r1, 5\n").unwrap());
        let want = Machine::new(p.clone(), MachineConfig::small()).run();
        assert!(matches!(
            want.status,
            ExitStatus::Faulted { fault: Fault::BadJump { target: 1 }, .. }
        ));
        assert_eq!(want.steps, 1);
        let (tx, rx) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let mut e = Engine::new(Machine::new(p, MachineConfig::small()));
            let _ = tx.send(e.run_tool(&mut NullTool));
        });
        let got = rx.recv_timeout(Duration::from_secs(60)).expect("Engine::run hung");
        run.join().expect("engine thread panicked");
        assert_eq!(got, want);
    }

    /// Every callback, in dispatch order.
    #[derive(Debug, PartialEq)]
    enum Event {
        Block(ThreadId, Addr, bool),
        Before(ThreadId, Addr),
        After(ThreadId, Addr),
    }

    #[derive(Default)]
    struct EventLog(Vec<Event>);

    impl Tool for EventLog {
        fn on_block(&mut self, _m: &mut Machine, tid: ThreadId, entry: Addr, is_new: bool) {
            self.0.push(Event::Block(tid, entry, is_new));
        }
        fn before(&mut self, _m: &mut Machine, p: &Pending) {
            self.0.push(Event::Before(p.tid, p.addr));
        }
        fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
            self.0.push(Event::After(fx.tid, fx.addr));
        }
    }

    /// Main spawns a 40-iteration worker at address 4, then blocks:
    /// `join`ing it, or, with `input`, first on an `in` whose word
    /// arrives while the worker runs.
    fn blocking_program(input: bool) -> (Arc<dift_isa::Program>, MachineConfig) {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 0);
        b.spawn(Reg(5), "worker", Reg(1));
        if input {
            b.input(Reg(2), 0);
            b.output(Reg(2), 0);
        }
        b.join(Reg(5));
        b.halt();
        b.func("worker");
        b.li(Reg(2), 40);
        b.label("loop");
        b.bini(BinOp::Sub, Reg(2), Reg(2), 1);
        b.branch(BranchCond::Ne, Reg(2), Reg(0), "loop");
        b.halt();
        let mut cfg = MachineConfig::small();
        if input {
            cfg.arrivals = vec![Arrival { at_step: 30, channel: 0, value: 7 }];
        }
        (Arc::new(b.build().unwrap()), cfg)
    }

    #[test]
    fn blocked_threads_get_no_callbacks_for_other_threads_instructions() {
        // Quantum 0 behaves as 1: one scheduling decision per step, even
        // when `pending()` and `step()` both run the pre-execution path.
        for (input, quantum) in [(false, 64), (true, 64), (false, 0), (true, 0)] {
            let case = format!("input={input} quantum={quantum}");
            let (p, cfg) = blocking_program(input);
            let cfg = cfg.with_quantum(quantum);
            let worker = p.funcs()[p.func_by_name("worker").unwrap() as usize].entry;
            let mut e = Engine::new(Machine::new(p.clone(), cfg.clone()));
            let mut log = EventLog::default();
            e.run_tool(&mut log);

            // Each `before` is followed by the `after` of the same
            // instruction, with nothing in between.
            let calls: Vec<&Event> =
                log.0.iter().filter(|ev| !matches!(ev, Event::Block(..))).collect();
            for pair in calls.chunks(2) {
                match pair {
                    [Event::Before(t, a), Event::After(u, b)] => {
                        assert_eq!((t, a), (u, b), "{case}: before/after mismatch")
                    }
                    other => panic!("{case}: unpaired callbacks {other:?}"),
                }
            }
            for tid in 1..e.machine().threads().len() as ThreadId {
                assert!(
                    log.0
                        .iter()
                        .any(|ev| matches!(ev, Event::Block(t, a, _) if *t == tid && *a == worker)),
                    "{case}: worker {tid}'s entry block never reported"
                );
            }

            let mut bare = Machine::new(p.clone(), cfg.clone());
            let want = bare.run();
            let mut e = Engine::new(Machine::new(p, cfg));
            assert_eq!(e.run_tool(&mut NullTool), want, "{case}");
            assert_eq!(e.machine().sched_trace(), bare.sched_trace(), "{case}");
        }
    }
}
