//! The tool (analysis plugin) interface.

use crate::engine::Engine;
use dift_isa::Addr;
use dift_vm::{Machine, Pending, RunResult, StepEffects, ThreadId};

/// An instrumentation tool — the analysis code a DBI user writes.
///
/// All callbacks receive `&mut Machine` so tools can inspect state and,
/// where the technique requires it, mutate it (predicate switching flips
/// branch outcomes, value replacement overwrites operands, environment
/// patching adjusts allocation behaviour).
///
/// Tools model their runtime cost by calling
/// [`Machine::charge`] from their callbacks; the engine never
/// charges implicitly.
///
/// Dispatch contract: for each instrumented instruction, `on_block` (at
/// a block entry) and `before` fire for exactly the instruction whose
/// effects `after` then receives — same thread, same address. Parking a
/// thread on a blocking `In`/`Join`, or raising a fault at a PC that
/// executes nothing, fires no callback. A `before` hook that redirects
/// its thread (`set_pc`, or `set_reg` on a `Join`'s operand) changes
/// which instruction executes, and `after` reports that one.
pub trait Tool {
    /// Called once before the first instruction.
    fn on_start(&mut self, _m: &mut Machine) {}

    /// Called before each instrumented instruction executes. The pending
    /// descriptor names the thread, address and instruction about to run.
    fn before(&mut self, _m: &mut Machine, _pending: &Pending) {}

    /// Called after each instrumented instruction with its architectural
    /// effects.
    fn after(&mut self, _m: &mut Machine, _fx: &StepEffects) {}

    /// Called when an instrumented thread enters a basic block (the first
    /// time the engine sees the block, `is_new` is true — the analog of
    /// JIT-compiling it).
    fn on_block(&mut self, _m: &mut Machine, _tid: ThreadId, _entry: Addr, _is_new: bool) {}

    /// Called once when the machine stops.
    fn on_finish(&mut self, _m: &mut Machine, _result: &RunResult) {}
}

/// A tool that does nothing — used to measure bare engine dispatch
/// overhead.
#[derive(Default)]
pub struct NullTool;

impl Tool for NullTool {}

/// A tool that keeps every step's effects, in order: the captured
/// stream that offline and epoch-parallel analyses consume.
#[derive(Default)]
pub struct Capture(pub Vec<StepEffects>);

impl Tool for Capture {
    fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
        self.0.push(fx.clone());
    }
}

/// Run `machine` to completion under [`Capture`] alone, returning the
/// captured stream and the run summary.
pub fn capture(machine: Machine) -> (Vec<StepEffects>, RunResult) {
    let mut cap = Capture::default();
    let result = Engine::new(machine).run_tool(&mut cap);
    (cap.0, result)
}

/// A tool counting events, for tests and calibration.
#[derive(Default, Debug)]
pub struct CountingTool {
    pub before_calls: u64,
    pub after_calls: u64,
    pub block_entries: u64,
    pub new_blocks: u64,
    pub started: bool,
    pub finished: bool,
}

impl Tool for CountingTool {
    fn on_start(&mut self, _m: &mut Machine) {
        self.started = true;
    }
    fn before(&mut self, _m: &mut Machine, _p: &Pending) {
        self.before_calls += 1;
    }
    fn after(&mut self, _m: &mut Machine, _fx: &StepEffects) {
        self.after_calls += 1;
    }
    fn on_block(&mut self, _m: &mut Machine, _tid: ThreadId, _entry: Addr, is_new: bool) {
        self.block_entries += 1;
        if is_new {
            self.new_blocks += 1;
        }
    }
    fn on_finish(&mut self, _m: &mut Machine, _r: &RunResult) {
        self.finished = true;
    }
}
