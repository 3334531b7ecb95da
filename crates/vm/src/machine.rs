//! The interpreter: fetch/execute loop, threads, scheduling, effects.

use crate::config::{MachineConfig, SchedPolicy};
use crate::effects::{ControlEffect, Fault, StepEffects};
use crate::memory::{AllocError, Allocator, Memory};
use crate::result::{ExitStatus, RunResult};
use crate::sched::Scheduler;
use crate::thread::{ThreadId, ThreadState, ThreadStatus};
use dift_isa::{Addr, AtomicOp, BinOp, Instruction, MemAddr, Opcode, Program, Reg};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// What the machine will execute next (after scheduling).
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    pub tid: ThreadId,
    pub addr: Addr,
    pub insn: Instruction,
}

/// A point-in-time snapshot of the full machine state, as produced by
/// [`Machine::checkpoint`]. The replay system persists these.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    pub memory: Vec<u64>,
    pub threads: Vec<ThreadState>,
    pub cur: ThreadId,
    pub quantum_left: u32,
    pub steps: u64,
    pub cycles: u64,
    pub inputs: Vec<(u16, Vec<u64>)>,
    pub outputs: Vec<(u16, Vec<u64>)>,
    pub next_arrival: usize,
    pub live_allocs: Vec<(MemAddr, u64)>,
}

/// The virtual machine.
pub struct Machine {
    program: Arc<Program>,
    config: MachineConfig,
    memory: Memory,
    allocator: Allocator,
    threads: Vec<ThreadState>,
    cur: ThreadId,
    quantum_left: u32,
    scheduler: Scheduler,
    inputs: HashMap<u16, VecDeque<u64>>,
    outputs: HashMap<u16, Vec<u64>>,
    next_arrival: usize,
    steps: u64,
    cycles: u64,
    status: ExitStatus,
    effects: StepEffects,
    scheduled: bool,
    first_fault: Option<(ThreadId, Addr, Fault)>,
}

impl Machine {
    /// Create a machine for `program` with `config`; loads the data image
    /// and creates the main thread (tid 0) at the program entry.
    pub fn new(program: Arc<Program>, mut config: MachineConfig) -> Machine {
        config.arrivals.sort_by_key(|a| a.at_step);
        let mut memory = Memory::new(config.mem_words);
        for (&addr, &val) in program.data_image() {
            // The builder validated nothing; clamp silently rather than
            // panic — out-of-range image words are a config error surfaced
            // by the first program access anyway.
            let _ = memory.write(addr, val);
        }
        let allocator = Allocator::new(config.heap_base, config.mem_words as MemAddr);
        let main = ThreadState::new(0, program.entry());
        let scheduler = Scheduler::new(config.sched.clone());
        Machine {
            program,
            config,
            memory,
            allocator,
            threads: vec![main],
            cur: 0,
            quantum_left: 0,
            scheduler,
            inputs: HashMap::new(),
            outputs: HashMap::new(),
            next_arrival: 0,
            steps: 0,
            cycles: 0,
            status: ExitStatus::Running,
            effects: StepEffects::default(),
            scheduled: false,
            first_fault: None,
        }
    }

    // ---- I/O -------------------------------------------------------------

    /// Pre-seed `channel` with input words (available from step 0).
    pub fn feed_input(&mut self, channel: u16, values: &[u64]) {
        self.inputs.entry(channel).or_default().extend(values.iter().copied());
    }

    /// Values emitted on `channel` so far.
    pub fn output(&self, channel: u16) -> &[u64] {
        self.outputs.get(&channel).map(|v| v.as_slice()).unwrap_or(&[])
    }

    // ---- inspection -------------------------------------------------------

    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Size of data memory in words — shadow structures (taint shadow
    /// map, DDG last-writer tables) pre-size themselves from this.
    pub fn mem_words(&self) -> usize {
        self.config.mem_words
    }

    pub fn status(&self) -> ExitStatus {
        self.status
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    pub fn threads(&self) -> &[ThreadState] {
        &self.threads
    }

    pub fn thread(&self, tid: ThreadId) -> &ThreadState {
        &self.threads[tid as usize]
    }

    /// Effects of the most recently executed instruction.
    pub fn last_step(&self) -> &StepEffects {
        &self.effects
    }

    /// The recorded scheduling trace (for the replay log).
    pub fn sched_trace(&self) -> &[crate::sched::SchedDecision] {
        &self.scheduler.trace
    }

    /// The first fault observed, even when `stop_on_fault` is off.
    pub fn first_fault(&self) -> Option<(ThreadId, Addr, Fault)> {
        self.first_fault
    }

    pub fn mem_read(&self, addr: MemAddr) -> u64 {
        self.memory.peek(addr)
    }

    pub fn reg(&self, tid: ThreadId, r: Reg) -> u64 {
        self.threads[tid as usize].reg(r)
    }

    /// The allocator (for leak checks and attack detectors that need
    /// block bounds).
    pub fn allocator(&self) -> &Allocator {
        &self.allocator
    }

    // ---- mutation (instrumentation API) ------------------------------------

    /// Overwrite a register (used by value replacement / fault avoidance).
    pub fn set_reg(&mut self, tid: ThreadId, r: Reg, v: u64) {
        self.threads[tid as usize].set_reg(r, v);
    }

    /// Overwrite a memory word (bounds-checked).
    pub fn set_mem(&mut self, addr: MemAddr, v: u64) -> Result<(), Fault> {
        self.memory.write(addr, v).map(|_| ())
    }

    /// Redirect a thread's PC (used by predicate switching).
    pub fn set_pc(&mut self, tid: ThreadId, pc: Addr) {
        self.threads[tid as usize].pc = pc;
    }

    /// Charge instrumentation overhead cycles to the machine (and the
    /// current thread), exactly like analysis code executing inline.
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.threads[self.cur as usize].cycles += cycles;
    }

    // ---- scheduling --------------------------------------------------------

    fn runnable(&self) -> Vec<ThreadId> {
        self.threads.iter().filter(|t| t.status.is_runnable()).map(|t| t.tid).collect()
    }

    fn inject_arrivals(&mut self) {
        while let Some(a) = self.config.arrivals.get(self.next_arrival) {
            if a.at_step > self.steps {
                break;
            }
            self.inputs.entry(a.channel).or_default().push_back(a.value);
            self.next_arrival += 1;
        }
        // Wake input-waiters whose channel now has data.
        for t in &mut self.threads {
            if let ThreadStatus::InputWait(ch) = t.status {
                if self.inputs.get(&ch).map(|q| !q.is_empty()).unwrap_or(false) {
                    t.status = ThreadStatus::Runnable;
                }
            }
        }
    }

    fn wake_joiners(&mut self, done: ThreadId) {
        for t in &mut self.threads {
            if t.status == ThreadStatus::JoinWait(done) {
                t.status = ThreadStatus::Runnable;
            }
        }
    }

    /// Advance arrival injection and scheduling until a runnable thread is
    /// current or the machine reaches a terminal status.
    fn ensure_scheduled(&mut self) {
        if self.status != ExitStatus::Running {
            return;
        }
        loop {
            self.inject_arrivals();
            let cur_ok = self
                .threads
                .get(self.cur as usize)
                .map(|t| t.status.is_runnable())
                .unwrap_or(false);
            if self.scheduled && cur_ok && self.quantum_left > 0 {
                return;
            }
            let runnable = self.runnable();
            if runnable.is_empty() {
                if self.threads.iter().all(|t| t.status.is_done()) {
                    self.status = match self.first_fault {
                        Some((tid, at, fault)) => ExitStatus::Faulted { tid, at, fault },
                        None => ExitStatus::Completed,
                    };
                    return;
                }
                // Blocked threads remain. Can a future arrival unblock an
                // input-waiter? If so, fast-forward time to it.
                let wanted: Vec<u16> = self
                    .threads
                    .iter()
                    .filter_map(|t| match t.status {
                        ThreadStatus::InputWait(ch) => Some(ch),
                        _ => None,
                    })
                    .collect();
                if let Some(next) = self.config.arrivals[self.next_arrival..]
                    .iter()
                    .position(|a| wanted.contains(&a.channel))
                {
                    let target = self.config.arrivals[self.next_arrival + next].at_step;
                    self.steps = self.steps.max(target);
                    continue;
                }
                self.status = ExitStatus::Deadlock;
                return;
            }
            match self.scheduler.pick(&runnable) {
                Some(tid) => {
                    self.cur = tid;
                    // At least one instruction per decision, so that a
                    // repeated `prepare()` never decides twice.
                    self.quantum_left = self.config.quantum.max(1);
                    self.scheduled = true;
                    return;
                }
                None => {
                    self.status = ExitStatus::ReplayDivergence;
                    return;
                }
            }
        }
    }

    /// What will execute next, or `None` once the machine has stopped.
    ///
    /// This runs the same pre-execution routine as [`Machine::step`]: a
    /// thread whose `In`/`Join` would block is parked, a PC outside the
    /// program text raises `BadJump` and `max_steps` ends the run, before
    /// anything is returned. So the instruction returned is exactly the
    /// one the next `step()` executes, unless the caller first redirects
    /// the thread (`set_pc`, or `set_reg` on a `Join`'s operand).
    pub fn pending(&mut self) -> Option<Pending> {
        self.prepare()
    }

    /// The pre-execution half of a step, shared by [`Machine::pending`]
    /// and [`Machine::step`]: schedule, apply `max_steps`, fetch, and
    /// settle every reason the current thread cannot execute (park it on
    /// a blocking `In`/`Join`, fault it on a bad PC or join target),
    /// until an instruction can execute or the machine stops. It is
    /// idempotent: called again before that instruction executes, it
    /// changes nothing and returns the same instruction, so `pending()`
    /// followed by `step()` makes the same scheduling decisions as
    /// `step()` alone.
    #[inline(always)]
    fn prepare(&mut self) -> Option<Pending> {
        loop {
            self.ensure_scheduled();
            if self.status != ExitStatus::Running {
                return None;
            }
            if self.steps >= self.config.max_steps {
                self.status = ExitStatus::StepLimit;
                return None;
            }
            let tid = self.cur;
            let pc = self.threads[tid as usize].pc;
            let insn = match self.program.get(pc) {
                Some(i) => *i,
                None => {
                    self.raise(tid, pc, Fault::BadJump { target: pc as u64 });
                    continue;
                }
            };
            // Blocking instructions that cannot proceed park the thread
            // without consuming a step.
            match insn.op {
                Opcode::In { channel, .. } => {
                    let empty = self.inputs.get(&channel).map(|q| q.is_empty()).unwrap_or(true);
                    if empty {
                        self.threads[tid as usize].status = ThreadStatus::InputWait(channel);
                        self.scheduled = false;
                        continue;
                    }
                }
                Opcode::Join { rs } => {
                    let target = self.threads[tid as usize].reg(rs);
                    match self.threads.get(target as usize) {
                        Some(t) if !t.status.is_done() => {
                            self.threads[tid as usize].status = ThreadStatus::JoinWait(target);
                            self.scheduled = false;
                            continue;
                        }
                        Some(_) => {} // joinable now
                        None => {
                            self.raise(tid, pc, Fault::BadJoin { tid: target });
                            continue;
                        }
                    }
                }
                _ => {}
            }
            return Some(Pending { tid, addr: pc, insn });
        }
    }

    // ---- execution ---------------------------------------------------------

    /// Execute one instruction. Returns the machine status afterwards;
    /// inspect [`Machine::last_step`] for the effects.
    pub fn step(&mut self) -> ExitStatus {
        let Some(Pending { tid, addr: pc, insn }) = self.prepare() else {
            return self.status;
        };
        self.effects.reset(tid, pc, insn, self.steps);
        self.exec(tid, pc, insn);
        self.steps += 1;
        self.quantum_left = self.quantum_left.saturating_sub(1);
        let c = self.effects.cycles;
        self.cycles += c;
        let t = &mut self.threads[tid as usize];
        t.steps += 1;
        t.cycles += c;
        if !t.status.is_runnable() {
            self.scheduled = false;
        }
        self.status
    }

    /// Run to completion and summarize.
    pub fn run(&mut self) -> RunResult {
        while self.step() == ExitStatus::Running {}
        RunResult {
            status: self.status,
            steps: self.steps,
            cycles: self.cycles,
            threads: self.threads.len(),
            sched_decisions: self.scheduler.trace.len(),
        }
    }

    fn raise(&mut self, tid: ThreadId, at: Addr, fault: Fault) {
        self.threads[tid as usize].status = ThreadStatus::Faulted(fault);
        if self.first_fault.is_none() {
            self.first_fault = Some((tid, at, fault));
        }
        self.effects.fault = Some(fault);
        self.wake_joiners(tid);
        self.scheduled = false;
        if self.config.stop_on_fault {
            self.status = ExitStatus::Faulted { tid, at, fault };
        }
    }

    fn exec(&mut self, tid: ThreadId, pc: Addr, insn: Instruction) {
        let cm = self.config.cycles.clone();
        let mut next_pc = pc + 1;
        macro_rules! regs {
            ($r:expr) => {
                self.threads[tid as usize].reg($r)
            };
        }
        macro_rules! write_reg {
            ($r:expr, $v:expr) => {{
                let old = self.threads[tid as usize].reg($r);
                let new = $v;
                self.threads[tid as usize].set_reg($r, new);
                self.effects.reg_write = Some(($r, old, new));
            }};
        }
        macro_rules! fault {
            ($f:expr) => {{
                self.effects.cycles += cm.alu;
                self.raise(tid, pc, $f);
                return;
            }};
        }

        match insn.op {
            Opcode::Nop => self.effects.cycles += cm.alu,
            Opcode::Li { rd, imm } => {
                write_reg!(rd, imm as u64);
                self.effects.cycles += cm.alu;
            }
            Opcode::Mov { rd, rs } => {
                write_reg!(rd, regs!(rs));
                self.effects.cycles += cm.alu;
            }
            Opcode::Bin { op, rd, rs1, rs2 } => {
                let (a, b) = (regs!(rs1), regs!(rs2));
                match eval_bin(op, a, b) {
                    Ok(v) => {
                        write_reg!(rd, v);
                        self.effects.cycles += bin_cost(&cm, op);
                    }
                    Err(f) => fault!(f),
                }
            }
            Opcode::BinImm { op, rd, rs1, imm } => {
                let a = regs!(rs1);
                match eval_bin(op, a, imm as u64) {
                    Ok(v) => {
                        write_reg!(rd, v);
                        self.effects.cycles += bin_cost(&cm, op);
                    }
                    Err(f) => fault!(f),
                }
            }
            Opcode::Load { rd, base, offset } => {
                let addr = regs!(base).wrapping_add(offset as u64);
                match self.memory.read(addr) {
                    Ok(v) => {
                        self.effects.mem_read = Some((addr, v));
                        write_reg!(rd, v);
                        self.effects.cycles += cm.mem;
                    }
                    Err(f) => fault!(f),
                }
            }
            Opcode::Store { rs, base, offset } => {
                let addr = regs!(base).wrapping_add(offset as u64);
                let v = regs!(rs);
                match self.memory.write(addr, v) {
                    Ok(old) => {
                        self.effects.mem_write = Some((addr, old, v));
                        self.effects.cycles += cm.mem;
                    }
                    Err(f) => fault!(f),
                }
            }
            Opcode::Jump { target } => {
                next_pc = target;
                self.effects.control = Some(ControlEffect::Jump { target });
                self.effects.cycles += cm.branch;
            }
            Opcode::JumpInd { rs } => {
                let t = regs!(rs);
                if self.program.get(t as Addr).is_none() || t > u32::MAX as u64 {
                    fault!(Fault::BadJump { target: t });
                }
                next_pc = t as Addr;
                self.effects.control = Some(ControlEffect::Jump { target: next_pc });
                self.effects.cycles += cm.branch + cm.taken_extra;
            }
            Opcode::Branch { cond, rs1, rs2, target } => {
                let taken = cond.eval(regs!(rs1), regs!(rs2));
                if taken {
                    next_pc = target;
                }
                self.effects.control = Some(ControlEffect::Branch { taken, target });
                self.effects.cycles += cm.branch + if taken { cm.taken_extra } else { 0 };
            }
            Opcode::Call { target } => {
                self.threads[tid as usize].call_stack.push(pc + 1);
                next_pc = target;
                self.effects.control = Some(ControlEffect::Call { target, ret_to: pc + 1 });
                self.effects.cycles += cm.call;
            }
            Opcode::CallInd { rs } => {
                let t = regs!(rs);
                if self.program.get(t as Addr).is_none() || t > u32::MAX as u64 {
                    fault!(Fault::BadJump { target: t });
                }
                self.threads[tid as usize].call_stack.push(pc + 1);
                next_pc = t as Addr;
                self.effects.control =
                    Some(ControlEffect::Call { target: next_pc, ret_to: pc + 1 });
                self.effects.cycles += cm.call + cm.taken_extra;
            }
            Opcode::Ret => match self.threads[tid as usize].call_stack.pop() {
                Some(ret) => {
                    next_pc = ret;
                    self.effects.control = Some(ControlEffect::Ret { target: ret });
                    self.effects.cycles += cm.call;
                }
                None => fault!(Fault::CallStackUnderflow),
            },
            Opcode::In { rd, channel } => {
                // Non-empty guaranteed by the blocking check in prepare().
                let v = self
                    .inputs
                    .get_mut(&channel)
                    .and_then(|q| q.pop_front())
                    .expect("prepare() guarantees channel non-empty");
                self.effects.input = Some((channel, v));
                write_reg!(rd, v);
                self.effects.cycles += cm.io;
            }
            Opcode::Out { rs, channel } => {
                let v = regs!(rs);
                self.outputs.entry(channel).or_default().push(v);
                self.effects.output = Some((channel, v));
                self.effects.cycles += cm.io;
            }
            Opcode::Alloc { rd, size } => {
                let sz = regs!(size);
                match self.allocator.alloc(sz, self.config.alloc_padding) {
                    Ok(addr) => {
                        self.effects.alloc = Some((addr, sz));
                        write_reg!(rd, addr);
                        self.effects.cycles += cm.alloc;
                    }
                    Err(AllocError::OutOfMemory) => fault!(Fault::OutOfMemory),
                    Err(AllocError::BadFree { addr }) => fault!(Fault::BadFree { addr }),
                }
            }
            Opcode::Free { rs } => {
                let addr = regs!(rs);
                match self.allocator.free(addr) {
                    Ok(_) => {
                        self.effects.free = Some(addr);
                        self.effects.cycles += cm.alloc;
                    }
                    Err(_) => fault!(Fault::BadFree { addr }),
                }
            }
            Opcode::Spawn { rd, target, arg } => {
                let new_tid = self.threads.len() as ThreadId;
                let mut t = ThreadState::new(new_tid, target);
                t.set_reg(Reg(4), regs!(arg));
                self.threads.push(t);
                self.effects.spawned = Some(new_tid);
                write_reg!(rd, new_tid);
                self.effects.cycles += cm.spawn;
            }
            Opcode::Join { rs } => {
                // Non-blocking case only (prepare() parked us otherwise).
                let _ = regs!(rs);
                self.effects.cycles += cm.alu;
            }
            Opcode::Atomic { op, rd, base, rs } => {
                let addr = regs!(base);
                match self.memory.read(addr) {
                    Ok(old) => {
                        let operand = regs!(rs);
                        let new = match op {
                            AtomicOp::FetchAdd => old.wrapping_add(operand),
                            AtomicOp::Swap => operand,
                        };
                        self.memory.write(addr, new).expect("read succeeded");
                        self.effects.mem_read = Some((addr, old));
                        self.effects.mem_write = Some((addr, old, new));
                        write_reg!(rd, old);
                        self.effects.cycles += cm.atomic;
                    }
                    Err(f) => fault!(f),
                }
            }
            Opcode::Cas { rd, base, expected, new } => {
                let addr = regs!(base);
                match self.memory.read(addr) {
                    Ok(old) => {
                        self.effects.mem_read = Some((addr, old));
                        if old == regs!(expected) {
                            let nv = regs!(new);
                            self.memory.write(addr, nv).expect("read succeeded");
                            self.effects.mem_write = Some((addr, old, nv));
                        }
                        write_reg!(rd, old);
                        self.effects.cycles += cm.atomic;
                    }
                    Err(f) => fault!(f),
                }
            }
            Opcode::Fence => {
                self.effects.cycles += cm.atomic;
                self.quantum_left = 1; // reschedule after
            }
            Opcode::Yield => {
                self.effects.cycles += cm.alu;
                self.quantum_left = 1;
            }
            Opcode::Assert { rs, msg } => {
                if regs!(rs) == 0 {
                    fault!(Fault::AssertFailed { msg });
                }
                self.effects.cycles += cm.alu;
            }
            Opcode::Halt => {
                self.threads[tid as usize].status = ThreadStatus::Exited;
                self.wake_joiners(tid);
                self.effects.cycles += cm.alu;
            }
            Opcode::Exit { rs } => {
                let code = regs!(rs);
                self.threads[tid as usize].status = ThreadStatus::Exited;
                self.wake_joiners(tid);
                self.status = ExitStatus::Exited(code);
                self.effects.cycles += cm.alu;
            }
        }
        if self.threads[tid as usize].status.is_runnable() {
            self.threads[tid as usize].pc = next_pc;
        }
    }

    // ---- checkpointing -----------------------------------------------------

    /// Snapshot the complete machine state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            memory: self.memory.snapshot(),
            threads: self.threads.clone(),
            cur: self.cur,
            quantum_left: self.quantum_left,
            steps: self.steps,
            cycles: self.cycles,
            inputs: self.inputs.iter().map(|(&ch, q)| (ch, q.iter().copied().collect())).collect(),
            outputs: self.outputs.iter().map(|(&ch, v)| (ch, v.clone())).collect(),
            next_arrival: self.next_arrival,
            live_allocs: self.allocator.live_blocks(),
        }
    }

    /// Restore a snapshot taken on a machine with the same program and
    /// config. The scheduler is *not* restored — install the desired
    /// policy via the config used to construct the machine.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.memory.restore(&cp.memory);
        self.threads = cp.threads.clone();
        self.cur = cp.cur;
        // Preserve mid-quantum scheduler position: a replay that resumes
        // from this snapshot must consume scheduling decisions at exactly
        // the same points as the recorded run did.
        self.quantum_left = cp.quantum_left;
        self.scheduled = cp.quantum_left > 0
            && self.threads.get(cp.cur as usize).map(|t| t.status.is_runnable()).unwrap_or(false);
        self.steps = cp.steps;
        self.cycles = cp.cycles;
        self.inputs = cp.inputs.iter().map(|(ch, v)| (*ch, v.iter().copied().collect())).collect();
        self.outputs = cp.outputs.iter().map(|(ch, v)| (*ch, v.clone())).collect();
        self.next_arrival = cp.next_arrival;
        self.status = ExitStatus::Running;
        self.first_fault = None;
        // Rebuild the allocator to match the snapshot's live set exactly.
        let (lo, hi) = self.allocator.bounds();
        let mut a = Allocator::new(lo, hi);
        for &(addr, size) in &cp.live_allocs {
            a.reserve(addr, size).expect("checkpointed blocks lie within the heap");
        }
        self.allocator = a;
    }
}

fn bin_cost(cm: &crate::config::CycleModel, op: BinOp) -> u64 {
    match op {
        BinOp::Mul => cm.mul,
        BinOp::Div | BinOp::Rem => cm.div,
        _ => cm.alu,
    }
}

fn eval_bin(op: BinOp, a: u64, b: u64) -> Result<u64, Fault> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(Fault::DivByZero);
            }
            a / b
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(Fault::DivByZero);
            }
            a % b
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        BinOp::Sar => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        BinOp::Eq => (a == b) as u64,
        BinOp::Ne => (a != b) as u64,
        BinOp::Lt => ((a as i64) < (b as i64)) as u64,
        BinOp::Le => ((a as i64) <= (b as i64)) as u64,
        BinOp::Ltu => (a < b) as u64,
        BinOp::Leu => (a <= b) as u64,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    })
}

/// Redefine `SchedPolicy` import for rustdoc link resolution.
#[allow(unused)]
fn _doc_anchor(_: SchedPolicy) {}

#[cfg(test)]
mod tests;
