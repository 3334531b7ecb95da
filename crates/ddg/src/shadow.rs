//! Tracer shadow state: last-writer sites, input-taint bits, and the
//! online dynamic control-dependence stack.
//!
//! Every slot that names a def holds the def's whole [`StepSite`]
//! (step, address, statement), written at the def's own step, so the
//! records derived from a slot carry their def side without a
//! step-keyed side table.

use crate::dep::StepSite;
use dift_isa::{
    control_dependence, Addr, Cfg, DomTree, MemAddr, Program, Reg, NUM_REGS, SHADOW_PAGE_WORDS,
};
use dift_vm::{ControlEffect, StepEffects, ThreadId};
use std::sync::Arc;

/// Sentinel end-address meaning "region closes when the frame pops".
pub const FRAME_END: Addr = Addr::MAX;

/// Last-writer shadow for registers and memory, plus input-taint bits.
///
/// Slots hold the last writer's [`StepSite`] (`StepSite::NONE` =
/// never written) in dense arrays. The memory-side tables grow
/// lazily in [`SHADOW_PAGE_WORDS`] multiples on first write — the same
/// paging granularity as the taint engine's shadow map — so a tracer
/// over a large but sparsely-touched address space only pays for the
/// prefix of pages it actually writes.
pub struct ShadowState {
    reg_def: Vec<[StepSite; NUM_REGS]>,
    mem_def: Vec<StepSite>,
    reg_taint: Vec<[bool; NUM_REGS]>,
    mem_taint: Vec<u64>, // bitset: one bit per word
    /// Step of the most recent load of each address since its last store
    /// (`step + 1`, 0 = none) — the redundant-load detection table.
    load_seen: Vec<u64>,
    /// Hard capacity: writes at or beyond this address are ignored, as
    /// the pre-sized tables did before lazy growth.
    mem_words: usize,
}

impl ShadowState {
    pub fn new(mem_words: usize) -> ShadowState {
        ShadowState {
            reg_def: Vec::new(),
            mem_def: Vec::new(),
            reg_taint: Vec::new(),
            mem_taint: Vec::new(),
            load_seen: Vec::new(),
            mem_words,
        }
    }

    /// Grow the memory tables to cover `addr` (rounded up to a page
    /// multiple, clamped to capacity). Returns the index when `addr` is
    /// within capacity, `None` otherwise.
    fn ensure_addr(&mut self, addr: MemAddr) -> Option<usize> {
        if addr >= self.mem_words as u64 {
            return None;
        }
        let i = addr as usize;
        if i >= self.mem_def.len() {
            let want = ((i / SHADOW_PAGE_WORDS + 1) * SHADOW_PAGE_WORDS).min(self.mem_words);
            self.mem_def.resize(want, StepSite::NONE);
            self.load_seen.resize(want, 0);
            self.mem_taint.resize(want.div_ceil(64), 0);
        }
        Some(i)
    }

    /// Words of shadow currently backed by allocated tables (a page
    /// multiple, or the capacity if smaller).
    pub fn allocated_words(&self) -> usize {
        self.mem_def.len()
    }

    fn ensure_tid(&mut self, tid: ThreadId) {
        let need = tid as usize + 1;
        while self.reg_def.len() < need {
            self.reg_def.push([StepSite::NONE; NUM_REGS]);
            self.reg_taint.push([false; NUM_REGS]);
        }
    }

    /// Last writer of a register, if any.
    #[inline]
    pub fn reg_def(&mut self, tid: ThreadId, r: Reg) -> Option<StepSite> {
        self.ensure_tid(tid);
        self.reg_def[tid as usize][r.index()].get()
    }

    #[inline]
    pub fn set_reg_def(&mut self, tid: ThreadId, r: Reg, def: StepSite) {
        self.ensure_tid(tid);
        self.reg_def[tid as usize][r.index()] = def;
    }

    /// Last writer of a memory word, if any.
    #[inline]
    pub fn mem_def(&self, addr: MemAddr) -> Option<StepSite> {
        self.mem_def.get(addr as usize)?.get()
    }

    #[inline]
    pub fn set_mem_def(&mut self, addr: MemAddr, def: StepSite) {
        if let Some(i) = self.ensure_addr(addr) {
            self.mem_def[i] = def;
            // A store invalidates the redundant-load record.
            self.load_seen[i] = 0;
        }
    }

    /// Redundant-load probe: returns `true` when `addr` was already
    /// loaded since its last store (this load adds no new dependence
    /// information), and records this load otherwise.
    pub fn probe_redundant_load(&mut self, addr: MemAddr, step: u64) -> bool {
        match self.ensure_addr(addr) {
            Some(i) if self.load_seen[i] != 0 => true,
            Some(i) => {
                self.load_seen[i] = step + 1;
                false
            }
            None => false,
        }
    }

    // -- input taint (forward slice of inputs) ---------------------------

    #[inline]
    pub fn reg_tainted(&mut self, tid: ThreadId, r: Reg) -> bool {
        self.ensure_tid(tid);
        self.reg_taint[tid as usize][r.index()]
    }

    #[inline]
    pub fn set_reg_taint(&mut self, tid: ThreadId, r: Reg, tainted: bool) {
        self.ensure_tid(tid);
        self.reg_taint[tid as usize][r.index()] = tainted;
    }

    #[inline]
    pub fn mem_tainted(&self, addr: MemAddr) -> bool {
        let i = addr as usize;
        self.mem_taint.get(i / 64).map(|w| w & (1 << (i % 64)) != 0).unwrap_or(false)
    }

    #[inline]
    pub fn set_mem_taint(&mut self, addr: MemAddr, tainted: bool) {
        if !tainted {
            // Clearing a bit in an unallocated page is a no-op; don't
            // materialize pages for it.
            let i = addr as usize;
            if let Some(w) = self.mem_taint.get_mut(i / 64) {
                *w &= !(1 << (i % 64));
            }
            return;
        }
        if let Some(i) = self.ensure_addr(addr) {
            self.mem_taint[i / 64] |= 1 << (i % 64);
        }
    }
}

/// Static branch-region table + per-thread dynamic region stacks: the
/// online dynamic control-dependence algorithm (Xin & Zhang, ISSTA'07).
///
/// For every conditional branch we precompute the address where its
/// control region ends (the entry of its immediate post-dominator block;
/// [`FRAME_END`] when the region extends to function exit). At runtime
/// each thread keeps a stack of open regions per call frame:
///
/// * executing a branch pushes (or, for the same branch, replaces) a
///   region entry;
/// * reaching a region's end address pops it;
/// * calls push a fresh frame, returns pop it.
///
/// The dynamic control dependence of the current instruction is the
/// region on top of the current frame's stack; each open region holds
/// its branch instance's [`StepSite`].
///
/// `Clone` is deliberate: the epoch-sharded deriver
/// ([`crate::epoch`]) snapshots the stack at each epoch boundary
/// during the cheap sequential pre-scan, giving every shard the exact
/// control context its first instruction runs under, branch sites
/// included. Clones share the static region table and copy only the
/// dynamic stacks.
#[derive(Clone)]
pub struct ControlStack {
    /// Region end address by program address (`None` for addresses that
    /// are not conditional branches).
    region_end: Arc<[Option<Addr>]>,
    /// Per-thread stacks of frames; each frame is a stack of
    /// `(branch site, end_addr)`.
    frames: Vec<Vec<Vec<(StepSite, Addr)>>>,
}

impl ControlStack {
    pub fn new(program: &Program) -> ControlStack {
        let mut region_end = vec![None; program.len()];
        for cfg in Cfg::build_all(program) {
            let n = cfg.blocks.len() as u32;
            let pdom = DomTree::postdominators(&cfg);
            // Sanity: control_dependence is derived from the same tree; we
            // only need ipdom here but keep the call to validate in debug.
            debug_assert_eq!(control_dependence(&cfg).len(), cfg.blocks.len());
            for (b, blk) in cfg.blocks.iter().enumerate() {
                if blk.succs.len() < 2 {
                    continue;
                }
                let branch_addr = blk.terminator();
                let ip = pdom.idom[b];
                let end = if ip == dift_isa::dom::NO_DOM || ip >= n {
                    FRAME_END
                } else {
                    cfg.blocks[ip as usize].start
                };
                let i = branch_addr as usize;
                if region_end.len() <= i {
                    region_end.resize(i + 1, None);
                }
                region_end[i] = Some(end);
            }
        }
        ControlStack { region_end: region_end.into(), frames: Vec::new() }
    }

    fn frame(&mut self, tid: ThreadId) -> &mut Vec<(StepSite, Addr)> {
        let t = tid as usize;
        while self.frames.len() <= t {
            self.frames.push(vec![Vec::new()]);
        }
        if self.frames[t].is_empty() {
            self.frames[t].push(Vec::new());
        }
        self.frames[t].last_mut().expect("frame ensured above")
    }

    /// Must be called for every instruction *before* querying
    /// [`ControlStack::current_dep`]: closes regions ending at `addr`.
    pub fn on_step(&mut self, tid: ThreadId, addr: Addr) {
        let frame = self.frame(tid);
        while frame.last().map(|&(_, end)| end == addr).unwrap_or(false) {
            frame.pop();
        }
    }

    /// The branch instance the current instruction is control dependent
    /// on, if any.
    pub fn current_dep(&mut self, tid: ThreadId) -> Option<StepSite> {
        self.frame(tid).last().map(|&(s, _)| s)
    }

    /// Apply the control effect of the step `fx` once it has retired:
    /// a branch opens (or renews) its region at `site`, the step's own
    /// [`StepSite`]; a call pushes a frame; a return pops one.
    pub(crate) fn after_step(&mut self, fx: &StepEffects, site: StepSite) {
        match fx.control {
            Some(ControlEffect::Branch { .. }) => self.on_branch(fx.tid, site),
            Some(ControlEffect::Call { .. }) => self.on_call(fx.tid),
            Some(ControlEffect::Ret { .. }) => self.on_ret(fx.tid),
            _ => {}
        }
    }

    /// Record the execution of the conditional branch instance `branch`.
    fn on_branch(&mut self, tid: ThreadId, branch: StepSite) {
        let Some(end) = self.region_end.get(branch.addr as usize).copied().flatten() else {
            return;
        };
        let frame = self.frame(tid);
        // Re-execution of the branch whose region is already open (a loop
        // back-edge) replaces the top entry instead of growing the stack.
        if let Some(top) = frame.last_mut() {
            if top.1 == end {
                *top = (branch, end);
                return;
            }
        }
        frame.push((branch, end));
    }

    /// A call pushes a fresh region frame.
    fn on_call(&mut self, tid: ThreadId) {
        let t = tid as usize;
        while self.frames.len() <= t {
            self.frames.push(vec![Vec::new()]);
        }
        self.frames[t].push(Vec::new());
    }

    /// A return pops the callee's frame (regions extending to function
    /// exit close here).
    fn on_ret(&mut self, tid: ThreadId) {
        let t = tid as usize;
        if let Some(stack) = self.frames.get_mut(t) {
            if stack.len() > 1 {
                stack.pop();
            } else if let Some(f) = stack.last_mut() {
                f.clear();
            }
        }
    }

    /// Number of precomputed branch regions (for tests).
    pub fn region_count(&self) -> usize {
        self.region_end.iter().filter(|e| e.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dift_isa::{BinOp, BranchCond, ProgramBuilder};

    /// The site of step `step` at instruction `addr` (statement `addr + 100`).
    fn at(step: u64, addr: Addr) -> StepSite {
        StepSite { step, addr, stmt: addr + 100 }
    }

    #[test]
    fn shadow_reg_defs_round_trip() {
        let mut s = ShadowState::new(64);
        assert_eq!(s.reg_def(0, Reg(1)), None);
        s.set_reg_def(0, Reg(1), at(7, 3));
        assert_eq!(s.reg_def(0, Reg(1)), Some(at(7, 3)));
        // Step 0 at address 0 is distinguishable from "never".
        s.set_reg_def(1, Reg(2), at(0, 0));
        assert_eq!(s.reg_def(1, Reg(2)), Some(at(0, 0)));
    }

    #[test]
    fn shadow_mem_defs_and_redundant_loads() {
        let mut s = ShadowState::new(64);
        assert_eq!(s.mem_def(10), None);
        s.set_mem_def(10, at(5, 2));
        assert_eq!(s.mem_def(10), Some(at(5, 2)));
        assert!(!s.probe_redundant_load(10, 6), "first load is not redundant");
        assert!(s.probe_redundant_load(10, 7), "second load is redundant");
        s.set_mem_def(10, at(8, 4)); // store invalidates
        assert!(!s.probe_redundant_load(10, 9));
    }

    #[test]
    fn memory_tables_grow_lazily_in_page_multiples() {
        let mut s = ShadowState::new(SHADOW_PAGE_WORDS * 4);
        assert_eq!(s.allocated_words(), 0, "no writes, no tables");
        // Reads against unallocated pages are well-defined.
        assert_eq!(s.mem_def(SHADOW_PAGE_WORDS as u64 * 3), None);
        assert!(!s.mem_tainted(17));
        s.set_mem_def(10, at(5, 1));
        assert_eq!(s.allocated_words(), SHADOW_PAGE_WORDS);
        assert_eq!(s.mem_def(10), Some(at(5, 1)));
        // A write two pages up grows the prefix to cover it.
        s.set_mem_taint(SHADOW_PAGE_WORDS as u64 * 2 + 1, true);
        assert_eq!(s.allocated_words(), SHADOW_PAGE_WORDS * 3);
        assert!(s.mem_tainted(SHADOW_PAGE_WORDS as u64 * 2 + 1));
        // Out-of-capacity writes are ignored, exactly as pre-sized
        // tables ignored them.
        s.set_mem_def(SHADOW_PAGE_WORDS as u64 * 9, at(1, 1));
        assert_eq!(s.mem_def(SHADOW_PAGE_WORDS as u64 * 9), None);
        assert_eq!(s.allocated_words(), SHADOW_PAGE_WORDS * 3);
    }

    #[test]
    fn taint_bits() {
        let mut s = ShadowState::new(128);
        assert!(!s.reg_tainted(0, Reg(3)));
        s.set_reg_taint(0, Reg(3), true);
        assert!(s.reg_tainted(0, Reg(3)));
        assert!(!s.mem_tainted(100));
        s.set_mem_taint(100, true);
        assert!(s.mem_tainted(100));
        s.set_mem_taint(100, false);
        assert!(!s.mem_tainted(100));
    }

    fn diamond_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 0); // 0
        b.branch(BranchCond::Eq, Reg(1), Reg(0), "else"); // 1
        b.li(Reg(2), 1); // 2
        b.jump("join"); // 3
        b.label("else");
        b.li(Reg(2), 2); // 4
        b.label("join");
        b.halt(); // 5
        b.build().unwrap()
    }

    #[test]
    fn control_region_of_diamond_branch() {
        let p = diamond_program();
        let mut cs = ControlStack::new(&p);
        assert_eq!(cs.region_count(), 1);
        // Execute: 0, branch at 1 (step 1), then else arm at 4, join at 5.
        cs.on_step(0, 0);
        assert_eq!(cs.current_dep(0), None);
        cs.on_step(0, 1);
        cs.on_branch(0, at(1, 1));
        cs.on_step(0, 4);
        assert_eq!(cs.current_dep(0), Some(at(1, 1)), "arm is control dependent on branch");
        cs.on_step(0, 5); // join: region closes
        assert_eq!(cs.current_dep(0), None);
    }

    #[test]
    fn loop_branch_region_is_replaced_not_stacked() {
        // loop: body at 1-2, branch at 2 back to 1; exit at 3.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 3); // 0
        b.label("loop");
        b.bini(BinOp::Sub, Reg(1), Reg(1), 1); // 1
        b.branch(BranchCond::Ne, Reg(1), Reg(0), "loop"); // 2
        b.halt(); // 3
        let p = b.build().unwrap();
        let mut cs = ControlStack::new(&p);
        cs.on_step(0, 0);
        let mut step = 0u64;
        for _ in 0..3 {
            cs.on_step(0, 1);
            step += 1;
            cs.on_step(0, 2);
            step += 1;
            cs.on_branch(0, at(step, 2));
            // After each branch, the body is control dependent on the
            // latest branch instance only.
            assert_eq!(cs.current_dep(0), Some(at(step, 2)));
        }
        cs.on_step(0, 3); // loop exit: region closes
        assert_eq!(cs.current_dep(0), None);
    }

    #[test]
    fn call_frames_isolate_regions() {
        let p = diamond_program();
        let mut cs = ControlStack::new(&p);
        cs.on_step(0, 1);
        cs.on_branch(0, at(1, 1));
        assert_eq!(cs.current_dep(0), Some(at(1, 1)));
        cs.on_call(0);
        // Inside the callee, the caller's open region is not visible.
        assert_eq!(cs.current_dep(0), None);
        cs.on_ret(0);
        assert_eq!(cs.current_dep(0), Some(at(1, 1)));
    }

    #[test]
    fn threads_have_independent_stacks() {
        let p = diamond_program();
        let mut cs = ControlStack::new(&p);
        cs.on_branch(0, at(10, 1));
        assert_eq!(cs.current_dep(0), Some(at(10, 1)));
        assert_eq!(cs.current_dep(1), None);
    }
}
