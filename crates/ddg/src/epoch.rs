//! Epoch-sharded dependence derivation and its composition into one
//! [`SliceIndex`].
//!
//! The serial [`OnTrac`](crate::OnTrac) deriver needs the last-writer
//! shadow state of the whole stream prefix. To ride the epoch-parallel
//! pipeline (DESIGN §9, §17) each helper shard instead derives its
//! epoch's dependences with **local** last-writer tables that start
//! empty:
//!
//! * a use whose def lies in the same epoch resolves shard-side and is
//!   appended to the epoch's ordered list of records;
//! * a use of a location not (yet) written in the epoch becomes a
//!   **pending dependence** naming the location, resolved at
//!   composition time against the global last-writer tables the
//!   composer folds forward epoch by epoch;
//! * dynamic control dependences are exact shard-side: the cheap
//!   label-independent pre-scan ([`control_entry_snapshots`]) clones
//!   the [`ControlStack`] at every epoch boundary, so each shard knows
//!   the branch regions its first instruction runs under (a dependence
//!   on a pre-epoch branch still goes through the pending path, since
//!   only the composer knows that branch's def-side metadata).
//!
//! The semantics mirror `OnTrac` with [`OnTracConfig::unoptimized`]
//! (every dependence recorded, no eviction): the differential test in
//! `dift-slicing` holds sharded slices bit-identical to the serial
//! tracer's.
//!
//! Composition ([`EpochDepComposer`]) replays fragments in epoch
//! order: it pushes each fragment's records, then its resolved
//! pendings, through [`SliceIndex::on_push`] — the same O(1) path the
//! serial tracer takes, so no index is ever built shard-side or
//! spliced. The shards do the derivation (last-writer lookups, control
//! stack); the composer only indexes.
//!
//! The step-keyed tables are vectors: a fragment's def-side metadata is
//! indexed by `step - epoch_start`, the composer's run-long metadata by
//! step, and register last-writers are per-thread register arrays (the
//! [`crate::ShadowState`] layout). Only the memory last-writer tables
//! are maps, because addresses are sparse.
//!
//! [`OnTracConfig::unoptimized`]: crate::OnTracConfig::unoptimized

use crate::buffer::BufRecord;
use crate::dep::{DepKind, Dependence};
use crate::index::SliceIndex;
use crate::shadow::ControlStack;
use dift_isa::{Addr, MemAddr, Program, Reg, StmtId, NUM_REGS};
use dift_vm::{ControlEffect, StepEffects, ThreadId};
use std::collections::HashMap;

/// Def-side metadata of a step that defined nothing — also what the
/// serial tracer records for a def it holds no metadata for.
const NO_META: (Addr, StmtId) = (0, 0);

/// The location (or pre-epoch branch) a pending dependence reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingSource {
    Reg(ThreadId, Reg),
    Mem(MemAddr),
    /// Control dependence on a branch executed before the epoch; the
    /// def step is already known, only its metadata is not.
    Branch(u64),
}

/// A dependence whose def side lies before the epoch.
#[derive(Clone, Copy, Debug)]
pub struct PendingDep {
    pub user: u64,
    pub user_addr: Addr,
    pub user_stmt: StmtId,
    pub kind: DepKind,
    pub src: PendingSource,
}

/// Register last-writers: per thread, per register, `step + 1` (0 =
/// never written).
#[derive(Default)]
struct RegDefs(Vec<[u64; NUM_REGS]>);

impl RegDefs {
    fn get(&self, tid: ThreadId, r: Reg) -> Option<u64> {
        self.0.get(tid as usize)?[r.index()].checked_sub(1)
    }

    fn set(&mut self, tid: ThreadId, r: Reg, step: u64) {
        let t = tid as usize;
        if self.0.len() <= t {
            self.0.resize(t + 1, [0; NUM_REGS]);
        }
        self.0[t][r.index()] = step + 1;
    }

    /// Fold a later epoch's exit table forward: every register it wrote
    /// takes its last writer.
    fn fold(&mut self, later: &RegDefs) {
        if self.0.len() < later.0.len() {
            self.0.resize(later.0.len(), [0; NUM_REGS]);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&later.0) {
            for (m, &t) in mine.iter_mut().zip(theirs) {
                if t != 0 {
                    *m = t;
                }
            }
        }
    }
}

/// One epoch's dependence delta: the ordered in-epoch records, the
/// pending cross-epoch reads, and the epoch-exit last-writer tables
/// and def metadata the composer folds forward.
pub struct EpochDeps {
    records: Vec<BufRecord>,
    pending: Vec<PendingDep>,
    reg_defs: RegDefs,
    mem_defs: HashMap<MemAddr, u64>,
    /// Def-side metadata by `step - epoch_start` ([`NO_META`] for
    /// steps that defined nothing).
    def_meta: Vec<(Addr, StmtId)>,
    epoch_start: u64,
    instrs: u64,
}

impl EpochDeps {
    /// Steps summarized (the composer's integrity check).
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// In-epoch records derived shard-side.
    pub fn edges(&self) -> u64 {
        self.records.len() as u64
    }
}

/// Shard-side deriver for one epoch — the sharded mirror of the
/// unoptimized `OnTrac` derivation loop.
pub struct EpochDepSummarizer {
    frag: EpochDeps,
    control: ControlStack,
    /// Shadow-memory capacity: writes at or beyond are ignored, exactly
    /// as [`crate::ShadowState`] ignores them.
    mem_words: u64,
}

impl EpochDepSummarizer {
    /// `control` is this epoch's entry snapshot from
    /// [`control_entry_snapshots`]; `epoch_start` the global step of
    /// the epoch's first instruction; `mem_words` the serial tracer's
    /// shadow capacity (semantics above).
    pub fn new(control: ControlStack, epoch_start: u64, mem_words: usize) -> EpochDepSummarizer {
        EpochDepSummarizer {
            frag: EpochDeps {
                records: Vec::new(),
                pending: Vec::new(),
                reg_defs: RegDefs::default(),
                mem_defs: HashMap::new(),
                def_meta: Vec::new(),
                epoch_start,
                instrs: 0,
            },
            control,
            mem_words: mem_words as u64,
        }
    }

    fn record(&mut self, kind: DepKind, user: u64, def: u64, fx: &StepEffects) {
        let frag = &mut self.frag;
        let (def_addr, def_stmt) = def
            .checked_sub(frag.epoch_start)
            .and_then(|i| frag.def_meta.get(i as usize))
            .copied()
            .unwrap_or(NO_META);
        frag.records.push(BufRecord {
            dep: Dependence::new(user, def, kind),
            user_addr: fx.addr,
            def_addr,
            user_stmt: fx.insn.stmt,
            def_stmt,
        });
    }

    fn defer(&mut self, kind: DepKind, fx: &StepEffects, src: PendingSource) {
        self.frag.pending.push(PendingDep {
            user: fx.step,
            user_addr: fx.addr,
            user_stmt: fx.insn.stmt,
            kind,
            src,
        });
    }

    /// Derive one step (steps must arrive in stream order).
    pub fn step(&mut self, fx: &StepEffects) {
        let tid = fx.tid;
        let step = fx.step;
        let epoch_start = self.frag.epoch_start;
        self.frag.instrs += 1;

        self.control.on_step(tid, fx.addr);
        if fx.reg_write.is_some() || fx.mem_write.is_some() || fx.insn.is_branch() {
            let i = (step - epoch_start) as usize;
            let meta = &mut self.frag.def_meta;
            if meta.len() <= i {
                meta.resize(i + 1, NO_META);
            }
            meta[i] = (fx.addr, fx.insn.stmt);
        }

        // Register uses.
        for &r in fx.insn.reg_uses().as_slice() {
            match self.frag.reg_defs.get(tid, r) {
                Some(def) => self.record(DepKind::RegData, step, def, fx),
                None => self.defer(DepKind::RegData, fx, PendingSource::Reg(tid, r)),
            }
        }
        // Memory read.
        if let Some((addr, _)) = fx.mem_read {
            match self.frag.mem_defs.get(&addr) {
                Some(&def) => self.record(DepKind::MemData, step, def, fx),
                None if addr < self.mem_words => {
                    self.defer(DepKind::MemData, fx, PendingSource::Mem(addr))
                }
                None => {}
            }
        }
        // Control dependence: exact shard-side thanks to the entry
        // snapshot; only pre-epoch def metadata defers.
        if let Some(branch) = self.control.current_dep(tid) {
            if branch >= epoch_start {
                self.record(DepKind::Control, step, branch, fx);
            } else {
                self.defer(DepKind::Control, fx, PendingSource::Branch(branch));
            }
        }

        // Last-writer updates.
        if let Some((r, _, _)) = fx.reg_write {
            self.frag.reg_defs.set(tid, r, step);
        }
        if let Some((addr, _, _)) = fx.mem_write {
            if addr < self.mem_words {
                self.frag.mem_defs.insert(addr, step);
            }
        }

        // Control-stack maintenance.
        match fx.control {
            Some(ControlEffect::Branch { .. }) => self.control.on_branch(tid, fx.addr, step),
            Some(ControlEffect::Call { .. }) => self.control.on_call(tid),
            Some(ControlEffect::Ret { .. }) => self.control.on_ret(tid),
            _ => {}
        }
    }

    pub fn finish(self) -> EpochDeps {
        self.frag
    }
}

/// Derive one epoch's dependences.
pub fn summarize_dep_epoch(
    fxs: &[StepEffects],
    control: ControlStack,
    epoch_start: u64,
    mem_words: usize,
) -> EpochDeps {
    let mut s = EpochDepSummarizer::new(control, epoch_start, mem_words);
    s.frag.def_meta.reserve(fxs.len());
    for fx in fxs {
        s.step(fx);
    }
    s.finish()
}

/// The label-independent control pre-scan: clone the [`ControlStack`]
/// at every epoch boundary so each shard starts from the exact control
/// context of its first instruction. O(stream) stack operations, no
/// shadow state — the same cheap-sequential-pass category as the taint
/// pipeline's `IoBase` scan. The clones share the branch-region table.
pub fn control_entry_snapshots(program: &Program, chunks: &[&[StepEffects]]) -> Vec<ControlStack> {
    let mut cs = ControlStack::new(program);
    let mut out = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        out.push(cs.clone());
        for fx in *chunk {
            cs.on_step(fx.tid, fx.addr);
            match fx.control {
                Some(ControlEffect::Branch { .. }) => cs.on_branch(fx.tid, fx.addr, fx.step),
                Some(ControlEffect::Call { .. }) => cs.on_call(fx.tid),
                Some(ControlEffect::Ret { .. }) => cs.on_ret(fx.tid),
                _ => {}
            }
        }
    }
    out
}

/// Composition counters (reported by the lineage-shard bench).
#[derive(Clone, Copy, Debug, Default)]
pub struct DepComposeStats {
    pub fragments: usize,
    /// Pending dependences resolved to a pre-epoch def and recorded.
    pub cross_epoch_records: u64,
    /// Pending dependences whose location had never been written (no
    /// dependence exists — the serial tracer records nothing either).
    pub unresolved_pendings: u64,
}

/// Folds epoch fragments, in stream order, into one whole-run
/// [`SliceIndex`] plus the global last-writer tables that resolve
/// pending dependences.
#[derive(Default)]
pub struct EpochDepComposer {
    index: SliceIndex,
    reg_defs: RegDefs,
    mem_defs: HashMap<MemAddr, u64>,
    /// Def-side metadata of every absorbed step, indexed by step.
    step_meta: Vec<(Addr, StmtId)>,
    stats: DepComposeStats,
}

impl EpochDepComposer {
    pub fn new() -> EpochDepComposer {
        EpochDepComposer::default()
    }

    /// Absorb the next epoch's fragment: push its records, then resolve
    /// its pendings against the pre-epoch global tables and push those,
    /// then fold the fragment's exit tables forward. A pending whose
    /// location was never written resolves to no dependence, exactly
    /// like the serial tracer's `None` shadow lookup.
    pub fn absorb(&mut self, frag: EpochDeps) {
        for rec in &frag.records {
            self.index.on_push(rec);
        }
        for p in &frag.pending {
            let def = match p.src {
                PendingSource::Reg(tid, r) => self.reg_defs.get(tid, r),
                PendingSource::Mem(addr) => self.mem_defs.get(&addr).copied(),
                PendingSource::Branch(step) => Some(step),
            };
            let Some(def) = def else {
                self.stats.unresolved_pendings += 1;
                continue;
            };
            let (def_addr, def_stmt) = self.step_meta.get(def as usize).copied().unwrap_or(NO_META);
            self.index.on_push(&BufRecord {
                dep: Dependence::new(p.user, def, p.kind),
                user_addr: p.user_addr,
                def_addr,
                user_stmt: p.user_stmt,
                def_stmt,
            });
            self.stats.cross_epoch_records += 1;
        }
        self.stats.fragments += 1;
        self.reg_defs.fold(&frag.reg_defs);
        self.mem_defs.extend(frag.mem_defs);
        let start = frag.epoch_start as usize;
        let end = start + frag.def_meta.len();
        if self.step_meta.len() < end {
            self.step_meta.resize(end, NO_META);
        }
        self.step_meta[start..end].copy_from_slice(&frag.def_meta);
    }

    pub fn stats(&self) -> DepComposeStats {
        self.stats
    }

    /// The merged whole-run index (queryable via
    /// `dift-slicing`'s `SliceService`).
    pub fn into_index(self) -> SliceIndex {
        self.index
    }

    pub fn index(&self) -> &SliceIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DdgGraph;
    use crate::ontrac::{OnTrac, OnTracConfig};
    use dift_dbi::{Engine, Tool};
    use dift_isa::{BinOp, BranchCond, ProgramBuilder};
    use dift_vm::{Machine, MachineConfig};
    use std::sync::Arc;

    /// A looped program with loads/stores and cross-block flow.
    fn looped_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 6);
        b.li(Reg(2), 0);
        b.li(Reg(3), 10);
        b.label("loop");
        b.store(Reg(2), Reg(3), 0);
        b.load(Reg(4), Reg(3), 0);
        b.bin(BinOp::Add, Reg(2), Reg(2), Reg(4));
        b.bini(BinOp::Add, Reg(3), Reg(3), 1);
        b.bini(BinOp::Sub, Reg(1), Reg(1), 1);
        b.branch(BranchCond::Ne, Reg(1), Reg(0), "loop");
        b.halt();
        Arc::new(b.build().unwrap())
    }

    /// Capture the step stream of a program run.
    fn capture(program: &Arc<Program>) -> Vec<StepEffects> {
        struct Cap(Vec<StepEffects>);
        impl Tool for Cap {
            fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
                self.0.push(fx.clone());
            }
        }
        let m = Machine::new(program.clone(), MachineConfig::small());
        let mut cap = Cap(Vec::new());
        let r = Engine::new(m).run_tool(&mut cap);
        assert!(r.status.is_clean(), "{:?}", r.status);
        cap.0
    }

    fn sorted_edges(idx: &SliceIndex) -> Vec<(u64, u64, DepKind)> {
        let mut v: Vec<(u64, u64, DepKind)> = idx
            .steps()
            .flat_map(|s| idx.defs(s).map(move |(d, k)| (s, d, k)).collect::<Vec<_>>())
            .collect();
        v.sort_unstable_by_key(|e| (e.0, e.1, e.2 as u8));
        v.dedup();
        v
    }

    #[test]
    fn sharded_fragments_match_serial_unoptimized_index() {
        let program = looped_program();
        let mem_words = MachineConfig::small().mem_words;
        let stream = capture(&program);
        assert!(stream.len() > 20);

        // Serial reference: OnTrac unoptimized with a never-evicting
        // buffer; its slice index is the ground truth.
        let mut serial = OnTrac::new(&program, mem_words, OnTracConfig::unoptimized(1 << 24));
        let m = Machine::new(program.clone(), MachineConfig::small());
        let r = Engine::new(m).run_tool(&mut serial);
        assert!(r.status.is_clean());
        let want = serial.slice_index().expect("index on");

        for epoch_len in [3usize, 7, 16, 1024] {
            let chunks: Vec<&[StepEffects]> = stream.chunks(epoch_len).collect();
            let snaps = control_entry_snapshots(&program, &chunks);
            let mut comp = EpochDepComposer::new();
            for (chunk, snap) in chunks.iter().zip(snaps) {
                let frag = summarize_dep_epoch(chunk, snap, chunk[0].step, mem_words);
                comp.absorb(frag);
            }
            let got = comp.into_index();
            assert_eq!(sorted_edges(&got), sorted_edges(want), "epoch_len {epoch_len}");
            assert_eq!(got.edges(), want.edges(), "edge multiset, epoch_len {epoch_len}");
            for step in want.steps() {
                assert_eq!(got.meta_of(step), want.meta_of(step), "meta({step})");
            }
        }
    }

    #[test]
    fn merged_index_matches_whole_run_graph_rebuild() {
        let program = looped_program();
        let mem_words = MachineConfig::small().mem_words;
        let stream = capture(&program);
        let mut serial = OnTrac::new(&program, mem_words, OnTracConfig::unoptimized(1 << 24));
        let m = Machine::new(program.clone(), MachineConfig::small());
        Engine::new(m).run_tool(&mut serial);
        let g = DdgGraph::from_records(serial.buffer().records(), &program);

        let chunks: Vec<&[StepEffects]> = stream.chunks(8).collect();
        let snaps = control_entry_snapshots(&program, &chunks);
        let mut comp = EpochDepComposer::new();
        for (chunk, snap) in chunks.iter().zip(snaps) {
            comp.absorb(summarize_dep_epoch(chunk, snap, chunk[0].step, mem_words));
        }
        let idx = comp.into_index();
        for step in g.steps() {
            let mut want: Vec<(u64, DepKind)> =
                g.defs_of(step).iter().map(|d| (d.def, d.kind)).collect();
            want.sort_unstable_by_key(|e| (e.0, e.1 as u8));
            want.dedup();
            let mut got: Vec<(u64, DepKind)> = idx.defs(step).collect();
            got.sort_unstable_by_key(|e| (e.0, e.1 as u8));
            got.dedup();
            assert_eq!(got, want, "defs_of({step})");
        }
    }
}
