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
//! * a register or memory use of a location not (yet) written in the
//!   epoch becomes a **pending dependence** naming the location,
//!   resolved at composition time against the global last-writer tables
//!   the composer folds forward epoch by epoch;
//! * dynamic control dependences are exact shard-side: the cheap
//!   label-independent pre-scan ([`control_entry_snapshots`]) clones
//!   the [`ControlStack`] at every epoch boundary, so each shard knows
//!   the branch regions its first instruction runs under, each with its
//!   branch's site.
//!
//! Every last-writer slot (shard-side and the composer's) holds the
//! def's whole [`StepSite`], so a record's def side comes from the slot
//! it was derived from; no step-keyed metadata is kept.
//!
//! The semantics mirror `OnTrac` with [`OnTracConfig::unoptimized`]
//! (every dependence recorded, no eviction): the differential test in
//! `dift-slicing` holds sharded slices bit-identical to the serial
//! tracer's. Run over one epoch from an empty control stack, the
//! deriver *is* the offline post-processing pass
//! ([`crate::offline::derive_full_deps`]).
//!
//! Composition ([`EpochDepComposer`]) replays fragments in epoch
//! order: it appends each fragment's records with one
//! [`SliceIndex::push_batch`], then its resolved pendings with another
//! — the serial tracer's append path (its `on_push` is a one-record
//! batch), so no index is ever built shard-side or spliced. A batch
//! checks copy-on-write once per run of records sharing a chunk rather
//! than twice per record, and the pendings resolve into a buffer the
//! composer keeps across epochs, so resolving them allocates nothing
//! per fragment. The shards do the derivation (last-writer lookups,
//! control stack); the composer only indexes.
//!
//! Register last-writers are per-thread register arrays (the
//! [`crate::ShadowState`] layout); the memory last-writer tables are
//! maps, because addresses are sparse.
//!
//! [`OnTracConfig::unoptimized`]: crate::OnTracConfig::unoptimized

use crate::buffer::BufRecord;
use crate::dep::{DepKind, StepSite};
use crate::index::SliceIndex;
use crate::shadow::ControlStack;
use dift_isa::{MemAddr, Program, Reg, NUM_REGS};
use dift_vm::{StepEffects, ThreadId};
use std::collections::HashMap;

/// The location a pending dependence reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PendingSource {
    Reg(ThreadId, Reg),
    Mem(MemAddr),
}

/// A dependence whose def side lies before the epoch.
#[derive(Clone, Copy, Debug)]
struct PendingDep {
    user: StepSite,
    kind: DepKind,
    src: PendingSource,
}

/// Register last-writers: per thread, per register, the writer's site
/// ([`StepSite::NONE`] = never written).
#[derive(Default)]
struct RegDefs(Vec<[StepSite; NUM_REGS]>);

impl RegDefs {
    fn get(&self, tid: ThreadId, r: Reg) -> Option<StepSite> {
        self.0.get(tid as usize)?[r.index()].get()
    }

    fn set(&mut self, tid: ThreadId, r: Reg, def: StepSite) {
        let t = tid as usize;
        if self.0.len() <= t {
            self.0.resize(t + 1, [StepSite::NONE; NUM_REGS]);
        }
        self.0[t][r.index()] = def;
    }

    /// Fold a later epoch's exit table forward: every register it wrote
    /// takes its last writer.
    fn fold(&mut self, later: &RegDefs) {
        if self.0.len() < later.0.len() {
            self.0.resize(later.0.len(), [StepSite::NONE; NUM_REGS]);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&later.0) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                if t.get().is_some() {
                    *m = *t;
                }
            }
        }
    }
}

/// One epoch's dependence delta: the ordered shard-side records, the
/// pending cross-epoch reads, and the epoch-exit last-writer tables the
/// composer folds forward.
pub struct EpochDeps {
    pub(crate) records: Vec<BufRecord>,
    pending: Vec<PendingDep>,
    reg_defs: RegDefs,
    mem_defs: HashMap<MemAddr, StepSite>,
    /// Shard-side records whose def precedes the epoch (control
    /// dependences on a branch region open at entry).
    cross_epoch: u64,
    instrs: u64,
}

impl EpochDeps {
    /// Steps summarized (the composer's integrity check).
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    fn defer(&mut self, kind: DepKind, user: StepSite, src: PendingSource) {
        self.pending.push(PendingDep { user, kind, src });
    }
}

/// Shard-side deriver for one epoch — the sharded mirror of the
/// unoptimized `OnTrac` derivation loop.
struct EpochDepSummarizer {
    frag: EpochDeps,
    control: ControlStack,
    epoch_start: u64,
    /// Shadow-memory capacity: writes at or beyond are ignored, exactly
    /// as [`crate::ShadowState`] ignores them.
    mem_words: u64,
}

impl EpochDepSummarizer {
    /// `control` is this epoch's entry snapshot from
    /// [`control_entry_snapshots`]; `epoch_start` the global step of
    /// the epoch's first instruction; `mem_words` the serial tracer's
    /// shadow capacity (semantics above).
    fn new(control: ControlStack, epoch_start: u64, mem_words: usize) -> EpochDepSummarizer {
        EpochDepSummarizer {
            frag: EpochDeps {
                records: Vec::new(),
                pending: Vec::new(),
                reg_defs: RegDefs::default(),
                mem_defs: HashMap::new(),
                cross_epoch: 0,
                instrs: 0,
            },
            control,
            epoch_start,
            mem_words: mem_words as u64,
        }
    }

    /// Derive one step (steps must arrive in stream order).
    fn step(&mut self, fx: &StepEffects) {
        let (tid, site) = (fx.tid, StepSite::of(fx));
        let frag = &mut self.frag;
        frag.instrs += 1;
        self.control.on_step(tid, fx.addr);

        // Register uses.
        for &r in fx.insn.reg_uses().as_slice() {
            match frag.reg_defs.get(tid, r) {
                Some(def) => frag.records.push(BufRecord::new(DepKind::RegData, site, def)),
                None => frag.defer(DepKind::RegData, site, PendingSource::Reg(tid, r)),
            }
        }
        // Memory read.
        if let Some((addr, _)) = fx.mem_read {
            match frag.mem_defs.get(&addr) {
                Some(&def) => frag.records.push(BufRecord::new(DepKind::MemData, site, def)),
                None if addr < self.mem_words => {
                    frag.defer(DepKind::MemData, site, PendingSource::Mem(addr))
                }
                None => {}
            }
        }
        // Control dependence: exact shard-side, since the entry snapshot
        // carries each open region's branch site.
        if let Some(branch) = self.control.current_dep(tid) {
            frag.records.push(BufRecord::new(DepKind::Control, site, branch));
            frag.cross_epoch += u64::from(branch.step < self.epoch_start);
        }

        // Last-writer updates.
        if let Some((r, _, _)) = fx.reg_write {
            frag.reg_defs.set(tid, r, site);
        }
        if let Some((addr, _, _)) = fx.mem_write {
            if addr < self.mem_words {
                frag.mem_defs.insert(addr, site);
            }
        }

        self.control.after_step(fx, site);
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
    for fx in fxs {
        s.step(fx);
    }
    s.frag
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
            cs.after_step(fx, StepSite::of(fx));
        }
    }
    out
}

/// Composition counters (reported by the lineage-shard bench).
#[derive(Clone, Copy, Debug, Default)]
pub struct DepComposeStats {
    pub fragments: usize,
    /// Records whose def precedes their epoch: resolved pendings plus
    /// the fragments' control records on branches open at entry.
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
    mem_defs: HashMap<MemAddr, StepSite>,
    /// The current fragment's resolved pendings, cleared per fragment.
    resolved: Vec<BufRecord>,
    stats: DepComposeStats,
}

impl EpochDepComposer {
    pub fn new() -> EpochDepComposer {
        EpochDepComposer::default()
    }

    /// Absorb the next epoch's fragment: append its records, then
    /// resolve its pendings against the pre-epoch global tables and
    /// append those, then fold the fragment's exit tables forward. A
    /// pending whose location was never written resolves to no
    /// dependence, exactly like the serial tracer's `None` shadow lookup.
    pub fn absorb(&mut self, frag: EpochDeps) {
        self.index.push_batch(&frag.records);
        self.resolved.clear();
        for p in &frag.pending {
            let def = match p.src {
                PendingSource::Reg(tid, r) => self.reg_defs.get(tid, r),
                PendingSource::Mem(addr) => self.mem_defs.get(&addr).copied(),
            };
            match def {
                Some(def) => self.resolved.push(BufRecord::new(p.kind, p.user, def)),
                None => self.stats.unresolved_pendings += 1,
            }
        }
        self.index.push_batch(&self.resolved);
        self.stats.cross_epoch_records += frag.cross_epoch + self.resolved.len() as u64;
        self.stats.fragments += 1;
        self.reg_defs.fold(&frag.reg_defs);
        self.mem_defs.extend(frag.mem_defs);
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
    use dift_dbi::Engine;
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
        let (fxs, r) = dift_dbi::capture(Machine::new(program.clone(), MachineConfig::small()));
        assert!(r.status.is_clean(), "{:?}", r.status);
        fxs
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
