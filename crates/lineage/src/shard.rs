//! Symbolic per-epoch lineage summaries and their hash-cons merge.
//!
//! This is lineage's ride onto the epoch-parallel pipeline (DESIGN §9,
//! §17). Each helper shard summarizes one epoch of the step stream in
//! a **private roBDD arena**, with no access to the shadow state the
//! prefix of the stream produced. The trick that keeps the summary
//! exact is that lineage is a pure union semilattice: every lineage
//! set is a union of input-index singletons, so a set that depends on
//! epoch-entry state is *exactly*
//!
//! ```text
//!   (arena node over in-epoch inputs) ∪ ⋃ entry(loc)  for loc ∈ incoming
//! ```
//!
//! — a `SymSet`: one shard-local roBDD node plus a sorted list of
//! interned incoming locations. No expression DAG is needed (unlike
//! taint's `EpochSummary`, whose labels propagate through arbitrary
//! `T::propagate` functions); union's associativity, commutativity and
//! idempotence let composition defer the entry sets to merge time.
//!
//! Composition ([`LineageEpochSummary::apply`]) rewrites the arena's
//! live nodes into the primary manager with
//! [`BddManager::absorb`] — a bottom-up `mk`-based translation that
//! preserves canonicity, so merged sets are pointer-equal to
//! serially-built ones — reads each `incoming` location's set from the
//! engine's pre-epoch shadow state, then in one pass resolves and
//! writes the final register/memory rows, input-channel provenance,
//! and outputs in stream order. The result is bit-identical to the
//! serial [`LineageEngine`] (the `lineage_shard_diff` proptests pin
//! this). The summary carries only what the engine keeps; the
//! sentinel's sink-site captures come from its serial `SinkObserver`.

use crate::backend::{BddBackend, LineageBackend};
use crate::engine::LineageEngine;
use dift_isa::{MemAddr, Opcode, Reg};
use dift_robdd::{BddManager, NodeId, FALSE};
use dift_taint::{IoBase, Loc};
use dift_vm::{StepEffects, ThreadId};
use std::collections::HashMap;

/// A lineage set that may depend on epoch-entry state: the union of a
/// shard-arena roBDD node (inputs consumed in-epoch) and the
/// epoch-entry sets of the summary's `incoming` locations.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SymSet {
    /// Concrete in-epoch part, a node in the summary's private arena.
    node: NodeId,
    /// Sorted, deduped indices into the summary's incoming-loc table.
    incoming: Vec<u32>,
}

impl SymSet {
    fn empty() -> SymSet {
        SymSet { node: FALSE, incoming: Vec::new() }
    }

    /// False only when the set is *definitely* empty; a symbolic set
    /// may still resolve empty at composition time.
    fn maybe_non_empty(&self) -> bool {
        self.node != FALSE || !self.incoming.is_empty()
    }
}

/// Sorted-merge two deduped index lists.
fn merge_incoming(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One `Out` emission.
#[derive(Clone, Debug)]
struct EpochOutput {
    channel: u16,
    set: SymSet,
}

/// The per-epoch lineage delta: final shadow rows, outputs and input
/// provenance as `SymSet`s over a private arena, composable onto a
/// primary [`LineageEngine`] in epoch order.
pub struct LineageEpochSummary {
    arena: BddManager,
    incoming: Vec<Loc>,
    regs: HashMap<(ThreadId, Reg), SymSet>,
    mem: HashMap<MemAddr, SymSet>,
    outputs: Vec<EpochOutput>,
    input_channels: Vec<u16>,
    /// Global input index of the epoch's first `In` (from the
    /// label-independent [`IoBase`] pre-scan).
    base_inputs: u64,
    instrs: u64,
    unions: u64,
}

impl LineageEpochSummary {
    /// Steps summarized — the composer's integrity check compares this
    /// against the chunk length to detect corrupted summaries.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Arena nodes built shard-side (merge-cost reporting).
    pub fn arena_nodes(&self) -> usize {
        self.arena.node_count()
    }

    /// Apply this epoch's delta to the primary engine. Epochs must be
    /// applied in stream order.
    ///
    /// Exactness: the arena's live nodes are absorbed through the
    /// primary manager's hash-consing, and every incoming location is
    /// read from the engine's *pre-epoch* shadow state before any row
    /// is written, so every resolved set is the same canonical node a
    /// serial run would have produced. Each set is resolved as it is
    /// written: a write only moves reference counts, and roBDD nodes
    /// are never freed, so it cannot change a later resolution.
    /// `instrs`/`max_output_set` stay exact; `unions` and the sampled
    /// peak statistics are approximate (shard-side union counts plus
    /// one memory sample per epoch instead of every 64 instructions).
    pub fn apply(&self, eng: &mut LineageEngine<BddBackend>) {
        debug_assert_eq!(eng.inputs_seen, self.base_inputs, "epochs must compose in stream order");

        // Absorb the arena's live roots into the primary manager.
        let mut roots: Vec<NodeId> = Vec::new();
        let mut slot: HashMap<NodeId, usize> = HashMap::new();
        let outputs = self.outputs.iter().map(|o| &o.set);
        for s in self.regs.values().chain(self.mem.values()).chain(outputs) {
            if s.node != FALSE {
                slot.entry(s.node).or_insert_with(|| {
                    roots.push(s.node);
                    roots.len() - 1
                });
            }
        }
        let translated = eng.backend.manager_mut().absorb(&self.arena, &roots);

        // Entry sets: the pre-epoch state of every incoming location.
        let entry: Vec<NodeId> = self
            .incoming
            .iter()
            .map(|loc| match *loc {
                Loc::Reg(tid, r) => eng
                    .regs
                    .get(tid as usize)
                    .and_then(|regs| regs.get(r.index()))
                    .copied()
                    .unwrap_or(FALSE),
                Loc::Mem(addr) => eng.mem.get(&addr).copied().unwrap_or(FALSE),
            })
            .collect();
        let resolve = |s: &SymSet, eng: &mut LineageEngine<BddBackend>| -> NodeId {
            let mut n = if s.node == FALSE { FALSE } else { translated[slot[&s.node]] };
            for &i in &s.incoming {
                let (u, _) = eng.backend.union(&n, &entry[i as usize]);
                if u != n {
                    eng.stats.unions += 1;
                }
                n = u;
            }
            n
        };

        eng.inputs_seen += self.input_channels.len() as u64;
        eng.input_channels.extend_from_slice(&self.input_channels);
        for (&(tid, r), s) in &self.regs {
            let n = resolve(s, eng);
            eng.ensure_tid(tid);
            eng.set_reg(tid, r, n);
        }
        for (&addr, s) in &self.mem {
            let n = resolve(s, eng);
            eng.set_mem(addr, n);
        }
        // Outputs, in stream order, with global per-channel indices.
        for o in &self.outputs {
            let n = resolve(&o.set, eng);
            let elems = eng.backend.elements(&n);
            eng.stats.max_output_set = eng.stats.max_output_set.max(elems.len() as u64);
            let idx = eng.out_counts.entry(o.channel).or_insert(0);
            eng.outputs.push((o.channel, *idx, elems));
            *idx += 1;
        }

        eng.stats.instrs += self.instrs;
        eng.stats.unions += self.unions;
        eng.sample_memory();
    }
}

/// Streaming builder for a [`LineageEpochSummary`] — the shard-side
/// mirror of [`LineageEngine::process`], with untouched-location reads
/// interned as symbolic incoming references instead of shadow lookups.
struct LineageEpochSummarizer {
    sum: LineageEpochSummary,
    loc_ids: HashMap<Loc, u32>,
    inputs_in_epoch: u64,
}

impl LineageEpochSummarizer {
    /// `id_bits` must match the primary engine's backend;
    /// `base` is the label-independent pre-scan state at epoch entry.
    fn new(id_bits: u32, base: &IoBase) -> LineageEpochSummarizer {
        LineageEpochSummarizer {
            sum: LineageEpochSummary {
                arena: BddManager::new(id_bits),
                incoming: Vec::new(),
                regs: HashMap::new(),
                mem: HashMap::new(),
                outputs: Vec::new(),
                input_channels: Vec::new(),
                base_inputs: base.inputs.values().sum(),
                instrs: 0,
                unions: 0,
            },
            loc_ids: HashMap::new(),
            inputs_in_epoch: 0,
        }
    }

    fn intern(&mut self, loc: Loc) -> SymSet {
        let id = match self.loc_ids.get(&loc) {
            Some(&i) => i,
            None => {
                let i = self.sum.incoming.len() as u32;
                self.sum.incoming.push(loc);
                self.loc_ids.insert(loc, i);
                i
            }
        };
        SymSet { node: FALSE, incoming: vec![id] }
    }

    fn read_reg(&mut self, tid: ThreadId, r: Reg) -> SymSet {
        match self.sum.regs.get(&(tid, r)) {
            Some(s) => s.clone(),
            None => self.intern(Loc::Reg(tid, r)),
        }
    }

    fn read_mem(&mut self, addr: MemAddr) -> SymSet {
        match self.sum.mem.get(&addr) {
            Some(s) => s.clone(),
            None => self.intern(Loc::Mem(addr)),
        }
    }

    fn union(&mut self, a: &SymSet, b: &SymSet) -> SymSet {
        self.sum.unions += 1;
        SymSet {
            node: self.sum.arena.union(a.node, b.node),
            incoming: merge_incoming(&a.incoming, &b.incoming),
        }
    }

    /// Summarize one step (steps must arrive in stream order).
    fn step(&mut self, fx: &StepEffects) {
        let tid = fx.tid;
        self.sum.instrs += 1;

        let out_set = if let Opcode::In { channel, .. } = fx.insn.op {
            let idx = self.sum.base_inputs + self.inputs_in_epoch;
            self.inputs_in_epoch += 1;
            self.sum.input_channels.push(channel);
            SymSet { node: self.sum.arena.singleton(idx), incoming: Vec::new() }
        } else {
            let mut acc = SymSet::empty();
            for &r in fx.insn.data_uses().as_slice() {
                let s = self.read_reg(tid, r);
                if s.maybe_non_empty() {
                    acc = self.union(&acc, &s);
                }
            }
            if let Some((addr, _)) = fx.mem_read {
                let s = self.read_mem(addr);
                if s.maybe_non_empty() {
                    acc = self.union(&acc, &s);
                }
            }
            acc
        };

        if let Some((r, _, _)) = fx.reg_write {
            self.sum.regs.insert((tid, r), out_set.clone());
        }
        if let Some((addr, _, _)) = fx.mem_write {
            // A definitely-empty set still overwrites the overlay: at
            // composition it resolves empty and removes the cell,
            // matching the serial engine's remove-on-empty.
            self.sum.mem.insert(addr, out_set.clone());
        }

        if let Some((ch, _)) = fx.output {
            let set = match fx.insn.data_uses().as_slice().first() {
                Some(&r) => self.read_reg(tid, r),
                None => SymSet::empty(),
            };
            self.sum.outputs.push(EpochOutput { channel: ch, set });
        }
    }
}

/// Summarize one epoch of the step stream into a composable delta.
pub fn summarize_lineage_epoch(
    fxs: &[StepEffects],
    id_bits: u32,
    base: &IoBase,
) -> LineageEpochSummary {
    let mut s = LineageEpochSummarizer::new(id_bits, base);
    for fx in fxs {
        s.step(fx);
    }
    s.sum
}
