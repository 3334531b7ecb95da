//! Epoch taint-transfer summaries for epoch-parallel DIFT.
//!
//! A window ("epoch") of the per-instruction effects stream can be
//! summarized **without knowing the taint state it starts from**: every
//! label the epoch produces is expressed over *symbolic unknowns* — the
//! incoming labels of the registers and memory cells the epoch reads
//! before writing. N workers summarize N epochs concurrently, and a
//! cheap sequential composition pass resolves each summary against the
//! concrete state left by its predecessor. Because instruction operands
//! and memory addresses are concrete in the stream (the VM already
//! resolved them), the intra-epoch data flow is exact; the only unknowns
//! are the incoming *labels*, which composition substitutes. The result
//! is bit-identical to serial [`TaintEngine::process`] over the same
//! stream: labels, alerts (including origin pointers), output lineage,
//! and exact peak statistics.
//!
//! The symbolic domain is a small expression DAG, generic over any
//! [`TaintLabel`]:
//!
//! * `Incoming(loc)` — the unknown label `loc` carries into the epoch;
//! * `Prop { ctx, args }` — `T::propagate(args, ctx)` with the full,
//!   ordered argument list (labels are *not* assumed to form a join
//!   semilattice — `PcTaint::propagate` stamps the current PC, so the
//!   propagate call structure must be preserved verbatim).
//!
//! Nodes are interned per epoch; anything computable from concrete
//! labels alone folds eagerly, so symbolic nodes only materialize along
//! chains rooted at genuinely unknown incoming labels. Peak statistics
//! stay exact because the summary records every shadow write in step
//! order and composition replays them through the engine's own
//! `set_mem_label`, which maintains the running peak counters.

use crate::engine::{AlertKind, TaintAlert, TaintEngine};
use crate::label::{LabelCtx, TaintLabel};
use crate::policy::TaintPolicy;
use dift_isa::{Addr, MemAddr, Opcode, Reg, NUM_REGS, SHADOW_PAGE_WORDS};
use dift_vm::{StepEffects, ThreadId};
use std::collections::HashMap;

/// A location whose label can flow into an epoch from outside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Loc {
    Reg(ThreadId, Reg),
    Mem(MemAddr),
}

/// A label that may depend on unknown incoming labels.
#[derive(Clone, Debug, PartialEq)]
pub enum SymLabel<T> {
    /// Fully determined within the epoch.
    Concrete(T),
    /// Index into the summary's node arena.
    Node(u32),
}

/// One vertex of the symbolic expression DAG.
#[derive(Clone, Debug)]
enum Node<T> {
    /// The label `loc` carries at epoch entry.
    Incoming(Loc),
    /// `T::propagate(args, ctx)` over the ordered argument list.
    Prop { ctx: LabelCtx, args: Vec<SymLabel<T>> },
}

/// How an alert's origin pointer resolves at composition time.
#[derive(Clone, Debug)]
enum OriginRef<T> {
    /// The offending register's origin was `None` at the alert.
    None,
    /// Known cell; its label *at alert time* captured symbolically.
    Cell(MemAddr, SymLabel<T>),
    /// The register was not redefined in the epoch before the alert, so
    /// its origin cell is the engine's epoch-entry origin for this
    /// register; the cell's at-alert-time label is the engine's live
    /// shadow at the replay point (writes replay in step order, so the
    /// live shadow is exactly the serial engine's at-alert-time state).
    IncomingReg(Reg),
}

/// A replayable observation, kept in step order.
#[derive(Clone, Debug)]
enum Event<T> {
    MemWrite {
        addr: MemAddr,
        label: SymLabel<T>,
    },
    Alert {
        step: u64,
        tid: ThreadId,
        at: Addr,
        kind: AlertKind,
        label: SymLabel<T>,
        origin: OriginRef<T>,
    },
    Output {
        ch: u16,
        /// Global emit index (the summarizer is seeded with the
        /// stream-prefix counts, so indices need no post-hoc fixup).
        idx: u64,
        label: SymLabel<T>,
    },
}

/// Per-channel `In`/`Out` counts of the stream prefix before an epoch.
///
/// Source labels (`T::source(ctx, ch, index)`) and output lineage use
/// *global* per-channel indices; those are label-independent functions of
/// the stream itself, so a cheap sequential pre-scan provides them to
/// each worker before summarization fans out.
#[derive(Clone, Debug, Default)]
pub struct IoBase {
    pub inputs: HashMap<u16, u64>,
    pub outputs: HashMap<u16, u64>,
}

impl IoBase {
    /// Advance the counts past `fxs` (the cheap pre-scan step).
    pub fn advance(&mut self, fxs: &[StepEffects]) {
        for fx in fxs {
            if let Some((ch, _)) = fx.input {
                *self.inputs.entry(ch).or_insert(0) += 1;
            }
            if let Some((ch, _)) = fx.output {
                *self.outputs.entry(ch).or_insert(0) += 1;
            }
        }
    }
}

/// Overlay cell state for one shadow word during summarization.
#[derive(Clone, Debug)]
enum OverlayCell<T> {
    /// Not touched by the epoch (reads intern an incoming node once).
    Empty,
    /// Read before any write; caches the interned incoming node.
    Incoming(u32),
    /// Written by the epoch; the current symbolic label.
    Written(SymLabel<T>),
}

/// Origin-tracking state for one register during summarization.
#[derive(Clone, Copy, Debug)]
enum OriginState {
    /// Not redefined yet — the incoming origin applies.
    Incoming,
    /// Redefined in-epoch with this origin.
    Known(Option<MemAddr>),
}

/// The composable result of summarizing one epoch.
pub struct EpochSummary<T: TaintLabel> {
    nodes: Vec<Node<T>>,
    /// `(node id, loc)` for every `Incoming` node, resolved first.
    incoming: Vec<(u32, Loc)>,
    events: Vec<Event<T>>,
    /// Final labels of registers the epoch wrote.
    reg_updates: Vec<(ThreadId, Reg, SymLabel<T>)>,
    /// Final origins of registers the epoch wrote.
    origin_updates: Vec<(ThreadId, Reg, Option<MemAddr>)>,
    max_tid: Option<ThreadId>,
    instrs: u64,
    sources: u64,
    /// Tainted-instruction count resolvable at summary time.
    tainted_known: u64,
    /// Steps whose taintedness depends on incoming labels: the step
    /// counts iff any listed node evaluates non-clean.
    tainted_cond: Vec<Vec<u32>>,
    input_delta: Vec<(u16, u64)>,
    output_delta: Vec<(u16, u64)>,
}

impl<T: TaintLabel> EpochSummary<T> {
    /// Number of symbolic nodes the epoch needed (diagnostics: the
    /// sequential composition cost is proportional to this plus the
    /// event count).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of replayable events (mem writes, alerts, outputs).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Records the summarizer stepped to build this summary. A consumer
    /// that knows how many records the epoch holds can use this as an
    /// integrity check: a summary built from a partial or damaged stream
    /// disagrees with the producer's count.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Evaluate a symbolic label against the resolved incoming cache.
    /// Iterative and memoized: each DAG node evaluates exactly once per
    /// composition, so chains shared by many events stay cheap.
    fn eval(&self, cache: &mut [Option<T>], l: &SymLabel<T>) -> T {
        match l {
            SymLabel::Concrete(t) => t.clone(),
            SymLabel::Node(id) => self.eval_node(cache, *id),
        }
    }

    fn eval_node(&self, cache: &mut [Option<T>], id: u32) -> T {
        if let Some(v) = &cache[id as usize] {
            return v.clone();
        }
        let mut stack = vec![id];
        let mut vals: Vec<T> = Vec::new();
        while let Some(&top) = stack.last() {
            if cache[top as usize].is_some() {
                stack.pop();
                continue;
            }
            match &self.nodes[top as usize] {
                Node::Incoming(loc) => {
                    unreachable!("incoming node for {loc:?} not resolved before eval")
                }
                Node::Prop { ctx, args } => {
                    let mut ready = true;
                    for a in args {
                        if let SymLabel::Node(c) = a {
                            if cache[*c as usize].is_none() {
                                stack.push(*c);
                                ready = false;
                            }
                        }
                    }
                    if ready {
                        vals.clear();
                        for a in args {
                            vals.push(match a {
                                SymLabel::Concrete(t) => t.clone(),
                                SymLabel::Node(c) => {
                                    cache[*c as usize].clone().expect("arg evaluated")
                                }
                            });
                        }
                        // Mirror the serial engine: the lattice join is
                        // skipped when every source is clean (the trait
                        // contract fixes propagate(all-clean) = clean).
                        let v = if vals.iter().any(|v| !v.is_clean()) {
                            T::propagate(&vals, ctx)
                        } else {
                            T::default()
                        };
                        cache[top as usize] = Some(v);
                        stack.pop();
                    }
                }
            }
        }
        cache[id as usize].clone().expect("root evaluated")
    }
}

/// Streaming builder of an [`EpochSummary`]: feed it the epoch's effects
/// in order via [`Self::step`], then [`Self::finish`]. Mirrors
/// [`TaintEngine::process`] step for step, but over symbolic labels.
pub struct EpochSummarizer<T: TaintLabel> {
    policy: TaintPolicy,
    nodes: Vec<Node<T>>,
    incoming: Vec<(u32, Loc)>,
    events: Vec<Event<T>>,
    /// Per-tid symbolic register file (rows intern incoming nodes).
    regs: Vec<Vec<SymLabel<T>>>,
    /// Per-tid dirty flags (which registers the epoch wrote).
    written: Vec<Vec<bool>>,
    origins: Vec<Vec<OriginState>>,
    /// Paged shadow overlay (same page geometry as `ShadowMap`).
    mem_pages: Vec<Option<Box<[OverlayCell<T>]>>>,
    input_counts: HashMap<u16, u64>,
    output_counts: HashMap<u16, u64>,
    base: IoBase,
    max_tid: Option<ThreadId>,
    instrs: u64,
    sources: u64,
    tainted_known: u64,
    tainted_cond: Vec<Vec<u32>>,
    /// Scratch for eager all-concrete propagation.
    scratch: Vec<T>,
}

impl<T: TaintLabel> EpochSummarizer<T> {
    /// `base` carries the per-channel `In`/`Out` counts of the stream
    /// prefix before this epoch (see [`IoBase`]).
    pub fn new(policy: TaintPolicy, base: &IoBase) -> EpochSummarizer<T> {
        EpochSummarizer {
            policy,
            nodes: Vec::new(),
            incoming: Vec::new(),
            events: Vec::new(),
            regs: Vec::new(),
            written: Vec::new(),
            origins: Vec::new(),
            mem_pages: Vec::new(),
            input_counts: base.inputs.clone(),
            output_counts: base.outputs.clone(),
            base: base.clone(),
            max_tid: None,
            instrs: 0,
            sources: 0,
            tainted_known: 0,
            tainted_cond: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn intern_incoming(&mut self, loc: Loc) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Incoming(loc));
        self.incoming.push((id, loc));
        id
    }

    fn prop_node(&mut self, ctx: LabelCtx, args: Vec<SymLabel<T>>) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Prop { ctx, args });
        id
    }

    fn ensure_tid(&mut self, tid: ThreadId) {
        while self.regs.len() <= tid as usize {
            let t = self.regs.len() as ThreadId;
            let row: Vec<SymLabel<T>> = (0..NUM_REGS)
                .map(|r| SymLabel::Node(self.intern_incoming(Loc::Reg(t, Reg(r as u8)))))
                .collect();
            self.regs.push(row);
            self.written.push(vec![false; NUM_REGS]);
            self.origins.push(vec![OriginState::Incoming; NUM_REGS]);
        }
    }

    #[inline]
    fn split(addr: MemAddr) -> (usize, usize) {
        let a = addr as usize;
        (a / SHADOW_PAGE_WORDS, a % SHADOW_PAGE_WORDS)
    }

    fn empty_page() -> Box<[OverlayCell<T>]> {
        (0..SHADOW_PAGE_WORDS).map(|_| OverlayCell::Empty).collect()
    }

    /// Symbolic label of shadow word `addr`; interns (and caches) an
    /// incoming node on the first read of an unwritten cell.
    fn mem_label(&mut self, addr: MemAddr) -> SymLabel<T> {
        let (p, off) = Self::split(addr);
        if let Some(Some(page)) = self.mem_pages.get(p) {
            match &page[off] {
                OverlayCell::Incoming(id) => return SymLabel::Node(*id),
                OverlayCell::Written(l) => return l.clone(),
                OverlayCell::Empty => {}
            }
        }
        let id = self.intern_incoming(Loc::Mem(addr));
        if p >= self.mem_pages.len() {
            self.mem_pages.resize_with(p + 1, || None);
        }
        let page = self.mem_pages[p].get_or_insert_with(Self::empty_page);
        page[off] = OverlayCell::Incoming(id);
        SymLabel::Node(id)
    }

    fn mem_store(&mut self, addr: MemAddr, label: SymLabel<T>) {
        let (p, off) = Self::split(addr);
        if p >= self.mem_pages.len() {
            self.mem_pages.resize_with(p + 1, || None);
        }
        let page = self.mem_pages[p].get_or_insert_with(Self::empty_page);
        page[off] = OverlayCell::Written(label);
    }

    /// Summarize one step. Mirrors `TaintEngine::process` exactly, with
    /// symbolic labels standing in for unknown incoming state.
    pub fn step(&mut self, fx: &StepEffects) {
        let tid = fx.tid;
        self.ensure_tid(tid);
        self.max_tid = Some(self.max_tid.map_or(tid, |m| m.max(tid)));
        self.instrs += 1;
        let ctx = LabelCtx { addr: fx.addr, step: fx.step, stmt: fx.insn.stmt };

        let data_uses = fx.insn.data_uses();
        let addr_uses = fx.insn.addr_uses();
        let t = tid as usize;

        // Gather source labels (same order as the serial engine).
        let mut srcs: Vec<SymLabel<T>> = Vec::with_capacity(4);
        for r in &data_uses {
            srcs.push(self.regs[t][r.index()].clone());
        }
        if self.policy.propagate_through_addr {
            for r in &addr_uses {
                srcs.push(self.regs[t][r.index()].clone());
            }
        }
        if let Some((addr, _)) = fx.mem_read {
            srcs.push(self.mem_label(addr));
        }

        // Taintedness of the step: known when a concrete source is
        // tainted or every source is concrete; otherwise conditional on
        // the symbolic sources.
        let mut concrete_tainted = false;
        let mut deps: Vec<u32> = Vec::new();
        for s in &srcs {
            match s {
                SymLabel::Concrete(l) => {
                    if !l.is_clean() {
                        concrete_tainted = true;
                    }
                }
                SymLabel::Node(id) => deps.push(*id),
            }
        }

        // Checks (before the write-side update), same loop order as the
        // engine so the alert stream composes in identical order.
        if self.policy.check_mem_addr || self.policy.check_control {
            for r in &addr_uses {
                let label = self.regs[t][r.index()].clone();
                if let SymLabel::Concrete(l) = &label {
                    if l.is_clean() {
                        continue;
                    }
                }
                let kind = match fx.insn.op {
                    Opcode::Load { .. } => AlertKind::TaintedLoadAddr,
                    Opcode::Store { .. } | Opcode::Atomic { .. } | Opcode::Cas { .. } => {
                        AlertKind::TaintedStoreAddr
                    }
                    Opcode::JumpInd { .. } | Opcode::CallInd { .. } => AlertKind::TaintedControl,
                    _ => continue,
                };
                let wanted = match kind {
                    AlertKind::TaintedControl => self.policy.check_control,
                    _ => self.policy.check_mem_addr,
                };
                if wanted {
                    let origin = match self.origins[t][r.index()] {
                        OriginState::Known(None) => OriginRef::None,
                        OriginState::Known(Some(cell)) => {
                            let l = self.mem_label(cell);
                            OriginRef::Cell(cell, l)
                        }
                        OriginState::Incoming => OriginRef::IncomingReg(r),
                    };
                    self.events.push(Event::Alert {
                        step: fx.step,
                        tid,
                        at: fx.addr,
                        kind,
                        label,
                        origin,
                    });
                }
            }
        }

        // Write-side propagation.
        let is_source = matches!(fx.insn.op, Opcode::In { .. });
        let out_label: SymLabel<T> = if is_source {
            let (ch, _) = fx.input.expect("In always has an input effect");
            let idx = self.input_counts.entry(ch).or_insert(0);
            let l = T::source(&ctx, ch, *idx);
            *idx += 1;
            self.sources += 1;
            SymLabel::Concrete(l)
        } else if deps.is_empty() {
            if concrete_tainted {
                self.scratch.clear();
                for s in &srcs {
                    match s {
                        SymLabel::Concrete(l) => self.scratch.push(l.clone()),
                        SymLabel::Node(_) => unreachable!("deps is empty"),
                    }
                }
                SymLabel::Concrete(T::propagate(&self.scratch, &ctx))
            } else {
                SymLabel::Concrete(T::default())
            }
        } else if fx.reg_write.is_some() || fx.mem_write.is_some() {
            // At least one unknown source: keep the full, ordered
            // propagate call symbolic (even when a concrete source is
            // already tainted — a lattice like a lineage set still
            // depends on the unknown arguments' values).
            SymLabel::Node(self.prop_node(ctx, srcs))
        } else {
            // No destination reads this label (e.g. a branch over an
            // incoming register) — don't grow the DAG for it.
            SymLabel::Concrete(T::default())
        };

        if is_source || concrete_tainted {
            self.tainted_known += 1;
        } else if !deps.is_empty() {
            self.tainted_cond.push(deps);
        }

        if let Some((r, _, _)) = fx.reg_write {
            self.regs[t][r.index()] = out_label.clone();
            self.written[t][r.index()] = true;
            self.origins[t][r.index()] = OriginState::Known(match fx.insn.op {
                Opcode::Load { .. } => fx.mem_read.map(|(a, _)| a),
                _ => None,
            });
        }
        if let Some((addr, _, _)) = fx.mem_write {
            self.mem_store(addr, out_label.clone());
            self.events.push(Event::MemWrite { addr, label: out_label });
        }

        if let Some((ch, _)) = fx.output {
            let idx = self.output_counts.entry(ch).or_insert(0);
            let label = data_uses
                .as_slice()
                .first()
                .map(|r| self.regs[t][r.index()].clone())
                .unwrap_or(SymLabel::Concrete(T::default()));
            self.events.push(Event::Output { ch, idx: *idx, label });
            *idx += 1;
        }
    }

    /// Seal the summary.
    pub fn finish(self) -> EpochSummary<T> {
        let mut reg_updates = Vec::new();
        let mut origin_updates = Vec::new();
        for (t, row) in self.written.iter().enumerate() {
            for (r, dirty) in row.iter().enumerate() {
                if !dirty {
                    continue;
                }
                let tid = t as ThreadId;
                let reg = Reg(r as u8);
                reg_updates.push((tid, reg, self.regs[t][r].clone()));
                match self.origins[t][r] {
                    OriginState::Known(o) => origin_updates.push((tid, reg, o)),
                    OriginState::Incoming => unreachable!("written register has a known origin"),
                }
            }
        }
        let delta = |now: &HashMap<u16, u64>, base: &HashMap<u16, u64>| -> Vec<(u16, u64)> {
            let mut v: Vec<(u16, u64)> = now
                .iter()
                .filter_map(|(ch, n)| {
                    let d = n - base.get(ch).copied().unwrap_or(0);
                    (d > 0).then_some((*ch, d))
                })
                .collect();
            v.sort_unstable();
            v
        };
        EpochSummary {
            input_delta: delta(&self.input_counts, &self.base.inputs),
            output_delta: delta(&self.output_counts, &self.base.outputs),
            nodes: self.nodes,
            incoming: self.incoming,
            events: self.events,
            reg_updates,
            origin_updates,
            max_tid: self.max_tid,
            instrs: self.instrs,
            sources: self.sources,
            tainted_known: self.tainted_known,
            tainted_cond: self.tainted_cond,
        }
    }
}

/// Memoized concrete replay of repeated applications of one summary —
/// the hot-code summary cache's steady-state fast path.
///
/// Applying a summary is a pure function of the labels its `incoming`
/// locations carry at application time. The cache applies the *same*
/// summary over and over, and in steady state the incoming labels
/// converge (a hot loop's taint state is stationary after the first
/// sweeps). So the second application onward can skip the node-DAG
/// evaluation entirely: resolve the incoming labels, compare with the
/// previous application's, and on equality replay the fully
/// concretized action list recorded then — same writes, same alerts,
/// same stats, bit for bit, at a fraction of the cost.
pub struct ApplyMemo<T: TaintLabel> {
    /// Incoming labels at the last recorded application, in
    /// `EpochSummary::incoming` order.
    inputs: Vec<T>,
    /// Concretized actions of that application; `None` until one runs
    /// (or when the application is inherently non-memoizable).
    replay: Option<Replay<T>>,
}

impl<T: TaintLabel> Default for ApplyMemo<T> {
    fn default() -> ApplyMemo<T> {
        ApplyMemo { inputs: Vec::new(), replay: None }
    }
}

impl<T: TaintLabel> ApplyMemo<T> {
    /// Approximate resident bytes (cache-storage accounting).
    pub fn approx_bytes(&self) -> u64 {
        let actions =
            self.replay.as_ref().map(|r| r.actions.len() + r.reg_updates.len()).unwrap_or(0);
        (self.inputs.len() + actions) as u64 * 16
    }
}

struct Replay<T: TaintLabel> {
    /// Writes, firing alerts, and outputs in event order. Alert steps
    /// keep the summary's recorded values; the caller's `step_delta` is
    /// added at replay time.
    actions: Vec<ReplayAction<T>>,
    /// Final concrete labels of registers the epoch wrote.
    reg_updates: Vec<(ThreadId, Reg, T)>,
    /// Conditional tainted steps that fired under these inputs.
    tainted_resolved: u64,
}

enum ReplayAction<T: TaintLabel> {
    Mem(MemAddr, T),
    Alert(TaintAlert<T>),
    Output(u16, u64, T),
}

/// Summarize one epoch of the effects stream in a single pass.
pub fn summarize_epoch<T: TaintLabel>(
    fxs: &[StepEffects],
    policy: TaintPolicy,
    base: &IoBase,
) -> EpochSummary<T> {
    let mut s = EpochSummarizer::new(policy, base);
    for fx in fxs {
        s.step(fx);
    }
    s.finish()
}

impl<T: TaintLabel, R: dift_obs::Recorder> TaintEngine<T, R> {
    /// Compose an epoch summary onto this engine's state — the
    /// sequential stitching pass of epoch-parallel DIFT. After the call
    /// the engine is bit-identical to having `process`ed the epoch's
    /// stream serially: same labels, alerts, output lineage, shadow
    /// state, and exact peak statistics.
    pub fn apply_summary(&mut self, s: &EpochSummary<T>) {
        self.apply_summary_inner(s, 0, None);
    }

    /// [`Self::apply_summary`] through an [`ApplyMemo`], with every
    /// recorded alert step shifted forward by `step_delta` — the
    /// composition primitive of the hot-code summary cache
    /// (`crate::summary_cache`), which replays a summary recorded at one
    /// step range at a later, guard-identical execution of the same
    /// region. When the summary's incoming labels are unchanged since
    /// the memo's last recorded application, the concretized action list
    /// replays without evaluating the node DAG — the cache's
    /// steady-state hit path. Falls back to (and re-records) the full
    /// application whenever any incoming label changed. Either way the
    /// engine ends bit-identical to [`Self::apply_summary`] with the
    /// alert steps rebased.
    ///
    /// Only alert steps are rebased: they are the sole absolute step
    /// values a summary stores. Output emit indices are per-channel
    /// *IoBase-relative* counts, not steps, and the cache never applies
    /// summaries containing I/O. Symbolic `Prop` nodes keep their
    /// recorded `ctx` (including the recorded step), which is exact for
    /// labels with [`TaintLabel::STEP_INVARIANT`] — the cache refuses to
    /// install regions for labels without it.
    ///
    /// Returns true when the memo matched (the concrete replay ran);
    /// false when the full path ran and re-recorded the memo. The
    /// summary cache uses this bit to prove replay *fixpoints* for the
    /// even cheaper [`Self::apply_summary_sealed`] path.
    pub fn apply_summary_memoized(
        &mut self,
        s: &EpochSummary<T>,
        step_delta: u64,
        memo: &mut ApplyMemo<T>,
    ) -> bool {
        if let Some(mt) = s.max_tid {
            self.ensure_tid(mt);
        }
        if let Some(replay) = &memo.replay {
            let same = memo.inputs.len() == s.incoming.len()
                && s.incoming.iter().zip(&memo.inputs).all(|((_, loc), prev)| {
                    let v = match *loc {
                        Loc::Reg(tid, r) => self.reg_label(tid, r),
                        Loc::Mem(a) => self.mem.get(a),
                    };
                    v == *prev
                });
            if same {
                for a in &replay.actions {
                    match a {
                        ReplayAction::Mem(addr, l) => self.set_mem_label(*addr, l.clone()),
                        ReplayAction::Alert(al) => {
                            let mut al = al.clone();
                            al.step += step_delta;
                            self.alerts.push(al);
                        }
                        ReplayAction::Output(ch, idx, l) => {
                            self.output_labels.push((*ch, *idx, l.clone()));
                        }
                    }
                }
                for (tid, r, l) in &replay.reg_updates {
                    self.regs[*tid as usize][r.index()] = l.clone();
                }
                if self.track_origins {
                    for (tid, r, o) in &s.origin_updates {
                        self.origins[*tid as usize][r.index()] = *o;
                    }
                }
                self.stats.instrs += s.instrs;
                self.stats.sources += s.sources;
                self.stats.tainted_instrs += s.tainted_known + replay.tainted_resolved;
                for (ch, d) in &s.input_delta {
                    *self.input_counts.entry(*ch).or_insert(0) += *d;
                }
                for (ch, d) in &s.output_delta {
                    *self.output_counts.entry(*ch).or_insert(0) += *d;
                }
                return true;
            }
        }
        // Inputs changed (or first application): run the full path while
        // re-recording the concretized actions for the next hit.
        memo.inputs.clear();
        for (_, loc) in &s.incoming {
            memo.inputs.push(match *loc {
                Loc::Reg(tid, r) => self.reg_label(tid, r),
                Loc::Mem(a) => self.mem.get(a),
            });
        }
        let mut replay =
            Replay { actions: Vec::new(), reg_updates: Vec::new(), tainted_resolved: 0 };
        let memoizable = self.apply_summary_inner(s, step_delta, Some(&mut replay));
        memo.replay = if memoizable { Some(replay) } else { None };
        false
    }

    /// The *sealed* fast path of [`Self::apply_summary_memoized`]: valid
    /// only when the caller proves — by counting engine mutations, see
    /// `SummaryCachedEngine` — that the engine's label state is exactly
    /// the post-state of this memo's replay applied to inputs equal to
    /// the memo's. Every label write the replay would perform is then
    /// already in place, so only the per-execution observables are
    /// appended: alerts (rebased by `step_delta`), output lineage, and
    /// statistics. Returns false (doing nothing) when the memo holds no
    /// replay; the caller must then fall back to the memoized path.
    pub fn apply_summary_sealed(
        &mut self,
        s: &EpochSummary<T>,
        step_delta: u64,
        memo: &ApplyMemo<T>,
    ) -> bool {
        let Some(replay) = &memo.replay else {
            return false;
        };
        for a in &replay.actions {
            match a {
                // Sealed: the shadow already carries this exact label.
                ReplayAction::Mem(..) => {}
                ReplayAction::Alert(al) => {
                    let mut al = al.clone();
                    al.step += step_delta;
                    self.alerts.push(al);
                }
                ReplayAction::Output(ch, idx, l) => {
                    self.output_labels.push((*ch, *idx, l.clone()));
                }
            }
        }
        self.stats.instrs += s.instrs;
        self.stats.sources += s.sources;
        self.stats.tainted_instrs += s.tainted_known + replay.tainted_resolved;
        for (ch, d) in &s.input_delta {
            *self.input_counts.entry(*ch).or_insert(0) += *d;
        }
        for (ch, d) in &s.output_delta {
            *self.output_counts.entry(*ch).or_insert(0) += *d;
        }
        true
    }

    /// Shared application body. When `rec` is given, every concrete
    /// action is also recorded for memoized replay; returns false when
    /// the application is non-memoizable (a firing alert resolved its
    /// origin through live engine state rather than incoming labels).
    fn apply_summary_inner(
        &mut self,
        s: &EpochSummary<T>,
        step_delta: u64,
        mut rec: Option<&mut Replay<T>>,
    ) -> bool {
        let mut memoizable = true;
        if let Some(mt) = s.max_tid {
            self.ensure_tid(mt);
        }
        // Resolve every incoming unknown against the pre-epoch state
        // *before* replaying any write: symbolic labels always refer to
        // epoch-entry state, while live lookups during the replay below
        // see the correctly interleaved mid-epoch state.
        let mut cache: Vec<Option<T>> = vec![None; s.nodes.len()];
        for (id, loc) in &s.incoming {
            let v = match *loc {
                Loc::Reg(tid, r) => self.reg_label(tid, r),
                Loc::Mem(a) => self.mem.get(a),
            };
            cache[*id as usize] = Some(v);
        }

        for ev in &s.events {
            match ev {
                Event::MemWrite { addr, label } => {
                    let l = s.eval(&mut cache, label);
                    if let Some(r) = rec.as_deref_mut() {
                        r.actions.push(ReplayAction::Mem(*addr, l.clone()));
                    }
                    // The engine's own counter-maintaining write keeps
                    // peak statistics exact under replay.
                    self.set_mem_label(*addr, l);
                }
                Event::Alert { step, tid, at, kind, label, origin } => {
                    let l = s.eval(&mut cache, label);
                    if l.is_clean() {
                        continue; // conditional alert did not fire
                    }
                    let origin = match origin {
                        OriginRef::None => None,
                        OriginRef::Cell(cell, sym) => Some((*cell, s.eval(&mut cache, sym))),
                        OriginRef::IncomingReg(r) => {
                            // Resolved through live engine state (the
                            // epoch-entry origin table and mid-replay
                            // shadow), not through incoming labels —
                            // equal inputs do not pin it, so a replay
                            // recording cannot keep this application.
                            memoizable = false;
                            self.origins
                                .get(*tid as usize)
                                .and_then(|row| row[r.index()])
                                .map(|cell| (cell, self.mem.get(cell)))
                        }
                    };
                    let alert = TaintAlert {
                        step: *step,
                        tid: *tid,
                        at: *at,
                        kind: *kind,
                        label: l,
                        origin,
                    };
                    if let Some(r) = rec.as_deref_mut() {
                        r.actions.push(ReplayAction::Alert(alert.clone()));
                    }
                    self.alerts.push(TaintAlert { step: alert.step + step_delta, ..alert });
                }
                Event::Output { ch, idx, label } => {
                    let l = s.eval(&mut cache, label);
                    if let Some(r) = rec.as_deref_mut() {
                        r.actions.push(ReplayAction::Output(*ch, *idx, l.clone()));
                    }
                    self.output_labels.push((*ch, *idx, l));
                }
            }
        }

        for (tid, r, sym) in &s.reg_updates {
            let l = s.eval(&mut cache, sym);
            if let Some(rp) = rec.as_deref_mut() {
                rp.reg_updates.push((*tid, *r, l.clone()));
            }
            self.regs[*tid as usize][r.index()] = l;
        }
        if self.track_origins {
            for (tid, r, o) in &s.origin_updates {
                self.origins[*tid as usize][r.index()] = *o;
            }
        }

        self.stats.instrs += s.instrs;
        self.stats.sources += s.sources;
        self.stats.tainted_instrs += s.tainted_known;
        for deps in &s.tainted_cond {
            if deps.iter().any(|id| !s.eval_node(&mut cache, *id).is_clean()) {
                self.stats.tainted_instrs += 1;
                if let Some(r) = rec.as_deref_mut() {
                    r.tainted_resolved += 1;
                }
            }
        }
        for (ch, d) in &s.input_delta {
            *self.input_counts.entry(*ch).or_insert(0) += *d;
        }
        for (ch, d) in &s.output_delta {
            *self.output_counts.entry(*ch).or_insert(0) += *d;
        }
        memoizable
    }
}

/// Drive `engine` over `stream` via epoch summaries composed in order —
/// the single-threaded reference for the epoch-parallel engine (and the
/// shape the differential tests exercise).
pub fn process_by_epochs<T: TaintLabel>(
    engine: &mut TaintEngine<T>,
    stream: &[StepEffects],
    epoch_len: usize,
) {
    assert!(epoch_len > 0, "epoch length must be positive");
    let policy = engine.policy();
    let mut base = IoBase::default();
    for chunk in stream.chunks(epoch_len) {
        let s = summarize_epoch::<T>(chunk, policy, &base);
        engine.apply_summary(&s);
        base.advance(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{BitTaint, PcTaint};
    use crate::reference::ReferenceTaintEngine;
    use dift_isa::{BinOp, ProgramBuilder};
    use dift_vm::{Machine, MachineConfig};
    use std::sync::Arc;

    fn capture(p: &Arc<dift_isa::Program>, inputs: &[u64]) -> (Vec<StepEffects>, usize) {
        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, inputs);
        let mem_words = m.mem_words();
        (dift_dbi::capture(m).0, mem_words)
    }

    fn workload() -> Arc<dift_isa::Program> {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 0);
        b.li(Reg(3), 40);
        b.label("loop");
        b.add(Reg(2), Reg(2), Reg(1));
        b.bini(BinOp::Rem, Reg(4), Reg(2), 97);
        b.li(Reg(5), 300);
        b.store(Reg(4), Reg(5), 0);
        b.load(Reg(6), Reg(5), 0);
        b.bini(BinOp::Sub, Reg(3), Reg(3), 1);
        b.branch(dift_isa::BranchCond::Ne, Reg(3), Reg(0), "loop");
        b.output(Reg(2), 0);
        b.halt();
        Arc::new(b.build().unwrap())
    }

    fn check_epochs<T: TaintLabel>(
        stream: &[StepEffects],
        mem_words: usize,
        policy: TaintPolicy,
        epoch_len: usize,
    ) {
        let mut oracle = ReferenceTaintEngine::<T>::new(policy);
        for fx in stream {
            oracle.process(fx);
        }
        let mut epoch = TaintEngine::<T>::new(policy);
        epoch.pre_size(mem_words);
        process_by_epochs(&mut epoch, stream, epoch_len);
        assert_eq!(epoch.output_labels, oracle.output_labels, "epoch_len={epoch_len}");
        assert_eq!(epoch.alerts, oracle.alerts, "epoch_len={epoch_len}");
        assert_eq!(epoch.tainted_words(), oracle.tainted_words(), "epoch_len={epoch_len}");
        assert_eq!(epoch.stats(), oracle.stats(), "epoch_len={epoch_len}");
    }

    #[test]
    fn epoch_composition_matches_serial_for_all_epoch_lengths() {
        let p = workload();
        let (stream, mem_words) = capture(&p, &[7]);
        for epoch_len in [1, 3, 16, 64, stream.len()] {
            check_epochs::<BitTaint>(&stream, mem_words, TaintPolicy::propagate_only(), epoch_len);
            check_epochs::<PcTaint>(&stream, mem_words, TaintPolicy::propagate_only(), epoch_len);
        }
    }

    #[test]
    fn epoch_composition_matches_serial_with_checks() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.addi(Reg(2), Reg(1), 100);
        b.li(Reg(3), 1);
        b.store(Reg(3), Reg(2), 0); // tainted store address -> alert
        b.load(Reg(4), Reg(2), 0); // tainted load address -> alert
        b.output(Reg(4), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let (stream, mem_words) = capture(&p, &[4]);
        let mut policy = TaintPolicy::default();
        for epoch_len in [1, 2, 5, 64] {
            check_epochs::<PcTaint>(&stream, mem_words, policy, epoch_len);
        }
        policy.propagate_through_addr = true;
        for epoch_len in [1, 2, 5, 64] {
            check_epochs::<BitTaint>(&stream, mem_words, policy, epoch_len);
        }
    }

    #[test]
    fn summaries_fold_concrete_chains_eagerly() {
        // A stream whose taint is created *inside* the epoch needs no
        // symbolic nodes beyond the interned register file.
        let p = workload();
        let (stream, _) = capture(&p, &[7]);
        let s =
            summarize_epoch::<BitTaint>(&stream, TaintPolicy::propagate_only(), &IoBase::default());
        assert_eq!(
            s.node_count(),
            NUM_REGS,
            "only the per-tid incoming register nodes should exist"
        );
        // Splitting the same stream mid-loop forces symbolic chains.
        let mid = stream.len() / 2;
        let mut base = IoBase::default();
        base.advance(&stream[..mid]);
        let s2 = summarize_epoch::<BitTaint>(&stream[mid..], TaintPolicy::propagate_only(), &base);
        assert!(s2.node_count() > NUM_REGS, "incoming-dependent chains are symbolic");
    }

    use dift_isa::Reg;
}
