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
//! The summarizer is no copy of the engine: it is the engine's own
//! transfer function (`crate::engine::step`) run over a symbolic state,
//! so every taint rule is written once. The symbolic domain is a small
//! expression DAG, generic over any [`TaintLabel`]:
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
//! counter-maintaining shadow write.

use crate::engine::{step, AlertKind, IoBase, TaintAlert, TaintEngine, TaintState};
use crate::label::{LabelCtx, TaintLabel};
use crate::policy::TaintPolicy;
use dift_isa::{Addr, MemAddr, Reg, NUM_REGS, SHADOW_PAGE_WORDS};
use dift_obs::Recorder;
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
pub(crate) enum SymLabel<T> {
    /// Fully determined within the epoch.
    Concrete(T),
    /// Index into the summary's node arena.
    Node(u32),
}

impl<T: Default> Default for SymLabel<T> {
    fn default() -> SymLabel<T> {
        SymLabel::Concrete(T::default())
    }
}

impl<T> From<T> for SymLabel<T> {
    fn from(label: T) -> SymLabel<T> {
        SymLabel::Concrete(label)
    }
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
    /// Final label and origin of every register the epoch wrote.
    reg_updates: Vec<(ThreadId, Reg, SymLabel<T>, Option<MemAddr>)>,
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
/// in order via [`Self::step`], then [`Self::finish`]. It is the
/// engine's transfer function over a symbolic [`TaintState`]: incoming
/// cells intern on first read, and every observation is recorded as a
/// replayable event.
pub(crate) struct EpochSummarizer<T: TaintLabel> {
    policy: TaintPolicy,
    nodes: Vec<Node<T>>,
    incoming: Vec<(u32, Loc)>,
    events: Vec<Event<T>>,
    /// Per-tid symbolic register file (rows intern incoming nodes).
    regs: Vec<Vec<SymLabel<T>>>,
    /// Per-tid origins; `Known` marks the registers the epoch wrote.
    origins: Vec<Vec<OriginState>>,
    /// Paged shadow overlay (same page geometry as `ShadowMap`).
    mem_pages: Vec<Option<Box<[OverlayCell<T>]>>>,
    /// Running per-channel counts, seeded with the stream prefix's.
    io: IoBase,
    base: IoBase,
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
    pub(crate) fn new(policy: TaintPolicy, base: &IoBase) -> EpochSummarizer<T> {
        EpochSummarizer {
            policy,
            nodes: Vec::new(),
            incoming: Vec::new(),
            events: Vec::new(),
            regs: Vec::new(),
            origins: Vec::new(),
            mem_pages: Vec::new(),
            io: base.clone(),
            base: base.clone(),
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

    /// Register rows for every tid up to `tid`, each register an
    /// incoming node (cold, as the engine's).
    #[cold]
    fn ensure_tid(&mut self, tid: ThreadId) {
        while self.regs.len() <= tid as usize {
            let t = self.regs.len() as ThreadId;
            let row: Vec<SymLabel<T>> = (0..NUM_REGS)
                .map(|r| SymLabel::Node(self.intern_incoming(Loc::Reg(t, Reg(r as u8)))))
                .collect();
            self.regs.push(row);
            self.origins.push(vec![OriginState::Incoming; NUM_REGS]);
        }
    }

    /// The overlay cell of shadow word `addr`, its page allocated on
    /// first touch.
    fn cell(&mut self, addr: MemAddr) -> &mut OverlayCell<T> {
        let (p, off) = (addr as usize / SHADOW_PAGE_WORDS, addr as usize % SHADOW_PAGE_WORDS);
        if p >= self.mem_pages.len() {
            self.mem_pages.resize_with(p + 1, || None);
        }
        let page = self.mem_pages[p]
            .get_or_insert_with(|| (0..SHADOW_PAGE_WORDS).map(|_| OverlayCell::Empty).collect());
        &mut page[off]
    }

    /// Summarize one step.
    pub(crate) fn step(&mut self, fx: &StepEffects) {
        let policy = self.policy;
        step(self, &policy, fx);
    }

    /// Seal the summary.
    pub(crate) fn finish(self) -> EpochSummary<T> {
        let mut reg_updates = Vec::new();
        for (t, row) in self.origins.iter().enumerate() {
            for (r, origin) in row.iter().enumerate() {
                if let OriginState::Known(o) = *origin {
                    reg_updates.push((t as ThreadId, Reg(r as u8), self.regs[t][r].clone(), o));
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
            input_delta: delta(&self.io.inputs, &self.base.inputs),
            output_delta: delta(&self.io.outputs, &self.base.outputs),
            nodes: self.nodes,
            incoming: self.incoming,
            events: self.events,
            reg_updates,
            // Every step reads its thread's register file, so the rows
            // end at the highest tid stepped.
            max_tid: self.regs.len().checked_sub(1).map(|t| t as ThreadId),
            instrs: self.instrs,
            sources: self.sources,
            tainted_known: self.tainted_known,
            tainted_cond: self.tainted_cond,
        }
    }
}

/// The symbolic state: unknown epoch-entry labels intern as nodes, and
/// every observation the engine would make is recorded as an event.
impl<T: TaintLabel> TaintState<T> for EpochSummarizer<T> {
    type Label = SymLabel<T>;

    fn io(&mut self) -> &mut IoBase {
        &mut self.io
    }

    fn regs(&mut self, tid: ThreadId) -> &mut [SymLabel<T>] {
        if tid as usize >= self.regs.len() {
            self.ensure_tid(tid);
        }
        &mut self.regs[tid as usize]
    }

    /// Interns (and caches) an incoming node on the first read of an
    /// unwritten cell.
    fn read_mem(&mut self, addr: MemAddr) -> SymLabel<T> {
        match self.cell(addr) {
            OverlayCell::Incoming(id) => return SymLabel::Node(*id),
            OverlayCell::Written(l) => return l.clone(),
            OverlayCell::Empty => {}
        }
        let id = self.intern_incoming(Loc::Mem(addr));
        *self.cell(addr) = OverlayCell::Incoming(id);
        SymLabel::Node(id)
    }

    fn is_clean(label: &SymLabel<T>) -> bool {
        matches!(label, SymLabel::Concrete(l) if l.is_clean())
    }

    /// Folds when every source is concrete; otherwise keeps the full,
    /// ordered propagate call symbolic (even when a concrete source is
    /// already tainted — a lattice like a lineage set still depends on
    /// the unknown arguments' values).
    fn join(&mut self, sources: &[SymLabel<T>], ctx: &LabelCtx) -> SymLabel<T> {
        self.scratch.clear();
        self.scratch.extend(sources.iter().filter_map(|l| match l {
            SymLabel::Concrete(l) => Some(l.clone()),
            SymLabel::Node(_) => None,
        }));
        if self.scratch.len() == sources.len() {
            return SymLabel::Concrete(T::propagate(&self.scratch, ctx));
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Prop { ctx: *ctx, args: sources.to_vec() });
        SymLabel::Node(id)
    }

    /// Taintedness is known when the step is a source or a concrete
    /// source is tainted; otherwise it is conditional on the symbolic
    /// sources.
    fn count_step(&mut self, sources: &[SymLabel<T>], is_source: bool, tainted: bool) {
        self.instrs += 1;
        if is_source {
            self.sources += 1;
        }
        if is_source || sources.iter().any(|l| matches!(l, SymLabel::Concrete(l) if !l.is_clean()))
        {
            self.tainted_known += 1;
        } else if tainted {
            self.tainted_cond.push(
                sources
                    .iter()
                    .filter_map(|l| match l {
                        SymLabel::Node(id) => Some(*id),
                        SymLabel::Concrete(_) => None,
                    })
                    .collect(),
            );
        }
    }

    fn alert(&mut self, fx: &StepEffects, kind: AlertKind, r: Reg, label: SymLabel<T>) {
        let origin = match self.origins[fx.tid as usize][r.index()] {
            OriginState::Known(None) => OriginRef::None,
            OriginState::Known(Some(cell)) => OriginRef::Cell(cell, self.read_mem(cell)),
            OriginState::Incoming => OriginRef::IncomingReg(r),
        };
        self.events.push(Event::Alert {
            step: fx.step,
            tid: fx.tid,
            at: fx.addr,
            kind,
            label,
            origin,
        });
    }

    fn write_reg(&mut self, tid: ThreadId, r: Reg, label: SymLabel<T>, origin: Option<MemAddr>) {
        self.regs[tid as usize][r.index()] = label;
        self.origins[tid as usize][r.index()] = OriginState::Known(origin);
    }

    fn write_mem(&mut self, addr: MemAddr, label: SymLabel<T>) {
        *self.cell(addr) = OverlayCell::Written(label.clone());
        self.events.push(Event::MemWrite { addr, label });
    }

    fn output(&mut self, ch: u16, idx: u64, label: SymLabel<T>) {
        self.events.push(Event::Output { ch, idx, label });
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
#[derive(Default)]
pub(crate) struct ApplyMemo<T: TaintLabel> {
    /// Incoming labels at the last recorded application, in
    /// `EpochSummary::incoming` order.
    inputs: Vec<T>,
    /// Concretized actions of that application; `None` until one runs
    /// (or when the application is inherently non-memoizable).
    replay: Option<Replay<T>>,
}

impl<T: TaintLabel> ApplyMemo<T> {
    /// Approximate resident bytes (cache-storage accounting).
    pub(crate) fn approx_bytes(&self) -> u64 {
        let actions =
            self.replay.as_ref().map(|r| r.actions.len() + r.reg_labels.len()).unwrap_or(0);
        (self.inputs.len() + actions) as u64 * 16
    }
}

#[derive(Default)]
struct Replay<T: TaintLabel> {
    /// Writes, firing alerts, and outputs in event order. Alert steps
    /// keep the summary's recorded values; the caller's `step_delta` is
    /// added at replay time.
    actions: Vec<ReplayAction<T>>,
    /// Final concrete labels of the summary's `reg_updates`, in order.
    reg_labels: Vec<T>,
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

impl<T: TaintLabel, R: Recorder> TaintEngine<T, R> {
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
    pub(crate) fn apply_summary_memoized(
        &mut self,
        s: &EpochSummary<T>,
        step_delta: u64,
        memo: &mut ApplyMemo<T>,
    ) -> bool {
        if let Some(replay) = &memo.replay {
            let same = memo.inputs.len() == s.incoming.len()
                && s.incoming
                    .iter()
                    .zip(&memo.inputs)
                    .all(|((_, loc), prev)| self.incoming_label(*loc) == *prev);
            if same {
                self.replay(s, replay, step_delta, true);
                return true;
            }
        }
        // Inputs changed (or first application): run the full path while
        // re-recording the concretized actions for the next hit.
        memo.inputs.clear();
        memo.inputs.extend(s.incoming.iter().map(|(_, loc)| self.incoming_label(*loc)));
        let mut replay = Replay::default();
        let memoizable = self.apply_summary_inner(s, step_delta, Some(&mut replay));
        memo.replay = memoizable.then_some(replay);
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
    pub(crate) fn apply_summary_sealed(
        &mut self,
        s: &EpochSummary<T>,
        step_delta: u64,
        memo: &ApplyMemo<T>,
    ) -> bool {
        let Some(replay) = &memo.replay else {
            return false;
        };
        self.replay(s, replay, step_delta, false);
        true
    }

    /// The label `loc` carries now (an incoming unknown's value).
    fn incoming_label(&self, loc: Loc) -> T {
        match loc {
            Loc::Reg(tid, r) => self.reg_label(tid, r),
            Loc::Mem(a) => self.mem.get(a),
        }
    }

    /// The one replay body of a memoized application: appends the
    /// replay's rebased alerts and its outputs and, unless the engine
    /// already holds the replay's post-state (`writes` false), its label
    /// and origin writes. The full application that recorded the replay
    /// created every register row it writes.
    fn replay(&mut self, s: &EpochSummary<T>, rp: &Replay<T>, step_delta: u64, writes: bool) {
        for a in &rp.actions {
            match a {
                ReplayAction::Mem(addr, l) => {
                    if writes {
                        self.write_mem(*addr, l.clone());
                    }
                }
                ReplayAction::Alert(al) => {
                    self.alerts.push(TaintAlert { step: al.step + step_delta, ..al.clone() })
                }
                ReplayAction::Output(ch, idx, l) => self.output(*ch, *idx, l.clone()),
            }
        }
        if writes {
            for ((tid, r, _, origin), l) in s.reg_updates.iter().zip(&rp.reg_labels) {
                self.write_reg(*tid, *r, l.clone(), *origin);
            }
        }
        self.add_summary_counts(s, rp.tainted_resolved);
    }

    /// A summary's statistics and per-channel I/O deltas, with
    /// `tainted_resolved` of its conditional tainted steps firing.
    fn add_summary_counts(&mut self, s: &EpochSummary<T>, tainted_resolved: u64) {
        self.stats.instrs += s.instrs;
        self.stats.sources += s.sources;
        self.stats.tainted_instrs += s.tainted_known + tainted_resolved;
        for (ch, d) in &s.input_delta {
            *self.io.inputs.entry(*ch).or_insert(0) += *d;
        }
        for (ch, d) in &s.output_delta {
            *self.io.outputs.entry(*ch).or_insert(0) += *d;
        }
    }

    /// Full application: resolves the node DAG against the engine's
    /// state. When `rec` is given, every concrete action is also
    /// recorded for memoized replay; returns false when the application
    /// is non-memoizable (a firing alert resolved its origin through
    /// live engine state rather than incoming labels).
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
            cache[*id as usize] = Some(self.incoming_label(*loc));
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
                    self.write_mem(*addr, l);
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
                    self.output(*ch, *idx, l);
                }
            }
        }

        for (tid, r, sym, origin) in &s.reg_updates {
            let l = s.eval(&mut cache, sym);
            if let Some(rp) = rec.as_deref_mut() {
                rp.reg_labels.push(l.clone());
            }
            self.write_reg(*tid, *r, l, *origin);
        }

        let resolved = s
            .tainted_cond
            .iter()
            .filter(|deps| deps.iter().any(|id| !s.eval_node(&mut cache, *id).is_clean()))
            .count() as u64;
        if let Some(r) = rec {
            r.tainted_resolved = resolved;
        }
        self.add_summary_counts(s, resolved);
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
