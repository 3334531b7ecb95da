//! The generic DIFT engine (a DBI tool), and the one taint transfer
//! function it shares with the epoch summarizer.
//!
//! Every taint rule — which uses are sources, which address uses alert,
//! how `In` creates and `Out` observes a label — lives in one
//! crate-private `step`, generic over the label state it reads and
//! writes. [`TaintEngine::process`] is that step over the concrete
//! shadow; the epoch summarizer (`crate::summary`) is the same step over
//! labels that may depend on unknown epoch-entry state.

use crate::costs;
use crate::label::{LabelCtx, TaintLabel};
use crate::policy::TaintPolicy;
use crate::shadow::ShadowMap;
use dift_dbi::Tool;
use dift_isa::{Addr, MemAddr, Opcode, Reg, NUM_REGS};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_vm::{Machine, RunResult, StepEffects, ThreadId};
use std::collections::HashMap;

/// Upper bound on per-instruction source labels: ≤2 data uses (3 for
/// CAS via `reg_uses` shapes), ≤1 address use under pointer-taint, plus
/// the memory-read label — 8 leaves slack for ISA growth. Sized so the
/// hot path gathers sources into an inline array and never allocates.
const MAX_SOURCES: usize = 8;

/// Why an alert fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// Tainted value used as a load address.
    TaintedLoadAddr,
    /// Tainted value used as a store address.
    TaintedStoreAddr,
    /// Tainted value used as an indirect jump/call target.
    TaintedControl,
}

/// One attack-detection alert.
#[derive(Clone, Debug, PartialEq)]
pub struct TaintAlert<T> {
    pub step: u64,
    pub tid: ThreadId,
    /// Instruction that performed the suspicious use.
    pub at: Addr,
    pub kind: AlertKind,
    /// The offending label — for [`crate::PcTaint`] this carries the PC
    /// of the instruction that last wrote the tainted value, i.e. the
    /// root-cause candidate.
    pub label: T,
    /// When the offending register was produced by a load, the memory
    /// cell it came from and that cell's label *at alert time*. For a
    /// memory-overwrite attack this is the paper's root-cause pointer:
    /// the most recent instruction that wrote the corrupted location
    /// (e.g. the overflowing store).
    pub origin: Option<(MemAddr, T)>,
}

/// Engine statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaintStats {
    pub instrs: u64,
    /// Instructions that touched at least one tainted value.
    pub tainted_instrs: u64,
    /// Taint sources created (input words read).
    pub sources: u64,
    /// Peak count of tainted memory words (exact: updated on every
    /// shadow write from the running counter).
    pub peak_tainted_words: usize,
    /// Peak shadow bytes across tainted memory words (exact).
    pub peak_shadow_bytes: usize,
}

/// Per-channel `In`/`Out` counts: the engine's running counts, and the
/// counts of the stream prefix before an epoch.
///
/// Source labels (`T::source(ctx, ch, index)`) and output lineage use
/// *global* per-channel indices; those are label-independent functions of
/// the stream itself, so a cheap sequential pre-scan provides them to
/// each epoch worker before summarization fans out.
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

/// The label state one taint [`step`] reads and writes: the engine's
/// concrete shadow, or the summarizer's symbolic overlay.
pub(crate) trait TaintState<T: TaintLabel> {
    /// The label the state stores (`T` itself for the engine).
    type Label: Clone + Default + From<T>;

    /// Per-channel counts; the step draws source and emit indices here.
    fn io(&mut self) -> &mut IoBase;

    /// Thread `tid`'s register labels, created on first use.
    fn regs(&mut self, tid: ThreadId) -> &mut [Self::Label];

    /// Label of memory word `addr`.
    fn read_mem(&mut self, addr: MemAddr) -> Self::Label;

    /// True only for a label that is clean whatever state it depends on.
    fn is_clean(label: &Self::Label) -> bool;

    /// `T::propagate(sources, ctx)`. Called only when some source is not
    /// clean: the trait contract fixes propagate(all-clean) = clean.
    fn join(&mut self, sources: &[Self::Label], ctx: &LabelCtx) -> Self::Label;

    /// Count one step: `tainted` when some source is not clean.
    fn count_step(&mut self, sources: &[Self::Label], is_source: bool, tainted: bool);

    /// A tainted address register `r` of `fx` raised a `kind` alert.
    fn alert(&mut self, fx: &StepEffects, kind: AlertKind, r: Reg, label: Self::Label);

    /// Define `r`; `origin` is the loaded cell for a load, else `None`.
    fn write_reg(&mut self, tid: ThreadId, r: Reg, label: Self::Label, origin: Option<MemAddr>);

    /// Write memory word `addr`.
    fn write_mem(&mut self, addr: MemAddr, label: Self::Label);

    /// The `idx`-th word emitted on channel `ch` carries `label`.
    fn output(&mut self, ch: u16, idx: u64, label: Self::Label);
}

/// The taint transfer function: one step's effects applied to `s`.
///
/// Sources gather in order — data uses, then address uses when the
/// policy propagates through them, then the memory read. Address checks
/// fire before any write, so an alert sees the pre-step state. Only the
/// destinations of `fx` store the step's label, so a step without one
/// never joins.
pub(crate) fn step<T: TaintLabel, S: TaintState<T>>(
    s: &mut S,
    policy: &TaintPolicy,
    fx: &StepEffects,
) {
    let tid = fx.tid;
    let ctx = LabelCtx { addr: fx.addr, step: fx.step, stmt: fx.insn.stmt };

    // Operand queries are pure functions of the opcode — compute each
    // exactly once per step.
    let data_uses = fx.insn.data_uses();
    let addr_uses = fx.insn.addr_uses();

    // Gather source labels into an inline buffer (no allocation).
    let mut sources: [S::Label; MAX_SOURCES] = std::array::from_fn(|_| S::Label::default());
    let mut nsrc = 0usize;
    {
        let regs = s.regs(tid);
        for r in &data_uses {
            debug_assert!(nsrc < MAX_SOURCES, "data-use gather exceeds MAX_SOURCES");
            sources[nsrc] = regs[r.index()].clone();
            nsrc += 1;
        }
        if policy.propagate_through_addr {
            for r in &addr_uses {
                debug_assert!(nsrc < MAX_SOURCES, "addr-use gather exceeds MAX_SOURCES");
                sources[nsrc] = regs[r.index()].clone();
                nsrc += 1;
            }
        }
    }
    if let Some((addr, _)) = fx.mem_read {
        debug_assert!(
            nsrc < MAX_SOURCES,
            "memory-read gather exceeds MAX_SOURCES; widen the budget for this ISA shape"
        );
        sources[nsrc] = s.read_mem(addr);
        nsrc += 1;
    }
    let sources = &sources[..nsrc];
    let tainted = sources.iter().any(|l| !S::is_clean(l));

    // Checks (before the write-side update).
    if policy.check_mem_addr || policy.check_control {
        for r in &addr_uses {
            let label = &s.regs(tid)[r.index()];
            if S::is_clean(label) {
                continue;
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
                AlertKind::TaintedControl => policy.check_control,
                _ => policy.check_mem_addr,
            };
            if wanted {
                let label = label.clone();
                s.alert(fx, kind, r, label);
            }
        }
    }

    // Write-side propagation.
    let is_source = matches!(fx.insn.op, Opcode::In { .. });
    let out_label = if is_source {
        let (ch, _) = fx.input.expect("In always has an input effect");
        let idx = s.io().inputs.entry(ch).or_insert(0);
        let l = T::source(&ctx, ch, *idx);
        *idx += 1;
        S::Label::from(l)
    } else if tainted && (fx.reg_write.is_some() || fx.mem_write.is_some()) {
        s.join(sources, &ctx)
    } else {
        // Clean sources give a clean label, and a label no destination
        // stores is never observed: the dominant case skips the join.
        S::Label::default()
    };
    s.count_step(sources, is_source, tainted);

    if let Some((r, _, _)) = fx.reg_write {
        let origin = match fx.insn.op {
            Opcode::Load { .. } => fx.mem_read.map(|(a, _)| a),
            _ => None,
        };
        s.write_reg(tid, r, out_label.clone(), origin);
    }
    if let Some((addr, _, _)) = fx.mem_write {
        s.write_mem(addr, out_label);
    }

    // Output sink labels.
    if let Some((ch, _)) = fx.output {
        let idx = s.io().outputs.entry(ch).or_insert(0);
        let i = *idx;
        *idx += 1;
        let label = data_uses
            .as_slice()
            .first()
            .map(|r| s.regs(tid)[r.index()].clone())
            .unwrap_or_default();
        s.output(ch, i, label);
    }
}

/// The DIFT engine, generic over the label lattice and an observability
/// [`Recorder`].
///
/// With the default [`NoopRecorder`] every probe monomorphizes away and
/// the engine compiles to the same machine code as an unprobed one
/// (`crates/bench/benches/obs.rs` keeps that honest). Construct with a
/// live recorder via [`TaintEngine::with_recorder`].
///
/// Fields are crate-visible so the epoch-summary composition pass
/// (`crate::summary`) can splice a summarized window of execution into
/// the engine's state exactly as if [`Self::process`] had stepped it.
pub struct TaintEngine<T: TaintLabel, R: Recorder = NoopRecorder> {
    pub(crate) policy: TaintPolicy,
    /// Origins feed alert root-cause pointers only; when the policy has
    /// every check disabled they are unobservable, so the hot path skips
    /// maintaining them.
    pub(crate) track_origins: bool,
    pub(crate) regs: Vec<Vec<T>>,
    /// Per (tid, reg): the memory cell a register was most recently
    /// loaded from (None after any non-load definition).
    pub(crate) origins: Vec<Vec<Option<MemAddr>>>,
    pub(crate) mem: ShadowMap<T>,
    /// Words read and emitted so far, per channel.
    pub(crate) io: IoBase,
    pub alerts: Vec<TaintAlert<T>>,
    /// Labels observed at `Out` instructions: `(channel, emit index,
    /// label)` — the lineage of each output word.
    pub output_labels: Vec<(u16, u64, T)>,
    pub(crate) stats: TaintStats,
    /// The probe sink. Public so callers can drain a live recorder
    /// after a run; with [`NoopRecorder`] it is a ZST.
    pub obs: R,
}

impl<T: TaintLabel> TaintEngine<T> {
    /// Unprobed engine (the default `R = NoopRecorder` is inferred at
    /// existing call sites; default type parameters do not drive fn
    /// inference, which is why `new` lives on this narrower impl).
    pub fn new(policy: TaintPolicy) -> TaintEngine<T> {
        TaintEngine::with_recorder(policy, NoopRecorder)
    }
}

impl<T: TaintLabel, R: Recorder> TaintEngine<T, R> {
    /// Engine wired to a live recorder.
    pub fn with_recorder(policy: TaintPolicy, obs: R) -> TaintEngine<T, R> {
        TaintEngine {
            policy,
            track_origins: policy.check_mem_addr || policy.check_control,
            regs: Vec::new(),
            origins: Vec::new(),
            mem: ShadowMap::new(),
            io: IoBase::default(),
            alerts: Vec::new(),
            output_labels: Vec::new(),
            stats: TaintStats::default(),
            obs,
        }
    }

    /// Gauge the shadow-memory metrics into the recorder. Called from
    /// [`Tool::on_finish`]; direct drivers (the multicore helper) call
    /// it before draining `obs`.
    pub fn flush_obs(&mut self) {
        if R::ENABLED {
            self.obs.gauge(Metric::TaintPageAllocs, self.mem.page_allocs());
            self.obs.gauge(Metric::TaintPageFrees, self.mem.page_frees());
            self.obs.gauge(Metric::TaintLivePages, self.mem.live_pages() as u64);
            self.obs.gauge(Metric::TaintTaintedWords, self.mem.tainted_words() as u64);
            self.obs.gauge(Metric::TaintShadowBytes, self.mem.shadow_bytes() as u64);
        }
    }

    pub fn stats(&self) -> &TaintStats {
        &self.stats
    }

    /// The policy this engine runs under.
    pub fn policy(&self) -> TaintPolicy {
        self.policy
    }

    /// Reserve the shadow page table for `mem_words` of data memory so
    /// the steady-state hot path never grows it. Called automatically
    /// from [`Tool::on_start`]; the multicore helper, which drives
    /// [`Self::process`] directly, calls it with the producer's size.
    pub fn pre_size(&mut self, mem_words: usize) {
        self.mem.pre_size(mem_words);
    }

    /// The memory shadow (tests, differential comparison).
    pub fn shadow(&self) -> &ShadowMap<T> {
        &self.mem
    }

    /// Register rows for every tid up to `tid`. Cold: the step meets a
    /// new thread once, and keeping this out of line keeps its register
    /// lookup inlined.
    #[cold]
    pub(crate) fn ensure_tid(&mut self, tid: ThreadId) {
        while self.regs.len() <= tid as usize {
            self.regs.push(vec![T::default(); NUM_REGS]);
            self.origins.push(vec![None; NUM_REGS]);
        }
    }

    /// Label of a register (clean default for unseen tids — read-only,
    /// so observing a register never grows engine state).
    pub fn reg_label(&self, tid: ThreadId, r: Reg) -> T {
        self.regs.get(tid as usize).map(|rs| rs[r.index()].clone()).unwrap_or_default()
    }

    /// Label of a memory word (clean if never written tainted).
    pub fn mem_label(&self, addr: MemAddr) -> T {
        self.mem.get(addr)
    }

    /// Number of currently tainted memory words.
    pub fn tainted_words(&self) -> usize {
        self.mem.tainted_words()
    }

    /// Process one step's effects — also callable outside the Tool
    /// interface (the multicore helper thread drives this directly).
    ///
    /// Steady-state this performs zero heap allocations: source labels
    /// gather into an inline array, the shadow lookup is two array
    /// indexes, and peaks update from running counters.
    pub fn process(&mut self, fx: &StepEffects) {
        let policy = self.policy;
        step(self, &policy, fx);
    }
}

/// The concrete state: labels are `T`, and the probes live here.
impl<T: TaintLabel, R: Recorder> TaintState<T> for TaintEngine<T, R> {
    type Label = T;

    fn io(&mut self) -> &mut IoBase {
        &mut self.io
    }

    fn regs(&mut self, tid: ThreadId) -> &mut [T] {
        if tid as usize >= self.regs.len() {
            self.ensure_tid(tid);
        }
        &mut self.regs[tid as usize]
    }

    fn read_mem(&mut self, addr: MemAddr) -> T {
        self.mem.get(addr)
    }

    fn is_clean(label: &T) -> bool {
        label.is_clean()
    }

    fn join(&mut self, sources: &[T], ctx: &LabelCtx) -> T {
        T::propagate(sources, ctx)
    }

    fn count_step(&mut self, sources: &[T], is_source: bool, tainted: bool) {
        self.stats.instrs += 1;
        if is_source {
            self.stats.sources += 1;
        }
        if tainted || is_source {
            self.stats.tainted_instrs += 1;
        }
        if R::ENABLED {
            self.obs.add(Metric::TaintProcessCalls, 1);
            if is_source {
                self.obs.add(Metric::TaintSources, 1);
            }
            if tainted {
                self.obs.add(Metric::TaintTaintedSteps, 1);
                self.obs.observe(Metric::TaintJoinWidth, sources.len() as u64);
            } else if !is_source {
                self.obs.add(Metric::TaintCleanFastPath, 1);
            }
        }
    }

    fn alert(&mut self, fx: &StepEffects, kind: AlertKind, r: Reg, label: T) {
        let origin =
            self.origins[fx.tid as usize][r.index()].map(|cell| (cell, self.mem.get(cell)));
        self.alerts.push(TaintAlert {
            step: fx.step,
            tid: fx.tid,
            at: fx.addr,
            kind,
            label,
            origin,
        });
        if R::ENABLED {
            self.obs.add(Metric::TaintAlerts, 1);
        }
    }

    fn write_reg(&mut self, tid: ThreadId, r: Reg, label: T, origin: Option<MemAddr>) {
        self.regs[tid as usize][r.index()] = label;
        if self.track_origins {
            self.origins[tid as usize][r.index()] = origin;
        }
    }

    fn write_mem(&mut self, addr: MemAddr, label: T) {
        self.mem.set(addr, label);
        // Running counters make peak tracking O(1) per write; the old
        // HashMap engine rescanned the whole map at every new peak.
        if self.mem.tainted_words() > self.stats.peak_tainted_words {
            self.stats.peak_tainted_words = self.mem.tainted_words();
        }
        if self.mem.shadow_bytes() > self.stats.peak_shadow_bytes {
            self.stats.peak_shadow_bytes = self.mem.shadow_bytes();
        }
    }

    fn output(&mut self, ch: u16, idx: u64, label: T) {
        self.output_labels.push((ch, idx, label));
    }
}

impl<T: TaintLabel, R: Recorder> Tool for TaintEngine<T, R> {
    fn on_start(&mut self, m: &mut Machine) {
        // Pre-size the shadow page table to the machine's data memory so
        // the steady-state hot path never reallocates it.
        self.mem.pre_size(m.mem_words());
    }

    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        if self.policy.charge_cycles {
            let mut c = costs::TAINT_PER_INSN;
            if fx.mem_read.is_some() || fx.mem_write.is_some() {
                c += costs::TAINT_PER_MEM;
            }
            m.charge(c);
        }
        self.process(fx);
    }

    fn on_finish(&mut self, _m: &mut Machine, _r: &RunResult) {
        self.flush_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{BitTaint, PcTaint};
    use dift_dbi::Engine;
    use dift_isa::{BinOp, Program, ProgramBuilder};
    use dift_vm::MachineConfig;
    use std::sync::Arc;

    fn run<T: TaintLabel>(
        p: &Arc<Program>,
        policy: TaintPolicy,
        inputs: &[u64],
    ) -> (TaintEngine<T>, dift_vm::RunResult) {
        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, inputs);
        let mut engine = Engine::new(m);
        let mut taint = TaintEngine::<T>::new(policy);
        let r = engine.run_tool(&mut taint);
        (taint, r)
    }

    #[test]
    fn taint_flows_input_to_output() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.bini(BinOp::Mul, Reg(2), Reg(1), 3);
        b.output(Reg(2), 0);
        b.li(Reg(3), 7); // clean
        b.output(Reg(3), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let (t, r) = run::<BitTaint>(&p, TaintPolicy::propagate_only(), &[5]);
        assert!(r.status.is_clean());
        assert_eq!(t.output_labels.len(), 2);
        assert!(!t.output_labels[0].2.is_clean(), "derived from input");
        assert!(t.output_labels[1].2.is_clean(), "constant");
        assert_eq!(t.stats().sources, 1);
    }

    #[test]
    fn taint_flows_through_memory() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 200);
        b.store(Reg(1), Reg(2), 0); // mem[200] tainted
        b.load(Reg(3), Reg(2), 0);
        b.output(Reg(3), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let (t, _) = run::<BitTaint>(&p, TaintPolicy::propagate_only(), &[9]);
        assert!(!t.output_labels[0].2.is_clean());
        assert_eq!(t.tainted_words(), 1);
        assert_eq!(t.stats().peak_tainted_words, 1);
    }

    #[test]
    fn overwrite_with_clean_value_untaints() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 200);
        b.store(Reg(1), Reg(2), 0); // tainted
        b.li(Reg(3), 0);
        b.store(Reg(3), Reg(2), 0); // clean overwrite
        b.load(Reg(4), Reg(2), 0);
        b.output(Reg(4), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let (t, _) = run::<BitTaint>(&p, TaintPolicy::propagate_only(), &[9]);
        assert!(t.output_labels[0].2.is_clean());
        assert_eq!(t.tainted_words(), 0);
    }

    #[test]
    fn tainted_indirect_call_raises_control_alert() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0); // attacker-controlled
        b.call_ind(Reg(1)); // jump through tainted pointer
        b.halt();
        b.func("gadget");
        b.ret();
        let p = Arc::new(b.build().unwrap());
        // Input value = address of `gadget` so the run stays clean.
        let gadget = p.func_by_name("gadget").unwrap();
        let entry = p.funcs()[gadget as usize].entry as u64;
        let (t, r) = run::<BitTaint>(&p, TaintPolicy::default(), &[entry]);
        assert!(r.status.is_clean());
        assert_eq!(t.alerts.len(), 1);
        assert_eq!(t.alerts[0].kind, AlertKind::TaintedControl);
    }

    #[test]
    fn tainted_store_address_raises_alert_with_pc_label() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0); // 0: tainted index
        b.addi(Reg(2), Reg(1), 100); // 1: tainted address  <- last writer
        b.li(Reg(3), 7);
        b.store(Reg(3), Reg(2), 0); // 3: alert here
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let (t, _) = run::<PcTaint>(&p, TaintPolicy::default(), &[4]);
        assert_eq!(t.alerts.len(), 1);
        let a = &t.alerts[0];
        assert_eq!(a.kind, AlertKind::TaintedStoreAddr);
        assert_eq!(a.at, 3);
        // The PC label names the most recent writer of the tainted value
        // — the addi at address 1, the root-cause candidate.
        assert_eq!(a.label.pc(), Some(1));
    }

    #[test]
    fn pointer_taint_policy_propagates_through_addresses() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0); // tainted index
        b.li(Reg(2), 100);
        b.add(Reg(3), Reg(2), Reg(1));
        b.load(Reg(4), Reg(3), 0); // value from tainted address
        b.output(Reg(4), 0);
        b.halt();
        b.data(105, 11);
        let p = Arc::new(b.build().unwrap());

        let mut pol = TaintPolicy::propagate_only();
        let (t, _) = run::<BitTaint>(&p, pol, &[5]);
        assert!(t.output_labels[0].2.is_clean(), "no pointer taint by default");

        pol.propagate_through_addr = true;
        let (t2, _) = run::<BitTaint>(&p, pol, &[5]);
        assert!(!t2.output_labels[0].2.is_clean(), "pointer taint flows");
    }

    #[test]
    fn peak_shadow_accounting_is_exact() {
        // Taint three words, clean two, re-taint one: the peak is the
        // *maximum concurrent* count (3), not the final count (2) nor
        // the total ever tainted (4) — and bytes must match exactly.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 200);
        b.store(Reg(1), Reg(2), 0); // mem[200] tainted
        b.store(Reg(1), Reg(2), 1); // mem[201] tainted
        b.store(Reg(1), Reg(2), 2); // mem[202] tainted -> peak 3
        b.li(Reg(3), 0);
        b.store(Reg(3), Reg(2), 0); // clean mem[200]
        b.store(Reg(3), Reg(2), 1); // clean mem[201]
        b.store(Reg(1), Reg(2), 7); // mem[207] tainted (back to 2)
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let (t, _) = run::<PcTaint>(&p, TaintPolicy::propagate_only(), &[9]);
        assert_eq!(t.tainted_words(), 2);
        assert_eq!(t.stats().peak_tainted_words, 3);
        assert_eq!(t.stats().peak_shadow_bytes, 3 * 4, "three PcTaint words at peak");
        assert_eq!(t.shadow().shadow_bytes(), 2 * 4);
    }

    #[test]
    fn unseen_tid_reg_label_is_clean_without_mutation() {
        let e = TaintEngine::<BitTaint>::new(TaintPolicy::default());
        assert!(e.reg_label(7, Reg(3)).is_clean());
        // Read-only observation: no per-thread state materialized.
        assert_eq!(e.tainted_words(), 0);
    }

    #[test]
    fn widest_cas_shape_stays_within_source_budget() {
        // CAS under pointer-taint propagation is the widest gather the
        // ISA produces today: a data use (`new`), an address use
        // (`base`, gathered because `propagate_through_addr` is on), and
        // the memory-read label — all through a tainted pointer, so the
        // address checks fire too. The debug_assert guards in
        // `process()` must hold and the labels must match the reference
        // engine bit for bit.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0); // tainted value
        b.input(Reg(2), 0); // tainted index
        b.bini(BinOp::And, Reg(3), Reg(2), 63);
        b.li(Reg(4), 100);
        b.add(Reg(4), Reg(4), Reg(3)); // tainted address
        b.store(Reg(1), Reg(4), 0); // seed tainted memory through it
        b.cas(Reg(5), Reg(4), Reg(1), Reg(1)); // base + expected + new, reads and writes memory
        b.output(Reg(5), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let pol = TaintPolicy { propagate_through_addr: true, ..Default::default() };

        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, &[9, 5]);
        let (cap_fx, _) = dift_dbi::capture(m);

        let mut fast = TaintEngine::<PcTaint>::new(pol);
        let mut oracle = crate::ReferenceTaintEngine::<PcTaint>::new(pol);
        for fx in &cap_fx {
            fast.process(fx);
            oracle.process(fx);
        }
        // The tainted store address and the tainted CAS address both alert.
        assert_eq!(fast.alerts.len(), 2);
        assert_eq!(fast.alerts[1].kind, AlertKind::TaintedStoreAddr);
        assert!(!fast.output_labels[0].2.is_clean(), "CAS result carries taint");
        assert_eq!(fast.output_labels, oracle.output_labels);
        assert_eq!(fast.alerts, oracle.alerts);
    }

    #[test]
    fn charging_increases_cycles() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 5);
        b.li(Reg(2), 6);
        b.add(Reg(3), Reg(1), Reg(2));
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let mut bare = Machine::new(p.clone(), MachineConfig::small());
        let native = bare.run().cycles;
        let (_, r) = run::<BitTaint>(&p, TaintPolicy::default(), &[]);
        assert!(r.cycles > native);
    }

    use dift_isa::Reg;
}
