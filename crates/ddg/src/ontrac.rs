//! ONTRAC: online dependence tracing with the paper's optimizations.
//!
//! The tracer is a DBI tool ([`dift_dbi::Tool`]): it maintains last-writer
//! shadow state, derives every dynamic dependence as instructions retire,
//! and appends the dependences that survive its optimizations to the
//! fixed-size circular buffer. Each optimization is independently
//! switchable so the E2 ablation can quantify its contribution:
//!
//! * **Block-static inference** — register dependences whose definition
//!   occurred in the same dynamic basic-block instance are statically
//!   inferable from the binary and are not stored.
//! * **Trace-static inference** — the same across the blocks of a formed
//!   hot trace ([`dift_dbi::TraceBuilder`]).
//! * **Redundant-load elimination** — a load from an address already
//!   loaded since its last store contributes no new dependence edge.
//! * **Selective tracing** — only dependences *used* inside the selected
//!   functions are stored, but shadow state is maintained everywhere so
//!   chains through unselected code remain sound. (The unsound "naive"
//!   mode that simply uninstruments other functions is provided for the
//!   ablation that shows why it is wrong.)
//! * **Forward-slice-of-inputs filtering** — only dependences reached by
//!   input taint are stored, per the observation that root causes lie in
//!   the forward slice of the inputs.
//!
//! Every def a record names comes from a slot that holds the def's
//! whole [`StepSite`]: a [`ShadowState`] register or memory word, the
//! WAR last-reader table, or the [`ControlStack`]'s open region. Each
//! slot is written at the def's own step, so the record's def address
//! and statement are exact however long ago the def ran.

use crate::buffer::{BufRecord, CircularTraceBuffer};
use crate::cold::ColdStore;
use crate::costs;
use crate::dep::{DepKind, StepSite};
use crate::graph::DdgGraph;
use crate::index::SliceIndex;
use crate::shadow::{ControlStack, ShadowState};
use dift_dbi::{Tool, TraceBuilder};
use dift_isa::{Addr, FuncId, Opcode, Program};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_vm::{Machine, Pending, RunResult, StepEffects, ThreadId};
use std::collections::HashSet;
use std::sync::Arc;

/// Block executions at which [`TraceBuilder`] forms a hot trace.
const TRACE_HOT_THRESHOLD: u32 = 16;
/// Most blocks in one formed hot trace.
const TRACE_MAX_BLOCKS: usize = 16;

/// Tracer configuration.
#[derive(Clone, Debug)]
pub struct OnTracConfig {
    /// Circular buffer budget in bytes (paper: 16 MB).
    pub buffer_bytes: usize,
    pub opt_block_static: bool,
    pub opt_trace_static: bool,
    pub opt_redundant_load: bool,
    /// Record only dependences whose *user* lies in these functions.
    pub selective_funcs: Option<HashSet<FuncId>>,
    /// Ablation: ALSO stop updating shadow state outside the selected
    /// functions (the naive, unsound variant the paper warns about).
    pub naive_selective: bool,
    /// Record only input-tainted dependences.
    pub forward_slice_input: bool,
    /// Additionally record WAR/WAW memory dependences (multithreaded
    /// slicing extension used by race detection, §3.1).
    pub record_war_waw: bool,
    /// Spill evicted records into the compressed cold tier
    /// ([`crate::cold::ColdStore`]) so stitched slice queries span the
    /// whole execution instead of dying at the eviction horizon. Off by
    /// default: the cold tier grows with the execution (≈9 B/record),
    /// which long-running ablation sweeps don't want.
    pub cold_tier: bool,
    /// Spill sealed cold-tier segments to checksummed files under this
    /// directory ([`crate::durable`]), so evicted history survives the
    /// process. Implies the cold tier. If the directory cannot be
    /// created the tracer degrades to the in-memory cold tier (counted
    /// by `ColdStore::mem_fallbacks`) rather than failing the run.
    pub durable_dir: Option<std::path::PathBuf>,
    /// Sorted, disjoint `[start, end)` step ranges whose dependences are
    /// *summarized* elsewhere and therefore elided from the buffer — the
    /// "L+summaries" ladder level: ranges covered by taint
    /// summary-cache hits carry no per-instruction records (the cached
    /// transfer summary reconstructs them). Dependences whose **user**
    /// step falls in a range are skipped after being counted as
    /// considered.
    pub elide_steps: Vec<(u64, u64)>,
}

impl OnTracConfig {
    /// All generic optimizations on (the paper's default deployment).
    pub fn optimized(buffer_bytes: usize) -> OnTracConfig {
        OnTracConfig {
            buffer_bytes,
            opt_block_static: true,
            opt_trace_static: true,
            opt_redundant_load: true,
            selective_funcs: None,
            naive_selective: false,
            forward_slice_input: false,
            record_war_waw: false,
            cold_tier: false,
            durable_dir: None,
            elide_steps: Vec::new(),
        }
    }

    /// Everything off: records every dependence (the 16 B/instr regime).
    pub fn unoptimized(buffer_bytes: usize) -> OnTracConfig {
        OnTracConfig {
            buffer_bytes,
            opt_block_static: false,
            opt_trace_static: false,
            opt_redundant_load: false,
            selective_funcs: None,
            naive_selective: false,
            forward_slice_input: false,
            record_war_waw: false,
            cold_tier: false,
            durable_dir: None,
            elide_steps: Vec::new(),
        }
    }
}

/// Tracing statistics for the experiment tables.
#[derive(Clone, Debug, Default)]
pub struct OnTracStats {
    /// Instructions the tracer observed.
    pub instrs: u64,
    /// Dependences derived (before optimization filtering).
    pub deps_considered: u64,
    /// Dependences actually stored.
    pub deps_recorded: u64,
    /// Dependences elided because their user step lies in a summarized
    /// region ([`OnTracConfig::elide_steps`]).
    pub deps_summarized: u64,
    /// Encoded bytes appended to the buffer (pre-eviction total).
    pub bytes_appended: u64,
    /// Steps covered by the buffer at the end of the run.
    pub window_len: u64,
}

impl OnTracStats {
    /// Stored trace density — the paper's headline 0.8 B/instr metric.
    pub fn bytes_per_instr(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.bytes_appended as f64 / self.instrs as f64
        }
    }
}

/// Per-thread hot-trace instance state.
#[derive(Clone, Debug)]
struct TraceInstance {
    /// The trace's block entries as the instance entered them: a
    /// re-formed head does not change an instance in flight.
    blocks: Arc<[Addr]>,
    pos: usize,
    start_step: u64,
    /// Start step of the immediately preceding instance of the *same*
    /// trace (loop iterations): register dependences reaching into it are
    /// statically inferable from the trace structure and are not stored.
    prev_start: u64,
}

/// The ONTRAC tracer tool, generic over an observability recorder
/// (default [`NoopRecorder`]: probes monomorphize away entirely).
pub struct OnTrac<R: Recorder = NoopRecorder> {
    cfg: OnTracConfig,
    shadow: ShadowState,
    control: ControlStack,
    traces: TraceBuilder,
    buffer: CircularTraceBuffer,
    /// Per-thread step at which the current basic block instance began.
    block_start: Vec<u64>,
    /// Per-thread active hot-trace instance.
    trace_inst: Vec<Option<TraceInstance>>,
    /// Per-thread branch step whose control dependence was already
    /// recorded for the current block instance: all instructions of a
    /// block share one dynamic control dependence, so (under the
    /// block-static optimization) it is stored once per block instance.
    ctrl_recorded: Vec<Option<u64>>,
    /// Last reader's site per memory word since its last store, for WAR
    /// edges ([`StepSite::NONE`] = none).
    mem_last_read: Vec<StepSite>,
    /// Compressed cold tier of evicted records, fed from the buffer's
    /// eviction callback. `None` when `cfg.cold_tier` is off.
    cold: Option<ColdStore>,
    stats: OnTracStats,
    /// The probe sink (ZST under the default [`NoopRecorder`]).
    pub obs: R,
}

impl OnTrac {
    /// Unprobed tracer (`R = NoopRecorder`; `new` lives on this concrete
    /// impl because default type parameters do not drive fn inference).
    pub fn new(program: &Program, mem_words: usize, cfg: OnTracConfig) -> OnTrac {
        OnTrac::with_recorder(program, mem_words, cfg, NoopRecorder)
    }
}

impl<R: Recorder> OnTrac<R> {
    /// Tracer wired to a live recorder.
    pub fn with_recorder(
        program: &Program,
        mem_words: usize,
        cfg: OnTracConfig,
        obs: R,
    ) -> OnTrac<R> {
        OnTrac {
            buffer: CircularTraceBuffer::new(cfg.buffer_bytes),
            traces: TraceBuilder::new(program.len(), TRACE_HOT_THRESHOLD, TRACE_MAX_BLOCKS),
            shadow: ShadowState::new(mem_words),
            control: ControlStack::new(program),
            block_start: Vec::new(),
            trace_inst: Vec::new(),
            ctrl_recorded: Vec::new(),
            mem_last_read: vec![StepSite::NONE; if cfg.record_war_waw { mem_words } else { 0 }],
            cold: match &cfg.durable_dir {
                Some(dir) => Some(ColdStore::durable_or_memory(dir)),
                None => cfg.cold_tier.then(ColdStore::new),
            },
            cfg,
            stats: OnTracStats::default(),
            obs,
        }
    }

    pub fn stats(&self) -> OnTracStats {
        let mut s = self.stats.clone();
        s.window_len = self.buffer.window_len();
        s
    }

    pub fn buffer(&self) -> &CircularTraceBuffer {
        &self.buffer
    }

    /// Build a queryable DDG from the records currently in the window.
    ///
    /// This materializes the whole window (O(window · log window));
    /// for demand-driven queries over the live window use
    /// [`slice_index`](Self::slice_index) instead.
    pub fn graph(&self, program: &Program) -> DdgGraph {
        DdgGraph::from_records(self.buffer.records(), program)
    }

    /// The incremental slice index over the live window: the buffer's
    /// own store, so slice queries walk only the edges they visit
    /// instead of rebuilding a whole-window [`DdgGraph`] per query.
    /// Bit-identical to [`graph`](Self::graph) over the same window;
    /// query it directly (O(|slice|)) or snapshot it for concurrent
    /// readers.
    ///
    /// Always `Some`: the index is maintained unconditionally. The
    /// `Option` is kept because the pipeline benchmark (`perfbench/`)
    /// calls `.expect`/`.map` on it.
    pub fn slice_index(&self) -> Option<&SliceIndex> {
        Some(self.buffer.index())
    }

    /// The compressed cold tier of evicted records (`None` when
    /// `cfg.cold_tier` is off). Together with the live window it holds
    /// the full never-evicted dependence stream; `dift-slicing`
    /// stitches the two so queries span the whole execution.
    pub fn cold_store(&self) -> Option<&ColdStore> {
        self.cold.as_ref()
    }

    fn ensure_tid(&mut self, tid: ThreadId) {
        let need = tid as usize + 1;
        while self.block_start.len() < need {
            self.block_start.push(0);
            self.trace_inst.push(None);
            self.ctrl_recorded.push(None);
        }
    }

    fn user_in_scope(&self, program: &Program, addr: Addr) -> bool {
        match &self.cfg.selective_funcs {
            None => true,
            Some(set) => program.func_at(addr).map(|f| set.contains(&f)).unwrap_or(false),
        }
    }

    /// Record (or skip) one derived dependence: the step `fx` reports
    /// uses the def at `def`.
    fn consider(
        &mut self,
        m: &mut Machine,
        kind: DepKind,
        fx: &StepEffects,
        def: StepSite,
        in_scope: bool,
        tainted: bool,
    ) {
        let (tid, user) = (fx.tid, fx.step);
        self.stats.deps_considered += 1;
        m.charge(costs::ONLINE_PER_DEP_LOOKUP);
        if R::ENABLED {
            self.obs.add(Metric::DdgDepsConsidered, 1);
        }

        // Optimization filters.
        if kind == DepKind::RegData {
            if self.cfg.opt_block_static && def.step >= self.block_start[tid as usize] {
                return;
            }
            if self.cfg.opt_trace_static {
                if let Some(inst) = &self.trace_inst[tid as usize] {
                    // Inside the current instance, or reaching into the
                    // immediately preceding iteration of the same trace:
                    // both are reconstructible from the trace structure.
                    if def.step >= inst.start_step || def.step >= inst.prev_start {
                        return;
                    }
                }
            }
        }
        if kind == DepKind::Control && self.cfg.opt_trace_static {
            // Control inside a formed trace is implied by the trace's
            // recorded path; nothing to store.
            if self.trace_inst[tid as usize].is_some() {
                return;
            }
        }
        if !self.cfg.elide_steps.is_empty() {
            // Summarized regions carry no per-instruction records; the
            // cached transfer summary reconstructs them on demand.
            let i = self.cfg.elide_steps.partition_point(|&(_, end)| end <= user);
            if self.cfg.elide_steps.get(i).is_some_and(|&(start, _)| start <= user) {
                self.stats.deps_summarized += 1;
                return;
            }
        }
        if !in_scope {
            return;
        }
        if self.cfg.forward_slice_input && !tainted {
            return;
        }

        let (bytes_before, evicted_before, reanchors_before) = if R::ENABLED {
            (self.buffer.bytes_appended, self.buffer.evicted, self.buffer.reanchors)
        } else {
            (0, 0, 0)
        };
        let rec = BufRecord::new(kind, StepSite::of(fx), def);
        self.buffer.push_with(rec, |e| {
            if let Some(cold) = &mut self.cold {
                cold.append(e);
            }
        });
        self.stats.deps_recorded += 1;
        self.stats.bytes_appended = self.buffer.bytes_appended;
        if R::ENABLED {
            self.obs.add(Metric::DdgDepsRecorded, 1);
            let record_bytes = self.buffer.bytes_appended - bytes_before;
            self.obs.add(Metric::DdgBytesStored, record_bytes);
            self.obs.observe(Metric::DdgRecordBytes, record_bytes);
            self.obs.add(Metric::DdgEvictions, self.buffer.evicted - evicted_before);
            self.obs.add(Metric::DdgReanchors, self.buffer.reanchors - reanchors_before);
        }
        m.charge(costs::ONLINE_PER_RECORD);
    }
}

impl<R: Recorder> Tool for OnTrac<R> {
    fn on_block(&mut self, _m: &mut Machine, tid: ThreadId, entry: Addr, _is_new: bool) {
        self.ensure_tid(tid);
        let t = tid as usize;

        // Hot-trace instance tracking.
        let mut exited = false;
        let mut prev_start = 0u64;
        let mut prev_head = None;
        if let Some(inst) = &mut self.trace_inst[t] {
            inst.pos += 1;
            if inst.pos >= inst.blocks.len() || inst.blocks[inst.pos] != entry {
                exited = true;
                prev_start = inst.start_step;
                prev_head = inst.blocks.first().copied();
            }
        }
        if exited {
            self.trace_inst[t] = None;
        }
        if self.cfg.opt_trace_static {
            self.traces.on_block(tid, entry);
            if self.trace_inst[t].is_none() {
                if let Some(blocks) = self.traces.trace_at(entry).filter(|b| b.len() > 1) {
                    // Consecutive instances of the same trace (a loop)
                    // remember the previous iteration's start.
                    let prev = if prev_head == Some(entry) { prev_start } else { u64::MAX };
                    self.trace_inst[t] = Some(TraceInstance {
                        blocks: Arc::clone(blocks),
                        pos: 0,
                        start_step: u64::MAX, // set at the block's first instruction
                        prev_start: prev,
                    });
                }
            }
        }
    }

    fn before(&mut self, _m: &mut Machine, p: &Pending) {
        self.ensure_tid(p.tid);
    }

    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        let tid = fx.tid;
        self.ensure_tid(tid);
        let t = tid as usize;
        let step = fx.step;

        m.charge(costs::ONLINE_PER_INSN);
        self.stats.instrs += 1;

        // Block / trace instance step bookkeeping: a block begins when the
        // engine reported a block entry, which it does right before this
        // instruction; detect via control effects on the previous
        // instruction having reset block_start lazily instead: the engine
        // fires on_block before `before`, so initialize start steps here
        // on first instruction of the block (block_start > step means
        // stale state from another thread slot).
        if let Some(inst) = &mut self.trace_inst[t] {
            if inst.start_step == u64::MAX {
                inst.start_step = step;
            }
        }

        // Dynamic control dependence bookkeeping.
        self.control.on_step(tid, fx.addr);

        let in_scope = self.user_in_scope(m.program(), fx.addr);
        let shadow_scope = in_scope || !self.cfg.naive_selective;

        // Input-taint evaluation (forward slice of inputs).
        let mut tainted = matches!(fx.insn.op, Opcode::In { .. });
        if self.cfg.forward_slice_input {
            for r in &fx.insn.reg_uses() {
                if self.shadow.reg_tainted(tid, r) {
                    tainted = true;
                }
            }
            if let Some((a, _)) = fx.mem_read {
                if self.shadow.mem_tainted(a) {
                    tainted = true;
                }
            }
        }

        // ---- derive dependences -----------------------------------------
        // Register uses.
        for r in &fx.insn.reg_uses() {
            if let Some(def) = self.shadow.reg_def(tid, r) {
                self.consider(m, DepKind::RegData, fx, def, in_scope, tainted);
            }
        }
        // Memory read.
        if let Some((addr, _)) = fx.mem_read {
            let redundant =
                self.cfg.opt_redundant_load && matches!(fx.insn.op, Opcode::Load { .. }) && {
                    m.charge(costs::ONLINE_REDUNDANT_PROBE);
                    self.shadow.probe_redundant_load(addr, step)
                };
            if !redundant {
                if let Some(def) = self.shadow.mem_def(addr) {
                    self.consider(m, DepKind::MemData, fx, def, in_scope, tainted);
                }
            }
        }
        // Control dependence. All instructions of a block instance share
        // one dynamic control dependence; under block-static inference it
        // is stored once per block instance and the rest are inferred.
        if let Some(branch) = self.control.current_dep(tid) {
            let dedup = self.cfg.opt_block_static && self.ctrl_recorded[t] == Some(branch.step);
            if !dedup {
                self.consider(m, DepKind::Control, fx, branch, in_scope, tainted);
                self.ctrl_recorded[t] = Some(branch.step);
            } else {
                self.stats.deps_considered += 1;
                m.charge(costs::ONLINE_PER_DEP_LOOKUP);
                if R::ENABLED {
                    self.obs.add(Metric::DdgDepsConsidered, 1);
                }
            }
        }
        // WAR/WAW (multithreaded slicing extension).
        if self.cfg.record_war_waw {
            if let Some((addr, _, _)) = fx.mem_write {
                let last_read = self.mem_last_read.get(addr as usize).and_then(|s| s.get());
                if let Some(last_read) = last_read {
                    self.consider(m, DepKind::War, fx, last_read, in_scope, tainted);
                }
                if let Some(def) = self.shadow.mem_def(addr) {
                    self.consider(m, DepKind::Waw, fx, def, in_scope, tainted);
                }
            }
        }

        // ---- update shadow state ----------------------------------------
        let site = StepSite::of(fx);
        if shadow_scope {
            if let Some((r, _, _)) = fx.reg_write {
                self.shadow.set_reg_def(tid, r, site);
                if self.cfg.forward_slice_input {
                    self.shadow.set_reg_taint(tid, r, tainted);
                }
            }
            if let Some((addr, _, _)) = fx.mem_write {
                self.shadow.set_mem_def(addr, site);
                if self.cfg.forward_slice_input {
                    self.shadow.set_mem_taint(addr, tainted);
                }
            }
        }
        if self.cfg.record_war_waw {
            if let Some((addr, _)) = fx.mem_read {
                if let Some(slot) = self.mem_last_read.get_mut(addr as usize) {
                    *slot = site;
                }
            }
            if let Some((addr, _, _)) = fx.mem_write {
                if let Some(slot) = self.mem_last_read.get_mut(addr as usize) {
                    *slot = StepSite::NONE;
                }
            }
        }

        self.control.after_step(fx, site);

        // Block-instance boundary: the *next* instruction of this thread
        // starts a new block if this one ended a block.
        if fx.insn.is_block_end() {
            self.block_start[t] = step + 1;
            self.ctrl_recorded[t] = None;
        }
    }

    fn on_finish(&mut self, _m: &mut Machine, _r: &RunResult) {
        self.stats.window_len = self.buffer.window_len();
        if let Some(cold) = &mut self.cold {
            // Planned shutdown: seal and spill the open tail so a
            // durable run loses nothing (an unplanned crash loses at
            // most this unsealed tail — the recovery guarantee).
            if cold.is_durable() {
                cold.flush();
            }
        }
        if R::ENABLED {
            self.obs.gauge(Metric::DdgWindowLen, self.buffer.window_len());
            self.obs.gauge(Metric::DdgResidentBytes, self.buffer.bytes() as u64);
            let idx = self.buffer.index();
            self.obs.gauge(Metric::DdgIndexEdges, idx.edges());
            self.obs.gauge(Metric::DdgIndexBytes, idx.approx_bytes());
            self.obs.gauge(Metric::DdgIndexChunks, idx.chunk_count() as u64);
            self.obs.gauge(Metric::DdgIndexChunkCopies, idx.chunk_copies());
            self.obs.gauge(Metric::DdgIndexSpineCopies, idx.spine_copies());
            if let Some(cold) = &self.cold {
                self.obs.gauge(Metric::DdgColdSegments, cold.segment_count() as u64);
                self.obs.gauge(Metric::DdgColdBytes, cold.bytes());
                self.obs.gauge(Metric::DdgColdRecords, cold.record_count());
                self.obs.gauge(Metric::DdgColdMemoHits, cold.memo_hits());
                self.obs.gauge(Metric::DdgColdMemoEvictions, cold.memo_evictions());
                self.obs.add(Metric::DdgColdCorrupt, cold.corrupt_segments());
                self.obs.gauge(Metric::DdgDurableQuarantined, cold.corrupt_segments());
                self.obs.gauge(Metric::DdgDurableEnospc, cold.mem_fallbacks());
                if let Some(io) = cold.durable_stats() {
                    use std::sync::atomic::Ordering::Relaxed;
                    self.obs.gauge(Metric::DdgDurableSpills, io.spills.load(Relaxed));
                    self.obs.gauge(Metric::DdgDurableDiskBytes, io.disk_bytes.load(Relaxed));
                    self.obs.gauge(Metric::DdgDurableRetries, io.retries.load(Relaxed));
                }
            }
        }
    }
}
