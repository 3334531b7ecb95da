//! Hot-code taint-transfer summary cache: one summary application per
//! hot-region execution instead of per-instruction shadow updates.
//!
//! The epoch machinery of [`crate::summary`] can summarize *any* window
//! of the effects stream into a transfer function that composes onto an
//! engine bit-exactly. Hot code executes the **same** window over and
//! over: a loop iteration whose instruction sequence, memory addresses
//! and branch outcomes repeat is, from the taint engine's point of view,
//! the identical transfer function every time — only the incoming labels
//! differ, and those are exactly what [`EpochSummary`] leaves symbolic.
//!
//! So the cache records one iteration of a hot region (head address →
//! next occurrence of the head), summarizes it once, and keys the
//! summary by head address plus a **shape fingerprint** (`FastStep` per
//! instruction: address, destination register, and concrete memory
//! addresses). The recording is the epoch summarizer itself — the
//! engine's own transfer function run over symbolic labels — so a
//! region summary follows every taint rule [`TaintEngine::process`]
//! does. [`SummaryCachedEngine::process_stream`] checks the stream in
//! place against the fingerprint at every cached head; only when the
//! whole region matches does it apply the cached summary through the
//! bit-exact composition of [`TaintEngine::apply_summary`] — on a
//! mismatch the head step runs on the plain path and the stream
//! continues from there. Correctness is never speculative: the guard
//! pins every input `process` reads except data *values*, which the
//! engine provably never consults, and the step counter, which
//! step-invariant labels ([`TaintLabel::STEP_INVARIANT`]) provably
//! ignore. The instruction itself is pinned by the program: the engine
//! is built for one immutable [`Program`] and every stream it sees must
//! come from machine execution of it, so `addr` determines `insn`.
//! Control outcomes and faults are pinned *transitively*, not directly —
//! `process` reads neither: a diverging branch changes the next step's
//! `addr`, and a fault suppresses the step's `reg_write`/`mem_write`,
//! both caught by the compared fields. The exactness argument is
//! spelled out in DESIGN.md §13.
//!
//! Three stacked fast paths take the steady-state cost from "cheaper
//! than shadow propagation" to a few ns/instruction:
//!
//! 1. **Packed guards** (`FastStep`): with the program fixed, the
//!    opcode at `addr` determines which effect classes a step can carry,
//!    so the compare is 24 packed bytes and touches only the
//!    [`StepEffects`] cache lines the recorded step actually used.
//! 2. **Memoized application** (`ApplyMemo`): when a region's incoming
//!    labels are unchanged since its last application, the concretized
//!    action list replays instead of re-evaluating the summary's node
//!    DAG.
//! 3. **Sealed application**: a generation counter proves nothing
//!    mutated taint state since the region's last application; once the
//!    replay is additionally proven a *fixpoint* on its own inputs,
//!    re-application degenerates to appending observables (alerts,
//!    output lineage, statistics) with no label resolution and no writes
//!    at all.
//!
//! Hot heads are nominated by counting taken backward branches and
//! jumps in the stream itself. Regions containing I/O or faults are
//! never cached: `In`/`Out` labels and lineage indices advance with
//! *global* per-channel counts, so two iterations are never
//! guard-identical. Regions that bail repeatedly are invalidated and
//! re-recorded a bounded number of times (versioned invalidation), then
//! marked uncacheable.

use crate::engine::{IoBase, TaintEngine};
use crate::label::TaintLabel;
use crate::policy::TaintPolicy;
use crate::summary::{ApplyMemo, EpochSummarizer, EpochSummary};
use dift_isa::{Addr, Program};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_vm::{ControlEffect, StepEffects, ThreadId};
use std::sync::Arc;

/// Raw trace encoding density (bytes/instr) the paper's unoptimized
/// regime pays; `bytes_saved` reports summarized instructions in this
/// currency so the obs number lines up with the 16 → 0.8 B/instr axis.
const RAW_TRACE_BYTES_PER_INSN: u64 = 16;

/// Back-edge executions at which a target becomes a candidate head.
const HOT_THRESHOLD: u32 = 2;
/// Longest region (one head-to-head iteration) recorded or matched.
const MAX_REGION_LEN: usize = 8192;
/// Most regions ever summarized; further heads become uncacheable
/// (bounds both memory and summarization work).
const MAX_REGIONS: usize = 512;
/// Guard-mismatch bails after which a region version is invalidated.
const MAX_BAILS: u32 = 4;
/// Recordings per head before giving up on it (versioned invalidation
/// budget).
const MAX_VERSIONS: u32 = 3;

/// Cache effectiveness counters (all monotone).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryCacheStats {
    /// Cached summary applications (whole regions skipped).
    pub hits: u64,
    /// Hot-head entries with no cached region yet (recordings started).
    pub misses: u64,
    /// Guard mismatches that fell back to the plain path.
    pub guard_bails: u64,
    /// Regions summarized and installed (including re-records).
    pub regions_recorded: u64,
    /// Installs that replaced an invalidated version.
    pub rerecords: u64,
    /// Heads given up on (I/O inside, too long, or version budget spent).
    pub uncacheable_heads: u64,
    /// Instructions covered by hits (never individually processed).
    pub instrs_summarized: u64,
    /// `instrs_summarized` priced at the raw 16 B/instr trace encoding.
    pub bytes_saved: u64,
}

/// Sentinel for "no memory effect" in [`FastStep`] (no data address can
/// be `u64::MAX`: shadow memory is word-indexed and bounded far below).
const NO_MEM: u64 = u64::MAX;

/// One step of the shape fingerprint (24 bytes): every fact
/// [`TaintEngine::process`] reads from a [`StepEffects`] except data
/// values (never consulted), the instruction (fixed by the program at
/// `addr`) and the step index (checked separately against the region
/// base). `process` never reads `control` or `fault`, so neither is
/// pinned directly: a diverging branch outcome changes the *next*
/// step's `addr` (caught there), and a fault suppresses the step's
/// `reg_write`/`mem_write` (caught here).
#[derive(Clone, Debug)]
struct FastStep {
    /// `addr | (reg_write register + 1) << 32` — one word pins the code
    /// address and the destination-register write (a fault-suppressed
    /// write shows up as a zero field here and bails).
    key: u64,
    /// Read address or [`NO_MEM`].
    mem_read: u64,
    /// Write address or [`NO_MEM`].
    mem_write: u64,
}

impl FastStep {
    fn of(fx: &StepEffects) -> FastStep {
        FastStep {
            key: fx.addr as u64 | fx.reg_write.map_or(0, |(r, _, _)| (r.index() as u64 + 1) << 32),
            mem_read: fx.mem_read.map_or(NO_MEM, |(a, _)| a),
            mem_write: fx.mem_write.map_or(NO_MEM, |(a, _, _)| a),
        }
    }

    /// The guard compare. Sound because the program is fixed: skipped
    /// fields are those the opcode at `addr` cannot produce.
    #[inline]
    fn matches(&self, fx: &StepEffects) -> bool {
        let key = fx.addr as u64 | fx.reg_write.map_or(0, |(r, _, _)| (r.index() as u64 + 1) << 32);
        if self.key != key {
            return false;
        }
        // Guard-side flags decide which effect fields to touch: a step
        // recorded without a memory effect cannot grow one (its opcode
        // has no memory operand), and a recorded Load/Store that faults
        // mid-region diverges in the compared address (or in the
        // suppressed reg_write above).
        (self.mem_read == NO_MEM || self.mem_read == fx.mem_read.map_or(NO_MEM, |(a, _)| a))
            && (self.mem_write == NO_MEM
                || self.mem_write == fx.mem_write.map_or(NO_MEM, |(a, _, _)| a))
    }
}

/// A step a cached region may contain: no I/O (global indices advance
/// per iteration) and no faults (the thread stops mid-shape).
#[inline]
fn region_step_ok(fx: &StepEffects) -> bool {
    fx.input.is_none() && fx.output.is_none() && fx.fault.is_none()
}

/// A recorded, summarized region.
struct CachedRegion<T: TaintLabel> {
    tid: ThreadId,
    /// Step of the recorded iteration's head instruction; guard step `k`
    /// matched step `base_step + k`, and applications rebase alerts by
    /// the difference to the matched base.
    base_step: u64,
    /// The shape fingerprint, one entry per region step.
    guard: Vec<FastStep>,
    summary: EpochSummary<T>,
    version: u32,
    bails: u32,
    /// Per-region memo for [`TaintEngine::apply_summary_memoized`]: in
    /// steady state the incoming labels stop changing and applications
    /// replay a concrete action list instead of re-evaluating the node
    /// DAG.
    memo: ApplyMemo<T>,
    /// Engine generation right after this region's last application
    /// (0 = never applied). When it still equals the engine's current
    /// generation, nothing has mutated taint state since — the seal.
    last_apply_gen: u64,
    /// Proven: the memo's replay maps a state whose incoming labels
    /// equal `memo.inputs` to a state whose incoming labels *still*
    /// equal `memo.inputs` (the hot loop's taint state is stationary).
    /// Established when a sealed-generation application finds its
    /// incoming labels unchanged; voided whenever the memo re-records.
    fixpoint: bool,
}

impl<T: TaintLabel> CachedRegion<T> {
    /// True when `window` (as long as the region) is a guard-exact
    /// execution of this region — the per-instruction cost the cache
    /// pays in steady state.
    fn matches(&self, window: &[StepEffects]) -> bool {
        let base = window[0].step;
        window
            .iter()
            .zip(&self.guard)
            .enumerate()
            .all(|(k, (fx, g))| fx.tid == self.tid && fx.step == base + k as u64 && g.matches(fx))
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum HeadState {
    /// Not nominated yet: `taken` back edges have reached it so far.
    Cold { taken: u32 },
    /// Hot; the next entry starts recording `version`.
    Hot { version: u32 },
    /// A live region in `regions[slot]`.
    Cached { slot: usize },
    /// Given up (I/O inside, too long, or version budget spent).
    Uncacheable,
}

/// Head states in a dense table indexed by code address, one per
/// instruction of the program. Code addresses are instruction indices,
/// so the per-step state lookup on the plain path is an array read —
/// the `HashMap` this replaces cost more than the taint transfer itself.
struct HeadTable {
    states: Vec<HeadState>,
}

impl HeadTable {
    fn new(text_len: usize) -> HeadTable {
        HeadTable { states: vec![HeadState::Cold { taken: 0 }; text_len] }
    }

    /// An address outside the text (only a foreign stream has one) is
    /// never cached.
    #[inline]
    fn get(&self, addr: Addr) -> HeadState {
        self.states.get(addr as usize).copied().unwrap_or(HeadState::Uncacheable)
    }

    /// Only heads [`Self::get`] found hot or cached change state, and
    /// those lie inside the text.
    fn set(&mut self, addr: Addr, state: HeadState) {
        self.states[addr as usize] = state;
    }
}

/// Caching front-end to [`TaintEngine`]: behaviorally identical to the
/// plain engine (labels, alerts, peaks, stats — bit for bit; the
/// differential proptest `summary_cache_diff.rs` pins this), but hot
/// regions whose shape repeats cost one guard comparison per instruction
/// plus one summary application per execution.
pub struct SummaryCachedEngine<T: TaintLabel, R: Recorder = NoopRecorder> {
    /// The wrapped engine — all observable state (alerts,
    /// `output_labels`, shadow, stats, obs) lives here. Private so every
    /// mutation goes through [`Self::engine_mut`] and bumps `gen`; read
    /// access is [`Self::engine`].
    engine: TaintEngine<T, R>,
    /// Taint-state generation: bumped on every plain-path step, every
    /// state-mutating summary application, and every external
    /// [`Self::engine_mut`] borrow. A region whose `last_apply_gen`
    /// still equals `gen` is *sealed*: the engine provably sits in that
    /// region's post-application state, and a re-application with
    /// proven-fixpoint inputs degenerates to appending observables
    /// ([`TaintEngine::apply_summary_sealed`]) — no label resolution,
    /// no writes.
    gen: u64,
    heads: HeadTable,
    regions: Vec<Option<CachedRegion<T>>>,
    stats: SummaryCacheStats,
    /// `[start, end)` global-step ranges covered by hits, in completion
    /// order — the elision input for the DDG "summaries" ladder level.
    hit_ranges: Vec<(u64, u64)>,
    /// The immutable program every effects stream is generated from;
    /// it fixes `insn` at each `addr`, which the packed guard relies on.
    program: Arc<Program>,
}

impl<T: TaintLabel> SummaryCachedEngine<T> {
    /// Unprobed front-end (same `new`/`with_recorder` split as
    /// [`TaintEngine`]).
    pub fn new(policy: TaintPolicy, program: &Arc<Program>) -> SummaryCachedEngine<T> {
        SummaryCachedEngine::with_recorder(policy, program, NoopRecorder)
    }
}

impl<T: TaintLabel, R: Recorder> SummaryCachedEngine<T, R> {
    /// A cache for effects streams generated by machine execution of
    /// `program` (immutable — there is no self-modifying code on this
    /// substrate). Every stream passed to [`Self::process_stream`] must
    /// come from that program; `install` checks each recorded step's
    /// `insn` against it, so a foreign stream falls back to never
    /// caching, not to wrong answers.
    pub fn with_recorder(
        policy: TaintPolicy,
        program: &Arc<Program>,
        obs: R,
    ) -> SummaryCachedEngine<T, R> {
        SummaryCachedEngine {
            engine: TaintEngine::with_recorder(policy, obs),
            gen: 1,
            heads: HeadTable::new(program.len()),
            regions: Vec::new(),
            stats: SummaryCacheStats::default(),
            hit_ranges: Vec::new(),
            program: program.clone(),
        }
    }

    /// The wrapped engine's observable state (alerts, `output_labels`,
    /// shadow, stats).
    pub fn engine(&self) -> &TaintEngine<T, R> {
        &self.engine
    }

    /// Mutable access to the wrapped engine. Bumps the taint-state
    /// generation: any external mutation (e.g. [`TaintEngine::pre_size`])
    /// unseals every cached region, so the next application re-resolves
    /// its incoming labels instead of trusting the sealed fast path.
    pub fn engine_mut(&mut self) -> &mut TaintEngine<T, R> {
        self.gen = self.gen.wrapping_add(1);
        &mut self.engine
    }

    /// Forward one step to the plain engine, unsealing (the step may
    /// write any label).
    #[inline]
    fn engine_process(&mut self, fx: &StepEffects) {
        self.gen = self.gen.wrapping_add(1);
        self.engine.process(fx);
    }

    pub fn stats(&self) -> &SummaryCacheStats {
        &self.stats
    }

    /// `[start, end)` step ranges covered by summary applications, in
    /// completion order (ascending for a single-pass run).
    pub fn hit_ranges(&self) -> &[(u64, u64)] {
        &self.hit_ranges
    }

    /// Approximate resident bytes of the live cache (guards + summary
    /// arenas) — the storage side of the bytes/instr ledger.
    pub fn cache_bytes(&self) -> u64 {
        self.regions
            .iter()
            .flatten()
            .map(|r| {
                64 + (r.guard.len() * std::mem::size_of::<FastStep>()) as u64
                    + (r.summary.node_count() + r.summary.event_count()) as u64 * 16
                    + r.memo.approx_bytes()
            })
            .sum()
    }

    fn mark_uncacheable(&mut self, head: Addr) {
        self.stats.uncacheable_heads += 1;
        self.heads.set(head, HeadState::Uncacheable);
    }

    /// Count a taken backward edge toward [`HOT_THRESHOLD`]; the target
    /// turns hot when it gets there. Only a cold target inside the text
    /// is counted.
    fn note_backedge(&mut self, fx: &StepEffects) {
        // Labels without `TaintLabel::STEP_INVARIANT` never nominate a
        // head, so every step takes the plain path (still correct, no
        // speedup).
        if !T::STEP_INVARIANT {
            return;
        }
        let target = match fx.control {
            Some(ControlEffect::Branch { taken: true, target }) => target,
            Some(ControlEffect::Jump { target }) => target,
            _ => return,
        };
        if target > fx.addr {
            return;
        }
        if let Some(HeadState::Cold { taken }) = self.heads.states.get_mut(target as usize) {
            *taken += 1;
            if *taken >= HOT_THRESHOLD {
                self.heads.set(target, HeadState::Hot { version: 0 });
            }
        }
    }

    /// Summarize and install one recorded iteration.
    fn install(&mut self, head: Addr, tid: ThreadId, fxs: &[StepEffects]) {
        debug_assert!(!fxs.is_empty(), "a region has at least its head instruction");
        if self.regions.len() >= MAX_REGIONS {
            self.mark_uncacheable(head);
            return;
        }
        let version = match self.heads.get(head) {
            HeadState::Hot { version } => version,
            _ => 0,
        };
        // Program contract check, once per install: every recorded
        // step's instruction must be the program's instruction at that
        // address. A stream that violates it is not accelerated.
        if fxs.iter().any(|fx| self.program.get(fx.addr) != Some(&fx.insn)) {
            self.mark_uncacheable(head);
            return;
        }
        // No I/O inside a region, so the summarizer needs no stream
        // prefix counts: the IoBase is irrelevant by construction.
        let mut sum = EpochSummarizer::new(self.engine.policy(), &IoBase::default());
        let mut guard = Vec::with_capacity(fxs.len());
        for fx in fxs {
            guard.push(FastStep::of(fx));
            sum.step(fx);
        }
        let slot = self.regions.len();
        self.regions.push(Some(CachedRegion {
            tid,
            base_step: fxs[0].step,
            guard,
            summary: sum.finish(),
            version,
            bails: 0,
            memo: ApplyMemo::default(),
            last_apply_gen: 0,
            fixpoint: false,
        }));
        self.heads.set(head, HeadState::Cached { slot });
        self.stats.regions_recorded += 1;
        if version > 0 {
            self.stats.rerecords += 1;
        }
        if R::ENABLED {
            self.engine.obs.add(Metric::TaintScRegions, 1);
        }
    }

    /// Apply `regions[slot]` rebased to `base_step`.
    fn apply_hit(&mut self, slot: usize, base_step: u64) {
        let gen = self.gen;
        let r = self.regions[slot].as_mut().expect("hit on a live region");
        let (instrs, delta) = (r.summary.instrs(), base_step - r.base_step);
        // Split borrow: the engine and the region live in disjoint
        // fields, and the memo is the only part of the region mutated.
        let sealed = r.fixpoint
            && r.last_apply_gen == gen
            && self.engine.apply_summary_sealed(&r.summary, delta, &r.memo);
        if !sealed {
            // `sealed_gen`: nothing mutated taint state since this
            // region's last application, so the engine sits in its
            // post-application state. If the incoming labels *still*
            // equal the memo's under that seal, the replay provably maps
            // memo-inputs to memo-inputs — a fixpoint — and subsequent
            // sealed-generation hits need no resolution at all.
            let sealed_gen = r.last_apply_gen != 0 && r.last_apply_gen == gen;
            let matched = self.engine.apply_summary_memoized(&r.summary, delta, &mut r.memo);
            r.fixpoint = matched && (r.fixpoint || sealed_gen);
            // The application wrote labels: unseal every other region.
            self.gen = gen.wrapping_add(1);
        }
        r.last_apply_gen = self.gen;
        self.stats.hits += 1;
        self.stats.instrs_summarized += instrs;
        self.stats.bytes_saved += instrs * RAW_TRACE_BYTES_PER_INSN;
        self.hit_ranges.push((base_step, base_step + instrs));
        if R::ENABLED {
            self.engine.obs.add(Metric::TaintScHits, 1);
            self.engine.obs.add(Metric::TaintScInstrsSummarized, instrs);
            self.engine.obs.add(Metric::TaintScBytesSaved, instrs * RAW_TRACE_BYTES_PER_INSN);
        }
    }

    /// Account a guard mismatch; past [`MAX_BAILS`] the version is
    /// invalidated (freed) and the head re-records or becomes
    /// uncacheable once [`MAX_VERSIONS`] recordings are spent.
    fn bail(&mut self, head: Addr, slot: usize) {
        self.stats.guard_bails += 1;
        if R::ENABLED {
            self.engine.obs.add(Metric::TaintScGuardBails, 1);
        }
        let r = self.regions[slot].as_mut().expect("bail on a live region");
        r.bails += 1;
        if r.bails >= MAX_BAILS {
            let version = self.regions[slot].take().expect("live region").version;
            if version + 1 >= MAX_VERSIONS {
                self.mark_uncacheable(head);
            } else {
                self.heads.set(head, HeadState::Hot { version: version + 1 });
            }
        }
    }

    /// Find the end of a recordable region starting at `fxs[i]` (the
    /// next same-thread occurrence of the head), or disqualify it.
    fn scan_region(&mut self, fxs: &[StepEffects], i: usize) -> Option<usize> {
        let head = fxs[i].addr;
        let tid = fxs[i].tid;
        if !region_step_ok(&fxs[i]) {
            self.mark_uncacheable(head);
            return None;
        }
        for (off, fx) in fxs[i + 1..].iter().enumerate() {
            if fx.tid != tid {
                return None; // interleaved thread: retry later
            }
            if fx.addr == head {
                return Some(i + 1 + off);
            }
            if !region_step_ok(fx) || off + 1 >= MAX_REGION_LEN {
                self.mark_uncacheable(head);
                return None;
            }
        }
        None // stream ended before the loop closed
    }

    /// Process a whole effects stream of the engine's program. Guard
    /// matching compares against the slice in place (no per-step
    /// cloning, no deferral buffer), and recording summarizes straight
    /// from the slice. Consecutive calls continue one execution: the
    /// cache, the taint state and the step-indexed hit ranges carry over.
    pub fn process_stream(&mut self, fxs: &[StepEffects]) {
        let mut i = 0;
        while i < fxs.len() {
            let fx = &fxs[i];
            match self.heads.get(fx.addr) {
                HeadState::Cached { slot } => {
                    let r = self.regions[slot].as_ref().expect("a cached head has a live region");
                    let len = r.guard.len();
                    if let Some(window) = fxs.get(i..i + len) {
                        if r.matches(window) {
                            self.apply_hit(slot, fx.step);
                            i += len;
                            continue;
                        }
                        self.bail(fx.addr, slot);
                    }
                    // Mismatch (or stream boundary): this head step runs
                    // plainly; subsequent steps retry their own lookups.
                }
                HeadState::Hot { .. } => {
                    if let Some(end) = self.scan_region(fxs, i) {
                        self.stats.misses += 1;
                        if R::ENABLED {
                            self.engine.obs.add(Metric::TaintScMisses, 1);
                        }
                        for r in &fxs[i..end] {
                            self.engine_process(r);
                        }
                        self.install(fx.addr, fx.tid, &fxs[i..end]);
                        i = end;
                        continue;
                    }
                }
                HeadState::Uncacheable | HeadState::Cold { .. } => {}
            }
            self.note_backedge(fx);
            self.engine_process(fx);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{BitTaint, LabelCtx, PcTaint};
    use dift_isa::{BinOp, BranchCond, Instruction, Opcode, ProgramBuilder, Reg};
    use dift_vm::{Machine, MachineConfig};

    fn capture(p: &Arc<Program>, inputs: &[u64]) -> (Vec<StepEffects>, usize) {
        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, inputs);
        let mem_words = m.mem_words();
        (dift_dbi::capture(m).0, mem_words)
    }

    /// A loop whose iterations sweep a FIXED buffer: every iteration is
    /// guard-identical, the cache's best case.
    fn fixed_loop(iters: i64) -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0); // taint seed
        b.li(Reg(2), 300);
        b.store(Reg(1), Reg(2), 0); // mem[300] tainted
        b.li(Reg(3), iters);
        b.label("loop");
        b.load(Reg(4), Reg(2), 0);
        b.add(Reg(5), Reg(5), Reg(4));
        b.store(Reg(5), Reg(2), 1);
        b.bini(BinOp::Sub, Reg(3), Reg(3), 1);
        b.branch(BranchCond::Ne, Reg(3), Reg(0), "loop");
        b.output(Reg(5), 0);
        b.halt();
        Arc::new(b.build().unwrap())
    }

    /// A loop over a MOVING window: addresses shift every iteration, so
    /// guards always bail and versioned invalidation gives up. The loop
    /// body stores the tainted input at the window base, loads from it,
    /// or both; one tainted cell at 310 sits in the window's path, so a
    /// guard that ignored either address would change the answer.
    fn moving_loop(iters: i64, store: bool, load: bool) -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 310);
        b.store(Reg(1), Reg(2), 0);
        b.li(Reg(2), 300); // moving base
        b.li(Reg(3), iters);
        b.label("loop");
        if store {
            b.store(Reg(1), Reg(2), 0);
        }
        if load {
            b.load(Reg(4), Reg(2), 0);
            b.add(Reg(5), Reg(5), Reg(4));
        }
        b.addi(Reg(2), Reg(2), 1); // slide the window
        b.bini(BinOp::Sub, Reg(3), Reg(3), 1);
        b.branch(BranchCond::Ne, Reg(3), Reg(0), "loop");
        b.output(Reg(5), 0);
        b.halt();
        Arc::new(b.build().unwrap())
    }

    /// Run `stream` through the plain engine and the cache, assert every
    /// observable agrees, and return the cache (for its stats).
    fn assert_identical<T: TaintLabel>(
        p: &Arc<Program>,
        stream: &[StepEffects],
        mem_words: usize,
        policy: TaintPolicy,
    ) -> SummaryCachedEngine<T> {
        let mut plain = TaintEngine::<T>::new(policy);
        plain.pre_size(mem_words);
        for fx in stream {
            plain.process(fx);
        }
        let mut cached = SummaryCachedEngine::<T>::new(policy, p);
        cached.engine_mut().pre_size(mem_words);
        cached.process_stream(stream);
        assert_eq!(cached.engine().output_labels, plain.output_labels);
        assert_eq!(cached.engine().alerts, plain.alerts);
        assert_eq!(cached.engine().tainted_words(), plain.tainted_words());
        let cells: Vec<(u64, T)> =
            cached.engine().shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
        let plain_cells: Vec<(u64, T)> =
            plain.shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
        assert_eq!(cells, plain_cells);
        assert_eq!(cached.engine().stats(), plain.stats());
        cached
    }

    #[test]
    fn fixed_loop_hits_and_stays_identical() {
        let p = fixed_loop(40);
        let (stream, mem) = capture(&p, &[7]);
        let s = assert_identical::<BitTaint>(&p, &stream, mem, TaintPolicy::default()).stats;
        assert!(s.regions_recorded >= 1, "{s:?}");
        assert!(s.hits > 30, "a fixed-shape loop must hit nearly every iteration: {s:?}");
        assert!(s.instrs_summarized > 100, "{s:?}");
    }

    #[test]
    fn pc_labels_rebase_exactly() {
        // PcTaint stamps ctx.addr; the guard pins addresses, so rebased
        // applications must agree bit for bit (incl. alert steps).
        let p = fixed_loop(40);
        let (stream, mem) = capture(&p, &[7]);
        let s = assert_identical::<PcTaint>(&p, &stream, mem, TaintPolicy::default()).stats;
        assert!(s.hits > 0);
    }

    #[test]
    fn moving_window_bails_and_gives_up() {
        // Store and load, store only, load only: each memory address the
        // guard compares must make it bail on its own.
        for (store, load) in [(true, true), (true, false), (false, true)] {
            let p = moving_loop(60, store, load);
            let (stream, mem) = capture(&p, &[7]);
            let s = assert_identical::<BitTaint>(&p, &stream, mem, TaintPolicy::default()).stats;
            let tag = format!("store={store} load={load}");
            assert!(s.guard_bails > 0, "{tag}: moving addresses must mismatch the guard: {s:?}");
            assert!(s.uncacheable_heads >= 1, "{tag}: version budget must run out: {s:?}");
            assert_eq!(s.hits, 0, "{tag}: no iteration repeats its shape: {s:?}");
        }
    }

    #[test]
    fn io_inside_the_loop_is_never_cached() {
        // An In inside the hot loop: global input indices advance per
        // iteration, so the region must be rejected at record time.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(3), 20);
        b.li(Reg(2), 300);
        b.label("loop");
        b.input(Reg(1), 0);
        b.store(Reg(1), Reg(2), 0);
        b.bini(BinOp::Sub, Reg(3), Reg(3), 1);
        b.branch(BranchCond::Ne, Reg(3), Reg(0), "loop");
        b.output(Reg(1), 0);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let (stream, mem) = capture(&p, &(0..20).collect::<Vec<u64>>());
        let s = assert_identical::<BitTaint>(&p, &stream, mem, TaintPolicy::default()).stats;
        assert_eq!(s.hits, 0, "{s:?}");
        assert_eq!(s.regions_recorded, 0, "{s:?}");
        assert!(s.uncacheable_heads >= 1, "{s:?}");
    }

    /// A label whose propagate stamps the step: not step-invariant, so
    /// the cache must disable itself (correctness over speed).
    #[derive(Clone, Debug, Default, PartialEq)]
    struct StepStamp(u64);
    impl TaintLabel for StepStamp {
        fn is_clean(&self) -> bool {
            self.0 == 0
        }
        fn propagate(sources: &[Self], ctx: &LabelCtx) -> Self {
            if sources.iter().any(|s| s.0 != 0) {
                StepStamp(ctx.step + 1)
            } else {
                StepStamp(0)
            }
        }
        fn source(ctx: &LabelCtx, _ch: u16, _idx: u64) -> Self {
            StepStamp(ctx.step + 1)
        }
        fn shadow_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn step_dependent_labels_disable_the_cache() {
        let p = fixed_loop(40);
        let (stream, mem) = capture(&p, &[7]);
        let s = assert_identical::<StepStamp>(&p, &stream, mem, TaintPolicy::default()).stats;
        assert_eq!(s.regions_recorded, 0, "non-step-invariant labels must not cache");
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn truncated_stream_runs_the_cut_region_plainly() {
        let p = fixed_loop(40);
        let (stream, mem) = capture(&p, &[7]);
        let full = assert_identical::<BitTaint>(&p, &stream, mem, TaintPolicy::default()).stats;
        // Drop the trailing output + halt and the last iteration's final
        // three steps: the stream now ends two steps into a cached
        // region, so that region cannot match and must run plainly.
        let cut = &stream[..stream.len() - 5];
        let s = assert_identical::<BitTaint>(&p, cut, mem, TaintPolicy::default()).stats;
        assert_eq!(s.hits, full.hits - 1, "only the cut region loses its hit: {s:?}");
        assert_eq!(s.guard_bails, 0, "a stream end is not a guard mismatch: {s:?}");
    }

    #[test]
    fn hit_ranges_are_disjoint_and_ascending() {
        let p = fixed_loop(40);
        let (stream, mem) = capture(&p, &[7]);
        let mut cached = SummaryCachedEngine::<BitTaint>::new(TaintPolicy::default(), &p);
        cached.engine_mut().pre_size(mem);
        cached.process_stream(&stream);
        let ranges = cached.hit_ranges();
        assert!(!ranges.is_empty());
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "ranges must be disjoint and ordered: {ranges:?}");
        }
        assert!(cached.cache_bytes() > 0);
        assert_eq!(cached.regions.iter().flatten().count(), 1, "one live region");
    }

    #[test]
    fn backedge_counter_table_is_bounded() {
        let p = fixed_loop(1);
        let mut cached = SummaryCachedEngine::<BitTaint>::new(TaintPolicy::default(), &p);
        // Back edges to targets beyond the program, each taken twice
        // (enough to turn a target inside the text hot), count nothing
        // and never grow the table past the program.
        let text = p.len() as u32;
        let stream: Vec<StepEffects> = (0..2000u32)
            .map(|i| StepEffects {
                tid: 0,
                addr: 100_000 + i,
                step: i as u64,
                insn: Instruction::new(Opcode::Nop, 0),
                control: Some(ControlEffect::Jump { target: text + i / 2 }),
                ..Default::default()
            })
            .collect();
        cached.process_stream(&stream);
        assert_eq!(cached.heads.states.len(), p.len());
        assert!(cached.heads.states.iter().all(|s| *s == HeadState::Cold { taken: 0 }));
        assert_eq!(cached.stats().regions_recorded, 0);
    }
}
