//! Epoch-parallel DIFT across N helper shards.
//!
//! The single-helper offload ([`crate::helper::run_helper_dift`]) leaves
//! the helper a serial consumer: its clock lower-bounds completion no
//! matter how fast the channel is. This module fans propagation out:
//! the effects stream is split into fixed-size **epochs**, and each epoch
//! is summarized into a *taint transfer summary* (`dift_taint::summary`)
//! — the epoch's output labels over symbolic unknown incoming labels,
//! which requires no upstream taint state and therefore no inter-shard
//! coordination. A cheap sequential composition pass then stitches the
//! summaries in epoch order, producing results **bit-identical** to the
//! serial engine: labels, alerts (with origins), output lineage, and
//! exact peak statistics.
//!
//! Summaries are computed by the crate's epoch engine (`engine.rs`): a
//! worker pool that claims epochs from a shared counter, plus the
//! recovery ladder of DESIGN.md §11, shared with
//! [`crate::lineage_shard`]. This module supplies the taint analysis and
//! the composition, and two views of the same fan-out:
//!
//! * **Real parallelism** — [`epoch_process_stream`] summarizes a
//!   pre-captured stream on worker threads, so wall-clock analysis
//!   throughput scales with cores.
//! * **Modeled timing** — [`run_epoch_dift`] runs the VM under an
//!   [`EpochModel`] cost layer that charges enqueue, fan-out steering and
//!   per-shard stalls ([`MultiQueueSim`]) and buffers the records; each
//!   time a window of whole epochs (32 Ki records) fills, the VM pauses
//!   while the engine summarizes it and the summaries are composed, so
//!   memory stays bounded however long the run. Reported cycles stay
//!   deterministic and host-independent; in wall-clock the VM and the
//!   summarization take turns, not overlapped.
//!
//! ## Fault tolerance
//!
//! An epoch summary is a pure function of the epoch's records and its
//! I/O base, so a lost epoch is recomputable anywhere with bit-identical
//! results. Faults are injected deterministically through a
//! [`FaultPlan`] ([`NoopFaults`] by default, which compiles every
//! injection site away) at each epoch's home shard `e % workers`; the
//! [`RecoveryPolicy`] chooses between fail-stop and recovery. See
//! DESIGN.md §11.

use crate::channel::{ChannelModel, MultiQueueSim};
use crate::engine::{EpochAnalysis, Ladder};
use crate::faultplan::{FaultPlan, NoopFaults};
use crate::helper::{DiftRun, MulticoreStats};
use crate::resilience::{RecoveryPolicy, RecoveryStats};
use dift_dbi::{Engine, Tool};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_taint::{summarize_epoch, EpochSummary, IoBase, TaintEngine, TaintLabel, TaintPolicy};
use dift_vm::{Machine, StepEffects};
use std::marker::PhantomData;

/// Timing model of the epoch-parallel offload.
#[derive(Clone, Copy, Debug)]
pub struct EpochModel {
    /// The per-shard channel (each shard owns a queue of this shape).
    pub chan: ChannelModel,
    /// Helper shards propagation fans out across.
    pub workers: usize,
    /// Instructions per epoch. Larger epochs amortize composition but
    /// coarsen load balancing.
    pub epoch_len: usize,
    /// Extra main-core cycles per message to steer it to a shard (the
    /// software fan-out pays an extra indirection; dedicated hardware
    /// routes by epoch counter for free).
    pub fanout_cycles: u64,
    /// Cycles of the sequential composition pass charged per epoch at
    /// the barrier (resolving a summary's incoming labels and replaying
    /// its events is proportional to epoch state touched, bounded and
    /// small relative to the epoch itself).
    pub compose_per_epoch: u64,
}

impl EpochModel {
    /// Shared-memory fan-out: software steering pays a cycle per message.
    ///
    /// `epoch_len` equals the per-shard queue depth: a whole epoch is
    /// steered to one shard back-to-back, so the shard's queue must
    /// buffer a full epoch for the producer to race ahead to the next
    /// shard while this one drains — that overlap is where fan-out wins.
    /// A longer epoch than the queue re-serializes the producer on the
    /// current shard no matter how many shards exist.
    pub fn software(workers: usize) -> EpochModel {
        let chan = ChannelModel::software();
        EpochModel {
            chan,
            workers,
            epoch_len: chan.queue_depth,
            fanout_cycles: 1,
            compose_per_epoch: 64,
        }
    }

    /// Hardware fan-out: the interconnect routes by epoch counter.
    pub fn hardware(workers: usize) -> EpochModel {
        let chan = ChannelModel::hardware();
        EpochModel {
            chan,
            workers,
            epoch_len: chan.queue_depth,
            fanout_cycles: 0,
            compose_per_epoch: 64,
        }
    }
}

/// Taint propagation as an epoch analysis: an epoch's summary is its
/// taint transfer function.
struct TaintEpochs<T> {
    policy: TaintPolicy,
    label: PhantomData<fn() -> T>,
}

impl<T: TaintLabel + Send> EpochAnalysis for TaintEpochs<T> {
    type Summary = EpochSummary<T>;

    fn summarize(&self, _epoch: usize, records: &[StepEffects], base: &IoBase) -> EpochSummary<T> {
        summarize_epoch(records, self.policy, base)
    }

    fn instrs(summary: &EpochSummary<T>) -> u64 {
        summary.instrs()
    }
}

/// The cost layer of [`run_epoch_dift`]: a tool that charges every step's
/// enqueue and fan-out steering plus any stall on its epoch's home shard
/// queue (`epoch % workers`; other shards never block the producer), and
/// buffers the step's record. Each full window of records goes through
/// the engine and is composed before the buffer is reused.
struct EpochCost<T: TaintLabel, R: Recorder, F> {
    obs: R,
    queues: MultiQueueSim,
    model: EpochModel,
    ladder: Ladder<TaintEpochs<T>, F>,
    /// Records of the window not yet summarized.
    window: Vec<StepEffects>,
    /// Records of the windows already summarized.
    summarized: usize,
    engine: TaintEngine<T>,
}

impl<T: TaintLabel + Send, R: Recorder, F: FaultPlan> EpochCost<T, R, F> {
    /// Summarize the buffered window and compose it, in epoch order.
    fn flush(&mut self) {
        let summaries = self.ladder.run(&self.window, &mut self.obs);
        self.summarized += self.window.len();
        self.window.clear();
        // Composition: summaries splice in epoch order; the result is
        // bit-identical to serial processing (see DESIGN.md §9 and §11).
        self.obs.timed(Metric::McComposeNanos, || {
            for s in summaries {
                self.engine.apply_summary(&s);
            }
        });
    }
}

impl<T: TaintLabel + Send, R: Recorder, F: FaultPlan> Tool for EpochCost<T, R, F> {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        m.charge(self.model.chan.enqueue_cycles + self.model.fanout_cycles);
        let epoch = (self.summarized + self.window.len()) / self.model.epoch_len;
        let shard = epoch % self.queues.shards();
        let stall = self.queues.enqueue(shard, m.cycles());
        if stall > 0 {
            m.charge(stall);
        }
        if R::ENABLED {
            self.obs.add(Metric::McMessages, 1);
            self.obs.add(Metric::McStallCycles, stall);
            self.obs.observe(Metric::McQueueDepth, self.queues.depth(shard) as u64);
        }
        self.window.push(fx.clone());
        if self.window.len() == self.ladder.window_records() {
            self.flush();
        }
    }
}

/// Run `machine` with taint propagation fanned out across
/// `model.workers` helper shards, composing epoch summaries into a
/// final engine bit-identical to the serial offload. Fail-stop: a shard
/// failure aborts the run (see [`run_epoch_dift_tolerant`] for the
/// recovering variant).
pub fn run_epoch_dift<T: TaintLabel + Send + 'static>(
    machine: Machine,
    model: EpochModel,
    policy: TaintPolicy,
) -> DiftRun<T> {
    run_epoch_dift_tolerant(
        machine,
        model,
        policy,
        NoopRecorder,
        NoopFaults,
        RecoveryPolicy::fail_stop(),
    )
    .0
}

/// The fault-tolerant epoch runner: [`run_epoch_dift`] with an
/// observability recorder threaded through the cost layer (messages,
/// stalls, queue occupancy) and the summarize/compose stages (per-epoch
/// summarize latency, compose time), plus a [`FaultPlan`] adversary and
/// a [`RecoveryPolicy`]. The recorder is returned alongside the run so
/// callers can snapshot it; with [`NoopRecorder`] every probe compiles
/// away.
///
/// With recovery enabled the run **always completes** with results
/// bit-identical to the serial engine, whatever single or multiple
/// faults the plan injects: lost epochs (missing summary or failed
/// record-count check) are retried on spare shards and finally
/// re-summarized inline on the main thread. With recovery disabled
/// (fail-stop) the first lost epoch aborts with a diagnostic naming its
/// home shard and the epoch.
pub fn run_epoch_dift_tolerant<T, R, F>(
    machine: Machine,
    model: EpochModel,
    policy: TaintPolicy,
    obs: R,
    faults: F,
    recovery: RecoveryPolicy,
) -> (DiftRun<T>, R)
where
    T: TaintLabel + Send + 'static,
    R: Recorder,
    F: FaultPlan,
{
    let mut helper_policy = policy;
    helper_policy.charge_cycles = false; // the timing model owns the cost
    let mut engine = TaintEngine::<T>::new(helper_policy);
    engine.pre_size(machine.mem_words());
    let analysis = TaintEpochs::<T> { policy: helper_policy, label: PhantomData };
    let (workers, epoch_len) = (model.workers, model.epoch_len);
    let ladder =
        Ladder::new(analysis, faults, recovery, workers, epoch_len, Metric::McShardEpochNanos);
    let mut cost = EpochCost {
        obs,
        queues: MultiQueueSim::new(model.chan, workers),
        model,
        ladder,
        window: Vec::new(),
        summarized: 0,
        engine,
    };
    let result = Engine::new(machine).run_tool(&mut cost);
    cost.flush();
    let EpochCost { mut obs, queues, ladder, engine, .. } = cost;
    let n = ladder.epochs() as u64;
    let recovered_records = ladder.recovered_records;
    let recovery = ladder.finish(&mut obs);
    if R::ENABLED {
        obs.add(Metric::McEpochs, n);
    }

    let compose_cycles = model.compose_per_epoch * n;
    let main_cycles = result.cycles;
    let stats = MulticoreStats {
        main_cycles,
        helper_busy: queues.helper_busy(),
        stall_cycles: queues.stall_cycles(),
        messages: queues.messages(),
        // The composition pass is the sequential barrier after both the
        // main core and the slowest shard finish; recovered epochs are
        // helper work re-done after the barrier, charged at the helper's
        // per-message rate (exactly 0 when nothing was lost).
        completion_cycles: main_cycles.max(queues.max_helper_clock())
            + compose_cycles
            + recovered_records * model.chan.helper_per_msg,
        workers: model.workers,
        epochs: n,
        compose_cycles,
        recovery,
        ..MulticoreStats::default()
    };
    (DiftRun { engine, result, stats }, obs)
}

/// Epoch-parallel propagation over a pre-captured effects stream: the
/// wall-clock scaling primitive (no VM in the loop, no timing model).
/// `workers` scoped threads claim epochs from a shared counter,
/// summarize them concurrently, and the caller's thread composes the
/// summaries in order. Bit-identical to serially `process`ing `stream`.
pub fn epoch_process_stream<T: TaintLabel + Send + Sync>(
    stream: &[StepEffects],
    policy: TaintPolicy,
    mem_words: usize,
    epoch_len: usize,
    workers: usize,
) -> TaintEngine<T> {
    epoch_process_stream_tolerant(stream, policy, mem_words, epoch_len, workers, NoopFaults).0
}

/// [`epoch_process_stream`] with a [`FaultPlan`] adversary, recovering
/// under [`RecoveryPolicy::tolerant`]: whatever the plan injects, the
/// result is bit-identical to serial processing.
pub fn epoch_process_stream_tolerant<T: TaintLabel + Send + Sync, F: FaultPlan>(
    stream: &[StepEffects],
    policy: TaintPolicy,
    mem_words: usize,
    epoch_len: usize,
    workers: usize,
    faults: F,
) -> (TaintEngine<T>, RecoveryStats) {
    let analysis = TaintEpochs::<T> { policy, label: PhantomData };
    let tolerant = RecoveryPolicy::tolerant();
    let mut ladder =
        Ladder::new(analysis, faults, tolerant, workers, epoch_len, Metric::McShardEpochNanos);
    let mut engine = TaintEngine::<T>::new(policy);
    engine.pre_size(mem_words);
    for s in ladder.run(stream, &mut NoopRecorder) {
        engine.apply_summary(&s);
    }
    (engine, ladder.finish(&mut NoopRecorder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultplan::{
        silence_injected_panics, FaultSite, ScriptedFaults, INJECTED_PANIC_MARKER,
    };
    use crate::helper::{panic_message, run_helper_dift, run_inline_dift};
    use dift_isa::{BinOp, BranchCond, Program, ProgramBuilder, Reg};
    use dift_taint::{BitTaint, PcTaint};
    use dift_vm::MachineConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn taint_workload() -> (Arc<Program>, Vec<u64>) {
        taint_loop(500)
    }

    /// A 7-instruction loop run `iters` times over tainted input.
    fn taint_loop(iters: i64) -> (Arc<Program>, Vec<u64>) {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 0);
        b.li(Reg(3), iters);
        b.label("loop");
        b.add(Reg(2), Reg(2), Reg(1));
        b.bini(BinOp::Rem, Reg(4), Reg(2), 97);
        b.li(Reg(5), 300);
        b.store(Reg(4), Reg(5), 0);
        b.load(Reg(6), Reg(5), 0);
        b.bini(BinOp::Sub, Reg(3), Reg(3), 1);
        b.branch(BranchCond::Ne, Reg(3), Reg(0), "loop");
        b.output(Reg(2), 0);
        b.halt();
        (Arc::new(b.build().unwrap()), vec![7])
    }

    fn machine(p: &Arc<Program>, inputs: &[u64]) -> Machine {
        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, inputs);
        m
    }

    fn small_model(workers: usize) -> EpochModel {
        // Short epochs so even the test workload spans many of them.
        let mut m = EpochModel::software(workers);
        m.epoch_len = 256;
        m.compose_per_epoch = 64;
        m
    }

    #[test]
    fn epoch_runner_matches_inline_at_every_width() {
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        for workers in [1, 2, 3, 4] {
            let run = run_epoch_dift::<BitTaint>(
                machine(&p, &inputs),
                small_model(workers),
                TaintPolicy::propagate_only(),
            );
            assert_eq!(run.engine.output_labels, inline.engine.output_labels);
            assert_eq!(run.engine.alerts, inline.engine.alerts);
            assert_eq!(run.engine.tainted_words(), inline.engine.tainted_words());
            assert_eq!(run.engine.stats(), inline.engine.stats(), "workers={workers}");
            assert!(run.stats.epochs > 1, "workload must span multiple epochs");
            assert_eq!(run.stats.workers, workers);
            assert!(!run.stats.recovery.eventful(), "fault-free run must be uneventful");
        }
    }

    #[test]
    fn epoch_runner_detects_attacks_like_the_single_helper() {
        // PC-taint attack detection across the fan-out (§3.3 + §2.1):
        // alerts, origins and the root-cause PC must survive epoch
        // composition even when the detection epoch differs from the
        // taint-introduction epoch.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.addi(Reg(2), Reg(1), 100); // tainted address, last writer
                                     // Pad so the alerting store lands in a later epoch.
        for _ in 0..40 {
            b.addi(Reg(6), Reg(6), 1);
        }
        b.li(Reg(3), 1);
        b.store(Reg(3), Reg(2), 0); // alert: tainted store address
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let single = run_helper_dift::<PcTaint>(
            machine(&p, &[4]),
            ChannelModel::hardware(),
            TaintPolicy::default(),
        );
        let mut model = small_model(3);
        model.epoch_len = 16;
        let fanned = run_epoch_dift::<PcTaint>(machine(&p, &[4]), model, TaintPolicy::default());
        assert_eq!(fanned.engine.alerts, single.engine.alerts);
        assert_eq!(fanned.engine.alerts.len(), 1);
        assert_eq!(fanned.engine.alerts[0].label.pc(), Some(1), "addi is the last writer");
        assert!(fanned.stats.epochs >= 3);
    }

    #[test]
    fn epoch_runner_handles_spawned_threads() {
        // Tainted data crosses threads through shared memory; the
        // summarizer's per-tid register files and the composition must
        // reproduce the interleaved serial result exactly.
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 700);
        b.store(Reg(1), Reg(2), 0); // mem[700] tainted
        b.spawn(Reg(5), "w", Reg(1));
        b.spawn(Reg(6), "w", Reg(1));
        b.join(Reg(5));
        b.join(Reg(6));
        b.load(Reg(3), Reg(2), 0);
        b.output(Reg(3), 0);
        b.halt();
        b.func("w");
        b.li(Reg(1), 700);
        b.li(Reg(2), 12);
        b.label("loop");
        b.load(Reg(3), Reg(1), 0);
        b.addi(Reg(3), Reg(3), 1);
        b.store(Reg(3), Reg(1), 0);
        b.bini(BinOp::Sub, Reg(2), Reg(2), 1);
        b.branch(BranchCond::Ne, Reg(2), Reg(0), "loop");
        b.halt();
        let p = Arc::new(b.build().unwrap());

        let mk = || {
            let mut m = Machine::new(p.clone(), MachineConfig::small().with_quantum(3));
            m.feed_input(0, &[9]);
            m
        };
        let inline = run_inline_dift::<BitTaint>(mk(), TaintPolicy::propagate_only());
        assert!(!inline.engine.output_labels[0].2.is_clean(), "taint crosses threads");
        let mut model = small_model(2);
        model.epoch_len = 8;
        let fanned = run_epoch_dift::<BitTaint>(mk(), model, TaintPolicy::propagate_only());
        assert_eq!(fanned.engine.output_labels, inline.engine.output_labels);
        assert_eq!(fanned.engine.tainted_words(), inline.engine.tainted_words());
        assert_eq!(fanned.engine.stats(), inline.engine.stats());
    }

    /// A helper-bound model: the shard needs far longer per message than
    /// the producer takes per instruction, and each shard's queue holds a
    /// full epoch so fan-out can overlap shard drains.
    fn helper_bound_model(workers: usize) -> EpochModel {
        EpochModel {
            chan: ChannelModel { enqueue_cycles: 2, helper_per_msg: 9, queue_depth: 128 },
            workers,
            epoch_len: 128,
            fanout_cycles: 1,
            compose_per_epoch: 32,
        }
    }

    #[test]
    fn modeled_completion_improves_with_more_shards() {
        let (p, inputs) = taint_workload();
        let c1 = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            helper_bound_model(1),
            TaintPolicy::propagate_only(),
        )
        .stats;
        let c4 = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            helper_bound_model(4),
            TaintPolicy::propagate_only(),
        )
        .stats;
        assert!(
            c1.stall_cycles > 0,
            "one shard must be the bottleneck for the comparison to mean anything"
        );
        assert!(
            c4.completion_cycles < c1.completion_cycles,
            "4 shards must beat 1: {} vs {}",
            c4.completion_cycles,
            c1.completion_cycles
        );
        assert_eq!(c1.messages, c4.messages, "same modeled traffic");
        assert!(c4.stall_cycles < c1.stall_cycles, "fan-out relieves backpressure");
    }

    #[test]
    fn modeled_stats_are_deterministic() {
        let (p, inputs) = taint_workload();
        let a = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
        )
        .stats;
        let b = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
        )
        .stats;
        assert_eq!(a.main_cycles, b.main_cycles);
        assert_eq!(a.completion_cycles, b.completion_cycles);
        assert_eq!(a.stall_cycles, b.stall_cycles);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.compose_cycles, b.compose_cycles);
    }

    #[test]
    fn stream_parallel_path_matches_serial_processing() {
        let (p, inputs) = taint_workload();
        let m = machine(&p, &inputs);
        let mem_words = m.mem_words();
        let (fxs, _) = dift_dbi::capture(m);

        let policy = TaintPolicy::propagate_only();
        let mut serial = TaintEngine::<PcTaint>::new(policy);
        serial.pre_size(mem_words);
        for fx in &fxs {
            serial.process(fx);
        }
        for workers in [1, 4] {
            let par = epoch_process_stream::<PcTaint>(&fxs, policy, mem_words, 64, workers);
            assert_eq!(par.output_labels, serial.output_labels, "workers={workers}");
            assert_eq!(par.tainted_words(), serial.tainted_words());
            assert_eq!(par.stats(), serial.stats());
        }
    }

    #[test]
    fn windowed_run_matches_inline_and_keeps_fault_coordinates() {
        silence_injected_panics();
        // Three windows of 128 epochs; epoch 200 lies in the second.
        let (p, inputs) = taint_loop(12_000);
        let inline = run_inline_dift::<PcTaint>(machine(&p, &inputs), TaintPolicy::default());
        assert!(inline.result.steps > 2 * crate::engine::WINDOW_RECORDS as u64);
        let plan = ScriptedFaults::single(FaultSite::CorruptSummary, 200 % 3, 200);
        let (run, obs) = run_epoch_dift_tolerant::<PcTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::default(),
            dift_obs::StatsRecorder::default(),
            plan.clone(),
            RecoveryPolicy::quick(),
        );
        assert_matches_inline(&run, &inline, "windowed");
        let rs = run.stats.recovery;
        assert_eq!((rs.faults_injected, rs.epochs_lost, rs.spare_recovered), (1, 1, 1), "{rs:?}");
        assert_eq!(run.stats.epochs, inline.result.steps.div_ceil(256));
        assert_eq!(obs.hist(Metric::McShardEpochNanos).count(), run.stats.epochs);

        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_epoch_dift_tolerant::<PcTaint, _, _>(
                machine(&p, &inputs),
                small_model(3),
                TaintPolicy::default(),
                NoopRecorder,
                plan,
                RecoveryPolicy::fail_stop(),
            )
        }));
        let msg = panic_message(&*caught.err().expect("fail-stop must abort"));
        assert!(msg.contains("epoch shard 2 failed in epoch 200"), "got: {msg}");
    }

    // ---- resilience -----------------------------------------------------

    fn assert_matches_inline<T: TaintLabel>(run: &DiftRun<T>, inline: &DiftRun<T>, what: &str) {
        assert_eq!(run.engine.output_labels, inline.engine.output_labels, "{what}: labels");
        assert_eq!(run.engine.alerts, inline.engine.alerts, "{what}: alerts");
        assert_eq!(run.engine.tainted_words(), inline.engine.tainted_words(), "{what}: shadow");
        assert_eq!(run.engine.stats(), inline.engine.stats(), "{what}: peak stats");
    }

    #[test]
    fn every_single_fault_is_recovered_bit_identically() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let inline = run_inline_dift::<PcTaint>(machine(&p, &inputs), TaintPolicy::default());
        for site in FaultSite::ALL {
            for shard in 0..2 {
                // Epoch e is steered to shard e % workers, so injecting
                // at epoch == shard guarantees the coordinate is hit.
                let plan = ScriptedFaults::single(site, shard, shard);
                let (run, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
                    machine(&p, &inputs),
                    small_model(3),
                    TaintPolicy::default(),
                    NoopRecorder,
                    plan,
                    RecoveryPolicy::quick(),
                );
                let what = format!("{site:?} at shard {shard}");
                assert_matches_inline(&run, &inline, &what);
                let rs = run.stats.recovery;
                assert!(rs.faults_injected >= 1, "{what}: fault must fire, got {rs:?}");
                assert!(rs.epochs_recovered >= 1, "{what}: must recover, got {rs:?}");
                assert_eq!(rs.epochs_recovered, rs.epochs_lost, "{what}: {rs:?}");
                if site == FaultSite::QueueStall {
                    assert!(rs.shards_lost >= 1, "{what}: stall must cost the shard: {rs:?}");
                }
            }
        }
    }

    #[test]
    fn spare_shard_retry_recovers_before_degrading() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        let plan = ScriptedFaults::single(FaultSite::ShardPanic, 1, 1);
        let (run, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
            NoopRecorder,
            plan,
            RecoveryPolicy::quick(),
        );
        assert_matches_inline(&run, &inline, "spare retry");
        let rs = run.stats.recovery;
        assert_eq!(rs.spare_recovered, 1, "the spare shard should win: {rs:?}");
        assert_eq!(rs.degraded_epochs, 0, "no degradation needed: {rs:?}");
        assert_eq!(rs.retries, 1, "{rs:?}");
    }

    #[test]
    fn exhausted_retries_degrade_to_inline_and_still_match() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        // Kill epoch 1 on its home shard AND on the spare (shard index
        // workers + round = 3 + 0), so the single retry round fails and
        // the runner must degrade to the main thread.
        let plan = ScriptedFaults::new(vec![
            crate::faultplan::Injection { site: FaultSite::ShardPanic, shard: 1, epoch: 1 },
            crate::faultplan::Injection { site: FaultSite::ShardPanic, shard: 3, epoch: 1 },
        ]);
        let (run, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
            NoopRecorder,
            plan,
            RecoveryPolicy::quick(),
        );
        assert_matches_inline(&run, &inline, "degraded");
        let rs = run.stats.recovery;
        assert_eq!(rs.degraded_epochs, 1, "{rs:?}");
        assert_eq!(rs.spare_recovered, 0, "{rs:?}");
        assert!(rs.retries >= 1, "{rs:?}");
        assert_eq!(rs.faults_injected, 2, "{rs:?}");
    }

    #[test]
    fn fail_stop_panic_names_shard_and_epoch() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let plan = ScriptedFaults::single(FaultSite::ShardPanic, 2, 2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_epoch_dift_tolerant::<BitTaint, _, _>(
                machine(&p, &inputs),
                small_model(3),
                TaintPolicy::propagate_only(),
                NoopRecorder,
                plan,
                RecoveryPolicy::fail_stop(),
            )
        }));
        let msg = panic_message(&*caught.err().expect("fail-stop must abort"));
        assert!(
            msg.contains("shard 2") && msg.contains("epoch 2"),
            "diagnostic must name the shard and epoch, got: {msg}"
        );
        assert!(msg.contains(INJECTED_PANIC_MARKER), "original payload preserved: {msg}");
    }

    #[test]
    fn zero_fault_tolerant_run_matches_fail_stop_exactly() {
        let (p, inputs) = taint_workload();
        let base = run_epoch_dift::<BitTaint>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
        );
        let (tol, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
            machine(&p, &inputs),
            small_model(3),
            TaintPolicy::propagate_only(),
            NoopRecorder,
            NoopFaults,
            RecoveryPolicy::tolerant(),
        );
        assert_eq!(tol.engine.output_labels, base.engine.output_labels);
        assert_eq!(tol.engine.stats(), base.engine.stats());
        // The tolerance machinery must not perturb the timing model.
        assert_eq!(tol.stats.completion_cycles, base.stats.completion_cycles);
        assert_eq!(tol.stats.main_cycles, base.stats.main_cycles);
        assert_eq!(tol.stats.stall_cycles, base.stats.stall_cycles);
        assert!(!tol.stats.recovery.eventful());
    }

    #[test]
    fn stream_tolerant_recovers_every_site() {
        silence_injected_panics();
        let (p, inputs) = taint_workload();
        let m = machine(&p, &inputs);
        let mem_words = m.mem_words();
        let (fxs, _) = dift_dbi::capture(m);
        let policy = TaintPolicy::propagate_only();
        let serial = epoch_process_stream::<BitTaint>(&fxs, policy, mem_words, 64, 1);
        for site in FaultSite::ALL {
            // Armed at every shard index; only epoch 2's home shard
            // (2 % 3) is consulted, so exactly one injection fires.
            let plan = ScriptedFaults::new(
                (0..3).map(|w| crate::faultplan::Injection { site, shard: w, epoch: 2 }).collect(),
            );
            let (par, rs) =
                epoch_process_stream_tolerant::<BitTaint, _>(&fxs, policy, mem_words, 64, 3, plan);
            assert_eq!(par.output_labels, serial.output_labels, "{site:?}");
            assert_eq!(par.tainted_words(), serial.tainted_words(), "{site:?}");
            assert_eq!(par.stats(), serial.stats(), "{site:?}");
            assert!(rs.faults_injected >= 1, "{site:?}: {rs:?}");
            assert!(rs.epochs_recovered >= 1, "{site:?}: {rs:?}");
        }
    }
}
