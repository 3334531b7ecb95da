//! The helper-thread DIFT runner.

use crate::channel::{ChannelModel, QueueSim};
use crate::resilience::RecoveryStats;
use crossbeam::channel as xbeam;
use dift_dbi::{Engine, Tool};
use dift_taint::{TaintEngine, TaintLabel, TaintPolicy};
use dift_vm::{Machine, RunResult, StepEffects};
use std::thread;

/// Outcome of a DIFT run (inline or offloaded).
pub struct DiftRun<T: TaintLabel> {
    /// The taint engine with its final shadow state and alerts.
    pub engine: TaintEngine<T>,
    pub result: RunResult,
    pub stats: MulticoreStats,
}

/// Timing breakdown of an offloaded run.
#[derive(Clone, Debug, Default)]
pub struct MulticoreStats {
    /// Main-core cycles (application + enqueue + stalls).
    pub main_cycles: u64,
    /// Helper-core busy cycles.
    pub helper_busy: u64,
    /// Producer stalls caused by a full queue.
    pub stall_cycles: u64,
    /// Messages shipped main→helper (modeled per-instruction cost; the
    /// timing model is unchanged by batching).
    pub messages: u64,
    /// Physical channel sends of the single-helper offload: messages
    /// travel in fixed-size batches, so this is ≤ `messages` (0 for the
    /// epoch runners, which buffer records instead of sending them). Purely
    /// an implementation statistic — no modeled cycles attach to it.
    pub batches: u64,
    /// End-to-end completion: main finish vs helper drain, whichever is
    /// later.
    pub completion_cycles: u64,
    /// Helper shards the propagation work fanned out across (0 for the
    /// inline baseline, 1 for the single-helper offload).
    pub workers: usize,
    /// Epochs the stream was split into (0 when not epoch-parallel).
    pub epochs: u64,
    /// Modeled cycles of the sequential composition pass stitching epoch
    /// summaries (0 when not epoch-parallel).
    pub compose_cycles: u64,
    /// What the fault-tolerance machinery did (all zeros on a fault-free
    /// run, and always for the inline and single-helper paths).
    pub recovery: RecoveryStats,
}

impl MulticoreStats {
    /// Main-thread overhead factor relative to a native run.
    pub fn overhead_vs(&self, native_cycles: u64) -> f64 {
        if native_cycles == 0 {
            0.0
        } else {
            self.completion_cycles as f64 / native_cycles as f64
        }
    }
}

/// Instruction records per physical channel send. The *modeled* cost
/// stays per-message (`ChannelModel::enqueue_cycles` each instruction),
/// so batching changes real-channel traffic only — reported overheads
/// (the paper's ≈48 % hardware preset) are bit-identical to per-message
/// shipping.
pub const BATCH_SIZE: usize = 64;

/// Tool that ships every instruction record to the helper thread and
/// accounts the communication in the timing model. Records accumulate
/// in a fixed-size batch and flush when it fills, when the modeled
/// queue reports pressure (a stall), on thread forks, and at finish —
/// amortizing real channel synchronization across `BATCH_SIZE` steps.
struct Offloader<T: TaintLabel> {
    tx: Option<xbeam::Sender<Vec<StepEffects>>>,
    batch: Vec<StepEffects>,
    batches: u64,
    queue: QueueSim,
    model: ChannelModel,
    _marker: std::marker::PhantomData<T>,
}

impl<T: TaintLabel> Offloader<T> {
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        if let Some(tx) = &self.tx {
            let full = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH_SIZE));
            // The helper genuinely runs on another core.
            let _ = tx.send(full);
            self.batches += 1;
        }
    }
}

impl<T: TaintLabel> Tool for Offloader<T> {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        // Producer cost: the enqueue itself plus any stall for a full
        // queue, charged to the main core's clock. Modeled per message,
        // exactly as before batching.
        m.charge(self.model.enqueue_cycles);
        let stall = self.queue.enqueue(m.cycles());
        if stall > 0 {
            m.charge(stall);
        }
        self.batch.push(fx.clone());
        // Queue pressure or a fork means the helper should see the
        // backlog now; otherwise wait for a full batch.
        if self.batch.len() >= BATCH_SIZE || stall > 0 || fx.spawned.is_some() {
            self.flush();
        }
    }

    fn on_finish(&mut self, _m: &mut Machine, _r: &RunResult) {
        self.flush();
    }
}

/// Run `machine` with taint tracking offloaded to a helper thread over
/// the given channel model.
pub fn run_helper_dift<T: TaintLabel + Send + 'static>(
    machine: Machine,
    model: ChannelModel,
    policy: TaintPolicy,
) -> DiftRun<T> {
    // The channel carries batches now, so its real depth is in batch
    // units; keep at least a few in flight.
    let (tx, rx) = xbeam::bounded::<Vec<StepEffects>>((model.queue_depth / BATCH_SIZE).max(4));
    let mut helper_policy = policy;
    helper_policy.charge_cycles = false; // the timing model owns the cost
    let mem_words = machine.mem_words();
    let handle = thread::spawn(move || {
        let mut engine = TaintEngine::<T>::new(helper_policy);
        engine.pre_size(mem_words);
        while let Ok(batch) = rx.recv() {
            for fx in &batch {
                engine.process(fx);
            }
        }
        engine
    });

    let mut offloader = Offloader::<T> {
        tx: Some(tx),
        batch: Vec::with_capacity(BATCH_SIZE),
        batches: 0,
        queue: QueueSim::new(model),
        model,
        _marker: std::marker::PhantomData,
    };
    let mut dbi = Engine::new(machine);
    let result = dbi.run_tool(&mut offloader);
    // on_finish flushed the tail; close the channel so the helper
    // drains and exits.
    offloader.flush();
    offloader.tx.take();
    // Re-raise a helper panic with its message, not the opaque payload.
    let engine = handle
        .join()
        .unwrap_or_else(|p| panic!("helper DIFT thread panicked: {}", panic_message(&*p)));

    let main_cycles = result.cycles;
    let stats = MulticoreStats {
        main_cycles,
        helper_busy: offloader.queue.helper_busy,
        stall_cycles: offloader.queue.stall_cycles,
        messages: offloader.queue.messages,
        batches: offloader.batches,
        completion_cycles: main_cycles.max(offloader.queue.helper_clock),
        workers: 1,
        ..MulticoreStats::default()
    };
    DiftRun { engine, result, stats }
}

/// The human-readable message inside a panic payload (the `Any` a
/// `join()` error, `catch_unwind` or a panic hook hands back).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Baseline: the same taint tracking performed inline on the main core
/// (the single-core software DIFT the paper improves on).
pub fn run_inline_dift<T: TaintLabel>(machine: Machine, policy: TaintPolicy) -> DiftRun<T> {
    let mut engine = TaintEngine::<T>::new(policy);
    let mut dbi = Engine::new(machine);
    let result = dbi.run_tool(&mut engine);
    let stats = MulticoreStats {
        main_cycles: result.cycles,
        completion_cycles: result.cycles,
        ..MulticoreStats::default()
    };
    DiftRun { engine, result, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dift_isa::{BinOp, BranchCond, ProgramBuilder, Reg};
    use dift_taint::BitTaint;
    use dift_vm::MachineConfig;
    use std::sync::Arc;

    fn taint_workload() -> (Arc<dift_isa::Program>, Vec<u64>) {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.li(Reg(2), 0);
        b.li(Reg(3), 500);
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

    fn machine(p: &Arc<dift_isa::Program>, inputs: &[u64]) -> Machine {
        let mut m = Machine::new(p.clone(), MachineConfig::small());
        m.feed_input(0, inputs);
        m
    }

    #[test]
    fn helper_produces_same_taint_as_inline() {
        let (p, inputs) = taint_workload();
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        let offload = run_helper_dift::<BitTaint>(
            machine(&p, &inputs),
            ChannelModel::hardware(),
            TaintPolicy::propagate_only(),
        );
        assert_eq!(inline.engine.output_labels.len(), offload.engine.output_labels.len());
        for (a, b) in inline.engine.output_labels.iter().zip(&offload.engine.output_labels) {
            assert_eq!(a, b, "helper must compute identical labels");
        }
        assert_eq!(inline.engine.tainted_words(), offload.engine.tainted_words());
    }

    #[test]
    fn hardware_offload_is_cheaper_than_inline() {
        let (p, inputs) = taint_workload();
        let native = machine(&p, &inputs).run().cycles;
        let inline =
            run_inline_dift::<BitTaint>(machine(&p, &inputs), TaintPolicy::propagate_only());
        let hw = run_helper_dift::<BitTaint>(
            machine(&p, &inputs),
            ChannelModel::hardware(),
            TaintPolicy::propagate_only(),
        );
        let inline_oh = inline.stats.overhead_vs(native);
        let hw_oh = hw.stats.overhead_vs(native);
        assert!(hw_oh < inline_oh, "offload must beat inline: {hw_oh:.2} vs {inline_oh:.2}");
        assert!(hw_oh > 1.0);
    }

    #[test]
    fn software_channel_costs_more_than_hardware() {
        let (p, inputs) = taint_workload();
        let native = machine(&p, &inputs).run().cycles;
        let sw = run_helper_dift::<BitTaint>(
            machine(&p, &inputs),
            ChannelModel::software(),
            TaintPolicy::propagate_only(),
        );
        let hw = run_helper_dift::<BitTaint>(
            machine(&p, &inputs),
            ChannelModel::hardware(),
            TaintPolicy::propagate_only(),
        );
        assert!(
            sw.stats.overhead_vs(native) > hw.stats.overhead_vs(native),
            "sw {} vs hw {}",
            sw.stats.overhead_vs(native),
            hw.stats.overhead_vs(native)
        );
        assert_eq!(sw.stats.messages, hw.stats.messages);
    }

    #[test]
    fn stalls_appear_when_helper_is_saturated() {
        let (p, inputs) = taint_workload();
        // Pathologically slow helper with a tiny queue.
        let model = ChannelModel { enqueue_cycles: 1, helper_per_msg: 50, queue_depth: 4 };
        let run =
            run_helper_dift::<BitTaint>(machine(&p, &inputs), model, TaintPolicy::propagate_only());
        assert!(run.stats.stall_cycles > 0, "backpressure must stall the producer");
        assert!(run.stats.completion_cycles >= run.stats.main_cycles);
    }

    #[test]
    fn alerts_work_across_the_offload() {
        // PC-taint attack detection on the helper core (§3.3 + §2.1).
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.addi(Reg(2), Reg(1), 100);
        b.li(Reg(3), 1);
        b.store(Reg(3), Reg(2), 0); // tainted store address -> alert
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let run = run_helper_dift::<dift_taint::PcTaint>(
            machine(&p, &[4]),
            ChannelModel::hardware(),
            TaintPolicy::default(),
        );
        assert_eq!(run.engine.alerts.len(), 1);
        assert_eq!(run.engine.alerts[0].label.pc(), Some(1), "addi is the last writer");
    }

    /// A label whose propagation panics on tainted input — stands in for
    /// any helper-side bug a differential run might trip.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct PanickyLabel(bool);

    impl dift_taint::TaintLabel for PanickyLabel {
        fn is_clean(&self) -> bool {
            !self.0
        }
        fn propagate(sources: &[Self], _ctx: &dift_taint::LabelCtx) -> Self {
            if sources.iter().any(|s| s.0) {
                panic!("synthetic helper-side label fault");
            }
            PanickyLabel(false)
        }
        fn source(_ctx: &dift_taint::LabelCtx, _channel: u16, _index: u64) -> Self {
            PanickyLabel(true)
        }
        fn shadow_bytes(&self) -> usize {
            1
        }
    }

    #[test]
    fn helper_panics_surface_their_message() {
        let (p, inputs) = taint_workload();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_helper_dift::<PanickyLabel>(
                machine(&p, &inputs),
                ChannelModel::hardware(),
                TaintPolicy::propagate_only(),
            )
        }));
        let payload = match caught {
            Ok(_) => panic!("the helper's panic must propagate"),
            Err(p) => p,
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("propagated panic carries a String message");
        assert!(
            msg.contains("helper DIFT thread panicked")
                && msg.contains("synthetic helper-side label fault"),
            "panic must name the helper and carry the original payload, got: {msg}"
        );
    }

    #[test]
    fn batching_amortizes_channel_sends_without_touching_the_model() {
        let (p, inputs) = taint_workload();
        let run = run_helper_dift::<BitTaint>(
            machine(&p, &inputs),
            ChannelModel::hardware(),
            TaintPolicy::propagate_only(),
        );
        // Every instruction is still a modeled message...
        assert!(run.stats.messages > BATCH_SIZE as u64 * 4);
        // ...but the physical channel saw far fewer sends.
        assert!(run.stats.batches > 0);
        assert!(
            run.stats.batches <= run.stats.messages / (BATCH_SIZE as u64 / 2),
            "batching must amortize sends: {} batches for {} messages",
            run.stats.batches,
            run.stats.messages
        );
        // And batching must not change the modeled clock: identical
        // inputs yield identical modeled stats across runs.
        let again = run_helper_dift::<BitTaint>(
            machine(&p, &inputs),
            ChannelModel::hardware(),
            TaintPolicy::propagate_only(),
        );
        assert_eq!(run.stats.main_cycles, again.stats.main_cycles);
        assert_eq!(run.stats.completion_cycles, again.stats.completion_cycles);
        assert_eq!(run.stats.stall_cycles, again.stats.stall_cycles);
    }
}
