//! Pieces shared by the end-to-end and traced runs: stream capture, the
//! instrumented kv-server loop, tracer configuration, and slice queries
//! with their oracle.

use crate::util::{fingerprint, Rng};
use dift_dbi::{Engine, Tool};
use dift_ddg::{ColdStore, DdgGraph, OnTrac, OnTracConfig, SliceSnapshot};
use dift_isa::Program;
use dift_multicore::{
    epoch_process_stream_tolerant, shard_lineage_stream, LineageShardConfig, LineageShardRun,
    NoopFaults,
};
use dift_slicing::{
    backward_from_addr_over, backward_from_addr_stitched_checked, backward_over,
    backward_stitched_checked, forward_over, forward_stitched_checked, DepSource, KindMask, Slice,
    Slicer,
};
use dift_taint::{PcTaint, TaintEngine, TaintPolicy};
use dift_vm::{ExitStatus, Machine, RunResult, StepEffects};
use std::path::Path;
use std::time::Instant;

/// ONTRAC window budget for the `debug` pipeline: small against the
/// kernels' traces (tens to hundreds of KiB) so most history is evicted
/// into the cold tier and queries regularly cross the eviction horizon.
pub const WINDOW_BYTES: usize = 16 * 1024;

/// A window no kernel fills: the never-evicted reference trace.
pub const FULL_WINDOW_BYTES: usize = 1 << 30;

/// Instructions per epoch in the epoch-parallel runners.
pub const EPOCH_LEN: usize = 512;

/// roBDD input-identifier width for the sharded lineage runner.
pub const ID_BITS: u32 = 16;

/// Records a run's effects stream.
#[derive(Default)]
pub struct Capture {
    pub fxs: Vec<StepEffects>,
}

impl Tool for Capture {
    fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
        self.fxs.push(fx.clone());
    }
}

/// Capture a program's effects stream through the DBI engine.
pub fn capture(engine: Engine) -> Vec<StepEffects> {
    let mut engine = engine;
    let mut cap = Capture::default();
    engine.run_tool(&mut cap);
    cap.fxs
}

/// The `epoch2` pipeline over one captured stream at `workers` threads.
pub struct EpochRun {
    /// Epoch-parallel PC-taint (default policy), composed.
    pub taint: TaintEngine<PcTaint>,
    /// Sharded roBDD lineage plus the merged slice index.
    pub lineage: LineageShardRun,
    /// Epochs either runner had to recover (0 without faults).
    pub epochs_recovered: u64,
}

pub fn epoch_pipeline(
    stream: &[StepEffects],
    program: &Program,
    mem: usize,
    workers: usize,
) -> EpochRun {
    let (taint, rs) = epoch_process_stream_tolerant::<PcTaint, _>(
        stream,
        TaintPolicy::default(),
        mem,
        EPOCH_LEN,
        workers,
        NoopFaults,
    );
    let mut cfg = LineageShardConfig::new(workers, EPOCH_LEN, ID_BITS);
    cfg.slice = true;
    let lineage = shard_lineage_stream(stream, program, mem, &cfg);
    let epochs_recovered = rs.epochs_recovered + lineage.recovery.epochs_recovered;
    EpochRun { taint, lineage, epochs_recovered }
}

/// The `debug` pipeline's tracer: ONTRAC with every generic
/// optimization and the slice index on, an eviction-heavy window, and a
/// cold tier spilling sealed segments to a durable store in `dir`.
pub fn ontrac_cold(dir: &Path) -> OnTracConfig {
    let mut cfg = OnTracConfig::optimized(WINDOW_BYTES);
    cfg.cold_tier = true;
    cfg.durable_dir = Some(dir.to_path_buf());
    cfg
}

/// Run `engine` to completion with `tools`, exactly like
/// [`Engine::run`], additionally timing each kv-server request: a
/// request's latency is the host time between a worker reading its op
/// word and reading the next one (service plus interleaving with the
/// other workers). Only the request boundaries read the clock.
pub fn run_timing_requests(
    engine: &mut Engine,
    tools: &mut [&mut dyn Tool],
    latencies_us: &mut Vec<f64>,
) -> RunResult {
    for t in tools.iter_mut() {
        t.on_start(engine.machine_mut());
    }
    let mut words_read = [0u64; 8];
    let mut last_op: [Option<Instant>; 8] = [None; 8];
    loop {
        let before = engine.machine().steps();
        let status = engine.step(tools);
        let m = engine.machine();
        if m.steps() != before {
            if let Some((ch, _)) = m.last_step().input {
                let ch = ch as usize;
                if (1..8).contains(&ch) {
                    if words_read[ch] % 3 == 0 {
                        let now = Instant::now();
                        if let Some(prev) = last_op[ch] {
                            latencies_us.push((now - prev).as_secs_f64() * 1e6);
                        }
                        last_op[ch] = Some(now);
                    }
                    words_read[ch] += 1;
                }
            }
        }
        if status != ExitStatus::Running {
            break;
        }
    }
    let m = engine.machine();
    let result = RunResult {
        status: m.status(),
        steps: m.steps(),
        cycles: m.cycles(),
        threads: m.threads().len(),
        sched_decisions: m.sched_trace().len(),
    };
    for t in tools.iter_mut() {
        t.on_finish(engine.machine_mut(), &result);
    }
    result
}

/// Output channels the guest programs write (checksums, GET replies).
pub fn outputs(m: &Machine) -> (Vec<u64>, Vec<u64>) {
    (m.output(0).to_vec(), m.output(1).to_vec())
}

/// One slice query: kind (0 backward, 1 forward, 2 backward-from-addr),
/// kind mask preset, and criterion (a step, or a program address).
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub prog: usize,
    pub kind: u8,
    pub mask: u8,
    pub crit: u64,
}

fn mask(i: u8) -> KindMask {
    match i {
        0 => KindMask::classic(),
        1 => KindMask::data_only(),
        _ => KindMask::multithreaded(),
    }
}

/// A seeded query over program `prog`: a step anywhere in its execution
/// (so, under an eviction-heavy window, mostly behind the horizon) or an
/// address anywhere in its text.
pub fn draw_query(rng: &mut Rng, prog: usize, steps: u64, text_len: usize) -> Query {
    let kind = rng.below(3) as u8;
    let mask = rng.below(3) as u8;
    let crit = if kind == 2 { rng.below(text_len as u64) } else { rng.below(steps) };
    Query { prog, kind, mask, crit }
}

pub fn slice_fp(s: &Slice) -> u64 {
    fingerprint(&(&s.steps, &s.addrs, &s.stmts))
}

/// Answer `q` over any dependence source (live index, merged index).
pub fn answer_over<S: DepSource>(src: &S, q: &Query) -> Slice {
    let m = mask(q.mask);
    match q.kind {
        0 => backward_over(src, &[q.crit], m),
        1 => forward_over(src, &[q.crit], m),
        _ => backward_from_addr_over(src, q.crit as u32, m),
    }
}

/// Answer `q` over the live window stitched with the cold tier; the
/// flag says whether quarantined history degraded the answer.
pub fn answer_stitched(live: &SliceSnapshot, cold: &ColdStore, q: &Query) -> (Slice, bool) {
    let m = mask(q.mask);
    let out = match q.kind {
        0 => backward_stitched_checked(live, cold, &[q.crit], m),
        1 => forward_stitched_checked(live, cold, &[q.crit], m),
        _ => backward_from_addr_stitched_checked(live, cold, q.crit as u32, m),
    };
    let degraded = out.is_degraded();
    (out.into_slice(), degraded)
}

/// The offline oracle's answer: [`Slicer`] over a full graph.
pub fn answer_offline(slicer: &Slicer, q: &Query) -> Slice {
    let m = mask(q.mask);
    match q.kind {
        0 => slicer.backward(&[q.crit], m),
        1 => slicer.forward(&[q.crit], m),
        _ => slicer.backward_from_addr(q.crit as u32, m),
    }
}

/// The never-evicted dependence graph of one run under `cfg`'s
/// optimizations (window widened so nothing is evicted, cold tier off).
pub fn full_graph(
    program: &std::sync::Arc<Program>,
    machine: Machine,
    cfg: &OnTracConfig,
) -> DdgGraph {
    let mut cfg = cfg.clone();
    cfg.buffer_bytes = FULL_WINDOW_BYTES;
    cfg.cold_tier = false;
    cfg.durable_dir = None;
    let mut tracer = OnTrac::new(program, machine.mem_words(), cfg);
    Engine::new(machine).run_tool(&mut tracer);
    assert_eq!(tracer.buffer().evicted, 0, "reference window must hold the whole trace");
    tracer.graph(program)
}
