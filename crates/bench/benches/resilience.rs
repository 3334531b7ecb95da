//! A/B cost of the fault-tolerance machinery at zero faults.
//!
//! Two pairs over the same workload:
//!
//! * `stream-plain` vs `stream-tolerant-noop` — the stream-parallel
//!   epoch path with and without the tolerance layer ([`NoopFaults`]
//!   folds every injection site away; the residual is the per-epoch
//!   `catch_unwind` and the integrity recount, expected within noise).
//! * `modeled-fail-stop` vs `modeled-tolerant-noop` — the full modeled
//!   runner with recovery disabled vs enabled-but-idle. Both share one
//!   epoch engine and differ only in what a lost epoch does, so
//!   NoopFaults + recovery must stay within noise of the fail-stop
//!   baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dift_dbi::{Engine, Tool};
use dift_multicore::{
    epoch_process_stream, epoch_process_stream_tolerant, run_epoch_dift, run_epoch_dift_tolerant,
    ChannelModel, EpochModel, NoopFaults, RecoveryPolicy,
};
use dift_obs::NoopRecorder;
use dift_taint::{PcTaint, TaintPolicy};
use dift_vm::{Machine, StepEffects};
use dift_workloads::science;

#[derive(Default)]
struct Capture {
    fxs: Vec<StepEffects>,
}

impl Tool for Capture {
    fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
        self.fxs.push(fx.clone());
    }
}

const WORKERS: usize = 3;
const EPOCH_LEN: usize = 128;

fn model() -> EpochModel {
    EpochModel {
        chan: ChannelModel { enqueue_cycles: 2, helper_per_msg: 16, queue_depth: 128 },
        workers: WORKERS,
        epoch_len: EPOCH_LEN,
        fanout_cycles: 1,
        compose_per_epoch: 32,
    }
}

fn bench_resilience(c: &mut Criterion) {
    let mut g = c.benchmark_group("resilience-zero-fault");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));
    let policy = TaintPolicy::default();
    let w = science::scatter_sum(256, 32).workload;
    let m = w.machine();
    let mem_words = m.mem_words();
    let mut cap = Capture::default();
    Engine::new(m).run_tool(&mut cap);
    let stream = cap.fxs;

    g.bench_function("stream-plain", |b| {
        b.iter(|| {
            let e = epoch_process_stream::<PcTaint>(&stream, policy, mem_words, EPOCH_LEN, WORKERS);
            black_box(e.tainted_words())
        })
    });
    g.bench_function("stream-tolerant-noop", |b| {
        b.iter(|| {
            let (e, _) = epoch_process_stream_tolerant::<PcTaint, _>(
                &stream, policy, mem_words, EPOCH_LEN, WORKERS, NoopFaults,
            );
            black_box(e.tainted_words())
        })
    });
    g.bench_function("modeled-fail-stop", |b| {
        b.iter(|| {
            let run = run_epoch_dift::<PcTaint>(w.machine(), model(), policy);
            black_box(run.stats.completion_cycles)
        })
    });
    g.bench_function("modeled-tolerant-noop", |b| {
        b.iter(|| {
            let (run, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
                w.machine(),
                model(),
                policy,
                NoopRecorder,
                NoopFaults,
                RecoveryPolicy::tolerant(),
            );
            black_box(run.stats.completion_cycles)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
