//! A/B cost of the observability layer on the T1 taint hot path.
//!
//! Three variants over the same pre-captured effects stream:
//!
//! * `noop-recorder` — `TaintEngine<BitTaint>` (the default
//!   `NoopRecorder`): every probe is an `if R::ENABLED` on a
//!   monomorphized `false`, so the optimizer deletes the probe bodies
//!   and this must be indistinguishable from the pre-instrumentation
//!   engine (the <2% acceptance bound; in practice the two compile to
//!   the same machine code).
//! * `stats-recorder` — `StatsRecorder` attached: array bumps on every
//!   step, histograms on tainted joins. This is the *enabled* cost,
//!   expected low single-digit percent but not zero.
//! * `stats-recorder+flush` — same, plus the end-of-run gauge flush
//!   (what a real DBI run pays via `on_finish`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dift_bench::throughput::capture;
use dift_obs::StatsRecorder;
use dift_taint::{BitTaint, TaintEngine, TaintPolicy};
use dift_workloads::spec::{mcf_like, Size};

fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs-hot-path");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));
    let policy = TaintPolicy::propagate_only();
    let (stream, mem_words) = capture(&mcf_like(Size::Tiny));

    g.bench_function("noop-recorder", |b| {
        b.iter(|| {
            let mut e = TaintEngine::<BitTaint>::new(policy);
            e.pre_size(mem_words);
            for fx in &stream {
                e.process(fx);
            }
            black_box(e.tainted_words())
        })
    });
    g.bench_function("stats-recorder", |b| {
        b.iter(|| {
            let mut e =
                TaintEngine::<BitTaint, StatsRecorder>::with_recorder(policy, StatsRecorder::new());
            e.pre_size(mem_words);
            for fx in &stream {
                e.process(fx);
            }
            black_box(e.tainted_words())
        })
    });
    g.bench_function("stats-recorder+flush", |b| {
        b.iter(|| {
            let mut e =
                TaintEngine::<BitTaint, StatsRecorder>::with_recorder(policy, StatsRecorder::new());
            e.pre_size(mem_words);
            for fx in &stream {
                e.process(fx);
            }
            e.flush_obs();
            black_box(e.obs.get(dift_obs::Metric::TaintProcessCalls))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
