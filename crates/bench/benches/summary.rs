//! Hot-code taint summary cache vs per-instruction processing, under
//! criterion.
//!
//! One cacheable loop kernel's effects stream, taint-tracked four ways:
//!
//! * `plain-per-instr` — [`TaintEngine::process`] on every step (the
//!   status-quo path);
//! * `cached-cold` — a fresh [`SummaryCachedEngine`] per iteration, so
//!   detection, recording and summarization are inside the measured
//!   time (what one long run pays end to end);
//! * `cached-warm` — one persistent engine re-fed the stream, the
//!   steady-state regime where nearly every sweep is a guard match
//!   plus one summary application;
//! * `hostile-sliding` — the moving-window control on the cached
//!   engine: every guard bails, measuring the fallback overhead.
//!
//! The acceptance numbers live in `report summaries`
//! (`BENCH_summaries.json`); this bench is for profiling the fast path
//! in isolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dift_bench::throughput::capture;
use dift_taint::{BitTaint, SummaryCachedEngine, TaintEngine, TaintPolicy};
use dift_workloads::loops::{sliding_like, ssum_like, Size};

fn bench_summary(c: &mut Criterion) {
    let mut g = c.benchmark_group("summary-cache");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_millis(1500));

    let policy = TaintPolicy::default();
    let w = ssum_like(Size::Tiny);
    let (stream, mem_words) = capture(&w);

    g.bench_function("plain-per-instr", |b| {
        b.iter(|| {
            let mut e = TaintEngine::<BitTaint>::new(policy);
            e.pre_size(mem_words);
            for fx in &stream {
                e.process(fx);
            }
            black_box(e.stats().instrs)
        })
    });

    g.bench_function("cached-cold", |b| {
        b.iter(|| {
            let mut e = SummaryCachedEngine::<BitTaint>::new(policy, &w.program);
            e.engine_mut().pre_size(mem_words);
            e.process_stream(&stream);
            black_box(e.stats().hits)
        })
    });

    let mut warm = SummaryCachedEngine::<BitTaint>::new(policy, &w.program);
    warm.engine_mut().pre_size(mem_words);
    warm.process_stream(&stream); // detect + record once, outside the timing
    g.bench_function("cached-warm", |b| {
        b.iter(|| {
            warm.process_stream(&stream);
            black_box(warm.stats().hits)
        })
    });

    let h = sliding_like(Size::Tiny);
    let (hstream, hmem) = capture(&h);
    g.bench_function("hostile-sliding", |b| {
        b.iter(|| {
            let mut e = SummaryCachedEngine::<BitTaint>::new(policy, &h.program);
            e.engine_mut().pre_size(hmem);
            e.process_stream(&hstream);
            black_box(e.stats().guard_bails)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_summary);
criterion_main!(benches);
