//! T1 — DIFT analysis throughput (wall clock, instrs/sec).
//!
//! Unlike E1–E10, which report *modeled* cycles, this experiment times
//! the analysis engines for real: how many guest instructions per second
//! of host time each DIFT configuration digests on the SPEC-like
//! kernels. Two families of numbers:
//!
//! * **hot path** — a pre-captured effects stream driven straight
//!   through `TaintEngine::process`, isolating the shadow-memory data
//!   structure: the paged [`dift_taint::ShadowMap`] engine vs the
//!   retained `HashMap` reference engine. This is the number the
//!   allocation-free-hot-path optimization must move (≥2× target).
//! * **end to end** — inline and helper-thread runs through the DBI
//!   engine, VM included, matching how E3 exercises the system.
//!
//! The `report` binary serializes the same measurements to
//! `BENCH_taint.json` for machine consumption.

use crate::{fx, geomean, mps, Scale, Table};
use dift_multicore::{run_helper_dift, run_inline_dift, ChannelModel};
use dift_taint::{BitTaint, ReferenceTaintEngine, TaintEngine, TaintPolicy};
use dift_vm::StepEffects;
use dift_workloads::spec::all_spec;
use dift_workloads::Workload;
use serde::Serialize;
use std::time::Instant;

/// Per-benchmark throughput record (instrs/sec unless noted).
#[derive(Clone, Debug, Serialize)]
pub struct TaintThroughputRow {
    pub name: String,
    /// Guest instructions in the captured stream / run.
    pub instrs: u64,
    /// Hot path, paged-shadow engine.
    pub shadow_hot: f64,
    /// Hot path, HashMap reference engine (the seed implementation).
    pub hashmap_hot: f64,
    /// `shadow_hot / hashmap_hot`.
    pub hot_speedup: f64,
    /// End-to-end inline DIFT (DBI + VM + engine).
    pub inline_e2e: f64,
    /// End-to-end helper-thread DIFT, software channel model.
    pub helper_sw_e2e: f64,
    /// End-to-end helper-thread DIFT, hardware channel model.
    pub helper_hw_e2e: f64,
}

/// The machine-readable report behind `BENCH_taint.json`.
#[derive(Clone, Debug, Serialize)]
pub struct TaintThroughputReport {
    pub scale: String,
    pub label: String,
    pub rows: Vec<TaintThroughputRow>,
    /// Geometric mean of per-benchmark `hot_speedup`.
    pub geomean_hot_speedup: f64,
}

/// Run `w` once and return its effects stream together with the
/// machine's memory size in words (for `pre_size`), so engines can be
/// timed on pure analysis work, no VM in the loop.
pub fn capture(w: &Workload) -> (Vec<StepEffects>, usize) {
    let m = w.machine();
    let mem_words = m.mem_words();
    (dift_dbi::capture(m).0, mem_words)
}

/// Time `f` over enough repetitions to cover ~`target` guest
/// instructions, returning instrs/sec. Each repetition processes the
/// whole stream through a fresh engine, so steady-state and cold-start
/// behavior are both in the measurement. Three trials, best kept: a
/// throughput measurement's noise is one-sided (interference only slows
/// it down), so max is the low-variance estimator.
pub(crate) fn time_stream(
    stream: &[StepEffects],
    target: u64,
    mut f: impl FnMut(&[StepEffects]),
) -> f64 {
    let reps = (target / stream.len().max(1) as u64).max(1);
    // Warm-up pass: fault in code and the stream's cache footprint.
    f(stream);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            f(stream);
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max((reps * stream.len() as u64) as f64 / secs);
    }
    best
}

/// Measure every configuration on the SPEC-like suite.
pub fn taint_throughput_report(scale: Scale) -> TaintThroughputReport {
    let target: u64 = match scale {
        Scale::Test => 20_000,
        Scale::Paper => 2_000_000,
    };
    let policy = TaintPolicy::propagate_only();
    let mut rows = Vec::new();
    for w in &all_spec(scale.spec_size()) {
        // Capture once; both hot-path engines see the identical stream.
        let (stream, mem_words) = capture(w);

        let shadow_hot = time_stream(&stream, target, |s| {
            let mut e = TaintEngine::<BitTaint>::new(policy);
            e.pre_size(mem_words);
            for fx in s {
                e.process(fx);
            }
            std::hint::black_box(e.tainted_words());
        });
        let hashmap_hot = time_stream(&stream, target, |s| {
            let mut e = ReferenceTaintEngine::<BitTaint>::new(policy);
            for fx in s {
                e.process(fx);
            }
            std::hint::black_box(e.tainted_words());
        });

        let time_e2e = |run: &dyn Fn() -> u64| -> f64 {
            let start = Instant::now();
            let steps = run();
            steps as f64 / start.elapsed().as_secs_f64().max(1e-9)
        };
        let inline_e2e =
            time_e2e(&|| run_inline_dift::<BitTaint>(w.machine(), policy).result.steps);
        let helper_sw_e2e = time_e2e(&|| {
            run_helper_dift::<BitTaint>(w.machine(), ChannelModel::software(), policy).result.steps
        });
        let helper_hw_e2e = time_e2e(&|| {
            run_helper_dift::<BitTaint>(w.machine(), ChannelModel::hardware(), policy).result.steps
        });

        rows.push(TaintThroughputRow {
            name: w.name.clone(),
            instrs: stream.len() as u64,
            shadow_hot,
            hashmap_hot,
            hot_speedup: shadow_hot / hashmap_hot,
            inline_e2e,
            helper_sw_e2e,
            helper_hw_e2e,
        });
    }
    let geomean_hot_speedup = geomean(rows.iter().map(|r| r.hot_speedup));
    TaintThroughputReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "BitTaint, propagate-only".into(),
        rows,
        geomean_hot_speedup,
    }
}

/// T1 as a printable table (shares measurements with the JSON report).
pub fn report_to_table(r: &TaintThroughputReport) -> Table {
    let mut t = Table::new(
        "T1",
        "DIFT throughput: paged shadow vs HashMap; inline vs helper (wall clock)",
        "paged shadow + allocation-free hot path: >=2x instrs/sec over the HashMap engine",
        &[
            "benchmark",
            "instrs",
            "shadow hot",
            "hashmap hot",
            "speedup",
            "inline",
            "sw helper",
            "hw helper",
        ],
    );
    for row in &r.rows {
        t.row(vec![
            row.name.clone(),
            row.instrs.to_string(),
            mps(row.shadow_hot),
            mps(row.hashmap_hot),
            fx(row.hot_speedup),
            mps(row.inline_e2e),
            mps(row.helper_sw_e2e),
            mps(row.helper_hw_e2e),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fx(r.geomean_hot_speedup),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = taint_throughput_report(Scale::Test);
        assert_eq!(r.rows.len(), 7, "one row per SPEC-like kernel");
        for row in &r.rows {
            assert!(row.instrs > 0, "{}: empty stream", row.name);
            for v in [
                row.shadow_hot,
                row.hashmap_hot,
                row.inline_e2e,
                row.helper_sw_e2e,
                row.helper_hw_e2e,
            ] {
                assert!(v.is_finite() && v > 0.0, "{}: bad throughput {v}", row.name);
            }
        }
        assert!(r.geomean_hot_speedup.is_finite() && r.geomean_hot_speedup > 0.0);
        // The speedup ratio is a release-mode claim: unoptimized builds
        // don't elide the paged-shadow bounds checks and index math, and
        // the paged engine can genuinely trail the HashMap one there. So
        // the (deliberately loose) ratio floor only applies with
        // optimizations on; the >=2x claim is checked on the
        // release-mode report run (BENCH_taint.json).
        #[cfg(not(debug_assertions))]
        assert!(
            r.geomean_hot_speedup > 0.8,
            "paged shadow slower than the HashMap baseline: {}",
            r.geomean_hot_speedup
        );
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("geomean_hot_speedup"));
    }
}
