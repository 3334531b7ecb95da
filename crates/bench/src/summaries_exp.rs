//! T5 — hot-code taint summary cache: one summary application per
//! hot-region execution vs per-instruction shadow updates.
//!
//! The numbers behind `report summaries` (`BENCH_summaries.json`). For
//! every loop-dominated kernel ([`dift_workloads::loops`]) the effects
//! stream is captured once, then the same stream is taint-tracked two
//! ways, best-of-N each on fresh engines (so cache warm-up is *inside*
//! the measured cached time — nothing is amortized away):
//!
//! * **plain** — [`TaintEngine::process`] per instruction;
//! * **cached** — [`SummaryCachedEngine::process_stream`]: back-edge
//!   detection finds the hot sweep heads, the first completed sweep is
//!   summarized, and every later guard-identical sweep costs one
//!   fingerprint comparison plus one summary application.
//!
//! Both sides must agree bit-for-bit (`identical_fraction`, gated at
//! 1.0): output labels, alerts, tainted cells, and engine stats. The
//! headline is `geomean_summary_speedup` over the *cacheable* kernels
//! (gated ≥ 2×); the sliding-window kernel is reported as the honesty
//! row — its guards bail by design (`cacheable = false`) and it is
//! excluded from the gated geomean by construction, not by measurement.
//!
//! The trace-volume side of the same idea: each row also runs ONTRAC
//! (all generic optimizations on) with and without
//! [`OnTracConfig::elide_steps`] ranges taken from the cache's hit
//! ranges — summarized sweeps need no per-instruction dependence
//! records, so `summarized_bytes_per_instr ≤ ontrac_bytes_per_instr`
//! per row (the "L+summaries" ladder level; the suite mean is gated in
//! `bench_thresholds.toml`).

use crate::slicing_exp::best_of;
use crate::throughput::capture;
use crate::{fx, geomean, pct, Scale, Table};
use dift_dbi::Engine;
use dift_ddg::{OnTrac, OnTracConfig};
use dift_taint::{BitTaint, SummaryCachedEngine, TaintEngine, TaintPolicy};
use dift_workloads::loops::{all_loops, cacheable_loop_names};
use dift_workloads::Workload;
use serde::Serialize;

/// One kernel's cell.
#[derive(Clone, Debug, Serialize)]
pub struct SummaryRow {
    /// Stable row key (`ssum.Tiny`) so compare lines up cells.
    pub name: String,
    /// Kernel family (`ssum`) — the stable part across scales.
    pub kernel: String,
    /// Instructions in the captured effects stream.
    pub instrs: u64,
    /// This kernel's sweeps are shape-stable (fixed addresses); the
    /// sliding control is `false` and excluded from the gated geomean.
    pub cacheable: bool,
    pub plain_minstrs_per_sec: f64,
    pub cached_minstrs_per_sec: f64,
    /// cached / plain throughput (higher is better; gated via geomean).
    pub summary_speedup: f64,
    /// Summary applications (whole sweeps skipped).
    pub hits: u64,
    /// Guard-mismatch mid-region fallbacks.
    pub guard_bails: u64,
    /// Regions summarized and installed.
    pub regions: u64,
    /// Fraction of instructions covered by summary applications.
    pub coverage: f64,
    /// Resident bytes of the cached guards + summaries.
    pub cache_bytes: u64,
    /// Raw-trace-equivalent bytes the covered instructions would cost.
    pub bytes_saved: u64,
    /// ONTRAC (optimized) stored density without elision.
    pub ontrac_bytes_per_instr: f64,
    /// Same run with the cache's hit ranges elided — the "L+summaries"
    /// ladder level.
    pub summarized_bytes_per_instr: f64,
    /// Dependences elided because they fell in a summarized sweep.
    pub deps_summarized: u64,
    /// Cached engine ≡ plain engine, bit for bit.
    pub identical: bool,
}

/// The machine-readable report behind `BENCH_summaries.json`.
#[derive(Clone, Debug, Serialize)]
pub struct SummariesReport {
    pub scale: String,
    pub label: String,
    pub rows: Vec<SummaryRow>,
    /// Geomean of `summary_speedup` over cacheable rows (gated ≥ 2×).
    pub geomean_summary_speedup: f64,
    /// Fraction of rows (all, including the hostile control) where the
    /// cached engine matched the plain engine bit-for-bit (gated: 1.0).
    pub identical_fraction: f64,
    /// Mean `summarized_bytes_per_instr` over cacheable rows (gated,
    /// lower is better).
    pub summaries_bytes_per_instr: f64,
    /// Mean un-elided optimized density over the same rows, for the
    /// ladder delta at a glance.
    pub ontrac_bytes_per_instr: f64,
    pub total_hits: u64,
}

fn measure_row(w: &Workload, reps: usize) -> SummaryRow {
    let (stream, mem_words) = capture(w);
    let policy = TaintPolicy::default();
    let instrs = stream.len() as u64;

    let (plain_s, plain) = best_of(reps, || {
        let mut e = TaintEngine::<BitTaint>::new(policy);
        e.pre_size(mem_words);
        for fx in &stream {
            e.process(fx);
        }
        e
    });

    // Fresh caches every rep: warm-up (detection + recording) is part
    // of the measured time, exactly as a real run would pay it. Heads
    // turn hot at their second sweep, so all but the first few of the
    // `dift_workloads::loops::SWEEPS` sweeps run out of the cache.
    let (cached_s, cached) = best_of(reps, || {
        let mut e = SummaryCachedEngine::<BitTaint>::new(policy, &w.program);
        e.engine_mut().pre_size(mem_words);
        e.process_stream(&stream);
        e
    });

    let identical = cached.engine().output_labels == plain.output_labels
        && cached.engine().alerts == plain.alerts
        && cached.engine().stats() == plain.stats()
        && cached.engine().tainted_words() == plain.tainted_words()
        && cached.engine().shadow().iter_tainted().eq(plain.shadow().iter_tainted());

    // Trace-volume side: ONTRAC optimized, with and without the cache's
    // hit ranges elided (same deterministic run → same step numbering).
    let ontrac_run = |elide: Vec<(u64, u64)>| {
        let mut cfg = OnTracConfig::optimized(4 << 10);
        cfg.elide_steps = elide;
        let m = w.machine();
        let mem = m.config().mem_words;
        let mut tracer = OnTrac::new(&w.program, mem, cfg);
        Engine::new(m).run_tool(&mut tracer);
        tracer.stats()
    };
    let base_stats = ontrac_run(Vec::new());
    let elided_stats = ontrac_run(cached.hit_ranges().to_vec());

    let s = cached.stats().clone();
    let kernel = w.name.split('.').next().unwrap_or(&w.name).to_string();
    let cacheable = cacheable_loop_names().contains(&kernel.as_str());
    let mi = |secs: f64| instrs as f64 / secs.max(1e-12) / 1e6;
    SummaryRow {
        name: w.name.clone(),
        kernel,
        instrs,
        cacheable,
        plain_minstrs_per_sec: mi(plain_s),
        cached_minstrs_per_sec: mi(cached_s),
        summary_speedup: plain_s / cached_s.max(1e-12),
        hits: s.hits,
        guard_bails: s.guard_bails,
        regions: s.regions_recorded,
        coverage: s.instrs_summarized as f64 / instrs.max(1) as f64,
        cache_bytes: cached.cache_bytes(),
        bytes_saved: s.bytes_saved,
        ontrac_bytes_per_instr: base_stats.bytes_per_instr(),
        summarized_bytes_per_instr: elided_stats.bytes_per_instr(),
        deps_summarized: elided_stats.deps_summarized,
        identical,
    }
}

fn mean(vals: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = vals.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Measure the summaries report.
pub fn summaries_report(scale: Scale) -> SummariesReport {
    let reps = match scale {
        Scale::Test => 3,
        Scale::Paper => 5,
    };
    let rows: Vec<SummaryRow> =
        all_loops(scale.spec_size()).iter().map(|w| measure_row(w, reps)).collect();
    let cacheable = || rows.iter().filter(|r| r.cacheable);
    let n = rows.len().max(1) as f64;
    SummariesReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "loop suite, BitTaint checks-on; fresh engines per rep (warm-up measured); \
                sliding row is the cache-hostile control, excluded from the gated geomean"
            .into(),
        geomean_summary_speedup: geomean(cacheable().map(|r| r.summary_speedup)),
        identical_fraction: rows.iter().filter(|r| r.identical).count() as f64 / n,
        summaries_bytes_per_instr: mean(cacheable().map(|r| r.summarized_bytes_per_instr)),
        ontrac_bytes_per_instr: mean(cacheable().map(|r| r.ontrac_bytes_per_instr)),
        total_hits: rows.iter().map(|r| r.hits).sum(),
        rows,
    }
}

/// T5 as a printable table (shares measurements with the JSON report).
pub fn summaries_to_table(r: &SummariesReport) -> Table {
    let mut t = Table::new(
        "T5",
        "hot-code taint summary cache: one summary application per hot sweep",
        "guard-exact summary reuse on loop-dominated kernels; >=2x geomean \
         instrs/sec, bit-identical labels/alerts/stats, summarized sweeps \
         elided from the dependence trace",
        &[
            "kernel",
            "instrs",
            "plain Mi/s",
            "cached Mi/s",
            "speedup",
            "hits",
            "bails",
            "coverage",
            "B/instr opt",
            "B/instr +sum",
            "identical",
        ],
    );
    for row in &r.rows {
        t.row(vec![
            if row.cacheable { row.name.clone() } else { format!("{} (hostile)", row.name) },
            row.instrs.to_string(),
            format!("{:.1}", row.plain_minstrs_per_sec),
            format!("{:.1}", row.cached_minstrs_per_sec),
            fx(row.summary_speedup),
            row.hits.to_string(),
            row.guard_bails.to_string(),
            pct(row.coverage),
            format!("{:.2}", row.ontrac_bytes_per_instr),
            format!("{:.2}", row.summarized_bytes_per_instr),
            if row.identical { "yes" } else { "NO" }.into(),
        ]);
    }
    t.row(vec![
        "geomean (cacheable)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fx(r.geomean_summary_speedup),
        r.total_hits.to_string(),
        "-".into(),
        "-".into(),
        format!("{:.2}", r.ontrac_bytes_per_instr),
        format!("{:.2}", r.summaries_bytes_per_instr),
        pct(r.identical_fraction),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = summaries_report(Scale::Test);
        assert_eq!(r.rows.len(), all_loops(Scale::Test.spec_size()).len());
        assert_eq!(r.identical_fraction, 1.0, "cached engine must match plain bit-for-bit");
        assert!(
            r.geomean_summary_speedup >= 2.0,
            "summary cache must give >= 2x geomean on cacheable loop kernels, got {:.2}",
            r.geomean_summary_speedup
        );
        for row in &r.rows {
            assert!(row.instrs > 0, "{}: empty stream", row.name);
            assert!(row.identical, "{}: cached != plain", row.name);
            assert!(
                row.summarized_bytes_per_instr <= row.ontrac_bytes_per_instr + 1e-9,
                "{}: elision must never add bytes ({} > {})",
                row.name,
                row.summarized_bytes_per_instr,
                row.ontrac_bytes_per_instr
            );
            if row.cacheable {
                assert!(row.hits > 0, "{}: cacheable kernel never hit", row.name);
                assert!(row.coverage > 0.5, "{}: coverage {:.2}", row.name, row.coverage);
                assert!(
                    row.summarized_bytes_per_instr < row.ontrac_bytes_per_instr,
                    "{}: summarized sweeps must shrink the trace",
                    row.name
                );
            } else {
                assert_eq!(row.hits, 0, "{}: hostile control must never hit", row.name);
                assert!(row.guard_bails > 0, "{}: hostile control must bail", row.name);
            }
        }
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("geomean_summary_speedup"));
        assert!(json.contains("identical_fraction"));
        assert!(json.contains("summaries_bytes_per_instr"));
    }
}
