//! T4 — demand-driven slice queries: indexed vs rebuild-per-query.
//!
//! The numbers behind `report slicing` (`BENCH_slicing.json`). For every
//! SPEC-like kernel × buffer budget (one roomy, one eviction-heavy so
//! the window is a moving tail), a deterministic mixed query set
//! (backward / forward / backward-from-addr across all three
//! [`KindMask`] presets) is answered four ways:
//!
//! * **rebuild** — the status-quo path: materialize a fresh
//!   [`DdgGraph`] from the window's records (read out of the buffer
//!   once, before the timed loop) and run [`Slicer`], *per query*;
//! * **cold** — a fresh [`SliceService`] (one index snapshot) per
//!   query: the worst-case demand-driven client;
//! * **indexed** — one service, `refresh` before each query; the
//!   generation stamp makes the refresh free while the window is
//!   unmoved. This is the designed single-query path and the gated
//!   headline (`geomean_indexed_speedup`, ≥ 5× required);
//! * **batched** — one `batch` call answering the whole set against a
//!   single snapshot.
//!
//! All four must produce bit-identical slices (`identical_fraction`,
//! gated at 1.0 — rebuild is the reference).

use crate::{fx, geomean, Scale, Table};
use dift_dbi::Engine;
use dift_ddg::buffer::BufRecord;
use dift_ddg::{DdgGraph, OnTrac, OnTracConfig};
use dift_obs::{Metric, StatsRecorder};
use dift_slicing::{batch_via_rebuild, KindMask, Slice, SliceQuery, SliceService, Slicer};
use dift_workloads::spec::all_spec;
use dift_workloads::Workload;
use serde::Serialize;
use std::time::Instant;

/// One kernel × budget cell.
#[derive(Clone, Debug, Serialize)]
pub struct SlicingRow {
    /// Stable row key (`mcf_like@4096B`) so compare lines up cells.
    pub name: String,
    pub workload: String,
    pub budget_bytes: usize,
    /// Records live in the window when queries ran.
    pub window_records: u64,
    /// Records evicted getting there (0 at the roomy budget).
    pub evicted: u64,
    /// `SliceIndex::approx_bytes` — the cost of keeping the index.
    pub index_bytes: u64,
    pub queries: u64,
    /// Mean steps per answered slice.
    pub mean_slice_steps: f64,
    pub rebuild_us_per_query: f64,
    pub cold_us_per_query: f64,
    pub indexed_us_per_query: f64,
    pub batched_us_per_query: f64,
    /// One cold snapshot of the index, microseconds.
    pub snapshot_us: f64,
    /// rebuild / indexed (higher is better; gated via the geomean).
    pub indexed_speedup: f64,
    /// rebuild / batched.
    pub batched_speedup: f64,
    /// Every path produced bit-identical slices to the rebuild path.
    pub identical: bool,
}

/// The machine-readable report behind `BENCH_slicing.json`.
#[derive(Clone, Debug, Serialize)]
pub struct SlicingReport {
    pub scale: String,
    pub label: String,
    pub rows: Vec<SlicingRow>,
    /// Geomean of per-row `indexed_speedup` (gated; must stay ≥ 5).
    pub geomean_indexed_speedup: f64,
    /// Geomean of per-row `batched_speedup`.
    pub geomean_batched_speedup: f64,
    /// Fraction of rows where all paths agreed bit-for-bit (gated: 1.0).
    pub identical_fraction: f64,
    pub total_queries: u64,
}

/// Full-fidelity tracing (every dependence recorded, WAR/WAW on) so the
/// window is dense and the multithreaded mask has edges to walk. `tier`
/// switches on a cold tier; the dependence stream is the same either
/// way.
pub(crate) fn run_ontrac(
    w: &Workload,
    budget: usize,
    tier: impl FnOnce(&mut OnTracConfig),
) -> OnTrac {
    let mut cfg = OnTracConfig::unoptimized(budget);
    cfg.record_war_waw = true;
    tier(&mut cfg);
    let m = w.machine();
    let mem = m.config().mem_words;
    let mut tracer = OnTrac::new(&w.program, mem, cfg);
    Engine::new(m).run_tool(&mut tracer);
    tracer
}

/// Deterministic mixed query set over the live window: a spread of
/// criterion steps and addresses, across all three mask presets.
pub(crate) fn query_set(g: &DdgGraph, per_row: usize) -> Vec<SliceQuery> {
    let mut steps: Vec<u64> = g.steps().collect();
    steps.sort_unstable();
    let sample = |n: usize| -> Vec<u64> {
        steps.iter().copied().step_by((steps.len() / n.max(1)).max(1)).take(n).collect()
    };
    let mut addrs: Vec<u32> =
        sample(per_row / 4).iter().filter_map(|&s| g.meta(s).map(|m| m.addr)).collect();
    addrs.dedup();
    let mut qs = Vec::new();
    for s in sample(per_row / 2) {
        qs.push(SliceQuery::Backward { criterion: vec![s], mask: KindMask::classic() });
        qs.push(SliceQuery::Forward { criterion: vec![s], mask: KindMask::data_only() });
    }
    for a in addrs {
        qs.push(SliceQuery::BackwardFromAddr { addr: a, mask: KindMask::multithreaded() });
    }
    qs
}

/// Best-of-N wall time of `f`, in seconds, together with its output.
pub(crate) fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.unwrap())
}

fn measure_row(w: &Workload, budget: usize, per_row: usize, reps: usize) -> SlicingRow {
    let tracer = run_ontrac(w, budget, |_| {});
    let buf = tracer.buffer();
    let idx = tracer.slice_index().expect("presets enable the index");
    // The window's records, read out of the index once so the baseline
    // below times the graph rebuild, not the walk that yields them.
    let records: Vec<BufRecord> = buf.records().collect();
    let g = DdgGraph::from_records(records.iter().copied(), &w.program);
    let queries = query_set(&g, per_row);
    let nq = queries.len().max(1) as f64;

    // Reference answers + the status-quo cost: a graph rebuild per query.
    let (rebuild_s, reference) = best_of(reps, || {
        queries
            .iter()
            .map(|q| {
                let g = DdgGraph::from_records(records.iter().copied(), &w.program);
                let s = Slicer::new(&g);
                match q {
                    SliceQuery::Backward { criterion, mask } => s.backward(criterion, *mask),
                    SliceQuery::Forward { criterion, mask } => s.forward(criterion, *mask),
                    SliceQuery::BackwardFromAddr { addr, mask } => {
                        s.backward_from_addr(*addr, *mask)
                    }
                }
            })
            .collect::<Vec<Slice>>()
    });

    // Worst-case demand-driven client: a fresh snapshot per query.
    let (cold_s, cold) = best_of(reps, || {
        queries.iter().map(|q| SliceService::new(idx).query(q)).collect::<Vec<Slice>>()
    });

    // The designed single-query path: one service, generation-checked
    // refresh per query (free while the window is unmoved).
    let (indexed_s, indexed) = best_of(reps, || {
        let mut svc = SliceService::new(idx);
        queries
            .iter()
            .map(|q| {
                svc.refresh(idx);
                svc.query(q)
            })
            .collect::<Vec<Slice>>()
    });

    // One batch over one snapshot, with the obs probes live: the
    // recorder double-checks the service counted every query.
    let (batched_s, batched) = best_of(reps, || {
        let mut svc = SliceService::with_recorder(idx, StatsRecorder::new());
        let out = svc.batch(&queries);
        debug_assert_eq!(svc.obs.get(Metric::SlQueries), queries.len() as u64);
        out
    });

    let (snap_s, _) = best_of(reps, || idx.snapshot());
    let identical = batch_via_rebuild(&g, &queries) == reference
        && cold == reference
        && indexed == reference
        && batched == reference;
    let mean_steps = reference.iter().map(|s| s.len() as f64).sum::<f64>() / nq;

    let per_q = |total_s: f64| total_s / nq * 1e6;
    SlicingRow {
        name: format!("{}@{budget}B", w.name),
        workload: w.name.clone(),
        budget_bytes: budget,
        window_records: buf.len() as u64,
        evicted: buf.evicted,
        index_bytes: idx.approx_bytes(),
        queries: queries.len() as u64,
        mean_slice_steps: mean_steps,
        rebuild_us_per_query: per_q(rebuild_s),
        cold_us_per_query: per_q(cold_s),
        indexed_us_per_query: per_q(indexed_s),
        batched_us_per_query: per_q(batched_s),
        snapshot_us: snap_s * 1e6,
        indexed_speedup: rebuild_s / indexed_s.max(1e-12),
        batched_speedup: rebuild_s / batched_s.max(1e-12),
        identical,
    }
}

/// Measure the slicing report.
pub fn slicing_report(scale: Scale) -> SlicingReport {
    // One roomy budget (whole run retained) and one eviction-heavy one
    // (the window is a short moving tail and the index is pruned
    // constantly before the queries run).
    let (budgets, per_row, reps): ([usize; 2], usize, usize) = match scale {
        Scale::Test => ([768, 64 << 10], 12, 3),
        Scale::Paper => ([4 << 10, 1 << 20], 24, 5),
    };
    let mut rows = Vec::new();
    for w in &all_spec(scale.spec_size()) {
        for &budget in &budgets {
            rows.push(measure_row(w, budget, per_row, reps));
        }
    }
    let n = rows.len().max(1) as f64;
    SlicingReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "unoptimized full-fidelity window, WAR/WAW on; mixed query set, best-of-N".into(),
        geomean_indexed_speedup: geomean(rows.iter().map(|r| r.indexed_speedup)),
        geomean_batched_speedup: geomean(rows.iter().map(|r| r.batched_speedup)),
        identical_fraction: rows.iter().filter(|r| r.identical).count() as f64 / n,
        total_queries: rows.iter().map(|r| r.queries).sum(),
        rows,
    }
}

/// T4 as a printable table (shares measurements with the JSON report).
pub fn slicing_to_table(r: &SlicingReport) -> Table {
    let mut t = Table::new(
        "T4",
        "demand-driven slice queries: incremental index vs rebuild-per-query",
        "indexed queries walk only the edges they visit; ≥5x geomean over \
         rebuilding the window graph per query, bit-identical answers",
        &[
            "kernel@budget",
            "window",
            "evicted",
            "q",
            "rebuild us",
            "indexed us",
            "batch us",
            "speedup",
            "identical",
        ],
    );
    for row in &r.rows {
        t.row(vec![
            row.name.clone(),
            row.window_records.to_string(),
            row.evicted.to_string(),
            row.queries.to_string(),
            format!("{:.1}", row.rebuild_us_per_query),
            format!("{:.1}", row.indexed_us_per_query),
            format!("{:.1}", row.batched_us_per_query),
            fx(row.indexed_speedup),
            if row.identical { "yes" } else { "NO" }.into(),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        r.total_queries.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        fx(r.geomean_indexed_speedup),
        format!("{:.0}%", r.identical_fraction * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = slicing_report(Scale::Test);
        assert_eq!(r.rows.len(), all_spec(Scale::Test.spec_size()).len() * 2);
        assert_eq!(r.identical_fraction, 1.0, "all query paths must agree bit-for-bit");
        assert!(
            r.geomean_indexed_speedup >= 5.0,
            "indexed queries must beat rebuild-per-query by >= 5x geomean, got {:.2}",
            r.geomean_indexed_speedup
        );
        for row in &r.rows {
            assert!(row.queries > 0, "{}: empty query set", row.name);
            assert!(row.window_records > 0, "{}: empty window", row.name);
            assert!(row.index_bytes > 0, "{}", row.name);
        }
        // The small budget must actually exercise eviction on every
        // kernel — that regime is where index pruning can go wrong.
        let small = r.rows.iter().filter(|r| r.budget_bytes == 768);
        for row in small {
            assert!(row.evicted > 0, "{}: eviction-heavy budget did not evict", row.name);
        }
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("geomean_indexed_speedup"));
        assert!(json.contains("identical_fraction"));
    }
}
