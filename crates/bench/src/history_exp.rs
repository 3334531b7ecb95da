//! T6 — tiered trace history: chunked snapshots and the cold tier.
//!
//! The numbers behind `report history` (`BENCH_history.json`). Two
//! halves:
//!
//! * **Snapshot sweep** — a synthetic steady-state window (push K, evict
//!   K, re-snapshot while the previous snapshot is still alive, so every
//!   cycle pays the copy-on-write path) at window sizes 16x apart.
//!   `snapshot_growth_16x` is the headline: the chunked
//!   [`SliceIndex::snapshot`] must stay flat (within 2x) while the
//!   window grows 16x, because only the spine Arc is cloned and the
//!   dirty-chunk copies are bounded by the churn, not the window.
//!   `deep_growth_16x` times [`SliceIndex::snapshot_deep`] on the same
//!   indexes — the old O(window) behaviour kept as a reference — and
//!   shows the cliff this PR removes.
//! * **Cold tier + stitched queries** — every SPEC-like kernel at an
//!   eviction-heavy budget with `cold_tier` on: evicted records land in
//!   compressed segments (`cold_bytes_per_record`, ~9 B vs the 28-byte
//!   in-memory record), and stitched queries (live snapshot + cold
//!   store) must be bit-identical to an offline
//!   [`Slicer`](dift_slicing::Slicer) run over the full never-evicted
//!   trace (`identical_fraction`, gated at 1.0).

use crate::slicing_exp::{best_of, query_set, run_ontrac};
use crate::{fx, Scale, Table};
use dift_ddg::buffer::{record, BufRecord};
use dift_ddg::index::CHUNK_STEPS;
use dift_ddg::{DdgGraph, DepKind, OnTrac, SliceIndex, SliceSnapshot};
use dift_slicing::{batch_via_rebuild, SliceService, StitchedOutcome};
use dift_workloads::spec::all_spec;
use dift_workloads::Workload;
use serde::Serialize;
use std::time::Instant;

/// One steady-state window size in the snapshot sweep.
#[derive(Clone, Debug, Serialize)]
pub struct SnapshotRow {
    /// Records held live in the window while snapshots were taken.
    pub window_records: u64,
    /// Chunks backing that window.
    pub chunks: u64,
    /// `SliceIndex::approx_bytes` at this window size.
    pub index_bytes: u64,
    /// Mean ns per `snapshot()` call in steady state (previous snapshot
    /// held alive, K records churned between calls), best of N rounds.
    pub chunked_snapshot_ns: f64,
    /// Best-of-N ns for one `snapshot_deep()` — the old O(window) clone.
    pub deep_snapshot_ns: f64,
    /// Chunk deep-copies per churn cycle (bounded by churn, not window).
    pub chunk_copies_per_cycle: f64,
    /// Spine clones per churn cycle (at most a handful).
    pub spine_copies_per_cycle: f64,
}

/// One kernel at the eviction-heavy budget with the cold tier on.
#[derive(Clone, Debug, Serialize)]
pub struct HistoryRow {
    /// Stable row key (`mcf_like@768B`) so compare lines up cells.
    pub name: String,
    pub workload: String,
    pub budget_bytes: usize,
    /// Records still live in the window when queries ran.
    pub window_records: u64,
    /// Records evicted into the cold tier.
    pub evicted: u64,
    /// Sealed + open cold segments.
    pub cold_segments: u64,
    /// Total encoded cold bytes.
    pub cold_bytes: u64,
    /// cold_bytes / evicted — the compression headline per row.
    pub cold_bytes_per_record: f64,
    pub queries: u64,
    /// Mean us per stitched query (live snapshot + cold store).
    pub stitched_us_per_query: f64,
    /// Stitched answers == offline Slicer over the full trace.
    pub identical: bool,
}

/// The machine-readable report behind `BENCH_history.json`.
#[derive(Clone, Debug, Serialize)]
pub struct HistoryReport {
    pub scale: String,
    pub label: String,
    pub snapshot: Vec<SnapshotRow>,
    /// chunked ns at the largest window / at the smallest (16x apart).
    /// The acceptance bar: must stay within 2x (gated).
    pub snapshot_growth_16x: f64,
    /// Same ratio for `snapshot_deep` — the removed O(window) path.
    pub deep_growth_16x: f64,
    pub rows: Vec<HistoryRow>,
    /// Mean of per-row `cold_bytes_per_record` (gated).
    pub cold_bytes_per_record: f64,
    /// Fraction of rows whose stitched answers matched the offline
    /// full-trace Slicer bit-for-bit (gated: 1.0).
    pub identical_fraction: f64,
    pub total_queries: u64,
}

/// A synthetic dense record whose metadata is a pure function of the
/// step, so pushes and evictions always agree on per-step metadata.
pub(crate) fn synth(step: u64) -> BufRecord {
    record(
        step,
        step - 1,
        DepKind::RegData,
        (step % 509) as u32,
        ((step - 1) % 509) as u32,
        (step % 8191) as u32,
        ((step - 1) % 8191) as u32,
    )
}

/// One window of the snapshot sweep: an index filled to a fixed size,
/// the snapshot held between cycles, and the best round so far.
struct SweepWindow {
    idx: SliceIndex,
    next: u64,
    held: SliceSnapshot,
    /// Copy-on-write counters before the first measured cycle.
    copies0: (u64, u64),
    /// Best round mean, ns per `snapshot()` call.
    best_ns: f64,
}

impl SweepWindow {
    fn fill(records: u64) -> SweepWindow {
        let mut idx = SliceIndex::default();
        for step in 1..=records {
            idx.on_push(&synth(step));
        }
        // Warm-up snapshot, held so the first measured cycle already
        // pays the copy-on-write path.
        let held = idx.snapshot();
        let copies0 = (idx.chunk_copies(), idx.spine_copies());
        SweepWindow { idx, next: records + 1, held, copies0, best_ns: f64::INFINITY }
    }

    /// One round: churn `churn` records through the window (push +
    /// evict the oldest) and re-snapshot while the previous snapshot is
    /// still held, `cycles` times, keeping the round's mean if it is the
    /// best.
    fn round(&mut self, cycles: usize, churn: u64) {
        let mut total_ns = 0u128;
        for _ in 0..cycles {
            for _ in 0..churn {
                self.idx.on_push(&synth(self.next));
                self.next += 1;
                self.idx.evict_oldest().expect("window is non-empty");
            }
            let t0 = Instant::now();
            self.held = std::hint::black_box(self.idx.snapshot());
            total_ns += t0.elapsed().as_nanos();
        }
        self.best_ns = self.best_ns.min(total_ns as f64 / cycles.max(1) as f64);
    }
}

/// Steady-state snapshot cost at each window size. Every window is
/// built first; then `reps` rounds each time `cycles` snapshot cycles
/// on every window in turn, and a window's figure is its best round
/// mean — so a burst of host load inflates one round, not one window
/// size.
fn snapshot_sweep(windows: &[u64], cycles: usize, churn: u64, reps: usize) -> Vec<SnapshotRow> {
    let mut sweep: Vec<SweepWindow> = windows.iter().map(|&n| SweepWindow::fill(n)).collect();
    for _ in 0..reps {
        for w in &mut sweep {
            w.round(cycles, churn);
        }
    }
    let n = (cycles * reps).max(1) as f64;
    sweep
        .into_iter()
        .map(|w| {
            drop(w.held);
            let (deep_s, deep) = best_of(reps, || std::hint::black_box(w.idx.snapshot_deep()));
            drop(deep);
            SnapshotRow {
                window_records: w.idx.edges(),
                chunks: w.idx.chunk_count() as u64,
                index_bytes: w.idx.approx_bytes(),
                chunked_snapshot_ns: w.best_ns,
                deep_snapshot_ns: deep_s * 1e9,
                chunk_copies_per_cycle: (w.idx.chunk_copies() - w.copies0.0) as f64 / n,
                spine_copies_per_cycle: (w.idx.spine_copies() - w.copies0.1) as f64 / n,
            }
        })
        .collect()
}

/// Stitched queries (live window + `tracer`'s cold tier) against the
/// offline slicer over a never-evicted run of `w`: the query count, the
/// best-of-`reps` seconds for the whole set, and whether every answer
/// was `Full` (no quarantined history) and bit-identical.
pub(crate) fn stitched_vs_offline(
    w: &Workload,
    tracer: &OnTrac,
    per_row: usize,
    reps: usize,
) -> (usize, f64, bool) {
    // Roomy reference run: nothing evicted, so the offline graph covers
    // the whole execution.
    let full = run_ontrac(w, 1 << 30, |_| {});
    debug_assert_eq!(full.buffer().evicted, 0, "reference budget must retain the full trace");
    let g = DdgGraph::from_records(full.buffer().records(), &w.program);
    let queries = query_set(&g, per_row);
    let reference = batch_via_rebuild(&g, &queries);

    let idx = tracer.slice_index().expect("presets enable the index");
    let cold = tracer.cold_store().expect("the tracer has a cold tier");
    let (stitched_s, stitched) = best_of(reps, || {
        let mut svc = SliceService::new(idx);
        queries.iter().map(|q| svc.query_stitched(cold, q)).collect::<Vec<StitchedOutcome>>()
    });
    let reference: Vec<StitchedOutcome> =
        reference.into_iter().map(StitchedOutcome::Full).collect();
    (queries.len(), stitched_s, stitched == reference)
}

fn measure_row(w: &Workload, budget: usize, per_row: usize, reps: usize) -> HistoryRow {
    let tracer = run_ontrac(w, budget, |c| c.cold_tier = true);
    let (queries, stitched_s, identical) = stitched_vs_offline(w, &tracer, per_row, reps);
    let cold = tracer.cold_store().expect("cold_tier was requested");
    let evicted = tracer.buffer().evicted;
    HistoryRow {
        name: format!("{}@{budget}B", w.name),
        workload: w.name.clone(),
        budget_bytes: budget,
        window_records: tracer.buffer().len() as u64,
        evicted,
        cold_segments: cold.segment_count() as u64,
        cold_bytes: cold.bytes(),
        cold_bytes_per_record: cold.bytes() as f64 / (evicted.max(1)) as f64,
        queries: queries as u64,
        stitched_us_per_query: stitched_s / queries.max(1) as f64 * 1e6,
        identical,
    }
}

/// Measure the history report.
pub fn history_report(scale: Scale) -> HistoryReport {
    // Window sizes 16x apart (in records); churn per cycle is fixed, so
    // the chunked snapshot cost must not follow the window.
    let (windows, cycles, churn, budget, per_row, reps): (
        [u64; 3],
        usize,
        u64,
        usize,
        usize,
        usize,
    ) = match scale {
        Scale::Test => ([2 * CHUNK_STEPS, 8 * CHUNK_STEPS, 32 * CHUNK_STEPS], 48, 64, 768, 12, 3),
        Scale::Paper => {
            ([16 * CHUNK_STEPS, 64 * CHUNK_STEPS, 256 * CHUNK_STEPS], 64, 64, 4 << 10, 24, 5)
        }
    };
    let snapshot = snapshot_sweep(&windows, cycles, churn, reps);
    let growth = |f: fn(&SnapshotRow) -> f64| {
        f(snapshot.last().expect("sweep is non-empty"))
            / f(snapshot.first().expect("sweep is non-empty")).max(1e-9)
    };

    let mut rows = Vec::new();
    for w in &all_spec(scale.spec_size()) {
        rows.push(measure_row(w, budget, per_row, reps));
    }
    let n = rows.len().max(1) as f64;
    HistoryReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "steady-state chunked snapshots at 16x window spread; cold tier + stitched \
                queries vs offline full-trace slicer"
            .into(),
        snapshot_growth_16x: growth(|r| r.chunked_snapshot_ns),
        deep_growth_16x: growth(|r| r.deep_snapshot_ns),
        snapshot,
        cold_bytes_per_record: rows.iter().map(|r| r.cold_bytes_per_record).sum::<f64>() / n,
        identical_fraction: rows.iter().filter(|r| r.identical).count() as f64 / n,
        total_queries: rows.iter().map(|r| r.queries).sum(),
        rows,
    }
}

/// T6 as a printable table (shares measurements with the JSON report).
pub fn history_to_table(r: &HistoryReport) -> Table {
    let mut t = Table::new(
        "T6",
        "tiered trace history: chunked snapshots and the cold tier",
        "snapshot() stays flat while the window grows 16x (dirty-chunk COW, not \
         O(window) clone); evicted records compress ~3x and stitched queries stay \
         bit-identical to the offline full-trace slicer",
        &["row", "window", "chunks", "snapshot ns", "deep ns", "copies/cycle", "identical"],
    );
    for row in &r.snapshot {
        t.row(vec![
            "snapshot".into(),
            row.window_records.to_string(),
            row.chunks.to_string(),
            format!("{:.0}", row.chunked_snapshot_ns),
            format!("{:.0}", row.deep_snapshot_ns),
            format!("{:.1}", row.chunk_copies_per_cycle),
            "-".into(),
        ]);
    }
    t.row(vec![
        "growth 16x".into(),
        "-".into(),
        "-".into(),
        fx(r.snapshot_growth_16x),
        fx(r.deep_growth_16x),
        "-".into(),
        "-".into(),
    ]);
    for row in &r.rows {
        t.row(vec![
            row.name.clone(),
            row.window_records.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.1} B/rec", row.cold_bytes_per_record),
            if row.identical { "yes" } else { "NO" }.into(),
        ]);
    }
    t.row(vec![
        "summary".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.1} B/rec", r.cold_bytes_per_record),
        format!("{:.0}%", r.identical_fraction * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = history_report(Scale::Test);
        assert_eq!(r.snapshot.len(), 3);
        assert_eq!(r.rows.len(), all_spec(Scale::Test.spec_size()).len());
        // The acceptance bar: steady-state snapshot time flat within 2x
        // while the window grows 16x.
        assert!(
            r.snapshot_growth_16x < 2.0,
            "chunked snapshot must stay flat across a 16x window spread, got {:.2}x",
            r.snapshot_growth_16x
        );
        // The reference deep clone must show the cliff the chunked path
        // removes (it is O(window), so 16x more data costs clearly more).
        assert!(
            r.deep_growth_16x > r.snapshot_growth_16x && r.deep_growth_16x > 3.0,
            "deep snapshot should scale with the window, got {:.2}x",
            r.deep_growth_16x
        );
        for p in &r.snapshot {
            assert!(p.chunks >= 2, "window should span multiple chunks");
            // COW work is bounded by the churn (head + tail chunks plus
            // the spine), never the window.
            assert!(
                p.chunk_copies_per_cycle <= 8.0,
                "copies per cycle should track churn, got {:.1}",
                p.chunk_copies_per_cycle
            );
        }
        assert_eq!(r.identical_fraction, 1.0, "stitched answers must match the offline slicer");
        for row in &r.rows {
            assert!(row.evicted > 0, "{}: budget did not exercise the cold tier", row.name);
            assert!(row.queries > 0, "{}: empty query set", row.name);
            assert!(
                row.cold_bytes_per_record > 0.0 && row.cold_bytes_per_record < 12.0,
                "{}: cold encoding should beat the 28-byte in-memory record, got {:.1}",
                row.name,
                row.cold_bytes_per_record
            );
        }
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("snapshot_growth_16x"));
        assert!(json.contains("cold_bytes_per_record"));
        assert!(json.contains("identical_fraction"));
    }
}
