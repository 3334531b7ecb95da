//! T9 — sharded lineage + slice-index fan-out on the epoch pipeline.
//!
//! The numbers behind `report lineage-shard`
//! (`BENCH_lineage_shard.json`). Each input-consuming kernel's effects
//! stream is captured once, then:
//!
//! * a serial [`LineageEngine`] and a serial unoptimized `OnTrac` index
//!   establish the ground truth (per-output lineage sets, input
//!   provenance, dependence-edge count);
//! * [`shard_lineage_stream`] re-derives both through per-shard roBDD
//!   arenas and per-epoch `SliceIndex` fragments at each worker width,
//!   and every width must reproduce the serial observables exactly
//!   (`identical_fraction`, gated at 1.0 by the shared threshold rule).
//!
//! The speedup column is **modeled**: total shard-side summarize time
//! over the busiest worker plus the sequential compose
//! ([`dift_multicore::LineageShardStats::modeled_speedup`]) — both terms measured, only
//! their overlap assumed, so the number is meaningful even on a 1-core
//! CI host (wall rows are stamped `modeled_only` with `host_cores`
//! provenance, exactly like the T2 scaling sweep). The merge-cost
//! columns (arena nodes absorbed, cross-epoch dependences resolved)
//! quantify what composition pays to keep the answer bit-identical, and
//! each width's `index_nanos` splits out of `compose_nanos` the time
//! spent appending dependence fragments to the merged index.

use crate::throughput::capture;
use crate::{fx, geomean, pct, Scale, Table};
use dift_dbi::Engine;
use dift_ddg::{OnTrac, OnTracConfig};
use dift_lineage::{BddBackend, LineageEngine};
use dift_multicore::{shard_lineage_stream, LineageShardConfig};
use dift_workloads::{science, spec, Workload};
use serde::Serialize;

/// Worker widths the sweep measures (shared with the T2 sweep).
pub use crate::scaling::WORKER_SWEEP;

/// roBDD input-identifier width — ample for every suite kernel.
const ID_BITS: u32 = 16;

/// One worker width's cell for one kernel.
#[derive(Clone, Debug, Serialize)]
pub struct LineageShardPoint {
    pub workers: usize,
    /// Measured shard work / measured critical path (busiest worker +
    /// compose). See the module docs for why this is modeled.
    pub modeled_speedup: f64,
    /// Total shard-side summarize nanos (serial-equivalent work).
    pub shard_nanos_total: u64,
    /// Busiest worker's summarize nanos (parallel critical path).
    pub max_worker_nanos: u64,
    /// Sequential composition nanos (arena merges, symbolic
    /// resolution, fragment replay into the index).
    pub compose_nanos: u64,
    /// The part of `compose_nanos` spent appending dependence fragments
    /// to the merged index.
    pub index_nanos: u64,
    /// Sharded engine + merged index ≡ serial, bit for bit.
    pub identical: bool,
    /// Cores the measuring host exposed when this cell was taken.
    pub host_cores: usize,
    /// True when `host_cores == 1`: the timing split is a scheduling
    /// artifact; `report compare` skips numeric leaves under it.
    pub modeled_only: bool,
}

/// One kernel's row: width-independent merge costs + per-width points.
#[derive(Clone, Debug, Serialize)]
pub struct LineageShardRow {
    pub name: String,
    /// Instructions in the captured effects stream.
    pub instrs: u64,
    /// Epochs the stream shards into at the report's `epoch_len`.
    pub epochs: u64,
    /// Input identifiers the kernel allocates (lineage universe size).
    pub inputs: u64,
    /// roBDD nodes built in shard arenas — upper bound on merge traffic.
    pub arena_nodes: u64,
    /// Dependences resolved across an epoch boundary at composition.
    pub cross_epoch_deps: u64,
    /// Dependence edges in the merged index (equals serial by gate).
    pub index_edges: u64,
    pub points: Vec<LineageShardPoint>,
}

/// The machine-readable report behind `BENCH_lineage_shard.json`.
#[derive(Clone, Debug, Serialize)]
pub struct LineageShardReport {
    pub scale: String,
    pub label: String,
    /// Instructions per epoch used for the whole sweep.
    pub epoch_len: usize,
    pub host_cores: usize,
    pub workers: Vec<usize>,
    pub rows: Vec<LineageShardRow>,
    /// Fraction of (kernel × width) cells where the sharded run matched
    /// serial bit-for-bit (gated: 1.0 via the shared threshold rule).
    pub identical_fraction: f64,
    /// Geomean of `modeled_speedup` at 4 workers over all kernels.
    pub modeled_speedup_geomean_4w: f64,
    pub total_arena_nodes: u64,
    pub total_cross_epoch_deps: u64,
}

/// The input-consuming suite: lineage only flows where input does, so
/// the sweep reuses the taint-heavy T2 kernels minus the churn stressor
/// (whose lineage sets degenerate to one accumulator).
fn suite(scale: Scale) -> Vec<Workload> {
    let n = match scale {
        Scale::Test => 256,
        Scale::Paper => 2048,
    };
    vec![
        spec::compress_like(scale.spec_size()),
        science::binning(n, 8).workload,
        science::sliding_window(n, 16).workload,
        science::scatter_sum(n, 32).workload,
    ]
}

/// Serial ground truth: the unoptimized tracer records every dependence,
/// exactly like the sharded fragments do.
fn serial_index_edges(w: &Workload) -> u64 {
    let m = w.machine();
    let mem = m.mem_words();
    let mut tracer = OnTrac::new(&w.program, mem, OnTracConfig::unoptimized(1 << 24));
    Engine::new(m).run_tool(&mut tracer);
    tracer.slice_index().map(|ix| ix.edges()).unwrap_or(0)
}

fn measure_row(w: &Workload, epoch_len: usize, host_cores: usize) -> LineageShardRow {
    let (stream, mem_words) = capture(w);

    let mut serial = LineageEngine::new(BddBackend::new(ID_BITS));
    for fxs in &stream {
        serial.process(fxs);
    }
    let serial_edges = serial_index_edges(w);

    let mut cfg = LineageShardConfig::new(1, epoch_len, ID_BITS);
    cfg.slice = true;
    let mut points = Vec::new();
    let mut merge = None;
    for &workers in &WORKER_SWEEP {
        cfg.workers = workers;
        let run = shard_lineage_stream(&stream, &w.program, mem_words, &cfg);
        let e = &run.engine;
        let edges = run.index.as_ref().map(|ix| ix.edges()).unwrap_or(0);
        let identical = e.outputs == serial.outputs
            && e.input_channels() == serial.input_channels()
            && e.inputs_seen() == serial.inputs_seen()
            && e.stats().instrs == serial.stats().instrs
            && e.stats().max_output_set == serial.stats().max_output_set
            && edges == serial_edges;
        // The merge costs depend only on the epoch grid, not on how
        // many workers raced to fill it — record them once.
        merge.get_or_insert((run.stats.arena_nodes, run.stats.cross_epoch_deps, edges));
        points.push(LineageShardPoint {
            workers,
            modeled_speedup: run.stats.modeled_speedup(),
            shard_nanos_total: run.stats.shard_nanos_total,
            max_worker_nanos: run.stats.max_worker_nanos,
            compose_nanos: run.stats.compose_nanos,
            index_nanos: run.stats.index_nanos,
            identical,
            host_cores,
            modeled_only: host_cores == 1,
        });
    }
    let (arena_nodes, cross_epoch_deps, index_edges) = merge.unwrap_or_default();
    LineageShardRow {
        name: w.name.clone(),
        instrs: stream.len() as u64,
        epochs: (stream.len() as u64).div_ceil(epoch_len as u64),
        inputs: serial.inputs_seen(),
        arena_nodes,
        cross_epoch_deps,
        index_edges,
        points,
    }
}

/// Measure the sharded-lineage sweep.
pub fn lineage_shard_report(scale: Scale) -> LineageShardReport {
    let epoch_len = match scale {
        Scale::Test => 64,
        Scale::Paper => 512,
    };
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rows: Vec<LineageShardRow> =
        suite(scale).iter().map(|w| measure_row(w, epoch_len, host_cores)).collect();
    let cells = rows.iter().flat_map(|r| &r.points);
    let n = rows.len().max(1) * WORKER_SWEEP.len();
    let at4 =
        |r: &LineageShardRow| r.points.iter().find(|p| p.workers == 4).map(|p| p.modeled_speedup);
    LineageShardReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "sharded roBDD lineage + slice fragments vs serial engine/index; \
                speedup is modeled (measured shard work over measured critical path)"
            .into(),
        epoch_len,
        host_cores,
        workers: WORKER_SWEEP.to_vec(),
        identical_fraction: cells.filter(|p| p.identical).count() as f64 / n as f64,
        modeled_speedup_geomean_4w: geomean(rows.iter().filter_map(at4)),
        total_arena_nodes: rows.iter().map(|r| r.arena_nodes).sum(),
        total_cross_epoch_deps: rows.iter().map(|r| r.cross_epoch_deps).sum(),
        rows,
    }
}

/// T9 as a printable table (shares measurements with the JSON report).
pub fn lineage_shard_to_table(r: &LineageShardReport) -> Table {
    let mut t = Table::new(
        "T9",
        "sharded lineage + slicing on the epoch pipeline: identical answers, modeled speedup",
        "per-shard roBDD arenas hash-cons-merge into the primary manager and each \
         epoch's dependence records replay into the merged index; every width \
         reproduces the serial engine and index bit for bit",
        &[
            "benchmark",
            "instrs",
            "epochs",
            "arena nodes",
            "cross-epoch",
            "edges",
            "index ns/instr",
            "model w4/w1",
            "identical",
        ],
    );
    for row in &r.rows {
        let at = |w| row.points.iter().find(|p| p.workers == w);
        let index_ns = |p: &LineageShardPoint| p.index_nanos as f64 / row.instrs.max(1) as f64;
        t.row(vec![
            row.name.clone(),
            row.instrs.to_string(),
            row.epochs.to_string(),
            row.arena_nodes.to_string(),
            row.cross_epoch_deps.to_string(),
            row.index_edges.to_string(),
            at(1).map(|p| format!("{:.0}", index_ns(p))).unwrap_or_default(),
            at(4).map(|p| fx(p.modeled_speedup)).unwrap_or_default(),
            if row.points.iter().all(|p| p.identical) { "yes" } else { "NO" }.into(),
        ]);
    }
    t.row(vec![
        format!("geomean ({} host cores)", r.host_cores),
        "-".into(),
        "-".into(),
        r.total_arena_nodes.to_string(),
        r.total_cross_epoch_deps.to_string(),
        "-".into(),
        "-".into(),
        fx(r.modeled_speedup_geomean_4w),
        pct(r.identical_fraction),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineage_shard_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = lineage_shard_report(Scale::Test);
        assert_eq!(r.rows.len(), 4, "compress + three science kernels");
        assert_eq!(r.identical_fraction, 1.0, "every width must match serial bit-for-bit");
        for row in &r.rows {
            assert!(row.instrs > 0, "{}: empty stream", row.name);
            assert!(row.inputs > 0, "{}: lineage needs inputs", row.name);
            assert_eq!(row.epochs, row.instrs.div_ceil(r.epoch_len as u64), "{}", row.name);
            assert!(row.arena_nodes > 0, "{}: shards must build arena nodes", row.name);
            assert!(row.index_edges > 0, "{}: merged index must hold edges", row.name);
            assert_eq!(row.points.len(), WORKER_SWEEP.len(), "{}", row.name);
            for p in &row.points {
                assert!(p.identical, "{}@{}w: sharded != serial", row.name, p.workers);
                assert!(
                    p.modeled_speedup.is_finite() && p.modeled_speedup > 0.0,
                    "{}@{}w: speedup {}",
                    row.name,
                    p.workers,
                    p.modeled_speedup
                );
                assert!(
                    p.index_nanos <= p.compose_nanos,
                    "{}@{}w: index {} ns within compose {} ns",
                    row.name,
                    p.workers,
                    p.index_nanos,
                    p.compose_nanos
                );
                assert_eq!(p.host_cores, r.host_cores, "provenance on every cell");
                assert_eq!(p.modeled_only, r.host_cores == 1);
            }
        }
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("identical_fraction"));
        assert!(json.contains("modeled_speedup_geomean_4w"));
        assert!(json.contains("cross_epoch_deps"));
        assert!(json.contains("index_nanos"));
    }
}
