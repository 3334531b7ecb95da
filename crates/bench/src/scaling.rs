//! T2 — epoch-parallel DIFT scaling across helper shards.
//!
//! Two families of numbers over taint-heavy workloads (kernels whose
//! instruction mix keeps a large fraction of steps touching tainted
//! data — the regime where propagation work, not capture, dominates):
//!
//! * **wall clock** — a pre-captured effects stream driven through
//!   [`dift_multicore::epoch_process_stream`] at 1/2/4/8 workers:
//!   genuine threads summarizing epochs concurrently, then the
//!   sequential composition. On a multi-core host this scales with
//!   cores; the report records `host_cores` so a 1-core CI runner's
//!   flat numbers are interpretable.
//! * **modeled** — [`dift_multicore::run_epoch_dift`] under a
//!   helper-bound fan-out model (a software channel whose consumer runs
//!   the full check-and-origin pipeline, slower per record than the
//!   producer's capture rate): completion cycles at each width,
//!   deterministic and host-independent.
//!
//! The `report multicore-scaling` selection serializes both to
//! `BENCH_multicore_scaling.json`.

use crate::throughput::{capture, time_stream};
use crate::{fx, geomean, mps, Scale, Table};
use dift_isa::{BinOp, BranchCond, ProgramBuilder, Reg};
use dift_multicore::{epoch_process_stream, run_epoch_dift, ChannelModel, EpochModel};
use dift_taint::{BitTaint, TaintEngine, TaintPolicy};
use dift_workloads::{science, spec, Workload};
use serde::Serialize;
use std::sync::Arc;

/// Shard widths the sweep measures.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

#[derive(Clone, Debug, Serialize)]
pub struct WallPoint {
    pub workers: usize,
    pub instrs_per_sec: f64,
    pub speedup_vs_1: f64,
    /// Cores the measuring host exposed when this row was taken. A
    /// wall row from a 1-core host reads as "no speedup" no matter how
    /// well the engine scales, so every row carries its provenance.
    pub host_cores: usize,
    /// True when `host_cores == 1`: the number is a serialization
    /// artifact, not a measurement of scaling. `report compare` skips
    /// gating numeric leaves under a `modeled_only: true` row.
    pub modeled_only: bool,
}

#[derive(Clone, Debug, Serialize)]
pub struct ModeledPoint {
    pub workers: usize,
    pub completion_cycles: u64,
    pub stall_cycles: u64,
    pub speedup_vs_1: f64,
}

#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    pub name: String,
    /// Guest instructions in the captured stream.
    pub instrs: u64,
    /// Steps touching tainted data (taint-heaviness of the workload).
    pub tainted_instrs: u64,
    /// Serial `TaintEngine::process` over the stream, instrs/sec — the
    /// no-summary baseline the 1-worker epoch path is compared against.
    pub serial_hot: f64,
    pub wall: Vec<WallPoint>,
    pub modeled: Vec<ModeledPoint>,
}

/// The machine-readable report behind `BENCH_multicore_scaling.json`.
#[derive(Clone, Debug, Serialize)]
pub struct MulticoreScalingReport {
    pub scale: String,
    pub label: String,
    /// Epoch length the wall-clock sweep used.
    pub epoch_len: usize,
    /// Cores the measuring host exposed: wall-clock scaling is bounded
    /// by this (a 1-core runner cannot show parallel speedup no matter
    /// how well the engine scales), the modeled numbers are not.
    pub host_cores: usize,
    pub workers: Vec<usize>,
    pub rows: Vec<ScalingRow>,
    /// Geomean over rows of wall `speedup_vs_1` at 4 workers.
    pub geomean_wall_speedup_4w: f64,
    /// Geomean over rows of modeled `speedup_vs_1` at 4 workers.
    pub geomean_modeled_speedup_4w: f64,
}

/// Shadow-churn kernel: every iteration reads a tainted word and stores
/// a tainted accumulator to a data-dependent slot — roughly 60 % of
/// steps touch taint and every iteration writes shadow state. The
/// adversarial case for epoch summarization (maximum events to replay).
fn churn(iters: u64) -> Workload {
    const R: fn(u8) -> Reg = Reg;
    let mut b = ProgramBuilder::new();
    b.func("main");
    // Ingest 64 tainted words at mem[1000..1064].
    b.li(R(1), 64);
    b.li(R(2), 0);
    b.li(R(3), 1000);
    b.label("fill");
    b.branch(BranchCond::Geu, R(2), R(1), "fill_done");
    b.input(R(4), 0);
    b.add(R(5), R(3), R(2));
    b.store(R(4), R(5), 0);
    b.addi(R(2), R(2), 1);
    b.jump("fill");
    b.label("fill_done");
    b.li(R(2), 0);
    b.li(R(6), iters as i64);
    b.li(R(7), 0); // acc
    b.li(R(11), 2000);
    b.label("loop");
    b.branch(BranchCond::Geu, R(2), R(6), "done");
    b.bini(BinOp::And, R(8), R(2), 63);
    b.add(R(8), R(8), R(3));
    b.load(R(9), R(8), 0);
    b.add(R(7), R(7), R(9));
    b.bini(BinOp::And, R(10), R(7), 127);
    b.add(R(10), R(10), R(11));
    b.store(R(7), R(10), 0);
    b.addi(R(2), R(2), 1);
    b.jump("loop");
    b.label("done");
    b.output(R(7), 0);
    b.halt();
    let inputs: Vec<u64> = (0..64u64).map(|i| (i.wrapping_mul(2654435761)) % 997).collect();
    Workload::new(format!("churn.i{iters}"), Arc::new(b.build().unwrap())).with_input(0, inputs)
}

/// The taint-heavy suite: kernels that consume input (so taint actually
/// flows) across the lineage-structure spectrum, plus the churn kernel.
fn suite(scale: Scale) -> Vec<Workload> {
    let (n, iters) = match scale {
        Scale::Test => (256, 300),
        Scale::Paper => (2048, 20_000),
    };
    vec![
        spec::compress_like(scale.spec_size()),
        science::binning(n, 8).workload,
        science::sliding_window(n, 16).workload,
        science::scatter_sum(n, 32).workload,
        churn(iters),
    ]
}

/// The modeled fan-out channel: a software queue whose consumer runs the
/// full propagate-check-origin pipeline (heavier per record than the
/// 5-cycle propagate-only software preset), so a single shard is the
/// bottleneck and fan-out has headroom. 16 cycles/record keeps the
/// consumer slower than even the io-heavy producers (an `In`-dominated
/// loop produces one record per ~9 producer cycles). Per-shard queues
/// buffer a whole epoch (see [`EpochModel::software`] on why that is
/// required).
fn modeled_fanout(workers: usize) -> EpochModel {
    EpochModel {
        chan: ChannelModel { enqueue_cycles: 2, helper_per_msg: 16, queue_depth: 128 },
        workers,
        epoch_len: 128,
        fanout_cycles: 1,
        compose_per_epoch: 32,
    }
}

/// Measure the scaling sweep.
pub fn multicore_scaling_report(scale: Scale) -> MulticoreScalingReport {
    let (target, epoch_len): (u64, usize) = match scale {
        Scale::Test => (20_000, 128),
        Scale::Paper => (2_000_000, 1024),
    };
    let policy = TaintPolicy::propagate_only();
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows = Vec::new();
    for w in &suite(scale) {
        let (stream, mem_words) = capture(w);

        // Taint-heaviness and the serial baseline from one engine.
        let mut serial = TaintEngine::<BitTaint>::new(policy);
        serial.pre_size(mem_words);
        for fxs in &stream {
            serial.process(fxs);
        }
        let tainted_instrs = serial.stats().tainted_instrs;
        let serial_hot = time_stream(&stream, target, |s| {
            let mut e = TaintEngine::<BitTaint>::new(policy);
            e.pre_size(mem_words);
            for fxs in s {
                e.process(fxs);
            }
            std::hint::black_box(e.tainted_words());
        });

        let mut wall = Vec::new();
        for &workers in &WORKER_SWEEP {
            let ips = time_stream(&stream, target, |s| {
                let e = epoch_process_stream::<BitTaint>(s, policy, mem_words, epoch_len, workers);
                std::hint::black_box(e.tainted_words());
            });
            wall.push(WallPoint {
                workers,
                instrs_per_sec: ips,
                speedup_vs_1: 0.0,
                host_cores,
                modeled_only: host_cores == 1,
            });
        }
        let base = wall[0].instrs_per_sec;
        for p in &mut wall {
            p.speedup_vs_1 = p.instrs_per_sec / base;
        }

        let mut modeled = Vec::new();
        for &workers in &WORKER_SWEEP {
            let run = run_epoch_dift::<BitTaint>(w.machine(), modeled_fanout(workers), policy);
            modeled.push(ModeledPoint {
                workers,
                completion_cycles: run.stats.completion_cycles,
                stall_cycles: run.stats.stall_cycles,
                speedup_vs_1: 0.0,
            });
        }
        let base = modeled[0].completion_cycles as f64;
        for p in &mut modeled {
            p.speedup_vs_1 = base / p.completion_cycles as f64;
        }

        rows.push(ScalingRow {
            name: w.name.clone(),
            instrs: stream.len() as u64,
            tainted_instrs,
            serial_hot,
            wall,
            modeled,
        });
    }
    let at4 = |pts: &[WallPoint]| pts.iter().find(|p| p.workers == 4).map(|p| p.speedup_vs_1);
    let at4m = |pts: &[ModeledPoint]| pts.iter().find(|p| p.workers == 4).map(|p| p.speedup_vs_1);
    MulticoreScalingReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "BitTaint, propagate-only; epoch summaries + sequential composition".into(),
        epoch_len,
        host_cores,
        workers: WORKER_SWEEP.to_vec(),
        geomean_wall_speedup_4w: geomean(rows.iter().filter_map(|r| at4(&r.wall))),
        geomean_modeled_speedup_4w: geomean(rows.iter().filter_map(|r| at4m(&r.modeled))),
        rows,
    }
}

/// T2 as a printable table (shares measurements with the JSON report).
pub fn scaling_to_table(r: &MulticoreScalingReport) -> Table {
    let mut t = Table::new(
        "T2",
        "epoch-parallel DIFT scaling: wall clock (real threads) and modeled completion",
        "summaries fan out across shards; composition stays cheap, so speedup tracks \
         min(workers, cores) on wall clock and queue relief in the model",
        &[
            "benchmark",
            "instrs",
            "tainted",
            "serial hot",
            "wall w1",
            "wall w4",
            "w4/w1",
            "model w4/w1",
        ],
    );
    for row in &r.rows {
        let wall_at = |w: usize| row.wall.iter().find(|p| p.workers == w);
        let model_at = |w: usize| row.modeled.iter().find(|p| p.workers == w);
        t.row(vec![
            row.name.clone(),
            row.instrs.to_string(),
            format!("{:.0}%", 100.0 * row.tainted_instrs as f64 / row.instrs.max(1) as f64),
            mps(row.serial_hot),
            wall_at(1).map(|p| mps(p.instrs_per_sec)).unwrap_or_default(),
            wall_at(4).map(|p| mps(p.instrs_per_sec)).unwrap_or_default(),
            wall_at(4).map(|p| fx(p.speedup_vs_1)).unwrap_or_default(),
            model_at(4).map(|p| fx(p.speedup_vs_1)).unwrap_or_default(),
        ]);
    }
    t.row(vec![
        format!("geomean ({} host cores)", r.host_cores),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fx(r.geomean_wall_speedup_4w),
        fx(r.geomean_modeled_speedup_4w),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = multicore_scaling_report(Scale::Test);
        assert_eq!(r.rows.len(), 5, "compress + three science kernels + churn");
        for row in &r.rows {
            assert!(row.instrs > 0, "{}: empty stream", row.name);
            assert!(
                row.tainted_instrs * 4 > row.instrs,
                "{}: suite must be taint-heavy ({}/{} tainted)",
                row.name,
                row.tainted_instrs,
                row.instrs
            );
            assert!(row.serial_hot.is_finite() && row.serial_hot > 0.0);
            assert_eq!(row.wall.len(), WORKER_SWEEP.len());
            assert_eq!(row.modeled.len(), WORKER_SWEEP.len());
            for p in &row.wall {
                assert!(p.instrs_per_sec.is_finite() && p.instrs_per_sec > 0.0);
                assert_eq!(p.host_cores, r.host_cores, "every wall row carries provenance");
                assert_eq!(
                    p.modeled_only,
                    r.host_cores == 1,
                    "1-core rows must be flagged modeled_only"
                );
            }
            // The modeled sweep is deterministic: fan-out must relieve
            // the helper-bound channel on every workload.
            let m4 = row.modeled.iter().find(|p| p.workers == 4).unwrap();
            assert!(
                m4.speedup_vs_1 > 1.0,
                "{}: modeled 4-shard speedup {} <= 1",
                row.name,
                m4.speedup_vs_1
            );
        }
        assert!(r.geomean_modeled_speedup_4w > 1.2, "got {}", r.geomean_modeled_speedup_4w);
        assert!(r.geomean_wall_speedup_4w.is_finite() && r.geomean_wall_speedup_4w > 0.0);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("geomean_wall_speedup_4w"));
        assert!(json.contains("host_cores"));
    }
}
