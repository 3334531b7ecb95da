//! T3 — resilience of the fault-tolerant epoch pipeline.
//!
//! Three families of numbers behind `report resilience`
//! (`BENCH_resilience.json`):
//!
//! * **zero-fault overhead** — the tolerance machinery (per-epoch
//!   `catch_unwind`, the record-count integrity check, the recovery
//!   bookkeeping) measured with [`NoopFaults`] and recovery enabled,
//!   against the plain fail-stop runner. The *modeled* ratio is deterministic and must be exactly
//!   1.0 (the timing model charges recovery work only for epochs that
//!   were actually lost); the wall-clock ratio on the stream path is
//!   recorded for context but not gated (host-dependent).
//! * **fault matrix** — every [`FaultSite`] × the first two shards, one
//!   scripted single fault per run at a coordinate the shard is
//!   guaranteed to own. Each run must complete and stay bit-identical
//!   to the serial inline engine; the report records the recovery
//!   ledger per cell. `completed_fraction` and `identical_fraction`
//!   are gated at 1.0.
//! * **recovery accounting** — total epochs recovered, retries, spare
//!   vs degraded split, summed over the matrix.

use crate::throughput::{capture, time_stream};
use crate::{pct, Scale, Table};
use dift_multicore::{
    epoch_process_stream, epoch_process_stream_tolerant, run_epoch_dift, run_epoch_dift_tolerant,
    silence_injected_panics, ChannelModel, EpochModel, FaultSite, NoopFaults, RecoveryPolicy,
    ScriptedFaults,
};
use dift_obs::NoopRecorder;
use dift_taint::{PcTaint, TaintEngine, TaintPolicy};
use dift_workloads::{science, Workload};
use serde::Serialize;

/// Shards the fault-tolerant runs fan out across (3 keeps every matrix
/// coordinate distinct from its spare indices 3 and 4).
const WORKERS: usize = 3;

/// One cell of the fault matrix: a single scripted fault at an exact
/// (site, shard, epoch) coordinate.
#[derive(Clone, Debug, Serialize)]
pub struct FaultMatrixRow {
    /// Stable row key (`shard_panic@s0` etc.) so compare lines up cells.
    pub name: String,
    pub site: String,
    pub shard: usize,
    pub epoch: usize,
    /// The run returned (recovery never gave up).
    pub completed: bool,
    /// Labels, alerts, tainted words, and peak stats all matched the
    /// serial inline engine.
    pub bit_identical: bool,
    pub faults_injected: u64,
    pub epochs_lost: u64,
    pub epochs_recovered: u64,
    pub retries: u64,
    pub spare_recovered: u64,
    pub degraded_epochs: u64,
    pub shards_lost: u64,
    /// Modeled completion including the recovery recompute charge.
    pub completion_cycles: u64,
}

/// The machine-readable report behind `BENCH_resilience.json`.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceReport {
    pub scale: String,
    pub label: String,
    pub workload: String,
    /// Guest instructions in the effects stream.
    pub instrs: u64,
    /// Epochs the modeled runs split the stream into.
    pub epochs: u64,
    pub workers: usize,
    /// Tolerant(NoopFaults) / fail-stop modeled completion cycles —
    /// deterministic, must be 1.0 (gated).
    pub zero_fault_modeled_overhead: f64,
    /// Tolerant(NoopFaults) / plain wall-clock stream throughput ratio
    /// (>= 1.0 means the tolerant path is slower). Host-dependent;
    /// recorded, not gated.
    pub zero_fault_wall_overhead: f64,
    pub matrix: Vec<FaultMatrixRow>,
    /// Fraction of matrix runs that completed (gated at 1.0).
    pub completed_fraction: f64,
    /// Fraction of matrix runs bit-identical to serial (gated at 1.0).
    pub identical_fraction: f64,
    /// Total epochs recovered across the matrix.
    pub recovered_total: u64,
}

/// Taint-heavy kernel with enough epochs for the matrix coordinates.
fn workload(scale: Scale) -> Workload {
    let n = match scale {
        Scale::Test => 256,
        Scale::Paper => 2048,
    };
    science::scatter_sum(n, 32).workload
}

/// Helper-bound fan-out model (same shape as the scaling experiment's):
/// the consumer is slower per record than the producer, so shard loss
/// and recovery recompute are visible in completion cycles.
fn model(epoch_len: usize) -> EpochModel {
    EpochModel {
        chan: ChannelModel { enqueue_cycles: 2, helper_per_msg: 16, queue_depth: 128 },
        workers: WORKERS,
        epoch_len,
        fanout_cycles: 1,
        compose_per_epoch: 32,
    }
}

/// Measure the resilience report.
pub fn resilience_report(scale: Scale) -> ResilienceReport {
    silence_injected_panics();
    let (target, epoch_len): (u64, usize) = match scale {
        Scale::Test => (20_000, 128),
        Scale::Paper => (500_000, 512),
    };
    let policy = TaintPolicy::default();
    let w = workload(scale);

    // Serial baselines: the inline engine for bit-identity, the captured
    // stream for wall-clock A/B.
    let (stream, mem_words) = capture(&w);
    let mut serial = TaintEngine::<PcTaint>::new(policy);
    serial.pre_size(mem_words);
    for fx in &stream {
        serial.process(fx);
    }

    // Zero-fault A/B, modeled: identical machine, identical model; the
    // only difference is the tolerance machinery. Deterministic.
    let fail_stop = run_epoch_dift::<PcTaint>(w.machine(), model(epoch_len), policy);
    let (tolerant, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
        w.machine(),
        model(epoch_len),
        policy,
        NoopRecorder,
        NoopFaults,
        RecoveryPolicy::tolerant(),
    );
    let zero_fault_modeled_overhead =
        tolerant.stats.completion_cycles as f64 / fail_stop.stats.completion_cycles.max(1) as f64;

    // Zero-fault A/B, wall clock on the stream path (informational).
    let base_ips = time_stream(&stream, target, |s| {
        let e = epoch_process_stream::<PcTaint>(s, policy, mem_words, epoch_len, WORKERS);
        std::hint::black_box(e.tainted_words());
    });
    let tol_ips = time_stream(&stream, target, |s| {
        let (e, _) = epoch_process_stream_tolerant::<PcTaint, _>(
            s, policy, mem_words, epoch_len, WORKERS, NoopFaults,
        );
        std::hint::black_box(e.tainted_words());
    });
    let zero_fault_wall_overhead = base_ips / tol_ips.max(1e-9);

    // Fault matrix: every site × the first two shards, injected at the
    // epoch the shard owns (epoch e steers to shard e % workers).
    let mut matrix = Vec::new();
    for site in FaultSite::ALL {
        for shard in 0..2usize {
            let plan = ScriptedFaults::single(site, shard, shard);
            let (run, _) = run_epoch_dift_tolerant::<PcTaint, _, _>(
                w.machine(),
                model(epoch_len),
                policy,
                NoopRecorder,
                plan,
                RecoveryPolicy::quick(),
            );
            let rs = run.stats.recovery;
            let bit_identical = run.engine.output_labels == serial.output_labels
                && run.engine.alerts == serial.alerts
                && run.engine.tainted_words() == serial.tainted_words()
                && run.engine.stats() == serial.stats();
            matrix.push(FaultMatrixRow {
                name: format!("{}@s{shard}", site.name()),
                site: site.name().to_string(),
                shard,
                epoch: shard,
                completed: true, // the run returned
                bit_identical,
                faults_injected: rs.faults_injected,
                epochs_lost: rs.epochs_lost,
                epochs_recovered: rs.epochs_recovered,
                retries: rs.retries,
                spare_recovered: rs.spare_recovered,
                degraded_epochs: rs.degraded_epochs,
                shards_lost: rs.shards_lost,
                completion_cycles: run.stats.completion_cycles,
            });
        }
    }

    let n = matrix.len().max(1) as f64;
    ResilienceReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "PcTaint, checks on; single scripted fault per run, RecoveryPolicy::quick".into(),
        workload: w.name.clone(),
        instrs: stream.len() as u64,
        epochs: fail_stop.stats.epochs,
        workers: WORKERS,
        zero_fault_modeled_overhead,
        zero_fault_wall_overhead,
        completed_fraction: matrix.iter().filter(|r| r.completed).count() as f64 / n,
        identical_fraction: matrix.iter().filter(|r| r.bit_identical).count() as f64 / n,
        recovered_total: matrix.iter().map(|r| r.epochs_recovered).sum(),
        matrix,
    }
}

/// T3 as a printable table (shares measurements with the JSON report).
pub fn resilience_to_table(r: &ResilienceReport) -> Table {
    let mut t = Table::new(
        "T3",
        "fault-tolerant epoch pipeline: zero-fault overhead and single-fault recovery",
        "epoch summaries are recomputable, so every injected fault is absorbed by \
         retry-on-spare or inline degradation with bit-identical results",
        &["fault", "shard", "identical", "lost", "spare", "degraded", "retries", "cycles"],
    );
    for row in &r.matrix {
        t.row(vec![
            row.site.clone(),
            format!("s{}", row.shard),
            if row.bit_identical { "yes" } else { "NO" }.into(),
            row.epochs_lost.to_string(),
            row.spare_recovered.to_string(),
            row.degraded_epochs.to_string(),
            row.retries.to_string(),
            row.completion_cycles.to_string(),
        ]);
    }
    t.row(vec![
        format!("zero-fault overhead (modeled {:.3}x)", r.zero_fault_modeled_overhead),
        "-".into(),
        pct(r.identical_fraction),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("wall {:.2}x", r.zero_fault_wall_overhead),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = resilience_report(Scale::Test);
        assert_eq!(r.matrix.len(), FaultSite::ALL.len() * 2, "4 sites x 2 shards");
        assert!(r.epochs >= 2, "matrix coordinates need at least 2 epochs, got {}", r.epochs);
        assert_eq!(r.completed_fraction, 1.0, "every faulted run must complete");
        assert_eq!(r.identical_fraction, 1.0, "every faulted run must stay bit-identical");
        assert!(
            (r.zero_fault_modeled_overhead - 1.0).abs() < 1e-12,
            "the tolerance machinery must not perturb the timing model: {}",
            r.zero_fault_modeled_overhead
        );
        assert!(r.zero_fault_wall_overhead.is_finite() && r.zero_fault_wall_overhead > 0.0);
        for row in &r.matrix {
            assert!(row.faults_injected >= 1, "{}: fault must fire: {row:?}", row.name);
            assert!(row.epochs_recovered >= 1, "{}: must recover: {row:?}", row.name);
            assert_eq!(row.epochs_recovered, row.epochs_lost, "{}: {row:?}", row.name);
        }
        assert!(r.recovered_total >= r.matrix.len() as u64);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("zero_fault_modeled_overhead"));
        assert!(json.contains("identical_fraction"));
    }
}
