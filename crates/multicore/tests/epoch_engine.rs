//! The epoch engine's contract, checked through every runner that uses
//! it: fault coordinates are deterministic, a wedged shard under
//! fail-stop aborts instead of hanging, and the per-epoch summarize
//! histograms get one sample per epoch.

use dift_multicore::{
    epoch_process_stream_tolerant, run_epoch_dift_tolerant, shard_lineage_stream_obs,
    silence_injected_panics, ChannelModel, EpochModel, FaultSite, LineageShardConfig, NoopFaults,
    RecoveryPolicy, ScriptedFaults,
};
use dift_obs::{Metric, NoopRecorder, StatsRecorder};
use dift_taint::{BitTaint, TaintPolicy};
use dift_vm::StepEffects;
use dift_workloads::{science, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload.downcast::<String>().map(|s| *s).unwrap_or_default()
}

/// The resilience report's kernel: 2504 instructions.
fn workload() -> Workload {
    science::scatter_sum(256, 32).workload
}

fn capture(w: &Workload) -> Vec<StepEffects> {
    dift_dbi::capture(w.machine()).0
}

fn model(workers: usize, epoch_len: usize) -> EpochModel {
    EpochModel {
        chan: ChannelModel { enqueue_cycles: 2, helper_per_msg: 16, queue_depth: 128 },
        workers,
        epoch_len,
        fanout_cycles: 1,
        compose_per_epoch: 32,
    }
}

#[test]
fn fail_stop_stall_aborts_instead_of_hanging() {
    silence_injected_panics();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_epoch_dift_tolerant::<BitTaint, _, _>(
                workload().machine(),
                model(3, 128),
                TaintPolicy::propagate_only(),
                NoopRecorder,
                ScriptedFaults::single(FaultSite::QueueStall, 1, 1),
                RecoveryPolicy::fail_stop(),
            )
        }));
        let _ = tx.send(run.err().map(panic_message));
    });
    let outcome = rx.recv_timeout(Duration::from_secs(60)).expect("fail-stop run hung");
    let msg = outcome.expect("fail-stop must abort on a wedged shard");
    assert!(msg.contains("epoch shard 1 failed in epoch 1"), "got: {msg}");
}

#[test]
fn shard_epoch_nanos_get_one_sample_per_epoch() {
    let w = workload();
    let (run, obs) = run_epoch_dift_tolerant::<BitTaint, _, _>(
        w.machine(),
        model(2, 64),
        TaintPolicy::propagate_only(),
        StatsRecorder::new(),
        NoopFaults,
        RecoveryPolicy::fail_stop(),
    );
    assert_eq!(run.stats.epochs, 40);
    assert_eq!(obs.hist(Metric::McShardEpochNanos).count(), run.stats.epochs);

    let stream = capture(&w);
    let cfg = LineageShardConfig::new(2, 64, 16);
    let (run, obs) = shard_lineage_stream_obs(
        &stream,
        &w.program,
        w.mem_words,
        &cfg,
        NoopFaults,
        StatsRecorder::new(),
    );
    assert_eq!(run.stats.epochs, 40);
    assert_eq!(obs.hist(Metric::LsShardEpochNanos).count(), run.stats.epochs);
}

#[test]
fn fault_coordinates_are_deterministic() {
    // A fault at (site, e % workers, e) must hit epoch e on every run
    // and every runner, whichever worker thread claims the epoch.
    silence_injected_panics();
    let w = workload();
    let stream = capture(&w);
    let (workers, epoch_len) = (3, 128);
    let policy = TaintPolicy::propagate_only();
    let cfg = LineageShardConfig::new(workers, epoch_len, 16);
    for site in FaultSite::ALL {
        for e in 0..=workers {
            let plan = ScriptedFaults::single(site, e % workers, e);
            let (run, _) = run_epoch_dift_tolerant::<BitTaint, _, _>(
                w.machine(),
                model(workers, epoch_len),
                policy,
                NoopRecorder,
                plan.clone(),
                RecoveryPolicy::quick(),
            );
            let (_, stream_rs) = epoch_process_stream_tolerant::<BitTaint, _>(
                &stream,
                policy,
                w.mem_words,
                epoch_len,
                workers,
                plan.clone(),
            );
            let (lineage, _) = shard_lineage_stream_obs(
                &stream,
                &w.program,
                w.mem_words,
                &cfg,
                plan,
                NoopRecorder,
            );
            for (runner, rs) in [
                ("run_epoch_dift_tolerant", run.stats.recovery),
                ("epoch_process_stream_tolerant", stream_rs),
                ("shard_lineage_stream_obs", lineage.recovery),
            ] {
                let what = format!("{runner}: {site:?} at epoch {e}");
                assert_eq!(rs.faults_injected, 1, "{what}: {rs:?}");
                assert_eq!(rs.epochs_lost, 1, "{what}: {rs:?}");
                assert_eq!(rs.epochs_recovered, 1, "{what}: {rs:?}");
            }
        }
    }
}
