//! Sharded lineage tracing (and optional slice-index derivation) on the
//! epoch-parallel pipeline.
//!
//! [`epoch_process_stream`](crate::epoch::epoch_process_stream) fans
//! *taint* propagation out by epoch; this module does the same for the
//! two remaining serial analyses (DESIGN §17):
//!
//! * **Lineage** — each epoch is summarized into a
//!   [`LineageEpochSummary`]: set-valued effects over a private roBDD
//!   arena, with reads of pre-epoch state left symbolic. Composition
//!   absorbs each arena into the primary [`BddManager`] via the
//!   canonicity-preserving hash-cons merge and resolves the symbolic
//!   reads, reproducing the serial [`LineageEngine`] bit for bit.
//! * **Slicing** — paired with the lineage summary, each epoch's
//!   dependences are derived into a fragment ([`dift_ddg::epoch`]): the
//!   epoch's in-epoch records in stream order plus the cross-epoch
//!   reads left pending. Composition replays each fragment's records
//!   into one whole-run `SliceIndex` and resolves its pendings, so
//!   `dift-slicing`'s `SliceService` can answer queries against a
//!   sharded run. The shards derive; only the composer indexes.
//!
//! Both run on the crate's epoch engine (`engine.rs`), the same worker
//! pool and recovery ladder as the taint runners: summaries are pure
//! functions of their epoch's records plus label-independent pre-scans,
//! so any epoch lost to an injected [`FaultSite`](crate::FaultSite) is
//! recomputed and the result is still bit-identical to serial
//! processing.
//!
//! [`BddManager`]: dift_robdd::BddManager

use crate::engine::{EpochAnalysis, Ladder};
use crate::faultplan::{FaultPlan, NoopFaults};
use crate::resilience::{RecoveryPolicy, RecoveryStats};
use dift_ddg::epoch::{control_entry_snapshots, summarize_dep_epoch, EpochDeps};
use dift_ddg::{ControlStack, SliceIndex};
use dift_isa::Program;
use dift_lineage::{summarize_lineage_epoch, BddBackend, LineageEngine, LineageEpochSummary};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_taint::IoBase;
use dift_vm::StepEffects;
use std::time::Instant;

/// Configuration of the sharded lineage/slicing run.
#[derive(Clone, Debug)]
pub struct LineageShardConfig {
    /// Shard threads the stream fans out across.
    pub workers: usize,
    /// Instructions per epoch.
    pub epoch_len: usize,
    /// Bit width of the roBDD input-identifier universe.
    pub id_bits: u32,
    /// Also derive per-epoch `SliceIndex` fragments and merge them.
    pub slice: bool,
}

impl LineageShardConfig {
    pub fn new(workers: usize, epoch_len: usize, id_bits: u32) -> LineageShardConfig {
        LineageShardConfig { workers, epoch_len, id_bits, slice: false }
    }
}

/// Wall-clock and merge-cost accounting for one sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineageShardStats {
    pub epochs: u64,
    pub workers: usize,
    /// Total shard-side summarize time — the serial-equivalent work.
    pub shard_nanos_total: u64,
    /// Busiest worker's summarize time — the parallel critical path.
    pub max_worker_nanos: u64,
    /// Sequential composition time (arena merges, symbolic resolution,
    /// fragment replay into the index).
    pub compose_nanos: u64,
    /// The part of `compose_nanos` spent appending dependence fragments
    /// to the merged index (`EpochDepComposer::absorb`); 0 without
    /// `slice`.
    pub index_nanos: u64,
    /// roBDD nodes built in shard arenas (upper bound on merge traffic).
    pub arena_nodes: u64,
    /// Dependences whose def lay in an earlier epoch (resolved at
    /// composition).
    pub cross_epoch_deps: u64,
    /// Pending reads of never-written locations (no dependence exists).
    pub unresolved_pendings: u64,
}

impl LineageShardStats {
    /// Modeled shard speedup: serial-equivalent shard work over the
    /// parallel critical path (busiest worker + sequential compose).
    /// Wall-clock on a single-core host cannot show this; the model is
    /// exact in the sense that both numerator and denominator are
    /// measured, only their overlap is assumed.
    pub fn modeled_speedup(&self) -> f64 {
        let path = self.max_worker_nanos + self.compose_nanos;
        if path == 0 {
            1.0
        } else {
            (self.shard_nanos_total + self.compose_nanos) as f64 / path as f64
        }
    }
}

/// The result of a sharded run: a primary engine (and optional merged
/// index) bit-identical to serial processing, plus accounting.
pub struct LineageShardRun {
    pub engine: LineageEngine<BddBackend>,
    /// The merged whole-run slice index (`slice` only).
    pub index: Option<SliceIndex>,
    pub stats: LineageShardStats,
    pub recovery: RecoveryStats,
}

/// [`shard_lineage_stream_obs`] with no recorder and no faults.
pub fn shard_lineage_stream(
    stream: &[StepEffects],
    program: &Program,
    mem_words: usize,
    cfg: &LineageShardConfig,
) -> LineageShardRun {
    shard_lineage_stream_obs(stream, program, mem_words, cfg, NoopFaults, NoopRecorder).0
}

/// roBDD lineage as an epoch analysis.
struct LineageEpochs {
    id_bits: u32,
}

impl EpochAnalysis for LineageEpochs {
    type Summary = LineageEpochSummary;

    fn summarize(&self, _epoch: usize, records: &[StepEffects], base: &IoBase) -> Self::Summary {
        summarize_lineage_epoch(records, self.id_bits, base)
    }

    fn instrs(summary: &Self::Summary) -> u64 {
        summary.instrs()
    }
}

/// `ddg::epoch` dependence fragments as an epoch analysis, grounded by
/// the control-stack pre-scan (the stack at every epoch entry).
struct DepEpochs {
    snaps: Vec<ControlStack>,
    mem_words: usize,
}

impl EpochAnalysis for DepEpochs {
    type Summary = EpochDeps;

    fn summarize(&self, epoch: usize, records: &[StepEffects], _base: &IoBase) -> EpochDeps {
        let start = records.first().map_or(0, |fx| fx.step);
        summarize_dep_epoch(records, self.snaps[epoch].clone(), start, self.mem_words)
    }

    fn instrs(summary: &EpochDeps) -> u64 {
        summary.instrs()
    }
}

/// Epoch-parallel lineage (and optional slicing) over a pre-captured
/// effects stream, under a [`FaultPlan`] adversary, with `dift-obs`
/// probes. Runs the epoch engine under [`RecoveryPolicy::tolerant`], so
/// whatever the plan injects the result is bit-identical to serial.
pub fn shard_lineage_stream_obs<F: FaultPlan, R: Recorder + Send>(
    stream: &[StepEffects],
    program: &Program,
    mem_words: usize,
    cfg: &LineageShardConfig,
    faults: F,
    mut obs: R,
) -> (LineageShardRun, R) {
    assert!(cfg.epoch_len >= 1, "epochs must be non-empty");
    let lineage = LineageEpochs { id_bits: cfg.id_bits };
    let tolerant = RecoveryPolicy::tolerant();
    let (len, workers, nanos) = (cfg.epoch_len, cfg.workers, Metric::LsShardEpochNanos);
    let (summaries, worker_nanos, recovery) = if cfg.slice {
        let chunks: Vec<&[StepEffects]> = stream.chunks(len).collect();
        let deps = DepEpochs { snaps: control_entry_snapshots(program, &chunks), mem_words };
        let mut ladder = Ladder::new((lineage, deps), faults, tolerant, workers, len, nanos);
        let sums = ladder.run(stream, &mut obs).into_iter().map(|(s, d)| (s, Some(d))).collect();
        (sums, std::mem::take(&mut ladder.worker_nanos), ladder.finish(&mut obs))
    } else {
        let mut ladder = Ladder::new(lineage, faults, tolerant, workers, len, nanos);
        let sums: Vec<_> = ladder.run(stream, &mut obs).into_iter().map(|s| (s, None)).collect();
        (sums, std::mem::take(&mut ladder.worker_nanos), ladder.finish(&mut obs))
    };
    let mut stats = LineageShardStats {
        epochs: summaries.len() as u64,
        workers,
        shard_nanos_total: worker_nanos.iter().sum(),
        max_worker_nanos: worker_nanos.iter().copied().max().unwrap_or(0),
        ..LineageShardStats::default()
    };
    if R::ENABLED {
        obs.add(Metric::LsEpochs, stats.epochs);
    }

    // Composition, in epoch order.
    let mut engine = LineageEngine::new(BddBackend::new(cfg.id_bits));
    let mut composer = cfg.slice.then(dift_ddg::EpochDepComposer::new);
    let t0 = Instant::now();
    for (sum, deps) in summaries {
        stats.arena_nodes += sum.arena_nodes() as u64;
        sum.apply(&mut engine);
        if let (Some(c), Some(d)) = (composer.as_mut(), deps) {
            let t = Instant::now();
            c.absorb(d);
            stats.index_nanos += t.elapsed().as_nanos() as u64;
        }
    }
    stats.compose_nanos = t0.elapsed().as_nanos() as u64;
    if let Some(c) = &composer {
        let cs = c.stats();
        stats.cross_epoch_deps = cs.cross_epoch_records;
        stats.unresolved_pendings = cs.unresolved_pendings;
    }
    if R::ENABLED {
        obs.add(Metric::LsComposeNanos, stats.compose_nanos);
        obs.add(Metric::LsIndexNanos, stats.index_nanos);
        obs.add(Metric::LsArenaNodes, stats.arena_nodes);
        obs.add(Metric::LsCrossEpochDeps, stats.cross_epoch_deps);
        obs.add(Metric::LsEpochsRecovered, recovery.epochs_recovered);
    }

    let index = composer.map(|c| c.into_index());
    (LineageShardRun { engine, index, stats, recovery }, obs)
}
