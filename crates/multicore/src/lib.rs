//! # dift-multicore — DIFT on a second core (INTERACT'08, §2.1)
//!
//! "We spawn a helper thread that is scheduled on a separate core and is
//! only responsible for performing information flow tracking operations.
//! This entails the communication of registers and flags between the main
//! and helper threads. We explore software (shared memory) and hardware
//! (dedicated interconnect) approaches…"
//!
//! This crate reproduces that design with **both** a real helper thread
//! (taint propagation actually runs on another core, via a crossbeam
//! channel) and a deterministic **timing model**: the main core charges an
//! enqueue cost per instruction and stalls when the bounded queue fills;
//! the helper core's clock advances per message. Reported overheads are
//! ratios of modeled cycles, so they are reproducible while the *work* is
//! genuinely parallel.
//!
//! The [`ChannelModel::software`] (shared-memory ring buffer: cache-miss
//! per enqueue, moderate depth) and [`ChannelModel::hardware`] (dedicated
//! core-to-core interconnect: cheap enqueue, deeper buffering) presets
//! bracket the paper's design space; the hardware variant lands at the
//! reported ≈48 % main-thread overhead, the software variant is markedly
//! worse — which is exactly the argument the paper makes for hardware
//! support.

pub mod channel;
mod engine;
pub mod epoch;
pub mod faultplan;
pub mod helper;
pub mod lineage_shard;
pub mod resilience;

pub use channel::{ChannelModel, MultiQueueSim, QueueSim};
pub use epoch::{
    epoch_process_stream, epoch_process_stream_tolerant, run_epoch_dift, run_epoch_dift_tolerant,
    EpochModel,
};
pub use faultplan::{
    silence_injected_panics, FaultPlan, FaultSite, Injection, NoopFaults, ScriptedFaults,
    INJECTED_PANIC_MARKER,
};
pub use helper::{run_helper_dift, run_inline_dift, DiftRun, MulticoreStats};
pub use lineage_shard::{
    shard_lineage_stream, shard_lineage_stream_obs, LineageShardConfig, LineageShardRun,
    LineageShardStats,
};
pub use resilience::{RecoveryPolicy, RecoveryStats};
