//! # dift-obs — low-overhead observability for the DIFT engines
//!
//! The paper justifies every mechanism with a measured overhead number
//! (19× ONTRAC slowdown, 0.8 B/instr trace density, 48 % helper-core
//! overhead), so the reproduction needs a uniform way to see where
//! cycles and bytes go *inside* the engines — without perturbing the
//! hot paths those numbers come from.
//!
//! The design is the classic zero-cost-abstraction shape:
//!
//! * Every probe site is named by a [`Metric`] — a flat enum whose
//!   [`Metric::path`] gives it a stable hierarchical name like
//!   `taint/engine/clean_fast_path`. The enum is the schema: adding a
//!   probe means adding a variant, and every recorder sizes its storage
//!   from [`Metric::COUNT`] at compile time.
//! * Instrumented types are generic over a [`Recorder`] with a
//!   `const ENABLED: bool`. Probe sites guard on `R::ENABLED`, so with
//!   the default [`NoopRecorder`] the branch folds to `if false` and
//!   monomorphization deletes the probe entirely — the machine code is
//!   identical to an unprobed build (the criterion A/B in
//!   `crates/bench/benches/obs.rs` checks the residual is < 2 %).
//! * [`StatsRecorder`] is the real collector: fixed-size counter and
//!   gauge arrays plus log2-bucketed [`Histogram`]s, all inline — no
//!   allocation ever, on or off the hot path. Code that should cost
//!   nothing takes the default [`NoopRecorder`] instead.
//!
//! Snapshots serialize through [`snapshot::section_value`] into the
//! stable `BENCH_obs.json` schema (see `DESIGN.md` §10); the schema is
//! versioned by [`SCHEMA_VERSION`].

mod hist;
mod recorder;
pub mod snapshot;

pub use hist::{Histogram, HIST_BUCKETS};
pub use recorder::{NoopRecorder, Recorder, StatsRecorder};

/// Version stamp of the `BENCH_obs.json` schema. Bump when a metric is
/// renamed or its meaning changes; additions are backward-compatible.
pub const SCHEMA_VERSION: u32 = 2;

/// What a metric's storage and serialization look like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic accumulator (`add`).
    Counter,
    /// Last-write-wins sampled value (`gauge`).
    Gauge,
    /// Log2-bucketed distribution (`observe` / `timed`).
    Histogram,
}

macro_rules! metrics {
    ($( $variant:ident => ($path:literal, $kind:ident) ),+ $(,)?) => {
        /// Every probe the workspace exposes. The variant order is the
        /// storage layout of [`StatsRecorder`]; `path()` is the stable
        /// name the JSON schema uses.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u16)]
        pub enum Metric {
            $($variant),+
        }

        impl Metric {
            /// Number of metrics (sizes recorder storage).
            pub const COUNT: usize = [$(Metric::$variant),+].len();

            /// All metrics, in storage order.
            pub const ALL: [Metric; Metric::COUNT] = [$(Metric::$variant),+];

            /// Stable hierarchical name, `/`-separated.
            pub const fn path(self) -> &'static str {
                match self {
                    $(Metric::$variant => $path),+
                }
            }

            /// Storage/serialization class.
            pub const fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind),+
                }
            }
        }
    };
}

metrics! {
    // taint::engine — the T1 hot path.
    TaintProcessCalls   => ("taint/engine/process_calls", Counter),
    TaintCleanFastPath  => ("taint/engine/clean_fast_path", Counter),
    TaintTaintedSteps   => ("taint/engine/tainted_steps", Counter),
    TaintSources        => ("taint/engine/sources", Counter),
    TaintAlerts         => ("taint/engine/alerts", Counter),
    TaintJoinWidth      => ("taint/engine/join_width", Histogram),
    // taint::shadow — paged shadow memory (cumulative ShadowMap hooks).
    TaintPageAllocs     => ("taint/shadow/page_allocs", Gauge),
    TaintPageFrees      => ("taint/shadow/page_frees", Gauge),
    TaintLivePages      => ("taint/shadow/live_pages", Gauge),
    TaintTaintedWords   => ("taint/shadow/tainted_words", Gauge),
    TaintShadowBytes    => ("taint/shadow/shadow_bytes", Gauge),
    // ddg::ontrac / ddg::buffer — trace density and the window.
    DdgDepsConsidered   => ("ddg/ontrac/deps_considered", Counter),
    DdgDepsRecorded     => ("ddg/ontrac/deps_recorded", Counter),
    DdgBytesStored      => ("ddg/buffer/bytes_stored", Counter),
    DdgEvictions        => ("ddg/buffer/evictions", Counter),
    DdgReanchors        => ("ddg/buffer/reanchors", Counter),
    DdgRecordBytes      => ("ddg/buffer/record_bytes", Histogram),
    DdgWindowLen        => ("ddg/buffer/window_len", Gauge),
    DdgResidentBytes    => ("ddg/buffer/resident_bytes", Gauge),
    // ddg::index — the incremental slice index over the live window.
    DdgIndexEdges       => ("ddg/index/edges", Gauge),
    DdgIndexBytes       => ("ddg/index/resident_bytes", Gauge),
    DdgIndexChunks      => ("ddg/index/chunks", Gauge),
    DdgIndexChunkCopies => ("ddg/index/chunk_copies", Gauge),
    DdgIndexSpineCopies => ("ddg/index/spine_copies", Gauge),
    // ddg::cold — the compressed cold tier of evicted records.
    DdgColdSegments     => ("ddg/cold/segments", Gauge),
    DdgColdBytes        => ("ddg/cold/bytes", Gauge),
    DdgColdRecords      => ("ddg/cold/records", Gauge),
    DdgColdMemoHits     => ("ddg/cold/memo_hits", Gauge),
    DdgColdMemoEvictions => ("ddg/cold/memo_evictions", Gauge),
    DdgColdCorrupt      => ("ddg/cold/corrupt_segments", Counter),
    // ddg::durable — crash-safe on-disk segment storage.
    DdgDurableSpills    => ("ddg/durable/spilled_segments", Gauge),
    DdgDurableDiskBytes => ("ddg/durable/disk_bytes", Gauge),
    DdgDurableRetries   => ("ddg/durable/io_retries", Gauge),
    DdgDurableEnospc    => ("ddg/durable/enospc_fallbacks", Gauge),
    DdgDurableQuarantined => ("ddg/durable/quarantined_segments", Gauge),
    // slicing::service — demand-driven slice queries.
    SlQueries           => ("slicing/service/queries", Counter),
    SlBatches           => ("slicing/service/batches", Counter),
    SlSliceSteps        => ("slicing/service/slice_steps", Histogram),
    SlSnapshotNanos     => ("slicing/service/snapshot_nanos", Histogram),
    SlSnapshotReuse     => ("slicing/service/snapshot_reuse", Counter),
    SlChunkCopies       => ("slicing/service/chunk_copies", Gauge),
    SlColdQueries       => ("slicing/service/cold_queries", Counter),
    SlDegraded          => ("slicing/service/degraded_queries", Counter),
    // multicore::epoch / multicore::channel — the fan-out.
    McMessages          => ("multicore/channel/messages", Counter),
    McStallCycles       => ("multicore/channel/stall_cycles", Counter),
    McQueueDepth        => ("multicore/channel/queue_depth", Histogram),
    McEpochs            => ("multicore/epoch/epochs", Counter),
    McShardEpochNanos   => ("multicore/epoch/shard_epoch_nanos", Histogram),
    McComposeNanos      => ("multicore/epoch/compose_nanos", Counter),
    // multicore::resilience — fault injection and recovery.
    McFaultsInjected    => ("multicore/resilience/faults_injected", Counter),
    McEpochsLost        => ("multicore/resilience/epochs_lost", Counter),
    McEpochsRecovered   => ("multicore/resilience/epochs_recovered", Counter),
    McRecoveryRetries   => ("multicore/resilience/retries", Counter),
    McDegradedEpochs    => ("multicore/resilience/degraded_epochs", Counter),
    McShardsLost        => ("multicore/resilience/shards_lost", Counter),
    McRecoveryNanos     => ("multicore/resilience/recovery_nanos", Histogram),
    // dbi::profile — workload characterization.
    DbiInstrs           => ("dbi/profile/instrs", Counter),
    DbiBlockEntries     => ("dbi/profile/block_entries", Counter),
    DbiDistinctBlocks   => ("dbi/profile/distinct_blocks", Counter),
    DbiBranches         => ("dbi/profile/branches", Counter),
    DbiTakenBranches    => ("dbi/profile/taken_branches", Counter),
    // taint::summary_cache — hot-region summary cache effectiveness.
    TaintScHits             => ("taint/summary_cache/hits", Counter),
    TaintScMisses           => ("taint/summary_cache/misses", Counter),
    TaintScGuardBails       => ("taint/summary_cache/guard_bails", Counter),
    TaintScRegions          => ("taint/summary_cache/regions", Counter),
    TaintScInstrsSummarized => ("taint/summary_cache/instrs_summarized", Counter),
    TaintScBytesSaved       => ("taint/summary_cache/bytes_saved", Counter),
    // multicore::lineage_shard — sharded lineage + slice-index fan-out.
    LsEpochs            => ("multicore/lineage_shard/epochs", Counter),
    LsEpochsRecovered   => ("multicore/lineage_shard/epochs_recovered", Counter),
    LsArenaNodes        => ("multicore/lineage_shard/arena_nodes", Counter),
    LsCrossEpochDeps    => ("multicore/lineage_shard/cross_epoch_deps", Counter),
    LsComposeNanos      => ("multicore/lineage_shard/compose_nanos", Counter),
    LsIndexNanos        => ("multicore/lineage_shard/index_nanos", Counter),
    LsShardEpochNanos   => ("multicore/lineage_shard/shard_epoch_nanos", Histogram),
    // sentinel::eval — taint-boundary policy evaluation at sink sites.
    SentinelSinkEvents      => ("sentinel/eval/sink_events", Counter),
    SentinelAlerts          => ("sentinel/eval/alerts", Counter),
    SentinelReceipts        => ("sentinel/eval/receipts", Counter),
    SentinelAllowed         => ("sentinel/eval/allowed", Counter),
    SentinelLineageWidth    => ("sentinel/eval/lineage_width", Histogram),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_unique_and_hierarchical() {
        let mut seen = std::collections::HashSet::new();
        for m in Metric::ALL {
            let p = m.path();
            assert!(seen.insert(p), "duplicate metric path {p}");
            assert_eq!(p.split('/').count(), 3, "{p}: paths are crate/module/name");
            assert!(p.chars().all(|c| c.is_ascii_lowercase() || c == '/' || c == '_'));
        }
    }

    #[test]
    fn all_matches_count() {
        assert_eq!(Metric::ALL.len(), Metric::COUNT);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "storage order must match discriminant order");
        }
    }
}
