//! # dift-ddg — dynamic dependence graphs and the ONTRAC online tracer
//!
//! Reproduces §2.1 of the paper:
//!
//! * [`dep`] — dependence records ([`Dependence`], [`DepKind`]) and
//!   per-step metadata.
//! * [`shadow`] — the tracer's shadow state: last-writer timestamps for
//!   every register and memory word, plus the online dynamic
//!   control-dependence stack (the Xin–Zhang ISSTA'07 region-stack
//!   algorithm, reference \[11\] of the paper).
//! * [`buffer`] — ONTRAC's fixed-size in-memory **circular trace buffer**:
//!   dependences are appended with a compact delta encoding and the oldest
//!   records are evicted when the byte budget is exceeded, bounding the
//!   execution-history *window*.
//! * [`ontrac`] — the ONTRAC tool itself with the paper's five
//!   optimizations, each independently switchable for ablation:
//!   1. intra-basic-block static inference,
//!   2. hot-trace static inference,
//!   3. dynamic redundant-load elimination,
//!   4. selective function tracing (with sound dependence summarization
//!      through untraced code),
//!   5. forward-slice-of-inputs filtering.
//! * [`offline`] — the prior-work baseline (PLDI'04 pipeline): write the
//!   full address/control trace, then post-process into a compact DDG.
//!   Its charged cost reproduces the ~540× slowdown the paper contrasts
//!   against ONTRAC's ~19×.
//! * [`compact`] — the compact (post-processed) DDG representation with
//!   per-static-edge timestamp-pair runs.
//! * [`graph`] — an in-memory queryable DDG used by the slicing crate.
//! * [`epoch`] — epoch-sharded dependence derivation: per-shard
//!   [`SliceIndex`] fragments with local last-writer tables and pending
//!   cross-epoch dependences, composed in stream order into a whole-run
//!   index identical to the serial tracer's (DESIGN §17).
//! * [`index`] — the incrementally-maintained slice index: per-step
//!   adjacency plus an addr→steps map kept in lockstep with the buffer
//!   (fed on push, pruned on eviction), so backward/forward slices over
//!   the live window are demand-driven — O(|slice|), never a
//!   whole-window graph rebuild. Storage is chunked by step range
//!   behind `Arc`s, so snapshots for concurrent readers are O(1) with
//!   copy-on-write charged per *dirty* chunk.
//! * [`cold`] — the compressed cold tier: evicted records spill into
//!   append-only varint-gap-encoded segments, so the window budget is a
//!   cache size rather than a correctness limit — slices stitched by
//!   `dift-slicing` span the whole execution, not just the window.
//! * [`durable`] — crash-safe on-disk storage for sealed cold-tier
//!   segments: a versioned checksummed format written via temp-file +
//!   atomic rename, an open-time scrub that quarantines damage, and a
//!   four-rung recovery ladder that turns corruption into explicit
//!   `Degraded` query outcomes instead of wrong slices.
//! * [`iofault`] — deterministic I/O fault injection (torn writes, bit
//!   flips, short reads, fsync failures, disk-full) in the
//!   `multicore::faultplan` mold, proving the ladder rather than hoping.
//!
//! Cost calibration: instrumentation work is charged to the VM cycle
//! counter via explicit constants in [`costs`]; the *ratios* between the
//! online and offline pipelines are what the experiments reproduce.

pub mod buffer;
pub mod cold;
pub mod compact;
pub mod costs;
pub mod dep;
pub mod durable;
pub mod epoch;
pub mod graph;
pub mod index;
pub mod iofault;
pub mod offline;
pub mod ontrac;
pub mod shadow;

pub use buffer::CircularTraceBuffer;
pub use cold::{ColdStore, ColdView, QuarantineEvent, SegMeta};
pub use compact::CompactDdg;
pub use dep::{DepKind, Dependence, StepMeta};
pub use durable::{CorruptKind, IoStats, ScrubReport, SegmentStore};
pub use epoch::{
    control_entry_snapshots, summarize_dep_epoch, DepComposeStats, EpochDepComposer,
    EpochDepSummarizer, EpochDeps,
};
pub use graph::DdgGraph;
pub use index::{IndexData, SliceIndex, SliceSnapshot};
pub use iofault::{IoFaultPlan, IoFaultSite, IoInjection, NoopIoFaults, ScriptedIoFaults};
pub use offline::{OfflinePipeline, OfflineStats};
pub use ontrac::{OnTrac, OnTracConfig, OnTracStats};
pub use shadow::{ControlStack, ShadowState};
