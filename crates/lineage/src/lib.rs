//! # dift-lineage — data lineage tracing (§3.4, VLDB'07)
//!
//! DIFT generalized from a bit to a **set of input identifiers** per
//! value: the lineage of each output names exactly the inputs that
//! contributed to it through dependences — what scientific data
//! validation needs when computation happens outside the DBMS.
//!
//! The challenge is cost: a set per live value, set unions per executed
//! instruction. The paper's observation is that lineage sets *overlap*
//! (neighbouring values share contributors) and *cluster* (contributors
//! are contiguous in the input stream), which an roBDD representation
//! exploits. This crate provides:
//!
//! * [`LineageBackend`] — the set-representation abstraction;
//! * [`BddBackend`] — roBDD sets (`dift-robdd`), hash-consed and shared;
//! * [`NaiveBackend`] — one materialized `BTreeSet` per shadow location
//!   (the baseline whose memory explodes);
//! * [`LineageEngine`] — the DBI tool performing set-valued propagation,
//!   with cycle charges per instruction and per set operation, and
//!   shadow-memory accounting for the E7 table;
//! * [`shard`] — per-epoch symbolic lineage summaries over private
//!   roBDD arenas, composed onto a primary engine by a canonicity-
//!   preserving hash-cons merge (the epoch-parallel path).

pub mod backend;
pub mod engine;
pub mod shard;

pub use backend::{BddBackend, LineageBackend, NaiveBackend};
pub use engine::{LineageEngine, LineageStats};
pub use shard::{summarize_lineage_epoch, LineageEpochSummary};

/// Cycle charges for lineage tracing.
pub mod costs {
    /// Per-instruction dispatch + shadow bookkeeping.
    pub const LINEAGE_PER_INSN: u64 = 10;
    /// One roBDD union (amortized: hash-cons and apply-cache hits
    /// dominate, independent of set size).
    pub const BDD_UNION: u64 = 18;
    /// Naive set union: per element copied (tree-node allocation and
    /// insertion).
    pub const NAIVE_PER_ELEM: u64 = 6;
    /// Naive union base cost.
    pub const NAIVE_UNION_BASE: u64 = 10;
}
