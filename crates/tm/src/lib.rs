//! # dift-tm — transactional monitoring with sync-aware conflict resolution
//!
//! Reproduces §2.2 "Application executing on Multicores": when a DBT tool
//! monitors a *parallel* application, each application access and its
//! metadata update must be applied atomically, or racy metadata corrupts
//! the analysis. Transactional memory provides that atomicity — but
//! synchronization idioms inside transactions (flag spins, locks,
//! barriers) cause **livelocks** under naive conflict resolution: a
//! spinning reader keeps aborting the writer that would let it exit the
//! spin.
//!
//! The crate models the monitoring layer faithfully over the serialized
//! VM execution:
//!
//! * [`stm`] — an eager-ownership word-granularity STM: every dynamic
//!   basic block runs as a transaction owning the (data + metadata) words
//!   it touches; conflicting requests are resolved by a
//!   [`ConflictPolicy`]. Repeated aborts of the same transaction are a
//!   livelock event.
//! * [`sync`] — the paper's contribution: **dynamic recognition of
//!   synchronization operations** (spin-reads, CAS lock acquires, barrier
//!   counters) from the instruction stream. The sync-aware policy feeds
//!   this into conflict resolution: spinning readers yield to writers on
//!   sync variables instead of aborting them, so livelocks disappear and
//!   wasted retry work drops (the SPLASH result).

pub mod stm;
pub mod sync;

pub use stm::{ConflictPolicy, TmMonitor, TmStats};
pub use sync::{SyncDetector, SyncKind};

/// Cycle charges for the TM monitoring layer.
pub mod costs {
    /// Per monitored instruction (versioning + ownership checks).
    pub const TM_PER_INSN: u64 = 7;
    /// Per aborted transaction: redo cost per instruction of the aborted
    /// transaction.
    pub const TM_RETRY_PER_INSN: u64 = 9;
    /// A spinning reader yielding to a writer (sync-aware): nearly free —
    /// it re-executes a two-instruction spin body it was going to
    /// re-execute anyway.
    pub const TM_SPIN_YIELD: u64 = 2;
    /// Modeled cost of one livelock episode under the naive policy
    /// (bounded in the simulation; unbounded in reality — the paper's
    /// point).
    pub const TM_LIVELOCK_PENALTY: u64 = 25_000;
}
