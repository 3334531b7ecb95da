//! # dift-taint — dynamic information flow tracking engines
//!
//! The core DIFT machinery of the paper, generalized over a *label
//! lattice* so one engine serves all three of the paper's instantiations:
//!
//! * [`BitTaint`] — classic boolean taint (§3.3's baseline): a value is
//!   tainted iff any of its sources was.
//! * [`PcTaint`] — the paper's bug-location extension: instead of a
//!   boolean, a tainted location carries **the PC of the most recent
//!   instruction that wrote it**, so an attack alert directly names a
//!   candidate root-cause statement.
//! * lineage sets (`dift-lineage`) — labels are *sets of input
//!   identifiers*, the generalized DIFT of §3.4.
//!
//! The engine ([`TaintEngine`]) is a DBI tool: sources are `In`
//! instructions, propagation follows data uses (optionally address uses —
//! pointer taint — and control, per [`TaintPolicy`]), and the attack
//! detector raises an [`TaintAlert`] whenever tainted data is used as a
//! store/load address or an indirect jump/call target — the "input
//! validation error" policy motivated by the 72 %-of-CVEs observation.

pub mod engine;
pub mod label;
pub mod policy;
pub mod reference;
pub mod shadow;
pub mod summary;
pub mod summary_cache;

pub use engine::{AlertKind, IoBase, TaintAlert, TaintEngine, TaintStats};
pub use label::{BitTaint, LabelCtx, PcTaint, TaintLabel};
pub use policy::TaintPolicy;
pub use reference::ReferenceTaintEngine;
pub use shadow::ShadowMap;
pub use summary::{process_by_epochs, summarize_epoch, EpochSummary, Loc};
pub use summary_cache::{SummaryCacheStats, SummaryCachedEngine};

/// Cycle charges for the software (same-core) DIFT engine. Calibrated so
/// inline software DIFT lands at a few-× slowdown, the regime from which
/// the multicore offload (E3) wins its 48 %.
pub mod costs {
    /// Per-instruction shadow bookkeeping.
    pub const TAINT_PER_INSN: u64 = 6;
    /// Extra per memory-shadow access.
    pub const TAINT_PER_MEM: u64 = 2;
}
