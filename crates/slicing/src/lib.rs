//! # dift-slicing — dynamic slicing over dependence graphs
//!
//! Reproduces the fault-location side of §3.1:
//!
//! * [`slicer`] — backward and forward dynamic slices as transitive
//!   closures over a [`DdgGraph`](dift_ddg::DdgGraph), with a kind mask
//!   (classic data+control, or extended with WAR/WAW for multithreaded
//!   slicing).
//! * [`relevant`] — *relevant slicing*: augments the dynamic slice with
//!   conservative **potential dependences** from statically-skipped code
//!   regions. Catches execution-omission errors but, as the paper notes,
//!   produces "overly large slices" — E8 quantifies that.
//! * [`implicit`] — the paper's fully dynamic alternative (PLDI'07):
//!   **predicate switching** forcibly flips one dynamic branch instance
//!   and observes whether the failing value changes; a change verifies an
//!   *implicit dependence*, which is added to the graph so ordinary
//!   backward slicing captures the execution-omission root cause. The
//!   demand-driven search verifies near-failure predicates first so few
//!   verifications are needed.
//! * [`prune`] — confidence-based pruning (PLDI'06): statements whose
//!   values also reach *correct* outputs get high confidence and are
//!   pruned from the fault-candidate set.
//! * [`mod@chop`] — failure-inducing chops (ASE'05): the intersection of the
//!   forward slice of suspicious inputs with the backward slice of the
//!   failure.
//! * [`service`] — demand-driven slice queries over the **live** ONTRAC
//!   window: a [`SliceQuery`] names one request, and [`SliceService`]
//!   answers it from an immutable snapshot of the tracer's
//!   incrementally-maintained [`SliceIndex`](dift_ddg::SliceIndex),
//!   walking only the edges a slice visits instead of rebuilding a
//!   whole-window graph per query. [`SliceService::query`] answers over
//!   the live window, [`SliceService::batch`] answers many over one
//!   snapshot, and, with the tracer's cold tier on,
//!   [`SliceService::query_stitched`] chains the live snapshot with the
//!   compressed store of evicted records so a query spans the whole
//!   execution and always reports whether quarantined history limited
//!   it ([`StitchedOutcome`]).

pub mod chop;
pub mod implicit;
pub mod prune;
pub mod relevant;
pub mod service;
pub mod slicer;

pub use chop::{chop, chop_from_inputs};
pub use implicit::{locate_omission_error, switch_predicate, OmissionReport, SwitchOutcome};
pub use prune::{prune_with_confidence, ConfidenceReport};
pub use relevant::{potential_dependences, relevant_slice, PotentialDep};
pub use service::{
    backward_from_addr_over, backward_from_addr_stitched_checked, backward_over,
    backward_stitched_checked, batch_via_rebuild, forward_over, forward_stitched_checked,
    DepSource, SliceQuery, SliceService, StitchedOutcome,
};
pub use slicer::{KindMask, Slice, Slicer};
