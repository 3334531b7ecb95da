//! Taint-boundary sentinel: declarative policies over lineage, a
//! replayable attack-scenario corpus, and scored detection quality.
//!
//! The PC-taint detector (crate `dift-taint`) answers *"is a tainted
//! value reaching a dangerous use, and which instruction last wrote
//! it?"* — a fixed, hard-coded boundary. This crate generalizes that
//! into a policy layer:
//!
//! * [`policy`] — the declarative [`TaintBoundary`] language: named
//!   source classes over input channels, sink classes (the three
//!   PC-taint alert kinds plus lineage-only sinks: stored values and
//!   output emissions), lineage predicates ("derived from ≥2 distinct
//!   channels"), and allow/deny/contain verdicts with first-match-wins
//!   evaluation.
//! * [`eval`] — the evaluator. A [`SinkObserver`] (roBDD lineage pass)
//!   captures per-value input sets at sink sites; [`combine_events`]
//!   joins them with the PC-taint engine's alerts and output labels;
//!   [`apply_policy`] yields structured [`SentinelAlert`]s carrying the
//!   rule id, root-cause PC, offending lineage set, and — for `Contain`
//!   verdicts — a stable [`ContainmentReceipt`]. The [`Sentinel`] tool
//!   runs the whole pipeline online.
//! * [`mod@corpus`] — fourteen scenarios in seven attack/benign-near-miss
//!   pairs (the five `dift-attack` vulnerabilities, a mixed-source
//!   write, and cross-tenant exfiltration on the kv server).
//! * [`runner`] — records each scenario, replays it twice under the
//!   sentinel (byte-diffing the outcomes) and once under plain PC-taint
//!   (overhead baseline), and scores recall / precision /
//!   root-cause-hit / replay-determinism / overhead.

pub mod corpus;
pub mod eval;
pub mod policy;
pub mod runner;

pub use corpus::{corpus, untrusted_input_boundary, CorpusConfig, Scenario};
pub use eval::{
    apply_policy, combine_events, ContainmentReceipt, Sentinel, SentinelAlert, SentinelOutcome,
    SinkEvent, SinkLog, SinkObserver,
};
pub use policy::{
    BoundaryPolicy, LineagePredicate, SinkClass, SourceClass, SourceSpec, TaintBoundary, Verdict,
};
pub use runner::{run_corpus, run_scenario, CorpusOutcome, ScenarioOutcome};
