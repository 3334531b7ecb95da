//! # dift-dbi — a Pin-style dynamic binary instrumentation framework
//!
//! The paper's systems (ONTRAC, the taint trackers, the lineage tracer)
//! are Pin/Valgrind tools. This crate reproduces the tool-writing model
//! over the `dift-vm` substrate:
//!
//! * [`Tool`] — the callback interface: instruction-level `before`/`after`
//!   hooks, basic-block entry hooks, and lifecycle hooks. `before` hooks
//!   may *mutate* the machine (registers, memory, PC) — that power is what
//!   predicate switching and fault avoidance are built on.
//! * [`Capture`] / [`capture`] — the one tool that records a run's
//!   effects stream for the analyses that consume it after the fact.
//! * [`Engine`] — drives a [`Machine`](dift_vm::Machine) while dispatching
//!   to any number of tools, discovering basic-block boundaries on the
//!   fly exactly as a JIT-based DBI discovers code.
//! * [`trace::TraceBuilder`] — hot-trace formation (NET-style: when a
//!   block becomes hot, the following block sequence is recorded as a
//!   trace), which ONTRAC uses to extend static dependence inference
//!   across block boundaries. Like the engine's dispatch flags, its
//!   tables are arrays indexed by code address.
//!
//! The engine instruments every instruction. ONTRAC's selective
//! tracing ("trace only where the programmer expects the bug") is the
//! tracer's own filter (`OnTracConfig::selective_funcs` in `dift-ddg`),
//! which still sees every step so it can summarize dependences through
//! unselected code.
//!
//! Instrumentation *cost* is explicit: a tool charges cycles to the
//! machine via [`dift_vm::Machine::charge`], and every slowdown factor in
//! the experiment suite is a ratio of charged to uncharged cycle counts.

pub mod engine;
pub mod profile;
pub mod tool;
pub mod trace;

pub use engine::Engine;
pub use profile::{InsnClass, ProfileTool};
pub use tool::{capture, Capture, CountingTool, NullTool, Tool};
pub use trace::TraceBuilder;
