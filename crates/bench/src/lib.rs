//! # dift-bench — the experiment harness
//!
//! One function per experiment (E1–E10 from `DESIGN.md`, their
//! ablations, and the T-series measurements), each producing a
//! [`Table`] that the `report` binary prints and `EXPERIMENTS.md`
//! records. [`EXPERIMENTS`] lists them all: the `report` binary, its
//! CLI tests and the CI bench gate are driven from that one table. The
//! same functions back the scaled-down shape tests, so CI catches
//! regressions in *who wins and by roughly how much* — the paper's
//! reproducible content.
//!
//! Scale: every experiment takes a [`Scale`]; `Scale::Test` keeps CI
//! fast, `Scale::Paper` is what `report` uses.

pub mod ablations;
pub mod apps_exps;
pub mod compare;
pub mod durability_exp;
pub mod history_exp;
pub mod lineage_shard_exp;
pub mod obs_report;
pub mod registry;
pub mod resilience;
pub mod scaling;
pub mod sentinel_exp;
pub mod slicing_exp;
pub mod summaries_exp;
pub mod table;
pub mod throughput;
pub mod tracing_exps;

pub use compare::{compare, render, Thresholds};
pub use registry::{Experiment, Run, EXPERIMENTS};
pub use table::Table;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: small workloads.
    Test,
    /// The scale the committed EXPERIMENTS.md numbers use.
    Paper,
}

impl Scale {
    pub fn spec_size(self) -> dift_workloads::spec::Size {
        match self {
            Scale::Test => dift_workloads::spec::Size::Tiny,
            Scale::Paper => dift_workloads::spec::Size::Small,
        }
    }
}

/// Serializes wall-clock-sensitive tests against each other: `cargo
/// test` runs tests on parallel threads, and a timing measurement racing
/// a test that spawns its own worker threads reads garbage on small
/// hosts. Lock it in any `#[test]` that asserts on measured throughput.
#[cfg(test)]
pub(crate) static TIMING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Format a factor like `19.3x`.
pub(crate) fn fx(v: f64) -> String {
    format!("{v:.1}x")
}

/// Format a percentage like `48%`.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// Format a throughput in instrs/sec like `12.3M/s`.
pub(crate) fn mps(v: f64) -> String {
    format!("{:.1}M/s", v / 1e6)
}

/// Geometric mean. Values at or below zero are clamped to `1e-12`, so
/// the result stays finite and positive (a negative input would make it
/// NaN). An empty input has no mean and reads 0.0: "nothing measured"
/// must fail a higher-is-better gate rather than pass as a neutral 1.0.
pub(crate) fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = vals.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v.max(1e-12).ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_nothing_is_zero() {
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn geomean_clamps_zeros_and_stays_finite() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        let g = geomean([0.0, 4.0]);
        assert!(g.is_finite() && g > 0.0 && g < 1e-5, "{g}");
        let g = geomean([-1.0, 4.0]);
        assert!(g.is_finite() && g > 0.0, "a negative input must not yield NaN: {g}");
    }
}
