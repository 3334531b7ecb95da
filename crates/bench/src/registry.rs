//! The experiment registry: one entry per `report` selection.
//!
//! `report` derives everything about a selection from its entry here:
//! validation of the command line, the `--help` listing, the run order,
//! the `ablations` and `all` aliases, and which files it writes. Adding
//! an experiment means adding one entry; CI's bench gate picks up any
//! artifact that also gets a baseline under `ci/baselines/`.

use crate::ablations::{
    e2a_optimization_ablation, e2b_selective, e3a_channel_sweep, e5a_spin_length, e7a_overlap_sweep,
};
use crate::apps_exps::{
    e10_races, e5_tm, e6_attacks, e7_lineage, e8_omission, e9_value_replacement,
};
use crate::durability_exp::{durability_report, durability_to_table};
use crate::history_exp::{history_report, history_to_table};
use crate::lineage_shard_exp::{lineage_shard_report, lineage_shard_to_table};
use crate::resilience::{resilience_report, resilience_to_table};
use crate::scaling::{multicore_scaling_report, scaling_to_table};
use crate::slicing_exp::{slicing_report, slicing_to_table};
use crate::summaries_exp::{summaries_report, summaries_to_table};
use crate::throughput::{report_to_table, taint_throughput_report};
use crate::tracing_exps::{
    e1_slowdown, e1b_compaction, e2_trace_density, e3_multicore, e4_execution_reduction, mix_table,
};
use crate::{obs_report, sentinel_exp, Scale, Table};
use serde::Serialize;

/// One `report` selection.
pub struct Experiment {
    /// The selection id on the command line.
    pub id: &'static str,
    /// One line for `report --help`.
    pub about: &'static str,
    /// Files the run writes to the working directory, in the order of
    /// [`Run::artifacts`].
    pub artifacts: &'static [&'static str],
    /// Runs the experiment at the given scale.
    pub run: fn(Scale) -> Run,
}

/// What one run produces: its table and one payload per declared
/// artifact. Both come from the same measurement.
pub struct Run {
    pub table: Table,
    pub artifacts: Vec<String>,
}

impl From<Table> for Run {
    fn from(table: Table) -> Run {
        Run { table, artifacts: Vec::new() }
    }
}

impl Experiment {
    /// Whether the `ablations` alias selects this entry: the E-series
    /// ablations are the `eNa` ids.
    pub fn is_ablation(&self) -> bool {
        self.id.starts_with('e') && self.id.ends_with('a')
    }
}

/// Measure once; the table and the pretty-printed report (the single
/// artifact) share the run.
fn measured<R: Serialize>(scale: Scale, report: fn(Scale) -> R, table: fn(&R) -> Table) -> Run {
    let r = report(scale);
    Run { table: table(&r), artifacts: vec![pretty(&r)] }
}

fn pretty(report: &impl Serialize) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// An entry that prints a table and writes nothing.
macro_rules! table {
    ($id:literal, $run:path, $about:literal) => {
        Experiment { id: $id, about: $about, artifacts: &[], run: |s| $run(s).into() }
    };
}

/// Every selection, in run order.
pub static EXPERIMENTS: &[Experiment] = &[
    table!("e1", e1_slowdown, "E1 tracing slowdown: ONTRAC online vs offline post-processing"),
    table!("e2", e2_trace_density, "E2 trace density (B/instr) and window length"),
    table!("e3", e3_multicore, "E3 DIFT overhead: inline vs helper core (SW / HW channel)"),
    table!("e4", e4_execution_reduction, "E4 execution reduction for the buggy server run"),
    table!("e5", e5_tm, "E5 TM monitoring: naive vs sync-aware conflict resolution"),
    table!("e6", e6_attacks, "E6 attack detection and PC-taint root-cause attribution"),
    table!("e7", e7_lineage, "E7 lineage tracing cost: roBDD vs naive sets"),
    table!("e8", e8_omission, "E8 execution-omission location: slices vs predicate switching"),
    table!("e9", e9_value_replacement, "E9 value-replacement ranking of seeded faults"),
    table!("e10", e10_races, "E10 race reports: naive happens-before vs sync-aware filtering"),
    table!("mix", mix_table, "MIX workload characterization (dynamic instruction mix)"),
    table!("e1b", e1b_compaction, "E1b compact DDG: size vs raw trace, slice on the compact form"),
    table!("e2a", e2a_optimization_ablation, "E2a ONTRAC optimization ablation (stored B/instr)"),
    table!("e2b", e2b_selective, "E2b selective tracing: sound summaries vs uninstrumenting"),
    table!("e3a", e3a_channel_sweep, "E3a helper-channel sweep: enqueue cost and queue depth"),
    table!("e5a", e5a_spin_length, "E5a naive-TM livelock episodes vs waiting threads"),
    table!("e7a", e7a_overlap_sweep, "E7a lineage memory vs resident overlap"),
    Experiment {
        id: "taint",
        about: "T1 wall-clock DIFT throughput: paged shadow vs HashMap, inline vs helper",
        artifacts: &["BENCH_taint.json"],
        run: |s| measured(s, taint_throughput_report, report_to_table),
    },
    Experiment {
        id: "multicore-scaling",
        about: "T2 epoch-parallel DIFT at 1/2/4/8 shards, wall clock and modeled",
        artifacts: &["BENCH_multicore_scaling.json"],
        run: |s| measured(s, multicore_scaling_report, scaling_to_table),
    },
    Experiment {
        id: "obs",
        about: "OBS dift-obs counters by subsystem; the JSON holds the full metric tree",
        artifacts: &["BENCH_obs.json"],
        run: |s| {
            let r = obs_report::obs_report(s);
            Run { table: r.to_table(), artifacts: vec![pretty(&r.to_value())] }
        },
    },
    Experiment {
        id: "resilience",
        about: "T3 single-fault recovery matrix and zero-fault overhead",
        artifacts: &["BENCH_resilience.json"],
        run: |s| measured(s, resilience_report, resilience_to_table),
    },
    Experiment {
        id: "slicing",
        about: "T4 demand-driven slice queries: indexed vs rebuild-per-query",
        artifacts: &["BENCH_slicing.json"],
        run: |s| measured(s, slicing_report, slicing_to_table),
    },
    Experiment {
        id: "summaries",
        about: "T5 hot-code summary cache: plain vs cached taint throughput",
        artifacts: &["BENCH_summaries.json"],
        run: |s| measured(s, summaries_report, summaries_to_table),
    },
    Experiment {
        id: "history",
        about: "T6 tiered trace history: chunked snapshots and the cold tier",
        artifacts: &["BENCH_history.json"],
        run: |s| measured(s, history_report, history_to_table),
    },
    Experiment {
        id: "sentinel",
        about: "T7 taint-boundary sentinel detection quality, plus the alert dump",
        artifacts: &["BENCH_sentinel.json", "SENTINEL_alerts.json"],
        run: |s| {
            let (r, alerts) = sentinel_exp::sentinel_report(s);
            Run { table: sentinel_exp::sentinel_to_table(&r), artifacts: vec![pretty(&r), alerts] }
        },
    },
    Experiment {
        id: "durability",
        about: "T8 durable cold tier: spill/scan, torn-write recovery, disk-backed slices",
        artifacts: &["BENCH_durability.json"],
        run: |s| measured(s, durability_report, durability_to_table),
    },
    Experiment {
        id: "lineage-shard",
        about: "T9 sharded lineage and slice fragments on the epoch pipeline",
        artifacts: &["BENCH_lineage_shard.json"],
        run: |s| measured(s, lineage_shard_report, lineage_shard_to_table),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_artifacts_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.extend(["all", "ablations"]);
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate or reserved selection id");
        let mut files: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.artifacts).copied().collect();
        let n = files.len();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files.len(), n, "two selections write the same file");
    }

    #[test]
    fn ablations_alias_is_the_four_e_series_sweeps() {
        let ids: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.is_ablation()).map(|e| e.id).collect();
        assert_eq!(ids, ["e2a", "e3a", "e5a", "e7a"]);
    }
}
