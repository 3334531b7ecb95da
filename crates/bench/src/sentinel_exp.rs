//! T7 — taint-boundary sentinel detection quality over the replayable
//! attack-scenario corpus.
//!
//! The numbers behind `report sentinel` (`BENCH_sentinel.json`). The
//! corpus is fourteen scenarios in seven attack/benign-near-miss pairs;
//! each is recorded once and replayed deterministically, twice under
//! the sentinel (outcomes byte-diffed) and once under plain PC-taint
//! (the overhead baseline). Headline metrics, all gated in CI:
//!
//! * `recall` — attacks whose *expected rule* fired (gate: ≥ 0.95).
//! * `precision` — detected attacks over all alerting scenarios; the
//!   benign twins are what can drag it down (gate: ≥ 0.90).
//! * `root_cause_fraction` — scenarios with a known root-cause PC whose
//!   alerts name it via PC taint.
//! * `replay_identical_fraction` — scenarios whose two sentinel replays
//!   serialized byte-identically (gated at 1.0 by the shared
//!   `identical_fraction` rule).
//! * `sentinel_overhead_geomean` — modeled cycles of the sentinel
//!   (PC-taint + roBDD lineage observer) over plain PC-taint alone;
//!   deterministic, so any drift is a real propagation-cost change.

use crate::{fx, Scale, Table};
use dift_sentinel::{run_corpus, CorpusConfig, CorpusOutcome};
use serde::Serialize;

/// One corpus scenario in the report.
#[derive(Clone, Debug, Serialize)]
pub struct SentinelRow {
    pub name: String,
    pub is_attack: bool,
    pub detected: bool,
    pub rule_hit: bool,
    pub alerts: u64,
    pub receipts: u64,
    /// Sentinel cycles / plain PC-taint cycles for this scenario.
    pub overhead: f64,
}

/// The machine-readable report behind `BENCH_sentinel.json`.
#[derive(Clone, Debug, Serialize)]
pub struct SentinelReport {
    pub scale: String,
    pub label: String,
    pub scenarios: u64,
    pub attacks: u64,
    /// Attacks whose expected rule fired / attacks (gated ≥ 0.95).
    pub recall: f64,
    /// Detected attacks / all alerting scenarios (gated ≥ 0.90).
    pub precision: f64,
    /// Scenarios with a known root cause whose alerts name it.
    pub root_cause_fraction: f64,
    /// Byte-identical sentinel outcomes across two replays (gated 1.0).
    pub replay_identical_fraction: f64,
    /// Geomean of per-scenario sentinel/taint modeled-cycle ratios.
    pub sentinel_overhead_geomean: f64,
    pub total_alerts: u64,
    pub total_receipts: u64,
    pub rows: Vec<SentinelRow>,
}

fn corpus_config(scale: Scale) -> CorpusConfig {
    match scale {
        Scale::Test => CorpusConfig { kv_filler: 2 },
        Scale::Paper => CorpusConfig { kv_filler: 24 },
    }
}

fn to_report(scale: Scale, out: &CorpusOutcome) -> SentinelReport {
    let rows: Vec<SentinelRow> = out
        .scenarios
        .iter()
        .map(|s| SentinelRow {
            name: s.name.clone(),
            is_attack: s.is_attack,
            detected: s.detected,
            rule_hit: s.detected && s.rule_hit,
            alerts: s.alerts as u64,
            receipts: s.receipts as u64,
            overhead: s.overhead,
        })
        .collect();
    SentinelReport {
        scale: format!("{scale:?}"),
        label: "taint-boundary sentinel over the attack-scenario corpus".to_string(),
        scenarios: rows.len() as u64,
        attacks: rows.iter().filter(|r| r.is_attack).count() as u64,
        recall: out.recall,
        precision: out.precision,
        root_cause_fraction: out.root_cause_fraction,
        replay_identical_fraction: out.replay_identical_fraction,
        sentinel_overhead_geomean: out.overhead_geomean,
        total_alerts: rows.iter().map(|r| r.alerts).sum(),
        total_receipts: rows.iter().map(|r| r.receipts).sum(),
        rows,
    }
}

/// Run the corpus once; returns the report plus the deterministic
/// per-scenario alert dump (`SENTINEL_alerts.json`) that the CI
/// replay-determinism step byte-diffs across two invocations.
pub fn sentinel_report(scale: Scale) -> (SentinelReport, String) {
    let out = run_corpus(corpus_config(scale));
    (to_report(scale, &out), out.alerts_dump())
}

/// T7 as a printable table (shares measurements with the JSON report).
pub fn sentinel_to_table(r: &SentinelReport) -> Table {
    let mut t = Table::new(
        "T7",
        "taint-boundary sentinel: detection quality over the scenario corpus",
        "every attack fires its expected boundary rule with a PC-taint root cause; \
         every benign near-miss twin stays silent; two deterministic replays \
         serialize byte-identical outcomes",
        &["scenario", "kind", "detected", "rule hit", "alerts", "receipts", "overhead"],
    );
    for row in &r.rows {
        t.row(vec![
            row.name.clone(),
            if row.is_attack { "attack" } else { "benign" }.into(),
            if row.detected { "yes" } else { "no" }.into(),
            if row.is_attack {
                if row.rule_hit { "yes" } else { "NO" }.into()
            } else {
                "-".to_string()
            },
            row.alerts.to_string(),
            row.receipts.to_string(),
            fx(row.overhead),
        ]);
    }
    t.row(vec![
        "summary".into(),
        format!("{}/{}", r.attacks, r.scenarios),
        format!("recall {:.0}%", r.recall * 100.0),
        format!("precision {:.0}%", r.precision * 100.0),
        format!("root-cause {:.0}%", r.root_cause_fraction * 100.0),
        format!("replay {:.0}%", r.replay_identical_fraction * 100.0),
        fx(r.sentinel_overhead_geomean),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_report_is_well_formed_and_meets_the_gates() {
        let (r, dump) = sentinel_report(Scale::Test);
        assert_eq!(r.scenarios, 14);
        assert_eq!(r.attacks, 7);
        // The CI gate's bars must hold even at test scale.
        assert!(r.recall >= 0.95, "recall {}", r.recall);
        assert!(r.precision >= 0.90, "precision {}", r.precision);
        assert_eq!(r.replay_identical_fraction, 1.0);
        assert!(r.sentinel_overhead_geomean >= 1.0, "{}", r.sentinel_overhead_geomean);
        // One dump line per scenario, reproducible.
        assert_eq!(dump.lines().count(), 14);
        let (_, again) = sentinel_report(Scale::Test);
        assert_eq!(dump, again, "alert dump must be deterministic");
    }

    #[test]
    fn benign_rows_never_count_as_rule_hits() {
        let (r, _) = sentinel_report(Scale::Test);
        for row in r.rows.iter().filter(|r| !r.is_attack) {
            assert!(!row.detected, "{} must stay silent", row.name);
            assert_eq!(row.alerts, 0, "{}", row.name);
        }
    }
}
