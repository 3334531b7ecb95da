//! End-to-end tests of the `report` binary: every selection's `--test`
//! mode, the JSON artifacts, the `compare` exit-code contract, and the
//! usage/exit(2) behavior on bad input.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_report"))
}

/// Fresh scratch directory so BENCH_*.json artifacts never land in the
/// source tree.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("report_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    report().current_dir(dir).args(args).output().expect("spawn report")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn every_table_selection_runs_in_test_mode() {
    // One invocation covering every table-producing selection (the
    // E-series and ablations lead the list); each prints its own JSON
    // table, so presence of each id's title line proves it ran.
    let all = &SELECTIONS[..17];
    let dir = scratch("tables");
    let mut args: Vec<&str> = all.to_vec();
    args.extend(["--test", "--json"]);
    let o = run_in(&dir, &args);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    // One JSON table per selection.
    assert_eq!(out.lines().filter(|l| l.contains("\"id\"")).count(), all.len(), "{out}");
}

#[test]
fn ablations_alias_selects_the_a_suffixed_tables() {
    let dir = scratch("ablations");
    let o = run_in(&dir, &["ablations", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    for id in ["E2a", "E3a", "E5a", "E7a"] {
        assert!(stdout(&o).contains(id), "missing {id}");
    }
}

#[test]
fn taint_selection_writes_the_json_artifact() {
    let dir = scratch("taint");
    let o = run_in(&dir, &["taint", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_taint.json")).expect("artifact");
    assert!(payload.contains("geomean_hot_speedup"));
}

#[test]
fn multicore_scaling_selection_writes_the_json_artifact() {
    let dir = scratch("mc");
    let o = run_in(&dir, &["multicore-scaling", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let payload =
        std::fs::read_to_string(dir.join("BENCH_multicore_scaling.json")).expect("artifact");
    assert!(payload.contains("geomean_modeled_speedup_4w"));
}

#[test]
fn obs_selection_writes_the_full_metric_tree() {
    let dir = scratch("obs");
    let o = run_in(&dir, &["obs", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_obs.json")).expect("artifact");
    for needle in ["schema_version", "sections", "taint", "shadow", "ddg_levels", "queue_depth"] {
        assert!(payload.contains(needle), "BENCH_obs.json missing {needle}");
    }
}

#[test]
fn resilience_selection_writes_the_json_artifact() {
    let dir = scratch("resilience");
    let o = run_in(&dir, &["resilience", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    // The table goes to stdout, the artifact next to it.
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_resilience.json")).expect("artifact");
    for needle in ["zero_fault_modeled_overhead", "identical_fraction", "matrix", "shard_panic@s0"]
    {
        assert!(payload.contains(needle), "BENCH_resilience.json missing {needle}");
    }
    // The gated fractions must be perfect even at CI scale.
    let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
    for frac in ["completed_fraction", "identical_fraction"] {
        assert_eq!(v.field(frac), Some(&serde_json::Value::F64(1.0)), "{frac}: {payload}");
    }
}

#[test]
fn slicing_selection_writes_the_json_artifact() {
    let dir = scratch("slicing");
    let o = run_in(&dir, &["slicing", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_slicing.json")).expect("artifact");
    for needle in ["geomean_indexed_speedup", "identical_fraction", "rows", "index_bytes"] {
        assert!(payload.contains(needle), "BENCH_slicing.json missing {needle}");
    }
    // The gated invariants must hold even at CI scale: bit-identical
    // answers, and the acceptance floor on the indexed speedup.
    let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
    assert_eq!(
        v.field("identical_fraction"),
        Some(&serde_json::Value::F64(1.0)),
        "identical_fraction: {payload}"
    );
    match v.field("geomean_indexed_speedup") {
        Some(&serde_json::Value::F64(g)) => {
            assert!(g >= 5.0, "indexed speedup below the 5x floor: {g}")
        }
        other => panic!("geomean_indexed_speedup missing or non-float: {other:?}"),
    }
}

#[test]
fn summaries_selection_writes_the_json_artifact() {
    let dir = scratch("summaries");
    let o = run_in(&dir, &["summaries", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_summaries.json")).expect("artifact");
    for needle in [
        "geomean_summary_speedup",
        "identical_fraction",
        "summaries_bytes_per_instr",
        "rows",
        "guard_bails",
    ] {
        assert!(payload.contains(needle), "BENCH_summaries.json missing {needle}");
    }
    // The gated invariants must hold even at CI scale: bit-identical
    // taint state, and the 2x acceptance floor on the cached geomean.
    let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
    assert_eq!(
        v.field("identical_fraction"),
        Some(&serde_json::Value::F64(1.0)),
        "identical_fraction: {payload}"
    );
    match v.field("geomean_summary_speedup") {
        Some(&serde_json::Value::F64(g)) => {
            assert!(g >= 2.0, "summary speedup below the 2x floor: {g}")
        }
        other => panic!("geomean_summary_speedup missing or non-float: {other:?}"),
    }
}

#[test]
fn history_selection_writes_the_json_artifact() {
    let dir = scratch("history");
    let o = run_in(&dir, &["history", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_history.json")).expect("artifact");
    for needle in [
        "snapshot_growth_16x",
        "deep_growth_16x",
        "cold_bytes_per_record",
        "identical_fraction",
        "snapshot",
        "chunk_copies_per_cycle",
        "rows",
    ] {
        assert!(payload.contains(needle), "BENCH_history.json missing {needle}");
    }
    // The gated invariants must hold even at CI scale: stitched answers
    // bit-identical to the offline slicer, and the snapshot cost flat
    // within 2x across the 16x window spread.
    let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
    assert_eq!(
        v.field("identical_fraction"),
        Some(&serde_json::Value::F64(1.0)),
        "identical_fraction: {payload}"
    );
    match v.field("snapshot_growth_16x") {
        Some(&serde_json::Value::F64(g)) => {
            assert!(g < 2.0, "chunked snapshot must stay flat across 16x windows: {g}")
        }
        other => panic!("snapshot_growth_16x missing or non-float: {other:?}"),
    }
}

#[test]
fn sentinel_selection_writes_the_json_artifacts() {
    let dir = scratch("sentinel");
    let o = run_in(&dir, &["sentinel", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_sentinel.json")).expect("artifact");
    for needle in [
        "recall",
        "precision",
        "root_cause_fraction",
        "replay_identical_fraction",
        "sentinel_overhead_geomean",
        "rows",
        "kv-exfil.attack",
        "near-miss",
    ] {
        assert!(payload.contains(needle), "BENCH_sentinel.json missing {needle}");
    }
    // The gated invariants must hold even at CI scale: every attack's
    // expected rule fires, every benign twin stays silent, and the two
    // sentinel replays serialize byte-identically.
    let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
    for frac in ["recall", "precision", "replay_identical_fraction"] {
        assert_eq!(v.field(frac), Some(&serde_json::Value::F64(1.0)), "{frac}: {payload}");
    }
    // The alert dump lands next to the report and is byte-reproducible
    // across a second invocation — the CI replay-determinism diff.
    let dump = std::fs::read(dir.join("SENTINEL_alerts.json")).expect("alert dump");
    let o = run_in(&dir, &["sentinel", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let again = std::fs::read(dir.join("SENTINEL_alerts.json")).expect("alert dump rerun");
    assert_eq!(dump, again, "two sentinel runs must produce byte-identical alert dumps");
}

#[test]
fn durability_selection_writes_the_json_artifact() {
    let dir = scratch("durability");
    let o = run_in(&dir, &["durability", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_durability.json")).expect("artifact");
    for needle in [
        "disk_bytes_per_record",
        "spill_mrecs_per_s",
        "scan_mrecs_per_s",
        "recovered_fraction",
        "scrub_ms",
        "identical_fraction",
        "rows",
    ] {
        assert!(payload.contains(needle), "BENCH_durability.json missing {needle}");
    }
    // The gated invariants must hold even at CI scale: disk-backed
    // stitched answers bit-identical to the offline slicer, and the
    // torn-write recovery deterministic at (K-1)/K.
    let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
    assert_eq!(
        v.field("identical_fraction"),
        Some(&serde_json::Value::F64(1.0)),
        "identical_fraction: {payload}"
    );
    match v.field("recovery").and_then(|r| r.field("recovered_fraction")) {
        Some(&serde_json::Value::F64(f)) => {
            assert!((f - 0.75).abs() < 1e-9, "test-scale recovery is 3 of 4 segments: {f}")
        }
        other => panic!("recovered_fraction missing or non-float: {other:?}"),
    }
}

#[test]
fn lineage_shard_selection_writes_the_json_artifact() {
    let dir = scratch("lineage_shard");
    let o = run_in(&dir, &["lineage-shard", "--test", "--json"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    let payload = std::fs::read_to_string(dir.join("BENCH_lineage_shard.json")).expect("artifact");
    for needle in [
        "identical_fraction",
        "modeled_speedup_geomean_4w",
        "arena_nodes",
        "cross_epoch_deps",
        "index_edges",
        "modeled_only",
        "rows",
    ] {
        assert!(payload.contains(needle), "BENCH_lineage_shard.json missing {needle}");
    }
    // The gated invariant must hold even at CI scale: every sharded
    // width reproduces the serial lineage engine and slice index.
    let v: serde_json::Value = serde_json::from_str(&payload).unwrap();
    assert_eq!(
        v.field("identical_fraction"),
        Some(&serde_json::Value::F64(1.0)),
        "identical_fraction: {payload}"
    );
}

/// Every selection `report` accepts, written out so that dropping an
/// entry from the registry fails a test rather than silently shrinking
/// the CLI.
const SELECTIONS: [&str; 29] = [
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "e9",
    "e10",
    "mix",
    "e1b",
    "e2a",
    "e2b",
    "e3a",
    "e5a",
    "e7a",
    "taint",
    "multicore-scaling",
    "obs",
    "resilience",
    "slicing",
    "summaries",
    "history",
    "sentinel",
    "durability",
    "lineage-shard",
    "ablations",
    "all",
];

#[test]
fn help_lists_every_selection() {
    let dir = scratch("help");
    let o = run_in(&dir, &["--help"]);
    assert!(o.status.success());
    let err = stderr(&o);
    assert!(err.contains("compare"), "{err}");
    for id in SELECTIONS {
        assert!(
            err.lines().any(|l| l.split_whitespace().next() == Some(id)),
            "usage must list the `{id}` selection:\n{err}"
        );
    }
}

#[test]
fn every_selection_rejects_unknown_flags_without_running() {
    let dir = scratch("badflag_every");
    for id in SELECTIONS {
        let o = run_in(&dir, &[id, "--frobnicate"]);
        assert_eq!(o.status.code(), Some(2), "{id}");
        let err = stderr(&o);
        assert!(err.contains("unknown flag") && err.contains("usage:"), "{id}: {err}");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{id} must not run on bad flags: {written:?}");
    }
}

#[test]
fn unknown_selections_print_usage_and_exit_2() {
    let dir = scratch("unknown");
    for bad in ["e99", "lineage-shards", "durabilty", "sentinal"] {
        let o = run_in(&dir, &[bad, "--test"]);
        assert_eq!(o.status.code(), Some(2), "{bad}");
        let err = stderr(&o);
        assert!(err.contains("unknown selection") && err.contains("usage:"), "{bad}: {err}");
    }
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let dir = scratch("badflag");
    let o = run_in(&dir, &["--frobnicate"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("usage:"));
}

#[test]
fn every_ci_baseline_is_a_declared_artifact() {
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/baselines");
    let declared: Vec<&str> =
        dift_bench::EXPERIMENTS.iter().flat_map(|e| e.artifacts).copied().collect();
    let mut n = 0;
    for entry in std::fs::read_dir(&baselines).expect("ci/baselines") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(declared.contains(&name.as_str()), "{name} is not any selection's artifact");
        n += 1;
    }
    assert!(n > 0, "no baselines under {}", baselines.display());
}

#[test]
fn unwritable_artifact_exits_2_after_finishing_the_run() {
    // A directory squatting on the alert dump's name makes that one
    // write fail, whatever the user's permissions.
    let dir = scratch("unwritable");
    std::fs::create_dir_all(dir.join("SENTINEL_alerts.json")).unwrap();
    let o = run_in(&dir, &["sentinel", "--test", "--json"]);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains("could not write SENTINEL_alerts.json"), "{}", stderr(&o));
    // The run still finished: the table printed and the other artifact
    // landed.
    assert!(stdout(&o).contains("\"id\""), "{}", stdout(&o));
    assert!(dir.join("BENCH_sentinel.json").is_file());
}

/// A tiny taint-report-shaped document the default thresholds gate.
fn synthetic(hot: f64) -> String {
    format!(
        r#"{{
  "scale": "test",
  "geomean_hot_speedup": {hot},
  "rows": [
    {{ "name": "gzip_like", "hot_speedup": {hot}, "shadow_hot": 1.0e7 }},
    {{ "name": "mcf_like", "hot_speedup": {hot}, "shadow_hot": 2.0e7 }}
  ]
}}"#
    )
}

#[test]
fn compare_identical_inputs_exits_0() {
    let dir = scratch("cmp_ok");
    let base = dir.join("base.json");
    std::fs::write(&base, synthetic(3.0)).unwrap();
    let o = run_in(&dir, &["compare", base.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("geomean ratio 1.000"), "{}", stdout(&o));
}

#[test]
fn compare_regression_exits_1() {
    let dir = scratch("cmp_bad");
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    std::fs::write(&base, synthetic(3.0)).unwrap();
    std::fs::write(&cand, synthetic(1.0)).unwrap();
    let o = run_in(&dir, &["compare", base.to_str().unwrap(), cand.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("REGRESSED"), "{}", stdout(&o));
}

#[test]
fn compare_uses_the_checked_in_thresholds_file() {
    let dir = scratch("cmp_toml");
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    std::fs::write(&base, synthetic(3.0)).unwrap();
    // 10% down: inside the 25% geomean band and the 40% row band.
    std::fs::write(&cand, synthetic(2.7)).unwrap();
    let toml = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_thresholds.toml");
    let o = run_in(
        &dir,
        &[
            "compare",
            base.to_str().unwrap(),
            cand.to_str().unwrap(),
            "--thresholds",
            toml.to_str().unwrap(),
        ],
    );
    assert_eq!(o.status.code(), Some(0), "stderr: {}", stderr(&o));
}

#[test]
fn compare_bad_inputs_exit_2() {
    let dir = scratch("cmp_err");
    let base = dir.join("base.json");
    std::fs::write(&base, synthetic(3.0)).unwrap();
    // Missing candidate file.
    let o = run_in(&dir, &["compare", base.to_str().unwrap(), "nope.json"]);
    assert_eq!(o.status.code(), Some(2));
    // Too few arguments.
    let o = run_in(&dir, &["compare", base.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("usage:"));
    // Unparseable thresholds.
    let badtoml = dir.join("bad.toml");
    std::fs::write(&badtoml, "[server]\nwat = 1").unwrap();
    let o = run_in(
        &dir,
        &[
            "compare",
            base.to_str().unwrap(),
            base.to_str().unwrap(),
            "--thresholds",
            badtoml.to_str().unwrap(),
        ],
    );
    assert_eq!(o.status.code(), Some(2));
    // No gated metrics matched at all (rules that fit nothing).
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "{ \"unrelated\": 1 }").unwrap();
    let o = run_in(&dir, &["compare", empty.to_str().unwrap(), empty.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2), "no-matches must fail loudly");
}

#[test]
fn compare_rejects_deeply_nested_json_with_a_message() {
    let dir = scratch("cmp_deep");
    let base = dir.join("base.json");
    let deep = dir.join("deep.json");
    std::fs::write(&base, synthetic(3.0)).unwrap();
    // Well-formed, but nested far past the parser's limit.
    std::fs::write(&deep, format!("{}{}", "[".repeat(100_000), "]".repeat(100_000))).unwrap();
    let o = run_in(&dir, &["compare", base.to_str().unwrap(), deep.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    let err = stderr(&o);
    assert!(err.contains("deep.json") && err.contains("recursion limit"), "{err}");
}

/// The taint document plus the gated `identical_fraction` (left out
/// when `None`).
fn with_fraction(frac: Option<f64>) -> String {
    let doc = synthetic(3.0);
    match frac {
        Some(f) => doc.replacen('{', &format!("{{\n  \"identical_fraction\": {f},"), 1),
        None => doc,
    }
}

#[test]
fn compare_fails_when_a_gated_fraction_drops_to_zero_or_disappears() {
    let dir = scratch("cmp_zero");
    let toml = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_thresholds.toml");
    let base = dir.join("base.json");
    std::fs::write(&base, with_fraction(Some(1.0))).unwrap();
    for (tag, frac, verdict) in [
        ("half", Some(0.5), "REGRESSED"),
        ("zero", Some(0.0), "REGRESSED"),
        ("gone", None, "MISSING"),
    ] {
        let cand = dir.join(format!("{tag}.json"));
        std::fs::write(&cand, with_fraction(frac)).unwrap();
        let o = run_in(
            &dir,
            &[
                "compare",
                base.to_str().unwrap(),
                cand.to_str().unwrap(),
                "--thresholds",
                toml.to_str().unwrap(),
            ],
        );
        assert_eq!(o.status.code(), Some(1), "{tag}: {}", stdout(&o));
        let line = stdout(&o).lines().find(|l| l.contains("identical_fraction")).map(String::from);
        assert!(line.is_some_and(|l| l.starts_with(verdict)), "{tag}: {}", stdout(&o));
    }
}
