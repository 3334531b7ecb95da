//! `report obs` — run instrumented engines across every subsystem and
//! serialize the `dift-obs` counters to `BENCH_obs.json`.
//!
//! Unlike the timing reports, this one is about *counts*: it drives
//! each layer (taint, ONTRAC/DDG, epoch-parallel multicore, DBI
//! profiling) with a `StatsRecorder` attached and emits the full metric
//! tree — every metric in the schema appears, zeros included, so the
//! JSON shape is stable across runs and diffable by `report compare`.
//!
//! The `derived/ddg_levels` section reruns ONTRAC at the four
//! optimization levels (none, +block-static, +trace-static,
//! +redundant-load) plus the summary-cache level (`l4_summaries`:
//! dependences inside summarized hot sweeps are elided) and reports the
//! stored-trace density and the compression ratio each level achieves
//! over the raw 16 B/instr encoding — the paper's table 1 ladder
//! extended by one rung, as observability data. The ladder suite is the
//! SPEC-like workloads *plus* the loop kernels, so the summaries rung
//! has hot regions to elide while the generic rungs stay honest on
//! loop-heavy streams too.

use crate::throughput::capture;
use crate::{Scale, Table};
use dift_dbi::{Engine, ProfileTool};
use dift_ddg::{costs, OnTrac, OnTracConfig};
use dift_multicore::{
    run_epoch_dift_tolerant, ChannelModel, EpochModel, NoopFaults, RecoveryPolicy,
};
use dift_obs::snapshot::section_value;
use dift_obs::{Metric, Recorder, StatsRecorder, SCHEMA_VERSION};
use dift_slicing::{KindMask, SliceQuery, SliceService};
use dift_taint::{BitTaint, SummaryCachedEngine, TaintEngine, TaintPolicy};
use dift_workloads::loops::all_loops;
use dift_workloads::spec::all_spec;
use dift_workloads::Workload;
use serde::Value;

/// One ONTRAC optimization level of the derived ladder.
#[derive(Clone, Debug)]
pub struct DdgLevel {
    pub name: &'static str,
    pub bytes_per_instr: f64,
    /// Raw 16 B/instr over this level's density (higher = better).
    pub compression_vs_raw: f64,
    pub deps_recorded: u64,
    pub evictions: u64,
    /// Dependences elided because they fell inside a summarized hot
    /// sweep (only the `l4_summaries` level elides any).
    pub deps_summarized: u64,
}

/// Everything `report obs` measures; `to_value` is the JSON schema.
pub struct ObsReport {
    pub scale: Scale,
    /// All sections' recorders merged into one metric tree.
    pub merged: StatsRecorder,
    pub ddg_levels: Vec<DdgLevel>,
}

fn ontrac_levels() -> [(&'static str, OnTracConfig); 4] {
    let base = OnTracConfig::unoptimized(4 << 10);
    let mut block = base.clone();
    block.opt_block_static = true;
    let mut trace = block.clone();
    trace.opt_trace_static = true;
    [
        ("l0_unoptimized", base),
        ("l1_block_static", block),
        ("l2_trace_static", trace),
        ("l3_redundant_load", OnTracConfig::optimized(4 << 10)),
    ]
}

/// The compression-ladder suite: SPEC-like workloads plus the
/// loop-dominated kernels whose hot sweeps the summaries rung elides.
fn ladder_suite(scale: Scale) -> Vec<Workload> {
    let mut suite = all_spec(scale.spec_size());
    suite.extend(all_loops(scale.spec_size()));
    suite
}

/// The modeled fan-out channel the multicore section runs under — the
/// helper-bound software queue at 4 shards (see `scaling.rs` for why
/// the consumer is slower than the producer).
fn obs_fanout() -> EpochModel {
    EpochModel {
        chan: ChannelModel { enqueue_cycles: 2, helper_per_msg: 16, queue_depth: 128 },
        workers: 4,
        epoch_len: 128,
        fanout_cycles: 1,
        compose_per_epoch: 32,
    }
}

/// Run every section's instrumented engine and collect the counters.
pub fn obs_report(scale: Scale) -> ObsReport {
    let suite = all_spec(scale.spec_size());
    let policy = TaintPolicy::propagate_only();
    let mut merged = StatsRecorder::new();

    // Taint: full engine as a DBI tool, so `on_finish` flushes the
    // shadow-residency gauges. Counters accumulate across the suite;
    // gauges reflect the last workload's final state.
    for w in &suite {
        let m = w.machine();
        let mut eng =
            TaintEngine::<BitTaint, StatsRecorder>::with_recorder(policy, StatsRecorder::new());
        eng.pre_size(m.mem_words());
        Engine::new(m).run_tool(&mut eng);
        merged.merge(&eng.obs);
    }

    // Summary cache: the hot-code caching front-end over each ladder
    // workload's captured effects stream. Its counters (hits, bails,
    // regions, bytes saved) land in the `taint/summary_cache` section,
    // and each workload's hit ranges feed the `l4_summaries` ladder rung
    // below.
    let ladder = ladder_suite(scale);
    let mut elides: Vec<Vec<(u64, u64)>> = Vec::with_capacity(ladder.len());
    for w in &ladder {
        let (stream, mem_words) = capture(w);
        let mut cached = SummaryCachedEngine::<BitTaint, StatsRecorder>::with_recorder(
            policy,
            &w.program,
            StatsRecorder::new(),
        );
        cached.engine_mut().pre_size(mem_words);
        cached.process_stream(&stream);
        cached.engine_mut().flush_obs();
        elides.push(cached.hit_ranges().to_vec());
        merged.merge(&cached.engine().obs);
    }

    // DDG: the optimized tracer feeds the main tree; the level ladder
    // below is derived from separate runs. `l4_summaries` reruns the
    // optimized tracer with each workload's summarized sweeps elided —
    // the same deterministic execution, so step ranges line up.
    let mut levels: Vec<(&'static str, OnTracConfig, bool)> =
        ontrac_levels().into_iter().map(|(n, c)| (n, c, false)).collect();
    levels.push(("l4_summaries", OnTracConfig::optimized(4 << 10), true));
    let mut ddg_levels = Vec::new();
    for (name, cfg, elide) in levels {
        let mut level_rec = StatsRecorder::new();
        let mut instrs = 0u64;
        let mut bytes = 0u64;
        let mut deps_summarized = 0u64;
        for (wi, w) in ladder.iter().enumerate() {
            let mut cfg = cfg.clone();
            if elide {
                cfg.elide_steps = elides[wi].clone();
            }
            let m = w.machine();
            let mut tracer =
                OnTrac::with_recorder(&w.program, m.config().mem_words, cfg, StatsRecorder::new());
            Engine::new(m).run_tool(&mut tracer);
            let s = tracer.stats();
            instrs += s.instrs;
            bytes += s.bytes_appended;
            deps_summarized += s.deps_summarized;
            level_rec.merge(&tracer.obs);
        }
        let bpi = if instrs == 0 { 0.0 } else { bytes as f64 / instrs as f64 };
        ddg_levels.push(DdgLevel {
            name,
            bytes_per_instr: bpi,
            compression_vs_raw: if bpi > 0.0 {
                costs::RAW_BYTES_PER_INSN as f64 / bpi
            } else {
                0.0
            },
            deps_recorded: level_rec.get(Metric::DdgDepsRecorded),
            evictions: level_rec.get(Metric::DdgEvictions),
            deps_summarized,
        });
        if name == "l3_redundant_load" {
            merged.merge(&level_rec);
        }
    }

    // Multicore: the epoch-parallel run under the modeled fan-out
    // channel — queue depths, stalls, per-shard epoch latency, compose
    // time all land in the recorder.
    for w in &suite {
        let (_, obs) = run_epoch_dift_tolerant::<BitTaint, StatsRecorder, _>(
            w.machine(),
            obs_fanout(),
            policy,
            StatsRecorder::new(),
            NoopFaults,
            RecoveryPolicy::fail_stop(),
        );
        merged.merge(&obs);
    }

    // DBI: the profiling tool's headline counters.
    for w in &suite {
        let mut prof = ProfileTool::new();
        Engine::new(w.machine()).run_tool(&mut prof);
        prof.record_into(&mut merged);
    }

    // Slicing: demand-driven queries over each tracer's live window —
    // queries served, slice sizes, snapshot latency, and one
    // generation-stamped snapshot reuse per workload.
    for w in &suite {
        let m = w.machine();
        let mut tracer =
            OnTrac::new(&w.program, m.config().mem_words, OnTracConfig::optimized(4 << 10));
        Engine::new(m).run_tool(&mut tracer);
        let idx = tracer.slice_index().expect("optimized preset keeps the index");
        let mut svc = SliceService::with_recorder(idx, StatsRecorder::new());
        let mut steps: Vec<u64> = idx.steps().collect();
        steps.sort_unstable();
        let queries: Vec<SliceQuery> = steps
            .iter()
            .step_by((steps.len() / 4).max(1))
            .map(|&s| SliceQuery::Backward { criterion: vec![s], mask: KindMask::classic() })
            .collect();
        svc.batch(&queries);
        // Window unmoved, so refresh counts a snapshot reuse. Gauges are
        // last-merge-wins, so the section that queried the index also
        // reports its size.
        svc.refresh(idx);
        svc.obs.gauge(Metric::DdgIndexEdges, idx.edges());
        svc.obs.gauge(Metric::DdgIndexBytes, idx.approx_bytes());
        merged.merge(&svc.obs);
    }

    ObsReport { scale, merged, ddg_levels }
}

impl ObsReport {
    /// The stable JSON document behind `BENCH_obs.json`.
    pub fn to_value(&self) -> Value {
        let levels = self
            .ddg_levels
            .iter()
            .map(|l| {
                Value::Map(vec![
                    ("name".into(), Value::Str(l.name.into())),
                    ("bytes_per_instr".into(), Value::F64(l.bytes_per_instr)),
                    ("compression_vs_raw".into(), Value::F64(l.compression_vs_raw)),
                    ("deps_recorded".into(), Value::U64(l.deps_recorded)),
                    ("evictions".into(), Value::U64(l.evictions)),
                    ("deps_summarized".into(), Value::U64(l.deps_summarized)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("schema_version".into(), Value::U64(SCHEMA_VERSION as u64)),
            ("scale".into(), Value::Str(format!("{:?}", self.scale).to_lowercase())),
            (
                "label".into(),
                Value::Str("dift-obs counters: SPEC-like suite, BitTaint propagate-only".into()),
            ),
            ("sections".into(), section_value(&self.merged)),
            ("derived".into(), Value::Map(vec![("ddg_levels".into(), Value::Seq(levels))])),
        ])
    }

    /// Console table: the headline counter per subsystem plus the
    /// compression ladder.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "OBS",
            "observability counters by subsystem (full tree in BENCH_obs.json)",
            "probe coverage across taint, ddg, multicore, dbi",
            &["metric", "value"],
        );
        let g = |m: Metric| self.merged.get(m).to_string();
        t.row(vec!["taint/process_calls".into(), g(Metric::TaintProcessCalls)]);
        t.row(vec!["taint/clean_fast_path".into(), g(Metric::TaintCleanFastPath)]);
        t.row(vec!["taint/shadow/live_pages".into(), g(Metric::TaintLivePages)]);
        t.row(vec![
            "taint/join_width p90".into(),
            self.merged.hist(Metric::TaintJoinWidth).quantile(0.90).to_string(),
        ]);
        t.row(vec!["taint/summary_cache/hits".into(), g(Metric::TaintScHits)]);
        t.row(vec!["taint/summary_cache/bytes_saved".into(), g(Metric::TaintScBytesSaved)]);
        t.row(vec!["ddg/deps_recorded".into(), g(Metric::DdgDepsRecorded)]);
        t.row(vec!["ddg/evictions".into(), g(Metric::DdgEvictions)]);
        t.row(vec!["mc/messages".into(), g(Metric::McMessages)]);
        t.row(vec!["mc/stall_cycles".into(), g(Metric::McStallCycles)]);
        t.row(vec![
            "mc/queue_depth p90".into(),
            self.merged.hist(Metric::McQueueDepth).quantile(0.90).to_string(),
        ]);
        t.row(vec!["dbi/instrs".into(), g(Metric::DbiInstrs)]);
        t.row(vec!["slicing/queries".into(), g(Metric::SlQueries)]);
        t.row(vec![
            "slicing/slice_steps p90".into(),
            self.merged.hist(Metric::SlSliceSteps).quantile(0.90).to_string(),
        ]);
        for l in &self.ddg_levels {
            t.row(vec![
                format!("ddg level {}", l.name),
                format!("{:.2} B/instr ({:.1}x vs raw)", l.bytes_per_instr, l.compression_vs_raw),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_exercises_every_subsystem() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = obs_report(Scale::Test);
        assert!(r.merged.get(Metric::TaintProcessCalls) > 0);
        assert!(r.merged.get(Metric::TaintCleanFastPath) > 0);
        assert!(r.merged.get(Metric::TaintSources) > 0);
        assert!(r.merged.hist(Metric::TaintJoinWidth).count() > 0);
        assert!(r.merged.get(Metric::DdgDepsConsidered) > 0);
        assert!(r.merged.get(Metric::DdgBytesStored) > 0);
        assert!(r.merged.get(Metric::McMessages) > 0);
        assert!(r.merged.get(Metric::McEpochs) > 0);
        assert!(r.merged.hist(Metric::McQueueDepth).count() > 0);
        assert!(r.merged.hist(Metric::McShardEpochNanos).count() > 0);
        assert!(r.merged.get(Metric::DbiInstrs) > 0);
        assert!(r.merged.get(Metric::DbiBlockEntries) > 0);
        assert!(r.merged.get(Metric::SlQueries) > 0);
        assert!(r.merged.get(Metric::SlBatches) > 0);
        assert!(r.merged.get(Metric::SlSnapshotReuse) > 0);
        assert!(r.merged.hist(Metric::SlSliceSteps).count() > 0);
        assert!(r.merged.hist(Metric::SlSnapshotNanos).count() > 0);
        assert!(r.merged.get(Metric::DdgIndexEdges) > 0, "l3 tracer window must be indexed");
        assert!(r.merged.get(Metric::TaintScHits) > 0, "loop kernels must hit the cache");
        assert!(r.merged.get(Metric::TaintScRegions) > 0);
        assert!(r.merged.get(Metric::TaintScBytesSaved) > 0);

        // The optimization ladder must be monotone: every extra
        // optimization (and the summaries rung on top) can only shrink
        // the stored trace.
        assert_eq!(r.ddg_levels.len(), 5);
        for pair in r.ddg_levels.windows(2) {
            assert!(
                pair[1].bytes_per_instr <= pair[0].bytes_per_instr + 1e-9,
                "{} -> {}: density went up ({} -> {})",
                pair[0].name,
                pair[1].name,
                pair[0].bytes_per_instr,
                pair[1].bytes_per_instr
            );
        }
        assert!(r.ddg_levels[3].compression_vs_raw > r.ddg_levels[0].compression_vs_raw);
        let (l3, l4) = (&r.ddg_levels[3], &r.ddg_levels[4]);
        assert_eq!(l4.name, "l4_summaries");
        assert!(l4.deps_summarized > 0, "summarized sweeps must elide dependences");
        assert!(
            l4.bytes_per_instr < l3.bytes_per_instr,
            "the summaries rung must shrink the suite mean ({} !< {})",
            l4.bytes_per_instr,
            l3.bytes_per_instr
        );
        for l in &r.ddg_levels[..4] {
            assert_eq!(l.deps_summarized, 0, "{}: only l4 elides", l.name);
        }
    }

    #[test]
    fn obs_json_has_stable_shape() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let v = obs_report(Scale::Test).to_value();
        let json = serde_json::to_string_pretty(&v).unwrap();
        assert!(json.contains("schema_version"));
        assert!(json.contains("sections"));
        assert!(json.contains("ddg_levels"));
        // Every metric path appears even if zero (stable schema).
        for m in Metric::ALL {
            let leaf = m.path().rsplit('/').next().unwrap();
            assert!(json.contains(leaf), "metric {} missing from JSON", m.path());
        }
        // And the document round-trips through the parser.
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(crate::compare::flatten(&back).len(), crate::compare::flatten(&v).len());
    }
}
