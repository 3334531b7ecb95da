//! Traced run (`--trace 1`): the per-layer ladder, timed from outside.
//!
//! Every layer is reached through its public entry point, with a span
//! recorded around each call. Over the workload's distinct programs,
//! each round runs the cumulative ladder
//!
//! ```text
//! vm        Machine::run
//! null      + Engine dispatch (NullTool)
//! taint     Engine + TaintEngine<PcTaint>
//! ontrac    + OnTrac (optimized, slice index, eviction-heavy window)
//! cold      ONTRAC rung with the cold tier on a durable segment store
//! lineage   + LineageEngine (roBDD)
//! sentinel  + Sentinel (PC-taint + sink observer + boundary policy)
//! ```
//!
//! plus stream capture, `TaintEngine::process` and
//! `LineageEngine::process` over the captured streams, the epoch runners
//! at 1 and 2 workers (with the taint summarize/compose split timed by
//! calling `summarize_epoch` and `apply_summary` directly), live and
//! cold slice queries, and the workload's own pipeline with and without
//! spans (the tracing overhead). Rounds repeat until `--seconds` have
//! elapsed (at least [`MIN_ROUNDS`]); every timing is a median over
//! rounds. Spans are written out as Chrome trace-event JSON at the end.
//!
//! Reconciliation: the published per-layer figures — VM, dispatch, the
//! isolated taint and lineage costs, and the ONTRAC, cold-tier and
//! sentinel rung deltas — must sum to the top (sentinel) rung within
//! [`RECONCILE_TOLERANCE`].

use crate::common::{self, Query, EPOCH_LEN, ID_BITS};
use crate::e2e::{Opts, Workload};
use crate::util::{median, quantile, secs, Checks, Metrics, Rng, Spans};
use dift_dbi::{Engine, NullTool, Tool};
use dift_ddg::{OnTrac, OnTracConfig};
use dift_lineage::{BddBackend, LineageEngine};
use dift_sentinel::{apply_policy, combine_events, untrusted_input_boundary, Sentinel};
use dift_taint::{summarize_epoch, IoBase, PcTaint, TaintEngine, TaintPolicy};
use dift_vm::StepEffects;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Ladder rounds measured at minimum, however long they take.
const MIN_ROUNDS: usize = 1;

/// Largest relative gap between the summed per-layer figures and the
/// top rung that still counts as reconciled. The isolated taint and
/// lineage costs run alone over a captured stream, so they miss what
/// sharing caches with the other tools costs inline; across the four
/// workloads that gap measured 0–18%, largest where lineage dominates.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// Slice queries per program, round and tier in the slicing probe:
/// enough over a workload's programs that each tier's p99 has ten or
/// more samples beyond it.
const PROBE_QUERIES: u64 = 150;

/// Worker threads of the epoch runners' parallel configuration.
const EPOCH_WORKERS: usize = 2;

pub struct Report {
    pub metrics: Metrics,
    pub checks: Checks,
    pub detail: String,
}

const RUNGS: [&str; 7] = ["vm", "null", "taint", "ontrac", "cold", "lineage", "sentinel"];

/// Per-round samples (ns over all programs unless noted).
#[derive(Default)]
struct Samples {
    rung: [Vec<f64>; 7],
    engine_new: Vec<f64>,
    capture: Vec<f64>,
    taint_iso: Vec<f64>,
    lineage_iso: Vec<f64>,
    sentinel_eval: Vec<f64>,
    epoch_w1: Vec<f64>,
    epoch_w2: Vec<f64>,
    summarize: Vec<f64>,
    compose: Vec<f64>,
    pipe_plain: Vec<f64>,
    pipe_traced: Vec<f64>,
    live_us: Vec<f64>,
    cold_us: Vec<f64>,
    slice_steps: Vec<f64>,
}

/// Exact counts from the last round.
#[derive(Default)]
struct Counts {
    instrs: u64,
    bare_cycles: u64,
    pipe_cycles: u64,
    tainted_instrs: u64,
    alerts: u64,
    deps_considered: u64,
    deps_recorded: u64,
    cold_bytes: u64,
    cold_records: u64,
    disk_bytes: u64,
    index_bytes: u64,
    memo_hits: u64,
    memo_misses: u64,
    unions: u64,
    bdd_nodes: u64,
    bdd_bytes: u64,
    cross_epoch_deps: u64,
    arena_nodes: u64,
    epochs_recovered: u64,
}

pub fn run(o: &Opts) -> Report {
    // One instance of each distinct program: repeats add no layer
    // behaviour, only time.
    let mut seen = HashSet::new();
    let progs: Vec<_> = o
        .workload
        .programs(o.seed, o.scale)
        .into_iter()
        .filter(|p| seen.insert(p.w.name.clone()))
        .collect();
    let mut spans = Spans::new();
    let mut s = Samples::default();
    let mut c = Counts::default();
    let mut checks = Checks::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs(start) < o.seconds {
        let dir = o.work_dir.join(format!("ladder-round{rounds}"));
        std::fs::create_dir_all(&dir).expect("create the durable store's directory");
        spans.enter("round");
        round(o, &progs, &dir, rounds as u64, &mut spans, &mut s, &mut c, &mut checks);
        spans.exit();
        let _ = std::fs::remove_dir_all(&dir);
        rounds += 1;
    }
    let spans_path = o.work_dir.join("spans.json");
    if let Err(e) = std::fs::write(&spans_path, spans.to_chrome_json()) {
        eprintln!("perfbench: cannot write spans to {}: {e}", spans_path.display());
    }
    report(o, rounds, &s, &c, checks, spans.spans.len())
}

/// Run `tools` over a fresh engine for `p`, returning (ns, result).
fn timed_engine(
    p: &crate::workloads::Prog,
    tools: &mut [&mut dyn Tool],
    engine_new_ns: Option<&mut f64>,
) -> (f64, dift_vm::RunResult) {
    let t = Instant::now();
    let mut e = Engine::new(p.w.machine());
    if let Some(ns) = engine_new_ns {
        *ns += secs(t) * 1e9;
    }
    let t = Instant::now();
    let r = e.run(tools);
    (secs(t) * 1e9, r)
}

#[allow(clippy::too_many_arguments)]
fn round(
    o: &Opts,
    progs: &[crate::workloads::Prog],
    dir: &Path,
    round: u64,
    spans: &mut Spans,
    s: &mut Samples,
    c: &mut Counts,
    checks: &mut Checks,
) {
    let policy = TaintPolicy::default();
    let mut rung = [0f64; 7];
    let mut engine_new = 0f64;
    let mut eval_ns = 0f64;
    *c = Counts::default();

    // Rung 1: the bare VM.
    spans.enter("rung.vm");
    for p in progs {
        let mut m = p.w.machine();
        spans.enter(&format!("vm:{}", p.w.name));
        let r = m.run();
        rung[0] += spans.exit() as f64;
        c.instrs += r.steps;
        c.bare_cycles += r.cycles;
    }
    spans.exit();

    // Rung 2: dispatch only; Engine::new is the DBI's set-up cost.
    spans.enter("rung.null");
    for p in progs {
        let (ns, _) = timed_engine(p, &mut [&mut NullTool], Some(&mut engine_new));
        rung[1] += ns;
    }
    spans.exit();

    // Capture (epoch2's set-up) — the streams feed the isolated layers.
    spans.enter("capture");
    let t = Instant::now();
    let streams: Vec<(Vec<StepEffects>, usize)> = progs
        .iter()
        .map(|p| {
            let m = p.w.machine();
            let mem = m.mem_words();
            (common::capture(Engine::new(m)), mem)
        })
        .collect();
    s.capture.push(secs(t) * 1e9);
    spans.exit();

    // Rungs 3–7: cumulative tool sets.
    for (k, name) in RUNGS.iter().enumerate().skip(2) {
        spans.enter(&format!("rung.{name}"));
        for (i, p) in progs.iter().enumerate() {
            let mem = p.w.machine().mem_words();
            let mut taint = TaintEngine::<PcTaint>::new(policy);
            let cfg = if k == 3 {
                OnTracConfig::optimized(common::WINDOW_BYTES)
            } else {
                common::ontrac_cold(&dir.join(format!("{name}-{i}")))
            };
            let mut tracer = OnTrac::new(&p.w.program, mem, cfg);
            let mut lineage = LineageEngine::new(BddBackend::new(ID_BITS));
            let mut sentinel = Sentinel::new(policy, untrusted_input_boundary());
            let mut tools: Vec<&mut dyn Tool> = vec![&mut taint];
            if k >= 3 {
                tools.push(&mut tracer);
            }
            if k >= 5 {
                tools.push(&mut lineage);
            }
            if k >= 6 {
                tools.push(&mut sentinel);
            }
            spans.enter(&format!("{name}:{}", p.w.name));
            let (ns, r) = timed_engine(p, &mut tools, None);
            spans.exit();
            drop(tools);
            rung[k] += ns;
            match k {
                2 => {
                    c.tainted_instrs += taint.stats().tainted_instrs;
                    c.alerts += taint.alerts.len() as u64;
                }
                4 => {
                    let st = tracer.stats();
                    c.deps_considered += st.deps_considered;
                    c.deps_recorded += st.deps_recorded;
                    let cold = tracer.cold_store().expect("cold tier on");
                    c.cold_bytes += cold.bytes();
                    c.cold_records += cold.record_count();
                    c.disk_bytes += cold.disk_bytes();
                    c.index_bytes += tracer.slice_index().map(|x| x.approx_bytes()).unwrap_or(0);
                    spans.enter(&format!("slicing:{}", p.w.name));
                    probe_slicing(o, i, round, &tracer, s, c);
                    spans.exit();
                }
                5 => {
                    c.unions += lineage.stats().unions;
                    let mgr = lineage.backend().manager();
                    c.bdd_nodes += mgr.node_count() as u64;
                    c.bdd_bytes += mgr.bytes() as u64;
                }
                6 => {
                    spans.enter(&format!("sentinel.eval:{}", p.w.name));
                    let t = Instant::now();
                    let events = combine_events(
                        sentinel.observer.observations(),
                        &sentinel.taint.alerts,
                        &sentinel.taint.output_labels,
                    );
                    let outcome = apply_policy(&sentinel.policy, events);
                    eval_ns += secs(t) * 1e9;
                    spans.exit();
                    checks.check(Some(&outcome) == sentinel.outcome.as_ref(), || {
                        format!("{}: re-evaluated sentinel outcome differs", p.w.name)
                    });
                }
                _ => {}
            }
            if o.workload_pipeline_rung() == k {
                c.pipe_cycles += r.cycles;
            }
            checks.check(r.status.is_clean(), || format!("{}: {name} rung failed", p.w.name));
        }
        spans.exit();
    }
    for (k, ns) in rung.iter().enumerate() {
        s.rung[k].push(*ns);
    }
    s.engine_new.push(engine_new);
    s.sentinel_eval.push(eval_ns);

    // Isolated layers over the captured streams.
    spans.enter("taint.process");
    let t = Instant::now();
    for (stream, mem) in &streams {
        let mut e = TaintEngine::<PcTaint>::new(policy);
        e.pre_size(*mem);
        for fx in stream {
            e.process(fx);
        }
        std::hint::black_box(e.tainted_words());
    }
    s.taint_iso.push(secs(t) * 1e9);
    spans.exit();
    spans.enter("lineage.process");
    let t = Instant::now();
    for (stream, _) in &streams {
        let mut e = LineageEngine::new(BddBackend::new(ID_BITS));
        for fx in stream {
            e.process(fx);
        }
        std::hint::black_box(e.stats().unions);
    }
    s.lineage_iso.push(secs(t) * 1e9);
    spans.exit();

    // Epoch runners at 1 and 2 workers, plus the summarize/compose split.
    let (mut w1, mut w2, mut summarize, mut compose) = (0f64, 0f64, 0f64, 0f64);
    for (p, (stream, mem)) in progs.iter().zip(&streams) {
        for workers in [1, EPOCH_WORKERS] {
            spans.enter(&format!("epoch.w{workers}:{}", p.w.name));
            let t = Instant::now();
            let run = common::epoch_pipeline(stream, &p.w.program, *mem, workers);
            let ns = secs(t) * 1e9;
            spans.exit();
            let stats = &run.lineage.stats;
            if workers == 1 {
                w1 += ns;
                summarize += stats.shard_nanos_total as f64;
                compose += stats.compose_nanos as f64;
            } else {
                w2 += ns;
                c.cross_epoch_deps += stats.cross_epoch_deps;
                c.arena_nodes += stats.arena_nodes;
            }
            c.epochs_recovered += run.epochs_recovered;
        }
        spans.enter(&format!("epoch.split:{}", p.w.name));
        let (sum_ns, comp_ns) = taint_split(stream, *mem, policy);
        spans.exit();
        summarize += sum_ns;
        compose += comp_ns;
    }
    s.epoch_w1.push(w1);
    s.epoch_w2.push(w2);
    s.summarize.push(summarize);
    s.compose.push(compose);
    checks.check(c.epochs_recovered == 0, || format!("{} epochs recovered", c.epochs_recovered));

    // The workload's own pipeline, untraced then traced: the overhead.
    let t = Instant::now();
    pipeline(o.workload, progs, &streams, dir, None);
    s.pipe_plain.push(secs(t) * 1e9);
    spans.enter("pipeline");
    let t = Instant::now();
    pipeline(o.workload, progs, &streams, dir, Some(spans));
    s.pipe_traced.push(secs(t) * 1e9);
    spans.exit();
}

/// The taint epoch pipeline's two phases, timed apart: summarize every
/// epoch, then compose the summaries in order.
fn taint_split(stream: &[StepEffects], mem: usize, policy: TaintPolicy) -> (f64, f64) {
    let t = Instant::now();
    let mut base = IoBase::default();
    let mut sums = Vec::new();
    for chunk in stream.chunks(EPOCH_LEN) {
        sums.push(summarize_epoch::<PcTaint>(chunk, policy, &base));
        base.advance(chunk);
    }
    let summarize = secs(t) * 1e9;
    let t = Instant::now();
    let mut e = TaintEngine::<PcTaint>::new(policy);
    e.pre_size(mem);
    for sum in &sums {
        e.apply_summary(sum);
    }
    std::hint::black_box(e.tainted_words());
    (summarize, secs(t) * 1e9)
}

/// Live queries start inside the window and walk the live snapshot;
/// cold ones start behind the eviction horizon and need the cold tier.
fn probe_slicing(
    o: &Opts,
    prog: usize,
    round: u64,
    tracer: &OnTrac,
    s: &mut Samples,
    c: &mut Counts,
) {
    let Some((lo, hi)) = tracer.buffer().window() else { return };
    let snap = tracer.slice_index().expect("index on").snapshot();
    let cold = tracer.cold_store().expect("cold tier on");
    let mut rng = Rng::new(o.seed, 400 + round * 64 + prog as u64);
    for k in 0..PROBE_QUERIES * 2 {
        let live = k % 2 == 0;
        let crit = if live { lo + rng.below(hi - lo + 1) } else { rng.below(lo.max(1)) };
        let q = Query { prog, kind: rng.below(2) as u8, mask: rng.below(3) as u8, crit };
        let t = Instant::now();
        let slice = if live {
            common::answer_over(&snap, &q)
        } else {
            common::answer_stitched(&snap, cold, &q).0
        };
        let us = secs(t) * 1e6;
        if live { &mut s.live_us } else { &mut s.cold_us }.push(us);
        s.slice_steps.push(slice.len() as f64);
    }
    c.memo_hits += cold.memo_hits();
    c.memo_misses += cold.memo_misses();
}

impl Opts {
    /// The ladder rung whose tool set is this workload's pipeline (its
    /// cycles give the modeled slowdown).
    fn workload_pipeline_rung(&self) -> usize {
        match self.workload {
            Workload::Monitor => 2,
            Workload::Debug => 4,
            Workload::Provenance => 6,
            // Serial-equivalent of the epoch runners: taint + lineage
            // inline is the closest cycle-charged configuration.
            Workload::Epoch2 => 5,
        }
    }
}

/// The workload's pipeline over `progs` (spans per program when traced).
fn pipeline(
    w: Workload,
    progs: &[crate::workloads::Prog],
    streams: &[(Vec<StepEffects>, usize)],
    dir: &Path,
    mut spans: Option<&mut Spans>,
) {
    let policy = TaintPolicy::default();
    for (i, (p, (stream, mem))) in progs.iter().zip(streams).enumerate() {
        let mut e = Engine::new(p.w.machine());
        if let Some(sp) = spans.as_deref_mut() {
            sp.enter(&format!("pipeline:{}", p.w.name));
        }
        match w {
            Workload::Monitor => {
                e.run_tool(&mut TaintEngine::<PcTaint>::new(policy));
            }
            Workload::Debug => {
                let cfg = common::ontrac_cold(&dir.join(format!("pipeline-{i}")));
                e.run_tool(&mut OnTrac::new(&p.w.program, *mem, cfg));
            }
            Workload::Provenance => {
                e.run_tool(&mut Sentinel::new(policy, untrusted_input_boundary()));
            }
            Workload::Epoch2 => {
                common::epoch_pipeline(stream, &p.w.program, *mem, EPOCH_WORKERS);
            }
        }
        if let Some(sp) = spans.as_deref_mut() {
            sp.exit();
        }
        let _ = std::fs::remove_dir_all(dir.join(format!("pipeline-{i}")));
    }
}

fn report(
    o: &Opts,
    rounds: usize,
    s: &Samples,
    c: &Counts,
    checks: Checks,
    nspans: usize,
) -> Report {
    let instrs = c.instrs.max(1) as f64;
    let per = |v: &[f64]| median(v) / instrs;
    let rung: Vec<f64> = s.rung.iter().map(|v| per(v)).collect();
    let delta = |k: usize| rung[k] - rung[k - 1];
    let taint_iso = per(&s.taint_iso);
    let lineage_iso = per(&s.lineage_iso);
    let top = rung[6];
    let parts = rung[0] + delta(1) + taint_iso + delta(3) + delta(4) + lineage_iso + delta(6);
    let reconcile_err = (parts - top).abs() / top;
    let plain = median(&s.pipe_plain);
    let overhead = median(&s.pipe_traced) / plain - 1.0;
    let measured_slowdown = plain / median(&s.rung[0]);
    let modeled_slowdown = c.pipe_cycles as f64 / c.bare_cycles.max(1) as f64;
    let cores = crate::util::host_cores();
    let mib = 1024.0 * 1024.0;
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    let mut m = Metrics::default();
    m.put("host.cores", cores as f64, "count");
    m.put("host.workers", o.workload.workers() as f64, "count");
    m.put("vm.ns_per_instr", rung[0], "ns/instr");
    m.put("dbi.ns_per_instr", delta(1), "ns/instr");
    m.put("dbi.setup_ms", median(&s.engine_new) / 1e6, "ms");
    m.put("dbi.capture_ns_per_instr", per(&s.capture), "ns/instr");
    m.put("taint.ns_per_instr", taint_iso, "ns/instr");
    m.put("taint.rung_delta_ns_per_instr", delta(2), "ns/instr");
    m.put("taint.tainted_instr_frac", frac(c.tainted_instrs, c.instrs), "frac");
    m.put("taint.alerts", c.alerts as f64, "count");
    m.put("ddg.ontrac_ns_per_instr", delta(3), "ns/instr");
    m.put("ddg.cold_ns_per_instr", delta(4), "ns/instr");
    m.put("ddg.deps_recorded_frac", frac(c.deps_recorded, c.deps_considered), "frac");
    m.put("ddg.cold_bytes_per_record", frac(c.cold_bytes, c.cold_records), "B/record");
    m.put("ddg.disk_bytes", c.disk_bytes as f64, "B");
    m.put("ddg.index_mib", c.index_bytes as f64 / mib, "MiB");
    m.put("slicing.live_us.p50", quantile(&s.live_us, 0.5), "us");
    m.put("slicing.live_us.p99", quantile(&s.live_us, 0.99), "us");
    m.put("slicing.cold_us.p50", quantile(&s.cold_us, 0.5), "us");
    m.put("slicing.cold_us.p99", quantile(&s.cold_us, 0.99), "us");
    m.put(
        "slicing.mean_slice_steps",
        s.slice_steps.iter().sum::<f64>() / s.slice_steps.len().max(1) as f64,
        "count",
    );
    m.put("slicing.memo_hit_frac", frac(c.memo_hits, c.memo_hits + c.memo_misses), "frac");
    m.put("lineage.ns_per_instr", lineage_iso, "ns/instr");
    m.put("lineage.rung_delta_ns_per_instr", delta(5), "ns/instr");
    m.put("lineage.unions", c.unions as f64, "count");
    m.put("robdd.nodes", c.bdd_nodes as f64, "count");
    m.put("robdd.mib", c.bdd_bytes as f64 / mib, "MiB");
    m.put("sentinel.ns_per_instr", delta(6), "ns/instr");
    m.put("sentinel.eval_ms", median(&s.sentinel_eval) / 1e6, "ms");
    m.put("multicore.summarize_ns_per_instr", per(&s.summarize), "ns/instr");
    m.put("multicore.compose_ns_per_instr", per(&s.compose), "ns/instr");
    m.put("multicore.scaling_x", median(&s.epoch_w1) / median(&s.epoch_w2), "x");
    m.put("multicore.scaling_measured", if cores >= EPOCH_WORKERS { 1.0 } else { 0.0 }, "bool");
    m.put("multicore.cross_epoch_deps", c.cross_epoch_deps as f64, "count");
    m.put("multicore.arena_nodes", c.arena_nodes as f64, "count");
    m.put("multicore.epochs_recovered", c.epochs_recovered as f64, "count");
    m.put("ladder.top_ns_per_instr", top, "ns/instr");
    m.put("reconcile.err_frac", reconcile_err, "frac");
    m.put("trace.overhead_frac", overhead, "frac");
    m.put("calib.measured_slowdown_x", measured_slowdown, "x");
    m.put("calib.modeled_slowdown_x", modeled_slowdown, "x");
    m.put("calib.measured_over_modeled", measured_slowdown / modeled_slowdown, "x");

    eprintln!("ladder ({rounds} rounds, {nspans} spans, {} instrs per round):", c.instrs);
    for (k, name) in RUNGS.iter().enumerate() {
        let d = if k == 0 { rung[0] } else { delta(k) };
        eprintln!("  rung {name:9} {:>10.1} ns/instr   delta {d:>10.1}", rung[k]);
    }
    eprintln!(
        "  reconcile: parts {parts:.1} vs top {top:.1} ns/instr, err {:.1}% (tolerance {:.0}%)",
        reconcile_err * 100.0,
        RECONCILE_TOLERANCE * 100.0
    );
    eprintln!(
        "  calibration: measured slowdown {measured_slowdown:.2}x, modeled {modeled_slowdown:.2}x"
    );
    let rungs_json: Vec<String> =
        RUNGS.iter().zip(&rung).map(|(n, v)| format!("\"{n}\":{v:?}")).collect();
    let detail = format!(
        "\"rounds\":{rounds},\"spans\":{nspans},\"ladder_ns_per_instr\":{{{}}},\
         \"reconcile\":{{\"parts_ns_per_instr\":{parts:?},\"top_ns_per_instr\":{top:?},\
         \"err_frac\":{reconcile_err:?},\"tolerance\":{RECONCILE_TOLERANCE:?},\"ok\":{}}},\
         \"calibration\":{{\"measured_slowdown_x\":{measured_slowdown:?},\
         \"modeled_slowdown_x\":{modeled_slowdown:?}}},\"trace_overhead_frac\":{overhead:?},\
         \"slicing_samples\":{{\"live\":{},\"cold\":{}}}",
        rungs_json.join(","),
        reconcile_err <= RECONCILE_TOLERANCE,
        s.live_us.len(),
        s.cold_us.len()
    );
    Report { metrics: m, checks, detail }
}
