//! End-to-end runs (`--trace 0`): each workload's whole pipeline, timed
//! pass by pass with no spans, then checked against its oracle outside
//! the timed region.
//!
//! A *pass* builds the workload from scratch (one `setup_s` sample),
//! runs every program bare (`Machine::run`) and then, right after,
//! through the pipeline on the same inputs, and issues the workload's
//! seeded queries, each timed alone. Every pass repeats the same work;
//! passes repeat until `--seconds` have elapsed (after one unrecorded
//! warm-up pass), and [`finish`] reduces them.
//!
//! What a "query" is depends on the workload: a kv request served under
//! monitoring (`monitor`), a checked stitched slice (`debug`), an output
//! lineage lookup (`provenance`), a slice over the merged index
//! (`epoch2`). Likewise `trace_bytes_per_instr` counts the analysis
//! record each pipeline keeps: the alert and output-label log, the
//! ONTRAC trace, the sink-observation lineage sets, the merged index.

use crate::common::{self, Query, ID_BITS};
use crate::util::{peak_rss_mib, probe, quantile, secs, Checks, Metrics, Rng, PROBE_NOMINAL_S};
use crate::workloads::{self, KernelPlan, Prog, Scale};
use dift_dbi::Engine;
use dift_ddg::{OnTrac, OnTracConfig, SliceIndex};
use dift_lineage::{BddBackend, LineageEngine};
use dift_sentinel::{untrusted_input_boundary, Sentinel};
use dift_slicing::Slicer;
use dift_taint::{PcTaint, ReferenceTaintEngine, TaintEngine, TaintLabel, TaintPolicy};
use dift_vm::{Machine, StepEffects};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Passes measured at minimum, however long they take: every query
/// group runs at least once.
const MIN_PASSES: u64 = QUERY_GROUPS;

/// The seeded queries are split into this many groups and pass `n` runs
/// group `n % QUERY_GROUPS`: each query is timed every few passes, spread
/// over the whole run, and a run covers several times more distinct
/// queries than one pass issues.
const QUERY_GROUPS: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Monitor,
    Debug,
    Provenance,
    Epoch2,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "monitor" => Workload::Monitor,
            "debug" => Workload::Debug,
            "provenance" => Workload::Provenance,
            "epoch2" => Workload::Epoch2,
            _ => return None,
        })
    }

    /// Analysis worker threads the pipeline uses.
    pub fn workers(self) -> usize {
        match self {
            Workload::Epoch2 => 2,
            _ => 1,
        }
    }

    /// The workload's guest programs: program assembly plus seeded inputs.
    pub fn programs(self, seed: u64, scale: Scale) -> Vec<Prog> {
        match self {
            Workload::Monitor => {
                let mut v = workloads::kernels(seed, scale, KernelPlan::Full);
                v.push(workloads::kv_server(seed, scale, false));
                v
            }
            Workload::Debug => workloads::kernels(seed, scale, KernelPlan::Full),
            // Every query walks the merged index of *all* dependences, so
            // the streams stay a quarter the size to keep queries many.
            Workload::Epoch2 => workloads::kernels(seed, scale, KernelPlan::Quarter),
            Workload::Provenance => {
                let mut v = workloads::science(seed, scale);
                v.push(workloads::kv_server(seed, scale, true));
                v
            }
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub work_dir: PathBuf,
}

impl Opts {
    /// Distinct seeded queries, repeated identically every pass. Many
    /// thousands, so that the p99 of one seed's query mix sits close to
    /// another seed's.
    pub fn queries_per_pass(&self) -> u64 {
        match (self.scale, self.workload) {
            (Scale::Tiny, _) => 20,
            (Scale::Full, Workload::Epoch2) => 3_000,
            (Scale::Full, _) => 4_000,
        }
    }
}

/// What an end-to-end run reports.
pub struct Report {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Same-run modeled slowdown (`RunResult.cycles` ratio), for the
    /// calibration table.
    pub modeled_slowdown_x: f64,
    pub passes: usize,
    pub queries: usize,
    /// `analysis_mips` before host-speed normalization.
    pub raw_mips: f64,
    /// 10th and 90th percentile of the probed host speed over nominal.
    pub host_speed: (f64, f64),
}

/// One pass's samples; timings are per program, in program order.
struct PassRec {
    /// Which query group the pass issued.
    group: u64,
    setup_s: f64,
    bare_s: Vec<f64>,
    pipe_s: Vec<f64>,
    /// Per program: `PROBE_NOMINAL_S / probe()` measured just before it.
    speed: Vec<f64>,
    queries_us: Vec<f64>,
}

/// Per-run accumulators.
#[derive(Default)]
struct Acc {
    passes: Vec<PassRec>,
    checks: Checks,
    pipe_cycles: u64,
    bare_cycles: u64,
    /// Analysis record bytes and guest instructions of one pass.
    record_bytes: f64,
    instrs: u64,
}

/// Times each program's bare run and its pipeline run back to back, so
/// the two halves of every slowdown sample see the same host state, and
/// probes the host's speed right before them.
#[derive(Default)]
struct Clock {
    bare_s: Vec<f64>,
    pipe_s: Vec<f64>,
    speed: Vec<f64>,
    bare_cycles: u64,
}

impl Clock {
    fn bare(&mut self, m: &mut Machine) {
        self.speed.push(PROBE_NOMINAL_S / probe());
        let t = Instant::now();
        let r = m.run();
        self.bare_s.push(secs(t));
        self.bare_cycles += r.cycles;
    }

    fn pipe<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.pipe_s.push(secs(t));
        out
    }

    /// Factor taking the current program's times to nominal host speed.
    fn speed(&self) -> f64 {
        self.speed.last().copied().unwrap_or(1.0)
    }

    fn finish(self, acc: &mut Acc, group: u64, setup_s: f64, instrs: u64, queries_us: Vec<f64>) {
        acc.bare_cycles = self.bare_cycles;
        acc.instrs = instrs;
        acc.passes.push(PassRec {
            group,
            setup_s,
            bare_s: self.bare_s,
            pipe_s: self.pipe_s,
            speed: self.speed,
            queries_us,
        });
    }
}

/// The programs of one pass, ready to run: a machine per program for the
/// bare run and an engine (leaders discovered) per program for the
/// pipeline.
struct Built {
    progs: Vec<Prog>,
    bare: Vec<Machine>,
    engines: Vec<Engine>,
}

fn build(o: &Opts) -> Built {
    let progs = o.workload.programs(o.seed, o.scale);
    let bare = progs.iter().map(|p| p.w.machine()).collect();
    let engines = progs.iter().map(|p| Engine::new(p.w.machine())).collect();
    Built { progs, bare, engines }
}

/// Run a pass's set-up, returning its result and its time at nominal
/// host speed.
fn timed_setup<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let speed = PROBE_NOMINAL_S / probe();
    let t = Instant::now();
    let out = f();
    (out, secs(t) * speed)
}

/// Repeat `pass` (after one unrecorded warm-up) until the time budget
/// is spent.
fn drive(o: &Opts, acc: &mut Acc, mut pass: impl FnMut(u64, &mut Acc)) -> usize {
    let mut warm = Acc::default();
    pass(0, &mut warm);
    acc.checks = warm.checks;
    let start = Instant::now();
    let mut n = 0u64;
    while n < MIN_PASSES || secs(start) < o.seconds {
        n += 1;
        pass(n, acc);
    }
    n as usize
}

fn group_of(pass: u64) -> u64 {
    pass % QUERY_GROUPS
}

/// 10th percentile, per position, across the passes' samples: every
/// pass times the same programs in the same order, and every pass of a
/// query group the same queries in the same order.
fn fast_tail(samples: &[&Vec<f64>]) -> Vec<f64> {
    let n = samples.iter().map(|x| x.len()).min().unwrap_or(0);
    (0..n).map(|i| quantile(&samples.iter().map(|x| x[i]).collect::<Vec<_>>(), 0.1)).collect()
}

/// Reduce the passes to the end-to-end metrics.
///
/// The host is shared: other tenants slow whole stretches of a run, by
/// up to 2x, for seconds at a time. Two measures keep the figures
/// steady across runs:
///
/// * every time behind an absolute metric (a program's pipeline run,
///   a query, a set-up) is scaled to nominal host speed by the
///   [`probe`] taken just before it;
/// * every pass repeats identical work — the same programs on the same
///   inputs, each query group the same seeded queries — so each program
///   run and each query is timed once per pass, and its steady cost is
///   the 10th percentile over passes.
///
/// Then `analysis_mips` comes from the sum of the programs' steady
/// nominal pipeline times; `slowdown_x` is the ratio of the sums of the
/// steady raw pipeline and bare times (each pair measured back to back,
/// so it needs no probe); `query_p50_us` / `query_p99_us` are
/// percentiles over the queries' steady latencies (thousands of distinct
/// queries per run, so the p99 has ten or more beyond it); `setup_s` is
/// the 10th percentile of the per-pass set-up times. The raw (unscaled)
/// throughput and the probed host speed go to the stamp line.
fn finish(o: &Opts, acc: Acc, passes: usize, peak_rss: f64) -> Report {
    let p = &acc.passes;
    let steady = |v: Vec<&Vec<f64>>| -> f64 { fast_tail(&v).iter().sum() };
    let nominal: Vec<Vec<f64>> =
        p.iter().map(|x| x.pipe_s.iter().zip(&x.speed).map(|(t, k)| t * k).collect()).collect();
    let pipe_nominal = steady(nominal.iter().collect());
    let pipe = steady(p.iter().map(|x| &x.pipe_s).collect());
    let bare = steady(p.iter().map(|x| &x.bare_s).collect());
    let speeds: Vec<f64> = p.iter().flat_map(|x| x.speed.iter().copied()).collect();
    let queries: Vec<f64> = (0..QUERY_GROUPS)
        .flat_map(|g| {
            let same: Vec<_> = p.iter().filter(|x| x.group == g).map(|x| &x.queries_us).collect();
            fast_tail(&same)
        })
        .collect();
    let setup: Vec<f64> = p.iter().map(|x| x.setup_s).collect();

    let mut m = Metrics::default();
    m.put("setup_s", quantile(&setup, 0.1), "s");
    m.put("analysis_mips", acc.instrs as f64 / pipe_nominal / 1e6, "Minstr/s");
    m.put("slowdown_x", pipe / bare, "x");
    m.put("query_p50_us", quantile(&queries, 0.50), "us");
    m.put("query_p99_us", quantile(&queries, 0.99), "us");
    m.put("trace_bytes_per_instr", acc.record_bytes / acc.instrs.max(1) as f64, "B/instr");
    m.put("peak_rss_mib", peak_rss, "MiB");
    let raw_mips = acc.instrs as f64 / pipe / 1e6;
    let (slow, fast) = (quantile(&speeds, 0.1), quantile(&speeds, 0.9));
    eprintln!(
        "perfbench: {:?}: {passes} passes over {} distinct queries; raw {raw_mips:.3} Minstr/s; \
         host speed vs nominal {slow:.2}..{fast:.2}",
        o.workload,
        queries.len()
    );
    Report {
        metrics: m,
        checks: acc.checks,
        modeled_slowdown_x: acc.pipe_cycles as f64 / acc.bare_cycles.max(1) as f64,
        passes,
        queries: queries.len(),
        raw_mips,
        host_speed: (slow, fast),
    }
}

pub fn run(o: &Opts) -> Report {
    match o.workload {
        Workload::Monitor => monitor(o),
        Workload::Debug => debug(o),
        Workload::Provenance => provenance(o),
        Workload::Epoch2 => epoch2(o),
    }
}

/// Oracle shared by every pipeline that runs the guest: each program's
/// outputs equal its bare run's.
fn check_outputs(acc: &mut Acc, progs: &[Prog], engines: &[Engine], bare: &[Machine]) {
    for ((p, e), b) in progs.iter().zip(engines).zip(bare) {
        let m = e.machine();
        acc.checks.check(m.status().is_clean() && common::outputs(m) == common::outputs(b), || {
            format!("{}: guest outputs differ from the bare run", p.w.name)
        });
    }
}

/// `monitor`: inline PC-taint with the default (alerting) policy over
/// the kernels and the kv server. Query = one kv request's latency.
fn monitor(o: &Opts) -> Report {
    let mut acc = Acc::default();
    let mut last: Vec<TaintEngine<PcTaint>> = Vec::new();
    let passes = drive(o, &mut acc, |_, acc| {
        let (Built { progs, mut bare, mut engines }, setup_s) = timed_setup(|| build(o));

        let mut clock = Clock::default();
        let mut taints = Vec::with_capacity(progs.len());
        let mut lat = Vec::new();
        let mut instrs = 0;
        let mut cycles = 0;
        for ((p, e), b) in progs.iter().zip(engines.iter_mut()).zip(bare.iter_mut()) {
            clock.bare(b);
            let mut taint = TaintEngine::<PcTaint>::new(TaintPolicy::default());
            let r = clock.pipe(|| {
                if p.is_server {
                    common::run_timing_requests(e, &mut [&mut taint], &mut lat)
                } else {
                    e.run_tool(&mut taint)
                }
            });
            if p.is_server {
                let speed = clock.speed();
                lat.iter_mut().for_each(|us| *us *= speed);
            }
            instrs += r.steps;
            cycles += r.cycles;
            taints.push(taint);
        }
        // The kv requests are the same every pass: one group.
        clock.finish(acc, 0, setup_s, instrs, lat);
        acc.pipe_cycles = cycles;
        acc.record_bytes = taints
            .iter()
            .map(|t| {
                t.alerts.len() * std::mem::size_of::<dift_taint::TaintAlert<PcTaint>>()
                    + t.output_labels.len() * std::mem::size_of::<(u16, u64, PcTaint)>()
            })
            .sum::<usize>() as f64;
        check_outputs(acc, &progs, &engines, &bare);
        last = taints;
    });
    let rss = peak_rss_mib();

    // Oracle: the taint state equals the reference engine's over the
    // captured stream.
    for (p, got) in o.workload.programs(o.seed, o.scale).iter().zip(&last) {
        let stream = common::capture(Engine::new(p.w.machine()));
        let mut want = ReferenceTaintEngine::<PcTaint>::new(TaintPolicy::default());
        for fx in &stream {
            want.process(fx);
        }
        acc.checks.check(taint_agrees(got, &want), || {
            format!("{}: taint state differs from the reference engine", p.w.name)
        });
    }
    finish(o, acc, passes, rss)
}

fn taint_agrees<T: TaintLabel>(e: &TaintEngine<T>, r: &ReferenceTaintEngine<T>) -> bool {
    let cells: Vec<(u64, T)> = e.shadow().iter_tainted().map(|(a, l)| (a, l.clone())).collect();
    e.output_labels == r.output_labels
        && e.alerts == r.alerts
        && e.tainted_words() == r.tainted_words()
        && cells == r.tainted_cells()
        && e.stats() == r.stats()
}

/// A recorded query answer, checked against the oracle after the run.
struct Answer {
    q: Query,
    fp: u64,
    degraded: bool,
}

/// Most answers checked against the offline slicer per run (an evenly
/// spaced sample when more were recorded), bounding the oracle's time.
const MAX_CHECKED_ANSWERS: usize = 3_000;

/// Check recorded answers against [`Slicer`] over each program's full
/// graph (built once per distinct program).
fn check_answers(acc: &mut Acc, progs: &[Prog], answers: &[Answer], cfg: &OnTracConfig) {
    let mut graphs: HashMap<String, dift_ddg::DdgGraph> = HashMap::new();
    let stride = answers.len().div_ceil(MAX_CHECKED_ANSWERS).max(1);
    for a in answers.iter().step_by(stride) {
        let p = &progs[a.q.prog];
        let g = graphs
            .entry(p.w.name.clone())
            .or_insert_with(|| common::full_graph(&p.w.program, p.w.machine(), cfg));
        let want = common::slice_fp(&common::answer_offline(&Slicer::new(g), &a.q));
        acc.checks.check(!a.degraded && a.fp == want, || {
            format!("{}: query {:?} disagrees with the offline slicer", p.w.name, a.q)
        });
    }
}

fn pass_dir(o: &Opts, pass: u64) -> PathBuf {
    o.work_dir.join(format!("debug-pass{pass}"))
}

/// `debug`: record with ONTRAC (optimized, slice index, eviction-heavy
/// window, cold tier spilling to a durable store), then one closed-loop
/// client issues seeded stitched queries. Query = one checked stitched
/// slice query.
fn debug(o: &Opts) -> Report {
    let mut acc = Acc::default();
    let mut answers: Vec<Answer> = Vec::new();
    let passes = drive(o, &mut acc, |pass, acc| {
        let dir = pass_dir(o, pass);
        let (Built { progs, mut bare, mut engines }, setup_s) = timed_setup(|| {
            std::fs::create_dir_all(&dir).expect("create the durable store's directory");
            build(o)
        });

        // Each program is recorded, then queried, then dropped, so only
        // one program's trace is resident at a time.
        let mut clock = Clock::default();
        let mut lat = Vec::new();
        let (mut cycles, mut instrs, mut bytes) = (0, 0, 0);
        let per_prog = o.queries_per_pass().div_ceil(progs.len() as u64);
        for (i, ((p, e), b)) in
            progs.iter().zip(engines.iter_mut()).zip(bare.iter_mut()).enumerate()
        {
            clock.bare(b);
            let cfg = common::ontrac_cold(&dir.join(i.to_string()));
            let mut tracer = OnTrac::new(&p.w.program, e.machine().mem_words(), cfg);
            let r = clock.pipe(|| e.run_tool(&mut tracer));
            cycles += r.cycles;
            instrs += r.steps;
            bytes += tracer.stats().bytes_appended;

            let snap = tracer.slice_index().expect("index on").snapshot();
            let cold = tracer.cold_store().expect("cold tier on");
            let mut rng = Rng::new(o.seed, 100 + 1000 * group_of(pass) + i as u64);
            for _ in 0..per_prog {
                let q = common::draw_query(&mut rng, i, r.steps, p.w.program.len());
                let t = Instant::now();
                let (slice, degraded) = common::answer_stitched(&snap, cold, &q);
                lat.push(secs(t) * 1e6 * clock.speed());
                if (1..=QUERY_GROUPS).contains(&pass) {
                    answers.push(Answer { q, fp: common::slice_fp(&slice), degraded });
                }
            }
        }
        acc.pipe_cycles = cycles;
        acc.record_bytes = bytes as f64;
        check_outputs(acc, &progs, &engines, &bare);
        clock.finish(acc, group_of(pass), setup_s, instrs, lat);
        let _ = std::fs::remove_dir_all(&dir);
    });
    let rss = peak_rss_mib();
    let progs = o.workload.programs(o.seed, o.scale);
    check_answers(&mut acc, &progs, &answers, &common::ontrac_cold(Path::new("")));
    finish(o, acc, passes, rss)
}

/// `provenance`: the Sentinel tool (PC-taint + roBDD sink observer +
/// `untrusted_input_boundary()`) over the science pipelines and the
/// multi-tenant kv server. Query = one output-lineage lookup.
fn provenance(o: &Opts) -> Report {
    let mut acc = Acc::default();
    let passes = drive(o, &mut acc, |pass, acc| {
        let (Built { progs, mut bare, mut engines }, setup_s) = timed_setup(|| build(o));

        let mut clock = Clock::default();
        let mut sentinels = Vec::with_capacity(progs.len());
        let mut cycles = 0;
        let mut instrs = 0;
        for (e, b) in engines.iter_mut().zip(bare.iter_mut()) {
            clock.bare(b);
            let mut s = Sentinel::new(TaintPolicy::default(), untrusted_input_boundary());
            let r = clock.pipe(|| e.run_tool(&mut s));
            cycles += r.cycles;
            instrs += r.steps;
            sentinels.push(s);
        }
        acc.pipe_cycles = cycles;
        check_outputs(acc, &progs, &engines, &bare);

        let mut retained = 0usize;
        for s in sentinels.iter_mut() {
            let obs = s.observer.observations();
            retained += obs.stores.iter().map(|x| x.4.len()).sum::<usize>()
                + obs.outputs.iter().map(|x| x.5.len()).sum::<usize>();
        }
        acc.record_bytes = (retained * 8) as f64;

        // Queries: lineage of a seeded output of a science pipeline.
        let science: Vec<usize> =
            (0..progs.len()).filter(|&i| progs[i].expected_lineage.is_some()).collect();
        let mut rng = Rng::new(o.seed, 200 + 1000 * group_of(pass));
        let mut lat = Vec::new();
        for k in 0..o.queries_per_pass() {
            let i = science[k as usize % science.len()];
            let expected = progs[i].expected_lineage.as_ref().expect("science pipeline");
            let idx = rng.below(expected.len() as u64);
            let lineage = sentinels[i].observer.lineage();
            let t = Instant::now();
            let got = lineage.output_lineage(0, idx).map(|s| s.to_vec());
            lat.push(secs(t) * 1e6 * clock.speed());
            acc.checks.check(got.as_deref() == Some(expected[idx as usize].as_slice()), || {
                format!("{}: output {idx} lineage differs from expected", progs[i].w.name)
            });
        }
        // Every output of the pass, once: the pipelines' ground truth.
        if pass == 1 {
            for &i in &science {
                let expected = progs[i].expected_lineage.as_ref().expect("science pipeline");
                let outs = &sentinels[i].observer.lineage().outputs;
                let ok = outs.len() == expected.len()
                    && outs.iter().zip(expected).all(|((_, _, got), want)| got == want);
                acc.checks.check(ok, || format!("{}: lineage differs", progs[i].w.name));
            }
        }
        clock.finish(acc, group_of(pass), setup_s, instrs, lat);
    });
    let rss = peak_rss_mib();
    finish(o, acc, passes, rss)
}

/// Capture every program's effects stream (part of `epoch2`'s set-up).
fn capture_all(engines: Vec<Engine>) -> Vec<(Vec<StepEffects>, usize)> {
    engines
        .into_iter()
        .map(|e| {
            let mem = e.machine().mem_words();
            (common::capture(e), mem)
        })
        .collect()
}

/// `epoch2`: captured streams through `epoch_process_stream` (taint) and
/// `shard_lineage_stream` (lineage + slice fragments) at 2 workers.
/// Query = one slice query over the merged index.
fn epoch2(o: &Opts) -> Report {
    let mut acc = Acc::default();
    let workers = o.workload.workers();
    type Last = Vec<(TaintEngine<PcTaint>, LineageEngine<BddBackend>, SliceIndex)>;
    let mut last: Last = Vec::new();
    let mut answers: Vec<Answer> = Vec::new();
    let passes = drive(o, &mut acc, |pass, acc| {
        last.clear();
        let ((progs, mut bare, streams), setup_s) = timed_setup(|| {
            let Built { progs, bare, engines } = build(o);
            (progs, bare, capture_all(engines))
        });

        let mut clock = Clock::default();
        let mut results = Vec::with_capacity(progs.len());
        let mut instrs = 0;
        let mut lat = Vec::new();
        let per_prog = o.queries_per_pass().div_ceil(progs.len() as u64);
        for (i, ((p, (stream, mem)), b)) in
            progs.iter().zip(&streams).zip(bare.iter_mut()).enumerate()
        {
            clock.bare(b);
            let run = clock.pipe(|| common::epoch_pipeline(stream, &p.w.program, *mem, workers));
            instrs += stream.len() as u64;
            let recovered = run.epochs_recovered;
            acc.checks
                .check(recovered == 0, || format!("{}: {recovered} epochs recovered", p.w.name));
            let index = run.lineage.index.expect("slice on");

            let mut rng = Rng::new(o.seed, 300 + 1000 * group_of(pass) + i as u64);
            for _ in 0..per_prog {
                let q = common::draw_query(&mut rng, i, stream.len() as u64, p.w.program.len());
                let t = Instant::now();
                let slice = common::answer_over(&index, &q);
                lat.push(secs(t) * 1e6 * clock.speed());
                if (1..=QUERY_GROUPS).contains(&pass) {
                    answers.push(Answer { q, fp: common::slice_fp(&slice), degraded: false });
                }
            }
            results.push((run.taint, run.lineage.engine, index));
        }
        acc.record_bytes = results.iter().map(|r| r.2.approx_bytes() as f64).sum();
        clock.finish(acc, group_of(pass), setup_s, instrs, lat);
        last = results;
    });
    let rss = peak_rss_mib();

    // Oracle (T9): the composed engines and merged index equal the
    // serial engines and the serial unoptimized tracer.
    let progs = o.workload.programs(o.seed, o.scale);
    let unopt = OnTracConfig::unoptimized(common::FULL_WINDOW_BYTES);
    acc.pipe_cycles = 0;
    for (p, (taint, lineage, index)) in progs.iter().zip(&last) {
        // Modeled cost of the serial analyses the epoch runners replace.
        let mut t = TaintEngine::<PcTaint>::new(TaintPolicy::default());
        let mut l = LineageEngine::new(BddBackend::new(ID_BITS));
        acc.pipe_cycles += Engine::new(p.w.machine()).run(&mut [&mut t, &mut l]).cycles;
        let stream = common::capture(Engine::new(p.w.machine()));
        let mut want_t = ReferenceTaintEngine::<PcTaint>::new(TaintPolicy::default());
        let mut want_l = LineageEngine::new(BddBackend::new(ID_BITS));
        for fx in &stream {
            want_t.process(fx);
            want_l.process(fx);
        }
        acc.checks.check(taint_agrees(taint, &want_t), || {
            format!("{}: composed taint differs from serial", p.w.name)
        });
        let lineage_ok = lineage.outputs == want_l.outputs
            && lineage.input_channels() == want_l.input_channels()
            && lineage.inputs_seen() == want_l.inputs_seen()
            && lineage.stats().instrs == want_l.stats().instrs
            && lineage.stats().max_output_set == want_l.stats().max_output_set;
        acc.checks.check(lineage_ok, || format!("{}: composed lineage differs", p.w.name));
        let mut tracer = OnTrac::new(&p.w.program, p.w.machine().mem_words(), unopt.clone());
        Engine::new(p.w.machine()).run_tool(&mut tracer);
        let serial_edges = tracer.slice_index().map(|ix| ix.edges()).unwrap_or(0);
        acc.checks.check(index.edges() == serial_edges, || {
            format!("{}: merged index has {} edges, serial {serial_edges}", p.w.name, index.edges())
        });
    }
    check_answers(&mut acc, &progs, &answers, &unopt);
    finish(o, acc, passes, rss)
}
