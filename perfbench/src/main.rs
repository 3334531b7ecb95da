//! The DIFT pipeline benchmark.
//!
//! ```text
//! perfbench --workload <monitor|debug|provenance|epoch2> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]
//! ```
//!
//! Four workloads run through the real pipeline, each from inputs
//! generated from `--seed`:
//!
//! * `monitor` — inline PC-taint (`TaintEngine<PcTaint>`, default
//!   policy) over the SPEC-like kernels and the 4-thread kv server;
//! * `debug` — ONTRAC (optimized, slice index, eviction-heavy window,
//!   cold tier on a durable segment store) over the kernels, then seeded
//!   checked stitched slice queries;
//! * `provenance` — the `Sentinel` tool over the four science pipelines
//!   and a multi-tenant kv server;
//! * `epoch2` — captured kernel streams through `epoch_process_stream`
//!   and `shard_lineage_stream` at 2 workers.
//!
//! `--trace 0` measures the end-to-end metrics with no spans
//! ([`e2e`]); `--trace 1` runs the per-layer ladder with spans
//! ([`ladder`]). Either way the last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the run's stamps (seed, host cores, workers, `failed_frac`),
//! the calibration table (measured beside modeled slowdown) and, for
//! `--trace 0`, the raw throughput and probed host speed behind the
//! normalized figures, or, for `--trace 1`, the ladder and its
//! reconciliation.

mod common;
mod e2e;
mod ladder;
mod util;
mod workloads;

use e2e::{Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use util::host_cores;
use workloads::Scale;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <monitor|debug|provenance|epoch2> --seed <n> \
         --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).cloned().unwrap_or_default();
        match args[i].as_str() {
            "--workload" => workload = Workload::parse(&val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok(),
            "--trace" => trace = val.parse::<u8>().ok().filter(|t| *t <= 1),
            "--work-dir" => work_dir = PathBuf::from(val),
            "--tiny" => {
                scale = Scale::Tiny;
                i += 1;
                continue;
            }
            _ => return usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if std::fs::create_dir_all(&work_dir).is_err() {
        eprintln!("perfbench: cannot create work dir {}", work_dir.display());
        return ExitCode::from(1);
    }
    let o = Opts { workload, seed, seconds, scale, work_dir };
    let cores = host_cores();
    let workers = workload.workers();

    let (metrics, checks, detail) = if trace == 0 {
        let r = e2e::run(&o);
        // Calibration: the measured slowdown beside the cost model's
        // (`RunResult.cycles` ratio) for the same configuration.
        let measured = r.metrics.0.iter().find(|m| m.name == "slowdown_x").map_or(0.0, |m| m.value);
        let modeled = r.modeled_slowdown_x;
        eprintln!(
            "perfbench: {workload:?} seed {seed}: {} passes, {} queries; \
             slowdown measured {measured:.2}x, modeled {modeled:.2}x",
            r.passes, r.queries
        );
        let detail = format!(
            "\"passes\":{},\"queries\":{},\"raw_analysis_mips\":{:?},\
             \"host_speed_p10_p90\":[{:?},{:?}],\"calibration\":{{\"measured_slowdown_x\":{measured:?},\
             \"modeled_slowdown_x\":{modeled:?},\"measured_over_modeled\":{:?}}}",
            r.passes,
            r.queries,
            r.raw_mips,
            r.host_speed.0,
            r.host_speed.1,
            measured / modeled
        );
        (r.metrics, r.checks, detail)
    } else {
        let r = ladder::run(&o);
        (r.metrics, r.checks, r.detail)
    };
    for m in &metrics.0 {
        eprintln!("  {:36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"host_cores\":{cores},\
         \"workers\":{workers},\"scaling_measured\":{},\"failed_frac\":{failed_frac:?},{detail}}}",
        format!("{workload:?}").to_lowercase(),
        cores >= workers,
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
