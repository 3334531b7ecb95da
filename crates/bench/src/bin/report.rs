//! `report` — regenerate the experiment tables and gate regressions.
//!
//! ```text
//! report [SELECTION...] [--test] [--json]
//! report compare <baseline.json> <candidate.json> [--thresholds <file>]
//! ```
//!
//! The selections, what each one measures and the `BENCH_*.json`
//! artifacts it writes to the working directory all come from
//! [`dift_bench::EXPERIMENTS`]; `report --help` lists them. No selection
//! means `all`, and `ablations` runs the `eNa` sweeps. `--test` runs at
//! CI scale, `--json` prints machine-readable tables.
//!
//! `compare` is the CI bench gate: it flattens both JSON files, checks
//! every metric a `bench_thresholds.toml` rule matches, and exits
//! nonzero when any metric (or the geomean across them) regressed past
//! its noise threshold, or when a gated metric is gone from the
//! candidate. Exit codes: 0 ok, 1 regression, 2 usage or I/O error.

use dift_bench::{Scale, Thresholds, EXPERIMENTS};
use serde::Value;

fn usage() {
    let mut selections = String::new();
    let mut line = |id: &str, about: &str| selections.push_str(&format!("  {id:<18} {about}\n"));
    for e in EXPERIMENTS {
        line(e.id, e.about);
        if !e.artifacts.is_empty() {
            line("", &format!("  writes {}", e.artifacts.join(", ")));
        }
    }
    let sweeps: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.is_ablation()).map(|e| e.id).collect();
    line("ablations", &format!("the sweeps {}", sweeps.join(" ")));
    line("all", "every selection above (the default)");
    eprintln!(
        "usage: report [SELECTION...] [--test] [--json]\n\
         \x20      report compare <baseline.json> <candidate.json> [--thresholds <file>]\n\
         \n\
         selections:\n\
         {selections}\
         \n\
         \x20 --test        run at CI scale (default: paper scale)\n\
         \x20 --json        machine-readable table output\n\
         \n\
         compare diffs the numeric leaves of two BENCH_*.json files under\n\
         per-metric noise thresholds; exit 0 = ok, 1 = regression, 2 = error."
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    if args.first().map(|a| a.as_str()) == Some("compare") {
        std::process::exit(run_compare(&args[1..]));
    }

    let json = args.iter().any(|a| a == "--json");
    let scale = if args.iter().any(|a| a == "--test") { Scale::Test } else { Scale::Paper };
    if let Some(flag) =
        args.iter().find(|a| a.starts_with("--") && *a != "--json" && *a != "--test")
    {
        eprintln!("unknown flag `{flag}`\n");
        usage();
        std::process::exit(2);
    }
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();

    // Reject unknown selections up front — a typo must not silently run
    // nothing (or everything).
    let known =
        |id: &&str| ["all", "ablations"].contains(id) || EXPERIMENTS.iter().any(|e| e.id == *id);
    if let Some(bad) = selected.iter().find(|id| !known(id)) {
        eprintln!("unknown selection `{bad}`\n");
        usage();
        std::process::exit(2);
    }
    let everything = selected.is_empty() || selected.contains(&"all");
    let ablations = selected.contains(&"ablations");

    let mut write_failed = false;
    for e in EXPERIMENTS {
        if !(everything || (ablations && e.is_ablation()) || selected.contains(&e.id)) {
            continue;
        }
        let run = (e.run)(scale);
        if json {
            println!("{}", run.table.to_json());
        } else {
            println!("{}", run.table);
        }
        assert_eq!(run.artifacts.len(), e.artifacts.len(), "{}: one payload per artifact", e.id);
        for (name, payload) in e.artifacts.iter().zip(&run.artifacts) {
            match std::fs::write(name, payload) {
                Ok(()) => eprintln!("wrote {name}"),
                Err(err) => {
                    eprintln!("could not write {name}: {err}");
                    write_failed = true;
                }
            }
        }
    }
    // Every selection still runs, but a lost artifact is an I/O error.
    if write_failed {
        std::process::exit(2);
    }
}

/// `report compare <base> <cand> [--thresholds <file>]`; returns the
/// process exit code.
fn run_compare(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut thresholds_path: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--thresholds" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("--thresholds needs a file argument\n");
                    usage();
                    return 2;
                };
                thresholds_path = Some(p);
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`\n");
                usage();
                return 2;
            }
            path => {
                files.push(path);
                i += 1;
            }
        }
    }
    let &[base_path, cand_path] = files.as_slice() else {
        eprintln!("compare needs exactly a baseline and a candidate file\n");
        usage();
        return 2;
    };
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))
    };
    let thresholds = match thresholds_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => match Thresholds::parse(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{p}: {e}");
                    return 2;
                }
            },
            Err(e) => {
                eprintln!("{p}: {e}");
                return 2;
            }
        },
        None => Thresholds::default(),
    };
    let (base, cand) = match (load(base_path), load(cand_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let cmp = dift_bench::compare(&base, &cand, &thresholds);
    print!("{}", dift_bench::render(&cmp));
    if cmp.checked.is_empty() {
        eprintln!("no gated metrics matched — check the thresholds file against the inputs");
        return 2;
    }
    if cmp.regressed() {
        1
    } else {
        0
    }
}
