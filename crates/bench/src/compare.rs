//! `report compare` — diff two `BENCH_*.json` files under per-metric
//! noise thresholds and flag regressions.
//!
//! The comparison is schema-agnostic: both files are flattened to
//! `path -> number` maps (arrays of objects are keyed by their `name`
//! or `workers` field when present, so rows line up across runs even
//! if their order changes), then every path matching a threshold rule
//! is checked. Paths with no matching rule are ignored — the intended
//! deployment gates only machine-independent metrics (speedup ratios,
//! deterministic modeled cycles), because absolute throughputs on a
//! shared CI runner are far too noisy to gate on.
//!
//! Threshold rules live in a checked-in `bench_thresholds.toml` (see
//! [`Thresholds::parse`] for the accepted subset of TOML).

use serde::Value;
use std::collections::BTreeMap;

/// Flatten the numeric leaves of a BENCH JSON document into
/// `path -> value`, with `/`-joined path segments.
pub fn flatten(v: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &Value, path: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::U64(n) => {
            out.insert(path, *n as f64);
        }
        Value::I64(n) => {
            out.insert(path, *n as f64);
        }
        Value::F64(n) => {
            out.insert(path, *n);
        }
        Value::Map(entries) => {
            for (k, child) in entries {
                walk(child, join(&path, k), out);
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                walk(child, join(&path, &seq_key(child, i)), out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Numeric-leaf paths that live under any object carrying
/// `"modeled_only": true`. Rows flag themselves that way when their
/// numbers are serialization artifacts rather than measurements — e.g.
/// wall-clock scaling rows taken on a 1-core host — and `compare`
/// refuses to gate them.
pub fn modeled_only_paths(v: &Value) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    walk_modeled(v, String::new(), false, &mut out);
    out
}

fn walk_modeled(
    v: &Value,
    path: String,
    inherited: bool,
    out: &mut std::collections::BTreeSet<String>,
) {
    match v {
        Value::U64(_) | Value::I64(_) | Value::F64(_) => {
            if inherited {
                out.insert(path);
            }
        }
        Value::Map(entries) => {
            let flagged = inherited
                || entries
                    .iter()
                    .any(|(k, f)| k == "modeled_only" && matches!(f, Value::Bool(true)));
            for (k, child) in entries {
                walk_modeled(child, join(&path, k), flagged, out);
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                walk_modeled(child, join(&path, &seq_key(child, i)), inherited, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

fn join(path: &str, seg: &str) -> String {
    if path.is_empty() {
        seg.to_string()
    } else {
        format!("{path}/{seg}")
    }
}

/// Stable key for a sequence element: its `name` field, its `workers`
/// field (`w<N>`), or the positional index as a last resort.
fn seq_key(v: &Value, index: usize) -> String {
    if let Value::Map(entries) = v {
        for (k, field) in entries {
            if k == "name" {
                if let Value::Str(s) = field {
                    return s.clone();
                }
            }
            if k == "workers" {
                match field {
                    Value::U64(n) => return format!("w{n}"),
                    Value::I64(n) => return format!("w{n}"),
                    _ => {}
                }
            }
        }
    }
    index.to_string()
}

/// One `[[metric]]` rule from the thresholds file.
#[derive(Clone, Debug)]
pub struct MetricRule {
    /// Whitespace-separated substrings; a path matches when every
    /// fragment occurs somewhere in it (`"rows hot_speedup"` matches
    /// `rows/gzip_like/hot_speedup`).
    pub pattern: String,
    /// Direction: `true` means larger values are better (speedups),
    /// `false` means smaller values are better (cycles, bytes).
    pub higher_is_better: bool,
    /// Per-metric tolerance, percent of the baseline.
    pub max_regress_pct: f64,
}

impl MetricRule {
    pub fn matches(&self, path: &str) -> bool {
        self.pattern.split_whitespace().all(|frag| path.contains(frag))
    }
}

/// Parsed thresholds config.
#[derive(Clone, Debug)]
pub struct Thresholds {
    pub rules: Vec<MetricRule>,
    /// Gate on the geomean of per-metric ratios across every checked
    /// metric: the whole run must not drift down by more than this.
    pub geomean_max_regress_pct: f64,
}

impl Default for Thresholds {
    /// Built-in rules used when no thresholds file is given: gate the
    /// machine-independent metrics of the two standard reports.
    fn default() -> Thresholds {
        let rule = |pattern: &str, higher: bool, pct: f64| MetricRule {
            pattern: pattern.into(),
            higher_is_better: higher,
            max_regress_pct: pct,
        };
        Thresholds {
            rules: vec![
                rule("geomean_hot_speedup", true, 25.0),
                rule("rows hot_speedup", true, 40.0),
                rule("geomean_modeled_speedup_4w", true, 25.0),
                rule("modeled completion_cycles", false, 25.0),
                rule("modeled speedup_vs_1", true, 25.0),
            ],
            geomean_max_regress_pct: 25.0,
        }
    }
}

impl Thresholds {
    /// Parse the subset of TOML the thresholds file uses: top-level
    /// `key = value` assignments, `[[metric]]` array-of-tables headers,
    /// `#` comments, strings / bools / numbers. Anything fancier is an
    /// error — the file is checked in, so failing loudly beats
    /// guessing.
    pub fn parse(text: &str) -> Result<Thresholds, String> {
        let mut t = Thresholds { rules: Vec::new(), geomean_max_regress_pct: 25.0 };
        let mut in_metric = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[metric]]" {
                t.rules.push(MetricRule {
                    pattern: String::new(),
                    higher_is_better: true,
                    max_regress_pct: 25.0,
                });
                in_metric = true;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {}: unsupported table `{line}`", lineno + 1));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            match (in_metric, key) {
                (false, "geomean_max_regress_pct") => {
                    t.geomean_max_regress_pct = parse_f64(value, lineno)?;
                }
                (true, "pattern") => {
                    t.rules.last_mut().unwrap().pattern = parse_str(value, lineno)?;
                }
                (true, "higher_is_better") => {
                    t.rules.last_mut().unwrap().higher_is_better = parse_bool(value, lineno)?;
                }
                (true, "max_regress_pct") => {
                    t.rules.last_mut().unwrap().max_regress_pct = parse_f64(value, lineno)?;
                }
                _ => return Err(format!("line {}: unknown key `{key}`", lineno + 1)),
            }
        }
        if let Some(r) = t.rules.iter().find(|r| r.pattern.is_empty()) {
            return Err(format!("[[metric]] entry without a pattern: {r:?}"));
        }
        Ok(t)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` never appears inside the strings this file uses, so a plain
    // split is enough.
    line.split('#').next().unwrap_or("")
}

fn parse_f64(v: &str, lineno: usize) -> Result<f64, String> {
    v.parse::<f64>().map_err(|_| format!("line {}: `{v}` is not a number", lineno + 1))
}

fn parse_bool(v: &str, lineno: usize) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("line {}: `{v}` is not a bool", lineno + 1)),
    }
}

fn parse_str(v: &str, lineno: usize) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("line {}: `{v}` is not a quoted string", lineno + 1))
    }
}

/// One gated metric's before/after.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    pub path: String,
    pub base: f64,
    pub cand: f64,
    /// Candidate/baseline oriented so that > 1.0 is an improvement.
    pub ratio: f64,
    /// Regression percent (positive = got worse).
    pub regress_pct: f64,
    pub max_regress_pct: f64,
    pub violated: bool,
}

/// Full result of comparing two flattened reports.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Metrics a rule matched in both files, in path order.
    pub checked: Vec<MetricDelta>,
    /// Gated baseline paths the candidate lacks. A gated metric that
    /// disappears fails the gate.
    pub missing: Vec<String>,
    /// Gated paths only the candidate has (informational).
    pub added: Vec<String>,
    /// Gated paths skipped with a reason: the baseline is <= 0 (a ratio
    /// would be meaningless — e.g. stall cycles that are legitimately
    /// zero at one width), or either side flags the row `modeled_only`
    /// (the number is an artifact, not a measurement).
    pub skipped: Vec<String>,
    /// Geomean of the finite `checked[*].ratio`s (1.0 when there are
    /// none).
    pub geomean_ratio: f64,
    pub geomean_max_regress_pct: f64,
}

impl Comparison {
    pub fn violations(&self) -> Vec<&MetricDelta> {
        self.checked.iter().filter(|d| d.violated).collect()
    }

    pub fn geomean_violated(&self) -> bool {
        self.geomean_ratio < 1.0 - self.geomean_max_regress_pct / 100.0
    }

    /// Anything at all to fail CI over?
    pub fn regressed(&self) -> bool {
        !self.violations().is_empty() || self.geomean_violated() || !self.missing.is_empty()
    }
}

/// Compare candidate against baseline under the given thresholds.
pub fn compare(base: &Value, cand: &Value, thresholds: &Thresholds) -> Comparison {
    // A row marked modeled-only on EITHER side is ungateable: one of
    // the two numbers is an artifact, so any ratio is meaningless.
    let mut modeled = modeled_only_paths(base);
    modeled.extend(modeled_only_paths(cand));
    let base = flatten(base);
    let cand = flatten(cand);
    let mut out = Comparison {
        geomean_ratio: 1.0,
        geomean_max_regress_pct: thresholds.geomean_max_regress_pct,
        ..Comparison::default()
    };
    for (path, &b) in &base {
        let Some(rule) = thresholds.rules.iter().find(|r| r.matches(path)) else {
            continue;
        };
        if modeled.contains(path) {
            out.skipped.push(format!("{path} (modeled_only)"));
            continue;
        }
        let Some(&c) = cand.get(path) else {
            out.missing.push(format!("{path} (baseline only)"));
            continue;
        };
        if b <= 0.0 {
            out.skipped.push(format!("{path} (baseline <= 0)"));
            continue;
        }
        let ratio = match (c > 0.0, rule.higher_is_better) {
            (true, true) => c / b,
            (true, false) => b / c,
            // Fell to zero: nothing is left of a higher-is-better
            // metric, while a lower-is-better one improved past what a
            // ratio can express (kept out of the geomean below).
            (false, true) => 0.0,
            (false, false) => f64::INFINITY,
        };
        let regress_pct = (1.0 - ratio) * 100.0;
        out.checked.push(MetricDelta {
            path: path.clone(),
            base: b,
            cand: c,
            ratio,
            regress_pct,
            max_regress_pct: rule.max_regress_pct,
            violated: regress_pct > rule.max_regress_pct,
        });
    }
    for path in cand.keys() {
        if !base.contains_key(path)
            && !modeled.contains(path)
            && thresholds.rules.iter().any(|r| r.matches(path))
        {
            out.added.push(format!("{path} (candidate only)"));
        }
    }
    let finite: Vec<f64> = out.checked.iter().map(|d| d.ratio).filter(|r| r.is_finite()).collect();
    if !finite.is_empty() {
        out.geomean_ratio = crate::geomean(finite);
    }
    out
}

/// Human-readable summary, one line per checked metric plus the
/// geomean verdict — the output of `report compare`.
pub fn render(c: &Comparison) -> String {
    let mut s = String::new();
    for d in &c.checked {
        let flag = if d.violated { "REGRESSED" } else { "ok" };
        s.push_str(&format!(
            "{:9} {}  base={:.4} cand={:.4} ratio={:.3} (limit -{:.0}%)\n",
            flag, d.path, d.base, d.cand, d.ratio, d.max_regress_pct
        ));
    }
    for p in &c.skipped {
        s.push_str(&format!("{:9} {p}\n", "skipped"));
    }
    for p in &c.missing {
        s.push_str(&format!("{:9} {p}\n", "MISSING"));
    }
    for p in &c.added {
        s.push_str(&format!("{:9} {p}\n", "new"));
    }
    let verdict = if c.geomean_violated() { "REGRESSED" } else { "ok" };
    s.push_str(&format!(
        "{verdict:9} geomean ratio {:.3} over {} metrics (limit -{:.0}%)\n",
        c.geomean_ratio,
        c.checked.len(),
        c.geomean_max_regress_pct
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(hot: f64, cycles: u64) -> Value {
        Value::Map(vec![
            ("scale".into(), Value::Str("test".into())),
            ("geomean_hot_speedup".into(), Value::F64(hot)),
            (
                "rows".into(),
                Value::Seq(vec![Value::Map(vec![
                    ("name".into(), Value::Str("gzip_like".into())),
                    ("hot_speedup".into(), Value::F64(hot)),
                    (
                        "modeled".into(),
                        Value::Seq(vec![Value::Map(vec![
                            ("workers".into(), Value::U64(4)),
                            ("completion_cycles".into(), Value::U64(cycles)),
                            ("stall_cycles".into(), Value::U64(0)),
                        ])]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn flatten_keys_rows_by_name_and_workers() {
        let flat = flatten(&report(3.0, 1000));
        assert_eq!(flat["geomean_hot_speedup"], 3.0);
        assert_eq!(flat["rows/gzip_like/hot_speedup"], 3.0);
        assert_eq!(flat["rows/gzip_like/modeled/w4/completion_cycles"], 1000.0);
        assert!(!flat.contains_key("scale"), "strings are not metrics");
    }

    #[test]
    fn identical_inputs_pass() {
        let v = report(3.0, 1000);
        let c = compare(&v, &v, &Thresholds::default());
        assert!(!c.regressed(), "{c:?}");
        assert!((c.geomean_ratio - 1.0).abs() < 1e-12);
        // stall_cycles is 0 in both: must be skipped, not divided.
        assert!(!c.checked.iter().any(|d| d.path.contains("stall")));
    }

    #[test]
    fn synthetic_regression_fails() {
        let base = report(3.0, 1000);
        // Speedup halves and modeled cycles double: both out of band.
        let cand = report(1.5, 2000);
        let c = compare(&base, &cand, &Thresholds::default());
        assert!(c.regressed());
        let paths: Vec<&str> = c.violations().iter().map(|d| d.path.as_str()).collect();
        assert!(paths.iter().any(|p| p.contains("geomean_hot_speedup")), "{paths:?}");
        assert!(paths.iter().any(|p| p.contains("completion_cycles")), "{paths:?}");
        assert!(c.geomean_violated());
    }

    #[test]
    fn improvement_and_noise_pass() {
        let base = report(3.0, 1000);
        // 10% faster speedup, 10% fewer cycles: improvements, ratio > 1.
        let c = compare(&base, &report(3.3, 900), &Thresholds::default());
        assert!(!c.regressed(), "{c:?}");
        assert!(c.geomean_ratio > 1.0);
        // 10% slower is inside every default band.
        let c = compare(&base, &report(2.7, 1100), &Thresholds::default());
        assert!(!c.regressed(), "{c:?}");
    }

    #[test]
    fn direction_matters() {
        // Fewer completion cycles must never count as a regression.
        let base = report(3.0, 2000);
        let c = compare(&base, &report(3.0, 500), &Thresholds::default());
        assert!(!c.regressed(), "{c:?}");
        assert!(c.checked.iter().all(|d| d.ratio >= 1.0));
    }

    #[test]
    fn missing_metric_is_reported_not_crashed() {
        let base = report(3.0, 1000);
        let cand = Value::Map(vec![("geomean_hot_speedup".into(), Value::F64(3.0))]);
        let c = compare(&base, &cand, &Thresholds::default());
        assert!(c.missing.iter().any(|m| m.contains("baseline only")), "{:?}", c.missing);
    }

    #[test]
    fn higher_is_better_metric_falling_to_zero_is_a_full_regression() {
        let c = compare(&report(3.0, 1000), &report(0.0, 1000), &Thresholds::default());
        assert!(c.regressed(), "{c:?}");
        let hot = c.checked.iter().find(|d| d.path == "geomean_hot_speedup").expect("gated");
        assert!(hot.violated && hot.ratio == 0.0 && hot.regress_pct == 100.0, "{hot:?}");
        assert!(c.skipped.is_empty(), "a zero candidate must be gated: {:?}", c.skipped);
        assert!(c.geomean_ratio.is_finite() && c.geomean_violated(), "{}", c.geomean_ratio);
    }

    #[test]
    fn lower_is_better_metric_falling_to_zero_is_an_improvement() {
        let c = compare(&report(3.0, 1000), &report(3.0, 0), &Thresholds::default());
        assert!(!c.regressed(), "{c:?}");
        let cycles = c.checked.iter().find(|d| d.path.contains("completion_cycles")).unwrap();
        assert!(!cycles.violated && cycles.ratio > 1.0, "{cycles:?}");
        assert!((c.geomean_ratio - 1.0).abs() < 1e-12, "{}", c.geomean_ratio);
    }

    #[test]
    fn zero_baseline_is_still_skipped() {
        // Stall cycles are legitimately zero at some widths.
        let rules = Thresholds {
            rules: vec![MetricRule {
                pattern: "stall_cycles".into(),
                higher_is_better: false,
                max_regress_pct: 5.0,
            }],
            geomean_max_regress_pct: 5.0,
        };
        let stall = |cycles| Value::Map(vec![("stall_cycles".into(), Value::U64(cycles))]);
        let c = compare(&stall(0), &stall(5), &rules);
        assert!(c.checked.is_empty() && !c.regressed(), "{c:?}");
        assert!(c.skipped.iter().any(|p| p.contains("baseline <= 0")), "{:?}", c.skipped);
    }

    #[test]
    fn gated_metric_missing_from_the_candidate_fails() {
        let base = report(3.0, 1000);
        let cand = Value::Map(vec![("geomean_hot_speedup".into(), Value::F64(3.0))]);
        let c = compare(&base, &cand, &Thresholds::default());
        assert!(c.violations().is_empty() && !c.geomean_violated(), "{c:?}");
        assert!(c.regressed(), "a vanished gated metric must fail the gate");
        assert!(render(&c).contains("MISSING"));
    }

    #[test]
    fn candidate_only_metric_is_informational() {
        let base = Value::Map(vec![("geomean_hot_speedup".into(), Value::F64(3.0))]);
        let c = compare(&base, &report(3.0, 1000), &Thresholds::default());
        assert!(!c.regressed(), "{c:?}");
        assert!(c.missing.is_empty());
        assert!(c.added.iter().any(|p| p.contains("candidate only")), "{:?}", c.added);
    }

    /// A wall row as `report multicore-scaling` now writes it: stamped
    /// with `host_cores` and flagged modeled-only on a 1-core host.
    fn wall_report(speedup: f64, modeled_only: bool) -> Value {
        Value::Map(vec![(
            "rows".into(),
            Value::Seq(vec![Value::Map(vec![
                ("name".into(), Value::Str("gzip_like".into())),
                (
                    "wall".into(),
                    Value::Seq(vec![Value::Map(vec![
                        ("workers".into(), Value::U64(4)),
                        ("speedup_vs_1".into(), Value::F64(speedup)),
                        ("host_cores".into(), Value::U64(if modeled_only { 1 } else { 8 })),
                        ("modeled_only".into(), Value::Bool(modeled_only)),
                    ])]),
                ),
            ])]),
        )])
    }

    #[test]
    fn modeled_only_rows_are_skipped_not_gated() {
        let rules = Thresholds {
            rules: vec![MetricRule {
                pattern: "wall speedup_vs_1".into(),
                higher_is_better: true,
                max_regress_pct: 10.0,
            }],
            geomean_max_regress_pct: 10.0,
        };
        // A 4x "regression" in a modeled-only wall row must not fail
        // the gate — the 1-core number is an artifact.
        let c = compare(&wall_report(4.0, true), &wall_report(1.0, true), &rules);
        assert!(!c.regressed(), "{c:?}");
        assert!(c.checked.is_empty());
        assert!(c.skipped.iter().any(|p| p.contains("modeled_only")), "{:?}", c.skipped);
        // Either side flagged is enough.
        let c = compare(&wall_report(4.0, false), &wall_report(1.0, true), &rules);
        assert!(!c.regressed(), "{c:?}");
        // Neither side flagged: the same delta IS gated.
        let c = compare(&wall_report(4.0, false), &wall_report(1.0, false), &rules);
        assert!(c.regressed(), "{c:?}");
        // host_cores itself is a leaf under the flagged row: skipped
        // from any rule that would match it.
        assert!(modeled_only_paths(&wall_report(1.0, true))
            .contains("rows/gzip_like/wall/w4/host_cores"));
    }

    #[test]
    fn toml_parser_round_trips_the_checked_in_file() {
        let text = r#"
# comment
geomean_max_regress_pct = 20.0

[[metric]]
pattern = "rows hot_speedup"   # trailing comment
higher_is_better = true
max_regress_pct = 40.0

[[metric]]
pattern = "completion_cycles"
higher_is_better = false
max_regress_pct = 25.0
"#;
        let t = Thresholds::parse(text).unwrap();
        assert_eq!(t.geomean_max_regress_pct, 20.0);
        assert_eq!(t.rules.len(), 2);
        assert_eq!(t.rules[0].pattern, "rows hot_speedup");
        assert!(t.rules[0].matches("rows/gzip_like/hot_speedup"));
        assert!(!t.rules[0].matches("geomean_hot_speedup"));
        assert!(!t.rules[1].higher_is_better);
    }

    #[test]
    fn toml_parser_rejects_junk() {
        assert!(Thresholds::parse("[server]").is_err());
        assert!(Thresholds::parse("geomean_max_regress_pct = fast").is_err());
        assert!(Thresholds::parse("[[metric]]\nhigher_is_better = true").is_err());
        assert!(Thresholds::parse("wat = 1").is_err());
    }

    #[test]
    fn render_mentions_every_verdict() {
        let base = report(3.0, 1000);
        let text = render(&compare(&base, &report(1.0, 1000), &Thresholds::default()));
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("geomean ratio"));
    }
}
