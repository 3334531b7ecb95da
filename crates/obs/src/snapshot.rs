//! Serializing a [`StatsRecorder`] into the
//! stable `BENCH_obs.json` tree.
//!
//! The tree is built from [`Metric::path`](crate::Metric::path): the
//! path `taint/engine/process_calls` becomes
//! `{"taint": {"engine": {"process_calls": N}}}`. Every metric is
//! always emitted (zeros included) so the schema is identical from run
//! to run; histograms expand into a fixed summary object.

use crate::hist::Histogram;
use crate::{Metric, MetricKind, StatsRecorder};
use serde::Value;

/// Fixed summary shape a histogram serializes to.
fn hist_value(h: &Histogram) -> Value {
    Value::Map(vec![
        ("count".into(), Value::U64(h.count())),
        ("sum".into(), Value::U64(h.sum())),
        ("min".into(), Value::U64(h.min())),
        ("max".into(), Value::U64(h.max())),
        ("mean".into(), Value::F64(h.mean())),
        ("p50".into(), Value::U64(h.quantile(0.5))),
        ("p90".into(), Value::U64(h.quantile(0.9))),
        ("p99".into(), Value::U64(h.quantile(0.99))),
    ])
}

/// Insert `leaf` at the `/`-separated `path` inside a nested map tree,
/// creating intermediate maps as needed (insertion order preserved).
fn insert_path(root: &mut Vec<(String, Value)>, path: &str, leaf: Value) {
    let mut node = root;
    let mut parts = path.split('/').peekable();
    while let Some(part) = parts.next() {
        if parts.peek().is_none() {
            node.push((part.to_string(), leaf));
            return;
        }
        let idx = match node.iter().position(|(k, _)| k == part) {
            Some(i) => i,
            None => {
                node.push((part.to_string(), Value::Map(Vec::new())));
                node.len() - 1
            }
        };
        node = match &mut node[idx].1 {
            Value::Map(m) => m,
            other => {
                *other = Value::Map(Vec::new());
                match other {
                    Value::Map(m) => m,
                    _ => unreachable!(),
                }
            }
        };
    }
}

/// Render every metric in `rec` as a nested map tree keyed by metric
/// path segments. All [`Metric::ALL`] entries appear, recorded or not,
/// so downstream diff tools see a stable shape.
pub fn section_value(rec: &StatsRecorder) -> Value {
    let mut root: Vec<(String, Value)> = Vec::new();
    for m in Metric::ALL {
        let leaf = match m.kind() {
            MetricKind::Counter | MetricKind::Gauge => Value::U64(rec.get(m)),
            MetricKind::Histogram => hist_value(rec.hist(m)),
        };
        insert_path(&mut root, m.path(), leaf);
    }
    Value::Map(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn leaf<'v>(root: &'v Value, path: &str) -> &'v Value {
        let mut node = root;
        for part in path.split('/') {
            node = node.field(part).unwrap_or_else(|| panic!("missing {part} in {path}"));
        }
        node
    }

    #[test]
    fn every_metric_appears_even_when_zero() {
        let v = section_value(&StatsRecorder::new());
        for m in Metric::ALL {
            let l = leaf(&v, m.path());
            match m.kind() {
                MetricKind::Histogram => assert_eq!(l.field("count"), Some(&Value::U64(0))),
                _ => assert_eq!(l, &Value::U64(0)),
            }
        }
    }

    #[test]
    fn recorded_values_show_up_at_their_path() {
        let mut r = StatsRecorder::new();
        r.add(Metric::TaintProcessCalls, 41);
        r.observe(Metric::TaintJoinWidth, 2);
        let v = section_value(&r);
        assert_eq!(leaf(&v, "taint/engine/process_calls"), &Value::U64(41));
        let h = leaf(&v, "taint/engine/join_width");
        assert_eq!(h.field("count"), Some(&Value::U64(1)));
        assert_eq!(h.field("max"), Some(&Value::U64(2)));
    }

    #[test]
    fn schema_is_deterministic() {
        let a = section_value(&StatsRecorder::new());
        let b = section_value(&StatsRecorder::new());
        assert_eq!(a, b);
    }
}
