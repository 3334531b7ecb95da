//! Small measurement helpers: seeded RNG, order statistics, host facts,
//! an in-memory span recorder, and the result-line writer.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed` so the same seed always generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Probe time, in seconds, that host-speed normalization scales to.
pub const PROBE_NOMINAL_S: f64 = 0.4e-3;

/// Host-speed probe: a fixed interpreter-like loop (seeded random reads
/// and writes over a 256 KiB table, data-dependent branches) that shares
/// no code with the system under test. The benchmark runs it beside
/// every program it times; scaling a time by `PROBE_NOMINAL_S / probe()`
/// expresses it at a nominal host speed, cancelling the stretches in
/// which other tenants slow the whole machine. Returns the fastest of
/// three back-to-back runs, in seconds.
pub fn probe() -> f64 {
    const WORDS: usize = 1 << 15;
    let mut table = vec![0u64; WORDS];
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut acc: u64 = 0;
        for _ in 0..60_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (x >> 40) as usize & (WORDS - 1);
            acc = acc.wrapping_add(table[j]);
            if acc & 1 == 0 {
                table[j] = acc ^ x;
            } else {
                table[(j + 7) & (WORDS - 1)] ^= x;
            }
        }
        std::hint::black_box(acc);
        best = best.min(secs(t));
    }
    best
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Order-independent fingerprint of anything hashable (answers are
/// fingerprinted inside the timed loop's bookkeeping and checked
/// against the oracle afterwards, so full slices need not be kept).
pub fn fingerprint<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// One timed interval at a layer boundary.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for the traced run: spans are opened and
/// closed around calls into each layer's public entry point and written
/// out (Chrome trace-event JSON) only when the run ends.
pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let id = self.open.pop().expect("span stack underflow");
        let end = self.now();
        self.spans[id].end_ns = end;
        end - self.spans[id].start_ns
    }

    /// Chrome trace-event JSON ("X" complete events, one per span).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            ));
        }
        out.push_str("]}");
        out
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| format!("\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Outcome counts behind `correct` / `failed` in the result line.
#[derive(Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: oracle mismatch: {}", what());
            }
        }
    }
}
