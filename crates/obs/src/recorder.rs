//! The `Recorder` trait and its two implementations.

use crate::hist::Histogram;
use crate::{Metric, MetricKind};

/// Number of histogram-kind metrics (sizes [`StatsRecorder`] storage).
pub(crate) const N_HIST: usize = {
    let mut n = 0;
    let mut i = 0;
    while i < Metric::COUNT {
        if matches!(Metric::ALL[i].kind(), MetricKind::Histogram) {
            n += 1;
        }
        i += 1;
    }
    n
};

/// Histogram slot per metric (`usize::MAX` for non-histograms).
pub(crate) const HIST_SLOT: [usize; Metric::COUNT] = {
    let mut lut = [usize::MAX; Metric::COUNT];
    let mut n = 0;
    let mut i = 0;
    while i < Metric::COUNT {
        if matches!(Metric::ALL[i].kind(), MetricKind::Histogram) {
            lut[i] = n;
            n += 1;
        }
        i += 1;
    }
    lut
};

/// A sink for probe events.
///
/// Instrumented types are generic over `R: Recorder` with
/// [`NoopRecorder`] as the default; probe sites guard on `R::ENABLED`
/// so the no-op case monomorphizes to nothing at all. Implementations
/// must be allocation-free on every method — probes sit on the hottest
/// paths in the workspace.
pub trait Recorder {
    /// `false` recorders promise every method is a no-op; probe sites
    /// use this to skip even the argument computation.
    const ENABLED: bool;

    /// Bump a [`MetricKind::Counter`] metric by `delta`.
    fn add(&mut self, m: Metric, delta: u64);

    /// Set a [`MetricKind::Gauge`] metric to `value` (last write wins).
    fn gauge(&mut self, m: Metric, value: u64);

    /// Record `value` into a [`MetricKind::Histogram`] metric.
    fn observe(&mut self, m: Metric, value: u64);

    /// Run `f`, charging its wall-clock nanoseconds to `m` (a counter
    /// accumulates total nanos; a histogram records each duration).
    fn timed<O>(&mut self, m: Metric, f: impl FnOnce() -> O) -> O;
}

/// The default recorder: does nothing, costs nothing. With
/// `R = NoopRecorder` every `if R::ENABLED` probe folds away and the
/// instrumented type compiles to the same machine code as an unprobed
/// one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _m: Metric, _delta: u64) {}

    #[inline(always)]
    fn gauge(&mut self, _m: Metric, _value: u64) {}

    #[inline(always)]
    fn observe(&mut self, _m: Metric, _value: u64) {}

    #[inline(always)]
    fn timed<O>(&mut self, _m: Metric, f: impl FnOnce() -> O) -> O {
        f()
    }
}

/// The collecting recorder: one `u64` slot per counter/gauge metric and
/// one inline [`Histogram`] per histogram metric. Fixed-size arrays —
/// recording never allocates.
#[derive(Clone, Debug)]
pub struct StatsRecorder {
    counters: [u64; Metric::COUNT],
    hists: [Histogram; N_HIST],
}

impl Default for StatsRecorder {
    fn default() -> Self {
        StatsRecorder::new()
    }
}

impl StatsRecorder {
    pub const fn new() -> StatsRecorder {
        const EMPTY: Histogram = Histogram::new();
        StatsRecorder { counters: [0; Metric::COUNT], hists: [EMPTY; N_HIST] }
    }

    /// Current value of a counter or gauge metric.
    pub fn get(&self, m: Metric) -> u64 {
        debug_assert!(!matches!(m.kind(), MetricKind::Histogram), "{}: use hist()", m.path());
        self.counters[m as usize]
    }

    /// The histogram behind a [`MetricKind::Histogram`] metric.
    pub fn hist(&self, m: Metric) -> &Histogram {
        let slot = HIST_SLOT[m as usize];
        assert!(slot != usize::MAX, "{} is not a histogram metric", m.path());
        &self.hists[slot]
    }

    /// Merge another recorder's data into this one (counters add,
    /// gauges take the other's value, histograms merge).
    pub fn merge(&mut self, other: &StatsRecorder) {
        for m in Metric::ALL {
            match m.kind() {
                MetricKind::Counter => self.counters[m as usize] += other.counters[m as usize],
                MetricKind::Gauge => self.counters[m as usize] = other.counters[m as usize],
                MetricKind::Histogram => {}
            }
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }
}

impl Recorder for StatsRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, m: Metric, delta: u64) {
        debug_assert!(matches!(m.kind(), MetricKind::Counter), "{}: not a counter", m.path());
        self.counters[m as usize] += delta;
    }

    #[inline]
    fn gauge(&mut self, m: Metric, value: u64) {
        debug_assert!(matches!(m.kind(), MetricKind::Gauge), "{}: not a gauge", m.path());
        self.counters[m as usize] = value;
    }

    #[inline]
    fn observe(&mut self, m: Metric, value: u64) {
        self.hists[HIST_SLOT[m as usize]].record(value);
    }

    #[inline]
    fn timed<O>(&mut self, m: Metric, f: impl FnOnce() -> O) -> O {
        let start = std::time::Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        match m.kind() {
            MetricKind::Histogram => self.observe(m, nanos),
            _ => self.counters[m as usize] += nanos,
        }
        out
    }
}

/// Probes can be threaded by mutable reference (shard loops, flush
/// helpers) without giving up the zero-cost guarantee.
impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn add(&mut self, m: Metric, delta: u64) {
        (**self).add(m, delta);
    }

    #[inline(always)]
    fn gauge(&mut self, m: Metric, value: u64) {
        (**self).gauge(m, value);
    }

    #[inline(always)]
    fn observe(&mut self, m: Metric, value: u64) {
        (**self).observe(m, value);
    }

    #[inline(always)]
    fn timed<O>(&mut self, m: Metric, f: impl FnOnce() -> O) -> O {
        (**self).timed(m, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_stats_is_enabled() {
        const { assert!(!NoopRecorder::ENABLED && StatsRecorder::ENABLED) }
    }

    #[test]
    fn counters_gauges_and_hists_record() {
        let mut r = StatsRecorder::new();
        r.add(Metric::TaintProcessCalls, 2);
        r.add(Metric::TaintProcessCalls, 3);
        assert_eq!(r.get(Metric::TaintProcessCalls), 5);
        r.gauge(Metric::TaintLivePages, 7);
        r.gauge(Metric::TaintLivePages, 4);
        assert_eq!(r.get(Metric::TaintLivePages), 4);
        r.observe(Metric::TaintJoinWidth, 3);
        assert_eq!(r.hist(Metric::TaintJoinWidth).count(), 1);
        assert_eq!(r.hist(Metric::TaintJoinWidth).max(), 3);
    }

    #[test]
    fn timed_charges_nanos() {
        let mut r = StatsRecorder::new();
        let out =
            r.timed(Metric::McComposeNanos, || std::hint::black_box((0..1000u64).sum::<u64>()));
        assert_eq!(out, 499_500);
        assert!(r.get(Metric::McComposeNanos) > 0, "a real computation takes >0ns");
    }

    #[test]
    fn merge_combines_by_kind() {
        let mut a = StatsRecorder::new();
        let mut b = StatsRecorder::new();
        a.add(Metric::DdgEvictions, 1);
        b.add(Metric::DdgEvictions, 2);
        b.gauge(Metric::DdgWindowLen, 99);
        b.observe(Metric::DdgRecordBytes, 3);
        a.merge(&b);
        assert_eq!(a.get(Metric::DdgEvictions), 3);
        assert_eq!(a.get(Metric::DdgWindowLen), 99);
        assert_eq!(a.hist(Metric::DdgRecordBytes).count(), 1);
    }

    #[test]
    fn every_hist_metric_has_a_slot() {
        for m in Metric::ALL {
            let is_hist = matches!(m.kind(), MetricKind::Histogram);
            assert_eq!(HIST_SLOT[m as usize] != usize::MAX, is_hist, "{}", m.path());
        }
        const { assert!(N_HIST > 0) }
    }
}
