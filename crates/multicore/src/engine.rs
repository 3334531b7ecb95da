//! The epoch engine: one worker pool and one recovery ladder under every
//! epoch-parallel runner.
//!
//! Taint ([`crate::epoch`]) and roBDD lineage with slice-index fragments
//! ([`crate::lineage_shard`]) fan out the same way. The effects stream is
//! cut into fixed-size epochs; an [`EpochAnalysis`] summarizes each epoch
//! as a pure function of its records and the label-independent pre-scans;
//! the runner composes the summaries in epoch order. This module owns
//! everything between the cut and the compose: workers that claim epochs
//! from a shared counter, and the isolate → detect → retry → degrade
//! ladder described in [`crate::resilience`] (DESIGN.md §11). A runner
//! feeds the [`Ladder`] its stream whole, or window by window as the
//! records are made, and gets the summaries back in epoch order.
//!
//! Fault coordinates and fail-stop diagnostics use an epoch's *home
//! shard* `e % workers` — the shard the timing model charges — never the
//! thread that happened to claim it, so a [`FaultPlan`] fires at the
//! same place on every run.

use crate::faultplan::{FaultPlan, FaultSite, INJECTED_PANIC_MARKER};
use crate::helper::panic_message;
use crate::resilience::{RecoveryPolicy, RecoveryStats};
use dift_obs::{Metric, Recorder};
use dift_taint::IoBase;
use dift_vm::StepEffects;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// One analysis the engine fans out by epoch.
pub(crate) trait EpochAnalysis: Sync {
    /// The composable result of one epoch.
    type Summary: Send;

    /// Summarize epoch `epoch` from its `records`, given the per-channel
    /// I/O counts of the stream before it. Must be a pure function of its
    /// arguments and the analysis' own pre-scans, so a lost epoch can be
    /// recomputed anywhere bit-identically.
    fn summarize(&self, epoch: usize, records: &[StepEffects], base: &IoBase) -> Self::Summary;

    /// Records the summary saw; the integrity check rejects a summary
    /// whose count differs from its epoch's length.
    fn instrs(summary: &Self::Summary) -> u64;
}

/// Two analyses summarized side by side, validated as one.
impl<A: EpochAnalysis, B: EpochAnalysis> EpochAnalysis for (A, B) {
    type Summary = (A::Summary, B::Summary);

    fn summarize(&self, epoch: usize, records: &[StepEffects], base: &IoBase) -> Self::Summary {
        (self.0.summarize(epoch, records, base), self.1.summarize(epoch, records, base))
    }

    /// The records both halves saw.
    fn instrs(summary: &Self::Summary) -> u64 {
        A::instrs(&summary.0).min(B::instrs(&summary.1))
    }
}

/// One summarization attempt of an epoch on one shard.
struct Attempt<S> {
    summary: Result<S, String>,
    /// Injected faults that fired.
    fired: u64,
    /// The shard wedged (an injected `QueueStall`).
    wedged: bool,
}

/// Summarize `epoch` once as `shard`, injecting whatever the plan
/// scripts at that coordinate.
fn attempt<A: EpochAnalysis, F: FaultPlan>(
    analysis: &A,
    faults: &F,
    shard: usize,
    epoch: usize,
    records: &[StepEffects],
    base: &IoBase,
) -> Attempt<A::Summary> {
    let fires = |site| F::ARMED && faults.fires(site, shard, epoch);
    let lost = |why: &str, wedged| Attempt { summary: Err(why.to_string()), fired: 1, wedged };
    if fires(FaultSite::QueueStall) {
        return lost("shard wedged at the epoch's start (injected queue stall)", true);
    }
    if fires(FaultSite::DropMessage) {
        return lost("the epoch's records never reached the shard (injected drop)", false);
    }
    let corrupt = fires(FaultSite::CorruptSummary);
    let panics = fires(FaultSite::ShardPanic);
    let summary = catch_unwind(AssertUnwindSafe(|| {
        if panics {
            panic_any(format!("{INJECTED_PANIC_MARKER} scripted shard panic"));
        }
        // Injected corruption skips the epoch's first record: damage
        // only the integrity check can see.
        analysis.summarize(epoch, if corrupt { &records[1..] } else { records }, base)
    }))
    .map_err(|p| panic_message(&*p))
    .and_then(|s| {
        if A::instrs(&s) == records.len() as u64 {
            Ok(s)
        } else {
            Err("summary failed the record-count check".to_string())
        }
    });
    Attempt { summary, fired: u64::from(corrupt) + u64::from(panics), wedged: false }
}

/// Run `job(plan, i)` for every `i` in `0..n` on up to `workers` scoped
/// threads that claim indices from a shared counter, each thread with
/// its own clone of the fault plan. Returns every result with its nanos
/// in index order, plus each thread's busy nanos.
fn pool<F: FaultPlan, T: Send>(
    n: usize,
    workers: usize,
    faults: &F,
    job: impl Fn(&F, usize) -> T + Sync,
) -> (Vec<(T, u64)>, Vec<u64>) {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(T, u64)>> = (0..n).map(|_| None).collect();
    let mut busy = Vec::new();
    thread::scope(|s| {
        let threads: Vec<_> = (0..workers.min(n))
            .map(|_| {
                let (plan, next, job) = (faults.clone(), &next, &job);
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        let t0 = Instant::now();
                        let res = job(&plan, i);
                        done.push((i, res, t0.elapsed().as_nanos() as u64));
                    }
                })
            })
            .collect();
        for t in threads {
            let done = t.join().unwrap_or_else(|p| resume_unwind(p));
            busy.push(done.iter().map(|d| d.2).sum());
            for (i, res, nanos) in done {
                slots[i] = Some((res, nanos));
            }
        }
    });
    (slots.into_iter().map(|s| s.expect("workers claim every index")).collect(), busy)
}

/// Records a producer buffers at most before handing them to the
/// engine: the modeled runner's cost layer summarizes the stream in
/// windows of whole epochs this long and drops each window once it is
/// composed, so its memory does not grow with the run.
pub(crate) const WINDOW_RECORDS: usize = 1 << 15;

/// The ladder over one run's epochs, fed in windows of whole epochs in
/// stream order (only the last window may end in a partial epoch). Epoch
/// indices, home shards and I/O bases run on across windows, so a run
/// summarized in many windows is indistinguishable from one fed whole.
pub(crate) struct Ladder<A, F> {
    analysis: A,
    faults: F,
    policy: RecoveryPolicy,
    workers: usize,
    epoch_len: usize,
    /// Histogram that gets each epoch's summarize nanos.
    epoch_nanos: Metric,
    /// Index of the next window's first epoch.
    next: usize,
    /// Per-channel I/O counts of the stream before the next window.
    base: IoBase,
    /// Busy summarize nanos of each pool worker.
    pub worker_nanos: Vec<u64>,
    /// Records of the epochs recovery re-summarized (0 without faults).
    pub recovered_records: u64,
    recovery: RecoveryStats,
}

impl<A: EpochAnalysis, F: FaultPlan> Ladder<A, F> {
    /// A ladder over `workers` pool threads and `epoch_len`-record
    /// epochs that records each epoch's summarize nanos on `epoch_nanos`
    /// (one sample per epoch).
    ///
    /// Fail-stop (`!policy.enabled`) panics at the first lost epoch with a
    /// diagnostic naming its home shard; otherwise every loss is recovered
    /// and the summaries are exactly what a fault-free run produces.
    pub fn new(
        analysis: A,
        faults: F,
        policy: RecoveryPolicy,
        workers: usize,
        epoch_len: usize,
        epoch_nanos: Metric,
    ) -> Self {
        assert!(epoch_len >= 1, "epochs must be non-empty");
        assert!(workers >= 1, "at least one worker");
        Ladder {
            analysis,
            faults,
            policy,
            workers,
            epoch_len,
            epoch_nanos,
            next: 0,
            base: IoBase::default(),
            worker_nanos: vec![0; workers],
            recovered_records: 0,
            recovery: RecoveryStats::default(),
        }
    }

    /// Records in one window of a producer that feeds the ladder as it
    /// goes: whole epochs, about [`WINDOW_RECORDS`].
    pub fn window_records(&self) -> usize {
        (WINDOW_RECORDS / self.epoch_len).max(1) * self.epoch_len
    }

    /// Epochs summarized so far.
    pub fn epochs(&self) -> usize {
        self.next
    }

    /// Summarize the next window, `records`, under the ladder and return
    /// its summaries in epoch order.
    pub fn run<R: Recorder>(&mut self, records: &[StepEffects], obs: &mut R) -> Vec<A::Summary> {
        let chunks: Vec<&[StepEffects]> = records.chunks(self.epoch_len).collect();
        let first = self.next;
        self.next += chunks.len();
        // Sequential pre-scan: per-channel I/O counts at each epoch start
        // (label-independent, so it does not limit scaling).
        let mut bases = Vec::with_capacity(chunks.len());
        for c in &chunks {
            bases.push(self.base.clone());
            self.base.advance(c);
        }
        let (analysis, workers, rs) = (&self.analysis, self.workers, &mut self.recovery);
        let run = |plan: &F, i: usize, shard| {
            attempt(analysis, plan, shard, first + i, chunks[i], &bases[i])
        };

        let mut slots = Vec::with_capacity(chunks.len());
        let mut lost = Vec::new();
        let (home, busy) =
            pool(chunks.len(), workers, &self.faults, |p, i| run(p, i, (first + i) % workers));
        for (total, b) in self.worker_nanos.iter_mut().zip(busy) {
            *total += b;
        }
        for (i, (a, nanos)) in home.into_iter().enumerate() {
            if R::ENABLED {
                obs.observe(self.epoch_nanos, nanos);
            }
            rs.faults_injected += a.fired;
            rs.shards_lost += u64::from(a.wedged);
            if let Err(why) = &a.summary {
                let e = first + i;
                if !self.policy.enabled {
                    panic!("epoch shard {} failed in epoch {e}: {why}", e % workers);
                }
                lost.push(i);
            }
            slots.push(a.summary.ok());
        }
        rs.epochs_lost += lost.len() as u64;
        self.recovered_records += lost.iter().map(|&i| chunks[i].len() as u64).sum::<u64>();

        for round in 0..self.policy.max_retries as usize {
            if lost.is_empty() {
                break;
            }
            // A spare has a fresh shard index, hence fresh fault coordinates.
            let spare = workers + round;
            let (tries, _) = pool(lost.len(), workers, &self.faults, |p, j| run(p, lost[j], spare));
            for (&i, (a, nanos)) in lost.iter().zip(tries) {
                rs.retries += 1;
                rs.faults_injected += a.fired;
                rs.shards_lost += u64::from(a.wedged);
                if let Ok(s) = a.summary {
                    if R::ENABLED {
                        obs.observe(Metric::McRecoveryNanos, nanos);
                    }
                    slots[i] = Some(s);
                    rs.spare_recovered += 1;
                }
            }
            lost.retain(|&i| slots[i].is_none());
        }
        for i in lost {
            let t0 = Instant::now();
            slots[i] = Some(analysis.summarize(first + i, chunks[i], &bases[i]));
            if R::ENABLED {
                obs.observe(Metric::McRecoveryNanos, t0.elapsed().as_nanos() as u64);
            }
            rs.degraded_epochs += 1;
        }
        rs.epochs_recovered = rs.epochs_lost;
        slots.into_iter().map(|s| s.expect("recovery fills every epoch")).collect()
    }

    /// Add the run's recovery counters to `obs` and return them.
    pub fn finish<R: Recorder>(self, obs: &mut R) -> RecoveryStats {
        let rs = self.recovery;
        if R::ENABLED {
            obs.add(Metric::McFaultsInjected, rs.faults_injected);
            obs.add(Metric::McEpochsLost, rs.epochs_lost);
            obs.add(Metric::McEpochsRecovered, rs.epochs_recovered);
            obs.add(Metric::McRecoveryRetries, rs.retries);
            obs.add(Metric::McDegradedEpochs, rs.degraded_epochs);
            obs.add(Metric::McShardsLost, rs.shards_lost);
        }
        rs
    }
}
