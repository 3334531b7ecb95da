//! Sink observation and boundary-policy evaluation.
//!
//! The evaluator is split into three pure stages so the differential
//! tests can drive them with taint state produced by *any* engine
//! (plain, epoch-parallel, summary-cached):
//!
//! 1. [`SinkObserver`] — a serial lineage pass over the step stream
//!    that captures into a [`SinkLog`], at every potential sink site,
//!    the per-value input set: the address register's lineage *before*
//!    the step (matching the taint engine's check-before-write order),
//!    the stored value's lineage *after* it (exact even for atomics),
//!    and each emitted word's lineage. Only the taint state joined in
//!    stage 2 may come from a parallel engine.
//! 2. [`combine_events`] — joins the observations with the PC-taint
//!    engine's alerts and output labels into [`SinkEvent`]s. The join
//!    key is the step index: the ISA has at most one address-forming
//!    register per instruction, so an alert's step uniquely names the
//!    offending register without widening `TaintAlert`.
//! 3. [`apply_policy`] — first-match rule evaluation producing
//!    structured [`SentinelAlert`]s with root-cause PCs, offending
//!    lineage sets, and containment receipts.

use crate::policy::{BoundaryPolicy, SinkClass, Verdict};
use dift_dbi::Tool;
use dift_isa::{Addr, MemAddr};
use dift_lineage::{BddBackend, LineageEngine};
use dift_obs::{Metric, NoopRecorder, Recorder};
use dift_taint::{AlertKind, PcTaint, TaintAlert, TaintEngine, TaintPolicy};
use dift_vm::{Machine, RunResult, StepEffects, ThreadId};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Per-value input sets captured at sink sites, plus the channel map
/// that resolves input indices to channels. [`SinkObserver`] fills one
/// as it runs; [`combine_events`] reads it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SinkLog {
    /// Pre-step address-register lineage, keyed by step. Only non-empty
    /// sets are recorded.
    pub addr_lineage: BTreeMap<u64, Vec<u64>>,
    /// `(step, tid, at, cell, lineage)` per store with non-empty set,
    /// post-state — the cell then holds exactly the stored set.
    pub stores: Vec<(u64, ThreadId, Addr, MemAddr, Vec<u64>)>,
    /// `(step, tid, at, channel, emit index, lineage)` per output with
    /// non-empty set.
    pub outputs: Vec<(u64, ThreadId, Addr, u16, u64, Vec<u64>)>,
    /// Channel that produced each input index.
    pub input_channels: Vec<u16>,
}

impl SinkLog {
    /// Distinct channels behind a lineage set, sorted. Consecutive input
    /// indices mostly come from one channel, so each run of equal
    /// channels is kept once and only the run heads are sorted.
    pub fn channels_of(&self, lineage: &[u64]) -> Vec<u16> {
        let mut chs: Vec<u16> = Vec::new();
        for ch in lineage.iter().filter_map(|&i| self.input_channels.get(i as usize).copied()) {
            if chs.last() != Some(&ch) {
                chs.push(ch);
            }
        }
        chs.sort_unstable();
        chs.dedup();
        chs
    }
}

/// The lineage pass: a [`LineageEngine`] over the roBDD backend plus
/// sink-site capture into a [`SinkLog`]. Machine-free (`process` takes
/// only the step effects and returns the cycle charge), so it runs
/// identically online as part of [`Sentinel`] or offline over a
/// captured step stream.
pub struct SinkObserver {
    lineage: LineageEngine<BddBackend>,
    obs: SinkLog,
}

impl Default for SinkObserver {
    fn default() -> Self {
        SinkObserver::new()
    }
}

/// Hard ceiling on materialized sink-lineage sets: the full 16-bit
/// input-id universe. Within the observer's id space this truncates
/// nothing, so captures stay exact; it makes the enumeration cost of a
/// sink event explicit (O(set), at most 64K) instead of trusting the
/// set representation never to hold a wider universe.
const MAX_SINK_SET: usize = 1 << 16;

impl SinkObserver {
    /// Observer with the standard 16-bit input-id space (64K inputs).
    pub fn new() -> SinkObserver {
        SinkObserver { lineage: LineageEngine::new(BddBackend::new(16)), obs: SinkLog::default() }
    }

    /// Apply one step and capture sink-site lineage. Returns the cycle
    /// charge (lineage bookkeeping + set unions).
    pub fn process(&mut self, fx: &StepEffects) -> u64 {
        // Pre-state: the address register's lineage as the taint
        // engine's checks see it (before this step's register write —
        // exact even when a load clobbers its own base register).
        if let Some(r) = fx.insn.addr_uses().as_slice().first() {
            let elems = self.lineage.reg_elements_up_to(fx.tid, r.index(), MAX_SINK_SET);
            if !elems.is_empty() {
                self.obs.addr_lineage.insert(fx.step, elems);
            }
        }

        let charge = self.lineage.process(fx);

        // Post-state: the written cell now holds exactly the stored set
        // (for atomics that is union(value reg, old cell) — reading the
        // cell back is what makes this exact).
        if let Some((cell, _, _)) = fx.mem_write {
            let elems = self.lineage.mem_elements_up_to(cell, MAX_SINK_SET);
            if !elems.is_empty() {
                self.obs.stores.push((fx.step, fx.tid, fx.addr, cell, elems));
            }
        }
        if fx.output.is_some() {
            // `LineageEngine::process` pushed this step's entry last.
            if let Some((ch, idx, elems)) = self.lineage.outputs.last() {
                if !elems.is_empty() {
                    self.obs.outputs.push((fx.step, fx.tid, fx.addr, *ch, *idx, elems.clone()));
                }
            }
        }
        charge
    }

    /// The captured observations (the channel map is refreshed first).
    pub fn observations(&mut self) -> &SinkLog {
        self.obs.input_channels = self.lineage.input_channels().to_vec();
        &self.obs
    }

    pub fn lineage(&self) -> &LineageEngine<BddBackend> {
        &self.lineage
    }
}

/// One policy-relevant use of derived data, ready for rule evaluation.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SinkEvent {
    pub step: u64,
    pub tid: ThreadId,
    /// Instruction performing the use.
    pub at: Addr,
    pub sink: SinkClass,
    /// Input indices the value derives from (sorted).
    pub lineage: Vec<u64>,
    /// Distinct input channels behind `lineage` (sorted).
    pub channels: Vec<u16>,
    /// PC-taint root-cause candidate: the most recent tainted writer of
    /// the offending value.
    pub root_cause_pc: Option<Addr>,
    /// When the offending value came from memory, the corrupted cell's
    /// last tainted writer — the paper's root-cause pointer.
    pub origin_pc: Option<Addr>,
}

fn sink_rank(sink: &SinkClass) -> u8 {
    match sink {
        SinkClass::MemReadAddr | SinkClass::MemWriteAddr | SinkClass::ControlTarget => 0,
        SinkClass::MemWriteValue => 1,
        SinkClass::Output { .. } => 2,
    }
}

/// Join sink observations with a PC-taint engine's alerts and output
/// labels into an ordered event list. Works on any engine's output as
/// long as it is bit-identical to the serial one — which the epoch and
/// summary-cache engines guarantee.
pub fn combine_events(
    obs: &SinkLog,
    alerts: &[TaintAlert<PcTaint>],
    output_labels: &[(u16, u64, PcTaint)],
) -> Vec<SinkEvent> {
    // Each `(channel, index)` is emitted once; the first label wins, as
    // a scan would find it.
    let mut output_pc: HashMap<(u16, u64), Option<Addr>> =
        HashMap::with_capacity(output_labels.len());
    for (ch, idx, label) in output_labels {
        output_pc.entry((*ch, *idx)).or_insert_with(|| label.pc());
    }
    let mut events = Vec::new();
    for a in alerts {
        let sink = match a.kind {
            AlertKind::TaintedLoadAddr => SinkClass::MemReadAddr,
            AlertKind::TaintedStoreAddr => SinkClass::MemWriteAddr,
            AlertKind::TaintedControl => SinkClass::ControlTarget,
        };
        let lineage = obs.addr_lineage.get(&a.step).cloned().unwrap_or_default();
        let channels = obs.channels_of(&lineage);
        events.push(SinkEvent {
            step: a.step,
            tid: a.tid,
            at: a.at,
            sink,
            lineage,
            channels,
            root_cause_pc: a.label.pc(),
            origin_pc: a.origin.as_ref().and_then(|(_, l)| l.pc()),
        });
    }
    for (step, tid, at, _cell, lineage) in &obs.stores {
        let channels = obs.channels_of(lineage);
        events.push(SinkEvent {
            step: *step,
            tid: *tid,
            at: *at,
            sink: SinkClass::MemWriteValue,
            lineage: lineage.clone(),
            channels,
            root_cause_pc: None,
            origin_pc: None,
        });
    }
    for (step, tid, at, ch, idx, lineage) in &obs.outputs {
        let channels = obs.channels_of(lineage);
        let root_cause_pc = output_pc.get(&(*ch, *idx)).copied().flatten();
        events.push(SinkEvent {
            step: *step,
            tid: *tid,
            at: *at,
            sink: SinkClass::Output { channel: Some(*ch) },
            lineage: lineage.clone(),
            channels,
            root_cause_pc,
            origin_pc: None,
        });
    }
    // One instruction can appear as an address alert AND a value store
    // (a store through a tainted pointer): order within a step by sink
    // class so the stream is canonical.
    events.sort_by_key(|e| (e.step, sink_rank(&e.sink)));
    events
}

/// Same-tick containment action, issued with a `Contain` verdict.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ContainmentReceipt {
    /// Stable id (FNV-1a of rule id, step, and site) so two replays of
    /// the same scenario produce byte-identical receipts.
    pub receipt_id: u64,
    pub rule: String,
    /// What was contained: `halt-control`, `block-store`, `block-load`,
    /// `quarantine-cell`, or `suppress-output:<ch>`.
    pub action: String,
    pub step: u64,
}

fn receipt_id(rule: &str, step: u64, at: Addr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in rule.bytes() {
        eat(b);
    }
    for b in step.to_le_bytes() {
        eat(b);
    }
    for b in at.to_le_bytes() {
        eat(b);
    }
    h
}

fn containment_action(sink: &SinkClass) -> String {
    match sink {
        SinkClass::ControlTarget => "halt-control".to_string(),
        SinkClass::MemWriteAddr => "block-store".to_string(),
        SinkClass::MemReadAddr => "block-load".to_string(),
        SinkClass::MemWriteValue => "quarantine-cell".to_string(),
        SinkClass::Output { channel } => match channel {
            Some(ch) => format!("suppress-output:{ch}"),
            None => "suppress-output".to_string(),
        },
    }
}

/// A boundary violation: which rule fired, where, on what lineage, and
/// — via PC taint — the root-cause candidate instruction.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SentinelAlert {
    pub rule: String,
    pub verdict: Verdict,
    pub step: u64,
    pub tid: ThreadId,
    pub at: Addr,
    pub sink: SinkClass,
    pub root_cause_pc: Option<Addr>,
    pub origin_pc: Option<Addr>,
    /// The offending lineage set (input indices, sorted).
    pub lineage: Vec<u64>,
    pub channels: Vec<u16>,
    /// Present iff the verdict was `Contain`.
    pub receipt: Option<ContainmentReceipt>,
}

/// Result of evaluating a policy over an event stream.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SentinelOutcome {
    pub events: Vec<SinkEvent>,
    pub alerts: Vec<SentinelAlert>,
    /// Events that ended in `Allow` (by rule or default).
    pub allowed: u64,
}

impl SentinelOutcome {
    /// Canonical byte representation — the replay-determinism diff and
    /// the differential proptests compare these byte-for-byte.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("outcome serializes")
    }
}

/// Evaluate a policy over combined events (first match wins per event).
pub fn apply_policy(policy: &BoundaryPolicy, events: Vec<SinkEvent>) -> SentinelOutcome {
    let mut alerts = Vec::new();
    let mut allowed = 0u64;
    for e in &events {
        let (rule, verdict) = policy.decide(&e.sink, &e.lineage, &e.channels);
        match verdict {
            Verdict::Allow => allowed += 1,
            Verdict::Deny | Verdict::Contain => {
                let rule_id =
                    rule.map(|r| r.id.clone()).unwrap_or_else(|| "default-deny".to_string());
                let receipt = (verdict == Verdict::Contain).then(|| ContainmentReceipt {
                    receipt_id: receipt_id(&rule_id, e.step, e.at),
                    rule: rule_id.clone(),
                    action: containment_action(&e.sink),
                    step: e.step,
                });
                alerts.push(SentinelAlert {
                    rule: rule_id,
                    verdict,
                    step: e.step,
                    tid: e.tid,
                    at: e.at,
                    sink: e.sink.clone(),
                    root_cause_pc: e.root_cause_pc,
                    origin_pc: e.origin_pc,
                    lineage: e.lineage.clone(),
                    channels: e.channels.clone(),
                    receipt,
                });
            }
        }
    }
    SentinelOutcome { events, alerts, allowed }
}

/// The online sentinel: one DBI tool running PC-taint detection and the
/// lineage sink observer side by side, evaluating the boundary policy
/// when the run finishes. Cycle accounting: the taint engine charges
/// its usual costs ([`dift_taint::costs::TAINT_PER_INSN`] etc. when the
/// taint policy says so) and the observer charges lineage costs on top
/// — the sentinel-overhead experiment measures exactly this increment.
pub struct Sentinel<R: Recorder = NoopRecorder> {
    pub taint: TaintEngine<PcTaint>,
    pub observer: SinkObserver,
    pub policy: BoundaryPolicy,
    /// Populated by `on_finish` (or an explicit [`Sentinel::finalize`]).
    pub outcome: Option<SentinelOutcome>,
    /// The probe sink (drain after the run).
    pub obs: R,
}

impl Sentinel {
    pub fn new(taint_policy: TaintPolicy, policy: BoundaryPolicy) -> Sentinel {
        Sentinel::with_recorder(taint_policy, policy, NoopRecorder)
    }
}

impl<R: Recorder> Sentinel<R> {
    pub fn with_recorder(taint_policy: TaintPolicy, policy: BoundaryPolicy, obs: R) -> Sentinel<R> {
        Sentinel {
            taint: TaintEngine::new(taint_policy),
            observer: SinkObserver::new(),
            policy,
            outcome: None,
            obs,
        }
    }

    /// Combine observations with taint state and evaluate the policy.
    pub fn finalize(&mut self) -> &SentinelOutcome {
        let events = combine_events(
            self.observer.observations(),
            &self.taint.alerts,
            &self.taint.output_labels,
        );
        let outcome = apply_policy(&self.policy, events);
        if R::ENABLED {
            self.obs.add(Metric::SentinelSinkEvents, outcome.events.len() as u64);
            self.obs.add(Metric::SentinelAlerts, outcome.alerts.len() as u64);
            let receipts = outcome.alerts.iter().filter(|a| a.receipt.is_some()).count();
            self.obs.add(Metric::SentinelReceipts, receipts as u64);
            self.obs.add(Metric::SentinelAllowed, outcome.allowed);
            for e in &outcome.events {
                self.obs.observe(Metric::SentinelLineageWidth, e.lineage.len() as u64);
            }
        }
        self.outcome = Some(outcome);
        self.outcome.as_ref().expect("just set")
    }
}

impl<R: Recorder> Tool for Sentinel<R> {
    fn on_start(&mut self, m: &mut Machine) {
        self.taint.on_start(m);
    }

    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        self.taint.after(m, fx);
        let c = self.observer.process(fx);
        m.charge(c);
    }

    fn on_finish(&mut self, m: &mut Machine, r: &RunResult) {
        self.taint.on_finish(m, r);
        self.finalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LineagePredicate, SourceSpec, TaintBoundary};
    use dift_dbi::Engine;
    use dift_isa::{BinOp, ProgramBuilder, Reg};
    use dift_vm::MachineConfig;
    use std::sync::Arc;

    /// Two channels in, mixed store, tainted-address store, output.
    fn run_sentinel(policy: BoundaryPolicy) -> Sentinel {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.input(Reg(2), 1);
        b.bin(BinOp::Add, Reg(3), Reg(1), Reg(2)); // mixed-lineage value
        b.li(Reg(4), 400);
        b.store(Reg(3), Reg(4), 0); // MemWriteValue sink, channels {0,1}
        b.bini(BinOp::And, Reg(5), Reg(1), 63);
        b.addi(Reg(5), Reg(5), 300);
        b.store(Reg(1), Reg(5), 0); // tainted store address -> alert
        b.output(Reg(3), 2); // Output sink, channels {0,1}
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let mut m = Machine::new(p, MachineConfig::small());
        m.feed_input(0, &[7]);
        m.feed_input(1, &[9]);
        let mut s = Sentinel::new(TaintPolicy::default(), policy);
        Engine::new(m).run_tool(&mut s);
        s
    }

    fn mixed_policy() -> BoundaryPolicy {
        BoundaryPolicy::new()
            .class("untrusted", vec![0])
            .rule(TaintBoundary::new(
                "block-tainted-store",
                SourceSpec::Class("untrusted".into()),
                SinkClass::MemWriteAddr,
                Verdict::Contain,
            ))
            .rule(
                TaintBoundary::new(
                    "no-mixed-writes",
                    SourceSpec::Any,
                    SinkClass::MemWriteValue,
                    Verdict::Deny,
                )
                .when(LineagePredicate::MinDistinctChannels(2)),
            )
    }

    #[test]
    fn sentinel_raises_structured_alerts_with_lineage() {
        let s = run_sentinel(mixed_policy());
        let out = s.outcome.expect("finalized on finish");
        let rules: Vec<&str> = out.alerts.iter().map(|a| a.rule.as_str()).collect();
        assert!(rules.contains(&"no-mixed-writes"), "{rules:?}");
        assert!(rules.contains(&"block-tainted-store"), "{rules:?}");
        let mixed = out.alerts.iter().find(|a| a.rule == "no-mixed-writes").unwrap();
        assert_eq!(mixed.channels, vec![0, 1]);
        assert_eq!(mixed.lineage.len(), 2);
        assert_eq!(mixed.verdict, Verdict::Deny);
        assert!(mixed.receipt.is_none());
        let store = out.alerts.iter().find(|a| a.rule == "block-tainted-store").unwrap();
        assert_eq!(store.verdict, Verdict::Contain);
        let receipt = store.receipt.as_ref().expect("contain carries a receipt");
        assert_eq!(receipt.action, "block-store");
        assert!(store.root_cause_pc.is_some(), "PC taint names the tainted writer");
    }

    #[test]
    fn allow_rule_suppresses_the_alert_and_counts() {
        let policy = BoundaryPolicy::new().rule(TaintBoundary::new(
            "writes-are-fine",
            SourceSpec::Any,
            SinkClass::MemWriteValue,
            Verdict::Allow,
        ));
        let s = run_sentinel(policy);
        let out = s.outcome.unwrap();
        assert!(out.alerts.is_empty());
        assert!(out.allowed >= 2, "store + output events allowed: {}", out.allowed);
        assert!(!out.events.is_empty());
    }

    #[test]
    fn outcome_is_deterministic_across_runs() {
        let a = run_sentinel(mixed_policy()).outcome.unwrap().canonical_json();
        let b = run_sentinel(mixed_policy()).outcome.unwrap().canonical_json();
        assert_eq!(a, b);
    }

    #[test]
    fn offline_pipeline_matches_online_tool() {
        // Drive the observer offline over a captured stream and compare
        // with the online Sentinel outcome byte-for-byte.
        let online = run_sentinel(mixed_policy());
        let online_json = online.outcome.as_ref().unwrap().canonical_json();

        let mut b = ProgramBuilder::new();
        b.func("main");
        b.input(Reg(1), 0);
        b.input(Reg(2), 1);
        b.bin(BinOp::Add, Reg(3), Reg(1), Reg(2));
        b.li(Reg(4), 400);
        b.store(Reg(3), Reg(4), 0);
        b.bini(BinOp::And, Reg(5), Reg(1), 63);
        b.addi(Reg(5), Reg(5), 300);
        b.store(Reg(1), Reg(5), 0);
        b.output(Reg(3), 2);
        b.halt();
        let p = Arc::new(b.build().unwrap());
        let mut m = Machine::new(p, MachineConfig::small());
        m.feed_input(0, &[7]);
        m.feed_input(1, &[9]);

        let (fxs, _) = dift_dbi::capture(m);

        let mut taint = TaintEngine::<PcTaint>::new(TaintPolicy::default());
        let mut observer = SinkObserver::new();
        for fx in &fxs {
            taint.process(fx);
            observer.process(fx);
        }
        let events = combine_events(observer.observations(), &taint.alerts, &taint.output_labels);
        let offline = apply_policy(&mixed_policy(), events);
        assert_eq!(offline.canonical_json(), online_json);
    }

    #[test]
    fn channels_of_is_the_sorted_distinct_channels() {
        // 40 inputs over 20 channels, the channel changing at every input
        // or every third one; the lineages come back to a channel after
        // others and reach past the last input.
        let lineages: [Vec<u64>; 5] =
            [vec![], vec![3], vec![0, 1, 2, 20, 21, 99], (0..17).collect(), (0..45).collect()];
        for run in [1u16, 3] {
            let log = SinkLog {
                input_channels: (0..40u16).map(|i| (i / run * 7) % 20).collect(),
                ..SinkLog::default()
            };
            let oracle = |lineage: &[u64]| {
                let mut chs: Vec<u16> = lineage
                    .iter()
                    .filter_map(|&i| log.input_channels.get(i as usize).copied())
                    .collect();
                chs.sort_unstable();
                chs.dedup();
                chs
            };
            for lineage in &lineages {
                assert_eq!(log.channels_of(lineage), oracle(lineage), "run {run}: {lineage:?}");
            }
        }
    }

    #[test]
    fn receipt_ids_are_stable_but_site_distinct() {
        let a = receipt_id("rule-a", 10, 5);
        assert_eq!(a, receipt_id("rule-a", 10, 5));
        assert_ne!(a, receipt_id("rule-a", 11, 5));
        assert_ne!(a, receipt_id("rule-b", 10, 5));
    }
}
