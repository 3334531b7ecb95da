//! Deterministic, seedable fault injection for the epoch pipeline.
//!
//! The epoch runners ([`crate::epoch`], [`crate::lineage_shard`])
//! distribute self-contained epoch summaries across helper shards;
//! because a summary is a pure function of its epoch's records and I/O
//! base, any lost or damaged epoch can be recomputed anywhere with
//! bit-identical results. This module provides the *adversary* for
//! exercising that property: a [`FaultPlan`] names exact
//! `(site, shard, epoch)` coordinates at which the pipeline misbehaves.
//! An epoch's shard is its home shard `epoch % workers` on the first
//! attempt and spare shard `workers + round` on each retry, whichever
//! thread runs it, so recovery tests are reproducible down to the
//! individual epoch.
//!
//! The design mirrors the `dift-obs` [`dift_obs::Recorder`] pattern:
//! instrumented functions are generic over `F: FaultPlan` with
//! [`NoopFaults`] as the default, and every injection site guards on
//! `F::ARMED` — a monomorphized `false` for the no-op plan, so release
//! builds of the ordinary entry points carry no fault-injection code at
//! all.

use std::sync::Arc;

/// Marker every injected panic message starts with, so panic hooks and
/// failure handlers can tell injected faults from real bugs.
pub const INJECTED_PANIC_MARKER: &str = "injected fault:";

/// A place in the pipeline where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The shard panics while summarizing the epoch (caught by the epoch
    /// engine's per-epoch `catch_unwind`).
    ShardPanic,
    /// The epoch's records never reach the shard: no summary comes back.
    DropMessage,
    /// The shard wedges at the start of the epoch and never reports it —
    /// the stuck-consumer scenario. The epoch is lost like a dropped one,
    /// and the wedge counts as a lost shard (`RecoveryStats::shards_lost`).
    QueueStall,
    /// The shard silently corrupts the epoch's summary (modeled as
    /// summarizing the epoch minus its first record, the kind of damage
    /// the record-count integrity check catches).
    CorruptSummary,
}

impl FaultSite {
    /// Every site, in a stable order (the fault-matrix experiments and
    /// CI grid iterate this).
    pub const ALL: [FaultSite; 4] = [
        FaultSite::ShardPanic,
        FaultSite::DropMessage,
        FaultSite::QueueStall,
        FaultSite::CorruptSummary,
    ];

    /// Stable snake_case name for reports and JSON artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::ShardPanic => "shard_panic",
            FaultSite::DropMessage => "drop_message",
            FaultSite::QueueStall => "queue_stall",
            FaultSite::CorruptSummary => "corrupt_summary",
        }
    }
}

/// A deterministic oracle deciding whether a fault fires at a pipeline
/// coordinate. `fires` must be pure: the same `(site, shard, epoch)`
/// always returns the same answer, so a retry on a *different* shard
/// index sees fresh coordinates while a retry on the same ones re-fails.
pub trait FaultPlan: Clone + Send + 'static {
    /// `false` plans promise `fires` never returns `true`; injection
    /// sites guard on this so the no-fault build compiles the sites
    /// away, exactly like `Recorder::ENABLED`.
    const ARMED: bool;

    /// Does a fault fire at this coordinate?
    fn fires(&self, site: FaultSite, shard: usize, epoch: usize) -> bool;
}

/// The default plan: no faults, no cost. With `F = NoopFaults` every
/// `if F::ARMED` injection site folds away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopFaults;

impl FaultPlan for NoopFaults {
    const ARMED: bool = false;

    #[inline(always)]
    fn fires(&self, _site: FaultSite, _shard: usize, _epoch: usize) -> bool {
        false
    }
}

/// One scripted fault at an exact coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    pub site: FaultSite,
    pub shard: usize,
    pub epoch: usize,
}

/// A scripted plan: an explicit list of coordinates, either hand-written
/// (the CI fault grid) or generated from a seed (the differential
/// proptest). Cloning shares the list.
#[derive(Clone, Debug)]
pub struct ScriptedFaults {
    injections: Arc<Vec<Injection>>,
}

impl ScriptedFaults {
    pub fn new(injections: Vec<Injection>) -> ScriptedFaults {
        ScriptedFaults { injections: Arc::new(injections) }
    }

    /// A single fault at one coordinate — the unit of the fault matrix.
    pub fn single(site: FaultSite, shard: usize, epoch: usize) -> ScriptedFaults {
        ScriptedFaults::new(vec![Injection { site, shard, epoch }])
    }

    /// `count` pseudo-random injections drawn deterministically from
    /// `seed` over `shards × epochs` coordinates. Identical seeds give
    /// identical plans on every platform (splitmix64, no global state).
    pub fn seeded(seed: u64, count: usize, shards: usize, epochs: usize) -> ScriptedFaults {
        let mut state = seed;
        let mut next = move || {
            // splitmix64: the standard seedable 64-bit mixer.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let injections = (0..count)
            .map(|_| Injection {
                site: FaultSite::ALL[(next() % FaultSite::ALL.len() as u64) as usize],
                shard: (next() % shards.max(1) as u64) as usize,
                epoch: (next() % epochs.max(1) as u64) as usize,
            })
            .collect();
        ScriptedFaults { injections: Arc::new(injections) }
    }

    /// The scripted coordinates (diagnostics / test assertions).
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }
}

impl FaultPlan for ScriptedFaults {
    const ARMED: bool = true;

    fn fires(&self, site: FaultSite, shard: usize, epoch: usize) -> bool {
        self.injections.iter().any(|i| i.site == site && i.shard == shard && i.epoch == epoch)
    }
}

/// Install a process-wide panic hook that suppresses the default
/// backtrace spew for *injected* panics (payloads starting with
/// [`INJECTED_PANIC_MARKER`]) while forwarding every real panic to the
/// previously installed hook. Idempotent; intended for test binaries and
/// the resilience experiment, where injected shard panics are expected
/// and their default-hook output would drown the real signal.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !crate::helper::panic_message(info.payload()).starts_with(INJECTED_PANIC_MARKER) {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disarmed() {
        const { assert!(!NoopFaults::ARMED) }
        assert!(!NoopFaults.fires(FaultSite::ShardPanic, 0, 0));
    }

    #[test]
    fn scripted_fires_only_at_its_coordinates() {
        let plan = ScriptedFaults::single(FaultSite::DropMessage, 1, 3);
        assert!(plan.fires(FaultSite::DropMessage, 1, 3));
        assert!(!plan.fires(FaultSite::DropMessage, 1, 4));
        assert!(!plan.fires(FaultSite::DropMessage, 0, 3));
        assert!(!plan.fires(FaultSite::ShardPanic, 1, 3));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = ScriptedFaults::seeded(42, 8, 4, 100);
        let b = ScriptedFaults::seeded(42, 8, 4, 100);
        assert_eq!(a.injections(), b.injections());
        for i in a.injections() {
            assert!(i.shard < 4);
            assert!(i.epoch < 100);
        }
        let c = ScriptedFaults::seeded(43, 8, 4, 100);
        assert_ne!(a.injections(), c.injections(), "different seeds should differ");
    }

    #[test]
    fn fires_is_pure() {
        let plan = ScriptedFaults::seeded(7, 16, 8, 64);
        for i in plan.injections() {
            assert!(plan.fires(i.site, i.shard, i.epoch));
            assert_eq!(plan.fires(i.site, i.shard, i.epoch), plan.fires(i.site, i.shard, i.epoch));
        }
    }
}
