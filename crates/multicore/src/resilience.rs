//! Recovery policy and accounting for the fault-tolerant epoch pipeline.
//!
//! Epoch summaries are pure functions of an epoch's records and the
//! label-independent pre-scans, so any helper-side loss — a shard panic,
//! a wedged shard, a dropped epoch, a damaged summary — is recoverable
//! by recomputing the epoch elsewhere, with results bit-identical to the
//! serial engine. This module holds the knobs ([`RecoveryPolicy`]) and
//! the ledger ([`RecoveryStats`]) of that machinery; the mechanism is the
//! crate's epoch engine (`engine.rs`), shared by every epoch runner.
//!
//! The recovery ladder, in order:
//!
//! 1. **Isolate** — each epoch is summarized under `catch_unwind`, so one
//!    bad epoch costs exactly one summary, not its shard's other epochs.
//! 2. **Detect** — every summary must pass the record-count integrity
//!    check; a wedged shard or a dropped epoch leaves no summary at all.
//! 3. **Retry on a spare shard** — lost epochs are re-summarized on
//!    spare shards with fresh indices, up to
//!    [`RecoveryPolicy::max_retries`] rounds.
//! 4. **Degrade to serial** — whatever is still missing is summarized
//!    inline on the main thread, which cannot fail by construction (it
//!    is exactly the serial DIFT path), so the run always completes.

/// How the epoch runner responds to helper-side failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Master switch. Disabled (fail-stop) reproduces the pre-resilience
    /// behavior: any lost epoch aborts the run with a diagnostic naming
    /// its home shard and the epoch.
    pub enabled: bool,
    /// Rounds of retry-on-spare-shard before degrading to inline
    /// re-summarization on the main thread.
    pub max_retries: u32,
}

impl RecoveryPolicy {
    /// Pre-resilience behavior: propagate the first failure.
    pub fn fail_stop() -> RecoveryPolicy {
        RecoveryPolicy { enabled: false, max_retries: 0 }
    }

    /// Production shape: retry twice on spares, then degrade.
    pub fn tolerant() -> RecoveryPolicy {
        RecoveryPolicy { enabled: true, max_retries: 2 }
    }

    /// One retry round, then degrade: the shape the fault-matrix tests
    /// and the resilience report use, so both rungs get exercised.
    pub fn quick() -> RecoveryPolicy {
        RecoveryPolicy { enabled: true, max_retries: 1 }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::fail_stop()
    }
}

/// What the recovery machinery did during one run. All zeros on a
/// fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Distinct injected faults that actually fired.
    pub faults_injected: u64,
    /// Epochs whose helper-side summary was missing or damaged.
    pub epochs_lost: u64,
    /// Epochs recomputed successfully (always equals `epochs_lost` when
    /// the run returns — recovery cannot give up).
    pub epochs_recovered: u64,
    /// Re-summarization attempts on spare shards (counts attempts, not
    /// rounds; a retried epoch that fails again counts each time).
    pub retries: u64,
    /// Epochs recovered by a spare shard (the rest degraded to inline).
    pub spare_recovered: u64,
    /// Epochs re-summarized inline on the main thread — the graceful
    /// degradation to serial DIFT.
    pub degraded_epochs: u64,
    /// Shards that wedged (an injected `QueueStall`); each wedge costs
    /// the one epoch it wedged on.
    pub shards_lost: u64,
}

impl RecoveryStats {
    /// True when any fault fired or any epoch needed recovery.
    pub fn eventful(&self) -> bool {
        *self != RecoveryStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_make_sense() {
        assert!(!RecoveryPolicy::fail_stop().enabled);
        assert!(RecoveryPolicy::tolerant().enabled);
        assert!(RecoveryPolicy::quick().enabled);
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::fail_stop());
    }

    #[test]
    fn default_stats_are_uneventful() {
        assert!(!RecoveryStats::default().eventful());
        let s = RecoveryStats { faults_injected: 1, ..Default::default() };
        assert!(s.eventful());
    }
}
