//! Run outcomes.

use crate::effects::Fault;
use crate::thread::ThreadId;
use dift_isa::Addr;
use serde::{Deserialize, Serialize};

/// Why the machine stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitStatus {
    /// Still running (only observed mid-stepping).
    Running,
    /// Every thread exited normally.
    Completed,
    /// `Exit` executed with this code.
    Exited(u64),
    /// A thread faulted and `stop_on_fault` was set (or every thread
    /// ended and at least one had faulted).
    Faulted { tid: ThreadId, at: Addr, fault: Fault },
    /// All live threads are blocked and no input arrival can unblock them.
    Deadlock,
    /// `max_steps` exceeded.
    StepLimit,
    /// A scripted scheduler decision named a non-runnable thread.
    ReplayDivergence,
}

impl ExitStatus {
    /// True for a run that finished without failure.
    pub fn is_clean(&self) -> bool {
        matches!(self, ExitStatus::Completed | ExitStatus::Exited(0))
    }
}

/// Summary of a completed run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunResult {
    pub status: ExitStatus,
    /// Total instructions executed across all threads.
    pub steps: u64,
    /// Total cycles accrued (cost model + instrumentation charges).
    pub cycles: u64,
    /// Number of threads ever created.
    pub threads: usize,
    /// Scheduling decisions made (length of the scheduler trace).
    pub sched_decisions: usize,
}

impl RunResult {
    /// Cycles per instruction for the whole run.
    pub fn cpi(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.cycles as f64 / self.steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_statuses() {
        assert!(ExitStatus::Completed.is_clean());
        assert!(ExitStatus::Exited(0).is_clean());
        assert!(!ExitStatus::Exited(1).is_clean());
        assert!(!ExitStatus::Deadlock.is_clean());
        assert!(!ExitStatus::Faulted { tid: 0, at: 0, fault: Fault::DivByZero }.is_clean());
    }

    #[test]
    fn cpi_guard_against_zero_steps() {
        let r = RunResult {
            status: ExitStatus::Completed,
            steps: 0,
            cycles: 0,
            threads: 1,
            sched_decisions: 0,
        };
        assert_eq!(r.cpi(), 0.0);
        let r2 = RunResult {
            status: ExitStatus::Completed,
            steps: 10,
            cycles: 35,
            threads: 1,
            sched_decisions: 0,
        };
        assert!((r2.cpi() - 3.5).abs() < 1e-12);
    }
}
