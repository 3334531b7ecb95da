//! Dependence records.

use dift_isa::{Addr, StmtId};
use dift_vm::{StepEffects, ThreadId};

/// The kind of a dynamic dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write through a register.
    RegData,
    /// Read-after-write through memory.
    MemData,
    /// Dynamic control dependence on a branch instance.
    Control,
    /// Write-after-read through memory (multithreaded slicing extension,
    /// §3.1: needed so data races appear in slices).
    War,
    /// Write-after-write through memory (same extension).
    Waw,
}

impl DepKind {
    /// True for the kinds used by classic (single-threaded) slicing.
    pub fn is_classic(self) -> bool {
        matches!(self, DepKind::RegData | DepKind::MemData | DepKind::Control)
    }
}

/// One dynamic dependence: the instruction instance executed at step
/// `user` depends on the one executed at step `def`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dependence {
    pub user: u64,
    pub def: u64,
    pub kind: DepKind,
}

impl Dependence {
    pub fn new(user: u64, def: u64, kind: DepKind) -> Dependence {
        Dependence { user, def, kind }
    }
}

/// An executed step and its instruction's address and statement: both
/// sides of a [`BufRecord`](crate::buffer::BufRecord).
///
/// The last-writer slots that name a def (the shadow registers and
/// memory words, the WAR last-reader table, the control stack's open
/// regions, the sharded deriver's tables) hold the def's whole site,
/// written at the def's own step, so a record's def side is read from
/// the slot it was derived from and no step-keyed table is kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepSite {
    pub step: u64,
    pub addr: Addr,
    pub stmt: StmtId,
}

impl StepSite {
    /// An empty slot: no def. Its step is one no run reaches.
    pub(crate) const NONE: StepSite = StepSite { step: u64::MAX, addr: 0, stmt: 0 };

    /// The site of the step `fx` reports.
    #[inline]
    pub fn of(fx: &StepEffects) -> StepSite {
        StepSite { step: fx.step, addr: fx.addr, stmt: fx.insn.stmt }
    }

    /// The site a slot holds, `None` for [`StepSite::NONE`].
    #[inline]
    pub(crate) fn get(self) -> Option<StepSite> {
        (self.step != u64::MAX).then_some(self)
    }
}

/// Metadata for one executed step, kept alongside dependence records so
/// slices can be reported in terms of addresses/statements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepMeta {
    pub step: u64,
    pub addr: Addr,
    pub stmt: StmtId,
    pub tid: ThreadId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_kinds() {
        assert!(DepKind::RegData.is_classic());
        assert!(DepKind::MemData.is_classic());
        assert!(DepKind::Control.is_classic());
        assert!(!DepKind::War.is_classic());
        assert!(!DepKind::Waw.is_classic());
    }

    #[test]
    fn dependence_construction() {
        let d = Dependence::new(10, 3, DepKind::MemData);
        assert_eq!(d.user, 10);
        assert_eq!(d.def, 3);
    }
}
