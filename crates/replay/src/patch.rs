//! Fault avoidance via environment patches (§3.2).
//!
//! Environment faults manifest only under particular environmental
//! conditions — a preemption inside an unprotected critical region, a
//! heap layout that lets an overflow clobber a neighbour, a malformed
//! request. The framework replays the failing execution with an *altered*
//! environment; when an alteration avoids the fault it is persisted as an
//! **environment patch** that future runs consult.
//!
//! Three fault classes from the paper, three alteration strategies:
//!
//! * **Atomicity violation** — alter scheduling: replay under different
//!   schedules (seeds/round-robin) until one avoids the fault, then pin
//!   that schedule.
//! * **Heap buffer overflow** — pad allocations so the overflowing write
//!   lands in the victim block's padding.
//! * **Malformed user request** — drop the input word(s) the failure
//!   depends on.

use crate::log::RunSpec;
use dift_vm::{ExitStatus, SchedPolicy};
use serde::{Deserialize, Serialize};

/// One persisted environment alteration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EnvPatch {
    /// Run under this scheduling policy (avoids an atomicity violation).
    Schedule(SchedPolicy),
    /// Pad every heap allocation by this many words (absorbs a heap
    /// buffer overflow).
    AllocPadding(u64),
    /// Drop the word at this index from an input channel (filters a
    /// malformed request).
    DropInput { channel: u16, index: usize },
    /// Drop `len` consecutive words (a whole malformed record) from an
    /// input channel.
    DropWindow { channel: u16, index: usize, len: usize },
}

/// The persistent environment-patch file consulted by future executions.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PatchFile {
    pub patches: Vec<EnvPatch>,
}

impl PatchFile {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("patch file serializes")
    }

    pub fn from_json(s: &str) -> Option<PatchFile> {
        serde_json::from_str(s).ok()
    }
}

/// Apply patches to a run spec (the piggybacked check in future runs).
pub fn apply_patches(spec: &RunSpec, patches: &PatchFile) -> RunSpec {
    let mut out = spec.clone();
    for p in &patches.patches {
        match p {
            EnvPatch::Schedule(s) => out.config.sched = s.clone(),
            EnvPatch::AllocPadding(w) => out.config.alloc_padding = *w,
            EnvPatch::DropInput { channel, index } => {
                for (ch, vals) in &mut out.inputs {
                    if ch == channel && *index < vals.len() {
                        vals.remove(*index);
                    }
                }
            }
            EnvPatch::DropWindow { channel, index, len } => {
                for (ch, vals) in &mut out.inputs {
                    if ch == channel && *index < vals.len() {
                        let end = (*index + *len).min(vals.len());
                        vals.drain(*index..end);
                    }
                }
            }
        }
    }
    out
}

/// Outcome of the avoidance search.
#[derive(Clone, Debug)]
pub struct PatchOutcome {
    pub patch: Option<EnvPatch>,
    /// Alterations tried before success (or giving up).
    pub attempts: u32,
}

/// Search for an environment alteration that avoids the observed fault.
///
/// Tries, in order: alternative schedules (round-robin, then seeds),
/// allocation padding (doubling from 8 words), then dropping each input
/// word whose removal makes the run complete cleanly.
pub fn avoid_fault(spec: &RunSpec, max_attempts: u32) -> PatchOutcome {
    avoid_fault_hinted(spec, max_attempts, None)
}

/// [`avoid_fault`] with a suspect input position from the replay log (the
/// last word the faulting thread consumed): request-record windows around
/// the suspect are tried first, which is how the framework localizes
/// malformed-request faults cheaply.
pub fn avoid_fault_hinted(
    spec: &RunSpec,
    max_attempts: u32,
    suspect: Option<(u16, usize)>,
) -> PatchOutcome {
    let mut attempts = 0;
    let clean = |s: &RunSpec| s.machine().run().status.is_clean();

    // Strategy 0: drop a record-sized window around the suspect input.
    if let Some((ch, idx)) = suspect {
        for len in [3usize, 2, 1] {
            for back in 0..len {
                if attempts >= max_attempts {
                    return PatchOutcome { patch: None, attempts };
                }
                let start = idx.saturating_sub(back);
                attempts += 1;
                let patch = EnvPatch::DropWindow { channel: ch, index: start, len };
                let alt = apply_patches(spec, &PatchFile { patches: vec![patch.clone()] });
                if clean(&alt) {
                    return PatchOutcome { patch: Some(patch), attempts };
                }
            }
        }
    }

    // Strategy 1: scheduling alterations.
    let mut schedules = vec![SchedPolicy::RoundRobin];
    for seed in 1..=6u64 {
        schedules.push(SchedPolicy::Seeded { seed: seed * 7919 });
    }
    for sched in schedules {
        if attempts >= max_attempts {
            return PatchOutcome { patch: None, attempts };
        }
        attempts += 1;
        let alt = spec.with_sched(sched.clone());
        if clean(&alt) {
            return PatchOutcome { patch: Some(EnvPatch::Schedule(sched)), attempts };
        }
    }

    // Strategy 2: allocation padding.
    let mut pad = 8u64;
    while pad <= 256 {
        if attempts >= max_attempts {
            return PatchOutcome { patch: None, attempts };
        }
        attempts += 1;
        let mut alt = spec.clone();
        alt.config.alloc_padding = pad;
        if clean(&alt) {
            return PatchOutcome { patch: Some(EnvPatch::AllocPadding(pad)), attempts };
        }
        pad *= 2;
    }

    // Strategy 3: drop a suspicious input word.
    for (ci, (ch, vals)) in spec.inputs.iter().enumerate() {
        for i in 0..vals.len() {
            if attempts >= max_attempts {
                return PatchOutcome { patch: None, attempts };
            }
            attempts += 1;
            let mut alt = spec.clone();
            alt.inputs[ci].1.remove(i);
            if clean(&alt) {
                return PatchOutcome {
                    patch: Some(EnvPatch::DropInput { channel: *ch, index: i }),
                    attempts,
                };
            }
        }
    }
    PatchOutcome { patch: None, attempts }
}

/// Convenience: verify a patch actually avoids the fault for this spec.
pub fn patch_avoids_fault(spec: &RunSpec, patch: &EnvPatch) -> bool {
    let pf = PatchFile { patches: vec![patch.clone()] };
    let patched = apply_patches(spec, &pf);
    matches!(patched.machine().run().status, ExitStatus::Completed | ExitStatus::Exited(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dift_isa::{BinOp, BranchCond, ProgramBuilder, Reg};
    use dift_vm::MachineConfig;
    use std::sync::Arc;

    /// Heap overflow: writes one word past an 8-word buffer, clobbering
    /// the function pointer stored in the adjacent allocation.
    fn overflow_spec() -> RunSpec {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 8);
        b.alloc(Reg(2), Reg(1)); // buffer
        b.alloc(Reg(3), Reg(1)); // victim: holds a function pointer
        b.li(Reg(4), 13); // addr of `handler`, patched below via label math
                          // Store handler address into victim[0].
        b.li(Reg(5), 0);
        b.label("fill"); // fill buffer with 9 (!) words: index 0..=8
        b.add(Reg(6), Reg(2), Reg(5));
        b.li(Reg(7), 999_999); // garbage (an invalid code address)
        b.store(Reg(7), Reg(6), 0);
        b.addi(Reg(5), Reg(5), 1);
        b.bini(BinOp::Leu, Reg(8), Reg(5), 8);
        b.branch(BranchCond::Ne, Reg(8), Reg(0), "fill");
        // victim[0] was clobbered by the 9th write when blocks adjoin.
        b.li(Reg(9), 13);
        b.store(Reg(9), Reg(3), 1); // victim[1] = handler (untouched slot)
        b.load(Reg(10), Reg(3), 0); // read victim[0] — garbage if overflowed
        b.branch(BranchCond::Eq, Reg(10), Reg(7), "corrupted");
        b.halt();
        b.label("corrupted");
        b.call_ind(Reg(10)); // jump through clobbered pointer -> fault
        b.halt();
        b.func("handler");
        b.ret();
        RunSpec::new(Arc::new(b.build().unwrap()), MachineConfig::small())
    }

    #[test]
    fn overflow_faults_without_patch_and_padding_avoids_it() {
        let spec = overflow_spec();
        assert!(!spec.machine().run().status.is_clean(), "baseline must fault");
        let out = avoid_fault(&spec, 64);
        let patch = out.patch.expect("an avoidance patch must be found");
        assert!(matches!(patch, EnvPatch::AllocPadding(_)), "got {patch:?}");
        assert!(patch_avoids_fault(&spec, &patch));
    }

    /// Malformed request: a request of 0 divides by zero. The request
    /// stream is terminated by the sentinel 99, so dropping the malformed
    /// word still ends cleanly.
    fn malformed_spec() -> RunSpec {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(9), 99);
        b.li(Reg(3), 100);
        b.label("serve");
        b.input(Reg(1), 0);
        b.branch(BranchCond::Eq, Reg(1), Reg(9), "done");
        b.bin(BinOp::Div, Reg(4), Reg(3), Reg(1));
        b.output(Reg(4), 0);
        b.jump("serve");
        b.label("done");
        b.halt();
        RunSpec::new(Arc::new(b.build().unwrap()), MachineConfig::small())
            .with_input(0, vec![0, 5, 99])
    }

    #[test]
    fn malformed_request_is_dropped() {
        let spec = malformed_spec();
        assert!(!spec.machine().run().status.is_clean());
        let out = avoid_fault(&spec, 128);
        match out.patch.expect("patch found") {
            EnvPatch::DropInput { channel: 0, index } => {
                // Dropping word 0 leaves [5]; the program then blocks on
                // the second In… unless dropping makes it deadlock. The
                // avoidance search only accepts clean completions, so the
                // found index must produce one.
                let pf = PatchFile { patches: vec![EnvPatch::DropInput { channel: 0, index }] };
                let patched = apply_patches(&spec, &pf);
                assert!(patched.machine().run().status.is_clean());
            }
            other => panic!("expected DropInput, got {other:?}"),
        }
    }

    /// Atomicity violation: main checks a shared cell then divides by it;
    /// a worker zeroes the cell between check and use under unlucky
    /// schedules. A schedule patch avoids the fault.
    fn atomicity_spec() -> RunSpec {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 800);
        b.li(Reg(2), 5);
        b.store(Reg(2), Reg(1), 0); // shared = 5
        b.li(Reg(3), 0);
        b.spawn(Reg(5), "zeroer", Reg(3));
        // check
        b.load(Reg(6), Reg(1), 0);
        b.branch(BranchCond::Eq, Reg(6), Reg(0), "skip");
        // ... window ...
        b.nop();
        b.nop();
        b.nop();
        // use (re-reads the cell: TOCTOU)
        b.load(Reg(7), Reg(1), 0);
        b.li(Reg(8), 100);
        b.bin(BinOp::Div, Reg(9), Reg(8), Reg(7));
        b.output(Reg(9), 0);
        b.label("skip");
        b.join(Reg(5));
        b.halt();
        b.func("zeroer");
        b.li(Reg(1), 800);
        b.store(Reg(0), Reg(1), 0); // zero the shared cell
        b.halt();
        let program = Arc::new(b.build().unwrap());
        // Find a seed that exposes the violation (zeroer strikes inside
        // the check-to-use window).
        for seed in 1..400u64 {
            let cfg = MachineConfig::small().with_seed(seed).with_quantum(2);
            let spec = RunSpec::new(program.clone(), cfg);
            if !spec.machine().run().status.is_clean() {
                return spec;
            }
        }
        panic!("no seed exposed the atomicity violation");
    }

    #[test]
    fn atomicity_violation_avoided_by_schedule_patch() {
        let spec = atomicity_spec();
        assert!(!spec.machine().run().status.is_clean(), "chosen seed must fault");
        let out = avoid_fault(&spec, 32);
        let patch = out.patch.expect("a schedule alteration must avoid it");
        assert!(matches!(patch, EnvPatch::Schedule(_)), "got {patch:?}");
        assert!(patch_avoids_fault(&spec, &patch));
    }

    #[test]
    fn patch_file_round_trips() {
        let pf = PatchFile {
            patches: vec![
                EnvPatch::AllocPadding(16),
                EnvPatch::DropInput { channel: 2, index: 3 },
                EnvPatch::Schedule(SchedPolicy::Seeded { seed: 99 }),
            ],
        };
        let back = PatchFile::from_json(&pf.to_json()).unwrap();
        assert_eq!(back.patches, pf.patches);
    }

    #[test]
    fn deeply_nested_patch_file_is_rejected_not_a_stack_overflow() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(PatchFile::from_json(&deep).is_none());
        let deep = format!("{{\"patches\":{}", "[".repeat(100_000));
        assert!(PatchFile::from_json(&deep).is_none());
    }

    #[test]
    fn apply_patches_rewrites_spec() {
        let spec = malformed_spec();
        let pf = PatchFile {
            patches: vec![EnvPatch::AllocPadding(32), EnvPatch::DropInput { channel: 0, index: 0 }],
        };
        let patched = apply_patches(&spec, &pf);
        assert_eq!(patched.config.alloc_padding, 32);
        assert_eq!(patched.inputs[0].1, vec![5, 99]);
    }

    #[test]
    fn healthy_spec_needs_first_schedule_attempt_only() {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.li(Reg(1), 1);
        b.halt();
        let spec = RunSpec::new(Arc::new(b.build().unwrap()), MachineConfig::small());
        let out = avoid_fault(&spec, 16);
        assert_eq!(out.attempts, 1);
        assert!(matches!(out.patch, Some(EnvPatch::Schedule(SchedPolicy::RoundRobin))));
    }
}
