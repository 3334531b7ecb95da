//! Value-replacement fault ranking (reference \[2\] of the paper).
//!
//! "The key idea is to see which program statements exercised during a
//! failing run use values that can be altered so that the execution
//! instead produces correct output." A statement instance with such an
//! *interesting value-mapping pair* is ranked as a prime fault candidate.
//! Unlike slicing, this works uniformly for every error type.

use dift_dbi::{capture, Engine, Tool};
use dift_isa::{Program, StmtId};
use dift_vm::{Machine, MachineConfig, StepEffects};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct VrConfig {
    /// Candidate dynamic instances tried, nearest the failing output
    /// first.
    pub max_candidates: usize,
    /// Alternate values tried per instance.
    pub max_alternates: usize,
}

impl Default for VrConfig {
    fn default() -> Self {
        VrConfig { max_candidates: 64, max_alternates: 6 }
    }
}

/// Ranking result.
#[derive(Clone, Debug)]
pub struct VrReport {
    /// Statements ranked by how often replacing one of their values
    /// repaired the output (descending; ties broken by later execution).
    pub ranked: Vec<(StmtId, u32)>,
    /// Total re-executions performed.
    pub runs: u64,
}

impl VrReport {
    /// 1-based rank of a statement, if it scored at all.
    pub fn rank_of(&self, stmt: StmtId) -> Option<usize> {
        self.ranked.iter().position(|&(s, _)| s == stmt).map(|i| i + 1)
    }
}

/// Replaces the value produced at one dynamic step.
struct Replacer {
    target_step: u64,
    value: u64,
}

impl Tool for Replacer {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        if fx.step == self.target_step {
            if let Some((r, _, _)) = fx.reg_write {
                m.set_reg(fx.tid, r, self.value);
            }
        }
    }
}

fn fresh_machine(program: &Arc<Program>, config: &MachineConfig, input: &[u64]) -> Machine {
    let mut m = Machine::new(program.clone(), config.clone());
    m.feed_input(0, input);
    m
}

/// Rank statements of a failing run by value replacement.
pub fn value_replacement_rank(
    program: &Arc<Program>,
    config: &MachineConfig,
    input: &[u64],
    expected_output: &[u64],
    vr: VrConfig,
) -> VrReport {
    // Record the failing run.
    let (events, _) = capture(fresh_machine(program, config, input));

    // Alternate-value pool per statement: values observed at the same
    // statement across the run.
    let mut observed: BTreeMap<StmtId, BTreeSet<u64>> = BTreeMap::new();
    for e in &events {
        if let Some((_, _, new)) = e.reg_write {
            observed.entry(e.insn.stmt).or_default().insert(new);
        }
    }

    // Candidates: value-producing instances, nearest the end first.
    let candidates: Vec<&StepEffects> =
        events.iter().rev().filter(|e| e.reg_write.is_some()).take(vr.max_candidates).collect();

    let mut scores: BTreeMap<StmtId, u32> = BTreeMap::new();
    let mut last_step: BTreeMap<StmtId, u64> = BTreeMap::new();
    let mut runs = 0u64;
    for cand in candidates {
        let (_, _, orig) = cand.reg_write.expect("filtered on reg_write");
        let mut alts: Vec<u64> = Vec::new();
        if let Some(pool) = observed.get(&cand.insn.stmt) {
            alts.extend(pool.iter().copied().filter(|&v| v != orig));
        }
        for v in [0, 1, orig.wrapping_add(1), orig.wrapping_sub(1)] {
            if v != orig && !alts.contains(&v) {
                alts.push(v);
            }
        }
        alts.truncate(vr.max_alternates);

        for alt in alts {
            runs += 1;
            let mut replacer = Replacer { target_step: cand.step, value: alt };
            let mut engine = Engine::new(fresh_machine(program, config, input));
            let r = engine.run_tool(&mut replacer);
            if !r.status.is_clean() {
                continue;
            }
            let m = engine.into_machine();
            if m.output(0) == expected_output {
                *scores.entry(cand.insn.stmt).or_insert(0) += 1;
                let e = last_step.entry(cand.insn.stmt).or_insert(0);
                *e = (*e).max(cand.step);
                break; // one repairing alternate is enough per instance
            }
        }
    }

    let mut ranked: Vec<(StmtId, u32)> = scores.into_iter().collect();
    ranked.sort_by_key(|&(s, score)| {
        (std::cmp::Reverse(score), std::cmp::Reverse(last_step.get(&s).copied().unwrap_or(0)))
    });
    VrReport { ranked, runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::faulty_cases;

    #[test]
    fn faulty_statement_ranks_first_or_close() {
        for case in faulty_cases() {
            let report = value_replacement_rank(
                &case.program,
                &MachineConfig::small(),
                &case.input,
                &case.expected_output,
                VrConfig::default(),
            );
            let rank = report.rank_of(case.faulty_stmt);
            assert!(
                matches!(rank, Some(r) if r <= 3),
                "{}: faulty stmt {} ranked {:?} in {:?}",
                case.name,
                case.faulty_stmt,
                rank,
                report.ranked
            );
        }
    }

    #[test]
    fn healthy_program_with_correct_expectation_scores_trivially() {
        // When the program already produces the expected output, no
        // replacement is needed; replacing values either keeps the output
        // (score) or breaks it. The report must simply not crash and
        // perform runs.
        let case = crate::suite::wrong_constant();
        let mut m = dift_vm::Machine::new(case.program.clone(), MachineConfig::small());
        m.feed_input(0, &case.input);
        m.run();
        let actual = m.output(0).to_vec();
        let report = value_replacement_rank(
            &case.program,
            &MachineConfig::small(),
            &case.input,
            &actual, // expect the buggy output: run "passes"
            VrConfig::default(),
        );
        assert!(report.runs > 0);
    }

    #[test]
    fn report_rank_of_unknown_stmt_is_none() {
        let case = crate::suite::wrong_constant();
        let report = value_replacement_rank(
            &case.program,
            &MachineConfig::small(),
            &case.input,
            &case.expected_output,
            VrConfig::default(),
        );
        assert_eq!(report.rank_of(9999), None);
    }
}
