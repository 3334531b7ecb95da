//! In-memory queryable dynamic dependence graph.
//!
//! Built from ONTRAC's buffered records (or the offline pipeline's full
//! derivation); consumed by `dift-slicing`.

use crate::buffer::BufRecord;
use crate::dep::{DepKind, Dependence, StepMeta};
use dift_isa::Program;
use std::collections::HashMap;

/// A queryable DDG: dependences sorted by user step, with per-step
/// metadata, a reverse (def → users) index, and an address → steps
/// index (so `backward_from_addr` queries don't scan all metadata).
#[derive(Clone, Debug, Default)]
pub struct DdgGraph {
    deps: Vec<Dependence>,
    meta: HashMap<u64, StepMeta>,
    users_of: HashMap<u64, Vec<u32>>, // def step -> indices into deps
    addr_steps: HashMap<dift_isa::Addr, Vec<u64>>, // addr -> sorted steps
}

impl DdgGraph {
    /// Build from buffered records. `program` is only used for sanity
    /// (records are self-contained).
    pub fn from_records(records: impl Iterator<Item = BufRecord>, _program: &Program) -> DdgGraph {
        let mut g = DdgGraph::default();
        for r in records {
            g.meta.entry(r.dep.user).or_insert(StepMeta {
                step: r.dep.user,
                addr: r.user_addr,
                stmt: r.user_stmt,
                tid: 0,
            });
            g.meta.entry(r.dep.def).or_insert(StepMeta {
                step: r.dep.def,
                addr: r.def_addr,
                stmt: r.def_stmt,
                tid: 0,
            });
            g.deps.push(r.dep);
        }
        g.finish();
        g
    }

    /// Build directly from dependences plus metadata.
    pub fn from_deps(deps: Vec<Dependence>, meta: Vec<StepMeta>) -> DdgGraph {
        let mut g = DdgGraph {
            deps,
            meta: meta.into_iter().map(|m| (m.step, m)).collect(),
            users_of: HashMap::new(),
            addr_steps: HashMap::new(),
        };
        g.finish();
        g
    }

    fn finish(&mut self) {
        self.deps.sort_by_key(|d| (d.user, d.def));
        self.deps.dedup();
        self.users_of.clear();
        for (i, d) in self.deps.iter().enumerate() {
            self.users_of.entry(d.def).or_default().push(i as u32);
        }
        // Address index: meta keys are unique per step, so each step
        // appears once; per-address lists are sorted to keep
        // `steps_at_addr`'s ascending-output contract.
        self.addr_steps.clear();
        for m in self.meta.values() {
            self.addr_steps.entry(m.addr).or_default().push(m.step);
        }
        for steps in self.addr_steps.values_mut() {
            steps.sort_unstable();
        }
    }

    pub fn dep_count(&self) -> usize {
        self.deps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    pub fn deps(&self) -> &[Dependence] {
        &self.deps
    }

    /// Dependences whose user is `step` (what `step` depends on).
    pub fn defs_of(&self, step: u64) -> &[Dependence] {
        let lo = self.deps.partition_point(|d| d.user < step);
        let hi = self.deps.partition_point(|d| d.user <= step);
        &self.deps[lo..hi]
    }

    /// Dependences whose def is `step` (who depends on `step`).
    pub fn users_of(&self, step: u64) -> impl Iterator<Item = &Dependence> {
        self.users_of.get(&step).into_iter().flatten().map(move |&i| &self.deps[i as usize])
    }

    /// Metadata for a step, when known.
    pub fn meta(&self, step: u64) -> Option<&StepMeta> {
        self.meta.get(&step)
    }

    /// All steps that appear in the graph (users and defs).
    pub fn steps(&self) -> impl Iterator<Item = u64> + '_ {
        self.meta.keys().copied()
    }

    /// The latest (largest) user step in the graph.
    pub fn last_step(&self) -> Option<u64> {
        self.deps.last().map(|d| d.user)
    }

    /// Steps whose instruction executed at the given program address,
    /// ascending. Served from the index built in `finish()` — O(1)
    /// lookup instead of the old O(all-steps) metadata scan that
    /// `backward_from_addr` used to pay on every query.
    pub fn steps_at_addr(&self, addr: dift_isa::Addr) -> &[u64] {
        self.addr_steps.get(&addr).map_or(&[], Vec::as_slice)
    }

    /// Count dependences of one kind.
    pub fn count_kind(&self, kind: DepKind) -> usize {
        self.deps.iter().filter(|d| d.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(step: u64, addr: u32) -> StepMeta {
        StepMeta { step, addr, stmt: addr, tid: 0 }
    }

    fn simple_graph() -> DdgGraph {
        // 3 <- 1, 3 <- 2, 4 <- 3 (chain)
        DdgGraph::from_deps(
            vec![
                Dependence::new(3, 1, DepKind::RegData),
                Dependence::new(3, 2, DepKind::MemData),
                Dependence::new(4, 3, DepKind::Control),
            ],
            vec![meta(1, 10), meta(2, 20), meta(3, 30), meta(4, 40)],
        )
    }

    #[test]
    fn defs_of_returns_user_range() {
        let g = simple_graph();
        assert_eq!(g.defs_of(3).len(), 2);
        assert_eq!(g.defs_of(4).len(), 1);
        assert!(g.defs_of(1).is_empty());
    }

    #[test]
    fn users_of_reverse_index() {
        let g = simple_graph();
        let users: Vec<u64> = g.users_of(3).map(|d| d.user).collect();
        assert_eq!(users, vec![4]);
        assert_eq!(g.users_of(99).count(), 0);
    }

    #[test]
    fn duplicate_deps_are_removed() {
        let g = DdgGraph::from_deps(
            vec![Dependence::new(2, 1, DepKind::RegData), Dependence::new(2, 1, DepKind::RegData)],
            vec![meta(1, 1), meta(2, 2)],
        );
        assert_eq!(g.dep_count(), 1);
    }

    #[test]
    fn meta_and_addr_lookup() {
        let g = simple_graph();
        assert_eq!(g.meta(3).unwrap().addr, 30);
        assert_eq!(g.steps_at_addr(30), vec![3]);
        assert!(g.steps_at_addr(999).is_empty());
        assert_eq!(g.last_step(), Some(4));
    }

    /// Regression for the indexed `steps_at_addr`: identical output to
    /// the old O(all-steps) scan over `meta.values()`, including the
    /// sorted contract and multi-instance addresses.
    #[test]
    fn addr_index_matches_meta_scan() {
        let g = DdgGraph::from_deps(
            vec![
                Dependence::new(10, 1, DepKind::RegData),
                Dependence::new(20, 2, DepKind::MemData),
                Dependence::new(30, 10, DepKind::Control),
            ],
            vec![
                meta(1, 7),
                meta(2, 7),
                // Same address, several dynamic instances, inserted out
                // of step order.
                meta(30, 9),
                meta(10, 9),
                meta(20, 9),
            ],
        );
        for addr in [7u32, 9, 999] {
            let mut scan: Vec<u64> =
                g.meta.values().filter(|m| m.addr == addr).map(|m| m.step).collect();
            scan.sort_unstable();
            assert_eq!(g.steps_at_addr(addr), scan, "addr {addr}");
        }
        assert_eq!(g.steps_at_addr(9), [10, 20, 30], "ascending across instances");
    }

    #[test]
    fn count_kind_partitions() {
        let g = simple_graph();
        assert_eq!(g.count_kind(DepKind::RegData), 1);
        assert_eq!(g.count_kind(DepKind::MemData), 1);
        assert_eq!(g.count_kind(DepKind::Control), 1);
        assert_eq!(g.count_kind(DepKind::War), 0);
    }
}
