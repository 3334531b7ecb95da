//! Set-representation backends for lineage labels.

use dift_robdd::{BddManager, NodeId, FALSE};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A lineage-set representation.
///
/// Sets are value-like handles; the backend owns any shared structure.
/// `union_cost` reports the cycle charge of the union just performed, so
/// the engine's cost model reflects representation-specific work.
pub trait LineageBackend {
    type Set: Clone + PartialEq + std::fmt::Debug;

    fn empty(&mut self) -> Self::Set;
    fn singleton(&mut self, input_index: u64) -> Self::Set;
    /// Union, plus the modeled cycle cost of performing it.
    fn union(&mut self, a: &Self::Set, b: &Self::Set) -> (Self::Set, u64);
    fn is_empty(&self, s: &Self::Set) -> bool;
    /// Materialize (ascending) — reporting/validation only.
    fn elements(&self, s: &Self::Set) -> Vec<u64>;
    /// The `limit` smallest elements, ascending, at cost proportional
    /// to the output. Reporting paths use this instead of
    /// [`elements`](Self::elements) so pathological sets (near-universal
    /// at wide widths) cannot hang them.
    fn elements_up_to(&self, s: &Self::Set, limit: usize) -> Vec<u64> {
        let mut v = self.elements(s);
        v.truncate(limit);
        v
    }
    fn len(&self, s: &Self::Set) -> u64;
    /// Count `s` as resident shadow state until it is released. Pair
    /// every `retain` with one [`release`](Self::release) of the same
    /// set. Empty sets are never resident: retaining or releasing one
    /// is a no-op.
    fn retain(&mut self, s: &Self::Set);
    /// Stop counting a set taken by [`retain`](Self::retain).
    fn release(&mut self, s: &Self::Set);
    /// Bytes attributable to the retained sets right now. Backends keep
    /// this as a running count, so reading it is O(1).
    fn shadow_bytes(&self) -> usize;
    fn name(&self) -> &'static str;
}

/// roBDD-backed sets: canonical, hash-consed, range-friendly.
pub struct BddBackend {
    mgr: BddManager,
    /// Retained non-empty handles.
    handles: usize,
}

impl BddBackend {
    /// `id_bits` bounds the representable input indices (`2^id_bits`).
    pub fn new(id_bits: u32) -> BddBackend {
        BddBackend { mgr: BddManager::new(id_bits), handles: 0 }
    }

    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Mutable manager access — the shard-compose path absorbs private
    /// per-epoch arenas into this primary manager.
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }
}

impl LineageBackend for BddBackend {
    type Set = NodeId;

    fn empty(&mut self) -> NodeId {
        FALSE
    }

    fn singleton(&mut self, input_index: u64) -> NodeId {
        self.mgr.singleton(input_index)
    }

    fn union(&mut self, a: &NodeId, b: &NodeId) -> (NodeId, u64) {
        (self.mgr.union(*a, *b), crate::costs::BDD_UNION)
    }

    fn is_empty(&self, s: &NodeId) -> bool {
        *s == FALSE
    }

    fn elements(&self, s: &NodeId) -> Vec<u64> {
        self.mgr.elements(*s)
    }

    fn elements_up_to(&self, s: &NodeId, limit: usize) -> Vec<u64> {
        // The manager's bounded walk is O(limit · nvars) even on sets
        // whose full enumeration would be astronomical.
        self.mgr.elements_up_to(*s, limit)
    }

    fn len(&self, s: &NodeId) -> u64 {
        self.mgr.count(*s)
    }

    fn retain(&mut self, s: &NodeId) {
        if *s != FALSE {
            self.handles += 1;
            self.mgr.retain(*s);
        }
    }

    fn release(&mut self, s: &NodeId) {
        if *s != FALSE {
            self.handles -= 1;
            self.mgr.release(*s);
        }
    }

    fn shadow_bytes(&self) -> usize {
        // Live store of a GC'd manager: nodes reachable from the retained
        // sets (shared nodes counted once) plus 4-byte handles.
        self.mgr.live_nodes() * 16 + self.handles * 4
    }

    fn name(&self) -> &'static str {
        "robdd"
    }
}

/// Naive baseline: a materialized ordered set per shadow location.
/// `Arc` keeps clones cheap during propagation, but the *memory
/// accounting* deliberately charges each stored set as if unshared —
/// that is what a per-location `std::set` implementation (the paper's
/// baseline) pays.
#[derive(Default)]
pub struct NaiveBackend {
    /// Running Σ(24 + 8·len) over the retained sets.
    bytes: usize,
}

impl NaiveBackend {
    pub fn new() -> NaiveBackend {
        NaiveBackend::default()
    }

    /// One stored set: a 24-byte header plus 8 bytes per element.
    fn set_bytes(s: &BTreeSet<u64>) -> usize {
        24 + s.len() * 8
    }
}

impl LineageBackend for NaiveBackend {
    type Set = Arc<BTreeSet<u64>>;

    fn empty(&mut self) -> Self::Set {
        Arc::new(BTreeSet::new())
    }

    fn singleton(&mut self, input_index: u64) -> Self::Set {
        Arc::new([input_index].into_iter().collect())
    }

    fn union(&mut self, a: &Self::Set, b: &Self::Set) -> (Self::Set, u64) {
        if a.is_empty() {
            return (b.clone(), crate::costs::NAIVE_UNION_BASE);
        }
        if b.is_empty() {
            return (a.clone(), crate::costs::NAIVE_UNION_BASE);
        }
        let mut out: BTreeSet<u64> = (**a).clone();
        out.extend(b.iter().copied());
        let cost = crate::costs::NAIVE_UNION_BASE
            + crate::costs::NAIVE_PER_ELEM * (a.len() + b.len()) as u64;
        (Arc::new(out), cost)
    }

    fn is_empty(&self, s: &Self::Set) -> bool {
        s.is_empty()
    }

    fn elements(&self, s: &Self::Set) -> Vec<u64> {
        s.iter().copied().collect()
    }

    fn len(&self, s: &Self::Set) -> u64 {
        s.len() as u64
    }

    fn retain(&mut self, s: &Self::Set) {
        if !s.is_empty() {
            self.bytes += Self::set_bytes(s);
        }
    }

    fn release(&mut self, s: &Self::Set) {
        if !s.is_empty() {
            self.bytes -= Self::set_bytes(s);
        }
    }

    fn shadow_bytes(&self) -> usize {
        self.bytes
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<B: LineageBackend>(mut b: B) {
        let e = b.empty();
        assert!(b.is_empty(&e));
        let s1 = b.singleton(5);
        let s2 = b.singleton(9);
        let (u, _) = b.union(&s1, &s2);
        assert_eq!(b.elements(&u), vec![5, 9]);
        assert_eq!(b.len(&u), 2);
        let (u2, _) = b.union(&u, &e);
        assert_eq!(b.elements(&u2), vec![5, 9]);
        let (uu, _) = b.union(&u, &u);
        assert_eq!(b.elements(&uu), vec![5, 9], "idempotent");
    }

    #[test]
    fn bdd_backend_set_algebra() {
        exercise(BddBackend::new(16));
    }

    #[test]
    fn naive_backend_set_algebra() {
        exercise(NaiveBackend::new());
    }

    #[test]
    fn bdd_shares_overlapping_sets_naive_does_not() {
        let mut bdd = BddBackend::new(16);
        let mut naive = NaiveBackend::new();
        // Build 20 sets sharing a 256-element clustered base.
        let mut base_b = bdd.empty();
        let mut base_n = naive.empty();
        for i in 0..256u64 {
            let (nb, _) = {
                let s = bdd.singleton(i);
                bdd.union(&base_b, &s)
            };
            base_b = nb;
            let (nn, _) = {
                let s = naive.singleton(i);
                naive.union(&base_n, &s)
            };
            base_n = nn;
        }
        let mut bdd_sets = Vec::new();
        let mut naive_sets = Vec::new();
        for k in 0..20u64 {
            let s = bdd.singleton(1000 + k);
            bdd_sets.push(bdd.union(&base_b, &s).0);
            let s = naive.singleton(1000 + k);
            naive_sets.push(naive.union(&base_n, &s).0);
        }
        for s in &bdd_sets {
            bdd.retain(s);
        }
        for s in &naive_sets {
            naive.retain(s);
        }
        let bdd_bytes = bdd.shadow_bytes();
        let naive_bytes = naive.shadow_bytes();
        assert!(
            bdd_bytes * 2 < naive_bytes,
            "roBDD must win on overlap: {bdd_bytes} vs {naive_bytes}"
        );
    }

    #[test]
    fn union_costs_scale_differently() {
        let mut bdd = BddBackend::new(16);
        let mut naive = NaiveBackend::new();
        // A large clustered set union'ed with a singleton.
        let mut big_b = bdd.empty();
        let mut big_n = naive.empty();
        for i in 0..512u64 {
            big_b = {
                let s = bdd.singleton(i);
                bdd.union(&big_b, &s).0
            };
            big_n = {
                let s = naive.singleton(i);
                naive.union(&big_n, &s).0
            };
        }
        let sb = bdd.singleton(9999);
        let (_, cost_b) = bdd.union(&big_b, &sb);
        let sn = naive.singleton(9999);
        let (_, cost_n) = naive.union(&big_n, &sn);
        assert!(cost_b < cost_n, "bdd {cost_b} vs naive {cost_n}");
    }
}
