//! Property tests on the dependence-graph structures.

use dift_ddg::buffer::{record, varint_len, BufRecord, CircularTraceBuffer};
use dift_ddg::cold::SEGMENT_RECORDS;
use dift_ddg::index::CHUNK_STEPS;
use dift_ddg::{
    ColdStore, ColdView, CompactDdg, DdgGraph, DepKind, Dependence, IndexData, SliceIndex, StepMeta,
};
use dift_isa::{Addr, Program, ProgramBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn kind(i: u8) -> DepKind {
    match i % 3 {
        0 => DepKind::RegData,
        1 => DepKind::MemData,
        _ => DepKind::Control,
    }
}

/// Addresses the index property spreads steps over.
const INDEX_ADDRS: u64 = 13;

/// A record whose metadata is a pure function of each endpoint's step,
/// as every mention of a step must agree on it.
fn index_record(user: u64, def: u64, k: u8) -> BufRecord {
    let addr = |s: u64| ((s * 7 + 3) % INDEX_ADDRS) as Addr;
    let stmt = |s: u64| (s % 1000) as u32;
    record(user, def, kind(k), addr(user), addr(def), stmt(user), stmt(def))
}

/// `DdgGraph::from_records` ignores the program; any program works.
fn empty_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.halt();
    b.build().unwrap()
}

fn sorted_dedup(mut v: Vec<(u64, DepKind)>) -> Vec<(u64, DepKind)> {
    v.sort_unstable_by_key(|e| (e.0, e.1 as u8));
    v.dedup();
    v
}

/// The index must describe exactly the window `g` was built from, which
/// held `records` records. `from_records` dedups identical records while
/// the index keeps one mention per record, so adjacency is compared as
/// sets and `edges` against the record count. `seen` holds every step
/// ever mentioned, so evicted steps must be gone, not just live ones
/// present.
fn assert_index_is_window(
    idx: &IndexData,
    g: &DdgGraph,
    records: usize,
    seen: &BTreeSet<u64>,
    ctx: &str,
) {
    assert_eq!(idx.edges(), records as u64, "{ctx}: edges");
    assert_eq!(idx.step_count(), g.steps().count(), "{ctx}: step_count");
    for &step in seen {
        let want = sorted_dedup(g.defs_of(step).iter().map(|d| (d.def, d.kind)).collect());
        assert_eq!(sorted_dedup(idx.defs(step).collect()), want, "{ctx}: defs({step})");
        let want = sorted_dedup(g.users_of(step).map(|d| (d.user, d.kind)).collect());
        assert_eq!(sorted_dedup(idx.users(step).collect()), want, "{ctx}: users({step})");
        let want = g.meta(step).map(|m| (m.addr, m.stmt));
        assert_eq!(idx.meta_of(step), want, "{ctx}: meta_of({step})");
    }
    for addr in 0..INDEX_ADDRS as Addr {
        let got: Vec<u64> = idx.steps_at(addr).collect();
        assert!(got.windows(2).all(|w| w[0] < w[1]), "{ctx}: steps_at({addr}) ascending");
        assert_eq!(got, g.steps_at_addr(addr), "{ctx}: steps_at({addr})");
    }
}

/// Every cold-tier lookup must equal a rebuild over the records the
/// store was fed: adjacency (as sets) and metadata for every step in
/// `0..=last`, mentioned or not, and `steps_at` for every address.
fn assert_cold_is_records(store: &ColdStore, g: &DdgGraph, last: u64, ctx: &str) {
    let view = ColdView::new(store);
    for step in 0..=last {
        let want = sorted_dedup(g.defs_of(step).iter().map(|d| (d.def, d.kind)).collect());
        assert_eq!(sorted_dedup(view.defs(step)), want, "{ctx}: defs({step})");
        let want = sorted_dedup(g.users_of(step).map(|d| (d.user, d.kind)).collect());
        assert_eq!(sorted_dedup(view.users(step)), want, "{ctx}: users({step})");
        let want = g.meta(step).map(|m| (m.addr, m.stmt));
        assert_eq!(view.meta_of(step), want, "{ctx}: meta_of({step})");
    }
    for addr in 0..INDEX_ADDRS as Addr {
        assert_eq!(view.steps_at(addr), g.steps_at_addr(addr), "{ctx}: steps_at({addr})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cold tier answers exactly what a rebuild over its records
    /// answers, from memory (with an unsealed open tail) and after a
    /// durable flush and reopen. Streams span several segments and mix
    /// near defs, defs several segments back and far-back defs at the
    /// start of the run (which pull every later segment's `min_def`
    /// down), plus one non-monotone user step, which seals a segment
    /// early.
    #[test]
    fn cold_view_matches_record_rebuild(
        stream in proptest::collection::vec(
            (1u64..4, 0u8..8, 1u64..40, 0u8..3),
            2 * SEGMENT_RECORDS as usize..4 * SEGMENT_RECORDS as usize,
        ),
        desync_pick in 0usize..4096,
        back in 1u64..600,
    ) {
        let desync_at = desync_pick % stream.len();
        let mut records = Vec::with_capacity(stream.len() + 1);
        let mut user = 0u64;
        for (i, &(gap, reach, near, k)) in stream.iter().enumerate() {
            user += gap;
            let def = match reach {
                0 => near.min(user - 1),
                1 => user.saturating_sub(near * 64),
                _ => user.saturating_sub(near),
            };
            records.push(index_record(user, def, k));
            if i == desync_at {
                let stale = user.saturating_sub(back).max(1);
                records.push(index_record(stale, stale - 1, k));
            }
        }
        let mut mem = ColdStore::new();
        for r in &records {
            mem.append(r);
        }
        if mem.segment_count() == mem.segment_metas().len() {
            // The stream filled its last segment exactly: one more
            // record leaves an unsealed open tail.
            user += 1;
            let r = index_record(user, user - 1, 0);
            mem.append(&r);
            records.push(r);
        }
        prop_assert_eq!(mem.segment_count(), mem.segment_metas().len() + 1);
        prop_assert!(mem.segment_metas().len() >= 2, "the stream spans several segments");
        let g = DdgGraph::from_records(records.iter(), &empty_program());
        assert_cold_is_records(&mem, &g, user + 1, "memory");

        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("structure_props_cold");
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = ColdStore::durable(&dir).expect("target tmp dir is writable");
        for r in &records {
            durable.append(r);
        }
        durable.flush();
        drop(durable);
        let (reopened, scrub) = ColdStore::reopen(&dir).expect("reopen");
        prop_assert!(scrub.quarantined.is_empty());
        prop_assert_eq!(reopened.record_count(), records.len() as u64);
        assert_cold_is_records(&reopened, &g, user + 1, "reopened");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    /// The slice index equals a whole-window rebuild after every push,
    /// across arbitrary record streams: monotone user steps, defs in the
    /// user's own chunk, defs several chunks back and reused defs,
    /// duplicate records,
    /// any byte budget (so link slots are released and reused, and
    /// chunks die and are recreated), and a snapshot held across later
    /// pushes, which must keep answering for the window it froze.
    #[test]
    fn slice_index_matches_window_rebuild(
        budget in 8usize..1024,
        stream in proptest::collection::vec(
            ((0u64..1500, 0u8..5, 1u64..200), (1u64..6, 0u8..3, 0usize..3)),
            1..90,
        ),
        snap_pick in 0usize..90,
    ) {
        let program = empty_program();
        let mut buf = CircularTraceBuffer::new(budget);
        let mut idx = SliceIndex::default();
        let mut seen = BTreeSet::new();
        let snap_at = snap_pick % stream.len();
        let mut held = None;
        let mut user = 1u64;
        // Recent defs, reused so a def's `users` list drains on eviction
        // and refills later (and its chunk dies and comes back).
        let mut hot: Vec<u64> = Vec::new();
        for (i, &((gap, reach, near), (chunks_back, k, dups))) in stream.iter().enumerate() {
            user += gap;
            // A def reaches `chunks_back` chunks behind the user, reuses
            // a recent def, or stays within `near` steps of the user,
            // clamped to the user's own chunk.
            let def = match reach {
                0 => user.saturating_sub(chunks_back * CHUNK_STEPS + near),
                1 | 2 if !hot.is_empty() => hot[near as usize % hot.len()],
                _ => user.saturating_sub(near).max(user & !(CHUNK_STEPS - 1)).min(user - 1),
            };
            if !hot.contains(&def) {
                if hot.len() == 4 {
                    hot.remove(0);
                }
                hot.push(def);
            }
            for _ in 0..=dups {
                let r = index_record(user, def, k);
                idx.on_push(&r);
                buf.push_with(r, |evicted| idx.on_evict(evicted));
            }
            seen.extend([user, def]);
            let g = DdgGraph::from_records(buf.records(), &program);
            assert_index_is_window(&idx, &g, buf.len(), &seen, &format!("push {i}"));
            prop_assert_eq!(idx.desyncs(), 0);
            if i == snap_at {
                held = Some((idx.snapshot(), g, buf.len(), seen.clone()));
            }
        }
        let (snap, g, records, seen_then) = held.expect("snapshot taken");
        assert_index_is_window(&snap, &g, records, &seen_then, "held snapshot");
    }

    /// The circular buffer never exceeds its byte budget, evicts oldest
    /// first, and accounts appended totals exactly.
    #[test]
    fn buffer_invariants(
        cap in 8usize..256,
        gaps in proptest::collection::vec((1u64..50, 0u64..1000, 0u8..3), 1..120),
    ) {
        let mut b = CircularTraceBuffer::new(cap);
        let mut user = 0u64;
        let mut appended_bytes = 0u64;
        for (gap, dist, k) in gaps.clone() {
            user += gap;
            let def = user.saturating_sub(dist);
            appended_bytes += (varint_len(gap) + varint_len(user - def) + 1) as u64;
            b.push(record(user, def, kind(k), 0, 0, 0, 0));
            prop_assert!(b.bytes() <= cap, "budget respected");
        }
        prop_assert_eq!(b.appended as usize, gaps.len());
        prop_assert_eq!(b.bytes_appended, appended_bytes);
        // Window ordering: records are sorted by user step.
        let users: Vec<u64> = b.records().map(|r| r.dep.user).collect();
        let mut sorted = users.clone();
        sorted.sort_unstable();
        prop_assert_eq!(users, sorted);
    }

    /// CompactDdg::expand is the exact inverse of insertion, for
    /// arbitrary instance sets grouped on arbitrary static edges.
    #[test]
    fn compact_round_trip(
        edges in proptest::collection::vec(
            ((0u32..50, 0u32..50, 0u8..3),
             proptest::collection::vec((1u64..100, 0u64..99), 1..20)),
            1..12,
        )
    ) {
        // Precondition of CompactDdg: per-edge user steps increase, so
        // the generated edge keys must be distinct across groups.
        let keys: std::collections::HashSet<(u32, u32, u8)> =
            edges.iter().map(|((ua, da, k), _)| (*ua, *da, *k % 3)).collect();
        prop_assume!(keys.len() == edges.len());
        let mut c = CompactDdg::default();
        let mut want: Vec<(u32, u32, u64, u64)> = Vec::new();
        for ((ua, da, k), instances) in &edges {
            // Per-edge user steps must be strictly increasing (as they
            // are when produced by a forward scan); enforce by prefix sum.
            let mut user = 0u64;
            for (gap, dist) in instances {
                user += gap;
                let def = user.saturating_sub(*dist);
                c.push(*ua, *da, Dependence::new(user, def, kind(*k)));
                want.push((*ua, *da, user, def));
            }
        }
        let got: Vec<(u32, u32, u64, u64)> =
            c.expand().into_iter().map(|(ua, da, d)| (ua, da, d.user, d.def)).collect();
        let mut want_sorted = want.clone();
        want_sorted.sort_by_key(|&(_, _, u, d)| (u, d));
        // got is sorted by (user, def); compare as multisets via sort.
        let mut got_sorted = got.clone();
        got_sorted.sort();
        want_sorted.sort();
        prop_assert_eq!(got_sorted, want_sorted);
        prop_assert_eq!(c.dep_count() as usize, want.len());
    }

    /// DdgGraph indexes are consistent: defs_of/users_of are inverse
    /// relations and dedup removes exact duplicates only.
    #[test]
    fn graph_index_inverse(
        deps in proptest::collection::vec((1u64..40, 0u64..39, 0u8..3), 1..60)
    ) {
        let dep_vec: Vec<Dependence> = deps
            .iter()
            .filter(|(u, d, _)| d < u)
            .map(|(u, d, k)| Dependence::new(*u, *d, kind(*k)))
            .collect();
        prop_assume!(!dep_vec.is_empty());
        let metas: Vec<StepMeta> = (0..41)
            .map(|s| StepMeta { step: s, addr: s as u32, stmt: s as u32, tid: 0 })
            .collect();
        let g = DdgGraph::from_deps(dep_vec.clone(), metas);
        // Inverse relation.
        for d in g.deps() {
            prop_assert!(g.users_of(d.def).any(|x| x.user == d.user && x.kind == d.kind));
            prop_assert!(g.defs_of(d.user).contains(d));
        }
        // Dedup: count of unique inputs equals graph size.
        let mut uniq = dep_vec.clone();
        uniq.sort_by_key(|d| (d.user, d.def, d.kind as u8));
        uniq.dedup();
        prop_assert_eq!(g.dep_count(), uniq.len());
    }
}
