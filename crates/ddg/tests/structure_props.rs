//! Property tests on the dependence-graph structures.

use dift_ddg::buffer::{record, varint_len, BufRecord, CircularTraceBuffer};
use dift_ddg::cold::SEGMENT_RECORDS;
use dift_ddg::index::CHUNK_STEPS;
use dift_ddg::{
    ColdStore, ColdView, CompactDdg, DdgGraph, DepKind, Dependence, IndexData, SliceIndex, StepMeta,
};
use dift_isa::{Addr, Program, ProgramBuilder};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
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

/// Bytes a decoder needs for `window`: the head carries its absolute
/// user step, every later record the gap from its predecessor.
fn decodable_bytes(window: &[BufRecord]) -> usize {
    let mut prev = None;
    window
        .iter()
        .map(|r| {
            let gap = prev.map_or(r.dep.user, |p| r.dep.user - p);
            prev = Some(r.dep.user);
            varint_len(gap) + varint_len(r.dep.user - r.dep.def) + 1
        })
        .sum()
}

/// `DdgGraph::from_records` ignores the program; any program works.
fn empty_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.halt();
    b.build().unwrap()
}

/// `records` stably sorted by user step: the order the index reads its
/// records back in, whatever order they were pushed in.
fn by_user(records: &[BufRecord]) -> Vec<BufRecord> {
    let mut v = records.to_vec();
    v.sort_by_key(|r| r.dep.user);
    v
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
        assert_eq!(sorted_dedup(view.defs(step).collect()), want, "{ctx}: defs({step})");
        let want = sorted_dedup(g.users_of(step).map(|d| (d.user, d.kind)).collect());
        assert_eq!(sorted_dedup(view.users(step).collect()), want, "{ctx}: users({step})");
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
        let g = DdgGraph::from_records(records.iter().copied(), &empty_program());
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
        // Every pushed record: eviction is FIFO, so the window is the
        // suffix past the evicted ones, an oracle that does not read
        // the index back.
        let mut pushed = Vec::new();
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
                buf.push(r);
                pushed.push(r);
            }
            seen.extend([user, def]);
            let window = &pushed[buf.evicted as usize..];
            prop_assert_eq!(buf.records().collect::<Vec<_>>(), window.to_vec(), "push {}", i);
            let g = DdgGraph::from_records(window.iter().copied(), &program);
            assert_index_is_window(buf.index(), &g, window.len(), &seen, &format!("push {i}"));
            if i == snap_at {
                held = Some((buf.index().snapshot(), g, window.len(), seen.clone()));
            }
        }
        let (snap, g, records, seen_then) = held.expect("snapshot taken");
        assert_index_is_window(&snap, &g, records, &seen_then, "held snapshot");
    }

    /// `push_batch` leaves the index as the pushed records say, checked
    /// against the pushed vector itself after every batch. Streams look
    /// like the epoch composer's: monotone users with defs in the user's
    /// chunk or several chunks back, duplicate records, and per-epoch
    /// tails of pending records whose users fall back below the epoch's
    /// last user and whose defs precede the epoch. They are cut into
    /// random batches, which straddle chunk boundaries on both sides. A
    /// snapshot held across one batch keeps the pre-batch state, and
    /// copy-on-write copies exactly the pre-existing chunks the batch
    /// writes. Draining with `evict_oldest` returns `records()`.
    #[test]
    fn push_batch_matches_pushed_records(
        stream in proptest::collection::vec(
            ((0u64..900, 0u8..4, 1u64..300), (0u64..4, 0u8..3, 0usize..3), (0u8..4, 0u8..6)),
            1..120,
        ),
        cuts in proptest::collection::vec(1usize..16, 1..24),
        snap_pick in 0usize..64,
    ) {
        let mut records = Vec::new();
        let mut pending = Vec::new();
        let (mut user, mut epoch_start) = (1u64, 1u64);
        for &((gap, reach, near), (chunks_back, k, dups), (pend, flush)) in &stream {
            user += gap;
            let def = match reach {
                0 => user.saturating_sub(chunks_back * CHUNK_STEPS + near),
                1 => user - 1,
                _ => user.saturating_sub(near).max(user & !(CHUNK_STEPS - 1)).min(user - 1),
            };
            for _ in 0..=dups {
                records.push(index_record(user, def, k));
            }
            if pend == 0 {
                let old = (epoch_start - 1).saturating_sub(chunks_back * CHUNK_STEPS + near);
                pending.push(index_record(user, old, k));
            }
            if flush == 0 {
                records.append(&mut pending);
                epoch_start = user + 1;
            }
        }
        records.append(&mut pending);

        let mut idx = SliceIndex::default();
        // The oracle: per-step lists appended in push order, read off
        // the pushed records and never off the index.
        let mut want_defs: BTreeMap<u64, Vec<(u64, DepKind)>> = BTreeMap::new();
        let mut want_users: BTreeMap<u64, Vec<(u64, DepKind)>> = BTreeMap::new();
        let mut pushed: Vec<BufRecord> = Vec::new();
        let mut batches = Vec::new();
        let mut rest = &records[..];
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            batches.push(batch);
            rest = tail;
        }
        let snap_at = snap_pick % batches.len();
        for (b, &batch) in batches.iter().enumerate() {
            let held =
                (b == snap_at).then(|| (idx.snapshot(), idx.chunk_copies(), idx.spine_copies()));
            let live_chunks: BTreeSet<u64> =
                want_defs.keys().chain(want_users.keys()).map(|s| s / CHUNK_STEPS).collect();
            idx.push_batch(batch);
            for r in batch {
                want_defs.entry(r.dep.user).or_default().push((r.dep.def, r.dep.kind));
                want_users.entry(r.dep.def).or_default().push((r.dep.user, r.dep.kind));
            }
            pushed.extend_from_slice(batch);
            let ctx = format!("batch {b} ({} records)", batch.len());

            let steps: BTreeSet<u64> = want_defs.keys().chain(want_users.keys()).copied().collect();
            for &s in &steps {
                let none = Vec::new();
                let want = want_defs.get(&s).unwrap_or(&none);
                prop_assert_eq!(&idx.defs(s).collect::<Vec<_>>(), want, "{}: defs({})", ctx, s);
                let want = want_users.get(&s).unwrap_or(&none);
                prop_assert_eq!(&idx.users(s).collect::<Vec<_>>(), want, "{}: users({})", ctx, s);
                let meta = index_record(s, 0, 0);
                let want = Some((meta.user_addr, meta.user_stmt));
                prop_assert_eq!(idx.meta_of(s), want, "{}: meta_of({})", ctx, s);
            }
            prop_assert_eq!(idx.records().collect::<Vec<_>>(), by_user(&pushed), "{}", ctx);
            prop_assert_eq!(idx.step_count(), steps.len(), "{}: step_count", ctx);
            prop_assert_eq!(idx.edges(), pushed.len() as u64, "{}: edges", ctx);
            prop_assert_eq!(idx.generation(), pushed.len() as u64, "{}: generation", ctx);

            if let Some((snap, copies, spines)) = held {
                let before = &pushed[..pushed.len() - batch.len()];
                let n = before.len() as u64;
                prop_assert_eq!(snap.records().collect::<Vec<_>>(), by_user(before), "{}", ctx);
                prop_assert_eq!((snap.edges(), snap.generation()), (n, n), "{}: snapshot", ctx);
                for s in batch.iter().flat_map(|r| [r.dep.user, r.dep.def]) {
                    let defs =
                        before.iter().filter(|o| o.dep.user == s).map(|o| (o.dep.def, o.dep.kind));
                    prop_assert_eq!(snap.defs(s).collect::<Vec<_>>(), defs.collect::<Vec<_>>());
                    let users =
                        before.iter().filter(|o| o.dep.def == s).map(|o| (o.dep.user, o.dep.kind));
                    prop_assert_eq!(snap.users(s).collect::<Vec<_>>(), users.collect::<Vec<_>>());
                    let live = before.iter().any(|o| o.dep.user == s || o.dep.def == s);
                    prop_assert_eq!(snap.meta_of(s).is_some(), live, "{}: snapshot {}", ctx, s);
                }
                let touched: BTreeSet<u64> = batch
                    .iter()
                    .flat_map(|r| [r.dep.user / CHUNK_STEPS, r.dep.def / CHUNK_STEPS])
                    .collect();
                let copied = idx.chunk_copies() - copies;
                prop_assert!(copied <= touched.len() as u64, "{}: {} copies", ctx, copied);
                let shared = touched.intersection(&live_chunks).count() as u64;
                prop_assert_eq!(copied, shared, "{}: copies of the shared chunks", ctx);
                prop_assert_eq!(idx.spine_copies() - spines, 1, "{}: one spine copy", ctx);
            }
        }

        let want = idx.records().collect::<Vec<_>>();
        let drained: Vec<BufRecord> = std::iter::from_fn(|| idx.evict_oldest()).collect();
        prop_assert_eq!(drained, want, "evict_oldest drains in records() order");
        prop_assert_eq!((idx.edges(), idx.step_count(), idx.chunk_count()), (0, 0, 0));
    }

    /// The circular buffer never exceeds its byte budget, evicts oldest
    /// first, holds exactly the pushed suffix at exactly the bytes a
    /// decoder of that suffix needs, and accounts appended totals
    /// exactly.
    #[test]
    fn buffer_invariants(
        cap in 8usize..256,
        gaps in proptest::collection::vec((1u64..50, 0u64..1000, 0u8..3), 1..120),
    ) {
        let mut b = CircularTraceBuffer::new(cap);
        let mut pushed = Vec::new();
        let mut user = 0u64;
        let mut appended_bytes = 0u64;
        for (gap, dist, k) in gaps.clone() {
            user += gap;
            let def = user.saturating_sub(dist);
            appended_bytes += (varint_len(gap) + varint_len(user - def) + 1) as u64;
            let r = record(user, def, kind(k), 0, 0, 0, 0);
            b.push(r);
            pushed.push(r);
            prop_assert!(b.bytes() <= cap, "budget respected");
            let window = &pushed[b.evicted as usize..];
            prop_assert_eq!(b.records().collect::<Vec<_>>(), window.to_vec());
            prop_assert_eq!(b.bytes(), decodable_bytes(window));
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
