//! Demand-driven slice queries over the live ONTRAC window.
//!
//! §2.1's point of the in-memory circular buffer is that when a fault
//! fires, the backward slice is computed *from the window, right now*.
//! The classic path materializes the whole window per query
//! (`OnTrac::graph()` → [`DdgGraph`] → [`Slicer`]): an
//! O(window · log window) sort/dedup/index rebuild even for a
//! three-step slice. This module serves the same queries from the
//! tracer's incrementally-maintained [`SliceIndex`], so a query walks
//! only the edges it visits — O(|slice|) — and a whole-window graph is
//! never built.
//!
//! * [`DepSource`] abstracts "something slices can walk": the rebuilt
//!   [`DdgGraph`], the live [`SliceIndex`], and frozen
//!   [`SliceSnapshot`]s all implement it. The walks ([`backward_over`],
//!   [`forward_over`], [`backward_from_addr_over`]) are the single
//!   traversal shared by every path, which makes the bit-identical
//!   guarantee structural rather than coincidental (slices are step
//!   *sets*; edge iteration order cannot matter).
//! * [`SliceQuery`] names one request, and [`SliceQuery::over`] is the
//!   one dispatch from a request to a walk.
//! * [`SliceService`] owns an immutable snapshot and answers through
//!   three methods: [`query`](SliceService::query) over the live
//!   window, [`query_stitched`](SliceService::query_stitched) over the
//!   live window plus the cold tier, and [`batch`](SliceService::batch),
//!   a map of `query` over one snapshot. Snapshots are
//!   generation-stamped: `refresh` is free when the window has not
//!   moved, and [`SliceService::snapshot`] hands the same frozen window
//!   to any number of reader threads while tracing continues.
//!
//! The differential proptest (`tests/service_diff.rs`) holds every
//! query path bit-identical to [`Slicer`] over
//! `DdgGraph::from_records` of the same live window, across
//! eviction-heavy buffer budgets and all three [`KindMask`] presets.
//!
//! # Stitched queries across the eviction horizon
//!
//! With the tracer's cold tier on (`OnTracConfig::cold_tier`), evicted
//! records survive in a compressed [`ColdStore`]. A stitched query walks
//! the live snapshot and the cold tier as one [`DepSource`]: adjacency
//! is the live iterator chained with the cold tier's decoded records.
//! Because every record is in exactly one tier (the budget decides
//! *when* a record is evicted, never whether it exists), the stitched
//! source describes the full never-evicted trace, and the same shared
//! walks make stitched slices bit-identical to the offline [`Slicer`]
//! over that full trace — the window budget is a cache size, not a
//! correctness limit. Every stitched answer carries the cold store's
//! integrity verdict ([`StitchedOutcome`]); the stitched proptest in
//! `tests/service_diff.rs` holds that every answer is `Full` and exact.

use crate::slicer::{KindMask, Slice, Slicer};
use dift_ddg::cold::{ColdStore, ColdView};
use dift_ddg::iofault::IoFaultPlan;
use dift_ddg::{DdgGraph, DepKind, SliceIndex, SliceSnapshot};
use dift_isa::Addr;
use dift_obs::{Metric, NoopRecorder, Recorder};
use std::collections::BTreeSet;

/// Anything a slice can be walked over: forward and backward adjacency
/// plus the step metadata slices are reported in.
pub trait DepSource {
    /// Dependences whose user is `step`, as `(def, kind)` pairs.
    fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)>;

    /// Dependences whose def is `step`, as `(user, kind)` pairs.
    fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)>;

    /// `(addr, stmt)` metadata for a step, when known.
    fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)>;

    /// Steps whose instruction executed at `addr`, ascending.
    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64>;
}

impl DepSource for DdgGraph {
    fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        self.defs_of(step).iter().map(|d| (d.def, d.kind))
    }

    fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        self.users_of(step).map(|d| (d.user, d.kind))
    }

    fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)> {
        self.meta(step).map(|m| (m.addr, m.stmt))
    }

    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> {
        self.steps_at_addr(addr).iter().copied()
    }
}

/// The live index and its snapshots share one accessor surface
/// (`IndexData` behind `Deref`), so one macro covers both.
macro_rules! impl_depsource_via_indexdata {
    ($ty:ty) => {
        impl DepSource for $ty {
            fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
                dift_ddg::IndexData::defs(self, step)
            }

            fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
                dift_ddg::IndexData::users(self, step)
            }

            fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)> {
                dift_ddg::IndexData::meta_of(self, step)
            }

            fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> {
                dift_ddg::IndexData::steps_at(self, addr)
            }
        }
    };
}

impl_depsource_via_indexdata!(SliceIndex);
impl_depsource_via_indexdata!(SliceSnapshot);

fn collect_over<S: DepSource + ?Sized>(src: &S, steps: BTreeSet<u64>) -> Slice {
    let mut s = Slice { steps, ..Default::default() };
    for &step in &s.steps {
        if let Some((addr, stmt)) = src.meta_of(step) {
            s.addrs.insert(addr);
            s.stmts.insert(stmt);
        }
    }
    s
}

/// Backward dynamic slice over any [`DepSource`]: every step the
/// criterion steps (transitively) depend on, criterion included.
/// Public so a caller holding a bare criterion walks without building
/// a [`SliceQuery`] (the pipeline benchmark times exactly this call).
pub fn backward_over<S: DepSource + ?Sized>(src: &S, criterion: &[u64], mask: KindMask) -> Slice {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut work: Vec<u64> = criterion.to_vec();
    while let Some(step) = work.pop() {
        if !seen.insert(step) {
            continue;
        }
        for (def, kind) in src.defs(step) {
            if mask.allows(kind) && !seen.contains(&def) {
                work.push(def);
            }
        }
    }
    collect_over(src, seen)
}

/// Forward dynamic slice over any [`DepSource`]: every step
/// (transitively) affected by the criterion steps, criterion included.
/// Public for the same reason as [`backward_over`].
pub fn forward_over<S: DepSource + ?Sized>(src: &S, criterion: &[u64], mask: KindMask) -> Slice {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut work: Vec<u64> = criterion.to_vec();
    while let Some(step) = work.pop() {
        if !seen.insert(step) {
            continue;
        }
        for (user, kind) in src.users(step) {
            if mask.allows(kind) && !seen.contains(&user) {
                work.push(user);
            }
        }
    }
    collect_over(src, seen)
}

/// Backward slice seeded with every dynamic instance of a program
/// address, over any [`DepSource`]. Public for the same reason as
/// [`backward_over`].
pub fn backward_from_addr_over<S: DepSource + ?Sized>(
    src: &S,
    addr: Addr,
    mask: KindMask,
) -> Slice {
    let steps: Vec<u64> = src.steps_at(addr).collect();
    backward_over(src, &steps, mask)
}

/// The live window and the cold tier presented as one [`DepSource`]:
/// a walk that starts on live steps transparently continues into cold
/// segments when a frontier step is older than the eviction horizon.
///
/// Every record is in exactly one tier, so chaining the two adjacency
/// sets loses nothing and duplicates nothing that matters (slices are
/// step *sets*; a duplicate edge re-proposes a step the walk's `seen`
/// set already absorbed). The [`ColdView`] inside holds no decoded
/// state of its own: every decode is shared through the store.
pub(crate) struct StitchedSource<'a, F: IoFaultPlan> {
    live: &'a SliceSnapshot,
    cold: ColdView<'a, F>,
}

impl<'a, F: IoFaultPlan> StitchedSource<'a, F> {
    pub(crate) fn new(live: &'a SliceSnapshot, cold: &'a ColdStore<F>) -> StitchedSource<'a, F> {
        StitchedSource { live, cold: ColdView::new(cold) }
    }
}

impl<F: IoFaultPlan> DepSource for StitchedSource<'_, F> {
    fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        dift_ddg::IndexData::defs(self.live, step).chain(self.cold.defs(step))
    }

    fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        dift_ddg::IndexData::users(self.live, step).chain(self.cold.users(step))
    }

    fn meta_of(&self, step: u64) -> Option<(Addr, dift_isa::StmtId)> {
        dift_ddg::IndexData::meta_of(self.live, step).or_else(|| self.cold.meta_of(step))
    }

    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> {
        // Sorted-dedup union: a step can be live *and* mentioned in
        // cold (e.g. as the still-live def of an evicted record).
        let mut steps = self.cold.steps_at(addr);
        steps.extend(dift_ddg::IndexData::steps_at(self.live, addr));
        steps.sort_unstable();
        steps.dedup();
        steps.into_iter()
    }
}

/// The result of a stitched query: the slice plus the integrity
/// verdict.
///
/// Cold-tier segments that fail the durable recovery ladder (CRC,
/// metadata validation — see `dift_ddg::durable`) are quarantined, not
/// panicked on and never silently dropped: the walk completes over the
/// surviving history and the outcome names exactly the user-step ranges
/// that could not be consulted. A `Full` outcome is the bit-identical
/// whole-execution slice; a `Degraded` one is an honest partial answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StitchedOutcome {
    /// Every cold segment the walk needed was intact.
    Full(Slice),
    /// Some history is quarantined; the slice excludes it and
    /// `missing_step_ranges` (merged, ascending) says what is gone.
    Degraded { slice: Slice, missing_step_ranges: Vec<(u64, u64)> },
}

impl StitchedOutcome {
    /// The walk has run; the cold store's quarantine ledger says
    /// whether any of the history it needed was lost.
    fn checked<F: IoFaultPlan>(slice: Slice, cold: &ColdStore<F>) -> StitchedOutcome {
        let missing = cold.missing_step_ranges();
        if missing.is_empty() {
            StitchedOutcome::Full(slice)
        } else {
            StitchedOutcome::Degraded { slice, missing_step_ranges: missing }
        }
    }

    /// The slice, whatever the integrity verdict.
    pub fn slice(&self) -> &Slice {
        match self {
            StitchedOutcome::Full(s) => s,
            StitchedOutcome::Degraded { slice, .. } => slice,
        }
    }

    /// Consume into the slice.
    pub fn into_slice(self) -> Slice {
        match self {
            StitchedOutcome::Full(s) => s,
            StitchedOutcome::Degraded { slice, .. } => slice,
        }
    }

    /// Did quarantined history limit this answer?
    pub fn is_degraded(&self) -> bool {
        matches!(self, StitchedOutcome::Degraded { .. })
    }

    /// The lost step ranges (empty for [`StitchedOutcome::Full`]).
    pub fn missing_step_ranges(&self) -> &[(u64, u64)] {
        match self {
            StitchedOutcome::Full(_) => &[],
            StitchedOutcome::Degraded { missing_step_ranges, .. } => missing_step_ranges,
        }
    }
}

/// [`backward_over`] across the live window and the cold tier, with the
/// integrity verdict. Public so a caller holding a bare criterion skips
/// building a [`SliceQuery`] (the pipeline benchmark times this call).
pub fn backward_stitched_checked<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    criterion: &[u64],
    mask: KindMask,
) -> StitchedOutcome {
    let slice = backward_over(&StitchedSource::new(live, cold), criterion, mask);
    StitchedOutcome::checked(slice, cold)
}

/// [`forward_over`] across the live window and the cold tier, with the
/// integrity verdict. Public for the same reason as
/// [`backward_stitched_checked`].
pub fn forward_stitched_checked<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    criterion: &[u64],
    mask: KindMask,
) -> StitchedOutcome {
    let slice = forward_over(&StitchedSource::new(live, cold), criterion, mask);
    StitchedOutcome::checked(slice, cold)
}

/// [`backward_from_addr_over`] across the live window and the cold
/// tier, with the integrity verdict. Public for the same reason as
/// [`backward_stitched_checked`].
pub fn backward_from_addr_stitched_checked<F: IoFaultPlan>(
    live: &SliceSnapshot,
    cold: &ColdStore<F>,
    addr: Addr,
    mask: KindMask,
) -> StitchedOutcome {
    let slice = backward_from_addr_over(&StitchedSource::new(live, cold), addr, mask);
    StitchedOutcome::checked(slice, cold)
}

/// One slice request; a batch of these shares a single snapshot.
#[derive(Clone, Debug)]
pub enum SliceQuery {
    Backward { criterion: Vec<u64>, mask: KindMask },
    Forward { criterion: Vec<u64>, mask: KindMask },
    BackwardFromAddr { addr: Addr, mask: KindMask },
}

impl SliceQuery {
    /// Answer this request over any [`DepSource`] — the one dispatch
    /// from a request to a walk that every service path goes through.
    pub fn over<S: DepSource + ?Sized>(&self, src: &S) -> Slice {
        match self {
            SliceQuery::Backward { criterion, mask } => backward_over(src, criterion, *mask),
            SliceQuery::Forward { criterion, mask } => forward_over(src, criterion, *mask),
            SliceQuery::BackwardFromAddr { addr, mask } => {
                backward_from_addr_over(src, *addr, *mask)
            }
        }
    }
}

/// A query service over one frozen window, generic over an
/// observability recorder (default [`NoopRecorder`]: probes
/// monomorphize away).
///
/// The service holds a [`SliceSnapshot`]; queries never touch the live
/// tracer, so any number of services (or snapshot clones, see
/// [`snapshot`](Self::snapshot)) can answer concurrently while tracing
/// continues. Call [`refresh`](Self::refresh) to follow the live
/// window — a no-op (counted as a snapshot reuse) when the index
/// generation has not moved.
pub struct SliceService<R: Recorder = NoopRecorder> {
    snap: SliceSnapshot,
    /// The probe sink (ZST under the default [`NoopRecorder`]).
    pub obs: R,
}

impl SliceService {
    /// Unprobed service over the index's current window.
    pub fn new(index: &SliceIndex) -> SliceService {
        SliceService::with_recorder(index, NoopRecorder)
    }

    /// Unprobed service over an existing snapshot (e.g. one handed to
    /// a reader thread).
    pub fn from_snapshot(snap: SliceSnapshot) -> SliceService {
        SliceService { snap, obs: NoopRecorder }
    }
}

impl<R: Recorder> SliceService<R> {
    /// Service wired to a live recorder; snapshot latency is charged to
    /// `slicing/service/snapshot_nanos`.
    pub fn with_recorder(index: &SliceIndex, mut obs: R) -> SliceService<R> {
        let snap = obs.timed(Metric::SlSnapshotNanos, || index.snapshot());
        if R::ENABLED {
            obs.gauge(Metric::SlChunkCopies, index.chunk_copies());
        }
        SliceService { snap, obs }
    }

    /// Re-snapshot if (and only if) the live window has moved since
    /// this service's snapshot was taken. Either way the
    /// `slicing/service/chunk_copies` gauge tracks the index's
    /// copy-on-write wear, so tests can assert that an unchanged
    /// generation performs zero chunk copies.
    pub fn refresh(&mut self, index: &SliceIndex) {
        if R::ENABLED {
            self.obs.gauge(Metric::SlChunkCopies, index.chunk_copies());
        }
        if index.generation() == self.snap.generation() {
            if R::ENABLED {
                self.obs.add(Metric::SlSnapshotReuse, 1);
            }
            return;
        }
        self.snap = self.obs.timed(Metric::SlSnapshotNanos, || index.snapshot());
    }

    /// The generation of the frozen window this service answers from.
    pub fn generation(&self) -> u64 {
        self.snap.generation()
    }

    /// Share the frozen window with another thread (one `Arc` bump).
    pub fn snapshot(&self) -> SliceSnapshot {
        self.snap.clone()
    }

    fn note(&mut self, s: &Slice) {
        if R::ENABLED {
            self.obs.add(Metric::SlQueries, 1);
            self.obs.observe(Metric::SlSliceSteps, s.len() as u64);
        }
    }

    /// Answer one request over the frozen live window.
    pub fn query(&mut self, q: &SliceQuery) -> Slice {
        let s = q.over(&self.snap);
        self.note(&s);
        s
    }

    /// Answer one request across the whole execution — the live window
    /// stitched with the tracer's cold tier — with the integrity
    /// verdict. Counted on `slicing/service/cold_queries`; a degraded
    /// answer also bumps `slicing/service/degraded_queries`.
    pub fn query_stitched<F: IoFaultPlan>(
        &mut self,
        cold: &ColdStore<F>,
        q: &SliceQuery,
    ) -> StitchedOutcome {
        let out = StitchedOutcome::checked(q.over(&StitchedSource::new(&self.snap, cold)), cold);
        if R::ENABLED {
            self.obs.add(Metric::SlColdQueries, 1);
            if out.is_degraded() {
                self.obs.add(Metric::SlDegraded, 1);
            }
        }
        self.note(out.slice());
        out
    }

    /// Answer a batch of requests against one consistent window.
    pub fn batch(&mut self, queries: &[SliceQuery]) -> Vec<Slice> {
        if R::ENABLED {
            self.obs.add(Metric::SlBatches, 1);
        }
        queries.iter().map(|q| self.query(q)).collect()
    }
}

/// Reference answers for a batch, computed the classic way: rebuild a
/// [`DdgGraph`] and run [`Slicer`]. The bench harness and differential
/// tests compare [`SliceService::batch`] against this.
pub fn batch_via_rebuild(graph: &DdgGraph, queries: &[SliceQuery]) -> Vec<Slice> {
    let slicer = Slicer::new(graph);
    queries
        .iter()
        .map(|q| match q {
            SliceQuery::Backward { criterion, mask } => slicer.backward(criterion, *mask),
            SliceQuery::Forward { criterion, mask } => slicer.forward(criterion, *mask),
            SliceQuery::BackwardFromAddr { addr, mask } => slicer.backward_from_addr(*addr, *mask),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dift_ddg::buffer::record;
    use dift_ddg::CircularTraceBuffer;

    /// Window: 1 -> 3 (reg), 2 -> 3 (mem), 3 -> 5 (reg), 4 -> 5 (ctrl),
    /// 5 -> 6 (war); two instances of addr 9 at steps 5 and 6.
    fn window() -> CircularTraceBuffer {
        let mut buf = CircularTraceBuffer::new(1 << 20);
        let edges = [
            (3u64, 1u64, DepKind::RegData),
            (3, 2, DepKind::MemData),
            (5, 3, DepKind::RegData),
            (5, 4, DepKind::Control),
            (6, 5, DepKind::War),
        ];
        for (user, def, kind) in edges {
            let addr = |s: u64| if s >= 5 { 9 } else { s as u32 };
            buf.push(record(user, def, kind, addr(user), addr(def), user as u32, def as u32));
        }
        buf
    }

    fn bwd(criterion: &[u64], mask: KindMask) -> SliceQuery {
        SliceQuery::Backward { criterion: criterion.to_vec(), mask }
    }

    #[test]
    fn service_matches_slicer_semantics() {
        let buf = window();
        let mut svc = SliceService::new(buf.index());
        let b = svc.query(&bwd(&[5], KindMask::classic()));
        assert_eq!(b.steps, [1, 2, 3, 4, 5].into_iter().collect());
        assert!(b.contains_addr(9));
        let f = svc.query(&SliceQuery::Forward { criterion: vec![1], mask: KindMask::classic() });
        assert_eq!(f.steps, [1, 3, 5].into_iter().collect());
        let war = svc.query(&bwd(&[6], KindMask::multithreaded()));
        assert!(war.contains_step(1));
        let a = svc.query(&SliceQuery::BackwardFromAddr { addr: 9, mask: KindMask::data_only() });
        assert_eq!(a.steps, [1, 2, 3, 5, 6].into_iter().collect());
    }

    #[test]
    fn batch_matches_per_query_answers() {
        let buf = window();
        let queries = vec![
            SliceQuery::Backward { criterion: vec![5], mask: KindMask::classic() },
            SliceQuery::Forward { criterion: vec![2], mask: KindMask::data_only() },
            SliceQuery::BackwardFromAddr { addr: 9, mask: KindMask::multithreaded() },
        ];
        let mut svc = SliceService::new(buf.index());
        let batched = svc.batch(&queries);
        let singles: Vec<Slice> = queries.iter().map(|q| svc.query(q)).collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn refresh_follows_the_live_window() {
        let mut buf = window();
        let mut svc = SliceService::new(buf.index());
        let gen0 = svc.generation();
        svc.refresh(buf.index()); // unchanged window: same snapshot
        assert_eq!(svc.generation(), gen0);
        buf.push(record(8, 6, DepKind::RegData, 9, 9, 8, 6));
        assert!(svc.query(&bwd(&[8], KindMask::classic())).steps.len() == 1, "stale window");
        svc.refresh(buf.index());
        assert_ne!(svc.generation(), gen0);
        // 8 <- 6 (reg), then the WAR edge 6 <- 5 stops a classic walk.
        let b = svc.query(&bwd(&[8], KindMask::classic()));
        assert_eq!(b.steps, [6, 8].into_iter().collect::<BTreeSet<_>>());
        let mt = svc.query(&bwd(&[8], KindMask::multithreaded()));
        assert_eq!(mt.steps, [1, 2, 3, 4, 5, 6, 8].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn concurrent_readers_share_one_frozen_window() {
        let buf = window();
        let svc = SliceService::new(buf.index());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snap = svc.snapshot();
                std::thread::spawn(move || {
                    let mut s = SliceService::from_snapshot(snap);
                    s.query(&bwd(&[5], KindMask::classic())).steps
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), [1, 2, 3, 4, 5].into_iter().collect());
        }
    }
}
