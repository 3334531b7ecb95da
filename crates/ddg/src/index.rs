//! The live ONTRAC window, stored once and indexed for slicing.
//!
//! §2.1's motivation for the in-memory circular buffer is that when a
//! fault fires, the backward slice is computed *from the window, right
//! now*. Rebuilding a [`DdgGraph`](crate::DdgGraph) per query costs
//! O(window · log window) (sort + dedup + two hash maps); this module
//! keeps the same information **incrementally**: every record the
//! tracer pushes adds its two adjacency mentions, and
//! [`SliceIndex::evict_oldest`] removes the oldest record's two, so a
//! demand-driven slice walks only the edges it visits and a
//! whole-window graph is never materialized.
//!
//! The index *is* the window: [`crate::CircularTraceBuffer`] owns one,
//! keeps only the byte budget and its counters beside it, and evicts
//! from it while the budget is exceeded;
//! [`crate::CircularTraceBuffer::records`] reads the records back out
//! of the adjacency lists. `dift-slicing`'s differential proptest holds
//! queries bit-identical to `DdgGraph::from_records` over the same live
//! window, across eviction-heavy budgets.
//!
//! Three FIFO facts make O(1) amortized maintenance possible:
//!
//! * user steps are **monotone non-decreasing** (the delta encoding in
//!   [`crate::buffer`] already relies on this), so all records sharing
//!   a user step are contiguous in the stream;
//! * eviction is strictly oldest-first, so for any adjacency list the
//!   evicted mention is always that list's head: each list is a FIFO
//!   queue, appended at its tail on push and popped at its head on
//!   eviction. The oldest record is therefore the head of the `defs`
//!   list of the oldest user step that has one;
//! * every mention of a step carries the same `(addr, stmt)` metadata
//!   (an instruction instance has one address; def-side metadata is
//!   captured at the def step itself), so per-step metadata can be
//!   refcounted in the step's slot instead of re-derived, and a record
//!   is rebuilt exactly from its two steps' slots.
//!
//! # Flat chunks
//!
//! The index is binned into **chunks** of [`CHUNK_STEPS`] consecutive
//! steps (chunk id `step >> CHUNK_SHIFT`). A chunk is flat storage
//! addressed by `step & (CHUNK_STEPS - 1)`:
//!
//! * one 28-byte **slot** per step: its live-mention count, its
//!   `(addr, stmt)`, and the head and tail of its two FIFO adjacency
//!   lists (`defs`: the records whose user is the step; `users`: the
//!   records whose def is the step);
//! * one **link arena** holding the entries of those lists (16 bytes
//!   each: the record's other endpoint, its kind, the next link), with
//!   a free list so links released by eviction are reused by later
//!   pushes;
//! * an `(addr, step)` list of the chunk's live steps for
//!   [`IndexData::steps_at`], sorted on first use and dropped on the
//!   next write to the chunk.
//!
//! A record's `defs` link lives in its user's chunk and its `users`
//! link in its def's chunk, so a push or an eviction touches at most two
//! chunks. Neither hashes nor allocates per step: a chunk allocates its
//! slots once, and its arena grows amortized.
//!
//! # One append path
//!
//! [`SliceIndex::push_batch`] is the only way records enter;
//! [`SliceIndex::on_push`], the tracer's per-record call, is a
//! one-record batch. A batch is appended in two passes: the first
//! appends every record's `defs` link in its user's chunk, the second
//! every `users` link in its def's chunk. Each pass takes the chunk
//! (the copy-on-write check below) once per run of consecutive records
//! whose step lies in the same chunk, so the epoch composer's fragments,
//! whose users are monotone and whose defs mostly sit in the user's
//! chunk, pay it a few times per fragment instead of twice per record.
//! A list lives in one chunk and each pass walks the batch in order, so
//! every list gets its links in push order whatever the runs are, and
//! the index reads exactly as record-by-record pushes would leave it.
//!
//! # Copy-on-write chunks and O(dirty-chunk) snapshots
//!
//! Each chunk sits behind an `Arc`, and the chunk map (the *spine*,
//! `(chunk id, chunk)` pairs sorted by id) is itself behind an `Arc`.
//! [`SliceIndex::snapshot`] is therefore O(1) — one `Arc` bump of the
//! spine — and mutation is copy-on-write: the first write after a
//! snapshot clones the spine (a vector of pointers, O(chunks)), and the
//! first write *into a chunk* a snapshot still shares copies that one
//! chunk (two flat buffers). A snapshot interval thus pays exactly one
//! spine clone plus one copy per **dirty** chunk (in steady state: the
//! chunk receiving new records and the chunk being evicted from), never
//! O(window). The [`IndexData::chunk_copies`] /
//! [`IndexData::spine_copies`] counters expose that wear so tests and
//! the T6 history bench can assert on it, and
//! [`SliceIndex::snapshot_deep`] keeps an O(window) deep clone as the
//! comparison baseline.
//!
//! # Eviction
//!
//! [`SliceIndex`] keeps a cursor on the oldest record: the head of the
//! `defs` list of the oldest user step that has one.
//! [`SliceIndex::push_batch`] only lowers it, with one comparison of
//! user steps per record: the epoch composer pushes cross-epoch records
//! out of user order. [`SliceIndex::evict_oldest`] unlinks that record
//! from its user's `defs` list and its def's `users` list (the head in
//! FIFO order; the list is searched, so a record pushed out of order
//! still evicts consistently), drops both mentions and any chunk left
//! empty, then moves the cursor forward over slots, skipping absent
//! chunks, to the next head: amortized about one slot per traced step.
//!
//! Snapshots ([`SliceSnapshot`]) freeze the index behind an `Arc` so
//! reader threads can answer queries while tracing continues; the
//! `generation` stamp lets holders (e.g. `dift-slicing`'s
//! `SliceService`) skip re-snapshotting when the window has not moved.

use crate::buffer::BufRecord;
use crate::dep::{DepKind, Dependence, StepSite};
use dift_isa::{Addr, StmtId};
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

/// Steps per chunk: chunk id is `step >> CHUNK_SHIFT`.
const CHUNK_SHIFT: u32 = 12;

/// Number of consecutive steps one chunk covers (4096). Exposed so the
/// history bench can size windows in whole chunks.
pub const CHUNK_STEPS: u64 = 1 << CHUNK_SHIFT;

/// Slot of `step` within its chunk.
fn slot_of(step: u64) -> usize {
    (step & (CHUNK_STEPS - 1)) as usize
}

/// End of a link list (and of the free list).
const NIL: u32 = u32::MAX;

/// Which of a step's two adjacency lists.
#[derive(Clone, Copy, Debug)]
enum Side {
    /// Records whose *user* is the step, as `(def, kind)`. Mirrors
    /// `DdgGraph::defs_of`.
    Defs = 0,
    /// Records whose *def* is the step, as `(user, kind)`. Mirrors
    /// `DdgGraph::users_of`.
    Users = 1,
}

/// A FIFO list threaded through its chunk's link arena.
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

/// One step of a chunk: `count` live mentions (as user or def) keep it
/// alive; the `(addr, stmt)` pair is fixed by the first mention (all
/// mentions agree — debug-asserted on every touch) and meaningless
/// while `count` is 0.
#[derive(Clone, Copy, Debug)]
struct Slot {
    count: u32,
    addr: Addr,
    stmt: StmtId,
    /// Indexed by [`Side`].
    lists: [List; 2],
}

impl Slot {
    const EMPTY: Slot =
        Slot { count: 0, addr: 0, stmt: 0, lists: [List { head: NIL, tail: NIL }; 2] };
}

/// One adjacency mention: the record's other endpoint and kind, and the
/// next link of its list (or of the free list, once released).
#[derive(Clone, Copy, Debug)]
struct Link {
    other: u64,
    next: u32,
    kind: DepKind,
}

// `IndexData::approx_bytes` charges one slot per live step and one link
// per adjacency mention; keep both entries at their budgeted sizes.
const _: () = assert!(size_of::<Slot>() == 28 && size_of::<Link>() == 16);

/// One step-range bin of the index: the slots and links of the steps in
/// `[id << CHUNK_SHIFT, (id + 1) << CHUNK_SHIFT)`.
#[derive(Debug)]
struct Chunk {
    /// One slot per step of the range, addressed by [`slot_of`].
    slots: Box<[Slot]>,
    /// Entries of every slot's lists, plus released entries chained
    /// from `free`.
    links: Vec<Link>,
    free: u32,
    /// Slots with a live mention.
    live_steps: u32,
    /// Links on some slot's list (not on the free list).
    live_links: u32,
    /// `(addr, slot)` of every live step, sorted: built by the first
    /// `steps_at` after a write, dropped by the next write.
    by_addr: OnceLock<Box<[(Addr, u16)]>>,
}

impl Default for Chunk {
    fn default() -> Chunk {
        Chunk {
            slots: vec![Slot::EMPTY; CHUNK_STEPS as usize].into_boxed_slice(),
            links: Vec::new(),
            free: NIL,
            live_steps: 0,
            live_links: 0,
            by_addr: OnceLock::new(),
        }
    }
}

impl Clone for Chunk {
    /// A copy-on-write copy is about to be written, which drops the
    /// `steps_at` list, so the copy starts without one.
    fn clone(&self) -> Chunk {
        Chunk {
            slots: self.slots.clone(),
            links: self.links.clone(),
            free: self.free,
            live_steps: self.live_steps,
            live_links: self.live_links,
            by_addr: OnceLock::new(),
        }
    }
}

impl Chunk {
    fn is_empty(&self) -> bool {
        self.live_steps == 0 && self.live_links == 0
    }

    /// Add one mention of `step`; returns true when the step is new.
    fn touch(&mut self, step: u64, addr: Addr, stmt: StmtId) -> bool {
        let s = &mut self.slots[slot_of(step)];
        debug_assert!(
            s.count == 0 || (s.addr, s.stmt) == (addr, stmt),
            "step {step}: mention metadata diverged ({:?} vs {:?})",
            (s.addr, s.stmt),
            (addr, stmt),
        );
        if s.count == 0 {
            (s.addr, s.stmt) = (addr, stmt);
            self.live_steps += 1;
        }
        s.count += 1;
        s.count == 1
    }

    /// Drop one mention of `step`; returns true when it was the last.
    fn untouch(&mut self, step: u64) -> bool {
        let s = &mut self.slots[slot_of(step)];
        s.count -= 1;
        if s.count > 0 {
            return false;
        }
        self.live_steps -= 1;
        true
    }

    /// Append `(other, kind)` at the tail of `step`'s `side` list,
    /// reusing a released link when there is one.
    fn push_link(&mut self, step: u64, side: Side, other: u64, kind: DepKind) {
        let link = Link { other, next: NIL, kind };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.links[i as usize].next;
            self.links[i as usize] = link;
            i
        } else {
            let i = u32::try_from(self.links.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("a chunk holds fewer than 2^32 - 1 adjacency mentions");
            self.links.push(link);
            i
        };
        self.live_links += 1;
        let list = &mut self.slots[slot_of(step)].lists[side as usize];
        if list.tail == NIL {
            list.head = i;
        } else {
            self.links[list.tail as usize].next = i;
        }
        list.tail = i;
    }

    /// Unlink the first `want` mention from `step`'s `side` list and
    /// release it. In FIFO order it is the list's head; the walk keeps
    /// a record pushed out of user order evictable.
    fn remove_link(&mut self, step: u64, side: Side, want: (u64, DepKind)) {
        let list = &mut self.slots[slot_of(step)].lists[side as usize];
        let (mut prev, mut cur) = (NIL, list.head);
        let next = loop {
            let l = self.links.get(cur as usize).expect("every record links both of its steps");
            if (l.other, l.kind) == want {
                break l.next;
            }
            (prev, cur) = (cur, l.next);
        };
        if prev == NIL {
            list.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if list.tail == cur {
            list.tail = prev;
        }
        self.links[cur as usize].next = self.free;
        self.free = cur;
        self.live_links -= 1;
    }

    /// `step`'s `side` list, head first.
    fn list(&self, step: u64, side: Side) -> Links<'_> {
        Links { links: &self.links, cur: self.slots[slot_of(step)].lists[side as usize].head }
    }

    /// Live steps as sorted `(addr, slot)` pairs, built on first use
    /// since the last write.
    fn by_addr(&self) -> &[(Addr, u16)] {
        self.by_addr.get_or_init(|| {
            let mut v: Vec<(Addr, u16)> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.count > 0)
                .map(|(i, s)| (s.addr, i as u16))
                .collect();
            v.sort_unstable();
            v.into_boxed_slice()
        })
    }
}

/// Iterator over one adjacency list, as `(other step, kind)` pairs.
struct Links<'a> {
    links: &'a [Link],
    cur: u32,
}

impl Iterator for Links<'_> {
    type Item = (u64, DepKind);

    fn next(&mut self) -> Option<(u64, DepKind)> {
        // `NIL` is never a valid index, so the end of a list (and the
        // empty iterator over no links) falls out of `get`.
        let l = self.links.get(self.cur as usize)?;
        self.cur = l.next;
        Some((l.other, l.kind))
    }
}

/// The index proper — shared verbatim between the live [`SliceIndex`]
/// and frozen [`SliceSnapshot`]s. Cloning is O(1): the chunk spine is
/// behind an `Arc` and deep copies happen lazily, on the first write to
/// shared state (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct IndexData {
    /// The spine: `(chunk id, chunk)` sorted by id. Behind an `Arc` so
    /// snapshots share it wholesale; `Arc::make_mut` gives writers
    /// copy-on-write without any explicit dirty bookkeeping. A sorted
    /// vector rather than a search tree: user steps are monotone, so
    /// new chunks append at the end and pruned ones leave from the
    /// front, and releasing a snapshot walks a flat array.
    chunks: Arc<Vec<(u64, Arc<Chunk>)>>,
    /// Live edge (record) count.
    edges: u64,
    /// Live step count (sum over chunks, maintained incrementally).
    step_total: u64,
    /// Deep chunk copies forced by copy-on-write (a snapshot shared the
    /// chunk when it was next written).
    chunk_copies: u64,
    /// Spine (pointer-map) clones forced by copy-on-write.
    spine_copies: u64,
}

impl IndexData {
    /// Position of chunk `id` in the spine, or where it would go.
    fn find(&self, id: u64) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&id, |&(k, _)| k)
    }

    fn chunk_of(&self, step: u64) -> Option<&Chunk> {
        let i = self.find(step >> CHUNK_SHIFT).ok()?;
        Some(&self.chunks[i].1)
    }

    /// Copy-on-write access to the chunk covering `step`, creating it
    /// if absent. Counts spine and chunk copies actually performed, and
    /// drops the chunk's `steps_at` list, which the write may stale.
    fn chunk_mut(&mut self, step: u64) -> &mut Chunk {
        if Arc::strong_count(&self.chunks) > 1 {
            self.spine_copies += 1;
        }
        let id = step >> CHUNK_SHIFT;
        let found = self.find(id);
        let spine = Arc::make_mut(&mut self.chunks);
        let i = found.unwrap_or_else(|i| {
            spine.insert(i, (id, Arc::default()));
            i
        });
        let slot = &mut spine[i].1;
        if Arc::strong_count(slot) > 1 {
            self.chunk_copies += 1;
        }
        let chunk = Arc::make_mut(slot);
        chunk.by_addr.take();
        chunk
    }

    /// Append one side of every record of `recs`, in order: its `side`
    /// link and one mention of the step that link lives on. Takes
    /// [`chunk_mut`](Self::chunk_mut) once per run of consecutive
    /// records whose step lies in the same chunk (see the module docs).
    /// Always inlined, so `side` is a constant in each of
    /// `push_batch`'s two passes.
    #[inline(always)]
    fn append_side(&mut self, recs: &[BufRecord], side: Side) {
        let ends = |r: &BufRecord| match side {
            Side::Defs => (r.dep.user, r.dep.def, r.user_addr, r.user_stmt),
            Side::Users => (r.dep.def, r.dep.user, r.def_addr, r.def_stmt),
        };
        let (mut rest, mut new_steps) = (recs, 0);
        while let Some(first) = rest.first() {
            let id = ends(first).0 >> CHUNK_SHIFT;
            let run = rest.iter().position(|r| ends(r).0 >> CHUNK_SHIFT != id);
            let (now, later) = rest.split_at(run.unwrap_or(rest.len()));
            let chunk = self.chunk_mut(ends(first).0);
            for r in now {
                let (step, other, addr, stmt) = ends(r);
                chunk.push_link(step, side, other, r.dep.kind);
                new_steps += u64::from(chunk.touch(step, addr, stmt));
            }
            rest = later;
        }
        self.step_total += new_steps;
    }

    /// Evict one side of a record: unlink its mention from `step`'s
    /// `side` list and drop one mention of the step, whose site it
    /// returns (read before the drop). A chunk left empty is dropped so
    /// the spine stays O(window / CHUNK_STEPS) as the window slides.
    fn evict_mention(&mut self, step: u64, side: Side, want: (u64, DepKind)) -> StepSite {
        let chunk = self.chunk_mut(step);
        let Slot { addr, stmt, .. } = chunk.slots[slot_of(step)];
        chunk.remove_link(step, side, want);
        let (last, empty) = (chunk.untouch(step), chunk.is_empty());
        self.step_total -= u64::from(last);
        if let (true, Ok(i)) = (empty, self.find(step >> CHUNK_SHIFT)) {
            // `chunk_mut` left the spine unshared.
            Arc::make_mut(&mut self.chunks).remove(i);
        }
        StepSite { step, addr, stmt }
    }

    /// The head of the `defs` list of the first step at or after `from`
    /// that has one: a slot scan that skips absent chunks.
    fn next_front(&self, from: u64) -> Option<Dependence> {
        let id = from >> CHUNK_SHIFT;
        let start = self.find(id).unwrap_or_else(|i| i);
        self.chunks[start..].iter().find_map(|&(cid, ref c)| {
            let first = if cid == id { slot_of(from) } else { 0 };
            let i =
                c.slots[first..].iter().position(|s| s.lists[Side::Defs as usize].head != NIL)?;
            let user = (cid << CHUNK_SHIFT) | (first + i) as u64;
            let (def, kind) = c.list(user, Side::Defs).next()?;
            Some(Dependence::new(user, def, kind))
        })
    }

    /// The live record `user → def` of `kind`, rebuilt from its two
    /// steps' slots.
    fn record(&self, user: u64, def: u64, kind: DepKind) -> BufRecord {
        let site = |step| {
            let (addr, stmt) = self.meta_of(step).expect("a linked step is live");
            StepSite { step, addr, stmt }
        };
        BufRecord::new(kind, site(user), site(def))
    }

    /// The live records, oldest first: by user step, and in push order
    /// within a step (FIFO facts 1 and 2).
    pub fn records(&self) -> impl Iterator<Item = BufRecord> + '_ {
        self.chunks.iter().flat_map(move |&(id, ref c)| {
            (0..CHUNK_STEPS).flat_map(move |i| {
                let user = (id << CHUNK_SHIFT) | i;
                c.list(user, Side::Defs).map(move |(def, kind)| self.record(user, def, kind))
            })
        })
    }

    /// One of `step`'s adjacency lists (empty when the chunk is absent).
    fn list(&self, step: u64, side: Side) -> Links<'_> {
        match self.chunk_of(step) {
            Some(c) => c.list(step, side),
            None => Links { links: &[], cur: NIL },
        }
    }

    /// Dependences whose user is `step`: `(def, kind)` pairs, in push
    /// order.
    pub fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> + '_ {
        self.list(step, Side::Defs)
    }

    /// Dependences whose def is `step`: `(user, kind)` pairs, in push
    /// order.
    pub fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> + '_ {
        self.list(step, Side::Users)
    }

    /// Metadata for a live step.
    pub fn meta_of(&self, step: u64) -> Option<(Addr, StmtId)> {
        let s = self.chunk_of(step)?.slots[slot_of(step)];
        (s.count > 0).then_some((s.addr, s.stmt))
    }

    /// Live steps whose instruction executed at `addr`, ascending
    /// (chunks iterate in id order, each chunk's list is sorted by
    /// `(addr, step)`, and chunk step ranges are disjoint).
    pub fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(move |&(id, ref c)| {
            let list = c.by_addr();
            let from = list.partition_point(|&(a, _)| a < addr);
            list[from..]
                .iter()
                .take_while(move |&&(a, _)| a == addr)
                .map(move |&(_, i)| (id << CHUNK_SHIFT) | u64::from(i))
        })
    }

    /// Number of live edges (= records in the window).
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Number of live steps.
    pub fn step_count(&self) -> usize {
        self.step_total as usize
    }

    /// All live steps, in no particular order.
    pub fn steps(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|&(id, ref c)| {
            c.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.count > 0)
                .map(move |(i, _)| (id << CHUNK_SHIFT) | i as u64)
        })
    }

    /// Number of live chunks in the spine.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Deep chunk copies copy-on-write has performed so far. Flat per
    /// snapshot interval (one per dirty chunk), which is what the
    /// zero-copy `refresh` test and the T6 bench assert on.
    pub fn chunk_copies(&self) -> u64 {
        self.chunk_copies
    }

    /// Spine clones copy-on-write has performed so far (one per
    /// snapshot interval that mutated anything).
    pub fn spine_copies(&self) -> u64 {
        self.spine_copies
    }

    /// Estimated resident bytes of the index: entries only (the slots
    /// of dead steps, released links and allocator slack are not
    /// modeled). Feeds the `ddg/index/resident_bytes` observability
    /// gauge.
    pub fn approx_bytes(&self) -> u64 {
        // Each edge is one link on its user's `defs` list and one on
        // its def's `users` list.
        let edge_bytes = 2 * self.edges * size_of::<Link>() as u64;
        // One slot per live step.
        let step_bytes = self.step_total * size_of::<Slot>() as u64;
        // Spine entry + chunk header + Arc header per chunk.
        let chunk_bytes = self.chunks.len() as u64 * 96;
        edge_bytes + step_bytes + chunk_bytes
    }
}

/// The live, incrementally-maintained index: the only store of the
/// ONTRAC window. Owned by [`crate::CircularTraceBuffer`], which pushes
/// every record into it and evicts the oldest while its byte budget is
/// exceeded.
#[derive(Clone, Debug, Default)]
pub struct SliceIndex {
    data: IndexData,
    generation: u64,
    /// The eviction cursor: the oldest record, the head of the `defs`
    /// list of the oldest user step that has one (see the module docs).
    front: Option<Dependence>,
}

impl SliceIndex {
    /// Index one record as it enters the window: a one-record
    /// [`push_batch`](Self::push_batch).
    pub fn on_push(&mut self, rec: &BufRecord) {
        self.push_batch(std::slice::from_ref(rec));
    }

    /// Index `recs` as they enter the window, in order, leaving the
    /// index exactly as pushing them one by one would: every list gets
    /// its links in push order, the cursor is lowered to the first
    /// record of the lowest user step when that step is below it, and
    /// `generation`, the counts and the copy-on-write counters move as
    /// they would. User steps may come in any order. Copy-on-write is
    /// checked once per run of records whose user (then def) shares a
    /// chunk, not twice per record.
    // Inlined so that `on_push`'s one-record batch compiles to a
    // straight-line push: the window store keeps its per-record speed.
    #[inline]
    pub fn push_batch(&mut self, recs: &[BufRecord]) {
        for r in recs {
            if self.front.is_none_or(|f| r.dep.user < f.user) {
                self.front = Some(r.dep);
            }
        }
        let d = &mut self.data;
        d.append_side(recs, Side::Defs);
        d.append_side(recs, Side::Users);
        d.edges += recs.len() as u64;
        self.generation += recs.len() as u64;
    }

    /// The oldest record's dependence: the one
    /// [`evict_oldest`](Self::evict_oldest) removes next.
    pub(crate) fn front(&self) -> Option<Dependence> {
        self.front
    }

    /// Remove the oldest record from the window and return it: the head
    /// of the `defs` list of the oldest user step that has one.
    pub fn evict_oldest(&mut self) -> Option<BufRecord> {
        let Dependence { user, def, kind } = self.front?;
        let d = &mut self.data;
        let user_site = d.evict_mention(user, Side::Defs, (def, kind));
        let def_site = d.evict_mention(def, Side::Users, (user, kind));
        d.edges -= 1;
        self.front = d.next_front(user);
        self.generation += 1;
        Some(BufRecord::new(kind, user_site, def_site))
    }

    /// Mutation stamp: bumped on every push and eviction, so two equal
    /// generations imply an identical window.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Freeze the current window into an immutable, `Send + Sync`
    /// snapshot. O(1): one `Arc` bump of the chunk spine — the deep
    /// work is deferred to copy-on-write and charged per *dirty* chunk
    /// (see the module docs). Holders can compare
    /// [`SliceSnapshot::generation`] against [`SliceIndex::generation`]
    /// to skip even that when the window has not moved.
    pub fn snapshot(&self) -> SliceSnapshot {
        SliceSnapshot { data: Arc::new(self.data.clone()), generation: self.generation }
    }

    /// A snapshot that copies every chunk, O(window). Kept as the
    /// reference the T6 history bench quantifies the copy-on-write
    /// snapshot against; not for production use.
    pub fn snapshot_deep(&self) -> SliceSnapshot {
        let chunks: Vec<(u64, Arc<Chunk>)> =
            self.data.chunks.iter().map(|(id, c)| (*id, Arc::new((**c).clone()))).collect();
        SliceSnapshot {
            data: Arc::new(IndexData { chunks: Arc::new(chunks), ..self.data.clone() }),
            generation: self.generation,
        }
    }
}

impl std::ops::Deref for SliceIndex {
    type Target = IndexData;

    fn deref(&self) -> &IndexData {
        &self.data
    }
}

/// An immutable snapshot of the index at one generation. Cheap to
/// clone (one `Arc` bump) and safe to query from many reader threads
/// while the tracer keeps pushing to the live index.
#[derive(Clone, Debug)]
pub struct SliceSnapshot {
    data: Arc<IndexData>,
    generation: u64,
}

impl SliceSnapshot {
    /// The generation of the live index this snapshot froze.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl std::ops::Deref for SliceSnapshot {
    type Target = IndexData;

    fn deref(&self) -> &IndexData {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::record;
    use crate::graph::DdgGraph;
    use crate::CircularTraceBuffer;
    use dift_isa::{Program, ProgramBuilder};

    /// `DdgGraph::from_records` ignores the program; any program works.
    fn dummy_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.func("main");
        b.halt();
        b.build().unwrap()
    }

    fn rec(user: u64, def: u64, kind: DepKind) -> BufRecord {
        record(user, def, kind, user as u32 % 7, def as u32 % 7, user as u32, def as u32)
    }

    /// A buffer of `cap` bytes fed `records` in order.
    fn fed(cap: usize, records: &[BufRecord]) -> CircularTraceBuffer {
        let mut buf = CircularTraceBuffer::new(cap);
        for &r in records {
            buf.push(r);
        }
        buf
    }

    fn chain(steps: std::ops::RangeInclusive<u64>) -> Vec<BufRecord> {
        steps.map(|i| rec(i, i - 1, DepKind::RegData)).collect()
    }

    /// The index must describe exactly the buffer's live window, which
    /// eviction being FIFO makes the suffix of `pushed` past the evicted
    /// records. One wrinkle: `from_records` dedups identical records
    /// while the index keeps one mention per buffered record (FIFO
    /// eviction needs it) — slices are step *sets*, so the deduped
    /// adjacency is what must agree.
    fn assert_matches_rebuild(buf: &CircularTraceBuffer, pushed: &[BufRecord]) {
        fn sorted_dedup(mut v: Vec<(u64, DepKind)>) -> Vec<(u64, DepKind)> {
            v.sort_unstable_by_key(|e| (e.0, e.1 as u8));
            v.dedup();
            v
        }
        let window = &pushed[buf.evicted as usize..];
        assert!(buf.records().eq(window.iter().copied()), "records() is the pushed suffix");
        let idx = buf.index();
        let g = DdgGraph::from_records(window.iter().copied(), &dummy_program());
        for step in g.steps() {
            let want = sorted_dedup(g.defs_of(step).iter().map(|d| (d.def, d.kind)).collect());
            let got = sorted_dedup(idx.defs(step).collect());
            assert_eq!(got, want, "defs_of({step})");
            let want = sorted_dedup(g.users_of(step).map(|d| (d.user, d.kind)).collect());
            let got = sorted_dedup(idx.users(step).collect());
            assert_eq!(got, want, "users_of({step})");
            let m = g.meta(step).unwrap();
            assert_eq!(idx.meta_of(step), Some((m.addr, m.stmt)), "meta({step})");
        }
        // No phantom steps survive eviction.
        assert_eq!(idx.step_count(), g.steps().count());
        assert_eq!(idx.steps().count(), idx.step_count());
        for addr in 0..7u32 {
            let got: Vec<u64> = idx.steps_at(addr).collect();
            assert_eq!(got, g.steps_at_addr(addr), "steps_at({addr})");
        }
    }

    #[test]
    fn push_and_query_without_eviction() {
        let pushed =
            [rec(3, 1, DepKind::RegData), rec(3, 2, DepKind::MemData), rec(5, 3, DepKind::Control)];
        let buf = fed(1 << 20, &pushed);
        let idx = buf.index();
        assert_eq!(idx.edges(), 3);
        assert_eq!(idx.defs(3).count(), 2);
        assert_eq!(idx.users(3).collect::<Vec<_>>(), vec![(5, DepKind::Control)]);
        assert_matches_rebuild(&buf, &pushed);
    }

    #[test]
    fn eviction_prunes_edges_steps_and_addr_map() {
        let pushed = chain(1..=100);
        let mut buf = CircularTraceBuffer::new(30); // ~10 dense records
        for (i, &r) in pushed.iter().enumerate() {
            buf.push(r);
            assert_eq!(buf.len(), (i + 1).min(10));
        }
        assert!(buf.evicted > 0);
        assert_matches_rebuild(&buf, &pushed);
    }

    #[test]
    fn duplicate_edges_refcount_correctly() {
        // Same (user, def, kind) record repeatedly: the bucket holds one
        // mention per record and eviction removes them one at a time.
        let pushed = [rec(9, 4, DepKind::MemData); 6];
        let buf = fed(12, &pushed);
        assert!(buf.evicted > 0);
        assert_matches_rebuild(&buf, &pushed);
    }

    #[test]
    fn full_drain_empties_the_index() {
        let pushed = [
            rec(1_000_000, 999_999, DepKind::RegData),
            rec(1_000_001, 1_000_000, DepKind::RegData),
        ];
        let buf = fed(5, &pushed);
        assert_eq!(buf.len(), 1);
        assert_matches_rebuild(&buf, &pushed);
        assert_eq!(buf.index().edges(), 1);
        assert_eq!(buf.index().step_count(), 2);
    }

    /// `evict_oldest` hands back the records in push order, rebuilt
    /// exactly, across duplicates, several records per user step, defs
    /// chunks back and user steps that skip absent chunks; the drained
    /// index holds nothing.
    #[test]
    fn evict_oldest_returns_the_fifo_and_empties_the_index() {
        let far = 5 * CHUNK_STEPS;
        let pushed = [
            rec(3, 1, DepKind::RegData),
            rec(3, 2, DepKind::MemData),
            rec(3, 2, DepKind::MemData),
            rec(5, 3, DepKind::Control),
            rec(far, 5, DepKind::MemData),
            rec(far, far - 1, DepKind::RegData),
            rec(far + 1, 3, DepKind::War),
        ];
        let mut idx = SliceIndex::default();
        for r in &pushed {
            idx.on_push(r);
        }
        for (i, want) in pushed.iter().enumerate() {
            assert_eq!(idx.evict_oldest().as_ref(), Some(want), "eviction {i}");
            assert_eq!(idx.edges(), (pushed.len() - i - 1) as u64);
        }
        assert_eq!(idx.evict_oldest(), None);
        assert_eq!(idx.step_count(), 0);
        assert_eq!(idx.chunk_count(), 0, "empty chunks are pruned");
    }

    /// The epoch composer pushes cross-epoch records below the user
    /// steps already indexed. Eviction then takes the lowest user step
    /// first and finds its mention behind the head of its def's `users`
    /// list, leaving the rest of the index intact.
    #[test]
    fn out_of_order_push_evicts_by_user_step() {
        let mut idx = SliceIndex::default();
        for r in
            [rec(9, 2, DepKind::RegData), rec(5, 2, DepKind::MemData), rec(9, 3, DepKind::RegData)]
        {
            idx.on_push(&r);
        }
        assert_eq!(idx.evict_oldest(), Some(rec(5, 2, DepKind::MemData)));
        assert_eq!(idx.users(2).collect::<Vec<_>>(), vec![(9, DepKind::RegData)]);
        assert!(idx.meta_of(5).is_none(), "step 5 is gone");
        assert_eq!(idx.step_count(), 3);
        assert_eq!(idx.evict_oldest(), Some(rec(9, 2, DepKind::RegData)));
        assert_eq!(idx.evict_oldest(), Some(rec(9, 3, DepKind::RegData)));
        assert_eq!(idx.evict_oldest(), None);
        assert_eq!((idx.edges(), idx.step_count(), idx.chunk_count()), (0, 0, 0));
    }

    #[test]
    fn snapshot_is_frozen_while_the_live_index_moves() {
        let mut buf = fed(1 << 20, &chain(1..=10));
        let snap = buf.index().snapshot();
        let gen_at_snap = buf.index().generation();
        assert_eq!(snap.generation(), gen_at_snap);
        for r in chain(11..=20) {
            buf.push(r);
        }
        assert_eq!(snap.edges(), 10, "snapshot must not see later pushes");
        assert_eq!(buf.index().edges(), 20);
        assert_ne!(buf.index().generation(), gen_at_snap);
        // Snapshots are Send + Sync: queryable off-thread.
        let s2 = snap.clone();
        std::thread::spawn(move || {
            assert_eq!(s2.defs(5).count(), 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn approx_bytes_tracks_the_window() {
        let small = fed(30, &chain(1..=100)).index().approx_bytes();
        assert!(small > 0);
        let big = fed(1 << 20, &chain(1..=100)).index().approx_bytes();
        assert!(big > small, "a wider window costs more index bytes");
    }

    #[test]
    fn snapshots_share_clean_chunks_and_copy_only_dirty_ones() {
        // Fill several chunks' worth of steps.
        let top = 6 * CHUNK_STEPS;
        let mut buf = fed(1 << 24, &chain(1..=top));
        let idx = buf.index();
        let chunks = idx.chunk_count();
        assert!(chunks >= 6, "expected several chunks, got {chunks}");
        let copies_before = idx.chunk_copies();
        let spine_before = idx.spine_copies();

        // Snapshot, then keep pushing within the SAME chunk range: the
        // spine is cloned once and exactly the dirty chunks (the head
        // chunk holding both user and def) are deep-copied.
        let snap = idx.snapshot();
        for r in chain(top + 1..=top + 8) {
            buf.push(r);
        }
        let idx = buf.index();
        assert_eq!(idx.spine_copies(), spine_before + 1, "one spine clone per interval");
        let dirtied = idx.chunk_copies() - copies_before;
        assert!(dirtied <= 2, "only dirty chunks may be copied, got {dirtied} of {chunks}");
        // The frozen snapshot still answers from the pre-push window.
        assert_eq!(snap.edges(), top);
        assert!(snap.defs(top + 1).next().is_none());

        // With no snapshot alive, further pushes never copy anything.
        drop(snap);
        let copies = idx.chunk_copies();
        let spine = idx.spine_copies();
        for r in chain(top + 10..=top + 64) {
            buf.push(r);
        }
        assert_eq!(buf.index().chunk_copies(), copies, "unshared chunks must mutate in place");
        assert_eq!(buf.index().spine_copies(), spine);
    }

    #[test]
    fn snapshot_deep_copies_every_chunk_and_stays_frozen() {
        let mut buf = fed(1 << 24, &chain(1..=3 * CHUNK_STEPS));
        let snap = buf.index().snapshot_deep();
        let copies = buf.index().chunk_copies();
        let spine = buf.index().spine_copies();
        // Deep snapshots share nothing, so later pushes trigger no
        // copy-on-write at all.
        for r in chain(3 * CHUNK_STEPS + 1..=3 * CHUNK_STEPS + 8) {
            buf.push(r);
        }
        assert_eq!(buf.index().chunk_copies(), copies);
        assert_eq!(buf.index().spine_copies(), spine);
        assert_eq!(snap.edges(), 3 * CHUNK_STEPS);
    }
}
