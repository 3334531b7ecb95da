//! Compressed cold tier for evicted dependence records.
//!
//! The circular buffer (§2.1's ONTRAC window) holds a *budgeted* suffix
//! of the dependence stream; before this module, anything older was
//! gone and every slice silently stopped at the eviction horizon — the
//! byte budget acted as a correctness limit. The cold tier turns it
//! back into a cache size: on every eviction the tracer appends the
//! evicted record to a [`ColdStore`], which packs it into append-only
//! compressed **segments** using the same LEB128 gap encoding the
//! buffer's byte accounting is based on
//! ([`put_varint`]). `dift-slicing` then
//! *stitches* walks: queries start on the live
//! [`SliceSnapshot`](crate::SliceSnapshot) and fall through to the cold
//! tier whenever a frontier step is older than the window.
//!
//! # Segment format
//!
//! Records arrive oldest-first (eviction is FIFO and user steps are
//! monotone), so within a segment user steps are non-decreasing and
//! gap-encode well. Per record:
//!
//! ```text
//! user_gap  varint   gap since previous record's user step
//!                    (first record: the absolute user step)
//! dist      varint   user − def (a def never follows its user)
//! kind      1 byte   DepKind discriminant
//! user_addr varint   program address of the user instruction
//! def_addr  varint   program address of the def instruction
//! user_stmt varint   statement id of the user
//! def_stmt  varint   statement id of the def
//! ```
//!
//! A segment seals at [`SEGMENT_RECORDS`] records (or on a
//! non-monotone user step, which a healthy tracer never produces, so
//! the per-segment monotonicity invariant holds unconditionally). Each
//! sealed segment carries [`SegMeta`] (`[first_user, last_user]`,
//! `min_def`, `count`), the only metadata the format persists.
//! Segments are append-only and never rewritten once sealed.
//!
//! # Finding the segments that hold an answer
//!
//! [`ColdView`]'s four lookups visit only the segments that can hold
//! their answer, oldest-first, then the open tail:
//!
//! * **User side** (`defs`): a segment holds `step` as a user only if
//!   its `[first_user, last_user]` covers it. Each sealed segment keeps
//!   the running maximum of `last_user` over itself and every earlier
//!   one, so the first candidate is found by binary search; while the
//!   segments' `first_user`s never decrease, the last one is too. A
//!   desync seal (above) can start a segment below its predecessor; an
//!   in-memory store that saw one scans to the end instead, and
//!   [`ColdStore::reopen`] sorts the segments, so it never needs to.
//! * **Def side** (`users`, and `meta_of`, which asks for either side):
//!   a def never follows its user, so outside the user range a segment
//!   can hold `step` only as a def older than its `first_user`. Each
//!   segment keeps those **far defs** as a sorted list, and a later
//!   segment is visited only when its list names the step. `min_def`
//!   stays in [`SegMeta`] for the header and rung-2 validation, but one
//!   startup def pulls it to the start of the run, so it filters
//!   nothing.
//! * **Address side** (`steps_at`): each segment keeps the sorted
//!   distinct addresses its steps executed at, and only the segments
//!   that name the address are decoded.
//!
//! The far-def and address lists live in memory only, so the on-disk
//! format is unchanged: they are built as records are appended, and
//! [`ColdStore::reopen`] rebuilds them from the decode its scrub does
//! anyway. A decoded segment is four sorted vectors — by user in record
//! order, by def (stable, so record order within a def), per-step
//! metadata (first mention wins) and `(addr, step)` — each searched by
//! binary search, so a lookup costs a few comparisons, not a hash and
//! an allocation.
//!
//! # Durability and the integrity ladder
//!
//! A [`ColdStore`] opened with [`ColdStore::durable`] spills every
//! sealed segment to disk through [`crate::durable`]'s segment files
//! (checksummed format, temp-file + atomic rename) and keeps only
//! [`SegMeta`] and the two lists in memory; queries load payloads
//! lazily. A spill that
//! fails permanently (disk full) falls back to keeping that segment in
//! memory — degraded durability, never lost data.
//!
//! Pruning metadata is **validated, not trusted**: whenever a segment
//! is decoded, the decoder re-derives `first_user`/`last_user`/
//! `min_def`/`count` from the records and any disagreement with the
//! stored metadata classifies the segment as corrupt
//! ([`CorruptKind::MetaMismatch`]) — a recoverable error, not a
//! silently wrong pruning decision. A record that cannot be what the
//! encoder wrote (user steps that overflow, an address or statement
//! wider than 32 bits) is [`CorruptKind::BadRecord`]. Corrupt segments
//! are quarantined
//! (the file renamed to `*.quarantine`, the id blacklisted) and their
//! user-step range is recorded; [`ColdStore::missing_step_ranges`]
//! surfaces the loss so `dift-slicing` can return an explicit
//! `Degraded` outcome.
//!
//! # The shared decode memo
//!
//! Decoded segments are cached in a store-wide bounded LRU
//! ([`ColdStore::set_memo_capacity`]) shared by every [`ColdView`] —
//! concurrent stitched readers decode a hot segment once, not once per
//! view. `ddg/cold/memo_hits` / `ddg/cold/memo_evictions` gauge its
//! behavior. The memo is indexed by segment id, so a lookup costs its
//! lock and one reference count, not a hash. The open tail's decode is
//! shared the same way: built by the first lookup that needs it and
//! dropped by the next append.
//!
//! # Why live ∪ cold is the full execution
//!
//! The tracer's record stream is independent of the buffer budget (the
//! budget decides *when* a record is evicted, never whether it exists),
//! and every record is either still in the window or was evicted
//! exactly once, in order. So the cold tier plus the live window is a
//! partition of the full never-evicted trace, which is what makes the
//! stitched walk bit-identical to the offline `Slicer` on the whole
//! execution — the differential proptests in
//! `crates/slicing/tests/service_diff.rs` and
//! `crates/slicing/tests/durable_diff.rs` hold exactly that.

use crate::buffer::{get_varint, put_varint, BufRecord};
use crate::dep::DepKind;
use crate::durable::{CorruptKind, IoStats, LoadError, ScrubReport, SegmentStore};
use crate::iofault::{IoFaultPlan, NoopIoFaults};
use dift_isa::{Addr, StmtId};
use std::collections::HashSet;
use std::io;
use std::iter::Peekable;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Records per sealed segment. Small enough that decoding one segment
/// is cheap, large enough that per-segment metadata is negligible.
pub const SEGMENT_RECORDS: u32 = 1024;

/// Default capacity of the shared decode memo (segments).
pub const DEFAULT_MEMO_CAPACITY: usize = 64;

/// The fewest payload bytes one record takes: one byte for the kind and
/// for each of its six varints.
const MIN_RECORD_BYTES: usize = 7;

fn kind_to_byte(k: DepKind) -> u8 {
    match k {
        DepKind::RegData => 0,
        DepKind::MemData => 1,
        DepKind::Control => 2,
        DepKind::War => 3,
        DepKind::Waw => 4,
    }
}

fn kind_from_byte(b: u8) -> Option<DepKind> {
    Some(match b {
        0 => DepKind::RegData,
        1 => DepKind::MemData,
        2 => DepKind::Control,
        3 => DepKind::War,
        4 => DepKind::Waw,
        _ => return None,
    })
}

/// Query/pruning metadata of a sealed segment — exactly what the
/// durable header persists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegMeta {
    /// User step of the first record (gap decoding starts here).
    pub first_user: u64,
    /// User step of the last record (user steps are non-decreasing).
    pub last_user: u64,
    /// Smallest def step mentioned. Def steps can be arbitrarily far
    /// behind their user; queries filter on the exact far-def list
    /// instead (see the module docs), and decoding validates this.
    pub min_def: u64,
    /// Record count.
    pub count: u32,
}

impl SegMeta {
    /// Could `step` appear in this segment as a user?
    pub fn may_have_user(&self, step: u64) -> bool {
        self.count > 0 && self.first_user <= step && step <= self.last_user
    }
}

/// A segment's in-memory pruning lists, exact where [`SegMeta`]'s
/// bounds are not. Never persisted: kept up to date as records are
/// appended, and rebuilt by the reopen scrub from its decode.
#[derive(Clone, Debug, Default)]
pub(crate) struct SegFilter {
    /// Distinct def steps older than the segment's `first_user`,
    /// ascending: the only steps it mentions outside its user range.
    far_defs: Vec<u64>,
    /// Distinct addresses of the steps it mentions, ascending.
    addrs: Vec<Addr>,
}

fn insert_sorted<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

impl SegFilter {
    /// Account for one appended record of a segment starting at
    /// `first_user`.
    fn note(&mut self, first_user: u64, rec: &BufRecord) {
        if rec.dep.def < first_user {
            insert_sorted(&mut self.far_defs, rec.dep.def);
        }
        insert_sorted(&mut self.addrs, rec.user_addr);
        insert_sorted(&mut self.addrs, rec.def_addr);
    }

    fn shrink_to_fit(&mut self) {
        self.far_defs.shrink_to_fit();
        self.addrs.shrink_to_fit();
    }
}

/// What one lookup asks of a segment.
#[derive(Clone, Copy, Debug)]
enum Probe {
    /// `step` as a user: [`ColdView::defs`].
    User(u64),
    /// `step` as a user or a def: [`ColdView::users`] and
    /// [`ColdView::meta_of`].
    Mention(u64),
    /// Any step executed at this address: [`ColdView::steps_at`].
    At(Addr),
}

impl Probe {
    /// Can a segment with this metadata and these lists hold the
    /// answer? Exact on the def and address sides; on the user side, a
    /// range test.
    fn admits(self, meta: &SegMeta, filter: &SegFilter) -> bool {
        match self {
            Probe::User(step) => meta.may_have_user(step),
            Probe::Mention(step) => {
                meta.may_have_user(step)
                    || (step < meta.first_user && filter.far_defs.binary_search(&step).is_ok())
            }
            Probe::At(addr) => filter.addrs.binary_search(&addr).is_ok(),
        }
    }
}

/// The open (still-appending) segment: encoded bytes plus incrementally
/// maintained metadata and lists.
#[derive(Clone, Debug)]
struct ColdSegment {
    bytes: Vec<u8>,
    first_user: u64,
    last_user: u64,
    min_def: u64,
    count: u32,
    filter: SegFilter,
    /// The decoded form, built by the first lookup that needs it and
    /// dropped by the next push, so every view shares one decode.
    decoded: OnceLock<Arc<DecodedSeg>>,
}

impl ColdSegment {
    fn new() -> ColdSegment {
        ColdSegment {
            bytes: Vec::new(),
            first_user: 0,
            last_user: 0,
            min_def: u64::MAX,
            count: 0,
            filter: SegFilter::default(),
            decoded: OnceLock::new(),
        }
    }

    fn meta(&self) -> SegMeta {
        SegMeta {
            first_user: self.first_user,
            last_user: self.last_user,
            min_def: self.min_def,
            count: self.count,
        }
    }

    fn push(&mut self, rec: &BufRecord) {
        let (user, def) = (rec.dep.user, rec.dep.def);
        if self.count == 0 {
            self.first_user = user;
            put_varint(&mut self.bytes, user);
        } else {
            put_varint(&mut self.bytes, user - self.last_user);
        }
        put_varint(&mut self.bytes, user - def);
        self.bytes.push(kind_to_byte(rec.dep.kind));
        put_varint(&mut self.bytes, u64::from(rec.user_addr));
        put_varint(&mut self.bytes, u64::from(rec.def_addr));
        put_varint(&mut self.bytes, u64::from(rec.user_stmt));
        put_varint(&mut self.bytes, u64::from(rec.def_stmt));
        self.last_user = user;
        self.min_def = self.min_def.min(def);
        self.count += 1;
        self.filter.note(self.first_user, rec);
        self.decoded.take();
    }

    /// The decoded form: built once, then shared until the next push.
    fn decode(&self) -> Arc<DecodedSeg> {
        let decoded = self.decoded.get_or_init(|| {
            // Encoded by this process and never out of memory:
            // validation is an invariant check here, and a failure
            // would leave the segment answering nothing.
            Arc::new(decode_validated(&self.bytes, &self.meta()).unwrap_or_default())
        });
        Arc::clone(decoded)
    }
}

/// One fully-decoded record, the unit the payload iterator yields.
#[derive(Clone, Copy, Debug)]
struct RawRec {
    user: u64,
    def: u64,
    kind: DepKind,
    user_addr: Addr,
    def_addr: Addr,
    user_stmt: StmtId,
    def_stmt: StmtId,
}

/// Sequential decoder over a segment payload. Every structural error is
/// classified, never asserted on: the payload may have come from disk.
struct RecordIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    i: u32,
    count: u32,
    prev_user: u64,
}

impl<'a> RecordIter<'a> {
    fn new(bytes: &'a [u8], count: u32) -> RecordIter<'a> {
        RecordIter { bytes, pos: 0, i: 0, count, prev_user: 0 }
    }
}

impl Iterator for RecordIter<'_> {
    type Item = Result<RawRec, CorruptKind>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.count {
            return None;
        }
        let first = self.i == 0;
        self.i += 1;
        let varint = |pos: &mut usize| get_varint(self.bytes, pos).ok_or(CorruptKind::Truncated);
        // The encoder writes addresses and statement ids from 32 bits.
        let narrow = |v: u64| u32::try_from(v).map_err(|_| CorruptKind::BadRecord);
        let rec = (|| {
            let gap = varint(&mut self.pos)?;
            let user = if first {
                gap
            } else {
                self.prev_user.checked_add(gap).ok_or(CorruptKind::BadRecord)?
            };
            let dist = varint(&mut self.pos)?;
            let def = user.checked_sub(dist).ok_or(CorruptKind::BadRecord)?;
            let kind = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or(CorruptKind::Truncated)
                .and_then(|b| kind_from_byte(b).ok_or(CorruptKind::BadRecord))?;
            self.pos += 1;
            let user_addr = narrow(varint(&mut self.pos)?)?;
            let def_addr = narrow(varint(&mut self.pos)?)?;
            let user_stmt = narrow(varint(&mut self.pos)?)?;
            let def_stmt = narrow(varint(&mut self.pos)?)?;
            Ok(RawRec { user, def, kind, user_addr, def_addr, user_stmt, def_stmt })
        })();
        if let Ok(r) = &rec {
            self.prev_user = r.user;
        } else {
            self.i = self.count; // poison: stop after the first error
        }
        Some(rec)
    }
}

/// One segment decoded into four sorted vectors, each searched by
/// binary search (see the module docs).
#[derive(Debug, Default)]
struct DecodedSeg {
    /// `(user, def, kind)` in record order, which is user order: users
    /// never decrease within a segment.
    by_user: Vec<(u64, u64, DepKind)>,
    /// `(def, user, kind)`, stable-sorted by def.
    by_def: Vec<(u64, u64, DepKind)>,
    /// `(step, addr, stmt)` by step; a step's first mention wins.
    meta: Vec<(u64, Addr, StmtId)>,
    /// `(addr, step)`, sorted and deduplicated.
    addr_steps: Vec<(Addr, u64)>,
}

/// The index range of `v`'s entries whose key is `k`; `v` is sorted by
/// `key`.
fn run<T, K: Ord + Copy>(v: &[T], k: K, key: impl Fn(&T) -> K) -> Range<usize> {
    let lo = v.partition_point(|e| key(e) < k);
    let len = v[lo..].iter().take_while(|e| key(e) == k).count();
    lo..lo + len
}

impl DecodedSeg {
    /// `(def, kind)` of the records whose user is `step`, in record
    /// order. Owns the segment, so it outlives the memo's entry.
    fn defs(self: Arc<Self>, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        run(&self.by_user, step, |e| e.0).map(move |i| (self.by_user[i].1, self.by_user[i].2))
    }

    /// `(user, kind)` of the records whose def is `step`, in record
    /// order.
    fn users(self: Arc<Self>, step: u64) -> impl Iterator<Item = (u64, DepKind)> {
        run(&self.by_def, step, |e| e.0).map(move |i| (self.by_def[i].1, self.by_def[i].2))
    }

    fn meta_of(&self, step: u64) -> Option<(Addr, StmtId)> {
        let i = self.meta.partition_point(|e| e.0 < step);
        self.meta.get(i).filter(|e| e.0 == step).map(|e| (e.1, e.2))
    }

    /// Steps executed at `addr`, ascending.
    fn steps_at(&self, addr: Addr) -> impl Iterator<Item = u64> + '_ {
        self.addr_steps[run(&self.addr_steps, addr, |e| e.0)].iter().map(|e| e.1)
    }

    /// The pruning lists of a segment starting at `first_user`, read
    /// off the sorted vectors.
    fn filter(&self, first_user: u64) -> SegFilter {
        let mut far_defs: Vec<u64> =
            self.by_def.iter().map(|e| e.0).take_while(|&d| d < first_user).collect();
        far_defs.dedup();
        let mut addrs: Vec<Addr> = self.addr_steps.iter().map(|e| e.0).collect();
        addrs.dedup();
        SegFilter { far_defs, addrs }
    }
}

/// Decode a payload **and validate the pruning metadata against it**
/// (recovery-ladder rung 2): the stored `first_user`/`last_user`/
/// `min_def`/`count` must be re-derivable from the records, otherwise
/// the segment is classified corrupt rather than queried with lying
/// bounds.
fn decode_validated(payload: &[u8], meta: &SegMeta) -> Result<DecodedSeg, CorruptKind> {
    if meta.count == 0 {
        // Sealed segments always hold records; a zero count is a lie.
        return Err(CorruptKind::MetaMismatch);
    }
    // `count` may come from disk: reserve no more than the payload can
    // hold.
    let cap = (meta.count as usize).min(payload.len() / MIN_RECORD_BYTES);
    let mut by_user = Vec::with_capacity(cap);
    let mut steps = Vec::with_capacity(2 * cap);
    let mut addr_steps = Vec::with_capacity(2 * cap);
    let (mut first, mut last, mut min_def) = (0u64, 0u64, u64::MAX);
    let mut iter = RecordIter::new(payload, meta.count);
    for (seen, rec) in (&mut iter).enumerate() {
        let r = rec?;
        if seen == 0 {
            first = r.user;
        }
        last = r.user;
        min_def = min_def.min(r.def);
        by_user.push((r.user, r.def, r.kind));
        steps.push((r.user, r.user_addr, r.user_stmt));
        steps.push((r.def, r.def_addr, r.def_stmt));
        addr_steps.push((r.user_addr, r.user));
        addr_steps.push((r.def_addr, r.def));
    }
    if iter.pos != payload.len() {
        // Trailing bytes: the count under-reports the payload.
        return Err(CorruptKind::MetaMismatch);
    }
    if first != meta.first_user || last != meta.last_user || min_def != meta.min_def {
        return Err(CorruptKind::MetaMismatch);
    }
    let mut by_def: Vec<(u64, u64, DepKind)> = by_user.iter().map(|&(u, d, k)| (d, u, k)).collect();
    by_def.sort_by_key(|e| e.0);
    // Stable, so each step's run starts with its first mention.
    steps.sort_by_key(|e| e.0);
    steps.dedup_by_key(|e| e.0);
    addr_steps.sort_unstable();
    addr_steps.dedup();
    Ok(DecodedSeg { by_user, by_def, meta: steps, addr_steps })
}

/// Rung-2 validation for the open-time scrub in [`crate::durable`],
/// which keeps the segment's pruning lists rather than its decoded
/// form.
pub(crate) fn validate_payload(meta: &SegMeta, payload: &[u8]) -> Result<SegFilter, CorruptKind> {
    decode_validated(payload, meta).map(|d| d.filter(meta.first_user))
}

/// Where a sealed segment's payload lives.
#[derive(Clone, Debug)]
enum SegPayload {
    /// In memory (non-durable store, or a spill that fell back).
    Mem(Vec<u8>),
    /// On disk under this sequence number, `len` payload bytes.
    Disk { seq: u64, len: u32 },
}

/// A sealed segment: metadata and lists in memory, payload wherever it
/// lives.
#[derive(Clone, Debug)]
struct SealedSeg {
    /// Stable key for the decode memo and the quarantine ledger.
    id: u64,
    meta: SegMeta,
    filter: SegFilter,
    /// The largest `last_user` of this and every earlier sealed
    /// segment: non-decreasing along the list, so a step's first
    /// candidate is found by binary search.
    reach: u64,
    payload: SegPayload,
}

/// A corruption event: the step range lost and which ladder rung
/// caught it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantineEvent {
    pub first_user: u64,
    pub last_user: u64,
    pub reason: CorruptKind,
}

#[derive(Debug, Default)]
struct QuarantineLedger {
    /// Blacklisted sealed-segment ids (never decoded again).
    ids: HashSet<u64>,
    /// Every corruption observed, in discovery order.
    events: Vec<QuarantineEvent>,
}

/// Shared mutable runtime state: query paths discover corruption
/// through `&self`, so the ledger and counters live behind interior
/// mutability (shared by clones of the store).
#[derive(Debug, Default)]
struct ColdRuntime {
    /// Segments classified corrupt by any ladder rung.
    corrupt: AtomicU64,
    /// Seals kept in memory because the spill failed permanently.
    mem_fallbacks: AtomicU64,
    quarantine: Mutex<QuarantineLedger>,
}

/// The shared bounded-LRU decode memo: concurrent [`ColdView`]s over
/// one store decode a hot segment exactly once. It lives behind one
/// mutex, and decoding happens under it — that *is* the sharing
/// guarantee. The counters sit under the same lock, which every lookup
/// takes anyway.
#[derive(Debug)]
struct DecodeMemo {
    cap: usize,
    tick: u64,
    /// Indexed by segment id (ids are dense, from 0), so a lookup
    /// hashes nothing.
    slots: Vec<Option<MemoEntry>>,
    /// The filled slots: at most `cap`, so an eviction scans these
    /// rather than every slot.
    resident: Vec<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct MemoEntry {
    seg: Arc<DecodedSeg>,
    stamp: u64,
}

impl DecodeMemo {
    fn new(cap: usize) -> DecodeMemo {
        DecodeMemo {
            cap: cap.max(1),
            tick: 0,
            slots: Vec::new(),
            resident: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get_or_decode(
        &mut self,
        id: u64,
        decode: impl FnOnce() -> Result<DecodedSeg, CorruptKind>,
    ) -> Result<Arc<DecodedSeg>, CorruptKind> {
        let slot = usize::try_from(id).expect("segment ids count segments");
        self.tick += 1;
        let now = self.tick;
        if let Some(Some(e)) = self.slots.get_mut(slot) {
            e.stamp = now;
            self.hits += 1;
            return Ok(Arc::clone(&e.seg));
        }
        let seg = Arc::new(decode()?);
        self.misses += 1;
        if self.resident.len() >= self.cap {
            self.evict_lru();
        }
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(MemoEntry { seg: Arc::clone(&seg), stamp: now });
        self.resident.push(slot);
        Ok(seg)
    }

    fn evict_lru(&mut self) {
        let stamp = |slot: usize| self.slots[slot].as_ref().map_or(0, |e| e.stamp);
        let lru = (0..self.resident.len()).min_by_key(|&i| stamp(self.resident[i]));
        if let Some(i) = lru {
            let slot = self.resident.swap_remove(i);
            self.slots[slot] = None;
            self.evictions += 1;
        }
    }

    fn set_cap(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.resident.len() > self.cap {
            self.evict_lru();
        }
    }
}

/// Append-only store of compressed evicted-record segments. Owned by
/// the tracer next to the buffer (see `OnTracConfig::cold_tier`) and
/// fed from the buffer's `push_with` eviction callback, so it sees
/// every evicted record exactly once, in order.
///
/// Generic over an I/O fault plan ([`NoopIoFaults`] by default: every
/// injection site compiles away). Clones share the decode memo, the
/// quarantine ledger, and (for durable stores) the I/O statistics —
/// clone for concurrent *readers*; only one clone may append.
#[derive(Clone, Debug)]
pub struct ColdStore<F: IoFaultPlan = NoopIoFaults> {
    sealed: Vec<SealedSeg>,
    /// No sealed segment starts below its predecessor. Only a desync
    /// seal breaks this, and [`ColdStore::reopen`] sorts; while it
    /// holds, a user-side lookup stops at the first segment that starts
    /// after its step.
    starts_sorted: bool,
    open: Option<ColdSegment>,
    records: u64,
    next_id: u64,
    spill: Option<SegmentStore<F>>,
    memo: Arc<Mutex<DecodeMemo>>,
    runtime: Arc<ColdRuntime>,
}

impl<F: IoFaultPlan> Default for ColdStore<F> {
    fn default() -> ColdStore<F> {
        ColdStore {
            sealed: Vec::new(),
            starts_sorted: true,
            open: None,
            records: 0,
            next_id: 0,
            spill: None,
            memo: Arc::new(Mutex::new(DecodeMemo::new(DEFAULT_MEMO_CAPACITY))),
            runtime: Arc::new(ColdRuntime::default()),
        }
    }
}

impl ColdStore {
    /// Memory-only store (PR 7 behavior): sealed segments stay resident.
    pub fn new() -> ColdStore {
        ColdStore::default()
    }

    /// Durable store: sealed segments spill to checksummed files under
    /// `dir` (see [`crate::durable`] for the format and write
    /// discipline).
    pub fn durable(dir: &Path) -> io::Result<ColdStore> {
        Ok(ColdStore { spill: Some(SegmentStore::create(dir)?), ..ColdStore::default() })
    }

    /// [`ColdStore::durable`], degrading to a memory-only store if the
    /// directory cannot be created — the same graceful-degradation
    /// policy as a disk-full spill, counted by
    /// [`ColdStore::mem_fallbacks`].
    pub fn durable_or_memory(dir: &Path) -> ColdStore {
        match ColdStore::durable(dir) {
            Ok(store) => store,
            Err(_) => {
                let store = ColdStore::new();
                store.runtime.mem_fallbacks.fetch_add(1, Ordering::Relaxed);
                store
            }
        }
    }

    /// Recover a durable store after a restart: scrub every segment
    /// file through the recovery ladder, quarantine failures (recorded
    /// in [`ColdStore::missing_step_ranges`]), and rebuild the sealed
    /// manifest, with each segment's in-memory lists, from the
    /// survivors.
    pub fn reopen(dir: &Path) -> io::Result<(ColdStore, ScrubReport)> {
        let (store, mut manifest, report) = SegmentStore::scrub(dir)?;
        // Oldest-first by user step, the order `first_user` and the
        // candidate search read segments in; spill order breaks ties.
        manifest.sort_by_key(|s| (s.meta.first_user, s.seq));
        let mut cold = ColdStore { spill: Some(store), ..ColdStore::default() };
        for s in manifest {
            cold.records += u64::from(s.meta.count);
            cold.push_sealed(s.meta, s.filter, SegPayload::Disk { seq: s.seq, len: s.payload_len });
        }
        {
            let mut ledger = cold.runtime.quarantine.lock().unwrap();
            for q in &report.quarantined {
                cold.runtime.corrupt.fetch_add(1, Ordering::Relaxed);
                if let Some((first_user, last_user)) = q.step_range {
                    ledger.events.push(QuarantineEvent { first_user, last_user, reason: q.reason });
                }
            }
        }
        Ok((cold, report))
    }
}

impl<F: IoFaultPlan> ColdStore<F> {
    /// Durable store with an armed fault plan: every spill/load runs
    /// through the [`crate::iofault`] oracle.
    pub fn durable_with_faults(dir: &Path, faults: F) -> io::Result<ColdStore<F>> {
        Ok(ColdStore {
            spill: Some(SegmentStore::with_faults(dir, faults)?),
            ..ColdStore::default()
        })
    }

    /// Append one evicted record.
    pub fn append(&mut self, rec: &BufRecord) {
        if let Some(seg) = &self.open {
            // FIFO eviction of a monotone stream keeps user steps
            // non-decreasing; if an upstream desync ever violates that,
            // seal and start fresh so the per-segment invariant (and
            // with it gap decoding) survives.
            if seg.count > 0 && rec.dep.user < seg.last_user {
                self.seal_open();
            }
        }
        let seg = self.open.get_or_insert_with(ColdSegment::new);
        seg.push(rec);
        self.records += 1;
        if seg.count >= SEGMENT_RECORDS {
            self.seal_open();
        }
    }

    /// Seal (and for durable stores, spill) the open segment now.
    /// Appending normally seals at segment granularity; call this
    /// before a planned shutdown so the tail survives too.
    pub fn flush(&mut self) {
        self.seal_open();
    }

    fn seal_open(&mut self) {
        let Some(seg) = self.open.take() else { return };
        if seg.count == 0 {
            return;
        }
        let meta = seg.meta();
        let ColdSegment { bytes, mut filter, .. } = seg;
        filter.shrink_to_fit();
        let len = bytes.len() as u32;
        let payload = match self.spill.as_mut() {
            Some(store) => match store.spill(&meta, &bytes) {
                Ok(seq) => SegPayload::Disk { seq, len },
                Err(_) => {
                    // Permanent spill failure (disk full, exhausted
                    // retries): degrade to resident, lose nothing.
                    self.runtime.mem_fallbacks.fetch_add(1, Ordering::Relaxed);
                    SegPayload::Mem(bytes)
                }
            },
            None => SegPayload::Mem(bytes),
        };
        self.push_sealed(meta, filter, payload);
    }

    /// Append a sealed segment to the list, keeping `reach` and
    /// `starts_sorted` up to date.
    fn push_sealed(&mut self, meta: SegMeta, filter: SegFilter, payload: SegPayload) {
        let id = self.next_id;
        self.next_id += 1;
        let prev = self.sealed.last();
        self.starts_sorted &= prev.is_none_or(|p| p.meta.first_user <= meta.first_user);
        let reach = prev.map_or(meta.last_user, |p| p.reach.max(meta.last_user));
        self.sealed.push(SealedSeg { id, meta, filter, reach, payload });
    }

    /// The sealed segments a lookup has to consider, before its filter:
    /// every one for an address, and for a step those from the first
    /// that reaches it — to the end, or on the user side, while the
    /// starts are sorted, up to the last that starts at or before it.
    fn candidates(&self, probe: Probe) -> &[SealedSeg] {
        let step = match probe {
            Probe::At(_) => return &self.sealed,
            Probe::User(step) | Probe::Mention(step) => step,
        };
        // Everything before `lo` ends before `step`, and so can mention
        // it neither as a user nor as a def.
        let lo = self.sealed.partition_point(|s| s.reach < step);
        let rest = &self.sealed[lo..];
        match probe {
            Probe::User(_) if self.starts_sorted => {
                &rest[..rest.partition_point(|s| s.meta.first_user <= step)]
            }
            _ => rest,
        }
    }

    /// Total records spilled so far.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Segments held (sealed plus the open one, if non-empty).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(self.open.as_ref().is_some_and(|s| s.count > 0))
    }

    /// Compressed payload bytes held (resident + on disk).
    pub fn bytes(&self) -> u64 {
        let open = self.open.as_ref().map_or(0, |s| s.bytes.len() as u64);
        self.sealed
            .iter()
            .map(|s| match &s.payload {
                SegPayload::Mem(b) => b.len() as u64,
                SegPayload::Disk { len, .. } => u64::from(*len),
            })
            .sum::<u64>()
            + open
    }

    /// Payload bytes held in memory (open segment + resident seals).
    pub fn resident_bytes(&self) -> u64 {
        let open = self.open.as_ref().map_or(0, |s| s.bytes.len() as u64);
        self.sealed
            .iter()
            .map(|s| match &s.payload {
                SegPayload::Mem(b) => b.len() as u64,
                SegPayload::Disk { .. } => 0,
            })
            .sum::<u64>()
            + open
    }

    /// Bytes currently on disk (headers + payloads), 0 for memory-only
    /// stores.
    pub fn disk_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.stats().disk_bytes.load(Ordering::Relaxed))
    }

    /// Is this store backed by segment files on disk?
    pub fn is_durable(&self) -> bool {
        self.spill.is_some()
    }

    /// Shared I/O statistics of the durable backend, if any.
    pub fn durable_stats(&self) -> Option<&IoStats> {
        self.spill.as_ref().map(|s| s.stats())
    }

    /// Oldest user step held, if any — everything at or after it is
    /// answerable from cold (possibly jointly with the live window).
    pub fn first_user(&self) -> Option<u64> {
        self.sealed
            .first()
            .map(|s| s.meta.first_user)
            .or_else(|| self.open.as_ref().filter(|s| s.count > 0).map(|s| s.first_user))
    }

    /// Metadata of every sealed segment, in seal order. Stable across
    /// fault plans: spill outcomes change where payloads live, never
    /// how the record stream is cut into segments.
    pub fn segment_metas(&self) -> Vec<SegMeta> {
        self.sealed.iter().map(|s| s.meta).collect()
    }

    /// Decode-memo hit count (shared across views and clones).
    pub fn memo_hits(&self) -> u64 {
        self.memo.lock().unwrap().hits
    }

    /// Decode-memo misses — the number of segment decodes performed.
    pub fn memo_misses(&self) -> u64 {
        self.memo.lock().unwrap().misses
    }

    /// Decode-memo LRU evictions.
    pub fn memo_evictions(&self) -> u64 {
        self.memo.lock().unwrap().evictions
    }

    /// Bound the shared decode memo (segments; minimum 1). Shrinking
    /// evicts least-recently-used entries immediately.
    pub fn set_memo_capacity(&self, cap: usize) {
        self.memo.lock().unwrap().set_cap(cap);
    }

    /// Segments classified corrupt so far (any recovery-ladder rung).
    pub fn corrupt_segments(&self) -> u64 {
        self.runtime.corrupt.load(Ordering::Relaxed)
    }

    /// Seals kept resident because durable storage failed permanently.
    pub fn mem_fallbacks(&self) -> u64 {
        self.runtime.mem_fallbacks.load(Ordering::Relaxed)
    }

    /// Every corruption observed, in discovery order.
    pub fn corruption_events(&self) -> Vec<QuarantineEvent> {
        self.runtime.quarantine.lock().unwrap().events.clone()
    }

    /// The user-step ranges lost to quarantined segments, merged and
    /// sorted — what a `Degraded` query outcome reports. Empty means
    /// every sealed segment decoded (or has not been touched yet; see
    /// [`ColdStore::verify`] for an eager sweep).
    pub fn missing_step_ranges(&self) -> Vec<(u64, u64)> {
        let ledger = self.runtime.quarantine.lock().unwrap();
        let mut ranges: Vec<(u64, u64)> =
            ledger.events.iter().map(|e| (e.first_user, e.last_user)).collect();
        drop(ledger);
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, end)) if lo <= end.saturating_add(1) => *end = (*end).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    }

    /// Recovery-ladder rung 3: force-decode every sealed segment (CRC +
    /// metadata validation), quarantining failures, and return the
    /// resulting [`ColdStore::missing_step_ranges`]. After this call
    /// the missing ranges are *exactly* the damage present — nothing
    /// latent remains.
    pub fn verify(&self) -> Vec<(u64, u64)> {
        let view = ColdView::new(self);
        for seg in &self.sealed {
            let _ = view.decoded_sealed(seg);
        }
        self.missing_step_ranges()
    }

    fn is_quarantined(&self, id: u64) -> bool {
        // The ledger is empty until something is classified corrupt, so
        // a healthy store answers without the lock.
        self.runtime.corrupt.load(Ordering::Relaxed) > 0
            && self.runtime.quarantine.lock().unwrap().ids.contains(&id)
    }

    /// Classify a sealed segment corrupt: blacklist its id, record the
    /// lost range, and quarantine the backing file (if any).
    fn note_corrupt(&self, seg: &SealedSeg, reason: CorruptKind) {
        {
            let mut ledger = self.runtime.quarantine.lock().unwrap();
            if !ledger.ids.insert(seg.id) {
                return;
            }
            ledger.events.push(QuarantineEvent {
                first_user: seg.meta.first_user,
                last_user: seg.meta.last_user,
                reason,
            });
        }
        self.runtime.corrupt.fetch_add(1, Ordering::Relaxed);
        if let (SegPayload::Disk { seq, .. }, Some(store)) = (&seg.payload, &self.spill) {
            store.quarantine(*seq);
        }
    }

    /// Decode a sealed segment's payload, loading from disk if needed.
    fn decode_sealed(&self, seg: &SealedSeg) -> Result<DecodedSeg, CorruptKind> {
        match &seg.payload {
            SegPayload::Mem(bytes) => decode_validated(bytes, &seg.meta),
            SegPayload::Disk { seq, .. } => {
                let store = self.spill.as_ref().expect("disk payload without a segment store");
                match store.load(*seq, &seg.meta) {
                    Ok(bytes) => decode_validated(&bytes, &seg.meta),
                    Err(LoadError::Corrupt(kind)) => Err(kind),
                    Err(LoadError::Fault(_) | LoadError::Io(_)) => Err(CorruptKind::Unreadable),
                }
            }
        }
    }

    /// Test hook: corrupt a sealed segment's *metadata* in place, to
    /// prove that lying pruning bounds are classified as corruption
    /// rather than silently mis-pruning.
    #[cfg(test)]
    fn tamper_sealed_meta(&mut self, idx: usize, f: impl FnOnce(&mut SegMeta)) {
        f(&mut self.sealed[idx].meta);
    }

    /// Test hook: flip a byte of a resident sealed payload.
    #[cfg(test)]
    fn tamper_sealed_payload(&mut self, idx: usize, byte: usize) {
        if let SegPayload::Mem(bytes) = &mut self.sealed[idx].payload {
            let n = bytes.len();
            bytes[byte % n] ^= 0x40;
        }
    }
}

/// A read view over a [`ColdStore`]. Sealed segments decode through
/// the store's **shared** bounded-LRU memo (concurrent views decode a
/// hot segment once); the open segment decodes once until the next
/// append, shared the same way.
pub struct ColdView<'a, F: IoFaultPlan = NoopIoFaults> {
    store: &'a ColdStore<F>,
}

/// Advance a lookup to its first item, so that making the lookup finds
/// (and decodes) the first segment holding any, as a collected lookup
/// would; the rest decode as the iterator reaches them.
fn primed<I: Iterator>(it: I) -> Peekable<I> {
    let mut it = it.peekable();
    it.peek();
    it
}

impl<'a, F: IoFaultPlan> ColdView<'a, F> {
    pub fn new(store: &'a ColdStore<F>) -> ColdView<'a, F> {
        ColdView { store }
    }

    fn decoded_sealed(&self, seg: &SealedSeg) -> Option<Arc<DecodedSeg>> {
        if self.store.is_quarantined(seg.id) {
            return None;
        }
        let decoded =
            self.store.memo.lock().unwrap().get_or_decode(seg.id, || self.store.decode_sealed(seg));
        match decoded {
            Ok(d) => Some(d),
            Err(kind) => {
                self.store.note_corrupt(seg, kind);
                None
            }
        }
    }

    /// The decoded form of every segment `probe` admits, oldest-first:
    /// the sealed candidates, then the open tail. Quarantined segments
    /// are skipped (their loss is on the store's ledger); a segment that
    /// fails to decode is quarantined here. Lazy: a segment decodes when
    /// the iterator reaches it.
    fn segments(&self, probe: Probe) -> impl Iterator<Item = Arc<DecodedSeg>> + '_ {
        let open = self.store.open.as_ref().filter(|s| probe.admits(&s.meta(), &s.filter));
        self.store
            .candidates(probe)
            .iter()
            .filter(move |s| probe.admits(&s.meta, &s.filter))
            .filter_map(|s| self.decoded_sealed(s))
            .chain(open.into_iter().map(ColdSegment::decode))
    }

    /// Cold dependences whose user is `step`: `(def, kind)` pairs, in
    /// segment order and record order within a segment.
    pub fn defs(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> + '_ {
        primed(self.segments(Probe::User(step)).flat_map(move |d| d.defs(step)))
    }

    /// Cold dependences whose def is `step`: `(user, kind)` pairs, in
    /// segment order and record order within a segment. Visits the
    /// segments whose user range covers `step` and the later ones whose
    /// far-def list names it.
    pub fn users(&self, step: u64) -> impl Iterator<Item = (u64, DepKind)> + '_ {
        primed(self.segments(Probe::Mention(step)).flat_map(move |d| d.users(step)))
    }

    /// Metadata for a step mentioned anywhere in the cold tier.
    pub fn meta_of(&self, step: u64) -> Option<(Addr, StmtId)> {
        self.segments(Probe::Mention(step)).find_map(|d| d.meta_of(step))
    }

    /// Cold steps executed at `addr`, ascending and deduplicated:
    /// decodes only the segments whose address list names `addr`.
    pub fn steps_at(&self, addr: Addr) -> Vec<u64> {
        let mut steps = Vec::new();
        for d in self.segments(Probe::At(addr)) {
            steps.extend(d.steps_at(addr));
        }
        steps.sort_unstable();
        steps.dedup();
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::record;

    fn rec(user: u64, def: u64, kind: DepKind) -> BufRecord {
        record(user, def, kind, user as u32 % 11, def as u32 % 11, user as u32, def as u32)
    }

    #[test]
    fn roundtrips_every_field_across_segment_seals() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) * 2 + 100;
        for i in 1..=n {
            store.append(&rec(i, i / 2, [DepKind::RegData, DepKind::MemData][i as usize % 2]));
        }
        assert_eq!(store.record_count(), n);
        assert_eq!(store.segment_count(), 3);
        assert_eq!(store.first_user(), Some(1));
        let view = ColdView::new(&store);
        for i in [1, 2, 1000, u64::from(SEGMENT_RECORDS), n - 1, n] {
            let defs: Vec<_> = view.defs(i).collect();
            assert_eq!(defs, vec![(i / 2, [DepKind::RegData, DepKind::MemData][i as usize % 2])]);
            assert_eq!(view.meta_of(i), Some((i as u32 % 11, i as u32)));
        }
        // users(d) finds every user of d, across segment boundaries.
        let users = view.users(500);
        let mut want: Vec<u64> = vec![1000, 1001];
        want.retain(|&u| u <= n);
        assert_eq!(users.map(|(u, _)| u).collect::<Vec<_>>(), want);
    }

    #[test]
    fn gap_encoding_is_compact_for_dense_streams() {
        let mut store = ColdStore::new();
        for i in 1..=10_000u64 {
            store.append(&rec(i, i - 1, DepKind::RegData));
        }
        let per_record = store.bytes() as f64 / store.record_count() as f64;
        // gap=1, dist=1, kind, two 1-byte addrs and two ≤2-byte stmt
        // ids: ≤9 bytes vs the 28-byte in-memory BufRecord.
        assert!(per_record < 10.0, "expected tight packing, got {per_record:.2} B/record");
    }

    #[test]
    fn steps_at_unions_segments_sorted() {
        let mut store = ColdStore::new();
        for i in 1..=3_000u64 {
            store.append(&rec(i, i.saturating_sub(7), DepKind::MemData));
        }
        let view = ColdView::new(&store);
        let at_3 = view.steps_at(3);
        assert!(!at_3.is_empty());
        assert!(at_3.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        assert!(at_3.iter().all(|&s| s % 11 == 3));
    }

    #[test]
    fn non_monotone_input_seals_rather_than_corrupts() {
        let mut store = ColdStore::new();
        store.append(&rec(100, 99, DepKind::RegData));
        store.append(&rec(50, 49, DepKind::RegData)); // upstream desync
        store.append(&rec(120, 119, DepKind::RegData));
        let view = ColdView::new(&store);
        assert_eq!(view.defs(100).collect::<Vec<_>>(), vec![(99, DepKind::RegData)]);
        assert_eq!(view.defs(50).collect::<Vec<_>>(), vec![(49, DepKind::RegData)]);
        assert_eq!(view.defs(120).collect::<Vec<_>>(), vec![(119, DepKind::RegData)]);
        assert_eq!(store.record_count(), 3);
    }

    #[test]
    fn empty_store_answers_empty() {
        let store = ColdStore::new();
        assert_eq!(store.segment_count(), 0);
        assert_eq!(store.bytes(), 0);
        assert_eq!(store.first_user(), None);
        assert!(store.missing_step_ranges().is_empty());
        assert!(store.verify().is_empty());
        let view = ColdView::new(&store);
        assert!(view.defs(1).next().is_none());
        assert!(view.users(1).next().is_none());
        assert!(view.meta_of(1).is_none());
        assert!(view.steps_at(0).is_empty());
    }

    #[test]
    fn shared_memo_counts_hits_and_bounds_entries() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) * 3;
        for i in 1..=n {
            store.append(&rec(i, i.saturating_sub(1), DepKind::RegData));
        }
        store.set_memo_capacity(2);
        let view = ColdView::new(&store);
        let _ = view.defs(1); // decodes segment 0
        let _ = view.defs(1); // memo hit
        assert_eq!(store.memo_misses(), 1);
        assert!(store.memo_hits() >= 1);
        // Touch all three sealed segments: capacity 2 must evict.
        let _ = view.defs(u64::from(SEGMENT_RECORDS) + 1);
        let _ = view.defs(2 * u64::from(SEGMENT_RECORDS) + 1);
        assert!(store.memo_evictions() >= 1, "LRU must evict beyond capacity");
    }

    /// Five sealed segments of the chain `i -> i - 1` over even user
    /// steps from 10, in which every 64th record also reads the startup
    /// def 1, so every segment's `min_def` is 1 and a `min_def` test
    /// admits every segment from a step's own onward. `extra` records
    /// go in with the chain.
    fn startup_def_store(extra: &[BufRecord]) -> ColdStore {
        let mut store = ColdStore::new();
        let mut pending = extra.iter().peekable();
        let mut user = 10;
        while store.segment_metas().len() < 5 {
            store.append(&rec(user, user - 2, DepKind::RegData));
            if user % 128 == 0 {
                store.append(&rec(user, 1, DepKind::RegData));
            }
            while let Some(r) = pending.next_if(|r| r.dep.user == user) {
                store.append(r);
            }
            user += 2;
        }
        store.flush();
        for m in store.segment_metas() {
            assert_eq!(m.min_def, 1);
        }
        store
    }

    #[test]
    fn users_decodes_only_the_segments_that_hold_the_def() {
        let store = startup_def_store(&[]);
        let metas = store.segment_metas();
        // A step in the middle of segment 1: read only by the next
        // chain record, in the same segment.
        let step = ((metas[1].first_user + metas[1].last_user) / 2) & !1;
        let view = ColdView::new(&store);
        let before = store.memo_misses();
        let users: Vec<_> = view.users(step).collect();
        assert_eq!(users, vec![(step + 2, DepKind::RegData)]);
        assert_eq!(store.memo_misses() - before, 1, "only segment 1 holds the def");
        // The startup def is found in every segment, through its far-def
        // list.
        let before = store.memo_misses();
        assert!(view.users(1).count() >= metas.len());
        assert_eq!(store.memo_misses() - before, metas.len() as u64 - 1);
    }

    #[test]
    fn steps_at_decodes_only_the_segments_that_executed_the_address() {
        let metas = startup_def_store(&[]).segment_metas();
        // An odd step, never otherwise mentioned, executed at address 99.
        let user = metas[3].first_user + 8;
        let odd = record(user, user - 1, DepKind::RegData, user as u32 % 11, 99, user as u32, 7);
        let store = startup_def_store(&[odd]);
        let view = ColdView::new(&store);
        assert_eq!(view.steps_at(99), vec![user - 1]);
        assert_eq!(store.memo_misses(), 1, "address 99 executed in one segment only");
    }

    #[test]
    fn meta_of_a_def_only_step_decodes_only_the_segments_of_its_users() {
        // Step 3 is never a user: it is read only in segments 2 and 3.
        let metas = startup_def_store(&[]).segment_metas();
        let reads: Vec<BufRecord> = [metas[2].first_user + 10, metas[3].first_user + 10]
            .into_iter()
            .map(|u| record(u, 3, DepKind::MemData, u as u32 % 11, 5, u as u32, 33))
            .collect();
        let store = startup_def_store(&reads);
        let view = ColdView::new(&store);
        assert_eq!(view.meta_of(3), Some((5, 33)));
        assert_eq!(store.memo_misses(), 1, "segment 2 holds its first mention");
        let users: Vec<u64> = view.users(3).map(|(u, _)| u).collect();
        assert_eq!(users, vec![reads[0].dep.user, reads[1].dep.user]);
        assert_eq!(store.memo_misses(), 2, "then segment 3 for the rest of its users");
    }

    /// A payload of hand-written records, each
    /// `(user_gap, dist, kind, user_addr, def_addr, user_stmt, def_stmt)`.
    fn payload(records: &[[u64; 7]]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            for (i, &v) in r.iter().enumerate() {
                if i == 2 {
                    out.push(v as u8);
                } else {
                    put_varint(&mut out, v);
                }
            }
        }
        out
    }

    #[test]
    fn user_step_overflow_is_a_bad_record() {
        // The second gap takes the user step past u64::MAX; the wrapped
        // metadata agrees with what a wrapping decoder would derive.
        let bytes = payload(&[[u64::MAX - 1, 0, 0, 0, 0, 0, 0], [5, 0, 0, 0, 0, 0, 0]]);
        let wrapped = (u64::MAX - 1).wrapping_add(5);
        let meta =
            SegMeta { first_user: u64::MAX - 1, last_user: wrapped, min_def: wrapped, count: 2 };
        assert_eq!(decode_validated(&bytes, &meta).unwrap_err(), CorruptKind::BadRecord);
    }

    #[test]
    fn address_and_statement_wider_than_32_bits_are_bad_records() {
        let wide = u64::from(u32::MAX) + 1;
        for field in 3..7 {
            let mut r = [7, 1, 0, 0, 0, 0, 0];
            r[field] = wide;
            let bytes = payload(&[r]);
            let meta = SegMeta { first_user: 7, last_user: 7, min_def: 6, count: 1 };
            assert_eq!(
                decode_validated(&bytes, &meta).unwrap_err(),
                CorruptKind::BadRecord,
                "field {field}"
            );
        }
        // At the limit it is a valid record.
        let bytes = payload(&[[7, 1, 0, u64::from(u32::MAX), 0, 0, 0]]);
        let meta = SegMeta { first_user: 7, last_user: 7, min_def: 6, count: 1 };
        let d = decode_validated(&bytes, &meta).unwrap();
        assert_eq!(d.meta_of(7), Some((u32::MAX, 0)));
    }

    #[test]
    fn a_count_beyond_the_payload_is_truncated_not_allocated() {
        let bytes = payload(&[[7, 1, 0, 0, 0, 0, 0]]);
        let meta = SegMeta { first_user: 7, last_user: 7, min_def: 6, count: u32::MAX };
        assert_eq!(decode_validated(&bytes, &meta).unwrap_err(), CorruptKind::Truncated);
    }

    #[test]
    fn tampered_meta_is_classified_as_corruption_not_wrong_pruning() {
        let mut store = ColdStore::new();
        let n = u64::from(SEGMENT_RECORDS) + 10;
        for i in 1..=n {
            store.append(&rec(i, i.saturating_sub(1), DepKind::RegData));
        }
        // Lie about last_user so the segment claims coverage of steps
        // it does not hold — the decoder must catch the disagreement,
        // not silently trust the pruning bound.
        store.tamper_sealed_meta(0, |m| m.last_user += 100);
        let view = ColdView::new(&store);
        let _ = view.defs(5);
        assert_eq!(store.corrupt_segments(), 1);
        let events = store.corruption_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].reason, CorruptKind::MetaMismatch);
        let missing = store.missing_step_ranges();
        assert_eq!(missing.len(), 1);
        // Later queries skip the quarantined segment without repeating
        // the classification.
        let _ = view.defs(1);
        assert_eq!(store.corrupt_segments(), 1);
    }

    #[test]
    fn tampered_payload_is_quarantined_by_decode() {
        let mut store = ColdStore::new();
        for i in 1..=u64::from(SEGMENT_RECORDS) {
            store.append(&rec(i, i.saturating_sub(1), DepKind::RegData));
        }
        // Byte 16 is the third record's kind byte (7-byte records for
        // this stream): the flip produces an undecodable discriminant.
        store.tamper_sealed_payload(0, 16);
        let view = ColdView::new(&store);
        assert!(view.defs(5).next().is_none(), "quarantined segment must answer empty");
        assert_eq!(store.corrupt_segments(), 1);
        assert_eq!(store.verify(), store.missing_step_ranges());
    }
}
