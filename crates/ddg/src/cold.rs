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
//! `min_def`, `count`) so queries touch only candidate segments:
//! [`ColdView`]'s four lookups share one scan that decodes the sealed
//! segments whose metadata admits the step, oldest-first, then the open
//! tail. Segments are append-only and never rewritten once sealed.
//!
//! # Durability and the integrity ladder
//!
//! A [`ColdStore`] opened with [`ColdStore::durable`] spills every
//! sealed segment to disk through [`crate::durable::SegmentStore`]
//! (checksummed format, temp-file + atomic rename) and keeps only
//! [`SegMeta`] in memory; queries load payloads lazily. A spill that
//! fails permanently (disk full) falls back to keeping that segment in
//! memory — degraded durability, never lost data.
//!
//! Pruning metadata is **validated, not trusted**: whenever a segment
//! is decoded, the decoder re-derives `first_user`/`last_user`/
//! `min_def`/`count` from the records and any disagreement with the
//! stored metadata classifies the segment as corrupt
//! ([`CorruptKind::MetaMismatch`]) — a recoverable error, not a
//! silently wrong pruning decision. Corrupt segments are quarantined
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
//! behavior.
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
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io;
use std::ops::ControlFlow;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Records per sealed segment. Small enough that decoding one segment
/// is cheap, large enough that per-segment metadata is negligible.
pub const SEGMENT_RECORDS: u32 = 1024;

/// Default capacity of the shared decode memo (segments).
pub const DEFAULT_MEMO_CAPACITY: usize = 64;

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
    /// Smallest def step mentioned — def steps can be arbitrarily far
    /// behind their user, so def-side queries filter on this.
    pub min_def: u64,
    /// Record count.
    pub count: u32,
}

impl SegMeta {
    /// Could `step` appear in this segment as a user?
    pub fn may_have_user(&self, step: u64) -> bool {
        self.count > 0 && self.first_user <= step && step <= self.last_user
    }

    /// Could `step` appear in this segment as a def? (A def never
    /// follows its user, so defs are bounded above by `last_user`.)
    pub fn may_have_def(&self, step: u64) -> bool {
        self.count > 0 && self.min_def <= step && step <= self.last_user
    }
}

/// The open (still-appending) segment: encoded bytes plus incrementally
/// maintained metadata.
#[derive(Clone, Debug)]
struct ColdSegment {
    bytes: Vec<u8>,
    first_user: u64,
    last_user: u64,
    min_def: u64,
    count: u32,
}

impl ColdSegment {
    fn new() -> ColdSegment {
        ColdSegment { bytes: Vec::new(), first_user: 0, last_user: 0, min_def: u64::MAX, count: 0 }
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
        let rec = (|| {
            let gap = varint(&mut self.pos)?;
            let user = if first { gap } else { self.prev_user + gap };
            let dist = varint(&mut self.pos)?;
            let def = user.checked_sub(dist).ok_or(CorruptKind::BadRecord)?;
            let kind = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or(CorruptKind::Truncated)
                .and_then(|b| kind_from_byte(b).ok_or(CorruptKind::BadRecord))?;
            self.pos += 1;
            let user_addr = varint(&mut self.pos)? as Addr;
            let def_addr = varint(&mut self.pos)? as Addr;
            let user_stmt = varint(&mut self.pos)? as StmtId;
            let def_stmt = varint(&mut self.pos)? as StmtId;
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

/// One segment decoded into adjacency form, mirroring the live index's
/// per-chunk layout.
#[derive(Debug, Default)]
struct DecodedSeg {
    defs_of: HashMap<u64, Vec<(u64, DepKind)>>,
    users_of: HashMap<u64, Vec<(u64, DepKind)>>,
    meta: HashMap<u64, (Addr, StmtId)>,
    addr_steps: HashMap<Addr, BTreeSet<u64>>,
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
    let mut out = DecodedSeg::default();
    let (mut first, mut last, mut min_def) = (0u64, 0u64, u64::MAX);
    let mut iter = RecordIter::new(payload, meta.count);
    for (seen, rec) in (&mut iter).enumerate() {
        let r = rec?;
        if seen == 0 {
            first = r.user;
        }
        last = r.user;
        min_def = min_def.min(r.def);
        out.defs_of.entry(r.user).or_default().push((r.def, r.kind));
        out.users_of.entry(r.def).or_default().push((r.user, r.kind));
        out.meta.entry(r.user).or_insert((r.user_addr, r.user_stmt));
        out.meta.entry(r.def).or_insert((r.def_addr, r.def_stmt));
        out.addr_steps.entry(r.user_addr).or_default().insert(r.user);
        out.addr_steps.entry(r.def_addr).or_default().insert(r.def);
    }
    if iter.pos != payload.len() {
        // Trailing bytes: the count under-reports the payload.
        return Err(CorruptKind::MetaMismatch);
    }
    if first != meta.first_user || last != meta.last_user || min_def != meta.min_def {
        return Err(CorruptKind::MetaMismatch);
    }
    Ok(out)
}

/// Rung-2 validation without keeping the decoded form (used by the
/// open-time scrub in [`crate::durable`]).
pub(crate) fn validate_payload(meta: &SegMeta, payload: &[u8]) -> Result<(), CorruptKind> {
    decode_validated(payload, meta).map(|_| ())
}

/// Where a sealed segment's payload lives.
#[derive(Clone, Debug)]
enum SegPayload {
    /// In memory (non-durable store, or a spill that fell back).
    Mem(Vec<u8>),
    /// On disk under this sequence number, `len` payload bytes.
    Disk { seq: u64, len: u32 },
}

/// A sealed segment: metadata in memory, payload wherever it lives.
#[derive(Clone, Debug)]
struct SealedSeg {
    /// Stable key for the decode memo and the quarantine ledger.
    id: u64,
    meta: SegMeta,
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
/// one store decode a hot segment exactly once. Decoding happens under
/// the lock — that *is* the sharing guarantee.
#[derive(Debug)]
struct DecodeMemo {
    inner: Mutex<MemoInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct MemoInner {
    cap: usize,
    tick: u64,
    map: HashMap<u64, MemoEntry>,
}

#[derive(Debug)]
struct MemoEntry {
    seg: Arc<DecodedSeg>,
    stamp: u64,
}

impl DecodeMemo {
    fn new(cap: usize) -> DecodeMemo {
        DecodeMemo {
            inner: Mutex::new(MemoInner { cap: cap.max(1), tick: 0, map: HashMap::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn get_or_decode(
        &self,
        id: u64,
        decode: impl FnOnce() -> Result<DecodedSeg, CorruptKind>,
    ) -> Result<Arc<DecodedSeg>, CorruptKind> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let now = inner.tick;
        if let Some(e) = inner.map.get_mut(&id) {
            e.stamp = now;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&e.seg));
        }
        let seg = Arc::new(decode()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if inner.map.len() >= inner.cap {
            if let Some(victim) = inner.map.iter().min_by_key(|(_, e)| e.stamp).map(|(&k, _)| k) {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(id, MemoEntry { seg: Arc::clone(&seg), stamp: now });
        Ok(seg)
    }

    fn set_cap(&self, cap: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.cap = cap.max(1);
        while inner.map.len() > inner.cap {
            if let Some(victim) = inner.map.iter().min_by_key(|(_, e)| e.stamp).map(|(&k, _)| k) {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Append-only store of compressed evicted-record segments. Owned by
/// the tracer next to the buffer (see `OnTracConfig::cold_tier`) and
/// fed from the same `push_with` eviction callback that prunes the
/// live index, so it sees every evicted record exactly once, in order.
///
/// Generic over an I/O fault plan ([`NoopIoFaults`] by default: every
/// injection site compiles away). Clones share the decode memo, the
/// quarantine ledger, and (for durable stores) the I/O statistics —
/// clone for concurrent *readers*; only one clone may append.
#[derive(Clone, Debug)]
pub struct ColdStore<F: IoFaultPlan = NoopIoFaults> {
    sealed: Vec<SealedSeg>,
    open: Option<ColdSegment>,
    records: u64,
    next_id: u64,
    spill: Option<SegmentStore<F>>,
    memo: Arc<DecodeMemo>,
    runtime: Arc<ColdRuntime>,
}

impl<F: IoFaultPlan> Default for ColdStore<F> {
    fn default() -> ColdStore<F> {
        ColdStore {
            sealed: Vec::new(),
            open: None,
            records: 0,
            next_id: 0,
            spill: None,
            memo: Arc::new(DecodeMemo::new(DEFAULT_MEMO_CAPACITY)),
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
    /// manifest from the survivors.
    pub fn reopen(dir: &Path) -> io::Result<(ColdStore, ScrubReport)> {
        let (store, mut manifest, report) = SegmentStore::open(dir)?;
        // Oldest-first by user step, the order `first_user` and the
        // candidate scans read segments in; spill order breaks ties.
        manifest.sort_by_key(|&(seq, meta, _)| (meta.first_user, seq));
        let mut cold = ColdStore { spill: Some(store), ..ColdStore::default() };
        for (seq, meta, payload_len) in manifest {
            let id = cold.next_id;
            cold.next_id += 1;
            cold.records += u64::from(meta.count);
            cold.sealed.push(SealedSeg {
                id,
                meta,
                payload: SegPayload::Disk { seq, len: payload_len },
            });
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
        let id = self.next_id;
        self.next_id += 1;
        let len = seg.bytes.len() as u32;
        let payload = match self.spill.as_mut() {
            Some(store) => match store.spill(&meta, &seg.bytes) {
                Ok(seq) => SegPayload::Disk { seq, len },
                Err(_) => {
                    // Permanent spill failure (disk full, exhausted
                    // retries): degrade to resident, lose nothing.
                    self.runtime.mem_fallbacks.fetch_add(1, Ordering::Relaxed);
                    SegPayload::Mem(seg.bytes)
                }
            },
            None => SegPayload::Mem(seg.bytes),
        };
        self.sealed.push(SealedSeg { id, meta, payload });
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

    /// Is this store backed by a [`SegmentStore`]?
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
        self.memo.hits.load(Ordering::Relaxed)
    }

    /// Decode-memo misses — the number of segment decodes performed.
    pub fn memo_misses(&self) -> u64 {
        self.memo.misses.load(Ordering::Relaxed)
    }

    /// Decode-memo LRU evictions.
    pub fn memo_evictions(&self) -> u64 {
        self.memo.evictions.load(Ordering::Relaxed)
    }

    /// Bound the shared decode memo (segments; minimum 1). Shrinking
    /// evicts least-recently-used entries immediately.
    pub fn set_memo_capacity(&self, cap: usize) {
        self.memo.set_cap(cap);
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
        self.runtime.quarantine.lock().unwrap().ids.contains(&id)
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
/// hot segment once); the open segment is decoded per view. Create one
/// per query batch.
pub struct ColdView<'a, F: IoFaultPlan = NoopIoFaults> {
    store: &'a ColdStore<F>,
    open_cache: RefCell<Option<Rc<DecodedSeg>>>,
}

impl<'a, F: IoFaultPlan> ColdView<'a, F> {
    pub fn new(store: &'a ColdStore<F>) -> ColdView<'a, F> {
        ColdView { store, open_cache: RefCell::new(None) }
    }

    fn decoded_sealed(&self, seg: &SealedSeg) -> Option<Arc<DecodedSeg>> {
        if self.store.is_quarantined(seg.id) {
            return None;
        }
        match self.store.memo.get_or_decode(seg.id, || self.store.decode_sealed(seg)) {
            Ok(d) => Some(d),
            Err(kind) => {
                self.store.note_corrupt(seg, kind);
                None
            }
        }
    }

    fn decoded_open(&self) -> Option<Rc<DecodedSeg>> {
        if let Some(d) = self.open_cache.borrow().as_ref() {
            return Some(Rc::clone(d));
        }
        let seg = self.store.open.as_ref()?;
        if seg.count == 0 {
            return None;
        }
        // The open segment was encoded by this process and never left
        // memory; validation is a cheap invariant check here.
        let d = Rc::new(decode_validated(&seg.bytes, &seg.meta()).ok()?);
        *self.open_cache.borrow_mut() = Some(Rc::clone(&d));
        Some(d)
    }

    /// The one candidate-segment scan behind every lookup: visit the
    /// decoded form of each segment whose metadata `may_hold` accepts —
    /// sealed segments oldest-first, then the open tail — until `visit`
    /// breaks. Quarantined segments are skipped (their loss is on the
    /// store's ledger); a segment that fails to decode is quarantined
    /// here.
    fn scan<B>(
        &self,
        may_hold: impl Fn(&SegMeta) -> bool,
        mut visit: impl FnMut(&DecodedSeg) -> ControlFlow<B>,
    ) -> Option<B> {
        for seg in &self.store.sealed {
            if may_hold(&seg.meta) {
                if let Some(d) = self.decoded_sealed(seg) {
                    if let ControlFlow::Break(b) = visit(&d) {
                        return Some(b);
                    }
                }
            }
        }
        if self.store.open.as_ref().is_some_and(|s| may_hold(&s.meta())) {
            if let Some(d) = self.decoded_open() {
                if let ControlFlow::Break(b) = visit(&d) {
                    return Some(b);
                }
            }
        }
        None
    }

    /// Cold dependences whose user is `step`: `(def, kind)` pairs.
    /// The metadata scan is O(segments) but touches only two `u64`s
    /// per segment; decode happens for candidate segments only.
    pub fn defs(&self, step: u64) -> Vec<(u64, DepKind)> {
        let mut out = Vec::new();
        self.scan(
            |m| m.may_have_user(step),
            |d| {
                if let Some(v) = d.defs_of.get(&step) {
                    out.extend_from_slice(v);
                }
                ControlFlow::<()>::Continue(())
            },
        );
        out
    }

    /// Cold dependences whose def is `step`: `(user, kind)` pairs.
    /// Defs can be arbitrarily older than their segment's user range,
    /// so every segment with `min_def ≤ step ≤ last_user` is a
    /// candidate.
    pub fn users(&self, step: u64) -> Vec<(u64, DepKind)> {
        let mut out = Vec::new();
        self.scan(
            |m| m.may_have_def(step),
            |d| {
                if let Some(v) = d.users_of.get(&step) {
                    out.extend_from_slice(v);
                }
                ControlFlow::<()>::Continue(())
            },
        );
        out
    }

    /// Metadata for a step mentioned anywhere in the cold tier.
    pub fn meta_of(&self, step: u64) -> Option<(Addr, StmtId)> {
        self.scan(
            |m| m.may_have_user(step) || m.may_have_def(step),
            |d| match d.meta.get(&step) {
                Some(&m) => ControlFlow::Break(m),
                None => ControlFlow::Continue(()),
            },
        )
    }

    /// Cold steps executed at `addr`, ascending and deduplicated.
    /// Address queries have no per-segment metadata to filter on, so
    /// this decodes every segment (once per *store*, thanks to the
    /// shared memo); it is the by-address criterion path, not the walk
    /// hot path.
    pub fn steps_at(&self, addr: Addr) -> Vec<u64> {
        let mut steps = BTreeSet::new();
        self.scan(
            |_| true,
            |d| {
                steps.extend(d.addr_steps.get(&addr).into_iter().flatten());
                ControlFlow::<()>::Continue(())
            },
        );
        steps.into_iter().collect()
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
            let defs = view.defs(i);
            assert_eq!(defs, vec![(i / 2, [DepKind::RegData, DepKind::MemData][i as usize % 2])]);
            assert_eq!(view.meta_of(i), Some((i as u32 % 11, i as u32)));
        }
        // users(d) finds every user of d, across segment boundaries.
        let users = view.users(500);
        let mut want: Vec<u64> = vec![1000, 1001];
        want.retain(|&u| u <= n);
        assert_eq!(users.iter().map(|&(u, _)| u).collect::<Vec<_>>(), want);
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
        assert_eq!(view.defs(100), vec![(99, DepKind::RegData)]);
        assert_eq!(view.defs(50), vec![(49, DepKind::RegData)]);
        assert_eq!(view.defs(120), vec![(119, DepKind::RegData)]);
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
        assert!(view.defs(1).is_empty());
        assert!(view.users(1).is_empty());
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
        assert!(view.defs(5).is_empty(), "quarantined segment must answer empty");
        assert_eq!(store.corrupt_segments(), 1);
        assert_eq!(store.verify(), store.missing_step_ranges());
    }
}
