//! ONTRAC's fixed-size circular trace buffer.
//!
//! The design decision from §2.1: dependences are *not* written to a
//! file; they are stored in memory in a fixed-size circular buffer. The
//! buffer's byte budget bounds the **execution-history window** — the
//! range of recent steps whose dependences are still available. A fault
//! is locatable by slicing only if it is exercised inside the window,
//! which is why the optimizations that shrink per-instruction trace size
//! matter: they stretch the window (20 M instructions in 16 MB at the
//! paper's 0.8 B/instr).
//!
//! Records are accounted with the compact delta encoding ONTRAC uses:
//! a varint of the gap since the previous record's user step, a varint of
//! the user→def distance, and one kind/metadata byte.
//!
//! The buffer stores no records of its own: the window lives once, in
//! the [`SliceIndex`] it owns, and the buffer keeps the byte budget and
//! its counters beside it. While the budget is exceeded it evicts the
//! index's oldest record.

use crate::dep::{DepKind, Dependence, StepSite};
use crate::index::SliceIndex;
use dift_isa::{Addr, StmtId};

/// One buffered record: the dependence plus the metadata needed to report
/// slices in source terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufRecord {
    pub dep: Dependence,
    pub user_addr: Addr,
    pub def_addr: Addr,
    pub user_stmt: StmtId,
    pub def_stmt: StmtId,
}

impl BufRecord {
    /// The `kind` dependence of the step at `user` on the one at `def`.
    #[inline]
    pub fn new(kind: DepKind, user: StepSite, def: StepSite) -> BufRecord {
        BufRecord {
            dep: Dependence::new(user.step, def.step, kind),
            user_addr: user.addr,
            def_addr: def.addr,
            user_stmt: user.stmt,
            def_stmt: def.stmt,
        }
    }
}

/// Number of bytes of a LEB128 varint for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Append `v` to `out` as an LEB128 varint. The cold tier
/// ([`crate::cold`]) materializes the same encoding this buffer only
/// *accounts* for, so the codec lives next to [`varint_len`].
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint starting at `*pos`, advancing `*pos` past
/// it. Returns `None` on truncated input (a corrupt segment).
#[inline]
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Fixed-byte-budget circular dependence buffer.
pub struct CircularTraceBuffer {
    cap_bytes: usize,
    bytes: usize,
    last_user: u64,
    /// The live window.
    index: SliceIndex,
    /// Total records ever appended (including evicted).
    pub appended: u64,
    /// Total encoded bytes ever appended.
    pub bytes_appended: u64,
    /// Records evicted to respect the budget.
    pub evicted: u64,
    /// Head records re-accounted as absolute anchors after an eviction
    /// (each re-anchor can grow the byte count — see `push`).
    pub reanchors: u64,
}

impl CircularTraceBuffer {
    pub fn new(cap_bytes: usize) -> CircularTraceBuffer {
        CircularTraceBuffer {
            cap_bytes,
            bytes: 0,
            last_user: 0,
            index: SliceIndex::default(),
            appended: 0,
            bytes_appended: 0,
            evicted: 0,
            reanchors: 0,
        }
    }

    /// Encoded size of `dep` after a gap of `gap` user steps. The head
    /// of the stream has no predecessor, so its gap is its absolute user
    /// step (an *anchor*).
    ///
    /// A def cannot follow its user (a dependence points backwards in
    /// time), so an underflowing user→def distance means a malformed
    /// record, not a representable encoding.
    fn size(dep: &Dependence, gap: u64) -> usize {
        debug_assert!(
            dep.def <= dep.user,
            "def step {} follows its user {}: the distance varint cannot encode it",
            dep.def,
            dep.user,
        );
        varint_len(gap) + varint_len(dep.user.saturating_sub(dep.def)) + 1
    }

    /// Append a record, evicting the oldest ones if the budget overflows.
    pub fn push(&mut self, rec: BufRecord) {
        self.push_with(rec, |_| {});
    }

    /// Append a record, invoking `on_evict` for every record dropped to
    /// respect the byte budget (oldest first). This is how the tracer
    /// feeds its cold tier.
    pub fn push_with(&mut self, rec: BufRecord, mut on_evict: impl FnMut(&BufRecord)) {
        // A record entering an empty window is the stream head even when
        // predecessors existed and were evicted — anchor it absolutely.
        //
        // Otherwise the delta stream is only decodable if user steps
        // never regress: a negative gap has no varint encoding, and
        // `saturating_sub` would silently emit gap 0 — a corrupt stream
        // with no signal. The tracer derives records as instructions
        // retire, so user steps are monotone by construction; the assert
        // documents (and, in debug builds, enforces) that invariant at
        // the encoding boundary.
        let gap = if self.is_empty() {
            rec.dep.user
        } else {
            debug_assert!(
                rec.dep.user >= self.last_user,
                "user step regressed below the previous record ({} < {}): \
                 the gap varint cannot encode it",
                rec.dep.user,
                self.last_user,
            );
            rec.dep.user.saturating_sub(self.last_user)
        };
        let size = Self::size(&rec.dep, gap);
        self.last_user = rec.dep.user;
        self.index.on_push(&rec);
        self.bytes += size;
        self.appended += 1;
        self.bytes_appended += size as u64;
        while self.bytes > self.cap_bytes {
            // The evicted record was the head, which is always accounted
            // as an anchor.
            let Some(old) = self.index.evict_oldest() else { break };
            self.bytes = self.bytes.saturating_sub(Self::size(&old.dep, old.dep.user));
            self.evicted += 1;
            on_evict(&old);
            // The surviving head's gap varint referenced the record just
            // evicted; re-account it as an absolute anchor (which can
            // *grow* the byte count, hence inside the budget loop). Only
            // that varint changes size.
            if let Some(head) = self.index.front() {
                let gap = varint_len(head.user.saturating_sub(old.dep.user));
                let anchor = varint_len(head.user);
                if anchor != gap {
                    self.reanchors += 1;
                }
                self.bytes = self.bytes.saturating_sub(gap) + anchor;
            }
        }
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = BufRecord> + '_ {
        self.index.records()
    }

    /// The live window, indexed for slicing.
    pub fn index(&self) -> &SliceIndex {
        &self.index
    }

    pub fn len(&self) -> usize {
        self.index.edges() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.index.edges() == 0
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn capacity_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// The window of steps still covered: `(oldest_user, newest_user)`.
    pub fn window(&self) -> Option<(u64, u64)> {
        Some((self.index.front()?.user, self.last_user))
    }

    /// Window length in steps (0 when empty).
    pub fn window_len(&self) -> u64 {
        self.window().map(|(a, b)| b - a + 1).unwrap_or(0)
    }
}

/// Convenience constructor for records in tests and synthetic histories.
pub fn record(
    user: u64,
    def: u64,
    kind: DepKind,
    user_addr: Addr,
    def_addr: Addr,
    user_stmt: StmtId,
    def_stmt: StmtId,
) -> BufRecord {
    BufRecord { dep: Dependence::new(user, def, kind), user_addr, def_addr, user_stmt, def_stmt }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: u64, def: u64) -> BufRecord {
        record(user, def, DepKind::RegData, 0, 0, 0, 0)
    }

    #[test]
    fn varint_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_383), 2);
        assert_eq!(varint_len(16_384), 3);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn dense_records_are_tiny() {
        let mut b = CircularTraceBuffer::new(1024);
        // Consecutive steps, short distances: 3 bytes each.
        for i in 1..=10u64 {
            b.push(rec(i, i - 1));
        }
        assert_eq!(b.len(), 10);
        assert_eq!(b.bytes(), 30);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let mut b = CircularTraceBuffer::new(30);
        for i in 1..=100u64 {
            b.push(rec(i, i - 1));
        }
        assert!(b.bytes() <= 30);
        assert_eq!(b.len(), 10);
        assert_eq!(b.evicted, 90);
        assert_eq!(b.appended, 100);
        let (lo, hi) = b.window().unwrap();
        assert_eq!(hi, 100);
        assert_eq!(lo, 91);
        assert_eq!(b.window_len(), 10);
    }

    #[test]
    fn long_distance_deps_cost_more_bytes() {
        let mut b = CircularTraceBuffer::new(1 << 20);
        b.push(rec(1_000_000, 0)); // huge gap and distance
        assert!(b.bytes() > 5);
    }

    #[test]
    fn empty_window() {
        let b = CircularTraceBuffer::new(16);
        assert_eq!(b.window(), None);
        assert_eq!(b.window_len(), 0);
        assert!(b.is_empty());
    }

    /// Byte total a decoder actually needs for the retained records: the
    /// head carries its absolute user step, every later record a gap
    /// from its (retained) predecessor.
    fn decodable_bytes(b: &CircularTraceBuffer) -> usize {
        let mut total = 0;
        let mut prev: Option<u64> = None;
        for r in b.records() {
            let dist = r.dep.user - r.dep.def;
            let gap = match prev {
                None => r.dep.user, // absolute anchor
                Some(p) => r.dep.user - p,
            };
            total += varint_len(gap) + varint_len(dist) + 1;
            prev = Some(r.dep.user);
        }
        total
    }

    #[test]
    fn eviction_reanchors_the_head_record() {
        // Late in a run the absolute anchor (3 varint bytes for step
        // ~1e6) costs more than the 1-byte gap the evicted predecessor
        // provided; the budget accounting must charge the anchor or
        // `bytes()` undercounts what a decodable stream needs.
        let mut b = CircularTraceBuffer::new(40);
        for i in 0..100u64 {
            b.push(rec(1_000_000 + i, 1_000_000 + i - 1));
        }
        assert!(b.evicted > 0, "must evict past the anchor");
        assert!(b.reanchors > 0, "surviving heads were re-accounted");
        assert_eq!(b.bytes(), decodable_bytes(&b), "accounting must match a real decoder");
        assert!(b.bytes() <= b.capacity_bytes());
        // Anchored head (3+1+1) + 3-byte deltas: the budget holds fewer
        // records than the old gap-only accounting claimed (12 vs 13).
        assert_eq!(b.len(), (40 - 5) / 3 + 1);
    }

    #[test]
    fn refill_after_full_eviction_stays_anchored() {
        // A tiny budget forces the buffer to drain completely; the next
        // record then heads the stream and must be absolute, even though
        // the *appended* stream has a predecessor.
        let mut b = CircularTraceBuffer::new(5);
        b.push(rec(1_000_000, 999_999)); // anchored: 3 + 1 + 1 = 5
        assert_eq!(b.bytes(), 5);
        b.push(rec(1_000_001, 1_000_000)); // delta 3B won't fit with head
        assert_eq!(b.len(), 1, "head evicted to fit");
        assert_eq!(b.bytes(), decodable_bytes(&b));
        assert_eq!(b.bytes(), 5, "survivor re-anchored to absolute");
    }

    /// The delta encoding's decodability invariant: user steps are
    /// monotone non-decreasing across pushes. A regressing record has
    /// no gap-varint encoding; in debug builds the buffer refuses it
    /// instead of silently accounting an undecodable gap-0 stream.
    #[test]
    #[should_panic(expected = "user step regressed")]
    #[cfg(debug_assertions)]
    fn regressing_user_step_is_rejected_in_debug() {
        let mut b = CircularTraceBuffer::new(1 << 10);
        b.push(rec(10, 9));
        b.push(rec(9, 8)); // regresses below last_user = 10
    }

    /// Same for the user→def distance: a def after its user would make
    /// the distance varint underflow.
    #[test]
    #[should_panic(expected = "follows its user")]
    #[cfg(debug_assertions)]
    fn def_after_user_is_rejected_in_debug() {
        let mut b = CircularTraceBuffer::new(1 << 10);
        b.push(rec(5, 7));
    }

    /// Equal user steps are fine (several dependences of one
    /// instruction instance): gap 0 is a legal, decodable delta.
    #[test]
    fn equal_user_steps_are_accepted() {
        let mut b = CircularTraceBuffer::new(1 << 10);
        b.push(rec(10, 9));
        b.push(rec(10, 8));
        b.push(rec(10, 10)); // self-dependence: dist 0 is legal too
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn push_with_reports_evictions_oldest_first() {
        let mut b = CircularTraceBuffer::new(30);
        let mut evicted = Vec::new();
        for i in 1..=100u64 {
            b.push_with(rec(i, i - 1), |r| evicted.push(r.dep.user));
        }
        assert_eq!(evicted.len() as u64, b.evicted);
        let mut sorted = evicted.clone();
        sorted.sort_unstable();
        assert_eq!(evicted, sorted, "evictions must be reported oldest first");
        // Evicted + retained = appended, with no overlap.
        let (lo, _) = b.window().unwrap();
        assert!(evicted.iter().all(|&u| u < lo));
    }

    #[test]
    fn bytes_appended_accumulates_across_evictions() {
        let mut b = CircularTraceBuffer::new(6);
        for i in 1..=4u64 {
            b.push(rec(i, i - 1));
        }
        assert_eq!(b.bytes_appended, 12);
        assert!(b.bytes() <= 6);
    }

    #[test]
    fn varint_roundtrips_and_matches_varint_len() {
        let samples = [0u64, 1, 127, 128, 129, 16_383, 16_384, 1 << 21, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &samples {
            let start = buf.len();
            put_varint(&mut buf, v);
            assert_eq!(buf.len() - start, varint_len(v), "encoded length of {v}");
        }
        let mut pos = 0;
        for &v in &samples {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // Truncated input decodes to None, not garbage.
        assert_eq!(get_varint(&[0x80], &mut 0), None);
    }
}
