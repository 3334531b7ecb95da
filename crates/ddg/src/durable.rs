//! Durable, checksummed on-disk storage for sealed cold-tier segments.
//!
//! PR 7's cold tier ([`crate::cold`]) made the window budget a cache
//! size instead of a correctness limit — but it was memory-resident, so
//! a crash lost the whole execution history and a flipped bit silently
//! produced a wrong slice. This module gives each sealed segment a
//! durable home with an integrity story strong enough to *prove*
//! robustness rather than hope for it.
//!
//! # Segment file format (version 1)
//!
//! One file per sealed segment, `NNNNNNNN.seg` (zero-padded sequence
//! number), little-endian throughout:
//!
//! ```text
//! offset  size  field
//!      0     4  magic          "DSG1"
//!      4     2  format version (1)
//!      6     2  reserved (0)
//!      8     4  record count
//!     12     8  first_user     pruning metadata: user-step range
//!     20     8  last_user
//!     28     8  min_def        pruning metadata: def-side lower bound
//!     36     4  payload_len
//!     40     4  payload_crc    CRC-32 (IEEE) over the varint payload
//!     44     4  header_crc     CRC-32 (IEEE) over bytes 0..44
//!     48     …  payload        the segment's gap-varint record bytes
//! ```
//!
//! The payload encoding is exactly [`crate::cold`]'s in-memory segment
//! encoding — spilling is a header prepend plus two CRCs, and loading
//! hands the bytes straight back to the cold tier's decoder.
//!
//! # Write discipline and the recovery ladder
//!
//! Spills write to `NNNNNNNN.seg.tmp`, `fsync`, then atomically rename
//! into place: a crash mid-spill leaves either a stale `.tmp` (removed
//! by the next open's scrub) or a fully-written segment — never a
//! half-visible one. Damage that slips past that discipline (torn
//! writeback after rename, media bit rot) is caught by the ladder:
//!
//! 1. **Load-time CRC** — every read verifies header and payload CRCs.
//! 2. **Decode-time metadata validation** — the cold tier re-derives
//!    `first_user`/`last_user`/`min_def`/`count` from the decoded
//!    records and rejects any disagreement with the header, so pruning
//!    metadata is never trusted blindly.
//! 3. **In-run verify** — [`crate::cold::ColdStore::verify`] forces
//!    rungs 1–2 over every sealed segment on demand.
//! 4. **Open-time scrub** — [`SegmentStore::open`] walks the directory,
//!    validates every segment through rungs 1–2, renames failures to
//!    `*.quarantine`, and reports what was lost.
//!
//! A segment that fails any rung is *quarantined*, its user-step range
//! recorded, and queries surface the loss as an explicit
//! `Degraded { missing_step_ranges }` outcome — never a panic, never a
//! silently wrong slice.
//!
//! Every read/write path is threaded with the [`crate::iofault`] oracle
//! (`F: IoFaultPlan`, [`NoopIoFaults`] by default): transient faults
//! ([`IoFaultSite::FsyncFail`], [`IoFaultSite::ShortRead`]) get bounded
//! retry+backoff, [`IoFaultSite::Enospc`] fails the spill so the caller
//! can fall back to memory, and the latent sites
//! ([`IoFaultSite::TornWrite`], [`IoFaultSite::BitFlip`]) plant exactly
//! the damage the ladder must catch.

use crate::cold::SegMeta;
use crate::iofault::{IoFaultPlan, IoFaultSite, NoopIoFaults};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// File magic: "DSG1" (DIFT segment, format lineage 1).
pub const SEGMENT_MAGIC: [u8; 4] = *b"DSG1";

/// On-disk format version; bump on any layout change.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed header length in bytes (see the module docs for the layout).
pub const HEADER_LEN: usize = 48;

/// Retries for transient I/O faults before the operation is treated as
/// permanently failed.
pub const MAX_IO_RETRIES: u32 = 3;

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// ubiquitous `crc32` polynomial, implemented locally so the durable
/// format has zero dependencies.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

/// Why a segment was rejected — one variant per recovery-ladder check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// File shorter than the fixed header, or wrong magic bytes.
    BadMagic,
    /// A format version this build does not understand.
    BadVersion,
    /// The header's own CRC does not match its bytes.
    HeaderCrc,
    /// Payload shorter than `payload_len` (torn write / truncation),
    /// or a record ran off the end of the payload.
    Truncated,
    /// Payload CRC mismatch (bit rot, torn writeback).
    PayloadCrc,
    /// A record field failed to decode (bad kind byte, def > user).
    BadRecord,
    /// The header's pruning metadata (`first_user`/`last_user`/
    /// `min_def`/`count`) disagrees with the decoded records.
    MetaMismatch,
    /// The file could not be read at all.
    Unreadable,
}

impl CorruptKind {
    /// Stable snake_case name for reports and JSON artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            CorruptKind::BadMagic => "bad_magic",
            CorruptKind::BadVersion => "bad_version",
            CorruptKind::HeaderCrc => "header_crc",
            CorruptKind::Truncated => "truncated",
            CorruptKind::PayloadCrc => "payload_crc",
            CorruptKind::BadRecord => "bad_record",
            CorruptKind::MetaMismatch => "meta_mismatch",
            CorruptKind::Unreadable => "unreadable",
        }
    }
}

/// Why a spill failed permanently.
#[derive(Debug)]
pub enum SpillError {
    /// An injected fault exhausted its budget (`Enospc` immediately,
    /// transient sites after [`MAX_IO_RETRIES`]).
    Fault(IoFaultSite),
    /// A real filesystem error survived the bounded retries.
    Io(io::Error),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Fault(site) => write!(f, "spill failed: injected {}", site.name()),
            SpillError::Io(e) => write!(f, "spill failed: {e}"),
        }
    }
}

/// Why a load failed.
#[derive(Debug)]
pub enum LoadError {
    /// An injected read fault exhausted [`MAX_IO_RETRIES`].
    Fault(IoFaultSite),
    /// The file failed a recovery-ladder check.
    Corrupt(CorruptKind),
    /// A real filesystem error (missing file, permissions, …).
    Io(io::Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Fault(site) => write!(f, "load failed: injected {}", site.name()),
            LoadError::Corrupt(kind) => write!(f, "load failed: {}", kind.name()),
            LoadError::Io(e) => write!(f, "load failed: {e}"),
        }
    }
}

/// One segment rejected by the open-time scrub.
#[derive(Clone, Debug)]
pub struct QuarantinedSeg {
    /// On-disk sequence number (the file is now `NNNNNNNN.seg.quarantine`).
    pub seq: u64,
    /// Which ladder rung rejected it.
    pub reason: CorruptKind,
    /// `[first_user, last_user]` from the header when it was readable —
    /// the step range queries will report as missing.
    pub step_range: Option<(u64, u64)>,
}

/// What the open-time scrub found.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// `.seg` files examined.
    pub scanned: usize,
    /// Segments that passed every ladder rung.
    pub ok: usize,
    /// Segments renamed to `*.quarantine`.
    pub quarantined: Vec<QuarantinedSeg>,
    /// Stale `.seg.tmp` files (crash mid-spill before rename) removed.
    pub stale_tmp_removed: usize,
    /// Wall time of the scrub.
    pub nanos: u64,
}

/// Cumulative I/O statistics, shared across clones of the store.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Segments successfully spilled to disk.
    pub spills: AtomicU64,
    /// Transient-fault retries performed (spill + load).
    pub retries: AtomicU64,
    /// Spills refused by an (injected) full filesystem.
    pub enospc: AtomicU64,
    /// Bytes currently written to segment files (headers + payloads).
    pub disk_bytes: AtomicU64,
    /// Successful segment loads.
    pub loads: AtomicU64,
}

/// A directory of checksummed segment files with atomic writes, fault
/// injection on every path, and an open-time scrub. One per durable
/// [`crate::cold::ColdStore`].
#[derive(Clone, Debug)]
pub struct SegmentStore<F: IoFaultPlan = NoopIoFaults> {
    dir: PathBuf,
    next_seq: u64,
    faults: F,
    stats: Arc<IoStats>,
}

fn encode_header(meta: &SegMeta, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // bytes 6..8 reserved (zero)
    h[8..12].copy_from_slice(&meta.count.to_le_bytes());
    h[12..20].copy_from_slice(&meta.first_user.to_le_bytes());
    h[20..28].copy_from_slice(&meta.last_user.to_le_bytes());
    h[28..36].copy_from_slice(&meta.min_def.to_le_bytes());
    h[36..40].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[40..44].copy_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&h[0..44]);
    h[44..48].copy_from_slice(&header_crc.to_le_bytes());
    h
}

/// Serialize a sealed segment into its on-disk image.
pub fn encode_segment(meta: &SegMeta, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&encode_header(meta, payload));
    out.extend_from_slice(payload);
    out
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().unwrap())
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().unwrap())
}

/// Parse and CRC-verify an on-disk segment image: ladder rung 1.
/// Returns the header's metadata and the (verified) payload slice.
pub fn parse_segment(bytes: &[u8]) -> Result<(SegMeta, &[u8]), CorruptKind> {
    if bytes.len() < HEADER_LEN || bytes[0..4] != SEGMENT_MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    if le_u32(&bytes[44..48]) != crc32(&bytes[0..44]) {
        return Err(CorruptKind::HeaderCrc);
    }
    if u16::from_le_bytes(bytes[4..6].try_into().unwrap()) != FORMAT_VERSION {
        return Err(CorruptKind::BadVersion);
    }
    let meta = SegMeta {
        count: le_u32(&bytes[8..12]),
        first_user: le_u64(&bytes[12..20]),
        last_user: le_u64(&bytes[20..28]),
        min_def: le_u64(&bytes[28..36]),
    };
    let payload_len = le_u32(&bytes[36..40]) as usize;
    if bytes.len() < HEADER_LEN + payload_len {
        return Err(CorruptKind::Truncated);
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    if le_u32(&bytes[40..44]) != crc32(payload) {
        return Err(CorruptKind::PayloadCrc);
    }
    Ok((meta, payload))
}

/// Best-effort `[first_user, last_user]` from a damaged image, for the
/// quarantine report. Trusts nothing but the magic and the byte count.
fn peek_range(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() >= 28 && bytes[0..4] == SEGMENT_MAGIC {
        Some((le_u64(&bytes[12..20]), le_u64(&bytes[20..28])))
    } else {
        None
    }
}

fn backoff(attempt: u32) {
    // Tiny exponential backoff: 50µs, 100µs, 200µs, … — enough shape
    // to be a real retry policy, cheap enough for tests.
    std::thread::sleep(std::time::Duration::from_micros(50u64 << attempt.min(6)));
}

impl SegmentStore {
    /// Create (or reuse) a store over `dir` with no fault injection.
    /// Existing segment files are *not* scanned — use [`open`] to
    /// recover state after a restart.
    ///
    /// [`open`]: SegmentStore::open
    pub fn create(dir: &Path) -> io::Result<SegmentStore> {
        SegmentStore::with_faults(dir, NoopIoFaults)
    }

    /// Reopen a store after a restart: scrub every `*.seg` file through
    /// recovery-ladder rungs 1–2, quarantine failures, remove stale
    /// `.tmp` files, and return the surviving manifest (ascending
    /// sequence order, `(seq, meta, payload_len)`) with the scrub
    /// report.
    #[allow(clippy::type_complexity)]
    pub fn open(dir: &Path) -> io::Result<(SegmentStore, Vec<(u64, SegMeta, u32)>, ScrubReport)> {
        let start = Instant::now();
        fs::create_dir_all(dir)?;
        let mut report = ScrubReport::default();
        let mut manifest: Vec<(u64, SegMeta, u32)> = Vec::new();
        let mut max_seq = 0u64;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if name.ends_with(".seg.tmp") {
                // A crash between write and rename: the segment was
                // never visible, so the tmp file is pure garbage.
                let _ = fs::remove_file(&path);
                report.stale_tmp_removed += 1;
                continue;
            }
            let Some(stem) = name.strip_suffix(".seg") else { continue };
            let Ok(seq) = stem.parse::<u64>() else { continue };
            max_seq = max_seq.max(seq + 1);
            report.scanned += 1;
            let verdict: Result<(SegMeta, u32), (CorruptKind, Option<(u64, u64)>)> =
                match fs::read(&path) {
                    Err(_) => Err((CorruptKind::Unreadable, None)),
                    Ok(bytes) => match parse_segment(&bytes) {
                        Err(kind) => Err((kind, peek_range(&bytes))),
                        Ok((meta, payload)) => {
                            match crate::cold::validate_payload(&meta, payload) {
                                Err(kind) => Err((kind, Some((meta.first_user, meta.last_user)))),
                                Ok(()) => Ok((meta, payload.len() as u32)),
                            }
                        }
                    },
                };
            match verdict {
                Ok((meta, payload_len)) => {
                    manifest.push((seq, meta, payload_len));
                    report.ok += 1;
                }
                Err((reason, step_range)) => {
                    let _ = fs::rename(&path, path.with_extension("seg.quarantine"));
                    report.quarantined.push(QuarantinedSeg { seq, reason, step_range });
                }
            }
        }
        manifest.sort_by_key(|&(seq, _, _)| seq);
        report.nanos = start.elapsed().as_nanos() as u64;
        let store = SegmentStore {
            dir: dir.to_path_buf(),
            next_seq: max_seq,
            faults: NoopIoFaults,
            stats: Arc::new(IoStats::default()),
        };
        store
            .stats
            .disk_bytes
            .store(manifest.iter().map(|(s, _, _)| store.file_len(*s)).sum(), Ordering::Relaxed);
        Ok((store, manifest, report))
    }
}

impl<F: IoFaultPlan> SegmentStore<F> {
    /// Create (or reuse) a store over `dir` with an armed fault plan.
    pub fn with_faults(dir: &Path, faults: F) -> io::Result<SegmentStore<F>> {
        fs::create_dir_all(dir)?;
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            next_seq: 0,
            faults,
            stats: Arc::new(IoStats::default()),
        })
    }

    fn seg_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{seq:08}.seg"))
    }

    fn tmp_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{seq:08}.seg.tmp"))
    }

    fn file_len(&self, seq: u64) -> u64 {
        fs::metadata(self.seg_path(seq)).map(|m| m.len()).unwrap_or(0)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shared I/O statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Spill one sealed segment. On success the file
    /// `{seq:08}.seg` exists, fsynced, with a verified-writable
    /// header-plus-payload image; on [`SpillError`] nothing durable was
    /// claimed and the caller keeps the segment in memory.
    ///
    /// Every call consumes a sequence number, success or not, so
    /// segment sequence numbers are stable across fault plans — the
    /// property the differential proptest uses to predict which step
    /// ranges a scripted fault destroys.
    pub fn spill(&mut self, meta: &SegMeta, payload: &[u8]) -> Result<u64, SpillError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = encode_segment(meta, payload);
        let final_path = self.seg_path(seq);
        let mut attempt: u32 = 0;
        loop {
            if F::ARMED && self.faults.fires(IoFaultSite::Enospc, seq, attempt) {
                self.stats.enospc.fetch_add(1, Ordering::Relaxed);
                return Err(SpillError::Fault(IoFaultSite::Enospc));
            }
            if F::ARMED && self.faults.fires(IoFaultSite::TornWrite, seq, attempt) {
                // Simulated crash after rename but before writeback
                // finished: a prefix of the image is visible at the
                // final path and the store believes the spill worked.
                let keep = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
                fs::write(&final_path, &bytes[..keep]).map_err(SpillError::Io)?;
                self.stats.spills.fetch_add(1, Ordering::Relaxed);
                self.stats.disk_bytes.fetch_add(keep as u64, Ordering::Relaxed);
                return Ok(seq);
            }
            let mut image: &[u8] = &bytes;
            let flipped: Vec<u8>;
            if F::ARMED
                && self.faults.fires(IoFaultSite::BitFlip, seq, attempt)
                && bytes.len() > HEADER_LEN
            {
                // One flipped payload bit, deterministically placed.
                let mut owned = bytes.clone();
                let span = owned.len() - HEADER_LEN;
                let idx = HEADER_LEN + (seq as usize).wrapping_mul(7919) % span;
                owned[idx] ^= 1 << (seq % 8);
                flipped = owned;
                image = &flipped;
            }
            let tmp = self.tmp_path(seq);
            let wrote: io::Result<()> = (|| {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(image)?;
                if F::ARMED && self.faults.fires(IoFaultSite::FsyncFail, seq, attempt) {
                    return Err(io::Error::other("injected fsync failure"));
                }
                f.sync_all()
            })();
            match wrote {
                Ok(()) => {
                    fs::rename(&tmp, &final_path).map_err(SpillError::Io)?;
                    self.stats.spills.fetch_add(1, Ordering::Relaxed);
                    self.stats.disk_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    return Ok(seq);
                }
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    if attempt >= MAX_IO_RETRIES {
                        let injected =
                            F::ARMED && self.faults.fires(IoFaultSite::FsyncFail, seq, attempt);
                        return Err(if injected {
                            SpillError::Fault(IoFaultSite::FsyncFail)
                        } else {
                            SpillError::Io(e)
                        });
                    }
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    backoff(attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// Load and verify one segment's payload: CRC checks (rung 1) plus
    /// a cross-check of the header against the metadata the cold tier
    /// remembers for this sequence number.
    pub fn load(&self, seq: u64, expect: &SegMeta) -> Result<Vec<u8>, LoadError> {
        let path = self.seg_path(seq);
        let mut attempt: u32 = 0;
        loop {
            if F::ARMED && self.faults.fires(IoFaultSite::ShortRead, seq, attempt) {
                if attempt >= MAX_IO_RETRIES {
                    return Err(LoadError::Fault(IoFaultSite::ShortRead));
                }
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                backoff(attempt);
                attempt += 1;
                continue;
            }
            let bytes = fs::read(&path).map_err(LoadError::Io)?;
            let (meta, payload) = parse_segment(&bytes).map_err(LoadError::Corrupt)?;
            if meta != *expect {
                return Err(LoadError::Corrupt(CorruptKind::MetaMismatch));
            }
            self.stats.loads.fetch_add(1, Ordering::Relaxed);
            return Ok(payload.to_vec());
        }
    }

    /// Rename a damaged segment file to `*.quarantine` so it is never
    /// read again (and survives for postmortems). Best-effort: a file
    /// that is already gone is fine.
    pub fn quarantine(&self, seq: u64) {
        let path = self.seg_path(seq);
        let _ = fs::rename(&path, path.with_extension("seg.quarantine"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    fn meta() -> SegMeta {
        SegMeta { first_user: 10, last_user: 20, min_def: 5, count: 3 }
    }

    #[test]
    fn encode_parse_roundtrip() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let img = encode_segment(&meta(), &payload);
        assert_eq!(img.len(), HEADER_LEN + payload.len());
        let (m, p) = parse_segment(&img).unwrap();
        assert_eq!(m, meta());
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn parse_rejects_each_damage_class() {
        let payload = vec![7u8; 32];
        let img = encode_segment(&meta(), &payload);

        assert_eq!(parse_segment(&img[..3]).unwrap_err(), CorruptKind::BadMagic);

        let mut bad_magic = img.clone();
        bad_magic[0] = b'X';
        assert_eq!(parse_segment(&bad_magic).unwrap_err(), CorruptKind::BadMagic);

        let mut bad_header = img.clone();
        bad_header[12] ^= 0xff; // first_user, covered by header_crc
        assert_eq!(parse_segment(&bad_header).unwrap_err(), CorruptKind::HeaderCrc);

        // A future version must be rejected even with a valid CRC.
        let mut v2 = img.clone();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        let crc = crc32(&v2[0..44]);
        v2[44..48].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(parse_segment(&v2).unwrap_err(), CorruptKind::BadVersion);

        let torn = &img[..img.len() - 5];
        assert_eq!(parse_segment(torn).unwrap_err(), CorruptKind::Truncated);

        let mut flipped = img.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(parse_segment(&flipped).unwrap_err(), CorruptKind::PayloadCrc);
    }

    #[test]
    fn corrupt_kind_names_are_stable_and_unique() {
        let kinds = [
            CorruptKind::BadMagic,
            CorruptKind::BadVersion,
            CorruptKind::HeaderCrc,
            CorruptKind::Truncated,
            CorruptKind::PayloadCrc,
            CorruptKind::BadRecord,
            CorruptKind::MetaMismatch,
            CorruptKind::Unreadable,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
        }
    }
}
