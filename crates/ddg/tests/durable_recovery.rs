//! Crash-recovery and fault-injection tests for the durable cold tier.
//!
//! Each test builds a durable [`ColdStore`] in its own scratch
//! directory, injects one scripted I/O fault (or tampers with the files
//! directly, playing the filesystem), and asserts the recovery ladder's
//! contract: transient faults are retried invisibly, permanent ones
//! degrade gracefully, latent damage is quarantined with its exact
//! step range reported — and nothing ever panics or silently answers
//! wrong.

use dift_ddg::buffer::record;
use dift_ddg::cold::{ColdStore, ColdView, SEGMENT_RECORDS};
use dift_ddg::durable::{CorruptKind, HEADER_LEN, MAX_IO_RETRIES};
use dift_ddg::iofault::{IoFaultSite, ScriptedIoFaults};
use dift_ddg::DepKind;
use std::fs;
use std::path::PathBuf;

const S: u64 = SEGMENT_RECORDS as u64;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("durable_{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn rec(user: u64, def: u64) -> dift_ddg::buffer::BufRecord {
    record(user, def, DepKind::RegData, user as u32 % 11, def as u32 % 11, user as u32, def as u32)
}

/// Fill with `n` records `i -> i/2` for `i` in `1..=n`.
fn fill<F: dift_ddg::IoFaultPlan>(store: &mut ColdStore<F>, n: u64) {
    for i in 1..=n {
        store.append(&rec(i, i / 2));
    }
}

fn seg_files(dir: &std::path::Path, suffix: &str) -> Vec<String> {
    let mut v: Vec<String> = fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.ends_with(suffix))
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

#[test]
fn durable_roundtrip_matches_memory_only() {
    let dir = scratch("roundtrip");
    let n = S * 3 + 17;
    let mut mem = ColdStore::new();
    fill(&mut mem, n);
    {
        let mut dur = ColdStore::durable(&dir).unwrap();
        fill(&mut dur, n);
        dur.flush();
        assert!(dur.disk_bytes() > 0, "sealed segments must be on disk");
        assert!(dur.resident_bytes() == 0, "durable store keeps no sealed payloads resident");
    }
    // "Restart": recover purely from the files.
    let (reopened, report) = ColdStore::reopen(&dir).unwrap();
    assert_eq!(report.scanned, 4);
    assert_eq!(report.ok, 4);
    assert!(report.quarantined.is_empty());
    assert_eq!(reopened.record_count(), n);
    mem.flush();
    let mv = ColdView::new(&mem);
    let rv = ColdView::new(&reopened);
    for step in [1, 2, S, S + 1, 2 * S + 5, n - 1, n] {
        assert_eq!(mv.defs(step), rv.defs(step), "defs({step})");
        assert_eq!(mv.users(step), rv.users(step), "users({step})");
        assert_eq!(mv.meta_of(step), rv.meta_of(step), "meta_of({step})");
    }
    assert_eq!(mv.steps_at(3), rv.steps_at(3));
    assert!(reopened.verify().is_empty());
}

#[test]
fn torn_write_on_tail_quarantines_only_the_tail() {
    let dir = scratch("torn_tail");
    {
        // Seal exactly three segments; the third spill is torn — the
        // simulated crash mid-writeback on the newest segment.
        let plan = ScriptedIoFaults::single(IoFaultSite::TornWrite, 2);
        let mut store = ColdStore::durable_with_faults(&dir, plan).unwrap();
        fill(&mut store, S * 3);
        // The store believes all three spills succeeded (latent damage).
        assert_eq!(store.segment_metas().len(), 3);
        assert_eq!(store.mem_fallbacks(), 0);
    }
    // Plant a stale tmp file too: crash between write and rename.
    fs::write(dir.join("00000099.seg.tmp"), b"garbage").unwrap();
    let (reopened, report) = ColdStore::reopen(&dir).unwrap();
    assert_eq!(report.scanned, 3);
    assert_eq!(report.ok, 2);
    assert_eq!(report.stale_tmp_removed, 1);
    assert_eq!(report.quarantined.len(), 1, "exactly the torn tail is lost");
    assert_eq!(report.quarantined[0].seq, 2);
    assert_eq!(report.quarantined[0].reason, CorruptKind::Truncated);
    assert!(report.nanos > 0, "scrub time is measured");
    assert_eq!(seg_files(&dir, ".seg.quarantine"), vec!["00000002.seg.quarantine"]);
    assert!(seg_files(&dir, ".seg.tmp").is_empty());
    // The surviving prefix answers; the lost range is named exactly.
    assert_eq!(reopened.record_count(), S * 2);
    assert_eq!(reopened.missing_step_ranges(), vec![(2 * S + 1, 3 * S)]);
    let view = ColdView::new(&reopened);
    assert_eq!(view.defs(5), vec![(2, DepKind::RegData)]);
    assert!(view.defs(2 * S + 5).is_empty(), "lost steps answer empty, not wrong");
}

#[test]
fn bit_flip_is_caught_by_payload_crc_on_reopen() {
    let dir = scratch("bitflip_reopen");
    {
        let mut store = ColdStore::durable(&dir).unwrap();
        fill(&mut store, S);
    }
    // Media bit rot after a clean shutdown.
    let path = dir.join("00000000.seg");
    let mut bytes = fs::read(&path).unwrap();
    bytes[HEADER_LEN + 5] ^= 0x10;
    fs::write(&path, &bytes).unwrap();
    let (reopened, report) = ColdStore::reopen(&dir).unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].reason, CorruptKind::PayloadCrc);
    assert_eq!(report.quarantined[0].step_range, Some((1, S)));
    assert_eq!(reopened.missing_step_ranges(), vec![(1, S)]);
}

#[test]
fn bit_flip_in_run_is_quarantined_at_load_not_panicked() {
    let dir = scratch("bitflip_live");
    let plan = ScriptedIoFaults::single(IoFaultSite::BitFlip, 0);
    let mut store = ColdStore::durable_with_faults(&dir, plan).unwrap();
    fill(&mut store, S * 2);
    let view = ColdView::new(&store);
    // Segment 0 is flipped on disk: the load's CRC catches it.
    assert!(view.defs(5).is_empty());
    assert_eq!(store.corrupt_segments(), 1);
    assert_eq!(store.corruption_events()[0].reason, CorruptKind::PayloadCrc);
    assert_eq!(store.missing_step_ranges(), vec![(1, S)]);
    // Segment 1 is healthy.
    assert_eq!(view.defs(S + 5), vec![((S + 5) / 2, DepKind::RegData)]);
    // The damaged file was preserved for postmortems.
    assert_eq!(seg_files(&dir, ".seg.quarantine"), vec!["00000000.seg.quarantine"]);
}

#[test]
fn enospc_degrades_to_memory_without_losing_records() {
    let dir = scratch("enospc");
    let plan = ScriptedIoFaults::single(IoFaultSite::Enospc, 0);
    let mut store = ColdStore::durable_with_faults(&dir, plan).unwrap();
    fill(&mut store, S * 2);
    // Segment 0's spill hit the full disk and stayed resident;
    // segment 1 spilled normally.
    assert_eq!(store.mem_fallbacks(), 1);
    assert_eq!(store.durable_stats().unwrap().enospc.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert!(store.resident_bytes() > 0);
    assert_eq!(seg_files(&dir, ".seg"), vec!["00000001.seg"]);
    // Queries are oblivious: both segments answer.
    let view = ColdView::new(&store);
    assert_eq!(view.defs(5), vec![(2, DepKind::RegData)]);
    assert_eq!(view.defs(S + 5), vec![((S + 5) / 2, DepKind::RegData)]);
    assert!(store.verify().is_empty(), "nothing was lost");
}

#[test]
fn transient_fsync_failure_is_retried_to_success() {
    let dir = scratch("fsync_retry");
    let plan = ScriptedIoFaults::single(IoFaultSite::FsyncFail, 0);
    let mut store = ColdStore::durable_with_faults(&dir, plan).unwrap();
    fill(&mut store, S);
    let stats = store.durable_stats().unwrap();
    assert_eq!(stats.spills.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert!(stats.retries.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert_eq!(store.mem_fallbacks(), 0, "a transient fault must not degrade");
    assert_eq!(seg_files(&dir, ".seg"), vec!["00000000.seg"]);
    assert!(store.verify().is_empty());
}

#[test]
fn exhausted_fsync_failures_fall_back_to_memory() {
    let dir = scratch("fsync_exhaust");
    let plan = ScriptedIoFaults::persistent(IoFaultSite::FsyncFail, 0, MAX_IO_RETRIES);
    let mut store = ColdStore::durable_with_faults(&dir, plan).unwrap();
    fill(&mut store, S);
    assert_eq!(store.mem_fallbacks(), 1);
    assert!(seg_files(&dir, ".seg").is_empty());
    let view = ColdView::new(&store);
    assert_eq!(view.defs(5), vec![(2, DepKind::RegData)], "records survive in memory");
}

#[test]
fn transient_short_read_is_retried_to_success() {
    let dir = scratch("shortread_retry");
    let plan = ScriptedIoFaults::single(IoFaultSite::ShortRead, 0);
    let mut store = ColdStore::durable_with_faults(&dir, plan).unwrap();
    fill(&mut store, S);
    let view = ColdView::new(&store);
    assert_eq!(view.defs(5), vec![(2, DepKind::RegData)]);
    assert!(store.durable_stats().unwrap().retries.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert_eq!(store.corrupt_segments(), 0);
}

#[test]
fn exhausted_short_reads_mark_the_segment_missing() {
    let dir = scratch("shortread_exhaust");
    let plan = ScriptedIoFaults::persistent(IoFaultSite::ShortRead, 0, MAX_IO_RETRIES);
    let mut store = ColdStore::durable_with_faults(&dir, plan).unwrap();
    fill(&mut store, S);
    let view = ColdView::new(&store);
    assert!(view.defs(5).is_empty(), "unreadable segment answers empty");
    assert_eq!(store.corruption_events()[0].reason, CorruptKind::Unreadable);
    assert_eq!(store.missing_step_ranges(), vec![(1, S)]);
}

#[test]
fn two_readers_decode_a_shared_segment_once() {
    let dir = scratch("shared_memo");
    let mut store = ColdStore::durable(&dir).unwrap();
    fill(&mut store, S);
    let store = store; // freeze: clones share the memo
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let reader = store.clone();
            scope.spawn(move || {
                let view = ColdView::new(&reader);
                assert_eq!(view.defs(5), vec![(2, DepKind::RegData)]);
            });
        }
    });
    // Decode happens under the memo lock: exactly one miss, the other
    // reader hit the shared entry.
    assert_eq!(store.memo_misses(), 1, "the segment must be decoded exactly once");
    assert_eq!(store.memo_hits(), 1);
}

#[test]
fn memo_capacity_bounds_resident_decodes() {
    let mut store = ColdStore::new();
    fill(&mut store, S * 4);
    store.set_memo_capacity(1);
    let view = ColdView::new(&store);
    let _ = view.defs(5); // segment 0
    let _ = view.defs(S + 5); // segment 1: evicts 0
    let _ = view.defs(5); // segment 0 again: re-decode
    assert_eq!(store.memo_misses(), 3);
    assert!(store.memo_evictions() >= 2);
}

#[test]
fn durable_or_memory_degrades_when_the_path_is_unusable() {
    // A file where the directory should be: creation fails, the store
    // degrades to memory instead of failing the run.
    let dir = scratch("bad_dir");
    fs::create_dir_all(dir.parent().unwrap()).unwrap();
    fs::write(&dir, b"not a directory").unwrap();
    let mut store = ColdStore::durable_or_memory(&dir);
    assert!(!store.is_durable());
    assert_eq!(store.mem_fallbacks(), 1);
    fill(&mut store, S);
    let view = ColdView::new(&store);
    assert_eq!(view.defs(5), vec![(2, DepKind::RegData)]);
}
