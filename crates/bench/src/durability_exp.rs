//! T8 — durable cold tier: spill/scan throughput and crash recovery.
//!
//! The numbers behind `report durability` (`BENCH_durability.json`).
//! Three parts:
//!
//! * **Synthetic spill/scan sweep** — a dense monotone record stream is
//!   appended through a durable [`ColdStore`] (seal → checksummed
//!   segment file via temp-file + atomic rename), then the directory is
//!   reopened cold and every segment decoded back. Headlines:
//!   `disk_bytes_per_record` (gated; the gap-varint encoding must keep
//!   its ~9 B/record on disk too — the 48-byte header amortizes over
//!   1024-record segments) and the ungated spill/scan throughputs.
//! * **Crash recovery** — the same stream spilled through a scripted
//!   [`IoFaultSite::TornWrite`] on the *final* segment: the reopen
//!   scrub must quarantine exactly the torn tail and keep everything
//!   else (`recovered_fraction`, gated; deterministic `(K-1)/K`), with
//!   the scrub's wall-clock reported as `scrub_ms`.
//! * **Durable stitched identity** — every SPEC-like kernel at an
//!   eviction-heavy budget with `durable_dir` set, so evicted records
//!   round-trip through disk before stitched queries read them back.
//!   Answers must stay bit-identical to an offline
//!   [`Slicer`](dift_slicing::Slicer) over the full never-evicted
//!   trace (`identical_fraction`, gated at 1.0 by the shared rule).

// `synth` is the history experiment's record stream, so on-disk density
// is directly comparable to the in-memory cold tier's.
use crate::history_exp::{stitched_vs_offline, synth};
use crate::slicing_exp::run_ontrac;
use crate::{Scale, Table};
use dift_ddg::cold::SEGMENT_RECORDS;
use dift_ddg::iofault::{IoFaultSite, ScriptedIoFaults};
use dift_ddg::ColdStore;
use dift_workloads::spec::all_spec;
use dift_workloads::Workload;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// One kernel at the eviction-heavy budget with the durable tier on.
#[derive(Clone, Debug, Serialize)]
pub struct DurabilityRow {
    /// Stable row key (`mcf_like@768B`) so compare lines up cells.
    pub name: String,
    pub workload: String,
    pub budget_bytes: usize,
    /// Records evicted into the durable cold tier.
    pub evicted: u64,
    /// Sealed + open cold segments.
    pub cold_segments: u64,
    /// Bytes of sealed segment files on disk.
    pub disk_bytes: u64,
    /// disk_bytes / evicted — on-disk density per row.
    pub disk_bytes_per_record: f64,
    pub queries: u64,
    /// Mean us per stitched query (live snapshot + disk-backed cold).
    pub stitched_us_per_query: f64,
    /// Stitched answers == offline Slicer over the full trace.
    pub identical: bool,
    /// `ColdStore::verify` found nothing after the queries ran.
    pub scrub_clean: bool,
}

/// The crash-recovery scenario: a torn write on the final segment.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryRow {
    /// Segment files the reopen scrub examined.
    pub segments_scanned: u64,
    /// Segments quarantined (exactly the torn tail).
    pub quarantined: u64,
    /// ok / scanned — deterministic `(K-1)/K` (gated).
    pub recovered_fraction: f64,
    /// Wall-clock of the reopen scrub (header + CRC walk).
    pub scrub_ms: f64,
    /// The reopened store holds every surviving record and reports
    /// exactly the torn tail's step range as missing.
    pub reopened_query_ok: bool,
}

/// The machine-readable report behind `BENCH_durability.json`.
#[derive(Clone, Debug, Serialize)]
pub struct DurabilityReport {
    pub scale: String,
    pub label: String,
    /// Synthetic records spilled (seal + checksum + fsync + rename).
    pub spill_records: u64,
    /// Millions of records sealed to disk per second (ungated:
    /// host-dependent).
    pub spill_mrecs_per_s: f64,
    /// Millions of records decoded back per second from a cold reopen
    /// (ungated: host-dependent).
    pub scan_mrecs_per_s: f64,
    /// Disk bytes per record in the synthetic sweep (gated,
    /// lower-is-better).
    pub disk_bytes_per_record: f64,
    pub recovery: RecoveryRow,
    pub rows: Vec<DurabilityRow>,
    /// Fraction of kernel rows whose stitched answers matched the
    /// offline full-trace Slicer bit-for-bit (gated: 1.0).
    pub identical_fraction: f64,
    pub total_queries: u64,
}

/// Fresh scratch directory under the OS tmpdir (the bench binary runs
/// from the repo root; segment files must not land there).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dift_durability_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spill `records` synthetic records to disk, then reopen cold and
/// decode everything back. Returns (spill seconds, scan seconds, disk
/// bytes).
fn spill_scan(records: u64, tag: &str) -> (f64, f64, u64) {
    let dir = scratch(tag);
    let mut cold = ColdStore::durable(&dir).expect("create durable store");
    let t0 = Instant::now();
    for step in 1..=records {
        cold.append(&synth(step));
    }
    cold.flush();
    let spill_s = t0.elapsed().as_secs_f64();
    let disk_bytes = cold.disk_bytes();
    assert_eq!(cold.record_count(), records);
    drop(cold);

    let t0 = Instant::now();
    let (reopened, report) = ColdStore::reopen(&dir).expect("reopen");
    let missing = reopened.verify(); // force-decode every segment
    let scan_s = t0.elapsed().as_secs_f64();
    assert!(missing.is_empty(), "clean spill must scrub clean");
    assert_eq!(report.quarantined.len(), 0);
    assert_eq!(reopened.record_count(), records);
    let _ = std::fs::remove_dir_all(&dir);
    (spill_s, scan_s, disk_bytes)
}

/// Crash-recovery scenario: K full segments, the last one torn
/// mid-write, reopened cold. The scrub must keep exactly K-1.
fn recovery_row(segments: u64) -> RecoveryRow {
    let dir = scratch("recovery");
    let records = segments * u64::from(SEGMENT_RECORDS);
    let plan = ScriptedIoFaults::single(IoFaultSite::TornWrite, segments - 1);
    let mut cold = ColdStore::durable_with_faults(&dir, plan).expect("create durable store");
    for step in 1..=records {
        cold.append(&synth(step));
    }
    cold.flush();
    drop(cold);

    let (reopened, report) = ColdStore::reopen(&dir).expect("reopen");
    let missing = reopened.verify();
    // The torn tail covers exactly the last segment's user steps.
    let tail = (records - u64::from(SEGMENT_RECORDS) + 1, records);
    let reopened_query_ok =
        reopened.record_count() == records - u64::from(SEGMENT_RECORDS) && missing == vec![tail];
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryRow {
        segments_scanned: report.scanned as u64,
        quarantined: report.quarantined.len() as u64,
        recovered_fraction: report.ok as f64 / report.scanned.max(1) as f64,
        scrub_ms: report.nanos as f64 / 1e6,
        reopened_query_ok,
    }
}

fn measure_row(w: &Workload, budget: usize, per_row: usize, reps: usize) -> DurabilityRow {
    let dir = scratch(&w.name);
    let tracer = run_ontrac(w, budget, |c| c.durable_dir = Some(dir.clone()));
    let (queries, stitched_s, identical) = stitched_vs_offline(w, &tracer, per_row, reps);
    let cold = tracer.cold_store().expect("durable_dir implies the cold tier");
    debug_assert!(cold.is_durable(), "the durable dir was usable");
    let scrub_clean = cold.verify().is_empty();

    let evicted = tracer.buffer().evicted;
    let disk_bytes = cold.disk_bytes();
    let row = DurabilityRow {
        name: format!("{}@{budget}B", w.name),
        workload: w.name.clone(),
        budget_bytes: budget,
        evicted,
        cold_segments: cold.segment_count() as u64,
        disk_bytes,
        disk_bytes_per_record: disk_bytes as f64 / evicted.max(1) as f64,
        queries: queries as u64,
        stitched_us_per_query: stitched_s / queries.max(1) as f64 * 1e6,
        identical,
        scrub_clean,
    };
    drop(tracer);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// Measure the durability report.
pub fn durability_report(scale: Scale) -> DurabilityReport {
    let (sweep_records, recovery_segments, budget, per_row, reps): (u64, u64, usize, usize, usize) =
        match scale {
            Scale::Test => (6 * u64::from(SEGMENT_RECORDS), 4, 768, 12, 3),
            Scale::Paper => (64 * u64::from(SEGMENT_RECORDS), 16, 4 << 10, 24, 5),
        };
    let (spill_s, scan_s, disk_bytes) = spill_scan(sweep_records, "sweep");
    let recovery = recovery_row(recovery_segments);

    let mut rows = Vec::new();
    for w in &all_spec(scale.spec_size()) {
        rows.push(measure_row(w, budget, per_row, reps));
    }
    let n = rows.len().max(1) as f64;
    DurabilityReport {
        scale: format!("{scale:?}").to_lowercase(),
        label: "durable cold tier: checksummed segment spill/scan, torn-write recovery, \
                disk-backed stitched queries vs offline full-trace slicer"
            .into(),
        spill_records: sweep_records,
        spill_mrecs_per_s: sweep_records as f64 / spill_s.max(1e-9) / 1e6,
        scan_mrecs_per_s: sweep_records as f64 / scan_s.max(1e-9) / 1e6,
        disk_bytes_per_record: disk_bytes as f64 / sweep_records.max(1) as f64,
        recovery,
        identical_fraction: rows.iter().filter(|r| r.identical && r.scrub_clean).count() as f64 / n,
        total_queries: rows.iter().map(|r| r.queries).sum(),
        rows,
    }
}

/// T8 as a printable table (shares measurements with the JSON report).
pub fn durability_to_table(r: &DurabilityReport) -> Table {
    let mut t = Table::new(
        "T8",
        "durable cold tier: checksummed segments, crash recovery, disk-backed slices",
        "sealed segments survive a process exit behind CRC-checked atomic renames; a torn \
         tail costs exactly one segment at reopen; stitched queries over disk stay \
         bit-identical to the offline full-trace slicer",
        &["row", "records", "segments", "B/rec disk", "throughput", "recovered", "identical"],
    );
    t.row(vec![
        "spill".into(),
        r.spill_records.to_string(),
        "-".into(),
        format!("{:.1}", r.disk_bytes_per_record),
        format!("{:.2} Mrec/s", r.spill_mrecs_per_s),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "scan (reopen)".into(),
        r.spill_records.to_string(),
        "-".into(),
        "-".into(),
        format!("{:.2} Mrec/s", r.scan_mrecs_per_s),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "torn-write tail".into(),
        "-".into(),
        r.recovery.segments_scanned.to_string(),
        "-".into(),
        format!("scrub {:.2} ms", r.recovery.scrub_ms),
        format!("{:.0}%", r.recovery.recovered_fraction * 100.0),
        if r.recovery.reopened_query_ok { "yes" } else { "NO" }.into(),
    ]);
    for row in &r.rows {
        t.row(vec![
            row.name.clone(),
            row.evicted.to_string(),
            row.cold_segments.to_string(),
            format!("{:.1}", row.disk_bytes_per_record),
            format!("{:.1} us/q", row.stitched_us_per_query),
            "-".into(),
            if row.identical && row.scrub_clean { "yes" } else { "NO" }.into(),
        ]);
    }
    t.row(vec![
        "summary".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.0}%", r.recovery.recovered_fraction * 100.0),
        format!("{:.0}%", r.identical_fraction * 100.0),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_report_is_well_formed() {
        let _timing = crate::TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = durability_report(Scale::Test);
        assert_eq!(r.rows.len(), all_spec(Scale::Test.spec_size()).len());
        assert!(
            r.disk_bytes_per_record > 0.0 && r.disk_bytes_per_record < 12.0,
            "on-disk encoding should stay near the in-memory cold density, got {:.1}",
            r.disk_bytes_per_record
        );
        assert!(r.spill_mrecs_per_s > 0.0 && r.scan_mrecs_per_s > 0.0);
        // Recovery is deterministic: K segments, exactly the torn tail lost.
        assert_eq!(r.recovery.segments_scanned, 4);
        assert_eq!(r.recovery.quarantined, 1);
        assert!((r.recovery.recovered_fraction - 0.75).abs() < 1e-9);
        assert!(r.recovery.scrub_ms > 0.0);
        assert!(r.recovery.reopened_query_ok, "survivors must answer after reopen");
        assert_eq!(r.identical_fraction, 1.0, "disk-backed stitched answers must match");
        for row in &r.rows {
            assert!(row.evicted > 0, "{}: budget did not exercise the cold tier", row.name);
            assert!(row.disk_bytes > 0, "{}: nothing was spilled to disk", row.name);
            assert!(row.scrub_clean, "{}: clean run must scrub clean", row.name);
            assert!(
                row.disk_bytes_per_record > 0.0 && row.disk_bytes_per_record < 14.0,
                "{}: on-disk density should track the cold encoding, got {:.1}",
                row.name,
                row.disk_bytes_per_record
            );
        }
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("disk_bytes_per_record"));
        assert!(json.contains("recovered_fraction"));
        assert!(json.contains("identical_fraction"));
        assert!(json.contains("scrub_ms"));
    }
}
