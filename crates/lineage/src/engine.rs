//! The set-valued DIFT engine.

use crate::backend::LineageBackend;
use crate::costs;
use dift_dbi::Tool;
use dift_isa::{MemAddr, Opcode, Reg, NUM_REGS};
use dift_vm::{Machine, RunResult, StepEffects, ThreadId};
use std::collections::HashMap;

/// Instructions between samples of the peak shadow statistics. A sample
/// only reads the backend's running count; the cadence is fixed because
/// the E7/E7a peaks are defined at these sample points.
const SAMPLE_EVERY: u64 = 64;

/// Lineage-tracing statistics (the E7 rows).
#[derive(Clone, Debug, Default)]
pub struct LineageStats {
    pub instrs: u64,
    pub unions: u64,
    /// Peak bytes of shadow lineage state.
    pub peak_shadow_bytes: usize,
    /// Peak tainted (lineage-carrying) memory words.
    pub peak_tracked_words: usize,
    /// Largest single lineage set observed at an output.
    pub max_output_set: u64,
}

/// The lineage engine, generic over the set backend.
///
/// Fields are `pub(crate)` so the shard-compose path
/// ([`crate::shard`]) can apply per-epoch symbolic summaries directly
/// to the shadow state. Every write of a register or memory row goes
/// through `set_reg` / `set_mem`, which keep the backend's retained sets
/// equal to the resident ones.
pub struct LineageEngine<B: LineageBackend> {
    pub(crate) backend: B,
    pub(crate) regs: Vec<Vec<B::Set>>,
    pub(crate) mem: HashMap<MemAddr, B::Set>,
    pub(crate) inputs_seen: u64,
    /// Channel that produced input index `i` (indexed by input index).
    pub(crate) input_channels: Vec<u16>,
    /// `(channel, emit index, lineage elements)` per output word.
    pub outputs: Vec<(u16, u64, Vec<u64>)>,
    pub(crate) out_counts: HashMap<u16, u64>,
    pub(crate) stats: LineageStats,
}

impl<B: LineageBackend> LineageEngine<B> {
    pub fn new(backend: B) -> LineageEngine<B> {
        LineageEngine {
            backend,
            regs: Vec::new(),
            mem: HashMap::new(),
            inputs_seen: 0,
            input_channels: Vec::new(),
            outputs: Vec::new(),
            out_counts: HashMap::new(),
            stats: LineageStats::default(),
        }
    }

    pub fn stats(&self) -> &LineageStats {
        &self.stats
    }

    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Total input words consumed so far (= next input index).
    pub fn inputs_seen(&self) -> u64 {
        self.inputs_seen
    }

    pub(crate) fn ensure_tid(&mut self, tid: ThreadId) {
        while self.regs.len() <= tid as usize {
            let empty = self.backend.empty();
            self.regs.push(vec![empty; NUM_REGS]);
        }
    }

    /// Overwrite a register's set. The new set is retained before the
    /// old one is released, so nodes they share never drop out of the
    /// backend's live count.
    pub(crate) fn set_reg(&mut self, tid: ThreadId, r: Reg, set: B::Set) {
        self.backend.retain(&set);
        let old = std::mem::replace(&mut self.regs[tid as usize][r.index()], set);
        self.backend.release(&old);
    }

    /// Overwrite a memory cell's set; an empty set removes the cell.
    pub(crate) fn set_mem(&mut self, addr: MemAddr, set: B::Set) {
        let old = if self.backend.is_empty(&set) {
            self.mem.remove(&addr)
        } else {
            self.backend.retain(&set);
            self.mem.insert(addr, set)
        };
        if let Some(old) = old {
            self.backend.release(&old);
        }
    }

    /// Lineage of an output word, resolved to sorted input indices.
    ///
    /// Each `(channel, index)` pair occurs once in `outputs`. When one
    /// channel emitted every word so far, output `index` sits at position
    /// `index`, so that entry is tried first; otherwise a scan finds it.
    pub fn output_lineage(&self, channel: u16, index: u64) -> Option<&[u64]> {
        let is = |o: &&(u16, u64, Vec<u64>)| o.0 == channel && o.1 == index;
        let direct = usize::try_from(index).ok().and_then(|k| self.outputs.get(k));
        direct.filter(is).or_else(|| self.outputs.iter().find(is)).map(|o| o.2.as_slice())
    }

    /// Lineage of a live register, resolved to sorted input indices.
    pub fn reg_elements(&self, tid: ThreadId, reg: usize) -> Vec<u64> {
        self.regs
            .get(tid as usize)
            .and_then(|regs| regs.get(reg))
            .map(|s| self.backend.elements(s))
            .unwrap_or_default()
    }

    /// Lineage of a live memory cell, resolved to sorted input indices.
    pub fn mem_elements(&self, addr: MemAddr) -> Vec<u64> {
        self.mem.get(&addr).map(|s| self.backend.elements(s)).unwrap_or_default()
    }

    /// Bounded variant of [`reg_elements`](Self::reg_elements): the
    /// `limit` smallest indices, at cost proportional to the output.
    /// Reporting paths should prefer this.
    pub fn reg_elements_up_to(&self, tid: ThreadId, reg: usize, limit: usize) -> Vec<u64> {
        self.regs
            .get(tid as usize)
            .and_then(|regs| regs.get(reg))
            .map(|s| self.backend.elements_up_to(s, limit))
            .unwrap_or_default()
    }

    /// Bounded variant of [`mem_elements`](Self::mem_elements).
    pub fn mem_elements_up_to(&self, addr: MemAddr, limit: usize) -> Vec<u64> {
        self.mem.get(&addr).map(|s| self.backend.elements_up_to(s, limit)).unwrap_or_default()
    }

    /// Channel that produced each input index (indexed by input index).
    pub fn input_channels(&self) -> &[u16] {
        &self.input_channels
    }

    /// Apply one step's effects to the lineage state, Machine-free.
    ///
    /// Returns the cycle charge the instrumented machine should pay
    /// ([`costs::LINEAGE_PER_INSN`] plus per-union backend costs); the
    /// [`Tool`] impl forwards it to [`Machine::charge`], offline
    /// consumers (the sentinel's sink observer) discard or re-account
    /// it.
    pub fn process(&mut self, fx: &StepEffects) -> u64 {
        let tid = fx.tid;
        self.ensure_tid(tid);
        let t = tid as usize;
        self.stats.instrs += 1;
        let mut charge = costs::LINEAGE_PER_INSN;

        // Source label.
        let out_set = if let Opcode::In { channel, .. } = fx.insn.op {
            let idx = self.inputs_seen;
            self.inputs_seen += 1;
            debug_assert_eq!(self.input_channels.len() as u64, idx);
            self.input_channels.push(channel);
            self.backend.singleton(idx)
        } else {
            // Union of data sources.
            let mut acc = self.backend.empty();
            for r in &fx.insn.data_uses() {
                let s = self.regs[t][r.index()].clone();
                if !self.backend.is_empty(&s) {
                    let (u, c) = self.backend.union(&acc, &s);
                    acc = u;
                    self.stats.unions += 1;
                    charge += c;
                }
            }
            if let Some((addr, _)) = fx.mem_read {
                if let Some(s) = self.mem.get(&addr).cloned() {
                    let (u, c) = self.backend.union(&acc, &s);
                    acc = u;
                    self.stats.unions += 1;
                    charge += c;
                }
            }
            acc
        };

        if let Some((r, _, _)) = fx.reg_write {
            self.set_reg(tid, r, out_set.clone());
        }
        if let Some((addr, _, _)) = fx.mem_write {
            self.set_mem(addr, out_set);
        }

        if let Some((ch, _)) = fx.output {
            let idx = self.out_counts.entry(ch).or_insert(0);
            let set = fx
                .insn
                .data_uses()
                .as_slice()
                .first()
                .map(|r| self.regs[t][r.index()].clone())
                .unwrap_or_else(|| self.backend.empty());
            let elems = self.backend.elements(&set);
            self.stats.max_output_set = self.stats.max_output_set.max(elems.len() as u64);
            self.outputs.push((ch, *idx, elems));
            *idx += 1;
        }

        if self.stats.instrs % SAMPLE_EVERY == 0 {
            self.sample_memory();
        }
        charge
    }

    /// Fold the current resident shadow state (memory cells plus live
    /// register sets, as counted by the backend) into the peaks.
    pub(crate) fn sample_memory(&mut self) {
        let st = &mut self.stats;
        st.peak_shadow_bytes = st.peak_shadow_bytes.max(self.backend.shadow_bytes());
        st.peak_tracked_words = st.peak_tracked_words.max(self.mem.len());
    }
}

impl<B: LineageBackend> Tool for LineageEngine<B> {
    fn after(&mut self, m: &mut Machine, fx: &StepEffects) {
        let charge = self.process(fx);
        m.charge(charge);
    }

    fn on_finish(&mut self, _m: &mut Machine, _r: &RunResult) {
        self.sample_memory();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BddBackend, NaiveBackend};
    use crate::shard::summarize_lineage_epoch;
    use dift_dbi::Engine;
    use dift_robdd::NodeId;
    use dift_taint::IoBase;
    use dift_workloads::science::{self, SciencePipeline};
    use dift_workloads::server::{server_with_streams, ServerConfig};
    use dift_workloads::Workload;

    fn run_pipeline<B: LineageBackend>(p: &SciencePipeline, backend: B) -> (LineageEngine<B>, u64) {
        let m = p.workload.machine();
        let mut eng = LineageEngine::new(backend);
        let mut dbi = Engine::new(m);
        let r = dbi.run_tool(&mut eng);
        assert!(r.status.is_clean(), "{:?}", r.status);
        (eng, r.cycles)
    }

    #[test]
    fn binning_lineage_matches_ground_truth_bdd() {
        let p = science::binning(32, 8);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "bin {k}");
        }
    }

    #[test]
    fn binning_lineage_matches_ground_truth_naive() {
        let p = science::binning(32, 8);
        let (eng, _) = run_pipeline(&p, NaiveBackend::new());
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "bin {k}");
        }
    }

    #[test]
    fn window_lineage_matches_ground_truth() {
        let p = science::sliding_window(24, 4);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "window {k}");
        }
    }

    #[test]
    fn scatter_lineage_matches_ground_truth() {
        let p = science::scatter_sum(48, 8);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "bin {k}");
        }
    }

    #[test]
    fn prefix_sum_lineage_matches_ground_truth() {
        let p = science::prefix_sum(24);
        let (eng, _) = run_pipeline(&p, BddBackend::new(16));
        for (k, want) in p.expected_lineage.iter().enumerate() {
            let got = eng.output_lineage(0, k as u64).expect("output traced");
            assert_eq!(got, want.as_slice(), "cell {k}");
        }
    }

    #[test]
    fn output_lineage_resolves_interleaved_channels() {
        // Emit k carries input k alone, on a channel that changes from
        // emit to emit, so the entry at position `index` often belongs
        // to another channel.
        let chans: [u16; 10] = [0, 1, 1, 0, 2, 0, 1, 2, 2, 0];
        let mut b = dift_isa::ProgramBuilder::new();
        b.func("main");
        for &ch in &chans {
            b.input(Reg(1), 5);
            b.output(Reg(1), ch);
        }
        b.halt();
        let w = Workload::new("interleaved", std::sync::Arc::new(b.build().unwrap()))
            .with_input(5, (0..chans.len() as u64).collect());
        let mut eng = LineageEngine::new(BddBackend::new(16));
        let r = Engine::new(w.machine()).run_tool(&mut eng);
        assert!(r.status.is_clean(), "{:?}", r.status);
        assert_eq!(eng.outputs.len(), chans.len());
        let mut elsewhere = 0;
        for (k, (ch, idx, elems)) in eng.outputs.iter().enumerate() {
            assert_eq!((*ch, elems.as_slice()), (chans[k], &[k as u64][..]));
            let scan = eng.outputs.iter().find(|o| o.0 == *ch && o.1 == *idx);
            assert_eq!(
                eng.output_lineage(*ch, *idx),
                scan.map(|o| o.2.as_slice()),
                "({ch}, {idx})"
            );
            elsewhere += usize::from(eng.outputs[*idx as usize].0 != *ch);
        }
        assert!(elsewhere > 0, "no query took the scan");
        for (ch, idx) in [(0, 4), (1, 3), (2, 3), (3, 0), (0, u64::MAX)] {
            assert_eq!(eng.output_lineage(ch, idx), None, "({ch}, {idx})");
        }
    }

    #[test]
    #[should_panic(expected = "id 16 does not fit the 4-bit id width")]
    fn input_ids_past_the_id_width_stop_the_run() {
        // Regression: the width check was a debug assertion, so release
        // builds dropped the high bits and traced input 16 as input 0.
        let p = science::binning(17, 1);
        run_pipeline(&p, BddBackend::new(4));
    }

    /// The full shadow scan the running counts replaced, kept as the
    /// oracle: the bytes a backend charges for `stored` resident sets.
    trait ScanOracle: LineageBackend {
        fn scan(&self, stored: &[&Self::Set]) -> usize;
    }

    impl ScanOracle for BddBackend {
        fn scan(&self, stored: &[&NodeId]) -> usize {
            let roots: Vec<NodeId> = stored.iter().map(|&&n| n).collect();
            self.manager().reachable(&roots) * 16 + stored.len() * 4
        }
    }

    impl ScanOracle for NaiveBackend {
        fn scan(&self, stored: &[&Self::Set]) -> usize {
            stored.iter().map(|s| 24 + s.len() * 8).sum()
        }
    }

    /// Oracle bytes of the engine's resident state: every memory cell
    /// plus every non-empty register set.
    fn scanned_bytes<B: ScanOracle>(eng: &LineageEngine<B>) -> usize {
        let mut stored: Vec<&B::Set> = eng.mem.values().collect();
        stored.extend(eng.regs.iter().flatten().filter(|s| !eng.backend.is_empty(s)));
        eng.backend.scan(&stored)
    }

    /// A 4-tenant kv server: tenants share one key space, so each reads
    /// values the others stored.
    fn multi_tenant_server() -> Workload {
        let streams = (0..4u64)
            .map(|tenant| {
                (0..20u64)
                    .flat_map(|i| {
                        let key = (tenant * 7 + i * 13) % 40 + 1;
                        if i % 3 == 0 {
                            [2, key, 0]
                        } else {
                            [1, key, tenant * 10_000 + i]
                        }
                    })
                    .collect()
            })
            .collect();
        let cfg = ServerConfig { workers: 4, requests_per_worker: 20, ..ServerConfig::default() };
        server_with_streams(cfg, streams)
    }

    /// The science pipelines, the multi-tenant kv server and the E7a
    /// prefix-sum sweep, as captured effect streams.
    fn accounting_streams() -> Vec<(String, Vec<StepEffects>)> {
        let mut ws: Vec<Workload> =
            science::all_science(32).into_iter().map(|p| p.workload).collect();
        ws.push(multi_tenant_server());
        ws.extend([8, 24, 64, 128].map(|n| science::prefix_sum(n).workload));
        ws.into_iter()
            .map(|w| {
                let (fxs, r) = dift_dbi::capture(w.machine());
                assert!(r.status.is_clean(), "{}: {:?}", w.name, r.status);
                (w.name, fxs)
            })
            .collect()
    }

    fn assert_exact_every_step<B: ScanOracle>(name: &str, stream: &[StepEffects], backend: B) {
        let mut eng = LineageEngine::new(backend);
        for fx in stream {
            eng.process(fx);
            assert_eq!(
                eng.backend.shadow_bytes(),
                scanned_bytes(&eng),
                "{name} ({}): step {}",
                eng.backend.name(),
                fx.step
            );
        }
    }

    #[test]
    fn running_shadow_bytes_match_full_scan_at_every_step() {
        for (name, stream) in accounting_streams() {
            assert_exact_every_step(&name, &stream, BddBackend::new(16));
            assert_exact_every_step(&name, &stream, NaiveBackend::new());
        }
    }

    #[test]
    fn running_shadow_bytes_match_full_scan_after_every_composed_epoch() {
        for (name, stream) in accounting_streams() {
            let mut eng = LineageEngine::new(BddBackend::new(16));
            let mut base = IoBase::default();
            for (e, epoch) in stream.chunks(97).enumerate() {
                summarize_lineage_epoch(epoch, 16, &base).apply(&mut eng);
                base.advance(epoch);
                assert_eq!(eng.backend.shadow_bytes(), scanned_bytes(&eng), "{name}: epoch {e}");
            }
        }
    }

    #[test]
    fn bdd_backend_uses_less_peak_memory_on_resident_overlap() {
        // prefix_sum keeps {0..=k} resident per cell: the naive backend
        // pays O(n^2) words while roBDD ranges share structure.
        let p = science::prefix_sum(96);
        let (bdd, _) = run_pipeline(&p, BddBackend::new(16));
        let p2 = science::prefix_sum(96);
        let (naive, _) = run_pipeline(&p2, NaiveBackend::new());
        assert!(
            bdd.stats().peak_shadow_bytes * 2 < naive.stats().peak_shadow_bytes,
            "bdd {} vs naive {}",
            bdd.stats().peak_shadow_bytes,
            naive.stats().peak_shadow_bytes
        );
    }

    #[test]
    fn bdd_backend_is_cheaper_in_cycles_on_large_sets() {
        let p = science::prefix_sum(96);
        let (_, bdd_cycles) = run_pipeline(&p, BddBackend::new(16));
        let p2 = science::prefix_sum(96);
        let (_, naive_cycles) = run_pipeline(&p2, NaiveBackend::new());
        assert!(bdd_cycles < naive_cycles, "{bdd_cycles} vs {naive_cycles}");
    }

    #[test]
    fn slowdown_is_bounded() {
        // The paper: typical slowdown < 40x with infrastructure overhead
        // discounted. Our whole-stack factor must stay in that regime.
        let p = science::binning(64, 8);
        let native = p.workload.machine().run().cycles;
        let (_, traced) = run_pipeline(&p, BddBackend::new(16));
        let factor = traced as f64 / native as f64;
        assert!(factor < 40.0, "slowdown {factor:.1}x");
        assert!(factor > 1.0);
    }
}
