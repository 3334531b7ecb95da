//! The benchmark's program sets, generated from `--seed`.
//!
//! The seed drives every value the guest programs read: the input
//! channel data of the kernels and science pipelines (`Workload.inputs`),
//! and the kv server's per-worker request streams. Program text and the
//! kernels' baked-in data images are fixed, so a seed changes what flows
//! through the analyses, not the shape of the work.

use crate::util::Rng;
use dift_workloads::science::{self, SciencePipeline};
use dift_workloads::server::{server_with_streams, ServerConfig};
use dift_workloads::spec::{self, Size};
use dift_workloads::Workload;

/// Which sizes to build: the measured configuration or the smoke test's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One guest program of a workload, with its oracle data.
pub struct Prog {
    pub w: Workload,
    /// Per-output expected lineage (science pipelines only).
    pub expected_lineage: Option<Vec<Vec<u64>>>,
    /// True for the kv server (request latency is measured on it).
    pub is_server: bool,
}

impl Prog {
    fn plain(w: Workload) -> Prog {
        Prog { w, expected_lineage: None, is_server: false }
    }
}

/// Replace the values on every input channel with seeded ones drawn from
/// `[0, range)`, keeping each channel's length.
fn reseed_inputs(w: &mut Workload, rng: &mut Rng, range: u64) {
    for (_, vals) in &mut w.inputs {
        for v in vals.iter_mut() {
            *v = rng.below(range);
        }
    }
}

/// `compress`'s input: runs of 1–6 repeated symbols from a 16-letter
/// alphabet (the generator shape of `spec::compress_like`, seeded here).
fn reseed_runs(w: &mut Workload, rng: &mut Rng) {
    for (_, vals) in &mut w.inputs {
        let n = vals.len();
        vals.clear();
        while vals.len() < n {
            let sym = rng.below(16);
            let run = 1 + rng.below(6) as usize;
            vals.extend(std::iter::repeat_n(sym, run.min(n - vals.len())));
        }
    }
}

/// Kernel sizes: `Full` puts each kernel at 75–100 K instructions,
/// `Quarter` at 19–26 K.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPlan {
    Full,
    Quarter,
}

/// The seven SPEC-like kernels, sized so none dominates: each kernel's
/// size class and repeat count put it within a small factor of the
/// others (vortex grows quadratically — 26.5 M instructions at `Medium`
/// — so it runs as several `Small` instances instead).
pub fn kernels(seed: u64, scale: Scale, plan: KernelPlan) -> Vec<Prog> {
    use Size::{Medium, Small, Tiny};
    type Make = fn(Size) -> Workload;
    let sizes: [(Make, Size, usize); 7] = match plan {
        KernelPlan::Full => [
            (spec::compress_like, Medium, 1),
            (spec::parser_like, Medium, 1),
            (spec::mcf_like, Small, 1),
            (spec::bzip_like, Small, 1),
            (spec::vortex_like, Small, 6),
            (spec::gap_like, Medium, 1),
            (spec::twolf_like, Small, 4),
        ],
        KernelPlan::Quarter => [
            (spec::compress_like, Small, 2),
            (spec::parser_like, Small, 2),
            (spec::mcf_like, Tiny, 2),
            (spec::bzip_like, Tiny, 2),
            (spec::vortex_like, Small, 2),
            (spec::gap_like, Small, 2),
            (spec::twolf_like, Small, 1),
        ],
    };
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for (make, size, reps) in sizes {
        let (size, reps) = match scale {
            Scale::Full => (size, reps),
            Scale::Tiny => (Size::Tiny, 1),
        };
        let mut w = make(size);
        if w.name.starts_with("compress") {
            reseed_runs(&mut w, &mut rng);
        }
        for _ in 0..reps {
            out.push(Prog::plain(w.clone()));
        }
    }
    out
}

/// The 4-worker kv server over seeded request streams. With
/// `multi_tenant`, each worker is a tenant whose PUT values carry its
/// tenant id and whose keys come from one shared key space, so tenants
/// read each other's data (the cross-tenant flows the sentinel tracks).
pub fn kv_server(seed: u64, scale: Scale, multi_tenant: bool) -> Prog {
    let workers = 4u64;
    let requests = match (scale, multi_tenant) {
        (Scale::Full, false) => 1_500,
        (Scale::Full, true) => 500,
        (Scale::Tiny, _) => 40,
    };
    let mut rng = Rng::new(seed, if multi_tenant { 3 } else { 2 });
    let streams = (0..workers)
        .map(|tenant| {
            let mut s = Vec::with_capacity(requests as usize * 3);
            for _ in 0..requests {
                let key = rng.below(500) + 1;
                if rng.below(3) == 0 {
                    s.extend_from_slice(&[2, key, 0]); // GET
                } else {
                    let value = rng.below(10_000);
                    let value = if multi_tenant { tenant * 10_000 + value } else { value };
                    s.extend_from_slice(&[1, key, value]); // PUT
                }
            }
            s
        })
        .collect();
    let cfg = ServerConfig { workers, requests_per_worker: requests, with_bug: false, seed };
    Prog { w: server_with_streams(cfg, streams), expected_lineage: None, is_server: true }
}

/// The four science pipelines (clustered, overlapping, fragmented and
/// prefix lineage) over seeded inputs, with their expected lineage.
pub fn science(seed: u64, scale: Scale) -> Vec<Prog> {
    let n = match scale {
        Scale::Full => 512,
        Scale::Tiny => 64,
    };
    let mut rng = Rng::new(seed, 4);
    let mut out = Vec::new();
    for p in science::all_science(n) {
        let SciencePipeline { mut workload, expected_lineage } = p;
        let name = workload.name.clone();
        let expected = if name.starts_with("scatter") {
            // Fragmented lineage depends on the values: output k holds
            // the inputs with `value % bins == k`.
            reseed_inputs(&mut workload, &mut rng, 1_000);
            let bins = expected_lineage.len() as u64;
            let vals = &workload.inputs[0].1;
            let mut exp = vec![Vec::new(); bins as usize];
            for (i, v) in vals.iter().enumerate() {
                exp[(v % bins) as usize].push(i as u64);
            }
            exp
        } else {
            reseed_inputs(&mut workload, &mut rng, 100);
            expected_lineage
        };
        out.push(Prog { w: workload, expected_lineage: Some(expected), is_server: false });
    }
    out
}
