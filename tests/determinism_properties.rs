//! Property-based cross-crate tests: determinism and invariants of the
//! substrate that every experiment depends on.

use dift::replay::{record, replay_full, RunSpec};
use dift::vm::{Machine, MachineConfig};
use dift_dbi::{Engine, Tool};
use dift_isa::{Addr, BinOp, BranchCond, Cfg, Program, ProgramBuilder, Reg};
use dift_vm::{Arrival, Pending, SchedPolicy, StepEffects, ThreadId};
use dift_workloads::server::{server, ServerConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Generate a small random-but-safe two-thread program: each thread does
/// arithmetic over a private region plus some shared-counter fetch-adds.
fn random_program(ops: &[u8], shared_hits: u8) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    b.li(Reg(1), 0);
    b.spawn(Reg(5), "worker", Reg(1));
    emit_thread_body(&mut b, ops, shared_hits, 600, "m");
    b.join(Reg(5));
    b.li(Reg(2), 700);
    b.load(Reg(3), Reg(2), 0);
    b.output(Reg(3), 0);
    b.halt();
    b.func("worker");
    emit_thread_body(&mut b, ops, shared_hits, 650, "w");
    b.halt();
    Arc::new(b.build().unwrap())
}

fn emit_thread_body(b: &mut ProgramBuilder, ops: &[u8], shared_hits: u8, base: i64, p: &str) {
    b.li(Reg(10), base);
    b.li(Reg(11), 1);
    b.li(Reg(12), 700); // shared counter
    for (i, op) in ops.iter().enumerate() {
        match op % 5 {
            0 => {
                b.bini(BinOp::Add, Reg(11), Reg(11), (*op as i64) + 1);
            }
            1 => {
                b.store(Reg(11), Reg(10), (i % 8) as i64);
            }
            2 => {
                b.load(Reg(13), Reg(10), (i % 8) as i64);
                b.bin(BinOp::Xor, Reg(11), Reg(11), Reg(13));
            }
            3 => {
                b.bini(BinOp::Mul, Reg(11), Reg(11), 3);
            }
            _ => {
                b.bini(BinOp::And, Reg(11), Reg(11), 0xFFFF);
            }
        }
    }
    for _ in 0..shared_hits {
        b.li(Reg(14), 1);
        b.fetch_add(Reg(15), Reg(12), Reg(14));
    }
    // A small loop to give the scheduler decision points.
    b.li(Reg(16), 4);
    b.label(&format!("{p}_l"));
    b.bini(BinOp::Sub, Reg(16), Reg(16), 1);
    b.branch(BranchCond::Ne, Reg(16), Reg(0), format!("{p}_l"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded run can be recorded and replayed to an identical
    /// outcome — the foundation of §2.2.
    #[test]
    fn any_seeded_run_replays_identically(
        ops in proptest::collection::vec(0u8..250, 1..24),
        shared in 0u8..6,
        seed in 1u64..5000,
    ) {
        let program = random_program(&ops, shared);
        let spec = RunSpec::new(program, MachineConfig::small().with_seed(seed).with_quantum(3));
        let rec = record(&spec, 64);
        prop_assert!(rec.result.status.is_clean());
        let (m, r) = replay_full(&spec, &rec.log);
        prop_assert_eq!(r.steps, rec.result.steps);
        prop_assert_eq!(m.output(0).to_vec(), rec.output0);
    }

    /// The shared counter's final value equals the total fetch-add count
    /// under every schedule (atomicity of the ISA's RMW ops).
    #[test]
    fn fetch_add_total_is_schedule_independent(
        ops in proptest::collection::vec(0u8..250, 1..16),
        shared in 1u8..6,
        seed in 1u64..5000,
    ) {
        let program = random_program(&ops, shared);
        let mut m = Machine::new(program, MachineConfig::small().with_seed(seed).with_quantum(2));
        let r = m.run();
        prop_assert!(r.status.is_clean());
        prop_assert_eq!(m.output(0), &[2 * shared as u64]);
    }

    /// Round-robin and any seeded schedule execute the same per-thread
    /// instruction mix (only the interleaving differs): total steps are
    /// schedule independent for race-free effects.
    #[test]
    fn step_totals_are_schedule_independent(
        ops in proptest::collection::vec(0u8..250, 1..16),
        seed in 1u64..5000,
    ) {
        let program = random_program(&ops, 1);
        let rr = {
            let mut m = Machine::new(program.clone(), MachineConfig::small().with_quantum(3));
            m.run().steps
        };
        let seeded = {
            let mut m = Machine::new(
                program,
                MachineConfig::small().with_seed(seed).with_quantum(3),
            );
            m.run().steps
        };
        prop_assert_eq!(rr, seeded);
    }

    /// Checkpoint/restore at an arbitrary cut point resumes to the same
    /// final state.
    #[test]
    fn checkpoint_cut_points_resume_identically(
        ops in proptest::collection::vec(0u8..250, 1..20),
        cut in 1u64..200,
    ) {
        let program = random_program(&ops, 2);
        let cfg = MachineConfig::small().with_quantum(3);
        let mut reference = Machine::new(program.clone(), cfg.clone());
        reference.run();
        let want = reference.output(0).to_vec();

        let mut m = Machine::new(program.clone(), cfg.clone());
        for _ in 0..cut {
            if m.pending().is_none() {
                break;
            }
            m.step();
        }
        let cp = m.checkpoint();
        let mut resumed = Machine::new(program, cfg);
        resumed.restore(&cp);
        resumed.run();
        prop_assert_eq!(resumed.output(0).to_vec(), want);
    }
}

/// One DBI callback, in dispatch order.
#[derive(Debug, PartialEq)]
enum Callback {
    Block(ThreadId, Addr, bool),
    Before(ThreadId, Addr),
    After(ThreadId, Addr),
}

/// Every callback of a run, plus whether each `after`'s instruction
/// transferred control.
#[derive(Default)]
struct CallbackLog {
    calls: Vec<Callback>,
    control: Vec<bool>,
}

impl CallbackLog {
    /// The instrumented instructions, as `(tid, addr)`, in `after` order.
    fn executed(&self) -> impl Iterator<Item = (ThreadId, Addr)> + '_ {
        self.calls.iter().filter_map(|c| match c {
            Callback::After(tid, addr) => Some((*tid, *addr)),
            _ => None,
        })
    }
}

impl Tool for CallbackLog {
    fn on_block(&mut self, _m: &mut Machine, tid: ThreadId, entry: Addr, is_new: bool) {
        self.calls.push(Callback::Block(tid, entry, is_new));
    }
    fn before(&mut self, _m: &mut Machine, p: &Pending) {
        self.calls.push(Callback::Before(p.tid, p.addr));
    }
    fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
        self.calls.push(Callback::After(fx.tid, fx.addr));
        self.control.push(fx.control.is_some());
    }
}

/// The callbacks the engine owes a run, derived from its `after` stream
/// alone: each executed instruction gets `before` then `after`, preceded
/// by a block entry when it is a `Cfg::build_all` leader or its thread's
/// previous instrumented instruction transferred control; `is_new` marks
/// an address's first report.
fn expected_callbacks(program: &Program, log: &CallbackLog) -> Vec<Callback> {
    let leaders: HashSet<Addr> =
        Cfg::build_all(program).iter().flat_map(|c| c.blocks.iter().map(|b| b.start)).collect();
    let mut after_transfer: HashSet<ThreadId> = HashSet::new();
    let mut reported: HashSet<Addr> = HashSet::new();
    let mut want = Vec::new();
    for ((tid, addr), &control) in log.executed().zip(&log.control) {
        if leaders.contains(&addr) || after_transfer.contains(&tid) {
            want.push(Callback::Block(tid, addr, reported.insert(addr)));
        }
        if control {
            after_transfer.insert(tid);
        } else {
            after_transfer.remove(&tid);
        }
        want.push(Callback::Before(tid, addr));
        want.push(Callback::After(tid, addr));
    }
    want
}

/// Run `machine` through the engine and check the callback stream
/// against [`expected_callbacks`].
fn check_dispatch(machine: Machine) {
    let program = machine.program().clone();
    let mut engine = Engine::new(machine);
    let mut log = CallbackLog::default();
    let r = engine.run_tool(&mut log);
    assert!(r.status.is_clean(), "{:?}", r.status);
    assert!(!log.control.is_empty(), "nothing was instrumented");
    assert_eq!(log.calls, expected_callbacks(&program, &log));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine's block-entry stream, and the pairing of each
    /// `before` with its `after`, match the oracle over random
    /// two-thread programs and the 4-worker kv server, whose request
    /// words arrive while the workers run, so `In` and `Join` park
    /// threads mid-run.
    #[test]
    fn block_entries_match_the_after_stream_oracle(
        ops in proptest::collection::vec(0u8..250, 1..24),
        shared in 0u8..6,
        seed in 1u64..5000,
    ) {
        let program = random_program(&ops, shared);
        let cfg = MachineConfig::small().with_seed(seed).with_quantum(3);
        check_dispatch(Machine::new(program, cfg));

        let cfg = ServerConfig { workers: 4, requests_per_worker: 12, with_bug: false, seed };
        let mut kv = server(cfg).with_quantum(5).with_sched(SchedPolicy::Seeded { seed });
        for (channel, words) in std::mem::take(&mut kv.inputs) {
            kv.arrivals.extend(words.into_iter().enumerate().map(|(i, value)| Arrival {
                at_step: 40 * i as u64,
                channel,
                value,
            }));
        }
        check_dispatch(kv.machine());
    }
}
