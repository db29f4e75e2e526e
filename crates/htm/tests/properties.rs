//! Property tests of the TM machine: random transactional workloads must
//! always complete, conserve transactions, and leave no residual
//! isolation state. Driven by the deterministic case generator in
//! `bfgts-testkit`.

use bfgts_htm::{
    run_workload, Access, AccessResult, DTxId, LineAddr, NullCm, STxId, ScriptSource, TmRunConfig,
    TmState, TxInstance,
};
use bfgts_sim::{CostModel, Cycle, ThreadId};
use bfgts_testkit::{run_cases, Gen};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
struct TxPlan {
    stx: u8,
    // (line in a small shared space, is_write)
    accesses: Vec<(u8, bool)>,
    pre_work: u16,
}

fn tx_plan(g: &mut Gen) -> TxPlan {
    TxPlan {
        stx: g.u8() % 4,
        accesses: g.vec_with(1, 12, |g| (g.u8(), g.bool())),
        pre_work: g.u16(),
    }
}

fn plan_matrix(
    g: &mut Gen,
    per_thread: (usize, usize),
    threads: (usize, usize),
) -> Vec<Vec<TxPlan>> {
    g.vec_with(threads.0, threads.1, |g| {
        g.vec_with(per_thread.0, per_thread.1, tx_plan)
    })
}

fn build_scripts(plans: &[Vec<TxPlan>]) -> Vec<ScriptSource> {
    plans
        .iter()
        .map(|script| {
            ScriptSource::new(
                script
                    .iter()
                    .map(|p| {
                        TxInstance::new(
                            STxId(p.stx as u32),
                            p.accesses
                                .iter()
                                .map(|&(line, w)| Access {
                                    addr: (line as u64).into(),
                                    is_write: w,
                                })
                                .collect(),
                            p.pre_work as u64,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Any mix of conflicting transactions over a tiny line space (so
/// conflicts and deadlock-avoidance aborts are common) completes, with
/// every scripted transaction committing exactly once.
#[test]
fn adversarial_workloads_always_complete() {
    run_cases("adversarial_workloads_always_complete", 48, |g| {
        let plans = plan_matrix(g, (0, 6), (1, 8));
        let cpus = g.usize_in(1, 5);
        let seed = g.u64();
        let total: u64 = plans.iter().map(|s| s.len() as u64).sum();
        let mut cfg = TmRunConfig::new(cpus, plans.len()).seed(seed);
        cfg.max_cycles = 2_000_000_000;
        let report = run_workload(&cfg, build_scripts(&plans), Box::new(NullCm));
        assert_eq!(report.stats.commits(), total);
    });
}

/// With zeroed OS costs (the degenerate configuration that once
/// live-locked), completion still holds.
#[test]
fn zero_cost_configs_do_not_livelock() {
    run_cases("zero_cost_configs_do_not_livelock", 48, |g| {
        let plans = plan_matrix(g, (0, 4), (2, 6));
        let seed = g.u64();
        let total: u64 = plans.iter().map(|s| s.len() as u64).sum();
        let costs = CostModel {
            context_switch: 0,
            yield_syscall: 0,
            futex_block: 0,
            futex_wake: 0,
            tx_begin: 0,
            tx_commit: 0,
            abort_trap: 0,
            abort_per_line: 0,
            ..CostModel::default()
        };
        let mut cfg = TmRunConfig::new(2, plans.len()).seed(seed).costs(costs);
        cfg.max_cycles = 2_000_000_000;
        let report = run_workload(&cfg, build_scripts(&plans), Box::new(NullCm));
        assert_eq!(report.stats.commits(), total);
    });
}

/// Contention statistics are internally consistent: attempts = commits +
/// aborts, and the contention rate matches.
#[test]
fn contention_rate_is_consistent() {
    run_cases("contention_rate_is_consistent", 48, |g| {
        let plans = plan_matrix(g, (1, 5), (2, 6));
        let seed = g.u64();
        let cfg = TmRunConfig::new(4, plans.len()).seed(seed);
        let report = run_workload(&cfg, build_scripts(&plans), Box::new(NullCm));
        let (c, a) = (report.stats.commits(), report.stats.aborts());
        let expected = if c + a == 0 {
            0.0
        } else {
            a as f64 / (c + a) as f64
        };
        assert!((report.stats.contention_rate() - expected).abs() < 1e-12);
    });
}

/// Determinism end-to-end under adversarial interleavings.
#[test]
fn identical_seeds_identical_outcomes() {
    run_cases("identical_seeds_identical_outcomes", 48, |g| {
        let plans = plan_matrix(g, (0, 4), (1, 5));
        let seed = g.u64();
        let run = || {
            let cfg = TmRunConfig::new(3, plans.len()).seed(seed);
            run_workload(&cfg, build_scripts(&plans), Box::new(NullCm))
        };
        let a = run();
        let b = run();
        assert_eq!(a.sim.makespan, b.sim.makespan);
        assert_eq!(a.stats.aborts(), b.stats.aborts());
        assert_eq!(a.stats.stalls(), b.stats.stalls());
    });
}

/// The CPU table under random begin/commit/abort sequences with more
/// threads than CPUs, so broadcasts overwrite each other: after every
/// operation `running()` lists exactly the occupied slots in CPU order,
/// and the O(1) one-slot clear leaves the same table as a reference that
/// sweeps every slot for the finished dTxID.
#[test]
fn cpu_table_matches_a_full_sweep_reference() {
    run_cases("cpu_table_matches_a_full_sweep_reference", 64, |g| {
        let cpus = g.usize_in(1, 140);
        let threads = g.usize_in(cpus + 1, 2 * cpus + 4);
        let mut tm = TmState::new(cpus, threads);
        let mut model: Vec<Option<DTxId>> = vec![None; cpus];
        let mut active: Vec<Option<DTxId>> = vec![None; threads];
        for _ in 0..400 {
            let t = g.usize_in(0, threads);
            match active[t] {
                None => {
                    let cpu = g.usize_in(0, cpus);
                    let dtx = DTxId::new(ThreadId(t), STxId(g.u32_in(0, 4)));
                    tm.begin_tx(ThreadId(t), cpu, dtx, Cycle::ZERO);
                    model[cpu] = Some(dtx);
                    active[t] = Some(dtx);
                }
                Some(dtx) => {
                    let finished = if g.bool() {
                        tm.commit_tx(ThreadId(t), &mut Vec::new())
                    } else {
                        tm.abort_tx(ThreadId(t)).0
                    };
                    assert_eq!(finished, dtx);
                    for slot in &mut model {
                        if *slot == Some(dtx) {
                            *slot = None;
                        }
                    }
                    active[t] = None;
                }
            }
            assert_eq!(tm.cpu_table(), model.as_slice());
            let occupied: Vec<(usize, DTxId)> = model
                .iter()
                .enumerate()
                .filter_map(|(cpu, slot)| slot.map(|d| (cpu, d)))
                .collect();
            assert_eq!(tm.running().collect::<Vec<_>>(), occupied);
        }
    });
}

/// Reference model of exact conflict detection with the semantics the
/// line table must keep: an ordered map from line to its writer and its
/// readers in arrival order, and per-attempt ordered read and write sets.
#[derive(Default)]
struct LineModel {
    lines: BTreeMap<u64, (Option<ThreadId>, Vec<ThreadId>)>,
    reads: BTreeMap<ThreadId, BTreeSet<u64>>,
    writes: BTreeMap<ThreadId, BTreeSet<u64>>,
}

impl LineModel {
    fn begin(&mut self, t: ThreadId) {
        self.reads.insert(t, BTreeSet::new());
        self.writes.insert(t, BTreeSet::new());
    }

    fn holds(&self, t: ThreadId, addr: u64, write: bool) -> bool {
        self.writes[&t].contains(&addr) || (!write && self.reads[&t].contains(&addr))
    }

    fn read(&mut self, t: ThreadId, addr: u64) -> AccessResult {
        if self.holds(t, addr, false) {
            return AccessResult::Granted;
        }
        if let Some((Some(w), _)) = self.lines.get(&addr) {
            if *w != t {
                return AccessResult::Conflict { owner: *w };
            }
        }
        self.lines.entry(addr).or_default().1.push(t);
        self.reads.get_mut(&t).expect("active").insert(addr);
        AccessResult::Granted
    }

    fn write(&mut self, t: ThreadId, addr: u64) -> AccessResult {
        if self.holds(t, addr, true) {
            return AccessResult::Granted;
        }
        if let Some((writer, readers)) = self.lines.get(&addr) {
            if let Some(w) = writer.filter(|&w| w != t) {
                return AccessResult::Conflict { owner: w };
            }
            if let Some(&r) = readers.iter().find(|&&r| r != t) {
                return AccessResult::Conflict { owner: r };
            }
        }
        self.lines.entry(addr).or_default().0 = Some(t);
        self.writes.get_mut(&t).expect("active").insert(addr);
        AccessResult::Granted
    }

    fn true_conflicts(&self, t: ThreadId, addr: u64, write: bool) -> u32 {
        let Some((writer, readers)) = self.lines.get(&addr) else {
            return 0;
        };
        let mut n = u32::from(writer.is_some_and(|w| w != t));
        if write {
            n += readers.iter().filter(|&&r| r != t).count() as u32;
        }
        n
    }

    /// Ends `t`'s attempt: returns its read/write set and undo length.
    fn end(&mut self, t: ThreadId) -> (Vec<LineAddr>, usize) {
        let reads = self.reads.remove(&t).expect("active");
        let writes = self.writes.remove(&t).expect("active");
        for addr in reads.iter().chain(&writes) {
            if let Some((writer, readers)) = self.lines.get_mut(addr) {
                if *writer == Some(t) {
                    *writer = None;
                }
                readers.retain(|&r| r != t);
                if writer.is_none() && readers.is_empty() {
                    self.lines.remove(addr);
                }
            }
        }
        let rw = reads.union(&writes).map(|&a| LineAddr(a)).collect();
        (rw, writes.len())
    }
}

/// The flat line table against the ordered-map model it replaced, under
/// random begin/read/write/commit/abort sequences over a tiny address
/// space. A few dozen lines over a 64-slot table collide, wrap past its
/// end and force it to grow; spread addresses and near-`u64::MAX` ones
/// probe the hash's high bits. Every access result (the reported owner
/// included: the writer, else the first other reader in arrival order),
/// every commit's read/write set, every undo length and every
/// ground-truth conflict count must match, and nothing may stay held
/// once every attempt has ended.
#[test]
fn line_table_matches_an_ordered_map_reference() {
    run_cases("line_table_matches_an_ordered_map_reference", 64, |g| {
        let threads = g.usize_in(1, 7);
        let lines = g.usize_in(1, 80);
        let span = *g.choose(&[lines as u64, 1 << 20, u64::MAX]);
        let pool: Vec<u64> = (0..lines).map(|_| g.below(span)).collect();
        let mut tm = TmState::new(2, threads);
        let mut model = LineModel::default();
        let mut active = vec![false; threads];
        let mut rw = Vec::new();
        for step in 0..600 {
            let t = ThreadId(g.usize_in(0, threads));
            let addr = *g.choose(&pool);
            if !active[t.index()] {
                tm.begin_tx(t, t.index() % 2, DTxId::new(t, STxId(0)), Cycle::new(step));
                model.begin(t);
                active[t.index()] = true;
                continue;
            }
            match g.below(20) {
                0..=8 => {
                    let got = tm.read(t, LineAddr(addr));
                    assert_eq!(got, model.read(t, addr), "read {addr} by {t}");
                }
                9..=15 => {
                    let got = tm.write(t, LineAddr(addr));
                    assert_eq!(got, model.write(t, addr), "write {addr} by {t}");
                }
                16..=17 => {
                    tm.commit_tx(t, &mut rw);
                    assert_eq!(rw, model.end(t).0, "commit of {t}");
                    active[t.index()] = false;
                }
                _ => {
                    let (_, undo) = tm.abort_tx(t);
                    assert_eq!(undo, model.end(t).1, "undo log of {t}");
                    active[t.index()] = false;
                }
            }
            let probe = *g.choose(&pool);
            let write = g.bool();
            assert_eq!(
                tm.true_conflict_count(t, LineAddr(probe), write),
                model.true_conflicts(t, probe, write)
            );
            assert_eq!(tm.held_lines(), model.lines.len());
        }
        for t in (0..threads).map(ThreadId) {
            if active[t.index()] {
                tm.commit_tx(t, &mut rw);
                assert_eq!(rw, model.end(t).0);
            }
        }
        assert_eq!(tm.held_lines(), 0, "a line outlived every attempt");
    });
}
