//! Property tests of the TM machine: random transactional workloads must
//! always complete, conserve transactions, and leave no residual
//! isolation state. Driven by the deterministic case generator in
//! `bfgts-testkit`.

use bfgts_htm::{
    run_workload, Access, DTxId, NullCm, STxId, ScriptSource, TmRunConfig, TmState, TxInstance,
};
use bfgts_sim::{CostModel, Cycle, ThreadId};
use bfgts_testkit::{run_cases, Gen};

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
                        tm.commit_tx(ThreadId(t)).0
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
