//! Microbenchmarks of the scheduling decision paths: the hardware
//! predictor's confidence-cache lookups, the full `on_begin` hook of
//! each manager against a populated CPU table, and the same hooks at
//! 1024-CPU scale with the occupancy a `scale_1024`-shaped run shows
//! (about 19 of 1024 slots running, commits touching about 7 of 64
//! detection shards).

use bfgts_baselines::PtsCm;
use bfgts_core::{BfgtsCm, BfgtsConfig, HwPredictor};
use bfgts_htm::{
    BeginDecision, BeginQuery, CommitRecord, ConflictEvent, ContentionManager, DTxId, LineAddr,
    STxId, TmState, SHARD_BLOCK_LINES,
};
use bfgts_sim::{CostModel, Cycle, SimRng, ThreadId, TraceSink};
use bfgts_testkit::bench::Harness;
use std::hint::black_box;

fn busy_tm() -> TmState {
    let mut tm = TmState::new(16, 64);
    for cpu in 1..16usize {
        tm.begin_tx(
            ThreadId(cpu),
            cpu,
            DTxId::new(ThreadId(cpu), STxId((cpu % 4) as u32)),
            Cycle::ZERO,
        );
    }
    tm
}

/// A 1024-CPU / 4096-thread table with 19 running transactions spread
/// across the machine (CPU 0, the querying CPU, stays free).
fn wide_tm() -> TmState {
    let mut tm = TmState::new(1024, 4096);
    for k in 0..19usize {
        let cpu = 1 + 53 * k;
        let thread = ThreadId(4 * cpu);
        tm.begin_tx(
            thread,
            cpu,
            DTxId::new(thread, STxId((k % 4) as u32)),
            Cycle::ZERO,
        );
    }
    tm
}

/// A 14-line read/write set spread over 7 of 64 detection shards.
fn sharded_rw_set() -> Vec<LineAddr> {
    (0..14u64)
        .map(|i| LineAddr((i / 2) * 9 * SHARD_BLOCK_LINES + i))
        .collect()
}

fn query() -> BeginQuery {
    BeginQuery {
        thread: ThreadId(0),
        cpu: 0,
        dtx: DTxId::new(ThreadId(0), STxId(0)),
        now: Cycle::ZERO,
        retries: 0,
        waits: 0,
    }
}

fn main() {
    let mut h = Harness::from_args();
    let costs = CostModel::default();

    {
        let mut p = HwPredictor::new();
        p.lookup_cost(STxId(1), STxId(2), &costs);
        h.bench("hw_predictor_lookup_warm", || {
            black_box(p.lookup_cost(black_box(STxId(1)), black_box(STxId(2)), &costs));
        });
    }

    let tm = busy_tm();
    {
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        let mut rng = SimRng::seed_from(1);
        let q = query();
        h.bench("on_begin_full_cpu_table/bfgts_hw", || {
            black_box(cm.on_begin(
                black_box(&q),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            ));
        });
    }
    {
        let mut cm = BfgtsCm::new(BfgtsConfig::sw());
        let mut rng = SimRng::seed_from(1);
        let q = query();
        h.bench("on_begin_full_cpu_table/bfgts_sw", || {
            black_box(cm.on_begin(
                black_box(&q),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            ));
        });
    }
    {
        let mut cm = PtsCm::default();
        let mut rng = SimRng::seed_from(1);
        let q = query();
        h.bench("on_begin_full_cpu_table/pts", || {
            black_box(cm.on_begin(
                black_box(&q),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            ));
        });
    }

    let wide = wide_tm();
    {
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        let mut rng = SimRng::seed_from(1);
        let q = query();
        h.bench("on_begin_1024_cpus_19_running/bfgts_hw", || {
            black_box(cm.on_begin(
                black_box(&q),
                &wide,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            ));
        });
    }
    {
        let mut cm = PtsCm::default();
        let mut rng = SimRng::seed_from(1);
        let q = query();
        h.bench("on_begin_1024_cpus_19_running/pts", || {
            black_box(cm.on_begin(
                black_box(&q),
                &wide,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            ));
        });
    }
    {
        // A committer that waited on a target whose last commit touched
        // the same 7 shards: the sharded checkWasSerialized intersects
        // all 7 per-shard filters, then the commit stores its own. Each
        // iteration first runs the predicting `on_begin` (one running
        // slot) that arms the wait, so the figure is that begin plus the
        // commit it sets up.
        let mut tm = TmState::new(1024, 4096);
        tm.configure_shards(64);
        let rw = sharded_rw_set();
        let target = DTxId::new(ThreadId(1), STxId(1));
        let me = query();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        let mut rng = SimRng::seed_from(1);
        let commit = |d: DTxId| CommitRecord {
            dtx: d,
            rw_set: &rw,
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        let conflict = ConflictEvent {
            aborter: me.dtx,
            enemy: target,
            addr: rw[0],
            now: Cycle::ZERO,
            retries: 0,
        };
        for _ in 0..4 {
            cm.on_conflict_abort(&conflict, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        }
        cm.on_commit(
            &commit(target),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        tm.begin_tx(target.thread, 1, target, Cycle::ZERO);
        let rec = commit(me.dtx);
        h.bench("on_commit_64_shards_waited/bfgts_hw", || {
            let begin = cm.on_begin(&me, &tm, &costs, &mut rng, &mut TraceSink::disabled());
            assert!(matches!(
                begin.decision,
                BeginDecision::SpinUntilDone { .. }
            ));
            black_box(cm.on_commit(
                black_box(&rec),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            ));
        });
    }

    h.finish();
}
