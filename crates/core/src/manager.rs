//! The BFGTS contention manager (paper §4).

use crate::config::{BfgtsConfig, BfgtsVariant};
use crate::faults::{CmFaults, PoisonMode};
use crate::hw::HwPredictor;
use crate::sig::Sig;
use crate::tables::{ConfidenceTable, TxStatsTable};
use bfgts_bloomsig::SignatureKind;
use bfgts_htm::{
    AbortPlan, BeginDecision, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, DTxId, DtxMap, LineAddr, LineSet, STxId, TmState,
};
use bfgts_sim::{ConfKind, CostModel, SimRng, TraceEvent, TraceSink};
use std::borrow::Borrow;

/// Fixed software-path costs in cycles, calibrated to the instruction
/// counts of the paper's pseudo-code (Examples 1–4) on the simulated
/// single-IPC core.
mod sw_cost {
    /// Entry to the begin-time scan (software variant): load CPU table
    /// pointer, loop setup.
    pub const SCAN_BASE: u64 = 40;
    /// Per-entry software confidence lookup: the per-CPU tables are
    /// written by every committing CPU, so reads typically miss to L2.
    pub const SCAN_ENTRY: u64 = 24;
    /// Hardware-predictor fixed latency (trigger + compare + vector).
    pub const HW_BASE: u64 = 3;
    /// `suspendTx` bookkeeping: similarity average, decay update, record
    /// `txWaitingOn`.
    pub const SUSPEND: u64 = 25;
    /// `txConflict` bookkeeping: two similarity-weighted confidence
    /// increments.
    pub const CONFLICT: u64 = 40;
    /// `commitTx` fixed part: average-size update, serialisation check.
    pub const COMMIT_BASE: u64 = 30;
    /// Pressure check/update (HW/Backoff hybrid).
    pub const PRESSURE: u64 = 3;
}

/// Bloom hash-function count (`k`) of the similarity signatures.
const BLOOM_HASHES: u32 = 4;

/// Confidence above which a predicted conflict serialises.
const CONF_THRESHOLD: f64 = 100.0;

/// Base confidence increment; scaled by similarity on every conflict
/// (paper Example 3: `inc = incVal·sim`).
const INC_VAL: f64 = 80.0;

/// Base confidence decay at suspend; scaled by dissimilarity (paper
/// Example 2: `decay = decayVal·(1−sim)`).
const DECAY_VAL: f64 = 30.0;

/// Base confidence decrement for unjustified waits at commit (paper
/// Example 4: `dec = decVal·(1−sim)`).
const DEC_VAL: f64 = 40.0;

/// Transactions whose average read/write set is at most this many lines
/// are "small" (paper: 10 lines). Controls commit-time similarity-update
/// batching.
const SMALL_TX_SIZE: f64 = 10.0;

/// Predicted-conflict waits *yield* (switch threads) when the target
/// transaction's average size is at least this many lines, and *spin*
/// otherwise (the paper's `suspendTx` stall-vs-yield choice). The paper
/// reuses its 10-line small-transaction bound; on this simulator's cost
/// model (3-cycle transactional accesses vs a 2000-cycle context switch)
/// the economic crossover sits far higher, so short waits keep spinning
/// (DESIGN.md §2, calibration decision 2).
const YIELD_WAIT_THRESHOLD: f64 = 600.0;

/// Past-history weight of the conflict-pressure moving average
/// (HwBackoff only; paper: "heavily biases past history").
const PRESSURE_ALPHA: f64 = 0.9;

/// Pressure above which BFGTS engages (HwBackoff only; paper: 0.25).
const PRESSURE_THRESHOLD: f64 = 0.25;

/// Post-abort backoff window in cycles (jittered, doubled per retry).
const BACKOFF_WINDOW: u64 = 300;

/// The Bloom Filter Guided Transaction Scheduler.
///
/// One instance serves the whole machine (the paper's runtime is fully
/// distributed, but its tables are logically global; the per-CPU
/// replication only matters for timing, which [`HwPredictor`] models).
///
/// See the [crate-level documentation](crate) for the variant matrix and
/// an example.
pub struct BfgtsCm {
    cfg: BfgtsConfig,
    confidence: ConfidenceTable,
    stats: TxStatsTable,
    /// Figure 3's Bloom table: per dTxID, what its last stored commit's
    /// signatures are built from.
    signatures: DtxMap<StoredSigs>,
    /// The committing transaction's forced bits until they are stored.
    forced: Vec<u32>,
    /// The committing transaction's lines and its wait target's stored
    /// lines, grouped by shard for the sharded `checkWasSerialized`.
    /// Like `forced`, reused by every commit.
    by_shard: (Vec<LineAddr>, Vec<LineAddr>),
    predictors: Vec<HwPredictor>,
    pressure: Vec<f64>,
    faults: Option<FaultState>,
}

/// What one commit stores for its dTxID: what the modelled hardware's
/// filters are built from, not the filters (DESIGN.md §11). A later
/// store overwrites the whole entry in place, reusing its buffers, so a
/// shard the dTxID's newest commit did not touch holds nothing for it.
#[derive(Default)]
struct StoredSigs {
    /// The commit's read/write set, ascending and gap-coded. The
    /// similarity update and the single-shard `checkWasSerialized`
    /// rebuild the whole-set filter by iterating it
    /// ([`StoredSigs::filter`]); the sharded check decodes it grouped by
    /// shard and rebuilds the per-shard filter of each shard both
    /// transactions touched. Both filter kinds ignore insertion order,
    /// so either reading rebuilds the bits the hardware kept. An entry is
    /// 56 bytes plus 1.1–2.5 a line on the Fig. 4 presets, so it stays
    /// under the 296 bytes of an entry that held the 2048-bit filter up
    /// to sets of about 100–220 lines (DESIGN.md §11).
    lines: LineSet,
    /// The bit positions the `bloom_corrupt` fault forced into the
    /// commit's whole-set filter, in draw order. Empty without the fault
    /// and for perfect signatures, which have no bits to force.
    forced: Vec<u32>,
}

impl StoredSigs {
    /// The whole-set filter the commit's hardware kept: its lines plus
    /// its forced bits, rebuilt bit for bit.
    fn filter(&self, kind: SignatureKind) -> Sig {
        let mut sig = Sig::from_set(kind, BLOOM_HASHES, self.lines.iter());
        sig.set_bits(&self.forced);
        sig
    }
}

/// Live state of an injected fault plan: the plan itself, the manager's
/// private fault RNG stream, and the commit counter driving the poisoning
/// cadence. Kept apart from the engine's RNG so a faulted and a fault-free
/// run make identical fault-free decisions.
struct FaultState {
    cfg: CmFaults,
    rng: SimRng,
    commits_seen: u64,
}

impl BfgtsCm {
    /// Creates a manager with the given configuration.
    pub fn new(cfg: BfgtsConfig) -> Self {
        let confidence = match cfg.alias_slots {
            Some(slots) => ConfidenceTable::with_alias_slots(slots),
            None => ConfidenceTable::new(),
        };
        Self {
            cfg,
            confidence,
            stats: TxStatsTable::new(),
            signatures: DtxMap::new(),
            forced: Vec::new(),
            by_shard: (Vec::new(), Vec::new()),
            predictors: Vec::new(),
            pressure: Vec::new(),
            faults: None,
        }
    }

    /// Creates a manager with an injected fault plan (DESIGN.md §9).
    ///
    /// The fault RNG is a stream derived from `faults.seed`, independent
    /// of the engine's and workload's streams: the same seed with an
    /// inactive plan behaves exactly like [`BfgtsCm::new`].
    pub fn with_faults(cfg: BfgtsConfig, faults: CmFaults) -> Self {
        let mut cm = Self::new(cfg);
        cm.faults = Some(FaultState {
            rng: SimRng::seed_from(faults.seed).derive(0xFA07_5EED),
            cfg: faults,
            commits_seen: 0,
        });
        cm
    }

    /// The active configuration.
    pub fn config(&self) -> &BfgtsConfig {
        &self.cfg
    }

    /// The confidence table (for reports/tests).
    pub fn confidence(&self) -> &ConfidenceTable {
        &self.confidence
    }

    /// The per-dTxID statistics table (for reports/tests).
    pub fn stats(&self) -> &TxStatsTable {
        &self.stats
    }

    fn pressure_of(&mut self, stx: STxId) -> &mut f64 {
        let i = stx.get() as usize;
        if self.pressure.len() <= i {
            self.pressure.resize(i + 1, 0.0);
        }
        &mut self.pressure[i]
    }

    fn predictor(&mut self, cpu: usize) -> &mut HwPredictor {
        if self.predictors.len() <= cpu {
            self.predictors.resize_with(cpu + 1, HwPredictor::new);
        }
        &mut self.predictors[cpu]
    }

    /// Paired similarity `0.5·(simOf(a)+simOf(b))` (Examples 2–4) plus
    /// its two per-transaction inputs, for trace emission: the audit
    /// recomputes `0.5·(sim_a+sim_b)` from the parts and requires the
    /// applied confidence delta to match bit for bit (ablated weighting
    /// records both parts as the constant 1.0, whose pairing is exactly
    /// 1.0 again).
    fn paired_sim_parts(&self, a: DTxId, b: DTxId) -> (f64, f64, f64) {
        if self.cfg.similarity_weighting {
            let sim_a = self.stats.sim_of(a);
            let sim_b = self.stats.sim_of(b);
            (0.5 * (sim_a + sim_b), sim_a, sim_b)
        } else {
            (1.0, 1.0, 1.0)
        }
    }

    /// Builds this dTxID's signature from a committed read/write set.
    fn build_sig(&self, rw_set: &[LineAddr]) -> Sig {
        Sig::from_set(self.cfg.signature, BLOOM_HASHES, rw_set.iter().copied())
    }

    /// The sharded `checkWasSerialized` (DESIGN.md §11) of two line sets
    /// grouped by shard: for each shard both touched, it intersects the two
    /// per-shard filters the hardware keeps. Returns the verdict (`None`
    /// when no shard is co-touched) and the cycles charged.
    fn sharded_wait_check(
        &self,
        tm: &TmState,
        costs: &CostModel,
        mine: &[LineAddr],
        theirs: &[LineAddr],
    ) -> (Option<bool>, u64) {
        let same_shard = |a: &LineAddr, b: &LineAddr| tm.shard_of(*a) == tm.shard_of(*b);
        let mut theirs = theirs.chunk_by(same_shard).peekable();
        let (mut verdict, mut cost) = (None, 0);
        for mine in mine.chunk_by(same_shard) {
            let shard = tm.shard_of(mine[0]);
            while theirs.next_if(|run| tm.shard_of(run[0]) < shard).is_some() {}
            if let Some(theirs) = theirs.next_if(|run| tm.shard_of(run[0]) == shard) {
                let (mine, theirs) = (self.build_sig(mine), self.build_sig(theirs));
                cost += self.priced(costs.bloom_intersect(mine.word_count()));
                verdict = Some(verdict.unwrap_or(false) || mine.intersects(&theirs));
            }
        }
        (verdict, cost)
    }

    fn is_free(&self) -> bool {
        self.cfg.variant == BfgtsVariant::NoOverhead
    }

    /// Charge `cycles` unless running the idealised no-overhead variant.
    fn priced(&self, cycles: u64) -> u64 {
        if self.is_free() {
            1
        } else {
            cycles
        }
    }
}

/// Replaces `out` with `lines` grouped by conflict-detection shard,
/// ascending.
fn group_by_shard(
    tm: &TmState,
    lines: impl IntoIterator<Item = impl Borrow<LineAddr>>,
    out: &mut Vec<LineAddr>,
) {
    out.clear();
    out.extend(lines.into_iter().map(|addr| *addr.borrow()));
    out.sort_unstable_by_key(|&addr| tm.shard_of(addr));
}

impl ContentionManager for BfgtsCm {
    fn name(&self) -> &'static str {
        self.cfg.variant.label()
    }

    fn on_begin(
        &mut self,
        q: &BeginQuery,
        tm: &TmState,
        costs: &CostModel,
        _rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> BeginOutcome {
        let mut cost: u64;
        match self.cfg.variant {
            BfgtsVariant::Sw => cost = sw_cost::SCAN_BASE,
            BfgtsVariant::Hw => cost = sw_cost::HW_BASE,
            BfgtsVariant::HwBackoff => {
                cost = sw_cost::PRESSURE;
                if *self.pressure_of(q.dtx.stx) < PRESSURE_THRESHOLD {
                    // Low contention: skip prediction entirely.
                    return BeginOutcome {
                        decision: BeginDecision::Proceed,
                        cost,
                    };
                }
                cost += sw_cost::HW_BASE;
            }
            BfgtsVariant::NoOverhead => cost = 1,
        }

        // Walk the CPU table's running transactions (Example 1).
        for (cpu_idx, target) in tm.running() {
            if cpu_idx == q.cpu || target.thread == q.thread {
                continue;
            }
            cost += match self.cfg.variant {
                BfgtsVariant::Sw => sw_cost::SCAN_ENTRY,
                BfgtsVariant::Hw | BfgtsVariant::HwBackoff => self
                    .predictor(q.cpu)
                    .lookup_cost(q.dtx.stx, target.stx, costs),
                BfgtsVariant::NoOverhead => 0,
            };
            if self.confidence.get(q.dtx.stx, target.stx) > CONF_THRESHOLD && tm.is_active(target) {
                // Predicted conflict: suspendTx bookkeeping (Example 2).
                let (sim, sim_a, sim_b) = self.paired_sim_parts(q.dtx, target);
                let applied = -(DECAY_VAL * (1.0 - sim));
                self.confidence.bump(q.dtx.stx, target.stx, applied);
                trace.emit(q.now.as_u64(), || TraceEvent::ConfUpdate {
                    kind: ConfKind::SuspendDecay,
                    a_stx: q.dtx.stx.0,
                    b_stx: target.stx.0,
                    sim_a_bits: sim_a.to_bits(),
                    sim_b_bits: sim_b.to_bits(),
                    param_bits: DECAY_VAL.to_bits(),
                    applied_bits: applied.to_bits(),
                });
                self.stats.entry(q.dtx).waiting_on = Some(target);
                cost += self.priced(sw_cost::SUSPEND);
                let decision = if self.stats.avg_size_of(target) >= YIELD_WAIT_THRESHOLD {
                    BeginDecision::YieldUntilDone { target }
                } else {
                    BeginDecision::SpinUntilDone { target }
                };
                return BeginOutcome { decision, cost };
            }
        }
        BeginOutcome {
            decision: BeginDecision::Proceed,
            cost,
        }
    }

    fn on_conflict_abort(
        &mut self,
        ev: &ConflictEvent,
        _tm: &TmState,
        _costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> AbortPlan {
        // txConflict (Example 3): similarity-weighted symmetric increment.
        let (sim, sim_a, sim_b) = self.paired_sim_parts(ev.aborter, ev.enemy);
        let inc = INC_VAL * sim;
        self.confidence.bump(ev.aborter.stx, ev.enemy.stx, inc);
        self.confidence.bump(ev.enemy.stx, ev.aborter.stx, inc);
        let at = ev.now.as_u64();
        for (a, b, sa, sb) in [
            (ev.aborter.stx, ev.enemy.stx, sim_a, sim_b),
            (ev.enemy.stx, ev.aborter.stx, sim_b, sim_a),
        ] {
            trace.emit(at, || TraceEvent::ConfUpdate {
                kind: ConfKind::ConflictInc,
                a_stx: a.0,
                b_stx: b.0,
                sim_a_bits: sa.to_bits(),
                sim_b_bits: sb.to_bits(),
                param_bits: INC_VAL.to_bits(),
                applied_bits: inc.to_bits(),
            });
        }

        // Conflict pressure rises (hybrid variant's gate; tracked always,
        // charged only when the hybrid consults it).
        let p = self.pressure_of(ev.aborter.stx);
        *p = PRESSURE_ALPHA * *p + (1.0 - PRESSURE_ALPHA);

        AbortPlan {
            backoff: rng.jitter(BACKOFF_WINDOW << ev.retries.min(6)),
            cost: self.priced(sw_cost::CONFLICT),
        }
    }

    fn on_commit(
        &mut self,
        rec: &CommitRecord<'_>,
        tm: &TmState,
        costs: &CostModel,
        _rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> CommitOutcome {
        let mut cost = self.priced(sw_cost::COMMIT_BASE);

        // Fault injection: confidence-table poisoning on the commit
        // cadence (DESIGN.md §9). The rewrite happens before this commit's
        // own confidence updates, so every later ConfUpdate still verifies
        // bit-exact against the (poisoned) table it actually touched.
        let poison_due = match self.faults.as_mut() {
            Some(fs) if fs.cfg.poison_period > 0 => {
                fs.commits_seen += 1;
                (fs.commits_seen % fs.cfg.poison_period == 0).then_some(fs.cfg.poison_mode)
            }
            _ => None,
        };
        if let Some(mode) = poison_due {
            let (saturate, entries) = match mode {
                PoisonMode::Reset => (false, self.confidence.reset_all()),
                PoisonMode::Saturate(v) => (true, self.confidence.saturate(v)),
            };
            trace.emit(rec.now.as_u64(), || TraceEvent::FaultConfPoison {
                thread: rec.dtx.thread.index() as u32,
                saturate,
                entries,
            });
        }

        // Pressure decays on commit.
        let pressure_low = {
            let p = self.pressure_of(rec.dtx.stx);
            *p *= PRESSURE_ALPHA;
            *p < PRESSURE_THRESHOLD
        };

        // updateAvgSize.
        let size = rec.rw_set.len() as f64;
        let stat = self.stats.entry(rec.dtx);
        stat.commits += 1;
        stat.avg_size = if stat.commits == 1 {
            size
        } else {
            0.5 * (stat.avg_size + size)
        };
        stat.since_sim_update += 1;
        let is_small = stat.avg_size <= SMALL_TX_SIZE;
        let interval_due = !is_small || stat.since_sim_update >= self.cfg.small_tx_interval;
        let avg_size = stat.avg_size;
        let waiting_on = stat.waiting_on.take();

        // The hybrid skips Bloom work entirely while pressure is low.
        let skip_bloom =
            self.cfg.variant == BfgtsVariant::HwBackoff && pressure_low && waiting_on.is_none();

        // updateBloom + calcSim (Example 4), batched for small txs.
        let mut new_sig: Option<Sig> = None;
        if interval_due && !skip_bloom {
            let mut sig = self.build_sig(rec.rw_set);
            self.forced.clear();
            // Fault injection: forced false-positive bits in the fresh
            // signature, *before* any estimate is taken — the BloomSample
            // below records raw/clamped from the corrupted filter, so the
            // audit's clamp contract (I6) verifies unchanged.
            if let Some(fs) = self.faults.as_mut() {
                let plan = fs.cfg;
                if plan.bloom_corrupt_bits > 0
                    && plan.bloom_corrupt_pct > 0
                    && fs.rng.gen_range(100) < u64::from(plan.bloom_corrupt_pct)
                {
                    let forced =
                        sig.force_bits(&mut fs.rng, plan.bloom_corrupt_bits, &mut self.forced);
                    if forced > 0 {
                        trace.emit(rec.now.as_u64(), || TraceEvent::FaultBloomCorrupt {
                            thread: rec.dtx.thread.index() as u32,
                            stx: rec.dtx.stx.0,
                            bits: forced,
                        });
                    }
                }
            }
            if let Some(old) = self
                .signatures
                .get(rec.dtx)
                .map(|s| s.filter(self.cfg.signature))
            {
                // Clamp contract: only the clamped estimate may enter the
                // similarity average. The trace records the raw value so
                // the audit (invariant I6) can prove the clamp happened.
                let inter = sig.intersection_estimate_clamped(&old);
                trace.emit(rec.now.as_u64(), || TraceEvent::BloomSample {
                    thread: rec.dtx.thread.index() as u32,
                    stx: rec.dtx.stx.0,
                    raw_bits: sig.intersection_estimate(&old).to_bits(),
                    clamped_bits: inter.to_bits(),
                });
                let new_sim = if avg_size > 0.0 {
                    (inter / avg_size).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let stat = self.stats.entry(rec.dtx);
                stat.sim = 0.5 * (stat.sim + new_sim);
                cost += self.priced(costs.similarity_calc(sig.word_count()));
            } else {
                cost += self.priced(2 * sig.word_count());
            }
            self.stats.entry(rec.dtx).since_sim_update = 0;
            new_sig = Some(sig);
        }

        // checkWasSerialized: was the wait justified?
        if let Some(target) = waiting_on {
            let verdict: Option<bool> = if tm.num_shards() > 1 {
                if new_sig.is_none() {
                    cost += self.priced(2 * 32);
                }
                let (mine, theirs) = &mut self.by_shard;
                group_by_shard(tm, rec.rw_set, mine);
                let stored = self.signatures.get(target);
                group_by_shard(tm, stored.into_iter().flat_map(|s| s.lines.iter()), theirs);
                let (mine, theirs) = &self.by_shard;
                let (verdict, charged) = self.sharded_wait_check(tm, costs, mine, theirs);
                cost += charged;
                verdict
            } else {
                let built;
                let mine = match &new_sig {
                    Some(s) => s,
                    None => {
                        // Need a signature for the intersection even if
                        // the similarity update was batched away.
                        cost += self.priced(2 * 32);
                        built = self.build_sig(rec.rw_set);
                        &built
                    }
                };
                self.signatures.get(target).map(|theirs| {
                    cost += self.priced(costs.bloom_intersect(mine.word_count()));
                    mine.intersects(&theirs.filter(self.cfg.signature))
                })
            };
            if let Some(justified) = verdict {
                let (sim, sim_a, sim_b) = self.paired_sim_parts(rec.dtx, target);
                let (kind, param, applied) = if justified {
                    (ConfKind::WaitJustified, INC_VAL, INC_VAL * sim)
                } else {
                    (ConfKind::WaitUnjustified, DEC_VAL, -(DEC_VAL * (1.0 - sim)))
                };
                self.confidence.bump(rec.dtx.stx, target.stx, applied);
                trace.emit(rec.now.as_u64(), || TraceEvent::ConfUpdate {
                    kind,
                    a_stx: rec.dtx.stx.0,
                    b_stx: target.stx.0,
                    sim_a_bits: sim_a.to_bits(),
                    sim_b_bits: sim_b.to_bits(),
                    param_bits: param.to_bits(),
                    applied_bits: applied.to_bits(),
                });
            }
        }

        if new_sig.is_some() {
            let entry = self
                .signatures
                .get_or_insert_with(rec.dtx, StoredSigs::default);
            entry.lines.assign(rec.rw_set);
            entry.forced.clone_from(&self.forced);
        }

        CommitOutcome {
            cost,
            wake: Vec::new(),
        }
    }

    fn on_wait_skipped(&mut self, dtx: DTxId) {
        self.stats.entry(dtx).waiting_on = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_bloomsig::SignatureKind;
    use bfgts_sim::{Cycle, ThreadId};

    fn dtx(t: usize, s: u32) -> DTxId {
        DTxId::new(ThreadId(t), STxId(s))
    }

    fn env() -> (TmState, CostModel, SimRng) {
        (
            TmState::new(4, 8),
            CostModel::default(),
            SimRng::seed_from(11),
        )
    }

    fn query(t: usize, s: u32, cpu: usize) -> BeginQuery {
        BeginQuery {
            thread: ThreadId(t),
            cpu,
            dtx: dtx(t, s),
            now: Cycle::ZERO,
            retries: 0,
            waits: 0,
        }
    }

    fn conflict(a: DTxId, b: DTxId) -> ConflictEvent {
        ConflictEvent {
            aborter: a,
            enemy: b,
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries: 0,
        }
    }

    fn commit_rec<'a>(d: DTxId, rw: &'a [LineAddr]) -> CommitRecord<'a> {
        CommitRecord {
            dtx: d,
            rw_set: rw,
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        }
    }

    fn lines(r: std::ops::Range<u64>) -> Vec<LineAddr> {
        r.map(LineAddr).collect()
    }

    #[test]
    fn names_match_variants() {
        assert_eq!(BfgtsCm::new(BfgtsConfig::sw()).name(), "BFGTS-SW");
        assert_eq!(
            BfgtsCm::new(BfgtsConfig::hw_backoff()).name(),
            "BFGTS-HW/Backoff"
        );
    }

    #[test]
    fn cold_manager_proceeds() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(out.decision, BeginDecision::Proceed);
    }

    #[test]
    fn conflicts_raise_confidence_similarity_weighted() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        // initial sim prior is 0.5 → inc = 80 * 0.5 = 40 per conflict.
        cm.on_conflict_abort(
            &conflict(dtx(0, 0), dtx(1, 1)),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(cm.confidence().get(STxId(0), STxId(1)), 40.0);
        assert_eq!(cm.confidence().get(STxId(1), STxId(0)), 40.0);
    }

    #[test]
    fn ablated_weighting_uses_full_inc() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw().without_similarity_weighting());
        cm.on_conflict_abort(
            &conflict(dtx(0, 0), dtx(1, 1)),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(cm.confidence().get(STxId(0), STxId(1)), 80.0);
    }

    fn heat_up(
        cm: &mut BfgtsCm,
        a: DTxId,
        b: DTxId,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
    ) {
        for _ in 0..4 {
            cm.on_conflict_abort(&conflict(a, b), tm, costs, rng, &mut TraceSink::disabled());
        }
    }

    #[test]
    fn hot_confidence_predicts_conflict_and_spins_for_small_target() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        heat_up(&mut cm, dtx(0, 0), dtx(1, 1), &tm, &costs, &mut rng);
        // Target runs on cpu 1; it has no size history (avg 0 < 10) so we
        // spin rather than yield.
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(
            out.decision,
            BeginDecision::SpinUntilDone { target: dtx(1, 1) }
        );
    }

    #[test]
    fn large_target_yields_instead_of_spinning() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        heat_up(&mut cm, dtx(0, 0), dtx(1, 1), &tm, &costs, &mut rng);
        // Give the target an average size right at the wait-primitive
        // crossover via a commit: long enough to yield for.
        let rw = lines(0..YIELD_WAIT_THRESHOLD as u64);
        cm.on_commit(
            &commit_rec(dtx(1, 1), &rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(
            out.decision,
            BeginDecision::YieldUntilDone { target: dtx(1, 1) }
        );
    }

    #[test]
    fn short_targets_spin_under_default_threshold() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        heat_up(&mut cm, dtx(0, 0), dtx(1, 1), &tm, &costs, &mut rng);
        let rw = lines(0..40); // well below YIELD_WAIT_THRESHOLD
        cm.on_commit(
            &commit_rec(dtx(1, 1), &rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(
            out.decision,
            BeginDecision::SpinUntilDone { target: dtx(1, 1) }
        );
    }

    #[test]
    fn suspend_decays_confidence() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        heat_up(&mut cm, dtx(0, 0), dtx(1, 1), &tm, &costs, &mut rng);
        let before = cm.confidence().get(STxId(0), STxId(1));
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        let after = cm.confidence().get(STxId(0), STxId(1));
        assert!(after < before, "suspendTx must decay confidence");
    }

    #[test]
    fn hw_begin_is_cheaper_than_sw() {
        let (mut tm, costs, mut rng) = env();
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        tm.begin_tx(ThreadId(2), 2, dtx(2, 2), Cycle::ZERO);
        let mut sw = BfgtsCm::new(BfgtsConfig::sw());
        let mut hw = BfgtsCm::new(BfgtsConfig::hw());
        let sw_cost = sw
            .on_begin(
                &query(0, 0, 0),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            )
            .cost;
        // Warm the predictor cache once, then measure.
        hw.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        let hw_cost = hw
            .on_begin(
                &query(0, 0, 0),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            )
            .cost;
        assert!(
            hw_cost < sw_cost / 5,
            "hw begin {hw_cost} should be far below sw {sw_cost}"
        );
    }

    #[test]
    fn hybrid_skips_prediction_at_low_pressure() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw_backoff());
        heat_up(&mut cm, dtx(0, 0), dtx(1, 1), &tm, &costs, &mut rng);
        // Decay pressure well below the threshold with many commits.
        let rw = lines(0..5);
        for _ in 0..40 {
            cm.on_commit(
                &commit_rec(dtx(0, 0), &rw),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
        }
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(
            out.decision,
            BeginDecision::Proceed,
            "low pressure must bypass the predictor"
        );
        assert!(out.cost <= sw_cost::PRESSURE);
    }

    #[test]
    fn hybrid_predicts_at_high_pressure() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw_backoff());
        heat_up(&mut cm, dtx(0, 0), dtx(1, 1), &tm, &costs, &mut rng);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert!(matches!(
            out.decision,
            BeginDecision::SpinUntilDone { .. } | BeginDecision::YieldUntilDone { .. }
        ));
    }

    #[test]
    fn similarity_converges_for_identical_sets() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        let rw = lines(0..30);
        for _ in 0..12 {
            cm.on_commit(
                &commit_rec(dtx(0, 0), &rw),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
        }
        let sim = cm.stats().sim_of(dtx(0, 0));
        assert!(sim > 0.85, "identical sets must converge high, got {sim}");
    }

    #[test]
    fn similarity_converges_low_for_disjoint_sets() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        for i in 0..12u64 {
            let rw = lines(i * 1000..i * 1000 + 30);
            cm.on_commit(
                &commit_rec(dtx(0, 0), &rw),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
        }
        let sim = cm.stats().sim_of(dtx(0, 0));
        assert!(sim < 0.2, "disjoint sets must converge low, got {sim}");
    }

    #[test]
    fn small_tx_similarity_updates_are_batched() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw().small_tx_interval(20));
        let rw = lines(0..5); // small: avg 5 <= 10
        let mut expensive = 0;
        for _ in 0..40 {
            let out = cm.on_commit(
                &commit_rec(dtx(0, 0), &rw),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
            if out.cost > 2 * sw_cost::COMMIT_BASE {
                expensive += 1;
            }
        }
        assert!(
            expensive <= 3,
            "similarity math should run ~1/20 commits, ran {expensive}"
        );
    }

    #[test]
    fn no_overhead_costs_are_unit() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::no_overhead());
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(out.cost, 1);
        let rw = lines(0..50);
        let commit = cm.on_commit(
            &commit_rec(dtx(0, 0), &rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert!(commit.cost <= 3, "NoOverhead commit must be ~free");
        let plan = cm.on_conflict_abort(
            &conflict(dtx(0, 0), dtx(1, 0)),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(plan.cost, 1);
    }

    #[test]
    fn justified_wait_strengthens_unjustified_weakens() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::no_overhead());
        // Enemy's last set: 30 lines (large, so its signature is stored
        // immediately rather than batched).
        let enemy_rw = lines(0..30);
        cm.on_commit(
            &commit_rec(dtx(1, 1), &enemy_rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );

        // Case 1: we waited, and our set overlaps theirs → strengthen.
        cm.stats.entry(dtx(0, 0)).waiting_on = Some(dtx(1, 1));
        let before = cm.confidence().get(STxId(0), STxId(1));
        let my_rw = lines(20..50);
        cm.on_commit(
            &commit_rec(dtx(0, 0), &my_rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        let strengthened = cm.confidence().get(STxId(0), STxId(1));
        assert!(strengthened > before);

        // Case 2: we waited, sets disjoint → weaken.
        cm.stats.entry(dtx(0, 0)).waiting_on = Some(dtx(1, 1));
        let my_rw = lines(1000..1030);
        cm.on_commit(
            &commit_rec(dtx(0, 0), &my_rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert!(cm.confidence().get(STxId(0), STxId(1)) < strengthened);
    }

    #[test]
    fn sharded_wait_check_consults_only_cotouched_shards() {
        let (mut tm, costs, mut rng) = env();
        tm.configure_shards(2);
        let mut cm = BfgtsCm::new(BfgtsConfig::no_overhead());
        // Enemy's last commit lives entirely in shard 0 (block 0).
        let enemy_rw = lines(0..30);
        cm.on_commit(
            &commit_rec(dtx(1, 1), &enemy_rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );

        // We waited, but commit only shard-1 lines (block 1): no
        // co-touched shard, so checkWasSerialized has nothing to
        // intersect and the confidence entry stays untouched.
        cm.stats.entry(dtx(0, 0)).waiting_on = Some(dtx(1, 1));
        let my_rw = lines(64..94);
        cm.on_commit(
            &commit_rec(dtx(0, 0), &my_rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(cm.confidence().get(STxId(0), STxId(1)), 0.0);

        // We waited and overlap the enemy inside shard 0: justified,
        // confidence strengthens.
        cm.stats.entry(dtx(0, 0)).waiting_on = Some(dtx(1, 1));
        let my_rw = lines(20..50);
        cm.on_commit(
            &commit_rec(dtx(0, 0), &my_rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert!(cm.confidence().get(STxId(0), STxId(1)) > 0.0);
    }

    #[test]
    fn sharded_recommit_replaces_the_stored_shard_signatures() {
        let (mut tm, costs, mut rng) = env();
        tm.configure_shards(2);
        let mut cm = BfgtsCm::new(BfgtsConfig::no_overhead());
        let mut commit = |cm: &mut BfgtsCm, d: DTxId, rw: &[LineAddr]| {
            cm.on_commit(
                &commit_rec(d, rw),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
        };
        // The enemy commits in shard 0 (block 0), then again in shard 1
        // (block 1) only: its newest stored commit has no shard-0 part.
        commit(&mut cm, dtx(1, 1), &lines(0..30));
        commit(&mut cm, dtx(1, 1), &lines(64..94));

        // A waiter overlapping only the enemy's *old* shard-0 lines finds
        // no co-touched shard: no verdict, confidence untouched.
        cm.stats.entry(dtx(0, 0)).waiting_on = Some(dtx(1, 1));
        commit(&mut cm, dtx(0, 0), &lines(20..50));
        assert_eq!(cm.confidence().get(STxId(0), STxId(1)), 0.0);

        // Overlapping the enemy's new shard-1 lines is a justified wait.
        cm.stats.entry(dtx(0, 0)).waiting_on = Some(dtx(1, 1));
        commit(&mut cm, dtx(0, 0), &lines(80..110));
        assert!(cm.confidence().get(STxId(0), STxId(1)) > 0.0);
    }

    /// The per-shard construction the sharded wait check replaced, kept
    /// as its reference: one stored filter per touched shard, ascending,
    /// matched by binary search.
    fn reference_shard_sigs(cm: &BfgtsCm, tm: &TmState, rw_set: &[LineAddr]) -> Box<[(u32, Sig)]> {
        let mut shards: Vec<u32> = rw_set.iter().map(|&addr| tm.shard_of(addr)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
            .into_iter()
            .map(|shard| {
                let part: Vec<LineAddr> = rw_set
                    .iter()
                    .copied()
                    .filter(|&addr| tm.shard_of(addr) == shard)
                    .collect();
                (shard, cm.build_sig(&part))
            })
            .collect()
    }

    fn reference_wait_check(
        cm: &BfgtsCm,
        tm: &TmState,
        costs: &CostModel,
        mine: &[LineAddr],
        theirs: &[LineAddr],
    ) -> (Option<bool>, u64) {
        let (mine, theirs) = (
            reference_shard_sigs(cm, tm, mine),
            reference_shard_sigs(cm, tm, theirs),
        );
        let (mut verdict, mut cost) = (None, 0);
        for (shard, mine) in mine.iter() {
            let Ok(i) = theirs.binary_search_by_key(shard, |p| p.0) else {
                continue;
            };
            cost += cm.priced(costs.bloom_intersect(mine.word_count()));
            verdict = Some(verdict.unwrap_or(false) || mine.intersects(&theirs[i].1));
        }
        (verdict, cost)
    }

    fn stored_lines_wait_check(
        cm: &BfgtsCm,
        tm: &TmState,
        costs: &CostModel,
        mine: &[LineAddr],
        theirs: &[LineAddr],
    ) -> (Option<bool>, u64) {
        let (mut mine_grouped, mut theirs_grouped) = (Vec::new(), Vec::new());
        group_by_shard(tm, mine, &mut mine_grouped);
        group_by_shard(tm, theirs, &mut theirs_grouped);
        cm.sharded_wait_check(tm, costs, &mine_grouped, &theirs_grouped)
    }

    type WaitCheck =
        fn(&BfgtsCm, &TmState, &CostModel, &[LineAddr], &[LineAddr]) -> (Option<bool>, u64);

    /// `check`'s verdict and charge on 300 seeded pairs of 1–40-line sets
    /// over 2–64 shards. Every third pair keeps the two sets in disjoint
    /// shard ranges; the rest share shards, with lines drawn from a range
    /// narrow enough that some pairs share lines too.
    fn wait_check_outcomes(cfg: BfgtsConfig, check: WaitCheck) -> Vec<(Option<bool>, u64)> {
        let (mut tm, costs, _) = env();
        let cm = BfgtsCm::new(cfg);
        let mut rng = SimRng::seed_from(0x5AAD);
        let set = |rng: &mut SimRng, shards: u64, from: u64, to: u64, offsets: u64| {
            let len = 1 + rng.gen_range(40);
            (0..len)
                .map(|_| {
                    let shard = from + rng.gen_range(to - from);
                    let block = rng.gen_range(3) * shards + shard;
                    LineAddr(block * bfgts_htm::SHARD_BLOCK_LINES + rng.gen_range(offsets))
                })
                .collect::<Vec<_>>()
        };
        (0..300)
            .map(|i| {
                let shards = 2 + rng.gen_range(63);
                tm.configure_shards(shards as u32);
                let (mine, theirs) = if i % 3 == 0 {
                    let split = 1 + rng.gen_range(shards - 1);
                    (
                        set(&mut rng, shards, 0, split, 64),
                        set(&mut rng, shards, split, shards, 64),
                    )
                } else {
                    let offsets = if i % 3 == 1 { 4 } else { 64 };
                    (
                        set(&mut rng, shards, 0, shards, offsets),
                        set(&mut rng, shards, 0, shards, offsets),
                    )
                };
                check(&cm, &tm, &costs, &mine, &theirs)
            })
            .collect()
    }

    #[test]
    fn sharded_wait_check_matches_the_per_shard_filter_reference() {
        let kinds = [
            SignatureKind::Bloom { bits: 512 },
            SignatureKind::Bloom { bits: 2048 },
            SignatureKind::Bloom { bits: 8192 },
            SignatureKind::Perfect,
        ];
        for variant in [BfgtsVariant::Hw, BfgtsVariant::NoOverhead] {
            for signature in kinds {
                let cfg = BfgtsConfig {
                    signature,
                    ..BfgtsConfig::new(variant)
                };
                let new = wait_check_outcomes(cfg, stored_lines_wait_check);
                let reference = wait_check_outcomes(cfg, reference_wait_check);
                assert_eq!(new, reference, "{variant:?} with {signature:?}");
                for verdict in [None, Some(false), Some(true)] {
                    assert!(
                        new.iter().any(|&(v, _)| v == verdict),
                        "{variant:?} with {signature:?} never gave {verdict:?}"
                    );
                }
            }
        }
    }

    /// The construction stored entries replaced, kept as their reference:
    /// the commit's whole-set filter, corrupted as the `bloom_corrupt`
    /// plan draws from `rng`, kept as is.
    fn reference_whole(cm: &BfgtsCm, rw_set: &[LineAddr], plan: CmFaults, rng: &mut SimRng) -> Sig {
        let mut sig = cm.build_sig(rw_set);
        if rng.gen_range(100) < u64::from(plan.bloom_corrupt_pct) {
            if let Sig::Bloom(b) = &mut sig {
                for _ in 0..plan.bloom_corrupt_bits {
                    b.set_bit(rng.gen_range(u64::from(b.bits())) as u32);
                }
            }
        }
        sig
    }

    /// Drives 300 seeded commits of 11–40-line sets by six dTxIDs through
    /// BFGTS-HW with `signature` on `shards` shards under a 50% / 24-bit
    /// `bloom_corrupt` plan, half of them after a wait on another dTxID.
    /// Every stored entry must rebuild the reference filter bit for bit,
    /// and every BloomSample, wait verdict and commit charge must be the
    /// reference's. Returns how many commits had bits forced and how many
    /// gave each verdict (unjustified, justified).
    fn stored_entries_against_the_reference(
        signature: SignatureKind,
        shards: u32,
    ) -> (u32, [u32; 2]) {
        let (mut tm, costs, _) = env();
        tm.configure_shards(shards);
        let plan = CmFaults::new(21).bloom_corruption(50, 24);
        let cfg = BfgtsConfig {
            signature,
            ..BfgtsConfig::hw()
        };
        let mut cm = BfgtsCm::with_faults(cfg, plan);
        let mut fault_rng = SimRng::seed_from(plan.seed).derive(0xFA07_5EED);
        let mut rng = SimRng::seed_from(0xD1FF);
        let dtxs = [
            dtx(0, 0),
            dtx(0, 1),
            dtx(1, 0),
            dtx(2, 2),
            dtx(3, 1),
            dtx(5, 0),
        ];
        let mut reference: Vec<Option<(Sig, Vec<LineAddr>)>> = vec![None; dtxs.len()];
        let mut trace = TraceSink::new(bfgts_sim::TraceMode::Full);
        let (mut forced, mut verdicts) = (0, [0, 0]);
        for _ in 0..300 {
            let me = rng.gen_range(dtxs.len() as u64) as usize;
            let len = 11 + rng.gen_range(30) as usize;
            let mut set = std::collections::BTreeSet::new();
            while set.len() < len {
                set.insert(rng.gen_range(2048));
            }
            let rw: Vec<LineAddr> = set.into_iter().map(LineAddr).collect();
            let target = (rng.gen_range(2) == 0)
                .then(|| (me + 1 + rng.gen_range(dtxs.len() as u64 - 1) as usize) % dtxs.len());
            cm.stats.entry(dtxs[me]).waiting_on = target.map(|t| dtxs[t]);

            let whole = reference_whole(&cm, &rw, plan, &mut fault_rng);
            let sample = reference[me].as_ref().map(|(old, _)| {
                (
                    whole.intersection_estimate(old).to_bits(),
                    whole.intersection_estimate_clamped(old).to_bits(),
                )
            });
            let check = target.map(|t| {
                let theirs = reference[t].as_ref();
                if shards > 1 {
                    let lines = theirs.map_or(&[][..], |(_, lines)| lines);
                    reference_wait_check(&cm, &tm, &costs, &rw, lines)
                } else {
                    theirs.map_or((None, 0), |(sig, _)| {
                        let charged = cm.priced(costs.bloom_intersect(whole.word_count()));
                        (Some(whole.intersects(sig)), charged)
                    })
                }
            });
            let sampled = if sample.is_some() {
                costs.similarity_calc(whole.word_count())
            } else {
                2 * whole.word_count()
            };

            let out = cm.on_commit(
                &commit_rec(dtxs[me], &rw),
                &tm,
                &costs,
                &mut SimRng::seed_from(0),
                &mut trace,
            );
            let events = trace.take().events;
            let got_sample = events.iter().find_map(|r| match r.ev {
                TraceEvent::BloomSample {
                    raw_bits,
                    clamped_bits,
                    ..
                } => Some((raw_bits, clamped_bits)),
                _ => None,
            });
            let got_verdict = events.iter().find_map(|r| match r.ev {
                TraceEvent::ConfUpdate {
                    kind: ConfKind::WaitJustified,
                    ..
                } => Some(true),
                TraceEvent::ConfUpdate {
                    kind: ConfKind::WaitUnjustified,
                    ..
                } => Some(false),
                _ => None,
            });
            let stored = cm.signatures.get(dtxs[me]).map(|s| s.filter(signature));
            assert_eq!(stored.as_ref(), Some(&whole), "rebuilt filter");
            assert_eq!(got_sample, sample, "BloomSample raw and clamped bits");
            let (verdict, charged) = check.unwrap_or_default();
            assert_eq!(got_verdict, verdict, "wait verdict");
            assert_eq!(
                out.cost,
                sw_cost::COMMIT_BASE + sampled + charged,
                "commit charge"
            );

            forced += u32::from(
                events
                    .iter()
                    .any(|r| matches!(r.ev, TraceEvent::FaultBloomCorrupt { .. })),
            );
            if let Some(v) = verdict {
                verdicts[usize::from(v)] += 1;
            }
            reference[me] = Some((whole, rw));
        }
        (forced, verdicts)
    }

    #[test]
    fn stored_entries_rebuild_the_reference_filters() {
        for shards in [1, 16] {
            for signature in [SignatureKind::Bloom { bits: 2048 }, SignatureKind::Perfect] {
                let (forced, verdicts) = stored_entries_against_the_reference(signature, shards);
                let bloom = signature != SignatureKind::Perfect;
                assert_eq!(
                    forced > 0,
                    bloom,
                    "{signature:?} on {shards} shards: {forced} commits had bits forced"
                );
                assert!(
                    verdicts[0] > 0 && verdicts[1] > 0,
                    "{signature:?} on {shards} shards gave verdicts {verdicts:?}"
                );
            }
        }
    }

    #[test]
    fn wait_skipped_clears_waiting_on() {
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        cm.stats.entry(dtx(0, 0)).waiting_on = Some(dtx(1, 1));
        cm.on_wait_skipped(dtx(0, 0));
        assert_eq!(cm.stats.entry(dtx(0, 0)).waiting_on, None);
    }

    #[test]
    fn inactive_fault_plan_behaves_like_a_clean_manager() {
        let (tm, costs, mut rng) = env();
        let mut clean = BfgtsCm::new(BfgtsConfig::hw());
        let mut faulted = BfgtsCm::with_faults(BfgtsConfig::hw(), CmFaults::new(99));
        let rw = lines(0..30);
        for _ in 0..8 {
            clean.on_commit(
                &commit_rec(dtx(0, 0), &rw),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
            faulted.on_commit(
                &commit_rec(dtx(0, 0), &rw),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
        }
        assert_eq!(
            clean.stats().sim_of(dtx(0, 0)),
            faulted.stats().sim_of(dtx(0, 0)),
            "an inactive plan must not perturb anything"
        );
    }

    #[test]
    fn bloom_corruption_inflates_similarity_of_disjoint_sets() {
        let (tm, costs, rng) = env();
        let run = |faults: Option<CmFaults>| {
            let mut cm = match faults {
                Some(f) => BfgtsCm::with_faults(BfgtsConfig::hw(), f),
                None => BfgtsCm::new(BfgtsConfig::hw()),
            };
            for i in 0..12u64 {
                let rw = lines(i * 1000..i * 1000 + 30);
                cm.on_commit(
                    &commit_rec(dtx(0, 0), &rw),
                    &tm,
                    &costs,
                    &mut rng.derive(i),
                    &mut TraceSink::disabled(),
                );
            }
            cm.stats().sim_of(dtx(0, 0))
        };
        let clean = run(None);
        // 100% corruption rate, 256 forced bits in a 2048-bit filter:
        // disjoint sets now look overlapping.
        let corrupted = run(Some(CmFaults::new(5).bloom_corruption(100, 256)));
        assert!(
            corrupted > clean,
            "corruption must inflate similarity ({clean} -> {corrupted})"
        );
    }

    #[test]
    fn poisoning_reset_wipes_learned_confidence() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::with_faults(
            BfgtsConfig::hw(),
            CmFaults::new(3).poisoning(1, PoisonMode::Reset),
        );
        heat_up(&mut cm, dtx(0, 0), dtx(1, 1), &tm, &costs, &mut rng);
        assert!(cm.confidence().get(STxId(0), STxId(1)) > 0.0);
        let rw = lines(0..5);
        cm.on_commit(
            &commit_rec(dtx(0, 0), &rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(
            cm.confidence().get(STxId(0), STxId(1)),
            0.0,
            "period-1 reset poisoning must wipe the table on every commit"
        );
    }

    #[test]
    fn poisoning_saturation_manufactures_spurious_suspensions() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::with_faults(
            BfgtsConfig::hw(),
            CmFaults::new(3).poisoning(1, PoisonMode::Saturate(1000.0)),
        );
        // One commit each from two transactions that have NEVER conflicted;
        // saturation makes the scheduler serialise them anyway.
        let rw = lines(0..5);
        cm.on_conflict_abort(
            &conflict(dtx(2, 2), dtx(3, 3)),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        cm.on_commit(
            &commit_rec(dtx(2, 2), &rw),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        let out = cm.on_begin(
            &query(0, 0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert!(
            matches!(
                out.decision,
                BeginDecision::SpinUntilDone { .. } | BeginDecision::YieldUntilDone { .. }
            ),
            "saturated confidence must predict a conflict for strangers, got {:?}",
            out.decision
        );
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let (tm, costs, _) = env();
        let run = |seed: u64| {
            let mut cm = BfgtsCm::with_faults(
                BfgtsConfig::hw(),
                CmFaults::new(seed).bloom_corruption(50, 32),
            );
            let mut rng = SimRng::seed_from(1);
            let mut sims = Vec::new();
            for i in 0..16u64 {
                let rw = lines(i * 64..i * 64 + 20);
                cm.on_commit(
                    &commit_rec(dtx(0, 0), &rw),
                    &tm,
                    &costs,
                    &mut rng,
                    &mut TraceSink::disabled(),
                );
                sims.push(cm.stats().sim_of(dtx(0, 0)).to_bits());
            }
            sims
        };
        assert_eq!(run(7), run(7), "same fault seed, same trajectory");
        assert_ne!(run(7), run(8), "fault seed must matter at a 50% rate");
    }

    #[test]
    fn backoff_grows_with_retries() {
        let (tm, costs, mut rng) = env();
        let mut cm = BfgtsCm::new(BfgtsConfig::hw());
        let mut late = ConflictEvent {
            retries: 6,
            ..conflict(dtx(0, 0), dtx(1, 0))
        };
        late.retries = 6;
        let draws_late: u64 = (0..50)
            .map(|_| {
                cm.on_conflict_abort(&late, &tm, &costs, &mut rng, &mut TraceSink::disabled())
                    .backoff
            })
            .sum();
        let early = conflict(dtx(0, 0), dtx(1, 0));
        let draws_early: u64 = (0..50)
            .map(|_| {
                cm.on_conflict_abort(&early, &tm, &costs, &mut rng, &mut TraceSink::disabled())
                    .backoff
            })
            .sum();
        assert!(draws_late > draws_early * 4);
    }
}
