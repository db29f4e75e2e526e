//! Replays a trace and proves the run's accounting correct.
//!
//! The checker enforces the invariants of DESIGN.md §8:
//!
//! * **I1 — bucket conservation.** Summing every [`TraceEvent::Charge`]
//!   and applying every [`TraceEvent::Refile`] per thread reproduces the
//!   run's reported `TimeBuckets` *exactly* (integer equality, no
//!   tolerance). A charge posted twice, dropped, or refiled into the
//!   wrong bucket cannot cancel out across five buckets and sixty-four
//!   threads.
//! * **I2 — per-CPU serialisation.** Charge intervals `[at, at+cycles)`
//!   on one CPU never overlap. Transactional work is included, so no two
//!   transactions ever *execute* on the same CPU at the same time (the
//!   wall-clock intervals of preempted transactions legitimately
//!   interleave under 4-per-CPU overcommit, which is why the invariant is
//!   stated at charge granularity).
//! * **I3 — lifecycle.** Per thread, begins/commits/aborts alternate,
//!   commits and aborts name the transaction that began, every abort is
//!   preceded by a conflict in the same attempt, and stalls/conflicts
//!   happen only inside a transaction (suspensions only outside).
//! * **I5 — confidence arithmetic.** Every [`TraceEvent::ConfUpdate`] is
//!   recomputed from its recorded similarity inputs using the paper's
//!   Examples 2–4 weighting and must match the applied delta *bit for
//!   bit*.
//! * **I6 — clamp contract.** Every [`TraceEvent::BloomSample`] satisfies
//!   `clamped == max(raw, 0)` and `clamped ≥ 0`: negative Bloom
//!   intersection estimates are clamped before they reach any running
//!   average.
//! * **I7 — makespan closure.** No charge extends past the makespan, so
//!   with I2, every CPU's busy + idle time equals the makespan and the
//!   grand total equals `makespan × num_cpus`.
//! * **I8 — cross-shard charges are earned.** Every
//!   [`TraceEvent::CrossShardCommit`] names at least 2 shards, and its
//!   count equals the number of distinct shards the open attempt named
//!   via [`TraceEvent::ShardTouch`] events (each emitted at most once
//!   per shard per attempt). Conversely, an attempt that touched ≥ 2
//!   shards must not commit without its cross-shard charge.
//! * **I9 — causal arrivals.** Open-system runs only: every
//!   [`TraceEvent::TxArrival`] is fetched at or after its recorded
//!   arrival cycle, per-thread arrivals are FIFO (non-decreasing), no
//!   [`TraceEvent::TxBegin`] of the fetched transaction precedes its
//!   arrival, and the commit that consumes it does not either — so
//!   every sojourn (commit − arrival) is non-negative, and the audit's
//!   summed sojourn is exactly conserved against the run's reported
//!   latency accounting. A fetched arrival that never commits is
//!   flagged at end of trace.
//! * **I10 — bounded detection is honest.** Capacity-limited runs only:
//!   every [`TraceEvent::CapacityAbort`] records a set size that
//!   actually exceeded the configured bound (`tracked > capacity`,
//!   `capacity ≥ 1`), every [`TraceEvent::FalsePositiveConflict`] is
//!   *dis*confirmed by the exact sets (`true_conflicts == 0` — a
//!   non-zero count means a real conflict was mislabeled as signature
//!   noise), both happen only inside an open transaction whose stx
//!   matches, both count as the conflict that licenses the attempt's
//!   abort under I3, and an attempt that saw either must abort — a
//!   commit after a fatal detection event is a violation. `Perfect`
//!   runs emit neither event, which CI enforces byte-for-byte against
//!   the golden pre-capacity traces.
//! * **I11 — window discipline.** Runs under a window-based greedy
//!   manager declare their window-priority seed
//!   ([`AuditInputs::window_seed`]); every [`TraceEvent::WindowAdvance`]
//!   then satisfies three contracts: per-thread window positions are
//!   strictly increasing, the recorded priority equals
//!   [`window_priority`]`(seed, thread, window)` *bit for bit*, and no
//!   advance happens while the thread has an open transaction — so
//!   every commit lands inside the window that began it. An advance in
//!   a run that declared no seed is itself a violation.
//!
//! (I4 is the sequence-number density check folded into the drop
//! detection: the audit requires a [`TraceMode::Full`] recording.)
//!
//! [`TraceMode::Full`]: crate::TraceMode::Full

use crate::event::{Bucket, ConfKind, TraceEvent};
use crate::sink::TraceRecording;

/// The shared randomized-priority draw of the window-based greedy
/// managers (DESIGN.md §14): a keyed splitmix64-style hash of
/// `(seed, thread, window)`. Pure and dependency-free so the managers
/// (via `bfgts-sim`'s re-export) and invariant I11 compute the exact
/// same bits from the scenario seed, without sharing any RNG state with
/// the run's decision streams.
pub fn window_priority(seed: u64, thread: u32, window: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(mix(u64::from(thread).wrapping_add(0x5851_F42D_4C95_7F2D)))
        .wrapping_add(mix(window.wrapping_add(0x1405_7B7E_F767_814F))))
}

/// The run-level ground truth the trace is audited against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditInputs {
    /// Reported makespan in cycles.
    pub makespan: u64,
    /// Number of simulated CPUs.
    pub num_cpus: usize,
    /// Reported per-thread bucket totals, indexed by thread id then
    /// [`Bucket::index`].
    pub per_thread: Vec<[u64; Bucket::COUNT]>,
    /// Seed of the window-priority stream, declared by runs under a
    /// window-based greedy manager and `None` for every other run.
    /// [`TraceEvent::WindowAdvance`] events are only legal when a seed
    /// is declared, and I11 recomputes each event's priority from it.
    pub window_seed: Option<u64>,
}

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sequence number of the offending event (`u64::MAX` for end-of-trace
    /// checks with no single culprit).
    pub seq: u64,
    /// Simulated time of the offending event (or the makespan for
    /// end-of-trace checks).
    pub at: u64,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.seq == u64::MAX {
            write!(f, "[end of trace] {}", self.what)
        } else {
            write!(f, "[seq {} @ {}cy] {}", self.seq, self.at, self.what)
        }
    }
}

/// Aggregates derived while replaying a clean trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditSummary {
    /// Events replayed.
    pub events: usize,
    /// Busy cycles per CPU (sum of charge intervals).
    pub per_cpu_busy: Vec<u64>,
    /// Idle cycles per CPU (`makespan − busy`; with I2/I7 these are
    /// exact, so `busy + idle` sums to `makespan × num_cpus`).
    pub per_cpu_idle: Vec<u64>,
    /// Total cycles per bucket after refiles, summed over threads.
    pub charged: [u64; Bucket::COUNT],
    /// Transaction commits seen.
    pub commits: u64,
    /// Transaction aborts seen.
    pub aborts: u64,
    /// Conflicts seen (stalling and aborting).
    pub conflicts: u64,
    /// Stall episodes seen.
    pub stalls: u64,
    /// Scheduler suspensions seen.
    pub suspends: u64,
    /// Context switches seen.
    pub context_switches: u64,
    /// Confidence updates verified.
    pub conf_updates: u64,
    /// Bloom samples verified.
    pub bloom_samples: u64,
    /// Injected faults seen (`FaultBloomCorrupt` + `FaultConfPoison`).
    pub faults: u64,
    /// First-touch shard events verified (sharded platforms only).
    pub shard_touches: u64,
    /// Cross-shard commit charges verified against I8.
    pub cross_shard_commits: u64,
    /// Open-system arrivals verified against I9 (0 for batch runs).
    pub tx_arrivals: u64,
    /// Queue-depth samples seen (one per arrival fetch).
    pub queue_depth_samples: u64,
    /// Largest queue depth observed at any fetch.
    pub max_queue_depth: u64,
    /// Total sojourn cycles (commit − arrival summed over every
    /// committed open-system transaction); the conservation side of I9.
    pub sojourn_cycles: u64,
    /// False-positive conflicts verified against I10 (0 for runs with
    /// perfect detection).
    pub false_positive_conflicts: u64,
    /// Capacity aborts verified against I10 (0 for runs with perfect
    /// detection).
    pub capacity_aborts: u64,
    /// Window advances verified against I11 (0 for runs without a
    /// window-based greedy manager).
    pub window_advances: u64,
}

/// Per-thread lifecycle state for I3/I8.
#[derive(Debug, Clone)]
struct OpenTx {
    stx: u32,
    begin_seq: u64,
    conflict_seen: bool,
    /// Distinct shards this attempt named via `ShardTouch`.
    shards_touched: std::collections::BTreeSet<u32>,
    /// `true` once the attempt's `CrossShardCommit` was seen.
    cross_shard_seen: bool,
    /// `true` once a fatal bounded-detection event (false positive or
    /// capacity overflow) was seen: the attempt must end in an abort
    /// (I10), and a second fatal event in the same attempt is a lie.
    fatal_detection_seen: bool,
}

/// Replays `recording` and checks invariants I1–I7 against `inputs`.
///
/// Returns the derived aggregates on success, or every violation found
/// (the replay does not stop at the first).
pub fn audit(
    recording: &TraceRecording,
    inputs: &AuditInputs,
) -> Result<AuditSummary, Vec<Violation>> {
    let mut v: Vec<Violation> = Vec::new();
    let end = |what: String| Violation {
        seq: u64::MAX,
        at: inputs.makespan,
        what,
    };

    if recording.dropped > 0 {
        v.push(end(format!(
            "recording dropped {} events (ring-buffer trace); the audit needs TraceMode::Full",
            recording.dropped
        )));
    }

    let threads = inputs.per_thread.len();
    let mut acc: Vec<[u64; Bucket::COUNT]> = vec![[0; Bucket::COUNT]; threads];
    let mut cpu_cursor: Vec<u64> = vec![0; inputs.num_cpus];
    let mut cpu_busy: Vec<u64> = vec![0; inputs.num_cpus];
    let mut open: Vec<Option<OpenTx>> = vec![None; threads];
    // I9 state: the fetched-but-uncommitted arrival per thread
    // (`(arrival, fetch seq)`), and the latest arrival cycle for the
    // FIFO check.
    let mut arrived: Vec<Option<(u64, u64)>> = vec![None; threads];
    let mut last_arrival: Vec<u64> = vec![0; threads];
    // I11 state: each thread's current window position (every thread
    // starts in the implicit window 0).
    let mut window_pos: Vec<u64> = vec![0; threads];
    let mut summary = AuditSummary {
        events: recording.events.len(),
        ..AuditSummary::default()
    };

    for rec in &recording.events {
        let bad = |what: String| Violation {
            seq: rec.seq,
            at: rec.at,
            what,
        };
        // Validates a thread id and returns it as a usable index.
        let tid = |thread: u32, v: &mut Vec<Violation>| -> Option<usize> {
            let t = thread as usize;
            if t >= threads {
                v.push(bad(format!(
                    "thread {thread} out of range (run reported {threads} threads)"
                )));
                None
            } else {
                Some(t)
            }
        };
        match rec.ev {
            TraceEvent::Charge {
                cpu,
                thread,
                bucket,
                cycles,
            } => {
                if cycles == 0 {
                    v.push(bad(
                        "zero-cycle charge (zero-cost operations must not emit)".into(),
                    ));
                }
                if let Some(t) = tid(thread, &mut v) {
                    acc[t][bucket.index()] = acc[t][bucket.index()].saturating_add(cycles);
                }
                let c = cpu as usize;
                if c >= inputs.num_cpus {
                    v.push(bad(format!(
                        "cpu {cpu} out of range (run reported {} CPUs)",
                        inputs.num_cpus
                    )));
                } else {
                    // I2: charges on one CPU are serialised.
                    if rec.at < cpu_cursor[c] {
                        v.push(bad(format!(
                            "overlapping charge on cpu {cpu}: starts at {}cy but the previous \
                             charge runs to {}cy",
                            rec.at, cpu_cursor[c]
                        )));
                    }
                    let end_at = rec.at.saturating_add(cycles);
                    // I7: nothing runs past the makespan.
                    if end_at > inputs.makespan {
                        v.push(bad(format!(
                            "charge on cpu {cpu} runs to {end_at}cy, past the makespan \
                             ({}cy)",
                            inputs.makespan
                        )));
                    }
                    cpu_cursor[c] = cpu_cursor[c].max(end_at);
                    cpu_busy[c] = cpu_busy[c].saturating_add(cycles);
                }
            }
            TraceEvent::Refile {
                thread,
                from,
                to,
                requested,
                moved,
            } => {
                if moved != requested {
                    v.push(bad(format!(
                        "refile saturated: asked to move {requested}cy {} → {} but only \
                         {moved}cy were available — somebody moved or never charged the rest",
                        from.label(),
                        to.label()
                    )));
                }
                if let Some(t) = tid(thread, &mut v) {
                    if acc[t][from.index()] < moved {
                        v.push(bad(format!(
                            "refile moves {moved}cy out of {}, but the trace only charged \
                             {}cy to it",
                            from.label(),
                            acc[t][from.index()]
                        )));
                        acc[t][from.index()] = 0;
                    } else {
                        acc[t][from.index()] -= moved;
                    }
                    acc[t][to.index()] = acc[t][to.index()].saturating_add(moved);
                }
            }
            TraceEvent::ContextSwitch { .. } => summary.context_switches += 1,
            TraceEvent::TxBegin { thread, stx, .. } => {
                if let Some(t) = tid(thread, &mut v) {
                    // I9: the fetched transaction must not begin before
                    // its recorded arrival.
                    if let Some((arrival, _)) = arrived[t] {
                        if rec.at < arrival {
                            v.push(bad(format!(
                                "thread {thread} begins stx {stx} at {}cy, before its \
                                 arrival at {arrival}cy",
                                rec.at
                            )));
                        }
                    }
                    if let Some(cur) = &open[t] {
                        v.push(bad(format!(
                            "thread {thread} begins stx {stx} while stx {} (begun at seq {}) \
                             is still open",
                            cur.stx, cur.begin_seq
                        )));
                    }
                    open[t] = Some(OpenTx {
                        stx,
                        begin_seq: rec.seq,
                        conflict_seen: false,
                        shards_touched: std::collections::BTreeSet::new(),
                        cross_shard_seen: false,
                        fatal_detection_seen: false,
                    });
                }
            }
            TraceEvent::TxConflict { thread, .. } => {
                summary.conflicts += 1;
                if let Some(t) = tid(thread, &mut v) {
                    match open[t].as_mut() {
                        Some(cur) => cur.conflict_seen = true,
                        None => v.push(bad(format!(
                            "thread {thread} reports a conflict outside any transaction"
                        ))),
                    }
                }
            }
            TraceEvent::TxStall { thread, .. } => {
                summary.stalls += 1;
                if let Some(t) = tid(thread, &mut v) {
                    if open[t].is_none() {
                        v.push(bad(format!(
                            "thread {thread} stalls outside any transaction"
                        )));
                    }
                }
            }
            TraceEvent::TxSuspend { thread, .. } => {
                summary.suspends += 1;
                if let Some(t) = tid(thread, &mut v) {
                    if let Some(cur) = &open[t] {
                        v.push(bad(format!(
                            "thread {thread} is suspended by the scheduler while stx {} is \
                             already executing",
                            cur.stx
                        )));
                    }
                }
            }
            TraceEvent::TxAbort { thread, stx, .. } => {
                summary.aborts += 1;
                if let Some(t) = tid(thread, &mut v) {
                    match open[t].take() {
                        None => v.push(bad(format!(
                            "thread {thread} aborts stx {stx} that never began"
                        ))),
                        Some(cur) => {
                            if cur.stx != stx {
                                v.push(bad(format!(
                                    "thread {thread} aborts stx {stx} but stx {} is the one \
                                     open",
                                    cur.stx
                                )));
                            }
                            // I3: no spurious aborts.
                            if !cur.conflict_seen {
                                v.push(bad(format!(
                                    "thread {thread} aborts stx {stx} with no preceding \
                                     conflict in this attempt"
                                )));
                            }
                        }
                    }
                }
            }
            TraceEvent::TxCommit { thread, stx, .. } => {
                summary.commits += 1;
                if let Some(t) = tid(thread, &mut v) {
                    // I9: the commit consumes the pending arrival; its
                    // sojourn must be non-negative and is accumulated
                    // for the conservation check.
                    if let Some((arrival, _)) = arrived[t].take() {
                        match rec.at.checked_sub(arrival) {
                            Some(sojourn) => {
                                summary.sojourn_cycles =
                                    summary.sojourn_cycles.saturating_add(sojourn);
                            }
                            None => v.push(bad(format!(
                                "thread {thread} commits stx {stx} at {}cy, before its \
                                 arrival at {arrival}cy (negative sojourn)",
                                rec.at
                            ))),
                        }
                    }
                    match open[t].take() {
                        None => v.push(bad(format!(
                            "thread {thread} commits stx {stx} that never began"
                        ))),
                        Some(cur) if cur.stx != stx => v.push(bad(format!(
                            "thread {thread} commits stx {stx} but stx {} is the one open",
                            cur.stx
                        ))),
                        Some(cur) => {
                            // I8 (converse): a multi-shard attempt must
                            // have paid its cross-shard charge.
                            if cur.shards_touched.len() >= 2 && !cur.cross_shard_seen {
                                v.push(bad(format!(
                                    "thread {thread} commits stx {stx} after touching {} \
                                     shards with no cross_shard_commit charge",
                                    cur.shards_touched.len()
                                )));
                            }
                            // I10 (converse): a fatal detection event
                            // dooms the attempt; committing anyway means
                            // the hardware model ignored its own abort.
                            if cur.fatal_detection_seen {
                                v.push(bad(format!(
                                    "thread {thread} commits stx {stx} after a fatal \
                                     detection event (false positive / capacity overflow) \
                                     in the same attempt"
                                )));
                            }
                        }
                    }
                }
            }
            TraceEvent::ShardTouch { thread, stx, shard } => {
                summary.shard_touches += 1;
                if let Some(t) = tid(thread, &mut v) {
                    match open[t].as_mut() {
                        None => v.push(bad(format!(
                            "thread {thread} touches shard {shard} outside any transaction"
                        ))),
                        Some(cur) => {
                            if cur.stx != stx {
                                v.push(bad(format!(
                                    "thread {thread} touches shard {shard} as stx {stx} but \
                                     stx {} is the one open",
                                    cur.stx
                                )));
                            }
                            // I8: first-touch events are per-shard unique
                            // within an attempt.
                            if !cur.shards_touched.insert(shard) {
                                v.push(bad(format!(
                                    "thread {thread} stx {stx} touches shard {shard} twice \
                                     (shard_touch must fire once per shard per attempt)"
                                )));
                            }
                        }
                    }
                }
            }
            TraceEvent::CrossShardCommit {
                thread,
                stx,
                shards,
                ..
            } => {
                summary.cross_shard_commits += 1;
                if let Some(t) = tid(thread, &mut v) {
                    match open[t].as_mut() {
                        None => v.push(bad(format!(
                            "thread {thread} charges a cross-shard commit for stx {stx} \
                             outside any transaction"
                        ))),
                        Some(cur) => {
                            if cur.stx != stx {
                                v.push(bad(format!(
                                    "thread {thread} charges a cross-shard commit for stx \
                                     {stx} but stx {} is the one open",
                                    cur.stx
                                )));
                            }
                            // I8: the charge names ≥ 2 shards, and exactly
                            // the set this attempt actually touched.
                            if shards < 2 {
                                v.push(bad(format!(
                                    "cross-shard commit for thread {thread} stx {stx} names \
                                     {shards} shard(s); the charge only exists for ≥ 2"
                                )));
                            }
                            if shards as usize != cur.shards_touched.len() {
                                v.push(bad(format!(
                                    "cross-shard commit for thread {thread} stx {stx} names \
                                     {shards} shards but the attempt touched {} ({:?})",
                                    cur.shards_touched.len(),
                                    cur.shards_touched
                                )));
                            }
                            if cur.cross_shard_seen {
                                v.push(bad(format!(
                                    "thread {thread} stx {stx} charges a second cross-shard \
                                     commit in one attempt"
                                )));
                            }
                            cur.cross_shard_seen = true;
                        }
                    }
                }
            }
            TraceEvent::SchedDecision { .. } => {}
            TraceEvent::ConfUpdate {
                kind,
                a_stx,
                b_stx,
                sim_a_bits,
                sim_b_bits,
                param_bits,
                applied_bits,
            } => {
                summary.conf_updates += 1;
                // I5: recompute the delta exactly as the manager does
                // (same expression shape, so the bits must agree).
                let sim = 0.5 * (f64::from_bits(sim_a_bits) + f64::from_bits(sim_b_bits));
                let param = f64::from_bits(param_bits);
                let expect = match kind {
                    ConfKind::ConflictInc | ConfKind::WaitJustified => param * sim,
                    ConfKind::SuspendDecay | ConfKind::WaitUnjustified => -(param * (1.0 - sim)),
                };
                if expect.to_bits() != applied_bits {
                    v.push(bad(format!(
                        "{} update conf[{a_stx}][{b_stx}] applied {} but the paper's \
                         weighting of the recorded inputs gives {} (sim={sim}, param={param})",
                        kind.label(),
                        f64::from_bits(applied_bits),
                        expect
                    )));
                }
            }
            TraceEvent::BloomSample {
                thread,
                stx,
                raw_bits,
                clamped_bits,
            } => {
                summary.bloom_samples += 1;
                // I6: the clamp contract of `intersection_size`.
                let raw = f64::from_bits(raw_bits);
                let clamped = f64::from_bits(clamped_bits);
                if raw.max(0.0).to_bits() != clamped_bits || clamped.is_nan() || clamped < 0.0 {
                    v.push(bad(format!(
                        "bloom sample for thread {thread} stx {stx}: raw estimate {raw} \
                         clamped to {clamped}, expected {}",
                        raw.max(0.0)
                    )));
                }
            }
            // Fault injections are declared instants: the corruption and
            // poisoning they describe already flowed into the ConfUpdate /
            // BloomSample events above, which keep I5/I6 exact. A corruption
            // that claims zero bits is a lie, though — a no-op must not emit.
            TraceEvent::FaultBloomCorrupt { thread, stx, bits } => {
                summary.faults += 1;
                if bits == 0 {
                    v.push(bad(format!(
                        "bloom corruption fault for thread {thread} stx {stx} forced zero \
                         bits (no-op faults must not emit)"
                    )));
                }
            }
            TraceEvent::FaultConfPoison { .. } => summary.faults += 1,
            TraceEvent::TxArrival {
                thread,
                stx,
                arrival,
            } => {
                summary.tx_arrivals += 1;
                if let Some(t) = tid(thread, &mut v) {
                    // I9: fetch never precedes arrival.
                    if arrival > rec.at {
                        v.push(bad(format!(
                            "thread {thread} fetches stx {stx} at {}cy, before its arrival \
                             at {arrival}cy",
                            rec.at
                        )));
                    }
                    // I9: per-thread arrivals are FIFO.
                    if arrival < last_arrival[t] {
                        v.push(bad(format!(
                            "thread {thread} fetches an arrival at {arrival}cy after one at \
                             {}cy (arrival queue must be FIFO)",
                            last_arrival[t]
                        )));
                    }
                    last_arrival[t] = last_arrival[t].max(arrival);
                    if let Some((prev, prev_seq)) = arrived[t] {
                        v.push(bad(format!(
                            "thread {thread} fetches a second arrival while the one fetched \
                             at seq {prev_seq} ({prev}cy) has not committed"
                        )));
                    }
                    arrived[t] = Some((arrival, rec.seq));
                    if let Some(cur) = &open[t] {
                        v.push(bad(format!(
                            "thread {thread} fetches an arrival while stx {} is still open",
                            cur.stx
                        )));
                    }
                }
            }
            TraceEvent::FalsePositiveConflict {
                thread,
                stx,
                enemy_thread,
                enemy_stx: _,
                true_conflicts,
            } => {
                summary.false_positive_conflicts += 1;
                tid(enemy_thread, &mut v);
                if let Some(t) = tid(thread, &mut v) {
                    match open[t].as_mut() {
                        None => v.push(bad(format!(
                            "thread {thread} reports a false-positive conflict outside any \
                             transaction"
                        ))),
                        Some(cur) => {
                            if cur.stx != stx {
                                v.push(bad(format!(
                                    "thread {thread} reports a false-positive conflict as \
                                     stx {stx} but stx {} is the one open",
                                    cur.stx
                                )));
                            }
                            // I10: the exact sets must disconfirm the
                            // signature hit — any genuinely conflicting
                            // line means a real conflict was mislabeled.
                            if true_conflicts != 0 {
                                v.push(bad(format!(
                                    "false-positive conflict for thread {thread} stx {stx} \
                                     has {true_conflicts} genuinely conflicting line(s) — a \
                                     real conflict mislabeled as signature noise"
                                )));
                            }
                            if cur.fatal_detection_seen {
                                v.push(bad(format!(
                                    "thread {thread} stx {stx} reports a second fatal \
                                     detection event in one attempt"
                                )));
                            }
                            cur.fatal_detection_seen = true;
                            // The false positive is the conflict that
                            // licenses the abort under I3.
                            cur.conflict_seen = true;
                        }
                    }
                }
            }
            TraceEvent::CapacityAbort {
                thread,
                stx,
                tracked,
                capacity,
            } => {
                summary.capacity_aborts += 1;
                if let Some(t) = tid(thread, &mut v) {
                    match open[t].as_mut() {
                        None => v.push(bad(format!(
                            "thread {thread} reports a capacity abort outside any transaction"
                        ))),
                        Some(cur) => {
                            if cur.stx != stx {
                                v.push(bad(format!(
                                    "thread {thread} reports a capacity abort as stx {stx} \
                                     but stx {} is the one open",
                                    cur.stx
                                )));
                            }
                            // I10: the recorded set size must actually
                            // exceed the configured bound.
                            if capacity == 0 {
                                v.push(bad(format!(
                                    "capacity abort for thread {thread} stx {stx} claims a \
                                     zero-capacity signature (the bound is always ≥ 1)"
                                )));
                            }
                            if tracked <= capacity {
                                v.push(bad(format!(
                                    "capacity abort for thread {thread} stx {stx} tracked \
                                     {tracked} address(es), which does not exceed the \
                                     configured bound {capacity}"
                                )));
                            }
                            if cur.fatal_detection_seen {
                                v.push(bad(format!(
                                    "thread {thread} stx {stx} reports a second fatal \
                                     detection event in one attempt"
                                )));
                            }
                            cur.fatal_detection_seen = true;
                            // Overflow is the conflict-equivalent that
                            // licenses the abort under I3.
                            cur.conflict_seen = true;
                        }
                    }
                }
            }
            TraceEvent::WindowAdvance {
                thread,
                window,
                priority,
            } => {
                summary.window_advances += 1;
                if let Some(t) = tid(thread, &mut v) {
                    // I11: the priority draw is reproducible bit-exactly
                    // from the declared window seed — and a run that
                    // declared none must not advance windows at all.
                    match inputs.window_seed {
                        None => v.push(bad(format!(
                            "thread {thread} advances to window {window} but the run \
                             declared no window seed"
                        ))),
                        Some(seed) => {
                            let expect = window_priority(seed, thread, window);
                            if expect != priority {
                                v.push(bad(format!(
                                    "thread {thread} window {window} draws priority \
                                     {priority} but the declared seed gives {expect}"
                                )));
                            }
                        }
                    }
                    // I11: per-thread window positions are strictly
                    // increasing.
                    if window <= window_pos[t] {
                        v.push(bad(format!(
                            "thread {thread} advances to window {window} at or below its \
                             current window {}",
                            window_pos[t]
                        )));
                    }
                    window_pos[t] = window_pos[t].max(window);
                    // I11: no advance while a transaction is open, so
                    // every commit lands inside the window that began it.
                    if let Some(cur) = &open[t] {
                        v.push(bad(format!(
                            "thread {thread} advances to window {window} while stx {} is \
                             still open",
                            cur.stx
                        )));
                    }
                }
            }
            TraceEvent::QueueDepth { thread, depth } => {
                summary.queue_depth_samples += 1;
                if let Some(t) = tid(thread, &mut v) {
                    if arrived[t].is_none() {
                        v.push(bad(format!(
                            "thread {thread} samples queue depth with no pending arrival \
                             (queue_depth must follow its tx_arrival)"
                        )));
                    }
                    summary.max_queue_depth = summary.max_queue_depth.max(depth);
                }
            }
        }
    }

    // End-of-trace checks.
    for (t, cur) in open.iter().enumerate() {
        if let Some(cur) = cur {
            v.push(end(format!(
                "thread {t} ends the run inside stx {} (begun at seq {})",
                cur.stx, cur.begin_seq
            )));
        }
    }
    // I9: every fetched arrival must have committed.
    for (t, pending) in arrived.iter().enumerate() {
        if let Some((arrival, seq)) = pending {
            v.push(end(format!(
                "thread {t} fetched an arrival at seq {seq} ({arrival}cy) that never \
                 committed"
            )));
        }
    }
    // I7: per-CPU closure against the makespan.
    for (c, cursor) in cpu_cursor.iter().enumerate() {
        if *cursor > inputs.makespan {
            v.push(end(format!(
                "cpu {c} is busy until {cursor}cy, past the makespan ({}cy)",
                inputs.makespan
            )));
        }
    }
    // I1: exact bucket conservation per thread and bucket.
    for (t, (got, want)) in acc.iter().zip(&inputs.per_thread).enumerate() {
        for b in Bucket::ALL {
            if got[b.index()] != want[b.index()] {
                v.push(end(format!(
                    "thread {t} bucket {}: trace accounts for {}cy but the run reported \
                     {}cy ({})",
                    b.label(),
                    got[b.index()],
                    want[b.index()],
                    if got[b.index()] > want[b.index()] {
                        "double-count"
                    } else {
                        "gap"
                    }
                )));
            }
        }
    }

    if !v.is_empty() {
        return Err(v);
    }

    summary.per_cpu_idle = cpu_busy.iter().map(|b| inputs.makespan - b).collect();
    summary.per_cpu_busy = cpu_busy;
    for row in &acc {
        for b in Bucket::ALL {
            summary.charged[b.index()] += row[b.index()];
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{TraceMode, TraceRec, TraceSink};

    fn inputs(makespan: u64, cpus: usize, per_thread: Vec<[u64; 5]>) -> AuditInputs {
        AuditInputs {
            makespan,
            num_cpus: cpus,
            per_thread,
            window_seed: None,
        }
    }

    fn rec(events: Vec<TraceRec>) -> TraceRecording {
        TraceRecording { events, dropped: 0 }
    }

    fn charge(seq: u64, at: u64, cpu: u32, thread: u32, bucket: Bucket, cycles: u64) -> TraceRec {
        TraceRec {
            seq,
            at,
            ev: TraceEvent::Charge {
                cpu,
                thread,
                bucket,
                cycles,
            },
        }
    }

    #[test]
    fn clean_single_thread_trace_passes() {
        let events = vec![
            charge(0, 0, 0, 0, Bucket::Kernel, 10),
            charge(1, 10, 0, 0, Bucket::NonTx, 90),
        ];
        let inp = inputs(100, 1, vec![[90, 10, 0, 0, 0]]);
        let s = audit(&rec(events), &inp).expect("clean trace");
        assert_eq!(s.per_cpu_busy, vec![100]);
        assert_eq!(s.per_cpu_idle, vec![0]);
        assert_eq!(s.charged, [90, 10, 0, 0, 0]);
    }

    #[test]
    fn bucket_mismatch_is_flagged_as_gap_and_double_count() {
        let events = vec![charge(0, 0, 0, 0, Bucket::NonTx, 50)];
        let inp = inputs(100, 1, vec![[40, 10, 0, 0, 0]]);
        let errs = audit(&rec(events), &inp).unwrap_err();
        assert_eq!(errs.len(), 2);
        assert!(errs[0].what.contains("double-count"), "{}", errs[0]);
        assert!(errs[1].what.contains("gap"), "{}", errs[1]);
    }

    #[test]
    fn overlapping_charges_on_one_cpu_are_flagged() {
        let events = vec![
            charge(0, 0, 0, 0, Bucket::NonTx, 60),
            charge(1, 50, 0, 1, Bucket::NonTx, 10),
        ];
        let inp = inputs(100, 1, vec![[60, 0, 0, 0, 0], [10, 0, 0, 0, 0]]);
        let errs = audit(&rec(events), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("overlapping")),
            "{errs:?}"
        );
    }

    #[test]
    fn charge_past_makespan_is_flagged() {
        let events = vec![charge(0, 90, 0, 0, Bucket::NonTx, 20)];
        let inp = inputs(100, 1, vec![[20, 0, 0, 0, 0]]);
        let errs = audit(&rec(events), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("past the makespan")),
            "{errs:?}"
        );
    }

    #[test]
    fn refile_conserves_and_saturation_is_flagged() {
        let ok = vec![
            charge(0, 0, 0, 0, Bucket::Tx, 80),
            TraceRec {
                seq: 1,
                at: 80,
                ev: TraceEvent::Refile {
                    thread: 0,
                    from: Bucket::Tx,
                    to: Bucket::Abort,
                    requested: 30,
                    moved: 30,
                },
            },
        ];
        let inp = inputs(100, 1, vec![[0, 0, 50, 30, 0]]);
        audit(&rec(ok), &inp).expect("conserving refile");

        let saturated = vec![
            charge(0, 0, 0, 0, Bucket::Tx, 20),
            TraceRec {
                seq: 1,
                at: 20,
                ev: TraceEvent::Refile {
                    thread: 0,
                    from: Bucket::Tx,
                    to: Bucket::Abort,
                    requested: 30,
                    moved: 20,
                },
            },
        ];
        let inp = inputs(100, 1, vec![[0, 0, 0, 20, 0]]);
        let errs = audit(&rec(saturated), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("saturated")),
            "{errs:?}"
        );
    }

    fn tx_event(seq: u64, ev: TraceEvent) -> TraceRec {
        TraceRec { seq, at: seq, ev }
    }

    #[test]
    fn abort_requires_a_preceding_conflict() {
        let no_conflict = vec![
            tx_event(
                0,
                TraceEvent::TxBegin {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                },
            ),
            tx_event(
                1,
                TraceEvent::TxAbort {
                    thread: 0,
                    stx: 1,
                    undo_lines: 2,
                },
            ),
        ];
        let inp = inputs(100, 1, vec![[0, 0, 0, 0, 0]]);
        let errs = audit(&rec(no_conflict), &inp).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("no preceding conflict")),
            "{errs:?}"
        );

        let with_conflict = vec![
            tx_event(
                0,
                TraceEvent::TxBegin {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                },
            ),
            tx_event(
                1,
                TraceEvent::TxConflict {
                    thread: 0,
                    stx: 1,
                    enemy_thread: 1,
                    enemy_stx: 2,
                    stalled: false,
                },
            ),
            tx_event(
                2,
                TraceEvent::TxAbort {
                    thread: 0,
                    stx: 1,
                    undo_lines: 2,
                },
            ),
        ];
        let inp = inputs(100, 1, vec![[0; 5], [0; 5]]);
        audit(&rec(with_conflict), &inp).expect("abort after conflict");
    }

    #[test]
    fn lifecycle_alternation_is_enforced() {
        let nested = vec![
            tx_event(
                0,
                TraceEvent::TxBegin {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                },
            ),
            tx_event(
                1,
                TraceEvent::TxBegin {
                    thread: 0,
                    stx: 2,
                    retries: 0,
                },
            ),
        ];
        let inp = inputs(100, 1, vec![[0; 5]]);
        let errs = audit(&rec(nested), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("still open")),
            "{errs:?}"
        );
        // ...and the dangling opens are also reported.
        assert!(
            errs.iter().any(|e| e.what.contains("ends the run inside")),
            "{errs:?}"
        );

        let orphan_commit = vec![tx_event(
            0,
            TraceEvent::TxCommit {
                thread: 0,
                stx: 1,
                retries: 0,
                rw_lines: 4,
            },
        )];
        let errs = audit(&rec(orphan_commit), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("never began")),
            "{errs:?}"
        );
    }

    #[test]
    fn confidence_updates_are_recomputed_bit_exactly() {
        let sim_a: f64 = 0.75;
        let sim_b: f64 = 0.25;
        let param: f64 = 0.4;
        let paired = 0.5 * (sim_a + sim_b);
        let good = param * paired;
        let ok = vec![tx_event(
            0,
            TraceEvent::ConfUpdate {
                kind: ConfKind::ConflictInc,
                a_stx: 1,
                b_stx: 2,
                sim_a_bits: sim_a.to_bits(),
                sim_b_bits: sim_b.to_bits(),
                param_bits: param.to_bits(),
                applied_bits: good.to_bits(),
            },
        )];
        let inp = inputs(100, 1, vec![]);
        let s = audit(&rec(ok), &inp).expect("exact update");
        assert_eq!(s.conf_updates, 1);

        let off_by_ulp = vec![tx_event(
            0,
            TraceEvent::ConfUpdate {
                kind: ConfKind::SuspendDecay,
                a_stx: 1,
                b_stx: 2,
                sim_a_bits: sim_a.to_bits(),
                sim_b_bits: sim_b.to_bits(),
                param_bits: param.to_bits(),
                // wrong formula: forgot the (1 - sim) weighting
                applied_bits: (-param).to_bits(),
            },
        )];
        let errs = audit(&rec(off_by_ulp), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("suspend_decay")),
            "{errs:?}"
        );
    }

    #[test]
    fn bloom_clamp_contract_is_enforced() {
        let raw: f64 = -0.32;
        let ok = vec![tx_event(
            0,
            TraceEvent::BloomSample {
                thread: 0,
                stx: 1,
                raw_bits: raw.to_bits(),
                clamped_bits: raw.max(0.0).to_bits(),
            },
        )];
        let inp = inputs(100, 1, vec![[0; 5]]);
        audit(&rec(ok), &inp).expect("clamped sample");

        let unclamped = vec![tx_event(
            0,
            TraceEvent::BloomSample {
                thread: 0,
                stx: 1,
                raw_bits: raw.to_bits(),
                clamped_bits: raw.to_bits(),
            },
        )];
        let errs = audit(&rec(unclamped), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("bloom sample")),
            "{errs:?}"
        );
    }

    #[test]
    fn ring_recordings_are_rejected() {
        let mut sink = TraceSink::new(TraceMode::Ring(1));
        for i in 0..3 {
            sink.emit(i, || TraceEvent::TxStall { thread: 0, stx: 0 });
        }
        let inp = inputs(100, 1, vec![[0; 5]]);
        let errs = audit(&sink.take(), &inp).unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("dropped")), "{errs:?}");
    }

    #[test]
    fn fault_events_are_counted_and_noop_corruption_is_flagged() {
        let ok = vec![
            tx_event(
                0,
                TraceEvent::FaultBloomCorrupt {
                    thread: 0,
                    stx: 1,
                    bits: 3,
                },
            ),
            tx_event(
                1,
                TraceEvent::FaultConfPoison {
                    thread: 0,
                    saturate: true,
                    entries: 9,
                },
            ),
        ];
        let inp = inputs(100, 1, vec![[0; 5]]);
        let s = audit(&rec(ok), &inp).expect("fault instants are clean");
        assert_eq!(s.faults, 2);

        let noop = vec![tx_event(
            0,
            TraceEvent::FaultBloomCorrupt {
                thread: 0,
                stx: 1,
                bits: 0,
            },
        )];
        let errs = audit(&rec(noop), &inp).unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("zero")), "{errs:?}");
    }

    #[test]
    fn cross_shard_charges_must_match_touched_shards() {
        let begin = TraceEvent::TxBegin {
            thread: 0,
            stx: 1,
            retries: 0,
        };
        let touch = |shard| TraceEvent::ShardTouch {
            thread: 0,
            stx: 1,
            shard,
        };
        let cross = |shards| TraceEvent::CrossShardCommit {
            thread: 0,
            stx: 1,
            shards,
            cost: 120,
        };
        let commit = TraceEvent::TxCommit {
            thread: 0,
            stx: 1,
            retries: 0,
            rw_lines: 4,
        };
        let inp = inputs(100, 1, vec![[0; 5]]);

        let ok = vec![
            tx_event(0, begin),
            tx_event(1, touch(0)),
            tx_event(2, touch(3)),
            tx_event(3, cross(2)),
            tx_event(4, commit),
        ];
        let s = audit(&rec(ok), &inp).expect("charge matches the touched set");
        assert_eq!(s.shard_touches, 2);
        assert_eq!(s.cross_shard_commits, 1);

        // The charge claims more shards than the attempt named.
        let lying = vec![
            tx_event(0, begin),
            tx_event(1, touch(0)),
            tx_event(2, cross(2)),
            tx_event(3, commit),
        ];
        let errs = audit(&rec(lying), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("the attempt touched")),
            "{errs:?}"
        );

        // Two shards touched but the commit never paid the charge.
        let unpaid = vec![
            tx_event(0, begin),
            tx_event(1, touch(0)),
            tx_event(2, touch(1)),
            tx_event(3, commit),
        ];
        let errs = audit(&rec(unpaid), &inp).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("no cross_shard_commit")),
            "{errs:?}"
        );

        // A repeated first-touch of the same shard is a lie.
        let dup = vec![
            tx_event(0, begin),
            tx_event(1, touch(0)),
            tx_event(2, touch(0)),
            tx_event(3, commit),
        ];
        let errs = audit(&rec(dup), &inp).unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("twice")), "{errs:?}");

        // A single-shard charge should never exist.
        let single = vec![
            tx_event(0, begin),
            tx_event(1, touch(0)),
            tx_event(2, cross(1)),
            tx_event(3, commit),
        ];
        let errs = audit(&rec(single), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("only exists for")),
            "{errs:?}"
        );

        // Shard events outside any transaction are flagged.
        let outside = vec![tx_event(0, touch(0)), tx_event(1, cross(2))];
        let errs = audit(&rec(outside), &inp).unwrap_err();
        assert_eq!(
            errs.iter()
                .filter(|e| e.what.contains("outside any transaction"))
                .count(),
            2,
            "{errs:?}"
        );
    }

    #[test]
    fn open_system_arrivals_audit_clean_and_sum_sojourns() {
        let events = vec![
            TraceRec {
                seq: 0,
                at: 30,
                ev: TraceEvent::TxArrival {
                    thread: 0,
                    stx: 1,
                    arrival: 10,
                },
            },
            TraceRec {
                seq: 1,
                at: 30,
                ev: TraceEvent::QueueDepth {
                    thread: 0,
                    depth: 2,
                },
            },
            TraceRec {
                seq: 2,
                at: 30,
                ev: TraceEvent::TxBegin {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                },
            },
            TraceRec {
                seq: 3,
                at: 70,
                ev: TraceEvent::TxCommit {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                    rw_lines: 1,
                },
            },
        ];
        let inp = inputs(100, 1, vec![[0; 5]]);
        let s = audit(&rec(events), &inp).expect("clean open-system trace");
        assert_eq!(s.tx_arrivals, 1);
        assert_eq!(s.queue_depth_samples, 1);
        assert_eq!(s.max_queue_depth, 2);
        assert_eq!(s.sojourn_cycles, 60, "sojourn = commit(70) − arrival(10)");
    }

    #[test]
    fn i9_causality_violations_are_flagged() {
        let inp = inputs(100, 1, vec![[0; 5]]);
        let arrival = |seq, at, arrival| TraceRec {
            seq,
            at,
            ev: TraceEvent::TxArrival {
                thread: 0,
                stx: 1,
                arrival,
            },
        };
        let begin = |seq, at| TraceRec {
            seq,
            at,
            ev: TraceEvent::TxBegin {
                thread: 0,
                stx: 1,
                retries: 0,
            },
        };
        let commit = |seq, at| TraceRec {
            seq,
            at,
            ev: TraceEvent::TxCommit {
                thread: 0,
                stx: 1,
                retries: 0,
                rw_lines: 1,
            },
        };

        // Fetched before the recorded arrival.
        let early_fetch = vec![arrival(0, 5, 10), begin(1, 12), commit(2, 20)];
        let errs = audit(&rec(early_fetch), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("before its arrival")),
            "{errs:?}"
        );

        // Begins before the arrival (fetch timestamp lies).
        let early_begin = vec![arrival(0, 10, 10), begin(1, 4), commit(2, 20)];
        let errs = audit(&rec(early_begin), &inp).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("begins stx 1 at 4cy, before its arrival")),
            "{errs:?}"
        );

        // Commits before the arrival: negative sojourn.
        let early_commit = vec![arrival(0, 10, 10), begin(1, 10), commit(2, 7)];
        let errs = audit(&rec(early_commit), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("negative sojourn")),
            "{errs:?}"
        );

        // Out-of-order arrivals break the FIFO queue contract.
        let lifo = vec![
            arrival(0, 50, 50),
            begin(1, 50),
            commit(2, 60),
            arrival(3, 60, 20),
            begin(4, 60),
            commit(5, 70),
        ];
        let errs = audit(&rec(lifo), &inp).unwrap_err();
        assert!(errs.iter().any(|e| e.what.contains("FIFO")), "{errs:?}");

        // A fetched arrival that never commits dangles at end of trace.
        let dangling = vec![arrival(0, 10, 10)];
        let errs = audit(&rec(dangling), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("never committed")),
            "{errs:?}"
        );

        // Queue depth with no pending arrival is orphaned.
        let orphan_depth = vec![TraceRec {
            seq: 0,
            at: 10,
            ev: TraceEvent::QueueDepth {
                thread: 0,
                depth: 1,
            },
        }];
        let errs = audit(&rec(orphan_depth), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("no pending arrival")),
            "{errs:?}"
        );

        // Two fetches with no commit in between.
        let double_fetch = vec![arrival(0, 10, 10), arrival(1, 20, 15)];
        let errs = audit(&rec(double_fetch), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("second arrival")),
            "{errs:?}"
        );
    }

    #[test]
    fn i10_bounded_detection_events_audit_clean() {
        let begin = TraceEvent::TxBegin {
            thread: 0,
            stx: 1,
            retries: 0,
        };
        let abort = TraceEvent::TxAbort {
            thread: 0,
            stx: 1,
            undo_lines: 2,
        };
        let inp = inputs(100, 1, vec![[0; 5], [0; 5]]);

        // A false positive, then an abort: the fatal event licenses it.
        let fp = vec![
            tx_event(0, begin),
            tx_event(
                1,
                TraceEvent::FalsePositiveConflict {
                    thread: 0,
                    stx: 1,
                    enemy_thread: 1,
                    enemy_stx: 3,
                    true_conflicts: 0,
                },
            ),
            tx_event(2, abort),
        ];
        let s = audit(&rec(fp), &inp).expect("disconfirmed false positive");
        assert_eq!(s.false_positive_conflicts, 1);
        assert_eq!(s.aborts, 1);

        // A capacity overflow, then an abort.
        let cap = vec![
            tx_event(0, begin),
            tx_event(
                1,
                TraceEvent::CapacityAbort {
                    thread: 0,
                    stx: 1,
                    tracked: 9,
                    capacity: 8,
                },
            ),
            tx_event(2, abort),
        ];
        let s = audit(&rec(cap), &inp).expect("overflow exceeds the bound");
        assert_eq!(s.capacity_aborts, 1);
    }

    #[test]
    fn i10_violations_are_flagged() {
        let begin = TraceEvent::TxBegin {
            thread: 0,
            stx: 1,
            retries: 0,
        };
        let abort = TraceEvent::TxAbort {
            thread: 0,
            stx: 1,
            undo_lines: 2,
        };
        let commit = TraceEvent::TxCommit {
            thread: 0,
            stx: 1,
            retries: 0,
            rw_lines: 4,
        };
        let cap = |tracked, capacity| TraceEvent::CapacityAbort {
            thread: 0,
            stx: 1,
            tracked,
            capacity,
        };
        let fp = |true_conflicts| TraceEvent::FalsePositiveConflict {
            thread: 0,
            stx: 1,
            enemy_thread: 1,
            enemy_stx: 3,
            true_conflicts,
        };
        let inp = inputs(100, 1, vec![[0; 5], [0; 5]]);

        // The tamper control: a recorded set size at or below the bound.
        let under = vec![
            tx_event(0, begin),
            tx_event(1, cap(8, 8)),
            tx_event(2, abort),
        ];
        let errs = audit(&rec(under), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("does not exceed")),
            "{errs:?}"
        );

        // A zero-capacity claim is structurally impossible.
        let zero = vec![
            tx_event(0, begin),
            tx_event(1, cap(1, 0)),
            tx_event(2, abort),
        ];
        let errs = audit(&rec(zero), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("zero-capacity")),
            "{errs:?}"
        );

        // A "false positive" the exact sets confirm is a mislabeled
        // real conflict.
        let confirmed = vec![tx_event(0, begin), tx_event(1, fp(2)), tx_event(2, abort)];
        let errs = audit(&rec(confirmed), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("mislabeled")),
            "{errs:?}"
        );

        // Committing after a fatal detection event ignores the abort.
        let committed = vec![
            tx_event(0, begin),
            tx_event(1, cap(9, 8)),
            tx_event(2, commit),
        ];
        let errs = audit(&rec(committed), &inp).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("fatal detection event")),
            "{errs:?}"
        );

        // Two fatal events in one attempt: the first already doomed it.
        let double = vec![
            tx_event(0, begin),
            tx_event(1, fp(0)),
            tx_event(2, cap(9, 8)),
            tx_event(3, abort),
        ];
        let errs = audit(&rec(double), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("second fatal")),
            "{errs:?}"
        );

        // Both events outside any transaction are flagged.
        let outside = vec![tx_event(0, fp(0)), tx_event(1, cap(9, 8))];
        let errs = audit(&rec(outside), &inp).unwrap_err();
        assert_eq!(
            errs.iter()
                .filter(|e| e.what.contains("outside any transaction"))
                .count(),
            2,
            "{errs:?}"
        );
    }

    #[test]
    fn window_priority_is_a_stable_pure_function() {
        // Deterministic, seed-sensitive, thread-sensitive,
        // window-sensitive — the contract I11 relies on.
        assert_eq!(window_priority(7, 0, 1), window_priority(7, 0, 1));
        assert_ne!(window_priority(7, 0, 1), window_priority(8, 0, 1));
        assert_ne!(window_priority(7, 0, 1), window_priority(7, 1, 1));
        assert_ne!(window_priority(7, 0, 1), window_priority(7, 0, 2));
    }

    #[test]
    fn i11_window_advances_audit_clean() {
        let seed = 0xB16_B00B5;
        let adv = |seq, thread, window| {
            tx_event(
                seq,
                TraceEvent::WindowAdvance {
                    thread,
                    window,
                    priority: window_priority(seed, thread, window),
                },
            )
        };
        let events = vec![
            adv(0, 0, 1),
            tx_event(
                1,
                TraceEvent::TxBegin {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                },
            ),
            tx_event(
                2,
                TraceEvent::TxCommit {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                    rw_lines: 1,
                },
            ),
            adv(3, 0, 2),
            adv(4, 1, 5),
        ];
        let mut inp = inputs(100, 1, vec![[0; 5], [0; 5]]);
        inp.window_seed = Some(seed);
        let s = audit(&rec(events), &inp).expect("clean window trace");
        assert_eq!(s.window_advances, 3);
    }

    #[test]
    fn i11_violations_are_flagged() {
        let seed = 0xB16_B00B5;
        let adv = |seq, thread, window| {
            tx_event(
                seq,
                TraceEvent::WindowAdvance {
                    thread,
                    window,
                    priority: window_priority(seed, thread, window),
                },
            )
        };
        let mut inp = inputs(100, 1, vec![[0; 5], [0; 5]]);
        inp.window_seed = Some(seed);

        // A tampered priority draw does not reproduce from the seed.
        let tampered = vec![tx_event(
            0,
            TraceEvent::WindowAdvance {
                thread: 0,
                window: 1,
                priority: window_priority(seed, 0, 1) ^ 1,
            },
        )];
        let errs = audit(&rec(tampered), &inp).unwrap_err();
        assert!(
            errs.iter().any(|e| e.what.contains("declared seed gives")),
            "{errs:?}"
        );

        // Window positions must be strictly increasing per thread.
        let regress = vec![adv(0, 0, 2), adv(1, 0, 2)];
        let errs = audit(&rec(regress), &inp).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("at or below its current window")),
            "{errs:?}"
        );

        // An advance while a transaction is open breaks the commit-in-
        // window discipline.
        let mid_tx = vec![
            tx_event(
                0,
                TraceEvent::TxBegin {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                },
            ),
            adv(1, 0, 1),
            tx_event(
                2,
                TraceEvent::TxCommit {
                    thread: 0,
                    stx: 1,
                    retries: 0,
                    rw_lines: 1,
                },
            ),
        ];
        let errs = audit(&rec(mid_tx), &inp).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("while stx 1 is still open")),
            "{errs:?}"
        );

        // An advance in a run that declared no window seed is a lie.
        let undeclared = vec![adv(0, 0, 1)];
        let errs = audit(&rec(undeclared), &inputs(100, 1, vec![[0; 5]])).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("declared no window seed")),
            "{errs:?}"
        );
    }

    #[test]
    fn out_of_range_ids_are_flagged() {
        let events = vec![charge(0, 0, 7, 9, Bucket::NonTx, 10)];
        let inp = inputs(100, 1, vec![[0; 5]]);
        let errs = audit(&rec(events), &inp).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.what.contains("thread 9 out of range")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.what.contains("cpu 7 out of range")),
            "{errs:?}"
        );
    }
}
