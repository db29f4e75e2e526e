//! The shared transactional-memory machine state.

use crate::cm::ContentionManager;
use crate::history::{AttemptId, History};
use crate::ids::{DTxId, LineAddr, STxId};
use crate::lines::LineTable;
use crate::stats::TmStats;
use bfgts_bloomsig::BloomFilter;
use bfgts_sim::{Cycle, SimRng, ThreadId};

/// How per-thread read/write sets are tracked for conflict detection
/// (DESIGN.md §13).
///
/// `Perfect` is the classic simulator idealisation: exact line-granular
/// sets, unbounded tracking, no false positives — the only mode any
/// pre-capacity run ever had. `BoundedSig` models a limited hardware TM
/// in the style of LogTM-SE / Kafousis's limited read/write-set HTM:
/// per-thread Bloom signatures answer the conflict filter (so aliasing
/// produces *false-positive aborts*), and tracking more than `capacity`
/// distinct addresses raises a *capacity abort* whose retry falls back
/// to exact software tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Detection {
    /// Exact line-granular read/write sets; unbounded, no false
    /// positives. The default, and byte-identical to the pre-capacity
    /// simulator.
    #[default]
    Perfect,
    /// Bounded hardware signatures over [`bfgts_bloomsig::BloomFilter`].
    BoundedSig {
        /// Signature size in bits (multiple of 64, 64..=4096).
        bits: u32,
        /// Hash functions per signature (1..=16).
        hashes: u32,
        /// Distinct addresses one attempt may track before overflowing
        /// (≥ 1).
        capacity: u32,
    },
}

impl Detection {
    /// Validates the geometry against the hardware model's envelope.
    pub fn validate(self) -> Result<(), String> {
        match self {
            Detection::Perfect => Ok(()),
            Detection::BoundedSig {
                bits,
                hashes,
                capacity,
            } => {
                if !bits.is_multiple_of(64) || !(64..=4096).contains(&bits) {
                    return Err(format!(
                        "detection signature bits must be a multiple of 64 in 64..=4096, \
                         got {bits}"
                    ));
                }
                if !(1..=16).contains(&hashes) {
                    return Err(format!(
                        "detection signature hashes must be in 1..=16, got {hashes}"
                    ));
                }
                if capacity == 0 {
                    return Err("detection capacity must be ≥ 1".into());
                }
                Ok(())
            }
        }
    }

    /// True for the bounded-signature mode.
    pub fn is_bounded(self) -> bool {
        matches!(self, Detection::BoundedSig { .. })
    }
}

/// Result of attempting a transactional access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The access succeeded and is now part of the read/write set.
    Granted,
    /// Another thread's transaction owns the line incompatibly; in LogTM
    /// the access is NACKed and the requester stalls or aborts.
    Conflict {
        /// The thread whose transaction owns the line.
        owner: ThreadId,
    },
    /// Bounded detection only: the request hit another thread's Bloom
    /// signature although the exact sets are disjoint. Hardware cannot
    /// tell this from a real conflict, so the requester is NACKed all
    /// the same — the driver arbitrates by age exactly as for
    /// [`AccessResult::Conflict`], and a losing requester aborts with a
    /// distinct traced cause.
    FalseConflict {
        /// The thread whose signature aliased the address.
        owner: ThreadId,
    },
    /// Bounded detection only: granting the access would track more
    /// distinct addresses than the signature capacity allows. The
    /// attempt must abort; its retry runs in the exact software
    /// fallback.
    CapacityExceeded {
        /// Distinct addresses the attempt would have had to track
        /// (always `capacity + 1`).
        tracked: u32,
        /// The configured bound.
        capacity: u32,
    },
}

/// One thread's bounded-detection signatures. Only a
/// [`Detection::BoundedSig`] platform has any; each of the thread's
/// attempts clears and re-arms the same entry, so a begin allocates
/// nothing.
#[derive(Debug, Clone)]
struct DetSig {
    /// True while the thread's current attempt tracks through these
    /// signatures: false between attempts and in the software fallback
    /// (which tracks exactly).
    armed: bool,
    /// Read-set signature; other writers probe it.
    read: BloomFilter,
    /// Write-set signature; other readers and writers probe it.
    write: BloomFilter,
    /// Distinct addresses this attempt tracks (exact count — the
    /// hardware counts insertions, it just can't enumerate them).
    tracked: u32,
    /// The configured bound.
    capacity: u32,
}

impl DetSig {
    /// Starts an attempt's tracking from empty signatures.
    fn arm(&mut self) {
        self.read.clear();
        self.write.clear();
        self.tracked = 0;
        self.armed = true;
    }

    /// Forces bit `pos` high in both signatures. True if either lacked
    /// it.
    fn force_bit(&mut self, pos: u32) -> bool {
        // `set_bit` has no readback; detect the flip via popcount.
        let before = self.read.count_ones() + self.write.count_ones();
        self.read.set_bit(pos);
        self.write.set_bit(pos);
        self.read.count_ones() + self.write.count_ones() > before
    }
}

/// Detection-signature corruption fault (DESIGN.md §9 applied to §13):
/// at each bounded-signature transaction begin, with probability
/// `rate_pct`%, `bits` random positions are forced high in the fresh
/// attempt's signatures. Draws come from a dedicated stream derived from
/// the fault seed, so the workload's own decisions replay unperturbed.
#[derive(Debug, Clone)]
struct DetFault {
    rate_pct: u64,
    bits: u32,
    rng: SimRng,
}

/// Iterator behind [`TmState::running`]: pops the set bits of one
/// occupancy word at a time.
struct Running<'a> {
    table: &'a [Option<DTxId>],
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// CPU index of bit 0 of `word`.
    base: usize,
    /// Set bits of the current word not yet yielded.
    word: u64,
}

impl Iterator for Running<'_> {
    type Item = (usize, DTxId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.word == 0 {
            let (w, &word) = self.words.next()?;
            self.base = w << 6;
            self.word = word;
        }
        let cpu = self.base | self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        let dtx = self
            .table
            .get(cpu)
            .copied()
            .flatten()
            .expect("an occupancy bit marks a filled CPU-table slot");
        Some((cpu, dtx))
    }
}

/// The transaction a thread is currently executing. Its bounded-detection
/// signatures, if any, live in [`TmState`]'s per-thread table, so a slot
/// holds no filter on a [`Detection::Perfect`] platform.
#[derive(Debug, Clone)]
struct ActiveTx {
    dtx: DTxId,
    /// The CPU whose table slot this attempt's begin broadcast wrote:
    /// the only slot that can still hold `dtx` (see
    /// `TmState::clear_cpu_broadcast`).
    cpu: usize,
    /// LogTM-style age timestamp: set on the *first* attempt of an
    /// instance and kept across retries so starved transactions win
    /// arbitration eventually.
    timestamp: Cycle,
    attempt: Option<AttemptId>,
}

/// One thread's access logs. They outlive the attempt: each attempt
/// ends by releasing what they name and clearing them, keeping their
/// capacity, so a steady-state attempt logs without allocating.
#[derive(Debug, Clone, Default)]
struct TxLogs {
    /// Lines the attempt read before it held them in any way, in access
    /// order: its read set, without duplicates.
    reads: Vec<u64>,
    /// Lines the attempt wrote, in first-write order: its write set and
    /// undo log, without duplicates.
    writes: Vec<u64>,
    /// Conflict-detection shards the attempt touched, in first-touch
    /// order (empty on a single-shard platform, where tracking is
    /// skipped entirely).
    shards: Vec<u32>,
}

impl TxLogs {
    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.shards.clear();
    }
}

/// Exact ("perfect signature") transactional memory state: line ownership,
/// the per-CPU hardware transaction table, the waits-for graph, and run
/// statistics.
#[derive(Debug)]
pub struct TmState {
    /// Which attempts hold each line. Whether an attempt already holds a
    /// line is read from here (`writer == me`, or `me` among the
    /// readers), so an attempt keeps no set of its own.
    lines: LineTable,
    active: Vec<Option<ActiveTx>>,
    /// Per-thread access logs, indexed by thread and recycled across
    /// attempts.
    logs: Vec<TxLogs>,
    /// One slot per CPU: the dTxID most recently broadcast as *started*
    /// on that CPU and not yet committed/aborted. This mirrors the BFGTS
    /// hardware CPU table including its overwrite semantics under
    /// overcommit.
    cpu_table: Vec<Option<DTxId>>,
    /// Occupancy bitmap of `cpu_table`: bit `c % 64` of word `c / 64` is
    /// set iff slot `c` holds a dTxID, so [`TmState::running`] visits
    /// only occupied slots instead of the whole machine width.
    occupied: Vec<u64>,
    waiting_on: Vec<Option<ThreadId>>,
    stats: TmStats,
    history: Option<History>,
    /// Conflict-detection shards the address space is partitioned into
    /// (1 = the classic monolithic table; sharding is disabled).
    shards: u32,
    /// How read/write sets are tracked ([`Detection::Perfect`] default).
    detection: Detection,
    /// Per-thread detection signatures, indexed by thread: empty unless
    /// detection is [`Detection::BoundedSig`]. The exact line table stays
    /// authoritative either way: it is the ground truth the audit
    /// recomputes false positives against.
    det_sigs: Vec<DetSig>,
    /// Per-thread software-fallback latch: set when an attempt overflows
    /// its signature capacity, cleared by the instance's eventual commit.
    /// A latched thread's next attempts track exactly (unbounded, no
    /// false positives), modelling the serial-irrevocable software path
    /// limited HTMs fall back to — and guaranteeing forward progress for
    /// transactions larger than the signature capacity.
    fallback: Vec<bool>,
    /// Detection-signature corruption fault, when injected.
    det_fault: Option<DetFault>,
}

/// Cache lines per shard-interleaving block: addresses are mapped to
/// shards in contiguous 64-line (4 kB) blocks, so a transaction walking
/// one page stays on one shard while the address space as a whole
/// round-robins across all of them.
pub const SHARD_BLOCK_LINES: u64 = 64;

impl TmState {
    /// Creates state for `num_cpus` CPUs and `num_threads` threads.
    pub fn new(num_cpus: usize, num_threads: usize) -> Self {
        Self {
            lines: LineTable::new(),
            active: vec![None; num_threads],
            logs: vec![TxLogs::default(); num_threads],
            cpu_table: vec![None; num_cpus],
            occupied: vec![0; num_cpus.div_ceil(64)],
            waiting_on: vec![None; num_threads],
            stats: TmStats::new(),
            history: None,
            shards: 1,
            detection: Detection::Perfect,
            det_sigs: Vec::new(),
            fallback: vec![false; num_threads],
            det_fault: None,
        }
    }

    /// Selects the conflict-detection mode (DESIGN.md §13).
    /// With [`Detection::Perfect`] — the default — nothing changes: no
    /// signatures are built, no false positives or capacity aborts can
    /// occur, byte-identical behaviour to the pre-capacity simulator.
    /// [`Detection::BoundedSig`] allocates one read and one write
    /// signature per thread, here and nowhere else.
    ///
    /// # Panics
    ///
    /// Panics if the bounded geometry is invalid (see
    /// [`Detection::validate`]).
    pub fn configure_detection(&mut self, detection: Detection) {
        detection
            .validate()
            // detlint: allow(P002) -- documented panic contract: an invalid detection geometry is a configuration bug, caught before any cycle runs
            .unwrap_or_else(|e| panic!("invalid detection config: {e}"));
        self.detection = detection;
        self.det_sigs = match detection {
            Detection::Perfect => Vec::new(),
            Detection::BoundedSig {
                bits,
                hashes,
                capacity,
            } => {
                let sig = DetSig {
                    armed: false,
                    read: BloomFilter::new(bits, hashes),
                    write: BloomFilter::new(bits, hashes),
                    tracked: 0,
                    capacity,
                };
                vec![sig; self.active.len()]
            }
        };
    }

    /// The configured conflict-detection mode.
    pub fn detection(&self) -> Detection {
        self.detection
    }

    /// True if `thread` is latched into the exact software fallback
    /// (its previous attempt overflowed the signature capacity and the
    /// instance has not committed yet).
    pub fn in_fallback(&self, thread: ThreadId) -> bool {
        self.fallback[thread.index()]
    }

    /// Partitions conflict detection into `shards` address-space shards
    /// (ISSUE 6 / DESIGN.md §11). `shards` of 0 is clamped to 1. With a
    /// single shard (the default) nothing changes: no per-attempt shard
    /// tracking, no cross-shard charges, byte-identical behaviour to the
    /// monolithic table.
    pub fn configure_shards(&mut self, shards: u32) {
        self.shards = shards.max(1);
    }

    /// Number of conflict-detection shards (1 = sharding disabled).
    pub fn num_shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `addr`: block-interleaved,
    /// `(addr / SHARD_BLOCK_LINES) mod shards`.
    pub fn shard_of(&self, addr: LineAddr) -> u32 {
        ((addr.get() / SHARD_BLOCK_LINES) % u64::from(self.shards)) as u32
    }

    /// Records that `thread`'s active transaction touched `addr`'s shard.
    /// Returns `Some(shard)` if this is the attempt's first touch of that
    /// shard (the caller emits a `ShardTouch` event), `None` on repeat
    /// touches or when the platform has a single shard.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no active transaction.
    pub fn note_shard_touch(&mut self, thread: ThreadId, addr: LineAddr) -> Option<u32> {
        if self.shards <= 1 {
            return None;
        }
        let shard = self.shard_of(addr);
        assert!(
            self.active_dtx(thread).is_some(),
            "shard touch outside transaction"
        );
        let touched = &mut self.logs[thread.index()].shards;
        if touched.contains(&shard) {
            return None;
        }
        touched.push(shard);
        Some(shard)
    }

    /// Distinct shards `thread`'s active transaction has touched (0 when
    /// no transaction is active or the platform has a single shard: an
    /// attempt's logs are cleared when it ends).
    pub fn active_shard_count(&self, thread: ThreadId) -> u32 {
        self.logs[thread.index()].shards.len() as u32
    }

    /// Lines some active attempt holds. Zero whenever no transaction is
    /// active: the last release of a line removes it from the table.
    pub fn held_lines(&self) -> usize {
        self.lines.len()
    }

    /// Enables execution-history recording (see [`crate::History`]).
    /// Costs memory proportional to the access count; off by default.
    pub fn enable_history(&mut self) {
        self.history = Some(History::new());
    }

    /// The recorded history, if recording was enabled.
    pub fn history(&self) -> Option<&History> {
        self.history.as_ref()
    }

    /// Takes ownership of the recorded history.
    pub fn take_history(&mut self) -> Option<History> {
        self.history.take()
    }

    /// Number of CPUs in the machine (the CPU table's size).
    pub fn num_cpus(&self) -> usize {
        self.cpu_table.len()
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.active.len()
    }

    /// Run statistics gathered so far.
    pub fn stats(&self) -> &TmStats {
        &self.stats
    }

    /// Mutable access to statistics (for the thread driver).
    pub fn stats_mut(&mut self) -> &mut TmStats {
        &mut self.stats
    }

    /// The hardware CPU table: entry `i` holds the dTxID last broadcast as
    /// running on CPU `i`, if its outcome has not been broadcast yet.
    pub fn cpu_table(&self) -> &[Option<DTxId>] {
        &self.cpu_table
    }

    /// The occupied CPU-table slots as `(cpu, dTxID)`, in ascending CPU
    /// order: exactly the `Some` entries of [`TmState::cpu_table`], found
    /// through the occupancy bitmap, so a walk costs the number of
    /// running transactions (plus one word test per 64 CPUs) rather than
    /// the machine width.
    pub fn running(&self) -> impl Iterator<Item = (usize, DTxId)> + '_ {
        Running {
            table: &self.cpu_table,
            words: self.occupied.iter().enumerate(),
            base: 0,
            word: 0,
        }
    }

    /// True if `dtx` is currently executing (its thread has it active).
    pub fn is_active(&self, dtx: DTxId) -> bool {
        self.active[dtx.thread.index()]
            .as_ref()
            .is_some_and(|a| a.dtx == dtx)
    }

    /// The dTxID `thread` is currently executing, if any.
    pub fn active_dtx(&self, thread: ThreadId) -> Option<DTxId> {
        self.active[thread.index()].as_ref().map(|a| a.dtx)
    }

    /// The age timestamp of `thread`'s active transaction.
    pub fn active_timestamp(&self, thread: ThreadId) -> Option<Cycle> {
        self.active[thread.index()].as_ref().map(|a| a.timestamp)
    }

    /// Begins a transaction on `thread`, broadcasting it to the CPU table
    /// slot of `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if the thread already has an active transaction.
    pub fn begin_tx(&mut self, thread: ThreadId, cpu: usize, dtx: DTxId, timestamp: Cycle) {
        assert!(
            self.active[thread.index()].is_none(),
            "{thread} began a transaction while one is active"
        );
        let attempt = self.history.as_mut().map(|h| h.begin(dtx));
        if !self.fallback[thread.index()] {
            if let Some(sig) = self.det_sigs.get_mut(thread.index()) {
                sig.arm();
            }
        }
        self.active[thread.index()] = Some(ActiveTx {
            dtx,
            cpu,
            timestamp,
            attempt,
        });
        self.cpu_table[cpu] = Some(dtx);
        self.occupied[cpu >> 6] |= 1 << (cpu & 63);
    }

    /// Bounded detection: scans the *other* threads' armed signatures
    /// for an alias of `addr`. Reads probe write signatures; writes
    /// probe read and write signatures. Any exact conflict was already
    /// caught against the line table (real owners insert the address
    /// into their signature, so a real conflict is always a signature
    /// hit too), which makes every hit found here a false positive.
    /// Ascending thread order keeps the blamed owner deterministic.
    fn signature_alias(
        &self,
        thread: ThreadId,
        addr: LineAddr,
        is_write: bool,
    ) -> Option<ThreadId> {
        let key = addr.get();
        self.det_sigs
            .iter()
            .enumerate()
            .filter(|&(t, other)| other.armed && t != thread.index())
            .find(|(_, other)| {
                other.write.may_contain(key) || (is_write && other.read.may_contain(key))
            })
            .map(|(t, _)| ThreadId(t))
    }

    /// `thread`'s signatures, if its current attempt tracks through them.
    fn armed_sig(&mut self, thread: ThreadId) -> Option<&mut DetSig> {
        self.det_sigs
            .get_mut(thread.index())
            .filter(|sig| sig.armed)
    }

    /// Genuinely conflicting owners of `addr` for an access by `thread`,
    /// counted from the exact line table — the ground truth a
    /// `FalsePositiveConflict` event records so the audit (I10) can hold
    /// the hardware model to its own claim of innocence.
    pub fn true_conflict_count(&self, thread: ThreadId, addr: LineAddr, is_write: bool) -> u32 {
        let Some(line) = self.lines.get(addr.get()) else {
            return 0;
        };
        let mut n = 0u32;
        if let Some(writer) = line.writer {
            if writer != thread {
                n += 1;
            }
        }
        if is_write {
            n += line.readers.iter().filter(|&&r| r != thread).count() as u32;
        }
        n
    }

    /// Arms the detection-signature corruption fault: at each bounded
    /// transaction begin, with probability `rate_pct`% (clamped to 100),
    /// `bits` random positions are forced high in the fresh signatures.
    /// `rate_pct` or `bits` of 0 disarms. The draws come from a stream
    /// derived from `seed`, independent of the run's own randomness.
    pub fn configure_detection_fault(&mut self, rate_pct: u64, bits: u32, seed: u64) {
        self.det_fault = (rate_pct > 0 && bits > 0).then(|| DetFault {
            rate_pct: rate_pct.min(100),
            bits,
            rng: SimRng::seed_from(seed).derive(0xDE7_FA17),
        });
    }

    /// Rolls the armed detection fault (if any) against `thread`'s fresh
    /// attempt. Returns how many signature bits actually flipped; the
    /// caller emits the `FaultBloomCorrupt` event for a non-zero result.
    /// Always 0 with no fault armed, under perfect detection, or in the
    /// software fallback (there is no signature to corrupt).
    pub fn maybe_corrupt_detection(&mut self, thread: ThreadId) -> u32 {
        let Some(sig) = self
            .det_sigs
            .get_mut(thread.index())
            .filter(|sig| sig.armed)
        else {
            return 0;
        };
        let Some(fault) = self.det_fault.as_mut() else {
            return 0;
        };
        if fault.rng.gen_range(100) >= fault.rate_pct {
            return 0;
        }
        // Each position is forced as it is drawn. A position drawn twice
        // flips nothing the second time (no-op corruptions must not emit
        // a fault event, per the audit).
        let bits = u64::from(sig.read.bits());
        let mut flipped = 0;
        for _ in 0..fault.bits {
            if sig.force_bit(fault.rng.gen_range(bits) as u32) {
                flipped += 1;
            }
        }
        flipped
    }

    /// Attempts a transactional read of `addr` by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no active transaction.
    pub fn read(&mut self, thread: ThreadId, addr: LineAddr) -> AccessResult {
        let bounded = self.tracks_by_signature(thread);
        if let Some(line) = self.lines.get(addr.get()) {
            if line.held_by(thread) {
                return AccessResult::Granted;
            }
            // Real conflicts first: the exact line table is the ground
            // truth, and every real conflict is a signature hit anyway.
            if let Some(writer) = line.writer {
                return AccessResult::Conflict { owner: writer };
            }
        }
        if bounded {
            if let Some(refused) = self.bounded_refusal(thread, addr, false, true) {
                return refused;
            }
        }
        self.grant(thread, addr, false, true)
    }

    /// Attempts a transactional write of `addr` by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no active transaction.
    pub fn write(&mut self, thread: ThreadId, addr: LineAddr) -> AccessResult {
        let bounded = self.tracks_by_signature(thread);
        // A read→write upgrade: the attempt already tracks the line.
        let mut upgrade = false;
        if let Some(line) = self.lines.get(addr.get()) {
            if line.writer == Some(thread) {
                return AccessResult::Granted;
            }
            if let Some(writer) = line.writer {
                return AccessResult::Conflict { owner: writer };
            }
            if let Some(&reader) = line.readers.iter().find(|&&r| r != thread) {
                return AccessResult::Conflict { owner: reader };
            }
            upgrade = line.readers.contains(&thread);
        }
        if bounded {
            if let Some(refused) = self.bounded_refusal(thread, addr, true, !upgrade) {
                return refused;
            }
        }
        self.grant(thread, addr, true, !upgrade)
    }

    /// True if `thread`'s active attempt tracks through bounded
    /// signatures.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no active transaction.
    fn tracks_by_signature(&self, thread: ThreadId) -> bool {
        assert!(
            self.active_dtx(thread).is_some(),
            "access outside transaction"
        );
        self.det_sigs
            .get(thread.index())
            .is_some_and(|sig| sig.armed)
    }

    /// Bounded detection's verdict on an access the exact line table
    /// allows: a false conflict when another attempt's signature aliases
    /// `addr` (reads probe write signatures, writes probe both), or a
    /// capacity overflow when a `new_address` would track one address
    /// more than the signature holds. `None` lets the access through.
    fn bounded_refusal(
        &mut self,
        thread: ThreadId,
        addr: LineAddr,
        is_write: bool,
        new_address: bool,
    ) -> Option<AccessResult> {
        if let Some(owner) = self.signature_alias(thread, addr, is_write) {
            return Some(AccessResult::FalseConflict { owner });
        }
        let sig = self
            .armed_sig(thread)
            .expect("bounded attempts carry a signature");
        if new_address && sig.tracked >= sig.capacity {
            let (tracked, capacity) = (sig.tracked + 1, sig.capacity);
            // Latch the software fallback: the retry tracks exactly.
            self.set_fallback(thread, true);
            return Some(AccessResult::CapacityExceeded { tracked, capacity });
        }
        None
    }

    /// Records a granted access: the line's new holder, the attempt's
    /// log, its signature (a `new_address` costs a capacity slot) and
    /// the history.
    fn grant(
        &mut self,
        thread: ThreadId,
        addr: LineAddr,
        is_write: bool,
        new_address: bool,
    ) -> AccessResult {
        self.lines.insert(addr.get(), thread, is_write);
        let logs = self
            .logs
            .get_mut(thread.index())
            .expect("thread id in range");
        if is_write {
            logs.writes.push(addr.get());
        } else {
            logs.reads.push(addr.get());
        }
        if let Some(sig) = self.armed_sig(thread) {
            if is_write {
                sig.write.insert(addr.get());
            } else {
                sig.read.insert(addr.get());
            }
            if new_address {
                sig.tracked += 1;
            }
        }
        let attempt = self
            .active
            .get(thread.index())
            .and_then(Option::as_ref)
            .expect("access outside transaction")
            .attempt;
        if let (Some(h), Some(a)) = (self.history.as_mut(), attempt) {
            h.access(a, addr, is_write);
        }
        AccessResult::Granted
    }

    fn set_fallback(&mut self, thread: ThreadId, latched: bool) {
        *self
            .fallback
            .get_mut(thread.index())
            .expect("thread id in range") = latched;
    }

    /// Commits `thread`'s transaction: releases isolation, clears the CPU
    /// table broadcast, and writes the unique lines it touched (its
    /// read/write set, sorted by address) into `rw_set` for
    /// contention-manager bookkeeping. `rw_set` is cleared first, so the
    /// caller can hand in the same buffer on every commit.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no active transaction.
    pub fn commit_tx(&mut self, thread: ThreadId, rw_set: &mut Vec<LineAddr>) -> DTxId {
        let tx = self
            .active
            .get_mut(thread.index())
            .and_then(Option::take)
            .expect("commit outside transaction");
        // The commit ends the instance, so the overflow latch (if any)
        // is consumed: the *next* instance gets hardware signatures
        // again. Aborts keep the latch — the retry is the fallback.
        self.set_fallback(thread, false);
        let logs = self.logs.get(thread.index()).expect("thread id in range");
        rw_set.clear();
        rw_set.extend(logs.reads.iter().chain(&logs.writes).map(|&a| LineAddr(a)));
        rw_set.sort_unstable();
        rw_set.dedup();
        self.end_attempt(thread, &tx);
        if let (Some(h), Some(a)) = (self.history.as_mut(), tx.attempt) {
            h.commit(a);
        }
        self.stats.record_commit(tx.dtx, rw_set);
        tx.dtx
    }

    /// Aborts `thread`'s transaction, returning its dTxID and the number
    /// of lines in its write set (the undo-log length, which sets the
    /// rollback cost).
    ///
    /// # Panics
    ///
    /// Panics if the thread has no active transaction.
    pub fn abort_tx(&mut self, thread: ThreadId) -> (DTxId, usize) {
        let tx = self
            .active
            .get_mut(thread.index())
            .and_then(Option::take)
            .expect("abort outside transaction");
        let undo_lines = self
            .logs
            .get(thread.index())
            .expect("thread id in range")
            .writes
            .len();
        self.end_attempt(thread, &tx);
        if let (Some(h), Some(a)) = (self.history.as_mut(), tx.attempt) {
            h.abort(a);
        }
        self.stats.record_abort(tx.dtx);
        (tx.dtx, undo_lines)
    }

    /// Releases every line `tx` holds, clears its logs for the thread's
    /// next attempt, disarms its signatures and clears its CPU-table
    /// broadcast.
    fn end_attempt(&mut self, thread: ThreadId, tx: &ActiveTx) {
        let logs = self
            .logs
            .get_mut(thread.index())
            .expect("thread id in range");
        for &addr in logs.reads.iter().chain(&logs.writes) {
            self.lines.release(addr, thread);
        }
        logs.clear();
        if let Some(sig) = self.det_sigs.get_mut(thread.index()) {
            sig.armed = false;
        }
        self.clear_cpu_broadcast(tx);
    }

    /// Clears `tx`'s begin broadcast in O(1). A dTxID is only ever
    /// written to the slot of the CPU it began on, and its thread has no
    /// other attempt in flight, so that slot is the only one that can
    /// still hold it — unless a later broadcast overwrote it, in which
    /// case there is nothing left to clear.
    fn clear_cpu_broadcast(&mut self, tx: &ActiveTx) {
        if self.cpu_table[tx.cpu] == Some(tx.dtx) {
            self.cpu_table[tx.cpu] = None;
            self.occupied[tx.cpu >> 6] &= !(1 << (tx.cpu & 63));
        }
    }

    /// Registers that `thread` is waiting for `on` (a conflict stall or a
    /// predicted-conflict wait).
    pub fn set_waiting(&mut self, thread: ThreadId, on: ThreadId) {
        self.waiting_on[thread.index()] = Some(on);
    }

    /// Clears `thread`'s wait edge.
    pub fn clear_waiting(&mut self, thread: ThreadId) {
        self.waiting_on[thread.index()] = None;
    }

    /// True if `thread` waiting on `on` would close a cycle in the
    /// waits-for graph (counting the proposed edge).
    pub fn would_deadlock(&self, thread: ThreadId, on: ThreadId) -> bool {
        if thread == on {
            return true;
        }
        let mut cur = on;
        let mut hops = 0;
        while let Some(next) = self.waiting_on[cur.index()] {
            if next == thread {
                return true;
            }
            cur = next;
            hops += 1;
            if hops > self.waiting_on.len() {
                // Existing cycle not involving us; treat as dangerous.
                return true;
            }
        }
        false
    }

    /// The static transaction owner `thread` is running, for conflict
    /// bookkeeping. Returns `None` if it has no active transaction (its
    /// transaction completed between the conflict and this query).
    pub fn active_stx(&self, thread: ThreadId) -> Option<STxId> {
        self.active_dtx(thread).map(|d| d.stx)
    }
}

/// The world threaded through the simulator: TM state plus the contention
/// manager under test.
pub struct TmWorld {
    /// The transactional memory machine.
    pub tm: TmState,
    /// The contention manager (scheduler) under test.
    pub cm: Box<dyn ContentionManager>,
}

impl TmWorld {
    /// Creates a world for `num_cpus`/`num_threads` with manager `cm`.
    pub fn new(num_cpus: usize, num_threads: usize, cm: Box<dyn ContentionManager>) -> Self {
        Self {
            tm: TmState::new(num_cpus, num_threads),
            cm,
        }
    }
}

impl std::fmt::Debug for TmWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmWorld")
            .field("tm", &self.tm)
            .field("cm", &self.cm.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> TmState {
        TmState::new(2, 4)
    }

    fn dtx(t: usize, s: u32) -> DTxId {
        DTxId::new(ThreadId(t), STxId(s))
    }

    #[test]
    fn begin_updates_cpu_table() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 1), Cycle::new(5));
        assert_eq!(tm.cpu_table()[0], Some(dtx(0, 1)));
        assert!(tm.is_active(dtx(0, 1)));
        assert_eq!(tm.active_timestamp(ThreadId(0)), Some(Cycle::new(5)));
    }

    #[test]
    fn cpu_table_overwritten_by_next_broadcast() {
        // Overcommit: a second thread starts a tx on the same CPU while
        // the first is descheduled mid-transaction. The hardware table
        // has one slot per CPU and is overwritten.
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 1), Cycle::ZERO);
        tm.begin_tx(ThreadId(2), 0, dtx(2, 3), Cycle::ZERO);
        assert_eq!(tm.cpu_table()[0], Some(dtx(2, 3)));
        // Thread 0's tx is still active even though its broadcast is gone.
        assert!(tm.is_active(dtx(0, 1)));
        // Its commit leaves the overwriting broadcast in place.
        tm.commit_tx(ThreadId(0), &mut Vec::new());
        assert_eq!(tm.running().collect::<Vec<_>>(), vec![(0, dtx(2, 3))]);
    }

    #[test]
    fn running_walks_occupied_slots_in_cpu_order() {
        let mut tm = TmState::new(130, 4);
        tm.begin_tx(ThreadId(2), 129, dtx(2, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(0), 64, dtx(0, 1), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 3, dtx(1, 2), Cycle::ZERO);
        assert_eq!(
            tm.running().collect::<Vec<_>>(),
            vec![(3, dtx(1, 2)), (64, dtx(0, 1)), (129, dtx(2, 0))]
        );
        tm.abort_tx(ThreadId(0));
        tm.commit_tx(ThreadId(2), &mut Vec::new());
        assert_eq!(tm.running().collect::<Vec<_>>(), vec![(3, dtx(1, 2))]);
        assert_eq!(tm.cpu_table().iter().flatten().count(), 1);
    }

    #[test]
    fn read_read_sharing_is_granted() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(0), LineAddr(7)), AccessResult::Granted);
        assert_eq!(tm.read(ThreadId(1), LineAddr(7)), AccessResult::Granted);
    }

    #[test]
    fn write_write_conflicts() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.write(ThreadId(0), LineAddr(7)), AccessResult::Granted);
        assert_eq!(
            tm.write(ThreadId(1), LineAddr(7)),
            AccessResult::Conflict { owner: ThreadId(0) }
        );
    }

    #[test]
    fn read_after_remote_write_conflicts() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.write(ThreadId(0), LineAddr(7)), AccessResult::Granted);
        assert_eq!(
            tm.read(ThreadId(1), LineAddr(7)),
            AccessResult::Conflict { owner: ThreadId(0) }
        );
    }

    #[test]
    fn write_after_remote_read_conflicts() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(0), LineAddr(7)), AccessResult::Granted);
        assert_eq!(
            tm.write(ThreadId(1), LineAddr(7)),
            AccessResult::Conflict { owner: ThreadId(0) }
        );
    }

    #[test]
    fn own_upgrades_are_granted() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(0), LineAddr(7)), AccessResult::Granted);
        assert_eq!(tm.write(ThreadId(0), LineAddr(7)), AccessResult::Granted);
        assert_eq!(tm.read(ThreadId(0), LineAddr(7)), AccessResult::Granted);
    }

    #[test]
    fn commit_releases_isolation() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.write(ThreadId(0), LineAddr(7));
        let mut rw = Vec::new();
        let d = tm.commit_tx(ThreadId(0), &mut rw);
        assert_eq!(d, dtx(0, 0));
        assert_eq!(rw, vec![LineAddr(7)]);
        assert!(!tm.is_active(dtx(0, 0)));
        assert_eq!(tm.cpu_table()[0], None);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.write(ThreadId(1), LineAddr(7)), AccessResult::Granted);
    }

    #[test]
    fn commit_returns_union_of_read_and_write_sets() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.read(ThreadId(0), LineAddr(1));
        tm.write(ThreadId(0), LineAddr(2));
        tm.read(ThreadId(0), LineAddr(3));
        tm.write(ThreadId(0), LineAddr(3)); // upgrade, not duplicated
                                            // The buffer's old contents are replaced, not appended to.
        let mut rw = vec![LineAddr(99)];
        tm.commit_tx(ThreadId(0), &mut rw);
        assert_eq!(rw, vec![LineAddr(1), LineAddr(2), LineAddr(3)]);
    }

    #[test]
    fn abort_releases_isolation_and_counts() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.write(ThreadId(0), LineAddr(7));
        tm.write(ThreadId(0), LineAddr(8));
        let (d, undo) = tm.abort_tx(ThreadId(0));
        assert_eq!(d, dtx(0, 0));
        assert_eq!(undo, 2);
        assert_eq!(tm.stats().aborts(), 1);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.write(ThreadId(1), LineAddr(7)), AccessResult::Granted);
    }

    #[test]
    #[should_panic(expected = "while one is active")]
    fn nested_begin_panics() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 1), Cycle::ZERO);
    }

    #[test]
    fn deadlock_detection_direct_cycle() {
        let mut tm = state();
        tm.set_waiting(ThreadId(0), ThreadId(1));
        assert!(tm.would_deadlock(ThreadId(1), ThreadId(0)));
        assert!(!tm.would_deadlock(ThreadId(2), ThreadId(0)));
    }

    #[test]
    fn deadlock_detection_transitive_cycle() {
        let mut tm = state();
        tm.set_waiting(ThreadId(0), ThreadId(1));
        tm.set_waiting(ThreadId(1), ThreadId(2));
        assert!(tm.would_deadlock(ThreadId(2), ThreadId(0)));
        tm.clear_waiting(ThreadId(1));
        assert!(!tm.would_deadlock(ThreadId(2), ThreadId(0)));
    }

    #[test]
    fn self_wait_is_deadlock() {
        let tm = state();
        assert!(tm.would_deadlock(ThreadId(0), ThreadId(0)));
    }

    #[test]
    fn shard_mapping_is_block_interleaved() {
        let mut tm = state();
        tm.configure_shards(4);
        assert_eq!(tm.num_shards(), 4);
        // One block stays on one shard; consecutive blocks round-robin.
        assert_eq!(tm.shard_of(LineAddr(0)), 0);
        assert_eq!(tm.shard_of(LineAddr(SHARD_BLOCK_LINES - 1)), 0);
        assert_eq!(tm.shard_of(LineAddr(SHARD_BLOCK_LINES)), 1);
        assert_eq!(tm.shard_of(LineAddr(4 * SHARD_BLOCK_LINES)), 0);
    }

    #[test]
    fn shard_touches_dedup_per_attempt_and_reset_on_abort() {
        let mut tm = state();
        tm.configure_shards(2);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        assert_eq!(tm.note_shard_touch(ThreadId(0), LineAddr(0)), Some(0));
        assert_eq!(tm.note_shard_touch(ThreadId(0), LineAddr(1)), None);
        assert_eq!(
            tm.note_shard_touch(ThreadId(0), LineAddr(SHARD_BLOCK_LINES)),
            Some(1)
        );
        assert_eq!(tm.active_shard_count(ThreadId(0)), 2);
        tm.abort_tx(ThreadId(0));
        assert_eq!(tm.active_shard_count(ThreadId(0)), 0);
        // A retry starts from an empty touch set.
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        assert_eq!(tm.note_shard_touch(ThreadId(0), LineAddr(0)), Some(0));
    }

    #[test]
    fn single_shard_platform_tracks_nothing() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        assert_eq!(tm.note_shard_touch(ThreadId(0), LineAddr(0)), None);
        assert_eq!(tm.active_shard_count(ThreadId(0)), 0);
        assert_eq!(tm.num_shards(), 1);
    }

    fn bounded(bits: u32, hashes: u32, capacity: u32) -> TmState {
        let mut tm = state();
        tm.configure_detection(Detection::BoundedSig {
            bits,
            hashes,
            capacity,
        });
        tm
    }

    /// An address that aliases `target` in a `bits`-bit, `hashes`-hash
    /// filter without being equal to it.
    fn aliasing_addr(target: u64, bits: u32, hashes: u32) -> u64 {
        let mut f = BloomFilter::new(bits, hashes);
        f.insert(target);
        (0..u64::MAX)
            .find(|&a| a != target && f.may_contain(a))
            .expect("a 64-bit 1-hash filter aliases quickly")
    }

    #[test]
    fn detection_geometry_is_validated() {
        assert!(Detection::Perfect.validate().is_ok());
        let ok = Detection::BoundedSig {
            bits: 256,
            hashes: 2,
            capacity: 8,
        };
        assert!(ok.validate().is_ok() && ok.is_bounded());
        for bad in [
            Detection::BoundedSig {
                bits: 100,
                hashes: 2,
                capacity: 8,
            },
            Detection::BoundedSig {
                bits: 8192,
                hashes: 2,
                capacity: 8,
            },
            Detection::BoundedSig {
                bits: 256,
                hashes: 0,
                capacity: 8,
            },
            Detection::BoundedSig {
                bits: 256,
                hashes: 2,
                capacity: 0,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "invalid detection config")]
    fn invalid_detection_config_panics() {
        state().configure_detection(Detection::BoundedSig {
            bits: 63,
            hashes: 1,
            capacity: 1,
        });
    }

    #[test]
    fn capacity_overflow_aborts_and_latches_the_fallback() {
        let mut tm = bounded(2048, 4, 2);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(0), LineAddr(1)), AccessResult::Granted);
        assert_eq!(tm.write(ThreadId(0), LineAddr(2)), AccessResult::Granted);
        // Third distinct address: one past the bound.
        assert_eq!(
            tm.read(ThreadId(0), LineAddr(3)),
            AccessResult::CapacityExceeded {
                tracked: 3,
                capacity: 2
            }
        );
        assert!(tm.in_fallback(ThreadId(0)));
        tm.abort_tx(ThreadId(0));
        // The retry tracks exactly: unbounded, and the latch survives
        // the abort...
        assert!(tm.in_fallback(ThreadId(0)));
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        for i in 1..=10 {
            assert_eq!(tm.read(ThreadId(0), LineAddr(i)), AccessResult::Granted);
        }
        tm.commit_tx(ThreadId(0), &mut Vec::new());
        // ...until the commit consumes it.
        assert!(!tm.in_fallback(ThreadId(0)));
    }

    #[test]
    fn upgrades_do_not_consume_capacity() {
        let mut tm = bounded(2048, 4, 2);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(0), LineAddr(1)), AccessResult::Granted);
        assert_eq!(tm.read(ThreadId(0), LineAddr(2)), AccessResult::Granted);
        // The upgrade re-tracks nothing; the repeat reads are free too.
        assert_eq!(tm.write(ThreadId(0), LineAddr(1)), AccessResult::Granted);
        assert_eq!(tm.read(ThreadId(0), LineAddr(2)), AccessResult::Granted);
        assert!(!tm.in_fallback(ThreadId(0)));
    }

    #[test]
    fn real_conflicts_stay_exact_under_bounded_detection() {
        let mut tm = bounded(2048, 4, 64);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.write(ThreadId(0), LineAddr(7)), AccessResult::Granted);
        assert_eq!(
            tm.write(ThreadId(1), LineAddr(7)),
            AccessResult::Conflict { owner: ThreadId(0) }
        );
        assert_eq!(tm.true_conflict_count(ThreadId(1), LineAddr(7), true), 1);
    }

    #[test]
    fn signature_alias_is_a_false_conflict_the_exact_sets_disconfirm() {
        // A deliberately tiny 1-hash signature so aliases are easy to
        // manufacture.
        let mut tm = bounded(64, 1, 64);
        let written = 7u64;
        let alias = aliasing_addr(written, 64, 1);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(
            tm.write(ThreadId(0), LineAddr(written)),
            AccessResult::Granted
        );
        assert_eq!(
            tm.read(ThreadId(1), LineAddr(alias)),
            AccessResult::FalseConflict { owner: ThreadId(0) }
        );
        // The ground truth disconfirms it — that is what I10 audits.
        assert_eq!(
            tm.true_conflict_count(ThreadId(1), LineAddr(alias), false),
            0
        );
        // An address that misses the signature is granted as usual.
        let mut probe = BloomFilter::new(64, 1);
        probe.insert(written);
        let clean = (0..u64::MAX)
            .find(|&a| a != written && !probe.may_contain(a))
            .expect("most addresses miss a nearly-empty filter");
        assert_eq!(tm.read(ThreadId(1), LineAddr(clean)), AccessResult::Granted);
    }

    #[test]
    fn fallback_attempts_carry_no_signature_and_cause_no_aliases() {
        let mut tm = bounded(64, 1, 1);
        // Overflow thread 0 into the fallback.
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(0), LineAddr(1)), AccessResult::Granted);
        assert!(matches!(
            tm.read(ThreadId(0), LineAddr(2)),
            AccessResult::CapacityExceeded { .. }
        ));
        tm.abort_tx(ThreadId(0));
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        let written = 7u64;
        assert_eq!(
            tm.write(ThreadId(0), LineAddr(written)),
            AccessResult::Granted
        );
        // Thread 1 probes an alias of the fallback thread's write: no
        // signature to hit, and the exact sets do not conflict.
        let alias = aliasing_addr(written, 64, 1);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(1), LineAddr(alias)), AccessResult::Granted);
    }

    #[test]
    fn perfect_detection_is_the_default_and_never_overflows() {
        let mut tm = state();
        assert_eq!(tm.detection(), Detection::Perfect);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        for i in 0..1000 {
            assert_eq!(tm.read(ThreadId(0), LineAddr(i)), AccessResult::Granted);
        }
        assert!(!tm.in_fallback(ThreadId(0)));
        // No detection signature exists, so an armed fault has nothing
        // to corrupt.
        assert!(tm.det_sigs.is_empty());
        tm.configure_detection_fault(100, 3, 1);
        assert_eq!(tm.maybe_corrupt_detection(ThreadId(0)), 0);
    }

    #[test]
    fn a_thread_slot_holds_no_filter() {
        // Two inline 2048-bit filters made each slot 600 bytes.
        assert!(std::mem::size_of::<Option<ActiveTx>>() <= 64);
    }

    #[test]
    fn detection_corruption_counts_fresh_bits_only() {
        let mut tm = bounded(64, 1, 8);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        let sig = &mut tm.det_sigs[0];
        assert!(sig.force_bit(5) && sig.force_bit(9));
        // Re-forcing the same positions flips nothing.
        assert!(!sig.force_bit(5) && !sig.force_bit(9));
    }

    #[test]
    fn detection_corruption_matches_drawing_every_position_first() {
        // The reference draws all of a begin's positions, then forces
        // them in draw order. Forcing each as it is drawn consumes the
        // same draws and counts the same flips.
        let (bits, forced, seed) = (64, 40, 5);
        let mut tm = bounded(bits, 1, 8);
        tm.configure_detection_fault(60, forced, seed);
        let mut rng = SimRng::seed_from(seed).derive(0xDE7_FA17);
        let mut reference = BloomFilter::new(bits, 1);
        let mut fired = 0;
        for _ in 0..50 {
            tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
            let flipped = tm.maybe_corrupt_detection(ThreadId(0));
            let mut expected = 0;
            reference.clear();
            if rng.gen_range(100) < 60 {
                let positions: Vec<u32> = (0..forced)
                    .map(|_| rng.gen_range(u64::from(bits)) as u32)
                    .collect();
                for pos in positions {
                    let before = reference.count_ones();
                    reference.set_bit(pos);
                    expected += u32::from(reference.count_ones() > before);
                }
                fired += 1;
            }
            assert_eq!(flipped, expected);
            assert_eq!(tm.det_sigs[0].read, reference);
            tm.abort_tx(ThreadId(0));
        }
        assert!(fired > 0 && fired < 50, "the 60% rate fired {fired} of 50");
    }

    #[test]
    fn a_thread_s_signatures_hold_only_its_current_attempt() {
        let mut tm = bounded(64, 1, 64);
        let written = 7u64;
        let alias = aliasing_addr(written, 64, 1);
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.write(ThreadId(0), LineAddr(written));
        tm.commit_tx(ThreadId(0), &mut Vec::new());
        // Between attempts the entry is disarmed...
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(1), LineAddr(alias)), AccessResult::Granted);
        tm.abort_tx(ThreadId(1));
        // ...and the next attempt starts from empty signatures.
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        assert_eq!(tm.read(ThreadId(1), LineAddr(alias)), AccessResult::Granted);
    }

    #[test]
    fn commit_sheds_line_state() {
        let mut tm = state();
        tm.begin_tx(ThreadId(0), 0, dtx(0, 0), Cycle::ZERO);
        for i in 0..10 {
            tm.write(ThreadId(0), LineAddr(i));
        }
        tm.commit_tx(ThreadId(0), &mut Vec::new());
        assert_eq!(tm.held_lines(), 0, "line table should be garbage-free");
    }
}
