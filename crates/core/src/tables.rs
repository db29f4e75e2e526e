//! BFGTS software data structures (paper §4.2.1, Figure 3): the compact
//! sTxID×sTxID confidence table and the per-dTxID statistics array.

use bfgts_htm::{DTxId, DtxMap, STxId};

/// Conflict-confidence table keyed by *static* transaction id pairs.
///
/// This is BFGTS's key compression over PTS: instead of one entry per
/// dynamic (thread × static) pair — tens of megabytes — it keeps one per
/// static pair, a few hundred bytes for the STAMP benchmarks, small
/// enough for the hardware predictor's dedicated cache.
#[derive(Debug, Clone, Default)]
pub struct ConfidenceTable {
    /// Row-major square table, grown on demand.
    values: Vec<Vec<f64>>,
    /// When set, sTxIDs are hashed into this many slots instead of
    /// growing the table — the *aliasing* scheme the paper sketches as
    /// future work for programs with unbounded static transaction
    /// counts (§4.2.1). Distinct transactions that share a slot share a
    /// confidence entry (and each other's reputation).
    alias_slots: Option<u32>,
}

impl ConfidenceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bounded table of `slots`×`slots` entries with sTxID
    /// aliasing (the paper's §4.2.1 future-work scheme).
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn with_alias_slots(slots: u32) -> Self {
        assert!(slots > 0, "alias table needs at least one slot");
        Self {
            values: Vec::new(),
            alias_slots: Some(slots),
        }
    }

    fn slot_of(&self, stx: STxId) -> usize {
        match self.alias_slots {
            // Multiplicative hash so adjacent sTxIDs spread over slots.
            Some(slots) => (stx.get().wrapping_mul(0x9E37_79B9) % slots) as usize,
            None => stx.get() as usize,
        }
    }

    /// Confidence that `a` and `b` will conflict (0 if never updated).
    pub fn get(&self, a: STxId, b: STxId) -> f64 {
        self.values
            .get(self.slot_of(a))
            .and_then(|row| row.get(self.slot_of(b)))
            .copied()
            .unwrap_or(0.0)
    }

    /// Adds `delta` to the `(a, b)` entry, clamping at zero.
    pub fn bump(&mut self, a: STxId, b: STxId, delta: f64) {
        let (ai, bi) = (self.slot_of(a), self.slot_of(b));
        let dim = (ai.max(bi) + 1).max(self.values.len());
        if self.values.len() < dim {
            self.values.resize_with(dim, Vec::new);
        }
        for row in &mut self.values {
            if row.len() < dim {
                row.resize(dim, 0.0);
            }
        }
        let e = &mut self.values[ai][bi];
        *e = (*e + delta).max(0.0);
    }

    /// Number of rows currently allocated (highest slot touched + 1).
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Resets every allocated entry to zero — the fault-injection layer's
    /// *reset* poisoning hook (DESIGN.md §9), modelling a confidence store
    /// that loses its learned state mid-run. Returns the number of entries
    /// rewritten. The table's shape (and alias configuration) is untouched.
    pub fn reset_all(&mut self) -> u64 {
        let mut n = 0u64;
        for row in &mut self.values {
            for e in row.iter_mut() {
                *e = 0.0;
                n += 1;
            }
        }
        n
    }

    /// Saturates every allocated entry to `value` — the fault-injection
    /// layer's *saturate* poisoning hook, modelling stuck-high confidence
    /// state (every pair looks certain to conflict, so the scheduler
    /// serialises spuriously). Returns the number of entries rewritten.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or NaN: the table's clamp invariant
    /// (audit I6's sibling — entries never go below zero) must survive
    /// injection.
    pub fn saturate(&mut self, value: f64) -> u64 {
        assert!(
            value >= 0.0,
            "confidence saturation value must be non-negative, got {value}"
        );
        let mut n = 0u64;
        for row in &mut self.values {
            for e in row.iter_mut() {
                *e = value;
                n += 1;
            }
        }
        n
    }

    /// Approximate memory footprint in bytes (the paper quotes ≤800 B for
    /// the STAMP benchmarks).
    pub fn footprint_bytes(&self) -> usize {
        self.values.iter().map(|r| r.len() * 8).sum()
    }
}

/// Per-dTxID statistics (paper Figure 3): average transaction size,
/// smoothed similarity, and the transaction this dTxID last serialised
/// behind.
#[derive(Debug, Clone)]
pub struct TxStat {
    /// Exponentially smoothed read/write-set size in lines.
    pub avg_size: f64,
    /// Exponentially smoothed similarity in `[0, 1]`.
    pub sim: f64,
    /// Commits observed.
    pub commits: u64,
    /// Commits since the last similarity update (small-transaction
    /// batching, §4.2.2).
    pub since_sim_update: u32,
    /// The dTxID this transaction's current attempt serialised behind.
    pub waiting_on: Option<DTxId>,
}

/// Similarity assumed for a transaction before any measurement (a
/// neutral prior).
const INITIAL_SIM: f64 = 0.5;

/// The statistics array: per thread, a short vector of entries sorted by
/// sTxID (a [`DtxMap`], as the manager's signature table is).
#[derive(Debug, Clone, Default)]
pub struct TxStatsTable {
    stats: DtxMap<TxStat>,
}

impl TxStatsTable {
    /// Creates an empty table; unmeasured transactions report
    /// `INITIAL_SIM` (0.5) as their similarity.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `dtx`, created on first touch.
    pub fn entry(&mut self, dtx: DTxId) -> &mut TxStat {
        self.stats.get_or_insert_with(dtx, || TxStat {
            avg_size: 0.0,
            sim: INITIAL_SIM,
            commits: 0,
            since_sim_update: 0,
            waiting_on: None,
        })
    }

    /// Smoothed similarity of `dtx`; `INITIAL_SIM` (0.5) before any commit.
    pub fn sim_of(&self, dtx: DTxId) -> f64 {
        self.stats.get(dtx).map_or(INITIAL_SIM, |s| s.sim)
    }

    /// Smoothed average size of `dtx` (0 before any commit).
    pub fn avg_size_of(&self, dtx: DTxId) -> f64 {
        self.stats.get(dtx).map_or(0.0, |s| s.avg_size)
    }

    /// Number of tracked dTxIDs.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True if no dTxID has been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_sim::ThreadId;

    fn dtx(t: usize, s: u32) -> DTxId {
        DTxId::new(ThreadId(t), STxId(s))
    }

    #[test]
    fn confidence_starts_at_zero() {
        let t = ConfidenceTable::new();
        assert_eq!(t.get(STxId(0), STxId(5)), 0.0);
        assert_eq!(t.dim(), 0);
    }

    #[test]
    fn bump_and_get() {
        let mut t = ConfidenceTable::new();
        t.bump(STxId(1), STxId(2), 50.0);
        t.bump(STxId(1), STxId(2), 25.0);
        assert_eq!(t.get(STxId(1), STxId(2)), 75.0);
        assert_eq!(t.get(STxId(2), STxId(1)), 0.0, "table is directional");
    }

    #[test]
    fn bump_clamps_at_zero() {
        let mut t = ConfidenceTable::new();
        t.bump(STxId(0), STxId(0), 10.0);
        t.bump(STxId(0), STxId(0), -50.0);
        assert_eq!(t.get(STxId(0), STxId(0)), 0.0);
    }

    #[test]
    fn table_grows_square() {
        let mut t = ConfidenceTable::new();
        t.bump(STxId(3), STxId(1), 1.0);
        assert_eq!(t.dim(), 4);
        // all rows padded to dim
        t.bump(STxId(0), STxId(3), 2.0);
        assert_eq!(t.get(STxId(0), STxId(3)), 2.0);
    }

    #[test]
    fn footprint_is_compact_for_stamp_scale() {
        let mut t = ConfidenceTable::new();
        // Delaunay has 4 static transactions; 5 rows with padding.
        for a in 0..5u32 {
            for b in 0..5u32 {
                t.bump(STxId(a), STxId(b), 1.0);
            }
        }
        assert!(
            t.footprint_bytes() <= 800,
            "paper quotes <=800B, got {}",
            t.footprint_bytes()
        );
    }

    #[test]
    fn aliased_table_is_bounded() {
        let mut t = ConfidenceTable::with_alias_slots(4);
        for stx in 0..1000u32 {
            t.bump(STxId(stx), STxId(stx + 1), 1.0);
        }
        assert!(
            t.dim() <= 4,
            "aliased table must stay bounded, dim {}",
            t.dim()
        );
        assert!(t.footprint_bytes() <= 4 * 4 * 8);
    }

    #[test]
    fn aliased_transactions_share_entries() {
        let mut t = ConfidenceTable::with_alias_slots(1);
        t.bump(STxId(0), STxId(1), 30.0);
        // With one slot, every pair aliases to the same entry.
        assert_eq!(t.get(STxId(7), STxId(9)), 30.0);
    }

    #[test]
    fn unaliased_table_keeps_entries_distinct() {
        let mut t = ConfidenceTable::new();
        t.bump(STxId(0), STxId(1), 30.0);
        assert_eq!(t.get(STxId(7), STxId(9)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        ConfidenceTable::with_alias_slots(0);
    }

    #[test]
    fn reset_all_zeroes_every_entry_and_reports_the_count() {
        let mut t = ConfidenceTable::new();
        t.bump(STxId(1), STxId(2), 50.0);
        t.bump(STxId(2), STxId(0), 30.0);
        assert_eq!(t.dim(), 3);
        assert_eq!(t.reset_all(), 9, "3x3 table");
        assert_eq!(t.get(STxId(1), STxId(2)), 0.0);
        assert_eq!(t.get(STxId(2), STxId(0)), 0.0);
        assert_eq!(t.dim(), 3, "shape survives poisoning");
    }

    #[test]
    fn saturate_sets_every_entry() {
        let mut t = ConfidenceTable::new();
        t.bump(STxId(0), STxId(1), 5.0);
        assert_eq!(t.saturate(1000.0), 4, "2x2 table");
        assert_eq!(t.get(STxId(0), STxId(0)), 1000.0);
        assert_eq!(t.get(STxId(1), STxId(0)), 1000.0);
        // Normal updates keep working on top of the poisoned state.
        t.bump(STxId(0), STxId(1), -1500.0);
        assert_eq!(t.get(STxId(0), STxId(1)), 0.0, "clamp still holds");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_saturation_rejected() {
        let mut t = ConfidenceTable::new();
        t.bump(STxId(0), STxId(0), 1.0);
        t.saturate(-1.0);
    }

    #[test]
    fn poisoning_an_empty_table_is_a_noop() {
        let mut t = ConfidenceTable::new();
        assert_eq!(t.reset_all(), 0);
        assert_eq!(t.saturate(10.0), 0);
    }

    #[test]
    fn stats_default_to_prior() {
        let t = TxStatsTable::new();
        assert_eq!(t.sim_of(dtx(0, 0)), INITIAL_SIM);
        assert_eq!(t.avg_size_of(dtx(0, 0)), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn entry_creates_and_persists() {
        let mut t = TxStatsTable::new();
        t.entry(dtx(1, 2)).avg_size = 12.0;
        t.entry(dtx(1, 2)).sim = 0.9;
        assert_eq!(t.avg_size_of(dtx(1, 2)), 12.0);
        assert_eq!(t.sim_of(dtx(1, 2)), 0.9);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_dtx_distinct_entries() {
        let mut t = TxStatsTable::new();
        t.entry(dtx(0, 1)).sim = 0.1;
        t.entry(dtx(1, 1)).sim = 0.8;
        assert_eq!(t.sim_of(dtx(0, 1)), 0.1);
        assert_eq!(t.sim_of(dtx(1, 1)), 0.8);
        assert_eq!(t.len(), 2);
    }
}
