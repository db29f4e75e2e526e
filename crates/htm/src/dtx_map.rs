//! Per-dTxID rows: the container behind every table kept per dynamic
//! transaction.

use crate::ids::{DTxId, STxId};
use bfgts_sim::ThreadId;

/// Per-dTxID storage in the shape of the paper's Figure 3 arrays: one
/// row per thread, each a short vector of `(sTxID, value)` entries kept
/// sorted by sTxID. A lookup indexes the thread's row and binary-searches
/// the handful of static transactions that thread has run, so nothing is
/// allocated in proportion to an sTxID's value and there is no tree to
/// rebalance.
///
/// A row grows by exactly one entry when its thread first runs a static
/// transaction, never by doubling, so a thread that runs one holds room
/// for one. Iteration visits entries in (thread, sTxID) order, the order
/// of [`DTxId`]'s `Ord`, so a sum taken over it adds its terms in the
/// same order in every run.
///
/// The similarity tracker of [`crate::TmStats`], and BFGTS's statistics
/// and signature tables, keep their rows here.
#[derive(Debug, Clone)]
pub struct DtxMap<T> {
    rows: Vec<Vec<(STxId, T)>>,
}

impl<T> Default for DtxMap<T> {
    fn default() -> Self {
        Self { rows: Vec::new() }
    }
}

impl<T> DtxMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored for `dtx`, if any.
    pub fn get(&self, dtx: DTxId) -> Option<&T> {
        let row = self.rows.get(dtx.thread.index())?;
        let i = row.binary_search_by_key(&dtx.stx, |e| e.0).ok()?;
        row.get(i).map(|e| &e.1)
    }

    /// The value stored for `dtx`, inserting `init()` first if absent.
    pub fn get_or_insert_with(&mut self, dtx: DTxId, init: impl FnOnce() -> T) -> &mut T {
        let row = self.row_mut(dtx);
        let i = row
            .binary_search_by_key(&dtx.stx, |e| e.0)
            .unwrap_or_else(|i| {
                row.reserve_exact(1);
                row.insert(i, (dtx.stx, init()));
                i
            });
        &mut row[i].1
    }

    /// Number of stored dTxIDs.
    pub fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// True if no dTxID is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(Vec::is_empty)
    }

    /// Every stored `(dTxID, value)`, in (thread, sTxID) order.
    pub fn iter(&self) -> impl Iterator<Item = (DTxId, &T)> {
        self.rows.iter().enumerate().flat_map(|(t, row)| {
            row.iter()
                .map(move |(stx, v)| (DTxId::new(ThreadId(t), *stx), v))
        })
    }

    fn row_mut(&mut self, dtx: DTxId) -> &mut Vec<(STxId, T)> {
        let t = dtx.thread.index();
        if self.rows.len() <= t {
            self.rows.resize_with(t + 1, Vec::new);
        }
        &mut self.rows[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtx(t: usize, s: u32) -> DTxId {
        DTxId::new(ThreadId(t), STxId(s))
    }

    #[test]
    fn dtx_map_matches_a_btreemap_reference() {
        use std::collections::BTreeMap;
        // Random stores, get-or-inserts and gets over a few threads and
        // sTxIDs at both ends of the u32 range.
        let stxs = [0, 1, 2, 7, 1023, u32::MAX - 1, u32::MAX];
        let mut map: DtxMap<u64> = DtxMap::default();
        let mut reference: BTreeMap<DTxId, u64> = BTreeMap::new();
        let mut rng = bfgts_sim::SimRng::seed_from(14);
        for step in 0..4000u64 {
            let key = dtx(
                rng.gen_range(9) as usize,
                stxs[rng.gen_range(stxs.len() as u64) as usize],
            );
            match rng.gen_range(3) {
                0 => {
                    *map.get_or_insert_with(key, || step) = step;
                    reference.insert(key, step);
                }
                1 => {
                    *map.get_or_insert_with(key, || step) += 1;
                    *reference.entry(key).or_insert(step) += 1;
                }
                _ => assert_eq!(map.get(key), reference.get(&key)),
            }
            assert_eq!(map.len(), reference.len());
            assert_eq!(map.is_empty(), reference.is_empty());
        }
        let listed: Vec<(DTxId, u64)> = map.iter().map(|(d, &v)| (d, v)).collect();
        let expected: Vec<(DTxId, u64)> = reference.into_iter().collect();
        assert_eq!(listed, expected, "same entries, in DTxId order");
        assert_eq!(map.get(dtx(50, u32::MAX)), None, "unseen thread");
    }

    #[test]
    fn a_row_grows_one_entry_at_a_time() {
        let mut map: DtxMap<u8> = DtxMap::new();
        for (n, stx) in [5, 1, 9, 3].into_iter().enumerate() {
            map.get_or_insert_with(dtx(2, stx), || 0);
            assert_eq!(map.rows[2].capacity(), n + 1);
        }
        assert_eq!(map.rows[0].capacity(), 0, "an idle thread holds nothing");
    }
}
