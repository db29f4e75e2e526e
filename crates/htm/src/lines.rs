//! The line table: which attempts hold each cache line, for eager
//! conflict detection.
//!
//! A fixed-capacity hardware directory is the model (DESIGN.md §11), so
//! the table is a flat open-addressing array rather than an ordered
//! map: a fixed multiplicative hash picks each line's home slot, linear
//! probing resolves collisions, and deletion shifts later members of a
//! probe run back instead of leaving tombstones. The table is probed,
//! inserted into and released from, but never iterated, so its layout
//! cannot leak into any simulated result.

use bfgts_sim::ThreadId;

/// Fibonacci hashing multiplier: ⌊2⁶⁴ / φ⌋, rounded to odd. The top
/// bits of `addr × HASH_MUL` spread consecutive line numbers evenly.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots a fresh table starts with (a power of two). The table doubles
/// whenever an insert would fill more than half of it.
const INITIAL_SLOTS: usize = 64;

/// Who holds one line.
#[derive(Debug, Default)]
pub(crate) struct Line {
    /// The attempt holding the line for writing, if any.
    pub(crate) writer: Option<ThreadId>,
    /// The attempts holding the line for reading, in arrival order.
    pub(crate) readers: Vec<ThreadId>,
}

impl Line {
    fn is_free(&self) -> bool {
        self.writer.is_none() && self.readers.is_empty()
    }

    /// True if `thread`'s attempt already holds the line, for reading or
    /// for writing.
    pub(crate) fn held_by(&self, thread: ThreadId) -> bool {
        self.writer == Some(thread) || self.readers.contains(&thread)
    }
}

/// One table slot. It is occupied exactly while its line is held: the
/// last release frees it, and a free slot ends every probe run.
#[derive(Debug, Default)]
struct Slot {
    /// The line number; meaningful only while the slot is occupied.
    addr: u64,
    line: Line,
}

/// Open-addressing map from line number to [`Line`], with a load
/// factor of at most ½.
///
/// Each slot's `readers` vector stays with the table when its line is
/// released (deletion swaps slots rather than dropping them), so once
/// the table has seen a run's working set, granting and releasing lines
/// allocates nothing.
#[derive(Debug)]
pub(crate) struct LineTable {
    /// A power-of-two number of slots.
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl LineTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::with_slots(INITIAL_SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 2);
        Self {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Number of held lines.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot a probe for `addr` starts at.
    fn home(&self, addr: u64) -> usize {
        (addr.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Finds `addr`: `Ok(slot)` holding it, or `Err(slot)` for the free
    /// slot that ends its probe run, where an insert would claim it.
    /// Terminates because at least half of the slots are free.
    fn probe(&self, addr: u64) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(addr);
        loop {
            let slot = self
                .slots
                .get(i)
                .expect("probe index is masked into the table");
            if slot.line.is_free() {
                return Err(i);
            }
            if slot.addr == addr {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Who holds `addr`, or `None` if no attempt does.
    pub(crate) fn get(&self, addr: u64) -> Option<&Line> {
        let i = self.probe(addr).ok()?;
        self.slots.get(i).map(|slot| &slot.line)
    }

    /// Grants `thread` write ownership of `addr` (`write`) or appends it
    /// to the line's readers, claiming a slot on the line's first grant.
    pub(crate) fn insert(&mut self, addr: u64, thread: ThreadId, write: bool) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = match self.probe(addr) {
            Ok(i) => i,
            Err(free) => {
                self.len += 1;
                free
            }
        };
        let slot = self
            .slots
            .get_mut(i)
            .expect("probe returns an index inside the table");
        slot.addr = addr;
        if write {
            slot.line.writer = Some(thread);
        } else {
            slot.line.readers.push(thread);
        }
    }

    /// Drops every hold `thread` has on `addr`. The other readers keep
    /// their order, and a line nobody holds any more leaves the table.
    pub(crate) fn release(&mut self, addr: u64, thread: ThreadId) {
        let Ok(i) = self.probe(addr) else {
            return;
        };
        let line = &mut self
            .slots
            .get_mut(i)
            .expect("probe returns an index inside the table")
            .line;
        if line.writer == Some(thread) {
            line.writer = None;
        }
        line.readers.retain(|&r| r != thread);
        if line.is_free() {
            self.len -= 1;
            self.close_hole(i);
        }
    }

    /// Backward-shift deletion: walks the probe run after the freed slot
    /// `hole` and moves back each entry whose home does not lie
    /// cyclically in `(hole, i]`, so every held line stays reachable from
    /// its home without tombstones. Swapping, not overwriting, keeps the
    /// freed slot's `readers` allocation in the table.
    fn close_hole(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let slot = self
                .slots
                .get(i)
                .expect("walk index is masked into the table");
            if slot.line.is_free() {
                return;
            }
            let home = self.home(slot.addr);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots.swap(hole, i);
                hole = i;
            }
        }
    }

    /// Doubles the slot count and re-homes every held line. Runs only
    /// while the table is still learning a run's working set.
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(self, Self::with_slots(doubled));
        for slot in old.slots {
            if slot.line.is_free() {
                continue;
            }
            if let Err(free) = self.probe(slot.addr) {
                *self
                    .slots
                    .get_mut(free)
                    .expect("probe returns an index inside the table") = slot;
                self.len += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` line numbers whose home slot is `home` in a
    /// `slots`-slot table.
    fn homed_at(slots: usize, home: usize, n: usize) -> Vec<u64> {
        let table = LineTable::with_slots(slots);
        (0..u64::MAX)
            .filter(|&a| table.home(a) == home)
            .take(n)
            .collect()
    }

    fn slot_of(table: &LineTable, addr: u64) -> usize {
        table.probe(addr).expect("line is held")
    }

    #[test]
    fn readers_keep_arrival_order_and_release_drops_one_thread() {
        let mut table = LineTable::new();
        for t in [3, 1, 2] {
            table.insert(7, ThreadId(t), false);
        }
        table.insert(7, ThreadId(1), true);
        table.release(7, ThreadId(1));
        let line = table.get(7).expect("two readers remain");
        assert_eq!(line.readers, vec![ThreadId(3), ThreadId(2)]);
        assert_eq!(line.writer, None);
        assert!(line.held_by(ThreadId(2)) && !line.held_by(ThreadId(1)));
        table.release(7, ThreadId(3));
        table.release(7, ThreadId(2));
        assert!(table.get(7).is_none());
        assert_eq!(table.len(), 0);
        // Releasing a line nobody holds is a no-op.
        table.release(7, ThreadId(2));
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn backward_shift_deletion_closes_a_hole_across_the_wrap_point() {
        // Three lines share the last home slot, so the run wraps into
        // slots 0 and 1; a fourth line homed at slot 0 lands behind them.
        let slots = 64;
        let last = slots - 1;
        let wrapped = homed_at(slots, last, 3);
        let at_zero = homed_at(slots, 0, 1);
        let mut table = LineTable::with_slots(slots);
        for &a in wrapped.iter().chain(&at_zero) {
            table.insert(a, ThreadId(0), true);
        }
        assert_eq!(
            wrapped
                .iter()
                .map(|&a| slot_of(&table, a))
                .collect::<Vec<_>>(),
            vec![last, 0, 1]
        );
        assert_eq!(slot_of(&table, at_zero[0]), 2);

        // Freeing the run's first slot pulls each later member back by
        // one, across the wrap point.
        table.release(wrapped[0], ThreadId(0));
        assert_eq!(slot_of(&table, wrapped[1]), last);
        assert_eq!(slot_of(&table, wrapped[2]), 0);
        assert_eq!(slot_of(&table, at_zero[0]), 1);
        assert!(table.get(wrapped[0]).is_none());
        assert_eq!(table.len(), 3);

        // Freeing slot 0 moves the slot-0 line back to its home.
        table.release(wrapped[2], ThreadId(0));
        assert_eq!(slot_of(&table, at_zero[0]), 0);
        assert_eq!(slot_of(&table, wrapped[1]), last);
        for &a in [wrapped[1], at_zero[0]].iter() {
            table.release(a, ThreadId(0));
        }
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn backward_shift_deletion_never_moves_a_line_before_its_home() {
        let slots = 64;
        let (five, six) = (homed_at(slots, 5, 1)[0], homed_at(slots, 6, 1)[0]);
        let mut table = LineTable::with_slots(slots);
        table.insert(five, ThreadId(0), false);
        table.insert(six, ThreadId(1), false);
        table.release(five, ThreadId(0));
        assert_eq!(slot_of(&table, six), 6);
    }

    #[test]
    fn growth_keeps_every_line_and_the_load_factor_at_most_half() {
        let mut table = LineTable::new();
        for a in 0..1000u64 {
            table.insert(a * 3, ThreadId((a % 5) as usize), a % 2 == 0);
            assert!(table.len() * 2 <= table.slots.len());
        }
        for a in 0..1000u64 {
            assert!(table.get(a * 3).is_some(), "line {} lost", a * 3);
            assert!(table.get(a * 3 + 1).is_none());
        }
        for a in 0..1000u64 {
            table.release(a * 3, ThreadId((a % 5) as usize));
        }
        assert_eq!(table.len(), 0);
    }
}
