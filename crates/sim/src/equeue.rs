//! Pending-event storage for the engine.
//!
//! The engine keeps at most one armed service event per CPU, ordered by
//! `(time, seq)` (the arming sequence number is unique, so the CPU index
//! never participates in ordering — it is payload). Two interchangeable
//! structures implement that order:
//!
//! * [`EventQueueKind::Heap`] — the original global
//!   `BinaryHeap<Reverse<(Cycle, u64, usize)>>`: `O(log n)` per push/pop,
//!   where `n` is the number of armed CPUs.
//! * [`EventQueueKind::Calendar`] — an indexed calendar queue: a ring of
//!   `WINDOW` (8192) cycle-granularity buckets with a two-level occupancy
//!   bitmap, plus a sorted overflow tier for events beyond the window.
//!   Every bucket and overflow entry is a FIFO list threaded through one
//!   node pool by `u32` links, and popped nodes are recycled, so once the
//!   pool has grown to the peak number of pending events neither push nor
//!   pop allocates. The queue keeps its exact minimum time. Push and pop
//!   are `O(1)` amortized, independent of the number of armed CPUs, which
//!   is what lets the engine scale from the paper's 16 CPUs to 1024
//!   (DESIGN.md §11).
//!
//! Both produce the exact same pop sequence (proven by the differential
//! tests below and `tests/tie_break.rs`), so simulation results are
//! byte-identical regardless of the structure chosen. Both also report
//! their exact minimum through [`EventQueue::min_time`], which the engine
//! compares against the next step of the CPU it is servicing: a step
//! strictly earlier than everything stored runs at once, without a push
//! and a pop.

use crate::time::Cycle;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One pending service event: `(time, seq, cpu)`.
pub type Event = (Cycle, u64, usize);

/// Which pending-event structure the engine uses. Not part of a
/// scenario's identity: results are byte-identical either way, so the
/// choice is a pure wall-clock knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventQueueKind {
    /// Indexed calendar queue, `O(1)` amortized per event (the default).
    #[default]
    Calendar,
    /// Global binary heap, `O(log n)` per event. Kept as the
    /// differential-testing oracle and the benchmark baseline.
    Heap,
}

/// Number of cycle-granularity buckets in the calendar ring. Must be a
/// power of two. Events at most `WINDOW - 1` cycles ahead of the cursor
/// land in the ring; later ones wait in the sorted overflow tier. 8192
/// covers every per-step latency of the default cost model (the largest,
/// a context switch plus a long transaction body, is a few thousand
/// cycles), so overflow traffic is rare in practice.
const WINDOW: u64 = 8192;
const MASK: u64 = WINDOW - 1;
/// `u64` words in the first-level occupancy bitmap.
const WORDS: usize = (WINDOW / 64) as usize;
/// `u64` words in the second-level (summary) bitmap: bit `w` of the
/// summary is set iff first-level word `w` is non-zero.
const SUMMARY_WORDS: usize = WORDS.div_ceil(64);

/// The null link: the end of a list, or an empty list's head and tail.
const NIL: u32 = u32::MAX;

/// One pending event in the pool: its `(seq, cpu)` payload and the link
/// to the next node of its list (or, for a free node, the next free one).
#[derive(Debug, Clone, Copy)]
struct Node {
    seq: u64,
    cpu: u32,
    next: u32,
}

/// A FIFO list of pool nodes that all share one event time. Nodes are
/// appended in arming order, which is seq order (the engine's sequence
/// counter is monotonic), and popped from the head, so same-cycle
/// arm-during-drain keeps FIFO order.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// Storage for every list's nodes. A popped node goes on the free list
/// and is reused by the next push, so the pool never holds more nodes
/// than the peak number of events pending at once.
#[derive(Debug)]
struct Pool {
    nodes: Vec<Node>,
    /// Head of the free list, threaded through `Node::next`.
    free: u32,
}

impl Pool {
    /// Appends `(seq, cpu)` to `list` in a recycled node, or a new one
    /// when none is free.
    fn push_back(&mut self, list: &mut List, seq: u64, cpu: u32) {
        let node = Node {
            seq,
            cpu,
            next: NIL,
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than u32::MAX events are pending");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            let slot = self
                .nodes
                .get_mut(idx as usize)
                .expect("the free list links pool nodes");
            self.free = slot.next;
            *slot = node;
            idx
        };
        if list.is_empty() {
            list.head = idx;
        } else {
            self.nodes
                .get_mut(list.tail as usize)
                .expect("a non-empty list's tail is a pool node")
                .next = idx;
        }
        list.tail = idx;
    }

    /// Unlinks the head of the non-empty `list`, puts its node on the
    /// free list and returns its `(seq, cpu)`.
    fn pop_front(&mut self, list: &mut List) -> (u64, u32) {
        let idx = list.head;
        let node = self
            .nodes
            .get_mut(idx as usize)
            .expect("a non-empty list's head is a pool node");
        let out = (node.seq, node.cpu);
        list.head = node.next;
        if list.head == NIL {
            list.tail = NIL;
        }
        node.next = self.free;
        self.free = idx;
        out
    }
}

/// The indexed calendar queue.
///
/// Invariants, maintained by migrating overflow entries eagerly on every
/// cursor advance:
///
/// * every ring entry's time is in `[cursor, cursor + WINDOW)`;
/// * every overflow key is `>= cursor + WINDOW`;
///
/// so the ring always holds the global minimum, bucket index `time &
/// MASK` identifies a unique time within the window, and a bucket's
/// append order is seq order even across the overflow migration (all
/// same-time pushes before the time enters the window queue up in its
/// overflow list, in seq order, and the whole list becomes the ring
/// bucket, which is empty at that moment; all later ones append to it).
#[derive(Debug)]
pub struct CalendarQueue {
    /// Lower bound on every stored event time: the last popped time.
    cursor: u64,
    /// Exact smallest stored event time, `u64::MAX` when empty.
    min: u64,
    /// Total stored events, ring + overflow.
    len: usize,
    pool: Pool,
    buckets: Vec<List>,
    words: [u64; WORDS],
    summary: [u64; SUMMARY_WORDS],
    overflow: BTreeMap<u64, List>,
    /// Smallest overflow key, `u64::MAX` when the overflow is empty.
    overflow_min: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue with its cursor at cycle zero.
    pub fn new() -> Self {
        Self {
            cursor: 0,
            min: u64::MAX,
            len: 0,
            pool: Pool {
                nodes: Vec::new(),
                free: NIL,
            },
            buckets: vec![List::EMPTY; WINDOW as usize],
            words: [0; WORDS],
            summary: [0; SUMMARY_WORDS],
            overflow: BTreeMap::new(),
            overflow_min: u64::MAX,
        }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest stored event time, exact; `None` when empty.
    pub fn min_time(&self) -> Option<Cycle> {
        (self.len > 0).then(|| Cycle::new(self.min))
    }

    /// Inserts an event. `time` must not precede the cursor (the engine
    /// only arms at or after `now`), and successive pushes must carry
    /// increasing `seq` values (the engine's arming counter is
    /// monotonic) — same-time entries are kept in arrival order, which
    /// equals seq order exactly under that contract.
    pub fn push(&mut self, time: Cycle, seq: u64, cpu: usize) {
        let t = time.as_u64();
        let ahead = t
            .checked_sub(self.cursor)
            .expect("event time precedes the cursor");
        let cpu = u32::try_from(cpu).expect("cpu index fits in u32");
        self.len += 1;
        self.min = self.min.min(t);
        if ahead >= WINDOW {
            self.overflow_min = self.overflow_min.min(t);
            let list = self.overflow.entry(t).or_insert(List::EMPTY);
            self.pool.push_back(list, seq, cpu);
        } else {
            let idx = (t & MASK) as usize;
            let list = self
                .buckets
                .get_mut(idx)
                .expect("masked time is a ring index");
            self.pool.push_back(list, seq, cpu);
            self.set_bit(idx);
        }
    }

    /// Removes and returns the earliest event (smallest `(time, seq)`).
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        let t = self.min;
        if t != self.cursor {
            // Also brings `t` itself in when the ring was exhausted and
            // the minimum waited in the overflow tier.
            self.cursor = t;
            self.migrate();
        }
        let idx = (t & MASK) as usize;
        let list = self
            .buckets
            .get_mut(idx)
            .expect("masked time is a ring index");
        let (seq, cpu) = self.pool.pop_front(list);
        if list.is_empty() {
            self.clear_bit(idx);
        }
        self.len -= 1;
        self.min = match self.find_next(idx) {
            Some(next) => {
                let dist = (next as u64).wrapping_sub(t) & MASK;
                t.checked_add(dist)
                    .expect("ring distance keeps event times in u64 range")
            }
            None => self.overflow_min,
        };
        Some((Cycle::new(t), seq, cpu as usize))
    }

    fn set_bit(&mut self, idx: usize) {
        *self
            .words
            .get_mut(idx >> 6)
            .expect("ring index maps into the bitmap") |= 1 << (idx & 63);
        *self
            .summary
            .get_mut(idx >> 12)
            .expect("ring index maps into the summary") |= 1 << ((idx >> 6) & 63);
    }

    fn clear_bit(&mut self, idx: usize) {
        let word = self
            .words
            .get_mut(idx >> 6)
            .expect("ring index maps into the bitmap");
        *word &= !(1 << (idx & 63));
        if *word == 0 {
            *self
                .summary
                .get_mut(idx >> 12)
                .expect("ring index maps into the summary") &= !(1 << ((idx >> 6) & 63));
        }
    }

    /// Moves every overflow list that the advanced cursor brought into
    /// the window onto the ring. Called on every cursor advance, which
    /// is what keeps the two invariants above true.
    fn migrate(&mut self) {
        while self
            .overflow_min
            .checked_sub(self.cursor)
            .expect("overflow keys never precede the cursor")
            < WINDOW
        {
            let (t, list) = self
                .overflow
                .pop_first()
                .expect("overflow_min tracks a live key");
            debug_assert_eq!(t, self.overflow_min);
            let idx = (t & MASK) as usize;
            let bucket = self
                .buckets
                .get_mut(idx)
                .expect("masked time is a ring index");
            // The bucket's only time in the new window is `t`, and every
            // push at `t` so far went to the overflow list.
            debug_assert!(bucket.is_empty(), "bucket of a time entering the window");
            *bucket = list;
            self.set_bit(idx);
            self.overflow_min = self
                .overflow
                .first_key_value()
                .map_or(u64::MAX, |(&k, _)| k);
        }
    }

    /// Index of the first occupied bucket at circular distance `>= 0`
    /// from `start`, `None` when the ring is empty. Two bitmap levels
    /// make this a handful of word operations regardless of where the
    /// next event sits.
    fn find_next(&self, start: usize) -> Option<usize> {
        let w0 = start >> 6;
        let masked =
            self.words.get(w0).copied().expect("start is a ring index") & (!0u64 << (start & 63));
        if masked != 0 {
            return Some((w0 << 6) | masked.trailing_zeros() as usize);
        }
        let w = self.next_word(w0 + 1).or_else(|| self.next_word(0))?;
        let word = self
            .words
            .get(w)
            .copied()
            .expect("next_word returns a bitmap index");
        Some((w << 6) | word.trailing_zeros() as usize)
    }

    /// First non-zero first-level word at index `>= from`, via the
    /// summary bitmap (no wrap-around).
    fn next_word(&self, from: usize) -> Option<usize> {
        if from >= WORDS {
            return None;
        }
        let s0 = from >> 6;
        let masked = self
            .summary
            .get(s0)
            .copied()
            .expect("summary index derives from a ring index")
            & (!0u64 << (from & 63));
        if masked != 0 {
            return Some((s0 << 6) | masked.trailing_zeros() as usize);
        }
        self.summary
            .iter()
            .enumerate()
            .skip(s0 + 1)
            .find(|&(_, &word)| word != 0)
            .map(|(s, &word)| (s << 6) | word.trailing_zeros() as usize)
    }
}

/// The engine's pending-event set, behind the [`EventQueueKind`] switch.
#[derive(Debug)]
pub enum EventQueue {
    /// The original binary heap.
    Heap(BinaryHeap<Reverse<Event>>),
    /// The indexed calendar queue.
    Calendar(Box<CalendarQueue>),
}

impl EventQueue {
    /// An empty queue of the given kind.
    pub fn new(kind: EventQueueKind) -> Self {
        match kind {
            EventQueueKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            EventQueueKind::Calendar => EventQueue::Calendar(Box::default()),
        }
    }

    /// Inserts an event.
    pub fn push(&mut self, time: Cycle, seq: u64, cpu: usize) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse((time, seq, cpu))),
            EventQueue::Calendar(c) => c.push(time, seq, cpu),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Calendar(c) => c.pop(),
        }
    }

    /// The smallest stored time, exact; `None` when empty.
    pub fn min_time(&self) -> Option<Cycle> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|&Reverse((time, ..))| time),
            EventQueue::Calendar(c) => c.min_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn drain(q: &mut EventQueue) -> Vec<Event> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn empty_queues_pop_none() {
        for kind in [EventQueueKind::Heap, EventQueueKind::Calendar] {
            let mut q = EventQueue::new(kind);
            assert_eq!(q.min_time(), None);
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn orders_by_time_then_seq() {
        // Seqs grow with push order (the engine's arming counter is
        // monotonic — the contract both structures order under).
        for kind in [EventQueueKind::Heap, EventQueueKind::Calendar] {
            let mut q = EventQueue::new(kind);
            q.push(Cycle::new(10), 1, 2);
            q.push(Cycle::new(5), 2, 3);
            q.push(Cycle::new(10), 3, 0);
            q.push(Cycle::new(5), 4, 1);
            let order = drain(&mut q);
            assert_eq!(
                order,
                vec![
                    (Cycle::new(5), 2, 3),
                    (Cycle::new(5), 4, 1),
                    (Cycle::new(10), 1, 2),
                    (Cycle::new(10), 3, 0),
                ],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(0), 1, 0);
        q.push(Cycle::new(WINDOW * 5 + 7), 2, 1);
        q.push(Cycle::new(3), 3, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle::new(0), 1, 0)));
        assert_eq!(q.pop(), Some((Cycle::new(3), 3, 2)));
        assert_eq!(q.min_time(), Some(Cycle::new(WINDOW * 5 + 7)));
        assert_eq!(q.pop(), Some((Cycle::new(WINDOW * 5 + 7), 2, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_migration_preserves_seq_order_at_one_time() {
        // Two events at the same far-future time queue in overflow; a
        // third arrives at that time only once it is inside the window.
        // All three must drain in seq order.
        let t = WINDOW + 100;
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(t), 1, 0);
        q.push(Cycle::new(t), 2, 1);
        q.push(Cycle::new(200), 3, 2);
        assert_eq!(q.pop(), Some((Cycle::new(200), 3, 2)));
        // Cursor is now 200: time t entered the window and migrated.
        q.push(Cycle::new(t), 4, 3);
        assert_eq!(q.pop(), Some((Cycle::new(t), 1, 0)));
        assert_eq!(q.pop(), Some((Cycle::new(t), 2, 1)));
        assert_eq!(q.pop(), Some((Cycle::new(t), 4, 3)));
    }

    #[test]
    fn same_cycle_push_during_drain_keeps_fifo() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(7), 1, 0);
        q.push(Cycle::new(7), 2, 1);
        assert_eq!(q.pop(), Some((Cycle::new(7), 1, 0)));
        // Re-arm at the popped time mid-drain, as the engine does for
        // quantum preemption and same-cycle wakes.
        q.push(Cycle::new(7), 3, 2);
        assert_eq!(q.pop(), Some((Cycle::new(7), 2, 1)));
        assert_eq!(q.pop(), Some((Cycle::new(7), 3, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_matches_heap_on_random_interleaved_traffic() {
        // Differential test: random pushes and pops with engine-like
        // monotonic times and seqs, including far-future overflow jumps
        // and re-arms that supersede a pending event (a wake pulling an
        // idle timer earlier: the stale event stays stored, as in the
        // engine). Both kinds must produce identical sequences and agree
        // on the minimum after every operation.
        let mut rng = SimRng::seed_from(0xCAFE);
        let mut heap = EventQueue::new(EventQueueKind::Heap);
        let mut cal = EventQueue::new(EventQueueKind::Calendar);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut live = 0usize;
        let mut superseded = 0u32;
        let gap = |rng: &mut SimRng| match rng.next_u64() % 10 {
            0 => 0,
            g @ 1..=7 => g * 37,
            8 => WINDOW / 2,
            _ => WINDOW * 3 + rng.next_u64() % 1000,
        };
        for _ in 0..50_000 {
            let op = if live == 0 { 0 } else { rng.next_u64() % 5 };
            seq += 1;
            let cpu = (rng.next_u64() % 1024) as usize;
            match op {
                0..=2 => {
                    let t = Cycle::new(now + gap(&mut rng));
                    heap.push(t, seq, cpu);
                    cal.push(t, seq, cpu);
                    live += 1;
                }
                3 => {
                    // Supersede: a timer far out, then an earlier re-arm
                    // of the same CPU before anything pops.
                    let late = Cycle::new(now + WINDOW + rng.next_u64() % 500);
                    let early = Cycle::new(now + rng.next_u64() % 100);
                    heap.push(late, seq, cpu);
                    cal.push(late, seq, cpu);
                    seq += 1;
                    heap.push(early, seq, cpu);
                    cal.push(early, seq, cpu);
                    live += 2;
                    superseded += 1;
                }
                _ => {
                    let a = heap.pop();
                    let b = cal.pop();
                    assert_eq!(a, b);
                    now = a.expect("live > 0").0.as_u64();
                    live -= 1;
                }
            }
            assert_eq!(heap.min_time(), cal.min_time());
        }
        assert!(superseded > 1000);
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b);
            assert_eq!(heap.min_time(), cal.min_time());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pool_never_outgrows_the_peak_pending_count() {
        // Random bursts of pushes and drains: the pool must reuse freed
        // nodes, so its size tracks the most events ever pending at
        // once, not the number ever pushed.
        let mut rng = SimRng::seed_from(0x9001);
        let mut q = CalendarQueue::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut peak = 0usize;
        let mut pushed = 0usize;
        for _ in 0..2_000 {
            for _ in 0..rng.next_u64() % 40 {
                seq += 1;
                let gap = match rng.next_u64() % 8 {
                    0 => WINDOW * 2 + rng.next_u64() % 300,
                    g => g * 53,
                };
                q.push(Cycle::new(now + gap), seq, 0);
                pushed += 1;
            }
            peak = peak.max(q.len());
            assert!(q.pool.nodes.len() <= peak, "pool outgrew the peak");
            for _ in 0..rng.next_u64() % 40 {
                match q.pop() {
                    Some((t, ..)) => now = t.as_u64(),
                    None => break,
                }
            }
        }
        assert_eq!(q.pool.nodes.len(), peak);
        assert!(pushed > 10 * peak, "the test must recycle nodes");
    }
}
