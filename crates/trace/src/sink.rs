//! The event collector.

use crate::event::TraceEvent;
use std::collections::VecDeque;

/// How much a run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing (the default; emission is a single branch).
    #[default]
    Off,
    /// Record every event. Required by the audit, which treats dropped
    /// events as a violation.
    Full,
    /// Keep only the most recent `n` events (flight-recorder style, for
    /// inspecting the tail of very long runs). `n` must be at least 1;
    /// a run that should record nothing asks for [`TraceMode::Off`].
    Ring(usize),
}

/// One recorded event: a global sequence number, the simulated-cycle
/// timestamp and the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRec {
    /// Emission order, dense from 0 (survives ring-buffer eviction, so
    /// gaps at the front reveal how much was dropped).
    pub seq: u64,
    /// Simulated time in cycles. For [`TraceEvent::Charge`] this is the
    /// interval start; for everything else, the instant of the event.
    pub at: u64,
    /// The event payload.
    pub ev: TraceEvent,
}

/// The finished product of a traced run, detached from the sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecording {
    /// Recorded events in emission order.
    pub events: Vec<TraceRec>,
    /// Events evicted by a [`TraceMode::Ring`] sink (0 under
    /// [`TraceMode::Full`]).
    pub dropped: u64,
}

impl TraceRecording {
    /// True if nothing was recorded (also true for an untraced run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }
}

#[derive(Debug)]
struct Inner {
    events: VecDeque<TraceRec>,
    cap: Option<usize>,
    seq: u64,
    dropped: u64,
}

/// The event collector threaded through the simulation.
///
/// Disabled (the common case) it is a `None`: [`TraceSink::emit`] takes
/// the event as a closure, so a disabled sink never even constructs the
/// payload — hot paths pay one branch. There is no global registry and no
/// interior mutability; the engine owns the sink and lends it out through
/// `ThreadCtx`, which keeps recording single-writer and deterministic.
#[derive(Debug, Default)]
pub struct TraceSink(Option<Box<Inner>>);

impl TraceSink {
    /// A sink that records nothing. Allocation-free.
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// A sink recording in the given mode.
    ///
    /// # Panics
    ///
    /// Panics on `TraceMode::Ring(0)`: a zero-capacity ring used to be
    /// silently clamped to 1, which recorded events the caller asked to
    /// drop. "Record nothing" is spelled [`TraceMode::Off`].
    pub fn new(mode: TraceMode) -> Self {
        match mode {
            TraceMode::Off => TraceSink(None),
            TraceMode::Full => TraceSink(Some(Box::new(Inner {
                events: VecDeque::new(),
                cap: None,
                seq: 0,
                dropped: 0,
            }))),
            TraceMode::Ring(n) => {
                assert!(n > 0, "TraceMode::Ring capacity must be >= 1 (use Off)");
                TraceSink(Some(Box::new(Inner {
                    events: VecDeque::with_capacity(n.min(1 << 20)),
                    cap: Some(n),
                    seq: 0,
                    dropped: 0,
                })))
            }
        }
    }

    /// True if events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records an event at simulated time `at`. The closure only runs if
    /// the sink is enabled.
    #[inline]
    pub fn emit(&mut self, at: u64, ev: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = self.0.as_deref_mut() {
            let rec = TraceRec {
                seq: inner.seq,
                at,
                ev: ev(),
            };
            inner.seq += 1;
            inner.events.push_back(rec);
            if let Some(cap) = inner.cap {
                while inner.events.len() > cap {
                    inner.events.pop_front();
                    inner.dropped += 1;
                }
            }
        }
    }

    /// Detaches everything recorded so far, leaving the sink enabled but
    /// empty (sequence numbers keep counting). The buffer is handed over,
    /// not copied: a full recording never wraps, so the conversion to a
    /// `Vec` moves no event.
    pub fn take(&mut self) -> TraceRecording {
        match self.0.as_deref_mut() {
            None => TraceRecording::default(),
            Some(inner) => {
                let events = Vec::from(std::mem::take(&mut inner.events));
                let dropped = std::mem::replace(&mut inner.dropped, 0);
                TraceRecording { events, dropped }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Bucket;

    fn charge(cycles: u64) -> TraceEvent {
        TraceEvent::Charge {
            cpu: 0,
            thread: 0,
            bucket: Bucket::NonTx,
            cycles,
        }
    }

    #[test]
    fn disabled_sink_never_runs_the_constructor() {
        let mut sink = TraceSink::disabled();
        let mut ran = false;
        sink.emit(0, || {
            ran = true;
            charge(1)
        });
        assert!(!ran);
        assert!(!sink.is_enabled());
        assert!(sink.take().is_empty());
    }

    #[test]
    fn full_sink_records_in_order_with_dense_seq() {
        let mut sink = TraceSink::new(TraceMode::Full);
        for i in 0..5 {
            sink.emit(i * 10, || charge(i + 1));
        }
        let rec = sink.take();
        assert_eq!(rec.dropped, 0);
        let seqs: Vec<u64> = rec.events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(rec.events[3].at, 30);
    }

    #[test]
    fn ring_sink_keeps_the_tail_and_counts_drops() {
        let mut sink = TraceSink::new(TraceMode::Ring(3));
        for i in 0..10u64 {
            sink.emit(i, || charge(i + 1));
        }
        let rec = sink.take();
        assert_eq!(rec.dropped, 7);
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0].seq, 7);
        assert_eq!(rec.events[2].seq, 9);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_ring_rejected() {
        // Regression: Ring(0) used to be clamped to Ring(1) via
        // `n.max(1)` and silently recorded one event.
        TraceSink::new(TraceMode::Ring(0));
    }

    #[test]
    fn take_resets_but_seq_continues() {
        let mut sink = TraceSink::new(TraceMode::Full);
        sink.emit(0, || charge(1));
        let first = sink.take();
        sink.emit(1, || charge(2));
        let second = sink.take();
        assert_eq!(first.events[0].seq, 0);
        assert_eq!(second.events[0].seq, 1);
    }
}
