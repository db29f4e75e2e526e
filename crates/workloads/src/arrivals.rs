//! Open-system arrival processes: timestamped transaction streams.
//!
//! A closed (batch) run hands every thread its whole workload before
//! cycle 0; the only figure of merit is the makespan. An *open* run
//! streams transactions into each thread's queue according to a seeded
//! arrival process, which makes latency — sojourn time from arrival to
//! commit — and sustained throughput first-class measurements.
//!
//! Everything here is integer-parameterised and integer-evaluated:
//! exponential inter-arrival gaps come from a fixed-point `-ln(u)`
//! lookup table, so an arrival schedule is a bit-exact pure function of
//! `(spec, seed, thread)` — independent of scheduling decisions, event
//! queue flavour and host platform. That is what lets the audit treat
//! arrival timestamps as ground truth (invariant I9) and lets two runs
//! of the same scenario replay byte-identically.

use bfgts_htm::{TxInstance, TxPoll, TxSource};
use bfgts_sim::SimRng;
use std::collections::{BTreeMap, VecDeque};

/// Stream tag separating the arrival-clock RNG from every other derived
/// stream (thread RNGs derive `id + 1` from the same master seed).
const ARRIVAL_STREAM: u64 = 0xA441_5EED;

/// `-ln((i + 1) / 257)` in 16.16 fixed point, for `i = 0..=256`. Linear
/// interpolation between adjacent entries approximates `-ln(u)` over
/// `u ∈ (1/257, 1]`; the tail beyond `-ln(1/257) ≈ 5.55` mean gaps is
/// truncated, which shortens the true exponential mean by about 2.5%.
#[rustfmt::skip]
const NEG_LN_FP16: [u32; 257] = [
    363664, 318238, 291666, 272812, 258188, 246240, 236137, 227386,
    219667, 212762, 206516, 200813, 195568, 190711, 186189, 181960,
    177987, 174241, 170697, 167336, 164138, 161090, 158177, 155387,
    152712, 150142, 147668, 145285, 142985, 140763, 138614, 136534,
    134517, 132561, 130661, 128815, 127019, 125271, 123569, 121910,
    120292, 118712, 117170, 115664, 114191, 112750, 111341, 109961,
    108610, 107286, 105988, 104716, 103467, 102242, 101040, 99859,
    98699, 97559, 96439, 95337, 94254, 93188, 92140, 91108,
    90092, 89091, 88106, 87135, 86178, 85235, 84305, 83389,
    82485, 81593, 80713, 79845, 78989, 78143, 77308, 76484,
    75670, 74865, 74071, 73286, 72511, 71744, 70986, 70238,
    69497, 68765, 68041, 67324, 66616, 65915, 65221, 64535,
    63856, 63184, 62518, 61860, 61208, 60562, 59923, 59289,
    58662, 58041, 57426, 56816, 56212, 55614, 55020, 54433,
    53850, 53273, 52700, 52133, 51570, 51013, 50460, 49911,
    49367, 48828, 48293, 47762, 47236, 46714, 46196, 45682,
    45172, 44666, 44163, 43665, 43170, 42679, 42192, 41708,
    41228, 40752, 40279, 39809, 39342, 38879, 38419, 37963,
    37509, 37059, 36611, 36167, 35726, 35287, 34852, 34419,
    33989, 33563, 33138, 32717, 32298, 31882, 31469, 31058,
    30649, 30244, 29840, 29439, 29041, 28645, 28251, 27860,
    27471, 27085, 26700, 26318, 25938, 25560, 25185, 24811,
    24440, 24071, 23704, 23339, 22976, 22614, 22255, 21898,
    21543, 21190, 20838, 20489, 20141, 19795, 19451, 19109,
    18769, 18430, 18093, 17758, 17424, 17092, 16762, 16434,
    16107, 15782, 15458, 15136, 14815, 14497, 14179, 13863,
    13549, 13236, 12925, 12615, 12307, 12000, 11694, 11390,
    11087, 10786, 10486, 10187, 9890, 9594, 9300, 9007,
    8715, 8424, 8135, 7847, 7560, 7274, 6990, 6707,
    6425, 6144, 5865, 5587, 5309, 5034, 4759, 4485,
    4213, 3941, 3671, 3402, 3134, 2867, 2601, 2336,
    2072, 1810, 1548, 1288, 1028, 770, 512, 256,
    0,
];

/// An exponential gap with the given mean, in whole cycles (at least 1).
/// Draws one `u64`; top 8 bits pick the table cell, the next 16 bits
/// interpolate within it.
fn exp_gap(mean_gap: u64, rng: &mut SimRng) -> u64 {
    let r = rng.next_u64();
    let i = (r >> 56) as usize;
    let frac = (r >> 40) & 0xFFFF;
    let (a, b) = (NEG_LN_FP16[i] as u64, NEG_LN_FP16[i + 1] as u64);
    // The table is decreasing, so interpolation moves down from `a`.
    let e = a - (((a - b) * frac) >> 16);
    let gap = ((mean_gap as u128 * e as u128) >> 16) as u64;
    gap.max(1)
}

/// One seeded arrival process. All parameters are integers (cycles or
/// counts) so the process serialises exactly and replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: independent exponential inter-arrival gaps with
    /// the given mean, in cycles.
    Poisson {
        /// Mean inter-arrival gap in cycles (≥ 1).
        mean_gap: u64,
    },
    /// On/off bursts: `burst` arrivals spaced `gap_in` cycles apart,
    /// then one `gap_out` pause before the next burst.
    Bursty {
        /// Arrivals per burst (≥ 1).
        burst: u32,
        /// Gap between arrivals inside a burst (0 allowed: the whole
        /// burst lands on one cycle and queues).
        gap_in: u64,
        /// Gap between the last arrival of a burst and the first of the
        /// next (≥ 1).
        gap_out: u64,
    },
    /// A diurnal rate curve: the mean gap follows a triangle wave from
    /// `trough_gap` (quiet, at phase 0) to `peak_gap` (busy, at half
    /// period) and back, with exponential jitter around the local mean.
    Diurnal {
        /// Length of one quiet-busy-quiet cycle, in cycles (≥ 1).
        period: u64,
        /// Mean gap at the busiest point (≥ 1).
        peak_gap: u64,
        /// Mean gap at the quietest point (≥ `peak_gap`).
        trough_gap: u64,
    },
}

impl ArrivalProcess {
    /// Checks the parameters: a mean gap, period, burst size and
    /// `gap_out` of at least 1, and a diurnal range that is not
    /// inverted (`trough_gap >= peak_gap`).
    pub fn validate(&self) -> Result<(), String> {
        let rule = match *self {
            ArrivalProcess::Poisson { mean_gap: 0 } => "poisson mean_gap must be >= 1",
            ArrivalProcess::Bursty { burst: 0, .. } => "bursty burst size must be >= 1",
            ArrivalProcess::Bursty { gap_out: 0, .. } => "bursty gap_out must be >= 1",
            ArrivalProcess::Diurnal { period: 0, .. } => "diurnal period must be >= 1",
            ArrivalProcess::Diurnal { peak_gap: 0, .. } => "diurnal peak_gap must be >= 1",
            ArrivalProcess::Diurnal {
                peak_gap,
                trough_gap,
                ..
            } if trough_gap < peak_gap => {
                "diurnal trough_gap must be >= peak_gap (peak = busiest = smallest gap)"
            }
            _ => return Ok(()),
        };
        Err(rule.to_string())
    }

    /// The mean gap this process aims at around simulated time `at`
    /// (exact for Poisson, local for Diurnal, cycle-averaged for
    /// Bursty).
    pub fn mean_gap_at(&self, at: u64) -> u64 {
        match *self {
            ArrivalProcess::Poisson { mean_gap } => mean_gap,
            ArrivalProcess::Bursty {
                burst,
                gap_in,
                gap_out,
            } => {
                let burst = u64::from(burst.max(1));
                (gap_in * (burst - 1) + gap_out) / burst
            }
            ArrivalProcess::Diurnal {
                period,
                peak_gap,
                trough_gap,
            } => {
                let phase = at % period.max(1);
                let half = (period / 2).max(1);
                // Triangle: 0 at phase 0 and period, 1 at half period.
                let toward_peak = if phase <= half { phase } else { period - phase };
                let span = trough_gap - peak_gap;
                trough_gap - ((span as u128 * toward_peak as u128) / half as u128) as u64
            }
        }
    }
}

/// The arrival half of an open-system run: a default process plus
/// per-sTx-class overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSpec {
    /// The process every class uses unless overridden.
    pub process: ArrivalProcess,
    /// Per-class overrides as `(stx, process)`, strictly increasing by
    /// `stx` (canonical order; [`ArrivalSpec::validate`] enforces it).
    pub per_stx: Vec<(u32, ArrivalProcess)>,
}

impl ArrivalSpec {
    /// A Poisson spec with the given mean gap and no overrides.
    pub fn poisson(mean_gap: u64) -> Self {
        Self {
            process: ArrivalProcess::Poisson { mean_gap },
            per_stx: Vec::new(),
        }
    }

    /// Adds (or replaces) a per-class override, keeping canonical order.
    pub fn with_override(mut self, stx: u32, process: ArrivalProcess) -> Self {
        self.per_stx.retain(|&(s, _)| s != stx);
        self.per_stx.push((stx, process));
        self.per_stx.sort_by_key(|&(s, _)| s);
        self
    }

    /// The process governing static transaction `stx`.
    pub fn process_for(&self, stx: u32) -> ArrivalProcess {
        self.per_stx
            .iter()
            .find(|&&(s, _)| s == stx)
            .map(|&(_, p)| p)
            .unwrap_or(self.process)
    }

    /// Checks every process ([`ArrivalProcess::validate`]) and the
    /// canonical override order: strictly increasing by `stx`.
    pub fn validate(&self) -> Result<(), String> {
        self.process.validate()?;
        if self.per_stx.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("arrival overrides must be strictly increasing by stx".into());
        }
        self.per_stx
            .iter()
            .try_for_each(|(_, process)| process.validate())
    }

    /// Panics with [`ArrivalSpec::validate`]'s message if the spec breaks
    /// a rule. Non-generic, so the panic formatting is compiled once
    /// here rather than into every crate's copy of [`OpenSource::new`].
    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            // detlint: allow(P002) -- documented panic contract: an invalid arrival spec is a configuration bug, caught before any arrival is drawn
            panic!("{e}");
        }
    }
}

/// Wraps any batch [`TxSource`] into an open-system stream: each
/// transaction the inner source yields is stamped with an arrival time
/// drawn from the spec'd process of its class.
///
/// The wrapper owns a dedicated arrival RNG derived from
/// `(seed, thread)`, and the inner source's instances are drawn from
/// that same stream — so the full arrival schedule (times *and*
/// contents) is fixed before the simulation starts and cannot be
/// perturbed by scheduling. The engine-supplied RNG handed to
/// [`TxSource::poll_tx`] is deliberately unused.
#[derive(Debug, Clone)]
pub struct OpenSource<S> {
    inner: S,
    spec: ArrivalSpec,
    rng: SimRng,
    /// Per-sTx position within the current burst (Bursty processes).
    burst_pos: BTreeMap<u32, u32>,
    /// Generated-but-unfetched arrivals, in arrival order.
    pending: VecDeque<(u64, TxInstance)>,
    /// Arrival time of the last generated transaction.
    clock: u64,
    /// True once the inner source has run dry.
    exhausted: bool,
}

impl<S: TxSource> OpenSource<S> {
    /// Creates the open stream for thread `thread_index` of a run seeded
    /// with `seed`.
    ///
    /// # Panics
    ///
    /// Panics with [`ArrivalSpec::validate`]'s message if `spec` breaks
    /// a rule.
    pub fn new(inner: S, spec: ArrivalSpec, seed: u64, thread_index: usize) -> Self {
        spec.assert_valid();
        let rng = SimRng::seed_from(seed)
            .derive(ARRIVAL_STREAM)
            .derive(thread_index as u64 + 1);
        Self {
            inner,
            spec,
            rng,
            burst_pos: BTreeMap::new(),
            pending: VecDeque::new(),
            clock: 0,
            exhausted: false,
        }
    }

    /// Materialises the next arrival (time + instance), or notes
    /// exhaustion. Returns whether an arrival was generated.
    fn generate_one(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        match self.inner.next_tx(&mut self.rng) {
            None => {
                self.exhausted = true;
                false
            }
            Some(tx) => {
                let gap = self.gap_for(tx.stx.get());
                self.clock = self
                    .clock
                    .checked_add(gap)
                    .expect("arrival clock overflowed u64");
                self.pending.push_back((self.clock, tx));
                true
            }
        }
    }

    /// One inter-arrival gap for class `stx`, drawn at the current
    /// arrival clock.
    fn gap_for(&mut self, stx: u32) -> u64 {
        match self.spec.process_for(stx) {
            ArrivalProcess::Poisson { mean_gap } => exp_gap(mean_gap, &mut self.rng),
            ArrivalProcess::Bursty {
                burst,
                gap_in,
                gap_out,
            } => {
                let pos = self.burst_pos.entry(stx).or_insert(0);
                *pos += 1;
                if *pos >= burst {
                    *pos = 0;
                    gap_out
                } else {
                    gap_in
                }
            }
            ArrivalProcess::Diurnal { .. } => {
                let mean = self.spec.process_for(stx).mean_gap_at(self.clock);
                exp_gap(mean, &mut self.rng)
            }
        }
    }
}

impl<S: TxSource> TxSource for OpenSource<S> {
    /// Batch view of the open stream: yields instances in arrival order,
    /// ignoring their timestamps. A closed-system replay of the same
    /// transaction sequence.
    fn next_tx(&mut self, _rng: &mut SimRng) -> Option<TxInstance> {
        if self.pending.is_empty() {
            self.generate_one();
        }
        self.pending.pop_front().map(|(_, tx)| tx)
    }

    fn poll_tx(&mut self, now: u64, _rng: &mut SimRng) -> TxPoll {
        // Generate every arrival due by `now`, plus the first future one
        // (needed both for NotBefore and for an exact queue depth).
        while !self.exhausted && self.pending.back().is_none_or(|&(t, _)| t <= now) {
            if !self.generate_one() {
                break;
            }
        }
        let Some(&(time, _)) = self.pending.front() else {
            return TxPoll::Exhausted;
        };
        if time > now {
            return TxPoll::NotBefore(time);
        }
        let (time, tx) = self.pending.pop_front().expect("front checked above");
        let depth = self.pending.iter().take_while(|&&(t, _)| t <= now).count() as u64;
        TxPoll::Ready {
            tx,
            arrival: Some(time),
            depth,
        }
    }
}

/// Open-system sources for every thread of a workload: thread `i` wraps
/// the workload's batch source for thread `i` (a
/// [`WorkloadSource`](crate::WorkloadSource), an adversarial source, any
/// [`TxSource`]) in an [`OpenSource`] seeded from `(seed, i)`.
pub fn open_sources<S: TxSource>(
    sources: Vec<S>,
    spec: &ArrivalSpec,
    seed: u64,
) -> Vec<OpenSource<S>> {
    sources
        .into_iter()
        .enumerate()
        .map(|(i, src)| OpenSource::new(src, spec.clone(), seed, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_htm::{STxId, TxSource};

    /// A trivial inner source: `count` one-line writers of class `stx`.
    #[derive(Debug, Clone)]
    struct Fixed {
        stx: u32,
        count: u64,
    }

    impl TxSource for Fixed {
        fn next_tx(&mut self, _rng: &mut SimRng) -> Option<TxInstance> {
            if self.count == 0 {
                return None;
            }
            self.count -= 1;
            Some(TxInstance::writer_over(STxId(self.stx), 0..1, 0))
        }
    }

    fn drain_times<S: TxSource>(open: &mut OpenSource<S>) -> Vec<u64> {
        let mut rng = SimRng::seed_from(0);
        let mut times = Vec::new();
        let mut now = 0;
        loop {
            match open.poll_tx(now, &mut rng) {
                TxPoll::Ready { arrival, .. } => {
                    times.push(arrival.expect("open sources stamp arrivals"));
                }
                TxPoll::NotBefore(t) => now = t,
                TxPoll::Exhausted => return times,
            }
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_monotonic() {
        let build = || {
            OpenSource::new(
                Fixed { stx: 0, count: 50 },
                ArrivalSpec::poisson(1000),
                42,
                3,
            )
        };
        let a = drain_times(&mut build());
        let b = drain_times(&mut build());
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals out of order");
        assert!(a[0] >= 1, "no arrival before cycle 1");
    }

    #[test]
    fn poisson_mean_gap_is_roughly_right() {
        let mut open = OpenSource::new(
            Fixed {
                stx: 0,
                count: 4000,
            },
            ArrivalSpec::poisson(1000),
            7,
            0,
        );
        let times = drain_times(&mut open);
        let mean = *times.last().expect("nonempty") as f64 / times.len() as f64;
        // Truncated-tail table: expect ~2.5% short of 1000.
        assert!(
            (900.0..=1050.0).contains(&mean),
            "mean gap {mean} far from 1000"
        );
    }

    #[test]
    fn bursty_schedule_matches_parameters_exactly() {
        let mut open = OpenSource::new(
            Fixed { stx: 4, count: 6 },
            ArrivalSpec {
                process: ArrivalProcess::Bursty {
                    burst: 3,
                    gap_in: 10,
                    gap_out: 500,
                },
                per_stx: Vec::new(),
            },
            1,
            0,
        );
        let times = drain_times(&mut open);
        // pos runs 1,2 (gap_in) then wraps at 3 (gap_out).
        assert_eq!(times, vec![10, 20, 520, 530, 540, 1040]);
    }

    #[test]
    fn diurnal_mean_gap_follows_the_triangle() {
        let p = ArrivalProcess::Diurnal {
            period: 1000,
            peak_gap: 100,
            trough_gap: 900,
        };
        assert_eq!(p.mean_gap_at(0), 900);
        assert_eq!(p.mean_gap_at(500), 100);
        assert_eq!(p.mean_gap_at(250), 500);
        assert_eq!(p.mean_gap_at(750), 500);
        assert_eq!(p.mean_gap_at(1000), 900);
    }

    #[test]
    fn per_class_overrides_select_processes() {
        let spec = ArrivalSpec::poisson(100).with_override(
            2,
            ArrivalProcess::Bursty {
                burst: 1,
                gap_in: 0,
                gap_out: 7,
            },
        );
        assert_eq!(
            spec.process_for(2),
            ArrivalProcess::Bursty {
                burst: 1,
                gap_in: 0,
                gap_out: 7
            }
        );
        assert_eq!(
            spec.process_for(0),
            ArrivalProcess::Poisson { mean_gap: 100 }
        );
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn queue_depth_counts_due_arrivals() {
        // The first three draws of a burst of four are gap_in = 0, so
        // three arrivals land on cycle 0; fetching the first must report
        // the other two as queued behind it, and the fourth (out at
        // cycle 100) must not count.
        let mut open = OpenSource::new(
            Fixed { stx: 0, count: 4 },
            ArrivalSpec {
                process: ArrivalProcess::Bursty {
                    burst: 4,
                    gap_in: 0,
                    gap_out: 100,
                },
                per_stx: Vec::new(),
            },
            9,
            0,
        );
        let mut rng = SimRng::seed_from(0);
        match open.poll_tx(0, &mut rng) {
            TxPoll::Ready { depth, arrival, .. } => {
                assert_eq!(arrival, Some(0));
                assert_eq!(depth, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match open.poll_tx(0, &mut rng) {
            TxPoll::Ready { depth, .. } => assert_eq!(depth, 1),
            other => panic!("unexpected {other:?}"),
        }
        match open.poll_tx(0, &mut rng) {
            TxPoll::Ready { depth, .. } => assert_eq!(depth, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(open.poll_tx(0, &mut rng), TxPoll::NotBefore(100));
    }

    #[test]
    fn not_before_reports_the_exact_next_arrival() {
        let mut open = OpenSource::new(
            Fixed { stx: 0, count: 1 },
            ArrivalSpec {
                process: ArrivalProcess::Bursty {
                    burst: 1,
                    gap_in: 0,
                    gap_out: 250,
                },
                per_stx: Vec::new(),
            },
            3,
            0,
        );
        let mut rng = SimRng::seed_from(0);
        assert_eq!(open.poll_tx(0, &mut rng), TxPoll::NotBefore(250));
        assert!(matches!(
            open.poll_tx(250, &mut rng),
            TxPoll::Ready {
                arrival: Some(250),
                ..
            }
        ));
        assert_eq!(open.poll_tx(300, &mut rng), TxPoll::Exhausted);
    }

    #[test]
    fn batch_next_tx_replays_the_arrival_order() {
        let build = || {
            OpenSource::new(
                Fixed { stx: 0, count: 10 },
                ArrivalSpec::poisson(100),
                11,
                2,
            )
        };
        let mut rng = SimRng::seed_from(0);
        let mut batch = build();
        let mut n = 0;
        while batch.next_tx(&mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    #[should_panic(expected = "mean_gap must be >= 1")]
    fn zero_mean_gap_rejected() {
        OpenSource::new(Fixed { stx: 0, count: 1 }, ArrivalSpec::poisson(0), 1, 0);
    }

    #[test]
    fn inverted_diurnal_range_rejected() {
        let err = ArrivalProcess::Diurnal {
            period: 100,
            peak_gap: 500,
            trough_gap: 100,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("trough_gap must be >= peak_gap"), "{err}");
    }

    #[test]
    fn exp_gap_never_returns_zero() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            assert!(exp_gap(1, &mut rng) >= 1);
        }
    }
}
