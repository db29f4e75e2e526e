//! Typed, seeded fault plans.

use bfgts_core::{CmFaults, PoisonMode};
use bfgts_testkit::Gen;

/// Confidence value a saturation poisoning writes into every table
/// entry: far above the default serialisation threshold (100.0), so
/// every known pair looks certain to conflict. Kept as a single constant
/// so fault plans can stay integer-only and round-trip JSON exactly.
pub const SATURATE_VALUE: f64 = 1000.0;

/// The widest cost-perturbation envelope, in percent.
///
/// [`Fault::CostPerturb`] draws each latency from
/// `[cost − cost·p/100, cost + cost·p/100]`; above 100% the envelope's
/// lower edge is negative and `CostModel::perturbed` panics.
/// [`Fault::validate`] rejects a wider envelope, so an untrusted
/// scenario document cannot kill a run. Randomized plans draw 5–50%.
pub const MAX_PERTURB_PERCENT: u32 = 100;

/// The most bit positions one Bloom corruption may force.
///
/// Each corrupted signature draws this many positions, one RNG draw
/// apiece, so the count is a loop bound per commit (and, on bounded
/// detection, an allocation per transaction begin). The paper's largest
/// signature has 8192 bits (Figure 6): forcing more positions than that
/// adds nothing a full signature lacks. Randomized plans draw 8–128.
pub const MAX_CORRUPT_BITS: u32 = 8192;

/// One injected fault. All parameters are integers so a plan serialises
/// to JSON and back without any float-precision escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Jitter every cost-model latency within `±max_percent`%.
    CostPerturb {
        /// Envelope half-width in percent, at most
        /// [`MAX_PERTURB_PERCENT`].
        max_percent: u32,
    },
    /// With `rate_pct`% probability per commit signature, force `bits`
    /// random bit positions high in the freshly built Bloom filter.
    BloomCorrupt {
        /// Percent probability per commit (0–100).
        rate_pct: u32,
        /// Bit positions forced per corruption event, at most
        /// [`MAX_CORRUPT_BITS`].
        bits: u32,
    },
    /// Every `period` commits, reset the confidence table to zero or
    /// saturate it to [`SATURATE_VALUE`].
    ConfPoison {
        /// Commits between poisoning events (> 0).
        period: u64,
        /// Saturate instead of reset.
        saturate: bool,
    },
}

impl Fault {
    /// Checks the fault's magnitudes: a cost envelope of at most
    /// [`MAX_PERTURB_PERCENT`], a corruption rate of at most 100% and at
    /// most [`MAX_CORRUPT_BITS`] forced positions.
    pub fn validate(&self) -> Result<(), String> {
        let at_most = |field: &str, value: u32, max: u32| {
            if value > max {
                return Err(format!(
                    "fault field '{field}' must be at most {max}, got {value}"
                ));
            }
            Ok(())
        };
        match *self {
            Fault::CostPerturb { max_percent } => {
                at_most("max_percent", max_percent, MAX_PERTURB_PERCENT)
            }
            Fault::BloomCorrupt { rate_pct, bits } => {
                at_most("rate_pct", rate_pct, 100)?;
                at_most("bits", bits, MAX_CORRUPT_BITS)
            }
            Fault::ConfPoison { .. } => Ok(()),
        }
    }

    /// A strictly weaker version of this fault, if one exists: the
    /// magnitude-halving step of [`crate::minimize`].
    pub fn shrunk(&self) -> Option<Fault> {
        match *self {
            Fault::CostPerturb { max_percent } => {
                let half = max_percent / 2;
                (half > 0).then_some(Fault::CostPerturb { max_percent: half })
            }
            Fault::BloomCorrupt { rate_pct, bits } => {
                let half = bits / 2;
                (half > 0).then_some(Fault::BloomCorrupt {
                    rate_pct,
                    bits: half,
                })
            }
            Fault::ConfPoison { period, saturate } => {
                // Halving a poisoning fault means poisoning half as
                // often. Cap the stretch so shrinking terminates.
                let longer = period * 2;
                (longer <= 1 << 16).then_some(Fault::ConfPoison {
                    period: longer,
                    saturate,
                })
            }
        }
    }
}

/// A seeded list of faults: what to inject and the seed of every random
/// stream the injection draws from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the plan's fault RNG streams (cost jitter and the
    /// manager's private corruption/poisoning stream).
    pub seed: u64,
    /// The faults, in declaration order. At most one fault per class is
    /// meaningful: later faults of the same class override earlier ones.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: injects nothing.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends a fault (builder style).
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A randomized plan for campaign cell `seed`: one to three faults
    /// with parameters drawn inside the envelopes the degradation bound
    /// is calibrated for. Deterministic in `seed` (splitmix64 via
    /// [`bfgts_testkit::Gen`]).
    pub fn randomized(seed: u64) -> Self {
        let mut g = Gen::new(seed ^ 0xFA17_B00C);
        let mut plan = Self::new(seed);
        if g.bool() {
            plan.faults.push(Fault::CostPerturb {
                max_percent: g.u32_in(5, 51),
            });
        }
        if g.bool() {
            plan.faults.push(Fault::BloomCorrupt {
                rate_pct: g.u32_in(10, 101),
                bits: g.u32_in(8, 129),
            });
        }
        if g.bool() {
            plan.faults.push(Fault::ConfPoison {
                period: g.u64_in(20, 201),
                saturate: g.bool(),
            });
        }
        if plan.faults.is_empty() {
            // Every cell injects something; an all-clean cell would
            // waste its campaign slot (the clean path is CI's job).
            plan.faults.push(Fault::BloomCorrupt {
                rate_pct: g.u32_in(10, 101),
                bits: g.u32_in(8, 129),
            });
        }
        plan
    }

    /// The cost-perturbation envelope this plan requests (0 = none;
    /// the last `CostPerturb` fault wins).
    pub fn cost_percent(&self) -> u64 {
        self.faults
            .iter()
            .rev()
            .find_map(|f| match f {
                Fault::CostPerturb { max_percent } => Some(u64::from(*max_percent)),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// The Bloom-corruption envelope this plan requests, as
    /// `(rate_pct, bits)` (`None` = no corruption; the last
    /// `BloomCorrupt` fault wins). Consumers apply it both to the
    /// scheduler's commit signatures (via [`Self::cm_faults`]) and, on
    /// capacity-limited hardware, to the live detection signatures.
    pub fn bloom_corrupt(&self) -> Option<(u32, u32)> {
        self.faults.iter().rev().find_map(|f| match f {
            Fault::BloomCorrupt { rate_pct, bits } => Some((*rate_pct, *bits)),
            _ => None,
        })
    }

    /// The manager-level fault configuration this plan folds down to,
    /// or `None` if only engine-level faults are present.
    pub fn cm_faults(&self) -> Option<CmFaults> {
        let mut cfg = CmFaults::new(self.seed);
        for f in &self.faults {
            match *f {
                Fault::CostPerturb { .. } => {}
                Fault::BloomCorrupt { rate_pct, bits } => {
                    cfg = cfg.bloom_corruption(rate_pct, bits);
                }
                Fault::ConfPoison { period, saturate } => {
                    let mode = if saturate {
                        PoisonMode::Saturate(SATURATE_VALUE)
                    } else {
                        PoisonMode::Reset
                    };
                    cfg = cfg.poisoning(period, mode);
                }
            }
        }
        cfg.is_active().then_some(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_testkit::run_cases;

    #[test]
    fn randomized_plans_are_deterministic_and_in_envelope() {
        // The fuzz campaign's cells 0..256, then random seeds.
        for seed in 0..256 {
            for fault in &FaultPlan::randomized(seed).faults {
                assert_eq!(fault.validate(), Ok(()), "cell {seed}: {fault:?}");
            }
        }
        run_cases("fault-plan-envelope", 64, |g| {
            let seed = g.u64();
            let plan = FaultPlan::randomized(seed);
            assert_eq!(plan, FaultPlan::randomized(seed), "replay");
            assert!(!plan.is_empty(), "every cell injects something");
            assert!(plan.faults.len() <= 3);
            for f in &plan.faults {
                assert_eq!(f.validate(), Ok(()), "{f:?}");
                match *f {
                    Fault::CostPerturb { max_percent } => {
                        assert!((5..=50).contains(&max_percent))
                    }
                    Fault::BloomCorrupt { rate_pct, bits } => {
                        assert!((10..=100).contains(&rate_pct));
                        assert!((8..=128).contains(&bits));
                    }
                    Fault::ConfPoison { period, .. } => {
                        assert!((20..=200).contains(&period))
                    }
                }
            }
        });
    }

    #[test]
    fn seeds_vary_the_plan() {
        let plans: Vec<_> = (0..16).map(FaultPlan::randomized).collect();
        assert!(
            plans.windows(2).any(|w| w[0].faults != w[1].faults),
            "16 consecutive seeds produced identical plans"
        );
    }

    #[test]
    fn cm_faults_folds_manager_level_faults() {
        let plan = FaultPlan::new(9)
            .fault(Fault::CostPerturb { max_percent: 20 })
            .fault(Fault::BloomCorrupt {
                rate_pct: 50,
                bits: 32,
            })
            .fault(Fault::ConfPoison {
                period: 40,
                saturate: true,
            });
        assert_eq!(plan.cost_percent(), 20);
        let cm = plan.cm_faults().expect("manager faults present");
        assert_eq!(cm.seed, 9);
        assert_eq!(cm.bloom_corrupt_pct, 50);
        assert_eq!(cm.bloom_corrupt_bits, 32);
        assert_eq!(cm.poison_period, 40);
        assert_eq!(cm.poison_mode, PoisonMode::Saturate(SATURATE_VALUE));
    }

    #[test]
    fn cost_only_plans_have_no_manager_faults() {
        let plan = FaultPlan::new(1).fault(Fault::CostPerturb { max_percent: 10 });
        assert!(plan.cm_faults().is_none());
        assert_eq!(plan.cost_percent(), 10);
        assert_eq!(FaultPlan::new(2).cost_percent(), 0);
    }

    #[test]
    fn shrinking_terminates_at_every_fault() {
        for start in [
            Fault::CostPerturb { max_percent: 50 },
            Fault::BloomCorrupt {
                rate_pct: 100,
                bits: 128,
            },
            Fault::ConfPoison {
                period: 20,
                saturate: false,
            },
        ] {
            let mut f = start;
            let mut steps = 0;
            while let Some(next) = f.shrunk() {
                f = next;
                steps += 1;
                assert!(steps < 64, "shrink chain for {start:?} does not terminate");
            }
        }
    }
}
