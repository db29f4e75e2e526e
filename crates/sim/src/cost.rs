//! The simulated machine's latency parameters.
//!
//! Defaults follow Table 2 of the paper (M5 simulation parameters) plus
//! conventional costs for the OS operations the paper's runtimes lean on
//! (pthread yield / futex block / context switch), expressed in cycles of
//! the simulated 2 GHz cores.

/// Latency parameters of the simulated machine, in cycles.
///
/// # Example
///
/// ```
/// use bfgts_sim::CostModel;
/// let costs = CostModel::default();
/// assert_eq!(costs.l1_hit, 1);
/// assert_eq!(costs.popcnt, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// L1 cache hit (Table 2: 64 kB, 1 cycle).
    pub l1_hit: u64,
    /// L2 cache hit (Table 2: 32 MB, 32 cycles).
    pub l2_hit: u64,
    /// Main memory access (Table 2: 100 cycles).
    pub memory: u64,
    /// 64-bit population count instruction (Table 2: `popcnt`, 2 cycles).
    pub popcnt: u64,
    /// Floating-point logarithm instruction (Table 2: `fyl2x`, 15 cycles).
    pub fyl2x: u64,
    /// Hit in the dedicated transaction-confidence cache of the BFGTS
    /// hardware accelerator (Table 2: 2 kB, 1 cycle).
    pub conf_cache_hit: u64,
    /// Miss in the confidence cache, refilled from L2.
    pub conf_cache_miss: u64,
    /// Register checkpoint taken by `TX_BEGIN`.
    pub tx_begin: u64,
    /// Commit bookkeeping inside the HTM (log truncation, signature clear).
    pub tx_commit: u64,
    /// Fixed part of an abort: trap into the software handler.
    pub abort_trap: u64,
    /// Per-logged-cache-line cost of walking the LogTM undo log on abort.
    pub abort_per_line: u64,
    /// Kernel-mode cost of a context switch between threads on one CPU.
    pub context_switch: u64,
    /// Kernel-mode cost of `pthread_yield` (syscall + requeue), excluding
    /// the context switch itself.
    pub yield_syscall: u64,
    /// Kernel-mode cost of blocking on a futex (ATS central queue, BFGTS
    /// suspend).
    pub futex_block: u64,
    /// Kernel-mode cost of waking a thread blocked on a futex.
    pub futex_wake: u64,
    /// Preemption time quantum of the OS scheduler.
    pub quantum: u64,
    /// Per-extra-shard commit coordination cost on a sharded platform:
    /// a committing transaction that touched `s ≥ 2` conflict-detection
    /// shards pays `cross_shard_hop · (s − 1)` extra commit cycles (one
    /// directory hop per remote shard). Unused when the platform has a
    /// single shard. Declared last so [`CostModel::perturbed`]'s draw
    /// order for the pre-existing latencies is unchanged.
    pub cross_shard_hop: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            l1_hit: 1,
            l2_hit: 32,
            memory: 100,
            popcnt: 2,
            fyl2x: 15,
            conf_cache_hit: 1,
            conf_cache_miss: 32,
            tx_begin: 10,
            tx_commit: 20,
            abort_trap: 500,
            abort_per_line: 8,
            context_switch: 2000,
            yield_syscall: 600,
            futex_block: 1500,
            futex_wake: 1200,
            quantum: 1_000_000,
            cross_shard_hop: 120,
        }
    }
}

impl CostModel {
    /// Cost parameters re-targeted at a *software* TM: every access pays
    /// instrumentation (read/write barriers), begin takes a descriptor
    /// setup and commit a validation pass. Scheduling-code costs are
    /// unchanged — which is exactly why, as the paper's related work
    /// notes for Dragojević et al., "scheduling overheads are less
    /// important" in STM: they are amortised by the fatter transactions.
    pub fn stm_like() -> Self {
        Self {
            tx_begin: 150,
            tx_commit: 120,
            abort_trap: 300,
            abort_per_line: 20,
            ..Self::default()
        }
    }

    /// Cost of computing the Bloom-filter similarity update in `commitTx`
    /// (paper Example 4 / §4.2.2): three population counts over
    /// `words_per_filter`-word filters, three `ln` evaluations, the union,
    /// plus a handful of ALU operations.
    ///
    /// Modern 64-bit `popcnt` handles one word per invocation; the union is
    /// one OR per word (1 cycle each); `calcSim` evaluates three logarithms
    /// via `fyl2x`.
    pub fn similarity_calc(&self, words_per_filter: u64) -> u64 {
        let popcounts = 3 * words_per_filter * self.popcnt;
        let union_ops = words_per_filter;
        let logs = 3 * self.fyl2x;
        let alu = 20;
        popcounts + union_ops + logs + alu
    }

    /// Cost of intersecting two saved Bloom filters on commit (one AND +
    /// one zero-test per word).
    pub fn bloom_intersect(&self, words_per_filter: u64) -> u64 {
        2 * words_per_filter
    }

    /// A deterministically jittered copy of this model, the fault-injection
    /// layer's cost-perturbation hook (DESIGN.md §9).
    ///
    /// Every latency moves independently and uniformly within the bounded
    /// envelope `[cost − cost·p/100, cost + cost·p/100]` where
    /// `p = max_percent`, and never below 1 cycle — a zero-cost context
    /// switch would break the engine's "zero-cost operations emit nothing"
    /// tracing contract. The draw order is the field declaration order, so
    /// one `SimRng` state maps to exactly one perturbed model.
    pub fn perturbed(&self, rng: &mut crate::SimRng, max_percent: u64) -> Self {
        let mut jitter = |cost: u64| -> u64 {
            let span = cost
                .checked_mul(max_percent)
                .expect("jitter envelope overflowed u64")
                / 100;
            if span == 0 {
                return cost.max(1);
            }
            // Uniform in [cost - span, cost + span].
            let lo = cost
                .checked_sub(span)
                .expect("jitter span exceeds the base cost (max_percent > 100?)");
            (lo + rng.gen_range(2 * span + 1)).max(1)
        };
        Self {
            l1_hit: jitter(self.l1_hit),
            l2_hit: jitter(self.l2_hit),
            memory: jitter(self.memory),
            popcnt: jitter(self.popcnt),
            fyl2x: jitter(self.fyl2x),
            conf_cache_hit: jitter(self.conf_cache_hit),
            conf_cache_miss: jitter(self.conf_cache_miss),
            tx_begin: jitter(self.tx_begin),
            tx_commit: jitter(self.tx_commit),
            abort_trap: jitter(self.abort_trap),
            abort_per_line: jitter(self.abort_per_line),
            context_switch: jitter(self.context_switch),
            yield_syscall: jitter(self.yield_syscall),
            futex_block: jitter(self.futex_block),
            futex_wake: jitter(self.futex_wake),
            quantum: jitter(self.quantum),
            cross_shard_hop: jitter(self.cross_shard_hop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = CostModel::default();
        assert_eq!(c.l1_hit, 1);
        assert_eq!(c.l2_hit, 32);
        assert_eq!(c.memory, 100);
        assert_eq!(c.popcnt, 2);
        assert_eq!(c.fyl2x, 15);
        assert_eq!(c.conf_cache_hit, 1);
    }

    #[test]
    fn similarity_scales_with_filter_words() {
        let c = CostModel::default();
        let small = c.similarity_calc(8); // 512-bit filter
        let large = c.similarity_calc(128); // 8192-bit filter
        assert!(large > small);
        // 8 words: 3*8*2 + 8 + 45 + 20 = 121
        assert_eq!(small, 121);
    }

    #[test]
    fn stm_costs_are_fatter_per_transaction() {
        let hw = CostModel::default();
        let stm = CostModel::stm_like();
        assert!(stm.tx_begin > hw.tx_begin);
        assert!(stm.tx_commit > hw.tx_commit);
        assert_eq!(stm.l1_hit, hw.l1_hit, "machine latencies unchanged");
    }

    #[test]
    fn intersect_cost_is_linear() {
        let c = CostModel::default();
        assert_eq!(c.bloom_intersect(8) * 2, c.bloom_intersect(16));
    }

    #[test]
    fn perturbed_costs_stay_in_the_envelope_and_are_deterministic() {
        use crate::SimRng;
        let base = CostModel::default();
        let a = base.perturbed(&mut SimRng::seed_from(42), 20);
        let b = base.perturbed(&mut SimRng::seed_from(42), 20);
        assert_eq!(a, b, "same rng state, same perturbation");
        let c = base.perturbed(&mut SimRng::seed_from(43), 20);
        assert_ne!(a, c, "different seeds move at least one latency");

        let within = |got: u64, base: u64| {
            let span = base * 20 / 100;
            got >= (base - span).max(1) && got <= base + span
        };
        assert!(within(a.context_switch, base.context_switch));
        assert!(within(a.tx_commit, base.tx_commit));
        assert!(within(a.abort_trap, base.abort_trap));
        assert!(within(a.quantum, base.quantum));
        // Sub-envelope latencies (1-cycle L1 hits) never reach zero.
        assert!(a.l1_hit >= 1 && a.conf_cache_hit >= 1);
    }

    #[test]
    fn zero_percent_perturbation_is_identity() {
        let base = CostModel::default();
        let p = base.perturbed(&mut crate::SimRng::seed_from(7), 0);
        assert_eq!(p, base);
    }
}
